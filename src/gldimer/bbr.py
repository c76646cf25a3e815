"""Closed moment dynamics: integrate the first/second-moment equations and
locate their steady states by a root search.

The state is 14 real numbers: the Bloch vector and particle number
(s_x, s_y, s_z, n) plus the ten covariances D_jk of the four Hermitian
quadratics, in the layout of `fock.BlochMoments.vector`.  States are
`fock.BlochMoments` records and `integrate` returns a
`fock.MomentTrajectory`, the records the master-equation engines use,
so closed and exact moments compare field by field.  The coupling of
second to third moments is removed by the factorization closure baked
into the generated kernel (see tools/derive_moment_rhs.py for the
derivation and its validation gates).

Two interaction modes exist:

* fixed U: the two-particle interaction strength is a constant;
* constant g: the macroscopic interaction g = U (n - 1) is held fixed by
  substituting U(t) = g / (n(t) - 1) at every evaluation, which diverges
  as n approaches 1 and is treated as a hard error there.

The right-hand side is the generated pure-Python kernel
`_moment_rhs_py.moment_rhs`, which takes any sequence of 14 floats and
writes into any mutable 14-slot `out`; its generated twin
`_moment_rhs_py.moment_jacobian` gives the analytic Jacobian at fixed U
and the derivative in U, from which the constant-g Jacobian follows by
the chain rule through U = g/(n-1).  The steady-state root search holds
its iterate, residuals and Newton steps as lists of Python floats and
calls the kernel with them: the same IEEE operations in the same order as
on numpy scalars, so the results are bit for bit those of the array form,
at about a third of the cost per evaluation.  numpy builds the Jacobian
matrix and solves the Newton system.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
import scipy.optimize

from . import _moment_rhs_py as _kernel
from .errors import InteractionSingularityError
from .fock import MIN_PARTICLE_NUMBER, BlochMoments, MomentTrajectory
from .ode import integrate_dp45, sample_grid
from .system import SystemParams

# There is no compiled kernel.  The flag stays only because the benchmark
# (perfbench/worker.py) records it in its run context and perfbench/compare.py
# refuses to compare records whose flags differ.
COMPILED_KERNEL = False

SWEEP_COLUMNS = ("gamma", "g", "exists", "s_x", "s_y", "s_z", "n", "P",
                 "Delta_n")

_N_SINGULAR = 1.0 + 1e-6
_EPS = float(np.finfo(float).eps)
# Newton iterations a root search may take before it reports its best point
MAX_ITERATIONS = 200


@dataclass(frozen=True)
class FixedU:
    """Constant two-particle interaction strength."""

    u: float


@dataclass(frozen=True)
class ConstantG:
    """Constant macroscopic interaction: U(t) = g / (n(t) - 1)."""

    g: float


BbrMode = FixedU | ConstantG


def _resolve_u(y, mode: BbrMode) -> float:
    if isinstance(mode, FixedU):
        return mode.u
    n = y[3]
    if n <= _N_SINGULAR:
        raise InteractionSingularityError(
            f"U = g/(n-1) diverges: n = {n:.6g}")
    return mode.g / (n - 1.0)


def moment_rhs(y, params: SystemParams, mode: BbrMode, out=None):
    """Time derivative of the 14-component moment vector.

    y is any sequence of 14 floats (list or ndarray); the derivative is
    written into out, any mutable 14-slot sequence (a new array when
    omitted), which is returned.  The parameters reach the kernel as
    Python floats, so no numpy scalar pulls its arithmetic back onto
    numpy."""
    if out is None:
        out = np.empty(14)
    u = _resolve_u(y, mode)
    _kernel.moment_rhs(y, float(params.J), float(u),
                       float(params.gamma_gain), float(params.gamma_loss),
                       out)
    return out


def pure_state_moments(theta: float, phi: float, n0: int) -> BlochMoments:
    """Moments of the product of n0 identical single-particle states.

    First moments are n0 times the unit vector u(theta, phi); the particle
    number is sharp, and the quadratic covariances are the coherent-state
    values (n0/2)(1 - u u^T) perpendicular to u.
    """
    if n0 < 1:
        raise ValueError("n0 must be >= 1")
    u = np.array([np.sin(theta) * np.cos(phi),
                  np.sin(theta) * np.sin(phi),
                  np.cos(theta)])
    delta = np.zeros((4, 4))
    delta[:3, :3] = 0.5 * n0 * (np.eye(3) - np.outer(u, u))
    s_x, s_y, s_z = n0 * u
    return BlochMoments(s_x=s_x, s_y=s_y, s_z=s_z, n=float(n0), delta=delta)


def integrate(initial: BlochMoments, t_final: float, params: SystemParams,
              mode: BbrMode, *, rtol: float = 1e-10, atol: float = 1e-12,
              sample_interval: float | None = None) -> MomentTrajectory:
    """Adaptive integration of the closed moment equations."""
    ts = sample_grid(t_final, sample_interval, 400)

    def rhs(_t, y):
        return moment_rhs(y, params, mode)

    res = integrate_dp45(rhs, (0.0, t_final), initial.vector,
                         rtol=rtol, atol=atol, sample_times=ts)
    return MomentTrajectory(ts=res.sample_ts, ys=res.sample_ys)


# ---------------------------------------------------------------------------
# steady-state root search


@dataclass(frozen=True)
class RootResult:
    """Outcome of one root search and the work it took.

    kernel_calls counts residual evaluations that ran the kernel,
    sentinel_hits those inside the constant-g singular band (residual
    sentinel or zero Jacobian), jacobian_evals the analytic Jacobians,
    newton_steps the Newton systems solved and backtracks the rejected
    line-search trials.  fallback names the heaviest fallback the search
    used: "hybr" (the trust-region root finder after a stall) over
    "lstsq" (a least-squares Newton step on a singular Jacobian) over
    None."""

    state: BlochMoments | None
    converged: bool
    physical: bool
    residual: float
    iterations: int
    kernel_calls: int = 0
    jacobian_evals: int = 0
    newton_steps: int = 0
    backtracks: int = 0
    fallback: str | None = None
    sentinel_hits: int = 0

    @property
    def found(self) -> bool:
        return self.converged and self.physical


# per-sweep sums of the RootResult work counts (GammaSweep.work)
WORK_KEYS = ("searches", "kernel_calls", "jacobian_evals", "newton_steps",
             "backtracks", "hybr_fallbacks", "lstsq_fallbacks",
             "sentinel_hits")


def _tally(work: dict, res: RootResult) -> RootResult:
    """Add the work of one search to the sums in work; returns res."""
    work["searches"] += 1
    for key in ("kernel_calls", "jacobian_evals", "newton_steps",
                "backtracks", "sentinel_hits"):
        work[key] += getattr(res, key)
    if res.fallback is not None:
        work[f"{res.fallback}_fallbacks"] += 1
    return res


def _classify(y) -> bool:
    state = BlochMoments.from_vector(y)
    if state.n <= MIN_PARTICLE_NUMBER:
        return False
    if state.purity > 1.0 + 1e-8:
        return False
    if np.min(np.diagonal(state.delta)) < -1e-8:
        return False
    return True


def _max_abs(v) -> float:
    """Infinity norm of a float sequence, NaN if any entry is NaN (as
    np.max(np.abs(v)))."""
    if any(map(math.isnan, v)):
        return math.nan
    return max(map(abs, v))


class _Residual:
    """The residual function of the root search and its Jacobian, counting
    their evaluations.

    The residual is the moment derivative as a list, or 1e6 in every
    component where constant g makes U = g/(n-1) singular (the search then
    steps away from n = 1); there the residual is constant, so its
    Jacobian is zero."""

    def __init__(self, params: SystemParams, mode: BbrMode):
        self.params = params
        self.mode = mode
        self.consts = (float(params.J), float(params.gamma_gain),
                       float(params.gamma_loss))
        self.kernel_calls = 0
        self.jacobian_evals = 0
        self.sentinel_hits = 0

    def __call__(self, y):
        out = [0.0] * 14
        try:
            moment_rhs(y, self.params, self.mode, out)
        except InteractionSingularityError:
            self.sentinel_hits += 1
            return [1e6] * 14
        self.kernel_calls += 1
        return out

    def jacobian(self, y) -> np.ndarray:
        """d residual / d y as a 14 x 14 array.  In constant-g mode the n
        column carries the chain-rule term df/dU * dU/dn, with
        dU/dn = -g/(n-1)^2."""
        self.jacobian_evals += 1
        try:
            u = float(_resolve_u(y, self.mode))
        except InteractionSingularityError:
            self.sentinel_hits += 1
            return np.zeros((14, 14))
        J, gain, loss = self.consts
        rows, d_du = _kernel.moment_jacobian(y, J, u, gain, loss)
        if isinstance(self.mode, ConstantG):
            du_dn = -float(self.mode.g) / (float(y[3]) - 1.0) ** 2
            for row, d in zip(rows, d_du):
                row[3] += d * du_dn
        return np.array(rows)


def _residual_floor(y, params: SystemParams) -> float:
    """Rounding floor of a single right-hand-side evaluation.

    Covariance components combine terms of magnitude up to about
    max(J, gamma, 1) * max|y|; their cancellation cannot be resolved below
    a small multiple of eps times that scale, which near existence
    boundaries (particle numbers in the thousands) exceeds any fixed
    absolute tolerance."""
    scale = max(1.0, params.J, params.gamma) * max(1.0, _max_abs(y))
    return 50 * _EPS * scale


def steady_root_search(params: SystemParams, mode: BbrMode,
                       initial_guess: BlochMoments, *,
                       residual_tol: float = 1e-10) -> RootResult:
    """Damped Newton iteration on the moment equations, with a
    trust-region fallback on stagnation.

    Both the Newton step and the fallback (scipy's `hybr`, after five
    stalled iterations) use the generated analytic Jacobian; a singular
    Jacobian (as in the constant-g singular band, where it is zero) gets
    a least-squares step.  Convergence requires the residual infinity
    norm to fall below residual_tol or, when the state's magnitude puts
    floating-point noise above that, below the evaluation noise floor.  A
    converged root is classified physical iff its purity is <= 1 + 1e-8
    and all covariance diagonals are >= -1e-8; unphysical roots are
    reported distinctly (converged=True, physical=False).  The result
    carries the search's work counts (see RootResult).

    The iterate, residuals and steps are lists of floats (never modified
    in place, so they are shared rather than copied); numpy only builds
    and solves the Newton system.
    """
    fun = _Residual(params, mode)

    def tol_at(y):
        return max(residual_tol, _residual_floor(y, params))

    y = initial_guess.vector.tolist()
    f = fun(y)
    best_y, best_norm = y, _max_abs(f)
    iterations = newton_steps = backtracks = 0
    fallback = None
    stall = 0
    for iterations in range(1, MAX_ITERATIONS + 1):
        norm = _max_abs(f)
        if norm < tol_at(y):
            break
        jac = fun.jacobian(y)
        neg_f = -np.array(f)
        newton_steps += 1
        try:
            step = np.linalg.solve(jac, neg_f).tolist()
        except np.linalg.LinAlgError:
            step = np.linalg.lstsq(jac, neg_f, rcond=None)[0].tolist()
            fallback = fallback or "lstsq"
        improved = False
        for lam in (1.0, 0.5, 0.25, 0.125, 0.0625, 0.03125):
            y_new = [a + lam * b for a, b in zip(y, step)]
            f_new = fun(y_new)
            if _max_abs(f_new) < norm:
                y, f = y_new, f_new
                improved = True
                break
            backtracks += 1
        new_norm = _max_abs(f)
        if new_norm < best_norm:
            best_y, best_norm = y, new_norm
        if not improved or new_norm > 0.9 * norm:
            stall += 1
        else:
            stall = 0
        if stall >= 5:
            fallback = "hybr"
            sol = scipy.optimize.root(fun, best_y, jac=fun.jacobian,
                                      method="hybr", options={"xtol": 1e-13})
            if sol.success:
                y = sol.x.tolist()
                f = fun(y)
                if _max_abs(f) < best_norm:
                    best_y, best_norm = y, _max_abs(f)
            stall = 0
            if _max_abs(f) >= norm:
                break  # no further progress available

    residual = _max_abs(fun(best_y))
    converged = residual < tol_at(best_y)
    physical = converged and _classify(best_y)
    return RootResult(
        state=BlochMoments.from_vector(best_y) if converged else None,
        converged=converged, physical=physical, residual=residual,
        iterations=iterations, kernel_calls=fun.kernel_calls,
        jacobian_evals=fun.jacobian_evals, newton_steps=newton_steps,
        backtracks=backtracks, fallback=fallback,
        sentinel_hits=fun.sentinel_hits)


def u0_steady_guess(params: SystemParams) -> BlochMoments:
    """Analytic steady first moments of the non-interacting limit with a
    diagonal covariance heuristic; the standard sweep anchor."""
    from .closedform import steady_alpha

    alpha = steady_alpha(params)
    delta = np.diag([alpha.n / 2, alpha.n / 2, alpha.n / 2, alpha.n])
    return BlochMoments(s_x=alpha.s_x, s_y=alpha.s_y, s_z=alpha.s_z,
                        n=alpha.n, delta=delta)


def _params_at(gamma: float, g: float, n0: int, J: float,
               mode_kind: str) -> tuple[SystemParams, BbrMode]:
    if mode_kind not in ("fixed-U", "constant-g"):
        raise ValueError(f"unknown mode kind {mode_kind!r}")
    params = SystemParams.from_g(g=g, gamma=gamma, n0=n0, J=J)
    return params, (FixedU(params.U) if mode_kind == "fixed-U"
                    else ConstantG(g))


@dataclass
class SweepPoint:
    gamma: float
    g: float
    exists: bool
    state: BlochMoments | None

    def row(self):
        if self.state is None:
            return (self.gamma, self.g, 0, np.nan, np.nan, np.nan, np.nan,
                    np.nan, np.nan)
        st = self.state
        return (self.gamma, self.g, 1, st.s_x, st.s_y, st.s_z, st.n,
                st.purity, np.sqrt(max(st.delta[3, 3], 0.0)))


@dataclass
class GammaSweep:
    g: float
    mode_kind: str
    points: list
    boundary: float | None   # gamma where the branch ends (None: not found)
    tail: list = field(default_factory=list)  # refined off-grid points near it
    work: dict = field(default_factory=dict)  # WORK_KEYS sums over its searches

    def rows(self):
        return [p.row() for p in self.points]

    def existing_states(self):
        return [(p.gamma, p.state) for p in self.points + self.tail
                if p.exists]


def sweep_gamma(gammas, g: float, n0: int, mode_kind: str, *, J: float = 1.0,
                residual_tol: float = 1e-9,
                boundary_resolution: float = 1e-4) -> GammaSweep:
    """Track the steady-state branch over an ascending gamma grid.

    The branch is followed by warm-started continuation, anchored at the
    first grid point by one root search from the analytic non-interacting
    steady state (no root there: no point exists, boundary grid[0]).  The
    continuation step adapts: where the branch steepens (the particle
    number blows up toward the existence boundary) grid gaps are bridged
    with refined intermediate steps, recorded in `tail`.  The branch
    endpoint is resolved to `boundary_resolution`; grid points beyond it
    are marked non-existing.  `work` sums the searches' work counts.
    """
    grid = np.asarray(sorted(float(x) for x in gammas))
    if len(grid) == 0 or grid[0] <= 0:
        raise ValueError("gamma grid must be positive and non-empty")
    points: list[SweepPoint] = []
    tail: list[SweepPoint] = []
    work = dict.fromkeys(WORK_KEYS, 0)

    params, mode = _params_at(grid[0], g, n0, J, mode_kind)
    res = _tally(work, steady_root_search(
        params, mode, u0_steady_guess(params), residual_tol=residual_tol))
    if not res.found:
        return GammaSweep(
            g=g, mode_kind=mode_kind,
            points=[SweepPoint(gamma=float(x), g=g, exists=False, state=None)
                    for x in grid],
            boundary=grid[0], tail=[], work=work)
    points.append(SweepPoint(gamma=grid[0], g=g, exists=True,
                             state=res.state))
    gamma, state = float(grid[0]), res.state

    boundary = None
    next_idx = 1
    while next_idx < len(grid):
        target = float(grid[next_idx])
        step = target - gamma
        while gamma < target:
            trial = min(gamma + step, target)
            params, mode = _params_at(trial, g, n0, J, mode_kind)
            res = _tally(work, steady_root_search(
                params, mode, state, residual_tol=residual_tol))
            if res.found:
                gamma, state = trial, res.state
                if trial == target:
                    points.append(SweepPoint(gamma=target, g=g, exists=True,
                                             state=res.state))
                else:
                    tail.append(SweepPoint(gamma=trial, g=g, exists=True,
                                           state=res.state))
                step = target - gamma
            else:
                step *= 0.5
                if step < boundary_resolution:
                    boundary = gamma + step
                    break
        if boundary is not None:
            break
        next_idx += 1
    for rest in grid[next_idx:]:
        points.append(SweepPoint(gamma=float(rest), g=g, exists=False,
                                 state=None))
    return GammaSweep(g=g, mode_kind=mode_kind, points=points,
                      boundary=boundary, tail=tail, work=work)


def sum_work(sweeps) -> dict:
    """WORK_KEYS sums over several sweeps."""
    return {key: sum(s.work[key] for s in sweeps) for key in WORK_KEYS}


def sweep_to_csv(sweeps, path) -> None:
    from .io import write_csv

    rows = []
    for sweep in sweeps:
        rows.extend(sweep.rows())
    write_csv(path, SWEEP_COLUMNS, rows)
