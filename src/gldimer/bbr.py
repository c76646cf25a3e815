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

`sweep_gamma` follows a branch over a gamma grid by natural continuation.
Where a grid step fails, its end game follows the branch in
pseudo-arclength from the last found state, with the analytic Jacobian
and the analytic df/dgamma (`_moment_rhs_py.moment_rate_jacobian`), until
the branch comes back onto the grid or ends: in a fold, which a secant on
the tangent's gamma component locates, or in a divergence, where n grows
without bound (the pure condensate of strong gain and loss).  No root
search runs at a gamma past the end except the grid step that failed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np
import scipy.optimize

from . import _moment_rhs_py as _kernel
from .errors import ConvergenceError, InteractionSingularityError
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


# per-sweep work sums (GammaSweep.work): the RootResult counts of its
# searches, the arc steps and corrector Newton steps of its end games, and
# the kernel calls, Jacobians and sentinel hits of both
WORK_KEYS = ("searches", "kernel_calls", "jacobian_evals", "newton_steps",
             "backtracks", "hybr_fallbacks", "lstsq_fallbacks",
             "sentinel_hits", "arc_steps", "corrector_steps")


def _count_evaluations(work: dict, source) -> None:
    for key in ("kernel_calls", "jacobian_evals", "sentinel_hits"):
        work[key] += getattr(source, key)


def _tally(work: dict, res: RootResult) -> RootResult:
    """Add the work of one search to the sums in work; returns res."""
    work["searches"] += 1
    work["newton_steps"] += res.newton_steps
    work["backtracks"] += res.backtracks
    _count_evaluations(work, res)
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
        self.kernel_calls = 0
        self.jacobian_evals = 0
        self.sentinel_hits = 0

    def at_gamma(self, gamma: float) -> None:
        """Re-point the residual at gamma; U, and with it the mode, does
        not depend on gamma."""
        if gamma != self.params.gamma:
            self.params = replace(self.params, gamma=gamma)

    @property
    def consts(self) -> tuple[float, float, float]:
        p = self.params
        return float(p.J), float(p.gamma_gain), float(p.gamma_loss)

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

    def gamma_column(self, y) -> list:
        """d residual / d gamma, through gamma_gain = gamma n0/(n0 + 2) and
        gamma_loss = gamma (zero in the constant-g singular band)."""
        try:
            u = float(_resolve_u(y, self.mode))
        except InteractionSingularityError:
            return [0.0] * 14
        J, gain, loss = self.consts
        d_gain, d_loss = _kernel.moment_rate_jacobian(y, J, u, gain, loss)
        ratio = self.params.n0 / (self.params.n0 + 2)
        return [ratio * a + b for a, b in zip(d_gain, d_loss)]


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
    """One steady branch over a gamma grid.

    `end` names how the branch ended: at a "fold" (the tangent turns back
    in gamma), in a "divergence" (n grows without bound), at the "grid end",
    or with "no anchor" (no root at the first grid point).  `boundary` is
    the gamma of the branch's last state (the fold, the last arc point of a
    divergence, the first grid point without an anchor; None at the grid
    end) and `sigma_min` the smallest singular value of the Jacobian there
    (at the last grid state at the grid end; None without an anchor).
    `tail` holds the off-grid states of the end game: its arc points and
    the fold.  `work` sums the WORK_KEYS counts of the sweep."""

    g: float
    mode_kind: str
    points: list
    boundary: float | None
    end: str
    sigma_min: float | None = None
    tail: list = field(default_factory=list)
    work: dict = field(default_factory=dict)

    def rows(self):
        return [p.row() for p in self.points]

    def existing_states(self):
        return [(p.gamma, p.state) for p in self.points + self.tail
                if p.exists]


# ---------------------------------------------------------------------------
# the end game: pseudo-arclength continuation from the last found state
# (Keller 1977; Allgower & Georg, Introduction to Numerical Continuation
# Methods, 2003)

ARC_NEWTON_STEPS = 8      # Newton steps a corrector may take
ARC_STEP_MAX = 4.0        # largest arclength step in the scaled metric
ARC_MAX_STEPS = 200       # corrector attempts before the end game gives up
FOLD_SECANT_STEPS = 20    # secant steps that locate a fold
FOLD_TANGENT_TOL = 1e-7   # |d gamma / ds| at which a fold counts as located


def _arc_scale(y) -> np.ndarray:
    """Units of the arclength metric at y: the particle number for the
    first moments, its square for the covariances (D_nn grows like n^2)."""
    n = max(1.0, abs(float(y[3])))
    return np.array([n] * 4 + [n * n] * 10)


class _Arc:
    """The branch f(y, gamma) = 0 in the scaled coordinates
    z = (y / w, gamma) of the end game.  One `_Residual`, re-pointed at each
    gamma, evaluates f, its Jacobian and df/dgamma and counts the work."""

    def __init__(self, params: SystemParams, mode: BbrMode,
                 residual_tol: float):
        self.fun = _Residual(params, mode)
        self.residual_tol = residual_tol
        self.corrector_steps = 0

    def _bordered(self, y, w, border) -> np.ndarray:
        """[[W^-1 J W, W^-1 df/dgamma], [border]] with W = diag(w)."""
        a = np.empty((15, 15))
        a[:14, :14] = self.fun.jacobian(y) * w / w[:, None]
        a[:14, 14] = np.array(self.fun.gamma_column(y)) / w
        a[14] = border
        return a

    def tangent(self, y, gamma: float, w, border) -> np.ndarray:
        """Unit tangent of the branch at (y, gamma), scaled by w, with
        positive projection on border."""
        self.fun.at_gamma(gamma)
        e = np.zeros(15)
        e[14] = 1.0
        t = np.linalg.solve(self._bordered(y, w, border), e)
        return t / np.linalg.norm(t)

    def correct(self, u0, gamma0: float, t, w):
        """Newton on f(w u, gamma) = 0 and t . (z - z0) = 0 from the
        predictor z0 = (u0, gamma0).  Returns (y, gamma, Newton steps) at a
        converged state, else None."""
        u, gamma = u0, gamma0
        for steps in range(ARC_NEWTON_STEPS + 1):
            if not gamma > 0.0:
                return None
            self.fun.at_gamma(gamma)
            y = (u * w).tolist()
            f = self.fun(y)
            if _max_abs(f) < max(self.residual_tol,
                                 _residual_floor(y, self.fun.params)):
                return y, float(gamma), steps
            if steps == ARC_NEWTON_STEPS:
                return None
            rhs = np.empty(15)
            rhs[:14] = np.array(f) / w
            rhs[14] = t[:14] @ (u - u0) + t[14] * (gamma - gamma0)
            self.corrector_steps += 1
            try:
                d = np.linalg.solve(self._bordered(y, w, t), -rhs)
            except np.linalg.LinAlgError:
                return None
            u, gamma = u + d[:14], gamma + float(d[14])
        return None


def _locate_fold(arc: _Arc, y_a, gamma_a: float, t_a, w, phi_b: float,
                 s_b: float):
    """Secant (Illinois) search over the arclength s in [0, s_b] from
    (y_a, gamma_a) along t_a for the zero of the tangent's gamma
    component, positive at s = 0 and phi_b at s_b.  Returns the physical
    state of largest gamma that it met, (y, gamma)."""
    u_a = np.array(y_a) / w
    best = (y_a, gamma_a)
    lo, hi = [0.0, float(t_a[14])], [s_b, phi_b]
    side = 0
    for _ in range(FOLD_SECANT_STEPS):
        s = hi[0] - hi[1] * (hi[0] - lo[0]) / (hi[1] - lo[1])
        new = arc.correct(u_a + s * t_a[:14], gamma_a + s * t_a[14], t_a, w)
        if new is None:
            break
        y, gamma, _ = new
        phi = float(arc.tangent(y, gamma, w, t_a)[14])
        if gamma > best[1] and _classify(y):
            best = (y, gamma)
        if abs(phi) < FOLD_TANGENT_TOL:
            break
        if phi > 0:
            lo = [s, phi]
            if side == 1:
                hi[1] *= 0.5
            side = 1
        else:
            hi = [s, phi]
            if side == -1:
                lo[1] *= 0.5
            side = -1
    return best


def _end_game(params: SystemParams, mode: BbrMode, y, target: float,
              residual_tol: float, resolution: float, work: dict):
    """Follow the branch from its last found state y at params.gamma by
    pseudo-arclength continuation until it passes the grid gamma target or
    ends; never solves at a gamma past the branch's end.

    Returns (end, gamma, y, tail): end is None when the branch came back
    on the grid (y is then the state at gamma = target, found by a root
    search started on the chord between the arc states around it, once
    the arc has reached gamma >= target), "fold" when the tangent's gamma
    component changed sign (y is the located fold), or "divergence" when
    an arc step grew n and, with gamma approaching its limit like 1/n,
    left less than `resolution` of gamma to go (y is the last arc point).
    tail lists the arc points and the fold as (gamma, y) pairs."""
    arc = _Arc(params, mode, residual_tol)
    gamma = float(params.gamma)
    tail = []
    w = _arc_scale(y)
    e_gamma = np.zeros(15)
    e_gamma[14] = 1.0
    t = arc.tangent(y, gamma, w, e_gamma)
    ds = min(ARC_STEP_MAX, 0.5 * (target - gamma) / t[14])
    end = None
    for _ in range(ARC_MAX_STEPS):
        work["arc_steps"] += 1
        u = np.array(y) / w
        new = arc.correct(u + ds * t[:14], gamma + ds * t[14], t, w)
        if new is None:
            ds *= 0.5
            continue
        y_new, gamma_new, steps = new
        t_new = arc.tangent(y_new, gamma_new, w, t)
        fold = t_new[14] <= 0.0
        if fold:
            y_new, gamma_new = _locate_fold(arc, y, gamma, t, w,
                                            float(t_new[14]), ds)
        if gamma_new >= target:
            # the arc passed the grid point: solve there, from the arc
            lam = (target - gamma) / (gamma_new - gamma)
            guess = BlochMoments.from_vector(
                [a + lam * (b - a) for a, b in zip(y, y_new)])
            res = _tally(work, steady_root_search(
                replace(params, gamma=target), mode, guess,
                residual_tol=residual_tol))
            if res.found:
                y, gamma = res.state.vector.tolist(), target
                break
            ds *= 0.5
            continue
        if fold:
            y, gamma = y_new, gamma_new
            tail.append((gamma, y))
            end = "fold"
            break
        if not _classify(y_new):
            ds *= 0.5
            continue
        n, n_new, gamma_prev = y[3], y_new[3], gamma
        y, gamma = y_new, gamma_new
        tail.append((gamma, y))
        # were gamma_end - gamma proportional to 1/n, the gamma left to go
        # would be (gamma - gamma_prev) n / (n_new - n)
        if n_new > n and (gamma - gamma_prev) * n < resolution * (n_new - n):
            end = "divergence"
            break
        w_new = _arc_scale(y)
        t = t_new.copy()
        t[:14] *= w / w_new
        t /= np.linalg.norm(t)
        w = w_new
        if steps <= 2:
            ds = min(2.0 * ds, ARC_STEP_MAX)
    else:
        raise ConvergenceError(
            f"bbr end game: no end of the branch after {ARC_MAX_STEPS} arc "
            f"steps (gamma = {gamma:.10g}, n = {y[3]:.6g})")
    work["corrector_steps"] += arc.corrector_steps
    _count_evaluations(work, arc.fun)
    return end, gamma, y, tail


def sweep_gamma(gammas, g: float, n0: int, mode_kind: str, *, J: float = 1.0,
                residual_tol: float = 1e-9,
                boundary_resolution: float = 1e-4) -> GammaSweep:
    """Track the steady-state branch over an ascending gamma grid.

    The branch is anchored at the first grid point by one root search from
    the analytic non-interacting steady state (no root there: no point
    exists, end "no anchor") and followed by natural continuation, each
    grid point warm-started from the one before.  Where that search fails,
    the end game (`_end_game`) follows the branch in pseudo-arclength from
    the last found state: back onto the grid, where natural continuation
    resumes, or to the branch's end, a fold located by a secant on the
    tangent or a divergence resolved to `boundary_resolution` in gamma.
    Grid points past the end are marked non-existing.  `work` sums the
    work counts of the searches and the end game.
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
            boundary=grid[0], end="no anchor", work=work)
    points.append(SweepPoint(gamma=grid[0], g=g, exists=True,
                             state=res.state))
    state = res.state

    end, boundary = "grid end", None
    next_idx = 1
    while next_idx < len(grid):
        target = float(grid[next_idx])
        params_t, mode = _params_at(target, g, n0, J, mode_kind)
        res = _tally(work, steady_root_search(params_t, mode, state,
                                              residual_tol=residual_tol))
        if res.found:
            state = res.state
        else:
            kind, gamma, y, arc_tail = _end_game(
                params, mode, state.vector.tolist(), target, residual_tol,
                boundary_resolution, work)
            tail += [SweepPoint(gamma=gm, g=g, exists=True,
                                state=BlochMoments.from_vector(ym))
                     for gm, ym in arc_tail]
            if kind is not None:
                end, boundary = kind, gamma
                params = replace(params, gamma=gamma)
                break
            state = BlochMoments.from_vector(y)
        params = params_t
        points.append(SweepPoint(gamma=target, g=g, exists=True,
                                 state=state))
        next_idx += 1
    if end == "grid end":
        y = state.vector.tolist()
    # the smallest singular value of the Jacobian at the last state
    fun = _Residual(params, mode)
    sigma_min = float(np.linalg.svd(fun.jacobian(y), compute_uv=False)[-1])
    _count_evaluations(work, fun)
    for rest in grid[next_idx:]:
        points.append(SweepPoint(gamma=float(rest), g=g, exists=False,
                                 state=None))
    return GammaSweep(g=g, mode_kind=mode_kind, points=points,
                      boundary=boundary, end=end, sigma_min=sigma_min,
                      tail=tail, work=work)


def sum_work(sweeps) -> dict:
    """WORK_KEYS sums over several sweeps."""
    return {key: sum(s.work[key] for s in sweeps) for key in WORK_KEYS}


def sweep_to_csv(sweeps, path) -> None:
    from .io import write_csv

    rows = []
    for sweep in sweeps:
        rows.extend(sweep.rows())
    write_csv(path, SWEEP_COLUMNS, rows)
