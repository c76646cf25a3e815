"""Non-equilibrium steady state of the full master equation.

Solves L(rho) = 0 with Tr rho = 1 on the truncated basis.  The generator
never couples the number-conserving coherence sector to the rest, and the
non-degenerate steady state carries no other coherences, so the solve runs
on that sector's generator.  There it is block tridiagonal in the total
particle number N = 0 .. 2*cutoff: sector N couples to itself, receives
gain from N - 1 and loss from N + 1.  Every block rho_N is Hermitian and
the generator preserves Hermiticity; `liouville` packs the sector into
real Hermitian coordinates (the diagonal and the real and imaginary parts
of one triangle, d_N^2 reals for a d_N x d_N block) and builds the
generator as a real matrix of the same block structure, so the solve and
the propagations of `verify_attractor` run in real arithmetic.  The
singular system is made square by replacing the equation for d rho_00/dt
(implied by trace preservation of the rest) with the pin rho_00 = 1,
which keeps that structure, and is solved by block elimination over the
sectors (the matrix-continued-fraction method): one dense real LU
factorization per sector, from the top sector down, followed by a few
steps of iterative refinement only if needed.  The state is then
normalized to unit trace and unpacked to a complex density matrix, and
its residual is re-verified by an independent application of the full
generator in matrix form, never trusted from the solver.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg as sla
import scipy.sparse as sp

from . import fock, liouville
from .errors import ConvergenceError, TruncationOverflowError
from .fock import TwoModeBasis
from .ode import sample_grid
from .system import SystemParams

DIAGONAL_COLUMNS = ("n1", "n2", "p")
# iterative-refinement steps x += solve(b - a @ x) allowed after the
# direct solve before the residual is declared out of reach
MAX_REFINEMENTS = 3


@dataclass(frozen=True)
class SteadySolveConfig:
    residual_tol: float = 1e-10        # on max|L(rho)|, verified independently
    truncation_ceiling: float = 1e-6
    clip_floor: float = 1e-10          # negative-eigenvalue clip magnitude

    def __post_init__(self):
        if self.residual_tol <= 0:
            raise ValueError("residual_tol must be positive")


@dataclass
class SteadySolution:
    rho: np.ndarray
    residual: float                  # max|L(rho)| after post-processing
    matvecs: int                     # refinement products a @ x
    truncation_mass: float
    eigenvalue_floor: float          # smallest eigenvalue before clipping
    adjustments: dict = field(default_factory=dict)
    wall_time: float = 0.0
    # seconds spent in each phase: build, eliminate, post_process, verify
    phase_seconds: dict = field(default_factory=dict)
    n_sectors: int = 0               # particle-number sectors N = 0 .. top
    max_block_order: int = 0         # order of the largest sector block

    def diagnostics(self) -> dict:
        """What the solve did, for a run manifest."""
        return {"residual": self.residual, "matvecs": self.matvecs,
                "phase_seconds": self.phase_seconds,
                "n_sectors": self.n_sectors,
                "max_block_order": self.max_block_order}

    @property
    def moments(self):
        return self._moments

    def attach_moments(self, basis: TwoModeBasis):
        self._moments = fock.bloch_moments(self.rho, basis)
        return self


def _sector_eliminator(gen: sp.csr_array, offsets: np.ndarray):
    """Factor the pinned system a (gen with its first row replaced by
    x_0 = b_0) by block elimination over the number sectors, whose packed
    ranges are offsets[N]:offsets[N + 1], and return solve(b) for
    a @ x = b.  Sector 0 holds rho_00 alone.  The arithmetic is that of
    gen: real for the generator in Hermitian coordinates.

    With A_N, G_N and L_N the blocks of sector N's rows in the columns of
    sectors N, N - 1 and N + 1, the backward sweep forms
    M_N = A_N + L_N S_{N+1} with S_N = -M_N^{-1} G_N from M_top = A_top
    down and keeps only the LU factors of the M_N.  Raises
    ConvergenceError naming the sector whose factor or solution is not
    finite or singular."""
    top = len(offsets) - 2
    rows = [gen[offsets[n]:offsets[n + 1]] for n in range(top + 1)]

    def block(n, m):
        return rows[n][:, offsets[m]:offsets[m + 1]]

    gains = [None] + [block(n, n - 1) for n in range(1, top + 1)]
    losses = [None] + [block(n, n + 1) for n in range(1, top)]
    factors = [None] * (top + 1)
    s_next = None
    for n in range(top, 0, -1):
        m = block(n, n).toarray()
        if s_next is not None:
            m += losses[n] @ s_next
        lu, piv = sla.lu_factor(m, overwrite_a=True, check_finite=False)
        if not (np.all(np.isfinite(lu)) and np.all(np.diagonal(lu))):
            raise ConvergenceError(
                f"steady-state solve: sector N = {n} block is singular "
                "or not finite")
        factors[n] = (lu, piv)
        if n > 1:
            s_next = -sla.lu_solve(factors[n], gains[n].toarray(),
                                   check_finite=False)

    def solve(b: np.ndarray) -> np.ndarray:
        c = [b[:1]] + [None] * top
        for n in range(top, 0, -1):
            r = b[offsets[n]:offsets[n + 1]]
            if n < top:
                r = r - losses[n] @ c[n + 1]
            c[n] = sla.lu_solve(factors[n], r, check_finite=False)
        x = [c[0]]
        for n in range(1, top + 1):
            x.append(c[n] - sla.lu_solve(factors[n], gains[n] @ x[n - 1],
                                         check_finite=False))
            if not np.all(np.isfinite(x[n])):
                raise ConvergenceError(
                    f"steady-state solve: sector N = {n} solution is not "
                    "finite")
        return np.concatenate(x)

    return solve


def _pinned_residual(gen: sp.csr_array, x: np.ndarray) -> np.ndarray:
    """b - a @ x for the pinned system: b = e_0, a = gen with its first
    row replaced by e_0."""
    r = -(gen @ x)
    r[0] = 1.0 - x[0]
    return r


def solve_steady(params: SystemParams, basis: TwoModeBasis,
                 config: SteadySolveConfig = SteadySolveConfig()
                 ) -> SteadySolution:
    """Solve for the steady state; hard errors on non-convergence or
    boundary-mass overflow, each with diagnostics in the message."""
    if params.gamma <= 0:
        raise ValueError(
            "steady state undefined at gamma = 0: every mixture of "
            "Hamiltonian eigenprojectors is stationary")
    t0 = time.monotonic()
    seconds = dict.fromkeys(("build", "eliminate", "post_process", "verify"),
                            0.0)
    last = time.perf_counter()

    def lap(phase):
        nonlocal last
        now = time.perf_counter()
        seconds[phase] += now - last
        last = now

    space = liouville.number_block_space(basis)
    gen = liouville.build_number_block_generator(params, basis)
    lap("build")
    solve = _sector_eliminator(gen, space.offsets)
    b = np.zeros(space.size)
    b[0] = 1.0
    x = solve(b)
    lap("eliminate")
    matvecs = 0
    while True:
        rho, adjustments, floor = _post_process(
            liouville.unpack_block(x / x[space.diag_positions].sum(), space),
            config, space.sectors)
        lap("post_process")
        residual = float(np.max(np.abs(
            liouville.apply_liouvillian(rho, params, basis))))
        lap("verify")
        if residual < config.residual_tol:
            break
        if matvecs == MAX_REFINEMENTS:
            raise ConvergenceError(
                f"steady-state solve stalled: achieved residual "
                f"{residual:.3e} (tolerance {config.residual_tol:.3e}) "
                f"after {matvecs} refinement steps")
        x = x + solve(_pinned_residual(gen, x))
        matvecs += 1
        lap("eliminate")

    mass = fock.truncation_mass(rho, basis)
    if mass > config.truncation_ceiling:
        raise TruncationOverflowError(
            f"steady state carries boundary mass {mass:.3e} above the "
            f"ceiling {config.truncation_ceiling:.3e}; enlarge the basis "
            f"(residual was {residual:.3e})")

    lap("verify")
    sol = SteadySolution(
        rho=rho, residual=residual, matvecs=matvecs,
        truncation_mass=mass, eigenvalue_floor=floor,
        adjustments=adjustments, wall_time=time.monotonic() - t0,
        phase_seconds=seconds, n_sectors=len(space.sectors),
        max_block_order=int(np.max(np.diff(space.offsets))),
    )
    return sol.attach_moments(basis)


def _post_process(rho_raw: np.ndarray, config: SteadySolveConfig,
                  sectors=None):
    """Hermitize, clip negligible negative eigenvalues, renormalize;
    every adjustment is recorded.  Also returns the smallest eigenvalue
    of the hermitized state before clipping.  `sectors` lists index sets
    outside of whose diagonal blocks rho_raw vanishes; each block is
    diagonalized on its own (default: the whole matrix as one block)."""
    rho = 0.5 * (rho_raw + rho_raw.conj().T)
    herm_delta = float(np.max(np.abs(rho - rho_raw)))
    if sectors is None:
        sectors = (np.arange(len(rho)),)
    floor, clipped = np.inf, 0.0
    for sec in sectors:
        blk = np.ix_(sec, sec)
        evals, evecs = np.linalg.eigh(rho[blk])
        floor = min(floor, float(evals.min()))
        clip_mask = (evals < 0) & (evals > -config.clip_floor)
        if clip_mask.any():
            clipped -= float(evals[clip_mask].sum())
            evals = np.where(clip_mask, 0.0, evals)
            rho[blk] = (evecs * evals) @ evecs.conj().T
    tr = np.trace(rho).real
    rho = rho / tr
    return rho, {
        "hermitization_max_abs": herm_delta,
        "clipped_negative_mass": clipped,
        "trace_renormalization": float(abs(tr - 1.0)),
    }, floor


@dataclass
class AttractorReport:
    ts: np.ndarray
    distances: np.ndarray        # (n_perturbations, len(ts))
    fitted_rates: np.ndarray     # decay rate per perturbation
    perturbation_scale: float


def trace_distance(rho_a: np.ndarray, rho_b: np.ndarray) -> float:
    return float(0.5 * np.sum(np.abs(np.linalg.eigvalsh(rho_a - rho_b))))


def _block_trace_distances(xs: np.ndarray,
                           space: liouville.NumberBlockSpace) -> np.ndarray:
    """Half the trace norm of the Hermitian grade-0 matrix whose real
    coordinates are each row of xs.  The matrix is block diagonal over
    the number sectors, so its eigenvalues are those of the d_N x d_N
    sector blocks, taken for all rows at once."""
    total = np.zeros(len(xs))
    for lo, hi in zip(space.offsets[:-1], space.offsets[1:]):
        d = math.isqrt(int(hi - lo))
        # column-stacked coordinates read row-major: m[k] = X_k^T, so the
        # lower triangle of m carries the real parts and the strict lower
        # triangle of X_k the imaginary parts, all eigvalsh reads
        m = xs[:, lo:hi].reshape(-1, d, d)
        block = m + 1j * np.tril(np.swapaxes(m, 1, 2), -1)
        total += np.abs(np.linalg.eigvalsh(block)).sum(axis=1)
    return 0.5 * total


def verify_attractor(rho_ss: np.ndarray, params: SystemParams,
                     basis: TwoModeBasis, *, perturbation_scale: float = 0.05,
                     t_horizon: float = 20.0, n_perturbations: int = 3,
                     sample_interval: float | None = None,
                     config: liouville.PropagationConfig | None = None,
                     seed: int = 0) -> AttractorReport:
    """Propagate perturbed states and report their trace-norm distance to
    the steady state, with a per-trajectory exponential decay fit over the
    second half of the horizon.  Raises TruncationOverflowError once a
    perturbed state rho_ss + delta(t) carries more boundary mass than
    config.truncation_ceiling.

    The perturbations mix in random pure states of definite total particle
    number (the natural condensate state family); the deviation then lives
    entirely in the number-conserving coherence sector, whose slowest mode
    sets the observable relaxation rate, and the propagation runs on that
    sector's generator directly.
    """
    rng = np.random.default_rng(seed)
    if config is None:
        config = liouville.PropagationConfig(truncation_ceiling=1e-3)
    ts = sample_grid(t_horizon, sample_interval, 40)

    from .ode import integrate_dp45

    space = liouville.number_block_space(basis)
    gen = liouville.build_number_block_generator(params, basis)
    bpos = space.boundary_diag_positions
    # the monitored state is rho_ss + delta(t)
    monitor = liouville.boundary_monitor(
        bpos, config.truncation_ceiling,
        float(np.sum(liouville.pack_block(rho_ss, space)[bpos])))
    distances = []
    rates = []
    for _ in range(n_perturbations):
        theta = float(np.arccos(rng.uniform(-1, 1)))
        phi = float(rng.uniform(0, 2 * np.pi))
        ket = fock.density_from_state(
            fock.coherent_state(basis, theta, phi, params.n0))
        delta0 = liouville.pack_block(perturbation_scale * (ket - rho_ss),
                                      space)
        monitor(0.0, delta0)
        res = integrate_dp45(
            lambda _t, y: gen @ y, (0.0, t_horizon), delta0,
            rtol=config.rtol, atol=config.atol, sample_times=ts,
            monitor=monitor)
        ds = _block_trace_distances(res.sample_ys, space)
        distances.append(ds)
        half = len(ts) // 2
        good = ds[half:] > 1e-14
        if good.sum() >= 2:
            slope = np.polyfit(ts[half:][good], np.log(ds[half:][good]), 1)[0]
            rates.append(-slope)
        else:
            rates.append(np.nan)
    return AttractorReport(ts=ts, distances=np.array(distances),
                           fitted_rates=np.array(rates),
                           perturbation_scale=perturbation_scale)


def steady_outputs(sol: SteadySolution, basis: TwoModeBasis):
    """The (n1, n2, p) rows of the diagonal (DIAGONAL_COLUMNS) and the
    summary payload of a steady state."""
    diag = np.diagonal(sol.rho).real
    rows = [(int(basis.n1_of[i]), int(basis.n2_of[i]), diag[i])
            for i in range(basis.dim)]
    m = sol.moments
    return rows, {
        "s_x": m.s_x, "s_y": m.s_y, "s_z": m.s_z, "n": m.n,
        "purity": fock.purity(m),
        "delta_n": float(np.sqrt(max(m.delta[3, 3], 0.0))),
        "residual": sol.residual,
        "truncation_mass": sol.truncation_mass,
        "eigenvalue_floor": sol.eigenvalue_floor,
    }


def export_steady_state(sol: SteadySolution, basis: TwoModeBasis,
                        csv_path, json_path) -> None:
    """Full diagonal as CSV plus a JSON summary."""
    from .io import write_csv, write_json

    rows, summary = steady_outputs(sol, basis)
    write_csv(csv_path, DIAGONAL_COLUMNS, rows)
    write_json(json_path, {
        **summary,
        "matvecs": sol.matvecs,
        "adjustments": sol.adjustments,
        "wall_time_s": sol.wall_time,
    })
