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
factorization per sector, from the top sector down, in float32.  Those
factors solve the pinned system to float32 accuracy only; iterative
refinement against the float64 generator brings the solution to float64
rounding in a few steps, each one block solve and one product with the
generator, and a refinement that stalls is an error.  On the sector
blocks the state is then normalized to unit trace, their negligible
negative eigenvalues are clipped (a larger one is an error), and its
moments and boundary mass are read.  Unpacked once, to the output density
matrix, it is exactly Hermitian by construction; its residual is verified
by an independent application of the full generator in matrix form to
that matrix in sparse form, never trusted from the solver.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from typing import ClassVar

import numpy as np
import scipy.linalg as sla
import scipy.sparse as sp

from . import fock, liouville
from .errors import ConvergenceError, TruncationOverflowError
from .fock import TwoModeBasis
from .ode import integrate_dp45, sample_grid
from .system import SystemParams

DIAGONAL_COLUMNS = ("n1", "n2", "p")

# refinement of the float32 sector solve (`_refine`): converged at a
# relative correction of a few float64 eps, stalled once a correction is
# not below half the one before, and never more steps than the cap
_REFINE_TOL = 4 * np.finfo(float).eps
_REFINE_SHRINK = 0.5
_REFINE_STEPS = 10
_getrf, _getrs = sla.get_lapack_funcs(("getrf", "getrs"), dtype=np.float32)


@dataclass(frozen=True)
class SteadySolveConfig:
    residual_tol: float = 1e-10        # on max|L(rho)|, verified independently
    truncation_ceiling: float = 1e-6
    # eigenvalues in (-clip_floor, 0) are clipped, lower ones an error
    clip_floor: ClassVar[float] = 1e-10

    def __post_init__(self):
        if self.residual_tol <= 0:
            raise ValueError("residual_tol must be positive")


@dataclass
class SteadySolution:
    rho: np.ndarray
    moments: fock.BlochMoments       # of rho
    residual: float                  # max|L(rho)| after post-processing
    truncation_mass: float
    eigenvalue_floor: float          # smallest eigenvalue before clipping
    adjustments: dict = field(default_factory=dict)  # see _post_process
    # seconds spent in each phase: build, eliminate, refine, post_process,
    # verify
    phase_seconds: dict = field(default_factory=dict)
    n_sectors: int = 0               # particle-number sectors N = 0 .. top
    max_block_order: int = 0         # order of the largest sector block
    # products with the generator in the refinement, one per step after
    # the first, and the last step's relative correction max|dx| / max|x|
    matvecs: int = 0
    refine_correction: float = 0.0

    def diagnostics(self) -> dict:
        """What the solve did, for a run manifest."""
        return {"residual": self.residual,
                "adjustments": self.adjustments,
                "phase_seconds": self.phase_seconds,
                "n_sectors": self.n_sectors,
                "max_block_order": self.max_block_order,
                "matvecs": self.matvecs,
                "refine_correction": self.refine_correction}


def _row_gather(rows, cols, vals, size):
    """The block of `size` rows with entries (rows, cols, vals), at most
    one per row, as (src, w): its product with y is w * y[src], row by row
    when y is a matrix."""
    src = np.zeros(size, np.intp)
    w = np.zeros(size, np.float32)
    src[rows] = cols
    w[rows] = vals
    return src, w


def _eliminate(gen: sp.csr_array, offsets: np.ndarray):
    """Factor the pinned system (gen with its first row replaced by the
    pin x_0 = 1) by block elimination over the number sectors, whose
    packed ranges are offsets[N]:offsets[N + 1], and return its solver
    b -> x, which is accurate to float32 only (see `_refine`).  Sector 0
    holds rho_00 alone, so the pin is its only equation.

    With A_N, G_N and L_N the blocks of sector N's rows in the columns of
    sectors N, N - 1 and N + 1, the backward sweep forms
    M_N = A_N + L_N S_{N+1} with S_N = -M_N^{-1} G_N from M_top = A_top
    down, in float32, and keeps only the LU factors of the M_N.  G_N and
    L_N have at most one entry per row and are applied as row gathers (a
    block with more would be solved wrongly, and its refinement against
    gen would stall).

    The solver takes a general right-hand side b, scaled to unit maximum,
    through c_N = M_N^{-1} (b_N - L_N c_{N+1}) from the top down, then
    x_0 = b_0 and x_N = c_N - M_N^{-1} G_N x_{N-1}.  Raises
    ConvergenceError naming the sector whose factor is singular or not
    finite, or whose solution is not finite."""
    top = len(offsets) - 2
    coo = gen.tocoo()                       # entries in row order
    bounds = np.searchsorted(coo.row, offsets)
    col_sector = np.repeat(np.arange(top + 1), np.diff(offsets))[coo.col]

    def entries(n, m):
        """Local (row, column, value) entries of sector n's rows in the
        columns of sector m."""
        at = slice(bounds[n], bounds[n + 1])
        keep = col_sector[at] == m
        return (coo.row[at][keep] - offsets[n],
                coo.col[at][keep] - offsets[m], coo.data[at][keep])

    sizes = np.diff(offsets)
    gains = [None] + [_row_gather(*entries(n, n - 1), sizes[n])
                      for n in range(1, top + 1)]
    losses = [_row_gather(*entries(n, n + 1), sizes[n])
              for n in range(top)] + [None]
    factors = [None] * (top + 1)
    s = None                                # S_{N+1}
    for n in range(top, 0, -1):
        m = np.zeros((sizes[n], sizes[n]), np.float32)
        rows, cols, vals = entries(n, n)
        m[rows, cols] = vals
        if s is not None:
            src, w = losses[n]
            m += w[:, None] * s[src]
        lu, piv, _ = _getrf(m, overwrite_a=True)
        if not (np.all(np.isfinite(lu)) and np.all(np.diagonal(lu))):
            raise ConvergenceError(
                f"steady-state solve: sector N = {n} block is singular "
                "or not finite")
        factors[n] = (lu, piv)
        if n > 1:
            src, w = gains[n]
            g = np.zeros((sizes[n], sizes[n - 1]), np.float32, order="F")
            g[np.arange(sizes[n]), src] = -w
            s = np.ascontiguousarray(_getrs(lu, piv, g, overwrite_b=True)[0])

    def solve(b: np.ndarray) -> np.ndarray:
        scale = np.max(np.abs(b)) or 1.0
        parts = [(b[offsets[n]:offsets[n + 1]] / scale).astype(np.float32)
                 for n in range(top + 1)]
        c = [None] * (top + 1)
        for n in range(top, 0, -1):
            if n < top:
                src, w = losses[n]
                parts[n] -= w * c[n + 1][src]
            c[n] = _getrs(*factors[n], parts[n], overwrite_b=True)[0]
        x = parts[:1]
        for n in range(1, top + 1):
            src, w = gains[n]
            x.append(c[n] - _getrs(*factors[n], w * x[n - 1][src],
                                   overwrite_b=True)[0])
            if not np.all(np.isfinite(x[n])):
                raise ConvergenceError(
                    f"steady-state solve: sector N = {n} solution is not "
                    "finite")
        return scale * np.concatenate(x).astype(float)

    return solve


def _refine(gen: sp.csr_array, solve, space: liouville.NumberBlockSpace):
    """The solution x of the pinned system by iterative refinement of the
    float32 solver `solve` (Buttari et al. 2007; Carson & Higham 2018):
    x = solve(e_0), then r = e_0 - (pinned gen) x in float64 and
    x += solve(r).  x_0 is exactly 1 from the first step on.

    Returns x, the number of steps and the last relative correction
    max|dx| / max|x|.  Stops once that correction, or the next one as the
    contraction of the last two corrections predicts it, is at float64
    rounding (_REFINE_TOL).  Raises ConvergenceError, with the boundary
    mass of the last iterate, once a correction is not below
    _REFINE_SHRINK times the one before or after _REFINE_STEPS steps: the
    float32 factors then carry too little of the system to refine it."""
    r = np.zeros(gen.shape[0])
    r[0] = 1.0
    x = solve(r)
    last = None                  # the correction of the step before
    for step in range(2, _REFINE_STEPS + 1):
        r = -(gen @ x)
        r[0] = 1.0 - x[0]
        dx = solve(r)
        x += dx
        change = float(np.max(np.abs(dx)) / np.max(np.abs(x)))
        # the next correction, at the contraction of the last two
        if (change if last is None else change * change / last) \
                <= _REFINE_TOL:
            return x, step, change
        if last is not None and change >= _REFINE_SHRINK * last:
            break
        last = change
    mass = (x[space.boundary_diag_positions].sum()
            / x[space.diag_positions].sum())
    raise ConvergenceError(
        f"steady-state solve: refinement stalled after {step} steps at "
        f"relative correction {change:.1e}; the state carries boundary "
        f"mass {mass:.3e}")


def solve_steady(params: SystemParams, basis: TwoModeBasis,
                 config: SteadySolveConfig = SteadySolveConfig()
                 ) -> SteadySolution:
    """Solve for the steady state; hard errors on a residual at or above
    config.residual_tol, an eigenvalue at or below -config.clip_floor or
    boundary-mass overflow, each with diagnostics in the message."""
    if params.gamma <= 0:
        raise ValueError(
            "steady state undefined at gamma = 0: every mixture of "
            "Hamiltonian eigenprojectors is stationary")
    seconds = {}
    last = time.perf_counter()

    def lap(phase):
        nonlocal last
        now = time.perf_counter()
        seconds[phase] = now - last
        last = now

    space = liouville.number_block_space(basis)
    gen = liouville.build_number_block_generator(params, basis)
    lap("build")
    solve = _eliminate(gen, space.offsets)
    lap("eliminate")
    x, steps, correction = _refine(gen, solve, space)
    del solve                    # frees the factors before post-processing
    lap("refine")
    x, adjustments, floor = _post_process(
        x / x[space.diag_positions].sum(), config, space)
    rho = liouville.unpack_block(x, space)
    lap("post_process")
    residual = float(np.max(np.abs(liouville.apply_liouvillian(
        sp.csr_array(rho), params, basis).data)))
    if residual >= config.residual_tol:
        raise ConvergenceError(
            f"steady-state solve: achieved residual {residual:.3e} is not "
            f"below the tolerance {config.residual_tol:.3e}")
    mass = float(x[space.boundary_diag_positions].sum())
    if mass > config.truncation_ceiling:
        raise TruncationOverflowError(
            f"steady state carries boundary mass {mass:.3e} above the "
            f"ceiling {config.truncation_ceiling:.3e}; enlarge the basis "
            f"(residual was {residual:.3e})")

    lap("verify")
    return SteadySolution(
        rho=rho, moments=liouville.block_moments(x, basis),
        residual=residual, truncation_mass=mass, eigenvalue_floor=floor,
        adjustments=adjustments,
        phase_seconds=seconds, n_sectors=len(space.offsets) - 1,
        max_block_order=int(np.max(np.diff(space.offsets))),
        matvecs=steps - 1, refine_correction=correction,
    )


def _sector_blocks(xs: np.ndarray, space: liouville.NumberBlockSpace):
    """The slice of each sector N = 0, 1, ... in the real coordinates xs,
    one state per row, with its Hermitian d_N x d_N blocks; only their
    lower triangles are set, all that eigh and eigvalsh read."""
    for lo, hi in zip(space.offsets[:-1], space.offsets[1:]):
        d = math.isqrt(int(hi - lo))
        # column-stacked coordinates read row-major: m = X^T, so the lower
        # triangle of m carries the real parts, the strict lower one of X
        # the imaginary parts
        m = xs[..., lo:hi].reshape(*xs.shape[:-1], d, d)
        yield slice(lo, hi), m + 1j * np.tril(np.swapaxes(m, -1, -2), -1)


def _post_process(x_raw: np.ndarray, config: SteadySolveConfig,
                  space: liouville.NumberBlockSpace):
    """Clip negligible negative eigenvalues and renormalize to unit trace;
    both adjustments are recorded.  Also returns the smallest eigenvalue
    before clipping.  x_raw holds the real coordinates of a grade-0 state,
    and each sector block is diagonalized on its own.  Raises
    ConvergenceError naming the sector of an eigenvalue at or below
    -config.clip_floor."""
    # a copy whose exact zeros are all +0.0, whatever their signs in x_raw
    x = x_raw + 0.0
    floor, clipped = np.inf, 0.0
    for n, (at, block) in enumerate(_sector_blocks(x, space)):
        evals, evecs = np.linalg.eigh(block)
        lowest = float(evals.min())
        if lowest <= -config.clip_floor:
            raise ConvergenceError(
                f"steady-state solve: sector N = {n} has eigenvalue "
                f"{lowest:.3e}, at or below -clip_floor = "
                f"{-config.clip_floor:.3e}")
        floor = min(floor, lowest)
        negative = evals < 0
        if negative.any():
            clipped -= float(evals[negative].sum())
            evals = np.where(negative, 0.0, evals)
            # m = X^T of the clipped block, as _sector_blocks reads it
            b = ((evecs * evals) @ evecs.conj().T).T
            x[at] = np.where(np.tri(len(b), dtype=bool), b.real,
                             b.imag).ravel()
    tr = x[space.diag_positions].sum()
    return x / tr, {
        "clipped_negative_mass": clipped,
        "trace_renormalization": float(abs(tr - 1.0)),
    }, floor


@dataclass
class AttractorReport:
    ts: np.ndarray
    distances: np.ndarray        # (n_perturbations, len(ts))
    fitted_rates: np.ndarray     # decay rate per perturbation


def verify_attractor(rho_ss: np.ndarray, params: SystemParams,
                     basis: TwoModeBasis, *, perturbation_scale: float = 0.05,
                     t_horizon: float = 20.0, n_perturbations: int = 3,
                     sample_interval: float | None = None,
                     config: liouville.PropagationConfig =
                     liouville.PropagationConfig(truncation_ceiling=1e-3),
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
    ts = sample_grid(t_horizon, sample_interval, 40)
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
        # half the trace norm, from the eigenvalues of the sector blocks
        ds = 0.5 * sum(np.abs(np.linalg.eigvalsh(block)).sum(axis=1)
                       for _, block in _sector_blocks(res.sample_ys, space))
        distances.append(ds)
        half = len(ts) // 2
        good = ds[half:] > 1e-14
        if good.sum() >= 2:
            slope = np.polyfit(ts[half:][good], np.log(ds[half:][good]), 1)[0]
            rates.append(-slope)
        else:
            rates.append(np.nan)
    return AttractorReport(ts=ts, distances=np.array(distances),
                           fitted_rates=np.array(rates))


def steady_outputs(sol: SteadySolution, basis: TwoModeBasis):
    """The (n1, n2, p) rows of the diagonal (DIAGONAL_COLUMNS) and the
    summary payload of a steady state."""
    diag = np.diagonal(sol.rho).real
    rows = [(int(basis.n1_of[i]), int(basis.n2_of[i]), diag[i])
            for i in range(basis.dim)]
    m = sol.moments
    return rows, {
        "s_x": m.s_x, "s_y": m.s_y, "s_z": m.s_z, "n": m.n,
        "purity": m.purity,
        "delta_n": float(np.sqrt(max(m.delta[3, 3], 0.0))),
        "residual": sol.residual,
        "truncation_mass": sol.truncation_mass,
        "eigenvalue_floor": sol.eigenvalue_floor,
    }
