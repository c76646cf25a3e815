"""Non-equilibrium steady state of the full master equation.

Solves L(rho) = 0 with Tr rho = 1 on the truncated basis.  The generator
never couples the number-conserving coherence sector to the rest, and the
non-degenerate steady state carries no other coherences, so the solve runs
on that sector's generator.  The singular system is made square by
overwriting one row (the equation for d rho_00/dt, which is implied by
trace preservation of the remainder) with the trace-one constraint, and is
solved directly by a sparse LU factorization, followed by a few steps of
iterative refinement only if needed.  The residual of the returned state
is re-verified by an independent application of the full generator in
matrix form, never trusted from the solver.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from . import fock, liouville
from .errors import ConvergenceError, TruncationOverflowError
from .fock import TwoModeBasis
from .system import SystemParams

DIAGONAL_COLUMNS = ("n1", "n2", "p")
# iterative-refinement steps x += lu.solve(b - a @ x) allowed after the
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

    @property
    def moments(self):
        return self._moments

    def attach_moments(self, basis: TwoModeBasis):
        self._moments = fock.bloch_moments(self.rho, basis)
        return self


def _replace_trace_row(gen: sp.csr_array, diag_positions: np.ndarray):
    """Overwrite the row for the first diagonal element (implied by trace
    preservation of the rest) with the trace-one constraint."""
    coo = sp.coo_array(gen)
    keep = coo.row != 0
    rows = np.concatenate((coo.row[keep], np.zeros(len(diag_positions),
                                                   dtype=coo.row.dtype)))
    cols = np.concatenate((coo.col[keep], diag_positions))
    vals = np.concatenate((coo.data[keep],
                           np.ones(len(diag_positions), dtype=complex)))
    a = sp.csr_array(sp.coo_array((vals, (rows, cols)), shape=gen.shape))
    b = np.zeros(gen.shape[0], dtype=complex)
    b[0] = 1.0
    return a, b


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
    space = liouville.number_block_space(basis)
    a, b = _replace_trace_row(
        liouville.build_number_block_generator(params, basis),
        space.diag_positions)
    lu = spla.splu(sp.csc_matrix(a))
    x = lu.solve(b)
    matvecs = 0
    while True:
        rho, adjustments, floor = _post_process(
            liouville.unpack_block(x, space), config)
        residual = float(np.max(np.abs(
            liouville.apply_liouvillian(rho, params, basis))))
        if residual < config.residual_tol:
            break
        if matvecs == MAX_REFINEMENTS:
            raise ConvergenceError(
                f"steady-state solve stalled: achieved residual "
                f"{residual:.3e} (tolerance {config.residual_tol:.3e}) "
                f"after {matvecs} refinement steps")
        x = x + lu.solve(b - a @ x)
        matvecs += 1

    mass = fock.truncation_mass(rho, basis)
    if mass > config.truncation_ceiling:
        raise TruncationOverflowError(
            f"steady state carries boundary mass {mass:.3e} above the "
            f"ceiling {config.truncation_ceiling:.3e}; enlarge the basis "
            f"(residual was {residual:.3e})")

    sol = SteadySolution(
        rho=rho, residual=residual, matvecs=matvecs,
        truncation_mass=mass, eigenvalue_floor=floor,
        adjustments=adjustments, wall_time=time.monotonic() - t0,
    )
    return sol.attach_moments(basis)


def _post_process(rho_raw: np.ndarray, config: SteadySolveConfig):
    """Hermitize, clip negligible negative eigenvalues, renormalize;
    every adjustment is recorded.  Also returns the smallest eigenvalue
    of the hermitized state before clipping."""
    rho = 0.5 * (rho_raw + rho_raw.conj().T)
    herm_delta = float(np.max(np.abs(rho - rho_raw)))
    evals, evecs = np.linalg.eigh(rho)
    floor = float(evals.min())
    clip_mask = (evals < 0) & (evals > -config.clip_floor)
    clipped = float(-evals[clip_mask].sum())
    if clip_mask.any():
        evals = np.where(clip_mask, 0.0, evals)
        rho = (evecs * evals) @ evecs.conj().T
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


def verify_attractor(rho_ss: np.ndarray, params: SystemParams,
                     basis: TwoModeBasis, *, perturbation_scale: float = 0.05,
                     t_horizon: float = 20.0, n_perturbations: int = 3,
                     sample_interval: float | None = None,
                     config: liouville.PropagationConfig | None = None,
                     perturbation: str = "number-sharp",
                     seed: int = 0) -> AttractorReport:
    """Propagate perturbed states and report their trace-norm distance to
    the steady state, with a per-trajectory exponential decay fit over the
    second half of the horizon.

    perturbation="number-sharp" (default) mixes in random pure states of
    definite total particle number (the natural condensate state family);
    the deviation then lives entirely in the number-conserving coherence
    sector, whose slowest mode sets the observable relaxation rate, and
    the propagation runs on that sector's generator directly.
    perturbation="generic-ket" mixes in an unrestricted random pure state,
    which additionally populates inter-sector coherences; those carry no
    number-conserving observable but decay at about half the sector rate,
    so the late-time trace distance of a generic perturbation is slower.
    """
    rng = np.random.default_rng(seed)
    if config is None:
        config = liouville.PropagationConfig(truncation_ceiling=1e-3)
    if sample_interval is None:
        sample_interval = t_horizon / 40
    n_pts = int(np.floor(t_horizon / sample_interval + 1e-9))
    ts = np.arange(n_pts + 1) * sample_interval
    if perturbation not in ("number-sharp", "generic-ket"):
        raise ValueError(f"unknown perturbation kind {perturbation!r}")

    from .ode import integrate_dp45

    dim = basis.dim
    distances = []
    rates = []
    for _ in range(n_perturbations):
        if perturbation == "number-sharp":
            theta = float(np.arccos(rng.uniform(-1, 1)))
            phi = float(rng.uniform(0, 2 * np.pi))
            ket = fock.density_from_state(
                fock.coherent_state(basis, theta, phi, params.n0))
        else:
            bulk = np.flatnonzero(basis.total_of
                                  <= max(2, basis.cutoff // 3))
            v = np.zeros(dim, dtype=complex)
            v[bulk] = rng.normal(size=len(bulk)) + 1j * rng.normal(size=len(bulk))
            ket = fock.density_from_state(v)
        delta0 = perturbation_scale * (ket - rho_ss)
        if perturbation == "number-sharp":
            space = liouville.number_block_space(basis)
            gen = liouville.build_number_block_generator(params, basis)
            res = integrate_dp45(
                lambda _t, y: gen @ y, (0.0, t_horizon),
                liouville.pack_block(delta0, space),
                rtol=config.rtol, atol=config.atol, sample_times=ts)
            deltas = [liouville.unpack_block(y, space) for y in res.sample_ys]
        else:
            lv = liouville.build_liouvillian(params, basis)
            res = integrate_dp45(
                lambda _t, y: lv @ y, (0.0, t_horizon),
                delta0.ravel(order="F"),
                rtol=config.rtol, atol=config.atol, sample_times=ts)
            deltas = [y.reshape((dim, dim), order="F") for y in res.sample_ys]
        ds = np.array([
            0.5 * np.sum(np.abs(np.linalg.eigvalsh(0.5 * (d + d.conj().T))))
            for d in deltas
        ])
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


def export_steady_state(sol: SteadySolution, basis: TwoModeBasis,
                        csv_path, json_path) -> None:
    """Full diagonal as CSV plus a JSON summary."""
    from .io import write_csv, write_json

    diag = np.diagonal(sol.rho).real
    rows = [(int(basis.n1_of[i]), int(basis.n2_of[i]), diag[i])
            for i in range(basis.dim)]
    write_csv(csv_path, DIAGONAL_COLUMNS, rows)
    m = sol.moments
    write_json(json_path, {
        "s_x": m.s_x, "s_y": m.s_y, "s_z": m.s_z, "n": m.n,
        "purity": fock.purity(m),
        "delta_n": float(np.sqrt(max(m.delta[3, 3], 0.0))),
        "residual": sol.residual,
        "truncation_mass": sol.truncation_mass,
        "eigenvalue_floor": sol.eigenvalue_floor,
        "matvecs": sol.matvecs,
        "adjustments": sol.adjustments,
        "wall_time_s": sol.wall_time,
    })
