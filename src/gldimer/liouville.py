"""Lindblad generator of the gain-loss dimer and time propagation.

The generator is

    d rho/dt = -i [H, rho] + gamma_loss D(a1) rho + gamma_gain D(a2^dag) rho

with D(c) rho = c rho c^dag - (c^dag c rho + rho c^dag c)/2.  Operator
products are taken in the truncated space, which keeps the generator
exactly trace preserving there.

Two representations are provided:

* the full superoperator on vec(rho) (column stacking), used by
  `propagate`, and
* a block representation on the number-conserving coherence sector
  (matrix elements <n1,n2|rho|m1,m2> with n1+n2 = m1+m2), used by
  `moment_trajectory`.  The generator never mixes coherence grades
  (every term shifts the total occupation of bra and ket sides equally),
  and every exported observable is number conserving, so this block
  reproduces the full dynamics of those observables exactly at a fraction
  of the cost.  This makes large cutoffs affordable.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np
import scipy.sparse as sp

from . import fock
from .errors import TruncationOverflowError
from .fock import TwoModeBasis, BlochMoments
from .ode import integrate_dp45, sample_grid
from .system import SystemParams, balanced_rates

__all__ = [
    "SystemParams", "balanced_rates", "PropagationConfig", "Trajectory",
    "build_liouvillian", "apply_liouvillian", "propagate",
    "moment_trajectory", "NumberBlockSpace", "number_block_space",
    "build_number_block_generator", "trajectory_to_csv",
]

TRAJECTORY_COLUMNS = ("t", "s_x", "s_y", "s_z", "n", "P", "Delta_nn",
                      "truncation_mass")


@dataclass(frozen=True)
class PropagationConfig:
    """Adaptive embedded Runge-Kutta 4(5) settings and recording choices."""

    rtol: float = 1e-8
    atol: float = 1e-10
    max_step: float = np.inf
    sample_interval: float | None = None  # default: t_final / 200
    truncation_ceiling: float = 1e-6

    def __post_init__(self):
        if self.rtol <= 0 or self.atol <= 0:
            raise ValueError("tolerances must be positive")


def _jump_ops(params: SystemParams, basis: TwoModeBasis):
    a1 = fock.annihilation(basis, 1)
    a2d = fock.creation(basis, 2)
    return a1, a2d


@lru_cache(maxsize=8)
def build_liouvillian(params: SystemParams, basis: TwoModeBasis) -> sp.csr_array:
    """Full superoperator on vec(rho), column-stacking convention."""
    dim = basis.dim
    h = fock.hamiltonian(basis, params.J, params.U)
    eye = sp.eye_array(dim, dtype=complex, format="csr")
    lv = -1j * (sp.kron(eye, h) - sp.kron(h.T, eye))
    for op, rate in zip(_jump_ops(params, basis),
                        (params.gamma_loss, params.gamma_gain)):
        if rate == 0.0:
            continue
        opd = sp.csr_array(op.conj().T)
        k = sp.csr_array(opd @ op)  # truncated product, exactly trace preserving
        lv = lv + rate * (
            sp.kron(op.conj(), op)
            - 0.5 * (sp.kron(eye, k) + sp.kron(k.T, eye))
        )
    return sp.csr_array(lv)


def apply_liouvillian(rho: np.ndarray, params: SystemParams,
                      basis: TwoModeBasis) -> np.ndarray:
    """Generator applied in matrix form; independent of the superoperator
    assembly, which makes it suitable for residual verification.  The
    sparse operators multiply the dense rho directly."""
    h = fock.hamiltonian(basis, params.J, params.U)
    out = -1j * (h @ rho - rho @ h)
    for op, rate in zip(_jump_ops(params, basis),
                        (params.gamma_loss, params.gamma_gain)):
        if rate == 0.0:
            continue
        od = sp.csr_array(op.conj().T)
        k = od @ op
        out += rate * (op @ rho @ od - 0.5 * (k @ rho + rho @ k))
    return out


# ---------------------------------------------------------------------------
# number-conserving coherence block


@dataclass(frozen=True)
class NumberBlockSpace:
    """Indexing of the coherence-grade-0 sector.

    Packed layout: density-matrix blocks rho[sector_N, sector_N] for
    N = 0 .. 2*cutoff, each column-stacked, concatenated in order of N.
    """

    basis: TwoModeBasis
    sectors: tuple  # tuple of ndarray of flat state indices per total N
    offsets: np.ndarray
    size: int
    diag_positions: np.ndarray       # packed positions of rho_ii
    diag_states: np.ndarray          # flat state index for each diag position
    herm_perm: np.ndarray            # packed transpose permutation
    boundary_diag_positions: np.ndarray


@lru_cache(maxsize=8)
def number_block_space(basis: TwoModeBasis) -> NumberBlockSpace:
    sectors = []
    for total in range(2 * basis.cutoff + 1):
        idx = np.flatnonzero(basis.total_of == total)
        sectors.append(idx[np.argsort(basis.n1_of[idx])])
    sizes = np.array([len(s) ** 2 for s in sectors])
    offsets = np.concatenate(([0], np.cumsum(sizes)))
    size = int(offsets[-1])

    diag_pos, diag_states, herm_perm = [], [], np.empty(size, dtype=np.intp)
    for n, sec in enumerate(sectors):
        d = len(sec)
        base = offsets[n]
        for i in range(d):
            diag_pos.append(base + i * d + i)
            diag_states.append(sec[i])
        cols, rows = np.meshgrid(np.arange(d), np.arange(d), indexing="ij")
        herm_perm[base + cols.ravel() * d + rows.ravel()] = (
            base + rows.ravel() * d + cols.ravel())
    diag_pos = np.array(diag_pos, dtype=np.intp)
    diag_states = np.array(diag_states, dtype=np.intp)
    on_boundary = np.isin(diag_states, basis.boundary)
    return NumberBlockSpace(
        basis=basis, sectors=tuple(sectors), offsets=offsets, size=size,
        diag_positions=diag_pos, diag_states=diag_states,
        herm_perm=herm_perm, boundary_diag_positions=diag_pos[on_boundary],
    )


def pack_block(rho: np.ndarray, space: NumberBlockSpace) -> np.ndarray:
    parts = [rho[np.ix_(sec, sec)].ravel(order="F") for sec in space.sectors]
    return np.concatenate(parts)


def unpack_block(vec: np.ndarray, space: NumberBlockSpace) -> np.ndarray:
    dim = space.basis.dim
    rho = np.zeros((dim, dim), dtype=complex)
    for n, sec in enumerate(space.sectors):
        d = len(sec)
        block = vec[space.offsets[n]:space.offsets[n + 1]].reshape((d, d), order="F")
        rho[np.ix_(sec, sec)] = block
    return rho


def _sector_slice(op: sp.csr_array, rows: np.ndarray, cols: np.ndarray) -> sp.csr_array:
    return sp.csr_array(op[rows][:, cols])


@lru_cache(maxsize=8)
def build_number_block_generator(params: SystemParams,
                                 basis: TwoModeBasis) -> sp.csr_array:
    """Generator restricted to the coherence-grade-0 sector."""
    space = number_block_space(basis)
    h = fock.hamiltonian(basis, params.J, params.U)
    a1, a2d = _jump_ops(params, basis)
    k_loss = sp.csr_array(a1.conj().T @ a1)
    k_gain = sp.csr_array(a2d.conj().T @ a2d)
    gl, gg = params.gamma_loss, params.gamma_gain

    rows_l, cols_l, vals_l = [], [], []

    def add(block: sp.coo_array, row_off: int, col_off: int):
        b = sp.coo_array(block)
        rows_l.append(b.row + row_off)
        cols_l.append(b.col + col_off)
        vals_l.append(b.data)

    n_sec = len(space.sectors)
    for n, sec in enumerate(space.sectors):
        d = len(sec)
        if d == 0:
            continue
        eye = sp.eye_array(d, dtype=complex, format="csr")
        off = space.offsets[n]
        h_n = _sector_slice(h, sec, sec)
        same = -1j * (sp.kron(eye, h_n) - sp.kron(h_n.T, eye))
        if gl:
            k_n = _sector_slice(k_loss, sec, sec)
            same = same - 0.5 * gl * (sp.kron(eye, k_n) + sp.kron(k_n.T, eye))
        if gg:
            k_n = _sector_slice(k_gain, sec, sec)
            same = same - 0.5 * gg * (sp.kron(eye, k_n) + sp.kron(k_n.T, eye))
        add(same, off, off)
        # loss sandwich: sector N feeds sector N-1
        if gl and n >= 1:
            dst = space.sectors[n - 1]
            a_blk = _sector_slice(a1, dst, sec)
            add(gl * sp.kron(a_blk.conj(), a_blk), space.offsets[n - 1], off)
        # gain sandwich: sector N feeds sector N+1
        if gg and n + 1 < n_sec:
            dst = space.sectors[n + 1]
            a_blk = _sector_slice(a2d, dst, sec)
            add(gg * sp.kron(a_blk.conj(), a_blk), space.offsets[n + 1], off)

    gen = sp.coo_array(
        (np.concatenate(vals_l),
         (np.concatenate(rows_l), np.concatenate(cols_l))),
        shape=(space.size, space.size),
    )
    return sp.csr_array(gen)


@lru_cache(maxsize=8)
def _block_observable_weights(basis: TwoModeBasis):
    """Weight vectors w with <O> = w . packed(rho) for the Bloch moments
    and their symmetrized pair products."""
    space = number_block_space(basis)
    ops = fock.bloch_operators(basis)
    pairs = fock._bloch_pair_products(basis)

    def weights(op) -> np.ndarray:
        w = np.empty(space.size, dtype=complex)
        for n, sec in enumerate(space.sectors):
            blk = np.asarray(op[sec][:, sec].todense())
            w[space.offsets[n]:space.offsets[n + 1]] = blk.ravel(order="C")
        return w

    firsts = tuple(weights(op) for op in ops)
    seconds = {key: weights(val) for key, val in pairs.items()}
    return firsts, seconds


def block_moments(vec: np.ndarray, basis: TwoModeBasis) -> BlochMoments:
    """Bloch moments evaluated directly on a packed grade-0 vector."""
    firsts, seconds = _block_observable_weights(basis)
    means = np.array([(w @ vec).real for w in firsts])
    delta = np.empty((4, 4))
    for (j, k), w in seconds.items():
        val = (w @ vec).real - 2.0 * means[j] * means[k]
        delta[j, k] = val
        delta[k, j] = val
    return BlochMoments(s_x=2 * means[0], s_y=2 * means[1], s_z=2 * means[2],
                        n=means[3], delta=delta)


# ---------------------------------------------------------------------------
# propagation


@dataclass
class Trajectory:
    """Observable samples along a propagation, plus the final state."""

    ts: np.ndarray
    s_x: np.ndarray
    s_y: np.ndarray
    s_z: np.ndarray
    n: np.ndarray
    purity: np.ndarray
    delta_nn: np.ndarray
    truncation_mass: np.ndarray
    rho_final: np.ndarray
    moments_final: BlochMoments
    n_steps: int
    n_rejected: int
    n_rhs: int

    def rows(self):
        for i in range(len(self.ts)):
            yield (self.ts[i], self.s_x[i], self.s_y[i], self.s_z[i],
                   self.n[i], self.purity[i], self.delta_nn[i],
                   self.truncation_mass[i])


def _moments_to_arrays(ts, moment_list, masses):
    s = np.array([[m.s_x, m.s_y, m.s_z, m.n] for m in moment_list])
    pur = np.array([
        (m.s_x**2 + m.s_y**2 + m.s_z**2) / m.n**2 if m.n > 1e-12 else np.nan
        for m in moment_list
    ])
    dnn = np.array([m.delta[3, 3] for m in moment_list])
    return dict(ts=np.asarray(ts), s_x=s[:, 0], s_y=s[:, 1], s_z=s[:, 2],
                n=s[:, 3], purity=pur, delta_nn=dnn,
                truncation_mass=np.asarray(masses))


def _integrate(y0: np.ndarray, t_final: float, gen: sp.csr_array,
               herm_perm: np.ndarray, boundary: np.ndarray,
               config: PropagationConfig):
    """Integrate y' = gen y from a packed state, re-hermitizing after every
    step (herm_perm maps each packed entry to its transpose) and aborting
    once the diagonal entries at `boundary` carry more than the ceiling."""
    mass0 = float(np.sum(y0[boundary].real))
    if mass0 > config.truncation_ceiling:
        raise TruncationOverflowError(
            f"initial boundary mass {mass0:.3e} exceeds ceiling "
            f"{config.truncation_ceiling:.3e}")

    def rhs(_t, v):
        return gen @ v

    def hermitize_step(_t, v):
        return 0.5 * (v + v[herm_perm].conj())

    def monitor(t, v):
        mass = float(np.sum(v[boundary].real))
        if mass > config.truncation_ceiling:
            raise TruncationOverflowError(
                f"boundary mass {mass:.3e} exceeded ceiling "
                f"{config.truncation_ceiling:.3e} at t = {t:.6g} "
                "(basis too small)")

    return integrate_dp45(
        rhs, (0.0, t_final), y0,
        rtol=config.rtol, atol=config.atol, max_step=config.max_step,
        sample_times=sample_grid(t_final, config.sample_interval, 200),
        on_step=hermitize_step, monitor=monitor,
    )


def propagate(rho0: np.ndarray, t_final: float, params: SystemParams,
              basis: TwoModeBasis,
              config: PropagationConfig = PropagationConfig()) -> Trajectory:
    """Propagate a density matrix with the full vectorized generator.

    Aborts with TruncationOverflowError when the probability on the
    boundary shell exceeds the configured ceiling.
    """
    fock.check_density_matrix(rho0)
    dim = basis.dim
    result = _integrate(
        rho0.ravel(order="F"), t_final, build_liouvillian(params, basis),
        np.arange(dim * dim).reshape(dim, dim).T.ravel(),
        basis.boundary * dim + basis.boundary, config)
    moments, masses = [], []
    for v in result.sample_ys:
        rho = v.reshape((dim, dim), order="F")
        moments.append(fock.bloch_moments(rho, basis))
        masses.append(fock.truncation_mass(rho, basis))
    rho_final = result.y.reshape((dim, dim), order="F")
    arrays = _moments_to_arrays(result.sample_ts, moments, masses)
    return Trajectory(rho_final=rho_final, moments_final=moments[-1],
                      n_steps=result.n_steps, n_rejected=result.n_rejected,
                      n_rhs=result.n_rhs, **arrays)


def moment_trajectory(rho0: np.ndarray, t_final: float, params: SystemParams,
                      basis: TwoModeBasis,
                      config: PropagationConfig = PropagationConfig()) -> Trajectory:
    """Propagate on the number-conserving coherence block.

    Exact for every recorded observable (all are number conserving); the
    returned rho_final contains the grade-0 part of the state only, which
    determines those observables completely.
    """
    fock.check_density_matrix(rho0)
    space = number_block_space(basis)
    bpos = space.boundary_diag_positions
    result = _integrate(
        pack_block(rho0, space), t_final,
        build_number_block_generator(params, basis), space.herm_perm, bpos,
        config)
    moments = [block_moments(v, basis) for v in result.sample_ys]
    masses = [float(np.sum(v[bpos].real)) for v in result.sample_ys]
    arrays = _moments_to_arrays(result.sample_ts, moments, masses)
    return Trajectory(rho_final=unpack_block(result.y, space),
                      moments_final=moments[-1],
                      n_steps=result.n_steps, n_rejected=result.n_rejected,
                      n_rhs=result.n_rhs, **arrays)


def trajectory_to_csv(traj: Trajectory, path) -> None:
    from .io import write_csv

    write_csv(path, TRAJECTORY_COLUMNS, traj.rows())
