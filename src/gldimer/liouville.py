"""Lindblad generator of the gain-loss dimer and time propagation.

The generator is

    d rho/dt = -i [H, rho] + gamma_loss D(a1) rho + gamma_gain D(a2^dag) rho

with D(c) rho = c rho c^dag - (c^dag c rho + rho c^dag c)/2.  Operator
products are taken in the truncated space, which keeps the generator
exactly trace preserving there.

Two representations are provided:

* the full superoperator on vec(rho) (column stacking), used by
  `propagate` and as the tests' oracle; `propagate` re-hermitizes the
  state after every step, and
* a block representation on the number-conserving coherence sector
  (matrix elements <n1,n2|rho|m1,m2> with n1+n2 = m1+m2), used by
  `moment_trajectory`, `verify_attractor` and the steady-state solve.
  The generator never mixes coherence grades (every term shifts the
  total occupation of bra and ket sides equally), and every exported
  observable is number conserving, so this block reproduces the full
  dynamics of those observables exactly at a fraction of the cost.  This
  makes large cutoffs affordable.

The sector blocks of a density matrix are Hermitian, so the block
representation packs each of them into real Hermitian coordinates (the
diagonal and the real and imaginary parts of one triangle), in which the
generator is a real matrix.  It is written in closed form from its
complex matrix elements per particle-number sector and then mapped to
these coordinates.  A state in them is Hermitian by construction, so
block propagation needs no re-hermitization.
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
    "build_number_block_generator", "boundary_monitor", "trajectory_to_csv",
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
    """Indexing of the coherence-grade-0 sector in its packed layout, the
    real Hermitian coordinates of `pack_block`.

    The sector holds the density-matrix blocks rho[sector_N, sector_N] for
    N = 0 .. 2*cutoff, each column-stacked, concatenated in order of N.
    Within sector N the states are ordered by n1 = lo_N .. lo_N + d_N - 1,
    lo_N = max(0, N - cutoff), so the entry <n1k, N - n1k|rho|n1b, N - n1b>
    sits at offsets[N] + (n1k - lo_N) + (n1b - lo_N) * d_N.  Every block is
    Hermitian, so that position carries the real part of the entry on and
    above the block's diagonal and its imaginary part strictly below it
    (`lower`): d_N^2 reals for a d_N x d_N block.
    """

    basis: TwoModeBasis
    sectors: tuple  # tuple of ndarray of flat state indices per total N
    offsets: np.ndarray
    size: int
    sector_of: np.ndarray            # total N of every packed position
    n1_ket: np.ndarray               # site-1 occupation of the ket (row)
    n1_bra: np.ndarray               # site-1 occupation of the bra (column)
    entries: np.ndarray              # flat index ket * dim + bra in rho
    diag_positions: np.ndarray       # packed positions of rho_ii
    herm_perm: np.ndarray            # packed position of the transposed entry
    lower: np.ndarray                # positions strictly below the diagonal
    boundary_diag_positions: np.ndarray

    def position(self, total, n1_ket, n1_bra) -> np.ndarray:
        """Packed position of <n1_ket, total - n1_ket|rho|n1_bra, ...>."""
        lo = np.maximum(total - self.basis.cutoff, 0)
        d = np.minimum(total, 2 * self.basis.cutoff - total) + 1
        return self.offsets[total] + (n1_ket - lo) + (n1_bra - lo) * d


@lru_cache(maxsize=8)
def number_block_space(basis: TwoModeBasis) -> NumberBlockSpace:
    cutoff = basis.cutoff
    totals = np.arange(2 * cutoff + 1)
    lo = np.maximum(totals - cutoff, 0)
    d = np.minimum(totals, 2 * cutoff - totals) + 1

    def flat(total, n1):
        return n1 * (cutoff + 1) + total - n1

    sectors = tuple(flat(n, lo[n] + np.arange(d[n])) for n in totals)
    offsets = np.concatenate(([0], np.cumsum(d * d)))
    size = int(offsets[-1])

    sector_of = np.repeat(totals, d * d)
    local = np.arange(size) - offsets[sector_of]
    ds = d[sector_of]
    row, col = local % ds, local // ds
    n1_ket = lo[sector_of] + row
    n1_bra = lo[sector_of] + col
    kets = flat(sector_of, n1_ket)
    diag_pos = np.flatnonzero(n1_ket == n1_bra)
    return NumberBlockSpace(
        basis=basis, sectors=sectors, offsets=offsets, size=size,
        sector_of=sector_of, n1_ket=n1_ket, n1_bra=n1_bra,
        entries=kets * basis.dim + flat(sector_of, n1_bra),
        diag_positions=diag_pos,
        herm_perm=offsets[sector_of] + col + row * ds, lower=row > col,
        boundary_diag_positions=diag_pos[np.isin(kets[diag_pos],
                                                 basis.boundary)],
    )


def pack_block(rho: np.ndarray, space: NumberBlockSpace) -> np.ndarray:
    """Real Hermitian coordinates of the grade-0 blocks of rho; their
    anti-Hermitian part is dropped."""
    v = rho.ravel()[space.entries]
    return np.where(space.lower, v.imag, v.real)


def unpack_block(x: np.ndarray, space: NumberBlockSpace) -> np.ndarray:
    """The Hermitian grade-0 density matrix with real coordinates x."""
    xt = x[space.herm_perm]
    imag = np.where(space.lower, x, -xt)
    imag[space.diag_positions] = 0.0
    dim = space.basis.dim
    rho = np.zeros(dim * dim, dtype=complex)
    rho[space.entries] = np.where(space.lower, xt, x) + 1j * imag
    return rho.reshape(dim, dim)


def _coordinate_map(space: NumberBlockSpace) -> sp.csr_array:
    """The complex matrix T that takes real coordinates to the packed
    entries they stand for: column p holds the weights of x_p in the entry
    at p and in the one at its transposed position."""
    pos = np.arange(space.size)
    off = space.herm_perm != pos
    return sp.csr_array(
        (np.concatenate((np.where(space.lower, 1j, 1.0),
                         np.where(space.lower[off], -1j, 1.0))),
         (np.concatenate((pos, space.herm_perm[off])),
          np.concatenate((pos, pos[off])))),
        shape=(space.size, space.size))


def _packed_generator(params: SystemParams,
                      space: NumberBlockSpace) -> sp.csr_array:
    """The complex generator on the packed entries of the grade-0 sector
    (before the map to real coordinates), written from its matrix
    elements.

    In sector N the Hamiltonian is tridiagonal in n1, with hopping
    -J sqrt((n1 + 1) n2) between n1 and n1 + 1 and the interaction
    U/2 (n1 (n1 - 1) + n2 (n2 - 1)) on the diagonal.  The anticommutator
    terms are diagonal: K_loss = n1, K_gain = n2 + 1 (the truncated
    product, 0 at n2 = cutoff).  The loss sandwich a1 rho a1^dag feeds
    sector N - 1 from N with weight sqrt(n1k n1b), the gain sandwich
    a2^dag rho a2 feeds sector N + 1 from N with weight
    sqrt((n2k + 1)(n2b + 1)).
    """
    cutoff = space.basis.cutoff
    J, U = params.J, params.U
    gl, gg = params.gamma_loss, params.gamma_gain
    tot, n1k, n1b = space.sector_of, space.n1_ket, space.n1_bra
    n2k, n2b = tot - n1k, tot - n1b
    pos = np.arange(space.size)

    def energy(n1, n2):
        return 0.5 * U * (n1 * (n1 - 1) + n2 * (n2 - 1))

    def k_gain(n2):
        return np.where(n2 < cutoff, n2 + 1, 0)

    diag = (-1j * (energy(n1k, n2k) - energy(n1b, n2b))
            - 0.5 * gl * (n1k + n1b) - 0.5 * gg * (k_gain(n2k) + k_gain(n2b)))
    keep = diag != 0
    rows, cols, vals = [pos[keep]], [pos[keep]], [diag[keep]]

    # -i H rho couples n1k to n1k + 1, +i rho H couples n1b to n1b + 1
    for n1, n2, phase, dk, db in ((n1k, n2k, -1j, 1, 0),
                                  (n1b, n2b, 1j, 0, 1)):
        src = pos[(n2 > 0) & (n1 < cutoff)]
        dst = space.position(tot[src], n1k[src] + dk, n1b[src] + db)
        val = phase * -J * np.sqrt((n1[src] + 1.0) * n2[src])
        rows += [src, dst]
        cols += [dst, src]
        vals += [val, val]

    if gl:
        src = pos[(n1k > 0) & (n1b > 0)]
        rows.append(space.position(tot[src] - 1, n1k[src] - 1, n1b[src] - 1))
        cols.append(src)
        vals.append(gl * np.sqrt(n1k[src] * n1b[src], dtype=float))
    if gg:
        src = pos[(n2k < cutoff) & (n2b < cutoff)]
        rows.append(space.position(tot[src] + 1, n1k[src], n1b[src]))
        cols.append(src)
        vals.append(gg * np.sqrt((n2k[src] + 1.0) * (n2b[src] + 1.0)))

    return sp.csr_array(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
        shape=(space.size, space.size))


def _real_generator(gen: sp.csr_array,
                    space: NumberBlockSpace) -> sp.csr_array:
    """The real matrix that acts on real coordinates as `gen` acts on the
    packed entries they stand for.  `gen` must map Hermitian blocks to
    Hermitian ones, as every Lindblad generator does; the result keeps the
    sector block structure."""
    # Re(w v) is Re v or Im v
    rows = sp.diags_array(np.where(space.lower, -1j, 1.0))
    out = (rows @ gen @ _coordinate_map(space)).real
    out.eliminate_zeros()
    # .real views the complex product's data with a stride; the compact
    # copy frees that product and halves the cost of a matvec
    return out.copy()


@lru_cache(maxsize=8)
def build_number_block_generator(params: SystemParams,
                                 basis: TwoModeBasis) -> sp.csr_array:
    """Generator of the coherence-grade-0 sector on its real Hermitian
    coordinates: the real matrix R with
    pack_block(L rho) = R @ pack_block(rho) for every Hermitian grade-0
    rho, in the sector block structure of the packed layout."""
    space = number_block_space(basis)
    return _real_generator(_packed_generator(params, space), space)


@lru_cache(maxsize=8)
def _block_observable_weights(basis: TwoModeBasis):
    """Real weight vectors w with <O> = w . pack_block(rho) for the Bloch
    moments and their symmetrized pair products: Re(T^T c) for the complex
    weights c of the packed entries and the coordinate map T."""
    space = number_block_space(basis)
    ops = fock.bloch_operators(basis)
    pairs = fock._bloch_pair_products(basis)
    to_entries = _coordinate_map(space).T
    ket, bra = np.divmod(space.entries, basis.dim)

    def weights(op) -> np.ndarray:
        # <O> = sum O[bra, ket] rho[ket, bra]
        return (to_entries @ op[bra, ket]).real

    firsts = tuple(weights(op) for op in ops)
    seconds = {key: weights(val) for key, val in pairs.items()}
    return firsts, seconds


def block_moments(x: np.ndarray, basis: TwoModeBasis) -> BlochMoments:
    """Bloch moments evaluated directly on the real coordinates x of a
    grade-0 state."""
    firsts, seconds = _block_observable_weights(basis)
    means = np.array([w @ x for w in firsts])
    delta = np.empty((4, 4))
    for (j, k), w in seconds.items():
        val = w @ x - 2.0 * means[j] * means[k]
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


def boundary_monitor(boundary: np.ndarray, ceiling: float,
                     base_mass: float = 0.0):
    """A monitor for integrate_dp45 that raises TruncationOverflowError once
    the boundary mass, base_mass plus the real parts of the state's
    diagonal entries at `boundary`, exceeds the ceiling.  The integrator
    calls it after every accepted step; call it at t = 0 to check the
    initial state."""
    def monitor(t, v):
        mass = base_mass + float(np.sum(v[boundary].real))
        if mass > ceiling:
            raise TruncationOverflowError(
                f"boundary mass {mass:.3e} exceeded ceiling {ceiling:.3e} "
                f"at t = {t:.6g} (basis too small)")
    return monitor


def _integrate(y0: np.ndarray, t_final: float, gen: sp.csr_array,
               boundary: np.ndarray, config: PropagationConfig,
               on_step=None):
    """Integrate y' = gen y, passing on_step to the integrator and aborting
    once the diagonal entries at `boundary` carry more than the
    ceiling."""
    monitor = boundary_monitor(boundary, config.truncation_ceiling)
    monitor(0.0, y0)

    def rhs(_t, v):
        return gen @ v

    return integrate_dp45(
        rhs, (0.0, t_final), y0,
        rtol=config.rtol, atol=config.atol, max_step=config.max_step,
        sample_times=sample_grid(t_final, config.sample_interval, 200),
        on_step=on_step, monitor=monitor,
    )


def propagate(rho0: np.ndarray, t_final: float, params: SystemParams,
              basis: TwoModeBasis,
              config: PropagationConfig = PropagationConfig()) -> Trajectory:
    """Propagate a density matrix with the full vectorized generator,
    re-hermitizing the state after every step.

    Aborts with TruncationOverflowError when the probability on the
    boundary shell exceeds the configured ceiling.
    """
    fock.check_density_matrix(rho0)
    dim = basis.dim
    transposed = np.arange(dim * dim).reshape(dim, dim).T.ravel()

    def hermitize_step(_t, v):
        return 0.5 * (v + v[transposed].conj())

    result = _integrate(
        rho0.ravel(order="F"), t_final, build_liouvillian(params, basis),
        basis.boundary * dim + basis.boundary, config, hermitize_step)
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
    """Propagate on the real Hermitian coordinates of the number-conserving
    coherence block.

    Exact for every recorded observable (all are number conserving); the
    returned rho_final contains the grade-0 part of the state only, which
    determines those observables completely.
    """
    fock.check_density_matrix(rho0)
    space = number_block_space(basis)
    bpos = space.boundary_diag_positions
    result = _integrate(
        pack_block(rho0, space), t_final,
        build_number_block_generator(params, basis), bpos, config)
    moments = [block_moments(x, basis) for x in result.sample_ys]
    masses = [float(np.sum(x[bpos])) for x in result.sample_ys]
    arrays = _moments_to_arrays(result.sample_ts, moments, masses)
    return Trajectory(rho_final=unpack_block(result.y, space),
                      moments_final=moments[-1],
                      n_steps=result.n_steps, n_rejected=result.n_rejected,
                      n_rhs=result.n_rhs, **arrays)


def trajectory_to_csv(traj: Trajectory, path) -> None:
    from .io import write_csv

    write_csv(path, TRAJECTORY_COLUMNS, traj.rows())
