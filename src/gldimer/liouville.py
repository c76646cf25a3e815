"""Lindblad generator of the gain-loss dimer and time propagation.

The generator is

    d rho/dt = -i [H, rho] + gamma_loss D(a1) rho + gamma_gain D(a2^dag) rho

with D(c) rho = c rho c^dag - (c^dag c rho + rho c^dag c)/2.  Operator
products are taken in the truncated space, which keeps the generator
exactly trace preserving there.

The generator is assembled once, in closed form from its matrix elements
(`_packed_generator`), on the packed entries of a layout:

* the number-conserving coherence sector (matrix elements
  <n1,n2|rho|m1,m2> with n1+n2 = m1+m2), used by `moment_trajectory`,
  `verify_attractor` and the steady-state solve.  The generator never
  mixes coherence grades (every term shifts the total occupation of bra
  and ket sides equally), and every exported observable is number
  conserving, so this block reproduces the full dynamics of those
  observables exactly at a fraction of the cost.  This makes large
  cutoffs affordable;
* the whole density matrix, every coherence grade, on vec(rho) (column
  stacking): `build_liouvillian`, used by `propagate`.

The matrix form `apply_liouvillian` shares no code with that assembly: it
verifies the steady state on its block-sparse form and serves the tests
as an oracle.

Both propagations return a `Trajectory`: the `fock.MomentTrajectory` of
the sampled Bloch moments, with the boundary mass of every sample, the
final state and the integrator's step counts.  A sample is the one
sparse product W @ y of the state's coordinates y with the observable
matrix W of `_block_observable_weights`, whose 15 rows read the
expectations of the Bloch quadratics and of their pair products and the
boundary mass from the grade-0 coordinates (`propagate` maps W's columns
to those positions in its full ones); no sampled state is kept.
`fock._moment_vectors`, the one step from expectations to covariances,
turns all samples into moments at once after the integration.

Both propagations run on real Hermitian coordinates (the diagonal and the
real and imaginary parts of one triangle), in which the generator is a
real matrix: `moment_trajectory` on those of each sector block,
`propagate` on those of the whole density matrix.  The complex generator
on either layout's packed entries is mapped to its coordinates.  A state
in them is Hermitian by construction, so neither propagation
re-hermitizes.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np
import scipy.sparse as sp

from . import fock
from .errors import TruncationOverflowError
from .fock import BlochMoments, MomentTrajectory, TwoModeBasis
from .ode import integrate_dp45, sample_grid
from .system import SystemParams

TRAJECTORY_COLUMNS = ("t", "s_x", "s_y", "s_z", "n", "P", "Delta_nn",
                      "truncation_mass")


@dataclass(frozen=True)
class PropagationConfig:
    """Adaptive embedded Runge-Kutta 4(5) settings and recording choices."""

    rtol: float = 1e-8
    atol: float = 1e-10
    sample_interval: float | None = None  # default: t_final / 200
    truncation_ceiling: float = 1e-6

    def __post_init__(self):
        if self.rtol <= 0 or self.atol <= 0:
            raise ValueError("tolerances must be positive")


@lru_cache(maxsize=8)
def build_liouvillian(params: SystemParams, basis: TwoModeBasis) -> sp.csr_array:
    """The complex generator on vec(rho), column stacking, every coherence
    grade: `_packed_generator` on the layout of the whole matrix."""
    return _packed_generator(params, _full_index(basis))


def apply_liouvillian(rho: np.ndarray, params: SystemParams,
                      basis: TwoModeBasis) -> np.ndarray:
    """Generator applied in matrix form; independent of the generator
    assemblies, which makes it suitable for residual verification.  The
    sparse operators multiply rho, dense or sparse, directly."""
    h = fock.hamiltonian(basis, params.J, params.U)
    out = -1j * (h @ rho - rho @ h)
    for op, rate in ((fock.annihilation(basis, 1), params.gamma_loss),
                     (fock.creation(basis, 2), params.gamma_gain)):
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
    offsets: np.ndarray
    size: int
    entries: np.ndarray              # flat index ket * dim + bra in rho
    diag_positions: np.ndarray       # packed positions of rho_ii
    herm_perm: np.ndarray            # packed position of the transposed entry
    lower: np.ndarray                # positions strictly below the diagonal
    boundary_diag_positions: np.ndarray

    def position(self, ket, bra) -> np.ndarray:
        """Packed position of rho[ket, bra], for basis indices of equal
        total occupation."""
        n1k, n2k = np.divmod(ket, self.basis.n_per_site)
        total = n1k + n2k
        lo = np.maximum(total - self.basis.cutoff, 0)
        d = np.minimum(total, 2 * self.basis.cutoff - total) + 1
        return (self.offsets[total] + (n1k - lo)
                + (bra // self.basis.n_per_site - lo) * d)


@lru_cache(maxsize=8)
def number_block_space(basis: TwoModeBasis) -> NumberBlockSpace:
    cutoff = basis.cutoff
    totals = np.arange(2 * cutoff + 1)
    lo = np.maximum(totals - cutoff, 0)
    d = np.minimum(totals, 2 * cutoff - totals) + 1

    def flat(total, n1):
        return n1 * (cutoff + 1) + total - n1

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
        basis=basis, offsets=offsets, size=size,
        entries=kets * basis.dim + flat(sector_of, n1_bra),
        diag_positions=diag_pos,
        herm_perm=offsets[sector_of] + col + row * ds, lower=row > col,
        boundary_diag_positions=diag_pos[np.isin(kets[diag_pos],
                                                 basis.boundary)],
    )


@dataclass(frozen=True)
class _FullIndex:
    """Real Hermitian coordinates of the whole density matrix, in the
    fields of NumberBlockSpace that the packing functions and
    `_packed_generator` read: position p = i + j * dim (column stacking of
    vec(rho)) stands for rho[i, j], its real part for i <= j, its
    imaginary part for i > j."""

    basis: TwoModeBasis
    size: int
    entries: np.ndarray
    herm_perm: np.ndarray
    lower: np.ndarray
    diag_positions: np.ndarray

    def position(self, ket, bra) -> np.ndarray:
        """Position of rho[ket, bra]."""
        return ket + bra * self.basis.dim


def _full_index(basis: TwoModeBasis) -> _FullIndex:
    dim = basis.dim
    col, row = np.divmod(np.arange(dim * dim), dim)
    # column stacking of rho is row stacking of its transpose: the flat
    # index i * dim + j of rho[i, j] is the position of rho[j, i]
    transposed = col + row * dim
    return _FullIndex(basis, dim * dim, transposed, transposed, row > col,
                      np.arange(dim) * (dim + 1))


def pack_block(rho: np.ndarray,
               space: NumberBlockSpace | _FullIndex) -> np.ndarray:
    """Real Hermitian coordinates of rho in the layout of `space`: of its
    grade-0 blocks, or of the whole matrix for a `_FullIndex`.  The
    anti-Hermitian part is dropped."""
    v = rho.ravel()[space.entries]
    return np.where(space.lower, v.imag, v.real)


def unpack_block(x: np.ndarray,
                 space: NumberBlockSpace | _FullIndex) -> np.ndarray:
    """The Hermitian density matrix with real coordinates x in the layout
    of `space` (zero outside the grade-0 blocks of a NumberBlockSpace)."""
    xt = x[space.herm_perm]
    imag = np.where(space.lower, x, -xt)
    imag[space.diag_positions] = 0.0
    dim = space.basis.dim
    rho = np.zeros(dim * dim, dtype=complex)
    rho[space.entries] = np.where(space.lower, xt, x) + 1j * imag
    return rho.reshape(dim, dim)


def _coordinate_map(space: NumberBlockSpace | _FullIndex) -> sp.csr_array:
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
                      space: NumberBlockSpace | _FullIndex) -> sp.csr_array:
    """The complex generator on the packed entries of `space` (before the
    map to real coordinates), written from its matrix elements on the
    basis indices ket and bra of each entry rho[ket, bra].

    The Hamiltonian couples |n1, n2> to |n1 + 1, n2 - 1>, the basis index
    + cutoff, with hopping -J sqrt((n1 + 1) n2); the interaction
    U/2 (n1 (n1 - 1) + n2 (n2 - 1)) is diagonal.  The anticommutator
    terms are diagonal too: K_loss = n1, K_gain = n2 + 1 (the truncated
    product, 0 at n2 = cutoff).  The loss sandwich a1 rho a1^dag moves
    both indices by -(cutoff + 1) with weight sqrt(n1k n1b), the gain
    sandwich a2^dag rho a2 moves both by +1 with weight
    sqrt((n2k + 1)(n2b + 1)).  Every move keeps the coherence grade, so
    the same elements build the grade-0 sector and the whole matrix.
    """
    cutoff = space.basis.cutoff
    J, U = params.J, params.U
    gl, gg = params.gamma_loss, params.gamma_gain
    ket, bra = np.divmod(space.entries, space.basis.dim)
    n1k, n2k = np.divmod(ket, cutoff + 1)
    n1b, n2b = np.divmod(bra, cutoff + 1)
    pos = np.arange(space.size)

    def energy(n1, n2):
        return 0.5 * U * (n1 * (n1 - 1) + n2 * (n2 - 1))

    def k_gain(n2):
        return np.where(n2 < cutoff, n2 + 1, 0)

    diag = (-1j * (energy(n1k, n2k) - energy(n1b, n2b))
            - 0.5 * gl * (n1k + n1b) - 0.5 * gg * (k_gain(n2k) + k_gain(n2b)))
    keep = diag != 0
    rows, cols, vals = [pos[keep]], [pos[keep]], [diag[keep]]

    # -i H rho couples the ket to ket + cutoff, +i rho H the bra likewise
    for n1, n2, phase, dk, db in ((n1k, n2k, -1j, cutoff, 0),
                                  (n1b, n2b, 1j, 0, cutoff)):
        src = pos[(n2 > 0) & (n1 < cutoff)]
        dst = space.position(ket[src] + dk, bra[src] + db)
        val = phase * -J * np.sqrt((n1[src] + 1.0) * n2[src])
        rows += [src, dst]
        cols += [dst, src]
        vals += [val, val]

    if gl:
        src = pos[(n1k > 0) & (n1b > 0)]
        rows.append(space.position(ket[src] - cutoff - 1,
                                   bra[src] - cutoff - 1))
        cols.append(src)
        vals.append(gl * np.sqrt(n1k[src] * n1b[src], dtype=float))
    if gg:
        src = pos[(n2k < cutoff) & (n2b < cutoff)]
        rows.append(space.position(ket[src] + 1, bra[src] + 1))
        cols.append(src)
        vals.append(gg * np.sqrt((n2k[src] + 1.0) * (n2b[src] + 1.0)))

    return sp.csr_array(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
        shape=(space.size, space.size))


def _real_generator(gen: sp.csr_array,
                    space: NumberBlockSpace | _FullIndex) -> sp.csr_array:
    """The real matrix that acts on real coordinates as `gen` acts on the
    packed entries they stand for.  `gen` must map Hermitian blocks to
    Hermitian ones, as every Lindblad generator does; on a
    NumberBlockSpace the result keeps the sector block structure."""
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
def _block_observable_weights(basis: TwoModeBasis) -> sp.csr_array:
    """The real sparse matrix W whose product W @ pack_block(rho) holds a
    state's 15 observables: the expectations of the four Bloch quadratics
    and of their ten symmetrized pair products, in the order
    `fock._moment_vectors` reads, and the boundary mass.  A quadratic's
    row is Re(T^T c) for the complex weights c of the packed entries and
    the coordinate map T; the boundary row is 1 at the boundary's
    diagonal positions."""
    space = number_block_space(basis)
    ops = fock.bloch_operators(basis) + fock._bloch_pair_products(basis)
    to_entries = _coordinate_map(space).T
    ket, bra = np.divmod(space.entries, basis.dim)
    boundary = np.zeros(space.size)
    boundary[space.boundary_diag_positions] = 1.0
    # <O> = sum O[bra, ket] rho[ket, bra]; each row is made sparse before
    # the next is formed, so the build holds one dense row at a time
    rows =[sp.csr_array((to_entries @ op[bra, ket]).real[None]) for op in ops]
    return sp.vstack(rows + [sp.csr_array(boundary[None])], format="csr")


def block_moments(x: np.ndarray, basis: TwoModeBasis) -> BlochMoments:
    """Bloch moments evaluated directly on the real coordinates x of a
    grade-0 state, from the one product W @ x."""
    return BlochMoments.from_vector(
        fock._moment_vectors(_block_observable_weights(basis) @ x))


# ---------------------------------------------------------------------------
# propagation


@dataclass
class Trajectory(MomentTrajectory):
    """The sampled moments of a propagation, the boundary mass of every
    sample, the final state and the integrator's step counts."""

    truncation_mass: np.ndarray
    rho_final: np.ndarray
    n_steps: int
    n_rejected: int
    n_rhs: int

    def rows(self):
        """The samples as rows of TRAJECTORY_COLUMNS."""
        return zip(self.ts, self.s_x, self.s_y, self.s_z, self.n,
                   self.purity, self.delta_nn, self.truncation_mass)


def _trajectory(result, rho_final: np.ndarray) -> Trajectory:
    """Trajectory of an integrator result whose samples are the 15
    observables of `_block_observable_weights`, all turned into moments
    at once."""
    return Trajectory(
        ts=result.sample_ts,
        ys=fock._moment_vectors(result.sample_ys),
        truncation_mass=result.sample_ys[:, 14],
        rho_final=rho_final,
        n_steps=result.n_steps, n_rejected=result.n_rejected,
        n_rhs=result.n_rhs)


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
               weights: sp.csr_array):
    """Integrate y' = gen y, recording the one product weights @ y of each
    sample (the rows of `_block_observable_weights` on y's coordinates)
    and aborting once the diagonal entries at `boundary` carry more than
    the ceiling."""
    monitor = boundary_monitor(boundary, config.truncation_ceiling)
    monitor(0.0, y0)

    def rhs(_t, v):
        return gen @ v

    return integrate_dp45(
        rhs, (0.0, t_final), y0,
        rtol=config.rtol, atol=config.atol,
        sample_times=sample_grid(t_final, config.sample_interval, 200),
        monitor=monitor, record=lambda v: weights @ v,
    )


def propagate(rho0: np.ndarray, t_final: float, params: SystemParams,
              basis: TwoModeBasis,
              config: PropagationConfig = PropagationConfig()) -> Trajectory:
    """Propagate a density matrix, every coherence grade of it, with
    `build_liouvillian` mapped to the real Hermitian coordinates of the
    whole matrix; rho_final is exactly Hermitian.

    Aborts with TruncationOverflowError when the probability on the
    boundary shell exceeds the configured ceiling.
    """
    fock.check_density_matrix(rho0)
    index = _full_index(basis)
    # both layouts keep the real part of rho[i, j] for i <= j, so the
    # grade-0 coordinates are the full ones at the block entries' positions
    grade0 = index.herm_perm[number_block_space(basis).entries]
    w = _block_observable_weights(basis)
    result = _integrate(
        pack_block(rho0, index), t_final,
        _real_generator(build_liouvillian(params, basis), index),
        index.diag_positions[basis.boundary], config,
        sp.csr_array((w.data, grade0[w.indices], w.indptr),
                     shape=(w.shape[0], index.size), copy=True))
    return _trajectory(result, unpack_block(result.y, index))


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
    result = _integrate(
        pack_block(rho0, space), t_final,
        build_number_block_generator(params, basis),
        space.boundary_diag_positions, config,
        _block_observable_weights(basis))
    return _trajectory(result, unpack_block(result.y, space))
