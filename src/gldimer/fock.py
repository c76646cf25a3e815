"""Truncated two-mode Fock space, second-quantized operators and observables.

Basis states |n1, n2> with 0 <= n1, n2 <= cutoff are enumerated row-major,
flat index i = n1*(cutoff+1) + n2.  Creation past the cutoff maps to zero;
the resulting truncation error is monitored through `truncation_mass`
rather than being silently ignored.

The first and second moments of every engine share one record and one
layout: `BlochMoments` holds (s_x, s_y, s_z, n) and the 4 x 4 covariance
block, `BlochMoments.vector` flattens them into the 14 components named
by COMPONENT_NAMES (the layout of the closed-moment kernel), and
`MomentTrajectory` holds such vectors sampled in time, one row per
sample.  Purity is defined once, on this record, and so is the step from
expectations to moments: `_moment_vectors` turns the expectations of the
four Bloch quadratics and their ten symmetrized pair products into that
layout, here for the dense `bloch_moments` and in `liouville` for every
state read from packed coordinates.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache
from math import lgamma

import numpy as np
import scipy.sparse as sp

from .errors import DegenerateStateError

# Diagonal entries in (-_DIAG_CLIP, 0) are roundoff: check_density_matrix
# accepts them, and reported probability distributions clip them to zero.
_DIAG_CLIP = 1e-8
_TRACE_TOL, _HERM_TOL = 1e-8, 1e-10  # check_density_matrix's other bounds


@dataclass(frozen=True)
class TwoModeBasis:
    """Two-mode number basis truncated at `cutoff` particles per site."""

    cutoff: int

    def __post_init__(self):
        if self.cutoff < 1:
            raise ValueError("cutoff must be >= 1 (no dynamics in a 1x1 space)")

    @property
    def n_per_site(self) -> int:
        return self.cutoff + 1

    @property
    def dim(self) -> int:
        return (self.cutoff + 1) ** 2

    def index(self, n1: int, n2: int) -> int:
        if not (0 <= n1 <= self.cutoff and 0 <= n2 <= self.cutoff):
            raise ValueError(f"occupation ({n1}, {n2}) outside basis")
        return n1 * (self.cutoff + 1) + n2

    @cached_property
    def n1_of(self) -> np.ndarray:
        """Site-1 occupation of every flat index."""
        return np.repeat(np.arange(self.cutoff + 1), self.cutoff + 1)

    @cached_property
    def n2_of(self) -> np.ndarray:
        """Site-2 occupation of every flat index."""
        return np.tile(np.arange(self.cutoff + 1), self.cutoff + 1)

    @cached_property
    def total_of(self) -> np.ndarray:
        return self.n1_of + self.n2_of

    @cached_property
    def boundary(self) -> np.ndarray:
        """Flat indices of states with n1 = cutoff or n2 = cutoff."""
        mask = (self.n1_of == self.cutoff) | (self.n2_of == self.cutoff)
        return np.flatnonzero(mask)


def build_basis(cutoff: int) -> TwoModeBasis:
    return TwoModeBasis(cutoff)


# ---------------------------------------------------------------------------
# operators


def _single_mode_lowering(m: int) -> sp.csr_array:
    """(m x m) lowering matrix <k-1|a|k> = sqrt(k)."""
    k = np.arange(1, m)
    return sp.csr_array(
        (np.sqrt(k, dtype=complex), (k - 1, k)), shape=(m, m)
    )


@lru_cache(maxsize=None)
def annihilation(basis: TwoModeBasis, site: int) -> sp.csr_array:
    """Annihilation operator for site 1 or 2 on the truncated basis."""
    if site not in (1, 2):
        raise ValueError("site must be 1 or 2")
    m = basis.n_per_site
    a = _single_mode_lowering(m)
    eye = sp.eye_array(m, dtype=complex, format="csr")
    op = sp.kron(a, eye) if site == 1 else sp.kron(eye, a)
    return sp.csr_array(op)


def creation(basis: TwoModeBasis, site: int) -> sp.csr_array:
    """Truncated creation operator; the top state is mapped to zero."""
    return sp.csr_array(annihilation(basis, site).conj().T)


def number_op(basis: TwoModeBasis, site: int) -> sp.csr_array:
    a = annihilation(basis, site)
    return sp.csr_array(a.conj().T @ a)


def total_number(basis: TwoModeBasis) -> sp.csr_array:
    return sp.csr_array(number_op(basis, 1) + number_op(basis, 2))


def hamiltonian(basis: TwoModeBasis, J: float, U: float) -> sp.csr_array:
    """Two-site Bose-Hubbard Hamiltonian.

    H = -J (a1^ a2 + a2^ a1) + U/2 (a1^ a1^ a1 a1 + a2^ a2^ a2 a2)
    """
    a1 = annihilation(basis, 1)
    a2 = annihilation(basis, 2)
    hop = a1.conj().T @ a2
    h = -J * (hop + hop.conj().T)
    if U != 0.0:
        n1 = basis.n1_of.astype(float)
        n2 = basis.n2_of.astype(float)
        diag = 0.5 * U * (n1 * (n1 - 1) + n2 * (n2 - 1))
        h = h + sp.diags_array(diag.astype(complex), format="csr")
    return sp.csr_array(h)


@lru_cache(maxsize=None)
def bloch_operators(basis: TwoModeBasis):
    """The four Hermitian quadratics (L_x, L_y, L_z, n) as sparse matrices."""
    a1 = annihilation(basis, 1)
    a2 = annihilation(basis, 2)
    b12 = a1.conj().T @ a2
    b21 = b12.conj().T
    lx = sp.csr_array(0.5 * (b12 + b21))
    ly = sp.csr_array(0.5j * (b12 - b21))
    lz = sp.csr_array(0.5 * (number_op(basis, 2) - number_op(basis, 1)))
    return lx, ly, lz, total_number(basis)


@lru_cache(maxsize=None)
def _bloch_pair_products(basis: TwoModeBasis):
    """Symmetrized products {A_j, A_k} for the ten covariance entries, in
    the order of their components in COMPONENT_NAMES."""
    ops = bloch_operators(basis)
    prods = (ops[j] @ ops[k] for j, k in zip(*_PAIRS))
    return tuple(sp.csr_array(p + p.conj().T) for p in prods)


# ---------------------------------------------------------------------------
# states


def coherent_state(basis: TwoModeBasis, theta: float, phi: float,
                   n_particles: int) -> np.ndarray:
    """N-particle product of identical single-particle states (binomial state).

    Amplitudes c1 = sin(theta/2) e^{i phi}, c2 = cos(theta/2), so the Bloch
    vector of the first moments is n_particles * (sin t cos p, sin t sin p,
    cos t).
    """
    if n_particles < 0 or n_particles > basis.cutoff:
        raise ValueError("n_particles must lie within the basis cutoff")
    c1 = np.sin(theta / 2) * np.exp(1j * phi)
    c2 = np.cos(theta / 2)
    vec = np.zeros(basis.dim, dtype=complex)
    for k in range(n_particles + 1):
        # sqrt(C(N, k)) via log-gamma to stay stable at large N
        log_binom = lgamma(n_particles + 1) - lgamma(k + 1) - lgamma(n_particles - k + 1)
        amp = np.exp(0.5 * log_binom) * c1**k * c2 ** (n_particles - k)
        vec[basis.index(k, n_particles - k)] = amp
    return vec


def density_from_state(vec: np.ndarray) -> np.ndarray:
    norm2 = np.vdot(vec, vec).real
    if norm2 <= 0:
        raise ValueError("cannot build a density matrix from the zero vector")
    rho = np.outer(vec, vec.conj())
    rho /= norm2
    return rho


def fock_density(basis: TwoModeBasis, n1: int, n2: int) -> np.ndarray:
    rho = np.zeros((basis.dim, basis.dim), dtype=complex)
    i = basis.index(n1, n2)
    rho[i, i] = 1.0
    return rho


def check_density_matrix(rho: np.ndarray):
    """Raise ValueError unless rho is a density matrix to roundoff: trace 1
    to _TRACE_TOL, Hermitian to _HERM_TOL, diagonal above -_DIAG_CLIP."""
    trace = np.trace(rho)
    if abs(trace.real - 1.0) > _TRACE_TOL or abs(trace.imag) > _TRACE_TOL:
        raise ValueError(f"trace {trace} deviates from 1")
    # |rho - rho^H| from real parts, without full-size complex temporaries
    dev = rho.real - rho.real.T
    np.hypot(dev, rho.imag + rho.imag.T, out=dev)
    if np.max(dev) > _HERM_TOL:
        raise ValueError("density matrix is not Hermitian")
    if np.min(np.diagonal(rho).real) < -_DIAG_CLIP:
        raise ValueError("density matrix has a significantly negative diagonal")


# ---------------------------------------------------------------------------
# observables


# the flat moment layout of BlochMoments.vector and MomentTrajectory.ys
COMPONENT_NAMES = ("s_x", "s_y", "s_z", "n", "D_xx", "D_xy", "D_xz", "D_xn",
                   "D_yy", "D_yz", "D_yn", "D_zz", "D_zn", "D_nn")
# (j, k) of the covariance entries delta[j, k] at COMPONENT_NAMES[4:]
_PAIRS = np.triu_indices(4)

# purity is undefined at or below this particle number
MIN_PARTICLE_NUMBER = 1e-12


def _purity(s_x, s_y, s_z, n):
    return (s_x**2 + s_y**2 + s_z**2) / n**2


def _moment_vectors(e: np.ndarray) -> np.ndarray:
    """`BlochMoments.vector` of the expectations e[..., :14], the four
    <A_j> and then the ten <{A_j, A_k}> of `_bloch_pair_products`; of one
    state, or of one state per row."""
    means = e[..., :4]
    delta = e[..., 4:14] - 2.0 * means[..., _PAIRS[0]] * means[..., _PAIRS[1]]
    return np.concatenate((2.0 * means[..., :3], means[..., 3:], delta),
                          axis=-1)


@dataclass(frozen=True)
class BlochMoments:
    """First moments s_j = 2<L_j>, n = <n> and the symmetric covariance
    block delta[j, k] = <A_j A_k + A_k A_j> - 2 <A_j><A_k>, indices ordered
    (x, y, z, n)."""

    s_x: float
    s_y: float
    s_z: float
    n: float
    delta: np.ndarray

    @property
    def s(self) -> np.ndarray:
        return np.array([self.s_x, self.s_y, self.s_z])

    @property
    def purity(self) -> float:
        """(s_x^2 + s_y^2 + s_z^2) / n^2; equals 1 for a pure condensate."""
        if self.n <= MIN_PARTICLE_NUMBER:
            raise DegenerateStateError(
                "purity undefined for zero particle number")
        return _purity(self.s_x, self.s_y, self.s_z, self.n)

    @property
    def vector(self) -> np.ndarray:
        """Flat 14-component layout (COMPONENT_NAMES: s_x, s_y, s_z, n,
        upper triangle of delta row-wise) shared with the moment-closure
        kernels."""
        return np.concatenate(([self.s_x, self.s_y, self.s_z, self.n],
                               self.delta[_PAIRS]))

    @classmethod
    def from_vector(cls, y) -> BlochMoments:
        """The moments whose `vector` is y (any sequence of 14 floats)."""
        d = np.empty((4, 4))
        d[_PAIRS] = d[_PAIRS[::-1]] = y[4:14]
        return cls(s_x=float(y[0]), s_y=float(y[1]), s_z=float(y[2]),
                   n=float(y[3]), delta=d)


@dataclass
class MomentTrajectory:
    """Moment vectors sampled at the times ts: row i of ys is the
    `BlochMoments.vector` at ts[i]."""

    ts: np.ndarray
    ys: np.ndarray      # (len(ts), 14)

    @property
    def s_x(self) -> np.ndarray:
        return self.ys[:, 0]

    @property
    def s_y(self) -> np.ndarray:
        return self.ys[:, 1]

    @property
    def s_z(self) -> np.ndarray:
        return self.ys[:, 2]

    @property
    def n(self) -> np.ndarray:
        return self.ys[:, 3]

    @property
    def delta_nn(self) -> np.ndarray:
        return self.ys[:, 13]

    @property
    def purity(self) -> np.ndarray:
        """`BlochMoments.purity` of every sample, NaN where it is
        undefined."""
        return np.array([
            _purity(y[0], y[1], y[2], y[3])
            if y[3] > MIN_PARTICLE_NUMBER else np.nan for y in self.ys])

    @property
    def reduced_bloch(self) -> np.ndarray:
        """(s_x, s_y, s_z) / n of every sample."""
        return self.ys[:, :3] / self.ys[:, 3:4]


def expectation(op: sp.csr_array, rho: np.ndarray) -> complex:
    """Tr(op @ rho) without forming the dense product."""
    return (op.multiply(rho.T)).sum()


def bloch_moments(rho: np.ndarray, basis: TwoModeBasis) -> BlochMoments:
    ops = bloch_operators(basis) + _bloch_pair_products(basis)
    e = np.array([expectation(op, rho).real for op in ops])
    return BlochMoments.from_vector(_moment_vectors(e))


def site_distribution(rho: np.ndarray, basis: TwoModeBasis, site: int) -> np.ndarray:
    """p(j) = probability of j particles at the given site."""
    if site not in (1, 2):
        raise ValueError("site must be 1 or 2")
    diag = np.diagonal(rho).real
    occ = basis.n1_of if site == 1 else basis.n2_of
    p = np.bincount(occ, weights=diag, minlength=basis.cutoff + 1)
    return np.where((p < 0) & (p > -_DIAG_CLIP), 0.0, p)


def total_number_distribution(rho: np.ndarray, basis: TwoModeBasis) -> np.ndarray:
    """q(j) = probability of j particles in total, j = 0 .. 2*cutoff."""
    diag = np.diagonal(rho).real
    q = np.bincount(basis.total_of, weights=diag, minlength=2 * basis.cutoff + 1)
    return np.where((q < 0) & (q > -_DIAG_CLIP), 0.0, q)


def truncation_mass(rho: np.ndarray, basis: TwoModeBasis) -> float:
    """Probability on the boundary shell n1 = cutoff or n2 = cutoff."""
    return float(np.sum(np.diagonal(rho).real[basis.boundary]))

