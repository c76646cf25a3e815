"""Truncated two-mode Fock space, second-quantized operators and observables.

Basis states |n1, n2> with 0 <= n1, n2 <= cutoff are enumerated row-major,
flat index i = n1*(cutoff+1) + n2.  Creation past the cutoff maps to zero;
the resulting truncation error is monitored through `truncation_mass`
rather than being silently ignored.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache
from math import lgamma

import numpy as np
import scipy.sparse as sp

from .errors import DegenerateStateError

# Negative diagonal entries above this floor are treated as roundoff and
# clipped to zero in reported probability distributions only.
_DIAG_CLIP = 1e-8


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

    def occupations(self, i: int) -> tuple[int, int]:
        if not (0 <= i < self.dim):
            raise ValueError(f"index {i} outside basis")
        return divmod(i, self.cutoff + 1)

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
    """Symmetrized products {A_j, A_k} for the ten covariance entries."""
    ops = bloch_operators(basis)
    pairs = {}
    for j in range(4):
        for k in range(j, 4):
            prod = ops[j] @ ops[k]
            pairs[(j, k)] = sp.csr_array(prod + prod.conj().T)
    return pairs


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
    return np.outer(vec, vec.conj()) / norm2


def fock_density(basis: TwoModeBasis, n1: int, n2: int) -> np.ndarray:
    rho = np.zeros((basis.dim, basis.dim), dtype=complex)
    i = basis.index(n1, n2)
    rho[i, i] = 1.0
    return rho


def check_density_matrix(rho: np.ndarray, *, trace_tol: float = 1e-8,
                         herm_tol: float = 1e-10, diag_floor: float = -1e-8):
    """Raise ValueError if rho is not a valid (truncated) density matrix."""
    if abs(np.trace(rho).real - 1.0) > trace_tol or abs(np.trace(rho).imag) > trace_tol:
        raise ValueError(f"trace {np.trace(rho)} deviates from 1")
    if np.max(np.abs(rho - rho.conj().T)) > herm_tol:
        raise ValueError("density matrix is not Hermitian")
    if np.min(np.diagonal(rho).real) < diag_floor:
        raise ValueError("density matrix has a significantly negative diagonal")


# ---------------------------------------------------------------------------
# observables


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
    def vector(self) -> np.ndarray:
        """Flat 14-component layout (s_x, s_y, s_z, n, upper triangle of
        delta row-wise) shared with the moment-closure kernels."""
        d = self.delta
        return np.array([
            self.s_x, self.s_y, self.s_z, self.n,
            d[0, 0], d[0, 1], d[0, 2], d[0, 3],
            d[1, 1], d[1, 2], d[1, 3],
            d[2, 2], d[2, 3], d[3, 3],
        ])


def expectation(op: sp.csr_array, rho: np.ndarray) -> complex:
    """Tr(op @ rho) without forming the dense product."""
    return (op.multiply(rho.T)).sum()


def bloch_moments(rho: np.ndarray, basis: TwoModeBasis) -> BlochMoments:
    ops = bloch_operators(basis)
    means = np.array([expectation(op, rho).real for op in ops])
    pairs = _bloch_pair_products(basis)
    delta = np.empty((4, 4))
    for j in range(4):
        for k in range(j, 4):
            val = expectation(pairs[(j, k)], rho).real - 2.0 * means[j] * means[k]
            delta[j, k] = val
            delta[k, j] = val
    return BlochMoments(
        s_x=2.0 * means[0], s_y=2.0 * means[1], s_z=2.0 * means[2],
        n=means[3], delta=delta,
    )


def purity(m: BlochMoments) -> float:
    """(s_x^2 + s_y^2 + s_z^2) / n^2; equals 1 for a pure condensate."""
    if m.n <= 1e-12:
        raise DegenerateStateError("purity undefined for zero particle number")
    return (m.s_x**2 + m.s_y**2 + m.s_z**2) / m.n**2


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


@dataclass(frozen=True)
class SingleParticleDM:
    """Reduced one-body matrix sigma[j, k] = <a_k^dagger a_j> with its
    eigendecomposition (eigenvalues sorted descending)."""

    sigma: np.ndarray
    eigenvalues: np.ndarray
    eigenvectors: np.ndarray  # columns, matching eigenvalues


def single_particle_dm(rho: np.ndarray, basis: TwoModeBasis) -> SingleParticleDM:
    m = bloch_moments(rho, basis)
    if m.n <= 1e-12:
        raise DegenerateStateError("one-body matrix undefined at zero particle number")
    sigma = 0.5 * np.array(
        [[m.n - m.s_z, m.s_x + 1j * m.s_y],
         [m.s_x - 1j * m.s_y, m.n + m.s_z]]
    )
    evals, evecs = np.linalg.eigh(sigma)
    order = np.argsort(evals)[::-1]
    return SingleParticleDM(sigma=sigma, eigenvalues=evals[order],
                            eigenvectors=evecs[:, order])
