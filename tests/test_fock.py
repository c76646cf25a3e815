import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gldimer import fock
from gldimer.errors import DegenerateStateError

from conftest import random_density


def test_basis_dimensions():
    assert fock.build_basis(24).dim == 625
    assert fock.build_basis(1).dim == 4
    b = fock.build_basis(5)
    assert b.dim == 36
    assert b.index(3, 2) == 3 * 6 + 2 == 20


def test_basis_rejects_zero_cutoff():
    with pytest.raises(ValueError):
        fock.build_basis(0)


@given(st.integers(1, 12), st.data())
@settings(max_examples=50, deadline=None)
def test_index_roundtrip(cutoff, data):
    b = fock.build_basis(cutoff)
    n1 = data.draw(st.integers(0, cutoff))
    n2 = data.draw(st.integers(0, cutoff))
    assert b.occupations(b.index(n1, n2)) == (n1, n2)


def test_annihilation_elements():
    b = fock.build_basis(4)
    a1 = fock.annihilation(b, 1)
    assert a1[b.index(0, 0), b.index(1, 0)] == pytest.approx(1.0)
    a1d = fock.creation(b, 1)
    assert a1d[b.index(2, 0), b.index(1, 0)] == pytest.approx(np.sqrt(2))
    with pytest.raises(ValueError):
        fock.annihilation(b, 3)


def test_commutator_below_cutoff():
    # [a, a+] = 1 wherever the creation does not hit the truncation edge
    b = fock.build_basis(5)
    a1 = fock.annihilation(b, 1).toarray()
    comm = a1 @ a1.conj().T - a1.conj().T @ a1
    interior = np.flatnonzero(b.n1_of < b.cutoff)
    assert np.allclose(comm[np.ix_(interior, interior)],
                       np.eye(b.dim)[np.ix_(interior, interior)], atol=1e-14)


def test_sparse_operator_columns():
    # applying to a unit basis vector reproduces the stored column
    b = fock.build_basis(5)
    for op in (fock.annihilation(b, 2), fock.hamiltonian(b, 1.0, 0.5)):
        dense = op.toarray()
        for j in (0, 7, 20, b.dim - 1):
            e = np.zeros(b.dim)
            e[j] = 1.0
            assert np.array_equal(op @ e, dense[:, j])


def test_hamiltonian_elements():
    b = fock.build_basis(4)
    h = fock.hamiltonian(b, J=1.3, U=0.9)
    assert h[b.index(0, 1), b.index(1, 0)] == pytest.approx(-1.3)
    assert h[b.index(2, 0), b.index(2, 0)] == pytest.approx(0.9)
    # commutes with the total number operator
    n = fock.total_number(b).toarray()
    hd = h.toarray()
    assert np.max(np.abs(hd @ n - n @ hd)) < 1e-13


def test_hamiltonian_hermitian():
    b = fock.build_basis(6)
    h = fock.hamiltonian(b, 1.0, 0.37).toarray()
    assert np.max(np.abs(h - h.conj().T)) == 0.0


def test_bloch_moments_fock_states():
    b = fock.build_basis(4)
    m = fock.bloch_moments(fock.fock_density(b, 1, 0), b)
    assert (m.s_x, m.s_y, m.s_z, m.n) == pytest.approx((0, 0, -1, 1), abs=1e-14)
    plus = np.zeros(b.dim, dtype=complex)
    plus[b.index(1, 0)] = plus[b.index(0, 1)] = 1 / np.sqrt(2)
    m2 = fock.bloch_moments(fock.density_from_state(plus), b)
    assert (m2.s_x, m2.s_y, m2.s_z, m2.n) == pytest.approx((1, 0, 0, 1), abs=1e-14)


def test_coherent_state_moments():
    # product state along x: transverse quadratic spreads of n/2 each
    b = fock.build_basis(8)
    rho = fock.density_from_state(fock.coherent_state(b, np.pi / 2, 0.0, 5))
    m = fock.bloch_moments(rho, b)
    assert (m.s_x, m.s_y, m.s_z, m.n) == pytest.approx((5, 0, 0, 5), abs=1e-12)
    assert np.diag(m.delta) == pytest.approx([0, 2.5, 2.5, 0], abs=1e-12)
    assert fock.purity(m) == pytest.approx(1.0, abs=1e-12)


def test_coherent_state_general_angles():
    b = fock.build_basis(9)
    theta, phi, n = 1.1, 2.4, 6
    rho = fock.density_from_state(fock.coherent_state(b, theta, phi, n))
    m = fock.bloch_moments(rho, b)
    u = np.array([np.sin(theta) * np.cos(phi), np.sin(theta) * np.sin(phi),
                  np.cos(theta)])
    assert m.s == pytest.approx(n * u, abs=1e-12)
    # covariance block transverse to u, magnitude n/2
    expected = 0.5 * n * (np.eye(3) - np.outer(u, u))
    assert m.delta[:3, :3] == pytest.approx(expected, abs=1e-10)
    assert abs(m.delta[3, 3]) < 1e-10


def test_purity_degenerate():
    b = fock.build_basis(2)
    m = fock.bloch_moments(fock.fock_density(b, 0, 0), b)
    with pytest.raises(DegenerateStateError):
        fock.purity(m)


def test_purity_zero_for_balanced_mixture():
    b = fock.build_basis(3)
    rho = 0.5 * (fock.fock_density(b, 1, 0) + fock.fock_density(b, 0, 1))
    m = fock.bloch_moments(rho, b)
    assert fock.purity(m) == pytest.approx(0.0, abs=1e-14)


def test_site_distribution_examples():
    b = fock.build_basis(5)
    p = fock.site_distribution(fock.fock_density(b, 2, 3), b, 1)
    assert p[2] == pytest.approx(1.0)
    assert np.sum(p) == pytest.approx(1.0, abs=1e-12)
    rho = 0.5 * (fock.fock_density(b, 1, 0) + fock.fock_density(b, 0, 1))
    p1 = fock.site_distribution(rho, b, 1)
    assert p1[0] == pytest.approx(0.5) and p1[1] == pytest.approx(0.5)


def test_total_number_distribution_examples():
    b = fock.build_basis(5)
    q = fock.total_number_distribution(fock.fock_density(b, 2, 3), b)
    assert q[5] == pytest.approx(1.0)
    rho = 0.5 * (fock.fock_density(b, 1, 0) + fock.fock_density(b, 0, 1))
    q2 = fock.total_number_distribution(rho, b)
    assert q2[1] == pytest.approx(1.0)


def test_total_number_distribution_product_geometric():
    # separable product of two geometric modes: q(j) = (1-xi)^2 xi^j (j+1)
    xi = 5 / 7
    b = fock.build_basis(30)
    occ = np.arange(b.cutoff + 1)
    p = (1 - xi) * xi**occ
    rho = np.diag(np.outer(p, p).ravel()).astype(complex)
    rho /= np.trace(rho).real
    q = fock.total_number_distribution(rho, b)
    j = np.arange(15)
    expected = (1 - xi) ** 2 * xi**j * (j + 1)
    assert q[:15] == pytest.approx(expected, abs=2e-5)


def test_single_particle_dm_pure_and_mixed():
    b = fock.build_basis(8)
    rho = fock.density_from_state(fock.coherent_state(b, np.pi / 2, 0.0, 6))
    spdm = fock.single_particle_dm(rho, b)
    assert spdm.eigenvalues / 6 == pytest.approx([1.0, 0.0], abs=1e-12)
    mixed = 0.5 * (fock.fock_density(b, 1, 0) + fock.fock_density(b, 0, 1))
    spdm2 = fock.single_particle_dm(mixed, b)
    assert spdm2.eigenvalues == pytest.approx([0.5, 0.5], abs=1e-12)


@given(st.integers(0, 10**6))
@settings(max_examples=25, deadline=None)
def test_spdm_eigen_purity_identity(seed):
    # eigenvalues of sigma / <n> are (1 +- sqrt(P)) / 2 for any state
    rng = np.random.default_rng(seed)
    b = fock.build_basis(6)
    rho = random_density(b, rng)
    m = fock.bloch_moments(rho, b)
    p = fock.purity(m)
    assert p <= 1 + 1e-8
    spdm = fock.single_particle_dm(rho, b)
    lam = spdm.eigenvalues / m.n
    assert lam == pytest.approx([(1 + np.sqrt(p)) / 2, (1 - np.sqrt(p)) / 2],
                                abs=1e-10)


def test_truncation_mass():
    b = fock.build_basis(6)
    assert fock.truncation_mass(fock.fock_density(b, 2, 2), b) == 0.0
    assert fock.truncation_mass(fock.fock_density(b, 6, 0), b) == pytest.approx(1.0)


def test_angular_momentum_casimir_identity():
    # L^2 = (n/2)(n/2 + 1) on every complete total-number sector
    b = fock.build_basis(6)
    lx, ly, lz, nop = (op.toarray() for op in fock.bloch_operators(b))
    l2 = lx @ lx + ly @ ly + lz @ lz
    expected = (nop / 2) @ (nop / 2 + np.eye(b.dim))
    sel = np.flatnonzero(b.total_of <= b.cutoff)
    assert np.max(np.abs((l2 - expected)[np.ix_(sel, sel)])) < 1e-12


def test_density_validation():
    b = fock.build_basis(3)
    rho = fock.fock_density(b, 1, 1)
    fock.check_density_matrix(rho)
    with pytest.raises(ValueError):
        fock.check_density_matrix(2 * rho)
    bad = rho.astype(complex).copy()
    bad[0, 1] = 0.5
    with pytest.raises(ValueError):
        fock.check_density_matrix(bad)


def test_coherent_state_cutoff_guard():
    b = fock.build_basis(4)
    with pytest.raises(ValueError):
        fock.coherent_state(b, 0.3, 0.0, 5)
