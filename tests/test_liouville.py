import tracemalloc

import numpy as np
import pytest

from gldimer import closedform, fock, liouville
from gldimer.errors import TruncationOverflowError
from gldimer.io import write_csv
from gldimer.system import SystemParams

from conftest import random_density


@pytest.fixture(scope="module")
def small_setup():
    basis = fock.build_basis(6)
    params = SystemParams(J=1.0, U=0.3, gamma=0.5, n0=3)
    return basis, params


def test_generator_traceless(small_setup):
    basis, params = small_setup
    lv = liouville.build_liouvillian(params, basis)
    rng = np.random.default_rng(0)
    for _ in range(20):
        x = rng.normal(size=(basis.dim, basis.dim)) \
            + 1j * rng.normal(size=(basis.dim, basis.dim))
        out = (lv @ x.ravel(order="F")).reshape((basis.dim,) * 2, order="F")
        assert abs(np.trace(out)) < 1e-12 * basis.dim


def test_closed_system_eigenprojector_stationary():
    basis = fock.build_basis(5)
    params = SystemParams(J=1.0, U=0.4, gamma=0.0, n0=2)
    h = fock.hamiltonian(basis, params.J, params.U).toarray()
    evals, evecs = np.linalg.eigh(h)
    proj = np.outer(evecs[:, 3], evecs[:, 3].conj())
    out = liouville.apply_liouvillian(proj, params, basis)
    assert np.max(np.abs(out)) < 1e-12


def test_gain_feeds_vacuum():
    # loss annihilates the vacuum; gain feeds one particle into site 2
    basis = fock.build_basis(4)
    params = SystemParams(J=1.0, U=0.0, gamma=0.7, n0=3)
    rho = fock.fock_density(basis, 0, 0)
    out = liouville.apply_liouvillian(rho, params, basis)
    i01 = basis.index(0, 1)
    assert out[i01, i01] == pytest.approx(params.gamma_gain)
    i00 = basis.index(0, 0)
    assert out[i00, i00] == pytest.approx(-params.gamma_gain)


def test_particle_number_derivative_identity(small_setup):
    # d<n>/dt = -gm n + gp s_z + gamma_gain holds exactly away from the edge
    basis, params = small_setup
    rng = np.random.default_rng(1)
    for _ in range(5):
        rho = random_density(basis, rng)
        out = liouville.apply_liouvillian(rho, params, basis)
        dn = fock.expectation(fock.total_number(basis), out).real
        m = fock.bloch_moments(rho, basis)
        expected = (-params.gamma_minus * m.n + params.gamma_plus * m.s_z
                    + params.gamma_gain)
        assert dn == pytest.approx(expected, abs=1e-10)


def test_superoperator_matches_matrix_form(small_setup):
    basis, params = small_setup
    rng = np.random.default_rng(2)
    rho = random_density(basis, rng)
    lv = liouville.build_liouvillian(params, basis)
    r1 = (lv @ rho.ravel(order="F")).reshape((basis.dim,) * 2, order="F")
    r2 = liouville.apply_liouvillian(rho, params, basis)
    assert np.max(np.abs(r1 - r2)) < 1e-13


def test_number_block_generator_matches_full(small_setup):
    basis, params = small_setup
    rng = np.random.default_rng(3)
    rho = random_density(basis, rng)
    space = liouville.number_block_space(basis)
    # project onto the number-conserving sector and compare both routes
    rho0 = liouville.unpack_block(liouville.pack_block(rho, space), space)
    gen = liouville.build_number_block_generator(params, basis)
    blk = gen @ liouville.pack_block(rho0, space)
    full = liouville.pack_block(
        liouville.apply_liouvillian(rho0, params, basis), space)
    assert np.max(np.abs(blk - full)) < 1e-13


@pytest.mark.parametrize("cutoff", range(1, 7))
@pytest.mark.parametrize("J, U, gamma, n0", [
    (1.0, 0.0, 0.5, 1),      # U = 0
    (1.0, 5.0, 0.7, 2),      # g = 5
    (0.7, 0.3, 0.0, 5),      # both rates zero
    (1.0, 0.4, 1.3, 5),
])
def test_number_block_generator_matches_kron_restriction(cutoff, J, U, gamma,
                                                         n0):
    # the real sector generator against the kron superoperator on vec(rho):
    # column p is the coordinates of L applied to the state of e_p
    basis = fock.build_basis(cutoff)
    params = SystemParams(J=J, U=U, gamma=gamma, n0=n0)
    space = liouville.number_block_space(basis)
    lv = liouville.build_liouvillian(params, basis)
    ref = np.empty((space.size, space.size))
    for p in range(space.size):
        e = np.zeros(space.size)
        e[p] = 1.0
        out = lv @ liouville.unpack_block(e, space).ravel(order="F")
        ref[:, p] = liouville.pack_block(
            out.reshape((basis.dim,) * 2, order="F"), space)
    gen = liouville.build_number_block_generator(params, basis)
    assert gen.format == "csr" and gen.dtype == float
    assert gen.shape == ref.shape
    assert np.max(np.abs(gen.toarray() - ref)) <= 1e-13 * np.max(np.abs(ref))
    assert np.all(gen.data != 0)


def test_full_real_generator_matches_kron(small_setup):
    # the real generator on the coordinates of the whole matrix against the
    # kron superoperator on vec(rho), for a state with off-grade coherences
    basis, params = small_setup
    rho = random_density(basis, np.random.default_rng(7))
    total = basis.total_of
    assert np.max(np.abs(rho[total[:, None] != total])) > 1e-2
    index = liouville._full_index(basis)
    coords = liouville.pack_block(rho, index)
    lv = liouville.build_liouvillian(params, basis)
    ref = liouville.pack_block(
        (lv @ rho.ravel(order="F")).reshape((basis.dim,) * 2, order="F"),
        index)
    gen = liouville._real_generator(lv, index)
    assert gen.dtype == float
    assert np.max(np.abs(gen @ coords - ref)) < 1e-13


def test_hermitian_coordinates_round_trip(small_setup):
    basis, _ = small_setup
    space = liouville.number_block_space(basis)
    rng = np.random.default_rng(6)
    x = rng.normal(size=(basis.dim, basis.dim)) \
        + 1j * rng.normal(size=(basis.dim, basis.dim))
    total = basis.total_of
    rho = np.where(total[:, None] == total, x + x.conj().T, 0.0)
    coords = liouville.pack_block(rho, space)
    assert coords.dtype == float and coords.shape == (space.size,)
    assert np.array_equal(liouville.unpack_block(coords, space), rho)
    # any real coordinates unpack to an exactly Hermitian matrix
    r = liouville.unpack_block(rng.normal(size=space.size), space)
    assert np.array_equal(r, r.conj().T)


def test_rabi_oscillation():
    basis = fock.build_basis(4)
    params = SystemParams(J=1.0, U=0.0, gamma=0.0, n0=1)
    cfg = liouville.PropagationConfig(rtol=1e-10, atol=1e-12,
                                      sample_interval=0.25)
    traj = liouville.propagate(fock.fock_density(basis, 1, 0), 10.0, params,
                               basis, cfg)
    assert traj.s_z == pytest.approx(-np.cos(2 * traj.ts), abs=1e-8)
    # period pi/J: s_z returns to -1 at t = pi
    sol_at_pi = liouville.moment_trajectory(
        fock.fock_density(basis, 1, 0), np.pi, params, basis, cfg)
    assert sol_at_pi.s_z[-1] == pytest.approx(-1.0, abs=1e-8)


def test_u0_propagation_matches_closed_form():
    # the monitored boundary-mass ceiling keeps the truncation bias of the
    # moments below ~100x the ceiling here; the acceptance suite runs the
    # tight-tolerance version of this comparison on a much larger basis
    basis = fock.build_basis(20)
    params = SystemParams(J=1.0, U=0.0, gamma=0.5, n0=2)
    rho0 = fock.density_from_state(fock.coherent_state(basis, 1.1, 0.7, 2))
    cfg = liouville.PropagationConfig(rtol=1e-10, atol=1e-12,
                                      sample_interval=0.2,
                                      truncation_ceiling=1e-6)
    traj = liouville.propagate(rho0, 3.0, params, basis, cfg)
    init = (traj.s_x[0], traj.s_y[0], traj.s_z[0], traj.n[0])
    pred = closedform.oscillatory_solution(init, params).moments(traj.ts)
    for got, want in zip((traj.s_x, traj.s_y, traj.s_z, traj.n), pred):
        assert got == pytest.approx(want, abs=3e-5)


def test_trace_and_hermiticity_preserved(small_setup):
    basis, params = small_setup
    rng = np.random.default_rng(4)
    rho0 = random_density(basis, rng)
    cfg = liouville.PropagationConfig(rtol=1e-9, atol=1e-11,
                                      sample_interval=0.5,
                                      truncation_ceiling=1e-1)
    traj = liouville.propagate(rho0, 5.0, params, basis, cfg)
    assert abs(np.trace(traj.rho_final).real - 1) < 1e-8
    assert np.array_equal(traj.rho_final, traj.rho_final.conj().T)


def test_positivity_spot_check():
    basis = fock.build_basis(10)
    params = SystemParams(J=1.0, U=0.2, gamma=0.8, n0=3)
    rho0 = fock.density_from_state(fock.coherent_state(basis, 0.9, 0.2, 3))
    cfg = liouville.PropagationConfig(rtol=1e-9, atol=1e-11,
                                      sample_interval=1.0,
                                      truncation_ceiling=5e-2)
    traj = liouville.propagate(rho0, 6.0, params, basis, cfg)
    assert np.linalg.eigvalsh(traj.rho_final).min() > -1e-7


def test_moment_derivative_consistency_along_trajectory():
    # dn/dt from finite differences of the trajectory matches the exact
    # rate equation pointwise
    basis = fock.build_basis(14)
    params = SystemParams(J=1.0, U=0.25, gamma=0.6, n0=4)
    rho0 = fock.density_from_state(fock.coherent_state(basis, 1.0, 0.4, 4))
    dt = 0.001
    cfg = liouville.PropagationConfig(rtol=1e-12, atol=1e-14,
                                      sample_interval=dt,
                                      truncation_ceiling=1e-3)
    traj = liouville.moment_trajectory(rho0, 0.1, params, basis, cfg)
    dn_fd = np.gradient(traj.n, traj.ts)
    expected = (-params.gamma_minus * traj.n + params.gamma_plus * traj.s_z
                + params.gamma_gain)
    # central differences are second order in the sampling interval
    assert dn_fd[1:-1] == pytest.approx(expected[1:-1], abs=1e-6)


def test_block_route_matches_full_route(small_setup):
    basis, params = small_setup
    rho0 = fock.density_from_state(fock.coherent_state(basis, 1.3, 0.2, 3))
    cfg = liouville.PropagationConfig(rtol=1e-10, atol=1e-12,
                                      sample_interval=0.5,
                                      truncation_ceiling=5e-2)
    full = liouville.propagate(rho0, 4.0, params, basis, cfg)
    blk = liouville.moment_trajectory(rho0, 4.0, params, basis, cfg)
    # the real coordinates are Hermitian by construction
    for traj in (full, blk):
        assert np.array_equal(traj.rho_final, traj.rho_final.conj().T)
    for a, b in ((full.s_x, blk.s_x), (full.s_y, blk.s_y),
                 (full.s_z, blk.s_z), (full.n, blk.n),
                 (full.delta_nn, blk.delta_nn)):
        assert a == pytest.approx(b, abs=1e-8)


def test_first_sample_matches_dense_readers():
    # sample 0 is the one product W @ x of the start state's coordinates; a
    # start with off-grade coherences and boundary mass checks W's rows and
    # propagate's map of W's columns into the coordinates of the whole matrix
    basis = fock.build_basis(5)
    params = SystemParams(J=1.0, U=0.3, gamma=0.5, n0=2)
    rho0 = random_density(basis, np.random.default_rng(8),
                          max_total=2 * basis.cutoff)
    total = basis.total_of
    assert np.max(np.abs(rho0[total[:, None] != total])) > 1e-2
    want = fock.bloch_moments(rho0, basis).vector
    mass = fock.truncation_mass(rho0, basis)
    assert mass > 1e-2
    tol = 1e-13 * np.max(np.abs(want))
    cfg = liouville.PropagationConfig(sample_interval=0.05,
                                      truncation_ceiling=1.0)
    for run in (liouville.propagate, liouville.moment_trajectory):
        traj = run(rho0, 0.1, params, basis, cfg)
        assert np.max(np.abs(traj.ys[0] - want)) <= tol
        assert abs(traj.truncation_mass[0] - mass) <= 1e-13 * mass
    space = liouville.number_block_space(basis)
    got = liouville.block_moments(liouville.pack_block(rho0, space), basis)
    assert np.max(np.abs(got.vector - want)) <= tol


def test_propagation_keeps_no_sampled_state():
    # 2,001 samples of a 625-coordinate state: the samples alone would be
    # 10 MB; recording their moments takes 2001 x 15 floats (0.24 MB)
    basis = fock.build_basis(4)
    params = SystemParams(J=1.0, U=0.3, gamma=0.5, n0=2)
    rho0 = fock.density_from_state(fock.coherent_state(basis, 1.0, 0.3, 2))
    cfg = liouville.PropagationConfig(sample_interval=1e-3,
                                      truncation_ceiling=1.0)
    liouville.propagate(rho0, 1e-3, params, basis, cfg)  # fills the caches
    tracemalloc.start()
    try:
        traj = liouville.propagate(rho0, 2.0, params, basis, cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    state_bytes = 8 * basis.dim**2
    assert len(traj.ts) == 2001
    # a quarter of a state per sample (2.5 MB); this run peaks at 0.48 MB,
    # one that keeps every sampled state at 20.6 MB (4.1 states per sample)
    assert peak < 0.25 * len(traj.ts) * state_bytes


def test_long_time_convergence_to_steady_state(fig3_params, basis24,
                                               fig3_steady):
    # the moment trajectory settles onto the solver fixed point
    rho0 = fock.density_from_state(
        fock.coherent_state(basis24, np.pi / 2, 0.0, 5))
    cfg = liouville.PropagationConfig(rtol=1e-10, atol=1e-13,
                                      sample_interval=25.0,
                                      truncation_ceiling=5e-3)
    traj = liouville.moment_trajectory(rho0, 250.0, fig3_params, basis24, cfg)
    m = fig3_steady.moments
    assert traj.s_x[-1] == pytest.approx(m.s_x, abs=1e-6)
    assert traj.s_y[-1] == pytest.approx(m.s_y, abs=1e-6)
    assert traj.s_z[-1] == pytest.approx(m.s_z, abs=1e-6)
    assert traj.n[-1] == pytest.approx(m.n, abs=1e-5)


def test_truncation_ceiling_aborts():
    basis = fock.build_basis(6)
    params = SystemParams(J=1.0, U=0.0, gamma=2.0, n0=4)
    rho0 = fock.density_from_state(fock.coherent_state(basis, np.pi / 2, 0, 4))
    cfg = liouville.PropagationConfig(truncation_ceiling=1e-8)
    with pytest.raises(TruncationOverflowError):
        liouville.propagate(rho0, 50.0, params, basis, cfg)


def test_propagation_config_validation():
    with pytest.raises(ValueError):
        liouville.PropagationConfig(rtol=-1.0)



def test_trajectory_csv_schema(tmp_path, small_setup):
    basis, params = small_setup
    rho0 = fock.density_from_state(fock.coherent_state(basis, 1.0, 0.0, 3))
    cfg = liouville.PropagationConfig(sample_interval=0.5,
                                      truncation_ceiling=5e-2)
    traj = liouville.propagate(rho0, 2.0, params, basis, cfg)
    path = tmp_path / "traj.csv"
    write_csv(path, liouville.TRAJECTORY_COLUMNS, traj.rows())
    lines = path.read_text().splitlines()
    assert lines[0] == "t,s_x,s_y,s_z,n,P,Delta_nn,truncation_mass"
    assert all(len(line.split(",")) == 8 for line in lines[1:])
