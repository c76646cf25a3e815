import numpy as np
import pytest

from gldimer import bbr, closedform as cf, meanfield as mf
from gldimer.errors import RegimeError
from gldimer.io import write_csv
from gldimer.system import SystemParams


def test_linear_rabi():
    traj = mf.integrate_gpe(np.array([1.0 + 0j, 0j]), 6.0, 1.0, 0.0, 0.0)
    assert np.abs(traj.c[:, 0]) ** 2 == pytest.approx(np.cos(traj.ts) ** 2,
                                                      abs=1e-10)


def test_norm_derivative_identity():
    rng = np.random.default_rng(8)
    for _ in range(10):
        c = rng.normal(size=2) + 1j * rng.normal(size=2)
        d = mf.gpe_rhs(c, 1.2, 0.6, 0.9)
        dn = 2 * np.real(np.conj(c) @ d)
        eps = 1e-7
        res = mf.integrate_gpe(c, eps, 1.2, 0.6, 0.9, rtol=1e-12, atol=1e-14,
                               sample_interval=eps)
        dn_fd = (res.n_mf[-1] - mf.norm_squared(c)) / eps
        assert dn == pytest.approx(0.9 * (abs(c[1]) ** 2 - abs(c[0]) ** 2),
                                   abs=1e-12)
        assert dn_fd == pytest.approx(dn, abs=1e-5)


def test_stationary_states_values():
    ground, excited = mf.pt_stationary_states(1.0, 1.5)
    assert ground.phi == pytest.approx(0.848062, abs=1e-6)
    assert excited.phi == pytest.approx(2.293530, abs=1e-6)
    assert ground.theta == excited.theta == np.pi / 2
    g0, e0 = mf.pt_stationary_states(1.0, 0.0)
    assert g0.phi == pytest.approx(0.0)
    assert e0.phi == pytest.approx(np.pi)
    gc, ec = mf.pt_stationary_states(1.0, 2.0)
    assert gc.phi == pytest.approx(np.pi / 2)
    assert ec.phi == pytest.approx(np.pi / 2)


def test_broken_regime_error():
    with pytest.raises(RegimeError):
        mf.pt_stationary_states(1.0, 2.1)


def test_stationary_angle_velocities_vanish():
    for gamma in (0.5, 1.0, 1.5):
        for g in (0.0, 0.5):
            ground, excited = mf.pt_stationary_states(1.0, gamma)
            for state in (ground, excited):
                psi = mf.state_from_angles(state.phi, state.theta)
                dphi, dtheta = mf.angle_velocities(psi, 1.0, g, gamma)
                assert abs(dphi) < 1e-10
                assert abs(dtheta) < 1e-10
                # stationarity is phase- and scale-invariant
                psi2 = psi * 1.7 * np.exp(0.3j)
                dphi2, _ = mf.angle_velocities(psi2, 1.0, g / 1.7**2, gamma)
                assert abs(dphi2) < 1e-10


def test_stationary_trajectory_constant_angles():
    ground, _ = mf.pt_stationary_states(1.0, 1.5)
    psi0 = mf.state_from_angles(ground.phi, ground.theta)
    traj = mf.integrate_gpe(psi0, 15.0, 1.0, 0.5, 1.5)
    assert np.max(np.abs(traj.phi - ground.phi)) < 1e-8
    assert np.max(np.abs(traj.theta - ground.theta)) < 1e-8
    assert np.max(np.abs(traj.n_mf - 1.0)) < 1e-8


def test_reduced_bloch_norm_is_one():
    # mean-field states are pure: the reduced vector stays on the sphere,
    # here while the norm of an unnormalized state grows about eightfold
    rng = np.random.default_rng(3)
    c0 = rng.normal(size=2) + 1j * rng.normal(size=2)
    traj = mf.integrate_gpe(c0, 2.0, 1.0, 0.7, 1.2)
    assert traj.n_mf[-1] > 5 * traj.n_mf[0]
    norms = np.linalg.norm(traj.bloch, axis=1)
    assert norms == pytest.approx(np.ones_like(norms), abs=1e-12)


def test_near_ground_state_stays_close():
    # a state started next to the stationary point loops around it at a
    # small distance
    ground, _ = mf.pt_stationary_states(1.0, 1.5)
    psi0 = mf.state_from_angles(ground.phi + 0.02, ground.theta + 0.02)
    traj = mf.integrate_gpe(psi0, 40.0, 1.0, 0.0, 1.5)
    ref = mf.bloch_embedding(mf.state_from_angles(ground.phi, ground.theta))
    dist = np.linalg.norm(traj.bloch - ref, axis=1)
    assert dist.max() < 0.1
    assert dist.min() > 1e-4  # it encircles, never collapses onto the point


def test_ground_state_sits_next_to_nonoscillatory_state():
    # the mean-field fixed point lies a small distance (order 1/n0) from
    # the reduced non-oscillating many-particle state it shadows
    p = SystemParams(J=1.0, U=0.0, gamma=1.5, n0=100)
    pair = cf.nonoscillatory_states(p)
    st = bbr.pure_state_moments(pair.theta, pair.phi_ground, 100)
    ground, _ = mf.pt_stationary_states(1.0, 1.5)
    u = mf.bloch_embedding(mf.state_from_angles(ground.phi, ground.theta))
    dist = np.linalg.norm(u - st.s / st.n)
    assert 1e-4 < dist < 0.05


def test_limit_agreement_with_many_particle_branches():
    # angles of the two non-oscillating many-particle states approach the
    # mean-field stationary angles as the particle number grows
    p = SystemParams(J=1.0, U=0.0, gamma=1.5, n0=10**6)
    pair = cf.nonoscillatory_states(p)
    ground, excited = mf.pt_stationary_states(1.0, 1.5)
    assert pair.phi_ground == pytest.approx(ground.phi, abs=1e-6)
    assert pair.phi_excited == pytest.approx(excited.phi, abs=1e-6)
    # the polar angle converges as ~1.3/n0, just outside 1e-6 at n0 = 1e6
    assert pair.theta == pytest.approx(ground.theta, abs=1e-5)


def test_moment_dynamics_consistency_large_n():
    # the reduced first-moment trajectory of the closed moment equations
    # follows the mean-field trajectory at matched interaction
    n0 = 10**4
    gamma, g = 1.0, 0.5
    ground, _ = mf.pt_stationary_states(1.0, gamma)
    start_phi = ground.phi + 0.1
    psi0 = mf.state_from_angles(start_phi, ground.theta)
    traj_mf = mf.integrate_gpe(psi0, 10.0, 1.0, g, gamma,
                               sample_interval=0.05)
    params = SystemParams.from_g(g=g, gamma=gamma, n0=n0)
    st0 = bbr.pure_state_moments(ground.theta, start_phi, n0)
    traj_b = bbr.integrate(st0, 10.0, params, bbr.FixedU(params.U),
                           sample_interval=0.05)
    dist = np.linalg.norm(traj_b.reduced_bloch - traj_mf.bloch, axis=1)
    assert dist.max() < 1e-2


def test_csv_schema(tmp_path):
    traj = mf.integrate_gpe(np.array([1.0 + 0j, 0j]), 1.0, 1.0, 0.0, 0.5)
    path = tmp_path / "mf.csv"
    write_csv(path, mf.CSV_COLUMNS, traj.rows())
    lines = path.read_text().splitlines()
    assert lines[0] == "t,re_c1,im_c1,re_c2,im_c2,phi,theta,n_mf"
    assert all(len(line.split(",")) == 8 for line in lines[1:])


def test_angles_guard():
    with pytest.raises(ValueError):
        mf.angles(np.array([0j, 0j]))
