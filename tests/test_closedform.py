import numpy as np
import pytest

from gldimer import closedform as cf
from gldimer import fock, liouville
from gldimer.errors import (CoalescenceError, DivergentSteadyStateError,
                            NonNormalizableError, RegimeError)
from gldimer.system import SystemParams


P_REF = SystemParams(J=1.0, U=0.0, gamma=1.5, n0=100)


def test_steady_alpha_reference_values():
    a = cf.steady_alpha(P_REF)
    assert a.s_x == 0.0
    assert a.s_y == pytest.approx(167.213, abs=0.05)
    assert a.s_z == pytest.approx(1.2295, abs=1e-3)
    assert a.n == pytest.approx(224.18, abs=0.05)
    assert a.reduced_s_y == pytest.approx(0.746, abs=1e-3)
    assert a.purity == pytest.approx(0.5564, abs=1e-3)


def test_steady_alpha_small_gamma_continuity():
    # prefactor vanishes but the components stay continuous: alpha -> (0,0,0,n0)
    p = SystemParams(J=1.0, U=0.0, gamma=1e-4, n0=50)
    a = cf.steady_alpha(p)
    assert abs(a.s_y) < 0.01
    assert abs(a.s_z) < 1e-8
    assert a.n == pytest.approx(50.0, abs=1e-4)


def test_steady_alpha_divergence():
    # 4J^2 = gp^2 - gm^2  <=>  gamma^2 n0/(n0+2) = 4
    n0 = 100
    gamma_div = 2 * np.sqrt((n0 + 2) / n0)
    with pytest.raises(DivergentSteadyStateError):
        cf.steady_alpha(SystemParams(J=1.0, U=0.0, gamma=gamma_div, n0=n0))


def test_oscillatory_fixed_point():
    a = cf.steady_alpha(P_REF)
    sol = cf.oscillatory_solution(a.vector, P_REF)
    assert sol.amp_x == 0.0
    assert abs(sol.amp_relax) < 1e-12
    assert abs(sol.amp_osc) < 1e-12
    ts = np.linspace(0, 50, 40)
    vals = sol.moments(ts)
    assert np.max(np.abs(vals - a.vector[:, None])) < 1e-10


def test_oscillatory_reproduces_initial_state():
    rng = np.random.default_rng(11)
    for _ in range(50):
        init = rng.normal(scale=50, size=4)
        init[3] = abs(init[3]) + 60
        sol = cf.oscillatory_solution(init, P_REF)
        assert sol.moments(0.0) == pytest.approx(init, abs=1e-12)


def test_oscillatory_omega_value():
    sol = cf.oscillatory_solution([1.0, 0.0, 0.0, 100.0], P_REF)
    assert sol.omega == pytest.approx(1.33937, abs=1e-5)


def test_oscillatory_solves_moment_equations():
    # the evaluator satisfies the U = 0 first-moment equations pointwise
    sol = cf.oscillatory_solution([40.0, -20.0, 30.0, 110.0], P_REF)
    gm, gp, J = P_REF.gamma_minus, P_REF.gamma_plus, P_REF.J
    eps = 1e-6
    for t in np.linspace(0.0, 20.0, 7):
        v = sol.moments(t)
        d = (sol.moments(t + eps) - sol.moments(t - eps)) / (2 * eps)
        assert d[0] == pytest.approx(-gm * v[0], abs=1e-6)
        assert d[1] == pytest.approx(2 * J * v[2] - gm * v[1], abs=1e-5)
        assert d[2] == pytest.approx(
            -2 * J * v[1] + gp * v[3] - gm * v[2] + P_REF.gamma_gain, abs=1e-5)
        assert d[3] == pytest.approx(
            -gm * v[3] + gp * v[2] + P_REF.gamma_gain, abs=1e-5)


def test_oscillatory_regime_guard():
    with pytest.raises(RegimeError):
        cf.oscillatory_solution([0, 0, 0, 5], SystemParams(
            J=1.0, U=0.0, gamma=2.5, n0=1000))


def test_nonoscillatory_reference_values():
    pair = cf.nonoscillatory_states(P_REF)
    assert pair.theta == pytest.approx(1.5585, abs=1e-4)
    assert pair.phi_ground == pytest.approx(0.8480, abs=1e-4)
    assert pair.phi_excited == pytest.approx(2.2936, abs=1e-4)
    assert pair.phi_ground + pair.phi_excited == pytest.approx(np.pi, abs=1e-12)


def test_nonoscillatory_angle_consistency():
    # the closed-form azimuths equal the angles of the constructed moments
    pair = cf.nonoscillatory_states(P_REF)
    s_x0 = pair.amp_x
    phi_from_moments = np.arctan2(pair.s_y0, s_x0)
    assert phi_from_moments == pytest.approx(pair.phi_ground, abs=1e-10)
    phi_other = np.arctan2(pair.s_y0, -s_x0)
    assert phi_other == pytest.approx(pair.phi_excited, abs=1e-10)
    theta_from_moments = np.arccos(pair.s_z0 / 100)
    assert theta_from_moments == pytest.approx(pair.theta, abs=1e-10)


def test_nonoscillatory_relax_amplitude():
    pair = cf.nonoscillatory_states(P_REF)
    alpha = cf.steady_alpha(P_REF)
    assert pair.amp_relax == pytest.approx((100 - alpha.n) / 2, abs=1e-10)


def test_nonoscillatory_large_n_limit():
    p = SystemParams(J=1.0, U=0.0, gamma=1.5, n0=10**6)
    pair = cf.nonoscillatory_states(p)
    assert pair.phi_ground == pytest.approx(np.pi / 2 - np.arccos(0.75),
                                            abs=1e-5)
    assert pair.phi_ground == pytest.approx(0.848062, abs=1e-5)
    assert pair.theta == pytest.approx(np.pi / 2, abs=1e-5)


def test_nonoscillatory_coalescence():
    # branches vanish strictly before the oscillatory regime ends
    with pytest.raises(CoalescenceError):
        cf.nonoscillatory_states(SystemParams(J=1.0, U=0.0, gamma=2.0, n0=100))
    cf.nonoscillatory_states(SystemParams(J=1.0, U=0.0, gamma=1.9, n0=100))


def test_critical_gamma():
    assert cf.critical_gamma(100, 1.0) == pytest.approx(2.019802, abs=1e-6)
    assert cf.critical_gamma(10**9, 1.0) == pytest.approx(2.0, abs=1e-8)
    assert cf.critical_gamma(1, 1.0) == pytest.approx(3.0)
    # gamma_plus = 2J scales with the tunnelling amplitude
    assert cf.critical_gamma(1, 2.5) == pytest.approx(7.5)


def _rate_form_purity(p):
    """Purity of the U = 0 steady state written in the half-sum and
    half-difference rates, independently of the moment form."""
    J, gm, gp = p.J, p.gamma_minus, p.gamma_plus
    return (4 * J**2 + gm**2) / (gm + 4 * J**2 / (gp + gm)) ** 2


def test_steady_purity_forms():
    assert cf.steady_alpha(P_REF).purity == pytest.approx(0.5564, abs=1e-3)
    # the moment form agrees with the rate form for arbitrary parameters
    rng = np.random.default_rng(3)
    for _ in range(20):
        p = SystemParams(J=float(rng.uniform(0.5, 2)), U=0.0,
                         gamma=float(rng.uniform(0.01, 2)),
                         n0=int(rng.integers(2, 300)))
        assert cf.steady_alpha(p).purity == pytest.approx(
            _rate_form_purity(p), rel=1e-12)


def test_steady_purity_limits():
    # the purity reaches 1 at gamma = 2J for large particle numbers
    p = SystemParams(J=1.0, U=0.0, gamma=2.0, n0=10**6)
    assert cf.steady_alpha(p).purity == pytest.approx(1.0, abs=1e-5)
    p0 = SystemParams(J=1.0, U=0.0, gamma=0.0, n0=100)
    assert cf.steady_alpha(p0).purity == 0.0


def test_steady_purity_unphysical_flag():
    # past the critical gain-loss strength the constant solution has a
    # purity above 1
    p = SystemParams(J=1.0, U=0.0, gamma=2.1, n0=10**4)
    assert cf.steady_alpha(p).purity > 1 + 1e-8


def test_single_mode_steady():
    sm = cf.single_mode_steady(0.5 * 5 / 7, 0.5)
    assert sm.xi == pytest.approx(5 / 7)
    p = sm.probabilities(3)
    assert p[0] == pytest.approx(2 / 7)
    assert p[1] == pytest.approx(10 / 49)
    # geometric series sums to one
    assert cf.single_mode_steady(0.6, 1.0).probabilities(2000).sum() == \
        pytest.approx(1.0, abs=1e-12)
    with pytest.raises(NonNormalizableError):
        cf.single_mode_steady(1.0, 1.0)


def test_combined_product_probs():
    q = cf.combined_product_probs(5 / 7, 3)
    assert q[0] == pytest.approx((2 / 7) ** 2)
    assert q[1] == pytest.approx(2 * (2 / 7) ** 2 * (5 / 7))
    assert q[1] == pytest.approx(0.1166, abs=1e-4)
    assert cf.combined_product_probs(0.6, 3000).sum() == pytest.approx(
        1.0, abs=1e-12)
    with pytest.raises(NonNormalizableError):
        cf.combined_product_probs(1.2, 5)


def test_nonoscillatory_trajectory_is_nonoscillatory():
    from gldimer import bbr

    pair = cf.nonoscillatory_states(P_REF)
    state = bbr.pure_state_moments(pair.theta, pair.phi_ground, 100)
    sol = cf.oscillatory_solution(state.vector[:4], P_REF)
    alpha = cf.steady_alpha(P_REF)
    assert abs(sol.amp_osc) < 1e-10
    ts = np.linspace(0, 40, 100)
    s_z = sol.moments(ts)[2]
    assert np.max(np.abs(s_z - alpha.s_z)) < 1e-10


def test_sign_flip_symmetry():
    # negating the s_x amplitude mirrors s_x(t) and leaves the rest alone
    init = np.array([30.0, 10.0, 5.0, 105.0])
    flipped = init * np.array([-1, 1, 1, 1])
    a = cf.oscillatory_solution(init, P_REF)
    b = cf.oscillatory_solution(flipped, P_REF)
    ts = np.linspace(0, 30, 60)
    va, vb = a.moments(ts), b.moments(ts)
    assert vb[0] == pytest.approx(-va[0], abs=1e-10)
    for i in (1, 2, 3):
        assert vb[i] == pytest.approx(va[i], abs=1e-10)


def test_consistency_with_master_equation():
    # U = 0: exact propagation follows the closed form within 1e-6 over
    # five relaxation times of the slow mode; the basis is large enough
    # that the monitored boundary mass stays below 1e-8 throughout
    basis = fock.build_basis(38)
    params = SystemParams(J=1.0, U=0.0, gamma=0.5, n0=3)
    rho0 = fock.density_from_state(fock.coherent_state(basis, 1.2, 2.1, 3))
    horizon = 5 / params.gamma_minus
    cfg = liouville.PropagationConfig(rtol=1e-11, atol=1e-13,
                                      sample_interval=horizon / 50,
                                      truncation_ceiling=1e-8)
    traj = liouville.moment_trajectory(rho0, horizon, params, basis, cfg)
    init = (traj.s_x[0], traj.s_y[0], traj.s_z[0], traj.n[0])
    pred = cf.oscillatory_solution(init, params).moments(traj.ts)
    for got, want in zip((traj.s_x, traj.s_y, traj.s_z, traj.n), pred):
        assert got == pytest.approx(want, abs=1e-6)
