import numpy as np
import pytest
from scipy.integrate import solve_ivp

from gldimer import bbr, fock, liouville, meanfield, steadysolve
from gldimer.errors import StepUnderflowError
from gldimer.ode import integrate_dp45
from gldimer.system import SystemParams


def test_exponential_decay():
    res = integrate_dp45(lambda t, y: -y, (0.0, 5.0), np.array([1.0]),
                         rtol=1e-10, atol=1e-12)
    assert res.y[0] == pytest.approx(np.exp(-5.0), rel=1e-9)


def test_complex_oscillator():
    res = integrate_dp45(lambda t, y: 1j * y, (0.0, 20.0),
                         np.array([1.0 + 0j]), rtol=1e-10, atol=1e-12)
    assert res.y[0] == pytest.approx(np.exp(20j), abs=1e-7)


def test_sample_times_hit_exactly():
    ts = [0.0, 0.31, 1.0, 2.5, np.pi]
    res = integrate_dp45(lambda t, y: np.array([np.cos(t)]), (0.0, np.pi),
                         np.array([0.0]), rtol=1e-11, atol=1e-13,
                         sample_times=ts)
    assert res.sample_ts == pytest.approx(ts)
    assert res.sample_ys[:, 0] == pytest.approx(np.sin(ts), abs=1e-9)


def test_backward_integration():
    res = integrate_dp45(lambda t, y: -y, (0.0, -2.0), np.array([1.0]),
                         rtol=1e-10, atol=1e-12)
    assert res.y[0] == pytest.approx(np.exp(2.0), rel=1e-9)


def test_matches_scipy_on_linear_system():
    rng = np.random.default_rng(5)
    a = rng.normal(size=(6, 6))
    a -= np.eye(6) * (np.max(np.real(np.linalg.eigvals(a))) + 0.5)
    y0 = rng.normal(size=6)
    mine = integrate_dp45(lambda t, y: a @ y, (0.0, 3.0), y0,
                          rtol=1e-11, atol=1e-13)
    ref = solve_ivp(lambda t, y: a @ y, (0.0, 3.0), y0, rtol=1e-11,
                    atol=1e-13, method="RK45")
    assert mine.y == pytest.approx(ref.y[:, -1], abs=1e-8)


def test_step_underflow_raises():
    # discontinuous right-hand side forces unbounded step rejection
    def rhs(t, y):
        return np.array([1e8 * np.sign(np.sin(1e8 * t)) * (1 + 1e6 * t)])

    with pytest.raises(StepUnderflowError):
        integrate_dp45(rhs, (0.0, 1.0), np.array([0.0]), rtol=1e-13,
                       atol=1e-14, max_step=1.0)


def test_on_step_hook_applied():
    seen = []

    def hook(t, y):
        seen.append(t)
        return y

    integrate_dp45(lambda t, y: -y, (0.0, 1.0), np.array([1.0]),
                   rtol=1e-8, atol=1e-10, on_step=hook)
    assert len(seen) > 0


def test_monitor_abort():
    class Abort(RuntimeError):
        pass

    def monitor(t, y):
        if t > 0.5:
            raise Abort

    with pytest.raises(Abort):
        integrate_dp45(lambda t, y: y * 0, (0.0, 1.0), np.array([1.0]),
                       rtol=1e-8, atol=1e-10, monitor=monitor, max_step=0.1)


def test_rejects_bad_tolerances():
    with pytest.raises(ValueError):
        integrate_dp45(lambda t, y: -y, (0.0, 1.0), np.array([1.0]),
                       rtol=0.0, atol=1e-12)


def _bbr_run(interval):
    params = SystemParams(J=1.0, U=0.0, gamma=0.5, n0=2)
    return bbr.integrate(bbr.pure_state_moments(np.pi / 2, 0.0, 2), 1.0,
                         params, bbr.FixedU(0.0), sample_interval=interval)


def _gpe_run(interval):
    return meanfield.integrate_gpe(meanfield.state_from_angles(0.0, np.pi / 2),
                                   1.0, 1.0, 0.0, 0.5,
                                   sample_interval=interval)


def _propagate_run(interval):
    basis = fock.build_basis(3)
    return liouville.propagate(
        fock.fock_density(basis, 0, 0), 1.0,
        SystemParams(J=1.0, U=0.0, gamma=0.5, n0=2), basis,
        liouville.PropagationConfig(sample_interval=interval,
                                    truncation_ceiling=1.0))


def _attractor_run(interval):
    basis = fock.build_basis(3)
    params = SystemParams(J=1.0, U=0.0, gamma=0.5, n0=2)
    rho_ss = steadysolve.solve_steady(
        params, basis,
        steadysolve.SteadySolveConfig(truncation_ceiling=1.0)).rho
    return steadysolve.verify_attractor(
        rho_ss, params, basis, t_horizon=1.0, sample_interval=interval,
        n_perturbations=1,
        config=liouville.PropagationConfig(truncation_ceiling=1.0))


@pytest.mark.parametrize("run", [_bbr_run, _gpe_run, _propagate_run,
                                 _attractor_run])
def test_sample_grid_of_callers(run):
    assert np.allclose(run(0.25).ts, [0.0, 0.25, 0.5, 0.75, 1.0])
    assert np.allclose(run(0.4).ts, [0.0, 0.4, 0.8, 1.0])
    for bad in (0.0, -0.5):
        with pytest.raises(ValueError, match="sample_interval"):
            run(bad)
