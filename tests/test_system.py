import pytest

from gldimer.system import SystemParams


def _rates(gamma, n0):
    p = SystemParams(gamma=gamma, n0=n0)
    return p.gamma_gain, p.gamma_loss, p.gamma_minus, p.gamma_plus


def test_balanced_rates_reference_values():
    gg, gl, gm, gp = _rates(1.5, 100)
    assert gg == pytest.approx(1.5 * 100 / 102)
    assert gg == pytest.approx(1.470588, abs=1e-6)
    assert gl == 1.5
    assert gm == pytest.approx(0.0147059, abs=1e-7)
    assert gp == pytest.approx(1.485294, abs=1e-6)


def test_balanced_rates_zero():
    assert _rates(0.0, 7) == (0.0, 0.0, 0.0, 0.0)


def test_balanced_rates_large_n_limit():
    gg, gl, gm, gp = _rates(1.5, 10**6)
    assert gg == pytest.approx(1.5, abs=1e-5)
    assert gm == pytest.approx(0.0, abs=1e-5)
    assert gp == pytest.approx(1.5, abs=1e-5)


def test_params_derived_rates():
    p = SystemParams(J=1.0, U=0.2, gamma=0.7, n0=10)
    assert p.gamma_loss == 0.7
    assert p.gamma_gain == pytest.approx(0.7 * 10 / 12)
    assert p.gamma_minus == pytest.approx(0.7 / 12)
    assert p.gamma_plus == pytest.approx(0.7 * 11 / 12)
    assert p.gamma_minus == pytest.approx((p.gamma_loss - p.gamma_gain) / 2)
    assert p.gamma_plus == pytest.approx((p.gamma_loss + p.gamma_gain) / 2)


def test_params_g_roundtrip():
    p = SystemParams.from_g(g=0.5, gamma=0.5, n0=5)
    assert p.U == pytest.approx(0.125)
    assert p.g == pytest.approx(0.5)


def test_params_validation():
    with pytest.raises(ValueError):
        SystemParams(J=0.0)
    with pytest.raises(ValueError):
        SystemParams(gamma=-1.0)
    with pytest.raises(ValueError):
        SystemParams(n0=0)
    with pytest.raises(ValueError):
        SystemParams.from_g(g=0.5, gamma=0.1, n0=1)
