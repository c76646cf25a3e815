import json

import numpy as np
import pytest

from gldimer import closedform as cf, fock, liouville, steadysolve
from gldimer.errors import ConvergenceError, TruncationOverflowError
from gldimer.system import SystemParams


def test_rejects_gamma_zero():
    basis = fock.build_basis(4)
    with pytest.raises(ValueError):
        steadysolve.solve_steady(SystemParams(J=1.0, U=0.0, gamma=0.0, n0=2),
                                 basis)


def test_u0_moments_match_analytic():
    # boundary mass ~1e-8 keeps the truncation bias of the moments below
    # the 1e-6 comparison level
    basis = fock.build_basis(30)
    params = SystemParams(J=1.0, U=0.0, gamma=0.4, n0=2)
    sol = steadysolve.solve_steady(
        params, basis, steadysolve.SteadySolveConfig(truncation_ceiling=1e-7))
    alpha = cf.steady_alpha(params)
    m = sol.moments
    assert m.s_x == pytest.approx(alpha.s_x, abs=1e-6)
    assert m.s_y == pytest.approx(alpha.s_y, abs=1e-6)
    assert m.s_z == pytest.approx(alpha.s_z, abs=1e-6)
    assert m.n == pytest.approx(alpha.n, abs=1e-5)


def test_residual_verified_independently(fig3_params, basis24, fig3_steady):
    # re-apply the generator in matrix form, never the solver's own system
    res = liouville.apply_liouvillian(fig3_steady.rho, fig3_params, basis24)
    assert np.max(np.abs(res)) < 1e-10
    assert abs(np.trace(fig3_steady.rho).real - 1.0) < 1e-12


def test_physicality(fig3_steady, basis24):
    evals = np.linalg.eigvalsh(fig3_steady.rho)
    assert evals.min() > -1e-8
    assert fock.purity(fig3_steady.moments) <= 1 + 1e-8


def test_reduction_routes_agree():
    # the number-sector solve is a steady state of the full superoperator
    basis = fock.build_basis(10)
    params = SystemParams.from_g(g=0.3, gamma=0.6, n0=2)
    sol = steadysolve.solve_steady(
        params, basis, steadysolve.SteadySolveConfig(truncation_ceiling=1e-2))
    lv = liouville.build_liouvillian(params, basis)
    assert np.max(np.abs(lv @ sol.rho.ravel(order="F"))) < 1e-10


def test_truncation_overflow_raises():
    basis = fock.build_basis(8)
    params = SystemParams(J=1.0, U=0.0, gamma=0.5, n0=5)  # heavy tail
    with pytest.raises(TruncationOverflowError):
        steadysolve.solve_steady(params, basis)


def test_convergence_error_reports_residual():
    basis = fock.build_basis(10)
    params = SystemParams(J=1.0, U=0.0, gamma=0.5, n0=2)
    cfg = steadysolve.SteadySolveConfig(truncation_ceiling=1e-2,
                                        residual_tol=1e-30)
    with pytest.raises(ConvergenceError, match="achieved residual"):
        steadysolve.solve_steady(params, basis, cfg)


def test_config_validation():
    with pytest.raises(ValueError):
        steadysolve.SteadySolveConfig(residual_tol=0.0)


def test_eigenvalue_floor_is_taken_before_clipping():
    rng = np.random.default_rng(1)
    q, _ = np.linalg.qr(rng.normal(size=(3, 3))
                        + 1j * rng.normal(size=(3, 3)))
    rho = (q * np.array([0.6, 0.4 + 1e-12, -1e-12])) @ q.conj().T
    cfg = steadysolve.SteadySolveConfig()
    clipped, adjustments, floor = steadysolve._post_process(rho, cfg)
    assert floor == pytest.approx(-1e-12, abs=1e-15)
    assert adjustments["clipped_negative_mass"] == pytest.approx(
        1e-12, abs=1e-15)
    assert np.linalg.eigvalsh(clipped).min() > -1e-15


def test_marginals_close_to_geometric(fig3_params, basis24, fig3_steady):
    # the stated closeness of the site marginals to the geometric law;
    # the honest maximal deviation at this parameter set is 0.015-0.019
    # (at occupation zero), see the acceptance suite for the strict bound
    geo = cf.single_mode_steady(fig3_params.gamma_gain,
                                fig3_params.gamma_loss).probabilities(24)
    for site in (1, 2):
        p = fock.site_distribution(fig3_steady.rho, basis24, site)
        assert np.max(np.abs(p - geo)) < 0.02


def test_attractor_zero_perturbation(u0_steady_n5, basis24):
    params, sol = u0_steady_n5
    rep = steadysolve.verify_attractor(sol.rho, params, basis24,
                                       perturbation_scale=0.0,
                                       t_horizon=2.0, n_perturbations=1)
    assert np.max(rep.distances) < 1e-8


def test_attractor_generic_coherences_decay_slower():
    # inter-sector coherences of a generic pure-state perturbation decay
    # at about half the number-sector rate
    basis = fock.build_basis(12)
    params = SystemParams(J=1.0, U=0.0, gamma=0.5, n0=2)
    sol = steadysolve.solve_steady(
        params, basis, steadysolve.SteadySolveConfig(truncation_ceiling=1e-2))
    period = 2 * np.pi / np.sqrt(4 - params.gamma_plus**2)
    rep = steadysolve.verify_attractor(
        sol.rho, params, basis, perturbation_scale=0.05,
        t_horizon=16 * period, sample_interval=period,
        n_perturbations=2, perturbation="generic-ket", seed=3)
    gm = params.gamma_minus
    for rate in rep.fitted_rates:
        assert gm / 3 < rate < gm  # slower than the sector rate
    print(f"\ngeneric-perturbation decay rates {rep.fitted_rates} vs "
          f"half-sector rate {gm / 2:.4f}")


def test_export_files(tmp_path, fig3_steady, basis24):
    csv_path = tmp_path / "diag.csv"
    json_path = tmp_path / "summary.json"
    steadysolve.export_steady_state(fig3_steady, basis24, csv_path, json_path)
    lines = csv_path.read_text().splitlines()
    assert lines[0] == "n1,n2,p"
    assert len(lines) == basis24.dim + 1
    payload = json.loads(json_path.read_text())
    for key in ("s_x", "s_y", "s_z", "n", "purity", "delta_n", "residual",
                "truncation_mass", "eigenvalue_floor"):
        assert key in payload
    assert payload["residual"] < 1e-10
