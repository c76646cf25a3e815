import json

import numpy as np
import pytest
import scipy.linalg as sla
import scipy.sparse as sp

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


@pytest.mark.parametrize("g, gamma", [(0.0, 0.5), (0.5, 0.5), (0.3, 3.0),
                                      (2.0, 1.9)])
def test_matches_dense_null_vector(g, gamma):
    # reference: null vector of the dense full superoperator by shifted
    # inverse iteration, independent of the sector structure and the pin
    basis = fock.build_basis(6)
    params = SystemParams.from_g(g=g, gamma=gamma, n0=5)
    sol = steadysolve.solve_steady(
        params, basis, steadysolve.SteadySolveConfig(truncation_ceiling=1.0))
    lv = liouville.build_liouvillian(params, basis).toarray()
    lu = sla.lu_factor(lv - 1e-9 * np.eye(len(lv)))
    v = np.ones(len(lv), dtype=complex)
    for _ in range(3):
        v = sla.lu_solve(lu, v)
        v /= np.linalg.norm(v)
    ref = v.reshape((basis.dim,) * 2, order="F")
    ref = ref / np.trace(ref)
    assert steadysolve.trace_distance(sol.rho, ref) < 1e-10


def test_sector_eliminator_solves_pinned_system():
    # general right-hand sides, as in the refinement steps, against the
    # assembled pinned system (first row replaced by x_0 = b_0), in the
    # real Hermitian coordinates the solve runs in
    basis = fock.build_basis(5)
    params = SystemParams.from_g(g=0.7, gamma=0.8, n0=3)
    space = liouville.number_block_space(basis)
    gen = liouville.build_number_block_generator(params, basis)
    a = sp.lil_array(gen)
    a[0, :] = 0.0
    a[0, 0] = 1.0
    a = sp.csr_array(a)
    solve = steadysolve._sector_eliminator(gen, space.offsets)
    rng = np.random.default_rng(5)
    b = rng.normal(size=space.size)
    x = solve(b)
    assert np.max(np.abs(a @ x - b)) < 1e-10 * np.max(np.abs(b))
    assert np.allclose(steadysolve._pinned_residual(gen, x),
                       np.eye(space.size)[0] - a @ x, atol=1e-12)


def _generator_with_block(basis, params, rows_sector, cols_sector, value):
    space = liouville.number_block_space(basis)
    gen = sp.lil_array(liouville.build_number_block_generator(params, basis))
    off = space.offsets
    gen[off[rows_sector]:off[rows_sector + 1],
        off[cols_sector]:off[cols_sector + 1]] = value
    return sp.csr_array(gen)


@pytest.mark.filterwarnings("ignore::scipy.linalg.LinAlgWarning")
@pytest.mark.parametrize("rows_sector, cols_sector, value, message", [
    (8, 8, 0.0, "sector N = 8 block is singular"),      # top block zeroed
    (3, 3, np.nan, "sector N = 3 block is singular or not finite"),
    (1, 0, np.nan, "sector N = 1 solution is not finite"),  # gain 0 -> 1
])
def test_bad_sector_block_fails_closed(monkeypatch, rows_sector, cols_sector,
                                       value, message):
    basis = fock.build_basis(4)
    params = SystemParams.from_g(g=0.5, gamma=0.5, n0=2)
    gen = _generator_with_block(basis, params, rows_sector, cols_sector,
                                value)
    monkeypatch.setattr(liouville, "build_number_block_generator",
                        lambda *_args: gen)
    with pytest.raises(ConvergenceError, match=message):
        steadysolve.solve_steady(
            params, basis,
            steadysolve.SteadySolveConfig(truncation_ceiling=1.0))


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


def test_post_process_per_sector_matches_whole_matrix():
    # block-diagonal state on interleaved index sets, one sector carrying
    # a -1e-12 eigenvalue: per-sector diagonalization gives the same state,
    # floor and adjustments as one whole-matrix eigh
    rng = np.random.default_rng(4)
    sectors = (np.array([0, 3]), np.array([1, 4, 5]), np.array([2]))
    spectra = ([0.3, 0.1], [0.35, 0.15 + 1e-12, -1e-12], [0.1])
    rho = np.zeros((6, 6), dtype=complex)
    for sec, evals in zip(sectors, spectra):
        d = len(sec)
        q, _ = np.linalg.qr(rng.normal(size=(d, d))
                            + 1j * rng.normal(size=(d, d)))
        rho[np.ix_(sec, sec)] = (q * np.array(evals)) @ q.conj().T
    cfg = steadysolve.SteadySolveConfig()
    whole, adj_whole, floor_whole = steadysolve._post_process(rho, cfg)
    split, adj_split, floor_split = steadysolve._post_process(rho, cfg,
                                                              sectors)
    assert floor_split == pytest.approx(-1e-12, abs=1e-15)
    assert floor_split == pytest.approx(floor_whole, abs=1e-15)
    for key in adj_whole:
        assert adj_split[key] == pytest.approx(adj_whole[key], abs=1e-15)
    assert adj_split["clipped_negative_mass"] == pytest.approx(1e-12,
                                                               abs=1e-15)
    assert np.max(np.abs(split - whole)) < 1e-14


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


def test_solution_reports_its_work(fig3_steady, basis24):
    sol = fig3_steady
    assert set(sol.phase_seconds) == {"build", "eliminate", "post_process",
                                      "verify"}
    assert all(t >= 0.0 for t in sol.phase_seconds.values())
    assert sum(sol.phase_seconds.values()) <= sol.wall_time
    assert sol.n_sectors == 2 * basis24.cutoff + 1
    assert sol.max_block_order == (basis24.cutoff + 1) ** 2
    assert sol.diagnostics()["matvecs"] == sol.matvecs == 0


def test_attractor_perturbation_respects_ceiling():
    # the perturbed state rho_ss + delta(t) is monitored like any other
    # propagation: its boundary mass starts below the ceiling and leaks
    # above it on the way back to the steady state
    basis = fock.build_basis(6)
    params = SystemParams.from_g(g=0.5, gamma=0.5, n0=2)
    rho_ss = steadysolve.solve_steady(
        params, basis,
        steadysolve.SteadySolveConfig(truncation_ceiling=1.0)).rho
    mass_ss = fock.truncation_mass(rho_ss, basis)
    run = dict(perturbation_scale=1.0, t_horizon=20.0, n_perturbations=1)
    steadysolve.verify_attractor(
        rho_ss, params, basis,
        config=liouville.PropagationConfig(truncation_ceiling=1.0), **run)
    with pytest.raises(TruncationOverflowError, match="at t = [1-9]"):
        steadysolve.verify_attractor(
            rho_ss, params, basis,
            config=liouville.PropagationConfig(
                truncation_ceiling=0.5 * mass_ss), **run)


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
