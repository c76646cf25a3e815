import json

import numpy as np
import pytest
import scipy.linalg as sla
import scipy.sparse as sp

from gldimer import bbr, closedform as cf, fock, liouville, steadysolve
from gldimer.errors import ConvergenceError, TruncationOverflowError
from gldimer.io import write_csv, write_json
from gldimer.system import SystemParams

from conftest import kron_liouvillian


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
    # re-apply the generator in matrix form, never the solver's own system,
    # to the dense output; the residual, moments and boundary mass the
    # solve reads on the packed coordinates match the dense route
    rho = fig3_steady.rho
    res = np.max(np.abs(liouville.apply_liouvillian(rho, fig3_params,
                                                    basis24)))
    assert res < 1e-10
    assert fig3_steady.residual == pytest.approx(res, rel=0, abs=1e-20)
    assert abs(np.trace(rho).real - 1.0) < 1e-12
    dense = fock.bloch_moments(rho, basis24).vector
    assert (np.max(np.abs(fig3_steady.moments.vector - dense))
            <= 1e-13 * np.max(np.abs(dense)))
    assert fig3_steady.truncation_mass == pytest.approx(
        fock.truncation_mass(rho, basis24), rel=0, abs=1e-16)


def test_physicality(fig3_steady, basis24):
    evals = np.linalg.eigvalsh(fig3_steady.rho)
    assert evals.min() > -1e-8
    assert fig3_steady.moments.purity <= 1 + 1e-8


def test_reduction_routes_agree():
    # the number-sector solve is a steady state of the full superoperator
    basis = fock.build_basis(10)
    params = SystemParams.from_g(g=0.3, gamma=0.6, n0=2)
    sol = steadysolve.solve_steady(
        params, basis, steadysolve.SteadySolveConfig(truncation_ceiling=1e-2))
    lv = kron_liouvillian(params, basis)
    assert np.max(np.abs(lv @ sol.rho.ravel(order="F"))) < 1e-10


def _trace_distance(rho_a, rho_b):
    return float(0.5 * np.sum(np.abs(np.linalg.eigvalsh(rho_a - rho_b))))


@pytest.mark.parametrize("g, gamma", [(0.0, 0.5), (0.5, 0.5), (0.3, 3.0),
                                      (2.0, 1.9)])
def test_matches_dense_null_vector(g, gamma):
    # reference: null vector of the dense full superoperator by shifted
    # inverse iteration, independent of the sector structure and the pin
    basis = fock.build_basis(6)
    params = SystemParams.from_g(g=g, gamma=gamma, n0=5)
    sol = steadysolve.solve_steady(
        params, basis, steadysolve.SteadySolveConfig(truncation_ceiling=1.0))
    lv = kron_liouvillian(params, basis).toarray()
    lu = sla.lu_factor(lv - 1e-9 * np.eye(len(lv)))
    v = np.ones(len(lv), dtype=complex)
    for _ in range(3):
        v = sla.lu_solve(lu, v)
        v /= np.linalg.norm(v)
    ref = v.reshape((basis.dim,) * 2, order="F")
    ref = ref / np.trace(ref)
    assert _trace_distance(sol.rho, ref) < 1e-10


def test_sector_eliminator_solves_pinned_system():
    # the float32 elimination refined in float64 against the assembled
    # pinned system (first row replaced by x_0 = 1, right-hand side e_0),
    # in the real Hermitian coordinates the solve runs in: a residual at
    # double-precision rounding and the pin kept exactly
    basis = fock.build_basis(5)
    params = SystemParams.from_g(g=0.7, gamma=0.8, n0=3)
    space = liouville.number_block_space(basis)
    gen = liouville.build_number_block_generator(params, basis)
    a = sp.lil_array(gen)
    a[0, :] = 0.0
    a[0, 0] = 1.0
    a = sp.csr_array(a)
    x, steps, correction = steadysolve._refine(
        gen, steadysolve._eliminate(gen, space.offsets), space)
    b = np.zeros(space.size)
    b[0] = 1.0
    assert x[0] == 1.0
    assert np.max(np.abs(a @ x - b)) <= 1e-13 * np.max(np.abs(x))
    assert 2 <= steps <= 4 and correction < 1e-10


def test_refinement_converges_in_few_steps(fig3_steady):
    # the float32 factors contract the error by about 1e-6 per step, so a
    # solve at the reference point takes at most 4 refinement steps (one
    # generator product per step after the first); a loss of accuracy in
    # the factors shows here first
    assert 1 <= fig3_steady.matvecs <= 3
    assert fig3_steady.refine_correction < 1e-10


@pytest.mark.parametrize("ceiling", [1e-6, 1.0])
def test_pinned_vacuum_stalls_the_refinement(ceiling):
    # the state sits on the basis boundary (mass 0.994) and its vacuum
    # population is at rounding level, so pinning rho_00 = 1 leaves a
    # system the float32 factors cannot refine: a named error at any
    # ceiling, before the ceiling is checked
    basis = fock.build_basis(12)
    params = SystemParams(J=1.0, U=0.0, gamma=10.0, n0=5)
    with pytest.raises(ConvergenceError,
                       match=r"refinement stalled after \d+ steps at "
                             r"relative correction \S+; the state carries "
                             r"boundary mass 9\.9\d+e-01"):
        steadysolve.solve_steady(
            params, basis,
            steadysolve.SteadySolveConfig(truncation_ceiling=ceiling))


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


def _packed_state(smallest):
    """A cutoff-2 grade-0 state of unit trace, dense and in the real
    coordinates of its NumberBlockSpace, whose sector N = 2 block carries
    the eigenvalue `smallest`; every other eigenvalue is positive."""
    basis = fock.build_basis(2)
    space = liouville.number_block_space(basis)
    rng = np.random.default_rng(4)
    spectra = ([0.1], [0.15, 0.05], [0.2, 0.1 - smallest, smallest],
               [0.15, 0.1], [0.15])
    rho = np.zeros((basis.dim, basis.dim), dtype=complex)
    for n, evals in enumerate(spectra):
        sec = np.flatnonzero(basis.total_of == n)
        d = len(sec)
        q, _ = np.linalg.qr(rng.normal(size=(d, d))
                            + 1j * rng.normal(size=(d, d)))
        rho[np.ix_(sec, sec)] = (q * np.array(evals)) @ q.conj().T
    rho = 0.5 * (rho + rho.conj().T)
    return space, rho, liouville.pack_block(rho, space)


@pytest.mark.parametrize("smallest", [-1e-12, -1e-6])
def test_eigenvalue_floor_is_taken_before_clipping(smallest):
    # an eigenvalue in (-clip_floor, 0) is clipped and its mass recorded;
    # one at or below -clip_floor fails, naming its sector and its value
    space, _, x = _packed_state(smallest)
    cfg = steadysolve.SteadySolveConfig()
    if smallest < -cfg.clip_floor:
        with pytest.raises(ConvergenceError,
                           match=f"sector N = 2 has eigenvalue {smallest:.3e}"):
            steadysolve._post_process(x, cfg, space)
        return
    clipped, adjustments, floor = steadysolve._post_process(x, cfg, space)
    assert floor == pytest.approx(-1e-12, abs=1e-15)
    assert adjustments["clipped_negative_mass"] == pytest.approx(
        1e-12, abs=1e-15)
    assert np.linalg.eigvalsh(
        liouville.unpack_block(clipped, space)).min() > -1e-15


def test_post_process_per_sector_matches_whole_matrix():
    # the clip of the packed sector blocks, written back into the
    # coordinates, is the clip of the dense state by one whole-matrix eigh:
    # same state, floor and adjustments
    space, rho, x = _packed_state(-1e-12)
    evals, evecs = np.linalg.eigh(rho)
    whole = (evecs * np.maximum(evals, 0.0)) @ evecs.conj().T
    tr = np.trace(whole).real
    split, adjustments, floor = steadysolve._post_process(
        x, steadysolve.SteadySolveConfig(), space)
    assert floor == pytest.approx(evals.min(), abs=1e-15)
    assert adjustments["clipped_negative_mass"] == pytest.approx(
        -evals[evals < 0].sum(), abs=1e-15)
    assert adjustments["trace_renormalization"] == pytest.approx(
        abs(tr - 1.0), abs=1e-15)
    assert np.max(np.abs(liouville.unpack_block(split, space)
                         - whole / tr)) < 1e-14


# largest |bbr - exact| at cutoff 32 over g = 0, 0.05, 0.1 (n: the
# truncation error at g = 0, where the moment equations close exactly),
# times 1.5: n 1.40e-3, s_x 5.1e-4, s_z 5.1e-4, purity 1.2e-5
_BBR_NESS_TOL = {"n": 2.1e-3, "s_x": 7.7e-4, "s_z": 7.7e-4, "purity": 3e-5}


@pytest.mark.parametrize("g", [0.0, 0.05, 0.1])
def test_bbr_branch_matches_exact_steady_state(g, steady_n0_5):
    # the closed moment equations against the exact NESS where the NESS
    # converges in the cutoff: the fixed-U branch followed from gamma 0.3
    # to 0.5, at n0 = 5 and cutoff 32
    sweep = bbr.sweep_gamma([0.3, 0.4, 0.5], g, 5, "fixed-U")
    point = sweep.points[-1]
    assert point.gamma == 0.5 and point.exists
    exact = steady_n0_5(g, 32).moments
    for key, tol in _BBR_NESS_TOL.items():
        assert getattr(point.state, key) == pytest.approx(
            getattr(exact, key), rel=0, abs=tol), key


def test_cutoff_drift_is_pinned(fig3_steady, steady_n0_5):
    # from cutoff 24 to 32 the interacting NESS at the fig3 point (g = 0.5)
    # moves in n by 0.42 (5.6607 -> 6.0776), the one at g = 0.1 by 0.014
    # (5.2690 -> 5.2829): the first does not converge in the cutoff, the
    # second does
    assert steady_n0_5(0.5, 32).moments.n - fig3_steady.moments.n > 0.3
    assert abs(steady_n0_5(0.1, 32).moments.n
               - steady_n0_5(0.1, 24).moments.n) < 0.03


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
    assert set(sol.phase_seconds) == {"build", "eliminate", "refine",
                                      "post_process", "verify"}
    assert all(t >= 0.0 for t in sol.phase_seconds.values())
    assert sol.n_sectors == 2 * basis24.cutoff + 1
    assert sol.max_block_order == (basis24.cutoff + 1) ** 2


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
    # written as the CLI writes them
    rows, summary = steadysolve.steady_outputs(fig3_steady, basis24)
    csv_path = tmp_path / "diag.csv"
    json_path = tmp_path / "summary.json"
    write_csv(csv_path, steadysolve.DIAGONAL_COLUMNS, rows)
    write_json(json_path, summary)
    lines = csv_path.read_text().splitlines()
    assert lines[0] == "n1,n2,p"
    assert len(lines) == basis24.dim + 1
    payload = json.loads(json_path.read_text())
    for key in ("s_x", "s_y", "s_z", "n", "purity", "delta_n", "residual",
                "truncation_mass", "eigenvalue_floor"):
        assert key in payload
    assert payload["residual"] < 1e-10
