import math
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from gldimer import bbr, closedform as cf, fock, liouville
from gldimer.errors import ConvergenceError, InteractionSingularityError
from gldimer.system import SystemParams

from conftest import closure_defect, fd_moment_derivative

P100 = SystemParams(J=1.0, U=0.0, gamma=1.5, n0=100)


def _bits(v) -> bytes:
    return np.asarray(v, dtype=float).tobytes()


MODES = (bbr.FixedU(0.3), bbr.ConstantG(0.5))


@pytest.mark.parametrize("mode", MODES)
def test_moment_rhs_list_and_array_agree_bitwise(mode):
    from gldimer import _moment_rhs_py as pk

    rng = np.random.default_rng(3)
    params = SystemParams(J=1.1, U=0.3, gamma=0.6, n0=7)
    for _ in range(50):
        y = rng.normal(scale=40, size=14)
        y[3] = 2.0 + abs(y[3])
        ref = bbr.moment_rhs(y, params, mode)
        for yy in (y, y.tolist()):
            for out in (np.empty(14), [0.0] * 14):
                got = bbr.moment_rhs(yy, params, mode, out)
                assert got is out
                assert _bits(got) == _bits(ref)
        # the kernel on numpy scalars (the array element type) gives the
        # same bits as on Python floats
        u = mode.u if isinstance(mode, bbr.FixedU) else mode.g / (y[3] - 1.0)
        scalars = pk.moment_rhs(list(y), np.float64(params.J), np.float64(u),
                                np.float64(params.gamma_gain),
                                np.float64(params.gamma_loss), [0.0] * 14)
        assert _bits(scalars) == _bits(ref)


def _point(n, shift):
    """A moment vector near the anchor at n0 = 20, with every component
    distinct from it, and particle number n."""
    params = SystemParams.from_g(g=0.5, gamma=0.8, n0=20)
    y = bbr.u0_steady_guess(params).vector
    y += shift * np.linspace(0.3, 1.1, 14)
    y[3] = n
    return y


# (mode, point): two points per mode, one of them the constant-g point near
# n = 2, where the chain-rule term dU/dn = -g/(n-1)^2 is large
JACOBIAN_CASES = [
    (bbr.FixedU(0.3), _point(9.0, 0.37)),
    (bbr.FixedU(0.3), _point(2.1, -1.3)),
    (bbr.ConstantG(0.5), _point(9.0, 0.37)),
    (bbr.ConstantG(0.5), _point(2.05, -1.3)),
]


@pytest.mark.parametrize("mode, y", JACOBIAN_CASES, ids=[
    "fixed-U", "fixed-U-n2.1", "constant-g", "constant-g-n2.05"])
def test_analytic_jacobian_matches_central_difference(mode, y):
    params = SystemParams.from_g(g=0.5, gamma=0.8, n0=20)
    jac = bbr._Residual(params, mode).jacobian(y.tolist())
    ref = np.empty((14, 14))
    for i in range(14):
        h = 1e-5 * max(abs(y[i]), 1.0)
        yp, ym = y.copy(), y.copy()
        yp[i] += h
        ym[i] -= h
        ref[:, i] = (bbr.moment_rhs(yp, params, mode)
                     - bbr.moment_rhs(ym, params, mode)) / (2 * h)
    assert jac.shape == (14, 14)
    assert np.max(np.abs(jac - ref)) < 1e-6 * max(1.0, np.max(np.abs(ref)))
    if isinstance(mode, bbr.ConstantG):
        # the chain-rule term is what the n column would miss at fixed U
        u = mode.g / (y[3] - 1.0)
        fixed = bbr._Residual(params, bbr.FixedU(u)).jacobian(y.tolist())
        assert np.max(np.abs(fixed[:, 3] - ref[:, 3])) > 0.1
        assert np.array_equal(np.delete(fixed, 3, axis=1),
                              np.delete(jac, 3, axis=1))


def test_singular_band_has_a_zero_jacobian_and_no_error_escapes():
    # just inside the constant-g singular band the residual is the 1e6
    # sentinel, a constant, so its Jacobian is zero
    params = SystemParams(J=1.0, U=0.0, gamma=0.1, n0=2)
    mode = bbr.ConstantG(0.5)
    guess = fock.BlochMoments(s_x=0.5, s_y=0.0, s_z=0.0, n=1.0 + 0.5e-6,
                              delta=np.eye(4))
    y = guess.vector
    fun = bbr._Residual(params, mode)
    assert fun(y.tolist()) == [1e6] * 14
    # an ndarray input gets the same answers
    assert fun(y) == [1e6] * 14
    assert not np.any(fun.jacobian(y.tolist()))
    assert not np.any(fun.jacobian(y))
    assert fun.kernel_calls == 0 and fun.sentinel_hits == 4
    res = bbr.steady_root_search(params, mode, y)
    # the zero Jacobian is singular: the search stops without a root, and
    # no singularity error escapes it
    assert isinstance(res, bbr.RootResult)
    assert not res.found and res.sentinel_hits > 0


def _last_state_before_the_fold():
    # the g = 0.5 fixed-U branch folds at gamma = 0.99903
    return bbr.sweep_gamma([0.5, 0.9, 0.99], 0.5, 100,
                           "fixed-U").points[-1].state.vector


def _pure_state_along_x():
    return bbr.pure_state_moments(np.pi / 2, 0.0, 20).vector


@pytest.mark.parametrize("gamma, start, continued_over", [
    (1.0, _last_state_before_the_fold, None),
    (0.5, _pure_state_along_x, [0.3, 0.4, 0.5]),
], ids=["past-the-fold", "pure-state-start"])
def test_plain_newton_search(gamma, start, continued_over):
    params, mode = bbr._params_at(gamma, 0.5, 100, 1.0, "fixed-U")
    res = bbr.steady_root_search(params, mode, start())
    # one Jacobian per Newton step and one residual per iterate
    assert res.jacobian_evals == res.iterations
    assert res.kernel_calls == res.iterations + 1
    assert res.sentinel_hits == 0
    if continued_over is None:
        # past the fold there is no root: the search gives up after
        # NEWTON_STEPS plain Newton steps
        assert not res.converged
        assert res.iterations == bbr.NEWTON_STEPS
        return
    # a start far from the branch converges, to the state that the sweep
    # reaches by continuation
    assert res.found and res.iterations < bbr.NEWTON_STEPS
    ref = bbr.sweep_gamma(continued_over, 0.5, 100,
                          "fixed-U").points[-1].state.vector
    assert np.max(np.abs(res.state.vector - ref)) <= 1e-12 * np.max(
        np.abs(ref))


def _classify_reference(y) -> bool:
    """The physical-root predicate on `fock.BlochMoments`."""
    state = fock.BlochMoments.from_vector(y)
    if state.n <= fock.MIN_PARTICLE_NUMBER:
        return False
    if state.purity > 1.0 + 1e-8:
        return False
    return np.min(np.diagonal(state.delta)) >= -1e-8


def test_classify_agrees_with_the_blochmoments_predicate():
    rng = np.random.default_rng(7)
    cases = []
    for _ in range(300):
        y = rng.normal(scale=5.0, size=14)
        y[3] = abs(y[3]) * rng.choice([0.2, 1.0, 10.0])
        cases.append(y)
    base = bbr.pure_state_moments(1.0, 0.3, 20).vector
    for n in (fock.MIN_PARTICLE_NUMBER, 0.5 * fock.MIN_PARTICLE_NUMBER,
              0.0, -1.0):
        y = base.copy()
        y[3] = n
        cases.append(y)
    for excess in (0.5e-8, 2e-8):
        # purity 1 + excess, just inside and just past the bound
        y = base.copy()
        y[3] = np.linalg.norm(y[:3]) / np.sqrt(1.0 + excess)
        cases.append(y)
    for k in (4, 8, 11, 13):
        for value in (-0.5e-8, -2e-8):
            y = base.copy()
            y[k] = value
            cases.append(y)
    verdicts = [bool(bbr._classify(y)) for y in cases]
    assert verdicts == [bool(_classify_reference(y)) for y in cases]
    assert verdicts == [bool(bbr._classify(y.tolist())) for y in cases]
    assert 0 < sum(verdicts) < len(verdicts)
    assert verdicts[-14:] == [False] * 4 + [True, False] + [True, False] * 4


def test_secant_predictor_steps_no_farther_than_the_last_grid_step():
    y_a = bbr.pure_state_moments(1.0, 0.3, 20).vector
    y_b = bbr.pure_state_moments(1.2, 0.1, 30).vector
    # half a grid step past b: half the last step
    got = bbr._secant((0.1, y_a.tolist()), (0.3, y_b.tolist()), 0.4)
    assert np.allclose(got, y_b + 0.5 * (y_b - y_a), rtol=1e-12, atol=0)
    # three grid steps past b: one step, no more
    got = bbr._secant((0.1, y_a.tolist()), (0.2, y_b.tolist()), 0.5)
    assert np.array_equal(got, y_b + (y_b - y_a))


def test_root_result_residual_is_that_of_its_state():
    for mode_kind, g, gamma in (("fixed-U", 0.5, 0.5), ("constant-g", 0.3, 1.2),
                                ("fixed-U", 0.1, 1.6)):
        params, mode = bbr._params_at(gamma, g, 100, 1.0, mode_kind)
        res = bbr.steady_root_search(params, mode,
                                     bbr.u0_steady_guess(params).vector)
        assert res.found
        fresh = bbr.moment_rhs(res.state.vector, params, mode)
        assert res.residual == bbr._max_abs(fresh)


def test_sweep_sums_the_work_of_its_searches(monkeypatch):
    results = []
    search = bbr.steady_root_search
    calls = {"moment_rhs": 0, "moment_jacobian": 0}

    def recording(*args, **kwargs):
        results.append(search(*args, **kwargs))
        return results[-1]

    def counting(name):
        kernel = getattr(bbr._kernel, name)

        def spy(*args):
            calls[name] += 1
            return kernel(*args)
        return spy

    monkeypatch.setattr(bbr, "steady_root_search", recording)
    for name in calls:
        monkeypatch.setattr(bbr._kernel, name, counting(name))
    sweep = bbr.sweep_gamma(np.arange(0.2, 1.3, 0.1), 0.5, 100, "fixed-U")
    assert set(sweep.work) == set(bbr.WORK_KEYS)
    assert sweep.work["searches"] == len(results)
    assert sweep.work["newton_steps"] == sum(r.iterations for r in results)
    assert sweep.work["sentinel_hits"] == sum(r.sentinel_hits
                                              for r in results)
    # the end game's evaluations count too: every kernel call and every
    # Jacobian of the sweep, its last (sigma_min) included
    assert sweep.work["kernel_calls"] == calls["moment_rhs"] > sum(
        r.kernel_calls for r in results)
    assert sweep.work["jacobian_evals"] == calls["moment_jacobian"]
    assert sweep.work["arc_steps"] > 0 and sweep.work["corrector_steps"] > 0
    assert bbr.sum_work([sweep, sweep])["searches"] == 2 * len(results)


def test_gamma_column_matches_central_difference():
    # f is linear in gamma, so the central difference is exact up to
    # rounding
    for mode, y in JACOBIAN_CASES:
        fun = bbr._Residual(SystemParams.from_g(g=0.5, gamma=0.8, n0=20),
                            mode)
        col = fun.gamma_column(y.tolist())
        h = 1e-3
        ref = (bbr.moment_rhs(y, SystemParams.from_g(0.5, 0.8 + h, 20), mode)
               - bbr.moment_rhs(y, SystemParams.from_g(0.5, 0.8 - h, 20),
                                mode)) / (2 * h)
        assert np.max(np.abs(np.array(col) - ref)) < 1e-9 * max(
            1.0, np.max(np.abs(ref)))
        assert np.max(np.abs(ref)) > 0.1


@pytest.mark.parametrize("mode_kind, gammas", [
    ("fixed-U", [0.5, 0.9, 0.99]), ("constant-g", [1.5, 1.6, 1.7])])
def test_arc_tangent_is_the_unit_null_vector_of_the_branch(mode_kind,
                                                           gammas):
    # near the end of each branch (a fold at gamma = 0.99903 in fixed-U, a
    # divergence near 1.75 in constant-g)
    y = bbr.sweep_gamma(gammas, 0.5, 100,
                        mode_kind).points[-1].state.vector.tolist()
    params, mode = bbr._params_at(gammas[-1], 0.5, 100, 1.0, mode_kind)
    arc = bbr._Arc(params, mode)
    w = bbr._arc_scale(y)
    e_gamma = np.zeros(15)
    e_gamma[14] = 1.0
    t = arc.tangent(y, gammas[-1], w, e_gamma)
    assert abs(np.linalg.norm(t) - 1.0) < 1e-15
    assert t[14] > 0
    # J (w t[:14]) + t[14] df/dgamma = 0, to rounding: its largest entry
    # is below a few eps times the largest row sum of its terms' magnitudes
    fun = bbr._Residual(params, mode)
    terms = np.column_stack((fun.jacobian(y) * (w * t[:14]),
                             t[14] * np.array(fun.gamma_column(y))))
    assert np.max(np.abs(terms.sum(axis=1))) <= 10 * np.finfo(float).eps \
        * np.max(np.abs(terms).sum(axis=1))
    # in the constant-g singular band the bordered system is singular
    if mode_kind == "constant-g":
        y[3] = 1.0 + 0.5e-6
        with pytest.raises(ConvergenceError, match="singular bordered"):
            arc.tangent(y, gammas[-1], w, e_gamma)


@pytest.mark.parametrize("mode_kind, gammas", [
    ("fixed-U", [0.5, 0.9, 0.99]), ("constant-g", [1.5, 1.6, 1.7])])
def test_arc_corrector_lands_on_the_branch_in_the_predictor_hyperplane(
        mode_kind, gammas):
    y = bbr.sweep_gamma(gammas, 0.5, 100,
                        mode_kind).points[-1].state.vector.tolist()
    params, mode = bbr._params_at(gammas[-1], 0.5, 100, 1.0, mode_kind)
    arc = bbr._Arc(params, mode)
    w = bbr._arc_scale(y)
    e_gamma = np.zeros(15)
    e_gamma[14] = 1.0
    t = arc.tangent(y, gammas[-1], w, e_gamma)
    u0 = np.array(y) / w + 0.2 * t[:14]
    gamma0 = gammas[-1] + 0.2 * t[14]
    y1, gamma1, steps = arc.correct(u0, gamma0, t, w)
    assert steps >= 2 and arc.corrector_steps == steps
    # t . (z - z0) = 0 in the scaled coordinates z = (y / w, gamma)
    assert abs(t[:14] @ (np.array(y1) / w - u0)
               + t[14] * (gamma1 - gamma0)) < 1e-12
    params1 = SystemParams.from_g(g=0.5, gamma=gamma1, n0=100)
    resid = np.max(np.abs(bbr.moment_rhs(y1, params1, mode)))
    assert resid < max(1e-9, bbr._residual_floor(y1, params1))


def test_fixed_u_branch_ends_in_a_located_fold(monkeypatch):
    searched = []
    search = bbr.steady_root_search

    def recording(params, *args, **kwargs):
        res = search(params, *args, **kwargs)
        searched.append((params.gamma, res.found))
        return res

    monkeypatch.setattr(bbr, "steady_root_search", recording)
    sweep = bbr.sweep_gamma(np.arange(0.2, 1.3, 0.1), 0.5, 100, "fixed-U")
    assert sweep.end == "fold"
    # the fold, located by the end game's secant on the tangent, lies at
    # gamma = 0.9990273 (criterion 6 reads 0.9990272590)
    assert sweep.boundary == pytest.approx(0.9990273, abs=1e-6)
    assert sweep.sigma_min < 1e-8
    # the fold is the last tail state, the branch's largest gamma, and is
    # the only state reported at that gamma
    fold_gamma, fold = sweep.existing_states()[-1]
    assert fold_gamma == sweep.boundary == max(
        gamma for gamma, _ in sweep.existing_states())
    assert 100 < fold.n < 300
    # one search ran past the fold: the natural-continuation step that
    # failed; the end game solved at no gamma past the branch's end
    past = [found for gamma, found in searched if gamma > sweep.boundary]
    assert past == [False]


def test_constant_g_branch_diverges():
    grid = np.arange(1.5, 2.01, 0.05)
    sweep = bbr.sweep_gamma(grid, 0.3, 100, "constant-g")
    assert sweep.end == "divergence"
    exists = np.array([p.exists for p in sweep.points])
    gammas = grid[exists]
    assert not np.any(grid[~exists] < sweep.boundary)
    assert gammas.max() < sweep.boundary < grid[~exists].min()
    # the tail follows n over orders of magnitude toward the pure
    # condensate, each state physical with its residual at the floor
    ns = [p.state.n for p in sweep.tail]
    assert np.all(np.diff(ns) > 0) and ns[-1] > 1e5
    assert sweep.tail[-1].gamma == sweep.boundary
    assert sweep.tail[-1].state.purity > 0.999
    for p in sweep.tail:
        params = SystemParams.from_g(g=0.3, gamma=p.gamma, n0=100)
        y = p.state.vector
        assert bbr._classify(y)
        resid = np.max(np.abs(bbr.moment_rhs(y, params, bbr.ConstantG(0.3))))
        assert resid < max(1e-9, bbr._residual_floor(y, params))


@pytest.mark.parametrize("stop", [1.94, 1.92])
def test_end_game_follows_the_branch_to_its_end(monkeypatch, stop):
    # the constant-g g = 0.3 branch diverges near gamma = 1.9268; natural
    # continuation fails first at 1.91, where the end game takes over for
    # the rest of the sweep: it diverges before 1.93, or reaches the grid
    # end at 1.91
    failed, end_games = [], []
    search, end_game = bbr.steady_root_search, bbr._end_game

    def recording(params, *args, **kwargs):
        res = search(params, *args, **kwargs)
        if not res.found:
            failed.append(params.gamma)
        return res

    def counting(*args, **kwargs):
        end_games.append(args[3])
        return end_game(*args, **kwargs)

    monkeypatch.setattr(bbr, "steady_root_search", recording)
    monkeypatch.setattr(bbr, "_end_game", counting)
    grid = np.arange(1.85, stop, 0.02)
    sweep = bbr.sweep_gamma(grid, 0.3, 100, "constant-g")
    assert failed == [pytest.approx(1.91)]
    assert end_games == [grid[3:].tolist()]
    exists = [p.exists for p in sweep.points]
    if stop == 1.94:
        assert exists == [True, True, True, True, False]
        assert sweep.end == "divergence"
        assert sweep.boundary == pytest.approx(
            1.92679, abs=bbr.BOUNDARY_RESOLUTION)
    else:
        assert exists == [True, True, True, True]
        assert (sweep.end, sweep.boundary) == ("grid end", None)
        assert sweep.sigma_min == pytest.approx(1.5457830945611165e-08,
                                                rel=1e-12)


def test_sweep_end_kinds_without_an_end_game():
    sweep = bbr.sweep_gamma([0.2, 0.4], 0.1, 10, "fixed-U")
    assert (sweep.end, sweep.boundary, sweep.tail) == ("grid end", None, [])
    assert sweep.sigma_min > 0
    # the constant-g g = 0.5 branch ends near gamma = 1.75
    sweep = bbr.sweep_gamma([1.9, 1.95], 0.5, 100, "constant-g")
    assert (sweep.end, sweep.boundary, sweep.sigma_min) == (
        "no anchor", 1.9, None)
    assert not any(p.exists for p in sweep.points)


def test_end_game_that_finds_no_end_raises(monkeypatch):
    monkeypatch.setattr(bbr, "ARC_MAX_STEPS", 2)
    with pytest.raises(ConvergenceError, match="no end of the branch"):
        bbr.sweep_gamma(np.arange(1.5, 2.01, 0.05), 0.3, 100, "constant-g")


def test_constant_g_kernel_receives_python_floats(monkeypatch):
    seen = []
    kernel = bbr._kernel.moment_rhs

    def spy(y, J, U, gamma_gain, gamma_loss, out):
        seen.append((J, U, gamma_gain, gamma_loss))
        return kernel(y, J, U, gamma_gain, gamma_loss, out)

    monkeypatch.setattr(bbr._kernel, "moment_rhs", spy)
    params = SystemParams.from_g(g=np.float64(0.5), gamma=np.float64(0.6),
                                 n0=20)
    y = bbr.pure_state_moments(1.0, 0.3, 20).vector
    bbr.moment_rhs(y, params, bbr.ConstantG(np.float64(0.5)))
    bbr.moment_rhs(y, params, bbr.FixedU(np.float64(params.U)))
    assert len(seen) == 2
    assert all(type(v) is float for args in seen for v in args)


def test_max_abs_propagates_nan_like_numpy():
    for v in ([1.0, -3.0, 2.0], [math.nan, 1.0], [1.0, math.nan],
              [math.inf, -math.inf], [-0.0, 0.0]):
        got = bbr._max_abs(v)
        assert type(got) is float
        assert np.array_equal(got, np.max(np.abs(v)), equal_nan=True)


def test_generated_kernels_match_the_derivation():
    pytest.importorskip("sympy")
    tool = Path(__file__).resolve().parents[1] / "tools" / "derive_moment_rhs.py"
    proc = subprocess.run([sys.executable, str(tool), "--check"],
                          capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stdout + proc.stderr


def test_pure_state_moments_examples():
    st = bbr.pure_state_moments(np.pi / 2, 0.0, 1)
    assert st.s == pytest.approx([1, 0, 0], abs=1e-15)
    assert st.n == 1.0
    rng = np.random.default_rng(1)
    for _ in range(5):
        theta, phi = rng.uniform(0, np.pi), rng.uniform(0, 2 * np.pi)
        st = bbr.pure_state_moments(theta, phi, 7)
        assert st.purity == pytest.approx(1.0, abs=1e-13)


def test_pure_state_moments_match_fock_construction():
    basis = fock.build_basis(8)
    theta, phi, n = np.pi / 2, np.pi / 2, 5
    rho = fock.density_from_state(fock.coherent_state(basis, theta, phi, n))
    m = fock.bloch_moments(rho, basis)
    st = bbr.pure_state_moments(theta, phi, n)
    assert st.vector == pytest.approx(m.vector, abs=1e-10)


def test_rhs_u0_first_moments_linear():
    # at U = 0 the first-moment block is the known linear system and is
    # unaffected by the covariances
    rng = np.random.default_rng(2)
    y = rng.normal(scale=5, size=14)
    y2 = y.copy()
    y2[4:] = rng.normal(scale=5, size=10)
    p = SystemParams(J=1.3, U=0.0, gamma=0.7, n0=6)
    d1 = bbr.moment_rhs(y, p, bbr.FixedU(0.0))
    d2 = bbr.moment_rhs(y2, p, bbr.FixedU(0.0))
    assert d1[:4] == pytest.approx(d2[:4], abs=1e-12)
    gm, gp = p.gamma_minus, p.gamma_plus
    assert d1[0] == pytest.approx(-gm * y[0])
    assert d1[1] == pytest.approx(2 * p.J * y[2] - gm * y[1])
    assert d1[2] == pytest.approx(-2 * p.J * y[1] + gp * y[3] - gm * y[2]
                                  + p.gamma_gain)
    assert d1[3] == pytest.approx(-gm * y[3] + gp * y[2] + p.gamma_gain)


def test_rhs_vanishes_at_u0_steady_state():
    res = bbr.steady_root_search(P100, bbr.FixedU(0.0),
                                 bbr.u0_steady_guess(P100).vector)
    assert res.found
    d = bbr.moment_rhs(res.state.vector, P100, bbr.FixedU(0.0))
    assert np.max(np.abs(d)) < 1e-9
    alpha = cf.steady_alpha(P100)
    assert res.state.s[0] == pytest.approx(0.0, abs=1e-8)
    assert res.state.s[1] == pytest.approx(alpha.s_y, abs=1e-8)
    assert res.state.s[2] == pytest.approx(alpha.s_z, abs=1e-8)
    assert res.state.n == pytest.approx(alpha.n, abs=1e-8)


def test_rhs_matches_exact_derivative_u0():
    basis = fock.build_basis(12)
    params = SystemParams(J=1.0, U=0.0, gamma=0.5, n0=5)
    rho0 = fock.density_from_state(fock.coherent_state(basis, 1.2, 0.7, 5))
    y0 = fock.bloch_moments(rho0, basis).vector
    rhs = bbr.moment_rhs(y0, params, bbr.FixedU(0.0))
    fd = fd_moment_derivative(rho0, params, basis)
    assert rhs == pytest.approx(fd, abs=1e-6)


def test_rhs_matches_exact_derivative_with_defect_accounting():
    # with interaction the covariance equations differ from the exact
    # derivative by exactly the factorized third-order terms
    basis = fock.build_basis(12)
    params = SystemParams.from_g(g=0.5, gamma=0.5, n0=5)
    rho0 = fock.density_from_state(fock.coherent_state(basis, 1.2, 0.7, 5))
    y0 = fock.bloch_moments(rho0, basis).vector
    rhs = bbr.moment_rhs(y0, params, bbr.FixedU(params.U))
    fd = fd_moment_derivative(rho0, params, basis)
    defect = closure_defect(rho0, basis, params.U)
    assert fd[:4] == pytest.approx(rhs[:4], abs=1e-6)
    assert fd == pytest.approx(rhs + defect, abs=2e-6)
    # the defect is a real effect here, not noise
    assert np.max(np.abs(defect)) > 1e-2


def test_integrate_u0_equals_closed_form():
    st0 = bbr.pure_state_moments(np.pi / 2, 0.3, 5)
    params = SystemParams(J=1.0, U=0.0, gamma=0.8, n0=5)
    traj = bbr.integrate(st0, 20.0, params, bbr.FixedU(0.0))
    pred = cf.oscillatory_solution(st0.vector[:4], params).moments(traj.ts)
    assert np.max(np.abs(traj.ys[:, :4].T - pred)) < 1e-8


def test_integrate_closed_system_conserves_n():
    st0 = bbr.pure_state_moments(1.0, 0.5, 5)
    params = SystemParams(J=1.0, U=0.1, gamma=0.0, n0=5)
    traj = bbr.integrate(st0, 10.0, params, bbr.FixedU(0.1))
    assert np.max(np.abs(traj.n - 5)) < 1e-10


def test_interacting_symmetric_states_oscillate_weakly():
    # with interaction the balanced stationary-angle state still shows the
    # weakest purity oscillations of the pure-state family
    from gldimer import meanfield

    params = SystemParams.from_g(g=0.5, gamma=1.5, n0=100)
    ground, _ = meanfield.pt_stationary_states(1.0, 1.5)

    def purity_amplitude(theta, phi):
        st0 = bbr.pure_state_moments(theta, phi, 100)
        traj = bbr.integrate(st0, 6.0, params, bbr.FixedU(params.U),
                             rtol=1e-9, atol=1e-11)
        return traj.purity.max() - traj.purity.min()

    amp_ground = purity_amplitude(ground.theta, ground.phi)
    assert amp_ground < 0.16
    for theta, phi in ((np.pi / 2, 0.0), (np.pi / 2, np.pi), (1.0, 2.0)):
        assert amp_ground < purity_amplitude(theta, phi)


def test_constant_g_singularity():
    st = fock.BlochMoments(s_x=0.5, s_y=0.0, s_z=0.0, n=1.0 + 1e-8,
                           delta=np.zeros((4, 4)))
    params = SystemParams(J=1.0, U=0.0, gamma=0.1, n0=2)
    with pytest.raises(InteractionSingularityError):
        bbr.moment_rhs(st.vector, params, bbr.ConstantG(0.5))


def test_root_residual_contract_small_scale():
    # at desk scale the returned residual honors the absolute contract
    for n0, gamma in ((5, 0.5), (10, 0.8)):
        params = SystemParams(J=1.0, U=0.0, gamma=gamma, n0=n0)
        res = bbr.steady_root_search(params, bbr.FixedU(0.0),
                                     bbr.u0_steady_guess(params).vector,
                                     residual_tol=1e-10)
        assert res.found
        assert res.residual < 1e-10


def test_root_search_interacting_vs_exact(fig3_params, fig3_steady):
    res = bbr.steady_root_search(fig3_params, bbr.FixedU(fig3_params.U),
                                 bbr.u0_steady_guess(fig3_params).vector)
    assert res.found
    m = fig3_steady.moments
    scale = max(1.0, m.n)
    # closed moment equations approximate the exact steady state to a few
    # per cent of the particle number at this interaction strength
    assert abs(res.state.s[0] - m.s_x) / scale < 0.05
    assert abs(res.state.s[1] - m.s_y) / scale < 0.05
    assert abs(res.state.s[2] - m.s_z) / scale < 0.05
    assert abs(res.state.n - m.n) / scale < 0.08


# the unphysical constant-g root at g = 0.5, gamma = 1.75 (n = 27.05,
# purity 2.56, a negative D_zz), to six digits
UNPHYSICAL_ROOT = [-35.8194, 24.3021, -0.722262, 27.0516, 806.755, 1318.84,
                   35.5587, 2887.94, 1538.48, 24.7862, 3995.09, -291.741,
                   37.4137, 10390.5]


def test_root_search_reports_unphysical_roots():
    # just past the constant-g boundary the remaining root is unphysical
    params = SystemParams.from_g(g=0.5, gamma=1.75, n0=100)
    mode = bbr.ConstantG(0.5)
    # from the last physical grid state before it, Newton does not reach
    # it
    sweep = bbr.sweep_gamma(np.arange(1.5, 1.74, 0.02), 0.5, 100,
                            "constant-g")
    last = [p for p in sweep.points if p.exists][-1].state
    assert not bbr.steady_root_search(params, mode, last.vector).converged
    # from within 10 % of it, it does, and reports the root unphysical
    res = bbr.steady_root_search(params, mode, 1.1 * np.array(UNPHYSICAL_ROOT))
    assert res.converged and not res.physical and not res.found
    assert res.iterations <= 3
    assert res.state.n == pytest.approx(27.0516, rel=1e-5)
    assert res.state.purity == pytest.approx(2.561, rel=1e-3)


def test_sweep_warm_start_continuity():
    sweep = bbr.sweep_gamma(np.arange(0.1, 1.05, 0.05), 0.3, 20, "fixed-U")
    states = [p.state for p in sweep.points if p.exists]
    assert len(states) >= 10
    for a, b in zip(states, states[1:]):
        assert abs(b.n - a.n) / max(1.0, a.n) < 0.6


def test_sweep_boundary_resolution():
    sweep = bbr.sweep_gamma(np.arange(0.2, 1.3, 0.1), 0.5, 100, "fixed-U")
    assert sweep.boundary == pytest.approx(0.999, abs=5e-3)
    existing = [p.gamma for p in sweep.points if p.exists]
    assert max(existing) < sweep.boundary


def test_sweep_csv_schema(tmp_path):
    sweep = bbr.sweep_gamma([0.2, 0.4], 0.1, 10, "fixed-U")
    path = tmp_path / "sweep.csv"
    bbr.sweep_to_csv([sweep], path)
    lines = path.read_text().splitlines()
    assert lines[0] == "gamma,g,exists,s_x,s_y,s_z,n,P,Delta_n"
    assert len(lines) == 3


def test_divergence_time_report():
    # closed moment dynamics tracks the exact one for a limited span;
    # measure and report where the first moments drift past one per cent
    basis = fock.build_basis(16)
    params = SystemParams.from_g(g=0.5, gamma=0.5, n0=4)
    rho0 = fock.density_from_state(
        fock.coherent_state(basis, np.pi / 2, 0.0, 4))
    st0 = fock.bloch_moments(rho0, basis)
    horizon = 12.0
    cfg = liouville.PropagationConfig(rtol=1e-10, atol=1e-12,
                                      sample_interval=0.25,
                                      truncation_ceiling=1e-3)
    exact = liouville.moment_trajectory(rho0, horizon, params, basis, cfg)
    approx = bbr.integrate(st0, horizon, params, bbr.FixedU(params.U),
                           sample_interval=0.25)
    scale = max(4.0, np.max(exact.n))
    err = np.max(np.abs(approx.ys[:, :4]
                        - np.column_stack((exact.s_x, exact.s_y, exact.s_z,
                                           exact.n))), axis=1) / scale
    beyond = np.flatnonzero(err > 0.01)
    t_div = approx.ts[beyond[0]] if len(beyond) else np.inf
    print(f"\nmoment-closure 1% divergence time at N0=4, g=0.5, gamma=0.5: "
          f"t = {t_div:.2f}/J (horizon {horizon}/J)")
    # short-time accuracy is a hard requirement; the long-time drift is
    # reported, not asserted
    assert np.all(err[approx.ts <= 2.0] < 0.01)
