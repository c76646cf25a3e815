"""Acceptance suite: one test per criterion, each printing a PASS/FAIL
line with the measured quantities at the stated tolerances.

Criteria 2, 6 and 7 contain sub-clauses whose stated bounds are
unattainable for this system (measured honestly here and analyzed in the
project notes); those asserts are implemented exactly as stated and fail
with the measured values in the message, after the attainable sub-clauses
have been checked.
"""

import contextlib

import numpy as np
import pytest

from gldimer import bbr, closedform as cf, fock, liouville, meanfield as mf
from gldimer import steadysolve
from gldimer.errors import CoalescenceError
from gldimer.system import SystemParams

from conftest import closure_defect, fd_moment_derivative


@contextlib.contextmanager
def criterion(num, description):
    try:
        yield
    except BaseException:
        print(f"\n[FAIL] criterion {num}: {description}")
        raise
    print(f"\n[PASS] criterion {num}: {description}")


def test_criterion_01_steady_state_reduced_moments():
    with criterion(1, "U=0 steady moments: reduced s_y and purity"):
        params = SystemParams(J=1.0, U=0.0, gamma=1.5, n0=100)
        alpha = cf.steady_alpha(params)
        print(f"  s_y' = {alpha.reduced_s_y:.6f} (required [0.74, 0.76])")
        print(f"  P    = {alpha.purity:.6f} (required [0.545, 0.565])")
        assert 0.74 <= alpha.reduced_s_y <= 0.76
        assert 0.545 <= alpha.purity <= 0.565


def test_criterion_02_steady_distributions(fig3_params, basis24, fig3_steady):
    with criterion(2, "steady-state site and total distributions vs the "
                      "geometric laws (N0=5, g=0.5, gamma=0.5, cutoff=24)"):
        xi = 5 / 7
        geo = cf.single_mode_steady(fig3_params.gamma_gain,
                                    fig3_params.gamma_loss).probabilities(24)
        q_prod = cf.combined_product_probs(xi, 48)
        p1 = fock.site_distribution(fig3_steady.rho, basis24, 1)
        p2 = fock.site_distribution(fig3_steady.rho, basis24, 2)
        q = fock.total_number_distribution(fig3_steady.rho, basis24)
        dev1 = float(np.max(np.abs(p1 - geo)))
        dev2 = float(np.max(np.abs(p2 - geo)))
        dev_q_tail = float(np.max(np.abs(q - q_prod)[5:]))
        excess = q_prod[:5] - q[:5]
        print(f"  site marginal max-abs deviations: {dev1:.4f}, {dev2:.4f} "
              "(required < 0.01 each)")
        print(f"  combined deviation for j >= 5: {dev_q_tail:.4f} "
              "(required < 0.02)")
        print(f"  analytic-product excess at j < 5: {excess}")
        assert dev_q_tail < 0.02
        # the visible discrepancy sits below j = 5 and is an excess of the
        # analytic product over the numerical result
        assert np.all(excess > -1e-6)
        assert np.max(excess) > dev_q_tail
        assert dev1 < 0.01, (
            f"site-1 marginal deviates by {dev1:.4f} > 0.01; the honest "
            "deviation of the exact steady state from the geometric law is "
            "1.5e-2 at occupation 0 (see notes)")
        assert dev2 < 0.01, f"site-2 marginal deviates by {dev2:.4f} > 0.01"


def test_criterion_03_u0_oracle_equivalence():
    with criterion(3, "exact propagation matches the closed-form moment "
                      "solution to 1e-6 over t in [0, 20/J]"):
        rng = np.random.default_rng(42)
        basis = fock.build_basis(60)
        params = SystemParams(J=1.0, U=0.0, gamma=0.5, n0=5)
        cfg = liouville.PropagationConfig(
            rtol=1e-10, atol=1e-13, sample_interval=0.25,
            truncation_ceiling=1e-8)
        worst = 0.0
        for trial in range(3):
            theta = float(np.arccos(rng.uniform(-1, 1)))
            phi = float(rng.uniform(0, 2 * np.pi))
            rho0 = fock.density_from_state(
                fock.coherent_state(basis, theta, phi, 5))
            traj = liouville.moment_trajectory(rho0, 20.0, params, basis, cfg)
            init = (traj.s_x[0], traj.s_y[0], traj.s_z[0], traj.n[0])
            pred = cf.oscillatory_solution(init, params).moments(traj.ts)
            err = max(
                np.max(np.abs(traj.s_x - pred[0])),
                np.max(np.abs(traj.s_y - pred[1])),
                np.max(np.abs(traj.s_z - pred[2])),
                np.max(np.abs(traj.n - pred[3])))
            mass = traj.truncation_mass.max()
            worst = max(worst, err)
            print(f"  state {trial}: max moment error {err:.2e}, "
                  f"boundary mass {mass:.2e}")
            assert mass < 1e-8
        assert worst < 1e-6


def test_criterion_04_nonoscillatory_branches():
    with criterion(4, "non-oscillatory branches: existence, coalescence "
                      "ordering and the large-n limit"):
        # (a) both azimuth branches exist and are supplementary
        for gamma in np.arange(0.05, 1.91, 0.05):
            pair = cf.nonoscillatory_states(
                SystemParams(J=1.0, U=0.0, gamma=float(gamma), n0=100))
            assert pair.phi_ground + pair.phi_excited == pytest.approx(
                np.pi, abs=1e-12)
        # (b) branch coalescence strictly below 2J and the critical point
        lo, hi = 1.9, 2.1
        while hi - lo > 1e-6:
            mid = 0.5 * (lo + hi)
            try:
                cf.nonoscillatory_states(
                    SystemParams(J=1.0, U=0.0, gamma=mid, n0=100))
                lo = mid
            except CoalescenceError:
                hi = mid
        coalescence = 0.5 * (lo + hi)
        print(f"  branch coalescence at gamma = {coalescence:.6f}; "
              f"mean-field pair at 2.0; critical point at "
              f"{cf.critical_gamma(100):.6f}")
        assert coalescence < 2.0
        assert coalescence < cf.critical_gamma(100)
        # (c) large-particle-number limit
        pair = cf.nonoscillatory_states(
            SystemParams(J=1.0, U=0.0, gamma=1.5, n0=10**6))
        ground, excited = mf.pt_stationary_states(1.0, 1.5)
        assert pair.phi_ground == pytest.approx(ground.phi, abs=1e-5)
        assert pair.phi_excited == pytest.approx(excited.phi, abs=1e-5)
        assert pair.theta == pytest.approx(np.pi / 2, abs=1e-5)


def test_criterion_05_nonoscillation_property():
    with criterion(5, "the ground-like branch state has zero oscillation "
                      "amplitude and constant s_z"):
        params = SystemParams(J=1.0, U=0.0, gamma=1.5, n0=100)
        pair = cf.nonoscillatory_states(params)
        state = bbr.pure_state_moments(pair.theta, pair.phi_ground, 100)
        sol = cf.oscillatory_solution(state.vector[:4], params)
        alpha = cf.steady_alpha(params)
        ts = np.linspace(0.0, 40.0, 100)
        dev = np.max(np.abs(sol.moments(ts)[2] - alpha.s_z))
        print(f"  oscillation amplitude {sol.amp_osc:.2e}, "
              f"max |s_z(t) - alpha_3| = {dev:.2e}")
        assert abs(sol.amp_osc) < 1e-10
        assert dev < 1e-10


def test_criterion_06_fixed_u_steady_branch():
    with criterion(6, "fixed-U steady branches: boundary ordering and "
                      "moment structure at gamma = 1.0"):
        gammas = np.arange(0.05, 2.11, 0.05)
        sweeps = {g: bbr.sweep_gamma(gammas, g, 100, "fixed-U")
                  for g in (0.1, 0.5, 1.0)}
        boundaries = {g: sweeps[g].boundary for g in sweeps}
        for g, sweep in sweeps.items():
            print(f"  g={g}: branch ends in a {sweep.end} at gamma = "
                  f"{sweep.boundary:.10f}, sigma_min = {sweep.sigma_min:.2e}")
        assert boundaries[0.1] > boundaries[0.5] > boundaries[1.0]

        alpha_1 = cf.steady_alpha(
            SystemParams(J=1.0, U=0.0, gamma=1.0, n0=100))

        # paper-faithful structure inside the common existence window
        gamma_common = 0.6
        alpha_c = cf.steady_alpha(
            SystemParams(J=1.0, U=0.0, gamma=gamma_common, n0=100))
        sx_prev = 0.0
        for g in (0.1, 0.5, 1.0):
            st = [p.state for p in sweeps[g].points
                  if p.exists and abs(p.gamma - gamma_common) < 1e-9][0]
            print(f"  gamma={gamma_common} g={g}: s_x={st.s[0]:.3f} "
                  f"s_y={st.s[1]:.3f} (U=0: {alpha_c.s_y:.3f})")
            assert st.s[0] <= 0
            assert abs(st.s[0]) > abs(sx_prev)
            assert abs(st.s[1] - alpha_c.s_y) < 0.1 * alpha_c.s_y
            sx_prev = st.s[0]

        # the literal clause at gamma = 1.0
        sx_prev = 0.0
        for g in (0.1, 0.5, 1.0):
            at_1 = [p for p in sweeps[g].points if abs(p.gamma - 1.0) < 1e-9]
            assert at_1 and at_1[0].exists, (
                f"no steady state exists at gamma=1.0 for g={g}: the branch "
                f"ends at gamma = {boundaries[g]:.4f} (see notes; the "
                "comparison gamma exceeds the measured existence boundary)")
            st = at_1[0].state
            assert st.s[0] <= 0
            assert abs(st.s[0]) > abs(sx_prev)
            assert abs(st.s[1] - alpha_1.s_y) < 0.1 * alpha_1.s_y
            sx_prev = st.s[0]


def test_criterion_07_constant_g_pure_steady_state():
    with criterion(7, "constant-g steady branch reaches near-unit purity; "
                      "purity across the [1.5,2]x[0,0.75] grid"):
        sweep = bbr.sweep_gamma(np.arange(0.1, 2.21, 0.02), 0.5, 100,
                                "constant-g")
        max_p = max(st.purity for _g, st in sweep.existing_states())
        print(f"  g=0.5: branch ends in a {sweep.end} at gamma = "
              f"{sweep.boundary:.7f}, max purity over grid and tail "
              f"{max_p:.5f} (required > 0.99)")
        assert max_p > 0.99

        grid_gammas = np.linspace(1.5, 2.0, 5)
        grid_gs = np.linspace(0.0, 0.75, 4)
        existing = []
        for g in grid_gs:
            sw = bbr.sweep_gamma(grid_gammas, float(g), 100, "constant-g")
            for p in sw.points:
                if p.exists:
                    existing.append((p.gamma, p.g, p.state.purity))
        print("  grid points (gamma, g, P):")
        for gamma, g, pur in existing:
            print(f"    ({gamma:.3f}, {g:.2f}): P = {pur:.4f}")
        assert existing, "no steady state found anywhere on the grid"
        worst = min(existing, key=lambda row: row[2])
        assert worst[2] > 0.9, (
            f"existing steady state at (gamma={worst[0]:.3f}, g={worst[1]:.2f}) "
            f"has P = {worst[2]:.4f} <= 0.9; note criterion 1 itself pins "
            "P(gamma=1.5, g=0) near 0.556, so this bound cannot hold on the "
            "full grid (see notes)")


def test_criterion_08_attractor_rate(u0_steady_n5, basis24):
    with criterion(8, "perturbations decay toward the steady state at the "
                      "slow-mode rate"):
        params, sol = u0_steady_n5
        period = 2 * np.pi / np.sqrt(4 - params.gamma_plus**2)
        rep = steadysolve.verify_attractor(
            sol.rho, params, basis24, perturbation_scale=0.05,
            t_horizon=12 * period, sample_interval=period,
            n_perturbations=3, seed=1)
        gm = params.gamma_minus
        rel = np.abs(rep.fitted_rates - gm) / gm
        print(f"  fitted decay rates {rep.fitted_rates} vs gamma_minus "
              f"{gm:.5f} (relative deviations {rel})")
        assert np.all(np.isfinite(rep.fitted_rates))
        assert np.all(rel < 0.25)


def test_criterion_09_closure_consistency_gate():
    with criterion(9, "closed moment equations match exact derivatives at "
                      "t=0, with the factorization defect accounted"):
        basis = fock.build_basis(14)
        rng = np.random.default_rng(7)
        names = fock.COMPONENT_NAMES
        for n0 in (4, 6):
            for g in (0.0, 0.5):
                params = SystemParams.from_g(g=g, gamma=0.5, n0=n0)
                for _ in range(2):
                    theta = float(np.arccos(rng.uniform(-1, 1)))
                    phi = float(rng.uniform(0, 2 * np.pi))
                    rho0 = fock.density_from_state(
                        fock.coherent_state(basis, theta, phi, n0))
                    y0 = fock.bloch_moments(rho0, basis).vector
                    rhs = bbr.moment_rhs(y0, params, bbr.FixedU(params.U))
                    fd = fd_moment_derivative(rho0, params, basis)
                    defect = closure_defect(rho0, basis, params.U)
                    for i in range(14):
                        if abs(defect[i]) < 1e-5:
                            assert abs(fd[i] - rhs[i]) < 1e-5, (
                                f"{names[i]} at n0={n0}, g={g}")
                        else:
                            print(f"  n0={n0} g={g} {names[i]}: "
                                  f"third-order term {defect[i]:+.4e}, "
                                  f"fd-rhs {fd[i] - rhs[i]:+.4e}")
                            assert abs(fd[i] - rhs[i] - defect[i]) < 1e-5, (
                                f"{names[i]} defect accounting at "
                                f"n0={n0}, g={g}")


def test_criterion_10_meanfield_consistency():
    with criterion(10, "stationary mean-field states and large-n moment "
                       "dynamics agreement"):
        for gamma in (0.5, 1.0, 1.5):
            ground, excited = mf.pt_stationary_states(1.0, gamma)
            for state in (ground, excited):
                psi = mf.state_from_angles(state.phi, state.theta)
                dphi, dtheta = mf.angle_velocities(psi, 1.0, 0.5, gamma)
                assert abs(dphi) < 1e-10 and abs(dtheta) < 1e-10
        n0, gamma, g = 10**4, 1.0, 0.5
        ground, _ = mf.pt_stationary_states(1.0, gamma)
        psi0 = mf.state_from_angles(ground.phi, ground.theta)
        traj_mf = mf.integrate_gpe(psi0, 10.0, 1.0, g, gamma,
                                   sample_interval=0.05)
        params = SystemParams.from_g(g=g, gamma=gamma, n0=n0)
        st0 = bbr.pure_state_moments(ground.theta, ground.phi, n0)
        traj_b = bbr.integrate(st0, 10.0, params, bbr.FixedU(params.U),
                               sample_interval=0.05)
        dist = float(np.max(np.linalg.norm(
            traj_b.reduced_bloch - traj_mf.bloch, axis=1)))
        print(f"  max reduced-Bloch distance over t <= 10/J: {dist:.2e} "
              "(required < 1e-2)")
        assert dist < 1e-2
