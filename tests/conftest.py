import numpy as np
import pytest

from gldimer import fock, liouville, steadysolve
from gldimer.ode import integrate_dp45
from gldimer.system import SystemParams


def random_density(basis, rng, n_kets=4, max_total=None):
    """Random valid density matrix supported away from the basis boundary."""
    if max_total is None:
        max_total = max(1, basis.cutoff - 2)
    sel = np.flatnonzero(basis.total_of <= max_total)
    rho = np.zeros((basis.dim, basis.dim), dtype=complex)
    weights = rng.dirichlet(np.ones(n_kets))
    for w in weights:
        v = np.zeros(basis.dim, dtype=complex)
        v[sel] = rng.normal(size=len(sel)) + 1j * rng.normal(size=len(sel))
        rho += w * fock.density_from_state(v)
    return rho


@pytest.fixture(scope="session")
def fig3_params():
    return SystemParams.from_g(g=0.5, gamma=0.5, n0=5)


@pytest.fixture(scope="session")
def basis24():
    return fock.build_basis(24)


@pytest.fixture(scope="session")
def fig3_steady(steady_n0_5):
    """Interacting steady state at the reference parameter set."""
    return steady_n0_5(0.5, 24)


@pytest.fixture(scope="session")
def u0_steady_n5(basis24):
    """Non-interacting steady state at the same gain-loss strength."""
    params = SystemParams(J=1.0, U=0.0, gamma=0.5, n0=5)
    cfg = steadysolve.SteadySolveConfig(truncation_ceiling=1e-3)
    return params, steadysolve.solve_steady(params, basis24, cfg)


@pytest.fixture(scope="session")
def steady_n0_5():
    """The steady state at n0 = 5, gamma = 0.5 (fig3_params at g = 0.5) for
    a given (g, cutoff); each is solved once per session."""
    cfg = steadysolve.SteadySolveConfig(truncation_ceiling=5e-3)
    solved = {}

    def steady(g, cutoff):
        if (g, cutoff) not in solved:
            solved[g, cutoff] = steadysolve.solve_steady(
                SystemParams.from_g(g=g, gamma=0.5, n0=5),
                fock.build_basis(cutoff), cfg)
        return solved[g, cutoff]

    return steady


def fd_moment_derivative(rho0, params, basis, eps=0.01):
    """Richardson-extrapolated central difference of the 14 moment
    expectation values under exact master-equation propagation, at t = 0.

    Independent oracle for the closed moment equations: only the exact
    generator and short full-state propagations enter.
    """
    lv = liouville.build_liouvillian(params, basis)
    vals = {}
    for s in (+2, +1, -1, -2):
        res = integrate_dp45(lambda _t, v: lv @ v, (0.0, s * eps),
                             rho0.ravel(order="F"), rtol=1e-12, atol=1e-14)
        rho = res.y.reshape((basis.dim,) * 2, order="F")
        vals[s] = fock.bloch_moments(rho, basis).vector
    d1 = (vals[1] - vals[-1]) / (2 * eps)
    d2 = (vals[2] - vals[-2]) / (4 * eps)
    return (4 * d1 - d2) / 3


def closure_defect(rho, basis, u):
    """Exact accounting of the third-order factorization error per moment
    component, from the generated triple table."""
    from gldimer._closure_defects import CLOSURE_TRIPLES

    blocks = {}
    for pair in [(1, 1), (1, 2), (2, 1), (2, 2)]:
        blocks[pair] = fock.creation(basis, pair[0]) @ fock.annihilation(
            basis, pair[1])
    singles = {p: fock.expectation(blocks[p], rho) for p in blocks}
    pair_vals = {}
    for p1 in blocks:
        for p2 in blocks:
            pair_vals[(p1, p2)] = fock.expectation(blocks[p1] @ blocks[p2],
                                                   rho)
    out = np.zeros(14)
    for idx, terms in CLOSURE_TRIPLES.items():
        total = 0j
        for coeff, (p1, p2, p3) in terms:
            exact = fock.expectation((blocks[p1] @ blocks[p2]) @ blocks[p3],
                                     rho)
            closed = (pair_vals[(p1, p2)] * singles[p3]
                      + pair_vals[(p1, p3)] * singles[p2]
                      + pair_vals[(p2, p3)] * singles[p1]
                      - 2 * singles[p1] * singles[p2] * singles[p3])
            total += coeff * (exact - closed)
        out[idx] = (u * total).real
    return out
