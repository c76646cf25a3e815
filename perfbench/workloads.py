"""The three benchmark workloads: seeded inputs, timed items and checks.

An item is one library call that the benchmark times.  Its check runs
outside the timed call and compares the result with an analytic or
independent reference.  Every workload has

* `setup()`: basis-level tables and, where the workload's parameters are
  fixed for a whole run, the generators (counted in `setup_s`);
* `warm_caches()`: the part of `setup()` that fills the library's generator
  caches, so that a traced pass can start from the same cache state as an
  untraced one;
* `reference_items()`: fixed U = 0 inputs, the same for every seed, checked
  against `gldimer.closedform`; their deviations give `ref_err.max`;
* `pass_items(k)`: the seeded items of pass k.  Each pass draws fresh
  inputs from (seed, k), so parameter-keyed caches in the library see no
  repeats across passes; a pass is replayed only for the exact-repeat check;
* `end_pass(outputs)`: work done once per pass on all its results.

Seeded parameters follow rotation sequences x_k = frac(x_0 + k alpha) with
a seeded x_0, so every run covers its parameter range evenly and the cost
mix stays about the same from seed to seed.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

import numpy as np
import scipy.integrate

from gldimer import bbr, closedform, fock, liouville, meanfield, steadysolve
from gldimer.system import SystemParams

GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0
SILVER = math.sqrt(2.0) - 1.0


class CheckFailed(Exception):
    """An item's result disagrees with its reference."""


@dataclass
class Item:
    """One timed library call plus the check of its result, which raises
    CheckFailed on a wrong result."""

    kind: str
    call: Callable[[], Any]
    check: Callable[[Any], None]


def _rng(seed: int, *stream: int) -> np.random.Generator:
    return np.random.default_rng([seed, *stream])


def _rotation(seed: int, salt: int, k: int, alpha: float) -> float:
    """k-th point of a seeded rotation sequence in [0, 1)."""
    x0 = _rng(seed, salt).random()
    return (x0 + k * alpha) % 1.0


def _require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


def _rel_dev(values: np.ndarray, reference: np.ndarray, scale: float) -> float:
    values, reference = np.asarray(values), np.asarray(reference)
    _require(bool(np.all(np.isfinite(values))), "non-finite result")
    return float(np.max(np.abs(values - reference)) / scale)


class Workload:
    name = ""
    # deviations below this resolution read as the resolution itself, so that
    # rounding-level changes do not move ref_err.max; each is set above the
    # deviation the workload's solver tolerances give (about ten times above
    # for bbr, just above for the longer master-equation trajectories), so a
    # tolerance loosened by 100x still shows
    ref_floor = 0.0
    # relative deviation from the analytic reference that fails a check
    ref_tol = 0.0

    def __init__(self, seed: int, out_dir: Path):
        self.seed = seed
        self.out_dir = out_dir
        self.ref_devs: list[float] = []   # one per checked reference item

    def setup(self) -> None:
        self.warm_caches()

    def warm_caches(self) -> None:
        pass

    def reference_items(self) -> list[Item]:
        raise NotImplementedError

    def pass_items(self, k: int) -> list[Item]:
        raise NotImplementedError

    def end_pass(self, k: int, outputs: list) -> str | None:
        """Runs after a pass; returns a digest of the pass output, if any."""
        return None

    def _reference(self, kind: str, call, deviation) -> Item:
        def check(result):
            dev = deviation(result)
            self.ref_devs.append(max(dev, self.ref_floor))
            _require(dev <= self.ref_tol,
                     f"{kind}: deviation {dev:.3e} from the U = 0 reference "
                     f"exceeds {self.ref_tol:.1e}")
        return Item(kind, call, check)


# ---------------------------------------------------------------------------
# bbr-branch-map


def _root_is_physical(state: bbr.MomentState) -> bool:
    return (state.n > 0 and state.purity <= 1.0 + 1e-8
            and float(np.min(np.diagonal(state.delta))) >= -1e-8)


class BbrBranchMap(Workload):
    """Steady branches of the closed moment equations over the fig4/fig5
    gamma grid, in fixed-U and constant-g mode."""

    name = "bbr-branch-map"
    n0 = 100
    grid = np.round(np.arange(0.05, 2.1 + 1e-9, 0.02), 10)
    # sweeps per pass and mode: one fig4 and one fig5 run of the command-line
    # tool make 3 + 3 + 10 fixed-U and 3 + 10 constant-g sweeps; 5 and 4
    # keep that ratio in a pass short enough for a run to hold about a dozen
    # passes.  The g values are seeded, one per bin of (0, 1].
    strata = {"fixed-U": 5, "constant-g": 4}
    ref_tol = 1e-6
    ref_floor = 5e-8

    def _check_sweep(self, sweep: bbr.GammaSweep) -> None:
        _require(len(sweep.points) == len(self.grid), "grid points lost")
        seen_gap = False
        for p in sweep.points:
            seen_gap = seen_gap or not p.exists
            _require(not (seen_gap and p.exists),
                     f"branch resumes at gamma = {p.gamma} after its end")
        for gamma, state in sweep.existing_states():
            params = SystemParams.from_g(g=sweep.g, gamma=gamma, n0=self.n0)
            mode = (bbr.FixedU(params.U) if sweep.mode_kind == "fixed-U"
                    else bbr.ConstantG(sweep.g))
            _require(_root_is_physical(state),
                     f"unphysical root at gamma = {gamma}, g = {sweep.g}")
            y = state.vector
            resid = float(np.max(np.abs(bbr.moment_rhs(y, params, mode))))
            noise = 50 * np.finfo(float).eps * max(1.0, params.J, gamma) \
                * max(1.0, float(np.max(np.abs(y))))
            _require(resid <= 10 * max(1e-9, noise),
                     f"root residual {resid:.3e} at gamma = {gamma}, g = {sweep.g}")

    def _sweep_item(self, g: float, mode_kind: str) -> Item:
        return Item(f"sweep/{mode_kind}",
                    lambda: bbr.sweep_gamma(self.grid, g, self.n0, mode_kind),
                    self._check_sweep)

    def reference_items(self):
        def deviation(sweep):
            self._check_sweep(sweep)
            states = sweep.existing_states()
            _require(len(states) > 0, "empty U = 0 branch")
            devs = []
            for gamma, state in states:
                alpha = closedform.steady_alpha(
                    SystemParams(J=1.0, U=0.0, gamma=gamma, n0=self.n0))
                devs.append(_rel_dev(np.r_[state.s, state.n], alpha.vector,
                                     alpha.n))
            return max(devs)
        return [self._reference(
            "sweep/g=0", lambda: bbr.sweep_gamma(self.grid, 0.0, self.n0,
                                                 "fixed-U"), deviation)]

    def pass_items(self, k):
        # one g per bin of (0, 1] and mode; within each bin g follows its own
        # seeded rotation, so a run's passes cover every bin evenly
        items = []
        for m, (mode_kind, bins) in enumerate(self.strata.items()):
            for i in range(bins):
                u = _rotation(self.seed, 100 * m + i, k, GOLDEN)
                items.append(self._sweep_item((i + 1 - u) / bins, mode_kind))
        return items

    def end_pass(self, k, outputs):
        path = self.out_dir / f"{self.name}-sweeps.csv"
        sweeps = [s for s in outputs if s is not None]
        bbr.sweep_to_csv(sweeps, path)
        body = path.read_bytes()
        rows = body.count(b"\n") - 1
        _require(rows == len(sweeps) * len(self.grid),
                 f"sweep CSV has {rows} rows for {len(sweeps)} sweeps")
        return hashlib.sha256(body).hexdigest()


# ---------------------------------------------------------------------------
# ness-scan


class NessScan(Workload):
    """Exact non-equilibrium steady states around the fig3 reference point
    (g = 0.5, gamma = 0.5, n0 = 5) at cutoff 24."""

    name = "ness-scan"
    n0 = 5
    cutoff = 24
    ceiling = 1e-2
    ref_tol = 1e-2        # the U = 0 state deviates by its truncation error
    ref_floor = 1e-4

    def setup(self):
        self.basis = fock.build_basis(self.cutoff)
        fock.bloch_operators(self.basis)
        fock.bloch_moments(fock.fock_density(self.basis, 0, 0), self.basis)
        liouville.number_block_space(self.basis)
        self.config = steadysolve.SteadySolveConfig(
            truncation_ceiling=self.ceiling)
        self.edge = ((self.basis.n1_of == self.cutoff)
                     | (self.basis.n2_of == self.cutoff))

    def _check_state(self, sol):
        rho = sol.rho
        _require(bool(np.all(np.isfinite(rho))), "non-finite steady state")
        _require(abs(np.trace(rho) - 1.0) <= 1e-10, "trace deviates from 1")
        _require(float(np.max(np.abs(rho - rho.conj().T))) <= 1e-12,
                 "steady state is not Hermitian")
        mass = float(np.sum(np.diagonal(rho).real[self.edge]))
        _require(mass <= self.ceiling,
                 f"boundary mass {mass:.3e} above the ceiling")
        _require(sol.residual < self.config.residual_tol,
                 f"residual {sol.residual:.3e}")
        _require(sol.eigenvalue_floor >= -self.config.clip_floor,
                 f"negative eigenvalue {sol.eigenvalue_floor:.3e}")

    def _solve(self, params):
        return lambda: steadysolve.solve_steady(params, self.basis, self.config)

    def reference_items(self):
        params = SystemParams(J=1.0, U=0.0, gamma=0.5, n0=self.n0)
        alpha = closedform.steady_alpha(params)

        def deviation(sol):
            self._check_state(sol)
            m = sol.moments
            return _rel_dev([m.s_x, m.s_y, m.s_z, m.n], alpha.vector, alpha.n)
        return [self._reference("solve/U=0", self._solve(params), deviation)]

    def pass_items(self, k):
        g = 0.4 + 0.2 * _rotation(self.seed, 1, k, GOLDEN)
        gamma = 0.4 + 0.2 * _rotation(self.seed, 2, k, SILVER)
        params = SystemParams.from_g(g=g, gamma=gamma, n0=self.n0)
        return [Item("solve", self._solve(params), self._check_state)]


# ---------------------------------------------------------------------------
# me-dynamics


def _first_moments(traj) -> np.ndarray:
    return np.array([traj.s_x, traj.s_y, traj.s_z, traj.n])


class MeDynamics(Workload):
    """Master-equation trajectories from seeded coherent states over the
    command-line tool's propagation time: the number-block form at cutoff
    32 and the full superoperator at cutoff 16, with a block-form twin of
    every full-form item, plus the fig2 mean-field trajectory of the
    full-form item's state (a two-component state, where the integrator's
    per-step overhead dominates)."""

    name = "me-dynamics"
    n0 = 4            # keeps the cutoff-16 boundary mass near 3e-3 at t = 10
    block_cutoff = 32
    full_cutoff = 16
    t_final = 10.0
    gpe_t_final = 200.0
    gpe_samples = 2000
    propagation = liouville.PropagationConfig(sample_interval=0.1,
                                              truncation_ceiling=1e-2)
    ref_tol = 1e-5
    ref_floor = 1e-6      # the seed's U = 0 trajectory deviates by 8.8e-7

    def setup(self):
        self.block = fock.build_basis(self.block_cutoff)
        self.full = fock.build_basis(self.full_cutoff)
        g = 0.45 + 0.1 * _rng(self.seed, 1).random()
        gamma = 0.45 + 0.1 * _rng(self.seed, 2).random()
        self.params = SystemParams.from_g(g=g, gamma=gamma, n0=self.n0)
        self.ref_params = SystemParams(J=1.0, U=0.0, gamma=0.5, n0=self.n0)
        for basis in (self.block, self.full):
            fock.bloch_operators(basis)
            liouville.number_block_space(basis)
        self.warm_caches()

    def warm_caches(self):
        for basis in (self.block, self.full):
            liouville.build_number_block_generator(self.params, basis)
        liouville.build_number_block_generator(self.ref_params, self.block)
        liouville.build_liouvillian(self.params, self.full)

    def _coherent(self, basis, theta, phi):
        return fock.density_from_state(
            fock.coherent_state(basis, theta, phi, self.n0))

    def _check_trajectory(self, traj) -> np.ndarray:
        s = _first_moments(traj)
        _require(bool(np.all(np.isfinite(s))), "non-finite moments")
        _require(float(np.max(traj.truncation_mass))
                 <= self.propagation.truncation_ceiling, "boundary mass")
        _require(bool(np.all(traj.purity <= 1.0 + 1e-6)), "purity above 1")
        _require(len(traj.ts) == round(self.t_final
                                       / self.propagation.sample_interval) + 1,
                 "samples lost")
        return s

    def reference_items(self):
        rho0 = self._coherent(self.block, math.pi / 3, 0.4)
        initial = fock.bloch_moments(rho0, self.block)

        def deviation(traj):
            s = self._check_trajectory(traj)
            ref = closedform.oscillatory_solution(
                [initial.s_x, initial.s_y, initial.s_z, initial.n],
                self.ref_params).moments(traj.ts)
            return _rel_dev(s, ref, float(np.max(ref[3])))
        return [self._reference(
            "block/U=0", lambda: liouville.moment_trajectory(
                rho0, self.t_final, self.ref_params, self.block,
                self.propagation), deviation)]

    def _state(self, k, salt):
        theta = math.acos(1 - 2 * _rotation(self.seed, salt, k, GOLDEN))
        phi = 2 * math.pi * _rotation(self.seed, salt + 1, k, SILVER)
        return theta, phi

    def pass_items(self, k):
        p, cfg, t = self.params, self.propagation, self.t_final
        rho_block = self._coherent(self.block, *self._state(k, 3))
        theta, phi = self._state(k, 7)
        rho_full = self._coherent(self.full, theta, phi)
        psi0 = meanfield.state_from_angles(phi, theta)
        twin: dict[str, np.ndarray] = {}

        def check_twin(key):
            def check(traj):
                twin[key] = self._check_trajectory(traj)
                if len(twin) == 2:
                    dev = _rel_dev(twin["full"], twin["block"],
                                   float(np.max(twin["block"][3])))
                    _require(dev <= 1e-6,
                             f"full and block forms differ by {dev:.3e}")
            return check

        return [
            Item("block", lambda: liouville.moment_trajectory(
                rho_block, t, p, self.block, cfg), self._check_trajectory),
            Item("full", lambda: liouville.propagate(
                rho_full, t, p, self.full, cfg), check_twin("full")),
            Item("block-twin", lambda: liouville.moment_trajectory(
                rho_full, t, p, self.full, cfg), check_twin("block")),
            Item("gpe", lambda: meanfield.integrate_gpe(
                psi0, self.gpe_t_final, p.J, p.g, p.gamma,
                sample_interval=self.gpe_t_final / (self.gpe_samples - 1)),
                self._check_gpe),
        ]

    def _check_gpe(self, traj):
        # an independent integrator gives the final amplitudes
        p = self.params
        ref = scipy.integrate.solve_ivp(
            lambda _t, y: meanfield.gpe_rhs(y, p.J, p.g, p.gamma),
            (0.0, self.gpe_t_final), traj.c[0], method="DOP853",
            rtol=1e-12, atol=1e-14).y[:, -1]
        dev = _rel_dev(traj.c[-1], ref, float(np.linalg.norm(ref)))
        _require(dev <= 1e-6, f"mean-field final state off by {dev:.3e}")


WORKLOADS = {w.name: w for w in (BbrBranchMap, NessScan, MeDynamics)}
