"""Scenario runner: configures the engines, runs single jobs or parameter
sweeps, and writes figure-ready CSV datasets plus a JSON run manifest.

Usage:  gldimer <scenario> [--config FILE] [--out DIR]
        gldimer custom-propagate [--config FILE] [--out DIR] [--tolerance X]

Only custom-propagate, whose propagation reads it, takes --tolerance (or
the `tolerance` key); the steady-state scenarios solve at the engine's
residual tolerance.

Scenarios: fig1-nonosci-sweep, fig2-bloch-trajectories,
fig3-steady-distributions, fig4-bbr-steady-components, fig5-purity-maps,
custom-propagate, custom-steady.

Exit codes: 0 success, 2 configuration error, 3 engine error.  The
GLDIMER_OUT environment variable sets the default output root.  Identical
configurations produce byte-identical CSV bodies; only the manifest
carries timing information.
"""

from __future__ import annotations

import argparse
import hashlib
import os
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import __version__, bbr, closedform, fock, liouville, meanfield, steadysolve
from .errors import ConfigError, GldimerError
from .io import write_csv, write_json
from .system import SystemParams

SCENARIOS = (
    "fig1-nonosci-sweep",
    "fig2-bloch-trajectories",
    "fig3-steady-distributions",
    "fig4-bbr-steady-components",
    "fig5-purity-maps",
    "custom-propagate",
    "custom-steady",
)

# key -> (parser, default); None default means required
_COMMON = {
    "J": (float, 1.0),
}


def _float_list(text: str) -> tuple[float, ...]:
    try:
        return tuple(float(x) for x in text.replace(",", " ").split())
    except ValueError as exc:
        raise ValueError(f"not a list of numbers: {text!r}") from exc


_SCHEMAS: dict[str, dict] = {
    "fig1-nonosci-sweep": {
        **_COMMON,
        "n0": (int, 100),
        "gamma_min": (float, 0.0),
        "gamma_max": (float, 2.1),
        "gamma_step": (float, 0.005),
    },
    "fig2-bloch-trajectories": {
        **_COMMON,
        "n0": (int, 100),
        "gamma": (float, 1.5),
        "g": (float, 0.0),
        "t_final": (float, 200.0),
        "samples": (int, 2000),
    },
    "fig3-steady-distributions": {
        **_COMMON,
        "n0": (int, 5),
        "gamma": (float, 0.5),
        "g": (float, 0.5),
        "cutoff": (int, 24),
        "truncation_ceiling": (float, 5e-3),
    },
    "fig4-bbr-steady-components": {
        **_COMMON,
        "n0": (int, 100),
        "g_list": (_float_list, (0.1, 0.5, 1.0)),
        "gamma_min": (float, 0.05),
        "gamma_max": (float, 2.1),
        "gamma_step": (float, 0.02),
        "mode": (str, "fixed-U"),
    },
    "fig5-purity-maps": {
        **_COMMON,
        "n0": (int, 100),
        "g_list": (_float_list, (0.1, 0.5, 1.0)),
        "g_grid_max": (float, 1.0),
        "g_grid_steps": (int, 11),
        "gamma_min": (float, 0.05),
        "gamma_max": (float, 2.1),
        "gamma_step": (float, 0.02),
    },
    "custom-propagate": {
        **_COMMON,
        "tolerance": (float, 1e-8),
        "n0": (int, 5),
        "gamma": (float, 0.5),
        "g": (float, 0.0),
        "cutoff": (int, 24),
        "t_final": (float, 10.0),
        "theta0": (float, np.pi / 2),
        "phi0": (float, 0.0),
        "sample_interval": (float, 0.1),
        "truncation_ceiling": (float, 5e-3),
    },
    "custom-steady": {
        **_COMMON,
        "n0": (int, 5),
        "gamma": (float, 0.5),
        "g": (float, 0.0),
        "cutoff": (int, 24),
        "truncation_ceiling": (float, 5e-3),
    },
}


@dataclass
class ScenarioConfig:
    scenario: str
    values: dict
    out_dir: Path

    def __getitem__(self, key):
        return self.values[key]


@dataclass
class RunManifest:
    scenario: str
    config: dict
    version: str
    files: list = field(default_factory=list)
    diagnostics: dict = field(default_factory=dict)
    wall_time_s: float = 0.0

    def payload(self) -> dict:
        return {
            "scenario": self.scenario,
            "config": self.config,
            "version": self.version,
            "files": self.files,
            "diagnostics": self.diagnostics,
            "wall_time_s": self.wall_time_s,
        }


def parse_config(text: str, scenario: str) -> dict:
    """Parse a key = value document against the scenario schema.

    Unknown keys, unparsable values and violated ranges are reported with
    their line number.
    """
    if scenario not in _SCHEMAS:
        raise ConfigError(f"unknown scenario {scenario!r}")
    schema = _SCHEMAS[scenario]
    values = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {raw!r}")
        key, _, val = line.partition("=")
        key, val = key.strip(), val.strip()
        if key not in schema:
            raise ConfigError(f"line {lineno}: unknown key {key!r} for "
                              f"scenario {scenario}")
        parser, _default = schema[key]
        try:
            values[key] = parser(val)
        except ValueError as exc:
            raise ConfigError(f"line {lineno}: invalid value for {key!r}: {exc}")
    return values


def resolve_config(scenario: str, overrides: dict,
                   out_dir: Path) -> ScenarioConfig:
    schema = _SCHEMAS[scenario]
    values = {k: default for k, (_p, default) in schema.items()}
    values.update(overrides)
    _validate(scenario, values)
    return ScenarioConfig(scenario=scenario, values=values, out_dir=out_dir)


def _validate(scenario: str, v: dict) -> None:
    if v["J"] <= 0:
        raise ConfigError("J: must be > 0")
    if v.get("n0", 1) < 1:
        raise ConfigError("n0: must be >= 1")
    if v.get("cutoff", 1) < 1:
        raise ConfigError("cutoff: must be >= 1 (basis precondition)")
    if v.get("tolerance", 1.0) <= 0:
        raise ConfigError("tolerance: must be > 0")
    if "gamma_min" in v:
        if v["gamma_max"] <= v["gamma_min"]:
            raise ConfigError("gamma_max: range reversed or empty "
                              "(gamma_max must exceed gamma_min)")
        if v["gamma_step"] <= 0:
            raise ConfigError("gamma_step: must be > 0")
    if "gamma" in v and v["gamma"] < 0:
        raise ConfigError("gamma: must be >= 0")
    if "mode" in v and v["mode"] not in ("fixed-U", "constant-g"):
        raise ConfigError("mode: must be fixed-U or constant-g")
    if "samples" in v and v["samples"] < 2:
        raise ConfigError("samples: must be >= 2")
    if "t_final" in v and v["t_final"] <= 0:
        raise ConfigError("t_final: must be > 0")
    if "sample_interval" in v and v["sample_interval"] <= 0:
        raise ConfigError("sample_interval: must be > 0")
    if "truncation_ceiling" in v and v["truncation_ceiling"] <= 0:
        raise ConfigError("truncation_ceiling: must be > 0")
    if "g_grid_steps" in v and v["g_grid_steps"] < 2:
        raise ConfigError("g_grid_steps: must be >= 2 (the g = 0 point "
                          "is dropped from the map grid)")


class _Writer:
    """Tracks written files so a failed run leaves nothing behind."""

    def __init__(self, out_dir: Path):
        self.out_dir = out_dir
        self.records = []

    def csv(self, name: str, header, rows) -> None:
        path = self.out_dir / name
        write_csv(path, header, rows)
        self._record(path)

    def json(self, name: str, payload: dict) -> None:
        path = self.out_dir / name
        write_json(path, payload)
        self._record(path)

    def _record(self, path: Path) -> None:
        digest = hashlib.sha256(path.read_bytes()).hexdigest()
        self.records.append({"name": path.name, "sha256": digest,
                             "bytes": path.stat().st_size})

    def cleanup(self) -> None:
        for rec in self.records:
            try:
                (self.out_dir / rec["name"]).unlink()
            except OSError:
                pass


def run(config: ScenarioConfig) -> RunManifest:
    """Execute a scenario; deterministic outputs, manifest written last.

    On failure every partial output is removed before the error
    propagates.
    """
    config.out_dir.mkdir(parents=True, exist_ok=True)
    writer = _Writer(config.out_dir)
    manifest = RunManifest(scenario=config.scenario, config=dict(config.values),
                           version=__version__)
    t0 = time.monotonic()
    runner = _RUNNERS[config.scenario]
    try:
        runner(config, writer, manifest)
    except BaseException:
        writer.cleanup()
        raise
    manifest.files = writer.records
    manifest.wall_time_s = time.monotonic() - t0
    write_json(config.out_dir / "manifest.json", manifest.payload())
    return manifest


# ---------------------------------------------------------------------------
# scenario implementations


def _gamma_grid(config: ScenarioConfig) -> np.ndarray:
    """gamma_min .. gamma_max (inclusive to half a step) in gamma_step."""
    return np.arange(config["gamma_min"],
                     config["gamma_max"] + 0.5 * config["gamma_step"],
                     config["gamma_step"])


def _run_fig1(config: ScenarioConfig, writer: _Writer,
              manifest: RunManifest) -> None:
    J, n0 = config["J"], config["n0"]
    rows = []
    for gamma in _gamma_grid(config):
        params = SystemParams(J=J, U=0.0, gamma=float(gamma), n0=n0)
        try:
            pair = closedform.nonoscillatory_states(params)
            non = (pair.phi_ground, pair.phi_excited, pair.theta, 1)
        except GldimerError:
            non = (np.nan, np.nan, np.nan, 0)
        try:
            ground, excited = meanfield.pt_stationary_states(J, float(gamma))
            pt = (ground.phi, excited.phi, 1)
        except GldimerError:
            pt = (np.nan, np.nan, 0)
        rows.append((float(gamma), non[0], non[1], non[2], pt[0], pt[1],
                     non[3], pt[2]))
    writer.csv("fig1_nonosci_sweep.csv",
               ("gamma", "phi_minus", "phi_plus", "theta", "phi_pt_minus",
                "phi_pt_plus", "nonosci_exists", "pt_exists"), rows)
    manifest.diagnostics["points"] = len(rows)


_FIG2_COLUMNS = ("t", "s_x", "s_y", "s_z", "n", "sx_red", "sy_red", "sz_red",
                 "P")


def _closedform_rows(sol, ts):
    vals = sol.moments(ts)
    rows = []
    for i, t in enumerate(ts):
        s_x, s_y, s_z, n = vals[0][i], vals[1][i], vals[2][i], vals[3][i]
        rows.append((t, s_x, s_y, s_z, n, s_x / n, s_y / n, s_z / n,
                     (s_x**2 + s_y**2 + s_z**2) / n**2))
    return rows


def _run_fig2(config: ScenarioConfig, writer: _Writer,
              manifest: RunManifest) -> None:
    J, n0, gamma = config["J"], config["n0"], config["gamma"]
    params = SystemParams(J=J, U=0.0, gamma=gamma, n0=n0)
    ts = np.linspace(0.0, config["t_final"], config["samples"])
    # six initially pure states on the equator, equally spaced azimuths
    for k in range(6):
        phi = 2 * np.pi * k / 6
        state = bbr.pure_state_moments(np.pi / 2, phi, n0)
        sol = closedform.oscillatory_solution(state.vector[:4], params)
        writer.csv(f"fig2_oscillating_{k}.csv", _FIG2_COLUMNS,
                   _closedform_rows(sol, ts))
    pair = closedform.nonoscillatory_states(params)
    for label, phi in (("ground", pair.phi_ground),
                       ("excited", pair.phi_excited)):
        state = bbr.pure_state_moments(pair.theta, phi, n0)
        sol = closedform.oscillatory_solution(state.vector[:4], params)
        manifest.diagnostics[f"nonosci_{label}_osc_amp"] = sol.amp_osc
        writer.csv(f"fig2_nonoscillatory_{label}.csv", _FIG2_COLUMNS,
                   _closedform_rows(sol, ts))
    ground, _ = meanfield.pt_stationary_states(J, gamma)
    psi0 = meanfield.state_from_angles(ground.phi, ground.theta)
    traj = meanfield.integrate_gpe(psi0, config["t_final"], J, config["g"],
                                   gamma,
                                   sample_interval=config["t_final"]
                                   / (config["samples"] - 1))
    writer.csv("fig2_gpe_ground.csv", meanfield.CSV_COLUMNS, traj.rows())


def _run_fig3(config: ScenarioConfig, writer: _Writer,
              manifest: RunManifest) -> None:
    basis = fock.build_basis(config["cutoff"])
    params = SystemParams.from_g(g=config["g"], gamma=config["gamma"],
                                 n0=config["n0"], J=config["J"])
    cfg = steadysolve.SteadySolveConfig(
        truncation_ceiling=config["truncation_ceiling"])
    sol = steadysolve.solve_steady(params, basis, cfg)
    p1 = fock.site_distribution(sol.rho, basis, 1)
    p2 = fock.site_distribution(sol.rho, basis, 2)
    q = fock.total_number_distribution(sol.rho, basis)
    xi = params.gamma_gain / params.gamma_loss
    geo = closedform.single_mode_steady(params.gamma_gain,
                                        params.gamma_loss)
    p_geo = geo.probabilities(2 * config["cutoff"])
    q_prod = closedform.combined_product_probs(xi, 2 * config["cutoff"])
    rows = [(j, p1[j] if j < len(p1) else 0.0, p2[j] if j < len(p2) else 0.0,
             q[j], p_geo[j], q_prod[j]) for j in range(2 * config["cutoff"] + 1)]
    writer.csv("fig3_distributions.csv",
               ("j", "p_site1", "p_site2", "p_total", "p_site_geometric",
                "p_total_product"), rows)
    diag_rows, summary = steadysolve.steady_outputs(sol, basis)
    writer.csv("fig3_steady_diagonal.csv", steadysolve.DIAGONAL_COLUMNS,
               diag_rows)
    writer.json("fig3_steady_summary.json", summary)
    manifest.diagnostics.update(sol.diagnostics())


def _sweep(config: ScenarioConfig, g: float, mode: str):
    return bbr.sweep_gamma(_gamma_grid(config), float(g), config["n0"], mode,
                           J=config["J"])


def _sweep_rows(config: ScenarioConfig, mode: str):
    return [_sweep(config, g, mode) for g in config["g_list"]]


def _record_end(manifest: RunManifest, key: str, sweep) -> None:
    """How the branch ended: boundary_<key>, end_<key>, sigma_min_<key>."""
    manifest.diagnostics[f"boundary_{key}"] = sweep.boundary
    manifest.diagnostics[f"end_{key}"] = sweep.end
    manifest.diagnostics[f"sigma_min_{key}"] = sweep.sigma_min


def _run_fig4(config: ScenarioConfig, writer: _Writer,
              manifest: RunManifest) -> None:
    sweeps = _sweep_rows(config, config["mode"])
    rows = []
    for sweep in sweeps:
        rows.extend(sweep.rows())
        _record_end(manifest, f"g{sweep.g}", sweep)
    manifest.diagnostics["root_search"] = bbr.sum_work(sweeps)
    writer.csv("fig4_steady_components.csv", bbr.SWEEP_COLUMNS, rows)


_PURITY_COLUMNS = ("gamma", "g", "P", "exists")


def _purity_rows(sweeps):
    return [(p.gamma, p.g, p.state.purity if p.state else np.nan,
             1 if p.exists else 0)
            for sweep in sweeps for p in sweep.points]


def _run_fig5(config: ScenarioConfig, writer: _Writer,
              manifest: RunManifest) -> None:
    for mode, curve_name, map_name in (
            ("fixed-U", "fig5a_purity_fixed_u.csv", "fig5b_map_fixed_u.csv"),
            ("constant-g", "fig5c_purity_constant_g.csv",
             "fig5d_map_constant_g.csv")):
        sweeps = _sweep_rows(config, mode)
        writer.csv(curve_name, _PURITY_COLUMNS, _purity_rows(sweeps))
        for sweep in sweeps:
            _record_end(manifest, f"{mode}_g{sweep.g}", sweep)
        # a grid value equal to a g_list value reuses that curve's sweep
        by_g = {sweep.g: sweep for sweep in sweeps}
        g_grid = np.linspace(0.0, config["g_grid_max"],
                             config["g_grid_steps"])[1:]  # g = 0 is analytic
        for g in g_grid:
            if g not in by_g:
                by_g[g] = _sweep(config, g, mode)
        writer.csv(map_name, _PURITY_COLUMNS,
                   _purity_rows(by_g[g] for g in g_grid))
        manifest.diagnostics[f"root_search_{mode}"] = bbr.sum_work(
            by_g.values())


def _run_custom_propagate(config: ScenarioConfig, writer: _Writer,
                          manifest: RunManifest) -> None:
    basis = fock.build_basis(config["cutoff"])
    params = SystemParams.from_g(g=config["g"], gamma=config["gamma"],
                                 n0=config["n0"], J=config["J"])
    rho0 = fock.density_from_state(
        fock.coherent_state(basis, config["theta0"], config["phi0"],
                            config["n0"]))
    prop = liouville.PropagationConfig(
        rtol=config["tolerance"], atol=config["tolerance"] * 1e-2,
        sample_interval=config["sample_interval"],
        truncation_ceiling=config["truncation_ceiling"])
    traj = liouville.moment_trajectory(rho0, config["t_final"], params, basis,
                                       prop)
    writer.csv("trajectory.csv", liouville.TRAJECTORY_COLUMNS, traj.rows())
    manifest.diagnostics.update(n_steps=traj.n_steps,
                                n_rejected=traj.n_rejected,
                                n_rhs=traj.n_rhs)


def _run_custom_steady(config: ScenarioConfig, writer: _Writer,
                       manifest: RunManifest) -> None:
    basis = fock.build_basis(config["cutoff"])
    params = SystemParams.from_g(g=config["g"], gamma=config["gamma"],
                                 n0=config["n0"], J=config["J"])
    cfg = steadysolve.SteadySolveConfig(
        truncation_ceiling=config["truncation_ceiling"])
    sol = steadysolve.solve_steady(params, basis, cfg)
    diag_rows, summary = steadysolve.steady_outputs(sol, basis)
    writer.csv("steady_diagonal.csv", steadysolve.DIAGONAL_COLUMNS, diag_rows)
    writer.json("steady_summary.json", summary)
    manifest.diagnostics.update(sol.diagnostics())


_RUNNERS = {
    "fig1-nonosci-sweep": _run_fig1,
    "fig2-bloch-trajectories": _run_fig2,
    "fig3-steady-distributions": _run_fig3,
    "fig4-bbr-steady-components": _run_fig4,
    "fig5-purity-maps": _run_fig5,
    "custom-propagate": _run_custom_propagate,
    "custom-steady": _run_custom_steady,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gldimer",
        description="Scenario runner for the gain-loss dimer engines.")
    sub = parser.add_subparsers(dest="scenario", required=True)
    for name in SCENARIOS:
        p = sub.add_parser(name)
        p.add_argument("--config", type=Path, default=None,
                       help="key = value parameter file")
        p.add_argument("--out", type=Path, default=None,
                       help="output directory (default: GLDIMER_OUT or cwd)")
        if "tolerance" in _SCHEMAS[name]:
            p.add_argument("--tolerance", type=float, default=None,
                           help="override the engine tolerance")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        overrides = {}
        if args.config is not None:
            try:
                text = args.config.read_text()
            except OSError as exc:
                raise ConfigError(f"cannot read config file: {exc}")
            overrides = parse_config(text, args.scenario)
        if getattr(args, "tolerance", None) is not None:
            overrides["tolerance"] = args.tolerance
        out_root = Path(os.environ.get("GLDIMER_OUT", "."))
        out_dir = args.out if args.out is not None else out_root
        config = resolve_config(args.scenario, overrides, out_dir)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    try:
        manifest = run(config)
    except (GldimerError, ValueError) as exc:
        print(f"engine error [{config.scenario}]: {exc}", file=sys.stderr)
        return 3
    print(f"{config.scenario}: wrote {len(manifest.files)} files to "
          f"{config.out_dir}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
