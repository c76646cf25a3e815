import json
from pathlib import Path

import numpy as np
import pytest

from gldimer import bbr, cli
from gldimer.errors import ConfigError


def run_cli(args):
    return cli.main([str(a) for a in args])


def test_parse_config_defaults_echoed(tmp_path):
    cfg = cli.resolve_config("fig2-bloch-trajectories", {}, tmp_path)
    # every schema key is present in the resolved configuration
    for key in ("J", "n0", "gamma", "g", "t_final", "samples"):
        assert key in cfg.values
    # fig2's engines take no tolerance, so it has no such key; nor has
    # custom-steady, which solves at the engine's residual tolerance
    assert "tolerance" not in cfg.values
    steady = cli.resolve_config("custom-steady", {}, tmp_path)
    assert "tolerance" not in steady.values
    propagate = cli.resolve_config("custom-propagate", {}, tmp_path)
    assert propagate["tolerance"] == 1e-8


def test_parse_config_rejects_unknown_key():
    with pytest.raises(ConfigError, match="line 2.*unknown key"):
        cli.parse_config("n0 = 10\nwibble = 3\n", "fig1-nonosci-sweep")


def test_parse_config_rejects_bad_value():
    with pytest.raises(ConfigError, match="line 1.*gamma_max"):
        cli.parse_config("gamma_max = fast\n", "fig1-nonosci-sweep")


def test_parse_config_rejects_malformed_line():
    with pytest.raises(ConfigError, match="line 1"):
        cli.parse_config("just some words\n", "fig1-nonosci-sweep")


def test_reversed_range_rejected(tmp_path):
    with pytest.raises(ConfigError, match="gamma_max"):
        cli.resolve_config("fig1-nonosci-sweep",
                           {"gamma_min": 2.0, "gamma_max": 1.0},
                           tmp_path)


def test_zero_cutoff_rejected(tmp_path):
    with pytest.raises(ConfigError, match="cutoff"):
        cli.resolve_config("custom-steady", {"cutoff": 0}, tmp_path)


def test_comments_and_blank_lines_ok():
    vals = cli.parse_config("# a comment\n\nn0 = 10  # trailing\n",
                            "fig1-nonosci-sweep")
    assert vals == {"n0": 10}


def test_exit_code_config_error(tmp_path):
    bad = tmp_path / "bad.cfg"
    bad.write_text("nonsense_key = 1\n")
    code = run_cli(["fig1-nonosci-sweep", "--config", bad, "--out", tmp_path])
    assert code == 2


def test_exit_code_engine_error_and_fail_closed(tmp_path):
    cfgf = tmp_path / "c.cfg"
    cfgf.write_text("gamma = 0.0\ncutoff = 6\nn0 = 2\n")
    out = tmp_path / "out"
    code = run_cli(["custom-steady", "--config", cfgf, "--out", out])
    assert code == 3
    # fail closed: nothing left behind, no manifest
    assert not list(out.glob("*")) if out.exists() else True


def test_fig1_run_and_determinism(tmp_path):
    cfgf = tmp_path / "f1.cfg"
    cfgf.write_text("gamma_min = 0.0\ngamma_max = 2.1\ngamma_step = 0.05\n")
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert run_cli(["fig1-nonosci-sweep", "--config", cfgf, "--out", out1]) == 0
    assert run_cli(["fig1-nonosci-sweep", "--config", cfgf, "--out", out2]) == 0
    body1 = (out1 / "fig1_nonosci_sweep.csv").read_bytes()
    body2 = (out2 / "fig1_nonosci_sweep.csv").read_bytes()
    assert body1 == body2
    manifest = json.loads((out1 / "manifest.json").read_text())
    assert manifest["scenario"] == "fig1-nonosci-sweep"
    assert len(manifest["files"]) == 1
    assert manifest["files"][0]["name"] == "fig1_nonosci_sweep.csv"

    data = np.genfromtxt(out1 / "fig1_nonosci_sweep.csv", delimiter=",",
                         names=True)
    assert data.dtype.names == ("gamma", "phi_minus", "phi_plus", "theta",
                                "phi_pt_minus", "phi_pt_plus",
                                "nonosci_exists", "pt_exists")
    non = data["nonosci_exists"].astype(bool)
    pt = data["pt_exists"].astype(bool)
    # branch pair vanishes before the mean-field pair, both before the
    # end of the oscillatory regime
    assert data["gamma"][non].max() < data["gamma"][pt].max()
    assert data["gamma"][pt].max() <= 2.0
    assert data["gamma"][pt].max() < 2 * 102 / 101
    s = data["phi_minus"][non] + data["phi_plus"][non]
    assert np.allclose(s, np.pi, atol=1e-10)


def test_fig4_schema_and_boundary(tmp_path):
    cfgf = tmp_path / "f4.cfg"
    cfgf.write_text("g_list = 0.5\ngamma_min = 0.2\ngamma_max = 1.3\n"
                    "gamma_step = 0.1\n")
    out = tmp_path / "f4"
    assert run_cli(["fig4-bbr-steady-components", "--config", cfgf,
                    "--out", out]) == 0
    lines = (out / "fig4_steady_components.csv").read_text().splitlines()
    assert lines[0] == "gamma,g,exists,s_x,s_y,s_z,n,P,Delta_n"
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["diagnostics"]["boundary_g0.5"] == pytest.approx(
        0.999, abs=5e-3)
    # the branch ends in a fold, where the Jacobian is singular
    assert manifest["diagnostics"]["end_g0.5"] == "fold"
    assert 0.0 <= manifest["diagnostics"]["sigma_min_g0.5"] < 1e-6
    work = manifest["diagnostics"]["root_search"]
    assert set(work) == set(bbr.WORK_KEYS)
    assert work["searches"] > 0 and work["kernel_calls"] > 0


def test_custom_propagate_schema(tmp_path):
    cfgf = tmp_path / "p.cfg"
    cfgf.write_text("cutoff = 12\nn0 = 2\ngamma = 0.4\ng = 0\nt_final = 2\n"
                    "truncation_ceiling = 0.01\nsample_interval = 0.5\n")
    out = tmp_path / "prop"
    assert run_cli(["custom-propagate", "--config", cfgf, "--out", out]) == 0
    lines = (out / "trajectory.csv").read_text().splitlines()
    assert lines[0] == "t,s_x,s_y,s_z,n,P,Delta_nn,truncation_mass"
    assert len(lines) == 6  # header + samples at 0, .5, 1, 1.5, 2
    diag = json.loads((out / "manifest.json").read_text())["diagnostics"]
    # every attempted step, accepted or rejected, costs six evaluations on
    # top of the initial one and the two of the first-step estimate
    assert diag["n_rhs"] == 3 + 6 * (diag["n_steps"] + diag["n_rejected"])


def test_custom_steady_manifest_reports_the_solve(tmp_path):
    cfgf = tmp_path / "s.cfg"
    cfgf.write_text("cutoff = 6\nn0 = 2\ngamma = 0.5\ng = 0.5\n"
                    "truncation_ceiling = 1\n")
    out = tmp_path / "steady"
    assert run_cli(["custom-steady", "--config", cfgf, "--out", out]) == 0
    diag = json.loads((out / "manifest.json").read_text())["diagnostics"]
    assert set(diag["phase_seconds"]) == {"build", "eliminate", "refine",
                                          "post_process", "verify"}
    assert diag["n_sectors"] == 13 and diag["max_block_order"] == 49
    assert diag["matvecs"] >= 1 and diag["refine_correction"] < 1e-10
    assert diag["residual"] < 1e-10
    assert set(diag["adjustments"]) == {"clipped_negative_mass",
                                        "trace_renormalization"}


# trajectory files and their headers, per scenario
_TRAJECTORY_HEADERS = {
    "fig2-bloch-trajectories": (
        "fig2_gpe_ground.csv", "t,re_c1,im_c1,re_c2,im_c2,phi,theta,n_mf"),
    "custom-propagate": (
        "trajectory.csv", "t,s_x,s_y,s_z,n,P,Delta_nn,truncation_mass"),
}


@pytest.mark.parametrize("scenario", cli.SCENARIOS)
def test_scenario_runs_on_its_defaults(tmp_path, scenario):
    out = tmp_path / "out"
    assert run_cli([scenario, "--out", out]) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["scenario"] == scenario
    assert manifest["files"]
    if scenario in _TRAJECTORY_HEADERS:
        name, header = _TRAJECTORY_HEADERS[scenario]
        assert (out / name).read_text().splitlines()[0] == header


def test_unknown_scenario_rejected():
    with pytest.raises(SystemExit):
        cli.build_parser().parse_args(["fig9-everything"])


def test_bad_tolerance_flag(tmp_path):
    code = run_cli(["custom-propagate", "--out", tmp_path, "--tolerance",
                    "-1"])
    assert code == 2


def test_tolerance_only_where_an_engine_reads_it(tmp_path):
    # fig1's closed forms take no tolerance, and the steady-state solves run
    # at the engine's own: the flag is a usage error and the config key an
    # unknown key
    cfgf = tmp_path / "c.cfg"
    cfgf.write_text("tolerance = 1e-6\n")
    for scenario in ("fig1-nonosci-sweep", "fig3-steady-distributions",
                     "custom-steady"):
        with pytest.raises(SystemExit) as exc:
            run_cli([scenario, "--out", tmp_path, "--tolerance", "1e-6"])
        assert exc.value.code == 2
        assert run_cli([scenario, "--config", cfgf, "--out", tmp_path]) == 2
    assert list(tmp_path.iterdir()) == [cfgf]


def test_output_root_from_the_environment(tmp_path, monkeypatch):
    # GLDIMER_OUT sets the default output directory; --out overrides it
    cfgf = tmp_path / "f1.cfg"
    cfgf.write_text("gamma_min = 0.0\ngamma_max = 1.0\ngamma_step = 0.5\n")
    env_out, flag_out = tmp_path / "env", tmp_path / "flag"
    monkeypatch.setenv("GLDIMER_OUT", str(env_out))
    assert run_cli(["fig1-nonosci-sweep", "--config", cfgf]) == 0
    assert (env_out / "manifest.json").is_file()
    assert run_cli(["fig1-nonosci-sweep", "--config", cfgf,
                    "--out", flag_out]) == 0
    assert (flag_out / "fig1_nonosci_sweep.csv").is_file()
    assert sorted(p.name for p in env_out.iterdir()) == [
        "fig1_nonosci_sweep.csv", "manifest.json"]


@pytest.mark.parametrize("scenario, key, value", [
    ("custom-propagate", "sample_interval", 0.0),
    ("custom-propagate", "sample_interval", -0.1),
    ("custom-propagate", "truncation_ceiling", 0.0),
    ("custom-steady", "truncation_ceiling", -1e-6),
    ("fig5-purity-maps", "g_grid_steps", 1),
    ("fig1-nonosci-sweep", "gamma_min", -0.1),
    ("fig4-bbr-steady-components", "gamma_min", 0.0),
    ("fig5-purity-maps", "gamma_min", -0.05),
    ("fig3-steady-distributions", "n0", 1),
    ("fig4-bbr-steady-components", "n0", 1),
    ("fig5-purity-maps", "n0", 1),
])
def test_out_of_range_value_rejected(tmp_path, scenario, key, value):
    with pytest.raises(ConfigError, match=key):
        cli.resolve_config(scenario, {key: value}, tmp_path)
    cfgf = tmp_path / "c.cfg"
    cfgf.write_text(f"{key} = {value}\n")
    out = tmp_path / "out"
    assert run_cli([scenario, "--config", cfgf, "--out", out]) == 2
    assert not out.exists()


def test_custom_steady_has_no_method_key(tmp_path):
    cfgf = tmp_path / "c.cfg"
    cfgf.write_text("method = bicg\n")
    assert run_cli(["custom-steady", "--config", cfgf, "--out", tmp_path]) == 2


def test_fig5_map_reuses_curve_sweeps(tmp_path, monkeypatch):
    # grid values equal to a g_list value reuse that curve's sweep; the
    # map CSVs equal those of a run whose g_list shares no grid value
    calls = []
    sweep_gamma = cli.bbr.sweep_gamma

    def counted(gammas, g, *args, **kwargs):
        calls.append(g)
        return sweep_gamma(gammas, g, *args, **kwargs)
    monkeypatch.setattr(cli.bbr, "sweep_gamma", counted)
    base = ("n0 = 20\ngamma_min = 0.1\ngamma_max = 1.0\ngamma_step = 0.1\n"
            "g_grid_max = 0.5\ng_grid_steps = 3\n")  # grid 0.25, 0.5
    maps = []
    for name, g_list, n_calls in (("shared", "0.25 0.5", 2 * 2),
                                  ("disjoint", "0.3", 2 * (1 + 2))):
        cfgf = tmp_path / f"{name}.cfg"
        cfgf.write_text(base + f"g_list = {g_list}\n")
        calls.clear()
        out = tmp_path / name
        assert run_cli(["fig5-purity-maps", "--config", cfgf,
                        "--out", out]) == 0
        assert len(calls) == n_calls
        maps.append([(out / f).read_bytes() for f in
                     ("fig5b_map_fixed_u.csv", "fig5d_map_constant_g.csv")])
    assert maps[0] == maps[1]
