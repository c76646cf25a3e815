"""Tests of the benchmark itself.  Run from the repository root:

    PYTHONPATH=src python3 -m pytest perfbench -q
"""

from __future__ import annotations

import numpy as np
import pytest

import layers
import workloads
from gldimer import bbr, closedform
from gldimer.errors import InteractionSingularityError
from gldimer.system import SystemParams
from tracer import Tracer
from worker import Runner


def _attributes():
    targets = layers.TARGETS + layers.GENERATORS + [
        (layers.bbr, "steady_root_search", ""), (layers.bbr, "sweep_gamma", ""),
        (layers.steadysolve, "solve_steady", ""), (layers.io, "write_csv", "")]
    targets += [(module, "integrate_dp45", "")
                for module, _ in layers.INTEGRATOR_BINDINGS]
    return {(module.__name__, attr): getattr(module, attr)
            for module, attr, _ in targets}


def test_tracer_restores_every_patched_attribute():
    before = _attributes()
    tracer = Tracer()
    with layers.instrument(tracer):
        during = _attributes()
        assert all(during[key] is not fn for key, fn in before.items())
    after = _attributes()
    assert all(after[key] is fn for key, fn in before.items())
    assert len(tracer._patches) == 0


def test_restore_after_an_exception_inside_a_traced_call():
    before = _attributes()
    tracer = Tracer()
    with pytest.raises(InteractionSingularityError):
        with layers.instrument(tracer):
            bbr.moment_rhs(np.zeros(14), SystemParams(), bbr.ConstantG(0.5))
    assert all(_attributes()[key] is fn for key, fn in before.items())
    assert not tracer._stack


def test_patching_a_missing_attribute_raises():
    tracer = Tracer()
    with pytest.raises(AttributeError):
        tracer.wrap(bbr, "no_such_function", "bbr.no_such_function")
    assert not tracer._patches


def test_checks_are_neither_timed_nor_traced(tmp_path):
    params = SystemParams.from_g(g=0.5, gamma=0.6, n0=20)
    y = bbr.pure_state_moments(1.0, 0.3, 20).vector

    def call():
        return bbr.moment_rhs(y, params, bbr.ConstantG(0.5))

    def check(result):
        for _ in range(3):
            bbr.moment_rhs(y, params, bbr.ConstantG(0.5))

    class OneItem(workloads.Workload):
        name = "one-item"

        def pass_items(self, k):
            return [workloads.Item("rhs", call, check)]

    tracer = Tracer()
    runner = Runner(OneItem(0, tmp_path), tracer)
    with layers.instrument(tracer):
        runner.run_pass(1)
    summary = tracer.summary()
    assert summary["bbr.moment_rhs"]["calls"] == 1
    assert set(summary) == {"bench.item", "bbr.moment_rhs", "bench.end_pass"}
    assert runner.failed == 0


def _traced_sample():
    tracer = Tracer()
    params = SystemParams.from_g(g=0.5, gamma=0.6, n0=20)
    with layers.instrument(tracer):
        with tracer.span("bench.item"):
            bbr.sweep_gamma([0.1, 0.2, 0.3], 0.5, 20, "constant-g")
            bbr.integrate(bbr.pure_state_moments(1.0, 0.3, 20), 2.0, params,
                          bbr.FixedU(params.U))
    return tracer


def test_child_self_times_never_exceed_their_parent_span():
    tracer = _traced_sample()
    nid, parent, _, dur, self_t = tracer.arrays()
    assert len(dur) > 100
    has_parent = parent >= 0
    assert np.all(self_t[has_parent] <= dur[parent[has_parent]])
    assert np.all(self_t >= -1e-9)
    # self times partition the root spans exactly
    roots = ~has_parent
    assert np.isclose(self_t.sum(), dur[roots].sum(), rtol=1e-9, atol=1e-12)


def test_callbacks_are_attributed_to_the_calling_layer():
    summary = _traced_sample().summary()
    assert summary["bbr.rhs"]["calls"] > 0
    assert summary["ode.integrate_dp45"]["calls"] == 1
    assert summary["bbr.moment_rhs"]["calls"] >= summary["bbr.rhs"]["calls"]


def _reference_run(tmp_path):
    workload = workloads.BbrBranchMap(seed=0, out_dir=tmp_path)
    runner = Runner(workload)
    for i, item in enumerate(workload.reference_items()):
        runner.run_item(item, i)
    return runner, workload


def test_faithful_reference_passes(tmp_path):
    runner, workload = _reference_run(tmp_path)
    assert runner.failed == 0 and runner.attempted == 1
    assert 0 < workload.ref_devs[0] <= workload.ref_tol


def test_perturbed_reference_drives_fail_ratio_above_zero(tmp_path, monkeypatch):
    exact = closedform.steady_alpha

    def perturbed(params):
        a = exact(params)
        return closedform.SteadyMoments(a.s_x, a.s_y * 1.001, a.s_z, a.n)

    monkeypatch.setattr(workloads.closedform, "steady_alpha", perturbed)
    runner, workload = _reference_run(tmp_path)
    assert runner.failed / runner.attempted > 0
    assert workload.ref_devs[0] > workload.ref_tol


def test_benchmark_json_names_every_metric_the_runs_print():
    import json
    from pathlib import Path

    import run

    spec = json.loads((Path(__file__).resolve().parent.parent
                       / "BENCHMARK.json").read_text())
    traced = layers.per_layer_metrics({}, {})
    traced.update({"trace.overhead_s": 0, "trace.spans": 0})
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == \
        {name: run.layer_unit(name) for name in traced}
    fake = {"item_s": [1.0, 2.0], "end_s": [0.1], "items_per_pass": 2,
            "peak_rss_mb": 1.0, "ref_err": [1e-9], "ref_item_s": [0.1],
            "failed": 0, "attempted": 3}
    metrics, _ = run.end_to_end([0.5], fake)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == \
        {name: unit for name, (_, unit) in metrics.items()}
    assert {w["name"] for w in spec["workloads"]} == set(workloads.WORKLOADS)
