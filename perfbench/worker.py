"""Runs one workload in a fresh interpreter and prints its raw samples.

Started by run.py with the BLAS thread count pinned in the environment.
Prints one JSON object as its last line of standard output.  Untraced
(`--trace 0`) it runs the reference items, then fresh seeded passes until
`--seconds` is used up.  Traced (`--trace 1`) it traces the set-up, then
runs one pass untraced, traced, and traced again as a replay whose work
counts and output digest must agree exactly.  `--setup-only` stops after
set-up; run.py uses it to sample set-up time in several interpreters.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import sys
import time
import traceback
from contextlib import nullcontext
from pathlib import Path

ROOT = Path.cwd()
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402  (after the path set-up)
import scipy  # noqa: E402

from gldimer import bbr  # noqa: E402
from layers import (REPEAT_COUNTERS, clear_generator_caches,  # noqa: E402
                    generator_cache_info, instrument, per_layer_metrics)
from tracer import Tracer  # noqa: E402
from workloads import WORKLOADS, CheckFailed  # noqa: E402


def git_commit() -> str:
    """Commit of the checkout, read from .git without running git."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown"
    ref = head.read_text().strip()
    if ref.startswith("ref: "):
        ref_file = ROOT / ".git" / ref[5:]
        return ref_file.read_text().strip() if ref_file.is_file() else "unknown"
    return ref


def _blas(config: dict) -> str:
    blas = config.get("Build Dependencies", {}).get("blas", {})
    return f"{blas.get('name', '?')} {blas.get('version', '?')}"


def run_context(seed: int) -> dict:
    return {
        "compiled_kernel": bool(bbr.COMPILED_KERNEL),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "numpy_blas": _blas(np.show_config(mode="dicts")),
        "scipy_blas": _blas(scipy.show_config(mode="dicts")),
        "blas_threads": int(os.environ.get("OPENBLAS_NUM_THREADS", "0")),
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "seed": seed,
        "commit": git_commit(),
    }


class Runner:
    """Runs items, times them and records every failure.  Only the library
    calls and the pass output are timed; checks run outside the timed
    span, and with the tracer paused, so their calls count in no metric."""

    def __init__(self, workload, tracer: Tracer | None = None):
        self.workload = workload
        self.tracer = tracer
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []   # failed items, pass outputs and replays

    def _span(self, name):
        return self.tracer.span(name) if self.tracer else nullcontext()

    def _unrecorded(self):
        return self.tracer.pause() if self.tracer else nullcontext()

    def run_item(self, item, item_id: int):
        """Returns (latency, result); result is None on failure."""
        self.attempted += 1
        if self.tracer:
            self.tracer.item_id = item_id
        t0 = time.perf_counter()
        try:
            with self._span("bench.item"):
                result = item.call()
        except Exception:  # an item that raises is a failed item; keep going
            self._fail(item, traceback.format_exc())
            return time.perf_counter() - t0, None
        latency = time.perf_counter() - t0
        try:
            with self._unrecorded():
                item.check(result)
        except CheckFailed as exc:
            self._fail(item, str(exc))
            return latency, None
        except Exception:
            self._fail(item, traceback.format_exc())
            return latency, None
        return latency, result

    def _fail(self, item, message: str):
        self.failed += 1
        self.failures.append(f"{item.kind}: {message.strip()}")
        print(f"[{self.workload.name}] item {item.kind} failed: {message}",
              file=sys.stderr)

    def run_pass(self, k: int):
        """One pass; returns (item latencies, seconds of the pass output,
        output digest)."""
        latencies, outputs = [], []
        for i, item in enumerate(self.workload.pass_items(k)):
            latency, result = self.run_item(item, i)
            latencies.append(latency)
            outputs.append(result)
        if self.tracer:
            self.tracer.item_id = -1
        digest = None
        t0 = time.perf_counter()
        try:
            with self._span("bench.end_pass"):
                digest = self.workload.end_pass(k, outputs)
        except (CheckFailed, OSError) as exc:
            self.failures.append(f"end of pass {k}: {exc}")
        return latencies, time.perf_counter() - t0, digest


def _pass_wall(latencies: list[float], end_s: float) -> float:
    return sum(latencies) + end_s


def _window_metrics(tracer: Tracer, first: int, last: int, before: dict,
                    after: dict, **extra) -> dict:
    """Per-layer metrics of the spans with index in [first, last), whose
    counter snapshots are `before` and `after`."""
    counters = {k: after.get(k, 0) - before.get(k, 0) for k in after}
    return per_layer_metrics(tracer.summary(first, last), counters, **extra)


def traced_run(workload, out_dir: Path) -> dict:
    """Traces the set-up, then times one pass untraced, traced and traced
    again as a replay.  Before each of the three the generator caches are
    put back to their state after set-up, so all three do the same work and
    the difference of the first two is the tracing overhead."""
    tracer = Tracer()
    with instrument(tracer):
        tracer.item_id = -2
        workload.setup()
    setup_summary = tracer.summary()
    runner = Runner(workload)
    for i, item in enumerate(workload.reference_items()):
        runner.run_item(item, i)

    def reset_caches():
        clear_generator_caches()
        workload.warm_caches()

    reset_caches()
    untraced_wall = _pass_wall(*runner.run_pass(1)[:2])

    runner.tracer = tracer
    reset_caches()
    with instrument(tracer):
        first, before = len(tracer.start), dict(tracer.counters)
        cache0 = generator_cache_info()
        latencies, end_s, digest_a = runner.run_pass(1)
        cache1 = generator_cache_info()
        mid, middle = len(tracer.start), dict(tracer.counters)
    traced_wall = _pass_wall(latencies, end_s)
    reset_caches()
    with instrument(tracer):
        _, _, digest_b = runner.run_pass(1)
        last, end = len(tracer.start), dict(tracer.counters)
    metrics = _window_metrics(
        tracer, first, mid, before, middle, setup_summary=setup_summary,
        cache_delta=(cache1[0] - cache0[0], cache1[1] - cache0[1]))
    replay = _window_metrics(tracer, mid, last, middle, end)
    counts_a = {k: metrics[k] for k in REPEAT_COUNTERS}
    counts_b = {k: replay[k] for k in REPEAT_COUNTERS}
    if counts_a != counts_b or digest_a != digest_b:
        runner.failures.append(
            f"nondeterminism: replayed pass gave {counts_b} (digest {digest_b}) "
            f"after {counts_a} (digest {digest_a})")
    metrics["trace.overhead_s"] = traced_wall - untraced_wall
    metrics["trace.spans"] = mid - first
    tracer.write_csv(out_dir / f"trace-{workload.name}-seed{workload.seed}.csv",
                     first, mid)
    return {"per_layer": metrics, "repeat_counts": counts_a,
            "traced_wall_s": traced_wall, "untraced_wall_s": untraced_wall,
            **_runner_result(runner)}


def timed_run(workload, seconds: float) -> dict:
    runner = Runner(workload)
    ref_latencies = [runner.run_item(item, i)[0]
                     for i, item in enumerate(workload.reference_items())]
    end_s, latencies, items_per_pass = [], [], 0
    start = time.perf_counter()
    k = 0
    while True:
        k += 1
        item_latencies, end, _ = runner.run_pass(k)
        end_s.append(end)
        latencies.extend(item_latencies)
        items_per_pass = len(item_latencies)
        # stop when one more pass of the mean length, checks included,
        # would overrun
        elapsed = time.perf_counter() - start
        if elapsed + elapsed / k > seconds:
            break
    return {"end_s": end_s, "item_s": latencies,
            "items_per_pass": items_per_pass, "ref_err": workload.ref_devs,
            "ref_item_s": ref_latencies, **_runner_result(runner)}


def _runner_result(runner: Runner) -> dict:
    return {"attempted": runner.attempted, "failed": runner.failed,
            "failures": runner.failures}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spawned-at", type=float, required=True,
                        help="time.monotonic() of the parent just before it "
                             "started this interpreter")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--out-dir", type=Path, required=True)
    args = parser.parse_args(argv)
    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {', '.join(WORKLOADS)}")

    workload = WORKLOADS[args.workload](args.seed, args.out_dir)
    if args.trace:
        result = traced_run(workload, args.out_dir)
    else:
        workload.setup()
        result = {"setup_s": time.monotonic() - args.spawned_at}
        if not args.setup_only:
            result.update(timed_run(workload, args.seconds))
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    result["context"] = run_context(args.seed)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
