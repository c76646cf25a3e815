"""gldimer benchmark: three engine workloads, end-to-end and per-layer metrics.

Run from the root of a gldimer checkout:

    python3 perfbench/run.py --workload ness-scan --seed 1 --seconds 34 --trace 0

Workloads: bbr-branch-map, ness-scan, me-dynamics (see BENCHMARK.json and
perfbench/workloads.py).  Every run first builds the package's optional
extension in place; the build is incremental, so only the first run in a
checkout compiles.  Every workload runs in a
fresh single-threaded interpreter with the BLAS thread count pinned to 1.

With `--trace 0` the report gives the end-to-end metrics, measured with
tracing off: set-up time (median over several interpreter starts), pass
wall time (library calls and pass output, not the benchmark's own checks),
throughput, item latency, peak memory and the deviation of the
U = 0 reference items from their analytic values.  With `--trace 1` it gives
the per-layer metrics of one traced pass, checks that a replay of that pass
repeats its work counts exactly, and writes the spans to
`.bench_build/perfbench/`.  Every run also appends its record, with the run
context, to `.bench_build/perfbench/results.jsonl` for compare.py.

The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`; `failed / attempted` is the
fail ratio, printed with the report above it.  Compare two result files with
perfbench/compare.py; test the benchmark itself with

    PYTHONPATH=src python3 -m pytest perfbench -q
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path.cwd()
HERE = Path(__file__).resolve().parent
OUT = ROOT / ".bench_build" / "perfbench"
# set-up is sampled in fresh interpreters: this many before the measuring
# one, which is sampled too, and as many after it, so that the samples are
# spread over the run
SETUP_SAMPLES_EACH_SIDE = 2
# the workers of one run must end within this many seconds after the build
RUN_TIMEOUT_S = 170
PINNED = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
          "MKL_NUM_THREADS": "1"}


class BenchError(Exception):
    """The program could not be built or run."""


def worker_env() -> dict:
    env = dict(os.environ, **PINNED)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p])
    return env


def build(env: dict) -> None:
    """Build the optional compiled extension in place; setuptools skips the
    compile when the sources have not changed."""
    proc = subprocess.run(
        [sys.executable, "setup.py", "-q", "build_ext", "--inplace",
         "--build-temp", str(OUT / "build")],
        cwd=ROOT, env=env, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
        text=True, timeout=800)
    sys.stderr.write(proc.stdout)
    if proc.returncode != 0:
        raise BenchError(f"build failed with exit code {proc.returncode}")


def spawn(args: list[str], env: dict, deadline: float) -> dict:
    """Run worker.py in a fresh interpreter; return its JSON result.  The
    worker is killed (and waited for) if it is still running at `deadline`."""
    cmd = [sys.executable, str(HERE / "worker.py"), *args,
           "--out-dir", str(OUT), "--spawned-at"]
    t_spawn = time.monotonic()
    proc = subprocess.run(cmd + [repr(t_spawn)], cwd=ROOT, env=env,
                          stdout=subprocess.PIPE, text=True,
                          timeout=max(1.0, deadline - t_spawn))
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"worker exited with code {proc.returncode}")
    return json.loads(lines[-1])


def layer_unit(name: str) -> str:
    if name.endswith((".s", "_s")):
        return "s"
    if name.endswith("us_per_call"):
        return "us"
    if name.endswith((".bytes", ".bytes_computed")):
        return "B"
    if name.endswith("_ratio"):
        return "ratio"
    return "count"


def tail_percentile(items: list[float]) -> tuple[int, float] | None:
    """The highest of p90 and p99 with at least ten samples beyond it."""
    for q in (99, 90):
        if len(items) * (100 - q) >= 1000:
            return q, statistics.quantiles(items, n=100, method="inclusive")[q - 1]
    return None


def typical_pass(res: dict) -> float:
    """Seconds of a typical pass: for every item slot of a pass, the median
    latency of that slot over the run's passes, plus the median time of the
    pass output.  The benchmark's checks are not counted.  Per-slot medians
    keep a burst of machine contention in one item from moving the result."""
    n = res["items_per_pass"]
    slots = [res["item_s"][k * n:(k + 1) * n] for k in range(len(res["end_s"]))]
    return sum(statistics.median(col) for col in zip(*slots)) \
        + statistics.median(res["end_s"])


def end_to_end(setups: list[float], res: dict) -> tuple[dict, list[str]]:
    items = res["item_s"]
    n_items = len(items)
    wall = typical_pass(res)
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "wall_s": (wall, "s"),
        "items_per_s": (res["items_per_pass"] / wall, "1/s"),
        "item_s.p50": (statistics.median(items), "s"),
        "peak_rss_mb": (res["peak_rss_mb"], "MB"),
        # a reference item that produced no result reads as a 100 % deviation
        "ref_err.max": (max(res["ref_err"], default=1.0), "rel"),
    }
    notes = [
        f"setup_s: median of {len(setups)} interpreter starts",
        f"wall_s: typical pass of {res['items_per_pass']} items from "
        f"{len(res['end_s'])} passes",
        f"item_s.p50: median of {n_items} items",
        f"fail_ratio: {res['failed']}/{res['attempted']} = "
        f"{res['failed'] / max(res['attempted'], 1):.4g} (count)",
        "reference item latency: "
        + ", ".join(f"{x:.4f} s" for x in res["ref_item_s"]),
    ]
    tail = tail_percentile(items)
    if tail is None:
        notes.append(f"item_s tail percentile: not reported, {n_items} samples "
                     "leave fewer than 10 beyond p90")
    else:
        notes.append(f"item_s.p{tail[0]}: {tail[1]:.6g} s ({n_items} samples)")
    return metrics, notes


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "gldimer" / "__init__.py").is_file():
        print("error: run from the root of a gldimer checkout "
              "(src/gldimer not found)", file=sys.stderr)
        return 2
    OUT.mkdir(parents=True, exist_ok=True)
    env = worker_env()
    common = ["--workload", args.workload, "--seed", str(args.seed)]
    try:
        build(env)
        deadline = time.monotonic() + RUN_TIMEOUT_S
        if args.trace:
            res = spawn(common + ["--trace", "1"], env, deadline)
            metrics = {k: (v, layer_unit(k)) for k, v in res["per_layer"].items()}
            notes = [f"tracing overhead: {res['traced_wall_s']:.4f} s traced "
                     f"against {res['untraced_wall_s']:.4f} s untraced pass",
                     f"exact-repeat counts: {res['repeat_counts']}"]
        else:
            def setup_samples():
                return [spawn(common + ["--setup-only"], env, deadline)["setup_s"]
                        for _ in range(SETUP_SAMPLES_EACH_SIDE)]
            setups = setup_samples()
            res = spawn(common + ["--seconds", str(args.seconds), "--trace", "0"],
                        env, deadline)
            setups += [res["setup_s"]] + setup_samples()
            metrics, notes = end_to_end(setups, res)
    except (BenchError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    ctx = res["context"]
    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace}")
    print("context: " + " ".join(f"{k}={v}" for k, v in ctx.items()))
    for name, (value, unit) in metrics.items():
        print(f"  {name:<46} {value:>16.6g} {unit}")
    for line in notes + [f"FAILED {f}" for f in res["failures"]]:
        print("  " + line)

    result = {
        "correct": not res["failures"],
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    with open(OUT / "results.jsonl", "a") as fh:
        fh.write(json.dumps({"workload": args.workload, "trace": args.trace,
                             "context": ctx, **result}) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
