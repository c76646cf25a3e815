"""Compare two sets of benchmark results, workload by workload.

    python3 perfbench/compare.py BASE.jsonl NEW.jsonl

Each file holds the records run.py appends to
`.bench_build/perfbench/results.jsonl`.  For every workload and end-to-end
metric it prints both medians, the parent's quartile spread and the change,
and marks a change worse than the metric's bound in BENCHMARK.json.
Records whose compiled-kernel flag or BLAS thread count differ measure
different programs, so the comparison is refused (exit code 2).
"""

from __future__ import annotations

import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

MUST_MATCH = ("compiled_kernel", "blas_threads")


def load(path) -> list[dict]:
    return [json.loads(line) for line in Path(path).read_text().splitlines()
            if line.strip()]


def by_workload(records: list[dict]) -> dict[str, dict[str, list[float]]]:
    out: dict[str, dict[str, list[float]]] = defaultdict(lambda: defaultdict(list))
    for rec in records:
        if rec["trace"] == 0:
            for name, m in rec["metrics"].items():
                out[rec["workload"]][name].append(m["value"])
    return out


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    base, new = load(argv[0]), load(argv[1])
    contexts = {tuple(rec["context"].get(k) for k in MUST_MATCH)
                for rec in base + new}
    if len(contexts) > 1:
        print("refusing to compare: records differ in "
              + ", ".join(MUST_MATCH) + f": {sorted(map(str, contexts))}",
              file=sys.stderr)
        return 2
    spec = json.loads((Path(__file__).resolve().parent.parent
                       / "BENCHMARK.json").read_text())
    bounds = {m["name"]: (m["bound"], m["better"]) for m in spec["end_to_end"]}
    b, n = by_workload(base), by_workload(new)
    worse = 0
    for workload in sorted(set(b) & set(n)):
        print(workload)
        for name, (bound, better) in bounds.items():
            xs, ys = b[workload].get(name), n[workload].get(name)
            if not xs or not ys:
                continue
            mb, mn = statistics.median(xs), statistics.median(ys)
            q = statistics.quantiles(xs, n=4) if len(xs) > 1 else [mb, mb, mb]
            change = (mn - mb) / mb
            regressed = change > bound if better == "lower" else -change > bound
            worse += regressed
            print(f"  {name:<14} base {mb:.6g} (IQR {(q[2] - q[0]) / mb:.1%}, "
                  f"n={len(xs)})  new {mn:.6g} (n={len(ys)})  "
                  f"change {change:+.1%}{'  WORSE than bound' if regressed else ''}")
    return 1 if worse else 0


if __name__ == "__main__":
    sys.exit(main())
