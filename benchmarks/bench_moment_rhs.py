"""Benchmark: compiled moment-equation kernel vs the pure-Python fallback.

The kernel is the hot inner loop of the steady-state root searches and
parameter sweeps: one call per residual evaluation, and 14 per Newton
step for the finite-difference Jacobian, which reuses the residual at the
base point; hundreds of thousands per sweep.  Run with

    python benchmarks/bench_moment_rhs.py
"""

import time

import numpy as np

from gldimer import _moment_rhs_py as kernel_py
from gldimer import bbr
from gldimer.system import SystemParams

try:
    from gldimer import _moment_kernel as kernel_cy
except ImportError:
    kernel_cy = None


def time_kernel(kernel, n_calls=200_000):
    rng = np.random.default_rng(0)
    y = rng.normal(scale=30, size=14)
    out = np.empty(14)
    t0 = time.perf_counter()
    for _ in range(n_calls):
        kernel.moment_rhs(y, 1.0, 0.005, 0.98, 1.0, out)
    return (time.perf_counter() - t0) / n_calls


def time_sweep(label):
    gammas = np.arange(0.1, 2.01, 0.02)
    t0 = time.perf_counter()
    sweep = bbr.sweep_gamma(gammas, 0.5, 100, "constant-g")
    dt = time.perf_counter() - t0
    n_existing = sum(1 for p in sweep.points if p.exists)
    print(f"  full constant-g sweep ({label}): {dt:.2f} s "
          f"({n_existing} grid points on the branch, "
          f"boundary {sweep.boundary:.4f})")


def time_root(label):
    params = SystemParams.from_g(g=0.5, gamma=1.0, n0=100)
    guess = bbr.u0_steady_guess(params)
    t0 = time.perf_counter()
    for _ in range(20):
        bbr.steady_root_search(params, bbr.ConstantG(0.5), guess)
    dt = (time.perf_counter() - t0) / 20
    print(f"  cold steady-state root search ({label}): {dt * 1e3:.1f} ms")


def main():
    print("moment-equation right-hand side, single call:")
    t_py = time_kernel(kernel_py, n_calls=20_000)
    print(f"  pure Python: {t_py * 1e6:8.2f} us/call")
    if kernel_cy is not None:
        t_cy = time_kernel(kernel_cy)
        print(f"  compiled:    {t_cy * 1e6:8.2f} us/call "
              f"(speedup {t_py / t_cy:.1f}x)")
    else:
        print("  compiled kernel not available in this installation")

    active = "compiled" if bbr.COMPILED_KERNEL else "pure Python"
    print(f"\nend-to-end with the active kernel ({active}):")
    time_root(active)
    time_sweep(active)
    print("\nset GLDIMER_PURE_PYTHON=1 before importing to benchmark the "
          "end-to-end numbers with the fallback kernel.")


if __name__ == "__main__":
    main()
