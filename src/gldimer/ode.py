"""Adaptive embedded Runge-Kutta 5(4) integrator (Dormand-Prince pair).

Hand-rolled rather than delegated so that every step is clamped onto the
sample times and a per-step abort monitor (e.g. a truncation-mass ceiling)
sees every accepted state.  A sample is what the `record` function returns
for the state at a sample time (by default the state itself), never an
interpolant; the samples fill one array allocated at the first of them, so
a caller that needs a few numbers of each state never holds the states.
Works on real or complex flat state vectors.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import sqrt
from typing import Callable, Sequence

import numpy as np

from .errors import StepUnderflowError

# Dormand-Prince 5(4) tableau as a lower-triangular stage matrix; row 7
# doubles as the 5th-order weights (FSAL), so the last stage's input is the
# new state.
_C = (0.0, 1 / 5, 3 / 10, 4 / 5, 8 / 9, 1.0, 1.0)
_A = np.array([
    [0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0],
    [1 / 5, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0],
    [3 / 40, 9 / 40, 0.0, 0.0, 0.0, 0.0, 0.0],
    [44 / 45, -56 / 15, 32 / 9, 0.0, 0.0, 0.0, 0.0],
    [19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729, 0.0, 0.0, 0.0],
    [9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656, 0.0, 0.0],
    [35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84, 0.0],
])
_A_ROWS = [_A[i, :i] for i in range(7)]
# 5th-order minus 4th-order weights (error estimate)
_E = np.array([
    35 / 384 - 5179 / 57600,
    0.0,
    500 / 1113 - 7571 / 16695,
    125 / 192 - 393 / 640,
    -2187 / 6784 + 92097 / 339200,
    11 / 84 - 187 / 2100,
    -1 / 40,
])
_EPS = float(np.finfo(float).eps)

_SAFETY = 0.9
_MIN_FACTOR = 0.2
_MAX_FACTOR = 5.0


@dataclass
class OdeResult:
    y: np.ndarray
    sample_ts: np.ndarray
    sample_ys: np.ndarray
    n_steps: int = 0
    n_rejected: int = 0
    n_rhs: int = 0


def _error_norm(err, y_old, y_new, rtol, atol):
    scale = atol + rtol * np.maximum(np.abs(y_old), np.abs(y_new))
    r = err / scale
    return sqrt(np.vdot(r, r).real / r.size)


def _initial_step(rhs, t0, y0, f0, rtol, atol):
    scale = atol + rtol * np.abs(y0)
    d0 = np.sqrt(np.mean(np.abs(y0 / scale) ** 2))
    d1 = np.sqrt(np.mean(np.abs(f0 / scale) ** 2))
    h0 = 1e-6 if (d0 < 1e-5 or d1 < 1e-5) else 0.01 * d0 / d1
    y1 = y0 + h0 * f0
    f1 = rhs(t0 + h0, y1)
    d2 = np.sqrt(np.mean(np.abs((f1 - f0) / scale) ** 2)) / h0
    if max(d1, d2) <= 1e-15:
        h1 = max(1e-6, h0 * 1e-3)
    else:
        h1 = (0.01 / max(d1, d2)) ** 0.2
    return min(100 * h0, h1)


def sample_grid(t_final: float, sample_interval: float | None,
                default_divisor: int) -> np.ndarray:
    """Sample times 0, h, 2h, ... up to t_final, plus t_final itself.

    h is sample_interval, or t_final / default_divisor when it is None.
    """
    if sample_interval is None:
        sample_interval = t_final / default_divisor if t_final > 0 else 1.0
    if not sample_interval > 0:
        raise ValueError("sample_interval must be positive")
    n_points = int(np.floor(t_final / sample_interval + 1e-9))
    return np.unique(np.concatenate(
        (np.arange(n_points + 1) * sample_interval, [t_final])))


def integrate_dp45(
    rhs: Callable[[float, np.ndarray], np.ndarray],
    t_span: tuple[float, float],
    y0: np.ndarray,
    *,
    rtol: float = 1e-8,
    atol: float = 1e-10,
    sample_times: Sequence[float] | None = None,
    monitor: Callable[[float, np.ndarray], None] | None = None,
    record: Callable[[np.ndarray], np.ndarray] | None = None,
) -> OdeResult:
    """Integrate y' = rhs(t, y) from t_span[0] to t_span[1].

    sample_times are hit exactly (the step is clamped onto them).  monitor
    is called after every accepted step and may raise to abort.  Row i of
    sample_ys is record(y) at sample_ts[i], a copy of y when record is
    None; every call of record must return the shape and dtype of its
    first.  Backward integration (t1 < t0) is supported.
    """
    if rtol <= 0 or atol <= 0:
        raise ValueError("tolerances must be positive")
    t0, t1 = float(t_span[0]), float(t_span[1])
    direction = 1.0 if t1 >= t0 else -1.0
    y = np.asarray(y0).copy()
    t = t0

    samples: list[float] = []
    if sample_times is not None:
        samples = sorted(float(s) for s in sample_times)
        if direction < 0:
            samples = samples[::-1]
        for s in samples:
            if (s - t0) * direction < -1e-12 or (t1 - s) * direction < -1e-12:
                raise ValueError("sample time outside integration span")
    # allocated at the first sample, from the shape and dtype it records
    sample_ys = None
    next_sample = 0

    def record_if_sample(tcur, ycur):
        nonlocal next_sample, sample_ys
        while next_sample < len(samples) and abs(samples[next_sample] - tcur) <= 1e-12 * max(1.0, abs(tcur)):
            row = ycur if record is None else record(ycur)
            if sample_ys is None:
                sample_ys = np.empty((len(samples), *row.shape), row.dtype)
            sample_ys[next_sample] = row
            next_sample += 1

    def finish(res):
        res.y = y
        res.sample_ts = np.array(samples[:next_sample])
        res.sample_ys = (np.empty((0, *y.shape)) if sample_ys is None
                         else sample_ys[:next_sample])
        return res

    res = OdeResult(y=y, sample_ts=np.empty(0), sample_ys=np.empty(0))
    f = rhs(t, y)
    res.n_rhs += 1
    # the state keeps one dtype, that of y0 and rhs's values together, so
    # that every raw sample fits the array allocated at the first
    y = y.astype(np.result_type(y, f), copy=False)
    record_if_sample(t, y)

    if t0 == t1:
        return finish(res)

    h = _initial_step(rhs, t, y, f, rtol, atol)
    res.n_rhs += 2
    h = min(h, abs(t1 - t0))

    # stage derivatives, one row each; row 0 holds f(t, y)
    k = np.empty((7,) + np.shape(f), dtype=np.result_type(y, f))
    k[0] = f
    while (t1 - t) * direction > 0:
        h_min = 16 * _EPS * max(abs(t), 1.0)
        if h < h_min:
            raise StepUnderflowError(f"step size underflow at t = {t}")
        # clamp onto the end point and the next sample time
        h_eff = min(h, abs(t1 - t))
        if next_sample < len(samples):
            h_eff = min(h_eff, abs(samples[next_sample] - t))
        h_eff = max(h_eff, h_min)
        dt = direction * h_eff

        for i in range(1, 7):
            y_new = y + dt * (_A_ROWS[i] @ k[:i])
            k[i] = rhs(t + _C[i] * dt, y_new)
        res.n_rhs += 6
        # y_new is the last stage's input, the 5th-order solution, and k[6]
        # is f(t+dt, y_new) by FSAL construction
        err = dt * (_E @ k)
        err_norm = _error_norm(err, y, y_new, rtol, atol)

        if err_norm <= 1.0:
            t = t + dt
            y = y_new
            k[0] = k[6]
            if monitor is not None:
                monitor(t, y)
            record_if_sample(t, y)
            res.n_steps += 1
            factor = _MAX_FACTOR if err_norm == 0.0 else min(
                _MAX_FACTOR, _SAFETY * err_norm ** -0.2)
            # grow from the unclamped candidate when the step was clamped
            # onto a sample time, otherwise from the step actually taken
            h = max(h, h_eff * factor) if h_eff < h else h * factor
            h = max(h, h_min)
        else:
            res.n_rejected += 1
            h = h_eff * max(_MIN_FACTOR, _SAFETY * err_norm ** -0.2)

    return finish(res)
