"""Adaptive embedded Runge-Kutta 4(5) integration (Dormand-Prince pair).

The stepper is shape-agnostic: the state may be any ndarray, so a batch
of independent trajectories sharing the same independent variable (e.g.
phase equations at many trial eigenvalues) integrates in lockstep with a
single scaled error norm across the batch.  Step endpoints can be forced
onto sample points, where the state is recorded exactly (no dense-output
interpolation error).

Callers integrate piecewise-smooth right-hand sides panel by panel; this
module assumes rhs is smooth on [x0, x1].
"""

from __future__ import annotations

import math

import numpy as np

from .errors import StepFailure

# Dormand-Prince 5(4) tableau, 5th-order propagation, FSAL: _B is A's last row
# less b_7 = 0 (stage 7 is unset on the first step).  Rows are arrays, each
# applied to the stacked stages as one product.
_C = (0.0, 1.0 / 5.0, 3.0 / 10.0, 4.0 / 5.0, 8.0 / 9.0, 1.0, 1.0)
_A = tuple(map(np.array, (
    (),
    (1.0 / 5.0,),
    (3.0 / 40.0, 9.0 / 40.0),
    (44.0 / 45.0, -56.0 / 15.0, 32.0 / 9.0),
    (19372.0 / 6561.0, -25360.0 / 2187.0, 64448.0 / 6561.0, -212.0 / 729.0),
    (9017.0 / 3168.0, -355.0 / 33.0, 46732.0 / 5247.0, 49.0 / 176.0,
     -5103.0 / 18656.0),
)))
_B = np.array((35.0 / 384.0, 0.0, 500.0 / 1113.0, 125.0 / 192.0,
               -2187.0 / 6784.0, 11.0 / 84.0))
_E = np.array((71.0 / 57600.0, 0.0, -71.0 / 16695.0, 71.0 / 1920.0,
               -17253.0 / 339200.0, 22.0 / 525.0, -1.0 / 40.0))

_SAFETY = 0.9
_MIN_FACTOR = 0.2
_MAX_FACTOR = 5.0


def _rms(v: np.ndarray) -> float:
    return math.sqrt(float(np.vdot(v, v)) / v.size)


def _error_norm(err, y0, y1, rtol, atol):
    return _rms(err / (atol + rtol * np.maximum(np.abs(y0), np.abs(y1))))


def _initial_step(rhs, x0, y0, f0, span, rtol, atol):
    scale = atol + rtol * np.abs(y0)
    d0, d1 = _rms(y0 / scale), _rms(f0 / scale)
    h0 = 1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1
    h0 = min(h0, span)
    y1 = y0 + h0 * f0
    f1 = rhs(x0 + h0, y1)
    d2 = _rms((f1 - f0) / scale) / h0
    if max(d1, d2) <= 1e-15:
        h1 = max(1e-6, h0 * 1e-3)
    else:
        h1 = (0.01 / max(d1, d2)) ** 0.2
    return min(100.0 * h0, h1, span)


def integrate_rk45(rhs, x0: float, x1: float, y0: np.ndarray,
                   rtol: float = 1e-11, atol: float = 1e-11,
                   samples: np.ndarray | None = None,
                   first_step: float | None = None,
                   max_steps: int = 2_000_000):
    """Integrate y' = rhs(x, y) from x0 to x1 (x1 > x0).

    Parameters
    ----------
    samples : ndarray, optional
        Sorted points in (x0, x1] the integration must land on exactly;
        the state there is copied into the returned sample stack.
    first_step : float, optional
        Step hint, e.g. the final accepted step of a previous panel.

    Returns
    -------
    (y_final, sampled, n_steps, last_h) with ``sampled`` an array of
    shape (len(samples),) + y0.shape, or None.
    """
    span = x1 - x0
    if span <= 0.0:
        raise StepFailure(f"empty span [{x0}, {x1}]")
    y = np.asarray(y0, dtype=float).copy()
    k = np.empty((7,) + y.shape)  # the seven stages, stacked
    kf = k.reshape(7, -1)  # (7, n) view for the tableau products
    f0 = rhs(x0, y)
    h = first_step if first_step else _initial_step(rhs, x0, y, f0, span, rtol, atol)
    h = min(h, span)
    sampled = None
    next_sample = 0
    if samples is not None:
        # Python floats, so x and the rhs argument stay floats once on a node
        samples = np.asarray(samples, dtype=float).tolist()
        sampled = np.empty((len(samples),) + y.shape)
    x = x0
    k[0] = f0
    n_steps = 0
    h_min = max(span, 1.0) * 1e-15
    while x < x1 - 1e-15 * max(1.0, abs(x1)):
        if n_steps >= max_steps:
            raise StepFailure(f"exceeded {max_steps} steps at x={x:.6g}")
        target = x1
        if sampled is not None and next_sample < len(samples):
            target = samples[next_sample]
        h = min(h, target - x)
        hit = x + h >= target - 1e-15 * max(1.0, abs(target))
        if hit:
            h = target - x
        for i in range(1, 6):
            yi = y + h * (_A[i] @ kf[:i]).reshape(y.shape)
            k[i] = rhs(x + _C[i] * h, yi)
        y_new = y + h * (_B @ kf[:6]).reshape(y.shape)
        k[6] = rhs(x + h, y_new)
        err = h * (_E @ kf).reshape(y.shape)
        enorm = _error_norm(err, y, y_new, rtol, atol)
        n_steps += 1
        if enorm <= 1.0:
            x = target if hit else x + h
            y = y_new
            k[0] = k[6]  # FSAL
            if hit and sampled is not None and next_sample < len(samples) \
                    and target == samples[next_sample]:
                sampled[next_sample] = y
                next_sample += 1
            factor = _MAX_FACTOR if enorm == 0.0 else min(
                _MAX_FACTOR, max(_MIN_FACTOR, _SAFETY * enorm ** -0.2))
            h = h * factor
        else:
            h = h * max(_MIN_FACTOR, _SAFETY * enorm ** -0.2)
            if h < h_min:
                raise StepFailure(
                    f"step underflow at x={x:.6g} (h={h:.3g}, err={enorm:.3g})"
                )
    if sampled is not None and next_sample < len(samples):
        # x1 reached through the generic branch; flush trailing samples at x1
        while next_sample < len(samples):
            sampled[next_sample] = y
            next_sample += 1
    return y, sampled, n_steps, h
