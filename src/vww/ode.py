"""Adaptive embedded Runge-Kutta 4(5) integration (Dormand-Prince pair).

The stepper is shape-agnostic: the state may be any ndarray, so a batch
of independent trajectories sharing the same independent variable (the
phase equations of every eigenvalue of a basis) integrates in lockstep
with a single scaled error norm across the batch.
Sample points do not shorten the steps: the state at a sample inside an
accepted step comes from the pair's free 4th-order continuous extension
(Shampine 1986), which reuses the step's seven stages, so samples are as
accurate as the tolerance asks; a sample at a step's end, x1 included,
takes that step's state.

A step works in one preallocated buffer of rows (y, k_1, ..., k_7): each
stage's state, the error estimate and the dense-output polynomial is one
product of a scaled block of tableau rows with it, so a step makes under
thirty numpy calls besides its six calls of rhs.

Callers integrate piecewise-smooth right-hand sides panel by panel; this
module assumes rhs is smooth on [x0, x1].
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right

import numpy as np

from .errors import StepFailure

# Dormand-Prince 5(4) tableau, 5th-order propagation: _A holds the rows of
# stages 2..7, the last being b (FSAL, b_7 = 0); _E the error weights
_C = (0.0, 1.0 / 5.0, 3.0 / 10.0, 4.0 / 5.0, 8.0 / 9.0, 1.0, 1.0)
_A = (
    (1.0 / 5.0,),
    (3.0 / 40.0, 9.0 / 40.0),
    (44.0 / 45.0, -56.0 / 15.0, 32.0 / 9.0),
    (19372.0 / 6561.0, -25360.0 / 2187.0, 64448.0 / 6561.0, -212.0 / 729.0),
    (9017.0 / 3168.0, -355.0 / 33.0, 46732.0 / 5247.0, 49.0 / 176.0,
     -5103.0 / 18656.0),
    (35.0 / 384.0, 0.0, 500.0 / 1113.0, 125.0 / 192.0, -2187.0 / 6784.0,
     11.0 / 84.0),
)
_E = (71.0 / 57600.0, 0.0, -71.0 / 16695.0, 71.0 / 1920.0,
      -17253.0 / 339200.0, 22.0 / 525.0, -1.0 / 40.0)

# Dormand-Prince continuous extension of order 4 (Shampine, Math. Comp. 46,
# 1986; scipy's RK45.P): y(x + t h) = y + h (K^T _P) (t, t^2, t^3, t^4) over
# the seven stages K, stage 7 being f(x + h, y_new)
_P = np.array((
    (1.0, -8048581381.0 / 2820520608.0, 8663915743.0 / 2820520608.0,
     -12715105075.0 / 11282082432.0),
    (0.0, 0.0, 0.0, 0.0),
    (0.0, 131558114200.0 / 32700410799.0, -68118460800.0 / 10900136933.0,
     87487479700.0 / 32700410799.0),
    (0.0, -1754552775.0 / 470086768.0, 14199869525.0 / 1410260304.0,
     -10690763975.0 / 1880347072.0),
    (0.0, 127303824393.0 / 49829197408.0, -318862633887.0 / 49829197408.0,
     701980252875.0 / 199316789632.0),
    (0.0, -282668133.0 / 205662961.0, 2019193451.0 / 616988883.0,
     -1453857185.0 / 822651844.0),
    (0.0, 40617522.0 / 29380423.0, -110615467.0 / 29380423.0,
     69997945.0 / 29380423.0),
))

# A step as products with the rows (y, k_1, ..., k_7) of one buffer.  Scaled
# by h, with 1 in column 0, row i < 6 of _W gives the state of stage i + 2
# (row 5: y_new), and rows 6..10 give y and h K^T _P, the coefficients of
# the dense-output polynomial.  Row 11, scaled by h / tol, gives the error
# estimate over tol
_W = np.zeros((12, 8))
for _i, _row in enumerate(_A):
    _W[_i, 1:2 + _i] = _row
_W[7:11, 1:] = _P.T
_W[11, 1:] = _E
_POW = np.arange(5.0)

_SAFETY = 0.9
_MAX_STEPS = 2_000_000  # accepted and rejected, per integration
_MIN_FACTOR = 0.2
_MAX_FACTOR = 5.0


def _rms(v: np.ndarray) -> float:
    return math.sqrt(float(np.vdot(v, v)) / v.size)


def _initial_step(rhs, x0, y0, f0, span, tol):
    scale = tol + tol * np.abs(y0)
    d0, d1 = _rms(y0 / scale), _rms(f0 / scale)
    h0 = 1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1
    h0 = min(h0, span)
    y1 = y0 + h0 * f0
    f1 = rhs(x0 + h0, y1)
    d2 = _rms((f1 - f0) / scale) / h0
    if max(d1, d2) <= 1e-15:  # no slope to size a step by: 100 h0
        h1 = span
    else:
        h1 = (0.01 / max(d1, d2)) ** 0.2
    return min(100.0 * h0, h1, span)


def integrate_rk45(rhs, x0: float, x1: float, y0: np.ndarray, tol: float,
                   samples: np.ndarray, first_step: float | None = None):
    """Integrate y' = rhs(x, y) from x0 to x1 (x1 > x0).

    Parameters
    ----------
    tol : float
        Relative and absolute tolerance of the scaled error norm.
    samples : ndarray
        Sorted points in (x0, x1], possibly none, at which to record the
        state.  Steps do not stop on them: a sample inside an accepted
        step is read off the step's 4th-order continuous extension, one at
        its end (x1 included) takes the step's own end state.
    first_step : float, optional
        Step hint, e.g. the final accepted step of a previous panel.

    Returns
    -------
    (y_final, sampled, n_steps, last_h) with ``sampled`` an array of
    shape (len(samples),) + y0.shape, and last_h, a next panel's
    hint, the larger of the final proposal and the step cut to land on x1.
    """
    x0, x1 = float(x0), float(x1)  # so x and the rhs argument stay floats
    span = x1 - x0
    if span <= 0.0:
        raise StepFailure(f"empty span [{x0}, {x1}]")
    shape = np.shape(y0)
    size = math.prod(shape)
    buf = np.empty((8, size))  # rows y, k_1, ..., k_7
    buf[0] = np.ravel(y0)
    k = [row.reshape(shape) for row in buf]  # row views for rhs
    stage, y_new, err, abs_y, abs_new = np.empty((5, size))
    stage_y, new_y = stage.reshape(shape), y_new.reshape(shape)
    np.abs(buf[0], out=abs_y)
    w_tol = _W.copy()
    w_tol[11] /= tol
    w = np.empty_like(w_tol)
    rows = [w[i, :i + 2] for i in range(6)]
    heads = [buf[:i + 2] for i in range(6)]
    f0 = rhs(x0, k[0])
    h = h_cut = min(first_step or _initial_step(rhs, x0, k[0], f0, span, tol),
                    span)
    k[1][...] = f0
    samples = np.asarray(samples, dtype=float)
    at_nodes = samples.tolist()
    sampled = np.empty((len(samples),) + shape)
    flat = sampled.reshape(len(samples), size)
    poly = np.empty((5, size))  # y, then h K^T _P
    next_sample = 0
    x = x0
    n_steps = 0
    h_min = max(span, 1.0) * 1e-15
    x_end = x1 - 1e-15 * max(1.0, abs(x1))
    while x < x_end:
        if n_steps >= _MAX_STEPS:
            raise StepFailure(f"exceeded {_MAX_STEPS} steps at x={x:.6g}")
        last = x + h >= x_end
        if last:
            h_cut, h = h, x1 - x
        np.multiply(w_tol, h, out=w)
        w[:7, 0] = 1.0
        for i in range(1, 6):
            np.dot(rows[i - 1], heads[i - 1], out=stage)
            k[i + 1][...] = rhs(x + _C[i] * h, stage_y)
        np.dot(rows[5], heads[5], out=y_new)
        k[7][...] = rhs(x + h, new_y)
        # RMS of err / (tol + tol max(|y|, |y_new|))
        np.dot(w[11, 1:], buf[1:], out=err)
        np.abs(y_new, out=abs_new)
        scale = np.maximum(abs_y, abs_new, out=stage)
        scale += 1.0
        err /= scale
        enorm = _rms(err)
        n_steps += 1
        if enorm <= 1.0:
            x_new = x1 if last else x + h
            end = len(at_nodes) if last else bisect_right(
                at_nodes, x_new, next_sample)
            if end > next_sample:
                t = ((samples[next_sample:end] - x) / h)[:, None] ** _POW
                np.dot(w[6:11], buf, out=poly)
                np.dot(t, poly, out=flat[next_sample:end])
                at_end = bisect_left(at_nodes, x_new, next_sample, end)
                flat[at_end:end] = y_new
                next_sample = end
            x = x_new
            buf[0] = y_new
            buf[1] = buf[7]  # FSAL
            abs_y, abs_new = abs_new, abs_y
            factor = _MAX_FACTOR if enorm == 0.0 else min(
                _MAX_FACTOR, max(_MIN_FACTOR, _SAFETY * enorm ** -0.2))
            h = h * factor
        else:
            h = h * max(_MIN_FACTOR, _SAFETY * enorm ** -0.2)
            if h < h_min:
                raise StepFailure(
                    f"step underflow at x={x:.6g} (h={h:.3g}, err={enorm:.3g})"
                )
    return k[0].copy(), sampled, n_steps, max(h, h_cut)
