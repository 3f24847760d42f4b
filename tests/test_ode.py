"""Integrator checks against a fixed-step classic RK4 oracle."""

import math

import numpy as np
import pytest

import vww.ode
from vww.errors import StepFailure
from vww.ode import integrate_rk45

TOL = 1e-11
NO_SAMPLES = np.empty(0)


def rk4_fixed(rhs, x0, x1, y0, n_steps):
    """Independent fixed-step classic Runge-Kutta oracle."""
    h = (x1 - x0) / n_steps
    y = np.asarray(y0, dtype=float).copy()
    x = x0
    for _ in range(n_steps):
        k1 = rhs(x, y)
        k2 = rhs(x + h / 2, y + h / 2 * k1)
        k3 = rhs(x + h / 2, y + h / 2 * k2)
        k4 = rhs(x + h, y + h * k3)
        y = y + h / 6 * (k1 + 2 * k2 + 2 * k3 + k4)
        x += h
    return y


def test_exponential_decay():
    rhs = lambda x, y: -y
    y, sampled, _, _ = integrate_rk45(rhs, 0.0, 1.0, np.array([1.0]), TOL,
                                      NO_SAMPLES)
    assert sampled.shape == (0, 1)
    assert y[0] == pytest.approx(math.exp(-1.0), abs=1e-11)


def test_oscillator_vs_rk4_richardson():
    # y'' = -w^2 y as a system; oracle at h and h/2 brackets the answer
    w = 7.0
    rhs = lambda x, y: np.array([y[1], -w * w * y[0]])
    y0 = np.array([1.0, 0.0])
    adaptive, _, _, _ = integrate_rk45(rhs, 0.0, 1.0, y0, 1e-12, NO_SAMPLES)
    coarse = rk4_fixed(rhs, 0.0, 1.0, y0, 2000)
    fine = rk4_fixed(rhs, 0.0, 1.0, y0, 4000)
    assert np.max(np.abs(coarse - fine)) / 15.0 <= 1e-9
    assert np.max(np.abs(adaptive - fine)) <= 1e-9
    assert adaptive[0] == pytest.approx(math.cos(w), abs=1e-10)


def test_batched_states_match_individual_runs():
    ws = np.array([1.0, 3.0, 10.0])
    rhs = lambda x, y: np.vstack([y[1], -ws * ws * y[0]])
    y0 = np.zeros((2, 3))
    y0[0] = 1.0
    batched, _, _, _ = integrate_rk45(rhs, 0.0, 1.0, y0, 1e-12, NO_SAMPLES)
    for j, w in enumerate(ws):
        single = rk4_fixed(
            lambda x, y: np.array([y[1], -w * w * y[0]]),
            0.0, 1.0, np.array([1.0, 0.0]), 6000)
        assert np.max(np.abs(batched[:, j] - single)) <= 1e-9


def test_samples_recorded_exactly_at_nodes():
    rhs = lambda x, y: np.array([2.0 * x])
    nodes = np.linspace(0.0, 1.0, 11)[1:]
    y, sampled, _, _ = integrate_rk45(rhs, 0.0, 1.0, np.array([0.0]), TOL,
                                      samples=nodes)
    assert np.allclose(sampled[:, 0], nodes**2, atol=1e-12)
    assert y[0] == pytest.approx(1.0, abs=1e-12)


def test_dense_output_samples_between_steps():
    # y'' = -49 y: samples come from the continuous extension, not from
    # one step per node (296 steps and 1.0e-10 when this was written)
    w = 7.0
    rhs = lambda x, y: np.array([y[1], -w * w * y[0]])
    nodes = np.linspace(0.0, 1.0, 1001)[1:]
    _, sampled, n_steps, _ = integrate_rk45(
        rhs, 0.0, 1.0, np.array([1.0, 0.0]), TOL, samples=nodes)
    exact = np.stack([np.cos(w * nodes), -w * np.sin(w * nodes)], axis=1)
    assert np.max(np.abs(sampled - exact)) <= 1e-9
    assert n_steps < len(nodes) // 2


def test_sample_at_end_is_final_state():
    rhs = lambda x, y: np.vstack([y[1], -9.0 * y[0]])
    y0 = np.array([[1.0, 0.0], [0.0, 3.0]])
    y, sampled, _, _ = integrate_rk45(rhs, 0.0, 0.7, y0, TOL,
                                      samples=np.array([0.1, 0.35, 0.7]))
    assert sampled[-1].tobytes() == y.tobytes()


def test_sampled_pass_calls_rhs_with_python_floats():
    # type, not isinstance: numpy's float64 subclasses float
    seen = set()

    def rhs(x, y):
        seen.add(type(x))
        return np.array([math.cos(x)])

    nodes = np.linspace(0.0, 1.0, 17)[1:]
    integrate_rk45(rhs, 0.0, 1.0, np.array([0.0]), TOL, samples=nodes)
    assert seen == {float}


@pytest.mark.parametrize("rhs, y0, samples, steps, rhs_calls", [
    (lambda x, y: -y, [1.0], NO_SAMPLES, 37, 224),
    (lambda x, y: np.array([y[1], -49.0 * y[0]]), [1.0, 0.0],
     np.linspace(0.0, 1.0, 1001)[1:], 296, 1778),
], ids=["decay", "oscillator_sampled"])
def test_step_and_rhs_counts_pinned(rhs, y0, samples, steps, rhs_calls):
    # the arithmetic of a step may be reordered, but not the steps taken:
    # these are the counts of the stepper that formed each stage as
    # y + h (a_i . K); rejected steps count, and 6 rhs calls per step plus
    # f0 and the initial step's probe
    calls = []

    def counted(x, y):
        calls.append(x)
        return rhs(x, y)

    _, _, n_steps, _ = integrate_rk45(counted, 0.0, 1.0, np.array(y0), TOL,
                                      samples=samples)
    assert (n_steps, len(calls)) == (steps, rhs_calls)


def test_max_steps_guard(monkeypatch):
    monkeypatch.setattr(vww.ode, "_MAX_STEPS", 10)
    rhs = lambda x, y: np.array([1.0 / (1.0 - x + 1e-16)])
    with pytest.raises(StepFailure, match="exceeded 10 steps"):
        integrate_rk45(rhs, 0.0, 1.0, np.array([0.0]), TOL, NO_SAMPLES)
