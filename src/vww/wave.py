"""Spectral evolution of u_tt + L u = f with Dirichlet walls.

Free and forced evolution share one variation-of-constants kernel, free
evolution being the case f = 0: with w = sqrt(lambda_n), each mode is

    u_n(t) = A_n cos(w t) + B_n sin(w t)/w
             - cos(w t)/w * int_0^t sin(w s) f_n(s) ds
             + sin(w t)/w * int_0^t cos(w s) f_n(s) ds,

with the Duhamel integrals accumulated by cumulative Simpson on the
forcing time grid: scipy's equal-interval ``cumulative_simpson`` formula,
reproduced bit for bit in numpy, so that this module imports no scipy
(in vww only the ``samples`` potential spline does).  A forcing is
g(t) w(x): ``analyze_forcing`` projects it as g(t) <w, phi_n>, on the
time grid of ``forcing_time_grid``.  ``x_derivative``
forms d_x u from the stored phi_n' and d_xx u from the eigenrelation
d_xx phi_n = (q - lambda_n) phi_n, for the estimates.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import (AtomEvaluation, ConfigError, GridMismatch,
                     NonFiniteResult, TimeGridTooCoarse)
from .grid import Grid, GridFunction, freeze_arrays
from .prufer import EigenBasis
from .spectral import SpectralCoeffs, analyze, lambda_power

# most entries of one (times, nodes) table: at 2^24 a float64 table is
# 128 MiB, a solve holds a few (u, u_t, a forcing table) and its
# solution.csv is about 1 GB of text; 40 times the largest table the
# tests and the benchmark use (201 x 2,049)
MAX_TABLE_ENTRIES = 2**24


def check_time_grid(n_times: int, grid: Grid) -> None:
    """Raise ConfigError, before any table exists, when n_times times on
    the grid's nodes exceed MAX_TABLE_ENTRIES."""
    entries = n_times * (grid.n + 1)
    if entries > MAX_TABLE_ENTRIES:
        raise ConfigError(
            f"{n_times} times x {grid.n + 1} nodes = {entries} table "
            f"entries exceed the ceiling of {MAX_TABLE_ENTRIES}")


def _column_l2(a: np.ndarray) -> np.ndarray:
    """l^2 norm of each column: per time, the L^2 norm by Parseval.

    A square beyond the float range is +inf without a warning, here and
    in the other square sums of a solution: the output gate names it."""
    with np.errstate(over="ignore"):
        return np.sqrt(np.sum(a**2, axis=0))


@dataclass(frozen=True)
class ForcingTable:
    """Modal forcing samples f_n(t_j) on a uniform time grid."""

    times: np.ndarray = field(repr=False)
    table: np.ndarray = field(repr=False)  # shape (N, nt)

    def __post_init__(self):
        freeze_arrays(self, "times", "table", copy=True)
        t = self.times
        if t.ndim != 1 or t.size < 3:
            raise ConfigError("forcing needs at least 3 time samples")
        dt = np.diff(t)
        if t[0] != 0.0 or np.any(dt <= 0.0) or np.ptp(dt) > 1e-12 * t[-1]:
            raise ConfigError("forcing time grid must be uniform from 0")
        if self.table.shape[1] != t.size:
            raise ConfigError("forcing table shape does not match time grid")

    @property
    def dt(self) -> float:
        return float(self.times[1] - self.times[0])

    def sup_l2(self) -> float:
        """max_t of the coefficient l^2 norm (the projected L^2 norm)."""
        return float(np.max(_column_l2(self.table)))

    def sup_c1(self) -> float:
        """max_t of ||f(t)|| + ||df/dt(t)||, forward differences in time."""
        dnorms = _column_l2(np.diff(self.table, axis=1) / self.dt)
        dnorms = np.append(dnorms, dnorms[-1])
        return float(np.max(_column_l2(self.table) + dnorms))


@dataclass(frozen=True)
class WaveProblem:
    """Initial data projected on an eigenbasis, plus optional forcing."""

    basis: EigenBasis
    u0_coeffs: SpectralCoeffs
    u1_coeffs: SpectralCoeffs
    T: float
    forcing: ForcingTable | None = None

    def __post_init__(self):
        for c in (self.u0_coeffs, self.u1_coeffs):
            if c.basis is not self.basis and len(c.basis) != len(self.basis):
                raise GridMismatch("coefficient length does not match basis")
        if self.T <= 0.0:
            raise ConfigError("horizon T must be positive")
        if self.forcing is not None:
            if self.forcing.table.shape[0] != len(self.basis):
                raise ConfigError("forcing table mode count != basis size")
            if self.forcing.times[-1] < self.T - 1e-12:
                raise ConfigError("forcing table does not cover [0, T]")


@dataclass(frozen=True)
class WaveSolution:
    """Modal amplitudes and synthesized fields at stored times."""

    basis: EigenBasis
    times: np.ndarray = field(repr=False)
    modal: np.ndarray = field(repr=False)      # (N, nt)
    modal_dt: np.ndarray = field(repr=False)   # (N, nt)
    values: np.ndarray = field(repr=False)     # (nt, nx)
    dt_values: np.ndarray = field(repr=False)  # (nt, nx)

    def __post_init__(self):
        freeze_arrays(self, "times", "modal", "modal_dt", "values", "dt_values")

    def l2_series(self) -> np.ndarray:
        """||u(t)||_{L^2} per stored t (coefficient l^2, Parseval)."""
        return _column_l2(self.modal)

    def dt_l2_series(self) -> np.ndarray:
        return _column_l2(self.modal_dt)

    def wk_series(self, k: float) -> np.ndarray:
        weights = lambda_power(self.basis.lambdas, k)
        with np.errstate(over="ignore"):
            return np.sqrt(weights @ self.modal**2)

    def energy_series(self) -> np.ndarray:
        """sum_n lambda_n u_n(t)^2 + u_n'(t)^2 per stored t."""
        lam = self.basis.lambdas
        with np.errstate(over="ignore"):
            return lam @ self.modal**2 + np.sum(self.modal_dt**2, axis=0)


def solve_homogeneous(problem: WaveProblem, times) -> WaveSolution:
    """Free evolution of the projected data over the stored times."""
    if problem.forcing is not None:
        raise ConfigError("homogeneous solve called with forcing present")
    return _evolve(problem, np.atleast_1d(np.asarray(times, dtype=float)))


def _cumulative_simpson(y: np.ndarray, dx: float) -> np.ndarray:
    """scipy's cumulative_simpson(y, dx=dx, axis=-1, initial=0) by the same
    floating-point operations: interval j gets dx/3 (5 y_j/4 + 2 y_{j+1}
    - y_{j+2}/4) for even j, the mirror image over the reversed samples
    for odd j and for the last one.  y holds at least 3 samples."""
    parts = np.zeros(y.shape)
    d = dx / 3
    fwd, rev = (d * (5 * f[..., :-2] / 4 + 2 * f[..., 1:-1] - f[..., 2:] / 4)
                for f in (y, y[..., ::-1]))
    # fwd[j] is interval j, rev[j] interval n - 2 - j; parts[j + 1] interval j
    parts[..., 1:-1:2] = fwd[..., ::2]
    parts[..., 2::2] = rev[..., -1::-2]
    parts[..., -1] = rev[..., 0]
    return np.cumsum(parts, axis=-1)


def _evolve(problem: WaveProblem, times: np.ndarray,
            idx=slice(None)) -> WaveSolution:
    """The solution at times[idx] by variation of constants; with forcing,
    ``times`` is the forcing grid, over which the Duhamel integrals are
    accumulated."""
    basis = problem.basis
    w = np.sqrt(basis.lambdas)
    wt = np.outer(w, times)
    cos_wt, sin_wt = np.cos(wt), np.sin(wt)
    A, B = (c.coeffs[:, None] for c in (problem.u0_coeffs, problem.u1_coeffs))
    winv = (1.0 / w)[:, None]
    modal = A * cos_wt + B * winv * sin_wt
    modal_dt = -A * w[:, None] * sin_wt + B * cos_wt
    f = problem.forcing
    if f is not None:
        S, C = (_cumulative_simpson(trig * f.table, f.dt)
                for trig in (sin_wt, cos_wt))
        modal = modal - winv * cos_wt * S + winv * sin_wt * C
        modal_dt = modal_dt + sin_wt * S + cos_wt * C
    modal, modal_dt = modal[:, idx], modal_dt[:, idx]
    phi = basis.phi_matrix
    return WaveSolution(basis, times[idx], modal, modal_dt,
                        modal.T @ phi, modal_dt.T @ phi)


def solve_forced(problem: WaveProblem, times) -> WaveSolution:
    """Forced evolution; requested times must be forcing-grid nodes."""
    f = problem.forcing
    if f is None:
        raise ConfigError("forced solve needs a forcing table")
    w_max = float(np.sqrt(np.max(problem.basis.lambdas)))
    if w_max * f.dt > 0.5:
        raise TimeGridTooCoarse(
            f"sqrt(lambda_max)*dt = {w_max * f.dt:.3g} > 0.5")
    times = np.asarray(times, dtype=float)
    idx = np.rint(times / f.dt).astype(int)
    if np.any(idx < 0) or np.any(idx >= f.times.size) or \
            np.max(np.abs(f.times[idx] - times)) > 1e-9 * max(1.0, f.times[-1]):
        raise GridMismatch("requested times are not forcing-grid nodes")
    return _evolve(problem, f.times, idx)


def analyze_forcing(g, w: GridFunction, basis: EigenBasis,
                    times) -> ForcingTable:
    """Project f(t, x) = g(t) w(x), g sampled at the times, onto the
    basis as f_n(t_j) = g(t_j) <w, phi_n>: no (times, nodes) table is
    formed.  NonFiniteResult names the forcing where its largest value,
    max |g| max |w|, is not finite."""
    with np.errstate(over="ignore", invalid="ignore"):
        g_max, w_max = np.max(np.abs(g)), np.max(np.abs(w.values))
        if not np.isfinite(g_max * w_max):
            raise NonFiniteResult(
                f"forcing g(t) w(x) is not finite: max |g| = {g_max:.6g}, "
                f"max |w| = {w_max:.6g}")
    return ForcingTable(times, np.outer(analyze(w, basis).coeffs, g))


def x_derivative(sol: WaveSolution, nu_like, order: int) -> np.ndarray:
    """d_x u (order 1) or d_xx u (order 2) at the stored times, one row
    of node values per time.  d_xx is undefined at a Dirac atom, so an
    atom on a grid node raises ``AtomEvaluation``."""
    basis = sol.basis
    modal = sol.modal
    if order == 1:
        return modal.T @ basis.phi_prime_matrix
    nodes = basis.grid.nodes
    for loc, _ in nu_like.jumps:
        if np.min(np.abs(nodes - loc)) < 1e-12:
            raise AtomEvaluation(
                f"d_xx undefined at the atom x={loc} lying on a grid node")
    return (nu_like.q_values(nodes)[None, :] * sol.values
            - (basis.lambdas[:, None] * modal).T @ basis.phi_matrix)


def forcing_time_grid(T: float, out_steps: int, grid: Grid,
                      time_steps: int | None = None,
                      basis: EigenBasis | None = None) -> np.ndarray | None:
    """The uniform forcing time grid on [0, T]: out_steps * factor + 1
    times, the out_steps + 1 output times among them, checked against
    MAX_TABLE_ENTRIES.  factor = ceil(nt / out_steps) in integers, for a
    given nt = ``time_steps`` with no basis; otherwise nt makes the step
    at most min(T/200, 0.25/sqrt(lambda_max)), read from the basis, and
    without one the grid is None."""
    if time_steps is not None:
        nt = int(time_steps)
    elif basis is None:
        return None
    else:
        w_max = float(np.sqrt(np.max(basis.lambdas)))
        nt = math.ceil(T / min(T / 200.0, 0.25 / w_max))
    factor = max(1, -(-nt // out_steps))
    check_time_grid(out_steps * factor + 1, grid)
    return np.linspace(0.0, T, out_steps * factor + 1)
