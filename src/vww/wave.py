"""Spectral evolution of u_tt + L u = f with Dirichlet walls.

Each mode evolves as u_n(t) = A_n cos(w t) + B_n sin(w t)/w with
w = sqrt(lambda_n); forcing adds the variation-of-constants terms

    - cos(w t)/w * int_0^t sin(w s) f_n(s) ds
    + sin(w t)/w * int_0^t cos(w s) f_n(s) ds,

with the Duhamel integrals accumulated by cumulative Simpson on the
forcing time grid: scipy's equal-interval ``cumulative_simpson`` formula,
reproduced bit for bit in numpy, so that this module imports no scipy
(in vww only the ``samples`` potential spline does).  A leapfrog
finite-difference scheme on a bounded (mollified) potential serves as an
independent cross-check.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import (AtomEvaluation, CFLViolation, ConfigError, GridMismatch,
                     TimeGridTooCoarse)
from .grid import Grid, GridFunction
from .prufer import EigenBasis
from .spectral import SpectralCoeffs


@dataclass(frozen=True)
class ForcingTable:
    """Modal forcing samples f_n(t_j) on a uniform time grid."""

    times: np.ndarray = field(repr=False)
    table: np.ndarray = field(repr=False)  # shape (N, nt)

    def __post_init__(self):
        t = np.asarray(self.times, dtype=float)
        tab = np.asarray(self.table, dtype=float)
        if t.ndim != 1 or t.size < 3:
            raise ConfigError("forcing needs at least 3 time samples")
        dt = np.diff(t)
        if t[0] != 0.0 or np.any(dt <= 0.0) or np.ptp(dt) > 1e-12 * t[-1]:
            raise ConfigError("forcing time grid must be uniform from 0")
        if tab.shape[1] != t.size:
            raise ConfigError("forcing table shape does not match time grid")
        t = t.copy()
        tab = tab.copy()
        t.flags.writeable = False
        tab.flags.writeable = False
        object.__setattr__(self, "times", t)
        object.__setattr__(self, "table", tab)

    @property
    def dt(self) -> float:
        return float(self.times[1] - self.times[0])

    def sup_l2(self) -> float:
        """max_t of the coefficient l^2 norm (the projected L^2 norm)."""
        return float(np.max(np.sqrt(np.sum(self.table**2, axis=0))))

    def sup_c1(self) -> float:
        """max_t of ||f(t)|| + ||df/dt(t)||, forward differences in time."""
        norms = np.sqrt(np.sum(self.table**2, axis=0))
        diff = np.diff(self.table, axis=1) / self.dt
        dnorms = np.sqrt(np.sum(diff**2, axis=0))
        dnorms = np.append(dnorms, dnorms[-1])
        return float(np.max(norms + dnorms))


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
        for name in ("times", "modal", "modal_dt", "values", "dt_values"):
            arr = np.asarray(getattr(self, name), dtype=float)
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)

    def time_index(self, t: float) -> int:
        j = int(np.argmin(np.abs(self.times - t)))
        if abs(self.times[j] - t) > 1e-9 * max(1.0, abs(t)):
            raise GridMismatch(f"t={t} not among stored times")
        return j

    def u_at(self, t: float) -> GridFunction:
        return GridFunction(self.basis.grid, self.values[self.time_index(t)])

    def dt_at(self, t: float) -> GridFunction:
        return GridFunction(self.basis.grid, self.dt_values[self.time_index(t)])

    def l2_series(self) -> np.ndarray:
        """||u(t)||_{L^2} per stored t (coefficient l^2, Parseval)."""
        return np.sqrt(np.sum(self.modal**2, axis=0))

    def dt_l2_series(self) -> np.ndarray:
        return np.sqrt(np.sum(self.modal_dt**2, axis=0))

    def wk_series(self, k: float) -> np.ndarray:
        w = np.exp(k * np.log(self.basis.lambdas))
        return np.sqrt(w @ self.modal**2)

    def energy_series(self) -> np.ndarray:
        """sum_n lambda_n u_n(t)^2 + u_n'(t)^2 per stored t."""
        lam = self.basis.lambdas
        return lam @ self.modal**2 + np.sum(self.modal_dt**2, axis=0)


def _synthesize_solution(basis, times, modal, modal_dt) -> WaveSolution:
    phi = basis.phi_matrix
    return WaveSolution(
        basis=basis, times=np.asarray(times, dtype=float),
        modal=modal, modal_dt=modal_dt,
        values=modal.T @ phi, dt_values=modal_dt.T @ phi,
    )


def solve_homogeneous(problem: WaveProblem, times) -> WaveSolution:
    """Free evolution of the projected data over the stored times."""
    if problem.forcing is not None:
        raise ConfigError("homogeneous solve called with forcing present")
    times = np.asarray(times, dtype=float)
    lam = problem.basis.lambdas
    w = np.sqrt(lam)
    A = problem.u0_coeffs.coeffs
    B = problem.u1_coeffs.coeffs
    wt = np.outer(w, times)
    cos_wt = np.cos(wt)
    sin_wt = np.sin(wt)
    modal = A[:, None] * cos_wt + (B / w)[:, None] * sin_wt
    modal_dt = -(A * w)[:, None] * sin_wt + B[:, None] * cos_wt
    return _synthesize_solution(problem.basis, times, modal, modal_dt)


def _cumulative_simpson(y: np.ndarray, dx: float) -> np.ndarray:
    """scipy's cumulative_simpson(y, dx=dx, axis=-1, initial=0) by the same
    floating-point operations: interval j gets dx/3 (5 y_j/4 + 2 y_{j+1}
    - y_{j+2}/4) for even j, the mirror image over the reversed samples
    for odd j and for the last one; under 3 samples, trapezoids."""
    parts = np.zeros(y.shape)
    if y.shape[-1] < 3:
        parts[..., 1:] = dx * (y[..., 1:] + y[..., :-1]) / 2.0
        return np.cumsum(parts, axis=-1)
    d = dx / 3
    fwd, rev = (d * (5 * f[..., :-2] / 4 + 2 * f[..., 1:-1] - f[..., 2:] / 4)
                for f in (y, y[..., ::-1]))
    # fwd[j] is interval j, rev[j] interval n - 2 - j; parts[j + 1] interval j
    parts[..., 1:-1:2] = fwd[..., ::2]
    parts[..., 2::2] = rev[..., -1::-2]
    parts[..., -1] = rev[..., 0]
    return np.cumsum(parts, axis=-1)


def solve_forced(problem: WaveProblem, times) -> WaveSolution:
    """Forced evolution; requested times must be forcing-grid nodes."""
    if problem.forcing is None:
        raise ConfigError("forced solve needs a forcing table")
    f = problem.forcing
    lam = problem.basis.lambdas
    w = np.sqrt(lam)
    if float(np.max(w)) * f.dt > 0.5:
        raise TimeGridTooCoarse(
            f"sqrt(lambda_max)*dt = {float(np.max(w)) * f.dt:.3g} > 0.5")
    times = np.asarray(times, dtype=float)
    idx = np.rint(times / f.dt).astype(int)
    if np.any(idx < 0) or np.any(idx >= f.times.size) or \
            np.max(np.abs(f.times[idx] - times)) > 1e-9 * max(1.0, f.times[-1]):
        raise GridMismatch("requested times are not forcing-grid nodes")
    tj = f.times
    wt = np.outer(w, tj)
    cos_wt = np.cos(wt)
    sin_wt = np.sin(wt)
    S = _cumulative_simpson(sin_wt * f.table, f.dt)
    C = _cumulative_simpson(cos_wt * f.table, f.dt)
    A = problem.u0_coeffs.coeffs[:, None]
    B = problem.u1_coeffs.coeffs[:, None]
    winv = (1.0 / w)[:, None]
    modal = (A * cos_wt + B * winv * sin_wt
             - winv * cos_wt * S + winv * sin_wt * C)
    modal_dt = (-A * w[:, None] * sin_wt + B * cos_wt
                + sin_wt * S + cos_wt * C)
    return _synthesize_solution(problem.basis, tj[idx],
                                modal[:, idx], modal_dt[:, idx])


def analyze_forcing(f_values: np.ndarray, basis: EigenBasis,
                    times) -> ForcingTable:
    """Project time-sampled forcing f(t_j, x) onto the basis.

    f_values has shape (nt, nodes).
    """
    times = np.asarray(times, dtype=float)
    f_values = np.asarray(f_values, dtype=float)
    if f_values.shape != (times.size, basis.grid.n + 1):
        raise GridMismatch(
            f"forcing values shape {f_values.shape} does not match "
            f"(nt={times.size}, nodes={basis.grid.n + 1})")
    weighted = f_values * basis.grid.simpson_weights[None, :]
    return ForcingTable(times, (weighted @ basis.phi_matrix.T).T)


def spatial_derivatives(sol: WaveSolution, nu_like, t: float):
    """(d_x u, d_xx u) at a stored time.

    The second derivative uses the eigenrelation d_xx phi_n =
    (q - lambda_n) phi_n and is only defined away from Dirac atoms;
    atoms sitting on grid nodes abort the evaluation.
    """
    basis = sol.basis
    j = sol.time_index(t)
    ux = GridFunction(basis.grid, sol.modal[:, j] @ basis.phi_prime_matrix)
    nodes = basis.grid.nodes
    for loc, _ in nu_like.jumps:
        if np.min(np.abs(nodes - loc)) < 1e-12:
            raise AtomEvaluation(
                f"d_xx undefined at the atom x={loc} lying on a grid node")
    q_nodes = nu_like.q_values(nodes)
    lam_modal = basis.lambdas * sol.modal[:, j]
    uxx_vals = q_nodes * sol.values[j] - lam_modal @ basis.phi_matrix
    return ux, GridFunction(basis.grid, uxx_vals)


@dataclass(frozen=True)
class FDSolution:
    """Leapfrog solution snapshots at requested times."""

    grid: Grid
    times: np.ndarray = field(repr=False)
    values: np.ndarray = field(repr=False)
    dt_values: np.ndarray = field(repr=False)

    def u_at(self, t: float) -> GridFunction:
        j = int(np.argmin(np.abs(self.times - t)))
        return GridFunction(self.grid, self.values[j])


def fd_oracle(q_eps: GridFunction, u0: GridFunction, u1: GridFunction,
              forcing, T: float, dt: float, times) -> FDSolution:
    """Second-order leapfrog for u_tt = u_xx - q_eps u + f, Dirichlet walls.

    ``forcing`` is None or a callable t -> node values.  The first step
    is the Taylor half-step consistent with the velocity data and the
    equation.  Requested times are snapped to the nearest step.
    """
    grid = q_eps.grid
    h = grid.h
    if dt > h * (1.0 + 1e-12):
        raise CFLViolation(f"dt={dt:.3g} exceeds h={h:.3g}")
    for f in (u0, u1):
        if f.grid.n != grid.n:
            raise GridMismatch("data grid differs from potential grid")
    times = np.asarray(times, dtype=float)
    n_steps = int(round(T / dt))
    if abs(n_steps * dt - T) > 1e-9 * max(T, 1.0):
        raise ConfigError(f"dt={dt} does not divide T={T}")
    want = np.rint(times / dt).astype(int)
    if np.any(want < 0) or np.any(want > n_steps):
        raise ConfigError("requested times outside [0, T]")
    q = q_eps.values
    lap = np.zeros(grid.n + 1)

    def accel(u, t):
        lap[1:-1] = (u[2:] - 2.0 * u[1:-1] + u[:-2]) / h**2
        lap[0] = lap[-1] = 0.0
        a = lap - q * u
        if forcing is not None:
            a = a + forcing(t)
        a[0] = a[-1] = 0.0
        return a

    out_vals = np.empty((times.size, grid.n + 1))
    out_dt = np.empty((times.size, grid.n + 1))
    snapped = want * dt

    def record(j_step, vals, dvals):
        for k in np.nonzero(want == j_step)[0]:
            out_vals[k] = vals
            out_dt[k] = dvals

    u_prev = u0.values.copy()
    u_prev[0] = u_prev[-1] = 0.0
    record(0, u_prev, u1.values)
    if n_steps >= 1:
        u_curr = u_prev + dt * u1.values + 0.5 * dt**2 * accel(u_prev, 0.0)
        u_curr[0] = u_curr[-1] = 0.0
        u_prev2 = None
        for j in range(1, n_steps):
            u_next = 2.0 * u_curr - u_prev + dt**2 * accel(u_curr, j * dt)
            u_next[0] = u_next[-1] = 0.0
            record(j, u_curr, (u_next - u_prev) / (2.0 * dt))
            u_prev2, u_prev, u_curr = u_prev, u_curr, u_next
        if u_prev2 is None:
            dv = (u_curr - u_prev) / dt
        else:
            dv = (3.0 * u_curr - 4.0 * u_prev + u_prev2) / (2.0 * dt)
        record(n_steps, u_curr, dv)
    return FDSolution(grid, snapped, out_vals, out_dt)


def default_time_grid(basis: EigenBasis, T: float) -> np.ndarray:
    """Uniform forcing grid with dt = min(T/200, 0.25/sqrt(lambda_max))."""
    w_max = float(np.sqrt(np.max(basis.lambdas)))
    dt_raw = min(T / 200.0, 0.25 / w_max)
    nt = int(math.ceil(T / dt_raw))
    return np.linspace(0.0, T, nt + 1)
