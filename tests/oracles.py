"""Independent oracles and helpers that the tests check vww against.

None of this is part of the pipeline that ``vww`` runs: a leapfrog
finite-difference solver with the restriction of grid functions to a
coarser grid it is compared on, the solution at one stored time, the
large-n eigenvalue and eigenfunction asymptotics of a basis, the mass
of a mollifier profile, a mollified potential's tables formed with one
quadrature pass each, the constant sweep of an estimate over a battery
of problems, random smooth data, the phase equations' right-hand side
at one point, the RK45 phase path at one trial lambda, theta(1) from
scipy's DOP853, and the reader of an eigenfunction cache.  Tests import
it as ``from oracles import ...``, as they import ``conftest``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.integrate import solve_ivp

from vww.errors import ConfigError, GridMismatch
from vww.estimates import verify
from vww.grid import Grid, GridFunction
from vww.potential import (BumpProfile, MollifiedNu, MollifierSpec,
                           NuPrimitive, PerturbedNu, _composite_rule,
                           _window_conv)
from vww.prufer import DEFAULT_TOL, EigenBasis, _propagate
from vww.wave import WaveSolution


# -- grid functions at a coarser grid and at a stored time -------------------


def restrict_indices(fine: Grid, coarse: Grid) -> np.ndarray:
    """Node indices of ``fine`` picking out ``coarse`` nodes; grids must nest."""
    if fine.n % coarse.n != 0:
        raise GridMismatch(f"grid {coarse.n} does not divide grid {fine.n}")
    step = fine.n // coarse.n
    return np.arange(0, fine.n + 1, step)


def restrict(f: GridFunction, coarse: Grid) -> GridFunction:
    return GridFunction(coarse, f.values[restrict_indices(f.grid, coarse)])


def time_index(sol: WaveSolution, t: float) -> int:
    j = int(np.argmin(np.abs(sol.times - t)))
    if abs(sol.times[j] - t) > 1e-9 * max(1.0, abs(t)):
        raise GridMismatch(f"t={t} not among stored times")
    return j


def u_at(sol: WaveSolution, t: float) -> GridFunction:
    return GridFunction(sol.basis.grid, sol.values[time_index(sol, t)])


def dt_at(sol: WaveSolution, t: float) -> GridFunction:
    return GridFunction(sol.basis.grid, sol.dt_values[time_index(sol, t)])


# -- the leapfrog oracle -----------------------------------------------------


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
    equation.  Requested times are snapped to the nearest step.  A step
    above the grid spacing breaks the CFL condition: ValueError.
    """
    grid = q_eps.grid
    h = grid.h
    if dt > h * (1.0 + 1e-12):
        raise ValueError(f"dt={dt:.3g} exceeds h={h:.3g}")
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


# -- the asymptotics of a basis and the mass of a profile --------------------


@dataclass(frozen=True)
class AsymptoticReport:
    """Residuals of the large-n eigenfunction and amplitude asymptotics."""

    ns: np.ndarray
    psi_norms: np.ndarray
    rho_norms: np.ndarray
    partial_sums: np.ndarray
    eigenvalue_rel_dev: np.ndarray

    @property
    def asymptote_constants(self) -> np.ndarray:
        """n * |lambda_n / (pi n)^2 - 1| per mode."""
        return self.ns * self.eigenvalue_rel_dev


def asymptotic_residuals(basis: EigenBasis) -> AsymptoticReport:
    """psi_n = phi_tilde_n - sin(sqrt(lambda_n) x) and rho_n = r_n - 1.

    Reports L^2 norms per mode, running sums of ||psi_n||^2 and relative
    eigenvalue deviations from (pi n)^2.
    """
    grid = basis.grid
    lam = basis.lambdas
    psi = basis.phi_tilde
    psi -= np.sin(np.sqrt(lam)[:, None] * grid.nodes)
    psi_norms = np.array([grid.norm_l2(v) for v in psi])
    ns = np.arange(1.0, len(basis) + 1)
    return AsymptoticReport(
        ns=ns,
        psi_norms=psi_norms,
        rho_norms=np.array([grid.norm_l2(v) for v in np.exp(basis.log_r) - 1.0]),
        partial_sums=np.cumsum(psi_norms**2),
        eigenvalue_rel_dev=np.abs(lam / (math.pi * ns) ** 2 - 1.0),
    )


def bump_mass(profile: BumpProfile) -> float:
    """int psi by a composite Gauss rule, 64 panels of 64 nodes."""
    nodes, weights = _composite_rule(64, 64)
    return float(profile.density(nodes) @ weights)


def two_pass_tables(mn: MollifiedNu) -> list:
    """(v, d) on each table segment of ``mn``, each from a quadrature pass
    of its own: v from ``_smooth_conv`` and d, the slopes q_eps, from
    ``_window_conv`` of the base's density."""
    return [(mn._smooth_conv(t),
             _window_conv(mn.base.q_values, t, mn.spec.epsilon, mn.spec.bump))
            for _, _, t, _, _ in mn._segs]


# -- the constant sweep ------------------------------------------------------


@dataclass(frozen=True)
class SweepReport:
    estimate_id: str
    reports: tuple
    max_ratio: float

    def ratios_by(self, key: str) -> dict:
        """Max ratio grouped by an input descriptor entry (e.g. epsilon)."""
        groups: dict = {}
        for r in self.reports:
            if key in r.inputs:
                v = r.inputs[key]
                groups[v] = max(groups.get(v, 0.0), r.ratio)
        return groups

    def uniformity_slope(self, key: str = "epsilon") -> float:
        """Fitted slope of log(max ratio) against log(key value)."""
        groups = self.ratios_by(key)
        if len(groups) < 3:
            raise ConfigError(f"need >= 3 distinct {key!r} values for a fit")
        xs = np.log(np.array(sorted(groups)))
        ys = np.log(np.array([groups[v] for v in sorted(groups)]))
        return float(np.polyfit(xs, ys, 1)[0])


def constant_sweep(estimate_id: str, battery, k: float = 0.0) -> SweepReport:
    """Run ``verify`` over (problem, solution, inputs) triples."""
    battery = list(battery)
    if not battery:
        raise ConfigError("battery must be nonempty")
    reports = tuple(
        verify(estimate_id, prob, sol, k=k, inputs=inputs)
        for prob, sol, inputs in battery
    )
    return SweepReport(estimate_id, reports,
                       max(r.ratio for r in reports))


def random_sine_data(grid, rng, n_modes: int = 8, decay: float = 2.0) -> GridFunction:
    """Random smooth Dirichlet data: sine combination with decaying weights."""
    amps = rng.standard_normal(n_modes) / np.arange(1, n_modes + 1) ** decay
    x = grid.nodes
    vals = np.zeros_like(x)
    for j, a in enumerate(amps, start=1):
        vals += a * np.sin(j * math.pi * x)
    return GridFunction(grid, vals)


# -- the RK45 phase path -----------------------------------------------------


def phase_rhs(nu: float, lam: float, x: float, eta: float) -> tuple:
    """(eta', (log r)') at one point, term by term as the prufer module's
    docstring states them: theta = sqrt(lambda) x + eta and
    eta' = theta' - sqrt(lambda)."""
    s = math.sqrt(lam)
    theta = s * x + eta
    d_eta = nu * nu * math.sin(theta) ** 2 / s + nu * math.sin(2.0 * theta)
    d_log_r = -(nu * nu * math.sin(2.0 * theta) / (2.0 * s)
                + nu * math.cos(2.0 * theta))
    return d_eta, d_log_r


def rk45_path(nu_like, lam: float, grid: Grid,
              tol: float = DEFAULT_TOL) -> tuple[np.ndarray, np.ndarray]:
    """(theta, log r) at the grid's nodes for one trial lambda, from the
    adaptive Runge-Kutta pass that samples every eigenbasis."""
    sampled = _propagate([nu_like], np.array([[lam]]), tol, grid.nodes)
    eta, log_r = sampled[:, 0, 0]
    return math.sqrt(lam) * grid.nodes + eta, log_r


def dop853_theta(nu_like, lam: float) -> float:
    """theta(1, lambda) from scipy's DOP853 (rtol = atol = 1e-12) on the
    phase equation theta' = sqrt(lambda) + nu^2 sin^2(theta) / sqrt(lambda)
    + nu sin(2 theta), panel by panel over nu's ode_panels: neither the
    Magnus map nor the package's RK45 stepper."""
    s = math.sqrt(lam)
    theta = 0.0
    for a, b, nu_fn in nu_like.ode_panels():
        def rhs(x, th, nu_fn=nu_fn):
            v = nu_fn(x)
            return [s + v * v * math.sin(th[0]) ** 2 / s
                    + v * math.sin(2.0 * th[0])]

        theta = solve_ivp(rhs, (a, b), [theta], method="DOP853", rtol=1e-12,
                          atol=1e-12).y[0, -1]
    return float(theta)


# -- the eigenfunction cache -------------------------------------------------


def potential_from_descriptor(d: dict):
    """The potential whose ``descriptor()`` is d, for every potential class."""
    try:
        if "mollified" in d:
            return MollifiedNu(NuPrimitive.from_descriptor(d["mollified"]),
                               MollifierSpec(d["profile"], d["epsilon"]))
        if "perturbed" in d:
            return PerturbedNu(potential_from_descriptor(d["perturbed"]),
                               NuPrimitive.from_descriptor(d["w_primitive"]),
                               d["coefficient"])
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"bad potential descriptor: {exc}") from exc
    return NuPrimitive.from_descriptor(d)


def basis_from_cache(cache: dict) -> EigenBasis:
    """The EigenBasis of a cache written with its eigenfunctions."""
    nu = potential_from_descriptor(cache["nu"]) if cache.get("nu") else None
    return EigenBasis(
        lambdas=cache["lambdas"],
        phi_matrix=cache["phi"], phi_prime_matrix=cache["phi_prime"],
        eta=cache["eta"], log_r=cache["log_r"],
        tilde_norms=cache["tilde_norms"],
        theta_residuals=cache["theta_residuals"], nu=nu,
        grid=Grid(int(cache["grid_n"])),
        gram_max_offdiag=float(cache["gram_max_offdiag"]),
        theta_error_estimate=float(cache["theta_error_estimate"]))
