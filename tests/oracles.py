"""Independent oracles and helpers that the tests check vww against.

None of this is part of the pipeline that ``vww`` runs: a leapfrog
finite-difference solver with the restriction of grid functions to a
coarser grid it is compared on, the solution at one stored time, a
Gaussian pulse crossing a delta in closed form, the
large-n eigenvalue and eigenfunction asymptotics of a basis, the mass
of a mollifier profile, a mollified potential's tables formed with one
quadrature pass each, the constant sweep of an estimate over a battery
of problems, random smooth data, the phase equations' right-hand side
at one point, a basis's psi norms from the rows its build handed over,
the phase path of trial lambdas from scipy's DOP853 on that right-hand
side, with a basis's normalized eigenfunctions, one lambda's path and
its theta(1) read from it, the states of a recorded Magnus pass that
also sums its phase, and the reader of an eigenfunction cache with the
array fields it keeps.  Tests import it as ``from oracles import ...``,
as they import ``conftest``.
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
                           NuPrimitive, PerturbedNu, _composite_rule)
from vww.prufer import _CHUNK_ELEMENTS, EigenBasis, _sin_cos
from vww.wave import WaveSolution

# the array fields of an EigenBasis, all read-only and all kept by a cache
# written with its eigenfunctions
EIGENBASIS_ARRAYS = ("lambdas", "phi_matrix", "phi_prime_matrix",
                     "tilde_norms", "theta_residuals")


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

    phi_tilde = ||phi_tilde|| phi and r = ||phi_tilde|| hypot(phi, (phi'
    - nu phi) / sqrt(lambda)), as phi' = (sqrt(lambda) r cos(theta) + nu
    phi_tilde) / ||phi_tilde||.  Reports L^2 norms per mode, running sums
    of ||psi_n||^2 and relative eigenvalue deviations from (pi n)^2.
    """
    grid = basis.grid
    lam = basis.lambdas
    norms = basis.tilde_norms[:, None]
    phi = basis.phi_matrix
    psi = norms * phi - np.sin(np.sqrt(lam)[:, None] * grid.nodes)
    psi_norms = np.array([grid.norm_l2(v) for v in psi])
    cos_part = ((basis.phi_prime_matrix - basis.nu.nu_values(grid.nodes) * phi)
                / np.sqrt(lam)[:, None])
    rho = norms * np.hypot(phi, cos_part) - 1.0
    ns = np.arange(1.0, len(basis) + 1)
    return AsymptoticReport(
        ns=ns,
        psi_norms=psi_norms,
        rho_norms=np.array([grid.norm_l2(v) for v in rho]),
        partial_sums=np.cumsum(psi_norms**2),
        eigenvalue_rel_dev=np.abs(lam / (math.pi * ns) ** 2 - 1.0),
    )


def bump_mass(profile: BumpProfile) -> float:
    """int psi by a composite Gauss rule, 64 panels of 64 nodes."""
    nodes, weights = _composite_rule(64, 64)
    return float(profile.density(nodes) @ weights)


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


# -- a pulse crossing a delta ------------------------------------------------


def pulse(z, c: float = 0.25, w: float = 0.03):
    """(F(z), F'(z)) of the Gaussian F(z) = exp(-((z + c) / w)^2)."""
    f = np.exp(-((np.asarray(z, dtype=float) + c) / w) ** 2)
    return f, -2.0 * (z + c) / (w * w) * f


def pulse_through_delta(alpha: float, t: float, x, a: float = 0.5,
                        c: float = 0.25, w: float = 0.03) -> np.ndarray:
    """u(t, x) of u_tt - u_xx + alpha delta(x - a) u = 0 on the line for
    the incoming wave F(t - x) of ``pulse``: T(t - x) right of a, and F(t -
    x) + (T - F)(t + x - 2a) left of it.  The jump u_x(a+) - u_x(a-) =
    alpha u(a) makes T' + b T = F', b = alpha / 2, so T = F - b int_0^inf
    e^(-b s) F(. - s) ds, whose integral is (sqrt(pi) w / 2) e^(b^2 w^2 / 4
    - b (z + c)) erfc(b w / 2 - (z + c) / w).  Valid on (0, 1) while both
    waves are negligible at the walls."""
    from scipy.special import erfc

    b = 0.5 * alpha

    def transmitted(z):
        zc = z + c
        tail = (0.5 * math.sqrt(math.pi) * w * np.exp(b * b * w * w / 4.0
                                                      - b * zc)
                * erfc(0.5 * b * w - zc / w))
        return pulse(z, c, w)[0] - b * tail

    x = np.asarray(x, dtype=float)
    back = t + x - 2.0 * a
    return np.where(x > a, transmitted(t - x),
                    pulse(t - x, c, w)[0] + transmitted(back)
                    - pulse(back, c, w)[0])


# -- the phase path by DOP853 -----------------------------------------------


def phase_rhs(nu: float, lam, x: float, eta) -> tuple:
    """(eta', (log r)') at one point, term by term as the prufer module's
    docstring states them: theta = sqrt(lambda) x + eta and
    eta' = theta' - sqrt(lambda).  lam and eta may be arrays, one entry
    per trial lambda."""
    s = np.sqrt(lam)
    theta = s * x + eta
    d_eta = nu * nu * np.sin(theta) ** 2 / s + nu * np.sin(2.0 * theta)
    d_log_r = -(nu * nu * np.sin(2.0 * theta) / (2.0 * s)
                + nu * np.cos(2.0 * theta))
    return d_eta, d_log_r


def psi_norms_from_path(basis: EigenBasis,
                        phi_tilde: np.ndarray) -> np.ndarray:
    """||phi_tilde_n - sin(sqrt(lambda_n) x)|| per mode, with phi_tilde the
    rows that the basis's build handed to its checks, before normalizing."""
    grid = basis.grid
    psi = phi_tilde - np.sin(np.sqrt(basis.lambdas)[:, None] * grid.nodes)
    return np.array([grid.norm_l2(v) for v in psi])


def dop853_path(nu_like, lams: np.ndarray, nodes: np.ndarray,
                tol: float) -> np.ndarray:
    """(theta, log r) at the nodes for each trial lambda, shape (2,
    lambdas, nodes), from scipy's DOP853 (rtol = atol = tol) on phase_rhs
    in (eta, log r), all lambdas at once, panel by panel over nu's
    ode_panels from theta = log r = 0 at x = 0, as y(0) = 0 and y'(0) =
    sqrt(lambda): neither the Magnus map nor the package's RK45 pass."""
    m = lams.size
    state = np.zeros(2 * m)
    out = np.zeros((2, m, nodes.size))
    for a, b, nu_fn in nu_like.ode_panels():
        def rhs(x, v, nu_fn=nu_fn):
            return np.concatenate(phase_rhs(nu_fn(x), lams, x, v[:m]))

        inside = (nodes > a) & (nodes <= b)
        sol = solve_ivp(rhs, (a, b), state, method="DOP853", rtol=tol,
                        atol=tol, t_eval=np.union1d(nodes[inside], [b]))
        out[:, :, inside] = sol.y[:, :np.count_nonzero(inside)].reshape(
            2, m, -1)
        state = sol.y[:, -1]
    out[0] += np.sqrt(lams)[:, None] * nodes  # eta -> theta
    return out


def rk45_eigenfunctions(basis: EigenBasis, tol: float = 1e-13) -> tuple:
    """(phi, phi', tilde norms) of the basis's lambdas from dop853_path at
    tol, normalized and pinned at the walls as build_basis does: on the
    same lambdas, a reference for the eigenfunctions of any pass.  phi' is
    sqrt(lambda) r cos(theta) + nu phi, nu at its left limit as the basis
    reads it."""
    grid = basis.grid
    theta, log_r = dop853_path(basis.nu, basis.lambdas, grid.nodes, tol)
    r = np.exp(log_r)
    phi = r * np.sin(theta)
    dphi = (np.sqrt(basis.lambdas)[:, None] * r * np.cos(theta)
            + basis.nu.nu_values(grid.nodes) * phi)
    norms = np.array([grid.norm_l2(v) for v in phi])
    phi /= norms[:, None]
    dphi /= norms[:, None]
    phi[:, [0, -1]] = 0.0
    return phi, dphi, norms


def rk45_path(nu_like, lam: float, grid: Grid,
              tol: float = 1e-13) -> tuple[np.ndarray, np.ndarray]:
    """(theta, log r) at the grid's nodes for one trial lambda, from
    dop853_path at tol."""
    return tuple(dop853_path(nu_like, np.array([lam]), grid.nodes,
                             tol)[:, 0])


def dop853_theta(nu_like, lam: float) -> float:
    """theta(1, lambda) from dop853_path at tol 1e-12."""
    return float(dop853_path(nu_like, np.array([lam]), np.array([1.0]),
                             1e-12)[0, 0, 0])


# -- the recorded Magnus pass with its phase sums ---------------------------


@np.errstate(over="ignore", invalid="ignore")
def recorded_states_with_sums(mesh, lams: np.ndarray,
                              record: np.ndarray) -> np.ndarray:
    """The states (y, w) at the marked edges, shape (2, lambdas, marked),
    of _magnus_phase's blocked scan as it was when a recording pass also
    summed theta(1) and int y^2 chunk by chunk, then dropped them.  The
    cells' cos omega and sin omega / omega are the program's own, so that
    the states compare bit for bit; the overflow refusals are left out."""
    s = np.sqrt(lams)
    y, w = np.zeros_like(s), np.ones_like(s)
    theta, int_y2 = np.zeros_like(s), np.zeros_like(s)
    log_r, kept = np.zeros_like(s), []
    chunk = max(1, _CHUNK_ELEMENTS // s.size)
    for c0 in range(0, mesh[0].shape[0], chunk):
        cells = min(chunk, mesh[0].shape[0] - c0)
        size = math.isqrt(cells - 1) + 1
        blocks = -(-cells // size)
        pad = np.zeros((blocks * size - cells, 1))
        h, a, p, m, u, pm, d2 = (np.concatenate([c[c0:c0 + cells], pad]).reshape(
            blocks, size, 1).swapaxes(0, 1).copy() for c in mesh)
        det = pm * (lams + d2)
        om = np.sqrt(np.abs(det))
        sin, cos = om.copy(), np.empty_like(om)
        _sin_cos(sin, cos)
        sinc = np.divide(sin, om, out=np.ones_like(om), where=om != 0.0)
        neg = det < 0.0
        cos[neg], sinc[neg] = np.cosh(om[neg]), np.sinh(om[neg]) / om[neg]
        e11, e22 = cos + sinc * a, cos - sinc * a
        e12, e21 = sinc * s * p, -sinc * (s * m + u / s)
        t11, t12, t21, t22 = e11[0], e12[0], e21[0], e22[0]
        for j in range(1, size):
            t11, t12, t21, t22 = (e11[j] * t11 + e12[j] * t21,
                                  e11[j] * t12 + e12[j] * t22,
                                  e21[j] * t11 + e22[j] * t21,
                                  e21[j] * t12 + e22[j] * t22)
        ys = np.empty((size + 1, blocks, s.size))
        ws = np.empty_like(ys)
        g2 = np.empty((blocks, s.size))
        for b in range(blocks):
            ys[0, b], ws[0, b] = y, w
            y, w = t11[b] * y + t12[b] * w, t21[b] * y + t22[b] * w
            g2[b] = y * y + w * w
            r = np.sqrt(g2[b])
            y, w = y / r, w / r
        for j in range(size):
            ys[j + 1] = e11[j] * ys[j] + e12[j] * ws[j]
            ws[j + 1] = e21[j] * ys[j] + e22[j] * ws[j]
        theta += np.sum(np.sum(np.arctan2(ws[:-1] * ys[1:] - ys[:-1] * ws[1:],
                                          ws[:-1] * ws[1:] + ys[:-1] * ys[1:]),
                               axis=0), axis=0)
        sq = ys * ys
        for b, s_b in enumerate(np.sum(0.5 * h * (sq[:-1] + sq[1:]), axis=0)):
            int_y2 = (int_y2 + s_b) / g2[b]
        logs = np.cumsum(np.vstack([log_r, 0.5 * np.log(g2)]), axis=0)
        blk, at = np.divmod(np.flatnonzero(record[c0:c0 + cells]), size)
        kept.append(np.stack((ys[at, blk], ws[at, blk])) * np.exp(logs[blk]))
        log_r = logs[-1]
    if record[-1]:
        kept.append(np.stack((y, w))[:, None] * np.exp(log_r))
    return np.concatenate(kept, axis=1).swapaxes(1, 2)


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
    return EigenBasis(
        lambdas=cache["lambdas"],
        phi_matrix=cache["phi"], phi_prime_matrix=cache["phi_prime"],
        tilde_norms=cache["tilde_norms"],
        theta_residuals=cache["theta_residuals"],
        nu=potential_from_descriptor(cache["nu"]),
        grid=Grid(int(cache["grid_n"])),
        gram_max_offdiag=float(cache["gram_max_offdiag"]),
        theta_error_estimate=float(cache["theta_error_estimate"]))
