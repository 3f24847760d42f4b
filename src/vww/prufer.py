"""Dirichlet eigenpairs of -y'' + q y through the phase/amplitude system.

With q = nu' and the quasi-derivative y -> y' - nu*y, the pair
(y, y' - nu*y) = (r sin(theta), sqrt(lambda) r cos(theta)) satisfies

    theta' = sqrt(lambda) + nu^2 sin^2(theta)/sqrt(lambda) + nu sin(2 theta)
    (log r)' = -[ nu^2 sin(2 theta)/(2 sqrt(lambda)) + nu cos(2 theta) ]

in which only nu appears, never q, so Dirac layers in q reduce to mere
jump discontinuities of the right-hand side.  Integration is split at
every jump of nu and carried in the corrected phase eta = theta -
sqrt(lambda) x, which removes the dominant linear drift from the error
control.  Eigenvalues are the solutions of theta(1, lambda) = pi n,
located by bracketed false-position iteration on the increasing map
lambda -> theta(1, lambda).  These root-finding passes integrate eta
alone, as the condition never reads log r, and evaluate both ends of a
bracket in one batch; log r is integrated only on the final pass sampled
on the grid.  Eigenfunctions are r sin(theta), normalized in L^2 by the
grid's Simpson rule; a basis whose samples are not orthogonal to within
GRAM_DEFECT_TOL is refused as unresolved.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import BracketFailure, NonPositiveLambda, UnresolvedBasis
from .grid import Grid, GridFunction
from .ode import integrate_rk45
from .potential import Potential, potential_from_descriptor

DEFAULT_RTOL = 1e-11
DEFAULT_ATOL = 1e-11
THETA_RESIDUAL_TOL = 1e-10
# times a failing bracket's margin is doubled before BracketFailure
BRACKET_WIDENINGS = 7
# false-position iterations per root-refinement pass
FALSE_POSITION_STEPS = 80
# largest off-diagonal Gram entry accepted from build_basis; resolved bases
# sit orders of magnitude below it, aliased ones near 0.3
GRAM_DEFECT_TOL = 1e-2


def _make_rhs(nu_fn, sqrt_lam: np.ndarray, log_r: bool):
    inv_s = 1.0 / sqrt_lam

    def eta_rhs(x: float, eta: np.ndarray) -> np.ndarray:
        w = nu_fn(x)
        theta = sqrt_lam * x + eta
        st = np.sin(theta)
        return w * (w * inv_s * (st * st) + np.sin(2.0 * theta))

    def rhs(x: float, y: np.ndarray) -> np.ndarray:
        w = nu_fn(x)
        theta = sqrt_lam * x + y[0]
        st = np.sin(theta)
        ct = np.cos(theta)
        s2 = 2.0 * st * ct
        st2 = st * st
        out = np.empty_like(y)
        out[0] = w * (w * inv_s * st2 + s2)
        out[1] = -w * (0.5 * w * inv_s * s2 + (1.0 - 2.0 * st2))
        return out

    return rhs if log_r else eta_rhs


def _propagate(nu_like, lams: np.ndarray, rtol: float, atol: float,
               sample_nodes: np.ndarray | None = None):
    """Integrate the phase system over [0, 1] for a batch of lambda values.

    Without sample_nodes (a root-finding pass) the state is eta alone, of
    shape (M,), and so is the returned final state.  With sample_nodes the
    state is (eta, log r), of shape (2, M), and the recorded states of
    shape (len(nodes), 2, M) are returned as well.
    """
    lams = np.atleast_1d(np.asarray(lams, dtype=float))
    if np.any(lams <= 0.0):
        raise NonPositiveLambda(f"lambda must be positive, got {lams.min():.6g}")
    sqrt_lam = np.sqrt(lams)
    sampling = sample_nodes is not None
    y = np.zeros((2, lams.size) if sampling else lams.size)
    out = None
    pos = 0
    if sampling:
        out = np.empty((len(sample_nodes), 2, lams.size))
        if sample_nodes[0] == 0.0:
            out[0] = y
            pos = 1
    h_hint = None
    for a, b, nu_fn in nu_like.ode_panels():
        if b - a <= 1e-15:
            continue
        in_panel = None
        count = 0
        if sampling:
            hi = np.searchsorted(sample_nodes, b, side="right")
            in_panel = sample_nodes[pos:hi]
            count = len(in_panel)
            if count == 0:
                in_panel = None
        rhs = _make_rhs(nu_fn, sqrt_lam, sampling)
        y, sampled, _, h_hint = integrate_rk45(
            rhs, a, b, y, rtol, atol, samples=in_panel, first_step=h_hint)
        if count:
            out[pos:pos + count] = sampled
            pos += count
    return y, out


def _theta_end(nu_like, lams: np.ndarray, rtol: float, atol: float) -> np.ndarray:
    eta, _ = _propagate(nu_like, lams, rtol, atol)
    return np.sqrt(np.atleast_1d(lams)) + eta


def _phase_misfit(nu_like, lo, hi, target, rtol, atol):
    """theta(1, .) - target at both bracket ends, from one batched pass."""
    f = _theta_end(nu_like, np.concatenate([lo, hi]), rtol, atol)
    f -= np.concatenate([target, target])
    return f[:lo.size], f[lo.size:]


@dataclass(frozen=True)
class PruferPath:
    """Phase/amplitude trajectory at a fixed trial eigenvalue."""

    lam: float
    grid: Grid
    theta: np.ndarray = field(repr=False)
    log_r: np.ndarray = field(repr=False)
    eta: np.ndarray = field(repr=False)

    def __post_init__(self):
        for name in ("theta", "log_r", "eta"):
            arr = np.asarray(getattr(self, name), dtype=float)
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)

    @property
    def r(self) -> np.ndarray:
        return np.exp(self.log_r)


@dataclass(frozen=True)
class EigenPair:
    """Mode index, eigenvalue, normalized eigenfunction and its path."""

    n: int
    lam: float
    phi: GridFunction
    phi_prime: GridFunction
    path: PruferPath
    tilde_norm: float
    theta_residual: float

    @property
    def phi_tilde(self) -> np.ndarray:
        """Unnormalized eigenfunction r sin(theta)."""
        return self.path.r * np.sin(self.path.theta)


@dataclass(frozen=True)
class EigenBasis:
    """Eigenpairs n = 1..N for one potential on a shared grid."""

    pairs: tuple
    nu: Potential | None
    grid: Grid
    gram_max_offdiag: float

    def __len__(self) -> int:
        return len(self.pairs)

    @property
    def lambdas(self) -> np.ndarray:
        return np.array([p.lam for p in self.pairs])

    @property
    def phi_matrix(self) -> np.ndarray:
        """Eigenfunction samples, shape (N, nodes)."""
        return np.vstack([p.phi.values for p in self.pairs])

    @property
    def phi_prime_matrix(self) -> np.ndarray:
        return np.vstack([p.phi_prime.values for p in self.pairs])


def integrate_prufer(nu_like, lam: float, grid: Grid,
                     rtol: float = DEFAULT_RTOL,
                     atol: float = DEFAULT_ATOL) -> PruferPath:
    """Phase/amplitude path at one trial lambda, sampled on the grid."""
    if lam <= 0.0:
        raise NonPositiveLambda(f"lambda must be positive, got {lam}")
    _, sampled = _propagate(nu_like, np.array([lam]), rtol, atol,
                            sample_nodes=grid.nodes)
    eta = sampled[:, 0, 0]
    log_r = sampled[:, 1, 0]
    theta = math.sqrt(lam) * grid.nodes + eta
    return PruferPath(lam, grid, theta, log_r, eta)


# lambda > 0 is assumed throughout; brackets never probe below this floor,
# so configurations whose ground state sinks lower surface as BracketFailure
LAMBDA_FLOOR = 1e-2


def _initial_brackets(ns: np.ndarray, c: np.ndarray):
    base = (math.pi * ns) ** 2
    widen = 2.0 / ns + c
    lo = np.maximum(base * (1.0 - widen), LAMBDA_FLOOR)
    hi = base * (1.0 + widen)
    return lo, hi


def _bracket_modes(nu_like, ns: np.ndarray, rtol, atol):
    """Sign-changing brackets for theta(1, .) = pi n, widened on failure."""
    target = math.pi * ns
    c = np.full(ns.shape, 0.05)
    lo, hi = _initial_brackets(ns, c)
    flo, fhi = _phase_misfit(nu_like, lo, hi, target, rtol, atol)
    for _ in range(BRACKET_WIDENINGS):
        bad = ~((flo < 0.0) & (fhi > 0.0))
        if not np.any(bad):
            return lo, hi, flo, fhi
        c[bad] *= 2.0
        lo_b, hi_b = _initial_brackets(ns[bad], c[bad])
        lo[bad], hi[bad] = lo_b, hi_b
        flo[bad], fhi[bad] = _phase_misfit(nu_like, lo_b, hi_b, target[bad],
                                           rtol, atol)
    bad = np.nonzero(~((flo < 0.0) & (fhi > 0.0)))[0][0]
    raise BracketFailure(int(ns[bad]), float(lo[bad]), float(hi[bad]))


def _refine_roots(nu_like, ns, lo, hi, flo, fhi, rtol, atol, ftol):
    """Illinois-type false position on the bracketed phase condition."""
    target = math.pi * ns
    lo, hi, flo, fhi = (arr.copy() for arr in (lo, hi, flo, fhi))
    root = 0.5 * (lo + hi)
    froot = np.full(ns.shape, np.inf)
    active = np.ones(ns.shape, dtype=bool)
    stale_lo = np.zeros(ns.shape, dtype=int)
    stale_hi = np.zeros(ns.shape, dtype=int)
    for _ in range(FALSE_POSITION_STEPS):
        idx = np.nonzero(active)[0]
        if idx.size == 0:
            break
        denom = fhi[idx] - flo[idx]
        mid = hi[idx] - fhi[idx] * (hi[idx] - lo[idx]) / denom
        width = hi[idx] - lo[idx]
        # guard against stagnation at an endpoint
        mid = np.clip(mid, lo[idx] + 1e-3 * width, hi[idx] - 1e-3 * width)
        f = _theta_end(nu_like, mid, rtol, atol) - target[idx]
        root[idx] = mid
        froot[idx] = f
        neg = f < 0.0
        i_neg, i_pos = idx[neg], idx[~neg]
        lo[i_neg], flo[i_neg] = mid[neg], f[neg]
        stale_hi[i_neg] += 1
        stale_lo[i_neg] = 0
        hi[i_pos], fhi[i_pos] = mid[~neg], f[~neg]
        stale_lo[i_pos] += 1
        stale_hi[i_pos] = 0
        # Illinois weighting when one endpoint is retained twice running
        fhi[idx[stale_hi[idx] >= 2]] *= 0.5
        flo[idx[stale_lo[idx] >= 2]] *= 0.5
        done = (np.abs(froot[idx]) <= ftol) | (
            hi[idx] - lo[idx] <= 1e-15 * np.abs(hi[idx]))
        active[idx[done]] = False
    return root, froot, lo, hi


def _phi_prime(sqrt_lam, r, theta, phi_tilde, tilde_norm, nu_nodes):
    """phi' = (sqrt(lambda) r cos(theta) + nu phi_tilde) / ||phi_tilde||."""
    return (sqrt_lam * r * np.cos(theta) + nu_nodes * phi_tilde) / tilde_norm


def _solve_modes(nu_like, ns, grid: Grid, rtol: float, atol: float):
    ns = np.asarray(sorted(set(int(n) for n in ns)), dtype=float)
    if np.any(ns < 1):
        raise BracketFailure(int(ns.min()), 0.0, 0.0,
                             "mode index must be >= 1")
    # coarse pass brackets the roots cheaply, the fine pass polishes them
    rtol_c, atol_c = max(rtol * 100.0, 1e-9), max(atol * 100.0, 1e-9)
    lo, hi, flo, fhi = _bracket_modes(nu_like, ns, rtol_c, atol_c)
    root, _, _, _ = _refine_roots(nu_like, ns, lo, hi, flo, fhi,
                                  rtol_c, atol_c, ftol=1e-7)
    # fresh fine-tolerance bracket around the coarse root, wide enough that
    # the endpoint residuals (~ delta / 2 sqrt(lambda)) dwarf solver noise
    target = math.pi * ns
    delta = 2e-5 * np.sqrt(root)
    for _ in range(5):
        lo = np.maximum(root - delta, 1e-8)
        hi = root + delta
        flo, fhi = _phase_misfit(nu_like, lo, hi, target, rtol, atol)
        ok = (flo < 0.0) & (fhi > 0.0)
        if np.all(ok):
            break
        delta = np.where(ok, delta, delta * 8.0)
    else:
        bad = np.nonzero(~ok)[0][0]
        raise BracketFailure(int(ns[bad]), float(lo[bad]), float(hi[bad]),
                             "could not re-bracket at fine tolerance for "
                             f"mode n={int(ns[bad])}")
    # the numerical phase map carries noise of the order of the ODE
    # tolerance; the residual target sets no tighter than that
    ftol = max(0.5 * THETA_RESIDUAL_TOL, 5.0 * max(rtol, atol))
    root, froot, _, _ = _refine_roots(nu_like, ns, lo, hi, flo, fhi,
                                      rtol, atol, ftol=ftol)
    if np.any(np.abs(froot) > 2.0 * ftol):
        bad = np.nonzero(np.abs(froot) > 2.0 * ftol)[0][0]
        raise BracketFailure(
            int(ns[bad]), float(root[bad]), float(root[bad]),
            f"phase residual {froot[bad]:.3g} above tolerance for mode "
            f"n={int(ns[bad])}")
    _, sampled = _propagate(nu_like, root, rtol, atol, sample_nodes=grid.nodes)
    nu_nodes = nu_like.nu_values(grid.nodes)
    pairs = []
    sqrt_root = np.sqrt(root)
    for j, n in enumerate(ns.astype(int)):
        eta = sampled[:, 0, j].copy()
        log_r = sampled[:, 1, j].copy()
        theta = sqrt_root[j] * grid.nodes + eta
        path = PruferPath(float(root[j]), grid, theta, log_r, eta)
        r = np.exp(log_r)
        phi_tilde = r * np.sin(theta)
        tilde_norm = grid.norm_l2(phi_tilde)
        phi = phi_tilde / tilde_norm
        phi[0] = 0.0
        phi[-1] = 0.0
        dphi = _phi_prime(sqrt_root[j], r, theta, phi_tilde, tilde_norm,
                          nu_nodes)
        pairs.append(EigenPair(
            n=int(n), lam=float(root[j]),
            phi=GridFunction(grid, phi),
            phi_prime=GridFunction(grid, dphi),
            path=path, tilde_norm=float(tilde_norm),
            theta_residual=float(froot[j]),
        ))
    return pairs


def shoot_eigenvalue(nu_like, n: int, grid: Grid,
                     rtol: float = DEFAULT_RTOL,
                     atol: float = DEFAULT_ATOL) -> EigenPair:
    """Locate lambda_n with |theta(1, lambda_n) - pi n| <= 1e-10."""
    return _solve_modes(nu_like, [n], grid, rtol, atol)[0]


def eigen_derivative(pair: EigenPair, nu_like) -> GridFunction:
    """phi_n' from the phase representation plus the nu-correction term.

    nu enters with its left limit at jump locations, matching the stored
    eigenfunction convention.
    """
    path = pair.path
    return GridFunction(path.grid, _phi_prime(
        math.sqrt(pair.lam), path.r, path.theta, pair.phi_tilde,
        pair.tilde_norm, nu_like.nu_values(path.grid.nodes)))


def build_basis(nu_like, n_max: int, grid: Grid,
                rtol: float = DEFAULT_RTOL,
                atol: float = DEFAULT_ATOL) -> EigenBasis:
    """Eigenpairs for n = 1..n_max with orthogonality bookkeeping."""
    if n_max < 1:
        raise BracketFailure(n_max, 0.0, 0.0, "n_max must be >= 1")
    pairs = _solve_modes(nu_like, range(1, n_max + 1), grid, rtol, atol)
    lams = np.array([p.lam for p in pairs])
    if np.any(np.diff(lams) <= 0.0):
        k = int(np.nonzero(np.diff(lams) <= 0.0)[0][0])
        raise BracketFailure(pairs[k + 1].n, float(lams[k]), float(lams[k + 1]),
                             "eigenvalues failed to come out increasing")
    phi = np.vstack([p.phi.values for p in pairs])
    gram = (phi * grid.simpson_weights) @ phi.T
    off = gram - np.diag(np.diag(gram))
    defect = float(np.max(np.abs(off)))
    if defect > GRAM_DEFECT_TOL:
        raise UnresolvedBasis(
            f"n_max={n_max} modes are not resolved on a grid of {grid.n} "
            f"intervals: Gram defect {defect:.3g} > {GRAM_DEFECT_TOL:g}")
    return EigenBasis(pairs=tuple(pairs), nu=nu_like, grid=grid,
                      gram_max_offdiag=defect)


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
    x = grid.nodes
    psi_norms, rho_norms, devs, ns = [], [], [], []
    for p in basis.pairs:
        psi = p.phi_tilde - np.sin(math.sqrt(p.lam) * x)
        psi_norms.append(grid.norm_l2(psi))
        rho_norms.append(grid.norm_l2(p.path.r - 1.0))
        devs.append(abs(p.lam / (math.pi * p.n) ** 2 - 1.0))
        ns.append(p.n)
    psi_norms = np.array(psi_norms)
    return AsymptoticReport(
        ns=np.array(ns, dtype=float),
        psi_norms=psi_norms,
        rho_norms=np.array(rho_norms),
        partial_sums=np.cumsum(psi_norms**2),
        eigenvalue_rel_dev=np.array(devs),
    )


# -- serialization -----------------------------------------------------------


def basis_csv_rows(basis: EigenBasis) -> list[tuple]:
    """(n, lambda_n, theta_residual, tilde_norm, psi_norm) per mode."""
    rep = asymptotic_residuals(basis)
    return [
        (p.n, p.lam, p.theta_residual, p.tilde_norm, float(rep.psi_norms[i]))
        for i, p in enumerate(basis.pairs)
    ]


def basis_to_cache(basis: EigenBasis, include_eigenfunctions: bool = False) -> dict:
    nu = basis.nu
    desc = nu.descriptor() if nu is not None else None
    cache = {
        "grid_n": basis.grid.n,
        "nu": desc,
        "lambdas": [p.lam for p in basis.pairs],
        "theta_residuals": [p.theta_residual for p in basis.pairs],
        "tilde_norms": [p.tilde_norm for p in basis.pairs],
        "gram_max_offdiag": basis.gram_max_offdiag,
        "includes_eigenfunctions": bool(include_eigenfunctions),
    }
    if include_eigenfunctions:
        cache["phi"] = [p.phi.values.tolist() for p in basis.pairs]
        cache["phi_prime"] = [p.phi_prime.values.tolist() for p in basis.pairs]
        cache["eta"] = [p.path.eta.tolist() for p in basis.pairs]
        cache["log_r"] = [p.path.log_r.tolist() for p in basis.pairs]
    return cache


def basis_from_cache(cache: dict):
    """Rebuild an EigenBasis if eigenfunctions were cached, else metadata."""
    if not cache.get("includes_eigenfunctions"):
        return dict(cache)
    grid = Grid(int(cache["grid_n"]))
    nu = potential_from_descriptor(cache["nu"]) if cache.get("nu") else None
    pairs = []
    for i, lam in enumerate(cache["lambdas"]):
        eta = np.asarray(cache["eta"][i])
        log_r = np.asarray(cache["log_r"][i])
        theta = math.sqrt(lam) * grid.nodes + eta
        pairs.append(EigenPair(
            n=i + 1, lam=float(lam),
            phi=GridFunction(grid, np.asarray(cache["phi"][i])),
            phi_prime=GridFunction(grid, np.asarray(cache["phi_prime"][i])),
            path=PruferPath(float(lam), grid, theta, log_r, eta),
            tilde_norm=float(cache["tilde_norms"][i]),
            theta_residual=float(cache["theta_residuals"][i]),
        ))
    return EigenBasis(pairs=tuple(pairs), nu=nu, grid=grid,
                      gram_max_offdiag=float(cache["gram_max_offdiag"]))
