"""Dirichlet eigenpairs of -y'' + q y through the phase/amplitude system.

With q = nu' and the quasi-derivative y -> y' - nu*y, the pair
(y, y' - nu*y) = (r sin(theta), sqrt(lambda) r cos(theta)) satisfies

    theta' = sqrt(lambda) + nu^2 sin^2(theta)/sqrt(lambda) + nu sin(2 theta)
    (log r)' = -[ nu^2 sin(2 theta)/(2 sqrt(lambda)) + nu cos(2 theta) ]

in which only nu appears, never q, so Dirac layers in q reduce to mere
jump discontinuities of the right-hand side.  Eigenvalues are the
solutions of theta(1, lambda) = pi n.  They are found on the linear
system (y, w)' = B (y, w), w = (y' - nu y)/sqrt(lambda), with
B = [[nu, s], [-(s + nu^2/s), -nu]], s = sqrt(lambda): a closed-form
Magnus-4 step per cell (trace 0 makes exp(Omega) a cosine and a sine),
vectorized over all trial lambdas, and scanned in blocks of about
sqrt(cells) cells, so that a pass costs about 4 sqrt(cells) vectorized
steps rather than one per cell; a cell or block whose growth overflows a
float raises NonFiniteResult.  Each cell steps nu less its line through
nu's limits at the cell's edges, the line's slope folded into lambda,
with a zero-width shear cell at each atom (_cell_mesh), so that a nu
linear between its breakpoints is exact and nothing reads nu's level:
theta(1) is the angle of (y, y'/sqrt(lambda)) at 1.  Newton steps take
d theta(1)/d lambda from the Pruefer identity and stay inside a sign
bracket, all on one mesh per solve, which sqrt(lambda) sizes (twice that
if nu is curved, and half that rate on the panels where such a nu is
linear), not the grid; for a curved nu a Richardson estimate of
theta(1)'s error at the roots, from one pass at half the cells, accepts
that mesh or refines it.  At the roots one more pass samples phi_tilde
and phi_tilde' at the grid's nodes.
Where nu is linear between its breakpoints with slopes p below lambda_1,
that is an adaptive Runge-Kutta pass (_propagate): as only q = nu' enters
the operator, it steps nu less its line on each panel, zero, with s =
sqrt(lambda - p) for sqrt(lambda), so each phi_tilde is a sine there.
Any other nu takes one recorded Magnus pass (_recorded_pass): the
blocked scan of the Newton passes over the nodes and Newton's mesh,
refined by the estimate where tol asks, reading out (y, w) at the nodes,
so that its cost does not follow the oscillation of nu or of the modes;
a panel where nu is linear with slope below lambda_1 is one cell, whose
inner nodes, one slice, take a constant q's closed form from its start.
Sine-cosine tables take one tangent (_sin_cos).
Eigenfunctions are phi_tilde normalized in L^2 by the grid's Simpson
rule, for all modes at once: an EigenBasis is read-only arrays with one
row per mode n = 1..N, made once its rows pass the checks.  Lambdas that
do not increase are a BracketFailure; samples not orthogonal to within
GRAM_DEFECT_TOL, a mode whose norm of phi_tilde is not finite and
positive, or one whose Simpson and trapezoid norms differ by over
QUADRATURE_GAP_TOL (1/3 at two nodes per wavelength), are unresolved.
basis_csv_rows reports each mode's distance from the free asymptote,
||phi_tilde_n - sin(sqrt(lambda_n) x)||, with phi_tilde = ||phi_tilde||
phi, which keeps phi_tilde a local of the build.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field

import numpy as np

from .errors import (BracketFailure, ConfigError, GridMismatch,
                     MeshTooLarge, NonFiniteResult, NonPositiveSpectrum,
                     UnresolvedBasis)
from .grid import Grid, freeze_arrays
from .ode import integrate_rk45
from .potential import Potential

DEFAULT_TOL = 1e-11
# a build's tol: RK45 steps shrink as tol^(1/5), to millions at 1e-30; at
# 1e-2 lambda is up to 1.8 % off, yet the Gram check passes the basis
MIN_TOL, MAX_TOL = 1e-15, 1e-6
THETA_RESIDUAL_TOL = 1e-10
# safeguarded Newton passes before a mode counts as unconverged
NEWTON_PASSES = 40
# Magnus cells x lambdas per chunk, which bounds the (cells, lambdas)
# temporaries: 256 cells at 40 lambdas, a whole 2,048-cell mesh at one
_CHUNK_ELEMENTS = 10240
# most cells a Magnus mesh may hold.  Cells follow sqrt(lambda) (twice
# that where nu is curved), so this admits modes up to n ~ 1.3e6 (6.7e5)
# before any refinement, while the mesh's seven per-cell arrays stay near
# 235 MB; a larger mesh comes from a trial lambda beyond any resolvable
# mode, a steep nu, or an error estimate that no smaller mesh meets
_MAX_CELLS = 2**22
# fewest Magnus cells per smooth panel of nu, bar a linear one of a curved
# nu (_mesh_panels): resolves the narrow panels of a MollifiedNu at small
# eps, across which nu changes by a whole atom
_MIN_PANEL_CELLS = 32
# largest off-diagonal Gram entry accepted from build_basis; resolved bases
# sit orders of magnitude below it, aliased ones near 0.3
GRAM_DEFECT_TOL = 1e-2
# largest relative gap between an eigenfunction's Simpson and trapezoid
# norms^2: 1/3 for a mode at two nodes per wavelength, whose Simpson norm
# is aliased, at most 2e-14 for a sine one mode lower
QUADRATURE_GAP_TOL = 1e-2
# largest Magnus exponent |omega| of a hyperbolic cell whose cosh is finite
_MAX_OMEGA = math.acosh(sys.float_info.max)


def _make_rhs(nu_fn, s: np.ndarray, half_inv_s: np.ndarray):
    """(eta, log r)' in the double-angle form of the docstring's equations:
    eta' = nu sin 2theta + a (1 - cos 2theta), (log r)' = -(nu cos 2theta
    + a sin 2theta), theta = s x + eta, a = nu^2 half_inv_s, nu = nu_fn(x)
    the panel's nu - c (_propagate), a float or one per lambda.  s and
    half_inv_s = 1 / (2 s) are read at each call, so that a caller may
    rewrite them in place.  Returns a new array."""

    def rhs(x: float, y: np.ndarray) -> np.ndarray:
        nu = nu_fn(x)
        a = (nu * nu) * half_inv_s
        two_theta = s * x
        two_theta += y[0]
        two_theta += two_theta
        s2 = np.sin(two_theta)
        c2 = np.cos(two_theta, out=two_theta)
        out = np.empty_like(y)
        d_eta, d_log_r = out[0], out[1]
        np.multiply(s2, nu, out=d_eta)
        np.multiply(c2, -nu, out=d_log_r)
        c2 -= 1.0
        c2 *= a
        d_eta -= c2
        s2 *= a
        d_log_r -= s2
        return out

    return rhs


def _shear(y: np.ndarray, theta0: np.ndarray, k: np.ndarray,
           k1) -> np.ndarray:
    """(eta, log r) after w <- k1 w + k y, k1 > 0, theta = theta0 + eta:
    y = r sin(theta) and the sign of sin(theta) are kept, so each zero of y
    is kept.  With e = (k1 - 1) cos(theta) + k sin(theta), theta moves by
    atan2(-e sin(theta), 1 + e cos(theta)) and log r by log1p(e (2
    cos(theta) + e)) / 2."""
    eta, log_r = y
    s, c = np.sin(theta0 + eta), np.cos(theta0 + eta)
    e = (k1 - 1.0) * c + k * s
    return np.array((eta + np.arctan2(-e * s, 1.0 + e * c),
                     log_r + 0.5 * np.log1p(e * (c + c + e))))


def _sin_cos(x: np.ndarray, cos: np.ndarray) -> None:
    """sin x into x and cos x into cos, in place, from t = tan(x / 2): with
    d = 1 + t^2, sin x = 2 t / d and cos x = 2 / d - 1, within a few ulps of
    1.  numpy's float64 tan is SIMD, its sin and cos several times slower."""
    np.tan(np.multiply(x, 0.5, out=x), out=x)  # t
    np.add(np.multiply(x, x, out=cos), 1.0, out=cos)  # d
    np.divide(np.add(x, x, out=x), cos, out=x)
    np.subtract(np.divide(2.0, cos, out=cos), 1.0, out=cos)


def _gauge_line(f, mid: float, d: float) -> tuple:
    """(m, p), the RK45 gauge's line m + p (x - mid), f bit for bit on a
    constant: f's 3-point Gauss mean and slope about mid, nodes mid +- d."""
    lo, at, hi = f(mid - d), f(mid), f(mid + d)
    return at + (5.0 / 18.0) * (lo + hi - 2.0 * at), (hi - lo) / (d + d)


def _propagate(nu_like, lams: np.ndarray, tol: float,
               sample_nodes: np.ndarray, nu_nodes: np.ndarray) -> np.ndarray:
    """phi_tilde and phi_tilde' at sample_nodes for the lambdas lams, by
    RK45 over each panel of nu_like.ode_panels().

    Only q = nu' enters the operator, so the pass integrates nu - c, zero
    to rounding, for nu's line c(x) = m + p (x - mid) on the panel
    (_gauge_line), and its slope p, a constant reference potential below
    lams.min() (Ixaru 1984; Ledoux, Van Daele & Vanden Berghe, ACM TOMS 31,
    2005), moves to the eigenvalue: -y'' + (nu - c)' y = (lambda - p) y,
    stepped with s = sqrt(lambda - p) for sqrt(lambda), w = (y' - (nu - c)
    y) / s and theta = s x + eta.  Where c's value or slope moves at a
    panel's start, w <- (s_before / s) w + (c - c_before) y / s maps the
    state exactly.  Returns, shape (2, M, nodes), phi_tilde = r sin(theta)
    and phi_tilde' = s r cos(theta) + (nu - c) phi_tilde at each node, in
    the c and s of the panel whose step sampled it, nu from nu_nodes and
    theta's sine and cosine from one tangent (_sin_cos): neither depends
    on the gauge."""
    s = np.sqrt(lams)
    half_inv_s = 0.5 / s
    y = np.zeros((2, lams.size))
    out = np.empty((2, lams.size, len(sample_nodes)))
    # phi_tilde(0) = 0, so that node's c is immaterial; s there is sqrt(lambda)
    node_gauge = np.zeros((2, len(sample_nodes)))
    pos = 0
    if sample_nodes[0] == 0.0:
        out[:, :, 0] = y
        pos = 1
    h_hint = None
    m, p, mid = 0.0, 0.0, 0.0
    for a, b, f in nu_like.ode_panels():
        if b - a <= 1e-15:
            continue
        old_at = (m + p * (a - mid), p)  # the line's value and slope at a
        mid = 0.5 * (a + b)
        m, p = _gauge_line(f, mid, math.sqrt(0.6) * (mid - a))
        new_at = (m + p * (a - mid), p)
        if new_at != old_at:
            s_old = s.copy()
            np.sqrt(lams - p, out=s)
            y = _shear(y, s_old * a, (new_at[0] - old_at[0]) / s, s_old / s)
            # eta = theta - s x follows s, s_old - s = (p - p_old) / (s_old + s)
            y[0] += (p - old_at[1]) / (s_old + s) * a
            np.divide(0.5, s, out=half_inv_s)

        def nu_c(x, f=f, m=m, p=p, mid=mid):
            return f(x) - m - p * (x - mid)

        hi = np.searchsorted(sample_nodes, b, side="right")
        in_panel = sample_nodes[pos:hi]
        y, sampled, _, h_hint = integrate_rk45(
            _make_rhs(nu_c, s, half_inv_s), a, b, y, tol, samples=in_panel,
            first_step=h_hint)
        out[:, :, pos:hi] = np.moveaxis(sampled, 0, -1)
        node_gauge[0, pos:hi] = m + p * (in_panel - mid)
        node_gauge[1, pos:hi] = p
        pos = hi
    # in place: eta becomes theta, then phi_tilde; log r becomes r, then
    # phi_tilde'.  An r past a float's range makes inf and NaN rows, refused
    phi, dphi = out
    gauge, slope = node_gauge
    with np.errstate(over="ignore", invalid="ignore"):
        s = np.sqrt(lams[:, None] - slope)
        cos = s * sample_nodes
        phi += cos  # theta
        np.exp(dphi, out=dphi)  # r
        _sin_cos(phi, cos)
        phi *= dphi
        dphi *= s
        dphi *= cos
        dphi += np.multiply(nu_nodes - gauge, phi, out=s)
    return out


def _mesh_panels(nu_like, cells_per_unit: float) -> list:
    """(a, b, cells) for each smooth panel of nu: equal cells, at least
    _MIN_PANEL_CELLS and none wider than 1 / cells_per_unit.  Where nu is
    curved on some panels only, its linear ones take half the cells per
    unit, at least one: their gauged cells are exact (_cell_mesh), and only
    a turn of pi refines them (_PhaseMap).  A mesh of over _MAX_CELLS cells
    raises MeshTooLarge before any is made."""
    edges, half = [0.0, *nu_like.breakpoints, 1.0], not nu_like.piecewise_linear
    panels = [(a, b, max(1, math.ceil((b - a) * cells_per_unit * 0.5 - 1e-9))
               if half and linear else max(_MIN_PANEL_CELLS, math.ceil(
                   (b - a) * cells_per_unit - 1e-9)))
              for a, b, linear in zip(edges, edges[1:], nu_like.linear_panels)
              if b - a > 1e-15]
    total = sum(n for _, _, n in panels)
    if total > _MAX_CELLS:
        raise MeshTooLarge(f"a Magnus mesh of {total:.3g} cells exceeds the "
                           f"ceiling of {_MAX_CELLS} cells")
    return panels


def _magnus_mesh(nu_like, cells_per_unit: float):
    """The Magnus mesh of _mesh_panels(nu_like, cells_per_unit)."""
    return _panel_mesh(nu_like, _mesh_panels(nu_like, cells_per_unit))


def _panel_mesh(nu_like, panels):
    """_cell_mesh of the equal cells of each (a, b, cells) panel."""
    cuts = [np.linspace(a, b, 1 + n)[:-1] for a, b, n in panels]
    return _cell_mesh(nu_like, np.concatenate([*cuts, [1.0]]))


def _cell_mesh(nu_like, edges: np.ndarray):
    """Per-cell terms of the Magnus-4 exponent over the cells between the
    increasing edges, from 0 to 1, in the gauge of nu's interpolant c, each
    of shape (cells, 1).

    On each cell c is the line through nu's right limit at its start and
    its left limit at its end, of slope sigma.  As only q = nu' enters the
    operator, the cell solves -y'' + (nu - c)' y = (lambda - sigma) y for
    (y, w), w = (y' - (nu - c) y) / s, s = sqrt(lambda).  With nu_1, nu_2
    the values of nu - c at the two Gauss points of a cell of width h,
    Omega = h/2 (B_1 + B_2) + sqrt(3)/12 h^2 [B_2, B_1] for B = [[nu, s],
    [-(s + (nu^2 - sigma)/s), -nu]] is [[a, s p], [-(s m + u/s), -a]] with
    p, m = h +- k, k = sqrt(3)/6 h^2 (nu_2 - nu_1); its determinant, p m
    (lambda + d2), d2 = (nu_2 - nu_1)^2 / 4 - sigma, is negative only where
    |k| > h or sigma > lambda + (nu_2 - nu_1)^2 / 4.  c jumps by alpha at
    an atom of height alpha, and a zero-width cell with u = -alpha after it
    makes the exact shear w <- w + alpha y / s, which keeps y and its
    zeros.  At x = 1, nu - c is 0 and w = y' / s: theta(1) is theta for nu
    - nu(1-), of the same q, zeros of y and Pruefer identity.  Where nu is
    linear between its breakpoints, nu - c is 0 and each cell exact.  A nu
    whose terms overflow raises NonFiniteResult before any pass.
    """
    h, left = np.diff(edges), edges[:-1]
    mid = left + 0.5 * h
    ends, jump = nu_like.nu_values(edges), nu_like.heights(edges)
    c0, c1 = ends[:-1] + jump[:-1], ends[1:]
    nu1, nu2 = (nu_like.nu_values(mid + t * h / math.sqrt(12.0)) for t in (-1, 1))
    with np.errstate(over="ignore", invalid="ignore"):
        # c at the Gauss points is cm -+ dc
        cm, dc = 0.5 * (c0 + c1), (c1 - c0) / math.sqrt(12.0)
        nu1, nu2 = nu1 - (cm - dc), nu2 - (cm + dc)
        sigma = (c1 - c0) / h
        dn = nu2 - nu1
        k = (math.sqrt(3.0) / 6.0) * h * h * dn
        p, m = h + k, h - k
        a = 0.5 * p * (nu1 + nu2)
        u = 0.5 * h * (nu1 * nu1 + nu2 * nu2) + k * nu1 * nu2 - m * sigma
        terms = (h, a, p, m, u, p * m, 0.25 * dn * dn - sigma)
    if not all(np.all(np.isfinite(c)) for c in terms):
        raise NonFiniteResult(
            "a Magnus mesh term is not finite for max |nu| = "
            f"{np.max(np.abs(ends)):.6g}")
    # the zero-width shear cells, one after each atom
    at = np.flatnonzero(jump[1:-1]) + 1
    return tuple(np.insert(c, at, -jump[at] if c is u else 0.0)[:, None]
                 for c in terms)


def _panel_slopes(nu_like) -> np.ndarray:
    """_cell_mesh's slope sigma of each panel between nu's breakpoints, from
    nu's right limit at its start to its left limit at its end."""
    edges = np.array([0.0, *nu_like.breakpoints, 1.0])
    ends, jump = nu_like.nu_values(edges), nu_like.heights(edges)
    return (ends[1:] - (ends[:-1] + jump[:-1])) / np.diff(edges)


@np.errstate(over="ignore", invalid="ignore")
def _magnus_phase(mesh, lams: np.ndarray, record=None):
    """theta(1) and d theta(1) / d lambda for each lambda, by Magnus-4;
    with record, a boolean mask over the mesh's cells + 1 edges, only the
    states (y, w) at the marked edges, shape (2, lambdas, marked).

    The state is (y, w) = r (sin theta, cos theta); theta(1) sums the
    per-cell atan2 increments, so no cell may turn by pi or more.  The
    Pruefer identity (y Z - z Y)' = -y^2, with Y, Z the lambda-derivatives
    of y and z = s w, gives d theta / d lambda = [s int y^2 + y w / 2] /
    (lambda r^2); int y^2 is the trapezoid rule over the cells.

    The scan is blocked.  Each chunk is cut into blocks of about
    sqrt(chunk) cells, the last padded with identity cells of width 0.
    The blocks' transfer matrices, and then the states inside them, are
    stepped cell by cell over all blocks at once; in between, the block
    start states are chained and rescaled to r = 1, recording each block's
    growth g_b^2.  int y^2 is folded per block as (int + S_b) / g_b^2, so
    no product of growths can overflow.  A hyperbolic cell or a block
    whose growth overflows raises NonFiniteResult before its NaN spreads.
    A recorded state is the scan's, times exp of its block's running log
    growth, the sum of log g_b over the blocks before it: (y, w) from y(0)
    = 0, w(0) = 1, and inf or NaN where r passes a float's range.
    """
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
        # (cell in block, block, 1); zero terms make the identity step
        h, a, p, m, u, pm, d2 = (np.concatenate([c[c0:c0 + cells], pad]).reshape(
            blocks, size, 1).swapaxes(0, 1).copy() for c in mesh)
        det = pm * (lams + d2)
        om = np.sqrt(np.abs(det))
        sin, cos = om.copy(), np.empty_like(om)
        _sin_cos(sin, cos)
        # sin(om) / om, 1 at om = 0, a padding or shear cell's
        sinc = np.divide(sin, om, out=np.ones_like(om), where=om != 0.0)
        neg = det < 0.0
        if np.any(neg):
            # hyperbolic cells, where nu changes by over 2 sqrt(3) / h
            i = np.unravel_index(np.argmax(np.where(neg, om, 0.0)), om.shape)
            if om[i] > _MAX_OMEGA:
                raise NonFiniteResult(
                    f"nu varies too fast for a Magnus cell of width h = "
                    f"{h[i[0], i[1], 0]:.3g}: its growth exp(omega), omega = "
                    f"{om[i]:.3g}, overflows a float")
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
        finite = np.all(np.isfinite(g2), axis=1)
        if not np.all(finite):
            hb = h[:, np.argmin(finite), 0]
            raise NonFiniteResult(
                f"nu varies too fast for a block of {np.count_nonzero(hb)} "
                f"Magnus cells of width h = {hb.max():.3g}: their growth "
                "overflows a float")
        for j in range(size):
            ys[j + 1] = e11[j] * ys[j] + e12[j] * ws[j]
            ws[j + 1] = e21[j] * ys[j] + e22[j] * ws[j]
        if record is not None:
            # log r at each block's start, then at the chunk's end
            logs = np.cumsum(np.vstack([log_r, 0.5 * np.log(g2)]), axis=0)
            blk, at = np.divmod(np.flatnonzero(record[c0:c0 + cells]), size)
            kept.append(np.stack((ys[at, blk], ws[at, blk]))
                        * np.exp(logs[blk]))
            log_r = logs[-1]
            continue
        # summed per block, then over blocks: a sum over both axes at once
        # would add the cells one by one and lose 1e-12 at 40 lambdas
        theta += np.sum(np.sum(np.arctan2(ws[:-1] * ys[1:] - ys[:-1] * ws[1:],
                                          ws[:-1] * ws[1:] + ys[:-1] * ys[1:]),
                               axis=0), axis=0)
        sq = ys * ys
        for b, s_b in enumerate(np.sum(0.5 * h * (sq[:-1] + sq[1:]), axis=0)):
            int_y2 = (int_y2 + s_b) / g2[b]
    if record is None:
        return theta, (s * int_y2 + 0.5 * y * w) / lams
    if record[-1]:
        kept.append(np.stack((y, w))[:, None] * np.exp(log_r))
    return np.concatenate(kept, axis=1).swapaxes(1, 2)


@dataclass(frozen=True, eq=False)
class EigenBasis:
    """Eigenpairs of modes n = 1..N on a shared grid, one read-only row each.

    phi_matrix and phi_prime_matrix are the normalized eigenfunctions and
    their derivatives at the nodes, shape (N, nodes); tilde_norms the L^2
    norms of r sin(theta), so that tilde_norms[:, None] * phi_matrix is
    r sin(theta) at the interior nodes; theta_residuals theta(1, lambda_n)
    - pi n, with theta(1) the angle of (y, y'/sqrt(lambda_n)) at 1.  Every
    lambda_n is positive, as the frequencies sqrt(lambda_n) and negative
    Sobolev orders need.
    """

    lambdas: np.ndarray
    phi_matrix: np.ndarray = field(repr=False)
    phi_prime_matrix: np.ndarray = field(repr=False)
    tilde_norms: np.ndarray
    theta_residuals: np.ndarray
    nu: Potential
    grid: Grid
    # largest off-diagonal Gram entry, measured by build_basis
    gram_max_offdiag: float = math.nan
    # largest estimated error of theta(1, lambda_n) on Newton's mesh, by
    # build_basis; 0 for a nu linear between its breakpoints, where the
    # gauged Magnus-4 cells are exact
    theta_error_estimate: float = math.nan

    def __post_init__(self):
        freeze_arrays(self, "lambdas", "phi_matrix", "phi_prime_matrix",
                      "tilde_norms", "theta_residuals")
        rows = {self.phi_matrix.shape, self.phi_prime_matrix.shape}
        if rows != {(len(self), self.grid.n + 1)}:
            raise GridMismatch(f"{len(self)} modes on {self.grid.n + 1} "
                               f"nodes, but rows of shapes {sorted(rows)}")
        if np.any(self.lambdas <= 0.0):
            raise NonPositiveSpectrum(
                f"non-positive eigenvalue {self.lambdas.min():.6g} in basis")

    def __len__(self) -> int:
        return len(self.lambdas)


# lambda > 0 is assumed throughout; brackets never probe below this floor,
# so configurations whose ground state sinks lower surface as BracketFailure
LAMBDA_FLOOR = 1e-2


class _Refined(Exception):
    """Newton's mesh was refined under a trial lambda; Newton restarts."""


class _PhaseMap:
    """lambdas -> (theta(1), d theta(1) / d lambda), one Magnus pass each,
    on the one mesh of a Newton solve, which the grid does not size.

    The first call's lambdas set the mesh by the turning rule, at which a
    cell turns by about 1 rad.  A nu linear between its breakpoints, whose
    gauged cells (_cell_mesh) are exact and turn by h sqrt(lambda - sigma),
    sigma their slope, gets sqrt(max lambda - min(0, min sigma)) cells per
    unit; any other nu the power of two at or above twice sqrt(max lambda),
    at least 64 (half on its linear panels, _mesh_panels), which
    error_estimate then checks.  Neither reads nu's level.  A later lambda
    that would turn a cell by pi or more (omega^2 = p m (lambda + d2) >=
    pi^2, d2 from nu - c), which the per-cell atan2 cannot count, refines
    the mesh and raises _Refined.
    """

    def __init__(self, nu_like):
        self.nu_like, self.cells, self.mesh = nu_like, 0, None

    def remesh(self, cells: int):
        self.cells, self.mesh = cells, _magnus_mesh(self.nu_like, cells)

    def __call__(self, lams: np.ndarray):
        top = float(np.max(lams))
        if self.mesh is None or np.max(
                self.mesh[5] * (top + self.mesh[6])) >= math.pi**2:
            linear = self.nu_like.piecewise_linear
            if linear:
                top -= min(0.0, float(_panel_slopes(self.nu_like).min()))
            # past _MAX_CELLS, the mesh that MeshTooLarge names
            c = min(math.sqrt(top), _MAX_CELLS + 1.0)
            c = (math.ceil(c) if linear
                 else max(64, 2 ** math.ceil(math.log2(2.0 * c))))
            refined = self.mesh is not None
            self.remesh(max(2 * self.cells, c))
            if refined:
                raise _Refined
        return _magnus_phase(self.mesh, lams)

    def error_estimate(self, lams: np.ndarray, theta: np.ndarray) -> float:
        """max |theta - theta_{c/2}| / 15 over lams, with theta = theta(1)
        on this mesh and theta_{c/2} on its panels at half the cells: the
        Richardson estimate of this mesh's error for a fourth-order step."""
        panels = [(a, b, max(1, n // 2))
                  for a, b, n in _mesh_panels(self.nu_like, self.cells)]
        coarse, _ = _magnus_phase(_panel_mesh(self.nu_like, panels), lams)
        return float(np.max(np.abs(theta - coarse))) / 15.0


def _newton_roots(phase, ns: np.ndarray, start: np.ndarray, ftol: float):
    """Newton on theta(1, lambda) = pi n for the unconverged modes, inside
    the bracket [lo, hi] that the sign of theta(1) - pi n gives (lo = 0, hi
    = inf while unknown).  A step out of it bisects, or doubles lambda
    while hi is unknown, or probes LAMBDA_FLOOR while lo is."""
    target = math.pi * ns
    lam = np.maximum(start, LAMBDA_FLOOR)
    res = np.full(ns.shape, np.inf)
    lo, hi = np.zeros(ns.shape), np.full(ns.shape, np.inf)
    idx = np.arange(ns.size)
    for _ in range(NEWTON_PASSES):
        x = lam[idx]
        if not np.all(np.isfinite(x)):
            j = idx[~np.isfinite(x)][0]
            raise BracketFailure(int(ns[j]), float(lo[j]), float(hi[j]),
                                 f"trial lambda {lam[j]} for mode "
                                 f"n={int(ns[j])} is not finite")
        f, df = phase(x)
        f -= target[idx]
        res[idx] = f
        below = f < 0.0
        lo[idx[below]] = x[below]
        hi[idx[~below]] = x[~below]
        floor = (f > ftol) & (x <= LAMBDA_FLOOR)
        if np.any(floor):
            j = idx[floor][0]
            raise BracketFailure(int(ns[j]), LAMBDA_FLOOR, float(hi[j]))
        with np.errstate(divide="ignore", invalid="ignore"):
            step = x - f / df
        l, h = lo[idx], hi[idx]
        out = ~((step > l) & (step < h))
        step[out] = np.where(np.isinf(h), 2.0 * x,
                             np.where(l > 0.0, 0.5 * (l + h), LAMBDA_FLOOR))[out]
        keep = ~(np.abs(f) <= ftol)  # a NaN residual is not converged
        lam[idx[keep]] = step[keep]
        idx = idx[keep]
        if idx.size == 0:
            return lam, res
    j = idx[0]
    raise BracketFailure(int(ns[j]), float(lo[j]), float(hi[j]),
                         f"phase residual {res[j]:.3g} above tolerance for "
                         f"mode n={int(ns[j])}")


def _sine_sums(w: np.ndarray, x: np.ndarray, ns: np.ndarray) -> np.ndarray:
    """w @ sin(n y), y = 2 pi x, per whole n >= 1 of ns, a row at a time (a
    table adds RSS): sin((n + 1) y) = 2 cos y sin(n y) - sin((n - 1) y)."""
    # libm's sin y and cos y, whose rounding the recurrence amplifies
    sin, cos = np.sin(2.0 * math.pi * x), np.cos(2.0 * math.pi * x)
    prev, sums = np.zeros_like(x), np.empty(int(ns.max()))
    for n in range(sums.size):
        sums[n], prev, sin = w @ sin, sin, 2.0 * cos * sin - prev
    return sums[ns.astype(int) - 1]


def _roots(nu_like, ns: np.ndarray, grid: Grid, ftol: float):
    """(lambda_n, theta(1, lambda_n) - pi n, theta(1)'s error estimate, nu
    at the nodes, the mesh's cells per unit) by Newton on one _PhaseMap
    mesh, which sqrt(lambda) sizes and not nu's level, from a first-order
    start (_sine_sums).  For a nu not linear between its breakpoints, an
    estimate above max(THETA_RESIDUAL_TOL, ftol) multiplies the cells by
    2^ceil(log2((estimate / bound)^(1/4))), the fourth-order step's factor
    to meet it, and Newton goes on from the roots; past _MAX_CELLS
    MeshTooLarge names the estimate.  The gauged cells are exact for a nu
    linear between its breakpoints (estimate 0)."""
    # start at first order in nu, (pi n)^2 + int q 2 sin^2(pi n x) = (pi n)^2
    # - 2 pi n int (nu - nu(0)) sin(2 pi n x), free of nu's level.  A nu that
    # overflows here makes a start that _newton_roots names
    with np.errstate(over="ignore", invalid="ignore"):
        # nu enters phi' with its left limit at jump locations
        nu_nodes = nu_like.nu_values(grid.nodes)
        lam = (math.pi * ns) ** 2 - 2.0 * math.pi * ns * _sine_sums(
            grid.simpson_weights * (nu_nodes - nu_nodes[0]), grid.nodes, ns)
    phase = _PhaseMap(nu_like)
    bound = max(THETA_RESIDUAL_TOL, ftol)
    while True:
        try:
            root, res = _newton_roots(phase, ns, lam, ftol)
        except _Refined:
            continue
        est = (phase.error_estimate(root, res + math.pi * ns)
               if not nu_like.piecewise_linear else 0.0)
        if est <= bound:
            return root, res, est, nu_nodes, phase.cells
        lam = root
        try:
            phase.remesh(phase.cells * 2 ** math.ceil(
                math.log2((est / bound) ** 0.25)))
        except MeshTooLarge as err:
            raise MeshTooLarge(f"theta(1) error estimate {est:.3g} is above "
                               f"{bound:.3g}, and {err}") from None


def _recorded_pass(nu_like, lams: np.ndarray, cells: int, est: float,
                   tol: float, nodes: np.ndarray):
    """phi_tilde and phi_tilde' at the nodes, shape (2, M, nodes), from one
    recorded Magnus-4 pass (_magnus_phase) over the nodes and the edges of
    Newton's mesh of `cells` per unit, nu's breakpoints among them, so that
    no cell is wider than Newton's, in its gauge (_cell_mesh).  Each node
    is read before any shear cell there, at nu's left limit, where nu - c
    is 0: phi_tilde = y and phi_tilde' = sqrt(lambda) w.  Where theta(1)'s
    error estimate est on Newton's mesh is above tol, that mesh takes the
    fourth-order step's factor 2^ceil(log2((est / tol)^(1/4))) of cells,
    unless it would pass _MAX_CELLS.

    A flat panel [a, b], linear with slope sigma below lambda_1, is one
    exact cell, its inner cuts and nodes out of the mesh; those nodes, one
    slice, are filled in place from the state (y0, w0) after any shear at
    a, as q is the constant sigma there: y = y0 cos kt + (s w0 / k) sin kt
    and phi_tilde' = y', k = sqrt(lambda - sigma) once per lambda, s =
    sqrt(lambda), t = x - a.  With no flat panel the scan's array is kept."""
    refine = 2 ** math.ceil(math.log2((est / tol) ** 0.25)) if est > tol else 1
    try:
        panels = _mesh_panels(nu_like, cells * refine)
    except MeshTooLarge:
        panels = _mesh_panels(nu_like, cells)
    bounds = np.array([0.0, *nu_like.breakpoints, 1.0])
    slopes = _panel_slopes(nu_like)
    flat = np.flatnonzero(np.array(nu_like.linear_panels) & (slopes < lams[0]))
    left, right = bounds[flat], bounds[flat + 1]
    edges = np.union1d(nodes, np.concatenate(
        [np.linspace(a, b, 1 + n) for a, b, n in panels]))
    keep = np.ones(edges.size, dtype=bool)
    for i, j in zip(np.searchsorted(edges, left, "right"),
                    np.searchsorted(edges, right)):
        keep[i:j] = False
    edges = edges[keep]
    mesh = _cell_mesh(nu_like, edges)
    # each node's state before any shear cell; inner ones, their panel's start
    real = np.flatnonzero(mesh[0])
    at = np.append(0, real + 1)[np.searchsorted(edges, nodes, "right") - 1]
    lo, hi = np.searchsorted(nodes, left, "right"), np.searchsorted(nodes, right)
    for i, j, start in zip(lo, hi, real[np.searchsorted(edges, left)]):
        at[i:j] = start
    record = np.bincount(at, minlength=mesh[0].shape[0] + 1) > 0
    kept = _magnus_phase(mesh, lams, record)
    with np.errstate(over="ignore", invalid="ignore"):
        kept[1] *= np.sqrt(lams)[:, None]
        if flat.size == 0:
            return kept
        out = np.take(kept, (np.cumsum(record) - 1)[at], axis=2)  # C order
        for i, j, sigma, a in zip(lo, hi, slopes[flat], left):
            k = np.sqrt(lams - sigma)[:, None]
            y, dy = out[:, :, i:j]  # each column the start state (y0, y0')
            w, v = dy[:, :1] / k, k * y[:, :1]
            sin = k * (nodes[i:j] - a)
            cos = np.empty_like(sin)
            _sin_cos(sin, cos)
            out[:, :, i:j] *= cos
            y += np.multiply(w, sin, out=cos)
            dy -= np.multiply(v, sin, out=sin)
    return out


def _eigenbasis(nu_like, grid: Grid, tol: float, root, froot, est,
                phi, dphi) -> EigenBasis:
    """The basis of the roots from their phi_tilde and phi_tilde' rows
    (_propagate or _recorded_pass), which it normalizes in place, once its
    lambdas increase, its samples are orthogonal to GRAM_DEFECT_TOL, each
    mode's norm is finite and positive and its Simpson and trapezoid norms
    agree to QUADRATURE_GAP_TOL."""
    steps = np.diff(root)
    if np.any(steps <= 0.0):
        k = int(np.nonzero(steps <= 0.0)[0][0])
        raise BracketFailure(k + 2, float(root[k]), float(root[k + 1]),
                             "eigenvalues failed to come out increasing")
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        # per row, as grid.norm_l2 sums; a table product sums otherwise
        tilde_norms = np.array([grid.norm_l2(v) for v in phi])
        dphi /= tilde_norms[:, None]
        phi /= tilde_norms[:, None]
    phi[:, [0, -1]] = 0.0
    gram = (phi * grid.simpson_weights) @ phi.T
    off = gram - np.diag(np.diag(gram))
    defect = float(np.max(np.abs(off)))
    if not defect <= GRAM_DEFECT_TOL:  # NaN included
        raise UnresolvedBasis(
            f"n_max={len(root)} modes are not resolved on a grid of {grid.n} "
            f"intervals at tol={tol:g}: Gram defect {defect:.3g} is not <= "
            f"{GRAM_DEFECT_TOL:g}")
    # an r that overflows at x = 1 alone leaves a zero row of phi
    k = int(np.argmin(np.isfinite(tilde_norms) & (tilde_norms > 0.0)))
    if not 0.0 < tilde_norms[k] < math.inf:
        raise UnresolvedBasis(
            f"mode n={k + 1} is not resolved at tol={tol:g}: its eigenfunction"
            f" norm {tilde_norms[k]:.3g} is not finite and positive")
    sq = phi * phi
    trap = grid.h * (np.sum(sq, axis=1) - 0.5 * (sq[:, 0] + sq[:, -1]))
    with np.errstate(divide="ignore", invalid="ignore"):
        gaps = np.abs(np.diag(gram) - trap) / trap
    k = int(np.argmax(gaps))  # the first NaN, if any
    if not gaps[k] <= QUADRATURE_GAP_TOL:
        raise UnresolvedBasis(
            f"mode n={k + 1} is not resolved on a grid of {grid.n} "
            f"intervals: its Simpson and trapezoid norms^2 differ by "
            f"{gaps[k]:.3g} relative, above {QUADRATURE_GAP_TOL:g}")
    return EigenBasis(root, phi, dphi, tilde_norms, froot, nu_like, grid,
                      defect, est)


def build_basis(nu_like, n_max: int, grid: Grid,
                tol: float = DEFAULT_TOL) -> EigenBasis:
    """Eigenpairs for n = 1..n_max: Newton on theta(1), then phi_tilde and
    phi_tilde' at the nodes, from the RK45 pass at tol (_propagate), whose
    rhs is zero, where nu is linear between its breakpoints with slopes
    below lambda_1, else from one recorded Magnus pass over Newton's mesh
    (_recorded_pass), in closed form on the panels where nu is linear with
    such a slope."""
    if n_max < 1:
        raise ConfigError(f"n_max must be >= 1, got {n_max}")
    if not MIN_TOL <= tol <= MAX_TOL:
        raise ConfigError(f"tol must be in [{MIN_TOL:g}, {MAX_TOL:g}], got "
                          f"{tol:g}")
    # the residual target sets no tighter than the RK45 pass's tolerance
    ftol = max(0.5 * THETA_RESIDUAL_TOL, 5.0 * tol)
    root, res, est, nu_nodes, cells = _roots(
        nu_like, np.arange(1.0, n_max + 1), grid, ftol)
    rows = (_propagate(nu_like, root, tol, grid.nodes, nu_nodes)
            if nu_like.piecewise_linear
            and _panel_slopes(nu_like).max() < root[0] else
            _recorded_pass(nu_like, root, cells, est, tol, grid.nodes))
    return _eigenbasis(nu_like, grid, tol, root, res, est, *rows)


# -- serialization -----------------------------------------------------------


def basis_csv_rows(basis: EigenBasis) -> list[tuple]:
    """(n, lambda_n, theta_residual, tilde_norm, psi_norm) per mode, with
    psi_norm the L^2 norm of phi_tilde_n - sin(sqrt(lambda_n) x)."""
    grid = basis.grid
    psi = basis.tilde_norms[:, None] * basis.phi_matrix
    sin = np.sqrt(basis.lambdas)[:, None] * grid.nodes
    _sin_cos(sin, np.empty_like(sin))
    psi -= sin
    return list(zip(range(1, len(basis) + 1), basis.lambdas.tolist(),
                    basis.theta_residuals.tolist(), basis.tilde_norms.tolist(),
                    [grid.norm_l2(v) for v in psi]))


def basis_to_cache(basis: EigenBasis, include_eigenfunctions: bool = False) -> dict:
    cache = {
        "grid_n": basis.grid.n,
        "nu": basis.nu.descriptor(),
        "lambdas": basis.lambdas.tolist(),
        "theta_residuals": basis.theta_residuals.tolist(),
        "tilde_norms": basis.tilde_norms.tolist(),
        "gram_max_offdiag": basis.gram_max_offdiag,
        "theta_error_estimate": basis.theta_error_estimate,
        "includes_eigenfunctions": bool(include_eigenfunctions),
    }
    if include_eigenfunctions:
        cache["phi"] = basis.phi_matrix.tolist()
        cache["phi_prime"] = basis.phi_prime_matrix.tolist()
    return cache

