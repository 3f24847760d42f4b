"""Singular potentials q = nu' modeled through their primitive nu.

A potential is never evaluated directly: nu is an L^2 function given as a
closed-form smooth part plus Heaviside jump atoms, so q consists of a
smooth density (the derivative of the smooth part) plus Dirac layers at
the jump locations.  Regularization convolves the zero-extension of q
with a compactly supported bump psi_eps(x) = psi(x/eps)/eps; the Dirac
part mollifies exactly to sum_i alpha_i * psi_eps(x - x_i), the smooth
density by quadrature over one window per point, bounded by the kinks of
the extension at 0 and 1.  :class:`MollifiedNu` tabulates the smooth part
of nu_eps and its slope q_eps together, in one such quadrature pass.
``mollified_q`` evaluates q_eps at points, such as a grid's nodes.

:class:`NuPrimitive`, :class:`MollifiedNu` and :class:`PerturbedNu` share
the :class:`Potential` protocol: vectorized ``nu_values`` and ``q_values``
(the bounded part of q); ``ode_panels``, (a, b, nu) with nu smooth on
each panel, called with one float and computing in plain float
arithmetic (over tables built once, for :class:`MollifiedNu`), since it
runs at every Runge-Kutta stage; their interior edges
``breakpoints``; ``jumps``, the (location, height) Dirac atoms still
present in q, empty when q is bounded and ``q_linf`` exists;
``has_density``, False when q is atoms alone, i.e. nu is constant on each
panel; and ``descriptor``.  The base class states ``q_linf`` and the
norms of nu, ``norm_l2`` and ``norm_linf``, once for all three: per-panel
rules read through ``nu_values``, ``breakpoints`` and ``jumps``.

The ``samples`` smooth kind is the only user of scipy in vww: its quintic
spline (``scipy.interpolate.InterpolatedUnivariateSpline``) is imported
when first built, so importing vww loads no scipy module.  Its
``ode_panels`` evaluate the spline's quintic pieces in plain floats.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable

import numpy as np

from .errors import ConfigError, MeshTooLarge, MissingNorm

SMOOTH_KINDS = ("zero", "const", "linear", "sine", "samples")

_PRIMITIVE_PANELS = 16384
_LINF_SAMPLES_PER_PANEL = 4096
_CONV_CHUNK = 128  # points per _window_conv block: 128 x 256 nodes, 256 KiB
# most points of a MollifiedNu smooth table, at two 256-node quadratures
# and about 120 bytes held per point: 2^20 take tens of seconds and
# 120 MB, 255 times the largest table of the tests and the benchmark
# (4,097 points); a sine needs 2,048 points per unit of frequency
_MAX_TABLE_POINTS = 2**20


@lru_cache(maxsize=8)
def _gauss_rule(order: int):
    x, w = np.polynomial.legendre.leggauss(order)
    return x, w


def _cubic_hermite(s, h, f0, d0, f1, d1):
    """Cubic Hermite interpolant at s in [0, 1] of a panel of width h with
    values f0, f1 and slopes d0, d1 at its ends."""
    s2 = s * s
    s3 = s2 * s
    return (
        (2 * s3 - 3 * s2 + 1) * f0
        + (s3 - 2 * s2 + s) * h * d0
        + (-2 * s3 + 3 * s2) * f1
        + (s3 - s2) * h * d1
    )


class BumpProfile:
    """Smooth bump psi(u) = C * exp(-s / (1 - u^2)) * (1 + t*u) on (-1, 1).

    The normalization C makes the integral one.  The tilt t (|t| < 1)
    breaks evenness, giving a nonzero first moment; the default profiles
    are untilted.  The antiderivative Psi(u) = int_{-1}^u psi is
    tabulated once on a fine uniform grid and evaluated by cubic Hermite
    interpolation with the exact density as slope data, which keeps
    pointwise errors near machine precision.
    """

    def __init__(self, name: str, sharpness: float, tilt: float = 0.0):
        self.name = name
        self.sharpness = float(sharpness)
        self.tilt = float(tilt)
        self._built = False

    def _raw(self, u: np.ndarray) -> np.ndarray:
        u = np.asarray(u, dtype=float)
        inside = np.abs(u) < 1.0
        if not inside.all():  # Gauss nodes lie inside: no gather or scatter
            out = np.zeros_like(u)
            out[inside] = self._raw(u[inside])
            return out
        out = np.exp(-self.sharpness / (1.0 - u * u))
        return out * (1.0 + self.tilt * u) if self.tilt else out  # factor 1.0

    def _build(self):
        if self._built:
            return
        n = _PRIMITIVE_PANELS
        edges = np.linspace(-1.0, 1.0, n + 1)
        gx, gw = _gauss_rule(16)
        half = (edges[1] - edges[0]) / 2.0
        mids = (edges[:-1] + edges[1:]) / 2.0
        pts = mids[:, None] + half * gx[None, :]
        panel = (self._raw(pts) @ gw) * half
        cum = np.concatenate([[0.0], np.cumsum(panel)])
        total = cum[-1]
        self._norm = 1.0 / total
        self._table_x = edges
        self._table_v = cum / total
        self._table_v[-1] = 1.0
        self._table_d = self._norm * self._raw(edges)
        self._table_h = edges[1] - edges[0]
        # the same table as floats, for MollifiedNu's scalar ODE callable
        self._floats = (float(self._table_h), edges.tolist(),
                        self._table_v.tolist(), self._table_d.tolist())
        self._built = True

    def density(self, u) -> np.ndarray:
        """psi(u), vanishing outside (-1, 1)."""
        self._build()
        return self._norm * self._raw(u)

    def primitive(self, u) -> np.ndarray:
        """Psi(u) = int_{-1}^u psi, clamped to 0 / 1 outside the support."""
        self._build()
        u = np.atleast_1d(np.asarray(u, dtype=float))
        out = np.empty_like(u)
        below = u <= -1.0
        above = u >= 1.0
        out[below] = 0.0
        out[above] = 1.0
        mid = ~(below | above)
        if np.any(mid):
            um = u[mid]
            h = self._table_h
            idx = np.clip(((um + 1.0) / h).astype(int), 0, _PRIMITIVE_PANELS - 1)
            out[mid] = _cubic_hermite(
                (um - self._table_x[idx]) / h, h,
                self._table_v[idx], self._table_d[idx],
                self._table_v[idx + 1], self._table_d[idx + 1])
        return out


PROFILES: dict[str, BumpProfile] = {
    "bump": BumpProfile("bump", 1.0),
    "bump2": BumpProfile("bump2", 2.0),
    "bump_skew": BumpProfile("bump_skew", 1.0, tilt=0.5),
}


def get_profile(name: str) -> BumpProfile:
    try:
        return PROFILES[name]
    except KeyError:
        raise ConfigError(f"unknown mollifier profile {name!r}") from None


@dataclass(frozen=True)
class MollifierSpec:
    """A bump profile together with the scale eps in (0, 1]."""

    profile: str = "bump"
    epsilon: float = 0.25

    def __post_init__(self):
        get_profile(self.profile)
        if not 0.0 < self.epsilon <= 1.0:
            raise ConfigError(f"epsilon must lie in (0, 1], got {self.epsilon}")

    @property
    def bump(self) -> BumpProfile:
        return get_profile(self.profile)


@lru_cache(maxsize=64)
def _samples_spline(values: tuple):
    """Quintic spline through equispaced samples on [0, 1]."""
    from scipy.interpolate import InterpolatedUnivariateSpline
    vals = np.asarray(values, dtype=float)
    x = np.linspace(0.0, 1.0, vals.size)
    return InterpolatedUnivariateSpline(x, vals, k=5)


@lru_cache(maxsize=64)
def _samples_pieces(values: tuple):
    """The samples spline as plain floats: its knots, the midpoint of each
    knot interval and the Taylor coefficients of its quintic piece there."""
    spl = _samples_spline(values)
    knots = spl.get_knots()
    mids = 0.5 * (knots[:-1] + knots[1:])
    coefs = np.array([spl(mids, nu=j) / math.factorial(j) for j in range(6)])
    return knots.tolist(), mids.tolist(), [tuple(c) for c in coefs.T.tolist()]


class Potential:
    """Base of the potential protocol (see the module docstring).

    The norms of nu are per-panel rules over [0, *breakpoints, 1], read
    through ``nu_values``: Gauss-Legendre for ``norm_l2``, uniform samples
    for ``norm_linf``, which takes the right limit at each panel start by
    adding the heights of the ``jumps`` located there.  ``mollified_atoms``
    are the centres of atoms smoothed into narrow bumps, which ``q_linf``
    probes besides the grid.
    """

    jumps: tuple
    breakpoints: tuple
    mollified_atoms: tuple = ()
    has_density: bool = True

    def q_linf(self) -> float:
        if self.jumps:
            raise MissingNorm("potential has Dirac atoms; no L-infinity norm")
        xs = np.concatenate([np.linspace(0.0, 1.0, 8193), self.mollified_atoms])
        return float(np.max(np.abs(self.q_values(xs))))

    def _panels(self):
        edges = [0.0, *self.breakpoints, 1.0]
        return zip(edges[:-1], edges[1:])

    def norm_l2(self) -> float:
        """L^2(0,1) norm of nu, by per-panel Gauss quadrature."""
        gx, gw = _gauss_rule(64)
        total = 0.0
        for a, b in self._panels():
            half = (b - a) / 2.0
            vals = self.nu_values((a + b) / 2.0 + half * gx)
            total += half * float(gw @ vals**2)
        return math.sqrt(max(total, 0.0))

    def norm_linf(self) -> float:
        heights = dict(self.jumps)
        sup = 0.0
        for a, b in self._panels():
            vals = self.nu_values(np.linspace(a, b, _LINF_SAMPLES_PER_PANEL))
            vals[0] += heights.get(a, 0.0)  # nu_values takes the left limit
            sup = max(sup, float(np.max(np.abs(vals))))
        return sup


@dataclass(frozen=True)
class NuPrimitive(Potential):
    """Primitive nu of the potential q = nu', as smooth part plus jumps.

    Parameters
    ----------
    smooth_kind : str
        One of ``zero``, ``const c``, ``linear c*x``,
        ``sine a*sin(2 pi m x + phase)`` or ``samples`` (uniform grid
        values on [0, 1], interpolated by a quintic spline).
    smooth_params : tuple
        Parameters of the smooth part; see above.
    jumps : tuple[tuple[float, float], ...]
        Heaviside atoms (location, height); locations strictly inside
        (0, 1) and strictly increasing.  Each contributes
        ``height * delta_location`` to q.

    Evaluation at a jump location returns the left limit.
    """

    smooth_kind: str = "zero"
    smooth_params: tuple = ()
    jumps: tuple = ()

    def __post_init__(self):
        if self.smooth_kind not in SMOOTH_KINDS:
            raise ConfigError(f"unknown smooth kind {self.smooth_kind!r}")
        object.__setattr__(
            self, "smooth_params", tuple(float(p) for p in self.smooth_params)
        )
        jumps = tuple((float(x), float(a)) for x, a in self.jumps)
        locs = [x for x, _ in jumps]
        if any(not 0.0 < x < 1.0 for x in locs):
            raise ConfigError("jump locations must lie strictly inside (0, 1)")
        if any(b <= a for a, b in zip(locs, locs[1:])):
            raise ConfigError("jump locations must be strictly increasing")
        object.__setattr__(self, "jumps", jumps)
        if self.smooth_kind in ("const", "linear") and len(self.smooth_params) != 1:
            raise ConfigError(f"{self.smooth_kind} takes one parameter")
        if self.smooth_kind == "sine" and len(self.smooth_params) not in (2, 3):
            raise ConfigError("sine takes (amplitude, m[, phase])")
        if self.smooth_kind == "samples" and len(self.smooth_params) < 8:
            raise ConfigError("samples kind needs at least 8 values")

    # -- smooth part -------------------------------------------------------

    def _sine(self) -> tuple[float, float, float]:
        """(a, w, phase) of a sine smooth part a*sin(w x + phase)."""
        p = self.smooth_params
        return p[0], 2.0 * math.pi * p[1], p[2] if len(p) == 3 else 0.0

    def smooth_values(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        k = self.smooth_kind
        if k == "zero":
            return np.zeros_like(x)
        if k == "const":
            return np.full_like(x, self.smooth_params[0])
        if k == "linear":
            return self.smooth_params[0] * x
        if k == "sine":
            a, w, phase = self._sine()
            return a * np.sin(w * x + phase)
        return _samples_spline(self.smooth_params)(x)

    @property
    def has_density(self) -> bool:
        return self.smooth_kind not in ("zero", "const")

    def q_values(self, x) -> np.ndarray:
        """Smooth density g = (smooth part)' of q; the atoms are ``jumps``."""
        x = np.asarray(x, dtype=float)
        k = self.smooth_kind
        if not self.has_density:
            return np.zeros_like(x)
        if k == "linear":
            return np.full_like(x, self.smooth_params[0])
        if k == "sine":
            a, w, phase = self._sine()
            return a * w * np.cos(w * x + phase)
        return _samples_spline(self.smooth_params).derivative()(x)

    def density_integral(self, t) -> np.ndarray:
        """G(t) = int_0^t g, i.e. smooth(t) - smooth(0)."""
        return self.smooth_values(t) - self.smooth_values(0.0)

    # -- full primitive ----------------------------------------------------

    def nu_values(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        out = self.smooth_values(x).astype(float, copy=True)
        for loc, height in self.jumps:
            out = out + height * (x > loc)
        return out

    @property
    def breakpoints(self) -> tuple:
        return tuple(loc for loc, _ in self.jumps)

    def _panel_offsets(self) -> list[tuple[float, float, float]]:
        """(a, b, jump offset) for each smooth panel of [0, 1]."""
        heights = dict(self.jumps)
        panels, offset = [], 0.0
        for a, b in self._panels():
            offset += heights.get(a, 0.0)
            panels.append((a, b, offset))
        return panels

    def ode_panels(self) -> list[tuple[float, float, Callable[[float], float]]]:
        """Panels (a, b, nu) covering [0, 1] on which nu is smooth."""
        return [
            (a, b, self._panel_callable(shift))
            for a, b, shift in self._panel_offsets()
        ]

    def _panel_callable(self, shift: float) -> Callable[[float], float]:
        k = self.smooth_kind
        if k == "zero":
            return lambda x: shift
        if k == "const":
            c = self.smooth_params[0] + shift
            return lambda x: c
        if k == "linear":
            c = self.smooth_params[0]
            return lambda x: c * x + shift
        if k == "sine":
            a, w, phase = self._sine()
            return lambda x: a * math.sin(w * x + phase) + shift
        knots, mids, coefs = _samples_pieces(self.smooth_params)
        top = len(mids)

        def samples_nu(x: float) -> float:
            i = bisect_right(knots, x, 1, top) - 1
            d = x - mids[i]
            c0, c1, c2, c3, c4, c5 = coefs[i]
            value = c0 + d * (c1 + d * (c2 + d * (c3 + d * (c4 + d * c5))))
            return value + shift

        return samples_nu

    # -- reporting ---------------------------------------------------------

    def descriptor(self) -> dict:
        return {
            "smooth": {"kind": self.smooth_kind, "params": list(self.smooth_params)},
            "jumps": [[x, a] for x, a in self.jumps],
        }

    @classmethod
    def from_descriptor(cls, d: dict) -> "NuPrimitive":
        try:
            smooth = d["smooth"]
            return cls(
                smooth_kind=smooth["kind"],
                smooth_params=tuple(smooth.get("params", ())),
                jumps=tuple((x, a) for x, a in d.get("jumps", ())),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise ConfigError(f"bad potential descriptor: {exc}") from exc


# -- mollification ----------------------------------------------------------


@lru_cache(maxsize=8)
def _composite_rule(panels: int, order: int):
    """Composite Gauss-Legendre nodes/weights on [-1, 1]."""
    gx, gw = _gauss_rule(order)
    edges = np.linspace(-1.0, 1.0, panels + 1)
    half = (edges[1] - edges[0]) / 2.0
    mids = (edges[:-1] + edges[1:]) / 2.0
    nodes = (mids[:, None] + half * gx[None, :]).ravel()
    weights = np.tile(half * gw, panels)
    return nodes, weights


def _window_conv(f: Callable, x, eps: float, bump: BumpProfile,
                 *more: Callable) -> np.ndarray:
    """int f(x - eps*u) * psi(u) du over the u in [-1, 1] with x - eps*u in [0, 1].

    For each x those u form one window [lo, hi], whose ends are the kinks
    of the zero extension of f, so the integrand is smooth on it.  The
    composite Gauss rule (8 panels of 32 nodes) mapped onto each window
    holds the quadrature error of the flat-ended bump near 1e-15.  Full
    windows, all of [-1, 1], share the weights w_k psi(u_k); the others
    (x within eps of 0 or 1) evaluate psi at their mapped nodes.  Chunks
    of ``_CONV_CHUNK`` points form x - eps*u and psi(u) once, then make one
    call of f and of each of ``more`` on that 2-D (points, nodes) array,
    which it must accept, and one product with the weights.  With ``more``
    it returns the stacked convolutions, each bit for bit its own pass's.
    """
    shape = np.shape(x)
    x = np.ravel(np.asarray(x, dtype=float))
    lo = np.clip((x - 1.0) / eps, -1.0, 1.0)
    hi = np.clip(x / eps, -1.0, 1.0)
    un, uw = _composite_rule(8, 32)
    inner = (lo == -1.0) & (hi == 1.0)
    full, part = np.flatnonzero(inner), np.flatnonzero(~inner)
    wfull = uw * bump.density(un)
    out = np.empty((1 + len(more), x.size))
    for s in range(0, full.size, _CONV_CHUNK):
        i = full[s:s + _CONV_CHUNK]
        y = x[i, None] - eps * un
        out[:, i] = [g(y) @ wfull for g in (f, *more)]
    for s in range(0, part.size, _CONV_CHUNK):
        i = part[s:s + _CONV_CHUNK]
        half = (hi[i] - lo[i]) / 2.0
        u = ((hi[i] + lo[i]) / 2.0)[:, None] + half[:, None] * un
        y, psi = x[i, None] - eps * u, bump.density(u)
        out[:, i] = [half * ((g(y) * psi) @ uw) for g in (f, *more)]
    return out.reshape((-1, *shape)) if more else out[0].reshape(shape)


def mollified_q(nu: NuPrimitive, eps: float, bump: BumpProfile, x) -> np.ndarray:
    """q_eps at points x.

    Dirac atoms convolve exactly to scaled bumps; the zero-extended smooth
    density is convolved with the bump by quadrature over one window per
    point.
    """
    x = np.atleast_1d(np.asarray(x, dtype=float))
    out = np.zeros_like(x)
    for loc, height in nu.jumps:
        out += height * bump.density((x - loc) / eps) / eps
    if nu.has_density:
        out += _window_conv(nu.q_values, x, eps, bump)
    return out


class MollifiedNu(Potential):
    """Smooth primitive nu_eps of the regularized potential q_eps.

    nu_eps is the convolution of the primitive of the zero-extended
    potential with the bump: atoms contribute exact antiderivative terms
    ``height * Psi((x - loc)/eps)``, the smooth density a slowly varying
    convolution that is tabulated once per (nu, eps) pair and evaluated by
    cubic Hermite interpolation (exact slopes from the mollified density).
    """

    def __init__(self, nu: NuPrimitive, spec: MollifierSpec):
        self.base = nu
        self.spec = spec
        self._eps = spec.epsilon
        self._bump = spec.bump
        self._has_smooth = nu.has_density
        if self._has_smooth:
            self._build_smooth_table()

    # smooth-part tabulation ------------------------------------------------

    def _smooth_conv(self, x):
        """The clamped primitive G(clip(y, 0, 1)) convolved with psi_eps.

        G(0) = 0, and G is the constant G(1) for y >= 1, i.e. on the part
        u <= (x-1)/eps of the window, which contributes G(1)*Psi((x-1)/eps).
        """
        x = np.atleast_1d(np.asarray(x, dtype=float))
        G, eps, bump = self.base.density_integral, self._eps, self._bump
        return (_window_conv(G, x, eps, bump)
                + float(G(1.0)) * bump.primitive((x - 1.0) / eps))

    def _build_smooth_table(self):
        """Values v, as ``_smooth_conv`` forms them, and slopes d = q_eps of
        the smooth part on one to three segments, from one pass each."""
        eps = self._eps
        m_freq = 1.0
        if self.base.smooth_kind == "sine":
            m_freq = max(1.0, abs(self.base.smooth_params[1]))
        if eps >= 0.2:
            segs = [(0.0, 1.0, max(4096, 2048 * m_freq))]
        else:
            segs = [
                (0.0, 2.0 * eps, 512),
                (2.0 * eps, 1.0 - 2.0 * eps, max(2048, 1024 * m_freq)),
                (1.0 - 2.0 * eps, 1.0, 512),
            ]
        points = sum(k + 1 for *_, k in segs)  # may be inf: no int() yet
        if points > _MAX_TABLE_POINTS:
            raise MeshTooLarge(f"a mollifier table of {points:.4g} points "
                               f"exceeds the ceiling of {_MAX_TABLE_POINTS}")
        G, bump = self.base.density_integral, self._bump
        self._segs = []
        for a, b, k in segs:
            t = np.linspace(a, b, int(k) + 1)
            v, d = _window_conv(G, t, eps, bump, self.base.q_values)
            v += float(G(1.0)) * bump.primitive((t - 1.0) / eps)
            self._segs.append((a, b, t, v, d))
        # the same tables as floats, for the scalar ODE callable
        self._seg_floats = [
            (a, float(t[1] - t[0]), len(t) - 2, t.tolist(), v.tolist(), d.tolist())
            for a, _, t, v, d in self._segs
        ]

    def _smooth_interp(self, x):
        x = np.atleast_1d(np.asarray(x, dtype=float))
        out = np.empty_like(x)
        outside = (x < 0.0) | (x > 1.0)
        if np.any(outside):
            out[outside] = self._smooth_conv(x[outside])
        for a, b, t, v, d in self._segs:
            if a == 0.0:
                sel = (x >= a) & (x <= b)
            else:
                sel = (x > a) & (x <= b)
            if not np.any(sel):
                continue
            xi = x[sel]
            h = t[1] - t[0]
            idx = np.clip(((xi - a) / h).astype(int), 0, len(t) - 2)
            out[sel] = _cubic_hermite((xi - t[idx]) / h, h, v[idx], d[idx],
                                      v[idx + 1], d[idx + 1])
        return out

    # potential protocol ------------------------------------------------------

    def nu_values(self, x) -> np.ndarray:
        x = np.atleast_1d(np.asarray(x, dtype=float))
        out = np.zeros_like(x)
        for loc, height in self.base.jumps:
            out += height * self._bump.primitive((x - loc) / self._eps)
        if self._has_smooth:
            out += self._smooth_interp(x)
        return out

    @property
    def jumps(self) -> tuple:
        return ()

    @property
    def mollified_atoms(self) -> tuple:
        return tuple(loc for loc, _ in self.base.jumps)

    @property
    def breakpoints(self) -> tuple:
        eps = self._eps
        pts = set()
        for loc, _ in self.base.jumps:
            pts.update((loc - eps, loc, loc + eps))
        if self._has_smooth:
            for a, b, *_ in self._segs:
                pts.update((a, b))
        return tuple(sorted(p for p in pts if 0.0 < p < 1.0))

    def ode_panels(self):
        """Panels (a, b, nu), nu in float arithmetic over the tables; it is
        ``nu_values`` up to the summation order over atoms."""
        atoms = self.base.jumps
        eps = self._eps
        self._bump._build()
        uh, ux, uv, ud = self._bump._floats
        utop = _PRIMITIVE_PANELS - 1
        segs = self._seg_floats if self._has_smooth else ()
        ends = [b for _, b, *_ in self._segs] if self._has_smooth else ()
        last = len(segs) - 1

        def nu_scalar(x: float) -> float:
            acc = 0.0
            for loc, height in atoms:
                # Psi(u) is 0 for u <= -1 and 1 for u >= 1
                u = (x - loc) / eps
                if u >= 1.0:
                    acc += height
                elif u > -1.0:
                    i = min(max(int((u + 1.0) / uh), 0), utop)
                    acc += height * _cubic_hermite(
                        (u - ux[i]) / uh, uh, uv[i], ud[i], uv[i + 1], ud[i + 1])
            if segs:
                # the first segment whose right end is >= x, so only the
                # first one is closed on the left
                a, h, top, t, v, d = segs[min(bisect_left(ends, x), last)]
                i = min(max(int((x - a) / h), 0), top)
                acc += _cubic_hermite((x - t[i]) / h, h, v[i], d[i],
                                      v[i + 1], d[i + 1])
            return acc

        return [(a, b, nu_scalar) for a, b in self._panels()]

    def q_values(self, x) -> np.ndarray:
        return mollified_q(self.base, self._eps, self._bump, x)

    def descriptor(self) -> dict:
        return {
            "mollified": self.base.descriptor(),
            "profile": self.spec.profile,
            "epsilon": self._eps,
        }


class PerturbedNu(Potential):
    """A base potential plus c * w.

    The perturbation is given through its primitive ``w_nu`` (a smooth
    :class:`NuPrimitive` without jumps, so w = w_nu' is bounded); the
    perturbed primitive is base_nu + c * w_nu, which keeps the phase
    equations well defined.
    """

    def __init__(self, base: Potential, w_nu: NuPrimitive, coefficient: float):
        if w_nu.jumps:
            raise ConfigError("perturbation primitive must be jump-free")
        self.base = base
        self.w_nu = w_nu
        self.c = float(coefficient)

    def nu_values(self, x) -> np.ndarray:
        return self.base.nu_values(x) + self.c * self.w_nu.smooth_values(x)

    @property
    def jumps(self) -> tuple:
        return self.base.jumps

    @property
    def mollified_atoms(self) -> tuple:
        return self.base.mollified_atoms

    @property
    def breakpoints(self) -> tuple:
        return self.base.breakpoints

    @property
    def has_density(self) -> bool:
        return self.base.has_density or self.w_nu.has_density

    def ode_panels(self):
        w_fn = self.w_nu._panel_callable(0.0)
        c = self.c

        def wrap(f):
            return lambda x: f(x) + c * w_fn(x)

        return [(a, b, wrap(f)) for a, b, f in self.base.ode_panels()]

    def q_values(self, x) -> np.ndarray:
        return self.base.q_values(x) + self.c * self.w_nu.q_values(x)

    def descriptor(self) -> dict:
        return {
            "perturbed": self.base.descriptor(),
            "w_primitive": self.w_nu.descriptor(),
            "coefficient": self.c,
        }

