"""Singular potentials q = nu' modeled through their primitive nu.

A potential is never evaluated directly: nu is an L^2 function given as a
closed-form smooth part plus Heaviside jump atoms, so q consists of a
smooth density (the derivative of the smooth part) plus Dirac layers at
the jump locations.  Regularization convolves the zero-extension of q
with a compactly supported bump psi_eps(x) = psi(x/eps)/eps; the Dirac
part mollifies exactly to sum_i alpha_i * psi_eps(x - x_i), the smooth
density by quadrature over one window per point, bounded by the kinks of
the extension at 0 and 1.  :class:`MollifiedNu` reads nu_eps and q_eps
so, by one window rule per rung, at the points it is asked for, such as a
grid's nodes.

:class:`NuPrimitive`, :class:`MollifiedNu` and :class:`PerturbedNu` share
the :class:`Potential` protocol: vectorized ``nu_values``, the left limit
at an atom, and ``q_values``, the bounded part of q; the interior panel
edges ``breakpoints``, which hold each mollified atom's centre; ``jumps``,
the (location, height) Dirac atoms still present in q, empty when q is
bounded and ``q_linf`` exists; ``linear_panels``, one flag per panel of
[0, *breakpoints, 1], True where nu is linear on it, so that q is a
constant there and each eigenfunction a sine; and ``descriptor``.  The
base class states the rest once for all three: ``heights``, the height of
the atom at each point, so that ``nu_values + heights`` is nu's right
limit; ``ode_panels``, (a, b, nu) per panel, nu a one-point read of
``nu_values`` plus ``heights(a)`` at a, called with one float by the RK45
pass, which runs only where nu is linear between its breakpoints;
``piecewise_linear``, ``check_q_linf``, ``q_linf`` and the norms of nu.

The ``samples`` smooth kind is the only user of scipy in vww: its quintic
spline (``scipy.interpolate.InterpolatedUnivariateSpline``) is imported
when first built, so importing vww loads no scipy module.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable

import numpy as np

from .errors import ConfigError, MeshTooLarge, MissingNorm

SMOOTH_KINDS = ("zero", "const", "linear", "sine", "samples")

_PRIMITIVE_PANELS = 16384
_LINF_SAMPLES_PER_PANEL = 4096
_CONV_BLOCK = 2**15  # points x nodes of a _window_conv block: 256 KiB
# most panels of 32 nodes in a window rule, one per 8 periods of a fast
# sine: windows of up to 1,024 periods, which admit a sine of frequency 511
# at eps = 1 and of 1022 below eps = 0.2; sine (1, 1e6) at eps = 1/4 would
# take 2e6 nodes per point
_MAX_RULE_PANELS = 128


@lru_cache(maxsize=8)
def _gauss_rule(order: int):
    x, w = np.polynomial.legendre.leggauss(order)
    return x, w


class _HermiteTable:
    """Cubic Hermite interpolant over uniform knots t, with values v and
    slopes d there, read vectorized by calling it.  A point takes the cell
    whose index its offset from t[0] truncates to, clamped to the table.
    """

    def __init__(self, t: np.ndarray, v: np.ndarray, d: np.ndarray):
        self.t, self.v, self.d = t, v, d
        self.h = t[1] - t[0]

    def __call__(self, x: np.ndarray) -> np.ndarray:
        t, v, d, h = self.t, self.v, self.d, self.h
        i = np.clip(((x - t[0]) / h).astype(int), 0, len(t) - 2)
        s = (x - t[i]) / h
        s2 = s * s
        s3 = s2 * s
        return ((2 * s3 - 3 * s2 + 1) * v[i] + (s3 - 2 * s2 + s) * h * d[i]
                + (-2 * s3 + 3 * s2) * v[i + 1] + (s3 - s2) * h * d[i + 1])


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
        self._table = None

    def _raw(self, u: np.ndarray) -> np.ndarray:
        u = np.asarray(u, dtype=float)
        inside = np.abs(u) < 1.0
        if not inside.all():  # Gauss nodes lie inside: no gather or scatter
            out = np.zeros_like(u)
            out[inside] = self._raw(u[inside])
            return out
        out = np.exp(-self.sharpness / (1.0 - u * u))
        return out * (1.0 + self.tilt * u) if self.tilt else out  # factor 1.0

    def _psi_table(self) -> _HermiteTable:
        """Psi's table, with the normalization C, built on first use."""
        if self._table is None:
            edges = np.linspace(-1.0, 1.0, _PRIMITIVE_PANELS + 1)
            gx, gw = _gauss_rule(16)
            half = (edges[1] - edges[0]) / 2.0
            mids = (edges[:-1] + edges[1:]) / 2.0
            pts = mids[:, None] + half * gx[None, :]
            panel = (self._raw(pts) @ gw) * half
            cum = np.concatenate([[0.0], np.cumsum(panel)])
            total = cum[-1]
            self._norm = 1.0 / total
            values = cum / total
            values[-1] = 1.0
            self._table = _HermiteTable(edges, values,
                                        self._norm * self._raw(edges))
        return self._table

    def density(self, u) -> np.ndarray:
        """psi(u), vanishing outside (-1, 1)."""
        self._psi_table()
        return self._norm * self._raw(u)

    def primitive(self, u) -> np.ndarray:
        """Psi(u) = int_{-1}^u psi, clamped to 0 / 1 outside the support."""
        table = self._psi_table()
        u = np.atleast_1d(np.asarray(u, dtype=float))
        out = np.full_like(u, np.nan)  # a NaN u stays NaN
        out[u <= -1.0] = 0.0
        out[u >= 1.0] = 1.0
        mid = (u > -1.0) & (u < 1.0)
        if np.any(mid):
            out[mid] = table(u[mid])
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


class Potential:
    """Base of the potential protocol (see the module docstring).

    The norms of nu are per-panel rules over [0, *breakpoints, 1], read
    through ``nu_values``: Gauss-Legendre for ``norm_l2``, uniform samples
    for ``norm_linf``, which takes the right limit at each panel start.
    ``q_linf`` probes the ``breakpoints`` besides a uniform grid: a
    mollified atom's centre, the peak of a narrow bump, is one of them.
    """

    jumps: tuple
    breakpoints: tuple
    linear_panels: tuple

    @property
    def piecewise_linear(self) -> bool:
        return all(self.linear_panels)

    def check_q_linf(self) -> None:
        """Raise ``MissingNorm`` where q has Dirac atoms: no ||q||_inf."""
        if self.jumps:
            raise MissingNorm("potential has Dirac atoms; no L-infinity norm")

    def q_linf(self) -> float:
        self.check_q_linf()
        xs = np.concatenate([np.linspace(0.0, 1.0, 8193), self.breakpoints])
        return float(np.max(np.abs(self.q_values(xs))))

    def _panels(self):
        edges = [0.0, *self.breakpoints, 1.0]
        return zip(edges[:-1], edges[1:])

    def heights(self, x) -> np.ndarray:
        """The height of the atom at each point x, 0 off the atoms:
        ``nu_values(x) + heights(x)`` is nu's right limit."""
        x = np.asarray(x, dtype=float)
        out = np.zeros_like(x)
        for loc, height in self.jumps:
            out = np.where(x == loc, height, out)
        return out

    def ode_panels(self) -> list[tuple[float, float, Callable[[float], float]]]:
        """Panels (a, b, nu) covering [0, 1] on which nu is smooth, nu a
        one-point read of ``nu_values`` plus ``heights(a)`` at a, so that
        it takes the right limit at a and the left limit at b.  Each class
        binds it by name, so that its own ``__dict__`` holds the method
        that a tracer wraps and restores."""
        def panel(a):
            h = float(self.heights(a))
            return lambda x: self.nu_values(x).item() + (h if x == a else 0.0)

        return [(a, b, panel(a)) for a, b in self._panels()]

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
        sup = 0.0
        for a, b in self._panels():
            vals = self.nu_values(np.linspace(a, b, _LINF_SAMPLES_PER_PANEL))
            vals[0] += self.heights(a)  # nu_values takes the left limit
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
        if self.smooth_kind == "zero" and self.smooth_params:
            raise ConfigError("zero takes no parameters")
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

    @property
    def linear_panels(self) -> tuple:
        return ((self.smooth_kind in ("zero", "const", "linear"),)
                * (len(self.jumps) + 1))

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

    ode_panels = Potential.ode_panels

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


def _window_rule(nu: NuPrimitive, eps: float):
    """Nodes and weights on [-1, 1] of the Gauss rule ``_window_conv`` maps
    onto each window of nu's smooth part at eps: one of 96 nodes where that
    part is slow across a window, a line, a sine of at most 16 periods or
    samples over at most half a knot interval (within a few 1e-15 of a fine
    composite rule, as 8 panels of 32 nodes are; 4e-8 off at 25 periods).
    Else 8 panels of 32 nodes, a sine one per 8 periods past 64 (8 panels
    were 6e-3 off at 150 periods, sine (1, 300) at eps = 1/4); more than
    ``_MAX_RULE_PANELS`` are refused before any node exists."""
    p = nu.smooth_params
    periods = 2.0 * eps * abs(p[1]) if nu.smooth_kind == "sine" else 0.0
    knots = len(p) - 1 if nu.smooth_kind == "samples" else 0
    if periods > 8.0 * _MAX_RULE_PANELS:  # inf too
        raise MeshTooLarge(
            f"a mollifier window of {periods:.4g} periods of nu exceeds the "
            f"ceiling of {8 * _MAX_RULE_PANELS} periods ({_MAX_RULE_PANELS} "
            f"panels of 32 nodes)")
    if periods > 16.0 or 4.0 * eps * knots > 1.0:
        return _composite_rule(max(8, math.ceil(periods / 8.0)), 32)
    return _gauss_rule(96)


def _window_conv(f: Callable, x, eps: float, bump: BumpProfile,
                 rule) -> np.ndarray:
    """int f(x - eps*u) * psi(u) du over the u in [-1, 1] with x - eps*u in [0, 1].

    For each x those u form one window [lo, hi], whose ends are the kinks
    of the zero extension of f, so the integrand is smooth on it, and takes
    the rule's nodes (``_window_rule``).  Full windows, all of [-1, 1],
    share the weights w_k psi(u_k); the others (x within eps of 0 or 1)
    evaluate psi at their mapped nodes.  Chunks of ``_CONV_BLOCK`` // nodes
    points form x - eps*u and psi(u) once, then make one call of f on that
    2-D (points, nodes) array, which it must accept, and one product with
    the weights.
    """
    shape = np.shape(x)
    x = np.ravel(np.asarray(x, dtype=float))
    lo = np.clip((x - 1.0) / eps, -1.0, 1.0)
    hi = np.clip(x / eps, -1.0, 1.0)
    un, uw = rule
    chunk = max(1, _CONV_BLOCK // un.size)
    inner = (lo == -1.0) & (hi == 1.0)
    full, part = np.flatnonzero(inner), np.flatnonzero(~inner)
    wfull = uw * bump.density(un)
    out = np.empty(x.size)
    for s in range(0, full.size, chunk):
        i = full[s:s + chunk]
        out[i] = f(x[i, None] - eps * un) @ wfull
    for s in range(0, part.size, chunk):
        i = part[s:s + chunk]
        half = (hi[i] - lo[i]) / 2.0
        u = ((hi[i] + lo[i]) / 2.0)[:, None] + half[:, None] * un
        out[i] = half * ((f(x[i, None] - eps * u) * bump.density(u)) @ uw)
    return out.reshape(shape)


class MollifiedNu(Potential):
    """Smooth primitive nu_eps of the regularized potential q_eps.

    nu_eps is the convolution of the primitive of the zero-extended
    potential with the bump: atoms contribute exact antiderivative terms
    ``height * Psi((x - loc)/eps)``, the smooth density ``_smooth_conv``,
    read by quadrature at the points asked for, with the rule that
    ``_window_rule`` fixes for the rung when it is made; ``q_values``
    reads q_eps by the same rule.
    """

    def __init__(self, nu: NuPrimitive, spec: MollifierSpec):
        self.base = nu
        self.spec = spec
        self._eps = spec.epsilon
        self._bump = spec.bump
        self._rule = _window_rule(nu, spec.epsilon)

    def _smooth_conv(self, x):
        """The clamped primitive G(clip(y, 0, 1)) convolved with psi_eps.

        G(0) = 0, and G is the constant G(1) for y >= 1, i.e. on the part
        u <= (x-1)/eps of the window, which contributes G(1)*Psi((x-1)/eps).
        """
        G, eps, bump = self.base.density_integral, self._eps, self._bump
        return (_window_conv(G, x, eps, bump, rule=self._rule)
                + float(G(1.0)) * bump.primitive((x - 1.0) / eps))

    # potential protocol ------------------------------------------------------

    def nu_values(self, x) -> np.ndarray:
        x = np.atleast_1d(np.asarray(x, dtype=float))
        out = np.zeros_like(x)
        for loc, height in self.base.jumps:
            out += height * self._bump.primitive((x - loc) / self._eps)
        if self.base.has_density:
            out += self._smooth_conv(x)
        return out

    @property
    def jumps(self) -> tuple:
        return ()

    @property
    def linear_panels(self) -> tuple:
        """Off every atom's window (loc - eps, loc + eps) nu_eps is constant
        where the base has no density; where it has one, it must be constant
        too and the panel in [eps, 1 - eps], past the walls' layers: a
        tilted bump shifts the line only by a constant."""
        eps, base = self._eps, self.base
        return tuple(
            all(b <= loc - eps or a >= loc + eps for loc, _ in base.jumps)
            and (not base.has_density
                 or (base.piecewise_linear and eps <= a and b <= 1.0 - eps))
            for a, b in self._panels())

    @property
    def breakpoints(self) -> tuple:
        """Each atom's centre and bump edges, loc and loc +- eps; with a
        density and eps < 0.2, also 2 eps and 1 - 2 eps, an eps past the
        walls' boundary layers of q_eps, [0, eps] and [1 - eps, 1], so that
        Newton's mesh gives each layer panels of its own."""
        eps = self._eps
        pts = set()
        for loc, _ in self.base.jumps:
            pts.update((loc - eps, loc, loc + eps))
        if self.base.has_density and eps < 0.2:
            pts.update((2.0 * eps, 1.0 - 2.0 * eps))
        return tuple(sorted(p for p in pts if 0.0 < p < 1.0))

    ode_panels = Potential.ode_panels

    def q_values(self, x) -> np.ndarray:
        """q_eps at points x: Dirac atoms convolve exactly to scaled bumps,
        the zero-extended smooth density by quadrature over one window per
        point, with the rung's rule."""
        x = np.atleast_1d(np.asarray(x, dtype=float))
        eps, bump = self._eps, self._bump
        out = np.zeros_like(x)
        for loc, height in self.base.jumps:
            out += height * bump.density((x - loc) / eps) / eps
        if self.base.has_density:
            out += _window_conv(self.base.q_values, x, eps, bump,
                                rule=self._rule)
        return out

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
    def breakpoints(self) -> tuple:
        return self.base.breakpoints

    @property
    def linear_panels(self) -> tuple:
        """The base's, where w is linear."""
        return tuple(linear and self.w_nu.piecewise_linear
                     for linear in self.base.linear_panels)

    ode_panels = Potential.ode_panels

    def q_values(self, x) -> np.ndarray:
        return self.base.q_values(x) + self.c * self.w_nu.q_values(x)

    def descriptor(self) -> dict:
        return {
            "perturbed": self.base.descriptor(),
            "w_primitive": self.w_nu.descriptor(),
            "coefficient": self.c,
        }

