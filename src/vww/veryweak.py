"""Regularization experiments: moderateness, negligible perturbations,
and the classical limit.

An experiment fixes a (possibly singular) potential through its
primitive, data for the wave problem, and a decreasing epsilon ladder.
Per rung, the potential is mollified, an eigenbasis built, the wave
problem solved, and sup-in-time norms recorded; log-log slope fits over
the (ladder, norms) pairs decide the verdicts, with one margin of 0.2:

* existence: the solution net and its time derivative stay moderate
  (fitted growth exponent at most the declared order plus 0.2);
* uniqueness: an injected order-M perturbation of potential and data
  leaves a difference net decaying at least like eps^(M - 0.2), fitted
  on the rungs above round-off, or decaying to round-off;
* consistency: the mollified solutions approach the unmollified one,
  strictly decreasing along the ladder; on a nu with atoms that one
  takes each atom as a jump condition.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from typing import NamedTuple

import numpy as np

from .errors import ConfigError, DegenerateNet, NonFiniteResult, VwwError
from .grid import Grid, GridFunction
from .potential import MollifiedNu, MollifierSpec, NuPrimitive, PerturbedNu
from .prufer import build_basis
from .spectral import analyze, sobolev_norm
from .wave import WaveProblem, check_time_grid, solve_homogeneous

VERDICT_MARGIN = 0.2  # moderate: slope <= order + it; negligible: >= order - it
# a uniqueness difference up to this times its base solution's norm is
# round-off: the floor of its rung in check_negligibility's verdict
ROUNDOFF_DIFF = 64.0 * np.finfo(float).eps


def default_ladder(k_min: int = 2, k_max: int = 9) -> tuple:
    """Geometric ladder eps_k = 2^-k, k = k_min..k_max, the range checked
    before any rung is built: past k = 1074 the rungs are 0.0."""
    if not 0 <= k_min <= k_max <= 1074:
        raise ConfigError(f"ladder needs 0 <= k_min <= k_max <= 1074, got "
                          f"k_min={k_min}, k_max={k_max}")
    return tuple(2.0 ** (-k) for k in range(k_min, k_max + 1))


def _ladder(ladder, norms=None) -> tuple:
    """The ladder as floats: at least 4 rungs, the fewest a log-log fit
    accepts, strictly decreasing, and as many as the norms where given."""
    lad = tuple(float(e) for e in ladder)
    if len(lad) < 4:
        raise ConfigError(f"ladder needs at least 4 rungs, got {len(lad)}")
    if any(b >= a for a, b in zip(lad, lad[1:])):
        raise ConfigError("ladder must be strictly decreasing")
    if norms is not None and len(norms) != len(lad):
        raise ConfigError("ladder and norms must have equal length")
    return lad


class ExponentFit(NamedTuple):
    slope: float
    max_dev: float


def _fit(ladder, norms, x=np.log) -> ExponentFit:
    """Least-squares line of log(norm) against x(eps), log(eps) by default;
    a zero norm has no logarithm and raises ``DegenerateNet``."""
    xs = x(np.asarray(_ladder(ladder, norms)))
    norms = np.asarray(norms, dtype=float)
    if np.any(norms <= 0.0):
        raise DegenerateNet("net contains zero norms; nothing to fit")
    return _line(xs, np.log(norms))


def _line(xs: np.ndarray, ys: np.ndarray) -> ExponentFit:
    """Least-squares line of ys against xs, two points or more."""
    slope, intercept = np.polyfit(xs, ys, 1)
    return ExponentFit(float(slope),
                       float(np.max(np.abs(ys - (slope * xs + intercept)))))


def fit_moderateness(ladder, norms) -> ExponentFit:
    """Slope N of log(norm) against log(1/eps): norms ~ eps^-N."""
    return _fit(ladder, norms, lambda eps: np.log(1.0 / eps))


def _check_order(order: int) -> None:
    """Refuse an injected or tested order below 1: eps^M must vanish."""
    if order < 1:
        raise ConfigError(f"order must be >= 1, got {order}")


class NegligibilityReport(NamedTuple):
    passed: bool
    slope: float | None
    # why no slope was fitted; None where one was
    reason: str | None = None


def check_negligibility(ladder, norms, order: int,
                        floors=None) -> NegligibilityReport:
    """The verdict on the rungs whose norm is above its round-off floor,
    floors[i] for rung i, 0 by default.  Two or more such rungs are fitted,
    log(norm) against log(eps), and pass when slope >= order - 0.2.  With
    fewer, a net that decays to round-off, each rung above the floor
    coarser than every rung at it, passes with no slope; any other fails,
    and the report names why."""
    _check_order(order)
    lad = np.asarray(_ladder(ladder, norms))
    norms = np.asarray(norms, dtype=float)
    floors = np.zeros(len(lad)) if floors is None else np.asarray(floors)
    above = ~(norms <= floors)  # a NaN norm is above its floor
    if np.count_nonzero(above) >= 2:
        slope = _line(np.log(lad[above]), np.log(norms[above])).slope
        return NegligibilityReport(slope >= order - VERDICT_MARGIN, slope)
    first = int(np.argmin(above))  # the coarsest rung at round-off
    if np.any(above[first:]):
        finer = first + int(np.argmax(above[first:]))
        return NegligibilityReport(
            False, None, f"the net is at round-off at eps={lad[first]:g} but "
                         f"not at the finer eps={lad[finer]:g}")
    return NegligibilityReport(
        True, None, f"the net is at round-off from eps={lad[first]:g} on")


@dataclass(frozen=True)
class DataNet:
    """Fixed data or an eps-scaled family eps^(-p) * profile."""

    profile: GridFunction
    scale_exponent: float = 0.0

    def realize(self, eps: float) -> GridFunction:
        if self.scale_exponent == 0.0:
            return self.profile
        return self.profile * float(eps ** (-self.scale_exponent))


@dataclass(frozen=True)
class VeryWeakExperiment:
    """One ladder experiment; the ladder keeps the ladder rule, each rung
    is a valid mollifier scale, the time grid stays under the table
    ceiling and each data net's largest value max|profile| eps^-p is
    finite, so a bad rung, profile, n_times or data scale fails before
    any basis is built."""

    nu: NuPrimitive
    u0: DataNet
    u1: DataNet
    ladder: tuple
    grid: Grid
    mollifier: str = "bump"
    n_max: int = 24
    T: float = 1.0
    n_times: int = 65
    ode_tol: float = 1e-10

    def __post_init__(self):
        lad = _ladder(self.ladder)
        for eps in lad:  # an unknown profile or a rung outside (0, 1]
            MollifierSpec(self.mollifier, eps)
        object.__setattr__(self, "ladder", lad)
        object.__setattr__(self, "n_times", int(self.n_times))
        check_time_grid(self.n_times, self.grid)
        for name, net in (("u0", self.u0), ("u1", self.u1)):
            peak = net.profile.norm_linf()
            for eps in lad:
                try:  # the largest value realize(eps) forms
                    finite = math.isfinite(peak * eps ** -net.scale_exponent)
                except OverflowError:
                    finite = False
                if not finite:
                    raise NonFiniteResult(
                        f"{name}_scale_exponent={net.scale_exponent:g}: "
                        f"max|{name}| * eps^-p overflows at rung eps={eps:g}")

    @property
    def times(self) -> np.ndarray:
        return np.linspace(0.0, self.T, self.n_times)


def _solve_for(e: VeryWeakExperiment, basis, u0: GridFunction,
               u1: GridFunction):
    problem = WaveProblem(basis, analyze(u0, basis), analyze(u1, basis), e.T)
    return solve_homogeneous(problem, e.times)


def _try_fit(fit, *args):
    """fit(*args), or None when a norm is zero."""
    try:
        return fit(*args)
    except DegenerateNet:
        return None


def _per_rung(rungs, one, *columns) -> list:
    """one(eps, *row) for each rung eps and row of columns; a VwwError it
    raises names the rung's eps and keeps its class."""
    out = []
    for eps, *row in zip(rungs, *columns):
        try:
            out.append(one(eps, *row))
        except VwwError as exc:
            exc.args = (f"rung eps={eps:g}: {exc}",)
            raise
    return out


def _basis(e: VeryWeakExperiment, nu_like):
    return build_basis(nu_like, e.n_max, e.grid, e.ode_tol)


def _mollify(e: VeryWeakExperiment, eps: float) -> MollifiedNu:
    return MollifiedNu(e.nu, MollifierSpec(e.mollifier, eps))


class _Report:
    """A frozen dataclass report, serialized field by field."""

    def to_dict(self) -> dict:
        def plain(v):
            if isinstance(v, ExponentFit):
                return {"slope": v.slope, "max_dev": v.max_dev}
            return list(v) if isinstance(v, tuple) else v
        return {f.name: plain(getattr(self, f.name)) for f in fields(self)}


@dataclass(frozen=True)
class NetReport(_Report):
    ladder: tuple
    u_norms: tuple
    dtu_norms: tuple
    q_linf_norms: tuple
    u_exponent: ExponentFit | None
    dtu_exponent: ExponentFit | None
    q_exponent: ExponentFit | None
    declared_order: int
    moderate: bool


def run_existence(e: VeryWeakExperiment, declared_order: int = 0) -> NetReport:
    """Measure sup-in-t solution norms across the ladder and fit exponents."""

    def one(eps: float):
        q_eps = _mollify(e, eps)
        sol = _solve_for(e, _basis(e, q_eps), e.u0.realize(eps),
                         e.u1.realize(eps))
        return (float(np.max(sol.l2_series())),
                float(np.max(sol.dt_l2_series())),
                q_eps.q_linf())

    u_norms, dtu_norms, q_norms = zip(*_per_rung(e.ladder, one))
    u_fit, dtu_fit, q_fit = (_try_fit(fit_moderateness, e.ladder, norms)
                             for norms in (u_norms, dtu_norms, q_norms))
    bound = declared_order + VERDICT_MARGIN
    moderate = all(f is None or f.slope <= bound for f in (u_fit, dtu_fit))
    return NetReport(
        ladder=e.ladder, u_norms=u_norms, dtu_norms=dtu_norms,
        q_linf_norms=q_norms, u_exponent=u_fit, dtu_exponent=dtu_fit,
        q_exponent=q_fit, declared_order=int(declared_order), moderate=moderate,
    )


@dataclass(frozen=True)
class UniquenessReport(_Report):
    ladder: tuple
    diff_norms: tuple
    order: int
    slope: float | None
    passed: bool
    # None where the bound is 0 but the difference is not, with the reason
    esnh1_ratios: tuple
    esnh1_reason: str | None = None
    # why slope is None: the net is at round-off, or only partly
    verdict_reason: str | None = None


def run_uniqueness(e: VeryWeakExperiment, order: int,
                   w_primitive: NuPrimitive | None = None,
                   w0: GridFunction | None = None,
                   w1: GridFunction | None = None) -> UniquenessReport:
    """Inject an order-M perturbation and fit the difference-net slope.

    The potential perturbation eps^M * w enters through its primitive
    ``w_primitive`` (so w = w_primitive'); data perturbations eps^M * w0,
    eps^M * w1 add to the realized data.  The forced-problem bound on the
    difference (driven by the mass term (q_pert - q) u_pert) is evaluated
    per rung and reported as a cross-check ratio.
    """
    _check_order(order)
    grid = e.grid
    zero = GridFunction.zeros(grid)
    w0 = w0 if w0 is not None else zero
    w1 = w1 if w1 is not None else zero
    w_density = (w_primitive.q_values(grid.nodes)
                 if w_primitive is not None else np.zeros(grid.n + 1))

    def one(eps: float):
        c = eps**order
        q_eps = _mollify(e, eps)
        basis = _basis(e, q_eps)
        basis_p = (basis if w_primitive is None else
                   _basis(e, PerturbedNu(q_eps, w_primitive, c)))
        u0 = e.u0.realize(eps)
        u1 = e.u1.realize(eps)
        sol = _solve_for(e, basis, u0, u1)
        sol_p = _solve_for(e, basis_p, u0 + c * w0, u1 + c * w1)
        diff = sol.values - sol_p.values
        w_q = grid.simpson_weights
        diff_sup = float(np.sqrt(np.max(diff**2 @ w_q)))
        floor = ROUNDOFF_DIFF * float(np.sqrt(np.max(sol.values**2 @ w_q)))
        # cross-check: the difference solves the base problem forced by
        # (q_pert - q_eps) * u_pert with the perturbation data
        f_sup_sq = float(np.max(((w_density[None, :] * sol_p.values) ** 2
                                 @ w_q))) * c**2
        u0_diff = analyze(c * w0, basis)
        u1_diff = analyze(c * w1, basis)
        # T * T, unlike T**2, overflows to inf instead of raising
        rhs = (sobolev_norm(u0_diff, 0.0) ** 2
               + sobolev_norm(u1_diff, -1.0) ** 2
               + 2.0 * e.T * e.T * f_sup_sq)
        if not np.isfinite(rhs):
            raise NonFiniteResult(f"the uniqueness bound is {rhs} for "
                                  f"T={e.T:g}")
        if rhs == 0.0:
            return diff_sup, 0.0 if diff_sup == 0.0 else None, floor
        return diff_sup, diff_sup**2 / rhs, floor

    diffs, ratios, floors = zip(*_per_rung(e.ladder, one))
    rep = check_negligibility(e.ladder, diffs, order, floors)
    unbounded = [f"{eps:g}" for eps, r in zip(e.ladder, ratios) if r is None]
    reason = (f"the bound is 0 where the difference is not, at eps="
              f"{', '.join(unbounded)}" if unbounded else None)
    return UniquenessReport(ladder=e.ladder, diff_norms=diffs, order=order,
                            slope=rep.slope, passed=rep.passed,
                            esnh1_ratios=ratios, esnh1_reason=reason,
                            verdict_reason=rep.reason)


@dataclass(frozen=True)
class ConsistencyReport(_Report):
    ladder: tuple
    discrepancies: tuple
    strictly_decreasing: bool
    spike_flagged: bool
    final_value: float
    tolerance: float
    rate: float | None
    time_grid_sensitivity: float
    passed: bool


def run_consistency(e: VeryWeakExperiment,
                    tolerance: float = 1e-3) -> ConsistencyReport:
    """Compare mollified solves against the unmollified problem, whose
    basis, named eps=0 in errors, is built before the rungs' and all of
    them before any solve.  On a nu with atoms that basis takes each atom
    as a jump condition."""
    u0 = e.u0.realize(1.0)
    u1 = e.u1.realize(1.0)
    limit, *bases = _per_rung((0.0, *e.ladder), lambda eps: _basis(
        e, _mollify(e, eps) if eps else e.nu))
    classical = _solve_for(e, limit, u0, u1)
    w_q = e.grid.simpson_weights

    def one(eps: float, basis):
        sol = _solve_for(e, basis, u0, u1)
        series = np.sqrt((classical.values - sol.values) ** 2 @ w_q)
        return float(np.max(series)), float(np.max(series[::2]))

    rows = _per_rung(e.ladder, one, bases)
    disc = tuple(r[0] for r in rows)
    coarse_sup = rows[-1][1]
    sens = abs(disc[-1] - coarse_sup) / disc[-1] if disc[-1] > 0.0 else 0.0
    drops = np.diff(disc)
    decreasing = bool(np.all(drops < 0.0))
    spike = bool(np.any(np.asarray(disc[1:]) > 1.05 * np.asarray(disc[:-1])))
    fit = _try_fit(_fit, e.ladder, disc)  # the log(eps) slope
    return ConsistencyReport(
        ladder=e.ladder, discrepancies=disc,
        strictly_decreasing=decreasing, spike_flagged=spike,
        final_value=disc[-1], tolerance=float(tolerance),
        rate=None if fit is None else fit.slope,
        time_grid_sensitivity=float(sens),
        passed=decreasing and disc[-1] <= tolerance,
    )
