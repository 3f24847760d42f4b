"""Regularization experiments: moderateness, negligible perturbations,
and the classical limit.

An experiment fixes a (possibly singular) potential through its
primitive, data for the wave problem, and a decreasing epsilon ladder.
Per rung, the potential is mollified, an eigenbasis built, the wave
problem solved, and sup-in-time norms recorded; log-log slope fits over
the ladder decide the verdicts:

* existence: the solution net and its time derivative stay moderate
  (fitted growth exponent at most the declared order plus 0.2);
* uniqueness: an injected order-M perturbation of potential and data
  leaves a difference net decaying at least like eps^(M - 0.2);
* consistency (bounded potentials): the mollified solutions approach
  the unmollified one, strictly decreasing along the ladder.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np

from .errors import (ConfigError, DegenerateNet, NonFiniteResult,
                     NotBoundedPotential, VwwError)
from .grid import Grid, GridFunction
from .potential import (ExponentFit, MollifiedNu, MollifierSpec, NuPrimitive,
                        PerturbedNu, RegularizedNet, check_negligibility,
                        fit_moderateness)
from .prufer import build_basis
from .spectral import analyze, sobolev_norm
from .wave import WaveProblem, solve_homogeneous


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
    """One ladder experiment; the ladder has at least 4 strictly decreasing
    rungs, the fewest a log-log fit accepts, each a valid mollifier scale,
    so a bad rung or profile fails before any basis is built."""

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
        lad = tuple(float(e) for e in self.ladder)
        if len(lad) < 4:
            raise ConfigError(f"ladder needs at least 4 rungs, got {len(lad)}")
        if any(b >= a for a, b in zip(lad, lad[1:])):
            raise ConfigError("ladder must be strictly decreasing")
        for eps in lad:  # an unknown profile or a rung outside (0, 1]
            MollifierSpec(self.mollifier, eps)
        object.__setattr__(self, "ladder", lad)
        object.__setattr__(self, "n_times", int(self.n_times))

    @property
    def times(self) -> np.ndarray:
        return np.linspace(0.0, self.T, self.n_times)


def _solve_for(e: VeryWeakExperiment, potential, u0: GridFunction,
               u1: GridFunction):
    basis = build_basis(potential, e.n_max, e.grid, tol=e.ode_tol)
    problem = WaveProblem(basis, analyze(u0, basis), analyze(u1, basis), e.T)
    return basis, problem, solve_homogeneous(problem, e.times)


def _try_fit(fit, ladder, norms, *args):
    """fit(net, *args) on the net of norms, or None when a norm is zero."""
    try:
        return fit(RegularizedNet(ladder, norms), *args)
    except DegenerateNet:
        return None


def _per_rung(e: VeryWeakExperiment, one) -> list:
    """one(eps) for each rung; a VwwError it raises names that rung's eps
    and keeps its class."""
    rows = []
    for eps in e.ladder:
        try:
            rows.append(one(eps))
        except VwwError as exc:
            exc.args = (f"rung eps={eps:g}: {exc}",)
            raise
    return rows


MODERATENESS_MARGIN = 0.2


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
        q_eps = MollifiedNu(e.nu, MollifierSpec(e.mollifier, eps))
        _, _, sol = _solve_for(e, q_eps, e.u0.realize(eps), e.u1.realize(eps))
        return (float(np.max(sol.l2_series())),
                float(np.max(sol.dt_l2_series())),
                q_eps.q_linf())

    u_norms, dtu_norms, q_norms = zip(*_per_rung(e, one))
    u_fit, dtu_fit, q_fit = (_try_fit(fit_moderateness, e.ladder, norms)
                             for norms in (u_norms, dtu_norms, q_norms))
    bound = declared_order + MODERATENESS_MARGIN
    moderate = all(f is None or f.slope <= bound for f in (u_fit, dtu_fit))
    return NetReport(
        ladder=e.ladder, u_norms=u_norms, dtu_norms=dtu_norms,
        q_linf_norms=q_norms, u_exponent=u_fit, dtu_exponent=dtu_fit,
        q_exponent=q_fit, declared_order=declared_order, moderate=moderate,
    )


@dataclass(frozen=True)
class UniquenessReport(_Report):
    ladder: tuple
    diff_norms: tuple
    order: int
    slope: float | None
    passed: bool
    esnh1_ratios: tuple


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
    if order < 1:
        raise ConfigError("perturbation order must be >= 1")
    grid = e.grid
    zero = GridFunction.zeros(grid)
    w0 = w0 if w0 is not None else zero
    w1 = w1 if w1 is not None else zero
    w_density = (w_primitive.q_values(grid.nodes)
                 if w_primitive is not None else np.zeros(grid.n + 1))

    def one(eps: float):
        c = eps**order
        base = MollifiedNu(e.nu, MollifierSpec(e.mollifier, eps))
        u0 = e.u0.realize(eps)
        u1 = e.u1.realize(eps)
        basis, _, sol = _solve_for(e, base, u0, u1)
        pert = base if w_primitive is None else PerturbedNu(base, w_primitive, c)
        u0_p = u0 + c * w0
        u1_p = u1 + c * w1
        if pert is base:
            problem_p = WaveProblem(basis, analyze(u0_p, basis),
                                    analyze(u1_p, basis), e.T)
            sol_p = solve_homogeneous(problem_p, e.times)
        else:
            _, _, sol_p = _solve_for(e, pert, u0_p, u1_p)
        diff = sol.values - sol_p.values
        w_q = grid.simpson_weights
        diff_sup = float(np.sqrt(np.max(diff**2 @ w_q)))
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
        ratio = 0.0 if rhs == 0.0 and diff_sup == 0.0 else (
            float("inf") if rhs == 0.0 else diff_sup**2 / rhs)
        return diff_sup, ratio

    diffs, ratios = zip(*_per_rung(e, one))
    rep = _try_fit(check_negligibility, e.ladder, diffs, order)
    # an identically zero difference net is negligible at every order
    slope, passed = (None, True) if rep is None else (rep.slope, rep.passed)
    return UniquenessReport(ladder=e.ladder, diff_norms=diffs, order=order,
                            slope=slope, passed=passed, esnh1_ratios=ratios)


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
    """Compare mollified solves against the unmollified bounded problem."""
    if e.nu.jumps:
        raise NotBoundedPotential(
            "consistency needs a bounded potential (no Dirac atoms)")
    u0 = e.u0.realize(1.0)
    u1 = e.u1.realize(1.0)
    _, _, classical = _solve_for(e, e.nu, u0, u1)
    w_q = e.grid.simpson_weights

    def one(eps: float):
        q_eps = MollifiedNu(e.nu, MollifierSpec(e.mollifier, eps))
        _, _, sol = _solve_for(e, q_eps, u0, u1)
        series = np.sqrt((classical.values - sol.values) ** 2 @ w_q)
        return float(np.max(series)), float(np.max(series[::2]))

    rows = _per_rung(e, one)
    disc = tuple(r[0] for r in rows)
    coarse_sup = rows[-1][1]
    sens = abs(disc[-1] - coarse_sup) / disc[-1] if disc[-1] > 0.0 else 0.0
    drops = np.diff(disc)
    decreasing = bool(np.all(drops < 0.0))
    spike = bool(np.any(np.asarray(disc[1:]) > 1.05 * np.asarray(disc[:-1])))
    # the log(eps) slope, which does not depend on the order passed
    fit = _try_fit(check_negligibility, e.ladder, disc, 1)
    return ConsistencyReport(
        ladder=e.ladder, discrepancies=disc,
        strictly_decreasing=decreasing, spike_flagged=spike,
        final_value=disc[-1], tolerance=tolerance,
        rate=None if fit is None else fit.slope,
        time_grid_sensitivity=float(sens),
        passed=decreasing and disc[-1] <= tolerance,
    )
