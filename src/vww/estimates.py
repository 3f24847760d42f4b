"""Numerical verification of the a-priori energy inequalities.

Each estimate id names one inequality; ``verify`` evaluates the left
side on the solution's stored time grid, assembles the right side from
the prescribed data/potential/forcing norms, and reports the ratio.
The catalog covers the homogeneous family (est1..est5), its rough-data
corollary (ec1..ec4), the forced family (esnh1..esnh4) and the forced
rough-data corollary (ecnh1..ecnh4); the first thirteen form the core
suite, the last four an extended set.

The catalog is one table, ``ESTIMATES``: each id declares its left-side
family (``u``, ``u_t``, ``u_x``, ``u_xx`` or ``w_k``) and its right side
as an ordered sum of groups.  A group either adds its terms one by one
(coefficient ``None``) or multiplies their sum by a coefficient; a term
is a squared norm named in ``_NORMS`` or a nested group.  Sums run left
to right.  A forced variant is its homogeneous base with the Duhamel
term 2 T^2 sup_t ||f||^2 added to every group (esnh4 adds the C^1 one to
its last group).  Norms are computed on first use, once per ``verify``
or per ``norms`` its calls share, so ``MissingNorm`` from ``q_linf``
arises only for ids that use it; ``norms_used`` names them, so a caller
can refuse an id before any solve.

Up-to-constant inequalities are operationalized as finite reported
ratios that stay uniform over declared sweep families; nothing sharper
is asserted.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, fields

import numpy as np

from .errors import ConfigError, MissingNorm
from .spectral import sobolev_norm, synthesize
from .wave import ForcingTable, WaveProblem, WaveSolution, x_derivative


@dataclass(frozen=True)
class EstimateReport:
    estimate_id: str
    lhs_max: float
    rhs: float
    ratio: float
    t_at_max: float
    inputs: dict

    def to_dict(self) -> dict:
        # dataclasses.asdict's dict, less its deep copy of inputs
        return {f.name: getattr(self, f.name) for f in fields(self)}

    @property
    def problem_hash(self) -> str:
        blob = json.dumps(self.inputs, sort_keys=True).encode()
        return hashlib.sha1(blob).hexdigest()[:12]


def _sq(x: float) -> float:
    return x * x


def _duhamel_sq(problem: WaveProblem, norm) -> float:
    """2 T^2 times the squared forcing norm, 0 without forcing."""
    f = problem.forcing
    return 2.0 * _sq(problem.T) * (_sq(norm(f)) if f is not None else 0.0)


def _second_derivative_sq(coeffs) -> float:
    return _sq(synthesize(coeffs).second_difference().norm_l2())


# squared norms of one problem, by name: initial data in Sobolev orders
# (k is verify's order, used by est5), second differences of the data,
# the Duhamel forcing terms and the potential norms
_NORMS = {
    "u0": lambda p, k: _sq(sobolev_norm(p.u0_coeffs, 0.0)),
    "u0_H1": lambda p, k: _sq(sobolev_norm(p.u0_coeffs, 1.0)),
    "u0_H2": lambda p, k: _sq(sobolev_norm(p.u0_coeffs, 2.0)),
    "u0_Hk": lambda p, k: _sq(sobolev_norm(p.u0_coeffs, k)),
    "u0_xx": lambda p, k: _second_derivative_sq(p.u0_coeffs),
    "u1": lambda p, k: _sq(sobolev_norm(p.u1_coeffs, 0.0)),
    "u1_H-1": lambda p, k: _sq(sobolev_norm(p.u1_coeffs, -1.0)),
    "u1_H1": lambda p, k: _sq(sobolev_norm(p.u1_coeffs, 1.0)),
    "u1_Hk-1": lambda p, k: _sq(sobolev_norm(p.u1_coeffs, k - 1.0)),
    "u1_xx": lambda p, k: _second_derivative_sq(p.u1_coeffs),
    "duh": lambda p, k: _duhamel_sq(p, ForcingTable.sup_l2),
    "duh_c1": lambda p, k: _duhamel_sq(p, ForcingTable.sup_c1),
    "q_linf": lambda p, k: _sq(p.basis.nu.q_linf()),
    "1+nu_l2": lambda p, k: 1.0 + _sq(p.basis.nu.norm_l2()),
    "nu_linf": lambda p, k: _sq(p.basis.nu.norm_linf()),
}


class _Norms(dict):
    """The squared norms of one problem, each computed on first use."""

    def __init__(self, problem: WaveProblem, k: float):
        super().__init__()
        self.problem = problem
        self.k = k

    def __missing__(self, name: str) -> float:
        value = self[name] = _NORMS[name](self.problem, self.k)
        return value


def _forced(estimate: tuple, last: str = "duh") -> tuple:
    """The base estimate with the Duhamel term appended to every group;
    the last group gets ``last``."""
    lhs, groups = estimate
    *head, (coef, terms) = groups
    return lhs, (*((c, t + ("duh",)) for c, t in head),
                 (coef, terms + (last,)))


_EC2_SUM = ("u0_xx", ("q_linf", ("u0",)), "u1")

# id -> (left-side family, right-side groups)
_CORE = {
    "est1": ("u", ((None, ("u0", "u1_H-1")),)),
    "est2": ("u_t", ((None, ("u0_H1", "u1")),)),
    "est3": ("u_x", (("1+nu_l2", ("u0_H1", "u1")),
                     ("nu_linf", ("u0", "u1_H-1")))),
    "est4": ("u_xx", (("q_linf", ("u0", "u1_H-1")),
                      (None, ("u0_H2", "u1_H1")))),
    "est5": ("w_k", ((None, ("u0_Hk", "u1_Hk-1")),)),
    "ec1": ("u", ((None, ("u0", "u1")),)),
    "ec2": ("u_t", ((None, _EC2_SUM),)),
    "ec3": ("u_x", (("1+nu_l2", _EC2_SUM), ("nu_linf", ("u0", "u1")))),
    "ec4": ("u_xx", (("q_linf", ("u0", "u1")), (None, ("u0_xx", "u1_xx")))),
}
_CORE.update(
    esnh1=_forced(_CORE["est1"]),
    esnh2=_forced(_CORE["est2"]),
    esnh3=_forced(_CORE["est3"]),
    esnh4=_forced(_CORE["est4"], last="duh_c1"),
)
ESTIMATES = {
    **_CORE,
    "ecnh1": _forced(_CORE["ec1"]),
    "ecnh2": _forced(_CORE["ec2"]),
    "ecnh3": _forced(_CORE["ec3"]),
    "ecnh4": _forced(_CORE["ec4"]),
}
CORE_ESTIMATE_IDS = tuple(_CORE)
ALL_ESTIMATE_IDS = tuple(ESTIMATES)


def norms_used(estimate_id: str) -> set:
    """Names of the ``_NORMS`` entries the right side of the id reads."""
    def names(terms):  # norm names, and (coefficient or None, terms) groups
        return set().union(*({t} if isinstance(t, str)
                             else names(t[1]) | ({t[0]} - {None})
                             for t in terms))
    return names(ESTIMATES[estimate_id][1])


def _sum(terms: tuple, norms: _Norms) -> float:
    """Left-to-right sum of norm names and (coefficient, terms) groups."""
    total = None
    for t in terms:
        value = norms[t] if isinstance(t, str) \
            else norms[t[0]] * _sum(t[1], norms)
        total = value if total is None else total + value
    return total


def _right_side(groups: tuple, norms: _Norms) -> float:
    flat = []
    for coef, terms in groups:
        flat.extend(terms if coef is None else [(coef, terms)])
    return _sum(tuple(flat), norms)


def _lhs_series(family: str, sol: WaveSolution, nu, k: float) -> np.ndarray:
    if family == "u":
        return sol.l2_series() ** 2
    if family == "u_t":
        return sol.dt_l2_series() ** 2
    if family == "w_k":
        return sol.wk_series(k) ** 2
    vals = x_derivative(sol, nu, 1 if family == "u_x" else 2)
    with np.errstate(over="ignore"):  # +inf for the output gate to name
        return vals**2 @ sol.basis.grid.simpson_weights


def verify(estimate_id: str, problem: WaveProblem, solution: WaveSolution,
           k: float = 0.0, inputs: dict | None = None,
           lhs: dict | None = None,
           norms: dict | None = None) -> EstimateReport:
    """Evaluate one inequality on a computed solution.

    ``k`` applies to est5 only.  ``inputs`` is an optional descriptor
    echoed into the report, whose ``problem_hash`` digests it.  ``lhs``,
    a dict shared by the calls on one problem and solution, keeps each
    left-side series, so that a family's series is formed once;
    ``norms``, shared likewise, keeps each squared norm of the right side,
    per order k.
    """
    try:
        family, groups = ESTIMATES[estimate_id]
    except KeyError:
        raise ConfigError(f"unknown estimate id {estimate_id!r}") from None
    norms = {} if norms is None else norms
    rhs = _right_side(groups, norms.setdefault(k, _Norms(problem, k)))
    lhs = {} if lhs is None else lhs
    key = (family, k)
    if key not in lhs:
        lhs[key] = _lhs_series(family, solution, problem.basis.nu, k)
    series = lhs[key]
    j = int(np.argmax(series))
    lhs_max = float(series[j])
    if rhs <= 0.0:
        if lhs_max <= 1e-28:
            ratio = 0.0
        else:
            raise MissingNorm(
                f"{estimate_id}: zero right side against nonzero solution")
    else:
        ratio = lhs_max / rhs
    return EstimateReport(
        estimate_id=estimate_id, lhs_max=lhs_max, rhs=float(rhs),
        ratio=float(ratio), t_at_max=float(solution.times[j]),
        inputs=inputs or {},
    )

