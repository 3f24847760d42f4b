"""Numerical verification of the a-priori energy inequalities.

Each estimate id names one inequality; ``verify`` evaluates the left
side on the solution's stored time grid, assembles the right side from
the prescribed data/potential/forcing norms, and reports the ratio.
The catalog covers the homogeneous family (est1..est5), its rough-data
corollary (ec1..ec4), the forced family (esnh1..esnh4) and the forced
rough-data corollary (ecnh1..ecnh4); the first thirteen form the core
suite, the last four an extended set.

Up-to-constant inequalities are operationalized as finite reported
ratios that stay uniform over declared sweep families; nothing sharper
is asserted.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, MissingNorm
from .grid import GridFunction
from .spectral import SpectralCoeffs, sobolev_norm, synthesize
from .wave import WaveProblem, WaveSolution

CORE_ESTIMATE_IDS = (
    "est1", "est2", "est3", "est4", "est5",
    "ec1", "ec2", "ec3", "ec4",
    "esnh1", "esnh2", "esnh3", "esnh4",
)
EXTENDED_ESTIMATE_IDS = ("ecnh1", "ecnh2", "ecnh3", "ecnh4")
ALL_ESTIMATE_IDS = CORE_ESTIMATE_IDS + EXTENDED_ESTIMATE_IDS

# right sides that do not involve the potential; their sweep ratios must
# stay flat as the regularization scale shrinks
Q_FREE_IDS = ("est1", "est2", "est5", "ec1", "esnh1", "esnh2", "ecnh1")


@dataclass(frozen=True)
class EstimateReport:
    estimate_id: str
    lhs_max: float
    rhs: float
    ratio: float
    t_at_max: float
    inputs: dict

    def to_dict(self) -> dict:
        return {
            "estimate_id": self.estimate_id,
            "lhs_max": self.lhs_max,
            "rhs": self.rhs,
            "ratio": self.ratio,
            "t_at_max": self.t_at_max,
            "inputs": self.inputs,
        }

    @property
    def problem_hash(self) -> str:
        blob = json.dumps(self.inputs, sort_keys=True).encode()
        return hashlib.sha1(blob).hexdigest()[:12]


def _sq(x: float) -> float:
    return x * x


class _Norms:
    """Lazy norm inventory for one problem."""

    def __init__(self, problem: WaveProblem):
        self.problem = problem
        self.nu = problem.basis.nu
        self._cache: dict = {}

    def data(self, which: str, k: float) -> float:
        key = (which, k)
        if key not in self._cache:
            coeffs = getattr(self.problem, f"{which}_coeffs")
            self._cache[key] = _sq(sobolev_norm(coeffs, k))
        return self._cache[key]

    def second_derivative(self, which: str) -> float:
        key = (which, "dd")
        if key not in self._cache:
            coeffs: SpectralCoeffs = getattr(self.problem, f"{which}_coeffs")
            g = synthesize(coeffs)
            self._cache[key] = _sq(g.second_difference().norm_l2())
        return self._cache[key]

    @property
    def nu_l2_sq(self) -> float:
        if "nu_l2" not in self._cache:
            self._cache["nu_l2"] = _sq(self.nu.norm_l2())
        return self._cache["nu_l2"]

    @property
    def nu_linf_sq(self) -> float:
        if "nu_linf" not in self._cache:
            self._cache["nu_linf"] = _sq(self.nu.norm_linf())
        return self._cache["nu_linf"]

    @property
    def q_linf_sq(self) -> float:
        if "q_linf" not in self._cache:
            self._cache["q_linf"] = _sq(self.nu.q_linf())
        return self._cache["q_linf"]

    @property
    def forcing_sq(self) -> float:
        f = self.problem.forcing
        return _sq(f.sup_l2()) if f is not None else 0.0

    @property
    def forcing_c1_sq(self) -> float:
        f = self.problem.forcing
        return _sq(f.sup_c1()) if f is not None else 0.0

    @property
    def t_sq(self) -> float:
        return _sq(self.problem.T)


def _lhs_series(estimate_id: str, sol: WaveSolution, nu, k: float) -> np.ndarray:
    basis = sol.basis
    family = estimate_id[-1]
    if estimate_id == "est5":
        return sol.wk_series(k) ** 2
    if family == "1":
        return sol.l2_series() ** 2
    if family == "2":
        return sol.dt_l2_series() ** 2
    w = basis.grid.simpson_weights
    if family == "3":
        vals = sol.modal.T @ basis.phi_prime_matrix
        return vals**2 @ w
    if family == "4":
        q_nodes = nu.q_values(basis.grid.nodes)
        vals = q_nodes[None, :] * sol.values \
            - (basis.lambdas[:, None] * sol.modal).T @ basis.phi_matrix
        return vals**2 @ w
    raise ConfigError(f"unknown estimate id {estimate_id!r}")


def _rhs(estimate_id: str, n: _Norms, k: float) -> float:
    u0_l2 = n.data("u0", 0.0)
    u1_l2 = n.data("u1", 0.0)
    if estimate_id == "est1":
        return u0_l2 + n.data("u1", -1.0)
    if estimate_id == "est2":
        return n.data("u0", 1.0) + u1_l2
    if estimate_id == "est3":
        return ((1.0 + n.nu_l2_sq) * (n.data("u0", 1.0) + u1_l2)
                + n.nu_linf_sq * (u0_l2 + n.data("u1", -1.0)))
    if estimate_id == "est4":
        return (n.q_linf_sq * (u0_l2 + n.data("u1", -1.0))
                + n.data("u0", 2.0) + n.data("u1", 1.0))
    if estimate_id == "est5":
        return n.data("u0", k) + n.data("u1", k - 1.0)
    if estimate_id == "ec1":
        return u0_l2 + u1_l2
    if estimate_id == "ec2":
        return n.second_derivative("u0") + n.q_linf_sq * u0_l2 + u1_l2
    if estimate_id == "ec3":
        return ((1.0 + n.nu_l2_sq)
                * (n.second_derivative("u0") + n.q_linf_sq * u0_l2 + u1_l2)
                + n.nu_linf_sq * (u0_l2 + u1_l2))
    if estimate_id == "ec4":
        return (n.q_linf_sq * (u0_l2 + u1_l2)
                + n.second_derivative("u0") + n.second_derivative("u1"))
    duh = 2.0 * n.t_sq * n.forcing_sq
    if estimate_id == "esnh1":
        return u0_l2 + n.data("u1", -1.0) + duh
    if estimate_id == "esnh2":
        return n.data("u0", 1.0) + u1_l2 + duh
    if estimate_id == "esnh3":
        return ((1.0 + n.nu_l2_sq) * (n.data("u0", 1.0) + u1_l2 + duh)
                + n.nu_linf_sq * (u0_l2 + n.data("u1", -1.0) + duh))
    if estimate_id == "esnh4":
        return (n.q_linf_sq * (u0_l2 + n.data("u1", -1.0) + duh)
                + n.data("u0", 2.0) + n.data("u1", 1.0)
                + 2.0 * n.t_sq * n.forcing_c1_sq)
    if estimate_id == "ecnh1":
        return u0_l2 + u1_l2 + duh
    if estimate_id == "ecnh2":
        return (n.second_derivative("u0") + n.q_linf_sq * u0_l2
                + u1_l2 + duh)
    if estimate_id == "ecnh3":
        return ((1.0 + n.nu_l2_sq)
                * (n.second_derivative("u0") + n.q_linf_sq * u0_l2
                   + u1_l2 + duh)
                + n.nu_linf_sq * (u0_l2 + u1_l2 + duh))
    if estimate_id == "ecnh4":
        return (n.q_linf_sq * (u0_l2 + u1_l2 + duh)
                + n.second_derivative("u0") + n.second_derivative("u1")
                + duh)
    raise ConfigError(f"unknown estimate id {estimate_id!r}")


def verify(estimate_id: str, problem: WaveProblem, solution: WaveSolution,
           k: float = 0.0, inputs: dict | None = None) -> EstimateReport:
    """Evaluate one inequality on a computed solution.

    ``k`` applies to est5 only.  ``inputs`` is an optional descriptor
    echoed into the report (used for problem hashing in sweeps).
    """
    if estimate_id not in ALL_ESTIMATE_IDS:
        raise ConfigError(f"unknown estimate id {estimate_id!r}")
    rhs = _rhs(estimate_id, _Norms(problem), k)
    series = _lhs_series(estimate_id, solution, problem.basis.nu, k)
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
