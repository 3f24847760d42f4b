"""Output checks for each op kind.

Each check reads an op's output directory and its config and raises
CheckFailed when an output is wrong.  Tolerances are those of the
repository's acceptance suite or looser, never tighter.  The 25 MB
solution tables are parsed by numpy's C reader: the check counts in the
run's time budget, and the 13 MB array stays well below the memory the
op itself used, so checking does not raise the worker's peak.
"""

from __future__ import annotations

import csv
import json
import math
import os

import numpy as np
from scipy.optimize import brentq

THETA_RESIDUAL_TOL = 1e-10
EVEN_MODE_RTOL = 1e-8
ODD_MODE_RTOL = 1e-7
ENERGY_DRIFT_TOL = 1e-9
CONSISTENCY_RATE = (2.98, 0.25)
EXISTENCE_Q_SLOPE = (1.0, 0.05)
ESTIMATE_COUNTS = {"core": 13, "all": 17}


class CheckFailed(Exception):
    pass


def _require(cond: bool, msg: str) -> None:
    if not cond:
        raise CheckFailed(msg)


def _load_json(out: str, name: str) -> dict:
    path = os.path.join(out, name)
    _require(os.path.isfile(path), f"missing {name}")
    with open(path) as fh:
        return json.load(fh)


def _delta_height(config: dict):
    """alpha if the potential is a single delta at 1/2, else None."""
    nu = config["nu"]
    jumps = nu.get("jumps", [])
    if nu["smooth"]["kind"] == "zero" and len(jumps) == 1 \
            and jumps[0][0] == 0.5:
        return float(jumps[0][1])
    return None


def delta_eigenvalue(n: int, alpha: float) -> float:
    """Dirichlet eigenvalue n of -y'' + alpha * delta_{1/2} y on (0, 1).

    Even modes vanish at 1/2 and keep (n pi)^2.  Odd modes solve
    tan(k/2) = -2k/alpha with k in (n pi, (n+1) pi); multiplied through
    by cos(k/2) the equation has no poles in that interval.
    """
    if n % 2 == 0:
        return (n * math.pi) ** 2
    k = brentq(lambda k: math.sin(k / 2.0) + 2.0 * k / alpha * math.cos(k / 2.0),
               n * math.pi, (n + 1) * math.pi, xtol=1e-14)
    return k * k


def check_eigs(out: str, config: dict) -> None:
    path = os.path.join(out, "eigenvalues.csv")
    _require(os.path.isfile(path), "missing eigenvalues.csv")
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    _require(len(rows) == config["n_max"],
             f"{len(rows)} eigenvalue rows, want {config['n_max']}")
    lams = [float(r["lambda"]) for r in rows]
    _require(all(b > a for a, b in zip(lams, lams[1:])),
             "eigenvalues not strictly increasing")
    worst = max(abs(float(r["theta_residual"])) for r in rows)
    _require(worst <= THETA_RESIDUAL_TOL,
             f"theta residual {worst:.3g} above {THETA_RESIDUAL_TOL}")
    alpha = _delta_height(config)
    if alpha is None:
        return
    for r, lam in zip(rows, lams):
        n = int(r["n"])
        want = delta_eigenvalue(n, alpha)
        tol = EVEN_MODE_RTOL if n % 2 == 0 else ODD_MODE_RTOL
        _require(abs(lam - want) <= tol * want,
                 f"mode {n}: lambda {lam!r}, oracle {want!r} (rtol {tol})")


def _check_solution_csv(out: str, config: dict) -> None:
    path = os.path.join(out, "solution.csv")
    _require(os.path.isfile(path), "missing solution.csv")
    want = (config.get("n_times", 201) * (config["grid_n"] + 1), 4)
    with open(path) as fh:
        _require(fh.readline().strip() == "t,x,u,u_t", "bad solution.csv header")
        values = np.loadtxt(fh, delimiter=",", ndmin=2)
    _require(values.shape == want,
             f"solution.csv has shape {values.shape}, want {want}")
    _require(bool(np.isfinite(values).all()), "non-finite value in solution.csv")


def _check_energy(out: str, config: dict, max_drift) -> None:
    energy = _load_json(out, "energy.json")
    _require(energy["boundary_max"] == 0.0,
             f"boundary_max {energy['boundary_max']!r} != 0")
    _require(all(math.isfinite(v) for v in energy["energy"]),
             "non-finite energy")
    if max_drift is not None:
        _require(energy["energy_drift"] <= max_drift,
                 f"energy drift {energy['energy_drift']:.3g} above {max_drift}")
    _check_solution_csv(out, config)


def check_solve(out: str, config: dict) -> None:
    _check_energy(out, config, ENERGY_DRIFT_TOL)


def check_forced(out: str, config: dict) -> None:
    # forcing feeds energy in, so there is no drift bound
    _check_energy(out, config, None)


def check_estimates(out: str, config: dict) -> None:
    ids = config["estimate_ids"]
    want = ESTIMATE_COUNTS[ids] if isinstance(ids, str) else len(ids)
    reports = _load_json(out, "estimates.json")["reports"]
    _require(len(reports) == want, f"{len(reports)} estimate reports, want {want}")
    bad = [r["estimate_id"] for r in reports
           if not (math.isfinite(r["ratio"]) and r["ratio"] >= 0.0)]
    _require(not bad, f"non-finite or negative ratios: {bad}")


def check_consistency(out: str, config: dict) -> None:
    rep = _load_json(out, "report.json")["report"]
    _require(rep["passed"], "consistency verdict failed")
    want, tol = CONSISTENCY_RATE
    _require(rep["rate"] is not None and abs(rep["rate"] - want) <= tol,
             f"consistency rate {rep['rate']!r}, want {want} +- {tol}")


def check_existence(out: str, config: dict) -> None:
    rep = _load_json(out, "report.json")["report"]
    _require(rep["moderate"], "existence net not moderate")
    want, tol = EXISTENCE_Q_SLOPE
    slope = (rep["q_exponent"] or {}).get("slope")
    _require(slope is not None and abs(slope - want) <= tol,
             f"q_eps slope {slope!r}, want {want} +- {tol}")


CHECKS = {
    "eigs": check_eigs,
    "solve": check_solve,
    "forced": check_forced,
    "estimates": check_estimates,
    "consistency": check_consistency,
    "existence": check_existence,
}
