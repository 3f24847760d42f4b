"""Seeded workload definitions: which `vww` CLI invocations ("ops") a
workload runs, with which configs, and which output check each op gets.

Standard library only, so the orchestrator can generate configs without
importing numpy.  Seed 0 gives the reference configs (delta height 1,
unit data amplitudes); any other seed draws the delta height from a
narrow range and the data amplitudes from a wider one.  The program only
ever sees the generated JSON configs.
"""

from __future__ import annotations

import random

WORKLOADS = ("eigs", "evolve", "ladder")

# delta height range: narrow, because the height changes how much work
# the eigen solver does and runs made with different seeds are compared
# with each other; the data amplitudes scale outputs but not the work
ALPHA_RANGE = (0.8, 1.25)
AMP_RANGE = (0.5, 2.0)


def draw_params(seed: int) -> dict:
    """Problem parameters for a seed; seed 0 is the reference problem."""
    if seed == 0:
        return {"alpha": 1.0, "u0_amp": 1.0, "f_amp": 1.0}
    rng = random.Random(seed)
    return {"alpha": rng.uniform(*ALPHA_RANGE),
            "u0_amp": rng.uniform(*AMP_RANGE),
            "f_amp": rng.uniform(*AMP_RANGE)}


def _delta(alpha: float) -> dict:
    return {"smooth": {"kind": "zero"}, "jumps": [[0.5, alpha]]}


def build_ops(workload: str, seed: int) -> list[dict]:
    """Ops of one pass over the workload: name, command, config, check."""
    p = draw_params(seed)
    delta = _delta(p["alpha"])
    if workload == "eigs":
        base = {"grid_n": 2048, "n_max": 40}
        return [
            _op("eigs_delta", "eigs", {"nu": delta, **base}, "eigs"),
            _op("eigs_mixed", "eigs", {
                "nu": {"smooth": {"kind": "linear", "params": [2.0]},
                       "jumps": [[0.3, 3.0]]}, **base}, "eigs"),
            _op("eigs_sine", "eigs", {
                "nu": {"smooth": {"kind": "sine", "params": [1.0, 1.0]}},
                **base}, "eigs"),
        ]
    if workload == "evolve":
        problem = {"grid_n": 2048, "n_max": 40, "T": 1.0, "n_times": 201,
                   "u0": {"kind": "parabola", "params": [p["u0_amp"]]},
                   "u1": {"kind": "zero"}}
        forcing = {"space": {"kind": "sine_combo",
                             "params": [[p["f_amp"], 1], [0.5 * p["f_amp"], 3]]},
                   "time": {"kind": "cos", "params": [1.0, 3.0]}}
        return [
            _op("solve", "solve", {"nu": delta, **problem}, "solve"),
            _op("forced", "forced",
                {"nu": delta, **problem, "forcing": forcing}, "forced"),
            _op("estimates_all", "estimates", {
                "nu": {"smooth": {"kind": "sine", "params": [1.0, 1.0]}},
                **problem, "forcing": forcing, "estimate_ids": "all"},
                "estimates"),
            # exits 3 (MissingNorm from q_linf on an atom) at the time this
            # benchmark was written; kept so the failure stays counted
            _op("estimates_core", "estimates",
                {"nu": delta, **problem, "estimate_ids": "core"},
                "estimates"),
        ]
    if workload == "ladder":
        # below the reference ladder (grid 2048, N=24, tol 1e-10), which
        # takes about 25 s a pass, so one run repeats each op; both
        # verdicts hold at these sizes
        ladder = {"grid_n": 1024, "n_max": 12, "T": 1.0, "ode_tol": 1e-8,
                  "u0": {"kind": "parabola", "params": [p["u0_amp"]]},
                  "u1": {"kind": "zero"},
                  "ladder": {"k_min": 2, "k_max": 5}, "mollifier": "bump"}
        return [
            _op("consistency", "veryweak", {
                "mode": "consistency",
                "nu": {"smooth": {"kind": "linear", "params": [5.0]}},
                **ladder}, "consistency"),
            _op("existence", "veryweak",
                {"mode": "existence", "nu": delta, **ladder}, "existence"),
        ]
    raise ValueError(f"unknown workload {workload!r}; "
                     f"choose from {', '.join(WORKLOADS)}")


# about the seconds one untraced pass takes, output checks included, on
# the machine the benchmark was written on; a run makes as many passes as
# fit in its --seconds by this estimate, so its executions, and the
# counts of attempted and failed ones, do not depend on the host's speed
PASS_S = {"eigs": 6.5, "evolve": 13.0, "ladder": 15.0}


def passes(workload: str, seconds: float) -> int:
    return max(1, int(seconds // PASS_S[workload]))


def _op(name: str, command: str, config: dict, check: str) -> dict:
    return {"name": name, "command": command, "config": config,
            "check": check}


def all_op_names() -> list[str]:
    return [op["name"] for w in WORKLOADS for op in build_ops(w, 0)]
