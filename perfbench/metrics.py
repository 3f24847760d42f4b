"""Metric names, units and the reduction of worker records to metrics.

Standard library only.  End-to-end metrics come from untraced
executions, per-layer metrics from traced ones.  A time is the sum over
the workload's ops of each op's median, i.e. the cost of one pass over
the workload with each op at its typical speed.

Wall, CPU and set-up times are scaled to a reference host speed (see
speed.py): each is divided by the mean time of the speed probe sampled
during it, or right after set-up (wall time by the probe's wall time,
CPU time by its CPU time), and multiplied by PROBE_REF_S, the probe's
time on an idle core.  The probe runs no vww code, so a change
to the program moves a scaled time in full.  The raw seconds stay in the
result file.  Times of single layers (spans) are raw seconds.
"""

from __future__ import annotations

import statistics

from workloads import all_op_names

END_TO_END = [
    ("wall_s", "s"),
    ("cpu_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
    ("success_rate", "ratio"),
]

# (name, unit); a metric with unit "s" is a time, every other one is a
# count (or a ratio of counts) that must repeat exactly for one config
LAYER_METRICS = [
    ("ode.calls", "count"),
    ("ode.steps.rootfind", "count"),
    ("ode.steps.sampled", "count"),
    ("ode.rhs_evals", "count"),
    ("ode.self_s.rootfind", "s"),
    ("ode.self_s.sampled", "s"),
    ("prufer.builds", "count"),
    ("prufer.build_s", "s"),
    ("prufer.integrations.rootfind", "count"),
    ("prufer.integrations.sampled", "count"),
    ("prufer.integrations_per_build", "ratio"),
    ("prufer.trial_lambdas", "count"),
    ("prufer.rhs_self_s", "s"),
    ("potential.nu_calls", "count"),
    ("potential.nu_s", "s"),
    ("potential.mollify_calls", "count"),
    ("potential.mollify_s", "s"),
    ("cli.calls", "count"),
    ("cli.self_s", "s"),
    ("cli.bytes_written", "bytes"),
    ("spectral.analyze_calls", "count"),
    ("spectral.s", "s"),
    ("wave.calls", "count"),
    ("wave.s", "s"),
    ("estimates.verify_calls", "count"),
    ("estimates.verify_failed", "count"),
    ("estimates.s", "s"),
    ("veryweak.runs", "count"),
    ("veryweak.self_s", "s"),
]
OP_METRICS = [(f"op.{name}.wall_s", "s") for name in all_op_names()]
TRACE_METRICS = [("trace.overhead_s", "s")]
PER_LAYER = LAYER_METRICS + OP_METRICS + TRACE_METRICS

# mean time of speed.probe on an idle core of the 2-core x86-64 machine
# the benchmark was written on; scaled times read as seconds there
PROBE_REF_S = 1.2e-4


def is_count(name: str) -> bool:
    return dict(LAYER_METRICS)[name] != "s"


def execution_ok(rec: dict) -> bool:
    return rec["rc"] == 0 and rec["check"] is None


def scaled(rec: dict, key: str) -> float:
    """An execution's wall or CPU time at the reference host speed: less
    the time its speed probes took, over their mean time of that kind."""
    return ((rec[key] - rec[f"probe_{key}_sum"]) / rec[f"probe_{key}"]
            * PROBE_REF_S)


def _sum_of_medians(records: dict, key: str) -> float:
    return sum(statistics.median(scaled(r, key) for r in recs)
               for recs in records.values())


def setup_time(probes: list) -> float:
    """Median set-up time of the probe processes at the reference speed."""
    return statistics.median(
        p["setup_s"] / p["setup_probe_mean"] * PROBE_REF_S for p in probes)


def success_rate(records: dict) -> float:
    """Mean over ops of each op's share of good executions."""
    return statistics.fmean(sum(execution_ok(r) for r in recs) / len(recs)
                            for recs in records.values())


def end_to_end(worker: dict, probes: list) -> dict:
    ops = worker["ops"]
    return {
        "wall_s": _sum_of_medians(ops, "wall"),
        "cpu_s": _sum_of_medians(ops, "cpu"),
        "setup_s": setup_time(probes),
        "peak_rss_mb": worker["peak_rss_kb"] / 1024.0,
        "success_rate": success_rate(ops),
    }


def per_layer(worker: dict) -> tuple[dict, list]:
    """Layer metrics of one pass, and the names of counts that differed
    between executions of the same op."""
    unsteady = []
    total = {name: 0.0 for name, _ in LAYER_METRICS}
    for op, recs in worker["traced"].items():
        for name in total:
            values = [r["layers"][name] for r in recs]
            if is_count(name):
                if len(set(values)) > 1:
                    unsteady.append(f"{op}:{name}")
                total[name] += values[0]
            else:
                total[name] += statistics.median(values)
    builds = total["prufer.builds"]
    total["prufer.integrations_per_build"] = (
        (total["prufer.integrations.rootfind"]
         + total["prufer.integrations.sampled"]) / builds if builds else 0.0)
    for name, unit in LAYER_METRICS:
        if unit in ("count", "bytes"):
            total[name] = int(total[name])
    ops = worker["ops"]
    for name, _ in OP_METRICS:
        op = name.split(".")[1]
        # ops of other workloads report 0: they did not run
        total[name] = (statistics.median(scaled(r, "wall") for r in ops[op])
                       if op in ops else 0.0)
    total["trace.overhead_s"] = (_sum_of_medians(worker["traced"], "wall")
                                 - _sum_of_medians(ops, "wall"))
    return total, unsteady
