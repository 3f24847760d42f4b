"""Self-checks of the benchmark: deterministic counters, metric names that
match BENCHMARK.json, and the delta-potential oracle."""

import json
import math
import os
import subprocess
import sys

from scipy.optimize import brentq

import checks
import metrics
import run


def _traced_delta_op(tmp_path, tag):
    work = tmp_path / tag
    work.mkdir()
    manifest = run.write_manifest("eigs", 0, str(work))
    result = work / "result.json"
    proc = subprocess.run(
        [sys.executable, run.WORKER, "--manifest", manifest,
         "--result", str(result), "--passes", "1", "--trace", "1",
         "--ops", "eigs_delta"],
        cwd=run.ROOT, env=run.worker_env(), stdout=subprocess.DEVNULL,
        timeout=300)
    assert proc.returncode == 0
    values, unsteady = metrics.per_layer(json.loads(result.read_text()))
    assert unsteady == []
    return values


def test_traced_counts_repeat_across_processes(tmp_path):
    first = _traced_delta_op(tmp_path, "a")
    second = _traced_delta_op(tmp_path, "b")
    counts = [name for name, _ in metrics.LAYER_METRICS
              if metrics.is_count(name)]
    assert {n: first[n] for n in counts} == {n: second[n] for n in counts}
    assert first["prufer.builds"] == 1
    assert first["ode.rhs_evals"] > 0


def test_metric_names_match_benchmark_json():
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] \
        == metrics.END_TO_END
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] \
        == metrics.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)


def test_delta_oracle_matches_acceptance_root():
    # the acceptance suite's lambda_1 for height 1: tan(k/2) + 2k = 0
    k = brentq(lambda k: math.tan(k / 2.0) + 2.0 * k,
               math.pi + 1e-9, 2.0 * math.pi - 1e-9, xtol=1e-12)
    assert math.isclose(checks.delta_eigenvalue(1, 1.0), k * k,
                        rel_tol=1e-12)
    assert checks.delta_eigenvalue(4, 0.7) == (4 * math.pi) ** 2
    # a weaker delta lifts the odd modes less
    assert checks.delta_eigenvalue(3, 0.5) < checks.delta_eigenvalue(3, 2.0)
