"""vww benchmark: run one workload through the `vww` CLI and print metrics.

    python3 perfbench/run.py --workload eigs|evolve|ladder --seed N \
        --seconds S --trace 0|1

Run from the root of a checkout.  The configs are generated from the
seed; a worker process with BLAS/OpenMP threads pinned to one runs the
workload's ops in a closed loop with one client, as many passes as take
about S seconds on an idle core, and checks every output.  Set-up
(importing vww, loading configs) is timed in separate short processes
as well.  The last line of stdout is one JSON object: end-to-end
metrics with --trace 0, per-layer metrics from a traced run with
--trace 1.  The full record, with the environment and
(traced) the spans, goes to perfbench/results/.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
import time

import metrics
from workloads import WORKLOADS, build_ops, passes

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")

# every library that may start its own threads gets one, so the worker
# (one Python thread) stays within the machine's cores
THREAD_ENV = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
}
SETUP_PROBES = 3
DEADLINE_S = 170.0


class BenchError(Exception):
    pass


def worker_env() -> dict:
    env = dict(os.environ)
    env.pop("VWW_THREADS", None)
    env.update(THREAD_ENV)
    env["PYTHONPATH"] = os.path.join(ROOT, "src")
    return env


def write_manifest(workload: str, seed: int, work: str) -> str:
    ops = []
    for op in build_ops(workload, seed):
        path = os.path.join(work, f"{op['name']}.json")
        with open(path, "w") as fh:
            json.dump(op["config"], fh, indent=1)
        ops.append({"name": op["name"], "command": op["command"],
                    "check": op["check"], "config_path": path,
                    "out": os.path.join(work, "out", op["name"])})
    manifest = os.path.join(work, "manifest.json")
    with open(manifest, "w") as fh:
        json.dump({"workload": workload, "seed": seed, "ops": ops}, fh,
                  indent=1)
    return manifest


def spawn(args: list, result: str, deadline: float) -> dict:
    """Run the worker to completion (killed at the deadline)."""
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise BenchError("out of time before starting a worker")
    try:
        proc = subprocess.run(
            [sys.executable, WORKER, "--result", result, *args],
            cwd=ROOT, env=worker_env(), stdout=subprocess.DEVNULL,
            timeout=remaining)
    except subprocess.TimeoutExpired:
        raise BenchError("worker exceeded the time limit") from None
    if proc.returncode != 0:
        raise BenchError(f"worker exited with code {proc.returncode}")
    with open(result) as fh:
        return json.load(fh)


def environment(worker: dict) -> dict:
    return {
        **worker.pop("versions"),
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "thread_env": THREAD_ENV,
        "load_avg": os.getloadavg(),
    }


def run(args) -> tuple[dict, float]:
    deadline = time.monotonic() + DEADLINE_S
    if not os.path.isfile(os.path.join(ROOT, "src", "vww", "cli.py")):
        raise BenchError(f"no vww sources under {ROOT}/src")
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    work = os.path.join(HERE, ".work", f"{tag}-{os.getpid()}")
    os.makedirs(work)
    try:
        manifest = write_manifest(args.workload, args.seed, work)
        result = os.path.join(work, "result.json")
        base = ["--manifest", manifest]
        # in a fresh checkout the first probe also compiles bytecode, a
        # cost users pay once; the median of the four samples absorbs it
        probes = [spawn([*base, "--setup-only"], result, deadline)
                  for _ in range(SETUP_PROBES)]
        worker = spawn([*base, "--passes",
                        str(passes(args.workload, args.seconds)),
                        "--trace", str(args.trace)], result, deadline)
        probes.append({k: worker[k] for k in ("setup_s", "setup_probe_mean")})
    finally:
        shutil.rmtree(work, ignore_errors=True)

    records = [r for recs in worker["ops"].values() for r in recs]
    if args.trace:
        records += [r for recs in worker["traced"].values() for r in recs]
    failed = [r for r in records if not metrics.execution_ok(r)]
    wrong = [r for r in failed if r["rc"] == 0]
    if args.trace:
        values, unsteady = metrics.per_layer(worker)
        units = dict(metrics.PER_LAYER)
    else:
        values, unsteady = metrics.end_to_end(worker, probes), []
        units = dict(metrics.END_TO_END)
    summary = {
        # an op that exits non-zero is a failure the program reports; a
        # zero exit with a wrong output, or a count that does not repeat,
        # is an incorrect result
        "correct": not wrong and not unsteady,
        "attempted": len(records),
        "failed": len(failed),
        "metrics": {k: {"value": v, "unit": units[k]}
                    for k, v in values.items()},
    }
    error_rate = 1.0 - metrics.success_rate(worker["ops"])
    os.makedirs(os.path.join(HERE, "results"), exist_ok=True)
    with open(os.path.join(HERE, "results", f"{tag}.json"), "w") as fh:
        json.dump({**summary, "workload": args.workload, "seed": args.seed,
                   "seconds": args.seconds, "setup_probes": probes,
                   "error_rate": error_rate, "unsteady_counts": unsteady,
                   "environment": environment(worker),
                   "worker": worker}, fh, indent=1)
    return summary, error_rate, worker["measure_s"]


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description="vww benchmark")
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    # on SIGTERM, unwind: subprocess.run kills and reaps the worker, and
    # the scratch directory is removed
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    try:
        summary, error_rate, measure_s = run(args)
    except (BenchError, OSError) as exc:
        print(f"run.py: {exc}", file=sys.stderr)
        return 1
    for name, m in summary["metrics"].items():
        print(f"{name:34s} {m['value']:.6g} {m['unit']}")
    print(f"{'error_rate':34s} {error_rate:.6g} ratio ({summary['failed']} "
          f"of {summary['attempted']} executions failed)")
    print(f"{'measure_s':34s} {measure_s:.6g} s (budget {args.seconds:g} s)")
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
