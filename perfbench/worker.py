"""Workload process: set up, run the ops in a closed loop, check outputs.

Started by run.py with the thread environment pinned.  One client runs
the ops of the manifest one after another through `vww.cli.main`, each
after the previous one returns, for a fixed number of passes, so that a
run makes the same executions on any host.  Every execution is checked;
with --trace 1 each op also runs a second time with the tracer
installed, right after its untraced run, so tracing overhead is measured
in pairs.  A `speed.Meter` samples the host's speed during every
execution, and set-up is followed by a speed sample too.  The result
goes to a JSON file, not to stdout.

    python3 perfbench/worker.py --manifest M --result R [--passes P]
        [--trace 0|1] [--ops name,...] [--setup-only]
"""

import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--manifest", required=True)
    p.add_argument("--result", required=True)
    p.add_argument("--passes", type=int, default=1)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--ops", default=None,
                   help="comma-separated op names to run (default: all)")
    p.add_argument("--setup-only", action="store_true")
    return p.parse_args(argv)


def _dir_bytes(path: str) -> int:
    return sum(e.stat().st_size for e in os.scandir(path) if e.is_file())


def run_op(op: dict, tracer, checks) -> dict:
    """One execution of an op; timing covers only vww.cli.main."""
    import vww.cli
    import speed
    out = op["out"]
    shutil.rmtree(out, ignore_errors=True)
    argv = [op["command"], "--config", op["config_path"], "--out", out]
    gc.collect()
    if tracer is not None:
        tracer.begin_op()
    with speed.Meter() as meter:
        w0, c0 = time.perf_counter(), time.process_time()
        try:
            if tracer is not None:
                with tracer.span("op"):
                    rc = vww.cli.main(argv)
            else:
                rc = vww.cli.main(argv)
        except Exception as exc:  # noqa: BLE001 - a crash is a failed op
            rc = f"{type(exc).__name__}: {exc}"
        wall, cpu = time.perf_counter() - w0, time.process_time() - c0
    rec = {"wall": wall, "cpu": cpu, "rc": rc, "check": None,
           **meter.record()}
    if rc == 0:
        try:
            checks.CHECKS[op["check"]](out, op["config"])
        except checks.CheckFailed as exc:
            rec["check"] = str(exc)
        except (OSError, ValueError, KeyError, TypeError) as exc:
            rec["check"] = f"unreadable output: {type(exc).__name__}: {exc}"
    if tracer is not None:
        written = _dir_bytes(out) if os.path.isdir(out) else 0
        rec["layers"] = tracer.op_metrics(written)
    shutil.rmtree(out, ignore_errors=True)
    return rec


def measure(ops: list, passes: int, tracer, checks):
    """Closed loop: `passes` passes over the ops, one op at a time."""
    records = {op["name"]: [] for op in ops}
    traced = {op["name"]: [] for op in ops}
    start = time.perf_counter()
    for _ in range(passes):
        for op in ops:
            records[op["name"]].append(run_op(op, None, checks))
            if tracer is None:
                continue
            tracer.install()
            try:
                traced[op["name"]].append(run_op(op, tracer, checks))
            finally:
                tracer.uninstall()
    return records, traced, time.perf_counter() - start


def main(argv=None) -> int:
    args = parse_args(argv)
    # set-up as a user of the CLI pays it: import vww, then load configs
    import vww.cli
    with open(args.manifest) as fh:
        manifest = json.load(fh)
    for op in manifest["ops"]:
        with open(op["config_path"]) as fh:
            op["config"] = json.load(fh)
    setup_s = time.perf_counter() - T_START

    src = os.path.join(ROOT, "src", "vww")
    if os.path.dirname(os.path.abspath(vww.cli.__file__)) != src:
        print(f"worker: imported vww from {vww.cli.__file__}, not {src}",
              file=sys.stderr)
        return 2
    import speed
    result = {"setup_s": setup_s, "setup_probe_mean": speed.setup_speed()}
    if args.setup_only:
        _write(args.result, result)
        return 0

    import numpy
    import scipy
    import checks
    tracer = None
    if args.trace:
        import layers
        tracer = layers.Tracer()

    ops = manifest["ops"]
    if args.ops:
        wanted = args.ops.split(",")
        ops = [op for op in ops if op["name"] in wanted]
    if not ops:
        print(f"worker: no ops selected by {args.ops!r}", file=sys.stderr)
        return 2
    records, traced, measure_s = measure(ops, args.passes, tracer, checks)

    result.update({
        "ops": records,
        "traced": traced if tracer else None,
        "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "measure_s": measure_s,
        "versions": {"python": sys.version.split()[0],
                     "numpy": numpy.__version__, "scipy": scipy.__version__,
                     "vww": vww.__version__},
    })
    if tracer is not None:
        result["spans"] = [s.to_list() for s in tracer.spans]
    _write(args.result, result)
    return 0


def _write(path: str, payload: dict) -> None:
    with open(path, "w") as fh:
        json.dump(payload, fh)


if __name__ == "__main__":
    sys.exit(main())
