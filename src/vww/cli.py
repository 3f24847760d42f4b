"""Batch experiment runner.

Usage:
    vww eigs      --config cfg.json --out outdir
    vww solve     --config cfg.json --out outdir
    vww forced    --config cfg.json --out outdir
    vww estimates --config cfg.json --out outdir
    vww veryweak  --config cfg.json --out outdir
    vww <cmd> --selftest

Configs are JSON, schema-validated with unknown keys rejected.  Outputs
are machine-readable: JSON for reports, CSV for bulk numbers, and
whitespace-separated .dat files for log-log plotting.  File writes are
atomic (temp file + rename) and contain no timestamps, so identical
configs reproduce byte-identical outputs.

Exit codes: 0 success, 2 configuration/validation error, 3 numerical
failure, 4 I/O failure.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import tempfile

import numpy as np
from jsonschema import Draft202012Validator

from . import __version__
from .errors import ConfigError, VwwError
from .grid import Grid, GridFunction
from .potential import (PROFILES, SMOOTH_KINDS, MollifierSpec, NuPrimitive,
                        default_ladder, get_profile,
                        potential_from_descriptor)
from .prufer import DEFAULT_TOL, basis_csv_rows, basis_to_cache, build_basis
from .spectral import analyze
from .wave import (ForcingTable, WaveProblem, analyze_forcing,
                   default_time_grid, solve_forced, solve_homogeneous)
from .estimates import ALL_ESTIMATE_IDS, CORE_ESTIMATE_IDS, verify
from .veryweak import (DataNet, VeryWeakExperiment, run_consistency,
                       run_existence, run_uniqueness)

# -- config schemas ----------------------------------------------------------


def _obj(required: list, **properties) -> dict:
    """An object schema: these properties only, the required ones present."""
    return {"type": "object", "additionalProperties": False,
            "required": required, "properties": properties}


_NUMBERS = {"type": "array", "items": {"type": "number"}}
_PAIR = {**_NUMBERS, "minItems": 2, "maxItems": 2}
_POSITIVE = {"type": "number", "exclusiveMinimum": 0.0}

_NU_SCHEMA = _obj(
    ["smooth"],
    smooth=_obj(["kind"], kind={"enum": list(SMOOTH_KINDS)}, params=_NUMBERS),
    jumps={"type": "array", "items": _PAIR})

# data params by kind: parabola an optional amplitude, sine_combo
# (amplitude, mode) pairs, samples one value per grid node
_DATA_PARAMS = {
    "zero": {"type": "array", "maxItems": 0},
    "parabola": {**_NUMBERS, "maxItems": 1},
    "sine_combo": {"type": "array", "items": _PAIR},
    "samples": _NUMBERS,
}
_DATA_SCHEMA = {
    **_obj(["kind"], kind={"enum": list(_DATA_PARAMS)},
           params={"type": "array"}),
    "allOf": [{"if": {"properties": {"kind": {"const": kind}}},
               "then": {"properties": {"params": params}}}
              for kind, params in _DATA_PARAMS.items()],
}

_FORCING_SCHEMA = _obj(
    ["space", "time"],
    space=_DATA_SCHEMA,
    time=_obj(["kind"], kind={"enum": ["const", "cos", "sin", "poly"]},
              params=_NUMBERS),
    time_steps={"type": "integer", "minimum": 8})

_COMMON = {
    "nu": _NU_SCHEMA,
    "grid_n": {"type": "integer", "minimum": 2},
    "n_max": {"type": "integer", "minimum": 1},
    "ode_tol": _POSITIVE,
}
_PROBLEM = {
    "T": _POSITIVE,
    "n_times": {"type": "integer", "minimum": 2},
    "u0": _DATA_SCHEMA,
    "u1": _DATA_SCHEMA,
}
_BASIS_KEYS = ["nu", "grid_n", "n_max"]
_PROBLEM_KEYS = [*_BASIS_KEYS, "T", "u0", "u1"]

_SCHEMAS = {
    "eigs": _obj(_BASIS_KEYS, **_COMMON,
                 cache_eigenfunctions={"type": "boolean"},
                 write_cache={"type": "boolean"}),
    "solve": _obj(_PROBLEM_KEYS, **_COMMON, **_PROBLEM),
    "forced": _obj([*_PROBLEM_KEYS, "forcing"], **_COMMON, **_PROBLEM,
                   forcing=_FORCING_SCHEMA),
    "estimates": _obj(
        [*_PROBLEM_KEYS, "estimate_ids"], **_COMMON, **_PROBLEM,
        forcing=_FORCING_SCHEMA,
        estimate_ids={"anyOf": [
            {"enum": ["core", "all"]},
            {"type": "array", "items": {"enum": list(ALL_ESTIMATE_IDS)},
             "minItems": 1}]},
        k={"type": "number"}),
    "veryweak": _obj(
        ["mode", *_PROBLEM_KEYS, "ladder"], **_COMMON, **_PROBLEM,
        mode={"enum": ["existence", "uniqueness", "consistency"]},
        u0_scale_exponent={"type": "number"},
        u1_scale_exponent={"type": "number"},
        ladder={"anyOf": [
            {**_NUMBERS, "minItems": 1},
            _obj(["k_min", "k_max"], k_min={"type": "integer"},
                 k_max={"type": "integer"})]},
        mollifier={"enum": list(PROFILES)},
        declared_order={"type": "integer", "minimum": 0},
        order={"type": "integer", "minimum": 1},
        w_primitive=_NU_SCHEMA,
        w0=_DATA_SCHEMA,
        w1=_DATA_SCHEMA,
        tolerance=_POSITIVE),
}


def validate_config(command: str, config: dict) -> None:
    validator = Draft202012Validator(_SCHEMAS[command])
    errors = sorted(validator.iter_errors(config), key=str)
    if errors:
        where = "/".join(str(p) for p in errors[0].absolute_path) or "<root>"
        raise ConfigError(f"config invalid at {where}: {errors[0].message}")


# -- descriptor builders -----------------------------------------------------


def _build_data(desc: dict, grid: Grid) -> GridFunction:
    kind = desc["kind"]
    params = desc.get("params", [])
    x = grid.nodes
    if kind == "zero":
        return GridFunction.zeros(grid)
    if kind == "parabola":
        amp = float(params[0]) if params else 1.0
        return GridFunction(grid, amp * x * (1.0 - x))
    if kind == "sine_combo":
        vals = np.zeros_like(x)
        for pair in params:
            amp, m = float(pair[0]), float(pair[1])
            vals += amp * np.sin(m * math.pi * x)
        return GridFunction(grid, vals)
    if len(params) != grid.n + 1:  # samples
        raise ConfigError(
            f"samples data needs {grid.n + 1} values, got {len(params)}")
    return GridFunction(grid, np.asarray(params, dtype=float))


def _time_profile(desc: dict):
    kind = desc["kind"]
    params = [float(p) for p in desc.get("params", [])]
    if kind == "const":
        c = params[0] if params else 1.0
        return lambda t: np.full_like(t, c)
    if kind in ("cos", "sin"):
        amp, om = (params + [1.0, 1.0])[:2]
        trig = np.cos if kind == "cos" else np.sin
        return lambda t: amp * trig(om * t)
    coeffs = params or [1.0]  # poly
    return lambda t: sum(c * t**j for j, c in enumerate(coeffs))


def _build_forcing(desc: dict, basis, T: float, out_steps: int) -> ForcingTable:
    """Separable forcing g(t) * w(x) sampled so output times are nodes."""
    space = _build_data(desc["space"], basis.grid)
    g = _time_profile(desc["time"])
    if "time_steps" in desc:
        base = int(desc["time_steps"])
        factor = max(1, math.ceil(base / out_steps))
    else:
        dt_target = default_time_grid(basis, T)[1]
        factor = max(1, math.ceil((T / out_steps) / dt_target))
    times = np.linspace(0.0, T, out_steps * factor + 1)
    fvals = g(times)[:, None] * space.values[None, :]
    return analyze_forcing(fvals, basis, times)


# -- output helpers ----------------------------------------------------------


def _atomic_write(path: str, *texts: str) -> None:
    """Write the concatenation of texts to path through a renamed temp file."""
    d = os.path.dirname(path) or "."
    fd, tmp = tempfile.mkstemp(dir=d, prefix=".vww-tmp-")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.writelines(texts)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _write_json(path: str, payload: dict) -> None:
    _atomic_write(path, json.dumps(payload, indent=2, sort_keys=True) + "\n")


def _write_csv(path: str, header: tuple, rows) -> None:
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(repr(v) if isinstance(v, float) else str(v)
                              for v in row))
    _atomic_write(path, "\n".join(lines) + "\n")


def _write_dat(path: str, columns: dict) -> None:
    keys = list(columns)
    rows = zip(*(columns[k] for k in keys))
    lines = ["# " + " ".join(keys)]
    for row in rows:
        lines.append(" ".join(repr(float(v)) for v in row))
    _atomic_write(path, "\n".join(lines) + "\n")


def _meta(config: dict) -> dict:
    return {"version": __version__, "config": config}


# -- subcommands -------------------------------------------------------------


def _basis(config: dict):
    return build_basis(potential_from_descriptor(config["nu"]),
                       int(config["n_max"]), Grid(int(config["grid_n"])),
                       float(config.get("ode_tol", DEFAULT_TOL)))


def cmd_eigs(config: dict, out: str) -> None:
    basis = _basis(config)
    _write_csv(os.path.join(out, "eigenvalues.csv"),
               ("n", "lambda", "theta_residual", "tilde_norm", "psi_norm"),
               basis_csv_rows(basis))
    if config.get("write_cache", True):
        cache = basis_to_cache(
            basis, include_eigenfunctions=config.get("cache_eigenfunctions",
                                                     False))
        _write_json(os.path.join(out, "basis_cache.json"),
                    {**cache, "meta": _meta(config)})


def _solve_common(config: dict):
    """Build and solve the problem, forced when the config has a forcing."""
    basis = _basis(config)
    grid = basis.grid
    u0 = _build_data(config["u0"], grid)
    u1 = _build_data(config["u1"], grid)
    T = float(config["T"])
    n_times = int(config.get("n_times", 201))
    times = np.linspace(0.0, T, n_times)
    forcing = None
    if "forcing" in config:
        forcing = _build_forcing(config["forcing"], basis, T, n_times - 1)
    problem = WaveProblem(basis, analyze(u0, basis), analyze(u1, basis), T,
                          forcing=forcing)
    sol = solve_forced(problem, times) if forcing is not None \
        else solve_homogeneous(problem, times)
    return problem, sol, times


def _write_solution_csv(path: str, times: list, nodes: np.ndarray,
                        values: np.ndarray, dt_values: np.ndarray) -> None:
    """Rows t,x,u,u_t for every time and node, as ``_write_csv`` writes
    them; each time and node is formatted once."""
    xs = [f",{x!r}," for x in nodes.tolist()]
    parts = ["t,x,u,u_t\n"]
    for t, us, uts in zip(times, values, dt_values):
        t_r = repr(t)
        parts.append("".join([f"{t_r}{x_r}{u!r},{ut!r}\n" for x_r, u, ut
                              in zip(xs, us.tolist(), uts.tolist())]))
    _atomic_write(path, *parts)


def cmd_solve(config: dict, out: str) -> None:
    """``solve`` and ``forced``: solution.csv and energy.json."""
    _, sol, times = _solve_common(config)
    times = [float(t) for t in times]
    _write_solution_csv(os.path.join(out, "solution.csv"), times,
                        sol.basis.grid.nodes, sol.values, sol.dt_values)
    energy = sol.energy_series()
    e0 = float(energy[0]) if energy[0] != 0.0 else 1.0
    payload = {
        "meta": _meta(config),
        "times": times,
        "energy": [float(v) for v in energy],
        "energy_drift": float(np.ptp(energy) / abs(e0)),
        "l2_norms": [float(v) for v in sol.l2_series()],
        "boundary_max": float(max(np.max(np.abs(sol.values[:, 0])),
                                  np.max(np.abs(sol.values[:, -1])))),
    }
    _write_json(os.path.join(out, "energy.json"), payload)


def cmd_estimates(config: dict, out: str) -> None:
    ids = config["estimate_ids"]
    if ids == "core":
        ids = list(CORE_ESTIMATE_IDS)
    elif ids == "all":
        ids = list(ALL_ESTIMATE_IDS)
    problem, sol, _ = _solve_common(config)
    k = float(config.get("k", 0.0))
    inputs = {"config": config}
    reports = [verify(i, problem, sol, k=k, inputs=inputs) for i in ids]
    _write_json(os.path.join(out, "estimates.json"), {
        "meta": _meta(config),
        "reports": [r.to_dict() for r in reports],
    })
    _write_csv(os.path.join(out, "estimates.csv"),
               ("estimate_id", "ratio", "problem_hash"),
               [(r.estimate_id, r.ratio, r.problem_hash) for r in reports])


# per mode, the net columns: (report field, net.csv norm_kind, loglog.dat column)
_NET_COLUMNS = {
    "existence": (("u_norms", "L2_sup_t", "u_norm"),
                  ("dtu_norms", "dt_L2_sup_t", "dtu_norm"),
                  ("q_linf_norms", "q_Linf", "q_linf")),
    "uniqueness": (("diff_norms", "diff_L2_sup_t", "diff_norm"),),
    "consistency": (("discrepancies", "discrepancy_sup_t", "discrepancy"),),
}


def cmd_veryweak(config: dict, out: str) -> None:
    grid = Grid(int(config["grid_n"]))
    ladder = config["ladder"]
    if isinstance(ladder, dict):
        ladder = default_ladder(int(ladder["k_min"]), int(ladder["k_max"]))
    exp = VeryWeakExperiment(
        nu=potential_from_descriptor(config["nu"]),
        u0=DataNet(_build_data(config["u0"], grid),
                   float(config.get("u0_scale_exponent", 0.0))),
        u1=DataNet(_build_data(config["u1"], grid),
                   float(config.get("u1_scale_exponent", 0.0))),
        ladder=ladder, grid=grid, n_max=int(config["n_max"]),
        T=float(config["T"]),
        **{k: config[k] for k in ("mollifier", "n_times", "ode_tol")
           if k in config},
    )
    mode = config["mode"]
    if mode == "existence":
        rep = run_existence(exp, int(config.get("declared_order", 0)))
    elif mode == "uniqueness":
        if "order" not in config:
            raise ConfigError("uniqueness mode needs 'order'")
        wp = (potential_from_descriptor(config["w_primitive"])
              if "w_primitive" in config else None)
        w0 = _build_data(config["w0"], grid) if "w0" in config else None
        w1 = _build_data(config["w1"], grid) if "w1" in config else None
        rep = run_uniqueness(exp, int(config["order"]), w_primitive=wp,
                             w0=w0, w1=w1)
    else:
        rep = run_consistency(exp, float(config.get("tolerance", 1e-3)))
    columns = _NET_COLUMNS[mode]
    _write_json(os.path.join(out, "report.json"),
                {"meta": _meta(config), "mode": mode, "report": rep.to_dict()})
    _write_csv(os.path.join(out, "net.csv"), ("epsilon", "norm", "norm_kind"),
               [(eps, v, kind) for name, kind, _ in columns
                for eps, v in zip(rep.ladder, getattr(rep, name))])
    _write_dat(os.path.join(out, "loglog.dat"),
               {"epsilon": rep.ladder,
                **{col: getattr(rep, name) for name, _, col in columns}})


_COMMANDS = {
    "eigs": cmd_eigs,
    "solve": cmd_solve,
    "forced": cmd_solve,
    "estimates": cmd_estimates,
    "veryweak": cmd_veryweak,
}


# -- selftest ----------------------------------------------------------------


def _selftest() -> int:
    """Run the quick closed-form battery in-process."""
    from .potential import (RegularizedNet, check_negligibility, evaluate_nu,
                            extend_by_zero, fit_moderateness,
                            mollify_potential)
    from .prufer import integrate_prufer, shoot_eigenvalue
    from .spectral import sobolev_norm, synthesize
    from .wave import fd_oracle

    checks = []

    def check(name, fn):
        try:
            fn()
            checks.append((name, True, ""))
        except Exception as exc:  # noqa: BLE001 - report every failure
            checks.append((name, False, f"{type(exc).__name__}: {exc}"))

    g = Grid(256)
    step = NuPrimitive(jumps=((0.5, 1.0),))
    mixed = NuPrimitive("linear", (2.0,), jumps=((0.3, 3.0),))
    free = NuPrimitive()

    check("evaluate_nu left of jump",
          lambda: _expect(evaluate_nu(step, 0.25), 0.0))
    check("evaluate_nu right of jump",
          lambda: _expect(evaluate_nu(step, 0.75), 1.0))
    check("evaluate_nu mixed", lambda: _expect(evaluate_nu(mixed, 0.5), 4.0))

    ones = GridFunction(g, np.ones(g.n + 1))
    ext = extend_by_zero(ones)
    check("zero extension outside", lambda: _expect(float(ext(1.5)), 0.0))
    check("zero extension inside", lambda: _expect(float(ext(0.5)), 1.0))

    def scaling():
        eps = 1.0 / 16.0
        q = mollify_potential(step, MollifierSpec("bump", eps), g)
        _expect(float(q.values.max()) * eps, get_profile("bump").peak, 1e-12)
    check("mollifier scaling identity", scaling)
    check("mollify zero potential", lambda: _expect(
        float(np.abs(mollify_potential(
            NuPrimitive("const", (3.0,)), MollifierSpec("bump", 0.05),
            g).values).max()), 0.0))

    lad = tuple(2.0 ** (-k) for k in range(1, 7))
    check("moderateness exact power law", lambda: _expect(
        fit_moderateness(RegularizedNet(lad, tuple(e**-2 for e in lad))).slope,
        2.0, 1e-12))
    check("moderateness constant", lambda: _expect(
        fit_moderateness(RegularizedNet(lad, (1.0,) * 6)).slope, 0.0, 1e-12))
    check("negligibility pass", lambda: _assert(
        check_negligibility(RegularizedNet(lad, tuple(e**3 for e in lad)),
                            3).passed))
    check("negligibility fail", lambda: _assert(
        not check_negligibility(RegularizedNet(lad, tuple(e**3 for e in lad)),
                                5).passed))

    check("free phase pi", lambda: _expect(
        integrate_prufer(free, math.pi**2, g).theta[-1], math.pi, 1e-10))
    check("free phase 2pi", lambda: _expect(
        integrate_prufer(free, 4 * math.pi**2, g).theta[-1], 2 * math.pi,
        1e-10))
    check("free lambda_3", lambda: _expect(
        shoot_eigenvalue(free, 3, g).lambdas[0], 9 * math.pi**2, 1e-6))
    check("constant nu lambda_1", lambda: _expect(
        shoot_eigenvalue(NuPrimitive("const", (2.0,)), 1, g).lambdas[0],
        math.pi**2, 1e-6))
    check("delta-inert mode lambda_2", lambda: _expect(
        shoot_eigenvalue(step, 2, g).lambdas[0], 4 * math.pi**2, 1e-6))

    basis = build_basis(free, 5, g)
    s1 = GridFunction(g, math.sqrt(2.0) * np.sin(math.pi * g.nodes))
    c = analyze(s1, basis)
    check("analyze single mode", lambda: _expect(float(c.coeffs[0]), 1.0, 1e-9))
    check("analyze single mode tail", lambda: _expect(
        float(np.abs(c.coeffs[1:]).max()), 0.0, 1e-9))
    check("synthesize round trip", lambda: _expect(
        (synthesize(c) - s1).norm_l2(), 0.0, 1e-8))
    check("sobolev k=1", lambda: _expect(
        sobolev_norm(analyze(GridFunction(
            g, np.sin(math.pi * g.nodes)), basis), 1.0),
        math.pi / math.sqrt(2.0), 1e-9))

    z = GridFunction.zeros(g)
    prob = WaveProblem(basis, analyze(s1, basis), analyze(z, basis), T=1.0)
    sol = solve_homogeneous(prob, np.linspace(0.0, 1.0, 11))
    check("single-mode reversal at t=1", lambda: _expect(
        (sol.u_at(1.0) + s1).norm_l2(), 0.0, 1e-8))
    check("dirichlet walls", lambda: _expect(
        float(np.abs(sol.values[:, [0, -1]]).max()), 0.0))

    times = np.linspace(0.0, 1.0, 101)
    ftab = analyze_forcing(np.zeros((101, g.n + 1)), basis, times)
    probf = WaveProblem(basis, analyze(s1, basis), analyze(z, basis), T=1.0,
                        forcing=ftab)
    solf = solve_forced(probf, times[::10])
    check("zero forcing reduces to homogeneous", lambda: _expect(
        float(np.abs(solf.modal - solve_homogeneous(
            prob, times[::10]).modal).max()), 0.0, 1e-12))

    check("fd oracle zero data", lambda: _expect(
        float(np.abs(fd_oracle(z, z, z, None, 0.5, 1.0 / 512.0,
                               [0.5]).values).max()), 0.0))

    rep = verify("est1", prob, sol)
    check("est1 single-mode ratio 1", lambda: _expect(rep.ratio, 1.0, 1e-9))
    check("est5(k=0) equals est1", lambda: _expect(
        verify("est5", prob, sol, k=0.0).ratio, rep.ratio, 1e-12))

    failures = 0
    for name, ok, msg in checks:
        line = f"[{'PASS' if ok else 'FAIL'}] {name}"
        if not ok:
            line += f"  ({msg})"
            failures += 1
        print(line)
    print(f"selftest: {len(checks) - failures}/{len(checks)} passed")
    return 0 if failures == 0 else 3


def _expect(got: float, want: float, tol: float = 0.0):
    if not abs(got - want) <= tol:
        raise AssertionError(f"got {got!r}, want {want!r} (tol {tol})")


def _assert(cond: bool):
    if not cond:
        raise AssertionError("condition failed")


# -- entry point -------------------------------------------------------------


def _non_finite(text: str):
    raise ValueError(f"number {text} is not finite")


def _finite(parse):
    """``parse`` for JSON number literals, refusing one that overflows a
    float, such as 1e400."""
    def checked(text: str):
        if not math.isfinite(float(text)):
            _non_finite(text)
        return parse(text)
    return checked


def _load_config(path: str) -> dict:
    try:
        with open(path) as fh:
            config = json.load(fh, parse_constant=_non_finite,
                               parse_float=_finite(float),
                               parse_int=_finite(int))
    except (OSError, ValueError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    if not isinstance(config, dict):
        raise ConfigError("config root must be a JSON object")
    return config


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="vww",
        description="spectral wave-equation experiments with singular "
                    "potentials")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", help="JSON config path")
        p.add_argument("--out", help="output directory")
        p.add_argument("--selftest", action="store_true",
                       help="run the built-in closed-form battery and exit")
    args = parser.parse_args(argv)

    if args.selftest:
        return _selftest()
    made, code = False, 0
    try:
        if not args.config or not args.out:
            raise ConfigError("--config and --out are required")
        config = _load_config(args.config)
        validate_config(args.command, config)
        made = not os.path.isdir(args.out)
        os.makedirs(args.out, exist_ok=True)
        _COMMANDS[args.command](config, args.out)
    except ConfigError as exc:
        print(f"vww: config error: {exc}", file=sys.stderr)
        code = 2
    except VwwError as exc:
        print(f"vww: numerical failure: {type(exc).__name__}: {exc}",
              file=sys.stderr)
        code = 3
    except OSError as exc:
        print(f"vww: i/o failure: {exc}", file=sys.stderr)
        code = 4
    # a failed command leaves no empty --out behind that it created itself
    if code and made and os.path.isdir(args.out) and not os.listdir(args.out):
        os.rmdir(args.out)
    return code


if __name__ == "__main__":
    sys.exit(main())
