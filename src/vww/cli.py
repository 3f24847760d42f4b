"""Batch experiment runner.

Usage:
    vww eigs      --config cfg.json --out outdir
    vww solve     --config cfg.json --out outdir
    vww forced    --config cfg.json --out outdir
    vww estimates --config cfg.json --out outdir
    vww veryweak  --config cfg.json --out outdir

Configs are JSON, checked against Draft 2020-12 schemas by a short
in-house walker (no jsonschema import) with unknown keys rejected.  Outputs
are machine-readable: JSON for reports, CSV for bulk numbers, and
whitespace-separated .dat files for log-log plotting.  File writes are
atomic (temp file + rename, with the mode a plain ``open`` gives) and
contain no timestamps, so identical
configs reproduce byte-identical outputs.  Every number written is
finite: a command checks every number of all its files first, and a
non-finite number fails it (exit 3) before any file exists.

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

from . import __version__
from .errors import ConfigError, NonFiniteResult, VwwError
from .grid import Grid, GridFunction
from .potential import PROFILES, SMOOTH_KINDS, NuPrimitive
from .prufer import (DEFAULT_TOL, MAX_TOL, MIN_TOL, basis_csv_rows,
                     basis_to_cache, build_basis)
from .spectral import analyze
from .wave import (WaveProblem, analyze_forcing, check_time_grid,
                   forcing_time_grid, solve_forced, solve_homogeneous)
from .estimates import (ALL_ESTIMATE_IDS, CORE_ESTIMATE_IDS, norms_used,
                        verify)
from .veryweak import (DataNet, VeryWeakExperiment, default_ladder,
                       run_consistency, run_existence, run_uniqueness)

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
    # the fewest even intervals whose nodes hold the second difference's
    # one-sided 4-node stencil
    "grid_n": {"type": "integer", "minimum": 4},
    "n_max": {"type": "integer", "minimum": 1},
    "ode_tol": {"type": "number", "minimum": MIN_TOL, "maximum": MAX_TOL},
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


def _is_type(value, kind: str) -> bool:
    """JSON Schema's type test: a bool is no number, 1.0 is an integer."""
    if kind in ("number", "integer"):
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            return False
        return kind == "number" or isinstance(value, int) or value.is_integer()
    return isinstance(value, {"object": dict, "array": list,
                              "boolean": bool}[kind])


def _schema_errors(schema: dict, value, path: tuple):
    """Yield (path, message) for each way ``value`` breaks ``schema``.

    Only the Draft 2020-12 keywords of ``_SCHEMAS`` are read, with their
    standard meaning: a keyword about objects, arrays or numbers passes a
    value of another type, and an ``if`` holds where its property is
    absent.  Bounds fail as ``value < minimum``, ``value > maximum`` and
    ``value <= exclusiveMinimum``: NaN passes them, and the loader refuses it.
    """
    if "type" in schema and not _is_type(value, schema["type"]):
        yield path, f"{value!r} is not of type {schema['type']!r}"
        return
    if "enum" in schema and value not in schema["enum"]:
        yield path, f"{value!r} is not one of {schema['enum']!r}"
    if "const" in schema and value != schema["const"]:
        yield path, f"{schema['const']!r} was expected"
    if _is_type(value, "number"):
        low, high, above = map(schema.get, ("minimum", "maximum",
                                            "exclusiveMinimum"))
        if low is not None and value < low:
            yield path, f"{value!r} is less than {low!r}"
        if high is not None and value > high:
            yield path, f"{value!r} is greater than {high!r}"
        if above is not None and value <= above:
            yield path, f"{value!r} is not greater than {above!r}"
    if isinstance(value, list):
        if len(value) < schema.get("minItems", 0):
            yield path, f"{value!r} has fewer than {schema['minItems']} items"
        if "maxItems" in schema and len(value) > schema["maxItems"]:
            yield path, f"{value!r} has more than {schema['maxItems']} items"
        if "items" in schema:
            for i, item in enumerate(value):
                yield from _schema_errors(schema["items"], item, (*path, i))
    if isinstance(value, dict):
        props = schema.get("properties", {})
        for key in schema.get("required", ()):
            if key not in value:
                yield path, f"{key!r} is a required property"
        extra = [key for key in value if key not in props]
        if schema.get("additionalProperties") is False and extra:
            yield path, f"unexpected properties {extra!r}"
        for key, sub in props.items():
            if key in value:
                yield from _schema_errors(sub, value[key], (*path, key))
    for sub in schema.get("allOf", ()):
        yield from _schema_errors(sub, value, path)
    if "anyOf" in schema and not any(_holds(sub, value)
                                     for sub in schema["anyOf"]):
        yield path, f"{value!r} is not valid under any of the given schemas"
    if "if" in schema and _holds(schema["if"], value):
        yield from _schema_errors(schema["then"], value, path)


def _holds(schema: dict, value) -> bool:
    return next(_schema_errors(schema, value, ()), None) is None


def validate_config(command: str, config: dict) -> None:
    """Raise ConfigError at the first place, in walk order, where
    ``config`` breaks the command's schema."""
    for path, message in _schema_errors(_SCHEMAS[command], config, ()):
        where = "/".join(str(p) for p in path) or "<root>"
        raise ConfigError(f"config invalid at {where}: {message}")


# -- descriptor builders -----------------------------------------------------


def _build_data(desc: dict, grid: Grid, name: str) -> GridFunction:
    """The data at the grid's nodes.  sine_combo terms that overflow
    together raise NonFiniteResult naming the config field ``name``."""
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
        with np.errstate(over="ignore", invalid="ignore"):
            for pair in params:
                amp, m = float(pair[0]), float(pair[1])
                vals += amp * np.sin(m * math.pi * x)
        if not np.all(np.isfinite(vals)):
            raise NonFiniteResult(f"data {name} is not finite: its "
                                  "sine_combo terms overflow together")
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


# -- output helpers ----------------------------------------------------------


def _atomic_write(path: str, texts) -> None:
    """Write the concatenation of the iterable texts to path through a
    renamed temp file, each text as it is drawn; a failure while drawing
    them leaves no file behind.  The file gets the mode a plain ``open``
    gives, 0o666 less the umask, not the temp file's 0o600."""
    d = os.path.dirname(path) or "."
    fd, tmp = tempfile.mkstemp(dir=d, prefix=".vww-tmp-")
    try:
        with os.fdopen(fd, "w") as fh:
            umask = os.umask(0)  # reading the umask means setting it
            os.umask(umask)
            os.fchmod(fd, 0o666 & ~umask)
            fh.writelines(texts)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _non_finite_field(value, path=()):
    """Path of the first non-finite float in a JSON payload, or None."""
    if isinstance(value, float):
        return None if math.isfinite(value) else path
    items = (value.items() if isinstance(value, dict) else enumerate(value)
             if isinstance(value, (list, tuple)) else ())
    for key, item in items:
        found = _non_finite_field(item, (*path, key))
        if found is not None:
            return found
    return None


def _json_text(payload: dict) -> list:
    try:
        return [json.dumps(payload, indent=2, sort_keys=True,
                           allow_nan=False) + "\n"]
    except ValueError:
        field = "/".join(map(str, _non_finite_field(payload)))
        raise NonFiniteResult(f"field {field} is not finite") from None


def _finite_float(v: float, field: str) -> float:
    if not math.isfinite(v):
        raise NonFiniteResult(f"field {field} is {v!r}")
    return v


def _csv_text(header: tuple, rows, sep: str = ",", prefix: str = "") -> list:
    lines = [prefix + sep.join(header)]
    for row in rows:
        lines.append(sep.join(
            repr(_finite_float(float(v), h)) if isinstance(v, float) else str(v)
            for h, v in zip(header, row)))
    return ["\n".join(lines) + "\n"]


def _dat_text(columns: dict) -> list:
    return _csv_text(tuple(columns), zip(*columns.values()), " ", "# ")


def _write_files(out: str, files: dict) -> None:
    """Write files, name -> (format, *args), into out once every number
    of every one is checked, so a non-finite number refuses the command
    with NonFiniteResult, naming the file and field, before any file
    exists.  A formatter returns its texts, or checks at call time and
    returns a generator that formats them as they are written."""
    texts = {}
    for name, (fmt, *args) in files.items():
        try:
            texts[name] = fmt(*args)
        except NonFiniteResult as exc:
            exc.args = (f"{name}: {exc}",)
            raise
    for name, parts in texts.items():
        _atomic_write(os.path.join(out, name), parts)


def _meta(config: dict) -> dict:
    return {"version": __version__, "config": config}


# -- subcommands -------------------------------------------------------------


def _basis(config: dict):
    return build_basis(NuPrimitive.from_descriptor(config["nu"]),
                       int(config["n_max"]), Grid(int(config["grid_n"])),
                       float(config.get("ode_tol", DEFAULT_TOL)))


def cmd_eigs(config: dict, out: str) -> None:
    basis = _basis(config)
    files = {"eigenvalues.csv": (
        _csv_text, ("n", "lambda", "theta_residual", "tilde_norm", "psi_norm"),
        basis_csv_rows(basis))}
    if config.get("write_cache", True):
        cache = basis_to_cache(
            basis, include_eigenfunctions=config.get("cache_eigenfunctions",
                                                     False))
        files["basis_cache.json"] = (_json_text,
                                     {**cache, "meta": _meta(config)})
    _write_files(out, files)


def _solve_common(config: dict, needs_q_linf: bool = False):
    """Build and solve the problem, forced when the config has a forcing.

    The time grids and the data are checked first, and then, where the
    estimates asked for read ||q||_inf, the potential: one with atoms has
    none and raises ``MissingNorm``.  So none of these failures builds a
    basis; only a forcing time grid of the default step waits for one.
    """
    grid = Grid(int(config["grid_n"]))
    n_times = int(config.get("n_times", 201))
    check_time_grid(n_times, grid)
    T = float(config["T"])
    u0 = _build_data(config["u0"], grid, "u0")
    u1 = _build_data(config["u1"], grid, "u1")
    forcing = config.get("forcing")
    if forcing is not None:
        space = _build_data(forcing["space"], grid, "forcing/space")
        ftimes = forcing_time_grid(T, n_times - 1, grid,
                                   forcing.get("time_steps"))
    if needs_q_linf:
        NuPrimitive.from_descriptor(config["nu"]).check_q_linf()
    basis = _basis(config)
    times = np.linspace(0.0, T, n_times)
    if forcing is not None:
        if ftimes is None:
            ftimes = forcing_time_grid(T, n_times - 1, grid, basis=basis)
        with np.errstate(over="ignore", invalid="ignore"):  # named below
            g = _time_profile(forcing["time"])(ftimes)
        forcing = analyze_forcing(g, space, basis, ftimes)
    problem = WaveProblem(basis, analyze(u0, basis), analyze(u1, basis), T,
                          forcing=forcing)
    sol = solve_forced(problem, times) if forcing is not None \
        else solve_homogeneous(problem, times)
    return problem, sol, times


def _solution_text(times: list, nodes: np.ndarray, values: np.ndarray,
                   dt_values: np.ndarray):
    """Rows t,x,u,u_t for every time and node, byte for byte as
    ``_csv_text`` writes them with ``repr``.

    Every value is checked for finiteness when this is called; the
    returned generator then yields the header, one time's rows at a time
    and a last newline, so the whole file's text never exists at once.
    Each time's text begins with the newline that ends the row before it.

    orjson's shortest-digit writer formats a time's (nodes, 3) table of
    x, u and u_t as one flat list, "[x,u,u_t,x,u,u_t,...]": its bracket
    and every third comma become newlines, and one replace puts
    ``repr(t)`` at the head of every row.  orjson writes the same digits
    as ``repr``, and the same notation where 1e-4 <= |v| < 1e16 or v is
    0; a row holding a value outside that band (``repr`` writes 1e-05 and
    1e+16, orjson 0.00001 and 1e16) is formatted again by ``repr``.
    """
    import orjson

    for field, column in (("t", times), ("u", values), ("u_t", dt_values)):
        if not np.all(np.isfinite(column)):
            raise NonFiniteResult(f"field {field} holds a non-finite value")

    def fixed(v):  # repr writes v without an exponent
        mag = np.abs(v)
        return (mag == 0.0) | ((mag >= 1e-4) & (mag < 1e16))

    def chunks():
        x_fixed = fixed(nodes)
        table = np.empty((len(nodes), 3))
        table[:, 0] = nodes
        yield "t,x,u,u_t"
        for t, us, uts in zip(times, values, dt_values):
            table[:, 1], table[:, 2] = us, uts
            text = bytearray(orjson.dumps(
                table.reshape(-1), option=orjson.OPT_SERIALIZE_NUMPY))
            flat = np.frombuffer(text, np.uint8)
            ends = np.flatnonzero(flat == ord(","))[2::3]
            flat[0] = flat[ends] = ord("\n")
            del flat, text[-1]  # the view first, then the closing bracket
            bad = np.flatnonzero(~(x_fixed & fixed(us) & fixed(uts)))
            if bad.size:
                # row i lies between the newline at ends[i] and ends[i + 1]
                ends = [0, *ends.tolist(), len(text)]
                parts, prev = [], 0
                for i in bad.tolist():
                    parts += [text[prev:ends[i] + 1],
                              ",".join(map(repr, table[i].tolist())).encode()]
                    prev = ends[i + 1]
                parts.append(text[prev:])
                text = b"".join(parts)
            head = b"\n" + repr(float(t)).encode() + b","
            yield text.replace(b"\n", head).decode()
        yield "\n"

    return chunks()


def cmd_solve(config: dict, out: str) -> None:
    """``solve`` and ``forced``: solution.csv and energy.json."""
    _, sol, times = _solve_common(config)
    times = [float(t) for t in times]
    energy = sol.energy_series()
    e0 = float(energy[0]) if energy[0] != 0.0 else 1.0
    with np.errstate(over="ignore", invalid="ignore"):  # for the gate to name
        drift = float(np.ptp(energy) / abs(e0))
    payload = {
        "meta": _meta(config),
        "times": times,
        "energy": [float(v) for v in energy],
        "energy_drift": drift,
        "l2_norms": [float(v) for v in sol.l2_series()],
        "boundary_max": float(max(np.max(np.abs(sol.values[:, 0])),
                                  np.max(np.abs(sol.values[:, -1])))),
    }
    _write_files(out, {
        "solution.csv": (_solution_text, times, sol.basis.grid.nodes,
                         sol.values, sol.dt_values),
        "energy.json": (_json_text, payload)})


def cmd_estimates(config: dict, out: str) -> None:
    ids = config["estimate_ids"]
    if ids == "core":
        ids = list(CORE_ESTIMATE_IDS)
    elif ids == "all":
        ids = list(ALL_ESTIMATE_IDS)
    problem, sol, _ = _solve_common(
        config, needs_q_linf=any("q_linf" in norms_used(i) for i in ids))
    k = float(config.get("k", 0.0))
    inputs = {"config": config}
    lhs, norms = {}, {}
    reports = [verify(i, problem, sol, k=k, inputs=inputs, lhs=lhs,
                      norms=norms) for i in ids]
    _write_files(out, {
        "estimates.json": (_json_text, {
            "meta": _meta(config),
            "reports": [r.to_dict() for r in reports]}),
        "estimates.csv": (
            _csv_text, ("estimate_id", "ratio", "problem_hash"),
            [(r.estimate_id, r.ratio, r.problem_hash) for r in reports])})


# per mode, the net columns: (report field, net.csv norm_kind, loglog.dat column)
_NET_COLUMNS = {
    "existence": (("u_norms", "L2_sup_t", "u_norm"),
                  ("dtu_norms", "dt_L2_sup_t", "dtu_norm"),
                  ("q_linf_norms", "q_Linf", "q_linf")),
    "uniqueness": (("diff_norms", "diff_L2_sup_t", "diff_norm"),),
    "consistency": (("discrepancies", "discrepancy_sup_t", "discrepancy"),),
}


def _given(config: dict, *keys) -> dict:
    """The keys config has, so the library holds every default."""
    return {k: config[k] for k in keys if k in config}


def _data_net(config: dict, name: str, grid: Grid) -> DataNet:
    """The data net ``name``, scaled only where config gives its
    exponent, so DataNet holds the default."""
    key = f"{name}_scale_exponent"
    scale = {"scale_exponent": float(config[key])} if key in config else {}
    return DataNet(_build_data(config[name], grid, name), **scale)


def cmd_veryweak(config: dict, out: str) -> None:
    grid = Grid(int(config["grid_n"]))
    ladder = config["ladder"]
    if isinstance(ladder, dict):
        ladder = default_ladder(int(ladder["k_min"]), int(ladder["k_max"]))
    exp = VeryWeakExperiment(
        nu=NuPrimitive.from_descriptor(config["nu"]),
        u0=_data_net(config, "u0", grid), u1=_data_net(config, "u1", grid),
        ladder=ladder, grid=grid, n_max=int(config["n_max"]),
        T=float(config["T"]),
        **_given(config, "mollifier", "n_times", "ode_tol"),
    )
    mode = config["mode"]
    if mode == "existence":
        rep = run_existence(exp, **_given(config, "declared_order"))
    elif mode == "uniqueness":
        if "order" not in config:
            raise ConfigError("uniqueness mode needs 'order'")
        wp = (NuPrimitive.from_descriptor(config["w_primitive"])
              if "w_primitive" in config else None)
        w0 = _build_data(config["w0"], grid, "w0") if "w0" in config else None
        w1 = _build_data(config["w1"], grid, "w1") if "w1" in config else None
        rep = run_uniqueness(exp, int(config["order"]), w_primitive=wp,
                             w0=w0, w1=w1)
    else:
        rep = run_consistency(exp, **_given(config, "tolerance"))
    columns = _NET_COLUMNS[mode]
    _write_files(out, {
        "report.json": (_json_text, {"meta": _meta(config), "mode": mode,
                                     "report": rep.to_dict()}),
        "net.csv": (_csv_text, ("epsilon", "norm", "norm_kind"),
                    [(eps, v, kind) for name, kind, _ in columns
                     for eps, v in zip(rep.ladder, getattr(rep, name))]),
        "loglog.dat": (_dat_text, {
            "epsilon": rep.ladder,
            **{col: getattr(rep, name) for name, _, col in columns}})})


_COMMANDS = {
    "eigs": cmd_eigs,
    "solve": cmd_solve,
    "forced": cmd_solve,
    "estimates": cmd_estimates,
    "veryweak": cmd_veryweak,
}


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
        p.add_argument("--config", required=True, help="JSON config path")
        p.add_argument("--out", required=True, help="output directory")
    args = parser.parse_args(argv)

    made, code = False, 0
    try:
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
