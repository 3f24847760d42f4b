"""Per-layer tracing of `vww` from outside the package.

The tracer wraps the public functions of each `src/vww` module at the
names their callers look them up (for example `vww.cli.build_basis` and
`vww.veryweak.build_basis`, not `vww.prufer.build_basis`), so the program
itself is unchanged.  Boundaries at op, build, integration and public
function level record spans with parent ids; the right-hand side and nu
callables, called tens of thousands of times per op, only keep a count
and a summed time.  Spans stay in memory until the run ends.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import time
from collections import defaultdict

import vww.cli
import vww.potential
import vww.prufer
import vww.veryweak

from metrics import LAYER_METRICS

# functions wrapped with a span, as (module, attribute, span name)
_SPAN_TARGETS = [
    (vww.cli, "main", "cli.main"),
    (vww.cli, "build_basis", "prufer.build_basis"),
    (vww.veryweak, "build_basis", "prufer.build_basis"),
    (vww.cli, "analyze", "spectral.analyze"),
    (vww.veryweak, "analyze", "spectral.analyze"),
    (vww.cli, "solve_homogeneous", "wave.solve_homogeneous"),
    (vww.veryweak, "solve_homogeneous", "wave.solve_homogeneous"),
    (vww.cli, "solve_forced", "wave.solve_forced"),
    (vww.cli, "analyze_forcing", "wave.analyze_forcing"),
    (vww.cli, "verify", "estimates.verify"),
    (vww.cli, "run_consistency", "veryweak.run_consistency"),
    (vww.cli, "run_existence", "veryweak.run_existence"),
    (vww.cli, "run_uniqueness", "veryweak.run_uniqueness"),
    (vww.potential.MollifiedNu, "__init__", "potential.MollifiedNu"),
]
_POTENTIAL_CLASSES = (vww.potential.NuPrimitive, vww.potential.MollifiedNu,
                      vww.potential.PerturbedNu)


class Span:
    __slots__ = ("id", "parent", "name", "t0", "t1", "error")

    def __init__(self, sid, parent, name):
        self.id, self.parent, self.name = sid, parent, name
        self.t0 = time.perf_counter()
        self.t1 = None
        self.error = None

    @property
    def dur(self) -> float:
        return self.t1 - self.t0

    def to_list(self) -> list:
        return [self.id, self.parent, self.name, self.t0, self.t1, self.error]


class Tracer:
    """Installs the wrappers, records spans and counters, derives metrics."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._saved: list[tuple] = []
        self._op_first_span = 0
        self._nu_depth = 0
        self.counts = defaultdict(float)

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        for owner, attr, name in _SPAN_TARGETS:
            self._patch(owner, attr, self._wrap_span(name, getattr(owner, attr)))
        self._patch(vww.prufer, "integrate_rk45",
                    self._wrap_integrate(vww.prufer.integrate_rk45))
        for cls in _POTENTIAL_CLASSES:
            self._patch(cls, "ode_panels", self._wrap_panels(cls.ode_panels))

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def _patch(self, owner, attr, wrapper) -> None:
        # read from __dict__ so a class attribute is restored as it was
        original = vars(owner)[attr]
        self._saved.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    # -- spans -------------------------------------------------------------

    @contextlib.contextmanager
    def span(self, name: str):
        rec = Span(len(self.spans), self._stack[-1] if self._stack else None,
                   name)
        self.spans.append(rec)
        self._stack.append(rec.id)
        try:
            yield rec
        except BaseException as exc:
            rec.error = type(exc).__name__
            raise
        finally:
            rec.t1 = time.perf_counter()
            self._stack.pop()

    def _wrap_span(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)
        return traced

    def _wrap_integrate(self, fn):
        sig = inspect.signature(fn)
        counts = self.counts

        @functools.wraps(fn)
        def traced(rhs, *args, **kwargs):
            bound = sig.bind(rhs, *args, **kwargs)
            kind = "rootfind" if bound.arguments.get("samples") is None \
                else "sampled"
            rhs_before = counts["rhs_s"]
            with self.span("ode.integrate_rk45") as rec:
                result = fn(self._wrap_rhs(rhs), *args, **kwargs)
            counts["ode.calls"] += 1
            counts[f"ode.steps.{kind}"] += result[2]
            counts[f"ode.self_s.{kind}"] += rec.dur - (counts["rhs_s"]
                                                       - rhs_before)
            if bound.arguments["x0"] == 0.0:
                counts[f"prufer.integrations.{kind}"] += 1
                if kind == "rootfind":
                    counts["prufer.trial_lambdas"] += \
                        bound.arguments["y0"].shape[-1]
            return result
        return traced

    def _wrap_rhs(self, rhs):
        counts = self.counts
        clock = time.perf_counter

        def counted(x, y):
            t = clock()
            try:
                return rhs(x, y)
            finally:
                counts["rhs_s"] += clock() - t
                counts["ode.rhs_evals"] += 1
        return counted

    def _wrap_panels(self, fn):
        @functools.wraps(fn)
        def traced(obj, *args, **kwargs):
            return [(a, b, self._wrap_nu(f)) for a, b, f in fn(obj, *args,
                                                                **kwargs)]
        return traced

    def _wrap_nu(self, nu_fn):
        counts = self.counts
        clock = time.perf_counter

        def counted(x):
            # a PerturbedNu panel calls its base's (also wrapped) panel:
            # count and time only the outermost call
            if self._nu_depth:
                return nu_fn(x)
            self._nu_depth = 1
            t = clock()
            try:
                return nu_fn(x)
            finally:
                counts["potential.nu_s"] += clock() - t
                counts["potential.nu_calls"] += 1
                self._nu_depth = 0
        return counted

    # -- per-op metrics ----------------------------------------------------

    def begin_op(self) -> None:
        self.counts.clear()
        self._op_first_span = len(self.spans)

    def op_metrics(self, bytes_written: int) -> dict:
        """Layer metrics of the op since begin_op()."""
        spans = self.spans[self._op_first_span:]
        child = defaultdict(float)
        for s in spans:
            if s.parent is not None:
                child[s.parent] += s.dur

        def total(prefix):
            sel = [s for s in spans if s.name.startswith(prefix)]
            return len(sel), sum(s.dur for s in sel)

        def self_time(prefix):
            return sum(s.dur - child[s.id] for s in spans
                       if s.name.startswith(prefix))

        c = self.counts
        m = {name: c.get(name, 0.0) for name, _ in LAYER_METRICS}
        m["prufer.builds"], m["prufer.build_s"] = total("prufer.build_basis")
        m["prufer.rhs_self_s"] = c["rhs_s"] - c["potential.nu_s"]
        m["potential.mollify_calls"], m["potential.mollify_s"] = \
            total("potential.MollifiedNu")
        m["cli.calls"] = total("cli.main")[0]
        m["cli.self_s"] = self_time("cli.main")
        m["cli.bytes_written"] = bytes_written
        m["spectral.analyze_calls"], m["spectral.s"] = total("spectral.")
        m["wave.calls"], m["wave.s"] = total("wave.")
        m["estimates.verify_calls"], m["estimates.s"] = total("estimates.")
        m["estimates.verify_failed"] = sum(
            1 for s in spans if s.name == "estimates.verify" and s.error)
        m["veryweak.runs"] = total("veryweak.")[0]
        m["veryweak.self_s"] = self_time("veryweak.")
        return m
