"""Spans around the engine's public functions, and the per-layer metrics.

A :class:`Tracer` replaces each wrapped function at every place its name is
looked up: ``from .x import y`` binds ``y`` in the importing module when it
is imported, so patching only the defining module would lose those spans
without any error.  Methods are patched on both group classes.  Spans are
kept in memory (name, op id, start, end, parent, raised, result size) and
written out once, at the end of a run.

A layer's self time is its span's duration minus the durations of its
direct child spans; the benchmark runs one op at a time in one thread, so
children never overlap.
"""

from __future__ import annotations

import functools
import json
import statistics
import sys
from contextlib import contextmanager
from pathlib import Path
from time import perf_counter_ns

#: (span name, defining module, attribute) of each wrapped function.
FUNCTIONS = (
    ("picard", "ellscroll.picard", "h0"),
    ("picard", "ellscroll.picard", "h1"),
    ("picard", "ellscroll.picard", "class_of"),
    ("surface.ramification_points", "ellscroll.surface", "ramification_points"),
    ("surface.tau", "ellscroll.surface", "tau"),
    ("linsys.analyze", "ellscroll.linsys", "analyze"),
    ("linsys.is_bpf", "ellscroll.linsys", "is_bpf"),
    ("classify.classify_scroll", "ellscroll.classify", "classify_scroll"),
    ("classify.emit_table", "ellscroll.classify", "emit_table"),
    ("classify.minimality_check", "ellscroll.classify", "minimality_check"),
    ("classify.verify_plan", "ellscroll.classify", "verify_plan"),
    ("elmtrans.walk", "ellscroll.elmtrans", "walk"),
    ("elmtrans.resolve_template", "ellscroll.elmtrans", "resolve_template"),
    ("elmtrans.elm", "ellscroll.elmtrans", "elm"),
    ("cli.parse", "ellscroll.cli", "parse"),
    ("cli.run", "ellscroll.cli", "run"),
    ("cli.main", "ellscroll.cli", "main"),
)

#: (span name, method) patched on ``TorusGroup`` and ``WeierstrassGroup``.
METHODS = (("groups.elements", "elements"), ("groups.halvings", "halvings"))

#: Places bound by ``from .x import y`` that a patch must reach.
REQUIRED_SITES = (
    ("ellscroll.classify", "elm"),
    ("ellscroll.classify", "walk"),
    ("ellscroll.cli", "elm"),
    ("ellscroll.cli", "walk"),
    ("ellscroll.cli", "ramification_points"),
    ("ellscroll.cli", "tau"),
    ("ellscroll.cli", "class_of"),
    ("ellscroll.elmtrans", "resolve_template"),
)

#: Every per-layer metric: (name, unit, better, workload, end-to-end metric
#: it should move).  ``BENCHMARK.json`` lists the first three columns.  The
#: last two columns follow where the layer's ops sit in the workload's mix:
#: in ``query`` analyze and classify set p50, tables set p90 and p99 and
#: most of the time; in ``walk`` the BFS and the torus walks hold most of
#: the time, p90 and p99; in ``cli`` walk and table lines set the tail.
LAYER_METRICS = (
    ("groups.elements.calls", "count", "lower", "walk", "ops_per_s, latency_p90_ms"),
    ("groups.elements.self_ms", "ms", "lower", "walk", "ops_per_s, latency_p90_ms"),
    ("groups.elements.built", "count", "lower", "walk", "ops_per_s, latency_p90_ms"),
    ("groups.elements.per_elm_step", "count", "lower", "walk", "ops_per_s, latency_p90_ms"),
    ("groups.halvings.calls", "count", "lower", "query", "ops_per_s"),
    ("groups.halvings.self_ms", "ms", "lower", "query", "ops_per_s"),
    ("picard.calls", "count", "lower", "query", "latency_p50_ms"),
    ("picard.self_ms", "ms", "lower", "query", "latency_p50_ms"),
    ("surface.ramification_points.calls", "count", "lower", "query", "ops_per_s"),
    ("surface.ramification_points.self_ms", "ms", "lower", "query", "ops_per_s"),
    ("surface.tau.calls", "count", "lower", "query", "ops_per_s"),
    ("linsys.analyze.calls", "count", "lower", "query", "latency_p50_ms; cli latency_p50_ms"),
    ("linsys.analyze.self_ms", "ms", "lower", "query", "latency_p50_ms; cli latency_p50_ms"),
    ("linsys.analyze.refused_ratio", "ratio", "lower", "query", "latency_p50_ms; cli latency_p50_ms"),
    ("linsys.is_bpf.calls", "count", "lower", "query", "latency_p50_ms; cli latency_p50_ms"),
    ("classify.classify_scroll.calls", "count", "lower", "query", "latency_p50_ms"),
    ("classify.classify_scroll.self_ms", "ms", "lower", "query", "latency_p50_ms"),
    ("classify.classify_scroll.refused_ratio", "ratio", "lower", "query", "latency_p50_ms"),
    ("classify.emit_table.calls", "count", "lower", "query",
     "ops_per_s, latency_p90_ms, latency_p99_ms; cli latency_p90_ms"),
    ("classify.emit_table.self_ms", "ms", "lower", "query",
     "ops_per_s, latency_p90_ms, latency_p99_ms; cli latency_p90_ms"),
    ("classify.minimality_check.calls", "count", "lower", "walk", "ops_per_s, latency_p90_ms, latency_p99_ms"),
    ("classify.minimality_check.self_ms", "ms", "lower", "walk", "ops_per_s, latency_p90_ms, latency_p99_ms"),
    ("classify.minimality_check.elm_calls", "count", "lower", "walk", "ops_per_s, latency_p90_ms, latency_p99_ms"),
    ("classify.verify_plan.self_ms", "ms", "lower", "walk", "ops_per_s"),
    ("elmtrans.walk.calls", "count", "lower", "walk", "ops_per_s, latency_p90_ms"),
    ("elmtrans.walk.self_ms", "ms", "lower", "walk", "ops_per_s, latency_p90_ms"),
    ("elmtrans.resolve_template.self_ms", "ms", "lower", "walk", "ops_per_s, latency_p90_ms"),
    ("elmtrans.resolve_template.share", "ratio", "lower", "walk", "ops_per_s, latency_p90_ms"),
    ("elmtrans.elm.calls", "count", "lower", "walk", "ops_per_s, latency_p90_ms, latency_p99_ms"),
    ("elmtrans.elm.self_ms", "ms", "lower", "walk", "ops_per_s, latency_p90_ms, latency_p99_ms"),
    ("cli.parse.calls", "count", "lower", "cli", "latency_p50_ms"),
    ("cli.parse.self_ms", "ms", "lower", "cli", "latency_p50_ms"),
    ("cli.parse.p50_us", "us", "lower", "cli", "latency_p50_ms"),
    ("cli.parse.error_ratio", "ratio", "lower", "cli", "latency_p50_ms"),
    ("cli.run.self_ms", "ms", "lower", "cli", "latency_p50_ms, latency_p99_ms"),
    ("cli.main.self_ms", "ms", "lower", "cli", "latency_p50_ms, latency_p99_ms"),
    # Fresh interpreters, launched by ``cli --trace 1``; no gated workload
    # starts interpreters, so these move no end-to-end metric.
    ("process.interpreter_p50_ms", "ms", "lower", "cli --trace 1 launches", "none"),
    ("process.ellscroll_p50_ms", "ms", "lower", "cli --trace 1 launches", "none"),
    ("trace.overhead_ratio", "ratio", "higher", "every workload", "ops_per_s"),
)

NAME, OP, START, END, PARENT, RAISED, SIZE = range(7)


class Tracer:
    """Collects spans; ``installed()`` patches the engine while active."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._op = -1

    def reset(self) -> None:
        self.spans = []

    def wrap(self, name: str, fn, sized: bool = False):
        """``fn`` recording one span per call; a call with no open span
        starts a new op id."""
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer._stack
            if not stack:
                tracer._op += 1
            spans = tracer.spans
            rec = [name, tracer._op, 0, 0, stack[-1] if stack else -1, False, 0]
            stack.append(len(spans))
            spans.append(rec)
            rec[START] = perf_counter_ns()
            try:
                out = fn(*args, **kwargs)
            except BaseException:
                rec[RAISED] = True
                raise
            finally:
                rec[END] = perf_counter_ns()
                stack.pop()
            if sized:
                rec[SIZE] = len(out)
            return out

        return traced

    @contextmanager
    def installed(self):
        """Patch every lookup site of the wrapped functions; restore on exit."""
        from ellscroll.groups import TorusGroup, WeierstrassGroup

        modules = [
            m for n, m in sys.modules.items() if n == "ellscroll" or n.startswith("ellscroll.")
        ]
        patches = []
        for name, module, attr in FUNCTIONS:
            original = getattr(sys.modules[module], attr)
            traced = self.wrap(name, original)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        patches.append((mod, key, original))
                        setattr(mod, key, traced)
        for name, attr in METHODS:
            for cls in (TorusGroup, WeierstrassGroup):
                original = cls.__dict__[attr]
                patches.append((cls, attr, original))
                setattr(cls, attr, self.wrap(name, original, sized=attr == "elements"))
        try:
            yield
        finally:
            for obj, key, original in reversed(patches):
                setattr(obj, key, original)


def self_times(spans) -> list[int]:
    """Self time of each span, in ns: its duration minus its children's."""
    out = [s[END] - s[START] for s in spans]
    for s in spans:
        if s[PARENT] >= 0:
            out[s[PARENT]] -= s[END] - s[START]
    return out


def op_self_totals(spans) -> dict[int, int]:
    """Sum of the self times of all spans of each op, in ns."""
    totals: dict[int, int] = {}
    for s, own in zip(spans, self_times(spans)):
        totals[s[OP]] = totals.get(s[OP], 0) + own
    return totals


def layer_metrics(spans) -> dict[str, float]:
    """The span-derived per-layer metrics of one pass over the op list."""
    own = self_times(spans)
    calls: dict[str, int] = {}
    self_ns: dict[str, int] = {}
    total_ns: dict[str, int] = {}
    raised: dict[str, int] = {}
    built = 0
    bfs_elm = 0
    in_bfs = [False] * len(spans)
    parse_ns = []
    for i, s in enumerate(spans):
        name = s[NAME]
        dur = s[END] - s[START]
        calls[name] = calls.get(name, 0) + 1
        self_ns[name] = self_ns.get(name, 0) + own[i]
        total_ns[name] = total_ns.get(name, 0) + dur
        raised[name] = raised.get(name, 0) + s[RAISED]
        in_bfs[i] = name == "classify.minimality_check" or (s[PARENT] >= 0 and in_bfs[s[PARENT]])
        if name == "groups.elements":
            built += s[SIZE]
        elif name == "elmtrans.elm" and in_bfs[i]:
            bfs_elm += 1
        elif name == "cli.parse":
            parse_ns.append(dur)

    n = lambda name: calls.get(name, 0)
    ms = lambda name: self_ns.get(name, 0) / 1e6
    ratio = lambda num, den: num / den if den else 0.0
    out = {}
    for name in (
        "groups.elements", "groups.halvings", "picard", "surface.ramification_points",
        "linsys.analyze", "classify.classify_scroll", "classify.emit_table",
        "classify.minimality_check", "elmtrans.walk", "elmtrans.elm", "cli.parse",
    ):
        out[f"{name}.calls"] = n(name)
        out[f"{name}.self_ms"] = ms(name)
    for name in ("surface.tau", "linsys.is_bpf"):
        out[f"{name}.calls"] = n(name)
    for name in ("classify.verify_plan", "elmtrans.resolve_template", "cli.run", "cli.main"):
        out[f"{name}.self_ms"] = ms(name)
    out["groups.elements.built"] = built
    out["groups.elements.per_elm_step"] = ratio(built, n("elmtrans.elm"))
    out["linsys.analyze.refused_ratio"] = ratio(raised.get("linsys.analyze", 0), n("linsys.analyze"))
    out["classify.classify_scroll.refused_ratio"] = ratio(
        raised.get("classify.classify_scroll", 0), n("classify.classify_scroll")
    )
    out["classify.minimality_check.elm_calls"] = bfs_elm
    out["elmtrans.resolve_template.share"] = ratio(
        total_ns.get("elmtrans.resolve_template", 0), total_ns.get("elmtrans.walk", 0)
    )
    out["cli.parse.p50_us"] = statistics.median(parse_ns) / 1e3 if parse_ns else 0.0
    out["cli.parse.error_ratio"] = ratio(raised.get("cli.parse", 0), n("cli.parse"))
    return out


def write(path: Path, spans) -> None:
    """One JSON array per line: name, op, start (ns from the first span),
    duration (ns), parent index, raised."""
    path.parent.mkdir(parents=True, exist_ok=True)
    origin = spans[0][START] if spans else 0
    with path.open("w") as fh:
        for s in spans:
            fh.write(json.dumps(
                [s[NAME], s[OP], s[START] - origin, s[END] - s[START], s[PARENT], s[RAISED]]
            ))
            fh.write("\n")
