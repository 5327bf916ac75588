"""ellscroll benchmark: closed-loop workloads, one client at a time.

Usage, from the repository root::

    python3 perfbench/run.py --workload query --seed 0 --seconds 40 --trace 0

Workloads (see ``gen.py`` for the inputs and why each was chosen):

* ``query`` -- direct library calls: analyze, classify_scroll, emit_table,
  ramification points and minimum curves on three group models;
* ``walk``  -- the rule engine: 50-step random walks, the BFS of
  ``minimality_check``, ``nagata_plan`` plus ``verify_plan``;
* ``cli``   -- one command line per op through ``cli.main``, in process.

A run is a sequence of passes until ``--seconds`` have gone by; every pass
has fresh inputs (pass k of seed s is ``gen.build(..., s, ..., k)``; the
set-up warms up on pass 0, the timed passes are 1, 2, ...).  A
pass times each op and its own wall time; the answers are checked after
the pass (``check.py``), outside the timed span.  Other load on a shared
machine slows a whole pass, or a whole run, so every time is given at
the reference speed of ``reference.py``: the reference kernel is timed
before and after each pass and after each set-up, and the times are
scaled by ``REFERENCE_MS`` over the kernel's time.  A pass still holds its
own garbage collections and amortized costs.

With ``--trace 0`` the run prints the end-to-end metrics; with
``--trace 1`` it alternates plain and traced passes and prints the
per-layer metrics (``spans.py``), writing the spans of the first traced
pass under ``.perfbench/``.  The last line of standard output is one JSON
object: ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import resource
import statistics
import subprocess
import sys
from array import array
from collections import Counter
from pathlib import Path
from time import perf_counter, perf_counter_ns

import reference
import spans

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench"

WORKLOADS = ("query", "walk", "cli")
DEFAULT_SEED = 0
#: Set-ups per run, the first in this process and the rest in fresh child
#: processes spread over the run; setup_s is their median.
SETUP_REPEATS = 11
#: Warm-up runs this many ops of each (kind, tag) class, so its cost does
#: not depend on how the seed shuffled the list.
WARMUP_PER_CLASS = 3
#: In the launch sample of ``cli --trace 1``, a bare interpreter follows
#: every BARE_EVERY-th launch.
BARE_EVERY = 4
CHILD_TIMEOUT_S = 60
E2E_UNITS = {
    "setup_s": "s", "ops_per_s": "1/s", "latency_p50_ms": "ms",
    "latency_p90_ms": "ms", "latency_p99_ms": "ms", "peak_rss_mib": "MiB",
}
FAILURES_SHOWN = 5


# ---------------------------------------------------------------------------
# Set-up


def set_up(name: str, seed: int):
    """Import the engine, build pass 0's inputs and warm up on them; returns
    the seconds taken (at the reference speed), the workload and the
    ``gen`` module."""
    start = perf_counter()
    sys.path.insert(0, str(SRC))
    import gen

    workload = gen.build(name, seed, ROOT)
    dispatch = make_dispatch(gen.check)
    taken = Counter()
    for op in workload.ops:
        if taken[op.kind, op.tag] < WARMUP_PER_CLASS:
            taken[op.kind, op.tag] += 1
            try:
                dispatch(op)
            except Exception:  # answers are checked in the timed passes
                pass
    seconds = perf_counter() - start
    return seconds * reference.scale(reference.sample()), workload, gen


class SetUps:
    """Set-up times: the first before the timed loop, the rest in fresh
    processes spread over it, so that a burst of other load on the machine
    reaches few of them and their memory is not this process's."""

    def __init__(self, name: str, seed: int, seconds: float, repeats: int):
        self.name, self.seed, self.seconds, self.repeats = name, seed, seconds, repeats
        self.times: list[float] = []

    def first(self):
        seconds, workload, gen = set_up(self.name, self.seed)
        self.times.append(seconds)
        return workload, gen

    def between(self, elapsed: float) -> None:
        """Set up once more if the loop has passed the next checkpoint."""
        if len(self.times) < self.repeats and elapsed >= len(self.times) * self.seconds / self.repeats:
            code = f"import run; print(run.set_up({self.name!r}, {self.seed})[0])"
            proc = subprocess.run(
                [sys.executable, "-c", code], cwd=Path(__file__).parent,
                capture_output=True, text=True, timeout=CHILD_TIMEOUT_S, check=True,
            )
            self.times.append(float(proc.stdout))


def make_dispatch(check):
    executors = check.EXECUTORS
    return lambda op: executors[op.kind](*op.args)


# ---------------------------------------------------------------------------
# Measurement


def percentile(sorted_values, q: float):
    """Nearest-rank percentile."""
    return sorted_values[max(0, math.ceil(q * len(sorted_values)) - 1)]


def at_reference_speed(passes) -> dict:
    """Figures over every pass; ``passes`` holds (wall time, latencies,
    scale) of each pass, and each of its times is multiplied by its scale."""
    xs = sorted(x * scale for _, latencies, scale in passes for x in latencies)
    wall = sum(wall * scale for wall, _, scale in passes)
    return {
        "ops_per_s": len(xs) / (wall / 1e9),
        "latency_p50_ms": percentile(xs, 0.50) / 1e6,
        "latency_p90_ms": percentile(xs, 0.90) / 1e6,
        "latency_p99_ms": percentile(xs, 0.99) / 1e6,
    }


def medians(rows: list[dict]) -> dict:
    """Per key, the median over the rows."""
    return {key: statistics.median(row[key] for row in rows) for key in rows[0]}


class Tally:
    """Attempted and failed ops, with the first few failures kept for the report."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def record(self, ok: bool, op, out, err) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.failures) < FAILURES_SHOWN:
                self.failures.append(f"{op.kind} {op.args!r:.200} -> {err!r:.200} {out!r:.200}")


def run_pass(ops, dispatch):
    """Run every op once; returns the pass's wall time, each op's latency
    (both in ns) and each op's (answer, exception)."""
    latencies = array("q", bytes(8 * len(ops)))
    outcomes = []
    start = perf_counter_ns()
    for i, op in enumerate(ops):
        t0 = perf_counter_ns()
        try:
            out, err = dispatch(op), None
        except Exception as exc:  # refusals and crashes alike; check() tells them apart
            out, err = None, exc
        latencies[i] = perf_counter_ns() - t0
        outcomes.append((out, err))
    return perf_counter_ns() - start, latencies, outcomes


def check_pass(ops, outcomes, check, tally: Tally) -> None:
    for op, (out, err) in zip(ops, outcomes):
        tally.record(check.check(op, out, err), op, out, err)


def run_passes(name, seed, gen, seconds: float, trace: bool, tally: Tally, setups):
    """Passes with fresh inputs until ``seconds`` have gone by.

    Returns (wall time, latencies, reference scale) of each plain pass and,
    with ``trace``, of each traced pass, the layer metrics of each traced
    pass and the spans of the first.  Only one pass's inputs and answers
    are alive at a time.
    """
    dispatch = make_dispatch(gen.check)
    tracer = spans.Tracer()
    traced_dispatch = tracer.wrap("op", dispatch)
    plain, traced, layers = [], [], []
    first_spans = None
    k = 1  # pass 0 is the set-up's warm-up
    start = perf_counter()
    while not plain or (trace and not traced) or perf_counter() - start < seconds:
        ops = gen.build(name, seed, ROOT, k).ops
        gc.collect()
        before = reference.sample()
        if trace and k % 2 == 0:
            tracer.reset()
            with tracer.installed():
                wall, latencies, outcomes = run_pass(ops, traced_dispatch)
            traced.append((wall, latencies, reference.scale(before + reference.sample())))
            layers.append(spans.layer_metrics(tracer.spans))
            if first_spans is None:
                first_spans = tracer.spans
        else:
            wall, latencies, outcomes = run_pass(ops, dispatch)
            plain.append((wall, latencies, reference.scale(before + reference.sample())))
        check_pass(ops, outcomes, gen.check, tally)
        ops = outcomes = None
        k += 1
        setups.between(perf_counter() - start)
    return plain, traced, layers, first_spans


def child_env() -> dict:
    """The environment the tests run the package in: ``src`` on PYTHONPATH."""
    env = dict(os.environ)
    extra = env.get("PYTHONPATH")
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + extra if extra else "")
    return env


def launch(argv, env):
    proc = subprocess.run(
        [sys.executable, "-m", "ellscroll.cli", *argv],
        env=env, cwd=ROOT, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S,
    )
    return proc.returncode, proc.stdout, proc.stderr


def launch_bare(env):
    subprocess.run(
        [sys.executable, "-c", "pass"],
        env=env, cwd=ROOT, capture_output=True, timeout=CHILD_TIMEOUT_S, check=True,
    )


def run_launches(ops, check, tally: Tally):
    """Each op once as a fresh ``python -m ellscroll.cli``, one at a time,
    with a bare interpreter after every BARE_EVERY-th; returns the launch
    and bare-interpreter times in ns."""
    env = child_env()
    launches, bares = [], []
    for i, op in enumerate(ops):
        t0 = perf_counter_ns()
        try:
            out, err = launch(op.args[0], env), None
        except subprocess.SubprocessError as exc:
            out, err = None, exc
        launches.append(perf_counter_ns() - t0)
        tally.record(check.check(op, out, err), op, out, err)
        if i % BARE_EVERY == BARE_EVERY - 1:
            t0 = perf_counter_ns()
            launch_bare(env)
            bares.append(perf_counter_ns() - t0)
    return launches, bares


def peak_rss_mib() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


# ---------------------------------------------------------------------------
# Report


def show(name: str, value, unit: str, note: str = "") -> None:
    print(f"{name} = {value:.6g} {unit}" + (f"  ({note})" if note else ""))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "ellscroll" / "__init__.py").is_file():
        print(f"error: no ellscroll package under {SRC}", file=sys.stderr)
        return 2
    name, trace = args.workload, bool(args.trace)

    # A traced run reports no set-up time and takes one set-up.
    setups = SetUps(name, args.seed, args.seconds, 1 if trace else SETUP_REPEATS)
    workload, gen = setups.first()
    check = gen.check

    print(f"ellscroll benchmark: workload={name} seed={args.seed} "
          f"seconds={args.seconds:g} trace={int(trace)}")
    print(f"inputs: {json.dumps(workload.profile, sort_keys=True)}")
    n_ops = len(workload.ops)
    del workload  # every pass builds its own inputs
    tally = Tally()
    plain, traced, layers, traced_spans = run_passes(
        name, args.seed, gen, args.seconds, trace, tally, setups
    )
    rss = peak_rss_mib()  # before the pooled latencies are built
    e2e = at_reference_speed(plain)
    e2e["peak_rss_mib"] = rss
    e2e["setup_s"] = statistics.median(setups.times)
    if trace:
        # Counts come from the first traced pass, so they repeat exactly
        # for a seed; times are medians over the traced passes.
        layer = medians(layers)
        layer.update((key, layers[0][key]) for key, unit, *_ in spans.LAYER_METRICS
                     if unit == "count")
        layer["trace.overhead_ratio"] = at_reference_speed(traced)["ops_per_s"] / e2e["ops_per_s"]
        layer["process.interpreter_p50_ms"] = layer["process.ellscroll_p50_ms"] = 0.0
        if name == "cli":
            # The process layer: a sample of the lines as fresh interpreters.
            sample = gen.as_launches(gen.build(name, args.seed, ROOT).ops[:gen.LAUNCH_SAMPLE])
            launches, bares = run_launches(sample, check, tally)
            interpreter = statistics.median(bares) / 1e6
            layer["process.interpreter_p50_ms"] = interpreter
            layer["process.ellscroll_p50_ms"] = statistics.median(launches) / 1e6 - interpreter
        path = OUT_DIR / f"spans-{name}-seed{args.seed}.jsonl"
        spans.write(path, traced_spans)
        print(f"spans: {len(traced_spans)} written to {path.relative_to(ROOT)}")

    samples = n_ops * len(plain)
    beyond = lambda q: samples - math.ceil(q * samples)
    rates = sorted(n_ops / (wall / 1e9) for wall, *_ in plain)
    scales = sorted(scale for *_, scale in plain)
    show("setup_s", e2e["setup_s"], "s", f"median of {len(setups.times)} set-ups")
    show("ops_per_s", e2e["ops_per_s"], "1/s",
         f"{len(plain)} passes of {n_ops} fresh ops; measured pass rates from "
         f"{rates[0]:.6g} to {rates[-1]:.6g}, median {statistics.median(rates):.6g}")
    show("reference_scale", statistics.median(scales), "ratio",
         f"median over the passes, from {scales[0]:.4g} to {scales[-1]:.4g}; "
         f"{reference.REFERENCE_MS} ms over the kernel's measured time")
    show("latency_p50_ms", e2e["latency_p50_ms"], "ms", f"n={samples}")
    show("latency_p90_ms", e2e["latency_p90_ms"], "ms", f"{beyond(0.9)} samples beyond")
    show("latency_p99_ms", e2e["latency_p99_ms"], "ms", f"{beyond(0.99)} samples beyond")
    show("failed_ratio", tally.failed / max(tally.attempted, 1), "ratio",
         f"{tally.failed} of {tally.attempted}")
    show("peak_rss_mib", e2e["peak_rss_mib"], "MiB", "benchmark process")
    for line in tally.failures:
        print(f"FAILED {line}", file=sys.stderr)

    if trace:
        for key, unit, _, moves_workload, moves_metric in spans.LAYER_METRICS:
            show(key, layer[key], unit, f"should move {moves_workload}: {moves_metric}")
        metrics = {key: {"value": layer[key], "unit": unit}
                   for key, unit, *_ in spans.LAYER_METRICS}
    else:
        metrics = {key: {"value": e2e[key], "unit": unit} for key, unit in E2E_UNITS.items()}
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
