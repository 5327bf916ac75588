"""Self-test of the benchmark harness.

Run from the repository root::

    python3 perfbench/selftest.py

It checks that the generator is deterministic for a seed and gives every
pass fresh inputs, that the checker counts injected wrong answers (a
flipped bpf bit, empty ramification answers, a wrong exit code, an untyped
exception) as failures, that span self times never exceed an op's
wall time and every ``from .x import y`` site is traced, that the
reference kernel scales times without touching the engine, that
``BENCHMARK.json`` lists exactly the metrics the harness prints, and that
the outputs for the default seed match the recorded digest.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
import sys

import run
import spans

#: sha256 of the canonical outputs of one pass over the default seed's ops.
DIGESTS = {
    "query": "98e4db578e78223ed3b9303b98b6444ac49bd0c3ca03680e051eb4a231bb3d13",
    "walk": "56a1029257bbf26976fa6dda0c3d61a561585af8969177f8cc3afe0a9498962a",
    "cli": "8e6b67740e3af40fa88205267ff474fd3a22864060a824db555feab4e1603500",
}
SUBSET = 600


def fresh():
    import gen

    return gen, gen.check


def run_subset(ops, check, dispatch=None):
    tally = run.Tally()
    _, latencies, outcomes = run.run_pass(ops, dispatch or run.make_dispatch(check))
    run.check_pass(ops, outcomes, check, tally)
    return tally, latencies


def test_generator_deterministic():
    gen, _ = fresh()
    for name in run.WORKLOADS:
        build = lambda seed, k=0: [repr(op) for op in gen.build(name, seed, run.ROOT, k).ops]
        first = build(7)
        assert first == build(7), f"{name}: same seed, different inputs"
        assert first != build(8), f"{name}: seeds 7 and 8 give the same inputs"
        assert first != build(7, 1), f"{name}: passes 0 and 1 give the same inputs"
        assert build(7, 1) == build(7, 1), f"{name}: same pass, different inputs"


def test_checker_counts_injected_faults():
    gen, check = fresh()
    from ellscroll import classify, cli, linsys, surface

    ops = gen.build("query", 0, run.ROOT).ops[:SUBSET]
    clean, _ = run_subset(ops, check)
    assert clean.failed == 0, clean.failures

    real_analyze = linsys.analyze

    def flipped(s, H):
        answer = real_analyze(s, H)
        return dataclasses.replace(answer, bpf=not answer.bpf)

    answered = sum(op.kind == "analyze" and op.args[1].m <= 2 for op in ops)
    linsys.analyze = flipped
    try:
        tally, _ = run_subset(ops, check)
    finally:
        linsys.analyze = real_analyze
    assert answered > 0 and tally.failed == answered, (tally.failed, answered)

    real_table = classify.emit_table
    classify.emit_table = lambda n, group: [][n]
    try:
        tally, _ = run_subset(ops, check)
    finally:
        classify.emit_table = real_table
    assert tally.failed == sum(op.kind == "table" for op in ops) > 0

    real_ram = surface.ramification_points
    surface.ramification_points = lambda s, t: frozenset()
    try:
        tally, _ = run_subset(ops, check)
    finally:
        surface.ramification_points = real_ram
    nonempty = sum(op.kind == "ram" and bool(op.facts["halves"]) for op in ops)
    assert tally.failed == nonempty > 0, (tally.failed, nonempty)

    cli_ops = gen.build("cli", 0, run.ROOT).ops[:SUBSET]
    real_main = cli.main
    cli.main = lambda argv: 1 if real_main(argv) == 0 else 0
    try:
        tally, _ = run_subset(cli_ops, check)
    finally:
        cli.main = real_main
    assert tally.failed == tally.attempted == len(cli_ops)


def test_self_times_within_wall_time():
    gen, check = fresh()
    import importlib

    for name, count in (("query", SUBSET), ("walk", 120), ("cli", SUBSET)):
        ops = gen.build(name, 0, run.ROOT).ops[:count]
        tracer = spans.Tracer()
        with tracer.installed():
            for module, attr in spans.REQUIRED_SITES:
                fn = getattr(importlib.import_module(module), attr)
                assert hasattr(fn, "__wrapped__"), f"{module}.{attr} is not traced"
            for cls in (gen.TorusGroup, gen.WeierstrassGroup):
                for _, attr in spans.METHODS:
                    assert hasattr(getattr(cls, attr), "__wrapped__"), f"{cls}.{attr}"
            tally, latencies = run_subset(
                ops, check, tracer.wrap("op", run.make_dispatch(check))
            )
        assert tally.failed == 0, tally.failures
        totals = spans.op_self_totals(tracer.spans)
        assert sorted(totals) == list(range(len(ops)))
        for i, own in totals.items():
            assert 0 <= own <= latencies[i], (name, i, own, latencies[i])
        for module, attr in spans.REQUIRED_SITES:
            fn = getattr(importlib.import_module(module), attr)
            assert not hasattr(fn, "__wrapped__"), f"{module}.{attr} left patched"


def test_benchmark_json_matches_harness():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert [m["name"] for m in spec["end_to_end"]] == list(run.E2E_UNITS)
    assert [m["unit"] for m in spec["end_to_end"]] == list(run.E2E_UNITS.values())
    listed = [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]]
    assert listed == [row[:3] for row in spans.LAYER_METRICS]


def canonical(op, out, err) -> str:
    """A stable text form of one op's outcome."""
    if err is not None:
        return f"!{err.code}"
    kind = op.kind
    if kind in ("analyze", "classify"):
        return json.dumps(out.to_dict(), sort_keys=True)
    if kind == "table":
        return json.dumps([r.to_dict() for r in out], sort_keys=True)
    if kind == "ram":
        return " ".join(sorted(str(p) for p in out))
    if kind == "mincurves":
        x, curves = out
        return f"{x.t} " + " ".join(sorted(str(c.q) for c in curves))
    if kind == "walk":
        return " ".join(s.rule for s in out.steps) + f" {out.trajectory[-1]}"
    if kind == "nagata":
        return json.dumps([out[0].to_dict(), out[1]])
    return json.dumps(out)


def digests() -> dict:
    """sha256 of the outcomes of the first pass of each default-seed run."""
    gen, check = fresh()
    out = {}
    dispatch = run.make_dispatch(check)
    for name in DIGESTS:
        h = hashlib.sha256()
        for op in gen.build(name, run.DEFAULT_SEED, run.ROOT).ops:
            try:
                line = canonical(op, dispatch(op), None)
            except check.EngineError as exc:
                line = canonical(op, None, exc)
            h.update(line.encode() + b"\n")
        out[name] = h.hexdigest()
    return out


def test_reference_scale():
    import reference

    # The kernel measures the machine, not the engine.
    assert not any(name.startswith("ellscroll") for name in vars(reference))
    # A pass measured at half the reference speed counts at half its times.
    half = reference.scale([2 * reference.REFERENCE_MS * 1e6] * 3)
    assert math.isclose(half, 0.5), half
    figures = run.at_reference_speed([(4_000_000, [1_000_000, 3_000_000], half)])
    assert math.isclose(figures["ops_per_s"], 1000), figures
    assert math.isclose(figures["latency_p50_ms"], 0.5), figures


def test_default_seed_digest():
    assert digests() == DIGESTS


def main() -> int:
    sys.path.insert(0, str(run.SRC))
    if "--print-digests" in sys.argv:
        print(json.dumps(digests(), indent=2))
        return 0
    failed = 0
    for name, test in list(globals().items()):
        if name.startswith("test_"):
            try:
                test()
                print(f"ok   {name}")
            except AssertionError as exc:
                failed += 1
                print(f"FAIL {name}: {exc}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
