"""Executors, oracles and per-op correctness checks for the benchmark.

The oracles here are transcribed from the paper's tables and from
Riemann-Roch on a ruled surface over a genus-1 curve; they do not call
``linsys``.  Every check compares an engine answer with such an oracle or
with a structural fact the generator knows by construction (a table lands
in P^N, a walk moves e by exactly one, a golden file matches byte for byte).

Executors look the engine functions up as module attributes at call time,
so the tracing wrappers in ``spans.py`` see every call.
"""

from __future__ import annotations

import io
import json
from contextlib import redirect_stderr, redirect_stdout

from ellscroll import classify, cli, elmtrans, linsys, surface
from ellscroll.elmtrans import ALL_RULES
from ellscroll.errors import EngineError
from ellscroll.surface import Decomposable, Indec0, IndecMinus1

FAMILIES = ("dec", "ind0", "indm1")


# ---------------------------------------------------------------------------
# Oracles


def self_intersection(m: int, deg_b: int, deg_e: int) -> int:
    """H.H for H = m*X0 + b*f, with X0.X0 = deg(e_class) and X0.f = 1."""
    return m * m * deg_e + 2 * m * deg_b


def euler_characteristic(m: int, deg_b: int, deg_e: int) -> int:
    """chi(H) = (H.H - H.K) / 2 with K = -2*X0 + deg(e_class)*f, chi(O) = 0."""
    h_dot_k = -2 * m * deg_e + m * deg_e - 2 * deg_b
    return (self_intersection(m, deg_b, deg_e) - h_dot_k) // 2


def oracle_bpf(s, m: int, b) -> bool:
    """Base-point-freeness of |m*X0 + b*f| for m in {1, 2}, from the tables."""
    e = -s.e_class.degree
    deg_b = b.degree
    if isinstance(s, Decomposable):
        trivial_e = s.e_class.is_trivial()
        if m == 1:
            if trivial_e:
                return b.is_trivial() or deg_b >= 2
            return (b == -s.e_class and e >= 2) or deg_b >= e + 2
        if e > 0:
            return b == -2 * s.e_class or deg_b >= 2 * e + 2
        if trivial_e:
            return b.is_trivial() or deg_b >= 2
        return (b.is_trivial() and (2 * s.e_class).is_trivial()) or deg_b >= 2
    if m == 1:
        return deg_b >= 2 + e
    return deg_b >= 2 if isinstance(s, Indec0) else deg_b >= 0


def table_rows(n: int) -> int:
    """Number of scroll models in P^N."""
    if n == 3:
        return 4
    return (n + 5) // 2 if n % 2 else (n + 2) // 2


# ---------------------------------------------------------------------------
# Executors


def _mincurves(s, q, r):
    x = surface.tau(s, q, r)
    return x, surface.min_curves_through(s, x)


def _nagata(target, e, group):
    plan = classify.nagata_plan(target, e, group)
    return plan, classify.verify_plan(plan, group)


def run_cli(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli.main(list(argv))
    return code, out.getvalue(), err.getvalue()


EXECUTORS = {
    "analyze": lambda s, H: linsys.analyze(s, H),
    "classify": lambda s, b: classify.classify_scroll(s, b),
    "table": lambda n, group: classify.emit_table(n, group),
    "ram": lambda s, t: surface.ramification_points(s, t),
    "mincurves": _mincurves,
    "walk": lambda s, templates, seed: elmtrans.walk(s, templates, rng_seed=seed),
    "bfs": lambda target, e, max_len, group: classify.minimality_check(
        target, e, max_len=max_len, group=group
    ),
    "nagata": _nagata,
    "cli": run_cli,
}


# ---------------------------------------------------------------------------
# Checks: each returns True when the answer is right.


def _check_analyze(f, a) -> bool:
    ok = (
        a.h0 - a.h1 == f["chi"]
        and a.degree == f["hh"]
        and (not a.very_ample or a.bpf)
        and a.ambient == (a.h0 - 1 if a.h0 >= 1 else None)
    )
    return ok and (f.get("bpf") is None or a.bpf == f["bpf"])


def _check_classify(f, row) -> bool:
    if row.ambient != f["ambient"]:
        return False
    return row.map_degree is None or row.map_degree * row.scroll_degree == f["hh"]


def _check_table(f, rows) -> bool:
    n = f["n"]
    if len(rows) != table_rows(n) or any(r.ambient != n for r in rows):
        return False
    *rest, cone = rows
    if (cone.model_tag, cone.speciality, cone.scroll_degree) != ("Cone", 1, n):
        return False
    return all(
        r.speciality == 0 and r.map_degree * r.scroll_degree == n + 1
        for r in rest
    )


def _check_ram(f, points) -> bool:
    return points == f["halves"]


def _check_mincurves(f, out) -> bool:
    x, curves = out
    return (
        x.t == f["t"]
        and x.is_focal() == f["focal"]
        and len(curves) == (1 if f["focal"] else 2)
    )


def _check_walk(f, result) -> bool:
    if len(result.steps) != f["steps"] or len(result.trajectory) != f["steps"] + 1:
        return False
    for before, step in zip(result.trajectory, result.steps):
        out = step.model
        if not isinstance(out, (Decomposable, Indec0, IndecMinus1)):
            return False
        if isinstance(out, Decomposable) and out.e_class.degree > 0:
            return False
        if abs(out.e_class.degree - before.e_class.degree) != 1:
            return False
        if step.rule not in ALL_RULES:
            return False
    return True


def _check_nagata(f, out) -> bool:
    plan, verified = out
    return plan.length == f["length"] and verified is True


def _text_payload(text: str) -> dict:
    """Read the CLI's ``key = value`` text rendering back into a dict."""
    payload = {}
    for line in text.splitlines():
        key, sep, value = line.partition(" = ")
        if not sep:
            raise ValueError(f"not a key = value line: {line!r}")
        literals = {"True": True, "False": False, "None": None}
        if value in literals:
            payload[key] = literals[value]
        else:
            try:
                payload[key] = json.loads(value)
            except ValueError:
                payload[key] = value
    return payload


def _check_cli_payload(f, out: str) -> bool:
    command = f["command"]
    if command == "table" and not f["json"]:
        lines = out.rstrip("\n").split("\n")
        return lines[0] == f"Scrolls in P^{f['n']}" and len(lines) == table_rows(f["n"]) + 3
    payload = json.loads(out) if f["json"] else _text_payload(out.rstrip("\n"))
    if command == "table":
        return len(payload) == table_rows(f["n"]) and all(
            row["ambient"] == f["n"] for row in payload
        )
    if command == "analyze":
        p = payload
        return (
            p["h0"] - p["h1"] == f["chi"]
            and p["degree"] == f["hh"]
            and p["bpf"] == f["bpf"]
            and (not p["very_ample"] or p["bpf"])
        )
    if command == "classify":
        p = payload
        return p["ambient"] == f["ambient"] and (
            p["map_degree"] is None or p["map_degree"] * p["scroll_degree"] == f["hh"]
        )
    if command == "elm":
        return payload["rule"] in ALL_RULES and payload["result"]["family"] in FAMILIES
    if command == "walk":
        return len(payload["steps"]) == f["steps"] and all(
            s["rule"] in ALL_RULES and s["family"] in FAMILIES for s in payload["steps"]
        )
    if command == "nagata":
        return payload["length"] == f["length"] and payload.get("verified", True) is True
    if command == "mincurves":
        return len(payload["min_curves"]) == (1 if f["focal"] else 2)
    if command == "ram":
        return sorted(payload["ramification_points"]) == f["halves"]
    raise ValueError(f"no check for command {command!r}")


def _check_cli(f, out) -> bool:
    code, stdout, stderr = out
    if code != f["exit"]:
        return False
    if "stdout" in f and (stdout, stderr) != (f["stdout"], f["stderr"]):
        return False
    if code != 0:
        if not stderr.startswith(f"{f['error']}: ") or stderr.count("\n") != 1:
            return False
        return not f["json"] or json.loads(stdout)["error"] == f["error"]
    if stderr:
        return False
    if "golden" in f:
        return stdout == f["golden"]
    return _check_cli_payload(f, stdout)


CHECKS = {
    "analyze": _check_analyze,
    "classify": _check_classify,
    "table": _check_table,
    "ram": _check_ram,
    "mincurves": _check_mincurves,
    "walk": _check_walk,
    "bfs": lambda f, depth: depth == f["length"],
    "nagata": _check_nagata,
    "cli": _check_cli,
    "launch": _check_cli,
}


def check(op, out, err) -> bool:
    """True when the op's outcome is what the generator predicted.

    A typed refusal is correct only when its code is among the op's
    predicted refusals; an untyped exception is always a failure.
    """
    if err is not None:
        return isinstance(err, EngineError) and err.code in op.refusals
    if op.must_refuse:
        return False
    try:
        return CHECKS[op.kind](op.facts, out)
    except (AttributeError, IndexError, KeyError, TypeError, ValueError):
        return False
