"""Seeded input generator for the three workloads.

The engine receives only what this module builds: surfaces, classes,
command lines.  Each op carries the outcome the generator predicts for it
(``refusals``, ``must_refuse``) and the facts its check needs (``facts``),
so checking never asks the engine what the answer should be.  The one
exception is the ``classify`` ambient, which must equal the ``analyze``
ambient of the same system; that is computed here, outside the timed loop.

A run is a sequence of passes, and every pass gets fresh inputs: pass k of
seed s is drawn from ``random.Random(f"{s}:{k}")``, so no input is timed
twice by design and a memo cache in the engine is measured only on the
repeats that fresh draws produce.

The mix follows one rule: every op kind of a workload gets the same count
in a pass, and within a kind the group models (or BFS targets, plans,
table sizes, sub-kinds of error line) take turns.  The rule is a choice,
not observed traffic; seeds change the inputs but not the mix.
"""

from __future__ import annotations

import random
from collections import Counter
from dataclasses import dataclass, field, replace
from pathlib import Path

from ellscroll import linsys
from ellscroll.groups import TorusGroup, WeierstrassGroup
from ellscroll.picard import DivisorClass
from ellscroll.surface import Decomposable, Indec0, IndecMinus1, SurfaceDivisorClass

import check

TORUS = TorusGroup(12, 12)
W23 = WeierstrassGroup(23, -1, 0)
W103 = WeierstrassGroup(103, -1, 0)
BFS_TORUS = TorusGroup(4, 4)
CURVE_FLAG = {W23: ["--curve", "23,-1,0"]}

#: Lengths of the minimal plans (criterion 6): dec e -> 2, 1, e; ind0 -> 2; indm1 -> 3.
PLAN_CASES = (
    ("dec", 0, 2), ("dec", 1, 1), ("dec", 2, 2), ("dec", 3, 3),
    ("dec", 4, 4), ("ind0", None, 2), ("indm1", None, 3),
)

GOLDEN_LINES = {
    "analyze.json": ["analyze", "ind0", "2X0+(P(1,0)+P(2,0))f", "--json"],
    "table3.json": ["table", "3", "--json"],
    "elm.json": ["elm", "indm1(O)", "pair{(1,0),(2,0)}", "--json"],
}

#: The README's classify example: |X0 + b f| has base points (deg b = 3 < e + 2 = 4).
README_CLASSIFY = ["classify", "dec(-P(1,0)-P(2,0))", "1X0+(P(1,0)+P(2,0)+P(3,0))f"]


@dataclass
class Op:
    kind: str
    args: tuple
    facts: dict = field(default_factory=dict)
    refusals: tuple = ()
    must_refuse: bool = False
    enumerates: bool = False
    #: The op's class within its kind (group model, BFS target, command).
    tag: str = ""


@dataclass
class Workload:
    name: str
    ops: list
    profile: dict


class Groups:
    """Element lists and 2-torsion of the group models, built once per pass."""

    def __init__(self, groups):
        self.elements = {g: g.elements() for g in groups}
        self.two_torsion = {
            g: [x for x in self.elements[g] if not x.is_zero() and (x + x).is_zero()]
            for g in groups
        }
        self._halves = {}

    def pick(self, rng, g, nonzero=False):
        elems = self.elements[g]
        return elems[rng.randrange(1 if nonzero else 0, len(elems))]

    def halves(self, g, s):
        """Elements r with 2r = s, by brute force over the element list."""
        key = (g, s)
        if key not in self._halves:
            self._halves[key] = [r for r in self.elements[g] if r + r == s]
        return self._halves[key]


# ---------------------------------------------------------------------------
# Criterion-3 grid: e in [-1, 8], deg b in [-3, 14], torsion translates.


def grid_surface(rng, gs, g, e):
    zero = g.zero()
    if e == -1:
        return IndecMinus1(rng.choice((zero, gs.pick(rng, g, nonzero=True))))
    if e == 0 and rng.random() < 0.25:
        return Indec0(g)
    abel = rng.choice((zero, gs.two_torsion[g][0], gs.pick(rng, g, nonzero=True)))
    return Decomposable(DivisorClass(-e, abel))


def grid_case(rng, gs, g, m, e=None, deg_b=None):
    """A surface and a system m*X0 + b*f from the criterion-3 grid."""
    e = rng.randint(-1, 8) if e is None else e
    s = grid_surface(rng, gs, g, e)
    deg_b = rng.randint(-3, 14) if deg_b is None else deg_b
    translates = [g.zero(), (-s.e_class).abel, (-2 * s.e_class).abel, gs.pick(rng, g)]
    if isinstance(s, IndecMinus1):
        translates += gs.halves(g, s.p0 + s.p0)
    b = DivisorClass(deg_b, rng.choice(translates))
    return s, SurfaceDivisorClass(m, b)


def system_facts(s, H):
    deg_e = s.e_class.degree
    facts = {
        "chi": check.euler_characteristic(H.m, H.b.degree, deg_e),
        "hh": check.self_intersection(H.m, H.b.degree, deg_e),
    }
    if H.m <= 2:
        facts["bpf"] = check.oracle_bpf(s, H.m, H.b)
    return facts


def analyze_op(s, H):
    facts = system_facts(s, H)
    if H.m <= 2:
        return Op("analyze", (s, H), facts)
    if isinstance(s, Decomposable):
        # h0 is exact on split surfaces for every m; the engine may answer
        # (checked) or refuse the m >= 3 predicates.
        return Op("analyze", (s, H), facts, refusals=("UnsupportedSecancy",))
    return Op("analyze", (s, H), facts, refusals=("UnsupportedSecancy",), must_refuse=True)


def classify_op(s, H):
    facts = system_facts(s, H)
    if not facts["bpf"]:
        return Op("classify", (s, H.b), facts, refusals=("NotBasePointFree",), must_refuse=True)
    facts["ambient"] = linsys.analyze(s, H).ambient
    return Op("classify", (s, H.b), facts)


# ---------------------------------------------------------------------------
# query: direct library calls.  Only odd-N tables and Weierstrass halvings
# enumerate a group, so this is the workload that bypasses an enumeration
# cache.  Analyze and classify set p50; tables take most of the time and set
# p90 and p99; halvings on Weierstrass(103) come next.


QUERY_GROUPS = (TORUS, W23, W103)
QUERY_KINDS = ("analyze", "classify", "table", "ram", "mincurves")
#: Ops per kind in a pass: 3 models x 38 table sizes, so each (model, N)
#: table comes once a pass.
QUERY_PER_KIND = 114


def build_query(rng) -> Workload:
    gs = Groups(QUERY_GROUPS)
    ops = []
    for kind in QUERY_KINDS:
        for i in range(QUERY_PER_KIND):
            g = QUERY_GROUPS[i % len(QUERY_GROUPS)]
            if kind == "analyze":
                ops.append(analyze_op(*grid_case(rng, gs, g, rng.choice((1, 2, 3)))))
            elif kind == "classify":
                ops.append(classify_op(*grid_case(rng, gs, g, 1)))
            elif kind == "table":
                n = 3 + (i // len(QUERY_GROUPS)) % 38
                # Odd-N tables build a split model from elements()[1].
                ops.append(Op("table", (n, g), {"n": n}, enumerates=n % 2 == 1))
            elif kind == "ram":
                s = IndecMinus1(gs.pick(rng, g))
                t = gs.pick(rng, g)
                ops.append(Op("ram", (s, t), {"halves": frozenset(gs.halves(g, t + s.p0))},
                              enumerates=isinstance(g, WeierstrassGroup)))
            else:
                s = IndecMinus1(gs.pick(rng, g))
                q = gs.pick(rng, g)
                r = q if rng.random() < 0.1 else gs.pick(rng, g)
                ops.append(Op("mincurves", (s, q, r), {"t": q + r - s.p0, "focal": q == r}))
            ops[-1].tag = str(g)
    rng.shuffle(ops)
    return Workload("query", ops, profile(ops, QUERY_GROUPS))


# ---------------------------------------------------------------------------
# walk: resolve_template enumerates the group on every step.  Torus walks
# pay for it; Weierstrass walks, whose enumeration is cached, are the
# contrast.  The BFS drives elm over every point spec and hashes models.


WALK_STEPS = 50
WALK_GROUPS = (TORUS, W23)
#: Ops per kind (walk, bfs, nagata) in a pass: a multiple of the 7 plan
#: cases and the 2 walk models.  Passes a quarter this size gave runs
#: that spread 1.5 times as wide.
WALK_PER_KIND = 56


def walk_starts(g, gs):
    """The six starts of criterion 5; on the Weierstrass model the named
    torus points are replaced by fixed nonzero elements."""
    if g == TORUS:
        a, b, c = g.element(1, 0), g.element(3, 4), g.element(1, 1)
    else:
        a, b, c = gs.elements[g][1], gs.elements[g][3], gs.elements[g][5]
    dec = lambda e, abel: Decomposable(DivisorClass(-e, abel))
    z = g.zero()
    return [dec(0, z), dec(0, a), dec(1, z), dec(2, b), Indec0(g), IndecMinus1(c)]


def build_walk(rng) -> Workload:
    gs = Groups(WALK_GROUPS)
    ops = []
    templates = ("random",) * WALK_STEPS
    starts = {g: walk_starts(g, gs) for g in WALK_GROUPS}
    for i in range(WALK_PER_KIND):
        g = WALK_GROUPS[i % len(WALK_GROUPS)]
        ops.append(Op("walk", (rng.choice(starts[g]), templates, rng.getrandbits(32)),
                      {"steps": WALK_STEPS}, enumerates=True, tag=str(g)))
        # The seven criterion-6 targets are the BFS's whole input space.
        target, e, length = PLAN_CASES[i % len(PLAN_CASES)]
        ops.append(Op("bfs", (target, e, max(3, e or 0), BFS_TORUS), {"length": length},
                      enumerates=True, tag=f"{target}{'' if e is None else e}"))
        g = WALK_GROUPS[(i // len(PLAN_CASES)) % len(WALK_GROUPS)]
        ops.append(Op("nagata", (target, e, g), {"length": length}, enumerates=True, tag=str(g)))
    rng.shuffle(ops)
    return Workload("walk", ops, profile(ops, (*WALK_GROUPS, BFS_TORUS)))


# ---------------------------------------------------------------------------
# cli: the parser and the renderer, with every exit code at a fixed share.


def divisor_text(degree: int, abel) -> str:
    """A signed sum of points with the given degree and group sum."""
    if degree == 0:
        return "0*O" if abel.is_zero() else f"P{abel}-O"
    if degree > 0:
        head, sign, rest = f"P{abel}", "+", degree - 1
    else:
        head, sign, rest = f"-P{-abel}", "-", -degree - 1
    if rest == 0:
        return head
    return head + sign + ("O" if rest == 1 else f"{rest}*O")


def surface_text(s) -> str:
    if isinstance(s, Decomposable):
        return f"dec({divisor_text(s.e_class.degree, s.e_class.abel)})"
    if isinstance(s, Indec0):
        return "ind0"
    return f"indm1({s.p0})"


def system_text(H) -> str:
    return f"{H.m}X0+({divisor_text(H.b.degree, H.b.abel)})f"


CLI_GROUPS = (TORUS, W23)
CLI_COMMANDS = ("analyze", "classify", "elm", "walk", "table", "nagata", "mincurves", "ram")
#: Line classes besides the eight commands, each as many lines as a command:
#: golden lines (exit 0), engine refusals (exit 1), semantic errors and
#: malformed lines (exit 2).
CLI_ERROR_CLASSES = ("golden", "refusal", "semantic", "malformed")
#: Lines per class in a pass, 12 classes in all: 2 models x 38 table sizes,
#: so each (model, N) table comes once a pass.
CLI_PER_CLASS = 76


def with_json(i: int) -> bool:
    """Exactly two lines in five of each kind carry ``--json``."""
    return i % 5 < 2


def malformed_lines(rng, p):
    """Lines the parser must reject (ParseError, exit 2)."""
    return [
        ["table"],
        [],
        ["analyze", "dec(", "1X0+(O)f"],
        ["frobnicate", "ind0"],
        ["table", "x"],
        ["elm", "ind0", f"gen@{p}", "extra"],
        ["analyze", "ind0", f"2X0+(P{p}%)f"],
        ["table", str(rng.randint(3, 40)), "--group"],
        ["table", str(rng.randint(3, 40)), "--bogus"],
        ["ram", "indm1(O)"],
        ["table", "5", "--group", "0,0"],
    ]


def semantic_lines(rng, p, q):
    """Well-formed lines that are inconsistent (SemanticError, exit 2)."""
    return [
        ["elm", "ind0", f"pair{{{p},{q}}}"],
        ["elm", "ind0", f"onX1@{p}"],
        ["elm", "dec(0*O)", f"pair{{{p},{q}}}"],
        ["table", str(rng.randint(0, 2))],
        ["ram", "ind0", str(p)],
        ["classify", "ind0", f"2X0+(P{p})f"],
        ["analyze", f"dec(P{p})", "1X0+(O)f"],
        ["mincurves", "ind0", f"pair{{{p},{q}}}"],
        ["nagata", "dec"],
        ["ram", "indm1((1,1))", "O", "--curve", "23,-1,0"],
    ]


def cli_line(rng, gs, command, i):
    """The i-th valid line of a command and the facts its output must satisfy.

    The index fixes the group model, the table size, the walk length and
    the plan, so every seed has the same mix; the seed draws the rest.
    """
    g = CLI_GROUPS[i % len(CLI_GROUPS)]
    k = i // len(CLI_GROUPS)
    pick = lambda: gs.pick(rng, g)
    facts = {"command": command, "exit": 0}
    if command == "analyze":
        s, H = grid_case(rng, gs, g, rng.choice((1, 2)))
        argv = ["analyze", surface_text(s), system_text(H)]
        facts.update(system_facts(s, H))
    elif command == "classify":
        s, H = grid_case(rng, gs, g, 1)
        while not check.oracle_bpf(s, 1, H.b):
            s, H = grid_case(rng, gs, g, 1)
        argv = ["classify", surface_text(s), system_text(H)]
        facts.update(system_facts(s, H), ambient=linsys.analyze(s, H).ambient)
    elif command == "elm":
        s = grid_surface(rng, gs, g, rng.choice((-1, 0, 0, 1, 2, 3)))
        if isinstance(s, IndecMinus1):
            spec = f"pair{{{pick()},{pick()}}}"
        else:
            kinds = ("onX0", "onX1", "gen") if isinstance(s, Decomposable) else ("onX0", "gen")
            spec = f"{rng.choice(kinds)}@{pick()}"
        argv = ["elm", surface_text(s), spec]
    elif command == "walk":
        # Only these two templates apply on every family a walk can reach.
        s = rng.choice(walk_starts(g, gs))
        steps = [rng.choice(("random", "generic")) for _ in range(1 + k % 20)]
        argv = ["walk", surface_text(s), *steps, "--seed", str(rng.randint(0, 999))]
        facts["steps"] = len(steps)
    elif command == "table":
        n = 3 + k % 38
        argv = ["table", str(n)]
        facts["n"] = n
    elif command == "nagata":
        target, e, length = PLAN_CASES[k % len(PLAN_CASES)]
        argv = ["nagata", target] + ([] if e is None else [str(e)])
        if i % 4 < 2:
            argv.append("--verify")
        facts["length"] = length
    elif command == "mincurves":
        q = pick()
        r = q if rng.random() < 0.2 else pick()
        argv = ["mincurves", f"indm1({pick()})", f"pair{{{q},{r}}}"]
        facts["focal"] = q == r
    else:
        p0, t = pick(), pick()
        argv = ["ram", f"indm1({p0})", str(t)]
        facts["halves"] = sorted(str(r) for r in gs.halves(g, t + p0))
    if with_json(i):
        argv.append("--json")
    facts["json"] = with_json(i)
    return argv + CURVE_FLAG.get(g, []), facts, g


def cli_enumerates(argv, g):
    """Whether the line makes the engine enumerate a group: walks and plans
    pick elements, odd tables and Weierstrass halvings list them."""
    command = argv[0]
    if command in ("walk", "nagata"):
        return True
    if command == "table":
        return int(argv[1]) % 2 == 1
    return command == "ram" and isinstance(g, WeierstrassGroup)


def error_op(argv, exit_code, error, i):
    if with_json(i):
        argv = argv + ["--json"]
    facts = {"command": argv[0] if argv else "", "exit": exit_code, "error": error,
             "json": "--json" in argv}
    return Op("cli", (argv,), facts, tag=error)


def refusal_line(rng, gs, i):
    """The i-th exit-1 line: the four refusal kinds take turns."""
    g = CLI_GROUPS[(i // 4) % len(CLI_GROUPS)]
    kind = i % 4
    if kind == 0:
        s, H = grid_case(rng, gs, g, 3, e=rng.choice((-1, 0)))
        if isinstance(s, Decomposable):
            s = Indec0(g)
        argv = ["analyze", surface_text(s), system_text(H)] + CURVE_FLAG.get(g, [])
        return error_op(argv, 1, "UnsupportedSecancy", i)
    if kind == 1:
        s, H = grid_case(rng, gs, g, 1)
        while check.oracle_bpf(s, 1, H.b):
            s, H = grid_case(rng, gs, g, 1)
        argv = ["classify", surface_text(s), system_text(H)] + CURVE_FLAG.get(g, [])
        return error_op(argv, 1, "NotBasePointFree", i)
    if kind == 2:
        return error_op(README_CLASSIFY, 1, "NotBasePointFree", i)
    argv = ["walk", f"indm1({gs.pick(rng, TORUS)})", "onX0"]
    return error_op(argv, 1, "InvalidPointSpec", i)


def build_cli(rng, golden_dir: Path) -> Workload:
    gs = Groups(CLI_GROUPS)
    goldens = [(argv, (golden_dir / name).read_text()) for name, argv in GOLDEN_LINES.items()]
    ops = []
    for command in CLI_COMMANDS:
        for i in range(CLI_PER_CLASS):
            argv, facts, g = cli_line(rng, gs, command, i)
            ops.append(Op("cli", (argv,), facts, enumerates=cli_enumerates(argv, g), tag=command))
    for i in range(CLI_PER_CLASS):
        argv, golden = goldens[i % len(goldens)]
        facts = {"command": argv[0], "exit": 0, "json": True, "golden": golden}
        ops.append(Op("cli", (argv,), facts, tag="golden"))
        ops.append(refusal_line(rng, gs, i))
        p, q = gs.pick(rng, TORUS, nonzero=True), gs.pick(rng, TORUS)
        lines = semantic_lines(rng, p, q)
        ops.append(error_op(lines[i % len(lines)], 2, "SemanticError", i))
        lines = malformed_lines(rng, gs.pick(rng, TORUS))
        ops.append(error_op(lines[i % len(lines)], 2, "ParseError", i))
    rng.shuffle(ops)
    return Workload("cli", ops, profile(ops, CLI_GROUPS))


#: ``cli --trace 1`` also launches this many of its lines as fresh
#: interpreters, for the process layer.
LAUNCH_SAMPLE = 24


def as_launches(cli_ops) -> list:
    """``cli`` ops to run as fresh interpreters, each with the in-process
    output it must reproduce byte for byte."""
    launches = []
    for op in cli_ops:
        code, out, err = check.run_cli(op.args[0])
        launches.append(replace(op, kind="launch", facts=dict(op.facts, stdout=out, stderr=err)))
    return launches


def build(name: str, seed: int, root: Path, pass_index: int = 0) -> Workload:
    """The inputs of one pass of a workload."""
    rng = random.Random(f"{seed}:{pass_index}")
    if name == "query":
        return build_query(rng)
    if name == "walk":
        return build_walk(rng)
    return build_cli(rng, root / "tests" / "golden")


# ---------------------------------------------------------------------------
# Input properties that claims about a workload must cite


def profile(ops, groups) -> dict:
    n = len(ops)
    share = lambda count: round(count / n, 4)
    out = {
        "ops": n,
        "groups": {str(g): g.order() for g in groups},
        "enumerating_share": share(sum(op.enumerates for op in ops)),
        "predicted_refusal_share": share(sum(
            bool(op.refusals) or op.facts.get("exit") == 1 for op in ops
        )),
        "mix": dict(sorted(Counter(
            op.facts.get("error") or op.facts.get("command") or op.kind for op in ops
        ).items())),
    }
    if ops[0].kind == "cli":
        exits = Counter(op.facts["exit"] for op in ops)
        out["exit_code_share"] = {str(k): share(v) for k, v in sorted(exits.items())}
        out["json_share"] = share(sum(op.facts["json"] for op in ops))
        out["golden_share"] = share(sum("golden" in op.facts for op in ops))
    return out
