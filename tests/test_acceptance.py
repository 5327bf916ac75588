"""Acceptance gate: the nine binding criteria, one printed line each.

Every test prints exactly one ``[PASS]``/``[FAIL]`` line for its criterion
(run pytest with ``-s`` or read captured output) and fails loudly on any
mismatch.  Expected values were derived independently (by hand or by the
literal transcriptions embedded here) before being frozen.
"""

import itertools
import json
import pathlib
import random
import time
from contextlib import contextmanager

import pytest
from test_linsys import h1_surface

from ellscroll import linsys
from ellscroll.classify import (
    classify_scroll,
    emit_table,
    minimality_check,
    nagata_plan,
    verify_plan,
)
from ellscroll.cli import main, parse, run
from ellscroll.elmtrans import ALL_RULES, elm, walk
from ellscroll.groups import default_group
from ellscroll.picard import DivisorClass, point_class
from ellscroll.surface import (
    Decomposable,
    Indec0,
    IndecMinus1,
    SurfaceDivisorClass,
    genus_adjunction,
    intersect,
    min_curves_through,
    ramification_points,
    tau,
)

G = default_group()
O = G.zero()


@contextmanager
def criterion(number: int, label: str):
    try:
        yield
    except BaseException:
        print(f"[FAIL] criterion {number}: {label}")
        raise
    print(f"[PASS] criterion {number}: {label}")


def dec(e, abel=None):
    return Decomposable(DivisorClass(-e, abel if abel is not None else O))


def shape(row):
    return (
        row.model_tag, row.e, row.deg_b, row.scroll_degree, row.speciality,
        row.singular_locus,
        row.generation.to_dict() if row.generation else None,
        [(f.system, f.min_deg_a) for f in row.families],
    )


def test_criterion_1_tables():
    with criterion(1, "table reproduction for N in {3,4,5,6,7} under 1 s each"):
        gen = lambda l, r, c, u: {
            "left_degree": l, "right_degree": r,
            "correspondence": c, "united_points": u,
        }
        expected = {
            3: [
                ("Ind0Quartic", 0, 2, 4, 0, "DoubleLine",
                 gen(1, 3, "1:2", 1), [("X0", None), ("X0+af", 1)]),
                ("DoubleQuadric", 0, 2, 2, 0, "Empty",
                 gen(1, 1, "1:1", 0), []),
                ("DecScrollTwoLines", 0, 2, 4, 0, "TwoDisjointLines",
                 gen(1, 1, "2:2", 0),
                 [("X0", None), ("X1", None), ("X0+af", 1)]),
                ("Cone", 3, 3, 3, 1, "Vertex", None,
                 [("X0", None), ("X1", None), ("X0+af", 4)]),
            ],
            4: [
                ("IndM1Smooth", -1, 2, 5, 0, "Empty",
                 gen(3, 3, "1:1", 1), [("X0+af", 0)]),
                ("DecScrollDirectrixLine", 1, 3, 5, 0, "DirectrixLine",
                 gen(1, 3, "1:2", 0),
                 [("X0", None), ("X1", None), ("X0+af", 2)]),
                ("Cone", 4, 4, 4, 1, "Vertex", None,
                 [("X0", None), ("X1", None), ("X0+af", 5)]),
            ],
            5: [
                ("Ind0Smooth", 0, 3, 6, 0, "Empty",
                 gen(3, 4, "1:1", 1), [("X0", None), ("X0+af", 1)]),
                ("DecScrollSmooth", 0, 3, 6, 0, "Empty",
                 gen(3, 3, "1:1", 0), [("X0", None), ("X0+af", 2)]),
                ("DecScrollSmooth", 0, 3, 6, 0, "Empty",
                 gen(3, 3, "1:1", 0),
                 [("X0", None), ("X1", None), ("X0+af", 1)]),
                ("DecScrollDirectrixLine", 2, 4, 6, 0, "DirectrixLine",
                 gen(1, 4, "1:2", 0),
                 [("X0", None), ("X1", None), ("X0+af", 3)]),
                ("Cone", 5, 5, 5, 1, "Vertex", None,
                 [("X0", None), ("X1", None), ("X0+af", 6)]),
            ],
            6: [
                ("IndM1Smooth", -1, 3, 7, 0, "Empty",
                 gen(4, 4, "1:1", 1), [("X0+af", 0)]),
                ("DecScrollSmooth", 1, 4, 7, 0, "Empty",
                 gen(3, 4, "1:1", 0),
                 [("X0", None), ("X1", None), ("X0+af", 2)]),
                ("DecScrollDirectrixLine", 3, 5, 7, 0, "DirectrixLine",
                 gen(1, 5, "1:2", 0),
                 [("X0", None), ("X1", None), ("X0+af", 4)]),
                ("Cone", 6, 6, 6, 1, "Vertex", None,
                 [("X0", None), ("X1", None), ("X0+af", 7)]),
            ],
            7: [
                ("Ind0Smooth", 0, 4, 8, 0, "Empty",
                 gen(4, 5, "1:1", 1), [("X0", None), ("X0+af", 1)]),
                ("DecScrollSmooth", 0, 4, 8, 0, "Empty",
                 gen(4, 4, "1:1", 0), [("X0", None), ("X0+af", 2)]),
                ("DecScrollSmooth", 0, 4, 8, 0, "Empty",
                 gen(4, 4, "1:1", 0),
                 [("X0", None), ("X1", None), ("X0+af", 1)]),
                ("DecScrollSmooth", 2, 5, 8, 0, "Empty",
                 gen(3, 5, "1:1", 0),
                 [("X0", None), ("X1", None), ("X0+af", 3)]),
                ("DecScrollDirectrixLine", 4, 6, 8, 0, "DirectrixLine",
                 gen(1, 6, "1:2", 0),
                 [("X0", None), ("X1", None), ("X0+af", 5)]),
                ("Cone", 7, 7, 7, 1, "Vertex", None,
                 [("X0", None), ("X1", None), ("X0+af", 8)]),
            ],
        }
        for n, fixture in expected.items():
            start = time.perf_counter()
            rows = emit_table(n)
            elapsed = time.perf_counter() - start
            assert elapsed < 1.0, f"table {n} took {elapsed:.2f}s"
            assert [shape(r) for r in rows] == fixture, f"table {n} mismatch"


def test_criterion_2_h0_sweep():
    with criterion(2, "closed-form h0 sweep over deg b in [-4, 10]"):
        abels = [O, G.element(6, 6), G.element(1, 0), G.element(5, 7)]
        for deg_b, abel in itertools.product(range(-4, 11), abels):
            b = DivisorClass(deg_b, abel)
            for e in range(0, 7):
                for e_abel in abels:
                    s = Decomposable(DivisorClass(-e, e_abel))
                    H = SurfaceDivisorClass(1, b)
                    if deg_b >= e + 2:
                        assert linsys.h0_surface(s, H) == 2 * deg_b - e
                    bound = linsys.h0_bound(H.m, s.e, s.e_class.abel, H.b.degree, H.b.abel)
                    assert linsys.h0_surface(s, H) <= bound
            ind0 = Indec0(G)
            H2 = SurfaceDivisorClass(2, b)
            if deg_b >= 1:
                assert linsys.h0_surface(ind0, H2) == 3 * deg_b
            indm1 = IndecMinus1(O)
            if deg_b >= 0:
                assert linsys.h0_surface(indm1, H2) == 3 * deg_b + 3
            for s in (ind0, indm1):
                exact = linsys.h0_surface(s, H2)
                bound = linsys.h0_bound(H2.m, s.e, s.e_class.abel, H2.b.degree, H2.b.abel)
                assert exact <= bound
                if all((b + k * s.e_class).degree >= 1 for k in range(3)):
                    assert exact == bound
        # Degree -1 exceptional classes on the e = -1 surface.
        ones = [
            g for g in G.elements()
            if linsys.h0_surface(
                IndecMinus1(O), SurfaceDivisorClass(2, DivisorClass(-1, g))
            ) == 1
        ]
        p0_cls = point_class(O)
        assert len(ones) == 3
        for g in ones:
            c = -DivisorClass(-1, g)
            assert 2 * c == 2 * p0_cls and c != p0_cls


def test_criterion_3_predicate_tables():
    with criterion(3, "predicate truth tables vs independent transcription"):
        from test_linsys import all_cases, oracle_bpf, oracle_irr, oracle_va

        count = 0
        for s, H in all_cases():
            system = linsys.analyze(s, H)
            assert linsys.is_bpf(s, H) == oracle_bpf(s, H), (s, str(H))
            assert system.very_ample == oracle_va(s, H), (s, str(H))
            assert system.generic_irreducible == oracle_irr(s, H)
            if system.very_ample:
                assert linsys.is_bpf(s, H)
                assert (H.b + H.m * s.e_class).degree >= 3
            count += 1
        assert count > 3000  # e in [-1,8] x deg in [-3,14] x m x torsion


def test_criterion_4_e_minus_1_geometry():
    with criterion(4, "e=-1 surface: ramification, min curves, tau bijection"):
        start = time.perf_counter()
        s = IndecMinus1(O)
        elements = G.elements()
        ram_fibers = 0
        for t in elements:
            hit = ramification_points(s, t)
            assert len(hit) in (0, 4)
            if hit:
                ram_fibers += 1
                for r in hit:
                    assert 2 * r == t + s.p0
        assert ram_fibers == 36  # generators with T + p0 in 2G
        seen = set()
        pair_count = 0
        for i, q in enumerate(elements):
            for r in elements[i:]:
                x = tau(s, q, r)
                assert x == tau(s, r, q)
                assert x not in seen  # injective
                seen.add(x)
                pair_count += 1
                expected_curves = 1 if q == r else 2
                assert len(min_curves_through(s, x)) == expected_curves
        assert pair_count == 144 * 145 // 2 == 10440
        elapsed = time.perf_counter() - start
        assert elapsed < 5.0, f"geometry sweep took {elapsed:.2f}s"


def test_criterion_5_elm_closure():
    with criterion(5, "10^5 walk steps: closure, 13 branches, e shifts +-1"):
        rng = random.Random(20260823)
        starts = [
            dec(0), dec(0, G.element(1, 0)), dec(1), dec(2, G.element(3, 4)),
            Indec0(G), IndecMinus1(G.element(1, 1)),
        ]
        fired = set()
        steps_done = 0
        while steps_done < 100_000:
            model = rng.choice(starts)
            result = walk(model, ["random"] * 50, rng_seed=rng.getrandbits(32))
            for before, step in zip(result.trajectory, result.steps):
                out = step.model
                assert isinstance(out, (Decomposable, Indec0, IndecMinus1))
                if isinstance(out, Decomposable):
                    assert out.e_class.degree <= 0
                assert abs(out.e - before.e) == 1
                fired.add(step.rule)
            steps_done += len(result.steps)
        # The two e=1 torsion branches need the exact fiber; steer onto it.
        torsion = Decomposable(-point_class(G.element(2, 5)))
        from ellscroll.elmtrans import Generic, OnX1

        fired.add(elm(torsion, OnX1(G.element(2, 5))).rule)
        fired.add(elm(torsion, Generic(G.element(2, 5))).rule)
        assert fired == set(ALL_RULES) and len(ALL_RULES) == 13


def test_criterion_6_nagata_plans():
    with criterion(6, "construction plans execute and are minimal {2,1,e,2,3}"):
        cases = [
            ("dec", 0, 2), ("dec", 1, 1), ("dec", 2, 2), ("dec", 3, 3),
            ("dec", 4, 4), ("ind0", None, 2), ("indm1", None, 3),
        ]
        for target, e, expected_len in cases:
            plan = nagata_plan(target, e)
            assert plan.length == expected_len
            assert verify_plan(plan)
            budget = max(3, e or 0)
            assert minimality_check(target, e, max_len=budget) == expected_len


def test_criterion_7_genus_cross_check():
    with criterion(7, "adjunction genus vs recursive additive formula"):
        models = [
            dec(0), dec(0, G.element(1, 0)), dec(1), dec(2), dec(3),
            Indec0(G), IndecMinus1(O),
        ]
        fiber = SurfaceDivisorClass(0, point_class(G.element(1, 1)))

        def recursive_genus(s, D):
            # Peel off fibers, then sections: g(C+D) = g(C)+g(D)+C.D-1.
            if D.b.degree > 0:
                rest = SurfaceDivisorClass(D.m, D.b - fiber.b)
                return (
                    recursive_genus(s, rest) + 0
                    + intersect(s, rest, fiber) - 1
                )
            if D.m > 1:
                section = SurfaceDivisorClass(1, DivisorClass(0, O))
                rest = SurfaceDivisorClass(D.m - 1, D.b)
                return (
                    recursive_genus(s, rest) + 1
                    + intersect(s, rest, section) - 1
                )
            # Base case m = 1: section classes are copies of the elliptic
            # base, genus 1 (fibers, peeled above, have genus 0).
            return 1

        for s in models:
            for m in (1, 2, 3):
                for deg_b in range(-2, 9):
                    D = SurfaceDivisorClass(m, DivisorClass(deg_b, O))
                    assert genus_adjunction(s, D) == recursive_genus(s, D)
        # Closed forms for m = 2.
        for deg_b in range(-2, 9):
            b = DivisorClass(deg_b, G.element(1, 2))
            for e in range(0, 5):
                s = dec(e)
                g = genus_adjunction(s, SurfaceDivisorClass(2, b))
                assert g == (b + s.e_class).degree + 1
            assert genus_adjunction(
                Indec0(G), SurfaceDivisorClass(2, b)
            ) == deg_b + 1
            # Documented divergence: deg b + 2, not 2*deg b + 2 (equal at 0).
            g_m1 = genus_adjunction(IndecMinus1(O), SurfaceDivisorClass(2, b))
            assert g_m1 == deg_b + 2
            if deg_b == 0:
                assert g_m1 == 2 == 2 * deg_b + 2


def test_criterion_8_cone_speciality():
    with criterion(8, "cone rows: h1 = 1, h0 = e+1, ambient = e"):
        for e in range(3, 9):
            s = dec(e)
            b = -s.e_class
            H = SurfaceDivisorClass(1, b)
            assert h1_surface(s, H) == 1
            assert linsys.h0_surface(s, H) == e + 1
            row = classify_scroll(s, b)
            assert row.model_tag == "Cone"
            assert row.ambient == e
            assert row.speciality == 1


def test_criterion_9_parser(capsys):
    with criterion(9, "parser roundtrip x 10^3, golden JSON, exit codes"):
        from hypothesis import HealthCheck, given, settings
        from test_cli import commands

        hits = [0]

        @settings(
            max_examples=1000, deadline=None,
            suppress_health_check=list(HealthCheck),
        )
        @given(commands())
        def roundtrip(cmd):
            assert parse(cmd.format()) == cmd
            hits[0] += 1

        roundtrip()
        assert hits[0] >= 1000
        golden_dir = pathlib.Path(__file__).parent / "golden"
        for name, text in {
            "analyze.json": 'analyze ind0 "2X0+(P(1,0)+P(2,0))f" --json',
            "table3.json": "table 3 --json",
            "elm.json": "elm indm1(O) pair{(1,0),(2,0)} --json",
        }.items():
            status, out = run(parse(text))
            assert status == 0
            assert json.loads(out) == json.loads((golden_dir / name).read_text())
        assert main(["table", "4"]) == 0
        assert main(["table"]) == 2  # parse error
        assert main(["elm", "ind0", "pair{(0,0),(1,1)}"]) == 2  # semantic
        assert main(["analyze", "indm1(O)", "3X0+(2*O)f"]) == 1  # engine
        capsys.readouterr()
