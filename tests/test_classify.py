"""Scroll classification, table fixtures, and construction plans."""

import hashlib
import json
import os
from collections import defaultdict

import pytest
from test_linsys import all_cases, oracle_irr

from ellscroll import classify, elmtrans, linsys, picard, surface
from ellscroll.classify import (
    classify_scroll,
    emit_table,
    matches_target,
    minimality_check,
    nagata_plan,
    product_surface,
    render_table,
    verify_plan,
)
from ellscroll.elmtrans import OnX0, OnX1
from ellscroll.errors import (
    DegenerateModel,
    EngineError,
    InvalidArgument,
    NotBasePointFree,
    UnreachableTarget,
)
from ellscroll.groups import TorusGroup, WeierstrassGroup, default_group
from ellscroll.picard import DivisorClass, trivial_class
from ellscroll.surface import (
    Decomposable,
    Indec0,
    IndecMinus1,
    SurfaceDivisorClass,
    intersect,
)

G = default_group()
O = G.zero()


def dec(e, abel=None):
    return Decomposable(DivisorClass(-e, abel if abel is not None else O))


def cls(deg, abel=None):
    return DivisorClass(deg, abel if abel is not None else O)


def fam_summary(row):
    return [(f.system, f.min_deg_a) for f in row.families]


# -- individual classifier cases --------------------------------------------


def test_base_points_refused():
    message = r"^\|X0 \+ \[deg 3, sum \(0,0\)\] f\| has base points on this surface$"
    with pytest.raises(NotBasePointFree, match=message):
        classify_scroll(dec(2), cls(3))  # deg b < e + 2 and b not ~ -e_class


def test_degenerate_line_and_double_quadric():
    line = classify_scroll(dec(0), trivial_class(G))
    assert (line.model_tag, line.birational, line.ambient) == (
        "DegenerateLine", False, 1,
    )
    quadric = classify_scroll(dec(0), cls(2))
    assert quadric.model_tag == "DoubleQuadric"
    assert (quadric.map_degree, quadric.scroll_degree, quadric.ambient) == (2, 2, 3)
    assert quadric.speciality == 0


def test_double_and_triple_plane():
    s = dec(2)
    plane = classify_scroll(s, -s.e_class)
    assert plane.model_tag == "DoublePlane"
    assert (plane.map_degree, plane.ambient, plane.speciality) == (2, 2, 1)
    triple = classify_scroll(IndecMinus1(O), cls(1))
    assert triple.model_tag == "TriplePlane"
    assert (triple.map_degree, triple.ambient, triple.speciality) == (3, 2, 0)


def test_cone_rows_for_all_small_e():
    for e in range(3, 9):
        s = dec(e)
        row = classify_scroll(s, -s.e_class)
        assert row.model_tag == "Cone"
        assert row.scroll_degree == e
        assert row.ambient == e
        assert row.speciality == 1
        assert row.singular_locus == "Vertex"
        assert fam_summary(row) == [("X0", None), ("X1", None), ("X0+af", 1 + e)]
        assert row.families[2].ln_exact_degree == 1 + e


def test_two_disjoint_lines_case():
    row = classify_scroll(dec(0, G.element(1, 0)), cls(2))
    assert row.model_tag == "DecScrollTwoLines"
    assert row.singular_locus == "TwoDisjointLines"
    assert (row.scroll_degree, row.ambient) == (4, 3)
    assert row.generation.correspondence == "2:2"
    assert fam_summary(row) == [("X0", None), ("X1", None), ("X0+af", 1)]


def test_directrix_line_case():
    row = classify_scroll(dec(2), cls(4))
    assert row.model_tag == "DecScrollDirectrixLine"
    assert row.singular_locus == "DirectrixLine"
    assert (row.scroll_degree, row.ambient) == (6, 5)
    assert row.generation.correspondence == "1:2"
    assert row.generation.right_degree == 4
    assert fam_summary(row) == [("X0", None), ("X1", None), ("X0+af", 3)]
    assert row.families[2].ln_max_degree == 6


def test_smooth_split_cases_both_torsion_layouts():
    trivial = classify_scroll(dec(0), cls(4))
    assert trivial.model_tag == "DecScrollSmooth"
    assert fam_summary(trivial) == [("X0", None), ("X0+af", 2)]
    assert trivial.generation.left_degree == 4
    nontrivial = classify_scroll(dec(1, G.element(1, 0)), cls(4))
    assert fam_summary(nontrivial) == [
        ("X0", None), ("X1", None), ("X0+af", 2),
    ]
    assert nontrivial.generation.left_degree == 3
    assert nontrivial.scroll_degree == 7


def test_classification_agrees_with_the_system_analysis():
    # classify_scroll and analyze read one table; their shared numbers agree
    # on every fiber-degree-1 case of the linsys sweep.
    refused = 0
    for s, H in all_cases(ms=(1,)):
        system = linsys.analyze(s, H)
        if not system.bpf:
            with pytest.raises(NotBasePointFree):
                classify_scroll(s, H.b)
            refused += 1
            continue
        row = classify_scroll(s, H.b)
        assert row.ambient == system.ambient, (s, str(H))
        assert row.speciality == system.h1, (s, str(H))
        if row.map_degree is not None:
            assert row.map_degree * row.scroll_degree == system.degree, (s, str(H))
    assert refused


def test_nonsplit_cases():
    quartic = classify_scroll(Indec0(G), cls(2))
    assert quartic.model_tag == "Ind0Quartic"
    assert quartic.singular_locus == "DoubleLine"
    assert quartic.generation.united_points == 1
    smooth0 = classify_scroll(Indec0(G), cls(3))
    assert smooth0.model_tag == "Ind0Smooth"
    assert (smooth0.scroll_degree, smooth0.ambient) == (6, 5)
    assert smooth0.generation.to_dict() == {
        "left_degree": 3, "right_degree": 4,
        "correspondence": "1:1", "united_points": 1,
    }
    smooth1 = classify_scroll(IndecMinus1(O), cls(2))
    assert smooth1.model_tag == "IndM1Smooth"
    assert (smooth1.scroll_degree, smooth1.ambient) == (5, 4)
    assert fam_summary(smooth1) == [("X0+af", 0)]


# -- the X0+af family against the restriction sequence -----------------------


def restriction_oracle(s, H, a):
    """The degree H.C of a curve C in |X0 + a*f|, and whether H = X0 + b*f
    embeds it linearly normally.

    The restriction sequence 0 -> O(H - C) -> O(H) -> O_C(H), with
    H - C = (b - a)*f, gives C the h0(S, H) - h0(b - a) sections that H
    cuts; C has genus 1, so H restricted to it has H.C sections.
    """
    degree = intersect(s, H, SurfaceDivisorClass(1, a))
    return degree, linsys.h0_surface(s, H) - picard.h0(H.b - a) == degree


def x0_af_rows(group):
    """Every classify_scroll row on surfaces of each family, e <= 5, with the
    classes that decide the torsion side conditions."""
    zero, g = group.zero(), group.nth(1)
    surfaces = [IndecMinus1(zero), Indec0(group)] + [
        Decomposable(DivisorClass(-e, x)) for e in range(6) for x in (zero, g)
    ]
    for s in surfaces:
        for abel in {zero, group.nth(2), (-s.e_class).abel}:
            for deg_b in range(-1, 9):
                b = DivisorClass(deg_b, abel)
                try:
                    yield s, b, classify_scroll(s, b)
                except NotBasePointFree:
                    pass


@pytest.mark.parametrize("group", [G, WeierstrassGroup(23, -1, 0)], ids=str)
def test_x0_af_family_matches_the_restriction_sequence(group):
    tags = set()
    for s, b, row in x0_af_rows(group):
        families = [f for f in row.families if f.system == "X0+af"]
        if not row.birational:
            assert row.families == (), row
            continue
        assert len(families) == 1 and row.families[-1] is families[0], row
        fam, H = families[0], SurfaceDivisorClass(1, b)
        tags.add(row.model_tag)
        # nth(1) and nth(2) are distinct and nonzero, so one is generic.
        abels = {group.zero(), group.nth(1), group.nth(2), b.abel, (-s.e_class).abel}
        # Below min_deg_a some class has no irreducible member; from it on,
        # every class has one.
        below = [DivisorClass(fam.min_deg_a - 1, x) for x in abels]
        assert not all(oracle_irr(s, SurfaceDivisorClass(1, a)) for a in below), row
        for deg_a in range(fam.min_deg_a, max(b.degree, fam.min_deg_a) + 2):
            for a in (DivisorClass(deg_a, x) for x in abels):
                assert oracle_irr(s, SurfaceDivisorClass(1, a)), (row, a)
                degree, normal = restriction_oracle(s, H, a)
                assert deg_a + fam.degree_offset == degree, (row, a)
                if fam.ln_exact_degree is not None:
                    recorded = degree == fam.ln_exact_degree
                else:
                    recorded = degree <= fam.ln_max_degree
                assert (recorded and a != b) == normal, (row, a)
    assert tags == {
        "Cone", "DecScrollTwoLines", "DecScrollDirectrixLine", "DecScrollSmooth",
        "Ind0Quartic", "Ind0Smooth", "IndM1Smooth",
    }


# -- table fixtures ----------------------------------------------------------


def _shape(row):
    return (
        row.model_tag,
        row.e,
        row.e_class_note,
        row.deg_b,
        row.scroll_degree,
        row.speciality,
        row.singular_locus,
        fam_summary(row),
    )


P3_FIXTURE = [
    ("Ind0Quartic", 0, None, 2, 4, 0, "DoubleLine",
     [("X0", None), ("X0+af", 1)]),
    ("DoubleQuadric", 0, "trivial", 2, 2, 0, "Empty", []),
    ("DecScrollTwoLines", 0, "nontrivial", 2, 4, 0, "TwoDisjointLines",
     [("X0", None), ("X1", None), ("X0+af", 1)]),
    ("Cone", 3, None, 3, 3, 1, "Vertex",
     [("X0", None), ("X1", None), ("X0+af", 4)]),
]


def test_table_p3_fixture():
    assert [_shape(r) for r in emit_table(3)] == P3_FIXTURE


P5_FIXTURE = [
    ("Ind0Smooth", 0, None, 3, 6, 0, "Empty",
     [("X0", None), ("X0+af", 1)]),
    ("DecScrollSmooth", 0, "trivial", 3, 6, 0, "Empty",
     [("X0", None), ("X0+af", 2)]),
    ("DecScrollSmooth", 0, "nontrivial", 3, 6, 0, "Empty",
     [("X0", None), ("X1", None), ("X0+af", 1)]),
    ("DecScrollDirectrixLine", 2, None, 4, 6, 0, "DirectrixLine",
     [("X0", None), ("X1", None), ("X0+af", 3)]),
    ("Cone", 5, None, 5, 5, 1, "Vertex",
     [("X0", None), ("X1", None), ("X0+af", 6)]),
]


def test_table_p5_fixture():
    assert [_shape(r) for r in emit_table(5)] == P5_FIXTURE


P7_FIXTURE = [
    ("Ind0Smooth", 0, None, 4, 8, 0, "Empty",
     [("X0", None), ("X0+af", 1)]),
    ("DecScrollSmooth", 0, "trivial", 4, 8, 0, "Empty",
     [("X0", None), ("X0+af", 2)]),
    ("DecScrollSmooth", 0, "nontrivial", 4, 8, 0, "Empty",
     [("X0", None), ("X1", None), ("X0+af", 1)]),
    ("DecScrollSmooth", 2, None, 5, 8, 0, "Empty",
     [("X0", None), ("X1", None), ("X0+af", 3)]),
    ("DecScrollDirectrixLine", 4, None, 6, 8, 0, "DirectrixLine",
     [("X0", None), ("X1", None), ("X0+af", 5)]),
    ("Cone", 7, None, 7, 7, 1, "Vertex",
     [("X0", None), ("X1", None), ("X0+af", 8)]),
]


def test_table_p7_fixture():
    assert [_shape(r) for r in emit_table(7)] == P7_FIXTURE


P4_FIXTURE = [
    ("IndM1Smooth", -1, None, 2, 5, 0, "Empty", [("X0+af", 0)]),
    ("DecScrollDirectrixLine", 1, None, 3, 5, 0, "DirectrixLine",
     [("X0", None), ("X1", None), ("X0+af", 2)]),
    ("Cone", 4, None, 4, 4, 1, "Vertex",
     [("X0", None), ("X1", None), ("X0+af", 5)]),
]


def test_table_p4_fixture():
    assert [_shape(r) for r in emit_table(4)] == P4_FIXTURE


P6_FIXTURE = [
    ("IndM1Smooth", -1, None, 3, 7, 0, "Empty", [("X0+af", 0)]),
    ("DecScrollSmooth", 1, None, 4, 7, 0, "Empty",
     [("X0", None), ("X1", None), ("X0+af", 2)]),
    ("DecScrollDirectrixLine", 3, None, 5, 7, 0, "DirectrixLine",
     [("X0", None), ("X1", None), ("X0+af", 4)]),
    ("Cone", 6, None, 6, 6, 1, "Vertex",
     [("X0", None), ("X1", None), ("X0+af", 7)]),
]


def test_table_p6_fixture():
    assert [_shape(r) for r in emit_table(6)] == P6_FIXTURE


def test_table_general_structure():
    for n in range(3, 13):
        rows = emit_table(n)
        assert rows[-1].model_tag == "Cone" and rows[-1].e == n
        es = [r.e for r in rows]
        assert es == sorted(es)
        for r in rows:
            if r.model_tag in ("Cone", "DoubleQuadric"):
                continue
            assert r.scroll_degree == n + 1  # nondegenerate, nonspecial rows
            assert r.e % 2 == (n + 1) % 2
            assert r.ambient == n


def test_row_dicts_hold_every_field_in_field_order():
    # The named tuples' own ``_asdict`` is the definition the records'
    # dicts must keep.
    rows = [row for n in range(3, 13) for row in emit_table(n)]
    assert {row.generation is None for row in rows} == {True, False}
    for row in rows:
        expected = row._asdict()
        if row.generation is not None:
            assert row.generation.to_dict() == row.generation._asdict()
            expected["generation"] = row.generation._asdict()
        expected["families"] = [f.to_dict() for f in row.families]
        assert list(row.to_dict().items()) == list(expected.items())


def test_render_table_text():
    text = render_table(3, emit_table(3))
    assert text.splitlines()[0] == "Scrolls in P^3"
    assert "Vertex" in text and "TwoDisjointLines" in text


# -- construction plans -------------------------------------------------------


def test_plans_execute_to_their_targets():
    for target, e in [("dec", 0), ("dec", 1), ("dec", 3), ("ind0", None),
                      ("indm1", None)]:
        plan = nagata_plan(target, e)
        assert verify_plan(plan)


def test_plan_lengths_match_remark():
    assert nagata_plan("dec", 0).length == 2
    assert nagata_plan("dec", 1).length == 1
    for e in (2, 3, 4):
        assert nagata_plan("dec", e).length == e
    assert nagata_plan("ind0").length == 2
    assert nagata_plan("indm1").length == 3


def test_plan_length_is_read_from_its_steps():
    # A plan holds no length of its own, so it cannot state one that its
    # steps do not have.
    for target, e in [("dec", 0), ("dec", 1), ("dec", 5), ("ind0", None), ("indm1", None)]:
        plan = nagata_plan(target, e)
        assert plan.length == len(plan.steps) == plan.to_dict()["length"]
    steps = (elmtrans.Generic(G.nth(1)),) * 2
    assert classify.NagataPlan("ind0", 0, steps).length == 2
    with pytest.raises(TypeError):
        classify.NagataPlan("ind0", 0, steps, 7)
    with pytest.raises(AttributeError):
        nagata_plan("ind0").length = 7


def test_plan_invalid_targets():
    with pytest.raises(UnreachableTarget):
        nagata_plan("dec")
    with pytest.raises(UnreachableTarget):
        nagata_plan("mystery")
    # The search refuses the same targets with the same messages.
    split = "a split target needs an invariant e >= 0"
    for check in (nagata_plan, minimality_check):
        with pytest.raises(UnreachableTarget, match="unknown target 'bogus'"):
            check("bogus", 2)
        for e in (None, -1):
            with pytest.raises(UnreachableTarget, match=split):
                check("dec", e)
    # The target is refused before the search lists any point.
    with pytest.raises(UnreachableTarget, match="unknown target"):
        minimality_check("bogus", group=TorusGroup(200, 200))
    # ... and before the plan checks the group order: a four-element group
    # is too small for any plan, yet a bogus target is still named as such.
    tiny = TorusGroup(2, 2)
    for check in (nagata_plan, minimality_check):
        with pytest.raises(UnreachableTarget, match="unknown target 'bogus'"):
            check("bogus", group=tiny)
    with pytest.raises(DegenerateModel):
        nagata_plan("dec", 2, group=tiny)


def test_a_non_split_target_refuses_an_e_not_its_own():
    for target, own in (("ind0", 0), ("indm1", -1)):
        for check in (nagata_plan, minimality_check):
            assert check(target, own) == check(target)
            for e in (own - 1, own + 1, 5):
                with pytest.raises(
                    UnreachableTarget, match=f"{target} has the invariant e = {own}, not {e}"
                ):
                    check(target, e)


def test_minimality_by_exhaustive_search():
    assert minimality_check("dec", 0) == 2
    assert minimality_check("dec", 1) == 1
    assert minimality_check("dec", 2) == 2
    assert minimality_check("dec", 3) == 3
    assert minimality_check("dec", 4, max_len=4) == 4
    assert minimality_check("ind0") == 2
    assert minimality_check("indm1") == 3


def test_argument_bounds_raise_a_coded_error():
    calls = [lambda: emit_table(2), lambda: minimality_check("dec", 9, max_len=9)]
    # An N, e or max_len that is not an int (a bool is not one); None is
    # the default of e.
    for value in ("3", 3.0, None, True):
        calls += [
            lambda value=value: emit_table(value),
            lambda value=value: minimality_check("dec", 1, max_len=value),
        ]
        if value is not None:
            calls += [
                lambda value=value: nagata_plan("dec", value),
                lambda value=value: minimality_check("dec", value),
            ]
    for call in calls:
        with pytest.raises(InvalidArgument) as info:
            call()
        assert info.value.code == "InvalidArgument"
        assert isinstance(info.value, EngineError) and isinstance(info.value, ValueError)


def test_a_group_argument_that_is_not_a_group_model_is_refused():
    plan = nagata_plan("ind0")
    calls = [
        lambda group: emit_table(5, group),
        lambda group: nagata_plan("ind0", None, group),
        lambda group: verify_plan(plan, group),
        lambda group: minimality_check("ind0", group=group),
    ]
    for call in calls:
        for group in ("x", 12, TorusGroup):
            with pytest.raises(InvalidArgument, match="is not a group model"):
                call(group)
    # The checks on the other arguments still come first.
    with pytest.raises(InvalidArgument, match="N >= 3"):
        emit_table(2, "x")
    with pytest.raises(UnreachableTarget, match="unknown target"):
        nagata_plan("bogus", None, "x")
    with pytest.raises(UnreachableTarget, match="unknown target"):
        minimality_check("bogus", group="x")


def test_a_target_that_is_not_a_str_is_unknown():
    # Refused as unknown before the group is read: a group too small for any
    # plan, or not a group model at all, would raise another error.
    for target in ([], None, 1, ("dec",)):
        for check in (nagata_plan, minimality_check):
            for group in (None, TorusGroup(2, 2), "x"):
                with pytest.raises(UnreachableTarget, match="unknown target") as info:
                    check(target, 2, group=group)
                assert info.value.code == "UnreachableTarget"


def test_verify_plan_refuses_what_is_not_a_plan():
    steps = nagata_plan("ind0").steps
    for plan in ("x", None, steps, classify.NagataPlan):
        with pytest.raises(InvalidArgument, match="is not a plan") as info:
            verify_plan(plan)
        assert info.value.code == "InvalidArgument"


def test_search_builds_its_default_group_only_when_given_none(monkeypatch):
    # A call that finds the live model runs no check, so the calls of the
    # models' constructor are counted.
    built, W = [], WeierstrassGroup(23, -1, 0)
    build = type(TorusGroup).__call__

    def counted(cls, *args, **kwargs):
        built.append((cls, args, kwargs))
        return build(cls, *args, **kwargs)

    monkeypatch.setattr(type(TorusGroup), "__call__", counted)
    assert minimality_check("dec", 1, 2, W) == 1
    assert built == []
    # With no group, one Torus(4,4) is built, and the search answers on it.
    assert minimality_check("dec", 1) == 1
    assert built == [(TorusGroup, (4, 4), {})]


def test_minimality_unreachable_within_budget():
    with pytest.raises(UnreachableTarget):
        minimality_check("dec", 5, max_len=3)
    with pytest.raises(ValueError):
        minimality_check("dec", 9, max_len=9)


def test_product_surface_is_the_search_start():
    start = product_surface(G)
    assert start.e_class.is_trivial()
    # One step can only reach e = 1, so the nontrivial e = 0 target needs two.
    with pytest.raises(UnreachableTarget):
        minimality_check("dec", 0, max_len=1)


def test_table_refuses_a_row_in_another_space(monkeypatch):
    real = classify._classify

    def misplaced(*invariants):
        row = real(*invariants)
        return row._replace(ambient=row.ambient + 1)

    monkeypatch.setattr(classify, "_classify", misplaced)
    with pytest.raises(EngineError, match="lands in P\\^6, not P\\^5"):
        emit_table(5)


#: The seven criterion-6 targets and their minimal lengths.
PLAN_TARGETS = [
    ("dec", 0, 2), ("dec", 1, 1), ("dec", 2, 2), ("dec", 3, 3),
    ("dec", 4, 4), ("ind0", None, 2), ("indm1", None, 3),
]


def search_all(group):
    return [
        minimality_check(target, e, max_len=max(3, e or 0), group=group)
        for target, e, _ in PLAN_TARGETS
    ]


@pytest.mark.parametrize("group", [TorusGroup(2, 12), WeierstrassGroup(23, -1, 0)], ids=str)
def test_minimal_lengths_do_not_depend_on_the_group_model(group):
    # The lengths criterion 6 finds on Torus(4,4).  y^2 = x^3 - x over F_23
    # has 24 points and full 2-torsion, like Z/2 x Z/12.
    assert search_all(group) == [length for _, _, length in PLAN_TARGETS]


def test_search_transforms_through_the_bound_elm_on_every_call(monkeypatch):
    # Tracing patches ``classify.elm``; a search that kept its graph, or
    # called the engine some other way, would hide its work from the trace.
    calls = []
    real = classify.elm

    def counted(s, x):
        calls.append(s)
        return real(s, x)

    monkeypatch.setattr(classify, "elm", counted)
    group = TorusGroup(2, 12)
    assert minimality_check("indm1", group=group) == 3
    first = len(calls)
    assert first and all(s.group == group for s in calls)
    assert minimality_check("indm1", group=group) == 3
    assert len(calls) == 2 * first


# -- the bounded search against a plain breadth-first search ----------------


def bfs_layers(group, max_len):
    """The models first reached after 0, 1, ..., max_len transformations.

    A transcription of the layer-by-layer breadth-first search that
    ``minimality_check`` replaced, kept here as its reference: it builds
    every layer in full and prunes nothing.
    """
    start = product_surface(group)
    layers = [[start]]
    seen = {start}
    for _ in range(max_len):
        layer = []
        for model in layers[-1]:
            for spec in classify._all_specs(model, model.group.elements()):
                out = elmtrans.elm(model, spec).model
                if out not in seen:
                    seen.add(out)
                    layer.append(out)
        layers.append(layer)
    return layers


def bfs_length(layers, target, e, max_len):
    target_e = {"ind0": 0, "indm1": -1}.get(target, e)
    for depth, layer in enumerate(layers[: max_len + 1]):
        if any(matches_target(m, target, target_e) for m in layer):
            return depth
    return None


SWEEP_TARGETS = [("dec", e) for e in range(6)] + [("ind0", None), ("indm1", None)]


@pytest.mark.parametrize(
    "group, longest",
    [(TorusGroup(4, 4), 4), (TorusGroup(2, 12), 3), (WeierstrassGroup(23, -1, 0), 3)],
    ids=str,
)
def test_bounded_search_agrees_with_breadth_first_search(group, longest):
    layers = bfs_layers(group, longest)
    for target, e in SWEEP_TARGETS:
        for max_len in range(1, longest + 1):
            expected = bfs_length(layers, target, e, max_len)
            if expected is None:
                with pytest.raises(UnreachableTarget):
                    minimality_check(target, e, max_len=max_len, group=group)
            else:
                assert minimality_check(target, e, max_len=max_len, group=group) == expected


def test_plan_searches_stay_within_a_transformation_budget(monkeypatch):
    # The breadth-first search made 4,174 transformations for these seven.
    calls = []
    real = classify.elm

    def counted(s, x):
        calls.append(x)
        return real(s, x)

    monkeypatch.setattr(classify, "elm", counted)
    assert search_all(TorusGroup(4, 4)) == [length for _, _, length in PLAN_TARGETS]
    assert len(calls) < 300


#: ``minimality_check`` on each target and each max_len from 1 to 4, recorded
#: before the search built its points lazily: "length:transformations", or
#: "-:transformations" for an ``UnreachableTarget``.  The sha256 hashes the
#: repr of every (model, point) the search transformed, in order, over the
#: whole row set, so the points are tried in the same order as before.
SEARCH_ANSWERS = {
    TorusGroup(4, 4): ("7c412cf75c52c809d80379de9cdceaf5684811fdb8879a090249c2a8a3eec2b4", {
        "dec0": "-:0 2:5 2:5 2:5", "dec1": "1:1 1:1 1:1 1:1", "dec2": "-:0 2:3 2:3 2:3",
        "dec3": "-:0 -:0 3:5 3:5", "dec4": "-:0 -:0 -:0 4:7", "dec5": "-:0 -:0 -:0 -:0",
        "ind0": "-:0 2:2 2:2 2:2", "indm1": "-:48 -:48 3:51 3:51",
    }),
    TorusGroup(1, 1): ("99394a2a19f0a654473c8747f685d3071145511936ac9440702b294790557e5b", {
        "dec0": "-:0 -:6 -:6 -:18", "dec1": "1:1 1:1 1:1 1:1", "dec2": "-:0 2:3 2:3 2:3",
        "dec3": "-:0 -:0 3:5 3:5", "dec4": "-:0 -:0 -:0 4:7", "dec5": "-:0 -:0 -:0 -:0",
        "ind0": "-:0 2:2 2:2 2:2", "indm1": "-:3 -:3 3:6 3:6",
    }),
    TorusGroup(2, 2): ("f0d9a7bb017f57768138d20411fe8199c879b519568f5cd8e6ee54d766c8378e", {
        "dec0": "-:0 2:5 2:5 2:5", "dec1": "1:1 1:1 1:1 1:1", "dec2": "-:0 2:3 2:3 2:3",
        "dec3": "-:0 -:0 3:5 3:5", "dec4": "-:0 -:0 -:0 4:7", "dec5": "-:0 -:0 -:0 -:0",
        "ind0": "-:0 2:2 2:2 2:2", "indm1": "-:12 -:12 3:15 3:15",
    }),
    TorusGroup(6, 6): ("aa7ca08e82c6987a3f45b89e33e89c40a49f672d28b705b64b8ae82be47e3703", {
        "dec0": "-:0 2:5 2:5 2:5", "dec1": "1:1 1:1 1:1 1:1", "dec2": "-:0 2:3 2:3 2:3",
        "dec3": "-:0 -:0 3:5 3:5", "dec4": "-:0 -:0 -:0 4:7", "dec5": "-:0 -:0 -:0 -:0",
        "ind0": "-:0 2:2 2:2 2:2", "indm1": "-:108 -:108 3:111 3:111",
    }),
    WeierstrassGroup(23, -1, 0): ("810ffc13fa36fbd71a2b60fc2afdffd7dde8bb32523763d414a2b9a5550ab5f7", {
        "dec0": "-:0 2:5 2:5 2:5", "dec1": "1:1 1:1 1:1 1:1", "dec2": "-:0 2:3 2:3 2:3",
        "dec3": "-:0 -:0 3:5 3:5", "dec4": "-:0 -:0 -:0 4:7", "dec5": "-:0 -:0 -:0 -:0",
        "ind0": "-:0 2:2 2:2 2:2", "indm1": "-:72 -:72 3:75 3:75",
    }),
}


@pytest.mark.parametrize("group", list(SEARCH_ANSWERS), ids=str)
def test_search_answers_as_recorded(monkeypatch, group):
    digest, rows = SEARCH_ANSWERS[group]
    stream = hashlib.sha256()
    real = classify.elm
    calls = []

    def recorded(s, x):
        calls.append(x)
        stream.update(f"{s!r} {x!r}\n".encode())
        return real(s, x)

    monkeypatch.setattr(classify, "elm", recorded)
    found = {}
    for target, e in SWEEP_TARGETS:
        answers = []
        for max_len in range(1, 5):
            calls.clear()
            try:
                answer = str(minimality_check(target, e, max_len=max_len, group=group))
            except UnreachableTarget:
                answer = "-"
            answers.append(f"{answer}:{len(calls)}")
        found[f"{target}{'' if e is None else e}"] = " ".join(answers)
    assert found == rows
    assert stream.hexdigest() == digest
    # The seven criterion-6 targets, at the budget the plans search with.
    if group == TorusGroup(4, 4):
        assert search_all(group) == [length for _, _, length in PLAN_TARGETS]


def test_search_refuses_a_rule_that_moves_e_by_more_than_one(monkeypatch):
    group = TorusGroup(4, 4)
    real = classify.elm
    calls = []

    def broken(s, x):
        result = real(s, x)
        calls.append(x)
        if len(calls) == 1:
            # e = 0 -> 3 in one step.
            return elmtrans.ElmResult(
                Decomposable(DivisorClass(-3, group.zero())), result.y0_note, result.rule
            )
        return result

    monkeypatch.setattr(classify, "elm", broken)
    with pytest.raises(EngineError, match="moves e from 0 to 3") as raised:
        minimality_check("dec", 3, group=group)
    assert raised.value.code == "EngineError"


def test_search_bound_refuses_before_enumerating_a_large_group():
    # e = 5 is five transformations from the product surface.
    with pytest.raises(UnreachableTarget):
        minimality_check("dec", 5, max_len=3, group=TorusGroup(200, 200))


def test_search_expands_a_model_again_when_reached_with_more_budget(monkeypatch):
    # A rule graph built so that the depth-first search first meets X three
    # steps deep, where one step is left, and only then one step deep, where
    # three are left: S -> A -> B -> X and S -> X -> Y -> Z -> T, with T the
    # only nontrivial e = 0 split model.  Every other transformation falls
    # into two sinks at e = 1 and e = 2, so e still moves by exactly 1.
    group = TorusGroup(4, 4)
    g = group.nth
    S = product_surface(group)
    A, X, Z = dec(1, g(1)), dec(1, g(2)), dec(1, g(3))
    Y, T, B = dec(2, g(4)), dec(0, g(5)), Indec0(group)
    sink = {0: dec(1, g(6)), 1: dec(2, g(7)), 2: dec(1, g(6))}
    first, second = OnX0(g(0)), OnX1(g(0))
    edges = {
        (S, first): A, (S, second): X, (A, first): B, (B, first): X,
        (X, first): Y, (Y, first): Z, (Z, first): T,
    }

    def graph(s, x):
        out = edges.get((s, x)) or sink[s.e]
        return elmtrans.ElmResult(out, "X0prime", "graph")

    monkeypatch.setattr(classify, "elm", graph)
    assert minimality_check("dec", 0, max_len=4, group=group) == 4


# -- the table path ----------------------------------------------------------

#: sha256 of the JSON rows of ``emit_table(N)`` for N in 3..60.  The rows
#: hold no group element, so every group model gives this value.
TABLE_DIGEST = "7e1e6347f52be16e02dbfd79c0e71200d1f4ddc02e1a9d49ccbd2fd53ec8afe9"


@pytest.mark.parametrize(
    "group", [TorusGroup(12, 12), TorusGroup(2, 6), WeierstrassGroup(23, -1, 0)], ids=str
)
def test_tables_match_the_recorded_digest(group):
    rows = [[r.to_dict() for r in emit_table(N, group)] for N in range(3, 61)]
    assert hashlib.sha256(json.dumps(rows).encode()).hexdigest() == TABLE_DIGEST


def test_classify_builds_no_nonsplit_invariant_class(monkeypatch):
    built = []

    def counted(real):
        def build(*args):
            built.append(real.__name__)
            return real(*args)

        return build

    monkeypatch.setattr(surface, "trivial_class", counted(surface.trivial_class))
    monkeypatch.setattr(surface, "point_class", counted(surface.point_class))
    for s, deg_b in ((Indec0(G), 2), (Indec0(G), 5), (IndecMinus1(O), 1), (IndecMinus1(O), 4)):
        built.clear()
        classify_scroll(s, cls(deg_b))
        assert not built, (s, deg_b, built)


# -- the tables derived a second time ------------------------------------------

#: The tier-1 run derives the tables to P^12 on the default group;
#: ``ELLSCROLL_FUZZ=1`` adds the sweep to P^60 on three group models.
FUZZ_FRESH = os.environ.get("ELLSCROLL_FUZZ") == "1"


def enumerated_rows(top, group):
    """Every record ``classify_scroll`` gives on the models of ``group`` with
    e <= top + 2 and deg b in -2..top + 5, keyed by ambient dimension.  The
    models are Indec0, IndecMinus1(O) and the split models whose invariant
    class sums to O or nth(1); b sums to O, nth(1) or minus the invariant
    class's sum."""
    zero, other = group.zero(), group.nth(1)
    models = [Indec0(group), IndecMinus1(zero)] + [
        Decomposable(DivisorClass(-e, a)) for e in range(top + 3) for a in (zero, other)
    ]
    rows = defaultdict(list)
    for s in models:
        for deg_b in range(-2, top + 6):
            for b_sum in {zero, other, (-s.e_class).abel}:
                try:
                    row = classify_scroll(s, DivisorClass(deg_b, b_sum))
                except NotBasePointFree:
                    continue
                rows[row.ambient].append(row)
    return rows


def table_key(row):
    return row.model_tag, row.e, row.e_class_note, row.deg_b


def segre_degree(generation):
    """The degree of the ruled surface swept out by an alpha:beta
    correspondence between directrix curves of degrees d_left and d_right
    with u united points: beta*d_left + alpha*d_right - u (Segre; W. L. Edge,
    The Theory of Ruled Surfaces, 1931)."""
    d_left, d_right, correspondence, u = generation
    alpha, beta = map(int, correspondence.split(":"))
    return beta * d_left + alpha * d_right - u


def directrices(row, group):
    """A surface of ``row``'s family and invariants, its hyperplane class
    H = X0 + b*f, and the classes of the two directrix curves that the row's
    generation joins: X0 and X1 ~ X0 - e_class*f on a split surface; X0 and
    a curve of the row's X0+af family of least deg a on Indec0; two minimum
    curves D_q ~ X0 + (q - p0)*f on e = -1."""
    zero = group.zero()

    def curve(a):
        return SurfaceDivisorClass(1, a)

    if row.model_tag.startswith("Ind0"):
        s = Indec0(group)
        least = next(f.min_deg_a for f in row.families if f.system == "X0+af")
        pair = curve(cls(0, zero)), curve(cls(least, zero))
    elif row.model_tag.startswith("IndM1"):
        s = IndecMinus1(zero)
        pair = curve(cls(0, group.nth(1))), curve(cls(0, group.nth(2)))
    else:
        s = Decomposable(DivisorClass(-row.e, zero))
        pair = curve(cls(0, zero)), curve(-s.e_class)
    return s, curve(cls(row.deg_b, zero)), pair


def check_directrix_degrees(row, group):
    """H.C for each directrix C is its degree in P^N, times the rulings
    through a point of its image (beta on the left, alpha on the right of an
    alpha:beta correspondence), times the degree of the map."""
    s, H, (left, right) = directrices(row, group)
    d_left, d_right, correspondence, _ = row.generation
    alpha, beta = map(int, correspondence.split(":"))
    assert intersect(s, H, left) == row.map_degree * beta * d_left, row
    assert intersect(s, H, right) == row.map_degree * alpha * d_right, row


def check_tables_by_enumeration(top, group):
    rows = enumerated_rows(top, group)
    tables = [emit_table(N, group) for N in range(3, top + 1)]
    for N, table in enumerate(tables, 3):
        assert {table_key(r) for r in rows[N]} == {table_key(r) for r in table}, N
    generated = [
        r for found in (*rows.values(), *tables) for r in found if r.generation is not None
    ]
    assert {r.model_tag for r in generated} == {
        "DoubleQuadric", "DecScrollTwoLines", "DecScrollDirectrixLine", "DecScrollSmooth",
        "Ind0Quartic", "Ind0Smooth", "IndM1Smooth",
    }
    for r in generated:
        assert r.scroll_degree == segre_degree(r.generation), r
        check_directrix_degrees(r, group)


def test_tables_match_their_enumeration():
    check_tables_by_enumeration(12, G)


@pytest.mark.skipif(not FUZZ_FRESH, reason="the whole sweep runs with ELLSCROLL_FUZZ=1")
@pytest.mark.parametrize(
    "group", [TorusGroup(12, 12), WeierstrassGroup(23, -1, 0), TorusGroup(2, 6)], ids=str
)
def test_tables_match_their_enumeration_sweep(group):
    check_tables_by_enumeration(60, group)


# -- the records -------------------------------------------------------------

#: The ``to_dict`` keys of each record, in field order.  A scroll row keeps
#: every key, None included; a generation keeps all four; a family drops
#: the keys whose value is None.
SCROLL_KEYS = [
    "model_tag", "e", "e_class_note", "deg_b", "birational", "map_degree",
    "scroll_degree", "ambient", "speciality", "singular_locus", "generation",
    "families",
]
GENERATION_KEYS = ["left_degree", "right_degree", "correspondence", "united_points"]
FAMILY_KEYS = [
    "system", "min_deg_a", "degree_offset", "ln_max_degree", "ln_exact_degree", "note",
]


def _small_table_rows():
    return [row for N in range(3, 13) for row in emit_table(N)]


def test_record_dicts_keep_key_order_and_none_policy():
    for row in _small_table_rows():
        d = row.to_dict()
        assert list(d) == SCROLL_KEYS
        assert [d[k] for k in SCROLL_KEYS[:10]] == list(row[:10])
        g = row.generation
        if g is None:
            assert d["generation"] is None
        else:
            assert list(d["generation"].items()) == list(zip(GENERATION_KEYS, g))
        assert len(d["families"]) == len(row.families)
        for fam, fam_dict in zip(row.families, d["families"]):
            kept = [(k, v) for k, v in zip(FAMILY_KEYS, fam) if v is not None]
            assert list(fam_dict.items()) == kept


def test_records_are_immutable_and_hashable():
    rows = _small_table_rows()
    assert set(rows) == set(_small_table_rows())
    row = next(r for r in rows if r.generation is not None and r.families)
    for record in (row, row.generation, row.families[0]):
        name = record._fields[0]
        with pytest.raises(AttributeError):
            setattr(record, name, getattr(record, name))
        assert hash(record) == hash(type(record)(*record))
