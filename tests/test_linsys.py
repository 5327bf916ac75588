"""Linear-system analysis: exact section counts and the predicate tables.

The truth tables are transcribed a second time here, clause by clause,
independently of the engine, and the two encodings are compared over an
exhaustive desk-scale sweep.
"""

import pytest
from hypothesis import given, strategies as st

from ellscroll import linsys, picard
from ellscroll.classify import classify_scroll
from ellscroll.errors import (
    InvalidArgument,
    InvalidSecancy,
    InvalidSurface,
    MixedGroups,
    UnsupportedSecancy,
)
from ellscroll.groups import TorusGroup, WeierstrassGroup, default_group
from ellscroll.picard import DivisorClass, h1, point_class, trivial_class
from ellscroll.surface import (
    Decomposable,
    Indec0,
    IndecMinus1,
    SurfaceDivisorClass,
    intersect,
)

G = default_group()
O = G.zero()
P0 = O  # base point of the e = -1 surface used throughout

# Representative torsion situations for the invariant class of split models.
E_ABELS = {
    "triv": O,
    "two_torsion": G.element(6, 6),
    "generic": G.element(1, 0),
}


def split_models(e):
    for label, abel in E_ABELS.items():
        yield label, Decomposable(DivisorClass(-e, abel))


def b_candidates(s, deg_b):
    """Torsion-relevant translates of each degree: 0, -e, -2e, generic."""
    seeds = {O, (-s.e_class).abel, (-2 * s.e_class).abel, G.element(5, 7)}
    if isinstance(s, IndecMinus1):
        seeds |= set(G.halvings(2 * s.p0))  # odd halving classes
    return [DivisorClass(deg_b, a) for a in sorted(seeds, key=lambda g: g.sort_key())]


def all_cases(ms=(1, 2), degs=range(-3, 15), es=range(-1, 9)):
    for e in es:
        if e == -1:
            models = [IndecMinus1(P0)]
        elif e == 0:
            models = [m for _, m in split_models(0)] + [Indec0(G)]
        else:
            models = [m for _, m in split_models(e)]
        for s in models:
            for deg_b in degs:
                for b in b_candidates(s, deg_b):
                    for m in ms:
                        yield s, SurfaceDivisorClass(m, b)


# -- independent transcriptions ---------------------------------------------


def oracle_bpf(s, H):
    e, db, b = s.e, H.b.degree, H.b
    if H.m == 1:
        if isinstance(s, Decomposable):
            if s.e_class.is_trivial():
                return b.is_trivial() or db >= 2
            if b == -s.e_class and e >= 2:
                return True
            return db >= e + 2
        return db >= 2 + e
    if isinstance(s, Decomposable):
        if e > 0:
            return b == -2 * s.e_class or db >= 2 * e + 2
        if s.e_class.is_trivial():
            return b.is_trivial() or db >= 2
        return (b.is_trivial() and (2 * s.e_class).is_trivial()) or db >= 2
    if isinstance(s, Indec0):
        return db >= 2
    return db >= 0


def oracle_va(s, H):
    e, db = s.e, H.b.degree
    if H.m == 1:
        return db >= 3 + e
    if isinstance(s, Decomposable):
        return db >= 2 * e + 3
    return db >= 3 if isinstance(s, Indec0) else db >= 1


def oracle_irr(s, H):
    e, db, b = s.e, H.b.degree, H.b
    if H.m == 1:
        if isinstance(s, Decomposable):
            if s.e_class.is_trivial():
                return b.is_trivial() or db >= 2
            return b.is_trivial() or b == -s.e_class or db >= 1 + e
        if isinstance(s, Indec0):
            return b.is_trivial() or db >= 1
        return db >= 0
    if isinstance(s, Decomposable):
        if db >= 2 * e + 2:
            return True
        if db == 2 * e + 1 and not s.e_class.is_trivial():
            return True
        if b == -2 * s.e_class and e > 0:
            return True
        return (
            b == -2 * s.e_class
            and e == 0
            and not s.e_class.is_trivial()
            and (2 * s.e_class).is_trivial()
        )
    if isinstance(s, Indec0):
        return db >= 1
    if db >= 0:
        return True
    mb = -b
    return db == -1 and 2 * mb == 2 * point_class(s.p0) and mb != point_class(s.p0)


def test_predicate_tables_match_independent_transcription():
    mismatches = []
    for s, H in all_cases():
        system = linsys.analyze(s, H)
        trio = (
            linsys.is_bpf(s, H) == oracle_bpf(s, H),
            system.very_ample == oracle_va(s, H),
            system.generic_irreducible == oracle_irr(s, H),
        )
        if not all(trio):
            mismatches.append((s, str(H), trio))
    assert mismatches == []


def test_implications_va_implies_bpf_and_degree():
    for s, H in all_cases():
        if linsys.analyze(s, H).very_ample:
            assert linsys.is_bpf(s, H)
            assert (H.b + H.m * s.e_class).degree >= 3


# -- section counts ---------------------------------------------------------


def test_h0_split_closed_form():
    for e in range(0, 7):
        for label, s in split_models(e):
            for db in range(e + 2, 12):
                H = SurfaceDivisorClass(1, DivisorClass(db, G.element(5, 7)))
                assert linsys.h0_surface(s, H) == 2 * db - e


def test_h0_nonsplit_two_secant_values():
    ind0 = Indec0(G)
    indm1 = IndecMinus1(P0)
    for db in range(1, 11):
        H = SurfaceDivisorClass(2, DivisorClass(db, G.element(2, 3)))
        assert linsys.h0_surface(ind0, H) == 3 * db
    for db in range(0, 11):
        H = SurfaceDivisorClass(2, DivisorClass(db, G.element(2, 3)))
        assert linsys.h0_surface(indm1, H) == 3 * db + 3


def test_h0_indm1_degree_minus_one_torsion_classes():
    indm1 = IndecMinus1(G.element(1, 1))
    hits = []
    for g in G.elements():
        b = DivisorClass(-1, g)
        H = SurfaceDivisorClass(2, b)
        if linsys.h0_surface(indm1, H) == 1:
            hits.append(-b)
    # Exactly the three classes -b with 2(-b) ~ 2*p0, -b not ~ p0.
    assert len(hits) == 3
    for c in hits:
        assert 2 * c == 2 * point_class(indm1.p0)
        assert c != point_class(indm1.p0)


def test_h0_bound_dominates_and_nonspecial_equality():
    for s, H in all_cases(ms=(1, 2), degs=range(-3, 9)):
        try:
            exact = linsys.h0_surface(s, H)
        except UnsupportedSecancy:
            continue
        bound = linsys.h0_bound(H.m, s.e, s.e_class.abel, H.b.degree, H.b.abel)
        assert exact <= bound
        nonspecial = all(
            (H.b + k * s.e_class).degree >= 1 for k in range(H.m + 1)
        )
        if nonspecial:
            assert exact == bound


def test_h0_of_a_class_pulled_back_from_the_base_is_its_count_there():
    # m = 0: |b*f| is the pull-back of |b|, on every family.
    surfaces = (Decomposable(trivial_class(G)), Decomposable(DivisorClass(-1, G.element(1, 0))),
                Indec0(G), IndecMinus1(P0))
    for s in surfaces:
        for deg_b in range(-2, 4):
            for abel in (O, G.element(6, 6)):
                b = DivisorClass(deg_b, abel)
                assert linsys.h0_surface(s, SurfaceDivisorClass(0, b)) == picard.h0(b), (s, b)


def test_h0_m3_split_exact_but_nonsplit_refuses():
    s = Decomposable(DivisorClass(-1, O))
    H = SurfaceDivisorClass(3, DivisorClass(5, O))
    assert linsys.h0_surface(s, H) == 5 + 4 + 3 + 2
    with pytest.raises(UnsupportedSecancy):
        linsys.h0_surface(Indec0(G), H)


def h1_surface(s, H):
    """The speciality oracle: h1 of ``|m*X0 + b*f|`` via the base-curve class
    b + m*e_class.

    The reduction to the base curve holds only when b, ..., b + (m-1)*e_class
    are all nonspecial; outside that hypothesis this returns None.
    """
    if any(h1(H.b + k * s.e_class) for k in range(H.m)):
        return None
    return h1(H.b + H.m * s.e_class)


def test_h1_surface_guarded_formula():
    s = Decomposable(DivisorClass(-3, O))
    cone_b = DivisorClass(3, O)
    assert h1_surface(s, SurfaceDivisorClass(1, cone_b)) == 1
    assert h1_surface(s, SurfaceDivisorClass(1, trivial_class(G))) is None


def test_analyze_h1_agrees_with_guarded_formula_when_applicable():
    for s, H in all_cases(ms=(1, 2), degs=range(-2, 8)):
        guarded = h1_surface(s, H)
        if guarded is None:
            continue
        try:
            analysis = linsys.analyze(s, H)
        except UnsupportedSecancy:
            continue
        assert analysis.h1 == guarded


def test_invalid_secancy_rejected():
    with pytest.raises(InvalidSecancy):
        linsys.is_bpf(Indec0(G), SurfaceDivisorClass(0, trivial_class(G)))


def test_analysis_serialization_shape():
    s = Indec0(G)
    H = SurfaceDivisorClass(2, DivisorClass(2, G.element(1, 0)))
    d = linsys.analyze(s, H).to_dict()
    assert d["h0"] == 6 and d["ambient"] == 5 and d["degree"] == 8
    assert d["bpf"] is True and d["very_ample"] is False
    assert d["genus_generic"] == 3


T4 = TorusGroup(4, 4)


@pytest.mark.parametrize(
    "query, s, H",
    [
        (linsys.analyze, Indec0(G), SurfaceDivisorClass(1, trivial_class(T4))),
        (
            linsys.analyze,
            IndecMinus1(O),
            SurfaceDivisorClass(2, DivisorClass(-1, T4.element(2, 0))),
        ),
        (
            linsys.h0_surface,
            Decomposable(trivial_class(G)),
            SurfaceDivisorClass(1, DivisorClass(3, T4.element(2, 0))),
        ),
        (linsys.h0_surface, Indec0(G), SurfaceDivisorClass(0, trivial_class(T4))),
    ],
)
def test_a_class_of_another_group_is_refused(query, s, H):
    with pytest.raises(MixedGroups):
        query(s, H)


@pytest.mark.parametrize(
    "s", ["dec", None, G, point_class(O), SurfaceDivisorClass(1, trivial_class(G))],
    ids=["str", "None", "group", "class", "system"],
)
def test_classification_entry_refuses_what_is_not_a_surface_model(s):
    b = DivisorClass(3, O)
    calls = [lambda: classify_scroll(s, b)] + [
        lambda query=query, m=m: query(s, SurfaceDivisorClass(m, b))
        for query in (linsys.analyze, linsys.is_bpf, linsys.h0_surface)
        for m in (1, 2, 3)
    ] + [lambda: linsys.h0_surface(s, SurfaceDivisorClass(0, b))]
    for call in calls:
        with pytest.raises(InvalidSurface, match="is not a surface model") as info:
            call()
        assert info.value.code == "InvalidSurface"


@pytest.mark.parametrize("s", [Decomposable(DivisorClass(-1, O)), Indec0(G), IndecMinus1(P0)])
def test_system_entries_refuse_what_is_not_a_system(s):
    b = DivisorClass(3, O)
    H = SurfaceDivisorClass(1, b)
    for value in (None, 3, b, (1, b)):
        for query in (linsys.analyze, linsys.is_bpf, linsys.h0_surface):
            with pytest.raises(InvalidArgument, match="is not a surface divisor class") as info:
                query(s, value)
            assert info.value.code == "InvalidArgument"
    for value in (None, 3, H, (3, O)):
        with pytest.raises(InvalidArgument, match="is not a divisor class") as info:
            classify_scroll(s, value)
        assert info.value.code == "InvalidArgument"



# A system or class whose fields are of the wrong type is refused where it is
# built, so no entry answers for it; each case below builds it inside the call
# that must refuse.
SYSTEM_ENTRIES = (linsys.analyze, linsys.is_bpf, linsys.h0_surface)
ENTRY_SURFACES = [Decomposable(DivisorClass(-1, O)), Indec0(G), IndecMinus1(P0)]


def refused(call, match):
    with pytest.raises(InvalidArgument, match=match) as info:
        call()
    assert info.value.code == "InvalidArgument"


@pytest.mark.parametrize("s", ENTRY_SURFACES, ids=lambda s: s.family())
def test_system_entries_refuse_a_fiber_degree_that_is_not_an_int(s):
    b = DivisorClass(3, O)
    for m in ("1", None, (1,)):
        for query in SYSTEM_ENTRIES:
            refused(lambda: query(s, SurfaceDivisorClass(m, b)), "is not an int")


@pytest.mark.parametrize("s", ENTRY_SURFACES, ids=lambda s: s.family())
def test_system_entries_refuse_a_system_whose_b_is_not_a_class(s):
    for b in (None, "b", O):
        for m in (1, 2):
            for query in SYSTEM_ENTRIES:
                refused(lambda: query(s, SurfaceDivisorClass(m, b)), "is not a divisor class")


@pytest.mark.parametrize("s", ENTRY_SURFACES, ids=lambda s: s.family())
def test_system_entries_refuse_a_class_degree_that_is_not_an_int(s):
    for degree in ("3", None):
        refused(lambda: classify_scroll(s, DivisorClass(degree, O)), "of an int degree")
        for m in (0, 1, 2):
            for query in SYSTEM_ENTRIES:
                if m or query is linsys.h0_surface:
                    refused(
                        lambda: query(s, SurfaceDivisorClass(m, DivisorClass(degree, O))),
                        "of an int degree",
                    )


@pytest.mark.parametrize("s", ENTRY_SURFACES, ids=lambda s: s.family())
def test_system_entries_refuse_a_class_whose_sum_is_not_a_point(s):
    for abel in (None, "x", (0, 0)):
        refused(lambda: classify_scroll(s, DivisorClass(3, abel)), "and a group element")
        for query in SYSTEM_ENTRIES:
            refused(
                lambda: query(s, SurfaceDivisorClass(1, DivisorClass(3, abel))),
                "and a group element",
            )


@pytest.mark.parametrize(
    "call",
    [
        lambda: linsys.analyze(Indec0(G), SurfaceDivisorClass(1.5, DivisorClass(3, O))),
        lambda: classify_scroll(Indec0(G), DivisorClass(3.5, O)),
        lambda: Decomposable(DivisorClass(-1.5, O)).e,
        lambda: Decomposable(DivisorClass(0, None)),
        lambda: linsys.analyze(Indec0(G), SurfaceDivisorClass(True, DivisorClass(3, O))),
    ],
    ids=["analyze-float-m", "classify-float-degree", "dec-float-degree", "dec-None-sum",
         "analyze-bool-m"],
)
def test_a_float_bool_or_None_field_is_refused_not_answered(call):
    # A float raises nothing on the way to an answer: unrefused, these would
    # answer h0 = 7.5, a scroll of degree 7.0 and e = 1.5, and m = True would
    # answer as m = 1.
    with pytest.raises(InvalidArgument) as info:
        call()
    assert info.value.code == "InvalidArgument"


def test_an_error_that_no_bad_field_caused_is_raised_again(monkeypatch):
    # The entries catch nothing: an error of the engine itself passes through
    # them unchanged.
    def broken(*args):
        raise TypeError("engine fault")

    monkeypatch.setattr(linsys, "_row", broken)
    s, H = Indec0(G), SurfaceDivisorClass(1, DivisorClass(3, O))
    for call in (
        lambda: classify_scroll(s, H.b), *(lambda q=q: q(s, H) for q in SYSTEM_ENTRIES)
    ):
        with pytest.raises(TypeError, match="engine fault"):
            call()


ms = st.integers(1, 2)
degs = st.integers(-3, 10)
abels = st.builds(G.element, st.integers(0, 11), st.integers(0, 11))


@given(ms, degs, abels, abels)
def test_euler_characteristic_additive_in_b(m, deg_b, a1, a2):
    s = Decomposable(DivisorClass(-2, a1))
    H = SurfaceDivisorClass(m, DivisorClass(deg_b, a2))
    chi = linsys.euler_characteristic(H.m, H.b.degree, s.e)
    shifted = SurfaceDivisorClass(m, H.b + point_class(G.element(1, 1)))
    assert linsys.euler_characteristic(m, shifted.b.degree, s.e) == chi + (m + 1)


@st.composite
def grid_systems(draw):
    """A surface of the criterion-3 grid (e in [-1, 8]) and a fiber-degree-1
    class with deg b in [-3, 14], on Torus(12,12) or Weierstrass(23,-1,0)."""
    group = draw(st.sampled_from((G, WeierstrassGroup(23, -1, 0))))
    points = st.sampled_from(group.elements())
    e = draw(st.integers(-1, 8))
    if e == -1:
        s = IndecMinus1(draw(points))
    elif e == 0 and draw(st.booleans()):
        s = Indec0(group)
    else:
        s = Decomposable(DivisorClass(-e, draw(points)))
    return s, SurfaceDivisorClass(1, DivisorClass(draw(st.integers(-3, 14)), draw(points)))


@given(grid_systems())
def test_chi_at_fiber_degree_one_is_the_self_intersection(case):
    # classify_scroll reads a scroll's degree H.H as h0 - h1, which is chi.
    s, H = case
    assert linsys.euler_characteristic(1, H.b.degree, s.e) == intersect(s, H, H)
