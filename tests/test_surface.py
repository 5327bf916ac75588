"""Surface families, intersection/adjunction, and the e = -1 pair geometry."""

import pytest
from hypothesis import given, strategies as st

from ellscroll.errors import (
    InvalidArgument,
    InvalidPointSpec,
    InvalidSecancy,
    InvalidSurface,
    NonNormalizedInput,
)
from ellscroll.groups import TorusGroup, WeierstrassGroup, default_group
from ellscroll.picard import DivisorClass, point_class, trivial_class
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
elems = st.builds(G.element, st.integers(0, 11), st.integers(0, 11))


def surfaces():
    return st.one_of(
        st.builds(
            Decomposable,
            st.builds(DivisorClass, st.integers(-5, 0), elems),
        ),
        st.just(Indec0(G)),
        st.builds(IndecMinus1, elems),
    )


def sys_classes():
    return st.builds(
        SurfaceDivisorClass,
        st.integers(1, 4),
        st.builds(DivisorClass, st.integers(-4, 8), elems),
    )


def test_families_and_invariant():
    dec = Decomposable(DivisorClass(-3, G.zero()))
    assert dec.family() == "dec" and dec.e == 3
    ind0 = Indec0(G)
    assert ind0.family() == "ind0" and ind0.e == 0
    indm1 = IndecMinus1(G.element(1, 1))
    assert indm1.family() == "indm1" and indm1.e == -1
    assert indm1.e_class == point_class(G.element(1, 1))
    for s in (dec, ind0, indm1):
        assert -s.e == s.e_class.degree


def test_decomposable_rejects_positive_degree():
    with pytest.raises(NonNormalizedInput):
        Decomposable(DivisorClass(1, G.zero()))


@pytest.mark.parametrize(
    "value", [None, -1, G.zero(), G], ids=["None", "int", "point", "group"]
)
def test_decomposable_refuses_what_is_not_a_divisor_class(value):
    with pytest.raises(InvalidSurface, match="is not a divisor class") as info:
        Decomposable(value)
    assert info.value.code == "InvalidSurface"


@pytest.mark.parametrize("degree", ["-1", None, (-1,)], ids=["str", "None", "tuple"])
def test_decomposable_refuses_a_class_whose_degree_is_not_an_int(degree):
    # The class refuses its degree where it is built.
    with pytest.raises(InvalidArgument, match="of an int degree") as info:
        Decomposable(DivisorClass(degree, G.zero()))
    assert info.value.code == "InvalidArgument"


@pytest.mark.parametrize(
    "value", [None, "T", G.zero(), point_class(G.zero())], ids=["None", "str", "point", "class"]
)
def test_nonsplit_models_refuse_what_is_not_a_group_model(value):
    with pytest.raises(InvalidSurface, match="is not a group model") as info:
        Indec0(value)
    assert info.value.code == "InvalidSurface"


@pytest.mark.parametrize(
    "value", [None, (0, 0), G, point_class(G.zero())], ids=["None", "tuple", "group", "class"]
)
def test_e_minus_1_model_refuses_what_is_not_a_group_element(value):
    with pytest.raises(InvalidSurface, match="is not a group element") as info:
        IndecMinus1(value)
    assert info.value.code == "InvalidSurface"


@given(surfaces(), sys_classes(), sys_classes())
def test_intersection_symmetric_bilinear(s, A, B):
    assert intersect(s, A, B) == intersect(s, B, A)
    double = SurfaceDivisorClass(2 * A.m, 2 * A.b)
    assert intersect(s, double, B) == 2 * intersect(s, A, B)


@given(surfaces())
def test_minimum_section_self_intersection_is_minus_deg_e(s):
    X0 = SurfaceDivisorClass(1, trivial_class(G))
    assert intersect(s, X0, X0) == s.e_class.degree
    fiber = SurfaceDivisorClass(0, point_class(G.zero()))
    assert intersect(s, X0, fiber) == 1
    assert intersect(s, fiber, fiber) == 0


@given(surfaces(), sys_classes())
def test_genus_by_adjunction_closed_form(s, D):
    # Section classes always have genus 1; higher secancy per closed form.
    g = genus_adjunction(s, D)
    m, db, de = D.m, D.b.degree, s.e_class.degree
    assert g == 1 + (m * (m - 1) * de + (2 * m - 2) * db) // 2
    if D.m == 1:
        assert g == 1


def test_genus_rejects_fiber_classes():
    with pytest.raises(InvalidSecancy):
        genus_adjunction(Indec0(G), SurfaceDivisorClass(0, trivial_class(G)))


# -- e = -1 pair geometry ---------------------------------------------------

S = IndecMinus1(G.zero())


@given(elems, elems)
def test_tau_is_order_insensitive_and_on_correct_fiber(q, r):
    x = tau(S, q, r)
    assert x == tau(S, r, q)
    assert x.t == q + r - S.p0
    assert x.is_focal() == (q == r)


def test_min_curves_two_generically_one_on_diagonal():
    q, r = G.element(1, 0), G.element(0, 2)
    assert len(min_curves_through(S, tau(S, q, r))) == 2
    assert len(min_curves_through(S, tau(S, q, q))) == 1


@pytest.mark.parametrize(
    "x", [None, (G.zero(), G.zero()), G.zero()], ids=["None", "tuple", "point"]
)
def test_min_curves_refuse_what_is_not_a_point_descriptor(x):
    with pytest.raises(InvalidPointSpec, match="is not a point descriptor") as info:
        min_curves_through(S, x)
    assert info.value.code == "InvalidPointSpec"


def test_ramification_points_size_zero_or_four():
    hit = ramification_points(S, G.element(0, 0))
    assert len(hit) == 4
    assert all(2 * r == G.element(0, 0) + S.p0 for r in hit)
    assert ramification_points(S, G.element(1, 0)) == frozenset()


def test_ramification_answers_on_a_torsion_poor_model():
    # Torus(3,9) has odd order, so each fiber has the one halving of t + p0.
    g = TorusGroup(3, 9)
    s = IndecMinus1(g.zero())
    assert ramification_points(s, g.zero()) == frozenset({g.zero()})
    assert ramification_points(s, g.element(1, 0)) == frozenset({g.element(2, 0)})
    assert ramification_points(s, g.element(0, 1)) == frozenset({g.element(0, 5)})


@pytest.mark.parametrize(
    "group, order",
    [(TorusGroup(2, 3), 2), (TorusGroup(3, 9), 1),
     (WeierstrassGroup(23, 1, 0), 2), (WeierstrassGroup(13, 1, 1), 2)],
    ids=str,
)
def test_ramification_matches_a_scan_on_torsion_poor_models(group, order):
    # With 2-torsion of order 2 a fiber has none or two focal points, with
    # order 1 exactly one; the Weierstrass models halve by the quartic.
    sizes = {0, 2} if order == 2 else {1}
    for p0 in (group.zero(), group.nth(1)):
        s = IndecMinus1(p0)
        for t in group.elements():
            scan = frozenset(r for r in group.elements() if r + r == t + p0)
            assert ramification_points(s, t) == scan and len(scan) in sizes, (s, t)


@pytest.mark.parametrize(
    "s",
    [Indec0(G), Decomposable(trivial_class(G)), None, G.zero()],
    ids=["ind0", "dec", "None", "point"],
)
def test_ramification_points_refuse_what_is_not_the_e_minus_1_surface(s):
    with pytest.raises(InvalidSurface, match="only exist on the e=-1 surface") as info:
        ramification_points(s, G.zero())
    assert info.value.code == "InvalidSurface"


@pytest.mark.parametrize(
    "group", [G, TorusGroup(3, 9), WeierstrassGroup(23, -1, 0)], ids=str
)
@pytest.mark.parametrize("t", [None, (0, 0), "O"], ids=repr)
def test_ramification_points_refuse_a_fiber_that_is_not_a_point(group, t):
    # Refused before the torsion check, so also on a torsion-poor model.
    with pytest.raises(InvalidPointSpec, match="is not a group element") as info:
        ramification_points(IndecMinus1(group.zero()), t)
    assert info.value.code == "InvalidPointSpec"


@pytest.mark.parametrize(
    "value", [None, (0, 0), point_class(G.zero())], ids=["None", "tuple", "class"]
)
def test_tau_refuses_what_is_not_a_group_element(value):
    for q, r in ((value, G.zero()), (G.zero(), value)):
        with pytest.raises(InvalidPointSpec, match="is not two group elements") as info:
            tau(S, q, r)
        assert info.value.code == "InvalidPointSpec"
