"""Group-model tests: laws, enumeration order, halvings, and the cap."""

import pytest
from hypothesis import given, strategies as st

from ellscroll.errors import GroupTooLarge, MixedGroups
from ellscroll.groups import (
    TorusGroup,
    WeierstrassGroup,
    default_group,
    two_torsion,
)

G = default_group()
W = WeierstrassGroup(13, 2, 3)

torus_elems = st.builds(G.element, st.integers(0, 11), st.integers(0, 11))


@given(torus_elems, torus_elems, torus_elems)
def test_torus_abelian_group_laws(a, b, c):
    assert a + b == b + a
    assert (a + b) + c == a + (b + c)
    assert a + G.zero() == a
    assert (a - a).is_zero()


@given(torus_elems, st.integers(-30, 30))
def test_torus_scalar_mul_is_repeated_addition(a, k):
    acc = G.zero()
    step = a if k >= 0 else -a
    for _ in range(abs(k)):
        acc = acc + step
    assert k * a == acc


def test_default_group_is_12_by_12():
    assert G == TorusGroup(12, 12)
    assert G.order() == 144
    assert len(G.elements()) == 144


def test_torus_halvings_size_and_correctness():
    # 2G has index 4 in Z/12 x Z/12; elements of 2G have exactly 4 halvings.
    s = G.element(4, 6)
    halves = G.halvings(s)
    assert len(halves) == 4
    assert all(h + h == s for h in halves)
    assert G.halvings(G.element(1, 0)) == frozenset()


def test_two_torsion_of_default_group_has_order_four():
    assert len(two_torsion(G)) == 4


def test_enumeration_cap():
    with pytest.raises(GroupTooLarge):
        TorusGroup(200, 200).elements()


def test_mixed_groups_rejected():
    with pytest.raises(MixedGroups):
        G.element(1, 1) + TorusGroup(5, 5).element(1, 1)


def test_element_rendering():
    assert str(G.element(3, 4)) == "(3,4)"
    assert str(W.zero()) == "O"


def test_weierstrass_group_laws_exhaustive():
    pts = W.elements()
    zero = W.zero()
    for a in pts:
        assert a + zero == a
        assert (a - a) == zero
        for b in pts:
            assert a + b == b + a
            assert (a + b) in pts


def test_weierstrass_order_matches_hasse_window():
    n = W.order()
    assert abs(n - 14) <= 8  # |n - (p+1)| <= 2*sqrt(p)


def test_weierstrass_rejects_singular_curve():
    with pytest.raises(ValueError):
        WeierstrassGroup(13, 0, 0)


def test_weierstrass_rejects_composite_modulus():
    with pytest.raises(ValueError):
        WeierstrassGroup(15, 2, 3)


def test_weierstrass_halvings_consistent():
    for s in W.elements():
        for h in W.halvings(s):
            assert h + h == s
