"""Divisor-class arithmetic and base-curve section counts."""

import pytest
from hypothesis import given, strategies as st

from ellscroll.errors import MixedGroups
from ellscroll.groups import TorusGroup, default_group
from ellscroll.picard import (
    DivisorClass,
    class_of,
    h0,
    h1,
    point_class,
    trivial_class,
)

G = default_group()

elems = st.builds(G.element, st.integers(0, 11), st.integers(0, 11))
classes = st.builds(DivisorClass, st.integers(-6, 6), elems)


def test_class_of_merges_and_cancels_terms():
    p, q = G.element(1, 0), G.element(0, 1)
    c = class_of(G, [(p, 2), (q, 1), (p, -2), (q, 1)])
    assert c == DivisorClass(2, q + q)
    assert class_of(G, [(q, 2)]) == c
    assert class_of(G, []) == trivial_class(G)
    assert class_of(G, [(p, 1), (p, -1)]) == trivial_class(G)


def test_class_of_uses_group_sum():
    p, q = G.element(1, 2), G.element(3, 4)
    c = class_of(G, [(p, 1), (q, 2)])
    assert c.degree == 3
    assert c.abel == p + q + q


@given(st.lists(st.tuples(elems, st.integers(-3, 3)), max_size=5))
def test_class_of_is_the_sum_of_point_classes(terms):
    assert class_of(G, terms) == sum(
        (m * point_class(p) for p, m in terms), trivial_class(G)
    )
    assert class_of(G, terms[::-1]) == class_of(G, terms)


def test_class_of_refuses_a_point_of_another_group():
    with pytest.raises(MixedGroups):
        class_of(G, [(G.element(1, 1), 1), (TorusGroup(5, 5).element(1, 1), 1)])


@given(classes, classes)
def test_class_addition_componentwise(a, b):
    s = a + b
    assert s.degree == a.degree + b.degree
    assert s.abel == a.abel + b.abel
    assert a - b == a + (-b)


@given(classes)
def test_index_identity(c):
    # Degree-0 canonical class makes the count exact for every class.
    assert h0(c) - h1(c) == c.degree


@given(classes)
def test_h0_values(c):
    if c.degree >= 1:
        assert h0(c) == c.degree
    elif c.is_trivial():
        assert h0(c) == 1
    else:
        assert h0(c) == 0


def test_degree_zero_nontrivial_class_has_no_sections():
    c = DivisorClass(0, G.element(5, 0))
    assert h0(c) == 0 and h1(c) == 0
    assert h1(trivial_class(G)) == 1


def test_point_class_and_scalar_mul():
    p = G.element(2, 5)
    assert point_class(p) == DivisorClass(1, p)
    assert 3 * point_class(p) == DivisorClass(3, 3 * p)
    assert 0 * point_class(p) == trivial_class(G)
