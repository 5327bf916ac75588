"""Divisor-class arithmetic and base-curve section counts."""

from hypothesis import given, strategies as st

from ellscroll.groups import default_group
from ellscroll.picard import (
    Divisor,
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


def test_divisor_canonicalization_merges_and_sorts():
    p, q = G.element(1, 0), G.element(0, 1)
    d = Divisor.of(G, (p, 2), (q, 1), (p, -2), (q, 1))
    assert d.terms == ((q, 2),)
    assert d.degree == 2


def test_class_of_uses_group_sum():
    p, q = G.element(1, 2), G.element(3, 4)
    d = Divisor.of(G, (p, 1), (q, 2))
    c = class_of(d)
    assert c.degree == 3
    assert c.abel == p + q + q


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
