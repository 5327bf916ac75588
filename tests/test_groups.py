"""Group-model tests: laws, enumeration order, halvings, and the cap."""

import math
import os
import random

import pytest
from hypothesis import given, strategies as st

from ellscroll import groups
from ellscroll.elmtrans import OnX0, Pair, elm
from ellscroll.errors import GroupTooLarge, InvalidArgument, InvalidPointSpec, MixedGroups
from ellscroll.groups import (
    PRIME_CAP,
    GroupElement,
    TorusGroup,
    WeierstrassGroup,
    _half_residues,
    _is_prime,
    _quartic_halvings,
    _sqrt,
    _torus_elements,
    _two_torsion,
    _weierstrass_points,
    check_same_group,
    default_group,
)
from ellscroll.picard import DivisorClass
from ellscroll.surface import Decomposable, IndecMinus1

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
    assert len(G.halvings(G.zero())) == 4


def test_half_residues_match_a_scan_of_every_residue():
    for m in range(1, 60):
        for a in range(m):
            assert _half_residues(a, m) == [x for x in range(m) if (2 * x - a) % m == 0]


def test_halvings_on_a_modulus_near_a_billion():
    big = TorusGroup(10**9 + 6, 2)
    s = big.element(10**9 + 4, 0)
    halves = big.halvings(s)
    assert len(halves) == 4
    assert all(h + h == s for h in halves)
    assert big.halvings(big.element(1, 0)) == frozenset()


def test_enumeration_cap():
    with pytest.raises(GroupTooLarge):
        TorusGroup(200, 200).elements()


@pytest.mark.parametrize(
    "group", [G, TorusGroup(3, 5), WeierstrassGroup(23, -1, 0)], ids=str
)
def test_nth_follows_the_enumeration(group):
    elements = group.elements()
    assert [group.nth(k) for k in range(group.order())] == list(elements)
    for k in (group.order(), -1):
        with pytest.raises(IndexError):
            group.nth(k)


@pytest.mark.parametrize("group", [G, W], ids=str)
def test_elements_is_one_cached_tuple(group):
    assert isinstance(group.elements(), tuple)
    assert group.elements() is group.elements()


def test_torus_element_does_not_enumerate():
    # One element, or a sum, costs O(1) even on a torus within the cap.
    before = _torus_elements.cache_info().currsize
    g = TorusGroup(100, 99)
    assert g.element(5 + 100, 7 - 99) == g.nth(5 * 99 + 7)
    assert g.element(1, 2) + g.element(3, 4) == g.element(4, 6)
    assert _torus_elements.cache_info().currsize == before


def test_large_torus_answers_by_index():
    big = TorusGroup(200, 200)
    assert big.nth(201) == big.element(1, 1)
    assert big.nth(big.order() - 1) == big.element(-1, -1)
    assert big.element(3, 4) + big.element(-3, -4) == big.zero()


def test_mixed_groups_rejected():
    with pytest.raises(MixedGroups):
        G.element(1, 1) + TorusGroup(5, 5).element(1, 1)
    with pytest.raises(MixedGroups):
        G.element(1, 1) - TorusGroup(5, 5).element(1, 1)
    with pytest.raises(MixedGroups):
        W.nth(1) - WeierstrassGroup(23, -1, 0).nth(1)


@pytest.mark.parametrize("group", [G, WeierstrassGroup(23, -1, 0)], ids=str)
def test_operands_that_are_not_elements_or_ints_are_refused(group):
    g = group.nth(1)
    calls = [
        lambda: g * 1.5,
        lambda: 1.5 * g,
        lambda: g * "2",
        lambda: g * g,
        lambda: g * None,
        lambda: g + (1, 1),
        lambda: g + g.coords,
        lambda: g + 1,
        lambda: g + DivisorClass(1, g),
        lambda: g - (1, 1),
        lambda: g - None,
        lambda: DivisorClass(3, g) * 1.5,
        # The kernels called directly, not through the operators.
        lambda: group.mul(1.5, g),
        lambda: group.mul(None, g),
        lambda: group.add(g, (1, 1)),
        lambda: group.add((1, 1), g),
        lambda: group.add(group.zero(), DivisorClass(1, g)),
        lambda: group.sub(None, g),
        lambda: group.sub(g, DivisorClass(1, g)),
    ]
    for call in calls:
        with pytest.raises(InvalidArgument) as info:
            call()
        assert info.value.code == "InvalidArgument"
    # An int subclass is still an int.
    assert True * g == g and g * False == group.zero() and group.mul(True, g) == g


def test_element_equality_and_hash_follow_coords_and_group():
    a, b = TorusGroup(4, 4).element(1, 2), TorusGroup(4, 4).element(1, 2)
    assert a.group is not b.group and a == b and hash(a) == hash(b)
    assert len({a, b}) == 1
    other = TorusGroup(4, 5).element(1, 2)
    assert other.coords == a.coords and other != a
    assert W.zero() == WeierstrassGroup(13, 2, 3).zero()
    assert a != G.element(1, 3) and a != (1, 2)


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


def test_weierstrass_scalar_mul_is_repeated_addition():
    W23 = WeierstrassGroup(23, -1, 0)
    for P in W23.elements():
        acc = W23.zero()
        for k in range(41):
            assert W23.mul(k, P) == acc
            assert W23.mul(-k, P) == -acc
            acc = acc + P


def test_weierstrass_mul_doubles_only_while_bits_remain(monkeypatch):
    W23 = WeierstrassGroup(23, -1, 0)
    P = W23.nth(1)
    calls = []
    real = WeierstrassGroup.add

    def counted(self, g, h):
        calls.append((g, h))
        return real(self, g, h)

    monkeypatch.setattr(WeierstrassGroup, "add", counted)
    counts = []
    for k in (1, 2, 3):
        calls.clear()
        W23.mul(k, P)
        counts.append(len(calls))
    # One addition per set bit and one doubling per bit after the lowest.
    assert counts == [1, 2, 3]


def test_weierstrass_order_matches_hasse_window():
    n = W.order()
    assert abs(n - 14) <= 8  # |n - (p+1)| <= 2*sqrt(p)


def test_weierstrass_rejects_singular_curve():
    with pytest.raises(ValueError):
        WeierstrassGroup(13, 0, 0)


def test_weierstrass_rejects_composite_modulus():
    with pytest.raises(ValueError):
        WeierstrassGroup(15, 2, 3)


@pytest.mark.parametrize("p", [101 * 101, 9973 * 9967])
def test_weierstrass_rejects_composite_without_small_factor(p):
    with pytest.raises(ValueError, match="not a small odd prime"):
        WeierstrassGroup(p, 2, 3)


def test_weierstrass_accepts_primes_up_to_the_cap():
    assert WeierstrassGroup(10007, 1, 1).p == 10007
    with pytest.raises(ValueError, match="exceeds cap"):
        WeierstrassGroup(PRIME_CAP + 39, 1, 1)


@pytest.mark.parametrize(
    "call, text",
    [
        (lambda: TorusGroup(0, 12), "torus moduli must be positive"),
        (lambda: WeierstrassGroup(PRIME_CAP + 39, 1, 1), "exceeds cap"),
        (lambda: WeierstrassGroup(15, 2, 3), "not a small odd prime"),
        (lambda: WeierstrassGroup(13, 0, 0), "singular curve"),
        (lambda: WeierstrassGroup(23, -1, 0).point(1, 1), "is not on the curve"),
    ],
    ids=["torus-moduli", "cap", "composite", "singular", "off-curve"],
)
def test_group_refusals_carry_the_invalid_argument_code(call, text):
    # A ValueError still, so the CLI reports each with its old text.
    with pytest.raises(InvalidArgument, match=text) as info:
        call()
    assert info.value.code == "InvalidArgument"


#: Each group constructor and coordinate reader, with int fields that make a
#: value; the sweep puts a value of another class in each field in turn.
GROUP_FIELD_CALLS = {
    "TorusGroup": (TorusGroup, (12, 12)),
    "WeierstrassGroup": (WeierstrassGroup, (23, -1, 0)),
    "element": (G.element, (1, 2)),
    "point": (WeierstrassGroup(23, -1, 0).point, (0, 0)),
}


@pytest.mark.parametrize("bad", [1.5, True, None, "3"], ids=repr)
@pytest.mark.parametrize("name", GROUP_FIELD_CALLS)
def test_group_fields_refuse_a_value_of_another_class_sweep(name, bad):
    # Unrefused, element(1.5, 2) built a float point that the kernels added
    # and halved without complaint, and TorusGroup(True, 2) had order 2.
    call, fields = GROUP_FIELD_CALLS[name]
    call(*fields)
    for i in range(len(fields)):
        with pytest.raises(InvalidArgument, match="not ints"):
            call(*fields[:i], bad, *fields[i + 1:])


def test_weierstrass_halvings_consistent():
    for s in W.elements():
        for h in W.halvings(s):
            assert h + h == s


def scan_halvings(group):
    """The halvings of every point by a scan over the curve: each point r is
    doubled once and filed under r + r.  This is the enumeration that
    ``WeierstrassGroup.halvings`` replaced, kept here as its oracle."""
    table = {s: set() for s in group.elements()}
    for r in group.elements():
        table[group.add(r, r)].add(r)
    return {s: frozenset(rs) for s, rs in table.items()}


def two_torsion_by_scan(p, a, b):
    return 1 + sum((x**3 + a * x + b) % p == 0 for x in range(p))


def curves(p):
    return [
        (a, b) for a in range(p) for b in range(p) if (4 * a**3 + 27 * b**2) % p
    ]


def check_halvings_against_scan(group, points=None):
    table = scan_halvings(group)
    for s in table if points is None else points:
        assert group.halvings(s) == table[s], (group, s)


def test_weierstrass_halvings_match_the_scan_on_a_sample_of_curves():
    # For each prime, the first curve of each 2-torsion order (1, 2 or 4) in
    # a seeded shuffle; every point, so S = O and S of order 2 are covered.
    rng = random.Random(9)
    primes = (3, 5, 7, 11, 13, 17, 23, 29, 41, 89, 97, 101, 103)
    seen = set()
    for p in primes:
        sample = curves(p)
        rng.shuffle(sample)
        orders = set()
        for a, b in sample:
            order = two_torsion_by_scan(p, a, b)
            if order in orders:
                continue
            orders.add(order)
            group = WeierstrassGroup(p, a, b)
            assert len(group.halvings(group.zero())) == order
            check_halvings_against_scan(group)
            seen.add((order, p % 4))
            if len(orders) == 3:
                break
    assert seen == {(order, r) for order in (1, 2, 4) for r in (1, 3)}


FUZZ_FRESH = os.environ.get("ELLSCROLL_FUZZ") == "1"


@pytest.mark.skipif(not FUZZ_FRESH, reason="the whole sweep runs with ELLSCROLL_FUZZ=1")
def test_weierstrass_halvings_sweep_every_curve_below_60():
    for p in filter(_is_prime, range(3, 60)):
        for a, b in curves(p):
            check_halvings_against_scan(WeierstrassGroup(p, a, b))


@pytest.mark.skipif(not FUZZ_FRESH, reason="the whole sweep runs with ELLSCROLL_FUZZ=1")
@pytest.mark.parametrize("p", [4993, 4999])
def test_weierstrass_halvings_sweep_near_the_enumeration_cap(p):
    # y^2 = x^3 - x, with full 2-torsion, and a seeded curve: 100 points each.
    rng = random.Random(p)
    a, b = 0, 0
    while (4 * a**3 + 27 * b**2) % p == 0:
        a, b = rng.randrange(p), rng.randrange(p)
    for group in (WeierstrassGroup(p, -1, 0), WeierstrassGroup(p, a, b)):
        check_halvings_against_scan(group, rng.sample(group.elements(), 100))


def test_weierstrass_halvings_on_a_prime_near_the_cap():
    p = 999_999_999_989  # p = 1 mod 4: square roots by Tonelli-Shanks
    big = WeierstrassGroup(p, -1, 0)
    x = 10**6
    while _sqrt((x**3 - x) % p, p) is None:
        x += 1
    P = big.point(x, _sqrt((x**3 - x) % p, p))
    S = P + P
    halves = big.halvings(S)
    assert len(halves) == 4 and P in halves
    assert all(r + r == S for r in halves)
    assert len(big.halvings(big.zero())) == 4


def full_two_torsion_curves(p):
    """(a, b) of every curve over F_p whose cubic has three roots in F_p, up
    to isomorphism: (x - e1)(x - e2)(x - e3) with e1 + e2 + e3 = 0, one triple
    per curve, and one curve of each class (a, b) ~ (c^2 a, c^3 b), c a nonzero
    square (the isomorphisms (x, y) -> (u^2 x, u^3 y) with c = u^2)."""
    squares = {u * u % p for u in range(1, p)}
    seen = set()
    for e1 in range(p):
        for e2 in range(e1 + 1, p):
            e3 = -(e1 + e2) % p
            if e3 > e2:
                a, b = (e1 * e2 + e1 * e3 + e2 * e3) % p, -e1 * e2 * e3 % p
                if (a, b) not in seen:
                    seen.update((c * c * a % p, c * c * c * b % p) for c in squares)
                    yield a, b


@pytest.mark.parametrize(
    "group",
    [WeierstrassGroup(13, -1, 0), WeierstrassGroup(17, -7, 6), WeierstrassGroup(101, -1, 0),
     WeierstrassGroup(19, -7, 6), WeierstrassGroup(23, -1, 0), WeierstrassGroup(103, -1, 0)],
    ids=str,
)
def test_weierstrass_descent_matches_the_quartic_and_the_scan(group):
    # p = 1 and p = 3 mod 4, on y^2 = x^3 - x and on the roots 1, 2, -3.
    assert len(group.halvings(group.zero())) == 4
    table = scan_halvings(group)
    order_two = [s for s in table if s.coords is not None and s.coords[1] == 0]
    assert len(order_two) == 3 and group.zero() in table
    for s in table:
        assert group.halvings(s) == _quartic_halvings(group, s) == table[s], s
    assert sum(len(halves) == 4 for halves in table.values()) == len(table) // 4


def test_weierstrass_descent_finds_no_polynomial_roots(monkeypatch):
    group = WeierstrassGroup(103, -1, 0)
    assert len(_two_torsion(group)) == 4
    table = scan_halvings(group)

    def refuse(*args):
        raise AssertionError("the descent does not find polynomial roots")

    monkeypatch.setattr(groups, "_roots", refuse)
    for s in table:
        assert group.halvings(s) == table[s]


def test_weierstrass_descent_on_a_prime_near_the_cap():
    p = 999_999_999_989  # p = 1 mod 4: square roots by Tonelli-Shanks
    big = WeierstrassGroup(p, -1, 0)
    rng = random.Random(p)
    points = [big.zero(), big.point(0, 0), big.point(1, 0), big.point(-1, 0)]
    while len(points) < 40:
        x = rng.randrange(p)
        y = _sqrt((x**3 - x) % p, p)
        if y is not None:
            points += [big.point(x, y), big.point(x, y) * 2]
    halved = 0
    for s in points:
        halves = big.halvings(s)
        assert len(halves) in (0, 4) and all(r + r == s for r in halves)
        assert halves == _quartic_halvings(big, s)
        halved += bool(halves)
    assert halved >= 19  # O and the 18 doubles, at least


@pytest.mark.skipif(not FUZZ_FRESH, reason="the whole sweep runs with ELLSCROLL_FUZZ=1")
def test_weierstrass_descent_sweep_every_full_two_torsion_curve_below_200():
    # Up to isomorphism: every curve and every point over p < 200 takes the
    # quartic about ten minutes.
    for p in filter(_is_prime, range(3, 200)):
        for a, b in full_two_torsion_curves(p):
            group = WeierstrassGroup(p, a, b)
            assert len(group.halvings(group.zero())) == 4, group
            # The enumeration without its cache, which would keep every curve.
            for s in _weierstrass_points.__wrapped__(group):
                assert group.halvings(s) == _quartic_halvings(group, s), (group, s)


@pytest.mark.parametrize("group", [G, W, WeierstrassGroup(23, -1, 0)], ids=str)
@pytest.mark.parametrize("value", [None, (0, 0), "O"], ids=repr)
def test_halvings_refuse_what_is_not_a_group_element(group, value):
    with pytest.raises(InvalidPointSpec, match="is not a group element") as info:
        group.halvings(value)
    assert info.value.code == "InvalidPointSpec"


@pytest.mark.parametrize(
    "group",
    [G, TorusGroup(3, 5), TorusGroup(2, 9), TorusGroup(1, 1), W,
     WeierstrassGroup(23, -1, 0), WeierstrassGroup(23, 1, 0)],
    ids=str,
)
def test_two_torsion_order_counts_the_halvings_of_zero(group):
    # The halvings of zero are the 2-torsion, found by a scan of the group.
    assert group.halvings(group.zero()) == {g for g in group.elements() if (g + g).is_zero()}


def test_is_prime_matches_trial_division():
    divisors = [d for d in range(2, 317) if all(d % e for e in range(2, d))]
    for n in range(10**5):
        root = math.isqrt(n)
        expected = n > 1 and all(n % d for d in divisors if d <= root)
        assert _is_prime(n) == expected, n


@pytest.mark.parametrize(
    "n", [2047, 1373653, 25326001, 3215031751, 2152302898747, 101 * 101]
)
def test_is_prime_rejects_strong_pseudoprimes(n):
    # Each of the first five fools every Miller-Rabin base below the next prime.
    assert not _is_prime(n)


def test_sqrt_on_both_residue_classes_of_p():
    for p in (23, 97, 103, 10009):
        squares = {x * x % p for x in range(p)}
        for v in range(min(p, 500)):
            y = _sqrt(v, p)
            if v in squares:
                assert y * y % p == v
            else:
                assert y is None


def test_identity_test_reads_the_identity_coords():
    # (0, 0) lies on y^2 = x^3 - x as a point of order 2, so it is not the
    # Weierstrass identity, which has no coords.
    W23 = WeierstrassGroup(23, -1, 0)
    two_torsion = W23.point(0, 0)
    assert not two_torsion.is_zero()
    assert (two_torsion + two_torsion).is_zero() and W23.zero().is_zero()
    T = TorusGroup(3, 5)
    assert T.zero().is_zero() and T.nth(0).is_zero()
    assert not T.element(0, 1).is_zero() and not T.element(1, 0).is_zero()


@pytest.mark.parametrize(
    "group", [TorusGroup(3, 5), TorusGroup(4, 4), WeierstrassGroup(23, -1, 0)], ids=str
)
def test_subtraction_adds_the_negative(group):
    points = group.elements()
    for a in points:
        assert (a - a).is_zero()
        for b in points:
            assert a - b == a + (-b)


# -- the identity-first same-group test ---------------------------------------
#
# The kernels call ``check_same_group`` only when the two operands hold
# different group objects.  The reference below calls it, and builds its
# answer with ``element()`` or ``point()``, on every operation.


def reference_neg(g):
    group = g.group
    if group.__class__ is TorusGroup:
        return group.element(-g.coords[0], -g.coords[1])
    return group.zero() if g.coords is None else group.point(g.coords[0], -g.coords[1])


def reference_add(g, h):
    check_same_group(g.group, h.group)
    group = g.group
    if group.__class__ is TorusGroup:
        return group.element(g.coords[0] + h.coords[0], g.coords[1] + h.coords[1])
    if g.coords is None or h.coords is None:
        other = h if g.coords is None else g
        return group.zero() if other.coords is None else group.point(*other.coords)
    p, (x1, y1), (x2, y2) = group.p, g.coords, h.coords
    if x1 == x2 and (y1 + y2) % p == 0:
        return group.zero()
    if (x1, y1) == (x2, y2):
        lam = (3 * x1 * x1 + group.a) * pow(2 * y1, -1, p)
    else:
        lam = (y2 - y1) * pow(x2 - x1, -1, p)
    x3 = lam * lam - x1 - x2
    return group.point(x3, lam * (x1 - x3) - y1)


def reference_sub(g, h):
    check_same_group(g.group, h.group)
    return reference_add(g, reference_neg(h))


def rebuilt(group, g):
    """``g`` as an element of ``group``, an equal model built apart."""
    if g.coords is None:
        return group.zero()
    if group.__class__ is TorusGroup:
        return group.element(*g.coords)
    return group.point(*g.coords)


def same(result, expected):
    return (
        result.__class__ is GroupElement
        and result == expected
        and result.coords.__class__ is expected.coords.__class__
    )


KERNEL_GROUPS = [TorusGroup(2, 6), TorusGroup(12, 12), WeierstrassGroup(23, -1, 0)]


def check_kernel(group, pairs):
    twin = group.__class__(*(getattr(group, f) for f in group._fields))
    assert twin == group and twin is not group
    points = group.elements()
    for g in points:
        assert same(-g, reference_neg(g)) and (-g).group == group
        if group.__class__ is TorusGroup:
            for k in range(-3, 4):
                assert same(k * g, group.element(k * g.coords[0], k * g.coords[1]))
    for i, j in pairs:
        g, h = points[i], points[j]
        for right in (h, rebuilt(twin, h)):
            assert same(g + right, reference_add(g, h)), (g, right)
            assert same(g - right, reference_sub(g, h)), (g, right)


@pytest.mark.parametrize("group", KERNEL_GROUPS, ids=str)
def test_group_kernel_matches_the_reference_on_a_sample(group):
    n = group.order()
    rng = random.Random(f"kernel {group}")
    pairs = [(rng.randrange(n), rng.randrange(n)) for _ in range(300)]
    # Every pair with the identity or a point of order 2 on either side.
    special = [k for k, g in enumerate(group.elements()) if (g + g).is_zero()]
    pairs += [(i, j) for i in special for j in range(n)] + [(j, i) for i in special for j in range(n)]
    check_kernel(group, pairs)


@pytest.mark.skipif(not FUZZ_FRESH, reason="the whole sweep runs with ELLSCROLL_FUZZ=1")
@pytest.mark.parametrize("group", KERNEL_GROUPS, ids=str)
def test_group_kernel_matches_the_reference_sweep(group):
    n = group.order()
    check_kernel(group, [(i, j) for i in range(n) for j in range(n)])


def test_equal_groups_built_apart_still_combine():
    T1, T2 = TorusGroup(4, 4), TorusGroup(4, 4)
    a, b = T1.element(1, 2), T2.element(3, 1)
    assert a + b == T1.element(0, 3) and b + a == T2.element(0, 3)
    assert a - b == T1.element(2, 1) and b - a == T2.element(2, 3)
    assert -a == T2.element(3, 2) and (-a).group is T1
    assert elm(Decomposable(DivisorClass(-1, a)), OnX0(b)).model == Decomposable(
        DivisorClass(-2, T1.element(2, 1))
    )
    # The cached points hold the first equal model that built them, not a
    # model built later; points made by ``point`` hold their own model.
    W1 = WeierstrassGroup(23, -1, 0)
    W1.elements()
    W2 = WeierstrassGroup(23, -1, 0)
    cached, own = W2.nth(3), W2.point(*W2.nth(5).coords)
    assert cached.group is not W2 and own.group is W2
    for g, h in ((cached, own), (own, cached), (W2.zero(), cached), (cached, W2.zero())):
        assert g + h == reference_add(g, h) and g - h == reference_sub(g, h)
        assert -g == reference_neg(g)
    assert own - own == W1.zero() and cached - W2.point(*cached.coords) == W1.zero()
    assert elm(IndecMinus1(own), Pair(cached, own)).model == elm(
        IndecMinus1(W1.nth(5)), Pair(W1.nth(3), W1.nth(5))
    ).model


def test_unequal_groups_raise_mixed_groups():
    W23, W11, T = WeierstrassGroup(23, -1, 0), WeierstrassGroup(11, -1, 0), TorusGroup(4, 4)
    g, foreign = W23.point(0, 0), W11.point(0, 0)
    calls = [
        lambda: T.element(1, 1) + TorusGroup(4, 2).element(1, 1),
        lambda: T.element(1, 1) - TorusGroup(2, 4).element(1, 1),
        lambda: T.element(1, 1) + g,
        lambda: g + foreign,
        lambda: W23.zero() + foreign,
        lambda: g + W11.zero(),
        # Only h is foreign: the check comes before h is negated into W23.
        lambda: g - foreign,
        lambda: g - W11.zero(),
        lambda: W23.sub(g, foreign),
        lambda: W23.zero() - foreign,
        lambda: elm(Decomposable(DivisorClass(-1, T.zero())), OnX0(TorusGroup(2, 2).zero())),
        lambda: elm(IndecMinus1(g), Pair(foreign, foreign)),
    ]
    for call in calls:
        with pytest.raises(MixedGroups):
            call()
