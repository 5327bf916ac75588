"""Finite abelian group models of the point group of a genus-1 curve.

Two model families are provided:

* :class:`TorusGroup` -- the product group Z/m x Z/n.  The default desk-scale
  model is Torus(12, 12): it has full 2-torsion (four square roots of any
  divisible element) and 3-torsion headroom.
* :class:`WeierstrassGroup` -- the rational points of y^2 = x^3 + ax + b over
  a small prime field, with the chord-tangent group law.  Provided for
  realism and cross-validation of the torus model.

All values are immutable and all operations are pure functions, so they can
be shared freely between threads.  Every enumeration is returned in a fixed
lexicographic order to keep set-valued results deterministic.

This module is the only one that knows that order.  ``elements()`` returns
the whole enumeration as a tuple that is built once per group and cached.
``nth(k)`` returns its k-th element: the torus computes it from ``k`` alone,
so callers that need a few elements, or one drawn at random, never
enumerate the group; a Weierstrass model indexes its cached tuple.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

from .errors import GroupTooLarge, MixedGroups

#: Largest group order that ``elements()`` will enumerate.
ENUMERATION_CAP = 10_000

#: Largest field size of a Weierstrass model, so that the primality check
#: (trial division up to the square root) takes at most 10^6 steps.
PRIME_CAP = 10**12


@dataclass(frozen=True, slots=True)
class GroupElement:
    """An element of a :class:`TorusGroup` or :class:`WeierstrassGroup`.

    ``coords`` is ``(i, j)`` for the torus model, ``(x, y)`` for an affine
    Weierstrass point, and ``None`` for the Weierstrass identity (rendered as
    the token ``"O"``).
    """

    group: "TorusGroup | WeierstrassGroup"
    coords: tuple[int, int] | None

    # Equal elements have equal coords, so hashing the coords alone keeps
    # the hash contract and skips hashing the group on every set lookup.
    def __hash__(self) -> int:
        return hash(self.coords)

    def __eq__(self, other: object) -> bool:
        if self is other:
            return True
        if other.__class__ is not GroupElement:
            return NotImplemented
        return self.coords == other.coords and (
            self.group is other.group or self.group == other.group
        )

    def __add__(self, other: "GroupElement") -> "GroupElement":
        return self.group.add(self, other)

    def __neg__(self) -> "GroupElement":
        return self.group.neg(self)

    def __sub__(self, other: "GroupElement") -> "GroupElement":
        return self.group.sub(self, other)

    def __mul__(self, k: int) -> "GroupElement":
        return self.group.mul(k, self)

    __rmul__ = __mul__

    def is_zero(self) -> bool:
        # Compares with the identity's coords without building it; (0, 0)
        # is a point of order 2 on y^2 = x^3 - x, not its identity.
        return self.coords == self.group.ZERO_COORDS

    def sort_key(self) -> tuple:
        # Identity sorts first in the Weierstrass model.
        if self.coords is None:
            return (0,)
        return (1,) + self.coords

    def __str__(self) -> str:
        if self.coords is None:
            return "O"
        return f"({self.coords[0]},{self.coords[1]})"


def _check_same_group(g: GroupElement, h: GroupElement) -> None:
    if g.group is not h.group and g.group != h.group:
        raise MixedGroups(
            f"elements of {g.group} and {h.group} cannot be combined"
        )


@dataclass(frozen=True, slots=True)
class TorusGroup:
    """The group Z/m x Z/n with componentwise addition."""

    m: int
    n: int

    ZERO_COORDS = (0, 0)

    def __post_init__(self) -> None:
        if self.m < 1 or self.n < 1:
            raise ValueError("torus moduli must be positive")

    def element(self, i: int, j: int) -> GroupElement:
        return GroupElement(self, (i % self.m, j % self.n))

    def zero(self) -> GroupElement:
        return GroupElement(self, self.ZERO_COORDS)

    def order(self) -> int:
        return self.m * self.n

    def add(self, g: GroupElement, h: GroupElement) -> GroupElement:
        _check_same_group(g, h)
        return self.element(g.coords[0] + h.coords[0], g.coords[1] + h.coords[1])

    def sub(self, g: GroupElement, h: GroupElement) -> GroupElement:
        _check_same_group(g, h)
        return self.element(g.coords[0] - h.coords[0], g.coords[1] - h.coords[1])

    def neg(self, g: GroupElement) -> GroupElement:
        return self.element(-g.coords[0], -g.coords[1])

    def mul(self, k: int, g: GroupElement) -> GroupElement:
        return self.element(k * g.coords[0], k * g.coords[1])

    def elements(self) -> tuple[GroupElement, ...]:
        if self.order() > ENUMERATION_CAP:
            raise GroupTooLarge(
                f"group order {self.order()} exceeds cap {ENUMERATION_CAP}"
            )
        return _torus_elements(self)

    def nth(self, k: int) -> GroupElement:
        """The k-th element of ``elements()``, without enumerating."""
        if not 0 <= k < self.order():
            raise IndexError(f"{self} has no element number {k}")
        return GroupElement(self, divmod(k, self.n))

    def halvings(self, s: GroupElement) -> frozenset[GroupElement]:
        """All elements r with r + r = s (possibly empty)."""
        _check_same_group(s, self.zero())
        out = []
        for i in _half_residues(s.coords[0], self.m):
            for j in _half_residues(s.coords[1], self.n):
                out.append(self.element(i, j))
        return frozenset(out)

    def __str__(self) -> str:
        return f"Torus({self.m},{self.n})"


@lru_cache(maxsize=None)
def _torus_elements(group: TorusGroup) -> tuple[GroupElement, ...]:
    return tuple(
        GroupElement(group, (i, j)) for i in range(group.m) for j in range(group.n)
    )


def _half_residues(a: int, m: int) -> list[int]:
    """Solutions x of 2x = a (mod m), for 0 <= a < m."""
    if m % 2:
        # (m + 1) / 2 is the inverse of 2 modulo an odd m.
        return [a * (m + 1) // 2 % m]
    if a % 2:
        return []
    return [a // 2, a // 2 + m // 2]


@dataclass(frozen=True, slots=True)
class WeierstrassGroup:
    """Rational points of y^2 = x^3 + ax + b over F_p, p an odd prime."""

    p: int
    a: int
    b: int

    ZERO_COORDS = None

    def __post_init__(self) -> None:
        p, a, b = self.p, self.a, self.b
        if p > PRIME_CAP:
            raise ValueError(f"field size {p} exceeds cap {PRIME_CAP}")
        if p < 3 or any(p % d == 0 for d in range(2, math.isqrt(p) + 1)):
            raise ValueError(f"{p} is not a small odd prime")
        if (4 * a**3 + 27 * b**2) % p == 0:
            raise ValueError("singular curve: 4a^3 + 27b^2 = 0 mod p")

    def zero(self) -> GroupElement:
        return GroupElement(self, self.ZERO_COORDS)

    def point(self, x: int, y: int) -> GroupElement:
        x, y = x % self.p, y % self.p
        if (y * y - (x**3 + self.a * x + self.b)) % self.p != 0:
            raise ValueError(f"({x},{y}) is not on the curve")
        return GroupElement(self, (x, y))

    def add(self, g: GroupElement, h: GroupElement) -> GroupElement:
        _check_same_group(g, h)
        if g.coords is None:
            return h
        if h.coords is None:
            return g
        p = self.p
        x1, y1 = g.coords
        x2, y2 = h.coords
        if x1 == x2 and (y1 + y2) % p == 0:
            return self.zero()
        if g == h:
            lam = (3 * x1 * x1 + self.a) * pow(2 * y1, -1, p) % p
        else:
            lam = (y2 - y1) * pow(x2 - x1, -1, p) % p
        x3 = (lam * lam - x1 - x2) % p
        y3 = (lam * (x1 - x3) - y1) % p
        return GroupElement(self, (x3, y3))

    def sub(self, g: GroupElement, h: GroupElement) -> GroupElement:
        _check_same_group(g, h)
        return self.add(g, self.neg(h))

    def neg(self, g: GroupElement) -> GroupElement:
        if g.coords is None:
            return g
        return GroupElement(self, (g.coords[0], (-g.coords[1]) % self.p))

    def mul(self, k: int, g: GroupElement) -> GroupElement:
        if k < 0:
            return self.mul(-k, self.neg(g))
        acc = self.zero()
        addend = g
        while k:
            if k & 1:
                acc = self.add(acc, addend)
            k >>= 1
            if k:
                addend = self.add(addend, addend)
        return acc

    def order(self) -> int:
        return len(_weierstrass_points(self))

    def elements(self) -> tuple[GroupElement, ...]:
        return _weierstrass_points(self)

    def nth(self, k: int) -> GroupElement:
        """The k-th element of ``elements()``."""
        points = _weierstrass_points(self)
        if not 0 <= k < len(points):
            raise IndexError(f"{self} has no element number {k}")
        return points[k]

    def halvings(self, s: GroupElement) -> frozenset[GroupElement]:
        _check_same_group(s, self.zero())
        return frozenset(r for r in self.elements() if self.add(r, r) == s)

    def __str__(self) -> str:
        return f"Weierstrass({self.p},{self.a},{self.b})"


@lru_cache(maxsize=None)
def _weierstrass_points(group: WeierstrassGroup) -> tuple[GroupElement, ...]:
    p = group.p
    if 2 * p + 1 > ENUMERATION_CAP:
        raise GroupTooLarge(f"curve over F_{p} may exceed cap {ENUMERATION_CAP}")
    points = [group.zero()]
    squares: dict[int, list[int]] = {}
    for y in range(p):
        squares.setdefault(y * y % p, []).append(y)
    for x in range(p):
        rhs = (x**3 + group.a * x + group.b) % p
        for y in squares.get(rhs, ()):
            points.append(GroupElement(group, (x, y)))
    points.sort(key=GroupElement.sort_key)
    return tuple(points)


CurveGroup = TorusGroup | WeierstrassGroup


def default_group() -> TorusGroup:
    """The desk-scale default model."""
    return TorusGroup(12, 12)
