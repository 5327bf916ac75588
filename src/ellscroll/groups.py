"""Finite abelian group models of the point group of a genus-1 curve.

Two model families are provided:

* :class:`TorusGroup` -- the product group Z/m x Z/n.  The default desk-scale
  model is Torus(12, 12): it has full 2-torsion (four square roots of any
  divisible element) and 3-torsion headroom.
* :class:`WeierstrassGroup` -- the rational points of y^2 = x^3 + ax + b over
  a prime field F_p, p <= 10^12, with the chord-tangent group law.  Provided
  for realism and cross-validation of the torus model.

All values are immutable and all operations are pure functions, so they can
be shared freely between threads.  Every enumeration is returned in a fixed
lexicographic order to keep set-valued results deterministic.

This module is the only one that knows that order.  ``elements()`` returns
the whole enumeration as a tuple that is built once per group and cached.
``nth(k)`` returns its k-th element: the torus computes it from ``k`` alone,
so callers that need a few elements, or one drawn at random, never
enumerate the group; a Weierstrass model indexes its cached tuple.

Halvings never enumerate.  The torus halves each coordinate.  A Weierstrass
model whose cubic has three roots e1, e2, e3 in F_p (2-torsion of order 4)
halves by 2-descent: three square roots of x(S) - ei and a few products
(Knapp, *Elliptic Curves*, IV; Husemoller, *Elliptic Curves*, 1.4).  A model
with 2-torsion of order 1 or 2 finds the x-coordinates of the halves of S as
the roots in F_p of the halving quartic (x(2R) = x(S), Silverman III.2).
Either way halvings answer for any prime up to ``PRIME_CAP``.  The order, the
elements and ``nth`` of a Weierstrass model still enumerate it and need
p < 5000.

A binary operation first tests whether its two operands hold the same group
object, and calls ``check_same_group`` only when they do not: equal groups
built apart still combine, since the CLI builds a fresh model for each line
and the cached Weierstrass points hold the first equal model that built
them, and unequal groups raise ``MixedGroups``.  The models, ``element`` and
``point`` refuse a field that is not an ``int`` with ``InvalidArgument``;
``GroupElement(...)`` checks nothing.  The kernels build their result with it
directly, and refuse with ``InvalidArgument`` a scalar that is not an ``int``
and, once reading its group or coords has failed, an operand that is not an
element; the operators of ``GroupElement`` only call them.
"""

from __future__ import annotations

from functools import lru_cache

from .errors import GroupTooLarge, InvalidArgument, InvalidPointSpec, MixedGroups
from .values import Value

#: Largest group order that ``elements()`` will enumerate.
ENUMERATION_CAP = 10_000

#: Largest field size of a Weierstrass model: below it, Miller-Rabin on the
#: bases ``_MR_BASES`` decides primality exactly.
PRIME_CAP = 10**12

#: Miller-Rabin bases with no strong pseudoprime below 3,474,749,660,383.
_MR_BASES = (2, 3, 5, 7, 11, 13)


class GroupElement(Value):
    """An element of a :class:`TorusGroup` or :class:`WeierstrassGroup`.

    ``coords`` is ``(i, j)`` for the torus model, ``(x, y)`` for an affine
    Weierstrass point, and ``None`` for the Weierstrass identity (rendered as
    the token ``"O"``).
    """

    __slots__ = ("group", "coords")

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


def _refuse_operands(g: object, h: object) -> None:
    # A kernel calls it after an ``AttributeError``; if both are elements, the
    # kernel raises that error again.
    for x in (g, h):
        if x.__class__ is not GroupElement:
            raise InvalidArgument(f"{x!r} is not a group element") from None


def check_same_group(a: CurveGroup, b: CurveGroup) -> None:
    """Refuse to combine values from two different group models."""
    if a is not b and a != b:
        raise MixedGroups(f"elements of {a} and {b} cannot be combined")


class TorusGroup(Value):
    """The group Z/m x Z/n with componentwise addition."""

    __slots__ = ("m", "n")
    _field_classes = dict.fromkeys(
        __slots__, (int, InvalidArgument, "torus moduli ({m!r}, {n!r}) are not ints")
    )

    ZERO_COORDS = (0, 0)

    def _check(self) -> None:
        if self.m < 1 or self.n < 1:
            raise InvalidArgument("torus moduli must be positive")

    def element(self, i: int, j: int) -> GroupElement:
        if i.__class__ is not int or j.__class__ is not int:
            raise InvalidArgument(f"coordinates ({i!r}, {j!r}) are not ints")
        return GroupElement(self, (i % self.m, j % self.n))

    def zero(self) -> GroupElement:
        return GroupElement(self, self.ZERO_COORDS)

    def order(self) -> int:
        return self.m * self.n

    def add(self, g: GroupElement, h: GroupElement) -> GroupElement:
        try:
            if g.group is not h.group:
                check_same_group(g.group, h.group)
            (i, j), (k, l) = g.coords, h.coords
        except AttributeError:
            _refuse_operands(g, h)
            raise
        return GroupElement(self, ((i + k) % self.m, (j + l) % self.n))

    def sub(self, g: GroupElement, h: GroupElement) -> GroupElement:
        try:
            if g.group is not h.group:
                check_same_group(g.group, h.group)
            (i, j), (k, l) = g.coords, h.coords
        except AttributeError:
            _refuse_operands(g, h)
            raise
        return GroupElement(self, ((i - k) % self.m, (j - l) % self.n))

    def neg(self, g: GroupElement) -> GroupElement:
        i, j = g.coords
        return GroupElement(self, (-i % self.m, -j % self.n))

    def mul(self, k: int, g: GroupElement) -> GroupElement:
        if k.__class__ is not int and not isinstance(k, int):
            raise InvalidArgument(f"cannot multiply a group element by {k!r}")
        i, j = g.coords
        return GroupElement(self, (k * i % self.m, k * j % self.n))

    def elements(self) -> tuple[GroupElement, ...]:
        if self.order() > ENUMERATION_CAP:
            raise GroupTooLarge(
                f"group order {self.order()} exceeds cap {ENUMERATION_CAP}"
            )
        return _torus_elements(self)

    def nth(self, k: int) -> GroupElement:
        """The k-th element of ``elements()``, without enumerating."""
        if not 0 <= k < self.m * self.n:
            raise IndexError(f"{self} has no element number {k}")
        return GroupElement(self, divmod(k, self.n))

    def halvings(self, s: GroupElement) -> frozenset[GroupElement]:
        """All elements r with r + r = s (possibly empty)."""
        if s.__class__ is not GroupElement:
            raise InvalidPointSpec(f"{s!r} is not a group element")
        check_same_group(s.group, self)
        rows, cols = _half_residues(s.coords[0], self.m), _half_residues(s.coords[1], self.n)
        return frozenset([GroupElement(self, (i, j)) for i in rows for j in cols])

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


class WeierstrassGroup(Value):
    """Rational points of y^2 = x^3 + ax + b over F_p, p an odd prime."""

    __slots__ = ("p", "a", "b")
    _field_classes = dict.fromkeys(
        __slots__, (int, InvalidArgument, "curve fields ({p!r}, {a!r}, {b!r}) are not ints")
    )

    ZERO_COORDS = None

    # The hash of ``Value``, without its ``attrgetter``: each draw of a
    # Weierstrass walk looks its points up by the group.
    def __hash__(self) -> int:
        return hash((self.p, self.a, self.b))

    def _check(self) -> None:
        p, a, b = self.p, self.a, self.b
        if p > PRIME_CAP:
            raise InvalidArgument(f"field size {p} exceeds cap {PRIME_CAP}")
        if p < 3 or not _is_prime(p):
            raise InvalidArgument(f"{p} is not a small odd prime")
        if (4 * a**3 + 27 * b**2) % p == 0:
            raise InvalidArgument("singular curve: 4a^3 + 27b^2 = 0 mod p")

    def zero(self) -> GroupElement:
        return GroupElement(self, self.ZERO_COORDS)

    def point(self, x: int, y: int) -> GroupElement:
        if x.__class__ is not int or y.__class__ is not int:
            raise InvalidArgument(f"coordinates ({x!r}, {y!r}) are not ints")
        x, y = x % self.p, y % self.p
        if (y * y - (x**3 + self.a * x + self.b)) % self.p != 0:
            raise InvalidArgument(f"({x},{y}) is not on the curve")
        return GroupElement(self, (x, y))

    def add(self, g: GroupElement, h: GroupElement) -> GroupElement:
        try:
            if g.group is not h.group:
                check_same_group(g.group, h.group)
            gc, hc = g.coords, h.coords
        except AttributeError:
            _refuse_operands(g, h)
            raise
        if gc is None:
            return h
        if hc is None:
            return g
        p = self.p
        x1, y1 = gc
        x2, y2 = hc
        if x1 == x2 and (y1 + y2) % p == 0:
            return self.zero()
        if gc == hc:
            lam = (3 * x1 * x1 + self.a) * pow(2 * y1, -1, p) % p
        else:
            lam = (y2 - y1) * pow(x2 - x1, -1, p) % p
        x3 = (lam * lam - x1 - x2) % p
        y3 = (lam * (x1 - x3) - y1) % p
        return GroupElement(self, (x3, y3))

    def sub(self, g: GroupElement, h: GroupElement) -> GroupElement:
        # ``h``'s group is checked before ``h`` is negated into ``self``.
        try:
            if g.group is not h.group:
                check_same_group(g.group, h.group)
            minus_h = self.neg(h)
        except AttributeError:
            _refuse_operands(g, h)
            raise
        return self.add(g, minus_h)

    def neg(self, g: GroupElement) -> GroupElement:
        if g.coords is None:
            return g
        return GroupElement(self, (g.coords[0], (-g.coords[1]) % self.p))

    def mul(self, k: int, g: GroupElement) -> GroupElement:
        if k.__class__ is not int and not isinstance(k, int):
            raise InvalidArgument(f"cannot multiply a group element by {k!r}")
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
        """All points r with r + r = s.

        With three rational roots e1, e2, e3 of the cubic, by 2-descent:
        S = (x0, y0) has a half exactly when every x0 - ei is a square.  For
        roots ri of them with r1 r2 r3 = y0, the halves are the sign patterns
        (u1, u2, u3) of (r1, r2, r3) with an even number of flips, at
        x = x0 + u1 u2 + u1 u3 + u2 u3, y = (u1 + u2)(u1 + u3)(u2 + u3).
        Other curves take the roots of the halving quartic.
        """
        if s.__class__ is not GroupElement:
            raise InvalidPointSpec(f"{s!r} is not a group element")
        check_same_group(s.group, self)
        torsion = _two_torsion(self)
        if len(torsion) < 4:
            return _quartic_halvings(self, s)
        if s.coords is None:
            return frozenset(torsion)
        p = self.p
        x0, y0 = s.coords
        roots = []
        for e in torsion[1:]:
            r = _sqrt((x0 - e.coords[0]) % p, p)
            if r is None:
                return frozenset()
            roots.append(r)
        r1, r2, r3 = roots
        if r1 * r2 * r3 % p != y0:  # The product is +-y0: y0^2 = (x0 - e1)(x0 - e2)(x0 - e3).
            r3 = -r3
        return frozenset(
            GroupElement(self, ((x0 + u1 * u2 + u1 * u3 + u2 * u3) % p,
                                (u1 + u2) * (u1 + u3) * (u2 + u3) % p))
            for u1, u2, u3 in ((r1, r2, r3), (r1, -r2, -r3), (-r1, r2, -r3), (-r1, -r2, r3))
        )

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


@lru_cache(maxsize=None)
def _two_torsion(group: WeierstrassGroup) -> tuple[GroupElement, ...]:
    """O and the points (x, 0), x a root of x^3 + ax + b."""
    p, a, b = group.p, group.a, group.b
    # The roots of x * (x^3 + ax + b) are those of the cubic and 0.
    roots = _roots((0, b % p, a % p, 0), p)
    return (group.zero(),) + tuple(
        GroupElement(group, (x, 0)) for x in roots if x or b % p == 0
    )


def _quartic_halvings(group: WeierstrassGroup, s: GroupElement) -> frozenset[GroupElement]:
    """``group.halvings(s)`` from the roots of the halving quartic, on any curve."""
    if s.coords is None:
        return frozenset(_two_torsion(group))
    p, a, b = group.p, group.a, group.b
    xs, ys = s.coords
    out = []
    # x(2R) = (x^4 - 2ax^2 - 8bx + a^2) / (4(x^3 + ax + b)); equating it
    # with x(S) gives the monic quartic whose roots are the x(R), 2R = +-S.
    quartic = (
        (a * a - 4 * b * xs) % p, (-8 * b - 4 * a * xs) % p, -2 * a % p, -4 * xs % p
    )
    for x in _roots(quartic, p):
        y = _sqrt((x * x * x + a * x + b) % p, p)
        if not y:
            # Not a square, or a point of order 2, which doubles to O.
            continue
        # The tangent at R = (x, y) gives y(2R); the sign of y picks +-S.
        lam = (3 * x * x + a) * pow(2 * y, -1, p) % p
        if (lam * (x - xs) - y) % p == ys:
            out.append(GroupElement(group, (x, y)))
            if ys == 0:
                out.append(GroupElement(group, (x, p - y)))
        else:
            out.append(GroupElement(group, (x, p - y)))
    return frozenset(out)


@lru_cache(maxsize=64)  # the CLI builds a model for every line
def _is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin, exact for n < 3,474,749,660,383."""
    for q in _MR_BASES:
        if n % q == 0:
            return n == q
    if n < 2:
        return False
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for q in _MR_BASES:
        x = pow(q, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _roots(quartic: tuple[int, int, int, int], p: int) -> list[int]:
    """The distinct roots in F_p of x^4 + c3 x^3 + c2 x^2 + c1 x + c0.

    ``quartic`` is ``(c0, c1, c2, c3)``.  The roots are those of
    g = gcd(f, x^p - x), which ``_split`` factors into linear pieces.
    """
    neg = tuple(-c % p for c in quartic)
    xp = _power_mod(0, p, neg, p)
    g = _gcd([*quartic, 1], _trim([xp[0], (xp[1] - 1) % p, xp[2], xp[3]]), p)
    out: list[int] = []
    _split(g, 0, neg, p, out)
    return out


def _split(g: list[int], delta: int, neg: tuple, p: int, out: list[int]) -> None:
    """Append the roots of g, a monic product of distinct linear factors of f.

    gcd(g, (x + delta)^((p-1)/2) - 1) keeps the roots r with r + delta a
    nonzero square.  For two roots r != r', the character of
    (r + delta)(r' + delta) sums to -1 over all delta in F_p, so some delta
    below p separates them: the loop ends.
    """
    while len(g) > 2:
        w = _power_mod(delta, (p - 1) // 2, neg, p)
        h = _gcd(g, _divmod(_trim([(w[0] - 1) % p, w[1], w[2], w[3]]), g, p)[1], p)
        delta += 1
        if 1 < len(h) < len(g):
            _split(h, delta, neg, p, out)
            g = _divmod(g, h, p)[0]
    if len(g) == 2:
        out.append(-g[0] % p)


def _power_mod(delta: int, e: int, neg: tuple, p: int) -> tuple[int, int, int, int]:
    """(x + delta)^e modulo the monic quartic f, as (r0, r1, r2, r3).

    ``neg`` holds the coefficients of x^4 = n0 + n1 x + n2 x^2 + n3 x^3
    modulo f.  Residues stay 4-tuples and the squaring is unrolled.  It runs
    once per curve in ``_two_torsion``, and otherwise only on the quartic path.
    """
    n0, n1, n2, n3 = neg
    r0, r1, r2, r3 = delta % p, 1, 0, 0
    for bit in bin(e)[3:]:
        d6 = r3 * r3 % p
        d5 = (2 * r2 * r3 + d6 * n3) % p
        d4 = (2 * r1 * r3 + r2 * r2 + d6 * n2 + d5 * n3) % p
        r3, r2, r1, r0 = (
            (2 * (r0 * r3 + r1 * r2) + d6 * n1 + d5 * n2 + d4 * n3) % p,
            (2 * r0 * r2 + r1 * r1 + d6 * n0 + d5 * n1 + d4 * n2) % p,
            (2 * r0 * r1 + d5 * n0 + d4 * n1) % p,
            (r0 * r0 + d4 * n0) % p,
        )
        if bit == "1":
            # Multiply by x + delta: shift, fold x^4 back, add delta * r.
            r0, r1, r2, r3 = (
                (r3 * n0 + delta * r0) % p,
                (r0 + r3 * n1 + delta * r1) % p,
                (r1 + r3 * n2 + delta * r2) % p,
                (r2 + r3 * n3 + delta * r3) % p,
            )
    return r0, r1, r2, r3


def _trim(a: list[int]) -> list[int]:
    while a and a[-1] == 0:
        a.pop()
    return a


def _divmod(a: list[int], b: list[int], p: int) -> tuple[list[int], list[int]]:
    """Quotient and remainder over F_p; polynomials are coefficient lists,
    lowest first, with no trailing zeros."""
    a = list(a)
    db = len(b) - 1
    inv = pow(b[-1], -1, p)
    q = [0] * max(len(a) - db, 0)
    for shift in range(len(q) - 1, -1, -1):
        c = q[shift] = a[shift + db] * inv % p
        if c:
            for i in range(db):
                a[shift + i] = (a[shift + i] - c * b[i]) % p
    del a[db:]
    return q, _trim(a)


def _gcd(a: list[int], b: list[int], p: int) -> list[int]:
    """The monic gcd over F_p; a is nonzero."""
    while b:
        a, b = b, _divmod(a, b, p)[1]
    inv = pow(a[-1], -1, p)
    return [c * inv % p for c in a]


def _sqrt(v: int, p: int) -> int | None:
    """A square root of v modulo p (0 for v = 0), or None for a non-square."""
    if v == 0:
        return 0
    if p % 4 == 3:
        y = pow(v, (p + 1) // 4, p)
        return y if y * y % p == v else None
    if pow(v, (p - 1) // 2, p) != 1:
        return None
    # Tonelli-Shanks, with the least non-residue z.
    q, s = p - 1, 0
    while q % 2 == 0:
        q //= 2
        s += 1
    z = 2
    while pow(z, (p - 1) // 2, p) == 1:
        z += 1
    c, t, r = pow(z, q, p), pow(v, q, p), pow(v, (q + 1) // 2, p)
    while t != 1:
        i, t2 = 1, t * t % p
        while t2 != 1:
            t2 = t2 * t2 % p
            i += 1
        bb = pow(c, 1 << (s - i - 1), p)
        s, c = i, bb * bb % p
        t, r = t * c % p, r * bb % p
    return r


#: The two group models; ``CurveGroup`` is their union.
GROUP_MODELS = (TorusGroup, WeierstrassGroup)
CurveGroup = TorusGroup | WeierstrassGroup


@lru_cache(maxsize=None)
def default_group() -> TorusGroup:
    """The desk-scale default model; one value, built on the first call."""
    return TorusGroup(12, 12)
