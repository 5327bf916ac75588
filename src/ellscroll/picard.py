"""Divisors and divisor classes on the base genus-1 curve.

A divisor class is canonicalized as the pair (degree, group sum of its
points); two divisors are linearly equivalent exactly when both coordinates
agree.  The base point of that correspondence is normalized to the group
identity, so the class of a single point P is simply ``(1, P)``.  No divisor
is stored: ``class_of`` reduces (point, multiplicity) terms, as the CLI reads
them, straight to their class.

Section counts follow the genus-1 dimension count: a class of positive
degree d has d sections, the trivial class has one, and everything else has
none.  ``h1`` is the section count of the negated class, so the index
identity ``h0 - h1 = degree`` holds for every class.
"""

from __future__ import annotations

from .errors import InvalidArgument
from .groups import CurveGroup, GroupElement
from .values import Value

#: How a field that makes no divisor class is refused.
NOT_A_CLASS = "is not a divisor class of an int degree and a group element"


class DivisorClass(Value):
    """A linear-equivalence class, canonicalized as (degree, group sum): an
    ``int`` (not a ``bool``) and a group element, else ``InvalidArgument``."""

    __slots__ = ("degree", "abel")
    _field_classes = {
        "degree": (int, InvalidArgument, "({degree!r}, {abel!r}) " + NOT_A_CLASS),
        "abel": (GroupElement, InvalidArgument, "({degree!r}, {abel!r}) " + NOT_A_CLASS),
    }

    # The value ``Value.__hash__`` gives, hash((degree, abel)), in one frame:
    # an element hashes as its coords.
    def __hash__(self) -> int:
        return hash((self.degree, self.abel.coords))

    @property
    def group(self) -> CurveGroup:
        return self.abel.group

    def is_trivial(self) -> bool:
        return self.degree == 0 and self.abel.is_zero()

    def __add__(self, other: "DivisorClass") -> "DivisorClass":
        return DivisorClass(self.degree + other.degree, self.abel + other.abel)

    def __sub__(self, other: "DivisorClass") -> "DivisorClass":
        return DivisorClass(self.degree - other.degree, self.abel - other.abel)

    def __neg__(self) -> "DivisorClass":
        return DivisorClass(-self.degree, -self.abel)

    def __mul__(self, k: int) -> "DivisorClass":
        return DivisorClass(k * self.degree, k * self.abel)

    __rmul__ = __mul__

    def __str__(self) -> str:
        return f"[deg {self.degree}, sum {self.abel}]"


def trivial_class(group: CurveGroup) -> DivisorClass:
    return DivisorClass(0, group.zero())


def point_class(point: GroupElement) -> DivisorClass:
    """The class of the single point P, i.e. (1, P)."""
    return DivisorClass(1, point)


def class_of(group: CurveGroup, terms: list[tuple[GroupElement, int]]) -> DivisorClass:
    """The class of the sum of ``mult * point`` over the (point, mult) terms;
    a point of another group raises ``MixedGroups`` from the group sum."""
    degree, total = 0, group.zero()
    for point, mult in terms:
        degree += mult
        total = total + (point if mult == 1 else mult * point)
    return DivisorClass(degree, total)


def h0(c: DivisorClass) -> int:
    """Number of independent sections of the class."""
    if c.degree >= 1:
        return c.degree
    if c.is_trivial():
        return 1
    return 0


def h1(c: DivisorClass) -> int:
    """Speciality; equals ``h0`` of the negated class (trivial canonical)."""
    return h0(-c)

