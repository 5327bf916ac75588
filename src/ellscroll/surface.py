"""The three ruled-surface families over a genus-1 curve.

Every surface here is a P^1-bundle over the base curve X.  Up to
normalization there are three families, distinguished by the invariant class
(written ``e_class`` below) of the normalized model:

* ``Decomposable`` -- the bundle splits; ``e_class`` has degree <= 0 and the
  numerical invariant is ``e = -degree(e_class) >= 0``.
* ``Indec0`` -- the non-split bundle with trivial invariant class (e = 0).
* ``IndecMinus1`` -- the non-split bundle with invariant class a single
  point ``p0`` (degree +1, so e = -1).

Each model reads its invariant as ``s.e``, its family word as
``s.family()`` and its group as ``s.group``, a property built on
``attrgetter`` that runs no Python frame (``elm`` reads it on every
transformation); ``FAMILIES`` maps each word to its class.

Divisor classes on a surface are written ``m*X0 + b*f``: ``m`` counts
intersections with a fiber, ``b`` is a divisor class pulled back from the
base.  The module also carries the special geometry of the e = -1 surface:
its points are represented by unordered pairs {q, r} of base points (the
symmetric-square parameterization), the pair lying on the fiber over
``q + r - p0``.
"""

from __future__ import annotations

from operator import attrgetter

from .errors import (
    InvalidArgument,
    InvalidPointSpec,
    InvalidSecancy,
    InvalidSurface,
    NonNormalizedInput,
)
from .groups import GROUP_MODELS, GroupElement
from .picard import NOT_A_CLASS, DivisorClass, point_class, trivial_class
from .values import Value


class Decomposable(Value):
    """Split bundle; ``e_class`` must be normalized (degree <= 0)."""

    __slots__ = ("e_class",)
    _field_classes = {
        "e_class": (DivisorClass, InvalidSurface, "{e_class!r} is not a divisor class")
    }

    def _check(self) -> None:
        if self.e_class.degree > 0:
            raise NonNormalizedInput(
                "decomposable model requires an invariant class of degree <= 0"
            )

    group = property(attrgetter("e_class.abel.group"))

    @property
    def e(self) -> int:
        return -self.e_class.degree

    @staticmethod
    def family() -> str:
        return "dec"


class Indec0(Value):
    """Non-split bundle with trivial invariant class."""

    __slots__ = ("base",)
    _field_classes = {"base": (GROUP_MODELS, InvalidSurface, "{base!r} is not a group model")}

    e = 0

    group = property(attrgetter("base"))

    @property
    def e_class(self) -> DivisorClass:
        return trivial_class(self.base)

    @staticmethod
    def family() -> str:
        return "ind0"


class IndecMinus1(Value):
    """Non-split bundle whose invariant class is the point ``p0``."""

    __slots__ = ("p0",)
    _field_classes = {"p0": (GroupElement, InvalidSurface, "{p0!r} is not a group element")}

    e = -1

    group = property(attrgetter("p0.group"))

    @property
    def e_class(self) -> DivisorClass:
        return point_class(self.p0)

    @staticmethod
    def family() -> str:
        return "indm1"

SurfaceModel = Decomposable | Indec0 | IndecMinus1
#: The family word of each model class, in the order dec, ind0, indm1.
FAMILIES = {cls.family(): cls for cls in (Decomposable, Indec0, IndecMinus1)}


class SurfaceDivisorClass(Value):
    """The class m*X0 + b*f on a surface: an ``int`` m and a divisor class b."""

    __slots__ = ("m", "b")
    _field_classes = {
        "m": (int, InvalidArgument, "fiber degree {m!r} is not an int"),
        "b": (DivisorClass, InvalidArgument, "{b!r} " + NOT_A_CLASS),
    }

    def __str__(self) -> str:
        return f"{self.m}X0+({self.b})f"


def intersect(s: SurfaceModel, A: SurfaceDivisorClass, B: SurfaceDivisorClass) -> int:
    """Intersection number of two surface classes."""
    return A.m * B.b.degree + B.m * A.b.degree - A.m * B.m * s.e


def genus_adjunction(s: SurfaceModel, D: SurfaceDivisorClass) -> int:
    """Arithmetic genus of the class, via adjunction.

    The canonical class of the surface is ``-2*X0 + e_class*f`` (the base
    curve has trivial canonical class), which collapses to a closed form in
    ``m``, ``deg b`` and ``e``.  Every fiber-degree-1 class has
    genus 1; for m = 2 the genus is ``deg(b) - e + 1``.
    """
    if D.m < 1:
        raise InvalidSecancy("genus is computed for classes with m >= 1")
    m = D.m
    return 1 + (m - 1) * (2 * D.b.degree - m * s.e) // 2


class MinCurve(Value):
    """A minimum self-intersection curve D_q on the e = -1 surface.

    ``D_q`` is the unique curve in the system ``X0 + (q - p0)*f``; any two
    such curves meet in exactly one point.
    """

    __slots__ = ("q",)


class SurfacePointDescriptor(Value):
    """A point of the e = -1 surface, as an unordered base-point pair.

    The pair {q, r} names the intersection D_q with D_r, which lies on the
    fiber over ``t = q + r - p0``.  Diagonal pairs ({q, q}) are the points
    of the focal curve.
    """

    __slots__ = ("q", "r", "t")

    def is_focal(self) -> bool:
        return self.q == self.r


def tau(s: IndecMinus1, q: GroupElement, r: GroupElement) -> SurfacePointDescriptor:
    """The symmetric-square parameterization of the e = -1 surface.

    Bijective from unordered base-point pairs onto surface points; the pair
    is stored in the deterministic element order.
    """
    if not isinstance(s, IndecMinus1):
        raise InvalidPointSpec("pair descriptors only exist on the e=-1 surface")
    if q.__class__ is not GroupElement or r.__class__ is not GroupElement:
        raise InvalidPointSpec(f"pair {{{q!r}, {r!r}}} is not two group elements")
    if q.sort_key() > r.sort_key():
        q, r = r, q
    return SurfacePointDescriptor(q, r, q + r - s.p0)


def min_curves_through(
    s: IndecMinus1, x: SurfacePointDescriptor
) -> frozenset[MinCurve]:
    """The minimum curves through a point: two generically, one on the focal curve."""
    if x.__class__ is not SurfacePointDescriptor:
        raise InvalidPointSpec(f"{x!r} is not a point descriptor of the e=-1 surface")
    return frozenset({MinCurve(x.q), MinCurve(x.r)})


def ramification_points(s: IndecMinus1, t: GroupElement) -> frozenset[GroupElement]:
    """Focal points on the fiber over ``t``: all r with 2r = t + p0.

    The fiber is the pencil |t + p0|, and its focal points are the {r, r}
    in it.  Over the closure there are four; the rational ones are the
    halvings of t + p0, on every model: none or four with 2-torsion of
    order 4, none or two with order 2, and one with order 1.
    """
    if s.__class__ is not IndecMinus1:
        raise InvalidSurface(f"ramification points only exist on the e=-1 surface, not {s!r}")
    if t.__class__ is not GroupElement:
        raise InvalidPointSpec(f"fiber {t!r} is not a group element")
    return s.group.halvings(t + s.p0)
