"""Analysis of complete linear systems ``m*X0 + b*f`` on the three families.

For fiber degree m in {1, 2} the engine knows exact section counts and exact
base-point-free / very-ample / generic-irreducibility truth tables, with all
torsion side conditions decided by divisor-class equality in the finite group
model.  They form one table, ``_row(s, m, b)``: it dispatches once on the
surface's class, then branches on m, and returns a plain tuple; ``is_bpf``,
``analyze`` and ``h0_surface`` pass it ``H.m, H.b``, ``classify_scroll``
``1, b``.  Its last branch refuses a value that is not a surface model with
``InvalidSurface``.  An entry refuses a system that is not a
``SurfaceDivisorClass``, whose fields were checked when it was built.  The
formulas ``h0_bound(s, m, b)`` and ``euler_characteristic(m, deg_b, e)``
take plain values.  For m >= 3 the split formula stays exact on decomposable
surfaces; on the non-split families only the upper bound is available, and
the exact operations refuse with ``UnsupportedSecancy``.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import picard
from .errors import InvalidArgument, InvalidSecancy, InvalidSurface, UnsupportedSecancy
from .groups import check_same_group
from .picard import DivisorClass, point_class
from .surface import (
    FAMILIES,
    Decomposable,
    Indec0,
    IndecMinus1,
    SurfaceDivisorClass,
    SurfaceModel,
    genus_adjunction,
    intersect,
)


def h0_bound(s: SurfaceModel, m: int, b: DivisorClass) -> int:
    """Upper bound: sum of the base-curve section counts of b + k*e_class.

    Exact on decomposable surfaces, and exact everywhere when all of
    b, ..., b + (m-1)*e_class are nonspecial.
    """
    if m < 0:
        raise InvalidSecancy("negative fiber degree")
    total, degree, E = 0, b.degree, s.e_class
    for k in range(m + 1):
        # A class of positive degree d has d sections and one of negative
        # degree none; only a class of degree 0 is built, to test whether
        # it is trivial.
        if degree > 0:
            total += degree
        elif not degree:
            total += picard.h0(b + k * E)
        degree += E.degree
    return total


def h0_surface(s: SurfaceModel, H: SurfaceDivisorClass) -> int:
    """Exact section count of the complete system ``|m*X0 + b*f|``."""
    cls = s.__class__
    if cls not in FAMILIES.values():
        raise InvalidSurface(f"{s!r} is not a surface model")
    if H.__class__ is not SurfaceDivisorClass:
        raise InvalidArgument(f"{H!r} is not a surface divisor class")
    check_same_group(s.group, H.b.group)
    if H.m == 0:
        return picard.h0(H.b)
    if cls is Decomposable:
        # The bundle splits, so the bound is attained for every m.
        return h0_bound(s, H.m, H.b)
    return _row(s, H.m, H.b)[0]


def euler_characteristic(m: int, deg_b: int, e: int) -> int:
    """chi of ``m*X0 + b*f`` on a surface of invariant e (Riemann-Roch, chi(O) = 0)."""
    return (m + 1) * (2 * deg_b - m * e) // 2


def _row(s: SurfaceModel, m: int, b: DivisorClass) -> tuple[int, int, bool, bool, bool]:
    """The closed-form row of ``|m*X0 + b*f|``: one branch per family, then
    one per m.  A row is the plain tuple (h0, h1, bpf, very_ample,
    irreducible); the analysis record names the fields.

    Conditions on degrees are tested before the divisor-class comparisons
    they guard, which cost group arithmetic.  A value of no family is
    refused by the last branch, so the three families pay nothing for it.
    """
    if m < 1:
        raise InvalidSecancy("systems with m < 1 are not analyzed")
    cls, group, deg_b = s.__class__, b.abel.group, b.degree
    # Very ample exactly when b + m*e_class has degree at least 3, that is
    # deg b >= m*e + 3, and base-point-free when it has degree at least 2;
    # only split surfaces have base-point-free systems below that degree.
    if cls is Decomposable:
        E = s.e_class
        if E.abel.group is not group:
            check_same_group(E.abel.group, group)
        if m > 2:
            raise UnsupportedSecancy(f"no closed form for the predicates at m={m}")
        e = -E.degree  # s.e, without the property call
        h0 = h0_bound(s, m, b)
        if m == 1 and not e and E.is_trivial():
            bpf = irreducible = deg_b >= 2 or b.is_trivial()
        elif m == 1:
            minus_e = deg_b == e and b == -E
            bpf = deg_b >= e + 2 or (minus_e and e >= 2)
            irreducible = deg_b >= e + 1 or b.is_trivial() or minus_e
        else:
            minus_2e = deg_b == 2 * e and b == -2 * E
            bpf = deg_b >= 2 * e + 2 or (minus_2e and (e > 0 or (2 * E).is_trivial()))
            # With b ~ -2*e_class the generic member is irreducible when the
            # system is base-point-free and e_class is not trivial.
            irreducible = (
                deg_b >= 2 * e + 2
                or (deg_b == 2 * e + 1 and not E.is_trivial())
                or (minus_2e and bpf and not E.is_trivial())
            )
    elif cls is Indec0 or cls is IndecMinus1:
        if s.group is not group:
            check_same_group(s.group, group)
        if m > 2:
            raise UnsupportedSecancy(f"no closed form for m={m} on a non-split surface")
        e = s.e
        if cls is Indec0:
            h0 = (m + 1) * deg_b if deg_b >= 1 else int(b.is_trivial())
            irreducible = deg_b >= 1 or (m == 1 and b.is_trivial())
        else:
            if deg_b >= 0:
                h0 = 2 * deg_b + 1 if m == 1 else 3 * deg_b + 3
            else:
                # Three classes of degree -1 keep one curve in |2*X0 + b*f|:
                # the -b with 2*(-b) ~ 2*p0 and -b not ~ p0.
                p0 = point_class(s.p0)
                h0 = int(m == 2 and deg_b == -1 and 2 * -b == 2 * p0 and -b != p0)
            # On the e = -1 surface every nonempty system here is irreducible.
            irreducible = h0 > 0
        bpf = deg_b >= m * e + 2
    else:
        raise InvalidSurface(f"{s!r} is not a surface model")
    # With the exact h0 in hand, the index theorem pins down h1 (the second
    # cohomology vanishes for m >= 1).
    return h0, h0 - euler_characteristic(m, deg_b, e), bpf, deg_b >= m * e + 3, irreducible


def is_bpf(s: SurfaceModel, H: SurfaceDivisorClass) -> bool:
    """Exact base-point-freeness table for m in {1, 2}."""
    if H.__class__ is not SurfaceDivisorClass:
        raise InvalidArgument(f"{H!r} is not a surface divisor class")
    return _row(s, H.m, H.b)[2]


@dataclass(frozen=True)
class SystemAnalysis:
    """Flat summary record for one linear system on one surface."""

    h0: int
    h1: int
    bpf: bool
    very_ample: bool
    generic_irreducible: bool
    generic_smooth: bool | None
    genus_generic: int | None
    degree: int
    ambient: int | None

    def to_dict(self) -> dict:
        """The fields in declaration order, leaving out those that are None."""
        return {key: value for key, value in vars(self).items() if value is not None}


def analyze(s: SurfaceModel, H: SurfaceDivisorClass) -> SystemAnalysis:
    """Full analysis of one system (m in {1, 2}).

    An irreducible generic member is smooth on these surfaces, so its genus
    is the geometric genus (1 for fiber degree 1).
    """
    if H.__class__ is not SurfaceDivisorClass:
        raise InvalidArgument(f"{H!r} is not a surface divisor class")
    h0, h1, bpf, very_ample, irreducible = _row(s, H.m, H.b)
    return SystemAnalysis(
        h0=h0,
        h1=h1,
        bpf=bpf,
        very_ample=very_ample,
        generic_irreducible=irreducible,
        generic_smooth=True if irreducible else None,
        genus_generic=genus_adjunction(s, H) if irreducible else None,
        degree=intersect(s, H, H),
        ambient=h0 - 1 if h0 >= 1 else None,
    )
