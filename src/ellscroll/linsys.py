"""Analysis of complete linear systems ``m*X0 + b*f`` on the three families.

For fiber degree m in {1, 2} the engine knows exact section counts and exact
base-point-free / very-ample / generic-irreducibility truth tables, with all
torsion side conditions decided by divisor-class equality in the finite group
model.  For m >= 3 the split formula stays exact on decomposable surfaces;
on the non-split families only the upper bound is available and the exact
operations refuse with ``UnsupportedSecancy``.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import picard
from .errors import HypothesisNotMet, InvalidSecancy, UnsupportedSecancy
from .picard import DivisorClass, point_class
from .surface import (
    Decomposable,
    Indec0,
    IndecMinus1,
    SurfaceDivisorClass,
    SurfaceModel,
    genus_adjunction,
    intersect,
    invariant_e,
)


def _check_m(H: SurfaceDivisorClass) -> None:
    if H.m < 1:
        raise InvalidSecancy("systems with m < 1 are not analyzed")


def h0_bound(s: SurfaceModel, H: SurfaceDivisorClass) -> int:
    """Upper bound: sum of the base-curve section counts of b + k*e_class.

    Exact on decomposable surfaces, and exact everywhere when all of
    b, ..., b + (m-1)*e_class are nonspecial.
    """
    if H.m < 0:
        raise InvalidSecancy("negative fiber degree")
    return sum(picard.h0(H.b + k * s.e_class) for k in range(H.m + 1))


def h0_surface(s: SurfaceModel, H: SurfaceDivisorClass) -> int:
    """Exact section count of the complete system ``|m*X0 + b*f|``."""
    if H.m == 0:
        return picard.h0(H.b)
    _check_m(H)
    deg_b = H.b.degree
    if isinstance(s, Decomposable):
        # The bundle splits, so the bound is attained for every m.
        return h0_bound(s, H)
    if H.m > 2:
        raise UnsupportedSecancy(
            f"no closed form for m={H.m} on a non-split surface"
        )
    if isinstance(s, Indec0):
        if H.m == 1:
            if H.b.is_trivial():
                return 1
            return 2 * deg_b if deg_b >= 1 else 0
        # m == 2
        if deg_b >= 1:
            return 3 * deg_b
        return 1 if H.b.is_trivial() else 0
    # IndecMinus1
    if H.m == 1:
        if deg_b >= 1:
            return 2 * deg_b + 1
        return 1 if deg_b == 0 else 0
    # m == 2
    if deg_b >= 0:
        return 3 * deg_b + 3
    if deg_b == -1:
        return 1 if _is_odd_halving_class(s, H.b) else 0
    return 0


def _is_odd_halving_class(s: IndecMinus1, b: DivisorClass) -> bool:
    """True when -b is a non-p0 solution of 2x ~ 2*p0 (degree(b) = -1).

    These are the three classes of degree -1 on which ``|2*X0 + b*f|`` still
    has a (single) curve.
    """
    minus_b = -b
    return (
        (2 * minus_b) == 2 * point_class(s.p0)
        and minus_b != point_class(s.p0)
    )


def h1_surface(s: SurfaceModel, H: SurfaceDivisorClass) -> int:
    """Speciality of the system, via the base-curve class b + m*e_class.

    Only valid when b, ..., b + (m-1)*e_class are all nonspecial; outside
    that hypothesis the reduction to the base curve fails and the call
    raises ``HypothesisNotMet``.
    """
    _check_m(H)
    for k in range(H.m):
        if not picard.is_nonspecial(H.b + k * s.e_class):
            raise HypothesisNotMet(
                f"b + {k}*e is special; the speciality formula does not apply"
            )
    return picard.h1(H.b + H.m * s.e_class)


def euler_characteristic(s: SurfaceModel, H: SurfaceDivisorClass) -> int:
    """chi of the system's sheaf (Riemann-Roch on the surface, chi(O) = 0)."""
    m, deg_b, deg_e = H.m, H.b.degree, s.e_class.degree
    return m * (m + 1) * deg_e // 2 + (m + 1) * deg_b


def is_bpf(s: SurfaceModel, H: SurfaceDivisorClass) -> bool:
    """Exact base-point-freeness table for m in {1, 2}."""
    _check_m(H)
    if H.m > 2:
        raise UnsupportedSecancy("base locus is classified only for m in {1,2}")
    e = invariant_e(s)
    deg_b = H.b.degree
    if H.m == 1:
        if isinstance(s, Decomposable):
            if s.e_class.is_trivial():
                return deg_b >= 2 or H.b.is_trivial()
            return deg_b >= e + 2 or (H.b == -s.e_class and e >= 2)
        return deg_b >= 2 + e
    # m == 2
    if isinstance(s, Decomposable):
        if e > 0:
            return H.b == -2 * s.e_class or deg_b >= 2 * e + 2
        if s.e_class.is_trivial():
            return H.b.is_trivial() or deg_b >= 2
        return (H.b.is_trivial() and (2 * s.e_class).is_trivial()) or deg_b >= 2
    if isinstance(s, Indec0):
        return deg_b >= 2
    return deg_b >= 0


def is_very_ample(s: SurfaceModel, H: SurfaceDivisorClass) -> bool:
    """Exact very-ampleness table for m in {1, 2}."""
    _check_m(H)
    if H.m > 2:
        raise UnsupportedSecancy("very-ampleness is classified only for m in {1,2}")
    e = invariant_e(s)
    deg_b = H.b.degree
    if H.m == 1:
        return deg_b >= 3 + e
    if isinstance(s, Decomposable):
        return deg_b >= 2 * e + 3
    if isinstance(s, Indec0):
        return deg_b >= 3
    return deg_b >= 1


def generic_irreducible(
    s: SurfaceModel, H: SurfaceDivisorClass
) -> tuple[bool, int | None]:
    """Whether the generic member is irreducible, and its genus if so.

    An irreducible generic member is automatically smooth on these surfaces,
    so the genus returned is the geometric genus (1 for fiber degree 1).
    """
    _check_m(H)
    if H.m > 2:
        raise UnsupportedSecancy("irreducibility is classified only for m in {1,2}")
    e = invariant_e(s)
    deg_b = H.b.degree
    if H.m == 1:
        if isinstance(s, Decomposable):
            if s.e_class.is_trivial():
                ok = H.b.is_trivial() or deg_b >= 2
            else:
                ok = H.b.is_trivial() or H.b == -s.e_class or deg_b >= 1 + e
        elif isinstance(s, Indec0):
            ok = H.b.is_trivial() or deg_b >= 1
        else:
            ok = deg_b >= 0
    else:
        if isinstance(s, Decomposable):
            ok = (
                deg_b >= 2 * e + 2
                or (deg_b == 2 * e + 1 and not s.e_class.is_trivial())
                or (H.b == -2 * s.e_class and e > 0)
                or (
                    H.b == -2 * s.e_class
                    and e == 0
                    and not s.e_class.is_trivial()
                    and (2 * s.e_class).is_trivial()
                )
            )
        elif isinstance(s, Indec0):
            ok = deg_b >= 1
        else:
            ok = deg_b >= 0 or (deg_b == -1 and _is_odd_halving_class(s, H.b))
    if not ok:
        return False, None
    return True, genus_adjunction(s, H)


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
        out = {
            "h0": self.h0,
            "h1": self.h1,
            "bpf": self.bpf,
            "very_ample": self.very_ample,
            "generic_irreducible": self.generic_irreducible,
        }
        if self.generic_smooth is not None:
            out["generic_smooth"] = self.generic_smooth
        if self.genus_generic is not None:
            out["genus_generic"] = self.genus_generic
        out["degree"] = self.degree
        if self.ambient is not None:
            out["ambient"] = self.ambient
        return out


def analyze(s: SurfaceModel, H: SurfaceDivisorClass) -> SystemAnalysis:
    """Full analysis of one system (m in {1, 2})."""
    h0 = h0_surface(s, H)
    # With the exact h0 in hand, the index theorem pins down h1 (the second
    # cohomology vanishes for m >= 1).
    h1 = h0 - euler_characteristic(s, H)
    irreducible, genus = generic_irreducible(s, H)
    return SystemAnalysis(
        h0=h0,
        h1=h1,
        bpf=is_bpf(s, H),
        very_ample=is_very_ample(s, H),
        generic_irreducible=irreducible,
        generic_smooth=True if irreducible else None,
        genus_generic=genus,
        degree=intersect(s, H, H),
        ambient=h0 - 1 if h0 >= 1 else None,
    )
