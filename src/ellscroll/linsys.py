"""Analysis of complete linear systems ``m*X0 + b*f`` on the three families.

For fiber degree m in {1, 2} the engine knows exact section counts and exact
base-point-free / very-ample / generic-irreducibility truth tables, with all
torsion side conditions decided by divisor-class equality in the finite group
model.  They form one table, ``_row``, with one branch per (family, m);
``is_bpf``, ``analyze`` and ``classify.classify_scroll`` read it.  For
m >= 3 the split formula stays exact on decomposable surfaces; on the
non-split families only the upper bound is available, and the exact
operations refuse with ``UnsupportedSecancy``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

from . import picard
from .errors import InvalidSecancy, UnsupportedSecancy
from .groups import check_same_group
from .picard import point_class
from .surface import (
    Decomposable,
    Indec0,
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
    total, deg_b, deg_e = 0, H.b.degree, s.deg_e
    for k in range(H.m + 1):
        degree = deg_b + k * deg_e
        # Only a class of degree 0 is built, to test whether it is trivial;
        # any other class has max(degree, 0) sections.
        total += picard.h0(H.b + k * s.e_class) if degree == 0 else max(degree, 0)
    return total


def h0_surface(s: SurfaceModel, H: SurfaceDivisorClass) -> int:
    """Exact section count of the complete system ``|m*X0 + b*f|``."""
    check_same_group(s.group, H.b.group)
    if H.m == 0:
        return picard.h0(H.b)
    if isinstance(s, Decomposable):
        # The bundle splits, so the bound is attained for every m.
        return h0_bound(s, H)
    return _row(s, H).h0


def euler_characteristic(s: SurfaceModel, H: SurfaceDivisorClass) -> int:
    """chi of the system's sheaf (Riemann-Roch on the surface, chi(O) = 0)."""
    m, deg_b, deg_e = H.m, H.b.degree, s.deg_e
    return m * (m + 1) * deg_e // 2 + (m + 1) * deg_b


class _Row(NamedTuple):
    """One row of the closed-form tables."""

    h0: int
    h1: int
    bpf: bool
    very_ample: bool
    irreducible: bool


def _row(s: SurfaceModel, H: SurfaceDivisorClass) -> _Row:
    """The closed-form row of ``|m*X0 + b*f|``, one branch per (family, m).

    Conditions on degrees are tested before the divisor-class comparisons
    they guard, which cost group arithmetic.
    """
    _check_m(H)
    check_same_group(s.group, H.b.group)
    m, b, deg_b, e = H.m, H.b, H.b.degree, invariant_e(s)
    if m > 2:
        raise UnsupportedSecancy(
            f"no closed form for the predicates at m={m}"
            if isinstance(s, Decomposable)
            else f"no closed form for m={m} on a non-split surface"
        )
    # Very ample exactly when b + m*e_class has degree at least 3, and
    # base-point-free when it has degree at least 2; only split surfaces
    # have base-point-free systems below that degree.
    very_ample = deg_b >= m * e + 3
    bpf = deg_b >= m * e + 2
    if isinstance(s, Decomposable):
        E = s.e_class
        h0 = h0_bound(s, H)
        if m == 1 and E.is_trivial():
            bpf = irreducible = bpf or b.is_trivial()
        elif m == 1:
            minus_e = deg_b == e and b == -E
            bpf = bpf or (minus_e and e >= 2)
            irreducible = deg_b >= e + 1 or b.is_trivial() or minus_e
        else:
            minus_2e = deg_b == 2 * e and b == -2 * E
            bpf = bpf or (minus_2e and (e > 0 or (2 * E).is_trivial()))
            # With b ~ -2*e_class the generic member is irreducible when the
            # system is base-point-free and e_class is not trivial.
            irreducible = (
                deg_b >= 2 * e + 2
                or (deg_b == 2 * e + 1 and not E.is_trivial())
                or (minus_2e and bpf and not E.is_trivial())
            )
    elif isinstance(s, Indec0):
        h0 = (m + 1) * deg_b if deg_b >= 1 else int(b.is_trivial())
        irreducible = deg_b >= 1 or (m == 1 and b.is_trivial())
    else:  # IndecMinus1
        if deg_b >= 0:
            h0 = 2 * deg_b + 1 if m == 1 else 3 * deg_b + 3
        else:
            # Three classes of degree -1 keep one curve in |2*X0 + b*f|: the
            # -b with 2*(-b) ~ 2*p0 and -b not ~ p0.
            p0 = point_class(s.p0)
            h0 = int(m == 2 and deg_b == -1 and 2 * -b == 2 * p0 and -b != p0)
        # On the e = -1 surface every nonempty system here is irreducible.
        irreducible = h0 > 0
    # With the exact h0 in hand, the index theorem pins down h1 (the second
    # cohomology vanishes for m >= 1).
    return _Row(h0, h0 - euler_characteristic(s, H), bpf, very_ample, irreducible)


def is_bpf(s: SurfaceModel, H: SurfaceDivisorClass) -> bool:
    """Exact base-point-freeness table for m in {1, 2}."""
    return _row(s, H).bpf


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
    h0, h1, bpf, very_ample, irreducible = _row(s, H)
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
