"""Analysis of complete linear systems ``m*X0 + b*f`` on the three families.

For fiber degree m in {1, 2} the engine knows exact section counts and exact
base-point-free / very-ample / generic-irreducibility truth tables, with all
torsion side conditions decided by group sums in the finite group model.
They form one table, ``_row(cls, m, e, e_sum, deg_b, b_sum)``, of plain
invariants: the family class, m, e with the invariant class's sum (None on
``Indec0``), and deg b with b's sum; b ~ -e_class, for one, is deg b = e and
b_sum + e_sum = O.  It dispatches once on the family, then on m, and returns
a plain tuple.  ``is_bpf``, ``analyze`` and ``h0_surface`` pass it the fields
of s and H, ``classify`` m = 1 and those of s and b, read by ``_surface``,
which refuses what is not a surface model and a b of another group.  For
m >= 3 the split formula stays exact on decomposable surfaces; on the
non-split families only the upper bound is available, and the exact
operations refuse with ``UnsupportedSecancy``.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import InvalidArgument, InvalidSecancy, InvalidSurface, UnsupportedSecancy
from .groups import GroupElement, check_same_group
from .picard import DivisorClass
from .surface import (
    Decomposable,
    Indec0,
    IndecMinus1,
    SurfaceDivisorClass,
    SurfaceModel,
    genus_adjunction,
    intersect,
)


def h0_bound(m: int, e: int, e_sum: GroupElement, deg_b: int, b_sum: GroupElement) -> int:
    """Upper bound: sum over k = 0..m of the base-curve section counts of
    b + k*e_class, of degree deg_b - k*e and sum b_sum + k*e_sum.  Exact on
    decomposable surfaces, and everywhere when b, ..., b + (m-1)*e_class are
    nonspecial."""
    if m < 0:
        raise InvalidSecancy("negative fiber degree")
    total = 0
    for k in range(m + 1):
        # A class of positive degree d has d sections and one of negative
        # degree none; only one of degree 0 has its sum computed.
        degree = deg_b - k * e
        if degree > 0:
            total += degree
        elif not degree:
            total += (b_sum + k * e_sum if k else b_sum).is_zero()
    return total


def _surface(s: SurfaceModel, b: DivisorClass) -> tuple[type, int, GroupElement | None]:
    """The family class, e and invariant-class sum of ``s`` (p0 on e = -1, None
    on ``Indec0``), read without building the class; refuses a value that is
    not a surface model, and ``b`` on another group than ``s``."""
    cls = s.__class__
    if cls is Decomposable:
        e, e_sum = -s.e_class.degree, s.e_class.abel
    elif cls is IndecMinus1:
        e, e_sum = -1, s.p0
    elif cls is Indec0:
        e, e_sum = 0, None
    else:
        raise InvalidSurface(f"{s!r} is not a surface model")
    if s.group is not b.abel.group:
        check_same_group(s.group, b.abel.group)
    return cls, e, e_sum


def _fields(s: SurfaceModel, H: SurfaceDivisorClass) -> tuple:
    """The plain values of ``s`` and ``H`` that ``_row`` reads, in its order."""
    if H.__class__ is not SurfaceDivisorClass:
        raise InvalidArgument(f"{H!r} is not a surface divisor class")
    cls, e, e_sum = _surface(s, H.b)
    return cls, H.m, e, e_sum, H.b.degree, H.b.abel


def h0_surface(s: SurfaceModel, H: SurfaceDivisorClass) -> int:
    """Exact section count of the complete system ``|m*X0 + b*f|``."""
    row = _fields(s, H)
    # The bound is attained at m = 0, and for every m when the bundle splits.
    if not H.m or row[0] is Decomposable:
        return h0_bound(*row[1:])
    return _row(*row)[0]


def euler_characteristic(m: int, deg_b: int, e: int) -> int:
    """chi of ``m*X0 + b*f`` on a surface of invariant e (Riemann-Roch, chi(O) = 0)."""
    return (m + 1) * (2 * deg_b - m * e) // 2


def _row(cls, m, e, e_sum, deg_b, b_sum) -> tuple[int, int, bool, bool, bool]:
    """The closed-form row of ``|m*X0 + b*f|``: one branch per family, then
    one per m.  A row is the plain tuple (h0, h1, bpf, very_ample,
    irreducible); the analysis record names the fields.  A class is tested
    by its degree first, and by its sum only when the degree allows.
    """
    if m < 1:
        raise InvalidSecancy("systems with m < 1 are not analyzed")
    # Very ample exactly when b + m*e_class has degree at least 3, that is
    # deg b >= m*e + 3, and base-point-free when it has degree at least 2;
    # only split surfaces have base-point-free systems below that degree.
    if cls is Decomposable:
        if m > 2:
            raise UnsupportedSecancy(f"no closed form for the predicates at m={m}")
        h0 = h0_bound(m, e, e_sum, deg_b, b_sum)
        trivial = not e and e_sum.is_zero()
        if m == 1 and trivial:
            bpf = irreducible = deg_b >= 2 or (not deg_b and b_sum.is_zero())
        elif m == 1:
            minus_e = deg_b == e and (b_sum + e_sum).is_zero()
            bpf = deg_b >= e + 2 or (minus_e and e >= 2)
            irreducible = deg_b >= e + 1 or (not deg_b and b_sum.is_zero()) or minus_e
        else:
            minus_2e = deg_b == 2 * e and (b_sum + 2 * e_sum).is_zero()
            bpf = deg_b >= 2 * e + 2 or (minus_2e and (e > 0 or (2 * e_sum).is_zero()))
            # With b ~ -2*e_class the generic member is irreducible when the
            # system is base-point-free and e_class is not trivial.
            irreducible = (
                deg_b >= 2 * e + 2
                or (deg_b == 2 * e + 1 and not trivial)
                or (minus_2e and bpf and not trivial)
            )
    else:
        if m > 2:
            raise UnsupportedSecancy(f"no closed form for m={m} on a non-split surface")
        if cls is Indec0:
            h0 = (m + 1) * deg_b if deg_b >= 1 else int(not deg_b and b_sum.is_zero())
            irreducible = deg_b >= 1 or (m == 1 and not deg_b and b_sum.is_zero())
        else:
            if deg_b >= 0:
                h0 = 2 * deg_b + 1 if m == 1 else 3 * deg_b + 3
            else:
                # Three classes of degree -1 keep one curve in |2*X0 + b*f|:
                # the b with b + p0 of order 2 (2*(-b) ~ 2*p0, -b not ~ p0).
                h0 = int(m == 2 and deg_b == -1 and not (c := b_sum + e_sum).is_zero()
                         and (2 * c).is_zero())
            # On the e = -1 surface every nonempty system here is irreducible.
            irreducible = h0 > 0
        bpf = deg_b >= m * e + 2
    # With the exact h0 in hand, the index theorem pins down h1 (the second
    # cohomology vanishes for m >= 1).
    return h0, h0 - euler_characteristic(m, deg_b, e), bpf, deg_b >= m * e + 3, irreducible


def is_bpf(s: SurfaceModel, H: SurfaceDivisorClass) -> bool:
    """Exact base-point-freeness table for m in {1, 2}."""
    return _row(*_fields(s, H))[2]


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
    h0, h1, bpf, very_ample, irreducible = _row(*_fields(s, H))
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
