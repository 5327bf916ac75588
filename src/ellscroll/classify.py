"""Scroll classification, per-ambient-space tables, and construction plans.

``classify_scroll`` turns (surface, section-class b) into a structured record
of the image scroll of the map given by ``|X0 + b*f|``: its degree, ambient
space, singular locus, projective generation, and its families of unisecant
curves with their linear-normality ranges.  The records (``ScrollModel``,
``Generation``, ``UnisecantFamily``) are immutable named tuples, so a row is
built in one tuple construction; their ``to_dict`` gives the JSON form.

``emit_table`` enumerates every scroll model living in a fixed projective
space P^N.  ``nagata_plan`` produces the minimal sequence of elementary
transformations constructing each surface family from the product surface,
and ``minimality_check`` verifies minimality by a search that is exhaustive
up to the e-distance bound; it checks the bound's premise, that e moves by
exactly 1, on every transformation it makes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

from . import linsys
from .elmtrans import POINT_KINDS, Generic, OnX0, Pair, elm, walk
from .errors import DegenerateModel, EngineError, NotBasePointFree, UnreachableTarget
from .groups import CurveGroup, TorusGroup, default_group
from .picard import DivisorClass, trivial_class
from .surface import (
    Decomposable,
    Indec0,
    IndecMinus1,
    SurfaceDivisorClass,
    SurfaceModel,
    intersect,
    invariant_e,
)


class Generation(NamedTuple):
    """How the scroll is swept out: a correspondence between two directrix
    curves (degrees as subsets of projective space; a line has degree 1)."""

    left_degree: int
    right_degree: int
    correspondence: str  # "1:1" | "1:2" | "2:2"
    united_points: int

    def to_dict(self) -> dict:
        return self._asdict()


class UnisecantFamily(NamedTuple):
    """One family of irreducible unisecant curves on the scroll.

    For ``X0+af`` families the member of fiber class a has image degree
    ``deg(a) + degree_offset``; it is linearly normal exactly when its degree
    is in the recorded range (or equals ``ln_exact_degree`` on cones) and
    a is not the hyperplane class b.  Every birational row has one, derived
    from its hyperplane class H = X0 + b*f and its system's row:

    - ``min_deg_a`` is 2 on a split surface with a trivial invariant class,
      and e + 1 everywhere else;
    - ``degree_offset`` is deg b - e, since H.(X0 + a*f) = deg a + deg b - e;
    - the linear-normality degree is h0(H) = ambient + 1: a linearly normal
      elliptic curve of degree d spans P^(d-1) (Riemann-Roch in genus 1;
      Hartshorne, Algebraic Geometry, IV.1).  By the restriction sequence,
      H cuts h0(H) - h0(b - a) of the H.C sections on a curve C in
      |X0 + a*f|, since H - C = (b - a)*f.
    """

    system: str  # "X0" | "X1" | "X0+af"
    min_deg_a: int | None = None
    degree_offset: int | None = None
    ln_max_degree: int | None = None
    ln_exact_degree: int | None = None
    note: str | None = None

    def to_dict(self) -> dict:
        """The fields that are set, in field order."""
        return {k: v for k, v in zip(self._fields, self) if v is not None}


class ScrollModel(NamedTuple):
    """Full classification record of one scroll."""

    model_tag: str
    e: int
    e_class_note: str | None  # "trivial" / "nontrivial" for split e = 0 rows
    deg_b: int
    birational: bool
    map_degree: int | None
    scroll_degree: int
    ambient: int
    speciality: int
    singular_locus: str
    generation: Generation | None
    families: tuple[UnisecantFamily, ...] = ()

    def to_dict(self) -> dict:
        """Every field, None included, with the records nested as dicts."""
        out = self._asdict()
        if self.generation is not None:
            out["generation"] = self.generation.to_dict()
        out["families"] = [f.to_dict() for f in self.families]
        return out


# The curves and generations that do not depend on the row; immutable,
# so every row that has one shares it.
_X0 = UnisecantFamily("X0")
_X1 = UnisecantFamily("X1")
_X0_DIRECTRIX = UnisecantFamily("X0", note="unique directrix")
_X0_VERTEX = UnisecantFamily("X0", note="vertex")
_X1_SECTIONS = UnisecantFamily("X1", note="hyperplane sections")
_X0_PENCIL = UnisecantFamily("X0", note="one-dimensional family")
_GEN_QUADRIC = Generation(1, 1, "1:1", 0)
_GEN_TWO_LINES = Generation(1, 1, "2:2", 0)
_GEN_IND0_QUARTIC = Generation(1, 3, "1:2", 1)


def classify_scroll(s: SurfaceModel, b: DivisorClass) -> ScrollModel:
    """Classify the image of the map defined by ``|X0 + b*f|``."""
    H = SurfaceDivisorClass(1, b)
    system = linsys._row(s, H)
    if not system.bpf:
        raise NotBasePointFree(f"|X0 + {b} f| has base points on this surface")
    e = invariant_e(s)
    deg_b = b.degree
    split = isinstance(s, Decomposable)
    trivial = split and s.e_class.is_trivial()
    note = ("trivial" if trivial else "nontrivial") if split and e == 0 else None

    def row(tag, scroll_degree, singular="Empty", generation=None, curves=(), map_degree=1):
        # The map is birational exactly when it has degree 1, and then the
        # scroll carries the X0+af family derived from the row.
        families = curves
        if map_degree == 1:
            cone = tag == "Cone"
            families += (UnisecantFamily(
                "X0+af", 2 if trivial else e + 1, deg_b - e,
                None if cone else system.h0, system.h0 if cone else None,
            ),)
        return ScrollModel(
            tag, e, note, deg_b, map_degree == 1, map_degree, scroll_degree,
            system.h0 - 1, system.h1, singular, generation, families,
        )

    if split:
        if trivial and b.is_trivial():
            return row("DegenerateLine", 1, map_degree=None)
        if trivial and deg_b == 2:
            return row("DoubleQuadric", 2, generation=_GEN_QUADRIC, map_degree=2)
        # Only a class of degree e can be -e_class, so the degree is tested
        # before the class comparison.
        if deg_b == e >= 2 and b == -s.e_class:
            if e == 2:
                return row("DoublePlane", 1, map_degree=2)
            return row("Cone", e, "Vertex", None, (_X0_VERTEX, _X1_SECTIONS))
        degree = intersect(s, H, H)
        if e == 0 and deg_b == 2:
            return row(
                "DecScrollTwoLines", degree, "TwoDisjointLines", _GEN_TWO_LINES,
                (_X0, _X1),
            )
        if e > 0 and deg_b == e + 2:
            return row(
                "DecScrollDirectrixLine", degree, "DirectrixLine",
                Generation(1, e + 2, "1:2", 0), (_X0_DIRECTRIX, _X1),
            )
        # deg_b >= e + 3: a smooth scroll, two family layouts by torsion.
        return row(
            "DecScrollSmooth", degree, "Empty",
            Generation(deg_b - e, deg_b, "1:1", 0),
            (_X0_PENCIL,) if trivial else (_X0, _X1),
        )

    if isinstance(s, Indec0):
        degree = intersect(s, H, H)
        if deg_b == 2:
            return row("Ind0Quartic", degree, "DoubleLine", _GEN_IND0_QUARTIC, (_X0,))
        return row(
            "Ind0Smooth", degree, "Empty", Generation(deg_b, deg_b + 1, "1:1", 1),
            (_X0_DIRECTRIX,),
        )

    # IndecMinus1
    if deg_b == 1:
        return row("TriplePlane", 1, map_degree=3)
    return row(
        "IndM1Smooth", intersect(s, H, H), "Empty",
        Generation(deg_b + 1, deg_b + 1, "1:1", 1),
    )


# ---------------------------------------------------------------------------
# Tables


def _order_at_least(group: CurveGroup, at_least: int) -> int:
    """The group's order, refusing a model with fewer than ``at_least`` elements."""
    order = group.order()
    if order < at_least:
        raise DegenerateModel(f"group {group} has {order} elements; need {at_least}")
    return order


def emit_table(N: int, group: CurveGroup | None = None) -> list[ScrollModel]:
    """All scroll models whose ambient space is exactly P^N (N >= 3).

    Rows are ordered by the invariant e ascending, then by case; the
    degenerate (non-birational) image in P^3 is included.  Rows with
    nonspecial hyperplane class satisfy e = N+1 (mod 2); the cone row
    (speciality 1) always closes the table.
    """
    if N < 3:
        raise ValueError("tables are emitted for N >= 3")
    if group is None:
        group = default_group()
    # Every class of the table sums to the identity but one, so the
    # identity is built once per table.
    zero = group.zero()
    rows: list[ScrollModel] = []

    def add(s: SurfaceModel, deg_b: int) -> None:
        rows.append(classify_scroll(s, DivisorClass(deg_b, zero)))

    def dec(e: int) -> Decomposable:
        return Decomposable(DivisorClass(-e, zero))

    if N % 2:
        b = (N + 1) // 2
        add(Indec0(group), b)
        add(dec(0), b)  # degenerate double quadric in P^3
        _order_at_least(group, 2)
        add(Decomposable(DivisorClass(0, group.nth(1))), b)
    else:
        add(IndecMinus1(zero), N // 2)
    for e in range(1 + N % 2, N - 3, 2):
        add(dec(e), (N + 1 + e) // 2)
    if N > 3:
        add(dec(N - 3), N - 1)
    add(dec(N), N)  # the cone: b is -e_class

    for r in rows:
        if r.model_tag != "DoubleQuadric" and r.ambient != N:
            raise EngineError(f"row {r.model_tag} lands in P^{r.ambient}, not P^{N}")
    return rows


def render_table(N: int, rows: list[ScrollModel]) -> str:
    """Fixed-width text rendering mirroring the per-ambient table layout."""
    header = ["e", "deg b", "irreducible systems", "generation", "sing."]
    body: list[list[str]] = []
    for r in rows:
        e_col = f"{r.e}"
        if r.e_class_note == "trivial":
            e_col += " (e~0)"
        elif r.e_class_note == "nontrivial":
            e_col += " (e~P-Q)"
        systems = []
        for fam in r.families:
            if fam.system == "X0+af":
                systems.append(f"|X0+af|, deg a>={fam.min_deg_a}")
            else:
                systems.append(f"|{fam.system}|")
        if r.generation is None:
            if r.model_tag == "Cone":
                gen = f"cone over degree-{r.scroll_degree} curve, speciality 1"
            else:
                gen = f"degenerate ({r.model_tag})"
        else:
            g = r.generation
            gen = f"{g.left_degree} ({g.correspondence}) {g.right_degree}"
            if g.united_points:
                gen += f", {g.united_points} united point"
            gen += f"; degree {r.scroll_degree}"
        body.append([e_col, str(r.deg_b), "; ".join(systems) or "-", gen, r.singular_locus])
    widths = [
        max(len(header[i]), *(len(row[i]) for row in body)) for i in range(5)
    ]
    lines = [f"Scrolls in P^{N}"]
    lines.append("  ".join(h.ljust(widths[i]) for i, h in enumerate(header)))
    lines.append("  ".join("-" * w for w in widths))
    for row in body:
        lines.append("  ".join(c.ljust(widths[i]) for i, c in enumerate(row)))
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# Construction plans


@dataclass(frozen=True)
class NagataPlan:
    """A sequence of transformations building a target from the product surface."""

    target: str  # "dec" | "ind0" | "indm1"
    target_e: int
    steps: tuple  # concrete point specs
    length: int

    def to_dict(self) -> dict:
        return {
            "target": self.target,
            "target_e": self.target_e,
            "steps": [type(s).__name__ for s in self.steps],
            "length": self.length,
        }


def product_surface(group: CurveGroup) -> Decomposable:
    """The starting surface of every plan (trivial invariant class)."""
    return Decomposable(trivial_class(group))


#: The invariant e of each non-split target.
_OWN_E = {"ind0": 0, "indm1": -1}


def _target_e(target: str, e: int | None) -> int:
    """The invariant e of a plan target; refuses an unknown target, a
    non-split one with an e not its own, and a split one without an
    invariant e >= 0."""
    own = _OWN_E.get(target)
    if own is not None:
        if e not in (None, own):
            raise UnreachableTarget(f"{target} has the invariant e = {own}, not {e}")
        return own
    if target != "dec":
        raise UnreachableTarget(f"unknown target {target!r}")
    if e is None or e < 0:
        raise UnreachableTarget("a split target needs an invariant e >= 0")
    return e


def nagata_plan(
    target: str, e: int | None = None, group: CurveGroup | None = None
) -> NagataPlan:
    """The minimal transformation plan for each surface family.

    Targets: ``"dec"`` with the invariant e (e = 0 meaning the nontrivial
    torsion variant; the trivial one is the product surface itself and gets
    the empty plan), ``"ind0"`` (two infinitely-near generic points, encoded
    as two transformations over the same base point), ``"indm1"`` (three
    generic points).
    """
    e = _target_e(target, e)
    if group is None:
        group = default_group()
    order = _order_at_least(group, 5)
    # Three pairwise distinct base points with distinct differences.
    p1, p2, p3 = group.nth(1), group.nth(2), group.nth(4)
    if target == "ind0":
        return NagataPlan("ind0", 0, (Generic(p1), Generic(p1)), 2)
    if target == "indm1":
        return NagataPlan("indm1", -1, (Generic(p1), Generic(p2), Generic(p3)), 3)
    if e == 0:
        return NagataPlan("dec", 0, (Generic(p1), Generic(p2)), 2)
    if e == 1:
        return NagataPlan("dec", 1, (Generic(p1),), 1)
    points = (group.nth(k % order) for k in range(1, e + 1))
    return NagataPlan("dec", e, tuple(OnX0(p) for p in points), e)


def verify_plan(plan: NagataPlan, group: CurveGroup | None = None) -> bool:
    """Execute the plan from the product surface and check the target family."""
    if group is None:
        group = default_group()
    result = walk(product_surface(group), plan.steps)
    return matches_target(result.trajectory[-1], plan.target, plan.target_e)


def matches_target(model: SurfaceModel, target: str, e: int) -> bool:
    """Whether ``model`` is in a plan's target family; the product surface is not."""
    return (
        model.family() == target
        and invariant_e(model) == e
        and not (target == "dec" and model.e_class.is_trivial())
    )


def _all_specs(model: SurfaceModel) -> list:
    """Every point of ``model``, by its family's kinds; each pair once."""
    elements = model.group.elements()
    if isinstance(model, IndecMinus1):
        return [Pair(q, r) for i, q in enumerate(elements) for r in elements[i:]]
    return [kind(p) for p in elements for kind in POINT_KINDS[model.__class__]]


def minimality_check(
    target: str,
    e: int | None = None,
    max_len: int = 3,
    group: CurveGroup | None = None,
) -> int:
    """Shortest transformation sequence reaching the target family.

    Search over all point choices on a small group model (the reachable
    families do not depend on the group size, only on which torsion side
    conditions are realizable, and Z/4 x Z/4 realizes them all at this
    depth), exhaustive up to the e-distance bound.

    Every elementary transformation moves the invariant e by exactly 1, so
    a model with invariant e needs at least ``|e - target_e|`` more
    transformations, and every path to the target has the parity of that
    distance.  The search is a depth-first search deepened two lengths at a
    time (IDA*, with the e-distance as its heuristic): it prunes each model
    farther from the target than the transformations it has left.  It
    checks the premise on every transformation it makes and raises
    ``EngineError`` when a rule breaks it.  Nothing is kept between calls.
    """
    if max_len > 4:
        raise ValueError("exhaustive search is desk-scale: max_len <= 4")
    if group is None:
        group = TorusGroup(4, 4)
    target_e = _target_e(target, e)
    start = product_surface(group)
    if matches_target(start, target, target_e):
        return 0
    # Every model of the search lies on ``group``, so the point choices of
    # each family are listed once per search.
    specs: dict[type, list] = {}
    # The most budget each model has been expanded with in this iteration;
    # a model is expanded again only when reached with more.
    seen: dict[SurfaceModel, int] = {}

    def reaches(model: SurfaceModel, e_model: int, budget: int) -> bool:
        """Whether the target is at most ``budget`` transformations away."""
        family = model.__class__
        if family not in specs:
            specs[family] = _all_specs(model)
        left = budget - 1
        for spec in specs[family]:
            out = elm(model, spec).model
            e_out = invariant_e(out)
            if abs(e_out - e_model) != 1:
                raise EngineError(
                    f"{spec} moves e from {e_model} to {e_out} on {model}"
                )
            if abs(e_out - target_e) > left:
                continue
            if e_out == target_e and matches_target(out, target, target_e):
                return True
            if left and seen.get(out, 0) < left:
                seen[out] = left
                if reaches(out, e_out, left):
                    return True
        return False

    # Lengths of the other parity cannot end at target_e; a zero distance
    # starts at 2, since the start itself is not the target.
    e_start = invariant_e(start)
    for length in range(abs(e_start - target_e) or 2, max_len + 1, 2):
        seen.clear()
        seen[start] = length
        if reaches(start, e_start, length):
            return length
    raise UnreachableTarget(
        f"target {target!r} not reached within {max_len} transformations"
    )
