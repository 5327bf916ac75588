"""Scroll classification, per-ambient-space tables, and construction plans.

``classify_scroll`` turns (surface, section-class b) into a structured record
of the image scroll of the map given by ``|X0 + b*f|``: its degree, ambient
space, singular locus, projective generation, and its families of unisecant
curves with their linear-normality ranges.  One core, ``_classify``, takes
s's invariant class and b as plain degrees and sums: it reads the row of
|X0 + b*f| from ``linsys._row`` once, and the scroll's degree H.H as chi =
h0 - h1 (Riemann-Roch at m = 1); it dispatches once on the family, each
branch assigns the row's fields, and the ``X0+af`` family and the record are
built at one exit.  The records (``ScrollModel``, ``Generation``,
``UnisecantFamily``) are immutable named tuples, built from every field with
``tuple.__new__``; ``to_dict`` gives the JSON form.

``emit_table`` lists every scroll model living in a fixed projective space
P^N, handing the core each row's plain values without building a surface
model or divisor class; every row has deg b = (N + 1 + e) // 2.
``nagata_plan`` produces the minimal sequence of elementary transformations
constructing each surface family from the product surface, and
``minimality_check`` verifies minimality by a search that is exhaustive up
to the e-distance bound; it checks the bound's premise, that e moves by
exactly 1, on every transformation it makes.
"""

from __future__ import annotations

from collections.abc import Callable, Iterator
from functools import partial
from typing import NamedTuple

from . import linsys
from .elmtrans import POINT_KINDS, Generic, OnX0, Pair, PointSpec, elm, walk
from .errors import (
    DegenerateModel,
    EngineError,
    InvalidArgument,
    NotBasePointFree,
    UnreachableTarget,
)
from .groups import GROUP_MODELS, CurveGroup, TorusGroup, default_group
from .picard import DivisorClass, trivial_class
from .surface import FAMILIES, Decomposable, Indec0, IndecMinus1, SurfaceModel
from .values import Value


class Generation(NamedTuple):
    """How the scroll is swept out: a correspondence between two directrix
    curves (degrees as subsets of projective space; a line has degree 1)."""

    left_degree: int
    right_degree: int
    correspondence: str  # "1:1" | "1:2" | "2:2"
    united_points: int

    def to_dict(self) -> dict:
        return {"left_degree": self.left_degree, "right_degree": self.right_degree,
                "correspondence": self.correspondence, "united_points": self.united_points}


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
        """The fields that are set, in field order; written out, as
        ``ScrollModel.to_dict`` is, for the two or three families of each row."""
        system, min_deg_a, degree_offset, ln_max_degree, ln_exact_degree, note = self
        out = {} if system is None else {"system": system}
        if min_deg_a is not None:
            out["min_deg_a"] = min_deg_a
        if degree_offset is not None:
            out["degree_offset"] = degree_offset
        if ln_max_degree is not None:
            out["ln_max_degree"] = ln_max_degree
        if ln_exact_degree is not None:
            out["ln_exact_degree"] = ln_exact_degree
        if note is not None:
            out["note"] = note
        return out


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
        """Every field, None included, with the records nested as dicts; built
        by hand, as ``_asdict()`` is slower on every table row."""
        g = self.generation
        return {
            "model_tag": self.model_tag, "e": self.e, "e_class_note": self.e_class_note,
            "deg_b": self.deg_b, "birational": self.birational, "map_degree": self.map_degree,
            "scroll_degree": self.scroll_degree, "ambient": self.ambient,
            "speciality": self.speciality, "singular_locus": self.singular_locus,
            "generation": None if g is None else g.to_dict(),
            "families": [f.to_dict() for f in self.families],
        }


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
#: Builds a record from all its fields, skipping its Python-level ``__new__``.
_new = tuple.__new__


def classify_scroll(s: SurfaceModel, b: DivisorClass) -> ScrollModel:
    """Classify the image of the map defined by ``|X0 + b*f|``."""
    if b.__class__ is not DivisorClass:
        raise InvalidArgument(f"{b!r} is not a divisor class")
    cls, e, e_sum = linsys._surface(s, b)
    return _classify(cls, e, e_sum, b.degree, b.abel)


def _classify(cls, e, e_sum, deg_b, b_sum) -> ScrollModel:
    """The record of |X0 + b*f| from the plain invariants ``linsys._row``
    reads at m = 1; refuses a system with base points."""
    h0, h1, bpf, _, _ = linsys._row(cls, 1, e, e_sum, deg_b, b_sum)
    if not bpf:
        b = DivisorClass(deg_b, b_sum)
        raise NotBasePointFree(f"|X0 + {b} f| has base points on this surface")
    # The degree is H.H.  At m = 1, K.H = -H.H on these surfaces, so
    # Riemann-Roch gives chi = H.H, and chi is h0 - h1.
    degree, note, trivial, map_degree, ln_max, ln_exact = h0 - h1, None, False, 1, h0, None
    singular, generation, curves = "Empty", None, ()
    if cls is Decomposable:
        if not e:
            trivial = e_sum.is_zero()
            note = "trivial" if trivial else "nontrivial"
        if trivial and not deg_b and b_sum.is_zero():
            tag, degree, map_degree = "DegenerateLine", 1, None
        elif trivial and deg_b == 2:
            tag, degree, generation, map_degree = "DoubleQuadric", 2, _GEN_QUADRIC, 2
        # Only a class of degree e can be -e_class, so the degree is tested
        # before the sums.
        elif deg_b == e >= 2 and (b_sum + e_sum).is_zero():
            if e == 2:
                tag, degree, map_degree = "DoublePlane", 1, 2
            else:
                tag, singular, curves = "Cone", "Vertex", (_X0_VERTEX, _X1_SECTIONS)
                ln_max, ln_exact = None, h0
        elif e == 0 and deg_b == 2:
            tag, singular, generation = "DecScrollTwoLines", "TwoDisjointLines", _GEN_TWO_LINES
            curves = (_X0, _X1)
        elif e > 0 and deg_b == e + 2:
            tag, singular = "DecScrollDirectrixLine", "DirectrixLine"
            generation, curves = _new(Generation, (1, e + 2, "1:2", 0)), (_X0_DIRECTRIX, _X1)
        else:
            # deg_b >= e + 3: a smooth scroll, two family layouts by torsion.
            tag, generation = "DecScrollSmooth", _new(Generation, (deg_b - e, deg_b, "1:1", 0))
            curves = (_X0_PENCIL,) if trivial else (_X0, _X1)
    elif cls is Indec0:
        if deg_b == 2:
            tag, singular, generation = "Ind0Quartic", "DoubleLine", _GEN_IND0_QUARTIC
            curves = (_X0,)
        else:
            tag, generation = "Ind0Smooth", _new(Generation, (deg_b, deg_b + 1, "1:1", 1))
            curves = (_X0_DIRECTRIX,)
    elif deg_b == 1:
        tag, degree, map_degree = "TriplePlane", 1, 3
    else:
        tag, generation = "IndM1Smooth", _new(Generation, (deg_b + 1, deg_b + 1, "1:1", 1))
    # The map is birational exactly when it has degree 1, and then the
    # scroll carries the X0+af family derived from the row.
    birational = map_degree == 1
    if birational:
        curves += (_new(UnisecantFamily, (
            "X0+af", 2 if trivial else e + 1, deg_b - e, ln_max, ln_exact, None
        )),)
    return _new(ScrollModel, (
        tag, e, note, deg_b, birational, map_degree, degree, h0 - 1, h1,
        singular, generation, curves,
    ))


# ---------------------------------------------------------------------------
# Tables


def _group(group: CurveGroup | None, default: Callable[[], CurveGroup]) -> CurveGroup:
    """``group``, or ``default()`` for None; refuses what is not a group model."""
    if group is None:
        return default()
    if group.__class__ not in GROUP_MODELS:
        raise InvalidArgument(f"{group!r} is not a group model")
    return group


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
    if N.__class__ is not int:
        raise InvalidArgument(f"N {N!r} is not an int")
    if N < 3:
        raise InvalidArgument("tables are emitted for N >= 3")
    group = _group(group, default_group)
    # Every row's plain invariants sum to the identity but the nontrivial
    # split e = 0 row's invariant class.  Each has deg b = (N + 1 + e) // 2.
    zero = group.zero()
    if N % 2:
        _order_at_least(group, 2)
        deg_b = (N + 1) // 2
        # The split e = 0 rows; the first, with a trivial invariant class, is
        # the degenerate double quadric in P^3.
        rows = [_classify(cls, 0, e_sum, deg_b, zero) for cls, e_sum in (
            (Indec0, None), (Decomposable, zero), (Decomposable, group.nth(1)))]
    else:
        rows = [_classify(IndecMinus1, -1, zero, N // 2, zero)]
    # The split rows with e of the parity of N + 1, up to N - 3, and the
    # cone, e = N, where b is -e_class.
    rows += [
        _classify(Decomposable, e, zero, (N + 1 + e) // 2, zero)
        for e in (*range(1 + N % 2, N - 2, 2), N)
    ]

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


class NagataPlan(Value):
    """A sequence of transformations building a target from the product surface."""

    __slots__ = ("target", "target_e", "steps", "length")  # target: a word of FAMILIES

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


def _target_e(target: str, e: int | None) -> int:
    """The invariant e of a plan target; refuses an e that is not an int (a
    ``bool`` is not), an unknown target (one that is not a ``str`` too), a
    non-split one with an e not its own, and a split one without an
    invariant e >= 0."""
    if e is not None and e.__class__ is not int:
        raise InvalidArgument(f"e {e!r} is not an int")
    family = FAMILIES.get(target) if target.__class__ is str else None
    if family is None:
        raise UnreachableTarget(f"unknown target {target!r}")
    if family is not Decomposable:
        if e not in (None, family.e):
            raise UnreachableTarget(f"{target} has the invariant e = {family.e}, not {e}")
        return family.e
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
    group = _group(group, default_group)
    order = _order_at_least(group, 5)
    # Three pairwise distinct base points with distinct differences.
    p1, p2, p3 = group.nth(1), group.nth(2), group.nth(4)
    family = FAMILIES[target]
    if family is Indec0:
        steps = Generic(p1), Generic(p1)
    elif family is IndecMinus1:
        steps = Generic(p1), Generic(p2), Generic(p3)
    elif e == 0:
        steps = Generic(p1), Generic(p2)
    elif e == 1:
        steps = (Generic(p1),)
    else:
        steps = tuple(OnX0(group.nth(k % order)) for k in range(1, e + 1))
    return NagataPlan(target, e, steps, len(steps))


def verify_plan(plan: NagataPlan, group: CurveGroup | None = None) -> bool:
    """Execute the plan from the product surface and check the target family;
    refuses a plan that is not a ``NagataPlan``."""
    if plan.__class__ is not NagataPlan:
        raise InvalidArgument(f"{plan!r} is not a plan")
    result = walk(product_surface(_group(group, default_group)), plan.steps)
    return matches_target(result.trajectory[-1], plan.target, plan.target_e)


def matches_target(model: SurfaceModel, target: str, e: int) -> bool:
    """Whether ``model`` is in a plan's target family; the product surface is not."""
    return (
        model.family() == target
        and model.e == e
        and not (model.__class__ is Decomposable and model.e_class.is_trivial())
    )


def _all_specs(model: SurfaceModel, elements: tuple) -> Iterator[PointSpec]:
    """Every point of ``model`` over ``elements``, by its family's kinds; each
    pair once.  Each is built only when it is tried."""
    if model.__class__ is IndecMinus1:
        for i, q in enumerate(elements):
            for r in elements[i:]:
                yield Pair(q, r)
        return
    kinds = POINT_KINDS[model.__class__]
    for p in elements:
        for kind in kinds:
            yield kind(p)


#: The search's default model; ``minimality_check`` builds it for a call with no group.
_search_group = partial(TorusGroup, 4, 4)


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
    The default model, Torus(4,4), is built only when no group is given.
    """
    if max_len.__class__ is not int:
        raise InvalidArgument(f"max_len {max_len!r} is not an int")
    if max_len > 4:
        raise InvalidArgument("exhaustive search is desk-scale: max_len <= 4")
    target_e = _target_e(target, e)
    group = _group(group, _search_group)
    start = product_surface(group)
    if matches_target(start, target, target_e):
        return 0
    # The most budget each model has been expanded with in this iteration;
    # a model is expanded again only when reached with more.
    seen: dict[SurfaceModel, int] = {}

    def reaches(model: SurfaceModel, e_model: int, budget: int) -> bool:
        """Whether the target is at most ``budget`` transformations away."""
        left = budget - 1
        for spec in _all_specs(model, elements):
            out = elm(model, spec).model
            e_out = out.e
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
    e_start = start.e
    lengths = range(abs(e_start - target_e) or 2, max_len + 1, 2)
    # Every model of the search lies on ``group``: its elements are read once
    # per search, and not at all when no length is left to search.  Each
    # expansion builds its family's points as it tries them, and stops at
    # the first that reaches the target.
    elements = group.elements() if lengths else ()
    for length in lengths:
        seen.clear()
        seen[start] = length
        if reaches(start, e_start, length):
            return length
    raise UnreachableTarget(
        f"target {target!r} not reached within {max_len} transformations"
    )
