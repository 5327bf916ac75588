"""The elementary-transformation rule engine.

An elementary transformation blows up one point of a ruled surface and blows
down the strict transform of the fiber through it.  On the three families
over a genus-1 base the effect is captured by a finite rule table keyed on
where the chosen point sits:

* on a decomposable surface: on the negative section (``OnX0``), on the
  positive section (``OnX1``), or on neither (``Generic``);
* on the non-split e = 0 surface: on the minimum section or off it;
* on the e = -1 surface: an unordered pair descriptor, diagonal (focal
  point, one minimum curve through it) or split (two minimum curves).

Every rule moves the invariant e by exactly +-1, and the image of the rule
table never leaves the three normalized families -- the desk-scale shadow of
the fact that there are only two non-split models.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from .errors import DegenerateModel, InvalidPointSpec
from .groups import GroupElement, check_same_group
from .picard import DivisorClass, point_class, trivial_class
from .surface import Decomposable, Indec0, IndecMinus1, SurfaceModel


# ---------------------------------------------------------------------------
# Point descriptors


@dataclass(frozen=True, slots=True)
class OnX0:
    """A point of the minimum section, on the fiber over P."""

    P: GroupElement


@dataclass(frozen=True, slots=True)
class OnX1:
    """A point of the second split section (decomposable surfaces only)."""

    P: GroupElement


@dataclass(frozen=True, slots=True)
class Generic:
    """A point on the fiber over P, off the distinguished sections."""

    P: GroupElement


@dataclass(frozen=True, slots=True)
class Pair:
    """Unordered pair descriptor for a point of the e = -1 surface."""

    q: GroupElement
    r: GroupElement

    def __post_init__(self) -> None:
        # Normalize so that {q, r} == {r, q}.
        if self.q.sort_key() > self.r.sort_key():
            q, r = self.q, self.r
            object.__setattr__(self, "q", r)
            object.__setattr__(self, "r", q)


PointSpec = OnX0 | OnX1 | Generic | Pair


# ---------------------------------------------------------------------------
# Transformation result


@dataclass(frozen=True, slots=True)
class ElmResult:
    """Outcome of one elementary transformation."""

    model: SurfaceModel
    #: Which curve of the source became the new minimum section.
    y0_note: str  # "X0prime" | "X1prime" | "DRprime"
    #: Identifier of the rule branch that fired (13 branches in total).
    rule: str


def _dec(e_class: DivisorClass, y0: str, rule: str) -> ElmResult:
    return ElmResult(Decomposable(e_class), y0, rule)


def elm(s: SurfaceModel, x: PointSpec) -> ElmResult:
    """Apply one elementary transformation at the described point."""
    # Several rules build the result from the point alone, and would answer
    # on the point's group.  A pair's second point is checked by its rule:
    # one from another group never equals the first, and the split rule
    # subtracts the two.
    check_same_group(s.group, (x.q if isinstance(x, Pair) else x.P).group)
    if isinstance(s, Decomposable):
        return _elm_dec(s, x)
    if isinstance(s, Indec0):
        return _elm_ind0(s, x)
    return _elm_indm1(s, x)


def _elm_dec(s: Decomposable, x: PointSpec) -> ElmResult:
    if isinstance(x, Pair):
        raise InvalidPointSpec("pair descriptors only apply to the e=-1 surface")
    e_cls = s.e_class
    e = -e_cls.degree
    P = point_class(x.P)
    if e_cls.is_trivial():
        # One formula for every point: the transform splits again.
        return _dec(-P, "X0prime", "dec_trivial_any")
    if isinstance(x, OnX0):
        rule = "dec_onX0_epos" if e >= 1 else "dec_e0_onX0"
        return _dec(e_cls - P, "X0prime", rule)
    if e >= 2:
        return _dec(e_cls + P, "X0prime", "dec_e2_offX0")
    if e == 1:
        if e_cls != -P:
            return _dec(e_cls + P, "X0prime", "dec_e1_offX0_plain")
        if isinstance(x, OnX1):
            return _dec(trivial_class(s.group), "X0prime", "dec_e1_onX1_torsion")
        # Generic point over the single base point of -e_class: the
        # transform no longer splits but keeps a trivial invariant class.
        return ElmResult(Indec0(s.group), "X0prime", "dec_e1_gen_torsion")
    # e == 0 with a nontrivial invariant class.
    if isinstance(x, OnX1):
        return _dec(-e_cls - P, "X1prime", "dec_e0_onX1")
    new_e = e_cls + P  # degree 1
    return ElmResult(IndecMinus1(new_e.abel), "X0prime", "dec_e0_gen")


def _elm_ind0(s: Indec0, x: PointSpec) -> ElmResult:
    if isinstance(x, (Pair, OnX1)):
        raise InvalidPointSpec("this surface has no X1 section or pair points")
    P = point_class(x.P)
    if isinstance(x, OnX0):
        return _dec(-P, "X0prime", "ind0_onX0")
    return ElmResult(IndecMinus1(x.P), "X0prime", "ind0_gen")


def _elm_indm1(s: IndecMinus1, x: PointSpec) -> ElmResult:
    if not isinstance(x, Pair):
        raise InvalidPointSpec("points of the e=-1 surface are pair descriptors")
    if x.q == x.r:
        # Focal point: a single minimum curve passes through it, and
        # 2q ~ p0 + t forces the new invariant class to be trivial.
        return ElmResult(Indec0(s.group), "DRprime", "indm1_diag")
    # Split point: two minimum curves through it; transforming along the
    # first gives the split model with invariant class q - r (nontrivial).
    new_e = DivisorClass(0, x.q - x.r)
    return _dec(new_e, "DRprime", "indm1_split")


#: All 13 rule identifiers, for coverage bookkeeping.
ALL_RULES = (
    "dec_onX0_epos",
    "dec_e2_offX0",
    "dec_e1_offX0_plain",
    "dec_e1_onX1_torsion",
    "dec_e1_gen_torsion",
    "dec_e0_onX0",
    "dec_e0_onX1",
    "dec_e0_gen",
    "dec_trivial_any",
    "ind0_onX0",
    "ind0_gen",
    "indm1_diag",
    "indm1_split",
)


# ---------------------------------------------------------------------------
# Walks


@dataclass(frozen=True, slots=True)
class WalkResult:
    trajectory: tuple[SurfaceModel, ...]
    steps: tuple[ElmResult, ...]


#: The point kinds a template names on each family with sections; a
#: missing key is a template the family does not have.
_TEMPLATE_KINDS = {
    (Decomposable, "generic"): (Generic,),
    (Decomposable, "onX0"): (OnX0,),
    (Decomposable, "onX1"): (OnX1,),
    (Decomposable, "random"): (Generic, OnX0, OnX1),
    (Indec0, "generic"): (Generic,),
    (Indec0, "onX0"): (OnX0,),
    (Indec0, "random"): (Generic, OnX0),
}


def resolve_template(template, model: SurfaceModel, rng: random.Random) -> PointSpec:
    """Turn a walk-step template into a concrete point on ``model``.

    A template is either a concrete :class:`PointSpec` (validated against
    the family by ``elm`` itself) or one of the strings ``"generic"``,
    ``"onX0"``, ``"onX1"``, ``"random"``.
    """
    if not isinstance(template, str):
        return template
    group = model.group
    order = group.order()
    # Each point costs one draw below the order, the draw ``rng.choice``
    # over ``elements()`` makes, so a seed gives the same walk either way.
    pick = lambda: group.nth(rng.randrange(order))
    if isinstance(model, IndecMinus1):
        if template == "generic":
            if order < 2:
                raise DegenerateModel(f"group {group} has no two distinct points")
            q = pick()
            r = pick()
            while r == q:
                r = pick()
            return Pair(q, r)
        if template == "random":
            return Pair(pick(), pick())
        raise InvalidPointSpec(f"template {template!r} on the e=-1 surface")
    kinds = _TEMPLATE_KINDS.get((model.__class__, template))
    if kinds is None:
        raise InvalidPointSpec(f"template {template!r} on family {model.family()}")
    # ``rng.choice`` draws even from one kind, and the walk streams keep
    # that draw.
    return rng.choice(kinds)(pick())


def walk(s0: SurfaceModel, templates, rng_seed: int = 0) -> WalkResult:
    """Apply a sequence of transformations; deterministic for a fixed seed."""
    rng = random.Random(rng_seed)
    trajectory = [s0]
    steps = []
    model = s0
    for template in templates:
        spec = resolve_template(template, model, rng)
        result = elm(model, spec)
        steps.append(result)
        model = result.model
        trajectory.append(model)
    return WalkResult(tuple(trajectory), tuple(steps))
