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
the fact that there are only two non-split models.  A rule reads the
invariant class as its degree and group sum, and builds the new class from
one group operation on that sum and the point.

A point descriptor refuses, when it is built, a point that is not a group
element with ``InvalidPointSpec``.  ``POINT_KINDS`` lists the point kinds of
each family.  ``elm`` and the CLI refuse a kind the family lacks with
``check_point_kind``, a walk template draws from it, and the minimality
search enumerates it.  ``elm`` also refuses a point of another group, then
calls its family's rule on the descriptor's rule inputs.

A walk binds its group, order and random source once, to one resolver for
all its steps.  The resolver makes the ``getrandbits`` calls of
``rng.choice`` and ``rng.randrange``, so a seed gives the walk they would
give.  It returns rule inputs, and a word step goes from the draw straight
to the rule, without ``elm``'s two checks: the draw proves them, since the
kind comes from the family's ``POINT_KINDS`` and the point from the start
model's group, which every model of the walk lies on.
"""

from __future__ import annotations

import random
from collections.abc import Mapping, Set

from .errors import DegenerateModel, InvalidArgument, InvalidPointSpec, InvalidSurface
from .groups import CurveGroup, GroupElement, check_same_group
from .picard import DivisorClass
from .surface import Decomposable, Indec0, IndecMinus1, SurfaceModel
from .values import Value


# ---------------------------------------------------------------------------
# Point descriptors


class _OnFiber(Value):
    # A point on the fiber over P; each subclass is one kind of point.
    __slots__ = ("P",)
    _field_classes = {
        "P": (GroupElement, InvalidPointSpec,
              "{self.__class__.__name__}(P={P!r}) is not a point descriptor")
    }


class OnX0(_OnFiber):
    """A point of the minimum section, on the fiber over P."""

    __slots__ = ()


class OnX1(_OnFiber):
    """A point of the second split section (decomposable surfaces only)."""

    __slots__ = ()


class Generic(_OnFiber):
    """A point on the fiber over P, off the distinguished sections."""

    __slots__ = ()


class Pair(Value):
    """Unordered pair descriptor for a point of the e = -1 surface."""

    __slots__ = ("q", "r")

    def __init__(self, q: GroupElement, r: GroupElement) -> None:
        if q.__class__ is not GroupElement or r.__class__ is not GroupElement:
            raise InvalidPointSpec(f"Pair(q={q!r}, r={r!r}) is not a point descriptor")
        q, r = _unordered(q, r)
        _set_pair_q(self, q)
        _set_pair_r(self, r)


def _unordered(q: GroupElement, r: GroupElement) -> tuple[GroupElement, GroupElement]:
    # Normalize so that {q, r} == {r, q}.
    return (r, q) if q.sort_key() > r.sort_key() else (q, r)


_set_pair_q, _set_pair_r = Pair._setters
PointSpec = OnX0 | OnX1 | Generic | Pair

#: The point kinds of each family: the only list of them.  Each tuple is in
#: the order a ``"random"`` walk step draws from.
POINT_KINDS = {
    Decomposable: (Generic, OnX0, OnX1), Indec0: (Generic, OnX0), IndecMinus1: (Pair,)
}


def check_point_kind(s: SurfaceModel, x: PointSpec) -> None:
    """Refuse a point kind that ``s``'s family lacks; the messages are the CLI's."""
    if x.__class__ in POINT_KINDS.get(s.__class__, ()):
        return
    if s.__class__ not in POINT_KINDS:
        raise InvalidSurface(f"{s!r} is not a surface model")
    if isinstance(x, Pair):
        raise InvalidPointSpec(f"pair{{...}} does not apply to {s.family()}")
    if isinstance(s, IndecMinus1):
        raise InvalidPointSpec(f"points of {s.family()} are pair{{...}} descriptors")
    if isinstance(x, OnX1):
        raise InvalidPointSpec(f"{s.family()} has no second section onX1")
    raise InvalidPointSpec(f"{x!r} is not a point descriptor")


# ---------------------------------------------------------------------------
# Transformation result


class ElmResult(Value):
    """Outcome of one elementary transformation: the new model, the source curve
    that became its minimum section (``y0_note``), and the rule that fired."""

    __slots__ = ("model", "y0_note", "rule")


def elm(s: SurfaceModel, x: PointSpec) -> ElmResult:
    """Apply one elementary transformation at the described point."""
    kind = x.__class__
    if kind not in POINT_KINDS.get(s.__class__, ()):
        check_point_kind(s, x)
    # Several rules build the result from the point alone, and would answer
    # on the point's group.  A pair's second point is checked by its rule:
    # one from another group never equals the first, and the split rule
    # subtracts the two.
    if kind is Pair:
        point, r = x.q, x.r
    else:
        point, r = x.P, None
    if point.group is not s.group:
        check_same_group(s.group, point.group)
    return _RULES[s.__class__](s, kind, point, r)


def _elm_dec(s: Decomposable, kind: type, P: GroupElement, r: None) -> ElmResult:
    degree, abel = s.e_class.degree, s.e_class.abel  # e = -degree
    group = abel.group
    if not degree and abel.is_zero():
        # One formula for every point: the transform splits again.
        return ElmResult(Decomposable(DivisorClass(-1, -P)), "X0prime", "dec_trivial_any")
    if kind is OnX0:
        rule = "dec_onX0_epos" if degree else "dec_e0_onX0"
        new_e = DivisorClass(degree - 1, group.sub(abel, P))
        return ElmResult(Decomposable(new_e), "X0prime", rule)
    total = group.add(abel, P)
    if degree < -1:
        return ElmResult(Decomposable(DivisorClass(degree + 1, total)), "X0prime", "dec_e2_offX0")
    if degree:  # e == 1: the class is -P exactly when ``total`` is zero.
        if kind is Generic and total.is_zero():
            # Generic point over the single base point of -e_class: the
            # transform no longer splits but keeps a trivial invariant class.
            return ElmResult(Indec0(group), "X0prime", "dec_e1_gen_torsion")
        rule = "dec_e1_onX1_torsion" if total.is_zero() else "dec_e1_offX0_plain"
        return ElmResult(Decomposable(DivisorClass(0, total)), "X0prime", rule)
    # e == 0 with a nontrivial invariant class.
    if kind is OnX1:
        return ElmResult(Decomposable(DivisorClass(-1, -total)), "X1prime", "dec_e0_onX1")
    return ElmResult(IndecMinus1(total), "X0prime", "dec_e0_gen")


def _elm_ind0(s: Indec0, kind: type, P: GroupElement, r: None) -> ElmResult:
    if kind is OnX0:
        return ElmResult(Decomposable(DivisorClass(-1, -P)), "X0prime", "ind0_onX0")
    return ElmResult(IndecMinus1(P), "X0prime", "ind0_gen")


def _elm_indm1(s: IndecMinus1, kind: type, q: GroupElement, r: GroupElement) -> ElmResult:
    if q == r:
        # Focal point: a single minimum curve passes through it, and
        # 2q ~ p0 + t forces the new invariant class to be trivial.
        return ElmResult(Indec0(s.group), "DRprime", "indm1_diag")
    # Split point: two minimum curves through it; transforming along the
    # first gives the split model with invariant class q - r (nontrivial).
    return ElmResult(Decomposable(DivisorClass(0, q.group.sub(q, r))), "DRprime", "indm1_split")


#: Each family's rule, on the rule inputs (kind, point, r): the point kind, the
#: point over whose fiber it lies (a pair's first point) and a pair's second
#: point (None off e = -1).  A rule trusts the kind and the point's group, which
#: ``elm`` checks and a walk's draw proves; ``group.add`` and ``group.sub``,
#: which it calls in place of ``+`` and ``-``, still check their operands.
_RULES = {Decomposable: _elm_dec, Indec0: _elm_ind0, IndecMinus1: _elm_indm1}


#: All 13 rule identifiers, for coverage bookkeeping.
ALL_RULES = (
    "dec_onX0_epos", "dec_e2_offX0", "dec_e1_offX0_plain", "dec_e1_onX1_torsion",
    "dec_e1_gen_torsion", "dec_e0_onX0", "dec_e0_onX1", "dec_e0_gen", "dec_trivial_any",
    "ind0_onX0", "ind0_gen", "indm1_diag", "indm1_split",
)


# ---------------------------------------------------------------------------
# Walks


class WalkResult(Value):
    """The models a walk passed through, from its start, and its transformations."""

    __slots__ = ("trajectory", "steps")


#: The point kind each template word names; ``"random"`` draws from ``POINT_KINDS``.
TEMPLATE_KINDS = {"generic": Generic, "onX0": OnX0, "onX1": OnX1}
WALK_TEMPLATES = (*TEMPLATE_KINDS, "random")

#: Each word's draw on each family but e = -1: the kinds, their number n and
#: n.bit_length().  ``rng.choice`` draws even from one kind.
_KIND_DRAWS = {
    (family, word): (drawn, len(drawn), len(drawn).bit_length())
    for family, kinds in POINT_KINDS.items() if family is not IndecMinus1
    for word, drawn in zip(WALK_TEMPLATES, [*((k,) for k in TEMPLATE_KINDS.values()), kinds])
    if set(drawn) <= set(kinds)
}


def _resolver(group: CurveGroup, rng: random.Random):
    """The function that turns a word into the rule inputs (kind, point, r)
    of a point on a model of ``group``."""
    order, nth, getrandbits, randrange = group.order(), group.nth, rng.getrandbits, rng.randrange
    bits = order.bit_length()

    def resolve(word: str, model: SurfaceModel) -> tuple:
        draw = _KIND_DRAWS.get((model.__class__, word))
        if draw is not None:  # The loop of ``randrange``, inlined for a kind and a point.
            kinds, n, k = draw
            kind = getrandbits(k)
            while kind >= n:
                kind = getrandbits(k)
            i = getrandbits(bits)
            while i >= order:
                i = getrandbits(bits)
            return kinds[kind], nth(i), None
        if model.__class__ is not IndecMinus1:
            raise InvalidPointSpec(f"template {word!r} on family {model.family()}")
        if word == "random":
            return (Pair, *_unordered(nth(randrange(order)), nth(randrange(order))))
        if word != "generic":
            raise InvalidPointSpec(f"template {word!r} on the e=-1 surface")
        if order < 2:
            raise DegenerateModel(f"group {group} has no two distinct points")
        q = r = nth(randrange(order))
        while r == q:
            r = nth(randrange(order))
        return (Pair, *_unordered(q, r))

    return resolve


def resolve_template(template, model: SurfaceModel, rng: random.Random) -> PointSpec:
    """Turn a walk-step template into a concrete point on ``model``.

    A template is either a concrete :class:`PointSpec` (validated against
    the family by ``elm`` itself) or a word of ``WALK_TEMPLATES``, resolved by
    the resolver ``walk`` binds, here for one step, into the descriptor of its
    rule inputs.  ``rng.choice`` of n kinds and ``rng.randrange(n)`` call
    ``rng.getrandbits(n.bit_length())`` until it is below n; the resolver makes
    the same calls, so a seed gives the same point.
    """
    if not isinstance(template, str):
        return template
    if model.__class__ not in POINT_KINDS:
        raise InvalidSurface(f"{model!r} is not a surface model")
    kind, point, r = _resolver(model.group, rng)(template, model)
    return kind(point) if r is None else kind(point, r)


def walk(s0: SurfaceModel, templates, rng_seed: int = 0) -> WalkResult:
    """Apply a sequence of transformations; deterministic for a fixed seed.

    The first word binds one resolver for the whole walk, to ``s0``'s group
    and ``random.Random(rng_seed)``: ``elm`` refuses a point of another group,
    so every model lies on it.  It draws as ``resolve_template`` does.  A word
    step goes from the draw straight to its rule, a concrete point through ``elm``.
    """
    if s0.__class__ not in POINT_KINDS:
        raise InvalidSurface(f"{s0!r} is not a surface model")
    # A set or mapping would walk in hash order, which changes between
    # processes.  A list or tuple, the common case, skips the ABC checks.
    if templates.__class__ not in (tuple, list):
        if isinstance(templates, (str, bytes, Set, Mapping)):
            raise InvalidPointSpec(f"{templates!r} is not a sequence of walk steps")
        try:
            templates = iter(templates)
        except TypeError:
            raise InvalidPointSpec(f"{templates!r} is not a sequence of walk steps") from None
    if rng_seed.__class__ is not int:
        raise InvalidArgument(f"rng_seed {rng_seed!r} is not an int")
    trajectory = [s0]
    steps = []
    model = s0
    resolve = None
    for template in templates:
        if isinstance(template, str):
            if resolve is None:
                resolve = _resolver(s0.group, random.Random(rng_seed))
            result = _RULES[model.__class__](model, *resolve(template, model))
        else:
            result = elm(model, template)
        steps.append(result)
        model = result.model
        trajectory.append(model)
    return WalkResult(tuple(trajectory), tuple(steps))
