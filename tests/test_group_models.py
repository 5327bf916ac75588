"""Isomorphic group models and curve automorphisms as oracles for the linear
systems and the scroll classification.

A curve isomorphism carries every surface and system to an isomorphic one,
so ``analyze`` and ``classify_scroll`` must give the same record, or refuse
with the same error code, on both sides.  Three curve isomorphisms are
checked:

- Torus(2,12) onto Weierstrass(23,-1,0), through (i, j) -> i*Q + j*P, where
  P has order 12 and Q is a 2-torsion point outside <P>;
- translation by x on Torus(12,12), which maps a class (d, a) to
  (d, a + d*x) and the e = -1 surface over p0 to the one over p0 + x;
- negation, [-1], an automorphism of every curve, on Torus(12,12),
  Torus(2,6) and Weierstrass(23,-1,0).  It also carries each point where
  ``elm`` acts to its negative, a pair to the pair of its negatives, so
  ``elm`` must fire the same rule and give a model isomorphic to the image.

So are the two isomorphisms of surface models that are not equalities, on
Torus(12,12) (``isomorphism.isomorphic``):

- ``IndecMinus1(p0 + 2t)`` with b onto ``IndecMinus1(p0)`` with b + m*t,
  where m*t stands for the degree-0 class with group sum m*t;
- ``Decomposable(-a)`` with b onto ``Decomposable(a)`` with b - m*a, for a
  class a of degree 0.

Most rows are decided by degrees alone, on both sides of either map; these
two are drawn on the rows where a torsion condition decides.

Tier-1 replays a seeded sample of each; the whole sweeps run with
``ELLSCROLL_FUZZ=1``.
"""

import itertools
import os
import random

import pytest
from isomorphism import isomorphic
from test_elmtrans import _points
from test_linsys import all_cases

from ellscroll import linsys
from ellscroll.classify import classify_scroll
from ellscroll.elmtrans import POINT_KINDS, Pair, elm
from ellscroll.errors import EngineError
from ellscroll.groups import TorusGroup, WeierstrassGroup
from ellscroll.picard import DivisorClass
from ellscroll.surface import Decomposable, Indec0, IndecMinus1, SurfaceDivisorClass

FUZZ_FRESH = os.environ.get("ELLSCROLL_FUZZ") == "1"

T = TorusGroup(2, 12)
W = WeierstrassGroup(23, -1, 0)
T12 = TorusGroup(12, 12)


def order(x):
    k, y = 1, x
    while not y.is_zero():
        k, y = k + 1, y + x
    return k


def torus_to_curve():
    """The isomorphism (i, j) -> i*Q + j*P from Torus(2,12) onto W, as a dict."""
    P = next(x for x in W.elements() if order(x) == 12)
    Q = next(x for x in W.elements() if order(x) == 2 and x != 6 * P)
    return {t: t.coords[0] * Q + t.coords[1] * P for t in T.elements()}


ISO = torus_to_curve()


def carry_class(c, point, x):
    """The class (d, point(a) + d*x) that the curve map makes of (d, a)."""
    return DivisorClass(c.degree, point(c.abel) + c.degree * x)


def carry_surface(s, point, x):
    """The surface that the curve map P -> point(P) + x makes of ``s``."""
    if isinstance(s, Decomposable):
        return Decomposable(carry_class(s.e_class, point, x))
    if isinstance(s, Indec0):
        return Indec0(x.group)
    return IndecMinus1(point(s.p0) + x)


def carry(s, H, point, x):
    """The surface and system that the curve map P -> point(P) + x makes of
    (s, H), with ``point`` a group isomorphism."""
    return carry_surface(s, point, x), SurfaceDivisorClass(H.m, carry_class(H.b, point, x))


def outcome(op, s, H):
    """The record's dict, or the error code of the refusal."""
    try:
        return op(s, H).to_dict()
    except EngineError as err:
        return err.code


def classify(s, H):
    return classify_scroll(s, H.b)


def mismatches(pairs):
    """The mismatches of the (s, H, point, x) cases, each carried by
    ``carry``, and the number of comparisons made."""
    return image_mismatches((s, H, *carry(s, H, point, x)) for s, H, point, x in pairs)


def image_mismatches(cases):
    """The (surface, system) pairs of the (s, H, image s, image H) cases that
    answer differently from their image, and the number of comparisons made."""
    bad, compared = [], 0
    for s, H, s_image, H_image in cases:
        for op in (linsys.analyze, classify) if H.m == 1 else (linsys.analyze,):
            compared += 1
            if outcome(op, s, H) != outcome(op, s_image, H_image):
                bad.append((op.__name__, s, str(H), s_image, str(H_image)))
    return bad, compared


# -- Torus(2,12) against Weierstrass(23,-1,0) ---------------------------------

def families(group):
    """The surfaces of each family on ``group``: split ones with e = 0..3."""
    return (
        [Decomposable(DivisorClass(-e, g)) for e in range(4) for g in group.elements()],
        [Indec0(group)],
        [IndecMinus1(g) for g in group.elements()],
    )


def surfaces(group):
    return [s for family in families(group) for s in family]


def systems(group):
    return [
        SurfaceDivisorClass(m, DivisorClass(d, g))
        for m in (1, 2, 3)
        for d in range(-4, 7)
        for g in group.elements()
    ]


#: The surfaces of each family; a sample draws the family first, so the one
#: Indec0 surface is drawn as often as a whole family.
FAMILIES = families(T)
SURFACES = surfaces(T)
SYSTEMS = systems(T)


def iso_pairs(cases):
    return ((s, H, ISO.__getitem__, W.zero()) for s, H in cases)


def test_torus_to_curve_is_an_isomorphism():
    assert sorted(ISO.values(), key=lambda g: g.sort_key()) == list(W.elements())
    for a, b in itertools.product(T.elements(), repeat=2):
        assert ISO[a + b] == ISO[a] + ISO[b]


def test_weierstrass_model_answers_as_the_torus_on_a_sample():
    rng = random.Random(12)
    cases = [
        (rng.choice(rng.choice(FAMILIES)), rng.choice(SYSTEMS)) for _ in range(3000)
    ]
    bad, compared = mismatches(iso_pairs(cases))
    assert bad == [] and compared > 3000


@pytest.mark.skipif(not FUZZ_FRESH, reason="the whole sweep runs with ELLSCROLL_FUZZ=1")
def test_weierstrass_model_answers_as_the_torus_sweep():
    bad, compared = mismatches(iso_pairs(itertools.product(SURFACES, SYSTEMS)))
    assert bad == [] and compared == len(SURFACES) * len(SYSTEMS) * 4 // 3


# -- translation on Torus(12,12) ----------------------------------------------

#: The desk-scale sweep of the linsys tests (every torsion side condition,
#: on Torus(12,12)), at m in {1, 2, 3}.
CASES = list(all_cases(ms=(1, 2, 3), degs=range(-4, 7), es=range(-1, 4)))


def identity(g):
    return g


def test_answers_are_invariant_under_translation_on_a_sample():
    rng = random.Random(144)
    pairs = [
        (*rng.choice(CASES), identity, rng.choice(T12.elements())) for _ in range(3000)
    ]
    bad, compared = mismatches(pairs)
    assert bad == [] and compared > 3000


@pytest.mark.skipif(not FUZZ_FRESH, reason="the whole sweep runs with ELLSCROLL_FUZZ=1")
def test_answers_are_invariant_under_translation_sweep():
    pairs = itertools.product(CASES, T12.elements())
    bad, compared = mismatches((s, H, identity, x) for (s, H), x in pairs)
    assert bad == [] and compared > len(CASES) * T12.order()


# -- isomorphic models on Torus(12,12) -----------------------------------------

#: A group sum of order 12, off the torsion conditions drawn here.
OFF = T12.element(5, 7)
TWISTED_BASES = (T12.zero(), T12.element(1, 0), T12.element(6, 6), T12.element(3, 4))


def twist_cases(pairs):
    """For each (p0, t): IndecMinus1(p0 + 2t) and IndecMinus1(p0), with the
    systems of degree -1..1 that the torsion of the e = -1 surface decides:
    b = -q with 2q = 2*(p0 + 2t) decides |2X0 + b*f| at degree -1."""
    for p0, t in pairs:
        source, image = IndecMinus1(p0 + 2 * t), IndecMinus1(p0)
        abels = {-q for q in T12.halvings(2 * source.p0)} | {T12.zero(), OFF}
        for m, d, abel in itertools.product((1, 2), (-1, 0, 1), abels):
            b = DivisorClass(d, abel)
            shift = DivisorClass(0, m * t)
            yield source, SurfaceDivisorClass(m, b), image, SurfaceDivisorClass(m, b + shift)


def swap_cases(abels):
    """For each a: Decomposable(-a) and Decomposable(a), with the systems of
    degree -1..2 whose group sums are the ones a decides by: 0, +-a, +-2a."""
    for a in abels:
        A = DivisorClass(0, a)
        source, image = Decomposable(-A), Decomposable(A)
        sums = {T12.zero(), a, -a, 2 * a, -2 * a, OFF}
        for m, d, abel in itertools.product((1, 2), (-1, 0, 1, 2), sums):
            b = DivisorClass(d, abel)
            yield source, SurfaceDivisorClass(m, b), image, SurfaceDivisorClass(m, b - m * A)


def assert_models_answer_as_their_isomorphic_images(cases):
    doubles = {t + t for t in T12.elements()}
    cases = list(cases)
    for s, _, s_image, _ in cases:
        assert isomorphic(s, s_image, doubles), (s, s_image)
    bad, compared = image_mismatches(cases)
    assert bad == [] and compared > len(cases)


def test_isomorphic_models_answer_alike_on_a_sample():
    rng = random.Random(19)
    elements = T12.elements()
    pairs = [(rng.choice(TWISTED_BASES), rng.choice(elements)) for _ in range(24)]
    assert_models_answer_as_their_isomorphic_images(twist_cases(pairs))
    assert_models_answer_as_their_isomorphic_images(swap_cases(rng.sample(elements, 24)))


@pytest.mark.skipif(not FUZZ_FRESH, reason="the whole sweep runs with ELLSCROLL_FUZZ=1")
def test_isomorphic_models_answer_alike_sweep():
    elements = T12.elements()
    assert_models_answer_as_their_isomorphic_images(
        twist_cases(itertools.product(TWISTED_BASES, elements))
    )
    assert_models_answer_as_their_isomorphic_images(swap_cases(elements))


# -- negation, [-1], on every group model ----------------------------------------

#: Torus(12,12) takes the desk-scale sweep ``CASES``, which meets every torsion
#: side condition; the smaller groups take every surface of ``families`` with
#: every system of ``systems``.
NEGATED = [T12, TorusGroup(2, 6), W]


def negate(g):
    return -g


def negation_cases(group):
    if group is T12:
        return CASES
    return list(itertools.product(surfaces(group), systems(group)))


def negated_point(x):
    """The point that [-1] makes of ``x``: a pair goes to the pair of the
    negatives, which ``Pair`` may order the other way round."""
    if isinstance(x, Pair):
        return Pair(-x.q, -x.r)
    return type(x)(-x.P)


def elm_outcome(s, x):
    try:
        result = elm(s, x)
    except EngineError as err:
        return err.code, None
    return result.rule, result.model


def elm_mismatches(group, cases):
    """The (s, x) cases where ``elm`` on the negated surface and point fires
    another rule, or gives a model that is not isomorphic to the negative of
    its model, and the number of cases."""
    zero, doubles = group.zero(), {t + t for t in group.elements()}
    bad, compared = [], 0
    for s, x in cases:
        compared += 1
        rule, model = elm_outcome(s, x)
        rule_image, model_image = elm_outcome(carry_surface(s, negate, zero), negated_point(x))
        if rule != rule_image or (model is not None) != (model_image is not None):
            bad.append((s, x, rule, rule_image))
        elif model is not None and not isomorphic(
            carry_surface(model, negate, zero), model_image, doubles
        ):
            bad.append((s, x, model, model_image))
    return bad, compared


def elm_cases(group):
    """Every point of every surface of ``families``, one at a time."""
    return ((s, x) for s in surfaces(group) for x in _points(s))


def sampled_point(s, rng):
    """A point of ``s`` of a drawn kind, over drawn elements."""
    elements = s.group.elements()
    kind = rng.choice(POINT_KINDS[type(s)])
    return kind(*(rng.choice(elements) for _ in kind._fields))


@pytest.mark.parametrize("group", NEGATED, ids=str)
def test_answers_are_invariant_under_negation_on_a_sample(group):
    rng = random.Random(f"negation {group}")
    zero = group.zero()
    cases = negation_cases(group)
    bad, compared = mismatches((*rng.choice(cases), negate, zero) for _ in range(1000))
    assert bad == [] and compared > 1000
    models = surfaces(group)
    drawn = (rng.choice(models) for _ in range(1000))
    bad, compared = elm_mismatches(group, ((s, sampled_point(s, rng)) for s in drawn))
    assert bad == [] and compared == 1000


@pytest.mark.skipif(not FUZZ_FRESH, reason="the whole sweep runs with ELLSCROLL_FUZZ=1")
@pytest.mark.parametrize("group", NEGATED, ids=str)
def test_answers_are_invariant_under_negation_sweep(group):
    zero = group.zero()
    cases = negation_cases(group)
    bad, compared = mismatches((s, H, negate, zero) for s, H in cases)
    assert bad == [] and compared > len(cases)
    bad, compared = elm_mismatches(group, elm_cases(group))
    assert bad == [] and compared > len(surfaces(group))
