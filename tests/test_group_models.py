"""Isomorphic group models and curve automorphisms as oracles for the linear
systems and the scroll classification.

A curve isomorphism carries every surface and system to an isomorphic one,
so ``analyze`` and ``classify_scroll`` must give the same record, or refuse
with the same error code, on both sides.  Two isomorphisms are checked:

- Torus(2,12) onto Weierstrass(23,-1,0), through (i, j) -> i*Q + j*P, where
  P has order 12 and Q is a 2-torsion point outside <P>;
- translation by x on Torus(12,12), which maps a class (d, a) to
  (d, a + d*x) and the e = -1 surface over p0 to the one over p0 + x.

Tier-1 replays a seeded sample of each; the whole sweeps run with
``ELLSCROLL_FUZZ=1``.
"""

import itertools
import os
import random

import pytest
from test_linsys import all_cases

from ellscroll import linsys
from ellscroll.classify import classify_scroll
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


def carry(s, H, point, x):
    """The surface and system that the curve map P -> point(P) + x makes of
    (s, H), with ``point`` a group isomorphism: a class (d, a) goes to
    (d, point(a) + d*x)."""

    def image(c):
        return DivisorClass(c.degree, point(c.abel) + c.degree * x)

    if isinstance(s, Decomposable):
        s = Decomposable(image(s.e_class))
    elif isinstance(s, Indec0):
        s = Indec0(x.group)
    else:
        s = IndecMinus1(point(s.p0) + x)
    return s, SurfaceDivisorClass(H.m, image(H.b))


def outcome(op, s, H):
    """The record's dict, or the error code of the refusal."""
    try:
        return op(s, H).to_dict()
    except EngineError as err:
        return err.code


def classify(s, H):
    return classify_scroll(s, H.b)


def mismatches(pairs):
    """The (surface, system, x) triples whose image answers differently, and
    the number of comparisons made."""
    bad, compared = [], 0
    for s, H, point, x in pairs:
        image = carry(s, H, point, x)
        for op in (linsys.analyze, classify) if H.m == 1 else (linsys.analyze,):
            compared += 1
            if outcome(op, s, H) != outcome(op, *image):
                bad.append((op.__name__, s, str(H), x))
    return bad, compared


# -- Torus(2,12) against Weierstrass(23,-1,0) ---------------------------------

#: The surfaces of each family; a sample draws the family first, so the one
#: Indec0 surface is drawn as often as a whole family.
FAMILIES = (
    [Decomposable(DivisorClass(-e, g)) for e in range(4) for g in T.elements()],
    [Indec0(T)],
    [IndecMinus1(g) for g in T.elements()],
)
SURFACES = [s for family in FAMILIES for s in family]
SYSTEMS = [
    SurfaceDivisorClass(m, DivisorClass(d, g))
    for m in (1, 2, 3)
    for d in range(-4, 7)
    for g in T.elements()
]


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
