"""Rule-engine tests: the 13 branches, closure, and seeded walks."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from ellscroll.elmtrans import (
    ALL_RULES,
    Generic,
    OnX0,
    OnX1,
    Pair,
    elm,
    resolve_template,
    walk,
)
from ellscroll.errors import InvalidPointSpec, MixedGroups
from ellscroll.groups import TorusGroup, WeierstrassGroup, default_group
from ellscroll.picard import DivisorClass, point_class
from ellscroll.surface import (
    Decomposable,
    Indec0,
    IndecMinus1,
    invariant_e,
)

G = default_group()
O = G.zero()
P = G.element(1, 0)
Q = G.element(0, 1)


def dec(e, abel=None):
    return Decomposable(DivisorClass(-e, abel if abel is not None else O))


# -- individual branches ----------------------------------------------------


def test_dec_trivial_any_always_splits():
    for spec in (OnX0(P), OnX1(P), Generic(P)):
        out = elm(dec(0), spec)
        assert out.rule == "dec_trivial_any"
        assert out.model == Decomposable(-point_class(P))
        assert out.model.e_class == -point_class(P)


def test_dec_on_minimum_section_raises_e():
    out = elm(dec(2, P), OnX0(Q))
    assert out.rule == "dec_onX0_epos"
    assert out.model.e_class == DivisorClass(-2, P) - point_class(Q)
    assert invariant_e(out.model) == 3


def test_dec_e0_on_minimum_section():
    s = Decomposable(DivisorClass(0, P))
    out = elm(s, OnX0(Q))
    assert out.rule == "dec_e0_onX0"
    assert invariant_e(out.model) == 1


def test_dec_high_e_off_section_lowers_e():
    out = elm(dec(3, P), Generic(Q))
    assert out.rule == "dec_e2_offX0"
    assert out.model.e_class == DivisorClass(-3, P) + point_class(Q)


def test_dec_e1_off_section_plain():
    out = elm(dec(1, P), OnX1(Q))
    assert out.rule == "dec_e1_offX0_plain"
    assert invariant_e(out.model) == 0


def test_dec_e1_torsion_branches():
    s = Decomposable(-point_class(P))  # e_class ~ -P
    on_x1 = elm(s, OnX1(P))
    assert on_x1.rule == "dec_e1_onX1_torsion"
    assert on_x1.model == dec(0)
    generic = elm(s, Generic(P))
    assert generic.rule == "dec_e1_gen_torsion"
    assert isinstance(generic.model, Indec0)


def test_dec_e0_second_section_branch():
    s = Decomposable(DivisorClass(0, P))
    out = elm(s, OnX1(Q))
    assert out.rule == "dec_e0_onX1"
    assert out.model.e_class == DivisorClass(0, -P) - point_class(Q)
    assert out.y0_note == "X1prime"


def test_dec_e0_generic_leaves_split_locus():
    s = Decomposable(DivisorClass(0, P))
    out = elm(s, Generic(Q))
    assert out.rule == "dec_e0_gen"
    assert isinstance(out.model, IndecMinus1)
    assert out.model.p0 == P + Q


def test_ind0_branches():
    s = Indec0(G)
    down = elm(s, OnX0(P))
    assert down.rule == "ind0_onX0"
    assert down.model == Decomposable(-point_class(P))
    off = elm(s, Generic(P))
    assert off.rule == "ind0_gen"
    assert off.model == IndecMinus1(P)


def test_indm1_branches():
    s = IndecMinus1(O)
    diag = elm(s, Pair(P, P))
    assert diag.rule == "indm1_diag"
    assert isinstance(diag.model, Indec0)
    split = elm(s, Pair(P, Q))
    assert split.rule == "indm1_split"
    assert split.model == Decomposable(DivisorClass(0, Q - P))
    assert split.y0_note == "DRprime"


def test_family_mismatch_specs_rejected():
    with pytest.raises(InvalidPointSpec):
        elm(dec(1), Pair(P, Q))
    with pytest.raises(InvalidPointSpec):
        elm(Indec0(G), OnX1(P))
    with pytest.raises(InvalidPointSpec):
        elm(IndecMinus1(O), Generic(P))


def test_pair_is_unordered():
    assert Pair(Q, P) == Pair(P, Q)
    assert (Pair(P, Q).q, Pair(P, Q).r) == (Q, P)  # stored in element order


# -- closure and coverage ---------------------------------------------------


def _random_start(rng_index):
    starts = [
        dec(0),
        dec(0, P),
        dec(1, Q),
        dec(3, P),
        Indec0(G),
        IndecMinus1(P),
    ]
    return starts[rng_index % len(starts)]


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 5), st.integers(0, 2**30))
def test_walks_stay_in_the_three_families(start_index, seed):
    result = walk(_random_start(start_index), ["random"] * 12, rng_seed=seed)
    for before, step in zip(result.trajectory, result.steps):
        model = step.model
        assert isinstance(model, (Decomposable, Indec0, IndecMinus1))
        if isinstance(model, Decomposable):
            assert model.e_class.degree <= 0  # normalized
        assert abs(invariant_e(model) - invariant_e(before)) == 1
        assert step.rule in ALL_RULES


def test_all_thirteen_rules_fire():
    fired = set()
    for start_index in range(6):
        for seed in range(120):
            result = walk(
                _random_start(start_index), ["random"] * 8, rng_seed=seed
            )
            fired |= {step.rule for step in result.steps}
    # Torsion branches need targeted shots; include them deterministically.
    s = Decomposable(-point_class(P))
    fired.add(elm(s, OnX1(P)).rule)
    fired.add(elm(s, Generic(P)).rule)
    assert fired == set(ALL_RULES)
    assert len(ALL_RULES) == 13


def test_resolve_template_errors():
    with pytest.raises(InvalidPointSpec):
        walk(dec(1), ["bogus"])
    with pytest.raises(InvalidPointSpec):
        walk(IndecMinus1(O), ["onX0"])


def test_a_template_draws_its_kind_then_its_point():
    # ``rng.choice`` draws even from a single kind; the seeded streams
    # depend on that draw.
    kinds = {
        "generic": (Generic,), "onX0": (OnX0,), "onX1": (OnX1,),
        "random": (Generic, OnX0, OnX1),
    }
    for s in (dec(0), dec(2), Indec0(G)):
        for template, choices in kinds.items():
            if isinstance(s, Indec0):
                if template == "onX1":
                    continue
                choices = tuple(k for k in choices if k is not OnX1)
            for seed in range(5):
                rng, ref = random.Random(seed), random.Random(seed)
                spec = resolve_template(template, s, rng)
                kind = ref.choice(choices)
                assert spec == kind(G.nth(ref.randrange(G.order())))
                assert rng.getstate() == ref.getstate()


def test_walk_deterministic_for_seed():
    a = walk(Indec0(G), ["random"] * 6, rng_seed=7)
    b = walk(Indec0(G), ["random"] * 6, rng_seed=7)
    assert a == b


def _reference_random_walk(s0, steps, seed):
    """A ``"random"`` walk that draws each point with ``rng.choice`` over
    the listed enumeration: the stream that index draws must reproduce."""
    rng = random.Random(seed)
    model, out = s0, []
    for _ in range(steps):
        pick = lambda: rng.choice(list(model.group.elements()))
        if isinstance(model, IndecMinus1):
            spec = Pair(pick(), pick())
        elif isinstance(model, Decomposable):
            spec = rng.choice((Generic, OnX0, OnX1))(pick())
        else:
            spec = rng.choice((Generic, OnX0))(pick())
        result = elm(model, spec)
        out.append(result)
        model = result.model
    return tuple(out)


def test_random_walk_streams_are_pinned():
    # The six starts of acceptance criterion 5, plus one on a curve model.
    W = WeierstrassGroup(23, -1, 0)
    starts = [
        dec(0), dec(0, P), dec(1), dec(2, G.element(3, 4)), Indec0(G),
        IndecMinus1(G.element(1, 1)), IndecMinus1(W.nth(5)),
    ]
    for s0 in starts:
        for seed in (0, 1, 20260823):
            steps = walk(s0, ["random"] * 50, rng_seed=seed).steps
            assert steps == _reference_random_walk(s0, 50, seed)


T4 = TorusGroup(4, 4)


@pytest.mark.parametrize(
    "s, x",
    [
        (dec(0), OnX0(T4.element(1, 0))),  # dec_trivial_any
        (Indec0(G), OnX0(T4.element(1, 0))),  # ind0_onX0
        (Indec0(G), Generic(T4.element(1, 0))),  # ind0_gen
        (IndecMinus1(O), Pair(T4.element(1, 0), T4.element(1, 0))),  # indm1_diag
        (IndecMinus1(O), Pair(P, T4.element(2, 0))),  # indm1_split, r foreign
    ],
)
def test_a_point_of_another_group_is_refused(s, x):
    with pytest.raises(MixedGroups):
        elm(s, x)
