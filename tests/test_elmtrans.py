"""Rule-engine tests: the 13 branches, closure, seeded walks, the rule table
of the paper and the reversibility of every transformation."""

import hashlib
import os
import random

import pytest
from hypothesis import given, settings, strategies as st
from isomorphism import isomorphic

from ellscroll.elmtrans import (
    ALL_RULES,
    POINT_KINDS,
    TEMPLATE_KINDS,
    WALK_TEMPLATES,
    Generic,
    OnX0,
    OnX1,
    Pair,
    elm,
    resolve_template,
    walk,
)
from ellscroll.classify import _all_specs
from ellscroll.cli import Elm, parse
from ellscroll.errors import (
    DegenerateModel,
    EngineError,
    InvalidArgument,
    InvalidPointSpec,
    InvalidSurface,
    MixedGroups,
    SemanticError,
)
from ellscroll.groups import TorusGroup, WeierstrassGroup, default_group
from ellscroll.picard import DivisorClass, point_class
from ellscroll.surface import (
    Decomposable,
    Indec0,
    IndecMinus1,
)

#: The tier-1 run checks Torus(4,4); ``ELLSCROLL_FUZZ=1`` adds the sweeps.
FUZZ_FRESH = os.environ.get("ELLSCROLL_FUZZ") == "1"

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
    assert out.model.e == 3


def test_dec_e0_on_minimum_section():
    s = Decomposable(DivisorClass(0, P))
    out = elm(s, OnX0(Q))
    assert out.rule == "dec_e0_onX0"
    assert out.model.e == 1


def test_dec_high_e_off_section_lowers_e():
    out = elm(dec(3, P), Generic(Q))
    assert out.rule == "dec_e2_offX0"
    assert out.model.e_class == DivisorClass(-3, P) + point_class(Q)


def test_dec_e1_off_section_plain():
    out = elm(dec(1, P), OnX1(Q))
    assert out.rule == "dec_e1_offX0_plain"
    assert out.model.e == 0


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


#: The point kinds of each family, written out from the paper: points on
#: X0, on X1 or on neither of a split surface; on the minimum section or
#: off it for e = 0; unordered pairs for e = -1.
FAMILY_KINDS = {
    "dec": {Generic, OnX0, OnX1}, "ind0": {Generic, OnX0}, "indm1": {Pair}
}
FAMILY_MODELS = {
    "dec": (dec(2, P), "dec(-3*O+P(1,0))"), "ind0": (Indec0(G), "ind0"),
    "indm1": (IndecMinus1(O), "indm1(O)"),
}
KIND_SPECS = {
    Generic: (Generic(P), "gen@(1,0)"), OnX0: (OnX0(P), "onX0@(1,0)"),
    OnX1: (OnX1(P), "onX1@(1,0)"), Pair: (Pair(P, Q), "pair{(1,0),(0,1)}"),
}
#: The walk template that draws each kind, and the kinds each template
#: resolves to on each family; a missing key is a template the family
#: refuses.
KIND_TEMPLATES = {Generic: "generic", OnX0: "onX0", OnX1: "onX1", Pair: "random"}
TEMPLATE_RESULTS = {
    ("dec", "generic"): {Generic}, ("dec", "onX0"): {OnX0}, ("dec", "onX1"): {OnX1},
    ("dec", "random"): {Generic, OnX0, OnX1},
    ("ind0", "generic"): {Generic}, ("ind0", "onX0"): {OnX0},
    ("ind0", "random"): {Generic, OnX0},
    ("indm1", "generic"): {Pair}, ("indm1", "random"): {Pair},
}


@pytest.mark.parametrize("kind", KIND_SPECS, ids=lambda k: k.__name__)
@pytest.mark.parametrize("family", FAMILY_KINDS)
def test_family_mismatch_specs_rejected(family, kind):
    s, surface_text = FAMILY_MODELS[family]
    spec, spec_text = KIND_SPECS[kind]
    has_kind = kind in FAMILY_KINDS[family]
    # The engine and the CLI refuse the same pairings, in the same words.
    if has_kind:
        elm(s, spec)
        assert parse(f"elm {surface_text} {spec_text}").variant == Elm(s, spec)
    else:
        with pytest.raises(InvalidPointSpec) as engine:
            elm(s, spec)
        with pytest.raises(SemanticError) as cli:
            parse(f"elm {surface_text} {spec_text}")
        assert str(cli.value) == str(engine.value)
    # The template that draws this kind resolves on this family as listed.
    template = KIND_TEMPLATES[kind]
    expected = TEMPLATE_RESULTS.get((family, template))
    for seed in range(8):
        if expected is None:
            with pytest.raises(InvalidPointSpec):
                resolve_template(template, s, random.Random(seed))
        else:
            assert type(resolve_template(template, s, random.Random(seed))) in expected
    # The search enumerates exactly the family's kinds.
    assert (kind in {type(x) for x in _all_specs(s, s.group.elements())}) == has_kind


def test_the_cli_messages_of_a_kind_a_family_lacks():
    # Pinned byte for byte: the benchmark's digest hashes the CLI's stderr.
    cases = {
        "elm indm1(O) gen@(1,0)": "points of indm1 are pair{...} descriptors",
        "elm ind0 pair{(1,0),(0,1)}": "pair{...} does not apply to ind0",
        "elm dec(0*O) pair{(1,0),(0,1)}": "pair{...} does not apply to dec",
        "elm ind0 onX1@(1,0)": "ind0 has no second section onX1",
    }
    for line, message in cases.items():
        with pytest.raises(SemanticError) as info:
            parse(line)
        assert str(info.value) == message


def test_elm_refuses_what_is_not_a_point_descriptor():
    # Not a descriptor, or a descriptor of something that is not a point,
    # which is refused where it is built.
    builds = (lambda: "onX0", lambda: OnX0((1, 0)), lambda: Generic(point_class(P)),
              lambda: OnX0(None))
    for build in builds:
        for s in (dec(1), Indec0(G)):
            with pytest.raises(InvalidPointSpec, match="not a point descriptor"):
                elm(s, build())


@pytest.mark.parametrize(
    "s", ["dec", None, G, point_class(P), Generic(P)],
    ids=["str", "None", "group", "class", "point"],
)
def test_elm_refuses_what_is_not_a_surface_model(s):
    # A walk checks its start before any step, even with no steps to take,
    # and a template is refused before it is resolved on the model.
    calls = [lambda x=x: elm(s, x) for x in (OnX0(O), Pair(P, Q), "onX0")] + [
        lambda: walk(s, ["random"]),
        lambda: walk(s, []),
        lambda: resolve_template("random", s, random.Random(0)),
    ]
    for call in calls:
        with pytest.raises(InvalidSurface, match="is not a surface model") as info:
            call()
        assert info.value.code == "InvalidSurface"


@pytest.mark.parametrize(
    "templates, rng_seed",
    [
        (None, 0), (5, 0), (OnX0(O), 0), ("random", 0), (b"random", 0),
        (["bogus"], [1]), (["bogus"], None), (["bogus"], 1.0), (["bogus"], "1"),
        (["bogus"], True),
    ],
    ids=["None", "int", "point", "str", "bytes", "seed-list", "seed-None", "seed-float",
         "seed-str", "seed-bool"],
)
def test_walk_refuses_steps_that_are_not_a_sequence(templates, rng_seed):
    # Refused before any step: the step "bogus" would raise another message.
    error, message = (
        (InvalidArgument, "is not an int") if isinstance(templates, list)
        else (InvalidPointSpec, "is not a sequence of walk steps")
    )
    with pytest.raises(error, match=message) as info:
        walk(Indec0(G), templates, rng_seed=rng_seed)
    assert info.value.code == error.__name__


@pytest.mark.parametrize(
    "templates",
    [{"bogus", "random"}, frozenset({"bogus"}), {"bogus": 1}, {"bogus": 1}.keys(), set()],
    ids=["set", "frozenset", "dict", "keys", "empty-set"],
)
def test_walk_refuses_steps_in_hash_order(templates):
    # A set or mapping iterates in the hash order of its strings, which
    # changes with PYTHONHASHSEED; it is refused before any step.
    with pytest.raises(InvalidPointSpec, match="is not a sequence of walk steps") as info:
        walk(Indec0(G), templates, rng_seed=1)
    assert info.value.code == "InvalidPointSpec"


def test_walk_takes_steps_from_lists_tuples_and_generators():
    steps = ["random", "generic", OnX0(P), "onX0", "random"]
    expected = walk(Indec0(G), steps, rng_seed=5)
    assert walk(Indec0(G), tuple(steps), rng_seed=5) == expected
    assert walk(Indec0(G), iter(steps), rng_seed=5) == expected
    assert walk(Indec0(G), (step for step in steps), rng_seed=5) == expected


@pytest.mark.parametrize(
    "q, r", [((1, 0), (0, 1)), (P, None), (point_class(P), Q)], ids=["tuples", "None", "class"]
)
def test_pair_refuses_what_is_not_a_point(q, r):
    for args in ((q, r), (r, q)):
        with pytest.raises(InvalidPointSpec, match="not a point descriptor"):
            Pair(*args)


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
        assert abs(model.e - before.e) == 1
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


# -- the rule table of the paper ---------------------------------------------

#: The 13 rules of the paper's three results on elementary transformations
#: (Theorem telementalelipticasdescomp, Propositions telementalnodescomp0 and
#: telementalnodescomp1), one entry per (family, e, kind, torsion condition).
#: ``e`` is the source's invariant, 2 standing for every e >= 2.  A is the
#: group sum of the source's invariant class (p0 on indm1) and P the point; a
#: pair {q, r} is read as P = q, its first point in element order, and r.
#: ``None`` is no condition.  Each entry gives the result's family, its change
#: of e, the group sum of its invariant class as the coefficients of (A, P, r),
#: the curve that became its minimum section and the rule id.
RULE_TABLE = {
    ("dec", 0, Generic, "A=0"): ("dec", +1, (0, -1, 0), "X0prime", "dec_trivial_any"),
    ("dec", 0, OnX0, "A=0"): ("dec", +1, (0, -1, 0), "X0prime", "dec_trivial_any"),
    ("dec", 0, OnX1, "A=0"): ("dec", +1, (0, -1, 0), "X0prime", "dec_trivial_any"),
    ("dec", 0, OnX0, "A!=0"): ("dec", +1, (1, -1, 0), "X0prime", "dec_e0_onX0"),
    ("dec", 0, OnX1, "A!=0"): ("dec", +1, (-1, -1, 0), "X1prime", "dec_e0_onX1"),
    ("dec", 0, Generic, "A!=0"): ("indm1", -1, (1, 1, 0), "X0prime", "dec_e0_gen"),
    ("dec", 1, OnX0, None): ("dec", +1, (1, -1, 0), "X0prime", "dec_onX0_epos"),
    ("dec", 1, OnX1, "A+P!=0"): ("dec", -1, (1, 1, 0), "X0prime", "dec_e1_offX0_plain"),
    ("dec", 1, Generic, "A+P!=0"): ("dec", -1, (1, 1, 0), "X0prime", "dec_e1_offX0_plain"),
    ("dec", 1, OnX1, "A+P=0"): ("dec", -1, (0, 0, 0), "X0prime", "dec_e1_onX1_torsion"),
    ("dec", 1, Generic, "A+P=0"): ("ind0", -1, (0, 0, 0), "X0prime", "dec_e1_gen_torsion"),
    ("dec", 2, OnX0, None): ("dec", +1, (1, -1, 0), "X0prime", "dec_onX0_epos"),
    ("dec", 2, OnX1, None): ("dec", -1, (1, 1, 0), "X0prime", "dec_e2_offX0"),
    ("dec", 2, Generic, None): ("dec", -1, (1, 1, 0), "X0prime", "dec_e2_offX0"),
    ("ind0", 0, OnX0, None): ("dec", +1, (0, -1, 0), "X0prime", "ind0_onX0"),
    ("ind0", 0, Generic, None): ("indm1", -1, (0, 1, 0), "X0prime", "ind0_gen"),
    ("indm1", -1, Pair, "q=r"): ("ind0", +1, (0, 0, 0), "DRprime", "indm1_diag"),
    ("indm1", -1, Pair, "q!=r"): ("dec", +1, (0, 1, -1), "DRprime", "indm1_split"),
}


def _models(group):
    """Split models with e = 0..3 and every group sum, and every non-split model."""
    elements = group.elements()
    return [
        *(Decomposable(DivisorClass(-e, a)) for e in range(4) for a in elements),
        Indec0(group), *(IndecMinus1(p0) for p0 in elements),
    ]


def _points(model):
    """Every point of ``model``: each kind over each base point, each pair once."""
    elements = model.group.elements()
    if model.family() == "indm1":
        return [Pair(q, r) for i, q in enumerate(elements) for r in elements[i:]]
    kinds = sorted(FAMILY_KINDS[model.family()], key=lambda kind: kind.__name__)
    return [kind(p) for p in elements for kind in kinds]


def test_the_rule_table_names_each_rule():
    assert {entry[-1] for entry in RULE_TABLE.values()} == set(ALL_RULES)


def test_elm_answers_as_the_rule_table_on_every_point_of_torus_4_4():
    zero, cases = T4.zero(), 0
    for s in _models(T4):
        family, e, A = s.family(), s.e, s.e_class.abel
        for x in _points(s):
            P, r = (x.q, x.r) if isinstance(x, Pair) else (x.P, zero)
            holds = {
                None: True, "A=0": A == zero, "A!=0": A != zero,
                "A+P=0": A + P == zero, "A+P!=0": A + P != zero,
                "q=r": P == r, "q!=r": P != r,
            }
            [entry] = [
                value for (f, e_key, kind, condition), value in RULE_TABLE.items()
                if (f, e_key, kind) == (family, min(e, 2), type(x)) and holds[condition]
            ]
            to_family, de, (c_A, c_P, c_r), y0_note, rule = entry
            out = elm(s, x)
            new_class = DivisorClass(-(e + de), c_A * A + c_P * P + c_r * r)
            assert (out.model.family(), out.model.e_class, out.y0_note, out.rule) == (
                to_family, new_class, y0_note, rule
            ), (s, x)
            cases += 1
    assert cases == 5280


def test_random_walk_streams_match_their_digest():
    # The 21 walks of test_random_walk_streams_are_pinned.  Its reference
    # walk calls elm itself; this digest pins elm's answers along them.
    W = WeierstrassGroup(23, -1, 0)
    starts = [
        dec(0), dec(0, P), dec(1), dec(2, G.element(3, 4)), Indec0(G),
        IndecMinus1(G.element(1, 1)), IndecMinus1(W.nth(5)),
    ]
    digest = hashlib.sha256()
    for s0 in starts:
        for seed in (0, 1, 20260823):
            for step in walk(s0, ["random"] * 50, rng_seed=seed).steps:
                digest.update(f"{step.rule} {step.model!r}\n".encode())
    assert digest.hexdigest() == (
        "c76d93b6a32287f4dadb1a722e695f094026a8bb12b241b113ff7a99b8c83f72"
    )


# -- every template word against rng.choice and rng.randrange -------------------

#: Torus(1,1) has one point, so its e = -1 surface has no generic pair.
STREAM_GROUPS = [
    TorusGroup(12, 12), TorusGroup(2, 6), TorusGroup(1, 1), WeierstrassGroup(23, -1, 0)
]


def _reference_resolve(template, model, rng):
    """A template resolved as each step drew it before walks bound one
    resolver: kinds by ``rng.choice``, points by ``rng.randrange`` over
    ``elements()`` of the model's own group."""
    if not isinstance(template, str):
        return template
    elements = model.group.elements()
    pick = lambda: elements[rng.randrange(len(elements))]
    if isinstance(model, IndecMinus1):
        if template == "generic":
            if len(elements) < 2:
                raise DegenerateModel(f"group {model.group} has no two distinct points")
            q = r = pick()
            while r == q:
                r = pick()
            return Pair(q, r)
        if template == "random":
            return Pair(pick(), pick())
        raise InvalidPointSpec(f"template {template!r} on the e=-1 surface")
    kinds = POINT_KINDS[type(model)]
    if template != "random":
        if TEMPLATE_KINDS.get(template) not in kinds:
            raise InvalidPointSpec(f"template {template!r} on family {model.family()}")
        kinds = (TEMPLATE_KINDS[template],)
    return rng.choice(kinds)(pick())


def _outcome(call, *args):
    try:
        return call(*args)
    except EngineError as error:
        return type(error), str(error)


def _reference_walk(s0, templates, seed, seen, steps):
    """The steps of ``walk``, each template resolved by ``_reference_resolve``
    and appended to ``steps``, so that after a refusal their number is the
    refused step's index.  Adds each (family, word) it resolves to ``seen``."""
    rng, model = random.Random(seed), s0
    for template in templates:
        if isinstance(template, str):
            seen.add((model.family(), template))
        steps.append(elm(model, _reference_resolve(template, model, rng)))
        model = steps[-1].model
    return tuple(steps)


def _stream_starts(group):
    n = group.order()
    return [
        Decomposable(DivisorClass(-e, group.nth(k % n)))
        for e, k in ((0, 0), (0, 1), (1, 0), (2, n - 1))
    ] + [Indec0(group), IndecMinus1(group.nth(n // 2))]


#: A model none of ``STREAM_GROUPS`` equals: its points are foreign to a walk.
FOREIGN_GROUP = TorusGroup(3, 5)


def _template_stream(group, rng, length):
    """Words, with one step in five a concrete point of any kind: most on
    ``group`` and a few foreign."""
    out = []
    for _ in range(length):
        u = rng.random()
        if u < 0.2:
            source = group if u < 0.185 else FOREIGN_GROUP
            p, q = (rng.choice(source.elements()) for _ in "pq")
            out.append(rng.choice((Generic(p), OnX0(p), OnX1(p), Pair(p, q))))
        else:
            out.append(rng.choice(WALK_TEMPLATES))
    return out


def _assert_template_streams_match(group, seeds):
    """Each stream walks as the reference does; a refused one is refused at
    the reference's step.  Adds "foreign refused" to what the reference
    saw once a foreign point raises ``MixedGroups``."""
    seen = set()
    for seed in seeds:
        stream = random.Random(f"templates:{seed}")
        for s0 in _stream_starts(group):
            templates = _template_stream(group, stream, 16)
            steps = _outcome(lambda: walk(s0, templates, rng_seed=seed).steps)
            done = []
            reference = _outcome(_reference_walk, s0, templates, seed, seen, done)
            assert steps == reference, (s0, templates, seed)
            if len(done) < len(templates):
                k = len(done)
                assert walk(s0, templates[:k], rng_seed=seed).steps == tuple(done)
                refused = _outcome(lambda: walk(s0, templates[: k + 1], rng_seed=seed).steps)
                assert refused == reference, (s0, templates, seed)
                if reference[0] is MixedGroups:
                    seen.add("foreign refused")
    return seen


@pytest.mark.parametrize("group", STREAM_GROUPS, ids=str)
def test_every_template_word_draws_as_choice_and_randrange(group):
    seen = _assert_template_streams_match(group, range(30))
    words = {(f, word) for f in ("dec", "ind0", "indm1") for word in WALK_TEMPLATES}
    assert seen == words | {"foreign refused"}
    for model in _stream_starts(group):
        for word in WALK_TEMPLATES:
            for seed in range(4):
                rng, ref = random.Random(seed), random.Random(seed)
                assert _outcome(resolve_template, word, model, rng) == _outcome(
                    _reference_resolve, word, model, ref
                ), (model, word, seed)
                assert rng.getstate() == ref.getstate()
    if group.order() == 1:
        with pytest.raises(DegenerateModel, match="no two distinct points"):
            walk(IndecMinus1(group.zero()), ["generic"])


@pytest.mark.skipif(not FUZZ_FRESH, reason="fresh seeds run with ELLSCROLL_FUZZ=1")
@pytest.mark.parametrize("group", STREAM_GROUPS, ids=str)
def test_every_template_word_draws_as_choice_and_randrange_sweep(group):
    seeds = [random.getrandbits(32) for _ in range(150)]
    _assert_template_streams_match(group, seeds)


# -- reversibility (Hartshorne V.5.7.1) ----------------------------------------

def _points_over(model, t):
    """The points of ``model`` on the fiber over t; a pair {q, r} lies over
    q + r - p0."""
    if isinstance(model, IndecMinus1):
        return {Pair(q, t + model.p0 - q) for q in model.group.elements()}
    return [kind(t) for kind in FAMILY_KINDS[model.family()]]


def _assert_every_transformation_is_undone_over_its_fiber(group):
    doubles = {t + t for t in group.elements()}
    for s in _models(group):
        for x in _points(s):
            t = x.q + x.r - s.p0 if isinstance(x, Pair) else x.P
            image = elm(s, x).model
            assert any(
                isomorphic(elm(image, y).model, s, doubles) for y in _points_over(image, t)
            ), (s, x)


def test_every_transformation_is_undone_over_its_fiber():
    _assert_every_transformation_is_undone_over_its_fiber(T4)


@pytest.mark.skipif(not FUZZ_FRESH, reason="the whole sweep runs with ELLSCROLL_FUZZ=1")
@pytest.mark.parametrize(
    "group", [TorusGroup(2, 6), WeierstrassGroup(11, -1, 0)], ids=str
)
def test_every_transformation_is_undone_over_its_fiber_sweep(group):
    _assert_every_transformation_is_undone_over_its_fiber(group)
