"""The engine's value classes against their frozen-dataclass twins.

Each value class is checked against a ``@dataclass(frozen=True, slots=True)``
twin with the same name and fields, defined here from a literal field list
(``GroupElement``'s twin carries its own ``__eq__`` and ``__hash__``).  On
drawn values, the ``repr``, the hash and equality, within a class and across
classes, must be the twin's; values are immutable, have no ``__dict__``, and
survive ``copy``, ``deepcopy`` and ``pickle``.  Each class that checks its
fields where it is built refuses a field of another class with its coded
error, and every constructor refusal keeps the error class and exact message
recorded in ``REFUSALS``.  The tier-1 run replays a fixed sample;
``ELLSCROLL_FUZZ=1`` runs the sweeps on fresh examples.
"""

import copy
import os
import pickle
import sys
from dataclasses import make_dataclass

import pytest
from hypothesis import given, settings, strategies as st

from ellscroll import cli
from ellscroll.classify import NagataPlan
from ellscroll.elmtrans import (
    ALL_RULES, WALK_TEMPLATES, ElmResult, Generic, OnX0, OnX1, Pair, WalkResult,
)
from ellscroll.errors import (
    InvalidArgument, InvalidPointSpec, InvalidSurface, NonNormalizedInput, SemanticError,
)
from ellscroll.groups import GroupElement, TorusGroup, WeierstrassGroup, default_group
from ellscroll.picard import DivisorClass
from ellscroll.surface import (
    Decomposable,
    Indec0,
    IndecMinus1,
    MinCurve,
    SurfaceDivisorClass,
    SurfacePointDescriptor,
    tau,
)
from ellscroll.values import Value

FUZZ_FRESH = os.environ.get("ELLSCROLL_FUZZ") == "1"

#: The fields of every value class, in order.
FIELDS = {
    GroupElement: ("group", "coords"),
    TorusGroup: ("m", "n"),
    WeierstrassGroup: ("p", "a", "b"),
    DivisorClass: ("degree", "abel"),
    Decomposable: ("e_class",),
    Indec0: ("base",),
    IndecMinus1: ("p0",),
    SurfaceDivisorClass: ("m", "b"),
    MinCurve: ("q",),
    SurfacePointDescriptor: ("q", "r", "t"),
    OnX0: ("P",),
    OnX1: ("P",),
    Generic: ("P",),
    Pair: ("q", "r"),
    ElmResult: ("model", "y0_note", "rule"),
    WalkResult: ("trajectory", "steps"),
    NagataPlan: ("target", "target_e", "steps"),
    cli.Options: ("group", "json", "seed", "verify"),
    cli.Analyze: ("surface", "system"),
    cli.Classify: ("surface", "system"),
    cli.Elm: ("surface", "spec"),
    cli.Walk: ("surface", "steps"),
    cli.Table: ("n",),
    cli.Nagata: ("target", "e"),
    cli.MinCurves: ("surface", "pair"),
    cli.Ram: ("surface", "t"),
    cli.Command: ("variant", "options"),
}


def _element_eq(self, other):
    if other.__class__ is not self.__class__:
        return NotImplemented
    return self.coords == other.coords and self.group == other.group


def _element_hash(self):
    return hash(self.coords)


TWINS = {
    cls: make_dataclass(
        cls.__name__,
        names,
        frozen=True,
        slots=True,
        namespace={"__eq__": _element_eq, "__hash__": _element_hash}
        if cls is GroupElement
        else None,
    )
    for cls, names in FIELDS.items()
}


def twin(value):
    """The value rebuilt, all the way down, from the dataclass twins."""
    if value.__class__ in TWINS:
        fields = (twin(getattr(value, name)) for name in FIELDS[value.__class__])
        return TWINS[value.__class__](*fields)
    if value.__class__ is tuple:
        return tuple(map(twin, value))
    return value


# -- drawn values -------------------------------------------------------------


@st.composite
def groups(draw):
    # Fresh torus models, equal but not identical, and two fixed models.
    return draw(st.one_of(
        st.builds(TorusGroup, st.integers(1, 3), st.integers(1, 3)),
        st.sampled_from([TorusGroup(12, 12), WeierstrassGroup(11, -1, 0)]),
    ))


@st.composite
def elements(draw, group=None):
    group = group if group is not None else draw(groups())
    return group.nth(draw(st.integers(0, group.order() - 1)))


@st.composite
def classes(draw, group, degrees=st.integers(-3, 3)):
    return DivisorClass(draw(degrees), draw(elements(group)))


@st.composite
def models(draw, group):
    kind = draw(st.sampled_from([Decomposable, Indec0, IndecMinus1]))
    if kind is Decomposable:
        return Decomposable(draw(classes(group, st.integers(-3, 0))))
    if kind is Indec0:
        return Indec0(group)
    return IndecMinus1(draw(elements(group)))


@st.composite
def specs(draw, group, model=None):
    """A point spec, of a kind that ``model``'s family has if one is given."""
    kinds = [OnX0, OnX1, Generic, Pair]
    if model is not None:
        kinds = {Decomposable: kinds[:3], Indec0: kinds[:1] + kinds[2:3]}.get(
            model.__class__, [Pair]
        )
    kind = draw(st.sampled_from(kinds))
    if kind is Pair:
        return Pair(draw(elements(group)), draw(elements(group)))
    return kind(draw(elements(group)))


@st.composite
def values(draw):
    group = draw(groups())
    point = elements(group)
    model = draw(models(group))
    m1 = IndecMinus1(draw(point))
    system = SurfaceDivisorClass(draw(st.integers(0, 3)), draw(classes(group)))
    kind = draw(st.sampled_from(sorted(FIELDS, key=lambda cls: cls.__name__)))
    options = cli.Options(
        group, draw(st.booleans()), draw(st.integers(0, 9)), draw(st.booleans())
    )
    build = {
        GroupElement: lambda: draw(point),
        TorusGroup: lambda: TorusGroup(draw(st.integers(1, 4)), draw(st.integers(1, 4))),
        WeierstrassGroup: lambda: draw(st.sampled_from(
            [WeierstrassGroup(11, -1, 0), WeierstrassGroup(5, 1, 1)]
        )),
        DivisorClass: lambda: draw(classes(group)),
        Decomposable: lambda: Decomposable(draw(classes(group, st.integers(-3, 0)))),
        Indec0: lambda: Indec0(group),
        IndecMinus1: lambda: m1,
        SurfaceDivisorClass: lambda: system,
        MinCurve: lambda: MinCurve(draw(point)),
        SurfacePointDescriptor: lambda: tau(m1, draw(point), draw(point)),
        OnX0: lambda: OnX0(draw(point)),
        OnX1: lambda: OnX1(draw(point)),
        Generic: lambda: Generic(draw(point)),
        Pair: lambda: Pair(draw(point), draw(point)),
        ElmResult: lambda: ElmResult(
            model, draw(st.sampled_from(["X0prime", "DRprime"])),
            draw(st.sampled_from(ALL_RULES[:2])),
        ),
        WalkResult: lambda: WalkResult(
            (model, draw(models(group))), (ElmResult(model, "X0prime", ALL_RULES[0]),)
        ),
        NagataPlan: lambda: NagataPlan("dec", draw(st.integers(0, 2)), (OnX0(draw(point)),)),
        cli.Options: lambda: options,
        cli.Analyze: lambda: cli.Analyze(model, system),
        cli.Classify: lambda: cli.Classify(model, SurfaceDivisorClass(1, system.b)),
        cli.Elm: lambda: cli.Elm(model, draw(specs(group, model))),
        cli.Walk: lambda: cli.Walk(model, tuple(draw(st.lists(
            st.one_of(st.sampled_from(WALK_TEMPLATES), specs(group)), max_size=3
        )))),
        cli.Table: lambda: cli.Table(draw(st.integers(3, 5))),
        cli.Nagata: lambda: cli.Nagata(*draw(st.sampled_from(
            [("dec", 0), ("dec", 2), ("ind0",), ("indm1", None)]
        ))),
        cli.MinCurves: lambda: cli.MinCurves(m1, draw(specs(group, m1))),
        cli.Ram: lambda: cli.Ram(m1, draw(point)),
        cli.Command: lambda: cli.Command(cli.Table(draw(st.integers(3, 4))), options),
    }
    return build[kind]()


#: Classes built from the same fields: a value and its sibling are unequal.
SIBLINGS = ((OnX0, OnX1, Generic, MinCurve, IndecMinus1), (cli.Analyze, cli.Classify))


@st.composite
def pairs(draw):
    """A value and another: a drawn one, the same one rebuilt, or a sibling."""
    x = draw(values())
    how = draw(st.sampled_from(["drawn", "rebuilt", "sibling"]))
    fields = [getattr(x, name) for name in FIELDS[x.__class__]]
    if how == "drawn":
        return x, draw(values())
    cls = x.__class__
    if how == "sibling":
        for family in SIBLINGS:
            if cls in family and (cls is not cli.Analyze or x.system.m == 1):
                cls = draw(st.sampled_from(family))
                break
    return x, cls(*fields)


# -- the checks -----------------------------------------------------------------


def _assert_like_the_twins(pair):
    x, y = pair
    tx, ty = twin(x), twin(y)
    assert repr(x) == repr(tx)
    assert hash(x) == hash(tx)
    assert (x == y) == (tx == ty) and (y == x) == (ty == tx)
    assert (x != y) == (tx != ty)
    assert x == x and not x != x


def _assert_frozen_and_copyable(x):
    assert not hasattr(x, "__dict__")
    for name in (*FIELDS[x.__class__], "other"):
        with pytest.raises(AttributeError):
            setattr(x, name, None)
        with pytest.raises(AttributeError):
            delattr(x, name)
    for clone in (copy.copy(x), copy.deepcopy(x), pickle.loads(pickle.dumps(x))):
        assert clone.__class__ is x.__class__ and clone == x and repr(clone) == repr(x)
    # Every field can be given by keyword.
    fields = {name: getattr(x, name) for name in FIELDS[x.__class__]}
    assert x.__class__(**fields) == x


@settings(max_examples=200, deadline=None, derandomize=not FUZZ_FRESH, print_blob=True)
@given(pairs())
def test_values_behave_like_their_dataclass_twins(pair):
    _assert_like_the_twins(pair)
    _assert_frozen_and_copyable(pair[0])


@pytest.mark.skipif(not FUZZ_FRESH, reason="fresh examples; set ELLSCROLL_FUZZ=1")
@settings(max_examples=3000, deadline=None, print_blob=True)
@given(pairs())
def test_values_behave_like_their_dataclass_twins_sweep(pair):
    _assert_like_the_twins(pair)
    _assert_frozen_and_copyable(pair[0])


# -- fields of another class ---------------------------------------------------

#: Each value class that checks its fields where it is built: the class each
#: field must have, and the coded error for a field of any other class.
CHECKED = {
    DivisorClass: ((int,), (GroupElement,), InvalidArgument),
    SurfaceDivisorClass: ((int,), (DivisorClass,), InvalidArgument),
    OnX0: ((GroupElement,), InvalidPointSpec),
    OnX1: ((GroupElement,), InvalidPointSpec),
    Generic: ((GroupElement,), InvalidPointSpec),
    Pair: ((GroupElement,), (GroupElement,), InvalidPointSpec),
    Decomposable: ((DivisorClass,), InvalidSurface),
    Indec0: ((TorusGroup, WeierstrassGroup), InvalidSurface),
    IndecMinus1: ((GroupElement,), InvalidSurface),
}

#: Fields of the wrong class that every run tries: a float, a bool (not an
#: int here), None, a string, a tuple, and a point where an int is wanted.
WRONG = (1.5, True, None, "3", (0, 0), TorusGroup(12, 12).element(1, 0))


def valid_fields(cls, group):
    point, other = group.nth(1), group.nth(group.order() - 1)
    return {
        DivisorClass: (3, point),
        SurfaceDivisorClass: (1, DivisorClass(3, point)),
        Pair: (point, other),
        Decomposable: (DivisorClass(-1, point),),
        Indec0: (group,),
    }.get(cls, (point,))


wrong_values = st.one_of(
    st.floats(), st.booleans(), st.none(), st.text(max_size=3), st.integers(),
    st.tuples(st.integers(0, 11), st.integers(0, 11)),
    st.builds(lambda g: g.zero(), groups()),
    st.sampled_from([TorusGroup(12, 12), DivisorClass(1, TorusGroup(4, 4).zero())]),
)


@settings(
    max_examples=1000 if FUZZ_FRESH else 100, deadline=None, derandomize=not FUZZ_FRESH,
    print_blob=True,
)
@given(st.sampled_from([TorusGroup(12, 12), WeierstrassGroup(23, -1, 0)]), wrong_values)
def test_value_constructors_refuse_a_field_of_another_class_sweep(group, drawn):
    for cls, (*wanted, error) in CHECKED.items():
        fields = valid_fields(cls, group)
        cls(*fields)  # these build, so each refusal below is the wrong field's
        for i, classes in enumerate(wanted):
            for value in (*WRONG, drawn):
                if value.__class__ in classes:
                    continue
                with pytest.raises(error) as info:
                    cls(*fields[:i], value, *fields[i + 1:])
                assert info.value.code == error.__name__, (cls, i, value)


# -- the exact refusals ---------------------------------------------------------

T2 = TorusGroup(2, 2)
P1 = T2.element(1, 0)
D1 = DivisorClass(1, P1)
#: The reprs that the messages below name, written out.
T2_REPR = "TorusGroup(m=2, n=2)"
P1_REPR = f"GroupElement(group={T2_REPR}, coords=(1, 0))"
D1_REPR = f"DivisorClass(degree=1, abel={P1_REPR})"
NOT_A_CLASS = "is not a divisor class of an int degree and a group element"

#: Each constructor refusal: the class, its fields, and the error class and
#: exact message it raises.  Two bad fields name the first one checked.
REFUSALS = (
    (DivisorClass, (1.5, P1), InvalidArgument, f"(1.5, {P1_REPR}) {NOT_A_CLASS}"),
    (DivisorClass, (True, P1), InvalidArgument, f"(True, {P1_REPR}) {NOT_A_CLASS}"),
    (DivisorClass, (1, (1, 0)), InvalidArgument, f"(1, (1, 0)) {NOT_A_CLASS}"),
    (DivisorClass, (None, "P"), InvalidArgument, f"(None, 'P') {NOT_A_CLASS}"),
    (SurfaceDivisorClass, (1.5, D1), InvalidArgument, "fiber degree 1.5 is not an int"),
    (SurfaceDivisorClass, (1, P1), InvalidArgument, f"{P1_REPR} {NOT_A_CLASS}"),
    (SurfaceDivisorClass, (None, None), InvalidArgument, "fiber degree None is not an int"),
    (OnX0, (None,), InvalidPointSpec, "OnX0(P=None) is not a point descriptor"),
    (OnX1, (1.5,), InvalidPointSpec, "OnX1(P=1.5) is not a point descriptor"),
    (Generic, ("P",), InvalidPointSpec, "Generic(P='P') is not a point descriptor"),
    (Pair, (P1, None), InvalidPointSpec, f"Pair(q={P1_REPR}, r=None) is not a point descriptor"),
    (Pair, (None, 1.5), InvalidPointSpec, "Pair(q=None, r=1.5) is not a point descriptor"),
    (Decomposable, (None,), InvalidSurface, "None is not a divisor class"),
    (Decomposable, (P1,), InvalidSurface, f"{P1_REPR} is not a divisor class"),
    (Decomposable, (D1,), NonNormalizedInput,
     "decomposable model requires an invariant class of degree <= 0"),
    (Indec0, (P1,), InvalidSurface, f"{P1_REPR} is not a group model"),
    (Indec0, (None,), InvalidSurface, "None is not a group model"),
    (IndecMinus1, (T2,), InvalidSurface, f"{T2_REPR} is not a group element"),
    (IndecMinus1, (D1,), InvalidSurface, f"{D1_REPR} is not a group element"),
    (TorusGroup, (1.5, 2), InvalidArgument, "torus moduli (1.5, 2) are not ints"),
    (TorusGroup, (2, True), InvalidArgument, "torus moduli (2, True) are not ints"),
    (TorusGroup, (None, "2"), InvalidArgument, "torus moduli (None, '2') are not ints"),
    (TorusGroup, (0, 1.5), InvalidArgument, "torus moduli (0, 1.5) are not ints"),
    (TorusGroup, (0, 2), InvalidArgument, "torus moduli must be positive"),
    (TorusGroup, (2, -1), InvalidArgument, "torus moduli must be positive"),
    (WeierstrassGroup, (11.0, -1, 0), InvalidArgument, "curve fields (11.0, -1, 0) are not ints"),
    (WeierstrassGroup, (11, None, 0), InvalidArgument, "curve fields (11, None, 0) are not ints"),
    (WeierstrassGroup, (11, -1, "0"), InvalidArgument, "curve fields (11, -1, '0') are not ints"),
    (WeierstrassGroup, (4, 1.5, 0), InvalidArgument, "curve fields (4, 1.5, 0) are not ints"),
    (WeierstrassGroup, (10**12 + 39, -1, 0), InvalidArgument,
     "field size 1000000000039 exceeds cap 1000000000000"),
    (WeierstrassGroup, (9, -1, 0), InvalidArgument, "9 is not a small odd prime"),
    (WeierstrassGroup, (2, 1, 1), InvalidArgument, "2 is not a small odd prime"),
    (WeierstrassGroup, (11, 0, 0), InvalidArgument, "singular curve: 4a^3 + 27b^2 = 0 mod p"),
    (cli.Classify, (Indec0(T2), SurfaceDivisorClass(2, D1)), SemanticError,
     "classify needs a fiber-degree-1 system (1X0+...)"),
    (cli.Elm, (Indec0(T2), OnX1(P1)), SemanticError, "ind0 has no second section onX1"),
    (cli.Table, (2,), SemanticError, "table requires an ambient dimension N >= 3"),
    (cli.Table, (10_001,), SemanticError, "table takes an ambient dimension N <= 10000"),
    (cli.Nagata, ("dec",), SemanticError, "nagata dec needs the invariant e (nagata dec E)"),
    (cli.Nagata, ("dec", None), SemanticError, "nagata dec needs the invariant e (nagata dec E)"),
    (cli.Nagata, ("ind0", 10_001), SemanticError, "nagata takes an invariant e <= 10000"),
    (cli.Nagata, ("dec", 10_001), SemanticError, "nagata takes an invariant e <= 10000"),
    (cli.MinCurves, (Indec0(T2), Pair(P1, P1)), SemanticError,
     "mincurves needs an indm1 surface and a pair{...}"),
    (cli.Table, ("3",), InvalidArgument, "N '3' is not an int"),
    (cli.Table, (3.5,), InvalidArgument, "N 3.5 is not an int"),
    (cli.Table, (True,), InvalidArgument, "N True is not an int"),
    (cli.Nagata, (3,), InvalidArgument, "target 3 is not a str"),
    (cli.Nagata, ("dec", "5"), InvalidArgument, "e '5' is not an int"),
    (cli.Nagata, ("ind0", True), InvalidArgument, "e True is not an int"),
    (cli.Nagata, (None, 1.5), InvalidArgument, "target None is not a str"),
    (cli.Options, (T2, 1, 0, False), InvalidArgument, "json 1 is not a bool"),
    (cli.Options, (T2, False, "x", False), InvalidArgument, "seed 'x' is not an int"),
    (cli.Options, (T2, False, True, False), InvalidArgument, "seed True is not an int"),
    (cli.Options, (T2, False, 0, None), InvalidArgument, "verify None is not a bool"),
    (cli.Options, (None, "yes", 1.5, 0), InvalidArgument, "None is not a group model"),
    (cli.Options, (T2, "yes", 1.5, 0), InvalidArgument, "json 'yes' is not a bool"),
)


def test_constructor_refusals_keep_their_error_and_message():
    for cls, fields, error, message in REFUSALS:
        with pytest.raises(error) as info:
            cls(*fields)
        assert info.value.code == error.__name__, (cls, fields)
        assert str(info.value) == message, (cls, fields)


def test_every_value_class_has_a_twin():
    def subclasses(cls):
        for sub in cls.__subclasses__():
            yield sub
            yield from subclasses(sub)

    concrete = {cls for cls in subclasses(Value) if not cls.__name__.startswith("_")}
    assert concrete == set(FIELDS)
    for cls, names in FIELDS.items():
        assert cls._fields == names
    # A class that adds fields has its own ``__init__``, which ``Value``
    # generates (compiled from "<string>") for all but Pair, which orders its
    # points; the others inherit their parent's.
    own = {cls for cls in subclasses(Value) if "__init__" in cls.__dict__}
    assert own == {cls for cls in subclasses(Value) if cls.__dict__["__slots__"]}
    assert {cls for cls in own if cls.__init__.__code__.co_filename != "<string>"} == {Pair}


def test_literal_reprs():
    G = TorusGroup(12, 12)
    P = G.element(1, 0)
    W = WeierstrassGroup(11, -1, 0)
    assert repr(Decomposable(DivisorClass(-1, P))) == (
        "Decomposable(e_class=DivisorClass(degree=-1, abel=GroupElement("
        "group=TorusGroup(m=12, n=12), coords=(1, 0))))"
    )
    assert repr(OnX1(W.zero())) == (
        "OnX1(P=GroupElement(group=WeierstrassGroup(p=11, a=-1, b=0), coords=None))"
    )
    assert repr(Pair(G.element(0, 1), G.zero())) == (
        "Pair(q=GroupElement(group=TorusGroup(m=12, n=12), coords=(0, 0)), "
        "r=GroupElement(group=TorusGroup(m=12, n=12), coords=(0, 1)))"
    )
    assert repr(cli.parse("nagata ind0 --json").variant) == "Nagata(target='ind0', e=None)"
    assert repr(cli.Options()) == (
        "Options(group=TorusGroup(m=12, n=12), json=False, seed=0, verify=False)"
    )


def test_equality_is_class_strict():
    P = TorusGroup(2, 2).zero()
    assert OnX0(P) != OnX1(P) and OnX0(P) != Generic(P)
    assert Indec0(P.group) != Decomposable(DivisorClass(0, P))
    assert OnX0(P).__eq__(OnX1(P)) is NotImplemented
    assert OnX0(P) == OnX0(TorusGroup(2, 2).zero())


def test_constructor_defaults():
    assert cli.Options() == cli.Options(TorusGroup(12, 12), False, 0, False)
    assert cli.Options(json=True).json and cli.Options(seed=5).seed == 5
    assert cli.Options().group is default_group()
    with pytest.raises(InvalidArgument):
        cli.Options(group=None)
    assert cli.Nagata("ind0") == cli.Nagata(target="ind0", e=None)
    with pytest.raises(TypeError):
        DivisorClass(0)
    with pytest.raises(TypeError):
        TorusGroup(2, 2, 2)
    with pytest.raises(TypeError):
        TorusGroup(2, m=2)


def test_only_the_system_analysis_is_a_dataclass():
    # ``cli`` imports every module of the package.
    dataclasses = {
        f"{name}.{cls.__name__}"
        for name, module in list(sys.modules.items())
        if name == "ellscroll" or name.startswith("ellscroll.")
        for cls in vars(module).values()
        if isinstance(cls, type) and cls.__module__ == name
        and "__dataclass_fields__" in cls.__dict__
    }
    assert dataclasses == {"ellscroll.linsys.SystemAnalysis"}
