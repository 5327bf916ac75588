"""CLI tests: parsing, formatting round-trips, exit codes, golden JSON."""

import io
import json
import os
import pathlib
import random
import re
import shlex
from contextlib import redirect_stderr, redirect_stdout

import pytest
from hypothesis import example, given, settings, strategies as st

from ellscroll import errors
from ellscroll.cli import (
    COMMANDS,
    WALK_TEMPLATES,
    Analyze,
    Classify,
    Command,
    Elm,
    MinCurves,
    Nagata,
    Options,
    Ram,
    Table,
    Walk,
    _Parser,
    _render_json,
    _texts,
    _tokenize,
    format_class,
    main,
    parse,
    run,
)
from ellscroll.elmtrans import Generic, OnX0, OnX1, Pair
from ellscroll.classify import minimality_check
from ellscroll.errors import GroupTooLarge, ParseError, SemanticError
from ellscroll.groups import TorusGroup, WeierstrassGroup, default_group
from ellscroll.picard import DivisorClass, class_of
from ellscroll.surface import Decomposable, Indec0, IndecMinus1, SurfaceDivisorClass

GOLDEN = pathlib.Path(__file__).parent / "golden"
README = pathlib.Path(__file__).parent.parent / "README.md"
G = default_group()


# -- direct parses -----------------------------------------------------------


def test_parse_classify_example():
    cmd = parse('classify dec(-P(1,0)-P(2,0)) "1X0+(P(1,0)+P(2,0)+P(3,0))f"')
    assert isinstance(cmd.variant, Classify)
    assert cmd.variant.surface == Decomposable(DivisorClass(-2, G.element(9, 0)))
    assert cmd.variant.system == SurfaceDivisorClass(1, DivisorClass(3, G.element(6, 0)))


def test_parse_table_json():
    cmd = parse("table 3 --json")
    assert cmd.variant == Table(3)
    assert cmd.options.json is True


def test_parse_elm_pair():
    cmd = parse("elm indm1(O) pair{(1,0),(2,0)}")
    assert isinstance(cmd.variant, Elm)
    assert cmd.variant.spec == Pair(G.element(1, 0), G.element(2, 0))


def test_parse_flags_group_and_seed():
    cmd = parse("walk ind0 random random --group 6,6 --seed 42")
    assert cmd.options.group == TorusGroup(6, 6)
    assert cmd.options.seed == 42
    assert cmd.variant.steps == ("random", "random")


def test_parse_curve_group_points_validated():
    cmd = parse("ram indm1(O) (0,4) --curve 13,2,3")
    assert cmd.variant.t == cmd.options.group.point(0, 4)
    with pytest.raises(SemanticError):
        parse("ram indm1(O) (0,5) --curve 13,2,3")  # not on the curve


def test_parse_errors_carry_position_and_expectations():
    with pytest.raises(ParseError) as info:
        parse("analyze dec(-P(1,0) 1X0+(O)f")
    assert info.value.column is not None
    assert info.value.expected
    with pytest.raises(ParseError):
        parse("frobnicate ind0")
    with pytest.raises(ParseError):
        parse("walk ind0 --bogus-flag")
    with pytest.raises(ParseError):
        parse("")


def test_semantic_errors():
    with pytest.raises(SemanticError):
        parse("elm dec(0*O) pair{(1,0),(2,0)}")
    with pytest.raises(SemanticError):
        parse("elm indm1(O) gen@(1,0)")
    with pytest.raises(SemanticError):
        parse("elm ind0 onX1@(1,0)")
    with pytest.raises(SemanticError):
        parse('classify dec(P(1,0)) "1X0+(3*P(0,1))f"')  # positive degree
    with pytest.raises(SemanticError):
        parse('classify ind0 "2X0+(3*P(0,1))f"')  # fiber degree must be 1
    with pytest.raises(SemanticError):
        parse("nagata dec")
    with pytest.raises(SemanticError):
        parse("table 2")


def test_walk_steps_take_concrete_points_named_like_templates():
    cmd = parse("walk dec(0*O) onX0@(1,0) onX1@O onX0 gen@(0,1) random")
    G = default_group()
    assert cmd.variant.steps == (
        OnX0(G.element(1, 0)), OnX1(G.zero()), "onX0", Generic(G.element(0, 1)), "random"
    )
    assert parse(cmd.format()) == cmd
    assert main(["walk", "dec(0*O)", "onX0@(1,0)", "onX1@O"]) == 0


def test_table_and_nagata_sizes_are_capped(capsys):
    assert parse("table 10000").variant.n == 10000
    with pytest.raises(SemanticError, match="N <= 10000"):
        parse("table 10001")
    assert parse("nagata dec 10000").variant.e == 10000
    with pytest.raises(SemanticError, match="e <= 10000"):
        parse("nagata dec 10001")
    # Refused as it is parsed, before any row or step is built.
    assert main(["table", "1" * 50]) == 2
    assert main(["nagata", "dec", "1" * 50]) == 2
    with pytest.raises(SemanticError) as info:
        parse("table 2")
    assert str(info.value) == "table requires an ambient dimension N >= 3"


def test_nagata_refuses_an_e_a_non_split_target_does_not_have(capsys):
    assert main(["nagata", "ind0", "5"]) == 1
    assert capsys.readouterr().err == (
        "UnreachableTarget: ind0 has the invariant e = 0, not 5\n"
    )
    assert main(["nagata", "ind0", "0"]) == 0


# -- round-trips -------------------------------------------------------------

#: The group models the round trips draw from: the default torus, a
#: Weierstrass curve and a small torus, each written its own way on the line.
MODELS = (G, WeierstrassGroup(23, -1, 0), TorusGroup(4, 4))


def points(group):
    return st.sampled_from(group.elements())


def terms(group):
    """(point, multiplicity) terms: points may repeat, multiplicities cancel."""
    return st.lists(st.tuples(points(group), st.integers(-3, 3).filter(bool)), max_size=4)


@st.composite
def divisor_classes(draw, group, force_nonpositive=False):
    drawn = draw(terms(group))
    if force_nonpositive and sum(m for _, m in drawn) > 0:
        drawn = [(p, -m) for p, m in drawn]
    return class_of(group, drawn)


@st.composite
def surfaces(draw, group):
    kind = draw(st.sampled_from(["dec", "ind0", "indm1"]))
    if kind == "dec":
        return Decomposable(draw(divisor_classes(group, force_nonpositive=True)))
    if kind == "ind0":
        return Indec0(group)
    return IndecMinus1(draw(points(group)))


@st.composite
def systems(draw, group, m=None):
    fiber = m if m is not None else draw(st.integers(1, 3))
    return SurfaceDivisorClass(fiber, draw(divisor_classes(group)))


def pointspecs(group):
    return st.one_of(
        st.builds(OnX0, points(group)),
        st.builds(OnX1, points(group)),
        st.builds(Generic, points(group)),
        st.builds(Pair, points(group), points(group)),
    )


@st.composite
def commands(draw):
    group = draw(st.sampled_from(MODELS))
    point = points(group)
    surface = draw(surfaces(group))
    choice = draw(st.integers(0, 7))
    if choice == 0:
        variant = Analyze(surface, draw(systems(group)))
    elif choice == 1:
        variant = Classify(surface, draw(systems(group, m=1)))
    elif choice == 2:
        spec = draw(pointspecs(group))
        if isinstance(surface, IndecMinus1):
            q, r = draw(point), draw(point)
            spec = Pair(q, r)
        elif isinstance(spec, Pair) or (
            isinstance(surface, Indec0) and isinstance(spec, OnX1)
        ):
            spec = Generic(draw(point))
        variant = Elm(surface, spec)
    elif choice == 3:
        steps = tuple(
            draw(st.lists(st.sampled_from(["generic", "onX0", "random"]),
                          min_size=1, max_size=4))
        )
        variant = Walk(surface, steps)
    elif choice == 4:
        variant = Table(draw(st.integers(3, 9)))
    elif choice == 5:
        target = draw(st.sampled_from(["dec", "ind0", "indm1"]))
        e = draw(st.integers(0, 4)) if target == "dec" else None
        variant = Nagata(target, e)
    elif choice == 6:
        q, r = draw(point), draw(point)
        variant = MinCurves(IndecMinus1(draw(point)), Pair(q, r))
    else:
        variant = Ram(IndecMinus1(draw(point)), draw(point))
    options = Options(
        group=group,
        json=draw(st.booleans()),
        seed=draw(st.sampled_from([0, 7])),
        verify=draw(st.booleans()) if isinstance(variant, Nagata) else False,
    )
    return Command(variant, options)


# Criterion 9 (test_acceptance) runs this round trip on 1000 examples; here
# Hypothesis's default count is enough.
@settings(deadline=None)
@given(commands())
def test_parse_format_roundtrip(cmd):
    assert parse(cmd.format()) == cmd


def term_text(point, mult):
    """One signed term as a user may write it."""
    base = "O" if point.is_zero() else f"P{point}"
    return ("-" if mult < 0 else "+") + (base if abs(mult) == 1 else f"{abs(mult)}*{base}")


@given(st.sampled_from(MODELS).flatmap(lambda g: st.tuples(st.just(g), terms(g).filter(bool))))
def test_divisor_format_roundtrip_preserves_class(case):
    # A divisor written term by term reads as the class of its terms, and
    # that class's canonical text reads back as the same class.
    group, drawn = case
    text = "".join(term_text(p, m) for p, m in drawn).removeprefix("+")
    c = class_of(group, drawn)
    assert _Parser(text, group).divisor() == c
    assert _Parser(format_class(c), group).divisor() == c


#: ``format_class`` of every class of degree -3..3, in the order of
#: ``elements()``, recorded before the formatter stopped building divisors.
CLASS_TEXTS = {
    "Torus(4,4)": {
        -3: (
            "-3*O -4*O+P(0,1) -4*O+P(0,2) -4*O+P(0,3) -4*O+P(1,0) -4*O+P(1,1) -4*O+P(1,2) "
            "-4*O+P(1,3) -4*O+P(2,0) -4*O+P(2,1) -4*O+P(2,2) -4*O+P(2,3) -4*O+P(3,0) "
            "-4*O+P(3,1) -4*O+P(3,2) -4*O+P(3,3)"
        ),
        -2: (
            "-2*O -3*O+P(0,1) -3*O+P(0,2) -3*O+P(0,3) -3*O+P(1,0) -3*O+P(1,1) -3*O+P(1,2) "
            "-3*O+P(1,3) -3*O+P(2,0) -3*O+P(2,1) -3*O+P(2,2) -3*O+P(2,3) -3*O+P(3,0) "
            "-3*O+P(3,1) -3*O+P(3,2) -3*O+P(3,3)"
        ),
        -1: (
            "-O -2*O+P(0,1) -2*O+P(0,2) -2*O+P(0,3) -2*O+P(1,0) -2*O+P(1,1) -2*O+P(1,2) "
            "-2*O+P(1,3) -2*O+P(2,0) -2*O+P(2,1) -2*O+P(2,2) -2*O+P(2,3) -2*O+P(3,0) "
            "-2*O+P(3,1) -2*O+P(3,2) -2*O+P(3,3)"
        ),
        0: (
            "0*O -O+P(0,1) -O+P(0,2) -O+P(0,3) -O+P(1,0) -O+P(1,1) -O+P(1,2) -O+P(1,3) "
            "-O+P(2,0) -O+P(2,1) -O+P(2,2) -O+P(2,3) -O+P(3,0) -O+P(3,1) -O+P(3,2) -O+P(3,3)"
        ),
        1: (
            "O P(0,1) P(0,2) P(0,3) P(1,0) P(1,1) P(1,2) P(1,3) P(2,0) P(2,1) P(2,2) P(2,3) "
            "P(3,0) P(3,1) P(3,2) P(3,3)"
        ),
        2: (
            "2*O O+P(0,1) O+P(0,2) O+P(0,3) O+P(1,0) O+P(1,1) O+P(1,2) O+P(1,3) O+P(2,0) "
            "O+P(2,1) O+P(2,2) O+P(2,3) O+P(3,0) O+P(3,1) O+P(3,2) O+P(3,3)"
        ),
        3: (
            "3*O 2*O+P(0,1) 2*O+P(0,2) 2*O+P(0,3) 2*O+P(1,0) 2*O+P(1,1) 2*O+P(1,2) 2*O+P(1,3) "
            "2*O+P(2,0) 2*O+P(2,1) 2*O+P(2,2) 2*O+P(2,3) 2*O+P(3,0) 2*O+P(3,1) 2*O+P(3,2) "
            "2*O+P(3,3)"
        ),
    },
    "Weierstrass(23,-1,0)": {
        -3: (
            "-3*O -4*O+P(0,0) -4*O+P(1,0) -4*O+P(2,11) -4*O+P(2,12) -4*O+P(3,1) -4*O+P(3,22) "
            "-4*O+P(6,7) -4*O+P(6,16) -4*O+P(10,1) -4*O+P(10,22) -4*O+P(11,3) -4*O+P(11,20) "
            "-4*O+P(14,4) -4*O+P(14,19) -4*O+P(15,5) -4*O+P(15,18) -4*O+P(16,3) -4*O+P(16,20) "
            "-4*O+P(18,8) -4*O+P(18,15) -4*O+P(19,3) -4*O+P(19,20) -4*O+P(22,0)"
        ),
        -2: (
            "-2*O -3*O+P(0,0) -3*O+P(1,0) -3*O+P(2,11) -3*O+P(2,12) -3*O+P(3,1) -3*O+P(3,22) "
            "-3*O+P(6,7) -3*O+P(6,16) -3*O+P(10,1) -3*O+P(10,22) -3*O+P(11,3) -3*O+P(11,20) "
            "-3*O+P(14,4) -3*O+P(14,19) -3*O+P(15,5) -3*O+P(15,18) -3*O+P(16,3) -3*O+P(16,20) "
            "-3*O+P(18,8) -3*O+P(18,15) -3*O+P(19,3) -3*O+P(19,20) -3*O+P(22,0)"
        ),
        -1: (
            "-O -2*O+P(0,0) -2*O+P(1,0) -2*O+P(2,11) -2*O+P(2,12) -2*O+P(3,1) -2*O+P(3,22) "
            "-2*O+P(6,7) -2*O+P(6,16) -2*O+P(10,1) -2*O+P(10,22) -2*O+P(11,3) -2*O+P(11,20) "
            "-2*O+P(14,4) -2*O+P(14,19) -2*O+P(15,5) -2*O+P(15,18) -2*O+P(16,3) -2*O+P(16,20) "
            "-2*O+P(18,8) -2*O+P(18,15) -2*O+P(19,3) -2*O+P(19,20) -2*O+P(22,0)"
        ),
        0: (
            "0*O -O+P(0,0) -O+P(1,0) -O+P(2,11) -O+P(2,12) -O+P(3,1) -O+P(3,22) -O+P(6,7) "
            "-O+P(6,16) -O+P(10,1) -O+P(10,22) -O+P(11,3) -O+P(11,20) -O+P(14,4) -O+P(14,19) "
            "-O+P(15,5) -O+P(15,18) -O+P(16,3) -O+P(16,20) -O+P(18,8) -O+P(18,15) -O+P(19,3) "
            "-O+P(19,20) -O+P(22,0)"
        ),
        1: (
            "O P(0,0) P(1,0) P(2,11) P(2,12) P(3,1) P(3,22) P(6,7) P(6,16) P(10,1) P(10,22) "
            "P(11,3) P(11,20) P(14,4) P(14,19) P(15,5) P(15,18) P(16,3) P(16,20) P(18,8) "
            "P(18,15) P(19,3) P(19,20) P(22,0)"
        ),
        2: (
            "2*O O+P(0,0) O+P(1,0) O+P(2,11) O+P(2,12) O+P(3,1) O+P(3,22) O+P(6,7) O+P(6,16) "
            "O+P(10,1) O+P(10,22) O+P(11,3) O+P(11,20) O+P(14,4) O+P(14,19) O+P(15,5) "
            "O+P(15,18) O+P(16,3) O+P(16,20) O+P(18,8) O+P(18,15) O+P(19,3) O+P(19,20) "
            "O+P(22,0)"
        ),
        3: (
            "3*O 2*O+P(0,0) 2*O+P(1,0) 2*O+P(2,11) 2*O+P(2,12) 2*O+P(3,1) 2*O+P(3,22) "
            "2*O+P(6,7) 2*O+P(6,16) 2*O+P(10,1) 2*O+P(10,22) 2*O+P(11,3) 2*O+P(11,20) "
            "2*O+P(14,4) 2*O+P(14,19) 2*O+P(15,5) 2*O+P(15,18) 2*O+P(16,3) 2*O+P(16,20) "
            "2*O+P(18,8) 2*O+P(18,15) 2*O+P(19,3) 2*O+P(19,20) 2*O+P(22,0)"
        ),
    },
}


@pytest.mark.parametrize(
    "flag, group",
    [
        (["--group", "4,4"], TorusGroup(4, 4)),
        (["--curve", "23,-1,0"], WeierstrassGroup(23, -1, 0)),
    ],
)
def test_every_small_class_text_parses_to_its_class(flag, group):
    assert format_class(DivisorClass(1, group.zero())) == "O"
    for degree, texts in CLASS_TEXTS[str(group)].items():
        classes = [DivisorClass(degree, point) for point in group.elements()]
        assert [format_class(c) for c in classes] == texts.split()
        for c, text in zip(classes, texts.split()):
            cmd = parse(["analyze", "ind0", f"1X0+({text})f", *flag])
            assert cmd.variant.system.b == c, text


# -- execution and exit codes ------------------------------------------------


def test_main_success_exit_zero(capsys):
    assert main(["analyze", "ind0", "2X0+(P(1,0)+P(2,0))f"]) == 0
    out = capsys.readouterr().out
    assert "h0 = 6" in out


def test_main_parse_error_exit_two(capsys):
    assert main(["analyze", "dec(", "1X0+(O)f"]) == 2
    err = capsys.readouterr().err
    assert "ParseError" in err


@pytest.mark.parametrize("stray", ["-1", "x"])
def test_leftover_tokens_are_a_parse_error(stray, capsys):
    # The stray token is named; the command's own check (nagata dec needs
    # the invariant e) does not run on a line that did not parse.
    assert main(["nagata", "dec", stray]) == 2
    err = capsys.readouterr().err
    assert err.startswith("ParseError:") and f"got {stray[0]!r}" in err


def test_main_semantic_error_exit_two(capsys):
    assert main(["elm", "ind0", "pair{(1,0),(2,0)}"]) == 2
    assert "SemanticError" in capsys.readouterr().err


def test_main_engine_error_exit_one(capsys):
    # Base points: classification refuses -> engine error, exit 1.
    assert main(["classify", "dec(-2*O)", "1X0+(3*O)f"]) == 1
    assert "NotBasePointFree" in capsys.readouterr().err


def test_nonsplit_refusal_text(capsys):
    assert main(["analyze", "indm1(O)", "3X0+(2*O)f"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "UnsupportedSecancy: no closed form for m=3 on a non-split surface\n"
    )


def test_main_engine_error_json_payload(capsys):
    assert main(["analyze", "ind0", "3X0+(4*O)f", "--json"]) == 1
    captured = capsys.readouterr()
    payload = json.loads(captured.out)
    assert payload["error"] == "UnsupportedSecancy"
    assert "UnsupportedSecancy" in captured.err


def test_main_walk_seeded_deterministic(capsys):
    argv = ["walk", "indm1(O)", "generic", "generic", "--seed", "5", "--json"]
    assert main(argv) == 0
    first = capsys.readouterr().out
    assert main(argv) == 0
    assert capsys.readouterr().out == first


def test_mincurves_and_ram_commands(capsys):
    assert main(["mincurves", "indm1(O)", "pair{(1,0),(1,0)}", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["focal"] is True and len(payload["min_curves"]) == 1
    assert main(["ram", "indm1(O)", "(0,0)", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert len(payload["ramification_points"]) == 4


# -- golden files ------------------------------------------------------------

GOLDEN_COMMANDS = {
    "analyze.json": 'analyze ind0 "2X0+(P(1,0)+P(2,0))f" --json',
    "table3.json": "table 3 --json",
    "elm.json": "elm indm1(O) pair{(1,0),(2,0)} --json",
}


@pytest.mark.parametrize("name", sorted(GOLDEN_COMMANDS))
def test_golden_json_schema_stable(name):
    status, out = run(parse(GOLDEN_COMMANDS[name]))
    assert status == 0
    expected = (GOLDEN / name).read_text()
    assert json.loads(out) == json.loads(expected)
    assert out + "\n" == expected


def readme_cli_lines():
    """The command lines of the README's CLI section."""
    section = README.read_text().split("## CLI", 1)[1]
    return section.split("```sh\n", 1)[1].split("```", 1)[0].splitlines()


@pytest.mark.parametrize("line", readme_cli_lines())
def test_readme_cli_lines_exit_as_documented(line, capsys):
    # A line marked "# exit N" documents a nonzero exit code.
    words = shlex.split(line, comments=True)
    assert words[0] == "ellscroll"
    marked = re.search(r"# exit (\d)", line)
    assert main(words[1:]) == (int(marked.group(1)) if marked else 0)
    if not marked:
        # With --json, the same line renders as the indented json.dumps.
        cmd = parse(words[1:] + ["--json"])
        assert run(cmd) == (0, json.dumps(cmd.variant.run(cmd.options), indent=2))


# -- command registry, argv words, small groups --------------------------------


def test_unknown_command_expects_every_command_word():
    with pytest.raises(ParseError) as info:
        parse("frobnicate ind0")
    assert info.value.expected == (
        "analyze", "classify", "elm", "mincurves", "nagata", "ram", "table", "walk"
    )


def test_parse_accepts_words_or_text():
    assert parse(["walk", "ind0", "random", "--seed", "3"]) == parse(
        "walk ind0 random --seed 3"
    )


def test_flag_inside_an_argument_is_not_a_flag(capsys):
    assert main(["table", "3 --json"]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("ParseError: ")
    assert captured.out == ""


def test_nagata_verify_reports_trajectory(capsys):
    assert main(["nagata", "indm1", "--verify", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["verified"] is True
    assert len(payload["trajectory"]) == payload["length"] + 1
    assert payload["trajectory"][-1]["family"] == "indm1"


@pytest.mark.parametrize(
    "argv",
    [
        ["table", "5", "--group", "1,1"],
        ["nagata", "indm1", "--group", "1,1"],
        ["nagata", "indm1", "--group", "2,2"],
    ],
)
def test_groups_too_small_are_refused(argv, capsys):
    assert main(argv) == 1
    assert capsys.readouterr().err.startswith("DegenerateModel: ")


@pytest.mark.parametrize(
    "argv",
    [
        ["table", "5", "--group", "200,200"],
        ["nagata", "indm1", "--group", "200,200"],
        ["walk", "dec(0*O)", "random", "random", "--group", "200,200"],
    ],
)
def test_large_groups_answer_by_index(argv, capsys):
    # Each line needs only a few elements, so it must not enumerate 40000.
    assert main(argv) == 0
    assert capsys.readouterr().err == ""


def test_ram_answers_on_a_curve_above_the_enumeration_cap(capsys):
    # Halving solves a quartic, so the curve is never enumerated.
    assert main(["ram", "indm1(O)", "O", "--curve", "5003,-1,0", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert len(payload["ramification_points"]) == 4


def test_exhaustive_search_still_refuses_a_large_group():
    with pytest.raises(GroupTooLarge):
        minimality_check("ind0", group=TorusGroup(200, 200))


@pytest.mark.parametrize("word", ["\u00b2", "1\u00b2", "\u0663"])
def test_non_ascii_digits_are_a_parse_error(word, capsys):
    assert main(["table", word]) == 2
    assert capsys.readouterr().err.startswith("ParseError: unexpected character")


#: An integer literal longer than the interpreter's int-conversion limit.
HUGE = "1" * 5000


@pytest.mark.parametrize(
    "argv, column",
    [
        (["table", HUGE], 0),
        (["analyze", "ind0", HUGE + "X0+(O)f"], 5),
        (["ram", "indm1(O)", f"({HUGE},0)"], 10),
    ],
)
def test_integers_over_the_conversion_limit_are_a_parse_error(argv, column, capsys):
    with pytest.raises(ParseError) as info:
        parse(argv)
    assert info.value.column == column
    assert main(argv) == 2
    assert capsys.readouterr().err.startswith("ParseError: integer of 5000 digits")


#: The exit code, standard error and ParseError column of each line of the
#: benchmark's malformed and semantic line sets (with p = (5,7), q = (0,3)),
#: and of an integer over the conversion limit, recorded before the parser
#: computed columns only for its errors.
ERROR_LINES = [
    (["table"], 2, "ParseError: expected integer, got 'end of input' at column 0\n", 0),
    ([], 2, "ParseError: missing command word\n", 0),
    (["analyze", "dec(", "1X0+(O)f"], 2, "ParseError: expected '*', got 'X0' at column 6\n", 6),
    (["frobnicate", "ind0"], 2, "ParseError: unknown command 'frobnicate'\n", 0),
    (["table", "x"], 2, "ParseError: expected integer, got 'x' at column 0\n", 0),
    (["elm", "ind0", "gen@(5,7)", "extra"], 2,
     "ParseError: expected end of input, got 'extra' at column 15\n", 15),
    (["analyze", "ind0", "2X0+(P(5,7)%)f"], 2,
     "ParseError: unexpected character '%' at column 16\n", 16),
    (["table", "17", "--group"], 2, "ParseError: flag --group needs a value\n", 0),
    (["table", "17", "--bogus"], 2, "ParseError: unknown flag --bogus\n", 0),
    (["ram", "indm1(O)"], 2, "ParseError: expected 'O' or '(', got 'end of input' at column 8\n", 8),
    (["table", "5", "--group", "0,0"], 2,
     "ParseError: bad value for --group: torus moduli must be positive\n", 0),
    (["elm", "ind0", "pair{(5,7),(0,3)}"], 2, "SemanticError: pair{...} does not apply to ind0\n", None),
    (["elm", "ind0", "onX1@(5,7)"], 2, "SemanticError: ind0 has no second section onX1\n", None),
    (["elm", "dec(0*O)", "pair{(5,7),(0,3)}"], 2,
     "SemanticError: pair{...} does not apply to dec\n", None),
    (["table", "2"], 2, "SemanticError: table requires an ambient dimension N >= 3\n", None),
    (["ram", "ind0", "(5,7)"], 2, "SemanticError: ram applies to indm1 surfaces only\n", None),
    (["classify", "ind0", "2X0+(P(5,7))f"], 2,
     "SemanticError: classify needs a fiber-degree-1 system (1X0+...)\n", None),
    (["analyze", "dec(P(5,7))", "1X0+(O)f"], 2,
     "SemanticError: dec(...) needs a divisor of degree <= 0, got 1\n", None),
    (["mincurves", "ind0", "pair{(5,7),(0,3)}"], 2,
     "SemanticError: mincurves needs an indm1 surface and a pair{...}\n", None),
    (["nagata", "dec"], 2, "SemanticError: nagata dec needs the invariant e (nagata dec E)\n", None),
    (["ram", "indm1((1,1))", "O", "--curve", "23,-1,0"], 2,
     "SemanticError: (1,1) is not on the curve\n", None),
    (["ram", "indm1(O)", f"(3,{HUGE})"], 2,
     "ParseError: integer of 5000 digits at column 12 is too long\n", 12),
]


@pytest.mark.parametrize("argv, code, err, column", ERROR_LINES)
def test_error_lines_keep_their_exit_code_message_and_column(argv, code, err, column, capsys):
    assert main(argv) == code
    assert capsys.readouterr() == ("", err)
    with pytest.raises((ParseError, SemanticError)) as info:
        parse(argv)
    assert getattr(info.value, "column", None) == column


def test_unbalanced_quotes_are_a_parse_error_at_column_zero():
    with pytest.raises(ParseError) as info:
        parse('analyze ind0 "1X0+(O)f')
    assert str(info.value) == "unbalanced quoting: No closing quotation"
    assert info.value.column == 0


def test_composite_curve_modulus_is_a_parse_error(capsys):
    assert main(["elm", "ind0", "gen@(0,1)", "--curve", "10201,1,1"]) == 2
    assert capsys.readouterr().err.startswith("ParseError: bad value for --curve")


def test_generic_pair_on_a_one_point_group_is_refused(capsys):
    # A generic pair needs two distinct points; drawing them used to loop forever.
    assert main(["walk", "indm1(O)", "generic", "--group", "1,1"]) == 1
    assert capsys.readouterr().err.startswith("DegenerateModel: ")


# -- fuzzing main -------------------------------------------------------------

ERROR_CODES = {
    cls.code
    for cls in vars(errors).values()
    if isinstance(cls, type) and issubclass(cls, errors.EngineError)
}


def test_error_codes_are_the_fourteen_class_names():
    # The code is the class name, so renaming a class changes a code.
    assert ERROR_CODES == {
        "EngineError", "MixedGroups", "GroupTooLarge", "UnsupportedSecancy",
        "InvalidSecancy", "NotBasePointFree", "InvalidPointSpec", "InvalidSurface",
        "InvalidArgument", "NonNormalizedInput", "DegenerateModel", "UnreachableTarget",
        "SemanticError", "ParseError",
    }

#: Argument words by kind, and the kinds each command reads, in order.
ARGUMENTS = {
    "surface": ("dec(0*O)", "dec(-P(1,0))", "dec(-3*O)", "ind0", "indm1(O)", "indm1((1,1))"),
    "system": ("1X0+(O)f", "1X0+(3*O)f", "2X0+(P(0,1)+P(1,0))f", "3X0+(4*O)f"),
    "spec": ("onX0@(1,0)", "onX1@O", "gen@(0,1)", "pair{(0,0),(1,1)}", "pair{O,O}"),
    "point": ("O", "(1,1)", "(0,2)"),
    "template": WALK_TEMPLATES,
    "int": ("0", "1", "3", "7", HUGE),
    "family": ("dec", "ind0", "indm1"),
}
SHAPES = {
    "analyze": ("surface", "system"), "classify": ("surface", "system"),
    "elm": ("surface", "spec"), "walk": ("surface", "template", "template", "template"),
    "table": ("int",), "nagata": ("family", "int"), "mincurves": ("surface", "spec"),
    "ram": ("surface", "point"),
}
#: Pieces glued into broken words.
PIECES = ("dec(", "(", ")", "{", "}", ",", "+", "*", "@", "P", "X0", "-1", "\u00b2", "#", "'", "")


@st.composite
def argvs(draw):
    """A command line that is well formed more often than not: a command
    word and its argument words, some of them cut, broken or replaced, then
    up to two flags with small values."""
    any_word = st.sampled_from([w for ws in ARGUMENTS.values() for w in ws] + list(PIECES))
    broken = st.lists(any_word, min_size=1, max_size=3).map("".join)
    command = draw(st.sampled_from(sorted(COMMANDS)))
    shape = SHAPES[command]
    rarely = st.sampled_from(range(10)).map(lambda k: k == 9)
    if draw(rarely):
        shape = shape[: draw(st.integers(0, len(shape)))]
    words = [draw(st.sampled_from(ARGUMENTS[kind])) for kind in shape]
    for _ in range(draw(st.integers(0, 2)) if words else 0):
        words[draw(st.integers(0, len(words) - 1))] = draw(broken)
    if draw(rarely):
        command = draw(broken)
    words.insert(0, command)
    small = st.integers(1, 6).map(str)
    prime = st.sampled_from(["3", "5", "7", "23"])
    flags = draw(st.lists(st.one_of(
        st.sampled_from([
            ["--json"], ["--verify"], ["--json=1"],
            ["--bogus"], ["--group"], ["--group", "0,3"], ["--curve=9,1,1"],
        ]),
        st.tuples(small, small).map(lambda t: ["--group", ",".join(t)]),
        small.map(lambda v: ["--seed", v]),
        st.tuples(prime, small, small).map(lambda t: ["--curve=" + ",".join(t)]),
    ), max_size=2))
    return words + [word for flag in flags for word in flag]


#: The tier-1 run replays one fixed set of examples, so that its verdict
#: does not change from run to run; ``ELLSCROLL_FUZZ=1`` draws fresh ones.
FUZZ_FRESH = os.environ.get("ELLSCROLL_FUZZ") == "1"


@settings(max_examples=300, deadline=None, derandomize=not FUZZ_FRESH, print_blob=True)
@given(argvs())
def test_main_fuzz_ends_in_an_exit_code_and_a_coded_error(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    assert code in (0, 1, 2)
    if code == 0:
        assert err.getvalue() == ""
        return
    first, sep, rest = err.getvalue().partition(": ")
    assert sep and first in ERROR_CODES and rest.endswith("\n")
    assert "\n" not in rest[:-1]
    assert (code == 2) == (first in ("ParseError", "SemanticError"))
    if any(a == "--json" or a.startswith("--json=") for a in argv):
        assert json.loads(out.getvalue())["error"] == first


# -- lexer and JSON rendering --------------------------------------------------


def fast_lex(text):
    """The parser's token texts of ``text`` before EOF, or the (message,
    column) of the ParseError it raises."""
    try:
        texts = _texts(text)
    except ParseError as exc:
        return str(exc), exc.column
    assert texts[-1] == ""
    return texts[:-1]


def lex(text):
    """The (kind, text, column) tokens of ``text`` before EOF, or the
    (message, column) of the ParseError it raises.  The parser's own lexer
    must read the same texts, or raise the same error."""
    try:
        tokens = _tokenize(text)
    except ParseError as exc:
        assert fast_lex(text) == (str(exc), exc.column), repr(text)
        return str(exc), exc.column
    assert tokens[-1] == ("EOF", "", len(text))
    assert fast_lex(text) == [word for _, word, _ in tokens[:-1]], repr(text)
    return tokens[:-1]


def lone(ch, column=0):
    """What the lexer must make of ``ch`` alone, at ``column``, by definition."""
    if ch.isspace():
        return []
    if ch in "0123456789":
        return [("INT", ch, column)]
    if ch.isalpha() or ch == "_":
        return [("IDENT", ch, column)]
    if ch in "(){},+-*@":
        return [("SYM", ch, column)]
    return f"unexpected character {ch!r} at column {column}", column


def after(token, ch):
    """The tokens of ``token[1] + ch``: ``token``, then ``ch`` alone."""
    rest = lone(ch, len(token[1]))
    return rest if isinstance(rest, tuple) else [token, *rest]


def check_lexer(code_points):
    for ch in map(chr, code_points):
        assert lex(ch) == lone(ch), repr(ch)
        assert lex(" " + ch) == lone(ch, 1), repr(ch)
        word = ch.isalnum() or ch == "_"
        assert lex("a" + ch) == ([("IDENT", "a" + ch, 0)] if word else after(("IDENT", "a", 0), ch))
        digit = ch in "0123456789"
        assert lex("1" + ch) == ([("INT", "1" + ch, 0)] if digit else after(("INT", "1", 0), ch))


#: Characters where ``str`` methods and regular-expression classes could part:
#: numeric but not decimal, decimal but not ASCII, separators that are spaces,
#: and a combining mark.
LEXER_EDGES = "\u00b2\u00bd\u0663\x1c\x1d\x1e\x1f\xa0\u2028\u3000\u0301"


def test_lexer_matches_its_definition():
    sample = random.Random(0).sample(range(0x800, 0x110000), 4000)
    check_lexer([*range(0x800), *sample, *map(ord, LEXER_EDGES)])


@pytest.mark.parametrize("ch", LEXER_EDGES)
def test_parser_lexer_matches_tokenize_on_edges_in_a_line(ch):
    # Each edge character inside, before and after the tokens of a valid
    # line: the same texts, or the same message and column.
    line = "ind0 2X0+(P(1,0)+3*O)f pair{O,(0,1)} onX0@(1,1) _a1 é"
    for cut in range(len(line) + 1):
        lex(line[:cut] + ch + line[cut:])
    lex(ch.join(line.split()))


@pytest.mark.skipif(not FUZZ_FRESH, reason="every code point; set ELLSCROLL_FUZZ=1")
def test_lexer_matches_its_definition_sweep():
    check_lexer(range(0x110000))


#: Strings with quotes, backslashes, control and non-ASCII characters, ints
#: up to 300 digits, and containers small enough that the examples stay fast.
json_texts = st.text(st.sampled_from('"\\/\x00\x1f\x7fé \U0001f600') | st.characters(), max_size=10)
json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.integers(-(10**300), 10**300) | json_texts,
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(json_texts, inner, max_size=4),
    max_leaves=10,
)


@settings(max_examples=200, deadline=None, derandomize=not FUZZ_FRESH, print_blob=True)
@given(json_values)
@example({"a": [], "b": {}, "c": [[], {}, [[]]], "d": {"e": {}}})
@example(10**299)
def test_json_rendering_fuzz_matches_json_dumps(value):
    assert _render_json(value) == json.dumps(value, indent=2)


class Text(str):
    pass


@pytest.mark.parametrize(
    "value", [1.0, (1, 2), Text("x"), [True, 1.0], {"a": 0.0}, {1: None}],
    ids=["float", "tuple", "str-subclass", "float-after-true", "float-in-dict", "int-key"],
)
def test_json_rendering_refuses_other_types(value):
    with pytest.raises(TypeError):
        _render_json(value)
