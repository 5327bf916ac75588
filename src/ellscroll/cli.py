"""Command-line front end.

A small DSL names group elements, divisors, surfaces, linear systems and
transformation points; a recursive-descent parser turns a command line into a
:class:`Command` whose fields are engine values (surface models, classes
``m*X0 + b*f``, point descriptors), and ``run`` hands them to the engine.
A divisor is reduced to its class as it is read, so :meth:`Command.format`
writes each class in its canonical text: the point summing the class once,
then ``O`` terms up to its degree (``-O+P(1,0)`` for degree 0).  Every
command round-trips: ``parse(cmd.format()) == cmd``.

Each command is one class in the registry ``COMMANDS``, keyed by its command
word.  The class's fields are what the command parses; its ``grammar`` lists
the ``_Parser`` production that reads each field, in order; its
``__post_init__`` makes the semantic checks that involve several fields; and
its ``run(options)`` builds the payload.  ``parse``, ``run`` and the shared
``format`` work from these alone, so adding a command touches one class.

Grammar (after flag words are stripped)::

    point     := "O" | "(" INT "," INT ")"
    term      := [INT "*"] "P" point | INT "*" "O" | "O"
    divisor   := ["-"] term { ("+"|"-") term }
    surface   := "dec(" divisor ")" | "ind0" | "indm1(" point ")"
    system    := INT "X0" "+" "(" divisor ")" "f"
    pointspec := "onX0@" point | "onX1@" point | "gen@" point
               | "pair{" point "," point "}"

Commands: ``analyze s system``, ``classify s system`` (fiber degree 1),
``elm s pointspec``, ``walk s step...``, ``table N``, ``nagata target [e]``,
``mincurves s pair{..}``, ``ram s point``.  Flags: ``--group m,n``,
``--curve p,a,b``, ``--json``, ``--seed N``, ``--verify``.  Each shell
argument is one word: a flag inside an argument is not split out of it.
``table`` takes N <= 10000 and ``nagata`` an e <= 10000 (``SIZE_CAP``): the
work grows linearly in either, and a larger one is a semantic error.

Exit codes: 0 success, 1 engine error, 2 parse/semantic error.  In JSON mode
errors are also emitted on standard output as ``{"error": code, ...}``.
"""

from __future__ import annotations

import json
import shlex
import sys
from dataclasses import dataclass, field, fields
from typing import Callable, ClassVar, Sequence

from . import classify as classify_mod
from . import linsys
from .elmtrans import (
    WALK_TEMPLATES, Generic, OnX0, OnX1, Pair, PointSpec, check_point_kind, elm, walk,
)
from .errors import EngineError, InvalidPointSpec, ParseError, SemanticError
from .groups import CurveGroup, GroupElement, TorusGroup, WeierstrassGroup, default_group
from .picard import Divisor, DivisorClass, class_of
from .surface import (
    Decomposable,
    Indec0,
    IndecMinus1,
    SurfaceDivisorClass,
    SurfaceModel,
    min_curves_through,
    ramification_points,
    tau,
)

FAMILIES = ("dec", "ind0", "indm1")
#: The largest N of ``table N`` and E of ``nagata target E``: a table has
#: about N/2 rows and a split plan E steps.
SIZE_CAP = 10_000
#: Point-spec keywords written ``word@point``; ``pair{q,r}`` has its own form.
SPEC_KINDS = {"onX0": OnX0, "onX1": OnX1, "gen": Generic}


# ---------------------------------------------------------------------------
# Lexer


@dataclass(frozen=True)
class Token:
    kind: str  # "INT" | "IDENT" | "SYM" | "EOF"
    text: str
    column: int


#: Only ASCII digits: ``str.isdigit`` also accepts characters such as "²"
#: that ``int`` rejects.
DIGITS = frozenset("0123456789")


def _tokenize(text: str) -> list[Token]:
    tokens: list[Token] = []
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch in DIGITS:
            j = i
            while j < n and text[j] in DIGITS:
                j += 1
            tokens.append(Token("INT", text[i:j], i))
            i = j
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            tokens.append(Token("IDENT", text[i:j], i))
            i = j
            continue
        if ch in "(){},+-*@":
            tokens.append(Token("SYM", ch, i))
            i += 1
            continue
        raise ParseError(
            f"unexpected character {ch!r} at column {i}", column=i
        )
    tokens.append(Token("EOF", "", n))
    return tokens


# ---------------------------------------------------------------------------
# Formatting


def format_divisor(d: Divisor) -> str:
    out = ""
    for point, mult in d.terms:
        base = "O" if point.is_zero() else f"P{point}"
        body = base if abs(mult) == 1 else f"{abs(mult)}*{base}"
        out += ("-" if mult < 0 else "+" if out else "") + body
    return out or "0*O"


def format_class(c: DivisorClass) -> str:
    """The canonical text of a class: its point sum once, then ``O`` terms."""
    g = c.group
    return format_divisor(Divisor.of(g, (c.abel, 1), (g.zero(), c.degree - 1)))


def format_field(value) -> str:
    """The DSL text of one parsed field; an absent optional field is empty."""
    if value is None:
        return ""
    if isinstance(value, tuple):  # walk steps
        return " ".join(map(format_field, value))
    if isinstance(value, SurfaceDivisorClass):
        return f"{value.m}X0+({format_class(value.b)})f"
    if isinstance(value, Decomposable):
        return f"dec({format_class(value.e_class)})"
    if isinstance(value, Indec0):
        return "ind0"
    if isinstance(value, IndecMinus1):
        return f"indm1({value.p0})"
    if isinstance(value, Pair):
        return f"pair{{{value.q},{value.r}}}"
    if isinstance(value, PointSpec):
        word = next(w for w, kind in SPEC_KINDS.items() if isinstance(value, kind))
        return f"{word}@{value.P}"
    return str(value)


# ---------------------------------------------------------------------------
# Parser


class _Parser:
    def __init__(self, text: str, group: CurveGroup):
        self.tokens = _tokenize(text)
        self.pos = 0
        self.group = group

    def peek(self) -> Token:
        return self.tokens[self.pos]

    def next(self) -> Token:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def fail(self, expected: tuple[str, ...]) -> ParseError:
        tok = self.peek()
        got = tok.text or "end of input"
        return ParseError(
            f"expected {' or '.join(expected)}, got {got!r} at column {tok.column}",
            column=tok.column,
            expected=expected,
        )

    def at(self, text: str) -> bool:
        """Whether the next token is this symbol or identifier."""
        return self.peek().text == text

    def expect_sym(self, sym: str) -> Token:
        if self.at(sym):
            return self.next()
        raise self.fail((f"'{sym}'",))

    def expect_int(self) -> int:
        tok = self.peek()
        if tok.kind != "INT":
            raise self.fail(("integer",))
        self.next()
        try:
            return int(tok.text)
        except ValueError as exc:  # over the interpreter's int-conversion limit
            raise ParseError(
                f"integer of {len(tok.text)} digits at column {tok.column} is too long",
                column=tok.column,
            ) from exc

    def expect_ident(self, *names: str) -> str:
        if self.peek().text in names:
            return self.next().text
        raise self.fail(names)

    # -- grammar productions ------------------------------------------------

    def optional_int(self) -> int | None:
        return self.expect_int() if self.peek().kind == "INT" else None

    def family(self) -> str:
        return self.expect_ident(*FAMILIES)

    def signed_int(self) -> int:
        sign = -1 if self.at("-") and self.next() else 1
        return sign * self.expect_int()

    def point(self) -> GroupElement:
        if self.at("O"):
            self.next()
            return self.group.zero()
        if self.at("("):
            self.next()
            x = self.signed_int()
            self.expect_sym(",")
            y = self.signed_int()
            self.expect_sym(")")
            try:
                if isinstance(self.group, WeierstrassGroup):
                    return self.group.point(x, y)
                return self.group.element(x, y)
            except ValueError as exc:
                raise SemanticError(str(exc)) from exc
        raise self.fail(("'O'", "'('"))

    def term(self) -> tuple[GroupElement, int]:
        mult = 1
        if self.peek().kind == "INT":
            mult = self.expect_int()
            self.expect_sym("*")
        name = self.peek().text
        if name not in ("P", "O", "PO"):
            raise self.fail(("'P'", "'O'"))
        self.next()
        return (self.point() if name == "P" else self.group.zero()), mult

    def divisor(self) -> Divisor:
        terms: list[tuple[GroupElement, int]] = []
        sign = -1 if self.at("-") and self.next() else 1
        while True:
            point, mult = self.term()
            terms.append((point, sign * mult))
            if not (self.at("+") or self.at("-")):
                return Divisor.of(self.group, *terms)
            sign = 1 if self.next().text == "+" else -1

    def surface(self) -> SurfaceModel:
        name = self.family()
        if name == "ind0":
            return Indec0(self.group)
        self.expect_sym("(")
        if name == "dec":
            div = self.divisor()
            self.expect_sym(")")
            cls = class_of(div)
            # Checked here, so that the error is a SemanticError rather than
            # the engine's NonNormalizedInput.
            if cls.degree > 0:
                raise SemanticError(
                    f"dec(...) needs a divisor of degree <= 0, got {cls.degree}"
                )
            return Decomposable(cls)
        p = self.point()
        self.expect_sym(")")
        return IndecMinus1(p)

    def system(self) -> SurfaceDivisorClass:
        m = self.expect_int()
        self.expect_ident("X0")
        self.expect_sym("+")
        self.expect_sym("(")
        div = self.divisor()
        self.expect_sym(")")
        self.expect_ident("f")
        return SurfaceDivisorClass(m, class_of(div))

    def pointspec(self) -> PointSpec:
        name = self.expect_ident(*SPEC_KINDS, "pair")
        if name == "pair":
            self.expect_sym("{")
            q = self.point()
            self.expect_sym(",")
            r = self.point()
            self.expect_sym("}")
            return Pair(q, r)
        self.expect_sym("@")
        return SPEC_KINDS[name](self.point())

    def steps(self) -> tuple:
        steps: list = []
        while self.peek().kind != "EOF":
            # ``onX0`` is a template, and ``onX0@point`` a concrete point.
            after = self.tokens[self.pos + 1].text
            if self.peek().text in WALK_TEMPLATES and after != "@":
                steps.append(self.next().text)
            else:
                steps.append(self.pointspec())
        return tuple(steps)

    def end(self) -> None:
        if self.peek().kind != "EOF":
            raise self.fail(("end of input",))


# ---------------------------------------------------------------------------
# Commands


@dataclass(frozen=True)
class Options:
    group: CurveGroup = field(default_factory=default_group)
    json: bool = False
    seed: int = 0
    verify: bool = False


def _family_dict(model: SurfaceModel) -> dict:
    return {"family": model.family(), "e_class": str(model.e_class)}


class _Command:
    """A command: a frozen dataclass with ``word``, ``grammar`` and ``run``."""

    word: ClassVar[str]
    grammar: ClassVar[tuple[Callable[[_Parser], object], ...]]

    def format(self) -> str:
        words = (format_field(getattr(self, f.name)) for f in fields(self))
        return " ".join(w for w in (self.word, *words) if w)


@dataclass(frozen=True)
class Analyze(_Command):
    surface: SurfaceModel
    system: SurfaceDivisorClass

    word = "analyze"
    grammar = (_Parser.surface, _Parser.system)

    def run(self, options: Options) -> dict:
        s, H = self.surface, self.system
        analysis = linsys.analyze(s, H)
        return {"surface": _family_dict(s), "system": str(H), **analysis.to_dict()}


@dataclass(frozen=True)
class Classify(_Command):
    surface: SurfaceModel
    system: SurfaceDivisorClass

    word = "classify"
    grammar = (_Parser.surface, _Parser.system)

    def __post_init__(self) -> None:
        if self.system.m != 1:
            raise SemanticError("classify needs a fiber-degree-1 system (1X0+...)")

    def run(self, options: Options) -> dict:
        return classify_mod.classify_scroll(self.surface, self.system.b).to_dict()


@dataclass(frozen=True)
class Elm(_Command):
    surface: SurfaceModel
    spec: PointSpec

    word = "elm"
    grammar = (_Parser.surface, _Parser.pointspec)

    def __post_init__(self) -> None:
        try:
            check_point_kind(self.surface, self.spec)
        except InvalidPointSpec as exc:
            raise SemanticError(str(exc)) from exc

    def run(self, options: Options) -> dict:
        result = elm(self.surface, self.spec)
        return {
            "rule": result.rule,
            "result": _family_dict(result.model),
            "new_minimum_section": result.y0_note,
        }


@dataclass(frozen=True)
class Walk(_Command):
    surface: SurfaceModel
    steps: tuple  # templates (str) and/or concrete PointSpecs

    word = "walk"
    grammar = (_Parser.surface, _Parser.steps)

    def run(self, options: Options) -> dict:
        result = walk(self.surface, self.steps, rng_seed=options.seed)
        return {
            "steps": [
                {"rule": step.rule, **_family_dict(step.model)} for step in result.steps
            ],
            "final": _family_dict(result.trajectory[-1]),
        }


@dataclass(frozen=True)
class Table(_Command):
    n: int

    word = "table"
    grammar = (_Parser.expect_int,)

    def __post_init__(self) -> None:
        if self.n < 3:
            raise SemanticError("table requires an ambient dimension N >= 3")
        if self.n > SIZE_CAP:
            raise SemanticError(f"table takes an ambient dimension N <= {SIZE_CAP}")

    def run(self, options: Options) -> list | str:
        rows = classify_mod.emit_table(self.n, options.group)
        if options.json:
            return [row.to_dict() for row in rows]
        return classify_mod.render_table(self.n, rows)


@dataclass(frozen=True)
class Nagata(_Command):
    target: str
    e: int | None = None

    word = "nagata"
    grammar = (_Parser.family, _Parser.optional_int)

    def __post_init__(self) -> None:
        if self.target == "dec" and self.e is None:
            raise SemanticError("nagata dec needs the invariant e (nagata dec E)")
        if self.e is not None and self.e > SIZE_CAP:
            raise SemanticError(f"nagata takes an invariant e <= {SIZE_CAP}")

    def run(self, options: Options) -> dict:
        plan = classify_mod.nagata_plan(self.target, self.e, options.group)
        payload: dict = {
            "target": plan.target,
            "target_e": plan.target_e,
            "length": plan.length,
            "steps": [format_field(s) for s in plan.steps],
        }
        if options.verify:
            start = classify_mod.product_surface(options.group)
            trajectory = walk(start, plan.steps).trajectory
            payload["trajectory"] = [_family_dict(model) for model in trajectory]
            payload["verified"] = classify_mod.matches_target(
                trajectory[-1], plan.target, plan.target_e
            )
        return payload


@dataclass(frozen=True)
class MinCurves(_Command):
    surface: IndecMinus1
    pair: Pair

    word = "mincurves"
    grammar = (_Parser.surface, _Parser.pointspec)

    def __post_init__(self) -> None:
        if not isinstance(self.surface, IndecMinus1) or not isinstance(self.pair, Pair):
            raise SemanticError("mincurves needs an indm1 surface and a pair{...}")

    def run(self, options: Options) -> dict:
        descriptor = tau(self.surface, self.pair.q, self.pair.r)
        curves = min_curves_through(self.surface, descriptor)
        return {
            "point": format_field(self.pair),
            "fiber": str(descriptor.t),
            "focal": descriptor.is_focal(),
            "min_curves": sorted(str(c.q) for c in curves),
        }


def _ram_surface(parser: _Parser) -> IndecMinus1:
    # Checked before the fiber point is read: a family mismatch is reported
    # as such even when the rest of the line is malformed.
    surface = parser.surface()
    if not isinstance(surface, IndecMinus1):
        raise SemanticError("ram applies to indm1 surfaces only")
    return surface


@dataclass(frozen=True)
class Ram(_Command):
    surface: IndecMinus1
    t: GroupElement

    word = "ram"
    grammar = (_ram_surface, _Parser.point)

    def run(self, options: Options) -> dict:
        points = ramification_points(self.surface, self.t)
        return {"fiber": str(self.t), "ramification_points": sorted(map(str, points))}


#: The command classes by command word: the only list of command words.
COMMANDS: dict[str, type[_Command]] = {
    cls.word: cls
    for cls in (Analyze, Classify, Elm, Walk, Table, Nagata, MinCurves, Ram)
}


@dataclass(frozen=True)
class Command:
    variant: _Command
    options: Options

    def format(self) -> str:
        out = self.variant.format()
        opt = self.options
        g = opt.group
        if isinstance(g, TorusGroup):
            if g != default_group():
                out += f" --group {g.m},{g.n}"
        else:
            out += f" --curve {g.p},{g.a},{g.b}"
        if opt.json:
            out += " --json"
        if opt.seed:
            out += f" --seed {opt.seed}"
        if opt.verify:
            out += " --verify"
        return out


# ---------------------------------------------------------------------------
# Entry points


def _torus(value: str) -> TorusGroup:
    m, n = (int(v) for v in value.split(","))
    return TorusGroup(m, n)


def _curve(value: str) -> WeierstrassGroup:
    p, a, b = (int(v) for v in value.split(","))
    return WeierstrassGroup(p, a, b)


#: Flags that take a value: the ``Options`` field each sets, and its reader.
VALUE_FLAGS = {
    "--group": ("group", _torus), "--curve": ("group", _curve), "--seed": ("seed", int)
}
#: Flags that turn an ``Options`` field on.
SWITCHES = {"--json": "json", "--verify": "verify"}


def _parse_flags(words: list[str]) -> tuple[list[str], Options]:
    body: list[str] = []
    settings: dict = {}
    rest = iter(words)
    for word in rest:
        if not word.startswith("--"):
            body.append(word)
            continue
        name, eq, value = word.partition("=")
        if name in SWITCHES:
            settings[SWITCHES[name]] = True
            continue
        if name not in VALUE_FLAGS:
            raise ParseError(f"unknown flag {name}", column=0)
        if not eq:
            value = next(rest, None)
            if value is None:
                raise ParseError(f"flag {name} needs a value", column=0)
        key, read = VALUE_FLAGS[name]
        try:
            settings[key] = read(value)
        except ValueError as exc:
            raise ParseError(f"bad value for {name}: {exc}", column=0) from exc
    return body, Options(**settings)


def parse(line: str | Sequence[str]) -> Command:
    """Parse one full command line (flags may appear anywhere).

    ``line`` is either text, split into words as a shell would, or the list
    of words itself; each word that starts with ``--`` is a flag.
    """
    if isinstance(line, str):
        try:
            line = shlex.split(line)
        except ValueError as exc:
            raise ParseError(f"unbalanced quoting: {exc}", column=0) from exc
    body, options = _parse_flags(list(line))
    parser = _Parser(" ".join(body[1:]), options.group)
    cls = COMMANDS.get(body[0]) if body else None
    if cls is None:
        problem = f"unknown command {body[0]!r}" if body else "missing command word"
        raise ParseError(problem, column=0, expected=COMMANDS)
    values = [production(parser) for production in cls.grammar]
    # Leftover tokens are a parse error, reported before the command's own
    # semantic checks run on what was read.
    parser.end()
    return Command(cls(*values), options)


def _render_text(payload: dict | str) -> str:
    if isinstance(payload, str):
        return payload
    lines = []
    for key, value in payload.items():
        if isinstance(value, (dict, list)):
            value = json.dumps(value)
        lines.append(f"{key} = {value}")
    return "\n".join(lines)


def run(cmd: Command) -> tuple[int, str]:
    """Execute a parsed command; returns (exit status, stdout text)."""
    payload = cmd.variant.run(cmd.options)
    if cmd.options.json:
        return 0, json.dumps(payload, indent=2)
    return 0, _render_text(payload)


def main(argv: list[str] | None = None) -> int:
    args = sys.argv[1:] if argv is None else list(argv)
    json_mode = any(a == "--json" or a.startswith("--json=") for a in args)
    try:
        status, out = run(parse(args))
    except EngineError as err:
        print(f"{err.code}: {err}", file=sys.stderr)
        if json_mode:
            print(json.dumps({"error": err.code, "message": str(err)}))
        return 2 if isinstance(err, (ParseError, SemanticError)) else 1
    if out:
        print(out)
    return status


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
