"""Command-line front end.

A small DSL names group elements, divisors, surfaces, linear systems and
transformation points; a recursive-descent parser turns a command line into a
:class:`Command` whose fields are engine values (surface models, classes
``m*X0 + b*f``, point descriptors), and ``run`` hands them to the engine.
No divisor is built: the parser collects a divisor's (point, multiplicity)
terms and ``picard.class_of`` reduces them to the class as it is read.
:meth:`Command.format` writes each class in its canonical text, the ``O``
term first, then the point summing the class once (``-O+P(1,0)``,
``2*O+P(1,0)``, ``O``, ``0*O``).  Every command round-trips:
``parse(cmd.format()) == cmd``.

Each command is one class in the registry ``COMMANDS``, keyed by its command
word, the class name in lower case.  It is a ``values.Value`` whose fields
are what the command parses; its ``grammar`` lists the ``_Parser``
production that reads each field, in order; its ``_check`` makes the
semantic checks that involve several fields; and its ``run(options)`` builds
the payload.  ``parse``, ``run`` and the shared ``format`` work from these
alone, so adding a command touches one class.

Grammar (after flag words are stripped)::

    point     := "O" | "(" INT "," INT ")"
    term      := [INT "*"] "P" point | INT "*" "O" | "O"
    divisor   := ["-"] term { ("+"|"-") term }
    surface   := "dec(" divisor ")" | "ind0" | "indm1(" point ")"
    system    := INT "X0" "+" "(" divisor ")" "f"
    pointspec := "onX0@" point | "onX1@" point | "gen@" point
               | "pair{" point "," point "}"

Tokens: an INT is a run of ASCII digits, an identifier a ``str.isalpha``
character or ``_`` then ``str.isalnum`` ones or ``_``, a symbol one of
``(){},+-*@``; any other character but a space is a ParseError.
``_tokenize`` is the definition.  The parser reads only the token texts,
from one ``findall``: a text is an INT when it starts with an ASCII digit,
and the empty text is EOF.  Columns are found again only for an error.

Commands: ``analyze s system``, ``classify s system`` (fiber degree 1),
``elm s pointspec``, ``walk s step...``, ``table N``, ``nagata target [e]``,
``mincurves s pair{..}``, ``ram s point``.  Flags: ``--group m,n``,
``--curve p,a,b``, ``--json``, ``--seed N``, ``--verify``, each in ``FLAGS``
with the ``Options`` field it sets.  A value is the next word or follows
``=``: comma-separated INTs with an optional leading ``-``, one per field of
the group model, or one seed.  A switch takes no value (``--json=false`` is a
ParseError, not JSON), and a second flag for one field (``--curve`` after
``--group``) is a ParseError.  ``format`` writes each flag whose field is not
its default.  Each shell argument is one word: a flag inside an argument is
not split out of it, and a word that is not a ``str`` is a ParseError.
``table`` takes N <= 10000 and ``nagata`` an e <= 10000 (``SIZE_CAP``): the
work grows linearly in either, and a larger one is a semantic error.

Exit codes: 0 success, 1 engine error, 2 parse/semantic error.  In JSON mode
errors are also emitted on standard output as ``{"error": code, ...}``.
``--json`` prints ``json.dumps`` of the payload's dict form with
``indent=2``, byte for byte, built without the pure-Python encoder that
``json.dumps`` takes when it indents.  ``table`` and ``classify`` hand over
their ``classify`` records, not dicts, and each record renders from the
template of its fields (see ``classify``).
"""

from __future__ import annotations

import json
import re
import shlex
import sys
from json.encoder import encode_basestring_ascii
from typing import Callable, ClassVar, Sequence

from . import classify as classify_mod
from . import linsys
from .elmtrans import (
    WALK_TEMPLATES, Generic, OnX0, OnX1, Pair, PointSpec, check_point_kind, elm, walk,
)
from .errors import EngineError, InvalidArgument, InvalidPointSpec, ParseError, SemanticError
from .groups import (
    GROUP_MODELS, CurveGroup, GroupElement, TorusGroup, WeierstrassGroup, default_group,
)
from .picard import DivisorClass, class_of
from .surface import (
    FAMILIES,
    Decomposable,
    Indec0,
    IndecMinus1,
    SurfaceDivisorClass,
    SurfaceModel,
    min_curves_through,
    ramification_points,
    tau,
)
from .values import Value

#: The largest N of ``table N`` and E of ``nagata target E``: a table has
#: about N/2 rows and a split plan E steps.
SIZE_CAP = 10_000
#: Point-spec keywords written ``word@point``; ``pair{q,r}`` has its own form.
SPEC_KINDS = {"onX0": OnX0, "onX1": OnX1, "gen": Generic}


# ---------------------------------------------------------------------------
# Lexer


#: Each token kind and its pattern, in the order they are tried.
#: ``[^\W\d]`` also admits characters such as "²" and "½", numeric but not
#: decimal: ``_tokenize`` refuses an identifier that starts with one.
_KINDS = (("INT", r"[0-9]+"), ("IDENT", r"[^\W\d]\w*"), ("SYM", r"[(){},+\-*@]"))
_TOKEN = re.compile("|".join(f"(?P<{kind}>{pat})" for kind, pat in (*_KINDS, ("BAD", r"\S"))))
#: The same alternatives without groups, so that ``findall`` returns the texts.
_TEXTS = re.compile("|".join(pat for _, pat in _KINDS))


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    """The (kind, text, column) tokens of ``text``, ending in an EOF token."""
    tokens = []
    for match in _TOKEN.finditer(text):
        kind, word, i = match.lastgroup, match.group(), match.start()
        if kind == "BAD" or kind == "IDENT" and not (word[0].isalpha() or word[0] == "_"):
            raise ParseError(f"unexpected character {text[i]!r} at column {i}", column=i)
        tokens.append((kind, word, i))
    tokens.append(("EOF", "", len(text)))
    return tokens


def _texts(text: str) -> list[str]:
    """The texts of ``_tokenize(text)``, EOF's "" included, from one ``findall``.

    ``findall`` skips what no token matches, so ``_tokenize`` checks a line
    that the texts and spaces do not make up, or that is not ASCII (where an
    identifier may start with a bad character), and raises on a bad one.
    """
    texts = _TEXTS.findall(text)
    if not text.isascii() or len("".join(texts)) + text.count(" ") != len(text):
        _tokenize(text)
    texts.append("")
    return texts


# ---------------------------------------------------------------------------
# Formatting


def format_class(c: DivisorClass) -> str:
    """The canonical text of a class: ``k*O+P(sum)`` with k = degree - 1, or
    ``k*O`` with k = degree when the sum is zero; ``1*O`` is written ``O``,
    and ``0*O`` is left out unless it is all there is."""
    point = None if c.abel.is_zero() else f"P{c.abel}"
    k = c.degree if point is None else c.degree - 1
    if k == 0:
        return point or "0*O"
    o_term = ("-" if k < 0 else "") + ("O" if abs(k) == 1 else f"{abs(k)}*O")
    return o_term if point is None else f"{o_term}+{point}"


def format_field(value) -> str:
    """The DSL text of one parsed field; an absent optional field is empty."""
    if value is None:
        return ""
    if isinstance(value, tuple):  # walk steps
        return " ".join(map(format_field, value))
    if isinstance(value, SurfaceDivisorClass):
        return f"{value.m}X0+({format_class(value.b)})f"
    if isinstance(value, Decomposable):
        return f"{value.family()}({format_class(value.e_class)})"
    if isinstance(value, Indec0):
        return value.family()
    if isinstance(value, IndecMinus1):
        return f"{value.family()}({value.p0})"
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
        self.text = text
        self.texts = _texts(text)
        self.pos = 0
        self.group = group

    def at_int(self) -> bool:
        return "0" <= self.texts[self.pos][:1] <= "9"

    def accept(self, text: str) -> bool:
        """Step over the current token if it is ``text``."""
        if self.texts[self.pos] == text:
            self.pos += 1
            return True
        return False

    def column(self) -> int:
        """The column of the current token; only errors need it."""
        return _tokenize(self.text)[self.pos][2]

    def fail(self, expected: tuple[str, ...]) -> ParseError:
        got = self.texts[self.pos] or "end of input"
        column = self.column()
        return ParseError(
            f"expected {' or '.join(expected)}, got {got!r} at column {column}",
            column=column,
            expected=expected,
        )

    def expect_sym(self, sym: str) -> str:
        if self.texts[self.pos] != sym:
            raise self.fail((f"'{sym}'",))
        self.pos += 1
        return sym

    def expect_int(self) -> int:
        text = self.texts[self.pos]
        if not "0" <= text[:1] <= "9":
            raise self.fail(("integer",))
        try:
            value = int(text)
        except ValueError as exc:  # over the interpreter's int-conversion limit
            column = self.column()
            raise ParseError(
                f"integer of {len(text)} digits at column {column} is too long",
                column=column,
            ) from exc
        self.pos += 1
        return value

    def expect_ident(self, *names: str) -> str:
        text = self.texts[self.pos]
        if text not in names:
            raise self.fail(names)
        self.pos += 1
        return text

    # -- grammar productions ------------------------------------------------

    def optional_int(self) -> int | None:
        return self.expect_int() if self.at_int() else None

    def family(self) -> str:
        return self.expect_ident(*FAMILIES)

    def signed_int(self) -> int:
        sign = -1 if self.accept("-") else 1
        return sign * self.expect_int()

    def point(self) -> GroupElement:
        if self.accept("O"):
            return self.group.zero()
        if self.accept("("):
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
        if self.at_int():
            mult = self.expect_int()
            self.expect_sym("*")
        name = self.texts[self.pos]
        if name not in ("P", "O", "PO"):
            raise self.fail(("'P'", "'O'"))
        self.pos += 1
        return (self.point() if name == "P" else self.group.zero()), mult

    def divisor(self) -> DivisorClass:
        terms: list[tuple[GroupElement, int]] = []
        sign = -1 if self.accept("-") else 1
        while True:
            point, mult = self.term()
            terms.append((point, sign * mult))
            if self.accept("+"):
                sign = 1
            elif self.accept("-"):
                sign = -1
            else:
                return class_of(self.group, terms)

    def surface(self) -> SurfaceModel:
        family = FAMILIES[self.family()]
        if family is Indec0:
            return Indec0(self.group)
        self.expect_sym("(")
        if family is Decomposable:
            cls = self.divisor()
            self.expect_sym(")")
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
        b = self.divisor()
        self.expect_sym(")")
        self.expect_ident("f")
        return SurfaceDivisorClass(m, b)

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
        while self.texts[self.pos]:
            # ``onX0`` is a template, and ``onX0@point`` a concrete point.
            word, after = self.texts[self.pos], self.texts[self.pos + 1]
            if word in WALK_TEMPLATES and after != "@":
                steps.append(word)
                self.pos += 1
            else:
                steps.append(self.pointspec())
        return tuple(steps)

    def end(self) -> None:
        if self.texts[self.pos]:
            raise self.fail(("end of input",))


# ---------------------------------------------------------------------------
# Commands


class Options(Value):
    __slots__ = ("group", "json", "seed", "verify")
    _field_classes = {"group": (GROUP_MODELS, InvalidArgument, "{group!r} is not a group model"),
                      "json": (bool, InvalidArgument, "json {json!r} is not a bool"),
                      "seed": (int, InvalidArgument, "seed {seed!r} is not an int"),
                      "verify": (bool, InvalidArgument, "verify {verify!r} is not a bool")}
    _defaults = {"group": default_group(), "json": False, "seed": 0, "verify": False}


def _family_dict(model: SurfaceModel) -> dict:
    return {"family": model.family(), "e_class": str(model.e_class)}


class _Command(Value):
    """A command value with ``grammar`` and ``run``, whose word is its class name."""

    __slots__ = ()
    grammar: ClassVar[tuple[Callable[[_Parser], object], ...]]

    def format(self) -> str:
        words = map(format_field, self._key(self))
        return " ".join(w for w in (self.__class__.__name__.lower(), *words) if w)


class Analyze(_Command):
    __slots__ = ("surface", "system")

    grammar = (_Parser.surface, _Parser.system)

    def run(self, options: Options) -> dict:
        s, H = self.surface, self.system
        analysis = linsys.analyze(s, H)
        return {"surface": _family_dict(s), "system": str(H), **analysis.to_dict()}


class Classify(_Command):
    __slots__ = ("surface", "system")

    grammar = (_Parser.surface, _Parser.system)

    def _check(self) -> None:
        if self.system.m != 1:
            raise SemanticError("classify needs a fiber-degree-1 system (1X0+...)")

    def run(self, options: Options) -> dict | classify_mod.ScrollModel:
        record = classify_mod.classify_scroll(self.surface, self.system.b)
        return record if options.json else record.to_dict()


class Elm(_Command):
    __slots__ = ("surface", "spec")

    grammar = (_Parser.surface, _Parser.pointspec)

    def _check(self) -> None:
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


class Walk(_Command):
    __slots__ = ("surface", "steps")  # steps: templates (str) and/or concrete PointSpecs

    grammar = (_Parser.surface, _Parser.steps)

    def run(self, options: Options) -> dict:
        result = walk(self.surface, self.steps, rng_seed=options.seed)
        return {
            "steps": [
                {"rule": step.rule, **_family_dict(step.model)} for step in result.steps
            ],
            "final": _family_dict(result.trajectory[-1]),
        }


class Table(_Command):
    __slots__ = ("n",)
    _field_classes = {"n": (int, InvalidArgument, "N {n!r} is not an int")}

    grammar = (_Parser.expect_int,)

    def _check(self) -> None:
        if self.n < 3:
            raise SemanticError("table requires an ambient dimension N >= 3")
        if self.n > SIZE_CAP:
            raise SemanticError(f"table takes an ambient dimension N <= {SIZE_CAP}")

    def run(self, options: Options) -> list | str:
        rows = classify_mod.emit_table(self.n, options.group)
        if options.json:
            return rows
        return classify_mod.render_table(self.n, rows)


class Nagata(_Command):
    __slots__ = ("target", "e")
    _field_classes = {"target": (str, InvalidArgument, "target {target!r} is not a str"),
                      "e": ((int, type(None)), InvalidArgument, "e {e!r} is not an int")}
    _defaults = {"e": None}

    grammar = (_Parser.family, _Parser.optional_int)

    def _check(self) -> None:
        if FAMILIES.get(self.target) is Decomposable and self.e is None:
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


class MinCurves(_Command):
    __slots__ = ("surface", "pair")

    grammar = (_Parser.surface, _Parser.pointspec)

    def _check(self) -> None:
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


class Ram(_Command):
    __slots__ = ("surface", "t")

    grammar = (_ram_surface, _Parser.point)

    def run(self, options: Options) -> dict:
        points = ramification_points(self.surface, self.t)
        return {"fiber": str(self.t), "ramification_points": sorted(map(str, points))}


#: The command classes by command word: the only list of command words.
COMMANDS: dict[str, type[_Command]] = {
    cls.__name__.lower(): cls
    for cls in (Analyze, Classify, Elm, Walk, Table, Nagata, MinCurves, Ram)
}

#: Each flag, in the order ``Command.format`` writes them: the ``Options``
#: field it sets and the class it reads (a switch, ``bool``, reads nothing).
FLAGS = {"--group": ("group", TorusGroup), "--curve": ("group", WeierstrassGroup),
         "--json": ("json", bool), "--seed": ("seed", int), "--verify": ("verify", bool)}
_FLAG_INT = re.compile(r"-?[0-9]+")  # an INT, with an optional "-"


class Command(Value):
    __slots__ = ("variant", "options")

    def format(self) -> str:
        """The variant's text, then each flag whose field is not its default."""
        words = [self.variant.format()]
        for flag, (field, cls) in FLAGS.items():
            value = getattr(self.options, field)
            if value.__class__ is cls and value != Options._defaults[field]:
                ints = value._key(value) if cls in GROUP_MODELS else (value,)
                words.append(flag if cls is bool else f"{flag} {','.join(map(str, ints))}")
        return " ".join(words)


# ---------------------------------------------------------------------------
# Entry points


def _parse_flags(words: list[str]) -> tuple[list[str], Options]:
    body: list[str] = []
    settings: dict = {}
    rest = iter(words)
    for word in rest:
        if not word.startswith("--"):
            body.append(word)
            continue
        name, eq, value = word.partition("=")
        if name not in FLAGS:
            raise ParseError(f"unknown flag {name}", column=0)
        field, cls = FLAGS[name]
        if field in settings:
            raise ParseError(f"flag {name} sets the {field} option again", column=0)
        if cls is bool:
            if eq:
                raise ParseError(f"flag {name} takes no value", column=0)
            settings[field] = True
            continue
        if not eq:
            value = next(rest, None)
            if value is None:
                raise ParseError(f"flag {name} needs a value", column=0)
        ints = value.split(",") if cls in GROUP_MODELS else [value]
        for text in ints:
            if not _FLAG_INT.fullmatch(text):  # int()'s words, hashed by the cli digest
                problem = f"invalid literal for int() with base 10: {text!r}"
                raise ParseError(f"bad value for {name}: {problem}", column=0)
        if cls in GROUP_MODELS and len(ints) != len(cls._fields):
            count = f"{len(cls._fields)} comma-separated integers"
            raise ParseError(f"flag {name} takes {count}", column=0)
        try:
            settings[field] = cls(*map(int, ints))
        except ValueError as exc:  # a refused model, or an integer over the limit
            raise ParseError(f"bad value for {name}: {exc}", column=0) from exc
    return body, Options(**settings)


def parse(line: str | Sequence[str]) -> Command:
    """Parse one full command line (flags may appear anywhere).

    ``line`` is either text, split into words as a shell would, or the list
    of words itself; each word that starts with ``--`` is a flag.  A word
    that is not a ``str`` is refused before any flag is read.
    """
    if isinstance(line, str):
        try:
            words = shlex.split(line)
        except ValueError as exc:
            raise ParseError(f"unbalanced quoting: {exc}", column=0) from exc
    else:
        words = list(line)
        for word in words:
            if not isinstance(word, str):
                raise ParseError(f"word {word!r} is not a str", column=0)
    body, options = _parse_flags(words)
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


def _render_json(value, newline: str = "\n") -> str:
    """``json.dumps(value, indent=2)`` for dicts keyed by str, lists, str, int,
    True, False and None, each of exactly that type, where a record of
    ``classify.JSON_RECORDS`` stands for its ``to_dict()``; anything else is a
    TypeError.  A list or dict writes its leaves in place, with no call per
    leaf, and a record writes itself."""
    cls = value.__class__
    if cls is str:
        return encode_basestring_ascii(value)
    if cls is int:
        return int.__repr__(value)
    if value is None or value is True or value is False:
        return "null" if value is None else "true" if value else "false"
    inner = newline + "  "
    items = []
    if cls is list:
        for v in value:
            c = v.__class__
            if c is str:
                items.append(encode_basestring_ascii(v))
            elif c is int:
                items.append(int.__repr__(v))
            elif v is None or v is True or v is False:
                items.append("null" if v is None else "true" if v else "false")
            else:
                items.append(_render_json(v, inner))
    elif cls is dict:
        for k, v in value.items():
            c = v.__class__
            if c is str:
                text = encode_basestring_ascii(v)
            elif c is int:
                text = int.__repr__(v)
            elif v is None or v is True or v is False:
                text = "null" if v is None else "true" if v else "false"
            else:
                text = _render_json(v, inner)
            items.append(f"{encode_basestring_ascii(k)}: {text}")
    elif cls in classify_mod.JSON_RECORDS:
        return value._json(newline)
    else:
        raise TypeError(f"Object of type {cls.__name__} is not JSON serializable")
    brackets = "[]" if cls is list else "{}"
    if not items:
        return brackets
    return brackets[0] + inner + ("," + inner).join(items) + newline + brackets[1]


def run(cmd: Command) -> tuple[int, str]:
    """Execute a parsed command; returns (exit status, stdout text)."""
    payload = cmd.variant.run(cmd.options)
    if cmd.options.json:
        return 0, _render_json(payload)
    return 0, _render_text(payload)


def main(argv: list[str] | None = None) -> int:
    args = sys.argv[1:] if argv is None else list(argv)
    try:
        status, out = run(parse(args))
    except EngineError as err:
        print(f"{err.code}: {err}", file=sys.stderr)
        if any(isinstance(a, str) and (a == "--json" or a.startswith("--json=")) for a in args):
            print(json.dumps({"error": err.code, "message": str(err)}))
        return 2 if isinstance(err, (ParseError, SemanticError)) else 1
    if out:
        print(out)
    return status


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
