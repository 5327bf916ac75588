"""Exception hierarchy shared by every engine module.

Each error carries a stable ``code`` string, its class name, so front ends
(notably the JSON output mode of the CLI) can report machine-readable
failures without string matching on messages.  Renaming a class changes
its code.
"""


class EngineError(Exception):
    """Base class for all errors raised by the engine."""

    code = "EngineError"

    def __init_subclass__(cls, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        cls.code = cls.__name__


class MixedGroups(EngineError):
    """Two elements (or classes) from different group models were combined."""


class GroupTooLarge(EngineError):
    """Enumeration was requested on a group above the configured cap."""


class UnsupportedSecancy(EngineError):
    """No closed form exists for this secancy on an indecomposable surface."""


class InvalidSecancy(EngineError):
    """The operation is only defined for a different fiber coefficient."""


class NotBasePointFree(EngineError):
    """Scroll classification requested for a system with base points."""


class InvalidPointSpec(EngineError):
    """A point descriptor does not match the surface family it was used on."""


class InvalidSurface(EngineError):
    """A value given as a ruled surface is not one of the three families."""


class InvalidArgument(EngineError, ValueError):
    """A library argument is outside the range the operation is defined on."""


class NonNormalizedInput(EngineError):
    """A decomposable surface was given an invariant class of positive degree."""


class DegenerateModel(EngineError):
    """The finite group model lacks the torsion needed for this computation."""


class UnreachableTarget(EngineError):
    """A construction plan was requested for an unreachable target."""


class SemanticError(EngineError):
    """A parsed command is well-formed but inconsistent (family mismatch...)."""


class ParseError(EngineError):
    """Command text could not be parsed.

    Carries the offset (column, 0-based) where parsing failed and the set of
    token kinds that would have been accepted there.
    """

    def __init__(self, message, column=None, expected=()):
        super().__init__(message)
        self.column = column
        self.expected = tuple(sorted(expected))
