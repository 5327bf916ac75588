"""Immutable engine values.  A ``Value`` names its fields in ``__slots__`` and
has, with no code generated per class, the equality, hash, ``repr``, frozenness
and pickling of a frozen dataclass.  Its ``__init__`` takes the fields by position
or keyword, then runs ``_check``.  The rule for which ``__init__`` a class has: a
value built on every call of an entry (an element, a class, a model, a point, an
``ElmResult``, a ``WalkResult``, a ``NagataPlan``) writes its own, which checks
what it must inline and calls its slot setters, bound once at module level from
``_setters`` (for example ``_set_group, _set_coords = GroupElement._setters``),
so a field costs no lookup.  The group models and the CLI's commands, built once
per model or command line, keep the generic one and check in ``_check`` (``Options``
and ``Nagata``, which have default fields, write their own).
A class of one field that inherits ``Value``'s equality and hash gets a hash of
one frame, ``hash((field,))``, the same value as ``Value.__hash__`` gives."""

from dataclasses import FrozenInstanceError
from operator import attrgetter


class Value:
    __slots__ = ()

    def __init_subclass__(cls) -> None:
        names = tuple(n for c in reversed(cls.__mro__) for n in c.__dict__.get("__slots__", ()))
        cls._fields = names
        cls._setters = tuple(getattr(cls, name).__set__ for name in names)
        get = attrgetter(*names) if names else lambda value: ()
        cls._key = staticmethod((lambda value: (get(value),)) if len(names) == 1 else get)
        if len(names) == 1 and cls.__eq__ is Value.__eq__ and cls.__hash__ is Value.__hash__:
            # Models are hashed on every transformation of the search.
            def __hash__(self) -> int:
                return hash((get(self),))

            cls.__hash__ = __hash__

    def __init__(self, *args, **kwargs) -> None:
        if kwargs:
            args += tuple(kwargs.pop(name) for name in self._fields[len(args):] if name in kwargs)
        if kwargs or len(args) != len(self._fields):
            raise TypeError(f"{self.__class__.__name__} takes the fields {', '.join(self._fields)}")
        for set_field, value in zip(self._setters, args):
            set_field(self, value)
        self._check()

    def _check(self) -> None:
        """Refuse fields that do not make a value of this class."""

    def __eq__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            return self._key(self) == self._key(other)
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._key(self))

    def __repr__(self) -> str:
        body = ", ".join(f"{n}={v!r}" for n, v in zip(self._fields, self._key(self)))
        return f"{self.__class__.__qualname__}({body})"

    def __setattr__(self, name: str, value: object) -> None:
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise FrozenInstanceError(f"cannot delete field {name!r}")

    def __reduce__(self) -> tuple:
        return self.__class__, self._key(self)
