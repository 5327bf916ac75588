"""Immutable engine values.  A ``Value`` names its fields in ``__slots__`` (a
slot named ``_...``, such as a cache or ``__weakref__``, is not a field) and
has the equality, hash, ``repr``, frozenness and pickling of a frozen dataclass.
Next to ``__slots__`` a class may declare ``_field_classes``, which gives a checked
field the class (or tuple of classes) it must have, the error for any other and
an f-string message that may name any field, and ``_defaults``; from these
``Value.__init_subclass__`` generates with ``exec``, as ``dataclasses`` does, the
class's one ``__init__``, which tests each checked field's ``__class__`` in field
order, sets the slots and calls ``_check`` if the class has one.  A class that
adds no fields inherits its parent's ``__init__``; one of one field that inherits
``Value``'s equality and hash gets a hash of one frame, ``hash((field,))``, the
same value as ``Value.__hash__`` gives."""

from operator import attrgetter


class FrozenInstanceError(AttributeError):
    """A field of a value was assigned or deleted."""


class Value:
    __slots__ = ()

    def __init_subclass__(cls) -> None:
        slots = (n for c in reversed(cls.__mro__) for n in c.__dict__.get("__slots__", ()))
        names = tuple(n for n in slots if n[0] != "_")
        cls._fields = names
        cls._setters = tuple(getattr(cls, name).__set__ for name in names)
        get = attrgetter(*names) if names else lambda value: ()
        cls._key = staticmethod((lambda value: (get(value),)) if len(names) == 1 else get)
        if len(names) == 1 and cls.__eq__ is Value.__eq__ and cls.__hash__ is Value.__hash__:
            # Models are hashed on every transformation of the search.
            def __hash__(self) -> int:
                return hash((get(self),))

            cls.__hash__ = __hash__
        if cls.__dict__.get("__slots__") and "__init__" not in cls.__dict__:
            cls.__init__ = _generated_init(cls)

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


def _generated_init(cls: type) -> object:
    # The source names the slots and the globals ``env`` of the new function,
    # which hold the setters, classes, errors and defaults.
    checked, defaults = getattr(cls, "_field_classes", {}), getattr(cls, "_defaults", {})
    env = {f"_set_{name}": setter for name, setter in zip(cls._fields, cls._setters)}
    params, body = ["self"], []
    for name in cls._fields:
        params.append(f"{name}=_default_{name}" if name in defaults else name)
        if name in defaults:
            env[f"_default_{name}"] = defaults[name]
        if name in checked:
            classes, env[f"_error_{name}"], template = checked[name]
            env[f"_class_{name}"] = classes
            test = "not in" if isinstance(classes, tuple) else "is not"
            body += [f"if {name}.__class__ {test} _class_{name}:",
                     f" raise _error_{name}(f{template!r})"]
    body += [f"_set_{name}(self, {name})" for name in cls._fields]
    if hasattr(cls, "_check"):
        body.append("self._check()")
    exec(f"def __init__({', '.join(params)}):" + "".join(f"\n {line}" for line in body), env)
    init = env["__init__"]
    init.__qualname__ = f"{cls.__qualname__}.__init__"
    return init
