"""Immutable value types without ``dataclasses``.

``dataclasses`` imports ``inspect``, ``ast`` and ``dis``, and
``@dataclass(frozen=True)`` ``exec``s generated code for each class: the
largest share of the import time of ``suplat.cli``, which every command
line call pays.  Each value type of the package derives from
:class:`Frozen` and lists its fields in ``__slots__`` in constructor order
(plus ``"__dict__"`` when it has a ``cached_property``).
"""

from __future__ import annotations

from operator import attrgetter

setfield = object.__setattr__


class Frozen:
    """Fields that cannot be assigned or deleted once set, and the methods
    ``@dataclass(frozen=True)`` generated, all read from ``__slots__``: a
    constructor taking the fields by position or by name, equality and hash
    by the field values, a field-by-field repr, and pickling and copying
    through the constructor.  A type compared by identity sets ``__eq__``
    and ``__hash__`` to ``object``'s.
    """

    __slots__ = ()

    def __init_subclass__(cls) -> None:
        cls._fields = tuple(name for name in cls.__slots__ if name != "__dict__")
        # An attrgetter is not a descriptor, so it is called as self._get(self).
        # With one field it returns the value itself rather than a 1-tuple.
        cls._get = attrgetter(*cls._fields)

    def __init__(self, *values, **named) -> None:
        fields = self._fields
        if named:
            # Names fill the fields after the positional values, in field order; a
            # name left over is unknown or repeats a field given by position.
            values = (*values, *(named.pop(name) for name in fields[len(values):] if name in named))
        if named or len(values) != len(fields):
            raise TypeError(
                f"{type(self).__qualname__} takes the fields {', '.join(fields)} once each, by position or by name"
            )
        for name, value in zip(fields, values):
            setfield(self, name, value)

    def _values(self) -> tuple:
        values = self._get(self)
        return values if len(self._fields) > 1 else (values,)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            return self._get(self) == other._get(other)
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._get(self))

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={value!r}" for name, value in zip(self._fields, self._values()))
        return f"{type(self).__qualname__}({fields})"

    def __reduce__(self) -> tuple:
        return type(self), self._values()
