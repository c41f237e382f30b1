"""Immutable value types without ``dataclasses``.

``dataclasses`` imports ``inspect``, ``ast`` and ``dis``, and
``@dataclass(frozen=True)`` ``exec``s generated code for each class: the
largest share of the import time of ``suplat.cli``, which every command
line call pays.  Each value type of the package derives from
:class:`Frozen`, lists its fields in ``__slots__`` in constructor order
(plus ``"__dict__"`` when it has a ``cached_property``), and sets them in
its own ``__init__`` through :data:`setfield`.
"""

from __future__ import annotations

setfield = object.__setattr__


class Frozen:
    """Fields that cannot be assigned or deleted once set, and the methods
    ``@dataclass(frozen=True)`` generated: equality and hash by the field
    values, a field-by-field repr, and pickling and copying through the
    constructor.  A type compared often defines ``__eq__`` and ``__hash__``
    on its fields directly, and one compared by identity sets them to
    ``object``'s.
    """

    __slots__ = ()

    def _items(self) -> list[tuple[str, object]]:
        return [(name, getattr(self, name)) for name in self.__slots__ if name != "__dict__"]

    def _values(self) -> tuple:
        return tuple(value for _, value in self._items())

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        return f"{type(self).__qualname__}({', '.join(f'{name}={value!r}' for name, value in self._items())})"

    def __reduce__(self) -> tuple:
        return type(self), self._values()
