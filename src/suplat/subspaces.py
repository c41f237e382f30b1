"""Closed linear subspaces of C^n in canonical form, with lattice operations.

A subspace is identified by the reduced row echelon basis of any spanning
set, which is unique, so equality and hashing are structural: the one
constructor reduces whatever spanning set it is given.  The basis is held
as a tuple of row tuples, the rows that ``linalg._insert_rows`` returns, so
no subspace builds a matrix.  A join inserts the other's rows into the
reduced rows, which ``_subspace`` wraps without reducing them again.
Meet is routed through orthocomplements (de Morgan) because the
intersection of row spaces has no direct canonical construction, and the
order is read off the join: a <= b iff dim(a v b) = dim b.
"""

from __future__ import annotations

from collections.abc import Sequence
from itertools import compress, count
from math import lcm
from operator import attrgetter

from .frozen import Frozen, setfield
from .linalg import (
    DimensionMismatchError,
    ExactMatrix,
    _insert_rows,
    _matrix,
    _new,
    _triple,
    format_scalar,
)


class Subspace(Frozen):
    """A subspace of C^ambient_dim; ``basis`` is its RREF spanning set, a tuple of row tuples.
    The constructor takes any spanning vectors (possibly none), whose entries may be anything
    ``as_scalar`` accepts, coerced once every length has been checked, and keeps their RREF."""

    __slots__ = ("ambient_dim", "basis")

    def __init__(self, *values, **named) -> None:
        super().__init__(*values, **named)
        n, rows = self.ambient_dim, [tuple(vec) for vec in self.basis]
        for v in rows:
            if len(v) != n:
                raise DimensionMismatchError(f"vector of length {len(v)} in ambient dimension {n}")
        setfield(self, "basis", _insert_rows((), (), ExactMatrix(rows, n).grid)[0])

    @staticmethod
    def zero(ambient_dim: int) -> Subspace:
        return Subspace(ambient_dim, ())

    @staticmethod
    def full(ambient_dim: int) -> Subspace:
        return Subspace(ambient_dim, ExactMatrix.identity(ambient_dim).grid)

    @property
    def dim(self) -> int:
        return len(self.basis)

    def is_zero(self) -> bool:
        return self.dim == 0

    def is_full(self) -> bool:
        return self.dim == self.ambient_dim

    def basis_literals(self) -> list[list[str]]:
        """Basis rows rendered as canonical scalar literals."""
        return _Literals().rows(self.basis)

    def _require_same_ambient(self, other: Subspace) -> None:
        if self.ambient_dim != other.ambient_dim:
            raise DimensionMismatchError(
                f"ambient dimensions differ: {self.ambient_dim} vs {other.ambient_dim}"
            )

    def contains_vector(self, vector) -> bool:
        """True iff the vector lies in the subspace (the zero vector does): its ray adds no dimension."""
        return self.join(Subspace(self.ambient_dim, [vector])).dim == self.dim

    def is_subspace_of(self, other: Subspace) -> bool:
        return self.join(other).dim == other.dim

    def join(self, other: Subspace) -> Subspace:
        """Smallest subspace containing both: other's rows inserted into self's reduced rows."""
        self._require_same_ambient(other)
        pivots = tuple(next(compress(count(), row)) for row in self.basis)
        return _subspace(self.ambient_dim, _insert_rows(self.basis, pivots, other.basis)[0])

    def orthocomplement(self) -> Subspace:
        """All vectors Hermitian-orthogonal to the subspace.

        v is in the complement iff conj(b) . v = 0 for every basis row b,
        so the complement is the null space of the conjugated basis, the one
        place a subspace's rows become a matrix.
        """
        kernel = _matrix(self.ambient_dim, self.basis).conjugate().null_space()
        return Subspace(self.ambient_dim, kernel.grid)

    def meet(self, other: Subspace) -> Subspace:
        """Intersection, computed as the complement of the join of complements."""
        self._require_same_ambient(other)
        return self.orthocomplement().join(other.orthocomplement()).orthocomplement()

    def __str__(self) -> str:
        return _Literals().text(self.basis)


def _subspace(ambient_dim: int, basis: tuple[tuple, ...]) -> Subspace:
    """The subspace with this basis, reduced rows ``_insert_rows`` returned: no check, no copy."""
    s = _new(Subspace)
    setfield(s, "ambient_dim", ambient_dim)
    setfield(s, "basis", basis)
    return s


class _Literals(dict):
    """Canonical literals by triple ``(a, b, d)``, each rendered on its first lookup, and
    the basis renderers that read them.  ``text`` renders a row object once per table, keyed
    by ``id``: a table lives for one call, in which every row it renders stays alive."""

    def __init__(self) -> None:
        super().__init__()
        self.row_texts: dict[int, str] = {}

    def __missing__(self, key: tuple[int, int, int]) -> str:
        text = self[key] = format_scalar(_triple(*key))
        return text

    def rows(self, rows) -> list[list[str]]:
        return [list(map(self.__getitem__, map(attrgetter("_a", "_b", "_d"), r))) for r in rows]

    def row_text(self, row) -> str:
        text = self.row_texts.get(id(row))
        if text is None:
            literals = map(self.__getitem__, map(attrgetter("_a", "_b", "_d"), row))
            text = self.row_texts[id(row)] = "(" + ", ".join(literals) + ")"
        return text

    def text(self, rows) -> str:
        return "span{" + ", ".join(map(self.row_text, rows)) + "}" if rows else "{0}"


def _sort_order(bases: Sequence[tuple[tuple, ...]]) -> list[int]:
    """Indices that sort reduced bases of one ambient dimension (subspaces' ``basis``) by
    dimension, then by entries row by row, each by its real and then its imaginary part; ties
    keep input order.  The key is the dimension, then one key per row object, made once and
    kept by ``id``: ``1, -j, re, im`` for each nonzero entry at column j with ``(re, im) > (0,
    0)`` and ``-1, j, re, im`` for the others (parts scaled to ints by the lcm of the set's
    denominators), then ``0``: in the first row where two bases differ, the first column where
    they differ decides by the sign there, and a row key's end sits between the signs, as a
    missing entry is 0.
    """
    rows = {id(r): r for basis in bases for r in basis}
    common = lcm(*{e._d for r in rows.values() for e in r})
    row_keys = {}
    for x, r in rows.items():
        key = row_keys[x] = []
        for j, e in enumerate(r):
            if e._a or e._b:
                a, b = e._a * common // e._d, e._b * common // e._d
                key += (1, -j, a, b) if a > 0 or a == 0 and b > 0 else (-1, j, a, b)
        key.append(0)
    keys = [[len(basis), *map(row_keys.__getitem__, map(id, basis))] for basis in bases]
    return sorted(range(len(keys)), key=keys.__getitem__)
