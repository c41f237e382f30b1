"""Closed linear subspaces of C^n in canonical form, with lattice operations.

A subspace is identified by the reduced row echelon basis of any spanning
set, which is unique, so equality and hashing are structural.  A join
inserts the other's rows into the reduced rows (``linalg._insert_rows``).
Meet is routed through orthocomplements (de Morgan) because the
intersection of row spaces has no direct canonical construction, and the
order is read off the join: a <= b iff dim(a v b) = dim b.
"""

from __future__ import annotations

from collections.abc import Sequence
from itertools import compress, count
from math import lcm
from operator import attrgetter

from .frozen import Frozen
from .linalg import (
    DimensionMismatchError,
    ExactMatrix,
    GaussianRational,
    _insert_rows,
    _triple,
    format_scalar,
)


class Subspace(Frozen):
    """A subspace of C^ambient_dim; ``basis`` rows are an RREF spanning set."""

    __slots__ = ("ambient_dim", "basis")

    @staticmethod
    def span_of(vectors, ambient_dim: int) -> Subspace:
        """Canonical subspace spanned by the given vectors (possibly none); entries may
        be anything ``as_scalar`` accepts, coerced once every length has been checked."""
        rows = [tuple(vec) for vec in vectors]
        for v in rows:
            if len(v) != ambient_dim:
                raise DimensionMismatchError(
                    f"vector of length {len(v)} in ambient dimension {ambient_dim}"
                )
        coerced = ExactMatrix(len(rows), ambient_dim, [x for v in rows for x in v]).row_list()
        return Subspace(ambient_dim, _insert_rows(ExactMatrix(0, ambient_dim, ()), (), coerced)[0])

    @staticmethod
    def zero(ambient_dim: int) -> Subspace:
        return Subspace(ambient_dim, ExactMatrix(0, ambient_dim, ()))

    @staticmethod
    def full(ambient_dim: int) -> Subspace:
        return Subspace(ambient_dim, ExactMatrix.identity(ambient_dim))

    @property
    def dim(self) -> int:
        return self.basis.rows

    def is_zero(self) -> bool:
        return self.dim == 0

    def is_full(self) -> bool:
        return self.dim == self.ambient_dim

    def basis_vectors(self) -> list[tuple[GaussianRational, ...]]:
        return self.basis.row_list()

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
        return self.join(Subspace.span_of([vector], self.ambient_dim)).dim == self.dim

    def is_subspace_of(self, other: Subspace) -> bool:
        return self.join(other).dim == other.dim

    def join(self, other: Subspace) -> Subspace:
        """Smallest subspace containing both: other's rows inserted into self's reduced rows."""
        self._require_same_ambient(other)
        pivots = tuple(next(compress(count(), row)) for row in self.basis_vectors())
        return Subspace(self.ambient_dim, _insert_rows(self.basis, pivots, other.basis_vectors())[0])

    def orthocomplement(self) -> Subspace:
        """All vectors Hermitian-orthogonal to the subspace.

        v is in the complement iff conj(b) . v = 0 for every basis row b,
        so the complement is the null space of the conjugated basis.
        """
        kernel = self.basis.conjugate().null_space()
        return Subspace.span_of(kernel.row_list(), self.ambient_dim)

    def meet(self, other: Subspace) -> Subspace:
        """Intersection, computed as the complement of the join of complements."""
        self._require_same_ambient(other)
        return self.orthocomplement().join(other.orthocomplement()).orthocomplement()

    def __str__(self) -> str:
        return _Literals().text(self.basis)


class _Literals(dict):
    """Canonical literals by triple ``(a, b, d)``, each rendered on its first lookup, and
    the basis renderers that read them: one table renders each distinct entry once."""

    def __missing__(self, key: tuple[int, int, int]) -> str:
        text = self[key] = format_scalar(_triple(*key))
        return text

    def rows(self, basis: ExactMatrix) -> list[list[str]]:
        n, keys = basis.cols, list(map(attrgetter("_a", "_b", "_d"), basis.entries))
        return [list(map(self.__getitem__, keys[k : k + n])) for k in range(0, len(keys), n)]

    def text(self, basis: ExactMatrix) -> str:
        rows = ", ".join("(" + ", ".join(row) + ")" for row in self.rows(basis))
        return "span{" + rows + "}" if rows else "{0}"


def _sort_order(subspaces: Sequence[Subspace]) -> list[int]:
    """Indices that sort subspaces of one ambient dimension by dimension, then by basis
    entries row by row, each by its real and then its imaginary part; ties keep input order.
    The key is the dimension, then ``1, -x, re, im`` for each nonzero entry at flat index x
    with ``(re, im) > (0, 0)`` and ``-1, x, re, im`` for the others (parts scaled to ints by
    the lcm of the set's denominators), then ``0``: the first index where two bases differ
    decides by the sign there, and a key's end sits between the signs, as a missing entry is 0.
    """
    common = lcm(*{e._d for s in subspaces for e in s.basis.entries})
    keys = []
    for s in subspaces:
        key = [s.dim]
        for x, e in enumerate(s.basis.entries):
            if e._a or e._b:
                a, b = e._a * common // e._d, e._b * common // e._d
                key += (1, -x, a, b) if a > 0 or a == 0 and b > 0 else (-1, x, a, b)
        keys.append(key + [0])
    return sorted(range(len(keys)), key=keys.__getitem__)
