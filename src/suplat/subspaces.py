"""Closed linear subspaces of C^n in canonical form, with lattice operations.

A subspace is identified by the reduced row echelon basis of any spanning
set, which is unique, so equality and hashing are structural.  Meet is
routed through orthocomplements (de Morgan) because the intersection of
row spaces has no direct canonical construction; join and complement are
single echelon reductions.
"""

from __future__ import annotations

from dataclasses import dataclass

from .linalg import (
    DimensionMismatchError,
    ExactMatrix,
    GaussianRational,
    as_scalar,
    format_scalar,
)


@dataclass(frozen=True)
class Subspace:
    """A subspace of C^ambient_dim; ``basis`` rows are an RREF spanning set."""

    ambient_dim: int
    basis: ExactMatrix

    @staticmethod
    def span_of(vectors, ambient_dim: int) -> Subspace:
        """Canonical subspace spanned by the given vectors (possibly none)."""
        flat: list[GaussianRational] = []
        count = 0
        for vec in vectors:
            v = [as_scalar(x) for x in vec]
            if len(v) != ambient_dim:
                raise DimensionMismatchError(
                    f"vector of length {len(v)} in ambient dimension {ambient_dim}"
                )
            flat.extend(v)
            count += 1
        reduced, _, rank = ExactMatrix(count, ambient_dim, flat).rref()
        return Subspace(ambient_dim, ExactMatrix(rank, ambient_dim, reduced.entries[: rank * ambient_dim]))

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
        return [[format_scalar(e) for e in row] for row in self.basis.row_list()]

    def _require_same_ambient(self, other: Subspace) -> None:
        if self.ambient_dim != other.ambient_dim:
            raise DimensionMismatchError(
                f"ambient dimensions differ: {self.ambient_dim} vs {other.ambient_dim}"
            )

    def contains_vector(self, vector) -> bool:
        """True iff the vector lies in the subspace (zero vector always does)."""
        v = [as_scalar(x) for x in vector]
        if len(v) != self.ambient_dim:
            raise DimensionMismatchError(
                f"vector of length {len(v)} in ambient dimension {self.ambient_dim}"
            )
        # Reduce against the RREF basis; anything left over is outside.
        for i in range(self.dim):
            row = self.basis.row(i)
            pivot = next(j for j, e in enumerate(row) if e)
            c = v[pivot]
            if c:
                for j in range(pivot, self.ambient_dim):
                    v[j] = v[j] - c * row[j]
        return not any(v)

    def is_subspace_of(self, other: Subspace) -> bool:
        self._require_same_ambient(other)
        return all(other.contains_vector(row) for row in self.basis.row_list())

    def join(self, other: Subspace) -> Subspace:
        """Smallest subspace containing both (closed span of the union)."""
        self._require_same_ambient(other)
        stacked = self.basis.vstack(other.basis)
        reduced, _, rank = stacked.rref()
        return Subspace(
            self.ambient_dim, ExactMatrix(rank, self.ambient_dim, reduced.entries[: rank * self.ambient_dim])
        )

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

    def sort_key(self):
        """Deterministic ordering: dimension first, then basis entries."""
        return (
            self.dim,
            tuple(e.sort_key() for e in self.basis.entries),
        )

    def __str__(self) -> str:
        if self.dim == 0:
            return "{0}"
        rows = ", ".join(
            "(" + ", ".join(format_scalar(e) for e in row) + ")" for row in self.basis.row_list()
        )
        return "span{" + rows + "}"
