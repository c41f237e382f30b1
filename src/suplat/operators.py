"""Validated orthogonal projectors and their range/kernel geometry."""

from __future__ import annotations

from dataclasses import dataclass

from .linalg import DimensionMismatchError, ExactMatrix
from .subspaces import Subspace


class ProjectorError(ValueError):
    """A matrix failed one of the projector laws."""


class NotSquareError(ProjectorError):
    pass


class NotHermitianError(ProjectorError):
    pass


class NotIdempotentError(ProjectorError):
    pass


@dataclass(frozen=True)
class Projector:
    """A Hermitian idempotent matrix together with its name and range.

    Instances are produced by :func:`validate_projector`, the only place
    the defining laws are checked, and by :func:`projector_onto`, whose
    matrices satisfy them by construction.  ``range`` is the canonical
    column space, computed once.
    """

    name: str
    matrix: ExactMatrix
    range: Subspace

    @property
    def rank(self) -> int:
        return self.range.dim

    @property
    def dimension(self) -> int:
        return self.matrix.rows

    def is_trivial(self) -> bool:
        """Rank 0 (zero operator) or full rank (identity)."""
        return self.rank == 0 or self.rank == self.dimension


def validate_projector(matrix: ExactMatrix, name: str = "P") -> Projector:
    """Check square, Hermitian and idempotent; compute the range once.

    The range comes from one echelon reduction of the columns, and its
    dimension is the rank.  Idempotence is checked as ``P b = b`` for
    each range basis vector ``b`` rather than as ``P*P = P``: every
    column ``P e_j`` lies in the range, so P fixing the range is exactly
    ``P(P e_j) = P e_j`` for all j.  That costs r matrix-vector products
    instead of one matrix product.

    Raises:
        NotSquareError, NotHermitianError, NotIdempotentError: naming the
        offending projector and the violated law.
    """
    if not matrix.is_square():
        raise NotSquareError(f"projector {name!r}: matrix is {matrix.rows}x{matrix.cols}, not square")
    n, e = matrix.rows, matrix.entries
    if any(e[i * n + j] != e[j * n + i].conjugate() for i in range(n) for j in range(i, n)):
        raise NotHermitianError(f"projector {name!r}: matrix is not equal to its adjoint")
    image = Subspace.span_of((matrix.column(j) for j in range(n)), n)
    if any(matrix.apply(b) != b for b in image.basis_vectors()):
        raise NotIdempotentError(f"projector {name!r}: matrix squared differs from the matrix")
    return Projector(name, matrix, image)


def range_of(p: Projector) -> Subspace:
    """Column space of the projector matrix, as computed by validation."""
    return p.range


def kernel_of(p: Projector) -> Subspace:
    """Null space of the projector matrix; equals the range's orthocomplement."""
    return Subspace.span_of(p.matrix.null_space().row_list(), p.dimension)


def projector_onto(s: Subspace, name: str = "P") -> Projector:
    """The unique orthogonal projector with the given range.

    With the basis rows gathered as columns A, the matrix is
    A (A* A)^-1 A*; the Gram matrix is invertible because basis rows are
    independent.
    """
    n = s.ambient_dim
    if s.dim == 0:
        return Projector(name, ExactMatrix.zeros(n, n), s)
    a = s.basis.transpose()
    gram = a.adjoint() * a
    matrix = a * gram.inverse() * a.adjoint()
    return Projector(name, matrix, s)


def commutes(p: Projector, q: Projector) -> bool:
    if p.dimension != q.dimension:
        raise DimensionMismatchError(
            f"projectors act on different spaces: {p.dimension} vs {q.dimension}"
        )
    return p.matrix * q.matrix == q.matrix * p.matrix


def is_invariant(s: Subspace, p: Projector) -> bool:
    """True iff the projector maps the subspace into itself."""
    if s.ambient_dim != p.dimension:
        raise DimensionMismatchError(
            f"subspace of C^{s.ambient_dim} under a projector on C^{p.dimension}"
        )
    return all(s.contains_vector(p.matrix.apply(row)) for row in s.basis.row_list())
