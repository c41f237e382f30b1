"""Validated orthogonal projectors and their range/kernel geometry."""

from __future__ import annotations

from .frozen import Frozen
from .linalg import _ZERO, ExactMatrix, GaussianRational, _dot, _insert_rows, _reduced
from .subspaces import Subspace, _subspace


class ProjectorError(ValueError):
    """A matrix failed one of the projector laws."""


class NotSquareError(ProjectorError):
    pass


class NotHermitianError(ProjectorError):
    pass


class NotIdempotentError(ProjectorError):
    pass


class Projector(Frozen):
    """A named orthogonal projector, stored as its range.

    Every subspace has exactly one orthogonal projector, so any name and
    range make a valid projector.  :func:`validate_projector` checks a
    given matrix against the defining laws and keeps its range.
    """

    __slots__ = ("name", "range")

    @property
    def rank(self) -> int:
        return self.range.dim

    @property
    def dimension(self) -> int:
        return self.range.ambient_dim

    def is_trivial(self) -> bool:
        """Rank 0 (zero operator) or full rank (identity)."""
        return self.rank == 0 or self.rank == self.dimension

    @property
    def matrix(self) -> ExactMatrix:
        """The projector onto the range, derived on each read.

        Exact Gram-Schmidt turns the basis rows b_k into orthogonal rows
        ``u_k = b_k - sum_{j<k} (<u_j, b_k> / <u_j, u_j>) u_j``, and the
        matrix is ``sum_k u_k u_k* / <u_k, u_k>``, the sum of the rank-1
        projectors onto them.  With no basis rows it is the zero matrix.
        """
        n = self.range.ambient_dim
        grid = [(_ZERO,) * n] * n
        done: list[tuple[list[GaussianRational], GaussianRational]] = []
        for b in self.range.basis:
            u = list(b)
            for w, norm in done:
                c = _inner(w, b) / norm
                u = [x - c * y for x, y in zip(u, w)]
            norm = _inner(u, u)
            done.append((u, norm))
            scaled = [x / norm if x else x for x in u]
            grid = [tuple(e + x * y.conjugate() if x and y else e for e, y in zip(r, u)) for r, x in zip(grid, scaled)]
        return ExactMatrix(grid, n)


def validate_projector(matrix: ExactMatrix, name: str = "P") -> Projector:
    """Check square, Hermitian and idempotent; compute the range once.

    Each law is a loop that stops at the first failing entry.  P is
    Hermitian iff entry (i, j), j >= i, is entry (j, i)'s triple (a, b, d)
    with b negated.  One echelon reduction of the columns gives the range,
    which they span: so ``P*P = P`` iff P fixes each basis row ``b_k``.
    ``P b_k`` lies in the range, where a vector is fixed by its entries at
    the pivot columns ``c_i``: P fixes ``b_k`` iff ``(row c_i of P) . b_k``
    is 1 for i = k and 0 otherwise, r^2 dot products summed as ints.

    Raises:
        NotSquareError, NotHermitianError, NotIdempotentError: naming the
        offending projector and the violated law.
    """
    n, rows = matrix.rows, matrix.grid
    if matrix.cols != n:
        raise NotSquareError(f"projector {name!r}: matrix is {matrix.rows}x{matrix.cols}, not square")
    for i, r in enumerate(rows):
        for j in range(i, n):
            x, y = r[j], rows[j][i]
            if x._a != y._a or x._b != -y._b or x._d != y._d:
                raise NotHermitianError(f"projector {name!r}: matrix is not equal to its adjoint")
    basis, pivots = _insert_rows((), (), list(zip(*rows)))  # the columns
    for i, c in enumerate(pivots):
        for k, b in enumerate(basis):
            a, im, d = _dot(rows[c], b)
            if im or a != (d if i == k else 0):
                raise NotIdempotentError(f"projector {name!r}: matrix squared differs from the matrix")
    return Projector(name, _subspace(n, basis))


def range_of(p: Projector) -> Subspace:
    """Column space of the projector matrix, as computed by validation."""
    return p.range


def kernel_of(p: Projector) -> Subspace:
    """Null space of the projector matrix: P is Hermitian, so it is the range's orthocomplement."""
    return p.range.orthocomplement()


def _inner(u, v) -> GaussianRational:
    """The Hermitian inner product <u, v> = sum conj(u_i) v_i."""
    return _reduced(*_dot(u, v, -1))
