"""Validated orthogonal projectors and their range/kernel geometry."""

from __future__ import annotations

from itertools import product

from .frozen import Frozen
from .linalg import _ZERO, ExactMatrix, GaussianRational, _dot, _insert_rows, _is_hermitian, _reduced
from .subspaces import Subspace


class ProjectorError(ValueError):
    """A matrix failed one of the projector laws."""


class NotSquareError(ProjectorError):
    pass


class NotHermitianError(ProjectorError):
    pass


class NotIdempotentError(ProjectorError):
    pass


class Projector(Frozen):
    """A Hermitian idempotent matrix together with its name and range.

    Instances are produced by :func:`validate_projector`, the only place
    the defining laws are checked, and by :func:`projector_onto`, whose
    matrices satisfy them by construction.  ``range`` is the canonical
    column space, computed once.
    """

    __slots__ = ("name", "matrix", "range")

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
    dimension is the rank.  Every column of P lies in the range, so
    ``P*P = P`` iff P fixes each range basis row ``b_k``.  ``P b_k`` lies
    in the range too, where a vector is fixed by its entries at the pivot
    columns ``c_i``: so P fixes ``b_k`` iff ``(row c_i of P) . b_k`` is 1
    for i = k and 0 otherwise, r^2 dot products summed as ints.

    Raises:
        NotSquareError, NotHermitianError, NotIdempotentError: naming the
        offending projector and the violated law.
    """
    n, e = matrix.rows, matrix.entries
    if matrix.cols != n:
        raise NotSquareError(f"projector {name!r}: matrix is {matrix.rows}x{matrix.cols}, not square")
    if not _is_hermitian(e, n):
        raise NotHermitianError(f"projector {name!r}: matrix is not equal to its adjoint")
    image, pivots = _insert_rows(ExactMatrix(0, n, ()), (), [e[j::n] for j in range(n)])  # the columns
    basis = image.row_list()
    dots = ((i == k, _dot(e[c * n : c * n + n], b)) for i, c in enumerate(pivots) for k, b in enumerate(basis))
    if any(im or a != d * one for one, (a, im, d) in dots):
        raise NotIdempotentError(f"projector {name!r}: matrix squared differs from the matrix")
    return Projector(name, matrix, Subspace(n, image))


def range_of(p: Projector) -> Subspace:
    """Column space of the projector matrix, as computed by validation."""
    return p.range


def kernel_of(p: Projector) -> Subspace:
    """Null space of the projector matrix: P is Hermitian, so it is the range's orthocomplement."""
    return p.range.orthocomplement()


def projector_onto(s: Subspace, name: str = "P") -> Projector:
    """The unique orthogonal projector with the given range.

    Exact Gram-Schmidt turns the basis rows b_k into orthogonal rows
    ``u_k = b_k - sum_{j<k} (<u_j, b_k> / <u_j, u_j>) u_j``, and the
    matrix is ``sum_k u_k u_k* / <u_k, u_k>``, the sum of the rank-1
    projectors onto them.  With no basis rows it is the zero matrix.
    """
    n = s.ambient_dim
    entries = [_ZERO] * (n * n)
    done: list[tuple[list[GaussianRational], GaussianRational]] = []
    for b in s.basis_vectors():
        u = list(b)
        for w, norm in done:
            c = _inner(w, b) / norm
            u = [x - c * y for x, y in zip(u, w)]
        norm = _inner(u, u)
        done.append((u, norm))
        scaled = [x / norm if x else x for x in u]
        entries = [e + x * y.conjugate() if x and y else e for e, (x, y) in zip(entries, product(scaled, u))]
    return Projector(name, ExactMatrix(n, n, entries), s)


def _inner(u, v) -> GaussianRational:
    """The Hermitian inner product <u, v> = sum conj(u_i) v_i."""
    return _reduced(*_dot(u, v, -1))
