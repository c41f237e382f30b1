"""Seeded random generators and oracles shared by the unit and acceptance tests."""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import product

from suplat.contexts import IncompleteSumError, NotOrthogonalError, Structure
from suplat.linalg import ExactMatrix, GaussianRational
from suplat.operators import NotHermitianError, NotIdempotentError, range_of
from suplat.subspaces import Subspace


def random_fraction(rng: random.Random, span: int = 4) -> Fraction:
    return Fraction(rng.randint(-span, span), rng.randint(1, span))


def random_scalar(rng: random.Random, span: int = 4, complex_parts: bool = True) -> GaussianRational:
    imag = random_fraction(rng, span) if complex_parts else Fraction(0)
    return GaussianRational(random_fraction(rng, span), imag)


def random_nonzero_scalar(rng: random.Random, span: int = 4) -> GaussianRational:
    while True:
        z = random_scalar(rng, span)
        if z:
            return z


def random_matrix(rng: random.Random, rows: int, cols: int, span: int = 3) -> ExactMatrix:
    return ExactMatrix(rows, cols, [random_scalar(rng, span) for _ in range(rows * cols)])


def random_invertible(rng: random.Random, n: int, span: int = 3) -> ExactMatrix:
    while True:
        m = random_matrix(rng, n, n, span)
        if m.rank() == n:
            return m


def random_subspace(rng: random.Random, ambient: int, span: int = 2) -> Subspace:
    k = rng.randint(0, ambient)
    vectors = [[random_scalar(rng, span) for _ in range(ambient)] for _ in range(k)]
    return Subspace.span_of(vectors, ambient)


def random_state(rng: random.Random, ambient: int, span: int = 4) -> tuple:
    while True:
        v = tuple(random_fraction(rng, span) for _ in range(ambient))
        if any(v):
            return v


def brute_force_coloring_count(structure: Structure) -> int:
    """Independent coloring oracle: try every choice tuple, keep consistent ones.

    Deliberately has nothing in common with the search implementation
    beyond the atom-range subspaces themselves.
    """
    range_lists = [[range_of(a) for a in ctx.atoms] for ctx in structure.contexts]
    count = 0
    for choice in product(*[range(len(rs)) for rs in range_lists]):
        values = {}
        consistent = True
        for ranges, chosen in zip(range_lists, choice):
            for i, r in enumerate(ranges):
                want = 1 if i == chosen else 0
                if values.setdefault(r, want) != want:
                    consistent = False
                    break
            if not consistent:
                break
        if consistent:
            count += 1
    return count


def reference_projector_law(m: ExactMatrix):
    """Projector-law oracle written straight from the definition.

    Returns the exception class :func:`validate_projector` should raise
    for a square matrix, or None for a projector.
    """
    if m.adjoint() != m:
        return NotHermitianError
    if m * m != m:
        return NotIdempotentError
    return None


def reference_context_error(name: str, atoms):
    """Orthogonality-then-completeness oracle for a family of nontrivial,
    uniquely named projectors on one space.

    Returns the (exception class, message) :func:`validate_context` should
    raise, or None: every pairwise product first, then the sum.
    """
    for i in range(len(atoms)):
        for j in range(i + 1, len(atoms)):
            if not (atoms[i].matrix * atoms[j].matrix).is_zero():
                return NotOrthogonalError, (
                    f"context {name!r}: atoms {atoms[i].name!r} and {atoms[j].name!r}"
                    " are not orthogonal"
                )
    total = atoms[0].matrix
    for p in atoms[1:]:
        total = total + p.matrix
    if total != ExactMatrix.identity(atoms[0].dimension):
        return IncompleteSumError, f"context {name!r}: atoms do not sum to the identity"
    return None
