"""The projector and context law checks against oracles written from the definitions.

validate_projector checks idempotence on a range basis and
validate_context checks the atom sum before any pairwise product; the
oracles in helpers check ``P*P = P``, then every product, then the sum.
"""

from __future__ import annotations

import random

import pytest

from suplat.contexts import ContextError, IncompleteSumError, NotOrthogonalError, validate_context
from suplat.linalg import ExactMatrix, GaussianRational
from suplat.operators import projector_onto, range_of, validate_projector
from suplat.subspaces import Subspace

from helpers import (
    gram_schmidt,
    random_invertible,
    random_matrix,
    random_nonzero_scalar,
    random_subspace,
    reference_context_error,
    reference_projector_law,
)


def _hermitian(rng: random.Random, n: int) -> ExactMatrix:
    m = random_matrix(rng, n, n, span=2)
    return m + m.adjoint()


def _oblique_idempotent(rng: random.Random, n: int) -> ExactMatrix:
    """S D S^-1 with D a 0/1 diagonal: idempotent, rarely Hermitian."""
    s = random_invertible(rng, n, span=2)
    d = ExactMatrix(n, n, [rng.randint(0, 1) if i == j else 0 for i in range(n) for j in range(n)])
    return s * d * s.inverse()


def _candidate_matrix(rng: random.Random, n: int) -> ExactMatrix:
    p = projector_onto(random_subspace(rng, n)).matrix
    kind = rng.randrange(6)
    if kind == 0:
        return p
    if kind == 1:  # scaled: a projector only for the factors 0 and 1
        return rng.choice([GaussianRational(1), GaussianRational(-1), GaussianRational(2),
                           GaussianRational(0, 1), random_nonzero_scalar(rng)]) * p
    if kind == 2:  # Hermitian perturbation of a projector
        return p + _hermitian(rng, n)
    if kind == 3:
        return _hermitian(rng, n)
    if kind == 4:
        return _oblique_idempotent(rng, n)
    return random_matrix(rng, n, n, span=2)


def test_validate_projector_matches_definition():
    rng = random.Random(20180905)
    outcomes = set()
    for _ in range(150):
        m = _candidate_matrix(rng, rng.randint(1, 4))
        expected = reference_projector_law(m)
        outcomes.add(expected)
        if expected is not None:
            with pytest.raises(expected):
                validate_projector(m)
            continue
        p = validate_projector(m)
        assert p.rank == m.rank()
        columns = [m.column(j) for j in range(m.cols)]
        assert range_of(p) == Subspace.span_of(columns, m.rows)
    assert len(outcomes) == 3  # accepted, not Hermitian, not idempotent all occur


def _partition_atoms(rng: random.Random, n: int, prefix: str) -> list:
    """Projectors onto the blocks of a random partition (2+ blocks) of an orthogonal basis."""
    vectors = gram_schmidt(random_invertible(rng, n, span=2).row_list())
    rng.shuffle(vectors)
    cuts = sorted(rng.sample(range(1, n), rng.randint(1, n - 1)))
    blocks = [vectors[a:b] for a, b in zip([0] + cuts, cuts + [n])]
    return [
        validate_projector(projector_onto(Subspace.span_of(block, n)).matrix, name=f"{prefix}{i}")
        for i, block in enumerate(blocks)
    ]


def _family(rng: random.Random, n: int) -> list:
    atoms = _partition_atoms(rng, n, "a")
    kind = rng.randrange(4)
    if kind == 0:  # complete and orthogonal
        return atoms
    if kind == 1 and len(atoms) >= 3:  # orthogonal, one block missing
        atoms.pop(rng.randrange(len(atoms)))
        return atoms
    others = _partition_atoms(rng, n, "b")
    if kind == 2:  # one block swapped for a block of another basis
        atoms[rng.randrange(len(atoms))] = rng.choice(others)
        return atoms
    mixed = atoms + others  # blocks of two bases, shuffled and thinned
    rng.shuffle(mixed)
    return mixed[: rng.randint(2, len(mixed))]


def test_validate_context_matches_definition():
    rng = random.Random(1809)
    outcomes = set()
    for case in range(80):
        atoms = _family(rng, rng.randint(2, 4))
        name = f"C{case}"
        expected = reference_context_error(name, atoms)
        outcomes.add(expected and expected[0])
        if expected is None:
            assert validate_context(name, atoms).atoms == tuple(atoms)
            continue
        with pytest.raises(ContextError) as err:
            validate_context(name, atoms)
        assert (type(err.value), str(err.value)) == expected
    assert outcomes == {None, NotOrthogonalError, IncompleteSumError}


def test_non_orthogonal_incomplete_family_reports_first_pair():
    atoms = [
        validate_projector(projector_onto(Subspace.span_of([[1, 0, 0]], 3)).matrix, name="x"),
        validate_projector(projector_onto(Subspace.span_of([[0, 1, 0]], 3)).matrix, name="y"),
        validate_projector(projector_onto(Subspace.span_of([[1, 1, 0]], 3)).matrix, name="d"),
    ]
    # e3 is missed and d overlaps both x and y: the first pair in order is reported
    expected = reference_context_error("skew", atoms)
    assert expected == (NotOrthogonalError, "context 'skew': atoms 'x' and 'd' are not orthogonal")
    with pytest.raises(NotOrthogonalError, match="'x' and 'd'"):
        validate_context("skew", atoms)
