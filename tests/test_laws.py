"""The projector and context law checks against oracles written from the definitions.

validate_projector checks idempotence on the pivot entries of a range
basis, and validate_context checks the atom ranges for orthogonality,
with integer inner products, and their ranks for completeness; the
oracles in helpers check ``P*P = P``, then every pairwise product, then
the sum.
"""

from __future__ import annotations

import random
from fractions import Fraction

import pytest

from suplat.contexts import (
    ContextError,
    IncompleteSumError,
    InvariantLattice,
    NotOrthogonalError,
    structure_from_dict,
    structure_to_dict,
    validate_context,
)
from suplat.datasets import builtin_structure
from suplat.linalg import ExactMatrix, GaussianRational, _dot, _is_orthogonal
from suplat.operators import NotIdempotentError, _inner, projector_onto, range_of, validate_projector
from suplat.subspaces import Subspace

from helpers import (
    adjoint,
    gram_schmidt,
    inverse,
    matrix_sum,
    random_context,
    random_invertible,
    random_matrix,
    random_nonzero_scalar,
    random_scalar,
    random_subspace,
    reference_context_error,
    reference_projector_law,
)


def _hermitian(rng: random.Random, n: int) -> ExactMatrix:
    m = random_matrix(rng, n, n, span=2)
    return matrix_sum(m, adjoint(m))


def _oblique_idempotent(rng: random.Random, n: int) -> ExactMatrix:
    """S D S^-1 with D a 0/1 diagonal: idempotent, rarely Hermitian."""
    s = random_invertible(rng, n, span=2)
    d = ExactMatrix(n, n, [rng.randint(0, 1) if i == j else 0 for i in range(n) for j in range(n)])
    return s * d * inverse(s)


def _candidate_matrix(rng: random.Random, n: int) -> ExactMatrix:
    p = projector_onto(random_subspace(rng, n)).matrix
    kind = rng.randrange(7)
    if kind == 0:
        return p
    if kind == 1:  # scaled: a projector only for the factors 0 and 1
        c = rng.choice([GaussianRational(1), GaussianRational(-1), GaussianRational(2),
                        GaussianRational(0, 1), random_nonzero_scalar(rng)])
        return ExactMatrix(n, n, [c * e for e in p.entries])
    if kind == 2:  # Hermitian perturbation of a projector
        return matrix_sum(p, _hermitian(rng, n))
    if kind == 3:
        return _hermitian(rng, n)
    if kind == 4:
        return _oblique_idempotent(rng, n)
    if kind == 5:  # Hermitian with unit diagonal: P*P - P is nonzero only off the diagonal
        h, keep_real = _hermitian(rng, n), rng.random() < 0.5  # else purely imaginary off the diagonal
        return ExactMatrix(n, n, [
            GaussianRational(h.entry(i, j).real * keep_real, h.entry(i, j).imag) if i != j else 1
            for i in range(n) for j in range(n)
        ])
    return random_matrix(rng, n, n, span=2)


def test_validate_projector_matches_definition():
    rng = random.Random(20180905)
    outcomes = set()
    several_pivots = False  # a matrix of rank 2 or more that is not idempotent
    for _ in range(150):
        m = _candidate_matrix(rng, rng.randint(1, 6))
        expected = reference_projector_law(m)
        outcomes.add(expected)
        if expected is not None:
            several_pivots |= expected is NotIdempotentError and m.rank() >= 2
            with pytest.raises(expected):
                validate_projector(m)
            continue
        p = validate_projector(m)
        assert p.rank == m.rank()
        columns = [m.entries[j::m.cols] for j in range(m.cols)]
        assert range_of(p) == Subspace.span_of(columns, m.rows)
    assert len(outcomes) == 3  # accepted, not Hermitian, not idempotent all occur
    assert several_pivots
    # Hermitian, with trace(P*P) = 1, and its first column reduces to (1, 1), which P
    # maps to (1, 0), 1 at the pivot: a law check that stopped there would accept it.
    reflection = ExactMatrix.from_rows([["1/2", "1/2"], ["1/2", "-1/2"]])
    with pytest.raises(NotIdempotentError):
        validate_projector(reflection)
    assert reference_projector_law(reflection) is NotIdempotentError
    assert validate_projector(ExactMatrix.from_rows([["1/2", "1/2"], ["1/2", "1/2"]])).rank == 1


def _big_scalar(rng: random.Random) -> GaussianRational:
    """A scalar whose parts are near 10^30, over mixed denominators."""
    def part():
        return Fraction(rng.choice([-1, 1]) * 10**30 + rng.randint(-9, 9), rng.choice([1, 3, 10**30 + 7]))
    return GaussianRational(part(), part())


def _vector_pairs(rng: random.Random):
    """Pairs (u, v) of equal length: dense random, with parts near 10^30,
    with a zero vector, orthogonalized by Gram-Schmidt, and Gram-Schmidt
    pairs with one entry moved by 10^-30."""
    for _ in range(60):
        n = rng.randint(1, 6)
        scalar = rng.choice([random_scalar, lambda r: random_scalar(r, span=12), _big_scalar])
        u, v = ([scalar(rng) for _ in range(n)] for _ in range(2))
        yield u, v
        yield u, [GaussianRational(0)] * n
        if any(u):
            w = gram_schmidt([u, v])[1]
            yield u, w
            w[rng.randrange(n)] += GaussianRational(Fraction(1, 10**30))
            yield u, w


def _triple_value(triple) -> GaussianRational:
    a, b, d = triple
    return GaussianRational(Fraction(a, d), Fraction(b, d))


def test_integer_dot_products_match_scalar_sums():
    rng = random.Random(24)
    outcomes = set()
    for u, v in _vector_pairs(rng):
        assert _triple_value(_dot(u, v)) == sum((x * y for x, y in zip(u, v)), GaussianRational(0))
        inner = sum((x.conjugate() * y for x, y in zip(u, v)), GaussianRational(0))
        assert _triple_value(_dot(u, v, -1)) == inner == _inner(u, v)
        outcomes.add(_is_orthogonal(u, v))
        assert _is_orthogonal(u, v) == (not inner)
    assert outcomes == {True, False}


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


def _ray_atoms(n: int, rays: dict) -> list:
    """One rank-1 projector per named ray on C^n."""
    return [validate_projector(projector_onto(Subspace.span_of([v], n)).matrix, name=k) for k, v in rays.items()]


# Neither orthogonal nor complete.  In (i, j) order, i outer, the first
# overlapping pair is (a, d); a scan with j outer would meet (b, c) first.
SKEW_4 = {"a": [1, 0, 0, 0], "b": [0, 1, 0, 0], "c": [0, 1, 1, 0], "d": [1, 0, 0, 1]}


def test_non_orthogonal_incomplete_family_reports_first_pair():
    # e3 is missed and d overlaps both x and y: the first pair in order is reported
    skew_3 = {"x": [1, 0, 0], "y": [0, 1, 0], "d": [1, 1, 0]}
    for n, rays, pair in ((3, skew_3, "'x' and 'd'"), (4, SKEW_4, "'a' and 'd'")):
        atoms = _ray_atoms(n, rays)
        message = f"context 'skew': atoms {pair} are not orthogonal"
        assert reference_context_error("skew", atoms) == (NotOrthogonalError, message)
        with pytest.raises(NotOrthogonalError) as err:
            validate_context("skew", atoms)
        assert str(err.value) == message


def test_context_laws_multiply_no_matrices(monkeypatch):
    data = structure_to_dict(builtin_structure("cabello-3"))
    data["contexts"][1]["projectors"].pop()
    atoms = _ray_atoms(4, SKEW_4)

    def refuse(self, other):
        raise AssertionError("a matrix product was computed")

    monkeypatch.setattr(ExactMatrix, "__mul__", refuse)
    with pytest.raises(IncompleteSumError, match="contexts\\[1\\]: context 'S2': atoms do not sum"):
        structure_from_dict(data)
    with pytest.raises(NotOrthogonalError, match="atoms 'a' and 'd' are not orthogonal"):
        validate_context("skew", atoms)


def test_lattice_build_and_projector_laws_compute_no_scalar_arithmetic(monkeypatch):
    """The row elimination reads the scalars' integer triples: building a lattice and
    checking a projector call no scalar operator, not even a zero test or ``==``."""
    rng = random.Random(32)
    contexts = [random_context(rng, rng.randint(2, 5), "A") for _ in range(12)]
    atoms = [a for c in contexts for a in c.atoms]
    assert {a.rank for a in atoms} == {1, 2, 3}
    dense = [a for a in atoms if all(a.matrix.entries) and any(e.imag for e in a.matrix.entries)]
    assert {a.rank for a in dense} == {1, 2, 3}  # dense complex entries at every rank
    members = [InvariantLattice(c).members for c in contexts]

    def refuse(*args):
        raise AssertionError("a scalar operator was called")

    for name in ("__mul__", "__rmul__", "__add__", "__radd__", "__sub__", "__truediv__", "inverse",
                 "__bool__", "__eq__"):
        monkeypatch.setattr(GaussianRational, name, refuse)
    lattices = [InvariantLattice(c) for c in contexts]
    projectors = [validate_projector(a.matrix, name=a.name) for a in atoms]
    monkeypatch.undo()
    assert [lattice.members for lattice in lattices] == members
    assert projectors == atoms
