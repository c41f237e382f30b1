"""Exact matrix algebra: products, echelon forms, null spaces."""

from __future__ import annotations

import copy
import pickle
import random
from fractions import Fraction

import pytest

from suplat.linalg import (
    _ONE,
    _ZERO,
    DimensionMismatchError,
    ExactMatrix,
    GaussianRational,
    _insert_rows,
)

from helpers import random_invertible, random_matrix, random_scalar, reference_rref


def test_product_examples():
    z_plus = ExactMatrix([["1", "0"], ["0", "0"]])
    z_minus = ExactMatrix([["0", "0"], ["0", "1"]])
    assert z_plus * z_minus == ExactMatrix.zeros(2, 2)
    assert z_plus * ExactMatrix.identity(2) == z_plus
    x_plus = ExactMatrix([["1/2", "1/2"], ["1/2", "1/2"]])
    assert x_plus * x_plus == x_plus


def test_constructor_checks_and_coerces_its_rows():
    with pytest.raises(DimensionMismatchError, match="^a row of 1 entries in a matrix of 2 columns$"):
        ExactMatrix([[1, 0], [1]])  # rows of unequal length
    with pytest.raises(DimensionMismatchError, match="^a row of 2 entries in a matrix of 3 columns$"):
        ExactMatrix([[1, 0]], 3)
    with pytest.raises(ValueError, match="^a matrix with no rows needs its column count$"):
        ExactMatrix([])
    for rows in ((), [[]]):
        with pytest.raises(ValueError, match="^matrix dimensions must be nonnegative$"):
            ExactMatrix(rows, -1)
    with pytest.raises(TypeError, match="^cannot interpret 0.5 as an exact scalar$"):
        ExactMatrix([[1, 0.5]])
    m = ExactMatrix(iter([[1, "1/2-i"], (Fraction(2, 3), GaussianRational(0, 1))]))
    assert m.grid == ((GaussianRational(1), GaussianRational(Fraction(1, 2), -1)),
                      (GaussianRational(Fraction(2, 3)), GaussianRational(0, 1)))
    assert {type(e) for row in m.grid for e in row} == {GaussianRational}
    assert (m.rows, m.cols) == (2, 2) and ExactMatrix(m.grid, 2) == m
    empty = ExactMatrix((), 3)  # the 0x3 matrix
    assert (empty.rows, empty.cols, empty.grid) == (0, 3, ()) and empty == ExactMatrix.zeros(0, 3)
    assert empty != ExactMatrix((), 2) and ExactMatrix([(), ()]) == ExactMatrix.zeros(2, 0)


def test_matrix_fields_cannot_be_assigned_or_deleted():
    m = ExactMatrix([["1", "i"], ["-i", "2"]])
    before = hash(m)
    for name in ("rows", "cols", "grid"):
        value = getattr(m, name)
        with pytest.raises(AttributeError):
            setattr(m, name, 7)
        with pytest.raises(AttributeError):
            delattr(m, name)
        assert getattr(m, name) is value
    assert hash(m) == before
    assert m.__reduce__() == (ExactMatrix, (m.grid, 2))
    for other in (copy.copy(m), copy.deepcopy(m), pickle.loads(pickle.dumps(m)), ExactMatrix.zeros(0, 4)):
        assert type(other) is ExactMatrix and pickle.loads(pickle.dumps(other)) == other
    assert copy.copy(m) == m and hash(copy.copy(m)) == before


def test_product_shape_mismatch():
    a = ExactMatrix.zeros(2, 3)
    b = ExactMatrix.zeros(2, 3)
    with pytest.raises(DimensionMismatchError):
        a * b


def test_no_product_with_a_scalar():
    m = ExactMatrix.identity(2)
    for scalar in (2, GaussianRational(2)):
        with pytest.raises(TypeError):
            m * scalar
        with pytest.raises(TypeError):
            scalar * m


def test_rref_examples():
    m = ExactMatrix([["2", "2"], ["1", "1"]])
    reduced, pivots, rank = m.rref()
    assert reduced == ExactMatrix([["1", "1"], ["0", "0"]])
    assert pivots == (0,)
    assert rank == 1

    eye = ExactMatrix.identity(4)
    reduced, pivots, rank = eye.rref()
    assert reduced == eye
    assert pivots == (0, 1, 2, 3)
    assert rank == 4


def test_rref_idempotent_and_unique():
    rng = random.Random(505)
    for _ in range(100):
        rows = rng.randint(1, 5)
        cols = rng.randint(1, 5)
        m = random_matrix(rng, rows, cols)
        reduced, pivots, rank = m.rref()
        again, pivots2, rank2 = reduced.rref()
        assert again == reduced
        assert (pivots2, rank2) == (pivots, rank)
        # leading entries are 1, pivots strictly increase, zero rows trail
        assert list(pivots) == sorted(pivots)
        one = GaussianRational(1)
        for r, p in enumerate(pivots):
            assert reduced.grid[r][p] == one
        for r in range(rank, rows):
            assert not any(reduced.grid[r])


def _rank_deficient(rng: random.Random, rows: int, cols: int) -> ExactMatrix:
    """Rows drawn from the span of a few random rows: exact repeats, zero
    rows and random combinations, shuffled."""
    seeds = random_matrix(rng, rng.randint(1, cols), cols).grid
    out = []
    for _ in range(rows):
        pick = rng.random()
        if pick < 0.3:
            out.append(rng.choice(seeds))
        elif pick < 0.4:
            out.append((GaussianRational(0),) * cols)
        else:
            terms = [[random_scalar(rng, 3) * e for e in r] for r in seeds]
            out.append(tuple(sum(column, GaussianRational(0)) for column in zip(*terms)))
    return ExactMatrix(out, cols)


def _huge(rng: random.Random) -> GaussianRational:
    """A scalar whose parts have numerators and denominators near 10^30."""
    big = 10**30

    def part() -> Fraction:
        return Fraction(big + rng.randint(-9, 9), big + rng.randint(1, 9)) * rng.choice((1, -1, 0))

    return GaussianRational(part(), part())


def test_rref_matches_the_reference_elimination():
    # The insertion routine against whole-matrix Gauss-Jordan elimination.
    rng = random.Random(2026)
    cases = [ExactMatrix((), n) for n in range(4)] + [ExactMatrix([(), (), ()])]
    for _ in range(60):
        rows, cols = rng.randint(1, 6), rng.randint(1, 6)
        cases.append(random_matrix(rng, rows, cols))  # dense complex entries
        cases.append(random_matrix(rng, rows, cols, span=9))  # mixed denominators
        cases.append(_rank_deficient(rng, rng.randint(2, 7), cols))
        cases.append(ExactMatrix([[_huge(rng) for _ in range(cols)] for _ in range(rows)]))
    ranks = set()
    for m in cases:
        expected = reference_rref(m)
        assert m.rref() == expected, m
        ranks.add((expected[2] < m.rows, m.rows == 0))
    assert ranks == {(False, False), (True, False), (False, True)}


def test_elimination_writes_the_entries_it_fixes():
    # A pivot column holds 1 at its pivot and 0 elsewhere by construction, so
    # each lead is scaled to the shared one, and each entry that reducing (the
    # new row at a pivot column) or clearing (a pivot row at the new lead)
    # zeroes is the shared zero: none of them is computed.
    m = ExactMatrix([["2", "4", "6", "8"], ["3", "1", "2", "i"], ["1", "1/2", "5", "2-i"]])
    rows, pivots = _insert_rows((), (), m.grid)
    reduced, expected_pivots, _ = reference_rref(m)
    assert rows == reduced.grid and pivots == expected_pivots == (0, 1, 2)
    for i, row in enumerate(rows):
        assert all(row[c] is (_ONE if k == i else _ZERO) for k, c in enumerate(pivots))


def test_rref_invariant_under_row_operations():
    # row-equivalent matrices share one canonical reduced form
    rng = random.Random(606)
    for _ in range(40):
        rows = rng.randint(1, 4)
        cols = rng.randint(rows, 5)
        m = random_matrix(rng, rows, cols)
        t = random_invertible(rng, rows)
        assert (t * m).rref()[0] == m.rref()[0]


def test_null_space_examples():
    m = ExactMatrix([["1", "0"], ["0", "0"]])
    assert m.null_space() == ExactMatrix([["0", "1"]])
    assert ExactMatrix.identity(3).null_space().rows == 0


def test_null_space_oracle():
    rng = random.Random(707)
    zero = GaussianRational(0)
    for _ in range(100):
        rows = rng.randint(1, 4)
        cols = rng.randint(1, 5)
        m = random_matrix(rng, rows, cols)
        basis = m.null_space()
        assert basis.rows == cols - m.rank()  # rank-nullity
        for i in range(basis.rows):
            assert all(x == zero for x in m.apply(basis.grid[i]))
        # basis rows are independent
        assert basis.rank() == basis.rows


def test_apply_and_stacking():
    m = ExactMatrix([["1", "2"], ["0", "1"]])
    assert m.apply(["1", "1"]) == (GaussianRational(3), GaussianRational(1))
    with pytest.raises(DimensionMismatchError):
        m.apply(["1"])


def test_zero_row_matrices_supported():
    empty = ExactMatrix((), 3)
    reduced, pivots, rank = empty.rref()
    assert (reduced.rows, pivots, rank) == (0, (), 0)
    assert empty.null_space() == ExactMatrix.identity(3)
