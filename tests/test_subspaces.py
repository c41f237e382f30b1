"""Canonical subspaces and the Hilbert lattice operations."""

from __future__ import annotations

import copy
import pickle
import random
from fractions import Fraction

import pytest

from suplat import hasse
from suplat.hasse import build_graph
from suplat.linalg import DimensionMismatchError, ExactMatrix, GaussianRational
from suplat.operators import Projector
from suplat.subspaces import Subspace, _sort_order
from suplat.valuation import Mode, evaluate_structure

from helpers import (
    dense_sort_order,
    random_context,
    random_invertible,
    random_structure,
    random_scalar,
    random_state,
    random_subspace,
    reference_contains,
    reference_sort_key,
    reference_span,
)


def span(*vectors, ambient=None):
    ambient = ambient if ambient is not None else len(vectors[0])
    return Subspace(ambient, vectors)


def test_span_canonicalizes():
    assert span(["2", "2"]) == span(["1", "1"])
    assert span(["1", "0"], ["1", "1"]) == Subspace.full(2)
    assert Subspace(3, []) == Subspace.zero(3)
    assert span(["0", "0"]).dim == 0
    # The constructor reduces any spanning set, so the basis is canonical however it is given.
    x = Subspace(2, [(2, 0)])
    assert x == Subspace(2, [("1", 0)]) == Subspace(ambient_dim=2, basis=((GaussianRational(1, 0), 0),))
    assert hash(x) == hash(Subspace(2, [("1", 0)]))
    dependent = Subspace(2, [(1, 0), (2, 0)])
    assert dependent == x and dependent.dim == 1 and not dependent.is_full()
    assert copy.copy(x) == copy.deepcopy(x) == pickle.loads(pickle.dumps(x)) == x


def test_span_rejects_wrong_length():
    with pytest.raises(DimensionMismatchError):
        Subspace(2, [["1", "0", "0"]])
    with pytest.raises(DimensionMismatchError, match=r"^vector of length 1 in ambient dimension 2$"):
        Subspace(2, [(1, 0), (1,)])
    with pytest.raises(TypeError, match="exact scalar"):
        Subspace(2, [(0.5, 0)])


def test_zero_and_full_reject_a_negative_dimension():
    for make, n in ((Subspace.zero, -3), (Subspace.full, -1), (lambda n: Subspace(n, []), -2)):
        with pytest.raises(ValueError, match="nonnegative"):
            make(n)
    assert Subspace.zero(0) == Subspace.full(0) and Subspace.full(0).is_zero()


def test_contains_vector():
    ray = span(["1", "0"])
    assert ray.contains_vector(["3", "0"])
    assert not ray.contains_vector(["1", "1"])
    assert ray.contains_vector(["0", "0"])
    assert Subspace.zero(2).contains_vector(["0", "0"])
    assert not Subspace.zero(2).contains_vector(["1", "0"])
    assert Subspace.full(2).contains_vector(["i", "-2/3"])
    ints = Subspace(2, [(1, 1)])  # int rows are coerced like literals
    assert ints == span(["1", "1"]) and ints.contains_vector((2, 2)) and not ints.contains_vector((1, 0))
    assert Projector("P", ints).matrix == ExactMatrix([["1/2", "1/2"], ["1/2", "1/2"]])
    with pytest.raises(DimensionMismatchError, match=r"^vector of length 3 in ambient dimension 2$"):
        ray.contains_vector(["1", "0", "0"])


def _combination(rng, rows, n):
    """A random complex combination of the rows (the zero vector when there are none)."""
    coefficients = [random_scalar(rng) for _ in rows]
    return [sum((c * row[j] for c, row in zip(coefficients, rows)), GaussianRational(0)) for j in range(n)]


def test_contains_vector_matches_reference():
    rng = random.Random(515)
    outcomes = []
    for _ in range(60):
        n = rng.randint(1, 4)
        for s in (random_subspace(rng, n), Subspace.zero(n), Subspace.full(n)):
            inside = _combination(rng, s.basis, n)
            assert s.contains_vector(inside) and reference_contains(s, inside)
            anywhere = [random_scalar(rng) for _ in range(n)]
            outcomes.append(s.contains_vector(anywhere))
            assert outcomes[-1] == reference_contains(s, anywhere)
    assert True in outcomes and False in outcomes


def test_join_examples():
    z_plus = span(["1", "0"])
    z_minus = span(["0", "1"])
    assert z_plus.join(z_minus) == Subspace.full(2)
    assert z_plus.join(Subspace.zero(2)) == z_plus
    assert z_plus.join(z_plus) == z_plus


def test_span_and_join_match_the_reference_elimination():
    rng = random.Random(2609)
    dims = set()
    for _ in range(80):
        n = rng.randint(1, 5)
        vectors = [[random_scalar(rng, 2) for _ in range(n)] for _ in range(rng.randint(0, n + 2))]
        a = Subspace(n, vectors)
        assert a == reference_span(vectors, n)
        b = rng.choice([random_subspace(rng, n), a, Subspace.zero(n), Subspace.full(n)])
        joined = a.join(b)
        assert joined == reference_span(a.basis + b.basis, n)
        dims.add((joined.dim > a.dim, joined.dim > b.dim))
    assert len(dims) == 4


def test_meet_examples():
    z_plus = span(["1", "0"])
    x_plus = span(["1", "1"])
    assert z_plus.meet(x_plus) == Subspace.zero(2)
    assert z_plus.meet(Subspace.full(2)) == z_plus
    a = span(["1", "0", "0"], ["0", "1", "0"])
    b = span(["0", "1", "0"], ["0", "0", "1"])
    assert a.meet(b) == span(["0", "1", "0"])


def test_orthocomplement_examples():
    assert span(["1", "0"]).orthocomplement() == span(["0", "1"])
    assert Subspace.zero(3).orthocomplement() == Subspace.full(3)
    assert Subspace.full(3).orthocomplement() == Subspace.zero(3)
    # Hermitian inner product: conj(1)*v1 + conj(i)*v2 = 0 gives v1 = i*v2
    assert span(["1", "i"]).orthocomplement() == span(["1", "-i"])


def test_is_subspace_of():
    ray = span(["1", "0", "0", "0"], ambient=4)
    plane = span(["1", "0", "0", "0"], ["0", "1", "0", "0"])
    assert ray.is_subspace_of(plane)
    assert not plane.is_subspace_of(ray)
    assert Subspace.zero(4).is_subspace_of(ray)
    assert ray.is_subspace_of(Subspace.full(4))
    with pytest.raises(DimensionMismatchError, match=r"^ambient dimensions differ: 2 vs 4$"):
        Subspace.full(2).is_subspace_of(ray)


def test_is_subspace_of_matches_reference():
    # a <= b iff every basis row of a reduces to zero against b
    rng = random.Random(616)
    outcomes = []
    for _ in range(60):
        n = rng.randint(1, 4)
        b = random_subspace(rng, n)
        below_b = Subspace(n, [_combination(rng, b.basis, n) for _ in range(2)])
        for a in (random_subspace(rng, n), below_b, Subspace.zero(n), Subspace.full(n)):
            for x, y in ((a, b), (b, a)):
                outcomes.append(x.is_subspace_of(y))
                assert outcomes[-1] == all(reference_contains(y, row) for row in x.basis)
    assert True in outcomes and False in outcomes


def test_is_subspace_of_matches_meet_route():
    rng = random.Random(909)
    for _ in range(60):
        n = rng.randint(2, 4)
        a = random_subspace(rng, n)
        b = random_subspace(rng, n)
        assert a.is_subspace_of(b) == (a.meet(b) == a)


def test_canonical_form_stability():
    # any basis of the same subspace reduces to the same representation
    rng = random.Random(111)
    for _ in range(40):
        n = rng.randint(2, 4)
        s = random_subspace(rng, n)
        if s.dim == 0:
            continue
        t = random_invertible(rng, s.dim)
        transformed = t * ExactMatrix(s.basis)
        assert Subspace(n, transformed.grid) == s


def test_lattice_laws_corpus():
    rng = random.Random(222)
    for _ in range(120):
        n = rng.randint(2, 4)
        a = random_subspace(rng, n)
        b = random_subspace(rng, n)
        c = random_subspace(rng, n)
        assert a.meet(b) == b.meet(a)
        assert a.join(b) == b.join(a)
        assert a.meet(b.meet(c)) == a.meet(b).meet(c)
        assert a.join(b.join(c)) == a.join(b).join(c)
        assert a.meet(a.join(b)) == a
        assert a.join(a.meet(b)) == a
        assert a.orthocomplement().orthocomplement() == a
        assert a.meet(b).orthocomplement() == a.orthocomplement().join(b.orthocomplement())
        assert a.meet(a.orthocomplement()) == Subspace.zero(n)
        assert a.join(a.orthocomplement()) == Subspace.full(n)
        assert a.dim + a.orthocomplement().dim == n


def test_modular_law():
    # a <= c implies a v (b ^ c) = (a v b) ^ c
    rng = random.Random(333)
    for _ in range(80):
        n = rng.randint(2, 4)
        c = random_subspace(rng, n)
        a = random_subspace(rng, n).meet(c)
        b = random_subspace(rng, n)
        assert a.join(b.meet(c)) == a.join(b).meet(c)


def test_containment_via_states():
    # vectors sampled from a join stay inside it
    rng = random.Random(444)
    for _ in range(30):
        n = rng.randint(2, 4)
        a = random_subspace(rng, n)
        b = random_subspace(rng, n)
        j = a.join(b)
        for s in (a, b):
            for row in s.basis:
                assert reference_contains(j, row)
        v = random_state(rng, n)
        inside = reference_contains(a, v)
        assert not inside or reference_contains(j, v)


def test_sort_key_orders_by_dimension_first():
    items = [Subspace.full(2), Subspace.zero(2), span(["0", "1"]), span(["1", "0"])]
    ordered = sorted(items, key=reference_sort_key)
    assert [s.dim for s in ordered] == [0, 1, 1, 2]
    assert ordered[1] == span(["0", "1"])


def _assert_sparse_order_is_dense_order(items):
    expected = sorted(range(len(items)), key=lambda i: reference_sort_key(items[i]))
    assert _sort_order([s.basis for s in items]) == dense_sort_order(items) == expected


def test_integer_sort_order_matches_sort_key():
    # The sparse key orders as the dense oracle and the Fraction oracle do.
    rng = random.Random(1996)
    kinds = set()
    for _ in range(60):
        n = rng.randint(1, 4)
        # spans up to 9 mix denominators; repeats check that ties keep input order
        items = [random_subspace(rng, n, span=rng.choice((1, 2, 9))) for _ in range(rng.randint(0, 12))]
        items += rng.sample(items, min(2, len(items)))
        kinds.update(f"dim {s.dim}" for s in items)
        entries = [e for s in items for row in s.basis for e in row]
        kinds.update("complex" for e in entries if e.imag)
        kinds.update("fraction" for e in entries if e.real.denominator > 1)
        _assert_sparse_order_is_dense_order(items)
    # Members of random contexts, shuffled, with repeats: atoms of rank 1-3
    # and dense complex entries.
    for _ in range(40):
        context = random_context(rng, rng.randint(2, 6), "A")
        kinds.update(f"rank {p.rank}" for p in context.atoms)
        items = list(context.lattice.members)
        items += rng.sample(items, min(3, len(items)))
        rng.shuffle(items)
        _assert_sparse_order_is_dense_order(items)
    assert {"dim 1", "dim 2", "complex", "fraction", "rank 1", "rank 2", "rank 3"} <= kinds
    # Parts near 10^30 over mixed denominators, some of them near 10^30 too.
    big = 10**30
    for _ in range(40):
        def part():
            return Fraction(rng.choice((1, -1)) * (big + rng.randint(-2, 2)), rng.choice((1, 2, 3, 7, big + 1)))

        items = [
            span(*[[GaussianRational(part(), part()) if rng.random() < 0.7 else 0 for _ in range(3)]
                   for _ in range(rng.randint(1, 2))])
            for _ in range(8)
        ]
        _assert_sparse_order_is_dense_order(items + items[:2])
    # The sign boundary (re == 0, im of either sign) against zero and against
    # each other, and same-dimension bases whose nonzeros are a prefix of
    # another's, so a key's end meets an entry of either sign.
    boundary = ["0", "i", "-i", "1/2i", "-1/3i", "1", "-1", "1+i", "-1-i", "1-i", "-1+i"]
    items = [span(["1", x, y]) for x in boundary for y in boundary]
    items += [span(["1", "0", "0"], ["0", "1", x]) for x in boundary]
    items += [span(["0", "1", x]) for x in boundary]
    for _ in range(20):
        rng.shuffle(items)
        _assert_sparse_order_is_dense_order(items)
    assert _sort_order([]) == []


def test_row_keys_order_shared_rows_as_the_dense_key(monkeypatch):
    # Lattice members share row objects with one another and, through kept
    # atoms, with other contexts' members; each row is keyed once by id.
    rng = random.Random(35)
    sorted_lists, ranks, complex_dense = [], set(), False
    original = hasse._sort_order

    def checked(bases):
        sorted_lists.append([Subspace(structure.ambient_dim, basis) for basis in bases])
        return original(bases)

    monkeypatch.setattr(hasse, "_sort_order", checked)
    for _ in range(10):
        structure = random_structure(rng, rng.randint(2, 4))
        n = structure.ambient_dim
        for lattice in structure.lattices:
            ranks.update(p.rank for p in lattice.context.atoms)
            complex_dense |= any(all(row) and any(e.imag for e in row)
                                 for p in lattice.context.atoms for row in p.range.basis)
            members = list(lattice.members)
            rng.shuffle(members)
            _assert_sparse_order_is_dense_order(members + members[:3])
        build_graph(evaluate_structure(structure, random_state(rng, n), Mode.INVARIANT), "all")
    assert {1, 2} <= ranks and complex_dense and len(sorted_lists) == 10
    for merged in sorted_lists:  # the merged nodes of hasse --scope all
        _assert_sparse_order_is_dense_order(merged)
    # One row ends in zeros where the other, equal before, has a negative
    # entry: a row key without its closing 0 would put the first row lower.
    pairs = [
        (span(["1", "0", "-1"]), span(["1", "0", "0"])),
        (span(["1", "2", "0", "-1/2"], ["0", "0", "1", "0"]), span(["1", "2", "0", "0"], ["0", "0", "1", "0"])),
        (span(["1", "0", "-i"], ["0", "1", "0"]), span(["1", "0", "0"], ["0", "1", "0"])),
        (span(["1", "0", "0", "0"], ["0", "1", "0", "-1"]), span(["1", "0", "0", "0"], ["0", "1", "0", "0"])),
        (span(["1", "0", "-1", "0"], ["0", "1", "0", "1"]), span(["1", "0", "0", "5"], ["0", "1", "0", "1"])),
    ]
    for low, high in pairs:
        assert low.dim == high.dim
        assert _sort_order([low.basis, high.basis]) == dense_sort_order([low, high]) == [0, 1]
        assert _sort_order([high.basis, low.basis]) == dense_sort_order([high, low]) == [1, 0]


def test_str_rendering():
    assert str(Subspace.zero(2)) == "{0}"
    assert str(span(["1", "-i"])) == "span{(1, -i)}"
    assert span(["1", "0"]).basis_literals() == [["1", "0"]]


def test_basis_is_exact_rref():
    s = span(["0", "2", "2", "0"], ["0", "0", "3", "1"], ambient=4)
    reduced, _, rank = ExactMatrix(s.basis).rref()
    assert reduced.grid == s.basis
    assert rank == s.dim
    assert s.basis == ExactMatrix([["0", "1", "0", "-1/3"], ["0", "0", "1", "1/3"]]).grid


def test_hash_keeps_minus_one_and_minus_two_apart():
    # CPython hashes -1 and -2 alike; a scalar hash built on that makes
    # these two lines collide and fall through to entrywise comparison
    assert hash(span(["1", "-1", "0"])) != hash(span(["1", "-2", "0"]))


def test_builtin_members_hash_apart(qubit, cabello):
    distinct = {m for structure in (qubit, cabello) for lat in structure.lattices for m in lat.members}
    assert len({hash(m) for m in distinct}) == len(distinct)
