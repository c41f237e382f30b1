"""Canonical subspaces and the Hilbert lattice operations."""

from __future__ import annotations

import random

import pytest

from suplat.linalg import DimensionMismatchError, ExactMatrix
from suplat.subspaces import Subspace

from helpers import random_invertible, random_state, random_subspace


def span(*vectors, ambient=None):
    ambient = ambient if ambient is not None else len(vectors[0])
    return Subspace.span_of(vectors, ambient)


def test_span_canonicalizes():
    assert span(["2", "2"]) == span(["1", "1"])
    assert span(["1", "0"], ["1", "1"]) == Subspace.full(2)
    assert Subspace.span_of([], 3) == Subspace.zero(3)
    assert span(["0", "0"]).dim == 0


def test_span_rejects_wrong_length():
    with pytest.raises(DimensionMismatchError):
        Subspace.span_of([["1", "0", "0"]], 2)


def test_contains_vector():
    ray = span(["1", "0"])
    assert ray.contains_vector(["3", "0"])
    assert not ray.contains_vector(["1", "1"])
    assert ray.contains_vector(["0", "0"])
    assert Subspace.zero(2).contains_vector(["0", "0"])
    assert not Subspace.zero(2).contains_vector(["1", "0"])
    assert Subspace.full(2).contains_vector(["i", "-2/3"])
    with pytest.raises(DimensionMismatchError):
        ray.contains_vector(["1", "0", "0"])


def test_join_examples():
    z_plus = span(["1", "0"])
    z_minus = span(["0", "1"])
    assert z_plus.join(z_minus) == Subspace.full(2)
    assert z_plus.join(Subspace.zero(2)) == z_plus
    assert z_plus.join(z_plus) == z_plus


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
        transformed = t * s.basis
        assert Subspace.span_of(transformed.row_list(), n) == s


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
            for row in s.basis.row_list():
                assert j.contains_vector(row)
        v = random_state(rng, n)
        inside = a.contains_vector(v)
        assert not inside or j.contains_vector(v)


def test_sort_key_orders_by_dimension_first():
    items = [Subspace.full(2), Subspace.zero(2), span(["0", "1"]), span(["1", "0"])]
    ordered = sorted(items, key=lambda s: s.sort_key())
    assert [s.dim for s in ordered] == [0, 1, 1, 2]
    assert ordered[1] == span(["0", "1"])


def test_str_rendering():
    assert str(Subspace.zero(2)) == "{0}"
    assert str(span(["1", "-i"])) == "span{(1, -i)}"
    assert span(["1", "0"]).basis_literals() == [["1", "0"]]


def test_basis_is_exact_rref():
    s = span(["0", "2", "2", "0"], ["0", "0", "3", "1"], ambient=4)
    reduced, _, rank = s.basis.rref()
    assert reduced == s.basis
    assert rank == s.dim
    assert s.basis == ExactMatrix.from_rows([["0", "1", "0", "-1/3"], ["0", "0", "1", "1/3"]])


def test_hash_keeps_minus_one_and_minus_two_apart():
    # CPython hashes -1 and -2 alike; a scalar hash built on that makes
    # these two lines collide and fall through to entrywise comparison
    assert hash(span(["1", "-1", "0"])) != hash(span(["1", "-2", "0"]))


def test_builtin_members_hash_apart(qubit, cabello):
    distinct = {m for structure in (qubit, cabello) for lat in structure.lattices for m in lat.members}
    assert len({hash(m) for m in distinct}) == len(distinct)
