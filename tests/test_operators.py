"""Projector validation, range/kernel geometry, and the invariance oracle."""

from __future__ import annotations

import random

import pytest

from suplat.contexts import Structure, structure_from_dict, structure_to_dict
from suplat.linalg import ExactMatrix, GaussianRational
from suplat.operators import (
    NotHermitianError,
    NotIdempotentError,
    NotSquareError,
    Projector,
    kernel_of,
    range_of,
    validate_projector,
)
from suplat.subspaces import Subspace

from helpers import (
    adjoint,
    is_invariant,
    random_context,
    random_scalar,
    random_structure,
    random_subspace,
    reference_projector,
    reference_projector_law,
)


def test_validate_accepts_projectors(cabello):
    # one quarter of the all-ones matrix is a rank-1 projector
    ones = ExactMatrix([["1/4"] * 4] * 4)
    p = validate_projector(ones, name="sum-ray")
    assert p.rank == 1
    assert not p.is_trivial()

    eye = validate_projector(ExactMatrix.identity(4), name="1")
    assert eye.rank == 4
    assert eye.is_trivial()
    zero = validate_projector(ExactMatrix.zeros(3, 3), name="0")
    assert zero.rank == 0
    assert zero.is_trivial()

    for ctx in cabello.contexts:
        for atom in ctx.atoms:
            assert atom.rank == 1


def test_validate_rejects_bad_matrices():
    with pytest.raises(NotSquareError):
        validate_projector(ExactMatrix.zeros(2, 3))
    with pytest.raises(NotHermitianError):
        validate_projector(ExactMatrix([["1", "1"], ["0", "1"]]))
    with pytest.raises(NotHermitianError):
        # Hermitian needs conjugation, not just symmetry
        validate_projector(ExactMatrix([["1", "i"], ["i", "0"]]))
    with pytest.raises(NotHermitianError):
        # a non-real diagonal entry
        validate_projector(ExactMatrix([["1", "0"], ["0", "i"]]))
    with pytest.raises(NotHermitianError):
        # nonzero below the diagonal only
        validate_projector(ExactMatrix([["1", "0", "0"], ["0", "0", "0"], ["0", "1", "0"]]))
    with pytest.raises(NotIdempotentError):
        validate_projector(ExactMatrix([["1", "1"], ["1", "1"]]))


def test_range_examples(qubit, cabello):
    z_plus = qubit.contexts[0].atoms[0]
    assert range_of(z_plus) == Subspace(2, [["1", "0"]])
    p64 = cabello.contexts[2].atoms[3]
    assert range_of(p64) == Subspace(4, [["0", "1", "-1", "0"]])
    zero = validate_projector(ExactMatrix.zeros(2, 2))
    assert range_of(zero) == Subspace.zero(2)


def test_kernel_examples(qubit, cabello):
    z_plus = qubit.contexts[0].atoms[0]
    assert kernel_of(z_plus) == Subspace(2, [["0", "1"]])
    eye = validate_projector(ExactMatrix.identity(3))
    assert kernel_of(eye) == Subspace.zero(3)
    p64 = cabello.contexts[2].atoms[3]
    expected = Subspace(4, [["1", "0", "0", "0"], ["0", "1", "1", "0"], ["0", "0", "0", "1"]])
    assert kernel_of(p64) == expected


def test_kernel_is_orthocomplement_of_range(qubit, cabello):
    # kernel_of reads the range's complement; the reference is the matrix's null space
    atoms = [a for structure in (qubit, cabello) for ctx in structure.contexts for a in ctx.atoms]
    rng = random.Random(828)
    for case in range(20):
        atoms += random_context(rng, rng.randint(3, 5), f"C{case}").atoms
    assert any(a.rank == 2 for a in atoms)
    for atom in atoms:
        assert kernel_of(atom) == Subspace(atom.dimension, atom.matrix.null_space().grid)


def test_projector_onto_examples():
    half = ExactMatrix([["1/2", "1/2"], ["1/2", "1/2"]])
    assert Projector("P", Subspace(2, [["1", "1"]])).matrix == half
    assert Projector("P", Subspace.zero(3)).matrix == ExactMatrix.zeros(3, 3)
    assert Projector("P", Subspace.full(3)).matrix == ExactMatrix.identity(3)


def test_projector_round_trip():
    rng = random.Random(555)
    for _ in range(40):
        n = rng.randint(2, 4)
        s = random_subspace(rng, n)
        p = Projector("P", s)
        assert adjoint(p.matrix) == p.matrix
        assert p.matrix * p.matrix == p.matrix
        assert p.rank == s.dim
        assert range_of(p) == s


def test_projector_onto_obeys_the_laws():
    # every rank from 0 to n on C^1 to C^5, from complex spanning vectors
    rng = random.Random(1905)
    for n in range(1, 6):
        for k in range(n + 1):
            while True:
                vectors = [[random_scalar(rng, span=2) for _ in range(n)] for _ in range(k)]
                s = Subspace(n, vectors)
                if s.dim == k:
                    break
            p = Projector("P", s)
            assert reference_projector_law(p.matrix) is None
            assert validate_projector(p.matrix).range == s
            assert p.rank == k
            if k == 1:  # a ray: v v* / (v* v), whatever the length of v
                (v,) = vectors
                norm = sum((x.conjugate() * x for x in v), GaussianRational(0))
                ray = [[v[i] * v[j].conjugate() / norm for j in range(n)] for i in range(n)]
                assert p.matrix == ExactMatrix(ray)


def test_derived_matrix_is_the_validated_input_matrix(qubit, cabello):
    # Each atom's matrix, built from its range as B (B* B)^-1 B* with no Gram-Schmidt
    # step, is the input that validates to the atom and the matrix the atom derives.
    rng = random.Random(4040)
    structures = [qubit, cabello] + [random_structure(rng, rng.randint(3, 5)) for _ in range(6)]
    structures += [Structure([random_context(rng, rng.randint(2, 5), f"C{case}")]) for case in range(12)]
    atoms = [a for s in structures for c in s.contexts for a in c.atoms]
    inputs = [reference_projector(a.range) for a in atoms]
    dense = [a for a, m in zip(atoms, inputs) if all(map(all, m.grid)) and any(e.imag for r in m.grid for e in r)]
    assert {1, 2, 3} <= {a.rank for a in dense}  # dense complex entries at ranks 1 to 3
    for atom, m in zip(atoms, inputs):
        assert reference_projector_law(m) is None
        assert validate_projector(m, name=atom.name) == atom
        assert validate_projector(m).matrix == m == atom.matrix
    for s in structures:
        again = structure_from_dict(structure_to_dict(s))
        assert [c.atoms for c in again.contexts] == [c.atoms for c in s.contexts]


def test_invariance_examples(qubit, cabello):
    s1, _, s6 = cabello.contexts
    k64 = kernel_of(s6.atoms[3])
    # the kernel is preserved by the first atom of the first context...
    assert is_invariant(k64, s1.atoms[0])
    # ...but not by the others: (0,1,1,0) maps outside under each
    assert not is_invariant(k64, s1.atoms[1])
    assert not is_invariant(k64, s1.atoms[2])
    assert not is_invariant(k64, s1.atoms[3])
    # a ray from one context is generally not invariant under another's atoms
    assert not is_invariant(range_of(s6.atoms[3]), s1.atoms[2])
    # every projector preserves its own range and kernel
    for ctx in qubit.contexts:
        for atom in ctx.atoms:
            assert is_invariant(range_of(atom), atom)
            assert is_invariant(kernel_of(atom), atom)


def test_invariance_closed_under_complement(qubit):
    # s invariant under p iff its orthocomplement is (p is Hermitian)
    rng = random.Random(666)
    atoms = [a for ctx in qubit.contexts for a in ctx.atoms]
    for _ in range(40):
        s = random_subspace(rng, 2)
        for atom in atoms:
            assert is_invariant(s, atom) == is_invariant(s.orthocomplement(), atom)


def test_trivial_subspaces_always_invariant(cabello):
    for ctx in cabello.contexts:
        for atom in ctx.atoms:
            assert is_invariant(Subspace.zero(4), atom)
            assert is_invariant(Subspace.full(4), atom)
