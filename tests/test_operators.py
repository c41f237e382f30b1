"""Projector validation, range/kernel geometry, commutation, invariance."""

from __future__ import annotations

import random

import pytest

from suplat.linalg import DimensionMismatchError, ExactMatrix
from suplat.operators import (
    NotHermitianError,
    NotIdempotentError,
    NotSquareError,
    commutes,
    is_invariant,
    kernel_of,
    projector_onto,
    range_of,
    validate_projector,
)
from suplat.subspaces import Subspace

from helpers import random_subspace


def test_validate_accepts_projectors(cabello):
    # one quarter of the all-ones matrix is a rank-1 projector
    ones = ExactMatrix.from_rows([["1/4"] * 4] * 4)
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
        validate_projector(ExactMatrix.from_rows([["1", "1"], ["0", "1"]]))
    with pytest.raises(NotHermitianError):
        # Hermitian needs conjugation, not just symmetry
        validate_projector(ExactMatrix.from_rows([["1", "i"], ["i", "0"]]))
    with pytest.raises(NotHermitianError):
        # a non-real diagonal entry
        validate_projector(ExactMatrix.from_rows([["1", "0"], ["0", "i"]]))
    with pytest.raises(NotHermitianError):
        # nonzero below the diagonal only
        validate_projector(ExactMatrix.from_rows([["1", "0", "0"], ["0", "0", "0"], ["0", "1", "0"]]))
    with pytest.raises(NotIdempotentError):
        validate_projector(ExactMatrix.from_rows([["1", "1"], ["1", "1"]]))


def test_range_examples(qubit, cabello):
    z_plus = qubit.contexts[0].atoms[0]
    assert range_of(z_plus) == Subspace.span_of([["1", "0"]], 2)
    p64 = cabello.contexts[2].atoms[3]
    assert range_of(p64) == Subspace.span_of([["0", "1", "-1", "0"]], 4)
    zero = validate_projector(ExactMatrix.zeros(2, 2))
    assert range_of(zero) == Subspace.zero(2)


def test_kernel_examples(qubit, cabello):
    z_plus = qubit.contexts[0].atoms[0]
    assert kernel_of(z_plus) == Subspace.span_of([["0", "1"]], 2)
    eye = validate_projector(ExactMatrix.identity(3))
    assert kernel_of(eye) == Subspace.zero(3)
    p64 = cabello.contexts[2].atoms[3]
    expected = Subspace.span_of(
        [["1", "0", "0", "0"], ["0", "1", "1", "0"], ["0", "0", "0", "1"]], 4
    )
    assert kernel_of(p64) == expected


def test_kernel_is_orthocomplement_of_range(qubit, cabello):
    for structure in (qubit, cabello):
        for ctx in structure.contexts:
            for atom in ctx.atoms:
                assert kernel_of(atom) == range_of(atom).orthocomplement()


def test_projector_onto_examples():
    half = ExactMatrix.from_rows([["1/2", "1/2"], ["1/2", "1/2"]])
    assert projector_onto(Subspace.span_of([["1", "1"]], 2)).matrix == half
    assert projector_onto(Subspace.zero(3)).matrix == ExactMatrix.zeros(3, 3)
    assert projector_onto(Subspace.full(3)).matrix == ExactMatrix.identity(3)


def test_projector_round_trip():
    rng = random.Random(555)
    for _ in range(40):
        n = rng.randint(2, 4)
        s = random_subspace(rng, n)
        p = projector_onto(s)
        assert p.matrix.adjoint() == p.matrix
        assert p.matrix * p.matrix == p.matrix
        assert p.rank == s.dim
        assert range_of(p) == s


def test_projector_onto_inverts_range(qubit, cabello):
    for structure in (qubit, cabello):
        for ctx in structure.contexts:
            for atom in ctx.atoms:
                rebuilt = projector_onto(range_of(atom), name=atom.name)
                assert rebuilt.matrix == atom.matrix


def test_commutes(qubit):
    z_plus, z_minus = qubit.contexts[0].atoms
    x_plus = qubit.contexts[1].atoms[0]
    assert commutes(z_plus, z_minus)
    assert not commutes(z_plus, x_plus)
    eye = validate_projector(ExactMatrix.identity(2))
    assert commutes(z_plus, eye)
    with pytest.raises(DimensionMismatchError):
        commutes(z_plus, validate_projector(ExactMatrix.identity(3)))


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
