"""Three-valued evaluation in both modes."""

from __future__ import annotations

import random

import pytest

from suplat import contexts, valuation
from suplat.admissibility import check_admissibility
from suplat.contexts import ZeroStateError, allocated_lattices, structure_from_dict, structure_to_dict
from suplat.datasets import builtin_structure
from suplat.linalg import DimensionMismatchError, GaussianRational
from suplat.operators import kernel_of, range_of
from suplat.subspaces import Subspace
from suplat.valuation import (
    Mode,
    TruthValue,
    evaluate,
    evaluate_structure,
    report_to_dict,
    report_to_text,
)

from helpers import random_scalar, random_state, random_structure, reference_report

E4 = ["0", "0", "0", "1"]


def test_trivial_subspaces_bivalent(qubit):
    for mode in Mode:
        assert evaluate(qubit, ["1", "0"], Subspace.zero(2), mode) is TruthValue.FALSE
        assert evaluate(qubit, ["1", "0"], Subspace.full(2), mode) is TruthValue.TRUE


def test_qubit_allocated_context_bivalent(qubit):
    z_plus = range_of(qubit.contexts[0].atoms[0])
    z_minus = range_of(qubit.contexts[0].atoms[1])
    for mode in Mode:
        assert evaluate(qubit, ["1", "0"], z_plus, mode) is TruthValue.TRUE
        assert evaluate(qubit, ["1", "0"], z_minus, mode) is TruthValue.FALSE


def test_qubit_unallocated_atoms_gap_vs_false(qubit):
    x_plus = range_of(qubit.contexts[1].atoms[0])
    y_plus = range_of(qubit.contexts[2].atoms[0])
    for ray in (x_plus, y_plus):
        assert evaluate(qubit, ["1", "0"], ray, Mode.INVARIANT) is TruthValue.GAP
        assert evaluate(qubit, ["1", "0"], ray, Mode.HILBERT) is TruthValue.FALSE


def test_cabello_evaluation_at_e4(cabello):
    s1, s2, s6 = cabello.contexts
    assert evaluate(cabello, E4, range_of(s1.atoms[0]), Mode.INVARIANT) is TruthValue.TRUE
    assert evaluate(cabello, E4, range_of(s1.atoms[1]), Mode.INVARIANT) is TruthValue.FALSE
    # members of the unallocated third lattice are gaps
    assert evaluate(cabello, E4, range_of(s6.atoms[1]), Mode.INVARIANT) is TruthValue.GAP
    # the kernel of the third context's last atom belongs only to that
    # lattice (it is not invariant under the other contexts), so it is a
    # gap at e4 even though e4 lies inside it
    k64 = kernel_of(s6.atoms[3])
    assert k64.contains_vector(E4)
    assert evaluate(cabello, E4, k64, Mode.INVARIANT) is TruthValue.GAP
    assert evaluate(cabello, E4, k64, Mode.HILBERT) is TruthValue.TRUE


def test_membership_certification_is_absolute(cabello):
    # a subspace shared by both allocated lattices gets one value
    shared = range_of(cabello.contexts[1].atoms[0])  # equals ran of S1 atom 1
    report = evaluate_structure(cabello, E4, Mode.INVARIANT)
    assert report.entries["S1.1"] is TruthValue.TRUE
    assert report.entries["S2.1"] is TruthValue.TRUE
    assert [report.value(i, cabello.contexts[i].support(shared)) for i in (0, 1)] == [TruthValue.TRUE] * 2


def _member_values(report):
    """Each member of each lattice with its value, read off the report's entries."""
    return [
        (member, report.entries[f"{lat.name}.{label}"])
        for lat in report.structure.lattices
        for member, label in zip(lat.members, lat.labels())
    ]


def test_evaluate_structure_report_shape(qubit):
    report = evaluate_structure(qubit, ["1", "0"], Mode.INVARIANT)
    assert report.allocated == ("Sigma_z",)
    # one entry per member of every lattice
    assert len(report.entries) == 12
    for i, lattice in enumerate(qubit.lattices):
        for member in lattice.members:
            index = lattice.index_of(member)
            key = f"{lattice.name}.{lattice.labels()[index]}"
            assert report.entries[key] is report.value(i, lattice.masks[index])
    assert report.entries["Sigma_z.1"] is TruthValue.TRUE
    assert report.entries["Sigma_z.2"] is TruthValue.FALSE
    assert report.entries["Sigma_x.1"] is TruthValue.GAP
    assert report.entries["Sigma_y.2"] is TruthValue.GAP
    assert report.entries["Sigma_x.1+2"] is TruthValue.TRUE


def test_no_allocation_means_all_gaps(qubit):
    # (1,2) sits in no atom range, so every nontrivial member is a gap
    report = evaluate_structure(qubit, ["1", "2"], Mode.INVARIANT)
    assert report.allocated == ()
    for member, value in _member_values(report):
        if member.is_zero():
            assert value is TruthValue.FALSE
        elif member.is_full():
            assert value is TruthValue.TRUE
        else:
            assert value is TruthValue.GAP


def test_hilbert_mode_flags_all_false_states(qubit):
    report = evaluate_structure(qubit, ["1", "2"], Mode.HILBERT)
    assert report.notes
    for member, value in _member_values(report):
        if not member.is_zero() and not member.is_full():
            assert value is TruthValue.FALSE
    in_range = evaluate_structure(qubit, ["1", "0"], Mode.HILBERT)
    assert in_range.notes == ()


@pytest.mark.parametrize(
    ("name", "state", "noted"),
    [
        ("pauli-qubit", "1,2", True),
        ("pauli-qubit", "1,0", False),
        ("cabello-3", "1,2,3,5", True),
        # S6's first atom annihilates the state, so S6.2+3+4 holds it
        ("cabello-3", "1,2,3,4", False),
    ],
)
def test_hilbert_note_iff_no_proper_member_holds_the_state(name, state, noted):
    report = evaluate_structure(builtin_structure(name), state.split(","), Mode.HILBERT)
    assert bool(report.notes) is noted
    assert any(v is TruthValue.TRUE for m, v in _member_values(report) if not m.is_full()) is not noted
    if name == "cabello-3" and not noted:
        assert report.entries["S6.2+3+4"] is TruthValue.TRUE


def test_excluded_middle_everywhere(qubit, cabello):
    rng = random.Random(888)
    for structure in (qubit, cabello):
        atoms = [a for ctx in structure.contexts for a in ctx.atoms]
        pairs = [(range_of(a), kernel_of(a)) for a in atoms]
        for _ in range(25):
            state = random_state(rng, structure.ambient_dim)
            for mode in Mode:
                for rng_s, ker_s in pairs:
                    assert evaluate(structure, state, rng_s.meet(ker_s), mode) is TruthValue.FALSE
                    assert evaluate(structure, state, rng_s.join(ker_s), mode) is TruthValue.TRUE


def test_mode_agreement_on_allocated_members(cabello):
    # wherever invariant mode is bivalent the two modes agree
    rng = random.Random(999)
    states = [E4, ["0", "0", "1", "0"], ["1", "1", "0", "0"]]
    states += [random_state(rng, 4) for _ in range(10)]
    for state in states:
        inv = evaluate_structure(cabello, state, Mode.INVARIANT)
        hil = evaluate_structure(cabello, state, Mode.HILBERT)
        for key, value in inv.entries.items():
            if value is not TruthValue.GAP:
                assert hil.entries[key] is value


def test_state_errors(qubit):
    with pytest.raises(ZeroStateError):
        evaluate(qubit, ["0", "0"], Subspace.zero(2), Mode.INVARIANT)
    with pytest.raises(DimensionMismatchError):
        evaluate(qubit, ["1", "0", "0"], Subspace.zero(2), Mode.INVARIANT)
    with pytest.raises(DimensionMismatchError):
        evaluate(qubit, ["1", "0"], Subspace.zero(3), Mode.INVARIANT)
    with pytest.raises(ZeroStateError):
        evaluate_structure(qubit, ["0", "0"], Mode.HILBERT)


def test_report_serialization(qubit):
    report = evaluate_structure(qubit, ["1", "0"], Mode.INVARIANT)
    text = report_to_text(report)
    assert text.startswith("state: 1,0\nmode: invariant\nallocated: Sigma_z\n")
    assert "Sigma_x.1 = 0/0" in text
    assert text.endswith("Sigma_y.1+2 = 1\n")
    payload = report_to_dict(report)
    assert payload["mode"] == "invariant"
    assert payload["entries"]["Sigma_z.1"] == "1"
    assert payload["entries"]["Sigma_x.2"] == "0/0"
    assert payload["state"] == ["1", "0"]


def test_truth_value_rendering():
    assert str(TruthValue.TRUE) == "1"
    assert str(TruthValue.FALSE) == "0"
    assert str(TruthValue.GAP) == "0/0"


def test_states_with_complex_parts(qubit):
    y_plus = range_of(qubit.contexts[2].atoms[0])
    state = [GaussianRational(1), GaussianRational(0, 1)]  # (1, i)
    assert evaluate(qubit, state, y_plus, Mode.INVARIANT) is TruthValue.TRUE
    report = evaluate_structure(qubit, state, Mode.INVARIANT)
    assert report.allocated == ("Sigma_y",)
    assert report.entries["Sigma_y.1"] is TruthValue.TRUE
    assert report.entries["Sigma_y.2"] is TruthValue.FALSE
    assert report.entries["Sigma_z.1"] is TruthValue.GAP


def _differential_states(rng, structure):
    """Atom rays, sums of two rays, and random (complex) vectors."""
    rays = [b for ctx in structure.contexts for a in ctx.atoms for b in a.range.basis]
    states = rng.sample(rays, 2)
    for u, w in (rng.sample(rays, 2) for _ in range(2)):
        states.append(tuple(x + y for x, y in zip(u, w)))
    states.append(random_state(rng, structure.ambient_dim))
    states.append(tuple(random_scalar(rng) for _ in range(structure.ambient_dim)))
    return [s for s in states if any(s)]


def test_support_valuation_matches_row_reduction_oracle(qubit, cabello):
    # rank-1 and rank-2 atoms, shared and unshared, in both modes
    rng = random.Random(20140309)
    structures = [qubit, cabello] + [random_structure(rng, rng.randint(2, 4)) for _ in range(16)]
    cross_certified = 0
    for structure in structures:
        for state in _differential_states(rng, structure):
            for mode in Mode:
                expected, expected_values = reference_report(structure, state, mode)
                report = evaluate_structure(structure, state, mode)
                assert report_to_text(report) == report_to_text(expected)
                assert report.entries == expected.entries
                assert [lat.name for lat in allocated_lattices(structure, state)] == list(expected.allocated)
                for member, value in expected_values.items():
                    assert evaluate(structure, state, member, mode) is value
                fresh = evaluate_structure(structure, state, mode)
                assert check_admissibility(fresh) == check_admissibility(expected)
                if mode is Mode.INVARIANT:
                    # bivalent nontrivial members of an unallocated lattice,
                    # certified through another lattice
                    cross_certified += sum(
                        expected.entries[f"{lat.name}.{label}"] is not TruthValue.GAP
                        for lat in structure.lattices if lat.name not in expected.allocated
                        for m, label in zip(lat.members, lat.labels()) if not m.is_zero() and not m.is_full()
                    )
    assert cross_certified >= 5


def test_value_of_reuses_the_report_supports(cabello, monkeypatch):
    calls = []
    original = valuation.state_supports

    def counting(structure, v):
        calls.append(v)
        return original(structure, v)

    s6 = cabello.contexts[2]
    subspaces = [range_of(a) for c in cabello.contexts for a in c.atoms]
    subspaces += [kernel_of(s6.atoms[3]), Subspace.zero(4), Subspace.full(4)]
    expected = {mode: [evaluate(cabello, E4, s, mode) for s in subspaces] for mode in Mode}
    monkeypatch.setattr(valuation, "state_supports", counting)
    for mode in Mode:
        calls.clear()
        report = evaluate_structure(cabello, E4, mode)
        assert [report.value_of(s) for s in subspaces] == expected[mode]
        assert len(calls) == 1


def test_evaluate_builds_no_lattice(monkeypatch):
    structure = structure_from_dict(structure_to_dict(builtin_structure("cabello-3")))

    def refuse(context):
        raise AssertionError(f"lattice of {context.name} built")

    monkeypatch.setattr(contexts, "InvariantLattice", refuse)
    s1, s2, s6 = structure.contexts
    k64 = kernel_of(s6.atoms[3])
    cases = [
        (range_of(s1.atoms[0]), TruthValue.TRUE, TruthValue.TRUE),
        (range_of(s2.atoms[1]), TruthValue.FALSE, TruthValue.FALSE),
        (range_of(s6.atoms[1]), TruthValue.GAP, TruthValue.FALSE),
        (k64, TruthValue.GAP, TruthValue.TRUE),
    ]
    for subspace, invariant, hilbert in cases:
        assert evaluate(structure, E4, subspace, Mode.INVARIANT) is invariant
        assert evaluate(structure, E4, subspace, Mode.HILBERT) is hilbert
