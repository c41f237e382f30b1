"""Acceptance suite: one criterion per test, one pass/fail line under pytest -v.

Each test exercises an advertised behavior end to end against frozen
expected values.  Checks 05b and 07c concern K, the kernel of the third
Cabello context's fourth atom: K = {v : v2 = v3} = span{e1, (0,1,1,0), e4}.
K is invariant under that context only, because (0,1,1,0) lies in K but
the second atoms of the first two contexts map it to (0,0,1,0) and
(0,1,0,0), which do not.  So K is a member of the unallocated third
lattice alone: at the state (0,0,0,1) it is a gap in invariant mode and
true in Hilbert mode, although the state lies in K.  That is the
localized Kochen-Specker contrast between the weakened structure and the
Hilbert lattice.
"""

from __future__ import annotations

import random
from pathlib import Path

from helpers import brute_force_coloring_count, random_matrix, random_state, random_subspace
from suplat.admissibility import RuleStatus, check_admissibility, ks_search
from suplat.contexts import (
    Structure,
    is_lattice_member,
    shared_members,
    structure_from_dict,
    structure_to_dict,
    validate_context,
)
from suplat.hasse import build_graph, emit_dot
from suplat.linalg import as_scalar
from suplat.operators import kernel_of, projector_onto, range_of
from suplat.subspaces import Subspace
from suplat.valuation import Mode, TruthValue, evaluate, evaluate_structure, report_to_text

GOLDEN = Path(__file__).parent / "golden"
E4 = ["0", "0", "0", "1"]


def test_criterion_01_qubit_bivaluation(qubit):
    z_up = range_of(qubit.contexts[0].atoms[0])
    z_down = range_of(qubit.contexts[0].atoms[1])
    for mode in (Mode.INVARIANT, Mode.HILBERT):
        assert evaluate(qubit, ["1", "0"], z_up, mode) is TruthValue.TRUE
        assert evaluate(qubit, ["1", "0"], z_down, mode) is TruthValue.FALSE


def test_criterion_02_gap_reports_match_golden_files(qubit):
    cases = (
        (Mode.INVARIANT, "qubit_state10_invariant.txt", TruthValue.GAP),
        (Mode.HILBERT, "qubit_state10_hilbert.txt", TruthValue.FALSE),
    )
    for mode, filename, off_axis in cases:
        report = evaluate_structure(qubit, ["1", "0"], mode)
        assert report_to_text(report) == (GOLDEN / filename).read_text(encoding="utf-8")
        for key in ("Sigma_x.1", "Sigma_x.2", "Sigma_y.1", "Sigma_y.2"):
            assert report.entries[key] is off_axis


def test_criterion_03_qubit_lattice_members(qubit):
    lattice = qubit.lattices[0]
    assert len(lattice.members) == 4
    assert set(lattice.members) == {
        Subspace.zero(2),
        Subspace.span_of([["0", "1"]], 2),
        Subspace.span_of([["1", "0"]], 2),
        Subspace.full(2),
    }
    assert [m.basis_literals() for m in lattice.members] == [
        [],
        [["0", "1"]],
        [["1", "0"]],
        [["1", "0"], ["0", "1"]],
    ]


def _operation_tables(lattice):
    """Index tables for meet and join; asserts closure along the way."""
    members = lattice.members
    n = len(members)
    meet_t = [[0] * n for _ in range(n)]
    join_t = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            low = members[i].meet(members[j])
            high = members[i].join(members[j])
            assert lattice.has_member(low) and lattice.has_member(high)
            meet_t[i][j] = meet_t[j][i] = lattice.index_of(low)
            join_t[i][j] = join_t[j][i] = lattice.index_of(high)
    return meet_t, join_t


def test_criterion_04_cabello_contexts_and_distributivity(cabello):
    for ctx in cabello.contexts:
        assert validate_context(ctx.name, ctx.atoms).atoms == ctx.atoms
    for lattice in cabello.lattices:
        assert len(lattice.members) == 16
        meet_t, join_t = _operation_tables(lattice)
        n = len(lattice.members)
        for a in range(n):
            for b in range(n):
                for c in range(n):
                    assert meet_t[a][join_t[b][c]] == join_t[meet_t[a][b]][meet_t[a][c]]
                    assert join_t[a][meet_t[b][c]] == meet_t[join_t[a][b]][join_t[a][c]]


def test_criterion_05a_shared_pair_between_first_two_lattices(cabello):
    l1, l2 = cabello.lattices[0], cabello.lattices[1]
    nontrivial = [
        m for m in shared_members(l2, l1) if not m.is_zero() and not m.is_full()
    ]
    shared_atom = cabello.contexts[1].atoms[0]
    assert set(nontrivial) == {range_of(shared_atom), kernel_of(shared_atom)}


def test_criterion_05b_rotated_kernel_membership_in_all_three(cabello):
    """K is a member of the third lattice only, not of all three.

    Refutes the claim that K is invariant under the first two contexts:
    (0,1,1,0) lies in K, and each of their second atoms maps it out of K.
    The enumerated lattices agree with the invariance test on every context.
    """
    kernel = kernel_of(cabello.contexts[2].atoms[3])
    assert kernel == Subspace.span_of([["1", "0", "0", "0"], ["0", "1", "1", "0"], E4], 4)
    membership = [is_lattice_member(kernel, ctx) for ctx in cabello.contexts]
    assert membership == [False, False, True]
    assert [lattice.has_member(kernel) for lattice in cabello.lattices] == membership

    witness = ["0", "1", "1", "0"]
    assert kernel.contains_vector(witness)
    images = [ctx.atoms[1].matrix.apply(witness) for ctx in cabello.contexts[:2]]
    assert images == [
        tuple(as_scalar(x) for x in ("0", "0", "1", "0")),
        tuple(as_scalar(x) for x in ("0", "1", "0", "0")),
    ]
    assert not any(kernel.contains_vector(image) for image in images)


def test_criterion_06_shared_atom_below_rotated_kernel(cabello):
    ray = range_of(cabello.contexts[0].atoms[0])
    kernel = kernel_of(cabello.contexts[2].atoms[3])
    assert ray.is_subspace_of(kernel)


def test_criterion_07a_allocated_contexts_bivalent_one_true(cabello):
    report = evaluate_structure(cabello, E4, Mode.INVARIANT)
    assert report.allocated == ("S1", "S2")
    for lattice in cabello.lattices[:2]:
        values = [report.values[r] for r in lattice.atom_ranges]
        assert all(v is not TruthValue.GAP for v in values)
        assert sum(1 for v in values if v is TruthValue.TRUE) == 1


def test_criterion_07b_members_only_in_third_lattice_gap(cabello):
    report = evaluate_structure(cabello, E4, Mode.INVARIANT)
    l1, l2, l6 = cabello.lattices
    only_third = [
        m for m in l6.members if not l1.has_member(m) and not l2.has_member(m)
    ]
    assert len(only_third) == 14
    assert all(report.values[m] is TruthValue.GAP for m in only_third)


def test_criterion_07c_rotated_kernel_true_at_axis_state(cabello):
    """K contains the state (0,0,0,1), yet invariant mode leaves it a gap.

    Refutes the claim that invariant mode values K as true there: K
    belongs only to the third lattice, which the state does not allocate,
    so no allocated lattice certifies it.  Hilbert mode values it true.
    """
    kernel = kernel_of(cabello.contexts[2].atoms[3])
    assert kernel.contains_vector(E4)
    expected = {Mode.INVARIANT: TruthValue.GAP, Mode.HILBERT: TruthValue.TRUE}
    for mode, value in expected.items():
        report = evaluate_structure(cabello, E4, mode)
        assert report.values[kernel] is value
        assert report.entries["S6.1+2+3"] is value
        assert evaluate(cabello, E4, kernel, mode) is value


def test_criterion_08_admissibility_rules(qubit, cabello):
    judged = check_admissibility(evaluate_structure(cabello, E4, Mode.INVARIANT))
    by_name = {row.context: row for row in judged.per_context}
    assert by_name["S1"].rule1 is RuleStatus.SATISFIED
    assert by_name["S2"].rule1 is RuleStatus.SATISFIED
    assert by_name["S6"].rule1 is RuleStatus.VACUOUS
    sublattice = check_admissibility(evaluate_structure(qubit, ["1", "0"], Mode.HILBERT))
    assert all(row.rule2 is RuleStatus.SATISFIED for row in sublattice.per_context)


def test_criterion_09_excluded_middle_despite_gaps(qubit, cabello):
    rng = random.Random(90)
    gapped_pairs = 0
    for structure in (qubit, cabello):
        derived = []
        for ctx in structure.contexts:
            for atom in ctx.atoms:
                r, k = range_of(atom), kernel_of(atom)
                derived.append((r, k, r.meet(k), r.join(k)))
        for _ in range(100):
            state = random_state(rng, structure.ambient_dim)
            for r, k, both, either in derived:
                for mode in (Mode.INVARIANT, Mode.HILBERT):
                    assert evaluate(structure, state, both, mode) is TruthValue.FALSE
                    assert evaluate(structure, state, either, mode) is TruthValue.TRUE
                if (
                    evaluate(structure, state, r, Mode.INVARIANT) is TruthValue.GAP
                    and evaluate(structure, state, k, Mode.INVARIANT) is TruthValue.GAP
                ):
                    gapped_pairs += 1
    # the law must have been exercised on gapped components, not only bivalent ones
    assert gapped_pairs > 0


def test_criterion_10_coloring_counts(qubit, cabello):
    single = Structure([qubit.contexts[0]])
    assert len(ks_search(single)) == 2

    s1, s2 = cabello.contexts[0], cabello.contexts[1]
    pair = Structure([s1, s2])
    count = len(ks_search(pair))
    assert count == brute_force_coloring_count(pair) == 10

    assert len(ks_search(Structure([s2, s1]))) == count
    s1_reversed = validate_context(s1.name, list(reversed(s1.atoms)))
    assert len(ks_search(Structure([s1_reversed, s2]))) == count


def _closure_matches_containment(members, edges):
    n = len(members)
    reach = [[False] * n for _ in range(n)]
    for i, j in edges:
        reach[i][j] = True
    for k in range(n):
        for i in range(n):
            if reach[i][k]:
                for j in range(n):
                    if reach[k][j]:
                        reach[i][j] = True
    return all(
        reach[i][j] == (i != j and members[i].is_subspace_of(members[j]))
        for i in range(n)
        for j in range(n)
    )


def test_criterion_11_hasse_edges_closure_stability(qubit, cabello):
    report_q = evaluate_structure(qubit, ["1", "0"], Mode.INVARIANT)
    for lattice in qubit.lattices:
        graph = build_graph(report_q, lattice.name)
        assert len(graph.edges) == 4
        assert _closure_matches_containment(lattice.members, graph.edges)
    report_c = evaluate_structure(cabello, E4, Mode.INVARIANT)
    for lattice in cabello.lattices:
        graph = build_graph(report_c, lattice.name)
        assert len(graph.edges) == 32
        assert _closure_matches_containment(lattice.members, graph.edges)
    # byte stability, with the structure rebuilt from scratch
    rebuilt = structure_from_dict(structure_to_dict(cabello))
    report_r = evaluate_structure(rebuilt, E4, Mode.INVARIANT)
    for scope in ("S1", "S2", "S6", "all"):
        assert emit_dot(report_c, scope) == emit_dot(report_r, scope)


def test_criterion_12_property_suites(qubit, cabello):
    rng = random.Random(120)
    for index in range(504):
        dim = 2 + index % 3
        a = random_subspace(rng, dim)
        b = random_subspace(rng, dim)
        c = random_subspace(rng, dim)
        assert a.meet(b) == b.meet(a)
        assert a.join(b) == b.join(a)
        assert a.meet(b.meet(c)) == a.meet(b).meet(c)
        assert a.join(b.join(c)) == a.join(b).join(c)
        assert a.meet(a.join(b)) == a
        assert a.join(a.meet(b)) == a
        assert a.join(b).orthocomplement() == a.orthocomplement().meet(b.orthocomplement())
        assert a.meet(b).orthocomplement() == a.orthocomplement().join(b.orthocomplement())
        assert a.orthocomplement().orthocomplement() == a
        low = a if a.is_subspace_of(c) else a.meet(c)
        assert low.join(b.meet(c)) == low.join(b).meet(c)

    for _ in range(120):
        m = random_matrix(rng, rng.randint(1, 5), rng.randint(1, 5))
        reduced, pivots, rank = m.rref()
        assert reduced.rref() == (reduced, pivots, rank)
        assert rank + m.null_space().rows == m.cols

    for structure in (qubit, cabello):
        for ctx in structure.contexts:
            for atom in ctx.atoms:
                assert projector_onto(range_of(atom)).matrix == atom.matrix
