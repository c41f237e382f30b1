"""Rule judgments and the exhaustive coloring search."""

from __future__ import annotations

import random
import sys
import time
from dataclasses import replace
from math import prod

import pytest

from helpers import (
    atom_range_lists,
    brute_force_coloring_count,
    brute_force_colorings,
    forced_coloring,
    random_structure,
    reference_ks_text,
)

from suplat.admissibility import (
    RuleStatus,
    admissibility_to_dict,
    admissibility_to_text,
    check_admissibility,
    ks_search,
    ks_to_text,
    rule1_status,
    rule2_status,
)
from suplat.contexts import Structure, validate_context
from suplat.linalg import ExactMatrix
from suplat.operators import projector_onto, validate_projector
from suplat.subspaces import Subspace
from suplat.valuation import Mode, TruthValue, evaluate_structure

T, F, G = TruthValue.TRUE, TruthValue.FALSE, TruthValue.GAP


@pytest.mark.parametrize(
    "values,expected",
    [
        ([T, F, F, F], RuleStatus.SATISFIED),
        ([F, F, F, F], RuleStatus.VACUOUS),
        ([G, G, G, G], RuleStatus.VACUOUS),
        ([T, T, F, F], RuleStatus.VIOLATED),
        ([T, G, F, F], RuleStatus.VIOLATED),
        ([T, F], RuleStatus.SATISFIED),
    ],
)
def test_rule1_statuses(values, expected):
    assert rule1_status(values) is expected


@pytest.mark.parametrize(
    "values,expected",
    [
        ([T, F, F, F], RuleStatus.SATISFIED),
        ([F, F, F, F], RuleStatus.SATISFIED),
        ([G, G, G, G], RuleStatus.VACUOUS),
        ([T, T, G, G], RuleStatus.VACUOUS),
        ([F, G, T, T], RuleStatus.VIOLATED),
        ([F, T, T, F], RuleStatus.VIOLATED),
        ([F, G, F, F], RuleStatus.VIOLATED),
    ],
)
def test_rule2_statuses(values, expected):
    assert rule2_status(values) is expected


def test_qubit_invariant_admissibility(qubit):
    valuation = evaluate_structure(qubit, ["1", "0"], Mode.INVARIANT)
    report = check_admissibility(valuation)
    by_name = {row.context: row for row in report.per_context}
    assert by_name["Sigma_z"].rule1 is RuleStatus.SATISFIED
    assert by_name["Sigma_z"].rule2 is RuleStatus.SATISFIED
    # both unallocated contexts have only gaps: vacuous throughout
    for name in ("Sigma_x", "Sigma_y"):
        assert by_name[name].rule1 is RuleStatus.VACUOUS
        assert by_name[name].rule2 is RuleStatus.VACUOUS
        assert by_name[name].gap_count == 2
        assert not by_name[name].no_true_atom
    assert report.rule1_ok and report.rule2_ok


def test_qubit_hilbert_admissibility(qubit):
    valuation = evaluate_structure(qubit, ["1", "0"], Mode.HILBERT)
    report = check_admissibility(valuation)
    for row in report.per_context:
        assert row.rule2 is RuleStatus.SATISFIED
    by_name = {row.context: row for row in report.per_context}
    # off-basis contexts are all false: flagged, not judged true-ward
    assert by_name["Sigma_x"].no_true_atom
    assert by_name["Sigma_x"].rule1 is RuleStatus.VACUOUS
    assert not by_name["Sigma_z"].no_true_atom


def test_cabello_invariant_admissibility(cabello):
    valuation = evaluate_structure(cabello, ["0", "0", "0", "1"], Mode.INVARIANT)
    report = check_admissibility(valuation)
    by_name = {row.context: row for row in report.per_context}
    for name in ("S1", "S2"):
        assert by_name[name].rule1 is RuleStatus.SATISFIED
        assert by_name[name].true_count == 1
        assert by_name[name].false_count == 3
    assert by_name["S6"].rule1 is RuleStatus.VACUOUS
    assert by_name["S6"].rule2 is RuleStatus.VACUOUS
    assert by_name["S6"].gap_count == 4


def test_admissibility_rendering(qubit):
    valuation = evaluate_structure(qubit, ["1", "0"], Mode.HILBERT)
    report = check_admissibility(valuation)
    text = admissibility_to_text(report)
    assert "context Sigma_x: true=0 false=2 gap=0 rule1=vacuous rule2=satisfied note=no-true-atom" in text
    assert text.rstrip().endswith("overall: rule1=ok rule2=ok")
    payload = admissibility_to_dict(report)
    assert payload["rule1_ok"] and payload["rule2_ok"]
    assert payload["contexts"][1]["no_true_atom"] is True


def test_ks_search_single_context(qubit):
    single = Structure([qubit.contexts[0]])
    solutions = ks_search(single)
    assert len(solutions) == 2
    assert solutions == [(0,), (1,)]
    assert ks_to_text(single, solutions) == "solutions: 2\nSigma_z:1\nSigma_z:2\n"


def test_ks_search_runs_past_the_recursion_limit(qubit):
    # every copy shares Sigma_z's two atoms, so one choice fixes all the rest
    n = sys.getrecursionlimit() + 1
    copies = Structure([replace(qubit.contexts[0], name=f"Sigma_z{i}") for i in range(n)])
    assert ks_search(copies) == [(0,) * n, (1,) * n]


def test_ks_search_shared_atom_counts(cabello):
    pair = Structure([cabello.contexts[0], cabello.contexts[1]])
    solutions = ks_search(pair)
    assert len(solutions) == brute_force_coloring_count(pair) == 10
    # whenever one context picks the shared first atom the other must too
    for sol in solutions:
        assert (sol[0] == 0) == (sol[1] == 0)
    full = ks_search(cabello)
    assert len(full) == brute_force_coloring_count(cabello) == 40


def test_ks_search_order_invariance(cabello):
    reordered = Structure([cabello.contexts[2], cabello.contexts[1], cabello.contexts[0]])
    assert len(ks_search(reordered)) == len(ks_search(cabello))
    shuffled_ctx = validate_context("S1r", list(reversed(cabello.contexts[0].atoms)))
    shuffled = Structure([shuffled_ctx, cabello.contexts[1], cabello.contexts[2]])
    assert len(ks_search(shuffled)) == len(ks_search(cabello))


def test_ks_search_prunes_conflicts():
    # two contexts sharing two atom ranges: conflicting picks must drop out
    e = ExactMatrix.from_rows
    a1 = validate_projector(e([["1", "0", "0", "0"], ["0", "0", "0", "0"], ["0", "0", "0", "0"], ["0", "0", "0", "0"]]), "a1")
    a2 = validate_projector(e([["0", "0", "0", "0"], ["0", "1", "0", "0"], ["0", "0", "0", "0"], ["0", "0", "0", "0"]]), "a2")
    a3 = validate_projector(e([["0", "0", "0", "0"], ["0", "0", "0", "0"], ["0", "0", "1", "0"], ["0", "0", "0", "0"]]), "a3")
    a4 = validate_projector(e([["0", "0", "0", "0"], ["0", "0", "0", "0"], ["0", "0", "0", "0"], ["0", "0", "0", "1"]]), "a4")
    b3 = validate_projector(e([["0", "0", "0", "0"], ["0", "0", "0", "0"], ["0", "0", "1/2", "1/2"], ["0", "0", "1/2", "1/2"]]), "b3")
    b4 = validate_projector(e([["0", "0", "0", "0"], ["0", "0", "0", "0"], ["0", "0", "1/2", "-1/2"], ["0", "0", "-1/2", "1/2"]]), "b4")
    c1 = validate_context("C1", [a1, a2, a3, a4])
    c2 = validate_context("C2", [a1, a2, b3, b4])
    structure = Structure([c1, c2])
    solutions = ks_search(structure)
    assert len(solutions) == brute_force_coloring_count(structure) == 6
    for sol in solutions:
        # shared atoms a1, a2 are the first two in both contexts
        first_shared = sol[0] if sol[0] < 2 else None
        second_shared = sol[1] if sol[1] < 2 else None
        assert first_shared == second_shared


def test_ks_solutions_are_admissible(cabello):
    range_lists = atom_range_lists(cabello)
    for sol in ks_search(cabello):
        bits = forced_coloring(range_lists, sol)
        for lat in cabello.lattices:
            values = [T if bits[r] == 1 else F for r in lat.atom_ranges]
            assert rule1_status(values) is RuleStatus.SATISFIED
            assert rule2_status(values) in (RuleStatus.SATISFIED, RuleStatus.VACUOUS)


def test_ks_text_output(cabello):
    solutions = ks_search(cabello)
    text = ks_to_text(cabello, solutions)
    lines = text.splitlines()
    assert lines[0] == "solutions: 40"
    assert lines[1] == "S1:1 S2:1 S6:1"
    assert len(lines) == 41
    # deterministic: regenerating gives identical bytes
    assert ks_to_text(cabello, ks_search(cabello)) == text


def test_ks_search_matches_brute_force_in_order(qubit, cabello):
    # the same choice tuples, in itertools.product order
    rng = random.Random(20181006)
    structures = [qubit, cabello]
    for _ in range(30):
        structure = random_structure(rng, rng.randint(2, 4))
        # random_structure puts shared atoms first; shuffled copies also
        # meet conflicts after a context's first atom
        shuffled = [validate_context(c.name, rng.sample(c.atoms, len(c.atoms))) for c in structure.contexts]
        structures += [structure, Structure(shuffled)]
    pruned = 0
    for structure in structures:
        expected = brute_force_colorings(structure)
        assert ks_search(structure) == expected
        pruned += len(expected) < prod(len(ctx.atoms) for ctx in structure.contexts)
    assert pruned >= 20


def test_ks_search_compares_no_subspaces_after_numbering(cabello, monkeypatch):
    # numbering the distinct atom ranges may compare each atom's range
    # once; the search itself must run on the numbers alone
    calls = []
    original = Subspace.__eq__

    def counting(self, other):
        calls.append(other)
        return original(self, other)

    monkeypatch.setattr(Subspace, "__eq__", counting)
    assert len(ks_search(cabello)) == 40
    assert len(calls) <= sum(len(ctx.atoms) for ctx in cabello.contexts)


# The eighteen rays of Cabello, Estebaranz and Garcia-Alcaine (Phys. Lett. A
# 212, 183, 1996) as nine orthogonal bases of C^4; each ray lies in two bases.
CABELLO_18 = (
    ((0, 0, 0, 1), (0, 0, 1, 0), (1, 1, 0, 0), (1, -1, 0, 0)),
    ((0, 0, 0, 1), (0, 1, 0, 0), (1, 0, 1, 0), (1, 0, -1, 0)),
    ((1, -1, 1, -1), (1, -1, -1, 1), (1, 1, 0, 0), (0, 0, 1, 1)),
    ((1, -1, 1, -1), (1, 1, 1, 1), (1, 0, -1, 0), (0, 1, 0, -1)),
    ((0, 0, 1, 0), (0, 1, 0, 0), (1, 0, 0, 1), (1, 0, 0, -1)),
    ((1, -1, -1, 1), (1, 1, 1, 1), (1, 0, 0, -1), (0, 1, -1, 0)),
    ((1, 1, -1, 1), (1, 1, 1, -1), (1, -1, 0, 0), (0, 0, 1, 1)),
    ((1, 1, -1, 1), (-1, 1, 1, 1), (1, 0, 1, 0), (0, 1, 0, -1)),
    ((1, 1, 1, -1), (-1, 1, 1, 1), (1, 0, 0, 1), (0, 1, -1, 0)),
)


def _ray_contexts(bases, prefix: str = "C") -> list:
    """One context of C^4 per basis of rays, named ``<prefix>1``, ``<prefix>2``, ..."""
    return [
        validate_context(
            f"{prefix}{i + 1}",
            [projector_onto(Subspace.span_of([ray], 4), name=f"P{j + 1}") for j, ray in enumerate(basis)],
        )
        for i, basis in enumerate(bases)
    ]


def test_ks_search_finds_no_coloring_of_cabello_18(cabello):
    contexts = _ray_contexts(CABELLO_18)
    # a coloring would make nine atoms true, one per basis, yet count each true ray twice
    assert ks_search(Structure(contexts)) == []
    for dropped in range(len(contexts)):
        assert len(ks_search(Structure(contexts[:dropped] + contexts[dropped + 1 :]))) == 26
    assert [[a.matrix for a in contexts[i].atoms] for i in (0, 1, 5)] == [
        [a.matrix for a in c.atoms] for c in cabello.contexts
    ]


def test_ks_search_matches_brute_force_where_prefixes_meet(qubit, cabello):
    # after Sigma_x, both of its choices leave the same masks on the later
    # contexts' bits, so the second choice reuses the first one's colorings
    x, z = qubit.contexts[1], qubit.contexts[0]
    assert x.name == "Sigma_x" and z.name == "Sigma_z"
    structures = [Structure([x, z, replace(z, name="Sigma_z2")])]
    # eight of cabello-18's bases (26 colorings): prefixes meet in few states
    structures.append(Structure(_ray_contexts(CABELLO_18)[1:]))
    rng = random.Random(31)
    for _ in range(12):
        source = rng.choice([qubit, cabello])
        picks = rng.choices(source.contexts, k=rng.randint(2, 4))
        structures.append(Structure([
            validate_context(f"{c.name}_{i}", rng.sample(c.atoms, len(c.atoms))) for i, c in enumerate(picks)
        ]))
    for structure in structures:
        assert ks_search(structure) == brute_force_colorings(structure)


def test_ks_search_expands_each_frontier_state_once():
    # seven bases share no ray with each other or with cabello-18, so all
    # 4^7 prefixes reach one state before C1; searching cabello-18's dead
    # subtree once per prefix takes seconds, once in all well under one
    independent = [((1, a, 0, 0), (a, -1, 0, 0), (0, 0, 1, a), (0, 0, a, -1)) for a in range(2, 9)]
    structure = Structure(_ray_contexts(independent, "B") + _ray_contexts(CABELLO_18))
    start = time.perf_counter()
    assert ks_search(structure) == []
    assert time.perf_counter() - start < 1.0


def test_ks_text_matches_per_coloring_join(qubit, cabello):
    rng = random.Random(57)
    single = Structure([cabello.contexts[0]])  # its first half has no context
    for structure in (qubit, cabello, single):
        assert ks_to_text(structure, []) == reference_ks_text(structure, []) == "solutions: 0\n"
        sizes = [len(ctx.atoms) for ctx in structure.contexts]
        for _ in range(20):
            solutions = [tuple(rng.randrange(k) for k in sizes) for _ in range(rng.randint(1, 12))]
            solutions += rng.choices(solutions, k=rng.randint(1, 12))
            rng.shuffle(solutions)
            assert ks_to_text(structure, solutions) == reference_ks_text(structure, solutions)
        found = ks_search(structure)
        assert ks_to_text(structure, found) == reference_ks_text(structure, found)
