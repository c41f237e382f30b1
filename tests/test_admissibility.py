"""Rule judgments and the exhaustive coloring search."""

from __future__ import annotations

import json
import random
import sys
import time
from functools import lru_cache
from itertools import combinations, product
from math import gcd, prod

import pytest

from helpers import (
    atom_range_lists,
    brute_force_coloring_count,
    brute_force_colorings,
    forced_coloring,
    random_structure,
    reference_ks_dict,
    reference_ks_text,
)

from suplat.admissibility import (
    RuleStatus,
    admissibility_to_dict,
    admissibility_to_text,
    check_admissibility,
    ks_search,
    ks_to_json,
    ks_to_text,
    rule1_status,
    rule2_status,
)
from suplat.contexts import Context, Structure, validate_context
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
    assert ks_to_text(single) == "solutions: 2\nSigma_z:1\nSigma_z:2\n"


def test_ks_search_runs_past_the_recursion_limit(qubit):
    # every copy shares Sigma_z's two atoms, so one choice fixes all the rest
    n = sys.getrecursionlimit() + 1
    copies = Structure([Context(f"Sigma_z{i}", qubit.contexts[0].atoms) for i in range(n)])
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
            values = [T if bits[a.range] == 1 else F for a in lat.context.atoms]
            assert rule1_status(values) is RuleStatus.SATISFIED
            assert rule2_status(values) in (RuleStatus.SATISFIED, RuleStatus.VACUOUS)


def test_ks_text_output(cabello):
    text = ks_to_text(cabello)
    lines = text.splitlines()
    assert lines[0] == "solutions: 40"
    assert lines[1] == "S1:1 S2:1 S6:1"
    assert len(lines) == 41
    # deterministic: regenerating gives identical bytes
    assert ks_to_text(cabello) == text


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
    # bases of completed grid-3, each sharing a ray with an earlier pick, in
    # shuffled order: a choice can leave a context ahead no atom before the
    # search reaches it
    completed = _completed_grid_3()[1].contexts
    for k in [rng.randint(3, 7) for _ in range(12)]:
        picks = [rng.choice(completed)]
        while len(picks) < k:
            seen = {a.name for c in picks for a in c.atoms}
            picks.append(rng.choice([c for c in completed if c not in picks and seen & {a.name for a in c.atoms}]))
        rng.shuffle(picks)
        structures.append(Structure([validate_context(c.name, rng.sample(c.atoms, 3)) for c in picks]))
    pruned = 0
    for structure in structures:
        expected = brute_force_colorings(structure)
        assert ks_search(structure) == expected
        pruned += len(expected) < prod(len(ctx.atoms) for ctx in structure.contexts)
    assert pruned >= 20


def test_ks_search_compares_no_subspaces_after_numbering(monkeypatch):
    # numbering the distinct atom ranges may compare each atom's range
    # once; the search itself must run on the numbers alone.  cabello-3 with
    # each basis built on its own, so S1.P1 and S2.P1 are two equal ranges
    # that the numbering must compare (the built-in shares one range).
    structure = Structure(_ray_contexts([CABELLO_18[i] for i in (0, 1, 5)]))
    calls = []
    original = Subspace.__eq__

    def counting(self, other):
        calls.append(other)
        return original(self, other)

    monkeypatch.setattr(Subspace, "__eq__", counting)
    assert len(ks_search(structure)) == 40
    assert 0 < len(calls) <= sum(len(ctx.atoms) for ctx in structure.contexts)
    calls.clear()
    assert len(ks_search(structure)) == 40 and calls == []


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


@lru_cache(maxsize=None)
def _completed_grid_3() -> tuple[int, Structure]:
    """The number of rays, and the structure of every orthogonal basis, of
    grid-3 completed: its 49 rays of C^3 (coprime entries in {0, +-1, +-2},
    the first nonzero one positive) and the primitive cross product of each
    orthogonal pair, in basis order.  Each ray's projector is built once."""
    def canonical(v):
        g = gcd(*v) if next(x for x in v if x) > 0 else -gcd(*v)
        return tuple(x // g for x in v)

    def dot(u, v):
        return sum(a * b for a, b in zip(u, v))

    rays = [v for v in product((0, 1, -1, 2, -2), repeat=3) if any(v) and canonical(v) == v]
    for (a1, a2, a3), (b1, b2, b3) in [(u, v) for u, v in combinations(rays, 2) if dot(u, v) == 0]:
        c = canonical((a2 * b3 - a3 * b2, a3 * b1 - a1 * b3, a1 * b2 - a2 * b1))
        if c not in rays:
            rays.append(c)
    atoms = [projector_onto(Subspace.span_of([v], 3), name=f"r{i + 1}") for i, v in enumerate(rays)]
    orthogonal = {(a, b) for a, b in combinations(range(len(rays)), 2) if dot(rays[a], rays[b]) == 0}
    bases = [t for t in combinations(range(len(rays)), 3) if orthogonal.issuperset(combinations(t, 2))]
    return len(rays), Structure([validate_context(f"C{i + 1}", [atoms[a] for a in t]) for i, t in enumerate(bases)])


def test_ks_search_finds_no_coloring_of_completed_grid_3():
    # a Kochen-Specker set where many prefixes agree with every context
    # passed while a context ahead already holds two of their true rays; a
    # search testing each choice in its own context alone filled any memory cap
    rays, structure = _completed_grid_3()
    assert (rays, len(structure.contexts)) == (109, 86)
    start = time.perf_counter()
    assert ks_search(structure) == []
    assert ks_to_text(structure) == "solutions: 0\n"
    assert ks_to_json(structure) == '{\n  "count": 0,\n  "solutions": []\n}\n'
    assert time.perf_counter() - start < 1.0


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
    structures = [Structure([x, z, Context("Sigma_z2", z.atoms)])]
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


def _assert_outputs_match_oracles(structure) -> None:
    found = ks_search(structure)
    assert ks_to_text(structure) == reference_ks_text(structure, found)
    assert ks_to_json(structure) == json.dumps(reference_ks_dict(structure, found), indent=2) + "\n"


def test_ks_text_matches_per_coloring_join(qubit, cabello):
    rng = random.Random(57)
    structures = [qubit, cabello, Structure([cabello.contexts[0]])]
    structures += [random_structure(rng, rng.randint(2, 4)) for _ in range(20)]
    # context names that JSON escapes: quotes, backslashes, non-ASCII text
    names = ['say "hi"', "back\\slash", "n\u00e4me \u03a3", "\u2603\U0001f600"]
    structures.append(Structure([Context(n, c.atoms) for c, n in zip(qubit.contexts, names)]))
    structures.append(Structure([Context(n, c.atoms) for c, n in zip(cabello.contexts, names[1:])]))
    for structure in structures:
        assert ks_search(structure) == brute_force_colorings(structure)
        _assert_outputs_match_oracles(structure)
    # cabello-18 without its first basis (26 colorings), and whole (none);
    # brute_force_colorings takes seconds here, and the search is checked
    # against it on the first in the tests above
    _assert_outputs_match_oracles(Structure(_ray_contexts(CABELLO_18[1:])))
    uncolorable = Structure(_ray_contexts(CABELLO_18))
    assert ks_to_text(uncolorable) == "solutions: 0\n"
    assert ks_to_json(uncolorable) == '{\n  "count": 0,\n  "solutions": []\n}\n'
    _assert_outputs_match_oracles(uncolorable)


def test_ks_outputs_where_prefixes_of_different_widths_meet():
    # B shares no ray with A's standard basis, so all ten choices of A reach
    # one state before B; its first visitor writes "A:1 ", and "A:10 " is
    # wider, so later visitors must cut the first visitor's width
    n = 10
    unit = [[int(i == j) for j in range(n)] for i in range(n)]
    pairs = [[x + s * y for x, y in zip(unit[2 * j], unit[2 * j + 1])] for j in range(n // 2) for s in (1, -1)]
    structure = Structure([
        validate_context(name, [projector_onto(Subspace.span_of([ray], n), name=f"P{i + 1}") for i, ray in enumerate(rays)])
        for name, rays in (("A", unit), ("B", pairs))
    ])
    assert len(ks_search(structure)) == 100
    assert ks_search(structure) == brute_force_colorings(structure)
    assert ks_to_text(structure).splitlines()[-1] == "A:10 B:10"
    _assert_outputs_match_oracles(structure)
    # B first: "B:1 " and "B:10 " reach one state before A
    _assert_outputs_match_oracles(Structure(list(reversed(structure.contexts))))


def test_ks_search_and_text_stay_linear_on_a_long_chain(qubit):
    # each copy has Sigma_z's two atoms, so the search walks two paths of
    # 40000 frames that never repeat a state; copying a prefix per frame
    # makes this quadratic
    n = 40000
    copies = Structure([Context(f"Z{i}", qubit.contexts[0].atoms) for i in range(n)])
    start = time.perf_counter()
    found = ks_search(copies)
    text = ks_to_text(copies)
    assert time.perf_counter() - start < 1.5
    assert found == [(0,) * n, (1,) * n]
    assert text.count("\n") == 3 and text.endswith(f"Z{n - 1}:2\n")
