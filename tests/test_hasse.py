"""Transitive reduction and DOT rendering."""

from __future__ import annotations

import random

import pytest

from suplat import hasse
from suplat.contexts import Context, Structure, validate_context
from suplat.hasse import (
    HasseGraph,
    UnknownScopeError,
    build_graph,
    emit_dot,
    render_dot,
    transitive_reduction,
)
from suplat.operators import Projector
from suplat.subspaces import Subspace
from suplat.valuation import Mode, TruthValue, evaluate_structure

from helpers import random_state, random_structure, reference_sort_key


def test_transitive_reduction_chain():
    bottom = Subspace.zero(2)
    middle = Subspace(2, [["1", "0"]])
    top = Subspace.full(2)
    # the long edge bottom -> top must be dropped
    assert transitive_reduction([bottom, middle, top]) == [(0, 1), (1, 2)]
    assert transitive_reduction([top, bottom, middle]) == [(1, 2), (2, 0)]
    assert transitive_reduction([]) == []
    assert transitive_reduction([middle]) == []


def test_reduction_closure_equals_containment(qubit, cabello):
    for structure in (qubit, cabello):
        members = structure.contexts[0].lattice.members
        edges = transitive_reduction(members)
        # transitive closure of the edge set
        count = len(members)
        reach = [[False] * count for _ in range(count)]
        for i, j in edges:
            reach[i][j] = True
        for k in range(count):
            for i in range(count):
                if reach[i][k]:
                    for j in range(count):
                        if reach[k][j]:
                            reach[i][j] = True
        for i in range(count):
            for j in range(count):
                strict = i != j and members[i].is_subspace_of(members[j])
                assert reach[i][j] == strict


def test_support_order_matches_containment_oracle(qubit, cabello):
    # build_graph orders members by atom supports; transitive_reduction
    # tests containment directly.  Both must give the same covers.
    rng = random.Random(20181004)
    structures = [qubit, cabello] + [random_structure(rng, rng.randint(2, 4)) for _ in range(30)]
    seen = set()
    for structure in structures:
        contexts = structure.contexts
        ranges = [{p.range for p in c.atoms} for c in contexts]
        seen.add(f"C^{structure.ambient_dim}")
        seen.add(f"max rank {max(p.rank for c in contexts for p in c.atoms)}")
        shares = any(a & b for i, a in enumerate(ranges) for b in ranges[i + 1:])
        seen.add("shared atoms" if shares else "no shared atoms")
        if len(contexts) == 3 and max(p.rank for c in contexts for p in c.atoms) >= 2:
            seen.add("three contexts with a rank-2 atom")
        report = evaluate_structure(structure, random_state(rng, structure.ambient_dim), Mode.HILBERT)
        scopes = {c.name: (c.lattice,) for c in contexts}
        scopes["all"] = structure.lattices
        for scope, lattices in scopes.items():
            graph = build_graph(report, scope)
            members = [node.subspace for node in graph.nodes]
            distinct = {m for lat in lattices for m in lat.members}
            assert members == sorted(distinct, key=reference_sort_key)
            assert list(graph.edges) == transitive_reduction(members)
            # An edge whose ends share no lattice: its upper end is a hull.
            owners = [{m.rsplit(":", 1)[0] for m in node.memberships} for node in graph.nodes]
            if any(not owners[i] & owners[j] for i, j in graph.edges):
                seen.add("edge between lattices")
    assert {"C^2", "C^3", "C^4", "max rank 1", "max rank 2", "shared atoms", "no shared atoms",
            "three contexts with a rank-2 atom", "edge between lattices"} <= seen


def _atom_set(label: str) -> set[str]:
    return set() if label == "0" else set(label.split("+"))


def test_boolean_lattice_edge_counts(qubit, cabello):
    # k atoms give k * 2^(k-1) covering pairs
    report_q = evaluate_structure(qubit, ["1", "0"], Mode.INVARIANT)
    assert len(build_graph(report_q, "Sigma_z").edges) == 4
    report_c = evaluate_structure(cabello, ["0", "0", "0", "1"], Mode.INVARIANT)
    for scope in ("S1", "S2", "S6"):
        assert len(build_graph(report_c, scope).edges) == 32
    # One context of k standard-basis atoms.  The k * 2^(k-1) one-atom
    # extensions are all the covers of a powerset, so edges that each add
    # one atom, that many of them, are exactly the covers.  The geometric
    # oracle tests every pair of members, so it runs only while that is cheap.
    for k in range(2, 11):
        rays = [[1 if j == i else 0 for j in range(k)] for i in range(k)]
        atoms = [Projector(f"e{i}", Subspace(k, [ray])) for i, ray in enumerate(rays)]
        report = evaluate_structure(Structure([validate_context("D", atoms)]), rays[0], Mode.INVARIANT)
        graph = build_graph(report, "D")
        assert len(graph.edges) == k * 2 ** (k - 1)
        for i, j in graph.edges:
            below, above = _atom_set(graph.nodes[i].label), _atom_set(graph.nodes[j].label)
            assert below < above and len(above - below) == 1
        if k <= 7:
            assert list(graph.edges) == transitive_reduction([node.subspace for node in graph.nodes])


def test_node_styles_match_truth_values(qubit):
    report = evaluate_structure(qubit, ["1", "0"], Mode.INVARIANT)
    dot = emit_dot(report, "Sigma_z")
    assert '"Sigma_z.1" [label="1" shape=box style=filled fillcolor=black fontcolor=white];' in dot
    assert '"Sigma_z.2" [label="2" shape=circle style=filled fillcolor=black fontcolor=white];' in dot
    x_dot = emit_dot(report, "Sigma_x")
    assert '"Sigma_x.1" [label="1" shape=circle style=solid];' in x_dot
    assert '"Sigma_x.2" [label="2" shape=circle style=solid];' in x_dot
    assert 'subgraph "cluster_Sigma_x"' in x_dot
    assert "rankdir=BT;" in x_dot


def test_shared_members_get_grey_border(cabello):
    report = evaluate_structure(cabello, ["0", "0", "0", "1"], Mode.INVARIANT)
    s1_dot = emit_dot(report, "S1")
    # the atom shared with the second context, and its complement
    assert '"S1.1" [label="1" shape=box style=filled fillcolor=black fontcolor=white color=grey penwidth=3];' in s1_dot
    assert '"S1.2+3+4" [label="2+3+4" shape=circle style=filled fillcolor=black fontcolor=white color=grey penwidth=3];' in s1_dot
    # unshared members carry no grey styling
    assert s1_dot.count("penwidth=3") == 2
    # the third lattice shares nothing nontrivial with the others
    s6_dot = emit_dot(report, "S6")
    assert "penwidth=3" not in s6_dot


def test_whole_structure_scope_merges_shared_nodes(cabello):
    report = evaluate_structure(cabello, ["0", "0", "0", "1"], Mode.INVARIANT)
    graph = build_graph(report, "all")
    # 3 * 16 members, minus the trivial pair shared three ways (4 dups)
    # and the two subspaces shared between the first two lattices
    assert len(graph.nodes) == 42
    shared_nodes = [n for n in graph.nodes if n.shared]
    assert len(shared_nodes) == 2
    for node in shared_nodes:
        assert len(node.memberships) == 2
    dot = emit_dot(report, "all")
    assert 'tooltip="S1:1 S2:1"' in dot
    assert "subgraph" not in dot


def test_whole_structure_qubit_shape(qubit):
    report = evaluate_structure(qubit, ["1", "0"], Mode.HILBERT)
    graph = build_graph(report, "all")
    # six rays between the shared bottom and top
    assert len(graph.nodes) == 8
    assert len(graph.edges) == 12
    bottom = [n for n in graph.nodes if n.subspace.is_zero()][0]
    assert len(bottom.memberships) == 3


def test_merged_nodes_are_named_after_their_first_lattice(qubit):
    renamed = Structure([Context("a:z", qubit.contexts[0].atoms), *qubit.contexts[1:]])
    report = evaluate_structure(renamed, ["1", "0"], Mode.INVARIANT)
    graph = build_graph(report, "all")
    named = [(n.node_id, n.label) for n in graph.nodes if n.memberships[0].startswith("a:z:")]
    assert named == [("a:z.0", "0"), ("a:z.2", "2"), ("a:z.1", "1"), ("a:z.1+2", "1+2")]
    assert graph.nodes[0].memberships == ("a:z:0", "Sigma_x:0", "Sigma_y:0")


def test_unknown_scope(qubit):
    report = evaluate_structure(qubit, ["1", "0"], Mode.INVARIANT)
    with pytest.raises(UnknownScopeError):
        emit_dot(report, "Sigma_w")


def test_dot_byte_stability(cabello):
    report = evaluate_structure(cabello, ["0", "0", "0", "1"], Mode.INVARIANT)
    for scope in ("S1", "all"):
        first = emit_dot(report, scope)
        second = emit_dot(evaluate_structure(cabello, ["0", "0", "0", "1"], Mode.INVARIANT), scope)
        assert first == second


def test_empty_graph_renders():
    dot = render_dot(HasseGraph((), ()), "empty")
    assert dot == 'digraph "empty" {\n  rankdir=BT;\n}\n'


def test_edges_point_upward(cabello):
    report = evaluate_structure(cabello, ["0", "0", "0", "1"], Mode.INVARIANT)
    graph = build_graph(report, "S2")
    for i, j in graph.edges:
        assert graph.nodes[i].subspace.dim < graph.nodes[j].subspace.dim
        assert graph.nodes[i].subspace.is_subspace_of(graph.nodes[j].subspace)


def test_dot_quotes_each_node_id_once(cabello, monkeypatch):
    calls = []
    quote = hasse._quote
    monkeypatch.setattr(hasse, "_quote", lambda text: calls.append(text) or quote(text))
    report = evaluate_structure(cabello, ["0", "0", "0", "1"], Mode.INVARIANT)
    # Per node: the id and the label, plus the tooltip outside a cluster.
    # Fixed: the graph name, plus the cluster's name and label.
    for scope, per_node, fixed in (("S1", 2, 3), ("all", 3, 1)):
        graph = build_graph(report, scope)
        assert len(graph.edges) > len(graph.nodes)
        calls.clear()
        emit_dot(report, scope)
        assert len(calls) <= per_node * len(graph.nodes) + fixed
