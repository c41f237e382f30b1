"""Hasse diagrams of lattice members, rendered as Graphviz DOT.

Edges are the covering pairs of strict containment among the members in
scope, read off atom supports with no containment test.  A member's
support in a context is the mask of atoms that do not annihilate it, the
union of its own atoms' supports.  Member s lies in member t iff s's
support is a subset of t's in every lattice in scope: t is the sum of its
atoms in one of them, and s lies in the sum of its support's atoms there.
Rendering is a pure function of the inputs: member order, edge order and
attribute order are all fixed, so identical inputs give byte-identical
DOT.

Node styling encodes the three truth values: true propositions are
filled black boxes, false ones filled black circles, gaps hollow
circles.  A nontrivial subspace shared by two or more lattices gets a
thick grey border.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .contexts import Structure
from .subspaces import Subspace, _sort_order
from .valuation import TruthValue, ValuationReport

WHOLE_STRUCTURE_SCOPE = "all"


class UnknownScopeError(ValueError):
    """The scope names no context of the structure."""


class MissingValuationError(ValueError):
    """The report has no value for a member in scope."""


@dataclass(frozen=True)
class HasseNode:
    node_id: str
    subspace: Subspace
    label: str
    truth: TruthValue
    shared: bool
    memberships: tuple[str, ...]


@dataclass(frozen=True)
class HasseGraph:
    nodes: tuple[HasseNode, ...]
    edges: tuple[tuple[int, int], ...]


def _covers(above: Sequence[int]) -> list[tuple[int, int]]:
    """Sorted covering pairs (i, j) of a strict order; bit j of above[i] means i < j."""
    edges = []
    for i, up in enumerate(above):
        reach = 0
        for k, over in enumerate(above):
            if up >> k & 1:
                reach |= over
        edges.extend((i, j) for j in range(len(above)) if (up & ~reach) >> j & 1)
    return edges


def transitive_reduction(members: Sequence[Subspace]) -> list[tuple[int, int]]:
    """Covering pairs (i, j) with members[i] strictly below members[j].

    Containment is tested geometrically: the oracle for build_graph's order.
    """
    return _covers([
        sum(1 << j for j, t in enumerate(members) if s.dim < t.dim and s.is_subspace_of(t))
        for s in members
    ])


def build_graph(structure: Structure, report: ValuationReport, scope: str) -> HasseGraph:
    """Assemble the node and edge lists for one lattice or the whole structure."""
    if scope == WHOLE_STRUCTURE_SCOPE:
        lattices = structure.lattices
    else:
        lattice = structure.find_lattice(scope)
        if lattice is None:
            raise UnknownScopeError(
                f"scope {scope!r} names no context; use a context name or {WHOLE_STRUCTURE_SCOPE!r}"
            )
        lattices = (lattice,)
    # Each atom's supports in every scope lattice, concatenated into one mask.
    atom_supports, first = {}, {}
    for lat in lattices:
        for i, atom_range in enumerate(lat.atom_ranges):
            support = 0
            for other in lattices:
                support = support << len(other.atom_ranges) | other.context.support(atom_range)
            atom_supports[lat, i] = support
        for member, mask in zip(lat.members, lat.masks):
            first.setdefault(member, (lat, mask))
    nodes, supports = [], []
    unsorted = list(first)
    for member in [unsorted[i] for i in _sort_order(unsorted)]:
        try:
            truth = report.values[member]
        except KeyError:
            raise MissingValuationError(
                "the valuation report has no entry for a member in scope; "
                "it was produced for a different structure"
            ) from None
        lat, mask = first[member]
        support = 0
        for i in range(len(lat.atom_ranges)):
            if mask >> i & 1:
                support |= atom_supports[lat, i]
        supports.append(support)
        memberships = tuple(f"{o.name}:{o.label(member)}" for o in structure.lattices if o.has_member(member))
        label = lat.label(member)
        nodes.append(
            HasseNode(
                node_id=f"{lat.name}.{label}",
                subspace=member,
                label=label,
                truth=truth,
                shared=len(memberships) >= 2 and not member.is_zero() and not member.is_full(),
                memberships=memberships,
            )
        )
    above = [
        sum(1 << j for j, t in enumerate(supports) if j != i and s & ~t == 0)
        for i, s in enumerate(supports)
    ]
    return HasseGraph(tuple(nodes), tuple(_covers(above)))


_TRUTH_STYLE = {
    TruthValue.TRUE: "shape=box style=filled fillcolor=black fontcolor=white",
    TruthValue.FALSE: "shape=circle style=filled fillcolor=black fontcolor=white",
    TruthValue.GAP: "shape=circle style=solid",
}


def _quote(text: str) -> str:
    """A DOT quoted string holding the text, with backslashes and quotes escaped."""
    return '"' + text.replace("\\", "\\\\").replace('"', '\\"') + '"'


def render_dot(graph: HasseGraph, name: str, cluster: str | None = None,
               annotate_memberships: bool = False) -> str:
    """Serialize a graph to DOT with stable ordering and attributes."""
    lines = [f"digraph {_quote(name)} {{", "  rankdir=BT;"]
    indent = "  "
    if cluster is not None:
        lines.append(f"  subgraph {_quote('cluster_' + cluster)} {{")
        lines.append(f"    label={_quote(cluster)};")
        indent = "    "
    for node in graph.nodes:
        attrs = [f"label={_quote(node.label)}"]
        if annotate_memberships:
            attrs.append(f"tooltip={_quote(' '.join(node.memberships))}")
        attrs.append(_TRUTH_STYLE[node.truth])
        if node.shared:
            attrs.append("color=grey penwidth=3")
        lines.append(f'{indent}{_quote(node.node_id)} [{" ".join(attrs)}];')
    if cluster is not None:
        lines.append("  }")
    for i, j in graph.edges:
        lines.append(f"  {_quote(graph.nodes[i].node_id)} -> {_quote(graph.nodes[j].node_id)};")
    lines.append("}")
    return "\n".join(lines) + "\n"


def emit_dot(structure: Structure, report: ValuationReport, scope: str) -> str:
    """DOT rendering of one context's lattice or of the merged structure.

    Per-context scope wraps the nodes in a labelled cluster; the whole
    structure scope merges shared subspaces into single nodes and
    annotates each node with its per-lattice names in a tooltip.
    """
    graph = build_graph(structure, report, scope)
    if scope == WHOLE_STRUCTURE_SCOPE:
        return render_dot(graph, "structure", annotate_memberships=True)
    return render_dot(graph, scope, cluster=scope)
