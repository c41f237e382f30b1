"""Hasse diagrams of lattice members, rendered as Graphviz DOT.

Edges are the covering pairs of strict containment among the members in
scope, read off atom masks with no containment test (see
:func:`build_graph`); memberships come from the same masks, so only the
lattices in scope are built.  Rendering is a pure function of the
inputs: member order, edge order and attribute order are all fixed, so
identical inputs give byte-identical DOT.

Node styling encodes the three truth values: true propositions are
filled black boxes, false ones filled black circles, gaps hollow
circles.  A nontrivial subspace shared by two or more lattices gets a
thick grey border.
"""

from __future__ import annotations

from collections.abc import Sequence
from itertools import accumulate

from .contexts import _mask_label
from .frozen import Frozen
from .subspaces import Subspace, _sort_order
from .valuation import TruthValue, ValuationReport

WHOLE_STRUCTURE_SCOPE = "all"


class UnknownScopeError(ValueError):
    """The scope names no context of the structure."""


class HasseNode(Frozen):
    __slots__ = ("node_id", "subspace", "label", "truth", "shared", "memberships")


class HasseGraph(Frozen):
    __slots__ = ("nodes", "edges")


def transitive_reduction(members: Sequence[Subspace]) -> list[tuple[int, int]]:
    """Covering pairs (i, j) with members[i] strictly below members[j].

    Containment is tested geometrically: the oracle for build_graph's order.
    """
    above = [
        sum(1 << j for j, t in enumerate(members) if s.dim < t.dim and s.is_subspace_of(t))
        for s in members
    ]
    edges = []
    for i, up in enumerate(above):
        reach = 0
        for k, over in enumerate(above):
            if up >> k & 1:
                reach |= over
        edges.extend((i, j) for j in range(len(above)) if (up & ~reach) >> j & 1)
    return edges


def build_graph(report: ValuationReport, scope: str) -> HasseGraph:
    """Assemble the node and edge lists for one lattice or the whole structure.

    A member's key is its support (the atoms that do not annihilate it)
    in every context, concatenated: it names the member, and s lies in t
    iff s's key is a subset of t's.  Let p be scope lattice L's part of
    s's key.  L's members above s hold the hull (L's member p), or some
    ``p | atom`` if the hull is s, so the covers of s are the minimal such
    candidates.  s is in context o's lattice, as the member named by o's
    part of its key, iff that part's rank is s's dimension.
    """
    contexts = report.structure.contexts
    support = report.structure.member_support  # kept by the structure, so report.value reuses it
    if scope == WHOLE_STRUCTURE_SCOPE:
        in_scope = range(len(contexts))
    else:
        in_scope = [i for i, c in enumerate(contexts) if c.name == scope]
        if not in_scope:
            raise UnknownScopeError(
                f"scope {scope!r} names no context; use a context name or {WHOLE_STRUCTURE_SCOPE!r}"
            )
    offsets = list(accumulate((len(c.atoms) for c in contexts), initial=0))  # bit offsets in a key
    # Per scope lattice: its context's index, and keys by atom mask.
    spans, first = [], {}
    for i in in_scope:
        lat = contexts[i].lattice
        keys = [0]
        for a in range(len(contexts[i].atoms)):
            atom_key = sum(support(o, i, 1 << a) << offset for o, offset in enumerate(offsets[:-1]))
            keys += [x | atom_key for x in keys]
        spans.append((i, keys))
        for member, mask in zip(lat.members, lat.masks):
            first.setdefault(keys[mask], (i, mask, member))
    node_keys = list(first)  # one lattice's members are in member order, each with its own key
    if len(in_scope) > 1:
        node_keys = [node_keys[j] for j in _sort_order([first[s][2] for s in node_keys])]
    position = {s: j for j, s in enumerate(node_keys)}
    labels = {o: contexts[o].lattice.mask_labels for o in in_scope}  # other contexts' lattices stay unbuilt
    nodes, edges = [], []
    for j, s in enumerate(node_keys):
        i, mask, member = first[s]
        parts = [(s >> offset) & ((1 << len(c.atoms)) - 1) for c, offset in zip(contexts, offsets)]
        memberships = tuple(
            f"{c.name}:{labels[o][part] if o in labels else _mask_label(part)}"
            for o, (c, part) in enumerate(zip(contexts, parts)) if c.rank(part) == member.dim
        )
        label = labels[i][mask]
        shared = len(memberships) >= 2 and not member.is_zero() and not member.is_full()
        truth = report.value(i, mask)
        nodes.append(HasseNode(f"{contexts[i].name}.{label}", member, label, truth, shared, memberships))
        # The members p | atom of each scope lattice; p itself is the hull.
        candidates = set()
        for o, keys in spans:
            candidates.update(keys[parts[o] | 1 << b] for b in range(len(contexts[o].atoms)))
        candidates.discard(s)
        edges.extend(sorted((j, position[u]) for u in candidates
                            if not any(t & ~u == 0 and t != u for t in candidates)))
    return HasseGraph(tuple(nodes), tuple(edges))


_TRUTH_STYLE = {
    TruthValue.TRUE: "shape=box style=filled fillcolor=black fontcolor=white",
    TruthValue.FALSE: "shape=circle style=filled fillcolor=black fontcolor=white",
    TruthValue.GAP: "shape=circle style=solid",
}


def _quote(text: str) -> str:
    """A DOT quoted string holding the text, with backslashes and quotes escaped."""
    return '"' + text.replace("\\", "\\\\").replace('"', '\\"') + '"'


def render_dot(graph: HasseGraph, name: str, cluster: str | None = None) -> str:
    """Serialize a graph to DOT with stable ordering and attributes: nodes go
    in the named cluster, or else carry their memberships in tooltips."""
    lines = [f"digraph {_quote(name)} {{", "  rankdir=BT;"]
    indent = "  "
    if cluster is not None:
        lines.append(f"  subgraph {_quote('cluster_' + cluster)} {{")
        lines.append(f"    label={_quote(cluster)};")
        indent = "    "
    ids = [_quote(node.node_id) for node in graph.nodes]
    for node, node_id in zip(graph.nodes, ids):
        attrs = [f"label={_quote(node.label)}"]
        if cluster is None:
            attrs.append(f"tooltip={_quote(' '.join(node.memberships))}")
        attrs.append(_TRUTH_STYLE[node.truth])
        if node.shared:
            attrs.append("color=grey penwidth=3")
        lines.append(f'{indent}{node_id} [{" ".join(attrs)}];')
    if cluster is not None:
        lines.append("  }")
    for i, j in graph.edges:
        lines.append(f"  {ids[i]} -> {ids[j]};")
    lines.append("}")
    return "\n".join(lines) + "\n"


def emit_dot(report: ValuationReport, scope: str) -> str:
    """DOT rendering of one context's lattice or of the merged structure.

    Per-context scope wraps the nodes in a labelled cluster; the whole
    structure scope merges shared subspaces into single nodes and
    annotates each node with its per-lattice names in a tooltip.
    """
    graph = build_graph(report, scope)
    if scope == WHOLE_STRUCTURE_SCOPE:
        return render_dot(graph, "structure")
    return render_dot(graph, scope, cluster=scope)
