"""Admissibility rules over contexts and exhaustive bivalent colorings.

Rule 1: if some atom of a context is true, every other atom must be
false; it is vacuous when no atom is true.  Rule 2: if some atom is
false, the remaining atoms must all be bivalent with at most one true;
it is vacuous when no atom is false.  A context whose atoms are all
false is not judged further but flagged, since nothing forces a true
atom onto it.

The coloring search looks for assignments of 1/0 to atom ranges with
exactly one true atom per context, and names each by the index of the
true atom in every context.  One traversal, :func:`_colorings`, walks and
memoizes the frontier states and writes each coloring from a token per
choice: :func:`ks_search` as index tuples, :func:`ks_to_text` as lines and
:func:`ks_to_json` as JSON items.
"""

from __future__ import annotations

import json
from collections.abc import Sequence
from enum import Enum

from .contexts import Structure
from .frozen import Frozen, setfield
from .valuation import TruthValue, ValuationReport


class RuleStatus(Enum):
    SATISFIED = "satisfied"
    VIOLATED = "violated"
    VACUOUS = "vacuous"

    def __str__(self) -> str:
        return self.value


def _rule_status(trigger: bool, values: Sequence[TruthValue]) -> RuleStatus:
    """Vacuous without its trigger, else violated by a gap or a second true atom."""
    if not trigger:
        return RuleStatus.VACUOUS
    if TruthValue.GAP in values or values.count(TruthValue.TRUE) > 1:
        return RuleStatus.VIOLATED
    return RuleStatus.SATISFIED


def rule1_status(values: Sequence[TruthValue]) -> RuleStatus:
    return _rule_status(TruthValue.TRUE in values, values)


def rule2_status(values: Sequence[TruthValue]) -> RuleStatus:
    return _rule_status(TruthValue.FALSE in values, values)


class ContextAdmissibility(Frozen):
    __slots__ = ("context", "true_count", "false_count", "gap_count", "rule1", "rule2")

    def __init__(
        self, context: str, true_count: int, false_count: int, gap_count: int, rule1: RuleStatus, rule2: RuleStatus
    ) -> None:
        setfield(self, "context", context)
        setfield(self, "true_count", true_count)
        setfield(self, "false_count", false_count)
        setfield(self, "gap_count", gap_count)
        setfield(self, "rule1", rule1)
        setfield(self, "rule2", rule2)

    @property
    def no_true_atom(self) -> bool:
        """All atoms bivalent but none true; flagged rather than judged."""
        return self.true_count == 0 and self.gap_count == 0


class AdmissibilityReport(Frozen):
    __slots__ = ("per_context",)

    def __init__(self, per_context: tuple[ContextAdmissibility, ...]) -> None:
        setfield(self, "per_context", per_context)

    @property
    def rule1_ok(self) -> bool:
        return all(c.rule1 is not RuleStatus.VIOLATED for c in self.per_context)

    @property
    def rule2_ok(self) -> bool:
        return all(c.rule2 is not RuleStatus.VIOLATED for c in self.per_context)


def _judge(context: str, values: Sequence[TruthValue]) -> ContextAdmissibility:
    return ContextAdmissibility(
        context=context,
        true_count=values.count(TruthValue.TRUE),
        false_count=values.count(TruthValue.FALSE),
        gap_count=values.count(TruthValue.GAP),
        rule1=rule1_status(values),
        rule2=rule2_status(values),
    )


def check_admissibility(report: ValuationReport) -> AdmissibilityReport:
    """Judge both rules for every context of the report's structure.

    Atom a of the context at index i is read as ``report.value(i, 1 << a)``,
    so no lattice is built.
    """
    return AdmissibilityReport(tuple(
        _judge(c.name, [report.value(i, 1 << a) for a in range(len(c.atoms))])
        for i, c in enumerate(report.structure.contexts)
    ))


def admissibility_to_text(report: AdmissibilityReport) -> str:
    lines = []
    for row in report.per_context:
        line = (
            f"context {row.context}: true={row.true_count} false={row.false_count}"
            f" gap={row.gap_count} rule1={row.rule1} rule2={row.rule2}"
        )
        if row.no_true_atom:
            line += " note=no-true-atom"
        lines.append(line)
    lines.append(
        f"overall: rule1={'ok' if report.rule1_ok else 'violated'}"
        f" rule2={'ok' if report.rule2_ok else 'violated'}"
    )
    return "\n".join(lines) + "\n"


def admissibility_to_dict(report: AdmissibilityReport) -> dict:
    return {
        "contexts": [
            {
                "context": row.context,
                "true": row.true_count,
                "false": row.false_count,
                "gap": row.gap_count,
                "rule1": str(row.rule1),
                "rule2": str(row.rule2),
                "no_true_atom": row.no_true_atom,
            }
            for row in report.per_context
        ],
        "rule1_ok": report.rule1_ok,
        "rule2_ok": report.rule2_ok,
    }


def _colorings(structure: Structure, tokens: Sequence[Sequence], join) -> list:
    """All colorings, found by depth-first search in deterministic order,
    each written as ``join`` of the tokens of its choices.

    ``tokens[d][ai]`` is what choosing atom ``ai`` of context ``d`` adds,
    and a token's width is the length of ``join([token])``; ``join`` of
    tokens must be sliceable, with ``join(a + b)[len(join(a)):]`` equal to
    ``join(b)``, as it is for ``tuple`` and ``"".join``.  Contexts are
    processed in structure order and atoms in context order, so the result
    list is stable; counts are independent of either order.  Each atom is
    the bit of its range's id in ``structure.range_ids``: the structure
    numbers the distinct atom ranges once.  The search pops frames from one
    stack; a frame is a depth ``d``, the masks of ranges set true and set
    false by the choices in the contexts before ``d``, the token chosen at
    ``d - 1``, which it writes into ``chosen``, and the summed width of the
    tokens before ``d``.  Frames pop depth-first, so ``chosen`` then holds
    exactly the frame's ancestors' tokens.  Atom bit ``b`` of a context with
    mask ``m`` can be chosen iff ``b`` is not false and no other bit of
    ``m`` is true; its frame holds ``true | b`` and ``false | m ^ b``.  A
    frame pushes its admissible atoms in reverse, so they pop in atom order.
    No recursion is used, so the number of contexts is not bounded by the
    recursion limit.

    Each frontier state is expanded once.  The search below depth ``d``
    reads only the bits of ``live[d]``, the ranges of contexts ``d..``, so
    the state is keyed by ``(d, true & live[d], false & live[d])``, and
    two prefixes with one key have the same completions in the same order.
    The first visit pushes a close frame under its children, which records
    the span of colorings the subtree appended and the width of the first
    visitor's prefix; a later visit appends its own prefix joined to each
    coloring of that span past that width.  A dead state has an empty
    span, so a later visit ends at once.
    """
    contexts = [[1 << r for r in ids] for ids in structure.range_ids]
    masks = [sum(bits) for bits in contexts]  # the context laws make a context's bits distinct
    depth = len(contexts)
    live = [0] * (depth + 1)
    for d in reversed(range(depth)):
        live[d] = live[d + 1] | masks[d]
    widths = [[len(join([token])) for token in row] for row in tokens]
    chosen = [None] * depth
    colorings: list = []
    spans: dict[tuple[int, int, int], tuple[int, int, int]] = {}
    stack = [(0, 0, 0, None, 0)]
    while stack:
        d, t, f, token, w = stack.pop()
        if d < 0:  # a close frame: t is the state's key, f the start of its span
            spans[t] = (f, len(colorings), w)
            continue
        chosen[d - 1] = token  # the root writes chosen[-1], which every full-depth frame rewrites
        if d == depth:
            colorings.append(join(chosen))
            continue
        lv = live[d]
        key = (d, t & lv, f & lv)
        span = spans.get(key)
        if span is not None:
            start, end, off = span
            head = join(chosen[:d])
            colorings.extend([head + c[off:] for c in colorings[start:end]])
            continue
        stack.append((-1, key, len(colorings), None, w))
        bits, mask, row, sizes = contexts[d], masks[d], tokens[d], widths[d]
        for ai in reversed(range(len(bits))):
            b = bits[ai]
            if not (b & f or (mask ^ b) & t):
                stack.append((d + 1, t | b, f | (mask ^ b), row[ai], w + sizes[ai]))
    return colorings


def ks_search(structure: Structure) -> list[tuple[int, ...]]:
    """All colorings, each the tuple of the 0-based index of the true atom
    in each context, in structure order; the other atoms are false, and an
    atom range shared between contexts gets one value.  :func:`_colorings`
    gives the order and how the search runs."""
    return _colorings(structure, [range(len(ctx.atoms)) for ctx in structure.contexts], tuple)


def ks_to_text(structure: Structure) -> str:
    """``solutions: N``, then one line such as ``S1:1 S2:1`` per coloring,
    with 1-based atom indices, written by the search itself."""
    tokens = [[f"{ctx.name}:{i + 1} " for i in range(len(ctx.atoms))] for ctx in structure.contexts]
    tokens[-1] = [token[:-1] + "\n" for token in tokens[-1]]
    lines = _colorings(structure, tokens, "".join)
    lines.insert(0, f"solutions: {len(lines)}\n")
    return "".join(lines)


def ks_to_json(structure: Structure) -> str:
    """The colorings as ``json.dumps({"count": N, "solutions": [...]},
    indent=2)`` plus a newline, where each solution maps every context name
    to its 1-based true atom; each key is escaped once by ``json.dumps``."""
    tokens = [
        [f",\n      {json.dumps(ctx.name)}: {i + 1}" for i in range(len(ctx.atoms))] for ctx in structure.contexts
    ]
    tokens[0] = ["    {\n" + token[2:] for token in tokens[0]]
    tokens[-1] = [token + "\n    }" for token in tokens[-1]]
    items = _colorings(structure, tokens, "".join)
    if not items:
        return '{\n  "count": 0,\n  "solutions": []\n}\n'
    items[0] = f'{{\n  "count": {len(items)},\n  "solutions": [\n{items[0]}'
    items[-1] += "\n  ]\n}\n"
    return ",\n".join(items)
