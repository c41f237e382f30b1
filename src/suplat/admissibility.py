"""Admissibility rules over contexts and exhaustive bivalent colorings.

Rule 1: if some atom of a context is true, every other atom must be
false; it is vacuous when no atom is true.  Rule 2: if some atom is
false, the remaining atoms must all be bivalent with at most one true;
it is vacuous when no atom is false.  A context whose atoms are all
false is not judged further but flagged, since nothing forces a true
atom onto it.

The coloring search looks for assignments of 1/0 to atom ranges with
exactly one true atom per context, and names each by the index of the
true atom in every context; :func:`ks_search` describes how it walks and
memoizes the frontier states, and :func:`ks_to_text` how it writes them.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Sequence

from .contexts import Structure
from .subspaces import Subspace
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


@dataclass(frozen=True)
class ContextAdmissibility:
    context: str
    true_count: int
    false_count: int
    gap_count: int
    rule1: RuleStatus
    rule2: RuleStatus

    @property
    def no_true_atom(self) -> bool:
        """All atoms bivalent but none true; flagged rather than judged."""
        return self.true_count == 0 and self.gap_count == 0


@dataclass(frozen=True)
class AdmissibilityReport:
    per_context: tuple[ContextAdmissibility, ...]

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


def ks_search(structure: Structure) -> list[tuple[int, ...]]:
    """All colorings, found by depth-first search in deterministic order.

    Each coloring is the tuple of the 0-based index of the true atom in
    each context, in structure order; the other atoms are false, and an
    atom range shared between contexts gets one value.  Contexts are
    processed in structure order and atoms in context order, so the
    result list is stable; counts are independent of either order.
    The distinct atom ranges are numbered once and each atom becomes the
    bit of its range.  The search pops frames from one stack; a frame is
    a depth ``d``, the masks of ranges set true and set false by the
    choices in the contexts before ``d``, and the atom chosen at ``d - 1``,
    which it writes into ``chosen``.  Frames pop depth-first, so ``chosen``
    then holds exactly the frame's ancestors' choices.  Atom bit ``b`` of
    a context with mask ``m`` can be chosen iff ``b`` is not false and no
    other bit of ``m`` is true; its frame holds ``true | b`` and
    ``false | m ^ b``.  A frame pushes its admissible atoms in reverse, so
    they pop in atom order.  No recursion is used, so the number of
    contexts is not bounded by the recursion limit.

    Each frontier state is expanded once.  The search below depth ``d``
    reads only the bits of ``live[d]``, the ranges of contexts ``d..``, so
    the state is keyed by ``(d, true & live[d], false & live[d])``, and
    two prefixes with one key have the same completions in the same order.
    The first visit pushes a close frame under its children, which records
    the span of ``solutions`` the subtree appended; a later visit appends
    its own prefix joined to each coloring of that span from depth ``d``
    on.  A dead state has an empty span, so a later visit ends at once.
    """
    index: dict[Subspace, int] = {}
    contexts = [
        [1 << index.setdefault(atom.range, len(index)) for atom in ctx.atoms] for ctx in structure.contexts
    ]
    masks = [sum(bits) for bits in contexts]  # the context laws make a context's bits distinct
    depth = len(contexts)
    live = [0] * (depth + 1)
    for d in reversed(range(depth)):
        live[d] = live[d + 1] | masks[d]
    chosen = [0] * depth
    solutions: list[tuple[int, ...]] = []
    spans: dict[tuple[int, int, int], range] = {}
    stack = [(0, 0, 0, 0)]
    while stack:
        d, t, f, ai = stack.pop()
        if d < 0:  # a close frame: t is the state's key, f the start of its span
            spans[t] = range(f, len(solutions))
            continue
        chosen[d - 1] = ai  # the root writes chosen[-1], which every full-depth frame rewrites
        if d == depth:
            solutions.append(tuple(chosen))
            continue
        lv = live[d]
        key = (d, t & lv, f & lv)
        span = spans.get(key)
        if span is not None:
            head = tuple(chosen[:d])
            solutions.extend([head + solutions[i][d:] for i in span])
            continue
        stack.append((-1, key, len(solutions), 0))
        bits, mask = contexts[d], masks[d]
        for ai in reversed(range(len(bits))):
            b = bits[ai]
            if not (b & f or (mask ^ b) & t):
                stack.append((d + 1, t | b, f | (mask ^ b), ai))
    return solutions


def ks_to_text(structure: Structure, solutions: Sequence[tuple[int, ...]]) -> str:
    """``solutions: N``, then one line such as ``S1:1 S2:1`` per coloring,
    with 1-based atom indices.

    A line is the text of the coloring's first half of contexts followed
    by the text of its second half.  The first half's text is built again
    only when it differs from the previous coloring's, which is rare along
    the search order; the second half's text is built once per distinct
    tuple and cached for this call.
    """
    labels = [[f"{ctx.name}:{i + 1}" for i in range(len(ctx.atoms))] for ctx in structure.contexts]
    half = len(labels) // 2
    head_labels = [[f"{name} " for name in names] for names in labels[:half]]
    tail_labels = labels[half:]
    tail_texts: dict[tuple[int, ...], str] = {}
    lines = [f"solutions: {len(solutions)}"]
    head, head_text = None, ""
    for chosen in solutions:
        first = chosen[:half]
        if first != head:
            head = first
            head_text = "".join([names[i] for names, i in zip(head_labels, head)])
        tail = chosen[half:]
        tail_text = tail_texts.get(tail)
        if tail_text is None:
            tail_text = tail_texts[tail] = " ".join([names[i] for names, i in zip(tail_labels, tail)])
        lines.append(head_text + tail_text)
    lines.append("")  # the final newline, without copying the joined text
    return "\n".join(lines)


def ks_to_dict(structure: Structure, solutions: Sequence[tuple[int, ...]]) -> dict:
    return {
        "count": len(solutions),
        "solutions": [
            {ctx.name: index + 1 for ctx, index in zip(structure.contexts, chosen)}
            for chosen in solutions
        ],
    }
