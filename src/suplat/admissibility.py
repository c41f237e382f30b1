"""Admissibility rules over contexts and exhaustive bivalent colorings.

Rule 1: if some atom of a context is true, every other atom must be
false; it is vacuous when no atom is true.  Rule 2: if some atom is
false, the remaining atoms must all be bivalent with at most one true;
it is vacuous when no atom is false.  A context whose atoms are all
false is not judged further but flagged, since nothing forces a true
atom onto it.

The coloring search looks for assignments of 1/0 to atom ranges with
exactly one true atom per context, and names each by the index of the
true atom in every context.  It numbers the distinct canonical range
subspaces once, so atoms shared between contexts get one bit and are
forced to agree; the search itself runs on two masks of those bits per
depth, the ranges set true and the ranges set false.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Sequence

from .contexts import Structure
from .subspaces import Subspace
from .valuation import Mode, TruthValue, ValuationReport, atom_values


class RuleStatus(Enum):
    SATISFIED = "satisfied"
    VIOLATED = "violated"
    VACUOUS = "vacuous"

    def __str__(self) -> str:
        return self.value


def rule1_status(values: Sequence[TruthValue]) -> RuleStatus:
    trues = sum(1 for v in values if v is TruthValue.TRUE)
    gaps = sum(1 for v in values if v is TruthValue.GAP)
    if trues == 0:
        return RuleStatus.VACUOUS
    if gaps > 0 or trues > 1:
        return RuleStatus.VIOLATED
    return RuleStatus.SATISFIED


def rule2_status(values: Sequence[TruthValue]) -> RuleStatus:
    falses = sum(1 for v in values if v is TruthValue.FALSE)
    trues = sum(1 for v in values if v is TruthValue.TRUE)
    gaps = sum(1 for v in values if v is TruthValue.GAP)
    if falses == 0:
        return RuleStatus.VACUOUS
    if gaps > 0 or trues > 1:
        return RuleStatus.VIOLATED
    return RuleStatus.SATISFIED


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
        true_count=sum(1 for v in values if v is TruthValue.TRUE),
        false_count=sum(1 for v in values if v is TruthValue.FALSE),
        gap_count=sum(1 for v in values if v is TruthValue.GAP),
        rule1=rule1_status(values),
        rule2=rule2_status(values),
    )


def check_admissibility(report: ValuationReport) -> AdmissibilityReport:
    """Judge both rules for every context of the report's structure.

    Atom i of a context is read from the report as ``<context>.<i>``.
    """
    return AdmissibilityReport(tuple(
        _judge(ctx.name, [report.entries[f"{ctx.name}.{i}"] for i in range(1, len(ctx.atoms) + 1)])
        for ctx in report.structure.contexts
    ))


def admissibility_at(structure: Structure, state, mode: Mode) -> AdmissibilityReport:
    """Judge both rules at a state from the atom values alone.

    Gives what :func:`check_admissibility` gives on the state's valuation
    report, without building a lattice.
    """
    values = atom_values(structure, state, mode)
    return AdmissibilityReport(tuple(_judge(c.name, v) for c, v in zip(structure.contexts, values)))


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
    bit of its range.  The state at depth ``ci`` is two masks: the ranges
    set true and those set false by the choices in the contexts before
    ``ci``.  Atom bit ``b`` of a context with mask ``m`` can be chosen iff
    ``b`` is not false and no other bit of ``m`` is true; the next depth
    then holds ``true | b`` and ``false | m ^ b``, so backtracking restores
    nothing.  The search keeps its own stack, so the number of contexts is
    not bounded by the recursion limit.
    """
    index: dict[Subspace, int] = {}
    contexts = [
        [1 << index.setdefault(atom.range, len(index)) for atom in ctx.atoms] for ctx in structure.contexts
    ]
    masks = [sum(bits) for bits in contexts]  # the context laws make a context's bits distinct
    depth = len(contexts)
    chosen = [-1] * depth
    true = [0] * (depth + 1)
    false = [0] * (depth + 1)
    solutions: list[tuple[int, ...]] = []
    ci = 0
    while ci >= 0:
        if ci == depth:
            solutions.append(tuple(chosen))
            ci -= 1
            continue
        bits, mask, t, f = contexts[ci], masks[ci], true[ci], false[ci]
        ai = chosen[ci] + 1
        while ai < len(bits) and (bits[ai] & f or (mask ^ bits[ai]) & t):
            ai += 1
        if ai < len(bits):
            chosen[ci] = ai
            true[ci + 1] = t | bits[ai]
            false[ci + 1] = f | (mask ^ bits[ai])
            ci += 1
        else:
            chosen[ci] = -1
            ci -= 1
    return solutions


def ks_to_text(structure: Structure, solutions: Sequence[tuple[int, ...]]) -> str:
    """``solutions: N``, then one line such as ``S1:1 S2:1`` per coloring,
    with 1-based atom indices; the labels are built once for all of them."""
    labels = [[f"{ctx.name}:{i + 1}" for i in range(len(ctx.atoms))] for ctx in structure.contexts]
    lines = [f"solutions: {len(solutions)}"]
    lines.extend(" ".join([names[i] for names, i in zip(labels, chosen)]) for chosen in solutions)
    return "\n".join(lines) + "\n"


def ks_to_dict(structure: Structure, solutions: Sequence[tuple[int, ...]]) -> dict:
    return {
        "count": len(solutions),
        "solutions": [
            {ctx.name: index + 1 for ctx, index in zip(structure.contexts, chosen)}
            for chosen in solutions
        ],
    }
