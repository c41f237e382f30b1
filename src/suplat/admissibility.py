"""Admissibility rules over contexts and exhaustive bivalent colorings.

Rule 1: if some atom of a context is true, every other atom must be
false; it is vacuous when no atom is true.  Rule 2: if some atom is
false, the remaining atoms must all be bivalent with at most one true;
it is vacuous when no atom is false.  A context whose atoms are all
false is not judged further but flagged, since nothing forces a true
atom onto it.

The coloring search looks for assignments of 1/0 to atom ranges, keyed
by the canonical range subspace so that atoms shared between contexts
are automatically forced to agree, with exactly one true atom per
context.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Mapping, Sequence

from .contexts import Structure
from .subspaces import Subspace
from .valuation import TruthValue, ValuationReport


class RuleStatus(Enum):
    SATISFIED = "satisfied"
    VIOLATED = "violated"
    VACUOUS = "vacuous"

    def __str__(self) -> str:
        return self.value


class MissingAtomEntryError(ValueError):
    """The valuation report lacks an entry for some atom of the structure."""


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


def check_admissibility(structure: Structure, report: ValuationReport) -> AdmissibilityReport:
    """Judge both rules for every context of the structure.

    Atom truth values are looked up by canonical range subspace in the
    report; a miss means the report belongs to a different structure.
    """
    rows = []
    for ctx in structure.contexts:
        values = []
        for atom in ctx.atoms:
            try:
                values.append(report.values[atom.range])
            except KeyError:
                raise MissingAtomEntryError(
                    f"no valuation entry for atom {atom.name!r} of context {ctx.name!r}"
                ) from None
        rows.append(
            ContextAdmissibility(
                context=ctx.name,
                true_count=sum(1 for v in values if v is TruthValue.TRUE),
                false_count=sum(1 for v in values if v is TruthValue.FALSE),
                gap_count=sum(1 for v in values if v is TruthValue.GAP),
                rule1=rule1_status(values),
                rule2=rule2_status(values),
            )
        )
    return AdmissibilityReport(tuple(rows))


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


@dataclass(frozen=True, eq=False)
class KsAssignment:
    """One bivalent coloring: exactly one true atom range per context.

    ``chosen`` holds the 0-based index of the true atom per context, in
    structure order; ``values`` maps each distinct atom range to 1 or 0.
    """

    chosen: tuple[int, ...]
    values: Mapping[Subspace, int]


def ks_search(structure: Structure) -> list[KsAssignment]:
    """All colorings, found by depth-first search in deterministic order.

    Contexts are processed in structure order and atoms in context order,
    so the result list is stable; counts are independent of either order.
    """
    range_lists = [[atom.range for atom in ctx.atoms] for ctx in structure.contexts]
    solutions: list[KsAssignment] = []

    def descend(ci: int, assignment: dict[Subspace, int], chosen: tuple[int, ...]) -> None:
        if ci == len(range_lists):
            solutions.append(KsAssignment(chosen, dict(assignment)))
            return
        ranges = range_lists[ci]
        for ai in range(len(ranges)):
            trial = dict(assignment)
            ok = True
            for aj, rng in enumerate(ranges):
                want = 1 if aj == ai else 0
                if trial.setdefault(rng, want) != want:
                    ok = False
                    break
            if ok:
                descend(ci + 1, trial, chosen + (ai,))

    descend(0, {}, ())
    return solutions


def ks_assignment_line(structure: Structure, assignment: KsAssignment) -> str:
    """Render a coloring as ``S1:1 S2:1`` with 1-based atom indices."""
    return " ".join(
        f"{ctx.name}:{index + 1}" for ctx, index in zip(structure.contexts, assignment.chosen)
    )


def ks_to_text(structure: Structure, solutions: Sequence[KsAssignment]) -> str:
    lines = [f"solutions: {len(solutions)}"]
    lines.extend(ks_assignment_line(structure, sol) for sol in solutions)
    return "\n".join(lines) + "\n"


def ks_to_dict(structure: Structure, solutions: Sequence[KsAssignment]) -> dict:
    return {
        "count": len(solutions),
        "solutions": [
            {ctx.name: index + 1 for ctx, index in zip(structure.contexts, sol.chosen)}
            for sol in solutions
        ],
    }
