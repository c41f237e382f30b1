"""Three-valued valuation of subspace propositions at a pure state.

The trivial subspaces are bivalent for every state: the zero subspace is
false and the full space is true.  Beyond that the two modes differ.  In
invariant mode a nontrivial subspace gets a truth value only if it is a
member of a lattice allocated by the state (one whose context has an atom
range containing the state); all other members render as the gap "0/0".
In Hilbert-sublattice mode every member is bivalent by containment.

Both are read off the state's support in each context: the mask of atoms
whose projectors do not annihilate it, computed once per call.  The state
is the orthogonal sum of its projections onto the atoms, so a context is
allocated iff the support is a single atom, and the state lies in the
member named by mask m iff the support is a subset of m.  Allocation and
:func:`evaluate_structure` make no containment test, and a report keys
its values by member name, not by subspace.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from functools import cached_property
from typing import Mapping

from .contexts import (
    Context,
    Structure,
    _mask_label,
    allocates,
    is_lattice_member,
    normalize_state,
    state_supports,
)
from .linalg import DimensionMismatchError, GaussianRational, format_scalar
from .subspaces import Subspace


class Mode(Enum):
    INVARIANT = "invariant"
    HILBERT = "hilbert"


class TruthValue(Enum):
    TRUE = "1"
    FALSE = "0"
    GAP = "0/0"

    def __str__(self) -> str:
        return self.value


@dataclass(frozen=True, eq=False)
class ValuationReport:
    """Truth values of every lattice member of a structure at one state.

    ``entries`` names every member of every lattice of ``structure`` as
    ``<context>.<atom-set>`` (for example ``S1.1+2+3``) in deterministic
    order.  A subspace shared between lattices appears under each of its
    names with the same value.
    """

    structure: Structure = field(repr=False)
    state: tuple[GaussianRational, ...]
    mode: Mode
    allocated: tuple[str, ...]
    entries: Mapping[str, TruthValue]
    notes: tuple[str, ...] = ()

    @cached_property
    def values(self) -> Mapping[Subspace, TruthValue]:
        """Each distinct member subspace's truth value, built on first read."""
        values: dict[Subspace, TruthValue] = {}
        for lat in self.structure.lattices:
            for member, label in zip(lat.members, lat.labels()):
                values.setdefault(member, self.entries[f"{lat.name}.{label}"])
        return values


def _value_of(mask: int, full: int, support: int, bivalent: bool) -> TruthValue:
    """Value of the member named by ``mask``, where ``full`` names the whole
    space and ``support`` is the state's support, all in one context."""
    if not mask:
        return TruthValue.FALSE
    if mask == full:
        return TruthValue.TRUE
    if not bivalent:
        return TruthValue.GAP
    return TruthValue.TRUE if support & ~mask == 0 else TruthValue.FALSE


def _allocated_contexts(structure: Structure, supports: list[int]) -> list[Context]:
    return [c for c, support in zip(structure.contexts, supports) if allocates(support)]


def evaluate(structure: Structure, state, subspace: Subspace, mode: Mode) -> TruthValue:
    """Truth value of a single subspace proposition at the state.

    In invariant mode a nontrivial subspace is certified by the membership
    rule against each allocated context, so no lattice is built.  It need
    not be a lattice member, so containment is a row reduction.
    """
    v = normalize_state(structure, state)
    if subspace.ambient_dim != structure.ambient_dim:
        raise DimensionMismatchError(
            f"subspace of C^{subspace.ambient_dim} in a structure on C^{structure.ambient_dim}"
        )
    if mode is Mode.INVARIANT and 0 < subspace.dim < subspace.ambient_dim and not any(
        is_lattice_member(subspace, c) for c in _allocated_contexts(structure, state_supports(structure, v))
    ):
        return TruthValue.GAP
    return TruthValue.TRUE if subspace.contains_vector(v) else TruthValue.FALSE


def evaluate_structure(structure: Structure, state, mode: Mode) -> ValuationReport:
    """Evaluate every member of every lattice of the structure at the state."""
    v = normalize_state(structure, state)
    supports = state_supports(structure, v)
    allocated = [lat for lat, support in zip(structure.lattices, supports) if allocates(support)]
    entries: dict[str, TruthValue] = {}
    for lat, support in zip(structure.lattices, supports):
        full = (1 << len(lat.atom_ranges)) - 1
        own = mode is Mode.HILBERT or allocates(support)
        for member, mask in zip(lat.members, lat.masks):
            bivalent = own or any(a.has_member(member) for a in allocated)
            entries[f"{lat.name}.{_mask_label(mask)}"] = _value_of(mask, full, support, bivalent)
    notes: tuple[str, ...] = ()
    # A proper member holding the state exists iff some support is not full.
    if mode is Mode.HILBERT and all(
        support == (1 << len(c.atoms)) - 1 for c, support in zip(structure.contexts, supports)
    ):
        notes = ("state lies in no nontrivial member; containment renders them all false",)
    return ValuationReport(
        structure=structure,
        state=v,
        mode=mode,
        allocated=tuple(lat.name for lat in allocated),
        entries=entries,
        notes=notes,
    )


def atom_values(structure: Structure, state, mode: Mode) -> list[list[TruthValue]]:
    """Each context's atom values at the state, in structure and atom order.

    The same rule as :func:`evaluate_structure`, with no lattice built: an
    atom range is certified iff its own context is allocated or it is a
    member of an allocated context's lattice.
    """
    v = normalize_state(structure, state)
    supports = state_supports(structure, v)
    allocated = _allocated_contexts(structure, supports)
    rows = []
    for ctx, support in zip(structure.contexts, supports):
        full = (1 << len(ctx.atoms)) - 1
        own = mode is Mode.HILBERT or allocates(support)
        rows.append([
            _value_of(1 << i, full, support, own or any(is_lattice_member(a.range, c) for c in allocated))
            for i, a in enumerate(ctx.atoms)
        ])
    return rows


def format_state(state) -> str:
    return ",".join(format_scalar(x) for x in state)


def report_to_text(report: ValuationReport) -> str:
    """Stable line-oriented rendering, usable as a golden-file format."""
    lines = [
        f"state: {format_state(report.state)}",
        f"mode: {report.mode.value}",
        f"allocated: {', '.join(report.allocated) if report.allocated else '(none)'}",
    ]
    lines.extend(f"note: {note}" for note in report.notes)
    lines.extend(f"{key} = {value}" for key, value in report.entries.items())
    return "\n".join(lines) + "\n"


def report_to_dict(report: ValuationReport) -> dict:
    return {
        "state": [format_scalar(x) for x in report.state],
        "mode": report.mode.value,
        "allocated": list(report.allocated),
        "notes": list(report.notes),
        "entries": {key: str(value) for key, value in report.entries.items()},
    }
