"""Three-valued valuation of subspace propositions at a pure state.

The trivial subspaces are bivalent for every state: the zero subspace is
false and the full space is true.  Beyond that the two modes differ.  In
invariant mode a nontrivial subspace gets a truth value only if it is a
member of a lattice allocated by the state (one whose context has an atom
range containing the state); all other members render as the gap "0/0".
In Hilbert-sublattice mode every member is bivalent by containment.

Both are read off the state's support in each context: the mask of atoms
whose projectors do not annihilate it, computed once per report.  The
state is the orthogonal sum of its projections onto the atoms, so a
context is allocated iff the support is a single atom, and the state lies
in the member named by mask m iff the support is a subset of m.  A report
values a member named by (context index, atom mask); it is certified in
an allocated context by the atom-sum membership rule, read off its atoms'
supports there, which the structure computes once and keeps, so valuing
it builds no lattice and hashes no member.
"""

from __future__ import annotations

from collections.abc import Mapping
from enum import Enum
from functools import cached_property

from .contexts import (
    Structure,
    allocates,
    is_lattice_member,
    normalize_state,
    state_supports,
)
from .frozen import Frozen
from .linalg import DimensionMismatchError, format_scalar
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


class ValuationReport(Frozen):
    """Truth values of the lattice members of a structure at one state.

    ``supports`` holds the state's support in each context, in context
    order, and every value is derived from it on request.  ``entries``
    names every member of every lattice as ``<context>.<atom-set>`` (for
    example ``S1.1+2+3``) in deterministic order; a subspace shared between
    lattices appears under each of its names with the same value.
    """

    __slots__ = ("structure", "state", "mode", "supports", "__dict__")
    __eq__ = object.__eq__
    __hash__ = object.__hash__

    @cached_property
    def _allocated(self) -> tuple[int, ...]:
        return tuple(o for o, s in enumerate(self.supports) if allocates(s))

    @property
    def allocated(self) -> tuple[str, ...]:
        return tuple(self.structure.contexts[o].name for o in self._allocated)

    @property
    def notes(self) -> tuple[str, ...]:
        # A proper member holding the state exists iff some support is not full.
        if self.mode is Mode.HILBERT and all(
            support == (1 << len(c.atoms)) - 1 for c, support in zip(self.structure.contexts, self.supports)
        ):
            return ("state lies in no nontrivial member; containment renders them all false",)
        return ()

    @cached_property
    def entries(self) -> Mapping[str, TruthValue]:
        """Every member's value by name, in lattice and member order."""
        return {
            f"{lat.name}.{lat.mask_labels[mask]}": self.value(i, mask)
            for i, lat in enumerate(self.structure.lattices)
            for mask in lat.masks
        }

    def value(self, i: int, mask: int) -> TruthValue:
        """Value of the member named by ``mask`` in the context at index ``i``; a gap unless
        bivalent (Hilbert mode, a trivial member or an allocated context) or its dimension
        is its support's rank in an allocated context."""
        context = self.structure.contexts[i]
        if not mask:
            return TruthValue.FALSE
        if mask == (1 << len(context.atoms)) - 1:
            return TruthValue.TRUE
        if self.mode is Mode.INVARIANT and not allocates(self.supports[i]) and not any(
            self.structure.contexts[o].rank(self.structure.member_support(o, i, mask)) == context.rank(mask)
            for o in self._allocated
        ):
            return TruthValue.GAP
        return TruthValue.TRUE if self.supports[i] & ~mask == 0 else TruthValue.FALSE

    def value_of(self, subspace: Subspace) -> TruthValue:
        """Truth value of any subspace proposition at the state.

        In invariant mode a nontrivial subspace is certified by the
        membership rule in an allocated context.  It need not be a lattice
        member, so containment is read off the join with the state's ray.
        """
        if subspace.ambient_dim != self.structure.ambient_dim:
            raise DimensionMismatchError(
                f"subspace of C^{subspace.ambient_dim} in a structure on C^{self.structure.ambient_dim}"
            )
        if self.mode is Mode.INVARIANT and 0 < subspace.dim < subspace.ambient_dim and not any(
            is_lattice_member(subspace, self.structure.contexts[o]) for o in self._allocated
        ):
            return TruthValue.GAP
        return TruthValue.TRUE if subspace.contains_vector(self.state) else TruthValue.FALSE


def evaluate(structure: Structure, state, subspace: Subspace, mode: Mode) -> TruthValue:
    """Truth value of a single subspace proposition at the state."""
    return evaluate_structure(structure, state, mode).value_of(subspace)


def evaluate_structure(structure: Structure, state, mode: Mode) -> ValuationReport:
    """The state's valuation report; it values members on request."""
    v = normalize_state(structure, state)
    return ValuationReport(structure, v, mode, tuple(state_supports(structure, v)))


def report_to_text(report: ValuationReport) -> str:
    """Stable line-oriented rendering, usable as a golden-file format."""
    lines = [
        f"state: {','.join(format_scalar(x) for x in report.state)}",
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
