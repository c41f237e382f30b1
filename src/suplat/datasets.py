"""Built-in example structures, each a table of named rays.

Every atom is the rank-1 projector onto its ray, built exactly by
:func:`projector_onto` once per distinct ray, and :func:`validate_context`
checks each context, so a mistyped ray fails at load time.

``pauli-qubit``: the z, x and y spin contexts of a qubit.

``cabello-3``: bases 1, 2 and 6 of the eighteen-ray Kochen-Specker set of
Cabello, Estebaranz and García-Alcaine (Phys. Lett. A 212, 183, 1996).
S1 and S2 share their first atom; S6 shares no atom with either.
"""

from __future__ import annotations

from functools import lru_cache

from .contexts import Structure, validate_context
from .operators import Projector, projector_onto
from .subspaces import Subspace

PAULI_QUBIT = "pauli-qubit"
CABELLO_3 = "cabello-3"

# dataset -> ((context, ((atom, ray), ...)), ...); ray entries are ints or scalar literals
_TABLES = {
    PAULI_QUBIT: (
        ("Sigma_z", (("z+", (1, 0)), ("z-", (0, 1)))),
        ("Sigma_x", (("x+", (1, 1)), ("x-", (1, -1)))),
        ("Sigma_y", (("y+", (1, "i")), ("y-", (1, "-i")))),
    ),
    CABELLO_3: (
        ("S1", (("P1", (0, 0, 0, 1)), ("P2", (0, 0, 1, 0)), ("P3", (1, 1, 0, 0)), ("P4", (1, -1, 0, 0)))),
        ("S2", (("P1", (0, 0, 0, 1)), ("P2", (0, 1, 0, 0)), ("P3", (1, 0, 1, 0)), ("P4", (1, 0, -1, 0)))),
        ("S6", (("P1", (1, -1, -1, 1)), ("P2", (1, 1, 1, 1)), ("P3", (1, 0, 0, -1)), ("P4", (0, 1, -1, 0)))),
    ),
}


class UnknownDatasetError(ValueError):
    pass


def dataset_names() -> tuple[str, ...]:
    return tuple(_TABLES)


@lru_cache(maxsize=None)
def builtin_structure(name: str) -> Structure:
    """Return a built-in structure by name, built once per process.

    Raises:
        UnknownDatasetError: the name is not one of :func:`dataset_names`.
    """
    try:
        table = _TABLES[name]
    except KeyError:
        raise UnknownDatasetError(
            f"unknown dataset {name!r}; available: {', '.join(_TABLES)}"
        ) from None
    first: dict[tuple, Projector] = {}  # ray -> its first atom, whose matrix and range a later atom shares

    def atom(label: str, ray: tuple) -> Projector:
        if ray not in first:
            first[ray] = projector_onto(Subspace.span_of([ray], len(ray)), name=label)
        p = first[ray]
        return p if p.name == label else Projector(label, p.matrix, p.range)

    return Structure([validate_context(context, [atom(*row) for row in atoms]) for context, atoms in table])
