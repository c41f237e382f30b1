"""Measurement contexts, their atom-sum lattices, and structures.

A context is a resolution of the identity into at least two nontrivial
mutually orthogonal projectors.  Its lattice is the powerset of its
atoms: a member is named by its atom mask (bit i for atom i) and is the
sum of those atom ranges, so there are 2^k distinct members.  A subspace
lies in the sum of its support's atoms (those whose projectors do not
annihilate it), so it is a member iff its dimension is that sum's rank.
With rank-1 atoms the members are exactly the invariant subspaces.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cached_property

from .linalg import DimensionMismatchError, ExactMatrix, as_scalar, format_scalar, parse_scalar
from .operators import Projector, ProjectorError, validate_projector
from .subspaces import Subspace, _sort_order


class ContextError(ValueError):
    """A family of projectors fails one of the context laws."""


class NotOrthogonalError(ContextError):
    pass


class IncompleteSumError(ContextError):
    pass


class TrivialAtomError(ContextError):
    pass


class DuplicateAtomNameError(ContextError):
    pass


class StructureError(ValueError):
    """Contexts cannot be assembled into a single structure."""


class StructureFormatError(ValueError):
    """A structure description (JSON shape) is malformed."""


class ZeroStateError(ValueError):
    """The zero vector is not a state and allocates nothing."""


@dataclass(frozen=True)
class Context:
    """A named resolution of the identity into orthogonal nontrivial atoms."""

    name: str
    atoms: tuple[Projector, ...]

    @property
    def dimension(self) -> int:
        return self.atoms[0].dimension

    @cached_property
    def _range_duals(self) -> tuple:
        """Per atom, the (column, conjugate) of each nonzero entry of each range basis row."""
        return tuple(
            tuple(tuple((j, e.conjugate()) for j, e in enumerate(row) if e) for row in p.range.basis_vectors())
            for p in self.atoms
        )

    def support(self, s: Subspace) -> int:
        """Mask of the atoms whose projectors do not annihilate the subspace.

        ``P b = 0`` iff b is orthogonal to the range of P, so each basis
        vector of s is tested against the atom's range basis with
        Hermitian inner products instead of a matrix-vector product.
        """
        basis = s.basis_vectors()
        return sum(
            1 << i for i, duals in enumerate(self._range_duals)
            if not all(_orthogonal(dual, b) for dual in duals for b in basis)
        )


def _orthogonal(dual, vector) -> bool:
    """True iff the vector is orthogonal to a range row given as ``_range_duals`` entries."""
    terms = [c * vector[j] for j, c in dual if vector[j]]
    return not terms or not sum(terms[1:], terms[0])


def validate_context(name: str, projectors) -> Context:
    """Check the context laws and return the validated context.

    Laws: at least two atoms, all on the same space, each nontrivial,
    names unique, pairwise orthogonal (zero products), and the atom sum
    equal to the identity.

    The sum is checked first.  Hermitian projectors that sum to I are
    pairwise orthogonal: ``P_j = P_j I P_j`` gives
    ``sum_{i != j} (P_i P_j)* (P_i P_j) = 0``, a sum of positive
    semidefinite terms, so every ``P_i P_j`` is zero.  The pairwise
    products are therefore computed only when the sum fails, to report
    the first non-orthogonal pair, or else the incomplete sum.
    """
    atoms = tuple(projectors)
    if len(atoms) < 2:
        raise ContextError(f"context {name!r}: needs at least 2 projectors, got {len(atoms)}")
    dim = atoms[0].dimension
    for p in atoms:
        if p.dimension != dim:
            raise ContextError(
                f"context {name!r}: atom {p.name!r} acts on C^{p.dimension}, expected C^{dim}"
            )
        if p.is_trivial():
            raise TrivialAtomError(
                f"context {name!r}: atom {p.name!r} is trivial (rank {p.rank} of {dim})"
            )
    names = [p.name for p in atoms]
    if len(set(names)) != len(names):
        dup = next(n for n in names if names.count(n) > 1)
        raise DuplicateAtomNameError(f"context {name!r}: duplicate atom name {dup!r}")
    total = atoms[0].matrix
    for p in atoms[1:]:
        total = total + p.matrix
    if total == ExactMatrix.identity(dim):
        return Context(name, atoms)
    for i in range(len(atoms)):
        for j in range(i + 1, len(atoms)):
            if not (atoms[i].matrix * atoms[j].matrix).is_zero():
                raise NotOrthogonalError(
                    f"context {name!r}: atoms {atoms[i].name!r} and {atoms[j].name!r}"
                    " are not orthogonal"
                )
    raise IncompleteSumError(f"context {name!r}: atoms do not sum to the identity")


class InvariantLattice:
    """The Boolean lattice of subset-sums of a context's atom ranges.

    Members are canonical subspaces sorted by dimension and then by
    lexicographic basis order; ``masks`` aligns each member with its atom
    mask (bit i set when atom i's range is a summand).
    """

    def __init__(self, context: Context) -> None:
        self.context = context
        self.atom_ranges: tuple[Subspace, ...] = tuple(p.range for p in context.atoms)
        # A mask without its top bit is smaller, so its sum is already built.
        sums = [Subspace.zero(context.dimension)]
        for mask in range(1, 1 << len(self.atom_ranges)):
            top = mask.bit_length() - 1
            sums.append(sums[mask ^ (1 << top)].join(self.atom_ranges[top]))
        self.masks: tuple[int, ...] = tuple(_sort_order(sums))
        self.members: tuple[Subspace, ...] = tuple(sums[m] for m in self.masks)

    @cached_property
    def _index(self) -> dict[Subspace, int]:
        """Position of each member, hashed on the first lookup by subspace."""
        return {m: i for i, m in enumerate(self.members)}

    @property
    def name(self) -> str:
        return self.context.name

    def __len__(self) -> int:
        return len(self.members)

    def has_member(self, s: Subspace) -> bool:
        return s in self._index

    def index_of(self, s: Subspace) -> int:
        return self._index[s]

    def label(self, member: Subspace) -> str:
        """Atom-set label of a member: \"0\" for the zero subspace, else \"1+2+3\"."""
        return _mask_label(self.masks[self._index[member]])

    def labels(self) -> list[str]:
        """Every member's label, in member order."""
        return [_mask_label(m) for m in self.masks]


def _mask_label(mask: int) -> str:
    """Label of the member named by an atom mask, with 1-based atom numbers."""
    return "+".join(str(i + 1) for i in range(mask.bit_length()) if mask >> i & 1) or "0"


def is_lattice_member(s: Subspace, context: Context) -> bool:
    """True iff the subspace is a member of the context's atom-sum lattice.

    The subspace lies in the sum of its support's atom ranges, so it
    equals that sum exactly when the dimensions agree.  For rank-1
    contexts this is invariance under every atom.
    """
    if s.ambient_dim != context.dimension:
        raise DimensionMismatchError(
            f"subspace of C^{s.ambient_dim} against a context on C^{context.dimension}"
        )
    support = context.support(s)
    return s.dim == sum(p.rank for i, p in enumerate(context.atoms) if support >> i & 1)


def shared_members(a: InvariantLattice, b: InvariantLattice) -> list[Subspace]:
    """Members common to both lattices, in a's canonical order.

    The trivial subspaces are always shared; callers interested in the
    grey-rendered overlap should filter to the nontrivial ones.
    """
    if a.context.dimension != b.context.dimension:
        raise DimensionMismatchError("lattices live in different ambient dimensions")
    return [m for m in a.members if b.has_member(m)]


class Structure:
    """A finite family of contexts on one space, with their lattices."""

    def __init__(self, contexts) -> None:
        contexts = tuple(contexts)
        if not contexts:
            raise StructureError("a structure needs at least one context")
        dim = contexts[0].dimension
        for c in contexts:
            if c.dimension != dim:
                raise StructureError(
                    f"context {c.name!r} acts on C^{c.dimension}, expected C^{dim}"
                )
        names = [c.name for c in contexts]
        if len(set(names)) != len(names):
            dup = next(n for n in names if names.count(n) > 1)
            raise StructureError(f"duplicate context name {dup!r}")
        self.ambient_dim = dim
        self.contexts = contexts

    @cached_property
    def lattices(self) -> tuple[InvariantLattice, ...]:
        """One lattice per context, enumerated on first access.

        Commands that never read a member (``validate``, ``ks-search``)
        never pay for the 2^k subset sums.
        """
        return tuple(InvariantLattice(c) for c in self.contexts)

    def find_lattice(self, context_name: str) -> InvariantLattice | None:
        for lat in self.lattices:
            if lat.name == context_name:
                return lat
        return None


def normalize_state(structure: Structure, state) -> tuple:
    """Coerce and check a state vector: right length and not the zero vector."""
    v = tuple(as_scalar(x) for x in state)
    if len(v) != structure.ambient_dim:
        raise DimensionMismatchError(
            f"state of length {len(v)} in ambient dimension {structure.ambient_dim}"
        )
    if not any(v):
        raise ZeroStateError("the zero vector does not allocate any lattice")
    return v


def state_supports(structure: Structure, v) -> list[int]:
    """Each context's support of the normalized state's ray.

    ``v`` is the orthogonal sum of its projections ``P_i v``, so it lies in
    the member named by mask m iff its support is a subset of m.
    """
    ray = Subspace.span_of([v], structure.ambient_dim)
    return [c.support(ray) for c in structure.contexts]


def allocates(support: int) -> bool:
    """True iff a state with this (nonzero) support lies in one atom range."""
    return support & (support - 1) == 0


def allocated_lattices(structure: Structure, state) -> list[InvariantLattice]:
    """Lattices whose context has an atom range containing the state."""
    supports = state_supports(structure, normalize_state(structure, state))
    return [lat for lat, support in zip(structure.lattices, supports) if allocates(support)]


def structure_to_dict(structure: Structure) -> dict:
    """Serializable description; inverse of :func:`structure_from_dict`."""
    return {
        "dimension": structure.ambient_dim,
        "contexts": [
            {
                "name": c.name,
                "projectors": [
                    {
                        "name": p.name,
                        "matrix": [
                            [format_scalar(p.matrix.entry(i, j)) for j in range(p.dimension)]
                            for i in range(p.dimension)
                        ],
                    }
                    for p in c.atoms
                ],
            }
            for c in structure.contexts
        ],
    }


def structure_from_dict(data) -> Structure:
    """Parse and fully validate a structure description.

    Each distinct literal is parsed once and each distinct atom matrix
    (keyed by its literal rows) is validated once; a repeated atom shares
    the first occurrence's matrix and range under its own name.  The shape
    and type checks still run on every occurrence.

    Raises:
        StructureFormatError: wrong JSON shape or a bad scalar literal,
            with the location of the offending element.
        ProjectorError: the first occurrence of a matrix breaking a
            projector law, with its location.
        ContextError, StructureError: a context or structure law fails.
    """
    if not isinstance(data, dict):
        raise StructureFormatError("top level must be an object")
    try:
        dimension = data["dimension"]
        raw_contexts = data["contexts"]
    except KeyError as missing:
        raise StructureFormatError(f"missing top-level key {missing}") from None
    if isinstance(dimension, bool) or not isinstance(dimension, int) or dimension < 1:
        raise StructureFormatError("'dimension' must be a positive integer")
    if not isinstance(raw_contexts, list) or not raw_contexts:
        raise StructureFormatError("'contexts' must be a nonempty list")
    scalars = {}  # literal -> parsed scalar
    projectors = {}  # literal rows -> validated projector
    contexts = []
    for ci, raw_ctx in enumerate(raw_contexts):
        where = f"contexts[{ci}]"
        if not isinstance(raw_ctx, dict):
            raise StructureFormatError(f"{where}: must be an object")
        cname = raw_ctx.get("name")
        if not isinstance(cname, str) or not cname:
            raise StructureFormatError(f"{where}: 'name' must be a nonempty string")
        raw_projs = raw_ctx.get("projectors")
        if not isinstance(raw_projs, list):
            raise StructureFormatError(f"{where}: 'projectors' must be a list")
        atoms = []
        for pi, raw_proj in enumerate(raw_projs):
            pwhere = f"{where}.projectors[{pi}]"
            if not isinstance(raw_proj, dict):
                raise StructureFormatError(f"{pwhere}: must be an object")
            pname = raw_proj.get("name")
            if not isinstance(pname, str) or not pname:
                raise StructureFormatError(f"{pwhere}: 'name' must be a nonempty string")
            raw_matrix = raw_proj.get("matrix")
            if not isinstance(raw_matrix, list) or not raw_matrix:
                raise StructureFormatError(f"{pwhere}: 'matrix' must be a nonempty list of rows")
            for ri, raw_row in enumerate(raw_matrix):
                if not isinstance(raw_row, list) or len(raw_row) != dimension:
                    raise StructureFormatError(
                        f"{pwhere}.matrix[{ri}]: expected a row of {dimension} scalar literals"
                    )
                for si, lit in enumerate(raw_row):
                    if not isinstance(lit, str):
                        raise StructureFormatError(
                            f"{pwhere}.matrix[{ri}][{si}]: entries must be scalar literal strings"
                        )
                    if lit not in scalars:
                        try:
                            scalars[lit] = parse_scalar(lit)
                        except ValueError as err:
                            raise StructureFormatError(
                                f"{pwhere}.matrix[{ri}][{si}]: {err}"
                            ) from err
            if len(raw_matrix) != dimension:
                raise StructureFormatError(
                    f"{pwhere}.matrix: expected {dimension} rows, got {len(raw_matrix)}"
                )
            key = tuple(map(tuple, raw_matrix))
            known = projectors.get(key)
            if known is None:
                matrix = ExactMatrix(dimension, dimension, [scalars[lit] for row in key for lit in row])
                try:
                    known = projectors[key] = validate_projector(matrix, name=pname)
                except ProjectorError as err:
                    raise type(err)(f"{pwhere}: {err}") from err
            atoms.append(known if known.name == pname else replace(known, name=pname))
        contexts.append(validate_context(cname, atoms))
    return Structure(contexts)
