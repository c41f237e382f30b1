"""Measurement contexts, their atom-sum lattices, and structures.

A context is a resolution of the identity into at least two nontrivial
mutually orthogonal projectors.  Its lattice is the powerset of its
atoms: a member is named by its atom mask (bit i for atom i) and is the
sum of those atom ranges, so there are 2^k distinct members.  A subspace
lies in the sum of its support's atoms (those whose projectors do not
annihilate it), so it is a member iff its dimension is that sum's rank.
With rank-1 atoms the members are exactly the invariant subspaces.
This atom-sum rule is the only membership test; neither it nor the
valuation hashes a subspace.  A structure numbers its distinct atom
ranges once, for the coloring search, and keeps each atom's support in
another context for ``eval`` and ``hasse``, which never read the numbering.
"""

from __future__ import annotations

from functools import cached_property

from .frozen import Frozen
from .linalg import DimensionMismatchError, ExactMatrix, _insert_rows, _is_orthogonal
from .linalg import as_scalar, parse_scalar
from .operators import Projector, ProjectorError, validate_projector
from .subspaces import Subspace, _Literals, _sort_order


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


class Context(Frozen):
    """A named resolution of the identity into orthogonal nontrivial atoms."""

    __slots__ = ("name", "atoms", "__dict__")

    @property
    def dimension(self) -> int:
        return self.atoms[0].dimension

    def support(self, s: Subspace) -> int:
        """Mask of the atoms whose projectors do not annihilate the subspace.

        ``P b = 0`` iff b is orthogonal to the range of P, so each basis
        vector of s is tested against the atom's range basis with integer
        Hermitian inner products instead of a matrix-vector product.
        """
        if s.ambient_dim != self.dimension:
            raise DimensionMismatchError(f"subspace of C^{s.ambient_dim} against a context on C^{self.dimension}")
        basis = s.basis_vectors()
        return sum(
            1 << i for i, p in enumerate(self.atoms)
            if not all(_is_orthogonal(r, b) for r in p.range.basis_vectors() for b in basis)
        )

    @cached_property
    def _extra_ranks(self) -> tuple[tuple[int, int], ...]:
        """(bit, rank - 1) of each atom of rank above 1."""
        return tuple((1 << i, p.rank - 1) for i, p in enumerate(self.atoms) if p.rank > 1)

    def rank(self, mask: int) -> int:
        """Dimension of the sum of the atom ranges in the mask."""
        return mask.bit_count() + sum(extra for bit, extra in self._extra_ranks if mask & bit)

    @cached_property
    def lattice(self) -> InvariantLattice:
        """The context's lattice, enumerated on first read, so ``validate``,
        ``admissibility`` and ``ks-search`` build none and ``hasse --scope NAME``
        builds only the lattice it draws."""
        return InvariantLattice(self)


def validate_context(name: str, projectors) -> Context:
    """Check the context laws and return the validated context.

    Laws: at least two atoms, all on the same space, each nontrivial,
    names unique, pairwise orthogonal, and summing to the identity.

    Hermitian projectors have ``P_i P_j = 0`` iff their ranges are
    orthogonal, so the first pair of range bases with a nonzero inner
    product is the first non-orthogonal pair.  Mutually orthogonal
    projectors sum to the projector onto the direct sum of their ranges:
    I exactly when the ranks add up to the dimension.
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
    ranges = [(p.name, p.range.basis_vectors()) for p in atoms]
    for i, (a, rows_a) in enumerate(ranges):
        for b, rows_b in ranges[i + 1:]:
            if not all(_is_orthogonal(u, v) for u in rows_a for v in rows_b):
                raise NotOrthogonalError(f"context {name!r}: atoms {a!r} and {b!r} are not orthogonal")
    if sum(p.rank for p in atoms) != dim:
        raise IncompleteSumError(f"context {name!r}: atoms do not sum to the identity")
    return Context(name, atoms)


class InvariantLattice:
    """The Boolean lattice of subset-sums of a context's atom ranges.

    Members are canonical subspaces sorted by dimension and then by
    lexicographic basis order; ``masks`` aligns each member with its atom
    mask (bit i set when atom i's range is a summand).  A member is built by
    inserting its top atom's range rows into the member without that atom.
    """

    def __init__(self, context: Context) -> None:
        self.context = context
        rows = [p.range.basis_vectors() for p in context.atoms]
        sums, pivots = [Subspace.zero(context.dimension)], [()]  # pivot columns of each mask's basis
        for mask in range(1, 1 << len(rows)):
            top = mask.bit_length() - 1
            rest = mask ^ 1 << top  # smaller, so its member is built
            basis, cols = _insert_rows(sums[rest].basis, pivots[rest], rows[top])
            sums.append(Subspace(context.dimension, basis))
            pivots.append(cols)
        self.masks: tuple[int, ...] = tuple(_sort_order(sums))
        self.members: tuple[Subspace, ...] = tuple(sums[m] for m in self.masks)

    @property
    def name(self) -> str:
        return self.context.name

    def has_member(self, s: Subspace) -> bool:
        return s.ambient_dim == self.context.dimension and is_lattice_member(s, self.context)

    def index_of(self, s: Subspace) -> int:
        """Position of a member, whose atom mask is its support; KeyError for a non-member."""
        if not self.has_member(s):
            raise KeyError(s)
        return self.masks.index(self.context.support(s))

    @cached_property
    def mask_labels(self) -> list[str]:
        """Each member's label by atom mask, built by doubling: that of ``m | 1 << a`` is m's plus ``+<a+1>``."""
        labels = ["0"]
        for top in map(str, range(1, len(self.context.atoms) + 1)):
            labels += [top] + [f"{label}+{top}" for label in labels[1:]]
        return labels

    def labels(self) -> list[str]:
        """Every member's label, in member order."""
        return list(map(self.mask_labels.__getitem__, self.masks))


def _mask_label(mask: int) -> str:
    """Label of the member named by an atom mask, with 1-based atom numbers."""
    return "+".join(str(i + 1) for i in range(mask.bit_length()) if mask >> i & 1) or "0"


def is_lattice_member(s: Subspace, context: Context) -> bool:
    """True iff the subspace is a member of the context's atom-sum lattice:
    it lies in the sum of its support's atom ranges, so it equals that sum
    exactly when the dimensions agree."""
    return s.dim == context.rank(context.support(s))


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
        self._supports: dict[tuple[int, int], int] = {}  # (o, id of an atom range) -> its support in context o

    @property
    def lattices(self) -> tuple[InvariantLattice, ...]:
        """Every context's lattice, in context order."""
        return tuple(c.lattice for c in self.contexts)

    @cached_property
    def range_ids(self) -> tuple[tuple[int, ...], ...]:
        """Each context's atoms as ids of the distinct atom ranges, numbered by ``Subspace``
        equality in structure order; that hashes every basis, so only the coloring search reads it."""
        index: dict[Subspace, int] = {}
        return tuple(tuple(index.setdefault(a.range, len(index)) for a in c.atoms) for c in self.contexts)

    def member_support(self, o: int, i: int, mask: int) -> int:
        """Support in context ``o`` of the member of context ``i`` named by ``mask`` (the mask
        itself if ``o == i``): the union of its atoms' supports, each computed on first request
        and kept by its range object, which a repeated atom shares."""
        if o == i:
            return mask
        support = 0
        for a, atom in enumerate(self.contexts[i].atoms):
            if mask >> a & 1:
                key = (o, id(atom.range))  # the structure holds the range, so its id is not reused
                if key not in self._supports:
                    self._supports[key] = self.contexts[o].support(atom.range)
                support |= self._supports[key]
        return support


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
    return [c.lattice for c, support in zip(structure.contexts, supports) if allocates(support)]


def structure_to_dict(structure: Structure) -> dict:
    """Serializable description; inverse of :func:`structure_from_dict`."""
    literals = _Literals()
    return {
        "dimension": structure.ambient_dim,
        "contexts": [
            {
                "name": c.name,
                "projectors": [{"name": p.name, "matrix": literals.rows(p.matrix)} for p in c.atoms],
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
    row_width = dimension if dimension < 2**64 else "2**64 or more"  # a short-row error quotes it
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
        if not cname.isprintable():  # a line break would split every line-oriented output
            raise StructureFormatError(f"{where}: 'name' must be printable (no line break or control character)")
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
                        f"{pwhere}.matrix[{ri}]: expected a row of {row_width} scalar literals"
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
            atoms.append(known if known.name == pname else Projector(pname, known.matrix, known.range))
        try:
            contexts.append(validate_context(cname, atoms))
        except ContextError as err:
            raise type(err)(f"{where}: {err}") from err
    return Structure(contexts)
