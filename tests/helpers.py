"""Seeded random generators and oracles shared by the unit and acceptance tests."""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import combinations, product
from math import gcd, lcm

from suplat.contexts import (
    Context,
    IncompleteSumError,
    InvariantLattice,
    NotOrthogonalError,
    Structure,
    _mask_label,
    normalize_state,
    validate_context,
)
from suplat.linalg import DimensionMismatchError, ExactMatrix, GaussianRational, as_scalar
from suplat.operators import (
    NotHermitianError,
    NotIdempotentError,
    Projector,
    range_of,
    validate_projector,
)
from suplat.subspaces import Subspace
from suplat.valuation import Mode, TruthValue


class ReferenceScalar:
    """The Fraction-pair Gaussian rational the integer kernel replaced: the
    oracle for its arithmetic, equality, hash contract and literals."""

    __slots__ = ("real", "imag")

    def __init__(self, real: int | Fraction = 0, imag: int | Fraction = 0) -> None:
        self.real = Fraction(real)
        self.imag = Fraction(imag)

    def __add__(self, w: ReferenceScalar) -> ReferenceScalar:
        return ReferenceScalar(self.real + w.real, self.imag + w.imag)

    def __sub__(self, w: ReferenceScalar) -> ReferenceScalar:
        return ReferenceScalar(self.real - w.real, self.imag - w.imag)

    def __mul__(self, w: ReferenceScalar) -> ReferenceScalar:
        return ReferenceScalar(
            self.real * w.real - self.imag * w.imag,
            self.real * w.imag + self.imag * w.real,
        )

    def __truediv__(self, w: ReferenceScalar) -> ReferenceScalar:
        return self * w.inverse()

    def __neg__(self) -> ReferenceScalar:
        return ReferenceScalar(-self.real, -self.imag)

    def conjugate(self) -> ReferenceScalar:
        return ReferenceScalar(self.real, -self.imag)

    def inverse(self) -> ReferenceScalar:
        norm = self.real * self.real + self.imag * self.imag
        if norm == 0:
            raise ZeroDivisionError("zero scalar has no inverse")
        return ReferenceScalar(self.real / norm, -self.imag / norm)

    def __bool__(self) -> bool:
        return bool(self.real) or bool(self.imag)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ReferenceScalar):
            return NotImplemented
        return self.real == other.real and self.imag == other.imag

    def __hash__(self) -> int:
        re, im = self.real, self.imag
        return hash((2 * re.numerator, re.denominator, 2 * im.numerator, im.denominator))


def _reference_rational(value: Fraction) -> str:
    if value.denominator == 1:
        return str(value.numerator)
    return f"{value.numerator}/{value.denominator}"


def reference_format(value: ReferenceScalar) -> str:
    """The canonical literal, rendered from the Fraction parts."""
    if value.imag == 0:
        return _reference_rational(value.real)
    if value.imag == 1:
        imag = "i"
    elif value.imag == -1:
        imag = "-i"
    else:
        imag = _reference_rational(value.imag) + "i"
    if value.real == 0:
        return imag
    sep = "" if value.imag < 0 else "+"
    return _reference_rational(value.real) + sep + imag


def reference_sort_key(s: Subspace) -> tuple:
    """The member order from Fractions: dimension, then the basis entries
    row by row, each by its real part and then its imaginary part.  The
    oracle for the integer keys of :func:`suplat.subspaces._sort_order`."""
    return (s.dim, tuple((e.real, e.imag) for row in s.basis for e in row))


def dense_entry_keys(grids) -> list[tuple[int, ...]]:
    """Each grid's entries as the ints ``a*L/d, b*L/d``, row by row, zeros included,
    with ``L`` the lcm of every denominator in the set: the dense key that the sparse
    key of :func:`suplat.subspaces._sort_order` replaced, kept as its oracle."""
    entries = [[e for row in grid for e in row] for grid in grids]
    common = lcm(*{e._d for es in entries for e in es})
    return [tuple(x for e in es for x in (e._a * common // e._d, e._b * common // e._d)) for es in entries]


def dense_sort_order(subspaces) -> list[int]:
    """Indices that sort the subspaces by dimension, then by their dense keys; stable."""
    keys = dense_entry_keys([s.basis for s in subspaces])
    return sorted(range(len(keys)), key=lambda i: (subspaces[i].dim, keys[i]))


def reference_rref(m: ExactMatrix) -> tuple[ExactMatrix, tuple[int, ...], int]:
    """Reduced row echelon form by column-by-column Gauss-Jordan elimination
    of the whole matrix: the oracle for the insertion routine behind
    ``ExactMatrix.rref``, ``Subspace`` and the lattice build.

    Returns:
        (reduced matrix, pivot column indices, rank).  The reduced form
        is the unique canonical representative of the row space: pivots
        move left to right, each leading entry is 1 and is the only
        nonzero entry in its column, zero rows trail.
    """
    one = GaussianRational(1)
    work = [list(row) for row in m.grid]
    pivots: list[int] = []
    r = 0
    for c in range(m.cols):
        pivot_row = None
        for i in range(r, m.rows):
            if work[i][c]:
                pivot_row = i
                break
        if pivot_row is None:
            continue
        work[r], work[pivot_row] = work[pivot_row], work[r]
        lead = work[r][c]
        if lead != one:
            inv = lead.inverse()
            work[r] = [e * inv for e in work[r]]
        for i in range(m.rows):
            if i != r and work[i][c]:
                f = work[i][c]
                work[i] = [a - f * b for a, b in zip(work[i], work[r])]
        pivots.append(c)
        r += 1
        if r == m.rows:
            break
    return ExactMatrix(work, m.cols), tuple(pivots), r


def reference_span(vectors, ambient_dim: int) -> Subspace:
    """The subspace spanned by the vectors, read off :func:`reference_rref`."""
    reduced, _, rank = reference_rref(ExactMatrix(vectors, ambient_dim))
    s = Subspace(ambient_dim, reduced.grid[:rank])
    assert s.basis == reduced.grid[:rank]  # the constructor keeps a reduced basis as it is
    return s


def reference_contains(s: Subspace, vector) -> bool:
    """True iff the vector lies in the subspace, by reducing it against the
    RREF basis rows: the containment oracle, independent of ``join``."""
    v = [as_scalar(x) for x in vector]
    if len(v) != s.ambient_dim:
        raise DimensionMismatchError(f"vector of length {len(v)} in ambient dimension {s.ambient_dim}")
    for row in s.basis:
        pivot = next(j for j, e in enumerate(row) if e)
        c = v[pivot]
        if c:
            for j in range(pivot, s.ambient_dim):
                v[j] = v[j] - c * row[j]
    return not any(v)


def is_invariant(s: Subspace, p: Projector) -> bool:
    """True iff the projector maps the subspace into itself."""
    if s.ambient_dim != p.dimension:
        raise DimensionMismatchError(
            f"subspace of C^{s.ambient_dim} under a projector on C^{p.dimension}"
        )
    return all(reference_contains(s, p.matrix.apply(row)) for row in s.basis)


def random_fraction(rng: random.Random, span: int = 4) -> Fraction:
    return Fraction(rng.randint(-span, span), rng.randint(1, span))


def random_scalar(rng: random.Random, span: int = 4, complex_parts: bool = True) -> GaussianRational:
    imag = random_fraction(rng, span) if complex_parts else Fraction(0)
    return GaussianRational(random_fraction(rng, span), imag)


def random_nonzero_scalar(rng: random.Random, span: int = 4) -> GaussianRational:
    while True:
        z = random_scalar(rng, span)
        if z:
            return z


def random_matrix(rng: random.Random, rows: int, cols: int, span: int = 3) -> ExactMatrix:
    return ExactMatrix([[random_scalar(rng, span) for _ in range(cols)] for _ in range(rows)], cols)


def random_invertible(rng: random.Random, n: int, span: int = 3) -> ExactMatrix:
    while True:
        m = random_matrix(rng, n, n, span)
        if m.rank() == n:
            return m


def random_subspace(rng: random.Random, ambient: int, span: int = 2) -> Subspace:
    k = rng.randint(0, ambient)
    vectors = [[random_scalar(rng, span) for _ in range(ambient)] for _ in range(k)]
    return Subspace(ambient, vectors)


def random_state(rng: random.Random, ambient: int, span: int = 4) -> tuple:
    while True:
        v = tuple(random_fraction(rng, span) for _ in range(ambient))
        if any(v):
            return v


def gram_schmidt(vectors) -> list[list[GaussianRational]]:
    """Exact Gram-Schmidt over the Hermitian inner product: pairwise
    orthogonal vectors spanning the same space as the independent input."""
    basis: list[list[GaussianRational]] = []
    for v in vectors:
        u = list(v)
        for b in basis:
            coeff = sum((x.conjugate() * y for x, y in zip(b, v)), GaussianRational(0)) / sum(
                (x.conjugate() * x for x in b), GaussianRational(0)
            )
            u = [x - coeff * y for x, y in zip(u, b)]
        basis.append(u)
    return basis


def random_context(rng: random.Random, n: int, name: str, keep=()) -> Context:
    """A context on C^n: the kept atoms, plus projectors onto the blocks of a
    random partition of a random orthogonal basis of their complement.

    Half the time every new block is one vector (rank-1 atoms); otherwise
    blocks of two or more vectors give atoms of higher rank.
    """
    kept = Subspace(n, [b for p in keep for b in p.range.basis])
    complement = kept.orthocomplement().basis
    m = len(complement)
    vectors = gram_schmidt((random_invertible(rng, m, span=2) * ExactMatrix(complement, n)).grid)
    if rng.random() < 0.5:
        cuts = list(range(1, m))
    else:  # without kept atoms, at least one cut: a context needs two atoms
        cuts = sorted(rng.sample(range(1, m), rng.randint(0 if keep else 1, m - 1)))
    blocks = [vectors[a:b] for a, b in zip([0] + cuts, cuts + [m])]
    atoms = [
        validate_projector(Projector("P", Subspace(n, block)).matrix, name=f"{name}{i}")
        for i, block in enumerate(blocks)
    ]
    return validate_context(name, list(keep) + atoms)


def random_structure(rng: random.Random, n: int) -> Structure:
    """Two or three contexts on C^n; each after the first keeps a random
    proper subset, possibly empty, of an earlier context's atoms."""
    contexts = [random_context(rng, n, "A")]
    for name in "BC"[: rng.randint(1, 2)]:
        source = rng.choice(contexts).atoms
        keep = rng.sample(source, rng.randint(0, len(source) - 1))
        contexts.append(random_context(rng, n, name, keep))
    return Structure(contexts)


def atom_range_lists(structure: Structure) -> list[list[Subspace]]:
    """Each context's atom ranges, recomputed by row reduction."""
    return [[range_of(a) for a in ctx.atoms] for ctx in structure.contexts]


def forced_coloring(range_lists, choice) -> dict | None:
    """The 1/0 value of each atom range that a choice tuple forces, keyed in
    first-seen order, or None when two contexts disagree on a shared range."""
    values = {}
    for ranges, chosen in zip(range_lists, choice):
        for i, r in enumerate(ranges):
            want = 1 if i == chosen else 0
            if values.setdefault(r, want) != want:
                return None
    return values


def brute_force_colorings(structure: Structure) -> list[tuple[int, ...]]:
    """Independent coloring oracle: every consistent choice tuple, in
    ``itertools.product`` order.

    Deliberately has nothing in common with the search implementation
    beyond the atom-range subspaces themselves.
    """
    range_lists = atom_range_lists(structure)
    return [
        choice
        for choice in product(*[range(len(rs)) for rs in range_lists])
        if forced_coloring(range_lists, choice) is not None
    ]


def brute_force_coloring_count(structure: Structure) -> int:
    return len(brute_force_colorings(structure))


def reference_ks_dict(structure: Structure, solutions) -> dict:
    """The colorings as one dict per coloring, context name to 1-based true
    atom: the oracle for ``ks_to_json`` through ``json.dumps(..., indent=2)``."""
    return {
        "count": len(solutions),
        "solutions": [
            {ctx.name: index + 1 for ctx, index in zip(structure.contexts, chosen)}
            for chosen in solutions
        ],
    }


def reference_ks_text(structure: Structure, solutions) -> str:
    """The coloring text built one label per context for every coloring:
    the oracle for ``ks_to_text``."""
    lines = [f"solutions: {len(solutions)}"]
    for chosen in solutions:
        lines.append(" ".join(f"{ctx.name}:{i + 1}" for ctx, i in zip(structure.contexts, chosen)))
    return "\n".join(lines) + "\n"


def adjoint(m: ExactMatrix) -> ExactMatrix:
    """The conjugate transpose: entry (j, i) of the result is conj(m[i, j])."""
    return ExactMatrix([[r[j].conjugate() for r in m.grid] for j in range(m.cols)], m.rows)


def matrix_sum(first: ExactMatrix, *rest: ExactMatrix) -> ExactMatrix:
    """The entrywise sum of matrices of one shape."""
    rows = zip(*(m.grid for m in (first, *rest)))
    return ExactMatrix([[sum(es, GaussianRational(0)) for es in zip(*rs)] for rs in rows], first.cols)


def inverse(m: ExactMatrix) -> ExactMatrix:
    """The X with m X = X m = 1 for a square m, read off the reduced form of [m | 1]."""
    n = m.rows
    augmented = ExactMatrix([r + e for r, e in zip(m.grid, ExactMatrix.identity(n).grid)], 2 * n)
    reduced, pivots, _ = augmented.rref()
    if pivots[:n] != tuple(range(n)):
        raise ValueError("matrix is singular")
    return ExactMatrix([r[n:] for r in reduced.grid], n)


def reference_projector(s: Subspace) -> ExactMatrix:
    """The orthogonal projector onto s as ``B (B* B)^-1 B*``, B's columns the basis rows:
    an oracle for ``Projector.matrix`` that takes no Gram-Schmidt step."""
    n = s.ambient_dim
    if s.is_zero():
        return ExactMatrix.zeros(n, n)
    b_star = ExactMatrix(s.basis, n).conjugate()
    return adjoint(b_star) * inverse(b_star * adjoint(b_star)) * b_star


def reference_projector_law(m: ExactMatrix):
    """Projector-law oracle written straight from the definition.

    Returns the exception class :func:`validate_projector` should raise
    for a square matrix, or None for a projector.
    """
    if adjoint(m) != m:
        return NotHermitianError
    if m * m != m:
        return NotIdempotentError
    return None


def reference_context_error(name: str, atoms):
    """Orthogonality-then-completeness oracle for a family of nontrivial,
    uniquely named projectors on one space.

    Returns the (exception class, message) :func:`validate_context` should
    raise, or None: every pairwise product first, then the sum.
    """
    for i in range(len(atoms)):
        for j in range(i + 1, len(atoms)):
            if any(map(any, (atoms[i].matrix * atoms[j].matrix).grid)):
                return NotOrthogonalError, (
                    f"context {name!r}: atoms {atoms[i].name!r} and {atoms[j].name!r}"
                    " are not orthogonal"
                )
    if matrix_sum(*(p.matrix for p in atoms)) != ExactMatrix.identity(atoms[0].dimension):
        return IncompleteSumError, f"context {name!r}: atoms do not sum to the identity"
    return None


def member_index(lattice: InvariantLattice) -> dict[Subspace, int]:
    """Position of each member, keyed by subspace: the membership oracle for
    ``has_member`` and ``index_of``."""
    return {m: i for i, m in enumerate(lattice.members)}


def reference_value(member: Subspace, v, mode: Mode, certified: set[Subspace]) -> TruthValue:
    if member.is_zero():
        return TruthValue.FALSE
    if member.is_full():
        return TruthValue.TRUE
    if mode is Mode.HILBERT or member in certified:
        return TruthValue.TRUE if reference_contains(member, v) else TruthValue.FALSE
    return TruthValue.GAP


@dataclass(frozen=True)
class ReferenceReport:
    """What the oracle finds, with the fields a valuation report renders and
    the ``value`` method :func:`suplat.admissibility.check_admissibility` reads."""

    structure: Structure
    state: tuple
    mode: Mode
    allocated: tuple[str, ...]
    entries: dict
    notes: tuple[str, ...]

    def value(self, i: int, mask: int) -> TruthValue:
        """The entry of the member named by ``mask`` in the context at index ``i``."""
        return self.entries[f"{self.structure.contexts[i].name}.{_mask_label(mask)}"]


def reference_report(structure: Structure, state, mode: Mode) -> tuple[ReferenceReport, dict]:
    """Valuation oracle by row reduction, with no support mask.

    A lattice is allocated when one of its atom ranges contains the state,
    a member is certified when it is in the set of every allocated
    lattice's members, and a bivalent member is true when it contains the
    state.  Atom ranges are recomputed from the projector matrices.
    Returns the report and the oracle's own map from each distinct member
    subspace to its value.
    """
    v = normalize_state(structure, state)
    allocated = [
        lat for lat in structure.lattices if any(reference_contains(range_of(a), v) for a in lat.context.atoms)
    ]
    certified = {m for lat in allocated for m in lat.members}
    values: dict = {}
    entries = {}
    for lat in structure.lattices:
        for member, label in zip(lat.members, lat.labels()):
            if member not in values:
                values[member] = reference_value(member, v, mode, certified)
            entries[f"{lat.name}.{label}"] = values[member]
    notes = ()
    if mode is Mode.HILBERT and not any(val is TruthValue.TRUE for m, val in values.items() if not m.is_full()):
        notes = ("state lies in no nontrivial member; containment renders them all false",)
    return ReferenceReport(structure, v, mode, tuple(lat.name for lat in allocated), entries, notes), values


def _canonical(v: tuple[int, ...]) -> tuple[int, ...]:
    """The primitive integer ray through v whose first nonzero entry is positive."""
    g = gcd(*v) if next(x for x in v if x) > 0 else -gcd(*v)
    return tuple(x // g for x in v)


def _dot(u: tuple[int, ...], v: tuple[int, ...]) -> int:
    return sum(a * b for a, b in zip(u, v))


def _grid_3_rays() -> list[tuple[int, int, int]]:
    """grid-3's 49 rays of C^3: coprime entries in {0, +-1, +-2}, the first nonzero one positive."""
    return [v for v in product((0, 1, -1, 2, -2), repeat=3) if any(v) and _canonical(v) == v]


def _ray_structure(rays: list[tuple[int, ...]]) -> tuple[int, Structure]:
    """The number of rays, and the structure of every orthogonal basis of
    them, in basis order.  Each ray's projector is built once."""
    dim = len(rays[0])
    atoms = [Projector(f"r{i + 1}", Subspace(dim, [v])) for i, v in enumerate(rays)]
    orthogonal = {(a, b) for a, b in combinations(range(len(rays)), 2) if _dot(rays[a], rays[b]) == 0}
    bases = [t for t in combinations(range(len(rays)), dim) if orthogonal.issuperset(combinations(t, 2))]
    return len(rays), Structure([validate_context(f"C{i + 1}", [atoms[a] for a in t]) for i, t in enumerate(bases)])


def grid_3() -> tuple[int, Structure]:
    """grid-3: its 49 rays and 26 orthogonal bases, which have 31104 colorings."""
    return _ray_structure(_grid_3_rays())


@lru_cache(maxsize=None)
def completed_grid_3() -> tuple[int, Structure]:
    """grid-3 completed: its 49 rays and the primitive cross product of each
    orthogonal pair, 109 rays with 86 bases and no coloring."""
    rays = _grid_3_rays()
    for (a1, a2, a3), (b1, b2, b3) in [(u, v) for u, v in combinations(rays, 2) if _dot(u, v) == 0]:
        c = _canonical((a2 * b3 - a3 * b2, a3 * b1 - a1 * b3, a1 * b2 - a2 * b1))
        if c not in rays:
            rays.append(c)
    return _ray_structure(rays)
