"""Seeded random generators and oracles shared by the unit and acceptance tests."""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import product

from suplat.contexts import (
    Context,
    IncompleteSumError,
    NotOrthogonalError,
    Structure,
    normalize_state,
    validate_context,
)
from suplat.linalg import ExactMatrix, GaussianRational
from suplat.operators import NotHermitianError, NotIdempotentError, projector_onto, range_of, validate_projector
from suplat.subspaces import Subspace
from suplat.valuation import Mode, TruthValue, ValuationReport


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
    return ExactMatrix(rows, cols, [random_scalar(rng, span) for _ in range(rows * cols)])


def random_invertible(rng: random.Random, n: int, span: int = 3) -> ExactMatrix:
    while True:
        m = random_matrix(rng, n, n, span)
        if m.rank() == n:
            return m


def random_subspace(rng: random.Random, ambient: int, span: int = 2) -> Subspace:
    k = rng.randint(0, ambient)
    vectors = [[random_scalar(rng, span) for _ in range(ambient)] for _ in range(k)]
    return Subspace.span_of(vectors, ambient)


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
    kept = Subspace.span_of([b for p in keep for b in p.range.basis_vectors()], n)
    complement = kept.orthocomplement().basis
    m = complement.rows
    vectors = gram_schmidt((random_invertible(rng, m, span=2) * complement).row_list())
    if rng.random() < 0.5:
        cuts = list(range(1, m))
    else:  # without kept atoms, at least one cut: a context needs two atoms
        cuts = sorted(rng.sample(range(1, m), rng.randint(0 if keep else 1, m - 1)))
    blocks = [vectors[a:b] for a, b in zip([0] + cuts, cuts + [m])]
    atoms = [
        validate_projector(projector_onto(Subspace.span_of(block, n)).matrix, name=f"{name}{i}")
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


def reference_ks_text(structure: Structure, solutions) -> str:
    """The coloring text built one label per context for every coloring:
    the oracle for ``ks_to_text``."""
    lines = [f"solutions: {len(solutions)}"]
    for chosen in solutions:
        lines.append(" ".join(f"{ctx.name}:{i + 1}" for ctx, i in zip(structure.contexts, chosen)))
    return "\n".join(lines) + "\n"


def reference_projector_law(m: ExactMatrix):
    """Projector-law oracle written straight from the definition.

    Returns the exception class :func:`validate_projector` should raise
    for a square matrix, or None for a projector.
    """
    if m.adjoint() != m:
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
            if not (atoms[i].matrix * atoms[j].matrix).is_zero():
                return NotOrthogonalError, (
                    f"context {name!r}: atoms {atoms[i].name!r} and {atoms[j].name!r}"
                    " are not orthogonal"
                )
    total = atoms[0].matrix
    for p in atoms[1:]:
        total = total + p.matrix
    if total != ExactMatrix.identity(atoms[0].dimension):
        return IncompleteSumError, f"context {name!r}: atoms do not sum to the identity"
    return None


def reference_value(member: Subspace, v, mode: Mode, certified: set[Subspace]) -> TruthValue:
    if member.is_zero():
        return TruthValue.FALSE
    if member.is_full():
        return TruthValue.TRUE
    if mode is Mode.HILBERT or member in certified:
        return TruthValue.TRUE if member.contains_vector(v) else TruthValue.FALSE
    return TruthValue.GAP


def reference_report(structure: Structure, state, mode: Mode) -> tuple[ValuationReport, dict]:
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
        lat for lat in structure.lattices if any(range_of(a).contains_vector(v) for a in lat.context.atoms)
    ]
    certified = {m for lat in allocated for m in lat.members}
    values: dict = {}
    entries = {}
    for lat in structure.lattices:
        for member in lat.members:
            if member not in values:
                values[member] = reference_value(member, v, mode, certified)
            entries[f"{lat.name}.{lat.label(member)}"] = values[member]
    notes = ()
    if mode is Mode.HILBERT and not any(val is TruthValue.TRUE for m, val in values.items() if not m.is_full()):
        notes = ("state lies in no nontrivial member; containment renders them all false",)
    return ValuationReport(structure, v, mode, tuple(lat.name for lat in allocated), entries, notes), values
