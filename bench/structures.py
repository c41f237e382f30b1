"""Seeded structure files for the benchmark, built without importing suplat.

Every atom is the rank-1 projector ``P = v v* / (v* v)`` of a ray ``v``
with Gaussian-integer entries, and every scalar literal is written by
:func:`literal` here, so the inputs do not depend on the code under test.
A Gaussian integer is a pair ``(re, im)`` of Python ints; a ray is a
tuple of them.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass
from fractions import Fraction

@dataclass(frozen=True)
class Spec:
    """A structure: contexts of named rays on C^dim."""

    name: str
    dim: int
    contexts: tuple  # ((context name, ((atom name, ray), ...)), ...)

    def rays(self) -> list:
        """The distinct rays, up to a unit factor, in first-seen order."""
        seen: dict = {}
        for _, atoms in self.contexts:
            for _, ray in atoms:
                seen.setdefault(ray_key(ray), ray)
        return list(seen.values())


def gmul(a, b):
    return (a[0] * b[0] - a[1] * b[1], a[0] * b[1] + a[1] * b[0])


def gconj(a):
    return (a[0], -a[1])


def inner(u, v) -> tuple:
    """Hermitian inner product u* v."""
    re = im = 0
    for a, b in zip(u, v):
        p = gmul(gconj(a), b)
        re += p[0]
        im += p[1]
    return (re, im)


def primitive(ray) -> tuple:
    """The ray divided by the gcd of all its integer parts."""
    g = math.gcd(*(x for z in ray for x in z))
    return tuple((re // g, im // g) for re, im in ray)


def ray_key(ray) -> tuple:
    """Canonical representative of the ray up to a unit factor (1, i, -1, -i)
    and a positive integer content, so equal projectors give equal keys."""
    ray = primitive(ray)
    lead = next(z for z in ray if z != (0, 0))
    # Rotate by the unit that puts the leading entry in the sector re > 0, im >= 0.
    for unit in ((1, 0), (0, 1), (-1, 0), (0, -1)):
        z = gmul(lead, unit)
        if z[0] > 0 and z[1] >= 0:
            return tuple(gmul(x, unit) for x in ray)
    raise AssertionError("unreachable: some unit rotation lands in the sector")


def rational(q: Fraction) -> str:
    return str(q.numerator) if q.denominator == 1 else f"{q.numerator}/{q.denominator}"


def literal(re: Fraction, im: Fraction) -> str:
    """A scalar literal in the grammar suplat reads: ``a``, ``bi``, ``a+bi``, ``a-bi``."""
    if im == 0:
        return rational(re)
    if re == 0:
        return rational(im) + "i"
    return rational(re) + ("+" if im > 0 else "") + rational(im) + "i"


def projector_rows(ray, scale: int = 1) -> list:
    """Rows of ``scale * v v* / (v* v)`` as scalar literals."""
    norm = inner(ray, ray)[0]
    rows = []
    for a in ray:
        row = []
        for b in ray:
            re, im = gmul(a, gconj(b))
            row.append(literal(Fraction(scale * re, norm), Fraction(scale * im, norm)))
        rows.append(row)
    return rows


def to_json(spec: Spec, scaled_atom=None, dropped_atom=None) -> dict:
    """The structure file contents.

    ``scaled_atom`` = (context index, atom index) writes that atom as 2P,
    which is not idempotent; ``dropped_atom`` leaves that atom out, so the
    context no longer sums to the identity.
    """
    contexts = []
    for ci, (cname, atoms) in enumerate(spec.contexts):
        projectors = []
        for ai, (aname, ray) in enumerate(atoms):
            if (ci, ai) == dropped_atom:
                continue
            scale = 2 if (ci, ai) == scaled_atom else 1
            projectors.append({"name": aname, "matrix": projector_rows(ray, scale)})
        contexts.append({"name": cname, "projectors": projectors})
    return {"dimension": spec.dim, "contexts": contexts}


def state_literal(ray) -> str:
    return ",".join(literal(Fraction(re), Fraction(im)) for re, im in ray)


# --- Kochen-Specker-style sets ------------------------------------------------


def _real(*entries) -> tuple:
    return tuple((x, 0) for x in entries)


def _numbered(rays) -> tuple:
    return tuple((f"P{i + 1}", ray) for i, ray in enumerate(rays))


def pauli_qubit() -> Spec:
    """The built-in ``pauli-qubit``: the z, x and y bases of a qubit."""
    return Spec("pauli-qubit", 2, (
        ("Sigma_z", (("z+", _real(1, 0)), ("z-", _real(0, 1)))),
        ("Sigma_x", (("x+", _real(1, 1)), ("x-", _real(1, -1)))),
        ("Sigma_y", (("y+", ((1, 0), (0, 1))), ("y-", ((1, 0), (0, -1))))),
    ))


# The nine bases of Cabello, Estebaranz and Garcia-Alcaine, Phys. Lett. A 212
# (1996) 183, quant-ph/9706009.  Each of the 18 rays lies in exactly two bases,
# so no coloring exists (a parity argument over 9 odd sums).
_CABELLO_18 = (
    ((0, 0, 0, 1), (0, 0, 1, 0), (1, 1, 0, 0), (1, -1, 0, 0)),
    ((0, 0, 0, 1), (0, 1, 0, 0), (1, 0, 1, 0), (1, 0, -1, 0)),
    ((1, -1, 1, -1), (1, -1, -1, 1), (1, 1, 0, 0), (0, 0, 1, 1)),
    ((1, -1, 1, -1), (1, 1, 1, 1), (1, 0, -1, 0), (0, 1, 0, -1)),
    ((0, 0, 1, 0), (0, 1, 0, 0), (1, 0, 0, 1), (1, 0, 0, -1)),
    ((1, -1, -1, 1), (1, 1, 1, 1), (1, 0, 0, -1), (0, 1, -1, 0)),
    ((1, 1, -1, 1), (1, 1, 1, -1), (1, -1, 0, 0), (0, 0, 1, 1)),
    ((1, 1, -1, 1), (-1, 1, 1, 1), (1, 0, 1, 0), (0, 1, 0, -1)),
    ((1, 1, 1, -1), (-1, 1, 1, 1), (1, 0, 0, 1), (0, 1, -1, 0)),
)


def cabello_3() -> Spec:
    """The built-in ``cabello-3``: bases 1, 2 and 6 of the 18-ray set."""
    picks = (("S1", 0), ("S2", 1), ("S6", 5))
    return Spec("cabello-3", 4, tuple(
        (name, _numbered(_real(*r) for r in _CABELLO_18[i])) for name, i in picks
    ))


def cabello_18() -> Spec:
    return Spec("cabello-18", 4, tuple(
        (f"C{i + 1}", _numbered(_real(*r) for r in basis)) for i, basis in enumerate(_CABELLO_18)
    ))


def orthogonal_bases(rays, dim: int) -> list:
    """Every complete orthogonal basis (dim-clique of the orthogonality graph),
    as sorted index tuples in lexicographic order."""
    n = len(rays)
    orth = [[inner(rays[a], rays[b]) == (0, 0) for b in range(n)] for a in range(n)]
    found = []

    def extend(clique, start):
        if len(clique) == dim:
            found.append(tuple(clique))
            return
        for b in range(start, n):
            if all(orth[a][b] for a in clique):
                extend(clique + [b], b + 1)

    extend([], 0)
    return found


def _from_rays(name: str, dim: int, rays) -> Spec:
    bases = orthogonal_bases(rays, dim)
    return Spec(name, dim, tuple(
        (f"C{ci + 1}", _numbered(rays[i] for i in basis)) for ci, basis in enumerate(bases)
    ))


def peres_24_rays() -> list:
    """Peres, J. Phys. A 24 (1991) L175: the 24 rays of C^4 with entries in
    {0, 1, -1} that have one, two or four nonzero entries."""
    rays = []
    for entries in itertools.product((0, 1, -1), repeat=4):
        support = sum(1 for x in entries if x)
        if support in (1, 2, 4) and next(x for x in entries if x) == 1:
            rays.append(_real(*entries))
    return rays


def peres_24() -> Spec:
    return _from_rays("peres-24", 4, peres_24_rays())


def grid_3_rays() -> list:
    """The 49 primitive rays of C^3 with entries in {0, +-1, +-2}."""
    rays = []
    for entries in itertools.product((0, 1, -1, 2, -2), repeat=3):
        nonzero = [x for x in entries if x]
        if nonzero and nonzero[0] > 0 and math.gcd(*entries) == 1:
            rays.append(_real(*entries))
    return rays


def grid_3() -> Spec:
    return _from_rays("grid-3", 3, grid_3_rays())


# --- Seeded rotations ---------------------------------------------------------

_UNITS = ((1, 0), (0, 1), (-1, 0), (0, -1))


def givens_columns(dim: int, rng: random.Random) -> list:
    """Columns of 5^(dim-1) U for the product U of exact Givens rotations
    [[3/5, -4/5 conj(p)], [4/5 p, 3/5]] along a seeded chain through every
    coordinate, with seeded unit phases p."""
    cols = [[(1, 0) if r == c else (0, 0) for r in range(dim)] for c in range(dim)]
    order = list(range(dim))
    rng.shuffle(order)
    for p, q in zip(order, order[1:]):
        phase = rng.choice(_UNITS)
        for col in cols:
            a, b = col[p], col[q]
            ta, tb = gmul(gconj(phase), b), gmul(phase, a)
            col[:] = [(5 * x, 5 * y) for x, y in col]
            col[p] = (3 * a[0] - 4 * ta[0], 3 * a[1] - 4 * ta[1])
            col[q] = (4 * tb[0] + 3 * b[0], 4 * tb[1] + 3 * b[1])
    return [primitive(col) for col in cols]


_SMALL = ((1, 0), (-1, 0), (0, 1), (0, -1), (1, 1), (1, -1), (-1, 1), (-1, -1))


def reflected_basis(dim: int, rng: random.Random) -> list:
    """Columns of (w* w) H for the Householder reflection H = I - 2 w w* / (w* w)
    of a seeded Gaussian-integer w with entries in {+-1, +-i, +-1+-i}.

    H is unitary and every entry is nonzero (redrawn until so), so no proper
    subset of its columns spans a coordinate subspace.
    """
    while True:
        w = [rng.choice(_SMALL) for _ in range(dim)]
        norm = inner(w, w)[0]
        cols = []
        for c in range(dim):
            col = []
            for r in range(dim):
                z = gmul(w[r], gconj(w[c]))
                col.append((norm * (r == c) - 2 * z[0], -2 * z[1]))
            cols.append(primitive(col))
        if all(z != (0, 0) for col in cols for z in col):
            return cols


def diag(dim: int) -> Spec:
    basis = [tuple((1, 0) if r == c else (0, 0) for r in range(dim)) for c in range(dim)]
    return Spec(f"diag-{dim}", dim, (("D", _numbered(basis)),))


def rot(dim: int, rng: random.Random) -> Spec:
    return Spec(f"rot-{dim}", dim, (("R", _numbered(givens_columns(dim, rng))),))


def merged_pair(dim: int, keep: int, rng: random.Random) -> Spec:
    """Context A is the standard basis; B keeps ``keep`` seeded atoms of A and
    replaces the rest by a dense reflection within their span."""
    kept = sorted(rng.sample(range(dim), keep))
    rest = [r for r in range(dim) if r not in kept]
    unit = [tuple((1, 0) if r == c else (0, 0) for r in range(dim)) for c in range(dim)]
    b_rays = [unit[c] for c in kept]
    for col in reflected_basis(len(rest), rng):
        ray = [(0, 0)] * dim
        for r, z in zip(rest, col):
            ray[r] = z
        b_rays.append(tuple(ray))
    return Spec(f"merged-keep{keep}", dim, (("A", _numbered(unit)), ("B", _numbered(b_rays))))
