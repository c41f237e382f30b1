"""Exact arithmetic over the Gaussian rationals, plus dense exact matrices.

A scalar is a Gaussian rational ``(a + b*i) / d`` held as three arbitrary-precision ints
in lowest terms.  Everything downstream (echelon forms, ranks, null spaces) is computed
exactly, so canonical forms are unique and equality is structural.  No tolerances
anywhere.  A row is a tuple of scalars, and a matrix holds a tuple of rows.  Row
elimination (``_insert_rows``) takes and returns rows, not matrices, and reads the
triples, so each entry it changes is one new scalar.
The scalar operators are the library's numeric protocol; of the commands, only
``datasets export`` calls them, deriving each projector's matrix from its range.
"""

from __future__ import annotations

import re
from bisect import bisect_left
from itertools import chain
from math import gcd
from numbers import Rational

from .frozen import Frozen, setfield


class ScalarError(ValueError):
    """A scalar literal could not be read; carries the text and offset."""

    def __init__(self, text: str, position: int, message: str) -> None:
        super().__init__(f"{message} (position {position} in {text!r})")
        self.text = text
        self.position = position


class ScalarSyntaxError(ScalarError):
    """The literal does not match the scalar grammar."""


class ZeroDenominatorError(ScalarError):
    """A rational part was written with denominator zero."""


class DimensionMismatchError(ValueError):
    """Operands have incompatible shapes or lengths."""


class GaussianRational:
    """Immutable complex scalar ``(a + b*i) / d`` held as three ints.

    The triple is canonical: ``d > 0`` and ``gcd(a, b, d) == 1``, so equal
    scalars always have identical representations.  The operators are the
    library's numeric protocol, one formula each on the triples: ``+``,
    ``*`` and ``inverse`` reduce once, ``-`` adds the negation and ``/``
    multiplies by the inverse.  The commands read the triples; only
    ``datasets export``, which derives each projector's matrix, calls the
    operators.  ``real`` and ``imag`` are read-only Fraction views.
    """

    __slots__ = ("_a", "_b", "_d")

    def __init__(self, real: int | Fraction = 0, imag: int | Fraction = 0) -> None:
        if not isinstance(real, Rational) or not isinstance(imag, Rational):
            raise TypeError("parts must be int or Fraction; floating point parts are not exact")
        q, s = real.denominator, imag.denominator
        a, b, d = real.numerator * s, imag.numerator * q, q * s
        g = gcd(a, b, d)
        self._a, self._b, self._d = a // g, b // g, d // g

    # The parts import fractions when first read: nothing on the command
    # line path reads them, and importing fractions also imports decimal.
    @property
    def real(self) -> Fraction:
        from fractions import Fraction

        return Fraction(self._a, self._d)

    @property
    def imag(self) -> Fraction:
        from fractions import Fraction

        return Fraction(self._b, self._d)

    @staticmethod
    def _coerce(value: object) -> GaussianRational | None:
        if isinstance(value, GaussianRational):
            return value
        if isinstance(value, Rational):
            return GaussianRational(value)
        return None

    def __add__(self, other: object) -> GaussianRational:
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        a, b, d, c, e, f = self._a, self._b, self._d, other._a, other._b, other._d
        return _reduced(a * f + c * d, b * f + e * d, d * f)

    __radd__ = __add__

    def __sub__(self, other: object) -> GaussianRational:
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self + -other

    def __rsub__(self, other: object) -> GaussianRational:
        w = self._coerce(other)
        if w is None:
            return NotImplemented
        return w - self

    def __mul__(self, other: object) -> GaussianRational:
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        a, b, c, e = self._a, self._b, other._a, other._b
        return _reduced(a * c - b * e, a * e + b * c, self._d * other._d)

    __rmul__ = __mul__

    def __truediv__(self, other: object) -> GaussianRational:
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self * other.inverse()

    def __rtruediv__(self, other: object) -> GaussianRational:
        w = self._coerce(other)
        if w is None:
            return NotImplemented
        return w * self.inverse()

    def __neg__(self) -> GaussianRational:
        return _triple(-self._a, -self._b, self._d)

    def conjugate(self) -> GaussianRational:
        return _triple(self._a, -self._b, self._d)

    def inverse(self) -> GaussianRational:
        # d / (a + bi) = d (a - bi) / (a^2 + b^2)
        a, b, d = self._a, self._b, self._d
        if not (a or b):
            raise ZeroDivisionError("zero scalar has no inverse")
        return _reduced(d * a, -d * b, a * a + b * b)

    def __bool__(self) -> bool:
        return bool(self._a or self._b)

    def __eq__(self, other: object) -> bool:
        # Plain ints and Fractions are not coerced: they hash differently, so
        # equal objects would not hash equal.  Arithmetic still coerces them.
        if not isinstance(other, GaussianRational):
            return NotImplemented
        return self._a == other._a and self._b == other._b and self._d == other._d

    def __hash__(self) -> int:
        # hash(-1) == hash(-2) in CPython, so hashing the numerators as they
        # are makes span{(1,-1,0)} and span{(1,-2,0)} collide; doubled
        # numerators are never -1.
        return hash((2 * self._a, 2 * self._b, self._d))

    def __str__(self) -> str:
        return format_scalar(self)

    def __repr__(self) -> str:
        return f"GaussianRational({self.real}, {self.imag})"


_new = object.__new__


def _triple(a: int, b: int, d: int) -> GaussianRational:
    """The scalar ``(a + b*i) / d`` from a triple that is already canonical."""
    z = _new(GaussianRational)
    z._a, z._b, z._d = a, b, d
    return z


def _reduced(a: int, b: int, d: int) -> GaussianRational:
    """The scalar ``(a + b*i) / d`` for ``d > 0``, brought to lowest terms."""
    g = gcd(a, b, d)
    if g != 1:
        a, b, d = a // g, b // g, d // g
    z = _new(GaussianRational)
    z._a, z._b, z._d = a, b, d
    return z


_RATIONAL_RE = re.compile(r"(-?[0-9]+)(?:/([0-9]+))?")  # \d would match any Unicode digit


def _read_rational(text: str, pos: int) -> tuple[int, int, int] | None:
    """Numerator, denominator and end of a rational at ``pos``, or None."""
    m = _RATIONAL_RE.match(text, pos)
    if m is None:
        return None
    if m.group(2) is None:
        return int(m.group(1)), 1, m.end()
    den = int(m.group(2))
    if den == 0:
        raise ZeroDenominatorError(text, m.start(2), "zero denominator")
    return int(m.group(1)), den, m.end()


def _read_imag_tail(text: str, pos: int) -> tuple[int, int, int]:
    # imaginary part: optional rational coefficient, then the unit "i"
    rat = _read_rational(text, pos)
    num, den, p = (1, 1, pos) if rat is None else rat
    if text[p : p + 1] != "i":
        expected = "a number or imaginary unit 'i'" if rat is None else "imaginary unit 'i'"
        raise ScalarSyntaxError(text, p, f"expected {expected}")
    return num, den, p + 1


def parse_scalar(text: str) -> GaussianRational:
    """Parse a literal like ``-1``, ``2/3``, ``i``, ``-1/2i`` or ``1/2-1/2i``.

    Accepts any grammatical form (for example unreduced ``2/4``); the
    canonical renderer is :func:`format_scalar`.  One sign joins the real
    and imaginary parts, so ``1+-2i`` is malformed rather than ``1-2i``.

    Raises:
        ScalarSyntaxError: malformed literal, with the failing position.
        ZeroDenominatorError: a rational written with denominator zero.
    """
    if not text:
        raise ScalarSyntaxError(text, 0, "empty literal")
    # real part p/q, imaginary part r/s
    p, q, r, s = 0, 1, 0, 1
    rat = _read_rational(text, 0)
    if rat is None:
        if text.startswith("-i"):
            r, pos = -1, 2
        else:
            r, s, pos = _read_imag_tail(text, 0)
    else:
        num, den, pos = rat
        after = text[pos : pos + 1]
        if after == "i":
            r, s, pos = num, den, pos + 1
        else:
            p, q = num, den
            if after in ("+", "-"):
                if text[pos + 1 : pos + 2] in ("+", "-"):
                    raise ScalarSyntaxError(text, pos + 1, "sign after sign")
                r, s, pos = _read_imag_tail(text, pos + 1)
                if after == "-":
                    r = -r
    if pos != len(text):
        raise ScalarSyntaxError(text, pos, "unexpected trailing characters")
    return _reduced(p * s, r * q, q * s)


def _format_rational(num: int, den: int) -> str:
    g = gcd(num, den)
    if g == den:
        return str(num // g)
    return f"{num // g}/{den // g}"


def format_scalar(value: GaussianRational) -> str:
    """Render the unique canonical literal; inverse of :func:`parse_scalar`."""
    a, b, d = value._a, value._b, value._d
    if b == 0:
        return _format_rational(a, d)
    if b == d:
        imag = "i"
    elif b == -d:
        imag = "-i"
    else:
        imag = _format_rational(b, d) + "i"
    if a == 0:
        return imag
    sep = "" if b < 0 else "+"
    return _format_rational(a, d) + sep + imag


def _dot(u, v, sign: int = 1) -> tuple[int, int, int]:
    """``sum u_i v_i`` (``sum conj(u_i) v_i`` for sign -1) as the unreduced triple
    ``(a, b, d)``: zero terms are skipped, and the ints share one running denominator."""
    a, b, d = 0, 0, 1
    for x, y in zip(u, v):
        p, q, r, s = x._a, sign * x._b, y._a, y._b
        if (p or q) and (r or s):
            re, im, f = p * r - q * s, p * s + q * r, x._d * y._d
            if f != d:
                a, b, re, im, d = a * f, b * f, re * d, im * d, d * f
            a, b = a + re, b + im
    return a, b, d


def _is_orthogonal(u, v) -> bool:
    """True iff the Hermitian inner product <u, v> is zero."""
    return _dot(u, v, -1)[:2] == (0, 0)


def as_scalar(value: object) -> GaussianRational:
    """Coerce an int, Fraction, literal string or scalar into a scalar."""
    if isinstance(value, GaussianRational):
        return value
    if isinstance(value, Rational):
        return GaussianRational(value)
    if isinstance(value, str):
        return parse_scalar(value)
    raise TypeError(f"cannot interpret {value!r} as an exact scalar")


_ZERO = GaussianRational(0)
_ONE = GaussianRational(1)
_SCALAR_TYPE = {GaussianRational}


class ExactMatrix:
    """Immutable matrix over the Gaussian rationals: ``grid`` holds its rows, a tuple of row
    tuples, and ``rows`` and ``cols`` its shape.  The constructor takes the rows, whose
    entries may be ints, Fractions, scalar literals or scalars, and reads ``cols`` off them;
    with no rows, ``cols`` must be given.  It compares and hashes by its fields, which
    cannot be assigned, and copies and pickles through the constructor."""

    __slots__ = ("rows", "cols", "grid")
    __setattr__, __delattr__ = Frozen.__setattr__, Frozen.__delattr__

    def __init__(self, grid, cols: int | None = None) -> None:
        grid = tuple(map(tuple, grid))
        if cols is None:
            if not grid:
                raise ValueError("a matrix with no rows needs its column count")
            cols = len(grid[0])
        if cols < 0:
            raise ValueError("matrix dimensions must be nonnegative")
        for r in grid:
            if len(r) != cols:
                raise DimensionMismatchError(f"a row of {len(r)} entries in a matrix of {cols} columns")
        # Checking types in C is cheaper than calling as_scalar on each entry.
        if not set(map(type, chain.from_iterable(grid))) <= _SCALAR_TYPE:
            grid = tuple(tuple(map(as_scalar, r)) for r in grid)
        setfield(self, "rows", len(grid))
        setfield(self, "cols", cols)
        setfield(self, "grid", grid)

    def __reduce__(self) -> tuple:
        return ExactMatrix, (self.grid, self.cols)

    @staticmethod
    def identity(n: int) -> ExactMatrix:
        return _matrix(n, [tuple(_ONE if i == j else _ZERO for j in range(n)) for i in range(n)])

    @staticmethod
    def zeros(rows: int, cols: int) -> ExactMatrix:
        return _matrix(cols, [(_ZERO,) * cols] * rows)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ExactMatrix):
            return NotImplemented
        return self.rows == other.rows and self.cols == other.cols and self.grid == other.grid

    def __hash__(self) -> int:
        return hash((self.rows, self.cols, self.grid))

    def __mul__(self, other: object) -> ExactMatrix:
        """Matrix product; a scalar factor is not supported."""
        if not isinstance(other, ExactMatrix):
            return NotImplemented
        if self.cols != other.rows:
            raise DimensionMismatchError(
                f"cannot multiply {self.rows}x{self.cols} by {other.rows}x{other.cols}"
            )
        columns = [[r[j] for r in other.grid] for j in range(other.cols)]
        return _matrix(other.cols, [tuple(_reduced(*_dot(r, c)) for c in columns) for r in self.grid])

    def conjugate(self) -> ExactMatrix:
        return _matrix(self.cols, [tuple(a.conjugate() for a in r) for r in self.grid])

    def apply(self, vector) -> tuple[GaussianRational, ...]:
        """Multiply by a column vector given as a flat sequence."""
        v = [as_scalar(x) for x in vector]
        if len(v) != self.cols:
            raise DimensionMismatchError(
                f"vector of length {len(v)} cannot multiply a {self.rows}x{self.cols} matrix"
            )
        return tuple(_reduced(*_dot(r, v)) for r in self.grid)

    def rref(self) -> tuple[ExactMatrix, tuple[int, ...], int]:
        """(reduced matrix, pivot columns, rank): the row space's unique reduced row echelon
        form, pivots left to right, each leading entry a 1 alone in its column, zero rows last."""
        reduced, pivots = _insert_rows((), (), self.grid)
        pad = ((_ZERO,) * self.cols,) * (self.rows - len(reduced))
        return _matrix(self.cols, reduced + pad), pivots, len(reduced)

    def rank(self) -> int:
        return self.rref()[2]

    def null_space(self) -> ExactMatrix:
        """Basis of ``{v : self * v = 0}``, one vector per row.

        The row count always equals ``cols - rank``.
        """
        reduced, pivots, rank = self.rref()
        free = [c for c in range(self.cols) if c not in pivots]
        basis = []
        for f in free:
            v = [_ZERO] * self.cols
            v[f] = _ONE
            for i, p in enumerate(pivots):
                v[p] = -reduced.grid[i][f]
            basis.append(tuple(v))
        return _matrix(self.cols, basis)

    def __str__(self) -> str:
        return "[" + "; ".join(" ".join(map(format_scalar, row)) for row in self.grid) + "]"

    def __repr__(self) -> str:
        return f"ExactMatrix({self.rows}x{self.cols} {self})"


def _matrix(cols: int, rows) -> ExactMatrix:
    """The matrix with these rows, tuples of scalars ``cols`` long: no check, no copy of a row."""
    m = _new(ExactMatrix)
    setfield(m, "rows", len(rows))
    setfield(m, "cols", cols)
    setfield(m, "grid", tuple(rows))
    return m


def _minus_multiple(v, f: GaussianRational, w, col: int) -> tuple[GaussianRational, ...]:
    """The row ``v - f*w`` on the triples, where ``w`` is 0 before column ``col`` and 1 at it
    and ``f`` is ``v[col]``: the entries before ``col`` are ``v``'s, the one at ``col`` is the
    shared zero, and of the rest ``v``'s is kept where ``w`` is 0 and each other one is
    ``(a + bi)/d - (p + qi)(c + ei)/(r h)``, one ``_reduced``."""
    p, q, r = f._a, f._b, f._d
    out = list(v[:col])
    out.append(_ZERO)
    for x, y in zip(v[col + 1:], w[col + 1:]):
        c, e = y._a, y._b
        if c or e:
            re, im, h, d = p * c - q * e, p * e + q * c, r * y._d, x._d
            if d == h:
                x = _reduced(x._a - re, x._b - im, d)
            else:
                x = _reduced(x._a * h - re * d, x._b * h - im * d, d * h)
        out.append(x)
    return tuple(out)


def _insert_rows(basis, pivots: tuple[int, ...], rows) -> tuple[tuple[tuple, ...], tuple[int, ...]]:
    """Gauss-Jordan elimination by insertion: the reduced echelon basis of the rows of
    ``basis`` (reduced, with pivot columns ``pivots``) and of ``rows``, all tuples, as a tuple
    of rows, and its pivots.  A new row is reduced against the pivot rows and dropped if
    nothing is left; else it is scaled to a leading 1, cleared from the other rows and
    inserted in pivot order.  A row that no step changes stays the same object, so a lattice
    member shares each row it does not clear with the member it was built from.  Steps read
    the triples: a zero test is ``a or b``, reducing and clearing are ``_minus_multiple``, told
    the column they clear (the pivot column, the lead column), and scaling multiplies each
    nonzero entry after the lead by the lead's inverse ``d (a - bi) / (a^2 + b^2)``.  The
    cleared zero and the scaled lead's 1 are written, not computed."""
    basis, pivots = list(basis), list(pivots)
    for v in rows:
        for k, c in enumerate(pivots):
            f = v[c]
            if f._a or f._b:
                v = _minus_multiple(v, f, basis[k], c)
        for lead, x in enumerate(v):
            if x._a or x._b:
                break
        else:
            continue
        a, b, d = x._a, x._b, x._d
        if b or a != d:  # the leading entry is not 1
            p, q, m = d * a, d * b, a * a + b * b
            v = (*v[:lead], _ONE, *[_reduced(y._a * p + y._b * q, y._b * p - y._a * q, y._d * m) if y._a or y._b else y
                                    for y in v[lead + 1:]])
        for k, w in enumerate(basis):
            f = w[lead]
            if f._a or f._b:
                basis[k] = _minus_multiple(w, f, v, lead)
        at = bisect_left(pivots, lead)
        pivots.insert(at, lead)
        basis.insert(at, v)
    return tuple(basis), tuple(pivots)
