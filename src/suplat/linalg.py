"""Exact arithmetic over the Gaussian rationals, plus dense exact matrices.

A scalar is a Gaussian rational ``(a + b*i) / d`` held as three arbitrary-precision ints
in lowest terms.  Everything downstream (echelon forms, ranks, null spaces) is computed
exactly, so canonical forms are unique and equality is structural.  No tolerances
anywhere.  Row elimination reads the triples, so each entry it changes is one new scalar.
"""

from __future__ import annotations

import re
from math import gcd, lcm
from numbers import Rational


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
    scalars always have identical representations.  Each of ``+ - * /``
    and ``inverse`` costs a few int products and one ``math.gcd``;
    negation and conjugation need none.  ``real`` and ``imag`` are
    read-only Fraction views for callers that want the parts.
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
        if type(other) is not GaussianRational:
            other = self._coerce(other)
            if other is None:
                return NotImplemented
        c, e, f = other._a, other._b, other._d
        if not (c or e):
            return self
        a, b, d = self._a, self._b, self._d
        if not (a or b):
            return other
        if d == f:
            return _reduced(a + c, b + e, d)
        return _reduced(a * f + c * d, b * f + e * d, d * f)

    __radd__ = __add__

    def __sub__(self, other: object) -> GaussianRational:
        if type(other) is not GaussianRational:
            other = self._coerce(other)
            if other is None:
                return NotImplemented
        c, e, f = other._a, other._b, other._d
        if not (c or e):
            return self
        a, b, d = self._a, self._b, self._d
        if d == f:
            return _reduced(a - c, b - e, d)
        return _reduced(a * f - c * d, b * f - e * d, d * f)

    def __rsub__(self, other: object) -> GaussianRational:
        w = self._coerce(other)
        if w is None:
            return NotImplemented
        return w - self

    def __mul__(self, other: object) -> GaussianRational:
        if type(other) is not GaussianRational:
            other = self._coerce(other)
            if other is None:
                return NotImplemented
        a, b = self._a, self._b
        c, e = other._a, other._b
        if not (a or b) or not (c or e):
            return _ZERO
        return _reduced(a * c - b * e, a * e + b * c, self._d * other._d)

    __rmul__ = __mul__

    def __truediv__(self, other: object) -> GaussianRational:
        if type(other) is not GaussianRational:
            other = self._coerce(other)
            if other is None:
                return NotImplemented
        # (a + bi)/d / ((c + ei)/f) = f (a + bi)(c - ei) / (d (c^2 + e^2))
        c, e, f = other._a, other._b, other._d
        if not (c or e):
            raise ZeroDivisionError("division by the zero scalar")
        a, b = self._a, self._b
        return _reduced(f * (a * c + b * e), f * (b * c - a * e), self._d * (c * c + e * e))

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


_RATIONAL_RE = re.compile(r"(-?\d+)(?:/(\d+))?")


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
    if p >= len(text) or text[p] != "i":
        raise ScalarSyntaxError(text, p, "expected imaginary unit 'i'")
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


def _integer_entry_keys(matrices) -> list[tuple[int, ...]]:
    """Each matrix's entries as the ints ``a*L/d, b*L/d``, row by row.

    ``L`` is the lcm of every denominator in the set.  Scaling by one
    positive L keeps the order of real parts and of imaginary parts, so
    among matrices of one shape these keys order the matrices by their
    entries row by row, each entry by its real part and then its
    imaginary part, with no Fraction built or compared.
    """
    dens = {e._d for m in matrices for e in m.entries}
    common = lcm(*dens)
    scale = {d: common // d for d in dens}
    return [tuple([x for e in m.entries for x in (e._a * scale[e._d], e._b * scale[e._d])]) for m in matrices]


def _is_hermitian(entries, n: int) -> bool:
    """True iff the n x n row-major entries equal their adjoint, read off the canonical
    triples: entry (i, j) is conj(entry (j, i)) iff (a, b, d) = (a', -b', d')."""
    pairs = ((entries[i * n + j], entries[j * n + i]) for i in range(n) for j in range(i, n))
    return all(x._a == y._a and x._b == -y._b and x._d == y._d for x, y in pairs)


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
    """Immutable row-major matrix over the Gaussian rationals."""

    __slots__ = ("rows", "cols", "entries")

    def __init__(self, rows: int, cols: int, entries) -> None:
        if rows < 0 or cols < 0:
            raise ValueError("matrix dimensions must be nonnegative")
        flat = tuple(entries)
        # Checking types in C is cheaper than calling as_scalar on each entry.
        if not set(map(type, flat)) <= _SCALAR_TYPE:
            flat = tuple(map(as_scalar, flat))
        if len(flat) != rows * cols:
            raise DimensionMismatchError(
                f"expected {rows * cols} entries for a {rows}x{cols} matrix, got {len(flat)}"
            )
        self.rows = rows
        self.cols = cols
        self.entries = flat

    @classmethod
    def from_rows(cls, rows) -> ExactMatrix:
        """Build from a nonempty sequence of equal-length rows.

        Entries may be ints, Fractions, scalar literals or scalars.
        """
        rows = [tuple(r) for r in rows]
        if not rows:
            raise ValueError("from_rows needs at least one row; use ExactMatrix(0, n, ())")
        width = len(rows[0])
        if any(len(r) != width for r in rows):
            raise DimensionMismatchError("rows have unequal lengths")
        return cls(len(rows), width, [e for r in rows for e in r])

    @classmethod
    def identity(cls, n: int) -> ExactMatrix:
        return cls(n, n, [_ONE if i == j else _ZERO for i in range(n) for j in range(n)])

    @classmethod
    def zeros(cls, rows: int, cols: int) -> ExactMatrix:
        return cls(rows, cols, [_ZERO] * (rows * cols))

    def entry(self, i: int, j: int) -> GaussianRational:
        return self.entries[i * self.cols + j]

    def row(self, i: int) -> tuple[GaussianRational, ...]:
        return self.entries[i * self.cols : (i + 1) * self.cols]

    def row_list(self) -> list[tuple[GaussianRational, ...]]:
        return [self.row(i) for i in range(self.rows)]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ExactMatrix):
            return NotImplemented
        return (
            self.rows == other.rows
            and self.cols == other.cols
            and self.entries == other.entries
        )

    def __hash__(self) -> int:
        return hash((self.rows, self.cols, self.entries))

    def __mul__(self, other: object) -> ExactMatrix:
        """Matrix product; a scalar factor is not supported."""
        if not isinstance(other, ExactMatrix):
            return NotImplemented
        if self.cols != other.rows:
            raise DimensionMismatchError(
                f"cannot multiply {self.rows}x{self.cols} by {other.rows}x{other.cols}"
            )
        out = []
        for i in range(self.rows):
            left = self.row(i)
            for j in range(other.cols):
                acc = _ZERO
                for k in range(self.cols):
                    acc = acc + left[k] * other.entry(k, j)
                out.append(acc)
        return ExactMatrix(self.rows, other.cols, out)

    def conjugate(self) -> ExactMatrix:
        return ExactMatrix(self.rows, self.cols, [a.conjugate() for a in self.entries])

    def apply(self, vector) -> tuple[GaussianRational, ...]:
        """Multiply by a column vector given as a flat sequence."""
        v = [as_scalar(x) for x in vector]
        if len(v) != self.cols:
            raise DimensionMismatchError(
                f"vector of length {len(v)} cannot multiply a {self.rows}x{self.cols} matrix"
            )
        out = []
        for i in range(self.rows):
            acc = _ZERO
            row = self.row(i)
            for k in range(self.cols):
                if v[k]:
                    acc = acc + row[k] * v[k]
            out.append(acc)
        return tuple(out)

    def rref(self) -> tuple[ExactMatrix, tuple[int, ...], int]:
        """(reduced matrix, pivot columns, rank): the row space's unique reduced row echelon
        form, pivots left to right, each leading entry a 1 alone in its column, zero rows last."""
        reduced, pivots = _insert_rows(ExactMatrix(0, self.cols, ()), (), self.row_list())
        pad = (_ZERO,) * ((self.rows - reduced.rows) * self.cols)
        return ExactMatrix(self.rows, self.cols, reduced.entries + pad), pivots, reduced.rows

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
                v[p] = -reduced.entry(i, f)
            basis.extend(v)
        return ExactMatrix(len(free), self.cols, basis)

    def __str__(self) -> str:
        grid = [[format_scalar(self.entry(i, j)) for j in range(self.cols)] for i in range(self.rows)]
        return "[" + "; ".join(" ".join(row) for row in grid) + "]"

    def __repr__(self) -> str:
        return f"ExactMatrix({self.rows}x{self.cols} {self})"


def _minus_multiple(v, f: GaussianRational, w) -> list[GaussianRational]:
    """The row ``v - f*w`` on the triples: an entry of ``v`` is kept where ``w`` is 0,
    and each other entry is ``(a + bi)/d - (p + qi)(c + ei)/(r h)``, one ``_reduced``."""
    p, q, r = f._a, f._b, f._d
    out = []
    for x, y in zip(v, w):
        c, e = y._a, y._b
        if c or e:
            re, im, h, d = p * c - q * e, p * e + q * c, r * y._d, x._d
            if d == h:
                x = _reduced(x._a - re, x._b - im, d)
            else:
                x = _reduced(x._a * h - re * d, x._b * h - im * d, d * h)
        out.append(x)
    return out


def _insert_rows(basis: ExactMatrix, pivots: tuple[int, ...], rows) -> tuple[ExactMatrix, tuple[int, ...]]:
    """Gauss-Jordan elimination by insertion: the reduced echelon basis of the rows of
    ``basis`` (reduced, with pivot columns ``pivots``) and of ``rows``, and its pivots.
    A new row is reduced against the pivot rows and dropped if nothing is left; else it
    is scaled to a leading 1, cleared from the other rows and inserted in pivot order.
    The rows are kept in one flat list, so a column is a slice.  Steps read the triples:
    a zero test is ``a or b``, reducing and clearing are ``_minus_multiple``, and scaling
    multiplies each nonzero entry by the lead's inverse ``d (a - bi) / (a^2 + b^2)``."""
    n = basis.cols
    flat, pivots = list(basis.entries), list(pivots)
    for v in rows:
        for k, c in enumerate(pivots):
            f = v[c]
            if f._a or f._b:
                v = _minus_multiple(v, f, flat[k * n : k * n + n])
        lead = next((j for j, x in enumerate(v) if x._a or x._b), None)
        if lead is None:
            continue
        a, b, d = v[lead]._a, v[lead]._b, v[lead]._d
        if b or a != d:  # the leading entry is not 1
            p, q, m = d * a, d * b, a * a + b * b
            v = [_reduced(x._a * p + x._b * q, x._b * p - x._a * q, x._d * m) if x._a or x._b else x for x in v]
        for k in range(0, len(flat), n):
            f = flat[k + lead]
            if f._a or f._b:
                flat[k : k + n] = _minus_multiple(flat[k : k + n], f, v)
        pivots = sorted(pivots + [lead])
        k = pivots.index(lead) * n
        flat[k:k] = v
    m = _new(ExactMatrix)  # entries are scalars already: no type check
    m.rows, m.cols, m.entries = len(pivots), n, tuple(flat)
    return m, tuple(pivots)
