"""Exact arithmetic over the Gaussian rationals, plus dense exact matrices.

Scalars are complex numbers whose real and imaginary parts are
arbitrary-precision rationals.  Everything downstream (echelon forms,
ranks, null spaces) is computed exactly, so canonical forms are unique
and equality is structural.  No tolerances anywhere.
"""

from __future__ import annotations

import re
from fractions import Fraction


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


class SingularMatrixError(ValueError):
    """Inversion was attempted on a rank-deficient matrix."""


class GaussianRational:
    """Immutable complex scalar ``real + imag*i`` with Fraction parts.

    Fraction keeps both parts in lowest terms with positive denominators,
    so equal scalars always have identical representations.
    """

    __slots__ = ("real", "imag")

    def __init__(self, real: int | Fraction = 0, imag: int | Fraction = 0) -> None:
        if isinstance(real, float) or isinstance(imag, float):
            raise TypeError("floating point parts are not exact; use int or Fraction")
        self.real = Fraction(real)
        self.imag = Fraction(imag)

    @staticmethod
    def _coerce(value: object) -> GaussianRational | None:
        if isinstance(value, GaussianRational):
            return value
        if isinstance(value, (int, Fraction)):
            return GaussianRational(value)
        return None

    def __add__(self, other: object) -> GaussianRational:
        w = self._coerce(other)
        if w is None:
            return NotImplemented
        return GaussianRational(self.real + w.real, self.imag + w.imag)

    __radd__ = __add__

    def __sub__(self, other: object) -> GaussianRational:
        w = self._coerce(other)
        if w is None:
            return NotImplemented
        return GaussianRational(self.real - w.real, self.imag - w.imag)

    def __rsub__(self, other: object) -> GaussianRational:
        w = self._coerce(other)
        if w is None:
            return NotImplemented
        return w - self

    def __mul__(self, other: object) -> GaussianRational:
        w = self._coerce(other)
        if w is None:
            return NotImplemented
        return GaussianRational(
            self.real * w.real - self.imag * w.imag,
            self.real * w.imag + self.imag * w.real,
        )

    __rmul__ = __mul__

    def __truediv__(self, other: object) -> GaussianRational:
        w = self._coerce(other)
        if w is None:
            return NotImplemented
        return self * w.inverse()

    def __rtruediv__(self, other: object) -> GaussianRational:
        w = self._coerce(other)
        if w is None:
            return NotImplemented
        return w * self.inverse()

    def __neg__(self) -> GaussianRational:
        return GaussianRational(-self.real, -self.imag)

    def conjugate(self) -> GaussianRational:
        return GaussianRational(self.real, -self.imag)

    def inverse(self) -> GaussianRational:
        norm = self.real * self.real + self.imag * self.imag
        if norm == 0:
            raise ZeroDivisionError("zero scalar has no inverse")
        return GaussianRational(self.real / norm, -self.imag / norm)

    def __bool__(self) -> bool:
        return bool(self.real) or bool(self.imag)

    def __eq__(self, other: object) -> bool:
        # Plain ints and Fractions are not coerced: they hash differently, so
        # equal objects would not hash equal.  Arithmetic still coerces them.
        if not isinstance(other, GaussianRational):
            return NotImplemented
        return self.real == other.real and self.imag == other.imag

    def __hash__(self) -> int:
        # hash(-1) == hash(-2) in CPython, so hashing the parts as they are
        # makes span{(1,-1,0)} and span{(1,-2,0)} collide; doubled numerators
        # are never -1.
        re, im = self.real, self.imag
        return hash((2 * re.numerator, re.denominator, 2 * im.numerator, im.denominator))

    def sort_key(self) -> tuple[Fraction, Fraction]:
        """Deterministic total order used only for canonical sorting."""
        return (self.real, self.imag)

    def __str__(self) -> str:
        return format_scalar(self)

    def __repr__(self) -> str:
        return f"GaussianRational({self.real}, {self.imag})"


_RATIONAL_RE = re.compile(r"(-?\d+)(?:/(\d+))?")


def _read_rational(text: str, pos: int) -> tuple[Fraction | None, int]:
    m = _RATIONAL_RE.match(text, pos)
    if m is None:
        return None, pos
    if m.group(2) is not None:
        den = int(m.group(2))
        if den == 0:
            raise ZeroDenominatorError(text, m.start(2), "zero denominator")
        return Fraction(int(m.group(1)), den), m.end()
    return Fraction(int(m.group(1))), m.end()


def _read_imag_tail(text: str, pos: int) -> tuple[Fraction, int]:
    # imaginary part: optional rational coefficient, then the unit "i"
    coeff, p = _read_rational(text, pos)
    if coeff is None:
        coeff = Fraction(1)
    if p >= len(text) or text[p] != "i":
        raise ScalarSyntaxError(text, p, "expected imaginary unit 'i'")
    return coeff, p + 1


def parse_scalar(text: str) -> GaussianRational:
    """Parse a literal like ``-1``, ``2/3``, ``i``, ``-1/2i`` or ``1/2-1/2i``.

    Accepts any grammatical form (for example unreduced ``2/4``); the
    canonical renderer is :func:`format_scalar`.

    Raises:
        ScalarSyntaxError: malformed literal, with the failing position.
        ZeroDenominatorError: a rational written with denominator zero.
    """
    if not text:
        raise ScalarSyntaxError(text, 0, "empty literal")
    real = Fraction(0)
    rat, pos = _read_rational(text, 0)
    if rat is None:
        if text.startswith("-i"):
            imag, pos = Fraction(-1), 2
        else:
            imag, pos = _read_imag_tail(text, 0)
    elif pos < len(text) and text[pos] == "i":
        imag, pos = rat, pos + 1
    elif pos < len(text) and text[pos] in "+-":
        real = rat
        sign = -1 if text[pos] == "-" else 1
        coeff, pos = _read_imag_tail(text, pos + 1)
        imag = sign * coeff
    else:
        imag = Fraction(0)
        real = rat
    if pos != len(text):
        raise ScalarSyntaxError(text, pos, "unexpected trailing characters")
    return GaussianRational(real, imag)


def format_rational(value: Fraction) -> str:
    if value.denominator == 1:
        return str(value.numerator)
    return f"{value.numerator}/{value.denominator}"


def format_scalar(value: GaussianRational) -> str:
    """Render the unique canonical literal; inverse of :func:`parse_scalar`."""
    if value.imag == 0:
        return format_rational(value.real)
    if value.imag == 1:
        imag = "i"
    elif value.imag == -1:
        imag = "-i"
    else:
        imag = format_rational(value.imag) + "i"
    if value.real == 0:
        return imag
    sep = "" if value.imag < 0 else "+"
    return format_rational(value.real) + sep + imag


def as_scalar(value: object) -> GaussianRational:
    """Coerce an int, Fraction, literal string or scalar into a scalar."""
    if isinstance(value, GaussianRational):
        return value
    if isinstance(value, (int, Fraction)):
        return GaussianRational(value)
    if isinstance(value, str):
        return parse_scalar(value)
    raise TypeError(f"cannot interpret {value!r} as an exact scalar")


_ZERO = GaussianRational(0)
_ONE = GaussianRational(1)


class ExactMatrix:
    """Immutable row-major matrix over the Gaussian rationals."""

    __slots__ = ("rows", "cols", "entries", "_hash")

    def __init__(self, rows: int, cols: int, entries) -> None:
        if rows < 0 or cols < 0:
            raise ValueError("matrix dimensions must be nonnegative")
        flat = tuple(as_scalar(e) for e in entries)
        if len(flat) != rows * cols:
            raise DimensionMismatchError(
                f"expected {rows * cols} entries for a {rows}x{cols} matrix, got {len(flat)}"
            )
        self.rows = rows
        self.cols = cols
        self.entries = flat
        self._hash: int | None = None

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

    def column(self, j: int) -> tuple[GaussianRational, ...]:
        return tuple(self.entries[i * self.cols + j] for i in range(self.rows))

    def row_list(self) -> list[tuple[GaussianRational, ...]]:
        return [self.row(i) for i in range(self.rows)]

    def is_square(self) -> bool:
        return self.rows == self.cols

    def is_zero(self) -> bool:
        return not any(self.entries)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ExactMatrix):
            return NotImplemented
        return (
            self.rows == other.rows
            and self.cols == other.cols
            and self.entries == other.entries
        )

    def __hash__(self) -> int:
        # Subspaces key dicts by their basis matrix; hashing every Fraction
        # entry on each lookup would dominate, so hash once.
        if self._hash is None:
            self._hash = hash((self.rows, self.cols, self.entries))
        return self._hash

    def _require_same_shape(self, other: ExactMatrix) -> None:
        if self.rows != other.rows or self.cols != other.cols:
            raise DimensionMismatchError(
                f"shape mismatch: {self.rows}x{self.cols} vs {other.rows}x{other.cols}"
            )

    def __add__(self, other: ExactMatrix) -> ExactMatrix:
        if not isinstance(other, ExactMatrix):
            return NotImplemented
        self._require_same_shape(other)
        return ExactMatrix(
            self.rows, self.cols, [a + b for a, b in zip(self.entries, other.entries)]
        )

    def __sub__(self, other: ExactMatrix) -> ExactMatrix:
        if not isinstance(other, ExactMatrix):
            return NotImplemented
        self._require_same_shape(other)
        return ExactMatrix(
            self.rows, self.cols, [a - b for a, b in zip(self.entries, other.entries)]
        )

    def __neg__(self) -> ExactMatrix:
        return ExactMatrix(self.rows, self.cols, [-a for a in self.entries])

    def __mul__(self, other: object) -> ExactMatrix:
        if isinstance(other, ExactMatrix):
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
        scalar = GaussianRational._coerce(other)
        if scalar is None:
            return NotImplemented
        return ExactMatrix(self.rows, self.cols, [scalar * a for a in self.entries])

    def __rmul__(self, other: object) -> ExactMatrix:
        scalar = GaussianRational._coerce(other)
        if scalar is None:
            return NotImplemented
        return ExactMatrix(self.rows, self.cols, [scalar * a for a in self.entries])

    def transpose(self) -> ExactMatrix:
        return ExactMatrix(
            self.cols,
            self.rows,
            [self.entry(i, j) for j in range(self.cols) for i in range(self.rows)],
        )

    def conjugate(self) -> ExactMatrix:
        return ExactMatrix(self.rows, self.cols, [a.conjugate() for a in self.entries])

    def adjoint(self) -> ExactMatrix:
        """Conjugate transpose."""
        return ExactMatrix(
            self.cols,
            self.rows,
            [self.entry(i, j).conjugate() for j in range(self.cols) for i in range(self.rows)],
        )

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

    def vstack(self, other: ExactMatrix) -> ExactMatrix:
        if self.cols != other.cols:
            raise DimensionMismatchError("vstack needs equal column counts")
        return ExactMatrix(self.rows + other.rows, self.cols, self.entries + other.entries)

    def hstack(self, other: ExactMatrix) -> ExactMatrix:
        if self.rows != other.rows:
            raise DimensionMismatchError("hstack needs equal row counts")
        out = []
        for i in range(self.rows):
            out.extend(self.row(i))
            out.extend(other.row(i))
        return ExactMatrix(self.rows, self.cols + other.cols, out)

    def rref(self) -> tuple[ExactMatrix, tuple[int, ...], int]:
        """Reduced row echelon form.

        Returns:
            (reduced matrix, pivot column indices, rank).  The reduced form
            is the unique canonical representative of the row space: pivots
            move left to right, each leading entry is 1 and is the only
            nonzero entry in its column, zero rows trail.
        """
        work = [list(self.row(i)) for i in range(self.rows)]
        pivots: list[int] = []
        r = 0
        for c in range(self.cols):
            pivot_row = None
            for i in range(r, self.rows):
                if work[i][c]:
                    pivot_row = i
                    break
            if pivot_row is None:
                continue
            work[r], work[pivot_row] = work[pivot_row], work[r]
            lead = work[r][c]
            if lead != _ONE:
                inv = lead.inverse()
                work[r] = [e * inv for e in work[r]]
            for i in range(self.rows):
                if i != r and work[i][c]:
                    f = work[i][c]
                    work[i] = [a - f * b for a, b in zip(work[i], work[r])]
            pivots.append(c)
            r += 1
            if r == self.rows:
                break
        flat = [e for row in work for e in row]
        return ExactMatrix(self.rows, self.cols, flat), tuple(pivots), r

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

    def inverse(self) -> ExactMatrix:
        if not self.is_square():
            raise DimensionMismatchError("only square matrices can be inverted")
        n = self.rows
        reduced, pivots, rank = self.hstack(ExactMatrix.identity(n)).rref()
        if rank < n or pivots != tuple(range(n)):
            raise SingularMatrixError("matrix is singular")
        out = []
        for i in range(n):
            out.extend(reduced.row(i)[n:])
        return ExactMatrix(n, n, out)

    def __str__(self) -> str:
        grid = [[format_scalar(self.entry(i, j)) for j in range(self.cols)] for i in range(self.rows)]
        return "[" + "; ".join(" ".join(row) for row in grid) + "]"

    def __repr__(self) -> str:
        return f"ExactMatrix({self.rows}x{self.cols} {self})"
