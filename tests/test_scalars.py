"""Scalar literal grammar and exact Gaussian-rational arithmetic."""

from __future__ import annotations

import random
import subprocess
import sys
from fractions import Fraction
from math import gcd
from pathlib import Path

import pytest

from suplat.linalg import (
    GaussianRational,
    ScalarSyntaxError,
    ZeroDenominatorError,
    as_scalar,
    format_scalar,
    parse_scalar,
)

from helpers import ReferenceScalar, random_nonzero_scalar, random_scalar, reference_format


@pytest.mark.parametrize(
    "text,real,imag",
    [
        ("0", 0, 0),
        ("1/2", Fraction(1, 2), 0),
        ("-1", -1, 0),
        ("7", 7, 0),
        ("i", 0, 1),
        ("-i", 0, -1),
        ("3i", 0, 3),
        ("-2/3i", 0, Fraction(-2, 3)),
        ("1+i", 1, 1),
        ("1-i", 1, -1),
        ("1/2-1/2i", Fraction(1, 2), Fraction(-1, 2)),
        ("-3/4+2i", Fraction(-3, 4), 2),
    ],
)
def test_parse_examples(text, real, imag):
    assert parse_scalar(text) == GaussianRational(real, imag)


@pytest.mark.parametrize(
    "text,canonical",
    [
        ("2/4", "1/2"),
        ("-2/4", "-1/2"),
        ("0i", "0"),
        ("1+0i", "1"),
        ("0/5", "0"),
        ("0+1i", "i"),
        ("3/3", "1"),
    ],
)
def test_noncanonical_inputs_reduce(text, canonical):
    assert format_scalar(parse_scalar(text)) == canonical


@pytest.mark.parametrize(
    "value,expected",
    [
        (GaussianRational(0, 0), "0"),
        (GaussianRational(Fraction(1, 2), Fraction(-1, 2)), "1/2-1/2i"),
        (GaussianRational(0, -1), "-i"),
        (GaussianRational(0, 1), "i"),
        (GaussianRational(1, 1), "1+i"),
        (GaussianRational(-2, Fraction(3, 5)), "-2+3/5i"),
    ],
)
def test_format_examples(value, expected):
    assert format_scalar(value) == expected


def test_round_trip_corpus():
    rng = random.Random(101)
    for _ in range(300):
        z = random_scalar(rng, span=9)
        text = format_scalar(z)
        assert parse_scalar(text) == z
        # canonical text is a fixed point of parse-then-format
        assert format_scalar(parse_scalar(text)) == text


@pytest.mark.parametrize(
    "text,position",
    [
        ("", 0),
        ("abc", 0),
        ("1+", 2),
        ("1/2+", 4),
        ("1i2", 2),
        ("--1", 0),
        ("1.5", 1),
        ("1 + i", 1),
        # digits are ASCII: any other decimal digit is not a numeral
        ("\u0663", 0),
        ("1\u0662", 1),
        ("1/\u0662", 1),
        ("1+\uff12i", 2),
    ],
)
def test_syntax_errors_report_position(text, position):
    with pytest.raises(ScalarSyntaxError) as err:
        parse_scalar(text)
    assert err.value.position == position


@pytest.mark.parametrize(
    "text,position,expected",
    [
        # neither a number nor "i" where the literal fails
        ("\u0661", 0, "a number or imaginary unit 'i'"),
        ("x", 0, "a number or imaginary unit 'i'"),
        (" 1", 0, "a number or imaginary unit 'i'"),
        ("-", 0, "a number or imaginary unit 'i'"),
        ("1+x", 2, "a number or imaginary unit 'i'"),
        ("1+", 2, "a number or imaginary unit 'i'"),
        # a number that no "i" follows
        ("1+2", 3, "imaginary unit 'i'"),
        ("1-1/2x", 5, "imaginary unit 'i'"),
    ],
)
def test_syntax_error_names_what_was_expected(text, position, expected):
    with pytest.raises(ScalarSyntaxError) as err:
        parse_scalar(text)
    assert str(err.value) == f"expected {expected} (position {position} in {text!r})"


@pytest.mark.parametrize(
    "text,position",
    [("1+-2i", 2), ("1--2i", 2), ("1+-i", 2), ("1--i", 2), ("1-+2i", 2), ("1++i", 2), ("1/2+-1/2i", 4)],
)
def test_second_sign_is_a_syntax_error(text, position):
    # "1+-2i" once read as 1-2i and "1--2i" as 1+2i
    with pytest.raises(ScalarSyntaxError) as err:
        parse_scalar(text)
    assert err.value.position == position
    assert str(err.value) == f"sign after sign (position {position} in {text!r})"


def test_zero_denominator_rejected():
    with pytest.raises(ZeroDenominatorError) as err:
        parse_scalar("1/0")
    assert err.value.position == 2
    with pytest.raises(ZeroDenominatorError):
        parse_scalar("1+2/0i")


def test_field_laws_corpus():
    rng = random.Random(202)
    for _ in range(200):
        a = random_scalar(rng)
        b = random_scalar(rng)
        c = random_scalar(rng)
        assert (a + b) + c == a + (b + c)
        assert a + b == b + a
        assert a * b == b * a
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert a + 0 == a
        assert a * 1 == a
        assert a - a == GaussianRational(0)
        assert (a * b).conjugate() == a.conjugate() * b.conjugate()


def test_inverse_and_division():
    rng = random.Random(303)
    for _ in range(100):
        a = random_nonzero_scalar(rng)
        assert a * a.inverse() == GaussianRational(1)
        b = random_scalar(rng)
        assert (b / a) * a == b
    with pytest.raises(ZeroDivisionError):
        GaussianRational(0).inverse()


def test_floats_rejected():
    message = "parts must be int or Fraction; floating point parts are not exact"
    for real, imag in ((0.5, 0), (0, 0.5), (Fraction(1, 2), 0.5)):
        with pytest.raises(TypeError) as raised:
            GaussianRational(real, imag)
        assert str(raised.value) == message
    with pytest.raises(TypeError) as raised:
        as_scalar(0.5)
    assert str(raised.value) == "cannot interpret 0.5 as an exact scalar"


def test_fraction_parts_in_and_out():
    z = GaussianRational(Fraction(1, 3))
    assert (z, format_scalar(z)) == (parse_scalar("1/3"), "1/3")
    assert as_scalar(Fraction(2, 4)) == GaussianRational(1, 0) / 2
    w = GaussianRational(Fraction(-6, 4), Fraction(2, 6))
    assert (w.real, w.imag) == (Fraction(-3, 2), Fraction(1, 3))
    assert type(w.real) is Fraction and type(w.imag) is Fraction and type(z.imag) is Fraction
    assert GaussianRational(1) + Fraction(1, 2) == GaussianRational(Fraction(3, 2))


def test_fractions_imported_only_when_a_part_is_read():
    src = str(Path(__file__).parents[1] / "src")
    probe = (
        f"import sys; sys.path.insert(0, {src!r}); from suplat.linalg import parse_scalar\n"
        "z = parse_scalar('1/3+2i') * 3 / 2\n"
        "before = 'fractions' in sys.modules\n"
        "part = z.real\n"
        "print(before, 'fractions' in sys.modules, type(part).__module__, part)"
    )
    done = subprocess.run([sys.executable, "-S", "-c", probe], capture_output=True, text=True, timeout=60)
    assert (done.returncode, done.stderr) == (0, "")
    assert done.stdout.split() == ["False", "True", "fractions", "1/2"]


def test_as_scalar_coercions():
    assert as_scalar(3) == GaussianRational(3)
    assert as_scalar(Fraction(1, 3)) == GaussianRational(Fraction(1, 3))
    assert as_scalar("1-i") == GaussianRational(1, -1)
    assert as_scalar(GaussianRational(2, 5)) == GaussianRational(2, 5)


def test_hash_agrees_with_equality_and_separates_minus_one_and_two():
    assert hash(GaussianRational(Fraction(2, 4), -3)) == hash(GaussianRational(Fraction(1, 2), -3))
    assert hash(GaussianRational(-1)) != hash(GaussianRational(-2))
    assert hash(GaussianRational(0, -1)) != hash(GaussianRational(0, -2))


def test_only_scalars_compare_equal_so_equal_objects_hash_equal():
    # arithmetic coerces ints and Fractions, equality does not
    for plain in (3, Fraction(3), Fraction(-1, 2), 0):
        z = GaussianRational(plain)
        assert z != plain and plain != z
        assert z == as_scalar(plain) and hash(z) == hash(as_scalar(plain))
    assert {3: "int"}.get(GaussianRational(3)) is None
    assert {GaussianRational(3): "scalar"}.get(3) is None
    assert GaussianRational(1) + 2 == GaussianRational(3)
    assert 2 * GaussianRational(0, 1) == GaussianRational(0, 2)
    assert hash(GaussianRational(-1)) != hash(GaussianRational(-2))


def _reference_pool(rng: random.Random) -> list[ReferenceScalar]:
    """Zero, the four units, and random scalars with small, mixed and ~10^30 parts."""
    big = 10**30

    def part(kind: str) -> Fraction:
        if kind == "small":
            return Fraction(rng.randint(-9, 9), rng.randint(1, 9))
        if kind == "huge":
            return Fraction(rng.choice((-1, 1)) * (big + rng.randint(-999, 999)), rng.choice((1, 7, big - rng.randint(1, 999))))
        return Fraction(rng.randint(-big, big), rng.randint(1, big))

    pool = [ReferenceScalar(0), ReferenceScalar(1), ReferenceScalar(-1), ReferenceScalar(0, 1), ReferenceScalar(0, -1)]
    for _ in range(30):
        pool.append(ReferenceScalar(part(rng.choice(("small", "huge", "wide"))), part(rng.choice(("small", "huge", "wide")))))
    pool += [ReferenceScalar(z.real) for z in pool[5:10]] + [ReferenceScalar(0, z.imag) for z in pool[10:15]]
    return pool


def _agrees(z: GaussianRational, ref: ReferenceScalar) -> None:
    """z is canonical, equals the reference, and hashes and prints as it should."""
    assert z._d > 0 and gcd(z._a, z._b, z._d) == 1
    assert (z.real, z.imag) == (ref.real, ref.imag)
    rebuilt = GaussianRational(ref.real, ref.imag)
    assert z == rebuilt and hash(z) == hash(rebuilt)
    text = format_scalar(z)
    assert text == reference_format(ref)
    assert parse_scalar(text) == z


def test_integer_kernel_matches_fraction_pair_reference():
    rng = random.Random(20181004)
    refs = _reference_pool(rng)
    ours = [GaussianRational(r.real, r.imag) for r in refs]
    for z, r in zip(ours, refs):
        _agrees(z, r)
        _agrees(-z, -r)
        _agrees(z.conjugate(), r.conjugate())
        if r:
            _agrees(z.inverse(), r.inverse())
        plain = Fraction(rng.randint(-5, 5), rng.randint(1, 5))
        _agrees(z + plain, r + ReferenceScalar(plain))
        _agrees(plain - z, ReferenceScalar(plain) - r)
        _agrees(z * 3, r * ReferenceScalar(3))
    for x, rx in zip(ours, refs):
        for y, ry in zip(ours, refs):
            _agrees(x + y, rx + ry)
            _agrees(x - y, rx - ry)
            _agrees(x * y, rx * ry)
            if ry:
                _agrees(x / y, rx / ry)
            assert (x == y) == (rx == ry)
            assert x != y or hash(x) == hash(y)
