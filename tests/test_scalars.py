"""Scalar literal grammar and exact Gaussian-rational arithmetic."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest

from suplat.linalg import (
    GaussianRational,
    ScalarSyntaxError,
    ZeroDenominatorError,
    as_scalar,
    format_scalar,
    parse_scalar,
)

from helpers import random_nonzero_scalar, random_scalar


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
    ],
)
def test_syntax_errors_report_position(text, position):
    with pytest.raises(ScalarSyntaxError) as err:
        parse_scalar(text)
    assert err.value.position == position


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
    with pytest.raises(TypeError):
        GaussianRational(0.5)
    with pytest.raises(TypeError):
        as_scalar(0.5)


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
