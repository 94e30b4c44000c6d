import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from ksmooth.errors import FieldMismatchError, ScalarSyntaxError
from ksmooth.scalars import (
    FieldTag,
    QuadScalar,
    SQRT2,
    parse,
    serialize,
    sign,
)

Q = FieldTag.RATIONAL
K = FieldTag.QUAD_SQRT2

rationals = st.fractions(min_value=-10 ** 6, max_value=10 ** 6, max_denominator=10 ** 4)
quads = st.builds(QuadScalar, rationals, rationals)


def test_mul_mixed_signs():
    # (1/2 + 1/2 r2)(-1 + r2) expands to (ac+2bd) + (ad+bc) r2 = 1/2
    x = QuadScalar(Fraction(1, 2), Fraction(1, 2))
    y = QuadScalar(-1, 1)
    assert x * y == QuadScalar(Fraction(1, 2), 0)


def test_rational_add():
    assert Fraction(3, 4) + Fraction(1, 4) == 1


def test_sqrt2_squares_to_two():
    assert SQRT2 * SQRT2 == QuadScalar(2, 0)


def test_div_requires_nonzero():
    with pytest.raises(ZeroDivisionError):
        QuadScalar(1) / QuadScalar(0)


def test_sign_opposite_components():
    assert sign(QuadScalar(3, -2)) == 1   # 9 > 8, sign follows a
    assert sign(QuadScalar(1, -1)) == -1  # 1 < 2, sign follows b
    assert sign(QuadScalar(0, 0)) == 0
    assert sign(Fraction(-2, 7)) == -1


def test_parse_examples():
    assert parse("1/2+1/2*r2", K) == QuadScalar(Fraction(1, 2), Fraction(1, 2))
    assert parse("-3/7", Q) == Fraction(-3, 7)
    assert parse("r2-1", K) == QuadScalar(-1, 1)
    assert parse("-r2", K) == QuadScalar(0, -1)
    assert parse("3*r2", K) == QuadScalar(0, 3)
    assert parse("5", K) == QuadScalar(5, 0)


def test_parse_errors_carry_position():
    with pytest.raises(ScalarSyntaxError) as exc:
        parse("1/2+2r2", K)
    assert exc.value.position == 5
    with pytest.raises(ScalarSyntaxError):
        parse("1 /2", Q)
    with pytest.raises(ScalarSyntaxError):
        parse("1/0", Q)
    with pytest.raises(ScalarSyntaxError):
        parse("", Q)


def test_quadratic_literal_rejected_under_rational_tag():
    with pytest.raises(ScalarSyntaxError):
        parse("r2", Q)
    with pytest.raises(ScalarSyntaxError):
        parse("1+1*r2", Q)


@given(quads)
def test_roundtrip_quad(x):
    assert parse(serialize(x), K) == x


@given(rationals)
def test_roundtrip_rational(x):
    assert parse(serialize(x), Q) == x


@given(quads, quads, quads)
def test_field_axioms(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a + b == b + a
    assert a * b == b * a
    assert a + (-a) == QuadScalar(0)
    if a:
        assert a * a.inverse() == QuadScalar(1)


@given(quads, quads)
def test_order_compatible_with_operations(a, b):
    if a < b:
        assert a + QuadScalar(1, 1) < b + QuadScalar(1, 1)
        assert a * QuadScalar(0, 1) < b * QuadScalar(0, 1)  # sqrt2 > 0
    assert (a < b) ^ (a >= b)


def test_ordering_total():
    values = [QuadScalar(1, -1), QuadScalar(0), QuadScalar(-1, 1),
              QuadScalar(3, -2), QuadScalar(Fraction(1, 2), Fraction(1, 2))]
    ordered = sorted(values, key=lambda v: float(v))
    assert sorted(values) == ordered


def test_sign_agrees_with_float_on_random_inputs():
    # sanity cross-check only; the exact rule is authoritative
    rng = random.Random(20240817)
    for _ in range(10_000):
        a = Fraction(rng.randint(-50, 50), rng.randint(1, 20))
        b = Fraction(rng.randint(-50, 50), rng.randint(1, 20))
        approx = float(a) + float(b) * math.sqrt(2)
        if abs(approx) > 1e-9:
            assert sign(QuadScalar(a, b)) == (1 if approx > 0 else -1)


def test_coerce_rejects_cross_field():
    with pytest.raises(FieldMismatchError):
        Q.coerce(QuadScalar(1))
    assert K.coerce(Fraction(1, 2)) == QuadScalar(Fraction(1, 2), 0)
    assert Q.coerce(3) == Fraction(3)
