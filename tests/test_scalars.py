import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from ksmooth.errors import FieldMismatchError, ScalarSyntaxError
from ksmooth.scalars import (
    _FIELD_OPS,
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


def test_quad_parts_are_fractions():
    # int parts are wrapped, Fraction parts kept as they are
    half = Fraction(1, 2)
    x = QuadScalar(half, 3)
    assert x.a is half and type(x.b) is Fraction and x.b == 3
    assert type(QuadScalar().a) is Fraction and QuadScalar() == 0


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


RATIONAL_TAG = "quadratic literal under rational field tag"
# literal -> serialized value under Q(sqrt 2); each is quadratic, so the
# rational tag rejects it at position 0
ACCEPTED = {"-3*r2": "-3*r2", "1+-2*r2": "1-2*r2", "r2+-1": "-1+r2", "-r2-1": "-1-r2",
            "3*r2+1/2": "1/2+3*r2", "1/2*r2": "1/2*r2"}
# literal -> (position, reason) under both tags
REJECTED = {"--3*r2": (1, "expected digits"), "1+-r2": (3, "expected digits"),
            "x": (0, "expected digits"), "+1": (0, "expected digits"),
            "0-": (2, "expected 'r2'"), "1/2+2r2": (5, "expected '*' before r2"),
            "r2*3": (2, "expected '+' or '-'"), "3r2": (1, "expected '+' or '-'"),
            "1/*r2": (2, "expected denominator digits")}


def _assert_rejected(text, tag, position, reason):
    with pytest.raises(ScalarSyntaxError) as exc:
        parse(text, tag)
    assert type(exc.value) is ScalarSyntaxError
    assert exc.value.position == position
    assert str(exc.value) == f"invalid scalar literal {text!r} at position {position}: {reason}"


@pytest.mark.parametrize("text", sorted(ACCEPTED))
def test_grammar_table_accepted(text):
    value = parse(text, K)
    assert type(value) is QuadScalar and serialize(value) == ACCEPTED[text]
    _assert_rejected(text, Q, 0, RATIONAL_TAG)


@pytest.mark.parametrize("tag", [Q, K], ids=["rational", "quad"])
@pytest.mark.parametrize("text", sorted(REJECTED))
def test_grammar_table_rejected(text, tag):
    _assert_rejected(text, tag, *REJECTED[text])


def test_grammar_table_r2_under_rational_tag():
    _assert_rejected("r2", Q, 0, RATIONAL_TAG)
    assert serialize(parse("r2", K)) == "r2"


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
    ordered = sorted(values, key=lambda v: float(v.a) + float(v.b) * math.sqrt(2))
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


def test_field_tag_hashes_by_identity():
    # every _FIELD_OPS[field] lookup hashes the tag: identity hashing is a
    # C slot, where Enum.__hash__ is a Python call; it agrees with ==, as
    # the members are singletons, and the table still finds both rows
    assert FieldTag.__hash__ is object.__hash__
    for tag in FieldTag:
        assert hash(tag) == object.__hash__(tag)
        assert FieldTag(tag.value) is tag and {tag: 1}[FieldTag[tag.name]] == 1
    assert set(_FIELD_OPS) == set(FieldTag)


LONG_DIGITS = "9" * 5000  # more digits than CPython converts to int by default
NOT_DECIMAL = "integer too long or not decimal"
# literal -> (value or (position, reason) under the rational tag,
#             the same under the quadratic tag); values are serialized
LITERALS = {
    # str.isdigit and int accept any Unicode decimal digit, so these parse
    "٣": ("3", "3"), "1/٣": ("1/3", "1/3"), "١٢/٣٤": ("6/17", "6/17"),
    # '²' passes isdigit but not int
    "²": ((0, NOT_DECIMAL),) * 2,
    "1/²": ((2, NOT_DECIMAL),) * 2,
    LONG_DIGITS: ((0, NOT_DECIMAL),) * 2,
    "-" + LONG_DIGITS: ((0, NOT_DECIMAL),) * 2,
    "1/" + LONG_DIGITS: ((2, NOT_DECIMAL),) * 2,
    "1/0": ((2, "zero denominator"),) * 2,
    "-": ((1, "expected digits"),) * 2,
    "-/1": ((1, "expected digits"),) * 2,
    "1/": ((2, "expected denominator digits"),) * 2,
    "3/-4": ((2, "expected denominator digits"),) * 2,
    "+1": ((0, "expected digits"),) * 2,
    "1_0": ((1, "expected '+' or '-'"),) * 2,
    "0x1": ((1, "expected '+' or '-'"),) * 2,
    "1 ": ((1, "whitespace inside literal"),) * 2,
    "": ((0, "empty literal"),) * 2,
    "-0": ("0", "0"), "0/5": ("0", "0"), "4/6": ("2/3", "2/3"), "-12/8": ("-3/2", "-3/2"),
    # r2 forms: a zero r2 part is rational, so the rational tag takes it
    "0*r2": ("0", "0"), "1+0*r2": ("1", "1"), "-2/4-0*r2": ("-1/2", "-1/2"),
    "r2": ((0, RATIONAL_TAG), "r2"), "-r2": ((0, RATIONAL_TAG), "-r2"),
    "2*r2": ((0, RATIONAL_TAG), "2*r2"), "1-r2": ((0, RATIONAL_TAG), "1-r2"),
    "r2+1": ((0, RATIONAL_TAG), "1+r2"), "-r2-1/2": ((0, RATIONAL_TAG), "-1/2-r2"),
    "1/2*r2-3": ((0, RATIONAL_TAG), "-3+1/2*r2"),
    "-4/6*r2+2/4": ((0, RATIONAL_TAG), "1/2-2/3*r2"),
    "r2+": ((3, "expected digits"),) * 2, "1/2+": ((4, "expected 'r2'"),) * 2,
    "r2-r2": ((3, "expected digits"),) * 2, "1*r2*r2": ((4, "expected '+' or '-'"),) * 2,
}


@pytest.mark.parametrize("tag", [Q, K], ids=["rational", "quad"])
@pytest.mark.parametrize("text", sorted(LITERALS), ids=lambda t: repr(t[:12]))
def test_literal_grammar_table(text, tag):
    expected = LITERALS[text][tag is K]
    if isinstance(expected, tuple):
        _assert_rejected(text, tag, *expected)
    else:
        value = parse(text, tag)
        assert type(value) is (Fraction if tag is Q else QuadScalar)
        assert serialize(value) == expected


# cleared values: an int over Q, the pair (a, b) of ints for a + b r2 over Q(sqrt 2)
cleared_ints = st.integers(min_value=-10 ** 12, max_value=10 ** 12)
CLEARED = {Q: cleared_ints, K: st.tuples(cleared_ints, cleared_ints)}


@st.composite
def cleared_cases(draw):
    """A field, a few rows of cleared values of one width, and two more values."""
    field = draw(st.sampled_from([Q, K]))
    value = CLEARED[field]
    width = draw(st.integers(min_value=1, max_value=5))
    rows = draw(st.lists(st.lists(value, min_size=width, max_size=width),
                         min_size=1, max_size=4))
    return field, rows, draw(value), draw(value)


@given(cleared_cases(), cleared_ints)
def test_field_table_agrees_with_field_arithmetic(case, n):
    # every entry of the one field table the integer loops share, on random
    # cleared values and rows, against the same computation in Fraction or
    # QuadScalar arithmetic
    field, lists, x, y = case
    ops = _FIELD_OPS[field]

    def scalar(v):
        return Fraction(v) if field is Q else QuadScalar(*v)

    def dot(p, z):
        return sum((scalar(a) * scalar(b) for a, b in zip(p, z)), field.zero)

    rows = [ops.row(values) for values in lists]
    for values, row in zip(lists, rows):
        assert ops.split(row) == values and ops.row(ops.split(row)) == row
        assert ops.width(row) == len(values)
        assert [scalar(v) for v in ops.split(ops.negate(row))] == [-scalar(v) for v in values]
        assert ops.split(ops.entries(row, n)) == values + [ops.lift(n)]
    assert [scalar(v) for v in ops.values(rows[0], rows)] == [dot(lists[0], z) for z in lists]
    values = lists[0]
    assert scalar(ops.max(values)) == max(map(scalar, values))
    assert scalar(ops.total(values)) == sum(map(scalar, values), field.zero)
    assert ops.sign(x) == sign(scalar(x))
    assert scalar(ops.times(x, y)) == scalar(x) * scalar(y)
    assert scalar(ops.minus(x, y)) == scalar(x) - scalar(y)
    assert scalar(ops.lift(n)) == n
    # 1 + r2 and -1 + 2 r2 have norms -1 and -7
    for d in [y] + ([(1, 1), (-1, 2)] if field is K else [-3]):
        if ops.sign(d):
            assert ops.exact(ops.times(x, d), d) == x
            assert ops.quotient(x, d) == scalar(x) / scalar(d)
            # a row over a positive integer, whatever the sign of d or its norm
            row, q = ops.over(values, d)
            assert type(q) is int and q > 0
            assert [scalar(v) / q for v in ops.split(row)] == [
                scalar(v) / scalar(d) for v in values]

    # clearing takes field scalars and, as the LP is handed them, rows of
    # cleared values; every entry comes back as its cleared value over the scale
    fields = [[scalar(v) / (abs(n) + k + 1) for k, v in enumerate(values)] for values in lists]
    cleared, scale = ops.clear([values] + fields)
    assert scale >= 1
    assert all(type(e) is int for row in cleared for e in ints(row, field))
    assert [[scalar(v) / scale for v in ops.split(row)] for row in cleared] == (
        [[scalar(v) for v in values]] + fields)

    assert [scalar(v) for v in ops.split(ops.outer(rows[0], rows[-1]))] == [
        scalar(a) * scalar(b) for a in lists[0] for b in lists[-1]]
    primitive = ops.primitive(rows[0])
    g = math.gcd(*ints(rows[0], field)) or 1
    assert math.gcd(*ints(primitive, field)) in (0, 1)
    assert [scalar(v) for v in ops.split(primitive)] == [scalar(v) / g for v in values]


def ints(row, field):
    """The integers of a cleared row: the row over Q, both parts over Q(sqrt 2)."""
    return list(row) if field is Q else [*row[0], *row[1]]
