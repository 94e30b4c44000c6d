"""Exact scalar arithmetic over the two supported ordered fields.

Every geometric computation in this package runs over one of two fields,
selected by a :class:`FieldTag`:

* ``RATIONAL`` -- plain rationals, represented by :class:`fractions.Fraction`
  (always reduced, positive denominator, canonical zero ``0/1``);
* ``QUAD_SQRT2`` -- the real quadratic extension of the rationals by the
  square root of two, represented by :class:`QuadScalar` values ``a + b*r2``
  with rational ``a`` and ``b``.

There is no floating point anywhere in the core: comparisons of quadratic
scalars are decided exactly by comparing ``a**2`` against ``2*b**2``.

The integer loops of ``linalg``, ``lp`` and ``polytope`` hold values cleared
of denominators: over Q an ``int``, and a row a tuple of them; over Q(sqrt 2)
the pair ``(a, b)`` of ints for ``a + b r2``, and a row the pair of int
tuples of its parts.  ``_FIELD_OPS`` is the one table of what those loops do
differently over each field.

Scalar literal grammar (:func:`scan` reads it to integers for :func:`parse`)::

    rational := '-'? digits ('/' digits)?
    quad     := rational (('+'|'-') (rational '*')? 'r2')?
              | ('-'? 'r2' | rational '*' 'r2') (('+'|'-') rational)?

``r2`` denotes the square root of two.  Whitespace is forbidden inside a
literal.  ``serialize`` always emits the rational-first form (``a+b*r2``),
so serialized output round-trips through ``parse`` bit-exactly.
"""

from __future__ import annotations

import itertools
from enum import Enum
from fractions import Fraction
from functools import reduce
from math import gcd, lcm
from operator import floordiv, mul, neg, sub
from typing import Callable, NamedTuple, Sequence, Union

from .errors import FieldMismatchError, InternalInconsistencyError, ScalarSyntaxError


def _sign(x: int | Fraction) -> int:
    """The sign in {-1, 0, +1} of an ``int`` or a ``Fraction``."""
    return (x > 0) - (x < 0)


class QuadScalar:
    """An element ``a + b*r2`` of the quadratic field, with rational a, b.

    Values are immutable.  Arithmetic is closed over ``QuadScalar`` and
    plain ``int`` operands; mixing with ``Fraction`` values is rejected so
    that rational and quadratic computations cannot blend silently.
    Comparisons (a pure predicate) additionally accept ``int`` and
    ``Fraction`` and are decided exactly.
    """

    __slots__ = ("a", "b")

    def __init__(self, a: Union[Fraction, int] = 0, b: Union[Fraction, int] = 0) -> None:
        object.__setattr__(self, "a", Fraction(a))
        object.__setattr__(self, "b", Fraction(b))

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("QuadScalar is immutable")

    @classmethod
    def from_int(cls, n: int) -> "QuadScalar":
        return cls(Fraction(n), Fraction(0))

    @classmethod
    def _coerce(cls, other: object) -> "QuadScalar | None":
        if isinstance(other, QuadScalar):
            return other
        if isinstance(other, int):
            return cls.from_int(other)
        return None

    def sign(self) -> int:
        """Exact sign in {-1, 0, +1}.

        When a and b have opposite signs it is ``quad_sign``'s, which
        takes Fraction parts too.
        """
        sa = _sign(self.a.numerator)
        sb = _sign(self.b.numerator)
        if sa == 0 and sb == 0:
            return 0
        if sa >= 0 and sb >= 0:
            return 1
        if sa <= 0 and sb <= 0:
            return -1
        return quad_sign((self.a, self.b))

    def __bool__(self) -> bool:
        return bool(self.a) or bool(self.b)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, Fraction):
            other = QuadScalar(other)
        q = self._coerce(other)
        if q is None:
            return NotImplemented
        return self.a == q.a and self.b == q.b

    def __hash__(self) -> int:
        # Matches hash(Fraction) when the value is rational, so equal
        # values hash equally.
        if self.b == 0:
            return hash(self.a)
        return hash((self.a, self.b))

    def _cmp_sign(self, other: object) -> "int | None":
        if isinstance(other, Fraction):
            other = QuadScalar(other)
        q = self._coerce(other)
        if q is None:
            return None
        return (self - q).sign()

    def __lt__(self, other: object) -> bool:
        s = self._cmp_sign(other)
        if s is None:
            return NotImplemented
        return s < 0

    def __le__(self, other: object) -> bool:
        s = self._cmp_sign(other)
        if s is None:
            return NotImplemented
        return s <= 0

    def __gt__(self, other: object) -> bool:
        s = self._cmp_sign(other)
        if s is None:
            return NotImplemented
        return s > 0

    def __ge__(self, other: object) -> bool:
        s = self._cmp_sign(other)
        if s is None:
            return NotImplemented
        return s >= 0

    def __neg__(self) -> "QuadScalar":
        return QuadScalar(-self.a, -self.b)

    def __abs__(self) -> "QuadScalar":
        return -self if self.sign() < 0 else self

    def __add__(self, other: object) -> "QuadScalar":
        q = self._coerce(other)
        if q is None:
            return NotImplemented
        return QuadScalar(self.a + q.a, self.b + q.b)

    __radd__ = __add__

    def __sub__(self, other: object) -> "QuadScalar":
        q = self._coerce(other)
        if q is None:
            return NotImplemented
        return QuadScalar(self.a - q.a, self.b - q.b)

    def __rsub__(self, other: object) -> "QuadScalar":
        q = self._coerce(other)
        if q is None:
            return NotImplemented
        return QuadScalar(q.a - self.a, q.b - self.b)

    def __mul__(self, other: object) -> "QuadScalar":
        q = self._coerce(other)
        if q is None:
            return NotImplemented
        return QuadScalar(self.a * q.a + 2 * self.b * q.b,
                          self.a * q.b + self.b * q.a)

    __rmul__ = __mul__

    def inverse(self) -> "QuadScalar":
        n = self.a * self.a - 2 * self.b * self.b
        if n == 0:
            raise ZeroDivisionError("division by zero quadratic scalar")
        return QuadScalar(self.a / n, -self.b / n)

    def __truediv__(self, other: object) -> "QuadScalar":
        q = self._coerce(other)
        if q is None:
            return NotImplemented
        return self * q.inverse()

    def __rtruediv__(self, other: object) -> "QuadScalar":
        q = self._coerce(other)
        if q is None:
            return NotImplemented
        return q * self.inverse()

    def __repr__(self) -> str:
        return f"QuadScalar({self.a!r}, {self.b!r})"

    def __str__(self) -> str:
        return serialize(self)


Scalar = Union[Fraction, QuadScalar]

SQRT2 = QuadScalar(0, 1)
INV_SQRT2 = QuadScalar(0, Fraction(1, 2))


class FieldTag(Enum):
    """Tag selecting the exact scalar field of a computation.

    Every vector, matrix, polytope, space and operator carries exactly one
    tag; mixed-field arithmetic is rejected.
    """

    RATIONAL = "rational"
    QUAD_SQRT2 = "quad-sqrt2"

    @property
    def zero(self) -> Scalar:
        return Fraction(0) if self is FieldTag.RATIONAL else QuadScalar(0, 0)

    @property
    def one(self) -> Scalar:
        return Fraction(1) if self is FieldTag.RATIONAL else QuadScalar(1, 0)

    def from_int(self, n: int) -> Scalar:
        return Fraction(n) if self is FieldTag.RATIONAL else QuadScalar.from_int(n)

    def coerce(self, value: object) -> Scalar:
        """Convert ``value`` into this field, rejecting cross-field input.

        Accepts ``int`` and ``Fraction`` for both fields (the canonical
        embedding of the rationals) and ``QuadScalar`` only under
        ``QUAD_SQRT2``.
        """
        if self is FieldTag.RATIONAL:
            if isinstance(value, Fraction):
                return value
            if isinstance(value, int):
                return Fraction(value)
            raise FieldMismatchError(
                f"cannot coerce the quad-sqrt2 scalar {serialize(value)} into the rational field")
        if isinstance(value, QuadScalar):
            return value
        if isinstance(value, (int, Fraction)):
            return QuadScalar(Fraction(value), Fraction(0))
        raise FieldMismatchError(f"cannot coerce {value!r} into the quadratic field")


def sign(x: Scalar) -> int:
    if isinstance(x, Fraction):
        return _sign(x)
    if isinstance(x, QuadScalar):
        return x.sign()
    raise FieldMismatchError(f"not a scalar of a supported field: {x!r}")


# ---------------------------------------------------------------------------
# cleared values and rows: the one field table
# ---------------------------------------------------------------------------

def quad_sign(x: tuple[int, int]) -> int:
    """The sign of the cleared value ``x = (a, b)``, that is of ``a + b r2``."""
    a, b = x
    # a + b r2 has the sign of the larger of a and b r2 in absolute value;
    # r2 is irrational, so a*a == 2*b*b only when both are 0
    s = a if a * a > 2 * b * b else b
    return (s > 0) - (s < 0)


def quad_mul(x: tuple[int, int], y: tuple[int, int]) -> tuple[int, int]:
    """The product of two cleared values ``(a, b)``, read as ``a + b r2``."""
    return x[0] * y[0] + 2 * x[1] * y[1], x[0] * y[1] + x[1] * y[0]


def _quad_exact(w: tuple[int, int], d: tuple[int, int]) -> tuple[int, int]:
    # w / d = w conj(d) / norm(d), and the integer norm divides both parts
    if not d[1]:
        return w[0] // d[0], w[1] // d[0]
    a, b = quad_mul(w, (d[0], -d[1]))
    norm = d[0] * d[0] - 2 * d[1] * d[1]
    return a // norm, b // norm


def _primitive(parts: list[list[int]]) -> tuple[tuple[int, ...], ...]:
    """The integer ``parts`` of a homogeneous row divided by the gcd of all
    their entries; ``h``, the last entry of the first part, must be positive."""
    if parts[0][-1] <= 0:
        raise InternalInconsistencyError(
            "double description made a vertex with h <= 0")
    g = gcd(*itertools.chain.from_iterable(parts))
    return tuple(tuple(x // g for x in part) for part in parts)


def _rational_edge(a_u: int, u: tuple, a_w: int, w: tuple) -> tuple:
    return _primitive([[a_u * y - a_w * x for x, y in zip(u, w)]])[0]


def _quad_values(p: tuple, verts: list) -> list[tuple[int, int]]:
    pa, pb = p
    return [(sum(map(mul, pa, za)) + 2 * sum(map(mul, pb, zb)),
             sum(map(mul, pa, zb)) + sum(map(mul, pb, za))) for za, zb in verts]


def _quad_edge(a_u: tuple, u: tuple, a_w: tuple, w: tuple) -> tuple:
    # a_u = x + y r2 and a_w = s + t r2 multiply the rows u and w
    (x, y), (s, t) = a_u, a_w
    (ua, ub), (wa, wb) = u, w
    na = [x * p + 2 * y * q - s * m - 2 * t * n for p, q, m, n in zip(wa, wb, ua, ub)]
    nb = [x * q + y * p - s * n - t * m for p, q, m, n in zip(wa, wb, ua, ub)]
    ha, hb = na[-1], nb[-1]
    if hb:
        # times the conjugate of h, negated when h has negative norm, so
        # that h becomes the positive integer |ha^2 - 2 hb^2|
        if ha * ha < 2 * hb * hb:
            ha, hb = -ha, -hb
        na, nb = ([p * ha - 2 * q * hb for p, q in zip(na, nb)],
                  [q * ha - p * hb for p, q in zip(na, nb)])
    return _primitive([na, nb])


def _rational_combine(c: tuple, rows: Sequence[tuple]) -> tuple:
    return tuple(sum(map(mul, c, column)) for column in zip(*rows))


def _quad_combine(c: tuple, rows: Sequence[tuple]) -> tuple:
    # (x + y r2) times the parts (p, q) of each row, summed over the rows
    x, y = c
    columns = zip(zip(*(p for p, _ in rows)), zip(*(q for _, q in rows)))
    return tuple(zip(*((sum(map(mul, x, p)) + 2 * sum(map(mul, y, q)),
                        sum(map(mul, x, q)) + sum(map(mul, y, p))) for p, q in columns)))


def _rational_common(rows: Sequence[tuple]) -> tuple[list[tuple], int]:
    top = lcm(*{z[-1] for z in rows})
    return [tuple([x * (top // z[-1]) for x in z[:-1]]) for z in rows], top


def _quad_common(rows: Sequence[tuple]) -> tuple[list[tuple], int]:
    top = lcm(*{z[0][-1] for z in rows})
    return [tuple(tuple([x * (top // z[0][-1]) for x in part[:-1]]) for part in z)
            for z in rows], top


class _FieldOps(NamedTuple):
    """What the readers of cleared values and rows do differently over each field."""

    width: Callable    # the number of entries of a row
    entries: Callable  # entries(row, h): the row with the integer h appended (kept rational)
    negate: Callable   # the negated row
    values: Callable   # values(p, rows): the value p.z at every row z
    row: Callable      # a list of values as a row
    split: Callable    # a row as the list of its values
    lift: Callable     # an integer as a value
    total: Callable    # the sum of a list of values
    sign: Callable     # the sign of a value
    max: Callable      # the largest of a list of values
    times: Callable    # the product of two values
    minus: Callable    # the difference of two values
    exact: Callable    # exact(w, d): w / d when d divides w
    edge: Callable     # edge(a_u, u, a_w, w): the primitive row a_u w - a_w u
    combine: Callable  # combine(c, rows): the row sum_i c_i rows_i for the values c_i of c
    common: Callable   # primitive homogeneous rows (N, h) as points cleared over lcm h


_FIELD_OPS = {
    FieldTag.RATIONAL: _FieldOps(
        width=len,
        entries=lambda row, h: (*row, h),
        negate=lambda row: tuple(map(neg, row)),
        values=lambda p, rows: [sum(map(mul, p, z)) for z in rows],
        row=tuple,
        split=list,
        lift=lambda n: n,
        total=sum,
        sign=_sign,
        max=max,
        times=mul,
        minus=sub,
        exact=floordiv,
        edge=_rational_edge,
        combine=_rational_combine,
        common=_rational_common),
    FieldTag.QUAD_SQRT2: _FieldOps(
        width=lambda row: len(row[0]),
        entries=lambda row, h: ((*row[0], h), (*row[1], 0)),
        negate=lambda row: (tuple(map(neg, row[0])), tuple(map(neg, row[1]))),
        values=_quad_values,
        row=lambda values: tuple(zip(*values)),
        split=lambda row: list(zip(*row)),
        lift=lambda n: (n, 0),
        total=lambda values: tuple(map(sum, zip(*values))),
        sign=quad_sign,
        max=lambda values: reduce(
            lambda x, y: y if quad_sign((y[0] - x[0], y[1] - x[1])) > 0 else x, values),
        times=quad_mul,
        minus=lambda x, y: (x[0] - y[0], x[1] - y[1]),
        exact=_quad_exact,
        edge=_quad_edge,
        combine=_quad_combine,
        common=_quad_common),
}


# ---------------------------------------------------------------------------
# literal parsing / serialization
# ---------------------------------------------------------------------------

def _to_int(text: str, start: int, end: int) -> int:
    try:
        return int(text[start:end])
    except ValueError:  # more digits than CPython converts, or a digit such as '²'
        raise ScalarSyntaxError(text, start, "integer too long or not decimal") from None


def _scan_rational(text: str, pos: int) -> tuple[int, int, int]:
    """Scan ``rational``; return its numerator, denominator and end."""
    start = pos
    if pos < len(text) and text[pos] == "-":
        pos += 1
    dstart = pos
    while pos < len(text) and text[pos].isdigit():
        pos += 1
    if pos == dstart:
        raise ScalarSyntaxError(text, pos, "expected digits")
    num = _to_int(text, start, pos)
    if pos < len(text) and text[pos] == "/":
        pos += 1
        dstart = pos
        while pos < len(text) and text[pos].isdigit():
            pos += 1
        if pos == dstart:
            raise ScalarSyntaxError(text, pos, "expected denominator digits")
        den = _to_int(text, dstart, pos)
        if den == 0:
            raise ScalarSyntaxError(text, dstart, "zero denominator")
        return num, den, pos
    return num, 1, pos


def _scan_term(text: str, pos: int) -> tuple[int, int, bool, int]:
    """Scan ``'r2' | rational ('*' 'r2')?``; return its coefficient's
    numerator and denominator, whether it is an r2 term, and its end."""
    if text.startswith("r2", pos):
        return 1, 1, True, pos + 2
    num, den, pos = _scan_rational(text, pos)
    if pos < len(text) and text[pos] == "*":
        if not text.startswith("r2", pos + 1):
            raise ScalarSyntaxError(text, pos + 1, "expected 'r2'")
        return num, den, True, pos + 3
    return num, den, False, pos


def scan(text: str, tag: FieldTag) -> tuple[int, int, int, int]:
    """The integers ``(p, q, r, s)`` of the literal ``p/q + (r/s) r2``, with
    positive denominators, not reduced.  Raises :class:`ScalarSyntaxError`
    on malformed input and on ``r != 0`` under the ``RATIONAL`` tag."""
    if not text.isprintable() or " " in text:  # every other space is unprintable
        for i, ch in enumerate(text):
            if ch.isspace():
                raise ScalarSyntaxError(text, i, "whitespace inside literal")
    if not text:
        raise ScalarSyntaxError(text, 0, "empty literal")

    if text.startswith("-r2"):
        num, den, is_r2, pos = -1, 1, True, 3
    else:
        num, den, is_r2, pos = _scan_term(text, 0)
    a, b = ((0, 1), (num, den)) if is_r2 else ((num, den), (0, 1))
    if pos < len(text):
        if text[pos] not in "+-":
            raise ScalarSyntaxError(text, pos, "expected '+' or '-'")
        op = -1 if text[pos] == "-" else 1
        pos += 1
        if is_r2:
            num, den, pos = _scan_rational(text, pos)
            a = op * num, den
        else:
            # a rational head takes an r2 tail; name it when no term starts here
            if not (text[pos:pos + 1].isdigit() or text.startswith(("-", "r2"), pos)):
                raise ScalarSyntaxError(text, pos, "expected 'r2'")
            num, den, is_r2, pos = _scan_term(text, pos)
            if not is_r2:
                raise ScalarSyntaxError(text, pos, "expected '*' before r2")
            b = op * num, den
        if pos != len(text):
            raise ScalarSyntaxError(text, pos, "trailing characters")
    if tag is FieldTag.RATIONAL and b[0]:
        raise ScalarSyntaxError(text, 0, "quadratic literal under rational field tag")
    return (*a, *b)


def parse(text: str, tag: FieldTag) -> Scalar:
    """Parse a scalar literal under the given field tag; errors as ``scan``'s."""
    p, q, r, s = scan(text, tag)
    if tag is FieldTag.RATIONAL:
        return Fraction(p, q)
    return QuadScalar(Fraction(p, q), Fraction(r, s))


def _serialize_fraction(x: Fraction) -> str:
    if x.denominator == 1:
        return str(x.numerator)
    return f"{x.numerator}/{x.denominator}"


def serialize(x: Scalar) -> str:
    """Canonical literal for ``x``; ``parse(serialize(x))`` is the identity."""
    if isinstance(x, Fraction):
        return _serialize_fraction(x)
    if isinstance(x, QuadScalar):
        if x.b == 0:
            return _serialize_fraction(x.a)
        mag = abs(x.b)
        term = "r2" if mag == 1 else f"{_serialize_fraction(mag)}*r2"
        if x.a == 0:
            return term if x.b > 0 else f"-{term}"
        joiner = "+" if x.b > 0 else "-"
        return f"{_serialize_fraction(x.a)}{joiner}{term}"
    raise FieldMismatchError(f"not a scalar of a supported field: {x!r}")
