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

Scalar literal grammar (used by :func:`parse` / :func:`serialize`)::

    rational := '-'? digits ('/' digits)?
    quad     := rational (('+'|'-') (rational '*')? 'r2')?
              | ('-'? (rational '*')? 'r2') (('+'|'-') rational)?

``r2`` denotes the square root of two.  Whitespace is forbidden inside a
literal.  ``serialize`` always emits the rational-first form (``a+b*r2``),
so serialized output round-trips through ``parse`` bit-exactly.
"""

from __future__ import annotations

from enum import Enum
from fractions import Fraction
from typing import Union

from .errors import FieldMismatchError, InternalInconsistencyError, ScalarSyntaxError

_SQRT2_FLOAT = 2.0 ** 0.5


def _fraction_sign(x: Fraction) -> int:
    if x > 0:
        return 1
    if x < 0:
        return -1
    return 0


class QuadScalar:
    """An element ``a + b*r2`` of the quadratic field, with rational a, b.

    Values are immutable.  Arithmetic is closed over ``QuadScalar`` and
    plain ``int`` operands; mixing with ``Fraction`` values is rejected so
    that rational and quadratic computations cannot blend silently.
    Comparisons (a pure predicate) additionally accept ``int`` and
    ``Fraction`` and are decided exactly.
    """

    __slots__ = ("_a", "_b")

    def __init__(self, a: Union[Fraction, int] = 0, b: Union[Fraction, int] = 0) -> None:
        object.__setattr__(self, "_a", Fraction(a))
        object.__setattr__(self, "_b", Fraction(b))

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("QuadScalar is immutable")

    @property
    def a(self) -> Fraction:
        return self._a

    @property
    def b(self) -> Fraction:
        return self._b

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

        When a and b have opposite signs the sign follows the larger of
        a**2 and 2*b**2 (they are never equal for nonzero b since the
        square root of two is irrational).
        """
        sa = _fraction_sign(self._a)
        sb = _fraction_sign(self._b)
        if sa == 0 and sb == 0:
            return 0
        if sa >= 0 and sb >= 0:
            return 1
        if sa <= 0 and sb <= 0:
            return -1
        d = self._a * self._a - 2 * self._b * self._b
        if d == 0:
            raise InternalInconsistencyError(
                "a^2 = 2 b^2 is impossible for rational a, b not both zero")
        return sa if d > 0 else sb

    def __bool__(self) -> bool:
        return bool(self._a) or bool(self._b)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, Fraction):
            other = QuadScalar(other)
        q = self._coerce(other)
        if q is None:
            return NotImplemented
        return self._a == q._a and self._b == q._b

    def __hash__(self) -> int:
        # Matches hash(Fraction) when the value is rational, so equal
        # values hash equally.
        if self._b == 0:
            return hash(self._a)
        return hash((self._a, self._b))

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
        return QuadScalar(-self._a, -self._b)

    def __abs__(self) -> "QuadScalar":
        return -self if self.sign() < 0 else self

    def __add__(self, other: object) -> "QuadScalar":
        q = self._coerce(other)
        if q is None:
            return NotImplemented
        return QuadScalar(self._a + q._a, self._b + q._b)

    __radd__ = __add__

    def __sub__(self, other: object) -> "QuadScalar":
        q = self._coerce(other)
        if q is None:
            return NotImplemented
        return QuadScalar(self._a - q._a, self._b - q._b)

    def __rsub__(self, other: object) -> "QuadScalar":
        q = self._coerce(other)
        if q is None:
            return NotImplemented
        return QuadScalar(q._a - self._a, q._b - self._b)

    def __mul__(self, other: object) -> "QuadScalar":
        q = self._coerce(other)
        if q is None:
            return NotImplemented
        return QuadScalar(self._a * q._a + 2 * self._b * q._b,
                          self._a * q._b + self._b * q._a)

    __rmul__ = __mul__

    def inverse(self) -> "QuadScalar":
        n = self._a * self._a - 2 * self._b * self._b
        if n == 0:
            raise ZeroDivisionError("division by zero quadratic scalar")
        return QuadScalar(self._a / n, -self._b / n)

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

    def __float__(self) -> float:
        return float(self._a) + float(self._b) * _SQRT2_FLOAT

    def __repr__(self) -> str:
        return f"QuadScalar({self._a!r}, {self._b!r})"

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
            raise FieldMismatchError(f"cannot coerce {value!r} into the rational field")
        if isinstance(value, QuadScalar):
            return value
        if isinstance(value, (int, Fraction)):
            return QuadScalar(Fraction(value), Fraction(0))
        raise FieldMismatchError(f"cannot coerce {value!r} into the quadratic field")


def sign(x: Scalar) -> int:
    if isinstance(x, Fraction):
        return _fraction_sign(x)
    if isinstance(x, QuadScalar):
        return x.sign()
    raise FieldMismatchError(f"not a scalar of a supported field: {x!r}")


# ---------------------------------------------------------------------------
# literal parsing / serialization
# ---------------------------------------------------------------------------

def _to_int(text: str, start: int, end: int) -> int:
    try:
        return int(text[start:end])
    except ValueError:  # more digits than CPython converts, or a digit such as '²'
        raise ScalarSyntaxError(text, start, "integer too long or not decimal") from None


def _scan_rational(text: str, pos: int) -> tuple[Fraction, int]:
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
        return Fraction(num, den), pos
    return Fraction(num), pos


def _scan_r2_term(text: str, pos: int) -> tuple[Fraction, int]:
    """Scan ``(rational '*')? 'r2'`` and return its rational coefficient."""
    coeff = Fraction(1)
    if pos < len(text) and (text[pos].isdigit() or text[pos] == "-"):
        coeff, pos = _scan_rational(text, pos)
        if pos >= len(text) or text[pos] != "*":
            raise ScalarSyntaxError(text, pos, "expected '*' before r2")
        pos += 1
    if not text.startswith("r2", pos):
        raise ScalarSyntaxError(text, pos, "expected 'r2'")
    return coeff, pos + 2


def parse(text: str, tag: FieldTag) -> Scalar:
    """Parse a scalar literal under the given field tag.

    Raises :class:`ScalarSyntaxError` on malformed input and when a
    quadratic literal appears under the ``RATIONAL`` tag.
    """
    for i, ch in enumerate(text):
        if ch.isspace():
            raise ScalarSyntaxError(text, i, "whitespace inside literal")
    if not text:
        raise ScalarSyntaxError(text, 0, "empty literal")

    pos = 0
    neg = text[0] == "-"
    r2_first = text.startswith("r2", 1 if neg else 0) or _looks_like_coeff_r2(text)

    a = Fraction(0)
    b = Fraction(0)
    if text.startswith("r2", 1 if neg else 0):
        # bare (possibly negated) 'r2' head
        pos = (1 if neg else 0) + 2
        b = Fraction(-1) if neg else Fraction(1)
    elif r2_first:
        b, pos = _scan_r2_term(text, 0)
    else:
        a, pos = _scan_rational(text, 0)
        if pos < len(text):
            if text[pos] not in "+-":
                raise ScalarSyntaxError(text, pos, "expected '+' or '-'")
            op = -1 if text[pos] == "-" else 1
            b, pos = _scan_r2_term(text, pos + 1)
            b *= op
        if pos != len(text):
            raise ScalarSyntaxError(text, pos, "trailing characters")
        return _finish(text, tag, a, b)

    # optional trailing rational after an r2-first head ("r2-1")
    if pos < len(text):
        if text[pos] not in "+-":
            raise ScalarSyntaxError(text, pos, "expected '+' or '-'")
        op = -1 if text[pos] == "-" else 1
        a, pos = _scan_rational(text, pos + 1)
        a *= op
    if pos != len(text):
        raise ScalarSyntaxError(text, pos, "trailing characters")
    return _finish(text, tag, a, b)


def _looks_like_coeff_r2(text: str) -> bool:
    # distinguishes "3*r2" / "1/2*r2..." from "3+..." / plain "3"
    pos = 0
    if pos < len(text) and text[pos] == "-":
        pos += 1
    if pos >= len(text) or not text[pos].isdigit():
        return False
    while pos < len(text) and text[pos].isdigit():
        pos += 1
    if pos < len(text) and text[pos] == "/":
        pos += 1
        while pos < len(text) and text[pos].isdigit():
            pos += 1
    return pos < len(text) and text[pos] == "*"


def _finish(text: str, tag: FieldTag, a: Fraction, b: Fraction) -> Scalar:
    if tag is FieldTag.RATIONAL:
        if b != 0:
            raise ScalarSyntaxError(text, 0, "quadratic literal under rational field tag")
        return a
    return QuadScalar(a, b)


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
