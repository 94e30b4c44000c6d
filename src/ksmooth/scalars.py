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

Scalar literal grammar (:func:`scan` reads it to integers for :func:`parse`)::

    rational := '-'? digits ('/' digits)?
    quad     := rational (('+'|'-') (rational '*')? 'r2')?
              | ('-'? 'r2' | rational '*' 'r2') (('+'|'-') rational)?

``r2`` denotes the square root of two.  Whitespace is forbidden inside a
literal.  ``serialize`` always emits the rational-first form (``a+b*r2``),
so serialized output round-trips through ``parse`` bit-exactly.
"""

from __future__ import annotations

from enum import Enum
from fractions import Fraction
from typing import Union

from .errors import FieldMismatchError, ScalarSyntaxError

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
        sa = _fraction_sign(self.a)
        sb = _fraction_sign(self.b)
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
        return _fraction_sign(x)
    if isinstance(x, QuadScalar):
        return x.sign()
    raise FieldMismatchError(f"not a scalar of a supported field: {x!r}")


# Over Q(sqrt 2) a cleared value is the pair (a, b) of ints for a + b r2.

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
