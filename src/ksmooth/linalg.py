"""Exact vectors, matrices, rank, solving and independent subsets.

``clear_denominators`` is the one clearing routine: it scales a list of
rows by one common positive integer and keeps only integers: a row of
``int``s over the rationals, the pair ``(a, b)`` of ``int`` tuples of a
row ``a + b r2`` over Q(sqrt 2).  The hot scans over a ball run on such
rows: a dot product is
``sum(map(mul, a, b))``, values are compared with each other, and at most
one field scalar is built at the end (``from_cleared``).  Which rows are
tight at a point is decided in :mod:`ksmooth.polytope` alone.

Rank uses fraction-free (Bareiss) elimination with full pivot search by
a smallest-size heuristic; this bounds coefficient growth without
affecting exactness.  The kernel ``_rank_of_lists`` runs on rows that are
already cleared, and its callers clear: ``rank`` and ``rank_of_vectors``
clear once, while :mod:`ksmooth.polytope` passes the rows it holds
cleared.  It runs on ``int``s over both fields, so every Bareiss division
is an exact ``//``: over Q(sqrt 2), whose d-space is Q^2d, it halves the
rank of the rows ``(a | b)`` and ``(2b | a)`` (the row times r2).  Every
rank query recomputes from scratch: matrices here are tiny.

Everything else runs on one Gauss-Jordan kernel: ``pivot_on`` is a single
elimination step and ``_reduce`` brings rows to reduced row echelon form.
``solve``, ``nullspace``, ``greedy_independent_subset`` and the simplex
pivots of :mod:`ksmooth.lp` all go through it; ``solve`` reduces a matrix
once for all its right-hand sides.  Rank stays on Bareiss, which is
faster on the shapes used here.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from operator import mul
from typing import Iterable, Iterator, Optional, Sequence

from .errors import DimensionMismatchError, FieldMismatchError
from .scalars import FieldTag, QuadScalar, Scalar, serialize


class Vector:
    """Immutable dense vector over a single scalar field."""

    __slots__ = ("entries", "field")

    def __init__(self, entries: Iterable[object], field: FieldTag) -> None:
        object.__setattr__(self, "entries", tuple(field.coerce(e) for e in entries))
        object.__setattr__(self, "field", field)
        if not self.entries:
            raise DimensionMismatchError("vector must have positive dimension")

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("Vector is immutable")

    @classmethod
    def zero(cls, dim: int, field: FieldTag) -> "Vector":
        return cls([field.zero] * dim, field)

    @classmethod
    def basis(cls, index: int, dim: int, field: FieldTag) -> "Vector":
        return cls([field.one if i == index else field.zero for i in range(dim)], field)

    @property
    def dim(self) -> int:
        return len(self.entries)

    def __len__(self) -> int:
        return len(self.entries)

    def __iter__(self) -> Iterator[Scalar]:
        return iter(self.entries)

    def __getitem__(self, i: int) -> Scalar:
        return self.entries[i]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Vector):
            return NotImplemented
        return self.field is other.field and self.entries == other.entries

    def __hash__(self) -> int:
        return hash((self.field, self.entries))

    def __repr__(self) -> str:
        return f"Vector({list(self.entries)!r}, {self.field.name})"

    def __str__(self) -> str:
        return "(" + ",".join(serialize(e) for e in self.entries) + ")"

    def _check_peer(self, other: "Vector") -> None:
        if self.field is not other.field:
            raise FieldMismatchError("vectors of different fields")
        if self.dim != other.dim:
            raise DimensionMismatchError(f"dim {self.dim} vs {other.dim}")

    def __add__(self, other: "Vector") -> "Vector":
        self._check_peer(other)
        return Vector([a + b for a, b in zip(self.entries, other.entries)], self.field)

    def __sub__(self, other: "Vector") -> "Vector":
        self._check_peer(other)
        return Vector([a - b for a, b in zip(self.entries, other.entries)], self.field)

    def __neg__(self) -> "Vector":
        return Vector([-a for a in self.entries], self.field)

    def scale(self, c: object) -> "Vector":
        c = self.field.coerce(c)
        return Vector([c * a for a in self.entries], self.field)

    def dot(self, other: "Vector") -> Scalar:
        self._check_peer(other)
        return sum(map(mul, self.entries, other.entries))

    def is_zero(self) -> bool:
        return not any(self.entries)


class Matrix:
    """Immutable row-major matrix over a single scalar field."""

    __slots__ = ("row_data", "cols", "field")

    def __init__(self, rows: Sequence[Sequence[object]], field: FieldTag) -> None:
        data = tuple(tuple(field.coerce(e) for e in row) for row in rows)
        if not data or not data[0]:
            raise DimensionMismatchError("matrix must have positive row and column counts")
        width = len(data[0])
        if any(len(row) != width for row in data):
            raise DimensionMismatchError("ragged matrix rows")
        object.__setattr__(self, "row_data", data)
        object.__setattr__(self, "cols", width)
        object.__setattr__(self, "field", field)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("Matrix is immutable")

    @classmethod
    def from_rows(cls, rows: Sequence[Vector]) -> "Matrix":
        if not rows:
            raise DimensionMismatchError("no rows")
        return cls([list(r.entries) for r in rows], rows[0].field)

    @classmethod
    def from_columns(cls, columns: Sequence[Vector]) -> "Matrix":
        if not columns:
            raise DimensionMismatchError("no columns")
        dim = columns[0].dim
        field = columns[0].field
        return cls([[c[i] for c in columns] for i in range(dim)], field)

    @classmethod
    def identity(cls, n: int, field: FieldTag) -> "Matrix":
        return cls([[field.one if i == j else field.zero for j in range(n)]
                    for i in range(n)], field)

    @property
    def rows(self) -> int:
        return len(self.row_data)

    def row(self, i: int) -> Vector:
        return Vector(self.row_data[i], self.field)

    def column(self, j: int) -> Vector:
        return Vector([row[j] for row in self.row_data], self.field)

    def transpose(self) -> "Matrix":
        return Matrix([[self.row_data[i][j] for i in range(self.rows)]
                       for j in range(self.cols)], self.field)

    def matvec(self, v: Vector) -> Vector:
        if v.field is not self.field:
            raise FieldMismatchError("matrix and vector fields differ")
        if v.dim != self.cols:
            raise DimensionMismatchError(f"matvec: {self.cols} columns vs dim {v.dim}")
        return Vector([sum(map(mul, row, v.entries)) for row in self.row_data], self.field)

    def matmul(self, other: "Matrix") -> "Matrix":
        if other.field is not self.field:
            raise FieldMismatchError("matrix fields differ")
        if self.cols != other.rows:
            raise DimensionMismatchError("matmul shape mismatch")
        ot = other.transpose()
        return Matrix([[Vector(r, self.field).dot(Vector(c, self.field))
                        for c in ot.row_data] for r in self.row_data], self.field)

    def scale(self, c: object) -> "Matrix":
        c = self.field.coerce(c)
        return Matrix([[c * e for e in row] for row in self.row_data], self.field)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Matrix):
            return NotImplemented
        return self.field is other.field and self.row_data == other.row_data

    def __hash__(self) -> int:
        return hash((self.field, self.row_data))

    def __repr__(self) -> str:
        return f"Matrix({[list(r) for r in self.row_data]!r}, {self.field.name})"


def _scalar_size(x: Scalar) -> int:
    if isinstance(x, Fraction):
        return x.numerator.bit_length() + x.denominator.bit_length()
    return (x.a.numerator.bit_length() + x.a.denominator.bit_length()
            + x.b.numerator.bit_length() + x.b.denominator.bit_length())


def clear_denominators(rows: Iterable[Sequence[Scalar]],
                       field: FieldTag) -> tuple[list[tuple], int]:
    """Integral rows over one common positive scale: ``rows == cleared / scale``.

    Over the rationals a cleared row is a tuple of ``int``s; over Q(sqrt 2)
    it is the pair ``(a, b)`` of ``int`` tuples of the row ``a + b r2``.
    """
    rows = list(rows)
    if field is FieldTag.RATIONAL:
        scale = lcm(*{x.denominator for row in rows for x in row})
        return [tuple(x.numerator * (scale // x.denominator) for x in row)
                for row in rows], scale
    scale = lcm(*{d for row in rows for x in row for d in (x.a.denominator, x.b.denominator)})
    return [(tuple(x.a.numerator * (scale // x.a.denominator) for x in row),
             tuple(x.b.numerator * (scale // x.b.denominator) for x in row))
            for row in rows], scale


def from_cleared(value: int | tuple[int, int], scale: int, field: FieldTag) -> Scalar:
    """The field scalar ``value / scale`` for a cleared value (a pair over Q(sqrt 2))."""
    if field is FieldTag.RATIONAL:
        return Fraction(value, scale)
    return QuadScalar(Fraction(value[0], scale), Fraction(value[1], scale))


def _rank_of_lists(rows: Sequence[Sequence], field: FieldTag) -> int:
    """The rank of ``rows`` cleared of denominators (see
    ``clear_denominators``; each row may have its own scale), 0 for none."""
    if field is FieldTag.RATIONAL:
        work = [list(row) for row in rows]
    else:
        # the Q(sqrt 2)-span of rows a + b r2 is the Q-span of (a | b), (2b | a)
        work = [r for a, b in rows for r in ([*a, *b], [*(2 * y for y in b), *a])]
    if not work:
        return 0
    nr, nc = len(work), len(work[0])
    prev = 1
    rank = 0
    for step in range(min(nr, nc)):
        best = None
        for i in range(step, nr):
            for j in range(step, nc):
                x = work[i][j]
                if x:
                    size = x.bit_length()
                    if best is None or size < best[0]:
                        best = (size, i, j)
        if best is None:
            break
        _, pi, pj = best
        if pi != step:
            work[step], work[pi] = work[pi], work[step]
        if pj != step:
            for row in work:
                row[step], row[pj] = row[pj], row[step]
        pivot_row = work[step]
        pivot = pivot_row[step]
        for i in range(step + 1, nr):
            row = work[i]
            factor = row[step]
            for j in range(step + 1, nc):
                value = pivot * row[j] - factor * pivot_row[j]
                # integer Bareiss divisions are exact; prev is 1 at step 0
                row[j] = value // prev if step else value
            row[step] = 0
        prev = pivot
        rank += 1
    return rank if field is FieldTag.RATIONAL else rank // 2


def rank(m: Matrix) -> int:
    """Exact rank by fraction-free elimination."""
    return _rank_of_lists(clear_denominators(m.row_data, m.field)[0], m.field)


def rank_of_vectors(vs: Sequence[Vector]) -> int:
    if not vs:
        return 0
    return _rank_of_lists(clear_denominators((v.entries for v in vs), vs[0].field)[0],
                          vs[0].field)


def pivot_on(rows: list[list[Scalar]], r: int, c: int) -> None:
    """One Gauss-Jordan step in place: scale row ``r`` to a unit pivot in
    column ``c``, then clear column ``c`` from every other row, skipping
    the columns where row ``r`` is zero."""
    pivot = rows[r][c]
    rows[r] = [x / pivot for x in rows[r]]
    for i in range(len(rows)):
        if i != r and rows[i][c]:
            factor = rows[i][c]
            rows[i] = [x - factor * y if y else x for x, y in zip(rows[i], rows[r])]


def _reduce(rows: list[list[Scalar]], ncols: int) -> list[int]:
    """Bring ``rows`` to reduced row echelon form in place, pivoting only in
    the first ``ncols`` columns; returns the pivot columns in order.

    In each column the pivot is the nonzero entry of smallest size among
    the rows not yet used, the first such row on ties.
    """
    pivot_cols: list[int] = []
    nr = len(rows)
    for c in range(ncols):
        r = len(pivot_cols)
        if r == nr:
            break
        sizes = [(_scalar_size(rows[i][c]), i) for i in range(r, nr) if rows[i][c]]
        if not sizes:
            continue
        pi = min(sizes)[1]
        if pi != r:
            rows[r], rows[pi] = rows[pi], rows[r]
        pivot_on(rows, r, c)
        pivot_cols.append(c)
    return pivot_cols


def solve(a: Matrix, bs: Sequence[Vector]) -> Optional[list[Vector]]:
    """Exact solutions of ``a x = b`` for each ``b`` in ``bs``, or ``None``
    when some ``b`` is inconsistent, from one reduction of ``a`` augmented
    with every ``b``.  Pivots are searched in ``a``'s columns only, so each
    solution is the one its ``b`` alone gives: unique when ``a`` has full
    column rank, otherwise with free variables fixed at zero.
    """
    for b in bs:
        if b.field is not a.field:
            raise FieldMismatchError("matrix and vector fields differ")
        if b.dim != a.rows:
            raise DimensionMismatchError(f"solve: {a.rows} rows vs rhs dim {b.dim}")
    n = a.cols
    aug = [list(row) + [b[i] for b in bs] for i, row in enumerate(a.row_data)]
    pivot_cols = _reduce(aug, n)
    if any(any(row[n:]) for row in aug[len(pivot_cols):]):
        return None
    solutions = [[a.field.zero] * n for _ in bs]
    for k, c in enumerate(pivot_cols):
        for solution, value in zip(solutions, aug[k][n:]):
            solution[c] = value
    return [Vector(solution, a.field) for solution in solutions]


def nullspace(a: Matrix) -> list[Vector]:
    """Deterministic basis of the kernel of ``a`` (one vector per free column)."""
    field = a.field
    rows = [list(row) for row in a.row_data]
    pivot_cols = _reduce(rows, a.cols)
    basis = []
    for fc in range(a.cols):
        if fc in pivot_cols:
            continue
        entries = [field.zero] * a.cols
        entries[fc] = field.one
        for k, pc in enumerate(pivot_cols):
            entries[pc] = -rows[k][fc]
        basis.append(Vector(entries, field))
    return basis


def greedy_independent_subset(vs: Sequence[Vector]) -> list[int]:
    """Indices of a maximal independent subset, scanning in input order.

    A vector is kept iff it is not in the span of the vectors before it;
    the result spans the span of the whole input.  These are exactly the
    pivot columns of the matrix whose columns are ``vs``.
    """
    if not vs:
        return []
    return _reduce([[v[i] for v in vs] for i in range(vs[0].dim)], len(vs))


def kron_coeff_vector(alpha: Vector, beta: Vector) -> Vector:
    """Coefficient tuple of all products ``alpha[i]*beta[j]``, i-major.

    With ``alpha`` a domain vector and ``beta`` a codomain functional this
    is the flattened bilinear form ``S -> beta(S alpha)``.
    """
    if alpha.field is not beta.field:
        raise FieldMismatchError("mixed fields in coefficient product")
    entries = []
    for ai in alpha.entries:
        for bj in beta.entries:
            entries.append(ai * bj)
    return Vector(entries, alpha.field)
