"""Exact vectors, matrices, rank, solving and independent subsets.

The hot scans over a ball run on rows cleared of denominators by the field
table of :mod:`ksmooth.scalars` (``clear_denominators``), where a dot
product is ``sum(map(mul, a, b))``, and build at most one field scalar at
the end (``from_cleared_row``); which rows are tight is decided in
:mod:`ksmooth.polytope`.

Rank, ``solve``, ``nullspace`` and ``greedy_independent_subset`` run on
one fraction-free kernel on ``int`` rows, ``_eliminate``, fed by
``_reduced``; ``_rank_of_lists`` is the rank front on cleared rows.  A
solution entry is one ``Fraction`` over the kernel's ``det``, built at the
end unless the caller goes on on integers; as the reduced row echelon form
is unique, every result is the one Gauss-Jordan in field arithmetic gives.
Matrices here are tiny: every query recomputes from scratch.

Points already held cleared (``Cleared``: rows over one positive scale, as
the balls of :mod:`ksmooth.polytope` hold theirs) are solved against and
picked from on their rows, with no field scalar: ``solve_rows`` and
``independent_rows`` work on the coordinates of the points, each divided by
the gcd of its entries, so a large common scale never reaches the kernel.
"""

from __future__ import annotations

from math import gcd
from operator import mul
from typing import Callable, Iterable, Iterator, Optional, Sequence

from .errors import DimensionMismatchError, FieldMismatchError
from .scalars import _FIELD_OPS, FieldTag, Scalar, serialize


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


class Cleared:
    """Points held as the integer ``rows`` of ``clear_denominators`` over one
    positive ``scale``.  ``vectors``, the points as field vectors, are built
    on first read: each by ``read`` of its index when that is given, else
    from its row."""

    __slots__ = ("rows", "scale", "field", "_read", "_vectors")

    def __init__(self, rows: list, scale: int, field: FieldTag,
                 read: Optional[Callable[[int], Vector]] = None) -> None:
        self.rows, self.scale, self.field, self._read = rows, scale, field, read
        self._vectors: Optional[tuple[Vector, ...]] = None

    def _vector(self, i: int) -> Vector:
        if self._read is not None:
            return self._read(i)
        return from_cleared_row(self.rows[i], self.scale, self.field)

    @property
    def vectors(self) -> tuple[Vector, ...]:
        # kept by hand: a cached_property takes a lock on every first read
        if self._vectors is None:
            self._vectors = tuple(map(self._vector, range(len(self.rows))))
        return self._vectors

    def subset(self, indices: Sequence[int]) -> "Cleared":
        """The listed points, over the same scale."""
        return Cleared([self.rows[i] for i in indices], self.scale, self.field,
                       lambda t: self._vector(indices[t]))


def _cleared_rows(rows: Iterable[Sequence[Scalar]], field: FieldTag) -> list[tuple]:
    """Each row cleared on its own scale, which changes no span and no solution."""
    clear = _FIELD_OPS[field].clear
    return [clear([row])[0][0] for row in rows]


def from_cleared_row(row: tuple, scale: int, field: FieldTag) -> Vector:
    """The ``Vector`` ``row / scale`` of a cleared row."""
    ops = _FIELD_OPS[field]
    d = ops.lift(scale)
    return Vector([ops.quotient(value, d) for value in ops.split(row)], field)


def _eliminate(rows: list[Sequence[int]], ncols: int, full: bool) -> tuple[list[int], int]:
    """Fraction-free elimination of ``int`` rows; returns the sorted pivot
    columns among the first ``ncols`` and the last pivot ``det``.  A step
    maps a row ``x`` to ``(p * x - f * y) // prev``, with ``y`` the pivot
    row, ``p`` its pivot, ``f`` the entry of ``x`` under it and ``prev`` the
    pivot before; the division is exact (Bareiss, 1968) in any order of
    pivot columns.

    ``full`` pivots column by column, each on the unused row whose entry
    there has the smallest nonzero bit length, and clears above each pivot
    as well as below, which leaves ``det`` times the reduced row echelon
    form (Nakos, Turner & Williams, 1997); pivot ``k`` ends in row ``k``.
    Forward-only, for rank and greedy subsets, takes the rows one at a time:
    a row is put through the steps of the pivot rows found so far, in the
    order they were found, which leaves it where column-order elimination on
    that pivot sequence would, and its first nonzero column, if any, is a
    new pivot.  That column is a pivot of every echelon form, so the sorted
    pivot columns are those of column-order elimination, and the loop stops
    once ``ncols`` pivots are found.  ``full`` swaps and replaces rows in
    ``rows``, never changing one; forward-only leaves ``rows`` as it is.
    """
    if not full:
        return _forward(rows, ncols)
    pivot_cols: list[int] = []
    nr = len(rows)
    prev = 1
    for c in range(ncols):
        r = len(pivot_cols)
        if r == nr:
            break
        best, size = -1, 0
        for i in range(r, nr):
            x = rows[i][c]
            if x and (best < 0 or x.bit_length() < size):
                best, size = i, x.bit_length()
        if best < 0:
            continue
        rows[r], rows[best] = rows[best], rows[r]
        pivot_row = rows[r]
        p = pivot_row[c]
        for i in range(nr):
            f = rows[i][c]
            if f and i != r:
                rows[i] = [(p * x - f * y) // prev for x, y in zip(rows[i], pivot_row)]
            elif i != r and p != prev:
                rows[i] = [p * x // prev for x in rows[i]]
        prev = p
        pivot_cols.append(c)
    return pivot_cols, prev


def _forward(rows: Sequence[Sequence[int]], ncols: int) -> tuple[list[int], int]:
    """``_eliminate``'s forward-only mode: each row put through the Bareiss
    steps of the pivot rows before it; ``rows`` is left as it is."""
    pivots: list[tuple[int, Sequence[int]]] = []
    det = 1
    for x in rows:
        prev = 1
        for c, y in pivots:
            p, f = y[c], x[c]
            if f:
                x = [(p * a - f * b) // prev for a, b in zip(x, y)]
            elif p != prev:
                x = [p * a // prev for a in x]
            prev = p
        for c in range(ncols):
            if x[c]:
                break
        else:
            continue
        pivots.append((c, x))
        det = x[c]
        if len(pivots) == ncols:
            break
    return sorted(c for c, _ in pivots), det


def _reduced(rows: Sequence[tuple], field: FieldTag, width: int,
             full: bool) -> tuple[list[list[int]], list[int], int]:
    """``_eliminate`` on cleared rows whose first ``width`` entries multiply
    the unknowns, the rest being right-hand sides; returns the rows it
    worked on (reduced when ``full``), the pivot unknowns and ``det``.
    Over Q(sqrt 2) a row ``a + b r2`` times ``x1 + x2 r2`` is two rational
    rows on interleaved unknown columns ``(x1_j, x2_j)``, ``(a_j, 2 b_j)``
    then ``a``'s right-hand sides and ``(b_j, a_j)`` then ``b``'s; pivot
    columns come in pairs, as a span is closed under r2.
    """
    if field is FieldTag.RATIONAL:
        work = list(rows)
        return (work, *_eliminate(work, width, full))
    work = []
    for a, b in rows:
        pairs = list(zip(a[:width], b[:width]))
        work.append([y for p, q in pairs for y in (p, 2 * q)] + list(a[width:]))
        work.append([y for p, q in pairs for y in (q, p)] + list(b[width:]))
    pivot_cols, det = _eliminate(work, 2 * width, full)
    return work, [c // 2 for c in pivot_cols[::2]], det


def _entry(rows: list[list[int]], k: int, col: int, field: FieldTag) -> int | tuple[int, int]:
    """The cleared value in ``int`` column ``col`` of ``_reduced``'s pivot unknown ``k``."""
    if field is FieldTag.RATIONAL:
        return rows[k][col]
    return rows[2 * k][col], rows[2 * k + 1][col]


def _rank_of_lists(rows: Sequence[Sequence], field: FieldTag) -> int:
    """The rank of cleared ``rows``, each over any scale; 0 for none."""
    if not rows:
        return 0
    return len(_reduced(rows, field, _FIELD_OPS[field].width(rows[0]), False)[1])


def rank(m: Matrix) -> int:
    """Exact rank by fraction-free elimination."""
    return _rank_of_lists(_cleared_rows(m.row_data, m.field), m.field)


def rank_of_vectors(vs: Sequence[Vector]) -> int:
    if not vs:
        return 0
    return _rank_of_lists(_cleared_rows((v.entries for v in vs), vs[0].field), vs[0].field)


def _solutions(equations: list, width: int, count: int,
               field: FieldTag) -> Optional[tuple[list[tuple], int]]:
    """The cleared solutions ``X`` of the cleared ``equations``, whose first
    ``width`` values multiply the unknowns and whose last ``count`` are
    right-hand sides, and the kernel's ``det`` (of either sign), each
    solution being ``X_t / det``; None when some right-hand side is
    inconsistent.  Free unknowns are fixed at zero."""
    rows, unknowns, det = _reduced(equations, field, width, True)
    columns = len(rows[0]) - count
    if any(any(row[columns:]) for row in rows if not any(row[:columns])):
        return None
    ops = _FIELD_OPS[field]
    solutions = [[ops.lift(0)] * width for _ in range(count)]
    for k, j in enumerate(unknowns):
        for t, solution in enumerate(solutions):
            solution[j] = _entry(rows, k, columns + t, field)
    return [ops.row(solution) for solution in solutions], det


def solve(a: Matrix, bs: Sequence[Vector], cleared: bool = False,
          ) -> Optional[list[Vector] | tuple[list[tuple], int]]:
    """Exact solutions of ``a x = b`` for each ``b`` in ``bs``, or ``None``
    when some ``b`` is inconsistent, from one reduction of ``a`` augmented
    with every ``b``.  Pivots are searched in ``a``'s columns only, so each
    solution is the one its ``b`` alone gives: unique when ``a`` has full
    column rank, otherwise with free variables fixed at zero.
    With ``cleared``, returns cleared rows ``X`` and the kernel's ``det``
    (an integer of either sign) instead, each solution being ``X_t / det``.
    """
    field = a.field
    for b in bs:
        if b.field is not field:
            raise FieldMismatchError("matrix and vector fields differ")
        if b.dim != a.rows:
            raise DimensionMismatchError(f"solve: {a.rows} rows vs rhs dim {b.dim}")
    aug = [row + tuple(b[i] for b in bs) for i, row in enumerate(a.row_data)]
    found = _solutions(_cleared_rows(aug, field), a.cols, len(bs), field)
    if found is None or cleared:
        return found
    rows, det = found
    return [from_cleared_row(row, det, field) for row in rows]


def _coordinates(rows: Sequence[tuple], field: FieldTag) -> list[tuple]:
    """Entry ``i`` of every cleared row, as one cleared row over the gcd of
    its entries: the equations, or the columns, that the rows make."""
    ops = _FIELD_OPS[field]
    return [ops.primitive(ops.row(values)) for values in zip(*map(ops.split, rows))]


def solve_rows(columns: Cleared, targets: Cleared) -> Optional[Cleared]:
    """``solve`` on points held cleared: the ``x`` with ``sum_j x_j c_j = b``,
    the ``c_j`` being the points of ``columns``, for each point ``b`` of
    ``targets``, as points over one positive scale, or None when some ``b``
    is outside their span.  The equations are the coordinates of the rows,
    so none carries a common scale; with ``X / det`` solving them, the
    solutions are ``X s / (det t)`` for ``columns`` over ``s`` and
    ``targets`` over ``t``."""
    field = columns.field
    if not targets.rows:
        return Cleared([], 1, field)
    found = _solutions(_coordinates(columns.rows + targets.rows, field),
                       len(columns.rows), len(targets.rows), field)
    if found is None:
        return None
    rows, det = found
    g = gcd(columns.scale, targets.scale)
    m, scale = columns.scale // g, det * (targets.scale // g)
    if scale < 0:
        m, scale = -m, -scale
    if m != 1:
        ops = _FIELD_OPS[field]
        c = ops.lift(m)
        rows = [ops.row([ops.times(c, value) for value in ops.split(row)]) for row in rows]
    return Cleared(rows, scale, field)


def nullspace(a: Matrix) -> list[Vector]:
    """Deterministic basis of the kernel of ``a`` (one vector per free column)."""
    field = a.field
    rows, unknowns, det = _reduced(_cleared_rows(a.row_data, field), field, a.cols, True)
    step = len(rows[0]) // a.cols
    ops = _FIELD_OPS[field]
    d = ops.lift(det)
    basis = []
    for free in range(a.cols):
        if free in unknowns:
            continue
        entries = [field.zero] * a.cols
        entries[free] = field.one
        for k, j in enumerate(unknowns):
            entries[j] = -ops.quotient(_entry(rows, k, step * free, field), d)
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
    columns = _cleared_rows(([v[i] for v in vs] for i in range(vs[0].dim)), vs[0].field)
    return _reduced(columns, vs[0].field, len(vs), False)[1]


def independent_rows(points: Cleared) -> list[int]:
    """``greedy_independent_subset`` of points held cleared, on the columns
    their coordinates make."""
    if not points.rows:
        return []
    return _reduced(_coordinates(points.rows, points.field), points.field,
                    len(points.rows), False)[1]


def primitive_rows(rows: Sequence[tuple], field: FieldTag) -> list[tuple]:
    """Each cleared row over the gcd of its entries (of both parts over Q(sqrt 2))."""
    return list(map(_FIELD_OPS[field].primitive, rows))


def outer_rows(xs: Sequence[tuple], ys: Sequence[tuple], field: FieldTag) -> list[tuple]:
    """The products ``x[i] y[j]``, i-major, of the cleared rows ``x`` in ``xs``
    and ``y`` in ``ys`` taken in step, over the product of their scales."""
    return list(map(_FIELD_OPS[field].outer, xs, ys))
