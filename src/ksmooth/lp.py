"""Exact linear feasibility over the scalar fields.

Every LP in this package asks one question: does ``A z = b`` have a
solution with ``z >= 0``?  ``solve_lp`` answers it with phase 1 of a small
tableau simplex: one artificial column per row starts basic, and the sum
of the artificials is minimized with Bland's anti-cycling rule, so
termination is guaranteed.  A zero minimum leaves any remaining basic
artificials at value 0, so the basic original columns already give a
solution.

The tableau holds ``A`` and ``b`` cleared over one common positive scale,
``int``s over Q and pairs ``(a, b)`` for ``a + b r2`` over Q(sqrt 2), and
``solve_lp`` takes them so, as ``Polytope.witness_lp`` hands them over.  A
pivot (``_pivot``) is the fraction-free Gauss-Jordan step of Edmonds
(1967): with ``p`` the new pivot and ``d`` the one before, every other row
becomes ``(p row - f pivot_row) / d``, an exact division, so the tableau
is always ``d`` times the field tableau.  Bland's pivots are positive, so
``d`` is too, and every sign and every ratio comparison (cross-multiplied)
is the field tableau's: the same pivots reach the same solution, returned
as cleared values over the last pivot.  ``lp_feasible`` is the front on
field scalars: it clears them (``clear``) and divides the solution back
(``quotient``).  The tableau's ``sign``, ``times``, ``minus`` and ``exact``
come from the field table of :mod:`ksmooth.scalars`.  The regions are tiny
(a few dozen variables): no sparsity, no factorization.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from functools import reduce
from typing import Optional, Sequence

from .errors import DimensionMismatchError, InternalInconsistencyError
from .scalars import _FIELD_OPS, FieldTag, Scalar, _FieldOps


class LPStatus(Enum):
    FEASIBLE = "feasible"
    INFEASIBLE = "infeasible"


@dataclass(frozen=True)
class LPResult:
    """``solution`` holds cleared values over the positive cleared value ``pivot``."""

    status: LPStatus
    solution: Optional[tuple] = None
    pivot: object = None


def _pivot(tableau: list[list], basis: list[int], row: int, col: int, prev, ops: _FieldOps):
    """Make ``col`` basic in ``row``: one fraction-free Gauss-Jordan step in
    place over the previous pivot ``prev``; returns the new pivot."""
    times, minus, exact = ops.times, ops.minus, ops.exact
    pivot_row = tableau[row]
    p = pivot_row[col]
    for i, other in enumerate(tableau):
        if i != row:
            f = other[col]
            tableau[i] = [exact(minus(times(p, x), times(f, y)), prev)
                          for x, y in zip(other, pivot_row)]
    basis[row] = col
    return p


def _run_simplex(tableau: list[list], basis: list[int], eligible: int, ops: _FieldOps):
    """Minimize with Bland's rule; returns the last pivot.  The last row of
    ``tableau`` is the reduced-cost row, which each pivot updates with the
    others; columns ``>= eligible`` never enter."""
    sign, times, minus = ops.sign, ops.times, ops.minus
    rhs = len(tableau[0]) - 1
    prev = ops.lift(1)
    while True:
        cost = tableau[-1]
        entering = next((j for j in range(eligible) if sign(cost[j]) < 0), -1)
        if entering < 0:
            return prev
        leaving = -1
        for i, row in enumerate(tableau[:-1]):
            coeff = row[entering]
            if sign(coeff) <= 0:
                continue
            if leaving >= 0:
                # the ratios row[rhs] / coeff, cross-multiplied: both coefficients are positive
                best = tableau[leaving]
                order = sign(minus(times(row[rhs], best[entering]), times(best[rhs], coeff)))
                if order > 0 or (order == 0 and basis[i] > basis[leaving]):
                    continue
            leaving = i
        if leaving < 0:
            raise InternalInconsistencyError("phase 1 ended unbounded; it is always bounded")
        prev = _pivot(tableau, basis, leaving, entering, prev, ops)


def solve_lp(a: Sequence[Sequence[object]], b: Sequence[object],
             field: FieldTag) -> LPResult:
    """A nonnegative solution of ``A z = b`` by phase 1 of the simplex.

    Entries are cleared values, ``int``s over Q and pairs ``(a, b)`` over
    Q(sqrt 2); a common positive scale of all of ``A`` and ``b`` changes
    nothing.  A feasible result holds ``z`` as cleared values over the last
    pivot."""
    m = len(a)
    if m == 0:
        raise DimensionMismatchError("LP needs at least one constraint row")
    n = len(a[0])
    if any(len(row) != n for row in a) or len(b) != m:
        raise DimensionMismatchError("LP shape mismatch")
    ops = _FIELD_OPS[field]
    one, zero = ops.lift(1), ops.lift(0)
    rows = [[*row, bi] if ops.sign(bi) >= 0 else [ops.minus(zero, x) for x in (*row, bi)]
            for row, bi in zip(a, b)]

    # artificial columns n..n+m-1 start basic; the cost row below the
    # constraints prices their sum
    tableau = [row[:n] + [one if k == i else zero for k in range(m)] + row[n:]
               for i, row in enumerate(rows)]
    cost = [reduce(ops.minus, column, zero) for column in zip(*rows)]
    tableau.append(cost[:n] + [zero] * m + cost[n:])
    basis = [n + i for i in range(m)]
    d = _run_simplex(tableau, basis, n, ops)
    if ops.sign(tableau[-1][-1]):
        return LPResult(LPStatus.INFEASIBLE)

    solution = [zero] * n
    for i, bi in enumerate(basis):
        if bi < n:
            solution[bi] = tableau[i][-1]
    return LPResult(LPStatus.FEASIBLE, tuple(solution), d)


def lp_feasible(a: Sequence[Sequence[object]], b: Sequence[object],
                field: FieldTag) -> Optional[tuple[Scalar, ...]]:
    """A nonnegative solution of ``A z = b`` on field scalars, or ``None``
    when none exists: ``int``s and ``Fraction``s over Q, ``QuadScalar``s
    over Q(sqrt 2), cleared for ``solve_lp`` and its solution divided back."""
    if len(b) != len(a):  # zip would drop the rows past the shorter
        raise DimensionMismatchError("LP shape mismatch")
    ops = _FIELD_OPS[field]
    cleared, _ = ops.clear([[*row, bi] for row, bi in zip(a, b)])
    rows = list(map(ops.split, cleared))
    result = solve_lp([row[:-1] for row in rows], [row[-1] for row in rows], field)
    if result.solution is None:
        return None
    return tuple(ops.quotient(x, result.pivot) for x in result.solution)
