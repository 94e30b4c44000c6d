"""Exact linear feasibility over the scalar fields.

Every LP in this package asks one question: does ``A z = b`` have a
solution with ``z >= 0``?  ``solve_lp`` answers it with phase 1 of a small
tableau simplex: one artificial column per row starts basic, and the sum
of the artificials is minimized with Bland's anti-cycling rule, so
termination is guaranteed and every pivot is exact.  A zero minimum
leaves any remaining basic artificials at value 0, so the basic original
columns already give a solution.  A pivot (``_pivot``) is one
Gauss-Jordan step in field arithmetic, the only elimination in the
package off the integer kernel of :mod:`ksmooth.linalg`.  The regions
are tiny (a few dozen variables): no sparsity, no factorization.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Optional, Sequence

from .errors import DimensionMismatchError, InternalInconsistencyError
from .scalars import FieldTag, Scalar


class LPStatus(Enum):
    FEASIBLE = "feasible"
    INFEASIBLE = "infeasible"


@dataclass(frozen=True)
class LPResult:
    status: LPStatus
    solution: Optional[tuple[Scalar, ...]] = None


def _pivot(tableau: list[list[Scalar]], basis: list[int], row: int, col: int) -> None:
    """Make ``col`` basic in ``row``: one Gauss-Jordan step in place."""
    pivot = tableau[row][col]
    tableau[row] = pivot_row = [x / pivot for x in tableau[row]]
    for i, other in enumerate(tableau):
        if (factor := other[col]) and i != row:
            tableau[i] = [x - factor * y if y else x for x, y in zip(other, pivot_row)]
    basis[row] = col


def _run_simplex(tableau: list[list[Scalar]], basis: list[int], eligible: int) -> None:
    """Minimize with Bland's rule.  The last row of ``tableau`` is the
    reduced-cost row, which each pivot updates with the others; columns
    ``>= eligible`` never enter."""
    rhs = len(tableau[0]) - 1
    while True:
        cost = tableau[-1]
        entering = next((j for j in range(eligible) if cost[j] < 0), -1)
        if entering < 0:
            return
        leaving = -1
        best_ratio: Optional[Scalar] = None
        for i, row in enumerate(tableau[:-1]):
            coeff = row[entering]
            if coeff > 0:
                ratio = row[rhs] / coeff
                if (best_ratio is None or ratio < best_ratio
                        or (ratio == best_ratio and basis[i] < basis[leaving])):
                    best_ratio = ratio
                    leaving = i
        if leaving < 0:
            raise InternalInconsistencyError("phase 1 ended unbounded; it is always bounded")
        _pivot(tableau, basis, leaving, entering)


def solve_lp(a: Sequence[Sequence[object]], b: Sequence[object],
             field: FieldTag) -> LPResult:
    """A nonnegative solution of ``A z = b`` by phase 1 of the simplex."""
    m = len(a)
    if m == 0:
        raise DimensionMismatchError("LP needs at least one constraint row")
    n = len(a[0])
    rows = [[field.coerce(x) for x in row] for row in a]
    rhs = [field.coerce(x) for x in b]
    if any(len(row) != n for row in rows) or len(rhs) != m:
        raise DimensionMismatchError("LP shape mismatch")

    zero, one = field.zero, field.one
    for i in range(m):
        if rhs[i] < 0:
            rows[i] = [-x for x in rows[i]]
            rhs[i] = -rhs[i]

    # artificial columns n..n+m-1 start basic; the cost row below the
    # constraints prices their sum
    tableau = [rows[i] + [one if k == i else zero for k in range(m)] + [rhs[i]]
               for i in range(m)]
    tableau.append([-sum(column, zero) for column in zip(*rows)]
                   + [zero] * m + [-sum(rhs, zero)])
    basis = [n + i for i in range(m)]
    _run_simplex(tableau, basis, n)
    if tableau[-1][-1]:
        return LPResult(LPStatus.INFEASIBLE)

    solution = [zero] * n
    for i, bi in enumerate(basis):
        if bi < n:
            solution[bi] = tableau[i][-1]
    return LPResult(LPStatus.FEASIBLE, tuple(solution))


def lp_feasible(a: Sequence[Sequence[object]], b: Sequence[object],
                field: FieldTag) -> Optional[tuple[Scalar, ...]]:
    """A nonnegative solution of ``A z = b``, or ``None`` when none exists."""
    return solve_lp(a, b, field).solution
