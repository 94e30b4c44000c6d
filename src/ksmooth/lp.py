"""Exact linear programming over the scalar fields.

A small two-phase tableau simplex in standard form (``min c.z`` subject to
``A z = b``, ``z >= 0``) with Bland's anti-cycling rule, so termination is
guaranteed and every pivot is exact.  Each pivot is one step of the
Gauss-Jordan kernel of :mod:`ksmooth.linalg`.  All feasibility regions in
this package are tiny (a few dozen variables), so no effort is spent on
sparsity or factorization.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Optional, Sequence

from .errors import DimensionMismatchError, InternalInconsistencyError
from .linalg import pivot_on
from .scalars import FieldTag, Scalar


class LPStatus(Enum):
    OPTIMAL = "optimal"
    INFEASIBLE = "infeasible"
    UNBOUNDED = "unbounded"


@dataclass(frozen=True)
class LPResult:
    status: LPStatus
    objective: Optional[Scalar] = None
    solution: Optional[tuple[Scalar, ...]] = None


def _pivot(tableau: list[list[Scalar]], basis: list[int], row: int, col: int) -> None:
    pivot_on(tableau, row, col)
    basis[row] = col


def _run_simplex(tableau: list[list[Scalar]], basis: list[int],
                 cost: list[Scalar], eligible: int) -> LPStatus:
    """Minimize with Bland's rule.  ``cost`` is the reduced-cost row
    (length = columns of the tableau); columns ``>= eligible`` never enter.
    The cost row is updated in place alongside the tableau."""
    rhs = len(tableau[0]) - 1
    while True:
        entering = -1
        for j in range(eligible):
            if cost[j] < 0:
                entering = j
                break
        if entering < 0:
            return LPStatus.OPTIMAL
        leaving = -1
        best_ratio: Optional[Scalar] = None
        for i, row in enumerate(tableau):
            coeff = row[entering]
            if coeff > 0:
                ratio = row[rhs] / coeff
                if (best_ratio is None or ratio < best_ratio
                        or (ratio == best_ratio and basis[i] < basis[leaving])):
                    best_ratio = ratio
                    leaving = i
        if leaving < 0:
            return LPStatus.UNBOUNDED
        _pivot(tableau, basis, leaving, entering)
        if cost[entering]:
            factor = cost[entering]
            for j in range(len(cost)):
                cost[j] = cost[j] - factor * tableau[leaving][j]


def solve_lp(a: Sequence[Sequence[object]], b: Sequence[object],
             c: Sequence[object], field: FieldTag,
             maximize: bool = False) -> LPResult:
    """Solve ``min c.z`` (or max) subject to ``A z = b``, ``z >= 0``."""
    m = len(a)
    if m == 0:
        raise DimensionMismatchError("LP needs at least one constraint row")
    n = len(c)
    rows = [[field.coerce(x) for x in row] for row in a]
    rhs = [field.coerce(x) for x in b]
    obj = [field.coerce(x) for x in c]
    if any(len(row) != n for row in rows) or len(rhs) != m:
        raise DimensionMismatchError("LP shape mismatch")
    if maximize:
        obj = [-x for x in obj]

    zero, one = field.zero, field.one
    for i in range(m):
        if rhs[i] < 0:
            rows[i] = [-x for x in rows[i]]
            rhs[i] = -rhs[i]

    # phase 1: artificial columns n..n+m-1 start basic
    tableau = [rows[i] + [one if k == i else zero for k in range(m)] + [rhs[i]]
               for i in range(m)]
    basis = [n + i for i in range(m)]
    width = n + m + 1
    cost = [zero] * width
    for j in range(n):
        total = zero
        for i in range(m):
            total = total + tableau[i][j]
        cost[j] = -total
    total = zero
    for i in range(m):
        total = total + tableau[i][-1]
    cost[-1] = -total

    status = _run_simplex(tableau, basis, cost, n)
    if status is not LPStatus.OPTIMAL:
        raise InternalInconsistencyError("phase 1 ended unbounded; it is always bounded")
    if -cost[-1] != 0:
        return LPResult(LPStatus.INFEASIBLE)

    # drive artificial variables out of the basis; drop redundant rows
    for i in range(m - 1, -1, -1):
        if basis[i] >= n:
            pivot_col = -1
            for j in range(n):
                if tableau[i][j]:
                    pivot_col = j
                    break
            if pivot_col >= 0:
                _pivot(tableau, basis, i, pivot_col)
            else:
                del tableau[i]
                del basis[i]

    # phase 2 on the original objective
    cost = list(obj) + [zero] * (width - n)
    for i, bi in enumerate(basis):
        if cost[bi]:
            factor = cost[bi]
            cost = [x - factor * y for x, y in zip(cost, tableau[i])]
    status = _run_simplex(tableau, basis, cost, n)
    if status is LPStatus.UNBOUNDED:
        return LPResult(LPStatus.UNBOUNDED)

    solution = [zero] * n
    for i, bi in enumerate(basis):
        if bi < n:
            solution[bi] = tableau[i][-1]
    value = zero
    for cj, xj in zip(obj, solution):
        value = value + cj * xj
    if maximize:
        value = -value
    return LPResult(LPStatus.OPTIMAL, value, tuple(solution))


def lp_feasible(a: Sequence[Sequence[object]], b: Sequence[object],
                field: FieldTag) -> Optional[tuple[Scalar, ...]]:
    """A nonnegative solution of ``A z = b``, or ``None`` when none exists."""
    n = len(a[0]) if a else 0
    result = solve_lp(a, b, [field.zero] * n, field)
    if result.status is LPStatus.OPTIMAL:
        return result.solution
    return None
