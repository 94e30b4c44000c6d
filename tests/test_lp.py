import itertools
import math
import random
from collections import Counter
from fractions import Fraction

from ksmooth import lp
from ksmooth.lp import LPStatus, lp_feasible, solve_lp
from ksmooth.scalars import _FIELD_OPS, FieldTag, QuadScalar

Q = FieldTag.RATIONAL
K = FieldTag.QUAD_SQRT2


def test_convex_combination_feasible():
    # weights summing to one with zero mean against (1, -1)
    sol = lp_feasible([[1, 1], [1, -1]], [1, 0], Q)
    assert sol == (Fraction(1, 2), Fraction(1, 2))


def test_infeasible_detected():
    assert lp_feasible([[1, 1], [1, 1]], [1, 0], Q) is None


def test_redundant_rows_handled():
    # the doubled row keeps an artificial basic at value 0 after phase 1
    sol = lp_feasible([[1, 1], [2, 2]], [1, 2], Q)
    assert sol == (1, 0)


def test_quadratic_field_pivoting():
    rows = [[QuadScalar(1), QuadScalar(1)],
            [QuadScalar(0, 1), QuadScalar(0, -1)]]
    sol = lp_feasible(rows, [QuadScalar(1), QuadScalar(0)], K)
    assert sol == (QuadScalar(Fraction(1, 2)), QuadScalar(Fraction(1, 2)))


def test_degenerate_cycling_terminates():
    # classic degenerate rows; Bland's rule must still terminate
    rows = [
        [Fraction(1, 4), -8, -1, 9, 1, 0, 0],
        [Fraction(1, 2), -12, Fraction(-1, 2), 3, 0, 1, 0],
        [0, 0, 1, 0, 0, 0, 1],
    ]
    b = [0, 0, 1]
    result = solve_lp(*_cleared_lp(rows, b, Q, 1), Q)
    assert result.status is LPStatus.FEASIBLE
    z = _divided(result, Q)
    assert all(zj >= 0 for zj in z)
    assert [sum(a * zj for a, zj in zip(row, z)) for row in rows] == b


# The reference route: the same phase-1 simplex in field arithmetic, each
# pivot one Gauss-Jordan step that divides the pivot row by its pivot.
# The integer tableau of ``lp`` must take the same pivots to the same point.

def _field_pivot(tableau, basis, row, col):
    pivot = tableau[row][col]
    tableau[row] = pivot_row = [x / pivot for x in tableau[row]]
    for i, other in enumerate(tableau):
        if (factor := other[col]) and i != row:
            tableau[i] = [x - factor * y if y else x for x, y in zip(other, pivot_row)]
    basis[row] = col


def _field_solve_lp(a, b, field):
    """``(status, solution, pivots)`` of phase 1 with Bland's rule on field scalars."""
    m, n = len(a), len(a[0])
    zero, one = field.zero, field.one
    rows = [[field.coerce(x) for x in row] for row in a]
    rhs = [field.coerce(x) for x in b]
    for i in range(m):
        if rhs[i] < 0:
            rows[i] = [-x for x in rows[i]]
            rhs[i] = -rhs[i]
    tableau = [rows[i] + [one if k == i else zero for k in range(m)] + [rhs[i]]
               for i in range(m)]
    tableau.append([-sum(column, zero) for column in zip(*rows)]
                   + [zero] * m + [-sum(rhs, zero)])
    basis = [n + i for i in range(m)]
    pivots = 0
    while True:
        cost = tableau[-1]
        entering = next((j for j in range(n) if cost[j] < 0), -1)
        if entering < 0:
            break
        leaving, best_ratio = -1, None
        for i, row in enumerate(tableau[:-1]):
            if row[entering] > 0:
                ratio = row[-1] / row[entering]
                if (best_ratio is None or ratio < best_ratio
                        or (ratio == best_ratio and basis[i] < basis[leaving])):
                    best_ratio, leaving = ratio, i
        _field_pivot(tableau, basis, leaving, entering)
        pivots += 1
    if tableau[-1][-1]:
        return LPStatus.INFEASIBLE, None, pivots
    solution = [zero] * n
    for i, bi in enumerate(basis):
        if bi < n:
            solution[bi] = tableau[i][-1]
    return LPStatus.FEASIBLE, tuple(solution), pivots


def _random_lp(rng, field):
    """A small LP with few distinct entries, so ratio ties are common; some
    rows repeat a multiple of another, some right-hand sides are ``A z`` for
    a nonnegative ``z`` with zeros and some are drawn at random."""
    m, n = rng.randint(1, 4), rng.randint(1, 6)

    def entry():
        a = Fraction(rng.randint(-3, 3), rng.choice((1, 1, 2, 3)))
        if field is Q:
            return a
        return QuadScalar(a, rng.choice((0, 0, 1, -1, Fraction(1, 2))))

    rows = [[entry() for _ in range(n)] for _ in range(m)]
    if m > 1 and rng.random() < 0.3:
        rows[-1] = [rng.choice((1, 2, -1)) * x for x in rows[0]]
    if rng.random() < 0.6:
        z = [field.coerce(rng.choice((0, 0, 1, 2, Fraction(1, 2)))) for _ in range(n)]
        b = [sum((x * zj for x, zj in zip(row, z)), field.zero) for row in rows]
    else:
        b = [entry() for _ in range(m)]
        if m > 1 and rows[-1] != rows[0] and rng.random() < 0.5:
            b[-1] = b[0]
    return rows, b


def test_integer_tableau_takes_the_field_pivots(monkeypatch):
    # 3,000 seeded LPs, a third over Q(sqrt 2): the integer tableau reaches
    # the same status and solution as the field tableau in as many pivots
    pivots = []
    original = lp._pivot

    def counted(*args):
        pivots.append(None)
        return original(*args)

    monkeypatch.setattr(lp, "_pivot", counted)
    # solve_lp takes each LP cleared, over the lcm of its denominators and
    # over a multiple of it, as Polytope.witness_lp hands one over, and
    # lp_feasible takes it on field scalars; none of this changes anything
    rng = random.Random(20)
    seen = Counter()
    for k in range(3000):
        field = K if k % 3 == 2 else Q
        rows, b = _random_lp(rng, field)
        status, solution, expected_pivots = _field_solve_lp(rows, b, field)
        for factor in (1, k % 3 + 1):
            given = _cleared_lp(rows, b, field, factor)
            pivots.clear()
            result = solve_lp(*given, field)
            assert (result.status, _divided(result, field), len(pivots)) == (
                status, solution, expected_pivots), (given, field)
        pivots.clear()
        assert (lp_feasible(rows, b, field), len(pivots)) == (solution, expected_pivots)
        seen[field, status] += 1
    assert min(seen.values()) >= 200, seen


def _divided(result, field):
    """The solution of a ``solve_lp`` result as field scalars; the last
    pivot it is cleared over must be positive."""
    if result.solution is None:
        return None
    ops = _FIELD_OPS[field]
    assert ops.sign(result.pivot) > 0, result.pivot
    return tuple(ops.quotient(x, result.pivot) for x in result.solution)


def _cleared_lp(rows, b, field, factor):
    """``rows`` and ``b`` times ``factor`` and the lcm of their denominators:
    ``int``s over Q, ``(a, b)`` pairs of ``int``s over Q(sqrt 2)."""
    entries = [field.coerce(x) for x in (*itertools.chain(*rows), *b)]
    parts = entries if field is Q else [p for x in entries for p in (x.a, x.b)]
    scale = factor * math.lcm(*(p.denominator for p in parts))

    def cleared(x):
        x = field.coerce(x) * scale
        return int(x) if field is Q else (int(x.a), int(x.b))

    return [[cleared(x) for x in row] for row in rows], [cleared(x) for x in b]
