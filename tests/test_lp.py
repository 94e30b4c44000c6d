from fractions import Fraction

from ksmooth.lp import LPStatus, lp_feasible, solve_lp
from ksmooth.scalars import FieldTag, QuadScalar

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
    result = solve_lp(rows, b, Q)
    assert result.status is LPStatus.FEASIBLE
    z = result.solution
    assert all(zj >= 0 for zj in z)
    assert [sum(a * zj for a, zj in zip(row, z)) for row in rows] == b
