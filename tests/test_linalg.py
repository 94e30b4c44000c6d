import random
import re
from fractions import Fraction

import pytest

from ksmooth.errors import DimensionMismatchError, FieldMismatchError
from ksmooth.linalg import (
    Cleared,
    Matrix,
    Vector,
    _rank_of_lists,
    from_cleared_row,
    greedy_independent_subset,
    independent_rows,
    nullspace,
    outer_rows,
    primitive_rows,
    rank,
    rank_of_vectors,
    solve,
    solve_rows,
)
from ksmooth.polytope import Polytope, canonicalize
from ksmooth.scalars import FieldTag, INV_SQRT2, QuadScalar, SQRT2, clear_denominators

Q = FieldTag.RATIONAL
K = FieldTag.QUAD_SQRT2


def qv(*entries):
    return Vector(entries, Q)


def rand_scalar(rng, field):
    """A small random scalar; over Q(sqrt2) both parts are random rationals."""
    a = Fraction(rng.randint(-3, 3), rng.randint(1, 3))
    if field is Q:
        return a
    return QuadScalar(a, Fraction(rng.randint(-3, 3), rng.randint(1, 3)))


def rand_matrix(rng, field, rows, cols):
    return Matrix([[rand_scalar(rng, field) for _ in range(cols)]
                   for _ in range(rows)], field)


def test_rank_identity():
    assert rank(Matrix.identity(3, Q)) == 3


def test_rank_dependent_rows():
    assert rank(Matrix([[1, 0, 0], [0, 1, 0], [1, 1, 0]], Q)) == 2


def test_rank_quadratic_field():
    m = Matrix([[QuadScalar(1), QuadScalar(1), QuadScalar(0)],
                [QuadScalar(1), QuadScalar(-1), QuadScalar(0)],
                [QuadScalar(0), QuadScalar(0), SQRT2]], K)
    assert rank(m) == 3  # determinant -2*sqrt2 is nonzero


def test_rank_transpose_invariant_random():
    rng = random.Random(7)
    for _ in range(40):
        rows = rng.randint(1, 5)
        cols = rng.randint(1, 5)
        m = Matrix([[Fraction(rng.randint(-3, 3), rng.randint(1, 3))
                     for _ in range(cols)] for _ in range(rows)], Q)
        assert rank(m) == rank(m.transpose())


def test_rank_nullity_random():
    rng = random.Random(11)
    for _ in range(40):
        rows = rng.randint(1, 5)
        cols = rng.randint(1, 5)
        m = Matrix([[Fraction(rng.randint(-3, 3)) for _ in range(cols)]
                    for _ in range(rows)], Q)
        assert rank(m) + len(nullspace(m)) == cols
        for v in nullspace(m):
            assert m.matvec(v).is_zero()
    for _ in range(30):
        cols = rng.randint(1, 5)
        # rank-deficient products give nontrivial kernels over Q(sqrt2)
        m = rand_matrix(rng, K, rng.randint(1, 4), 2).matmul(rand_matrix(rng, K, 2, cols))
        kernel = nullspace(m)
        assert rank(m) + len(kernel) == cols
        assert rank_of_vectors(kernel) == len(kernel)
        for v in kernel:
            assert m.matvec(v).is_zero()


def test_solve_in_span():
    a = Matrix.from_columns([Vector([1, 0, 0], K), Vector([0, 1, 0], K)])
    b = Vector([INV_SQRT2, INV_SQRT2, QuadScalar(0)], K)
    assert solve(a, [b]) == [Vector([INV_SQRT2, INV_SQRT2], K)]


def test_solve_identity():
    b = qv(3, Fraction(-1, 2), 7)
    assert solve(Matrix.identity(3, Q), [b]) == [b]


def test_solve_no_solution():
    a = Matrix.from_columns([qv(1, 1)])
    assert solve(a, [qv(1, 0)]) is None


def test_solve_checks_residual():
    rng = random.Random(13)
    for _ in range(30):
        n = rng.randint(1, 4)
        m = rng.randint(1, 4)
        a = Matrix([[Fraction(rng.randint(-3, 3)) for _ in range(m)]
                    for _ in range(n)], Q)
        b = Vector([Fraction(rng.randint(-3, 3)) for _ in range(n)], Q)
        x = solve(a, [b])
        if x is not None:
            assert a.matvec(x[0]) == b
    solved = 0
    for _ in range(30):
        n = rng.randint(1, 4)
        a = rand_matrix(rng, K, n, rng.randint(1, 4))
        # half the right-hand sides are in the column space by construction
        if rng.random() < 0.5:
            b = a.matvec(Vector([rand_scalar(rng, K) for _ in range(a.cols)], K))
        else:
            b = Vector([rand_scalar(rng, K) for _ in range(n)], K)
        x = solve(a, [b])
        if x is None:
            assert rank(a) < rank(Matrix.from_columns(
                [a.column(j) for j in range(a.cols)] + [b]))
        else:
            solved += 1
            assert a.matvec(x[0]) == b
    assert solved >= 15


def test_solve_all_right_hand_sides_equals_each_alone():
    # one reduction of a augmented with every b gives what each b alone gives:
    # the pivots are searched in a's columns only
    rng = random.Random(19)
    inconsistent = 0
    for field in (Q, K):
        for trial in range(30):
            n, cols = rng.randint(1, 4), rng.randint(1, 4)
            a = rand_matrix(rng, field, n, cols)
            if trial % 2:  # rank at most 1
                a = rand_matrix(rng, field, n, 1).matmul(rand_matrix(rng, field, 1, cols))
            bs = [a.matvec(Vector([rand_scalar(rng, field) for _ in range(cols)], field))
                  for _ in range(rng.randint(1, 4))]
            assert solve(a, bs) == [x for b in bs for x in solve(a, [b])]
            stray = Vector([rand_scalar(rng, field) for _ in range(n)], field)
            mixed = bs[:1] + [stray] + bs[1:]
            alone = [solve(a, [b]) for b in mixed]
            if None in alone:
                inconsistent += 1
                assert solve(a, mixed) is None
            else:
                assert solve(a, mixed) == [x for [x] in alone]
    assert solve(Matrix.identity(2, Q), []) == []
    assert inconsistent >= 15


def test_greedy_subset_basic():
    vs = [qv(1, 0, 0), qv(0, 1, 0), qv(1, 1, 0), qv(0, 0, 1)]
    assert greedy_independent_subset(vs) == [0, 1, 3]


def test_greedy_subset_zero_vector():
    assert greedy_independent_subset([qv(0, 0)]) == []


def test_greedy_subset_quadratic():
    vs = [Vector([QuadScalar(1), QuadScalar(0), QuadScalar(0)], K),
          Vector([QuadScalar(0), QuadScalar(1), QuadScalar(0)], K),
          Vector([INV_SQRT2, INV_SQRT2, QuadScalar(0)], K),
          Vector([QuadScalar(0), QuadScalar(0), QuadScalar(1)], K)]
    assert greedy_independent_subset(vs) == [0, 1, 3]


def test_greedy_subset_spans_input():
    rng = random.Random(3)
    for _ in range(30):
        vs = [Vector([Fraction(rng.randint(-2, 2)) for _ in range(3)], Q)
              for _ in range(rng.randint(1, 6))]
        picked = [vs[i] for i in greedy_independent_subset(vs)]
        assert rank_of_vectors(picked) == rank_of_vectors(vs)
        assert rank_of_vectors(picked) == len(picked)


def greedy_by_rank(vs):
    """Reference rule: keep a vector iff it raises the rank of the kept set."""
    kept, indices = [], []
    for i, v in enumerate(vs):
        if rank_of_vectors(kept + [v]) > len(kept):
            kept.append(v)
            indices.append(i)
    return indices


def low_rank_set(rng, field, dim, count, r):
    """``count`` vectors in a random ``r``-dimensional subspace, some zero."""
    gens = [[rand_scalar(rng, field) for _ in range(dim)] for _ in range(r)]
    vs = []
    for _ in range(count):
        if rng.random() < 0.15:
            vs.append(Vector.zero(dim, field))
            continue
        coeffs = [field.coerce(rng.randint(-2, 2)) for _ in range(r)]
        vs.append(Vector([sum((c * g[i] for c, g in zip(coeffs, gens)), field.zero)
                          for i in range(dim)], field))
    return vs


@pytest.mark.parametrize("field", [Q, K], ids=["rational", "quadratic"])
def test_greedy_subset_matches_rank_rule(field):
    rng = random.Random(17)
    for _ in range(60):
        dim = rng.randint(1, 5)
        vs = low_rank_set(rng, field, dim, rng.randint(1, 10), rng.randint(0, dim))
        assert greedy_independent_subset(vs) == greedy_by_rank(vs)
    assert greedy_independent_subset([]) == []


def test_greedy_subset_matches_rank_rule_cube_shape():
    # 64 integer points in dimension 6, the size of the ellinf:6 vertex set
    rng = random.Random(19)
    cube = [Vector([s * 2 - 1 for s in map(int, f"{k:06b}")], Q) for k in range(64)]
    rng.shuffle(cube)
    sets = [cube, [Vector([rng.randint(-3, 3) for _ in range(6)], Q) for _ in range(64)]]
    sets += [low_rank_set(rng, Q, 6, 64, r) for r in (2, 4)]
    # the last vector leaves the span of the 63 before it
    late = low_rank_set(rng, Q, 6, 63, 5) + [Vector([1, 2, 3, 5, 7, 11], Q)]
    assert rank_of_vectors(late) == 6
    sets.append(late)
    for vs in sets:
        assert greedy_independent_subset(vs) == greedy_by_rank(vs)
    assert greedy_independent_subset(late)[-1] == 63


def kron_coeff_vector(alpha, beta):
    """Reference: the products ``alpha[i] * beta[j]``, i-major, in field arithmetic."""
    return Vector([a * b for a in alpha for b in beta], alpha.field)


def integer_kron(alpha, beta):
    """``outer_rows`` on the two vectors cleared, read back as a vector."""
    [x], s = clear_denominators([alpha.entries], alpha.field)
    [y], t = clear_denominators([beta.entries], beta.field)
    [row] = outer_rows([x], [y], alpha.field)
    return from_cleared_row(row, s * t, alpha.field)


# the layout tests run on the field reference and on the integer products
KRONS = (kron_coeff_vector, integer_kron)


def test_kron_layout():
    for kron in KRONS:
        assert kron(qv(1, 0), qv(0, 1)).entries == \
            (Fraction(0), Fraction(1), Fraction(0), Fraction(0))


def test_kron_zero():
    for kron in KRONS:
        alpha = qv(0, 0)
        assert kron(alpha, qv(1, 2)).is_zero()


def test_kron_matches_example_vertex():
    for kron in KRONS:
        alpha = Vector([INV_SQRT2, INV_SQRT2, QuadScalar(0)], K)
        beta = Vector([QuadScalar(1), QuadScalar(0), QuadScalar(0)], K)
        got = kron(alpha, beta)
        # 1/sqrt2 in slots 11 and 21 of the i-major layout
        expected = [QuadScalar(0)] * 9
        expected[0] = INV_SQRT2
        expected[3] = INV_SQRT2
        assert got == Vector(expected, K)


def test_outer_flatten_examples():
    for kron in KRONS:
        assert kron(qv(1, 0), qv(1, 0)).entries[0] == 1
        assert kron(qv(1, 1), qv(1, 0)).entries == \
            (Fraction(1), Fraction(0), Fraction(1), Fraction(0))


def test_outer_flatten_independence():
    for kron in KRONS:
        # independent x's and f's give independent flattened outer products
        xs = [qv(1, 0), qv(1, 1)]
        fs = [qv(1, 0), qv(0, 1), qv(1, -1)][:2]
        products = [kron(x, f) for x in xs for f in fs]
        assert rank_of_vectors(products) == 4


def test_outer_rows_of_primitive_rows_match_field_products():
    # the integer products of x and y* cleared each over the gcd of its own
    # entries have the rank of the field products, zero and 40-digit entries
    # included: the oracle ranks the attainment scan's pairs so
    rng = random.Random(41)
    for field in (Q, K):
        for trial in range(24):
            n, m = rng.randint(1, 4), rng.randint(1, 4)
            xs = low_rank_set(rng, field, n, 4, rng.randint(1, n))
            ys = low_rank_set(rng, field, m, 4, rng.randint(1, m))
            if trial % 2:
                big = Fraction(rng.randrange(10 ** 39, 10 ** 40), rng.randrange(10 ** 39, 10 ** 40))
                xs[0] = xs[0].scale(big)
                ys[1] = Vector([e + field.coerce(big) for e in ys[1].entries], field)
            pairs = [(rng.choice(xs), rng.choice(ys)) for _ in range(rng.randint(1, 8))]
            expected = rank_of_vectors([kron_coeff_vector(x, y) for x, y in pairs])
            rows = [primitive_rows(clear_denominators([v.entries for v in vs], field)[0], field)
                    for vs in zip(*pairs)]
            assert _rank_of_lists(outer_rows(*rows, field), field) == expected


def test_solve_rows_and_independent_rows_match_the_vector_routes():
    # points held cleared, over scales of any size, are solved against and
    # picked from as solve and greedy_independent_subset do on the vectors
    rng = random.Random(43)
    for field in (Q, K):
        for trial in range(30):
            n = rng.randint(1, 4)
            columns = low_rank_set(rng, field, n, rng.randint(1, 4), rng.randint(1, n))
            targets = [Vector([rand_scalar(rng, field) for _ in range(n)], field)
                       for _ in range(rng.randint(0, 3))]
            if trial % 2:
                big = field.coerce(Fraction(rng.randrange(10 ** 29, 10 ** 30), 7))
                columns[0] = columns[0].scale(big)
            if trial % 3:
                m = Matrix.from_columns(columns)
                targets = [m.matvec(Vector([rand_scalar(rng, field) for _ in columns], field))
                           for _ in targets]
            c, t = (Cleared(*clear_denominators([v.entries for v in vs], field), field)
                    for vs in (columns, targets))
            assert c.vectors == tuple(columns)
            assert independent_rows(c) == greedy_independent_subset(columns)
            found = solve_rows(c, t)
            expected = solve(Matrix.from_columns(columns), targets)
            assert (found if found is None else list(found.vectors)) == expected
            if found is not None:
                assert found.scale > 0


def _diamond(field):
    """The vertices of the unit ball of l1 in the plane, and its facet
    functionals, the vertices of its polar, the square."""
    one, zero = field.one, field.zero
    vertices = [Vector(p, field) for p in ((one, zero), (-one, zero), (zero, one), (zero, -one))]
    functionals = [Vector((a, b), field) for a in (one, -one) for b in (one, -one)]
    return vertices, functionals


ODD = {"longer": lambda field: Vector([field.one] * 3, field),
       "shorter": lambda field: Vector([field.one], field),
       "other-field": lambda field: Vector([Fraction(1, 2)] * 2 if field is K
                                           else [INV_SQRT2] * 2, Q if field is K else K)}
# each takes the points the odd vector joins, and the diamond's functionals
TAKERS = {
    "rank_of_vectors": lambda points, others: rank_of_vectors(points),
    "greedy_independent_subset": lambda points, others: greedy_independent_subset(points),
    "canonicalize": lambda points, others: canonicalize(points),
    "from_vertices": lambda points, others: Polytope.from_vertices(points),
    "from_vectors-vertices": lambda points, others: Polytope.from_vectors(points, others),
    "from_vectors-functionals": lambda points, others: Polytope.from_vectors(others, points),
}


@pytest.mark.parametrize("field", [Q, K], ids=["rational", "quadratic"])
@pytest.mark.parametrize("odd", list(ODD))
@pytest.mark.parametrize("taker", list(TAKERS))
def test_ragged_or_mixed_vectors_raise(taker, odd, field):
    # every field vector becomes cleared rows through Cleared.of, which
    # checks it against the first: a ragged vector is not truncated or
    # padded and a vector of the other field is not misread
    vertices, functionals = _diamond(field)
    TAKERS[taker](vertices, functionals)
    stray = ODD[odd](field)
    if odd == "other-field":
        error, message = FieldMismatchError, f"point field {stray.field} vs space field {field}"
    else:
        error, message = DimensionMismatchError, f"point dim {stray.dim} vs space dim 2"
    with pytest.raises(error, match=f"^{re.escape(message)}$"):
        TAKERS[taker](vertices + [stray], functionals)


def test_vector_field_mismatch():
    with pytest.raises(FieldMismatchError):
        qv(1, 2).dot(Vector([QuadScalar(1), QuadScalar(2)], K))


def test_matrix_shape_checks():
    with pytest.raises(DimensionMismatchError):
        Matrix([[1, 2], [3]], Q)
    with pytest.raises(DimensionMismatchError):
        Matrix.identity(2, Q).matvec(qv(1, 2, 3))
