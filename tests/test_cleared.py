"""The integer-cleared scans against the Fraction formulas they replace.

Every scan over a ball (norm, support set, minimal face, attainment) and
the fraction-free elimination behind rank, solve, nullspace and greedy
subsets runs on rows cleared of denominators, which hold only ``int``s
over both fields.  The reference route here is the plain field
arithmetic of ``Vector.dot`` and of ``reference_reduce``, a Gauss-Jordan
elimination on field scalars that shares no code with the package."""

import random
from fractions import Fraction

import pytest

from ksmooth.errors import (
    NotOnBoundaryError,
    OriginNotInteriorError,
    ValidationError,
    ZeroOperatorError,
)
import ksmooth.linalg as linalg
from ksmooth.linalg import (
    Matrix,
    Vector,
    _rank_of_lists,
    from_cleared_row,
    greedy_independent_subset,
    nullspace,
    rank,
    rank_of_vectors,
    solve,
)
from ksmooth.operators import LinearOperator, operator_norm_and_attainment, sign_canonical
import ksmooth.polytope as polytope
from ksmooth.polytope import Polytope, _tight, minimal_face
from ksmooth.scalars import FieldTag, QuadScalar, clear_denominators, from_cleared
from ksmooth.spaces import (
    ell1,
    ellinf,
    norm,
    normalized,
    paper_example_space,
    product_space,
    random_space,
    support_functionals_at,
    support_set,
)

Q = FieldTag.RATIONAL
K = FieldTag.QUAD_SQRT2


def reference_reduce(rows, ncols):
    """Bring the field-scalar ``rows`` to reduced row echelon form in place,
    pivoting in the first ``ncols`` columns on the first nonzero entry;
    returns the pivot columns."""
    pivot_cols = []
    for c in range(ncols):
        r = len(pivot_cols)
        pi = next((i for i in range(r, len(rows)) if rows[i][c]), None)
        if pi is None:
            continue
        rows[r], rows[pi] = rows[pi], rows[r]
        pivot = rows[r][c]
        rows[r] = [x / pivot for x in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c]:
                factor = rows[i][c]
                rows[i] = [x - factor * y for x, y in zip(rows[i], rows[r])]
        pivot_cols.append(c)
    return pivot_cols


def rand_scalar(rng, field, top=4):
    a = Fraction(rng.randint(-top, top), rng.randint(1, 6))
    if field is Q:
        return a
    return QuadScalar(a, Fraction(rng.randint(-2, 2), rng.randint(1, 3)))


def rand_vector(rng, field, dim):
    return Vector([rand_scalar(rng, field) for _ in range(dim)], field)


def spaces():
    out = [random_space(seed, dim, dim + 2) for seed, dim in
           ((3, 2), (5, 2), (8, 3), (13, 3), (21, 4), (34, 4))]
    out += [paper_example_space(), ellinf(3, K),
            product_space([ell1(2), random_space(55, 2, 4)])]
    return out


SPACES = spaces()
IDS = [s.name for s in SPACES]


def reference_norm(space, x):
    return max(f.dot(x) for f in space.ball.functionals)


def probe_points(rng, space):
    """Random directions, every vertex and midpoints of vertex pairs, all nonzero."""
    vertices = space.ball.vertices
    points = [rand_vector(rng, space.field, space.dim) for _ in range(8)]
    points += vertices
    half = space.field.one / space.field.from_int(2)
    for _ in range(8):
        u, w = rng.choice(vertices), rng.choice(vertices)
        points.append((u + w).scale(half))
    return [p for p in points if not p.is_zero()]


def cleared_values(crow, field):
    """The entries of a cleared row: ``int``s over Q, ``(a, b)`` pairs over Q(sqrt 2)."""
    if field is Q:
        return list(crow)
    a, b = crow
    assert len(a) == len(b)
    return list(zip(a, b))


@pytest.mark.parametrize("field", [Q, K], ids=["rational", "quadratic"])
def test_clear_denominators_round_trip(field):
    # field scalars, and as the LP is handed them mixed with cleared values:
    # ints over Q, (a, b) pairs over Q(sqrt 2)
    rng = random.Random(2)
    for k in range(60):
        rows = [[rand_scalar(rng, field) for _ in range(rng.randint(1, 4))]
                for _ in range(rng.randint(1, 4))]
        given = rows
        if k % 2:
            given = [[rand_cleared(rng, field) if rng.random() < 0.5 else x for x in row]
                     for row in rows]
            rows = [[x if isinstance(x, (Fraction, QuadScalar)) else cleared_scalar(x, field)
                     for x in row] for row in given]
        cleared, scale = clear_denominators(given, field)
        assert scale >= 1
        for row, crow in zip(rows, cleared):
            values = cleared_values(crow, field)
            assert [from_cleared(c, scale, field) for c in values] == row
            ints = values if field is Q else [x for pair in values for x in pair]
            assert all(type(x) is int for x in ints)


def rand_cleared(rng, field):
    a = rng.randint(-9, 9)
    return a if field is Q else (a, rng.randint(-9, 9))


def cleared_scalar(x, field):
    return Fraction(x) if field is Q else QuadScalar(*x)


@pytest.mark.parametrize("space", SPACES, ids=IDS)
def test_ball_holds_its_cleared_rows(space):
    ball, field = space.ball, space.field
    assert [[from_cleared(e, ball.D, field) for e in cleared_values(row, field)]
            for row in ball.F] == [list(f.entries) for f in ball.functionals]
    assert [[from_cleared(e, ball.E, field) for e in cleared_values(row, field)]
            for row in ball.V] == [list(v.entries) for v in ball.vertices]
    # F comes from DD's primitive rows, yet D is the functionals' least scale
    F, D = clear_denominators((f.entries for f in ball.functionals), field)
    assert (tuple(F), D) == (ball.F, ball.D)
    reference = tuple(frozenset(j for j, f in enumerate(ball.functionals)
                                if f.dot(v) == field.one) for v in ball.vertices)
    assert ball.vertex_active == reference


@pytest.mark.parametrize("space", SPACES, ids=IDS)
def test_norm_support_set_and_face_match_fraction_route(space):
    rng = random.Random(len(space.name))
    one = space.field.one
    zero = Vector.zero(space.dim, space.field)
    assert norm(space, zero) == space.field.zero
    for x in probe_points(rng, space):
        n = norm(space, x)
        assert n == reference_norm(space, x)
        assert type(n) is type(one)
        unit = x.scale(one / n)
        active = {j for j, f in enumerate(space.ball.functionals) if f.dot(unit) == one}
        supports = support_set(space, unit)
        assert [f for f in space.ball.functionals if f in supports.extreme_functionals] \
            == [space.ball.functionals[j] for j in sorted(active)]
        assert minimal_face(space.ball, unit).active_set == active
        f = space.ball.functionals[0]
        top, scale, tight = _tight(space.ball.V, space.ball.E, f)
        top = from_cleared(top, scale, space.field)
        assert top == max(f.dot(v) for v in space.ball.vertices)
        assert tight == [i for i, v in enumerate(space.ball.vertices) if f.dot(v) == top]


@pytest.mark.parametrize("space", SPACES, ids=IDS)
def test_support_functionals_at_takes_the_norm_scan(space, monkeypatch):
    # one scan gives the norm and the support set of y/||y||: the same base
    # point, functionals in facet order and rank as normalizing and then
    # scanning the unit vector again
    points = probe_points(random.Random(f"one-scan:{space.name}"), space)
    expected = [support_set(space, normalized(space, y)) for y in points]
    calls = []
    real_tight = polytope._tight
    monkeypatch.setattr(polytope, "_tight", lambda *args: calls.append(args) or real_tight(*args))
    for y, want in zip(points, expected):
        got = support_functionals_at(space, y)
        assert got.base_point == want.base_point
        assert got.extreme_functionals == want.extreme_functionals
        assert got.smoothness_order == want.smoothness_order
    assert len(calls) == len(points)
    with pytest.raises(ValidationError, match=r"^cannot normalize the zero vector$"):
        support_functionals_at(space, Vector.zero(space.dim, space.field))


@pytest.mark.parametrize("space", SPACES, ids=IDS)
def test_facet_rank_matches_the_field_rank(space):
    # the rank of a set of facets on the cleared rows F, against the rank of
    # the field functionals, on every active set of the face lattice
    ball = space.ball
    for active in ball._face_lattice():
        assert ball.facet_rank(active) == rank_of_vectors([ball.functionals[j] for j in active])


def random_matrix(rng, field, rows, cols, kind):
    if kind == "rank1":
        a = [rand_scalar(rng, field) for _ in range(rows)]
        b = [rand_scalar(rng, field) for _ in range(cols)]
        return [[x * y for y in b] for x in a]
    entries = [[rand_scalar(rng, field) for _ in range(cols)] for _ in range(rows)]
    if kind == "zero-column":
        j = rng.randrange(cols)
        for row in entries:
            row[j] = field.zero
    return entries


@pytest.mark.parametrize("codomain", SPACES, ids=IDS)
def test_attainment_matches_fraction_route(codomain):
    rng = random.Random(7 + codomain.dim)
    field = codomain.field
    domains = [s for s in SPACES if s.field is field]
    for trial in range(6):
        domain = domains[trial % len(domains)]
        kind = ("full", "rank1", "zero-column")[trial % 3]
        entries = random_matrix(rng, field, codomain.dim, domain.dim, kind)
        if not any(any(row) for row in entries):
            continue
        t = LinearOperator(domain, codomain, Matrix(entries, field))
        values = [reference_norm(codomain, t.apply(v)) for v in domain.ball.vertices]
        best = max(values)
        expected = []
        for v, value in zip(domain.ball.vertices, values):
            if value == best and sign_canonical(v) not in expected:
                expected.append(sign_canonical(v))
        att = operator_norm_and_attainment(t)
        assert att.operator_norm == best
        assert list(att.attaining_vertices) == expected


@pytest.mark.parametrize("field", [Q, K], ids=["rational", "quadratic"])
def test_normalized_carries_the_scan_a_fresh_scan_gives(field):
    # normalized() stores its own scan, rescaled, on the operator it returns;
    # scanning a copy of that operator from scratch gives the same norm one,
    # vertices, basis indices and tight facets
    rng = random.Random(f"memo:{field.name}")
    domains = [s for s in SPACES if s.field is field]
    for trial in range(12):
        domain, codomain = rng.choice(domains), rng.choice(domains)
        kind = ("full", "rank1", "zero-column")[trial % 3]
        entries = random_matrix(rng, field, codomain.dim, domain.dim, kind)
        if not any(any(row) for row in entries):
            continue
        t = LinearOperator(domain, codomain, Matrix(entries, field)).normalized()
        assert "attainment" in vars(t)
        fresh = LinearOperator(t.domain, t.codomain, t.matrix)
        assert t.attainment == operator_norm_and_attainment(fresh) == fresh.attainment
        assert t.attainment.operator_norm == field.one


def test_zero_operator_has_no_attainment():
    space = random_space(3, 2, 4)
    t = LinearOperator(space, space, Matrix([[0, 0], [0, 0]], Q))
    with pytest.raises(ZeroOperatorError):
        operator_norm_and_attainment(t)


@pytest.mark.parametrize("field", [Q, K], ids=["rational", "quadratic"])
def test_bareiss_rank_matches_gauss_jordan(field):
    rng = random.Random(31)
    for _ in range(80):
        rows, cols, r = rng.randint(1, 6), rng.randint(1, 6), rng.randint(0, 4)
        gens = [[rand_scalar(rng, field) for _ in range(cols)] for _ in range(r)]
        m = []
        for _ in range(rows):
            # coefficients from the field itself: over Q(sqrt 2) a row may be
            # r2 times another, which the rational rank of (a | b) misses
            coeffs = [field.from_int(rng.randint(-2, 2)) if field is Q
                      else QuadScalar(rng.randint(-2, 2), rng.randint(-1, 1))
                      for _ in range(r)]
            m.append([sum((c * g[j] for c, g in zip(coeffs, gens)), field.zero)
                      for j in range(cols)])
        expected = len(reference_reduce([list(row) for row in m], cols))
        assert expected <= r
        # the kernel takes cleared rows: over one scale here, row by row in rank
        assert _rank_of_lists(clear_denominators(m, field)[0], field) == expected
        assert rank(Matrix(m, field)) == expected


def test_bareiss_rank_of_rows_r2_apart():
    # (r2, 2) = r2 (1, r2): rank 1 over Q(sqrt 2), though the rows (a | b)
    # alone, (1, 0 | 0, 1) and (0, 2 | 1, 0), are rationally independent
    r2 = QuadScalar(0, 1)
    m = [[QuadScalar(1), r2], [r2, QuadScalar(2)]]
    assert _rank_of_lists(clear_denominators(m, K)[0], K) == 1
    assert rank(Matrix(m, K)) == 1
    assert rank(Matrix([[QuadScalar(1), r2], [r2, QuadScalar(1)]], K)) == 2


def test_bareiss_rank_on_large_entries():
    # entries with many digits keep every division exact
    big = 10 ** 40 + 7
    m = [[Fraction(big, 3), Fraction(1, big)], [Fraction(2 * big, 3), Fraction(2, big)],
         [Fraction(1, 7), Fraction(big)]]
    cleared, _ = clear_denominators(m, Q)
    assert _rank_of_lists(cleared, Q) == len(reference_reduce([list(r) for r in m], 2)) == 2
    assert _rank_of_lists(cleared[:2], Q) == 1
    assert rank(Matrix(m, Q)) == 2


def test_bareiss_rank_of_no_rows():
    assert _rank_of_lists([], Q) == _rank_of_lists([], K) == 0


def column_order_forward(rows, ncols):
    """Forward-only Bareiss elimination column by column, each pivot on the
    unused row with the smallest nonzero bit length in its column, clearing
    below it only; returns the pivot columns and the last pivot."""
    pivot_cols = []
    prev = 1
    for c in range(ncols):
        r = len(pivot_cols)
        if r == len(rows):
            break
        best, size = -1, 0
        for i in range(r, len(rows)):
            x = rows[i][c]
            if x and (best < 0 or x.bit_length() < size):
                best, size = i, x.bit_length()
        if best < 0:
            continue
        rows[r], rows[best] = rows[best], rows[r]
        pivot_row = rows[r]
        p = pivot_row[c]
        for i in range(r + 1, len(rows)):
            f = rows[i][c]
            rows[i] = [(p * x - f * y) // prev for x, y in zip(rows[i], pivot_row)]
        prev = p
        pivot_cols.append(c)
    return pivot_cols, prev


def integer_rows(rng, field):
    """Seeded cleared rows, 1 to 9 of them over 1 to 6 columns with entries
    up to 10^30, one in eight of them zero, and half of the matrices
    combinations of fewer generator rows."""
    nrows, ncols = rng.randint(1, 9), rng.randint(1, 6)
    top = 10 ** rng.choice((1, 3, 30))

    def part():
        return tuple(rng.randint(-top, top) if rng.getrandbits(3) else 0 for _ in range(ncols))

    def row():
        return part() if field is Q else (part(), part())

    if rng.random() < 0.5:
        return [row() for _ in range(nrows)]
    gens = [row() for _ in range(rng.randint(0, min(nrows, ncols) - 1))]
    rows = []
    for _ in range(nrows):
        coeffs = [(rng.randint(-3, 3), rng.randint(-2, 2)) for _ in gens]
        if field is Q:
            rows.append(tuple(sum(x * g[j] for (x, _), g in zip(coeffs, gens))
                              for j in range(ncols)))
        else:
            # (x + y r2)(a + b r2) = (x a + 2 y b) + (x b + y a) r2
            rows.append((tuple(sum(x * a[j] + 2 * y * b[j] for (x, y), (a, b) in zip(coeffs, gens))
                               for j in range(ncols)),
                         tuple(sum(x * b[j] + y * a[j] for (x, y), (a, b) in zip(coeffs, gens))
                               for j in range(ncols))))
    return rows


def test_row_by_row_forward_matches_column_order(monkeypatch):
    # the forward mode takes rows one at a time and stops at full rank; on
    # 20,000 seeded matrices its rank and greedy pivot unknowns are those of
    # the column-order loop
    rng = random.Random("forward")
    cases = []
    for field in (Q, K):
        for _ in range(10_000):
            rows = integer_rows(rng, field)
            ncols = len(rows[0] if field is Q else rows[0][0])
            cases.append((rows, field, rng.randint(1, ncols)))

    def results():
        return [(_rank_of_lists(rows, field), linalg._reduced(rows, field, width, False)[1])
                for rows, field, width in cases]

    got = results()
    full = linalg._eliminate
    monkeypatch.setattr(linalg, "_eliminate", lambda rows, ncols, is_full: (
        full(rows, ncols, True) if is_full else column_order_forward(rows, ncols)))
    assert got == results()
    ranks = [rank for rank, _ in got]
    deficient = [rank < min(len(rows), width) for (rows, _, width), rank in zip(cases, ranks)]
    assert 0 in ranks and 6 in ranks and sum(deficient) > 2_000


def reference_solve(m, bs, field):
    """Solutions of ``m x = b`` with free unknowns at zero, or None, by ``reference_reduce``."""
    n = len(m[0])
    aug = [list(row) + [b[i] for b in bs] for i, row in enumerate(m)]
    pivot_cols = reference_reduce(aug, n)
    if any(any(row[n:]) for row in aug[len(pivot_cols):]):
        return None
    solutions = [[field.zero] * n for _ in bs]
    for k, c in enumerate(pivot_cols):
        for solution, value in zip(solutions, aug[k][n:]):
            solution[c] = value
    return [Vector(solution, field) for solution in solutions]


def reference_nullspace(m, field):
    """One kernel vector per free column, read off ``reference_reduce``."""
    rows = [list(row) for row in m]
    pivot_cols = reference_reduce(rows, len(m[0]))
    basis = []
    for free in (c for c in range(len(m[0])) if c not in pivot_cols):
        entries = [field.zero] * len(m[0])
        entries[free] = field.one
        for k, c in enumerate(pivot_cols):
            entries[c] = -rows[k][free]
        basis.append(Vector(entries, field))
    return basis


def big_scalar(rng, field):
    """A scalar whose numerators and denominators have 40 to 46 digits."""
    def part():
        return Fraction(rng.choice((-1, 1)) * rng.randint(10 ** 40, 10 ** 46),
                        rng.randint(10 ** 40, 10 ** 46))
    return part() if field is Q else QuadScalar(part(), part())


def kernel_case(rng, field, kind):
    """A seeded matrix of the given kind, as a list of rows."""
    rows, cols = rng.randint(1, 5), rng.randint(1, 5)
    draw = big_scalar if kind == "big" else rand_scalar
    if kind == "deficient":
        r = rng.randint(0, min(rows, cols) - 1)
        gens = [[draw(rng, field) for _ in range(cols)] for _ in range(r)]
        coeffs = [[rand_scalar(rng, field) for _ in range(r)] for _ in range(rows)]
        return [[sum((c * g[j] for c, g in zip(cs, gens)), field.zero) for j in range(cols)]
                for cs in coeffs]
    m = [[draw(rng, field) for _ in range(cols)] for _ in range(rows)]
    if kind == "r2-columns" and cols > 1:
        # column j2 is r2 times column j1: dependent over Q(sqrt 2) only
        j1, j2 = rng.sample(range(cols), 2)
        for row in m:
            row[j2] = QuadScalar(0, 1) * row[j1]
    return m


# r2 multiples exist over Q(sqrt 2) only
CASES = [(field, kind) for field in (Q, K) for kind in ("deficient", "full", "big", "r2-columns")
         if field is K or kind != "r2-columns"]
CASE_IDS = [f"{'rational' if field is Q else 'quadratic'}-{kind}" for field, kind in CASES]


@pytest.mark.parametrize("field,kind", CASES, ids=CASE_IDS)
def test_solve_matches_gauss_jordan(field, kind):
    rng = random.Random(f"solve:{kind}:{field.name}")
    inconsistent = 0
    for _ in range(40):
        m = kernel_case(rng, field, kind)
        a = Matrix(m, field)
        # several right-hand sides: images a x (always consistent) and random ones
        bs = []
        for _ in range(rng.randint(1, 3)):
            x = Vector([rand_scalar(rng, field) for _ in range(a.cols)], field)
            bs.append(a.matvec(x) if rng.random() < 0.6
                      else Vector([rand_scalar(rng, field) for _ in range(a.rows)], field))
        expected = reference_solve(m, bs, field)
        inconsistent += expected is None
        assert solve(a, bs) == expected
        # the cleared return holds the same solutions over its det
        cleared = solve(a, bs, cleared=True)
        assert (cleared if cleared is None else
                [from_cleared_row(row, cleared[1], field) for row in cleared[0]]) == expected
        for b in bs:
            assert solve(a, [b]) == reference_solve(m, [b], field)
    if kind == "deficient":
        assert inconsistent > 0


@pytest.mark.parametrize("field,kind", CASES, ids=CASE_IDS)
def test_nullspace_and_greedy_subset_match_gauss_jordan(field, kind):
    rng = random.Random(f"kernel:{kind}:{field.name}")
    deficient = 0
    for _ in range(40):
        m = kernel_case(rng, field, kind)
        kernel = nullspace(Matrix(m, field))
        assert kernel == reference_nullspace(m, field)
        deficient += bool(kernel)
        # the columns of m as vectors, with zero vectors mixed in
        vs = [Vector([row[j] for row in m], field) for j in range(len(m[0]))]
        for _ in range(rng.randint(0, 2)):
            vs.insert(rng.randint(0, len(vs)), Vector.zero(len(m), field))
        expected = reference_reduce([[v[i] for v in vs] for i in range(len(m))], len(vs))
        assert greedy_independent_subset(vs) == expected
    if kind in ("deficient", "r2-columns"):
        assert deficient > 0


def test_kernel_on_r2_multiple_columns():
    # (r2, 2) is r2 times (1, r2): one independent vector, the kernel vector
    # (-r2, 1), and a right-hand side off their span makes the system None
    r2, zero = QuadScalar(0, 1), QuadScalar(0)
    vs = [kv(1, r2), kv(r2, 2)]
    assert greedy_independent_subset(vs) == [0]
    assert greedy_independent_subset([kv(0, 0)] + vs + [kv(1, 0)]) == [1, 3]
    a = Matrix.from_columns(vs)
    assert nullspace(a) == [kv(-r2, 1)]
    assert solve(a, [kv(r2, 2), kv(2, 2 * r2)]) == [Vector([r2, zero], K), kv(2, 0)]
    assert solve(a, [kv(1, 0)]) is None
    assert solve(a, [kv(r2, 2), kv(1, 0)]) is None


def qv(*entries):
    return Vector(entries, Q)


def kv(*entries):
    return Vector([QuadScalar(e) if isinstance(e, (int, Fraction)) else e for e in entries], K)


SQUARE = (qv(1, 1), qv(1, -1), qv(-1, 1), qv(-1, -1))
CROSS_FUNCTIONALS = (qv(1, 0), qv(-1, 0), qv(0, 1), qv(0, -1))


def test_polytope_rejects_vertex_outside_a_facet():
    # the square's corners violate the square's own facets scaled by 2
    doubled = tuple(f.scale(2) for f in CROSS_FUNCTIONALS)
    with pytest.raises(OriginNotInteriorError, match=r"violates functional \(2,0\)"):
        Polytope.from_vectors(SQUARE, doubled)
    # the corners read as functionals: (1,1) takes the value 2 at itself
    with pytest.raises(OriginNotInteriorError, match=r"vertex \(1,1\) violates functional \(1,1\)"):
        Polytope.from_vectors(SQUARE, SQUARE)
    r2 = QuadScalar(0, 1)
    with pytest.raises(OriginNotInteriorError):
        Polytope.from_vectors((kv(r2, 0), kv(-r2, 0), kv(0, 1), kv(0, -1)),
                 (kv(1, 0), kv(-1, 0), kv(0, 1), kv(0, -1)))


def test_polytope_rejects_vertex_inside():
    half = Fraction(1, 2)
    inner = (qv(half, half), qv(half, -half), qv(-half, half), qv(-half, -half))
    with pytest.raises(NotOnBoundaryError, match=r"vertex \(1/2,1/2\) is not on the boundary"):
        Polytope.from_vectors(inner, CROSS_FUNCTIONALS)
    # one interior vertex among boundary ones
    with pytest.raises(NotOnBoundaryError, match=r"vertex \(1/2,0\)"):
        Polytope.from_vectors((qv(1, 0), qv(Fraction(1, 2), 0)), CROSS_FUNCTIONALS)
    with pytest.raises(NotOnBoundaryError):
        Polytope.from_vectors((kv(QuadScalar(0, Fraction(1, 2)), 0),), (kv(1, 0), kv(-1, 0)))


# 2 - r2/2 > 1 > 3/2 - r2/2, and both differences from 1 have parts of
# opposite signs, so the Z[sqrt 2] order decides them by a*a against 2*b*b
ABOVE = QuadScalar(2, Fraction(-1, 2))
BELOW = QuadScalar(Fraction(3, 2), Fraction(-1, 2))
K_CROSS = (kv(1, 0), kv(-1, 0), kv(0, 1), kv(0, -1))


def test_quadratic_polytope_rejects_by_mixed_sign_values():
    with pytest.raises(OriginNotInteriorError, match=r"violates functional \(1,0\)"):
        Polytope.from_vectors((kv(ABOVE, 0), kv(-ABOVE, 0), kv(0, 1), kv(0, -1)), K_CROSS)
    with pytest.raises(NotOnBoundaryError, match=r"is not on the boundary"):
        Polytope.from_vectors((kv(BELOW, 0), kv(-BELOW, 0), kv(0, 1), kv(0, -1)), K_CROSS)


def test_norm_between_mixed_sign_facet_values():
    space = ellinf(2, K)
    one = space.field.one
    for x, top in ((kv(1, ABOVE), ABOVE), (kv(ABOVE, 1), ABOVE),
                   (kv(1, BELOW), one), (kv(BELOW, 1), one), (kv(-ABOVE, -1), ABOVE)):
        assert norm(space, x) == top == reference_norm(space, x)
        value, tight = space.ball.facets_at(x)
        assert value == top
        assert tight == [j for j, f in enumerate(space.ball.functionals) if f.dot(x) == top]
