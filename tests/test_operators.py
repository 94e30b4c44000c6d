import random
import time
from collections import Counter
from fractions import Fraction

import pytest

from ksmooth.errors import (
    EmptyExtremeIntersectionError,
    InternalInconsistencyError,
    NotIndependentError,
    NotProperFaceError,
    NotUnitNormError,
    SpanViolationError,
    ValidationError,
    ZeroOperatorError,
)
import ksmooth.operators as operators
from ksmooth import scalars
from ksmooth.linalg import (
    Matrix,
    Vector,
    greedy_independent_subset,
    nullspace,
    rank_of_vectors,
    solve,
)
from ksmooth.operators import (
    LinearOperator,
    _index_computation,
    construct_face_operator,
    face_operator_and_order,
    index_of_smoothness,
    operator_norm_and_attainment,
    oracle_order_of_smoothness,
    order_of_smoothness,
    paper_example_operator,
    rank1_admissible_orders,
    rank1_forbidden_primes,
    sign_canonical,
)
from ksmooth.polytope import FaceDescriptor, enumerate_faces, minimal_face
from ksmooth.scalars import FieldTag, INV_SQRT2, QuadScalar
from ksmooth.selftest import _random_invertible, _random_rank1_operator, _random_unit_operator
from ksmooth.spaces import (
    SupportSet,
    ell1,
    ellinf,
    norm,
    paper_example_space,
    point_smoothness,
    product_space,
    random_space,
    support_functionals_at,
)

Q = FieldTag.RATIONAL
K = FieldTag.QUAD_SQRT2


def qv(*entries):
    return Vector(entries, Q)


def kv(*entries):
    return Vector([QuadScalar(e) if isinstance(e, int) else e for e in entries], K)


@pytest.fixture(scope="module")
def bundled():
    return paper_example_operator()


def test_bundled_norm_and_attainment(bundled):
    att = operator_norm_and_attainment(bundled)
    assert att.operator_norm == K.one
    expected = {
        kv(1, 0, 0).entries,
        kv(0, 1, 0).entries,
        Vector([INV_SQRT2, INV_SQRT2, QuadScalar(0)], K).entries,
        kv(0, 0, 1).entries,
    }
    assert {v.entries for v in att.attaining_vertices} == expected


def test_bundled_order_is_two_way_consistent(bundled):
    report = order_of_smoothness(bundled)
    assert report.index == report.oracle_order
    assert report.index == 8
    assert report.min_bound <= report.index


@pytest.mark.parametrize("make", [
    paper_example_operator,
    lambda: LinearOperator(ellinf(2), ellinf(2), Matrix.identity(2, Q)),
], ids=["paper-example", "identity-ellinf2"])
def test_order_scans_once_and_reads_each_support_set_once(monkeypatch, make):
    t = make()
    calls = Counter()

    def counting(fn):
        def wrapper(*args, **kwargs):
            calls[fn.__name__] += 1
            return fn(*args, **kwargs)
        return wrapper

    for name in ("operator_norm_and_attainment", "support_functionals_at"):
        monkeypatch.setattr(operators, name, counting(getattr(operators, name)))
    report = order_of_smoothness(t)
    assert calls["operator_norm_and_attainment"] == 1
    assert calls["support_functionals_at"] == len(report.attainment.attaining_vertices)
    assert report.oracle_order == oracle_order_of_smoothness(t) == report.index


def test_oracle_does_not_read_the_index_support_sets(monkeypatch):
    # a support set that loses a functional changes the index but not the
    # oracle, which reads the scan's (vertex, facet) pairs
    real = operators.support_functionals_at

    def dropping(space, y):
        sup = real(space, y)
        kept = sup.extreme_functionals[:-1] or sup.extreme_functionals
        return SupportSet(sup.base_point, kept, rank_of_vectors(kept))

    monkeypatch.setattr(operators, "support_functionals_at", dropping)
    space = ellinf(2)
    with pytest.raises(InternalInconsistencyError, match="outer-product oracle"):
        order_of_smoothness(LinearOperator(space, space, Matrix.identity(2, Q)))


def test_normalize_then_order_scans_once(monkeypatch):
    # normalized() hands its scan to the operator it returns, so the order
    # of a rescaled operator costs one scan in all
    calls = []
    real = operators.operator_norm_and_attainment

    def counted(t):
        calls.append(t)
        return real(t)

    monkeypatch.setattr(operators, "operator_norm_and_attainment", counted)
    t = LinearOperator(ell1(2), ellinf(2), Matrix([[2, 2], [2, 1]], Q)).normalized()
    report = order_of_smoothness(t)
    assert len(calls) == 1 and calls[0].matrix != t.matrix
    assert report.attainment.operator_norm == 1 and report.index == report.oracle_order


def kron_coeff_vector(alpha, beta):
    """Reference: the products ``alpha[i] * beta[j]``, i-major, in field arithmetic."""
    return Vector([a * b for a in alpha for b in beta], alpha.field)


def field_z_generators(comp):
    """The coefficient tuples of an index computation formed in field
    arithmetic from the bases and support sets it reports."""
    alphas = solve(Matrix.from_columns(list(comp.vector_basis)), list(comp.rep_vertices))
    functionals = [f for sup in comp.image_supports for f in sup.extreme_functionals]
    betas = iter(solve(Matrix.from_columns(list(comp.functional_basis)), functionals))
    return [kron_coeff_vector(alpha, next(betas))
            for alpha, sup in zip(alphas, comp.image_supports) for _ in sup.extreme_functionals]


@pytest.mark.parametrize("field", [Q, K], ids=["rational", "quadratic"])
def test_integer_index_matches_field_products(field):
    # the index ranks integer products of the cleared solutions; the field
    # products of the same solutions give the same generators and rank,
    # with the default bases and with explicit recombinations of them
    rng = random.Random(f"index:{field.name}")
    if field is Q:
        spaces = [random_space(rng.randrange(2 ** 30), d, d + 2) for d in (2, 3, 3)]
    else:
        spaces = [paper_example_space(), ellinf(3, K), ell1(3, K)]
    for trial in range(12):
        x, y = rng.choice(spaces), rng.choice(spaces)
        t = (_random_rank1_operator if trial % 3 == 0 else _random_unit_operator)(rng, x, y)
        images = {v.entries: t.apply(v) for v in x.ball.vertices}
        r = list(t.attainment.attaining_vertices)
        r += [v for v in rng.sample(x.ball.vertices, 2) if not images[v.entries].is_zero()]
        comp = _index_computation(t, r)
        explicit = _index_computation(t, r, _recombined(rng, comp.vector_basis),
                                      _recombined(rng, comp.functional_basis))
        for c in (comp, explicit):
            expected = field_z_generators(c)
            assert list(c.z_generators) == expected
            assert c.index == rank_of_vectors(expected) == comp.index


def _recombined(rng, basis):
    """An invertible integer recombination of ``basis``, another basis of its span."""
    c = _random_invertible(rng, len(basis), basis[0].field)
    m = c.matmul(Matrix.from_rows(list(basis)))
    return [m.row(i) for i in range(m.rows)]


def _reference_basis(given, members, name, spanned):
    if given is None:
        return [members[i] for i in greedy_independent_subset(members)]
    basis = list(given)
    if rank_of_vectors(basis) != len(basis):
        raise NotIndependentError(f"explicit {name} basis is dependent")
    if rank_of_vectors(basis + members) != len(basis):
        raise ValidationError(f"explicit {name} basis does not span {spanned}")
    return basis


def reference_index_computation(t, r, vector_basis=None, functional_basis=None):
    """The index of smoothness on field vectors: unit norms read one member
    at a time, images and support sets of ``Vector``s, solves and products
    in field arithmetic."""
    if not r:
        raise ValidationError("R must be nonempty")
    field = t.domain.field
    for x in r:
        if norm(t.domain, x) != field.one:
            raise NotUnitNormError(f"R member {x} is not unit norm")
    vertices = {v.entries for v in t.domain.ball.vertices}
    reps = []
    for x in r:
        if x.entries in vertices and sign_canonical(x) not in reps:
            reps.append(sign_canonical(x))
    if not reps:
        raise EmptyExtremeIntersectionError("R contains no extreme point of the domain ball")
    chosen = _reference_basis(vector_basis, list(r), "vector", "R")
    supports, collected = [], []
    for v in reps:
        image = t.apply(v)
        if image.is_zero():
            raise ValidationError(f"image of extreme point {v} is zero; support set undefined")
        supports.append(support_functionals_at(t.codomain, image))
        collected += supports[-1].extreme_functionals
    f_basis = _reference_basis(functional_basis, collected, "functional",
                               "the support functionals")
    alphas = solve(Matrix.from_columns(chosen), reps)
    if alphas is None:
        raise SpanViolationError("an attaining vector is outside the collected span")
    betas = solve(Matrix.from_columns(f_basis), collected)
    if betas is None:
        raise SpanViolationError("a support functional is outside the collected span")
    betas = iter(betas)
    generators = [kron_coeff_vector(alpha, next(betas))
                  for alpha, sup in zip(alphas, supports) for _ in sup.extreme_functionals]
    return operators.IndexComputation(tuple(reps), tuple(supports), tuple(chosen),
                                      tuple(f_basis), tuple(generators),
                                      rank_of_vectors(generators))


def _unit_non_vertices(rng, space):
    """Midpoints of two vertices on one facet: unit vectors that are no vertex."""
    ball = space.ball
    found = []
    for face in rng.sample(enumerate_faces(ball, space.dim - 1), 2):
        v, w = ball.face_vertices(face)[:2]
        found.append((v + w).scale(space.field.one / space.field.from_int(2)))
    return found


def _both_routes(t, *args):
    """The index computation by the integer route and by the reference,
    or the type and message of the error each raises."""
    results = []
    for route in (_index_computation, reference_index_computation):
        try:
            results.append(route(t, *args))
        except Exception as error:
            results.append((type(error), str(error)))
    return results


def assert_routes_agree(t, *args):
    comp, expected = _both_routes(t, *args)
    if isinstance(expected, tuple):
        assert comp == expected
        return
    assert comp.rep_vertices == expected.rep_vertices
    assert len(comp.image_supports) == len(expected.image_supports)
    for got, want in zip(comp.image_supports, expected.image_supports):
        assert got.base_point == want.base_point
        assert got.extreme_functionals == want.extreme_functionals
        assert got.smoothness_order == want.smoothness_order
    assert comp.vector_basis == expected.vector_basis
    assert comp.functional_basis == expected.functional_basis
    assert comp.z_generators == expected.z_generators
    assert comp.index == expected.index


@pytest.mark.parametrize("field", [Q, K], ids=["rational", "quadratic"])
def test_index_route_matches_the_vector_route(field):
    # every field of the index computation, and every error, as the route
    # on field vectors gives them: R with non-extreme unit members, +/-
    # duplicates and members with zero images, default and explicit bases
    rng = random.Random(f"reference:{field.name}")
    if field is Q:
        spaces = [random_space(rng.randrange(2 ** 30), d, d + rng.randint(0, 2))
                  for d in (2, 3, 3, 4)]
    else:
        spaces = [paper_example_space(), ellinf(3, K), ell1(3, K), ell1(2, K)]
    for trial in range(16):
        x, y = rng.choice(spaces), rng.choice(spaces)
        t = (_random_rank1_operator if trial % 3 == 0 else _random_unit_operator)(rng, x, y)
        reps = list(t.attainment.attaining_vertices)
        others = rng.sample(x.ball.vertices, 2)
        r = reps + [-reps[0], reps[-1]] + _unit_non_vertices(rng, x)
        assert_routes_agree(t, r)
        assert_routes_agree(t, rng.sample(r, len(r)) + others)
        comp = _index_computation(t, r)
        vector_basis = _recombined(rng, comp.vector_basis)
        functional_basis = _recombined(rng, comp.functional_basis)
        assert_routes_agree(t, r, vector_basis, functional_basis)
        assert_routes_agree(t, r, None, functional_basis)
        # errors: an empty, non-unit or non-extreme R, dependent or
        # non-spanning explicit bases
        assert_routes_agree(t, [])
        assert_routes_agree(t, r + [reps[0].scale(field.from_int(2))])
        assert_routes_agree(t, _unit_non_vertices(rng, x))
        assert_routes_agree(t, r, vector_basis + [vector_basis[0]])
        assert_routes_agree(t, r, None, functional_basis + [-functional_basis[-1]])
        if len(vector_basis) > 1:
            assert_routes_agree(t, r, vector_basis[1:])
        if len(functional_basis) > 1:
            assert_routes_agree(t, r, None, functional_basis[:-1])
    # an extreme member whose image is zero
    t = LinearOperator(ell1(2, field), ellinf(2, field), Matrix([[1, 0], [1, 0]], field))
    e0, e1 = Vector.basis(0, 2, field), Vector.basis(1, 2, field)
    for r in ([e0, e1], [-e0, e0, e1], [e1]):
        assert_routes_agree(t.normalized(), r)


def test_order_query_clears_each_matrix_once(monkeypatch):
    # an order query clears R and the operator's matrix once each, and an
    # explicit basis once more each: the support sets, solves, ranks and
    # products all run on rows already cleared
    calls = []
    for tag, ops in list(scalars._FIELD_OPS.items()):
        def counting(rows, clear=ops.clear):
            calls.append(rows)
            return clear(rows)
        monkeypatch.setitem(scalars._FIELD_OPS, tag, ops._replace(clear=counting))
    rng = random.Random(5)
    pairs = [(random_space(rng.randrange(2 ** 30), 3, 5), random_space(rng.randrange(2 ** 30), 3, 4)),
             (paper_example_space(), ellinf(3, K))]
    for x, y in pairs:
        for _ in range(4):
            t = _random_unit_operator(rng, x, y)
            del calls[:]
            report = order_of_smoothness(t)
            assert len(calls) == 2
            r = list(report.attainment.attaining_vertices)
            del calls[:]
            index_of_smoothness(t, r, list(report.vector_basis), list(report.functional_basis))
            assert len(calls) == 4


def test_zero_image_leaves_the_support_set_undefined():
    # an extreme member of R that the operator sends to zero has no support set
    for field in (Q, K):
        t = LinearOperator(ell1(2, field), ellinf(2, field),
                           Matrix([[1, 0], [1, 0]], field)).normalized()
        with pytest.raises(ValidationError, match=r"^image of extreme point \(0,1\) is zero; "
                                                  r"support set undefined$"):
            index_of_smoothness(t, [Vector.basis(0, 2, field), Vector.basis(1, 2, field)])
        assert index_of_smoothness(t, [Vector.basis(0, 2, field)]) == 2


def test_bundled_z_generators_with_printed_bases(bundled):
    # reproduce the listed coefficient tuples entry by entry, using the
    # printed basis order; seven of the eight generators match the listing
    # and the eighth comes out as (1/r2)(e12 + e22), making the rank 8
    vector_basis = [kv(1, 0, 0), kv(0, 1, 0), kv(0, 0, 1)]
    functional_basis = [kv(1, 0, 0), kv(0, 1, 0), kv(0, 0, 1)]
    r = [kv(1, 0, 0), kv(0, 1, 0),
         Vector([INV_SQRT2, INV_SQRT2, QuadScalar(0)], K), kv(0, 0, 1)]
    comp = _index_computation(bundled, r, vector_basis=vector_basis,
                              functional_basis=functional_basis)
    z = QuadScalar(0)
    s = INV_SQRT2

    def unit(i, j, scale=QuadScalar(1)):
        entries = [z] * 9
        entries[3 * i + j] = scale
        return Vector(entries, K)

    expected = {
        unit(0, 0).entries,                                   # e11
        unit(0, 2).entries,                                   # e13
        unit(1, 1).entries,                                   # e22
        unit(2, 0).entries,                                   # e31
        unit(2, 1, QuadScalar(-1)).entries,                   # -e32
        unit(2, 2).entries,                                   # e33
        (unit(0, 0, s) + unit(1, 0, s)).entries,              # (1/r2)(e11+e21)
        (unit(0, 1, s) + unit(1, 1, s)).entries,              # (1/r2)(e12+e22)
    }
    assert {g.entries for g in comp.z_generators} == expected
    assert comp.index == 8


def test_identity_isometry_attains_everywhere():
    space = ellinf(2)
    ident = LinearOperator(space, space, Matrix.identity(2, Q))
    att = operator_norm_and_attainment(ident)
    assert att.operator_norm == 1
    assert {v.entries for v in att.attaining_vertices} == {
        qv(1, 1).entries, qv(1, -1).entries}


def test_identity_ellinf2_order_four():
    space = ellinf(2)
    ident = LinearOperator(space, space, Matrix.identity(2, Q))
    report = order_of_smoothness(ident)
    assert report.index == 4
    assert report.is_extreme_contraction(2, 2)


def test_rank1_collapse_operator():
    t = LinearOperator(ell1(2), ellinf(2), Matrix.from_columns([qv(1, 1), qv(1, 1)]))
    att = operator_norm_and_attainment(t)
    assert att.operator_norm == 1
    assert {v.entries for v in att.attaining_vertices} == {
        qv(1, 0).entries, qv(0, 1).entries}
    assert order_of_smoothness(t).index == 4
    assert index_of_smoothness(t, list(att.attaining_vertices)) == 4


def test_single_smooth_attaining_vertex_gives_one():
    # e1 maps to a facet-interior point, e2 deep inside the ball
    t = LinearOperator(ell1(2), ellinf(2),
                       Matrix.from_columns([qv(1, Fraction(1, 2)), qv(Fraction(1, 4), 0)]))
    att = operator_norm_and_attainment(t)
    assert [v.entries for v in att.attaining_vertices] == [qv(1, 0).entries]
    assert index_of_smoothness(t, [qv(1, 0)]) == 1


def test_zero_operator_rejected():
    t = LinearOperator(ell1(2), ellinf(2), Matrix.from_columns([qv(0, 0), qv(0, 0)]))
    with pytest.raises(ZeroOperatorError):
        operator_norm_and_attainment(t)
    # the memo keeps no failure: every read scans again and raises again
    for read in [lambda: t.attainment, t.normalized, lambda: order_of_smoothness(t)] * 2:
        with pytest.raises(ZeroOperatorError):
            read()
        assert "attainment" not in vars(t)


def test_order_requires_unit_norm():
    t = LinearOperator(ell1(2), ellinf(2), Matrix.from_columns([qv(2, 2), qv(2, 2)]))
    # messages print scalars and vectors as literals
    with pytest.raises(NotUnitNormError, match=r"^operator norm is 2, not 1; rescale first$"):
        order_of_smoothness(t)
    with pytest.raises(NotUnitNormError, match=r"^operator norm is 2, not 1; rescale first$"):
        oracle_order_of_smoothness(t)
    assert order_of_smoothness(t.normalized()).index == 4


def test_index_requires_extreme_member():
    t = LinearOperator(ell1(2), ellinf(2), Matrix.from_columns([qv(1, 1), qv(1, 1)]))
    with pytest.raises(EmptyExtremeIntersectionError):
        index_of_smoothness(t, [qv(Fraction(1, 2), Fraction(1, 2))])
    with pytest.raises(NotUnitNormError, match=r"^R member \(2,0\) is not unit norm$"):
        index_of_smoothness(t, [qv(2, 0)])


def test_sign_invariance_of_index():
    rng = random.Random(99)
    for _ in range(10):
        x = random_space(rng.randrange(2 ** 30), 2, 3)
        y = random_space(rng.randrange(2 ** 30), 3, 4)
        t = _random_unit_operator(rng, x, y)
        att = operator_norm_and_attainment(t)
        reps = list(att.attaining_vertices)
        doubled = reps + [-v for v in reps]
        assert index_of_smoothness(t, doubled) == index_of_smoothness(t, reps)


def test_attaining_representatives_are_lex_positive():
    rng = random.Random(41)
    for _ in range(10):
        x = random_space(rng.randrange(2 ** 30), 3, 4)
        y = random_space(rng.randrange(2 ** 30), 2, 3)
        t = _random_unit_operator(rng, x, y)
        for v in operator_norm_and_attainment(t).attaining_vertices:
            assert v == sign_canonical(v)


def test_oracle_equals_index_on_quadratic_field(bundled):
    assert oracle_order_of_smoothness(bundled) == \
        index_of_smoothness(bundled,
                            list(operator_norm_and_attainment(bundled).attaining_vertices))


def test_order_equivalence_random_quadratic_operators():
    # the two routes agree over the quadratic field as well
    rng = random.Random(83)
    domain = paper_example_space()
    codomain = ellinf(3, K)
    for _ in range(10):
        entries = [[QuadScalar(Fraction(rng.randint(-2, 2), rng.randint(1, 2)),
                               Fraction(rng.randint(-1, 1), rng.randint(1, 2)))
                    for _ in range(3)] for _ in range(3)]
        if not any(any(e for e in row) for row in entries):
            continue
        t = LinearOperator(domain, codomain, Matrix(entries, K)).normalized()
        report = order_of_smoothness(t)
        assert report.index == report.oracle_order
        assert report.min_bound <= report.index


def test_ell1_domain_order_equals_product_point_smoothness():
    # the operator's order equals the smoothness of the image tuple in the
    # max-product of codomain copies (one per domain basis vector)
    rng = random.Random(17)
    for codomain_builder, n in [(lambda: ellinf(2), 2), (lambda: ellinf(2), 3),
                                (lambda: ell1(2), 2), (lambda: ell1(3), 2)]:
        domain = ell1(n)
        codomain = codomain_builder()
        for _ in range(6):
            t = _random_unit_operator(rng, domain, codomain)
            tuple_point = Vector(
                [e for j in range(n) for e in t.apply(Vector.basis(j, n, Q)).entries], Q)
            prod = product_space([codomain] * n)
            assert order_of_smoothness(t).index == point_smoothness(prod, tuple_point)


def test_ell1_isometric_to_ellinf_nm():
    # domain ell1(n), codomain ellinf(m): order = smoothness in ellinf(n*m)
    rng = random.Random(29)
    domain, codomain = ell1(2), ellinf(3)
    big = ellinf(6)
    for _ in range(6):
        t = _random_unit_operator(rng, domain, codomain)
        tuple_point = Vector(
            [e for j in range(2) for e in t.apply(Vector.basis(j, 2, Q)).entries], Q)
        assert order_of_smoothness(t).index == point_smoothness(big, tuple_point)


def test_rank1_admissible_orders_examples():
    assert rank1_admissible_orders(3, 3) == [1, 2, 3, 4, 6, 9]
    assert rank1_forbidden_primes(rank1_admissible_orders(3, 3)) == {5, 7}
    assert rank1_admissible_orders(2, 2) == [1, 2, 4]
    assert 3 not in rank1_admissible_orders(2, 2)  # no rank-1 in an edge interior
    assert rank1_admissible_orders(1, 4) == [1, 2, 3, 4]
    assert rank1_forbidden_primes(rank1_admissible_orders(1, 4)) == set()


def test_rank1_random_law():
    rng = random.Random(53)
    for _ in range(15):
        x = random_space(rng.randrange(2 ** 30), rng.randint(2, 3), 4)
        y = random_space(rng.randrange(2 ** 30), rng.randint(2, 3), 4)
        t = _random_rank1_operator(rng, x, y)
        assert t.rank() == 1
        att = operator_norm_and_attainment(t)
        report = order_of_smoothness(t)
        image = t.apply(att.attaining_vertices[0])
        assert report.index == len(att.basis_indices) * point_smoothness(y, image)
        assert report.index in rank1_admissible_orders(x.dim, y.dim)


def test_construct_face_operator_edge_case():
    x_space, y_space = ell1(3), ellinf(2)
    edge = minimal_face(x_space.ball, qv(Fraction(1, 2), Fraction(1, 2), 0))
    t = construct_face_operator(x_space, edge, y_space, qv(1, 1))
    report = order_of_smoothness(t)
    assert report.index == 4


def test_construct_face_operator_vertex_to_facet_interior():
    x_space, y_space = ell1(3), ellinf(2)
    vertex = minimal_face(x_space.ball, qv(1, 0, 0))
    t = construct_face_operator(x_space, vertex, y_space, qv(1, Fraction(1, 2)))
    assert order_of_smoothness(t).index == 1


def test_construct_face_operator_all_admissible_orders():
    x_space, y_space = ell1(3), ellinf(3)
    targets = {1: qv(1, Fraction(1, 2), 0), 2: qv(1, 1, 0), 3: qv(1, 1, 1)}
    for p in (1, 2, 3):
        face = enumerate_faces(x_space.ball, p - 1)[0]
        for q in (1, 2, 3):
            t = construct_face_operator(x_space, face, y_space, targets[q])
            assert order_of_smoothness(t).index == p * q


def test_construct_face_operator_rejects_bad_input():
    x_space, y_space = ell1(3), ellinf(2)
    edge = minimal_face(x_space.ball, qv(Fraction(1, 2), Fraction(1, 2), 0))
    with pytest.raises(NotUnitNormError, match=r"^target point \(2,0\) is not unit norm$"):
        construct_face_operator(x_space, edge, y_space, qv(2, 0))


@pytest.mark.parametrize("active, dim", [
    ({0, 3}, 1),   # two facets of one vertex of ell1:3: rank 2, but no edge
    (set(), 2),    # no facet
    ({99}, 2),     # an unknown facet
    ({0}, 1),      # a facet given the wrong dimension
], ids=["two-facets-of-a-vertex", "empty", "unknown-index", "wrong-dim"])
def test_construct_face_operator_rejects_non_faces(active, dim):
    with pytest.raises(NotProperFaceError):
        construct_face_operator(ell1(3), FaceDescriptor(frozenset(active), dim),
                                ellinf(2), qv(1, 1))


def _mean_facet_functional(space, face):
    functionals = [space.ball.functionals[j] for j in face.active_set]
    total = functionals[0]
    for f in functionals[1:]:
        total = total + f
    return total.scale(space.field.one / space.field.from_int(len(functionals)))


@pytest.mark.parametrize("x_space, y_space, targets", [
    (ell1(3), ellinf(2), [qv(1, 1), qv(1, -1), qv(1, Fraction(1, 2)), qv(1, 0)]),
    (ellinf(3), ellinf(2), [qv(1, 1), qv(-1, 1), qv(Fraction(-1, 3), 1), qv(0, 1)]),
    (paper_example_space(), ellinf(3, K),
     [kv(1, 1, 1), kv(1, -1, 1), kv(1, 0, 0), kv(INV_SQRT2, 1, 0)]),
], ids=["ell1:3", "ellinf:3", "paper-example"])
def test_construct_face_operator_solves_the_completion_equations(x_space, y_space, targets):
    # T b = u on every face vertex and T k = 0 on the kernel of the mean facet
    # functional: the equations that determine T uniquely
    zero = Vector.zero(y_space.dim, y_space.field)
    for k in range(x_space.dim):
        for face in enumerate_faces(x_space.ball, k):
            kernel = nullspace(Matrix([list(_mean_facet_functional(x_space, face))],
                                      x_space.field))
            assert len(kernel) == x_space.dim - 1
            for u in targets:
                t = construct_face_operator(x_space, face, y_space, u)
                assert t.rank() == 1
                assert all(t.apply(b) == u for b in x_space.ball.face_vertices(face))
                assert all(t.apply(v) == zero for v in kernel)


def test_min_bound_from_remark():
    # a domain with independent attaining vertices: order is the sum of the
    # image smoothness orders
    t = LinearOperator(ell1(2), ellinf(2),
                       Matrix.from_columns([qv(1, 1), qv(1, Fraction(1, 2))]))
    report = order_of_smoothness(t)
    assert {v.entries for v in report.attainment.attaining_vertices} == {
        qv(1, 0).entries, qv(0, 1).entries}
    assert report.index == 2 + 1
    assert report.min_bound == report.index


@pytest.mark.parametrize("build, dims", [
    (lambda: (random_space(2, 5, 15), random_space(3, 5, 15)), (5, 5)),
    (lambda: (paper_example_space(), paper_example_space()), (3, 3)),
], ids=["random-5-to-5", "paper-example"])
def test_face_operator_index_on_large_coefficients_is_fast(build, dims):
    # from a facet to a vertex the order is d_X * d_Y; on the d = 5 balls the
    # coefficient rows over the solves' dets reach thousands of bits, and the
    # index ranks their gcd-primitive rows instead
    x_space, y_space = build()
    facet = enumerate_faces(x_space.ball, x_space.dim - 1)[0]
    u = y_space.ball.vertices[0]
    started = time.perf_counter()
    _, report = face_operator_and_order(x_space, facet, y_space, u)
    elapsed = time.perf_counter() - started
    assert report.index == report.oracle_order == dims[0] * dims[1]
    assert elapsed < 5.0, elapsed
