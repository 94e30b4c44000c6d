import random
from collections import Counter
from fractions import Fraction

import pytest

from ksmooth.errors import (
    DimensionMismatchError,
    InternalInconsistencyError,
    NotIndependentError,
    NotUnitNormError,
    SubspaceMembershipError,
)
from ksmooth import polytope
from ksmooth.linalg import Vector, rank_of_vectors
from ksmooth.lp import lp_feasible
from ksmooth.orthogonality import (
    Subspace,
    _annihilating_witness,
    _bracket_witness,
    _relint_sample,
    _verify_witness,
    bj_subspace_subspace,
    bj_subspace_vector,
    bj_vector_subspace,
    bj_vector_vector,
    is_best_coapproximation,
    is_strong_auerbach,
)
from ksmooth.polytope import enumerate_faces, faces_meeting, minimal_face
from ksmooth.scalars import _FIELD_OPS, FieldTag, QuadScalar, clear_denominators
from ksmooth.selftest import _bj_breakpoint_oracle
from ksmooth.spaces import (
    ell1,
    ellinf,
    norm,
    normalized,
    paper_example_space,
    random_space,
    support_facets,
)

Q = FieldTag.RATIONAL
K = FieldTag.QUAD_SQRT2


def qv(*entries):
    return Vector(entries, Q)


def basis_vectors(n):
    return [Vector.basis(i, n, Q) for i in range(n)]


def test_vector_vector_bracketing():
    verdict = bj_vector_vector(ellinf(2), qv(1, 1), qv(1, -1))
    assert verdict
    w = verdict.witnesses[0]
    assert w.functional.dot(qv(1, -1)) == 0
    assert w.functional.dot(qv(1, 1)) == 1


def test_ell1_standard_basis_orthogonal():
    assert bj_vector_vector(ell1(2), qv(1, 0), qv(0, 1))


def test_anything_orthogonal_to_zero():
    assert bj_vector_vector(ellinf(2), qv(1, 1), qv(0, 0))


def test_requires_unit_norm():
    with pytest.raises(NotUnitNormError):
        bj_vector_vector(ellinf(2), qv(2, 0), qv(0, 1))


def test_asymmetry_witness():
    space = ellinf(2)
    assert bj_vector_vector(space, qv(1, 1), qv(1, 0))
    assert not bj_vector_vector(space, qv(1, 0), qv(1, 1))


def test_homogeneity():
    rng = random.Random(61)
    space = random_space(3100, 2, 3)
    for _ in range(30):
        x = normalized(space, qv(Fraction(rng.randint(-4, 4), rng.randint(1, 3)),
                                 Fraction(rng.randint(1, 4), rng.randint(1, 3))))
        y = qv(rng.randint(-3, 3), rng.randint(-3, 3))
        c = Fraction(rng.randint(1, 5), rng.randint(1, 5)) * rng.choice([1, -1])
        assert bool(bj_vector_vector(space, x, y)) == \
            bool(bj_vector_vector(space, x, y.scale(c)))


def test_vector_subspace_examples():
    l13 = ell1(3)
    assert bj_vector_subspace(l13, qv(1, 0, 0),
                              Subspace.span(l13, [qv(0, 1, 0), qv(0, 0, 1)]))
    li2 = ellinf(2)
    verdict = bj_vector_subspace(li2, qv(1, 1), Subspace.span(li2, [qv(1, -1)]))
    assert verdict
    assert verdict.witnesses[0].functional == qv(Fraction(1, 2), Fraction(1, 2))
    assert not bj_vector_subspace(li2, qv(1, 1),
                                  Subspace.span(li2, [qv(1, 0), qv(0, 1)]))


def test_subspace_vector_examples():
    l13 = ell1(3)
    assert bj_subspace_vector(l13, Subspace.span(l13, [qv(1, 0, 0), qv(0, 1, 0)]),
                              qv(0, 0, 1))
    li2 = ellinf(2)
    assert bj_subspace_vector(li2, Subspace.span(li2, [qv(1, 1)]), qv(1, -1))
    assert bj_subspace_vector(li2, Subspace.span(li2, [qv(1, 0)]), qv(0, 1))
    assert bj_subspace_vector(li2, Subspace.span(li2, [qv(1, 0)]), qv(0, 0))
    assert not bj_subspace_vector(li2, Subspace.span(li2, [qv(1, 0)]), qv(1, 1))


def test_subspace_subspace():
    l13 = ell1(3)
    assert bj_subspace_subspace(
        l13, Subspace.span(l13, [qv(1, 0, 0), qv(0, 1, 0)]),
        Subspace.span(l13, [qv(0, 0, 1)]))
    li2 = ellinf(2)
    assert not bj_subspace_subspace(
        li2, Subspace.span(li2, [qv(1, 0)]), Subspace.span(li2, [qv(1, 1)]))


def _kv(*entries):
    return Vector([QuadScalar(e) for e in entries], K)


def test_witnesses_verified_exactly():
    l13, pe = ell1(3), paper_example_space()
    e1, e2, e3 = basis_vectors(3)
    k1, k2, k3 = _kv(1, 0, 0), _kv(0, 1, 0), _kv(0, 0, 1)
    cases = [  # bracket witnesses, then LP witnesses, over both fields
        (l13, bj_subspace_vector(l13, Subspace.span(l13, [e1, e2]), e3), [e3]),
        (pe, bj_vector_vector(pe, k3, k1), [k1]),
        (pe, bj_subspace_vector(pe, Subspace.span(pe, [k3]), k1), [k1]),
        (l13, bj_subspace_subspace(l13, Subspace.span(l13, [e1, e2]),
                                   Subspace.span(l13, [e3])), [e3]),
        (l13, bj_vector_subspace(l13, qv(1, 0, 0), Subspace.span(l13, [e2, e3])), [e2, e3]),
        (pe, bj_vector_subspace(pe, k3, Subspace.span(pe, [k1, k2])), [k1, k2]),
    ]
    for space, verdict, vanish_on in cases:
        assert verdict.witnesses
        one, zero = space.field.one, space.field.zero
        for w in verdict.witnesses:
            combination = Vector.zero(space.dim, space.field)
            for c, f in zip(w.coefficients, w.extremes, strict=True):
                combination = combination + f.scale(c)
            assert w.functional == combination
            assert w.functional.dot(w.point) == one
            assert all(w.functional.dot(y) == zero for y in vanish_on)
            assert max(w.functional.dot(v) for v in space.ball.vertices) == one
            assert sum(w.coefficients, zero) == one
            assert all(c >= zero for c in w.coefficients)


@pytest.mark.parametrize("point, named, weights, message", [
    ((0, 1), "ab", (Fraction(1, 2), Fraction(1, 2)), "does not support its point"),
    ((1, 0), "ab", (2, -1), "is not norm one"),
    ((1, 0), "ab", (1, 0), "fails to vanish"),
    ((1, 0), "aba", (1, Fraction(1, 2), Fraction(-1, 2)), "coefficients not convex"),
    ((1, 0), "abcd", (Fraction(3, 4), Fraction(3, 4), Fraction(1, 4), Fraction(1, 4)),
     "do not sum to one"),
], ids=["support", "norm", "vanish", "convex", "sum"])
def test_witness_check_rejects_each_failure(point, named, weights, message):
    # each combination passes every check before the one it breaks; the
    # check reads only the ball, so a wrong LP answer cannot pass it
    # weights are handed over cleared, as integers over their lcm denominator
    space = ell1(2)
    ball = space.ball
    facet = {name: ball.functionals.index(qv(*f)) for name, f in
             zip("abcd", [(1, 1), (1, -1), (-1, 1), (-1, -1)])}
    [cleared], q = clear_denominators([[Fraction(c) for c in weights]], Q)
    with pytest.raises(InternalInconsistencyError, match=message):
        _verify_witness(space, ball.clear([qv(*point)]), [facet[n] for n in named],
                        cleared, q, ball.clear([qv(0, 1)]))
    [half], q = clear_denominators([[Fraction(1, 2)] * 2], Q)
    assert _verify_witness(space, ball.clear([qv(1, 0)]), [facet["a"], facet["b"]],
                           half, q, ball.clear([qv(0, 1)])).functional == qv(1, 0)


def test_subspace_of_another_space_is_rejected():
    # the section walk once truncated the basis to the ball's dimension
    with pytest.raises(DimensionMismatchError):
        bj_subspace_vector(ell1(2), Subspace(ell1(3), (qv(1, 1, 0),)), qv(1, 0))


def test_best_coapproximation():
    l13 = ell1(3)
    sub = Subspace.span(l13, [qv(1, 0, 0), qv(0, 1, 0)])
    assert is_best_coapproximation(l13, qv(1, 1, 0), qv(1, 1, 0), sub)
    assert is_best_coapproximation(l13, qv(1, 1, 1), qv(1, 1, 0), sub)
    li2 = ellinf(2)
    assert is_best_coapproximation(li2, qv(1, 0), qv(Fraction(1, 2), Fraction(1, 2)),
                                   Subspace.span(li2, [qv(1, 1)]))
    with pytest.raises(SubspaceMembershipError):
        is_best_coapproximation(l13, qv(1, 1, 1), qv(0, 0, 1), sub)


def test_strong_auerbach_standard_bases():
    assert is_strong_auerbach(ell1(3), basis_vectors(3))
    assert is_strong_auerbach(ellinf(2), [qv(1, 1), qv(1, -1)])
    assert not is_strong_auerbach(ellinf(2), [qv(1, 1), qv(1, 0)])


def test_strong_auerbach_validation():
    with pytest.raises(NotUnitNormError):
        is_strong_auerbach(ell1(2), [qv(1, 1), qv(1, 0)])
    with pytest.raises(NotIndependentError):
        is_strong_auerbach(ellinf(2), [qv(1, 1), qv(-1, -1)])
    # fewer than dim vectors leave no proper subset to test: not vacuously true
    for basis in ([], [qv(1, 0, 0)]):
        with pytest.raises(DimensionMismatchError, match="has 3 vectors"):
            is_strong_auerbach(ell1(3), basis)
    assert is_strong_auerbach(ell1(1), [qv(1)])


def test_agrees_with_breakpoint_oracle():
    rng = random.Random(71)
    for case in range(60):
        space = random_space(4000 + case % 7, rng.randint(2, 3), 4)
        raw = Vector([Fraction(rng.randint(-4, 4), rng.randint(1, 3))
                      for _ in range(space.dim)], Q)
        if raw.is_zero():
            continue
        x = normalized(space, raw)
        y = Vector([Fraction(rng.randint(-4, 4), rng.randint(1, 3))
                    for _ in range(space.dim)], Q)
        assert bool(bj_vector_vector(space, x, y)) == _bj_breakpoint_oracle(space, x, y)


def test_quadratic_field_strong_auerbach():
    # the ambient basis of the octagonal bipyramid space: every singleton
    # sub-span admits the averaged functional (a coordinate functional) as
    # its annihilating support, and the mixed planes meet only vertices and
    # apex edges whose active functionals average to coordinate functionals
    space = paper_example_space()
    basis = [Vector([QuadScalar(1), QuadScalar(0), QuadScalar(0)], K),
             Vector([QuadScalar(0), QuadScalar(1), QuadScalar(0)], K),
             Vector([QuadScalar(0), QuadScalar(0), QuadScalar(1)], K)]
    assert is_strong_auerbach(space, basis)


def test_quadratic_field_orthogonality():
    # the apex direction is orthogonal to the equator and vice versa in the
    # octagonal bipyramid; witnesses stay exact over the quadratic field
    space = paper_example_space()
    e1 = Vector([QuadScalar(1), QuadScalar(0), QuadScalar(0)], K)
    e3 = Vector([QuadScalar(0), QuadScalar(0), QuadScalar(1)], K)
    verdict = bj_vector_vector(space, e1, e3)
    assert verdict
    w = verdict.witnesses[0]
    assert w.functional.dot(e3) == K.zero
    assert w.functional.dot(e1) == K.one
    assert bj_vector_vector(space, e3, e1)
    assert _bj_breakpoint_oracle(space, e1, e3)
    assert _bj_breakpoint_oracle(space, e3, e1)


def test_definition_via_norm_inequality_spot_check():
    # x perp y means ||x + t y|| >= 1 for every t; scan a small grid
    space = ellinf(2)
    x, y = qv(1, 1), qv(1, -1)
    assert bj_vector_vector(space, x, y)
    for num in range(-12, 13):
        t = Fraction(num, 4)
        assert norm(space, x + y.scale(t)) >= 1


def _lp_faces_meeting(space, sub):
    """The reference route: one slack-maximising LP per ball face whose
    vertex span meets the subspace beyond the origin."""
    for dim in range(space.dim):
        for face in enumerate_faces(space.ball, dim):
            verts = space.ball.face_vertices(face)
            if rank_of_vectors(list(sub.basis) + verts) == \
                    len(sub.basis) + rank_of_vectors(verts):
                continue
            point = _relint_sample(space, face, sub.basis)
            if point is not None:
                yield face, point


def _random_subspace(rng, space, r):
    while True:
        basis = [Vector([Fraction(rng.randint(-4, 4), rng.randint(1, 3))
                         for _ in range(space.dim)], Q) for _ in range(r)]
        if rank_of_vectors(basis) == r:
            return Subspace.span(space, basis)


def _section_cases():
    rng = random.Random(83)
    for case in range(10):
        space = random_space(5200 + case, 2 + case % 2, 4)
        r = 2 if case in (5, 7, 9) else 1
        yield space, _random_subspace(rng, space, r)
    for space in (ellinf(2), ell1(3)):
        yield space, Subspace.span(space, basis_vectors(space.dim))
    space = paper_example_space()
    for i in range(3):
        yield space, Subspace.span(space, [Vector.basis(i, 3, K)])
    # bases with r2 and denominators, so the integer restriction runs over a
    # scale other than the ball's: an equatorial line, on which each facet
    # (a, b, 1) restricts to the same row as its mirror (a, b, -1), and a plane
    half, third = Fraction(1, 2), Fraction(1, 3)
    yield space, Subspace.span(space, [Vector([half, QuadScalar(0, third), 0], K)])
    yield space, Subspace.span(space, [Vector([1, QuadScalar(0, half), third], K),
                                       Vector([0, QuadScalar(half, 1), -third], K)])


def test_section_walk_matches_lp_route():
    for space, sub in _section_cases():
        walk = [(face, at.vectors[0]) for face, at in faces_meeting(space.ball, sub.basis)]
        reference = list(_lp_faces_meeting(space, sub))
        assert [face for face, _ in walk] == [face for face, _ in reference]
        if len(sub.basis) == 1:
            # a line meets each face in a single point
            assert walk == reference
        for face, point in walk:
            assert sub.contains(point)
            assert minimal_face(space.ball, point).active_set == face.active_set


# witnesses as "functional|coefficients": a feasibility LP may return any
# feasible point, so these pin the ones the simplex returns
PINNED_WITNESSES = {
    "ell1": (
        '1,0,0|0,1/2,1/2,0', '-1,0,0|0,1/2,1/2,0', '0,1,0|0,1/2,1/2,0',
        '0,-1,0|0,1/2,1/2,0', '1,1,0|1/2,1/2,0,0', '1,1,0|1/2,1/2,0,0',
        '1,-1,0|1/2,1/2,0,0', '-1,1,0|1/2,1/2,0,0', '1,1,0|1/2,1/2',
        '1,-1,0|1/2,1/2', '-1,1,0|1/2,1/2', '-1,-1,0|1/2,1/2', '0,0,1|0,1/2,1/2,0',
        '0,0,-1|0,1/2,1/2,0', '1,0,1|1/2,0,1/2,0', '1,0,1|1/2,1/2,0,0',
        '1,0,-1|1/2,1/2,0,0', '-1,0,1|1/2,0,1/2,0', '1,0,1|1/2,1/2',
        '1,0,-1|1/2,1/2', '-1,0,1|1/2,1/2', '-1,0,-1|1/2,1/2', '0,1,1|1/2,0,1/2,0',
        '0,1,1|1/2,0,1/2,0', '0,1,-1|1/2,0,1/2,0', '0,-1,1|1/2,0,1/2,0',
        '0,1,1|1/2,1/2', '0,1,-1|1/2,1/2', '0,-1,1|1/2,1/2', '0,-1,-1|1/2,1/2',
    ),
    "ellinf": (
        '-1,0,0|1', '1,0,0|1', '0,-1,0|1', '0,1,0|1', '0,-1,0|1,0', '0,-1,0|1,0',
        '-1,0,0|1,0', '1,0,0|1,0', '0,-1,0|1', '-1,0,0|1', '1,0,0|1', '0,1,0|1',
        '0,0,-1|1', '0,0,1|1', '0,0,-1|1,0', '0,0,-1|1,0', '-1,0,0|1,0',
        '1,0,0|1,0', '0,0,-1|1', '-1,0,0|1', '1,0,0|1', '0,0,1|1', '0,0,-1|1,0',
        '0,0,-1|1,0', '0,-1,0|1,0', '0,1,0|1,0', '0,0,-1|1', '0,-1,0|1', '0,1,0|1',
        '0,0,1|1',
    ),
    "quad": ('0,0,1|1/2,1/2,0,0,0,0,0,0',),
}


def _pinned(verdict):
    assert verdict
    return tuple(",".join(map(str, w.functional.entries)) + "|"
                 + ",".join(map(str, w.coefficients)) for w in verdict.witnesses)


def test_witnesses_pinned():
    # every LP witness is the one the simplex has always returned
    assert _pinned(is_strong_auerbach(ell1(3), basis_vectors(3))) == PINNED_WITNESSES["ell1"]
    assert _pinned(is_strong_auerbach(ellinf(3), basis_vectors(3))) == \
        PINNED_WITNESSES["ellinf"]
    space = paper_example_space()
    e = [Vector.basis(i, 3, K) for i in range(3)]
    verdict = bj_vector_subspace(space, e[2], Subspace.span(space, [e[0]]))
    assert _pinned(verdict) == PINNED_WITNESSES["quad"]


# The field-arithmetic references of the integer witness routes: the
# bracket on field values f_j(y) with field division, the LP on field rows
# through lp_feasible, and the witness combined and checked on field vectors.

def _field_bracket(space, facets, y):
    zero, one = space.field.zero, space.field.one
    values = [space.ball.functionals[j].dot(y) for j in facets]
    coeffs = [zero] * len(facets)
    for i, val in enumerate(values):
        if val == zero:
            coeffs[i] = one
            return coeffs
    pos = next(((i, v) for i, v in enumerate(values) if v > zero), None)
    neg = next(((i, v) for i, v in enumerate(values) if v < zero), None)
    if pos is None or neg is None:
        return None
    (ip, vp), (iq, vn) = pos, neg
    coeffs[ip] = -vn / (vp - vn)
    coeffs[iq] = vp / (vp - vn)
    return coeffs


def _field_lp(space, facets, targets):
    field, functionals = space.field, space.ball.functionals
    rows = [[field.one] * len(facets)] + [[functionals[j].dot(w) for j in facets]
                                          for w in targets]
    return lp_feasible(rows, [field.one] + [field.zero] * len(targets), field)


def _field_witness(space, point, facets, coefficients, targets):
    zero, one = space.field.zero, space.field.one
    functional = Vector.zero(space.dim, space.field)
    for c, j in zip(coefficients, facets, strict=True):
        functional = functional + space.ball.functionals[j].scale(c)
    assert functional.dot(point) == one
    assert max(functional.dot(v) for v in space.ball.vertices) == one
    assert all(functional.dot(w) == zero for w in targets)
    assert all(c >= zero for c in coefficients) and sum(coefficients, zero) == one
    return functional


def _draw(rng, field, dim):
    def entry():
        a = Fraction(rng.randint(-3, 3), rng.randint(1, 3))
        b = Fraction(rng.randint(-2, 2), rng.randint(1, 2))
        return a if field is Q else QuadScalar(a, b)
    return Vector([entry() for _ in range(dim)], field)


def _reference_cases():
    """Seeded (space, face, point on its relative interior) triples."""
    rng = random.Random(97)
    spaces = [make(d) for make in (ell1, ellinf) for d in (2, 3, 4)]
    spaces += [random_space(6100 + k, 2 + k % 3, 5) for k in range(4)]
    spaces.append(paper_example_space())
    for space in spaces:
        ball = space.ball
        faces = [face for dim in range(space.dim) for face in enumerate_faces(ball, dim)]
        for face in rng.sample(faces, min(len(faces), 14)):
            verts = ball.face_vertices(face)
            point = sum(verts[1:], verts[0]).scale(space.field.one / len(verts))
            yield rng, space, face, point


def _matches(found, point, facets, expected, space, targets):
    """Whether an integer-route witness (or None) is the reference one."""
    if expected is None:
        return found is None
    functional = _field_witness(space, point, facets, expected, targets)
    return (found.point, found.functional, found.coefficients) == (
        point, functional, tuple(expected))


def test_integer_witness_routes_match_field_references():
    # every face gets a target in the face's own directions (a witness of
    # weight one or a zero-valued bracket) and random targets, over Q and
    # Q(sqrt 2); both verdicts must occur on both routes
    verdicts = Counter()
    for rng, space, face, point in _reference_cases():
        ball, field = space.ball, space.field
        facets = sorted(face.active_set)
        verts = ball.face_vertices(face)
        along = verts[0] - verts[-1] if len(verts) > 1 else Vector.zero(space.dim, field)
        for y in (along, _draw(rng, field, space.dim), _draw(rng, field, space.dim)):
            found = _bracket_witness(space, ball.clear([point]), facets, ball.clear([y]))
            expected = _field_bracket(space, facets, y)
            assert _matches(found, point, facets, expected, space, [y]), (space.name, face, y)
            verdicts["bracket", expected is not None] += 1
        for targets in ([along], [_draw(rng, field, space.dim)],
                        [_draw(rng, field, space.dim) for _ in range(2)]):
            found = _annihilating_witness(space, ball.clear([point]), facets,
                                          ball.clear(targets))
            expected = _field_lp(space, facets, targets)
            assert _matches(found, point, facets, expected, space, targets), (space.name, face)
            verdicts["lp", expected is not None] += 1
    assert min(verdicts.values()) >= 20 and len(verdicts) == 4, verdicts


def _walk_cases():
    # random lines and targets, which mostly fail, and coordinate lines and
    # targets, which hold on every face
    rng = random.Random(98)
    for space in (ell1(3), ellinf(3), random_space(6200, 3, 5), paper_example_space()):
        for _ in range(6):
            yield (space, Subspace.span(space, [_draw(rng, space.field, space.dim)]),
                   [_draw(rng, space.field, space.dim)])
        e = [Vector.basis(i, space.dim, space.field) for i in range(space.dim)]
        if not space.name.startswith("random"):
            yield space, Subspace.span(space, e[2:]), [e[0]]
            yield space, Subspace.span(space, e[:2]), [e[2]]


def test_walk_verdicts_match_field_references():
    # the subspace walks against the same references run on faces_meeting
    verdicts = Counter()
    for space, v, targets in _walk_cases():
        for walk, route, target in ((bj_subspace_vector, _field_bracket, targets[0]),
                                    (bj_subspace_subspace, _field_lp, targets)):
            verdict = walk(space, v, target if route is _field_bracket
                           else Subspace.span(space, targets))
            expected = []
            for face, at in faces_meeting(space.ball, v.basis):
                point, facets = at.vectors[0], sorted(face.active_set)
                coefficients = route(space, facets, target)
                if coefficients is None:
                    assert not verdict and verdict.counterexample_point == point
                    break
                functional = _field_witness(space, point, facets, coefficients, targets)
                expected.append((point, functional, tuple(coefficients)))
            else:
                assert verdict
                assert [(w.point, w.functional, w.coefficients)
                        for w in verdict.witnesses] == expected
            verdicts[route.__name__, bool(verdict)] += 1
    assert min(verdicts.values()) >= 4 and len(verdicts) == 4, verdicts


def test_negative_norm_divisor_gives_a_positive_scale():
    # over Q(sqrt 2) a positive divisor such as -1 + r2 has negative norm:
    # its weights are taken times its conjugate and negated with the norm,
    # so the scale of the coefficient row comes out positive
    ops = _FIELD_OPS[K]
    w = (-1, 1)
    values = [(1, 0), (0, 1), (-3, 2), (0, 0)]
    row, scale = ops.over(values, w)
    assert scale > 0
    assert [ops.quotient(x, ops.lift(scale)) for x in ops.split(row)] == \
        [ops.quotient(x, w) for x in values]
    # the pinned witness (1/2, 1/2) of e3 against e1, handed over as
    # (w, w) over 2w = -2 + 2 r2 (norm -4)
    space = paper_example_space()
    e = [Vector.basis(i, 3, K) for i in range(3)]
    facets = support_facets(space, e[2])
    weights = [w, w] + [(0, 0)] * (len(facets) - 2)
    found = _verify_witness(space, space.ball.clear([e[2]]), facets, weights, (-2, 2),
                            space.ball.clear([e[0]]))
    assert (found.functional, found.coefficients[:2]) == (e[2], (K.one / 2, K.one / 2))


def test_negative_norm_divisors_from_both_routes_verify(monkeypatch):
    # a bracket gap and a last LP pivot of negative norm met on the bundled
    # example: the verdicts hold and their witnesses verify
    divisors = []
    original = polytope.Polytope.witness

    def recorded(self, facets, weights, divisor, point, targets):
        divisors.append(divisor)
        return original(self, facets, weights, divisor, point, targets)

    monkeypatch.setattr(polytope.Polytope, "witness", recorded)
    space = paper_example_space()
    f = Fraction
    line = Subspace.span(space, [Vector([QuadScalar(-3, 1), f(3, 2), 0], K)])
    z = Vector([QuadScalar(1, -2), QuadScalar(3, 2), QuadScalar(f(1, 2), 3)], K)
    assert bj_subspace_vector(space, line, z)
    x = normalized(space, Vector([QuadScalar(f(-27, 41), f(-4, 41)), 0,
                                  QuadScalar(f(14, 41), f(-4, 41))], K))
    w = Vector([f(3, 2), QuadScalar(3, 1), QuadScalar(1, f(1, 2))], K)
    verdict = bj_vector_subspace(space, x, Subspace.span(space, [w]))
    assert verdict
    assert verdict.witnesses[0].coefficients == tuple(_field_lp(
        space, support_facets(space, x), [w]))
    negative = [d for d in divisors if d[0] * d[0] < 2 * d[1] * d[1]]
    assert len(negative) >= 2 and divisors[-1] in negative, divisors
