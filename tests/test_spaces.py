import random
from fractions import Fraction

import pytest

from ksmooth.errors import InternalInconsistencyError, NotUnitNormError
from ksmooth.linalg import Vector
from ksmooth.polytope import Polytope
from ksmooth.scalars import FieldTag, INV_SQRT2, QuadScalar
from ksmooth.spaces import (
    ell1,
    ellinf,
    norm,
    normalized,
    paper_example_space,
    point_smoothness,
    product_space,
    random_space,
    support_set,
)

Q = FieldTag.RATIONAL
K = FieldTag.QUAD_SQRT2


def qv(*entries):
    return Vector(entries, Q)


def test_ell1_norm():
    assert norm(ell1(2), qv(3, -4)) == 7


def test_ellinf_norm():
    assert norm(ellinf(3), qv(1, -1, Fraction(1, 2))) == 1


def test_paper_vertex_is_unit():
    space = paper_example_space()
    x = Vector([INV_SQRT2, INV_SQRT2, QuadScalar(0)], K)
    assert norm(space, x) == K.one


def test_norm_zero_iff_zero():
    space = ell1(3)
    assert norm(space, qv(0, 0, 0)) == 0
    assert norm(space, qv(0, Fraction(1, 7), 0)) > 0


def test_norm_homogeneous_and_triangle():
    rng = random.Random(31)
    space = random_space(808, 3, 5)
    for _ in range(50):
        x = qv(*[Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(3)])
        y = qv(*[Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(3)])
        c = Fraction(rng.randint(-5, 5), rng.randint(1, 3))
        assert norm(space, x + y) <= norm(space, x) + norm(space, y)
        assert norm(space, x.scale(c)) == abs(c) * norm(space, x)


def test_support_set_ell1_vertex():
    sup = support_set(ell1(2), qv(1, 0))
    assert sorted(f.entries for f in sup.extreme_functionals) == [
        (Fraction(1), Fraction(-1)), (Fraction(1), Fraction(1))]
    assert sup.smoothness_order == 2


def test_support_set_facet_interior():
    sup = support_set(ell1(2), qv(Fraction(1, 2), Fraction(1, 2)))
    assert [f.entries for f in sup.extreme_functionals] == [(Fraction(1), Fraction(1))]
    assert sup.smoothness_order == 1


def test_support_set_cube_vertex():
    sup = support_set(ellinf(3), qv(1, 1, 1))
    assert sup.smoothness_order == 3


def test_support_set_requires_unit_norm():
    with pytest.raises(NotUnitNormError):
        support_set(ell1(2), qv(1, 1))


def test_point_smoothness_examples():
    assert point_smoothness(ellinf(3), qv(1, 1, 1)) == 3
    assert point_smoothness(ellinf(3), qv(1, 1, 0)) == 2
    assert point_smoothness(ell1(2), qv(Fraction(1, 2), Fraction(1, 2))) == 1


def test_point_smoothness_paper_apex():
    space = paper_example_space()
    apex = Vector([QuadScalar(0), QuadScalar(0), QuadScalar(1)], K)
    assert point_smoothness(space, apex) == 3


def test_point_smoothness_catches_a_tampered_incidence():
    # the face route counts ball vertices on the face (vertex_active); the
    # support route ranks facet functionals, which the tampering leaves alone
    space = ellinf(3)
    x = qv(1, 1, 0)
    assert point_smoothness(space, x) == 2
    every_facet = frozenset(range(len(space.ball.functionals)))
    object.__setattr__(space.ball, "vertex_active",
                       (every_facet,) * len(space.ball.vertices))
    assert support_set(space, x).smoothness_order == 2
    with pytest.raises(InternalInconsistencyError, match="by face dimension"):
        point_smoothness(space, x)


def test_point_smoothness_bounds():
    for seed in range(4):
        space = random_space(900 + seed, 3, 5)
        for v in space.ball.vertices:
            k = point_smoothness(space, v)
            assert 1 <= k <= space.dim


def test_builders():
    assert len(ell1(2).ball.vertices) == 4
    assert len(ellinf(2).ball.vertices) == 4
    assert sorted(v.entries for v in ellinf(2).ball.vertices) == sorted(
        v.entries for v in [qv(1, 1), qv(1, -1), qv(-1, 1), qv(-1, -1)])
    paper = paper_example_space()
    assert paper.dim == 3
    assert len(paper.ball.vertices) == 10
    assert paper.field is K


def test_duality_structure():
    space = ell1(3)
    polar = space.ball.polar()
    assert sorted(v.entries for v in polar.vertices) == sorted(
        f.entries for f in space.ball.functionals)
    assert sorted(f.entries for f in polar.functionals) == sorted(
        v.entries for v in space.ball.vertices)


def _count_polytope_builds(monkeypatch):
    calls = []
    original = Polytope.__init__

    def counting(self, *args, **kwargs):
        calls.append(args)
        original(self, *args, **kwargs)

    monkeypatch.setattr(Polytope, "__init__", counting)
    return calls


@pytest.mark.parametrize("build", [lambda: ell1(3), lambda: ellinf(3),
                                   paper_example_space,
                                   lambda: random_space(5, 3, 5)],
                         ids=["ell1:3", "ellinf:3", "paper-example", "random"])
def test_space_builds_its_ball_once(monkeypatch, build):
    calls = _count_polytope_builds(monkeypatch)
    build()
    assert len(calls) == 1


def test_product_space_validates_its_polar_once(monkeypatch):
    components = [ellinf(2), ell1(2)]
    calls = _count_polytope_builds(monkeypatch)
    product_space(components)
    assert len(calls) == 2


def test_normalized_helper():
    space = ell1(2)
    x = normalized(space, qv(3, -4))
    assert norm(space, x) == 1
    with pytest.raises(NotUnitNormError):
        point_smoothness(space, qv(3, -4))


def test_random_space_deterministic():
    a = random_space(77, 3, 5)
    b = random_space(77, 3, 5)
    assert [v.entries for v in a.ball.vertices] == [v.entries for v in b.ball.vertices]


def test_product_space_is_max_norm():
    prod = product_space([ellinf(2), ell1(2)])
    assert prod.dim == 4
    x = Vector([1, 1, Fraction(1, 2), 0], Q)
    assert norm(prod, x) == 1
    y = Vector([Fraction(1, 2), 0, 2, 0], Q)
    assert norm(prod, y) == 2


def test_product_space_vertex_smoothness_adds():
    prod = product_space([ellinf(2), ellinf(2)])
    x = Vector([1, 1, 1, -1], Q)
    assert point_smoothness(prod, x) == 4
