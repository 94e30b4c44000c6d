import random
from fractions import Fraction

import pytest

from ksmooth.errors import (
    GuardExceededError,
    NotFullDimensionalError,
    NotOnBoundaryError,
    NotSymmetricError,
)
from ksmooth.linalg import Vector, rank_of_vectors
import ksmooth.polytope as polytope
from ksmooth.polytope import (
    Polytope,
    canonicalize,
    count_faces,
    dual_vertices,
    enumerate_faces,
    minimal_face,
)
from ksmooth.scalars import FieldTag, INV_SQRT2, QuadScalar
from ksmooth.spaces import paper_example_space, random_space

Q = FieldTag.RATIONAL


def qv(*entries):
    return Vector(entries, Q)


def square():
    return [qv(1, 1), qv(1, -1), qv(-1, 1), qv(-1, -1)]


def cross(n=2):
    out = []
    for i in range(n):
        out.append(Vector.basis(i, n, Q))
        out.append(-Vector.basis(i, n, Q))
    return out


def cube(n):
    out = []
    for bits in range(2 ** n):
        out.append(qv(*[1 if bits & (1 << i) else -1 for i in range(n)]))
    return out


def test_square_to_cross_functionals():
    functionals = dual_vertices(square())
    assert sorted(f.entries for f in functionals) == sorted(
        v.entries for v in cross())


def test_cross_to_square_functionals():
    functionals = dual_vertices(cross())
    assert sorted(f.entries for f in functionals) == sorted(
        v.entries for v in square())


def test_dual_vertices_twice_returns_the_vertices():
    for points in (square(), cross(), cube(3)):
        vertices = canonicalize(points)
        back = dual_vertices(dual_vertices(vertices))
        assert sorted(v.entries for v in back) == sorted(
            v.entries for v in vertices)


def test_polarity_involution_on_random_spaces():
    for seed in range(6):
        space = random_space(100 + seed, 3, 5)
        again = dual_vertices(dual_vertices(space.ball.functionals))
        assert sorted(f.entries for f in again) == sorted(
            f.entries for f in space.ball.functionals)


def test_canonicalize_drops_hull_points():
    points = cross() + [qv(Fraction(1, 2), 0)]
    vertices = canonicalize(points)
    assert sorted(v.entries for v in vertices) == sorted(
        v.entries for v in cross())


def test_canonicalize_rejects_asymmetry():
    with pytest.raises(NotSymmetricError):
        canonicalize([qv(1, 0), qv(0, 1)])


def test_flat_input_fails_on_use():
    with pytest.raises(NotFullDimensionalError):
        Polytope.from_vertices([qv(1, 0), qv(-1, 0)])


def test_dimension_guard(monkeypatch):
    with pytest.raises(GuardExceededError):
        Polytope.from_vertices(
            [Vector.basis(i, 7, Q) for i in range(7)]
            + [-Vector.basis(i, 7, Q) for i in range(7)])
    monkeypatch.setenv("KSMOOTH_MAX_DIM", "7")
    p = Polytope.from_vertices(
        [Vector.basis(i, 7, Q) for i in range(7)]
        + [-Vector.basis(i, 7, Q) for i in range(7)])
    assert p.dim == 7


def test_minimal_face_cube_vertex():
    p = Polytope.from_vertices(cube(3))
    face = minimal_face(p, qv(1, 1, 1))
    assert face.dim == 0
    assert len(face.active_set) == 3


def test_minimal_face_edge_interior():
    p = Polytope.from_vertices(cross())
    face = minimal_face(p, qv(Fraction(1, 2), Fraction(1, 2)))
    assert face.dim == 1
    assert len(face.active_set) == 1


def test_minimal_face_requires_boundary():
    p = Polytope.from_vertices(cross())
    with pytest.raises(NotOnBoundaryError):
        minimal_face(p, qv(Fraction(1, 4), 0))
    with pytest.raises(NotOnBoundaryError):
        minimal_face(p, qv(2, 0))


def test_minimal_face_paper_vertex():
    space = paper_example_space()
    x = Vector([INV_SQRT2, INV_SQRT2, QuadScalar(0)], FieldTag.QUAD_SQRT2)
    assert minimal_face(space.ball, x).dim == 0


def test_face_counts_cube4():
    p = Polytope.from_vertices(cube(4))
    assert count_faces(p, 3) == 8
    assert count_faces(p, 0) == 16
    assert count_faces(p, 1) == 32
    assert count_faces(p, 2) == 24


def test_face_counts_octahedron():
    p = Polytope.from_vertices(cross(3))
    assert count_faces(p, 2) == 8


def test_face_counts_cross_polytope_4():
    # k-faces of the n-dimensional cross-polytope: C(n, k+1) * 2^(k+1)
    p = Polytope.from_vertices(cross(4))
    assert [count_faces(p, k) for k in range(4)] == [8, 24, 32, 16]


def test_faces_unique_and_dimensionally_consistent():
    p = Polytope.from_vertices(cube(3))
    for k in range(3):
        faces = enumerate_faces(p, k)
        assert len({f.active_set for f in faces}) == len(faces)
        for f in faces:
            functionals = [p.functionals[j] for j in f.active_set]
            assert p.dim - rank_of_vectors(functionals) == k


def test_euler_characteristic_random():
    for seed in range(5):
        space = random_space(7000 + seed, 3, 5)
        p = space.ball
        euler = sum((-1) ** i * count_faces(p, i) for i in range(p.dim))
        assert euler == 1 + (-1) ** (p.dim - 1)


def test_paper_conversion_incidences():
    # every vertex meets its incident facets with equality, all others strictly
    ball = paper_example_space().ball
    one = FieldTag.QUAD_SQRT2.one
    for v, active in zip(ball.vertices, ball.vertex_active):
        for j, f in enumerate(ball.functionals):
            value = f.dot(v)
            if j in active:
                assert value == one
            else:
                assert value < one
    assert len(ball.vertices) == 10
    assert len(ball.functionals) == 16


def test_dual_vertices_requires_symmetry():
    with pytest.raises(NotSymmetricError):
        dual_vertices([qv(1, 0), qv(0, 1)])


def test_boundary_grid_face_dims_match_rank():
    # dim(minimal_face(x)) = d - rank(active) on many boundary points
    rng = random.Random(23)
    space = random_space(555, 3, 5)
    p = space.ball
    for _ in range(40):
        raw = Vector([Fraction(rng.randint(-5, 5), rng.randint(1, 3))
                      for _ in range(3)], Q)
        if raw.is_zero():
            continue
        scale = max(f.dot(raw) for f in p.functionals)
        x = raw.scale(Q.one / scale)
        face = minimal_face(p, x)
        functionals = [p.functionals[j] for j in face.active_set]
        assert face.dim == p.dim - rank_of_vectors(functionals)


def test_dimension_guard_precedes_hull_lps(monkeypatch):
    monkeypatch.delenv("KSMOOTH_MAX_DIM", raising=False)

    def no_hull_lps(points):
        raise AssertionError("hull LPs ran before the dimension guard")

    monkeypatch.setattr(polytope, "canonicalize", no_hull_lps)
    points = [v for i in range(7) for v in (Vector.basis(i, 7, Q), -Vector.basis(i, 7, Q))]
    with pytest.raises(GuardExceededError, match="dimension 7 exceeds guard 6"):
        Polytope.from_vertices(points)
