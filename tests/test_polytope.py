import itertools
import json
import random
from fractions import Fraction
from functools import reduce
from operator import add
from pathlib import Path
import time

import pytest
from hypothesis import given, settings, strategies as st

from ksmooth.errors import (
    DimensionMismatchError,
    FieldMismatchError,
    GuardExceededError,
    NotFullDimensionalError,
    NotOnBoundaryError,
    NotProperFaceError,
    NotSymmetricError,
)
from ksmooth.files import load_space, space_from_document, space_to_document
from ksmooth.linalg import (
    Matrix,
    Vector,
    _entry,
    _rank_of_lists,
    _reduced,
    clear_denominators,
    from_cleared_row,
    rank_of_vectors,
    solve,
)
import ksmooth.lp as lp
from ksmooth.orthogonality import Subspace, bj_subspace_subspace, bj_subspace_vector
import ksmooth.polytope as polytope
import ksmooth.scalars as scalars
from ksmooth.polytope import (
    FaceDescriptor,
    Polytope,
    canonicalize,
    count_faces,
    enumerate_faces,
    faces_meeting,
    minimal_face,
)
from ksmooth.scalars import FieldTag, INV_SQRT2, QuadScalar, parse, serialize
from ksmooth.operators import paper_example_operator
from ksmooth.spaces import (
    ell1,
    ellinf,
    from_vertices,
    paper_example_space,
    point_smoothness,
    random_space,
    support_facets,
    support_functionals_at,
    support_set,
)

Q = FieldTag.RATIONAL
K = FieldTag.QUAD_SQRT2


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


def dual_vertices(points):
    """``polytope.dual_vertices`` on the cleared points, its rows read back as vectors."""
    field = points[0].field
    rows, tight, _ = polytope.dual_vertices(
        *clear_denominators((p.entries for p in points), field), field)
    F, D = scalars._FIELD_OPS[field].common(rows)
    return [from_cleared_row(f, D, field) for f in F], tight


def test_square_to_cross_functionals():
    functionals, _ = dual_vertices(square())
    assert sorted(f.entries for f in functionals) == sorted(
        v.entries for v in cross())


def test_cross_to_square_functionals():
    functionals, _ = dual_vertices(cross())
    assert sorted(f.entries for f in functionals) == sorted(
        v.entries for v in square())


def test_dual_vertices_twice_returns_the_vertices():
    for points in (square(), cross(), cube(3)):
        vertices = canonicalize(points)
        back, _ = dual_vertices(dual_vertices(vertices)[0])
        assert sorted(v.entries for v in back) == sorted(
            v.entries for v in vertices)


def test_polarity_involution_on_random_spaces():
    for seed in range(6):
        space = random_space(100 + seed, 3, 5)
        again, _ = dual_vertices(dual_vertices(space.ball.functionals)[0])
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


def test_canonicalize_rejects_flat_input():
    # flat and asymmetric: the spanning check comes first
    for points in ([qv(1, 0), qv(-1, 0)], [qv(1, 0), qv(-1, 0), qv(2, 0)]):
        with pytest.raises(NotFullDimensionalError):
            canonicalize(points)


def _cloud(rng, dim):
    """A symmetric rational cloud like the benchmark's: scaled axis points,
    random points and quarter-sums of two of them, which are not extreme."""
    half = [Vector.basis(i, dim, Q).scale(Fraction(rng.randint(2, 6), rng.randint(2, 5)))
            for i in range(dim)]
    for _ in range(dim + 2):
        p = qv(*[Fraction(rng.randint(-4, 4), rng.randint(1, 4)) for _ in range(dim)])
        if not p.is_zero():
            half.append(p)
    for _ in range(2):
        p, q = rng.sample(half, 2)
        half.append((p + q).scale(Fraction(1, 4)))
    return [s for p in half for s in (p, -p)]


def _quad_cloud(rng, dim):
    """A symmetric Q(sqrt 2) cloud: axis points scaled by ``a + b r2`` and
    random points with both parts random."""
    def scalar():
        return QuadScalar(Fraction(rng.randint(-3, 3), rng.randint(1, 3)),
                          Fraction(rng.randint(-2, 2), rng.randint(1, 3)))
    half = [Vector.basis(i, dim, K).scale(QuadScalar(Fraction(rng.randint(2, 5), 2),
                                                     Fraction(rng.randint(0, 2), 2)))
            for i in range(dim)]
    for _ in range(dim + 2):
        p = Vector([scalar() for _ in range(dim)], K)
        if not p.is_zero():
            half.append(p)
    return [s for p in half for s in (p, -p)]


def _face_centres(ball, dim):
    """The centre of every face of ``ball`` of dimension ``dim``: for ``dim``
    at least 1, boundary points that are not extreme."""
    return [reduce(add, members).scale(Fraction(1, len(members)))
            for members in map(ball.face_vertices, enumerate_faces(ball, dim))]


def _hull_lp_extremes(points):
    """The LP reference route: each distinct point outside the hull of the others."""
    unique = list({p.entries: p for p in points}.values())
    return [p for i, p in enumerate(unique)
            if not polytope.in_convex_hull(p, unique[:i] + unique[i + 1:])]


def _matches_hull_lp_route(points):
    """Compare ``canonicalize`` with the LP route; True if the extremes are symmetric."""
    expected = _hull_lp_extremes(points)
    try:
        polytope._negation_index(*clear_denominators(
            (p.entries for p in expected), expected[0].field), expected[0].field)
    except NotSymmetricError:
        with pytest.raises(NotSymmetricError):
            canonicalize(points)
        return False
    assert [p.entries for p in canonicalize(points)] == [p.entries for p in expected]
    return True


def test_canonicalize_matches_hull_lp_route():
    symmetric = []
    for dim in (2, 3, 4):
        for seed in range(6):
            rng = random.Random(f"{dim}:{seed}")
            points = _cloud(rng, dim)
            if seed % 3 == 1:  # interior points without their negations
                points += [p.scale(Fraction(1, 3)) for p in rng.sample(points, 2)]
            elif seed % 3 == 2:  # an extreme point without its negation
                points.append(max(points, key=lambda p: max(map(abs, p.entries))).scale(2))
            points += rng.sample(points, 3)  # repeats
            rng.shuffle(points)
            symmetric.append(_matches_hull_lp_route(points))
    assert symmetric == [seed % 3 != 2 for _ in (2, 3, 4) for seed in range(6)]

    # non-extreme points on the boundary: edge midpoints (active rank d-1)
    # and facet centres (active rank 1) of the cube
    for dim in (2, 3):
        rng = random.Random(dim)
        corners = cube(dim)
        points = corners + cross(dim) + [
            (p + q).scale(Fraction(1, 2)) for p in corners for q in corners
            if sum(a != b for a, b in zip(p.entries, q.entries)) == 1]
        rng.shuffle(points)
        assert _matches_hull_lp_route(points)
    # an edge midpoint of the 4-dimensional cross-polytope is tight on four
    # facets, as many as the dimension, but of rank 3: it is not extreme, as
    # both ends of its edge are tight on all four
    corners = cross(4)
    assert _matches_hull_lp_route(corners + [
        (p + q).scale(Fraction(1, 2)) for p, q in itertools.combinations(corners, 2)
        if not (p + q).is_zero()])

    half = Fraction(1, 2)
    ball = list(paper_example_space().ball.vertices)
    inner = [Vector([half, half, 0], K), Vector([-half, -half, 0], K),  # inside the ball
             Vector([half, 0, half], K), Vector([-half, 0, -half], K),  # on an edge
             Vector([0, 0, half], K)]  # no negation, inside
    assert _matches_hull_lp_route(inner[:1] + ball + inner[1:])
    assert not _matches_hull_lp_route(ball + [Vector([0, 0, 2], K)])

    # seeded Q(sqrt 2) clouds with edge midpoints, facet centres and repeats,
    # the second of each dimension with one extreme point whose negation is missing
    symmetric = []
    for dim in (2, 3):
        for seed in range(2):
            rng = random.Random(f"quad:{dim}:{seed}")
            cloud = _quad_cloud(rng, dim)
            ball = Polytope.from_vertices(cloud)
            points = cloud + rng.sample(cloud, 3) + [
                p for k in (1, dim - 1) for p in rng.sample(_face_centres(ball, k), 2)]
            if seed:
                points.append(max(cloud, key=lambda p: max(map(abs, p.entries))).scale(2))
            rng.shuffle(points)
            symmetric.append(_matches_hull_lp_route(points))
    assert symmetric == [True, False, True, False]


@settings(deadline=None, max_examples=30)
@given(st.sampled_from([Q, K]), st.integers(2, 3), st.integers(0, 2 ** 32),
       st.lists(st.sampled_from(["interior", "boundary", "repeat"]), min_size=1, max_size=6))
def test_non_extreme_points_leave_the_ball_unchanged(field, dim, seed, kinds):
    # appended points that are interior, on the boundary but not extreme, or
    # repeats change neither the vertices nor the functionals nor their order
    rng = random.Random(seed)
    cloud = _cloud(rng, dim) if field is Q else _quad_cloud(rng, dim)
    ball = Polytope.from_vertices(cloud)
    boundary = _face_centres(ball, 1) + _face_centres(ball, dim - 1)
    extra = []
    for kind in kinds:
        if kind == "interior":
            extra.append(rng.choice(cloud).scale(Fraction(rng.randint(0, 5), 6)))
        else:
            extra.append(rng.choice(boundary if kind == "boundary" else cloud))
    grown = Polytope.from_vertices(cloud + extra)
    assert grown.vertices == ball.vertices
    assert grown.functionals == ball.functionals


def test_construction_solves_no_lp(monkeypatch):
    def no_lp(*args, **kwargs):
        raise AssertionError("an LP ran while building a ball")

    monkeypatch.setattr(polytope, "lp_feasible", no_lp)
    monkeypatch.setattr(lp, "solve_lp", no_lp)
    with pytest.raises(AssertionError):
        polytope.in_convex_hull(qv(0, 0), cross())
    cloud = load_space(str(Path(__file__).parent / "golden" / "cloud3.json"))
    for space in (ell1(3), ellinf(3), paper_example_space(), random_space(5, 3, 8), cloud):
        assert len(space.ball.vertices) >= 2 * space.dim


def test_ball_build_reduces_each_slab_once(monkeypatch):
    # the first independent points and the parallelotope corners of a double
    # description pass come from one integer reduction, and the incidence
    # reads the cleared vertex rows with no rescan
    calls = {"_tight": 0, "_reduced": 0, "dual_vertices": 0}

    def counted(name):
        real = getattr(polytope, name)

        def wrapper(*args):
            calls[name] += 1
            return real(*args)
        return wrapper

    for name in calls:
        monkeypatch.setattr(polytope, name, counted(name))
    for space in (ell1(3), ellinf(4), paper_example_space(), random_space(5, 3, 8)):
        assert len(space.ball.vertex_active) == len(space.ball.vertices)
    assert calls["_tight"] == 0
    # one pass for each builtin ball; random_space(5, 3, 8) has a non-extreme
    # point among those that shaped its pass, so it runs a second
    assert calls["_reduced"] == calls["dual_vertices"] == 5


def count_single_passes(monkeypatch):
    """For every later ``Polytope.from_vertices``, whether it kept the rows of
    ``canonicalize``'s pass (True) or ran a second pass (False)."""
    kept = []
    real = polytope._extreme_points

    def recorded(*args):
        result = real(*args)
        kept.append(result[1] is not None)
        return result

    monkeypatch.setattr(polytope, "_extreme_points", recorded)
    return kept


def _with_interior_pairs(rng, cloud, where):
    """The extreme points of ``cloud`` with three scaled copies of them and
    their negations, all inside the ball, inserted at the front, the middle
    or the end, and then the other points of ``cloud``."""
    extreme = list(canonicalize(cloud))
    inner = []
    for p in rng.choices(extreme, k=3):
        p = p.scale(Fraction(rng.randint(1, 3), 4))
        inner += [p, -p]
    at = {"front": 0, "middle": len(extreme) // 2, "end": len(extreme)}[where]
    return extreme[:at] + inner + extreme[at:] + [q for q in cloud if q not in extreme]


def test_single_pass_rows_match_a_second_pass(monkeypatch):
    # the reference route is a second double description pass on the
    # extreme points cleared in first-seen order: a ball built from one pass
    # has its facets, in its order, and so does one built from two
    builds = [lambda n=n, f=f, space=space: space(n, f)
              for n in range(2, 6) for f in (Q, K) for space in (ell1, ellinf)]
    builds += [paper_example_space,
               lambda: load_space(str(Path(__file__).parent / "golden" / "cloud3.json"))]
    wheres = []
    for field in (Q, K):
        for seed in range(20):
            rng = random.Random(f"single-pass:{field.name}:{seed}")
            dim = 2 + seed % 3
            cloud = _cloud(rng, dim) if field is Q else _quad_cloud(rng, dim)
            wheres.append(("front", "middle", "end")[seed % 3])
            cloud = _with_interior_pairs(rng, cloud, wheres[-1])
            builds.append(lambda cloud=cloud: from_vertices(cloud))
    kept = count_single_passes(monkeypatch)
    for build in builds:
        ball = build().ball
        field = ball.field
        rows, _, _ = polytope.dual_vertices(
            *clear_denominators((v.entries for v in ball.vertices), field), field)
        F, D = scalars._FIELD_OPS[field].common(rows)
        assert (ball.F, ball.D) == (tuple(F), D)
        assert ball.functionals == tuple(from_cleared_row(f, D, field) for f in F)
    assert len(kept) == len(builds)
    assert all(kept[:17])  # every builtin ball
    assert kept[17] is False  # cloud3.json's first point, a pivot, is not extreme
    # an interior pivot always forces the second pass; interior points after
    # every extreme point cut nothing; in the middle they may
    by_place = {where: [k for k, w in zip(kept[18:], wheres) if w == where]
                for where in ("front", "middle", "end")}
    assert not any(by_place["front"]) and all(by_place["end"]), by_place
    assert 0 < sum(by_place["middle"]) < len(by_place["middle"]), by_place


def _documents():
    """Space documents: builtin balls of both fields, ``paper-example``,
    golden ``cloud3.json`` and seeded clouds of both fields with interior
    points, all written as literals."""
    docs = [space_to_document(space(n, f)) for n in range(2, 6) for f in (Q, K)
            for space in (ell1, ellinf)]
    docs.append(space_to_document(paper_example_space()))
    docs.append(json.loads((Path(__file__).parent / "golden" / "cloud3.json").read_text()))
    for field in (Q, K):
        for seed in range(6):
            rng = random.Random(f"file-route:{field.name}:{seed}")
            dim = 2 + seed % 3
            cloud = _cloud(rng, dim) if field is Q else _quad_cloud(rng, dim)
            cloud = _with_interior_pairs(rng, cloud, ("front", "middle", "end")[seed % 3])
            docs.append({"name": "cloud", "field": field.value, "dim": dim,
                         "vertices": [[serialize(e) for e in p.entries] for p in cloud]})
    return docs


def test_file_route_matches_the_vector_route():
    # a space file's literals go to integer rows and straight to the ball;
    # from_vertices on the same points, parsed to vectors, gives the same ball
    for doc in _documents():
        field = FieldTag(doc["field"])
        by_file = space_from_document(doc).ball
        by_vectors = Polytope.from_vertices(
            [Vector([parse(x, field) for x in row], field) for row in doc["vertices"]])
        for name in ("F", "D", "functionals", "vertices", "vertex_active"):
            assert getattr(by_file, name) == getattr(by_vectors, name), (doc["name"], name)
        assert by_file._face_lattice() == by_vectors._face_lattice()


def test_loading_a_space_file_builds_no_vector(monkeypatch):
    built = []
    real_init = Vector.__init__

    def counted(self, *args, **kwargs):
        built.append(1)
        real_init(self, *args, **kwargs)

    monkeypatch.setattr(Vector, "__init__", counted)
    ball = load_space(str(Path(__file__).parent / "golden" / "cloud3.json")).ball
    assert built == []
    ball.vertices
    assert len(built) == len(ball.V)
    ball.functionals
    assert len(built) == len(ball.V) + len(ball.F)
    ball.vertices, ball.functionals  # kept, not rebuilt
    assert len(built) == len(ball.V) + len(ball.F)


def test_ball_build_runs_one_pass_unless_a_non_extreme_point_shaped_it(monkeypatch):
    calls = capture_dual_vertices(monkeypatch)
    for build in (paper_example_space, lambda: ell1(3), lambda: ellinf(4)):
        before = len(calls)
        build()
        assert len(calls) == before + 1
    # an interior first point is a pivot of the initial reduction
    before = len(calls)
    half = qv(Fraction(1, 2), 0)
    Polytope.from_vertices([half, -half] + cross())
    assert len(calls) == before + 2


def count_point_scans(monkeypatch):
    """The arguments of every later ``polytope._tight`` call, the one point scan."""
    calls = []
    real_tight = polytope._tight

    def counted_tight(*args):
        calls.append(args)
        return real_tight(*args)

    monkeypatch.setattr(polytope, "_tight", counted_tight)
    return calls


def test_subspace_walk_builds_no_polytope(monkeypatch):
    # canonicalize reads double description's tight sets and the section
    # walk maps them back to ball facets: neither rescans nor revalidates
    spaces = [ell1(3), paper_example_space(), random_space(5, 3, 8)]
    tight_calls = count_point_scans(monkeypatch)
    for space in spaces:
        vertices = space.ball.vertices
        assert canonicalize(vertices + (vertices[0].scale(Fraction(1, 2)),)) == vertices
    assert tight_calls == []

    def no_polytope(*args, **kwargs):
        raise AssertionError("a Polytope was built for a subspace query")

    monkeypatch.setattr(Polytope, "__init__", no_polytope)
    for space in spaces:
        e = [Vector.basis(i, 3, space.field) for i in range(3)]
        plane = Subspace.span(space, e[:2])
        bj_subspace_vector(space, plane, e[2])
        bj_subspace_subspace(space, plane, Subspace.span(space, e[2:]))


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


def test_vertex_guard_is_the_power_of_two_rule(monkeypatch):
    # the limit is max(64, 2**KSMOOTH_MAX_DIM); 2**m is a Fraction below 1
    # for negative m
    for m in range(-3, 9):
        monkeypatch.setenv("KSMOOTH_MAX_DIM", str(m))
        limit = max(64, Fraction(2) ** m)
        for count in range(300):
            if count > limit:
                message = f"{count} vertices exceed guard {limit}$"
                with pytest.raises(GuardExceededError, match=message):
                    polytope.check_guard(m, count)
            else:
                polytope.check_guard(m, count)
    monkeypatch.setenv("KSMOOTH_MAX_DIM", str(10 ** 12))
    polytope.check_guard(10 ** 12, 10 ** 100)


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


def test_minimal_face_scans_each_point_once(monkeypatch):
    # the gauge of the one scan words the error off the boundary
    p = Polytope.from_vertices(cross())
    calls = count_point_scans(monkeypatch)
    with pytest.raises(NotOnBoundaryError, match=r"^max functional value is 1/4, not 1$"):
        minimal_face(p, qv(Fraction(1, 4), 0))
    assert len(calls) == 1
    with pytest.raises(NotOnBoundaryError, match=r"^max functional value is 2, not 1$"):
        minimal_face(p, qv(2, 0))
    assert len(calls) == 2
    assert minimal_face(p, qv(Fraction(1, 2), Fraction(1, 2))).dim == 1
    assert len(calls) == 3


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


def test_face_reads_the_lattice():
    for p in (ell1(3).ball, ellinf(3).ball, paper_example_space().ball):
        for k in range(p.dim):
            for face in enumerate_faces(p, k):
                assert p.face(face.active_set) == face
    p = ell1(3).ball
    # facets 0 and 3 meet only in the vertex e1, whose active set has four facets
    assert p.face(frozenset({0, 1, 2, 3})) == FaceDescriptor(frozenset({0, 1, 2, 3}), 0)
    for active in ({0, 3}, set(), {8}, {0, 7}):
        with pytest.raises(NotProperFaceError):
            p.face(frozenset(active))


_LATTICE_BALLS = {
    **{f"{name}:{n}:{field.value}": (lambda make=make, n=n, field=field: make(n, field))
       for make, name in ((ell1, "ell1"), (ellinf, "ellinf"))
       for n in range(2, 6) for field in (Q, K)},
    "paper-example": paper_example_space,
    "cloud3": lambda: load_space(str(Path(__file__).parent / "golden" / "cloud3.json")),
    "random-2-5-15": lambda: random_space(2, 5, 15),
}


@pytest.mark.parametrize("make", _LATTICE_BALLS.values(), ids=_LATTICE_BALLS.keys())
def test_lattice_dimensions_match_the_facet_route(make):
    # the lattice reads each face's dimension from the vertex side; the
    # facet side, d - rank of the active facets, is the reference
    p = make().ball
    lattice = p._face_lattice()
    assert lattice
    for active, dim in lattice.items():
        assert dim == p.dim - p.facet_rank(active), sorted(active)


def test_full_lattice_of_a_d6_ball_is_fast():
    # 5,184 faces: d - facet_rank on the facet rows, cleared over one scale
    # of 2,919 bits, takes about 35 s on a 2-CPU Xeon, the vertex rows 0.2 s
    p = random_space(1, 6, 12).ball
    started = time.perf_counter()
    faces = [count_faces(p, k) for k in range(p.dim)]
    elapsed = time.perf_counter() - started
    assert sum(faces) == len(p._face_lattice())
    assert elapsed < 5.0, f"face lattice took {elapsed:.2f}s"


@pytest.mark.parametrize("point, error", [
    (qv(1, 0, 5), DimensionMismatchError), (qv(1,), DimensionMismatchError),
    (Vector([QuadScalar(1), QuadScalar(0)], K), FieldMismatchError),
], ids=["too-long", "too-short", "other-field"])
@pytest.mark.parametrize("scan", [
    lambda s, x: s.ball.facets_at(x),
    lambda s, x: minimal_face(s.ball, x),
    lambda s, x: list(faces_meeting(s.ball, [x])),
    lambda s, x: list(faces_meeting(s.ball, [qv(1, 0), x])),
    support_facets,
    support_set,
    support_functionals_at,
], ids=["facets_at", "minimal_face", "faces_meeting", "faces_meeting-second",
        "support_facets", "support_set", "support_functionals_at"])
def test_cleared_row_scans_reject_foreign_points(scan, point, error):
    # zip would truncate a longer point and pair a shorter one with a prefix;
    # a point of the other field is a field mismatch, as in `spaces.norm`
    with pytest.raises(error):
        scan(ell1(2), point)


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


def _brute_force_polar_vertices(points):
    """Vertices of ``{f : p.f <= 1 for each p}`` from every d-subset of the
    constraints: each independent subset solved with equality, kept when
    the solution satisfies every constraint."""
    d, field = points[0].dim, points[0].field
    ones = Vector([field.one] * d, field)
    found = set()
    for subset in itertools.combinations(points, d):
        if rank_of_vectors(list(subset)) == d:
            [f] = solve(Matrix.from_rows(list(subset)), [ones])
            if all(p.dot(f) <= field.one for p in points):
                found.add(f.entries)
    return found


def _degenerate_cloud(rng, dim):
    """A small symmetric cloud with points in the relative interior of an
    edge and of a facet of its hull and a repeated direction, so that many
    constraints meet at one polar vertex."""
    half = [Vector.basis(i, dim, Q).scale(Fraction(rng.randint(2, 6), rng.randint(2, 5)))
            for i in range(dim)]
    half += [qv(*[Fraction(rng.randint(-4, 4), rng.randint(1, 4)) for _ in range(dim)])
             for _ in range(dim)]
    half = [p for p in half if not p.is_zero()]
    ball = Polytope.from_vertices(half + [-p for p in half])
    for k in (1, dim - 1):
        on_face = ball.face_vertices(rng.choice(enumerate_faces(ball, k)))
        total = on_face[0]
        for v in on_face[1:]:
            total = total + v
        half.append(total.scale(Fraction(1, len(on_face))))
    half.append(rng.choice(ball.vertices).scale(Fraction(rng.randint(1, 3), 4)))
    points = list({p.entries: p for q in half for p in (q, -q)}.values())
    rng.shuffle(points)
    return points


def _check_against_brute_force(points):
    """The polar vertices and their tight sets, against every d-subset and a
    ``p . f == 1`` scan of every point."""
    vertices, tight = dual_vertices(points)
    got = [v.entries for v in vertices]
    assert len(got) == len(set(got))
    assert set(got) == _brute_force_polar_vertices(points)
    one = points[0].field.one
    assert tight == [frozenset(i for i, p in enumerate(points) if p.dot(f) == one)
                     for f in vertices]
    return got


def test_dual_vertices_matches_brute_force():
    # double description takes the tight set of a new vertex from its edge
    # and never rescans it; a wrong tight set breaks adjacency on later
    # insertions and misleads canonicalize, so both the vertex set and
    # each returned tight set are compared with a brute-force scan
    for dim, seeds in ((2, 6), (3, 6), (4, 2)):
        for seed in range(seeds):
            _check_against_brute_force(_degenerate_cloud(random.Random(f"dd:{dim}:{seed}"), dim))
    K = FieldTag.QUAD_SQRT2
    # d = 1: the two vertices of a clipped segment share no constraint
    assert _check_against_brute_force([qv(1), qv(-1), qv(2), qv(-2)]) == [
        (Fraction(1, 2),), (Fraction(-1, 2),)]
    line = [Vector([x], K) for x in (1, -1, QuadScalar(1, 1), QuadScalar(-1, -1))]
    assert _check_against_brute_force(line) == [(QuadScalar(-1, 1),), (QuadScalar(1, -1),)]
    half = Fraction(1, 2)
    points = list(paper_example_space().ball.vertices) + [
        Vector(e, K) for p in ([half, 0, half], [0, half, half], [half, half, 0])
        for e in (p, [-x for x in p])]
    assert len(_check_against_brute_force(points)) == 16
    # +-(1+r2)/2 e_i: new vertices on edges have an irrational h until the
    # conjugate step, and their integer parts a common factor
    c = QuadScalar(half, half)
    points = list(paper_example_space().ball.vertices) + [
        Vector([c if j == i else 0 for j in range(3)], K).scale(sign)
        for i in range(3) for sign in (1, -1)]
    assert len(_check_against_brute_force(points)) == 16


def test_dual_vertices_requires_symmetry():
    # the unpaired point is named in the literal grammar, read back from its
    # row over the common scale
    with pytest.raises(NotSymmetricError, match=r"negation: \(1,0\)$"):
        dual_vertices([qv(1, 0), qv(0, 1)])
    with pytest.raises(NotSymmetricError, match=r"negation: \(1/2,0\)$"):
        dual_vertices([qv(Fraction(1, 2), 0), qv(0, Fraction(1, 3)), qv(0, Fraction(-1, 3))])
    with pytest.raises(NotSymmetricError, match=r"negation: \(1/2\+1/2\*r2,0\)$"):
        dual_vertices([Vector([QuadScalar(Fraction(1, 2), Fraction(1, 2)), 0], K),
                       Vector([0, 1], K), Vector([0, -1], K)])


def rank_adjacency_dual_vertices(P, scale, field):
    """Double description with the rank adjacency test: tight sets as sets,
    and two vertices adjacent iff the rows of ``P`` tight at both have rank
    d - 1.  Returns the rows, the tight sets and the number of pairs with at
    least d - 1 common tight rows that are not edges."""
    ops = scalars._FIELD_OPS[field]
    d = ops.width(P[0])
    negation = polytope._negation_index(P, scale, field)
    unit = [(0,) * t + (1,) + (0,) * (d - 1 - t) for t in range(d)]
    if field is Q:
        columns = list(zip(*P, *unit))
    else:
        columns = list(zip(zip(*[a for a, _ in P], *unit),
                           zip(*[b for _, b in P], *[(0,) * d] * d)))
    rows, init, det = _reduced(columns, field, len(P), True)
    width = len(rows[0]) - d
    inverse = [[_entry(rows, k, width + t, field) for k in range(d)] for t in range(d)]
    corners = list(itertools.product((1, -1), repeat=d))
    verts = [polytope._corner(inverse, signs, scale, det, field) for signs in corners]
    actives = [{init[j] if s == 1 else negation[init[j]] for j, s in enumerate(signs)}
               for signs in corners]
    inserted = set(init) | {negation[i] for i in init}
    non_edges = 0
    for idx, row in enumerate(P):
        if idx in inserted:
            continue
        values = ops.values(ops.entries(row, -scale), verts)
        signs = [ops.sign(val) for val in values]
        for k, sign in enumerate(signs):
            if sign == 0:
                actives[k].add(idx)
        new_verts = {}
        for k_out, sign_out in enumerate(signs):
            for k_in, sign_in in enumerate(signs):
                if sign_out <= 0 or sign_in >= 0:
                    continue
                common = actives[k_out] & actives[k_in]
                if len(common) < d - 1:
                    continue
                if common and _rank_of_lists([P[j] for j in common], field) != d - 1:
                    non_edges += 1
                    continue
                z = ops.edge(values[k_out], verts[k_out], values[k_in], verts[k_in])
                new_verts.setdefault(z, common | {idx})
        keep = [k for k, sign in enumerate(signs) if sign <= 0]
        verts = [verts[k] for k in keep] + list(new_verts)
        actives = [actives[k] for k in keep] + list(new_verts.values())
    return verts, [frozenset(a) for a in actives], non_edges


def capture_dual_vertices(monkeypatch):
    """The arguments and result of every later ``polytope.dual_vertices`` call."""
    calls = []
    real = polytope.dual_vertices

    def recorded(*args):
        result = real(*args)
        calls.append((args, result))
        return result

    monkeypatch.setattr(polytope, "dual_vertices", recorded)
    return calls


def check_against_rank_adjacency(calls):
    """Each captured pass's rows, their order and tight sets against the
    rank-adjacency pass; returns the non-edges that pass ranked."""
    non_edges = 0
    for args, (rows, tight, _) in calls:
        want_rows, want_tight, missed = rank_adjacency_dual_vertices(*args)
        assert rows == want_rows
        assert tight == want_tight
        non_edges += missed
    return non_edges


def _adjacency_cloud(rng, dim, field):
    """A symmetric cloud with non-extreme points: quarter sums of two points
    and points on the segment between two others."""
    def scalar():
        a = Fraction(rng.randint(-4, 4), rng.randint(1, 3))
        return a if field is Q else QuadScalar(a, Fraction(rng.randint(-1, 1), 2))
    half = [Vector.basis(i, dim, field).scale(Fraction(rng.randint(1, 3), rng.randint(1, 2)))
            for i in range(dim)]
    half += [Vector([scalar() for _ in range(dim)], field) for _ in range(dim + 1)]
    half = [p for p in half if not p.is_zero()]
    points = half + [-p for p in half]
    for _ in range(dim + 2):
        p, q = rng.sample(points, 2)
        half.append((p + q).scale(Fraction(1, 4)))
        t = Fraction(rng.randint(1, 3), 4)
        half.append(p + (q - p).scale(t))
    points = list({p.entries: p for q in half if not q.is_zero() for p in (q, -q)}.values())
    rng.shuffle(points)
    return points


def test_combinatorial_adjacency_matches_rank_adjacency(monkeypatch):
    # double description decides adjacency on its tight-set bit masks; every
    # pass of a ball build and of a subspace section gives the rows, their
    # order and the tight sets that the rank test gives, and the inputs
    # reach pairs with d - 1 common tight rows that are not edges
    calls = capture_dual_vertices(monkeypatch)
    for field in (Q, K):
        for dim in range(1, 6):
            for seed in range(3 if dim < 5 else 1):
                rng = random.Random(f"adjacency:{field.name}:{dim}:{seed}")
                Polytope.from_vertices(_adjacency_cloud(rng, dim, field))
    r2 = INV_SQRT2 + INV_SQRT2
    sections = [
        (ell1(3), [qv(1, 0, 0)]),
        (ell1(3), [qv(1, 1, 0), qv(0, 0, 1)]),
        (ell1(3), [qv(1, 1, 1), qv(1, -1, 0)]),
        (paper_example_space(), [Vector([1, 0, 0], K), Vector([0, 1, 0], K)]),
        (paper_example_space(), [Vector([1, r2, 1], K)]),
        (paper_example_space(), [Vector([1, 1, 0], K), Vector([0, 1, 1], K)]),
    ]
    built = len(calls)
    for space, basis in sections:
        assert list(faces_meeting(space.ball, basis))
    assert len(calls) > built
    assert {len(args[0][0] if args[2] is Q else args[0][0][0]) for args, _ in calls} == {
        1, 2, 3, 4, 5}
    non_edges = [check_against_rank_adjacency([call for call in calls if call[0][2] is field])
                 for field in (Q, K)]
    assert min(non_edges) > 0, non_edges


def test_five_dimensional_ball_matches_rank_adjacency(monkeypatch):
    calls = capture_dual_vertices(monkeypatch)
    space = random_space(2, 5, 15)
    assert (space.dim, len(space.ball.functionals)) == (5, 272)
    assert len(calls) == 1  # no non-extreme point shaped the pass
    check_against_rank_adjacency(calls)


def test_point_smoothness_scans_once(monkeypatch):
    # the support rank and the minimal face take the facets tight at x from
    # one scan; each route still ranks on its own side of the ball
    space = ell1(3)
    calls = count_point_scans(monkeypatch)
    assert point_smoothness(space, qv(Fraction(1, 2), Fraction(1, 2), 0)) == 2
    assert len(calls) == 1
    assert point_smoothness(space, qv(1, 0, 0)) == 3
    assert len(calls) == 2


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



def test_image_gauge_max_returns_the_facets_tight_at_each_image():
    # the facets come from the scan's own row values; facets_at recomputes them
    rng = random.Random(23)
    cases = [(paper_example_space(), ellinf(3, FieldTag.QUAD_SQRT2),
              paper_example_operator().matrix.row_data)]
    for seed in range(8):
        x = random_space(3100 + seed, rng.randint(2, 4), rng.randint(4, 6))
        y = random_space(3200 + seed, rng.randint(2, 4), rng.randint(4, 6))
        rows = [[Fraction(rng.randint(-4, 4), rng.randint(1, 4)) for _ in range(x.dim)]
                for _ in range(y.dim)]
        cases.append((x, y, rows))
    for x, y, rows in cases:
        a = Matrix(rows, x.field)
        best, attaining = x.ball.image_gauge_max(y.ball, rows)
        for k, v in enumerate(x.ball.vertices):
            top, tight = y.ball.facets_at(a.matvec(v))
            if k in attaining:
                assert top == best and attaining[k] == tight
            else:
                assert top < best

def test_dimension_guard_precedes_hull_lps(monkeypatch):
    monkeypatch.delenv("KSMOOTH_MAX_DIM", raising=False)

    def no_canonicalize(points):
        raise AssertionError("canonicalize ran before the dimension guard")

    monkeypatch.setattr(polytope, "canonicalize", no_canonicalize)
    points = [v for i in range(7) for v in (Vector.basis(i, 7, Q), -Vector.basis(i, 7, Q))]
    with pytest.raises(GuardExceededError, match="dimension 7 exceeds guard 6"):
        Polytope.from_vertices(points)
