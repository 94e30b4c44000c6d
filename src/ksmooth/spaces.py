"""Polyhedral normed spaces: norms, support functionals, point smoothness.

A ``PolyhedralSpace`` holds only its unit ball, a symmetric polytope.
By polarity the extreme points of the dual ball are exactly the facet
functionals of the ball, so the support set ``J(x)`` of a unit vector is
represented by its extreme points: the facet functionals active at ``x``.
``norm``, ``support_set``, ``support_functionals_at`` and
``point_smoothness`` each read them and the gauge from one scan of the
ball, ``Polytope.facets_at``, and ``Polytope.facet_rank`` ranks them on the
ball's cleared rows.  ``support_functionals_at`` also takes a point the
caller holds cleared (the index of smoothness hands on its images so), and
then ``Polytope.support_at`` scans its row and builds the normalised base
point from integers.  A support set names its functionals by their facet
indices as well, so that a caller can carry on with the ball's rows.

The smoothness order of a unit vector is the rank of its active
functionals; it always equals the ambient dimension minus the dimension
of the minimal face containing the vector.  That dimension is read from
the ball vertices on the face, not from the functionals, so the two
quantities are independent, and both are computed and cross-asserted on
every query.

Only polyhedral balls are modeled.  The p-norms with 1 < p < infinity
have non-polyhedral (strictly convex) balls and irrational geometry and
are intentionally outside this package's scope.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .errors import (
    InternalInconsistencyError,
    FieldMismatchError,
    NotUnitNormError,
    ValidationError,
)
from .linalg import Cleared, Vector, rank_of_vectors
from .polytope import Polytope, _minimal_face_of, check_guard
from .scalars import FieldTag, INV_SQRT2, QuadScalar, Scalar


@dataclass(frozen=True)
class PolyhedralSpace:
    """A finite-dimensional space whose unit ball is a symmetric polytope."""

    name: str
    dim: int
    field: FieldTag
    ball: Polytope

    @classmethod
    def from_ball(cls, ball: Polytope, name: str) -> "PolyhedralSpace":
        return cls(name=name, dim=ball.dim, field=ball.field, ball=ball)

    def __repr__(self) -> str:
        return (f"PolyhedralSpace({self.name!r}, dim={self.dim}, "
                f"vertices={len(self.ball.vertices)}, facets={len(self.ball.functionals)})")


@dataclass(frozen=True)
class SupportSet:
    """Ext(J(x)) for a unit vector x: the facet functionals active at x,
    with their indices among the ball's facets (``facets``)."""

    base_point: Vector
    extreme_functionals: tuple[Vector, ...]
    smoothness_order: int
    facets: tuple[int, ...] = ()


def norm(space: PolyhedralSpace, x: Vector) -> Scalar:
    """The polytope norm: max of f(x) over the ball's facet functionals."""
    return space.ball.facets_at(x)[0]


def normalized(space: PolyhedralSpace, x: Vector) -> Vector:
    """x divided by its norm (always stays in the field); x must be nonzero."""
    n = norm(space, x)
    if not n:
        raise ValidationError("cannot normalize the zero vector")
    return x.scale(space.field.one / n)


def support_facets(space: PolyhedralSpace, x: Vector) -> list[int]:
    """The indices of the facet functionals active at the unit vector x,
    the extreme points of J(x)."""
    top, tight = space.ball.facets_at(x)
    if top != space.field.one:
        raise NotUnitNormError(f"norm of {x} is not 1")
    return tight


def _supports(ball: Polytope, x: Vector, tight: list[int]) -> SupportSet:
    return SupportSet(x, tuple(map(ball.functional, tight)), ball.facet_rank(tight), tuple(tight))


def support_set(space: PolyhedralSpace, x: Vector) -> SupportSet:
    """Extreme support functionals of the unit vector x and their rank."""
    return _supports(space.ball, x, support_facets(space, x))


def support_functionals_at(space: PolyhedralSpace, y: Vector | Cleared) -> SupportSet:
    """Support set of a nonzero (not necessarily unit) vector, given as a
    ``Vector`` or as one point cleared over the ball's field.

    The support functionals at ``y`` are those of ``y/||y||``: the facets
    attaining the gauge of ``y``, read from the same scan that gives the
    norm.  The base point recorded in the result is the normalized vector.
    """
    if isinstance(y, Cleared):
        return _supports(space.ball, *space.ball.support_at(y))
    n, tight = space.ball.facets_at(y)
    if not n:
        raise ValidationError("cannot normalize the zero vector")
    return _supports(space.ball, y.scale(space.field.one / n), tight)


def point_smoothness(space: PolyhedralSpace, x: Vector) -> int:
    """The smoothness order of a unit vector.

    Computed two ways on every call from one scan of the ball: as the rank
    of the active support functionals, and as ambient dimension minus the
    dimension of the minimal face containing x, which counts the ball
    vertices on that face.  Disagreement signals a kernel bug.
    """
    tight = support_facets(space, x)
    supports = _supports(space.ball, x, tight)
    face = _minimal_face_of(space.ball, tight)
    by_face = space.dim - face.dim
    if supports.smoothness_order != by_face:
        raise InternalInconsistencyError(
            f"smoothness {supports.smoothness_order} by support rank but "
            f"{by_face} by face dimension at {x}")
    return supports.smoothness_order


# ---------------------------------------------------------------------------
# builders
# ---------------------------------------------------------------------------

def from_vertices(points: Sequence[Vector], name: str = "custom") -> PolyhedralSpace:
    return PolyhedralSpace.from_ball(Polytope.from_vertices(points), name)


def ell1(n: int, field: FieldTag = FieldTag.RATIONAL) -> PolyhedralSpace:
    """The space with the cross-polytope ball (sum-of-absolute-values norm)."""
    if n < 1:
        raise ValidationError("dimension must be positive")
    check_guard(n, 2 * n)
    points = []
    for i in range(n):
        points.append(Vector.basis(i, n, field))
        points.append(-Vector.basis(i, n, field))
    return from_vertices(points, f"ell1:{n}")


def ellinf(n: int, field: FieldTag = FieldTag.RATIONAL) -> PolyhedralSpace:
    """The space with the cube ball (max-of-absolute-values norm)."""
    if n < 1:
        raise ValidationError("dimension must be positive")
    # dimension only: 2**n is too large to form for a huge n, and the vertex
    # guard admits the 2**n vertices whenever the dimension guard admits n
    check_guard(n, 0)
    points = []
    for bits in range(2 ** n):
        points.append(Vector([field.from_int(1 if bits & (1 << i) else -1)
                              for i in range(n)], field))
    return from_vertices(points, f"ellinf:{n}")


def paper_example_space() -> PolyhedralSpace:
    """The bundled 3-dimensional example space over the quadratic field.

    Its ball is the octagonal bipyramid with equatorial vertices
    ``+/-(1,0,0)``, ``+/-(1/r2,1/r2,0)``, ``+/-(0,1,0)``,
    ``+/-(-1/r2,1/r2,0)`` and apexes ``+/-(0,0,1)``.
    """
    field = FieldTag.QUAD_SQRT2
    zero, one = QuadScalar(0), QuadScalar(1)
    half_pairs = [
        Vector([one, zero, zero], field),
        Vector([INV_SQRT2, INV_SQRT2, zero], field),
        Vector([zero, one, zero], field),
        Vector([-INV_SQRT2, INV_SQRT2, zero], field),
        Vector([zero, zero, one], field),
    ]
    points = []
    for v in half_pairs:
        points.append(v)
        points.append(-v)
    return from_vertices(points, "paper-example")


def random_space(seed: int, dim: int, points: int) -> PolyhedralSpace:
    """A reproducible random symmetric polytopal space over the rationals.

    Samples ``points`` rational points in [-1,1]^dim from a seeded
    generator, symmetrizes by union with negations, canonicalizes, and
    redraws if the result is not full-dimensional.
    """
    field = FieldTag.RATIONAL
    rng = random.Random(seed)
    for _ in range(200):
        sample = []
        for _ in range(points):
            coords = []
            for _ in range(dim):
                den = rng.randint(1, 6)
                num = rng.randint(-den, den)
                coords.append(Fraction(num, den))
            sample.append(Vector(coords, field))
        candidates = []
        for p in sample:
            if not p.is_zero():
                candidates.append(p)
                candidates.append(-p)
        if not candidates or rank_of_vectors(candidates) < dim:
            continue
        return from_vertices(candidates, f"random:{seed}:{dim}:{points}")
    raise ValidationError(f"could not draw a full-dimensional space (seed={seed})")


def product_space(components: Sequence[PolyhedralSpace],
                  name: str = "product") -> PolyhedralSpace:
    """The max-product of spaces: the ball is the product of the balls.

    Vertices are all concatenations of component vertices; facet
    functionals are the component functionals padded with zeros.  The
    incidence validation of the resulting polytope re-derives that each
    product vertex is a genuine vertex; validating its polar once does the
    same for each padded functional, which double description never saw.
    """
    if not components:
        raise ValidationError("empty product")
    field = components[0].field
    if any(c.field is not field for c in components):
        raise FieldMismatchError("product components over different fields")
    total_dim = sum(c.dim for c in components)
    vertex_count = 1
    for c in components:
        vertex_count *= len(c.ball.vertices)
    check_guard(total_dim, vertex_count)

    vertex_sets: list[list[Vector]] = [[]]
    for c in components:
        vertex_sets = [prefix + [v] for prefix in vertex_sets for v in c.ball.vertices]
    vertices = [Vector([e for part in parts for e in part.entries], field)
                for parts in vertex_sets]

    functionals = []
    offset = 0
    for c in components:
        for f in c.ball.functionals:
            entries = [field.zero] * total_dim
            for i, e in enumerate(f.entries):
                entries[offset + i] = e
            functionals.append(Vector(entries, field))
        offset += c.dim
    ball = Polytope.from_vectors(vertices, functionals)
    ball.polar()
    return PolyhedralSpace.from_ball(ball, name)
