"""Linear operators between polyhedral spaces and their smoothness orders.

The order of smoothness of a unit-norm operator T is the dimension of the
span of the extreme points of J(T).  For polyhedral X and Y these are the
``x (x) y*`` with x a vertex of B_X, y* a facet functional of B_Y and
``y*(Tx) = ||T||`` (Ruess & Stegall, Math. Ann. 261, 1982).  Two routes
compute it, sharing only the attainment scan ``Polytope.image_gauge_max``
(integer dot products on the cleared rows of :mod:`ksmooth.polytope`), run
once per operator and kept as ``LinearOperator.attainment``, and every
report cross-asserts that they agree:

* the index route works in basis coordinates: it computes the support set
  of each attaining vertex's image, picks a basis of the span of the
  vertices and one of the span of their support functionals, and takes
  the rank of the coefficient tuples ``((alpha_i beta_j))``, on integers;

* the oracle route works in ambient coordinates: it takes the rank of the
  flattened ``x (x) y*`` over the (vertex, facet) pairs the scan returns.

A mismatch is a kernel bug and is surfaced as an internal inconsistency,
never patched.

Everything here is finite-dimensional, which is what makes the oracle
characterization unconditional: every operator is compact, attains its
norm on a ball vertex, and the functional-analytic side conditions that
matter in infinite dimensions hold vacuously.  Operators on smooth or
strictly convex (non-polyhedral) spaces are out of scope.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cached_property
from typing import Optional, Sequence

from .errors import (
    DimensionMismatchError,
    EmptyExtremeIntersectionError,
    FieldMismatchError,
    InternalInconsistencyError,
    NotIndependentError,
    NotProperFaceError,
    NotUnitNormError,
    SpanViolationError,
    ValidationError,
    ZeroOperatorError,
)
from .linalg import (
    Matrix,
    Vector,
    _rank_of_lists,
    from_cleared_row,
    greedy_independent_subset,
    outer_product_rank,
    outer_rows,
    rank,
    rank_of_vectors,
    solve,
)
from .polytope import FaceDescriptor, check_guard, images
from .scalars import FieldTag, QuadScalar, Scalar, serialize, sign
from .spaces import (
    PolyhedralSpace,
    SupportSet,
    ellinf,
    norm,
    paper_example_space,
    point_smoothness,
    support_functionals_at,
)


@dataclass(frozen=True)
class LinearOperator:
    """A matrix acting between two polyhedral spaces in ambient coordinates.

    Rows index codomain coordinates; column j is the image of the j-th
    ambient basis vector of the domain.
    """

    domain: PolyhedralSpace
    codomain: PolyhedralSpace
    matrix: Matrix

    def __post_init__(self) -> None:
        if self.domain.field is not self.codomain.field:
            raise FieldMismatchError("domain and codomain over different fields")
        if self.matrix.field is not self.domain.field:
            raise FieldMismatchError("matrix field differs from the spaces")
        if self.matrix.rows != self.codomain.dim or self.matrix.cols != self.domain.dim:
            raise DimensionMismatchError(
                f"matrix is {self.matrix.rows}x{self.matrix.cols}, expected "
                f"{self.codomain.dim}x{self.domain.dim}")

    @classmethod
    def from_images(cls, domain: PolyhedralSpace, codomain: PolyhedralSpace,
                    images: Sequence[Vector]) -> "LinearOperator":
        """Operator sending the j-th ambient basis vector to ``images[j]``."""
        if len(images) != domain.dim:
            raise DimensionMismatchError("one image per domain basis vector required")
        return cls(domain, codomain, Matrix.from_columns(images))

    def apply(self, x: Vector) -> Vector:
        return self.matrix.matvec(x)

    def rank(self) -> int:
        return rank(self.matrix)

    @cached_property
    def attainment(self) -> "AttainmentSet":
        """``operator_norm_and_attainment`` of this operator, run on first read
        and kept; a zero operator raises ``ZeroOperatorError`` on every read."""
        return operator_norm_and_attainment(self)

    def normalized(self) -> "LinearOperator":
        """Rescale to unit operator norm.

        Both supported fields are closed under division, so the quotient
        never leaves the field.  Scaling by ``1/||T|| > 0`` keeps every
        attaining vertex and tight facet, so the rescaled operator is handed
        this one's ``attainment`` with norm one instead of scanning again.
        """
        att = self.attainment
        one = self.domain.field.one
        t = LinearOperator(self.domain, self.codomain,
                           self.matrix.scale(one / att.operator_norm))
        object.__setattr__(t, "attainment", replace(att, operator_norm=one))
        return t


@dataclass(frozen=True)
class AttainmentSet:
    """Norm, attaining extreme points (one per +/- pair), facets tight at each image."""

    operator_norm: Scalar
    attaining_vertices: tuple[Vector, ...]
    basis_indices: tuple[int, ...]
    image_facets: tuple[tuple[Vector, ...], ...]


@dataclass(frozen=True)
class IndexComputation:
    """Audit trail of one index-of-smoothness evaluation."""

    rep_vertices: tuple[Vector, ...]
    image_supports: tuple[SupportSet, ...]
    vector_basis: tuple[Vector, ...]
    functional_basis: tuple[Vector, ...]
    z_generators: tuple[Vector, ...]
    index: int


@dataclass(frozen=True)
class SmoothnessReport(IndexComputation):
    """Full audit trail of an order of smoothness: the index, the scan and the oracle."""

    attainment: AttainmentSet
    oracle_order: int
    min_bound: int

    def is_extreme_contraction(self, domain_dim: int, codomain_dim: int) -> bool:
        return self.index == domain_dim * codomain_dim


def sign_canonical(v: Vector) -> Vector:
    """The representative of {v, -v} whose first nonzero entry is positive."""
    for e in v.entries:
        s = sign(e)
        if s:
            return v if s > 0 else -v
    return v


def operator_norm_and_attainment(t: LinearOperator) -> AttainmentSet:
    """Operator norm as the max of ``||Tv||`` over ball vertices.

    Valid because ``x -> ||Tx||`` is convex, so its maximum over the ball
    is attained at an extreme point.  Attaining vertices are deduplicated
    to one lexicographically positive representative per +/- pair, in
    vertex-list order, each with the codomain facets tight at its image.
    """
    ball, target = t.domain.ball, t.codomain.ball
    best, attaining = ball.image_gauge_max(target, t.matrix.row_data)
    if not best:
        raise ZeroOperatorError("the zero operator attains no norm")
    pairs = {}
    for k, tight in attaining.items():
        v = ball.vertices[k]
        c = sign_canonical(v)
        if c.entries not in pairs:
            facets = [target.functionals[j] for j in tight]
            pairs[c.entries] = (c, tuple(facets if c is v else [-f for f in facets]))
    reps, image_facets = zip(*pairs.values())
    return AttainmentSet(best, reps, tuple(greedy_independent_subset(reps)), image_facets)


def _extreme_members(t: LinearOperator, r: Sequence[Vector]) -> list[Vector]:
    """Members of r that are ball vertices, one per +/- pair, input order."""
    reps: list[Vector] = []
    seen = set()
    for x in r:
        if t.domain.ball.has_vertex(x):
            c = sign_canonical(x)
            if c.entries not in seen:
                seen.add(c.entries)
                reps.append(c)
    return reps


def _basis(given: Optional[Sequence[Vector]], members: list[Vector], name: str,
           spanned: str) -> list[Vector]:
    """A greedy basis of the span of ``members`` in input order, or the
    ``given`` one once it is checked to be a basis of that span."""
    if given is None:
        return [members[i] for i in greedy_independent_subset(members)]
    basis = list(given)
    if rank_of_vectors(basis) != len(basis):
        raise NotIndependentError(f"explicit {name} basis is dependent")
    if rank_of_vectors(basis + members) != len(basis):
        raise ValidationError(f"explicit {name} basis does not span {spanned}")
    return basis


def _index_computation(t: LinearOperator, r: Sequence[Vector],
                       vector_basis: Optional[Sequence[Vector]] = None,
                       functional_basis: Optional[Sequence[Vector]] = None,
                       ) -> IndexComputation:
    if not r:
        raise ValidationError("R must be nonempty")
    field = t.domain.field
    for x in r:
        if norm(t.domain, x) != field.one:
            raise NotUnitNormError(f"R member {x} is not unit norm")
    reps = _extreme_members(t, r)
    if not reps:
        raise EmptyExtremeIntersectionError(
            "R contains no extreme point of the domain ball")
    chosen = _basis(vector_basis, list(r), "vector", "R")

    supports = []
    collected: list[Vector] = []
    for v, image in zip(reps, images(t.matrix.row_data, reps)):
        if image.is_zero():
            raise ValidationError(
                f"image of extreme point {v} is zero; support set undefined")
        sup = support_functionals_at(t.codomain, image)
        supports.append(sup)
        collected.extend(sup.extreme_functionals)
    f_basis = _basis(functional_basis, collected, "functional", "the support functionals")

    alphas = solve(Matrix.from_columns(chosen), reps, cleared=True)
    if alphas is None:
        raise SpanViolationError("an attaining vector is outside the collected span")
    betas = solve(Matrix.from_columns(f_basis), collected, cleared=True)
    if betas is None:
        raise SpanViolationError("a support functional is outside the collected span")
    # the coefficient tuples on integers, over the product of the two dets
    (alphas, a), (betas, b) = alphas, betas
    rows = outer_rows([alpha for alpha, sup in zip(alphas, supports)
                       for _ in sup.extreme_functionals], betas, field)
    generators = [from_cleared_row(row, a * b, field) for row in rows]
    return IndexComputation(tuple(reps), tuple(supports), tuple(chosen),
                            tuple(f_basis), tuple(generators), _rank_of_lists(rows, field))


def index_of_smoothness(t: LinearOperator, r: Sequence[Vector],
                        vector_basis: Optional[Sequence[Vector]] = None,
                        functional_basis: Optional[Sequence[Vector]] = None) -> int:
    """The index of smoothness of ``t`` with respect to the set ``r``.

    The rank of the coefficient tuples built from the extreme members of
    ``r`` and the extreme support functionals of their images.  Bases
    default to greedy selections in input order; explicit bases give the
    same value (basis invariance, property-tested).
    """
    return _index_computation(t, r, vector_basis, functional_basis).index


def _pair_rank(att: AttainmentSet) -> int:
    """Rank of the flattened ``x (x) y*`` over the scan's (vertex, facet) pairs."""
    return outer_product_rank([(x, y_star)
                               for x, facets in zip(att.attaining_vertices, att.image_facets)
                               for y_star in facets])


def oracle_order_of_smoothness(t: LinearOperator) -> int:
    """Basis-free order of smoothness via flattened ambient outer products."""
    att = t.attainment
    if att.operator_norm != t.domain.field.one:
        raise NotUnitNormError(f"operator norm is {serialize(att.operator_norm)}, not 1")
    return _pair_rank(att)


def order_of_smoothness(t: LinearOperator) -> SmoothnessReport:
    """The order of smoothness of a unit-norm operator, fully audited.

    Runs the attainment scan once, then the index on the image support sets
    and the outer-product oracle on the scan's (vertex, facet) pairs, asserts
    that they agree and that the sum of image smoothness orders over a
    maximal independent attaining set does not exceed them; returns the trail.
    """
    att = t.attainment
    if att.operator_norm != t.domain.field.one:
        raise NotUnitNormError(
            f"operator norm is {serialize(att.operator_norm)}, not 1; rescale first")
    comp = _index_computation(t, list(att.attaining_vertices))
    if comp.rep_vertices != att.attaining_vertices:
        raise InternalInconsistencyError(
            "index computation saw other attaining vertices than the scan")
    oracle = _pair_rank(att)
    if comp.index != oracle:
        raise InternalInconsistencyError(
            f"index {comp.index} by basis coordinates but {oracle} by the "
            f"outer-product oracle")
    min_bound = 0
    for i in att.basis_indices:
        min_bound += comp.image_supports[i].smoothness_order
    if min_bound > comp.index:
        raise InternalInconsistencyError(
            f"lower bound {min_bound} exceeds computed order {comp.index}")
    return SmoothnessReport(**vars(comp), attainment=att, oracle_order=oracle,
                            min_bound=min_bound)


PAPER_EXAMPLE_REFERENCE_ORDER = 7
"""Documented reference value for the bundled example's smoothness order.

The tool's two-way-consistent computation gives 8; the difference is
flagged in reports, never silently reconciled (the reference listing of
the coefficient tuples appears to contain a transcription error in one
generator).
"""


def paper_example_operator() -> LinearOperator:
    """The bundled example operator from the octagonal-bipyramid space into
    the 3-dimensional max-norm space:
    ``T(v1,v2,v3) = (v1+(r2-1)v2+v3, (r2-1)v1+v2-v3, v1+v3)``."""
    domain = paper_example_space()
    codomain = ellinf(3, FieldTag.QUAD_SQRT2)
    r2m1 = QuadScalar(-1, 1)
    one, zero = QuadScalar(1), QuadScalar(0)
    matrix = Matrix([[one, r2m1, one],
                     [r2m1, one, -one],
                     [one, zero, one]], FieldTag.QUAD_SQRT2)
    return LinearOperator(domain, codomain, matrix)


def rank1_admissible_orders(n: int, m: int) -> list[int]:
    """All orders a rank-1 unit-norm operator can have between dims n and m."""
    if n < 1 or m < 1:
        raise ValidationError("dimensions must be positive")
    check_guard(n, 0)
    check_guard(m, 0)
    return sorted({p * q for p in range(1, n + 1) for q in range(1, m + 1)})


def rank1_forbidden_primes(admissible: Sequence[int]) -> set[int]:
    """Primes up to n*m that are not admissible rank-1 orders, given
    ``admissible = rank1_admissible_orders(n, m)``, whose largest member is n*m.

    Derived from the admissible set itself rather than from a stated
    prime range, so boundary cases resolve themselves.
    """
    top = max(admissible)
    allowed = set(admissible)
    is_prime = [True] * (top + 1)
    primes = set()
    for k in range(2, top + 1):
        if is_prime[k]:
            if k not in allowed:
                primes.add(k)
            for j in range(k * k, top + 1, k):
                is_prime[j] = False
    return primes


def construct_face_operator(x_space: PolyhedralSpace, face: FaceDescriptor,
                            y_space: PolyhedralSpace, u: Vector) -> LinearOperator:
    """The operator of ``face_operator_and_order``."""
    return face_operator_and_order(x_space, face, y_space, u)[0]


def face_operator_and_order(x_space: PolyhedralSpace, face: FaceDescriptor,
                            y_space: PolyhedralSpace, u: Vector,
                            ) -> tuple[LinearOperator, SmoothnessReport]:
    """The rank-one ``x -> f(x) u``, which attains its norm exactly on
    ``+/-face`` and maps the face to ``u``, with its verified order report.

    ``f`` is the mean of the face's facet functionals.  Each of them is at
    most 1 on the ball, so ``|f| <= 1`` there, with ``f = 1`` exactly where
    all of them are 1, on the face (its active set is full), and ``f = -1``
    exactly on ``-face``.  With ``||u|| = 1`` the operator therefore has norm
    1 and attains it exactly on ``+/-face``.  It is also the unique operator
    sending ``p = dim face + 1`` independent face vertices to ``u`` and the
    kernel of ``f`` to zero.  The construction is verified by re-running
    attainment and the order computation: the order is p*q for a q-smooth
    image point, and that report is returned with the operator.
    """
    field = x_space.field
    if field is not y_space.field:
        raise FieldMismatchError("domain and codomain over different fields")
    if x_space.ball.face(face.active_set) != face:
        raise NotProperFaceError("face dimension does not match its active set")
    if norm(y_space, u) != y_space.field.one:
        raise NotUnitNormError(f"target point {u} is not unit norm")

    face_vertices = x_space.ball.face_vertices(face)
    total = Vector.zero(x_space.dim, field)
    for j in sorted(face.active_set):
        total = total + x_space.ball.functionals[j]
    avg = total.scale(field.one / field.from_int(len(face.active_set)))
    for v in face_vertices:
        if avg.dot(v) != field.one:
            raise InternalInconsistencyError(
                "averaged face functional is not 1 on a face vertex")
    p = face.dim + 1
    operator = LinearOperator(x_space, y_space,
                              Matrix([[a * b for b in avg] for a in u], field))

    att = operator.attainment
    expected = {sign_canonical(v).entries for v in face_vertices}
    got = {v.entries for v in att.attaining_vertices}
    if att.operator_norm != field.one or got != expected:
        raise InternalInconsistencyError(
            "constructed operator does not attain exactly on the face")
    for v in att.attaining_vertices:
        image = operator.apply(v)
        if image != u and image != -u:
            raise InternalInconsistencyError(
                "constructed operator maps an attaining vertex off +/-u")
    q = point_smoothness(y_space, u)
    report = order_of_smoothness(operator)
    if report.index != p * q:
        raise InternalInconsistencyError(
            f"constructed operator has order {report.index}, expected {p * q}")
    return operator, report
