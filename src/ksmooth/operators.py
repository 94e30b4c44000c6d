"""Linear operators between polyhedral spaces and their smoothness orders.

The order of smoothness of a unit-norm operator is computed along two
independent routes, and every report cross-asserts that they agree:

* the index route works in basis coordinates: pick a basis of the span of
  the attaining extreme vectors and a basis of the span of the collected
  extreme support functionals of their images, express each attaining
  vector and each of its image functionals in those bases, and take the
  rank of the resulting coefficient tuples ``((alpha_i beta_j))``;

* the oracle route works in ambient coordinates: take the rank of the
  flattened outer products ``x (x) y*`` over attaining extreme vectors
  ``x`` and extreme support functionals ``y*`` of ``Tx``.

Both ranks equal the dimension of the span of the extreme support
functionals of the operator itself, so a mismatch is a kernel bug and is
surfaced as an internal inconsistency, never patched.

Everything here is finite-dimensional, which is what makes the oracle
characterization unconditional: every operator is compact, attains its
norm on a ball vertex, and the functional-analytic side conditions that
matter in infinite dimensions hold vacuously.  Operators on smooth or
strictly convex (non-polyhedral) spaces are out of scope.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from .errors import (
    DimensionMismatchError,
    EmptyExtremeIntersectionError,
    FieldMismatchError,
    InternalInconsistencyError,
    CompletionFailureError,
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
    greedy_independent_subset,
    kron_coeff_vector,
    nullspace,
    rank,
    rank_of_vectors,
    solve,
)
from .polytope import FaceDescriptor
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

    def normalized(self) -> "LinearOperator":
        """Rescale to unit operator norm.

        Both supported fields are closed under division, so the quotient
        never leaves the field.
        """
        n = operator_norm_and_attainment(self).operator_norm
        return LinearOperator(self.domain, self.codomain,
                              self.matrix.scale(self.domain.field.one / n))


@dataclass(frozen=True)
class AttainmentSet:
    """Norm value and the extreme points attaining it, one per +/- pair."""

    operator_norm: Scalar
    attaining_vertices: tuple[Vector, ...]
    basis_indices: tuple[int, ...]


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
class SmoothnessReport:
    """Full audit trail of an order-of-smoothness computation."""

    attainment: AttainmentSet
    image_supports: tuple[SupportSet, ...]
    vector_basis: tuple[Vector, ...]
    functional_basis: tuple[Vector, ...]
    z_generators: tuple[Vector, ...]
    index: int
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
    vertex-list order.
    """
    vertices = t.domain.ball.vertices
    values = [norm(t.codomain, t.apply(v)) for v in vertices]
    best = max(values)
    if not best:
        raise ZeroOperatorError("the zero operator attains no norm")
    reps = _extreme_members(t, [v for v, n in zip(vertices, values) if n == best])
    basis = greedy_independent_subset(reps)
    return AttainmentSet(best, tuple(reps), tuple(basis))


def _extreme_members(t: LinearOperator, r: Sequence[Vector]) -> list[Vector]:
    """Members of r that are ball vertices, one per +/- pair, input order."""
    vertex_entries = {v.entries for v in t.domain.ball.vertices}
    reps: list[Vector] = []
    seen = set()
    for x in r:
        if x.entries in vertex_entries:
            c = sign_canonical(x)
            if c.entries not in seen:
                seen.add(c.entries)
                reps.append(c)
    return reps


def _coordinates(basis: Sequence[Vector], target: Vector,
                 what: str) -> Vector:
    solution = solve(Matrix.from_columns(list(basis)), target)
    if solution is None:
        raise SpanViolationError(f"{what} {target} is outside the collected span")
    return solution


def _index_computation(t: LinearOperator, r: Sequence[Vector],
                       vector_basis: Optional[Sequence[Vector]] = None,
                       functional_basis: Optional[Sequence[Vector]] = None,
                       ) -> IndexComputation:
    if not r:
        raise ValidationError("R must be nonempty")
    one = t.domain.field.one
    for x in r:
        if norm(t.domain, x) != one:
            raise NotUnitNormError(f"R member {x} is not unit norm")
    reps = _extreme_members(t, r)
    if not reps:
        raise EmptyExtremeIntersectionError(
            "R contains no extreme point of the domain ball")

    if vector_basis is None:
        chosen = [r[i] for i in greedy_independent_subset(list(r))]
    else:
        chosen = list(vector_basis)
        if rank_of_vectors(chosen) != len(chosen):
            raise NotIndependentError("explicit vector basis is dependent")
        if rank_of_vectors(chosen + list(r)) != len(chosen):
            raise ValidationError("explicit vector basis does not span R")

    supports = []
    collected: list[Vector] = []
    for v in reps:
        image = t.apply(v)
        if image.is_zero():
            raise ValidationError(
                f"image of extreme point {v} is zero; support set undefined")
        sup = support_functionals_at(t.codomain, image)
        supports.append(sup)
        collected.extend(sup.extreme_functionals)

    if functional_basis is None:
        f_basis = [collected[i] for i in greedy_independent_subset(collected)]
    else:
        f_basis = list(functional_basis)
        if rank_of_vectors(f_basis) != len(f_basis):
            raise NotIndependentError("explicit functional basis is dependent")
        if rank_of_vectors(f_basis + collected) != len(f_basis):
            raise ValidationError(
                "explicit functional basis does not span the support functionals")

    generators = []
    for v, sup in zip(reps, supports):
        alpha = _coordinates(chosen, v, "attaining vector")
        for y_star in sup.extreme_functionals:
            beta = _coordinates(f_basis, y_star, "support functional")
            generators.append(kron_coeff_vector(alpha, beta))
    return IndexComputation(tuple(reps), tuple(supports), tuple(chosen),
                            tuple(f_basis), tuple(generators),
                            rank_of_vectors(generators))


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


def _outer_product_rank(vertices: Sequence[Vector],
                        supports: Sequence[SupportSet]) -> int:
    """Rank of the flattened ``x (x) y*`` over each vertex x and each y* of its support."""
    return rank_of_vectors([kron_coeff_vector(v, y_star)
                            for v, sup in zip(vertices, supports)
                            for y_star in sup.extreme_functionals])


def oracle_order_of_smoothness(t: LinearOperator) -> int:
    """Basis-free order of smoothness via flattened ambient outer products."""
    att = operator_norm_and_attainment(t)
    if att.operator_norm != t.domain.field.one:
        raise NotUnitNormError(f"operator norm is {serialize(att.operator_norm)}, not 1")
    vertices = att.attaining_vertices
    return _outer_product_rank(
        vertices, [support_functionals_at(t.codomain, t.apply(v)) for v in vertices])


def order_of_smoothness(t: LinearOperator) -> SmoothnessReport:
    """The order of smoothness of a unit-norm operator, fully audited.

    Runs the attainment scan once, then the basis-coordinate index and the
    ambient outer-product oracle on the same image support sets, asserts that
    they agree and that the sum of image smoothness orders over a maximal
    independent attaining set does not exceed them, and returns the trail.
    """
    att = operator_norm_and_attainment(t)
    if att.operator_norm != t.domain.field.one:
        raise NotUnitNormError(
            f"operator norm is {serialize(att.operator_norm)}, not 1; rescale first")
    comp = _index_computation(t, list(att.attaining_vertices))
    if comp.rep_vertices != att.attaining_vertices:
        raise InternalInconsistencyError(
            "index computation saw other attaining vertices than the scan")
    oracle = _outer_product_rank(att.attaining_vertices, comp.image_supports)
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
    return SmoothnessReport(att, comp.image_supports, comp.vector_basis,
                            comp.functional_basis, comp.z_generators,
                            comp.index, oracle, min_bound)


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
    return sorted({p * q for p in range(1, n + 1) for q in range(1, m + 1)})


def rank1_forbidden_primes(n: int, m: int) -> set[int]:
    """Primes up to n*m that are not admissible rank-1 orders.

    Derived from the admissible set itself rather than from a stated
    prime range, so boundary cases resolve themselves.
    """
    admissible = set(rank1_admissible_orders(n, m))
    top = n * m
    is_prime = [True] * (top + 1)
    primes = set()
    for k in range(2, top + 1):
        if is_prime[k]:
            if k not in admissible:
                primes.add(k)
            for j in range(k * k, top + 1, k):
                is_prime[j] = False
    return primes


def construct_face_operator(x_space: PolyhedralSpace, face: FaceDescriptor,
                            y_space: PolyhedralSpace, u: Vector) -> LinearOperator:
    """An operator attaining its norm exactly on ``+/-face``, mapping it to ``u``.

    The averaged active facet functional ``f`` equals 1 exactly on the
    face; independent face vertices are completed to a basis with kernel
    vectors of ``f``, the face vertices map to ``u`` and the completion to
    zero.  The construction is verified by re-running attainment and the
    order computation: the order is p*q for p independent face vertices
    and a q-smooth image point.
    """
    field = x_space.field
    if not face.active_set:
        raise NotProperFaceError("face descriptor does not name a proper face")
    active = sorted(face.active_set)
    try:
        functionals = [x_space.ball.functionals[j] for j in active]
    except IndexError:
        raise NotProperFaceError("face active set indexes unknown facets") from None
    if x_space.dim - rank_of_vectors(functionals) != face.dim:
        raise NotProperFaceError("face dimension does not match its active set")
    if norm(y_space, u) != y_space.field.one:
        raise NotUnitNormError(f"target point {u} is not unit norm")

    face_vertices = x_space.ball.face_vertices(face)
    if not face_vertices:
        raise NotProperFaceError("face has no vertices")

    total = Vector.zero(x_space.dim, field)
    for f in functionals:
        total = total + f
    avg = total.scale(field.one / field.from_int(len(functionals)))
    for v in face_vertices:
        if avg.dot(v) != field.one:
            raise InternalInconsistencyError(
                "averaged face functional is not 1 on a face vertex")

    keep = greedy_independent_subset(face_vertices)
    base = [face_vertices[i] for i in keep]
    p = len(base)
    if p != face.dim + 1:
        raise InternalInconsistencyError(
            f"face of dimension {face.dim} spans rank {p}, expected {face.dim + 1}")

    kernel = nullspace(Matrix([list(avg.entries)], field))
    candidates = base + kernel
    chosen = [candidates[i] for i in greedy_independent_subset(candidates)]
    if len(chosen) != x_space.dim:
        raise CompletionFailureError(
            f"basis completion found only {len(chosen)} of {x_space.dim} vectors")

    basis_matrix = Matrix.from_columns(chosen).transpose()
    image_columns = [u] * p + [Vector.zero(y_space.dim, field)] * (x_space.dim - p)
    image_matrix = Matrix.from_columns(image_columns)
    rows = []
    for i in range(y_space.dim):
        row = solve(basis_matrix, image_matrix.row(i))
        if row is None:
            raise CompletionFailureError("completed basis is singular")
        rows.append(row)
    operator = LinearOperator(x_space, y_space, Matrix.from_rows(rows))

    att = operator_norm_and_attainment(operator)
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
    return operator
