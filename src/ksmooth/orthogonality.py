"""Exact Birkhoff-James orthogonality tests with witness certificates.

``x`` is Birkhoff-James orthogonal to ``y`` when ``||x + t y|| >= ||x||``
for every scalar ``t``; equivalently some norm-one functional supports
``x`` and vanishes on ``y``.  Over a polyhedral ball the support set
``J(x)`` is the convex hull of the facet functionals active at ``x``, so
every test below reduces to exact linear algebra or an exact feasibility
LP over those extreme functionals, named by their facet indices.  Every
witness is found and checked on the ball's cleared integer rows: the ball
clears points and targets once (``Polytope.clear``), ``Polytope.bracket``
and the LP (``solve_lp`` on ``Polytope.witness_lp``'s rows) give cleared
weights over a cleared divisor, and ``Polytope.witness`` checks them and
builds the field scalars of the witness returned.

Subspace-level tests iterate the proper faces of the ball: the support
set is constant on the relative interior of a face, so each face whose
relative interior meets the subspace contributes a single check.
``polytope.faces_meeting`` yields those faces, read off the section of
the ball by the subspace, with a point of each, cleared; the targets are
cleared once per walk.

Every positive verdict carries one witness functional per contributing
face, built from its convex-combination coefficients over the extreme
functionals used and verified exactly, on integers and without the LP,
before being returned.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Sequence

from .errors import (
    DimensionMismatchError,
    FieldMismatchError,
    InternalInconsistencyError,
    NotIndependentError,
    NotUnitNormError,
    SubspaceMembershipError,
    ValidationError,
)
from .linalg import Cleared, Matrix, Vector, rank_of_vectors, solve
from .lp import lp_feasible, solve_lp
from .polytope import FaceDescriptor, faces_meeting
from .scalars import Scalar
from .spaces import PolyhedralSpace, norm, support_facets


@dataclass(frozen=True)
class Subspace:
    """A subspace of a polyhedral space, given by an independent basis."""

    ambient: PolyhedralSpace
    basis: tuple[Vector, ...]

    def __post_init__(self) -> None:
        if not self.basis:
            raise ValidationError("subspace needs at least one basis vector")
        if len(self.basis) > self.ambient.dim:
            raise DimensionMismatchError("more basis vectors than ambient dimensions")
        for b in self.basis:
            if b.field is not self.ambient.field or b.dim != self.ambient.dim:
                raise FieldMismatchError("basis vector outside the ambient space")
        if rank_of_vectors(list(self.basis)) != len(self.basis):
            raise NotIndependentError("subspace basis is linearly dependent")

    @classmethod
    def span(cls, ambient: PolyhedralSpace, vectors: Sequence[Vector]) -> "Subspace":
        return cls(ambient, tuple(vectors))

    def contains(self, x: Vector) -> bool:
        return solve(Matrix.from_columns(list(self.basis)), [x]) is not None


@dataclass(frozen=True)
class Witness:
    """An exact certificate: ``functional`` supports ``point`` and vanishes
    where required; ``coefficients`` are its convex weights over
    ``extremes``."""

    point: Vector
    functional: Vector
    extremes: tuple[Vector, ...]
    coefficients: tuple[Scalar, ...]


@dataclass(frozen=True)
class BJVerdict:
    """Truthy result of an orthogonality test, with certificates."""

    holds: bool
    witnesses: tuple[Witness, ...] = ()
    counterexample_point: Optional[Vector] = None

    def __bool__(self) -> bool:
        return self.holds


def _verify_witness(space: PolyhedralSpace, point: Cleared, facets: Sequence[int],
                    weights: Sequence, divisor: object, vanish_on: Cleared) -> Witness:
    """The witness ``sum c_j f_j`` over the listed facets, ``c`` the cleared
    ``weights`` over the cleared ``divisor``, checked exactly by
    ``Polytope.witness`` on the ball's integer rows (it supports ``point``,
    has norm one and vanishes on ``vanish_on``, and the coefficients are
    convex weights), whichever route found the weights."""
    functional, coefficients = space.ball.witness(facets, weights, divisor, point, vanish_on)
    extremes = tuple(map(space.ball.functional, facets))
    return Witness(point.vectors[0], functional, extremes, coefficients)


def _bracket_witness(space: PolyhedralSpace, point: Cleared,
                     facets: Sequence[int], y: Cleared) -> Optional[Witness]:
    """A functional in the hull of the listed facet functionals vanishing
    at the one target of ``y``, if any.

    Exists iff the values ``f(y)`` over the facets bracket zero.
    """
    found = space.ball.bracket(facets, y)
    if found is None:
        return None
    return _verify_witness(space, point, facets, *found, y)


def bj_vector_vector(space: PolyhedralSpace, x: Vector, y: Vector) -> BJVerdict:
    """Whether the unit vector x is Birkhoff-James orthogonal to y."""
    facets = support_facets(space, x)
    witness = _bracket_witness(space, space.ball.clear([x]), facets, space.ball.clear([y]))
    if witness is None:
        return BJVerdict(False, counterexample_point=x)
    return BJVerdict(True, (witness,))


def _annihilating_witness(space: PolyhedralSpace, point: Cleared, facets: Sequence[int],
                          targets: Cleared) -> Optional[Witness]:
    """A convex combination of the listed facet functionals vanishing on
    all ``targets``: one feasibility LP on the ball's integer rows."""
    rows, rhs = space.ball.witness_lp(facets, targets)
    result = solve_lp(rows, rhs, space.field)
    if result.solution is None:
        return None
    return _verify_witness(space, point, facets, result.solution, result.pivot, targets)


def bj_vector_subspace(space: PolyhedralSpace, x: Vector, w: Subspace) -> BJVerdict:
    """Whether some functional of J(x) annihilates the whole subspace w."""
    facets = support_facets(space, x)
    witness = _annihilating_witness(space, space.ball.clear([x]), facets,
                                    space.ball.clear(w.basis))
    if witness is None:
        return BJVerdict(False, counterexample_point=x)
    return BJVerdict(True, (witness,))


def _relint_sample(space: PolyhedralSpace, face: FaceDescriptor,
                   basis: Sequence[Vector]) -> Optional[Vector]:
    """A point of relint(face) inside span(basis), or None when they miss.

    With ``y = B(u - v)`` and ``a`` the first active facet, asks for
    ``(f_j - f_a)(y) = 0`` on the other active facets and
    ``(f_k - f_a)(y) <= -1`` on every non-active one, ``u, v >= 0``.  Some
    ``y`` passes iff a positive multiple of it lies in relint(face), and
    since ``-f_a`` is non-active, ``f_a(y) >= 1/2`` scales it onto the
    face.  One LP per face: the tests keep it as the reference for
    ``polytope.faces_meeting``.
    """
    field = space.field
    functionals = space.ball.functionals
    active = sorted(face.active_set)
    others = [j for j in range(len(functionals)) if j not in face.active_set]
    if not others:
        raise InternalInconsistencyError(
            "a proper face of a symmetric ball cannot activate every facet")
    zero, one = field.zero, field.one
    values = [[f.dot(b) for b in basis] for f in functionals]

    def row(j: int) -> list[Scalar]:
        d = [x - y for x, y in zip(values[j], values[active[0]])]
        return d + [-x for x in d]

    rows = [row(j) + [zero] * len(others) for j in active[1:]]
    rhs = [zero] * len(rows)
    for k, j in enumerate(others):
        rows.append(row(j) + [one if kk == k else zero for kk in range(len(others))])
        rhs.append(-one)
    solution = lp_feasible(rows, rhs, field)
    if solution is None:
        return None
    r = len(basis)
    y = Matrix.from_columns(list(basis)).matvec(
        Vector([solution[i] - solution[r + i] for i in range(r)], field))
    return y.scale(one / functionals[active[0]].dot(y))


def _walk_faces(space: PolyhedralSpace, v: Subspace, witness: Callable[..., Optional[Witness]],
                targets: Sequence[Vector]) -> BJVerdict:
    """``witness(space, point, facets, cleared)`` on each face of the ball
    meeting v, ``facets`` its sorted active set and ``cleared`` the targets,
    cleared once; the first face without a witness gives the counterexample."""
    cleared = space.ball.clear(targets)
    witnesses = []
    for face, point in faces_meeting(space.ball, v.basis):
        found = witness(space, point, sorted(face.active_set), cleared)
        if found is None:
            return BJVerdict(False, counterexample_point=point.vectors[0])
        witnesses.append(found)
    return BJVerdict(True, tuple(witnesses))


def bj_subspace_vector(space: PolyhedralSpace, v: Subspace, z: Vector) -> BJVerdict:
    """Whether every unit vector of the subspace v is BJ-orthogonal to z.

    The support set is constant on the relative interior of each face, so
    each face meeting v contributes one bracketing test over its active
    functionals.
    """
    return _walk_faces(space, v, _bracket_witness, [z])


def bj_subspace_subspace(space: PolyhedralSpace, v: Subspace, w: Subspace) -> BJVerdict:
    """Whether every unit vector of v admits one support functional
    annihilating all of w."""
    return _walk_faces(space, v, _annihilating_witness, w.basis)


def is_best_coapproximation(space: PolyhedralSpace, x: Vector, y0: Vector,
                            y: Subspace) -> BJVerdict:
    """Whether y0 is a best coapproximation to x out of the subspace y,
    i.e. whether y is BJ-orthogonal to x - y0."""
    if not y.contains(y0):
        raise SubspaceMembershipError(f"{y0} is not in the subspace")
    return bj_subspace_vector(space, y, x - y0)


def is_strong_auerbach(space: PolyhedralSpace, basis: Sequence[Vector]) -> BJVerdict:
    """Whether every sub-span of the basis (``space.dim`` vectors) is BJ-orthogonal
    to the complementary sub-span (all 2^n - 2 nonempty proper subsets)."""
    if len(basis) != space.dim:
        raise DimensionMismatchError(
            f"a basis of {space.name} has {space.dim} vectors, not {len(basis)}")
    one = space.field.one
    for b in basis:
        if norm(space, b) != one:
            raise NotUnitNormError(f"basis vector {b} is not unit norm")
    if rank_of_vectors(list(basis)) != len(basis):
        raise NotIndependentError("basis is linearly dependent")
    n = len(basis)
    witnesses: list[Witness] = []
    for mask in range(1, 2 ** n - 1):
        left = [basis[i] for i in range(n) if mask & (1 << i)]
        right = [basis[i] for i in range(n) if not mask & (1 << i)]
        verdict = bj_subspace_subspace(space, Subspace.span(space, left),
                                       Subspace.span(space, right))
        if not verdict:
            return BJVerdict(False, counterexample_point=verdict.counterexample_point)
        witnesses.extend(verdict.witnesses)
    return BJVerdict(True, tuple(witnesses))
