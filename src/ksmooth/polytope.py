"""Exact symmetric polytopes given by vertices and facet functionals.

A unit ball here is a full-dimensional polytope, symmetric about the
origin, with the origin in its interior.  It is held as its extreme points
(``vertices``) and the functionals ``f`` with ``f(x) <= 1`` on it, one per
facet (``functionals``).  By polarity the facet functionals, read as
points, are the vertices of the polar, and ``dual_vertices`` computes one
tuple from the other by incremental double description (Fukuda & Prodon,
1996) on integers: it takes the points as rows ``P`` cleared over a scale
``s``, as its callers hold them, and returns rows, so it clears nothing
and builds no field scalar.  One fraction-free reduction of ``P`` picks
the first d independent points and gives the 2^d corners of their
parallelotope, and the other halfspaces clip it in input order.  A vertex
``v = N / h`` is held as its primitive homogeneous row ``(N, h)`` (``h`` a
positive integer; over Q(sqrt 2) made rational with its conjugate), the
key that merges a vertex reached from two edges; the sign of ``p.v - 1``
is that of ``P.N - s h``, and a new vertex is an integer combination of
its edge's ends divided by a gcd.  A tight set is an ``int`` bit mask over
the indices of ``P``, and adjacency is decided on the masks alone: two
vertices span an edge iff no third vertex is tight on every constraint
tight at both (Fukuda & Prodon, 1996, Prop. 7), which is exact for
degenerate polytopes too and takes no rank.  Tight sets need no scan: a
vertex made strictly inside an edge is tight exactly where both ends are
and on the constraint inserted.  The one rank is the final check that the
tight rows of each vertex returned have rank d.

A ball is built by double description alone, with no LP: ``canonicalize``
keeps a boundary point of one pass on the cleared input rows when no
other point is tight on every facet tight at it (a containment test on
the pass's tight sets, with no rank; the proof is in its docstring).  The
facet order of every report is that of a pass on the extreme points in
first-seen order.  ``Polytope.from_rows`` runs that pass only when a
non-extreme point shaped the first one, itself in first-seen order;
otherwise it keeps the first pass's facets, which are the same.
``Polytope.__init__`` checks the rank of each vertex's tight facets, a
second route independent of the containment test.  ``in_convex_hull``
(one LP per point) is the tests' reference route for ``canonicalize``.
``faces_meeting`` restricts the rows ``F`` to a subspace on integers and
reads the faces it meets from one pass's tight sets, without building the
section as a ``Polytope``.

A ``Polytope`` is held as both tuples cleared, ``V`` over ``E`` and ``F``
over ``D``, read through the field table ``_FIELD_OPS`` of
:mod:`ksmooth.scalars`; ``vertices`` and ``functionals`` are built on first
read.  A ball built from points keeps ``V`` over their scale, and as DD's
facet rows ``(N_j, h_j)`` are primitive, the entries of ``N_j / h_j`` have
lcm of denominators ``h_j``, so ``D = lcm_j h_j`` and ``F_j = N_j D / h_j``
(``_FieldOps.common``).  ``_row_max`` finds the rows tight at a cleared
point: at the rows of ``V`` for the incidence check of ``Polytope.__init__``,
at one cleared point for ``facets_at``, the only point scan, and at each
integer image ``An V_k`` for ``image_gauge_max``, the operators' attainment
scan; ``images`` forms such products for the index of smoothness, and
``facet_rank`` ranks a set of facets on the rows of ``F``.  The
Birkhoff-James witnesses of :mod:`ksmooth.orthogonality` are integer work on
the same rows: ``values_at`` evaluates facets at a point, ``witness_lp``
forms the LP rows ``F_j . W_k``, and ``witness`` checks a convex combination
of facets against ``V`` without the LP.

Faces are keyed by their full active set (the maximal set of facets
containing them).  ``_minimal_face_of`` is the one face-dimension
routine, the rank of the face's rows of ``V`` minus one; the cached face
lattice behind ``Polytope.face`` holds its value on every active set, and
the facet side, ``d - rank{f_j : j in A}``, is the tests' reference route.
"""

from __future__ import annotations

import itertools
import os
from collections import deque
from dataclasses import dataclass
from functools import cached_property
from operator import mul
from typing import Iterable, Sequence

from .errors import (
    DimensionMismatchError,
    FieldMismatchError,
    GuardExceededError,
    InternalInconsistencyError,
    NotFullDimensionalError,
    NotOnBoundaryError,
    NotProperFaceError,
    NotSymmetricError,
    OriginNotInteriorError,
    ValidationError,
)
from .linalg import (
    Vector,
    _entry,
    _rank_of_lists,
    _reduced,
    clear_denominators,
    from_cleared,
    from_cleared_row,
)
from .lp import lp_feasible
from .scalars import _FIELD_OPS, FieldTag, Scalar, _primitive, serialize

DEFAULT_MAX_DIM = 6
DEFAULT_MAX_VERTICES = 64


def _max_dim() -> int:
    raw = os.environ.get("KSMOOTH_MAX_DIM")
    if raw is None:
        return DEFAULT_MAX_DIM
    try:
        return int(raw)
    except ValueError:
        raise ValidationError(
            f"KSMOOTH_MAX_DIM must be an integer, not {raw!r}") from None


def check_guard(dim: int, vertex_count: int) -> None:
    """Reject a dimension above the guard, and more vertices than
    ``max(DEFAULT_MAX_VERTICES, 2**max_dim)``."""
    max_dim = _max_dim()
    if dim > max_dim:
        raise GuardExceededError(
            f"dimension {dim} exceeds guard {max_dim} (set KSMOOTH_MAX_DIM to raise)")
    # vertex_count > 2**max_dim is decided by bit length: a large
    # KSMOOTH_MAX_DIM would make the power itself huge to form.  A negative
    # max_dim leaves only the default limit.
    if vertex_count > DEFAULT_MAX_VERTICES and (
            max_dim < 0 or (vertex_count - 1).bit_length() > max_dim):
        raise GuardExceededError(
            f"{vertex_count} vertices exceed guard "
            f"{max(DEFAULT_MAX_VERTICES, 2 ** max(max_dim, 0))}")


@dataclass(frozen=True)
class FaceDescriptor:
    """A face identified by the maximal set of facets containing it."""

    active_set: frozenset[int]
    dim: int


def _negation_index(rows: Sequence, scale: int, field: FieldTag) -> list[int]:
    """For each row cleared over ``scale``, the index of its negation;
    NotSymmetricError, naming the point of the first unpaired row, if absent."""
    ops = _FIELD_OPS[field]
    position = {row: i for i, row in enumerate(rows)}
    pairs = [position.get(ops.negate(row)) for row in rows]
    if None in pairs:
        point = from_cleared_row(rows[pairs.index(None)], scale, field)
        raise NotSymmetricError(f"point set not closed under negation: {point}")
    return pairs


def in_convex_hull(point: Vector, generators: Sequence[Vector]) -> bool:
    """Exact membership of ``point`` in the convex hull of ``generators``.

    One LP; only the tests call it, as the reference route for ``canonicalize``."""
    if not generators:
        return False
    field = point.field
    rows = [[g[i] for g in generators] for i in range(point.dim)]
    rows.append([field.one] * len(generators))
    rhs = list(point.entries) + [field.one]
    return lp_feasible(rows, rhs, field) is not None


def canonicalize(points: Sequence[Vector]) -> tuple[Vector, ...]:
    """Reduce a point set to its extreme points, in first-seen order.

    The points are cleared once over one common scale and keyed by their
    integer rows; the negated row of a distinct point is added only when no
    input point has it.  One double description pass runs on these rows in
    first-seen order (the distinct rows, then the added negations), and its
    tight sets, transposed, give ``T(i)``, the facets of the hull tight at
    point ``i``.  Point ``i`` is extreme iff ``T(i)`` is nonempty and no
    other point ``j`` has ``T(j) >= T(i)``, that is, iff ``i`` alone is
    tight on all of ``T(i)``.  The test is exact on degenerate input: an
    interior point has no tight facet; a boundary point that is not extreme
    lies in the relative interior of a face of dimension at least 1, whose
    vertices are input points tight wherever it is; and an extreme point
    ``v`` is the only point of the face cut out by ``T(v)``.  No rank is
    taken here, so the rank check of ``Polytope.__init__`` on every kept
    vertex is an independent second route.

    When every row in the pass's ``shaped`` mask is extreme, its facet rows
    are those of a pass on the extreme points alone, in the same order, and
    ``Polytope.from_rows`` keeps them: extreme pivots of the initial
    reduction are the first d independent extreme points; corner and edge
    rows are primitive, so they do not depend on the scale the input was
    cleared over; and a row that cuts off no vertex only adds tight bits,
    which change no adjacency decision, as adjacency is geometric (Fukuda &
    Prodon, 1996, Prop. 7).

    The kept points must be closed under negation (asymmetry is an error,
    not repaired), and a point set that does not span raises
    ``NotFullDimensionalError``.
    """
    field = points[0].field if points else FieldTag.RATIONAL
    cleared, scale = clear_denominators((p.entries for p in points), field)
    first = dict(zip(reversed(cleared), reversed(points)))  # each row's first point
    return tuple(first[row] for row in _extreme_points(cleared, scale, field)[0])


def _extreme_points(P: Sequence, scale: int,
                    field: FieldTag) -> tuple[list[tuple], list[tuple] | None]:
    """``canonicalize``'s extreme rows among the points ``P / scale``, and
    the facet rows of its double description pass when they equal those of
    a pass on the extreme points alone: when every row in the pass's
    ``shaped`` mask is extreme."""
    ops = _FIELD_OPS[field]
    distinct = dict.fromkeys(P)
    rows = list(distinct)
    lonely = [i for i, row in enumerate(rows) if ops.negate(row) not in distinct]
    rows += [ops.negate(rows[i]) for i in lonely]
    facets, tight, shaped = dual_vertices(rows, scale, field)
    at: list[list[frozenset[int]]] = [[] for _ in rows]  # the tight sets, transposed
    for members in tight:
        for h in members:
            at[h].append(members)
    extreme = [bool(sets) and frozenset.intersection(*sets) == {h} for h, sets in enumerate(at)]
    for i, keep in zip(lonely, extreme[len(distinct):]):
        if keep:
            raise NotSymmetricError("point set not closed under negation: "
                                    f"{from_cleared_row(rows[i], scale, field)}")
    kept = [row for row, keep in zip(rows, extreme) if keep]
    return kept, facets if all(extreme[h] for h in _members(shaped)) else None


def dual_vertices(P: Sequence, scale: int,
                  field: FieldTag) -> tuple[list[tuple], list[frozenset[int]], int]:
    """Vertices of ``{f : p.f <= 1 for each p}`` by double description,
    each with its tight set: the indices of the points ``p`` with ``p.f == 1``.

    The points ``P_i / scale`` come as ``clear_denominators`` rows, and each
    vertex leaves as its primitive homogeneous row ``(N, h)``;
    ``_FIELD_OPS[field].common`` clears them over ``lcm h``.  The input must
    be symmetric and span the ambient space (otherwise the polar is
    unbounded), and the output order follows the input order.  ``shaped``
    is an ``int`` bit mask over the indices of ``P``: the first d
    independent points and their negations, which bound the initial
    parallelotope, and every point whose insertion cut off a vertex.
    """
    if not P:
        raise NotFullDimensionalError("empty point set")
    ops = _FIELD_OPS[field]
    d = ops.width(P[0])
    negation = _negation_index(P, scale, field)

    # reduce the columns P^T with d unit right-hand sides: the pivots are the
    # first d independent points, the rows of P_init, and the right-hand
    # side rows become det times the inverse of P_init, transposed
    unit = [(0,) * t + (1,) + (0,) * (d - 1 - t) for t in range(d)]
    if field is FieldTag.RATIONAL:
        columns = list(zip(*P, *unit))
    else:
        columns = list(zip(zip(*[a for a, _ in P], *unit),
                           zip(*[b for _, b in P], *[(0,) * d] * d)))
    rows, init, det = _reduced(columns, field, len(P), True)
    width = len(rows[0]) - d
    if len(init) < d:
        raise NotFullDimensionalError(
            f"points span only {len(init)} of {d} dimensions")

    # the corner of the initial parallelotope |p_i . f| <= 1 with signs s
    # solves P_init x = scale s, so it is read straight off the reduced rows
    inverse = [[_entry(rows, k, width + t, field) for k in range(d)] for t in range(d)]
    corners = list(itertools.product((1, -1), repeat=d))
    verts = [_corner(inverse, signs, scale, det, field) for signs in corners]
    # a tight set is an int bit mask over the indices of P
    masks = [sum(1 << (init[j] if s == 1 else negation[init[j]]) for j, s in enumerate(signs))
             for signs in corners]
    constraints = [ops.entries(row, -scale) for row in P]

    inserted = set(init) | {negation[i] for i in init}
    shaped = sum(1 << i for i in inserted)
    for idx, p in enumerate(constraints):
        if idx in inserted:
            continue
        bit = 1 << idx
        values = ops.values(p, verts)
        # p cuts off the vertices in out and keeps the others: those in
        # into strictly inside it, and the rest, which become tight on p
        out, into, keep = [], [], []
        for k, val in enumerate(values):
            sign = ops.sign(val)
            if sign > 0:
                out.append(k)
            else:
                keep.append(k)
                if sign:
                    into.append(k)
                else:
                    masks[k] |= bit
        if not out:
            continue
        shaped |= bit
        new_verts = {}
        for k_out in out:
            for k_in in into:
                common = masks[k_out] & masks[k_in]
                # u and w span an edge iff no third vertex is tight on every
                # constraint tight at both, which cut out the smallest face
                # holding u and w (Fukuda & Prodon, 1996, Prop. 7); an edge
                # lies on at least d - 1 of them
                if (common.bit_count() < d - 1
                        or [mask & common for mask in masks].count(common) > 2):
                    continue
                z = ops.edge(values[k_out], verts[k_out], values[k_in], verts[k_in])
                # z lies strictly inside the edge uw: an inserted constraint
                # is tight at z exactly when it is tight at both ends
                new_verts.setdefault(z, common | bit)
        verts = [verts[k] for k in keep] + list(new_verts)
        masks = [masks[k] for k in keep] + list(new_verts.values())

    actives = [_members(mask) for mask in masks]
    for act in actives:
        if _rank_of_lists([P[j] for j in act], field) != d:
            raise InternalInconsistencyError(
                "double description produced a non-vertex point")
    return verts, actives, shaped


def _members(mask: int) -> frozenset[int]:
    """The indices of the set bits of ``mask``."""
    members = []
    while mask:
        low = mask & -mask
        members.append(low.bit_length() - 1)
        mask ^= low
    return frozenset(members)


def _corner(inverse: list, signs: tuple, scale: int, det: int, field: FieldTag) -> tuple:
    """The primitive homogeneous row ``(scale inverse signs, det)``, negated
    when ``det < 0``; ``inverse`` holds cleared values (pairs over Q(sqrt 2))."""
    c = scale if det > 0 else -scale
    if field is FieldTag.RATIONAL:
        return _primitive([[c * sum(map(mul, signs, row)) for row in inverse] + [abs(det)]])[0]
    return _primitive([[c * sum(s * y[i] for s, y in zip(signs, row)) for row in inverse]
                       + [abs(det) * (1 - i)] for i in (0, 1)])


def _row_max(rows: Sequence[tuple], point: tuple, field: FieldTag) -> tuple:
    """The largest integer dot product of the cleared ``rows`` with the
    cleared ``point``, and the indices of the rows attaining it."""
    ops = _FIELD_OPS[field]
    values = ops.values(point, rows)
    top = ops.max(values)
    return top, [j for j, value in enumerate(values) if value == top]


def _tight(rows: Sequence[tuple], scale: int, x: Vector) -> tuple[object, int, list[int]]:
    """The largest value of the rows ``rows / scale`` at ``x``, cleared over the
    positive integer returned, and the rows attaining it; no scalar is built."""
    [cleared], e = clear_denominators([x.entries], x.field)
    top, tight = _row_max(rows, cleared, x.field)
    return top, scale * e, tight


def images(rows: Sequence[Sequence[Scalar]], points: Sequence[Vector]) -> list[Vector]:
    """The images ``A x`` of the ``points`` for the matrix ``A`` with the
    given rows, on integers: with ``A`` cleared to ``An`` over ``a`` and the
    points to ``X`` over ``e``, each image is ``An X_k`` over ``a e``."""
    field = points[0].field
    ops = _FIELD_OPS[field]
    an, a = clear_denominators(rows, field)
    cleared, e = clear_denominators((x.entries for x in points), field)
    return [from_cleared_row(ops.row(ops.values(x, an)), a * e, field) for x in cleared]


class Polytope:
    """Immutable vertices and facet functionals held as the cleared rows
    ``V / E`` and ``F / D``, with eager vertex-facet incidence."""

    # __dict__ holds only the cached vertices and functionals
    __slots__ = ("dim", "field", "V", "E", "F", "D", "vertex_active", "_cache", "__dict__")

    def __init__(self, V: Sequence, E: int, F: Sequence, D: int, field: FieldTag) -> None:
        if not V or not F:
            raise NotFullDimensionalError("empty representation")
        ops = _FIELD_OPS[field]
        d = ops.width(V[0])
        for name, value in (("dim", d), ("field", field), ("F", tuple(F)), ("D", D),
                            ("V", tuple(V)), ("E", E)):
            object.__setattr__(self, name, value)
        rows = [ops.entries(row, -D) for row in F]  # f_j(v_k) - 1 = (F_j.V_k - D E) / D E
        incidence = []
        for row in V:
            top, tight = _row_max(rows, ops.entries(row, E), field)
            if ops.sign(top):  # the vectors of an error message are built here only
                v, f = from_cleared_row(row, E, field), from_cleared_row(F[tight[0]], D, field)
                if ops.sign(top) > 0:
                    raise OriginNotInteriorError(f"vertex {v} violates functional {f}")
                raise NotOnBoundaryError(f"vertex {v} is not on the boundary")
            incidence.append(frozenset(tight))
        object.__setattr__(self, "vertex_active", tuple(incidence))
        object.__setattr__(self, "_cache", {})
        if _rank_of_lists(V, field) < d:
            raise NotFullDimensionalError("vertex set does not span")
        for row, active in zip(V, incidence):
            if self.facet_rank(active) != d:
                raise NotFullDimensionalError(f"vertex {from_cleared_row(row, E, field)} "
                                              "has active functionals of deficient rank")

    @cached_property
    def vertices(self) -> tuple[Vector, ...]:
        """The vertices ``V / E``, built on first read."""
        return tuple(from_cleared_row(row, self.E, self.field) for row in self.V)

    @cached_property
    def functionals(self) -> tuple[Vector, ...]:
        """The facet functionals ``F / D``, built on first read."""
        return tuple(from_cleared_row(row, self.D, self.field) for row in self.F)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("Polytope is immutable")

    def _check_point(self, x: Vector) -> None:
        """FieldMismatchError unless ``x`` has this polytope's field and
        DimensionMismatchError unless it has its dimension: the cleared-row
        scans would silently truncate it."""
        if x.field is not self.field:
            raise FieldMismatchError(f"point field {x.field} vs space field {self.field}")
        if x.dim != self.dim:
            raise DimensionMismatchError(f"point dim {x.dim} vs space dim {self.dim}")

    def facets_at(self, x: Vector) -> tuple[Scalar, list[int]]:
        """``max_j f_j(x)`` (the gauge of ``x``) and the facets attaining it."""
        self._check_point(x)
        top, scale, tight = _tight(self.F, self.D, x)
        return from_cleared(top, scale, self.field), tight

    def facet_rank(self, facets: Iterable[int]) -> int:
        """The rank of the listed facet functionals, on their cleared rows."""
        return _rank_of_lists([self.F[j] for j in facets], self.field)

    def values_at(self, facets: Sequence[int], x: Vector) -> list[Scalar]:
        """``f_j(x)`` for the listed facets ``j``: one integer dot product
        and one field scalar each."""
        self._check_point(x)
        [cleared], e = clear_denominators([x.entries], self.field)
        return [from_cleared(value, self.D * e, self.field) for value in
                _FIELD_OPS[self.field].values(cleared, [self.F[j] for j in facets])]

    def witness_lp(self, facets: Sequence[int],
                   targets: Sequence[Vector]) -> tuple[list[list], list]:
        """The rows and right-hand side of the LP for convex weights ``c`` over
        the listed facets with ``sum_j c_j f_j`` vanishing on each target.

        Row 0 asks ``sum_j c_j = 1`` and row ``k`` asks ``sum_j c_j f_j(w_k) = 0``,
        all times ``D w`` for the targets cleared over ``w``: row ``k`` holds
        the integers ``F_j . W_k`` and row 0 the value ``D w`` throughout.
        """
        for w in targets:
            self._check_point(w)
        ops = _FIELD_OPS[self.field]
        cleared, w = clear_denominators((t.entries for t in targets), self.field)
        rows = [ops.values(target, [self.F[j] for j in facets]) for target in cleared]
        one = ops.lift(self.D * w)
        return [[one] * len(facets)] + rows, [one] + [ops.lift(0)] * len(rows)

    def witness(self, facets: Sequence[int], coefficients: Sequence[Scalar],
                point: Vector, targets: Sequence[Vector]) -> Vector:
        """The functional ``f = sum_j c_j f_j`` over the listed facets,
        checked on integers: it is 1 at ``point``, has maximum 1 over the
        vertices and vanishes on ``targets``, and the ``c_j`` are convex
        weights.  With the ``c_j`` cleared over ``q`` and ``f`` cleared to
        the row ``C.F`` over ``q D``: ``C.F . X = q D s`` at the point
        cleared over ``s``, ``max_k C.F . V_k = q D E``, ``C.F . W = 0`` at
        each cleared target, every ``C_j >= 0`` and ``sum_j C_j = q``.
        InternalInconsistencyError names the first check that fails.
        """
        field = self.field
        ops = _FIELD_OPS[field]
        for x in (point, *targets):
            self._check_point(x)
        [c], q = clear_denominators([coefficients], field)
        row = ops.combine(c, [self.F[j] for j in facets])
        [x], s = clear_denominators([point.entries], field)
        if ops.values(row, [x])[0] != ops.lift(q * self.D * s):
            raise InternalInconsistencyError("witness functional does not support its point")
        if _row_max(self.V, row, field)[0] != ops.lift(q * self.D * self.E):
            raise InternalInconsistencyError("witness functional is not norm one")
        cleared, _ = clear_denominators((t.entries for t in targets), field)
        if any(map(ops.sign, ops.values(row, cleared))):
            raise InternalInconsistencyError("witness functional fails to vanish")
        weights = ops.split(c)
        if any(ops.sign(weight) < 0 for weight in weights):
            raise InternalInconsistencyError("witness coefficients not convex")
        if ops.total(weights) != ops.lift(q):
            raise InternalInconsistencyError("witness coefficients do not sum to one")
        return from_cleared_row(row, q * self.D, field)

    def image_gauge_max(self, target: "Polytope", rows: Sequence[Sequence[Scalar]],
                        ) -> tuple[Scalar, dict[int, list[int]]]:
        """``max_k`` of the ``target`` gauge of ``A v_k`` over the vertices
        ``v_k``, for the matrix ``A`` with the given rows, and each attaining
        ``k`` mapped to the ``target`` facets attaining it at ``A v_k``.

        With ``A`` cleared to ``An`` over ``a``, ``_row_max`` of ``target.F``
        at each cleared image ``An V_k`` gives its largest value and tight
        facets; the maximum over ``k`` is one quotient by ``target.D * a * E``.
        """
        ops = _FIELD_OPS[self.field]
        an, scale = clear_denominators(rows, self.field)
        scans = [_row_max(target.F, ops.row(ops.values(v, an)), self.field) for v in self.V]
        top = ops.max([value for value, _ in scans])
        return (from_cleared(top, target.D * scale * self.E, self.field),
                {k: tight for k, (value, tight) in enumerate(scans) if value == top})

    @classmethod
    def from_vectors(cls, vertices: Sequence[Vector],
                     functionals: Sequence[Vector]) -> "Polytope":
        """The polytope with the given vertices and facet functionals."""
        field = vertices[0].field if vertices else FieldTag.RATIONAL
        return cls(*clear_denominators((v.entries for v in vertices), field),
                   *clear_denominators((f.entries for f in functionals), field), field)

    @classmethod
    def from_vertices(cls, points: Sequence[Vector]) -> "Polytope":
        """The convex hull of the points, a symmetric ball."""
        field = points[0].field if points else FieldTag.RATIONAL
        return cls.from_rows(*clear_denominators((p.entries for p in points), field), field)

    @classmethod
    def from_rows(cls, P: Sequence, scale: int, field: FieldTag) -> "Polytope":
        """The convex hull of the integer rows ``P / scale``: ``V`` keeps the
        extreme rows over ``scale``, and ``F / D`` is cleared from DD's rows."""
        if not P:
            raise NotFullDimensionalError("empty point set")
        ops = _FIELD_OPS[field]
        dim = ops.width(P[0])
        check_guard(dim, 0)  # before canonicalize's double description
        V, facets = _extreme_points(P, scale, field)
        check_guard(dim, len(V))
        if facets is None:  # a non-extreme point shaped canonicalize's pass
            facets, _, _ = dual_vertices(V, scale, field)
        return cls(V, scale, *ops.common(facets), field)

    def polar(self) -> "Polytope":
        """The polar dual: facet functionals become vertices and vice versa."""
        return Polytope(self.F, self.D, self.V, self.E, self.field)

    def has_vertex(self, x: Vector) -> bool:
        """Whether ``x`` is one of the vertices (the entry set is built once)."""
        if "vertex_entries" not in self._cache:
            self._cache["vertex_entries"] = frozenset(v.entries for v in self.vertices)
        return x.entries in self._cache["vertex_entries"]

    def face_vertices(self, face: FaceDescriptor) -> list[Vector]:
        """Vertices lying on the face (those whose active set contains it)."""
        return [v for v, act in zip(self.vertices, self.vertex_active)
                if face.active_set <= act]

    def _face_lattice(self) -> dict[frozenset[int], int]:
        cache = self._cache
        if "lattice" not in cache:
            cache["lattice"] = {a: _minimal_face_of(self, a).dim
                                for a in intersection_closure(self.vertex_active)}
        return cache["lattice"]

    def face(self, active: Iterable[int]) -> FaceDescriptor:
        """The proper face whose full active set is ``active``, its dimension
        read from the cached face lattice.

        NotProperFaceError when ``active`` is empty, names an unknown facet,
        or is not the maximal set of facets containing the face it cuts out
        (two facets of one vertex, say).
        """
        active = frozenset(active)
        dim = self._face_lattice().get(active)
        if dim is None:
            raise NotProperFaceError(
                f"facets {sorted(active)} are not the active set of a proper face")
        return FaceDescriptor(active, dim)


def intersection_closure(generators: Sequence[frozenset[int]]) -> list[frozenset[int]]:
    """Every nonempty intersection of one or more ``generators``, each once.

    Applied to the vertex active sets of a polytope this gives the active
    sets of all its nonempty proper faces.  Breadth first from the
    generators, in discovery order.
    """
    found = dict.fromkeys(generators)
    unique = list(found)
    queue = deque(unique)
    while queue:
        a = queue.popleft()
        for b in unique:
            c = a & b
            if c and c not in found:
                found[c] = None
                queue.append(c)
    return list(found)


def faces_meeting(p: Polytope, basis: Sequence[Vector]):
    """The faces of ``p`` whose relative interior meets span(basis), each
    with a point of that meeting, by dimension and then by sorted active set.

    In the coordinates of the basis, the section of ``p`` by the span is
    the polytope cut out by the restricted facet functionals
    ``g_j = (f_j(b_1), ..., f_j(b_r))``, formed on integers as ``F_j``
    dotted with the basis cleared over ``s`` (``g_j`` times ``D s``); double
    description over the distinct nonzero ones gives its vertices and the
    ``g`` tight at each.
    Its faces are exactly the sections of the faces of ``p`` whose relative
    interior the span meets (Fukuda & Prodon, 1996), and the section face
    with active set A has as vertices the section vertices tight on all of
    A.  So the tight sets, mapped back to facet indices of ``p`` and closed
    under intersection, name the faces met, and the barycentre of a face's
    section vertices lies in its relative interior: the section vertices
    are homogeneous rows ``(N, h)``, so it is the sum of their rows cleared
    over one ``h`` (``_FieldOps.common``), over ``h`` times their number,
    mapped by the cleared basis, with one field scalar per entry.
    """
    field = p.field
    ops = _FIELD_OPS[field]
    for b in basis:
        p._check_point(b)
    lattice = p._face_lattice()
    cleared, s = clear_denominators((b.entries for b in basis), field)
    facets_of: dict[tuple, list[int]] = {}
    for j, f in enumerate(p.F):
        values = ops.values(f, cleared)
        if any(map(ops.sign, values)):
            facets_of.setdefault(ops.row(values), []).append(j)
    rows, tight, _ = dual_vertices(list(facets_of), p.D * s, field)
    groups = list(facets_of.values())
    active = [frozenset(j for k in members for j in groups[k]) for members in tight]
    faces = []
    for a in intersection_closure(active):
        if a not in lattice:
            raise InternalInconsistencyError(
                "a face of the subspace section is not a face of the ball")
        faces.append(FaceDescriptor(a, lattice[a]))
    faces.sort(key=lambda face: (face.dim, tuple(sorted(face.active_set))))
    columns, t = clear_denominators(zip(*(b.entries for b in basis)), field)
    for face in faces:
        on_face, h = ops.common([z for z, a in zip(rows, active) if face.active_set <= a])
        total = ops.row([ops.total(column) for column in zip(*map(ops.split, on_face))])
        yield face, from_cleared_row(ops.row(ops.values(total, columns)),
                                     t * h * len(on_face), field)


def minimal_face(p: Polytope, x: Vector) -> FaceDescriptor:
    """The face whose relative interior contains the boundary point ``x``."""
    top, tight = p.facets_at(x)
    if top != p.field.one:
        raise NotOnBoundaryError(f"max functional value is {serialize(top)}, not 1")
    return _minimal_face_of(p, tight)


def _minimal_face_of(p: Polytope, tight: Iterable[int]) -> FaceDescriptor:
    """The face with full active set ``tight``, the facets tight at a point
    of its relative interior; its dimension from the vertex side, as a
    k-face misses the origin, so its vertices span k + 1."""
    active = frozenset(tight)
    on_face = [row for row, act in zip(p.V, p.vertex_active) if active <= act]
    return FaceDescriptor(active, _rank_of_lists(on_face, p.field) - 1)


def enumerate_faces(p: Polytope, dim: int) -> list[FaceDescriptor]:
    """All proper faces of the given dimension, each exactly once."""
    if dim < 0 or dim > p.dim - 1:
        raise DimensionMismatchError(f"face dimension {dim} outside [0, {p.dim - 1}]")
    lattice = p._face_lattice()
    faces = [FaceDescriptor(a, k) for a, k in lattice.items() if k == dim]
    faces.sort(key=lambda f: tuple(sorted(f.active_set)))
    return faces


def count_faces(p: Polytope, dim: int) -> int:
    return len(enumerate_faces(p, dim))
