"""Exact symmetric polytopes given by vertices and facet functionals.

A unit ball here is a full-dimensional polytope, symmetric about the
origin, with the origin in its interior.  It is held as two tuples: its
extreme points (``vertices``) and the functionals ``f`` with ``f(x) <= 1``
on the polytope, one supporting each facet (``functionals``).  By polarity
the facet functionals of a ball, read as points, are exactly the vertices
of the polar dual, and ``dual_vertices`` computes one tuple from the other.

``dual_vertices`` runs the incremental double description method: start
from the parallelotope cut out by the first d independent +/- constraint
pairs, then clip with the remaining halfspaces in input order.  Vertex
adjacency during clipping is decided combinatorially and exactly: two
vertices are adjacent iff their common active constraints have rank d-1,
which is valid for degenerate polytopes as well.

Faces are keyed by their full active set (the maximal set of facets
containing them); the dimension of the face with active set A is
``d - rank{f_j : j in A}``.
"""

from __future__ import annotations

import itertools
import os
from collections import deque
from dataclasses import dataclass
from typing import Sequence

from .errors import (
    DimensionMismatchError,
    GuardExceededError,
    InternalInconsistencyError,
    NotFullDimensionalError,
    NotOnBoundaryError,
    NotSymmetricError,
    OriginNotInteriorError,
    ValidationError,
)
from .linalg import Matrix, Vector, greedy_independent_subset, rank_of_vectors, solve
from .lp import lp_feasible
from .scalars import serialize

DEFAULT_MAX_DIM = 6
DEFAULT_MAX_VERTICES = 64


def _guard_limits() -> tuple[int, int]:
    raw = os.environ.get("KSMOOTH_MAX_DIM")
    if raw is None:
        return DEFAULT_MAX_DIM, DEFAULT_MAX_VERTICES
    try:
        max_dim = int(raw)
    except ValueError:
        raise ValidationError(
            f"KSMOOTH_MAX_DIM must be an integer, not {raw!r}") from None
    return max_dim, max(DEFAULT_MAX_VERTICES, 2 ** max_dim)


def check_guard(dim: int, vertex_count: int) -> None:
    max_dim, max_vertices = _guard_limits()
    if dim > max_dim:
        raise GuardExceededError(
            f"dimension {dim} exceeds guard {max_dim} (set KSMOOTH_MAX_DIM to raise)")
    if vertex_count > max_vertices:
        raise GuardExceededError(
            f"{vertex_count} vertices exceed guard {max_vertices}")


@dataclass(frozen=True)
class FaceDescriptor:
    """A face identified by the maximal set of facets containing it."""

    active_set: frozenset[int]
    dim: int


def _negation_index(points: Sequence[Vector]) -> list[int]:
    """For each point, the index of its negation; NotSymmetricError if absent."""
    position = {p.entries: i for i, p in enumerate(points)}
    pairs = []
    for p in points:
        neg = tuple(-x for x in p.entries)
        j = position.get(neg)
        if j is None:
            raise NotSymmetricError(f"point set not closed under negation: {p}")
        pairs.append(j)
    return pairs


def in_convex_hull(point: Vector, generators: Sequence[Vector]) -> bool:
    """Exact membership of ``point`` in the convex hull of ``generators``."""
    if not generators:
        return False
    field = point.field
    rows = [[g[i] for g in generators] for i in range(point.dim)]
    rows.append([field.one] * len(generators))
    rhs = list(point.entries) + [field.one]
    return lp_feasible(rows, rhs, field) is not None


def canonicalize(points: Sequence[Vector]) -> tuple[Vector, ...]:
    """Reduce a point set to its extreme points, in first-seen order.

    Points inside the hull of the others are removed; the surviving set
    must be closed under negation (asymmetry is an error, not repaired).
    Full-dimensionality is not checked here; it surfaces on later use.
    """
    unique: list[Vector] = []
    seen = set()
    for p in points:
        if p.entries not in seen:
            seen.add(p.entries)
            unique.append(p)
    extremes = []
    for i, p in enumerate(unique):
        others = [q for j, q in enumerate(unique) if j != i]
        if not in_convex_hull(p, others):
            extremes.append(p)
    _negation_index(extremes)
    return tuple(extremes)


def dual_vertices(points: Sequence[Vector]) -> list[Vector]:
    """Vertices of ``{f : p.f <= 1 for each p}`` by double description.

    The input must be symmetric and span the ambient space (otherwise the
    polar is unbounded).  Insertion order is the input order, so the
    output order is deterministic.
    """
    if not points:
        raise NotFullDimensionalError("empty point set")
    field = points[0].field
    d = points[0].dim
    negation = _negation_index(points)

    init = greedy_independent_subset(points)
    if len(init) < d:
        raise NotFullDimensionalError(
            f"points span only {len(init)} of {d} dimensions")
    init = init[:d]
    slab = Matrix.from_rows([points[i] for i in init])

    # vertices of the initial parallelotope |p_i . f| <= 1
    verts: list[Vector] = []
    actives: list[set[int]] = []
    for signs in itertools.product((1, -1), repeat=d):
        rhs = Vector([field.from_int(s) for s in signs], field)
        corner = solve(slab, rhs)
        if corner is None:
            raise InternalInconsistencyError(
                "independent constraints left a parallelotope corner unsolvable")
        verts.append(corner)
        actives.append({init[j] if s == 1 else negation[init[j]]
                        for j, s in enumerate(signs)})

    processed = []
    for i in init:
        processed.append(i)
        processed.append(negation[i])

    def recompute_active(z: Vector) -> set[int]:
        return {j for j in processed if points[j].dot(z) == field.one}

    for idx, p in enumerate(points):
        if idx in processed:
            continue
        processed.append(idx)
        values = [p.dot(v) - field.one for v in verts]
        if not any(val > 0 for val in values):
            for k, val in enumerate(values):
                if val == 0:
                    actives[k].add(idx)
            continue
        keep_verts: list[Vector] = []
        keep_actives: list[set[int]] = []
        for k, val in enumerate(values):
            if val <= 0:
                keep_verts.append(verts[k])
                if val == 0:
                    actives[k].add(idx)
                keep_actives.append(actives[k])
        new_coords = {}
        for k_out, val_out in enumerate(values):
            if val_out <= 0:
                continue
            for k_in, val_in in enumerate(values):
                if val_in >= 0:
                    continue
                common = actives[k_out] & actives[k_in]
                if len(common) < d - 1:
                    continue
                if rank_of_vectors([points[j] for j in common]) != d - 1:
                    continue
                u, w = verts[k_out], verts[k_in]
                t = (-val_in) / (val_out - val_in)
                z = w + (u - w).scale(t)
                new_coords.setdefault(z.entries, z)
        for z in new_coords.values():
            keep_verts.append(z)
            keep_actives.append(recompute_active(z))
        verts, actives = keep_verts, keep_actives

    for act in actives:
        if rank_of_vectors([points[j] for j in act]) != d:
            raise InternalInconsistencyError(
                "double description produced a non-vertex point")
    return verts


class Polytope:
    """Immutable vertices and facet functionals with eager vertex-facet incidence."""

    __slots__ = ("dim", "field", "vertices", "functionals", "vertex_active", "_face_cache")

    def __init__(self, vertices: tuple[Vector, ...], functionals: tuple[Vector, ...]) -> None:
        if not vertices or not functionals:
            raise NotFullDimensionalError("empty representation")
        field = vertices[0].field
        d = vertices[0].dim
        object.__setattr__(self, "dim", d)
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "vertices", vertices)
        object.__setattr__(self, "functionals", functionals)
        incidence = []
        for v in vertices:
            active = set()
            for j, f in enumerate(functionals):
                value = f.dot(v)
                if value > field.one:
                    raise OriginNotInteriorError(
                        f"vertex {v} violates functional {f}")
                if value == field.one:
                    active.add(j)
            if not active:
                raise NotOnBoundaryError(f"vertex {v} is not on the boundary")
            incidence.append(frozenset(active))
        object.__setattr__(self, "vertex_active", tuple(incidence))
        object.__setattr__(self, "_face_cache", {})
        if rank_of_vectors(list(vertices)) < d:
            raise NotFullDimensionalError("vertex set does not span")
        for i, v in enumerate(vertices):
            if rank_of_vectors([functionals[j] for j in incidence[i]]) != d:
                raise NotFullDimensionalError(
                    f"vertex {v} has active functionals of deficient rank")

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("Polytope is immutable")

    @classmethod
    def from_vertices(cls, points: Sequence[Vector]) -> "Polytope":
        if points:
            check_guard(points[0].dim, 0)  # before canonicalize's hull LPs
        vertices = canonicalize(points)
        if not vertices:
            raise NotFullDimensionalError("no extreme points")
        check_guard(vertices[0].dim, len(vertices))
        return cls(vertices, tuple(dual_vertices(vertices)))

    def polar(self) -> "Polytope":
        """The polar dual: facet functionals become vertices and vice versa."""
        return Polytope(self.functionals, self.vertices)

    def face_vertices(self, face: FaceDescriptor) -> list[Vector]:
        """Vertices lying on the face (those whose active set contains it)."""
        return [v for v, act in zip(self.vertices, self.vertex_active)
                if face.active_set <= act]

    def _face_lattice(self) -> dict[frozenset[int], int]:
        cache = self._face_cache
        if "lattice" not in cache:
            cache["lattice"] = {
                a: self.dim - rank_of_vectors([self.functionals[j] for j in a])
                for a in intersection_closure(self.vertex_active)}
        return cache["lattice"]


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


def minimal_face(p: Polytope, x: Vector) -> FaceDescriptor:
    """The face whose relative interior contains the boundary point ``x``."""
    if x.field is not p.field or x.dim != p.dim:
        raise DimensionMismatchError("point does not live in the polytope's space")
    values = [f.dot(x) for f in p.functionals]
    top = max(values)
    if top != p.field.one:
        raise NotOnBoundaryError(f"max functional value is {serialize(top)}, not 1")
    active = frozenset(j for j, val in enumerate(values) if val == p.field.one)
    dim = p.dim - rank_of_vectors([p.functionals[j] for j in active])
    return FaceDescriptor(active, dim)


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
