"""Seeded property suites exercising the package's central identities.

Each suite draws reproducible random instances and checks an identity
exactly (zero tolerance).  Failures are returned as printable certificates
carrying enough data to replay the case: the space vertices, the operator
matrix and the disagreeing values.  The CLI ``selftest`` command and the
acceptance tests both run these.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from fractions import Fraction
from math import comb

from .errors import InternalInconsistencyError
from .files import operator_to_document, space_to_document
from .linalg import Matrix, Vector, rank_of_vectors
from .operators import (
    LinearOperator,
    _index_computation,
    index_of_smoothness,
    order_of_smoothness,
    rank1_admissible_orders,
)
from .orthogonality import bj_vector_vector
from .polytope import count_faces, enumerate_faces
from .scalars import FieldTag
from .spaces import (
    PolyhedralSpace,
    ellinf,
    normalized,
    norm,
    point_smoothness,
    random_space,
)


@dataclass(frozen=True)
class SuiteResult:
    name: str
    checked: int
    failures: tuple[str, ...]

    @property
    def ok(self) -> bool:
        return not self.failures


def _describe(space: PolyhedralSpace) -> str:
    return f"{space.name} vertices=[{', '.join(map(str, space.ball.vertices))}]"


def _describe_operator(t: LinearOperator) -> str:
    """The operator file and its two space files, each named and followed by
    its JSON document on the same line; written out under those names they
    replay the case through ``ksmooth op order operator.json``."""
    documents = (("operator.json", operator_to_document(t, "domain.json", "codomain.json")),
                 ("domain.json", space_to_document(t.domain)),
                 ("codomain.json", space_to_document(t.codomain)))
    return " ".join(f"{name} {json.dumps(doc)}" for name, doc in documents)

def _random_unit_operator(rng: random.Random, domain: PolyhedralSpace,
                          codomain: PolyhedralSpace) -> LinearOperator:
    field = domain.field
    while True:
        entries = [[Fraction(rng.randint(-4, 4), rng.randint(1, 4))
                    for _ in range(domain.dim)] for _ in range(codomain.dim)]
        if any(any(row) for row in entries):
            raw = LinearOperator(domain, codomain, Matrix(entries, field))
            return raw.normalized()


def _random_rank1_operator(rng: random.Random, domain: PolyhedralSpace,
                           codomain: PolyhedralSpace) -> LinearOperator:
    field = domain.field
    while True:
        functional = [Fraction(rng.randint(-3, 3), rng.randint(1, 3))
                      for _ in range(domain.dim)]
        point = [Fraction(rng.randint(-3, 3), rng.randint(1, 3))
                 for _ in range(codomain.dim)]
        if any(functional) and any(point):
            entries = [[p * f for f in functional] for p in point]
            raw = LinearOperator(domain, codomain, Matrix(entries, field))
            return raw.normalized()


def _random_pair(rng: random.Random) -> tuple[PolyhedralSpace, PolyhedralSpace]:
    dim_x = rng.randint(2, 4)
    dim_y = rng.randint(2, 4)
    x = random_space(rng.randrange(2 ** 30), dim_x, rng.randint(dim_x, dim_x + 2))
    y = random_space(rng.randrange(2 ** 30), dim_y, rng.randint(dim_y, dim_y + 2))
    return x, y


def _random_invertible(rng: random.Random, n: int, field: FieldTag) -> Matrix:
    while True:
        entries = [[Fraction(rng.randint(-3, 3)) for _ in range(n)] for _ in range(n)]
        m = Matrix(entries, field)
        if rank_of_vectors([m.row(i) for i in range(n)]) == n:
            return m


def order_equivalence_suite(seed: int, cases: int) -> SuiteResult:
    """``order_of_smoothness`` on every case: the index by basis coordinates
    equals the rank of the attainment scan's (vertex, facet) outer products
    and is at least the image smoothness sum, or the case becomes a certificate."""
    rng = random.Random(seed)
    failures = []
    for case in range(cases):
        x, y = _random_pair(rng)
        t = _random_unit_operator(rng, x, y)
        try:
            order_of_smoothness(t)
        except InternalInconsistencyError as exc:
            failures.append(f"case {case}: {exc}; {_describe_operator(t)}")
    return SuiteResult("order-equivalence", cases, tuple(failures))


def invariance_suite(seed: int, cases: int, recombinations: int) -> SuiteResult:
    """The index is unchanged under invertible recombinations of both bases."""
    rng = random.Random(seed)
    failures = []
    for case in range(cases):
        x, y = _random_pair(rng)
        t = _random_unit_operator(rng, x, y)
        r = list(t.attainment.attaining_vertices)
        base = _index_computation(t, r)
        for trial in range(recombinations):
            c = _random_invertible(rng, len(base.vector_basis), x.field)
            d = _random_invertible(rng, len(base.functional_basis), x.field)
            new_vb = c.matmul(Matrix.from_rows(base.vector_basis))
            new_fb = d.matmul(Matrix.from_rows(base.functional_basis))
            got = index_of_smoothness(
                t, r, vector_basis=[new_vb.row(i) for i in range(new_vb.rows)],
                functional_basis=[new_fb.row(i) for i in range(new_fb.rows)])
            if got != base.index:
                failures.append(
                    f"case {case} trial {trial}: index {base.index} became {got}; "
                    f"{_describe_operator(t)}")
    return SuiteResult("basis-invariance", cases * recombinations, tuple(failures))


def rank1_suite(seed: int, cases: int) -> SuiteResult:
    """Rank-1 law: order = (independent attaining count) x (image smoothness),
    and the order is an admissible product of the two dimensions."""
    rng = random.Random(seed)
    failures = []
    for case in range(cases):
        x, y = _random_pair(rng)
        t = _random_rank1_operator(rng, x, y)
        try:
            report = order_of_smoothness(t)
        except InternalInconsistencyError as exc:
            failures.append(f"case {case}: {exc}; {_describe_operator(t)}")
            continue
        image = t.apply(report.attainment.attaining_vertices[0])
        m = point_smoothness(y, image)
        n_independent = len(report.attainment.basis_indices)
        expected = n_independent * m
        admissible = rank1_admissible_orders(x.dim, y.dim)
        if report.index != expected:
            failures.append(
                f"case {case}: order {report.index} != {n_independent}*{m}; "
                f"{_describe_operator(t)}")
        elif report.index not in admissible:
            failures.append(
                f"case {case}: order {report.index} outside admissible "
                f"{admissible}; {_describe_operator(t)}")
    return SuiteResult("rank1-law", cases, tuple(failures))


def interior_suite(seed: int, cases: int) -> SuiteResult:
    """``point_smoothness`` at vertices, edge midpoints and random boundary
    points: the support rank equals ambient dimension minus minimal-face
    dimension, or the case becomes a certificate."""
    rng = random.Random(seed)
    failures = []
    checked = 0
    for case in range(cases):
        dim = rng.randint(2, 4)
        space = random_space(rng.randrange(2 ** 30), dim, rng.randint(dim, dim + 2))
        points = list(space.ball.vertices)
        for face in enumerate_faces(space.ball, 1):
            ends = space.ball.face_vertices(face)
            if len(ends) == 2:
                points.append((ends[0] + ends[1]).scale(Fraction(1, 2)))
        for _ in range(3):
            raw = Vector([Fraction(rng.randint(-6, 6), rng.randint(1, 4))
                          for _ in range(dim)], space.field)
            if not raw.is_zero():
                points.append(normalized(space, raw))
        for p in points:
            checked += 1
            try:
                point_smoothness(space, p)
            except InternalInconsistencyError as exc:
                failures.append(f"case {case}: {exc}; {_describe(space)}")
    return SuiteResult("interior-law", checked, tuple(failures))


_CUBE_MAX_DIM = 5


def face_count_suite() -> SuiteResult:
    """Cube-face counts: the cube ball in dimension N has C(N,k)*2^k faces
    of dimension N-k, for N up to ``_CUBE_MAX_DIM``; cross-checked against
    the Euler characteristic."""
    failures = []
    checked = 0
    for n in range(2, _CUBE_MAX_DIM + 1):
        space = ellinf(n)
        counts = [count_faces(space.ball, i) for i in range(n)]
        for k in range(1, n + 1):
            checked += 1
            got = counts[n - k]
            expected = comb(n, k) * 2 ** k
            if got != expected:
                failures.append(f"dim {n}: {got} faces of dim {n - k}, expected {expected}")
        euler = sum((-1) ** i * c for i, c in enumerate(counts))
        if euler != 1 + (-1) ** (n - 1):
            failures.append(f"dim {n}: Euler characteristic {euler}")
    return SuiteResult("face-counts", checked, tuple(failures))


def _bj_breakpoint_oracle(space: PolyhedralSpace, x: Vector, y: Vector) -> bool:
    """Direct minimization of the piecewise-linear map t -> ||x + t y||.

    The minimum of the convex max-of-affine map sits at a crossing of two
    of its pieces, so it suffices to evaluate the norm at every pairwise
    crossing (plus t = 0).
    """
    one = space.field.one
    if y.is_zero():
        return True
    pairs = [(f.dot(x), f.dot(y)) for f in space.ball.functionals]
    candidates = {space.field.zero}
    for i in range(len(pairs)):
        a1, b1 = pairs[i]
        for j in range(i + 1, len(pairs)):
            a2, b2 = pairs[j]
            if b1 != b2:
                candidates.add((a2 - a1) / (b1 - b2))
    return all(norm(space, x + y.scale(t)) >= one for t in candidates)


def bj_consistency_suite(seed: int, cases: int) -> SuiteResult:
    """James-criterion verdicts agree with breakpoint minimization, and every
    positive verdict already carries a re-verified witness functional."""
    rng = random.Random(seed)
    failures = []
    spaces = {}
    for case in range(cases):
        dim = rng.randint(2, 3)
        key = (dim, case % 5)
        if key not in spaces:
            spaces[key] = random_space(rng.randrange(2 ** 30), dim,
                                       rng.randint(dim, dim + 2))
        space = spaces[key]
        raw = Vector([Fraction(rng.randint(-5, 5), rng.randint(1, 3))
                      for _ in range(dim)], space.field)
        if raw.is_zero():
            raw = Vector.basis(0, dim, space.field)
        x = normalized(space, raw)
        y = Vector([Fraction(rng.randint(-5, 5), rng.randint(1, 3))
                    for _ in range(dim)], space.field)
        by_james = bool(bj_vector_vector(space, x, y))
        by_breakpoints = _bj_breakpoint_oracle(space, x, y)
        if by_james != by_breakpoints:
            failures.append(
                f"case {case}: James {by_james} vs breakpoints {by_breakpoints} "
                f"for x={x} y={y}; "
                f"{_describe(space)}")
    return SuiteResult("bj-consistency", cases, tuple(failures))


def run_all(seed: int = 42, cases: int = 200) -> list[SuiteResult]:
    """The full property battery with one seeded generator per suite.

    At the default 200 cases the sizes match the acceptance gate: 200
    order-equivalence cases, 20x20 basis recombinations, 100 rank-1
    operators and 500 orthogonality pairs; smaller ``cases`` values scale
    everything down proportionally for quick smoke runs.
    """
    return [
        order_equivalence_suite(seed, cases),
        invariance_suite(seed + 2, min(20, max(2, cases // 10)), 20),
        rank1_suite(seed + 3, max(5, cases // 2)),
        interior_suite(seed + 4, max(4, cases // 10)),
        face_count_suite(),
        bj_consistency_suite(seed + 5, max(10, cases * 5 // 2)),
    ]
