"""The four benchmark workloads: seeded inputs, queries and answer checks.

Every input is generated here from ``(workload, seed, query number)``, so
query ``k`` of a run can be replayed alone and a later change to
``ksmooth.selftest`` or ``random_space`` cannot change a workload.

A workload is one client in one thread driving a closed loop: each query
starts when the previous one returns.  ``setup`` builds whatever the loop
shares (prebuilt spaces, the work directory); ``query`` runs query
``k``; see ``Workload`` for the untimed steps around it.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random
import shutil
from fractions import Fraction


from ksmooth import (
    FieldTag,
    LinearOperator,
    Matrix,
    QuadScalar,
    Subspace,
    Vector,
    bj_subspace_subspace,
    bj_subspace_vector,
    bj_vector_vector,
    count_faces,
    ell1,
    ellinf,
    from_vertices,
    is_best_coapproximation,
    is_strong_auerbach,
    normalized,
    order_of_smoothness,
    paper_example_space,
    point_smoothness,
    rank,
    serialize,
    support_set,
)
from ksmooth import cli

RATIONAL = FieldTag.RATIONAL
QUAD = FieldTag.QUAD_SQRT2

# (domain, codomain) dimensions of cli-order, cycled by query number, so
# every run sees the same mix of sizes and only the seeded values differ
# between seeds.  Every pair in 2-4 appears; (2, 2) three times and (3, 3)
# twice, so that as many queries are cheaper than the (3, 3) block as are
# dearer and the median falls in its middle, not in the wide gap between
# the pairs without a 4 and those with one.
DIM_PAIRS = [(2, 2), (2, 2), (2, 2), (2, 3), (3, 2), (3, 3), (3, 3),
             (2, 4), (3, 4), (4, 2), (4, 3), (4, 4)]


def _rng(workload: str, seed, k: int) -> random.Random:
    return random.Random(f"{workload}:{seed}:{k}")


# The prebuilt spaces of op-query and bj-subspace are part of those
# workloads' definition: drawn from this fixed seed, not the run seed, so
# that a run's seed varies the queries and not how many facets every
# query of the run must walk.  cli-order draws fresh spaces per query.
SPACE_SEED = "spaces"


def _fmt(v: Vector) -> str:
    return "(" + ",".join(serialize(e) for e in v.entries) + ")"


# ---------------------------------------------------------------------------
# input generators
# ---------------------------------------------------------------------------

def _small_fraction(rng: random.Random, top: int = 5) -> Fraction:
    den = rng.randint(1, top)
    return Fraction(rng.randint(-den, den), den)


def point_cloud(rng: random.Random, dim: int) -> list[list[Fraction]]:
    """A symmetric rational point cloud spanning ``dim`` dimensions.

    One scaled axis point per coordinate makes it full-dimensional; the
    random points add facets; the quarter-sums of two points are never
    extreme, so ``canonicalize`` has points to remove.
    """
    half = []
    for i in range(dim):
        axis = [Fraction(0)] * dim
        axis[i] = Fraction(rng.randint(2, 6), rng.randint(2, 5))
        half.append(axis)
    for _ in range(dim + 1):
        p = [_small_fraction(rng) for _ in range(dim)]
        if any(p):
            half.append(p)
    for _ in range(2):
        p, q = rng.sample(half, 2)
        half.append([(a + b) / 4 for a, b in zip(p, q)])
    points, seen = [], set()
    for p in half:
        for s in (p, [-a for a in p]):
            key = tuple(s)
            if key not in seen:
                seen.add(key)
                points.append(s)
    return points


def space_document(name: str, points: list[list[Fraction]]) -> dict:
    return {"name": name, "field": "rational", "dim": len(points[0]),
            "vertices": [[str(a) for a in p] for p in points]}


def rational_space(rng: random.Random, dim: int, name: str):
    cloud = point_cloud(rng, dim)
    return from_vertices([Vector(p, RATIONAL) for p in cloud], name)


def operator_matrix(rng: random.Random, rows: int, cols: int) -> list[list[Fraction]]:
    while True:
        m = [[Fraction(rng.randint(-4, 4), rng.randint(1, 4)) for _ in range(cols)]
             for _ in range(rows)]
        if any(any(r) for r in m):
            return m


def _rational_vector(rng: random.Random, dim: int) -> Vector:
    while True:
        v = [_small_fraction(rng) for _ in range(dim)]
        if any(v):
            return Vector(v, RATIONAL)


def _quad_vector(rng: random.Random, dim: int) -> Vector:
    while True:
        v = [QuadScalar(_small_fraction(rng, 3), _small_fraction(rng, 3))
             for _ in range(dim)]
        if any(v):
            return Vector(v, QUAD)


def _independent(rng: random.Random, dim: int, count: int, draw) -> list[Vector]:
    while True:
        vs = [draw(rng, dim) for _ in range(count)]
        if rank(Matrix.from_rows(vs)) == count:
            return vs


def unit_points(rng: random.Random, space, draw) -> list[Vector]:
    """Three unit points: a random direction (usually on a facet), a ball
    vertex, and the normalised midpoint of two vertices (often on a
    lower-dimensional face)."""
    verts = space.ball.vertices
    a, b = rng.sample(range(len(verts)), 2)
    mid = verts[a] + verts[b]
    if mid.is_zero():
        mid = verts[a]
    return [normalized(space, draw(rng, space.dim)), verts[rng.randrange(len(verts))],
            normalized(space, mid)]


# ---------------------------------------------------------------------------
# independent answer checks
# ---------------------------------------------------------------------------

def min_norm_on_line(functionals, x: Vector, y: Vector):
    """The minimum over real t of ``||x + t y||`` for the polytope norm
    ``max_j f_j``, found among the breakpoints of the piecewise-linear
    convex function by binary search on its sorted breakpoints."""
    lines = {(f.dot(x), f.dot(y)) for f in functionals}

    def value(t):
        return max(a + t * b for a, b in lines)

    # the ball is symmetric and y is nonzero, so both lists are nonempty;
    # the minimum lies where a rising line meets a falling one
    ups = [ab for ab in lines if ab[1] > 0]
    downs = [ab for ab in lines if ab[1] < 0]
    points = sorted({(a1 - a2) / (b2 - b1) for a1, b1 in ups for a2, b2 in downs})
    lo, hi = 0, len(points) - 1
    while lo < hi:
        mid = (lo + hi) // 2
        if value(points[mid]) <= value(points[mid + 1]):
            hi = mid
        else:
            lo = mid + 1
    return value(points[lo])


def check_bj_vector_vector(space, x: Vector, y: Vector, verdict) -> list[str]:
    one = space.field.one
    minimum = min_norm_on_line(space.ball.functionals, x, y)
    expected = not minimum < one
    if bool(verdict) != expected:
        return [f"bj_vector_vector({_fmt(x)}, {_fmt(y)}) = {bool(verdict)} but "
                f"min_t ||x+ty|| = {serialize(minimum)}"]
    return []


def _verdict_text(verdict) -> str:
    parts = ["holds" if verdict else "fails"]
    for w in verdict.witnesses:
        parts.append(_fmt(w.functional) + ":" + ",".join(serialize(c) for c in w.coefficients))
    if verdict.counterexample_point is not None:
        parts.append("cx" + _fmt(verdict.counterexample_point))
    return ";".join(parts)


def _order_text(report) -> str:
    att = report.attainment
    return (f"norm={serialize(att.operator_norm)} att={[_fmt(v) for v in att.attaining_vertices]} "
            f"index={report.index} oracle={report.oracle_order} min={report.min_bound}")


def _point_pairs(rng: random.Random, space, draw) -> list[tuple[Vector, Vector]]:
    return [(x, draw(rng, space.dim)) for x in unit_points(rng, space, draw)]


def _run_point_pairs(space, pairs) -> list:
    return [(point_smoothness(space, x), bj_vector_vector(space, x, y)) for x, y in pairs]


def _finish_point_pairs(space, pairs, answers) -> tuple[list[str], list[str]]:
    lines, problems = [], []
    for (x, y), (k, verdict) in zip(pairs, answers):
        problems += check_bj_vector_vector(space, x, y, verdict)
        lines.append(f"k={k} x={_fmt(x)} y={_fmt(y)} {_verdict_text(verdict)}")
    return lines, problems


def _run_cli(argv: list[str]) -> tuple[int, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue()


def _check_order_report(code: int, text: str) -> tuple[dict | None, list[str]]:
    if code != 0:
        return None, [f"cli exit code {code}"]
    doc = json.loads(text)
    res = doc["results"]
    if res["index"] != res["oracle_order"]:
        return doc, [f"index {res['index']} != oracle_order {res['oracle_order']}"]
    return doc, []


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------

class Workload:
    """Query ``k`` runs slot ``k % round_size`` of a fixed round.  The loop
    only stops between rounds, so every run has the same mix of query kinds
    and sizes; the seed changes only the values drawn inside each slot.

    A query has three steps and only the middle one is timed:
    ``prepare(k)`` draws the inputs, ``query(k, inputs)`` calls ksmooth and
    returns a ``finish`` callable, and ``finish()`` renders the canonical
    result bytes and runs the answer checks.
    """

    name = ""
    round_size = 1
    # the fixed query prefix behind the committed digest and the traced run
    digest_rounds = 1
    # fewest queries a timed run makes; sets the tail percentile it reports
    min_queries = 1

    def __init__(self, seed: int, root: str) -> None:
        self.seed = seed
        self.root = root
        self.current_inputs = ""

    def setup(self) -> None:
        """Build everything the timed loop shares.  May run several times."""

    def prepare(self, k: int):
        """Draw query ``k``'s inputs and describe them in ``current_inputs``."""
        raise NotImplementedError

    def query(self, k: int, inputs):
        """Run query ``k`` on ksmooth; return a ``finish`` callable giving
        ``(canonical bytes, failed checks)``."""
        raise NotImplementedError

    def describe_inputs(self) -> str:
        """The inputs of the query that just ran, for a failure certificate."""
        return self.current_inputs

    def close(self) -> None:
        """Release what ``setup`` made."""


class CliOrder(Workload):
    """``ksmooth op order <file> --json`` in process, one fresh operator file
    with its own two fresh space files per query."""

    name = "cli-order"
    round_size = len(DIM_PAIRS)
    digest_rounds = 2
    min_queries = 5 * len(DIM_PAIRS)

    def setup(self) -> None:
        self.close()
        self.workdir = os.path.join(self.root, f"{self.name}-{os.getpid()}")
        os.makedirs(self.workdir)

    def prepare(self, k: int) -> str:
        """Write query ``k``'s files; return the operator path relative to
        the work directory (its name depends only on seed and ``k``)."""
        rng = _rng(self.name, self.seed, k)
        d, c = DIM_PAIRS[k % len(DIM_PAIRS)]
        stem = f"s{self.seed}-q{k}"
        docs = {
            f"{stem}.dom.json": space_document(f"{stem}-dom", point_cloud(rng, d)),
            f"{stem}.cod.json": space_document(f"{stem}-cod", point_cloud(rng, c)),
        }
        docs[f"{stem}.op.json"] = {
            "domain": f"{stem}.dom.json", "codomain": f"{stem}.cod.json",
            "matrix": [[str(a) for a in row] for row in operator_matrix(rng, c, d)]}
        for fname, doc in docs.items():
            with open(os.path.join(self.workdir, fname), "w", encoding="utf-8") as fh:
                json.dump(doc, fh, sort_keys=True)
        self.current_inputs = f"{stem}.op.json"
        return self.current_inputs

    def query(self, k: int, op_file: str):
        here = os.getcwd()
        os.chdir(self.workdir)
        try:
            code, text = _run_cli(["op", "order", op_file, "--json"])
        finally:
            os.chdir(here)

        def finish():
            _, problems = _check_order_report(code, text)
            return text.encode(), problems
        return finish

    def describe_inputs(self) -> str:
        stem = self.current_inputs[:-len(".op.json")]
        texts = []
        for suffix in (".op.json", ".dom.json", ".cod.json"):
            with open(os.path.join(self.workdir, stem + suffix), encoding="utf-8") as fh:
                texts.append(f"{stem}{suffix}={fh.read()}")
        return " ".join(texts)

    def close(self) -> None:
        workdir = getattr(self, "workdir", None)
        if workdir and os.path.isdir(workdir):
            shutil.rmtree(workdir)


class OpQuery(Workload):
    """Library queries against ten spaces built once: normalise a seeded
    operator, order it, then point smoothness and BJ at seeded unit points."""

    name = "op-query"
    DIMS = (2, 3, 4, 2, 3, 4)
    round_size = 20
    digest_rounds = 5
    min_queries = 5 * round_size

    def setup(self) -> None:
        rng = _rng(self.name, SPACE_SEED, -1)
        self.spaces = [rational_space(rng, d, f"r{i}:{d}") for i, d in enumerate(self.DIMS)]
        self.spaces += [ell1(3), ellinf(3), ell1(4), ellinf(4)]
        # each space is a domain twice and a codomain twice per round
        n = len(self.spaces)
        self.pairs = [(i, (i + s) % n) for s in (1, 3) for i in range(n)]

    def prepare(self, k: int):
        rng = _rng(self.name, self.seed, k)
        i, j = self.pairs[k % self.round_size]
        dom, cod = self.spaces[i], self.spaces[j]
        m = operator_matrix(rng, cod.dim, dom.dim)
        pairs = _point_pairs(rng, dom, _rational_vector)
        self.current_inputs = (f"{dom.name} -> {cod.name} matrix "
                               f"{[[str(a) for a in r] for r in m]} points "
                               f"{[(_fmt(x), _fmt(y)) for x, y in pairs]}")
        return dom, cod, m, pairs

    def query(self, k: int, inputs):
        dom, cod, m, pairs = inputs
        t = LinearOperator(dom, cod, Matrix(m, RATIONAL)).normalized()
        report = order_of_smoothness(t)
        answers = _run_point_pairs(dom, pairs)

        def finish():
            problems = []
            if report.index != report.oracle_order:
                problems.append(f"index {report.index} != oracle {report.oracle_order}")
            lines, more = _finish_point_pairs(dom, pairs, answers)
            return "\n".join([_order_text(report)] + lines).encode(), problems + more
        return finish


class BJSubspace(Workload):
    """Subspace-level BJ tests on seeded lines of prebuilt 2-dimensional
    rational spaces, plus strong Auerbach checks of the standard bases of
    ell1 and ellinf."""

    name = "bj-subspace"
    DIMS = (2, 2, 2, 2)
    KINDS = ("subspace", "vector", "coapprox")
    # each space and kind twice a round, so the median rests on many draws
    RANDOMS = 2 * len(DIMS) * len(KINDS)
    # A strong Auerbach basis makes every subset verdict hold, so each
    # check walks every face: the heavy tail of this workload.  The bases
    # are fixed, so the tail (p95, in the middle of the ell1:3 block) does
    # not move with the seed; signed permutations of them cost up to 1.5x
    # more or less.  ell1:4 (about 19 s) and ellinf:4 (about 2.5 s, most of
    # a round) are left out.
    AUERBACH = (("ell1", 2), ("ellinf", 2), ("ellinf", 3)) + (("ell1", 3),) * 3
    round_size = RANDOMS + len(AUERBACH)
    digest_rounds = 1
    min_queries = 7 * round_size

    def setup(self) -> None:
        rng = _rng(self.name, SPACE_SEED, -1)
        self.spaces = [rational_space(rng, d, f"r{i}:{d}") for i, d in enumerate(self.DIMS)]
        builders = {"ell1": ell1, "ellinf": ellinf}
        built = {key: builders[key[0]](key[1]) for key in set(self.AUERBACH)}
        self.auerbach = [built[key] for key in self.AUERBACH]
        for space in self.spaces + list(built.values()):
            warm_face_lattice(space)

    def prepare(self, k: int):
        rng = _rng(self.name, self.seed, k)
        slot = k % self.round_size
        if slot >= self.RANDOMS:
            space = self.auerbach[slot - self.RANDOMS]
            basis = [Vector.basis(i, space.dim, RATIONAL) for i in range(space.dim)]
            self.current_inputs = f"auerbach {space.name} standard basis"
            return "auerbach", space, basis, None
        space = self.spaces[slot % len(self.DIMS)]
        kind = self.KINDS[slot // len(self.DIMS) % len(self.KINDS)]
        v = _rational_vector(rng, space.dim)
        if kind == "subspace":
            other = _independent(rng, space.dim, 1, _rational_vector)
            shown = [_fmt(w) for w in other]
        elif kind == "vector":
            other = _rational_vector(rng, space.dim)
            shown = _fmt(other)
        else:
            other = (_rational_vector(rng, space.dim), v.scale(_small_fraction(rng)))
            shown = [_fmt(x) for x in other]
        self.current_inputs = f"{kind} {space.name} V=[{_fmt(v)}] other={shown}"
        return kind, space, [v], other

    def query(self, k: int, inputs):
        kind, space, vs, other = inputs
        if kind == "auerbach":
            verdict = is_strong_auerbach(space, vs)
        elif kind == "subspace":
            verdict = bj_subspace_subspace(space, Subspace.span(space, vs),
                                           Subspace.span(space, other))
        elif kind == "vector":
            verdict = bj_subspace_vector(space, Subspace.span(space, vs), other)
        else:
            x, y0 = other
            verdict = is_best_coapproximation(space, x, y0, Subspace.span(space, vs))

        def finish():
            problems = []
            if kind == "auerbach" and not verdict:
                problems.append(f"standard basis of {space.name} not strong Auerbach")
            return _verdict_text(verdict).encode(), problems
        return finish


def warm_face_lattice(space) -> None:
    """Fill the ball's lazily built face lattice, which every face walk on
    a prebuilt space reuses, so that the first query does not pay for it."""
    count_faces(space.ball, 0)


def annihilated_by_support(space, rng: random.Random, v: Vector, count: int) -> list[Vector]:
    """``count`` independent vectors on which one support functional at
    ``v`` vanishes, so that span(v) is BJ-orthogonal to their span."""
    f = support_set(space, normalized(space, v)).extreme_functionals[0]
    while True:
        ws = []
        for _ in range(count):
            r = _quad_vector(rng, space.dim)
            ws.append(r - v.scale(f.dot(r) / f.dot(v)))
        if rank(Matrix.from_rows(ws)) == count:
            return ws


class QuadExample(Workload):
    """The bundled example over Q(r2): the CLI order report, point queries
    at seeded unit points, and subspace BJ on a seeded line."""

    name = "quad-example"
    # The median falls well inside the point queries and the p90 tail among
    # the CLI reports, each inside a block of one kind of query rather than
    # near the edge between two kinds, where it jumped between runs.  The
    # subspace query costs 1.3-2.7 s by its seeded lines and a run makes
    # only a few; the CLI reports, whose work the seed does not change,
    # keep it to about a third of a round's time, so that throughput does
    # not hinge on those few draws.
    KINDS = ("points",) * 24 + ("cli",) * 10 + ("subspace",)
    round_size = len(KINDS)
    digest_rounds = 1
    min_queries = 3 * len(KINDS)

    def setup(self) -> None:
        self.space = paper_example_space()
        warm_face_lattice(self.space)

    def prepare(self, k: int):
        rng = _rng(self.name, self.seed, k)
        kind = self.KINDS[k % self.round_size]
        if kind == "cli":
            self.current_inputs = "op order paper-example --json"
            return kind, None
        if kind == "points":
            pairs = _point_pairs(rng, self.space, _quad_vector)
            self.current_inputs = f"points {[(_fmt(x), _fmt(y)) for x, y in pairs]}"
            return kind, pairs
        # the line through the midpoint of two ball vertices against another
        # line that a support functional of the first annihilates: the
        # verdict holds, so the walk visits every face.  Such lines vary in
        # cost half as much as lines in random directions.
        verts = self.space.ball.vertices
        while True:
            a, b = rng.sample(range(len(verts)), 2)
            v = verts[a] + verts[b]
            if not v.is_zero():
                break
        ws = annihilated_by_support(self.space, rng, v, 1)
        self.current_inputs = f"subspace V=[{_fmt(v)}] W={[_fmt(w) for w in ws]}"
        return kind, ([v], ws)

    def query(self, k: int, inputs):
        kind, data = inputs
        space = self.space
        if kind == "cli":
            code, text = _run_cli(["op", "order", "paper-example", "--json"])

            def finish():
                doc, problems = _check_order_report(code, text)
                if doc is not None:
                    if doc["results"]["index"] != 8:
                        problems.append(f"paper-example order {doc['results']['index']} != 8")
                    if not any("flagged discrepancy" in w and "reference value 7" in w
                               for w in doc["warnings"]):
                        problems.append("paper-example reference-7 warning missing")
                return text.encode(), problems
            return finish
        if kind == "points":
            answers = _run_point_pairs(space, data)

            def finish():
                lines, problems = _finish_point_pairs(space, data, answers)
                return "\n".join(lines).encode(), problems
            return finish
        vs, ws = data
        verdict = bj_subspace_subspace(space, Subspace.span(space, vs), Subspace.span(space, ws))
        problems = [] if verdict else ["line not BJ-orthogonal to a subspace its support "
                                       "functional annihilates"]
        return lambda: (_verdict_text(verdict).encode(), problems)


WORKLOADS = {w.name: w for w in (CliOrder, OpQuery, BJSubspace, QuadExample)}
