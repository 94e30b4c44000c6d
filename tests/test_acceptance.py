"""Acceptance gate: one test per criterion, exact tolerances, one
pass/fail line each (visible with ``pytest --capture=tee-sys``)."""

import json
import random
import time
from contextlib import contextmanager
from fractions import Fraction

from ksmooth.cli import main
from ksmooth.linalg import Vector
from ksmooth.operators import (
    LinearOperator,
    Matrix,
    construct_face_operator,
    operator_norm_and_attainment,
    order_of_smoothness,
    paper_example_operator,
    rank1_admissible_orders,
    sign_canonical,
)
from ksmooth.orthogonality import is_strong_auerbach
from ksmooth.scalars import FieldTag, INV_SQRT2, QuadScalar
from ksmooth.selftest import (
    _random_rank1_operator,
    bj_consistency_suite,
    face_count_suite,
    interior_suite,
    invariance_suite,
    order_equivalence_suite,
    rank1_suite,
)
from ksmooth.spaces import ell1, ellinf, random_space

Q = FieldTag.RATIONAL
K = FieldTag.QUAD_SQRT2


@contextmanager
def criterion(number, title):
    started = time.monotonic()
    try:
        yield
    except BaseException:
        print(f"\nFAIL criterion {number}: {title}")
        raise
    print(f"\nPASS criterion {number}: {title} "
          f"({time.monotonic() - started:.2f}s)")


def kv(*entries):
    return Vector([QuadScalar(e) for e in entries], K)


def test_criterion_1_bundled_example_reproduction(capsys):
    with criterion(1, "bundled example: norm, attainment, two-way order, flag"):
        started = time.monotonic()
        t = paper_example_operator()
        att = operator_norm_and_attainment(t)
        assert att.operator_norm == K.one
        printed = {
            kv(1, 0, 0).entries,
            kv(0, 1, 0).entries,
            Vector([INV_SQRT2, INV_SQRT2, QuadScalar(0)], K).entries,
            kv(0, 0, 1).entries,
        }
        assert {v.entries for v in att.attaining_vertices} == printed
        report = order_of_smoothness(t)
        assert report.index == report.oracle_order
        # independently derived two-way-consistent value; the documented
        # reference value is 7 and the mismatch must be flagged, not patched
        assert report.index == 8
        elapsed = time.monotonic() - started
        assert elapsed < 1.0, f"reproduction took {elapsed:.3f}s"

        code = main(["op", "order", "paper-example", "--json"])
        out = capsys.readouterr().out
        assert code == 0
        doc = json.loads(out)
        assert doc["results"]["index"] == 8
        assert doc["results"]["reference_order"] == 7
        assert any("flagged discrepancy" in w for w in doc["warnings"])


def test_criterion_2_order_equivalence_200_cases():
    with criterion(2, "index equals oracle on 200 seeded operators, dims 2-4"):
        started = time.monotonic()
        result = order_equivalence_suite(42, 200)
        elapsed = time.monotonic() - started
        assert result.checked == 200
        assert not result.failures, result.failures[:3]
        assert elapsed < 60.0, f"suite took {elapsed:.1f}s"


def test_criterion_3_smoothness_equals_face_codimension():
    with criterion(3, "point smoothness = dim - minimal-face dim everywhere"):
        result = interior_suite(43, 20)
        assert result.checked > 100
        assert not result.failures, result.failures[:3]


def test_criterion_4_cube_face_counts():
    with criterion(4, "cube face counts C(N,k)*2^k for N in 2..5 plus Euler"):
        result = face_count_suite()
        assert not result.failures, result.failures


def test_criterion_5_rank1_laws():
    with criterion(5, "rank-1 law on 100 seeded operators; no 5/7-smooth at 3x3"):
        result = rank1_suite(44, 100)
        assert result.checked == 100
        assert not result.failures, result.failures[:3]
        rng = random.Random(4400)
        orders_seen = set()
        for _ in range(30):
            x = random_space(rng.randrange(2 ** 30), 3, 4)
            y = random_space(rng.randrange(2 ** 30), 3, 4)
            t = _random_rank1_operator(rng, x, y)
            order = order_of_smoothness(t).index
            orders_seen.add(order)
            assert order not in (5, 7)
            assert order in rank1_admissible_orders(3, 3)
        assert orders_seen  # the loop really ran


def test_criterion_6_face_constructor_all_products():
    with criterion(6, "constructed operators realize every p*q, attain on the "
                      "face, map onto +/-u"):
        from ksmooth.polytope import enumerate_faces
        x_space, y_space = ell1(3), ellinf(3)
        targets = {1: Vector([1, Fraction(1, 2), 0], Q),
                   2: Vector([1, 1, 0], Q),
                   3: Vector([1, 1, 1], Q)}
        for p in (1, 2, 3):
            face = enumerate_faces(x_space.ball, p - 1)[0]
            face_vertex_reps = {sign_canonical(v).entries
                                for v in x_space.ball.face_vertices(face)}
            for q in (1, 2, 3):
                u = targets[q]
                t = construct_face_operator(x_space, face, y_space, u)
                report = order_of_smoothness(t)
                assert report.index == p * q
                att = report.attainment
                assert {v.entries for v in att.attaining_vertices} == face_vertex_reps
                for v in att.attaining_vertices:
                    assert t.apply(v) in (u, -u)


def test_criterion_7_minimum_and_invariance():
    with criterion(7, "order >= sum of image smoothness; index invariant "
                      "under 20x20 basis recombinations"):
        # the criterion-2 suite checks the bound on each of its cases
        bound_check = order_equivalence_suite(42, 40)
        assert not bound_check.failures, bound_check.failures[:3]
        result = invariance_suite(45, 20, 20)
        assert result.checked == 400
        assert not result.failures, result.failures[:3]


def test_criterion_8_orthogonality_soundness():
    with criterion(8, "BJ verdicts match breakpoint minimization on 500 pairs; "
                      "standard bases are strong Auerbach, n <= 4"):
        result = bj_consistency_suite(46, 500)
        assert result.checked == 500
        assert not result.failures, result.failures[:3]
        for n in (1, 2, 3, 4):
            basis = [Vector.basis(i, n, Q) for i in range(n)]
            assert is_strong_auerbach(ell1(n), basis)
            assert is_strong_auerbach(ellinf(n), basis)


def test_criterion_9_extreme_contractions():
    with criterion(9, "identity on the cube space has order n^2 and is an "
                      "extreme contraction, n <= 3"):
        for n in (1, 2, 3):
            space = ellinf(n)
            ident = LinearOperator(space, space, Matrix.identity(n, Q))
            report = order_of_smoothness(ident)
            assert report.index == n * n
            assert report.is_extreme_contraction(n, n)
