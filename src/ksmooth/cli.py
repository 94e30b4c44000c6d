"""Command-line front end.

Commands::

    ksmooth space info <space>
    ksmooth point smooth <space> <vector>
    ksmooth op order <operator> [--json]
    ksmooth op index <operator> --set <vector-file> [--json]
    ksmooth op construct-face <space-X> <face> <space-Y> <unit-u> [--out F] [--json]
    ksmooth rank1 orders <n> <m> [--json]
    ksmooth ortho check <space> <x> <y> [--json]
    ksmooth selftest [--seed S] [--cases N]

Spaces are builtin specs (``ell1:n``, ``ellinf:n``, ``paper-example``) or
JSON file paths; vectors are ``e1``-style shorthands or comma-separated
exact literals; a face is a semicolon-separated list of boundary points
whose common active facets pin it down.

Exit codes: 0 success, 1 usage error, 2 validation error, 3 internal
inconsistency (a failed cross-check between two independent computations,
the tool's most serious failure mode).

Reports are byte-identical across runs for fixed inputs and seed; timing
goes to stderr so it never perturbs the comparable output.
"""

from __future__ import annotations

import argparse
import functools
import json
import re
import sys
import time
from typing import Optional, Sequence

from .errors import InternalInconsistencyError, ValidationError
from .files import (
    digest,
    load_operator,
    load_space,
    load_vector_set,
    operator_to_document,
    parse_vector,
)
from .linalg import Vector
from .operators import (
    PAPER_EXAMPLE_REFERENCE_ORDER,
    _index_computation,
    face_operator_and_order,
    order_of_smoothness,
    rank1_admissible_orders,
    rank1_forbidden_primes,
)
from .orthogonality import bj_vector_vector
from .polytope import FaceDescriptor, count_faces, minimal_face
from .scalars import serialize
from .selftest import run_all
from .spaces import point_smoothness, support_set


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        # -e1, -1,0, -r2,1 and -(...) are values; argparse takes only -<digits>
        self._negative_number_matcher = re.compile(r"-(\d|e\d|r2|\()")

    def error(self, message: str) -> None:  # type: ignore[override]
        raise _UsageError(message)


def _positive_int(text: str) -> int:
    if int(text) < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, not {text}")
    return int(text)


def _vector_list(vs: Sequence[Vector]) -> list[str]:
    return [str(v) for v in vs]


def _emit(report: dict, as_json: bool, human_lines: Sequence[str]) -> None:
    if as_json:
        print(json.dumps(report, indent=2, sort_keys=True))
    else:
        for line in human_lines:
            print(line)
        for warning in report.get("warnings", []):
            print(f"warning: {warning}")


def _report(command: Sequence[str], inputs: dict, results: dict,
            warnings: Sequence[str] = ()) -> dict:
    return {"command": list(command), "inputs": inputs,
            "results": results, "warnings": list(warnings)}


def _parse_face(space, text: str) -> FaceDescriptor:
    points = [parse_vector(part, space.field, space.dim)
              for part in text.split(";") if part.strip()]
    if not points:
        raise ValidationError("empty face specification")
    active = frozenset.intersection(*(minimal_face(space.ball, p).active_set for p in points))
    if not active:
        raise ValidationError("listed points share no facet; not a proper face")
    return space.ball.face(active)


def _cmd_space_info(args, argv) -> int:
    space = load_space(args.space)
    counts = [count_faces(space.ball, k) for k in range(space.dim)]
    face_counts = {str(k): c for k, c in enumerate(counts)}
    euler = sum((-1) ** k * c for k, c in enumerate(counts))
    euler_expected = 1 + (-1) ** (space.dim - 1)
    results = {
        "name": space.name,
        "field": space.field.value,
        "dim": space.dim,
        "vertex_count": len(space.ball.vertices),
        "facet_count": len(space.ball.functionals),
        "face_counts": face_counts,
        "euler_characteristic": euler,
        "euler_ok": euler == euler_expected,
        "vertices": _vector_list(space.ball.vertices),
        "facet_functionals": _vector_list(space.ball.functionals),
    }
    lines = [
        f"space {space.name}: dim {space.dim}, field {space.field.value}",
        f"vertices: {len(space.ball.vertices)}, facets: {len(space.ball.functionals)}",
        "face counts: " + ", ".join(f"dim {k}: {face_counts[str(k)]}"
                                    for k in range(space.dim)),
        f"Euler characteristic: {euler} (expected {euler_expected})",
    ]
    _emit(_report(argv, {"space": digest(args.space)}, results), args.json, lines)
    return 0


def _cmd_point_smooth(args, argv) -> int:
    space = load_space(args.space)
    x = parse_vector(args.vector, space.field, space.dim)
    k = point_smoothness(space, x)
    sup = support_set(space, x)
    face = minimal_face(space.ball, x)
    results = {
        "point": str(x),
        "smoothness_order": k,
        "active_functionals": _vector_list(sup.extreme_functionals),
        "minimal_face_dim": face.dim,
        "cross_check": space.dim - face.dim,
    }
    lines = [
        f"point {x} in {space.name}: {k}-smooth",
        f"active extreme functionals ({len(sup.extreme_functionals)}): "
        + ", ".join(results["active_functionals"]),
        f"minimal face dimension: {face.dim} "
        f"(cross-check {space.dim} - {face.dim} = {space.dim - face.dim})",
    ]
    _emit(_report(argv, {"space": digest(args.space)}, results), args.json, lines)
    return 0


def _order_results(t, report) -> dict:
    return {
        "operator_norm": serialize(report.attainment.operator_norm),
        "attaining_vertices": _vector_list(report.attainment.attaining_vertices),
        "attaining_basis_indices": list(report.attainment.basis_indices),
        "image_smoothness": [s.smoothness_order for s in report.image_supports],
        "min_bound": report.min_bound,
        "vector_basis": _vector_list(report.vector_basis),
        "functional_basis": _vector_list(report.functional_basis),
        "z_generators": _vector_list(report.z_generators),
        "index": report.index,
        "oracle_order": report.oracle_order,
        "extreme_contraction": report.is_extreme_contraction(
            t.domain.dim, t.codomain.dim),
    }


def _cmd_op_order(args, argv) -> int:
    t = load_operator(args.operator)
    warnings = []
    original_norm = t.attainment.operator_norm
    if original_norm != t.domain.field.one:
        t = t.normalized()
        warnings.append(f"operator normalized by its norm {serialize(original_norm)}")
    report = order_of_smoothness(t)
    results = _order_results(t, report)
    results["original_norm"] = serialize(original_norm)
    if args.operator == "paper-example":
        results["reference_order"] = PAPER_EXAMPLE_REFERENCE_ORDER
        if report.index != PAPER_EXAMPLE_REFERENCE_ORDER:
            warnings.append(
                f"flagged discrepancy: computed order {report.index} differs from "
                f"the bundled example's documented reference value "
                f"{PAPER_EXAMPLE_REFERENCE_ORDER}; the basis-coordinate index and "
                f"the outer-product oracle agree on {report.index}")
    lines = [
        f"operator norm: {results['original_norm']}",
        "attaining extreme points (one per +/- pair): "
        + ", ".join(results["attaining_vertices"]),
        f"image smoothness orders: {results['image_smoothness']}"
        f" (lower bound {report.min_bound})",
        f"Z generators ({len(report.z_generators)}): "
        + ", ".join(results["z_generators"]),
        f"index of smoothness: {report.index}",
        f"outer-product oracle: {report.oracle_order}",
        f"extreme contraction: {'yes' if results['extreme_contraction'] else 'no'}",
    ]
    _emit(_report(argv, {"operator": digest(args.operator)}, results, warnings),
          args.json, lines)
    return 0


def _cmd_op_index(args, argv) -> int:
    t = load_operator(args.operator).normalized()
    r = load_vector_set(args.set, t.domain.field, t.domain.dim)
    comp = _index_computation(t, r)
    results = {
        "index": comp.index,
        "extreme_members": _vector_list(comp.rep_vertices),
        "vector_basis": _vector_list(comp.vector_basis),
        "functional_basis": _vector_list(comp.functional_basis),
        "z_generators": _vector_list(comp.z_generators),
    }
    lines = [
        f"index of smoothness w.r.t. R ({len(r)} vectors): {comp.index}",
        "extreme members used: " + ", ".join(results["extreme_members"]),
        "vector basis: " + ", ".join(results["vector_basis"]),
        "functional basis: " + ", ".join(results["functional_basis"]),
    ]
    _emit(_report(argv, {"operator": digest(args.operator), "set": digest(args.set)},
                  results), args.json, lines)
    return 0


def _cmd_op_construct_face(args, argv) -> int:
    x_space = load_space(args.space_x)
    y_space = load_space(args.space_y)
    face = _parse_face(x_space, args.face)
    u = parse_vector(args.u, y_space.field, y_space.dim)
    t, report = face_operator_and_order(x_space, face, y_space, u)
    doc = operator_to_document(t, args.space_x, args.space_y)
    if args.out:
        try:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(json.dumps(doc, indent=2, sort_keys=True) + "\n")
        except OSError as exc:
            raise ValidationError(f"cannot write operator file {args.out}: {exc}") from exc
    results = _order_results(t, report)
    results["operator_file"] = doc
    results["face_dim"] = face.dim
    results["target_point"] = str(u)
    lines = [
        f"constructed operator attaining on a {face.dim}-dimensional face, order "
        f"{report.index}",
        "matrix rows: " + "; ".join(",".join(row) for row in doc["matrix"]),
        f"verified: norm 1, attaining set equals the face, order = "
        f"{len(report.attainment.basis_indices)} x "
        f"{report.image_supports[0].smoothness_order} = {report.index}",
    ]
    if args.out:
        lines.append(f"operator file written to {args.out}")
    _emit(_report(argv, {"space_x": digest(args.space_x),
                         "space_y": digest(args.space_y)}, results), args.json, lines)
    return 0


def _cmd_rank1_orders(args, argv) -> int:
    admissible = rank1_admissible_orders(args.n, args.m)
    forbidden = sorted(rank1_forbidden_primes(admissible))
    results = {"admissible_orders": admissible, "forbidden_primes": forbidden}
    lines = [
        f"admissible rank-1 smoothness orders for dims {args.n} x {args.m}: "
        + ", ".join(map(str, admissible)),
        "forbidden primes up to " + str(args.n * args.m) + ": "
        + (", ".join(map(str, forbidden)) if forbidden else "none"),
    ]
    _emit(_report(argv, {}, results), args.json, lines)
    return 0


def _cmd_ortho_check(args, argv) -> int:
    space = load_space(args.space)
    x = parse_vector(args.x, space.field, space.dim)
    y = parse_vector(args.y, space.field, space.dim)
    verdict = bj_vector_vector(space, x, y)
    results = {"orthogonal": bool(verdict)}
    if verdict:
        w = verdict.witnesses[0]
        results["witness_functional"] = str(w.functional)
        results["witness_coefficients"] = [serialize(c) for c in w.coefficients]
        lines = [f"orthogonal, witness f={w.functional}"]
    else:
        lines = ["not orthogonal"]
    _emit(_report(argv, {"space": digest(args.space)}, results), args.json, lines)
    return 0


def _cmd_selftest(args, argv) -> int:
    results = run_all(seed=args.seed, cases=args.cases)
    ok = True
    for suite in results:
        status = "PASS" if suite.ok else "FAIL"
        print(f"{status} {suite.name}: {suite.checked} checks, "
              f"{len(suite.failures)} failures")
        for failure in suite.failures:
            print(f"  counterexample: {failure}")
            ok = False
    return 0 if ok else 3


@functools.cache  # parsing leaves the parser unchanged, so one serves every call
def _build_parser() -> _Parser:
    parser = _Parser(prog="ksmooth", description=__doc__,
                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="group", required=True)

    p_space = sub.add_parser("space").add_subparsers(dest="cmd", required=True)
    p = p_space.add_parser("info")
    p.add_argument("space")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_space_info)

    p_point = sub.add_parser("point").add_subparsers(dest="cmd", required=True)
    p = p_point.add_parser("smooth")
    p.add_argument("space")
    p.add_argument("vector")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_point_smooth)

    p_op = sub.add_parser("op").add_subparsers(dest="cmd", required=True)
    p = p_op.add_parser("order")
    p.add_argument("operator")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_op_order)
    p = p_op.add_parser("index")
    p.add_argument("operator")
    p.add_argument("--set", required=True)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_op_index)
    p = p_op.add_parser("construct-face")
    p.add_argument("space_x")
    p.add_argument("face")
    p.add_argument("space_y")
    p.add_argument("u")
    p.add_argument("--out")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_op_construct_face)

    p_rank1 = sub.add_parser("rank1").add_subparsers(dest="cmd", required=True)
    p = p_rank1.add_parser("orders")
    p.add_argument("n", type=int)
    p.add_argument("m", type=int)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_rank1_orders)

    p_ortho = sub.add_parser("ortho").add_subparsers(dest="cmd", required=True)
    p = p_ortho.add_parser("check")
    p.add_argument("space")
    p.add_argument("x")
    p.add_argument("y")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_ortho_check)

    p = sub.add_parser("selftest")
    p.add_argument("--seed", type=int, default=42)
    p.add_argument("--cases", type=_positive_int, default=200)
    p.set_defaults(func=_cmd_selftest)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = _build_parser()
    started = time.monotonic()
    try:
        args = parser.parse_args(argv)
        code = args.func(args, argv)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except ValidationError as exc:
        print(f"validation error: {exc}", file=sys.stderr)
        return 2
    except InternalInconsistencyError as exc:
        print(f"internal inconsistency: {exc}", file=sys.stderr)
        return 3
    print(f"elapsed: {time.monotonic() - started:.3f}s", file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
