import json
import math
import re
import time
from fractions import Fraction
from pathlib import Path

import pytest

import ksmooth.cli as cli
import ksmooth.operators as operators
from ksmooth.cli import main
from ksmooth.files import (
    load_operator,
    load_space,
    load_vector_set,
    operator_to_document,
    parse_vector,
    space_from_document,
    space_to_document,
)
from ksmooth.errors import DimensionMismatchError, InternalInconsistencyError, ValidationError
from ksmooth.linalg import Vector
from ksmooth.operators import order_of_smoothness
from ksmooth.scalars import FieldTag, parse, serialize
from ksmooth.spaces import ell1

Q = FieldTag.RATIONAL
SAMPLES = Path(__file__).resolve().parent.parent / "samples"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out


# ---------------------------------------------------------------------------
# file formats
# ---------------------------------------------------------------------------

def test_space_file_roundtrip(tmp_path):
    doc = space_to_document(ell1(2))
    path = tmp_path / "space.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    loaded = load_space(str(path))
    assert sorted(v.entries for v in loaded.ball.vertices) == sorted(
        v.entries for v in ell1(2).ball.vertices)


def test_quad_space_file_roundtrip(tmp_path):
    from ksmooth.spaces import paper_example_space
    doc = space_to_document(paper_example_space())
    path = tmp_path / "quad.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    loaded = load_space(str(path))
    assert loaded.field is FieldTag.QUAD_SQRT2
    assert sorted(map(str, (e for v in loaded.ball.vertices for e in v.entries))) == \
        sorted(map(str, (e for v in paper_example_space().ball.vertices
                         for e in v.entries)))


def test_space_file_bad_literal_position(tmp_path):
    path = tmp_path / "space.json"
    path.write_text(json.dumps({
        "name": "bad", "field": "rational", "dim": 2,
        "vertices": [["1", "oops"], ["-1", "0"]]}), encoding="utf-8")
    with pytest.raises(ValidationError) as exc:
        load_space(str(path))
    assert "vertices[0][1]" in str(exc.value)


def test_space_file_bad_json_line(tmp_path):
    path = tmp_path / "space.json"
    path.write_text('{"name": "x",\n  broken', encoding="utf-8")
    with pytest.raises(ValidationError) as exc:
        load_space(str(path))
    assert "line 2" in str(exc.value)


def test_operator_file_with_relative_space(tmp_path):
    space_doc = space_to_document(ell1(2))
    (tmp_path / "dom.json").write_text(json.dumps(space_doc), encoding="utf-8")
    op_doc = {"domain": "dom.json", "codomain": "ellinf:2",
              "matrix": [["1", "1"], ["1", "1"]]}
    op_path = tmp_path / "op.json"
    op_path.write_text(json.dumps(op_doc), encoding="utf-8")
    t = load_operator(str(op_path))
    assert order_of_smoothness(t).index == 4


def test_operator_document_roundtrip(tmp_path):
    t = load_operator("paper-example")
    doc = operator_to_document(t, "paper-example", "ellinf:3")
    assert doc["matrix"][0] == ["1", "-1+r2", "1"]


def test_parse_vector_forms():
    assert parse_vector("e2", Q, 3) == Vector.basis(1, 3, Q)
    assert parse_vector("-e1", Q, 2) == -Vector.basis(0, 2, Q)
    assert parse_vector("(1/2,-1/2)", Q, 2) == Vector([Fraction(1, 2), Fraction(-1, 2)], Q)
    with pytest.raises(DimensionMismatchError):
        parse_vector("1,2,3", Q, 2)


def test_vector_set_file(tmp_path):
    path = tmp_path / "r.json"
    path.write_text(json.dumps({"vectors": [["1", "0"], ["0", "1"]]}), encoding="utf-8")
    vs = load_vector_set(str(path), Q, 2)
    assert vs == [Vector.basis(0, 2, Q), Vector.basis(1, 2, Q)]


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------

def test_space_info(capsys):
    code, out = run(capsys, "space", "info", "ellinf:4")
    assert code == 0
    assert "vertices: 16, facets: 8" in out
    assert "Euler characteristic: 0 (expected 0)" in out


def test_space_info_paper_example(capsys):
    code, out = run(capsys, "space", "info", "paper-example")
    assert code == 0
    assert "dim 3" in out and "vertices: 10" in out


def test_point_smooth(capsys):
    code, out = run(capsys, "point", "smooth", "ellinf:3", "1,1,1")
    assert code == 0
    assert "3-smooth" in out and "minimal face dimension: 0" in out
    code, out = run(capsys, "point", "smooth", "ell1:2", "1/2,1/2")
    assert code == 0
    assert "1-smooth" in out and "minimal face dimension: 1" in out


def test_point_smooth_rejects_nonunit(capsys):
    code = main(["point", "smooth", "ellinf:3", "1,1,2"])
    capsys.readouterr()
    assert code == 2


def test_huge_guard_variable_is_cheap(capsys, monkeypatch):
    # the vertex limit 2**KSMOOTH_MAX_DIM must never be formed: at 10**12
    # that power alone would take over 100 GB
    monkeypatch.delenv("KSMOOTH_MAX_DIM", raising=False)
    assert main(["space", "info", "ell1:2"]) == 0
    default = capsys.readouterr().out
    monkeypatch.setenv("KSMOOTH_MAX_DIM", str(10 ** 12))
    start = time.perf_counter()
    assert main(["space", "info", "ell1:2"]) == 0
    assert time.perf_counter() - start < 1.0
    assert capsys.readouterr().out == default


@pytest.mark.parametrize("argv, message", [
    (["point", "smooth", "ell1:2", "1,1"], "norm of (1,1) is not 1"),
    (["point", "smooth", "paper-example", "1,1,1"], "norm of (1,1,1) is not 1"),
    (["op", "construct-face", "paper-example", "e3", "ell1:2", "e1"],
     "domain and codomain over different fields"),
    (["op", "construct-face", "ellinf:2", "e1", "paper-example", "e3"],
     "domain and codomain over different fields"),
], ids=["ell1:2-1,1", "paper-example-1,1,1", "construct-face-cross-field",
        "construct-face-cross-field-reversed"])
def test_validation_message_prints_literals(capsys, argv, message):
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert message in err
    assert "Fraction(" not in err and "QuadScalar(" not in err


def test_op_order_bundled_example_flags_discrepancy(capsys):
    code, out = run(capsys, "op", "order", "paper-example")
    assert code == 0
    assert "index of smoothness: 8" in out
    assert "outer-product oracle: 8" in out
    assert "flagged discrepancy" in out
    assert "reference value 7" in out


def test_op_order_json_roundtrips_scalars(capsys):
    code, out = run(capsys, "op", "order", "paper-example", "--json")
    assert code == 0
    doc = json.loads(out)
    assert doc["results"]["index"] == 8
    assert doc["results"]["reference_order"] == 7
    assert doc["warnings"]
    field = FieldTag.QUAD_SQRT2
    for vec in doc["results"]["z_generators"] + [doc["results"]["operator_norm"]]:
        for literal in vec.strip("()").split(","):
            assert literal == serialize(parse(literal, field))


def test_reports_byte_identical(capsys):
    _, first = run(capsys, "op", "order", "paper-example", "--json")
    _, second = run(capsys, "op", "order", "paper-example", "--json")
    assert first == second


def test_op_order_normalizes_with_note(tmp_path, capsys):
    op_doc = {"domain": "ell1:2", "codomain": "ellinf:2",
              "matrix": [["2", "2"], ["2", "2"]]}
    path = tmp_path / "op.json"
    path.write_text(json.dumps(op_doc), encoding="utf-8")
    code, out = run(capsys, "op", "order", str(path))
    assert code == 0
    assert "normalized" in out
    assert "index of smoothness: 4" in out


def test_op_order_rescales_by_the_norm_it_holds(tmp_path, capsys, monkeypatch):
    # the scan that finds the norm is carried over to the rescaled operator:
    # one scan in all, of the operator as loaded, and the report that of
    # t.normalized()
    op_doc = {"domain": "ell1:2", "codomain": "ellinf:2",
              "matrix": [["2", "2"], ["2", "1"]]}
    path = tmp_path / "op.json"
    path.write_text(json.dumps(op_doc), encoding="utf-8")
    t = load_operator(str(path)).normalized()
    expected = cli._order_results(t, order_of_smoothness(t))
    scans = []
    real = operators.operator_norm_and_attainment

    def counted(op):
        scans.append(op)
        return real(op)

    monkeypatch.setattr(operators, "operator_norm_and_attainment", counted)
    code, out = run(capsys, "op", "order", str(path), "--json")
    assert code == 0
    assert len(scans) == 1
    assert scans[0].matrix == load_operator(str(path)).matrix
    results = json.loads(out)["results"]
    assert results.pop("original_norm") == "2"
    assert results == expected


def test_op_index_with_set_file(tmp_path, capsys):
    op_doc = {"domain": "ell1:2", "codomain": "ellinf:2",
              "matrix": [["1", "1"], ["1", "1"]]}
    (tmp_path / "op.json").write_text(json.dumps(op_doc), encoding="utf-8")
    (tmp_path / "r.json").write_text(
        json.dumps({"vectors": [["1", "0"], ["0", "1"]]}), encoding="utf-8")
    code, out = run(capsys, "op", "index", str(tmp_path / "op.json"),
                    "--set", str(tmp_path / "r.json"))
    assert code == 0
    assert "index of smoothness w.r.t. R (2 vectors): 4" in out


def test_op_index_bundled_example_attaining_set(tmp_path, capsys):
    # feeding the bundled example its own attaining set reproduces its order
    (tmp_path / "r.json").write_text(json.dumps({"vectors": [
        ["1", "0", "0"], ["0", "1", "0"],
        ["1/2*r2", "1/2*r2", "0"], ["0", "0", "1"]]}), encoding="utf-8")
    code, out = run(capsys, "op", "index", "paper-example",
                    "--set", str(tmp_path / "r.json"))
    assert code == 0
    assert "index of smoothness w.r.t. R (4 vectors): 8" in out


def test_op_index_requires_extreme_member(tmp_path, capsys):
    op_doc = {"domain": "ell1:2", "codomain": "ellinf:2",
              "matrix": [["1", "1"], ["1", "1"]]}
    (tmp_path / "op.json").write_text(json.dumps(op_doc), encoding="utf-8")
    (tmp_path / "r.json").write_text(
        json.dumps([["1/2", "1/2"]]), encoding="utf-8")
    code = main(["op", "index", str(tmp_path / "op.json"),
                 "--set", str(tmp_path / "r.json")])
    capsys.readouterr()
    assert code == 2


def test_op_index_zero_image_is_validation_error(tmp_path, capsys):
    # e2 is an extreme member of R that the operator sends to zero
    op_doc = {"domain": "ell1:2", "codomain": "ellinf:2",
              "matrix": [["1", "0"], ["1", "0"]]}
    (tmp_path / "op.json").write_text(json.dumps(op_doc), encoding="utf-8")
    (tmp_path / "r.json").write_text(json.dumps([["1", "0"], ["0", "1"]]), encoding="utf-8")
    code = main(["op", "index", str(tmp_path / "op.json"), "--set", str(tmp_path / "r.json")])
    assert code == 2
    assert capsys.readouterr().err == (
        "validation error: image of extreme point (0,1) is zero; support set undefined\n")


def test_vector_file_bad_literal_names_its_cell(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps([["1", "x"]]), encoding="utf-8")
    assert main(["op", "index", str(SAMPLES / "identity-ellinf2.json"),
                 "--set", str(path)]) == 2
    err = capsys.readouterr().err
    assert "validation error: vectors[0][1]: invalid scalar literal 'x'" in err


def test_construct_face_command(tmp_path, capsys):
    out_path = tmp_path / "face-op.json"
    code, out = run(capsys, "op", "construct-face", "ell1:3", "e1;e2",
                    "ellinf:2", "1,1", "--out", str(out_path))
    assert code == 0
    assert "order 4" in out
    emitted = load_operator(str(out_path))
    assert order_of_smoothness(emitted).index == 4


@pytest.mark.parametrize("argv, same", [
    (["point", "smooth", "ell1:2", "-e1"], "(-1,0)"),
    (["point", "smooth", "ell1:2", "-1,0"], "(-1,0)"),
    (["point", "smooth", "ell1:2", "-1/2,1/2"], "(-1/2,1/2)"),
    (["ortho", "check", "ell1:2", "e1", "-e2"], "(0,-1)"),
], ids=["-e1", "-1,0", "-1/2,1/2", "-e2"])
def test_vectors_starting_with_minus_are_values(capsys, argv, same):
    # argparse alone reads "-e1" or "-1,0" as an unknown option
    code, out = run(capsys, *argv)
    assert code == 0
    assert run(capsys, *argv[:-1], same) == (0, out)


def test_dash_tokens_that_are_not_values_stay_options(capsys):
    code, out = run(capsys, "point", "smooth", "ell1:2", "-1,0", "--json")
    assert code == 0
    assert json.loads(out)["command"] == ["point", "smooth", "ell1:2", "-1,0", "--json"]
    for token in ("-x", "-e"):
        assert main(["point", "smooth", "ell1:2", token]) == 1
        assert "usage error" in capsys.readouterr().err
    # a value in the wrong field is the literal parser's to reject, not argparse's
    assert main(["point", "smooth", "ell1:2", "-r2,0"]) == 2
    assert "validation error" in capsys.readouterr().err


def test_construct_face_takes_negative_face_and_target(tmp_path, capsys):
    out_path = tmp_path / "F.json"
    code, out = run(capsys, "op", "construct-face", "ell1:2", "-e1", "ellinf:2", "-e2",
                    "--out", str(out_path))
    assert code == 0
    assert "order 1" in out
    emitted = load_operator(str(out_path))
    assert order_of_smoothness(emitted).index == 1


@pytest.mark.parametrize("where", ["directory", "missing-parent"])
def test_construct_face_unwritable_out_is_validation_error(tmp_path, capsys, where):
    out_path = tmp_path if where == "directory" else tmp_path / "missing" / "op.json"
    assert main(["op", "construct-face", "ell1:3", "e1;e2", "ellinf:2", "1,1",
                 "--out", str(out_path)]) == 2
    err = capsys.readouterr().err
    assert f"validation error: cannot write operator file {out_path}: " in err
    assert "Traceback" not in err


def test_rank1_orders_computes_admissible_orders_once(capsys, monkeypatch):
    calls = []
    real = operators.rank1_admissible_orders

    def counted(n, m):
        calls.append((n, m))
        return real(n, m)

    monkeypatch.setattr(operators, "rank1_admissible_orders", counted)
    monkeypatch.setattr(cli, "rank1_admissible_orders", counted)
    code, out = run(capsys, "rank1", "orders", "3", "3")
    assert code == 0 and "forbidden primes up to 9: 5, 7" in out
    assert calls == [(3, 3)]


def test_construct_face_computes_the_order_once(capsys, monkeypatch):
    # the command reports the order that the construction has just verified
    calls = []
    real = operators.order_of_smoothness

    def counted(t):
        calls.append(t)
        return real(t)

    monkeypatch.setattr(operators, "order_of_smoothness", counted)
    monkeypatch.setattr(cli, "order_of_smoothness", counted)
    code, out = run(capsys, "op", "construct-face", "ell1:3", "e1;e2", "ellinf:2", "1,1")
    assert code == 0 and "order 4" in out
    assert len(calls) == 1


def test_rank1_orders_command(capsys):
    code, out = run(capsys, "rank1", "orders", "3", "3")
    assert code == 0
    assert "1, 2, 3, 4, 6, 9" in out
    assert "5, 7" in out
    code, out = run(capsys, "rank1", "orders", "2", "2")
    assert code == 0
    assert "1, 2, 4" in out


@pytest.mark.parametrize("n, guard, code", [("7", None, 2), ("7", "7", 0),
                                             ("1000000000000", None, 2)],
                         ids=["over-guard", "guard-raised", "13-digit"])
def test_rank1_orders_dimension_guard(capsys, monkeypatch, n, guard, code):
    if guard is None:
        monkeypatch.delenv("KSMOOTH_MAX_DIM", raising=False)
    else:
        monkeypatch.setenv("KSMOOTH_MAX_DIM", guard)
    assert main(["rank1", "orders", n, "2"]) == code
    err = capsys.readouterr().err
    if code == 2:
        assert f"dimension {n} exceeds guard 6" in err


def test_space_file_boolean_dim_is_validation_error(tmp_path, capsys):
    path = tmp_path / "space.json"
    path.write_text(json.dumps({"name": "x", "field": "rational", "dim": True,
                                "vertices": [["1"], ["-1"]]}), encoding="utf-8")
    assert main(["space", "info", str(path)]) == 2
    assert "'dim' must be a positive integer" in capsys.readouterr().err


def test_ortho_check_command(capsys):
    code, out = run(capsys, "ortho", "check", "ell1:2", "e1", "e2")
    assert code == 0
    assert "orthogonal, witness f=(1,0)" in out
    code, out = run(capsys, "ortho", "check", "ellinf:2", "1,0", "1,1")
    assert code == 0
    assert "not orthogonal" in out


def test_usage_error_exit_code(capsys):
    assert main(["bogus"]) == 1
    capsys.readouterr()
    assert main(["op"]) == 1
    capsys.readouterr()


def test_validation_error_exit_code(capsys):
    assert main(["space", "info", "no-such-file.json"]) == 2
    capsys.readouterr()


def test_parser_built_once_answers_like_a_fresh_one(capsys):
    # main reuses one parser per process; after any earlier call, usage
    # errors, validation errors and reports read as from a fresh parser
    argvs = [["op", "order", "bogus-flag", "--nope"],
             ["space", "info", "no-such-file.json"],
             ["op", "order", str(SAMPLES / "rank1-ell1-ellinf.json")],
             ["op", "order", str(SAMPLES / "rank1-ell1-ellinf.json"), "--json"]]

    def call(argv):
        code = main(argv)
        captured = capsys.readouterr()
        err = [line for line in captured.err.splitlines() if not line.startswith("elapsed:")]
        return code, captured.out, err

    fresh = []
    for argv in argvs:
        cli._build_parser.cache_clear()
        fresh.append(call(argv))
    assert [code for code, _, _ in fresh] == [1, 2, 0, 0]
    for _ in range(2):
        assert [call(argv) for argv in argvs] == fresh
    assert cli._build_parser() is cli._build_parser()


def test_malformed_guard_variable_is_validation_error(capsys, monkeypatch):
    monkeypatch.setenv("KSMOOTH_MAX_DIM", "abc")
    assert main(["space", "info", "ell1:3"]) == 2
    assert "KSMOOTH_MAX_DIM" in capsys.readouterr().err


@pytest.mark.parametrize("spec", ["ellinf:10", "ell1:99999999999999999999"])
def test_dimension_guard_before_building_points(capsys, monkeypatch, spec):
    import ksmooth.polytope as polytope

    def fail(*args, **kwargs):
        raise AssertionError("the space was built before the dimension guard")

    monkeypatch.delenv("KSMOOTH_MAX_DIM", raising=False)
    monkeypatch.setattr(polytope, "canonicalize", fail)
    monkeypatch.setattr(polytope, "_extreme_points", fail)
    # a regression must fail fast here, not build 2 * 10**20 points
    monkeypatch.setattr(Vector, "basis", fail)
    assert main(["space", "info", spec]) == 2
    assert "exceeds guard 6 (set KSMOOTH_MAX_DIM to raise)" in capsys.readouterr().err


LONG = "9" * 5000  # more digits than CPython converts to int by default


def test_vertex_count_guard_after_extreme_points(tmp_path, capsys, monkeypatch):
    # 88 rational points on the unit circle, all extreme: (+/-a/c, +/-b/c)
    # and (+/-b/c, +/-a/c) for the first 11 primitive Pythagorean triples
    triples = sorted((m * m + n * n, m * m - n * n, 2 * m * n)
                     for m in range(2, 9) for n in range(1, m)
                     if (m - n) % 2 and math.gcd(m, n) == 1)[:11]
    points = {(Fraction(sx * x, c), Fraction(sy * y, c)) for c, a, b in triples
              for x, y in ((a, b), (b, a)) for sx in (1, -1) for sy in (1, -1)}
    assert len(points) == 88
    path = tmp_path / "circle.json"
    path.write_text(json.dumps({
        "name": "circle", "field": "rational", "dim": 2,
        "vertices": [[str(x) for x in p] for p in sorted(points)]}),
        encoding="utf-8")
    monkeypatch.delenv("KSMOOTH_MAX_DIM", raising=False)
    assert main(["space", "info", str(path)]) == 2
    assert "88 vertices exceed guard 64" in capsys.readouterr().err


@pytest.mark.parametrize("argv, message", [
    (["point", "smooth", "ell1:2", LONG + ",0"], "integer too long or not decimal"),
    (["point", "smooth", "ell1:2", "e" + LONG], "basis index has too many digits (5000)"),
    (["space", "info", "ell1:" + LONG], "dimension has too many digits (5000)"),
    (["space", "info", "{dir}/space.json"], "space.json: cannot decode space file"),
    (["op", "order", "{dir}/op.json"], "op.json: cannot decode operator file"),
    (None, "'dim' is too large"),
], ids=["literal", "basis-index", "builtin-dimension", "space-file-dim", "operator-entry",
        "in-memory-dim"])
def test_overlong_integer_is_validation_error(tmp_path, capsys, argv, message):
    if argv is None:  # a document built in Python, where no JSON parser caps the digits
        with pytest.raises(ValidationError, match=message):
            space_from_document({"name": "x", "field": "rational",
                                 "dim": 10 ** 5000 - 1, "vertices": [["1"]]})
        return
    (tmp_path / "space.json").write_text(
        '{"name": "x", "field": "rational", "dim": %s, "vertices": [["1"]]}' % LONG,
        encoding="utf-8")
    (tmp_path / "op.json").write_text(
        '{"domain": "ell1:2", "codomain": "ell1:2", "matrix": [[%s, "0"], ["0", "1"]]}'
        % LONG, encoding="utf-8")
    assert main([arg.format(dir=tmp_path) for arg in argv]) == 2
    err = capsys.readouterr().err
    assert err.startswith("validation error: ") and message in err


@pytest.mark.parametrize("spec", ["ellinf:0", "ell1:07", "ell1:-1", "ell1:"])
def test_invalid_builtin_spec_names_the_builtin_rule(tmp_path, capsys, monkeypatch, spec):
    # no file of that name exists: say what a builtin spec needs, not Errno 2
    monkeypatch.chdir(tmp_path)
    (tmp_path / "op.json").write_text(json.dumps(
        {"domain": spec, "codomain": "ell1:2", "matrix": [["1", "0"], ["0", "1"]]}),
        encoding="utf-8")
    message = (f"validation error: invalid builtin space spec {spec!r}: ell1:n and "
               "ellinf:n need an integer n >= 1 with no leading zeros\n")
    for argv in (["space", "info", spec], ["op", "order", "op.json"]):
        assert main(argv) == 2
        assert capsys.readouterr().err == message
    # a space file of that name is still read as a file
    (tmp_path / spec).write_text(json.dumps(space_to_document(ell1(2))), encoding="utf-8")
    assert main(["space", "info", spec]) == 0


def test_file_not_in_utf8_is_validation_error(tmp_path, capsys):
    path = tmp_path / "latin1.json"
    path.write_bytes('{"name": "\u00e9"}'.encode("latin-1"))
    assert main(["space", "info", str(path)]) == 2
    assert "latin1.json: cannot decode space file: 'utf-8' codec" in capsys.readouterr().err


def test_selftest_certificate_vertices_parse_back():
    from ksmooth.selftest import _describe
    from ksmooth.spaces import paper_example_space
    space = paper_example_space()
    listed = _describe(space).split("vertices=", 1)[1]
    assert listed.startswith("[(") and listed.endswith(")]")
    parsed = [parse_vector(text, space.field, space.dim)
              for text in listed[1:-1].split(", ")]
    assert [v.entries for v in parsed] == [v.entries for v in space.ball.vertices]


def test_selftest_certificate_replays_the_operator(tmp_path, capsys, monkeypatch):
    import ksmooth.operators as operators
    import ksmooth.selftest as selftest
    pair_rank = operators._pair_rank
    seen = []

    def disagreeing_oracle(att):
        seen.append(att)
        return -1

    monkeypatch.setattr(operators, "_pair_rank", disagreeing_oracle)
    result = selftest.order_equivalence_suite(5, 1)
    monkeypatch.undo()
    [att] = seen
    [certificate] = result.failures
    assert "by the outer-product oracle" in certificate
    decoder = json.JSONDecoder()
    names = re.findall(r"(\w+\.json) (?=\{)", certificate)
    assert names == ["operator.json", "domain.json", "codomain.json"]
    for name in names:
        start = certificate.index(f"{name} {{") + len(name) + 1
        doc, _ = decoder.raw_decode(certificate, start)
        (tmp_path / name).write_text(json.dumps(doc), encoding="utf-8")
    code, out = run(capsys, "op", "order", str(tmp_path / "operator.json"), "--json")
    assert code == 0
    results = json.loads(out)["results"]
    assert results["attaining_vertices"] == [str(v) for v in att.attaining_vertices]
    assert results["index"] == pair_rank(att)


def test_selftest_reports_an_inconsistency_as_a_certificate(capsys, monkeypatch):
    import ksmooth.selftest as selftest

    def inconsistent(t):
        raise InternalInconsistencyError("index 1 by basis coordinates but 2 by the oracle")

    monkeypatch.setattr(selftest, "order_of_smoothness", inconsistent)
    code = main(["selftest", "--seed", "7", "--cases", "4"])
    out = capsys.readouterr().out
    assert code == 3
    assert "FAIL order-equivalence: 4 checks, 4 failures" in out
    assert ("counterexample: case 0: index 1 by basis coordinates but 2 by the oracle; "
            "operator.json {") in out
    assert "PASS face-counts" in out


def test_bundled_sample_operators(capsys):
    code, out = run(capsys, "op", "order", str(SAMPLES / "rank1-ell1-ellinf.json"))
    assert code == 0 and "index of smoothness: 4" in out
    code, out = run(capsys, "op", "order", str(SAMPLES / "identity-ellinf2.json"))
    assert code == 0 and "index of smoothness: 4" in out
    assert "extreme contraction: yes" in out


@pytest.mark.parametrize("cases", ["0", "-3"])
def test_selftest_rejects_cases_below_one(capsys, cases):
    # no case count below 1 runs: zero or negative checks must not read PASS
    assert main(["selftest", "--cases", cases]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("usage error: argument --cases:")


def test_selftest_smoke(capsys):
    code = main(["selftest", "--seed", "7", "--cases", "4"])
    out = capsys.readouterr().out
    assert code == 0
    assert "PASS order-equivalence" in out
    assert "FAIL" not in out
