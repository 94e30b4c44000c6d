import json
from fractions import Fraction

import pytest

from ksmooth.cli import main
from ksmooth.files import (
    load_operator,
    load_space,
    load_vector_set,
    operator_to_document,
    parse_vector,
    space_to_document,
)
from ksmooth.errors import DimensionMismatchError, ValidationError
from ksmooth.linalg import Vector
from ksmooth.operators import order_of_smoothness
from ksmooth.scalars import FieldTag, parse, serialize
from ksmooth.spaces import ell1

Q = FieldTag.RATIONAL


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


@pytest.mark.parametrize("space, point", [("ell1:2", "1,1"), ("paper-example", "1,1,1")])
def test_validation_message_prints_literals(capsys, space, point):
    assert main(["point", "smooth", space, point]) == 2
    err = capsys.readouterr().err
    assert f"norm of ({point}) is not 1" in err
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


def test_construct_face_command(tmp_path, capsys):
    out_path = tmp_path / "face-op.json"
    code, out = run(capsys, "op", "construct-face", "ell1:3", "e1;e2",
                    "ellinf:2", "1,1", "--out", str(out_path))
    assert code == 0
    assert "order 4" in out
    emitted = load_operator(str(out_path))
    assert order_of_smoothness(emitted).index == 4


def test_rank1_orders_command(capsys):
    code, out = run(capsys, "rank1", "orders", "3", "3")
    assert code == 0
    assert "1, 2, 3, 4, 6, 9" in out
    assert "5, 7" in out
    code, out = run(capsys, "rank1", "orders", "2", "2")
    assert code == 0
    assert "1, 2, 4" in out


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
    # a regression must fail fast here, not build 2 * 10**20 points
    monkeypatch.setattr(Vector, "basis", fail)
    assert main(["space", "info", spec]) == 2
    assert "exceeds guard 6 (set KSMOOTH_MAX_DIM to raise)" in capsys.readouterr().err


LONG = "9" * 5000  # more digits than CPython converts to int by default


@pytest.mark.parametrize("argv, message", [
    (["point", "smooth", "ell1:2", LONG + ",0"], "integer too long or not decimal"),
    (["point", "smooth", "ell1:2", "e" + LONG], "basis index has too many digits (5000)"),
    (["space", "info", "ell1:" + LONG], "dimension has too many digits (5000)"),
    (["space", "info", "{dir}/space.json"], "space.json: cannot decode space file"),
    (["op", "order", "{dir}/op.json"], "op.json: cannot decode operator file"),
], ids=["literal", "basis-index", "builtin-dimension", "space-file-dim", "operator-entry"])
def test_overlong_integer_is_validation_error(tmp_path, capsys, argv, message):
    (tmp_path / "space.json").write_text(
        '{"name": "x", "field": "rational", "dim": %s, "vertices": [["1"]]}' % LONG,
        encoding="utf-8")
    (tmp_path / "op.json").write_text(
        '{"domain": "ell1:2", "codomain": "ell1:2", "matrix": [[%s, "0"], ["0", "1"]]}'
        % LONG, encoding="utf-8")
    assert main([arg.format(dir=tmp_path) for arg in argv]) == 2
    err = capsys.readouterr().err
    assert err.startswith("validation error: ") and message in err


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


def test_bundled_sample_operators(capsys):
    from pathlib import Path
    samples = Path(__file__).resolve().parent.parent / "samples"
    code, out = run(capsys, "op", "order", str(samples / "rank1-ell1-ellinf.json"))
    assert code == 0 and "index of smoothness: 4" in out
    code, out = run(capsys, "op", "order", str(samples / "identity-ellinf2.json"))
    assert code == 0 and "index of smoothness: 4" in out
    assert "extreme contraction: yes" in out


def test_selftest_smoke(capsys):
    code = main(["selftest", "--seed", "7", "--cases", "4"])
    out = capsys.readouterr().out
    assert code == 0
    assert "PASS order-equivalence" in out
    assert "FAIL" not in out
