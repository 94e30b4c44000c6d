"""Property tests over malformed input: literals, vectors, space documents
and command lines.  Every bad input must end in a ``ValidationError`` (or a
CLI exit code in {0, 1, 2, 3}), never in another exception."""

import contextlib
import io
import os

import pytest
from hypothesis import example, given, settings, strategies as st

from ksmooth.cli import main
from ksmooth.errors import ValidationError
from ksmooth.files import parse_vector, space_from_document
from ksmooth.scalars import FieldTag, parse, serialize

Q = FieldTag.RATIONAL
K = FieldTag.QUAD_SQRT2
LONG = "9" * 5000  # more digits than CPython converts to int by default

fields = st.sampled_from([Q, K])
grammar_text = st.text(alphabet="0123456789-+/*r2e(),", max_size=16)
any_text = st.one_of(grammar_text, st.text(max_size=16))


@given(any_text, fields)
@example(LONG, Q)
@example("1/" + LONG, K)
@example(LONG + "*r2", K)
@example("²", Q)
def test_parse_raises_only_validation_errors(text, field):
    try:
        x = parse(text, field)
    except ValidationError:
        return
    assert parse(serialize(x), field) == x


@given(any_text, fields, st.integers(min_value=1, max_value=4))
@example(LONG + ",0", Q, 2)
@example("e" + LONG, Q, 2)
@example("-e" + LONG, K, 3)
def test_parse_vector_raises_only_validation_errors(text, field, dim):
    try:
        v = parse_vector(text, field, dim)
    except ValidationError:
        return
    assert v.dim == dim and v.field is field


literals = st.one_of(
    st.sampled_from(["1", "-1", "0", "1/2", "-1/2", "2", "r2", "1/2*r2", "-1/2*r2"]),
    st.integers(min_value=-3, max_value=3), any_text)
json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False) | any_text,
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner,
                                                                 max_size=3),
    max_leaves=8)


@st.composite
def space_documents(draw):
    dim = draw(st.integers(min_value=1, max_value=3))
    doc = {
        "field": draw(st.sampled_from(["rational", "quad-sqrt2"])),
        "dim": dim,
        "vertices": draw(st.lists(st.lists(literals, min_size=dim, max_size=dim),
                                  max_size=6)),
    }
    # replace or drop some entries with arbitrary JSON values
    for key in draw(st.lists(st.sampled_from(["field", "dim", "vertices", "name"]),
                             max_size=2)):
        if draw(st.booleans()):
            doc[key] = draw(json_values)
        else:
            doc.pop(key, None)
    return doc


@settings(deadline=None)
@given(st.one_of(space_documents(), json_values))
@example({"field": "rational", "dim": 1, "vertices": [[LONG], ["-1"]]})
def test_space_from_document_raises_only_validation_errors(doc):
    # a 5000-digit "dim" never gets here from a file: the JSON reader
    # rejects it (tests/test_cli.py::test_overlong_integer_is_validation_error)
    try:
        space = space_from_document(doc)
    except ValidationError:
        return
    assert space.dim == doc["dim"]


# ---------------------------------------------------------------------------
# command lines
# ---------------------------------------------------------------------------

# Cheap commands only: every mutation below keeps spaces at dimension 1 or 2,
# or makes a spec that fails fast (an unknown path, or dimension >= 10,
# which the guard rejects before building anything).
COMMANDS = [
    ["space", "info", "ell1:2"],
    ["space", "info", "ellinf:2", "--json"],
    ["point", "smooth", "ell1:2", "1,0"],
    ["point", "smooth", "ellinf:2", "1,1/2", "--json"],
    ["ortho", "check", "ell1:2", "e1", "e2"],
    ["ortho", "check", "ellinf:2", "1,1", "1,-1", "--json"],
    ["op", "construct-face", "ell1:2", "1,0", "ellinf:2", "1,1"],
]
TOKENS = ["ell1:2", "ellinf:2", "ell1:1", "paper-example", "e1", "-e2", "e3", "1,0",
          "(1,0)", "1/2,1/2", "r2,0", "1/0,1", LONG + ",0", "e" + LONG, "ell1:" + LONG,
          "", "--json", "no-such-file.json", "info", "smooth", "check"]
CHARS = "-,/()e*r+:012 "


@st.composite
def mutated_argv(draw):
    argv = list(draw(st.sampled_from(COMMANDS)))
    for _ in range(draw(st.integers(min_value=1, max_value=3))):
        op = draw(st.sampled_from(["replace", "insert", "delete", "edit"]))
        if op == "insert" or not argv:
            argv.insert(draw(st.integers(0, len(argv))), draw(st.sampled_from(TOKENS)))
            continue
        i = draw(st.integers(0, len(argv) - 1))
        if op == "replace":
            argv[i] = draw(st.sampled_from(TOKENS))
        elif op == "delete":
            del argv[i]
        else:
            token = argv[i]
            j = draw(st.integers(0, len(token)))
            if draw(st.booleans()) or not token:
                argv[i] = token[:j] + draw(st.sampled_from(CHARS)) + token[j:]
            else:
                argv[i] = token[:j] + token[j + 1:]
    return argv


@pytest.fixture(scope="module")
def scratch_cwd(tmp_path_factory):
    """Run in an empty directory: a mutated ``--json`` can shrink to ``--o``,
    which argparse reads as ``--out`` and construct-face writes a file."""
    old = os.getcwd()
    os.chdir(tmp_path_factory.mktemp("cli-fuzz"))
    yield
    os.chdir(old)


@settings(deadline=None)
@given(mutated_argv())
@example(["point", "smooth", "ell1:2", LONG + ",0"])
@example(["space", "info", "ell1:" + LONG])
def test_cli_exit_codes_on_mutated_argv(scratch_cwd, argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse's own exits, e.g. --help
            code = exc.code
    assert code in (0, 1, 2, 3)
    assert "Traceback" not in err.getvalue()
