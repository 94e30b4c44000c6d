"""Property tests over malformed input: literals, vectors, space documents,
command lines and input files.  Every bad input must end in a ``ValidationError`` (or a
CLI exit code in {0, 1, 2, 3}), never in another exception."""

import contextlib
import io
import json
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
# which the guard rejects before building anything); rank1 orders stays at
# dimensions up to 6 or fails the same guard.
COMMANDS = [
    ["space", "info", "ell1:2"],
    ["space", "info", "ellinf:2", "--json"],
    ["point", "smooth", "ell1:2", "1,0"],
    ["point", "smooth", "ellinf:2", "1,1/2", "--json"],
    ["ortho", "check", "ell1:2", "e1", "e2"],
    ["ortho", "check", "ellinf:2", "1,1", "1,-1", "--json"],
    ["op", "construct-face", "ell1:2", "1,0", "ellinf:2", "1,1"],
    ["rank1", "orders", "2", "3"],
]
TOKENS = ["ell1:2", "ellinf:2", "ell1:1", "paper-example", "e1", "-e2", "e3", "1,0",
          "-1,0", "-1/2,1/2", "(1,0)", "1/2,1/2", "r2,0", "1/0,1", LONG + ",0", "e" + LONG,
          "ell1:" + LONG, "", "--json", "no-such-file.json", "info", "smooth", "check"]
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


# ---------------------------------------------------------------------------
# space, operator and vector files
# ---------------------------------------------------------------------------

# Every digit in these files and in the mutations below is 0, 1 or 2, so a
# mutated builtin spec is ell1:1, ellinf:2, ell1:12 and the like: cheap, or
# rejected by the dimension guard before anything is built.
BASE_FILES = {
    "space.json": {"name": "square", "field": "rational", "dim": 2,
                   "vertices": [["1", "1"], ["1", "-1"], ["-1", "1"], ["-1", "-1"],
                                ["1/2", "0"]]},
    "operator.json": {"domain": "space.json", "codomain": "ellinf:2",
                      "matrix": [["1", "1/2"], ["0", "-1"]]},
    "vectors.json": {"vectors": [["1", "1"], ["1", "-1/2"]]},
}
FILE_COMMANDS = [
    ["space", "info", "space.json", "--json"],
    ["op", "order", "operator.json"],
    ["op", "index", "operator.json", "--set", "vectors.json"],
]
BYTES = b'{}[]",:-/012 re.\\\x00\xff\xc3'


def _paths(doc, path=()):
    """Every position in a JSON document, as a path of keys and indices."""
    yield path
    if isinstance(doc, dict):
        for key, value in doc.items():
            yield from _paths(value, path + (key,))
    elif isinstance(doc, list):
        for i, value in enumerate(doc):
            yield from _paths(value, path + (i,))


def _mutate_json(draw, doc):
    """Replace, drop or duplicate one position, or edit one literal string."""
    path = draw(st.sampled_from(list(_paths(doc))))
    if not path:
        return draw(json_values)
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    key = path[-1]
    op = draw(st.sampled_from(["replace", "drop", "duplicate", "edit"]))
    if op == "replace":
        parent[key] = draw(json_values)
    elif op == "drop":
        del parent[key]
    elif op == "duplicate" and isinstance(parent, list):
        parent.insert(key, parent[key])
    elif isinstance(parent[key], str):
        text = parent[key]
        i = draw(st.integers(0, len(text)))
        chars = draw(st.text(alphabet=CHARS, min_size=0, max_size=2))
        parent[key] = text[:i] + chars + text[i + draw(st.integers(0, 1)):]
    return doc


def _mutate_bytes(draw, data):
    for _ in range(draw(st.integers(min_value=1, max_value=3))):
        i = draw(st.integers(0, len(data)))
        byte = bytes([draw(st.sampled_from(BYTES))])
        data = data[:i] + byte + data[i + draw(st.integers(0, 1)):]
    return data


@st.composite
def mutated_files(draw):
    files = {name: json.dumps(doc).encode("utf-8") for name, doc in BASE_FILES.items()}
    name = draw(st.sampled_from(sorted(files)))
    if draw(st.booleans()):
        files[name] = _mutate_bytes(draw, files[name])
    else:
        doc = json.loads(files[name])
        for _ in range(draw(st.integers(min_value=1, max_value=2))):
            doc = _mutate_json(draw, doc)
        files[name] = json.dumps(doc).encode("utf-8")
    return files


@settings(deadline=None, max_examples=60)
@given(mutated_files())
@example({**{n: json.dumps(d).encode() for n, d in BASE_FILES.items()},
          "space.json": b'{"field": "rational", "dim": 2, "vertices": [["1", "1"]'})
def test_cli_exit_codes_on_mutated_files(scratch_cwd, files):
    for name, data in files.items():
        with open(name, "wb") as handle:
            handle.write(data)
    for argv in FILE_COMMANDS:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
        assert code in (0, 1, 2, 3)
        assert "Traceback" not in err.getvalue()
