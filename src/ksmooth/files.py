"""JSON file formats and command-line literal parsing.

A space file is a JSON document::

    {"name": "...", "field": "rational" | "quad-sqrt2", "dim": n,
     "vertices": [["1", "0"], ["-1", "0"], ...]}

An operator file references its spaces by path or builtin spec::

    {"domain": "ell1:2" | "path/to/space.json", "codomain": ...,
     "matrix": [["1", "0"], ["0", "1"]]}

Matrix rows are codomain coordinates; column j is the image of the j-th
ambient basis vector.  All scalars use the exact literal grammar of
:mod:`ksmooth.scalars`, so files round-trip bit-exactly.

Builtin space specs: ``ell1:n``, ``ellinf:n``, ``paper-example``; the
builtin operator spec ``paper-example`` names the bundled example
operator.  Relative space paths inside an operator file resolve against
the operator file's directory.
"""

from __future__ import annotations

import hashlib
import json
import re
from pathlib import Path

from .errors import DimensionMismatchError, ValidationError
from .linalg import Matrix, Vector
from .operators import LinearOperator, paper_example_operator
from .scalars import FieldTag, parse, serialize
from .spaces import PolyhedralSpace, ell1, ellinf, from_vertices, paper_example_space

_BUILTIN_RE = re.compile(r"^(ell1|ellinf):([1-9]\d*)$")


def is_builtin_space(spec: str) -> bool:
    return spec == "paper-example" or _BUILTIN_RE.match(spec) is not None


def _to_int(digits: str, what: str) -> int:
    try:
        return int(digits)
    except ValueError:  # more digits than CPython converts
        raise ValidationError(f"{what} has too many digits ({len(digits)})") from None


def _read_json(path: Path, what: str) -> object:
    """The JSON document in the file at ``path``, a ``what`` file."""
    try:
        return json.loads(path.read_text(encoding="utf-8"))
    except OSError as exc:
        raise ValidationError(f"cannot read {what} file {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ValidationError(
            f"{path}: invalid JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from exc
    except ValueError as exc:  # bad UTF-8, or a number over CPython's digit limit
        raise ValidationError(f"{path}: cannot decode {what} file: {exc}") from exc


def load_space(spec: str, base_dir: Path | None = None) -> PolyhedralSpace:
    """Load a space from a builtin spec or a JSON file path."""
    if spec == "paper-example":
        return paper_example_space()
    m = _BUILTIN_RE.match(spec)
    if m:
        n = _to_int(m.group(2), "dimension")
        return ell1(n) if m.group(1) == "ell1" else ellinf(n)
    path = Path(spec)
    if base_dir is not None and not path.is_absolute():
        path = base_dir / path
    return space_from_document(_read_json(path, "space"), default_name=path.stem)


def space_from_document(doc: object, default_name: str = "custom") -> PolyhedralSpace:
    if not isinstance(doc, dict):
        raise ValidationError("space document must be a JSON object")
    try:
        field = FieldTag(doc["field"])
    except KeyError:
        raise ValidationError("space document lacks a 'field' entry") from None
    except ValueError:
        raise ValidationError(f"unknown field {doc.get('field')!r}") from None
    dim = doc.get("dim")
    raw_vertices = doc.get("vertices")
    if not isinstance(dim, int) or dim < 1:
        raise ValidationError("'dim' must be a positive integer")
    if not isinstance(raw_vertices, list) or not raw_vertices:
        raise ValidationError("'vertices' must be a nonempty list")
    vertices = []
    for i, row in enumerate(raw_vertices):
        if not isinstance(row, list) or len(row) != dim:
            raise DimensionMismatchError(
                f"vertices[{i}] must be a list of {dim} scalar literals")
        entries = []
        for j, literal in enumerate(row):
            try:
                entries.append(parse(str(literal), field))
            except ValidationError as exc:
                raise ValidationError(f"vertices[{i}][{j}]: {exc}") from exc
        vertices.append(Vector(entries, field))
    name = doc.get("name", default_name)
    return from_vertices(vertices, str(name))


def space_to_document(space: PolyhedralSpace) -> dict:
    return {
        "name": space.name,
        "field": space.field.value,
        "dim": space.dim,
        "vertices": [[serialize(e) for e in v.entries] for v in space.ball.vertices],
    }


def load_operator(spec: str) -> LinearOperator:
    """Load an operator from the builtin spec or a JSON file path."""
    if spec == "paper-example":
        return paper_example_operator()
    path = Path(spec)
    doc = _read_json(path, "operator")
    if not isinstance(doc, dict):
        raise ValidationError("operator document must be a JSON object")
    for key in ("domain", "codomain", "matrix"):
        if key not in doc:
            raise ValidationError(f"operator document lacks {key!r}")
    domain = load_space(str(doc["domain"]), base_dir=path.parent)
    codomain = load_space(str(doc["codomain"]), base_dir=path.parent)
    raw = doc["matrix"]
    if (not isinstance(raw, list) or len(raw) != codomain.dim
            or any(not isinstance(r, list) or len(r) != domain.dim for r in raw)):
        raise DimensionMismatchError(
            f"matrix must be {codomain.dim} rows of {domain.dim} literals")
    entries = []
    for i, row in enumerate(raw):
        out = []
        for j, literal in enumerate(row):
            try:
                out.append(parse(str(literal), domain.field))
            except ValidationError as exc:
                raise ValidationError(f"matrix[{i}][{j}]: {exc}") from exc
        entries.append(out)
    return LinearOperator(domain, codomain, Matrix(entries, domain.field))


def operator_to_document(t: LinearOperator, domain_spec: str,
                         codomain_spec: str) -> dict:
    return {
        "domain": domain_spec,
        "codomain": codomain_spec,
        "matrix": [[serialize(e) for e in row] for row in t.matrix.row_data],
    }


_BASIS_RE = re.compile(r"^(-?)e([1-9]\d*)$")


def parse_vector(text: str, field: FieldTag, dim: int) -> Vector:
    """Parse a command-line vector: ``e3`` / ``-e1`` shorthand or a
    comma-separated list of scalar literals (optionally parenthesized)."""
    text = text.strip()
    m = _BASIS_RE.match(text)
    if m:
        k = _to_int(m.group(2), "basis index")
        if k > dim:
            raise DimensionMismatchError(f"e{k} outside dimension {dim}")
        v = Vector.basis(k - 1, dim, field)
        return -v if m.group(1) else v
    if text.startswith("(") and text.endswith(")"):
        text = text[1:-1]
    parts = text.split(",")
    if len(parts) != dim:
        raise DimensionMismatchError(
            f"expected {dim} comma-separated scalars, got {len(parts)}")
    return Vector([parse(p.strip(), field) for p in parts], field)


def load_vector_set(path_str: str, field: FieldTag, dim: int) -> list[Vector]:
    """Load a set of vectors from a JSON file: either a bare list of rows or
    an object with a 'vectors' entry."""
    doc = _read_json(Path(path_str), "vector")
    rows = doc.get("vectors") if isinstance(doc, dict) else doc
    if not isinstance(rows, list) or not rows:
        raise ValidationError("vector file must hold a nonempty list of rows")
    out = []
    for i, row in enumerate(rows):
        if not isinstance(row, list) or len(row) != dim:
            raise DimensionMismatchError(f"vectors[{i}] must have {dim} entries")
        out.append(Vector([parse(str(x), field) for x in row], field))
    return out


def digest(spec: str) -> str:
    """Content digest of an input: file bytes for paths, the literal text
    for builtin specs."""
    path = Path(spec)
    if not is_builtin_space(spec) and path.is_file():
        data = path.read_bytes()
    else:
        data = spec.encode("utf-8")
    return hashlib.sha256(data).hexdigest()[:16]
