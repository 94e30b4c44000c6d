import ast
import importlib
import importlib.util
from pathlib import Path

SOURCE = Path(__file__).resolve().parent.parent / "src" / "ksmooth"


def test_no_assert_statements():
    # invariants raise InternalInconsistencyError: `python -O` strips asserts
    paths = sorted(SOURCE.glob("*.py"))
    assert paths
    found = []
    for path in paths:
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                  if isinstance(node, ast.Assert)]
    assert not found, found


def test_bench_span_names_resolve():
    # `bench/run.py --trace 1` wraps these names; a rename would crash it
    path = SOURCE.parent.parent / "bench" / "spans.py"
    spec = importlib.util.spec_from_file_location("bench_spans", path)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    missing = []
    for table in (spans.SPANNED, spans.COUNTED):
        for layer, entries in table.items():
            module = importlib.import_module(f"ksmooth.{layer}")
            for entry in entries:
                # `Class.method` must be defined on the class itself
                owner, _, name = entry.rpartition(".")
                scope = vars(module)
                if owner:
                    scope = vars(scope[owner]) if owner in scope else {}
                if not callable(scope.get(name)):
                    missing.append(f"{layer}.{entry}")
    assert not missing, missing
