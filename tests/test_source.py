import ast
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
