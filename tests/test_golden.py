"""Reports stay byte-identical: ``main()`` stdout against committed files.

Each case runs the CLI in process from the repository root (so the paths
echoed in ``--json`` reports are the relative ones below) and compares its
stdout with ``tests/golden/<case>.out``.  Timing goes to stderr and is not
compared.  ``cloud3.json`` is a symmetric rational point cloud built like
the benchmark's ``cli-order`` clouds: scaled axis points, random points and
quarter-sums, eight of its eighteen points not extreme.

A change that alters a report on purpose regenerates the files with
``python tests/test_golden.py`` and names the change.
"""

import contextlib
import io
import os
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "golden"

CASES = {
    **{f"op-order-{p.stem}": ["op", "order", f"samples/{p.name}"]
       for p in sorted((ROOT / "samples").glob("*.json"))},
    "op-order-paper-example-json": ["op", "order", "paper-example", "--json"],
    "space-info-paper-example-json": ["space", "info", "paper-example", "--json"],
    "space-info-cloud3-json": ["space", "info", "tests/golden/cloud3.json", "--json"],
}


def _stdout(argv):
    from ksmooth.cli import main  # late: run as a script, src/ joins the path first
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        main(list(argv))
    return out.getvalue()


@pytest.mark.parametrize("case", sorted(CASES))
def test_report_matches_golden(case, monkeypatch):
    monkeypatch.chdir(ROOT)
    monkeypatch.delenv("KSMOOTH_MAX_DIM", raising=False)
    expected = (GOLDEN / f"{case}.out").read_text(encoding="utf-8")
    assert _stdout(CASES[case]) == expected


if __name__ == "__main__":
    sys.path.insert(0, str(ROOT / "src"))
    os.chdir(ROOT)
    for name, argv in CASES.items():
        (GOLDEN / f"{name}.out").write_text(_stdout(argv), encoding="utf-8")
