"""Reports stay byte-identical: ``main()`` stdout against committed files.

Each case runs the CLI in process from the repository root (so the paths
echoed in ``--json`` reports are the relative ones below), requires exit
code 0 and compares its stdout with ``tests/golden/<case>.out``.  Timing
goes to stderr and is not compared.  ``cloud3.json`` is a symmetric rational point cloud built like
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
    "op-order-identity-ellinf2": ["op", "order", "samples/identity-ellinf2.json"],
    "op-order-rank1-ell1-ellinf": ["op", "order", "samples/rank1-ell1-ellinf.json"],
    "op-order-paper-example-json": ["op", "order", "paper-example", "--json"],
    "op-index-rank1-ell1-ellinf": ["op", "index", "samples/rank1-ell1-ellinf.json",
                                   "--set", "samples/attaining-set.json"],
    "point-smooth-paper-example-vertex": ["point", "smooth", "paper-example", "e3"],
    "point-smooth-paper-example-edge": ["point", "smooth", "paper-example", "1/2,0,1/2"],
    "point-smooth-ell1-3-facet-json": ["point", "smooth", "ell1:3", "1/3,1/3,1/3",
                                       "--json"],
    "ortho-check-ell1-2-json": ["ortho", "check", "ell1:2", "e1", "e2", "--json"],
    "ortho-check-paper-example-json": ["ortho", "check", "paper-example", "e1", "e2",
                                       "--json"],
    "ortho-check-ellinf-2-not": ["ortho", "check", "ellinf:2", "e1", "1,1"],
    "space-info-paper-example-json": ["space", "info", "paper-example", "--json"],
    "space-info-cloud3-json": ["space", "info", "tests/golden/cloud3.json", "--json"],
}


def _stdout(argv):
    """The report ``main(argv)`` prints; it must exit 0."""
    from ksmooth.cli import main  # late: run as a script, src/ joins the path first
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    assert code == 0, f"{argv} exited {code}: {err.getvalue()}"
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
