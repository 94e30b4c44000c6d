"""Self-checks of the benchmark.

    python3 bench/checks.py [--workload NAME ...]

1. Smoke: every workload sets up and answers its first queries, in process,
   with every answer check passing.
2. Exact counts repeat: two traced runs with the same seed, each in a fresh
   interpreter, report identical call, pivot, LP, face and scalar-op counts
   and identical ratios.
3. Tracing changes no answer: the untraced and traced runs report the same
   digest of the fixed query prefix.

Exits 0 when every check passes.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
from run import WORK_ROOT, WORKLOAD_NAMES, Outcome  # noqa: E402
SEED = 3
SMOKE_QUERIES = 3
TIMING_RATIOS = ("trace.overhead_ratio",)


def is_exact(name: str) -> bool:
    """Per-layer metrics that count work and must repeat exactly."""
    if name in TIMING_RATIOS or name.endswith("_share"):
        return False
    return (name.endswith(("_calls", "_lps", "_ops", "_ratio"))
            or name in ("lp.pivots", "orthogonality.faces_visited",
                        "polytope.faces_enumerated", "spaces.space_builds", "trace.queries"))


def run(workload: str, trace: int) -> tuple[dict, str]:
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(SEED), "--seconds", "1", "--trace", str(trace)]
    proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT, timeout=600)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"{' '.join(cmd)} failed ({proc.returncode}):\n{proc.stdout}{proc.stderr}")
    digest = next(line.split(": ")[1].split()[0] for line in lines if line.startswith("digest of the first"))
    return json.loads(lines[-1]), digest


def smoke(names) -> list[str]:
    sys.path.insert(0, os.path.join(ROOT, "src"))
    import workloads

    problems = []
    os.makedirs(WORK_ROOT, exist_ok=True)
    for name in names:
        w = workloads.WORKLOADS[name](SEED, WORK_ROOT)
        try:
            w.setup()
            outcome = Outcome(w, SMOKE_QUERIES)
            for k in range(SMOKE_QUERIES):
                outcome.record(k, lambda inputs: w.query(k, inputs))
        finally:
            w.close()
        problems += outcome.failures
        print(f"smoke {name}: {outcome.attempted} queries, {len(outcome.failures)} failed")
    return problems


def repeat(name: str) -> list[str]:
    problems = []
    first, traced_digest = run(name, 1)
    second, second_digest = run(name, 1)
    _, untraced_digest = run(name, 0)
    exact = sorted(k for k in first["metrics"] if is_exact(k))
    for key in exact:
        a, b = first["metrics"][key]["value"], second["metrics"][key]["value"]
        if a != b:
            problems.append(f"{name}: {key} differs between traced runs: {a} vs {b}")
    if not (traced_digest == second_digest == untraced_digest):
        problems.append(f"{name}: digests differ: traced {traced_digest}, {second_digest}; "
                        f"untraced {untraced_digest}")
    print(f"repeat {name}: {len(exact)} exact counts compared, digests "
          f"{'equal' if traced_digest == second_digest == untraced_digest else 'DIFFER'}")
    return problems


def main() -> int:
    parser = argparse.ArgumentParser(description="benchmark self-checks")
    parser.add_argument("--workload", action="append", choices=WORKLOAD_NAMES)
    args = parser.parse_args()
    names = args.workload or list(WORKLOAD_NAMES)
    problems = smoke(names)
    for name in names:
        problems += repeat(name)
    for p in problems:
        print(f"FAIL {p}")
    print("all checks passed" if not problems else f"{len(problems)} checks failed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
