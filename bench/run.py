"""ksmooth benchmark: seeded workloads, checked answers, end-to-end and
per-layer metrics.

Run one workload::

    python3 bench/run.py --workload op-query --seed 1 --seconds 25 --trace 0

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs a fixed
query prefix untraced, traced and scalar-counted and prints the per-layer
metrics.  Query times are scaled to host speed (``bench/hostspeed.py``).
Run every workload, each in a fresh interpreter, and print one table::

    python3 bench/run.py --all [--seed 1] [--seconds 25] [--trace 0]

The last line of a single-workload run is a JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  The exit code is 0 only when
every answer passed its checks.  See ``bench/README.md``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback

import hostspeed

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK_ROOT = os.path.join(ROOT, ".bench_out")
EXPECTED = os.path.join(HERE, "expected.json")
DEFAULT_SEED = 1
DEFAULT_SECONDS = 25
SETUP_REPEATS = 7
# a stuck run stops mid-round here so it still ends within 180 s
HARD_LIMIT_S = 140.0
# percentiles in tenths of a percent, so the ten-sample test is exact
TAIL_LADDER = (500, 750, 800, 900, 950, 990, 999)
WORKLOAD_NAMES = ("cli-order", "op-query", "bj-subspace", "quad-example")
SOURCE_MODULES = ("scalars", "linalg", "lp", "polytope", "spaces", "operators",
                  "orthogonality", "files", "cli", "selftest", "errors")


END_TO_END_UNITS = {"queries_per_s": "1/s", "latency_p50_ms": "ms", "latency_tail_ms": "ms",
                    "setup_s": "s", "peak_rss_mb": "MB", "correct_ratio": "ratio"}


def tail_permille(min_queries: int) -> int:
    """The highest ladder percentile, in tenths of a percent, that leaves at
    least ten samples above it at the workload's guaranteed sample count."""
    return max(p for p in TAIL_LADDER if p == TAIL_LADDER[0]
               or min_queries * (1000 - p) >= 10 * 1000)


def percentile(values: list[float], permille: int) -> float:
    return statistics.quantiles(values, n=1000, method="inclusive")[permille - 1]


# ---------------------------------------------------------------------------
# environment
# ---------------------------------------------------------------------------

def _git_commit() -> str:
    head_path = os.path.join(ROOT, ".git", "HEAD")
    try:
        with open(head_path, encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(ROOT, ".git", ref)
        if os.path.isfile(ref_path):
            with open(ref_path, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(ROOT, ".git", "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def source_lines() -> dict[str, int]:
    pkg = os.path.join(SRC, "ksmooth")
    counts = {}
    total = 0
    for fname in sorted(os.listdir(pkg)):
        if fname.endswith(".py"):
            with open(os.path.join(pkg, fname), encoding="utf-8") as fh:
                n = sum(1 for _ in fh)
            total += n
            if fname[:-3] in SOURCE_MODULES:
                counts[f"{fname[:-3]}.src_lines"] = n
    counts["package.src_lines"] = total
    return counts


def environment() -> dict:
    return {"cpu_model": _cpu_model(), "nproc": os.cpu_count(),
            "python": platform.python_version(), "git_commit": _git_commit(),
            "source_lines": source_lines()}


# ---------------------------------------------------------------------------
# one workload
# ---------------------------------------------------------------------------

class Outcome:
    """Answers of a run: digest of the fixed prefix, failures with their
    replay certificates, and the unscaled times behind the scaled ones."""

    def __init__(self, workload, prefix: int) -> None:
        self.workload = workload
        self.prefix = prefix
        self.hash = hashlib.sha256()
        self.attempted = 0
        self.failures: list[str] = []
        self.unscaled_s = 0.0
        self.reference_s: list[float] = []

    def record(self, k: int, run) -> float:
        """Prepare query ``k``, time ``run(inputs)`` between two timings of
        the host-speed reference, then finish and check it untimed; return
        the latency in seconds, scaled to host speed."""
        w = self.workload
        latency = 0.0
        try:
            inputs = w.prepare(k)
            before = hostspeed.reference_s()
            t0 = time.perf_counter()
            finish = run(inputs)
            dt = time.perf_counter() - t0
            after = hostspeed.reference_s()
            latency = hostspeed.scaled(dt, before, after)
            self.unscaled_s += dt
            self.reference_s += [before, after]
            canonical, problems = finish()
        except Exception:  # a failed query is counted, not fatal
            canonical = b"<error>"
            problems = [traceback.format_exc(limit=4).strip().replace("\n", " | ")]
        self.attempted += 1
        if k < self.prefix:
            self.hash.update(f"{k}\n".encode())
            self.hash.update(canonical)
        if problems:
            self.failures.append(
                f"workload={w.name} seed={w.seed} query={k} inputs={w.describe_inputs()} "
                f"problems={problems}")
        return latency

    @property
    def digest(self) -> str:
        return self.hash.hexdigest()


def expected_digest(name: str, seed: int):
    if seed != DEFAULT_SEED:
        return None
    with open(EXPECTED, encoding="utf-8") as fh:
        return json.load(fh).get(name)


def timed_loop(w, seconds: float, min_queries: int):
    """Closed loop of whole rounds until ``seconds`` have passed and at
    least ``min_queries`` have run."""
    outcome = Outcome(w, w.digest_rounds * w.round_size)
    latencies: list[float] = []
    start = time.perf_counter()
    deadline = start + seconds
    k = 0
    while True:
        latencies.append(outcome.record(k, lambda inputs: w.query(k, inputs)))
        k += 1
        now = time.perf_counter()
        if now - start > HARD_LIMIT_S:
            break
        if k % w.round_size == 0 and k >= min_queries and now >= deadline:
            break
    return outcome, latencies


def run_untraced(w, seconds: float) -> tuple[dict, Outcome, list[str]]:
    min_queries = max(w.min_queries, w.digest_rounds * w.round_size)
    tail_p = tail_permille(min_queries)
    outcome, lat = timed_loop(w, seconds, min_queries)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    failed = len(outcome.failures)
    metrics = {
        "queries_per_s": len(lat) / sum(lat),
        "latency_p50_ms": statistics.median(lat) * 1000.0,
        "latency_tail_ms": percentile(lat, tail_p) * 1000.0,
        "peak_rss_mb": rss_mb,
        "correct_ratio": (outcome.attempted - failed) / outcome.attempted,
    }
    refs = outcome.reference_s
    lines = [
        f"queries: {len(lat)} in {sum(lat):.3f} s of scaled query time "
        f"({len(lat) // w.round_size} rounds of {w.round_size})",
        f"host speed: reference {1000 * min(refs):.3f}/{1000 * statistics.median(refs):.3f}/"
        f"{1000 * max(refs):.3f} ms (min/median/max of {len(refs)}), quoted at "
        f"{1000 * hostspeed.REFERENCE_S:g} ms; unscaled query time {outcome.unscaled_s:.3f} s",
        f"latency_tail_ms is p{tail_p / 10:g} over {len(lat)} samples "
        f"({sum(1 for x in lat if x * 1000.0 > metrics['latency_tail_ms'])} above it)",
        f"failed_ratio: {failed / outcome.attempted:.6f} ({failed} of {outcome.attempted})",
    ]
    return metrics, outcome, lines


def run_traced(w, workloads_module) -> tuple[dict, Outcome, list[str]]:
    """Fixed prefix, so that counts repeat, in three passes: a warm-up that
    fills lazy caches; each query untraced and traced back to back, in
    alternating order so host drift cancels in the overhead; then scalar
    counts."""
    import spans

    prefix = w.digest_rounds * w.round_size
    outcomes = {mode: Outcome(w, prefix) for mode in ("warm-up", "untraced", "traced", "counted")}
    seconds = {"untraced": 0.0, "traced": 0.0}
    tracer = spans.Tracer([workloads_module])
    counter = spans.ScalarCounter()

    def plain(k):
        return lambda inputs: w.query(k, inputs)

    def traced(k):
        return lambda inputs: tracer.run_query(k, lambda: w.query(k, inputs))

    def counted(k):
        return lambda inputs: counter.run_query(lambda: w.query(k, inputs))

    for k in range(prefix):
        outcomes["warm-up"].record(k, plain(k))
    for k in range(prefix):
        for mode in (("untraced", "traced") if k % 2 == 0 else ("traced", "untraced")):
            if mode == "traced":
                tracer.install()
            try:
                seconds[mode] += outcomes[mode].record(k, (traced if mode == "traced" else plain)(k))
            finally:
                tracer.uninstall()
    counter.install()
    try:
        for k in range(prefix):
            outcomes["counted"].record(k, counted(k))
    finally:
        counter.uninstall()

    base = outcomes["untraced"]
    untraced_s, traced_s = seconds["untraced"], seconds["traced"]
    for mode, outcome in outcomes.items():
        if outcome.digest != base.digest:
            base.failures.append(f"digest of the {mode} pass differs from the untraced pass")
        if mode != "untraced":
            base.failures.extend(outcome.failures)

    s = tracer.summary()
    calls, incl, counts = s["calls"], s["incl"], s["counts"]

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    m = {
        "polytope.canonicalize_calls": calls["polytope.canonicalize"],
        "polytope.canonicalize_s": incl["polytope.canonicalize"],
        "polytope.hull_lps": calls["polytope.in_convex_hull"],
        "polytope.hull_lp_redundant_ratio": ratio(counts["polytope.hull_redundant"],
                                                  calls["polytope.in_convex_hull"]),
        "polytope.dd_calls": calls["polytope.dual_vertices"],
        "polytope.dd_s": incl["polytope.dual_vertices"],
        "polytope.init_calls": calls["polytope.Polytope.__init__"],
        "polytope.init_s": incl["polytope.Polytope.__init__"],
        "polytope.lattice_s": incl["polytope.Polytope._face_lattice"],
        "polytope.faces_enumerated": counts["polytope.faces_enumerated"],
        "lp.solve_calls": calls["lp.solve_lp"],
        "lp.solve_s": incl["lp.solve_lp"],
        "lp.pivots": counts["lp._pivot"],
        "lp.infeasible_ratio": ratio(counts["lp.infeasible"], calls["lp.solve_lp"]),
        "linalg.rank_calls": calls["linalg._rank_of_lists"],
        "linalg.rank_s": incl["linalg._rank_of_lists"],
        "linalg.solve_calls": calls["linalg.solve"],
        "linalg.solve_s": incl["linalg.solve"],
        "linalg.greedy_calls": calls["linalg.greedy_independent_subset"],
        "linalg.greedy_s": incl["linalg.greedy_independent_subset"],
        "linalg.nullspace_calls": calls["linalg.nullspace"],
        "spaces.space_builds": calls["spaces.from_vertices"],
        "spaces.space_build_s": incl["spaces.from_vertices"],
        "spaces.norm_calls": calls["spaces.norm"],
        "spaces.support_set_calls": calls["spaces.support_set"],
        "spaces.support_set_s": incl["spaces.support_set"],
        "spaces.point_smoothness_s": incl["spaces.point_smoothness"],
        "operators.attainment_calls": calls["operators.operator_norm_and_attainment"],
        "operators.attainment_s": incl["operators.operator_norm_and_attainment"],
        "operators.index_s": incl["operators._index_computation"],
        "operators.oracle_s": incl["operators.oracle_order_of_smoothness"],
        "operators.order_calls": calls["operators.order_of_smoothness"],
        "orthogonality.faces_visited": s["faces_visited"],
        "orthogonality.relint_lps": calls["orthogonality._relint_sample"],
        "orthogonality.relint_hit_ratio": ratio(counts["orthogonality.relint_hits"],
                                                calls["orthogonality._relint_sample"]),
        "orthogonality.witness_lps": calls["orthogonality._annihilating_witness"],
        # neither calls the other, so the two inclusive times do not overlap
        "orthogonality.subspace_s": incl["orthogonality.bj_subspace_subspace"]
        + incl["orthogonality.bj_subspace_vector"],
        "orthogonality.vector_s": incl["orthogonality.bj_vector_vector"]
        + incl["orthogonality.bj_vector_subspace"],
        "scalars.quad_ops": counter.counts["scalars.quad_ops"],
        "scalars.fraction_ops": counter.counts["scalars.fraction_ops"],
        "files.load_space_calls": calls["files.load_space"],
        "files.load_space_s": incl["files.load_space"],
        "cli.main_calls": calls["cli.main"],
        "cli.self_s": s["self"]["cli"],
    }
    query_s = s["query_s"]
    for layer in spans.LAYERS:
        m[f"{layer}.self_share"] = ratio(s["self"][layer], query_s)
    m["bench.self_share"] = ratio(s["self"]["bench"], query_s)
    m["trace.queries"] = prefix
    m["trace.untraced_queries_per_s"] = prefix / untraced_s
    m["trace.traced_queries_per_s"] = prefix / traced_s
    m["trace.overhead_ratio"] = traced_s / untraced_s - 1.0
    m.update(source_lines())

    os.makedirs(WORK_ROOT, exist_ok=True)
    out_path = os.path.join(WORK_ROOT, f"trace-{w.name}-s{w.seed}.json")
    tracer.write(out_path, environment())
    shares = ", ".join(f"{layer} {m[f'{layer}.self_share']:.1%}" for layer in spans.LAYERS)
    lines = [
        f"traced prefix: {prefix} queries, {s['spans']} spans written to "
        f"{os.path.relpath(out_path, ROOT)}",
        f"self-time shares of {query_s:.3f} s traced query time: {shares}, "
        f"harness {m['bench.self_share']:.1%}",
        f"tracing overhead: {m['trace.overhead_ratio']:.1%} "
        f"({m['trace.untraced_queries_per_s']:.3f} untraced vs "
        f"{m['trace.traced_queries_per_s']:.3f} traced queries/s)",
        f"ratio bases: hull LPs {calls['polytope.in_convex_hull']}, LP solves "
        f"{calls['lp.solve_lp']}, relint LPs {calls['orthogonality._relint_sample']}",
    ]
    return m, base, lines


def _metric_units(name: str) -> str:
    if name.endswith("_share") or name.endswith("_ratio"):
        return "ratio"
    if name.endswith("queries_per_s"):
        return "1/s"
    if name.endswith("_s"):
        return "s"
    if name.endswith("src_lines"):
        return "lines"
    return "count"


SETUP_PROBE = """
import sys, time
started = time.perf_counter()
sys.path[:0] = [{src!r}, {here!r}]
import workloads
w = workloads.WORKLOADS[{name!r}]({seed!r}, {root!r})
try:
    w.setup()
    print(time.perf_counter() - started)
finally:
    w.close()
"""


def probe_setup(name: str, seed: int) -> float:
    """Seconds a fresh interpreter takes to import ksmooth and run the
    workload's set-up, so each probe pays the import again."""
    code = SETUP_PROBE.format(src=SRC, here=HERE, name=name, seed=seed, root=WORK_ROOT)
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          timeout=120, check=True)
    return float(proc.stdout.split()[-1])




def run_one(args) -> int:
    if not os.path.isfile(os.path.join(SRC, "ksmooth", "__init__.py")):
        print(f"error: no ksmooth sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    sys.path.insert(0, HERE)
    import workloads  # imports ksmooth

    import ksmooth
    if not os.path.abspath(ksmooth.__file__).startswith(SRC + os.sep):
        print(f"error: ksmooth imported from {ksmooth.__file__}, not {SRC}", file=sys.stderr)
        return 2

    os.makedirs(WORK_ROOT, exist_ok=True)
    w = workloads.WORKLOADS[args.workload](args.seed, WORK_ROOT)
    # Set-up time is the least of SETUP_REPEATS fresh interpreters, half
    # probed before the run and half after it, so that a slow phase of the
    # host has to last the whole run to raise it.  The work is the same each
    # time, so the least is the time least disturbed by the host.  Set-up is
    # mostly imports and is not scaled to host speed: the reference tracks
    # imports poorly.
    probes = [probe_setup(w.name, w.seed) for _ in range(SETUP_REPEATS - SETUP_REPEATS // 2)]
    try:
        w.setup()
        if args.trace:
            metrics, outcome, lines = run_traced(w, workloads)
        else:
            metrics, outcome, lines = run_untraced(w, args.seconds)
    finally:
        w.close()
    probes += [probe_setup(w.name, w.seed) for _ in range(SETUP_REPEATS // 2)]
    metrics["trace.setup_s" if args.trace else "setup_s"] = min(probes)
    lines.append(f"setup_s is the least of {len(probes)} fresh interpreters: "
                 f"{' '.join(f'{x:.4f}' for x in probes)} s")

    env = environment()
    print(f"workload {w.name} seed {w.seed} trace {args.trace}: "
          f"{w.__doc__.split(chr(10))[0].strip()}")
    print(f"environment: cpu {env['cpu_model']!r}, nproc {env['nproc']}, python "
          f"{env['python']}, commit {env['git_commit']}, package "
          f"{env['source_lines']['package.src_lines']} lines")
    for line in lines:
        print(line)
    expected = expected_digest(w.name, w.seed)
    prefix = w.digest_rounds * w.round_size
    digest_ok = expected is None or expected == outcome.digest
    print(f"digest of the first {prefix} results: {outcome.digest} "
          + ("(not checked: no committed value for this seed)" if expected is None
             else "(matches the committed value)" if digest_ok
             else f"(MISMATCH: committed {expected})"))
    for failure in outcome.failures:
        print(f"FAILED {failure}")
    if args.trace:
        units = {k: _metric_units(k) for k in metrics}
    else:
        units = END_TO_END_UNITS
        for name, value in metrics.items():
            print(f"{name}: {value:.6g} {units[name]}")
    correct = digest_ok and not outcome.failures
    result = {"correct": correct, "attempted": outcome.attempted,
              "failed": len(outcome.failures),
              "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}}
    print(json.dumps(result))
    return 0 if correct else 1


# ---------------------------------------------------------------------------
# every workload
# ---------------------------------------------------------------------------

def run_all(args) -> int:
    table = []
    status = 0
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            status = 1
        try:
            result = json.loads(proc.stdout.strip().splitlines()[-1])
        except (IndexError, json.JSONDecodeError):
            table.append((name, None))
            status = 1
            continue
        table.append((name, result))
    print()
    print("summary (one fresh interpreter per workload):")
    for name, result in table:
        if result is None:
            print(f"  {name}: no result")
            continue
        failed_ratio = result["failed"] / result["attempted"]
        cells = [f"{k}={v['value']:.6g} {v['unit']}" for k, v in result["metrics"].items()]
        if not args.trace:
            cells.append(f"failed_ratio={failed_ratio:.6g} ratio")
        print(f"  {name} (correct={result['correct']}): " + ", ".join(cells))
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES)
    parser.add_argument("--all", action="store_true")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=DEFAULT_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.all:
        return run_all(args)
    if not args.workload:
        parser.error("--workload or --all is required")
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
