"""Spans and counts recorded around the calls into each ksmooth layer.

Nothing here changes ksmooth: ``Tracer.install`` rebinds each listed
function at its defining module and at every module that imported it by
name (``orthogonality`` binds ``solve_lp`` directly, so wrapping only
``lp.solve_lp`` would miss its calls), and ``uninstall`` puts the
originals back.  Each call made inside ``run_query`` -- that is, inside
the timed ksmooth call of a query, not while the benchmark draws inputs
or checks answers -- records a span: name, start, end, parent span and
query number, in flat arrays kept in memory and written out once at the
end.  No instrumented function calls itself, so a function's
inclusive time is the sum of its span durations.

Scalar arithmetic is far too fine-grained for spans; ``ScalarCounter``
counts ``Fraction`` and ``QuadScalar`` operator calls in a separate pass
so that the counting does not distort the span timings; it too counts
only inside its ``run_query``.
"""

from __future__ import annotations

import importlib
import json
import sys
import time
from array import array
from collections import Counter
from fractions import Fraction

# layer -> functions given a span.  ``Class.method`` entries are wrapped on
# the class.  Only the elimination kernel of linalg is listed: ``rank`` and
# ``rank_of_vectors`` are one-line fronts for ``_rank_of_lists``.
SPANNED = {
    "linalg": ["_rank_of_lists", "solve", "nullspace", "greedy_independent_subset"],
    "lp": ["solve_lp", "lp_feasible"],
    "polytope": ["canonicalize", "in_convex_hull", "dual_vertices", "enumerate_faces",
                 "minimal_face", "Polytope.__init__", "Polytope._face_lattice",
                 "Polytope.face_vertices", "Polytope.polar"],
    "spaces": ["from_vertices", "norm", "normalized", "support_set",
               "support_functionals_at", "point_smoothness"],
    "operators": ["operator_norm_and_attainment", "_index_computation",
                  "oracle_order_of_smoothness", "order_of_smoothness",
                  "LinearOperator.normalized"],
    "orthogonality": ["bj_vector_vector", "bj_vector_subspace", "bj_subspace_vector",
                      "bj_subspace_subspace", "is_best_coapproximation",
                      "is_strong_auerbach", "_relint_sample", "_annihilating_witness",
                      "_bracket_witness"],
    "files": ["load_space", "load_operator", "space_from_document", "parse_vector",
              "digest"],
    "cli": ["main"],
}
# counted without a span: one simplex pivot is too small to time
COUNTED = {"lp": ["_pivot"]}
LAYERS = list(SPANNED)
QUERY_SPAN = "bench.query"


def _result_counter(name: str):
    """Outcome counts for the ratios: how often a call did useful work."""
    if name == "polytope.in_convex_hull":
        return lambda r, c: c.update(["polytope.hull_redundant"] if r else ())
    if name == "lp.solve_lp":
        return lambda r, c: c.update(["lp.infeasible"] if r.status.name == "INFEASIBLE" else ())
    if name == "orthogonality._relint_sample":
        return lambda r, c: c.update(["orthogonality.relint_hits"] if r is not None else ())
    if name == "polytope.enumerate_faces":
        return lambda r, c: c.update({"polytope.faces_enumerated": len(r)})
    return None


class Tracer:
    """In-memory span recorder for one process; install before the traced
    pass and uninstall after it.  Wrapped functions record only while
    ``run_query`` runs."""

    def __init__(self, extra_modules=()) -> None:
        self.names: list[str] = [QUERY_SPAN]
        self.name_t = array("i")
        self.start_t = array("d")
        self.end_t = array("d")
        self.parent_t = array("i")
        self.query_t = array("i")
        self.stack: list[int] = []
        self.query = -1
        self.counts: Counter = Counter()
        self.recording = [False]
        self.extra_modules = list(extra_modules)
        self._patches: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def _open(self, nid: int) -> int:
        idx = len(self.name_t)
        self.name_t.append(nid)
        self.parent_t.append(self.stack[-1] if self.stack else -1)
        self.query_t.append(self.query)
        self.start_t.append(0.0)
        self.end_t.append(0.0)
        self.stack.append(idx)
        return idx

    def _wrap(self, fn, full_name: str):
        if full_name not in self.names:
            self.names.append(full_name)
        nid = self.names.index(full_name)
        on_result = _result_counter(full_name)
        counts, stack, clock = self.counts, self.stack, time.perf_counter
        start_t, end_t, open_span = self.start_t, self.end_t, self._open
        recording = self.recording

        def wrapper(*args, **kwargs):
            if not recording[0]:
                return fn(*args, **kwargs)
            idx = open_span(nid)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                start_t[idx] = t0
                end_t[idx] = t1
            if on_result is not None:
                on_result(result, counts)
            return result

        return wrapper

    def _count(self, fn, full_name: str):
        counts, recording = self.counts, self.recording

        def wrapper(*args, **kwargs):
            if recording[0]:
                counts[full_name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def run_query(self, k: int, call):
        """Run ``call()`` as query ``k`` inside a root span."""
        self.query = k
        self.recording[0] = True
        idx = self._open(0)
        t0 = time.perf_counter()
        try:
            return call()
        finally:
            self.end_t[idx] = time.perf_counter()
            self.start_t[idx] = t0
            self.stack.pop()
            self.recording[0] = False
            self.query = -1

    # -- installation ------------------------------------------------------

    def _modules(self):
        mods = [m for n, m in sorted(sys.modules.items())
                if n == "ksmooth" or n.startswith("ksmooth.")]
        return mods + self.extra_modules

    def _patch(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self) -> None:
        modules = self._modules()
        for layer in LAYERS:
            mod = importlib.import_module(f"ksmooth.{layer}")
            for entry in SPANNED[layer]:
                self._install_one(mod, layer, entry, modules, self._wrap)
            for entry in COUNTED.get(layer, ()):
                self._install_one(mod, layer, entry, modules, self._count)

    def _install_one(self, mod, layer: str, entry: str, modules, make) -> None:
        full_name = f"{layer}.{entry}"
        if "." in entry:
            cls_name, meth = entry.split(".")
            cls = getattr(mod, cls_name)
            self._patch(cls, meth, make(vars(cls)[meth], full_name))
            return
        original = getattr(mod, entry)
        wrapper = make(original, full_name)
        for m in modules:
            for attr, value in list(vars(m).items()):
                if value is original:
                    self._patch(m, attr, wrapper)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, value = self._patches.pop()
            setattr(owner, attr, value)

    # -- analysis ----------------------------------------------------------

    def summary(self) -> dict:
        """Calls, inclusive seconds per span name; self seconds per layer;
        outcome counts; orthogonality faces visited."""
        n = len(self.name_t)
        names, name_t, parent_t = self.names, self.name_t, self.parent_t
        dur = [self.end_t[i] - self.start_t[i] for i in range(n)]
        child = [0.0] * n
        for i in range(n):
            p = parent_t[i]
            if p >= 0:
                child[p] += dur[i]
        calls: Counter = Counter()
        incl: Counter = Counter()
        self_by_layer: Counter = Counter()
        faces_visited = 0
        for i in range(n):
            name = names[name_t[i]]
            calls[name] += 1
            incl[name] += dur[i]
            self_by_layer[name.split(".")[0]] += dur[i] - child[i]
            if name == "polytope.Polytope.face_vertices":
                p = parent_t[i]
                if p >= 0 and names[name_t[p]].startswith("orthogonality."):
                    faces_visited += 1
        return {"calls": calls, "incl": incl, "self": self_by_layer,
                "counts": self.counts, "faces_visited": faces_visited,
                "query_s": incl[QUERY_SPAN], "spans": n}

    def write(self, path: str, environment: dict) -> None:
        doc = {
            "environment": environment,
            "names": self.names,
            "spans": {"name": self.name_t.tolist(), "start": self.start_t.tolist(),
                      "end": self.end_t.tolist(), "parent": self.parent_t.tolist(),
                      "query": self.query_t.tolist()},
        }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)


class ScalarCounter:
    """Counts arithmetic operator calls on ``Fraction`` and ``QuadScalar``.

    ``fraction_ops`` includes the Fraction operations that QuadScalar
    arithmetic performs on its two rational parts.  Operations count only
    while ``run_query`` runs.
    """

    OPS = ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__",
           "__truediv__", "__rtruediv__", "__neg__")

    def __init__(self) -> None:
        self.counts: Counter = Counter()
        self.recording = [False]
        self._patches: list[tuple[type, str, object]] = []

    def install(self) -> None:
        from ksmooth.scalars import QuadScalar
        for cls, key in ((Fraction, "scalars.fraction_ops"), (QuadScalar, "scalars.quad_ops")):
            for op in self.OPS + (("inverse",) if cls is QuadScalar else ()):
                original = cls.__dict__.get(op)
                if original is None:
                    continue
                self._patches.append((cls, op, original))
                setattr(cls, op, self._counting(original, key))

    def _counting(self, fn, key: str):
        counts, recording = self.counts, self.recording

        def wrapper(*args):
            if recording[0]:
                counts[key] += 1
            return fn(*args)

        return wrapper

    def run_query(self, call):
        """Run ``call()``, counting the scalar operations it makes."""
        self.recording[0] = True
        try:
            return call()
        finally:
            self.recording[0] = False

    def uninstall(self) -> None:
        while self._patches:
            cls, op, original = self._patches.pop()
            setattr(cls, op, original)
