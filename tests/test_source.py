import ast
import importlib
import importlib.util
from pathlib import Path

SOURCE = Path(__file__).resolve().parent.parent / "src" / "ksmooth"


def _trees(skip=()):
    for path in sorted(SOURCE.glob("*.py")):
        if path.name not in skip:
            yield path.name, ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def test_no_assert_statements():
    # invariants raise InternalInconsistencyError: `python -O` strips asserts
    trees = list(_trees())
    assert trees
    found = [f"{name}:{node.lineno}" for name, tree in trees for node in ast.walk(tree)
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


def test_core_names_no_float():
    # the core is float-free: no conversion, annotation or literal type
    found = [f"{name}:{node.lineno}" for name, tree in _trees() for node in ast.walk(tree)
             if isinstance(node, ast.Name) and node.id == "float"]
    assert found == [], found


def test_cleared_rows_and_double_description_stay_in_polytope():
    # only polytope.py (and linalg.py, which defines the clearing) knows the
    # cleared rows F/D/V/E or runs double description and the face lattice;
    # the package does not re-export dual_vertices, whose rows are internal
    names = {"clear_denominators", "from_cleared",
             "dual_vertices", "intersection_closure", "_face_lattice"}
    rows = {"F", "D", "V", "E"}
    found = []
    for name, tree in _trees(skip=("polytope.py", "linalg.py")):
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom):
                used = {a.name for a in node.names} & names
            elif isinstance(node, ast.Attribute):
                used = {node.attr} & (names | rows)
            elif isinstance(node, ast.Name):
                used = {node.id} & names
            else:
                continue
            found += [f"{name}:{node.lineno}:{u}" for u in sorted(used)]
    assert found == [], found



def test_one_field_table():
    # how a cleared value is held over each field is decided in one table,
    # scalars._FIELD_OPS, which linalg, lp and polytope read: no other
    # module keys a dict by field tag, lp and polytope define no table class
    # of their own, and no row width is read by branching on the field
    found = []
    for name, tree in _trees():
        for node in ast.walk(tree):
            if isinstance(node, ast.Dict) and name != "scalars.py" and any(
                    key is not None and ast.unparse(key) == "FieldTag.RATIONAL"
                    for key in node.keys):
                found.append(f"{name}:{node.lineno}:table")
            elif isinstance(node, ast.ClassDef) and name in ("lp.py", "polytope.py") and any(
                    ast.unparse(base) == "NamedTuple" for base in node.bases):
                found.append(f"{name}:{node.lineno}:{node.name}")
            elif (isinstance(node, ast.Call) and getattr(node.func, "id", None) == "len"
                  and node.args and isinstance(node.args[0], ast.IfExp)
                  and "FieldTag" in ast.unparse(node.args[0].test)):
                found.append(f"{name}:{node.lineno}:width")
            elif (isinstance(node, ast.ImportFrom) and node.module == "scalars"
                  and "_FIELD_OPS" in {alias.name for alias in node.names}):
                found.append(f"{name}:reads")
    assert sorted(found) == ["linalg.py:reads", "lp.py:reads", "polytope.py:reads"], found


def test_solve_is_called_once_per_matrix():
    # solve takes every right-hand side of a matrix at once; a call inside a
    # loop or comprehension would reduce the same matrix again
    loops = (ast.For, ast.While, ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)
    found = []
    for name, tree in _trees():
        for loop in ast.walk(tree):
            if isinstance(loop, loops):
                found += [f"{name}:{node.lineno}" for node in ast.walk(loop)
                          if isinstance(node, ast.Call) and "solve" in (
                              getattr(node.func, "id", None), getattr(node.func, "attr", None))]
    assert found == [], found


def test_oracle_reads_no_support_set():
    # the oracle ranks the attainment scan's (vertex, facet) pairs; naming a
    # support-set or index helper would let it share the index route's errors
    banned = {"support_functionals_at", "support_set", "normalized",
              "_index_computation", "_extreme_members"}
    tree = ast.parse((SOURCE / "operators.py").read_text(encoding="utf-8"))
    bodies = [node for node in tree.body if isinstance(node, ast.FunctionDef)
              and node.name in ("oracle_order_of_smoothness", "_pair_rank")]
    assert len(bodies) == 2
    found = []
    for body in bodies:
        for node in ast.walk(body):
            used = node.id if isinstance(node, ast.Name) else getattr(node, "attr", None)
            if used in banned:
                found.append(f"{body.name}:{node.lineno}:{used}")
    assert found == [], found


def test_double_description_clips_on_integers():
    # dual_vertices takes and returns cleared integer rows: no field dot
    # product, scaling or `field.one`, no clearing and no Vector anywhere in
    # it, so it never falls back to field arithmetic; faces_meeting restricts
    # the ball's cleared rows to the subspace and maps each barycentre back
    # with no field dot product or matrix-vector product
    tree = ast.parse((SOURCE / "polytope.py").read_text(encoding="utf-8"))
    dd, section = (_function(tree, name) for name in ("dual_vertices", "faces_meeting"))
    found = [f"{node.lineno}:{node.attr}" for node in ast.walk(dd)
             if isinstance(node, ast.Attribute) and (
                 node.attr in ("dot", "scale")
                 or (node.attr == "one" and getattr(node.value, "id", None) == "field"))]
    found += [f"{node.lineno}:{node.func.id}" for node in ast.walk(dd)
              if isinstance(node, ast.Call) and getattr(node.func, "id", None) in (
                  "Vector", "clear_denominators")]
    found += [f"faces_meeting:{node.lineno}:{node.attr}" for node in ast.walk(section)
              if isinstance(node, ast.Attribute) and node.attr in ("dot", "matvec")]
    assert found == [], found


def _function(tree, name, owner=None):
    scope = tree.body
    if owner:
        [cls] = [node for node in scope if isinstance(node, ast.ClassDef) and node.name == owner]
        scope = cls.body
    [body] = [node for node in scope if isinstance(node, ast.FunctionDef) and node.name == name]
    return body


def test_cleared_kernels_stay_on_integers():
    # the elimination kernel, its clearing helpers, the rank front and the
    # tight-row scans read only cleared integer rows: no field scalar, field
    # division, field-entry size or field pivot inside them, and the Q(sqrt 2)
    # rank runs the same loop once, not by calling itself
    # (`bench/spans.py` wraps `_rank_of_lists`, so a recursive call counts twice)
    linalg = ast.parse((SOURCE / "linalg.py").read_text(encoding="utf-8"))
    polytope = ast.parse((SOURCE / "polytope.py").read_text(encoding="utf-8"))
    bodies = [_function(linalg, "_rank_of_lists"), _function(polytope, "_row_max"),
              _function(polytope, "image_gauge_max", owner="Polytope")]
    bodies += [_function(linalg, name) for name in ("_eliminate", "_forward", "_reduced", "_entry",
                                                    "_cleared_rows", "_scaled", "_denominators")]
    banned = {"QuadScalar", "Fraction", "truediv", "_scalar_size", "pivot_on"}
    found = []
    for body in bodies:
        for node in ast.walk(body):
            used = node.id if isinstance(node, ast.Name) else getattr(node, "attr", None)
            if used in banned:
                found.append(f"{body.name}:{node.lineno}:{used}")
    found += [f"_rank_of_lists:{node.lineno}:recursion" for node in ast.walk(bodies[0])
              if isinstance(node, ast.Call)
              and "_rank_of_lists" in (getattr(node.func, "id", None),
                                       getattr(node.func, "attr", None))]
    assert found == [], found


def test_one_elimination_kernel():
    # rank, solve, nullspace and greedy subsets share the fraction-free
    # kernel of linalg; the simplex of lp, which imports nothing from linalg,
    # pivots fraction-free on its own integer tableau: no true division in
    # its pivot or its Bland loop
    linalg = ast.parse((SOURCE / "linalg.py").read_text(encoding="utf-8"))
    defined = {node.name for node in ast.walk(linalg) if isinstance(node, ast.FunctionDef)}
    assert not defined & {"_reduce", "_scalar_size", "pivot_on"}, defined
    # a name, a definition, an attribute or an imported alias
    found = [f"{name}:{node.lineno}" for name, tree in _trees() for node in ast.walk(tree)
             if "pivot_on" in (getattr(node, "id", None), getattr(node, "name", None),
                               getattr(node, "attr", None))]
    assert found == [], found
    lp = ast.parse((SOURCE / "lp.py").read_text(encoding="utf-8"))
    divisions = [f"{name}:{node.lineno}" for name in ("_pivot", "_run_simplex")
                 for node in ast.walk(_function(lp, name))
                 if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.Div)]
    assert divisions == [], divisions
    assert "linalg" not in {node.module for node in ast.walk(lp)
                            if isinstance(node, ast.ImportFrom)}


def test_double_description_ranks_only_its_output():
    # dual_vertices decides adjacency on its tight-set bit masks, with no
    # rank in the insertion loop; its one rank is the final check that each
    # vertex returned has tight rows of full rank
    dd = _function(ast.parse((SOURCE / "polytope.py").read_text(encoding="utf-8")),
                   "dual_vertices")
    ranks = [node for node in ast.walk(dd) if isinstance(node, ast.Call)
             and "_rank_of_lists" in (getattr(node.func, "id", None),
                                      getattr(node.func, "attr", None))]
    [insertion] = [node for node in dd.body if isinstance(node, ast.For)
                   and ast.unparse(node.iter) == "enumerate(constraints)"]
    inside = {id(node) for node in ast.walk(insertion)}
    assert len(ranks) == 1, [node.lineno for node in ranks]
    assert id(ranks[0]) not in inside, ranks[0].lineno


def test_canonicalize_takes_no_rank():
    # canonicalize (through _extreme_points, which does its work) decides
    # extremality from double description's tight sets alone; the rank of
    # each kept vertex's tight functionals is checked once, in
    # Polytope.__init__, the independent second route
    tree = ast.parse((SOURCE / "polytope.py").read_text(encoding="utf-8"))
    banned = {"rank", "rank_of_vectors", "_rank_of_lists"}
    found = [f"{name}:{node.lineno}:{used}" for name in ("canonicalize", "_extreme_points")
             for node in ast.walk(_function(tree, name))
             if (used := getattr(node, "id", None) or getattr(node, "attr", None)) in banned]
    assert found == [], found
    called = {getattr(node.func, "id", None) or getattr(node.func, "attr", None)
              for node in ast.walk(_function(tree, "__init__", owner="Polytope"))
              if isinstance(node, ast.Call)}
    assert {"_rank_of_lists", "facet_rank"} <= called, called


def test_face_operator_is_a_closed_form():
    # the face operator is the rank-one u (x) f of the mean facet functional,
    # written down directly: no kernel basis, completion or linear solve;
    # construct_face_operator returns the operator that
    # face_operator_and_order builds and verifies
    tree = ast.parse((SOURCE / "operators.py").read_text(encoding="utf-8"))
    found = [f"{node.lineno}:{used}" for name in ("construct_face_operator",
                                                 "face_operator_and_order")
             for node in ast.walk(_function(tree, name))
             if (used := getattr(node, "id", None) or getattr(node, "attr", None))
             in ("solve", "nullspace")]
    assert found == [], found


def test_index_ranks_integer_products_and_the_cli_rescales_once():
    # the index ranks the integer products of its cleared solutions, with no
    # field coefficient tuple or field rank; `op order` rescales through
    # LinearOperator.normalized, which hands the operator's scan over,
    # instead of building the rescaled operator, which would scan again
    operators = ast.parse((SOURCE / "operators.py").read_text(encoding="utf-8"))
    cli = ast.parse((SOURCE / "cli.py").read_text(encoding="utf-8"))
    found = [f"_index_computation:{node.lineno}:{used}"
             for node in ast.walk(_function(operators, "_index_computation"))
             if (used := getattr(node, "id", None) or getattr(node, "attr", None))
             in ("kron_coeff_vector", "QuadScalar", "rank_of_vectors")]
    found += [f"_cmd_op_order:{node.lineno}" for node in ast.walk(_function(cli, "_cmd_op_order"))
              if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "LinearOperator"]
    assert found == [], found


def test_one_point_scan_and_one_facet_rank():
    # Polytope.facets_at is the only point scan, and Polytope.facet_rank
    # the only rank of a set of facets: the support sets take the norm's
    # scan and rank the ball's cleared rows, re-clearing no field functional
    found = [path.name for path in sorted(SOURCE.glob("*.py"))
             if "unit_facets" in path.read_text(encoding="utf-8")]
    spaces = ast.parse((SOURCE / "spaces.py").read_text(encoding="utf-8"))
    found += [f"{name}:{node.lineno}:{used}"
              for name in ("support_set", "support_functionals_at", "_supports")
              for node in ast.walk(_function(spaces, name))
              if (used := getattr(node, "id", None) or getattr(node, "attr", None))
              in ("rank_of_vectors", "normalized", "norm")]
    polytope = ast.parse((SOURCE / "polytope.py").read_text(encoding="utf-8"))
    facet_rank = _function(polytope, "facet_rank", owner="Polytope")
    inside = {id(node) for node in ast.walk(facet_rank)}
    found += [f"polytope.py:{node.lineno}:rank of F" for node in ast.walk(polytope)
              if isinstance(node, ast.Call) and id(node) not in inside
              and getattr(node.func, "id", None) == "_rank_of_lists"
              and any(getattr(sub, "attr", None) == "F" for sub in ast.walk(node))]
    assert found == [], found


def test_face_dimensions_come_from_the_vertex_side():
    # _minimal_face_of, the rank of a face's vertex rows, is the one
    # face-dimension routine: the lattice calls it on every active set, and
    # no face dimension anywhere is d - facet_rank(...), which stays the
    # tests' reference route
    polytope = ast.parse((SOURCE / "polytope.py").read_text(encoding="utf-8"))
    lattice = _function(polytope, "_face_lattice", owner="Polytope")
    names = {node.id if isinstance(node, ast.Name) else getattr(node, "attr", None)
             for node in ast.walk(lattice)}
    assert "_minimal_face_of" in names and "facet_rank" not in names, names
    found = [f"{name}:{node.lineno}" for name, tree in _trees() for node in ast.walk(tree)
             if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Sub)
             and "facet_rank" in ast.unparse(node.right)]
    assert found == [], found
