"""The package's import structure: every import sits at module level, and
the modules import each other without a cycle; the certificate shares no
expansion, arithmetic kernel or magnitude rule with the pipeline it
checks; and, checked by running it, the approximate algebra calls none of
AppComplex's operators."""

import ast
import collections
import random
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import openwaring as ow
from openwaring import linalg, poly
from openwaring.decompose import _coords_scale, _proportional_linear
from openwaring.numerics import tolerance

PACKAGE = "openwaring"
SOURCE = Path(__file__).resolve().parents[1] / "src" / PACKAGE
MODULES = sorted(p.stem for p in SOURCE.glob("*.py"))


def _internal_imports(tree):
    """(node, target module) for each import of a module of the package;
    ``from . import x`` targets the module x."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            if node.level:
                targets = ([node.module.split(".")[0]] if node.module
                           else [a.name for a in node.names])
            elif (node.module or "").split(".")[0] == PACKAGE:
                parts = node.module.split(".")
                targets = ([parts[1]] if len(parts) > 1
                           else [a.name for a in node.names])
            else:
                targets = []
            for t in targets:
                if t in MODULES:
                    yield node, t
        elif isinstance(node, ast.Import):
            for a in node.names:
                parts = a.name.split(".")
                if parts[0] == PACKAGE and len(parts) > 1 and parts[1] in MODULES:
                    yield node, parts[1]


def _parsed():
    return {m: ast.parse((SOURCE / f"{m}.py").read_text(), f"{m}.py")
            for m in MODULES}


def test_sources_found():
    assert {"apolarity", "decompose", "poly", "cli"} <= set(MODULES)


def test_no_import_inside_a_function():
    # of any module, the package's own or another
    offenders = [f"{m}.py:{node.lineno}"
                 for m, tree in _parsed().items()
                 for func in ast.walk(tree)
                 if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef,
                                      ast.Lambda))
                 for node in ast.walk(func)
                 if isinstance(node, (ast.Import, ast.ImportFrom))]
    assert offenders == []


def test_no_unused_import():
    # every name a module imports is read in it; the package's __init__
    # imports to re-export, and a __future__ import switches a feature on
    unused = []
    for m, tree in _parsed().items():
        if m == "__init__":
            continue
        read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
        for node in ast.walk(tree):
            if not isinstance(node, (ast.Import, ast.ImportFrom)):
                continue
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            unused += [f"{m}.py:{node.lineno} {a.asname or a.name}"
                       for a in node.names
                       if (a.asname or a.name.split(".")[0]) not in read]
    assert unused == []


def test_module_import_graph_has_no_cycle():
    graph = {m: sorted({t for _, t in _internal_imports(tree) if t != m})
             for m, tree in _parsed().items()}
    state = {}  # module -> "open" while on the DFS path, "done" after

    def visit(m, path):
        state[m] = "open"
        for t in graph[m]:
            if state.get(t) == "open":
                cycle = path[path.index(t):] + [t]
                raise AssertionError("import cycle: " + " -> ".join(cycle))
            if t not in state:
                visit(t, path + [t])
        state[m] = "done"

    for m in MODULES:
        if m not in state:
            visit(m, [m])


def test_apolarity_stays_below_the_pipeline():
    tree = _parsed()["apolarity"]
    assert "decompose" not in {t for _, t in _internal_imports(tree)}


def test_verify_stays_below_the_pipeline():
    # the checker certifies the pipeline's results, so it must not share
    # code with the pipeline or the command line
    tree = _parsed()["verify"]
    assert {"decompose", "cli"}.isdisjoint(
        t for _, t in _internal_imports(tree))


#: the pipeline's code for powers of linear forms and substitutions; one
#: power expansion and one sparse product serve rational, integer and
#: approximate coefficients alike
POLY_EXPANSIONS = {"linear_power", "dual_power", "_power_of_linear",
                   "_power_coeffs", "_substitute", "_expansions",
                   "_substitute_exact", "_substitute_approx", "_product",
                   "change_coordinates"}


def _names_reached(tree, target):
    """Names a module imports from the package module ``target``, and the
    attributes it reads off any alias of that module."""
    imported = set()
    aliases = set()
    for node, t in _internal_imports(tree):
        if t != target:
            continue
        module = getattr(node, "module", None) or ""
        if module.split(".")[-1] == target:  # from .target import ...
            imported |= {a.name for a in node.names}
        else:  # from . import target, import openwaring.target as p
            aliases |= {a.asname or a.name.split(".")[-1] for a in node.names}
    return imported | {n.attr for n in ast.walk(tree)
                       if isinstance(n, ast.Attribute)
                       and isinstance(n.value, ast.Name)
                       and n.value.id in aliases}


def _defined(tree):
    return {n.name for n in tree.body if isinstance(n, ast.FunctionDef)}


def test_verify_expands_powers_on_its_own():
    # the certificate must not reach the expansions it certifies, neither by
    # importing them from poly nor through an imported poly module
    parsed = _parsed()
    assert POLY_EXPANSIONS <= _defined(parsed["poly"])
    assert POLY_EXPANSIONS.isdisjoint(_names_reached(parsed["verify"], "poly"))


def test_verify_reads_apolarity_through_public_names():
    # the certificate takes the essential variable count, and the integer
    # rank behind it, only from apolarity's public functions
    names = _names_reached(_parsed()["verify"], "apolarity")
    assert "essential_variables" in names
    assert {n for n in names if n.startswith("_")} == set()


#: the attribute under which ``apolarity._kept`` keeps what a form's first
#: catalecticant gives, and the reductions behind its rank
KEPT_ATTRIBUTE = "_first_catalecticant"
RANK_REDUCTIONS = {"_first_catalecticant_rows", "_kept", "rational_rank",
                   "matrix_rank", "_reduce", "transpose"}


def _strings_in(node):
    return {n.value for n in ast.walk(node)
            if isinstance(n, ast.Constant) and isinstance(n.value, str)}


def test_only_apolarity_keeps_the_first_catalecticant():
    # the kept rows and kernels live in one dict on the form, which one
    # apolarity helper reads and writes; everything else asks that helper
    parsed = _parsed()
    touching = {(m, node.name) for m, tree in parsed.items()
                for node in ast.walk(tree) if isinstance(node, ast.FunctionDef)
                and (KEPT_ATTRIBUTE in _strings_in(node) | _names_in(node)
                     or "__dict__" in _names_in(node))}
    assert touching == {("apolarity", "_kept")}
    assert {m for m, tree in parsed.items()
            if KEPT_ATTRIBUTE in _strings_in(tree) | _names_in(tree)} == {"apolarity"}
    assert {m for m, tree in parsed.items()
            if "_kept" in _names_in(tree)} == {"apolarity"}


def test_verify_takes_the_rank_only_from_essential_variables():
    # the certificate's bound comes from the same pure function of the same
    # immutable form as the pipeline's, never from the kept values directly
    tree = _parsed()["verify"]
    assert "essential_variables" in _names_in(tree)
    assert _names_in(tree) & RANK_REDUCTIONS == set()
    assert "linalg" not in {t for _, t in _internal_imports(tree)}


#: the raw-tuple kernels that reproduce libmp's complex arithmetic
KERNELS = {"_sum", "_quo", "_pos", "_cadd", "_csub", "_cmul", "_cdiv"}

#: the libmp functions the kernels replace on the pipeline's hot path
LIBMP_ARITHMETIC = {"mpc_add", "mpc_sub", "mpc_mul", "mpc_div", "mpc_mpf_div"}

#: the root finder's loops, the raw-value helpers and AppComplex's
#: operators over them, which run on KERNELS
KERNEL_CALLERS = {"_horner", "_aberth", "univariate_roots", "_operands",
                  "_mul", "_add", "_sub", "_div",
                  "AppComplex._binop", "AppComplex.__add__",
                  "AppComplex.__sub__", "AppComplex.__rsub__",
                  "AppComplex.__mul__", "AppComplex.__truediv__",
                  "AppComplex.__rtruediv__"}


def test_verify_reconstructs_on_libmp():
    # the certificate's arithmetic stays independent of the pipeline's
    parsed = _parsed()
    assert KERNELS <= _defined(parsed["numerics"])
    assert KERNELS.isdisjoint(_names_reached(parsed["verify"], "numerics"))


#: the pipeline's magnitude tests by exponent
EXPONENT_MAGNITUDES = {"_abs_exceeds", "_ctop", "_top", "_abs_gt", "_abs_le",
                       "_abs_max_candidates"}


def test_verify_reads_magnitudes_on_its_own():
    # the certificate screens its residual and its forbidden-set bounds by
    # tops it computes itself, so a fault in the pipeline's rule cannot
    # hide in the check of the pipeline's results
    parsed = _parsed()
    assert EXPONENT_MAGNITUDES <= _defined(parsed["numerics"])
    assert EXPONENT_MAGNITUDES.isdisjoint(
        _names_reached(parsed["verify"], "numerics"))


def test_no_second_arithmetic_path_beside_the_kernels():
    # the kernels' callers name none of libmp's complex arithmetic, so no
    # libmp path survives next to them
    tree = _parsed()["numerics"]
    functions = {n.name: n for n in tree.body if isinstance(n, ast.FunctionDef)}
    for cls in tree.body:
        if isinstance(cls, ast.ClassDef):
            functions.update((f"{cls.name}.{n.name}", n) for n in cls.body
                             if isinstance(n, ast.FunctionDef))
    assert KERNEL_CALLERS <= set(functions)
    named = {name: _names_in(functions[name]) for name in KERNEL_CALLERS}
    assert {name: ids & LIBMP_ARITHMETIC for name, ids in named.items()
            if ids & LIBMP_ARITHMETIC} == {}


def _functions(parsed):
    """(module, name) -> node for each module-level function, and (module,
    "Class.name") for each method of a module-level class."""
    found = {}
    for m, tree in parsed.items():
        for node in tree.body:
            if isinstance(node, ast.FunctionDef):
                found[m, node.name] = node
            elif isinstance(node, ast.ClassDef):
                found.update(((m, f"{node.name}.{f.name}"), f) for f in node.body
                             if isinstance(f, ast.FunctionDef))
    return found


#: the kernels that round by ``_sum`` (besides ``_sum`` itself) and those
#: that divide by ``_quo``, with ``_raw_mpf``'s rounding of ints and
#: Fractions; every other loop runs on the kernels, so no written-out copy
#: of their rounding sits beside them
SUM_CALLERS = {"_pos", "_quo", "_cadd", "_csub", "_cmul", "_cdiv", "_raw_mpf"}
QUO_CALLERS = {"_cdiv", "_raw_mpf"}


def test_only_the_kernels_round():
    parsed = _parsed()
    functions = _functions(parsed)
    for kernel, callers in (("_sum", SUM_CALLERS), ("_quo", QUO_CALLERS)):
        assert {m for m, tree in parsed.items()
                if kernel in _names_in(tree)} == {"numerics"}
        assert {name for (_, name), node in functions.items()
                if kernel in _names_in(node)} <= callers, kernel


def _reads(node):
    """How often each name is loaded, or each attribute read, in node."""
    return collections.Counter(
        [n.id for n in ast.walk(node)
         if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)]
        + [n.attr for n in ast.walk(node) if isinstance(n, ast.Attribute)])


def test_every_private_function_is_read():
    # a private function or method that nothing in the package reads, other
    # than its own body, is dead code
    parsed = _parsed()
    read = sum((_reads(tree) for tree in parsed.values()), collections.Counter())
    unread = []
    for (m, name), node in _functions(parsed).items():
        short = name.rpartition(".")[2]
        if (short.startswith("_") and not short.endswith("__")
                and read[short] <= _reads(node)[short]):
            unread.append(f"{m}.{name}")
    assert unread == []


def _names_in(node):
    """Every name and attribute a piece of code mentions."""
    return ({n.id for n in ast.walk(node) if isinstance(n, ast.Name)}
            | {n.attr for n in ast.walk(node) if isinstance(n, ast.Attribute)})


#: what a coordinate change per square needs: a change of basis, the
#: restriction to the hyperplane, the rebuilt catalecticant, the square
#: and its contraction, and the map of the terms back
PER_SQUARE_CHANGE = {"change_coordinates", "restrict_to_prefix",
                     "essential_variables", "contract", "linear_power",
                     "_map_terms_back"}


def test_quadratic_step_changes_no_coordinates():
    # the quadratic step reduces the Hessian in the form's own coordinates
    step = next(n for n in _parsed()["decompose"].body
                if isinstance(n, ast.FunctionDef)
                and n.name == "_quadratic_essential")
    assert _names_in(step) & PER_SQUARE_CHANGE == set()


#: the reductions of the first catalecticant that its readers leave to
#: ``apolarity._degree_one_kernel``
DEGREE_ONE_REDUCTIONS = {"rational_rank", "kernel_basis", "_cleaned_kernel"}

#: the readers of the essential count and the degree-one annihilator
DEGREE_ONE_READERS = {("apolarity", "essential_variables"),
                      ("apolarity", "_essential_split"),
                      ("decompose", "_quadratic_essential")}


def test_degree_one_readers_share_one_kernel():
    # the essential count, the split and the quadratic step's guard read
    # the kernel a form keeps, and reduce no first catalecticant of their
    # own; the quadratic step's approximate per-square rank is its own
    parsed = _parsed()
    functions = {(m, n.name): n for m, tree in parsed.items() for n in tree.body
                 if isinstance(n, ast.FunctionDef)}
    named = {key: _names_in(functions[key]) for key in DEGREE_ONE_READERS}
    assert {key: names & DEGREE_ONE_REDUCTIONS
            for key, names in named.items()} == dict.fromkeys(named, set())
    assert {key for key, names in named.items()
            if "_degree_one_kernel" in names} == DEGREE_ONE_READERS


#: a restriction to a subspace by completing a basis, inverting it and
#: substituting the whole form
RESTRICTION_BY_INVERSE = {"complete_to_basis", "invert_matrix",
                          "restrict_to_prefix"}

#: the steps that restrict a form to a subspace and lift its terms back
SUBSPACE_STEPS = {"_essential_split", "_peel", "_inductive_essential"}


def test_subspace_restrictions_are_projections():
    # the subspaces are spanned by standard vectors and columns in echelon
    # form from the end, so the lift is written down and the restricted
    # form is a projection
    parsed = _parsed()
    functions = {(m, n.name): n for m in ("decompose", "apolarity")
                 for n in ast.walk(parsed[m]) if isinstance(n, ast.FunctionDef)}
    assert {key: names for key, node in functions.items()
            if (names := _names_in(node) & RESTRICTION_BY_INVERSE)} == {}
    steps = {name: node for (_, name), node in functions.items()
             if name in SUBSPACE_STEPS}
    assert set(steps) == SUBSPACE_STEPS
    assert {name for name, node in steps.items()
            if "change_coordinates" in _names_in(node)} == set()


#: the pieces of an essential split: the degree-one kernel, the projection
#: to the kept coordinates and the map of the terms back
SPLIT_PIECES = {"apolar_component", "_project", "_map_terms_back"}


def test_inductive_remainder_is_split_by_peel():
    # the inductive step hands its remainder to ``_peel``, so the
    # remainder's restriction has one copy, in the essential split
    step = next(n for n in _parsed()["decompose"].body
                if isinstance(n, ast.FunctionDef)
                and n.name == "_inductive_essential")
    names = _names_in(step)
    assert "_peel" in names
    assert names & SPLIT_PIECES == set()


#: the run-wide merge of proportional terms, deleted: the ternary step
#: folds its perturbing cube into the fitted term where it adds it
RUN_WIDE_MERGE = {"_merge_proportional", "_pivot"}


def test_terms_are_certified_as_the_runner_returns_them():
    tree = _parsed()["decompose"]
    assert _defined(tree) & RUN_WIDE_MERGE == set()
    run = next(n for n in tree.body
               if isinstance(n, ast.FunctionDef) and n.name == "_run")
    stores = [n for n in ast.walk(run) if isinstance(n, ast.Name)
              and n.id == "terms" and isinstance(n.ctx, ast.Store)]
    assigns = [n for n in ast.walk(run) if isinstance(n, ast.Assign)
               and any(t in stores for t in n.targets)]
    assert len(stores) == len(assigns) == 1
    value = assigns[0].value
    assert isinstance(value, ast.Call) and isinstance(value.func, ast.Name)
    assert value.func.id == "runner"
    calls = {n.func.id: n for n in ast.walk(run) if isinstance(n, ast.Call)
             and isinstance(n.func, ast.Name)}
    assert "terms" in _names_in(calls["Decomposition"])
    assert "dec" in _names_in(calls["check_decomposition"])


#: second copies folded into the routine that does the same job: the
#: hyperplane test into ``_restrict_forbidden``, the integer power and
#: product into ``_power_coeffs`` and ``_product``, the binary squarefree
#: test into the duplicate-point test on the roots, and the pencil's
#: proportionality tolerance into an exact test of its integer weights
FOLDED = {"_linear_divides", "_integer_power", "_integer_product",
          "_binary_squarefree_exact", "_proportional_ops", "_cinv"}


def test_one_copy_of_each_job():
    parsed = _parsed()
    defined = {m: {n.name for n in ast.walk(tree)
                   if isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef))}
               for m, tree in parsed.items()}
    assert {m: names & FOLDED for m, names in defined.items()
            if names & FOLDED} == {}
    restrict = next(n for n in parsed["decompose"].body
                    if isinstance(n, ast.FunctionDef)
                    and n.name == "_restrict_forbidden")
    params = restrict.args.args + restrict.args.kwonlyargs
    assert "hard" not in {a.arg for a in params}


def test_chart_map_and_squarefree_part_keep_no_copy():
    # the chart map maps its points through T by ``linalg.mat_vec``, with
    # no rounding of T's entries of its own; the squarefree part multiplies
    # Yun's factors, with no Euclid of its own
    parsed = _parsed()
    chart = next(n for n in parsed["apolarity"].body
                 if isinstance(n, ast.FunctionDef) and n.name == "_chart_map")
    names = _names_in(chart)
    assert {"linalg", "mat_vec"} <= names and "_raw_mpf" not in names
    part = next(n for n in parsed["numerics"].body
                if isinstance(n, ast.FunctionDef) and n.name == "squarefree_part")
    names = _names_in(part)
    assert "squarefree_decomposition" in names
    assert names & {"poly_gcd", "divmod"} == set()


#: what an elimination on mpc objects names: the objects, the context that
#: sets their precision, the converter that built them, and libmp's
#: complex arithmetic
MPC_ELIMINATION = {"mpc", "workprec", "_unwrap"} | LIBMP_ARITHMETIC

#: the complex eliminations, which run on KERNELS
COMPLEX_ELIMINATION = {("linalg", "_raw_matrix"), ("linalg", "complex_echelon"),
                       ("linalg", "complex_rank"), ("linalg", "complex_kernel"),
                       ("linalg", "complex_solve_lstsq"),
                       ("apolarity", "_subspace_lift")}


def test_complex_elimination_runs_on_the_kernels():
    # the entries stay raw libmp tuples from conversion to the rounding of
    # the result, so no mpc object or workprec context enters the loops
    parsed = _parsed()
    functions = {(m, n.name): n for m in ("linalg", "apolarity")
                 for n in parsed[m].body if isinstance(n, ast.FunctionDef)}
    assert COMPLEX_ELIMINATION <= set(functions)
    assert {key: names for key in sorted(COMPLEX_ELIMINATION)
            if (names := _names_in(functions[key]) & MPC_ELIMINATION)} == {}
    assert _names_in(parsed["linalg"]) & MPC_ELIMINATION == set()
    assert "_unwrap" not in {n for tree in parsed.values() for n in _defined(tree)}


#: the two eliminations of ``linalg``: the exact one and the approximate one
PIVOTING = {"_reduce", "complex_echelon"}


def _swaps_rows(node):
    """Whether the code exchanges two entries, ``m[i], m[k] = m[k], m[i]``."""
    return any(isinstance(n, ast.Assign) and isinstance(n.targets[0], ast.Tuple)
               and all(isinstance(e, ast.Subscript) for e in n.targets[0].elts)
               for n in ast.walk(node))


def _scans_for_a_pivot(node):
    """Whether a loop nested in a ``for`` loop tests what it meets: an
    ``if`` in its body or a filter in a comprehension."""
    loops = (ast.For, ast.comprehension)
    for outer in ast.walk(node):
        if not isinstance(outer, ast.For):
            continue
        for inner in ast.walk(outer):
            if inner is outer or not isinstance(inner, loops):
                continue
            if isinstance(inner, ast.comprehension) and inner.ifs:
                return True
            if isinstance(inner, ast.For) and any(
                    isinstance(n, ast.If) for n in ast.walk(inner)):
                return True
    return False


def test_one_approximate_elimination():
    # the approximate solve and kernel read their answers off
    # ``complex_echelon`` through one back-substitution, so no function of
    # ``linalg`` but the two eliminations swaps rows or scans for a pivot
    functions = {n.name: n for n in _parsed()["linalg"].body
                 if isinstance(n, ast.FunctionDef)}
    assert PIVOTING <= set(functions)
    assert {name for name, fn in functions.items()
            if _swaps_rows(fn) or _scans_for_a_pivot(fn)} == PIVOTING
    for name in ("complex_kernel", "complex_solve_lstsq"):
        called = {n.func.id for n in ast.walk(functions[name])
                  if isinstance(n, ast.Call) and isinstance(n.func, ast.Name)}
        assert {"complex_echelon", "_back_substitute"} <= called, name


#: what a root distance under mpc arithmetic names
MPC_DISTANCE = {"mpc", "workprec", "to_mpc"}


def test_root_distances_run_on_the_kernels():
    # the differences are rounded by _csub at precision_bits and their
    # sizes settled by the exponent rule, with no mpc object or context
    functions = {n.name: n for n in _parsed()["apolarity"].body
                 if isinstance(n, ast.FunctionDef)}
    assert _names_in(functions["_distinct_roots"]) & MPC_DISTANCE == set()


def test_plane_curve_resultants_are_written_down():
    # the search intersects only lines and conics, whose resultants are
    # closed forms: no determinant at interpolation nodes, exact or
    # approximate, and no interpolation
    parsed = _parsed()
    assert "complex_det" not in _defined(parsed["linalg"])
    assert "_lagrange_interpolate" not in _defined(parsed["apolarity"])
    resultant = next(n for n in parsed["apolarity"].body
                     if isinstance(n, ast.FunctionDef)
                     and n.name == "_sylvester_resultant")
    assert _names_in(resultant) & {"rational_det", "complex_det"} == set()


def test_base_point_candidates_are_paired_by_the_certificate():
    # ``base_points`` certifies every candidate against the whole net, so
    # the candidates are one curve's roots at each resultant root, with no
    # second root search to pair them against; a conic chart whose
    # elimination of l2 fails moves to the next chart, so no routine pairs
    # the roots of two univariates
    functions = {n.name: n for n in _parsed()["apolarity"].body
                 if isinstance(n, ast.FunctionDef)}
    assert "_shared_roots" not in functions
    assert {"univariate_roots", "_trim_leading"}.isdisjoint(
        _names_in(functions["_back_substitute_l2"]))
    assert "univariate_roots" in _names_in(functions["_curve_pair_candidates"])


#: the calls a tolerance is formed from: an mpf operator applied to one of
#: them rounds at the caller's ``mpmath.mp.prec``
TOLERANCE_SOURCES = {"tolerance", "norm1", "max_abs", "max_abs_of"}


def _tolerance_source(node, names=()):
    """Whether node is ``tolerance(...)``, ``x.tol``, a call of a 1-norm or
    a max modulus, or one of ``names``."""
    if isinstance(node, ast.Name):
        return node.id in names
    if isinstance(node, ast.Attribute):
        return node.attr == "tol"
    if isinstance(node, ast.Call):
        f = node.func
        name = f.attr if isinstance(f, ast.Attribute) else getattr(f, "id", "")
        return name in TOLERANCE_SOURCES
    return False


def test_pipeline_thresholds_ignore_the_ambient_precision():
    # every tolerance and scale of the pipeline is a libmp product at
    # THRESHOLD_BITS (``numerics._threshold``): no mpf is built, and no
    # arithmetic operator, which would round at ``mpmath.mp.prec``, takes
    # a tolerance, a 1-norm or a max modulus, or a name a function binds
    # to an expression of one
    parsed = _parsed()
    offenders = []
    for m in ("decompose", "apolarity"):
        for func in ast.walk(parsed[m]):
            if not isinstance(func, ast.FunctionDef):
                continue
            bound = {t.id for n in ast.walk(func) if isinstance(n, ast.Assign)
                     and any(map(_tolerance_source, ast.walk(n.value)))
                     for t in n.targets if isinstance(t, ast.Name)}
            for node in ast.walk(func):
                if (isinstance(node, ast.Call)
                        and getattr(node.func, "id", None) == "mpf"):
                    offenders.append(f"{m}.py:{node.lineno} mpf(...)")
                elif isinstance(node, ast.BinOp) and (
                        _tolerance_source(node.left, bound)
                        or _tolerance_source(node.right, bound)):
                    offenders.append(
                        f"{m}.py:{node.lineno} {ast.unparse(node)}")
    assert sorted(set(offenders)) == []


#: what an approximate scalar looks like outside its one representation,
#: the raw libmp (real, imag) pair: mpmath's objects, the context that sets
#: their precision, and the converters to and from them
MPC_OBJECTS = {"mpc", "workprec", "mpmath", "_make_mpc", "to_mpc", "from_mpc"}

#: the root finder, which runs on raw pairs from the coefficients to the
#: certified roots
ROOT_FINDER = {"_horner", "_aberth", "univariate_roots"}

#: what a root path on Python complex values needs: the module of complex
#: doubles and libmp's converters between doubles and raw mpfs
DOUBLE_PRECISION = {"cmath", "from_float", "to_float"}


def _imported_names(tree):
    return {a.asname or a.name for n in ast.walk(tree)
            if isinstance(n, (ast.Import, ast.ImportFrom)) for a in n.names}


def test_root_finder_runs_on_raw_pairs():
    functions = {n.name: n for n in _parsed()["numerics"].body
                 if isinstance(n, ast.FunctionDef)}
    assert ROOT_FINDER <= set(functions)
    assert {name: names for name in sorted(ROOT_FINDER)
            if (names := _names_in(functions[name]) & MPC_OBJECTS)} == {}


def test_roots_are_found_at_the_working_precision():
    # every factor runs ``_aberth`` on integers; no root path on doubles
    # comes back beside it
    tree = _parsed()["numerics"]
    assert _imported_names(tree) & DOUBLE_PRECISION == set()


def test_mpc_objects_stay_in_numerics():
    # every other module reads an AppComplex's parts and runs libmp or the
    # kernels on them, with no mpc object and no precision context
    assert {m: names for m, tree in _parsed().items() if m != "numerics"
            if (names := (_names_in(tree) | _imported_names(tree))
                & {"mpc", "workprec"})} == {}


def test_parts_are_read_as_stored():
    # ``x.parts``, not the raw tuples of the mpfs that .real and .imag build
    reads = [f"{m}.py:{n.lineno}" for m, tree in _parsed().items()
             for n in ast.walk(tree)
             if isinstance(n, ast.Attribute) and n.attr == "_mpf_"
             and isinstance(n.value, ast.Attribute)
             and n.value.attr in ("real", "imag")]
    assert reads == []


#: converters and second copies that the one scalar representation made
#: redundant: the mpc coefficient list, the mpf wrapper of ``_raw_mpf``,
#: and linalg's negation beside ``numerics._cneg``
SCALAR_COPIES = {"_coeffs_to_mpc", "_to_mpf"}


def test_scalar_converters_stay_deleted():
    parsed = _parsed()
    defined = {m: {n.name for n in ast.walk(tree)
                   if isinstance(n, ast.FunctionDef)}
               for m, tree in parsed.items()}
    assert {m: names & SCALAR_COPIES for m, names in defined.items()
            if names & SCALAR_COPIES} == {}
    assert "_neg" not in defined["linalg"]
    assert "_cneg" in defined["numerics"]


#: the approximate algebra that runs on raw values (``numerics._unbox``,
#: ``_mul``, ``_add`` ...), as (module, qualified name)
RAW_VALUE_LOOPS = {
    ("poly", "_power_coeffs"), ("poly", "contract"), ("poly", "evaluate"),
    ("poly", "_SparsePoly.scale"), ("poly", "_SparsePoly.__add__"),
    ("poly", "_SparsePoly.__sub__"), ("poly", "_SparsePoly.cleaned"),
    ("numerics", "UniPoly.__call__"), ("numerics", "UniPoly.__add__"),
    ("numerics", "UniPoly.__mul__"), ("numerics", "UniPoly.scale"),
    ("linalg", "dot"), ("decompose", "_proportional_linear"),
    ("apolarity", "catalecticant")}

#: AppComplex's arithmetic operators
OPERATORS = ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__",
             "__rmul__", "__truediv__", "__rtruediv__", "__neg__", "__pow__")


def _function_of(frame):
    """(module, qualified name) of the function a frame runs in; a
    comprehension, generator expression or lambda counts as the function
    it runs for."""
    while frame.f_code.co_name.startswith("<"):
        frame = frame.f_back
    return Path(frame.f_code.co_filename).stem, frame.f_code.co_qualname


@pytest.mark.skipif(sys.version_info < (3, 11),
                    reason="names functions by code.co_qualname (3.11)")
def test_approximate_algebra_calls_no_operator(monkeypatch):
    # a static check cannot see an operator applied to a value, so the rule
    # runs the code: one approximate (4,3) decomposition, and each loop once
    # more on approximate and mixed operands of two precisions
    callers = collections.Counter()
    for name in OPERATORS:
        real = getattr(ow.AppComplex, name)

        def recording(*args, _real=real):
            callers[_function_of(sys._getframe(1))] += 1
            return _real(*args)

        monkeypatch.setattr(ow.AppComplex, name, recording)
    entered = set()

    def profile(frame, event, arg):
        if event == "call":
            entered.add((Path(frame.f_code.co_filename).stem,
                         frame.f_code.co_qualname))

    rng = random.Random(0)
    f = ow.Form(4, 3, {e: Fraction(rng.randint(-9, 9))
                       for e in poly.monomials_of_degree(4, 3)})
    a, b = ow.AppComplex(Fraction(1, 3), 2, 128), ow.AppComplex(-5, 1, 256)
    g = ow.Form(2, 2, {(2, 0): a, (1, 1): Fraction(1, 7), (0, 2): b})
    h = ow.Form(2, 2, {(2, 0): Fraction(3), (1, 1): b})
    l = ow.LinearForm([a, Fraction(2, 3)])
    p, q = ow.UniPoly([a, Fraction(1, 2), b]), ow.UniPoly([b, a])
    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        dec = ow.decompose(f, seed=1, precision_bits=128)
        poly.linear_power(l, 3)
        poly.contract(poly.dual_power([b, a], 1), g)
        poly.evaluate(g, [a, Fraction(5)])
        (g + h, g - h, g.scale(a), g.cleaned(tolerance(128)))
        (p(a), p + q, p * q, p.scale(Fraction(3)))
        linalg.dot([a, Fraction(2)], [b, a])
        _proportional_linear(l, l.scale(b), 128, _coords_scale(l),
                             _coords_scale(l.scale(b)))
        ow.catalecticant(g, 1)
    finally:
        sys.setprofile(previous)
    assert not dec.exact and dec.report.passed
    assert RAW_VALUE_LOOPS <= entered
    # the wrappers see the operators where the pipeline still uses them
    assert callers
    assert {c: n for c, n in callers.items() if c in RAW_VALUE_LOOPS} == {}
