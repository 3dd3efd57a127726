"""The package's import structure: every import sits at module level, and
the modules import each other without a cycle."""

import ast
from pathlib import Path

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


#: the pipeline's code for powers of linear forms and substitutions,
#: with the integer expansion that rational substitutions run on
POLY_EXPANSIONS = {"linear_power", "dual_power", "_power_of_linear",
                   "_substitute", "_expansions", "_substitute_exact",
                   "_integer_power", "_integer_product", "_substitute_approx",
                   "_product", "change_coordinates"}


def test_verify_expands_powers_on_its_own():
    # the certificate must not reach the expansions it certifies, neither by
    # importing them from poly nor through an imported poly module
    parsed = _parsed()
    assert POLY_EXPANSIONS <= {n.name for n in parsed["poly"].body
                               if isinstance(n, ast.FunctionDef)}
    tree = parsed["verify"]
    imported = set()
    poly_aliases = set()
    for node, target in _internal_imports(tree):
        if target != "poly":
            continue
        module = getattr(node, "module", None) or ""
        if module.split(".")[-1] == "poly":  # from .poly import ...
            imported |= {a.name for a in node.names}
        else:  # from . import poly, import openwaring.poly as p
            poly_aliases |= {a.asname or a.name.split(".")[-1]
                             for a in node.names}
    reached = {n.attr for n in ast.walk(tree)
               if isinstance(n, ast.Attribute) and isinstance(n.value, ast.Name)
               and n.value.id in poly_aliases}
    assert POLY_EXPANSIONS.isdisjoint(imported | reached)
