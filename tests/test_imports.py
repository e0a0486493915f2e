"""Import hygiene: every imported name in src/ and tests/ is used, and
the modules of src/mmconc import each other at module level only, along
an acyclic graph.

A name counts as used when the module reads it anywhere, or lists it in
`__all__` (a re-export).  Imports from `__future__` are directives, not
names.
"""

import ast
import graphlib
import pathlib

ROOT = pathlib.Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "mmconc"

# The one import a function of src/mmconc may make, as (module, function,
# imported module): `leggauss` loads all of numpy.polynomial, which no
# experiment reads, so it is imported on the first quadrature
# (tests/test_cold_start.py).
LAZY_IMPORTS = {("special", "_gauss_legendre", "numpy.polynomial.legendre")}


def _unused_imports(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    imported = {}
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used.update(ast.literal_eval(node.value))
    return sorted((line, name) for name, line in imported.items() if name not in used)


def test_no_unused_imports():
    found = [
        "%s:%d: %s" % (path.relative_to(ROOT), line, name)
        for top in ("src", "tests")
        for path in sorted((ROOT / top).rglob("*.py"))
        for line, name in _unused_imports(path)
    ]
    assert not found, "imported but never used:\n" + "\n".join(found)


def _import_statements(path):
    """(innermost enclosing function or None, import node) of each import
    statement of a module."""
    found = []

    def visit(node, function):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.Import, ast.ImportFrom)):
                found.append((function, child))
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, child.name)
            else:
                visit(child, function)

    visit(ast.parse(path.read_text(encoding="utf-8"), filename=str(path)), None)
    return found


def _package_targets(node, modules):
    """The modules of the package an import statement reads: a submodule
    it names, or `__init__` for a name the package itself defines."""
    if isinstance(node, ast.Import):
        dotted = [alias.name for alias in node.names]
    elif not node.level:
        dotted = [node.module]
    elif node.module:
        dotted = ["mmconc." + node.module]
    else:  # from . import a, b
        dotted = ["mmconc." + alias.name for alias in node.names]
    targets = set()
    for name in dotted:
        parts = name.split(".")
        if parts[0] == "mmconc":
            targets.add(parts[1] if len(parts) > 1 and parts[1] in modules else "__init__")
    return targets


def _package_modules():
    return {path.stem: path for path in sorted(PACKAGE.glob("*.py"))}


def test_src_imports_sit_at_module_level():
    found = [
        "%s.py:%d: import inside %s()" % (name, node.lineno, function)
        for name, path in _package_modules().items()
        for function, node in _import_statements(path)
        if function is not None
        and (name, function, getattr(node, "module", None)) not in LAZY_IMPORTS
    ]
    assert not found, "function-level imports:\n" + "\n".join(found)


def test_src_import_graph_is_acyclic():
    modules = _package_modules()
    graph = {
        name: {t for _, node in _import_statements(path) for t in _package_targets(node, modules)}
        for name, path in modules.items()
    }
    try:
        tuple(graphlib.TopologicalSorter(graph).static_order())
    except graphlib.CycleError as exc:
        cycle = " -> ".join(reversed(exc.args[1]))  # each module imports the next
        raise AssertionError("import cycle: " + cycle) from None
