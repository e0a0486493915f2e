"""Every imported name in src/ and tests/ is used.

A name counts as used when the module reads it anywhere, or lists it in
`__all__` (a re-export).  Imports from `__future__` are directives, not
names.
"""

import ast
import pathlib

ROOT = pathlib.Path(__file__).resolve().parent.parent


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
