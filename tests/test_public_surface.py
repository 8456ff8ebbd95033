"""Every name a ``pstwalk`` module exports is reached by shipped code.

A name in a module's ``__all__`` must be referenced by code somewhere in
``src/``, ``scripts/`` or ``perfbench/``: read as a name or an attribute,
imported, or named in the tracer's ``TARGETS``.  ``__all__`` lists, the
package's ``__init__.py`` re-exports, docstrings and comments do not count.
A name that only the tests reach is a reference, and references live in
``tests/oracles.py``.  Every name a module of ``src/``, ``scripts/`` or
``tests/`` imports is used in that module.  The modules form layers:
``scheme`` imports neither graph family, the walk nor the CLI, and the two
families do not import each other.  No module imports numpy when it is
itself imported: only the functions that build or read arrays do.  The
files are parsed; nothing is imported.
"""

from __future__ import annotations

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "pstwalk"


def _assigns(node, name: str) -> bool:
    return isinstance(node, ast.Assign) and any(
        isinstance(t, ast.Name) and t.id == name for t in node.targets
    )


def _shipped_references() -> set[str]:
    """Every name shipped code reads, imports or traces, less the package re-exports."""
    refs = set()
    paths = [p for top in ("src", "scripts", "perfbench") for p in (ROOT / top).rglob("*.py")]
    for path in paths:
        tree = ast.parse(path.read_text())
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                refs.add(node.id)
            elif isinstance(node, ast.Attribute):
                refs.add(node.attr)
            elif isinstance(node, (ast.Import, ast.ImportFrom)):
                if not (path == PACKAGE / "__init__.py" and isinstance(node, ast.ImportFrom)):
                    refs.update(alias.name for alias in node.names)
        if path.name == "tracer.py":
            targets = next(n for n in tree.body if _assigns(n, "TARGETS"))
            refs.update(
                part
                for node in ast.walk(targets.value)
                if isinstance(node, ast.Constant) and isinstance(node.value, str)
                for part in node.value.split(".")
            )
    return refs


def _exports(path: Path) -> list[str]:
    body = ast.parse(path.read_text()).body
    return [
        ast.literal_eval(e) for node in body if _assigns(node, "__all__") for e in node.value.elts
    ]


def test_every_export_is_reached_outside_the_tests():
    refs = _shipped_references()
    unreached = [
        f"{path.stem}.{name}"
        for path in sorted(PACKAGE.glob("*.py"))
        if path.name != "__init__.py"
        for name in _exports(path)
        if name not in refs
    ]
    assert not unreached, f"exported but reached only by the tests: {', '.join(unreached)}"


def test_the_package_reexports_only_module_exports():
    exported = {name for path in PACKAGE.glob("*.py") for name in _exports(path)}
    assert set(_exports(PACKAGE / "__init__.py")) - {"__version__"} <= exported


def _unused_imports(path: Path) -> list[str]:
    """Names ``path`` imports and never reads (``__future__`` and ``__all__`` aside)."""
    tree = ast.parse(path.read_text())
    exported = set(_exports(path))
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [
        f"{path.relative_to(ROOT)}:{line} {name}"
        for name, line in imported.items()
        if name not in used and name not in exported and name != "*"
    ]


def test_every_import_is_used():
    paths = [p for top in ("src", "scripts", "tests") for p in (ROOT / top).rglob("*.py")]
    unused = [
        entry
        for path in sorted(paths)
        if not (path.name == "__init__.py" and path.parent == PACKAGE)
        for entry in _unused_imports(path)
    ]
    assert not unused, f"imported but never used: {', '.join(unused)}"


def _package_imports(path: Path) -> set[str]:
    """The ``pstwalk`` modules ``path`` imports, by their short names."""
    out = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.ImportFrom):
            if node.level == 1 and node.module:
                out.add(node.module.split(".")[0])
            elif node.level == 1:
                out.update(alias.name for alias in node.names)
            elif node.module and node.module.startswith("pstwalk."):
                out.add(node.module.split(".")[1])
        elif isinstance(node, ast.Import):
            out.update(
                alias.name.split(".")[1]
                for alias in node.names
                if alias.name.startswith("pstwalk.")
            )
    return out


def test_modules_form_layers():
    """gf -> chars -> groups -> scheme -> {cayley, orbital} -> cli."""
    above = {
        "scheme": {"cayley", "orbital", "ctqw", "cli"},
        "cayley": {"orbital"},
        "orbital": {"cayley"},
    }
    crossings = [
        f"{module} imports {', '.join(sorted(found))}"
        for module, banned in above.items()
        if (found := _package_imports(PACKAGE / f"{module}.py") & banned)
    ]
    assert not crossings, f"layering broken: {'; '.join(crossings)}"


def _import_time_imports(nodes) -> list[ast.stmt]:
    """The import statements that run when a module is imported.

    Function bodies run later, and ``if TYPE_CHECKING:`` blocks never run.
    """
    found = []
    for node in nodes:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        if isinstance(node, ast.If) and ast.unparse(node.test) in ("TYPE_CHECKING", "typing.TYPE_CHECKING"):
            found += _import_time_imports(node.orelse)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            found.append(node)
        else:
            found += _import_time_imports(ast.iter_child_nodes(node))
    return found


def _imported_roots(node) -> set[str]:
    if isinstance(node, ast.ImportFrom):
        return {node.module.split(".")[0]} if node.level == 0 and node.module else set()
    return {alias.name.split(".")[0] for alias in node.names}


def test_no_module_imports_numpy_when_imported():
    """The exact path (tables, characters, period sums, certificate, report) loads no numpy."""
    eager = [
        f"{path.relative_to(ROOT)}:{node.lineno}"
        for path in sorted(PACKAGE.glob("*.py"))
        for node in _import_time_imports(ast.parse(path.read_text()).body)
        if "numpy" in _imported_roots(node)
    ]
    assert not eager, f"numpy imported at module level: {', '.join(eager)}"
