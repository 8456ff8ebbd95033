"""Every name a ``pstwalk`` module exports is reached by shipped code.

A name in a module's ``__all__`` must occur somewhere in ``src/``,
``scripts/`` or ``perfbench/`` other than its own ``def``/``class`` line,
an ``__all__`` list or the package's ``__init__.py`` re-exports.  A name
that only the tests reach is a reference, and references live in
``tests/oracles.py``.  Every name a module of ``src/``, ``scripts/`` or
``tests/`` imports is used in that module.  The files are read as text;
nothing is imported.
"""

from __future__ import annotations

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "pstwalk"


def _is_all(node) -> bool:
    return isinstance(node, ast.Assign) and any(
        isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
    )


def _shipped_lines() -> list[str]:
    """Every line of shipped code, less ``__all__`` lists and the package re-exports."""
    lines = []
    paths = [p for top in ("src", "scripts", "perfbench") for p in (ROOT / top).rglob("*.py")]
    for path in sorted(paths):
        text = path.read_text()
        skipped = {
            i
            for node in ast.parse(text).body
            if _is_all(node) or (path.name == "__init__.py" and isinstance(node, ast.ImportFrom))
            for i in range(node.lineno, node.end_lineno + 1)
        }
        lines += [line for i, line in enumerate(text.splitlines(), 1) if i not in skipped]
    return lines


def _exports(path: Path) -> list[str]:
    body = ast.parse(path.read_text()).body
    return [ast.literal_eval(e) for node in body if _is_all(node) for e in node.value.elts]


def test_every_export_is_reached_outside_the_tests():
    lines = _shipped_lines()
    unreached = []
    for path in sorted(PACKAGE.glob("*.py")):
        for name in _exports(path) if path.name != "__init__.py" else []:
            word = re.compile(rf"\b{re.escape(name)}\b")
            definition = re.compile(rf"^\s*(def|class)\s+{re.escape(name)}\b")
            if not any(word.search(line) and not definition.match(line) for line in lines):
                unreached.append(f"{path.stem}.{name}")
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
