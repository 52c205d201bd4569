"""No module imports a name it never reads, and the oracles no private one.

An AST scan over the package (except ``__init__.py``, whose imports are
its public API), the tests and the demos: every name bound by an import
must be read somewhere in the module.  ``tests/oracles.py`` imports no
``_``-prefixed name from the package.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
MODULES = sorted(
    p
    for p in [*(ROOT / "src" / "bifree").glob("*.py"), *(ROOT / "tests").glob("*.py"),
              *(ROOT / "demos").glob("*.py")]
    if p.name != "__init__.py"
)


def _imported(tree):
    """Names bound by imports, with the line of their import."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for a in node.names:
                yield a.asname or a.name.split(".")[0], node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for a in node.names:
                yield a.asname or a.name, node.lineno


def _read(tree):
    return {
        node.id
        for node in ast.walk(tree)
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
    }


@pytest.mark.parametrize("path", MODULES, ids=lambda p: str(p.relative_to(ROOT)))
def test_no_unused_imports(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    read = _read(tree)
    unused = [f"{name} (line {line})" for name, line in _imported(tree) if name not in read]
    assert not unused, f"{path.name} imports but never reads: {', '.join(unused)}"


def test_oracles_import_no_private_names():
    # An oracle that borrows the helpers it checks is not independent.
    path = ROOT / "tests" / "oracles.py"
    tree = ast.parse(path.read_text(), filename=str(path))
    private = [
        f"{node.module}.{a.name} (line {node.lineno})"
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "bifree"
        for a in node.names
        if a.name.startswith("_")
    ]
    assert not private, f"oracles.py imports private names: {', '.join(private)}"
