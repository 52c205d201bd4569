"""No module imports a name it never reads, and no private name crosses a
module boundary where it would hide work or borrow what it checks.

An AST scan over the package (except ``__init__.py``, whose imports are
its public API), the tests and the demos: every name bound by an import
must be read somewhere in the module.  ``tests/oracles.py`` imports no
``_``-prefixed name from the package, and no package module imports one
from another package module or reads one off an imported package module.
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
    private = list(_private_package_names(ast.parse(path.read_text(), filename=str(path))))
    assert not private, f"oracles.py imports private names: {', '.join(private)}"


def _private_package_names(tree):
    """``_``-prefixed names that a module imports from ``bifree`` modules
    (relative imports included) or reads as attributes of a ``bifree``
    module it imported."""
    modules = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (
            node.level > 0 or (node.module or "").split(".")[0] == "bifree"
        ):
            for a in node.names:
                if a.name.startswith("_"):
                    yield f"{node.module or '.'}.{a.name} (line {node.lineno})"
                elif node.module in (None, "bifree"):
                    modules.add(a.asname or a.name)
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id in modules
            and node.attr.startswith("_")
        ):
            yield f"{node.value.id}.{node.attr} (line {node.lineno})"


@pytest.mark.parametrize(
    "path",
    sorted((ROOT / "src" / "bifree").glob("*.py")),
    ids=lambda p: str(p.relative_to(ROOT)),
)
def test_package_imports_no_private_names(path):
    # The benchmark's tracer wraps public callables only: a private shortcut
    # between modules would hide work from the per-layer metrics.
    tree = ast.parse(path.read_text(), filename=str(path))
    private = list(_private_package_names(tree))
    assert not private, f"{path.name} imports private names: {', '.join(private)}"
