"""Every callable that the benchmark tracer wraps still exists.

``bench/tracer.py`` patches the callables named in its ``TRACED`` table by
module and attribute path.  A renamed function or method would otherwise
fail only when the traced benchmark runs.  The table is read from the file
as a literal, so the benchmark directory is neither imported nor written.
"""

import ast
import importlib
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parent.parent / "bench" / "tracer.py"


def _traced():
    tree = ast.parse(TRACER.read_text(), filename=str(TRACER))
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "TRACED" for t in node.targets
        ):
            return ast.literal_eval(node.value)
    raise AssertionError("no TRACED table in bench/tracer.py")


@pytest.mark.parametrize("module, path, span", _traced(), ids=lambda v: str(v))
def test_traced_callable_resolves(module, path, span):
    owner = importlib.import_module(module)
    for attr in path.split("."):
        assert hasattr(owner, attr), f"{module}.{path} (span {span}) no longer exists"
        owner = getattr(owner, attr)
    assert callable(owner)
