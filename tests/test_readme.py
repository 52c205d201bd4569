"""README names only code that exists.

Every backticked identifier in README outside the fenced code blocks
(``bifree.fock``, ``CPMap.kernel``, ``.nc``, ``mobius_top_table(n)``, ...)
must resolve against the package: a module, a name that a module defines,
an attribute of such a name, or a member of one of its classes.  Tokens
that name something outside the package are listed in ``NOT_PACKAGE``.
"""

import importlib
import inspect
import pkgutil
import re
from pathlib import Path

import bifree

README = Path(__file__).resolve().parent.parent / "README.md"

# Backticked identifiers that are not package names: Python and numpy
# names, JSON literals, a CLI subcommand, and symbols of formulas.
NOT_PACKAGE = {
    "ValueError",
    "itertools.product",
    "np.add.accumulate",
    "tensordot",
    "true",
    "null",
    "mc",
    "floor",
    "s",
}

# A name, dotted or with a leading dot for an attribute, and an optional
# call with arguments that hold no parentheses.
IDENTIFIER = re.compile(r"(\.?[A-Za-z_]\w*(?:\.[A-Za-z_]\w*)*)(?:\([^()]*\))?")

MODULES = {
    name: importlib.import_module(f"bifree.{name}")
    for name in (m.name for m in pkgutil.iter_modules(bifree.__path__))
}


def _readme_identifiers():
    text = re.sub(r"```.*?```", "", README.read_text(), flags=re.S)
    for token in re.findall(r"`([^`\n]+)`", text):
        match = IDENTIFIER.fullmatch(token)
        if match:
            yield match.group(1)


def _classes():
    for module in MODULES.values():
        for obj in vars(module).values():
            if inspect.isclass(obj) and obj.__module__.startswith("bifree."):
                yield obj


def _resolves(name: str) -> bool:
    if name.startswith("."):
        return any(hasattr(cls, name[1:]) for cls in _classes())
    head, *rest = name.split(".")
    if head == "bifree":
        if not rest:
            return True
        head, *rest = rest
    if head in MODULES:
        roots = [MODULES[head]]
    else:
        roots = [vars(m)[head] for m in MODULES.values() if head in vars(m)]
        if not rest:
            roots += [cls for cls in _classes() if hasattr(cls, head)]
    for obj in roots:
        for attr in rest:
            obj = getattr(obj, attr, None)
        if obj is not None:
            return True
    return False


def test_readme_identifiers_resolve():
    names = sorted(set(_readme_identifiers()) - NOT_PACKAGE)
    assert len(names) > 30
    assert [n for n in names if not _resolves(n)] == []


def test_a_retired_name_fails():
    assert not _resolves("BisemicircularModel")
    assert not _resolves("FockModel.left_symbols")
    assert _resolves("FockModel.symbol") and _resolves("bifree.fock.make_circular_pair")
