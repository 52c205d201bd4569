"""The code-line counter in ``tools/code_lines.py``."""

import importlib.util
from pathlib import Path

_PATH = Path(__file__).resolve().parents[1] / "tools" / "code_lines.py"
_spec = importlib.util.spec_from_file_location("code_lines", _PATH)
code_lines = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(code_lines)

SOURCE = '''"""Module docstring,
two lines."""

import os  # a comment after code counts


# a comment line
class A:
    """Class docstring."""

    x = """not a docstring:
    an assigned string"""

    def f(self):
        """Function docstring."""
        return (1,
                2)

    async def g(self):
        "one-line docstring"

        pass
'''


def test_counts_code_lines_only():
    # import, class, x = (2 lines), def, return (2 lines), async def, pass
    assert code_lines.code_lines(SOURCE) == 9


def test_main_prints_modules_and_total(tmp_path, capsys):
    (tmp_path / "b.py").write_text(SOURCE)
    (tmp_path / "a.py").write_text("x = 1\n\n# note\n")
    assert code_lines.main([str(tmp_path)]) == 0
    assert capsys.readouterr().out == "a 1\nb 9\ntotal 10\n"
