"""The code-line counter that CHANGES.md quotes (`tests/code_lines.py`), on a synthetic module."""

import subprocess
import sys
from pathlib import Path

from code_lines import code_lines, count

MODULE = '''"""A module docstring
over two lines."""

import os  # a comment on a code line

# a comment alone


class K:
    """A class docstring."""

    x = """a string over
    three lines that is
    assigned"""

    def f(self):
        """A method docstring."""
        "a bare string is a docstring too"
        return (1,
                2)
'''


def test_the_counter_skips_comments_blank_lines_and_docstrings():
    # Code lines: the import, `class K:`, the three lines of `x`, `def f`
    # and the two lines of its return.
    assert code_lines(MODULE) == 8
    assert code_lines("") == 0
    assert code_lines('"""only a docstring"""\n') == 0
    assert code_lines('print("not a docstring")\n') == 1


def test_the_script_prints_each_module_and_the_total(tmp_path):
    (tmp_path / "a.py").write_text(MODULE, encoding="utf-8")
    (tmp_path / "b.py").write_text("y = 2\n", encoding="utf-8")
    assert count(tmp_path) == {"a": 8, "b": 1}
    script = Path(__file__).resolve().parent / "code_lines.py"
    out = subprocess.run([sys.executable, str(script), str(tmp_path)], capture_output=True, text=True, check=True)
    assert out.stdout == "a 8\nb 1\ntotal 9\n"
