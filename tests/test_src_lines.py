"""tools/src_lines.py: physical and code lines of a source tree."""

import importlib.util
from pathlib import Path

TOOL = Path(__file__).resolve().parents[1] / "tools" / "src_lines.py"

# 19 physical lines; the code lines are 4, 9, 12, 15-16, 17-18 and 19
FIXTURE = '''"""Module docstring
over two lines."""

import os  # a trailing comment

# a comment line


class A:
    """Class docstring."""

    def f(self, x):
        """Function
        docstring."""
        total = (x
                 + 1)
        text = """a multi-line
string"""
        return total, text
'''


def load():
    spec = importlib.util.spec_from_file_location("src_lines", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_count_skips_docstrings_comments_and_blank_lines():
    assert load().count(FIXTURE) == (19, 8)


def test_tree_rows_and_totals(tmp_path, capsys):
    (tmp_path / "pkg").mkdir()
    (tmp_path / "pkg" / "__init__.py").write_text("")
    (tmp_path / "pkg" / "a.py").write_text(FIXTURE)
    (tmp_path / "b.py").write_text("x = 1\n\n")
    assert load().main(["--src", str(tmp_path)]) == 0
    rows = [line.split() for line in capsys.readouterr().out.splitlines()]
    assert rows == [["file", "lines", "code"], ["b.py", "2", "1"],
                    ["pkg/__init__.py", "0", "0"], ["pkg/a.py", "19", "8"],
                    ["total", "21", "9"]]
