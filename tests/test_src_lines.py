"""`scripts/src_lines.py`: line and code-line counts of a package's modules."""

import importlib.util
from pathlib import Path

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "src_lines.py"

# Code lines are marked "# code" (a trailing comment keeps a line code);
# the others are blank, comments or docstrings.
SOURCE = '''\
"""Module docstring,
over two lines."""

# A comment line.
import os  # code


class Thing:  # code
    """Class docstring."""

    size = 1  # code

    def method(self):  # code
        """Method docstring,

        over three lines."""
        # Another comment.
        return """not a  # code
docstring: every line of it is code
"""


async def run():  # code
    """Coroutine docstring."""
    text = "# not a comment"  # code
    return (text,  # code
            os.sep)  # code
'''


def load_script():
    spec = importlib.util.spec_from_file_location("src_lines", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_code_lines_skip_blanks_comments_and_docstrings():
    assert load_script().code_lines(SOURCE) == 11


def test_counts_each_module_and_the_total(tmp_path, capsys):
    (tmp_path / "b.py").write_text(SOURCE, encoding="utf-8")
    (tmp_path / "a.py").write_text("x = 1\n\n# note\n", encoding="utf-8")
    (tmp_path / "notes.txt").write_text("not python\n", encoding="utf-8")
    script = load_script()
    assert script.count(tmp_path) == [("a.py", 3, 1), ("b.py", 27, 11)]
    assert script.main([str(tmp_path)]) == 0
    assert capsys.readouterr().out.splitlines() == [
        "module   lines    code",
        "a.py         3       1",
        "b.py        27      11",
        "total       30      12",
    ]
