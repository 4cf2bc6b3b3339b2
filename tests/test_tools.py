import importlib.util
from pathlib import Path

_SPEC = importlib.util.spec_from_file_location("code_lines", Path(__file__).parents[1] / "tools" / "code_lines.py")
code_lines = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(code_lines)

SNIPPET = '''"""Module docstring,
over two lines."""

import os  # a comment on a code line

# a comment line


class A:
    """Class docstring."""

    x = """an assigned string,
    not a docstring"""

    def f(self):
        'function docstring'
        return (1 +
                2)

    def g(self): "a docstring on a code line"
'''


def test_code_lines_skips_comments_docstrings_and_blank_lines():
    # import, class, the two lines of x, def f, the two lines of its return, def g
    assert code_lines.code_lines(SNIPPET) == 8


def test_code_lines_totals_a_directory(tmp_path, capsys):
    (tmp_path / "pkg").mkdir()
    (tmp_path / "pkg" / "a.py").write_text(SNIPPET)
    (tmp_path / "pkg" / "b.py").write_text("x = 1\n\n# done\n")
    (tmp_path / "pkg" / "notes.txt").write_text("x = 1\n")
    assert code_lines.main([str(tmp_path / "pkg")]) == 0
    assert capsys.readouterr().out == "9\n"
