"""``tools/code_lines.py``, the code-line count that size changes quote,
pinned on one fixed source: docstrings of a module, a class and a
function, blank lines and comments do not count; a bare string that is
not a docstring, a multi-line string and every line of a multi-line call
do."""

import ast
import importlib.util
from pathlib import Path

TOOL = Path(__file__).resolve().parent.parent / "tools" / "code_lines.py"

SOURCE = '''"""A module docstring
over two lines."""

import os  # a comment after code

# a comment on its own line


class Thing:
    """A class docstring."""

    size = 1


def join(a,
         b):
    """A function
    docstring."""
    "a bare string after the docstring"
    text = """a string
over two lines"""
    return os.path.join(
        a,  # a comment inside a call
        b,

        text,
    )
'''

# import; class; size = 1; def join(a, and b):; the bare string; text's
# two lines; return ...(, a, b, text, and )
EXPECTED = 13


def load_tool():
    spec = importlib.util.spec_from_file_location("code_lines", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_the_count_of_a_fixed_source():
    tool = load_tool()
    assert tool.code_lines(SOURCE) == EXPECTED
    assert tool.docstring_lines(ast.parse(SOURCE)) == {1, 2, 10, 17, 18}


def test_the_command_prints_each_file_and_the_total(tmp_path, capsys):
    tool = load_tool()
    (tmp_path / "pkg").mkdir()
    (tmp_path / "pkg" / "a.py").write_text(SOURCE, encoding="utf-8")
    (tmp_path / "pkg" / "b.py").write_text("x = 1\n\n# done\n", encoding="utf-8")
    tool.main([str(tmp_path / "pkg")])
    lines = capsys.readouterr().out.splitlines()
    assert [line.split() for line in lines] == [
        [str(EXPECTED), str(tmp_path / "pkg" / "a.py")],
        ["1", str(tmp_path / "pkg" / "b.py")],
        [str(EXPECTED + 1), "total"]]
