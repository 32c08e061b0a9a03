import importlib.util
from pathlib import Path

_TOOL = Path(__file__).resolve().parent.parent / "tools" / "code_lines.py"


def _tool():
    spec = importlib.util.spec_from_file_location("code_lines", _TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_code_lines_skip_blank_comment_and_docstring_lines():
    source = '''"""Module docstring,
over two lines."""

# a comment
import os  # a trailing comment


class A:
    """Class docstring."""

    def f(self, x):
        """Function docstring,

        with a blank line."""
        text = """a string that is not a docstring
spans two lines"""
        return (x +
                1)
'''
    # import, class, def, the two lines of text, the two lines of return
    assert _tool().code_lines(source) == 7


def test_code_lines_prints_each_module_and_the_total(tmp_path, capsys):
    (tmp_path / "a.py").write_text("x = 1\n\ny = 2\n")
    (tmp_path / "sub").mkdir()
    (tmp_path / "sub" / "b.py").write_text('"""Doc."""\nz = 3\n')
    assert _tool().main([str(tmp_path)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert [line.split() for line in lines] == [
        ["2", str(tmp_path / "a.py")], ["1", str(tmp_path / "sub" / "b.py")], ["3", "total"]]
