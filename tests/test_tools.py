"""The repository's own scripts."""

import importlib.util
from pathlib import Path

_SPEC = importlib.util.spec_from_file_location(
    "code_lines", Path(__file__).resolve().parent.parent / "tools" / "code_lines.py"
)
code_lines = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(code_lines)


def test_code_lines_skips_comments_blank_lines_and_docstrings(tmp_path):
    source = tmp_path / "sample.py"
    source.write_text(
        '"""Module docstring,\n'
        'two lines."""\n'
        "\n"
        "# a comment\n"
        "def f(x):  # code with a comment\n"
        "    '''Docstring.'''\n"
        "    text = '''a string\n"
        "that is not a docstring'''\n"
        "    return (x,\n"
        "            text)\n",
        encoding="utf-8",
    )
    assert code_lines.code_lines(source) == 5
