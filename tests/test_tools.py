"""The code-line counter in tools/count_code_lines.py."""

import importlib.util
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parents[1] / "tools" / "count_code_lines.py"
_SPEC = importlib.util.spec_from_file_location("count_code_lines", _PATH)
count_code_lines = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(count_code_lines)

SOURCE = '''"""Module docstring,
over two lines."""

import math  # a trailing comment keeps the line


# a comment line
class Shape:
    """Class docstring."""

    sides = 0


def area(r):
    """Function docstring,

    over three lines.
    """
    value = (
        math.pi
        * r
        * r
    )
    return value


async def later():
    """Coroutine docstring."""
    text = """a string that is
    no docstring"""
    return text
'''


def test_code_lines_skip_blanks_comments_and_docstrings():
    # import, class, sides, def, the five lines of the value statement,
    # return, async def, the two lines of the string and return: 14
    assert count_code_lines.code_lines(SOURCE) == 14


@pytest.mark.parametrize(
    "source, expected",
    [
        ("", 0),
        ("# only a comment\n\n", 0),
        ('"""Only a docstring."""\n', 0),
        ("x = [\n    1,\n\n    2,\n]\n", 4),
        ('x = 1\n"""A bare string after code is no docstring."""\n', 2),
    ],
    ids=["empty", "comment", "docstring", "blank-inside-statement", "late-string"],
)
def test_code_lines_small_cases(source, expected):
    assert count_code_lines.code_lines(source) == expected


def test_default_package_does_not_depend_on_the_working_directory(monkeypatch, capsys, tmp_path):
    monkeypatch.chdir(_PATH.parents[1])
    assert count_code_lines.main(["count_code_lines.py"]) == 0
    from_root = capsys.readouterr().out
    monkeypatch.chdir(tmp_path)
    assert count_code_lines.main(["count_code_lines.py"]) == 0
    elsewhere = capsys.readouterr().out
    assert elsewhere == from_root
    total = int(from_root.splitlines()[-1].split()[0])
    assert total > 0


def test_directory_without_modules_is_an_error(capsys, tmp_path):
    assert count_code_lines.main(["count_code_lines.py", str(tmp_path)]) != 0
    captured = capsys.readouterr()
    assert "total" not in captured.out
    assert "no *.py modules" in captured.err
