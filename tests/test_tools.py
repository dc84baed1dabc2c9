"""The scripts in tools/: the code-line counter and the summary of benchmark pairs."""

import importlib.util
from pathlib import Path

import pytest

_TOOLS = Path(__file__).resolve().parents[1] / "tools"
_PATH = _TOOLS / "count_code_lines.py"


def _load(name):
    spec = importlib.util.spec_from_file_location(name, _TOOLS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


count_code_lines = _load("count_code_lines")
ab_pairs = _load("ab_pairs")

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


METRICS = [
    {"name": "op_cost_rel", "unit": "kernel", "better": "lower", "bound": 0.25},
    {"name": "throughput_rel", "unit": "op/kernel", "better": "higher", "bound": 0.2},
]


def test_pair_summary_medians_iqr_and_wins():
    parent = [1.0, 2.0, 3.0, 4.0, 5.0]
    change = [0.5, 2.0, 3.5, 1.0, 1.0]
    def run(cost):
        return {"op_cost_rel": cost, "throughput_rel": 1.0 / cost}

    pairs = [(run(p), run(c)) for p, c in zip(parent, change)]
    cost, throughput = ab_pairs.summarize(pairs, METRICS)
    # inclusive quartiles of 1..5 are 2 and 4; the tie at 2.0 counts for
    # neither side, 3.5 against 3.0 for the parent
    assert cost == ("op_cost_rel", "kernel", 3.0, 1.0, 2.0, 3)
    name, unit, parent_median, change_median, iqr, wins = throughput
    assert (name, unit, wins) == ("throughput_rel", "op/kernel", 3)
    assert (parent_median, change_median) == (1.0 / 3.0, 1.0)
    assert iqr == pytest.approx(0.5 - 0.25)


def test_pair_summary_of_one_pair_has_no_spread():
    rows = ab_pairs.summarize([({"op_cost_rel": 2.0}, {"op_cost_rel": 1.5})], METRICS[:1])
    assert rows == [("op_cost_rel", "kernel", 2.0, 1.5, 0.0, 1)]
    table = ab_pairs.format_rows(rows, 1)
    assert table.splitlines()[1].split() == ["op_cost_rel", "kernel", "2", "1.5", "0", "1/1"]
