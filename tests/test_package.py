"""The public surface of the birkhoff package."""

import ast
import types
from pathlib import Path

import birkhoff


def test_all_is_sorted_unique_and_names_every_public_binding():
    # each public name is written twice in __init__, once imported and once
    # in __all__; this fails as soon as the two lists drift apart
    names = birkhoff.__all__
    assert names == sorted(names)
    assert len(set(names)) == len(names)
    public = {
        name
        for name, value in vars(birkhoff).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert set(names) == public


def test_every_public_name_has_a_caller_beyond_the_unit_tests():
    # a public helper that only its own unit tests call repeats a path the
    # package already has; hj_rhs is exempt as the oracle tests check against
    root = Path(__file__).resolve().parents[1]
    files = [p for p in (root / "src" / "birkhoff").glob("*.py") if p.name != "__init__.py"]
    files += [*(root / "bench").glob("*.py"), root / "tests" / "test_acceptance.py"]
    used = set()
    for path in files:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif isinstance(node, ast.alias):
                used.add(node.name)
    unused = set(birkhoff.__all__) - used - {"hj_rhs"}
    assert not unused, f"public names with no caller outside the unit tests: {sorted(unused)}"
