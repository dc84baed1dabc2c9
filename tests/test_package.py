"""The public surface of the birkhoff package."""

import ast
import builtins
import dataclasses
import os
import re
import sys
import types
from pathlib import Path

import numpy as np

import birkhoff
from birkhoff import cli


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


def test_every_dataclass_field_is_read_by_package_code(monkeypatch, capsys):
    # a field that no package code reads, or only the instance's own
    # __post_init__, echoes an input its caller already holds; each field of
    # a public dataclass must be read on some library or CLI path below
    package = os.path.dirname(birkhoff.__file__)
    classes = [v for v in map(vars(birkhoff).get, birkhoff.__all__) if dataclasses.is_dataclass(v)]
    read = set()

    def spy(self, name):
        caller = sys._getframe(1)
        if os.path.dirname(caller.f_code.co_filename) == package and not (
            caller.f_code.co_name == "__post_init__" and caller.f_locals.get("self") is self
        ):
            read.add((type(self), name))
        return object.__getattribute__(self, name)

    for cls in classes:
        monkeypatch.setattr(cls, "__getattribute__", spy)
    system, alpha, z0 = birkhoff.oscillator_system(0.5), birkhoff.oscillator_alpha(0.5), [1.0, 0.0]
    for order in (1, 2):
        birkhoff.integrate(system, birkhoff.make_scheme(system, alpha, 0.0, order), z0, 0.0, 0.1, 1)
    derived = dataclasses.replace(system, K=None, D=None)
    birkhoff.step(derived, birkhoff.make_scheme(derived, alpha, 0.0, 1), np.array(z0), 0.0, 0.1)
    for argv in (
        ["integrate", "--steps", "2"],
        ["check", "--perturb", "0.1", "--samples", "3"],
        ["reconstruct"],
        ["convergence", "--scheme", "closed-first"],
    ):
        cli.main(argv)
    capsys.readouterr()
    unread = [
        f"{cls.__name__}.{field.name}"
        for cls in classes
        for field in dataclasses.fields(cls)
        if (cls, field.name) not in read
    ]
    assert not unread, f"dataclass fields no package code reads: {unread}"


def test_readme_names_only_exported_classes_and_errors():
    # a class or error the package drops must leave README with it: every
    # backticked CamelCase name, and every name ending in Error or Failure,
    # must be a public name of the package or a Python builtin
    root = Path(__file__).resolve().parents[1]
    readme = (root / "README.md").read_text(encoding="utf-8")
    camel, error = r"[A-Z][a-z0-9]+(?:[A-Z][A-Za-z0-9]*)+", r"[A-Za-z_]\w*(?:Error|Failure)"
    pattern = re.compile(rf"\b(?:{camel}|{error})\b")
    names = {name for span in re.findall(r"`([^`\n]+)`", readme) for name in pattern.findall(span)}
    unknown = sorted(n for n in names if n not in birkhoff.__all__ and not hasattr(builtins, n))
    assert not unknown, f"README names what the package does not export: {unknown}"


def test_the_nonsingularity_gate_makes_every_linear_algebra_call():
    # core._det_gate decides whether a matrix is singular and inverts the
    # ones that pass; every solve multiplies by that inverse.  Any other
    # LAPACK call in the package (a solve, or a handler for its
    # LinAlgError) would be a second singularity policy.  norm is exempt
    package = Path(birkhoff.__file__).parent
    found = []
    for path in sorted(package.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        gate = set()
        if path.name == "core.py":
            [fn] = [n for n in tree.body if getattr(n, "name", None) == "_det_gate"]
            gate = set(map(id, ast.walk(fn)))
        for node in ast.walk(tree):
            where = f"{path.relative_to(package)}:{getattr(node, 'lineno', '?')}"
            names = {getattr(node, "id", None), getattr(node, "attr", None)}
            if "LinAlgError" in names:
                found.append(f"{where} LinAlgError")
            elif (
                isinstance(node, ast.Attribute)
                and getattr(node.value, "attr", None) == "linalg"
                and node.attr != "norm"
                and id(node) not in gate
            ):
                found.append(f"{where} linalg.{node.attr}")
            elif isinstance(node, ast.ImportFrom) and (
                "linalg" in (node.module or "") or "linalg" in [a.name for a in node.names]
            ):
                found.append(f"{where} import of linalg")
    assert not found, f"linear algebra outside core._det_gate: {found}"
