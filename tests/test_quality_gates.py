"""Repository quality gates: documentation and API hygiene."""

from __future__ import annotations

import ast
import importlib
import pathlib

import pytest

SRC = pathlib.Path(__file__).parent.parent / "src" / "repro"

MODULES = sorted(
    str(p.relative_to(SRC.parent)).replace("/", ".").removesuffix(".py")
    for p in SRC.rglob("*.py")
    if p.name != "__init__.py"
)


@pytest.mark.parametrize("module_path", sorted(SRC.rglob("*.py"),
                                               key=lambda p: str(p)))
def test_every_module_has_a_docstring(module_path):
    tree = ast.parse(module_path.read_text())
    assert ast.get_docstring(tree), f"{module_path} lacks a module docstring"


@pytest.mark.parametrize("module_name", MODULES)
def test_every_module_imports_cleanly(module_name):
    try:
        importlib.import_module(module_name)
    except ImportError as exc:
        if "numpy" in str(exc).lower():
            pytest.skip(f"optional dependency unavailable: {exc}")
        raise


def test_public_classes_and_functions_documented():
    """Every public (non-underscore) top-level class/function in the
    package has a docstring."""
    undocumented = []
    for module_path in SRC.rglob("*.py"):
        tree = ast.parse(module_path.read_text())
        for node in tree.body:
            if isinstance(node, (ast.ClassDef, ast.FunctionDef,
                                 ast.AsyncFunctionDef)):
                if node.name.startswith("_"):
                    continue
                if not ast.get_docstring(node):
                    undocumented.append(f"{module_path.name}:{node.name}")
    assert not undocumented, f"undocumented public items: {undocumented}"


def test_all_exports_resolve():
    import repro

    for name in repro.__all__:
        assert hasattr(repro, name), name


def test_no_print_in_library_code():
    """The library proper is silent; printing belongs to the CLI, the
    validation report helpers, the service front ends (serve/fleet and
    the chaos harness are command-line entry points), and the
    bench/example layers."""
    allowed = {"cli.py", "report.py", "server.py", "chaos.py",
               "fleet.py", "router.py"}
    offenders = []
    for module_path in SRC.rglob("*.py"):
        if module_path.name in allowed:
            continue
        tree = ast.parse(module_path.read_text())
        for node in ast.walk(tree):
            if (isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Name)
                    and node.func.id == "print"):
                offenders.append(f"{module_path.name}:{node.lineno}")
    assert not offenders, f"print() in library code: {offenders}"