"""The import graph keeps oracles and validators apart from what they check,
every module imports at its top, only what it uses, and every name the
benchmark wraps is still bound where it looks it up."""

import ast
import importlib
from pathlib import Path

import pytest

import cyclecert

PACKAGE = Path(cyclecert.__file__).parent

# module -> package modules it must not import, at top level or inside a function
FORBIDDEN = {
    "oracles": {"peeling", "rainbow", "harness", "cli"},
    "certificates": {"oracles", "peeling", "rainbow", "harness", "cli"},
    "peeling": {"oracles", "rainbow", "harness"},
}


def package_imports(path):
    """Names of the cyclecert modules that the module at path imports."""
    found = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.ImportFrom):
            if node.level == 1 and node.module:
                found.add(node.module.split(".")[0])
            elif node.level == 1:
                found.update(a.name for a in node.names)
            elif node.level == 0 and (node.module or "").startswith("cyclecert."):
                found.add(node.module.split(".")[1])
        elif isinstance(node, ast.Import):
            for a in node.names:
                if a.name.startswith("cyclecert."):
                    found.add(a.name.split(".")[1])
    return found


@pytest.mark.parametrize("module", sorted(FORBIDDEN))
def test_layering(module):
    assert not package_imports(PACKAGE / f"{module}.py") & FORBIDDEN[module]


def test_scanner_sees_lazy_and_absolute_imports(tmp_path):
    src = tmp_path / "m.py"
    src.write_text(
        "from .digraph import bits\n"
        "def f():\n"
        "    from .oracles import _girth_masks\n"
        "    from . import rainbow\n"
        "    import cyclecert.harness\n"
    )
    assert package_imports(src) == {"digraph", "oracles", "rainbow", "harness"}


MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.stem != "__init__")


def imported_names(tree):
    """The names a module's imports bind, except __future__ features."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module != "__future__":
            yield from (a.asname or a.name for a in node.names)
        elif isinstance(node, ast.Import):
            yield from (a.asname or a.name.split(".")[0] for a in node.names)


def lazy_imports(tree):
    """The modules imported inside a function body, as written after the dots."""
    found = set()
    for fn in ast.walk(tree):
        if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            for node in ast.walk(fn):
                if isinstance(node, ast.ImportFrom):
                    found.add(node.module or "")
                elif isinstance(node, ast.Import):
                    found.update(a.name for a in node.names)
    return found


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.stem)
def test_every_import_is_used(path):
    tree = ast.parse(path.read_text())
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    assert [name for name in imported_names(tree) if name not in used] == []


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.stem)
def test_imports_are_at_module_top(path):
    assert lazy_imports(ast.parse(path.read_text())) == set()


def test_scanners_see_unused_and_lazy_imports():
    tree = ast.parse(
        "from __future__ import annotations\n"
        "import os.path\n"
        "from typing import Any, Iterator as It\n"
        "x: Any = os.sep\n"
        "def f():\n"
        "    from .formats import format_digraph\n"
        "    import json\n"
    )
    assert list(imported_names(tree)) == ["os", "Any", "It", "format_digraph", "json"]
    assert lazy_imports(tree) == {"formats", "json"}


PERFBENCH_RUN = Path(__file__).resolve().parents[1] / "perfbench" / "run.py"


def perfbench_targets():
    """The (module, attr) pairs of perfbench's TARGETS, read from its source."""
    (node,) = [
        node
        for node in ast.parse(PERFBENCH_RUN.read_text()).body
        if isinstance(node, ast.Assign)
        and [t.id for t in node.targets if isinstance(t, ast.Name)] == ["TARGETS"]
    ]
    return [tuple(ast.literal_eval(a) for a in call.args[:2]) for call in node.value.elts]


def test_perfbench_targets_resolve():
    # perfbench wraps these by name from outside the package; a binding
    # dropped in a refactor would otherwise fail only its self-test.
    targets = perfbench_targets()
    assert len(targets) > 10 and ("cyclecert.harness", "run_suite") in targets
    missing = []
    for module, attr in targets:
        owner = importlib.import_module(module)
        for part in attr.split("."):
            owner = getattr(owner, part, None)
        if owner is None:
            missing.append(f"{module}.{attr}")
    assert missing == []
