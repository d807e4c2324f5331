"""The import graph keeps oracles and validators apart from what they check."""

import ast
from pathlib import Path

import pytest

import cyclecert

PACKAGE = Path(cyclecert.__file__).parent

# module -> package modules it must not import, at top level or inside a function
FORBIDDEN = {
    "oracles": {"peeling", "rainbow", "harness", "cli"},
    "certificates": {"peeling", "rainbow", "harness", "cli"},
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

