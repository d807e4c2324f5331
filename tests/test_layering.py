"""The import graph keeps oracles and validators apart from what they check
and the leaf modules below what uses them, every module imports at its
top, only what it uses, the unchecked quotient constructor has one
caller, and every name the benchmark wraps is still
bound where it looks it up.  No module loads the
dataclasses machinery, and the records written without it keep their
fields, defaults, equality, hashing and immutability."""

import ast
import importlib
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import cyclecert
from cyclecert.certificates import CycleCertificate, RainbowCycleCertificate
from cyclecert.digraph import Digraph
from cyclecert.harness import Report, SuiteConfig, _Accum, _RainbowRun
from cyclecert.oracles import TwoCyclePair
from cyclecert.peeling import PeelingTrace
from cyclecert.rainbow import ContractionMap, GreedySubgraph

PACKAGE = Path(cyclecert.__file__).parent

ALL_BUT_ERRORS = {p.stem for p in PACKAGE.glob("*.py")} - {"errors"}

# module -> package modules it must not import, at top level or inside a function
FORBIDDEN = {
    "oracles": {"peeling", "rainbow", "harness", "cli"},
    "certificates": {"oracles", "peeling", "rainbow", "harness", "cli"},
    "peeling": {"oracles", "rainbow", "harness"},
    "rainbow": {"peeling", "harness", "cli"},
    "families": ALL_BUT_ERRORS,
    "digraph": ALL_BUT_ERRORS,
    "formats": {"oracles", "peeling", "rainbow", "harness", "cli"},
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


def attribute_uses(attr):
    """(module, function) for each use of .attr in the package, the
    function being the innermost def around it, or None at module level."""
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text())
        owner = {}
        for fn in ast.walk(tree):
            if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                for node in ast.walk(fn):
                    owner[node] = fn.name  # inner defs are walked later
        found += [
            (path.stem, owner.get(node))
            for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and node.attr == attr
        ]
    return found


def test_the_quotient_constructor_has_one_caller():
    # RainbowInstance._quotient checks nothing: only contract, which
    # orders the families and range-checks the map first, may call it.
    assert attribute_uses("_quotient") == [("rainbow", "contract")]
    # The scan sees uses inside methods, stores among them.
    assert ("families", "__init__") in attribute_uses("simple_origin")


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


def imported_modules(tree):
    """The top-level names of the modules a module imports, absolute
    imports only."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module.split(".")[0]
        elif isinstance(node, ast.Import):
            yield from (a.name.split(".")[0] for a in node.names)


def test_imported_modules_sees_every_spelling():
    tree = ast.parse(
        "import dataclasses as dc\n"
        "from dataclasses import field\n"
        "from .formats import format_digraph\n"
        "import os.path\n"
    )
    assert list(imported_modules(tree)) == ["dataclasses", "dataclasses", "os"]


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.stem)
def test_no_module_imports_dataclasses(path):
    # Importing dataclasses also loads inspect, dis and tokenize, and each
    # decorator execs its generated methods: about 12 ms of every process's
    # set-up, for records a NamedTuple or a __slots__ class gives as well.
    assert "dataclasses" not in set(imported_modules(ast.parse(path.read_text())))


@pytest.mark.parametrize("module", ["cyclecert.harness", "cyclecert.cli"])
def test_import_loads_no_dataclasses_or_inspect(module):
    # Only what the import itself loads counts, not what site loaded first.
    code = (
        "import sys\n"
        "before = set(sys.modules)\n"
        f"import {module}\n"
        "print(sorted({'dataclasses', 'inspect'} & (set(sys.modules) - before)))\n"
    )
    env = dict(os.environ, PYTHONPATH=str(PACKAGE.parent))
    done = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout == "[]\n"


CERT = CycleCertificate((0, 1), Fraction(2), "exact-length")

# Each immutable record with positional arguments for its fields, in order.
FROZEN = [
    (SuiteConfig, {
        "n_lo": 1, "n_hi": 3, "generator": "labeled", "checks": ("two-phi",), "dmin": 1,
        "dmax": 2, "count": 100, "workers": 1, "seed": 0,
    }),
    (CycleCertificate, {"vertices": (0, 1), "bound": Fraction(2), "bound_kind": "exact-length"}),
    (RainbowCycleCertificate, {"steps": (((0, 1), 0), ((0, 1), 1))}),
    (TwoCyclePair, {"c1": CERT, "c2": CERT, "intersection": (0, 1), "p": 0}),
    (PeelingTrace, {
        "initial_phi": Fraction(1), "steps": (), "terminal": Digraph(2, [(0, 1), (1, 0)]),
        "terminal_vertices": (0, 1), "certificate": CERT,
    }),
    (ContractionMap, {
        "old_to_new": (0, 0, 1), "h": 0, "family_map": (1, 2),
        "parent_edges": (((1, 2),), ((0, 2),)),
    }),
    (GreedySubgraph, {"seed_color": 0, "seed_edge": (0, 1), "attachments": ((2, 0, 1, 1),)}),
    (_RainbowRun, {"n": 4, "base": 16, "insts": (), "built": ()}),
]


@pytest.mark.parametrize("cls, fields", FROZEN, ids=[cls.__name__ for cls, _ in FROZEN])
def test_frozen_records(cls, fields):
    a, b = cls(*fields.values()), cls(**fields)
    assert [getattr(a, f) for f in fields] == list(fields.values())
    assert a == b and hash(a) == hash(b)
    for f, value in fields.items():
        with pytest.raises(AttributeError):
            setattr(a, f, value)
    assert [getattr(a, f) for f in fields] == list(fields.values())


def test_suite_config_defaults():
    cfg = SuiteConfig(1, 3, "labeled", ("two-phi",))
    assert cfg == SuiteConfig(1, 3, "labeled", ("two-phi",), 1, 2, 100, 1, 0)
    assert (cfg.dmin, cfg.dmax, cfg.count, cfg.workers, cfg.seed) == (1, 2, 100, 1, 0)
    assert cfg != SuiteConfig(1, 3, "labeled", ("two-phi",), seed=1)


def test_greedy_subgraph_refuses_every_attribute():
    h = GreedySubgraph(0, (0, 1), ((2, 0, 1, 1),))
    for name in ("vertices", "colors", "incident", "_edges", "_turns", "t", "other"):
        with pytest.raises(AttributeError):
            setattr(h, name, None)
    with pytest.raises(AttributeError):
        del h.seed_color
    assert h != GreedySubgraph(0, (0, 1), ())


def test_mutable_records():
    rep = Report({"generator": "labeled"})
    assert (rep.instances_generated, rep.checked, rep.passed) == (0, {}, {})
    assert (rep.violations, rep.findings, rep.extremal) == ([], [], {})
    other = Report({"generator": "labeled"})
    assert rep == other and rep.checked is not other.checked
    other.instances_generated = 1
    assert rep != other and Report.__hash__ is None

    acc = _Accum(())
    assert [getattr(acc, k) for k in _Accum.__slots__] == [(), 0, 0, {}, [], [], None, 0, [], {}]
    assert _Accum(()).failed is not acc.failed
    assert not any(hasattr(obj, "__dict__") for obj in (rep, acc))


def test_rainbow_run_keeps_every_instance():
    run = _RainbowRun(4, 16, [], [])
    assert (run.n, run.base, run.insts, run.built, run.kept) == (4, 16, [], [], range(0))
    assert _RainbowRun(4, 16, [None] * 3, []).kept == range(3)
    assert not hasattr(run, "__dict__")
