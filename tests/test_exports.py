"""Every exported name resolves, modules import no private names from each
other, every import sits at module top in an acyclic graph, and importing
the package pulls in no SciPy."""

import ast
import graphlib
import importlib
import importlib.util
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import ofdma_underlay

MODULES = sorted(info.name for info in pkgutil.iter_modules(ofdma_underlay.__path__))


@pytest.mark.parametrize("name", ["ofdma_underlay"] + ["ofdma_underlay." + m for m in MODULES])
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", [])     # config and errors export by name
    assert len(set(exported)) == len(exported)
    missing = [attr for attr in exported if not hasattr(module, attr)]
    assert missing == []


def test_import_loads_no_scipy():
    # the special functions are numpy code: SciPy stays a test-only dependency
    src = str(Path(ofdma_underlay.__file__).resolve().parents[1])
    probe = ("import sys, ofdma_underlay, ofdma_underlay.cli; "
             "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-c", probe], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "[]"


def test_modules_import_no_private_names_from_each_other():
    # another module's underscore name is its own business; the _special
    # module itself is the package's shared numerics and may be imported
    src = Path(ofdma_underlay.__file__).resolve().parent
    offenders = []
    for path in sorted(src.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not isinstance(node, ast.ImportFrom):
                continue
            inside = node.level > 0 or (node.module or "").startswith("ofdma_underlay")
            for alias in node.names if inside else ():
                if alias.name.startswith("_") and alias.name not in MODULES:
                    offenders.append("%s: %s" % (path.name, alias.name))
    assert offenders == []


def _imported_modules(node) -> set:
    """File stems of the package modules an import statement loads."""
    if isinstance(node, ast.Import):
        names = [alias.name for alias in node.names]
    else:
        base = (importlib.util.resolve_name("." * node.level + (node.module or ""),
                                            "ofdma_underlay") if node.level else node.module)
        names = [base + "." + alias.name if base == "ofdma_underlay" else base
                 for alias in node.names]
    stems = {name.split(".")[1] if "." in name else ""
             for name in names if name.split(".")[0] == "ofdma_underlay"}
    return {stem if stem in MODULES else "__init__" for stem in stems}


def test_modules_import_at_top_level_in_an_acyclic_graph():
    # every import sits at its module's top, and no chain of imports leads
    # back to where it started, so each module loads after those it uses
    src = Path(ofdma_underlay.__file__).resolve().parent
    nested, graph = [], {}
    for path in sorted(src.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        imports = [node for node in ast.walk(tree)
                   if isinstance(node, (ast.Import, ast.ImportFrom))]
        nested += ["%s:%d" % (path.name, node.lineno) for node in imports
                   if node not in tree.body]
        graph[path.stem] = set().union(*map(_imported_modules, imports))
    assert nested == []
    graphlib.TopologicalSorter(graph).prepare()     # raises CycleError naming a cycle
