"""Every exported name resolves, modules import no private names from each
other, and importing the package pulls in no SciPy."""

import ast
import importlib
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
