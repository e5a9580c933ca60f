"""Every exported name resolves: no ``__all__`` entry outlives its definition."""

import importlib
import pkgutil

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
