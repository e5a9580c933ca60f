"""The contract between the package and bench/tracing.py's hooks.

The bench wraps public functions by name; a renamed function, or a sweep
that reaches run_experiment by a reference the tracer cannot swap, would
silently drop spans and counters from every traced bench line.
"""

import importlib.util
import sys
from pathlib import Path

import ofdma_underlay.harness as harness
from ofdma_underlay.presets import imperfect_benchmark

SCRIPT = Path(__file__).resolve().parent.parent / "bench" / "tracing.py"
spec = importlib.util.spec_from_file_location("bench_tracing", SCRIPT)
tracing = importlib.util.module_from_spec(spec)
spec.loader.exec_module(tracing)


def _hooked(module_name, attr):
    owner = sys.modules[module_name]
    for part in attr.split("."):
        owner = getattr(owner, part)
    return owner


def _bindings():
    """Every package-module attribute and the hooked method, by identity."""
    held = {(name, key): value for name, module in sorted(sys.modules.items())
            if name.startswith("ofdma_underlay") for key, value in vars(module).items()}
    for module_name, attr, *_ in tracing.HOOKS:
        held[(module_name, attr)] = _hooked(module_name, attr)
    return held


def test_every_hook_names_a_package_callable():
    for module_name, attr, *_ in tracing.HOOKS:
        assert module_name.startswith("ofdma_underlay.")
        assert callable(_hooked(module_name, attr)), (module_name, attr)


def test_sweep_points_are_traced_and_uninstall_restores():
    before = _bindings()
    tracer = tracing.Tracer()
    tracer.install()
    try:
        cfg = imperfect_benchmark(num_subcarriers=16)
        # through the module, as the bench calls it: the tracer swaps module globals
        harness.sweep(cfg, "epsilon", [0.05, 0.1], 30, audit_states=2,
                      audit_samples=1000, threads=1)
    finally:
        tracer.uninstall()
    names = [name for name, *_ in tracer.spans]
    assert names.count("harness.sweep") == 1
    root = names.index("harness.sweep")
    points = [span for span in tracer.spans if span[0] == "harness.run_experiment"]
    assert len(points) == 2
    assert all(parent == root for *_, parent in points)
    assert tracer.counts["harness.audit_draws"] == 4000
    after = _bindings()
    assert after.keys() == before.keys()
    assert [key for key in before if after[key] is not before[key]] == []
