"""Guard for the benchmark harness in ``perfbench/``: it must keep importing.

The harness lives outside the package and reads library names directly
(the engine's kernel-choice stand-ins, its cache dicts, the entry points
it wraps for per-layer tracing).  A library change that drops one of them
would only surface when the benchmark runs; this test loads the harness
by path, without running a workload, so it fails in the tier-1 suite
instead.
"""

from __future__ import annotations

import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
HARNESS_MODULES = ("hostprobe", "workloads", "spans", "run")


@pytest.fixture()
def harness(monkeypatch):
    """``perfbench``'s modules, loaded by path with ``perfbench/`` importable."""
    monkeypatch.syspath_prepend(str(PERFBENCH))
    saved = {name: sys.modules.pop(name) for name in HARNESS_MODULES if name in sys.modules}
    loaded = {}
    try:
        for name in HARNESS_MODULES:
            spec = importlib.util.spec_from_file_location(name, PERFBENCH / f"{name}.py")
            module = importlib.util.module_from_spec(spec)
            sys.modules[name] = module
            spec.loader.exec_module(module)
            loaded[name] = module
        yield loaded
    finally:
        for name in HARNESS_MODULES:
            sys.modules.pop(name, None)
        sys.modules.update(saved)


def test_environment_and_cache_reset_run(harness):
    env = harness["run"]._environment()
    assert {"REPRO_SIM_KERNEL", "kernel", "numpy", "scipy"} <= set(env)
    harness["workloads"].forget_process_caches()


def test_every_traced_entry_point_resolves(harness):
    for layer, module_name, qualname in harness["spans"].ENTRY_POINTS:
        target = importlib.import_module(module_name)
        for part in qualname.split("."):
            target = getattr(target, part)
        assert callable(target), (layer, module_name, qualname)
