"""Per-layer tracing for the benchmark, installed from outside the library.

:class:`Tracer` wraps the public entry point of each pipeline layer at
every name a caller resolves it through: the defining module's attribute,
every already-imported ``repro`` module that bound the same function with
``from ... import``, or the class attribute for methods.  Function-local
imports read the defining module at call time, so they see the wrapper
too.  Nothing under ``src/`` changes.

Spans nest on one stack.  A span's *self* time is its duration minus the
time its child spans cover, so the per-layer self times of a traced
iteration are exclusive and sum to at most its wall time.  A layer entered
again while it is already the innermost span (a ``build`` calling
``super().build``, ``simulate_all_pairs`` calling ``execute_program``) is
folded into the open span, so each logical call counts once.

Spans are aggregated in memory as they close (calls, self time and the
layer's own counters); nothing is written until the run ends.
:meth:`Tracer.uninstall` puts every original back, so traced and untraced
iterations can alternate in one process.
"""

from __future__ import annotations

import functools
import importlib
import pkgutil
import sys
import time
from collections import Counter
from typing import Callable, List, Optional

import numpy as np

#: Every layer the traced run reports, in report order.
LAYERS = (
    "routing.build",
    "routing.program.lower",
    "graphs.distance_matrix",
    "store.put",
    "store.get",
    "routing.verify",
    "sim.engine.execute",
    "sim.faults.apply_faults",
    "sim.faults.simulate",
    "stretch",
    "analysis.flow.demand",
    "analysis.flow.route",
    "routing.program.apply_delta",
    "sim.faults.surviving_distance",
)

#: ``(layer, module, qualified name)`` of each wrapped entry point.  A
#: dotted name is a method, wrapped on its class (and on every subclass
#: that overrides it, for ``build``).
ENTRY_POINTS = (
    ("routing.build", "repro.routing.model", "BaseRoutingScheme.build"),
    ("routing.program.lower", "repro.routing.program", "lower"),
    ("graphs.distance_matrix", "repro.graphs.shortest_paths", "distance_matrix"),
    ("store.put", "repro.store", "ProgramStore.put"),
    ("store.get", "repro.store", "ProgramStore.get"),
    ("routing.verify", "repro.routing.verify", "verify_program"),
    ("sim.engine.execute", "repro.sim.engine", "execute_program"),
    ("sim.engine.execute", "repro.sim.engine", "execute_masked_program"),
    ("sim.engine.execute", "repro.sim.engine", "simulate_all_pairs"),
    ("sim.faults.apply_faults", "repro.sim.faults", "apply_faults"),
    ("sim.faults.simulate", "repro.sim.faults", "simulate_with_faults"),
    ("stretch", "repro.routing.verify", "VerificationReport.stretch"),
    ("stretch", "repro.sim.faults", "FaultSimulationResult.max_stretch"),
    ("stretch", "repro.sim.faults", "FaultSimulationResult.mean_stretch"),
    ("stretch", "repro.sim.engine", "SimulationResult.max_stretch"),
    ("analysis.flow.demand", "repro.analysis.flow", "demand_matrix"),
    ("analysis.flow.demand", "repro.analysis.flow", "uniform_demand"),
    ("analysis.flow.demand", "repro.analysis.flow", "zipf_demand"),
    ("analysis.flow.demand", "repro.analysis.flow", "gravity_demand"),
    ("analysis.flow.route", "repro.analysis.flow", "route_demand"),
    ("routing.program.apply_delta", "repro.routing.program", "apply_delta"),
    ("sim.faults.surviving_distance", "repro.sim.faults", "surviving_distance_matrix"),
)


def import_all_repro() -> None:
    """Import every ``repro`` module so each alias exists before wrapping.

    The scipy modules the library imports inside functions come along, so
    no first iteration pays for them.
    """
    import repro

    for info in pkgutil.walk_packages(repro.__path__, "repro."):
        importlib.import_module(info.name)
    importlib.import_module("scipy.sparse.csgraph")


def _program_bytes(program) -> int:
    """Bytes of a program's transition arrays (``0`` for generic programs)."""
    arrays = [getattr(program, "next_node", None)] + [
        getattr(program, name, None)
        for name in ("succ", "deliver", "node_of", "hops_to_deliver", "initial")
    ]
    return sum(int(a.nbytes) for a in arrays if isinstance(a, np.ndarray))


class Tracer:
    """Span stack plus per-layer totals: calls, self nanoseconds, counters."""

    def __init__(self) -> None:
        self.calls: Counter = Counter()
        self.self_ns: Counter = Counter()
        self.counts: Counter = Counter()
        self._stack: List[list] = []
        self._patches: List[tuple] = []

    # -- spans -----------------------------------------------------------
    def _wrap(self, layer: str, fn: Callable, observe: Optional[Callable]) -> Callable:
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = tracer._stack
            if stack and stack[-1][0] == layer:
                return fn(*args, **kwargs)
            frame = [layer, time.perf_counter_ns(), 0]
            stack.append(frame)
            error: Optional[BaseException] = None
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as exc:
                error = exc
                raise
            finally:
                stack.pop()
                duration = time.perf_counter_ns() - frame[1]
                tracer.calls[layer] += 1
                tracer.self_ns[layer] += duration - frame[2]
                if stack:
                    stack[-1][2] += duration
                if observe is not None:
                    observe(tracer.counts, args, kwargs, result, error)

        return wrapper

    # -- installation ----------------------------------------------------
    def install(self) -> None:
        """Wrap every entry point at each name callers resolve."""
        import_all_repro()
        for layer, module_name, qualname in ENTRY_POINTS:
            module = sys.modules[module_name]
            observe = _OBSERVERS.get((layer, qualname))
            if "." in qualname:
                self._install_method(layer, module, qualname, observe)
            else:
                self._install_function(layer, module, qualname, observe)

    def uninstall(self) -> None:
        """Put back every original :meth:`install` replaced."""
        while self._patches:
            target, attr, original = self._patches.pop()
            setattr(target, attr, original)

    def _patch(self, target, attr: str, value) -> None:
        self._patches.append((target, attr, vars(target)[attr]))
        setattr(target, attr, value)

    def _install_function(self, layer, module, name, observe) -> None:
        original = getattr(module, name)
        wrapper = self._wrap(layer, original, observe)
        for mod_name, mod in list(sys.modules.items()):
            if mod_name != "repro" and not mod_name.startswith("repro."):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._patch(mod, attr, wrapper)

    def _install_method(self, layer, module, qualname, observe) -> None:
        class_name, method = qualname.split(".")
        base = getattr(module, class_name)
        classes = [base] + _subclasses(base) if method == "build" else [base]
        for cls in classes:
            if method in vars(cls):
                self._patch(cls, method, self._wrap(layer, vars(cls)[method], observe))


def _subclasses(cls) -> list:
    found = []
    for sub in cls.__subclasses__():
        found.append(sub)
        found.extend(_subclasses(sub))
    return found


# ----------------------------------------------------------------------
# per-layer counters, read off each call's arguments and result
# ----------------------------------------------------------------------
def _observe_build(counts, args, kwargs, result, error) -> None:
    if isinstance(error, ValueError):
        counts["routing.build.refusals"] += 1


def _observe_lower(counts, args, kwargs, result, error) -> None:
    if result is None:
        return
    counts["routing.program.lower.bytes"] += _program_bytes(result)
    counts["routing.program.lower.header_states"] += int(
        getattr(result, "num_states", 0) if result.kind == "header-state" else 0
    )


def _observe_put(counts, args, kwargs, result, error) -> None:
    if result is not None and result.nbytes is not None:
        counts["store.put.bytes"] += int(result.nbytes)


def _observe_get(counts, args, kwargs, result, error) -> None:
    if result is not None and result[0]:
        counts["store.get.hits"] += 1


def _observe_verify(counts, args, kwargs, result, error) -> None:
    if result is not None:
        counts["routing.verify.pairs"] += result.n * (result.n - 1)


def _observe_execute(counts, args, kwargs, result, error) -> None:
    if result is None:
        return
    lengths = np.asarray(result.lengths)
    counts["sim.engine.execute.pair_hops"] += int(lengths[lengths > 0].sum())


def _observe_route(counts, args, kwargs, result, error) -> None:
    if result is not None and result.mode == "walk":
        counts["analysis.flow.route.walks"] += 1


def _observe_delta(counts, args, kwargs, result, error) -> None:
    if result is None:
        return
    if result.mode == "patched":
        counts["routing.program.apply_delta.patched"] += 1
        counts["routing.program.apply_delta.dirty_entries"] += result.dirty_entries


_OBSERVERS = {
    ("routing.build", "BaseRoutingScheme.build"): _observe_build,
    ("routing.program.lower", "lower"): _observe_lower,
    ("store.put", "ProgramStore.put"): _observe_put,
    ("store.get", "ProgramStore.get"): _observe_get,
    ("routing.verify", "verify_program"): _observe_verify,
    ("sim.engine.execute", "execute_program"): _observe_execute,
    ("sim.engine.execute", "execute_masked_program"): _observe_execute,
    ("sim.engine.execute", "simulate_all_pairs"): _observe_execute,
    ("analysis.flow.route", "route_demand"): _observe_route,
    ("routing.program.apply_delta", "apply_delta"): _observe_delta,
}
