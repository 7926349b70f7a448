"""Perf-regression micro-benchmarks pinning the enumeration and first-arc engines.

Two jobs:

* **Pin the fast paths.**  ``test_*_fast_path`` benchmark the orbit-pruned
  enumeration, the BFS first-arc oracle and the cached-CSR distance matrix
  under ``pytest-benchmark`` (run with ``--benchmark-only`` for timings
  only), and every pinned path is compared against the recorded snapshot in
  ``BENCH_baseline.json``: a run slower than ``BUDGET_FACTOR`` times the
  snapshot fails.  The factor is deliberately generous — it ignores
  machine-to-machine constant factors and catches *algorithmic* regressions
  (someone reintroducing a Python permutation loop or an exponential DFS).
* **Prove the speedups.**  ``test_*_speedup_vs_seed`` run the seed
  implementations (``enumerate_canonical_matrices_legacy``,
  ``method="enumerate"``, per-pair ``all_pairs_routing_lengths``) against
  the new engines on the same inputs, assert bit-for-bit identical results,
  and assert the speedup floors from the issues: >= 10x for
  ``enumerate_canonical_matrices(3, 4, 3)``-class enumeration, >= 20x for
  the first arcs on a Lemma 2 constraint graph, >= 10x for the batched
  all-pairs routing simulator against legacy per-pair routing on an
  n = 256 random connected graph, >= 5x for the header-compiled
  state-machine path against the generic per-message interpreter on an
  interval-routing scheme over the n = 128 grid, >= 5x for the
  compiled executor (``execute_program``, a view over the static
  verifier) against the dense lockstep oracle of ``tests/dense_oracle.py``
  on the n = 4096 hypercube (plus a measured ``tracemalloc`` peak of at
  most 700 MiB), >= 10x for a zero-copy mmap program load
  against decoding the v1 blob it replaced, >= 5x for an incremental
  churn delta (single-edge flip on the n = 1024 hypercube) against
  recompiling the table program from scratch, >= 5x for the static
  program verifier against the generic per-message interpreter on the
  n = 1024 hypercube table program.  The layered
  subtree-sum load accumulator has an absolute budget on the same
  n = 1024 hypercube program under uniform demand, checked by exact
  conservation identities (plus a warm-cache ``flow_sweep`` smoke over
  three medium families).

Refresh the snapshot after an intentional perf-relevant change with::

    PYTHONPATH=src python benchmarks/bench_perf_regression.py --write-baseline

Record one timestamped point of the performance *trajectory* (what the
scheduled ``bench-trajectory`` workflow runs nightly) with::

    PYTHONPATH=src python benchmarks/bench_perf_regression.py --write-run [PATH]

which re-measures every pinned path, writes ``BENCH_<run>.json`` next to the
baseline (default name from ``GITHUB_RUN_ID``), and exits non-zero when any
path regressed beyond ``BENCH_TRAJECTORY_FACTOR`` (default 10) times its
baseline snapshot.
"""

from __future__ import annotations

import json
import os
import sys
import time
import tracemalloc
from datetime import datetime, timezone
from pathlib import Path

import pytest

import numpy as np

from conftest import print_rows
from repro.analysis.flow import route_demand, uniform_demand
from repro.analysis.runner import ShardedRunner
from repro.constraints.builder import build_constraint_graph
from repro.constraints.enumeration import (
    enumerate_canonical_matrices,
    enumerate_canonical_matrices_legacy,
)
from repro.constraints.matrix import ConstraintMatrix, clear_canonicalisation_cache
from repro.constraints.verifier import forced_first_arcs
from repro.graphs import generators
from repro.graphs.shortest_paths import distance_matrix
from repro.routing.interval import IntervalRoutingScheme
from repro.routing.model import SchemeInapplicableError
from repro.routing.paths import all_pairs_routing_lengths
from repro.routing.program import (
    DELTA_PATCHED,
    NextHopProgram,
    apply_delta,
    compile_scheme_program,
    load_program,
    program_from_bytes,
    save_program,
    transition_dtype,
)
from repro.routing.tables import ShortestPathTableScheme
from repro.routing.verify import verify_program
from repro.sim.engine import execute_program, simulate_all_pairs
from repro.sim.faults import simulate_with_faults, surviving_distance_matrix
from repro.sim.registry import fault_scenarios, graph_families, scheme_registry

# The dense lockstep oracle lives with the tests; appended, so this
# directory's conftest keeps precedence over the tests' one.
sys.path.append(str(Path(__file__).resolve().parents[1] / "tests"))
from dense_oracle import dense_execute  # noqa: E402

BASELINE_PATH = Path(__file__).resolve().parent / "BENCH_baseline.json"

#: A pinned path may be this many times slower than its snapshot before the
#: regression test fails.  Generous on purpose: catches complexity-class
#: regressions, not machine noise.  The snapshot records one machine's
#: timings, so on a much slower host set ``PERF_BUDGET_FACTOR`` (or refresh
#: the snapshot) instead of chasing constant factors.
BUDGET_FACTOR = float(os.environ.get("PERF_BUDGET_FACTOR", "10.0"))

#: Divisor applied to the speedup floors (10x enumeration, 20x first arcs)
#: for noisy hosts; set e.g. PERF_SPEEDUP_MARGIN=2 on a loaded CI runner.
SPEEDUP_MARGIN = float(os.environ.get("PERF_SPEEDUP_MARGIN", "1.0"))

#: The Lemma 2 constraint-graph workload of the first-arc benchmarks.
FIRST_ARC_CASE = dict(p=32, q=60, d=10, seed=3)

#: The enumeration workload named in the issue's acceptance criteria.
ENUMERATION_CASE = dict(p=3, q=4, d=3)

#: The all-pairs routing workload of the simulator benchmarks (the n = 256
#: random connected graph named in the simulator issue's acceptance
#: criteria).
SIMULATOR_CASE = dict(n=256, extra_edge_prob=0.02, seed=5)

#: The header-compiled workload named in the vectorized-header issue's
#: acceptance criteria: an interval-routing scheme at n = 128.  The 8x16
#: grid keeps routes long enough (~8 hops on average) that the per-hop
#: interpretation cost the state machine removes actually dominates.
HEADER_COMPILED_CASE = dict(rows=8, cols=16)

#: The compile-once workload of the program-cache pin: the full scheme
#: registry over six medium registry families (90 grid cells, 62
#: applicable).  A cold sweep pays build+compile+execute per cell (the
#: pre-IR warm re-sweep's cost shape); a warm sweep executes cached
#: program bytes only.
PROGRAM_SWEEP_FAMILIES = (
    "grid",
    "torus",
    "hypercube",
    "random-sparse",
    "random-dense",
    "expander",
)


#: The resilience workload of the fault-injection pin: the full scheme
#: registry over three medium families, each with seeded edge/node failure
#: scenarios.  A warm sweep applies every fault mask to one cached compile
#: per cell; the naive comparator re-builds and re-lowers the scheme for
#: every single scenario (the cost shape without the masked-program view).
RESILIENCE_FAMILIES = ("grid", "torus", "random-sparse")
RESILIENCE_SCENARIOS = dict(edge_ks=(1, 2), node_ks=(1,), per_k=2)

#: The large-n workload of the executor acceptance pin: e-cube
#: (dimension-ordered) routing on the 12-dimensional hypercube, n = 4096 —
#: 16.7M in-flight messages.  Built directly as a next-hop matrix (the
#: generic per-scheme builder is a Python double loop, far too slow at
#: this size to be part of a pinned measurement).
N4096_DIM = 12

#: The dynamic-topology workload of the churn acceptance pin: shortest-path
#: tables on the 10-dimensional hypercube, n = 1024.  The flipped edge is a
#: *removal* — the delta compiler's worst case on a hypercube, where
#: ``|d(u, t) - d(v, t)| == 1`` for every destination ``t`` and therefore
#: every distance column must be rebuilt.
CHURN_FLIP_DIM = 10

#: The traffic workload of the flow-sweep smoke: the full scheme registry
#: over three medium families crossed with every demand skew.  A warm sweep
#: executes cached program bytes and spends its time in the subtree
#: accumulator only.
FLOW_SWEEP_FAMILIES = ("grid", "torus", "random-sparse")


def _hypercube_ecube_program(dim: int = N4096_DIM) -> NextHopProgram:
    n = 1 << dim
    ids = np.arange(n, dtype=np.int64)
    diff = ids[:, None] ^ ids[None, :]
    nxt = ids[:, None] ^ (diff & -diff)  # correct the lowest differing bit
    np.fill_diagonal(nxt, ids)
    return NextHopProgram(next_node=nxt.astype(transition_dtype(n)))


def _program_sweep_grid():
    families = graph_families("medium", seed=0)
    return scheme_registry(seed=0), {
        name: families[name] for name in PROGRAM_SWEEP_FAMILIES
    }


def _flow_sweep_grid():
    families = graph_families("medium", seed=0)
    return scheme_registry(seed=0), {
        name: families[name] for name in FLOW_SWEEP_FAMILIES
    }


def _resilience_grid():
    families = graph_families("medium", seed=0)
    sub = {name: families[name] for name in RESILIENCE_FAMILIES}
    scenarios = {
        name: fault_scenarios(graph, seed=0, **RESILIENCE_SCENARIOS)
        for name, graph in sub.items()
    }
    return scheme_registry(seed=0), sub, scenarios


def _recompile_per_scenario(schemes, families, scenarios):
    """The naive fault sweep: one scheme build + lowering per *scenario*.

    Surviving-graph distances are still hoisted per (family, scenario) —
    even a naive implementation would share those across schemes — so the
    measured gap is attributable to the masked-program reuse alone.
    Returns outcome counts keyed by (scheme, family, scenario) for the
    equality assertion against the warm sweep's cells.
    """
    outcomes = {}
    for family, graph in families.items():
        for label, faults in scenarios[family]:
            dist = surviving_distance_matrix(graph, faults)
            for name, scheme in schemes.items():
                try:
                    program = compile_scheme_program(scheme, graph)
                except SchemeInapplicableError:
                    continue
                rf = None
                if program.kind == "generic":
                    rf = scheme.build(graph.copy())
                result = simulate_with_faults(
                    rf, faults, program=program, graph=graph, dist=dist
                )
                counts = result.counts()
                outcomes[(name, family, label)] = (
                    counts["delivered"],
                    counts["dropped"],
                    counts["livelocked"],
                    counts["misdelivered"],
                )
    return outcomes


def _simulator_routing_function():
    graph = generators.random_connected_graph(**SIMULATOR_CASE)
    return ShortestPathTableScheme().build(graph)


def _interval_routing_function():
    graph = generators.grid_2d(HEADER_COMPILED_CASE["rows"], HEADER_COMPILED_CASE["cols"])
    return IntervalRoutingScheme().build(graph)


def _load_baseline() -> dict:
    with BASELINE_PATH.open() as handle:
        return json.load(handle)


def _check_budget(key: str, measured_s: float) -> None:
    baseline = _load_baseline()["pinned_paths"][key]
    budget = baseline["seconds"] * BUDGET_FACTOR
    print(
        f"\n[perf-regression] {key}: {measured_s:.4f}s "
        f"(snapshot {baseline['seconds']:.4f}s, budget {budget:.4f}s)"
    )
    assert measured_s <= budget, (
        f"{key} took {measured_s:.4f}s, over {BUDGET_FACTOR}x the recorded "
        f"snapshot of {baseline['seconds']:.4f}s — algorithmic regression?"
    )


def _first_arc_graph():
    matrix = ConstraintMatrix.random(**FIRST_ARC_CASE)
    return build_constraint_graph(matrix)


def _time(func, *args, **kwargs):
    start = time.perf_counter()
    result = func(*args, **kwargs)
    return result, time.perf_counter() - start


# ----------------------------------------------------------------------
# pinned fast paths
# ----------------------------------------------------------------------
@pytest.mark.benchmark(group="perf-regression")
def test_enumeration_fast_path(benchmark):
    p, q, d = ENUMERATION_CASE["p"], ENUMERATION_CASE["q"], ENUMERATION_CASE["d"]

    def _run():
        clear_canonicalisation_cache()  # cold canonicalisation every round
        return enumerate_canonical_matrices(p, q, d)

    reps = benchmark.pedantic(_run, rounds=3, iterations=1)
    _check_budget("enumerate_3_4_3", benchmark.stats.stats.median)
    assert len(reps) == 58


@pytest.mark.benchmark(group="perf-regression")
def test_first_arcs_fast_path(benchmark):
    cg = _first_arc_graph()

    def _run():
        return forced_first_arcs(
            cg.graph, cg.constrained, cg.targets, 2.0, strict=True, method="bfs"
        )

    grid = benchmark.pedantic(_run, rounds=3, iterations=1)
    _check_budget("first_arcs_lemma2_p32_q60_d10", benchmark.stats.stats.median)
    # Lemma 2: every pair is forced at stretch < 2.
    assert all(arc is not None for row in grid for arc in row)


@pytest.mark.benchmark(group="perf-regression")
def test_distance_matrix_cached_csr(benchmark):
    graph = generators.random_connected_graph(512, extra_edge_prob=0.01, seed=7)
    distance_matrix(graph, backend="scipy")  # warm the CSR cache

    def _run():
        return distance_matrix(graph, backend="scipy")

    dist = benchmark.pedantic(_run, rounds=3, iterations=1)
    _check_budget("distance_matrix_scipy_n512", benchmark.stats.stats.median)
    assert dist.shape == (512, 512)


@pytest.mark.benchmark(group="perf-regression")
def test_simulator_fast_path(benchmark):
    rf = _simulator_routing_function()
    n = rf.graph.n

    def _run():
        return simulate_all_pairs(rf)

    result = benchmark.pedantic(_run, rounds=3, iterations=1)
    _check_budget("simulate_all_pairs_tables_n256", benchmark.stats.stats.median)
    assert result.all_delivered
    assert result.lengths.shape == (n, n)


@pytest.mark.benchmark(group="perf-regression")
def test_header_compiled_fast_path(benchmark):
    rf = _interval_routing_function()

    def _run():
        return simulate_all_pairs(rf, method="header-compiled")

    result = benchmark.pedantic(_run, rounds=3, iterations=1)
    _check_budget("header_compiled_interval_n128", benchmark.stats.stats.median)
    assert result.mode == "header-compiled"
    assert result.all_delivered


# ----------------------------------------------------------------------
# old-vs-new speedup floors (the issue's acceptance criteria)
# ----------------------------------------------------------------------
@pytest.mark.benchmark(group="perf-regression")
def test_enumeration_speedup_vs_seed(benchmark):
    p, q, d = ENUMERATION_CASE["p"], ENUMERATION_CASE["q"], ENUMERATION_CASE["d"]
    legacy, legacy_s = _time(enumerate_canonical_matrices_legacy, p, q, d)

    def _run():
        clear_canonicalisation_cache()
        return enumerate_canonical_matrices(p, q, d)

    # Median of 3 on the fast side: a single OS-scheduling spike must not
    # flip the floor assertion.
    fast = benchmark.pedantic(_run, rounds=3, iterations=1)
    fast_s = benchmark.stats.stats.median
    speedup = legacy_s / fast_s
    print_rows(
        "Enumeration old-vs-new",
        [{"case": f"({p},{q},{d})", "legacy_s": legacy_s, "fast_s": fast_s, "speedup": speedup}],
    )
    assert [m.entries for m in fast] == [m.entries for m in legacy]
    floor = 10.0 / SPEEDUP_MARGIN
    assert speedup >= floor, f"enumeration speedup {speedup:.1f}x below the {floor:.0f}x floor"


@pytest.mark.benchmark(group="perf-regression")
def test_first_arcs_speedup_vs_seed(benchmark):
    cg = _first_arc_graph()
    legacy, legacy_s = _time(
        forced_first_arcs, cg.graph, cg.constrained, cg.targets, 2.0, strict=True,
        method="enumerate",
    )

    def _run():
        return forced_first_arcs(
            cg.graph, cg.constrained, cg.targets, 2.0, strict=True, method="bfs"
        )

    fast = benchmark.pedantic(_run, rounds=3, iterations=1)
    fast_s = benchmark.stats.stats.median
    speedup = legacy_s / fast_s
    case = FIRST_ARC_CASE
    print_rows(
        "First arcs old-vs-new (Lemma 2 graph)",
        [
            {
                "case": f"p={case['p']} q={case['q']} d={case['d']} n={cg.graph.n}",
                "legacy_s": legacy_s,
                "fast_s": fast_s,
                "speedup": speedup,
            }
        ],
    )
    assert fast == legacy
    floor = 20.0 / SPEEDUP_MARGIN
    assert speedup >= floor, f"first-arc speedup {speedup:.1f}x below the {floor:.0f}x floor"


@pytest.mark.benchmark(group="perf-regression")
def test_simulator_speedup_vs_legacy(benchmark):
    rf = _simulator_routing_function()
    legacy, legacy_s = _time(all_pairs_routing_lengths, rf)

    def _run():
        return simulate_all_pairs(rf)

    result = benchmark.pedantic(_run, rounds=3, iterations=1)
    fast_s = benchmark.stats.stats.median
    speedup = legacy_s / fast_s
    case = SIMULATOR_CASE
    print_rows(
        "All-pairs routing old-vs-new (shortest-path tables)",
        [
            {
                "case": f"n={case['n']} p={case['extra_edge_prob']} seed={case['seed']}",
                "legacy_s": legacy_s,
                "fast_s": fast_s,
                "speedup": speedup,
            }
        ],
    )
    assert np.array_equal(result.require_all_delivered(), legacy)
    floor = 10.0 / SPEEDUP_MARGIN
    assert speedup >= floor, f"simulator speedup {speedup:.1f}x below the {floor:.0f}x floor"


@pytest.mark.benchmark(group="perf-regression")
def test_header_compiled_speedup_vs_generic(benchmark):
    rf = _interval_routing_function()
    generic, generic_s = _time(simulate_all_pairs, rf, method="generic")

    def _run():
        return simulate_all_pairs(rf, method="header-compiled")

    result = benchmark.pedantic(_run, rounds=3, iterations=1)
    fast_s = benchmark.stats.stats.median
    speedup = generic_s / fast_s
    case = HEADER_COMPILED_CASE
    print_rows(
        "Header-compiled vs generic interpreter (interval routing)",
        [
            {
                "case": f"grid {case['rows']}x{case['cols']} (n=128)",
                "generic_s": generic_s,
                "fast_s": fast_s,
                "speedup": speedup,
            }
        ],
    )
    # Bit-for-bit differential equality against the generic interpreter and
    # the legacy per-pair simulator.
    assert np.array_equal(result.lengths, generic.lengths)
    assert np.array_equal(result.delivered, generic.delivered)
    assert np.array_equal(result.misdelivered, generic.misdelivered)
    assert np.array_equal(result.lengths, all_pairs_routing_lengths(rf))
    floor = 5.0 / SPEEDUP_MARGIN
    assert speedup >= floor, (
        f"header-compiled speedup {speedup:.1f}x below the {floor:.0f}x floor"
    )


@pytest.mark.benchmark(group="perf-regression")
def test_program_cache_warm_sweep_vs_build_and_simulate(benchmark, tmp_path):
    # The compile-once acceptance pin: a warm program-cache sweep
    # (compile+execute: cached bytes, no scheme builds) must beat the
    # build+simulate work a cold sweep pays per cell — the cost shape every
    # pre-IR warm re-sweep paid whenever its results were not cell-cached.
    schemes, families = _program_sweep_grid()
    runner = ShardedRunner(cache_dir=tmp_path, processes=1)
    (cold_results, cold_skipped, _), cold_s = _time(
        runner.program_sweep, schemes=schemes, families=families
    )

    def _run():
        return runner.program_sweep(schemes=schemes, families=families)

    results, skipped, stats = benchmark.pedantic(_run, rounds=3, iterations=1)
    warm_s = benchmark.stats.stats.median
    _check_budget("program_sweep_warm_medium", warm_s)
    speedup = cold_s / warm_s
    print_rows(
        "Program sweep: cached compile+execute vs build+simulate",
        [
            {
                "case": f"{len(results)} cells ({len(skipped)} skipped)",
                "build_simulate_s": cold_s,
                "warm_execute_s": warm_s,
                "speedup": speedup,
                "compile_hit_rate": stats.compile_hit_rate,
            }
        ],
    )
    assert results == cold_results and skipped == cold_skipped
    assert all(cell.all_delivered for cell in results)
    # The acceptance criterion: the re-sweep executes cached programs
    # without re-building any scheme (floor pinned in the snapshot).
    hit_rate_floor = _load_baseline()["pinned_paths"]["program_sweep_warm_medium"][
        "compile_hit_rate_floor"
    ]
    assert stats.compile_hit_rate >= hit_rate_floor
    floor = 5.0 / SPEEDUP_MARGIN
    assert speedup >= floor, (
        f"warm program-cache sweep only {speedup:.1f}x faster than "
        f"build+simulate, below the {floor:.0f}x floor"
    )


@pytest.mark.benchmark(group="perf-regression")
def test_resilience_sweep_warm_vs_recompile_per_scenario(benchmark, tmp_path):
    # The fault-injection acceptance pin: a warm resilience sweep (one
    # cached compile per cell, one mask + vectorised execution per fault
    # scenario) must beat the naive shape that re-builds and re-lowers the
    # scheme for every single scenario.
    schemes, families, scenarios = _resilience_grid()
    naive, naive_s = _time(_recompile_per_scenario, schemes, families, scenarios)

    runner = ShardedRunner(cache_dir=tmp_path, processes=1)
    cold_cells, cold_skipped, _ = runner.resilience_sweep(
        schemes=schemes, families=families, scenarios=scenarios
    )

    def _run():
        return runner.resilience_sweep(schemes=schemes, families=families, scenarios=scenarios)

    cells, skipped, stats = benchmark.pedantic(_run, rounds=3, iterations=1)
    warm_s = benchmark.stats.stats.median
    _check_budget("resilience_sweep_warm_medium", warm_s)
    speedup = naive_s / warm_s
    print_rows(
        "Resilience sweep: cached masks vs recompile-per-scenario",
        [
            {
                "case": f"{len(cells)} scenario cells ({len(skipped)} cells skipped)",
                "recompile_s": naive_s,
                "warm_masked_s": warm_s,
                "speedup": speedup,
                "compile_hit_rate": stats.compile_hit_rate,
            }
        ],
    )
    assert cells == cold_cells and skipped == cold_skipped
    # Differential: masked-sweep outcomes == the recompile-per-scenario
    # ground truth, cell for cell.
    sweep_outcomes = {
        (c.scheme, c.family, c.scenario): (c.delivered, c.dropped, c.livelocked, c.misdelivered)
        for c in cells
    }
    assert sweep_outcomes == naive
    # The acceptance criterion: the warm sweep applies every fault mask to
    # cached programs without re-building a single scheme.
    hit_rate_floor = _load_baseline()["pinned_paths"]["resilience_sweep_warm_medium"][
        "compile_hit_rate_floor"
    ]
    assert stats.compile_hit_rate >= hit_rate_floor
    floor = 5.0 / SPEEDUP_MARGIN
    assert speedup >= floor, (
        f"warm resilience sweep only {speedup:.1f}x faster than "
        f"recompile-per-scenario, below the {floor:.0f}x floor"
    )


#: Ceiling of the executor's measured heap peak on the n = 4096 pin.
EXECUTE_PEAK_MIB_N4096 = 700


@pytest.mark.benchmark(group="perf-regression")
def test_execute_program_speedup_n4096(benchmark):
    # The executor acceptance pin: execute_program on a domain-dtype
    # program must finish the n = 4096 hypercube e-cube cell at least 5x
    # faster than the dense lockstep oracle on the int64 layout, with
    # bit-identical results, and its tracemalloc heap peak must stay under
    # EXECUTE_PEAK_MIB_N4096.
    prog = _hypercube_ecube_program()
    legacy = NextHopProgram(next_node=prog.next_node.astype(np.int64))
    ref, dense_s = _time(dense_execute, legacy)

    def _run():
        return execute_program(prog)

    result = benchmark.pedantic(_run, rounds=3, iterations=1)
    # Best-of-rounds: at 16.7M pairs a single OS-scheduling spike can
    # double a round on a shared host.
    fast_s = benchmark.stats.stats.min
    _check_budget("next_hop_n4096_hypercube", fast_s)
    speedup = dense_s / fast_s
    del result
    tracemalloc.start()
    try:
        result = execute_program(prog)
        peak_mib = tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()
    print_rows(
        "execute_program vs the dense oracle (n=4096 hypercube e-cube)",
        [
            {
                "case": f"dim={N4096_DIM} n={prog.n}",
                "dense_s": dense_s,
                "execute_s": fast_s,
                "speedup": speedup,
                "peak_mib": peak_mib,
            }
        ],
    )
    assert np.array_equal(result.lengths, ref.lengths)
    assert np.array_equal(result.delivered, ref.delivered)
    assert np.array_equal(result.misdelivered, ref.misdelivered)
    assert result.steps == ref.steps
    floor = 5.0 / SPEEDUP_MARGIN
    assert speedup >= floor, (
        f"execute_program speedup {speedup:.1f}x below the {floor:.1f}x floor"
    )
    assert peak_mib <= EXECUTE_PEAK_MIB_N4096, (
        f"execute_program heap peak {peak_mib:.0f} MiB over the "
        f"{EXECUTE_PEAK_MIB_N4096} MiB ceiling"
    )


@pytest.mark.benchmark(group="perf-regression")
def test_program_mmap_load_vs_decode(benchmark, tmp_path):
    # The zero-copy format acceptance pin: load_program must hand back
    # read-only views over the mapped file (no array copies), making a
    # worker's program load much faster than decoding the v1 blob it
    # replaced (which materialises int64 copies of every section).
    prog = _hypercube_ecube_program()
    v1_blob = prog.to_bytes(version=1)
    path = tmp_path / "ecube.rpg"
    save_program(prog, path)
    _, decode_s = _time(program_from_bytes, v1_blob)

    def _run():
        return load_program(path)

    loaded = benchmark.pedantic(_run, rounds=3, iterations=1)
    mmap_s = benchmark.stats.stats.median
    _check_budget("program_mmap_load_n4096", mmap_s)
    speedup = decode_s / mmap_s
    print_rows(
        "Program load: v2 mmap vs v1 decode (n=4096 next-hop table)",
        [
            {
                "case": f"{path.stat().st_size / 1e6:.1f}MB .rpg",
                "v1_decode_s": decode_s,
                "mmap_load_s": mmap_s,
                "speedup": speedup,
            }
        ],
    )
    assert not loaded.next_node.flags["OWNDATA"]  # view over the mapping
    assert not loaded.next_node.flags["WRITEABLE"]
    assert loaded.fingerprint() == prog.fingerprint()
    assert np.array_equal(loaded.next_node, prog.next_node)
    floor = 10.0 / SPEEDUP_MARGIN
    assert speedup >= floor, (
        f"mmap program load only {speedup:.1f}x faster than v1 decode, "
        f"below the {floor:.0f}x floor"
    )


@pytest.mark.benchmark(group="perf-regression")
def test_churn_delta_speedup_vs_recompile_n1024(benchmark):
    # The churn acceptance pin: patching a compiled table program after a
    # single-edge flip must beat recompiling from scratch at n = 1024 —
    # even in the delta compiler's worst case (a hypercube edge removal
    # dirties every destination column), so the measured gap is the batched
    # column rebuild + dirty-row patch vs the full table construction.
    # ``dist_before`` is passed in, matching the chained-delta steady state
    # of ``ShardedRunner.churn_sweep`` (each delta threads the previous
    # snapshot's distance matrix forward).
    graph = generators.hypercube(CHURN_FLIP_DIM)
    scheme = ShortestPathTableScheme(tie_break="lowest_port")
    program = compile_scheme_program(scheme, graph)
    dist = distance_matrix(graph)
    after = graph.copy()
    after.remove_edge(0, 1)
    fresh, recompile_s = _time(compile_scheme_program, scheme, after)

    def _run():
        return apply_delta(program, graph, after, scheme, dist_before=dist)

    result = benchmark.pedantic(_run, rounds=3, iterations=1)
    delta_s = benchmark.stats.stats.median
    _check_budget("churn_delta_flip_n1024", delta_s)
    speedup = recompile_s / delta_s
    print_rows(
        "Churn delta vs recompile (n=1024 hypercube, single-edge removal)",
        [
            {
                "case": f"dim={CHURN_FLIP_DIM} n={graph.n} flip=remove(0,1)",
                "recompile_s": recompile_s,
                "delta_s": delta_s,
                "speedup": speedup,
                "recomputed_cols": result.recomputed_columns,
            }
        ],
    )
    # Differential: the patched program is byte-identical to a fresh compile.
    assert result.mode == DELTA_PATCHED
    assert np.array_equal(result.program.next_node, fresh.next_node)
    assert result.program.to_bytes() == fresh.to_bytes()
    assert result.program.fingerprint() == fresh.fingerprint()
    floor = 5.0 / SPEEDUP_MARGIN
    assert speedup >= floor, (
        f"churn delta speedup {speedup:.1f}x below the {floor:.0f}x floor"
    )


@pytest.mark.benchmark(group="perf-regression")
def test_verify_speedup_vs_simulate_n1024(benchmark):
    # The static-analysis acceptance pin: proving every pair's fate and
    # exact hop count by functional-graph analysis (no message executed)
    # must beat dynamically discovering the same matrices with the
    # engine's generic per-message interpreter by at least 5x on the
    # n = 1024 hypercube table program.
    graph = generators.hypercube(CHURN_FLIP_DIM)
    scheme = ShortestPathTableScheme(tie_break="lowest_port")
    rf = scheme.build(graph.copy())
    program = compile_scheme_program(scheme, graph)
    generic, generic_s = _time(simulate_all_pairs, rf, method="generic")

    def _run():
        return verify_program(program)

    report = benchmark.pedantic(_run, rounds=3, iterations=1)
    # Best-of-rounds, like the other kernel pins: the floor pins the
    # analysis itself, not an OS-scheduling spike on a shared host.
    fast_s = benchmark.stats.stats.min
    _check_budget("verify_vs_simulate_n1024", fast_s)
    speedup = generic_s / fast_s
    print_rows(
        "Static verification vs simulation (n=1024 hypercube tables)",
        [
            {
                "case": f"dim={CHURN_FLIP_DIM} n={graph.n}",
                "generic_sim_s": generic_s,
                "verify_s": fast_s,
                "speedup_vs_generic": speedup,
            }
        ],
    )
    # Differential: the statically proven hop counts are bit-for-bit the
    # lengths the interpreter observes (which subsumes the delivered /
    # misdelivered classification — lost pairs carry -1).
    assert report.all_delivered and report.ok
    assert np.array_equal(report.hops, generic.lengths)
    floor = 5.0 / SPEEDUP_MARGIN
    assert speedup >= floor, (
        f"static verification speedup {speedup:.1f}x below the {floor:.0f}x "
        f"floor against the generic interpreter"
    )


@pytest.mark.benchmark(group="perf-regression")
def test_flow_subtree_n1024(benchmark):
    # The flow pin: accumulating a full uniform demand matrix as layered
    # subtree sums on the n = 1024 hypercube table program — one scatter
    # per (destination, node) state plus a single bincount — stays inside
    # its absolute budget.  Exact conservation identities stand in for an
    # oracle at this size: every delivered message crosses exactly its
    # hop count of arcs, and visits one node more than that.
    prog = _hypercube_ecube_program(CHURN_FLIP_DIM)
    report = verify_program(prog)
    dm = uniform_demand(prog.n)

    def _run():
        return route_demand(prog, dm, report=report)

    flow = benchmark.pedantic(_run, rounds=3, iterations=1)
    # Best-of-rounds, like the other kernel pins: the budget pins the
    # accumulator itself, not an OS-scheduling spike on a shared host.
    fast_s = benchmark.stats.stats.min
    _check_budget("flow_subtree_n1024", fast_s)
    print_rows(
        "Subtree-sum load accumulation (n=1024 hypercube)",
        [
            {
                "case": f"dim={CHURN_FLIP_DIM} n={prog.n} demand=uniform",
                "subtree_s": fast_s,
                "max_congestion": flow.max_congestion,
            }
        ],
    )
    assert flow.mode == "subtree" and flow.delivered_fraction == 1.0
    routed = np.where(flow.delivered, dm.demand, 0.0)
    assert flow.edge_load.sum() == (routed * flow.lengths).sum()
    # Node load = load on arcs into the node + one origination visit.
    assert np.array_equal(
        flow.node_load, flow.edge_load.sum(axis=0) + routed.sum(axis=1)
    )


@pytest.mark.benchmark(group="perf-regression")
def test_flow_sweep_warm_cache_smoke(benchmark, tmp_path):
    # The flow-sweep smoke: a warm sweep routes every demand skew against
    # cached compiled programs without re-building a single scheme (the
    # same compile-once economy as the program and resilience sweeps).
    schemes, families = _flow_sweep_grid()
    runner = ShardedRunner(cache_dir=tmp_path, processes=1)
    cold_cells, cold_skipped, _ = runner.flow_sweep(schemes=schemes, families=families)

    def _run():
        return runner.flow_sweep(schemes=schemes, families=families)

    cells, skipped, stats = benchmark.pedantic(_run, rounds=3, iterations=1)
    warm_s = benchmark.stats.stats.median
    _check_budget("flow_sweep_warm_medium", warm_s)
    print_rows(
        "Flow sweep: warm cached programs x demand skews",
        [
            {
                "case": f"{len(cells)} cells ({len(skipped)} skipped)",
                "warm_s": warm_s,
                "compile_hit_rate": stats.compile_hit_rate,
            }
        ],
    )
    assert cells == cold_cells and skipped == cold_skipped
    assert all(0.0 < c.delivered_fraction <= 1.0 for c in cells)
    assert all(c.allocated_throughput >= c.uniform_throughput - 1e-9 for c in cells)
    hit_rate_floor = _load_baseline()["pinned_paths"]["flow_sweep_warm_medium"][
        "compile_hit_rate_floor"
    ]
    assert stats.compile_hit_rate >= hit_rate_floor


# ----------------------------------------------------------------------
# snapshot maintenance
# ----------------------------------------------------------------------
def _measure_pinned_paths() -> dict:
    """One cold measurement of every pinned path, keyed like the baseline."""
    import tempfile

    p, q, d = ENUMERATION_CASE["p"], ENUMERATION_CASE["q"], ENUMERATION_CASE["d"]

    def cold_enumeration():
        clear_canonicalisation_cache()
        return enumerate_canonical_matrices(p, q, d)

    _, enum_s = _time(cold_enumeration)
    cg = _first_arc_graph()
    _, arcs_s = _time(
        forced_first_arcs, cg.graph, cg.constrained, cg.targets, 2.0, strict=True, method="bfs"
    )
    graph = generators.random_connected_graph(512, extra_edge_prob=0.01, seed=7)
    distance_matrix(graph, backend="scipy")
    _, dist_s = _time(distance_matrix, graph, backend="scipy")
    rf = _simulator_routing_function()
    _, sim_s = _time(simulate_all_pairs, rf)
    interval_rf = _interval_routing_function()
    _, header_s = _time(simulate_all_pairs, interval_rf, method="header-compiled")

    with tempfile.TemporaryDirectory() as sweep_dir:
        runner = ShardedRunner(cache_dir=sweep_dir, processes=1)
        schemes, families = _program_sweep_grid()
        runner.program_sweep(schemes=schemes, families=families)  # populate
        _, sweep_s = _time(runner.program_sweep, schemes=schemes, families=families)

    with tempfile.TemporaryDirectory() as sweep_dir:
        runner = ShardedRunner(cache_dir=sweep_dir, processes=1)
        schemes, families, scenarios = _resilience_grid()
        runner.resilience_sweep(schemes=schemes, families=families, scenarios=scenarios)
        _, resilience_s = _time(
            runner.resilience_sweep, schemes=schemes, families=families, scenarios=scenarios
        )

    prog = _hypercube_ecube_program()
    _, next_hop_s = _time(execute_program, prog)
    with tempfile.TemporaryDirectory() as store_dir:
        rpg = Path(store_dir) / "ecube.rpg"
        save_program(prog, rpg)
        _, mmap_s = _time(load_program, rpg)

    churn_graph = generators.hypercube(CHURN_FLIP_DIM)
    churn_scheme = ShortestPathTableScheme(tie_break="lowest_port")
    churn_prog = compile_scheme_program(churn_scheme, churn_graph)
    churn_dist = distance_matrix(churn_graph)
    churn_after = churn_graph.copy()
    churn_after.remove_edge(0, 1)
    _, churn_s = _time(
        apply_delta,
        churn_prog,
        churn_graph,
        churn_after,
        churn_scheme,
        dist_before=churn_dist,
    )
    _, verify_s = _time(verify_program, churn_prog)

    flow_prog = _hypercube_ecube_program(CHURN_FLIP_DIM)
    flow_report = verify_program(flow_prog)
    flow_dm = uniform_demand(flow_prog.n)
    route_demand(flow_prog, flow_dm, report=flow_report)  # warm
    _, flow_subtree_s = _time(route_demand, flow_prog, flow_dm, report=flow_report)
    with tempfile.TemporaryDirectory() as sweep_dir:
        runner = ShardedRunner(cache_dir=sweep_dir, processes=1)
        schemes, families = _flow_sweep_grid()
        runner.flow_sweep(schemes=schemes, families=families)  # populate
        _, flow_sweep_s = _time(runner.flow_sweep, schemes=schemes, families=families)

    return {
        "enumerate_3_4_3": enum_s,
        "first_arcs_lemma2_p32_q60_d10": arcs_s,
        "distance_matrix_scipy_n512": dist_s,
        "simulate_all_pairs_tables_n256": sim_s,
        "header_compiled_interval_n128": header_s,
        "program_sweep_warm_medium": sweep_s,
        "resilience_sweep_warm_medium": resilience_s,
        "next_hop_n4096_hypercube": next_hop_s,
        "program_mmap_load_n4096": mmap_s,
        "churn_delta_flip_n1024": churn_s,
        "verify_vs_simulate_n1024": verify_s,
        "flow_subtree_n1024": flow_subtree_s,
        "flow_sweep_warm_medium": flow_sweep_s,
    }


#: Pinned paths that additionally pin a compiled-program cache hit-rate
#: floor (the compile-once acceptance criteria).
_HIT_RATE_FLOORS = {
    "program_sweep_warm_medium": 0.95,
    "resilience_sweep_warm_medium": 0.95,
    "flow_sweep_warm_medium": 0.95,
}


def _write_baseline() -> None:
    """Re-measure the pinned paths and rewrite ``BENCH_baseline.json``."""
    measured = _measure_pinned_paths()
    pinned = {}
    for key, seconds in measured.items():
        pinned[key] = {"seconds": round(seconds, 4)}
        if key in _HIT_RATE_FLOORS:
            pinned[key]["compile_hit_rate_floor"] = _HIT_RATE_FLOORS[key]
    payload = {
        "note": (
            "Median-of-one cold timings of the pinned fast paths; regenerate with "
            "`PYTHONPATH=src python benchmarks/bench_perf_regression.py --write-baseline`. "
            f"Regression tests fail beyond {BUDGET_FACTOR}x these values."
        ),
        "pinned_paths": pinned,
    }
    BASELINE_PATH.write_text(json.dumps(payload, indent=2) + "\n")
    print(json.dumps(payload, indent=2))


def _write_run(path: Path | None) -> int:
    """Record one trajectory point (``BENCH_<run>.json``) vs the baseline.

    The body of the scheduled ``bench-trajectory`` workflow: re-measures
    every pinned path, writes the timestamped point next to the baseline
    and returns a non-zero exit status when any path regressed beyond
    ``BENCH_TRAJECTORY_FACTOR`` (default 10) times its snapshot.
    """
    factor = float(os.environ.get("BENCH_TRAJECTORY_FACTOR", "10"))
    run_id = os.environ.get("GITHUB_RUN_ID", "local")
    if path is None:
        path = BASELINE_PATH.parent / f"BENCH_{run_id}.json"
    baseline = _load_baseline()["pinned_paths"]
    measured = _measure_pinned_paths()
    rows = {}
    regressions = []
    for key, seconds in measured.items():
        snapshot = baseline.get(key, {}).get("seconds")
        ratio = (seconds / snapshot) if snapshot else None
        rows[key] = {
            "seconds": round(seconds, 4),
            "baseline_seconds": snapshot,
            "ratio": round(ratio, 2) if ratio is not None else None,
        }
        if ratio is not None and ratio > factor:
            regressions.append(
                f"{key}: {seconds:.4f}s is {ratio:.1f}x the {snapshot:.4f}s baseline "
                f"(limit {factor:.0f}x)"
            )
    payload = {
        "run": run_id,
        "timestamp": datetime.now(timezone.utc).isoformat(timespec="seconds"),
        "git_sha": os.environ.get("GITHUB_SHA"),
        "regression_factor": factor,
        "pinned_paths": rows,
        "regressions": regressions,
    }
    path.write_text(json.dumps(payload, indent=2) + "\n")
    print(json.dumps(payload, indent=2))
    if regressions:
        print(
            f"\n{len(regressions)} pinned path(s) regressed beyond {factor:.0f}x "
            "the baseline:\n  " + "\n  ".join(regressions),
            file=sys.stderr,
        )
        return 1
    return 0


if __name__ == "__main__":
    if "--write-baseline" in sys.argv:
        _write_baseline()
    elif "--write-run" in sys.argv:
        idx = sys.argv.index("--write-run")
        arg = sys.argv[idx + 1] if len(sys.argv) > idx + 1 else None
        sys.exit(_write_run(Path(arg) if arg else None))
    else:
        print(__doc__)
