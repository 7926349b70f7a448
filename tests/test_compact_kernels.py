"""Differential coverage of the compiled executor against the dense oracle.

:func:`~repro.sim.engine.execute_program` and
:func:`~repro.sim.engine.execute_masked_program` are views over one static
verification; the dense lockstep loops of ``tests/dense_oracle.py`` step
every message instead.  Every test here pins the two bit-for-bit —
lengths, outcome matrices and ``steps`` — including under fault masks,
livelocks, misdelivery sentinels, stale analysis fields and degenerate
frontiers.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import profile_settings
from dense_oracle import dense_execute, dense_execute_masked
from repro.graphs import generators
from repro.routing.landmark import CowenLandmarkScheme
from repro.routing.program import (
    DROPPED,
    MISDELIVER,
    GenericProgram,
    HeaderStateProgram,
    NextHopProgram,
)
from repro.routing.tables import ShortestPathTableScheme
from repro.routing.verify import verify_program
from repro.sim.engine import execute_masked_program, execute_program, simulate_all_pairs
from repro.sim.faults import (
    PAIR_DELIVERED,
    FaultSet,
    apply_faults,
    random_fault_set,
    simulate_with_faults,
)
from repro.sim.registry import fault_scenarios, graph_families, scheme_registry


def _graphs():
    yield "random-20", generators.random_connected_graph(20, extra_edge_prob=0.15, seed=11)
    yield "hypercube-4", generators.hypercube(4)
    yield "grid-5x4", generators.grid_2d(5, 4)
    yield "cycle-9", generators.cycle_graph(9)


def _next_hop_programs():
    for name, graph in _graphs():
        program = ShortestPathTableScheme().build(graph).compile_program()
        assert isinstance(program, NextHopProgram)
        yield name, graph, program


def _assert_same_result(a, b):
    assert np.array_equal(a.lengths, b.lengths)
    assert np.array_equal(a.delivered, b.delivered)
    assert np.array_equal(a.misdelivered, b.misdelivered)
    assert a.steps == b.steps
    assert a.mode == b.mode


def _assert_same_masked(a, b):
    _assert_same_result(a, b)
    assert np.array_equal(a.dropped, b.dropped)


# ----------------------------------------------------------------------
# executor == dense oracle
# ----------------------------------------------------------------------
@pytest.mark.parametrize(
    "name,graph,program", list(_next_hop_programs()), ids=lambda v: v if isinstance(v, str) else ""
)
def test_next_hop_executor_matches_dense(name, graph, program):
    _assert_same_result(dense_execute(program), execute_program(program))


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_header_state_executor_matches_dense(seed):
    graph = generators.random_connected_graph(16, extra_edge_prob=0.2, seed=seed)
    program = CowenLandmarkScheme(seed=seed, rewriting=True).build(graph).compile_program()
    _assert_same_result(dense_execute(program), execute_program(program))


@pytest.mark.parametrize("kind,k", [("edge", 3), ("node", 2)])
def test_masked_next_hop_executor_matches_dense_under_faults(kind, k):
    graph = generators.random_connected_graph(18, extra_edge_prob=0.2, seed=4)
    program = ShortestPathTableScheme().build(graph).compile_program()
    faults = random_fault_set(graph, k, kind=kind, seed=9)
    masked = apply_faults(program, graph, faults)
    alive = faults.alive_mask(graph.n)
    _assert_same_masked(
        dense_execute_masked(masked, alive), execute_masked_program(masked, alive)
    )


@pytest.mark.parametrize("kind,k", [("edge", 3), ("node", 2)])
def test_masked_header_state_executor_matches_dense_under_faults(kind, k):
    graph = generators.random_connected_graph(16, extra_edge_prob=0.2, seed=6)
    program = CowenLandmarkScheme(seed=6, rewriting=True).build(graph).compile_program()
    faults = random_fault_set(graph, k, kind=kind, seed=2)
    masked = apply_faults(program, graph, faults)
    alive = faults.alive_mask(graph.n)
    _assert_same_masked(
        dense_execute_masked(masked, alive), execute_masked_program(masked, alive)
    )


def test_small_registry_executor_matches_dense():
    # Every compiled cell of the small registry, unmasked and under every
    # fault_scenarios view: arrays, steps and mode equal the oracle's.
    cells = 0
    for family_name, graph in graph_families(size="small", seed=0).items():
        for scheme_name, scheme in scheme_registry().items():
            try:
                program = scheme.build(graph.copy()).compile_program()
            except ValueError:
                continue
            if isinstance(program, GenericProgram):
                continue
            _assert_same_result(dense_execute(program), execute_program(program))
            for _, faults in fault_scenarios(
                graph, seed=3, edge_ks=(1, 2), node_ks=(1,), per_k=1
            ):
                masked = apply_faults(program, graph, faults)
                alive = faults.alive_mask(graph.n)
                _assert_same_masked(
                    dense_execute_masked(masked, alive),
                    execute_masked_program(masked, alive),
                )
            cells += 1
    assert cells >= 200, cells


def test_livelock_ring_agrees_and_exhausts_budget():
    # A unanimous "route clockwise, never absorb" table: every off-diagonal
    # pair livelocks, lengths stay -1, and a lockstep run lasts n steps.
    n = 8
    table = np.empty((n, n), dtype=np.int16)
    for cur in range(n):
        table[cur, :] = (cur + 1) % n
    program = NextHopProgram(next_node=table)
    result = execute_program(program)
    _assert_same_result(dense_execute(program), result)
    assert result.steps == n
    offdiag = ~np.eye(n, dtype=bool)
    assert (result.lengths[offdiag] == -1).all()
    assert not result.delivered[offdiag].any()


def test_header_state_livelock_agrees():
    # A non-delivering self-loop on one state of a healthy header-state
    # program: every pair reaching it livelocks, and the stored
    # hops_to_deliver goes stale (a report issue, not an error).
    graph = generators.random_connected_graph(14, extra_edge_prob=0.2, seed=3)
    program = CowenLandmarkScheme(seed=3, rewriting=True).build(graph).compile_program()
    succ = np.array(program.succ, copy=True)
    looping = int(np.flatnonzero(~program.deliver)[0])
    succ[looping] = looping
    broken = program.with_transitions(succ=succ, hops_to_deliver=program.hops_to_deliver)
    result = execute_program(broken)
    _assert_same_result(dense_execute(broken), result)
    assert result.livelocked_pairs()


def test_misdelivery_sentinels_agree():
    graph = generators.cycle_graph(7)
    program = ShortestPathTableScheme().build(graph).compile_program()
    table = program.next_node.copy()
    table[2, 5] = MISDELIVER
    table[3, 0] = MISDELIVER
    bad = NextHopProgram(next_node=table)
    result = execute_program(bad)
    _assert_same_result(dense_execute(bad), result)
    assert result.misdelivered.any()
    assert (result.lengths[result.misdelivered] == -1).all()


def test_unmasked_dropped_program_is_rejected():
    graph = generators.cycle_graph(6)
    program = ShortestPathTableScheme().build(graph).compile_program()
    table = program.next_node.copy()
    table[1, 4] = DROPPED
    with pytest.raises(ValueError, match="masked"):
        execute_program(NextHopProgram(next_node=table))


@pytest.mark.parametrize("n", [0, 1])
def test_degenerate_sizes_agree(n):
    program = NextHopProgram(next_node=np.zeros((n, n), dtype=np.int16))
    _assert_same_result(dense_execute(program), execute_program(program))


def test_all_dead_and_single_survivor_masks():
    graph = generators.grid_2d(3, 3)
    n = graph.n
    for program in (
        ShortestPathTableScheme().build(graph.copy()).compile_program(),
        CowenLandmarkScheme(seed=0, rewriting=True).build(graph.copy()).compile_program(),
    ):
        for alive in (np.zeros(n, dtype=bool), np.eye(1, n, 4, dtype=bool)[0]):
            result = execute_masked_program(program, alive)
            _assert_same_masked(dense_execute_masked(program, alive), result)
            assert result.steps == 0  # no alive pair ever enters the frontier


# ----------------------------------------------------------------------
# the stored analysis field never decides execution
# ----------------------------------------------------------------------
def test_stale_hops_to_deliver_does_not_truncate_execution():
    scheme = scheme_registry()["landmark-rewriting"]
    program = scheme.build(generators.cycle_graph(12)).compile_program()
    assert isinstance(program, HeaderStateProgram)
    stale = program.with_transitions(
        succ=program.succ, hops_to_deliver=np.zeros_like(program.hops_to_deliver)
    )
    assert verify_program(stale).issues  # the field is reported stale...
    healthy, result = execute_program(program), execute_program(stale)
    assert healthy.all_delivered and result.all_delivered  # ...but never obeyed
    assert np.array_equal(result.lengths, healthy.lengths)
    assert np.array_equal(result.delivered, healthy.delivered)
    assert result.steps == healthy.steps
    _assert_same_result(dense_execute(stale), result)


@given(
    n=st.integers(min_value=5, max_value=16),
    seed=st.integers(min_value=0, max_value=10**6),
    kind=st.sampled_from(["edge", "node"]),
)
@profile_settings(15)
def test_masked_header_state_executor_matches_dense_random(n, seed, kind):
    graph = generators.random_connected_graph(n, extra_edge_prob=0.3, seed=seed)
    program = CowenLandmarkScheme(seed=seed, rewriting=True).build(graph).compile_program()
    faults = random_fault_set(graph, 2, kind=kind, seed=seed)
    masked = apply_faults(program, graph, faults)
    alive = faults.alive_mask(n)
    _assert_same_masked(
        dense_execute_masked(masked, alive), execute_masked_program(masked, alive)
    )


def test_steps_match_the_verified_partition():
    # What sweep rows promise: on a fully delivering cell a lockstep run
    # lasts the longest proven route, plus the header-state step that
    # observes delivery.
    checked = 0
    for family_name, graph in graph_families(size="small", seed=0).items():
        for scheme_name, scheme in scheme_registry().items():
            try:
                program = scheme.build(graph.copy()).compile_program()
            except ValueError:
                continue
            if isinstance(program, GenericProgram):
                continue
            report = verify_program(program)
            if not report.all_delivered:
                continue
            expected = report.max_finite_hops + (program.kind == "header-state")
            assert execute_program(program).steps == expected, (scheme_name, family_name)
            checked += 1
    assert checked >= 200, checked


# ----------------------------------------------------------------------
# max_hops bounds the interpreter only
# ----------------------------------------------------------------------
@pytest.mark.parametrize("rewriting", [False, True], ids=["next-hop", "header-state"])
def test_max_hops_is_refused_with_a_compiled_program(rewriting):
    rf = CowenLandmarkScheme(seed=0, rewriting=rewriting).build(generators.cycle_graph(8))
    with pytest.raises(ValueError, match="max_hops"):
        simulate_all_pairs(rf, max_hops=3)
    with pytest.raises(ValueError, match="max_hops"):
        simulate_all_pairs(rf, max_hops=3, program=rf.compile_program())
    with pytest.raises(ValueError, match="max_hops"):
        simulate_with_faults(rf, FaultSet.from_edges([(0, 1)]), max_hops=3)


def test_max_hops_still_bounds_the_interpreter():
    graph = generators.path_graph(6)
    rf = ShortestPathTableScheme().build(graph)
    cut = simulate_all_pairs(rf, method="generic", max_hops=2)
    assert cut.steps == 2
    # Within two steps only neighbours are delivered (the second step
    # observes their arrival); everything farther is still in flight.
    far = np.abs(np.subtract.outer(np.arange(6), np.arange(6))) > 1
    assert (cut.lengths[far] == -1).all() and not cut.delivered[far].any()
    faulted = simulate_with_faults(rf, FaultSet.empty(), method="reference", max_hops=2)
    assert faulted.steps == 2
    assert faulted.counts()["livelocked"] == int(far.sum())


def test_unmasked_interpreter_is_the_no_fault_run():
    graph = generators.random_connected_graph(12, extra_edge_prob=0.2, seed=5)
    rf = CowenLandmarkScheme(seed=5, rewriting=True).build(graph)
    unmasked = simulate_all_pairs(rf, method="generic")
    no_fault = simulate_with_faults(rf, FaultSet.empty(), method="reference")
    delivered = no_fault.outcome == PAIR_DELIVERED
    np.fill_diagonal(delivered, True)
    assert np.array_equal(unmasked.delivered, delivered)
    assert np.array_equal(unmasked.lengths, np.where(delivered, no_fault.lengths, -1))
    assert unmasked.steps == no_fault.steps
    assert (unmasked.mode, no_fault.mode) == ("generic", "generic-masked")


def test_executors_reject_non_programs():
    with pytest.raises(TypeError, match="not a RoutingProgram"):
        execute_program(object())
