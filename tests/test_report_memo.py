"""Compiled programs are immutable values that carry their verification.

The contract of :mod:`repro.routing.verify`'s report memo:

* a program's transition arrays are read-only from construction — on a
  fresh compile, a decoded blob, a pickle round-trip and a masked view —
  and so are a report's ``outcome``/``hops``;
* :func:`verify_program` memoises one report per program instance, keyed
  by the ``alive`` mask (``None`` and all-``True`` are one key); ``dist``
  is never a key, ``strict`` raises on a hit as on a miss, and neither
  ``dataclasses.replace`` nor pickling carries the memo along;
* every consumer reads that one report: the pipeline the n = 4096
  benchmark cell runs (store gate, verify, execute, flow, one fault
  scenario) proves the unmasked program once and the masked view once,
  and a resilience cell masks each scenario once;
* ``route_demand(report=)`` refuses a report of another program.
"""

from __future__ import annotations

import copy
import dataclasses
import gc
import pickle

import numpy as np
import pytest

import repro.routing.verify as verify_mod
import repro.sim.faults as faults_mod
from repro.analysis.flow import demand_matrix, route_demand, zipf_demand
from repro.analysis.resilience import resilience_cell
from repro.analysis.runner import ExperimentCache
from repro.graphs import generators
from repro.graphs.shortest_paths import distance_matrix
from repro.routing.ecube import ECubeRoutingScheme
from repro.routing.hierarchical import HierarchicalSpannerScheme
from repro.routing.program import (
    HeaderStateProgram,
    NextHopProgram,
    compile_scheme_program,
    program_from_bytes,
)
from repro.routing.tables import ShortestPathTableScheme
from repro.routing.verify import (
    ProgramVerificationError,
    _cached_report,
    verify_program,
    verify_structure,
)
from repro.sim.engine import execute_program
from repro.sim.faults import (
    FaultSet,
    apply_faults,
    random_fault_set,
    simulate_with_faults,
)
from repro.sim.registry import fault_scenarios
from repro.store import ProgramStore


_HEADER_GRAPH = generators.random_connected_graph(16, extra_edge_prob=0.2, seed=3)


def _table_program(graph=None) -> NextHopProgram:
    graph = graph if graph is not None else generators.grid_2d(3, 4)
    program = compile_scheme_program(ShortestPathTableScheme(), graph)
    assert isinstance(program, NextHopProgram)
    return program


def _header_state_program(graph=None) -> HeaderStateProgram:
    graph = graph if graph is not None else _HEADER_GRAPH
    scheme = HierarchicalSpannerScheme(spanner_stretch=3.0, seed=0, rewriting=True)
    program = compile_scheme_program(scheme, graph)
    assert isinstance(program, HeaderStateProgram)
    return program


def _report_arrays_equal(a, b) -> bool:
    return (
        np.array_equal(a.outcome, b.outcome)
        and np.array_equal(a.hops, b.hops)
        and a.outcome.dtype == b.outcome.dtype
        and a.hops.dtype == b.hops.dtype
        and (a.kind, a.n, a.num_states, a.masked, a.issues)
        == (b.kind, b.n, b.num_states, b.masked, b.issues)
    )


# ----------------------------------------------------------------------
# frozen arrays
# ----------------------------------------------------------------------
def _arrays(program):
    if isinstance(program, NextHopProgram):
        return [program.next_node]
    return [
        program.succ,
        program.deliver,
        program.node_of,
        program.hops_to_deliver,
        program.initial,
    ]


@pytest.mark.parametrize("make", [_table_program, _header_state_program])
def test_compiled_decoded_and_unpickled_arrays_are_read_only(make):
    program = make()
    for source in (
        program,
        program_from_bytes(program.to_bytes()),
        pickle.loads(pickle.dumps(program)),
    ):
        for array in _arrays(source):
            assert not array.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                array[0] = array[0]


def test_construction_freezes_the_callers_array():
    program = _table_program()
    nn = program.next_node.copy()
    fresh = NextHopProgram(next_node=nn)
    with pytest.raises(ValueError, match="read-only"):
        nn[0, 1] = 0
    assert fresh.next_node is nn


def test_masked_views_are_read_only():
    for graph, program in (
        (generators.grid_2d(3, 4), _table_program()),
        (_HEADER_GRAPH, _header_state_program()),
    ):
        faults = random_fault_set(graph, 2, kind="edge", seed=1)
        for array in _arrays(apply_faults(program, graph, faults)):
            assert not array.flags.writeable


def test_report_arrays_are_read_only():
    report = verify_program(_table_program())
    for array in (report.outcome, report.hops):
        with pytest.raises(ValueError, match="read-only"):
            array[0, 1] = 7


# ----------------------------------------------------------------------
# the memo
# ----------------------------------------------------------------------
def test_replace_and_pickle_start_with_an_empty_memo():
    program = _table_program()
    report = verify_program(program)
    assert _cached_report(program) is report
    assert _cached_report(dataclasses.replace(program)) is None
    assert _cached_report(pickle.loads(pickle.dumps(program))) is None
    assert _cached_report(copy.copy(program)) is None
    # Neither the pickle nor the fingerprint carries the memo.
    assert b"VerificationReport" not in pickle.dumps(program)
    assert program.fingerprint() == _table_program().fingerprint()


def test_memo_entry_lives_as_long_as_its_program():
    program = _table_program()
    verify_program(program)
    assert program in verify_mod._MEMO
    before = len(verify_mod._MEMO)
    del program
    gc.collect()
    assert len(verify_mod._MEMO) == before - 1


@pytest.mark.parametrize("make", [_table_program, _header_state_program])
def test_cached_report_equals_a_fresh_one_for_every_mask_kind(make):
    program = make()
    n = program.n
    masked_alive = np.ones(n, dtype=bool)
    masked_alive[[0, n // 2]] = False
    for alive in (None, np.ones(n, dtype=bool), masked_alive):
        first = verify_program(program, alive=alive)
        again = verify_program(program, alive=alive)
        assert again is first
        fresh = verify_program(dataclasses.replace(program), alive=alive)
        assert fresh is not first
        assert _report_arrays_equal(first, fresh)


def test_none_and_all_true_masks_share_one_memo_entry():
    program = _table_program()
    report = verify_program(program)
    assert verify_program(program, alive=np.ones(program.n, dtype=bool)) is report
    assert _cached_report(program, np.ones(program.n, dtype=bool)) is report


def test_memo_holds_one_mask_and_never_answers_for_another():
    program = _table_program()
    alive = np.ones(program.n, dtype=bool)
    alive[3] = False
    unmasked = verify_program(program)
    assert _cached_report(program, alive) is None
    masked = verify_program(program, alive=alive)
    assert _cached_report(program, alive) is masked
    assert _cached_report(program) is None  # one entry per program: replaced
    assert _cached_report(program, np.ones(program.n + 1, dtype=bool)) is None
    again = verify_program(program)
    assert again is not unmasked and _report_arrays_equal(again, unmasked)


def test_stretch_is_computed_on_top_of_the_cached_report():
    graph = generators.grid_2d(3, 4)
    program = _table_program(graph)
    with_stretch = verify_program(program, dist=distance_matrix(graph))
    assert with_stretch.max_stretch is not None
    plain = verify_program(program)
    assert plain.max_stretch is None and plain.mean_stretch is None
    assert plain.hops is with_stretch.hops


def _non_absorbing(program: NextHopProgram) -> NextHopProgram:
    nn = np.array(program.next_node, copy=True)
    nn[5, 5] = 4  # a neighbour of 5 in the 3x4 grid: 5 stops absorbing
    return NextHopProgram(next_node=nn)


def test_strict_raises_on_a_hit_with_the_message_of_a_miss():
    base = _table_program()
    with pytest.raises(ProgramVerificationError) as miss:
        verify_program(_non_absorbing(base), strict=True)
    program = _non_absorbing(base)
    assert verify_program(program).issues  # fills the memo
    with pytest.raises(ProgramVerificationError) as hit:
        verify_program(program, strict=True)
    assert str(hit.value) == str(miss.value)
    with pytest.raises(ProgramVerificationError) as structural:
        verify_structure(_non_absorbing(base), strict=True)
    assert str(structural.value) == str(miss.value)


def test_a_failed_verification_memoises_nothing():
    program = _non_absorbing(_table_program())
    with pytest.raises(ProgramVerificationError):
        verify_program(program, strict=True)
    assert _cached_report(program) is None


# ----------------------------------------------------------------------
# consumers read the memo and never write into it
# ----------------------------------------------------------------------
def test_execute_program_copies_only_when_a_pair_is_lost():
    healthy = _table_program()
    report = verify_program(healthy)
    assert execute_program(healthy).lengths is report.hops
    broken = _non_absorbing(healthy)
    report = verify_program(broken)
    before = report.hops.copy()
    result = execute_program(broken)
    assert not result.all_delivered
    assert result.lengths is not report.hops
    assert np.array_equal(report.hops, before)
    assert (result.lengths[~result.delivered] == -1).all()


def test_empty_fault_set_returns_the_program_and_reuses_its_report():
    for program, g in (
        (_table_program(), generators.grid_2d(3, 4)),
        (_header_state_program(), _HEADER_GRAPH),
    ):
        assert apply_faults(program, g, FaultSet.empty()) is program
        report = verify_program(program)
        result = simulate_with_faults(program, FaultSet.empty(), graph=g)
        assert result.program is program
        assert result.outcome is report.outcome and result.lengths is report.hops


def test_store_gate_audits_structure_without_proving_pairs(tmp_path):
    store = ProgramStore(tmp_path)
    store.put("good", _table_program())
    found, loaded = store.get("good", verify=True)
    assert found and _cached_report(loaded) is None
    # A semantic issue no healthy compile produces still fails the gate.
    store.put("bad", _non_absorbing(_table_program()))
    with pytest.warns(RuntimeWarning, match="strict verification"):
        found, loaded = store.get("bad", verify=True)
    assert not found and store.degraded == 1


def test_route_demand_rejects_a_report_of_another_program():
    graph = generators.grid_2d(3, 4)
    program = _table_program(graph)
    other = _non_absorbing(program)
    foreign = verify_program(other)
    assert foreign.n == program.n
    dm = zipf_demand(graph.n, total=1_000.0, seed=2)
    with pytest.raises(ValueError, match="does not describe this program"):
        route_demand(program, dm, report=foreign)
    # Its own report, or an equal one from a fresh verification, is fine.
    own = verify_program(program)
    assert route_demand(program, dm, report=own).lengths is own.hops
    equal = verify_program(dataclasses.replace(program))
    assert route_demand(program, dm, report=equal).lengths is own.hops


def test_route_demand_rejects_a_report_for_another_mask():
    graph = generators.grid_2d(3, 4)
    program = _table_program(graph)
    alive = np.ones(graph.n, dtype=bool)
    alive[2] = False
    unmasked = verify_program(program)
    dm = zipf_demand(graph.n, total=1_000.0, seed=2)
    with pytest.raises(ValueError, match="does not describe this program"):
        route_demand(program, dm, alive=alive, report=unmasked)


def test_benchmark_cell_pipeline_proves_each_program_once(tmp_path, monkeypatch):
    # The n = 4096 benchmark cell's sequence, at d = 6: store round trip
    # through the integrity gate, verify, execute, flow with the report,
    # one 2-edge fault scenario.  The unmasked program is proven once and
    # the masked view once.
    calls = []
    original = verify_mod._verify_next_hop

    def counting(program, alive):
        calls.append(program.n)
        return original(program, alive)

    monkeypatch.setattr(verify_mod, "_verify_next_hop", counting)
    graph = generators.hypercube(6)
    built = compile_scheme_program(ECubeRoutingScheme(), graph)
    store = ProgramStore(tmp_path)
    store.put("ecube-64", built)
    found, program = store.get("ecube-64", verify=True)
    assert found
    report = verify_program(program)
    result = execute_program(program)
    assert result.all_delivered and result.lengths is report.hops
    demand = demand_matrix("zipf", graph.n, seed=0)
    routed = route_demand(program, demand, report=report)
    assert routed.delivered_fraction == 1.0
    fault_set = random_fault_set(graph, 2, kind="edge", seed=0)
    outcome = simulate_with_faults(program, fault_set, graph=graph)
    assert outcome.counts()["dropped"]
    assert len(calls) == 2


def test_resilience_cell_masks_each_scenario_once(monkeypatch):
    graph = generators.grid_2d(3, 4)
    scenarios = fault_scenarios(graph, seed=0)
    calls = []
    original = faults_mod.apply_faults

    def counting(program, g, faults):
        calls.append(faults)
        return original(program, g, faults)

    monkeypatch.setattr(faults_mod, "apply_faults", counting)
    cache = ExperimentCache(None)
    rows = resilience_cell(
        ShortestPathTableScheme(), graph, "grid", "tables", scenarios,
        flow="zipf", cache=cache,
    )
    assert len(calls) == len(scenarios) == len(rows)
    # The shared masked view gives the flow metrics an independent mask
    # and verification would give.
    program = _table_program(graph)
    demand = demand_matrix("zipf", graph.n, seed=0, dist=distance_matrix(graph))
    for row, (_, faults) in zip(rows, scenarios):
        masked = original(program, graph, faults)
        flow = route_demand(masked, demand, alive=faults.alive_mask(graph.n))
        assert row.peak_load == flow.max_congestion
