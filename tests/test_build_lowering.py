"""Array-native build and lowering against the per-pair / per-state oracles.

* The one tie-break pass (:func:`repro.routing.tables.shortest_path_choices`)
  equals the destination x router x neighbour loop of
  ``tests/build_oracle.py`` for all three rules, on random connected graphs
  under random port relabels and on disconnected graphs (``-1`` entries).
* :func:`repro.graphs.shortest_paths.distance_matrix` equals one Python BFS
  per source.
* The churn distance update, which rebuilds only the frontier columns
  whose distances the removal changes, reports the distances, sweep count
  and frontier size of the rebuild-every-frontier-column oracle.
* Every registry program lowered from arrays (a function's
  ``next_node_array`` / ``header_state_evaluator``) equals the default
  per-pair / per-state evaluation of the same function: same bytes,
  ``headers`` tuple and fingerprint.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from build_oracle import (
    closure_lower_header_state,
    frontier_rebuild_distances,
    python_distance_matrix,
    triple_loop_next_hop,
)
from conftest import connected_graphs, profile_settings
from repro.graphs import generators
from repro.graphs.digraph import PortLabeledGraph
from repro.graphs.shortest_paths import distance_matrix, distance_rows
from repro.routing.model import TableRoutingFunction
from repro.routing.program import (
    HeaderStateProgram,
    NextHopProgram,
    incremental_distance_matrix,
    lower,
)
from repro.routing.tables import shortest_path_choices
from repro.sim.registry import graph_families, scheme_registry

TIE_BREAKS = ("lowest_port", "lowest_neighbor", "highest_port")


def _relabel_randomly(graph: PortLabeledGraph, seed: int) -> PortLabeledGraph:
    rng = np.random.default_rng(seed)
    for x in graph.vertices():
        ports = graph.ports(x)
        if len(ports) > 1:
            perm = rng.permutation(ports)
            graph.relabel_ports(x, {p: int(q) for p, q in zip(ports, perm)})
    return graph


def _assert_choices_match_oracle(graph: PortLabeledGraph) -> None:
    dist = python_distance_matrix(graph)
    for rule in TIE_BREAKS:
        next_hop, ports = shortest_path_choices(graph, tie_break=rule, dist=dist)
        expected = triple_loop_next_hop(graph, rule, dist)
        assert np.array_equal(next_hop, expected), rule
        for x in graph.vertices():
            for dest in graph.vertices():
                hop = int(expected[x, dest])
                if hop == -1:
                    assert ports[x, dest] == -1
                elif hop == x:
                    assert ports[x, dest] == 0
                else:
                    assert ports[x, dest] == graph.port(x, hop)


@profile_settings(40)
@given(graph=connected_graphs(min_n=2, max_n=18), relabel_seed=st.integers(0, 10**6))
def test_tie_break_pass_matches_triple_loop(graph, relabel_seed):
    _assert_choices_match_oracle(_relabel_randomly(graph, relabel_seed))


@profile_settings(25)
@given(
    sizes=st.lists(st.integers(min_value=1, max_value=7), min_size=2, max_size=4),
    seed=st.integers(0, 10**6),
)
def test_tie_break_pass_on_disconnected_graphs(sizes, seed):
    # Disjoint random components: every cross-component entry is -1.
    graph = PortLabeledGraph(sum(sizes))
    offset = 0
    for i, size in enumerate(sizes):
        part = generators.random_connected_graph(size, extra_edge_prob=0.3, seed=seed + i)
        for u, v in part.edges():
            graph.add_edge(u + offset, v + offset)
        offset += size
    graph = _relabel_randomly(graph, seed)
    _assert_choices_match_oracle(graph)
    next_hop, ports = shortest_path_choices(graph)
    comp = np.repeat(np.arange(len(sizes)), sizes)
    apart = comp[:, None] != comp[None, :]
    assert (next_hop[apart] == -1).all() and (ports[apart] == -1).all()


def test_tie_break_rows_are_the_full_pass_rows():
    graph = _relabel_randomly(generators.random_connected_graph(30, 0.2, seed=3), 3)
    rows = np.array([29, 0, 7, 7, 15])
    for rule in TIE_BREAKS:
        full = shortest_path_choices(graph, tie_break=rule)
        part = shortest_path_choices(graph, tie_break=rule, rows=rows)
        assert np.array_equal(part[0], full[0][rows])
        assert np.array_equal(part[1], full[1][rows])


def test_unknown_tie_break_rejected():
    with pytest.raises(ValueError, match="tie break"):
        shortest_path_choices(generators.path_graph(3), tie_break="random")


@profile_settings(30)
@given(
    n=st.integers(min_value=1, max_value=40),
    p=st.floats(min_value=0.0, max_value=0.2),
    seed=st.integers(0, 10**6),
)
def test_distance_matrix_matches_python_bfs(n, p, seed):
    # Erdos-Renyi draws, connected or not, isolated vertices included.
    rng = np.random.default_rng(seed)
    graph = PortLabeledGraph(n)
    for u in range(n):
        for v in range(u + 1, n):
            if rng.random() < p:
                graph.add_edge(u, v)
    assert np.array_equal(distance_matrix(graph), python_distance_matrix(graph))


def test_distance_rows_are_distance_matrix_rows():
    graph = generators.random_connected_graph(25, 0.1, seed=9)
    sources = np.array([3, 24, 0])
    assert np.array_equal(distance_rows(graph, sources), distance_matrix(graph)[sources])


@profile_settings(40)
@given(
    graph=connected_graphs(min_n=3, max_n=14),
    seed=st.integers(0, 10**6),
    removals=st.integers(0, 3),
    additions=st.integers(0, 3),
)
def test_incremental_distances_match_frontier_rebuild(graph, seed, removals, additions):
    rng = np.random.default_rng(seed)
    dist_before = distance_matrix(graph)
    after = graph.copy()
    edges = sorted(graph.edges())
    removed = sorted(
        tuple(edges[i]) for i in rng.permutation(len(edges))[: min(removals, len(edges))]
    )
    for u, v in removed:
        after.remove_edge(u, v)
    absent = [(u, v) for u in range(graph.n) for v in range(u + 1, graph.n) if not graph.has_edge(u, v)]
    added = sorted(
        tuple(absent[i]) for i in rng.permutation(len(absent))[: min(additions, len(absent))]
    )
    for u, v in added:
        after.add_edge(u, v)
    got = incremental_distance_matrix(after, dist_before, list(added), list(removed))
    want = frontier_rebuild_distances(after, dist_before, list(added), list(removed))
    assert np.array_equal(got[0], want[0])
    assert np.array_equal(got[0], python_distance_matrix(after))
    assert got[1:] == want[1:]


def test_hypercube_edge_removal_rebuilds_only_the_changed_columns(monkeypatch):
    # Every column is on the frontier of a hypercube edge removal, but only
    # the two endpoints' columns change distance.
    import repro.routing.program as program_module

    graph = generators.hypercube(6)
    dist = distance_matrix(graph)
    after = graph.copy()
    after.remove_edge(0, 1)
    rebuilt = []

    def _spy(g, sources=None):
        rebuilt.extend(np.asarray(sources).tolist())
        return distance_rows(g, sources)

    monkeypatch.setattr(program_module, "distance_rows", _spy)
    got, rounds, recomputed = incremental_distance_matrix(after, dist, [], [(0, 1)])
    assert recomputed == 64 and rounds == 0
    assert sorted(rebuilt) == [0, 1]
    assert np.array_equal(got, distance_matrix(after))


# ----------------------------------------------------------------------
# array lowering == the default per-pair / per-state evaluator
# ----------------------------------------------------------------------
def _default_evaluation(rf):
    """Lower ``rf`` with its array hooks hidden (instance attributes shadow them)."""
    rf.next_node_array = lambda: None
    rf.header_state_evaluator = lambda: None
    try:
        return lower(rf)
    finally:
        del rf.next_node_array
        del rf.header_state_evaluator


def _registry_functions(size, seed):
    families = graph_families(size=size, seed=seed)
    for scheme_name, scheme in scheme_registry(seed=seed).items():
        for family, graph in families.items():
            try:
                rf = scheme.build(graph.copy())
            except ValueError:
                continue
            yield f"{scheme_name}/{family}", rf


@pytest.mark.parametrize("size", ["small", "medium"])
@pytest.mark.parametrize("seed", [0, 1])
def test_registry_array_lowering_equals_default_evaluator(size, seed):
    kinds = set()
    for cell, rf in _registry_functions(size, seed):
        fast = lower(rf)
        slow = _default_evaluation(rf)
        assert type(fast) is type(slow), cell
        assert fast.to_bytes() == slow.to_bytes(), cell
        assert fast.fingerprint() == slow.fingerprint(), cell
        if isinstance(fast, HeaderStateProgram):
            assert fast.headers == slow.headers, cell
            oracle = closure_lower_header_state(rf)
            assert fast.to_bytes() == oracle.to_bytes(), cell
            assert fast.headers == oracle.headers, cell
        kinds.add(type(fast))
    assert kinds == {NextHopProgram, HeaderStateProgram}


def test_array_hooks_cover_the_array_backed_schemes():
    graph = generators.random_connected_graph(20, 0.2, seed=4)
    registry = scheme_registry(seed=0)
    for name in (
        "tables-lowest-port",
        "complete-adversarial",
        "landmark-sqrt",
        "spanner3-landmark",
    ):
        target = generators.complete_graph(8) if name.startswith("complete") else graph
        assert registry[name].build(target.copy()).next_node_array() is not None, name
    for name in ("landmark-rewriting", "spanner3-rewriting"):
        rf = registry[name].build(graph.copy())
        assert rf.header_state_evaluator() is not None, name


def test_subclass_overriding_a_decision_falls_back_to_evaluation():
    from repro.routing.landmark import CowenLandmarkScheme, LandmarkRoutingFunction

    class _Detour(LandmarkRoutingFunction):
        def port(self, node, header):
            return super().port(node, header)

    graph = generators.random_connected_graph(16, 0.2, seed=2)
    base = CowenLandmarkScheme(seed=0).build(graph)
    rf = _Detour(
        graph, base.landmarks, base._next_hop, base._ports, base._cluster, base._nearest
    )
    assert rf.next_node_array() is None
    assert lower(rf).fingerprint() == lower(base).fingerprint()


# ----------------------------------------------------------------------
# table port matrix
# ----------------------------------------------------------------------
def test_out_of_range_table_key_rejected_without_validation():
    # -3 in place of 2 on a 5-cycle: with the right entry count, an
    # unchecked key would wrap onto column n-3 and leave column 2 unset.
    graph = generators.cycle_graph(5)
    tables = {
        x: {d: 1 for d in range(5) if d != x} for x in range(5)
    }
    del tables[0][2]
    tables[0][-3] = 1
    with pytest.raises(ValueError, match="outside 0..4"):
        TableRoutingFunction(graph, tables, validate=False)
    tables[0] = {d: 1 for d in range(5) if d != 0}
    tables[7] = {}
    with pytest.raises(ValueError, match="outside 0..4"):
        TableRoutingFunction(graph, tables, validate=False)


def test_table_port_matrix_is_read_only_and_dicts_on_demand():
    graph = generators.grid_2d(3, 3)
    rf = scheme_registry()["tables-lowest-port"].build(graph)
    assert not rf.port_matrix.flags.writeable
    assert rf.local_map(4) == {d: int(rf.port_matrix[4, d]) for d in range(9) if d != 4}
    assert rf.table(4) == rf.local_map(4)

