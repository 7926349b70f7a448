"""Per-pair and per-state build/lowering loops: the oracles of the array paths.

The library builds shortest-path choices with one numpy pass over the port
index (:func:`repro.routing.tables.shortest_path_choices`), computes
distances through scipy (:func:`repro.graphs.shortest_paths.distance_matrix`)
and lowers header-state functions one frontier level at a time
(:func:`repro.routing.program.lower_header_state`).  These are the direct
loops those replaced — one BFS per source, a destination x router x
neighbour scan, a dict-interned state closure — kept here so the array
paths are checked against an implementation that shares none of their
code.  ``frontier_rebuild_distances`` is the churn distance update that
rebuilds every frontier column by BFS; the library's skips the columns
whose distances provably survive and must report the same counts.
"""

from __future__ import annotations

from typing import Dict, Hashable, List, Optional, Tuple

import numpy as np

from repro.graphs.digraph import PortLabeledGraph
from repro.graphs.shortest_paths import UNREACHABLE, bfs_distances
from repro.routing.model import DELIVER, RoutingFunction
from repro.routing.program import (
    HeaderStateExplosionError,
    HeaderStateProgram,
    functional_hops,
    transition_dtype,
)


def python_distance_matrix(graph: PortLabeledGraph) -> np.ndarray:
    """All-pairs distances by one pure-Python BFS per source."""
    if graph.n == 0:
        return np.zeros((0, 0), dtype=np.int64)
    return np.vstack([bfs_distances(graph, s) for s in range(graph.n)])


def triple_loop_next_hop(
    graph: PortLabeledGraph, tie_break: str, dist: np.ndarray
) -> np.ndarray:
    """Next-hop matrix by scanning every destination, router and neighbour."""
    n = graph.n
    next_hop = np.full((n, n), -1, dtype=np.int64)
    np.fill_diagonal(next_hop, np.arange(n))
    for dest in range(n):
        dist_to_dest = dist[:, dest]
        for x in range(n):
            if x == dest or dist_to_dest[x] == UNREACHABLE:
                continue
            best_neighbor = -1
            best_key = None
            for v in graph.neighbors(x):
                if dist_to_dest[v] != dist_to_dest[x] - 1:
                    continue
                if tie_break == "lowest_neighbor":
                    key = v
                elif tie_break == "lowest_port":
                    key = graph.port(x, v)
                elif tie_break == "highest_port":
                    key = -graph.port(x, v)
                else:
                    raise ValueError(f"unknown tie break rule {tie_break!r}")
                if best_key is None or key < best_key:
                    best_key = key
                    best_neighbor = v
            next_hop[x, dest] = best_neighbor
    return next_hop


def closure_lower_header_state(
    rf: RoutingFunction, max_states: Optional[int] = None
) -> HeaderStateProgram:
    """Header-state lowering by interning ``(node, header)`` tuples one at a time."""
    graph = rf.graph
    n = graph.n
    if max_states is None:
        max_states = 1024 + 64 * n * n
    state_id: Dict[Tuple[int, Hashable], int] = {}
    nodes: List[int] = []
    headers: List[Hashable] = []

    def intern(node: int, header: Hashable) -> int:
        key = (node, header)
        sid = state_id.get(key)
        if sid is None:
            sid = len(nodes)
            if sid >= max_states:
                raise HeaderStateExplosionError(f"more than {max_states} states")
            state_id[key] = sid
            nodes.append(node)
            headers.append(header)
        return sid

    initial = np.full((n, n), -1, dtype=np.int64)
    for dest in range(n):
        for src in range(n):
            if src != dest:
                initial[src, dest] = intern(src, rf.initial_header(src, dest))
    succ: List[int] = []
    deliver: List[bool] = []
    idx = 0
    while idx < len(nodes):  # intern() appends newly discovered states
        node, header = nodes[idx], headers[idx]
        port = rf.port(node, header)
        if port == DELIVER:
            succ.append(idx)
            deliver.append(True)
        else:
            nxt = graph.neighbor_at_port(node, port)
            succ.append(intern(nxt, rf.next_header(node, header)))
            deliver.append(False)
        idx += 1
    sdt = transition_dtype(len(nodes))
    succ_arr = np.asarray(succ, dtype=sdt)
    deliver_arr = np.asarray(deliver, dtype=bool)
    return HeaderStateProgram(
        succ=succ_arr,
        deliver=deliver_arr,
        node_of=np.asarray(nodes, dtype=transition_dtype(n)),
        hops_to_deliver=functional_hops(succ_arr, deliver_arr).astype(sdt),
        initial=initial.astype(sdt),
        headers=tuple(headers),
    )


def frontier_rebuild_distances(
    graph_after: PortLabeledGraph,
    dist_before: np.ndarray,
    added: List[Tuple[int, int]],
    removed: List[Tuple[int, int]],
) -> Tuple[np.ndarray, int, int]:
    """``(dist_after, reconverge_rounds, recomputed_columns)`` by full frontier BFS.

    Every destination column a removed edge lay on a shortest path of is
    recomputed by a Python BFS on ``graph_after``; the added edges are then
    relaxed over the whole matrix, one edge direction at a time, until a
    sweep changes nothing.
    """
    n = graph_after.n
    d = np.array(dist_before, dtype=np.int64, copy=True)
    recomputed = 0
    if removed:
        affected = np.zeros(n, dtype=bool)
        for u, v in removed:
            affected |= np.abs(d[u, :] - d[v, :]) == 1
        for t in np.nonzero(affected)[0].tolist():
            col = bfs_distances(graph_after, t)
            d[:, t] = col
            d[t, :] = col
            recomputed += 1
    rounds = 0
    inf = 1 << 40
    work = np.where(d == UNREACHABLE, inf, d)
    while added:
        progressed = False
        for u, v in added:
            for a, b in ((u, v), (v, u)):
                cand = work[:, a, None] + 1 + work[None, b, :]
                better = cand < work
                if better.any():
                    work[better] = cand[better]
                    progressed = True
        if not progressed:
            break
        rounds += 1
    return np.where(work >= inf, UNREACHABLE, work), rounds, recomputed
