"""Shortest-path routing tables — the universal ``O(n log n)``-bit scheme.

The baseline universal routing scheme of the paper: every router stores, for
every destination, the output port of one shortest path towards it.  Encoded
naively this costs ``(n - 1) * ceil(log2 deg(x))`` bits at a router ``x``
(about ``n log n`` bits in the worst case), and Theorem 1 shows that for any
stretch factor below 2 this cannot be asymptotically improved on some
networks.

The scheme is parameterised by the tie-breaking rule used when several
shortest paths exist, because different rules produce tables of different
compressibility (e.g. the interval coder of :mod:`repro.memory.coder`
benefits from the ``lowest_port`` rule on ring-like graphs).
"""

from __future__ import annotations

from typing import Literal, Optional, Tuple, get_args

import numpy as np

from repro.graphs.digraph import PortLabeledGraph
from repro.graphs.shortest_paths import UNREACHABLE, distance_matrix
from repro.routing.model import DELIVER, BaseRoutingScheme, TableRoutingFunction

__all__ = ["ShortestPathTableScheme", "build_next_hop_matrix", "shortest_path_choices"]

TieBreak = Literal["lowest_neighbor", "lowest_port", "highest_port"]


def shortest_path_choices(
    graph: PortLabeledGraph,
    tie_break: TieBreak = "lowest_port",
    dist: Optional[np.ndarray] = None,
    rows: Optional[np.ndarray] = None,
) -> Tuple[np.ndarray, np.ndarray]:
    """The tie-broken shortest-path choice of every ``(x, dest)``: next hops and ports.

    Returns ``(next_hop, ports)``: ``next_hop[x, dest]`` is the neighbour of
    ``x`` chosen among those on a shortest path to ``dest`` and
    ``ports[x, dest]`` the port it sits behind.  The diagonal holds ``x``
    and :data:`~repro.routing.model.DELIVER`; unreachable destinations hold
    ``-1`` in both.  ``rows`` restricts the computation to those routers
    (the result then has one row per entry of ``rows``), which is how the
    churn delta re-decides its dirty rows.

    One pass over the port index ``k``: step ``k`` compares, for every
    router of degree above ``k``, the distances of its port-``k + 1``
    neighbour with its own, so the work is ``O(max_degree * n^2)`` numpy
    operations in ``O(n^2)`` memory.  The rules: ``lowest_port`` keeps the
    first port on a shortest path, ``highest_port`` the last, and
    ``lowest_neighbor`` the smallest neighbour label.
    """
    if tie_break not in get_args(TieBreak):
        raise ValueError(f"unknown tie break rule {tie_break!r}")
    n = graph.n
    if dist is None:
        dist = distance_matrix(graph)
    rows = np.arange(n) if rows is None else np.asarray(rows, dtype=np.int64)
    indptr, indices = graph.adjacency_arrays()
    degrees = np.diff(indptr)[rows]
    # A neighbour is on a shortest path iff it is one hop closer; an
    # unreachable destination (-1) asks for -2, which no distance equals.
    wanted = dist[rows] - 1
    next_hop = np.full((rows.size, n), UNREACHABLE, dtype=np.int64)
    ports = np.full((rows.size, n), UNREACHABLE, dtype=np.int64)
    for k in range(int(degrees.max(initial=0))):
        live = np.nonzero(degrees > k)[0]
        sub = slice(None) if live.size == rows.size else live
        nbr = indices[indptr[rows[live]] + k]
        take = dist[nbr] == wanted[sub]
        current = next_hop[sub]
        if tie_break == "lowest_port":
            take &= current == UNREACHABLE
        elif tie_break == "lowest_neighbor":
            take &= (current == UNREACHABLE) | (nbr[:, None] < current)
        next_hop[sub] = np.where(take, nbr[:, None], current)
        ports[sub] = np.where(take, k + 1, ports[sub])
    own = np.arange(rows.size)
    next_hop[own, rows] = rows
    ports[own, rows] = DELIVER
    return next_hop, ports


def build_next_hop_matrix(
    graph: PortLabeledGraph,
    tie_break: TieBreak = "lowest_port",
    dist: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Next-hop matrix ``next_hop[x, dest]`` of one shortest-path routing.

    ``next_hop[x, x] = x``; entries for unreachable destinations are ``-1``.
    The next-hop half of :func:`shortest_path_choices`.
    """
    return shortest_path_choices(graph, tie_break=tie_break, dist=dist)[0]


class ShortestPathTableScheme(BaseRoutingScheme):
    """Universal shortest-path routing scheme based on full routing tables.

    Parameters
    ----------
    tie_break:
        Rule used to pick a next hop when several shortest paths exist.

    Notes
    -----
    ``stretch_guarantee`` is 1: the produced routing functions always route
    along shortest paths.
    """

    name = "routing-tables"
    stretch_guarantee = 1.0

    def __init__(self, tie_break: TieBreak = "lowest_port") -> None:
        self.tie_break: TieBreak = tie_break

    def build(self, graph: PortLabeledGraph) -> TableRoutingFunction:
        """Build the shortest-path table routing function for ``graph``.

        Raises :class:`ValueError` on disconnected graphs (routing functions
        are only defined on connected networks in the paper's model).
        """
        dist = distance_matrix(graph)
        if graph.n > 1 and (dist == UNREACHABLE).any():
            raise ValueError("routing tables require a connected graph")
        _, ports = shortest_path_choices(graph, tie_break=self.tie_break, dist=dist)
        return TableRoutingFunction(graph, ports, validate=False)
