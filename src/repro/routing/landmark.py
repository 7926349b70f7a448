"""Cowen-style landmark (pivot) routing — a universal stretch-3 scheme.

This is the classical space/stretch trade-off construction underlying the
``s >= 3`` rows of Table 1: pick a set ``L`` of *landmarks*; every vertex
``u`` stores

* the output port of a shortest path towards every landmark, and
* the output port towards every vertex of its *cluster*
  ``C(u) = { v : d(u, v) < d(v, L) }`` (vertices strictly closer to ``u``
  than to their own nearest landmark).

The address of a destination ``v`` is ``(v, l(v), e(v))`` where ``l(v)`` is
``v``'s nearest landmark and ``e(v)`` the output port used at ``l(v)`` on a
shortest path towards ``v``.  Routing a message from ``u`` to ``v``:

1. if ``v ∈ C(u)`` or ``v`` is a landmark known to ``u`` → forward on the
   stored shortest-path port (and the same holds inductively at every node
   closer to ``v``);
2. otherwise forward towards ``l(v)`` on the stored landmark port; when the
   message reaches ``l(v)`` it exits through ``e(v)``, and the node reached
   is strictly closer to ``v`` than ``d(v, l(v))``, hence ``v`` lies in its
   cluster and case 1 applies forever after.

The resulting routing path length is at most ``d(u, v) + 2 d(v, l(v)) <=
3 d(u, v)`` whenever case 2 is taken, hence stretch ≤ 3.  Memory per vertex
is ``O((|L| + |C(u)|) log n)`` bits; choosing ``|L| ≈ sqrt(n log n)``
balances the two terms at ``Õ(sqrt(n))`` in expectation on arbitrary graphs.

The scheme is *labeled* (addresses carry ``O(log n)`` extra bits); the paper
explicitly accounts for such schemes in its Table 1 comments, and the memory
report separates table bits from address bits.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, Hashable, List, Optional, Set, Tuple

import numpy as np

from repro.graphs.digraph import PortLabeledGraph
from repro.graphs.shortest_paths import UNREACHABLE, distance_matrix
from repro.routing.model import (
    DELIVER,
    BaseRoutingScheme,
    HeaderStateEvaluator,
    LabeledRoutingFunction,
    uses_own,
)
from repro.routing.tables import shortest_path_choices

__all__ = [
    "LandmarkAddress",
    "LandmarkRoutingFunction",
    "RewritingLandmarkRoutingFunction",
    "CowenLandmarkScheme",
]


@dataclass(frozen=True)
class LandmarkAddress:
    """Routing address ``(dest, landmark, port_at_landmark)`` of a destination."""

    dest: int
    landmark: int
    port_at_landmark: int


class LandmarkRoutingFunction(LabeledRoutingFunction):
    """Routing function of the Cowen landmark scheme.

    Every decision reads one of the scheme's shortest-path arrays: a
    stored port is the shortest-path port towards a cluster member or a
    landmark, and the address of ``v`` carries the port its landmark uses
    towards it.

    Parameters
    ----------
    graph:
        Underlying connected graph.
    landmarks:
        The landmark set (non-empty).
    next_hop, ports:
        ``(n, n)`` shortest-path next hops and their ports
        (:func:`repro.routing.tables.shortest_path_choices`).
    cluster:
        ``(n, n)`` boolean matrix, ``cluster[u, v]`` true when ``v`` is in
        the cluster of ``u`` (``u`` stores a direct port for it); the
        diagonal is false.
    nearest:
        ``nearest[v]`` is the landmark of ``v``'s address.
    """

    def __init__(
        self,
        graph: PortLabeledGraph,
        landmarks: FrozenSet[int],
        next_hop: np.ndarray,
        ports: np.ndarray,
        cluster: np.ndarray,
        nearest: np.ndarray,
    ) -> None:
        super().__init__(graph)
        n = graph.n
        self._landmarks = landmarks
        self._next_hop = next_hop
        self._ports = ports
        self._cluster = cluster
        self._nearest = nearest
        self._is_landmark = np.zeros(n, dtype=bool)
        self._is_landmark[sorted(landmarks)] = True
        self._addresses = [
            LandmarkAddress(
                dest=v,
                landmark=int(nearest[v]),
                port_at_landmark=int(ports[nearest[v], v]) if nearest[v] != v else DELIVER,
            )
            for v in range(n)
        ]

    # ------------------------------------------------------------------
    @property
    def landmarks(self) -> FrozenSet[int]:
        """The landmark set."""
        return self._landmarks

    def cluster(self, node: int) -> Set[int]:
        """Cluster of ``node`` (the destinations it stores a direct port for)."""
        return set(np.nonzero(self._cluster[node])[0].tolist())

    def address(self, dest: int) -> LandmarkAddress:
        """Routing address of ``dest``."""
        return self._addresses[dest]

    def table_entries(self, node: int) -> Dict[int, int]:
        """All ``target -> port`` entries stored at ``node`` (landmarks, then cluster)."""
        stored = self._is_landmark.copy()
        stored[node] = False
        targets = np.nonzero(stored)[0].tolist()
        targets += np.nonzero(self._cluster[node] & ~stored)[0].tolist()
        return {t: int(self._ports[node, t]) for t in targets}

    def local_table_size(self, node: int) -> int:
        """Number of (target, port) entries stored at ``node``."""
        stored = self._cluster[node] | self._is_landmark
        return int(stored.sum()) - int(self._is_landmark[node])

    def _stores(self, node: int, dest: int) -> bool:
        """Whether ``node`` stores a direct port towards ``dest != node``."""
        return bool(self._cluster[node, dest] or self._is_landmark[dest])

    # ------------------------------------------------------------------
    def port(self, node: int, header: LandmarkAddress) -> int:
        dest = header.dest
        if node == dest:
            return DELIVER
        if self._stores(node, dest):
            return int(self._ports[node, dest])
        if node == header.landmark:
            return header.port_at_landmark
        return int(self._ports[node, header.landmark])

    def next_node_array(self) -> Optional[np.ndarray]:
        """Next nodes by indexing: stored ports go direct, the rest via ``L(d)``.

        ``where(direct | x == L(d), next_hop, next_hop[:, L])``: a router
        storing a port for ``d`` (and ``d``'s own landmark, exiting through
        the address port) takes its shortest-path hop towards ``d``, every
        other router its hop towards ``d``'s landmark.
        """
        if not uses_own(self, LandmarkRoutingFunction, "port", "address"):
            return None
        n = self._graph.n
        own = np.arange(n)
        direct = (
            self._cluster
            | self._is_landmark[None, :]
            | (own[:, None] == self._nearest[None, :])
        )
        direct[own, own] = True
        return np.where(direct, self._next_hop, self._next_hop[:, self._nearest])


class RewritingLandmarkRoutingFunction(LandmarkRoutingFunction):
    """Two-phase landmark routing with an explicitly rewritten header.

    Same tables, same routes, different ``H``: the message starts with the
    full :class:`LandmarkAddress` (phase 1, towards the landmark) and the
    header is *rewritten to the bare destination label* (phase 2) as soon as
    the current node forwards it on a stored shortest-path port — i.e. when
    the destination is in the node's cluster, the destination is itself a
    landmark, or the node is the destination's landmark exiting through
    ``port_at_landmark``.  The Cowen invariant (every node downstream of such
    a hop is strictly closer to the destination than ``d(v, L)``) guarantees
    the bare label suffices forever after, so ``P`` stays total on phase-2
    headers.

    Forwarding decisions coincide hop for hop with
    :class:`LandmarkRoutingFunction` (the test-suite pins this
    differentially), which makes the class the reference *header-rewriting*
    workload of the header-compiled simulator: its reachable header alphabet
    is finite (``n`` addresses plus ``n`` labels) but the header genuinely
    changes mid-route, so overriding ``next_header`` drops the class off
    the next-hop lowering and ``program_kind()`` resolves to
    ``"header-state"`` through the inherited ``can_vectorize`` promise.
    """

    def port(self, node: int, header: Hashable) -> int:
        if isinstance(header, LandmarkAddress):
            return super().port(node, header)
        dest = int(header)  # type: ignore[call-overload]
        if node == dest:
            return DELIVER
        if self._stores(node, dest):
            return int(self._ports[node, dest])
        raise ValueError(
            f"rewriting-landmark invariant broken: node {node} stores no port "
            f"for rewritten destination {dest}"
        )

    def next_header(self, node: int, header: Hashable) -> Hashable:
        if not isinstance(header, LandmarkAddress):
            return header
        dest = header.dest
        if (dest != node and self._stores(node, dest)) or node == header.landmark:
            return dest
        return header

    def header_state_evaluator(self) -> Optional[HeaderStateEvaluator]:
        """Frontier steps by indexing the scheme's arrays (:class:`_LandmarkStates`)."""
        if not (
            uses_own(self, RewritingLandmarkRoutingFunction, "port", "next_header")
            and uses_own(self, LandmarkRoutingFunction, "address")
            and uses_own(self, LabeledRoutingFunction, "initial_header")
        ):
            return None
        return _LandmarkStates(self)


class _LandmarkStates(HeaderStateEvaluator):
    """Header-state transitions of :class:`RewritingLandmarkRoutingFunction` as arrays.

    Header codes: ``d`` is the full address of ``d`` (phase 1), ``n + d``
    the bare label ``d`` (phase 2).
    """

    def __init__(self, rf: RewritingLandmarkRoutingFunction) -> None:
        self._rf = rf
        self._n = rf.graph.n

    def initial_codes(self) -> np.ndarray:
        n = self._n
        return np.broadcast_to(np.arange(n, dtype=np.int64)[None, :], (n, n))

    def step(
        self, nodes: np.ndarray, codes: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        rf, n = self._rf, self._n
        bare = codes >= n
        dest = np.where(bare, codes - n, codes)
        deliver = nodes == dest
        direct = rf._cluster[nodes, dest] | rf._is_landmark[dest]
        stranded = bare & ~deliver & ~direct
        if stranded.any():
            i = int(np.argmax(stranded))
            raise ValueError(
                f"rewriting-landmark invariant broken: node {int(nodes[i])} stores no "
                f"port for rewritten destination {int(dest[i])}"
            )
        # Phase 1 drops to the bare label wherever the hop is a stored
        # shortest-path port: a direct entry, or d's landmark exiting
        # through the address port (its hop towards d).
        rewrite = ~bare & (direct | (nodes == rf._nearest[dest]))
        towards = np.where(bare | rewrite, dest, rf._nearest[dest])
        next_node = rf._next_hop[nodes, towards]
        next_code = np.where(rewrite, codes + n, codes)
        return deliver, next_node, next_code

    def headers(self, codes: np.ndarray) -> List[Hashable]:
        n, addresses = self._n, self._rf._addresses
        decoded: List[Hashable] = [
            addresses[code] if code < n else code - n for code in codes.tolist()
        ]
        return decoded


class CowenLandmarkScheme(BaseRoutingScheme):
    """Universal landmark routing scheme with worst-case stretch 3.

    Parameters
    ----------
    num_landmarks:
        Number of landmarks to select; ``None`` selects
        ``ceil(sqrt(n * max(log2 n, 1)))`` (the balanced choice).
    selection:
        ``"random"`` samples landmarks uniformly; ``"degree"`` picks the
        highest-degree vertices (a common practical heuristic that shrinks
        clusters on skewed-degree graphs).
    seed:
        Seed of the random selection.
    rewriting:
        When true, build :class:`RewritingLandmarkRoutingFunction` (the
        two-phase header-rewriting formulation) instead of the
        header-constant :class:`LandmarkRoutingFunction`; routes are
        identical.
    """

    name = "cowen-landmark"
    stretch_guarantee = 3.0

    def __init__(
        self,
        num_landmarks: Optional[int] = None,
        selection: str = "random",
        seed: Optional[int] = None,
        rewriting: bool = False,
    ) -> None:
        if selection not in ("random", "degree"):
            raise ValueError("selection must be 'random' or 'degree'")
        self.num_landmarks = num_landmarks
        self.selection = selection
        self.seed = seed
        self.rewriting = rewriting

    # ------------------------------------------------------------------
    def _pick_landmarks(self, graph: PortLabeledGraph) -> FrozenSet[int]:
        n = graph.n
        k = self.num_landmarks
        if k is None:
            k = int(np.ceil(np.sqrt(n * max(np.log2(max(n, 2)), 1.0))))
        k = max(1, min(k, n))
        if self.selection == "degree":
            order = sorted(range(n), key=lambda v: (-graph.degree(v), v))
            return frozenset(order[:k])
        rng = np.random.default_rng(self.seed)
        return frozenset(int(v) for v in rng.choice(n, size=k, replace=False))

    def build(self, graph: PortLabeledGraph) -> LandmarkRoutingFunction:
        """Build the landmark routing function for a connected graph."""
        n = graph.n
        if n == 0:
            raise ValueError("cannot route on the empty graph")
        dist = distance_matrix(graph)
        if n > 1 and (dist == UNREACHABLE).any():
            raise ValueError("landmark routing requires a connected graph")
        landmarks = self._pick_landmarks(graph)
        next_hop, ports = shortest_path_choices(graph, tie_break="lowest_port", dist=dist)

        landmark_list = np.array(sorted(landmarks))
        # Nearest landmark of every vertex (ties broken towards the smallest label).
        dist_to_landmarks = dist[:, landmark_list]  # shape (n, |L|)
        nearest_idx = np.argmin(dist_to_landmarks, axis=1)
        nearest = landmark_list[nearest_idx]
        dist_to_nearest = dist_to_landmarks[np.arange(n), nearest_idx]

        # Clusters: C(u) = { v != u : d(u, v) < d(v, L) }.
        cluster = dist < dist_to_nearest[None, :]
        np.fill_diagonal(cluster, False)

        function_class = (
            RewritingLandmarkRoutingFunction if self.rewriting else LandmarkRoutingFunction
        )
        return function_class(graph, landmarks, next_hop, ports, cluster, nearest)
