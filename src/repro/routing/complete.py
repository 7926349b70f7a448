"""Routing on the complete graph: good versus adversarial port labellings.

The paper's Section 1 example: on ``K_n`` a local routing function must know
which port leads to which neighbour.  If an adversary labels the ports of a
vertex ``x`` with an arbitrary permutation, reaching a prescribed neighbour
requires knowing the full permutation — ``log((n-1)!) ≈ (n-1) log(n-1)``
bits.  If instead the ports are labelled by the rule
``port(x, v) = ((v - x) mod n)``, the local routing function is the closed
form "use port ``(dest - me) mod n``" and ``O(log n)`` bits (the node's own
label) suffice: ``MEM_local(K_n, 1) = O(log n)``.

Both labellings are provided so the memory benchmarks of experiment E7 can
measure the two regimes on the very same graph family.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.graphs.digraph import PortLabeledGraph
from repro.graphs.properties import is_complete
from repro.routing.model import (
    BaseRoutingScheme,
    DestinationBasedRoutingFunction,
    TableRoutingFunction,
)

__all__ = ["ModularCompleteGraphScheme", "AdversarialCompleteGraphScheme", "ModularCompleteRoutingFunction"]


class ModularCompleteRoutingFunction(DestinationBasedRoutingFunction):
    """Closed-form routing on ``K_n`` with the modular port labelling."""

    def port_to(self, node: int, dest: int) -> int:
        n = self._graph.n
        return (dest - node) % n

    def parametric_description_bits(self) -> int:
        """Bits to describe the local rule: the node's own label plus O(1)."""
        return max(int(np.ceil(np.log2(max(self._graph.n, 2)))), 1)


class ModularCompleteGraphScheme(BaseRoutingScheme):
    """Complete-graph scheme installing the good (modular) port labelling.

    ``build`` *relabels the ports* of the input graph in place so that
    ``port(x, v) = (v - x) mod n`` and returns the closed-form routing
    function.  The relabelling is exactly the "suitable port labelling" the
    paper invokes to obtain ``MEM_local(K_n, 1) = O(log n)``.
    """

    name = "complete-modular"
    stretch_guarantee = 1.0

    def build(self, graph: PortLabeledGraph) -> ModularCompleteRoutingFunction:
        if not is_complete(graph):
            raise ValueError("this scheme only applies to complete graphs")
        n = graph.n
        for x in range(n):
            mapping = {v: (v - x) % n for v in graph.neighbors(x)}
            graph.set_port_labeling(x, mapping)
        return ModularCompleteRoutingFunction(graph)


class AdversarialCompleteGraphScheme(BaseRoutingScheme):
    """Complete-graph scheme under an adversarial (random) port labelling.

    ``build`` relabels the ports of every vertex with an independent random
    permutation and returns the routing-table function that routes each
    destination through its direct port.  The local map of a vertex is then
    an arbitrary permutation of ``1..n-1``: no encoding shorter than
    ``log((n-1)!)`` bits can describe it in general, which is the paper's
    ``Θ(n log n)`` adversarial bound.
    """

    name = "complete-adversarial"
    stretch_guarantee = 1.0

    def __init__(self, seed: Optional[int] = None) -> None:
        self.seed = seed

    def build(self, graph: PortLabeledGraph) -> TableRoutingFunction:
        if not is_complete(graph):
            raise ValueError("this scheme only applies to complete graphs")
        rng = np.random.default_rng(self.seed)
        n = graph.n
        for x in range(n):
            neighbors = graph.neighbors(x)
            perm = rng.permutation(len(neighbors)) + 1
            mapping = {v: int(p) for v, p in zip(neighbors, perm)}
            graph.set_port_labeling(x, mapping)
        # The direct port of every pair: in port order, slot k of x's
        # adjacency row is port k + 1.
        indptr, indices = graph.adjacency_arrays()
        owner = np.repeat(np.arange(n), np.diff(indptr))
        ports = np.zeros((n, n), dtype=np.int64)
        ports[owner, indices] = np.arange(indices.size) - indptr[owner] + 1
        return TableRoutingFunction(graph, ports, validate=False)
