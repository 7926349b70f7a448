"""Vectorized traffic/flow analysis over compiled routing programs.

Every experiment so far routes each ordered pair once; production traffic
is skewed and continuous.  This module pushes a seeded **demand matrix**
(millions of messages expressed as weighted pair counts — a single float64
array, never per-message objects) through a compiled
:class:`~repro.routing.program.RoutingProgram` and reports where the
traffic actually lands:

* per-directed-arc **load** (``edge_load[u, v]`` = messages crossing the
  arc ``u -> v``) and per-node load (messages originated at, forwarded
  through, or delivered to each vertex);
* **maximum congestion** (the most-loaded arc) — the load-balance axis the
  paper's memory/stretch trade-off is missing;
* **capacity-constrained throughput**: the uniform scaling
  ``lambda* = capacity / max_congestion`` under which no arc exceeds its
  capacity, plus an LRSIM-style per-interface free-bandwidth allocation
  (``one_iface_free_bw_allocation_only_over_isls``): each interface's
  capacity is split over the flows crossing it proportionally to demand,
  so a flow is granted ``demand * min over its path of (capacity / load)``
  — computed analytically from per-pair path bottlenecks instead of
  LRSIM's per-flow loop.

Load accumulation never walks hops per pair.  A compiled program is a
functional graph on states: ``d * n + c`` with successor
``d * n + next_node[c, d]`` for a next-hop program (kept implicit, as
index arithmetic), or the interned ``(node, header)`` states with
``succ`` / ``node_of`` / ``initial`` for a header-state program; a masked
view is the same graph with more stops.  Delivered routes are paths to a
delivering stop, and each state's exact hop depth is known statically:
the verification report's hop counts
(:attr:`~repro.routing.verify.VerificationReport.hops`) for next-hop
programs, the verifier's own stop resolution for header-state programs.
Ordering the states by that depth turns load accumulation into
layer-by-layer **subtree sums**: each layer pushes its accumulated demand
one hop down with a single ``np.add.at``, and one final ``np.bincount``
over arc codes ``u * n + v`` converts the per-state subtree sums into arc
loads.  Total scatter volume is one write per state instead of one per
pair-hop (``O(n^2 * avg hops)``).

The accumulator is **exact** on integer-valued demand (which the
generators always emit): :func:`route_demand` rejects totals above
``2**53``, so every subtree sum is an exact float64 integer, and the
subtree sums and a brute-force per-pair path walk agree byte for byte —
``tests/test_flow.py`` pins this differentially.  (A next-hop route
crosses each arc once, so its loads stay under the total too; a
header-state route may revisit a node under another header.)

Minimal example — route a uniform demand matrix through a compiled
shortest-path program and read off congestion:

>>> from repro.graphs.generators import cycle_graph
>>> from repro.routing.tables import ShortestPathTableScheme
>>> from repro.analysis.flow import route_demand, uniform_demand
>>> graph = cycle_graph(6)
>>> program = ShortestPathTableScheme().build(graph).compile_program()
>>> flow = route_demand(program, uniform_demand(graph.n, total=3000.0))
>>> float(flow.delivered_fraction)
1.0
>>> float(flow.max_congestion)
600.0
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.routing.model import SchemeInapplicableError
from repro.routing.program import (
    DROPPED,
    GenericProgram,
    HeaderStateProgram,
    NextHopProgram,
    RoutingProgram,
    _resolve_stops,
    transition_dtype,
)
from repro.routing.verify import (
    VERDICT_DELIVERED,
    VERDICT_INFEASIBLE,
    VerificationReport,
    verify_program,
)
from repro.sim.engine import SimulationResult

if TYPE_CHECKING:  # runtime imports are deferred: runner imports flow back
    from repro.analysis.runner import ExperimentCache, ShardedRunner, ShardStats
    from repro.graphs.digraph import PortLabeledGraph

__all__ = [
    "DEMAND_MODELS",
    "DemandMatrix",
    "FlowCellResult",
    "FlowResult",
    "demand_matrix",
    "demand_models",
    "flow_cell",
    "flow_sweep",
    "format_flow",
    "gravity_demand",
    "route_demand",
    "uniform_demand",
    "zipf_demand",
]

#: The demand skews every sweep crosses with the scheme x family grid.
DEMAND_MODELS: Tuple[str, ...] = ("uniform", "zipf", "gravity")

#: Default total message count of a generated matrix ("millions of
#: messages" at registry sizes: the counts are integers, see _finalize).
DEFAULT_TOTAL = 1_000_000.0


# ----------------------------------------------------------------------
# demand matrices
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class DemandMatrix:
    """A seeded traffic matrix: ``demand[s, d]`` messages from ``s`` to ``d``.

    Entries are integer-valued float64 message counts (weighted pair
    counts), zero on the diagonal.  Integer values are what make the
    subtree sums byte-identical to a per-pair walk: float64 addition is
    exact on integers up to ``2**53``.
    """

    demand: np.ndarray
    model: str
    seed: Optional[int]

    @property
    def n(self) -> int:
        """Number of vertices the matrix is defined over."""
        return int(self.demand.shape[0])

    @property
    def total(self) -> float:
        """Total message count over all ordered pairs."""
        return float(self.demand.sum())


def _finalize(
    weights: np.ndarray, total: float, model: str, seed: Optional[int]
) -> DemandMatrix:
    """Scale nonnegative pair weights to ``~total`` integer message counts.

    The diagonal is zeroed, the weights normalised to ``total`` and rounded
    to the nearest integer; when rounding would extinguish every pair the
    matrix degrades to one message per positive-weight pair, so a demand
    matrix is never silently empty.
    """
    w = np.array(weights, dtype=np.float64, copy=True)
    if w.ndim != 2 or w.shape[0] != w.shape[1]:
        raise ValueError(f"demand weights must be square, got shape {w.shape}")
    if not np.isfinite(w).all() or (w < 0).any():
        raise ValueError("demand weights must be finite and nonnegative")
    np.fill_diagonal(w, 0.0)
    mass = float(w.sum())
    if mass <= 0.0:
        raise ValueError("demand weights sum to zero: no traffic to route")
    counts = np.floor(w * (float(total) / mass) + 0.5)
    if counts.max() == 0.0:
        counts = (w > 0).astype(np.float64)
    return DemandMatrix(demand=counts, model=model, seed=seed)


def uniform_demand(
    n: int, *, total: float = DEFAULT_TOTAL, seed: Optional[int] = None
) -> DemandMatrix:
    """Every ordered off-diagonal pair sends the same message count."""
    if n < 2:
        raise ValueError(f"a demand matrix needs n >= 2 vertices, got n={n}")
    return _finalize(np.ones((n, n)), total, "uniform", seed)


def zipf_demand(
    n: int, *, total: float = DEFAULT_TOTAL, exponent: float = 1.0, seed: int = 0
) -> DemandMatrix:
    """Zipf-skewed demand: node popularity ``rank ** -exponent``.

    The seeded generator only permutes which node gets which rank, so the
    *skew profile* is a pure function of ``(n, exponent)`` and the hot
    nodes move with the seed — the product form ``pop[s] * pop[d]``
    concentrates traffic on few (source, destination) pairs the way web
    and CDN traces do.
    """
    if n < 2:
        raise ValueError(f"a demand matrix needs n >= 2 vertices, got n={n}")
    rng = np.random.default_rng(seed)
    ranks = rng.permutation(n).astype(np.float64) + 1.0
    pop = ranks ** -float(exponent)
    return _finalize(np.outer(pop, pop), total, "zipf", seed)


def gravity_demand(
    n: int,
    *,
    total: float = DEFAULT_TOTAL,
    seed: int = 0,
    dist: Optional[np.ndarray] = None,
    alpha: float = 1.0,
) -> DemandMatrix:
    """Gravity-model demand: ``mass[s] * mass[d] / distance ** alpha``.

    Node masses are seeded gamma draws (heavy-tailed city sizes); passing
    the graph's distance matrix adds the classic distance deterrence so
    nearby heavy nodes exchange the most traffic.  Unreachable pairs
    (negative distance sentinel) get zero demand.
    """
    if n < 2:
        raise ValueError(f"a demand matrix needs n >= 2 vertices, got n={n}")
    rng = np.random.default_rng(seed)
    mass = rng.gamma(shape=2.0, scale=1.0, size=n) + 1e-3
    w = np.outer(mass, mass)
    if dist is not None:
        d = np.asarray(dist, dtype=np.float64)
        if d.shape != (n, n):
            raise ValueError(f"distance matrix shape {d.shape} != ({n}, {n})")
        w = np.where(d < 0, 0.0, w / np.maximum(d, 1.0) ** float(alpha))
    return _finalize(w, total, "gravity", seed)


def demand_matrix(
    model: Union[str, DemandMatrix, np.ndarray],
    n: int,
    *,
    total: float = DEFAULT_TOTAL,
    seed: int = 0,
    dist: Optional[np.ndarray] = None,
) -> DemandMatrix:
    """Resolve a demand spec — a model name, a matrix, or a raw array.

    The hook surface of the sweeps: ``resilience_sweep(flow="zipf")`` and
    friends pass the spec through here once per cell, so a string buys a
    seeded generated matrix at the cell's own ``n`` while precomputed
    matrices pass straight through (shape-checked).
    """
    if isinstance(model, DemandMatrix):
        if model.n != n:
            raise ValueError(f"demand matrix is over n={model.n}, cell has n={n}")
        return model
    if isinstance(model, np.ndarray):
        return _finalize(model, float(np.asarray(model, dtype=np.float64).sum()), "custom", None)
    if model == "uniform":
        return uniform_demand(n, total=total)
    if model == "zipf":
        return zipf_demand(n, total=total, seed=seed)
    if model == "gravity":
        return gravity_demand(n, total=total, seed=seed, dist=dist)
    raise ValueError(
        f"unknown demand model {model!r}: expected one of {DEMAND_MODELS}, "
        "a DemandMatrix, or a raw (n, n) array"
    )


def demand_models(
    n: int,
    *,
    total: float = DEFAULT_TOTAL,
    seed: int = 0,
    dist: Optional[np.ndarray] = None,
) -> Dict[str, DemandMatrix]:
    """All registry demand skews at one ``n`` (the sweep's demand axis)."""
    return {
        name: demand_matrix(name, n, total=total, seed=seed, dist=dist)
        for name in DEMAND_MODELS
    }


# ----------------------------------------------------------------------
# the flow result
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class FlowResult:
    """Where a demand matrix's traffic lands under one compiled program.

    Attributes
    ----------
    kind / n / mode:
        Program kind, vertex count, and the accumulator that ran — always
        ``"subtree"`` (the layered subtree sums); kept so flow rows keep
        their schema.
    model:
        The demand matrix's model name (``"uniform"`` / ``"zipf"`` /
        ``"gravity"`` / ``"custom"``).
    offered_demand / delivered_demand:
        Total demand over feasible pairs, and the subset whose pairs the
        program provably delivers.  Load counts **delivered traffic
        only** — a dropped message's walked prefix does not occupy
        capacity in this model, which is what makes every loaded state
        part of a delivered route.
    demand / delivered / lengths:
        The routed demand matrix, the delivered-pair mask, and the exact
        per-pair hop counts.  ``lengths`` **is** the verification
        report's ``hops`` array (shared, never copied): flow and verify
        consume one hop-count array per (program, mask) cell.
    edge_load:
        ``(n, n)`` float64; ``edge_load[u, v]`` is the demand crossing
        the directed arc ``u -> v`` (undirected edges carry one entry
        per direction).
    node_load:
        ``(n,)`` float64; demand originated at, forwarded through, or
        delivered to each vertex.
    path_max_load:
        ``(n, n)`` float64; the most-loaded arc on each delivered pair's
        route (0 where undelivered) — the per-flow bottleneck the
        LRSIM-style allocation divides interface capacity by.
    """

    kind: str
    n: int
    mode: str
    model: str
    offered_demand: float
    delivered_demand: float
    demand: np.ndarray
    delivered: np.ndarray
    lengths: np.ndarray
    edge_load: np.ndarray
    node_load: np.ndarray
    path_max_load: np.ndarray

    # ------------------------------------------------------------------
    @property
    def delivered_fraction(self) -> float:
        """Demand-weighted delivered fraction of the offered traffic."""
        if self.offered_demand <= 0.0:
            return 1.0
        return self.delivered_demand / self.offered_demand

    @property
    def max_congestion(self) -> float:
        """Load of the most-loaded directed arc."""
        return float(self.edge_load.max()) if self.edge_load.size else 0.0

    @property
    def max_node_load(self) -> float:
        """Load of the most-loaded vertex."""
        return float(self.node_load.max()) if self.node_load.size else 0.0

    def weighted_mean_hops(self) -> float:
        """Demand-weighted mean route length of the delivered traffic."""
        if self.delivered_demand <= 0.0:
            return 0.0
        routed = np.where(self.delivered, self.demand, 0.0)
        return float((routed * self.lengths).sum() / self.delivered_demand)

    # ------------------------------------------------------------------
    def uniform_scale(self, capacity: float = 1.0) -> float:
        """Largest ``lambda`` with ``lambda * load <= capacity`` on every arc.

        ``inf`` when nothing is loaded: an empty network admits any
        scaling.
        """
        peak = self.max_congestion
        return float(capacity) / peak if peak > 0.0 else float("inf")

    def uniform_throughput(self, capacity: float = 1.0) -> float:
        """Delivered demand under the uniform-capacity scaling ``lambda*``."""
        scale = self.uniform_scale(capacity)
        if not np.isfinite(scale):
            return 0.0
        return self.delivered_demand * scale

    def allocated_throughput(self, capacity: float = 1.0) -> float:
        """LRSIM-style per-interface free-bandwidth allocation.

        Each interface's capacity is split over the flows crossing it
        proportionally to their demand, and a flow is granted its
        worst-interface share: ``demand * min over the path of
        (capacity / load) = demand * capacity / path_max_load``.  Summing
        over delivered flows reproduces
        ``one_iface_free_bw_allocation_only_over_isls`` analytically —
        one vectorised expression instead of a loop over every flow.
        Always at least :meth:`uniform_throughput`, since a flow's own
        bottleneck is never more loaded than the global maximum.
        """
        mask = self.delivered & (self.demand > 0.0)
        if not bool(mask.any()):
            return 0.0
        share = self.demand[mask] / self.path_max_load[mask]
        return float(capacity) * float(share.sum())

    # ------------------------------------------------------------------
    def as_simulation_result(self) -> SimulationResult:
        """A :class:`SimulationResult` view sharing this flow's hop counts.

        Only defined when every feasible pair delivered (the hop-count
        conventions of the verifier and the executor agree exactly
        there); the returned result's ``lengths`` is this flow's array,
        not a copy.
        """
        off = ~np.eye(self.n, dtype=bool)
        if not bool(self.delivered[off].all()):
            raise ValueError(
                "as_simulation_result needs a fully-delivering cell: the "
                "executor's lengths convention (-1 for lost pairs) diverges "
                "from the verifier's walked-prefix convention otherwise"
            )
        mode = "header-compiled" if self.kind == "header-state" else "compiled"
        return SimulationResult.from_lengths(self.lengths, mode=mode)


# ----------------------------------------------------------------------
# layered subtree sums over a program's state graph
# ----------------------------------------------------------------------
def _subtree_loads(
    acc: np.ndarray,
    succ: np.ndarray,
    arc: np.ndarray,
    depth: np.ndarray,
    n: int,
    node_sum: Callable[[np.ndarray], np.ndarray],
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Accumulate loads as layered subtree sums over a functional state graph.

    ``acc[s]`` is the delivered demand that enters the walk at state ``s``
    (overwritten in place), ``succ[s]`` the state after its hop and
    ``arc[s]`` that hop's arc code ``u * n + v``.  ``depth[s]`` is one
    more than the exact number of hops from ``s`` to its delivering stop
    for every state on a delivered walk — ``1`` at the stops themselves —
    and ``0`` elsewhere; undelivered states carry zero weight, so their
    clipped codes are inert.  Processing layers deepest first pushes each
    state's accumulated subtree demand one hop down with a single
    ``np.add.at`` per layer (a parent is exactly one layer shallower than
    its children, so its own push happens only after every child's
    arrived).  After the pushes, ``acc[state]`` is the full demand of the
    state's subtree — the load on its outgoing arc — so ``node_sum``
    folds it into per-node loads, one ``np.bincount`` over arc codes
    materialises every arc load once the stops are zeroed (arrival mass
    takes no hop), and a second ascending pass propagates the per-state
    bottleneck (max arc load en route) top-down.

    Returns ``(edge_load, node_load, bottleneck)``; ``bottleneck`` is per
    state.  Raises :class:`ValueError` when demand is pushed into a state
    of depth ``0``, which depths taken from this program's stop analysis
    never do: it means a report verified against another program, or an
    ``alive`` mask killing nodes the program still routes through.
    """
    order = np.argsort(depth, kind="stable")
    bounds = np.concatenate(([0], np.cumsum(np.bincount(depth, minlength=3))))
    succ_o = succ[order]
    arc_o = arc[order]
    for layer in range(len(bounds) - 2, 1, -1):
        lo, hi = int(bounds[layer]), int(bounds[layer + 1])
        if lo < hi:
            np.add.at(acc, succ_o[lo:hi], acc[order[lo:hi]])
    if acc[order[: bounds[1]]].any():
        raise ValueError(
            "delivered demand reached a state the report does not deliver: "
            "the report and alive mask must describe this program"
        )
    node_load = node_sum(acc)
    acc[order[: bounds[2]]] = 0.0  # stops: arrived traffic takes no hop
    edge_load = np.bincount(arc, weights=acc, minlength=n * n)
    bottleneck = np.zeros(acc.shape[0], dtype=np.float64)
    for layer in range(2, len(bounds) - 1):
        lo, hi = int(bounds[layer]), int(bounds[layer + 1])
        if lo < hi:
            bottleneck[order[lo:hi]] = np.maximum(
                edge_load[arc_o[lo:hi]], bottleneck[succ_o[lo:hi]]
            )
    return edge_load.reshape(n, n), node_load, bottleneck


def _next_hop_loads(
    program: NextHopProgram,
    routed: np.ndarray,
    delivered: np.ndarray,
    lengths: np.ndarray,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Subtree sums over the flat destination-major states ``d * n + c``.

    The state graph stays implicit: ``succ`` and ``arc`` are index
    arithmetic on ``next_node`` and the depths are the report's hop
    counts, so no state array wider than the ``n * n`` grid itself is
    built.  Index codes and depths take the narrowest dtype that holds
    them (int32 codes and int16 depths at n = 4096: a delivered walk is
    shorter than ``n``).
    """
    n = program.n
    idx_t = transition_dtype(n * n)
    acc = np.ascontiguousarray(routed.T).ravel()  # acc[d * n + c] = routed[c, d]
    depth = np.where(delivered.T, lengths.T + 1, 0)
    depth = depth.astype(transition_dtype(n + 1)).ravel()
    depth[:: n + 1] = 1  # (d, d): the stops
    # Sentinel transitions (undelivered states) clip to node 0: their
    # weight is identically zero, so the fabricated codes are inert.
    nxt = np.maximum(program.next_node.T, 0).astype(idx_t)
    rows = np.arange(n, dtype=idx_t)[:, None]
    cols = np.arange(n, dtype=idx_t)[None, :]
    succ = (rows * n + nxt).ravel()  # same-destination next state
    arc = (cols * n + nxt).ravel()  # directed edge (cur, nxt)
    edge_load, node_load, bottleneck = _subtree_loads(
        acc, succ, arc, depth, n, lambda a: a.reshape(n, n).sum(axis=0)
    )
    return edge_load, node_load, np.ascontiguousarray(bottleneck.reshape(n, n).T)


def _header_state_loads(
    program: HeaderStateProgram, routed: np.ndarray, delivered: np.ndarray
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Subtree sums over the interned ``(node, header)`` states.

    Depths come from the verifier's own stop analysis
    (:func:`~repro.routing.program._resolve_stops`, delivering and
    dropped states stopping), never from the stored ``hops_to_deliver``
    field.  Each delivered pair's demand enters at its initial state.
    """
    n = program.n
    succ, deliver = program.succ, program.deliver
    num_states = succ.shape[0]
    if not num_states:  # no state, no pair to route (np.bincount would go integer)
        return np.zeros((n, n)), np.zeros(n), np.zeros((n, n))
    idx_t = transition_dtype(max(num_states, n * n))
    target, steps, resolved = _resolve_stops(succ, deliver | (succ == DROPPED))
    depth = np.where(resolved & deliver[target], steps + 1, 0)
    depth = depth.astype(transition_dtype(num_states + 1))
    seeds = program.initial[delivered].astype(idx_t)  # delivered pairs' first states
    acc = np.bincount(seeds, weights=routed[delivered], minlength=num_states)
    nxt = np.maximum(succ, 0).astype(idx_t)  # DROPPED stops carry no weight
    node_of = program.node_of.astype(idx_t)
    arc = node_of * n + node_of[nxt]
    edge_load, node_load, bottleneck = _subtree_loads(
        acc, nxt, arc, depth, n, lambda a: np.bincount(node_of, weights=a, minlength=n)
    )
    path_max = np.zeros((n, n), dtype=np.float64)
    path_max[delivered] = bottleneck[seeds]
    return edge_load, node_load, path_max


# ----------------------------------------------------------------------
# entry point
# ----------------------------------------------------------------------
def _same_partition(report: VerificationReport, verified: VerificationReport) -> bool:
    """Whether ``report`` carries ``verified``'s arrays, or equal ones."""
    if report.outcome is verified.outcome and report.hops is verified.hops:
        return True
    return bool(
        np.array_equal(report.outcome, verified.outcome)
        and np.array_equal(report.hops, verified.hops)
    )


def route_demand(
    program: RoutingProgram,
    demand: Union[DemandMatrix, np.ndarray],
    *,
    alive: Optional[np.ndarray] = None,
    report: Optional[VerificationReport] = None,
) -> FlowResult:
    """Push a demand matrix through a compiled program.

    The pair partition is the program's one verification report, read
    through :func:`verify_program` with ``alive`` forwarded — memoised on
    the program, so a program the caller already verified (or a fault
    scenario's masked view from
    :attr:`repro.sim.faults.FaultSimulationResult.program`) is not
    verified again, and the returned :attr:`FlowResult.lengths` is the
    report's hop array.  ``report`` is an optional cross-check: a report
    whose ``outcome``/``hops`` are neither that report's arrays nor equal
    to them describes another program (or another ``alive`` mask) and
    raises :class:`ValueError`.  Every
    next-hop and header-state program, masked or not, goes through the
    same layered subtree accumulator.  Generic programs carry no
    transition arrays to aggregate over and raise, as does a demand
    total above ``2**53``, past which float64 sums stop being exact.
    """
    if isinstance(program, GenericProgram):
        raise ValueError(
            "a generic program has no transition arrays to aggregate demand "
            "over; compile the scheme to a next-hop or header-state program"
        )
    dm = (
        demand
        if isinstance(demand, DemandMatrix)
        else DemandMatrix(
            demand=np.asarray(demand, dtype=np.float64), model="custom", seed=None
        )
    )
    n = program.n
    if dm.demand.shape != (n, n):
        raise ValueError(
            f"demand matrix shape {dm.demand.shape} does not match the "
            f"program's n={n}"
        )
    if not np.isfinite(dm.demand).all() or (dm.demand < 0).any():
        raise ValueError("demand must be finite and nonnegative")
    # Integer loads stay exact float64 sums while the total is at most
    # 2**53.  Near that bound the float total may itself round, so the
    # comparison is decided on the correctly rounded ``total - 2**53``.
    if dm.total >= 2.0**52 and math.fsum(np.append(dm.demand, -(2.0**53))) > 0.0:
        raise ValueError(
            f"demand total {dm.total:.17g} exceeds 2**53: float64 load sums "
            "would no longer be exact integers"
        )
    verified = verify_program(program, alive=alive)
    if report is not None and not _same_partition(report, verified):
        raise ValueError(
            f"report does not describe this program: its outcome/hops are "
            f"not the program's verification (report n={report.n}, program "
            f"n={n}); pass the report verify_program returned for this "
            f"program and alive mask, or none"
        )
    report = verified
    delivered = report.outcome == VERDICT_DELIVERED
    routed = np.where(delivered, dm.demand, 0.0)
    if isinstance(program, NextHopProgram):
        edge_load, node_load, path_max = _next_hop_loads(
            program, routed, delivered, report.hops
        )
    else:
        assert isinstance(program, HeaderStateProgram)
        edge_load, node_load, path_max = _header_state_loads(program, routed, delivered)
    feasible = report.outcome != VERDICT_INFEASIBLE
    return FlowResult(
        kind=program.kind,
        n=n,
        mode="subtree",
        model=dm.model,
        offered_demand=float(np.where(feasible, dm.demand, 0.0).sum()),
        delivered_demand=float(routed.sum()),
        demand=dm.demand,
        delivered=delivered,
        lengths=report.hops,
        edge_load=edge_load,
        node_load=node_load,
        path_max_load=path_max,
    )


# ----------------------------------------------------------------------
# the sweep cell + driver
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class FlowCellResult:
    """Flow metrics of one (scheme, family, demand model) cell."""

    scheme: str
    family: str
    demand_model: str
    n: int
    kind: str
    mode: str
    offered: float
    delivered_fraction: float
    max_congestion: float
    max_node_load: float
    mean_hops: float
    uniform_throughput: float
    allocated_throughput: float


def flow_cell(
    scheme: object,
    graph: "PortLabeledGraph",
    family: str,
    label: str,
    models: Sequence[str],
    demand_seed: int = 0,
    total: float = DEFAULT_TOTAL,
    *,
    cache: "ExperimentCache",
) -> List[FlowCellResult]:
    """All demand models of one (scheme, graph) cell off one cached compile.

    The cell fetches its compiled program from the shared cache
    (:func:`~repro.analysis.runner.cached_program` semantics), verifies it
    **once** (the first :func:`route_demand` fills the program's report
    memo), and routes every demand skew against that single hop-count
    array — the lengths-sharing economy the sweep is built around.
    Generic programs decline the cell (nothing to aggregate over).
    """
    from repro.analysis.runner import _cached_program_with_rf, cached_distance_matrix

    program, _ = _cached_program_with_rf(scheme, graph, cache)
    if isinstance(program, GenericProgram):
        raise SchemeInapplicableError(
            "generic programs carry no transition arrays to aggregate demand over"
        )
    dist = cached_distance_matrix(graph, cache)
    rows: List[FlowCellResult] = []
    for name in models:
        dm = demand_matrix(name, graph.n, total=total, seed=demand_seed, dist=dist)
        flow = route_demand(program, dm)
        rows.append(
            FlowCellResult(
                scheme=label,
                family=family,
                demand_model=dm.model,
                n=graph.n,
                kind=program.kind,
                mode=flow.mode,
                offered=flow.offered_demand,
                delivered_fraction=flow.delivered_fraction,
                max_congestion=flow.max_congestion,
                max_node_load=flow.max_node_load,
                mean_hops=flow.weighted_mean_hops(),
                uniform_throughput=flow.uniform_throughput(),
                allocated_throughput=flow.allocated_throughput(),
            )
        )
    return rows


def flow_sweep(
    runner: Optional["ShardedRunner"] = None,
    schemes: Optional[Dict[str, object]] = None,
    families: Optional[Dict[str, "PortLabeledGraph"]] = None,
    size: str = "medium",
    seed: int = 0,
    models: Sequence[str] = DEMAND_MODELS,
    demand_seed: int = 0,
    total: float = DEFAULT_TOTAL,
) -> Tuple[List[FlowCellResult], List[Tuple[str, str]], "ShardStats"]:
    """The flow experiment: registry grid x demand skews.

    Thin driver over :meth:`repro.analysis.runner.ShardedRunner.flow_sweep`
    (an in-memory serial runner is created when none is passed).  Returns
    ``(cells, skipped, stats)``: per-(scheme, family, demand model) rows,
    the cells the schemes declined, and the run's cache/compile hit rates.
    """
    from repro.analysis.runner import ShardedRunner

    if runner is None:
        runner = ShardedRunner(cache_dir=None, processes=1)
    return runner.flow_sweep(
        schemes=schemes,
        families=families,
        size=size,
        seed=seed,
        models=models,
        demand_seed=demand_seed,
        total=total,
    )


def format_flow(cells: Sequence[FlowCellResult]) -> str:
    """Fixed-width text table of the flow grid (benchmark output)."""
    lines = [
        f"{'scheme':<22} {'family':<14} {'demand':<8} {'mode':<7} "
        f"{'deliv':>6} {'maxload':>10} {'hops':>6} {'thru(u)':>9} {'thru(a)':>9}"
    ]
    for cell in cells:
        lines.append(
            f"{cell.scheme:<22} {cell.family:<14} {cell.demand_model:<8} "
            f"{cell.mode:<7} {cell.delivered_fraction:>6.3f} "
            f"{cell.max_congestion:>10.0f} {cell.mean_hops:>6.2f} "
            f"{cell.uniform_throughput:>9.2f} {cell.allocated_throughput:>9.2f}"
        )
    return "\n".join(lines)
