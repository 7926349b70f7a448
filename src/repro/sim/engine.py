"""Batched routing simulation: a thin executor over compiled routing programs.

The legacy simulator (:func:`repro.routing.paths.route`) forwards one message
at a time through Python-level ``P``/``H`` calls, which makes all-pairs
measurements quadratic in *interpreted* work.  This module routes **all
ordered pairs at once** from the compiled-program IR of
:mod:`repro.routing.program`: every routing function lowers itself
(``rf.compile_program()``, dispatched on the class-owned
``rf.program_kind()``) to one of three artifact kinds.

* :class:`~repro.routing.program.NextHopProgram` (mode ``"compiled"``) and
  :class:`~repro.routing.program.HeaderStateProgram` (mode
  ``"header-compiled"``) are closed functional graphs: their transition
  arrays fix every pair's fate.  Both execute through **one executor**, a
  view over :func:`repro.routing.verify.verify_program`, which proves each
  pair's verdict and exact hop count by pointer doubling.  No message is
  stepped, no hop budget is guessed, and livelocks are proven.
* :class:`~repro.routing.program.GenericProgram` (mode ``"generic"``) is
  the explicit opt-out, executed by the one per-message interpreter: every
  in-flight message advances one hop per synchronous step, evaluating
  ``P``/``H`` per message and matching :func:`repro.routing.paths.route`
  decision for decision.  With a fault set it is also
  :func:`repro.sim.faults.simulate_with_faults`'s reference path, and it
  is the differential oracle of both compiled kinds.

:func:`simulate_all_pairs` accepts either a live routing function (lowered
on the fly, or executed against a pre-compiled ``program=`` artifact) or a
:class:`~repro.routing.program.RoutingProgram` directly — the form the
sharded runner ships across worker processes as cached bytes.

Misdelivery (``P`` returning :data:`~repro.routing.model.DELIVER` at the
wrong node) is recorded per pair — distinctly from livelocks — in
:attr:`SimulationResult.misdelivered` on every path rather than raised, so
conformance layers can report *which* pairs a broken scheme loses and *how*;
:meth:`SimulationResult.require_all_delivered` restores the legacy
fail-fast behaviour.

Program-kind eligibility is declared by the routing classes themselves
(``rf.program_kind()`` / the ``can_vectorize`` class attribute) — the
engine never sniffs capabilities.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import AbstractSet, Hashable, List, Optional, Tuple

import numpy as np

from repro.graphs.digraph import PortLabeledGraph
from repro.graphs.shortest_paths import UNREACHABLE, distance_matrix
from repro.routing.model import DELIVER, RoutingFunction
from repro.routing.program import (
    KIND_GENERIC,
    KIND_HEADER_STATE,
    KIND_NEXT_HOP,
    MISDELIVER,
    NO_ROUTE,
    GenericProgram,
    HeaderStateExplosionError,
    HeaderStateProgram,
    NextHopProgram,
    RoutingProgram,
    lower_header_state,
    lower_next_hop,
)
from repro.routing.verify import (
    VERDICT_DELIVERED,
    VERDICT_DROPPED,
    VERDICT_LIVELOCKED,
    VERDICT_MISDELIVERED,
    VerificationReport,
    _exact_max_ratio,
    verify_program,
)

__all__ = [
    "MISDELIVER",
    "HeaderProgram",
    "HeaderStateExplosionError",
    "MaskedExecution",
    "SimulationResult",
    "compile_header_program",
    "compile_next_hop",
    "execute_masked_program",
    "execute_program",
    "simulate_all_pairs",
    "simulated_routing_lengths",
    "simulated_stretch_factor",
]

#: Program kind -> the mode string recorded on :class:`SimulationResult`
#: (kept from the pre-IR engine so downstream reports stay stable).
_KIND_MODES = {
    KIND_NEXT_HOP: "compiled",
    KIND_HEADER_STATE: "header-compiled",
    KIND_GENERIC: "generic",
}

#: Backward-compatible name of the header-state artifact (PR 3 vintage).
HeaderProgram = HeaderStateProgram


@dataclass(frozen=True)
class SimulationResult:
    """Outcome of routing all ordered pairs of a graph at once.

    Attributes
    ----------
    lengths:
        ``lengths[x, y]`` is the number of hops of the simulated route from
        ``x`` to ``y``; ``0`` on the diagonal and ``-1`` for pairs whose
        message was misdelivered or livelocked.
    delivered:
        ``delivered[x, y]`` is whether the message from ``x`` arrived at
        ``y``; the diagonal is ``True``.
    misdelivered:
        ``misdelivered[x, y]`` is whether the scheme returned ``DELIVER``
        at a node other than ``y`` — recorded identically on every
        simulation path, so a lost pair is always classifiable as either a
        misdelivery (``misdelivered``) or a livelock (undelivered and not
        misdelivered).
    steps:
        Number of synchronous steps a lockstep run of every message takes:
        the step at which the last message stops (header-state and generic
        runs observe a stop one step after the last hop), or the hop budget
        when a next-hop or interpreted message livelocks.
    mode:
        ``"compiled"`` (next-hop program), ``"header-compiled"``
        (header-state program) or ``"generic"`` (per-message interpreter).
    """

    lengths: np.ndarray
    delivered: np.ndarray
    misdelivered: np.ndarray
    steps: int
    mode: str

    @classmethod
    def from_lengths(
        cls,
        lengths: np.ndarray,
        *,
        delivered: Optional[np.ndarray] = None,
        misdelivered: Optional[np.ndarray] = None,
        mode: str = "compiled",
        steps: Optional[int] = None,
    ) -> "SimulationResult":
        """Wrap a caller-held hop-count matrix as a result without executing.

        The lengths-sharing constructor path: the static verifier
        (:attr:`repro.routing.verify.VerificationReport.hops`) and the flow
        engine (:attr:`repro.analysis.flow.FlowResult.lengths`) both hold
        exact per-pair hop counts, so a cell that already verified its
        program can materialise the executor-shaped view from that one
        array instead of verifying it again.  ``lengths`` is **shared,
        never copied** — mutating it afterwards mutates this result.
        ``delivered`` defaults to ``lengths >= 0`` (the executor
        convention, exact whenever the array came from an executor or
        from a fully-delivering verification); pass explicit masks when
        the source used the verifier's walked-prefix convention on lost
        pairs.  ``steps`` defaults to the longest recorded route.
        """
        lengths = np.asarray(lengths)
        if lengths.ndim != 2 or lengths.shape[0] != lengths.shape[1]:
            raise ValueError(
                f"lengths must be a square (n, n) matrix, got shape {lengths.shape}"
            )
        if delivered is None:
            delivered = lengths >= 0
        if misdelivered is None:
            misdelivered = np.zeros(lengths.shape, dtype=bool)
        if steps is None:
            steps = max(int(lengths.max()), 0) if lengths.size else 0
        return cls(
            lengths=lengths,
            delivered=np.asarray(delivered, dtype=bool),
            misdelivered=np.asarray(misdelivered, dtype=bool),
            steps=int(steps),
            mode=mode,
        )

    @property
    def n(self) -> int:
        """Number of vertices of the simulated graph."""
        return self.lengths.shape[0]

    @property
    def all_delivered(self) -> bool:
        """Whether every ordered pair was delivered at its destination."""
        return bool(self.delivered.all())

    def undelivered_pairs(self) -> List[Tuple[int, int]]:
        """Ordered pairs whose message never arrived, sorted."""
        xs, ys = np.nonzero(~self.delivered)
        return [(int(x), int(y)) for x, y in zip(xs, ys)]

    def misdelivered_pairs(self) -> List[Tuple[int, int]]:
        """Ordered pairs whose message was delivered at the wrong node, sorted."""
        xs, ys = np.nonzero(self.misdelivered)
        return [(int(x), int(y)) for x, y in zip(xs, ys)]

    def livelocked_pairs(self) -> List[Tuple[int, int]]:
        """Ordered pairs whose message never stopped (lost but not misdelivered)."""
        xs, ys = np.nonzero(~self.delivered & ~self.misdelivered)
        return [(int(x), int(y)) for x, y in zip(xs, ys)]

    def _loss_summary(self) -> str:
        lost = self.undelivered_pairs()
        x, y = lost[0]
        return (
            f"{len(lost)} pair(s) lost ({int(self.misdelivered.sum())} misdelivered, "
            f"{len(self.livelocked_pairs())} livelocked); first lost pair {x} -> {y}"
        )

    def require_all_delivered(self) -> np.ndarray:
        """Return the length matrix, raising if any pair was lost.

        Mirrors :func:`repro.routing.paths.all_pairs_routing_lengths`, which
        raises on the first misdelivered pair.
        """
        if not self.all_delivered:
            raise ValueError(
                f"not every message was delivered: {self._loss_summary()}; "
                "inspect misdelivered_pairs() / livelocked_pairs()"
            )
        return self.lengths

    # ------------------------------------------------------------------
    def max_stretch(self, dist: Optional[np.ndarray] = None, graph: Optional[PortLabeledGraph] = None) -> Fraction:
        """Exact worst-case stretch of the delivered routes as a fraction.

        ``dist`` is the distance matrix (computed from ``graph`` when
        omitted — grid drivers should always pass their cached matrix, see
        :func:`repro.analysis.runner.cached_distance_matrix`, so sweeps
        never recompute distances per cell).  Raises :class:`ValueError`
        when a pair is undelivered: lost pairs carry the ``-1`` length
        sentinel, which must never leak into a ratio or be silently skipped
        — callers wanting the legacy fail-fast matrix should go through
        :meth:`require_all_delivered`, callers expecting losses should
        filter :meth:`undelivered_pairs` first.
        """
        if not self.all_delivered:
            raise ValueError(
                f"max_stretch is undefined: {self._loss_summary()}; the -1 length "
                "sentinels of lost pairs cannot enter a stretch ratio — call "
                "require_all_delivered() or handle undelivered_pairs() first"
            )
        n = self.n
        if n < 2:
            return Fraction(1)
        if dist is None:
            if graph is None:
                raise ValueError("max_stretch needs either dist or graph")
            dist = distance_matrix(graph)
        off = _offdiag_mask(n)
        if (dist[off] == UNREACHABLE).any():
            raise ValueError("stretch is undefined on disconnected graphs")
        return _exact_max_ratio(self.lengths[off], dist[off])


def compile_next_hop(rf: RoutingFunction) -> np.ndarray:
    """The next-hop matrix of ``rf`` (the payload of its compiled program).

    Thin wrapper over :func:`repro.routing.program.lower_next_hop`, kept
    because the raw matrix is a convenient object for tests and analyses.
    """
    return lower_next_hop(rf).next_node


def compile_header_program(
    rf: RoutingFunction, max_states: Optional[int] = None
) -> HeaderStateProgram:
    """Compile ``rf`` into a header-state program.

    Thin wrapper over :func:`repro.routing.program.lower_header_state`
    (the historical engine-side entry point of the header-compiled path).
    """
    return lower_header_state(rf, max_states=max_states)


# ----------------------------------------------------------------------
# the compiled executor: a view over one static verification
# ----------------------------------------------------------------------
# Names the frozen benchmark harness still reads (perfbench/run.py reports
# the kernel choice, perfbench/workloads.py clears the frontier caches).
# The kernel switch and the caches are gone; these stand-ins keep that
# harness running and go at its next change.
KERNEL_ENV = "REPRO_SIM_KERNEL"
_FRONTIER_CACHE: dict = {}
_MASKED_FRONTIER_CACHE: dict = {}
_ALIVE_CODES_CACHE: dict = {}


def _kernel_choice() -> str:
    return "auto"


#: Program kind -> the mode string of a masked execution.
_MASKED_MODES = {
    KIND_NEXT_HOP: "compiled-masked",
    KIND_HEADER_STATE: "header-compiled-masked",
}


def _offdiag_mask(n: int) -> np.ndarray:
    """The off-diagonal boolean mask, allocated **once** per call."""
    mask = np.ones((n, n), dtype=bool)
    np.fill_diagonal(mask, False)
    return mask


def _lockstep_steps(report: VerificationReport) -> int:
    """Synchronous steps a lockstep run of the verified program takes.

    Every in-flight message advances one hop per step.  A next-hop message
    retires on the step that lands it home (its hop count) or on the step
    that reads a sentinel (walked prefix + 1), and a livelock keeps the run
    going to the exact budget ``n``.  A header-state message is seen to
    stop — delivered, misdelivered or dropped — one step after its last
    hop, and its exact budget ends with the last stop, so livelocks add
    nothing.  Sweep rows report this number.
    """
    outcome, hops = report.outcome, report.hops
    stopped = (outcome == VERDICT_DROPPED) | (outcome == VERDICT_MISDELIVERED)
    if report.kind == KIND_HEADER_STATE:
        stopped |= outcome == VERDICT_DELIVERED
        return int(np.max(hops, where=stopped, initial=-1)) + 1
    if (outcome == VERDICT_LIVELOCKED).any():
        return report.n
    arrived = int(np.max(hops, where=outcome == VERDICT_DELIVERED, initial=0))
    return max(arrived, int(np.max(hops, where=stopped, initial=-1)) + 1)


# ----------------------------------------------------------------------
# the per-message interpreter (generic programs + differential oracle)
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class MaskedExecution:
    """Raw outcome matrices of executing a *masked* program over alive pairs.

    The engine-level half of the fault-injection subsystem
    (:mod:`repro.sim.faults` owns the fault model and the outcome
    taxonomy): a masked program carries :data:`~repro.routing.program.DROPPED`
    sentinels in its transition arrays, and every simulated pair is
    delivered, misdelivered (``DELIVER`` at the wrong node), or **dropped
    at a fault** (the walk attempted a masked transition).  Pairs in none
    of the three matrices are the provable livelocks.  ``lengths`` counts
    the hops actually taken — including for dropped and misdelivered
    pairs, where it measures the path walked *before* the message stopped
    — and is ``-1`` only for livelocked pairs (their walk is infinite).
    Pairs outside the alive universe (a failed source or destination)
    appear in no matrix and carry length ``-1``; the diagonal of
    ``delivered`` is ``True`` exactly at alive vertices.
    """

    delivered: np.ndarray
    misdelivered: np.ndarray
    dropped: np.ndarray
    lengths: np.ndarray
    steps: int
    mode: str


def _masked_frames(
    n: int, alive: np.ndarray
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Result matrices of an interpreted run, plus its alive pair universe."""
    lengths = np.full((n, n), NO_ROUTE, dtype=np.int64)
    delivered = np.zeros((n, n), dtype=bool)
    np.fill_diagonal(delivered, alive)
    np.fill_diagonal(lengths, np.where(alive, 0, NO_ROUTE))
    misdelivered = np.zeros((n, n), dtype=bool)
    dropped = np.zeros((n, n), dtype=bool)
    universe = _offdiag_mask(n)
    universe &= alive[:, None]
    universe &= alive[None, :]
    src, dst = np.nonzero(universe)
    lengths[src, dst] = 0
    return lengths, delivered, misdelivered, dropped, src, dst


def _interpret(
    rf: RoutingFunction,
    graph: PortLabeledGraph,
    alive: np.ndarray,
    failed_edges: AbstractSet[Tuple[int, int]],
    max_hops: Optional[int],
) -> MaskedExecution:
    """Route every alive ordered pair through ``P``/``H``, one message at a time.

    The one per-message interpreter: it executes generic programs, and it
    is the oracle both compiled kinds are tested against.  Every in-flight
    message advances one hop per synchronous step, deciding exactly like
    :func:`repro.routing.paths.route`.  The fault model is applied decision
    by decision: ``DELIVER`` is checked first (a delivering node never
    hops), and a hop into a dead node or across a failed edge (normalised
    ``u < v``) drops the message uncounted.  The budget defaults to
    ``4 * n``; messages still in flight then are livelocks.
    """
    n = graph.n
    lengths, delivered, misdelivered, dropped, src, dst = _masked_frames(n, alive)
    budget = 4 * n if max_hops is None else max_hops
    blocking = bool(failed_edges) or not alive.all()

    # One in-flight record per ordered pair: (source, dest, node, header).
    flights: List[Tuple[int, int, int, Hashable]] = [
        (int(x), int(y), int(x), rf.initial_header(int(x), int(y)))
        for x, y in zip(src, dst)
    ]
    port_fn = rf.port
    next_header = rf.next_header
    neighbor_at_port = graph.neighbor_at_port
    steps = 0
    while flights and steps < budget:
        steps += 1
        survivors: List[Tuple[int, int, int, Hashable]] = []
        for source, dest, node, header in flights:
            port = port_fn(node, header)
            if port == DELIVER:
                if node == dest:
                    delivered[source, dest] = True
                else:
                    misdelivered[source, dest] = True
                continue
            try:
                nxt = neighbor_at_port(node, port)
            except KeyError as exc:
                raise ValueError(
                    f"routing function used invalid port {port} at vertex {node} "
                    f"(degree {graph.degree(node)})"
                ) from exc
            if blocking:
                edge = (node, nxt) if node < nxt else (nxt, node)
                if not alive[nxt] or edge in failed_edges:
                    dropped[source, dest] = True
                    continue
            lengths[source, dest] += 1
            # Delivery requires P to say DELIVER at the head node, so a
            # message reaching its destination stays in flight until the
            # scheme's own decision next step — exactly the legacy loop.
            survivors.append((source, dest, nxt, next_header(node, header)))
        flights = survivors
    for source, dest, _, _ in flights:
        lengths[source, dest] = NO_ROUTE  # budget exhausted: livelock
    return MaskedExecution(
        delivered, misdelivered, dropped, lengths, steps=steps, mode="generic-masked"
    )


def _interpret_all_pairs(rf: RoutingFunction, max_hops: Optional[int]) -> SimulationResult:
    """The interpreter's fault-free run, with lost pairs' lengths set to ``-1``."""
    run = _interpret(rf, rf.graph, np.ones(rf.graph.n, dtype=bool), frozenset(), max_hops)
    lengths = run.lengths
    lengths[~run.delivered] = NO_ROUTE
    return SimulationResult(
        lengths, run.delivered, run.misdelivered, steps=run.steps, mode="generic"
    )


# ----------------------------------------------------------------------
# entry points
# ----------------------------------------------------------------------
def _check_pairing(program: RoutingProgram, rf: Optional[RoutingFunction]) -> None:
    """Refuse a program cached for another graph, or a generic one without ``rf``."""
    if rf is not None and rf.graph.n != program.n:
        raise ValueError(
            f"program was compiled for n={program.n} but the routing "
            f"function lives on an n={rf.graph.n} graph"
        )
    if rf is None and isinstance(program, GenericProgram):
        raise ValueError(
            "a generic program is an opt-out marker: executing it needs the "
            "live routing function (pass rf=...)"
        )


def _refuse_hop_budget(max_hops: Optional[int]) -> None:
    if max_hops is not None:
        raise ValueError(
            "max_hops bounds the per-message interpreter only; a compiled "
            "program's verification is exact and takes no hop budget"
        )


def _require_compiled(program: RoutingProgram) -> None:
    if not isinstance(program, (NextHopProgram, HeaderStateProgram)):
        raise TypeError(f"not a RoutingProgram: {type(program).__name__}")


def execute_masked_program(
    program: RoutingProgram, alive: Optional[np.ndarray] = None
) -> MaskedExecution:
    """Execute a masked program over all ordered pairs of alive vertices.

    ``alive`` is the boolean survival mask of the fault scenario
    (``None`` = every vertex alive); pairs with a failed endpoint are never
    simulated.  The program is expected to carry
    :data:`~repro.routing.program.DROPPED` sentinels where
    :func:`repro.sim.faults.apply_faults` masked a transition — an unmasked
    program works too and simply never drops anything.  Every pair's fate
    and hop count come from one :func:`~repro.routing.verify.verify_program`
    call.  Generic programs have no transition arrays to mask;
    fault-inject them through the interpreter
    (:func:`repro.sim.faults.simulate_with_faults` with the live routing
    function).
    """
    if alive is None:
        alive = np.ones(program.n, dtype=bool)
    alive = np.asarray(alive, dtype=bool)
    if alive.shape != (program.n,):
        raise ValueError(
            f"alive mask has shape {alive.shape}, expected ({program.n},)"
        )
    if isinstance(program, GenericProgram):
        raise ValueError(
            "a generic program has no transition arrays to mask; interpret the "
            "live routing function via repro.sim.faults.simulate_with_faults"
        )
    _require_compiled(program)
    report = verify_program(program, alive=alive)
    outcome = report.outcome
    delivered = outcome == VERDICT_DELIVERED
    np.fill_diagonal(delivered, alive)
    return MaskedExecution(
        delivered,
        outcome == VERDICT_MISDELIVERED,
        outcome == VERDICT_DROPPED,
        report.hops,
        steps=_lockstep_steps(report),
        mode=_MASKED_MODES[program.kind],
    )


def execute_program(
    program: RoutingProgram, rf: Optional[RoutingFunction] = None
) -> SimulationResult:
    """Execute a routing program over all ordered pairs.

    The artifact is self-contained for the two compiled kinds (a program
    deserialized from bytes in another process executes identically):
    every pair's fate and exact hop count come from one
    :func:`~repro.routing.verify.verify_program` call, so lengths and
    livelocks are exact with no hop budget.  A
    :class:`~repro.routing.program.GenericProgram` is the explicit opt-out
    and requires the live routing function ``rf`` to interpret.  When
    ``rf`` accompanies a compiled program, their vertex counts must agree —
    a program cached for a different graph must fail loudly, not produce
    lengths that downstream stretch ratios would silently trust.
    """
    _check_pairing(program, rf)
    if isinstance(program, GenericProgram):
        assert rf is not None
        return _interpret_all_pairs(rf, None)
    _require_compiled(program)
    report = verify_program(program)
    if report.masked:
        raise ValueError(
            f"this {program.kind} program carries fault masks (DROPPED "
            "entries); execute it with repro.sim.engine.execute_masked_program"
        )
    steps = _lockstep_steps(report)
    delivered = report.outcome == VERDICT_DELIVERED
    np.fill_diagonal(delivered, True)
    lengths = report.hops
    lengths[~delivered] = NO_ROUTE
    return SimulationResult(
        lengths,
        delivered,
        report.outcome == VERDICT_MISDELIVERED,
        steps=steps,
        mode=_KIND_MODES[program.kind],
    )


def simulate_all_pairs(
    rf: RoutingFunction,
    max_hops: Optional[int] = None,
    method: str = "auto",
    program: Optional[RoutingProgram] = None,
) -> SimulationResult:
    """Route all ``n * (n - 1)`` ordered pairs at once.

    Parameters
    ----------
    rf:
        A :class:`~repro.routing.model.RoutingFunction` — or a pre-compiled
        :class:`~repro.routing.program.RoutingProgram` directly (a generic
        program cannot be executed this way; pass the routing function and
        the program separately).
    max_hops:
        Hop budget per message of the per-message interpreter (default
        ``4 * n``, the legacy default).  Compiled programs need none — their
        verification is exact — and raise :class:`ValueError` if one is
        given.
    method:
        ``"auto"`` executes the program kind the routing function itself
        declares (``rf.program_kind()``), falling back to the generic
        interpreter if a header-state enumeration explodes.  ``"compiled"``
        forces the next-hop matrix (raising :class:`ValueError` for
        header-rewriting schemes); ``"header-compiled"`` forces the
        header-state program (raising :class:`ValueError` when the scheme
        does not declare ``can_vectorize``,
        :class:`HeaderStateExplosionError` when its promise breaks);
        ``"generic"`` forces the per-message interpreter (the differential
        oracle of both compiled kinds).
    program:
        A pre-compiled program for ``rf`` (e.g. from the sharded runner's
        program cache): the engine executes it instead of lowering the
        scheme again.  Only valid with ``method="auto"``.
    """
    if isinstance(rf, RoutingProgram):
        if program is not None:
            raise ValueError("pass the program either positionally or as program=, not both")
        program, rf = rf, None
    if method not in ("auto", "compiled", "header-compiled", "generic"):
        raise ValueError(f"unknown simulation method {method!r}")
    if program is not None:
        if method != "auto":
            raise ValueError("a pre-compiled program already fixes the method; use method='auto'")
    elif rf is None:
        raise ValueError("simulate_all_pairs needs a routing function or a program")
    elif method == "compiled":
        if rf.program_kind() != KIND_NEXT_HOP:
            raise ValueError(
                f"{type(rf).__name__} rewrites headers (or derives them from more "
                "than the destination) and cannot be compiled to a next-hop "
                "matrix; use method='header-compiled' or method='generic'"
            )
        program = lower_next_hop(rf)
    elif method == "header-compiled":
        if not getattr(type(rf), "can_vectorize", False):
            raise ValueError(
                f"{type(rf).__name__} does not declare can_vectorize (its header "
                "alphabet is not promised finite); use method='generic'"
            )
        program = lower_header_state(rf)
    elif method == "auto":
        # Execute whatever the routing function lowers itself to.
        kind = rf.program_kind()
        if kind == KIND_NEXT_HOP:
            program = lower_next_hop(rf)
        elif kind == KIND_HEADER_STATE:
            try:
                program = lower_header_state(rf)
            except HeaderStateExplosionError:
                pass
    # Left without a compiled program: method="generic", a generic kind, or
    # an exploded header-state enumeration — interpret.
    if program is None or isinstance(program, GenericProgram):
        if program is not None:
            _check_pairing(program, rf)
        assert rf is not None
        return _interpret_all_pairs(rf, max_hops)
    _refuse_hop_budget(max_hops)
    return execute_program(program, rf=rf)


def simulated_routing_lengths(
    rf: RoutingFunction, max_hops: Optional[int] = None
) -> np.ndarray:
    """Batched drop-in for :func:`repro.routing.paths.all_pairs_routing_lengths`."""
    return simulate_all_pairs(rf, max_hops=max_hops).require_all_delivered()


def simulated_stretch_factor(
    rf: RoutingFunction,
    dist: Optional[np.ndarray] = None,
    program: Optional[RoutingProgram] = None,
) -> Fraction:
    """Exact stretch factor ``s(R, G)`` computed through the batched simulator.

    Equivalent to :func:`repro.routing.paths.stretch_factor` (the test-suite
    pins the equality) at a fraction of the interpreted work.  Grid drivers
    pass their cached ``dist`` (recomputing the distance matrix per scheme
    cell is the waste :func:`repro.analysis.runner.cached_distance_matrix`
    exists to avoid) and optionally a pre-compiled ``program``.
    """
    result = simulate_all_pairs(rf, program=program)
    return result.max_stretch(dist=dist, graph=rf.graph)
