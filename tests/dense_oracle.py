"""Dense lockstep executors: the differential oracle of the compiled executor.

The library executes compiled programs through the static verifier
(:func:`repro.sim.engine.execute_program` and
:func:`repro.sim.engine.execute_masked_program` are views over
:func:`repro.routing.verify.verify_program`).  These loops compute the same
results the direct way: every in-flight message of every ordered pair
advances one hop per synchronous step, with ``(n, n)`` result matrices
updated as messages retire.  They read nothing the verifier computes — in
particular not a header-state program's stored ``hops_to_deliver`` — so
the two implementations agree only if both are right.

Hop budgets are exact upper bounds from first principles: a next-hop walk
towards a fixed destination that is neither home nor stopped after ``n``
hops has revisited a node, and a header-state walk that has not stopped
after ``num_states`` steps has revisited a state.  ``steps`` follows the
lockstep schedule: the step at which the last message retired, or ``n``
when a next-hop message livelocked (its loop runs to the budget).
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.routing.program import (
    DROPPED,
    MISDELIVER,
    NO_ROUTE,
    HeaderStateProgram,
    NextHopProgram,
    RoutingProgram,
)
from repro.sim.engine import MaskedExecution, SimulationResult, _masked_frames


def dense_execute(program: RoutingProgram) -> SimulationResult:
    """All ordered pairs of an unmasked compiled program, stepped in lockstep."""
    if isinstance(program, NextHopProgram):
        return _next_hop(program)
    if isinstance(program, HeaderStateProgram):
        return _header_state(program)
    raise TypeError(f"no dense oracle for a {type(program).__name__}")


def dense_execute_masked(
    program: RoutingProgram, alive: Optional[np.ndarray] = None
) -> MaskedExecution:
    """All alive ordered pairs of a (masked) compiled program, in lockstep."""
    alive = np.ones(program.n, dtype=bool) if alive is None else np.asarray(alive, dtype=bool)
    if isinstance(program, NextHopProgram):
        return _next_hop_masked(program, alive)
    if isinstance(program, HeaderStateProgram):
        return _header_state_masked(program, alive)
    raise TypeError(f"no dense oracle for a {type(program).__name__}")


def _offdiag_pairs(n: int):
    return np.nonzero(~np.eye(n, dtype=bool))


def _next_hop(program: NextHopProgram) -> SimulationResult:
    n = program.n
    lengths = np.zeros((n, n), dtype=np.int64)
    delivered = np.eye(n, dtype=bool)
    misdelivered = np.zeros((n, n), dtype=bool)
    next_node = program.next_node
    # absorbing[d] is False for a broken scheme that forwards past its own
    # destination instead of delivering; such messages pass through.
    absorbing = next_node[np.arange(n), np.arange(n)] == np.arange(n)
    src, dst = _offdiag_pairs(n)
    cur = src.copy()
    steps = 0
    while cur.size and steps < n:
        steps += 1
        cur = next_node[cur, dst]
        lost = cur == MISDELIVER
        if lost.any():
            misdelivered[src[lost], dst[lost]] = True
            keep = ~lost
            src, dst, cur = src[keep], dst[keep], cur[keep]
        lengths[src, dst] += 1
        home = (cur == dst) & absorbing[dst]
        if home.any():
            delivered[src[home], dst[home]] = True
            keep = ~home
            src, dst, cur = src[keep], dst[keep], cur[keep]
    lengths[~delivered] = NO_ROUTE
    return SimulationResult(lengths, delivered, misdelivered, steps=steps, mode="compiled")


def _header_state(program: HeaderStateProgram) -> SimulationResult:
    n = program.n
    lengths = np.zeros((n, n), dtype=np.int64)
    delivered = np.eye(n, dtype=bool)
    misdelivered = np.zeros((n, n), dtype=bool)
    src, dst = _offdiag_pairs(n)
    cur = program.initial[src, dst]
    steps = last_stop = 0
    while cur.size and steps < program.num_states:
        steps += 1
        stopping = program.deliver[cur]
        if stopping.any():
            last_stop = steps
            at_node = program.node_of[cur[stopping]]
            s_stop, d_stop = src[stopping], dst[stopping]
            home = at_node == d_stop
            delivered[s_stop[home], d_stop[home]] = True
            misdelivered[s_stop[~home], d_stop[~home]] = True
            keep = ~stopping
            src, dst, cur = src[keep], dst[keep], cur[keep]
            if not cur.size:
                break
        lengths[src, dst] += 1
        cur = program.succ[cur]
    lengths[~delivered] = NO_ROUTE
    return SimulationResult(
        lengths, delivered, misdelivered, steps=last_stop, mode="header-compiled"
    )


def _next_hop_masked(program: NextHopProgram, alive: np.ndarray) -> MaskedExecution:
    n = program.n
    lengths, delivered, misdelivered, dropped, src, dst = _masked_frames(n, alive)
    next_node = program.next_node
    absorbing = next_node[np.arange(n), np.arange(n)] == np.arange(n)
    cur = src.copy()
    steps = 0
    while cur.size and steps < n:
        steps += 1
        nxt = next_node[cur, dst]
        # Stopping transitions first, before any hop is counted: a blocked
        # hop is never taken (the message dies at its current node) and a
        # wrong-node delivery happens at the current node too.
        stopped = (nxt == DROPPED) | (nxt == MISDELIVER)
        if stopped.any():
            was_dropped = nxt == DROPPED
            dropped[src[was_dropped], dst[was_dropped]] = True
            was_mis = nxt == MISDELIVER
            misdelivered[src[was_mis], dst[was_mis]] = True
            keep = ~stopped
            src, dst, nxt = src[keep], dst[keep], nxt[keep]
            if not nxt.size:
                break
        cur = nxt
        lengths[src, dst] += 1
        home = (cur == dst) & absorbing[dst]
        if home.any():
            delivered[src[home], dst[home]] = True
            keep = ~home
            src, dst, cur = src[keep], dst[keep], cur[keep]
    lengths[src, dst] = NO_ROUTE  # survivors of the budget: provable livelocks
    return MaskedExecution(
        delivered, misdelivered, dropped, lengths, steps=steps, mode="compiled-masked"
    )


def _header_state_masked(program: HeaderStateProgram, alive: np.ndarray) -> MaskedExecution:
    n = program.n
    lengths, delivered, misdelivered, dropped, src, dst = _masked_frames(n, alive)
    succ, deliver, node_of = program.succ, program.deliver, program.node_of
    cur = program.initial[src, dst]
    steps = last_stop = 0
    while cur.size and steps < program.num_states:
        steps += 1
        stopping = deliver[cur]
        if stopping.any():
            last_stop = steps
            at_node = node_of[cur[stopping]]
            s_stop, d_stop = src[stopping], dst[stopping]
            home = at_node == d_stop
            delivered[s_stop[home], d_stop[home]] = True
            misdelivered[s_stop[~home], d_stop[~home]] = True
            keep = ~stopping
            src, dst, cur = src[keep], dst[keep], cur[keep]
            if not cur.size:
                break
        nxt = succ[cur]
        blocked = nxt == DROPPED
        if blocked.any():
            last_stop = steps
            dropped[src[blocked], dst[blocked]] = True
            keep = ~blocked
            src, dst, nxt = src[keep], dst[keep], nxt[keep]
            if not nxt.size:
                break
        cur = nxt
        lengths[src, dst] += 1
    lengths[src, dst] = NO_ROUTE  # survivors of the budget: provable livelocks
    return MaskedExecution(
        delivered,
        misdelivered,
        dropped,
        lengths,
        steps=last_stop,
        mode="header-compiled-masked",
    )
