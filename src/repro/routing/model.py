"""The ``R = (I, H, P)`` routing-function model of the paper.

Definitions (Section 1 of the paper):

* ``I(u, v)`` — *initialization*: the header attached by the source ``u`` to
  a message destined to ``v``.
* ``P(x, h)`` — *port*: the local output port through which a node ``x``
  forwards a message with header ``h``; the reserved value :data:`DELIVER`
  (we use ``0``, ports being ``1..deg(x)``) means the message has arrived.
* ``H(x, h)`` — *header rewriting*: the header attached to the message when
  it leaves ``x``.

For any distinct ``u, v`` the induced sequence of nodes must be a path from
``u`` to ``v`` in the graph.  The *memory requirement* ``MEM_G(R, x)`` is the
size of the smallest program computing ``I(x, ·)``, ``H(x, ·)`` and
``P(x, ·)`` — the Kolmogorov complexity of the local routing behaviour.  The
:mod:`repro.memory` package provides concrete (upper-bound) encodings for the
routing functions defined here.

Most classical schemes are *destination based*: the header is simply the
destination label and is never rewritten.  Those are modelled by
:class:`DestinationBasedRoutingFunction`, whose local behaviour at ``x`` is
entirely described by the map ``dest -> port``.  Labeled (name-dependent)
schemes such as landmark routing attach richer addresses; they derive from
:class:`LabeledRoutingFunction`.
"""

from __future__ import annotations

import abc
from typing import (
    TYPE_CHECKING,
    ClassVar,
    Dict,
    Hashable,
    List,
    Mapping,
    Optional,
    Protocol,
    Tuple,
    Union,
    runtime_checkable,
)

import numpy as np

from repro.graphs.digraph import PortLabeledGraph

if TYPE_CHECKING:  # circular at runtime: program.py imports this module
    from repro.routing.program import RoutingProgram

__all__ = [
    "DELIVER",
    "HeaderStateEvaluator",
    "RoutingFunction",
    "DestinationBasedRoutingFunction",
    "TableRoutingFunction",
    "LabeledRoutingFunction",
    "BaseRoutingScheme",
    "NO_ENTRY",
    "RoutingScheme",
    "SchemeInapplicableError",
]

#: Reserved port value meaning "deliver the message here".
DELIVER = 0


class SchemeInapplicableError(ValueError):
    """A partial scheme declined a graph outside its class (``build`` raised).

    Grid drivers (:mod:`repro.analysis.table1`, :mod:`repro.sim.conformance`,
    :mod:`repro.analysis.runner`) wrap the :class:`ValueError` a partial
    scheme raises from ``build`` in this subclass so they can *skip* the
    cell, while the simulator's own :class:`ValueError` diagnostics (lost
    pairs, invalid ports) keep propagating as the bugs they are.
    """


def uses_own(obj: object, owner: type, *names: str) -> bool:
    """Whether ``type(obj)`` still runs ``owner``'s version of every method in ``names``.

    The guard of the array lowering hooks: an array stands for a class's
    own ``port``/``next_header``/... decisions, so a subclass that
    overrides one of them gets the per-pair evaluation instead.
    """
    cls = type(obj)
    return all(getattr(cls, name) is getattr(owner, name) for name in names)


class HeaderStateEvaluator(abc.ABC):
    """Header-state transitions of a routing function, a whole frontier at a time.

    Headers are coded as integers ``>= 0``.  The closure of
    :func:`~repro.routing.program.lower_header_state` interns
    ``(node, header code)`` states one frontier level at a time and asks
    the evaluator for the next level; the default per-state evaluator
    calls ``P`` and ``H``, array-backed rewriting schemes index.
    """

    @abc.abstractmethod
    def initial_codes(self) -> np.ndarray:
        """``(n, n)`` header codes of ``I(x, y)``; the diagonal is never read."""

    @abc.abstractmethod
    def step(
        self, nodes: np.ndarray, codes: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(deliver, next_node, next_code)`` of the states ``(nodes[i], codes[i])``.

        ``next_node``/``next_code`` are ignored where ``deliver`` is true.
        Raises :class:`ValueError` on an invalid decision.
        """

    @abc.abstractmethod
    def headers(self, codes: np.ndarray) -> List[Hashable]:
        """The header objects coded as ``codes``."""


class RoutingFunction(abc.ABC):
    """Abstract routing function ``R = (I, H, P)`` on a fixed graph."""

    #: Capability flag of the header-compiled simulator path
    #: (:func:`repro.sim.engine.compile_header_program`).  ``True`` promises
    #: that headers are hashable and that the set of ``(node, header)``
    #: states reachable from the initial headers is finite and small
    #: (roughly ``O(n^2)``), so the simulator may enumerate the header
    #: alphabet once and compile ``(node, header) -> (port, next header)``
    #: into integer state-transition arrays.  The abstract base is
    #: conservative (``False``): an arbitrary ``H`` may grow headers without
    #: bound (hop counters, appended traces), which would make the
    #: enumeration diverge.  The library subclasses below opt in — their
    #: headers are destination labels, addresses or interval labels, all
    #: drawn from finite alphabets — and rewriting subclasses whose header
    #: evolution stays within a finite alphabet (remaining e-cube masks,
    #: two-phase landmark tags) inherit the opt-in.
    can_vectorize: ClassVar[bool] = False

    def __init__(self, graph: PortLabeledGraph) -> None:
        self._graph = graph

    @property
    def graph(self) -> PortLabeledGraph:
        """The graph this routing function is defined on."""
        return self._graph

    # ------------------------------------------------------------------
    # lowering to the compiled-program IR (repro.routing.program)
    # ------------------------------------------------------------------
    def program_kind(self) -> str:
        """Which :mod:`repro.routing.program` kind this function lowers to.

        The lowering decision is owned by the routing classes, not sniffed
        by the simulator: each class checks only its *own* contract.  The
        abstract base never claims the next-hop form (an arbitrary ``H``
        may rewrite headers); it offers the header-state machine when the
        class declares ``can_vectorize`` (a finite, enumerable
        ``(node, header)`` alphabet) and the generic opt-out otherwise.
        Subclasses refine this: the destination-based/labeled/interval
        bases return ``"next-hop"`` exactly when their header-constant
        contract is intact (neither ``next_header`` nor their own
        ``initial_header`` is overridden), and the header-rewriting
        formulations inherit the header-state answer from here.
        """
        if self.can_vectorize:
            return "header-state"
        return "generic"

    def compile_program(self, max_states: Optional[int] = None) -> "RoutingProgram":
        """Lower this routing function to its :class:`~repro.routing.program.RoutingProgram`.

        Dispatches on :meth:`program_kind`; ``max_states`` caps the
        header-state enumeration (see
        :func:`repro.routing.program.lower_header_state`).
        """
        from repro.routing.program import lower

        return lower(self, max_states=max_states)

    def next_node_array(self) -> Optional[np.ndarray]:
        """The ``(n, n)`` next-node matrix, when the decisions are already arrays.

        ``next_node[x, dest]`` is the neighbour a message for ``dest``
        moves to from ``x`` (``dest`` itself on the diagonal).  Header-
        constant classes that keep their decisions in arrays return it so
        :func:`~repro.routing.program.lower_next_hop` can skip evaluating
        ``P`` pair by pair; ``None`` (the default, and the answer of any
        subclass that overrides the decision methods the array stands for)
        keeps that per-pair evaluation.
        """
        return None

    def header_state_evaluator(self) -> Optional["HeaderStateEvaluator"]:
        """Array form of the header-state transitions, when the class has one.

        ``None`` (the default) makes
        :func:`~repro.routing.program.lower_header_state` evaluate ``P`` and
        ``H`` state by state; rewriting classes whose decisions are arrays
        return an evaluator that steps a whole frontier by indexing.
        """
        return None

    @abc.abstractmethod
    def initial_header(self, source: int, dest: int) -> Hashable:
        """``I(source, dest)`` — header attached by the source."""

    @abc.abstractmethod
    def port(self, node: int, header: Hashable) -> int:
        """``P(node, header)`` — output port used at ``node``, or :data:`DELIVER`."""

    def next_header(self, node: int, header: Hashable) -> Hashable:
        """``H(node, header)`` — header after traversing ``node``.

        The default implementation leaves the header unchanged, which is what
        every destination-based scheme does.
        """
        return header

    # ------------------------------------------------------------------
    def local_decision(self, node: int, source: int, dest: int) -> int:
        """First output port used at ``node`` were it the source of a message to ``dest``.

        Convenience used by the matrix-of-constraints machinery, which only
        ever inspects ``P(a, I(a, b))``.
        """
        if node != source:
            raise ValueError("local_decision is defined at the source only")
        return self.port(node, self.initial_header(source, dest))


class DestinationBasedRoutingFunction(RoutingFunction):
    """Routing function whose header is the destination label, never rewritten.

    Sub-classes implement :meth:`port_to` (``node, dest -> port``).  The local
    routing function of a node ``x`` is exactly the finite map
    ``{dest: port_to(x, dest)}``, exposed by :meth:`local_map` for the memory
    encoders.
    """

    #: Headers are destination labels (or finite derivatives thereof in
    #: rewriting subclasses): the header-compiled simulator path applies.
    can_vectorize: ClassVar[bool] = True

    def program_kind(self) -> str:
        """Next-hop form iff the header-constant contract is intact.

        A subclass that overrides ``next_header`` or ``initial_header``
        (say, to embed source-dependent hints) has broken the
        "header == destination, never rewritten" contract this base class
        establishes; it falls through to the base resolution (header-state
        via ``can_vectorize``, or generic) rather than being silently
        compiled against a fabricated source.
        """
        cls = type(self)
        if (
            cls.next_header is RoutingFunction.next_header
            and cls.initial_header is DestinationBasedRoutingFunction.initial_header
        ):
            return "next-hop"
        return super().program_kind()

    def initial_header(self, source: int, dest: int) -> int:
        return dest

    def port(self, node: int, header: Hashable) -> int:
        dest = int(header)  # type: ignore[arg-type]
        if dest == node:
            return DELIVER
        return self.port_to(node, dest)

    @abc.abstractmethod
    def port_to(self, node: int, dest: int) -> int:
        """Output port used at ``node`` for a message destined to ``dest != node``."""

    def local_map(self, node: int) -> Dict[int, int]:
        """The map ``dest -> port`` describing the local routing function of ``node``."""
        return {
            dest: self.port_to(node, dest)
            for dest in self._graph.vertices()
            if dest != node
        }


#: Entry of a table port matrix with no stored port (the table is missing
#: the destination); never a valid port, since ports are ``1..deg``.
NO_ENTRY = -1


def _port_matrix(n: int, tables: Mapping[int, Mapping[int, int]]) -> np.ndarray:
    """``(n, n)`` port matrix of a ``tables[x][dest]`` mapping.

    Missing entries hold :data:`NO_ENTRY`, the diagonal :data:`DELIVER`.
    Raises :class:`ValueError` on any vertex or destination key outside
    ``0..n-1`` and on self-entries: numpy would otherwise wrap a negative
    key onto another column (or let a self-entry shadow the diagonal).
    """
    ports = np.full((n, n), NO_ENTRY, dtype=np.int64)
    for x, table in tables.items():
        x = int(x)
        if not 0 <= x < n:
            raise ValueError(f"routing table for vertex {x} outside 0..{n - 1}")
        dests = np.fromiter(table.keys(), count=len(table), dtype=np.int64)
        outside = (dests < 0) | (dests >= n)
        if outside.any():
            raise ValueError(
                f"routing table of vertex {x} has destination {int(dests[outside][0])} "
                f"outside 0..{n - 1}"
            )
        if (dests == x).any():
            raise ValueError(f"routing table of vertex {x} contains a self-entry")
        ports[x, dests] = np.fromiter(table.values(), count=len(table), dtype=np.int64)
    np.fill_diagonal(ports, DELIVER)
    return ports


class TableRoutingFunction(DestinationBasedRoutingFunction):
    """Destination-based routing function backed by explicit per-node tables.

    Parameters
    ----------
    graph:
        The underlying graph.
    tables:
        Either a mapping, ``tables[x][dest]`` being the output port used at
        ``x`` for destination ``dest``, or the ``(n, n)`` port matrix
        itself (diagonal ignored, :data:`NO_ENTRY` for a missing entry).
        Every node must have an entry for every other vertex; keys outside
        ``0..n-1`` and self-entries raise :class:`ValueError` even without
        validation.
    validate:
        When true (default), table completeness and port validity are checked
        eagerly; otherwise on lowering.
    """

    def __init__(
        self,
        graph: PortLabeledGraph,
        tables: Union[Mapping[int, Mapping[int, int]], np.ndarray],
        validate: bool = True,
    ) -> None:
        super().__init__(graph)
        n = graph.n
        if isinstance(tables, np.ndarray):
            if tables.shape != (n, n):
                raise ValueError(f"port matrix has shape {tables.shape}, expected {(n, n)}")
            ports = np.array(tables, dtype=np.int64)
            np.fill_diagonal(ports, DELIVER)
        else:
            ports = _port_matrix(n, tables)
        ports.flags.writeable = False
        self._ports = ports
        if validate:
            self._check()

    def _check(self) -> None:
        """Raise on the first router (in vertex order) with a missing entry or invalid port."""
        n = self._graph.n
        off = ~np.eye(n, dtype=bool)
        degrees = np.diff(self._graph.adjacency_arrays()[0])
        missing = off & (self._ports == NO_ENTRY)
        invalid = off & ((self._ports < 1) | (self._ports > degrees[:, None]))
        bad_rows = missing.any(axis=1) | invalid.any(axis=1)
        if not bad_rows.any():
            return
        x = int(np.argmax(bad_rows))
        if missing[x].any():
            raise ValueError(
                f"routing table of vertex {x} has {n - 1 - int(missing[x].sum())} "
                f"entries, expected {n - 1} (one per other vertex)"
            )
        dest = int(np.argmax(invalid[x]))
        raise ValueError(
            f"vertex {x} routes to destination {dest} through invalid port "
            f"{int(self._ports[x, dest])} (degree {int(degrees[x])})"
        )

    @property
    def port_matrix(self) -> np.ndarray:
        """Read-only ``(n, n)`` matrix of the stored ports (diagonal :data:`DELIVER`)."""
        return self._ports

    def port_to(self, node: int, dest: int) -> int:
        port = int(self._ports[node, dest])
        if port == NO_ENTRY:
            raise KeyError(f"vertex {node} has no table entry for destination {dest}")
        return port

    def local_map(self, node: int) -> Dict[int, int]:
        return {
            dest: port
            for dest, port in enumerate(self._ports[node].tolist())
            if dest != node and port != NO_ENTRY
        }

    def table(self, node: int) -> Dict[int, int]:
        """Alias of :meth:`local_map` matching the routing-table vocabulary."""
        return self.local_map(node)

    def next_node_array(self) -> Optional[np.ndarray]:
        """The port matrix translated to next nodes through the adjacency arrays.

        An unvalidated table may be malformed: the first router (in vertex
        order) with a missing entry or an invalid port raises the specific
        :class:`ValueError` instead of corrupting the matrix.
        """
        if not uses_own(self, TableRoutingFunction, "port", "port_to"):
            return None
        n = self._graph.n
        own = np.arange(n)
        if n < 2:
            return own[:, None].copy()
        self._check()
        indptr, indices = self._graph.adjacency_arrays()
        slots = indptr[:-1, None] + self._ports - 1
        slots[own, own] = 0  # the diagonal delivers; any valid slot will do
        next_node = indices[slots]
        next_node[own, own] = own
        return next_node


class LabeledRoutingFunction(RoutingFunction):
    """Base class for labeled (name-dependent) schemes.

    The scheme assigns each destination an *address* (:meth:`address`)
    containing routing hints; the initial header of a message is the address
    of the destination.  The paper's model fixes node labels to ``1..n`` but
    its Table 1 explicitly covers referenced schemes with ``O(log^2 n)``-bit
    vertex labels; we keep the address size as a separately reported
    quantity (see :func:`repro.memory.requirement.address_bits`).
    """

    #: Headers are per-destination addresses (finitely many), so the
    #: header-compiled simulator path applies.
    can_vectorize: ClassVar[bool] = True

    def program_kind(self) -> str:
        """Next-hop form iff the fixed-address contract is intact.

        Labeled headers are per-destination addresses: header-constant
        unless a subclass rewrites them (``next_header``) or derives the
        initial header from more than the destination
        (``initial_header``); those subclasses fall through to the base
        resolution.
        """
        cls = type(self)
        if (
            cls.next_header is RoutingFunction.next_header
            and cls.initial_header is LabeledRoutingFunction.initial_header
        ):
            return "next-hop"
        return super().program_kind()

    @abc.abstractmethod
    def address(self, dest: int) -> Hashable:
        """Address (routing label) of ``dest``."""

    def initial_header(self, source: int, dest: int) -> Hashable:
        return self.address(dest)


class BaseRoutingScheme:
    """Concrete base of the library's routing schemes: owns the lowering.

    Gives every scheme the ``compile_program(graph)`` entry point of the
    compile-once pipeline: build the routing function on a copy of the
    graph (some schemes relabel ports in place) and lower it to its
    :class:`~repro.routing.program.RoutingProgram`.  Subclasses implement
    ``build`` and expose ``name`` / ``stretch_guarantee`` as before.
    """

    name: str = "routing-scheme"

    def build(self, graph: PortLabeledGraph) -> RoutingFunction:
        """Return a routing function for ``graph`` (subclass responsibility)."""
        raise NotImplementedError

    def compile_program(self, graph: PortLabeledGraph, max_states: Optional[int] = None) -> "RoutingProgram":
        """Lower this scheme on ``graph`` to a serializable routing program.

        A ``build`` refusal on an inapplicable graph is re-raised as
        :class:`SchemeInapplicableError` (see
        :func:`repro.routing.program.compile_scheme_program`).
        """
        from repro.routing.program import compile_scheme_program

        return compile_scheme_program(self, graph, max_states=max_states)


@runtime_checkable
class RoutingScheme(Protocol):
    """A universal routing scheme: a callable producing a routing function for any graph.

    Concrete schemes additionally expose a ``name`` attribute and may expose
    a ``stretch_guarantee`` attribute giving the worst-case stretch they are
    designed for (``None`` meaning shortest paths).  Library schemes derive
    from :class:`BaseRoutingScheme` and also offer ``compile_program(graph)``
    — build-then-lower to a :class:`~repro.routing.program.RoutingProgram`.
    """

    name: str

    def build(self, graph: PortLabeledGraph) -> RoutingFunction:
        """Return a routing function for ``graph``."""
        ...
