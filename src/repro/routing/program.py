"""Compiled routing programs — the serializable IR every scheme lowers to.

The paper's model ``R = (I, H, P)`` is *pure local data*: per-node maps from
headers to output ports and rewritten headers.  A :class:`RoutingProgram` is
that data made explicit — a compiled, self-contained artifact that a thin
engine (:mod:`repro.sim.engine`) can execute without ever calling back into
the scheme that produced it.  Three program kinds cover the three execution
shapes the simulator historically special-cased:

* :class:`NextHopProgram` (``kind = "next-hop"``) — header-constant schemes
  (the header is a function of the destination alone, never rewritten)
  lower to a dense ``next_node[x, dest]`` matrix: the whole routing function
  is one ``(n, n)`` integer array.
* :class:`HeaderStateProgram` (``kind = "header-state"``) — finite-header
  *rewriting* schemes lower to interned ``(node, header)`` states with
  functional transition arrays ``succ``/``deliver``/``node_of`` plus the
  exact ``hops_to_deliver`` livelock analysis (a pointer-doubling stop
  resolution).
* :class:`GenericProgram` (``kind = "generic"``) — the explicit opt-out
  marker for schemes whose header evolution is unbounded (or undeclared):
  execution requires the live routing function, and the program records
  only that fact (plus ``n``).

Every program serializes to a stable binary form (:meth:`RoutingProgram.to_bytes`
/ :func:`program_from_bytes`) and carries a content :meth:`~RoutingProgram.fingerprint`
(sha256 of the bytes) that is independent of process, hash seed and
platform — the property :class:`repro.analysis.runner.ExperimentCache`
relies on to cache compiled programs on disk and ship them across shard
workers as bytes.  The artifact's size in bits is directly measurable
(:func:`repro.memory.requirement.program_memory_profile` scores per-node
slices through the decodable coders), which is what ties the paper's
``MEM_G(R, x)`` to the compiled form.

Lowering is *owned by the routing classes*: every
:class:`~repro.routing.model.RoutingFunction` declares its own
:meth:`~repro.routing.model.RoutingFunction.program_kind` and lowers itself
via :meth:`~repro.routing.model.RoutingFunction.compile_program`, which
dispatches to :func:`lower_next_hop` / :func:`lower_header_state` here.
The engine performs no capability sniffing of its own.
"""

from __future__ import annotations

import hashlib
import mmap
import os
import struct
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING, Any, Dict, Hashable, List, Optional, Tuple, Union

import numpy as np

from repro.graphs.digraph import PortLabeledGraph
from repro.routing.model import (
    DELIVER,
    DestinationBasedRoutingFunction,
    RoutingFunction,
    RoutingScheme,
    SchemeInapplicableError,
    TableRoutingFunction,
)

if TYPE_CHECKING:  # circular at runtime: repro.sim imports this module
    from repro.sim.faults import FaultSet

__all__ = [
    "DELTA_PATCHED",
    "DELTA_RECOMPILED",
    "DELTA_UNCHANGED",
    "DROPPED",
    "KIND_GENERIC",
    "KIND_HEADER_STATE",
    "KIND_NEXT_HOP",
    "MISDELIVER",
    "NO_ROUTE",
    "DeltaResult",
    "GenericProgram",
    "HeaderStateExplosionError",
    "HeaderStateProgram",
    "NextHopProgram",
    "RoutingProgram",
    "apply_delta",
    "compile_scheme_program",
    "functional_hops",
    "incremental_distance_matrix",
    "load_program",
    "lower",
    "lower_header_state",
    "lower_next_hop",
    "program_from_bytes",
    "save_program",
    "transition_dtype",
]

# ----------------------------------------------------------------------
# canonical negative sentinels of the compiled-program IR
# ----------------------------------------------------------------------
# Every sentinel the IR and its executors/analyses use lives here, each
# with exactly one meaning; ``transition_dtype`` keeps all of them
# representable at every array width, so no layer ever remaps them.  The
# repo lint (``tools/repro_lint.py``) pins call sites to these names — a
# raw ``-2``/``-3`` literal in :mod:`repro.sim` / :mod:`repro.routing` is
# a lint error.

#: Sentinel in a compiled next-hop matrix: the local function returns
#: :data:`~repro.routing.model.DELIVER` at a node that is not the
#: destination, so the message stops there (misdelivery).
MISDELIVER = -2

#: Sentinel in a *masked* transition array (``NextHopProgram.next_node``
#: entries, ``HeaderStateProgram.succ`` entries): the hop this transition
#: would take crosses a failed edge or enters a failed node, so a message
#: attempting it is dropped at the fault instead of moving.  Produced by
#: :func:`repro.sim.faults.apply_faults` through the :meth:`with_next_node`
#: / :meth:`with_transitions` view API; only masked execution
#: (:func:`repro.sim.engine.execute_masked_program`) accepts it — the plain
#: executor rejects it, and an unmasked lowering never emits it.
DROPPED = -3

#: The ``-1`` "no route / never stops" marker shared by every hop-count
#: array of the IR and its executors: ``HeaderStateProgram.hops_to_deliver``
#: entries (the walk provably cycles), ``HeaderStateProgram.initial``'s
#: diagonal (no message is sent to oneself), the length matrices of
#: :class:`repro.sim.engine.SimulationResult` /
#: :class:`repro.sim.engine.MaskedExecution` (undelivered pairs), and the
#: per-pair hops of :class:`repro.routing.verify.VerificationReport`.
#: Distinct from the graph layer's
#: :data:`repro.graphs.shortest_paths.UNREACHABLE` (same value, different
#: axis: that one marks *distances* on disconnected pairs).
NO_ROUTE = -1

#: Program kinds (also the value of ``RoutingFunction.program_kind()``).
KIND_NEXT_HOP = "next-hop"
KIND_HEADER_STATE = "header-state"
KIND_GENERIC = "generic"

#: Serialization magic + format version.  Bump the version on any change to
#: the byte layout; :func:`program_from_bytes` refuses unknown versions so a
#: cached artifact can never be silently misinterpreted.  Version 1 is the
#: historical copy-on-deserialize framing (every payload widened to
#: ``<i8``); version 2 writes aligned ``.npy``-style sections in canonical
#: domain-sized dtypes, which deserialize as **zero-copy views** over the
#: source buffer (an ``mmap`` through :func:`load_program`).  Version 1
#: blobs keep loading forever (version negotiation); everything encodes as
#: version 2 by default.
_MAGIC = b"RPRG"
_FORMAT_VERSION = 2
_V1 = 1
_SUPPORTED_VERSIONS = (1, 2)

#: Section payloads start on 64-byte boundaries (counted from the blob
#: start) so zero-copy views are cache-line / SIMD aligned when the blob
#: itself is page-aligned, as an mmap always is.
_SECTION_ALIGN = 64

#: v2 dtype codes.  Explicitly little-endian specs: the on-disk layout is
#: platform independent, and big-endian hosts fall back to a byteswapping
#: copy on load (numpy handles this through the explicit dtype).
_DTYPE_CODES = {np.dtype("|b1"): 1, np.dtype("<i2"): 2, np.dtype("<i4"): 3, np.dtype("<i8"): 4}
_CODE_DTYPES = {code: dt for dt, code in _DTYPE_CODES.items()}

_KIND_CODES = {KIND_NEXT_HOP: 1, KIND_HEADER_STATE: 2, KIND_GENERIC: 3}
_CODE_KINDS = {code: kind for kind, code in _KIND_CODES.items()}


def transition_dtype(num_values: int) -> np.dtype:
    """Smallest *signed* dtype holding ids ``0 .. num_values - 1``.

    The dtype policy of compiled programs: node and state ids are stored in
    the narrowest of ``int16``/``int32``/``int64`` that fits the domain.
    Signed on purpose — the :data:`MISDELIVER` (-2) and :data:`DROPPED`
    (-3) sentinels (and the ``-1`` of ``initial``/``hops_to_deliver``)
    stay representable verbatim at every width, so no executor or analysis
    ever needs sentinel remapping: ``== DROPPED`` comparisons behave
    identically on an int16 and an int64 program.  The int16 floor caps
    addressable domains at 32767 ids, far above the n >= 4096 target.
    """
    # The width ladder itself is the one place the fixed widths are
    # the point.  # repro-lint: allow-dtype
    if num_values - 1 <= np.iinfo(np.int16).max:  # repro-lint: allow-dtype
        return np.dtype(np.int16)  # repro-lint: allow-dtype
    if num_values - 1 <= np.iinfo(np.int32).max:  # repro-lint: allow-dtype
        return np.dtype(np.int32)  # repro-lint: allow-dtype
    return np.dtype(np.int64)


class HeaderStateExplosionError(ValueError):
    """The reachable ``(node, header)`` state set exceeded the safety cap.

    Raised by :func:`lower_header_state` when a scheme declaring
    ``can_vectorize = True`` turns out to generate more states than the cap
    allows — i.e. the finite-alphabet promise is (close to) broken.  Under
    ``method="auto"`` the simulator catches this and falls back to the
    generic interpreter; a forced ``method="header-compiled"`` propagates
    it.
    """


# ----------------------------------------------------------------------
# binary array framing (shared by to_bytes / program_from_bytes)
# ----------------------------------------------------------------------
def _pack_array_v1(array: np.ndarray) -> bytes:
    """v1 frame of one array: ndim (u8) | dims (u64 LE each) | '<i8' payload.

    Bools are widened to int64 so the payload layout has exactly one dtype;
    kept verbatim so :meth:`RoutingProgram.to_bytes` can still emit v1 blobs
    for compatibility tests against archived caches.
    """
    data = np.ascontiguousarray(array, dtype="<i8")
    head = struct.pack("<B", data.ndim) + struct.pack(
        f"<{data.ndim}Q", *data.shape
    )
    return head + data.tobytes()


def _unpack_array_v1(blob: Any, offset: int) -> Tuple[np.ndarray, int]:
    (ndim,) = struct.unpack_from("<B", blob, offset)
    offset += 1
    shape = struct.unpack_from(f"<{ndim}Q", blob, offset)
    offset += 8 * ndim
    count = int(np.prod(shape, dtype=np.int64)) if ndim else 1
    if len(blob) - offset < 8 * count:
        raise ValueError(
            f"truncated RoutingProgram payload: array of shape {shape} needs "
            f"{8 * count} bytes at offset {offset}, only "
            f"{max(len(blob) - offset, 0)} remain"
        )
    array = np.frombuffer(blob, dtype="<i8", count=count, offset=offset)
    offset += 8 * count
    return array.reshape(shape).astype(np.int64), offset


def _pack_section(parts: List[bytes], offset: int, array: np.ndarray, dtype: np.dtype) -> int:
    """Append one v2 section: dtype (u8) | ndim (u8) | dims (u64 LE each) |
    zero padding to the next 64-byte boundary | raw C-order payload.

    ``offset`` is the running byte offset of the whole blob (the alignment
    is absolute, so a deserializer mapping the file sees aligned payloads);
    returns the offset after this section.
    """
    data = np.ascontiguousarray(array, dtype=dtype)
    head = struct.pack("<BB", _DTYPE_CODES[np.dtype(dtype)], data.ndim)
    head += struct.pack(f"<{data.ndim}Q", *data.shape)
    parts.append(head)
    offset += len(head)
    pad = -offset % _SECTION_ALIGN
    parts.append(b"\0" * pad)
    offset += pad
    payload = data.tobytes()
    parts.append(payload)
    return offset + len(payload)


def _unpack_section(blob: Any, offset: int) -> Tuple[np.ndarray, int]:
    """Read one v2 section as a zero-copy (read-only) view over ``blob``."""
    code, ndim = struct.unpack_from("<BB", blob, offset)
    dtype = _CODE_DTYPES.get(code)
    if dtype is None:
        raise ValueError(f"unknown RoutingProgram section dtype code {code}")
    offset += 2
    shape = struct.unpack_from(f"<{ndim}Q", blob, offset)
    offset += 8 * ndim
    offset += -offset % _SECTION_ALIGN
    count = int(np.prod(shape, dtype=np.int64)) if ndim else 1
    # Pre-check the remaining bytes: frombuffer's own "buffer is smaller
    # than requested size" names neither the section nor the shortfall.
    needed = count * dtype.itemsize
    available = len(blob) - offset
    if available < needed:
        raise ValueError(
            f"truncated RoutingProgram payload: section of shape {shape} "
            f"({dtype}) needs {needed} bytes at offset {offset}, only "
            f"{max(available, 0)} remain"
        )
    array = np.frombuffer(blob, dtype=dtype, count=count, offset=offset)
    return array.reshape(shape), offset + needed


def _header(kind: str, version: int) -> bytes:
    return _MAGIC + struct.pack("<BB", version, _KIND_CODES[kind])


def _check_version(version: int) -> int:
    if version not in _SUPPORTED_VERSIONS:
        raise ValueError(f"unsupported RoutingProgram format version {version}")
    return version


# ----------------------------------------------------------------------
# the program kinds
# ----------------------------------------------------------------------
class RoutingProgram:
    """Base class of compiled routing programs (see the module docstring).

    Concrete kinds expose ``kind`` (one of :data:`KIND_NEXT_HOP`,
    :data:`KIND_HEADER_STATE`, :data:`KIND_GENERIC`), the vertex count
    ``n``, stable binary serialization and a content fingerprint.
    """

    kind: str = "?"

    @property
    def n(self) -> int:
        raise NotImplementedError

    def to_bytes(self, version: int = _FORMAT_VERSION) -> bytes:
        raise NotImplementedError

    def fingerprint(self) -> str:
        """Hex sha256 of the serialized program — process/hash-seed independent.

        Always hashes the *current* (v2) encoding, whose array dtypes are
        canonicalized from the domain sizes at encode time — so a program
        deserialized from a v1 blob (int64 arrays) fingerprints identically
        to the same program freshly compiled (domain-sized arrays).
        """
        return hashlib.sha256(self.to_bytes()).hexdigest()


@dataclass(frozen=True, eq=False)
class NextHopProgram(RoutingProgram):
    """Compiled header-constant routing: a dense ``dest -> next node`` matrix.

    ``next_node[x, dest]`` is the node a message at ``x`` destined to
    ``dest`` moves to; :data:`MISDELIVER` marks a wrong-node delivery and a
    diagonal entry ``next_node[d, d] != d`` records a broken scheme that
    forwards past its own destination (the executor lets such messages pass
    through, exactly like the legacy interpreter).
    """

    kind = KIND_NEXT_HOP

    next_node: np.ndarray

    @property
    def n(self) -> int:
        return int(self.next_node.shape[0])

    def to_bytes(self, version: int = _FORMAT_VERSION) -> bytes:
        if _check_version(version) == _V1:
            return _header(self.kind, _V1) + _pack_array_v1(self.next_node)
        head = _header(self.kind, version)
        parts = [head]
        _pack_section(parts, len(head), self.next_node, transition_dtype(self.n))
        return b"".join(parts)

    def with_next_node(self, next_node: np.ndarray) -> "NextHopProgram":
        """A new program sharing this one's shape but different transitions.

        The mutation/view entry point of the fault-injection machinery
        (:func:`repro.sim.faults.apply_faults`): masking replaces blocked
        entries with :data:`DROPPED` *without recompiling* the scheme.  The
        replacement matrix must keep the ``(n, n)`` shape — a masked view
        is still a program over the same vertex set.  The stored dtype is
        this program's own (domain-sized, see :func:`transition_dtype`);
        sentinels are negative and fit every width.
        """
        next_node = np.ascontiguousarray(next_node, dtype=self.next_node.dtype)
        if next_node.shape != self.next_node.shape:
            raise ValueError(
                f"replacement next-hop matrix has shape {next_node.shape}, "
                f"expected {self.next_node.shape}"
            )
        return NextHopProgram(next_node=next_node)


@dataclass(frozen=True, eq=False)
class HeaderStateProgram(RoutingProgram):
    """Compiled finite-header state machine of a routing function.

    States are the reachable ``(node, header)`` pairs; the transition
    relation is functional (each non-delivering state has exactly one
    successor), which is what makes both the vectorised advance (one gather
    per step) and the exact livelock analysis possible.

    Attributes
    ----------
    succ:
        ``succ[s]`` is the state the message enters after the hop taken in
        state ``s``; delivering states are self-loops.
    deliver:
        ``deliver[s]`` is whether ``P`` returns ``DELIVER`` in state ``s``
        (at :attr:`node_of` ``[s]`` — which need not be the destination).
    node_of:
        The node component of each state.
    hops_to_deliver:
        Exact number of forwarding hops from state ``s`` until the walk
        *stops*, or ``-1`` when it never does (a provable livelock).
        On a compiled (unmasked) program stopping means entering a
        delivering state; on a masked view (:func:`repro.sim.faults.apply_faults`)
        a :data:`DROPPED` transition stops the walk too, so the field is
        the exact stop analysis either way — ``-1`` always means the walk
        cycles forever.  Computed by one pointer-doubling resolution of
        the functional graph (:func:`functional_hops`).
    initial:
        ``initial[x, y]`` is the state id of ``(x, I(x, y))``; the diagonal
        is ``-1`` (no message is sent to oneself).
    headers:
        The header component of each state.  Debug metadata only: it is
        *not* serialized (headers are arbitrary hashables), so a program
        deserialized from bytes carries ``headers = None`` and executes
        identically.
    """

    kind = KIND_HEADER_STATE

    succ: np.ndarray
    deliver: np.ndarray
    node_of: np.ndarray
    hops_to_deliver: np.ndarray
    initial: np.ndarray
    headers: Optional[Tuple[Hashable, ...]] = None

    @property
    def n(self) -> int:
        return int(self.initial.shape[0])

    @property
    def num_states(self) -> int:
        """Number of reachable ``(node, header)`` states."""
        return int(self.succ.shape[0])

    def to_bytes(self, version: int = _FORMAT_VERSION) -> bytes:
        if _check_version(version) == _V1:
            return _header(self.kind, _V1) + b"".join(
                _pack_array_v1(a)
                for a in (
                    self.succ,
                    self.deliver,
                    self.node_of,
                    self.hops_to_deliver,
                    self.initial,
                )
            )
        # Canonical dtypes are recomputed from the domain sizes here, not
        # taken from the in-memory arrays: a program loaded from a v1 blob
        # (int64 arrays) re-encodes byte-identically to a fresh compile.
        sdt = transition_dtype(self.num_states)
        ndt = transition_dtype(self.n)
        head = _header(self.kind, version)
        parts = [head]
        offset = len(head)
        for array, dtype in (
            (self.succ, sdt),
            (self.deliver, np.dtype(bool)),
            (self.node_of, ndt),
            (self.hops_to_deliver, sdt),
            (self.initial, sdt),
        ):
            offset = _pack_section(parts, offset, array, dtype)
        return b"".join(parts)

    def with_transitions(
        self,
        succ: Optional[np.ndarray] = None,
        deliver: Optional[np.ndarray] = None,
        hops_to_deliver: Optional[np.ndarray] = None,
    ) -> "HeaderStateProgram":
        """A new program over the same state alphabet with edited transitions.

        The mutation/view entry point of the fault-injection machinery:
        :func:`repro.sim.faults.apply_faults` rewrites blocked successors to
        :data:`DROPPED` here instead of re-enumerating the header alphabet.
        ``hops_to_deliver`` is recomputed by default with **one**
        :func:`functional_hops` resolution whose stopping set counts
        :data:`DROPPED` transitions as stops, keeping the field's
        invariant (``-1`` iff the walk provably cycles) truthful on masked
        views.  Execution never reads the field back (the verifier
        resolves the stops itself and only checks the field), so a stale
        value is a reported issue, not a wrong result.  A caller that
        already knows the analysis is unchanged (an identity view) may
        pass it explicitly to skip the recompute.  State identity
        (``node_of``, ``initial``, debug ``headers``) is shared — a view
        edits behaviour, not the alphabet.
        """
        new_succ = (
            self.succ
            if succ is None
            else np.ascontiguousarray(succ, dtype=self.succ.dtype)
        )
        new_deliver = (
            self.deliver if deliver is None else np.ascontiguousarray(deliver, dtype=bool)
        )
        if new_succ.shape != self.succ.shape or new_deliver.shape != self.deliver.shape:
            raise ValueError(
                "replacement transition arrays must keep the state-alphabet "
                f"size {self.succ.shape[0]}"
            )
        if hops_to_deliver is None:
            hops_to_deliver = functional_hops(
                new_succ, new_deliver | (new_succ == DROPPED)
            ).astype(self.hops_to_deliver.dtype)
        elif hops_to_deliver.shape != self.hops_to_deliver.shape:
            raise ValueError(
                "replacement hops_to_deliver must keep the state-alphabet "
                f"size {self.succ.shape[0]}"
            )
        return HeaderStateProgram(
            succ=new_succ,
            deliver=new_deliver,
            node_of=self.node_of,
            hops_to_deliver=hops_to_deliver,
            initial=self.initial,
            headers=self.headers,
        )


@dataclass(frozen=True, eq=False)
class GenericProgram(RoutingProgram):
    """Explicit opt-out marker: this scheme is interpreted, not compiled.

    Executing it requires the live :class:`~repro.routing.model.RoutingFunction`
    (the engine's batched per-message interpreter); the program exists so
    the compile-once pipeline has a uniform artifact to cache and ship for
    *every* scheme, including the ones that decline compilation.
    """

    kind = KIND_GENERIC

    num_vertices: int

    @property
    def n(self) -> int:
        return int(self.num_vertices)

    def to_bytes(self, version: int = _FORMAT_VERSION) -> bytes:
        # Same <Q payload under both versions; only the version byte moves.
        return _header(self.kind, _check_version(version)) + struct.pack(
            "<Q", self.num_vertices
        )


def program_from_bytes(blob: Union[bytes, bytearray, memoryview]) -> RoutingProgram:
    """Deserialize a program produced by :meth:`RoutingProgram.to_bytes`.

    Accepts any buffer (``bytes``, a ``memoryview`` over an ``mmap``, …).
    Version 2 blobs deserialize as **zero-copy read-only views** over the
    buffer — nothing but the few header bytes is touched, so loading an
    mmapped artifact is O(1) and pages fault in lazily as the engine
    gathers.  Version 1 blobs (the historical ``<i8`` framing) still load,
    with their arrays cast down to the canonical domain-sized dtypes so a
    v1-loaded program is indistinguishable from a fresh compile.  Raises
    :class:`ValueError` on bad magic, unknown format versions or truncated
    payloads — a cached artifact is either read back exactly or rejected
    loudly (callers degrade to recompilation).
    """
    if bytes(blob[: len(_MAGIC)]) != _MAGIC:
        raise ValueError("not a serialized RoutingProgram (bad magic)")
    try:
        version, code = struct.unpack_from("<BB", blob, len(_MAGIC))
        if version not in _SUPPORTED_VERSIONS:
            raise ValueError(f"unsupported RoutingProgram format version {version}")
        kind = _CODE_KINDS.get(code)
        offset = len(_MAGIC) + 2
        unpack = _unpack_array_v1 if version == _V1 else _unpack_section
        if kind == KIND_GENERIC:
            (n,) = struct.unpack_from("<Q", blob, offset)
            return GenericProgram(num_vertices=int(n))
        if kind == KIND_NEXT_HOP:
            next_node, offset = unpack(blob, offset)
            if version == _V1:
                next_node = next_node.astype(transition_dtype(next_node.shape[0]))
            return NextHopProgram(next_node=next_node)
        if kind == KIND_HEADER_STATE:
            succ, offset = unpack(blob, offset)
            deliver, offset = unpack(blob, offset)
            node_of, offset = unpack(blob, offset)
            hops, offset = unpack(blob, offset)
            initial, offset = unpack(blob, offset)
            if version == _V1:
                sdt = transition_dtype(succ.shape[0])
                succ = succ.astype(sdt)
                hops = hops.astype(sdt)
                initial = initial.astype(sdt)
                node_of = node_of.astype(transition_dtype(initial.shape[0]))
            return HeaderStateProgram(
                succ=succ,
                deliver=deliver.astype(bool) if version == _V1 else deliver,
                node_of=node_of,
                hops_to_deliver=hops,
                initial=initial,
            )
    except struct.error as exc:
        raise ValueError(f"truncated RoutingProgram payload: {exc}") from exc
    raise ValueError(f"unknown RoutingProgram kind code {code}")


def save_program(program: RoutingProgram, path: Union[str, Path]) -> Path:
    """Write ``program`` to ``path`` in the current (v2, mmap-able) format.

    The write is atomic (temp file + ``os.replace`` in the same directory),
    so a concurrent :func:`load_program` never observes a half-written
    artifact — the contract the sharded runner's program store relies on.
    """
    path = Path(path)
    blob = program.to_bytes()
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    tmp.parent.mkdir(parents=True, exist_ok=True)
    try:
        tmp.write_bytes(blob)
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)
    return path


def load_program(
    path: Union[str, Path], expected_fingerprint: Optional[str] = None
) -> RoutingProgram:
    """Load a saved program as zero-copy views over an ``mmap`` of ``path``.

    O(1) regardless of program size: only the header bytes are read
    eagerly; transition arrays are read-only views whose pages fault in on
    first access (and are shared between worker processes mapping the same
    file).  The mapping stays alive as long as any array referencing it
    does.  Raises :class:`OSError` when the file is unreadable and
    :class:`ValueError` when its content is not a valid program (including
    the empty file an interrupted writer can never leave behind, thanks to
    the atomic :func:`save_program` — but a foreign truncated file is still
    rejected loudly).

    ``expected_fingerprint`` makes the load *store-aware*: a
    content-addressed store names each object file by the program's own
    :meth:`~RoutingProgram.fingerprint`, so passing the address re-hashes
    the decoded content and raises :class:`ValueError` on a mismatch —
    bytes flipped *within* valid framing fail the load instead of
    masquerading as the addressed program (the integrity half of
    :meth:`repro.store.ProgramStore.get`'s ``verify=True`` gate; the
    static-soundness half is :func:`repro.routing.verify.verify_program`).
    """
    with open(path, "rb") as handle:
        try:
            mapped = mmap.mmap(handle.fileno(), 0, access=mmap.ACCESS_READ)
        except ValueError as exc:  # zero-length file cannot be mapped
            raise ValueError(f"not a serialized RoutingProgram: {path} is empty") from exc
    program = program_from_bytes(memoryview(mapped))
    if expected_fingerprint is not None:
        actual = program.fingerprint()
        if actual != expected_fingerprint:
            raise ValueError(
                f"content-address mismatch for {path}: expected "
                f"{expected_fingerprint[:12]}..., decoded {actual[:12]}..."
            )
    return program


def _resolve_functional(
    succ: np.ndarray, terminal: np.ndarray, limit: int
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Pointer-doubling resolution of a functional graph with terminals.

    The one resolver behind every stop analysis of a compiled program:
    :func:`functional_hops`, :func:`repro.routing.verify.verify_program`
    and the flow engine's layer depths all read it.  ``succ`` maps each
    state to its unique successor (a terminal's own entry is ignored: it
    is re-pointed at itself here); ``terminal`` marks the absorbing
    states; ``limit`` is an upper bound on the length of any
    terminal-reaching walk (the state count of one connected analysis
    domain suffices — a longer walk would revisit a state and therefore
    never terminate).

    Returns ``(target, steps, resolved)``: for every resolved state, the
    terminal its walk reaches and the exact number of transitions to get
    there; states left unresolved after ``ceil(log2(limit))`` doubling
    rounds provably cycle.  The loop keeps the invariant *"``steps[s]`` is
    the exact distance from ``s`` to ``target[s]``"* — terminals carry
    ``(self, 0)``, which also makes every round *idempotent on resolved
    states* (their target self-loops contributing 0 further steps), so the
    doubling runs unconditionally over the full state vector: two
    ``np.take`` gathers per round, no index compaction, no scatter
    writes.  That is the fastest shape numpy offers for this recurrence —
    ``O(states · log(limit))`` contiguous work with early exit once
    everything resolved — and the gathers stay cache-local because a
    functional-graph successor never leaves its own analysis domain.
    ``steps`` comes back in a domain-sized dtype (``int32`` until the
    state count or walk bound needs more); callers widen on output.
    """
    num_states = succ.shape[0]
    # int32 state ids halve the gather traffic of the hot loop; resolved
    # steps are bounded by limit and an unresolved state's accumulator by
    # 2 * limit, so the 2**30 guard keeps even the transient values exact.
    compute_dtype = (
        np.int32  # repro-lint: allow-dtype (a compute width, not a stored one)
        if num_states <= 2**30 and limit <= 2**30
        else np.int64
    )
    target = succ.astype(compute_dtype, copy=True)
    tidx = np.flatnonzero(terminal)
    target[tidx] = tidx.astype(compute_dtype)
    steps = (~terminal).astype(compute_dtype)
    resolved = np.take(terminal, target)
    span = 1
    rounds = 0
    while span <= limit and not resolved.all():
        steps += np.take(steps, target)
        target = np.take(target, target)
        span *= 2
        rounds += 1
        # The resolved gather exists only to exit early; every other round
        # (and on the provable-cycle bound) keeps it exact where it
        # matters while halving the bookkeeping gathers.
        if rounds % 2 == 0 or span > limit:
            resolved = np.take(terminal, target)
    return target, steps, resolved


def _resolve_stops(
    succ: np.ndarray, stopping: np.ndarray
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Resolve every state of a transition array to its first stopping state.

    ``(target, steps, resolved)`` of :func:`_resolve_functional` over the
    functional graph ``s -> succ[s]`` with ``stopping`` as terminals.  A
    :data:`DROPPED` successor (a masked transition, see
    :func:`repro.sim.faults.apply_faults`) is absorbing but *non*-stopping
    unless marked in ``stopping``: the walk ends off-program there and the
    state stays unresolved.
    """
    succ = np.asarray(succ)
    stopping = np.asarray(stopping, dtype=bool)
    absorbed = stopping | (succ == DROPPED)
    state_succ = np.where(absorbed, np.arange(succ.shape[0]), succ)
    return _resolve_functional(state_succ, stopping, limit=succ.shape[0])


def functional_hops(succ: np.ndarray, stopping: np.ndarray) -> np.ndarray:
    """Exact hops from each state of a functional graph to a stopping state.

    ``succ`` is a functional transition array (each state has exactly one
    successor); ``stopping`` marks the absorbing states.  Returns, per
    state, the number of forwarding hops until a stopping state is entered
    (``0`` at the stopping states themselves) or ``-1`` when none is ever
    reached — the walk provably cycles, or falls off the program at a
    :data:`DROPPED` successor that is not itself stopping
    (:func:`_resolve_stops`).  This is the compile-time
    ``hops_to_deliver`` analysis (stopping = delivering-or-dropping on
    masked views).
    """
    _, steps, resolved = _resolve_stops(succ, stopping)
    return np.where(resolved, steps, steps.dtype.type(NO_ROUTE))


# ----------------------------------------------------------------------
# lowering
# ----------------------------------------------------------------------
def lower(rf: RoutingFunction, max_states: Optional[int] = None) -> RoutingProgram:
    """Lower ``rf`` to the program kind it declares via ``program_kind()``.

    This is the dispatcher behind
    :meth:`repro.routing.model.RoutingFunction.compile_program`.  A
    header-state lowering whose ``can_vectorize`` promise breaks raises
    :class:`HeaderStateExplosionError`; callers wanting the engine's
    auto-fallback catch it and use a :class:`GenericProgram` instead.
    """
    kind = rf.program_kind()
    if kind == KIND_NEXT_HOP:
        return lower_next_hop(rf)
    if kind == KIND_HEADER_STATE:
        return lower_header_state(rf, max_states=max_states)
    if kind == KIND_GENERIC:
        return GenericProgram(num_vertices=rf.graph.n)
    raise ValueError(f"{type(rf).__name__}.program_kind() returned unknown kind {kind!r}")


def compile_scheme_program(
    scheme: RoutingScheme, graph: PortLabeledGraph, max_states: Optional[int] = None
) -> RoutingProgram:
    """Build ``scheme`` on a copy of ``graph`` and lower the result.

    The scheme-level entry point of the compile-once pipeline: the graph is
    copied because some schemes (the complete-graph labellings) relabel
    ports in place.  A ``build`` refusal is re-raised as
    :class:`~repro.routing.model.SchemeInapplicableError` so grid drivers
    can skip the cell without masking lowering diagnostics.
    """
    try:
        rf = scheme.build(graph.copy())
    except ValueError as exc:
        raise SchemeInapplicableError(str(exc)) from exc
    return rf.compile_program(max_states=max_states)


def lower_next_hop(rf: RoutingFunction) -> NextHopProgram:
    """Compile the per-node ``dest -> port`` maps into a next-hop program.

    Returns the ``(n, n)`` domain-dtype matrix ``next_node`` (see
    :func:`transition_dtype`) with
    ``next_node[x, dest]`` the node the message moves to, or
    :data:`MISDELIVER` when the local function delivers at the wrong node.
    A diagonal entry ``next_node[dest, dest] = dest`` means the scheme
    delivers at the destination (every correct scheme); a broken scheme
    that keeps forwarding there has the onward neighbour recorded instead,
    so the simulated message passes through exactly as the legacy
    interpreter would.  Raises :class:`ValueError` on invalid ports, like
    the legacy simulator (but eagerly, for every pair at once).
    """
    graph = rf.graph
    n = graph.n
    next_node = np.empty((n, n), dtype=transition_dtype(n))
    diag = np.arange(n)
    next_node[diag, diag] = diag
    if n < 2:
        return NextHopProgram(next_node=next_node)
    indptr, indices = graph.adjacency_arrays()
    degrees = np.diff(indptr)

    if type(rf).port is DestinationBasedRoutingFunction.port and isinstance(
        rf, TableRoutingFunction
    ):
        # Tables are already the dest -> port map; skip the port() dispatch.
        # An unvalidated table (validate=False) may be malformed, so check
        # completeness eagerly with a specific error instead of corrupting
        # the diagonal or reporting a nonsensical port.
        for x in range(n):
            table = rf.local_map(x)
            if x in table:
                raise ValueError(f"routing table of vertex {x} contains a self-entry")
            if len(table) != n - 1:
                raise ValueError(
                    f"routing table of vertex {x} has {len(table)} entries, "
                    f"expected {n - 1} (one per other vertex)"
                )
            dests = np.fromiter(table.keys(), count=len(table), dtype=np.int64)
            ports = np.fromiter(table.values(), count=len(table), dtype=np.int64)
            invalid = (ports < 1) | (ports > degrees[x])
            if invalid.any():
                raise ValueError(
                    f"routing function used invalid port {int(ports[invalid][0])} "
                    f"at vertex {x} (degree {degrees[x]})"
                )
            next_node[x, dests] = indices[indptr[x] + ports - 1]
        return NextHopProgram(next_node=next_node)

    # Skipping P at the destination is only sound when the base
    # destination-based implementation (which hard-codes DELIVER there) is
    # in force; a subclass overriding port() gets evaluated at its own
    # destination so a broken forward-past-dest decision surfaces exactly
    # as in the legacy interpreter.
    delivers_at_dest = type(rf).port is DestinationBasedRoutingFunction.port
    for dest in range(n):
        header = rf.initial_header((dest + 1) % n, dest)
        for x in range(n):
            if x == dest and delivers_at_dest:
                continue  # P hard-codes DELIVER at the destination
            port = rf.port(x, header)
            if port == DELIVER:
                next_node[x, dest] = dest if x == dest else MISDELIVER
                continue
            if not 1 <= port <= degrees[x]:
                raise ValueError(
                    f"routing function used invalid port {port} at vertex {x} "
                    f"(degree {degrees[x]})"
                )
            next_node[x, dest] = indices[indptr[x] + port - 1]
    return NextHopProgram(next_node=next_node)


def lower_header_state(
    rf: RoutingFunction, max_states: Optional[int] = None
) -> HeaderStateProgram:
    """Enumerate the reachable header alphabet and compile transition arrays.

    Starting from the ``n * (n - 1)`` initial states ``(x, I(x, y))``, the
    closure under ``(node, h) -> (neighbour at P(node, h), H(node, h))`` is
    explored once; every state pays exactly one ``P`` (and at most one
    ``H``) evaluation, after which simulation is pure integer indexing.
    ``max_states`` caps the exploration (default ``1024 + 64 * n^2``)
    against schemes whose ``can_vectorize`` promise is broken — exceeding
    it raises :class:`HeaderStateExplosionError`.  Invalid ports raise the
    legacy :class:`ValueError`.
    """
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
                raise HeaderStateExplosionError(
                    f"{type(rf).__name__} reached {max_states} (node, header) states "
                    f"on a {n}-vertex graph; its can_vectorize promise of a finite "
                    "header alphabet looks broken — use method='generic'"
                )
            state_id[key] = sid
            nodes.append(node)
            headers.append(header)
        return sid

    # Interned ids are assigned while states are still being discovered, so
    # the scratch matrix is int64; it is cast to the state-domain dtype
    # once the alphabet is closed (below).
    initial = np.full((n, n), -1, dtype=np.int64)
    for dest in range(n):
        for src in range(n):
            if src != dest:
                initial[src, dest] = intern(src, rf.initial_header(src, dest))

    port_fn = rf.port
    next_header = rf.next_header
    neighbor_at_port = graph.neighbor_at_port
    succ: List[int] = []
    deliver: List[bool] = []
    idx = 0
    while idx < len(nodes):  # intern() appends newly discovered states
        node, header = nodes[idx], headers[idx]
        port = port_fn(node, header)
        if port == DELIVER:
            succ.append(idx)
            deliver.append(True)
        else:
            try:
                nxt = neighbor_at_port(node, port)
            except KeyError as exc:
                raise ValueError(
                    f"routing function used invalid port {port} at vertex {node} "
                    f"(degree {graph.degree(node)})"
                ) from exc
            succ.append(intern(nxt, next_header(node, header)))
            deliver.append(False)
        idx += 1

    sdt = transition_dtype(len(nodes))
    succ_arr = np.asarray(succ, dtype=sdt)
    deliver_arr = np.asarray(deliver, dtype=bool)
    node_arr = np.asarray(nodes, dtype=transition_dtype(n))

    return HeaderStateProgram(
        succ=succ_arr,
        deliver=deliver_arr,
        node_of=node_arr,
        # Exact hops-to-delivery over the functional transition graph;
        # states that never reach a delivering state cycle forever — the
        # provable livelocks, stored in the state-domain dtype (hops are
        # bounded by the state count).
        hops_to_deliver=functional_hops(succ_arr, deliver_arr).astype(sdt),
        initial=initial.astype(sdt),
        headers=tuple(headers),
    )


# ----------------------------------------------------------------------
# incremental deltas (dynamic topologies / churn workload)
# ----------------------------------------------------------------------

#: :attr:`DeltaResult.mode` values.  ``unchanged`` — the two snapshots are
#: identical (same edges *and* port labellings) and the input program is
#: returned as-is; ``patched`` — only the dirty ``(node, dest)`` entries
#: were recomputed; ``recompiled`` — the delta fell back to a full
#: :func:`compile_scheme_program` (non-incremental scheme/program kind, a
#: vertex-count change, or a dirty set above the threshold).
DELTA_UNCHANGED = "unchanged"
DELTA_PATCHED = "patched"
DELTA_RECOMPILED = "recompiled"


@dataclass(frozen=True, eq=False)
class DeltaResult:
    """Outcome of :func:`apply_delta`: the updated program plus accounting.

    Attributes
    ----------
    program:
        The program valid for ``graph_after`` — patched in place of the
        dirty entries or freshly recompiled, but in either case
        fingerprint/dtype/byte-layout identical to
        ``compile_scheme_program(scheme, graph_after)`` (masked with the
        same faults when ``faults`` was passed).
    mode:
        One of :data:`DELTA_UNCHANGED` / :data:`DELTA_PATCHED` /
        :data:`DELTA_RECOMPILED`.
    dirty_entries:
        Number of off-diagonal ``(node, dest)`` entries invalidated by the
        topology change (0 for ``unchanged``; the full off-diagonal count
        for ``recompiled`` fallbacks triggered by the threshold is *not*
        substituted — the field always reports the measured dirty set, or
        ``-1`` when the fallback fired before one was measured).
    dirty_destinations:
        Number of destinations with at least one dirty entry — the
        affected-destination frontier the invalidation propagated from.
    reconverge_rounds:
        Vectorised relaxation sweeps until the incremental distance update
        reached its fixpoint (0 when no edges were added or the fallback
        fired) — the "steps to reconvergence" of the routing state.
    recomputed_columns:
        Destination columns whose distances were rebuilt by a targeted BFS
        because a removed edge lay on one of their shortest paths.
    n:
        Vertex count of the snapshots.
    dist_after:
        The incrementally maintained distance matrix of ``graph_after``
        (``None`` on non-incremental paths) — chained deltas pass it back
        as the next call's ``dist_before`` so a whole churn trace pays for
        one full distance matrix at most.
    """

    program: RoutingProgram
    mode: str
    dirty_entries: int
    dirty_destinations: int
    reconverge_rounds: int
    recomputed_columns: int
    n: int
    dist_after: Optional[np.ndarray] = None

    @property
    def dirty_fraction(self) -> float:
        """Dirty share of the ``n * (n - 1)`` off-diagonal entries."""
        total = self.n * (self.n - 1)
        if total <= 0 or self.dirty_entries < 0:
            return 0.0
        return self.dirty_entries / total


#: Relaxation sentinel standing in for "unreachable": larger than any
#: real distance (paths have < 2^40 hops) yet far from int64 overflow
#: when two of them and a hop are summed.
_DIST_INF = np.int64(1) << 40

#: Matches :data:`repro.graphs.shortest_paths.UNREACHABLE` without the
#: import cycle (shortest_paths is graph-layer, this module routing-layer;
#: both pin the value in their tests).
_UNREACHABLE = -1


def _bfs_columns(graph: PortLabeledGraph, sources: np.ndarray) -> np.ndarray:
    """BFS distance rows from ``sources``, batched through scipy when present.

    Returns an ``(len(sources), n)`` int64 array with ``_UNREACHABLE`` for
    unreachable pairs.  One scipy call replaces ``len(sources)`` Python-level
    BFS traversals — the difference between a removal delta that beats a
    recompile and one that merely matches it — with the pure-Python
    per-column walk kept as the dependency-free fallback.
    """
    try:
        from scipy.sparse.csgraph import dijkstra
    except ImportError:
        from repro.graphs.shortest_paths import bfs_distances

        return np.stack(
            [
                np.asarray(bfs_distances(graph, int(t)), dtype=np.int64)
                for t in sources
            ]
        )
    raw = dijkstra(graph.csr_adjacency(), unweighted=True, indices=sources)
    raw = np.atleast_2d(raw)
    out = np.full(raw.shape, _UNREACHABLE, dtype=np.int64)
    finite = np.isfinite(raw)
    out[finite] = raw[finite].astype(np.int64)
    return out


def incremental_distance_matrix(
    graph_after: PortLabeledGraph,
    dist_before: np.ndarray,
    added: List[Tuple[int, int]],
    removed: List[Tuple[int, int]],
) -> Tuple[np.ndarray, int, int]:
    """Distances of ``graph_after`` maintained incrementally from a snapshot.

    ``dist_before`` is the all-pairs matrix of the *previous* snapshot;
    ``added``/``removed`` are the undirected edge diffs taking it to
    ``graph_after``.  Returns ``(dist_after, reconverge_rounds,
    recomputed_columns)``.

    The update is exact and change-proportional in the common churn regime:

    * **Removals** invalidate only the destination columns some removed
      edge had a shortest path through (``|d(u, t) - d(v, t)| == 1`` — the
      affected-destination frontier); those columns are rebuilt by one
      targeted BFS each on ``graph_after``.  Every other column is provably
      untouched by the removal (all its shortest-path DAGs survive).
    * **Additions** then run a vectorised relaxation ``d(x, y) <- min(d(x,
      y), d(x, u) + 1 + d(v, y))`` over the added edges to a fixpoint; the
      sweep count is the steps-to-reconvergence metric (a shortest path
      uses each added edge at most once, so it converges in at most
      ``len(added)`` sweeps).
    """
    n = graph_after.n
    d = np.array(dist_before, dtype=np.int64, copy=True)
    recomputed = 0
    if removed:
        affected = np.zeros(n, dtype=bool)
        for u, v in removed:
            affected |= np.abs(d[u, :] - d[v, :]) == 1
        sources = np.nonzero(affected)[0]
        if sources.size:
            cols = _bfs_columns(graph_after, sources)
            d[:, sources] = cols.T
            d[sources, :] = cols
            recomputed = int(sources.size)
    rounds = 0
    if added:
        work = np.where(d == _UNREACHABLE, _DIST_INF, d)
        while True:
            progressed = False
            for u, v in added:
                for a, b in ((u, v), (v, u)):
                    cand = work[:, a, None] + 1 + work[None, b, :]
                    better = cand < work
                    if better.any():
                        progressed = True
                        work[better] = cand[better]
            if not progressed:
                break
            rounds += 1
        d = np.where(work >= _DIST_INF, np.int64(_UNREACHABLE), work)
    return d, rounds, recomputed


def _port_dirty_vertices(
    graph_before: PortLabeledGraph, graph_after: PortLabeledGraph
) -> List[int]:
    """Vertices whose port labelling differs between the two snapshots.

    Computed by direct per-vertex comparison rather than from the edge
    diff: robust to any relabelling convention (a churn mutation shifts
    ports only at the touched endpoints, but an adversarial caller may
    relabel anywhere, and a relabel changes every tie-break at that
    vertex).
    """
    return [
        x
        for x in range(graph_before.n)
        if graph_before.port_map(x) != graph_after.port_map(x)
    ]


def _assert_patched_sound(
    patched: "NextHopProgram", dist_after: np.ndarray, faults: "Optional[FaultSet]"
) -> None:
    """Statically prove a delta-patched table program correct (or raise).

    The soundness contract of a shortest-path table program over
    ``graph_after``: every feasible pair delivers in exactly the true
    distance, and under a fault mask the only other possible fate is a
    drop at a masked transition.  Proven by the static verifier — no
    recompile, no simulation.  Deferred import: :mod:`repro.routing.verify`
    imports this module.
    """
    from repro.routing.verify import (
        VERDICT_DELIVERED,
        VERDICT_DROPPED,
        VERDICT_INFEASIBLE,
        ProgramVerificationError,
        verify_program,
    )

    n = patched.n
    alive = faults.alive_mask(n) if faults is not None else None
    report = verify_program(patched, alive=alive, strict=True)
    allowed = (VERDICT_DELIVERED, VERDICT_DROPPED) if faults is not None else (
        VERDICT_DELIVERED,
    )
    feasible = report.outcome != VERDICT_INFEASIBLE
    bad = feasible.copy()
    for code in allowed:
        bad &= report.outcome != code
    delivered = report.outcome == VERDICT_DELIVERED
    wrong_hops = delivered & (report.hops != dist_after)
    if bad.any() or wrong_hops.any():
        if bad.any():
            xs, ys = np.nonzero(bad)
            x, y = int(xs[0]), int(ys[0])
            from repro.routing.verify import VERDICT_NAMES

            detail = (
                f"pair {x} -> {y} is "
                f"{VERDICT_NAMES[int(report.outcome[x, y])]}"
            )
        else:
            xs, ys = np.nonzero(wrong_hops)
            x, y = int(xs[0]), int(ys[0])
            detail = (
                f"pair {x} -> {y} delivers in {int(report.hops[x, y])} hops, "
                f"distance is {int(dist_after[x, y])}"
            )
        raise ProgramVerificationError(
            f"delta-patched program failed the static soundness proof: "
            f"{detail} (a shortest-path table program must deliver every "
            f"feasible pair at exact distance"
            + (" or drop it at a fault)" if faults is not None else ")")
        )


def apply_delta(
    program: RoutingProgram,
    graph_before: PortLabeledGraph,
    graph_after: PortLabeledGraph,
    scheme: RoutingScheme,
    *,
    dirty_threshold: float = 0.5,
    dist_before: Optional[np.ndarray] = None,
    faults: "Optional[FaultSet]" = None,
    static_check: bool = False,
) -> DeltaResult:
    """Update a compiled program across a topology change without recompiling.

    ``program`` must be ``compile_scheme_program(scheme, graph_before)`` —
    or, when ``faults`` is passed, that program masked with the *same*
    fault set (``apply_faults(..., graph_before, faults)``); the result is
    then masked too, so deltas compose with the fault-injection workload
    without ever unmasking.  Returns a :class:`DeltaResult` whose program
    is **indistinguishable from a fresh compile at** ``graph_after`` —
    same arrays, same domain dtypes, same v2 byte layout, same
    :meth:`~RoutingProgram.fingerprint` (the differential contract
    ``tests/test_churn.py`` pins across the registry grid).

    The incremental fast path covers shortest-path table schemes lowered
    to :class:`NextHopProgram` (every tie-break rule).  The dirty set is
    the union of

    * all entries of vertices whose **port labelling** changed (an
      edge insertion/removal shifts ports at its endpoints, and ports are
      tie-break keys), and
    * entries ``(x, dest)`` where the **distance** to ``dest`` changed at
      ``x`` or at any neighbour of ``x`` — the affected-destination
      frontier propagated one hop (the next-hop choice reads exactly those
      distances).

    Only dirty entries are recomputed (replicating
    :func:`repro.routing.tables.build_next_hop_matrix`'s tie-break
    vectorised per row); distances themselves are maintained by
    :func:`incremental_distance_matrix`.  Everything else — other schemes,
    header-state/generic programs, vertex-count changes, dirty sets above
    ``dirty_threshold`` (a fraction of the off-diagonal entries), or a
    disconnecting change — falls back to a full recompile with identical
    semantics (a disconnected ``graph_after`` raises
    :class:`~repro.routing.model.SchemeInapplicableError` exactly like
    ``scheme.build``).

    ``static_check=True`` proves the *patched* program sound before
    returning it, using the static verifier instead of a byte-comparison
    against a throwaway recompile: a shortest-path table program must
    deliver every feasible pair in exactly ``dist_after`` hops — and under
    ``faults`` the only other permitted fate is a drop at a masked
    transition (tables can neither misdeliver nor livelock).  A violation
    raises :class:`~repro.routing.verify.ProgramVerificationError` naming
    the first offending pair; the recompile/unchanged paths return fresh or
    untouched compiles and are not re-proven.
    """
    from repro.routing.tables import ShortestPathTableScheme

    if graph_before.n != program.n:
        raise ValueError(
            f"program was compiled for n={program.n} but graph_before has "
            f"n={graph_before.n}"
        )

    def _recompiled() -> DeltaResult:
        fresh = compile_scheme_program(scheme, graph_after)
        if faults is not None:
            from repro.sim.faults import apply_faults

            fresh = apply_faults(fresh, graph_after, faults)
        return DeltaResult(
            program=fresh,
            mode=DELTA_RECOMPILED,
            dirty_entries=-1,
            dirty_destinations=-1,
            reconverge_rounds=0,
            recomputed_columns=0,
            n=graph_after.n,
        )

    if graph_before == graph_after:
        return DeltaResult(
            program=program,
            mode=DELTA_UNCHANGED,
            dirty_entries=0,
            dirty_destinations=0,
            reconverge_rounds=0,
            recomputed_columns=0,
            n=graph_after.n,
        )

    if (
        graph_before.n != graph_after.n
        or not isinstance(scheme, ShortestPathTableScheme)
        or not isinstance(program, NextHopProgram)
    ):
        return _recompiled()

    n = graph_after.n
    before_edges = set(graph_before.edges())
    after_edges = set(graph_after.edges())
    added = sorted(after_edges - before_edges)
    removed = sorted(before_edges - after_edges)

    if dist_before is None:
        from repro.graphs.shortest_paths import distance_matrix

        dist_before = distance_matrix(graph_before)
    dist_after, rounds, recomputed = incremental_distance_matrix(
        graph_after, dist_before, added, removed
    )
    if n > 1 and (dist_after == _UNREACHABLE).any():
        # The change disconnected the graph: a fresh build would refuse, and
        # the delta must be indistinguishable from it.
        return _recompiled()

    changed = dist_after != dist_before
    dirty = np.array(changed)
    if changed.any():
        # One-hop propagation: x's choice for dest reads the distances of
        # its neighbours, so a change at v invalidates every neighbour of v.
        dirty |= np.asarray(
            (graph_after.csr_adjacency() @ changed.astype(np.int8)) > 0
        )
    port_dirty = _port_dirty_vertices(graph_before, graph_after)
    if port_dirty:
        dirty[port_dirty, :] = True
    np.fill_diagonal(dirty, False)

    dirty_entries = int(dirty.sum())
    total = n * (n - 1)
    if total and dirty_entries > dirty_threshold * total:
        return _recompiled()
    dirty_destinations = int(dirty.any(axis=0).sum())

    tie_break = scheme.tie_break
    next_node = np.array(program.next_node, copy=True)  # mmap views are read-only
    indptr, indices = graph_after.adjacency_arrays()
    for x in np.nonzero(dirty.any(axis=1))[0]:
        dests = np.nonzero(dirty[x])[0]
        nbrs = indices[indptr[x] : indptr[x + 1]]  # port order: port k+1 = nbrs[k]
        on_shortest = dist_after[nbrs[:, None], dests[None, :]] == (
            dist_after[x, dests] - 1
        )
        if tie_break == "lowest_port":
            pick = on_shortest.argmax(axis=0)
        elif tie_break == "highest_port":
            pick = on_shortest.shape[0] - 1 - on_shortest[::-1].argmax(axis=0)
        elif tie_break == "lowest_neighbor":
            pick = np.where(on_shortest, nbrs[:, None], np.iinfo(np.int64).max).argmin(
                axis=0
            )
        else:  # pragma: no cover - guarded by ShortestPathTableScheme
            raise ValueError(f"unknown tie break rule {tie_break!r}")
        next_node[x, dests] = nbrs[pick].astype(next_node.dtype)

    patched = program.with_next_node(next_node)
    if faults is not None:
        # Masking is value-based and idempotent: unmasked entries equal to a
        # fresh compile mask identically, already-DROPPED entries stay
        # DROPPED, and freshly patched entries get masked here — so this is
        # exactly mask-after-recompile without the recompile.
        from repro.sim.faults import apply_faults

        patched = apply_faults(patched, graph_after, faults)
    if static_check:
        _assert_patched_sound(patched, dist_after, faults)
    return DeltaResult(
        program=patched,
        mode=DELTA_PATCHED,
        dirty_entries=dirty_entries,
        dirty_destinations=dirty_destinations,
        reconverge_rounds=rounds,
        recomputed_columns=recomputed,
        n=n,
        dist_after=dist_after,
    )
