"""Vectorized numpy message-plane engine.

The paper's algorithms are dominated by *fixed-shape broadcast rounds*:
every sending node broadcasts the same small message — one tag plus a few
bounded integer fields — to all of its neighbors.  For that traffic pattern
the round loop does not need per-message ``dict`` work at all: a round is
fully described by a **sender mask** plus one numpy column per declared
field, and both delivery (gather through the CSR topology) and wire
accounting (bit lengths, per-round totals, the CONGEST budget check) become
O(1) array operations over the edge slots.

Three pieces cooperate:

* :class:`MessageSpec` — a program's declaration that one of its phases
  broadcasts a fixed ``tag`` with named small-int fields.  The spec can
  compute the *exact* wire size of a whole column of messages at once
  (:meth:`MessageSpec.bits_array` replicates
  :func:`repro.congest.message.message_bits` bit for bit), which is what
  keeps ``bits_per_round`` / ``messages_per_round`` identical to the
  reference engine.
* :class:`VectorKernel` — a per-program-class state machine over flat numpy
  arrays.  A kernel re-expresses the program's ``receive`` transition as
  scatter/gather over the :class:`CsrPlane`; program modules register their
  kernel with :func:`register_kernel`.
* :class:`VectorEngine` — the engine.  A run whose programs have a
  registered kernel that accepts the inputs executes as a **one-instance
  stacked plane** (:func:`repro.congest.engine.batched.run_instance`):
  the same round loop that drives K-instance batches, booted from the
  ``Simulator``'s own programs and contexts.  Runs whose programs declare
  no :attr:`~repro.congest.node.NodeProgram.message_specs`, have no
  registered kernel, or whose kernel declines the inputs run on
  :class:`~repro.congest.engine.fast.FastEngine` — the parity suite
  (``tests/test_engine_parity.py``) proves all three engines
  observationally identical either way.

The round loop crosses the scalar → vector boundary **per instance**, at
most once: ``setup`` and any rounds before the kernel's declared
``takeover_round`` run with exact ``FastEngine`` mechanics, then the
instance's state is handed to the kernel.  Fully-broadcast programs
(greedy MDS, rounding execution, color reduction) take over at round 1,
and so does the Lemma 3.10 loop on its canonical uniform inputs — its
color-class rounds run *in-plane*, with the targeted ``alpha`` sends
expressed as :class:`PendingTargeted` slot traffic and a round optionally
carrying several differently-tagged parts at once.  On heterogeneous
inputs the loop instead runs those rounds under scalar semantics and
vectorizes the final execution-phase broadcasts (takeover at
``2 + 3*num_colors``; see :meth:`VectorKernel.absorb_instance`).  An
instance whose queued traffic at its takeover round is not a conforming
broadcast is never handed over and finishes under scalar semantics
inside the same loop.

The plane itself is backend-agnostic: every :class:`CsrPlane` hot-path
operation routes through :func:`plane_namespace`, an array-namespace seam
defaulting to numpy.  Under numpy the exact ``reduceat`` fast paths run
unchanged; under any other array-API namespace (``array-api-strict`` for
conformance testing, CuPy for GPUs) the same reductions run through
portable segment kernels — cumulative-sum differences for segment sums,
log-doubling sweeps for segment maxima — so switching backends is a
:func:`use_plane_namespace` call rather than a rewrite.  The seam covers
the plane (topology arrays plus row reductions, gathers and sender-slot
expansion); the engine loops and kernels above it still assume
numpy-compatible semantics.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from array import array
from contextlib import contextmanager
from typing import Dict, Optional, Sequence, Tuple, Type, Union

import numpy as np

from repro.congest.engine.base import Engine, SimulationResult, register_engine
from repro.congest.engine.fast import FastEngine
from repro.congest.message import (
    FIELD_FRAMING_BITS,
    MESSAGE_HEADER_BITS,
)
from repro.congest.network import Network
from repro.congest.node import Context, NodeProgram
from repro.errors import BatchEligibilityError, CongestError

__all__ = [
    "CsrPlane",
    "MessageSpec",
    "PendingBroadcast",
    "VectorEngine",
    "VectorKernel",
    "kernel_for",
    "plane_namespace",
    "register_kernel",
    "set_plane_namespace",
    "use_plane_namespace",
]

#: The configured array namespace for plane arrays; ``None`` means numpy.
_PLANE_NAMESPACE = None


def plane_namespace():
    """The active array namespace for message-plane arrays.

    This is the backend seam: :class:`CsrPlane` (and the stacked plane
    built on it) capture the namespace returned here at construction and
    route every hot-path operation through it.  Defaults to numpy;
    configure another array-API namespace (``array_api_strict``, CuPy)
    with :func:`set_plane_namespace` or :func:`use_plane_namespace`.
    """
    return np if _PLANE_NAMESPACE is None else _PLANE_NAMESPACE


def set_plane_namespace(xp):
    """Install ``xp`` as the plane's array namespace; returns the previous.

    ``None`` restores the numpy default.  The namespace must implement the
    array API standard operations the plane uses (``asarray``, ``astype``,
    ``take``, ``where``, ``maximum``, ``cumulative_sum``, ``searchsorted``
    and the basic constructors); numpy itself always qualifies and keeps
    its exact ``reduceat`` fast paths.
    """
    global _PLANE_NAMESPACE
    previous = _PLANE_NAMESPACE
    _PLANE_NAMESPACE = xp
    return previous


@contextmanager
def use_plane_namespace(xp):
    """Context manager: run a block with ``xp`` as the plane namespace."""
    previous = set_plane_namespace(xp)
    try:
        yield xp
    finally:
        set_plane_namespace(previous)

#: Largest field value whose bit length the float64 ``frexp`` trick recovers
#: exactly.  CONGEST fields are O(log n)-bit by design, so this is purely a
#: guard against kernel bugs.
_MAX_EXACT_FIELD = 1 << 53


def bit_length_array(values: np.ndarray) -> np.ndarray:
    """Vectorized :func:`repro.congest.message.bits_of_int`.

    ``frexp`` returns the binary exponent of each value, which for positive
    integers below 2**53 is exactly the bit length; zeros are charged one
    bit, matching the scalar accounting.
    """
    values = np.asarray(values, dtype=np.int64)
    if values.size and int(values.min()) < 0:
        raise CongestError("message fields must be non-negative")
    if values.size and int(values.max()) >= _MAX_EXACT_FIELD:
        raise CongestError("message field too large for vectorized accounting")
    _, exponents = np.frexp(values.astype(np.float64))
    return np.where(values > 0, exponents, 1).astype(np.int64)


class MessageSpec:
    """Shape declaration for one fixed-form broadcast message family.

    ``tag`` is the message tag; ``fields`` are the names of its integer
    fields, in wire order.  A program lists the specs of its vector-eligible
    broadcast phases in :attr:`NodeProgram.message_specs`; kernels use them
    to build outbound columns and to account wire bits exactly.
    """

    __slots__ = ("tag", "fields")

    def __init__(self, tag: str, *fields: str):
        self.tag = tag
        self.fields = fields

    @property
    def arity(self) -> int:
        return len(self.fields)

    def bits_array(self, columns: Sequence[np.ndarray]) -> np.ndarray:
        """Exact per-sender wire size for one column of messages.

        Replicates ``MESSAGE_HEADER_BITS + sum(FIELD_FRAMING_BITS +
        bit_length(field))`` over whole arrays.
        """
        if len(columns) != self.arity:
            raise CongestError(
                f"spec {self.tag!r} expects {self.arity} fields, "
                f"got {len(columns)} columns"
            )
        if not columns:
            raise CongestError(f"spec {self.tag!r} declares no fields")
        base = MESSAGE_HEADER_BITS + FIELD_FRAMING_BITS * self.arity
        total = np.full(columns[0].shape, base, dtype=np.int64)
        for column in columns:
            total += bit_length_array(column)
        return total

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"MessageSpec({self.tag!r}, fields={self.fields!r})"


class PendingBroadcast:
    """One round's in-flight broadcast traffic, in columnar form.

    ``mask[v]`` says whether node ``v`` broadcast this round; ``columns``
    holds one full-length int64 array per spec field (entries of
    non-senders are ignored); ``bits`` is the exact per-sender message
    size.  Messages physically exist only on the wires of senders with at
    least one neighbor — accounting and delivery both respect that.
    """

    __slots__ = ("spec", "mask", "columns", "bits")

    def __init__(
        self,
        spec: MessageSpec,
        mask: np.ndarray,
        columns: Tuple[np.ndarray, ...],
        bits: np.ndarray,
    ):
        self.spec = spec
        self.mask = mask
        self.columns = columns
        self.bits = bits


class PendingTargeted:
    """One round's in-flight *targeted* traffic, addressed per CSR slot.

    The broadcast plane cannot express a round where each sender picks one
    recipient (``ctx.send``), so targeted phases — Lemma 3.10's alpha
    quotes — ride in receiver-side slot form: slot ``s`` of row ``v``
    (``indptr[v] <= s < indptr[v+1]``) carries a message from ``v``'s
    peer ``indices[s]`` to ``v`` iff ``slot_mask[s]``.  ``columns`` holds
    one slot-length int64 array per field and ``bits`` the exact
    per-message wire size; unmasked entries are ignored.  Exactly one
    message per masked slot travels on the wire, so accounting is a
    masked sum instead of the broadcast's degree weighting.
    """

    __slots__ = ("spec", "slot_mask", "columns", "bits")

    def __init__(
        self,
        spec: MessageSpec,
        slot_mask: np.ndarray,
        columns: Tuple[np.ndarray, ...],
        bits: np.ndarray,
    ):
        self.spec = spec
        self.slot_mask = slot_mask
        self.columns = columns
        self.bits = bits


#: What a kernel may hand the round loop: nothing, one broadcast, one
#: targeted batch, or several of them at once (a ragged stacked plane can
#: have instances in different protocol phases, so one plane round may
#: carry differently-tagged traffic side by side).
PendingTraffic = Union[
    None, PendingBroadcast, PendingTargeted, Tuple[object, ...]
]


def pending_parts(pending: PendingTraffic) -> Tuple[object, ...]:
    """Normalize a kernel's outbound traffic to a tuple of parts."""
    if pending is None:
        return ()
    if isinstance(pending, tuple):
        return pending
    return (pending,)


class CsrPlane:
    """Array view of a network's CSR topology plus exact row reductions.

    ``indices[indptr[v]:indptr[v+1]]`` are the neighbors of ``v`` (the
    *slots* of row ``v``).  The plane captures :func:`plane_namespace` at
    construction.  Under numpy, row reductions use ``ufunc.reduceat`` over
    the non-empty rows only; under any other array-API namespace the same
    reductions run through portable segment kernels (cumulative-sum
    differences, log-doubling maxima).  Either way isolated nodes are
    handled without branching and all arithmetic stays in int64
    (bit-exact, unlike float matvecs).
    """

    __slots__ = (
        "n",
        "nnz",
        "xp",
        "indptr",
        "indices",
        "degrees",
        "local_n",
        "local_ids",
        "local_n_of",
        "_nonempty",
        "_starts",
        "_slot_row_end",
        "_max_degree",
    )

    def __init__(self, network: Network):
        indptr, indices = network.csr()
        self._init_arrays(_as_int64(indptr), _as_int64(indices))
        # A solo plane is its own single instance: local identifiers and the
        # locally-known network size coincide with the global ones.  The
        # stacked plane (engine/batched.py) overrides both so kernels keep
        # computing with per-instance semantics (packed-key bases, id fields
        # on the wire) no matter how many instances share the arrays.
        # ``local_n_of`` is the per-node view of "the n my instance believes
        # it runs on" — the quantity stackable kernels must base packed keys
        # and round schedules on, because a *ragged* stacked plane holds
        # instances of different sizes (``local_n`` is then ``None``).
        xp = self.xp
        self.local_n = self.n
        self.local_ids = xp.arange(self.n, dtype=xp.int64)
        self.local_n_of = xp.full(self.n, self.n, dtype=xp.int64)

    def _init_arrays(self, indptr: np.ndarray, indices: np.ndarray) -> None:
        xp = plane_namespace()
        self.xp = xp
        if xp is not np:
            indptr = xp.asarray(np.asarray(indptr), dtype=xp.int64)
            indices = xp.asarray(np.asarray(indices), dtype=xp.int64)
        self.indptr = indptr
        self.indices = indices
        self.n = int(indptr.shape[0]) - 1
        self.nnz = int(indices.shape[0])
        self.degrees = self.indptr[1:] - self.indptr[:-1]
        if xp is np:
            self._nonempty = self.degrees > 0
            self._starts = self.indptr[:-1][self._nonempty]
            self._slot_row_end = None
            self._max_degree = None
        else:
            # Portable-path helper tables: the row-end slot index of every
            # slot (for the log-doubling segment max) and the widest row
            # (its doubling depth).  Built once; the per-round reductions
            # below touch only array-API standard operations.
            self._nonempty = None
            self._starts = None
            if self.nnz:
                slots = xp.arange(self.nnz, dtype=xp.int64)
                rows = xp.searchsorted(self.indptr, slots, side="right") - 1
                self._slot_row_end = xp.take(self.indptr, rows + 1)
            else:
                self._slot_row_end = xp.zeros(0, dtype=xp.int64)
            self._max_degree = int(xp.max(self.degrees)) if self.n else 0

    def _as_i64(self, values):
        """Coerce slot values to an int64 array of the plane's namespace."""
        xp = self.xp
        values = xp.asarray(values)
        if values.dtype != xp.int64:
            values = xp.astype(values, xp.int64)
        return values

    def row_sum(self, slot_values: np.ndarray) -> np.ndarray:
        """Per-node sum of ``slot_values`` over each node's slots."""
        if self.xp is np:
            out = np.zeros(self.n, dtype=np.int64)
            if self._starts.size:
                values = np.asarray(slot_values).astype(np.int64, copy=False)
                out[self._nonempty] = np.add.reduceat(values, self._starts)
            return out
        xp = self.xp
        csum = xp.cumulative_sum(self._as_i64(slot_values), include_initial=True)
        return xp.take(csum, self.indptr[1:]) - xp.take(csum, self.indptr[:-1])

    def row_max(self, slot_values: np.ndarray, empty: int) -> np.ndarray:
        """Per-node max of ``slot_values``; ``empty`` for isolated nodes."""
        if self.xp is np:
            out = np.full(self.n, empty, dtype=np.int64)
            if self._starts.size:
                values = np.asarray(slot_values).astype(np.int64, copy=False)
                out[self._nonempty] = np.maximum.reduceat(values, self._starts)
            return out
        xp = self.xp
        if not self.nnz:
            return xp.full(self.n, empty, dtype=xp.int64)
        # Log-doubling suffix sweep: after k passes, ``maxima[i]`` holds the
        # max of slots [i, min(i + 2**k, row_end(i))), so each row's max
        # lands on its first slot after ceil(log2(max_degree)) passes.
        maxima = self._as_i64(slot_values)
        slots = xp.arange(self.nnz, dtype=xp.int64)
        offset = 1
        while offset < self._max_degree:
            reach = slots + offset
            source = xp.where(reach < self.nnz, reach, self.nnz - 1)
            shifted = xp.take(maxima, source)
            maxima = xp.where(
                reach < self._slot_row_end, xp.maximum(maxima, shifted), maxima
            )
            offset <<= 1
        starts = self.indptr[:-1]
        heads = xp.take(
            maxima, xp.where(starts < self.nnz, starts, self.nnz - 1)
        )
        return xp.where(
            self.degrees > 0, heads, xp.full(self.n, empty, dtype=xp.int64)
        )

    def row_any(self, slot_flags: np.ndarray) -> np.ndarray:
        """Per-node "any slot true" as a boolean array."""
        return self.row_sum(slot_flags) > 0

    def sent_slots(self, pending: Optional[PendingBroadcast]) -> np.ndarray:
        """Slot-level sender flags for one round of broadcast traffic."""
        xp = self.xp
        if pending is None:
            return (
                np.zeros(self.nnz, dtype=bool)
                if xp is np
                else xp.zeros(self.nnz, dtype=xp.bool)
            )
        if xp is np:
            return pending.mask[self.indices]
        return xp.take(xp.asarray(pending.mask), self.indices)

    def gather(self, per_node: np.ndarray) -> np.ndarray:
        """Slot-level view of a per-node array (value of each slot's peer)."""
        if self.xp is np:
            return per_node[self.indices]
        return self.xp.take(self.xp.asarray(per_node), self.indices)


def _as_int64(values) -> np.ndarray:
    if isinstance(values, array) and values.itemsize == 8:
        return np.frombuffer(values, dtype=np.int64)
    return np.asarray(values, dtype=np.int64)


class VectorKernel(ABC):
    """Vectorized state machine for one node-program class.

    A kernel is constructed at handover time with the plane and the live
    per-node program/context state; from then on :meth:`step` is the whole
    round: consume the inbound :class:`PendingBroadcast`, update state,
    record outputs/halts, and return the next round's outbound broadcast
    (or ``None`` for a silent round).  The engine owns accounting and
    termination; the kernel owns semantics.

    Every run is a stacked run (:mod:`repro.congest.engine.batched`; a solo
    run is a one-instance plane), so per-node transitions may consult only
    intra-instance data: ``plane.local_n_of`` / ``plane.local_ids`` instead
    of global ids and the global ``plane.n``.  Stacked planes may be
    *ragged* — instances of different sizes — so per-instance quantities
    (packed-key bases, round schedules) must come from the per-node
    ``local_n_of`` array, never from a single scalar ``n``.  Instances need
    not enter the plane in lockstep: a kernel whose ``takeover_round``
    exceeds 1 must implement :meth:`absorb_instance` (usually together with
    :attr:`prologue_oracle`), and the runner executes each instance's
    scalar prologue against the shared global clock before absorbing its
    state into the plane at its own takeover round.  A node whose
    ``live`` flag is clear must send nothing.
    """

    #: Filled in by :func:`register_kernel`.
    program_class: Type[NodeProgram]

    @classmethod
    def _blank(cls, plane: "CsrPlane") -> "VectorKernel":
        """Bare kernel shell for :meth:`stacked_setup` implementations.

        Bypasses ``__init__`` (there are no per-node program objects to
        read state from); every node starts live with no outputs, exactly
        the state after a setup phase that neither outputs nor halts.
        """
        self = cls.__new__(cls)
        self.plane = plane
        self.live = np.ones(plane.n, dtype=bool)
        self._outputs = {}
        return self

    #: Vectorized boot (optional; only for runs whose instances the runner
    #: builds itself — a solo run arrives with its ``Simulator``'s objects
    #: and boots through the object path): subclasses may bind a
    #: classmethod ``stacked_setup(plane, inputs) -> (kernel, pending)``
    #: that replaces per-node program instantiation, scalar ``setup`` and
    #: handover collection with direct array initialization.  ``inputs`` is
    #: one optional ``{node: input}`` mapping per instance (local ids);
    #: implementations translate local to global ids through the plane's
    #: ragged offset tables (``plane.node_offsets[k]`` is instance ``k``'s
    #: first global node, ``plane.local_ns[k]`` its size — instances need
    #: not share one size).  The implementation must reproduce the scalar
    #: boot bit for bit: same initial state, same round-1 broadcast
    #: mask/columns/bits.  A ``None`` *attribute* means the runner always
    #: boots through the object path; an implementation may also
    #: *return* ``None`` to decline one particular group (a kernel whose
    #: round-1 takeover is conditional on the inputs, e.g. lemma310's
    #: canonical gate), which sends that group through the scalar boot
    #: and the per-instance takeover machinery.
    stacked_setup = None

    #: Scalar-prologue actor oracle (optional): a
    #: classmethod ``prologue_oracle(network, programs) ->
    #: Callable[[int], Optional[np.ndarray]]`` mapping a *local* round
    #: number to the sorted array of local node ids whose ``receive`` can
    #: act that round (``None`` = every active node must run).  The runner
    #: uses it to skip provably no-op ``receive`` calls while an
    #: instance is still in its scalar prologue; skipping a node must be
    #: observationally identical to delivering its (empty) inbox that
    #: round.  ``None`` disables the optimization.
    prologue_oracle = None

    @classmethod
    def stacked_blank(cls, plane: "CsrPlane") -> "VectorKernel":
        """Kernel shell for stacked runs with per-instance takeover rounds.

        Like :meth:`_blank` but every node starts *dead*: instances light
        up their slice of the plane only when :meth:`absorb_instance`
        hands their scalar-prologue state over.  Subclasses with extra
        per-node state arrays override this to allocate them (zeroed) at
        full plane width.
        """
        kernel = cls._blank(plane)
        kernel.live = np.zeros(plane.n, dtype=bool)
        return kernel

    def absorb_instance(
        self,
        lo: int,
        hi: int,
        programs: Dict[int, NodeProgram],
        contexts: Dict[int, Context],
    ) -> None:
        """Load one instance's scalar state into plane slice ``[lo, hi)``.

        Called by the stacked runner at the instance's takeover round with
        that instance's per-node programs and contexts (*local* ids;
        global id = local id + ``lo``).  Implementations must set
        ``self.live[lo:hi]`` from the contexts' halted flags and fill
        every per-node state array exactly as ``__init__`` would.  The
        default refuses — kernels that take over at round 1 never need
        it, and the runner rejects a late takeover without it at boot.
        """
        raise BatchEligibilityError(
            f"{type(self).__name__} cannot absorb a scalar prologue; "
            "kernels with takeover_round > 1 must implement absorb_instance"
        )

    def __init__(
        self,
        plane: CsrPlane,
        programs: Sequence[NodeProgram],
        contexts: Sequence[Context],
    ):
        """Lockstep boot: ``programs`` / ``contexts`` are indexed by global
        plane node id, fresh from every instance's ``setup``."""
        self.plane = plane
        self.live = np.fromiter(
            (not contexts[v]._halted for v in range(plane.n)),
            dtype=bool,
            count=plane.n,
        )
        self._outputs: Dict[int, Dict[str, object]] = {}

    @classmethod
    def eligible(
        cls, network: Network, programs: Dict[int, NodeProgram]
    ) -> bool:
        """Whether this run's inputs fit the vectorized implementation."""
        return True

    @classmethod
    def takeover_round(
        cls, network: Network, programs: Dict[int, NodeProgram]
    ) -> int:
        """First round to execute vectorized (rounds before it run scalar)."""
        return 1

    def output(self, node: int, key: str, value: object) -> None:
        """Record one node's local output (mirrors ``Context.output``)."""
        self._outputs.setdefault(node, {})[key] = value

    @abstractmethod
    def step(
        self, round_no: int, inbound: Optional[PendingBroadcast]
    ) -> Optional[PendingBroadcast]:
        """Execute one delivered round; return next round's sends."""


_KERNELS: Dict[Type[NodeProgram], Type[VectorKernel]] = {}


def register_kernel(program_cls: Type[NodeProgram]):
    """Class decorator: attach a kernel to a node-program class."""

    def decorate(kernel_cls: Type[VectorKernel]) -> Type[VectorKernel]:
        kernel_cls.program_class = program_cls
        _KERNELS[program_cls] = kernel_cls
        return kernel_cls

    return decorate


def kernel_for(program_cls: Type[NodeProgram]) -> Optional[Type[VectorKernel]]:
    """The registered kernel for a program class, if any."""
    return _KERNELS.get(program_cls)


@register_engine
class VectorEngine(Engine):
    """Numpy message-plane engine with scalar fallback (see module doc)."""

    name = "vector"

    def __init__(self) -> None:
        self._scalar = FastEngine()

    def run(
        self,
        network: Network,
        programs: Dict[int, NodeProgram],
        contexts: Dict[int, Context],
        max_rounds: int,
    ) -> SimulationResult:
        kernel_cls = self._kernel_class(programs)
        if kernel_cls is None or not kernel_cls.eligible(network, programs):
            return self._scalar.run(network, programs, contexts, max_rounds)
        # Deferred import: the stacked loop builds on this module's plane
        # and kernel types.
        from repro.congest.engine.batched import run_instance

        return run_instance(network, programs, contexts, max_rounds)

    @staticmethod
    def _kernel_class(
        programs: Dict[int, NodeProgram],
    ) -> Optional[Type[VectorKernel]]:
        """The kernel to use, or ``None`` when the run must stay scalar.

        Requires a homogeneous program population whose class both declares
        :attr:`NodeProgram.message_specs` (the per-phase opt-in) and has a
        registered kernel.
        """
        if not programs:
            return None
        cls = type(programs[0])
        if not getattr(cls, "message_specs", ()):
            return None
        kernel_cls = _KERNELS.get(cls)
        if kernel_cls is None:
            return None
        if any(type(p) is not cls for p in programs.values()):
            return None
        return kernel_cls
