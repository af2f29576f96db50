"""The vector round loop: K instances as one stacked message plane.

This module holds the one vectorized round loop of the repository — the
synchronous CONGEST round (collect, charge against each instance's
O(log n) budget, deliver, ``receive``) over a message plane of K
instances.  A solo ``vector``-engine run is the K = 1 case
(:func:`run_instance`), booted from its ``Simulator``'s own programs and
contexts; statistical sweeps — the Theorem 1.1/1.2 style experiments,
many independent runs of the *same* program family over different seeded
topologies — stack K instances so each numpy kernel invocation advances
every instance at once instead of paying the per-round fixed cost (a few
dozen numpy dispatches) K times over:

* :class:`StackedPlane` — K per-instance CSR topologies concatenated
  block-diagonally in instance-major order.  The layout is **ragged**:
  instances may have *different* node counts, described by per-instance
  offset tables (``local_ns[k]`` is instance ``k``'s size,
  ``node_offsets[k]`` its first global node, ``slot_offsets[k]`` its first
  edge slot).  Because no row ever references another instance's slots,
  all of :class:`~repro.congest.engine.vector.CsrPlane`'s row reductions
  (``np.add.reduceat`` over the non-empty rows) are exactly the
  per-instance reductions, computed in one call; per-instance aggregates
  — the wire ledger, the termination check — reduce the same way over
  the ``node_offsets`` segment boundaries.
* :func:`iter_stacked` / :func:`run_stacked` — batched runs.  Programs
  and contexts are instantiated *per instance with local ids* (so every
  message field, bit length and packed comparison key is identical to a
  solo run) — or, for kernels with a vectorized ``stacked_setup``, not at
  all — and the registered
  :class:`~repro.congest.engine.vector.VectorKernel` runs over the union
  plane with **per-instance accounting**: each instance has its own round
  counter, per-round series, wire totals, bit budget, round limit and
  termination mask.  The moment an instance's termination mask flips,
  :func:`iter_stacked` yields its finished :class:`SimulationResult` —
  in-group per-record streaming — and the result is bit-for-bit what the
  instance's solo run on any engine would have produced (the parity
  suites in ``tests/test_batched_engine.py`` and
  ``tests/test_stacked_fuzz.py`` check it against the ``fast`` engine).

Instances need not enter the plane in lockstep.  When the kernel's
``takeover_round`` exceeds 1 for any instance, each instance runs its own
**scalar prologue** — exact ``FastEngine`` collect/charge/receive
mechanics, driven by the shared global round clock — and joins the plane
at its *own* takeover round: the runner collects the instance's handover
broadcast, scatters it into the plane's pending traffic, and asks the
kernel to :meth:`~repro.congest.engine.vector.VectorKernel.absorb_instance`
the scalar state into its slice of the plane (the kernel boots from
:meth:`~repro.congest.engine.vector.VectorKernel.stacked_blank`, all nodes
dead, and lights slices up as instances arrive).  Because every instance
executes round ``r`` at global tick ``r``, no round skew exists and every
ledger entry matches the solo run.  Kernels may additionally publish a
:attr:`~repro.congest.engine.vector.VectorKernel.prologue_oracle` that
names the nodes whose ``receive`` can act in a given prologue round, so
the scalar prologue costs O(actors) instead of O(n) per round — this is
how the Lemma 3.10 program stacks heterogeneous inputs: its takeover
round is ``2 + 3 * num_colors``, a per-instance quantity, its
color-class rounds run as sparse scalar prologues, and its execution
phase runs vectorized on the shared plane.  Canonical uniform Lemma 3.10
instances instead take over at round 1 and run the color-class rounds
*in-plane* (targeted alpha traffic and all), so an all-canonical group is
a pure lockstep run with no scalar prologue; a mixed group carries
in-plane and prologue instances side by side, and one plane round may
then hold several differently-tagged pending parts.

An instance whose queued traffic at its takeover round — ``setup`` for
round-1 takeovers, the last prologue round otherwise — is not a
conforming single-tag broadcast is simply never absorbed: it finishes as
a scalar instance inside the same loop, exactly as its solo run would.

Eligibility is deliberately narrow and fails loudly
(:class:`~repro.errors.BatchEligibilityError`) so callers can fall back to
per-cell execution:

* the program class declares :attr:`NodeProgram.message_specs` and has a
  registered kernel, which promises to compute with ``plane.local_n_of``
  / ``plane.local_ids`` (see :class:`~repro.congest.engine.vector.
  VectorKernel`);
* the kernel accepts every instance's inputs
  (:meth:`~repro.congest.engine.vector.VectorKernel.eligible`);
* a kernel whose ``takeover_round`` exceeds 1 for some instance must
  implement ``absorb_instance`` (late joins are refused otherwise).

Node counts, bit budgets and round limits are all per-instance — mixed
sizes (and hence the size-derived CONGEST budgets) stack fine.  Instances
terminate independently: a finished instance's nodes leave the kernel's
live mask, so its portion of every later broadcast mask is empty — zero
messages, zero bits, no leakage into the siblings' accounting — and its
per-round series simply stops growing while the others run on.
"""

from __future__ import annotations

from typing import (
    Dict,
    Iterator,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
    Union,
)

import numpy as np

from repro.congest.engine.base import SimulationResult
from repro.congest.engine.fast import _EMPTY_INBOX, FastEngine, Inboxes
from repro.congest.engine.vector import (
    CsrPlane,
    MessageSpec,
    PendingBroadcast,
    PendingTargeted,
    VectorKernel,
    _as_int64,
    kernel_for,
    pending_parts,
)
from repro.congest.network import Network
from repro.congest.node import Context, NodeProgram
from repro.errors import (
    BatchEligibilityError,
    MessageTooLargeError,
    SimulationLimitError,
)

__all__ = [
    "StackedPlane",
    "iter_stacked",
    "run_instance",
    "run_stacked",
    "stack_ineligibility",
]

#: Budget stand-in for LOCAL-model instances (unbounded messages); far
#: above any bit length :func:`bit_length_array` accepts.
_NO_BUDGET = np.iinfo(np.int64).max

#: Read-only stand-in for a node the kernel recorded no output for.
_NO_OUTPUTS: Dict[str, object] = {}


class StackedPlane(CsrPlane):
    """K instance topologies as one ragged block-diagonal CSR plane.

    Instance ``k`` owns the global node range
    ``node_offsets[k] .. node_offsets[k+1] - 1`` (its size is
    ``local_ns[k]``) and the edge-slot range
    ``slot_offsets[k] .. slot_offsets[k+1]``.  ``local_ids`` maps every
    global node back to its per-instance id, ``instance_of`` to its
    instance index, and ``local_n_of`` to its instance's node count — the
    ``n`` that node's program believes it is running on.  ``local_n`` is
    the shared size when the stack is uniform and ``None`` when it is
    ragged (kernels must use the per-node ``local_n_of`` either way).
    """

    __slots__ = ("instances", "local_ns", "node_offsets", "slot_offsets")

    def __init__(self, networks: Sequence[Network]):
        if not networks:
            raise BatchEligibilityError("cannot stack zero instances")
        sizes = [net.n for net in networks]
        indptr_parts: List[np.ndarray] = []
        indices_parts: List[np.ndarray] = []
        node_offsets = [0]
        slot_offsets = [0]
        for k, net in enumerate(networks):
            indptr, indices = net.csr()
            indptr = _as_int64(indptr)
            indices = _as_int64(indices)
            # Globalize: shift row starts by the slots already emitted and
            # neighbor ids into instance k's node range.
            start = indptr[1:] if k else indptr
            indptr_parts.append(start + slot_offsets[k])
            indices_parts.append(indices + node_offsets[k])
            node_offsets.append(node_offsets[k] + sizes[k])
            slot_offsets.append(slot_offsets[k] + indices.shape[0])
        self._init_arrays(
            np.concatenate(indptr_parts), np.concatenate(indices_parts)
        )
        local_ns = np.asarray(sizes, dtype=np.int64)
        self.instances = len(sizes)
        self.local_ns = local_ns
        self.node_offsets = np.asarray(node_offsets, dtype=np.int64)
        self.slot_offsets = np.asarray(slot_offsets, dtype=np.int64)
        self.local_n = sizes[0] if len(set(sizes)) == 1 else None
        self.local_ids = np.arange(self.n, dtype=np.int64) - np.repeat(
            self.node_offsets[:-1], local_ns
        )
        self.local_n_of = np.repeat(local_ns, local_ns)

    @property
    def instance_of(self) -> np.ndarray:
        """Instance index of every global node."""
        return np.repeat(
            np.arange(self.instances, dtype=np.int64), self.local_ns
        )


def stack_ineligibility(program_cls: type) -> Optional[str]:
    """Why ``program_cls`` cannot run stacked, or ``None`` if it can.

    This is the *static* half of eligibility (specs declared, kernel
    registered); :func:`iter_stacked` additionally verifies the
    per-instance conditions (the kernel accepts every instance's inputs,
    and ``absorb_instance`` support when a takeover round exceeds 1) at
    boot.
    """
    if not getattr(program_cls, "message_specs", ()):
        return f"{program_cls.__name__} declares no message_specs"
    if kernel_for(program_cls) is None:
        return f"{program_cls.__name__} has no registered vector kernel"
    return None


def _collect_handover(
    drain: Sequence[tuple],
    specs: Sequence[MessageSpec],
    n: int,
) -> Optional[PendingBroadcast]:
    """Drain one instance's queued outboxes into a :class:`PendingBroadcast`.

    Returns the pending traffic (possibly with an all-false mask), or
    ``None`` when any queued outbox is not a full single-message broadcast
    with a declared tag — partial sends, per-neighbor messages and unknown
    tags all disqualify the round, in which case no outbox is touched and
    the instance stays on scalar execution.
    """
    spec_by_tag = {spec.tag: spec for spec in specs}
    senders: List[tuple] = []
    spec: Optional[MessageSpec] = None
    for rec in drain:
        ctx = rec[1]
        out = ctx._outbox
        if not out:
            continue
        if len(out) != ctx.degree:
            return None
        messages = iter(out.values())
        first = next(messages)
        for msg in messages:
            if msg is not first and msg != first:
                return None
        if spec is None:
            spec = spec_by_tag.get(first.tag)
            if spec is None or len(first.fields) != spec.arity:
                return None
        elif first.tag != spec.tag or len(first.fields) != spec.arity:
            return None
        senders.append((rec[0], ctx, first))

    mask = np.zeros(n, dtype=bool)
    if spec is None:
        spec = specs[0]  # silent handover round: any spec will do
    columns = tuple(np.zeros(n, dtype=np.int64) for _ in range(spec.arity))
    bits = np.zeros(n, dtype=np.int64)
    for v, ctx, msg in senders:
        ctx._outbox = {}
        mask[v] = True
        for i, field in enumerate(msg.fields):
            columns[i][v] = field
        bits[v] = msg.bits
    return PendingBroadcast(spec, mask, columns, bits)


class _Ledger:
    """Per-instance wire accounting for one stacked run.

    One row per charged round — per-instance ``(messages, bits, max
    bits)`` vectors of length K — so an instance's result can be built the
    instant it finishes.  Instances start together and leave for good, so
    an instance's executed rounds are a prefix of the history: exactly its
    solo series.  Each row is a handful of segment reductions — over the
    ``node_offsets`` segments for broadcasts, the ``slot_offsets``
    segments for targeted traffic — whatever the number of instances.
    ``wire_nodes`` (senders with at least one neighbor) and
    ``wire_slots`` cover the unfinished instances only: traffic a finished
    instance queued during its final round is discarded uncharged and
    unchecked, exactly as its solo loop never reaches another accounting
    pass.
    """

    __slots__ = (
        "plane",
        "starts",
        "budgets",
        "budgeted",
        "wire_nodes",
        "wire_slots",
        "slot_starts",
        "slotted",
        "msgs",
        "bits",
        "peaks",
    )

    def __init__(self, plane: StackedPlane, networks: Sequence[Network]):
        self.plane = plane
        self.starts = plane.node_offsets[:-1]
        budgets = [net.bit_budget for net in networks]
        #: Per-instance bit budgets (a ragged plane mixes them).
        self.budgets = np.asarray(
            [_NO_BUDGET if b is None else b for b in budgets], dtype=np.int64
        )
        self.budgeted = any(b is not None for b in budgets)
        self.wire_nodes = plane.degrees > 0
        self.wire_slots = np.ones(plane.nnz, dtype=bool)
        # Slot segments of the instances that own edge slots (``reduceat``
        # needs non-empty segments); ``slotted`` is ``None`` when that is
        # every instance.
        owned = plane.slot_offsets[1:] > plane.slot_offsets[:-1]
        self.slot_starts = plane.slot_offsets[:-1][owned]
        self.slotted = None if owned.all() else np.flatnonzero(owned)
        self.msgs: List[np.ndarray] = []
        self.bits: List[np.ndarray] = []
        self.peaks: List[np.ndarray] = []

    def charge(self, pending) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Exact per-instance wire totals of one round's plane traffic.

        Summed over every part of the round (a ragged plane can carry
        differently-tagged broadcast *and* targeted traffic side by side).
        Returns fresh arrays the caller may fold scalar traffic into
        before :meth:`record`.
        """
        totals = None
        for part in pending_parts(pending):
            if isinstance(part, PendingTargeted):
                row = self._charge_targeted(part)
            else:
                row = self._charge_broadcast(part)
            if totals is None:
                totals = row
            else:
                totals = (
                    totals[0] + row[0],
                    totals[1] + row[1],
                    np.maximum(totals[2], row[2]),
                )
        if totals is None:
            return self._zeros()
        if self.budgeted and np.count_nonzero(totals[2] > self.budgets):
            self._raise_oversized(pending)
        return totals

    def _zeros(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        k_count = self.plane.instances
        return tuple(np.zeros(k_count, dtype=np.int64) for _ in range(3))

    def _charge_broadcast(self, part: PendingBroadcast):
        """A broadcast puts ``degree`` copies of the sender's message on
        the wire: degree-weighted sums over each instance's senders."""
        on = (part.mask & self.wire_nodes).astype(np.int64)
        starts = self.starts
        # One scratch column, rewritten in place: copies, bits on the
        # wire, then each sender's own message size.
        column = self.plane.degrees * on
        messages = np.add.reduceat(column, starts)
        column *= part.bits
        bits = np.add.reduceat(column, starts)
        np.multiply(part.bits, on, out=column)
        return messages, bits, np.maximum.reduceat(column, starts)

    def _charge_targeted(self, part: PendingTargeted):
        """A targeted part puts one message per masked slot on the wire:
        masked sums over each instance's slot segment."""
        on = part.slot_mask & self.wire_slots
        slot_bits = part.bits * on
        starts = self.slot_starts
        sums = (
            np.add.reduceat(on, starts),
            np.add.reduceat(slot_bits, starts),
            np.maximum.reduceat(slot_bits, starts),
        )
        if self.slotted is None:
            return sums
        rows = self._zeros()
        for row, values in zip(rows, sums):
            row[self.slotted] = values
        return rows

    def _raise_oversized(self, pending) -> None:
        """Slow path: raise :class:`MessageTooLargeError` for the first
        over-budget message, reported with its *local* ids (what the
        instance's solo run raises): the lowest-id broadcast sender, or
        for a targeted part the lowest sender, then receiver — the scalar
        engines' ascending scan."""
        plane = self.plane
        node_budget = np.repeat(self.budgets, plane.local_ns)
        for part in pending_parts(pending):
            if isinstance(part, PendingTargeted):
                senders = plane.indices
                over = (
                    part.slot_mask
                    & self.wire_slots
                    & (part.bits > node_budget[senders])
                )
                if not over.any():
                    continue
                slots = np.flatnonzero(over)
                slot = int(slots[np.lexsort((slots, senders[slots]))[0]])
                sender = int(senders[slot])
                receiver = int(np.searchsorted(plane.indptr, slot, "right")) - 1
                bits = int(part.bits[slot])
            else:
                over = part.mask & self.wire_nodes & (part.bits > node_budget)
                if not over.any():
                    continue
                sender = int(np.flatnonzero(over)[0])
                receiver = int(plane.indices[plane.indptr[sender]])
                bits = int(part.bits[sender])
            raise MessageTooLargeError(
                int(plane.local_ids[sender]),
                int(plane.local_ids[receiver]),
                bits,
                int(node_budget[sender]),
            )
        raise AssertionError("oversized message vanished")  # pragma: no cover

    def record(self, msgs, bits, peaks) -> None:
        """Append one charged round's row."""
        self.msgs.append(msgs)
        self.bits.append(bits)
        self.peaks.append(peaks)

    def close(self, k: int, executed: int) -> Dict[str, object]:
        """Retire instance ``k`` and return its solo ledger fields.

        ``executed`` rounds ran; every row so far was charged (the last
        one without running when the instance boots with no live node).
        """
        plane = self.plane
        self.wire_nodes[plane.node_offsets[k] : plane.node_offsets[k + 1]] = False
        self.wire_slots[plane.slot_offsets[k] : plane.slot_offsets[k + 1]] = False
        bits = [int(row[k]) for row in self.bits]
        messages = [int(row[k]) for row in self.msgs[:executed]]
        return dict(
            rounds=executed,
            total_messages=sum(messages),
            total_bits=sum(bits),
            max_message_bits=max(int(row[k]) for row in self.peaks),
            messages_per_round=messages,
            bits_per_round=bits[:executed],
        )


class _ScalarInstance:
    """One object-booted instance and its exact scalar machinery.

    Holds the instance's per-node programs and contexts (*local* ids, so
    every message field and bit length matches a solo run), the solo
    scalar state — per-node records, the active map, inbox planes, the
    drain set and the instance's own bit budget — and its takeover round.
    Until the kernel absorbs it (or for the whole run, if its takeover
    traffic does not conform) every round runs :class:`FastEngine`'s
    collect/charge/receive mechanics bit for bit, just driven by the
    shared global clock.  ``oracle`` (from
    :attr:`VectorKernel.prologue_oracle`) optionally names the nodes whose
    ``receive`` can act in a given round; skipped nodes are provably
    no-ops, so sparse prologues charge and deliver identically to the solo
    full scan.
    """

    __slots__ = (
        "index",
        "net",
        "n",
        "takeover",
        "programs",
        "contexts",
        "active",
        "drain",
        "inboxes",
        "budget",
        "oracle",
        "touched",
    )

    def __init__(
        self,
        index: int,
        net: Network,
        programs: Mapping[int, NodeProgram],
        contexts: Mapping[int, Context],
    ):
        """Run round 0 (``setup``) on every node."""
        records = [(v, contexts[v], programs[v].receive) for v in range(net.n)]
        for v, ctx, _ in records:
            ctx.round_number = 0
            programs[v].setup(ctx)
        self.index = index
        self.net = net
        self.n = net.n
        #: First round the kernel runs; ``None`` = never (scalar to the end).
        self.takeover: Optional[int] = 1
        self.programs = programs
        self.contexts = contexts
        #: id -> record, insertion-ordered ascending (the solo active list).
        self.active = {
            rec[0]: rec for rec in records if not rec[1]._halted
        }
        self.drain: Sequence[tuple] = records
        self.inboxes: Inboxes = [None] * net.n
        self.budget = net.bit_budget
        self.oracle = None
        self.touched: List[int] = []

    def execute_round(self, round_no: int) -> None:
        """Deliver and run one scalar round (solo active-set semantics).

        With an oracle, only the named actors run — in ascending id order,
        a subsequence of the solo scan, so inbox insertion order and every
        per-node call sequence are preserved.  The executed set becomes
        the next round's drain (non-actors queue nothing, so draining only
        actors collects exactly the solo traffic).
        """
        actors = None if self.oracle is None else self.oracle(round_no)
        if actors is None:
            executed = list(self.active.values())
        else:
            get = self.active.get
            executed = [
                rec for a in actors if (rec := get(int(a))) is not None
            ]
        inboxes = self.inboxes
        for rec in executed:
            v, ctx, recv = rec
            ctx.round_number = round_no
            box = inboxes[v]
            if box is None:
                recv(ctx, _EMPTY_INBOX)
            else:
                inboxes[v] = None
                recv(ctx, box)
            if ctx._halted:
                del self.active[v]
        for to in self.touched:
            inboxes[to] = None
        self.touched = []
        self.drain = executed


def _boot_objects(
    plane: StackedPlane,
    networks: Sequence[Network],
    kernel_cls: type,
    inputs: Optional[Sequence[Optional[Mapping[int, object]]]],
    objects: Optional[Sequence[Tuple[Mapping, Mapping]]],
):
    """Object-level boot: per-instance programs and contexts, local ids.

    ``objects`` holds prebuilt ``(programs, contexts)`` per instance (a
    solo run hands over its ``Simulator``'s, which the caller has already
    vetted with ``kernel_cls.eligible``); otherwise they are built here
    from ``inputs``.  Runs every instance's ``setup``, then either hands
    every instance to the kernel at once (:func:`_lockstep_boot`, all
    takeovers at round 1) or boots the kernel dead and leaves each
    instance to join at its own takeover round.  Returns
    ``(kernel, pending, prologue, contexts)`` — ``prologue`` maps the
    indices of the instances still on scalar execution to their state,
    ``contexts`` lists every instance's contexts.
    """
    instances: List[_ScalarInstance] = []
    for k, net in enumerate(networks):
        if objects is not None:
            programs, contexts = objects[k]
        else:
            node_inputs = inputs[k] if inputs and inputs[k] else {}
            programs = {
                v: kernel_cls.program_class(node_inputs.get(v))
                for v in range(net.n)
            }
            if not kernel_cls.eligible(net, programs):
                raise BatchEligibilityError(
                    f"{kernel_cls.__name__} declined an instance of the group"
                )
            contexts = {
                v: Context(v, net.neighbors(v), net.n) for v in range(net.n)
            }
        inst = _ScalarInstance(k, net, programs, contexts)
        inst.takeover = int(kernel_cls.takeover_round(net, programs))
        instances.append(inst)

    if any(inst.takeover > 1 for inst in instances):
        # Per-instance takeover: boot the kernel dead and let each
        # instance join the plane at its own takeover round, running
        # exact scalar-prologue rounds until then.
        if kernel_cls.absorb_instance is VectorKernel.absorb_instance:
            raise BatchEligibilityError(
                f"{kernel_cls.__name__} takes over after round 1 but "
                "does not implement absorb_instance; instances cannot "
                "join the plane late"
            )
        oracle_factory = kernel_cls.prologue_oracle
        for inst in instances:
            if inst.takeover > 1 and oracle_factory is not None:
                inst.oracle = oracle_factory(inst.net, inst.programs)
        prologue = {inst.index: inst for inst in instances}
        kernel, pending = kernel_cls.stacked_blank(plane), None
    else:
        kernel, pending, prologue = _lockstep_boot(
            plane, kernel_cls, instances
        )
    return kernel, pending, prologue, [inst.contexts for inst in instances]


def _lockstep_boot(
    plane: StackedPlane,
    kernel_cls: type,
    instances: Sequence[_ScalarInstance],
):
    """Hand every instance to the kernel at round 1.

    The kernel is constructed from the union state and the setup traffic
    is scattered into the plane's round-1 traffic.  An instance whose
    setup traffic is not a conforming broadcast is never handed over:
    its slice of the kernel stays dead and it runs scalar to the end.
    Returns ``(kernel, pending, prologue)``.
    """
    specs = kernel_cls.program_class.message_specs
    joiners: List[Tuple[int, PendingBroadcast]] = []
    prologue: Dict[int, _ScalarInstance] = {}
    for inst in instances:
        handover = _collect_handover(inst.drain, specs, inst.n)
        if handover is None:
            inst.takeover = None
            prologue[inst.index] = inst
        else:
            joiners.append((inst.index, handover))
    kernel = kernel_cls(
        plane,
        [inst.programs[v] for inst in instances for v in range(inst.n)],
        [inst.contexts[v] for inst in instances for v in range(inst.n)],
    )
    for k in prologue:
        kernel.live[plane.node_offsets[k] : plane.node_offsets[k + 1]] = False
    return kernel, _merge_joiners(plane, None, joiners), prologue


def _merge_joiners(
    plane: StackedPlane,
    pending,
    joiners: Sequence[Tuple[int, PendingBroadcast]],
):
    """Scatter per-instance takeover broadcasts into the plane's traffic.

    ``pending`` is the kernel's own outbound traffic for this plane round
    (masks confined to already-absorbed instances; possibly several
    differently-tagged parts); each joiner contributes its local handover
    broadcast at its node-offset slice.  Joiners are grouped by tag: each
    group merges into the kernel part carrying the same tag when one
    exists, otherwise it becomes a new broadcast part — one plane round
    may legitimately carry mixed tags when instances are in different
    protocol phases.  Returns ``None`` / a single part / a tuple of
    parts, in kernel-part order with appended joiner tags last.
    """
    parts = list(pending_parts(pending))
    groups: Dict[str, List[Tuple[int, PendingBroadcast]]] = {}
    for k, joiner in joiners:
        if joiner.mask.any():
            groups.setdefault(joiner.spec.tag, []).append((k, joiner))
    for tag, group in groups.items():
        target: Optional[PendingBroadcast] = None
        for part in parts:
            if isinstance(part, PendingBroadcast) and part.spec.tag == tag:
                target = part
                break
        if target is None:
            spec = group[0][1].spec
            target = PendingBroadcast(
                spec,
                np.zeros(plane.n, dtype=bool),
                tuple(
                    np.zeros(plane.n, dtype=np.int64)
                    for _ in range(spec.arity)
                ),
                np.zeros(plane.n, dtype=np.int64),
            )
            parts.append(target)
        for k, joiner in group:
            lo = int(plane.node_offsets[k])
            hi = lo + int(plane.local_ns[k])
            # The kernel's own masks never cover a just-joining instance,
            # so slice assignment cannot clobber absorbed traffic.
            target.mask[lo:hi] = joiner.mask
            target.bits[lo:hi] = joiner.bits
            if joiner.spec.arity == target.spec.arity:
                for i in range(target.spec.arity):
                    target.columns[i][lo:hi] = joiner.columns[i]
    if not parts:
        return None
    return parts[0] if len(parts) == 1 else tuple(parts)


def _round_limits(
    max_rounds: Union[int, Sequence[int]], k_count: int
) -> List[int]:
    """Per-instance round limits from an int or a per-instance sequence."""
    if isinstance(max_rounds, (int, np.integer)):
        return [int(max_rounds)] * k_count
    limits = [int(r) for r in max_rounds]
    if len(limits) != k_count:
        raise BatchEligibilityError(
            f"got {len(limits)} round limits for {k_count} instances"
        )
    return limits


def iter_stacked(
    networks: Sequence[Network],
    program_factory: type,
    inputs: Optional[Sequence[Optional[Mapping[int, object]]]] = None,
    max_rounds: Union[int, Sequence[int]] = 10_000,
) -> Iterator[Tuple[int, SimulationResult]]:
    """Run K instances as one stacked plane, streaming finished instances.

    Yields ``(instance_index, result)`` **the moment the instance's
    termination mask flips** — a small instance that halts early surfaces
    long before its larger siblings finish — in completion order (ties
    broken by instance index).  Each yielded result is bit-for-bit equal
    to the instance's solo run of the same (network, inputs) pair on any
    engine; collect them all and you have exactly :func:`run_stacked`'s
    output.

    ``max_rounds`` may be an int (shared limit) or one limit per instance
    (a ragged group's natural shape, e.g. size-derived limits).  An
    unfinished instance hitting its own limit aborts the whole group with
    :class:`~repro.errors.SimulationLimitError`; callers such as the batch
    runner fall back to per-cell execution for the instances not yet
    yielded, which reproduces each solo outcome (including the solo
    error) exactly.

    Raises :class:`~repro.errors.BatchEligibilityError` when the
    instances cannot be stacked (see the module docstring for the rules).
    Static eligibility and argument shapes are validated eagerly — at the
    call, not on first iteration — so the error surfaces at the faulty
    call site even if the iterator is handed off or never consumed (boot
    conditions such as a declined instance still raise from the
    iterator).
    """
    k_count = len(networks)
    if k_count == 0:
        raise BatchEligibilityError("cannot stack zero instances")
    reason = stack_ineligibility(program_factory)
    if reason is not None:
        raise BatchEligibilityError(reason)
    limits = _round_limits(max_rounds, k_count)
    return _iter_stacked(
        list(networks), kernel_for(program_factory), limits, inputs=inputs
    )


def _iter_stacked(
    networks: Sequence[Network],
    kernel_cls: type,
    limits: List[int],
    inputs: Optional[Sequence[Optional[Mapping[int, object]]]] = None,
    objects: Optional[Sequence[Tuple[Mapping, Mapping]]] = None,
) -> Iterator[Tuple[int, SimulationResult]]:
    """The round loop (arguments pre-validated); see :func:`iter_stacked`.

    ``objects`` optionally supplies prebuilt per-instance ``(programs,
    contexts)`` (see :func:`_boot_objects`); without them a kernel with a
    vectorized ``stacked_setup`` boots straight from ``inputs``.
    """
    k_count = len(networks)
    plane = StackedPlane(networks)
    boot = None
    if objects is None and kernel_cls.stacked_setup is not None:
        # Vectorized boot: no per-node program or context objects at all —
        # the kernel initializes its planes and the round-1 broadcast
        # directly from the instance inputs.  This is where batched sweeps
        # stop paying O(total nodes) Python object construction.
        # ``stacked_setup`` implies a round-1 takeover for every instance;
        # a kernel with *conditional* round-1 takeover (lemma310's
        # canonical gate) returns ``None`` to decline the group, sending
        # it through the object-level boot.
        boot = kernel_cls.stacked_setup(
            plane, list(inputs) if inputs else [None] * k_count
        )
    if boot is not None:
        kernel, pending = boot
        contexts = [None] * k_count
        #: Instances on scalar execution, keyed by instance index.
        prologue: Dict[int, _ScalarInstance] = {}
    else:
        kernel, pending, prologue, contexts = _boot_objects(
            plane, networks, kernel_cls, inputs, objects
        )
    specs = kernel_cls.program_class.message_specs
    starts = plane.node_offsets[:-1]
    ledger = _Ledger(plane, networks)
    unfinished = set(range(k_count))
    #: Instances the kernel runs (absorbed, not finished).
    in_plane = unfinished - set(prologue)
    limit = min(limits)

    def finish(k: int, executed: int) -> Tuple[int, SimulationResult]:
        """Snapshot instance ``k``'s solo-equivalent result at flip time."""
        nonlocal limit
        unfinished.discard(k)
        in_plane.discard(k)
        prologue.pop(k, None)
        if unfinished:
            limit = min(limits[i] for i in unfinished)
        lo = int(plane.node_offsets[k])
        ctxs = contexts[k]
        kget = kernel._outputs.get
        local = range(int(plane.local_ns[k]))
        if ctxs is None:
            outputs = {v: dict(kget(lo + v, _NO_OUTPUTS)) for v in local}
        else:
            outputs = {
                v: {**ctxs[v]._outputs, **kget(lo + v, _NO_OUTPUTS)}
                for v in local
            }
        return k, SimulationResult(
            outputs=outputs, all_halted=True, **ledger.close(k, executed)
        )

    def dead() -> List[int]:
        """Unfinished instances with no live node left, ascending."""
        found = [k for k, inst in prologue.items() if not inst.active]
        if in_plane:
            live = np.logical_or.reduceat(kernel.live, starts)
            if np.count_nonzero(live) < len(in_plane):
                found.extend(k for k in in_plane if not live[k])
        return sorted(found)

    rounds = 0
    while True:
        if rounds >= limit:
            raise SimulationLimitError(
                f"simulation did not terminate within {limit} rounds"
            )
        # Per-instance takeover: instances whose next round is their
        # takeover round hand their queued broadcast over and join the
        # plane, so handover traffic is charged *this* tick.  Traffic that
        # is not a conforming broadcast keeps the instance scalar for good.
        if prologue:
            joiners: List[Tuple[int, PendingBroadcast]] = []
            for k in sorted(prologue):
                inst = prologue[k]
                if inst.takeover is None or rounds + 1 < inst.takeover:
                    continue
                handover = _collect_handover(inst.drain, specs, inst.n)
                if handover is None:
                    inst.takeover = None
                    continue
                lo = int(plane.node_offsets[k])
                kernel.absorb_instance(
                    lo, lo + inst.n, inst.programs, inst.contexts
                )
                joiners.append((k, handover))
            for k, _ in joiners:
                del prologue[k]
                in_plane.add(k)
            if joiners:
                pending = _merge_joiners(plane, pending, joiners)

        msgs_k, bits_k, peaks_k = ledger.charge(pending)
        # Scalar instances: exact FastEngine collection and charging
        # against the instance's own budget, folded into this tick's row.
        for k, inst in prologue.items():
            touched, sizes = FastEngine._collect_traffic(
                inst.drain, inst.inboxes
            )
            inst.touched = touched
            round_bits, peaks_k[k] = FastEngine._charge(
                sizes, inst.inboxes, touched, inst.budget, 0
            )
            msgs_k[k] += len(sizes)
            bits_k[k] += round_bits
        ledger.record(msgs_k, bits_k, peaks_k)
        if rounds == 0:
            # Solo top-of-loop break, reachable only at boot (afterwards
            # an instance leaves the moment its last node halts): an
            # instance with no live node has its setup traffic charged but
            # executes no round.
            for k in dead():
                yield finish(k, 0)
            if not unfinished:
                return

        rounds += 1
        pending = kernel.step(rounds, pending) if in_plane else None
        for inst in prologue.values():
            inst.execute_round(rounds)
        # Solo bottom-of-loop break: traffic an instance queued during its
        # final round is discarded *uncharged* (the ledger masks it out of
        # the next charge; a finished scalar instance is simply never
        # drained again).
        for k in dead():
            yield finish(k, rounds)
        if not unfinished:
            return


def run_instance(
    network: Network,
    programs: Dict[int, NodeProgram],
    contexts: Dict[int, Context],
    max_rounds: int,
) -> SimulationResult:
    """Run one prebuilt instance as a one-instance plane (solo runs).

    ``programs`` / ``contexts`` are a ``Simulator``'s per-node objects,
    not yet set up, of one program class whose kernel accepts them
    (:meth:`~repro.congest.engine.vector.VectorEngine.run` checks).
    """
    ((_, result),) = _iter_stacked(
        [network],
        kernel_for(type(programs[0])),
        _round_limits(max_rounds, 1),
        objects=[(programs, contexts)],
    )
    return result


def run_stacked(
    networks: Sequence[Network],
    program_factory: type,
    inputs: Optional[Sequence[Optional[Mapping[int, object]]]] = None,
    max_rounds: Union[int, Sequence[int]] = 10_000,
) -> List[SimulationResult]:
    """Run one program family on K instance networks as one stacked plane.

    Returns one :class:`SimulationResult` per instance (in instance
    order), bit-for-bit equal to K solo runs of the same (network,
    inputs) pairs; the streaming variant is :func:`iter_stacked`.  Raises
    :class:`~repro.errors.BatchEligibilityError` when the instances cannot
    be stacked (see the module docstring for the rules) — callers such as
    the batch runner fall back to per-cell execution.
    """
    results: List[Optional[SimulationResult]] = [None] * len(networks)
    for k, result in iter_stacked(
        networks, program_factory, inputs=inputs, max_rounds=max_rounds
    ):
        results[k] = result
    return results  # type: ignore[return-value]
