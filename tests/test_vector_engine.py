"""VectorEngine internals: exact bit accounting, specs, fallback paths.

Cross-engine observational equivalence lives in ``test_engine_parity.py``;
this module pins the pieces that make the numpy message plane *exact* —
vectorized bit lengths, :class:`MessageSpec` wire accounting, the CSR row
reductions — and the fallback ladder (no spec, no kernel, mixed program
classes, non-conforming traffic at handover).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.congest.engine import (
    MessageSpec,
    VectorEngine,
    VectorKernel,
    register_kernel,
    run_stacked,
)
from repro.congest.engine.vector import CsrPlane, bit_length_array
from repro.congest.message import Message, bits_of_int, message_bits
from repro.congest.network import Network
from repro.congest.node import NodeProgram
from repro.congest.programs.greedy_mds import DistributedGreedyProgram
from repro.congest.simulator import Simulator
from repro.errors import CongestError, MessageTooLargeError
from repro.graphs.generators import gnp_graph, star_graph


class TestBitLengthArray:
    def test_matches_scalar_accounting(self):
        values = [0, 1, 2, 3, 4, 7, 8, 255, 256, 1023, 1 << 40, (1 << 52) + 1]
        got = bit_length_array(np.array(values, dtype=np.int64))
        assert got.tolist() == [bits_of_int(v) for v in values]

    def test_powers_of_two_are_exact(self):
        # The frexp trick must not be off by one at the boundaries.
        values = [1 << k for k in range(52)] + [(1 << k) - 1 for k in range(1, 52)]
        got = bit_length_array(np.array(values, dtype=np.int64))
        assert got.tolist() == [bits_of_int(v) for v in values]

    def test_negative_field_rejected(self):
        with pytest.raises(CongestError):
            bit_length_array(np.array([3, -1], dtype=np.int64))

    def test_oversized_field_rejected(self):
        with pytest.raises(CongestError):
            bit_length_array(np.array([1 << 53], dtype=np.int64))


class TestMessageSpec:
    def test_bits_array_matches_message_bits(self):
        spec = MessageSpec("probe", "a", "b", "c")
        rng = np.random.default_rng(11)
        cols = tuple(rng.integers(0, 1 << 20, size=64) for _ in range(3))
        got = spec.bits_array(cols)
        for i in range(64):
            fields = (int(cols[0][i]), int(cols[1][i]), int(cols[2][i]))
            assert int(got[i]) == message_bits(fields)
            assert int(got[i]) == Message("probe", *fields).bits

    def test_column_count_must_match_arity(self):
        spec = MessageSpec("probe", "a", "b")
        with pytest.raises(CongestError):
            spec.bits_array((np.zeros(3, dtype=np.int64),))


class TestCsrPlane:
    def test_row_reductions_match_python(self, small_gnp):
        net = Network.congest(small_gnp)
        plane = CsrPlane(net)
        rng = np.random.default_rng(5)
        slot_values = rng.integers(0, 1000, size=plane.nnz)
        expect_sum = [
            sum(
                int(slot_values[i])
                for i in range(plane.indptr[v], plane.indptr[v + 1])
            )
            for v in range(net.n)
        ]
        assert plane.row_sum(slot_values).tolist() == expect_sum
        expect_max = [
            max(
                (
                    int(slot_values[i])
                    for i in range(plane.indptr[v], plane.indptr[v + 1])
                ),
                default=-7,
            )
            for v in range(net.n)
        ]
        assert plane.row_max(slot_values, empty=-7).tolist() == expect_max

    def test_isolated_nodes_use_empty_value(self):
        import networkx as nx

        g = nx.empty_graph(4)
        net = Network.local(g)
        plane = CsrPlane(net)
        assert plane.row_sum(np.zeros(0, dtype=np.int64)).tolist() == [0] * 4
        assert plane.row_max(np.zeros(0, dtype=np.int64), empty=9).tolist() == [9] * 4


class _PlainProgram(NodeProgram):
    """No message_specs: VectorEngine must fall back to FastEngine."""

    def setup(self, ctx):
        ctx.broadcast(Message("ping", ctx.node))

    def receive(self, ctx, inbox):
        ctx.output("heard", len(inbox))
        ctx.halt()


class _TargetedProgram(NodeProgram):
    """Declares a spec but sends to a single neighbor: traffic at the
    takeover round is not a full broadcast, so the engine must stay on
    scalar semantics for the whole run."""

    message_specs = (MessageSpec("one", "value"),)

    def setup(self, ctx):
        if ctx.neighbors:
            ctx.send(ctx.neighbors[0], Message("one", ctx.node))

    def receive(self, ctx, inbox):
        ctx.output("heard", sorted(inbox))
        ctx.halt()


@register_kernel(_TargetedProgram)
class _TargetedKernel(VectorKernel):
    def step(self, round_no, inbound):  # pragma: no cover - never reached
        raise AssertionError("non-conforming traffic must not reach the kernel")


class _SometimesTargetedProgram(NodeProgram):
    """Broadcasts its id in ``setup`` unless its input asks for a
    single-neighbor send: one group can mix conforming and non-conforming
    instances."""

    message_specs = (MessageSpec("one", "value"),)

    def setup(self, ctx):
        if not self.input:
            ctx.broadcast(Message("one", ctx.node))
        elif ctx.neighbors:
            ctx.send(ctx.neighbors[0], Message("one", ctx.node))

    def receive(self, ctx, inbox):
        ctx.output("heard", sorted(inbox))
        ctx.halt()


@register_kernel(_SometimesTargetedProgram)
class _SometimesTargetedKernel(VectorKernel):
    def step(self, round_no, inbound):
        plane = self.plane
        sent = plane.sent_slots(inbound)
        for v in np.flatnonzero(self.live):
            row = slice(plane.indptr[v], plane.indptr[v + 1])
            heard = plane.local_ids[plane.indices[row][sent[row]]]
            self.output(int(v), "heard", sorted(int(u) for u in heard))
        self.live[:] = False
        return None


def _gnp_networks(sizes):
    return [
        Network.congest(gnp_graph(n, 0.15, seed=seed))
        for seed, n in enumerate(sizes)
    ]


class TestFallbackLadder:
    def test_program_without_specs_falls_back(self, small_gnp):
        net = Network.congest(small_gnp)
        vec = Simulator(net, _PlainProgram, engine="vector").run()
        fast = Simulator(net, _PlainProgram, engine="fast").run()
        assert vec == fast

    def test_nonconforming_traffic_stays_scalar(self, small_gnp):
        net = Network.congest(small_gnp)
        vec = Simulator(net, _TargetedProgram, engine="vector").run()
        fast = Simulator(net, _TargetedProgram, engine="fast").run()
        assert vec == fast

    def test_nonconforming_group_stays_scalar_when_stacked(self):
        """Every instance of a K = 3 group queues non-conforming traffic
        at its takeover round: none is handed to the kernel, and each
        finishes scalar inside the shared loop exactly like ``fast``."""
        networks = _gnp_networks((30, 24, 40))
        stacked = run_stacked(networks, _TargetedProgram, max_rounds=10)
        fast = [
            Simulator(net, _TargetedProgram, engine="fast").run(max_rounds=10)
            for net in networks
        ]
        assert stacked == fast

    def test_mixed_conformance_group_matches_fast(self):
        """A non-conforming instance stays scalar while its conforming
        siblings run on the plane from round 1."""
        networks = _gnp_networks((30, 24, 40))
        inputs = [{}, {v: True for v in range(networks[1].n)}, {}]
        stacked = run_stacked(
            networks, _SometimesTargetedProgram, inputs=inputs, max_rounds=10
        )
        fast = [
            Simulator(
                net, _SometimesTargetedProgram, inputs=inputs[k], engine="fast"
            ).run(max_rounds=10)
            for k, net in enumerate(networks)
        ]
        assert stacked == fast

    def test_mixed_program_classes_fall_back(self):
        programs = {0: _PlainProgram(), 1: DistributedGreedyProgram()}
        assert VectorEngine._kernel_class(programs) is None

    def test_homogeneous_greedy_gets_kernel(self):
        programs = {0: DistributedGreedyProgram(), 1: DistributedGreedyProgram()}
        kernel_cls = VectorEngine._kernel_class(programs)
        assert kernel_cls is not None
        assert kernel_cls.program_class is DistributedGreedyProgram


class TestBudgetEnforcement:
    def test_oversized_broadcast_raises_like_scalar(self):
        g = star_graph(6)
        net = Network(g, bit_budget=10)  # below any real message size
        for engine in ("reference", "fast", "vector"):
            sim = Simulator(net, DistributedGreedyProgram, engine=engine)
            with pytest.raises(MessageTooLargeError):
                sim.run(max_rounds=50)

    def test_vector_offender_matches_reference(self):
        g = gnp_graph(12, 0.4, seed=3)
        net = Network(g, bit_budget=17)  # admits "cov"/"join", rejects "span"
        errors = {}
        for engine in ("reference", "vector"):
            sim = Simulator(net, DistributedGreedyProgram, engine=engine)
            with pytest.raises(MessageTooLargeError) as exc:
                sim.run(max_rounds=50)
            errors[engine] = (exc.value.sender, exc.value.bits, exc.value.budget)
        assert errors["reference"] == errors["vector"]

    def test_stacked_offender_matches_solo(self):
        """Budgets are per-instance on a ragged plane: only the tight
        instance overflows, and it raises what its solo run raises."""
        graphs = [gnp_graph(n, 0.4, seed=3) for n in (10, 12, 14)]
        networks = [
            Network.congest(graphs[0]),
            Network(graphs[1], bit_budget=17),
            Network.congest(graphs[2]),
        ]
        with pytest.raises(MessageTooLargeError) as solo:
            Simulator(networks[1], DistributedGreedyProgram, engine="fast").run(
                max_rounds=50
            )
        with pytest.raises(MessageTooLargeError) as stacked:
            run_stacked(networks, DistributedGreedyProgram, max_rounds=50)
        assert (stacked.value.sender, stacked.value.bits, stacked.value.budget) == (
            solo.value.sender,
            solo.value.bits,
            solo.value.budget,
        )
