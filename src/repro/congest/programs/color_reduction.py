"""Distributed iterative color reduction as a node program.

The message-passing realization of :func:`repro.coloring.reduction.
reduce_coloring`: starting from unique IDs (a proper ``n``-coloring), color
classes are eliminated top-down, one class per round — the [BEK15]-style
final stage the paper's Lemma 3.12 builds on.  Node with color ``c`` acts
in round ``n - c``: it picks the smallest color unused in its neighborhood
and announces it.  After ``n`` rounds at most ``Delta + 1`` colors remain.

Every message is a single color value (``O(log n)`` bits).
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

import networkx as nx
import numpy as np

from repro.congest.engine import (
    EngineSpec,
    MessageSpec,
    PendingBroadcast,
    VectorKernel,
    register_kernel,
)
from repro.congest.message import Message
from repro.congest.network import Network
from repro.congest.node import Context, NodeProgram
from repro.congest.simulator import SimulationResult, Simulator
from repro.errors import ColoringError


class ColorReductionProgram(NodeProgram):
    """Input per node: its initial color (defaults to its id).

    Output: ``color`` — the final color, at most ``Delta + 1`` distinct
    values across the network.
    """

    #: Every message is a one-field color broadcast.
    message_specs = (MessageSpec("color", "color"),)

    def __init__(self, input_value: object = None):
        super().__init__(input_value)
        self.color: int | None = (
            int(input_value) if input_value is not None else None
        )
        self.neighbor_colors: Dict[int, int] = {}

    def setup(self, ctx: Context) -> None:
        if self.color is None:
            self.color = ctx.node
        ctx.broadcast(Message("color", self.color))

    def receive(self, ctx: Context, inbox: Dict[int, Message]) -> None:
        for sender, msg in inbox.items():
            if msg.tag == "color":
                self.neighbor_colors[sender] = msg.fields[0]

        # Round r eliminates color class n - r; nodes of that color recolor.
        acting_color = ctx.n - ctx.round_number
        assert self.color is not None
        if self.color == acting_color and acting_color > 0:
            taken = set(self.neighbor_colors.values())
            new_color = 0
            while new_color in taken:
                new_color += 1
            if new_color in taken:  # pragma: no cover - defensive
                raise ColoringError("no free color found")
            self.color = new_color
            ctx.broadcast(Message("color", self.color))

        if acting_color <= 0:
            ctx.output("color", self.color)
            ctx.halt()


@register_kernel(ColorReductionProgram)
class ColorReductionKernel(VectorKernel):
    """Vector transcription of the top-down class-elimination rounds.

    The message plane (delivery, accounting) is fully vectorized; the mex
    computation runs as a small scalar loop over that round's acting class
    only — total scalar work across the run is O(sum of acting degrees),
    not O(n) per round like the scalar engines pay.

    The acting class is computed from ``plane.local_n_of`` (the per-node
    view of the ``n`` each node program believes it runs on), so the
    kernel is *stackable on ragged planes*: in global round ``r`` a node
    of an ``n_k``-node instance acts iff its color is ``n_k - r`` and the
    whole instance halts at round ``n_k`` — smaller instances eliminate
    lower classes and terminate earlier while their larger siblings run
    on, exactly as each solo run schedules itself.
    """

    _SPEC = ColorReductionProgram.message_specs[0]

    def __init__(self, plane, programs, contexts):
        super().__init__(plane, programs, contexts)
        n = plane.n
        self.color = np.fromiter(
            (programs[v].color for v in range(n)), dtype=np.int64, count=n
        )
        #: Last-heard color per edge slot; -1 = never heard (the missing
        #: ``neighbor_colors`` entry, which the mex must ignore).
        self.ncolor = np.full(plane.nnz, -1, dtype=np.int64)

    @classmethod
    def stacked_setup(cls, plane, inputs):
        """Vectorized boot: every node announces its initial color.

        Colors default to the node's *local* id (a proper n-coloring per
        instance, exactly what the scalar ``setup`` picks); explicit
        initial colors from ``inputs`` overwrite their entries.
        """
        kernel = cls._blank(plane)
        color = plane.local_ids.copy()
        for k, mapping in enumerate(inputs):
            if not mapping:
                continue
            base = int(plane.node_offsets[k])
            for v, c in mapping.items():
                if c is not None:
                    color[base + int(v)] = int(c)
        kernel.color = color
        kernel.ncolor = np.full(plane.nnz, -1, dtype=np.int64)
        pending = PendingBroadcast(
            cls._SPEC,
            plane.degrees > 0,
            (color.copy(),),
            cls._SPEC.bits_array((color,)),
        )
        return kernel, pending

    def step(
        self, round_no: int, inbound: Optional[PendingBroadcast]
    ) -> Optional[PendingBroadcast]:
        plane = self.plane
        if inbound is not None:
            sent = plane.sent_slots(inbound)
            self.ncolor[sent] = inbound.columns[0][plane.indices[sent]]

        # Per-node acting class: round r eliminates class n_k - r in each
        # node's own instance; an instance is done once its class hits 0
        # (round n_k), independently of any larger siblings on the plane.
        acting_color = plane.local_n_of - round_no
        finishing = self.live & (acting_color <= 0)
        if finishing.any():
            for v in np.flatnonzero(finishing):
                self.output(int(v), "color", int(self.color[v]))
            self.live &= ~finishing

        acting = self.live & (self.color == acting_color)
        if not acting.any():
            return None
        indptr = plane.indptr
        for v in np.flatnonzero(acting):
            row = self.ncolor[indptr[v] : indptr[v + 1]]
            taken = {int(c) for c in row if c >= 0}
            new_color = 0
            while new_color in taken:
                new_color += 1
            self.color[v] = new_color
        return PendingBroadcast(
            self._SPEC,
            acting,
            (self.color.copy(),),
            self._SPEC.bits_array((self.color,)),
        )


def run_color_reduction(
    graph: nx.Graph | None,
    initial: Dict[int, int] | None = None,
    network: Network | None = None,
    engine: EngineSpec = None,
) -> Tuple[Dict[int, int], SimulationResult]:
    """Run distributed color reduction; returns (colors, metrics).

    ``graph`` may be ``None`` when ``network`` is given.
    """
    network = network or Network.congest(graph)
    inputs = dict(initial) if initial is not None else {}
    sim = Simulator(network, ColorReductionProgram, inputs=inputs, engine=engine)
    result = sim.run(max_rounds=network.n + 4)
    return result.output_map("color"), result


# -- experiment-surface registration ------------------------------------------

from repro.api.registry import ProgramSpec, register_program  # noqa: E402


def _drive(network: Network, engine: str) -> SimulationResult:
    return run_color_reduction(None, network=network, engine=engine)[-1]


def _summary(sim: SimulationResult) -> Dict[str, object]:
    return {"colors": len(set(sim.output_map("color").values()))}


register_program(
    ProgramSpec(
        name="color-reduction",
        description="[BEK15]-style reduction to at most Delta+1 colors",
        program=ColorReductionProgram,
        drive=_drive,
        summarize=_summary,
        batch_factory=ColorReductionProgram,
        batch_max_rounds=lambda net: net.n + 4,
    )
)
