"""The plane's hot path under restricted numpy inputs.

``CsrPlane`` / ``StackedPlane`` row reductions and gathers receive arrays
from many producers: kernels' own int64 state, shared-memory views mapped
read-only into worker processes, boolean masks and narrower integer
columns.  Every hot-path op must accept those *restricted* arrays as they
are — read-only, non-int64 dtypes — without writing into them, and still
agree exactly with a per-row python loop that is independent of the
``ufunc.reduceat`` code path.
"""

from __future__ import annotations

import zlib

import numpy as np
import pytest

from repro.congest.engine import CsrPlane, StackedPlane
from repro.congest.engine.vector import PendingBroadcast
from repro.congest.network import Network
from repro.graphs.suite import suite_instance


def _zoo():
    """Graphs covering the reduction edge cases plus random suite draws."""
    import networkx as nx

    lopsided = nx.Graph()
    lopsided.add_nodes_from(range(7))
    # Node 4 is isolated; rows of very different widths.
    lopsided.add_edges_from([(0, 1), (1, 2), (2, 3), (5, 6), (1, 3), (0, 6)])
    graphs = {
        "lopsided-with-isolated": lopsided,
        "single-edge": nx.path_graph(2),
        "star": nx.star_graph(6),
        "complete": nx.complete_graph(5),
        "all-isolated": nx.empty_graph(4),
    }
    for family, seed in (("gnp", 0), ("tree", 1), ("gnp-dense", 2)):
        graphs[f"{family}-20-{seed}"] = suite_instance(
            family, 20, seed=seed
        ).graph
    return graphs


def _restricted(values, dtype, read_only=True):
    """A copy of ``values`` in ``dtype``, read-only unless asked otherwise."""
    out = np.array(values, dtype=dtype)
    out.setflags(write=not read_only)
    return out


def _conformance_case(plane, rng):
    """Every hot-path op on restricted inputs against per-row python loops;
    the inputs must come back untouched."""
    rows = [
        range(int(plane.indptr[v]), int(plane.indptr[v + 1]))
        for v in range(plane.n)
    ]
    for dtype, lo, empty, read_only in (
        (np.int64, 0, -1, False),  # plain writable int64: kernels' own state
        (np.int64, 0, -1, True),
        (np.int32, 0, -1, True),
        (np.int64, -50, -(10**6), True),
        (np.int32, -50, -(10**6), True),
    ):
        raw = rng.integers(lo, 100, size=plane.nnz)
        slot_values = _restricted(raw, dtype, read_only)
        expect_sum = [sum(int(raw[i]) for i in row) for row in rows]
        expect_max = [max((int(raw[i]) for i in row), default=empty) for row in rows]
        got_sum = plane.row_sum(slot_values)
        got_max = plane.row_max(slot_values, empty)
        assert got_sum.dtype == np.int64 and got_max.dtype == np.int64
        assert got_sum.tolist() == expect_sum
        assert got_max.tolist() == expect_max
        assert slot_values.tolist() == raw.tolist()

    raw_flags = rng.integers(0, 2, size=plane.nnz)
    expect_any = [any(int(raw_flags[i]) for i in row) for row in rows]
    for dtype in (np.bool_, np.int8, np.int64):
        flags = _restricted(raw_flags, dtype)
        assert plane.row_any(flags).tolist() == expect_any
        assert flags.tolist() == raw_flags.astype(dtype).tolist()

    raw_per_node = rng.integers(0, 1000, size=plane.n)
    expect_gather = [int(raw_per_node[int(peer)]) for peer in plane.indices]
    for read_only in (False, True):
        per_node = _restricted(raw_per_node, np.int64, read_only)
        assert plane.gather(per_node).tolist() == expect_gather

    pending = PendingBroadcast.__new__(PendingBroadcast)
    pending.mask = _restricted(rng.integers(0, 2, size=plane.n), bool)
    expect_sent = [bool(pending.mask[int(peer)]) for peer in plane.indices]
    assert plane.sent_slots(pending).tolist() == expect_sent
    assert plane.sent_slots(None).tolist() == [False] * plane.nnz

    # The topology tables are consistent with the rows they index.
    assert plane.degrees.tolist() == [len(row) for row in rows]
    assert int(plane.indptr[-1]) == plane.nnz


class TestRestrictedNumpyConformance:
    """Read-only, narrow-dtype inputs through the solo and stacked planes."""

    @pytest.mark.parametrize("name", sorted(_zoo()))
    def test_csr_plane_hot_path(self, name):
        net = Network.congest(_zoo()[name])
        plane = CsrPlane(net)
        assert plane.local_ids.tolist() == list(range(net.n))
        assert plane.local_n_of.tolist() == [net.n] * net.n
        _conformance_case(plane, np.random.default_rng(zlib.crc32(name.encode())))

    def test_stacked_plane_hot_path(self):
        networks = [
            Network.congest(suite_instance(f, n, seed=s).graph)
            for f, n, s in (("gnp", 16, 0), ("tree", 30, 1), ("gnp-dense", 9, 2))
        ]
        plane = StackedPlane(networks)
        assert plane.local_ids.tolist() == [
            v for net in networks for v in range(net.n)
        ]
        assert plane.local_n_of.tolist() == [
            net.n for net in networks for _ in range(net.n)
        ]
        _conformance_case(plane, np.random.default_rng(7))
