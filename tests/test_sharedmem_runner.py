"""Shared-memory topology transport and generate-once grid execution."""

from __future__ import annotations

import networkx as nx
import pytest

from repro.congest.network import Network
from repro.errors import GraphError, UnknownEngineError, UnknownProgramError
from repro.experiments.runner import GridCell, expand_grid, run_grid
from repro.experiments.sharedmem import SharedTopology, attach_network
from repro.graphs.generators import gnp_graph, star_graph


class TestNetworkFromCsr:
    def test_round_trip_preserves_topology(self, small_gnp):
        original = Network.congest(small_gnp)
        indptr, indices = original.csr()
        rebuilt = Network.from_csr(indptr, indices, bit_budget=original.bit_budget)
        assert rebuilt.n == original.n
        assert rebuilt.bit_budget == original.bit_budget
        for v in range(original.n):
            assert rebuilt.neighbors(v) == original.neighbors(v)
            assert rebuilt.degree(v) == original.degree(v)
        assert rebuilt.max_degree == original.max_degree

    def test_lazy_graph_reconstruction(self):
        g = star_graph(7)
        original = Network.congest(g)
        rebuilt = Network.from_csr(*original.csr(), bit_budget=None)
        assert nx.is_isomorphic(rebuilt.graph, g)
        assert sorted(rebuilt.graph.nodes()) == sorted(g.nodes())
        assert sorted(rebuilt.graph.edges()) == sorted(g.edges())

    def test_malformed_csr_rejected(self):
        with pytest.raises(GraphError):
            Network.from_csr([0, 2], [1], bit_budget=None)
        with pytest.raises(GraphError):
            Network.from_csr([0], [], bit_budget=None)

    def test_non_monotone_indptr_rejected(self):
        with pytest.raises(GraphError, match="monotone"):
            Network.from_csr([0, 2, 1, 2], [1, 2], bit_budget=None)

    @pytest.mark.parametrize("bad", [2, -1])
    def test_index_out_of_range_rejected(self, bad):
        with pytest.raises(GraphError, match="outside"):
            Network.from_csr([0, 1, 2], [1, bad], bit_budget=None)

    def test_unsorted_row_rejected(self):
        with pytest.raises(GraphError, match="ascending"):
            Network.from_csr([0, 2, 4, 6], [2, 1, 0, 2, 0, 1], bit_budget=None)

    def test_duplicate_neighbor_rejected(self):
        with pytest.raises(GraphError, match="ascending"):
            Network.from_csr([0, 2, 4], [1, 1, 0, 0], bit_budget=None)

    def test_self_loop_rejected(self):
        with pytest.raises(GraphError, match="self-loop"):
            Network.from_csr([0, 2, 3], [0, 1, 0], bit_budget=None)

    def test_asymmetric_adjacency_rejected(self):
        with pytest.raises(GraphError, match="symmetric"):
            Network.from_csr([0, 1, 1], [1], bit_budget=None)
        with pytest.raises(GraphError, match="symmetric"):
            Network.from_csr([0, 1, 2, 2], [1, 2], bit_budget=None)

    def test_isolated_nodes_accepted(self):
        net = Network.from_csr([0, 0, 1, 2, 2], [2, 1], bit_budget=None)
        assert net.neighbors(0) == ()
        assert net.neighbors(1) == (2,)
        assert net.max_degree == 1
        assert Network.from_csr([0, 0], [], bit_budget=None).max_degree == 0

    def test_graph_rebuild_keeps_the_row_order(self, small_gnp):
        """The lazy view adds ``(v, u)`` for ``u > v`` row by row."""
        indptr, indices = Network.congest(small_gnp).csr()
        expected = [
            (v, u)
            for v in range(len(indptr) - 1)
            for u in indices[indptr[v]:indptr[v + 1]]
            if u > v
        ]
        rebuilt = Network.from_csr(indptr, indices).graph
        assert list(rebuilt.edges()) == expected
        assert list(rebuilt.nodes()) == list(range(len(indptr) - 1))


class TestSharedTopology:
    def test_publish_attach_round_trip(self):
        g = gnp_graph(40, 0.15, seed=2)
        network = Network.congest(g)
        topology = SharedTopology.publish(network)
        try:
            rebuilt = attach_network(topology.handle)
            assert rebuilt.n == network.n
            assert rebuilt.bit_budget == network.bit_budget
            for v in range(network.n):
                assert rebuilt.neighbors(v) == network.neighbors(v)
        finally:
            topology.unlink()

    def test_handle_is_picklable(self):
        import pickle

        network = Network.congest(star_graph(5))
        topology = SharedTopology.publish(network)
        try:
            handle = pickle.loads(pickle.dumps(topology.handle))
            rebuilt = attach_network(handle)
            assert rebuilt.n == network.n
        finally:
            topology.unlink()

    def test_edgeless_graph_publishes(self):
        network = Network.local(nx.empty_graph(3))
        topology = SharedTopology.publish(network)
        try:
            rebuilt = attach_network(topology.handle)
            assert rebuilt.n == 3
            assert all(rebuilt.neighbors(v) == () for v in range(3))
        finally:
            topology.unlink()


class TestGridExpansionValidation:
    def test_unknown_engine_raises_structured(self):
        with pytest.raises(UnknownEngineError) as exc:
            expand_grid(("tree",), (16,), engines=("warp-drive",))
        assert "warp-drive" in str(exc.value)
        assert "fast" in str(exc.value)

    def test_unknown_program_raises_structured(self):
        with pytest.raises(UnknownProgramError) as exc:
            expand_grid(("tree",), (16,), programs=("quicksort",))
        assert "quicksort" in str(exc.value)


class TestSharedMemoryGrid:
    GRID = [
        GridCell(family="gnp", n=24, program=p, engine=e, seed=5)
        for p in ("bfs", "greedy")
        for e in ("reference", "fast", "vector")
    ]

    def _strip_walls(self, results):
        import copy

        stripped = copy.deepcopy(results)
        for rec in stripped:
            rec.pop("wall_s", None)
        return stripped

    def test_workers_match_sequential(self):
        sequential = run_grid(self.GRID, jobs=1)
        parallel = run_grid(self.GRID, jobs=2)
        assert self._strip_walls(sequential) == self._strip_walls(parallel)
        assert all(r["ok"] for r in parallel)

    def test_failed_topology_is_per_cell_structured(self):
        cells = [
            GridCell(family="gnp", n=16, program="bfs", engine="fast"),
            GridCell(family="nope", n=16, program="bfs", engine="fast"),
        ]
        for jobs in (1, 2):
            results = run_grid(cells, jobs=jobs)
            assert [r["ok"] for r in results] == [True, False]
            assert results[1]["error"]["type"] == "GraphError"
