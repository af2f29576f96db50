"""Route conformance for array-native (CSR-sampled) gnp topologies.

``gnp`` and ``gnp-dense`` cells are generated straight into CSR and reach
the simulator through :meth:`Network.from_csr` on every route: in process
(``build_network``), through a shared-memory pool worker, and through a
service window.  The kernels that read the ``networkx`` view of the
network (``lemma310`` colors ``network.graph``; ``cds`` runs its whole
pipeline on it) must still produce the same record on each route.
"""

from __future__ import annotations

import pytest

from repro.api import Experiment
from repro.congest.network import Network
from repro.experiments.harness import comparable_records
from repro.experiments.runner import GridCell, build_network
from repro.graphs.suite import families, suite_instance
from repro.service import ServiceConfig, SimulationService

PROGRAMS = ("greedy", "lemma310", "cds")
GNP_FAMILIES = ("gnp", "gnp-dense")
SIZES = (20, 40)
SEEDS = (0, 3)


def _experiment(strategy: str, jobs: int = 1) -> Experiment:
    return (
        Experiment(*PROGRAMS)
        .on(*GNP_FAMILIES)
        .sizes(*SIZES)
        .seeds(SEEDS)
        .engine("vector")
        .strategy(strategy)
        .jobs(jobs)
    )


@pytest.fixture(scope="module")
def cell_records():
    records = _experiment("cell").run()
    assert all(record.ok for record in records), [
        record.error for record in records if not record.ok
    ]
    return comparable_records(records)


class TestGnpRoutes:
    def test_batch_matches_cell(self, cell_records):
        assert comparable_records(_experiment("batch").run()) == cell_records

    @pytest.mark.parametrize("strategy", ["cell", "batch"])
    def test_pool_matches_in_process(self, cell_records, strategy):
        assert comparable_records(_experiment(strategy, jobs=2).run()) == cell_records

    def test_service_window_matches_in_process(self, cell_records):
        cells = _experiment("cell").cells()
        service = SimulationService(ServiceConfig(window_s=30.0)).start()
        try:
            ticket = service.submit("tenant", cells)
            service.flush()
            served = ticket.collect(timeout=60.0)
        finally:
            service.stop(drain=False)
        assert comparable_records(served) == cell_records


class TestBuildNetwork:
    @pytest.mark.parametrize("family", families())
    def test_csr_matches_graph_compile(self, family):
        for n, seed in ((30, 0), (61, 5)):
            cell = GridCell(family, n, "greedy", "vector", seed=seed)
            built = build_network(cell)
            compiled = Network.congest(suite_instance(family, n, seed=seed).graph)
            assert built.csr() == compiled.csr()
            assert built.bit_budget == compiled.bit_budget

    @pytest.mark.parametrize("family", GNP_FAMILIES)
    def test_gnp_networks_skip_the_graph(self, family):
        network = build_network(GridCell(family, 50, "greedy", "vector", seed=2))
        assert network._graph is None
        # The lazy view has the same adjacency order as the suite's graph.
        view = suite_instance(family, 50, seed=2).graph
        assert list(network.graph.edges()) == list(view.edges())
        assert [list(network.graph.adj[v]) for v in range(50)] == [
            list(view.adj[v]) for v in range(50)
        ]
