"""Graph generators, normalization, powers and the benchmark suite."""

import hashlib
import math
import random

import networkx as nx
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.congest.network import Network
from repro.errors import GraphError
from repro.graphs.csr import component_labels
from repro.graphs.generators import (
    caterpillar_graph,
    clique_graph,
    dumbbell_graph,
    geometric_graph,
    gnp_csr,
    gnp_graph,
    grid_graph,
    preferential_attachment_graph,
    random_tree,
    regular_graph,
    ring_graph,
    star_graph,
)
from repro.graphs.normalize import is_normalized, normalize_graph, require_normalized
from repro.graphs.powers import (
    ball,
    graph_power,
    nodes_within,
    shortest_path_within,
    square_graph,
)
from repro.graphs.suite import benchmark_suite, families, suite_instance
from repro.graphs.validation import degree_stats, require_connected


class TestNormalize:
    def test_relabels_to_range(self):
        g = nx.Graph([("b", "a"), ("a", "c")])
        n = normalize_graph(g)
        assert set(n.nodes()) == {0, 1, 2}
        assert is_normalized(n)

    def test_drops_self_loops(self):
        g = nx.Graph([(0, 0), (0, 1)])
        n = normalize_graph(g)
        assert n.number_of_edges() == 1

    def test_rejects_directed(self):
        with pytest.raises(GraphError):
            normalize_graph(nx.DiGraph([(0, 1)]))

    def test_deterministic(self):
        g = nx.Graph([("x", "y"), ("y", "z")])
        assert nx.utils.graphs_equal(normalize_graph(g), normalize_graph(g))

    def test_require_normalized_raises(self):
        g = nx.Graph()
        g.add_node(5)
        with pytest.raises(GraphError):
            require_normalized(g)


class TestGenerators:
    def test_gnp_connected_and_seeded(self):
        a = gnp_graph(50, 0.05, seed=3)
        b = gnp_graph(50, 0.05, seed=3)
        assert nx.is_connected(a)
        assert nx.utils.graphs_equal(a, b)

    def test_gnp_rejects_bad_n(self):
        with pytest.raises(GraphError):
            gnp_graph(0, 0.5)

    def test_geometric_default_radius_connected(self):
        g = geometric_graph(60, seed=1)
        assert nx.is_connected(g)
        assert is_normalized(g)

    def test_preferential_attachment(self):
        g = preferential_attachment_graph(40, m=2, seed=2)
        assert g.number_of_edges() == pytest.approx(2 * 38, abs=4)
        with pytest.raises(GraphError):
            preferential_attachment_graph(2, m=3)

    def test_grid_shape(self):
        g = grid_graph(3, 4)
        assert g.number_of_nodes() == 12
        assert max(d for _, d in g.degree()) <= 4

    def test_ring(self):
        g = ring_graph(7)
        assert all(d == 2 for _, d in g.degree())

    def test_random_tree_is_tree(self):
        for n in (1, 2, 3, 20):
            g = random_tree(n, seed=5)
            assert nx.is_tree(g)
            assert g.number_of_nodes() == n

    def test_caterpillar(self):
        g = caterpillar_graph(4, legs_per_node=2)
        assert g.number_of_nodes() == 4 + 8
        assert nx.is_tree(g)

    def test_regular_degree(self):
        g = regular_graph(20, 6, seed=1)
        assert all(d == 6 for _, d in g.degree())
        with pytest.raises(GraphError):
            regular_graph(7, 3)

    def test_star_and_clique(self):
        assert max(d for _, d in star_graph(5).degree()) == 5
        assert clique_graph(5).number_of_edges() == 10

    def test_dumbbell_connected(self):
        g = dumbbell_graph(4, 3)
        assert nx.is_connected(g)
        assert g.number_of_nodes() == 11


class TestPowers:
    def test_square_of_path(self):
        g = normalize_graph(nx.path_graph(5))
        sq = square_graph(g)
        assert sq.has_edge(0, 2)
        assert not sq.has_edge(0, 3)

    def test_power_matches_distance(self, small_gnp):
        k = 3
        p = graph_power(small_gnp, k)
        lengths = dict(nx.all_pairs_shortest_path_length(small_gnp))
        for u in small_gnp.nodes():
            for v in small_gnp.nodes():
                if u == v:
                    continue
                expect = lengths[u].get(v, 10 ** 9) <= k
                assert p.has_edge(u, v) == expect

    def test_power_rejects_bad_k(self, path5):
        with pytest.raises(GraphError):
            graph_power(path5, 0)

    def test_ball_restricted(self, path5):
        b = ball(path5, 0, 2, within={0, 1})
        assert set(b) == {0, 1}

    def test_nodes_within_multi_source(self, path5):
        assert nodes_within(path5, [0, 4], 1) == {0, 1, 3, 4}

    def test_shortest_path_within(self, path5):
        assert shortest_path_within(path5, 0, 3, 3) == [0, 1, 2, 3]
        assert shortest_path_within(path5, 0, 4, 3) is None
        assert shortest_path_within(path5, 2, 2, 0) == [2]


class TestSuite:
    def test_families_stable(self):
        assert "gnp" in families()
        assert "geometric" in families()

    def test_instance_reproducible(self):
        a = suite_instance("gnp", 40, seed=1)
        b = suite_instance("gnp", 40, seed=1)
        assert nx.utils.graphs_equal(a.graph, b.graph)
        assert a.name == "gnp-40"

    def test_unknown_family(self):
        with pytest.raises(GraphError):
            suite_instance("nope", 10)

    def test_benchmark_suite_covers_families(self):
        instances = list(benchmark_suite(sizes=(20,), families_subset=("gnp", "tree")))
        assert {i.family for i in instances} == {"gnp", "tree"}


def _legacy_connect(graph, seed):
    """The networkx connector the array rule must reproduce: link a random
    node of each smaller component to a random node of the largest."""
    rng = random.Random(seed)
    components = sorted(nx.connected_components(graph), key=len, reverse=True)
    anchor = sorted(components[0])
    for comp in components[1:]:
        graph.add_edge(rng.choice(sorted(comp)), rng.choice(anchor))
    return graph


def _legacy_gnp_csr(n, p, seed, connected=True):
    """CSR of ``G(n, p)`` built the networkx way: sample, connect,
    normalize, compile."""
    graph = nx.gnp_random_graph(n, p, seed=seed)
    if connected:
        _legacy_connect(graph, seed)
    indptr, indices = Network(normalize_graph(graph)).csr()
    return list(indptr), list(indices)


def _csr_lists(graph):
    indptr, indices = Network(graph).csr()
    return list(indptr), list(indices)


def _csr_sha256(indptr, indices):
    payload = np.asarray(indptr, dtype="<i8").tobytes()
    payload += np.asarray(indices, dtype="<i8").tobytes()
    return hashlib.sha256(payload).hexdigest()


SUITE_P = {"gnp": lambda n: min(0.5, 4.0 / n), "gnp-dense": lambda n: min(0.8, 12.0 / n)}


class TestGnpInstanceIdentity:
    """The numpy sampler reproduces the networkx instances bit for bit."""

    @pytest.mark.parametrize("family", sorted(SUITE_P))
    @pytest.mark.parametrize("n", [1, 2, 3, 5, 8, 13, 60, 400, 1000])
    def test_suite_cells_match_networkx_route(self, family, n):
        p = SUITE_P[family](n)
        for seed in (0, 1, 7) if n < 1000 else (0, 7):
            indptr, indices = gnp_csr(n, p, seed=seed)
            assert (indptr.tolist(), indices.tolist()) == _legacy_gnp_csr(n, p, seed)
            instance = suite_instance(family, n, seed=seed)
            assert instance.csr[0].tolist() == indptr.tolist()
            assert instance.csr[1].tolist() == indices.tolist()

    @pytest.mark.parametrize("p", [0.0, -0.5])
    def test_empty_probability_connects_every_singleton(self, p):
        for seed in (0, 4):
            g = gnp_graph(12, p, seed=seed)
            assert nx.is_tree(g)
            assert _csr_lists(g) == _legacy_gnp_csr(12, p, seed)

    @pytest.mark.parametrize("p", [1.0, 1.5])
    def test_full_probability_is_the_clique(self, p):
        g = gnp_graph(9, p, seed=3)
        assert g.number_of_edges() == 36
        assert _csr_lists(g) == _legacy_gnp_csr(9, p, 3)

    def test_unconnected_sample(self):
        for seed in range(4):
            g = gnp_graph(60, 0.02, seed=seed, connected=False)
            assert is_normalized(g)
            assert _csr_lists(g) == _legacy_gnp_csr(60, 0.02, seed, connected=False)
        assert not nx.is_connected(gnp_graph(60, 0.02, seed=0, connected=False))

    def test_graph_is_the_sorted_csr_view(self):
        g = gnp_graph(80, 0.06, seed=5)
        indptr, indices = gnp_csr(80, 0.06, seed=5)
        assert list(g.nodes()) == list(range(80))
        for v in range(80):
            assert list(g.adj[v]) == indices[indptr[v]:indptr[v + 1]].tolist()

    @pytest.mark.parametrize(
        "family, n, seed, digest",
        [
            ("gnp", 400, 1, "f83ede099f80b6a77bc63a94fd970651b31aaf873606719eb8a7ca1aef923d60"),
            ("gnp-dense", 60, 2, "cd243ff14e3a870be6d092ebbc1d1dc9b263c899b49df8bb81f6eb1da51181cd"),
            ("gnp", 1000, 7, "6d4fb6fe2a92b0b55c7517a07eabe07490c516c23b14d330794856e3064cbfc2"),
        ],
    )
    def test_committed_digests(self, family, n, seed, digest):
        """Pinned without networkx: a drift in either route shows here."""
        assert _csr_sha256(*suite_instance(family, n, seed=seed).csr) == digest

    @pytest.mark.parametrize("n", [1, 2, 30, 200])
    def test_geometric_shares_the_connector(self, n):
        for seed in (0, 3):
            for radius in (None, 0.05):
                r = radius or math.sqrt(2.0 * math.log(max(2, n)) / (math.pi * n))
                legacy = nx.random_geometric_graph(n, r, seed=seed)
                legacy = normalize_graph(_legacy_connect(legacy, seed))
                g = geometric_graph(n, radius=radius, seed=seed)
                assert list(g.edges()) == list(legacy.edges())

    def test_component_labels_are_component_minima(self):
        for graph in (
            nx.path_graph(200),
            nx.disjoint_union(nx.cycle_graph(7), nx.star_graph(4)),
            nx.gnp_random_graph(300, 0.004, seed=2),
        ):
            n = graph.number_of_nodes()
            edges = np.array(list(graph.edges()), dtype=np.int64).reshape(-1, 2)
            # Reverse the edge order so hooks go both ways.
            labels = component_labels(n, edges[::-1, 1].copy(), edges[::-1, 0].copy())
            expected = np.empty(n, dtype=np.int64)
            for comp in nx.connected_components(graph):
                expected[list(comp)] = min(comp)
            assert labels.tolist() == expected.tolist()


class TestValidation:
    def test_degree_stats(self, small_gnp):
        stats = degree_stats(small_gnp)
        assert stats.n == 30
        assert stats.delta_tilde == stats.max_degree + 1
        assert stats.min_degree <= stats.avg_degree <= stats.max_degree

    def test_require_connected(self):
        g = normalize_graph(nx.Graph([(0, 1), (2, 3)]))
        with pytest.raises(GraphError):
            require_connected(g)
        with pytest.raises(GraphError):
            require_connected(nx.Graph())


@settings(max_examples=25, deadline=None)
@given(st.integers(2, 40), st.integers(0, 10))
def test_gnp_always_normalized_connected(n, seed):
    g = gnp_graph(n, 3.0 / n, seed=seed)
    assert is_normalized(g)
    assert nx.is_connected(g)
