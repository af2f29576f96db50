"""Graph workloads: generators, the named benchmark suite, graph powers and
the bipartite double cover used by Section 3.3.
"""

from repro.graphs.normalize import normalize_graph, relabel_map
from repro.graphs.generators import (
    gnp_csr,
    gnp_graph,
    geometric_graph,
    preferential_attachment_graph,
    grid_graph,
    ring_graph,
    random_tree,
    caterpillar_graph,
    regular_graph,
    star_graph,
    clique_graph,
    dumbbell_graph,
)
from repro.graphs.suite import SuiteInstance, benchmark_suite, suite_instance
from repro.graphs.powers import graph_power, square_graph
from repro.graphs.validation import degree_stats, require_connected

__all__ = [
    "normalize_graph",
    "relabel_map",
    "gnp_csr",
    "gnp_graph",
    "geometric_graph",
    "preferential_attachment_graph",
    "grid_graph",
    "ring_graph",
    "random_tree",
    "caterpillar_graph",
    "regular_graph",
    "star_graph",
    "clique_graph",
    "dumbbell_graph",
    "SuiteInstance",
    "benchmark_suite",
    "suite_instance",
    "graph_power",
    "square_graph",
    "degree_stats",
    "require_connected",
]
