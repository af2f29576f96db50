"""Canonical node labelling.

Every algorithm in this library assumes simple undirected graphs with integer
node labels ``0..n-1`` (node label == unique O(log n)-bit identifier, the
standard CONGEST assumption).  :func:`normalize_graph` converts arbitrary
``networkx`` graphs into that form deterministically, so symmetry-breaking
by ID is reproducible.  Labels are ordered by ``(type name, repr)``, not by
value: integer labels sort as strings (``10`` before ``2``).  That order is
part of instance identity — the array-native generators
(:mod:`repro.graphs.csr`) apply the same permutation.
"""

from __future__ import annotations

from typing import Dict, Hashable

import networkx as nx

from repro.errors import GraphError


def relabel_map(graph: nx.Graph) -> Dict[Hashable, int]:
    """Deterministic mapping original-label -> 0..n-1 (sorted by repr order).

    Labels are sorted by ``(type name, label)`` so heterogeneous label types
    (e.g. tuples from grid graphs) still order deterministically.
    """
    labels = sorted(graph.nodes(), key=lambda x: (type(x).__name__, repr(x)))
    return {label: i for i, label in enumerate(labels)}


def normalize_graph(graph: nx.Graph) -> nx.Graph:
    """Return a simple undirected copy with nodes relabelled ``0..n-1``.

    Self-loops are dropped (a self-loop is meaningless for domination since
    neighborhoods are inclusive anyway); multi-edges collapse.
    """
    if graph.is_directed():
        raise GraphError("directed graphs are not supported")
    simple = nx.Graph()
    mapping = relabel_map(graph)
    simple.add_nodes_from(range(graph.number_of_nodes()))
    for u, v in graph.edges():
        if u == v:
            continue
        simple.add_edge(mapping[u], mapping[v])
    return simple


def is_normalized(graph: nx.Graph) -> bool:
    """Whether node labels are exactly ``0..n-1``."""
    n = graph.number_of_nodes()
    return set(graph.nodes()) == set(range(n))


def require_normalized(graph: nx.Graph) -> None:
    """Raise :class:`GraphError` unless the graph is normalized."""
    if not is_normalized(graph):
        raise GraphError(
            "graph must have integer node labels 0..n-1; "
            "call repro.graphs.normalize_graph first"
        )
