"""Array-native topology building blocks.

Generators that sample edges with numpy (see
:func:`repro.graphs.generators.gnp_csr`) build the normalized flat CSR
adjacency ``(indptr, indices)`` directly — node ``v``'s sorted neighbors
are ``indices[indptr[v]:indptr[v+1]]``, exactly what
:class:`repro.congest.network.Network` compiles — without a ``networkx``
graph in between.  This module holds the pieces they share:

* :func:`connector_edges` — the one rule that patches a disconnected sample
  into a connected graph (used by the array path *and* by
  :func:`~repro.graphs.generators.geometric_graph`);
* :func:`repr_rank` — the label permutation of
  :func:`~repro.graphs.normalize.relabel_map` for integer labels;
* :func:`edges_to_csr` / :func:`csr_graph` — CSR assembly and its
  ``networkx`` view.
"""

from __future__ import annotations

import random
from functools import lru_cache
from typing import List, Tuple

import networkx as nx
import numpy as np

#: A normalized CSR adjacency: int64 ``(indptr, indices)``.
Csr = Tuple[np.ndarray, np.ndarray]


def component_labels(n: int, src: np.ndarray, dst: np.ndarray) -> np.ndarray:
    """Label every node with the lowest node of its connected component.

    Min-label hooking plus pointer jumping over the edge arrays: each sweep
    hooks the larger of two adjacent labels onto the smaller one and then
    flattens the label forest, so the loop ends after a few sweeps even on
    long paths.  A component's minimum node only ever keeps its own label,
    hence the fixed point maps each node to that minimum.
    """
    labels = np.arange(n, dtype=np.int64)
    if len(src) == 0:
        return labels
    while True:
        lu, lv = labels[src], labels[dst]
        if np.array_equal(lu, lv):
            return labels
        np.minimum.at(labels, np.maximum(lu, lv), np.minimum(lu, lv))
        while True:
            jumped = labels[labels]
            if np.array_equal(jumped, labels):
                break
            labels = jumped


def connector_edges(
    n: int, src: np.ndarray, dst: np.ndarray, seed: int
) -> List[Tuple[int, int]]:
    """Edges that connect a sampled graph on nodes ``0..n-1``.

    Components are ordered by size (descending), ties by their lowest node;
    each one after the first is linked to the first (the *anchor*) by one
    edge ``(rng.choice(sorted(component)), rng.choice(sorted(anchor)))``,
    drawn from a fresh ``random.Random(seed)``.  That adds the minimum
    number of edges, and the draws are part of instance identity: the rule
    reproduces the original ``networkx`` connector exactly.
    """
    labels = component_labels(n, src, dst)
    roots = np.flatnonzero(labels == np.arange(n))
    if len(roots) == 1:
        return []
    sizes = np.bincount(labels, minlength=n)[roots]
    # Nodes grouped by component label, ascending within each group.
    grouped = np.argsort(labels, kind="stable")
    starts = np.concatenate(([0], np.cumsum(sizes)[:-1]))
    members = [grouped[s:s + k] for s, k in zip(starts.tolist(), sizes.tolist())]
    order = np.lexsort((roots, -sizes)).tolist()
    rng = random.Random(seed)
    anchor = members[order[0]]
    edges = []
    for comp in order[1:]:
        u = rng.choice(members[comp])
        v = rng.choice(anchor)
        edges.append((int(u), int(v)))
    return edges


@lru_cache(maxsize=16)
def repr_rank(n: int) -> np.ndarray:
    """``rank[label]`` = the normalized id of integer label ``label``.

    :func:`~repro.graphs.normalize.relabel_map` orders labels by their
    ``repr`` (``"10"`` before ``"2"``); that order is part of instance
    identity, so array-native generators must apply the same permutation.
    """
    order = np.argsort(np.arange(n).astype(str), kind="stable")
    rank = np.empty(n, dtype=np.int64)
    rank[order] = np.arange(n, dtype=np.int64)
    rank.setflags(write=False)
    return rank


def edges_to_csr(n: int, src: np.ndarray, dst: np.ndarray) -> Csr:
    """Sorted-row CSR of the undirected simple graph with edges
    ``(src[i], dst[i])`` (no self-loops, no repeated pair)."""
    rows = np.concatenate((src, dst))
    cols = np.concatenate((dst, src))
    order = np.lexsort((cols, rows))
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(rows, minlength=n), out=indptr[1:])
    return indptr, cols[order]


def csr_graph(indptr, indices) -> nx.Graph:
    """The ``networkx`` view of a CSR adjacency.

    Nodes ``0..n-1`` in order, then one ``add_edges_from`` of the pairs
    ``(v, u)`` with ``u > v`` in CSR order — the adjacency order every
    CSR-built graph in this package shares.
    """
    indptr = np.asarray(indptr, dtype=np.int64)
    indices = np.asarray(indices, dtype=np.int64)
    n = len(indptr) - 1
    rows = np.repeat(np.arange(n, dtype=np.int64), np.diff(indptr))
    upper = indices > rows
    graph = nx.Graph()
    graph.add_nodes_from(range(n))
    graph.add_edges_from(zip(rows[upper].tolist(), indices[upper].tolist()))
    return graph
