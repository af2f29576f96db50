"""Deterministic (seeded) graph generators for workloads.

The paper motivates MDS with clustering in wireless ad-hoc / sensor networks,
so the suite leans on random geometric (unit-disk) graphs; classic families
(G(n,p), preferential attachment, grids, trees, caterpillars, regular graphs)
round out the sweep so degree distributions from near-regular to heavy-tailed
are covered.  All generators return normalized graphs (labels ``0..n-1``)
and take an explicit ``seed`` so experiments are reproducible.  ``G(n, p)``
is sampled array-native: :func:`gnp_csr` builds its normalized CSR
adjacency with numpy, and :func:`gnp_graph` is the ``networkx`` view of it.
"""

from __future__ import annotations

import math
import random
from typing import Tuple

import networkx as nx
import numpy as np

from repro.errors import GraphError
from repro.graphs.csr import Csr, connector_edges, csr_graph, edges_to_csr, repr_rank
from repro.graphs.normalize import normalize_graph


#: Uniform draws per numpy call while sampling ``G(n, p)``: bounds the
#: scratch memory (512 KB) at any ``n``.  Larger chunks are no faster but
#: raise a process's peak RSS by the chunk's size (2.5 MB at n=800).
_DRAW_CHUNK = 1 << 16


def _gnp_pairs(n: int, p: float, seed: int) -> Tuple[np.ndarray, np.ndarray]:
    """The pairs ``(i < j)`` that ``nx.gnp_random_graph(n, p, seed)`` keeps.

    networkx draws one ``random.Random(seed).random()`` per pair in
    ``itertools.combinations(range(n), 2)`` order and keeps the pair when
    the draw is below ``p``.  A numpy ``RandomState`` loaded with the same
    MT19937 state yields the same 53-bit doubles (the legacy stream is
    frozen), so the same pairs come out of a chunked vector comparison.
    """
    if p >= 1:
        return np.triu_indices(n, 1)
    total = n * (n - 1) // 2
    if p <= 0 or total == 0:
        empty = np.empty(0, dtype=np.int64)
        return empty, empty
    _, internal, _ = random.Random(seed).getstate()
    state = np.random.RandomState()
    state.set_state(
        ("MT19937", np.array(internal[:-1], dtype=np.uint32), internal[-1])
    )
    # Flat index of the first pair of row i: sum of (n-1-r) for r < i.
    rows = np.arange(n - 1, dtype=np.int64)
    row_start = rows * (n - 1) - rows * (rows - 1) // 2
    hits = []
    for lo in range(0, total, _DRAW_CHUNK):
        draws = state.random_sample(min(_DRAW_CHUNK, total - lo))
        hits.append(np.flatnonzero(draws < p) + lo)
    flat = np.concatenate(hits)
    i = np.searchsorted(row_start, flat, side="right") - 1
    return i, flat - row_start[i] + i + 1


def gnp_csr(n: int, p: float, seed: int = 0, connected: bool = True) -> Csr:
    """Erdos-Renyi ``G(n, p)`` as a normalized CSR adjacency.

    The instance is the one the ``networkx`` route builds —
    ``nx.gnp_random_graph(n, p, seed)``, patched connected, relabelled by
    :func:`~repro.graphs.normalize.relabel_map` — sampled and assembled
    entirely in numpy.
    """
    if n <= 0:
        raise GraphError("n must be positive")
    src, dst = _gnp_pairs(n, p, seed)
    if connected:
        extra = connector_edges(n, src, dst, seed)
        if extra:
            pairs = np.array(extra, dtype=np.int64)
            src = np.concatenate((src, pairs[:, 0]))
            dst = np.concatenate((dst, pairs[:, 1]))
    rank = repr_rank(n)
    return edges_to_csr(n, rank[src], rank[dst])


def gnp_graph(n: int, p: float, seed: int = 0, connected: bool = True) -> nx.Graph:
    """Erdos-Renyi ``G(n, p)``; optionally patched to be connected.

    The ``networkx`` view of :func:`gnp_csr`.
    """
    return csr_graph(*gnp_csr(n, p, seed=seed, connected=connected))


def geometric_graph(
    n: int, radius: float | None = None, seed: int = 0, connected: bool = True
) -> nx.Graph:
    """Random geometric (unit-disk) graph: the sensor-network workload.

    ``radius`` defaults to the connectivity threshold
    ``sqrt(2 * ln(n) / (pi * n))`` so average degree stays ~logarithmic.
    """
    if n <= 0:
        raise GraphError("n must be positive")
    if radius is None:
        radius = math.sqrt(2.0 * math.log(max(2, n)) / (math.pi * n))
    graph = nx.random_geometric_graph(n, radius, seed=seed)
    if connected:
        edges = np.array(list(graph.edges()), dtype=np.int64).reshape(-1, 2)
        graph.add_edges_from(connector_edges(n, edges[:, 0], edges[:, 1], seed))
    return normalize_graph(graph)


def preferential_attachment_graph(n: int, m: int = 2, seed: int = 0) -> nx.Graph:
    """Barabasi-Albert preferential attachment: heavy-tailed degrees."""
    if n <= m:
        raise GraphError("n must exceed m")
    return normalize_graph(nx.barabasi_albert_graph(n, m, seed=seed))


def grid_graph(rows: int, cols: int) -> nx.Graph:
    """2D grid: the bounded-degree, large-diameter extreme."""
    return normalize_graph(nx.grid_2d_graph(rows, cols))


def ring_graph(n: int) -> nx.Graph:
    """Cycle on ``n`` nodes."""
    return normalize_graph(nx.cycle_graph(n))


def random_tree(n: int, seed: int = 0) -> nx.Graph:
    """Uniform random labelled tree (Pruefer sequence)."""
    if n <= 0:
        raise GraphError("n must be positive")
    if n <= 2:
        return normalize_graph(nx.path_graph(n))
    rng = random.Random(seed)
    prufer = [rng.randrange(n) for _ in range(n - 2)]
    return normalize_graph(nx.from_prufer_sequence(prufer))


def caterpillar_graph(spine: int, legs_per_node: int = 2) -> nx.Graph:
    """Caterpillar: a path spine with pendant legs.

    Its MDS is essentially the spine, a classic adversarial shape for greedy.
    """
    graph = nx.path_graph(spine)
    next_id = spine
    for v in range(spine):
        for _ in range(legs_per_node):
            graph.add_edge(v, next_id)
            next_id += 1
    return normalize_graph(graph)


def regular_graph(n: int, d: int, seed: int = 0) -> nx.Graph:
    """Random ``d``-regular graph."""
    if (n * d) % 2 != 0:
        raise GraphError("n*d must be even for a d-regular graph")
    return normalize_graph(nx.random_regular_graph(d, n, seed=seed))


def star_graph(n: int) -> nx.Graph:
    """Star with ``n`` leaves: MDS is a single node, Delta = n."""
    return normalize_graph(nx.star_graph(n))


def clique_graph(n: int) -> nx.Graph:
    """Complete graph: MDS is a single node, maximal density."""
    return normalize_graph(nx.complete_graph(n))


def dumbbell_graph(clique_size: int, path_length: int) -> nx.Graph:
    """Two cliques joined by a path: dense ends, sparse middle, a shape where
    the domination need is heterogeneous (good crossover probe)."""
    graph = nx.complete_graph(clique_size)
    offset = clique_size
    other = nx.complete_graph(clique_size)
    graph = nx.disjoint_union(graph, other)
    prev = 0
    next_id = 2 * clique_size
    for _ in range(path_length):
        graph.add_edge(prev, next_id)
        prev = next_id
        next_id += 1
    graph.add_edge(prev, offset)
    return normalize_graph(graph)
