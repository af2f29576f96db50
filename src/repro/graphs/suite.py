"""The named benchmark suite used by every experiment.

One place defines the (family, size) grid so all tables in
``benchmarks/`` sweep the same instances and rows are comparable across
experiments.
"""

from __future__ import annotations

from typing import Callable, Dict, Iterator, List, Optional, Sequence

import networkx as nx
import numpy as np

from repro.errors import GraphError
from repro.graphs import generators
from repro.graphs.csr import Csr, csr_graph


class SuiteInstance:
    """A named, reproducible benchmark graph.

    Array-native families are generated straight into their normalized CSR
    adjacency (``csr``, an ``(indptr, indices)`` pair) and build the
    ``networkx`` ``graph`` view on first access; every other family carries
    its graph and has ``csr = None``.
    """

    __slots__ = ("name", "family", "csr", "_graph")

    def __init__(
        self,
        name: str,
        family: str,
        graph: Optional[nx.Graph] = None,
        csr: Optional[Csr] = None,
    ):
        if (graph is None) == (csr is None):
            raise GraphError("a suite instance needs exactly one of graph or csr")
        self.name = name
        self.family = family
        self.csr = csr
        self._graph = graph

    @property
    def graph(self) -> nx.Graph:
        if self._graph is None:
            self._graph = csr_graph(*self.csr)
        return self._graph

    @property
    def n(self) -> int:
        if self.csr is not None:
            return len(self.csr[0]) - 1
        return self.graph.number_of_nodes()

    @property
    def max_degree(self) -> int:
        if self.csr is not None:
            return int(np.diff(self.csr[0]).max())
        return max((d for _, d in self.graph.degree()), default=0)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"SuiteInstance({self.name}, n={self.n}, Delta={self.max_degree})"


#: Families sampled array-native, straight into normalized CSR.
_CSR_BUILDERS: Dict[str, Callable[[int, int], Csr]] = {
    "gnp": lambda n, seed: generators.gnp_csr(n, p=min(0.5, 4.0 / n), seed=seed),
    "gnp-dense": lambda n, seed: generators.gnp_csr(
        n, p=min(0.8, 12.0 / n), seed=seed
    ),
}

_FAMILY_BUILDERS: Dict[str, Callable[[int, int], nx.Graph]] = {
    "geometric": lambda n, seed: generators.geometric_graph(n, seed=seed),
    "ba": lambda n, seed: generators.preferential_attachment_graph(n, m=3, seed=seed),
    "grid": lambda n, seed: generators.grid_graph(
        max(2, int(round(n ** 0.5))), max(2, int(round(n ** 0.5)))
    ),
    "tree": lambda n, seed: generators.random_tree(n, seed=seed),
    "caterpillar": lambda n, seed: generators.caterpillar_graph(
        max(2, n // 4), legs_per_node=3
    ),
    "regular": lambda n, seed: generators.regular_graph(
        n if n % 2 == 0 else n + 1, d=6, seed=seed
    ),
}


def families() -> List[str]:
    """Names of all suite families."""
    return sorted([*_CSR_BUILDERS, *_FAMILY_BUILDERS])


def suite_instance(family: str, n: int, seed: int = 0) -> SuiteInstance:
    """Build one reproducible suite instance."""
    name = f"{family}-{n}"
    if family in _CSR_BUILDERS:
        return SuiteInstance(name, family, csr=_CSR_BUILDERS[family](n, seed))
    if family not in _FAMILY_BUILDERS:
        raise GraphError(
            f"unknown family {family!r}; known: {', '.join(families())}"
        )
    return SuiteInstance(name, family, graph=_FAMILY_BUILDERS[family](n, seed))


def benchmark_suite(
    sizes: Sequence[int] = (60, 120, 240),
    families_subset: Sequence[str] | None = None,
    seed: int = 7,
) -> Iterator[SuiteInstance]:
    """Yield the standard sweep: every family at every size.

    Families whose builders round ``n`` (grids, regular graphs) may differ
    slightly from the requested size; the instance name reports the request
    and ``instance.n`` the truth.
    """
    chosen = list(families_subset) if families_subset else families()
    for family in chosen:
        for n in sizes:
            yield suite_instance(family, n, seed=seed)
