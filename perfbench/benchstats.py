"""Statistics helpers shared by the orchestrator and the workload process.

Standard library only: the orchestrator (``run.py``) must be able to start,
and refuse cleanly, in a directory that holds no ``src/repro``.
"""

from __future__ import annotations

import hashlib
import json
import statistics
from typing import Dict, Iterable, List, Mapping, Sequence, Tuple

#: The simulated statistics that enter the output digest.  They are exact
#: counts produced by the simulator, so a change that only speeds the
#: program up must leave the digest identical for the same seed.
STAT_FIELDS = ("rounds", "total_messages", "total_bits", "ds_size", "colors", "joined")


def quartiles(values: Sequence[float]) -> Tuple[float, float, float]:
    """``(q1, median, q3)`` as ``statistics.quantiles(n=4)`` gives them."""
    values = [float(v) for v in values]
    if not values:
        raise ValueError("no samples")
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def percentile(values: Sequence[float], pct: int) -> float:
    """The ``pct``-th percentile (1..99) by ``statistics.quantiles(n=100)``."""
    values = [float(v) for v in values]
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100)[pct - 1]


def metric(values: Sequence[float], unit: str) -> Dict[str, object]:
    """A reported metric: the median with its quartiles and sample count."""
    if len(values) == 1:  # keeps an exact count an integer
        return {"value": values[0], "unit": unit, "q1": values[0], "q3": values[0], "n": 1}
    q1, med, q3 = quartiles(values)
    return {"value": med, "unit": unit, "q1": q1, "q3": q3, "n": len(values)}


def stat_row(key: str, metrics: Mapping[str, object]) -> List[object]:
    """One digest row: the cell key and its simulated statistics."""
    return [key] + [metrics.get(field) for field in STAT_FIELDS]


def stats_digest(rows: Iterable[Sequence[object]]) -> str:
    """Order-independent SHA-256 over digest rows."""
    encoded = sorted(json.dumps(list(row), sort_keys=True) for row in rows)
    return hashlib.sha256("\n".join(encoded).encode()).hexdigest()
