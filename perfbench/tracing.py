"""In-memory spans recorded around calls into ``repro``'s public functions.

The benchmark never instruments the program itself: every span wraps a
call the benchmark makes (``suite_instance``, ``Network.congest``,
``ProgramSpec.run``, ``run_batched_group``, ``RunRecord.to_dict`` /
``from_dict``, ``ServiceClient.submit`` / ``stream`` / ``stats``).  Spans
stay in memory while the run is timed and are written out once at the end.

A span's *self time* is its duration minus the time its child spans cover;
summing self time per layer attributes a pass's wall to the layers.
"""

from __future__ import annotations

import itertools
import json
import threading
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import asdict, dataclass
from time import perf_counter
from typing import Dict, Iterator, List, Optional


@dataclass
class Span:
    id: int
    parent: Optional[int]
    trace: int  # the root span's id; every span of one pass or request shares it
    name: str
    layer: str
    start: float
    end: float = 0.0

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Collects spans from any number of threads (each keeps its own stack)."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self._ids = itertools.count(1)
        self._lock = threading.Lock()
        self._local = threading.local()

    def _stack(self) -> List[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def span(self, name: str, layer: str, parent: Optional[Span] = None) -> Iterator[Span]:
        """Time the block; ``parent`` links a span opened on another thread."""
        stack = self._stack()
        if parent is None and stack:
            parent = stack[-1]
        with self._lock:
            span_id = next(self._ids)
        span = Span(
            id=span_id,
            parent=parent.id if parent else None,
            trace=parent.trace if parent else span_id,
            name=name,
            layer=layer,
            start=perf_counter(),
        )
        stack.append(span)
        try:
            yield span
        finally:
            span.end = perf_counter()
            stack.pop()
            with self._lock:
                self.spans.append(span)

    def in_trace(self, trace: int) -> List[Span]:
        with self._lock:
            return [s for s in self.spans if s.trace == trace]

    @staticmethod
    def self_times(spans: List[Span]) -> Dict[str, float]:
        """Self time summed per layer."""
        covered: Dict[int, float] = defaultdict(float)
        for span in spans:
            if span.parent is not None:
                covered[span.parent] += span.duration
        by_layer: Dict[str, float] = defaultdict(float)
        for span in spans:
            by_layer[span.layer] += span.duration - covered[span.id]
        return dict(by_layer)

    @staticmethod
    def counts(spans: List[Span]) -> Dict[str, int]:
        """Number of spans per name."""
        counts: Dict[str, int] = defaultdict(int)
        for span in spans:
            counts[span.name] += 1
        return dict(counts)

    def write(self, path: str) -> None:
        with self._lock:
            rows = [asdict(s) for s in self.spans]
        with open(path, "w") as fh:
            json.dump({"spans": rows}, fh)
