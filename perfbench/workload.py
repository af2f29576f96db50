"""One workload generator process of the perfbench benchmark.

``run.py`` starts this script with a pinned environment and reads two
protocol lines from its standard output:

* ``PERFBENCH READY {...}`` once set-up is done (the orchestrator timestamps
  it: interpreter start to this line is one ``setup_s`` sample);
* ``PERFBENCH RESULT {...}`` with the measured metrics and output checks.

Usage (normally via ``run.py``)::

    PYTHONPATH=src python3 perfbench/workload.py --workload sweep-gnp \
        --seed 1 --seconds 36 --trace 0 --mode run

``--mode setup`` stops after the ready line.  Every workload runs as
repeated *equal passes* over inputs generated from ``--seed``; end-to-end
figures come from the untraced passes, per-layer figures from the traced
ones (``--trace 1`` alternates untraced and traced passes).  See
``DESIGN.md`` for why each workload exists and what each metric moves.
"""

from __future__ import annotations

import argparse
import itertools
import json
import random
import resource
import signal
import statistics
import subprocess
import sys
import threading
import time
from collections import defaultdict
from contextlib import nullcontext
from dataclasses import asdict, dataclass, field
from time import perf_counter
from typing import Dict, List, Optional

from benchstats import metric, percentile, stat_row, stats_digest
from hostspeed import CALIBRATION_SHARE, HostSpeed, ScaledClock
from tracing import Tracer

KERNELS = ("greedy", "color-reduction", "lemma310", "rounding-exec")
ENGINE = "vector"
READY = "PERFBENCH READY"
RESULT = "PERFBENCH RESULT"
#: Untraced passes always run; ``--trace 1`` adds as many traced ones.
MIN_PASSES = 3
#: Greedy records re-run outside the timed phase and checked for domination.
GREEDY_SAMPLE = 6
#: Passes whose records enter the printed digest.
DIGEST_PASSES = 2
#: Sizes of the per-kernel engine metrics (the solo-kernels ladder).
SOLO_SIZES = (60, 1000, 5000)

#: Simulator counts: a change that only speeds the program up leaves them equal.
EXACT_COUNTS = ("engine.rounds", "engine.messages", "engine.bits")

#: Every per-layer metric and its unit; names not on a workload's path are
#: reported as 0 (that layer does no work there).
PER_LAYER_UNITS: Dict[str, str] = {
    "graphs.topology_s": "s",
    "graphs.calls": "count",
    "network.compile_s": "s",
    "engine.sim_s": "s",
    "engine.us_per_round": "us",
    **{
        f"engine.{kernel}.n{n}.sim_s": "s"
        for kernel in KERNELS
        for n in SOLO_SIZES
    },
    "engine.rounds": "count",
    "engine.messages": "count",
    "engine.bits": "count",
    "runner.overhead_s": "s",
    "runner.stacked_share": "ratio",
    "api.record_roundtrip_s": "s",
    "service.server_latency_p50_s": "s",
    "service.transport_p50_s": "s",
    "service.windows": "count",
    "service.coalesced_share": "ratio",
    "service.cache_hit_ratio": "ratio",
    "service.topology_cache_hit_ratio": "ratio",
    "service.mean_stack_width": "count",
    "trace.overhead_share": "ratio",
    "host.unit_s": "s",
}


def emit(tag: str, payload: Dict[str, object]) -> None:
    sys.stdout.write(f"{tag} {json.dumps(payload)}\n")
    sys.stdout.flush()


def log(message: str) -> None:
    print(f"[perfbench] {message}", file=sys.stderr, flush=True)


def import_repro(service: bool) -> float:
    """Import the layers the workload calls; returns the seconds it took."""
    start = perf_counter()
    import repro.api  # noqa: F401
    import repro.experiments.runner  # noqa: F401

    if service:
        import repro.service.client  # noqa: F401
    return perf_counter() - start


@dataclass
class PassResult:
    """What one pass produced, in the legacy record-dict shape.

    Untraced passes give ``wall``, ``arrivals``, ``latencies`` and
    ``firsts`` at reference host speed (``hostspeed``); ``raw_wall`` is as
    measured, for the per-layer figures.
    """

    wall: float
    expected: int
    records: List[Dict[str, object]]
    arrivals: List[float] = field(default_factory=list)  # pass start -> receipt
    latencies: List[float] = field(default_factory=list)  # submit -> receipt
    firsts: List[float] = field(default_factory=list)  # submit -> first record
    raw_wall: float = 0.0
    failed: int = 0  # refused, timed-out or missing cells
    sim_s: float = 0.0  # Σ record ``wall_s`` of the cells simulated in this pass
    traced: bool = False
    layers: Dict[str, float] = field(default_factory=dict)


def core_layers(spans, records, engine_s: Optional[float] = None) -> Dict[str, float]:
    """Graphs/network/engine attribution of one traced pass."""
    self_time = Tracer.self_times(spans)
    counts = Tracer.counts(spans)
    ok = [r["metrics"] for r in records if r.get("ok")]
    rounds = sum(int(m.get("rounds", 0)) for m in ok)
    engine = self_time.get("engine", 0.0) if engine_s is None else engine_s
    return {
        "graphs.topology_s": self_time.get("graphs", 0.0),
        "graphs.calls": counts.get("suite_instance", 0),
        "network.compile_s": self_time.get("network", 0.0),
        "engine.sim_s": engine,
        "engine.us_per_round": engine / rounds * 1e6 if rounds else 0.0,
        "engine.rounds": rounds,
        "engine.messages": sum(int(m.get("total_messages", 0)) for m in ok),
        "engine.bits": sum(int(m.get("total_bits", 0)) for m in ok),
    }


class Workload:
    """Base: a fixed pass of cells derived from the seed, run repeatedly."""

    name = ""
    #: Whether every pass runs the identical cells (so digests must agree).
    equal_passes = True
    #: Whether the runner's plan stacks this workload's cells.
    stacks = False

    def __init__(self, seed: int, tracer: Optional[Tracer]):
        self.tracer = tracer
        self.rng = random.Random(seed)
        self.speed = HostSpeed()

    def boot(self) -> None:
        """Work that starts before this process imports ``repro``."""

    def setup(self) -> None:
        raise NotImplementedError

    def run_pass(self, traced: bool) -> PassResult:
        raise NotImplementedError

    def extra_layers(self) -> Dict[str, float]:
        """Run-level per-layer metrics (trace mode, outside the timed phase)."""
        return {}

    def median_pass(self, passes: List[PassResult]) -> MedianPass:
        return assemble_median_pass(passes)

    def peak_rss_mb(self) -> float:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    def close(self) -> None:
        pass

    # -- shared helpers ---------------------------------------------------------

    def _stream_pass(self, requests, expected: int) -> PassResult:
        """Consume ``Experiment.stream()`` of each request in turn.

        Each request runs on a ``ScaledClock``: calibration units run off
        the clock between records, and the pass's clock advances by the
        scaled laps.
        """
        result = PassResult(wall=0.0, expected=expected, records=[])
        records = []
        for experiment in requests:
            clock = ScaledClock(self.speed)
            for record in experiment.stream():
                clock.lap()
                records.append(record)
            clock.close()
            offsets = list(itertools.accumulate(clock.scaled))[:-1]
            result.firsts.extend(offsets[:1])
            result.latencies.extend(offsets)
            result.arrivals.extend(result.wall + x for x in offsets)
            result.wall += sum(clock.scaled)
            result.raw_wall += sum(clock.raw)
        result.records = [r.to_dict() for r in records]
        result.failed = expected - len(records)
        result.sim_s = sum(r.wall_s or 0.0 for r in records)
        return result

    def _network(self, cell):
        """Generate and compile one topology under graphs/network spans."""
        from repro.congest.network import Network
        from repro.graphs.suite import suite_instance

        with self.tracer.span("suite_instance", "graphs"):
            instance = suite_instance(cell.family, cell.n, seed=cell.seed)
        with self.tracer.span("Network.congest", "network"):
            return Network.congest(instance.graph)


class SweepGnp(Workload):
    """Greedy MDS on gnp n=400 over many seeds, batched in-process."""

    name = "sweep-gnp"
    stacks = True
    SEEDS = 50
    N = 400

    def setup(self) -> None:
        from repro.api import Experiment

        seeds = sorted(self.rng.sample(range(1, 10**6), self.SEEDS))
        self.experiment = (
            Experiment("greedy").on("gnp").sizes(self.N).seeds(seeds)
            .engine(ENGINE).strategy("batch")
        )
        self.cells = self.experiment.cells()

    def run_pass(self, traced: bool) -> PassResult:
        if not traced:
            return self._stream_pass([self.experiment], len(self.cells))
        from repro.experiments.runner import run_batched_group

        with self.tracer.span("pass", "bench") as root:
            networks = [self._network(cell) for cell in self.cells]
            with self.tracer.span("run_batched_group", "engine"):
                records = run_batched_group(self.cells, networks=networks)
        layers = core_layers(self.tracer.in_trace(root.trace), records)
        return PassResult(
            wall=root.duration, raw_wall=root.duration, expected=len(self.cells),
            records=records, traced=True, layers=layers,
        )


class SoloKernels(Workload):
    """Per-cell vector runs of the four kernels at n in {60, 1000, 5000}."""

    name = "solo-kernels"

    def setup(self) -> None:
        from repro.api import Experiment

        seed = self.rng.randrange(1, 10**6)
        # One request per topology: the four kernels on one (family, n).
        self.requests = [
            Experiment(*KERNELS).on(family).sizes(n).seeds([seed])
            .engine(ENGINE).strategy("cell")
            for family in ("regular", "ba")
            for n in SOLO_SIZES
        ]
        self.cells = [cell for request in self.requests for cell in request.cells()]

    def run_pass(self, traced: bool) -> PassResult:
        if not traced:
            return self._stream_pass(self.requests, len(self.cells))
        from repro.api import program_spec

        networks: Dict[tuple, object] = {}
        per_kernel: Dict[str, float] = defaultdict(float)
        records = []
        with self.tracer.span("pass", "bench") as root:
            for cell in self.cells:
                # The runner generates each topology once per request; so do we.
                if cell.topology_key not in networks:
                    networks[cell.topology_key] = self._network(cell)
                network = networks[cell.topology_key]
                spec = program_spec(cell.program)
                try:
                    with self.tracer.span("ProgramSpec.run", "engine") as span:
                        outcome = spec.run(network, cell.engine)
                    metrics = spec.cell_metrics(network, outcome)
                except Exception as exc:  # noqa: BLE001 - recorded as a failure
                    records.append({"key": cell.key, "ok": False, "error": repr(exc)})
                    continue
                per_kernel[f"engine.{cell.program}.n{cell.n}.sim_s"] += span.duration
                records.append(
                    {"cell": asdict(cell), "key": cell.key, "ok": True,
                     "wall_s": span.duration, "metrics": metrics}
                )
        layers = core_layers(self.tracer.in_trace(root.trace), records)
        layers.update(per_kernel)
        return PassResult(
            wall=root.duration, raw_wall=root.duration, expected=len(self.cells),
            records=records, traced=True, layers=layers,
        )


@dataclass
class TenantPass:
    """One tenant's share of a service pass (written by its thread only)."""

    records: List[Dict[str, object]] = field(default_factory=list)
    latencies: List[float] = field(default_factory=list)
    firsts: List[float] = field(default_factory=list)
    metas: List[Dict[str, object]] = field(default_factory=list)
    roundtrips: List[float] = field(default_factory=list)
    expected: int = 0
    failed: int = 0


class ServiceTenants(Workload):
    """Two closed-loop TCP tenants against a ``repro serve`` subprocess."""

    name = "service-tenants"
    equal_passes = False  # fresh cells get fresh seeds every pass
    TENANTS = 2
    FAMILIES = ("gnp", "regular", "ba")
    FRESH_SIZES = (200, 400, 800)
    HOT_N = 200
    PAIRS = (("greedy", "color-reduction"), ("lemma310", "rounding-exec"))
    #: Requests per tenant per pass: every (size rotation, program pair).
    TEMPLATES = 6
    BARRIER_TIMEOUT_S = 150.0
    #: ``repro serve``'s default ``--window``: every request waits for one
    #: window deadline, a timer that host speed does not stretch.
    WINDOW_S = 0.05
    CLOSE_GRACE_S = 0.5

    def __init__(self, seed: int, tracer: Optional[Tracer]):
        super().__init__(seed, tracer)
        self.hot_seeds = self.rng.sample(range(1, 10**6), len(KERNELS) * len(self.FAMILIES))
        self.fresh_base = 10**6 + self.rng.randrange(10**9)
        self.server: Optional[subprocess.Popen] = None
        self.clients: list = []
        self.threads: List[threading.Thread] = []
        self.pass_index = 0
        self.traced = False
        self.stopping = False
        self.slots: List[TenantPass] = []
        self.pass_span = None
        self.start_gate = threading.Barrier(self.TENANTS + 1)
        self.end_gate = threading.Barrier(self.TENANTS + 1)

    def boot(self) -> None:
        # Started first so the server's imports overlap this process's own.
        self.server = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--port", "0"],
            stdout=subprocess.PIPE,
            text=True,
        )

    def setup(self) -> None:
        from repro.experiments.runner import GridCell
        from repro.service.client import ServiceClient

        line = self.server.stdout.readline()
        if "listening on" not in line:
            raise RuntimeError(f"service did not announce itself: {line!r}")
        host, port = line.rsplit(" ", 1)[1].strip().rsplit(":", 1)
        self.hot = [
            GridCell(family, self.HOT_N, program, ENGINE, seed)
            for (family, program), seed in zip(
                [(f, p) for f in self.FAMILIES for p in KERNELS], self.hot_seeds
            )
        ]
        for i in range(self.TENANTS):
            self.clients.append(ServiceClient(host, int(port), client=f"tenant-{i}"))
        warm = self.clients[0].run(self.hot)
        if not all(record.get("ok") for record in warm):
            raise RuntimeError("hot-set warm-up returned a failed record")
        for i in range(self.TENANTS):
            thread = threading.Thread(target=self._tenant, args=(i,), daemon=True)
            thread.start()
            self.threads.append(thread)

    def request(self, tenant: int, pass_index: int, j: int):
        """Request ``j`` of a tenant's pass: 2 hot cells + 6 fresh ones."""
        from repro.experiments.runner import GridCell

        rotation = j % 3
        sizes = self.FRESH_SIZES[rotation:] + self.FRESH_SIZES[:rotation]
        cells = [self.hot[(2 * j) % len(self.hot)], self.hot[(2 * j + 1) % len(self.hot)]]
        for f, (family, n) in enumerate(zip(self.FAMILIES, sizes)):
            ordinal = ((pass_index * self.TENANTS + tenant) * self.TEMPLATES + j) * 3 + f
            for program in self.PAIRS[j // 3]:
                cells.append(GridCell(family, n, program, ENGINE, self.fresh_base + ordinal))
        return cells

    def _tenant(self, i: int) -> None:
        from threading import BrokenBarrierError

        client = self.clients[i]
        while True:
            try:
                self.start_gate.wait(self.BARRIER_TIMEOUT_S)
            except BrokenBarrierError:
                return
            if self.stopping:
                return
            slot = self.slots[i]
            for j in range(self.TEMPLATES):
                self._one_request(client, self.request(i, self.pass_index, j), slot)
            try:
                self.end_gate.wait(self.BARRIER_TIMEOUT_S)
            except BrokenBarrierError:
                return

    def _one_request(self, client, cells, slot: TenantPass) -> None:
        from repro.errors import ServiceError

        slot.expected += len(cells)
        seen = set()
        submitted = perf_counter()
        try:
            if self.traced:
                frames = self._traced_frames(client, cells, slot)
            else:
                frames = client.stream(cells)
            for index, record, meta in frames:
                now = perf_counter()
                if not seen:
                    slot.firsts.append(now - submitted)
                seen.add(index)
                slot.latencies.append(now - submitted)
                slot.records.append(record)
                slot.metas.append(meta)
        except (ServiceError, OSError) as exc:
            log(f"request failed: {exc!r}")
        slot.failed += len(cells) - len(seen)

    def _traced_frames(self, client, cells, slot: TenantPass):
        """``ServiceClient.submit`` then the raw frame stream, under spans."""
        from repro.api import RunRecord
        from repro.service.client import RemoteServiceError

        tracer = self.tracer
        with tracer.span("request", "bench", parent=self.pass_span):
            with tracer.span("ServiceClient.submit", "client"):
                request_id = client.submit(cells)
            with tracer.span("ServiceClient.stream", "client"):
                for frame in client.events():
                    if frame.get("id") != request_id:
                        continue
                    if frame.get("type") == "done":
                        return
                    if frame.get("type") == "error":
                        raise RemoteServiceError(dict(frame.get("error") or {}))
                    record = dict(frame["record"])
                    with tracer.span("RunRecord.roundtrip", "api") as span:
                        RunRecord.from_dict(record).to_dict()
                    slot.roundtrips.append(span.duration)
                    yield int(frame["index"]), record, dict(frame.get("meta") or {})

    def _stats(self) -> Dict[str, object]:
        # Both tenants are parked on a gate here, so their connection is idle.
        with self.tracer.span("ServiceClient.stats", "client"):
            return self.clients[0].stats()

    def run_pass(self, traced: bool) -> PassResult:
        self.traced = traced
        self.slots = [TenantPass() for _ in range(self.TENANTS)]
        before = self._stats() if traced else None
        block = self.speed.last()
        with self.tracer.span("pass", "bench") if traced else nullcontext() as root:
            self.pass_span = root
            self.start_gate.wait(self.BARRIER_TIMEOUT_S)
            start = perf_counter()
            self.end_gate.wait(self.BARRIER_TIMEOUT_S)
            wall = perf_counter() - start
        self.pass_index += 1
        # Tenants are parked on the start gate, so the units run alone.
        self.speed.after(wall)
        k = 1.0 if traced else self.speed.factor(block)

        def scaled(seconds: float, windows: int = 1) -> float:
            """Host work at reference speed; the window timers as they ran."""
            timers = windows * self.WINDOW_S
            return timers + k * (seconds - timers)

        slots = self.slots
        result = PassResult(
            # Each tenant's requests run one after another.
            wall=scaled(wall, windows=self.TEMPLATES),
            raw_wall=wall,
            expected=sum(s.expected for s in slots),
            records=[r for s in slots for r in s.records],
            latencies=[scaled(x) for s in slots for x in s.latencies],
            firsts=[scaled(x) for s in slots for x in s.firsts],
            failed=sum(s.failed for s in slots),
            sim_s=sum(
                float(r.get("wall_s") or 0.0)
                for s in slots
                for r, m in zip(s.records, s.metas)
                if not m.get("cache_hit")
            ),
            traced=traced,
        )
        if traced:
            result.layers = self._service_layers(before, self._stats(), slots)
        return result

    def _service_layers(self, before, after, slots) -> Dict[str, float]:
        def delta(*path):
            a, b = before, after
            for key in path:
                a, b = a.get(key, {}), b.get(key, {})
            return float(b or 0) - float(a or 0)

        records = [r for s in slots for r in s.records]
        counts = core_layers([], records)
        metas = [m for s in slots for m in s.metas]
        latencies = [x for s in slots for x in s.latencies]
        server = [float(m.get("latency_s", 0.0)) for m in metas]
        widths = [int(m.get("stack_width", 1)) for m in metas if not m.get("cache_hit")]
        windows = delta("windows")
        hits, misses = delta("result_cache", "hits"), delta("result_cache", "misses")
        t_hits, t_misses = delta("topology_cache", "hits"), delta("topology_cache", "misses")
        return {
            "api.record_roundtrip_s": statistics.median(
                [x for s in slots for x in s.roundtrips] or [0.0]
            ),
            "service.server_latency_p50_s": statistics.median(server or [0.0]),
            "service.transport_p50_s": statistics.median(
                [c - s for c, s in zip(latencies, server)] or [0.0]
            ),
            "service.windows": windows,
            "service.coalesced_share": delta("coalesced_windows") / windows if windows else 0.0,
            "service.cache_hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
            "service.topology_cache_hit_ratio": (
                t_hits / (t_hits + t_misses) if t_hits + t_misses else 0.0
            ),
            "service.mean_stack_width": statistics.mean(widths) if widths else 0.0,
            "runner.stacked_share": (
                sum(1 for w in widths if w > 1) / len(widths) if widths else 0.0
            ),
            **{key: counts[key] for key in EXACT_COUNTS},
        }

    def extra_layers(self) -> Dict[str, float]:
        """Replay one pass's fresh cells in-process, per cell, under spans.

        The server's own layers run in another process; this attributes the
        compute its fresh cells need to graphs, network and engine.
        """
        from repro.api import program_spec

        cells = [
            cell
            for tenant in range(self.TENANTS)
            for j in range(self.TEMPLATES)
            for cell in self.request(tenant, 0, j)[2:]
        ]
        networks: Dict[tuple, object] = {}
        records = []
        with self.tracer.span("replay", "bench") as root:
            for cell in cells:
                if cell.topology_key not in networks:
                    networks[cell.topology_key] = self._network(cell)
                spec = program_spec(cell.program)
                network = networks[cell.topology_key]
                with self.tracer.span("ProgramSpec.run", "engine"):
                    outcome = spec.run(network, cell.engine)
                records.append({"ok": True, "metrics": spec.cell_metrics(network, outcome)})
        layers = core_layers(self.tracer.in_trace(root.trace), records)
        keep = ("graphs.topology_s", "graphs.calls", "network.compile_s", "engine.sim_s",
                "engine.us_per_round")
        return {k: layers[k] for k in keep}

    def median_pass(self, passes: List[PassResult]) -> MedianPass:
        """Requests line up across passes, records do not.

        Two tenants' records interleave in varying order, so the wall is the
        median of whole passes and latencies are pooled over passes; the
        k-th request of every pass has the same template, so first records
        are still taken request by request.
        """
        return MedianPass(
            wall=statistics.median(p.wall for p in passes),
            latencies=[x for p in passes for x in p.latencies],
            firsts=positionwise([p.firsts for p in passes]),
        )

    def peak_rss_mb(self) -> float:
        """The server's high-water mark, from ``/proc`` (Linux)."""
        with open(f"/proc/{self.server.pid}/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise RuntimeError("VmHWM missing from /proc status")

    def close(self) -> None:
        self.stopping = True
        self.start_gate.abort()
        self.end_gate.abort()
        for thread in self.threads:
            thread.join(timeout=30)
        for client in self.clients:
            try:
                client.close()
            except OSError:
                pass
        if self.server is not None and self.server.poll() is None:
            # Let the server finish closing the tenant connections first.
            time.sleep(self.CLOSE_GRACE_S)
            # SIGINT, as a user's Ctrl-C: the server unlinks its
            # shared-memory topology segments on this path.
            self.server.send_signal(signal.SIGINT)
            try:
                self.server.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.server.kill()
                self.server.wait()
                raise RuntimeError("service did not stop on SIGINT")
        if self.server is not None:
            self.server.stdout.close()
            if self.server.returncode != 0:
                raise RuntimeError(f"service exited with {self.server.returncode}")


WORKLOADS = {cls.name: cls for cls in (SweepGnp, SoloKernels, ServiceTenants)}


def timed_phase(workload: Workload, seconds: float, trace: bool) -> List[PassResult]:
    """Equal passes until the next one would overrun ``seconds``.

    Calibration units run first and then between records (in-process
    workloads, see ``ScaledClock``) or after every pass (the service), in
    proportion to the time just measured.  With tracing on, untraced and traced passes alternate so the
    tracing overhead is measured under the same conditions.
    """
    passes: List[PassResult] = []
    start = perf_counter()
    floor = MIN_PASSES * (2 if trace else 1)
    workload.speed.sample(0.0)
    while True:
        traced = trace and len(passes) % 2 == 1
        block = workload.speed.last()
        passes.append(workload.run_pass(traced))
        if workload.speed.last() == block:  # an in-process replay calibrates here
            workload.speed.after(passes[-1].raw_wall)
        typical = statistics.median(p.raw_wall for p in passes) * (1 + CALIBRATION_SHARE)
        if len(passes) >= floor and perf_counter() - start + typical > seconds:
            return passes


def check_greedy(records: List[Dict[str, object]]) -> int:
    """Re-run a sample of greedy cells and check each set dominates.

    Returns the number of failed checks (invalid set, or a set size that
    differs from the record's ``ds_size``).
    """
    from repro.analysis.verify import is_dominating_set
    from repro.api import program_spec
    from repro.congest.network import Network
    from repro.graphs.suite import suite_instance

    failed = 0
    for record in records:
        cell = record["cell"]
        instance = suite_instance(cell["family"], cell["n"], seed=cell["seed"])
        sim = program_spec("greedy").run(Network.congest(instance.graph), cell["engine"])
        chosen = {v for v, joined in sim.output_map("in_ds").items() if joined}
        if not is_dominating_set(instance.graph, chosen):
            log(f"{record['key']}: greedy set does not dominate")
            failed += 1
        elif len(chosen) != record["metrics"]["ds_size"]:
            log(f"{record['key']}: ds_size {record['metrics']['ds_size']} != {len(chosen)}")
            failed += 1
    return failed


def greedy_sample(records: List[Dict[str, object]]) -> List[Dict[str, object]]:
    greedy = sorted(
        (r for r in records if r.get("ok") and r["cell"]["program"] == "greedy"),
        key=lambda r: r["key"],
    )
    step = max(1, len(greedy) // GREEDY_SAMPLE)
    return greedy[::step][:GREEDY_SAMPLE]


def positionwise(series: List[List[float]]) -> List[float]:
    """Median over passes of the k-th value, for every k all passes have."""
    return [
        statistics.median(values[k] for values in series)
        for k in range(min(map(len, series)))
    ]


@dataclass
class MedianPass:
    """The median pass of a run: its wall, record latencies and first records."""

    wall: float
    latencies: List[float]
    firsts: List[float]


def assemble_median_pass(passes: List[PassResult]) -> MedianPass:
    """The median pass, assembled record by record.

    The k-th record of every pass arrives some gap after the (k-1)-th; the
    sum over k of the median gap is the wall of a pass made of median
    steps, and the k-th record's latency (and the k-th request's first
    record) is likewise the median over passes.  A slow spell on the host
    then costs only the steps it covered, in the pass it hit, instead of
    shifting whole passes.
    """
    gaps = []
    for p in passes:
        arrivals = sorted(p.arrivals)
        gaps.append([b - a for a, b in zip([0.0] + arrivals, arrivals)])
    return MedianPass(
        wall=sum(positionwise(gaps)),
        latencies=positionwise([p.latencies for p in passes]),
        firsts=positionwise([p.firsts for p in passes]),
    )


def evaluate(
    workload: Workload, passes: List[PassResult], trace: bool, peak_rss_mb: float
) -> Dict[str, object]:
    """Output checks, end-to-end metrics (untraced passes) and per-layer ones.

    End-to-end durations are at reference host speed (``hostspeed``);
    per-layer ones are as measured on this host.
    """
    speed = workload.speed
    attempted = failed = 0
    digests = []
    for p in passes:
        attempted += p.expected
        failed += p.failed + sum(1 for r in p.records if not r.get("ok"))
        digests.append(stats_digest(stat_row(r["key"], r.get("metrics") or {}) for r in p.records))
    if workload.equal_passes:
        mismatched = sum(1 for d in digests if d != digests[0])
        if mismatched:
            log(f"{mismatched} pass(es) differ from the first pass's statistics")
        failed += mismatched
    digest = stats_digest(
        stat_row(r["key"], r.get("metrics") or {})
        for p in passes[:DIGEST_PASSES]
        for r in p.records
    )
    sample = greedy_sample(passes[0].records)
    attempted += len(sample)
    failed += check_greedy(sample)

    plain = [p for p in passes if not p.traced]
    cells = plain[0].expected
    median = workload.median_pass(plain)
    samples = sum(len(p.latencies) for p in plain)
    result: Dict[str, object] = {
        "attempted": attempted,
        "failed": failed,
        "digest": digest,
        "passes": len(plain),
        "cells_per_pass": cells,
        "pass_walls": [p.raw_wall for p in plain],
        "median_wall": median.wall,
        "host_unit_s": speed.unit_s(),
        "host_units": len(speed.samples),
        "host_blocks": speed.blocks[:1],
    }
    if not trace:
        # Values come from the median pass; quartiles from the single passes.
        def summary(value: float, per_pass: List[float], unit: str, n: int):
            return dict(metric(per_pass, unit), value=value, n=n)

        result["metrics"] = {
            "cells_per_s": summary(
                cells / median.wall, [cells / p.wall for p in plain], "1/s", len(plain),
            ),
            "first_record_s": summary(
                statistics.mean(median.firsts),
                [statistics.mean(p.firsts) for p in plain], "s",
                sum(len(p.firsts) for p in plain),
            ),
            "latency_p50_s": summary(
                percentile(median.latencies, 50),
                [percentile(p.latencies, 50) for p in plain], "s", samples,
            ),
            "latency_p90_s": summary(
                percentile(median.latencies, 90),
                [percentile(p.latencies, 90) for p in plain], "s", samples,
            ),
            "peak_rss_mb": metric([peak_rss_mb], "MB"),
        }
        return result

    traced = [p for p in passes if p.traced]
    # Per-pass samples of each layer metric; run-level ones have one sample.
    samples: Dict[str, List[float]] = {name: [0.0] for name in PER_LAYER_UNITS}
    for key in {k for p in traced for k in p.layers}:
        samples[key] = [p.layers[key] for p in traced if key in p.layers]
    # Exact counts come from one fixed pass, so they repeat digit for digit.
    for key in EXACT_COUNTS:
        samples[key] = [traced[0].layers.get(key, 0)]
    for key, value in workload.extra_layers().items():
        samples[key] = [value]
    # Traced passes stream nothing record by record, so whole passes compare.
    untraced_wall = statistics.median(p.raw_wall for p in plain)
    traced_wall = statistics.median(p.raw_wall for p in traced)
    # Simulation wall as the runner measured it in the untraced passes
    # themselves, so engine noise cancels.
    samples["runner.overhead_s"] = [
        p.raw_wall - p.sim_s
        - statistics.median(samples["graphs.topology_s"])
        - statistics.median(samples["network.compile_s"])
        for p in plain
    ]
    if workload.stacks:
        # A silent fallback to per-cell runs leaves no ``batch`` block.
        samples["runner.stacked_share"] = [
            sum(1 for r in p.records if r.get("batch")) / len(p.records) if p.records else 0.0
            for p in plain
        ]
    samples["trace.overhead_share"] = [traced_wall / untraced_wall - 1.0]
    samples["host.unit_s"] = speed.samples
    result["layers"] = {
        name: metric(values, PER_LAYER_UNITS[name]) for name, values in samples.items()
    }
    result["trace_walls"] = {"untraced_s": untraced_wall, "traced_s": traced_wall}
    return result


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--mode", choices=("setup", "run"), default="run")
    parser.add_argument("--trace-out", default="", help="write the spans here")
    args = parser.parse_args(argv)

    tracer = Tracer() if args.trace else None
    workload = WORKLOADS[args.workload](args.seed, tracer)
    try:
        workload.boot()
        import_s = import_repro(service=isinstance(workload, ServiceTenants))
        workload.setup()
        emit(READY, {"import_s": import_s})
        if args.mode == "setup":
            return 0
        passes = timed_phase(workload, args.seconds, bool(args.trace))
        # Taken before the output checks, which run outside the timed phase.
        peak = workload.peak_rss_mb()
        result = evaluate(workload, passes, bool(args.trace), peak)
    finally:
        workload.close()
    if tracer is not None and args.trace_out:
        tracer.write(args.trace_out)
    emit(RESULT, result)
    return 0


if __name__ == "__main__":
    sys.exit(main())
