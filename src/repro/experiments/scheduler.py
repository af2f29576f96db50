"""Adaptive batch scheduler: cost-model planning for ``strategy="batch"``.

The fixed ``batch_size`` chunking the runner shipped with treats every
cell as equally expensive: a width cap of 10 makes one plane out of ten
20-node instances and another out of ten 150-node instances, and under
worker parallelism the second plane stragglers the pool while the first
worker idles.  This module replaces the cap with a **cost model**: each
cell's estimated execution cost is its plane width (``n``), times its
registry round limit, times its program's widest ``MessageSpec`` wire
size — the quantity :func:`_plane_cost` defines, chosen because it is
deterministic, additive across instances and strictly monotone in width,
rounds and bits.  Groups are then split to a **target cost** instead of
a target width, so every plane carries roughly the same amount of work
regardless of how sizes are mixed.

Three decisions, all deterministic functions of their inputs:

* :func:`estimate_cell_cost` — the per-cell cost.  Round limits come
  from the **calibrated rounds model**: the spec's worst-case
  ``batch_max_rounds`` recipe evaluated on a size proxy (the registered
  recipes are functions of ``n`` only), clamped by an empirical
  per-program estimate where measured data exists (see below); message
  bits from the program's declared :class:`~repro.congest.engine.vector.
  MessageSpec` list with every field charged ``bit_length(n)``.
  Programs whose kernel takes over after round 1 (per-instance scalar
  prologues, e.g. ``lemma310``) are priced, not rejected: the spec's
  ``batch_prologue_rounds`` recipe adds a weighted scalar surcharge on
  top of the plane cost (:func:`estimate_prologue_rounds`).
* :func:`resolve_target_cost` — what ``target_cost="auto"`` negotiates:
  the total stackable cost divided over ``2 * jobs`` planes (the factor
  of two oversubscribes the pool so an early-finishing worker always
  finds another plane instead of idling), and ``0`` — scheduling
  disabled, one plane per group — when there is nothing to parallelize
  (``jobs <= 1`` or no stackable group).
* :func:`adaptive_plan` — the planner.  Cells are grouped exactly like
  the fixed planner (same :attr:`~repro.experiments.runner.GridCell.
  group_key` stacking rules), each group is split greedily at the target
  cost **in cell order** (plans never reorder results), ``batch_size``
  remains honored as a hard width cap for back-compat, and a final
  **tail-steal pass** halves the costliest plane while the pool has
  fewer planes than workers — the static form of stealing an oversized
  group's tail onto an idle worker.

Every unit of the resulting plan carries a scheduler-decision meta block
``{scheduler, target_cost, est_cost, splits, unit}`` which the runner
attaches to each produced record as ``plan`` (plus the measured
``actual_wall_s``), so grid payloads and BENCH artifacts record what the
scheduler decided next to what it cost.

Calibrated rounds
-----------------
The worst-case registry recipes are *proof* limits — greedy's ``8n + 16``
guards termination, but its measured rounds are near-flat in ``n`` (49 at
n=100 vs 69 at n=500 in the committed ``BENCH_scheduler.json`` sweep), so
pricing by the proof limit over-weights large instances by two orders of
magnitude and skews every cost-target split.  The estimator therefore
clamps the recipe with an **empirical rounds table**: per program, the
maximum rounds observed at each measured size (a constant taken from
the committed benchmark, so a plan never depends on what ran earlier in
the process), turned into a monotone envelope — running max over sizes,
flat extrapolation beyond the sampled range — and
multiplied by a ×2 safety slack.  ``min(worst_case, slack × envelope)``
keeps the worst-case recipe as the fallback (programs without samples,
tiny sizes where the recipe is already tighter) and keeps
:func:`estimate_cell_cost` monotone in width.  The executor's *enforced*
round limits are untouched — calibration reweights planning only, it can
never make a run fail.
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional, Sequence, Tuple

from repro.api.registry import batchable_programs, program_spec
from repro.congest.message import FIELD_FRAMING_BITS, MESSAGE_HEADER_BITS

__all__ = [
    "PlanUnit",
    "adaptive_plan",
    "calibrated_round_limit",
    "estimate_cell_cost",
    "estimate_message_bits",
    "estimate_prologue_rounds",
    "estimate_round_limit",
    "resolve_target_cost",
]

#: A dispatch unit: kind ("cell" | "batch"), cell indices, scheduler meta
#: (``None`` when the fixed planner produced the unit).
PlanUnit = Tuple[str, List[int], Optional[Dict[str, object]]]

#: ``resolve_target_cost`` plans this many planes per worker, so a worker
#: finishing its plane early always finds another instead of idling.
OVERSUBSCRIBE = 2

#: Round-limit fallback (per instance) when a spec carries no recipe.
_FALLBACK_ROUND_FACTOR = 4

#: Cost multiplier for per-instance scalar *prologue* rounds (kernels
#: whose takeover comes after round 1 run each instance's early rounds
#: through the scalar engine before absorbing it into the plane).  A
#: scalar round touches each node through the Python interpreter rather
#: than one vector op, so it is charged a constant factor above a plane
#: round of the same width; the surcharge stays additive and monotone,
#: which is all the split logic needs.
PROLOGUE_COST_WEIGHT = 4


def _plane_cost(
    local_ns: Sequence[int],
    round_limits: Sequence[int],
    message_bits: Sequence[int],
) -> int:
    """Estimated bit-volume of driving one stacked plane to completion.

    The model is the plane's worst-case broadcast traffic: instance ``k``
    contributes ``local_ns[k] * round_limits[k] * message_bits[k]`` — its
    plane width times its round limit times its widest per-message wire
    size.  The absolute number is an upper bound, not a prediction; what
    matters to the planner is that the quantity is exact arithmetic
    (deterministic plans), additive across instances (group cost = sum
    of cell costs, so splits conserve cost), and strictly monotone in
    each of width, rounds and bits.
    """
    total = 0
    for n, rounds, bits in zip(local_ns, round_limits, message_bits):
        total += int(n) * int(rounds) * int(bits)
    return total


class _SizeProxy:
    """Stand-in for a :class:`~repro.congest.network.Network` of size ``n``.

    The registered ``batch_max_rounds`` recipes are arithmetic in
    ``net.n`` (``8 * net.n + 16`` and the like); evaluating them on this
    proxy prices a cell without generating its graph — planning must stay
    O(cells), not O(edges).
    """

    __slots__ = ("n",)

    def __init__(self, n: int):
        self.n = int(n)


#: Safety slack multiplied onto the empirical rounds envelope: planning
#: tolerates instances twice as slow as the worst ever measured before
#: the estimate goes stale (and even then only the *split* is affected).
_CALIBRATION_SLACK = 2.0

#: Measured max rounds per (program, n), from the committed
#: ``BENCH_scheduler.json`` 50-seed sweep (seeds 0..49, gnp suite).  The
#: raw samples are intentionally non-monotone (n=800 measured below
#: n=500); :func:`calibrated_round_limit` applies the monotone envelope.
_SEED_ROUND_SAMPLES: Dict[str, Dict[int, int]] = {
    "greedy": {100: 49, 200: 53, 300: 57, 500: 69, 800: 65},
}

def calibrated_round_limit(program: str, n: int) -> Optional[int]:
    """The empirical rounds estimate for planning, or ``None`` (no data).

    Deterministic: the committed samples' running-max envelope
    over sizes, read at the smallest sampled size >= ``n`` (flat
    extrapolation beyond the sampled range — measured rounds are
    near-flat in ``n``, which is the whole point), times the safety
    slack.  Non-decreasing in ``n`` by construction, so
    :func:`estimate_cell_cost` stays strictly monotone in width.
    """
    samples = _SEED_ROUND_SAMPLES.get(str(program))
    if not samples:
        return None
    envelope = 0
    estimate: Optional[int] = None
    for size in sorted(samples):
        envelope = max(envelope, samples[size])
        if size >= int(n) and estimate is None:
            estimate = envelope
    if estimate is None:
        estimate = envelope  # n beyond the sampled range: flat extrapolation
    return int(math.ceil(_CALIBRATION_SLACK * estimate))


def estimate_round_limit(program: str, n: int, calibrated: bool = True) -> int:
    """The rounds the cost model charges one cell of size ``n``.

    The spec's worst-case recipe evaluated on a size proxy, clamped by
    the calibrated empirical estimate when one exists (``calibrated=
    False`` recovers the pure worst-case figure — the proof limit the
    executor enforces).
    """
    spec = program_spec(program)
    worst: Optional[int] = None
    if spec.batch_max_rounds is not None:
        try:
            worst = int(spec.batch_max_rounds(_SizeProxy(n)))
        except Exception:  # noqa: BLE001 - a recipe needing a real Network
            worst = None
    if worst is None:
        worst = _FALLBACK_ROUND_FACTOR * int(n) + 16
    if calibrated:
        empirical = calibrated_round_limit(program, n)
        if empirical is not None:
            return min(worst, empirical)
    return worst


def estimate_message_bits(program: str, n: int) -> int:
    """Widest per-message wire size of the program's declared specs.

    Every integer field is charged ``bit_length(n)`` — node ids and
    n-bounded counters dominate the registered message families — on top
    of the exact header/framing constants.  Programs without
    ``message_specs`` (non-vectorized) are charged a single one-field
    message; their cells never stack, so the value only prices solo
    fallback units.
    """
    spec = program_spec(program)
    cls = spec.batch_factory or spec.program
    field_bits = max(1, int(n)).bit_length()
    specs = getattr(cls, "message_specs", ()) or ()
    if not specs:
        return MESSAGE_HEADER_BITS + FIELD_FRAMING_BITS + field_bits
    return max(
        MESSAGE_HEADER_BITS + m.arity * (FIELD_FRAMING_BITS + field_bits)
        for m in specs
    )


def estimate_prologue_rounds(program: str, n: int) -> int:
    """Scalar prologue rounds the cost model charges one cell of size ``n``.

    Programs whose kernel takes over after round 1 run each instance's
    opening rounds through the scalar engine before the stacked plane
    absorbs it; the spec's ``batch_prologue_rounds`` recipe (evaluated on
    the same size proxy as the round limit) prices those rounds.  ``0``
    for round-1 takeover programs — the historical behaviour, where the
    plane cost alone was the whole estimate.
    """
    spec = program_spec(program)
    if spec.batch_prologue_rounds is None:
        return 0
    try:
        return max(0, int(spec.batch_prologue_rounds(_SizeProxy(n))))
    except Exception:  # noqa: BLE001 - a recipe needing a real Network
        return 0


def estimate_cell_cost(cell) -> int:
    """Estimated execution cost of one grid cell (exact integer).

    The plane cost (width × rounds × bits) plus the weighted scalar
    prologue surcharge for per-instance late-takeover programs — both
    terms deterministic, additive across cells and monotone in ``n``.
    """
    n = int(cell.n)
    bits = estimate_message_bits(cell.program, n)
    cost = _plane_cost([n], [estimate_round_limit(cell.program, n)], [bits])
    prologue = estimate_prologue_rounds(cell.program, n)
    if prologue:
        cost += PROLOGUE_COST_WEIGHT * n * prologue * bits
    return cost


def _stackable_groups(cells) -> Tuple[Dict[tuple, List[int]], List[tuple]]:
    """Group cell indices exactly like the fixed planner does."""
    stackable = set(batchable_programs())
    groups: Dict[tuple, List[int]] = {}
    order: List[tuple] = []
    for i, cell in enumerate(cells):
        batchable = cell.engine == "vector" and cell.program in stackable
        key = ("group",) + cell.group_key if batchable else ("solo", i)
        if key not in groups:
            groups[key] = []
            order.append(key)
        groups[key].append(i)
    return groups, order


def resolve_target_cost(cells, jobs: int) -> int:
    """The per-plane cost target ``target_cost="auto"`` negotiates.

    Total stackable cost spread over ``OVERSUBSCRIBE * jobs`` planes;
    ``0`` (adaptive scheduling disabled — one plane per group, the
    in-process optimum) when ``jobs <= 1`` or no group can stack.
    """
    if jobs <= 1:
        return 0
    groups, order = _stackable_groups(cells)
    total = 0
    for key in order:
        if key[0] == "group" and len(groups[key]) >= 2:
            total += sum(estimate_cell_cost(cells[i]) for i in groups[key])
    if total == 0:
        return 0
    planes = OVERSUBSCRIBE * jobs
    return max(1, -(-total // planes))


def _chunk_by_cost(
    indices: List[int],
    costs: List[int],
    target_cost: int,
    batch_size: int,
) -> List[List[int]]:
    """Split one group's indices (in order) at the cost target.

    A chunk closes when adding the next cell would push it past
    ``target_cost`` — a single cell above the target gets a plane of its
    own — or past the ``batch_size`` width cap (0 = uncapped).
    """
    cap = batch_size if batch_size > 0 else len(indices)
    chunks: List[List[int]] = []
    current: List[int] = []
    current_cost = 0
    for index, cost in zip(indices, costs):
        if current and (current_cost + cost > target_cost or len(current) >= cap):
            chunks.append(current)
            current, current_cost = [], 0
        current.append(index)
        current_cost += cost
    if current:
        chunks.append(current)
    return chunks


def adaptive_plan(
    cells,
    target_cost: int,
    batch_size: int = 0,
    jobs: int = 1,
) -> List[PlanUnit]:
    """Cost-model dispatch plan for one grid run (deterministic).

    Same inputs — cells, target, cap, jobs — always produce the same
    plan.  Chunks preserve cell order within each group and groups keep
    first-occurrence order, so the plan can never reorder results;
    width-1 chunks degrade to plain ``cell`` units exactly like the
    fixed planner's leftovers.
    """
    if target_cost <= 0:
        raise ValueError("adaptive_plan needs a positive target_cost")
    groups, order = _stackable_groups(cells)
    # Per-group chunk lists first, so the steal pass can rebalance across
    # groups before unit indices and meta are finalized.
    chunked: List[Tuple[tuple, List[List[int]], List[int]]] = []
    for key in order:
        indices = groups[key]
        if key[0] == "solo" or len(indices) < 2:
            chunked.append((key, [[i] for i in indices], []))
            continue
        costs = [estimate_cell_cost(cells[i]) for i in indices]
        chunks = _chunk_by_cost(indices, costs, target_cost, batch_size)
        chunked.append((key, chunks, costs))

    def chunk_cost(chunk: List[int]) -> int:
        return sum(estimate_cell_cost(cells[i]) for i in chunk)

    # Tail steal: while the pool would have idle workers, halve the
    # costliest stackable plane (width permitting) so its tail can run
    # concurrently.  batch_size already bounds widths, so halving cannot
    # violate the cap.
    if jobs > 1:
        while True:
            planes = [
                (chunk_cost(chunk), gi, pos, len(chunk))
                for gi, (key, chunks, _) in enumerate(chunked)
                if key[0] == "group"
                for pos, chunk in enumerate(chunks)
                if len(chunk) >= 2
            ]
            splittable = [p for p in planes if p[3] >= 4]
            if len(planes) >= jobs or not splittable:
                break
            _cost, gi, pos, _width = max(
                splittable, key=lambda p: (p[0], -p[1], -p[2])
            )
            chunks = chunked[gi][1]
            victim = chunks[pos]
            half = len(victim) // 2
            chunks[pos : pos + 1] = [victim[:half], victim[half:]]

    plan: List[PlanUnit] = []
    for key, chunks, _costs in chunked:
        splits = len(chunks)
        for chunk in chunks:
            meta: Dict[str, object] = {
                "scheduler": "adaptive",
                "target_cost": int(target_cost),
                "est_cost": chunk_cost(chunk),
                "splits": splits if key[0] == "group" else 1,
                "unit": len(plan),
            }
            kind = "batch" if key[0] == "group" and len(chunk) >= 2 else "cell"
            if kind == "cell":
                for i in chunk:
                    solo_meta = dict(meta, est_cost=estimate_cell_cost(cells[i]))
                    solo_meta["unit"] = len(plan)
                    plan.append(("cell", [i], solo_meta))
            else:
                plan.append(("batch", list(chunk), meta))
    return plan


def _plan_summary(plan: Sequence[PlanUnit]) -> Dict[str, object]:
    """Aggregate view of one plan for payload meta and logging."""
    batch_units = [u for u in plan if u[0] == "batch"]
    est = [int(u[2]["est_cost"]) for u in plan if u[2] is not None]
    return {
        "units": len(plan),
        "batch_units": len(batch_units),
        "widths": [len(u[1]) for u in batch_units],
        "est_cost_max": max(est) if est else 0,
        "est_cost_total": sum(est),
    }
