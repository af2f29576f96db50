"""Adaptive batch scheduler: cost model, planner, and record plumbing."""

from repro.api.records import RunRecord
from repro.experiments.runner import GridCell, _batch_plan, _plan_units
from repro.experiments.scheduler import (
    _CALIBRATION_SLACK,
    _plane_cost,
    adaptive_plan,
    calibrated_round_limit,
    estimate_cell_cost,
    estimate_message_bits,
    estimate_round_limit,
    resolve_target_cost,
)


def _group(sizes, seeds=(0,), program="greedy", engine="vector", family="gnp"):
    return [
        GridCell(family, n, program, engine, seed=s) for n in sizes for s in seeds
    ]


class TestCostModel:
    def test_plane_cost_additive_and_monotone(self):
        base = _plane_cost([20, 30], [100, 100], [16, 16])
        assert base == 20 * 100 * 16 + 30 * 100 * 16
        assert _plane_cost([21, 30], [100, 100], [16, 16]) > base
        assert _plane_cost([20, 30], [101, 100], [16, 16]) > base
        assert _plane_cost([20, 30], [100, 100], [17, 16]) > base

    def test_cell_cost_monotone_in_width(self):
        costs = [
            estimate_cell_cost(GridCell("gnp", n, "greedy", "vector"))
            for n in (20, 40, 80, 160)
        ]
        assert costs == sorted(costs)
        assert len(set(costs)) == len(costs)

    def test_uncalibrated_round_limit_uses_registry_recipe(self):
        # greedy registers 8n + 16; the uncalibrated estimator must
        # reproduce it exactly — it is the limit the executor enforces.
        assert estimate_round_limit("greedy", 50, calibrated=False) == 8 * 50 + 16

    def test_message_bits_grow_with_n(self):
        bits = [estimate_message_bits("greedy", n) for n in (15, 255, 65535)]
        assert bits == sorted(bits)
        assert len(set(bits)) == len(bits)

    def test_cost_is_deterministic(self):
        cell = GridCell("gnp", 64, "greedy", "vector", seed=3)
        assert estimate_cell_cost(cell) == estimate_cell_cost(cell)


class TestRoundCalibration:
    def test_calibrated_clamps_the_worst_case_at_large_n(self):
        # greedy's proof limit is 8n + 16 = 6416 rounds at n=800; the
        # measured maximum in BENCH_scheduler.json is 69. The calibrated
        # estimate must stop over-weighting large n by orders of magnitude.
        worst = estimate_round_limit("greedy", 800, calibrated=False)
        calibrated = estimate_round_limit("greedy", 800)
        assert worst == 8 * 800 + 16
        assert calibrated <= _CALIBRATION_SLACK * 69
        assert calibrated < worst / 40

    def test_worst_case_wins_when_tighter(self):
        # At tiny n the proof limit is below the slacked envelope — the
        # estimate must never exceed the enforced limit.
        assert estimate_round_limit("greedy", 4) == 8 * 4 + 16

    def test_unsampled_program_falls_back_to_worst_case(self):
        assert calibrated_round_limit("color-reduction", 100) is None
        assert estimate_round_limit("color-reduction", 100) == estimate_round_limit(
            "color-reduction", 100, calibrated=False
        )

    def test_envelope_is_monotone_despite_raw_samples(self):
        # The committed samples dip at n=800 (65 < 69 at n=500); the
        # envelope must not — cost monotonicity depends on it.
        limits = [calibrated_round_limit("greedy", n) for n in (100, 300, 500, 800, 5000)]
        assert limits == sorted(limits)

    def test_calibration_keeps_cell_cost_monotone(self):
        # Across the sampled range (including the n=800 dip in the raw
        # samples) and the flat extrapolation beyond it.
        costs = [
            estimate_cell_cost(GridCell("gnp", n, "greedy", "vector"))
            for n in (20, 40, 60, 80, 160, 500, 800, 1000, 5000)
        ]
        assert costs == sorted(costs)
        assert len(set(costs)) == len(costs)


class TestResolveTargetCost:
    def test_sequential_resolves_to_disabled(self):
        assert resolve_target_cost(_group((20, 30), seeds=(0, 1)), jobs=1) == 0

    def test_no_stackable_group_resolves_to_disabled(self):
        solo = _group((20, 30), engine="fast")  # fast never stacks
        assert resolve_target_cost(solo, jobs=4) == 0

    def test_parallel_sweep_resolves_positive(self):
        cells = _group((20, 30, 40), seeds=(0, 1))
        target = resolve_target_cost(cells, jobs=2)
        assert target > 0
        # Oversubscription: the target spreads the total over 2 * jobs
        # planes, so it is at most half the total stackable cost.
        total = sum(estimate_cell_cost(c) for c in cells)
        assert target <= total // 2 + 1


class TestAdaptivePlan:
    def test_plan_is_deterministic(self):
        cells = _group((20, 30, 40), seeds=(0, 1, 2))
        target = resolve_target_cost(cells, jobs=2)
        assert adaptive_plan(cells, target, jobs=2) == adaptive_plan(
            cells, target, jobs=2
        )

    def test_plan_covers_every_cell_exactly_once(self):
        cells = _group((20, 30, 40), seeds=(0, 1, 2))
        plan = adaptive_plan(cells, resolve_target_cost(cells, jobs=2), jobs=2)
        covered = [i for _kind, indices, _meta in plan for i in indices]
        assert sorted(covered) == list(range(len(cells)))

    def test_batch_size_stays_a_hard_cap(self):
        cells = _group((20,), seeds=range(12))
        # A huge target would put all 12 in one plane; batch_size must
        # still cap the width at 3.
        plan = adaptive_plan(cells, target_cost=10**12, batch_size=3)
        widths = {len(indices) for kind, indices, _ in plan if kind == "batch"}
        assert widths == {3}

    def test_tail_steal_fills_idle_workers(self):
        cells = _group((20,), seeds=range(8))
        # One plane at this target; with jobs=4 the steal pass must halve
        # it until four workers have a plane each.
        plan = adaptive_plan(cells, target_cost=10**12, jobs=4)
        widths = sorted(len(i) for kind, i, _ in plan if kind == "batch")
        assert widths == [2, 2, 2, 2]

    def test_plan_meta_present_on_every_unit(self):
        cells = _group((20, 30), seeds=(0, 1)) + _group((25,), engine="fast")
        plan = adaptive_plan(cells, resolve_target_cost(cells, jobs=2), jobs=2)
        for i, (_kind, _indices, meta) in enumerate(plan):
            assert meta is not None
            assert meta["scheduler"] == "adaptive"
            assert meta["unit"] == i
            assert meta["est_cost"] > 0
            assert meta["target_cost"] > 0

    def test_chunks_respect_cost_target(self):
        cells = _group((20,), seeds=range(10))
        per_cell = estimate_cell_cost(cells[0])
        plan = adaptive_plan(cells, target_cost=3 * per_cell)
        for kind, indices, meta in plan:
            if kind == "batch":
                assert meta["est_cost"] <= 3 * per_cell
                assert len(indices) <= 3


class TestPlanUnitsIntegration:
    def test_target_zero_keeps_fixed_plan(self):
        cells = _group((20, 30), seeds=(0, 1, 2))
        assert _plan_units(cells, "batch", 3, target_cost=0) == _batch_plan(
            cells, 3
        )

    def test_fixed_plan_has_no_meta(self):
        cells = _group((20, 30), seeds=(0, 1, 2))
        for _kind, _indices, meta in _plan_units(cells, "batch", 3):
            assert meta is None

    def test_auto_with_one_job_is_fixed(self):
        cells = _group((20, 30), seeds=(0, 1, 2))
        assert _plan_units(
            cells, "batch", 0, target_cost="auto", jobs=1
        ) == _batch_plan(cells, 0)

    def test_auto_with_jobs_splits_the_group(self):
        cells = _group((20, 30, 40), seeds=(0, 1, 2))
        plan = _plan_units(cells, "batch", 0, target_cost="auto", jobs=2)
        assert len(plan) > 1
        assert any(meta is not None for _k, _i, meta in plan)


class TestPlanRecordRoundTrip:
    def test_plan_meta_round_trips_through_run_record(self):
        cell = GridCell("gnp", 20, "greedy", "vector", seed=0)
        plan = {
            "scheduler": "adaptive",
            "target_cost": 1000,
            "est_cost": 640,
            "splits": 2,
            "unit": 1,
            "actual_wall_s": 0.25,
        }
        record = RunRecord(
            cell=cell, ok=True, wall_s=0.25, metrics={"rounds": 3}, plan=plan
        )
        parsed = RunRecord.from_dict(record.to_dict())
        assert parsed.plan == plan
        assert parsed.metrics == record.metrics

    def test_failure_records_keep_plan(self):
        cell = GridCell("gnp", 20, "greedy", "vector", seed=0)
        record = RunRecord(
            cell=cell,
            ok=False,
            error={"type": "X", "message": "boom"},
            plan={"scheduler": "adaptive", "unit": 0},
        )
        as_dict = record.to_dict()
        assert as_dict["plan"]["unit"] == 0
        assert RunRecord.from_dict(as_dict).plan == record.plan

    def test_absent_plan_stays_absent(self):
        cell = GridCell("gnp", 20, "greedy", "vector", seed=0)
        record = RunRecord(cell=cell, ok=True, wall_s=0.1, metrics={})
        assert "plan" not in record.to_dict()
        assert RunRecord.from_dict(record.to_dict()).plan is None
