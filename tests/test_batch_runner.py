"""Batch runner: grid expansion, determinism, structured failures, JSON."""

from __future__ import annotations

import copy
import json

import pytest


from repro.experiments.harness import engine_grid_cells, engine_grid_report
from repro.experiments.runner import (
    GridCell,
    available_programs,
    expand_grid,
    results_payload,
    run_cell,
    run_grid,
    summarize_results,
    write_results,
)


def _strip_walls(results):
    stripped = copy.deepcopy(results)
    for rec in stripped:
        rec.pop("wall_s", None)
    return stripped


SMALL_GRID = expand_grid(
    families=("tree", "gnp"),
    sizes=(16,),
    programs=("bfs",),
    engines=("reference", "fast"),
    seed=3,
)


class TestExpandGrid:
    def test_cartesian_product(self):
        cells = expand_grid(
            families=("gnp", "tree"),
            sizes=(20, 40),
            programs=("bfs", "greedy"),
            engines=("reference", "fast"),
        )
        assert len(cells) == 2 * 2 * 2 * 2
        assert len(set(cells)) == len(cells)
        assert all(isinstance(c, GridCell) for c in cells)

    def test_defaults_cover_all_programs_and_engines(self):
        cells = expand_grid(families=("tree",), sizes=(12,))
        programs = {c.program for c in cells}
        engines = {c.engine for c in cells}
        assert programs == set(available_programs())
        assert {"reference", "fast"} <= engines

    def test_key_is_reproducible(self):
        cell = GridCell(family="gnp", n=40, program="bfs", engine="fast", seed=9)
        assert cell.key == "gnp-40/bfs/fast/s9"


class TestRunCell:
    def test_success_record(self):
        cell = GridCell(family="tree", n=16, program="bfs", engine="fast", seed=3)
        rec = run_cell(cell)
        assert rec["ok"] is True
        assert rec["metrics"]["rounds"] >= 1
        assert rec["metrics"]["all_halted"] is True
        assert rec["wall_s"] >= 0
        assert rec["cell"] == {
            "family": "tree", "n": 16, "program": "bfs",
            "engine": "fast", "seed": 3,
        }

    def test_unknown_family_is_structured_error(self):
        rec = run_cell(GridCell(family="nope", n=16, program="bfs", engine="fast"))
        assert rec["ok"] is False
        assert rec["error"]["type"] == "GraphError"
        assert "nope" in rec["error"]["message"]

    def test_unknown_program_is_structured_error(self):
        rec = run_cell(GridCell(family="tree", n=16, program="boom", engine="fast"))
        assert rec["ok"] is False
        assert rec["error"]["type"] == "UnknownProgramError"
        assert "boom" in rec["error"]["message"]

    def test_unknown_engine_is_structured_error(self):
        rec = run_cell(GridCell(family="tree", n=16, program="bfs", engine="warp"))
        assert rec["ok"] is False
        assert rec["error"]["type"] == "UnknownEngineError"
        assert "warp" in rec["error"]["message"]


class TestRunGrid:
    def test_single_worker_is_deterministic(self):
        first = run_grid(SMALL_GRID, jobs=1)
        second = run_grid(SMALL_GRID, jobs=1)
        assert _strip_walls(first) == _strip_walls(second)

    def test_results_preserve_cell_order(self):
        results = run_grid(SMALL_GRID, jobs=1)
        assert [r["key"] for r in results] == [c.key for c in SMALL_GRID]

    def test_worker_pool_matches_sequential(self):
        sequential = run_grid(SMALL_GRID, jobs=1)
        parallel = run_grid(SMALL_GRID, jobs=2)
        assert _strip_walls(sequential) == _strip_walls(parallel)

    def test_cell_failure_does_not_crash_grid(self):
        cells = [
            GridCell(family="tree", n=16, program="bfs", engine="fast"),
            GridCell(family="nope", n=16, program="bfs", engine="fast"),
            GridCell(family="gnp", n=16, program="bfs", engine="fast"),
        ]
        results = run_grid(cells, jobs=1)
        assert [r["ok"] for r in results] == [True, False, True]


class TestSummariesAndJson:
    def test_summary_speedup_and_failures(self):
        cells = SMALL_GRID + [
            GridCell(family="nope", n=16, program="bfs", engine="fast")
        ]
        results = run_grid(cells, jobs=1)
        summary = summarize_results(results)
        assert summary["per_engine"]["reference"]["ok"] == 2
        assert summary["per_engine"]["fast"]["ok"] == 2
        assert summary["per_engine"]["fast"]["cells"] == 3
        assert "fast" in summary["speedup_vs_reference"]
        assert len(summary["failures"]) == 1
        assert summary["failures"][0]["error"]["type"] == "GraphError"

    def test_write_results_roundtrip(self, tmp_path):
        results = run_grid(SMALL_GRID, jobs=1)
        out = write_results(tmp_path / "grid.json", results, meta={"jobs": 1})
        payload = json.loads(out.read_text())
        assert payload["generator"] == "repro.experiments.runner"
        assert payload["meta"] == {"jobs": 1}
        assert len(payload["cells"]) == len(SMALL_GRID)
        assert payload["summary"] == json.loads(
            json.dumps(summarize_results(results))
        )

    def test_results_payload_is_json_serializable(self):
        results = run_grid(SMALL_GRID, jobs=1)
        json.dumps(results_payload(results))


class TestEngineGridReport:
    def test_parity_and_no_failures_pass(self):
        results = run_grid(SMALL_GRID, jobs=1)
        report = engine_grid_report(results)
        assert report.checks["no_failures"] is True
        assert report.checks["engine_parity"] is True
        assert len(report.rows) == len(SMALL_GRID)
        assert "wall_ms" in report.columns

    def test_failure_flips_check(self):
        cells = SMALL_GRID + [
            GridCell(family="nope", n=16, program="bfs", engine="fast")
        ]
        report = engine_grid_report(run_grid(cells, jobs=1))
        assert report.checks["no_failures"] is False
        assert any("nope" in note for note in report.notes)

    def test_metric_divergence_flips_parity(self):
        results = run_grid(SMALL_GRID, jobs=1)
        doctored = copy.deepcopy(results)
        for rec in doctored:
            if rec["cell"]["engine"] == "fast":
                rec["metrics"]["rounds"] += 1
        report = engine_grid_report(doctored)
        assert report.checks["engine_parity"] is False

    def test_shared_cells_definition(self):
        cells = engine_grid_cells(fast=True)
        assert all(c.engine in ("reference", "fast", "vector") for c in cells)
        assert len({(c.family, c.n, c.program) for c in cells}) * 3 == len(cells)


class TestBatchStrategy:
    """strategy="batch" is an execution detail: records never change."""

    SWEEP = expand_grid(
        families=("gnp", "tree"),
        sizes=(24,),
        programs=("greedy", "color-reduction", "bfs"),
        engines=("vector", "fast"),
        seeds=(0, 1, 2, 3),
    )

    @staticmethod
    def _strip(results):
        stripped = copy.deepcopy(results)
        for rec in stripped:
            rec.pop("wall_s", None)
            rec.pop("batch", None)
        return stripped

    def test_seeds_axis_expansion(self):
        cells = expand_grid(
            families=("gnp",), sizes=(16,), programs=("bfs",),
            engines=("fast",), seeds=(1, 2, 3),
        )
        assert [c.seed for c in cells] == [1, 2, 3]
        assert len({c.topology_key for c in cells}) == 3

    def test_unknown_strategy_is_structured(self):
        from repro.errors import UnknownStrategyError

        with pytest.raises(UnknownStrategyError):
            run_grid(self.SWEEP, strategy="warp")

    def test_batch_matches_cell_records(self):
        cell = run_grid(self.SWEEP, strategy="cell")
        batch = run_grid(self.SWEEP, strategy="batch")
        assert self._strip(cell) == self._strip(batch)
        stacked = [r for r in batch if "batch" in r]
        # greedy + color-reduction on vector engine batch; bfs and fast
        # engine cells fall back per cell.
        assert len(stacked) == 2 * 2 * 4
        assert all(r["cell"]["engine"] == "vector" for r in stacked)
        assert all(r["cell"]["program"] != "bfs" for r in stacked)

    def test_batch_size_chunks_groups(self):
        batch = run_grid(self.SWEEP, strategy="batch", batch_size=3)
        widths = {r["batch"]["k"] for r in batch if "batch" in r}
        assert widths == {3}  # 4 seeds -> chunk of 3 + leftover of 1 (solo)
        assert self._strip(batch) == self._strip(
            run_grid(self.SWEEP, strategy="cell")
        )

    def test_batch_size_one_caps_to_per_cell(self):
        """batch_size=1 means width-1 stacks, i.e. plain per-cell runs."""
        results = run_grid(self.SWEEP, strategy="batch", batch_size=1)
        assert not any("batch" in r for r in results)
        assert self._strip(results) == self._strip(
            run_grid(self.SWEEP, strategy="cell")
        )

    def test_batch_workers_match_sequential(self):
        sequential = run_grid(self.SWEEP, strategy="batch")
        parallel = run_grid(self.SWEEP, strategy="batch", jobs=2)
        assert self._strip(sequential) == self._strip(parallel)

    def test_mixed_size_groups_stack_as_one_ragged_plane(self):
        """Since the ragged layout, one (family, program, engine) group
        spans sizes: a mixed-size sweep stacks whole instead of falling
        back per cell, with records identical to per-cell execution."""
        from repro.api import Experiment

        cells = (
            Experiment("greedy", "color-reduction")
            .on("gnp")
            .sizes(16, 24, 40)
            .engine("vector")
            .seeds(2)
            .cells()
        )
        batch = run_grid(cells, strategy="batch")
        assert self._strip(batch) == self._strip(run_grid(cells, strategy="cell"))
        # Each program's 3 sizes x 2 seeds stack into one width-6 plane.
        assert all("batch" in rec for rec in batch)
        assert {rec["batch"]["k"] for rec in batch} == {6}
        parallel = run_grid(cells, strategy="batch", jobs=2)
        assert self._strip(batch) == self._strip(parallel)

    def test_batch_survives_bad_family(self):
        cells = list(self.SWEEP[:2]) + [
            GridCell(family="nope", n=24, program="greedy", engine="vector")
        ]
        results = run_grid(cells, strategy="batch")
        assert [r["ok"] for r in results] == [True, True, False]
        assert results[2]["error"]["type"] == "GraphError"

    def test_batch_survives_generator_error(self):
        """A third-party generator error while building a stacked group's
        topologies becomes per-cell failure records, as on the cell path."""
        from repro.api import Experiment

        cells = (
            Experiment("greedy").on("regular").sizes(4).engine("vector")
            .seeds([0, 1]).cells()
        )
        batch = run_grid(cells, strategy="batch")
        assert self._strip(batch) == self._strip(run_grid(cells, strategy="cell"))
        assert [r["ok"] for r in batch] == [False, False]
        assert batch[0]["error"]["type"] == "NetworkXError"

    def test_kernel_bug_in_stacked_group_propagates(self, monkeypatch):
        """Only structured errors reroute a stacked group per cell: a
        kernel bug must surface, not pass for a slow but correct run."""
        from repro.api import Experiment
        from repro.congest.engine import kernel_for
        from repro.congest.programs.greedy_mds import DistributedGreedyProgram

        def broken_step(self, round_no, inbound):
            raise RuntimeError("kernel bug")

        monkeypatch.setattr(
            kernel_for(DistributedGreedyProgram), "step", broken_step
        )
        cells = (
            Experiment("greedy").on("gnp").sizes(24).engine("vector")
            .seeds([0, 1, 2]).cells()
        )
        with pytest.raises(RuntimeError, match="kernel bug"):
            run_grid(cells, strategy="batch")

    def test_program_summaries_present(self):
        results = run_grid(self.SWEEP, strategy="batch")
        for rec in results:
            program = rec["cell"]["program"]
            metrics = rec["metrics"]
            assert "max_degree" in metrics
            if program == "greedy":
                assert 0 < metrics["ds_size"] <= metrics["n"]
            elif program == "color-reduction":
                assert 0 < metrics["colors"] <= metrics["max_degree"] + 1
            elif program == "bfs":
                assert metrics["reached"] >= 1

    def test_cli_quick_batch_smoke(self, capsys):
        from repro.__main__ import main

        assert main(["grid", "--quick", "--strategy", "batch"]) == 0
        out = capsys.readouterr().out
        assert "engine_parity=PASS" in out
        assert "no_failures=PASS" in out


class TestSharedStackedTopology:
    def test_publish_attach_round_trip(self):
        from repro.experiments.sharedmem import (
            SharedStackedTopology,
            attach_stacked,
        )
        from repro.experiments.runner import build_network

        cells = [
            GridCell(family="gnp", n=20, program="greedy", engine="vector", seed=s)
            for s in range(3)
        ]
        networks = [build_network(c) for c in cells]
        stack = SharedStackedTopology.publish(networks)
        try:
            rebuilt = attach_stacked(stack.handle)
        finally:
            stack.unlink()
        assert len(rebuilt) == 3
        for original, copy_net in zip(networks, rebuilt):
            assert copy_net.n == original.n
            assert copy_net.bit_budget == original.bit_budget
            for v in range(original.n):
                assert copy_net.neighbors(v) == original.neighbors(v)
