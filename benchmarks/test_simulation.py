"""Tests for the simulated worker pool (distribution substrate)."""

import pytest

from benchmarks.simulation import (
    SimulatedPool,
    SpeedupResult,
    measure_task_costs,
    simulate_corpus_speedup,
)
from repro.runtime.fast import FastSeparatorSplitter


class TestSimulatedPool:
    def test_empty(self):
        assert SimulatedPool(workers=5).makespan([]) == 0.0

    def test_single_worker_sums(self):
        pool = SimulatedPool(workers=1, per_task_overhead=0.0)
        assert pool.makespan([1.0, 2.0, 3.0]) == pytest.approx(6.0)

    def test_perfect_balance(self):
        pool = SimulatedPool(workers=2, per_task_overhead=0.0)
        assert pool.makespan([1.0, 1.0, 1.0, 1.0]) == pytest.approx(2.0)

    def test_straggler_dominates(self):
        # One huge task at the end: makespan = wait + task.
        pool = SimulatedPool(workers=2, per_task_overhead=0.0)
        assert pool.makespan([1.0, 1.0, 10.0]) == pytest.approx(11.0)

    def test_greedy_assignment_order(self):
        # Tasks are taken in arrival order by the earliest-free worker.
        pool = SimulatedPool(workers=2, per_task_overhead=0.0)
        # worker A: 3; worker B: 1 then 1 then 1 -> makespan 3.
        assert pool.makespan([3.0, 1.0, 1.0, 1.0]) == pytest.approx(3.0)

    def test_overhead_charged_per_task(self):
        pool = SimulatedPool(workers=1, per_task_overhead=0.5)
        assert pool.makespan([1.0, 1.0]) == pytest.approx(3.0)

    def test_more_workers_never_slower(self):
        costs = [0.5, 2.0, 0.1, 0.7, 1.3, 0.2, 0.9]
        small = SimulatedPool(workers=2, per_task_overhead=0.0)
        large = SimulatedPool(workers=5, per_task_overhead=0.0)
        assert large.makespan(costs) <= small.makespan(costs)


class _UnitCostSpanner:
    """Deterministic fake extractor for cost measurement tests."""

    def evaluate(self, document):
        return set()


class TestSpeedupHarness:
    def test_measure_task_costs_shape(self):
        costs = measure_task_costs(_UnitCostSpanner(), ["a", "bb", "ccc"])
        assert len(costs) == 3
        assert all(c >= 0 for c in costs)

    def test_simulate_corpus_speedup(self):
        result = simulate_corpus_speedup(
            _UnitCostSpanner(),
            ["aa bb", "c", "dd ee ff"],
            FastSeparatorSplitter(" "),
            workers=2,
            repeats=1,
        )
        assert isinstance(result, SpeedupResult)
        assert result.baseline_tasks == 3
        assert result.split_tasks == 6
        assert result.speedup > 0

    def test_chunksize_batches(self):
        result = simulate_corpus_speedup(
            _UnitCostSpanner(),
            ["aa bb cc dd"],
            FastSeparatorSplitter(" "),
            workers=2,
            repeats=1,
            chunksize=2,
        )
        # 4 chunks batched in pairs -> the split plan schedules 2 units,
        # but the reported task count stays at chunk granularity.
        assert result.split_tasks == 4
