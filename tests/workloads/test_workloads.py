"""Tasks, pools, generators, and period packing."""

from __future__ import annotations

import numpy as np
import pytest

from repro.exceptions import WorkloadError
from repro.workloads.generators import (
    bimodal_tasks,
    jittered_tasks,
    lognormal_tasks,
    uniform_tasks,
)
from repro.workloads.packing import pack_period
from repro.workloads.tasks import Task, TaskPool


class TestTask:
    def test_positive_duration_required(self):
        with pytest.raises(WorkloadError):
            Task(0, 0.0)
        with pytest.raises(WorkloadError):
            Task(1, -1.0)
        for bad in ("nan", "inf"):
            with pytest.raises(WorkloadError,
                               match=f"^task 3 has non-finite duration {bad}$"):
                Task(3, float(bad))


class TestTaskPool:
    def test_from_durations(self):
        pool = TaskPool.from_durations([1.0, 2.0, 3.0])
        assert pool.pending_count == 3
        assert pool.pending_work == pytest.approx(6.0)
        assert not pool.exhausted

    def test_from_durations_builds_plain_tasks(self):
        durations = np.array([0.5, 0.1, 0.2, 0.3, 2.0**-40])
        pool = TaskPool.from_durations(durations)
        expected = [Task(i, float(d)) for i, d in enumerate(durations)]
        assert pool.tasks == expected
        assert [hash(t) for t in pool] == [hash(t) for t in expected]
        assert all(type(t.duration) is float for t in pool)
        # The same left-to-right float sum the per-task constructor takes.
        assert pool.pending_work == float(sum(t.duration for t in expected))
        with pytest.raises(AttributeError):
            pool.tasks[0].duration = 1.0  # still frozen

    @pytest.mark.parametrize("durations,bad", [
        ([1.0, 0.0, -2.0], "task 1 has non-positive duration 0.0"),
        (np.array([0.5, 0.25, -3.0, 0.0]), "task 2 has non-positive duration -3.0"),
        ([-0.0], "task 0 has non-positive duration -0.0"),
        ([1.0, float("nan"), 2.0], "task 1 has non-finite duration nan"),
        (np.array([0.5, np.inf]), "task 1 has non-finite duration inf"),
        ([np.nan, -1.0], "task 0 has non-finite duration nan"),
    ])
    def test_from_durations_names_first_bad_task(self, durations, bad):
        with pytest.raises(WorkloadError, match=f"^{bad}$"):
            TaskPool.from_durations(durations)

    def test_from_durations_rejects_non_vector(self):
        with pytest.raises(WorkloadError, match="vector"):
            TaskPool.from_durations(np.ones((2, 3)))

    def test_from_durations_empty(self):
        pool = TaskPool.from_durations([])
        assert pool.exhausted
        assert pool.pending_work == 0.0

    def test_checkout_fifo_prefix(self):
        pool = TaskPool.from_durations([1.0, 2.0, 3.0, 1.0])
        taken = pool.checkout(3.5)
        assert [t.task_id for t in taken] == [0, 1]
        assert pool.pending_count == 2

    def test_checkout_stops_at_first_misfit(self):
        # FIFO: the 3.0 task blocks even though the 1.0 after it would fit.
        pool = TaskPool.from_durations([1.0, 3.0, 1.0])
        taken = pool.checkout(2.0)
        assert [t.task_id for t in taken] == [0]

    def test_checkout_empty_when_budget_too_small(self):
        pool = TaskPool.from_durations([5.0])
        assert pool.checkout(1.0) == []

    def test_checkout_negative_budget(self):
        pool = TaskPool.from_durations([1.0])
        with pytest.raises(WorkloadError):
            pool.checkout(-1.0)

    def test_commit_and_restore(self):
        pool = TaskPool.from_durations([1.0, 2.0, 3.0])
        taken = pool.checkout(3.5)
        pool.restore(taken)
        assert [t.task_id for t in pool] == [0, 1, 2]  # back at the front
        taken = pool.checkout(3.5)
        pool.commit(taken)
        assert pool.completed_work == pytest.approx(3.0)
        assert pool.pending_count == 1

    def test_exhausted(self):
        pool = TaskPool.from_durations([1.0])
        pool.commit(pool.checkout(2.0))
        assert pool.exhausted

    def test_emptied_pool_holds_exactly_no_work(self):
        # 0.1 + 0.2 + 0.3 minus its prefixes one by one leaves 5.6e-17 in a
        # running total; a pool with no tasks must report exactly 0.
        pool = TaskPool.from_durations([0.1, 0.2, 0.3])
        for budget in (0.1, 0.2, 0.3):
            pool.checkout(budget)
        assert pool.exhausted
        assert pool.pending_work == 0.0


class TestGenerators:
    def test_uniform(self):
        assert np.allclose(uniform_tasks(5, 2.0), 2.0)
        with pytest.raises(WorkloadError):
            uniform_tasks(0)
        with pytest.raises(WorkloadError):
            uniform_tasks(3, -1.0)

    def test_jittered_within_bounds(self, rng):
        d = jittered_tasks(1000, 2.0, 0.25, rng)
        assert np.all(d >= 1.5 - 1e-12)
        assert np.all(d <= 2.5 + 1e-12)
        with pytest.raises(WorkloadError):
            jittered_tasks(10, 1.0, 1.0, rng)

    def test_lognormal_positive_and_skewed(self, rng):
        d = lognormal_tasks(20_000, 1.0, 1.0, rng)
        assert np.all(d > 0)
        assert np.mean(d) > np.median(d)  # right skew
        with pytest.raises(WorkloadError):
            lognormal_tasks(10, 0.0, 1.0, rng)

    def test_bimodal_fractions(self, rng):
        d = bimodal_tasks(20_000, 1.0, 10.0, 0.3, rng)
        frac_long = np.mean(d == 10.0)
        assert frac_long == pytest.approx(0.3, abs=0.02)
        with pytest.raises(WorkloadError):
            bimodal_tasks(10, 1.0, 2.0, 1.5, rng)


class TestPacking:
    def test_pack_fills_budget(self):
        pool = TaskPool.from_durations([2.0] * 10)
        bundle = pack_period(pool, planned_length=7.0, c=1.0)
        assert len(bundle.tasks) == 3  # 3 * 2.0 = 6.0 <= 6.0
        assert bundle.work == pytest.approx(6.0)
        assert bundle.realized_length == pytest.approx(7.0)

    def test_pack_partial_budget(self):
        pool = TaskPool.from_durations([2.0] * 10)
        bundle = pack_period(pool, planned_length=6.0, c=1.0)
        assert len(bundle.tasks) == 2
        assert bundle.realized_length == pytest.approx(5.0)  # undershoots plan

    def test_unproductive_plan_rejected(self):
        pool = TaskPool.from_durations([1.0])
        with pytest.raises(WorkloadError):
            pack_period(pool, planned_length=0.5, c=1.0)

    def test_empty_pool_gives_empty_bundle(self):
        pool = TaskPool()
        bundle = pack_period(pool, 5.0, 1.0)
        assert bundle.empty
