"""The fault-tolerant checkpointing analogue of [7]."""

from __future__ import annotations

import dataclasses
import math

import numpy as np
import pytest

from repro.core.life_functions import GeometricDecreasingLifespan, UniformRisk
from repro.core.schedule import Schedule
from repro.exceptions import InvalidScheduleError, SimulationError
from repro.now import checkpointing
from repro.now.checkpointing import (
    CheckpointRun,
    save_schedule,
    simulate_fault_prone_job,
)
from repro.simulation.testing import (
    DeterministicLife,
    canonical_families,
    reference_schedule,
)


def _loop_job(p_failure, c_save, total_work, schedule=None, rng=None,
              max_epochs=1_000_000):
    """The epoch-by-epoch loop: the oracle for the block-drawn simulator."""
    if total_work <= 0:
        raise SimulationError(f"total_work must be positive, got {total_work}")
    if rng is None:
        rng = np.random.default_rng(0)
    if schedule is None:
        schedule = save_schedule(p_failure, c_save)

    work_per_period = schedule.work_per_period(c_save)
    if float(work_per_period.sum()) <= 0.0:
        raise SimulationError("schedule banks no work per epoch; job cannot finish")
    boundaries = schedule.boundaries

    clock = 0.0
    banked = 0.0
    failures = 0
    saves = 0
    lost = 0.0
    for _ in range(max_epochs):
        failure_at = float(p_failure.sample_reclaim_times(rng, 1)[0])
        epoch_elapsed = 0.0
        for i in range(schedule.num_periods):
            end = float(boundaries[i])
            if end >= failure_at:
                # Failure hits during (or exactly at the end of) period i.
                failures += 1
                # Everything since the last save is lost (including the
                # partially-paid save overhead of the interrupted period).
                lost += failure_at - epoch_elapsed
                clock += failure_at - epoch_elapsed
                break
            clock += end - epoch_elapsed
            epoch_elapsed = end
            banked += float(work_per_period[i])
            saves += 1
            if banked >= total_work:
                return CheckpointRun(
                    completion_time=clock,
                    failures=failures,
                    saves_committed=saves,
                    work_lost=lost,
                )
        else:
            # Schedule exhausted before the failure: idle until the failure
            # resets the epoch (a conservative policy that never improvises
            # beyond its schedule).
            clock += max(0.0, failure_at - epoch_elapsed)
            failures += 1
    raise SimulationError(f"job did not finish within {max_epochs} epochs")


def _bits(run: CheckpointRun) -> tuple:
    """Every field, floats as their exact hex image."""
    return tuple(
        v.hex() if isinstance(v, float) else (type(v), v)
        for v in dataclasses.astuple(run)
    )


def _assert_matches_loop(p, c, works, schedule, make_rng, **kwargs) -> list:
    """Run a sequence of jobs on one generator through both simulators and
    assert bit-identical runs and an identical stream afterwards."""
    fast_rng, loop_rng = make_rng(), make_rng()
    runs = []
    for w in works:
        fast = simulate_fault_prone_job(p, c, w, schedule=schedule, rng=fast_rng, **kwargs)
        loop = _loop_job(p, c, w, schedule=schedule, rng=loop_rng, **kwargs)
        assert _bits(fast) == _bits(loop), (w, fast, loop)
        runs.append(fast)
    np.testing.assert_array_equal(fast_rng.random(4), loop_rng.random(4))
    return runs


class _FixedFailures:
    """Stub failure process with a scripted sequence of failure times."""

    def __init__(self, times):
        self._times = list(times)

    def sample_reclaim_times(self, rng, n):
        return np.array([self._times.pop(0) for _ in range(n)], dtype=float)


class TestSaveSchedule:
    def test_is_guideline_schedule(self):
        p = GeometricDecreasingLifespan(1.1)
        s = save_schedule(p, c_save=0.5)
        assert s.num_periods >= 1
        assert np.all(s.periods > 0.5)


class TestSimulation:
    def test_job_completes(self, rng):
        p = GeometricDecreasingLifespan(1.05)
        run = simulate_fault_prone_job(p, 0.5, total_work=200.0, rng=rng)
        assert run.completion_time > 200.0  # overhead + losses cost something
        assert run.saves_committed > 0

    def test_no_failures_means_no_loss(self, rng):
        # A failure distribution with an enormous half-life: effectively no
        # failures within the job.
        p = GeometricDecreasingLifespan(1.0 + 1e-7)
        schedule = Schedule([1000.0] * 5)
        run = simulate_fault_prone_job(
            p, 1.0, total_work=2000.0, schedule=schedule, rng=rng
        )
        assert run.failures == 0
        assert run.work_lost == 0.0
        # Completion = work + overhead of the saves used.
        expected_saves = int(np.ceil(2000.0 / 999.0))
        assert run.saves_committed == expected_saves

    def test_guideline_beats_bad_intervals(self):
        """Guideline save intervals finish sooner than extreme alternatives."""
        p = GeometricDecreasingLifespan(1.15)
        c, W = 0.5, 120.0

        def mean_time(schedule, seed=0, n=60):
            rng = np.random.default_rng(seed)
            return float(
                np.mean(
                    [
                        simulate_fault_prone_job(
                            p, c, W, schedule=schedule, rng=rng
                        ).completion_time
                        for _ in range(n)
                    ]
                )
            )

        guided = mean_time(save_schedule(p, c))
        tiny = mean_time(Schedule([0.6] * 4000))
        huge = mean_time(Schedule([80.0] * 200))
        assert guided < tiny
        assert guided < huge

    def test_invalid_total_work(self, rng):
        with pytest.raises(SimulationError):
            simulate_fault_prone_job(UniformRisk(10.0), 1.0, 0.0, rng=rng)

    @pytest.mark.parametrize("total_work, c_save", [
        (math.nan, 1.0), (math.inf, 1.0),
        (10.0, math.nan), (10.0, math.inf), (10.0, -math.inf),
    ])
    def test_non_finite_inputs_rejected_up_front(self, total_work, c_save):
        # Without the check these spin through every epoch and report a
        # misleading "did not finish" (or fail inside the schedule).
        with pytest.raises(SimulationError, match="must be finite"):
            simulate_fault_prone_job(
                UniformRisk(10.0), c_save, total_work, schedule=Schedule([3.0, 3.0]),
                rng=np.random.default_rng(0), max_epochs=10,
            )

    def test_unfinishable_schedule_rejected(self, rng):
        p = UniformRisk(10.0)
        schedule = Schedule([0.5, 0.5])  # both periods below the save cost
        with pytest.raises(SimulationError):
            simulate_fault_prone_job(p, 1.0, 10.0, schedule=schedule, rng=rng)


class TestEdgeCases:
    def test_zero_length_save_schedule_rejected(self, rng):
        # A schedule with no periods cannot even be constructed ...
        with pytest.raises(InvalidScheduleError):
            Schedule([])
        # ... and a single-period one whose save cost consumes the whole
        # period banks nothing (c_save > t0): the job can never finish.
        with pytest.raises(SimulationError):
            simulate_fault_prone_job(
                UniformRisk(10.0), 3.0, 5.0, schedule=Schedule([2.0]), rng=rng
            )

    def test_failure_exactly_at_checkpoint_boundary_kills_period(self):
        """'Reclaimed BY time T_k' (eq. 2.1): a failure landing exactly on a
        save boundary destroys that period's work."""
        p = _FixedFailures([2.0, 100.0])
        schedule = Schedule([2.0, 2.0])  # boundaries at 2.0 and 4.0
        run = simulate_fault_prone_job(
            p, c_save=1.0, total_work=2.0, schedule=schedule,
            rng=np.random.default_rng(0),
        )
        # Epoch 1 dies exactly at the first boundary: nothing banked, the
        # full 2.0 elapsed lost.  Epoch 2 is failure-free and banks both
        # 1-unit periods.
        assert run.failures == 1
        assert run.work_lost == pytest.approx(2.0)
        assert run.saves_committed == 2
        assert run.completion_time == pytest.approx(2.0 + 4.0)

    def test_oversized_save_cost_on_some_periods_still_finishes(self):
        """c_save > t_i zeroes period i's banked work without stalling the
        job, as long as some period clears the save cost."""
        p = _FixedFailures([6.0, 6.0])
        schedule = Schedule([0.5, 5.0])  # first period is pure overhead
        run = simulate_fault_prone_job(
            p, c_save=1.0, total_work=8.0, schedule=schedule,
            rng=np.random.default_rng(0),
        )
        # Only the 5.0-period banks (5.0 - 1.0 = 4.0 per epoch): two epochs,
        # with the first idling from schedule exhaustion (5.5) to its
        # failure (6.0) and losing nothing.
        assert run.failures == 1
        assert run.work_lost == 0.0
        assert run.saves_committed == 4
        assert run.completion_time == pytest.approx(6.0 + 5.5)


_BIT_GENERATORS = (np.random.PCG64, np.random.MT19937, np.random.Philox, np.random.SFC64)


class TestMatchesLoop:
    """The block-drawn simulator is bit-identical to the epoch loop, field by
    field, and leaves the generator where the loop leaves it."""

    @pytest.mark.parametrize("p", list(canonical_families().values()),
                             ids=list(canonical_families()))
    def test_every_family(self, p):
        c = 0.5
        schedule = reference_schedule(p, c)
        per_epoch = float(schedule.work_per_period(c).sum())
        _assert_matches_loop(
            p, c, [w * per_epoch for w in (0.3, 2.0, 25.0, 150.0)], schedule,
            lambda: np.random.default_rng(7),
        )

    @pytest.mark.parametrize("bit_generator", _BIT_GENERATORS, ids=lambda b: b.__name__)
    @pytest.mark.parametrize("p", [UniformRisk(60.0), GeometricDecreasingLifespan(1.1)],
                             ids=["uniform", "geomdec"])
    def test_every_bit_generator(self, bit_generator, p):
        schedule = save_schedule(p, 1.0)
        _assert_matches_loop(
            p, 1.0, [5.0, 80.0, 700.0, 40.0], schedule,
            lambda: np.random.Generator(bit_generator(11)),
        )

    @pytest.mark.parametrize("arm, jobs", [
        ("guided", 10), ("tiny", 5), ("huge", 1),
    ])
    def test_slow_test_arms(self, arm, jobs):
        p = GeometricDecreasingLifespan(1.15)
        schedule = {
            "guided": save_schedule(p, 0.5),
            "tiny": Schedule([0.6] * 4000),
            "huge": Schedule([80.0] * 200),
        }[arm]
        _assert_matches_loop(p, 0.5, [120.0] * jobs, schedule,
                             lambda: np.random.default_rng(0))

    def test_schedule_runs_out_before_failure(self):
        schedule = Schedule([10.0, 20.0, 30.0])  # ends at 60, failure at 100
        (run,) = _assert_matches_loop(
            DeterministicLife(100.0), 1.0, [200.0], schedule,
            lambda: np.random.default_rng(3),
        )
        # 57 banked per epoch: three exhausted epochs, done in the fourth.
        assert run.failures == 3
        assert run.work_lost == 0.0

    def test_failure_exactly_on_a_boundary(self):
        schedule = Schedule([5.0, 7.0, 9.0])
        t1 = float(schedule.boundaries[1])
        (run,) = _assert_matches_loop(
            DeterministicLife(t1), 1.0, [40.0], schedule,
            lambda: np.random.default_rng(3),
        )
        # Every epoch saves period 0 and loses period 1 whole.
        assert (run.failures, run.saves_committed) == (9, 10)
        assert run.work_lost == 9 * 7.0

    def test_save_cost_above_some_periods(self):
        schedule = Schedule([0.5, 3.0, 0.4, 6.0, 0.9])
        _assert_matches_loop(
            UniformRisk(12.0), 1.0, [3.0, 50.0, 400.0], schedule,
            lambda: np.random.default_rng(5),
        )

    def test_max_epochs_exceeded(self):
        p, schedule = UniformRisk(10.0), Schedule([20.0])  # always killed
        fast_rng, loop_rng = np.random.default_rng(9), np.random.default_rng(9)
        with pytest.raises(SimulationError) as fast:
            simulate_fault_prone_job(p, 1.0, 5.0, schedule=schedule, rng=fast_rng,
                                     max_epochs=300)
        with pytest.raises(SimulationError) as loop:
            _loop_job(p, 1.0, 5.0, schedule=schedule, rng=loop_rng, max_epochs=300)
        assert str(fast.value) == str(loop.value)
        np.testing.assert_array_equal(fast_rng.random(4), loop_rng.random(4))

    def test_more_epochs_than_the_block_cap(self, monkeypatch):
        p = GeometricDecreasingLifespan(1.15)
        schedule = save_schedule(p, 0.5)
        # Blocks of at most 3 epochs; each job needs dozens.
        monkeypatch.setattr(checkpointing, "_BLOCK_CELLS", 3 * schedule.num_periods)
        runs = _assert_matches_loop(p, 0.5, [120.0, 300.0], schedule,
                                    lambda: np.random.default_rng(1))
        assert min(r.failures for r in runs) > 3
