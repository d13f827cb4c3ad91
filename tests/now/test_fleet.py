"""The vectorized fleet engine: bit-parity with run_farm + policy semantics."""

from __future__ import annotations

import dataclasses
import gc
import math

import numpy as np
import pytest

from repro.analysis.fleetbench import (
    cross_core_check,
    cycle_check,
    fleet_workload,
    parity_check,
    run_policy_comparison,
    scalar_baseline,
)
from repro.core.schedule import Schedule
from repro.exceptions import SimulationError
from repro.faults import CrashFault, FaultPlan, LifeDriftFault, MessageLossFault
from repro.now import fleet as fleet_module
from repro.now.fleet import (
    FLEET_CORES,
    FLEET_POLICIES,
    FleetResult,
    FleetSpec,
    host_network,
    host_rng,
    mean_field_fleet,
    plan_fleet_schedules,
    run_fleet,
)


class TestParity:
    """n = 1 fleets must be bit-identical to run_farm — the tentpole gate."""

    def test_clean_parity_all_policies(self):
        report = parity_check(seed=3, with_faults=False,
                              n_tasks=512, horizon=600.0)
        assert report["ok"], report["mismatches"]

    def test_faulted_parity_all_policies(self):
        report = parity_check(seed=7, with_faults=True)
        assert report["ok"], report["mismatches"]

    @pytest.mark.parametrize("family", ["poly", "geomdec", "geominc"])
    def test_parity_other_families(self, family):
        report = parity_check(seed=11, family=family, with_faults=False,
                              policies=("sharing",), n_tasks=512,
                              horizon=600.0)
        assert report["ok"], report["mismatches"]


class TestCrossCore:
    """The batched calendar-queue core must be bit-identical to the heap
    oracle — all policies, clean and under every fault class."""

    def test_all_policies_all_fault_classes(self):
        report = cross_core_check(seed=5)
        assert report["ok"], report["mismatches"]

    def test_start_absent(self):
        report = cross_core_check(seed=9, start_absent=True)
        assert report["ok"], report["mismatches"]

    @pytest.mark.parametrize("family", ["poly", "geomdec", "geominc"])
    def test_other_families(self, family):
        report = cross_core_check(seed=11, family=family,
                                  policies=("sharing", "stealing"))
        assert report["ok"], report["mismatches"]

    def test_heap_n1_matches_run_farm(self):
        report = parity_check(seed=13, core="heap", n_tasks=512,
                              horizon=600.0)
        assert report["ok"], report["mismatches"]

    def test_bucket_width_is_pure_performance_knob(self):
        """Any bucket width gives the same results — width only moves work
        between the bucket partition and the in-bucket sort."""
        spec = FleetSpec.heterogeneous(12, seed=4)
        durations = fleet_workload(12, 8.0, 0.25)
        ref = run_fleet(spec, durations, 200.0, policy="stealing",
                        core="heap")
        for width in (0.37, 5.0, 10_000.0):
            got = run_fleet(spec, durations, 200.0, policy="stealing",
                            core="batched", bucket_width=width)
            assert got.events_processed == ref.events_processed
            assert got.completion_time == ref.completion_time
            assert np.array_equal(got.work_done, ref.work_done)
            assert np.array_equal(got.steals_succeeded, ref.steals_succeeded)

    def test_result_records_core(self):
        spec = FleetSpec.homogeneous(2, seed=1)
        durations = np.full(8, 0.25)
        for core in FLEET_CORES:
            result = run_fleet(spec, durations, 50.0, core=core)
            assert result.core == core


def _assert_cores_agree(spec, durations, horizon, policy, start_absent,
                        drift) -> FleetResult:
    """Run both cores and require every FleetResult field to match."""
    runs = {}
    for core in FLEET_CORES:
        faults = (FaultPlan(seed=spec.seed + 1,
                            injectors=(LifeDriftFault(0.4, 0.5),))
                  if drift else None)
        runs[core] = run_fleet(spec, durations, horizon, policy=policy,
                               faults=faults, start_absent=start_absent,
                               record_log=True, core=core)
    heap, batched = runs["heap"], runs["batched"]
    _assert_same_result(heap, batched, skip=("core",))
    return batched


def _assert_same_result(a: FleetResult, b: FleetResult, skip=()) -> None:
    """Every FleetResult field equal (NaN matches NaN; fault logs by digest)."""
    for field in dataclasses.fields(FleetResult):
        if field.name in skip:
            continue
        x, y = getattr(a, field.name), getattr(b, field.name)
        if field.name == "fault_log":
            assert (x is None) == (y is None), field.name
            if x is not None:
                assert x.digest() == y.digest(), field.name
        elif isinstance(x, np.ndarray):
            assert np.array_equal(x, y), field.name
        elif isinstance(x, float) and math.isnan(x):
            assert math.isnan(y), field.name
        else:
            assert x == y, field.name


#: (start_absent, drift): each owner-timeline boundary case runs all three.
_TIMELINE_CASES = [(False, False), (True, False), (False, True)]


class TestOwnerTimelineBoundaries:
    """The batched core's bulk owner-timeline precompute must match the
    heap core's lazy draws across host chunks and 256-draw block refills."""

    @pytest.mark.parametrize("chunk", [1, 3])
    @pytest.mark.parametrize("start_absent,drift", _TIMELINE_CASES)
    def test_host_chunks(self, monkeypatch, chunk, start_absent, drift):
        monkeypatch.setattr(fleet_module, "_TIMELINE_CHUNK", chunk)
        spec = FleetSpec.heterogeneous(
            7, param_range=(4.0, 16.0), c_range=(0.1, 0.5),
            present_mean_range=(0.5, 2.0), seed=21,
        )
        durations = fleet_workload(7, 64.0, 0.25)
        result = _assert_cores_agree(spec, durations, 200.0, "stealing",
                                     start_absent, drift)
        assert np.all(result.episodes > 10)

    @pytest.mark.parametrize("start_absent,drift", _TIMELINE_CASES)
    def test_block_refills(self, start_absent, drift):
        # Short owner cycles over a long horizon: every host draws several
        # 256-wide presence/absence blocks, and the pool never drains.
        spec = FleetSpec.homogeneous(3, family="geomdec", param=2.0, c=0.05,
                                     present_mean=0.25, seed=8)
        durations = np.full(1 << 16, 0.0625)
        result = _assert_cores_agree(spec, durations, 1000.0, "sharing",
                                     start_absent, drift)
        assert result.episodes.min() > 2 * 256
        assert not result.finished


class TestCollectorPause:
    """run_fleet runs with the cyclic collector off and hands the caller's
    setting back; the pause is free because a run makes no cycles."""

    def _run(self, core="batched"):
        spec = FleetSpec.homogeneous(4, seed=2)
        return run_fleet(spec, np.full(64, 0.25), 60.0, policy="stealing",
                         core=core)

    @pytest.mark.parametrize("core", FLEET_CORES)
    def test_paused_inside_and_restored(self, monkeypatch, core):
        seen = []
        leave = fleet_module._Rules.leave

        def spy(rules, h, now, reclaim_at):
            seen.append(gc.isenabled())
            return leave(rules, h, now, reclaim_at)

        monkeypatch.setattr(fleet_module._Rules, "leave", spy)
        assert gc.isenabled()
        self._run(core)
        assert seen and not any(seen)
        assert gc.isenabled()

    def test_caller_disabled_stays_disabled(self):
        gc.disable()
        try:
            self._run()
            assert not gc.isenabled()
        finally:
            gc.enable()

    @pytest.mark.parametrize("core", FLEET_CORES)
    def test_restored_when_a_handler_raises(self, monkeypatch, core):
        def boom(rules, h, now):
            raise RuntimeError("handler failed mid-drain")

        monkeypatch.setattr(fleet_module._Rules, "dispatch", boom)
        with pytest.raises(RuntimeError, match="mid-drain"):
            self._run(core)
        assert gc.isenabled()

    def test_runs_leave_no_cyclic_garbage(self):
        # Every policy x core x fault class, record_log=True.
        report = cycle_check()
        assert report["ok"], report["mismatches"]
        assert report["checks"] == 3 * 2 * 7 + 1


def _packed_schedule(periods, c: float, speed: float,
                     duration: float) -> Schedule:
    """The schedule a dispatch actually runs on identical dyadic tasks.

    Each planned ``t_i`` packs the tasks fitting budget ``(t_i - c) * speed``
    and then occupies ``c + w_i / speed`` of wall time.  An episode stops at
    its first period that takes no task.
    """
    packed = []
    for t in periods:
        if t <= c:
            break
        budget = (c + (t - c) * speed) - c
        k = int(budget // duration)
        while (k + 1) * duration <= budget + 1e-12:
            k += 1
        while k > 0 and k * duration > budget + 1e-12:
            k -= 1
        if k == 0:
            break
        packed.append(c + k * duration / speed)
    return Schedule(np.array(packed))


class TestPaperAnchor:
    """Mean committed work per owner episode is eq. (2.1) on the packed
    schedule: ``E(S'; p) x speed``, for every Section 4 family."""

    N_HOSTS = 48
    HORIZON = 1500.0

    @pytest.mark.parametrize("family,param,c,d,duration", [
        ("uniform", 24.0, 1.0, 1, 0.125),
        ("poly", 24.0, 1.0, 2, 0.125),
        ("geomdec", 1.2, 0.25, 1, 0.0625),
        ("geominc", 16.0, 0.1, 1, 0.0625),
    ])
    def test_mean_work_per_episode_matches_eq_2_1(self, family, param, c, d,
                                                  duration):
        speed = 2.0
        spec = FleetSpec.homogeneous(self.N_HOSTS, family=family, param=param,
                                     c=c, present_mean=1.0, speed=speed, d=d,
                                     seed=17)
        plan = plan_fleet_schedules(spec)
        packed = _packed_schedule(plan.schedule(0).periods, c, speed,
                                  duration)
        life = fleet_module.host_life(spec, 0)
        expected = packed.expected_work(life, c) * speed
        per_episode_max = float(np.sum(packed.periods - c)) * speed
        in_flight_max = (self.N_HOSTS * float(np.max(packed.periods - c))
                         * speed / duration)
        # Twice the mean demand: the shared pool never drains, so no
        # dispatch comes back empty for want of tasks.
        episodes = self.HORIZON / (1.0 + life.expected_lifetime())
        n_tasks = int(2.0 * self.N_HOSTS * episodes * expected / duration
                      + in_flight_max)
        result = run_fleet(spec, np.full(n_tasks, duration), self.HORIZON,
                           policy="sharing", plan=plan)
        assert result.tasks_completed + in_flight_max < n_tasks
        assert int(np.sum(result.periods_killed)) > 0
        per_host = result.work_done / result.episodes
        mean = float(np.mean(per_host))
        se = float(np.std(per_host, ddof=1)) / math.sqrt(self.N_HOSTS)
        # Each host's last episode may be cut by the horizon: it counts in
        # the denominator but banks between 0 and the whole packed schedule.
        truncation = per_episode_max / float(np.min(result.episodes))
        assert abs(mean - expected) <= 4.0 * se + truncation, (
            mean, expected, se, truncation)


class TestFleetSpec:
    def test_homogeneous_shape(self):
        spec = FleetSpec.homogeneous(5)
        assert spec.n_hosts == 5
        assert spec.cs.shape == (5,)
        assert np.array_equal(spec.host_keys, np.arange(5))

    def test_heterogeneous_deterministic(self):
        a = FleetSpec.heterogeneous(8, seed=3)
        b = FleetSpec.heterogeneous(8, seed=3)
        assert np.array_equal(a.cs, b.cs)
        assert np.array_equal(a.speeds, b.speeds)
        assert not np.array_equal(
            a.cs, FleetSpec.heterogeneous(8, seed=4).cs
        )

    def test_bad_family_rejected(self):
        with pytest.raises(SimulationError):
            FleetSpec.homogeneous(2, family="weibull")

    def test_bad_speed_rejected(self):
        with pytest.raises(SimulationError):
            FleetSpec(
                family="uniform",
                cs=np.ones(2),
                params=np.full(2, 64.0),
                speeds=np.array([1.0, 0.0]),
                present_means=np.full(2, 8.0),
            )

    def test_nonfinite_speed_rejected(self):
        with pytest.raises(SimulationError):
            FleetSpec(
                family="uniform",
                cs=np.ones(2),
                params=np.full(2, 64.0),
                speeds=np.array([1.0, math.inf]),
                present_means=np.full(2, 8.0),
            )

    def test_duplicate_keys_rejected(self):
        with pytest.raises(SimulationError):
            FleetSpec(
                family="uniform",
                cs=np.ones(2),
                params=np.full(2, 64.0),
                speeds=np.ones(2),
                present_means=np.full(2, 8.0),
                host_keys=np.array([3, 3]),
            )

    @pytest.mark.parametrize("field", ["cs", "present_means"])
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_nonfinite_rates_rejected(self, field, bad):
        # A NaN present mean used to run as an always-absent host, and a
        # NaN or inf c failed deep inside the t0 search.
        columns = {"cs": np.ones(2), "present_means": np.full(2, 8.0)}
        columns[field] = np.array([1.0, bad])
        with pytest.raises(SimulationError, match=rf"^{field}\b"):
            FleetSpec(family="uniform", params=np.full(2, 64.0),
                      speeds=np.ones(2), **columns)

    @pytest.mark.parametrize("field,kwargs", [
        ("host_keys", {"host_keys": np.array([0, -1])}),
        ("seed", {"seed": -3}),
    ])
    def test_negative_seeding_inputs_rejected(self, field, kwargs):
        # Both feed default_rng([seed, s, key]), which takes no negatives.
        with pytest.raises(SimulationError, match=field):
            FleetSpec(
                family="uniform",
                cs=np.ones(2),
                params=np.full(2, 64.0),
                speeds=np.ones(2),
                present_means=np.full(2, 8.0),
                **kwargs,
            )


_SEED_KEYS = [0, 1, 2**32 - 1, 2**32, 2**40]


class TestHostGenerators:
    """Bulk-seeded host streams must be default_rng([seed, s, key]) exactly."""

    @pytest.mark.parametrize("seed", [0, 1, 2**32 + 1])
    @pytest.mark.parametrize("keys", (
        [[k] for k in _SEED_KEYS]
        + [[2**32 - 1, 2**32], [2**40, 0]]
        + [_SEED_KEYS + list(range(2, 2997))]
    ), ids=lambda keys: f"{len(keys)}hosts-{keys[0]}")
    def test_states_match_default_rng(self, seed, keys):
        spec = dataclasses.replace(FleetSpec.homogeneous(len(keys), seed=seed),
                                   host_keys=np.array(keys))
        owner = fleet_module.host_generators(seed, 0, keys)
        steal = fleet_module.host_generators(seed, 1, keys)
        assert len(owner) == len(steal) == len(keys)
        for i, key in enumerate(keys):
            assert (owner[i].bit_generator.state
                    == host_rng(spec, i).bit_generator.state), key
            assert (steal[i].bit_generator.state
                    == np.random.default_rng([seed, 1, key])
                    .bit_generator.state), key

    def test_run_fleet_matches_scalar_seeding(self, monkeypatch):
        spec = dataclasses.replace(
            FleetSpec.heterogeneous(48, seed=5),
            host_keys=np.arange(2**32 - 24, 2**32 + 24),
        )
        durations = fleet_workload(48, 8.0, 0.25)

        def run():
            return run_fleet(
                spec, durations, 200.0, policy="stealing", record_log=True,
                faults=FaultPlan(seed=6, injectors=(CrashFault(30.0, 2.0),)),
            )

        bulk = run()
        monkeypatch.setattr(
            fleet_module, "host_generators",
            lambda seed, stream, keys: [np.random.default_rng([seed, stream, k])
                                        for k in keys],
        )
        scalar = run()
        assert bulk.steals_attempted.sum() > 0 and bulk.crashes.sum() > 0
        _assert_same_result(bulk, scalar)


class TestPlan:
    def test_periods_exceed_overhead(self):
        spec = FleetSpec.heterogeneous(16, seed=5)
        plan = plan_fleet_schedules(spec, grid=5)
        for i in range(16):
            schedule = plan.schedule(i)
            assert schedule.num_periods >= 1
            assert all(t > spec.cs[i] for t in schedule.periods)

    def test_expected_work_positive(self):
        spec = FleetSpec.homogeneous(4)
        plan = plan_fleet_schedules(spec, grid=5)
        assert np.all(plan.expected_work > 0)


class TestPolicySemantics:
    def _run(self, policy, n_hosts=24, seed=2, **kw):
        spec = FleetSpec.homogeneous(n_hosts, seed=seed)
        durations = fleet_workload(n_hosts, 16.0, 0.25)
        return run_fleet(spec, durations, 600.0, policy=policy, **kw)

    def test_sharing_never_steals(self):
        result = self._run("sharing")
        assert result.total_steals == 0
        assert result.finished

    def test_stealing_steals_under_imbalance(self):
        result = self._run("stealing")
        assert result.finished
        assert np.sum(result.steals_attempted) > 0

    def test_latency_charges_rtt(self):
        plain = self._run("stealing")
        latency = self._run("stealing-latency")
        assert float(np.sum(plain.steal_wait)) == 0.0
        assert float(np.sum(latency.steal_wait)) > 0.0
        assert np.sum(latency.steal_wait) == pytest.approx(
            np.sum(latency.steals_succeeded) * 1.0  # homogeneous c = 1
        )

    def test_policies_complete_same_work(self):
        results = {p: self._run(p) for p in FLEET_POLICIES}
        for result in results.values():
            assert result.finished
            assert result.tasks_completed == result.tasks_total

    def test_faster_hosts_do_more_work(self):
        n = 12
        speeds = np.where(np.arange(n) < n // 2, 4.0, 1.0)
        spec = FleetSpec(
            family="uniform",
            cs=np.ones(n),
            params=np.full(n, 64.0),
            speeds=speeds.astype(float),
            present_means=np.full(n, 8.0),
            seed=9,
        )
        durations = fleet_workload(n, 24.0, 0.25)
        result = run_fleet(spec, durations, 600.0, policy="sharing")
        fast = float(np.sum(result.work_done[: n // 2]))
        slow = float(np.sum(result.work_done[n // 2:]))
        assert fast > slow

    def test_churn_kills_and_restores(self):
        spec = FleetSpec.homogeneous(16, seed=4)
        durations = fleet_workload(16, 16.0, 0.25)
        faults = FaultPlan(seed=5, injectors=(
            CrashFault(mtbf=30.0, restart_time=2.0),
            MessageLossFault(0.2),
        ))
        result = run_fleet(spec, durations, 400.0, policy="sharing",
                           faults=faults)
        assert int(np.sum(result.crashes)) > 0
        assert result.fault_log is not None
        assert result.fault_log.digest()
        # Conservation still holds under churn.
        assert result.tasks_completed <= result.tasks_total


class TestValidation:
    def test_bad_policy(self):
        spec = FleetSpec.homogeneous(2)
        with pytest.raises(SimulationError):
            run_fleet(spec, np.ones(4), 10.0, policy="gossip")

    @pytest.mark.parametrize("horizon", [0.0, -5.0, math.inf, math.nan])
    def test_bad_horizon(self, horizon):
        spec = FleetSpec.homogeneous(2)
        with pytest.raises(SimulationError,
                           match="horizon must be positive and finite"):
            run_fleet(spec, np.ones(4), horizon)

    @pytest.mark.parametrize("fraction", [0.0, -0.25, 1.5, math.nan])
    def test_bad_steal_fraction(self, fraction):
        spec = FleetSpec.homogeneous(2)
        with pytest.raises(SimulationError,
                           match=r"steal_fraction must lie in \(0, 1\]"):
            run_fleet(spec, np.ones(4), 10.0, steal_fraction=fraction)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, 0.0])
    def test_bad_task_duration(self, bad):
        spec = FleetSpec.homogeneous(4)
        durations = np.full(200, 0.25)
        durations[137] = bad
        with pytest.raises(SimulationError,
                           match=f"positive and finite, got {bad} at index 137"):
            run_fleet(spec, durations, 100.0, policy="stealing")

    def test_bad_core(self):
        spec = FleetSpec.homogeneous(2)
        with pytest.raises(SimulationError, match="unknown fleet core"):
            run_fleet(spec, np.ones(4), 10.0, core="quantum")

    @pytest.mark.parametrize("width", [0.0, -1.0, math.inf])
    def test_bad_bucket_width(self, width):
        spec = FleetSpec.homogeneous(2)
        with pytest.raises(SimulationError,
                           match="bucket_width must be positive and finite"):
            run_fleet(spec, np.ones(4), 10.0, bucket_width=width)

    def test_heterogeneous_rejects_empty_fleet(self):
        with pytest.raises(SimulationError, match="at least one host"):
            FleetSpec.heterogeneous(0)

    @pytest.mark.parametrize("kwargs", [
        {"c_range": (0.0, 1.0)},
        {"c_range": (2.0, 1.0)},
        {"param_range": (-3.0, 5.0)},
        {"speed_range": (0.5, math.inf)},
        {"present_mean_range": (math.nan, 4.0)},
    ])
    def test_heterogeneous_rejects_bad_ranges(self, kwargs):
        with pytest.raises(SimulationError, match="0 < lo <= hi"):
            FleetSpec.heterogeneous(4, **kwargs)

    def test_empty_durations(self):
        spec = FleetSpec.homogeneous(2)
        with pytest.raises(SimulationError):
            run_fleet(spec, np.array([]), 10.0)

    def test_nonpositive_duration(self):
        spec = FleetSpec.homogeneous(2)
        with pytest.raises(SimulationError):
            run_fleet(spec, np.array([1.0, 0.0]), 10.0)


class TestMeanField:
    def test_prediction_in_range(self):
        spec = FleetSpec.homogeneous(100, seed=7)
        plan = plan_fleet_schedules(spec, grid=9)
        durations = fleet_workload(100, 32.0, 0.25)
        result = run_fleet(spec, durations, 800.0, plan=plan)
        mf = mean_field_fleet(spec, plan, float(durations.sum()))
        assert result.finished
        assert 0.25 <= mf["makespan"] / result.completion_time <= 4.0
        assert mf["goodput"] > 0
        assert mf["per_host_goodput"].shape == (100,)

    def test_latency_policy_predicts_slower(self):
        spec = FleetSpec.homogeneous(50, seed=7)
        plan = plan_fleet_schedules(spec, grid=9)
        base = mean_field_fleet(spec, plan, 1000.0, policy="stealing")
        slow = mean_field_fleet(spec, plan, 1000.0,
                                policy="stealing-latency")
        assert slow["makespan"] >= base["makespan"]


class TestHarness:
    def test_policy_comparison_record(self):
        spec = FleetSpec.homogeneous(8, seed=1)
        durations = fleet_workload(8, 8.0, 0.25)
        record = run_policy_comparison(spec, durations, 300.0)
        assert set(record["policies"]) == set(FLEET_POLICIES)
        for r in record["policies"].values():
            assert r["events_per_sec"] > 0
            assert r["mean_field"]["makespan"] > 0

    def test_scalar_baseline_matches_contract(self):
        spec = FleetSpec.homogeneous(4, seed=1)
        plan = plan_fleet_schedules(spec, grid=5)
        durations = fleet_workload(4, 8.0, 0.25)
        base = scalar_baseline(spec, durations, 300.0, plan=plan)
        assert base["events"] > 0
        assert base["tasks_completed"] == durations.size

    def test_host_helpers_agree_with_spec(self):
        spec = FleetSpec.heterogeneous(3, seed=2)
        net = host_network(spec, 1)
        assert len(net) == 1
        assert net.c == spec.cs[1]
        assert net.workstations[0].speed == spec.speeds[1]
        # Substreams differ per host but are reproducible.
        a = host_rng(spec, 0).random(4)
        b = host_rng(spec, 0).random(4)
        other = host_rng(spec, 1).random(4)
        assert np.array_equal(a, b)
        assert not np.array_equal(a, other)
