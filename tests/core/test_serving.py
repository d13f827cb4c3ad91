"""The resilient plan-serving chain: breakers, tier fallthrough, chaos."""

from __future__ import annotations

from dataclasses import fields

import pytest

from repro.analysis.loadgen import plans_identical
from repro.core.life_functions import UniformRisk
from repro.core.plancache import CacheStats, PlanCache
from repro.core.serving import (
    BREAKER_CLOSED,
    BREAKER_HALF_OPEN,
    BREAKER_OPEN,
    CircuitBreaker,
    PlanServer,
    ServedPlan,
    TierChaos,
    TierStats,
)
from repro.exceptions import FaultInjectionError, PlanServingError


class _Clock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


class TestCircuitBreaker:
    def test_validation(self):
        with pytest.raises(ValueError):
            CircuitBreaker(failure_threshold=0)
        with pytest.raises(ValueError):
            CircuitBreaker(cooldown=-1.0)

    def test_state_machine(self):
        clock = _Clock()
        b = CircuitBreaker(failure_threshold=2, cooldown=10.0, clock=clock)
        assert b.state == BREAKER_CLOSED
        b.record_failure()
        assert b.state == BREAKER_CLOSED and b.consecutive_failures == 1
        b.record_failure()
        assert b.state == BREAKER_OPEN and b.opens == 1
        assert not b.allow()
        assert b.rejections == 1
        # Cooldown elapses: half-open, probes flow.
        clock.now = 10.0
        assert b.state == BREAKER_HALF_OPEN
        assert b.allow()
        # Probe failure re-opens immediately (no threshold wait).
        b.record_failure()
        assert b.state == BREAKER_OPEN and b.opens == 2
        clock.now = 20.0
        assert b.state == BREAKER_HALF_OPEN
        b.record_success()
        assert b.state == BREAKER_CLOSED
        assert b.consecutive_failures == 0

    def test_success_resets_failure_streak(self):
        b = CircuitBreaker(failure_threshold=3)
        b.record_failure()
        b.record_failure()
        b.record_success()
        b.record_failure()
        b.record_failure()
        assert b.state == BREAKER_CLOSED  # never hit 3 consecutive

    def test_as_dict(self):
        b = CircuitBreaker(failure_threshold=1)
        b.record_failure()
        d = b.as_dict()
        assert d["state"] == BREAKER_OPEN
        assert d["opens"] == 1 and d["consecutive_failures"] == 1


#: The counters PlanServer._record / _tier_pass write, and nothing else.
TIER_FIELDS = ("hits", "misses", "errors", "rejected",
               "hit_seconds", "miss_seconds", "error_seconds")


class TestTierStatsAndChaos:
    def test_tier_stats_as_dict(self):
        stats = TierStats(hits=2, misses=1, errors=3, rejected=4)
        d = stats.as_dict()
        assert d["hits"] == 2 and d["misses"] == 1
        assert d["errors"] == 3 and d["rejected"] == 4
        assert d["error_seconds"] == 0.0

    def test_tier_stats_fields(self):
        assert tuple(f.name for f in fields(TierStats)) == TIER_FIELDS
        assert not issubclass(TierStats, CacheStats)
        assert tuple(TierStats().as_dict()) == TIER_FIELDS

    def test_every_tier_field_is_written(self):
        """Each counter moves on some serve: none is dead weight."""
        server = PlanServer(cache=PlanCache(maxsize=16), clock=_Clock(),
                            breaker_threshold=1)
        server.serve("uniform", 1.0, 30.0)  # table miss, cache miss, optimizer hit
        server.serve("uniform", 1.0, 30.0)  # cache hit
        server.chaos = TierChaos({"cache": 1.0}, seed=0)
        server.serve("uniform", 1.0, 31.0)  # cache error opens its breaker ...
        server.serve("uniform", 1.0, 32.0)  # ... which rejects the next query
        touched = {
            name
            for stats in server.tier_stats.values()
            for name, value in stats.as_dict().items()
            if value
        }
        assert touched == set(TIER_FIELDS)
        assert server.tier_stats["cache"].rejected == 1
        for tier in PlanServer.TIERS:
            assert tuple(server.stats_dict()["tiers"][tier]) == TIER_FIELDS

    def test_chaos_validation(self):
        with pytest.raises(ValueError):
            TierChaos({"cache": 1.5})
        with pytest.raises(ValueError):
            TierChaos({"cache": -0.1})

    def test_chaos_deterministic_and_counted(self):
        a = TierChaos({"optimizer": 0.5}, seed=3)
        b = TierChaos({"optimizer": 0.5}, seed=3)

        def draw(chaos):
            fired = []
            for _ in range(50):
                try:
                    chaos.maybe_fail("optimizer")
                except FaultInjectionError:
                    fired.append(True)
                else:
                    fired.append(False)
            return fired

        fates_a, fates_b = draw(a), draw(b)
        assert fates_a == fates_b
        assert a.injected["optimizer"] == sum(fates_a) > 0
        # Unlisted / zero-rate tiers never fire and never draw.
        a.maybe_fail("table")
        assert "table" not in a.injected


class TestPlanServer:
    FAMILY, C, PARAM = "uniform", 1.0, 30.0

    def _server(self, **kw):
        kw.setdefault("cache", PlanCache(maxsize=16))
        return PlanServer(clock=_Clock(), **kw)

    def test_optimizer_serves_cold_then_cache_warm(self):
        server = self._server()
        first = server.serve(self.FAMILY, self.C, self.PARAM)
        assert first.source == "optimizer"
        assert not first.degraded
        second = server.serve(self.FAMILY, self.C, self.PARAM)
        assert second.source == "cache"
        assert second.t0 == first.t0
        assert second.schedule.periods.tolist() == first.schedule.periods.tolist()
        # Table/cache tiers registered their healthy misses on the first query.
        assert server.tier_stats["table"].misses == 2
        assert server.tier_stats["cache"].misses == 1
        assert server.tier_stats["cache"].hits == 1
        assert server.served == 2 and server.exhausted == 0

    def test_chaos_pushes_to_guideline(self):
        chaos = TierChaos({"cache": 1.0, "optimizer": 1.0}, seed=0)
        server = self._server(chaos=chaos)
        plan = server.serve(self.FAMILY, self.C, self.PARAM)
        assert plan.source == "guideline"
        assert plan.degraded
        assert plan.expected_work > 0.0
        assert self.C < plan.t0 < self.PARAM
        assert server.tier_stats["optimizer"].errors == 1

    def test_breakers_open_under_persistent_faults(self):
        chaos = TierChaos({"optimizer": 1.0}, seed=1)
        server = self._server(breaker_threshold=2, cache=None)
        server.chaos = chaos
        for _ in range(4):
            plan = server.serve(self.FAMILY, self.C, self.PARAM)
            assert plan.source == "guideline"
        breaker = server.breakers["optimizer"]
        assert breaker.state == BREAKER_OPEN
        assert server.tier_stats["optimizer"].errors == 2
        assert server.tier_stats["optimizer"].rejected == 2
        # Guideline kept every query alive.
        assert server.served == 4 and server.exhausted == 0

    def test_half_open_probe_recovers(self):
        clock = _Clock()
        server = PlanServer(
            cache=None, breaker_threshold=1, breaker_cooldown=5.0, clock=clock
        )
        server.chaos = TierChaos({"optimizer": 1.0}, seed=2)
        server.serve(self.FAMILY, self.C, self.PARAM)
        assert server.breakers["optimizer"].state == BREAKER_OPEN
        # Cooldown elapses and the fault clears: the probe re-closes the tier.
        clock.now = 5.0
        server.chaos = None
        plan = server.serve(self.FAMILY, self.C, self.PARAM)
        assert plan.source == "optimizer"
        assert server.breakers["optimizer"].state == BREAKER_CLOSED

    def test_total_outage_raises_plan_serving_error(self):
        chaos = TierChaos(
            {"table": 1.0, "cache": 1.0, "optimizer": 1.0, "guideline": 1.0},
            seed=4,
        )
        server = self._server(chaos=chaos)
        with pytest.raises(PlanServingError):
            server.serve(self.FAMILY, self.C, self.PARAM)
        assert server.exhausted == 1 and server.served == 0

    def test_guideline_miss_when_no_productive_period(self):
        # c >= lifespan: even the closed form cannot make a productive period.
        server = self._server()
        with pytest.raises(PlanServingError):
            server.serve("uniform", 50.0, 30.0)

    def test_unservable_guideline_input_is_a_miss(self):
        # c >= lifespan leaves no productive period: every tier misses, so
        # repeating the query must not open the guideline breaker ...
        server = self._server()
        for _ in range(3):
            with pytest.raises(PlanServingError):
                server.serve("uniform", 50.0, 30.0)
        stats = server.tier_stats["guideline"]
        assert (stats.misses, stats.errors) == (3, 0)
        assert server.breakers["guideline"].state == BREAKER_CLOSED
        # ... so the last resort still answers a valid query afterwards.
        server.chaos = TierChaos({"optimizer": 1.0}, seed=0)
        plan = server.serve(self.FAMILY, 1.0, 100.0)
        assert plan.source == "guideline"

    def test_unknown_family_rejected(self):
        server = self._server()
        with pytest.raises(Exception):
            server.serve("no-such-family", 1.0, 30.0)

    def test_stats_dict_shape(self):
        server = self._server()
        server.serve(self.FAMILY, self.C, self.PARAM)
        d = server.stats_dict()
        assert set(d) == {"served", "exhausted", "coalesced", "tiers", "breakers"}
        assert set(d["tiers"]) == set(PlanServer.TIERS)
        assert set(d["breakers"]) == set(PlanServer.TIERS)
        assert d["served"] == 1

    def test_reset_breakers(self):
        server = self._server(breaker_threshold=1, cache=None)
        server.chaos = TierChaos({"optimizer": 1.0}, seed=5)
        server.serve(self.FAMILY, self.C, self.PARAM)
        assert server.breakers["optimizer"].state == BREAKER_OPEN
        server.reset_breakers()
        assert all(
            b.state == BREAKER_CLOSED for b in server.breakers.values()
        )


class _BrokenTable:
    """A table server whose store is unreachable."""

    def serve_from_table_batch(self, families, cs, param_values, polish=True):
        raise RuntimeError("table store unreachable")


class TestBrokenTableTier:
    QUERIES = [("uniform", 1.0, 30.0), ("uniform", 2.0, 60.0),
               ("poly", 1.0, 40.0), ("geomdec", 0.5, 1.3)]

    def _server(self, table_server, **kw):
        kw.setdefault("cache", PlanCache(maxsize=16))
        return PlanServer(table_server=table_server, breaker_threshold=3,
                          clock=_Clock(), **kw)

    def test_batch_counts_one_error_per_admitted_lane(self):
        fams, cs, vs = map(list, zip(*self.QUERIES))
        server = self._server(_BrokenTable())
        plans = server.serve_batch(fams, cs, vs)
        # Admission precedes the one batched call, so all four lanes ran.
        assert server.tier_stats["table"].errors == len(self.QUERIES)
        assert server.breakers["table"].state == BREAKER_OPEN
        expected = self._server(None).serve_batch(fams, cs, vs)
        assert all(plans_identical(a, b) for a, b in zip(plans, expected))

    def test_scalar_loop_opens_breaker_at_threshold(self):
        server = self._server(_BrokenTable())
        reference = self._server(None)
        for query in self.QUERIES:
            assert plans_identical(server.serve(*query), reference.serve(*query))
        stats = server.tier_stats["table"]
        assert (stats.errors, stats.rejected) == (3, 1)
        assert server.breakers["table"].opens == 1

    def test_table_error_is_the_exhausted_querys_cause(self):
        server = self._server(_BrokenTable(), cache=None)
        with pytest.raises(PlanServingError) as info:
            server.serve("uniform", 50.0, 30.0)
        assert isinstance(info.value.__cause__, RuntimeError)


class TestGuidelineTier:
    @pytest.mark.parametrize(
        "family,param", [("uniform", 30.0), ("poly", 30.0),
                         ("geomdec", 1.1), ("geominc", 0.9)]
    )
    def test_closed_form_serves_every_family(self, family, param):
        chaos = TierChaos({"cache": 1.0, "optimizer": 1.0}, seed=6)
        server = PlanServer(cache=PlanCache(maxsize=4), chaos=chaos,
                            clock=_Clock())
        plan = server.serve(family, 0.5, param)
        assert plan.source == "guideline"
        assert plan.schedule.num_periods >= 1
        assert plan.expected_work >= 0.0

    def test_guideline_close_to_optimal_for_uniform(self):
        """The degraded answer should retain most of the optimizer's work."""
        cache = PlanCache(maxsize=4)
        server = PlanServer(cache=cache, clock=_Clock())
        best = server.serve("uniform", 1.0, 30.0)
        degraded_server = PlanServer(
            cache=PlanCache(maxsize=4),
            chaos=TierChaos({"cache": 1.0, "optimizer": 1.0}, seed=7),
            clock=_Clock(),
        )
        degraded = degraded_server.serve("uniform", 1.0, 30.0)
        p = UniformRisk(30.0)
        assert degraded.schedule.expected_work(p, 1.0) >= (
            0.5 * best.schedule.expected_work(p, 1.0)
        )


class TestServedPlan:
    def test_degraded_flag(self):
        from repro.core.schedule import Schedule

        plan = ServedPlan(
            family="uniform", c=1.0, param_value=30.0, t0=5.0,
            schedule=Schedule([5.0]), expected_work=1.0, source="guideline",
        )
        assert plan.degraded
        assert not ServedPlan(
            family="uniform", c=1.0, param_value=30.0, t0=5.0,
            schedule=Schedule([5.0]), expected_work=1.0, source="table",
        ).degraded
