"""The content-addressed schedule plan cache (fingerprints, LRU, disk tier)."""

from __future__ import annotations

import json
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro
from repro.core import plancache
from repro.core.optimizer import _guideline_start_cache, _guideline_start
from repro.core.plancache import (
    CACHE_SCHEMA_VERSION,
    CacheStats,
    PlanCache,
    default_plan_cache,
    plan_key,
    reset_default_plan_cache,
)
from repro.core.uniqueness import scan_t0_landscape
from repro.exceptions import PlanCacheError


class TestFingerprint:
    def test_closed_form_families_stable_and_distinct(self):
        fps = {
            repro.UniformRisk(200.0).fingerprint(),
            repro.UniformRisk(200.0 + 1e-9).fingerprint(),
            repro.PolynomialRisk(3, 200.0).fingerprint(),
            repro.GeometricDecreasingLifespan(1.2).fingerprint(),
            repro.GeometricIncreasingRisk(30.0).fingerprint(),
            repro.WeibullLife(k=1.5, scale=100.0).fingerprint(),
        }
        assert len(fps) == 6  # all distinct, including the 1e-9 L perturbation
        assert repro.UniformRisk(200.0).fingerprint() == \
            repro.UniformRisk(200.0).fingerprint()

    def test_fingerprint_encodes_exact_float(self):
        # float.hex round-trips exactly: no two distinct L collide.
        a = repro.UniformRisk(np.nextafter(200.0, 300.0)).fingerprint()
        b = repro.UniformRisk(200.0).fingerprint()
        assert a != b

    def test_composites_recurse(self):
        mix = repro.MixtureLife(
            [repro.UniformRisk(100.0), repro.UniformRisk(300.0)], [0.5, 0.5]
        )
        fp = mix.fingerprint()
        assert "MixtureLife" in fp
        assert repro.UniformRisk(100.0).fingerprint().split("|")[0] in fp
        scaled = repro.TimeScaledLife(repro.UniformRisk(100.0), 2.0)
        assert "TimeScaledLife" in scaled.fingerprint()

    def test_plan_key_distinguishes_all_inputs(self):
        fp = repro.UniformRisk(200.0).fingerprint()
        keys = {
            plan_key("opt", fp, 2.0),
            plan_key("opt", fp, 2.0 + 1e-12),
            plan_key("opt", fp, 2.0, grid=129),
            plan_key("opt", fp, 2.0, grid=257),
            plan_key("t0opt", fp, 2.0),
        }
        assert len(keys) == 5

    def test_plan_key_rejects_unencodable_extras(self):
        with pytest.raises(PlanCacheError):
            plan_key("opt", "fp", 1.0, bad=object())


class TestMemoryTier:
    def test_hit_returns_same_object(self):
        cache = PlanCache()
        p = repro.UniformRisk(120.0)
        a = repro.optimize_schedule(p, 3.0, cache=cache)
        b = repro.optimize_schedule(p, 3.0, cache=cache)
        assert a is b
        # Two misses on the cold call (the nested guideline-start t0 search
        # rides the same cache), at least one hit on the warm call.
        assert cache.stats.hits >= 1
        assert cache.stats.misses >= 1

    def test_lru_eviction(self):
        cache = PlanCache(maxsize=2)
        for i in range(4):
            cache.get_or_compute(f"k{i}", lambda i=i: i)
        assert len(cache) == 2
        assert cache.stats.evictions == 2
        assert "k3" in cache and "k0" not in cache

    def test_uncacheable_key_bypasses(self):
        cache = PlanCache()
        assert cache.get_or_compute(None, lambda: 42) == 42
        assert cache.stats.uncacheable == 1
        assert len(cache) == 0

    def test_stats_accounting(self):
        stats = CacheStats()
        assert stats.lookups == 0 and stats.hit_rate == 0.0
        stats.hits, stats.disk_hits, stats.misses = 3, 1, 4
        assert stats.lookups == 8
        assert stats.hit_rate == pytest.approx(0.5)
        as_dict = stats.as_dict()
        assert as_dict["hits"] == 3 and "hit_rate" in as_dict


class TestCachedOptimizers:
    @settings(max_examples=10, deadline=None)
    @given(
        L=st.floats(min_value=50.0, max_value=500.0),
        c=st.floats(min_value=0.5, max_value=5.0),
    )
    def test_cache_hit_bit_identical_to_cold_run(self, L, c):
        p = repro.UniformRisk(L)
        cold = repro.optimize_schedule(p, c)
        cache = PlanCache()
        repro.optimize_schedule(p, c, cache=cache)  # miss: populates
        warm = repro.optimize_schedule(p, c, cache=cache)  # hit
        assert cache.stats.hits >= 1
        np.testing.assert_array_equal(cold.schedule.periods, warm.schedule.periods)
        assert cold.expected_work == warm.expected_work

    def test_t0opt_rides_cache(self):
        cache = PlanCache()
        p = repro.GeometricIncreasingRisk(30.0)
        cold = repro.optimize_t0_via_recurrence(p, 1.0)
        repro.optimize_t0_via_recurrence(p, 1.0, cache=cache)
        t0, outcome, ew = repro.optimize_t0_via_recurrence(p, 1.0, cache=cache)
        assert cache.stats.hits >= 1
        assert t0 == cold[0] and ew == cold[2]
        np.testing.assert_array_equal(outcome.schedule.periods,
                                      cold[1].schedule.periods)

    def test_landscape_rides_cache(self):
        cache = PlanCache()
        p = repro.UniformRisk(100.0)
        a = scan_t0_landscape(p, 2.0, n_points=65, cache=cache)
        b = scan_t0_landscape(p, 2.0, n_points=65, cache=cache)
        assert a is b
        cold = scan_t0_landscape(p, 2.0, n_points=65)
        np.testing.assert_array_equal(a.expected_work, cold.expected_work)

    def test_changed_fingerprint_misses(self):
        cache = PlanCache()
        repro.optimize_schedule(repro.UniformRisk(100.0), 2.0, cache=cache)
        repro.optimize_schedule(repro.UniformRisk(100.0 + 1e-9), 2.0, cache=cache)
        assert cache.stats.hits == 0
        assert cache.stats.misses >= 2


class TestDiskTier:
    def test_round_trip_across_instances(self, tmp_path):
        p = repro.UniformRisk(150.0)
        first = PlanCache(cache_dir=tmp_path)
        cold = repro.optimize_schedule(p, 2.5, cache=first)
        second = PlanCache(cache_dir=tmp_path)
        warm = repro.optimize_schedule(p, 2.5, cache=second)
        assert second.stats.disk_hits == 1
        np.testing.assert_array_equal(cold.schedule.periods, warm.schedule.periods)
        assert cold.expected_work == warm.expected_work
        assert first.disk_entries() >= 1

    def test_t0opt_disk_round_trip(self, tmp_path):
        p = repro.GeometricDecreasingLifespan(1.3)
        cold = repro.optimize_t0_via_recurrence(p, 0.4, cache=PlanCache(cache_dir=tmp_path))
        warm = repro.optimize_t0_via_recurrence(p, 0.4, cache=PlanCache(cache_dir=tmp_path))
        assert warm[0] == cold[0] and warm[2] == cold[2]
        np.testing.assert_array_equal(warm[1].schedule.periods,
                                      cold[1].schedule.periods)
        assert warm[1].termination == cold[1].termination

    def test_truncated_file_falls_back_to_compute(self, tmp_path):
        cache = PlanCache(cache_dir=tmp_path)
        cache.get_or_compute("key", lambda: {"x": 1},
                             to_payload=lambda v: v, from_payload=lambda d: d)
        path = cache._entry_path("key")
        path.write_text(path.read_text()[: len(path.read_text()) // 2])
        fresh = PlanCache(cache_dir=tmp_path)
        value = fresh.get_or_compute("key", lambda: {"x": 2},
                                     to_payload=lambda v: v, from_payload=lambda d: d)
        assert value == {"x": 2}  # recomputed, not half-parsed
        assert fresh.stats.corrupt_loads == 1
        assert fresh.stats.misses == 1

    def test_garbage_file_counts_corrupt(self, tmp_path):
        cache = PlanCache(cache_dir=tmp_path)
        cache.get_or_compute("key", lambda: {"x": 1},
                             to_payload=lambda v: v, from_payload=lambda d: d)
        cache._entry_path("key").write_bytes(b"\x00\xffnot json")
        fresh = PlanCache(cache_dir=tmp_path)
        assert fresh.get_or_compute("key", lambda: {"x": 3},
                                    to_payload=lambda v: v,
                                    from_payload=lambda d: d) == {"x": 3}
        assert fresh.stats.corrupt_loads == 1

    def test_key_collision_guard(self, tmp_path):
        # An entry whose recorded key differs from the requested one is
        # treated as corrupt (content addressing is checked, not trusted).
        cache = PlanCache(cache_dir=tmp_path)
        cache.get_or_compute("key", lambda: {"x": 1},
                             to_payload=lambda v: v, from_payload=lambda d: d)
        path = cache._entry_path("key")
        entry = json.loads(path.read_text())
        entry["key"] = "other-key"
        path.write_text(json.dumps(entry))
        fresh = PlanCache(cache_dir=tmp_path)
        assert fresh.get_or_compute("key", lambda: {"x": 9},
                                    to_payload=lambda v: v,
                                    from_payload=lambda d: d) == {"x": 9}

    def test_schema_version_bump_invalidates(self, tmp_path, monkeypatch):
        cache = PlanCache(cache_dir=tmp_path)
        cache.get_or_compute("key", lambda: {"x": 1},
                             to_payload=lambda v: v, from_payload=lambda d: d)
        monkeypatch.setattr(plancache, "CACHE_SCHEMA_VERSION",
                            CACHE_SCHEMA_VERSION + 1)
        fresh = PlanCache(cache_dir=tmp_path)
        value = fresh.get_or_compute("key", lambda: {"x": 2},
                                     to_payload=lambda v: v, from_payload=lambda d: d)
        assert value == {"x": 2}  # old-version entries are invisible
        assert fresh.stats.disk_hits == 0

    def test_clear_disk(self, tmp_path):
        cache = PlanCache(cache_dir=tmp_path)
        cache.get_or_compute("key", lambda: 1,
                             to_payload=lambda v: {"v": v},
                             from_payload=lambda d: d["v"])
        assert cache.disk_entries() == 1
        cache.clear(memory=True, disk=True)
        assert cache.disk_entries() == 0
        assert len(cache) == 0


class TestDefaultCache:
    def test_singleton_and_reset(self, tmp_path):
        reset_default_plan_cache()
        try:
            a = default_plan_cache(tmp_path)
            b = default_plan_cache(tmp_path)
            assert a is b
            c = default_plan_cache(tmp_path / "other")
            assert c is not a
        finally:
            reset_default_plan_cache()


class TestGuidelineStartCache:
    def test_bounded_per_instance(self):
        p = repro.UniformRisk(77.0)
        _guideline_start_cache.pop(p, None)
        from repro.core.optimizer import _GUIDELINE_START_MAX_PER_LIFE

        for i in range(_GUIDELINE_START_MAX_PER_LIFE + 5):
            _guideline_start(p, 1.0 + 0.1 * i)
        assert len(_guideline_start_cache[p]) == _GUIDELINE_START_MAX_PER_LIFE

    def test_thread_safe_under_contention(self):
        p = repro.UniformRisk(88.0)
        _guideline_start_cache.pop(p, None)
        errors = []

        def worker(offset):
            try:
                for i in range(8):
                    _guideline_start(p, 1.0 + 0.05 * ((offset + i) % 4))
            except Exception as exc:  # pragma: no cover - failure path
                errors.append(exc)

        threads = [threading.Thread(target=worker, args=(k,)) for k in range(6)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors


class TestPeek:
    def test_cold_peek_returns_none_without_counting_a_miss(self):
        cache = PlanCache(maxsize=4)
        assert cache.peek("absent") is None
        assert cache.stats.misses == 0
        assert cache.stats.hits == 0

    def test_warm_peek_hits_memory(self):
        cache = PlanCache(maxsize=4)
        cache.get_or_compute("key", lambda: 41)
        assert cache.peek("key") == 41
        assert cache.stats.hits == 1

    def test_peek_promotes_from_disk(self, tmp_path):
        warm = PlanCache(cache_dir=tmp_path)
        warm.get_or_compute("key", lambda: {"x": 7},
                            to_payload=lambda v: v, from_payload=lambda d: d)
        fresh = PlanCache(cache_dir=tmp_path)
        assert fresh.peek("key", from_payload=lambda d: d) == {"x": 7}
        assert fresh.stats.disk_hits == 1
        # Promoted into memory: the next peek needs no disk read.
        assert "key" in fresh

    def test_peek_without_decoder_skips_disk(self, tmp_path):
        warm = PlanCache(cache_dir=tmp_path)
        warm.get_or_compute("key", lambda: {"x": 7},
                            to_payload=lambda v: v, from_payload=lambda d: d)
        fresh = PlanCache(cache_dir=tmp_path)
        assert fresh.peek("key") is None

    def test_peek_uncacheable_key(self):
        cache = PlanCache(maxsize=4)
        assert cache.peek(None) is None
        assert cache.stats.uncacheable == 1

    def test_peek_corrupt_disk_entry(self, tmp_path):
        warm = PlanCache(cache_dir=tmp_path)
        warm.get_or_compute("key", lambda: {"x": 7},
                            to_payload=lambda v: v, from_payload=lambda d: d)
        warm._entry_path("key").write_bytes(b"garbage")
        fresh = PlanCache(cache_dir=tmp_path)
        assert fresh.peek("key", from_payload=lambda d: d) is None
        assert fresh.stats.corrupt_loads == 1


class TestUnwritableCacheDir:
    def test_degrades_to_memory_only_with_one_warning(self, tmp_path):
        # A *file* where the cache directory should be: mkdir fails cleanly.
        blocked = tmp_path / "blocked"
        blocked.write_text("a file, not a directory")
        reset_default_plan_cache()
        try:
            with pytest.warns(RuntimeWarning, match="memory-only"):
                cache = default_plan_cache(blocked)
            assert cache.cache_dir is None
            # Second call: no re-probe, no second warning, same degradation.
            import warnings as _warnings

            with _warnings.catch_warnings():
                _warnings.simplefilter("error")
                again = default_plan_cache(blocked)
            assert again.cache_dir is None
            # The cache still works, memory-only.
            assert again.get_or_compute("k", lambda: 5) == 5
            assert again.peek("k") == 5
        finally:
            reset_default_plan_cache()

    def test_reset_forgets_unwritable_verdicts(self, tmp_path):
        blocked = tmp_path / "blocked"
        blocked.write_text("a file, not a directory")
        reset_default_plan_cache()
        try:
            with pytest.warns(RuntimeWarning):
                default_plan_cache(blocked)
            reset_default_plan_cache()
            blocked.unlink()  # the path becomes creatable
            cache = default_plan_cache(blocked)
            assert cache.cache_dir == blocked
        finally:
            reset_default_plan_cache()


def _counts(cache: PlanCache) -> dict:
    """Every integer counter of ``cache.stats``."""
    d = cache.stats.as_dict()
    return {k: v for k, v in d.items() if isinstance(v, int)}


def _zero(**counts) -> dict:
    base = dict.fromkeys(("hits", "disk_hits", "misses", "puts", "evictions",
                          "corrupt_loads", "uncacheable"), 0)
    return {**base, **counts}


def _json_cache(path) -> PlanCache:
    """A disk-tier cache holding ``"key" -> {"x": 7}``, written by a miss."""
    warm = PlanCache(cache_dir=path)
    warm.get_or_compute("key", lambda: {"x": 7},
                        to_payload=lambda v: v, from_payload=lambda d: d)
    return PlanCache(cache_dir=path)


class TestCounters:
    """``get_or_compute`` and ``peek`` share one hit path and its counters."""

    def test_miss_then_memory_hit(self):
        cache = PlanCache()
        calls = []
        assert cache.get_or_compute("k", lambda: calls.append(1) or 5) == 5
        assert _counts(cache) == _zero(misses=1, puts=1)
        assert cache.stats.miss_seconds > 0 and cache.stats.hit_seconds == 0
        assert cache.get_or_compute("k", lambda: calls.append(1) or 6) == 5
        assert cache.peek("k") == 5
        assert _counts(cache) == _zero(hits=2, misses=1, puts=1)
        assert cache.stats.hit_seconds > 0
        assert calls == [1]

    def test_cached_none_is_a_hit(self):
        cache = PlanCache()
        calls = []
        assert cache.get_or_compute("k", lambda: calls.append(1)) is None
        assert cache.get_or_compute("k", lambda: calls.append(1)) is None
        assert calls == [1]
        assert _counts(cache) == _zero(hits=1, misses=1, puts=1)

    def test_disk_hit_get_or_compute(self, tmp_path):
        fresh = _json_cache(tmp_path)
        value = fresh.get_or_compute("key", lambda: pytest.fail("recomputed"),
                                     to_payload=lambda v: v, from_payload=lambda d: d)
        assert value == {"x": 7}
        assert _counts(fresh) == _zero(disk_hits=1, puts=1)
        assert fresh.stats.hit_seconds > 0 and fresh.stats.miss_seconds == 0

    def test_disk_hit_peek(self, tmp_path):
        fresh = _json_cache(tmp_path)
        assert fresh.peek("key", from_payload=lambda d: d) == {"x": 7}
        assert _counts(fresh) == _zero(disk_hits=1, puts=1)
        assert fresh.stats.hit_seconds > 0 and fresh.stats.miss_seconds == 0
        # Promoted: the next lookup is a memory hit.
        assert fresh.peek("key", from_payload=lambda d: d) == {"x": 7}
        assert _counts(fresh) == _zero(hits=1, disk_hits=1, puts=1)

    def test_peek_miss_counts_nothing(self, tmp_path):
        cache = PlanCache(cache_dir=tmp_path)
        assert cache.peek("absent", from_payload=lambda d: d) is None
        assert _counts(cache) == _zero()
        assert cache.stats.hit_seconds == 0 and cache.stats.miss_seconds == 0

    def test_none_key_counts_uncacheable_once(self):
        cache = PlanCache()
        assert cache.get_or_compute(None, lambda: 3) == 3
        assert _counts(cache) == _zero(uncacheable=1)
        assert cache.peek(None) is None
        assert _counts(cache) == _zero(uncacheable=2)
        assert len(cache) == 0
        assert cache.stats.hit_seconds == 0 and cache.stats.miss_seconds == 0

    def test_stats_fields(self):
        assert set(CacheStats().as_dict()) == {
            "hits", "disk_hits", "misses", "puts", "evictions", "corrupt_loads",
            "uncacheable", "hit_rate", "hit_seconds", "miss_seconds",
        }
