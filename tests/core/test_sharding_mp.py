"""Cross-process bit-parity and chaos for the sharded serving tier.

The contract under test: splitting a ``serve_batch`` stream across N shard
worker processes changes *where* plans are computed but not a single bit of
*what* comes back — plans, source labels, and per-lane errors included —
and a worker death mid-run degrades throughput, never answers.

Boundedness note: this environment has no pytest-timeout plugin, so the
no-hung-futures guarantee is asserted directly — every dispatch path is
bounded by ``request_timeout`` inside :class:`ShardedPlanServer`, and the
chaos tests assert the measured wall time stays far under the budget that
a hang would consume.
"""

from __future__ import annotations

import time

import numpy as np
import pytest

from repro.analysis.loadgen import zipf_query_mix
from repro.core.plancache import PlanCache
from repro.core.serving import PlanServer, TierChaos
from repro.core.sharding import (
    ShardConfig,
    ShardedPlanServer,
    ShardWorker,
    build_shard_server,
    split_batch,
)
from repro.exceptions import FaultInjectionError, ShardingError, ShardWorkerError

pytestmark = pytest.mark.multiproc


def _plans_equal(a, b, source: bool = True) -> bool:
    return (
        a.t0 == b.t0
        and a.expected_work == b.expected_work
        and a.termination == b.termination
        and (a.source == b.source or not source)
        and np.array_equal(a.schedule.periods, b.schedule.periods)
    )


def _mix_lists(n: int, distinct: int = 24, seed: int = 0):
    mix = zipf_query_mix(n, distinct=distinct, seed=seed)
    return list(mix.families), list(mix.cs), list(mix.param_values)


class TestCrossProcessParity:
    def test_workers_match_single_process_with_tables(self, warmed_table_dir):
        """The acceptance-shape parity: a batch stream over warmed tables.

        The reference is the exact per-worker stack (tables loaded from the
        table directory + memory-only plan cache) run in one process; three worker processes
        must reproduce its plans bit for bit — including source labels,
        whose divergence would reveal cache/table tier drift — across a
        stream of batches, i.e. with cache warmth evolving.
        """
        table_dir = warmed_table_dir["dir"]
        fams, cs, vs = _mix_lists(96, seed=3)
        reference = build_shard_server(
            ShardConfig(shard=0, n_shards=1, table_dir=str(table_dir))
        )
        with ShardedPlanServer(workers=3, table_dir=table_dir) as sharded:
            for lo in (0, 32, 64):  # three chunks: parity must survive warmth
                chunk = slice(lo, lo + 32)
                want = reference.serve_batch(fams[chunk], cs[chunk], vs[chunk])
                got = sharded.serve_batch(fams[chunk], cs[chunk], vs[chunk])
                assert len(got) == len(want)
                for a, b in zip(got, want):
                    assert _plans_equal(a, b), (a.source, b.source)
            stats = sharded.stats_dict()
        assert stats["fallback_lanes"] == 0
        assert stats["worker_failures"] == 0
        assert stats["exhausted"] == 0

    def test_workers1_matches_plain_serve_batch(self):
        """The ISSUE's literal gate: N workers vs plain serve_batch."""
        fams, cs, vs = _mix_lists(48, seed=5)
        plain = PlanServer(cache=PlanCache())
        want, want_errors = plain._serve_batch_impl(fams, cs, vs)
        assert not want_errors
        for workers in (1, 4):
            with ShardedPlanServer(workers=workers) as sharded:
                got = sharded.serve_batch(fams, cs, vs)
            assert all(_plans_equal(a, b) for a, b in zip(got, want))

    def test_per_lane_errors_cross_process(self):
        """Invalid lanes fail identically (type + message) over the wire."""
        fams = ["uniform", "nosuchfamily", "poly", "alsonotafamily", "uniform"]
        cs = [0.1, 0.1, 0.2, 0.3, 0.15]
        vs = [60.0, 60.0, 80.0, 70.0, 65.0]
        reference = PlanServer(cache=PlanCache())
        want, want_errors = reference._serve_batch_impl(fams, cs, vs)
        assert sorted(want_errors) == [1, 3]
        with ShardedPlanServer(workers=3) as sharded:
            got, got_errors = sharded.try_serve_batch(fams, cs, vs)
        assert sorted(got_errors) == sorted(want_errors)
        for i, err in want_errors.items():
            assert type(got_errors[i]).__name__ == type(err).__name__
            assert str(got_errors[i]) == str(err)
        for i, plan in enumerate(want):
            if i in want_errors:
                assert got[i] is None
            else:
                assert _plans_equal(got[i], plan)

    def test_chaos_parity_multiprocess_vs_inprocess(self):
        """Per-shard RNG substreams: worker processes draw the same chaos.

        The in-process mode runs the identical sharded decomposition
        serially (same per-shard :class:`TierChaos` salts), so the worker
        processes must reproduce it bit for bit — plans, sources, *and*
        which lanes died to injected faults.
        """
        rates = {"optimizer": 0.4, "cache": 0.2}
        fams, cs, vs = _mix_lists(64, seed=11)
        with ShardedPlanServer(
            workers=3, chaos_rates=rates, chaos_seed=7, inprocess=True
        ) as serial, ShardedPlanServer(
            workers=3, chaos_rates=rates, chaos_seed=7
        ) as procs:
            for _ in range(2):  # chaos streams advance across batches
                want, want_errors = serial.try_serve_batch(fams, cs, vs)
                got, got_errors = procs.try_serve_batch(fams, cs, vs)
                assert sorted(got_errors) == sorted(want_errors)
                for i in range(len(fams)):
                    if i in want_errors:
                        assert type(got_errors[i]).__name__ == type(
                            want_errors[i]
                        ).__name__
                        assert str(got_errors[i]) == str(want_errors[i])
                    else:
                        assert _plans_equal(got[i], want[i])

    def test_shard_salt_changes_chaos_stream(self):
        """Shards draw from distinct substreams: salt in, different draws out."""

        def draws(chaos: TierChaos) -> list[bool]:
            out = []
            for _ in range(64):
                try:
                    chaos.maybe_fail("optimizer")
                    out.append(False)
                except FaultInjectionError:
                    out.append(True)
            return out

        plain = draws(TierChaos({"optimizer": 0.5}, seed=0))
        shard0 = draws(TierChaos({"optimizer": 0.5}, seed=0, shard=0))
        shard1 = draws(TierChaos({"optimizer": 0.5}, seed=0, shard=1))
        assert shard0 != shard1  # distinct per-shard streams
        assert plain != shard0  # and the unsalted PR-5 stream is untouched
        assert draws(TierChaos({"optimizer": 0.5}, seed=0, shard=1)) == shard1


class TestWorkerChaos:
    def test_kill_one_worker_monotone_degradation(self, warmed_table_dir):
        """One dead shard: surviving lanes untouched, its lanes via fallback.

        ``max_restarts=0`` forces the pure degradation path.  The elapsed
        bound is the no-hung-futures assertion: a hung dispatch would eat
        the full ``request_timeout`` per batch.
        """
        table_dir = warmed_table_dir["dir"]
        fams, cs, vs = _mix_lists(64, seed=3)
        victim = max(
            range(3), key=lambda s: len(split_batch(fams, vs, 3)[s])
        )
        dead_lanes = set(split_batch(fams, vs, 3)[victim])
        assert dead_lanes, "mix must route lanes onto the victim shard"

        healthy = ShardedPlanServer(workers=3, table_dir=table_dir, inprocess=True)
        h1, e1 = healthy.try_serve_batch(fams, cs, vs)
        h2, e2 = healthy.try_serve_batch(fams, cs, vs)
        assert not e1 and not e2

        with ShardedPlanServer(
            workers=3, table_dir=table_dir,
            request_timeout=15.0, max_restarts=0, breaker_cooldown=0.01,
        ) as sharded:
            p1, err1 = sharded.try_serve_batch(fams, cs, vs)
            assert not err1
            sharded.kill_worker(victim)
            start = time.perf_counter()
            p2, err2 = sharded.try_serve_batch(fams, cs, vs)
            elapsed = time.perf_counter() - start
            stats = sharded.stats_dict()

        assert not err2, "a dead shard must degrade, not fail lanes"
        for i in range(len(fams)):
            if i in dead_lanes:
                # Fallback serves from a cold chain: content identical,
                # source label may differ (optimizer vs cache).
                assert _plans_equal(p2[i], h2[i], source=False), i
            else:
                assert _plans_equal(p2[i], h2[i]), i  # bit-identical
        assert stats["fallback_lanes"] == len(dead_lanes)
        assert stats["restarts"] == 0
        assert stats["worker_failures"] >= 1
        assert elapsed < 60.0, f"dispatch not bounded: {elapsed:.1f}s"

    def test_restart_budget_revives_worker(self):
        """Within the budget a killed shard is respawned and serves again."""
        fams, cs, vs = _mix_lists(48, seed=3)
        victim = max(range(2), key=lambda s: len(split_batch(fams, vs, 2)[s]))
        with ShardedPlanServer(
            workers=2, request_timeout=15.0, max_restarts=2,
            breaker_cooldown=0.01,
        ) as sharded:
            p1, e1 = sharded.try_serve_batch(fams, cs, vs)
            assert not e1
            sharded.kill_worker(victim)
            p2, e2 = sharded.try_serve_batch(fams, cs, vs)
            stats = sharded.stats_dict()
            assert not e2
            assert stats["restarts"] >= 1
            assert stats["fallback_lanes"] == 0  # restart beat the fallback
            assert stats["alive"][victim]
        for i in range(len(fams)):
            # The restarted shard's cache is cold again, so compare content.
            assert _plans_equal(p2[i], p1[i], source=False), i


class TestLifecycle:
    def test_ping_and_worker_stats(self):
        with ShardedPlanServer(workers=2) as sharded:
            pongs = sharded.ping()
            assert [p["shard"] for p in pongs] == [0, 1]
            assert len({p["pid"] for p in pongs}) == 2  # distinct processes
            sharded.serve_batch(["uniform", "poly"], [0.1, 0.2], [60.0, 80.0])
            stats = sharded.worker_stats()
        assert len(stats) == 2
        assert all(s is not None for s in stats)
        assert sum(s["served"] for s in stats) == 2

    def test_send_and_receive_pipeline_requests(self):
        worker = ShardWorker(ShardConfig(shard=0, n_shards=1))
        try:
            ids = [worker.send({"op": "ping"}) for _ in range(2)]
            with pytest.raises(ShardWorkerError, match="out of sequence"):
                worker.receive(ids[1], timeout=30.0)  # ids[0]'s pong is first
            assert worker.receive(ids[1], timeout=30.0)["op"] == "pong"
        finally:
            worker.close()

    def test_out_of_sequence_reply_retries_on_a_fresh_worker(self):
        fams, cs, vs = ["uniform", "poly"], [0.1, 0.2], [60.0, 80.0]
        with ShardedPlanServer(workers=1, max_restarts=1) as sharded:
            first = sharded.serve_batch(fams, cs, vs)
            # A stray pong now precedes the next serve reply on the pipe.
            sharded._workers[0].send({"op": "ping"})
            second, errors = sharded.try_serve_batch(fams, cs, vs)
            stats = sharded.stats_dict()
        assert not errors
        assert (stats["worker_failures"], stats["restarts"]) == (1, 1)
        assert stats["fallback_lanes"] == 0
        # The restarted shard's cache is cold again, so compare content.
        assert all(_plans_equal(a, b, source=False) for a, b in zip(first, second))

    def test_close_is_idempotent_and_serve_after_close_raises(self):
        sharded = ShardedPlanServer(workers=2)
        sharded.close()
        sharded.close()
        with pytest.raises(ShardingError, match="closed"):
            sharded.serve_batch(["uniform"], [0.1], [60.0])

    def test_rejects_bad_configuration(self):
        with pytest.raises(ShardingError, match="workers"):
            ShardedPlanServer(workers=0)
        with pytest.raises(ShardingError, match="request_timeout"):
            ShardedPlanServer(workers=1, request_timeout=0.0, inprocess=True)
        with pytest.raises(ShardingError, match="max_restarts"):
            ShardedPlanServer(workers=1, max_restarts=-1, inprocess=True)

    def test_empty_batch(self):
        with ShardedPlanServer(workers=2, inprocess=True) as sharded:
            assert sharded.try_serve_batch([], [], []) == ([], {})
