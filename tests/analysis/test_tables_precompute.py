"""Precomputed guideline tables: sweep, persistence, interpolation, serving."""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest

from repro.analysis.loadgen import plans_identical
from repro.analysis.tables_precompute import (
    TABLE_FAMILIES,
    TABLE_SCHEMA_VERSION,
    GuidelineTable,
    PlanAnswer,
    TableServer,
    default_grids,
    load_table,
    make_family_life,
    precompute_table,
    save_table,
    table_path,
)
from repro.core.optimizer import optimize_t0_via_recurrence
from repro.core.plancache import PlanCache
from repro.core.serving import PlanServer
from repro.core.sharding import ShardConfig, build_shard_server
from repro.exceptions import CycleStealingError, PlanCacheError


@pytest.fixture(scope="module")
def uniform_table() -> GuidelineTable:
    return precompute_table(
        "uniform",
        c_grid=np.geomspace(1.0, 4.0, 5),
        param_grid=np.geomspace(80.0, 640.0, 5),
    )


def _rows(table: GuidelineTable, rows: list) -> GuidelineTable:
    """``table`` restricted to the ``c_grid`` rows ``rows``, in that order."""
    return replace(table, c_grid=table.c_grid[rows], t0=table.t0[rows],
                   expected_work=table.expected_work[rows],
                   num_periods=table.num_periods[rows])


#: Tables that save fine but could not index a cell: load_table rejects them.
MALFORMED = {
    "one-point c_grid": lambda t: _rows(t, [0]),
    "unsorted c_grid": lambda t: _rows(t, [0, 4, 2]),
    "non-finite param_grid": lambda t: replace(
        t, param_grid=np.where(np.arange(5) == 2, np.nan, t.param_grid)),
    "num_periods shape": lambda t: replace(t, num_periods=t.num_periods[:, :4]),
}


def _chain(table_server: TableServer, cache: PlanCache | None = None) -> PlanServer:
    """The fallback chain over ``table_server``, with a cold plan cache."""
    return PlanServer(table_server=table_server,
                      cache=cache if cache is not None else PlanCache())


def _memory_server(table: GuidelineTable) -> TableServer:
    server = TableServer()
    server.add_table(table)
    return server


class TestPrecompute:
    def test_shapes_and_monotone_t0(self, uniform_table):
        assert uniform_table.shape == (5, 5)
        assert uniform_table.t0.shape == (5, 5)
        assert np.all(np.isfinite(uniform_table.t0))
        # t0* grows with L for the uniform family (Section 4.1: ~ sqrt(2cL)).
        assert np.all(np.diff(uniform_table.t0, axis=1) > 0)

    def test_grid_matches_scalar_optimizer(self, uniform_table):
        i, j = 2, 3
        p = make_family_life("uniform", float(uniform_table.param_grid[j]))
        t0, _, ew = optimize_t0_via_recurrence(
            p, float(uniform_table.c_grid[i]),
            grid=uniform_table.search_grid, widen=uniform_table.search_widen,
        )
        assert uniform_table.t0[i, j] == pytest.approx(t0, rel=1e-12)
        assert uniform_table.expected_work[i, j] == pytest.approx(ew, rel=1e-12)

    def test_process_pool_matches_serial(self):
        kwargs = dict(c_grid=np.geomspace(1.0, 3.0, 3),
                      param_grid=np.geomspace(20.0, 60.0, 3), search_grid=33)
        serial = precompute_table("geominc", **kwargs)
        pooled = precompute_table("geominc", n_jobs=2, **kwargs)
        np.testing.assert_array_equal(serial.t0, pooled.t0)
        np.testing.assert_array_equal(serial.expected_work, pooled.expected_work)

    def test_rejects_bad_grids(self):
        with pytest.raises(PlanCacheError):
            precompute_table("uniform", c_grid=np.array([1.0]),
                             param_grid=np.array([10.0, 20.0]))
        with pytest.raises(PlanCacheError):
            precompute_table("uniform", c_grid=np.array([2.0, 1.0]),
                             param_grid=np.array([10.0, 20.0]))

    def test_unknown_family(self):
        with pytest.raises(PlanCacheError):
            make_family_life("exotic", 1.0)
        with pytest.raises(PlanCacheError):
            default_grids("exotic")


class TestInterpolation:
    def test_on_grid_point_recovers_corner(self, uniform_table):
        c = float(uniform_table.c_grid[2])
        v = float(uniform_table.param_grid[2])
        t0, lo, hi = uniform_table.interpolate_t0(c, v)
        assert lo <= t0 <= hi
        assert t0 == pytest.approx(uniform_table.t0[2, 2], rel=1e-9)

    def test_off_grid_between_corners(self, uniform_table):
        c = float(np.sqrt(uniform_table.c_grid[1] * uniform_table.c_grid[2]))
        v = float(np.sqrt(uniform_table.param_grid[1] * uniform_table.param_grid[2]))
        t0, lo, hi = uniform_table.interpolate_t0(c, v)
        corners = uniform_table.t0[1:3, 1:3]
        assert float(np.min(corners)) == lo
        assert float(np.max(corners)) == hi
        assert lo <= t0 <= hi

    def test_contains(self, uniform_table):
        assert uniform_table.contains(2.0, 100.0)
        assert not uniform_table.contains(0.5, 100.0)
        assert not uniform_table.contains(2.0, 1e6)

    def test_nan_cell_raises(self, uniform_table):
        broken = GuidelineTable(
            family=uniform_table.family,
            param_name=uniform_table.param_name,
            fixed=uniform_table.fixed,
            c_grid=uniform_table.c_grid,
            param_grid=uniform_table.param_grid,
            t0=np.where(np.eye(5, dtype=bool), np.nan, uniform_table.t0),
            expected_work=uniform_table.expected_work,
            num_periods=uniform_table.num_periods,
        )
        with pytest.raises(Exception):
            broken.interpolate_t0(float(broken.c_grid[0]) * 1.01,
                                  float(broken.param_grid[0]) * 1.01)


class TestPersistence:
    def test_npz_round_trip(self, uniform_table, tmp_path):
        path = table_path(tmp_path, "uniform")
        save_table(uniform_table, path)
        loaded = load_table(path)
        assert loaded is not None
        assert loaded.family == "uniform"
        assert loaded.param_name == uniform_table.param_name
        assert loaded.schema_version == TABLE_SCHEMA_VERSION
        np.testing.assert_array_equal(loaded.t0, uniform_table.t0)
        np.testing.assert_array_equal(loaded.expected_work,
                                      uniform_table.expected_work)
        np.testing.assert_array_equal(loaded.c_grid, uniform_table.c_grid)

    def test_missing_file_is_none(self, tmp_path):
        assert load_table(tmp_path / "nope.npz") is None

    def test_corrupt_file_is_none(self, uniform_table, tmp_path):
        path = table_path(tmp_path, "uniform")
        save_table(uniform_table, path)
        path.write_bytes(b"garbage" * 100)
        assert load_table(path) is None

    def test_truncated_file_is_none(self, uniform_table, tmp_path):
        path = table_path(tmp_path, "uniform")
        save_table(uniform_table, path)
        blob = path.read_bytes()
        path.write_bytes(blob[: len(blob) // 2])
        assert load_table(path) is None

    def test_empty_member_is_none(self, uniform_table, tmp_path):
        path = table_path(tmp_path, "uniform")
        save_table(uniform_table, path)
        with np.load(path, allow_pickle=False) as data:
            arrays = dict(data)
        np.savez(path, **{**arrays, "search": np.asarray([])})
        assert load_table(path) is None

    @pytest.mark.parametrize("case", sorted(MALFORMED))
    def test_malformed_table_is_none(self, uniform_table, tmp_path, case):
        path = save_table(MALFORMED[case](uniform_table),
                          table_path(tmp_path, "uniform"))
        assert load_table(path) is None

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("case", sorted(MALFORMED))
    def test_malformed_table_falls_back_to_optimizer(self, uniform_table, tmp_path,
                                                     case):
        save_table(MALFORMED[case](uniform_table), table_path(tmp_path, "uniform"))
        server = _chain(TableServer(cache_dir=tmp_path))
        assert server.serve("uniform", 1.0, 100.0).source == "optimizer"
        assert server.serve("uniform", 2.0, 100.0).source == "optimizer"


class TestServer:
    def test_off_grid_query_accuracy(self, uniform_table):
        server = _chain(_memory_server(uniform_table))
        rng = np.random.default_rng(7)
        for _ in range(4):
            c = float(rng.uniform(1.1, 3.8))
            L = float(rng.uniform(90.0, 600.0))
            answer = server.serve("uniform", c, L)
            assert answer.source == "table"
            p = make_family_life("uniform", L)
            _, _, ew = optimize_t0_via_recurrence(p, c)
            assert answer.expected_work == pytest.approx(ew, rel=1e-6)
            assert answer.schedule.num_periods >= 1
        assert server.tier_stats["table"].hits == 4
        assert server.tier_stats["optimizer"].hits == 0

    def test_out_of_bounds_falls_back_to_optimizer(self, uniform_table):
        server = _chain(_memory_server(uniform_table))
        answer = server.serve("uniform", 20.0, 5000.0)
        assert answer.source == "optimizer"
        p = make_family_life("uniform", 5000.0)
        _, _, ew = optimize_t0_via_recurrence(p, 20.0)
        assert answer.expected_work == pytest.approx(ew, rel=1e-12)
        # The optimizer warmed the plan cache: the repeat is a cache hit.
        again = server.serve("uniform", 20.0, 5000.0)
        assert again.source == "cache"
        assert plans_identical(replace(again, source="optimizer"), answer)

    def test_no_table_falls_back(self, tmp_path):
        server = _chain(TableServer(cache_dir=tmp_path))  # nothing warmed
        answer = server.serve("geomdec", 0.5, 1.3)
        assert answer.source == "optimizer"
        (lane,) = server.table_server.serve_from_table_batch(["geomdec"], [0.5], [1.3])
        assert isinstance(lane, CycleStealingError)

    def test_corrupt_table_on_disk_falls_back(self, uniform_table, tmp_path):
        path = table_path(tmp_path, "uniform")
        save_table(uniform_table, path)
        path.write_bytes(b"junk")
        server = _chain(TableServer(cache_dir=tmp_path))
        answer = server.serve("uniform", 2.0, 100.0)
        assert answer.source == "optimizer"

    def test_table_of_another_family_falls_back(self, uniform_table, tmp_path):
        save_table(uniform_table, table_path(tmp_path, "geominc"))
        table_server = TableServer(cache_dir=tmp_path)
        assert table_server.table("geominc") is None
        assert _chain(table_server).serve("geominc", 2.0, 100.0).source == "optimizer"

    def test_warm_persists_and_reloads(self, tmp_path):
        grids = {"geominc": (np.geomspace(0.5, 2.0, 3), np.geomspace(15.0, 60.0, 3))}
        server = TableServer(cache_dir=tmp_path)
        built = server.warm(families=["geominc"], grids=grids, search_grid=33)
        assert set(built) == {"geominc"}
        assert table_path(tmp_path, "geominc").exists()
        fresh = TableServer(cache_dir=tmp_path)
        (answer,) = fresh.serve_from_table_batch(["geominc"], [1.0], [30.0])
        assert answer.source == "table"

    def test_no_polish_query(self, uniform_table):
        server = _memory_server(uniform_table)
        (answer,) = server.serve_from_table_batch(["uniform"], [2.1], [111.0],
                                                  polish=False)
        assert answer.source == "table"
        p = make_family_life("uniform", 111.0)
        _, _, ew = optimize_t0_via_recurrence(p, 2.1)
        # Raw bilinear t0 (no polish): still close, though not 1e-6 tight.
        assert answer.expected_work == pytest.approx(ew, rel=1e-2)
        (polished,) = server.serve_from_table_batch(["uniform"], [2.1], [111.0])
        assert polished.expected_work >= answer.expected_work

    def test_all_families_declared(self):
        assert set(TABLE_FAMILIES) == {"uniform", "poly", "geomdec", "geominc"}
        for fam in TABLE_FAMILIES:
            c_grid, param_grid = default_grids(fam)
            assert c_grid.size >= 2 and param_grid.size >= 2
            p = make_family_life(fam, float(param_grid[0]),
                                 dict(TABLE_FAMILIES[fam][1]))
            assert p(0.0) == pytest.approx(1.0)


class TestBatchQueries:
    def _answers_equal(self, a, b):
        return (
            a.family == b.family
            and a.c == b.c
            and a.param_value == b.param_value
            and a.t0 == b.t0
            and a.expected_work == b.expected_work
            and a.source == b.source
            and a.termination == b.termination
            and np.array_equal(a.schedule.periods, b.schedule.periods)
        )

    def test_query_batch_matches_scalar_loop(self, uniform_table):
        """Mixed on-grid / off-grid / out-of-bounds: bit-identical lanes."""
        queries = [
            (float(uniform_table.c_grid[2]), float(uniform_table.param_grid[1])),
            (2.3, 199.0),
            (20.0, 5000.0),  # out of bounds -> a per-lane miss
            (1.7, 333.3),
            (3.9, 91.0),
        ]
        batch = _memory_server(uniform_table).serve_from_table_batch(
            ["uniform"] * len(queries),
            [q[0] for q in queries],
            [q[1] for q in queries],
        )
        scalar_server = _memory_server(uniform_table)
        scalar = [
            scalar_server.serve_from_table_batch(["uniform"], [c], [v])[0]
            for c, v in queries
        ]
        assert len(batch) == len(queries)
        assert [type(a) for a in batch] == [type(b) for b in scalar]
        for a, b in zip(batch, scalar):
            if isinstance(a, PlanAnswer):
                assert self._answers_equal(a, b)
            else:
                assert isinstance(a, CycleStealingError) and str(a) == str(b)
        assert [isinstance(a, PlanAnswer) for a in batch] == [True] * 2 + [False] + [True] * 2

    def test_query_batch_groups_families(self, uniform_table):
        """A mixed-family batch answers each lane from its own table."""
        server = _chain(_memory_server(uniform_table))
        answers = server.serve_batch(
            ["uniform", "geomdec", "uniform"],
            [2.0, 0.5, 2.5],
            [150.0, 1.3, 200.0],
        )
        assert [a.source for a in answers] == ["table", "optimizer", "table"]
        assert [a.family for a in answers] == ["uniform", "geomdec", "uniform"]

    def test_query_batch_rejects_mismatched_lengths(self, uniform_table):
        server = _memory_server(uniform_table)
        with pytest.raises(PlanCacheError):
            server.serve_from_table_batch(["uniform"], [1.0, 2.0], [100.0])

    def test_query_batch_unknown_family(self):
        (lane,) = TableServer().serve_from_table_batch(["nope"], [1.0], [100.0])
        assert isinstance(lane, CycleStealingError)
        with pytest.raises(PlanCacheError, match="unknown table family"):
            _chain(TableServer()).serve("nope", 1.0, 100.0)

    def test_interpolate_t0_batch_matches_scalar(self, uniform_table):
        cs = np.array([1.5, 2.5, 3.5])
        vs = np.array([100.0, 250.0, 500.0])
        est, lo, hi, valid = uniform_table.interpolate_t0_batch(cs, vs)
        assert valid.all()
        for k in range(cs.size):
            s_est, s_lo, s_hi = uniform_table.interpolate_t0(
                float(cs[k]), float(vs[k])
            )
            assert est[k] == s_est and lo[k] == s_lo and hi[k] == s_hi


class TestMmapTables:
    """Tables loaded from disk serve exactly what in-memory tables serve."""

    @pytest.mark.parametrize("family", sorted(TABLE_FAMILIES))
    def test_loaded_tables_serve_like_memory_tables(self, family, tmp_path):
        c_grid, p_grid = default_grids(family, points=3)
        table = precompute_table(family, c_grid=c_grid, param_grid=p_grid,
                                 search_grid=33)
        save_table(table, table_path(tmp_path, family))
        # An on-grid point, two off-grid points, one out of bounds.
        cs = [c_grid[1], np.sqrt(c_grid[0] * c_grid[1]),
              np.sqrt(c_grid[1] * c_grid[2]), c_grid[1]]
        vs = [p_grid[1], np.sqrt(p_grid[1] * p_grid[2]),
              np.sqrt(p_grid[0] * p_grid[1]), p_grid[-1] * 1.1]
        fams = [family] * len(cs)

        expected = _chain(_memory_server(table)).serve_batch(fams, cs, vs)
        loaded = _chain(TableServer(cache_dir=tmp_path)).serve_batch(fams, cs, vs)
        shard = build_shard_server(
            ShardConfig(shard=0, n_shards=1, table_dir=str(tmp_path))
        ).serve_batch(fams, cs, vs)
        for got in (loaded, shard):
            assert [a.source for a in got] == ["table"] * 3 + ["optimizer"]
            assert all(plans_identical(a, b) for a, b in zip(got, expected))

    def test_compressed_npz_falls_back_to_memory_load(self, uniform_table, tmp_path):
        # A compressed archive holds the same arrays: it loads like a stored one.
        path = table_path(tmp_path, "uniform")
        save_table(uniform_table, path)
        with np.load(path, allow_pickle=False) as data:
            arrays = dict(data)
        np.savez_compressed(path, **arrays)
        loaded = load_table(path)
        assert loaded is not None
        np.testing.assert_array_equal(loaded.t0, uniform_table.t0)


class TestFallbackCache:
    def test_off_grid_fallback_rides_the_cache(self, uniform_table, tmp_path):
        """Out-of-bounds queries warm the plan cache instead of re-optimizing."""
        cache = PlanCache(cache_dir=tmp_path)
        server = _chain(_memory_server(uniform_table), cache)
        first = server.serve("uniform", 20.0, 5000.0)
        assert first.source == "optimizer"
        misses_after_first = cache.stats.misses
        hits_after_first = cache.stats.hits
        second = server.serve("uniform", 20.0, 5000.0)
        assert second.source == "cache"
        assert cache.stats.hits > hits_after_first
        assert cache.stats.misses == misses_after_first
        assert plans_identical(replace(second, source="optimizer"), first)
        # A fresh chain over the same directory serves it from the disk tier.
        fresh_cache = PlanCache(cache_dir=tmp_path)
        third = _chain(_memory_server(uniform_table), fresh_cache).serve(
            "uniform", 20.0, 5000.0)
        assert third.source == "cache"
        assert (fresh_cache.stats.disk_hits, fresh_cache.stats.misses) == (1, 0)
        assert plans_identical(third, second)


class TestHeldOutAccuracy:
    """Off-grid table-served plans against the optimizer, at the 1e-6 bound.

    Each held-out point is served from the one cell of a 9 x 9 grid over the
    family's default range that contains it; interpolation and the polish
    read only that cell, so a 2 x 2 table serves it exactly as the full
    table would, in a fraction of the warm time.
    """

    MAX_REL_ERROR = 1e-6

    @staticmethod
    def rel_error(family: str, c: float, v: float) -> float:
        c_grid, p_grid = default_grids(family, points=9)
        i, j = np.searchsorted(c_grid, c) - 1, np.searchsorted(p_grid, v) - 1
        server = _memory_server(precompute_table(family, c_grid=c_grid[i:i + 2],
                                                 param_grid=p_grid[j:j + 2]))
        # The point lies inside the table: anything but a plan is a failure.
        (answer,) = server.serve_from_table_batch([family], [c], [v])
        assert isinstance(answer, PlanAnswer), answer
        p = make_family_life(family, v, dict(TABLE_FAMILIES[family][1]))
        _, _, ew = optimize_t0_via_recurrence(p, c)
        return abs(answer.expected_work - ew) / abs(ew)

    @pytest.mark.parametrize("family", ["uniform", "poly", "geominc"])
    def test_heldout_points_within_bound(self, family):
        rng = np.random.default_rng(2024)
        (c_lo, c_hi), (v_lo, v_hi) = ((g[0], g[-1]) for g in default_grids(family))
        for _ in range(8):
            c = float(np.exp(rng.uniform(np.log(c_lo * 1.05), np.log(c_hi * 0.95))))
            v = float(np.exp(rng.uniform(np.log(v_lo * 1.02), np.log(v_hi * 0.98))))
            assert self.rel_error(family, c, v) <= self.MAX_REL_ERROR, (c, v)

    @pytest.mark.xfail(
        strict=True,
        reason="ROADMAP open item 1: the geomdec polish stops beside a cusp of E(t0)",
    )
    def test_geomdec_worst_point_within_bound(self):
        assert self.rel_error("geomdec", 0.6119, 1.25003) <= self.MAX_REL_ERROR
