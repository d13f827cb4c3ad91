"""The ``python -m repro`` command-line interface."""

from __future__ import annotations

import numpy as np
import pytest

import repro
from repro.cli import build_parser, main, make_life_function
from repro.core.plancache import reset_default_plan_cache


class TestParsing:
    def test_schedule_uniform(self, capsys):
        status = main(["schedule", "--family", "uniform", "--lifespan", "480",
                       "--c", "3"])
        assert status == 0
        out = capsys.readouterr().out
        assert "t0 bracket" in out
        assert "expected work" in out

    def test_schedule_geomdec_with_strategy(self, capsys):
        status = main(["schedule", "--family", "geomdec", "--a", "1.2",
                       "--c", "0.5", "--t0-strategy", "mid"])
        assert status == 0
        assert "strategy: mid" in capsys.readouterr().out

    def test_schedule_explicit_t0(self, capsys):
        main(["schedule", "--family", "uniform", "--lifespan", "100",
              "--c", "2", "--t0", "20"])
        out = capsys.readouterr().out
        assert "20" in out
        assert "explicit" in out

    def test_compare(self, capsys):
        status = main(["compare", "--family", "geominc", "--lifespan", "20",
                       "--c", "1"])
        assert status == 0
        out = capsys.readouterr().out
        for label in ("guideline", "greedy", "progressive", "optimal"):
            assert label in out

    def test_missing_family_param_errors(self):
        with pytest.raises(SystemExit):
            main(["schedule", "--family", "uniform", "--c", "3"])  # no lifespan

    def test_fit_from_file(self, tmp_path, capsys, rng):
        p = repro.GeometricDecreasingLifespan(1.3)
        data = p.sample_reclaim_times(rng, 500)
        path = tmp_path / "durations.txt"
        path.write_text("\n".join(f"{d:.6f}" for d in data))
        status = main(["fit", str(path), "--c", "0.5"])
        assert status == 0
        out = capsys.readouterr().out
        assert "fitted:" in out
        assert "expected work" in out

    def test_fit_too_few(self, tmp_path):
        path = tmp_path / "one.txt"
        path.write_text("1.0\n")
        with pytest.raises(SystemExit):
            main(["fit", str(path), "--c", "0.5"])

    @pytest.mark.parametrize("engine", ["vectorized", "scalar"])
    def test_mc_engines(self, capsys, engine):
        status = main(["mc", "--family", "uniform", "--lifespan", "100",
                       "--c", "2", "--n", "20000", "--engine", engine])
        assert status == 0
        out = capsys.readouterr().out
        assert f"engine        : {engine}" in out
        assert "consistent    : True" in out

    def test_mc_engines_identical_output(self, capsys):
        """Same seed => both engines print the same estimate."""
        main(["mc", "--family", "geominc", "--lifespan", "30", "--c", "1",
              "--n", "10000", "--engine", "vectorized"])
        vec = capsys.readouterr().out
        main(["mc", "--family", "geominc", "--lifespan", "30", "--c", "1",
              "--n", "10000", "--engine", "scalar"])
        sca = capsys.readouterr().out
        pick = lambda txt: [l for l in txt.splitlines()
                            if l.startswith(("MC mean", "analytic", "|z|"))]
        assert pick(vec) == pick(sca)

    def test_mc_confidence_flag(self, capsys):
        status = main(["mc", "--family", "uniform", "--lifespan", "100",
                       "--c", "2", "--n", "5000", "--confidence", "0.99"])
        assert status == 0
        assert "99% CI" in capsys.readouterr().out

    @pytest.mark.parametrize("engine", ["batch", "scalar"])
    def test_t0opt_engines(self, capsys, engine):
        status = main(["t0opt", "--family", "uniform", "--lifespan", "400",
                       "--c", "2", "--engine", engine])
        assert status == 0
        out = capsys.readouterr().out
        assert f"engine        : {engine}" in out
        for label in ("t0 chosen", "periods", "termination", "expected work"):
            assert label in out

    def test_t0opt_engines_identical_output(self, capsys):
        """Both search engines print the same t0/periods/E."""
        main(["t0opt", "--family", "geominc", "--lifespan", "30", "--c", "1",
              "--engine", "batch"])
        batch = capsys.readouterr().out
        main(["t0opt", "--family", "geominc", "--lifespan", "30", "--c", "1",
              "--engine", "scalar"])
        scalar = capsys.readouterr().out
        pick = lambda txt: [l for l in txt.splitlines()
                            if l.startswith(("t0 chosen", "periods", "expected"))]
        assert pick(batch) == pick(scalar)

    def test_t0opt_grid_flag(self, capsys):
        status = main(["t0opt", "--family", "geomdec", "--a", "1.2",
                       "--c", "0.5", "--grid", "33"])
        assert status == 0
        assert "grid = 33" in capsys.readouterr().out

    def test_t0opt_bad_grid(self):
        with pytest.raises(SystemExit):
            main(["t0opt", "--family", "uniform", "--lifespan", "100",
                  "--c", "2", "--grid", "1"])

    @pytest.mark.parametrize("argv", [
        ["mc", "--family", "uniform", "--lifespan", "100", "--c", "2"],
        ["t0opt", "--family", "uniform", "--lifespan", "100", "--c", "2"],
        ["servebench", "--quick"],
        ["fleet", "--quick"],
    ], ids=["mc", "t0opt", "servebench", "fleet"])
    def test_jit_engine_rejected(self, capsys, argv):
        """``--engine jit`` is an argparse error: not a choice for ``mc`` and
        ``t0opt``, not a flag at all for ``servebench`` and ``fleet``."""
        with pytest.raises(SystemExit) as exc:
            main(argv + ["--engine", "jit"])
        assert exc.value.code == 2
        assert "--engine" in capsys.readouterr().err


class TestPlanCacheCommand:
    def test_warm_query_stats_clear_cycle(self, tmp_path, capsys):
        cache_dir = str(tmp_path / "plancache")
        status = main(["plancache", "warm", "--family", "uniform",
                       "--cache-dir", cache_dir, "--grid-points", "5",
                       "--search-grid", "33"])
        assert status == 0
        out = capsys.readouterr().out
        assert "warmed uniform" in out
        assert "5x5" in out

        status = main(["plancache", "query", "--family", "uniform",
                       "--c", "2.0", "--value", "200",
                       "--cache-dir", cache_dir])
        assert status == 0
        out = capsys.readouterr().out
        assert "source        : table" in out
        assert "expected work" in out

        status = main(["plancache", "stats", "--cache-dir", cache_dir])
        assert status == 0
        out = capsys.readouterr().out
        assert "table uniform : 5x5" in out
        assert "table poly    : missing" in out

        status = main(["plancache", "clear", "--cache-dir", cache_dir,
                       "--tables"])
        assert status == 0
        out = capsys.readouterr().out
        assert "cleared" in out
        main(["plancache", "stats", "--cache-dir", cache_dir])
        assert "table uniform : missing" in capsys.readouterr().out

    def test_stats_reports_table_of_another_family(self, tmp_path, capsys):
        main(["plancache", "warm", "--family", "uniform", "--cache-dir",
              str(tmp_path), "--grid-points", "3", "--search-grid", "17"])
        tables = tmp_path / "tables" / "v1"
        (tables / "geominc.npz").write_bytes((tables / "uniform.npz").read_bytes())
        capsys.readouterr()
        assert main(["plancache", "stats", "--cache-dir", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "table uniform : 3x3" in out
        assert "table geominc : corrupt/incompatible" in out

    def test_warm_smoke_default_grid(self, tmp_path, capsys):
        """The documented tier-1 smoke invocation, on a tiny grid."""
        status = main(["plancache", "warm", "--family", "uniform",
                       "--cache-dir", str(tmp_path), "--grid-points", "3",
                       "--search-grid", "17"])
        assert status == 0
        assert "1 table(s)" in capsys.readouterr().out

    def test_query_outside_table_falls_back(self, tmp_path, capsys):
        status = main(["plancache", "query", "--family", "geominc",
                       "--c", "1.0", "--value", "30",
                       "--cache-dir", str(tmp_path)])  # nothing warmed
        assert status == 0
        assert "source        : optimizer" in capsys.readouterr().out

    def test_off_table_repeat_is_served_from_the_disk_cache(self, tmp_path, capsys):
        query = ["plancache", "query", "--family", "uniform", "--c", "2.0",
                 "--value", "5000", "--cache-dir", str(tmp_path)]
        reset_default_plan_cache()
        try:
            assert main(query) == 0
            assert "source        : optimizer" in capsys.readouterr().out
            reset_default_plan_cache()  # a new process: only the disk tier is warm
            assert main(query) == 0
            assert "source        : cache" in capsys.readouterr().out
        finally:
            reset_default_plan_cache()

    @pytest.mark.parametrize("c, value, reason", [
        ("500", "100", "every serving tier failed"),  # overhead above the lifespan
        ("2", "-5", "lifespan must be positive"),     # invalid family parameter
    ])
    def test_unservable_query_exits_with_one_line(self, tmp_path, c, value, reason):
        with pytest.raises(SystemExit) as exc:
            main(["plancache", "query", "--family", "uniform", "--c", c,
                  "--value", value, "--cache-dir", str(tmp_path)])
        message = exc.value.code
        assert isinstance(message, str)  # exit status 1, message on stderr
        assert reason in message and "\n" not in message

    def test_warm_bad_grid_points(self, tmp_path):
        with pytest.raises(SystemExit):
            main(["plancache", "warm", "--family", "uniform",
                  "--cache-dir", str(tmp_path), "--grid-points", "1"])

    def test_query_matches_t0opt(self, tmp_path, capsys):
        """A table-served answer agrees with the direct t0 optimizer CLI."""
        cache_dir = str(tmp_path)
        main(["plancache", "warm", "--family", "geominc",
              "--cache-dir", cache_dir, "--grid-points", "5"])
        capsys.readouterr()
        main(["plancache", "query", "--family", "geominc",
              "--c", "1.0", "--value", "30", "--cache-dir", cache_dir])
        served = capsys.readouterr().out
        main(["t0opt", "--family", "geominc", "--lifespan", "30", "--c", "1"])
        direct = capsys.readouterr().out
        pick = lambda txt: [l.split(":")[1].strip() for l in txt.splitlines()
                            if l.startswith("expected work")]
        ew_served = float(pick(served)[0])
        ew_direct = float(pick(direct)[0])
        assert ew_served == pytest.approx(ew_direct, rel=1e-6)


class TestCachedCommands:
    def test_t0opt_cache_dir_round_trip(self, tmp_path, capsys):
        argv = ["t0opt", "--family", "uniform", "--lifespan", "300",
                "--c", "2", "--cache-dir", str(tmp_path)]
        assert main(argv) == 0
        cold = capsys.readouterr().out
        assert main(argv) == 0
        warm = capsys.readouterr().out
        pick = lambda txt: [l for l in txt.splitlines()
                            if l.startswith(("t0 chosen", "expected"))]
        assert pick(cold) == pick(warm)
        assert any((tmp_path / "v1").glob("*.json"))

    def test_compare_cache_dir(self, tmp_path, capsys):
        from repro.core import reset_default_plan_cache

        argv = ["compare", "--family", "geominc", "--lifespan", "20",
                "--c", "1", "--cache-dir", str(tmp_path)]
        reset_default_plan_cache()  # fresh process-default cache per "run"
        assert main(argv) == 0
        assert "plan cache" in capsys.readouterr().out
        reset_default_plan_cache()
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert "disk hits" in out
        assert "0 misses" in out


class TestLifeFunctionFactory:
    def test_all_families(self):
        parser = build_parser()
        cases = [
            (["schedule", "--family", "uniform", "--lifespan", "10", "--c", "1"],
             repro.UniformRisk),
            (["schedule", "--family", "poly", "--d", "3", "--lifespan", "10",
              "--c", "1"], repro.PolynomialRisk),
            (["schedule", "--family", "geomdec", "--a", "1.5", "--c", "1"],
             repro.GeometricDecreasingLifespan),
            (["schedule", "--family", "geominc", "--lifespan", "10", "--c", "1"],
             repro.GeometricIncreasingRisk),
            (["schedule", "--family", "weibull", "--k", "0.8", "--scale", "5",
              "--c", "1"], repro.WeibullLife),
        ]
        for argv, cls in cases:
            args = parser.parse_args(argv)
            assert isinstance(make_life_function(args), cls)


class TestChaosCommand:
    def test_quick_subset_writes_report(self, tmp_path, capsys):
        out = tmp_path / "chaos.json"
        status = main([
            "chaos", "--quick",
            "--classes", "message_loss", "planner_outage",
            "--out", str(out),
        ])
        assert status == 0
        text = capsys.readouterr().out
        assert "chaos matrix" in text
        assert "message_loss" in text and "planner_outage" in text
        import json as _json

        report = _json.loads(out.read_text())
        assert set(report["summary"]) == {"message_loss", "planner_outage"}
        assert all(c["goodput"] > 0.0 for c in report["cells"])

    def test_unknown_class_errors(self):
        with pytest.raises(Exception):
            main(["chaos", "--quick", "--classes", "meteor_strike"])


class TestServebenchCommand:
    @pytest.mark.slow
    def test_quick_run_reports_parity_and_throughput(self, tmp_path, capsys):
        out = tmp_path / "serving.json"
        status = main(["servebench", "--quick", "--out", str(out)])
        assert status == 0
        text = capsys.readouterr().out
        assert "batch speedup" in text
        assert "parity: ok" in text
        import json as _json

        record = _json.loads(out.read_text())
        assert record["parity_ok"] is True
        assert record["batched"]["throughput_qps"] > 0
        assert record["scalar"]["throughput_qps"] > 0
        for key in ("p50", "p95", "p99"):
            assert record["batched"][key] >= 0

    def test_min_speedup_gate(self, capsys):
        # An impossible bar must flip the exit status, not crash.
        status = main(["servebench", "--quick", "--queries", "64",
                       "--min-speedup", "1e9"])
        assert status == 1
        assert "FAIL" in capsys.readouterr().out

    def test_plancache_stats_print_no_nan(self, tmp_path, capsys):
        status = main(["plancache", "stats", "--cache-dir", str(tmp_path)])
        assert status == 0
        out = capsys.readouterr().out
        assert "disk entries" in out
        assert "nan" not in out.lower()


class TestFleetCommand:
    def test_quick_gates_parity_and_prints_table(self, capsys):
        status = main(["fleet", "--quick"])
        assert status == 0
        text = capsys.readouterr().out
        assert "n=1 parity [batched]: ok" in text
        assert "n=1 parity [   heap]: ok" in text
        assert "cross-core parity  : ok" in text
        assert "bulk seeding       : ok" in text
        assert "cyclic garbage     : ok" in text
        assert "sharing" in text and "stealing-latency" in text

    def test_core_flag_selects_heap(self, capsys):
        status = main(["fleet", "--hosts", "8", "--core", "heap",
                       "--work-per-host", "4", "--task-duration", "0.25",
                       "--policy", "sharing"])
        assert status == 0
        assert "heap core" in capsys.readouterr().out

    def test_bucket_width_flag(self, capsys):
        status = main(["fleet", "--hosts", "8", "--bucket-width", "2.5",
                       "--work-per-host", "4", "--task-duration", "0.25",
                       "--policy", "sharing"])
        assert status == 0
        assert "batched core" in capsys.readouterr().out

    def test_profile_prints_hotspots(self, capsys):
        status = main(["fleet", "--hosts", "8", "--profile",
                       "--profile-top", "5", "--work-per-host", "4",
                       "--task-duration", "0.25", "--policy", "sharing"])
        assert status == 0
        text = capsys.readouterr().out
        assert "cumulative" in text
        assert "run_fleet" in text

    def test_single_policy_with_artifact(self, tmp_path, capsys):
        out = tmp_path / "fleet.json"
        status = main(["fleet", "--hosts", "12", "--policy", "stealing",
                       "--work-per-host", "8", "--task-duration", "0.25",
                       "--out", str(out)])
        assert status == 0
        import json as _json

        record = _json.loads(out.read_text())
        assert record["hosts"] == 12
        assert set(record["policies"]) == {"stealing"}
        entry = record["policies"]["stealing"]
        assert entry["events_per_sec"] > 0
        assert entry["mean_field"]["makespan"] > 0

    def test_hetero_mode(self, capsys):
        status = main(["fleet", "--hosts", "8", "--hetero",
                       "--work-per-host", "4", "--task-duration", "0.25",
                       "--policy", "sharing"])
        assert status == 0
        assert "hetero" in capsys.readouterr().out

    def test_bad_hosts_rejected(self):
        with pytest.raises(SystemExit):
            main(["fleet", "--hosts", "0"])
