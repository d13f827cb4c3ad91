"""Self-tests of the benchmark's own code (no workload is run).

Run from the repository root: ``python3 -m pytest perfbench -q``.
"""

from __future__ import annotations

import json
import re
import threading

import pytest

from perfbench import compare, core
from perfbench.run import NAME_RE

SPEC = json.loads((core.ROOT / "BENCHMARK.json").read_text())
UNIT_RE = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


# ----------------------------------------------------------------------
# Metric names
# ----------------------------------------------------------------------


def test_declared_names_follow_the_pattern_and_are_unique():
    names = [w["name"] for w in SPEC["workloads"]]
    names += [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    assert all(NAME_RE.match(n) for n in names)
    assert len(names) == len(set(names))
    units = [m["unit"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    assert all(UNIT_RE.match(u) for u in units)


@pytest.mark.parametrize("bad", ["", "_lead", ".lead", "has space", "a" * 65, "x/y"])
def test_name_pattern_rejects(bad):
    assert not NAME_RE.match(bad)


def test_bounds_and_setup_metric():
    bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
    assert all(0 < b <= 0.25 for b in bounds.values())
    setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert bounds["setup_s"] == max(bounds.values())


# ----------------------------------------------------------------------
# Percentiles need ten samples beyond them
# ----------------------------------------------------------------------


@pytest.mark.parametrize("q, n, ok", [
    (99, 999, False), (99, 1000, True), (50, 19, False), (50, 20, True),
    (90, 99, False), (90, 100, True), (99, 1, False),
])
def test_percentile_support(q, n, ok):
    assert core.supports(q, n) is ok


def test_tail_falls_back_to_a_supported_tail_percentile_or_the_maximum():
    assert core.tail(list(range(1, 1001)), 99) == (990.0, "p99")
    assert core.percentile(list(range(1, 1001)), 99) == 990.0
    # 200 samples: p99 is unsupported; p95 (rank 190) has ten beyond it.
    assert core.tail(list(range(1, 201)), 99) == (190.0, "p95")
    # 50 samples: the best supported percentile, p80, is no tail: maximum.
    assert core.tail(list(range(1, 51)), 99) == (50.0, "max")
    assert core.tail([3.0, 1.0, 2.0], 99) == (3.0, "max")


def test_least_takes_the_stretch_the_machine_slowed_least():
    fast = [float(x) for x in range(1, 1001)]
    slow = [10 * x for x in fast]
    assert core.least_tail([slow, fast, slow], 99) == (
        990.0, "lowest over 3 stretches of each one's p99")
    assert core.least([[3.0, 1.0, 2.0], [], [5.0]], core.median) == 2.0
    assert core.chunks(list(range(7)), 3) == [[0, 1, 2], [3, 4, 5], [6]]
    with pytest.raises(ValueError):
        core.least([[]], core.median)


def test_operation_metrics():
    # Stretches of two: medians 2.5, 4, 2.25, 5, 2.5; maxima 3, 4, 2.5, 5, 3.
    walls = [3.0, 2.0, 4.0, 4.0, 2.0, 2.5, 5.0, 5.0, 2.0, 3.0]
    e2e, label = core.operation_metrics([0.2, 0.1, 0.3], walls, 9.0)
    assert e2e == {"setup_s": 0.1, "run_s": 2.25, "p50_ms": 2250.0, "p99_ms": 2500.0,
                   "sat_qps": 4.0}
    assert label == "lowest over 5 stretches of each one's max"


# ----------------------------------------------------------------------
# Self time
# ----------------------------------------------------------------------


def test_covered_merges_overlapping_children_and_clips_to_parent():
    assert core.covered(0, 10, [(1, 3), (2, 5), (8, 12)]) == 6
    assert core.covered(0, 10, []) == 0
    assert core.covered(0, 10, [(-5, 20)]) == 10


def test_self_time_subtracts_only_direct_children():
    spans = [
        core.Span(1, "batch", 0.0, 10.0),
        core.Span(2, "table", 1.0, 4.0, parent=1),
        core.Span(3, "hetero", 2.0, 3.0, parent=2),
        core.Span(4, "cache", 5.0, 6.0, parent=1),
    ]
    own = core.self_times(spans)
    assert own == {1: 6.0, 2: 2.0, 3: 1.0, 4: 1.0}


def test_tracer_parents_are_per_thread():
    tracer = core.Tracer()

    def worker():
        with tracer.span("other"):
            pass

    with tracer.span("outer"):
        with tracer.span("inner"):
            t = threading.Thread(target=worker)
            t.start()
            t.join(timeout=10)
    assert not t.is_alive()
    by_name = {s.name: s for s in tracer.spans}
    assert by_name["inner"].parent == by_name["outer"].sid
    assert by_name["other"].parent is None
    assert tracer.self_total("outer") <= by_name["outer"].duration


def test_patched_restores_the_original_even_on_error():
    class Mod:
        @staticmethod
        def f(x):
            return x + 1

    tracer = core.Tracer()
    original = Mod.f
    with pytest.raises(RuntimeError):
        with core.patched(tracer, [(Mod, "f", "mod.f", lambda a, k: {"x": a[0]})]):
            assert Mod.f(1) == 2
            raise RuntimeError
    assert Mod.f is original
    assert [(s.name, s.attrs) for s in tracer.spans] == [("mod.f", {"x": 1})]


# ----------------------------------------------------------------------
# compare
# ----------------------------------------------------------------------


def test_regression_beyond_the_bound_is_flagged():
    old = [100.0 + i for i in range(10)]
    new = [130.0 + i for i in range(10)]
    assert compare.verdict(old, new, "lower", 0.1)["verdict"] == "REGRESSION"
    assert compare.verdict(old, new, "higher", 0.1)["verdict"] == "gain"


def test_small_worsening_within_the_bound_is_same():
    old = [100.0 + i for i in range(10)]
    new = [104.0 + i for i in range(10)]
    assert compare.verdict(old, new, "lower", 0.1)["verdict"] == "same"


def test_wide_spread_is_unresolved_unless_every_run_is_better():
    old = [90.0, 110.0] * 5
    new = [95.0, 125.0] * 5
    assert compare.verdict(old, new, "lower", 0.1)["verdict"] == "unresolved"
    faster = [v / 10 for v in old]
    assert compare.verdict(old, faster, "lower", 0.1)["verdict"] == "gain"


def test_gain_needs_nine_tenths_of_pairs():
    old = [100.0] * 10
    nine = [80.0] * 9 + [100.0]
    eight = [80.0] * 8 + [100.0, 100.0]
    assert compare.verdict(old, nine, "lower", 0.1)["verdict"] == "gain"
    assert compare.verdict(old, eight, "lower", 0.1)["verdict"] == "same"


def test_quartiles_match_the_statistics_module():
    import statistics

    values = [3.0, 1.0, 4.0, 1.0, 5.0, 9.0, 2.0, 6.0, 5.0, 3.0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    assert compare.quartiles(values) == (q1, q2, q3)
    assert compare.spread(values) == pytest.approx((q3 - q1) / q2)


def test_compare_flags_more_failures():
    spec = {"workloads": [{"name": "w"}],
            "end_to_end": [{"name": "m", "unit": "s", "better": "lower", "bound": 0.1}]}
    rec = lambda v, failed: {"metrics": {"m": {"value": v, "unit": "s"}},
                             "failed": failed, "attempted": 10}
    old = {"runs": {"w": [rec(1.0, 0), rec(1.01, 0)]}}
    new = {"runs": {"w": [rec(1.0, 0), rec(1.01, 1)]}}
    rows, flagged = compare.compare(old, new, spec)
    assert flagged and "failures rose" in rows[-1]
    rows, flagged = compare.compare(old, old, spec)
    assert not flagged
