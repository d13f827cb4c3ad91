"""The :mod:`repro.jitkernels` subsystem: probe, fallback, and jit↔NumPy parity.

Two test populations:

* **Always-run** — the capability probe, the ``REPRO_DISABLE_JIT`` override,
  the transparent-fallback contract (``engine="jit"`` must be *bit-identical*
  to the NumPy engines whenever the kernels are unavailable), and the CLI's
  explicit-error behavior.  These are what tier-1 exercises in this repo's
  container, where numba is not installed.
* **numba-armed** (``skipif not available()``) — the hypothesis differential
  suite comparing the compiled kernels against the NumPy engines across all
  Section 4 families and the mixed-lane hetero engine, plus the on-disk
  kernel-cache warm-start test.  These arm on the CI leg that installs the
  ``jit`` extra.

Parity tolerance: uniform / poly ``d = 1`` lanes are bit-identical (pure
arithmetic); the remaining families may differ at the transcendental sites
listed in :mod:`repro.jitkernels.kernels` (``pow``/``exp``/``log``/
``expm1``/``log2``), bounded here at 4 ULP per emitted period.  Structure —
period counts, termination codes, NaN padding — must always be identical.
"""

from __future__ import annotations

import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro
from repro import jitkernels
from repro.core.batch_recurrence import batch_expected_work, generate_schedules_batch
from repro.core.hetero_recurrence import generate_schedules_hetero
from repro.core.life_functions import (
    GeometricDecreasingLifespan,
    GeometricIncreasingRisk,
    PolynomialRisk,
    UniformRisk,
)
from repro.exceptions import InvalidScheduleError, JITUnavailableError

#: Maximum tolerated divergence at the documented transcendental sites.
MAX_ULP = 4

needs_numba = pytest.mark.skipif(
    not jitkernels.available(), reason="numba not importable (jit extra not installed)"
)


@pytest.fixture
def fresh_probe(monkeypatch):
    """Re-probe around the test and restore the memo afterwards."""
    saved = jitkernels._probe_result
    yield monkeypatch
    jitkernels._probe_result = saved


def _force_unavailable(monkeypatch, reason="forced off for test"):
    monkeypatch.setattr(jitkernels, "_probe_result", (False, reason))


# ----------------------------------------------------------------------
# The capability probe (always run)
# ----------------------------------------------------------------------


def test_probe_is_consistent():
    ok = jitkernels.available()
    assert isinstance(ok, bool)
    if ok:
        assert jitkernels.disabled_reason() == ""
        assert jitkernels.kernels() is not None
    else:
        assert jitkernels.disabled_reason()
        with pytest.raises(JITUnavailableError):
            jitkernels.kernels()


def test_disable_env_wins(fresh_probe):
    fresh_probe.setenv(jitkernels.DISABLE_ENV, "1")
    jitkernels.refresh()
    assert not jitkernels.available()
    assert jitkernels.DISABLE_ENV in jitkernels.disabled_reason()
    # "0" and empty mean enabled (fall through to the import probe).
    fresh_probe.setenv(jitkernels.DISABLE_ENV, "0")
    jitkernels.refresh()
    assert jitkernels.DISABLE_ENV not in jitkernels.disabled_reason()


def test_require_and_resolve(fresh_probe):
    _force_unavailable(fresh_probe)
    with pytest.raises(JITUnavailableError, match="forced off"):
        jitkernels.require("unit test")
    assert jitkernels.resolve_engine("jit", "batch") == "batch"
    assert jitkernels.resolve_engine("scalar", "batch") == "scalar"
    fresh_probe.setattr(jitkernels, "_probe_result", (True, ""))
    jitkernels.require("unit test")  # must not raise
    assert jitkernels.resolve_engine("jit", "batch") == "jit"


def test_family_codes():
    assert jitkernels.family_code("uniform") == jitkernels.FAM_POLY
    assert jitkernels.family_code("poly") == jitkernels.FAM_POLY
    assert jitkernels.family_code("geomdec") == jitkernels.FAM_GEOMDEC
    assert jitkernels.family_code("geominc") == jitkernels.FAM_GEOMINC
    with pytest.raises(JITUnavailableError):
        jitkernels.family_code("weibull")


def test_numba_cache_dir_rides_the_plan_cache_dir(fresh_probe, tmp_path):
    fresh_probe.setenv("REPRO_CACHE_DIR", str(tmp_path / "plans"))
    assert jitkernels.numba_cache_dir() == tmp_path / "plans" / "numba"


# ----------------------------------------------------------------------
# Transparent fallback: engine="jit" without numba == the NumPy engines
# (always run; on numba hosts the probe is forced off)
# ----------------------------------------------------------------------


def _assert_batch_results_identical(a, b):
    np.testing.assert_array_equal(a.periods, b.periods)  # NaN-equal
    np.testing.assert_array_equal(a.num_periods, b.num_periods)
    np.testing.assert_array_equal(a.termination_codes, b.termination_codes)
    np.testing.assert_array_equal(a.expected_work, b.expected_work)


def test_homogeneous_fallback_is_bit_identical(fresh_probe):
    _force_unavailable(fresh_probe)
    p, c = repro.UniformRisk(200.0), 2.0
    ts = np.linspace(5.0, 150.0, 33)
    a = generate_schedules_batch(p, c, ts)
    b = generate_schedules_batch(p, c, ts, engine="jit")
    _assert_batch_results_identical(a, b)
    np.testing.assert_array_equal(a.targets, b.targets)


def test_hetero_fallback_is_bit_identical(fresh_probe):
    _force_unavailable(fresh_probe)
    cs = np.array([0.5, 1.0, 2.0, 3.0])
    params = np.array([80.0, 120.0, 200.0, 400.0])
    t0s = np.array([4.0, 9.0, 25.0, 60.0])
    a = generate_schedules_hetero("uniform", cs, params, t0s)
    b = generate_schedules_hetero("uniform", cs, params, t0s, engine="jit")
    _assert_batch_results_identical(a, b)


def test_scoring_and_optimizer_fallback(fresh_probe):
    _force_unavailable(fresh_probe)
    p, c = repro.PolynomialRisk(2, 150.0), 1.5
    base = generate_schedules_batch(p, c, np.linspace(4.0, 100.0, 9))
    np.testing.assert_array_equal(
        batch_expected_work(base.periods, p, c),
        batch_expected_work(base.periods, p, c, engine="jit"),
    )
    t0_a, out_a, ew_a = repro.optimize_t0_via_recurrence(p, c, engine="batch")
    t0_b, out_b, ew_b = repro.optimize_t0_via_recurrence(p, c, engine="jit")
    assert (t0_a, ew_a) == (t0_b, ew_b)
    np.testing.assert_array_equal(out_a.schedule.periods, out_b.schedule.periods)


def test_mc_engine_fallback(fresh_probe):
    _force_unavailable(fresh_probe)
    from repro.simulation import estimate_expected_work

    p, c = repro.UniformRisk(100.0), 1.0
    schedule = repro.guideline_schedule(p, c).schedule
    a = estimate_expected_work(p=p, c=c, schedule=schedule, n=4000,
                               rng=np.random.default_rng(11), engine="vectorized")
    b = estimate_expected_work(p=p, c=c, schedule=schedule, n=4000,
                               rng=np.random.default_rng(11), engine="jit")
    assert a.mean == b.mean and a.stderr == b.stderr


def test_fleet_fallback_is_bit_identical(fresh_probe):
    """``run_fleet(engine="jit")`` without numba degrades to the inline
    checkout fix-up and ``np.lexsort`` — bit-identically, on both cores."""
    from repro.now.fleet import FleetSpec, _fleet_kernels, run_fleet

    _force_unavailable(fresh_probe)
    assert _fleet_kernels() == (None, None)
    spec = FleetSpec.heterogeneous(8, seed=5)
    durations = np.full(256, 0.25)
    for core in ("batched", "heap"):
        a = run_fleet(spec, durations, 200.0, policy="stealing", core=core)
        b = run_fleet(spec, durations, 200.0, policy="stealing", core=core,
                      engine="jit")
        assert a.events_processed == b.events_processed
        assert a.completion_time == b.completion_time
        np.testing.assert_array_equal(a.work_done, b.work_done)
        np.testing.assert_array_equal(a.steals_succeeded, b.steals_succeeded)


def test_unknown_engine_rejected():
    p = repro.UniformRisk(100.0)
    with pytest.raises(InvalidScheduleError):
        generate_schedules_batch(p, 1.0, [5.0], engine="cuda")
    with pytest.raises(InvalidScheduleError):
        generate_schedules_hetero(
            "uniform", np.array([1.0]), np.array([100.0]), np.array([5.0]),
            engine="cuda",
        )
    with pytest.raises(InvalidScheduleError):
        batch_expected_work(np.array([[5.0]]), p, 1.0, engine="cuda")
    with pytest.raises(ValueError):
        repro.optimize_t0_via_recurrence(p, 1.0, engine="cuda")


def test_cli_errors_clearly_when_jit_named(fresh_probe, capsys):
    from repro.cli import main

    _force_unavailable(fresh_probe, reason="numba is not importable (test)")
    with pytest.raises(SystemExit) as exc:
        main(["t0opt", "--family", "uniform", "--lifespan", "100",
              "--c", "2", "--engine", "jit"])
    assert "numba" in str(exc.value)
    with pytest.raises(SystemExit) as exc:
        main(["mc", "--family", "uniform", "--lifespan", "100",
              "--c", "2", "--engine", "jit"])
    assert "numba" in str(exc.value)
    with pytest.raises(SystemExit) as exc:
        main(["servebench", "--quick", "--engine", "jit"])
    assert "numba" in str(exc.value)


def test_cli_rejects_jit_with_workers(fresh_probe):
    from repro.cli import main

    # Force the probe open so the check under test (jit x sharded tier is
    # unsupported) is what fires, with or without numba installed.
    fresh_probe.setattr(jitkernels, "_probe_result", (True, ""))
    with pytest.raises(SystemExit, match="--workers"):
        main(["servebench", "--quick", "--engine", "jit", "--workers", "2"])


# ----------------------------------------------------------------------
# Differential suite: compiled kernels vs the NumPy engines (numba only)
# ----------------------------------------------------------------------

#: (family, d, parameter strategy) for the hetero engine sweep.
_FAMILY_CASES = [
    ("uniform", 1, st.floats(20.0, 500.0)),
    ("poly", 1, st.floats(20.0, 500.0)),
    ("poly", 3, st.floats(20.0, 500.0)),
    ("geomdec", 1, st.floats(1.05, 2.0)),
    ("geominc", 1, st.floats(5.0, 60.0)),
]

#: Families whose kernels involve no transcendental (bit-identical required).
_EXACT = {("uniform", 1), ("poly", 1)}


def _hetero_case(family, d, params, cs, t0s):
    a = generate_schedules_hetero(family, cs, params, t0s, d=d)
    b = generate_schedules_hetero(family, cs, params, t0s, d=d, engine="jit")
    assert a.periods.shape == b.periods.shape
    np.testing.assert_array_equal(a.num_periods, b.num_periods)
    np.testing.assert_array_equal(a.termination_codes, b.termination_codes)
    assert np.array_equal(np.isnan(a.periods), np.isnan(b.periods))
    mask = ~np.isnan(a.periods)
    if (family, d) in _EXACT:
        np.testing.assert_array_equal(a.periods, b.periods)
        np.testing.assert_array_equal(a.expected_work, b.expected_work)
    else:
        np.testing.assert_array_max_ulp(a.periods[mask], b.periods[mask], MAX_ULP)
        # E accumulates the (<= MAX_ULP) per-period noise across up to
        # thousands of periods; bound it relatively instead of per-ULP.
        np.testing.assert_allclose(a.expected_work, b.expected_work, rtol=1e-9)


@needs_numba
@settings(max_examples=40, deadline=None)
@given(
    case=st.sampled_from(_FAMILY_CASES),
    data=st.data(),
)
def test_hetero_jit_matches_numpy(case, data):
    family, d, param_strategy = case
    n = data.draw(st.integers(1, 12), label="lanes")
    params = np.array([data.draw(param_strategy) for _ in range(n)])
    cs = np.array([data.draw(st.floats(0.05, 3.0)) for _ in range(n)])
    # t0 anywhere from just-productive to past the lifespan clamp.
    t0s = np.array([
        data.draw(st.floats(1.05, 1.8)) * cs[i]
        + data.draw(st.floats(0.0, 1.2)) * (params[i] if family != "geomdec" else 50.0)
        for i in range(n)
    ])
    _hetero_case(family, d, params, cs, t0s)


@needs_numba
@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_homogeneous_jit_matches_numpy(data):
    label = data.draw(st.sampled_from(["uniform", "poly3", "geomdec", "geominc"]))
    if label == "uniform":
        p = UniformRisk(data.draw(st.floats(30.0, 500.0)))
    elif label == "poly3":
        p = PolynomialRisk(3, data.draw(st.floats(30.0, 500.0)))
    elif label == "geomdec":
        p = GeometricDecreasingLifespan(data.draw(st.floats(1.05, 1.9)))
    else:
        p = GeometricIncreasingRisk(data.draw(st.floats(6.0, 60.0)))
    c = data.draw(st.floats(0.1, 2.5))
    hi = p.lifespan * 0.999 if np.isfinite(p.lifespan) else 60.0
    if hi <= c * 1.1:
        hi = c * 4.0
    ts = np.linspace(c * 1.05, hi, data.draw(st.integers(2, 33)))
    a = generate_schedules_batch(p, c, ts)
    b = generate_schedules_batch(p, c, ts, engine="jit")
    np.testing.assert_array_equal(a.num_periods, b.num_periods)
    np.testing.assert_array_equal(a.termination_codes, b.termination_codes)
    assert np.array_equal(np.isnan(a.periods), np.isnan(b.periods))
    mask = ~np.isnan(a.periods)
    tmask = ~np.isnan(a.targets)
    if label == "uniform":
        np.testing.assert_array_equal(a.periods, b.periods)
        np.testing.assert_array_equal(a.expected_work, b.expected_work)
        np.testing.assert_array_equal(a.targets, b.targets)
    else:
        np.testing.assert_array_max_ulp(a.periods[mask], b.periods[mask], MAX_ULP)
        assert np.array_equal(np.isnan(a.targets), np.isnan(b.targets))
        np.testing.assert_allclose(a.targets[tmask], b.targets[tmask],
                                   rtol=1e-12, atol=1e-12)
        np.testing.assert_allclose(a.expected_work, b.expected_work, rtol=1e-9)


@needs_numba
def test_scoring_kernel_matches_scalar_order():
    # expected_work_rows accumulates left-to-right like the hetero engine,
    # so scoring a hetero result's own periods must reproduce its E exactly.
    cs = np.array([0.5, 1.0, 2.0])
    params = np.array([90.0, 150.0, 300.0])
    t0s = np.array([5.0, 12.0, 30.0])
    for family in ("uniform", "geomdec", "geominc"):
        pv = params if family != "geomdec" else np.array([1.2, 1.4, 1.1])
        res = generate_schedules_hetero(family, cs, pv, t0s, engine="jit")
        kern = jitkernels.kernels()
        rescored = kern.expected_work_rows(
            np.ascontiguousarray(res.periods), jitkernels.family_code(family),
            1, cs, pv,
        )
        np.testing.assert_array_equal(res.expected_work, rescored)


@needs_numba
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_fleet_checkout_fixup_matches_python(data):
    """The compiled cut fix-up converges to the same index as the inline
    loops in ``_RangePool.checkout`` from any starting seed."""
    kern = jitkernels.kernels()
    n = data.draw(st.integers(1, 40), label="tasks")
    durs = np.array([data.draw(st.sampled_from([0.0625, 0.25, 1.0, 1e-6]))
                     for _ in range(n)])
    cum = np.concatenate(([0.0], np.cumsum(durs)))
    lo = data.draw(st.integers(0, n - 1), label="lo")
    hi = data.draw(st.integers(lo, n), label="hi")
    base = float(cum[lo])
    used = data.draw(st.floats(0.0, 4.0), label="used")
    limit = used + data.draw(st.floats(0.0, 8.0), label="budget") + 1e-12
    j_seed = data.draw(st.integers(-2, n + 2), label="seed")

    j = j_seed
    if j < lo:
        j = lo
    elif j > hi:
        j = hi
    while j < hi and used + (float(cum[j + 1]) - base) <= limit:
        j += 1
    while j > lo and used + (float(cum[j]) - base) > limit:
        j -= 1
    assert int(kern.fleet_checkout_fixup(cum, base, used, limit,
                                         lo, hi, j_seed)) == j


@needs_numba
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_fleet_event_order_matches_lexsort(data):
    kern = jitkernels.kernels()
    n = data.draw(st.integers(1, 200), label="events")
    rng = np.random.default_rng(data.draw(st.integers(0, 2**16)))
    # Duplicate times/prios on purpose; seqs are unique, so the
    # (time, prio, seq) key is total and the order must be exact.
    times = rng.choice(np.linspace(0.0, 10.0, 17), n)
    prios = rng.integers(-1, 4, n).astype(np.int64)
    seqs = rng.permutation(n).astype(np.int64)
    np.testing.assert_array_equal(
        kern.fleet_event_order(times, prios, seqs),
        np.lexsort((seqs, prios, times)),
    )


@needs_numba
def test_gather_kernel_bit_identical():
    kern = jitkernels.kernels()
    rng = np.random.default_rng(3)
    boundaries = np.sort(rng.uniform(0.0, 100.0, 37))
    cumulative = np.concatenate(([0.0], np.cumsum(rng.uniform(0.0, 5.0, 37))))
    # Include exact boundary hits: side='left' must kill the hit period.
    reclaim = np.concatenate([rng.uniform(-1.0, 105.0, 500), boundaries[:5]])
    work, k = kern.episodes_gather(boundaries, cumulative, reclaim)
    k_ref = np.searchsorted(boundaries, reclaim, side="left")
    np.testing.assert_array_equal(k, k_ref)
    np.testing.assert_array_equal(work, cumulative[k_ref])


# ----------------------------------------------------------------------
# On-disk kernel cache warm start (numba only)
# ----------------------------------------------------------------------

_WARM_SNIPPET = """
import json, sys
from repro import jitkernels
assert jitkernels.available(), jitkernels.disabled_reason()
kern = jitkernels.kernels()
kern.warmup()
hits = sum(
    sum(kern.__dict__[name].stats.cache_hits.values())
    for name in ("hetero_recurrence", "expected_work_rows", "episodes_gather")
)
print(json.dumps({"cache_hits": int(hits)}))
"""


@needs_numba
def test_kernel_cache_warm_start(tmp_path):
    """The second process must load kernels from disk, not recompile.

    Both processes share one ``NUMBA_CACHE_DIR``; the first pays the
    compile, the second must report nonzero dispatcher cache hits — the
    property that keeps the sharded serving workers from recompiling per
    process.
    """
    import json as _json
    import os

    env = dict(os.environ)
    env["NUMBA_CACHE_DIR"] = str(tmp_path / "numba-cache")
    env.pop(jitkernels.DISABLE_ENV, None)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(repro.__file__).rsplit("/repro/", 1)[0],
                      env.get("PYTHONPATH", "")])
    )
    outs = []
    for _ in range(2):
        proc = subprocess.run(
            [sys.executable, "-c", _WARM_SNIPPET],
            capture_output=True, text=True, env=env, timeout=600,
        )
        assert proc.returncode == 0, proc.stderr
        outs.append(_json.loads(proc.stdout.strip().splitlines()[-1]))
    assert outs[1]["cache_hits"] > 0, outs
