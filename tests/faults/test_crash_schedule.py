"""Block-drawn crash schedules against the one-gap-at-a-time loop.

``FaultRuntime`` draws each workstation's exponential crash gaps from the
``"crash"`` stream in blocks.  ``_loop_crashes`` is the loop it replaced,
kept here as the oracle: every planned outage must match it bit for bit
(floats compared by ``float.hex``), and the stream must be left where the
loop leaves it.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.faults import CrashFault, FaultEvent, FaultLog, FaultPlan

_CRASH_STREAM = 0  # the "crash" entry of the runtime's sub-stream table


def _loop_crashes(rng, ws_ids, mtbf, restart_time, horizon):
    """The reference: one ``rng.exponential`` call per gap, host by host."""
    schedule = {}
    for ws in ws_ids:
        pairs = []
        t = 0.0
        while True:
            t += float(rng.exponential(mtbf))
            if t >= horizon:
                break
            if pairs and t < pairs[-1][1]:
                continue  # still down from the previous crash
            pairs.append((t, t + restart_time))
        schedule[ws] = pairs
    return schedule


def _hex_pairs(pairs):
    return [(a.hex(), b.hex()) for a, b in pairs]


@pytest.mark.parametrize("seed", [0, 3, 11])
@pytest.mark.parametrize(
    "n_hosts,mtbf,restart_time,horizon",
    [
        (1, 100.0, 2.0, 300.0),
        (2, 5.0, 3.0, 120.0),
        (37, 0.5, 0.0, 40.0),        # zero-length outages
        (37, 1.0, 4.0, 60.0),        # most crashes land inside an outage
        (500, 1e4, 1.0, 300.0),      # almost every host draws one gap only
        (10_000, 100.0, 2.0, 300.0),  # the fleet-steal benchmark's churn
        (1, 0.01, 0.5, 1000.0),      # ~1e5 gaps: the first block runs out
    ],
)
def test_block_schedule_matches_loop(seed, n_hosts, mtbf, restart_time, horizon):
    plan = FaultPlan(seed=seed, injectors=(CrashFault(mtbf, restart_time),))
    # Unsorted, non-contiguous keys: the runtime walks them sorted.
    keys = [3 * k + 1 for k in range(n_hosts)][::-1]
    runtime = plan.start(keys, horizon)
    oracle_rng = np.random.default_rng([seed, _CRASH_STREAM])
    oracle = _loop_crashes(oracle_rng, sorted(keys), mtbf, restart_time, horizon)

    for ws in keys:
        assert _hex_pairs(runtime.crash_schedule(ws)) == _hex_pairs(oracle[ws])
    ws_ids, crashes, restarts = runtime.crash_arrays()
    expected = [(ws, c, r) for ws in sorted(oracle) for c, r in oracle[ws]]
    assert ws_ids.tolist() == [ws for ws, _, _ in expected]
    assert [c.hex() for c in crashes.tolist()] == [c.hex() for _, c, _ in expected]
    assert [r.hex() for r in restarts.tolist()] == [r.hex() for _, _, r in expected]
    # The stream continues where the loop leaves it.
    after = runtime._rngs["crash"]
    assert after.bit_generator.state == oracle_rng.bit_generator.state
    assert after.exponential(mtbf) == oracle_rng.exponential(mtbf)


def test_no_workstations_draws_nothing():
    plan = FaultPlan(seed=2, injectors=(CrashFault(10.0),))
    runtime = plan.start([], 100.0)
    fresh = np.random.default_rng([2, _CRASH_STREAM])
    assert runtime._rngs["crash"].bit_generator.state == fresh.bit_generator.state
    assert runtime.crash_arrays()[0].size == 0


@pytest.mark.parametrize("detail", [None, {}])
def test_record_without_detail_equals_make(detail):
    log = FaultLog()
    event = log.record(np.float64(2.5), "crash", np.int64(7), detail)
    assert event == FaultEvent.make(2.5, "crash", 7)
    assert type(event.time) is float and type(event.ws_id) is int
    assert log.events == [event]
