"""BENCH-FLEET — the vectorized multi-host fleet engine at scale.

Measures the :mod:`repro.now.fleet` event cores at 100 / 1,000 / 10,000 /
100,000 hosts across the three dispatch policies (centralized sharing,
randomized work stealing, latency-aware stealing), records makespan /
goodput / steal rate / events-per-second per cell, checks the mean-field
fixed-point prediction against each simulation, and arms two gates:

* **scalar gate** (1,000 hosts): the fleet engine must beat a loop of N
  independent ``run_farm`` calls over the same per-host shares, schedules,
  and RNG substreams by >= ``MIN_SPEEDUP`` (20x) host-events/sec;
* **core gate** (10,000 hosts): the batched calendar-queue core must beat
  the scalar binary-heap oracle by >= ``MIN_CORE_SPEEDUP`` (3x) events/sec
  on a churn-stress scenario — short presence cycles and tasks too large
  to ever fit a period budget, so the run is pure owner-churn event
  traffic, the regime where queue mechanics (not shared dispatch
  arithmetic) dominate the wall clock.

Both cores must also pass the bit-parity gates first: n = 1 ≡ ``run_farm``
for each core, and batched ≡ heap across all three policies, clean and
under each of the six fault classes.

Runs two ways:

* under pytest (``pytest benchmarks/bench_fleet.py -s``) — asserts the
  parity gates and the 20x scalar speedup at 1,000 hosts (the 3x core
  gate stays dark: it needs the 10k churn scenario, which is nightly
  territory);
* as a script (``python benchmarks/bench_fleet.py [out.json]``) — writes
  the JSON artifact (default ``benchmarks/BENCH_fleet.json``) and exits
  nonzero if parity fails or an armed gate misses.  ``--max-hosts`` drops
  scale rows *and* disarms any gate whose host count exceeds it.

The workload is dyadic (power-of-two task durations) so range-packing is
bit-exact.  The scalar gate times best-of-2 (the first rep pays the
one-time page-faulting of the large task arrays); the core duel times
median-of-3 (see :func:`core_speedup_duel` for why min-of-N is wrong
there).
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

import numpy as np

from repro.analysis.fleetbench import (
    cross_core_check,
    parity_check,
    run_policy_comparison,
    scalar_baseline,
    fleet_workload,
)
from repro.now.fleet import FleetSpec, plan_fleet_schedules, run_fleet

MIN_SPEEDUP = 20.0
GATE_HOSTS = 1_000
SEED = 7

#: Batched-vs-heap events/sec gate: armed only when the run reaches the
#: churn-stress host count (queue mechanics need scale to dominate).
MIN_CORE_SPEEDUP = 3.0
CORE_GATE_HOSTS = 10_000
CORE_GATE_HORIZON = 192.0
#: Fine buckets keep per-bucket cohorts near-singleton on this workload.
CORE_GATE_BUCKET_WIDTH = CORE_GATE_HORIZON / 4096.0

#: (hosts, work_per_host, task_duration, horizon) — granularity stays
#: dyadic; bigger rows carry less work per host to bound the global task
#: array, and the 100k row gets a tighter horizon so the batched core's
#: owner-timeline precompute (which scales with horizon, not makespan)
#: stays proportionate.
SCALES = [
    (100, 128.0, 0.015625, 800.0),
    (1_000, 128.0, 0.015625, 800.0),
    (10_000, 32.0, 0.0625, 800.0),
    (100_000, 8.0, 0.125, 200.0),
]


def _timed_fleet_events_per_sec(spec, durations, plan, horizon) -> dict:
    """Best-of-2 sharing-policy run (rep 1 excludes cold page faults)."""
    best = None
    for _ in range(2):
        start = time.perf_counter()
        result = run_fleet(spec, durations, horizon, policy="sharing",
                           plan=plan)
        seconds = time.perf_counter() - start
        if best is None or seconds < best[1]:
            best = (result, seconds)
    result, seconds = best
    return {
        "events": result.events_processed,
        "seconds": seconds,
        "events_per_sec": result.events_processed / seconds,
        "finished": result.finished,
        "makespan": result.completion_time,
    }


def core_speedup_duel(hosts: int = CORE_GATE_HOSTS, reps: int = 3) -> dict:
    """Time batched vs heap on the churn-stress scenario, median-of-reps.

    Every task is far larger than any period budget (so zero commits) and
    presence cycles are short, leaving nothing but owner churn + failed
    dispatch — the event-queue stress regime the core gate is meant to
    protect.  Reps interleave the two cores and the gate compares
    *medians*: a shared machine's speed drifts between reps (±10% and
    more), and a min-of-N would let one lucky heap rep mask a real
    batched-core regression.  Neither core's time includes cyclic garbage
    collection, which ``run_fleet`` pauses for the whole run.
    """
    spec = FleetSpec.homogeneous(hosts, family="uniform", param=1.0,
                                 c=0.05, present_mean=0.5, seed=SEED)
    plan = plan_fleet_schedules(spec, grid=9)
    durations = np.full(hosts, 50.0)
    out: dict = {
        "hosts": hosts,
        "horizon": CORE_GATE_HORIZON,
        "bucket_width": CORE_GATE_BUCKET_WIDTH,
        "reps": reps,
        "cores": {},
    }
    timings: dict = {"heap": [], "batched": []}
    events: dict = {}
    for _ in range(reps):
        for core in ("heap", "batched"):
            start = time.perf_counter()
            result = run_fleet(
                spec, durations, CORE_GATE_HORIZON, policy="sharing",
                plan=plan, core=core,
                bucket_width=(CORE_GATE_BUCKET_WIDTH
                              if core == "batched" else None),
            )
            timings[core].append(time.perf_counter() - start)
            events[core] = result.events_processed
    for core in ("heap", "batched"):
        seconds = float(np.median(timings[core]))
        out["cores"][core] = {
            "events": events[core],
            "seconds": seconds,
            "seconds_all": timings[core],
            "events_per_sec": events[core] / seconds,
        }
    out["speedup"] = (out["cores"]["batched"]["events_per_sec"]
                      / out["cores"]["heap"]["events_per_sec"])
    return out


def measure(scales=SCALES, gate_hosts: int = GATE_HOSTS,
            core_gate_hosts: int = CORE_GATE_HOSTS) -> dict:
    """Run the full fleet benchmark; returns the artifact record."""
    parity = {core: parity_check(seed=SEED, core=core)
              for core in ("batched", "heap")}
    cross_core = cross_core_check(seed=SEED)
    max_hosts = max((s[0] for s in scales), default=0)
    record: dict = {
        "seed": SEED,
        "parity": parity["batched"],
        "parity_heap": parity["heap"],
        "cross_core": cross_core,
        "scales": [],
        "gate_hosts": gate_hosts,
        "min_speedup_required": MIN_SPEEDUP,
        "speedup": None,
        "gate_armed": False,
        "core_gate_hosts": core_gate_hosts,
        "min_core_speedup_required": MIN_CORE_SPEEDUP,
        "core_speedup": None,
        "core_gate_armed": False,
        "core_gate": None,
    }
    for hosts, work, duration, horizon in scales:
        spec = FleetSpec.homogeneous(hosts, family="uniform", seed=SEED)
        plan = plan_fleet_schedules(spec, grid=9)
        durations = fleet_workload(hosts, work, duration)
        cell = run_policy_comparison(spec, durations, horizon, plan=plan)
        cell["work_per_host"] = work
        cell["task_duration"] = duration
        if hosts == gate_hosts:
            fleet_timing = _timed_fleet_events_per_sec(spec, durations, plan,
                                                       horizon)
            base = scalar_baseline(spec, durations, horizon, plan=plan)
            speedup = fleet_timing["events_per_sec"] / base["events_per_sec"]
            cell["fleet_timing"] = fleet_timing
            cell["scalar_baseline"] = base
            cell["speedup"] = speedup
            record["speedup"] = speedup
            record["gate_armed"] = hosts >= 1_000
        record["scales"].append(cell)
    if max_hosts >= core_gate_hosts:
        duel = core_speedup_duel(core_gate_hosts)
        record["core_gate"] = duel
        record["core_speedup"] = duel["speedup"]
        record["core_gate_armed"] = core_gate_hosts >= 10_000
    return record


def _print_summary(record: dict) -> None:
    for label, key in (("batched", "parity"), ("heap", "parity_heap")):
        gate = record[key]
        print(f"n=1 parity [{label:>7}]: {'ok' if gate['ok'] else 'FAILED'} "
              f"({gate['checks']} checks)")
        for line in gate["mismatches"]:
            print(f"  MISMATCH {line}")
    cross = record["cross_core"]
    print(f"cross-core parity  : {'ok' if cross['ok'] else 'FAILED'} "
          f"({cross['checks']} checks)")
    for line in cross["mismatches"]:
        print(f"  MISMATCH {line}")
    for cell in record["scales"]:
        print(f"\n{cell['hosts']:,} hosts ({cell['tasks']:,} tasks, "
              f"horizon {cell['horizon']:g}):")
        for name, r in cell["policies"].items():
            err = r["mean_field"]["makespan_rel_error"]
            print(f"  {name:17s} makespan {r['makespan']:8.2f}  "
                  f"goodput {r['goodput']:8.3f}  "
                  f"steal rate {r['steal_rate']:.3f}  "
                  f"{r['events_per_sec']:10,.0f} ev/s  "
                  f"mf err {'-' if err is None else f'{100 * err:.1f}%'}")
        if "speedup" in cell:
            ft, base = cell["fleet_timing"], cell["scalar_baseline"]
            print(f"  fleet {ft['events_per_sec']:,.0f} ev/s vs scalar "
                  f"baseline {base['events_per_sec']:,.0f} ev/s "
                  f"-> {cell['speedup']:.1f}x")
    duel = record["core_gate"]
    if duel is not None:
        h, b = duel["cores"]["heap"], duel["cores"]["batched"]
        print(f"\ncore duel ({duel['hosts']:,} hosts, churn stress): "
              f"batched {b['events_per_sec']:,.0f} ev/s vs heap "
              f"{h['events_per_sec']:,.0f} ev/s -> {duel['speedup']:.2f}x")


def _gate_ok(record: dict) -> bool:
    if not (record["parity"]["ok"] and record["parity_heap"]["ok"]
            and record["cross_core"]["ok"]):
        return False
    if record["gate_armed"]:
        if record["speedup"] is None or record["speedup"] < MIN_SPEEDUP:
            return False
    if record["core_gate_armed"]:
        if (record["core_speedup"] is None
                or record["core_speedup"] < MIN_CORE_SPEEDUP):
            return False
    return True


def test_fleet_bench():
    """The pytest face: a scaled-down run that still arms the 20x gate."""
    record = measure(
        scales=[(GATE_HOSTS, 128.0, 0.015625, 800.0)], gate_hosts=GATE_HOSTS
    )
    _print_summary(record)
    assert record["parity"]["ok"], record["parity"]["mismatches"]
    assert record["parity_heap"]["ok"], record["parity_heap"]["mismatches"]
    assert record["cross_core"]["ok"], record["cross_core"]["mismatches"]
    assert record["gate_armed"]
    assert not record["core_gate_armed"]
    assert record["speedup"] >= MIN_SPEEDUP, record["speedup"]


def main(argv: list[str]) -> int:
    import argparse

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "out", nargs="?", type=Path,
        default=Path(__file__).parent / "BENCH_fleet.json",
        help="JSON artifact path (default: benchmarks/BENCH_fleet.json)",
    )
    parser.add_argument("--max-hosts", type=int, default=None,
                        help="drop scale rows above this host count "
                             "(also disarms out-of-range gates)")
    args = parser.parse_args(argv)
    scales = SCALES
    if args.max_hosts is not None:
        scales = [s for s in SCALES if s[0] <= args.max_hosts]
    start = time.perf_counter()
    record = measure(scales=scales)
    record["bench_seconds"] = time.perf_counter() - start
    args.out.write_text(json.dumps(record, indent=2) + "\n")
    _print_summary(record)
    print(f"\nwrote {args.out} ({record['bench_seconds']:.0f}s)")
    if record["gate_armed"]:
        status = "PASS" if (record["speedup"] is not None
                            and record["speedup"] >= MIN_SPEEDUP) else "FAIL"
        print(f"{status}: scalar speedup {record['speedup']:.1f}x "
              f"(gate >= {MIN_SPEEDUP:g}x at {record['gate_hosts']:,} hosts)")
    else:
        print("scalar speedup gate not armed (no row at >= 1,000 hosts)")
    if record["core_gate_armed"]:
        status = ("PASS" if (record["core_speedup"] is not None
                             and record["core_speedup"] >= MIN_CORE_SPEEDUP)
                  else "FAIL")
        print(f"{status}: core speedup {record['core_speedup']:.2f}x "
              f"(gate >= {MIN_CORE_SPEEDUP:g}x at "
              f"{record['core_gate_hosts']:,} hosts)")
    else:
        print("core speedup gate not armed "
              f"(no row at >= {CORE_GATE_HOSTS:,} hosts)")
    return 0 if _gate_ok(record) else 1


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
