"""ENGINE-SPEEDUP — vectorized vs scalar batch engine micro-benchmark.

Times both simulation engines on the same 100k-episode workload (uniform
risk, guideline schedule), verifies they agree bit-for-bit under the shared
seed contract, and records the speedup.  Runs two ways:

* under pytest (``pytest benchmarks/bench_engine_speedup.py -s``) — asserts
  exact parity and a >= 10x vectorized speedup;
* as a script (``python benchmarks/bench_engine_speedup.py [out.json]``) —
  additionally writes a JSON artifact (default
  ``benchmarks/engine_speedup.json``) for CI trend tracking.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

import numpy as np

import repro
from repro.simulation import simulate_episodes_scalar, simulate_episodes_vectorized
from repro.simulation.testing import assert_exact_parity, differential_schedule_check

N_EPISODES = 100_000
SEED = 19980330


def _time_engine(simulate, schedule, p, c: float, n: int, repeats: int) -> float:
    """Median wall-clock seconds for one n-episode batch of ``simulate``."""
    times = []
    for rep in range(repeats):
        rng = np.random.default_rng(SEED + rep)
        start = time.perf_counter()
        simulate(schedule, p, c, n, rng)
        times.append(time.perf_counter() - start)
    return float(np.median(times))


def measure(n: int = N_EPISODES, repeats: int = 3) -> dict:
    """Benchmark both engines and return the comparison record."""
    p = repro.UniformRisk(200.0)
    c = 2.0
    schedule = repro.guideline_schedule(p, c, grid=17).schedule
    report = differential_schedule_check(
        schedule, p, c, n=min(n, 20_000), seed=SEED, label="speedup-parity"
    )
    assert_exact_parity(report)
    scalar_s = _time_engine(simulate_episodes_scalar, schedule, p, c, n, repeats)
    vector_s = _time_engine(simulate_episodes_vectorized, schedule, p, c, n, repeats)
    return {
        "n_episodes": n,
        "schedule_periods": schedule.num_periods,
        "scalar_seconds": scalar_s,
        "vectorized_seconds": vector_s,
        "speedup": scalar_s / vector_s,
        "exact_parity": report.exact,
        "episodes_per_second_vectorized": n / vector_s,
        "episodes_per_second_scalar": n / scalar_s,
    }


def test_engine_speedup(rng, benchmark):
    record = measure()
    print(
        f"\nENGINE-SPEEDUP: scalar {record['scalar_seconds'] * 1e3:.1f} ms, "
        f"vectorized {record['vectorized_seconds'] * 1e3:.3f} ms "
        f"-> {record['speedup']:.0f}x at {record['n_episodes']:,} episodes "
        f"(exact parity: {record['exact_parity']})"
    )
    assert record["exact_parity"]
    assert record["speedup"] >= 10.0, record

    p = repro.UniformRisk(200.0)
    sched = repro.guideline_schedule(p, 2.0, grid=17).schedule
    benchmark(lambda: simulate_episodes_vectorized(sched, p, 2.0, N_EPISODES, rng).mean_work)


def main(argv: list[str]) -> int:
    import argparse

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "out", nargs="?", type=Path,
        default=Path(__file__).parent / "engine_speedup.json",
        help="JSON artifact path (default: benchmarks/engine_speedup.json)",
    )
    parser.add_argument("--n", type=int, default=N_EPISODES,
                        help="episodes per batch (default: %(default)s)")
    parser.add_argument("--repeats", type=int, default=3,
                        help="timing repeats, median taken (default: %(default)s)")
    args = parser.parse_args(argv)
    record = measure(n=args.n, repeats=args.repeats)
    args.out.write_text(json.dumps(record, indent=2) + "\n")
    print(json.dumps(record, indent=2))
    print(f"\nwrote {args.out}")
    return 0 if record["speedup"] >= 10.0 and record["exact_parity"] else 1


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
