"""Run the benchmark: one workload, or all of them.

From the repository root::

    python3 perfbench/run.py --workload serve-hot --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --runs 10 --out results.json

One workload runs in this process and prints, last, one JSON line::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end metrics of
``BENCHMARK.json``; with ``--trace 1`` they are its per-layer metrics, from
a run whose layer calls are wrapped in spans (a layer that does no work in
the workload reports 0).  The lines before it give the run envelope, every
metric with its unit, and the sample counts.  The exit code is 0 only when
every output check passed.

``--workload all`` runs every workload ``--runs`` times, each run in a
fresh child process with seed ``--seed + i``, prints one row per workload
and metric, and writes the whole result set, envelope included, to
``--out``; :mod:`perfbench.compare` compares two such files.

End-to-end metrics, per workload.  Each run is cut into five stretches
(open-loop segments with their closed-loop passes; runs of consecutive
operations), and every timing comes from the stretch the machine slowed
least: a shared host's CPU can run up to 1.8x slower for seconds to a
minute at a time, and a slowdown only adds time (``perfbench.core.least``).

``setup_s``
    The fastest of the set-ups repeated across the run: table warm +
    server build (serve-*), fleet spec + task array (fleet-steal),
    guideline save schedules (ckpt-renewal).  Imports are not included.
``run_s``
    Wall time of one operation, the lowest stretch median: a closed-loop
    pass over a fixed query stream (serve-*), ``FleetSpec`` →
    ``FleetResult`` (fleet-steal), one renewal round over the four
    families (ckpt-renewal).
``p50_ms`` / ``p99_ms``
    serve-*: per-query latency in the open loop, from the query's scheduled
    send time to its future resolving, the lowest segment median and the
    lowest segment tail.  Elsewhere: ``run_s`` in ms, and the lowest
    stretch tail of the operation times.  A tail is the nearest-rank 99th
    percentile when at least ten samples lie beyond it; otherwise the
    highest percentile that has ten beyond it if that is p90 or above,
    else the maximum.  The ``notes`` line says which (``p99_ms_is``) and
    how many samples there were.
``sat_qps``
    Work of one operation over ``run_s``.  serve-*: queries per second in
    the closed loop.  fleet-steal: tasks completed per second.
    ckpt-renewal: failure epochs plus Monte-Carlo episodes simulated per
    second.
``peak_rss_mb``
    Peak resident memory of the workload's process.

The error rate, failed / attempted, is the ``failed`` and ``attempted``
fields of the last line.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SPEC_PATH = ROOT / "BENCHMARK.json"
CHILD_TIMEOUT_S = 180
#: Workload and metric names: a letter or digit, then up to 63 of these.
NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


def load_spec() -> dict:
    """``BENCHMARK.json``, with its workload and metric names checked."""
    with open(SPEC_PATH) as fh:
        spec = json.load(fh)
    names = [w["name"] for w in spec["workloads"]]
    names += [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    bad = [n for n in names if not NAME_RE.match(n)]
    if bad or len(set(names)) != len(names):
        raise SystemExit(f"error: bad or repeated names in {SPEC_PATH.name}: {bad}")
    return spec


def run_one(spec: dict, workload: str, seed: int, seconds: float, trace: bool) -> int:
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: the program is missing: no package at {ROOT / 'src' / 'repro'}",
              file=sys.stderr)
        return 2
    # The load is this process: the calling thread plus, when serving, the
    # front door's flusher.  No BLAS thread pool adds a third.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from perfbench import ckpt, core, fleet, serve

    modules = {"serve-hot": serve, "serve-miss": serve, "fleet-steal": fleet,
               "ckpt-renewal": ckpt}
    declared = spec["per_layer"] if trace else spec["end_to_end"]
    tracer = core.Tracer() if trace else None
    out = modules[workload].run(workload, seed, seconds, tracer)
    if trace:
        values = {m["name"]: 0.0 for m in declared}
        unknown = set(out["layers"]) - set(values)
        if unknown:
            raise SystemExit(f"error: undeclared per-layer metrics {sorted(unknown)}")
        values.update(out["layers"])
    else:
        values = dict(out["e2e"], peak_rss_mb=core.peak_rss_mb())
    metrics = {m["name"]: {"value": float(values[m["name"]]), "unit": m["unit"]}
               for m in declared}

    failed = int(out["failed"])
    attempted = int(out["attempted"])
    bad_values = [name for name, m in metrics.items()
                  if not math.isfinite(m["value"]) or (not trace and m["value"] <= 0)]
    correct = failed == 0 and not bad_values
    print("envelope " + json.dumps(core.envelope(seed, seconds, trace)))
    print(f"workload {workload}  seed {seed}  trace {int(trace)}")
    for name, m in metrics.items():
        print(f"  {name:28s} {m['value']:16.6g} {m['unit']}")
    print(f"  {'error_rate':28s} {failed / attempted:16.6g} fraction "
          f"({failed} of {attempted})")
    print("notes " + json.dumps(out["notes"], default=str))
    if bad_values:
        print(f"error: metrics not finite and positive: {bad_values}", file=sys.stderr)
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


def run_all(spec: dict, seed: int, seconds: float, trace: bool, runs: int,
            out_path: str) -> int:
    sys.path[:0] = [str(ROOT)]
    from perfbench import core

    result = {"envelope": core.envelope(seed, seconds, trace, runs), "runs": {}}
    status = 0
    for w in spec["workloads"]:
        name = w["name"]
        result["runs"][name] = []
        for i in range(runs):
            cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                   "--seed", str(seed + i), "--seconds", str(seconds),
                   "--trace", str(int(trace))]
            try:
                proc = subprocess.run(cmd, capture_output=True, text=True,
                                      timeout=CHILD_TIMEOUT_S, check=False)
                record = json.loads(proc.stdout.strip().splitlines()[-1])
            except (subprocess.TimeoutExpired, IndexError, json.JSONDecodeError) as exc:
                status = 1
                print(f"{name} seed {seed + i}: no result ({exc!r})", file=sys.stderr)
                continue
            if proc.returncode != 0:
                status = 1
                print(f"{name} seed {seed + i}: exit {proc.returncode}\n{proc.stderr}",
                      file=sys.stderr)
            record["seed"] = seed + i
            result["runs"][name].append(record)
            print(f"{name} seed {seed + i}: correct={record['correct']} "
                  f"failed={record['failed']}/{record['attempted']}", flush=True)
    from perfbench.compare import summary_rows

    for row in summary_rows(result):
        print(row)
    Path(out_path).parent.mkdir(parents=True, exist_ok=True)
    with open(out_path, "w") as fh:
        json.dump(result, fh, indent=1)
    print(f"wrote {out_path}")
    return status


def main(argv: list[str] | None = None) -> int:
    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=names + ["all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--runs", type=int, default=1,
                        help="runs per workload with --workload all")
    parser.add_argument("--out", default=str(ROOT / "perfbench" / "results" / "latest.json"),
                        help="result-set file written by --workload all")
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if args.workload == "all":
        return run_all(spec, args.seed, args.seconds, bool(args.trace), args.runs,
                       args.out)
    return run_one(spec, args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
