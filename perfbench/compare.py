"""Compare two result sets written by ``run.py --workload all``.

Usage, from the repository root::

    python3 perfbench/compare.py OLD.json NEW.json

Prints one row per workload and end-to-end metric: each side's median and
quartiles, the change, the wider of the two relative spreads (quartile
distance over median), the pairs the new side won, and a verdict:

``REGRESSION``
    The new median is worse than the old by more than the metric's bound,
    and the spread is within the bound (or every new run is worse than
    every old run).
``unresolved``
    The spread is wider than the bound, so the runs cannot tell, unless
    every new run is better than every old run.
``gain``
    The new side won at least nine tenths of the pairs (run ``i`` against
    run ``i``; ties count for neither) and the medians differ by more than
    the old side's quartile distance.
``same``
    None of the above.

A workload whose new runs fail more operations than its old runs is
flagged too.  The exit code is 1 when anything is flagged.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path
from typing import Sequence

SPEC_PATH = Path(__file__).resolve().parent.parent / "BENCHMARK.json"
WIN_SHARE = 0.9


def quartiles(values: Sequence[float]) -> tuple[float, float, float]:
    """``(q1, median, q3)`` as ``statistics.quantiles(values, n=4)`` gives them."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values: Sequence[float]) -> float:
    """Quartile distance as a share of the median."""
    q1, q2, q3 = quartiles(values)
    return (q3 - q1) / abs(q2) if q2 else float("inf")


def verdict(old: Sequence[float], new: Sequence[float], better: str,
            bound: float) -> dict:
    """Judge one metric on one workload; ``old[i]`` pairs with ``new[i]``."""
    sign = 1.0 if better == "lower" else -1.0
    o1, om, o3 = quartiles(old)
    n1, nm, n3 = quartiles(new)
    worse_by = sign * (nm - om) / abs(om)
    wider = max(spread(old), spread(new))
    # Scores: lower is better on both sides.
    s_old, s_new = [sign * x for x in old], [sign * x for x in new]
    pairs = list(zip(s_old, s_new))
    wins = sum(n < o for o, n in pairs)
    all_better = max(s_new) < min(s_old)
    all_worse = min(s_new) > max(s_old)
    if wider > bound and not (all_better or all_worse):
        label = "unresolved"
    elif worse_by > bound:
        label = "REGRESSION"
    elif worse_by < 0 and wins >= WIN_SHARE * len(pairs) and abs(nm - om) > o3 - o1:
        label = "gain"
    else:
        label = "same"
    return {"old": (o1, om, o3), "new": (n1, nm, n3), "change": -worse_by,
            "spread": wider, "wins": wins, "pairs": len(pairs), "verdict": label}


def _fmt(q: tuple[float, float, float]) -> str:
    return f"{q[1]:.4g} [{q[0]:.4g}, {q[2]:.4g}]"


def values_of(records: list, metric: str) -> list[float]:
    return [r["metrics"][metric]["value"] for r in records if metric in r["metrics"]]


def compare(old: dict, new: dict, spec: dict) -> tuple[list[str], bool]:
    """Rows to print, and whether anything is flagged."""
    rows = [f"{'workload':14s} {'metric':12s} {'unit':6s} {'old median [q1, q3]':>30s} "
            f"{'new median [q1, q3]':>30s} {'change':>8s} {'spread':>7s} "
            f"{'wins':>6s}  verdict"]
    flagged = False
    for w in spec["workloads"]:
        name = w["name"]
        a, b = old["runs"].get(name, []), new["runs"].get(name, [])
        if not a or not b:
            rows.append(f"{name:14s} missing on one side")
            flagged = True
            continue
        for m in spec["end_to_end"]:
            va, vb = values_of(a, m["name"]), values_of(b, m["name"])
            if not va or not vb:
                continue
            v = verdict(va, vb, m["better"], m["bound"])
            flagged |= v["verdict"] == "REGRESSION"
            rows.append(
                f"{name:14s} {m['name']:12s} {m['unit']:6s} {_fmt(v['old']):>30s} "
                f"{_fmt(v['new']):>30s} {v['change']:+8.1%} {v['spread']:7.1%} "
                f"{v['wins']:>2d}/{v['pairs']:<3d}  {v['verdict']} (bound {m['bound']:.0%})")
        fa, fb = sum(r["failed"] for r in a), sum(r["failed"] for r in b)
        if fb > fa:
            rows.append(f"{name:14s} failures rose from {fa} to {fb}: FLAGGED")
            flagged = True
    return rows, flagged


def summary_rows(result: dict) -> list[str]:
    """Median and quartiles per workload and metric of one result set."""
    rows = []
    for name, records in result["runs"].items():
        if not records:
            continue
        for metric, m in records[0]["metrics"].items():
            values = values_of(records, metric)
            rows.append(f"{name:14s} {metric:28s} {_fmt(quartiles(values)):>36s} "
                        f"{m['unit']:8s} n={len(values)} spread {spread(values):.1%}")
        failed = sum(r["failed"] for r in records)
        attempted = sum(r["attempted"] for r in records)
        rows.append(f"{name:14s} {'error_rate':28s} {failed / attempted:14.6g} fraction "
                    f"({failed} of {attempted})")
    return rows


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    old, new = (json.loads(Path(p).read_text()) for p in argv)
    spec = json.loads(SPEC_PATH.read_text())
    for side, data in (("old", old), ("new", new)):
        env = data.get("envelope", {})
        print(f"{side}: sha {env.get('git_sha')}  nproc {env.get('nproc')}  "
              f"python {env.get('python')}  numpy {env.get('numpy')}  "
              f"numba {env.get('numba')}  seconds {env.get('seconds')}")
    rows, flagged = compare(old, new, spec)
    print("\n".join(rows))
    return 1 if flagged else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
