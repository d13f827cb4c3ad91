"""Shared benchmark machinery: percentiles, spans, patching and the run envelope.

Nothing here imports :mod:`repro`; the workload modules do.  Spans are kept
in memory by a :class:`Tracer` and turned into per-layer numbers when the
run ends, so the program under test is never edited to be measured: the
tracer wraps the public functions a layer exports (``patched``) or the
objects handed to it (the serving proxies in :mod:`perfbench.serve`).
"""

from __future__ import annotations

import contextlib
import math
import os
import platform
import resource
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Iterator, Optional, Sequence

ROOT = Path(__file__).resolve().parent.parent

#: How many samples must lie beyond a reported percentile.
TAIL_SAMPLES = 10
#: The lowest percentile :func:`tail` accepts in place of a higher one.
TAIL_FLOOR = 90.0
#: Stretches a run is cut into.  Each workload reports its timings from
#: the stretch the machine disturbed least (see :func:`least`), and serving
#: alternates as many open-loop segments with closed-loop passes, so both
#: measurements span the run.
SEGMENTS = 5

TIMING_METHOD = (f"time.perf_counter; per run, the lowest over {SEGMENTS} stretches "
                 "of each stretch's median or tail, and the fastest set-up")


# ----------------------------------------------------------------------
# Order statistics
# ----------------------------------------------------------------------


def rank(q: float, n: int) -> int:
    """1-based nearest rank of percentile ``q`` among ``n`` sorted samples."""
    return max(1, math.ceil(q * n / 100 - 1e-9))


def supports(q: float, n: int) -> bool:
    """Whether ``n`` samples leave ``TAIL_SAMPLES`` beyond percentile ``q``."""
    if not 0 < q < 100:
        raise ValueError(f"percentile must lie in (0, 100), got {q}")
    return n >= 1 and n - rank(q, n) >= TAIL_SAMPLES


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile ``q`` of ``values`` (no interpolation)."""
    data = sorted(values)
    if not data:
        raise ValueError("percentile of an empty sample")
    return float(data[rank(q, len(data)) - 1])


def tail(values: Sequence[float], q: float) -> tuple[float, str]:
    """Percentile ``q``, or the best stand-in the sample supports.

    Returns ``(value, label)``.  When the sample is too small for ``q``,
    the stand-in is the highest percentile with ``TAIL_SAMPLES`` beyond it
    if that is still a tail percentile (``TAIL_FLOOR`` or above), and the
    maximum otherwise.
    """
    data = sorted(values)
    n = len(data)
    if supports(q, n):
        return float(data[rank(q, n) - 1]), f"p{q:g}"
    highest = 100 * (n - TAIL_SAMPLES) / n
    if highest >= TAIL_FLOOR:
        return float(data[n - TAIL_SAMPLES - 1]), f"p{highest:.3g}"
    return float(data[-1]), "max"


def least(stretches: Sequence[Sequence[float]],
          stat: Callable[[Sequence[float]], float]) -> float:
    """The lowest ``stat`` over the non-empty ``stretches`` of one run.

    On a shared host the CPU itself can switch, for seconds to a minute at
    a time, between speeds up to 1.8x apart (seen on a 2-vCPU cloud VM,
    where process CPU time tracked wall time through both).  A slowdown
    only ever adds time, so the stretch of a run the machine disturbed
    least comes closest to the program's own speed, where a median over
    the whole run moves with how much of it fell into a slow spell.  A
    spell longer than the run still moves the result.
    """
    values = [stat(s) for s in stretches if len(s)]
    if not values:
        raise ValueError("no samples in any stretch")
    return min(values)


def least_tail(stretches: Sequence[Sequence[float]], q: float) -> tuple[float, str]:
    """:func:`least` of each stretch's :func:`tail`, and what that tail is."""
    labels = [tail(s, q)[1] for s in stretches if len(s)]
    value = least(stretches, lambda s: tail(s, q)[0])
    return value, f"lowest over {len(labels)} stretches of each one's {labels[0]}"


def chunks(values: Sequence[float], n: int) -> list[Sequence[float]]:
    """``values`` cut into at most ``n`` consecutive, near-equal stretches."""
    size = -(-len(values) // n)
    return [values[i:i + size] for i in range(0, len(values), size)]


def median(values: Sequence[float]) -> float:
    data = sorted(values)
    if not data:
        raise ValueError("median of an empty sample")
    mid = len(data) // 2
    return float(data[mid]) if len(data) % 2 else (data[mid - 1] + data[mid]) / 2


# ----------------------------------------------------------------------
# Spans
# ----------------------------------------------------------------------


@dataclass
class Span:
    """One timed interval at a layer boundary."""

    sid: int
    name: str
    start: float
    end: float
    parent: Optional[int] = None
    #: The query (serving) or run the span belongs to.
    qid: Optional[int] = None
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


def covered(start: float, end: float, intervals: Sequence[tuple[float, float]]) -> float:
    """Length of ``[start, end]`` covered by the union of ``intervals``."""
    total = 0.0
    cur_lo = cur_hi = None
    for lo, hi in sorted((max(a, start), min(b, end)) for a, b in intervals):
        if hi <= lo:
            continue
        if cur_hi is None or lo > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = lo, hi
        else:
            cur_hi = max(cur_hi, hi)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans: Sequence[Span]) -> dict[int, float]:
    """Each span's duration minus the part of it that its children cover."""
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append((s.start, s.end))
    return {
        s.sid: s.duration - covered(s.start, s.end, children.get(s.sid, ()))
        for s in spans
    }


class Tracer:
    """Collects spans in memory; the parent is the innermost open span of
    the calling thread."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._lock = threading.Lock()
        self._local = threading.local()
        self._next = 0

    def _new_id(self) -> int:
        with self._lock:
            self._next += 1
            return self._next

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextlib.contextmanager
    def span(self, name: str, qid: Optional[int] = None, **attrs: Any) -> Iterator[dict]:
        """Time the body as span ``name``; yields its mutable ``attrs``."""
        stack = self._stack()
        sid = self._new_id()
        parent = stack[-1] if stack else None
        stack.append(sid)
        start = time.perf_counter()
        try:
            yield attrs
        finally:
            end = time.perf_counter()
            stack.pop()
            with self._lock:
                self.spans.append(Span(sid, name, start, end, parent, qid, attrs))

    def record(self, name: str, start: float, end: float, qid: Optional[int] = None,
               **attrs: Any) -> None:
        """Add a span measured elsewhere (no parent)."""
        span = Span(self._new_id(), name, start, end, None, qid, attrs)
        with self._lock:
            self.spans.append(span)

    def wrap(self, name: str, fn: Callable, counts: Optional[Callable] = None) -> Callable:
        """``fn`` timed as span ``name``; ``counts(args, kwargs)`` adds attrs."""

        def traced(*args: Any, **kwargs: Any) -> Any:
            attrs = counts(args, kwargs) if counts is not None else {}
            with self.span(name, **attrs):
                return fn(*args, **kwargs)

        traced.__wrapped__ = fn
        return traced

    def named(self, name: str) -> list[Span]:
        return [s for s in self.spans if s.name == name]

    def busy(self, name: str) -> float:
        """Summed duration of every span called ``name``."""
        return sum(s.duration for s in self.named(name))

    def self_total(self, name: str) -> float:
        """Summed self time of every span called ``name``."""
        own = self_times(self.spans)
        return sum(own[s.sid] for s in self.named(name))


@contextlib.contextmanager
def patched(tracer: Tracer, targets: Sequence[tuple[Any, str, str, Optional[Callable]]]):
    """Replace ``module.attr`` by a traced wrapper for the body's duration.

    Each target is ``(module, attr, span name, counts)``; originals are put
    back on exit, also when the body raises.
    """
    saved = []
    try:
        for module, attr, name, counts in targets:
            original = getattr(module, attr)
            saved.append((module, attr, original))
            setattr(module, attr, tracer.wrap(name, original, counts))
        yield
    finally:
        for module, attr, original in reversed(saved):
            setattr(module, attr, original)


def frac(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def operation_metrics(setups: Sequence[float], walls: Sequence[float],
                      work: float) -> tuple[dict, str]:
    """End-to-end metrics of a workload made of repeated whole operations.

    ``walls`` are the operations' wall times, in run order, and ``work``
    the units one operation completes.  The run is cut into ``SEGMENTS``
    stretches of consecutive operations; ``run_s`` is the lowest stretch
    median and ``p99_ms`` the lowest stretch tail (see :func:`least`).
    ``setup_s`` is the fastest set-up, the set-ups being spread over the
    run.  Returns the metrics and what ``p99_ms`` is.
    """
    stretches = chunks(walls, SEGMENTS)
    run_s = least(stretches, median)
    p99, label = least_tail(stretches, 99)
    return {
        "setup_s": min(setups),
        "run_s": run_s,
        "p50_ms": run_s * 1e3,
        "p99_ms": p99 * 1e3,
        "sat_qps": work / run_s,
    }, label


# ----------------------------------------------------------------------
# Run envelope and process facts
# ----------------------------------------------------------------------


def peak_rss_mb() -> float:
    """Peak resident set of this process so far, in MiB (Linux reports KiB)."""
    kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return kib / 1024.0


def git_sha() -> str:
    """The checkout's commit, or ``"unknown"`` outside a git work tree."""
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10, check=False,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    sha = out.stdout.strip()
    return sha if out.returncode == 0 and sha else "unknown"


def envelope(seed: int, seconds: float, trace: bool, runs: int = 1) -> dict:
    """What a result set must carry to be comparable with another."""
    import numpy

    try:
        import numba  # noqa: F401

        has_numba = True
    except ImportError:
        has_numba = False
    return {
        "git_sha": git_sha(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "numba": has_numba,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "timing": TIMING_METHOD,
        "runs": runs,
        "platform": platform.platform(),
        "argv": sys.argv[1:],
    }
