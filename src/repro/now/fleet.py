"""Fleet-scale farm engine: one shared event core for 100–100k hosts.

:func:`repro.now.farm.run_farm` simulates borrowed workstations faithfully
but pays O(tasks) of Python per period event — `Task` objects are popped,
re-summed, and re-appended one at a time, and every workstation carries its
own policy object.  That is fine for one host and hopeless for a fleet.
This module rebuilds the same simulation for *N* hosts around three ideas:

1. **Struct-of-arrays planning and accounting.**  A :class:`FleetSpec` holds
   the per-host life-function family parameters, overheads ``c``, relative
   speeds, and owner presence means as NumPy vectors.  Schedules for all
   hosts come from *one* lane-batched call into the heterogeneous recurrence
   engine (:func:`repro.core.hetero_recurrence.generate_schedules_hetero`):
   a ``grid``-point ``t_0`` search window per host (closed-form Section 4
   brackets, vectorized in
   :func:`repro.core.t0_bounds.family_bracket_batch`) is evaluated as
   ``N × grid`` lanes and argmax-reduced per host — not 10k optimizer
   invocations.  Results come back as SoA arrays (:class:`FleetResult`).

2. **Range-based task pools.**  The workload is one global durations array
   with a prefix-sum; a pool is a deque of ``(lo, hi)`` index ranges.
   Packing a period is a binary search into the prefix sum plus an exact
   fix-up loop that applies the scalar :meth:`TaskPool.checkout` admission
   test literally — O(log n) instead of O(bundle).  Kills restore ranges to
   the front, steals split ranges off the tail.

3. **Batched owner draws on per-host substreams.**  Each host draws its
   presence/absence durations from ``default_rng([seed, 0, host_key])`` in
   256-wide blocks consumed from the end — the exact
   :class:`~repro.now.owner.OwnerProcess` buffering discipline, so a run is
   bit-reproducible from ``(seed, n_hosts, policy)`` and an ``n = 1`` fleet
   is **bit-identical** to ``run_farm`` fed the same substream (dispatch
   log, stats, goodput, and fault digest — differentially tested).  The
   owner and steal streams are still ``default_rng([seed, s, host_key])``,
   seeded for all hosts in one vectorized pass (:func:`host_generators`:
   NumPy's SeedSequence mixing as uint32 array operations) whose generator
   states are bit-identical to ``default_rng``'s.

4. **One set of event handlers, two queues.**  The draconian rules —
   owner leave, owner return (kills the period in flight), crash, restart,
   period end (commit or corrupt), and dispatch — are written once, in
   ``_Rules``; a handler that starts a period returns its end time and
   leaves queueing it to the event core, so the two cores differ only in
   their queue.  ``core="batched"`` (the default) precomputes every owner
   leave/return in bulk (:func:`_plan_owner_timelines` extends the
   ``FaultRuntime.crash_arrays`` planning idea to owner draws: whole
   256-wide blocks per host, the family inverse transform vectorized
   across hosts, one ``np.cumsum`` per chunk — the same left-to-right float
   additions the lazy path performs), sorts them with the crash/restart
   arrays once (``np.lexsort``) into fixed-width time buckets, and drains
   one bucket's cohort at a time; only period ends born inside the current
   bucket pay a ``bisect.insort``.
   :func:`run_fleet` switches the cyclic garbage collector off for the
   whole run: the core makes no reference cycles (the ``cycle_check`` gate
   in ``repro fleet --quick`` holds it to that), so refcounting frees all
   it drops, and the collector's passes over the run's long-lived hosts,
   pools and generators (~2·10^5 objects at 10k hosts) would only cost
   time.
   ``core="heap"`` is a ``heapq`` loop over lazy per-host
   :class:`~repro.now.owner.OwnerProcess` draws, retained as the
   differential oracle for the precompute and the bucket drain.  Both
   process events in exact ``(time, prio, seq)`` order on one int64
   sequence ``(idx << 32) | epoch`` (dispatch checks the epoch against
   overflow), so they are bit-identical: stats, events processed,
   completion time, policy trace, committed task order, and fault digest
   match across all three policies and every fault class — the cross-core
   gate in ``repro fleet --quick`` and the hypothesis suites enforce it.

Dispatch policies
-----------------
* ``"sharing"`` — centralized: every host packs from one master-held pool.
* ``"stealing"`` — randomized work stealing: the workload is split evenly
  into per-host pools; a host whose pool drains picks one uniformly random
  victim (stream ``default_rng([seed, 1, host_key])``) and steals the back
  half of its pending ranges.  A failed attempt idles until the next owner
  event.
* ``"stealing-latency"`` — identical, but a successful steal charges a
  round-trip of the thief's own overhead ``c`` as extra wall-clock on the
  period that ships the stolen work (the steal-latency regime of
  Gast/Khatiri/Trystram, arXiv:1805.00857, mapped onto the paper's single
  overhead parameter).

Host churn reuses the PR 4 fault runtime unchanged (crash/restart kills
in-flight work exactly like an owner reclaim; loss, delay, jitter,
corruption, and drift hook in at the same event-loop points as
``run_farm``).  The resilient retry path is deliberately not supported here
— a lost dispatch idles until the next owner event, matching
``run_farm(retry=None)``.

:func:`mean_field_fleet` computes a fixed-point approximation of fleet
makespan/goodput (availability × per-episode expected work over the owner
renewal cycle, with an iterated steal-RTT correction for the latency
policy) in the spirit of Van Houdt's mean-field analyses of stealing
(arXiv:1810.13186); ``bench_fleet.py`` records its error against
simulation.

Exact-parity caveat: the per-range admission test reproduces the scalar
per-task loop bit-for-bit when partial prefix sums are exact in binary
floating point (e.g. the dyadic task durations the benchmarks use); for
general durations the packing may differ from the scalar loop only at the
``1e-12`` admission tolerance boundary.
"""

from __future__ import annotations

import functools
import gc
import heapq
import math
from bisect import insort
from collections import defaultdict, deque
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from ..core.hetero_recurrence import HETERO_FAMILIES, generate_schedules_hetero
from ..core.life_functions import LifeFunction
from ..core.life_functions.families import FAMILY_TABLE, make
from ..core.schedule import Schedule
from ..core.t0_bounds import family_bracket_batch
from ..exceptions import SimulationError
from ..faults import CrashFault, FaultLog, FaultPlan, FaultRuntime
from .farm import (
    _OWNER_LEAVES,
    _OWNER_RETURNS,
    _PERIOD_ENDS,
    _WS_CRASH,
    _WS_RESTART,
    WorkstationStats,
)
from .network import Network, Workstation
from .owner import OwnerProcess

__all__ = [
    "FLEET_POLICIES",
    "FLEET_CORES",
    "FleetSpec",
    "FleetPlan",
    "FleetResult",
    "plan_fleet_schedules",
    "run_fleet",
    "host_network",
    "host_rng",
    "host_generators",
    "mean_field_fleet",
]

FLEET_POLICIES = ("sharing", "stealing", "stealing-latency")
FLEET_CORES = ("batched", "heap")

_BLOCK = 256  # OwnerProcess's draw-buffer width; must match for bit parity.

# One int64 orders every event: seq = (host idx << 32) | dispatch epoch.
# Both cores break exact (time, prio) ties with this same key, so their
# event orders are identical by construction; dispatch checks the epoch
# field against overflow instead of trusting an unbounded counter.
_SEQ_EPOCH_BITS = 32
_SEQ_EPOCH_MASK = (1 << _SEQ_EPOCH_BITS) - 1
_MAX_HOSTS = 1 << 30  # keeps seq inside a signed int64
_TIMELINE_CHUNK = 4096  # hosts per vectorized owner-timeline batch

#: Default heterogeneity ranges per family: (param range, c range).
_HETERO_RANGES = {
    "uniform": ((50.0, 400.0), (0.5, 3.0)),
    "poly": ((50.0, 400.0), (0.5, 3.0)),
    "geomdec": ((1.02, 1.5), (0.1, 1.0)),
    "geominc": ((10.0, 120.0), (0.25, 2.0)),
}


# ----------------------------------------------------------------------
# The fleet specification (SoA per-host parameters)
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class FleetSpec:
    """Per-host parameters for one fleet, as struct-of-arrays vectors.

    ``host_keys`` are the stable identities used for RNG substreams, fault
    streams, and log records; permuting hosts *with* their keys leaves every
    host's owner timeline unchanged (tested).  Defaults to ``0..n-1``.
    """

    family: str
    cs: np.ndarray
    params: np.ndarray
    speeds: np.ndarray
    present_means: np.ndarray
    d: int = 1
    seed: int = 0
    host_keys: Optional[np.ndarray] = None

    def __post_init__(self) -> None:
        if self.family not in HETERO_FAMILIES:
            raise SimulationError(
                f"fleet family {self.family!r} must be one of {HETERO_FAMILIES}"
            )
        for name in ("cs", "params", "speeds", "present_means"):
            arr = np.asarray(getattr(self, name), dtype=float)
            object.__setattr__(self, name, arr)
            if arr.ndim != 1 or arr.shape != self.cs.shape:
                raise SimulationError(
                    f"{name} must be a vector matching cs, got shape {arr.shape}"
                )
        if self.cs.size == 0:
            raise SimulationError("a fleet needs at least one host")
        if np.any(self.cs < 0) or not np.all(np.isfinite(self.cs)):
            raise SimulationError("cs: overheads c must be nonnegative and finite")
        if np.any(self.params <= 0) or not np.all(np.isfinite(self.params)):
            raise SimulationError(
                "life-function params must be positive and finite"
            )
        if np.any(self.speeds <= 0) or not np.all(np.isfinite(self.speeds)):
            raise SimulationError("host speeds must be positive and finite")
        if np.any(self.present_means <= 0) \
                or not np.all(np.isfinite(self.present_means)):
            raise SimulationError("present_means must be positive and finite")
        keys = self.host_keys
        if keys is None:
            keys = np.arange(self.n_hosts)
        keys = np.asarray(keys, dtype=np.int64)
        if keys.shape != self.cs.shape or len(set(keys.tolist())) != keys.size:
            raise SimulationError("host_keys must be unique, one per host")
        # Both seed the hosts' default_rng([seed, s, key]) streams, which
        # take only non-negative integers.
        if np.any(keys < 0):
            raise SimulationError(
                f"host_keys must be non-negative, got {int(keys.min())}"
            )
        if int(self.seed) < 0:
            raise SimulationError(f"seed must be non-negative, got {self.seed}")
        object.__setattr__(self, "host_keys", keys)
        object.__setattr__(self, "d", int(self.d) if self.family == "poly" else 1)

    @property
    def n_hosts(self) -> int:
        return int(self.cs.size)

    @classmethod
    def homogeneous(
        cls,
        n_hosts: int,
        family: str = "uniform",
        param: float = 64.0,
        c: float = 1.0,
        present_mean: float = 8.0,
        speed: float = 1.0,
        d: int = 1,
        seed: int = 0,
    ) -> "FleetSpec":
        """``n_hosts`` identical hosts (each still on its own RNG substream)."""
        full = lambda v: np.full(int(n_hosts), float(v))
        return cls(family, full(c), full(param), full(speed),
                   full(present_mean), d=d, seed=seed)

    @classmethod
    def heterogeneous(
        cls,
        n_hosts: int,
        family: str = "uniform",
        param_range: Optional[tuple[float, float]] = None,
        c_range: Optional[tuple[float, float]] = None,
        speed_range: tuple[float, float] = (0.5, 2.0),
        present_mean_range: tuple[float, float] = (4.0, 16.0),
        d: int = 1,
        seed: int = 0,
    ) -> "FleetSpec":
        """Draw per-host parameters from seeded log-uniform ranges.

        The draws come from the dedicated spec substream
        ``default_rng([seed, 2])`` so they never interact with the owner
        (``[seed, 0, key]``) or steal (``[seed, 1, key]``) streams.
        """
        if int(n_hosts) < 1:
            raise SimulationError(
                f"a heterogeneous fleet needs at least one host, got {n_hosts}"
            )
        default_p, default_c = _HETERO_RANGES[family] if family in _HETERO_RANGES \
            else _HETERO_RANGES["uniform"]
        p_lo, p_hi = param_range or default_p
        c_lo, c_hi = c_range or default_c
        for name, (lo, hi) in (
            ("param_range", (p_lo, p_hi)),
            ("c_range", (c_lo, c_hi)),
            ("speed_range", tuple(speed_range)),
            ("present_mean_range", tuple(present_mean_range)),
        ):
            if not (math.isfinite(lo) and math.isfinite(hi)) \
                    or lo <= 0 or hi < lo:
                raise SimulationError(
                    f"heterogeneous {name} must satisfy 0 < lo <= hi with "
                    f"finite bounds (log-uniform draws), got ({lo}, {hi})"
                )
        rng = np.random.default_rng([int(seed), 2])
        logu = lambda lo, hi: np.exp(rng.uniform(math.log(lo), math.log(hi),
                                                 int(n_hosts)))
        return cls(family, logu(c_lo, c_hi), logu(p_lo, p_hi),
                   logu(*speed_range), logu(*present_mean_range), d=d, seed=seed)


def host_rng(spec: FleetSpec, i: int) -> np.random.Generator:
    """Host ``i``'s owner-draw substream: ``default_rng([seed, 0, key_i])``."""
    return np.random.default_rng([int(spec.seed), 0, int(spec.host_keys[i])])


# NumPy's SeedSequence hash constants.  NumPy keeps SeedSequence and PCG64
# stream-compatible across releases (NEP 19), so ``default_rng`` maps a
# seed to the same state in every release — which is what lets
# host_generators replay it in bulk.  The seeding tests and the
# ``repro fleet --quick`` seeding gate compare it against default_rng.
_U32 = 0xFFFFFFFF
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715


class _PCG64Words(np.random.bit_generator.ISeedSequence):
    """A precomputed ``generate_state(4, uint64)`` row, fed to ``PCG64``."""

    __slots__ = ("_words",)

    def __init__(self, words: np.ndarray) -> None:
        self._words = words

    def generate_state(self, n_words, dtype=np.uint32):
        # PCG64 asks for exactly its four uint64 seed words.
        return self._words


def _pcg64_words(seed: int, stream: int, keys: np.ndarray) -> np.ndarray:
    """``SeedSequence([seed, stream, k]).generate_state(4, uint64)`` for
    every ``k`` in ``keys`` (uint32), as one ``(n, 4)`` array.

    The entropy is three 32-bit words, so the pool's fourth word is the
    hash of zero and the extra-entropy loop never runs.  The hash
    constants advance the same way for every row, so each step is one
    uint32 array operation (products wrap mod 2^32, as in C).
    """
    u32 = np.uint32
    hash_const = _INIT_A

    def hashmix(value):
        nonlocal hash_const
        value = value ^ u32(hash_const)
        hash_const = (hash_const * _MULT_A) & _U32
        value = value * u32(hash_const)
        return value ^ (value >> u32(16))

    def mix(x, y):
        result = u32(_MIX_MULT_L) * x - u32(_MIX_MULT_R) * y
        return result ^ (result >> u32(16))

    # One-element arrays, not NumPy scalars: scalar products warn on wrap.
    word = lambda v: np.array([v], dtype=u32)
    pool = [hashmix(word(seed)), hashmix(word(stream)), hashmix(keys),
            hashmix(word(0))]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    words = np.empty((keys.size, 8), dtype=u32)
    hash_const = _INIT_B
    for i in range(8):
        value = pool[i % 4] ^ u32(hash_const)
        hash_const = (hash_const * _MULT_B) & _U32
        value = value * u32(hash_const)
        words[:, i] = value ^ (value >> u32(16))
    return words.astype("<u4").view("<u8").astype(np.uint64)


def host_generators(seed: int, stream: int,
                    keys: Sequence[int]) -> list[np.random.Generator]:
    """``[default_rng([seed, stream, k]) for k in keys]``, seeded in bulk.

    Each generator's ``bit_generator.state`` equals ``default_rng``'s: the
    SeedSequence mixing runs once over all keys as array operations, then
    each ``PCG64`` is built from its precomputed row.  A row whose entropy
    is not three 32-bit words (``seed`` or a key at or above 2^32) is
    seeded by ``default_rng`` itself.  ``seed``, ``stream`` and ``keys``
    must be non-negative, as :class:`FleetSpec` enforces.
    """
    keys = [int(k) for k in keys]
    if seed > _U32:
        return [np.random.default_rng([seed, stream, k]) for k in keys]
    bulk = [k <= _U32 for k in keys]
    rows = iter(_pcg64_words(
        seed, stream, np.array([k for k, b in zip(keys, bulk) if b], np.uint32)
    ))
    return [
        np.random.Generator(np.random.PCG64(_PCG64Words(next(rows))))
        if b else np.random.default_rng([seed, stream, k])
        for k, b in zip(keys, bulk)
    ]


def host_life(spec: FleetSpec, i: int) -> LifeFunction:
    """Host ``i``'s life function, materialized from the SoA parameters."""
    return make(spec.family, float(spec.params[i]), spec.d)


def host_network(spec: FleetSpec, i: int) -> Network:
    """A single-host :class:`Network` equivalent to fleet host ``i``.

    Feeding this (plus :func:`host_rng` and the host's planned schedule) to
    ``run_farm`` reproduces the fleet host bit-for-bit — the differential
    contract the parity tests enforce.
    """
    owner = OwnerProcess.from_life_function(
        host_life(spec, i), float(spec.present_means[i])
    )
    ws = Workstation(int(spec.host_keys[i]), owner, speed=float(spec.speeds[i]))
    return Network([ws], c=float(spec.cs[i]))


# ----------------------------------------------------------------------
# Batched schedule planning
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class FleetPlan:
    """Per-host schedules chosen by one lane-batched ``t_0`` grid search."""

    family: str
    d: int
    t0s: np.ndarray
    #: Period lengths, shape ``(n_hosts, max_m)``, NaN-padded per host.
    periods: np.ndarray
    num_periods: np.ndarray
    #: Engine ``E(S; p)`` per host (unit speed; multiply by speed for rate).
    expected_work: np.ndarray
    grid: int

    @property
    def n_hosts(self) -> int:
        return int(self.t0s.size)

    def schedule(self, i: int) -> Schedule:
        m = int(self.num_periods[i])
        return Schedule(self.periods[i, :m])


def plan_fleet_schedules(spec: FleetSpec, grid: int = 9) -> FleetPlan:
    """Plan every host's schedule in one heterogeneous-engine call.

    Builds a ``grid``-point ``t_0`` window per host from the vectorized
    Section 4 closed-form brackets, evaluates all ``n_hosts × grid`` lanes
    through :func:`generate_schedules_hetero`, and keeps each host's
    argmax-``E`` lane.
    """
    if grid < 1:
        raise SimulationError(f"t0 grid must have at least 1 point, got {grid}")
    n = spec.n_hosts
    lo, hi = family_bracket_batch(spec.family, spec.cs, spec.params, spec.d)
    # Clamp into the engine's validity window: c < t0 (< L for finite life).
    lo = np.maximum(lo, spec.cs * (1.0 + 1e-9) + 1e-12)
    hi = np.minimum(hi, FAMILY_TABLE[spec.family].lifespan(spec.params) * (1.0 - 1e-12))
    hi = np.maximum(hi, lo)
    fracs = np.linspace(0.0, 1.0, grid)
    t0_grid = lo[:, None] + fracs[None, :] * (hi - lo)[:, None]
    result = generate_schedules_hetero(
        spec.family,
        np.repeat(spec.cs, grid),
        np.repeat(spec.params, grid),
        t0_grid.ravel(),
        d=spec.d,
    )
    ew = result.expected_work.reshape(n, grid)
    best = np.argmax(ew, axis=1)
    rows = np.arange(n) * grid + best
    return FleetPlan(
        family=spec.family,
        d=spec.d,
        t0s=t0_grid[np.arange(n), best],
        periods=result.periods[rows],
        num_periods=result.num_periods[rows].astype(np.int64),
        expected_work=ew[np.arange(n), best],
        grid=grid,
    )


# ----------------------------------------------------------------------
# Range pools: the O(log) replacement for per-Task checkout
# ----------------------------------------------------------------------


class _RangePool:
    """A FIFO pool of ``(lo, hi)`` index ranges over the global durations.

    ``cum`` is the shared prefix sum (``cum[k]`` = total duration of tasks
    ``0..k-1``), so any range's work is one subtraction.  ``checkout``
    reproduces :meth:`TaskPool.checkout`'s sequential admission test
    (``used + d <= budget + 1e-12``) range-by-range: a binary search (or a
    mean-duration hint) lands near the cut, then an exact fix-up loop
    applies the literal scalar condition, so dyadic-duration workloads pack
    bit-identically.
    """

    __slots__ = ("ranges", "cum", "count")

    def __init__(
        self, ranges: Sequence[tuple[int, int]], cum: np.ndarray
    ) -> None:
        self.ranges: deque[tuple[int, int]] = deque(ranges)
        self.cum = cum
        self.count = sum(hi - lo for lo, hi in self.ranges)

    def checkout(
        self, budget: float, inv_mean: float = 0.0
    ) -> tuple[list[tuple[int, int]], float, int]:
        """Take a FIFO prefix fitting ``budget``: (ranges, work, n_tasks).

        ``inv_mean > 0`` (tasks per unit duration, usually the workload's
        global mean) seeds the cut with ``remaining budget × inv_mean``
        instead of a binary search.  The fix-up loops converge to the same
        unique cut from *any* starting index, so the result is identical —
        both event cores pass the hint to drop ``searchsorted`` from the
        dispatch path (worst case for wildly mixed durations is a longer
        linear fix-up walk, never a different answer).
        """
        limit = budget + 1e-12
        cum = self.cum
        item = cum.item
        queue = self.ranges
        used = 0.0
        n_taken = 0
        taken: list[tuple[int, int]] = []
        while queue:
            lo, hi = queue[0]
            base = item(lo)
            whole = item(hi) - base
            if used + whole <= limit:
                # The whole front range fits.  IEEE addition is monotone, so
                # every per-task prefix also passes the scalar admission test.
                used += whole
                taken.append((lo, hi))
                n_taken += hi - lo
                queue.popleft()
                continue
            if inv_mean > 0.0:
                j = lo + int((limit - used) * inv_mean)
            else:
                j = int(cum.searchsorted(limit - used + base, side="right")) - 1
            if j < lo:
                j = lo
            elif j > hi:
                j = hi
            # Exact fix-up: the scalar pool admits task k iff
            # used + (cum[k+1] - base) <= budget + 1e-12.
            while j < hi and used + (item(j + 1) - base) <= limit:
                j += 1
            while j > lo and used + (item(j) - base) > limit:
                j -= 1
            if j > lo:
                used += item(j) - base
                taken.append((lo, j))
                n_taken += j - lo
                queue.popleft()
                queue.appendleft((j, hi))
            break  # partial range: the next task does not fit
        self.count -= n_taken
        return taken, float(used), n_taken

    def restore_front(self, ranges: Sequence[tuple[int, int]]) -> None:
        """Return checked-out ranges to the front, preserving FIFO order."""
        self.ranges.extendleft(reversed(ranges))
        self.count += sum(hi - lo for lo, hi in ranges)

    def extend_back(self, ranges: Sequence[tuple[int, int]]) -> None:
        self.ranges.extend(ranges)
        self.count += sum(hi - lo for lo, hi in ranges)

    def steal_tail(self, target: int) -> tuple[list[tuple[int, int]], int]:
        """Remove ~``target`` tasks from the back (the victim's coldest work)."""
        queue = self.ranges
        stolen: list[tuple[int, int]] = []
        got = 0
        while queue and got < target:
            lo, hi = queue.pop()
            need = target - got
            if hi - lo > need:
                queue.append((lo, hi - need))
                stolen.append((hi - need, hi))
                got = target
            else:
                stolen.append((lo, hi))
                got += hi - lo
        stolen.reverse()
        self.count -= got
        return stolen, got


# ----------------------------------------------------------------------
# Per-host event-loop state
# ----------------------------------------------------------------------


class _Host:
    """Hot per-host cursor state for the shared event loop."""

    __slots__ = (
        "idx", "key", "c", "speed", "present_mean", "life", "rng", "steal_rng",
        "periods", "n_periods", "sched_idx", "pool",
        "returns", "ep_cursor",
        "absent", "crashed", "reclaim_at", "episode_started", "epoch",
        "inflight", "pending_rtt",
        "episodes", "committed", "killed", "tasks_done",
        "work_done", "work_lost", "overhead_paid", "idle_absent",
        "crashes", "lost", "delayed", "delay_time", "corrupted",
        "steals_attempted", "steals_succeeded", "steal_wait",
    )

    def __init__(self, idx: int, key: int, c: float, speed: float,
                 present_mean: float, life: LifeFunction,
                 rng: np.random.Generator,
                 steal_rng: Optional[np.random.Generator],
                 periods: list, pool: _RangePool) -> None:
        self.idx = idx
        self.key = key
        self.c = c
        self.speed = speed
        self.present_mean = present_mean
        self.life = life
        self.rng = rng
        self.steal_rng = steal_rng
        self.periods = periods
        self.n_periods = len(periods)
        self.sched_idx = 0
        self.pool = pool
        # Batched core: precomputed per-leave reclaim times + cursor.
        self.returns = None
        self.ep_cursor = 0
        self.absent = False
        self.crashed = False
        self.reclaim_at = math.inf
        self.episode_started = 0.0
        self.epoch = 0
        self.inflight = None  # (ranges, work, overhead, n_tasks)
        self.pending_rtt = 0.0
        self.episodes = 0
        self.committed = 0
        self.killed = 0
        self.tasks_done = 0
        self.work_done = 0.0
        self.work_lost = 0.0
        self.overhead_paid = 0.0
        self.idle_absent = 0.0
        self.crashes = 0
        self.lost = 0
        self.delayed = 0
        self.delay_time = 0.0
        self.corrupted = 0
        self.steals_attempted = 0
        self.steals_succeeded = 0
        self.steal_wait = 0.0


class _Rules:
    """The draconian contract, once for both event cores: the owner's
    return kills the period in flight (Section 1) and only periods ending
    before reclaim are credited (eq. (2.1)).  Handlers that may start a
    period return its end time, or ``None``; the calling core queues it.
    """

    __slots__ = (
        "hosts", "n_hosts", "horizon", "runtime", "log", "steal_fraction",
        "latency", "inv_mean", "min_gap", "pending", "in_flight", "done",
        "completion_time",
    )

    def __init__(self, hosts: list, horizon: float,
                 runtime: Optional[FaultRuntime], log: Optional[list],
                 steal_fraction: float, latency: bool,
                 cum: np.ndarray) -> None:
        self.hosts = hosts
        self.n_hosts = len(hosts)
        self.horizon = horizon
        self.runtime = runtime
        self.log = log
        self.steal_fraction = steal_fraction
        self.latency = latency
        n_tasks = int(cum.size) - 1
        # Checkout hint: the workload's mean tasks per unit duration.
        self.inv_mean = n_tasks / float(cum[-1])
        # Exact empty-checkout guard: checkout admits its first task iff some
        # adjacent prefix-sum gap fits the limit, so a budget below the
        # smallest gap can never take work — skip the call, same result.
        self.min_gap = float(np.min(np.diff(cum)))
        self.pending = n_tasks
        self.in_flight = 0
        self.done = False
        self.completion_time = math.nan

    def leave(self, h: _Host, now: float, reclaim_at: float):
        """The owner leaves: a new episode starts and its first period."""
        h.absent = True
        h.reclaim_at = reclaim_at
        h.episode_started = now
        h.sched_idx = 0
        h.pending_rtt = 0.0
        h.episodes += 1
        return self.dispatch(h, now)

    def owner_return(self, h: _Host) -> None:
        if h.inflight is not None:
            self._kill(h)
        h.absent = False
        h.reclaim_at = math.inf

    def crash(self, h: _Host, now: float) -> None:
        if h.inflight is not None:
            self._kill(h)
        h.crashed = True
        h.crashes += 1
        self.runtime.log.record(now, "crash", h.key)

    def restart(self, h: _Host, now: float):
        h.crashed = False
        self.runtime.log.record(now, "restart", h.key)
        if h.absent and now < h.reclaim_at and h.inflight is None:
            return self.dispatch(h, now)
        return None

    def period_end(self, h: _Host, now: float, epoch: int):
        """Commit (or void, if corrupted) the period in flight, then start
        the next one.  Sets ``done`` when the last task commits."""
        bundle = h.inflight
        if epoch != h.epoch or bundle is None:
            return None  # stale epoch: superseded by a kill
        ranges, work, overhead, n_taken = bundle
        h.inflight = None
        self.in_flight -= 1
        h.overhead_paid += overhead
        runtime = self.runtime
        if runtime is not None and runtime.commit_corrupted(h.key, now):
            h.pool.restore_front(ranges)
            self.pending += n_taken
            h.corrupted += 1
            h.work_lost += work
        else:
            h.committed += 1
            h.tasks_done += n_taken
            h.work_done += work
            if self.log is not None:
                self.log.append(("commit", now, h.key, ranges))
            if self.pending == 0 and self.in_flight == 0:
                self.done = True
                self.completion_time = now
                return None
        return self.dispatch(h, now)

    def _kill(self, h: _Host) -> None:
        """Kill the period in flight: its work is lost, its tasks return."""
        ranges, work, overhead, n_taken = h.inflight
        h.pool.restore_front(ranges)
        self.pending += n_taken
        h.killed += 1
        h.work_lost += work
        h.overhead_paid += overhead
        h.inflight = None
        h.epoch += 1
        self.in_flight -= 1
        if self.log is not None:
            self.log.append(("kill", h.key, ranges))

    def _idle(self, h: _Host, now: float) -> None:
        """Idle out the episode: until reclaim, or the horizon."""
        until = h.reclaim_at
        if until > self.horizon:
            until = self.horizon
        if until > now:
            h.idle_absent += until - now

    def dispatch(self, h: _Host, now: float):
        """Start ``h``'s next period: steal → schedule cursor → checkout →
        fault fate → in-flight bundle.  Returns the period-end time, or
        ``None`` when the host idles out the episode instead."""
        if h.crashed:
            return None
        pool = h.pool
        log = self.log
        if pool.count == 0:
            # Steal before consulting the schedule: the schedule cursor must
            # not advance on an episode the empty pool would have idled, so
            # an n = 1 fleet consumes exactly run_farm's policy calls.
            steal_rng = h.steal_rng
            if steal_rng is None:
                return self._idle(h, now)
            h.steals_attempted += 1
            victim_pos = int(steal_rng.integers(self.n_hosts - 1))
            if victim_pos >= h.idx:
                victim_pos += 1
            victim = self.hosts[victim_pos]
            victim_pool = victim.pool
            if victim_pool.count == 0:
                return self._idle(h, now)
            stolen, got = victim_pool.steal_tail(
                math.ceil(victim_pool.count * self.steal_fraction)
            )
            pool.extend_back(stolen)
            h.steals_succeeded += 1
            if self.latency:
                h.pending_rtt = h.c
                h.steal_wait += h.c
            if log is not None:
                log.append(("steal", now, h.key, victim.key, got))
        sched_idx = h.sched_idx
        planned = h.periods[sched_idx] if sched_idx < h.n_periods else None
        if log is not None:
            log.append(("plan", h.key, now - h.episode_started, planned))
        if planned is None:
            return self._idle(h, now)
        h.sched_idx = sched_idx + 1
        c = h.c
        if planned <= c:
            return self._idle(h, now)
        speed = h.speed
        # run_farm routes the budget through pack_period's planned-length
        # arithmetic; replay it literally so the floats agree to the bit.
        budget = (c + (planned - c) * speed) - c
        if budget + 1e-12 < self.min_gap:
            return self._idle(h, now)
        taken, work, n_taken = pool.checkout(budget, self.inv_mean)
        if not taken:
            return self._idle(h, now)
        c_eff = c
        extra_delay = 0.0
        runtime = self.runtime
        if runtime is not None:
            fate = runtime.dispatch_fate(h.key, now, c)
            if fate.lost:
                pool.restore_front(taken)
                h.lost += 1
                return self._idle(h, now)
            c_eff = fate.c_effective
            extra_delay = fate.delay
            if extra_delay > 0.0:
                h.delayed += 1
                h.delay_time += extra_delay
        epoch = h.epoch + 1
        if epoch > _SEQ_EPOCH_MASK:
            raise SimulationError(
                "host dispatch epoch exceeded the 32-bit event-seq field"
            )
        self.pending -= n_taken
        rtt = h.pending_rtt
        h.pending_rtt = 0.0
        h.inflight = (taken, work, c_eff, n_taken)
        h.epoch = epoch
        self.in_flight += 1
        if log is not None:
            log.append(("dispatch", now, h.key, work, c_eff, n_taken))
        return now + (c_eff + extra_delay + rtt + work / speed)


# ----------------------------------------------------------------------
# Results (struct-of-arrays)
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class FleetResult:
    """Outcome of one fleet run, with per-host accounting as SoA arrays."""

    policy: str
    host_keys: np.ndarray
    episodes: np.ndarray
    periods_committed: np.ndarray
    periods_killed: np.ndarray
    tasks_completed_per_host: np.ndarray
    work_done: np.ndarray
    work_lost: np.ndarray
    overhead_paid: np.ndarray
    idle_absent_time: np.ndarray
    crashes: np.ndarray
    dispatches_lost: np.ndarray
    dispatches_delayed: np.ndarray
    delay_time: np.ndarray
    periods_corrupted: np.ndarray
    steals_attempted: np.ndarray
    steals_succeeded: np.ndarray
    steal_wait: np.ndarray
    tasks_total: int
    tasks_completed: int
    completion_time: float
    horizon: float
    events_processed: int
    #: Which event core produced this result ("batched" or "heap"); the two
    #: are bit-identical on every other field — the cross-core gate.
    core: str = "batched"
    fault_log: Optional[FaultLog] = None
    #: Structured event trace (``record_log=True`` only): tuples headed by
    #: "plan" / "dispatch" / "commit" / "kill" / "steal".
    dispatch_log: Optional[list] = None

    @property
    def n_hosts(self) -> int:
        return int(self.host_keys.size)

    @property
    def finished(self) -> bool:
        return self.tasks_completed == self.tasks_total

    @property
    def makespan(self) -> float:
        """Completion time if the workload finished, else NaN."""
        return self.completion_time

    @property
    def total_work_done(self) -> float:
        return float(np.sum(self.work_done))

    @property
    def total_work_lost(self) -> float:
        return float(np.sum(self.work_lost))

    @property
    def total_overhead(self) -> float:
        return float(np.sum(self.overhead_paid))

    @property
    def goodput(self) -> float:
        """Committed work per unit horizon time, summed over hosts."""
        return self.total_work_done / self.horizon if self.horizon > 0 else 0.0

    @property
    def total_steals(self) -> int:
        return int(np.sum(self.steals_succeeded))

    @property
    def steal_rate(self) -> float:
        """Successful steals per episode across the fleet (0 for sharing)."""
        eps = int(np.sum(self.episodes))
        return self.total_steals / eps if eps else 0.0

    def stats_for(self, i: int) -> WorkstationStats:
        """Host ``i``'s accounting as a scalar-farm :class:`WorkstationStats`."""
        return WorkstationStats(
            ws_id=int(self.host_keys[i]),
            episodes=int(self.episodes[i]),
            periods_committed=int(self.periods_committed[i]),
            periods_killed=int(self.periods_killed[i]),
            tasks_completed=int(self.tasks_completed_per_host[i]),
            work_done=float(self.work_done[i]),
            work_lost=float(self.work_lost[i]),
            overhead_paid=float(self.overhead_paid[i]),
            idle_absent_time=float(self.idle_absent_time[i]),
            crashes=int(self.crashes[i]),
            dispatches_lost=int(self.dispatches_lost[i]),
            dispatches_delayed=int(self.dispatches_delayed[i]),
            delay_time=float(self.delay_time[i]),
            periods_corrupted=int(self.periods_corrupted[i]),
            retries=0,
        )


# ----------------------------------------------------------------------
# The shared event core
# ----------------------------------------------------------------------


def _partition(n_tasks: int, n_hosts: int) -> list[tuple[int, int]]:
    """Even contiguous split of ``0..n_tasks`` into ``n_hosts`` blocks."""
    base, rem = divmod(n_tasks, n_hosts)
    bounds = [0]
    for i in range(n_hosts):
        bounds.append(bounds[-1] + base + (1 if i < rem else 0))
    return [(bounds[i], bounds[i + 1]) for i in range(n_hosts)]


def _plan_owner_timelines(
    spec: FleetSpec,
    hosts: list,
    horizon: float,
    start_absent: bool,
    runtime,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Bulk-precompute every host's owner leave/return events.

    Extends the ``FaultRuntime.crash_arrays`` planning idea to owner draws.
    Per chunk of hosts: presence blocks (``rng.exponential``) and absence
    uniform blocks are drawn per host in the exact lazy refill order
    ``OwnerProcess`` uses (presence block first unless ``start_absent``,
    strict alternation, 256 wide, consumed from the end, floored at
    ``1e-12``), the family inverse transform runs once vectorized across
    the chunk, and the alternating presence/absence durations collapse to a
    timeline with one ``np.cumsum`` per chunk — the same left-to-right IEEE
    additions the scalar event loop performs, so every event time is
    bit-identical to the heap core's ``time + draw`` chain.

    Life drift is baked in exactly: an absence is scaled iff its *leave*
    time crossed the drift threshold, and since scaling never moves an
    already-crossed leave back below the threshold, the crossing computed on
    the unscaled timeline is the true one.  (The drain loop still calls
    ``absence_scale`` per leave for its drift-log side effect.)

    Hosts whose drawn timeline does not yet cover ``horizon`` simply draw
    further block pairs — the extra draws a lazy host would never have made
    are unobservable (generator state is not an output).

    Returns ``(times, prios, seqs)`` for every owner event with
    ``time <= horizon`` (unsorted), and fills ``h.returns`` /
    ``h.ep_cursor`` on each host with the per-leave reclaim lookup.
    """
    if runtime is not None:
        drift_at, drift_scale = runtime.drift_params()
    else:
        drift_at, drift_scale = math.inf, 1.0
    inverse, d = FAMILY_TABLE[spec.family].inverse, spec.d
    out_t: list[np.ndarray] = []
    out_p: list[np.ndarray] = []
    out_s: list[np.ndarray] = []
    for c0 in range(0, len(hosts), _TIMELINE_CHUNK):
        act = hosts[c0:c0 + _TIMELINE_CHUNK]
        durs = None
        while act:
            k = len(act)
            P = np.empty((k, _BLOCK))
            U = np.empty((k, _BLOCK))
            # Exact per-generator call order: the stream that refills first
            # under lazy consumption is drawn first here.
            if start_absent:
                for r in range(k):
                    h = act[r]
                    U[r] = h.rng.uniform(0.0, 1.0, _BLOCK)
                    P[r] = h.rng.exponential(h.present_mean, _BLOCK)
            else:
                for r in range(k):
                    h = act[r]
                    P[r] = h.rng.exponential(h.present_mean, _BLOCK)
                    U[r] = h.rng.uniform(0.0, 1.0, _BLOCK)
            # The family's inverse transform, θ broadcast down the rows:
            # the ufunc chain each host's LifeFunction.inverse performs, so
            # every value is bit-equal to the heap core's per-host draws.
            theta = spec.params[[h.idx for h in act]][:, None]
            A = inverse(d, theta, U)
            # Blocks are consumed from the end, each value floored at 1e-12.
            P = P[:, ::-1]
            A = A[:, ::-1]
            P = np.where(P > 1e-12, P, 1e-12)
            A = np.where(A > 1e-12, A, 1e-12)
            seg = np.empty((k, 2 * _BLOCK))
            if start_absent:
                seg[:, 0::2] = A
                seg[:, 1::2] = P
            else:
                seg[:, 0::2] = P
                seg[:, 1::2] = A
            durs = seg if durs is None else np.concatenate([durs, seg], axis=1)
            if drift_at != math.inf and drift_scale != 1.0:
                cum0 = np.cumsum(durs, axis=1)
                if start_absent:
                    leaves0 = np.concatenate(
                        [np.zeros((k, 1)), cum0[:, 1::2][:, :-1]], axis=1
                    )
                    a_sl = slice(0, None, 2)
                else:
                    leaves0 = cum0[:, 0::2]
                    a_sl = slice(1, None, 2)
                crossed = leaves0 >= drift_at
                scaled = durs.copy()
                a_part = scaled[:, a_sl]
                scaled[:, a_sl] = np.where(crossed, a_part * drift_scale,
                                           a_part)
                cum = np.cumsum(scaled, axis=1)
            else:
                cum = np.cumsum(durs, axis=1)
            # Covered once the last in-matrix leave passes the horizon (its
            # return, if needed, is then guaranteed to be in-matrix too).
            last_leave = cum[:, -1] if start_absent else cum[:, -2]
            covered = last_leave > horizon
            if not covered.any():
                continue
            rows = np.flatnonzero(covered)
            cum_r = cum[rows]
            if start_absent:
                ret_m = cum_r[:, 0::2]
                leave_m = np.concatenate(
                    [np.zeros((rows.size, 1)), cum_r[:, 1::2][:, :-1]], axis=1
                )
            else:
                leave_m = cum_r[:, 0::2]
                ret_m = cum_r[:, 1::2]
            mask_lv = leave_m <= horizon
            mask_rt = ret_m <= horizon
            idxs = np.empty(rows.size, dtype=np.int64)
            for j, r in enumerate(rows):
                idxs[j] = act[r].idx
            base = (idxs << _SEQ_EPOCH_BITS)[:, None]
            n_lv = mask_lv.sum(axis=1)
            # One capped-and-contiguous matrix tolist beats 100k per-row
            # conversions; the cursor only reads the first n_lv entries per
            # row (one per leave <= horizon), extra columns are inert.
            ncap = int(n_lv.max())
            ret_rows = np.ascontiguousarray(ret_m[:, :ncap]).tolist()
            for j, r in enumerate(rows):
                h = act[r]
                h.returns = ret_rows[j]
                h.ep_cursor = 0
            out_t.append(leave_m[mask_lv])
            out_p.append(np.full(int(n_lv.sum()), _OWNER_LEAVES, np.int64))
            out_s.append(np.broadcast_to(base, leave_m.shape)[mask_lv])
            n_rt = int(mask_rt.sum())
            out_t.append(ret_m[mask_rt])
            out_p.append(np.full(n_rt, _OWNER_RETURNS, np.int64))
            out_s.append(np.broadcast_to(base, ret_m.shape)[mask_rt])
            if covered.all():
                break
            keep = ~covered
            act = [act[r] for r in np.flatnonzero(keep)]
            durs = durs[keep]
    if out_t:
        return (
            np.ascontiguousarray(np.concatenate(out_t)),
            np.concatenate(out_p),
            np.concatenate(out_s),
        )
    empty = np.zeros(0)
    return empty, empty.astype(np.int64), empty.astype(np.int64)


def _drain_heap(rules: _Rules, start_absent: bool, churn: tuple) -> int:
    """The scalar ``heapq`` core — the differential oracle.

    Owner draws are lazy: each host's :class:`OwnerProcess` buffers its own
    substream exactly as ``run_farm`` does.  Returns the events processed.
    """
    hosts = rules.hosts
    horizon = rules.horizon
    runtime = rules.runtime
    owners = [OwnerProcess.from_life_function(h.life, h.present_mean)
              for h in hosts]
    queue = list(zip(*(a.tolist() for a in churn)))
    for h in hosts:
        first = 0.0 if start_absent else owners[h.idx].next_present(h.rng)
        queue.append((first, _OWNER_LEAVES, h.idx << _SEQ_EPOCH_BITS))
    heapq.heapify(queue)
    events = 0
    while queue:
        time, prio, seq = heapq.heappop(queue)
        if time > horizon:
            break
        events += 1
        idx = seq >> _SEQ_EPOCH_BITS
        h = hosts[idx]
        if prio == _PERIOD_ENDS:
            t_end = rules.period_end(h, time, seq & _SEQ_EPOCH_MASK)
            if rules.done:
                break
        elif prio == _OWNER_LEAVES:
            absence = owners[idx].next_absent(h.rng)
            if runtime is not None:
                absence *= runtime.absence_scale(h.key, time)
            reclaim_at = time + absence
            heapq.heappush(queue, (reclaim_at, _OWNER_RETURNS, seq))
            t_end = rules.leave(h, time, reclaim_at)
        elif prio == _OWNER_RETURNS:
            rules.owner_return(h)
            heapq.heappush(queue, (time + owners[idx].next_present(h.rng),
                                   _OWNER_LEAVES, seq))
            continue
        elif prio == _WS_CRASH:
            rules.crash(h, time)
            continue
        else:  # _WS_RESTART
            t_end = rules.restart(h, time)
        if t_end is not None:
            heapq.heappush(queue, (t_end, _PERIOD_ENDS,
                                   (idx << _SEQ_EPOCH_BITS) | h.epoch))
    return events


def _drain_batched(
    rules: _Rules,
    spec: FleetSpec,
    start_absent: bool,
    churn: tuple,
    bucket_width: Optional[float],
) -> int:
    """The calendar-queue core: every static event precomputed and sorted
    once, then drained bucket by bucket.  Returns the events processed.
    """
    hosts = rules.hosts
    horizon = rules.horizon
    runtime = rules.runtime
    owner_events = _plan_owner_timelines(
        spec, hosts, horizon, start_absent, runtime
    )
    st_t, st_p, st_s = (np.concatenate(pair)
                        for pair in zip(owner_events, churn))
    order = np.lexsort((st_s, st_p, st_t))
    st_t = st_t[order]
    st_p = st_p[order]
    st_s = st_s[order]

    n_static = int(st_t.size)
    if bucket_width is None:
        nb = min(max(n_static // 8, 1), 1 << 16)
    else:
        nb = min(max(int(math.ceil(horizon / bucket_width)), 1), 1 << 20)
    inv_w = nb / horizon
    if n_static:
        st_b = np.minimum((st_t * inv_w).astype(np.int64), nb - 1)
        bounds = np.searchsorted(st_b, np.arange(nb + 1)).tolist()
    else:
        bounds = [0] * (nb + 1)
    # Period ends queued for later buckets, by bucket; a run that finishes
    # early never touches most buckets, so their lists are made on demand.
    dyn: defaultdict[int, list] = defaultdict(list)

    events = 0
    for cur in range(nb):
        lo_b = bounds[cur]
        hi_b = bounds[cur + 1]
        evs = dyn.pop(cur, None)
        if hi_b > lo_b:
            # Materialize this bucket's static cohort only now — keeping
            # the whole schedule as live tuples would tax every GC pass.
            merged = list(zip(
                st_t[lo_b:hi_b].tolist(),
                st_p[lo_b:hi_b].tolist(),
                st_s[lo_b:hi_b].tolist(),
            ))
            if evs:
                merged.extend(evs)
                merged.sort()
            evs = merged
        elif evs:
            evs.sort()
        else:
            continue
        pos = 0
        n_evs = len(evs)
        while pos < n_evs:
            time, prio, seq = evs[pos]
            pos += 1
            idx = seq >> _SEQ_EPOCH_BITS
            h = hosts[idx]
            if prio == _PERIOD_ENDS:
                t_end = rules.period_end(h, time, seq & _SEQ_EPOCH_MASK)
                if t_end is None:
                    if rules.done:
                        return events + pos
                    continue
            elif prio == _OWNER_LEAVES:
                if runtime is not None:
                    # Drift scaling is baked into h.returns; the call
                    # remains for its drift-log side effect.
                    runtime.absence_scale(h.key, time)
                k = h.ep_cursor
                h.ep_cursor = k + 1
                t_end = rules.leave(h, time, h.returns[k])
                if t_end is None:
                    continue
            elif prio == _OWNER_RETURNS:
                rules.owner_return(h)
                continue
            elif prio == _WS_CRASH:
                rules.crash(h, time)
                continue
            else:  # _WS_RESTART
                t_end = rules.restart(h, time)
                if t_end is None:
                    continue
            if t_end <= horizon:
                ev = (t_end, _PERIOD_ENDS, (idx << _SEQ_EPOCH_BITS) | h.epoch)
                b = int(t_end * inv_w)
                if b > cur:
                    dyn[b if b < nb else nb - 1].append(ev)
                else:
                    # Same bucket: keep exact order via a sorted insert
                    # past the current position (t_end > time).
                    insort(evs, ev, pos)
                    n_evs += 1
        events += pos
    return events


def _collector_paused(run):
    """Call ``run`` with automatic garbage collection off, then restore the
    caller's ``gc.isenabled()`` (also when ``run`` raises).

    Before re-enabling, one young-generation pass settles what the run left
    alive (its result and fault log, ~3·10^4 objects at 10k hosts under
    crashes), so the caller's next allocation does not pay for it.
    """
    @functools.wraps(run)
    def paused(*args, **kwargs):
        collecting = gc.isenabled()
        gc.disable()
        try:
            return run(*args, **kwargs)
        finally:
            if collecting:
                gc.collect(0)
                gc.enable()
    return paused


@_collector_paused
def run_fleet(
    spec: FleetSpec,
    durations: np.ndarray,
    horizon: float,
    policy: str = "sharing",
    plan: Optional[FleetPlan] = None,
    grid: int = 9,
    faults: Optional[FaultPlan] = None,
    start_absent: bool = False,
    record_log: bool = False,
    steal_fraction: float = 0.5,
    core: str = "batched",
    bucket_width: Optional[float] = None,
) -> FleetResult:
    """Advance every host of the fleet through one shared event loop.

    Parameters mirror :func:`repro.now.farm.run_farm` where they overlap;
    ``durations`` is the global task-duration array (FIFO order), ``policy``
    one of :data:`FLEET_POLICIES`, and ``plan`` an optional precomputed
    :class:`FleetPlan` (planned via :func:`plan_fleet_schedules` otherwise).
    ``steal_fraction`` is the fraction of a victim's pending tasks taken per
    successful steal (rounded up; default half).

    ``core`` selects the event queue: ``"batched"`` (default) drains
    precomputed calendar-queue buckets, ``"heap"`` is the scalar ``heapq``
    loop kept as the differential oracle.  Both call the same event
    handlers, so they are bit-identical (see the module docstring).
    ``bucket_width`` overrides the batched core's bucket span in
    simulation-time units (default: auto-sized so static events average ~8
    per bucket); it is a pure performance knob — results are identical for
    every width.

    Automatic garbage collection is paused for the whole call (set-up, the
    drain and the result gather) and the caller's ``gc.isenabled()`` is
    restored on return, also when a handler raises.  ``gc.disable`` is
    process-wide, so other threads allocate without cyclic collection
    while a run is in progress; a run itself leaves no cycles behind.
    """
    if not (horizon > 0 and math.isfinite(horizon)):
        raise SimulationError(
            f"horizon must be positive and finite, got {horizon}"
        )
    if policy not in FLEET_POLICIES:
        raise SimulationError(
            f"unknown fleet policy {policy!r}; expected one of {FLEET_POLICIES}"
        )
    if core not in FLEET_CORES:
        raise SimulationError(
            f"unknown fleet core {core!r}; expected one of {FLEET_CORES}"
        )
    if not 0.0 < steal_fraction <= 1.0:
        raise SimulationError(
            f"steal_fraction must lie in (0, 1], got {steal_fraction}"
        )
    if bucket_width is not None and not (
        bucket_width > 0 and math.isfinite(bucket_width)
    ):
        raise SimulationError(
            f"bucket_width must be positive and finite, got {bucket_width}"
        )
    durations = np.asarray(durations, dtype=float)
    if durations.ndim != 1 or durations.size == 0:
        raise SimulationError("durations must be a non-empty vector")
    bad = np.flatnonzero(~((durations > 0) & (durations < np.inf)))
    if bad.size:
        i = int(bad[0])
        raise SimulationError(
            f"task durations must be positive and finite, got "
            f"{durations[i]} at index {i}"
        )
    if plan is None:
        plan = plan_fleet_schedules(spec, grid=grid)
    if plan.n_hosts != spec.n_hosts:
        raise SimulationError(
            f"plan covers {plan.n_hosts} hosts, spec has {spec.n_hosts}"
        )

    n_hosts = spec.n_hosts
    if n_hosts >= _MAX_HOSTS:
        raise SimulationError(
            f"fleet is capped at {_MAX_HOSTS - 1} hosts (int64 event seq)"
        )
    n_tasks = int(durations.size)
    cum = np.concatenate(([0.0], np.cumsum(durations)))
    stealing = policy != "sharing"

    if stealing:
        pools = [_RangePool([r] if r[1] > r[0] else [], cum)
                 for r in _partition(n_tasks, n_hosts)]
    else:
        shared = _RangePool([(0, n_tasks)], cum)
        pools = [shared] * n_hosts

    keys = spec.host_keys
    # Bulk scalar conversion + life-function interning: at 100k hosts the
    # per-host float()/tolist()/constructor churn is a visible slice of the
    # wall clock, and life functions are stateless so equal params share one.
    keys_l = [int(k) for k in keys.tolist()]
    cs_l = spec.cs.tolist()
    speeds_l = spec.speeds.tolist()
    pm_l = spec.present_means.tolist()
    periods_l = plan.periods.tolist()
    nper_l = plan.num_periods.tolist()
    seed = int(spec.seed)
    owner_rngs = host_generators(seed, 0, keys_l)
    steal_rngs = (host_generators(seed, 1, keys_l)
                  if stealing and n_hosts > 1 else [None] * n_hosts)
    life_cache: dict[float, LifeFunction] = {}
    lives = []
    for p in spec.params.tolist():
        lf = life_cache.get(p)
        if lf is None:
            lf = life_cache[p] = make(spec.family, p, spec.d)
        lives.append(lf)
    hosts = [
        _Host(
            i, keys_l[i], cs_l[i], speeds_l[i], pm_l[i], lives[i],
            owner_rngs[i], steal_rngs[i],
            periods_l[i][: int(nper_l[i])],
            pools[i],
        )
        for i in range(n_hosts)
    ]

    runtime: Optional[FaultRuntime] = None
    churn = (np.zeros(0), np.zeros(0, np.int64), np.zeros(0, np.int64))
    if faults is not None:
        runtime = faults.start((h.key for h in hosts), horizon)
        churn_ws, churn_crash, churn_restart = runtime.crash_arrays()
        key_to_idx = {h.key: h.idx for h in hosts}
        seqs = np.array([key_to_idx[int(w)] for w in churn_ws.tolist()],
                        dtype=np.int64) << _SEQ_EPOCH_BITS
        # Restarts past the horizon are never processed by either core.
        alive = churn_restart <= horizon
        churn = (
            np.concatenate([churn_crash, churn_restart[alive]]),
            np.concatenate([np.full(seqs.size, _WS_CRASH, np.int64),
                            np.full(int(alive.sum()), _WS_RESTART, np.int64)]),
            np.concatenate([seqs, seqs[alive]]),
        )

    log: Optional[list] = [] if record_log else None
    rules = _Rules(hosts, horizon, runtime, log, steal_fraction,
                   policy == "stealing-latency", cum)
    if core == "heap":
        events = _drain_heap(rules, start_absent, churn)
    else:
        events = _drain_batched(rules, spec, start_absent, churn, bucket_width)

    gather = lambda name, dtype: np.array([getattr(h, name) for h in hosts],
                                          dtype=dtype)
    return FleetResult(
        policy=policy,
        host_keys=keys.copy(),
        episodes=gather("episodes", np.int64),
        periods_committed=gather("committed", np.int64),
        periods_killed=gather("killed", np.int64),
        tasks_completed_per_host=gather("tasks_done", np.int64),
        work_done=gather("work_done", float),
        work_lost=gather("work_lost", float),
        overhead_paid=gather("overhead_paid", float),
        idle_absent_time=gather("idle_absent", float),
        crashes=gather("crashes", np.int64),
        dispatches_lost=gather("lost", np.int64),
        dispatches_delayed=gather("delayed", np.int64),
        delay_time=gather("delay_time", float),
        periods_corrupted=gather("corrupted", np.int64),
        steals_attempted=gather("steals_attempted", np.int64),
        steals_succeeded=gather("steals_succeeded", np.int64),
        steal_wait=gather("steal_wait", float),
        tasks_total=n_tasks,
        tasks_completed=int(sum(h.tasks_done for h in hosts)),
        completion_time=rules.completion_time,
        horizon=horizon,
        events_processed=events,
        core=core,
        fault_log=None if runtime is None else runtime.log,
        dispatch_log=log,
    )


# ----------------------------------------------------------------------
# Mean-field fixed-point approximation
# ----------------------------------------------------------------------


def mean_field_fleet(
    spec: FleetSpec,
    plan: FleetPlan,
    total_work: float,
    policy: str = "sharing",
    faults: Optional[FaultPlan] = None,
    max_iter: int = 64,
) -> dict:
    """Fixed-point makespan/goodput prediction for one fleet configuration.

    Each host is approximated as an independent renewal process: per owner
    cycle (``present_mean + E[absence]``) it banks its schedule's expected
    work ``E(S; p) × speed``, thinned by crash availability
    ``mtbf / (mtbf + restart)``.  The fleet drains ``total_work`` at the
    summed rate; for ``"stealing-latency"`` the steal RTT consumes wall
    clock once per refill episode after a host's initial share drains, which
    feeds back into the makespan — iterated to a fixed point.  Returns a
    dict with ``makespan``, ``goodput``, ``per_host_goodput``, and the
    predicted ``steals`` (0 for sharing).
    """
    if policy not in FLEET_POLICIES:
        raise SimulationError(
            f"unknown fleet policy {policy!r}; expected one of {FLEET_POLICIES}"
        )
    cycle = spec.present_means + FAMILY_TABLE[spec.family].mean_absence(spec.d, spec.params)
    availability = 1.0
    if faults is not None:
        crash = faults.get(CrashFault)
        if crash is not None and crash.restart_time > 0:
            availability = crash.mtbf / (crash.mtbf + crash.restart_time)
    per_host = availability * plan.expected_work * spec.speeds / cycle
    rate = float(np.sum(per_host))
    if rate <= 0:
        return {"makespan": math.inf, "goodput": 0.0,
                "per_host_goodput": per_host, "steals": 0.0}
    makespan = total_work / rate
    steals = 0.0
    if policy != "sharing" and spec.n_hosts > 1:
        share = total_work / spec.n_hosts
        for _ in range(max_iter):
            drain = np.minimum(share / per_host, makespan)
            refill_episodes = np.maximum(makespan - drain, 0.0) / cycle
            steals = float(np.sum(refill_episodes))
            overhead_work = 0.0
            if policy == "stealing-latency":
                # Each refill's RTT forfeits c × speed × availability of work.
                overhead_work = float(np.sum(
                    refill_episodes * spec.cs * spec.speeds * availability
                ))
            new_makespan = (total_work + overhead_work) / rate
            if abs(new_makespan - makespan) <= 1e-9 * makespan:
                makespan = new_makespan
                break
            makespan = 0.5 * (makespan + new_makespan)
    return {
        "makespan": makespan,
        "goodput": rate,
        "per_host_goodput": per_host,
        "steals": steals,
    }
