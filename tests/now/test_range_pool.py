"""Hypothesis property suite for the fleet's ``_RangePool`` in isolation.

The pool is the fleet engine's O(log) replacement for per-Task checkout,
so its contract carries the whole bit-parity story:

* **conservation** — any interleaving of ``checkout`` / ``restore_front``
  / ``steal_tail`` / ``extend_back`` conserves the task-index multiset and
  keeps ``count`` consistent with the ranges;
* **scalar admission** — ``checkout`` reproduces the sequential
  ``used + d <= budget + 1e-12`` test of ``TaskPool.checkout`` task by
  task, including on adversarial dyadic workloads and budgets sitting
  exactly on (or within 1e-12 of) prefix-sum boundaries;
* **cut-seed independence** — the mean-duration hint and the binary
  search land on the same unique cut, the one a reference fix-up walk
  reaches from any starting index.
"""

from __future__ import annotations

from collections import deque

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.now.fleet import _RangePool


def _pool(durations, ranges=None):
    cum = np.concatenate(([0.0], np.cumsum(durations)))
    if ranges is None:
        ranges = [(0, len(durations))]
    return _RangePool(ranges, cum)


def _indices(pool):
    return [k for lo, hi in pool.ranges for k in range(lo, hi)]


def _scalar_checkout(durations, order, budget):
    """The literal TaskPool admission loop over prefix-sum work values."""
    cum = np.concatenate(([0.0], np.cumsum(durations)))
    limit = budget + 1e-12
    used = 0.0
    taken = []
    for k in order:
        d = float(cum[k + 1] - cum[k])
        if used + d > limit:
            break
        used += d
        taken.append(k)
    return taken, used


def _reference_fixup(cum, base, used, limit, lo, hi, j):
    """``_RangePool.checkout``'s clamp + exact fix-up loops, standing alone.

    Walks from any starting index ``j`` to the unique cut in ``[lo, hi]``:
    the reference the pool's seeded cuts are checked against.
    """
    if j < lo:
        j = lo
    elif j > hi:
        j = hi
    while j < hi and used + (cum[j + 1] - base) <= limit:
        j += 1
    while j > lo and used + (cum[j] - base) > limit:
        j -= 1
    return j


#: Dyadic durations: partial prefix sums are exact, so checkout must be
#: *bit*-identical to the scalar loop, not merely close.
dyadic_durations = st.lists(
    st.sampled_from([0.03125, 0.0625, 0.125, 0.25, 0.5, 1.0, 2.0]),
    min_size=1, max_size=64,
).map(np.array)

#: Messy float durations for the conservation / cut-uniqueness laws
#: (those must hold for any positive durations, rounding noise included).
messy_durations = st.lists(
    st.floats(min_value=1e-6, max_value=10.0,
              allow_nan=False, allow_infinity=False),
    min_size=1, max_size=48,
).map(np.array)


@st.composite
def pool_budgets(draw, durations_strategy):
    durations = draw(durations_strategy)
    total = float(np.sum(durations))
    mode = draw(st.sampled_from(["plain", "boundary", "boundary-eps"]))
    if mode == "plain":
        budget = draw(st.floats(min_value=0.0, max_value=total * 1.25,
                                allow_nan=False))
    else:
        # Sit exactly on a prefix-sum boundary, or 1e-12 either side of
        # it — the admission tolerance's own knife edge.
        cum = np.concatenate(([0.0], np.cumsum(durations)))
        k = draw(st.integers(min_value=0, max_value=len(durations)))
        budget = float(cum[k])
        if mode == "boundary-eps":
            budget += draw(st.sampled_from([-1e-12, 1e-12]))
    return durations, max(0.0, budget)


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(case=pool_budgets(dyadic_durations))
def test_checkout_matches_scalar_admission(case):
    durations, budget = case
    pool = _pool(durations)
    taken, used, n_taken = pool.checkout(budget)
    got = [k for lo, hi in taken for k in range(lo, hi)]
    want, want_used = _scalar_checkout(durations, range(len(durations)),
                                       budget)
    assert got == want
    assert used == want_used
    assert n_taken == len(want)
    assert pool.count == len(durations) - n_taken
    assert _indices(pool) == list(range(len(want), len(durations)))


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(case=pool_budgets(st.one_of(dyadic_durations, messy_durations)),
       inv_mean_scale=st.floats(min_value=0.05, max_value=20.0),
       seed_frac=st.floats(min_value=-0.25, max_value=1.25))
def test_cut_is_seed_independent(case, inv_mean_scale, seed_frac):
    """Binary search, any mean-duration hint, and the reference fix-up from
    any starting index all land on the same unique cut."""
    durations, budget = case
    mean = float(np.mean(durations))
    a = _pool(durations).checkout(budget)
    b = _pool(durations).checkout(budget, inv_mean=inv_mean_scale / mean)
    assert a == b
    n = len(durations)
    cum = np.concatenate(([0.0], np.cumsum(durations)))
    cut = _reference_fixup(cum, 0.0, 0.0, budget + 1e-12, 0, n,
                           int(seed_frac * n))
    assert cut == a[2]


@st.composite
def op_sequences(draw):
    durations = draw(st.one_of(dyadic_durations, messy_durations))
    n_ops = draw(st.integers(min_value=1, max_value=12))
    ops = [draw(st.sampled_from(["checkout", "restore", "steal", "extend"]))
           for _ in range(n_ops)]
    knobs = [draw(st.floats(min_value=0.0, max_value=1.0)) for _ in ops]
    return durations, ops, knobs


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(seq=op_sequences())
def test_round_trips_conserve_indices_and_count(seq):
    """Random op interleavings conserve the index multiset and count, and
    every parked range re-enters exactly as it left."""
    durations, ops, knobs = seq
    n = len(durations)
    total = float(np.sum(durations))
    pool = _pool(durations)
    parked = deque()  # (ranges, n_tasks) checked out or stolen, FIFO
    for op, knob in zip(ops, knobs):
        if op == "checkout":
            taken, used, n_taken = pool.checkout(knob * total)
            assert used <= knob * total + 1e-12
            if n_taken:
                parked.append((taken, n_taken))
        elif op == "steal":
            stolen, got = pool.steal_tail(int(knob * n) + 1)
            assert got == sum(hi - lo for lo, hi in stolen)
            if got:
                parked.append((stolen, got))
        elif parked:
            ranges, n_tasks = parked.popleft()
            if op == "restore":
                pool.restore_front(ranges)
            else:
                pool.extend_back(ranges)
        held = sum(k for _, k in parked)
        assert pool.count == n - held
        assert pool.count == sum(hi - lo for lo, hi in pool.ranges)
        in_pool = _indices(pool)
        out = sorted(k for ranges, _ in parked
                     for lo, hi in ranges for k in range(lo, hi))
        assert sorted(in_pool + out) == list(range(n))


@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(durations=st.one_of(dyadic_durations, messy_durations),
       frac=st.floats(min_value=0.1, max_value=0.9))
def test_checkout_restore_is_identity(durations, frac):
    pool = _pool(durations)
    before = _indices(pool)
    taken, used, n_taken = pool.checkout(frac * float(np.sum(durations)))
    pool.restore_front(taken)
    assert _indices(pool) == before
    assert pool.count == len(durations)


@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(durations=st.one_of(dyadic_durations, messy_durations),
       target=st.integers(min_value=0, max_value=80))
def test_steal_tail_takes_exact_fifo_suffix(durations, target):
    """A steal removes exactly ``min(target, count)`` tasks, and they are
    precisely the FIFO tail in original order."""
    n = len(durations)
    pool = _pool(durations)
    stolen, got = pool.steal_tail(target)
    assert got == min(target, n)
    flat = [k for lo, hi in stolen for k in range(lo, hi)]
    assert flat == list(range(n - got, n))
    assert _indices(pool) == list(range(n - got))
    # A thief queueing the loot preserves global FIFO order within it.
    thief = _pool(durations, ranges=[])
    thief.extend_back(stolen)
    assert _indices(thief) == flat
