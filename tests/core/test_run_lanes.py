"""The lane loop against its step-by-step predecessor, bit for bit.

:func:`repro.core.hetero_recurrence.run_lanes` skips every scatter and
compaction on steps where no lane ends and assigns termination codes in
reverse priority order.  ``_reference_run_lanes`` below is the loop it
replaced, kept verbatim as the oracle: it scatters ``E``, writes every code
class and compacts the live lanes on every step.  Both must return the same
bytes — periods (NaN padding and signed zeros included), period counts,
termination codes and ``E`` — for every kernel the library feeds the loop.

Kernels are captured from the real entry points
(:func:`generate_schedules_hetero` for the table families,
:func:`generate_schedules_batch` for the generic p/p'/p^{-1} kernel), so the
test runs exactly the callables production passes in.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from scipy.optimize import brentq

from repro.core import batch_recurrence, hetero_recurrence
from repro.core.batch_recurrence import generate_schedules_batch
from repro.core.hetero_recurrence import _CODE, generate_schedules_hetero, run_lanes
from repro.core.life_functions import ParetoLife, WeibullLife
from repro.core.life_functions.families import make
from repro.core.recurrence import Termination

pytestmark = pytest.mark.filterwarnings("error::RuntimeWarning")

MAX_PERIODS = (1, 2, 3, 10_000)


def _reference_run_lanes(survival, step, cs, params, lifespans, t0s, max_periods, tail_tol):
    n = t0s.size
    finite_life = bool(np.any(np.isfinite(lifespans)))

    term = np.full(n, _CODE[Termination.MAX_PERIODS], dtype=np.int8)
    alive = np.ones(n, dtype=bool)
    first = t0s.copy()
    if finite_life:
        # A t0 spanning the whole lifespan earns p(L) = 0; clamp rather than
        # reject so sweeps stay total (scalar engine's pre-loop rule).
        clamped = t0s >= lifespans
        if np.any(clamped):
            first[clamped] = np.minimum(t0s[clamped], lifespans[clamped])
            term[clamped] = _CODE[Termination.LIFESPAN_EXHAUSTED]
            alive[clamped] = False

    sqrt_tail = math.sqrt(tail_tol)

    # Compacted live-lane state: ``idx`` maps the compact rows back to lanes;
    # everything else (previous period, boundary T_{k-1}, per-lane c/θ/L,
    # p(T_{k-1}), banked E) lives in dense arrays the vector ops run over
    # directly.  Dead lanes are dropped by boolean compaction instead of
    # masked out, so per-step cost tracks the number of *surviving* lanes.
    idx = np.nonzero(alive)[0]
    tp = first[idx]
    b = first[idx]
    lc = cs[idx]
    lv = params[idx]
    ll = lifespans[idx]
    ph = survival(lv, b) if idx.size else np.empty(0)
    e_full = np.zeros(n)
    e_full[idx] = np.maximum(0.0, tp - lc) * ph
    e = e_full[idx]

    # NaN-padded output buffer, grown geometrically; column k holds period
    # k+1 for the lanes that reached it.
    cap = 32
    periods_buf = np.full((n, cap), np.nan)
    k = 0

    for _ in range(max_periods - 1):
        if idx.size == 0:
            break
        if finite_life:
            hit = b >= ll - 1e-15 * ll
            if np.any(hit):
                term[idx[hit]] = _CODE[Termination.LIFESPAN_EXHAUSTED]
                keep = ~hit
                idx, tp, b, lc, lv, ll, ph, e = (
                    idx[keep], tp[keep], b[keep], lc[keep],
                    lv[keep], ll[keep], ph[keep], e[keep],
                )
                if idx.size == 0:
                    break

        t_next = step(lc, lv, tp, b, ph)
        nonpositive = np.isnan(t_next)
        unproductive = ~nonpositive & (t_next <= lc)
        if finite_life:
            overshoot = ~nonpositive & ~unproductive & (b + t_next > ll)
            surviving = ~(nonpositive | unproductive | overshoot)
            term[idx[overshoot]] = _CODE[Termination.LIFESPAN_EXHAUSTED]
        else:
            surviving = ~(nonpositive | unproductive)
        term[idx[nonpositive]] = _CODE[Termination.TARGET_NONPOSITIVE]
        term[idx[unproductive]] = _CODE[Termination.UNPRODUCTIVE]
        if not np.any(surviving):
            break

        sidx = idx[surviving]
        tn = t_next[surviving]
        if k == cap:
            cap *= 2
            grown = np.full((n, cap), np.nan)
            grown[:, : periods_buf.shape[1]] = periods_buf
            periods_buf = grown
        periods_buf[sidx, k] = tn
        k += 1

        b = b[surviving] + tn
        tp = tn
        lc = lc[surviving]
        lv = lv[surviving]
        ll = ll[surviving]
        ph = survival(lv, b)
        contribution = (tn - lc) * ph
        e = e[surviving] + contribution
        e_full[sidx] = e
        negligible = (contribution < tail_tol * np.maximum(1.0, e)) & (ph < sqrt_tail)
        if np.any(negligible):
            term[sidx[negligible]] = _CODE[Termination.TAIL_NEGLIGIBLE]
            keep = ~negligible
            idx, tp, b, lc, lv, ll, ph, e = (
                sidx[keep], tp[keep], b[keep], lc[keep],
                lv[keep], ll[keep], ph[keep], e[keep],
            )
        else:
            idx = sidx

    periods = np.concatenate([first[:, None], periods_buf[:, :k]], axis=1)
    num_periods = 1 + np.sum(~np.isnan(periods[:, 1:]), axis=1)
    return periods, num_periods, term, e_full + 0.0


# ----------------------------------------------------------------------
# Harness
# ----------------------------------------------------------------------


@pytest.fixture
def captured(monkeypatch):
    """Every ``run_lanes`` call the engines make, as ``(args, result)``."""
    calls = []

    def spy(*args):
        out = run_lanes(*args)
        calls.append((args, out))
        return out

    monkeypatch.setattr(hetero_recurrence, "run_lanes", spy)
    monkeypatch.setattr(batch_recurrence, "run_lanes", spy)
    return calls


def _assert_same_bytes(got, want):
    periods, counts, codes, work = got
    r_periods, r_counts, r_codes, r_work = want
    assert periods.shape == r_periods.shape
    assert periods.tobytes() == r_periods.tobytes()
    assert counts.dtype == r_counts.dtype and counts.tobytes() == r_counts.tobytes()
    assert codes.dtype == r_codes.dtype and codes.tobytes() == r_codes.tobytes()
    assert work.tobytes() == r_work.tobytes()


def _check(calls) -> set[int]:
    """Match every captured call against the oracle; return the codes seen."""
    assert calls
    seen: set[int] = set()
    for args, out in calls:
        _assert_same_bytes(out, _reference_run_lanes(*args))
        seen.update(int(code) for code in out[2])
    return seen


def _finite_lanes(family, seed, n=160):
    """Random ``(c, θ, t0)`` lanes with ``t0`` from just above ``c`` to past ``L``."""
    rng = np.random.default_rng(seed)
    if family == "geominc":
        cs, params = rng.uniform(0.1, 4.0, n), rng.uniform(5.0, 120.0, n)
    else:
        cs, params = rng.uniform(0.2, 8.0, n), rng.uniform(20.0, 1600.0, n)
    t0s = cs + rng.uniform(0.0, 1.0, n) ** 3 * 1.2 * params + 1e-9
    t0s[:4] = params[:4] * np.array([1.0, 1.0 - 1e-16, 1.5, 3.0])  # clamped / at L
    return cs, params, np.maximum(t0s, cs * (1 + 1e-12) + 1e-12)


def _geomdec_lanes(seed, n=160):
    rng = np.random.default_rng(seed)
    cs, a = rng.uniform(0.01, 1.5, n), rng.uniform(1.01, 3.0, n)
    # Past c + 1/ln a the first step's target is non-positive.
    t0s = cs + rng.uniform(0.0, 1.6, n) / np.log(a) + 1e-9
    return cs, a, t0s


# ----------------------------------------------------------------------
# Table kernels
# ----------------------------------------------------------------------


@pytest.mark.parametrize("max_periods", MAX_PERIODS)
@pytest.mark.parametrize(
    "family,d", [("uniform", 1), ("poly", 1), ("poly", 2), ("poly", 3), ("geominc", 1)]
)
def test_finite_table_kernels_match_oracle(captured, family, d, max_periods):
    for seed in range(3):
        cs, params, t0s = _finite_lanes(family, seed)
        generate_schedules_hetero(family, cs, params, t0s, d=d, max_periods=max_periods)
    seen = _check(captured)
    if max_periods == 10_000:
        assert _CODE[Termination.LIFESPAN_EXHAUSTED] in seen


@pytest.mark.parametrize("max_periods", MAX_PERIODS)
def test_geomdec_table_kernel_matches_oracle(captured, max_periods):
    for seed in range(3):
        generate_schedules_hetero("geomdec", *_geomdec_lanes(seed), max_periods=max_periods)
    # Around the equal-period fixed point the schedule runs on until the
    # tail rule ends it.
    for c, a in ((1e-3, 1.5), (0.1, 2.0), (0.5, 1.2)):
        ln_a = np.log(a)
        fixed = brentq(lambda t: -np.log(1 + (c - t) * ln_a) / ln_a - t,
                       c + 1e-6, c + (1 - 1e-12) / ln_a)
        t0s = fixed + np.linspace(-1e-9, 1e-9, 21)
        generate_schedules_hetero("geomdec", np.full(21, c), np.full(21, a), t0s,
                                  max_periods=max_periods)
    seen = _check(captured)
    if max_periods == 10_000:
        assert {_CODE[Termination.TARGET_NONPOSITIVE], _CODE[Termination.TAIL_NEGLIGIBLE]} <= seen


def test_unproductive_outranks_overshoot(captured):
    """Uniform lanes that are unproductive *and* overshoot L at one step.

    The scalar engine reports ``UNPRODUCTIVE`` there; the oracle fixes the
    priority, so a swapped assignment order fails this test.
    """
    L, c = 100.0, 3.0
    t0s = np.linspace(c + 0.01, L - 0.01, 4001)
    generate_schedules_hetero("uniform", np.full(t0s.size, c), np.full(t0s.size, L), t0s)
    ((_, out),) = captured
    periods, counts, codes, _ = out
    boundary = np.nansum(periods, axis=1)
    last = periods[np.arange(t0s.size), counts - 1]
    collide = (codes == _CODE[Termination.UNPRODUCTIVE]) & (boundary + last - c > L)
    assert collide.sum() > 10
    _check(captured)


def test_all_lanes_end_at_the_first_step(captured):
    c = np.full(5, 2.0)
    # uniform: t1 = t0 - c <= c; geomdec: t0 past c + 1/ln a.
    generate_schedules_hetero("uniform", c, np.full(5, 100.0), c + np.linspace(0.5, 2.0, 5))
    a = np.full(5, 2.0)
    generate_schedules_hetero("geomdec", c, a, c + 1.0 / np.log(a) + np.linspace(0.1, 1.0, 5))
    generate_schedules_hetero("uniform", c, np.full(5, 100.0), np.full(5, 100.0))  # all clamped
    _check(captured)
    for _, (periods, counts, _, _) in captured:
        assert periods.shape[1] == 1 and np.all(counts == 1)


# ----------------------------------------------------------------------
# The generic kernel
# ----------------------------------------------------------------------


@pytest.mark.parametrize("max_periods", MAX_PERIODS)
@pytest.mark.parametrize(
    "p",
    [WeibullLife(0.6, 3.0), WeibullLife(2.5, 10.0), ParetoLife(1.0), ParetoLife(2.0),
     make("poly", 300.0, 2), make("geominc", 40.0)],
    ids=repr,
)
def test_generic_kernel_matches_oracle(captured, p, max_periods):
    for c in (0.05, 0.5, 2.0):
        t0s = c + np.geomspace(1e-3, 60.0, 25)
        generate_schedules_batch(p, c, t0s, max_periods=max_periods, use_closed_form=False)
    _check(captured)


# ----------------------------------------------------------------------
# Lane independence
# ----------------------------------------------------------------------


@pytest.mark.parametrize("family,d", [("uniform", 1), ("poly", 3), ("geomdec", 1), ("geominc", 1)])
def test_single_lane_call_matches_its_lane_in_a_wide_call(captured, family, d):
    lanes = _geomdec_lanes(5) if family == "geomdec" else _finite_lanes(family, 5)
    generate_schedules_hetero(family, *lanes, d=d)
    ((args, wide),) = captured
    for i in range(0, lanes[0].size, 7):
        one = run_lanes(*args[:2], *(a[i:i + 1] for a in args[2:6]), *args[6:])
        width = one[0].shape[1]
        assert one[0][0].tobytes() == wide[0][i, :width].tobytes()
        assert np.all(np.isnan(wide[0][i, width:]))
        for got, want in zip(one[1:], wide[1:]):
            assert got.dtype == want.dtype and got.tobytes() == want[i:i + 1].tobytes()
