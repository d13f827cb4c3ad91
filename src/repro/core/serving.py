"""Resilient plan serving: a degradation-aware fallback chain with breakers.

The serving stack built so far answers "what schedule should workstation i
run?" through increasingly expensive sources: a precomputed guideline table
(:class:`~repro.analysis.tables_precompute.TableServer`), the warm plan cache
(:class:`~repro.core.plancache.PlanCache`), the full ``t_0`` optimizer, and —
when everything else is down — the paper's closed-form Section 4 brackets,
which need nothing but arithmetic.  :class:`PlanServer` formalizes that chain

    table  →  warm cache  →  optimizer  →  guideline closed-form

with per-tier *circuit breakers* (a tier that keeps erroring is skipped for a
cooldown, then probed half-open) and per-tier outcome and time counters
(:class:`TierStats`).

Two kinds of non-answers are deliberately distinct:

* a **miss** — the tier is healthy but cannot answer (cold cache, absent
  table, query outside table bounds).  Misses fall through to the next tier
  and do *not* trip the breaker.
* an **error** — the tier misbehaved (an injected
  :class:`~repro.exceptions.FaultInjectionError` from :class:`TierChaos`, an
  unexpected exception).  Errors fall through *and* count toward opening the
  tier's breaker.

The guideline tier is the designed last resort: Theorems 3.2/3.3 and the
Section 4 brackets pin ``t_0`` in closed form, so a valid (if suboptimal)
schedule survives a total outage of every data-backed tier.  Only when even
that fails does :meth:`PlanServer.serve` raise
:class:`~repro.exceptions.PlanServingError`.
"""

from __future__ import annotations

import math
import threading
import time
import zlib
from concurrent.futures import Future
from dataclasses import asdict, dataclass, replace
from typing import Any, Callable, Mapping, Optional, Sequence, Union

import numpy as np

from ..exceptions import (
    CycleStealingError,
    FaultInjectionError,
    PlanServingError,
)
from .life_functions import LifeFunction
from .optimizer import optimize_t0_via_recurrence
from .plancache import PlanCache, plan_key
from .recurrence import generate_schedule
from .schedule import Schedule
from .t0_bounds import (
    geometric_decreasing_bracket,
    geometric_increasing_window,
    lower_bound_t0,
    polynomial_bracket,
    uniform_bracket,
)

__all__ = [
    "BREAKER_CLOSED",
    "BREAKER_OPEN",
    "BREAKER_HALF_OPEN",
    "CircuitBreaker",
    "TierStats",
    "TierChaos",
    "ServedPlan",
    "PlanServer",
    "BatchingPlanServer",
]

#: Breaker state: requests flow normally.
BREAKER_CLOSED = "closed"
#: Breaker state: the tier is skipped until the cooldown elapses.
BREAKER_OPEN = "open"
#: Breaker state: cooldown elapsed; probe requests are let through.
BREAKER_HALF_OPEN = "half_open"


class _TierMiss(CycleStealingError):
    """Internal: a healthy tier could not answer (falls through, no breaker)."""


class CircuitBreaker:
    """A per-tier circuit breaker: open after K consecutive failures.

    States follow the classic pattern: ``closed`` (requests flow; K
    consecutive failures open the breaker), ``open`` (requests are rejected
    until ``cooldown`` seconds pass), ``half_open`` (one or more probe
    requests flow; a success closes the breaker, a failure re-opens it and
    restarts the cooldown).

    ``clock`` is injectable (defaults to :func:`time.monotonic`) so tests and
    the chaos harness can drive the cooldown deterministically.
    """

    def __init__(
        self,
        failure_threshold: int = 3,
        cooldown: float = 30.0,
        clock: Optional[Callable[[], float]] = None,
    ) -> None:
        if failure_threshold < 1:
            raise ValueError(
                f"failure_threshold must be >= 1, got {failure_threshold}"
            )
        if cooldown < 0:
            raise ValueError(f"cooldown must be >= 0, got {cooldown}")
        self.failure_threshold = int(failure_threshold)
        self.cooldown = float(cooldown)
        self._clock = clock if clock is not None else time.monotonic
        self._state = BREAKER_CLOSED
        self._consecutive_failures = 0
        self._opened_at = 0.0
        #: Lifetime counters: transitions into ``open`` / rejected requests.
        self.opens = 0
        self.rejections = 0

    @property
    def state(self) -> str:
        """Current state, accounting for an elapsed cooldown."""
        if self._state == BREAKER_OPEN and (
            self._clock() - self._opened_at >= self.cooldown
        ):
            self._state = BREAKER_HALF_OPEN
        return self._state

    @property
    def consecutive_failures(self) -> int:
        """Failures since the last success (resets on success)."""
        return self._consecutive_failures

    def allow(self) -> bool:
        """Whether a request may proceed; counts rejections when not."""
        if self.state == BREAKER_OPEN:
            self.rejections += 1
            return False
        return True

    def record_success(self) -> None:
        """A request succeeded: reset failures; a half-open probe closes."""
        self._consecutive_failures = 0
        self._state = BREAKER_CLOSED

    def record_failure(self) -> None:
        """A request failed: count it; at threshold (or half-open) open up."""
        self._consecutive_failures += 1
        if (
            self._state == BREAKER_HALF_OPEN
            or self._consecutive_failures >= self.failure_threshold
        ):
            if self._state != BREAKER_OPEN:
                self.opens += 1
            self._state = BREAKER_OPEN
            self._opened_at = self._clock()

    def as_dict(self) -> dict[str, Any]:
        """State + counters, JSON-ready."""
        return {
            "state": self.state,
            "consecutive_failures": self._consecutive_failures,
            "opens": self.opens,
            "rejections": self.rejections,
        }

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"CircuitBreaker(state={self.state!r}, opens={self.opens})"


@dataclass
class TierStats:
    """Per-tier serving counters, as :meth:`PlanServer._record` books them.

    ``hits`` — queries this tier answered; ``misses`` — healthy
    fall-throughs (cold cache, absent table); ``errors`` — the tier raised;
    ``rejected`` — requests an open breaker short-circuited; and the time
    spent on hits, misses and errors.
    """

    hits: int = 0
    misses: int = 0
    errors: int = 0  #: tier raised (injected fault or unexpected exception)
    rejected: int = 0  #: requests short-circuited by an open breaker
    hit_seconds: float = 0.0
    miss_seconds: float = 0.0
    error_seconds: float = 0.0  #: time spent inside failing tier calls

    def as_dict(self) -> dict[str, Any]:
        """All counters, JSON-ready."""
        return asdict(self)


class TierChaos:
    """Seeded fault injector for the serving chain (chaos testing).

    ``rates`` maps tier names to failure probabilities in ``[0, 1]``.  When
    :meth:`maybe_fail` fires it raises
    :class:`~repro.exceptions.FaultInjectionError` naming the tier, which
    :class:`PlanServer` counts as a tier *error* (breaker-tripping).  Every
    tier draws from its **own** seeded substream, so the k-th draw for a
    tier is the same number regardless of how draws for *other* tiers are
    interleaved — which makes a batched tier-by-tier pass
    (:meth:`PlanServer.serve_batch`) fail the exact same queries as the
    equivalent scalar :meth:`PlanServer.serve` loop.  A chaos run is
    reproducible from ``(seed, rates)`` alone.

    ``shard`` (optional) salts every tier substream with a shard index, so
    the N workers of a sharded serving tier (:mod:`repro.core.sharding`)
    each draw from their **own** per-tier streams: the k-th draw for
    ``(tier, shard)`` is the same number whether the shard's lanes are
    served in a worker process or serially in-process — the substream
    contract behind the cross-process chaos parity suite.  ``shard=None``
    (the default) reproduces the unsalted PR-5 streams exactly.
    """

    #: Stream tag keeping chaos draws disjoint from fault-plan streams.
    _STREAM = 977

    def __init__(
        self,
        rates: Mapping[str, float],
        seed: int = 0,
        shard: Optional[int] = None,
    ) -> None:
        for tier, rate in rates.items():
            if not 0.0 <= float(rate) <= 1.0:
                raise ValueError(
                    f"chaos rate for tier {tier!r} must be in [0, 1], got {rate}"
                )
        self.rates = {str(k): float(v) for k, v in rates.items()}
        self.seed = int(seed)
        self.shard = int(shard) if shard is not None else None
        self._rngs: dict[str, np.random.Generator] = {}
        self.injected: dict[str, int] = {}

    def _tier_rng(self, tier: str) -> np.random.Generator:
        rng = self._rngs.get(tier)
        if rng is None:
            entropy = [self.seed, self._STREAM, zlib.crc32(tier.encode())]
            if self.shard is not None:
                # The shard word precedes a nonzero tag: SeedSequence strips
                # trailing zero words, so a bare shard 0 would alias the
                # unsalted stream.
                entropy.extend([self.shard, self._STREAM + 1])
            rng = np.random.default_rng(entropy)
            self._rngs[tier] = rng
        return rng

    def maybe_fail(self, tier: str) -> None:
        """Raise an injected fault for ``tier`` with its configured rate."""
        rate = self.rates.get(tier, 0.0)
        if rate <= 0.0:
            return
        if self._tier_rng(tier).random() < rate:
            self.injected[tier] = self.injected.get(tier, 0) + 1
            raise FaultInjectionError(tier)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"TierChaos(rates={self.rates}, seed={self.seed})"


@dataclass(frozen=True)
class ServedPlan:
    """A schedule served by the chain, with provenance (which tier answered)."""

    family: str
    c: float
    param_value: float
    t0: float
    schedule: Schedule
    expected_work: float
    #: The answering tier: ``"table"``/``"cache"``/``"optimizer"``/``"guideline"``.
    source: str
    termination: str = ""

    @property
    def degraded(self) -> bool:
        """Whether the plan came from the closed-form last-resort tier."""
        return self.source == "guideline"


class PlanServer:
    """Serve schedules through the table → cache → optimizer → guideline chain.

    Parameters
    ----------
    table_server:
        A :class:`~repro.analysis.tables_precompute.TableServer` (or ``None``
        to disable the table tier).  Only its strict
        ``serve_from_table_batch(families, cs, param_values)`` method is used.
    cache:
        The warm :class:`~repro.core.plancache.PlanCache` probed by the cache
        tier (peek-only: a cold cache is a miss, never a recompute) and
        ridden by the optimizer tier (so optimizer answers re-warm it).
    breaker_threshold / breaker_cooldown / clock:
        Circuit-breaker configuration, shared by all tiers; ``clock`` is
        injectable for deterministic tests.
    chaos:
        An optional :class:`TierChaos` injecting per-tier faults — the chaos
        harness's entry point into the serving stack.

    A query that *no* tier can answer raises
    :class:`~repro.exceptions.PlanServingError`; per-tier outcomes accumulate
    in :attr:`tier_stats` and :attr:`breakers`.
    """

    #: Tier order: cheapest-first, most-robust-last.
    TIERS = ("table", "cache", "optimizer", "guideline")

    #: Defaults matching ``optimize_t0_via_recurrence`` so the cache tier
    #: peeks the same content-addressed key the optimizer writes.
    _SEARCH_GRID = 129
    _SEARCH_WIDEN = 1.5
    _SEARCH_ENGINE = "batch"

    def __init__(
        self,
        table_server: Optional[Any] = None,
        cache: Optional[PlanCache] = None,
        breaker_threshold: int = 3,
        breaker_cooldown: float = 30.0,
        clock: Optional[Callable[[], float]] = None,
        chaos: Optional[TierChaos] = None,
    ) -> None:
        self.table_server = table_server
        self.cache = cache
        self.chaos = chaos
        self.breakers: dict[str, CircuitBreaker] = {
            tier: CircuitBreaker(breaker_threshold, breaker_cooldown, clock)
            for tier in self.TIERS
        }
        self.tier_stats: dict[str, TierStats] = {
            tier: TierStats() for tier in self.TIERS
        }
        self.served = 0  #: queries answered by some tier
        self.exhausted = 0  #: queries for which every tier failed
        self.coalesced = 0  #: duplicate batch queries folded onto one serve

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------

    def serve(self, family: str, c: float, param_value: float) -> ServedPlan:
        """A valid schedule for family ``(c, θ)`` from the first able tier.

        Thin ``n = 1`` wrapper over the batched serving pass, so a scalar
        loop and :meth:`serve_batch` share one code path (and are therefore
        bit-identical on duplicate-free batches).
        """
        plans, errors = self._serve_batch_impl([family], [c], [param_value])
        if errors:
            raise errors[0]
        plan = plans[0]
        assert plan is not None
        return plan

    def serve_batch(
        self,
        families: Sequence[str],
        cs: Sequence[float],
        param_values: Sequence[float],
    ) -> list[ServedPlan]:
        """Serve a whole query batch through the tier chain, one pass per tier.

        Identical queries (same ``(family, c, θ)``) are coalesced onto one
        serve and fanned back out (the :attr:`coalesced` counter tracks the
        folds); distinct queries flow tier by tier — the table tier answers
        all its lanes in one vectorized
        :meth:`~repro.analysis.tables_precompute.TableServer.serve_from_table_batch`
        call, and surviving lanes fall through to the cache → optimizer →
        guideline tiers in input order with exactly the scalar
        breaker/chaos/stats bookkeeping.

        Raises :class:`~repro.exceptions.PlanServingError` if **any** query
        exhausted every tier (the per-lane errors are preserved on the
        raised error's ``__cause__`` chain; use
        :class:`BatchingPlanServer` for per-query error delivery).
        """
        plans, errors = self._serve_batch_impl(families, cs, param_values)
        if errors:
            first = min(errors)
            raise PlanServingError(
                f"{len(errors)} of {len(plans)} batched queries failed — invalid "
                f"or exhausted every serving tier (first failure at index {first})"
            ) from errors[first]
        return [plan for plan in plans if plan is not None]

    def _serve_batch_impl(
        self,
        families: Sequence[str],
        cs: Sequence[float],
        param_values: Sequence[float],
    ) -> tuple[list[Optional[ServedPlan]], dict[int, BaseException]]:
        """The batched tier chain; per-lane outcomes, nothing raised.

        Returns ``(plans, errors)`` where ``plans[i]`` is the served plan
        for query ``i`` (``None`` exactly when ``i in errors``) and
        ``errors[i]`` is the :class:`~repro.exceptions.PlanServingError` the
        scalar path would have raised for that query.
        """
        fams = [str(f) for f in families]
        n = len(fams)
        cs_list = [float(c) for c in cs]
        vs_list = [float(v) for v in param_values]
        if len(cs_list) != n or len(vs_list) != n:
            raise PlanServingError(
                f"serve_batch needs equally long families/cs/param_values, "
                f"got {n}/{len(cs_list)}/{len(vs_list)}"
            )
        if n == 0:
            return [], {}

        # Coalesce exact duplicates onto their first occurrence.
        rep_of: list[int] = []
        first_seen: dict[tuple[str, str, str], int] = {}
        for i in range(n):
            key = (fams[i], cs_list[i].hex(), vs_list[i].hex())
            rep_of.append(first_seen.setdefault(key, i))
        reps = [i for i in range(n) if rep_of[i] == i]

        # Invalid queries (unknown family, out-of-domain parameter) fail per
        # lane before any tier runs — exactly the exception the scalar path
        # raises, without poisoning the rest of the batch.
        ps: dict[int, LifeFunction] = {}
        invalid: dict[int, BaseException] = {}
        for i in reps:
            try:
                ps[i] = self._family_life(fams[i], vs_list[i])
            except Exception as exc:
                invalid[i] = exc

        plans: dict[int, ServedPlan] = {}
        last_error: dict[int, BaseException] = {}
        pending = [i for i in reps if i not in invalid]
        for tier in self.TIERS:
            if not pending:
                break
            pending = self._tier_pass(
                tier, pending, ps, fams, cs_list, vs_list, plans, last_error
            )

        errors: dict[int, BaseException] = dict(invalid)
        for i in pending:  # representatives that exhausted every tier
            errors[i] = PlanServingError(
                f"every serving tier failed for family={fams[i]!r} c={cs_list[i]} "
                f"param={vs_list[i]}"
            )
            errors[i].__cause__ = last_error.get(i)
            self.exhausted += 1
        self.served += len(plans)

        # Fan coalesced duplicates back out.  A duplicate that the scalar
        # loop would have served *after* its twin warmed the plan cache
        # reports source="cache"; other sources repeat verbatim.
        for i in range(n):
            r = rep_of[i]
            if r == i:
                continue
            self.coalesced += 1
            if r in errors:
                errors[i] = errors[r]
                if r not in invalid:  # validation failures aren't "exhausted"
                    self.exhausted += 1
                continue
            plan = plans[r]
            source = plan.source
            if (
                source == "optimizer"
                and self.cache is not None
                and PlanCache.fingerprint_of(ps[r]) is not None
            ):
                source = "cache"
            plans[i] = plan if source == plan.source else replace(plan, source=source)
            self.served += 1
        return [plans.get(i) for i in range(n)], errors

    def _tier_pass(
        self,
        tier: str,
        pending: list[int],
        ps: Mapping[int, LifeFunction],
        fams: list[str],
        cs: list[float],
        vs: list[float],
        plans: dict[int, ServedPlan],
        last_error: dict[int, BaseException],
    ) -> list[int]:
        """One tier over the pending lanes; returns the lanes it did not answer.

        Breaker admission and chaos run per lane in input order.  The table
        tier then answers all of its admitted lanes in one
        :meth:`_tier_table` call; every other tier takes one lane per call,
        so a breaker that trips mid-pass rejects exactly the lanes the scalar
        loop would have rejected.
        """
        breaker = self.breakers[tier]
        serve_one = None if tier == "table" else getattr(self, f"_tier_{tier}")
        survivors: list[int] = []
        admitted: list[int] = []
        for i in pending:
            if not breaker.allow():
                self.tier_stats[tier].rejected += 1
                survivors.append(i)
                continue
            start = time.perf_counter()
            try:
                if self.chaos is not None:
                    self.chaos.maybe_fail(tier)
                if serve_one is None:
                    admitted.append(i)
                    continue
                result: Any = serve_one(ps[i], fams[i], cs[i], vs[i])
            except Exception as exc:  # injected faults + genuine tier bugs
                result = exc
            if not self._record(tier, i, result, time.perf_counter() - start,
                                plans, last_error):
                survivors.append(i)
        if admitted:
            start = time.perf_counter()
            try:
                results: list[Any] = self._tier_table(admitted, fams, cs, vs)
            except Exception as exc:  # a broken table tier fails every lane
                results = [exc] * len(admitted)
            share = (time.perf_counter() - start) / len(admitted)
            for i, result in zip(admitted, results):
                if not self._record(tier, i, result, share, plans, last_error):
                    survivors.append(i)
            survivors.sort()
        return survivors

    def _record(
        self,
        tier: str,
        i: int,
        result: Any,
        seconds: float,
        plans: dict[int, ServedPlan],
        last_error: dict[int, BaseException],
    ) -> bool:
        """Book one lane's tier outcome; ``True`` when the tier answered it."""
        stats = self.tier_stats[tier]
        breaker = self.breakers[tier]
        if isinstance(result, ServedPlan):
            stats.hits += 1
            stats.hit_seconds += seconds
            breaker.record_success()
            plans[i] = result
            return True
        if isinstance(result, _TierMiss):
            stats.misses += 1
            stats.miss_seconds += seconds
            breaker.record_success()  # healthy response, just no answer
            return False
        stats.errors += 1
        stats.error_seconds += seconds
        breaker.record_failure()
        last_error[i] = result
        return False

    def stats_dict(self) -> dict[str, Any]:
        """Chain-wide counters + per-tier stats and breaker states, JSON-ready."""
        return {
            "served": self.served,
            "exhausted": self.exhausted,
            "coalesced": self.coalesced,
            "tiers": {t: self.tier_stats[t].as_dict() for t in self.TIERS},
            "breakers": {t: self.breakers[t].as_dict() for t in self.TIERS},
        }

    def reset_breakers(self) -> None:
        """Force every breaker back to ``closed`` (recovery drills)."""
        for tier, breaker in self.breakers.items():
            self.breakers[tier] = CircuitBreaker(
                breaker.failure_threshold, breaker.cooldown, breaker._clock
            )

    # ------------------------------------------------------------------
    # Tiers
    # ------------------------------------------------------------------

    def _tier_table(
        self, lanes: list[int], fams: list[str], cs: list[float], vs: list[float]
    ) -> list[Union[ServedPlan, _TierMiss]]:
        """Interpolate + polish every lane from the precomputed guideline tables.

        A lane the table cannot answer (absent table, out-of-bounds query,
        NaN cell) comes back as a miss: the tier is healthy, so it falls
        through without tripping the breaker.
        """
        if self.table_server is None:
            raise _TierMiss("no table server configured")
        results = self.table_server.serve_from_table_batch(
            [fams[i] for i in lanes], [cs[i] for i in lanes], [vs[i] for i in lanes]
        )
        return [r if isinstance(r, ServedPlan) else _TierMiss(str(r)) for r in results]

    def _tier_cache(
        self, p: LifeFunction, family: str, c: float, param_value: float
    ) -> ServedPlan:
        """Peek the warm plan cache at the optimizer's content address."""
        if self.cache is None:
            raise _TierMiss("no plan cache configured")
        fingerprint = PlanCache.fingerprint_of(p)
        if fingerprint is None:
            raise _TierMiss("life function is not content-addressable")
        key = plan_key(
            "t0opt", fingerprint, c,
            bracket=None, grid=self._SEARCH_GRID,
            widen=self._SEARCH_WIDEN, engine=self._SEARCH_ENGINE,
        )
        from .. import io as _io  # deferred: repro.io imports core modules

        cached = self.cache.peek(key, from_payload=_io.t0_search_from_dict)
        if cached is None:
            raise _TierMiss("plan cache is cold for this query")
        t0, outcome, ew = cached
        return ServedPlan(
            family=family, c=c, param_value=param_value, t0=t0,
            schedule=outcome.schedule, expected_work=ew,
            source="cache", termination=outcome.termination.value,
        )

    def _tier_optimizer(
        self, p: LifeFunction, family: str, c: float, param_value: float
    ) -> ServedPlan:
        """Run the full ``t_0`` search (re-warming the cache when present)."""
        try:
            t0, outcome, ew = optimize_t0_via_recurrence(
                p, c,
                grid=self._SEARCH_GRID, widen=self._SEARCH_WIDEN,
                engine=self._SEARCH_ENGINE, cache=self.cache,
            )
        except CycleStealingError as exc:
            raise _TierMiss(str(exc)) from exc
        return ServedPlan(
            family=family, c=c, param_value=param_value, t0=t0,
            schedule=outcome.schedule, expected_work=ew,
            source="optimizer", termination=outcome.termination.value,
        )

    def _tier_guideline(
        self, p: LifeFunction, family: str, c: float, param_value: float
    ) -> ServedPlan:
        """Closed-form Section 4 bracket → recurrence; Theorem 3.2 last resort.

        Needs no tables, no cache, no search — only arithmetic on ``(c, θ)``
        plus (in the happy path) one deterministic recurrence walk, so it
        stays serviceable through a total outage of the data-backed tiers.
        """
        t0 = self._closed_form_t0(family, c, param_value)
        schedule: Optional[Schedule] = None
        termination = ""
        if t0 is not None:
            t0 = self._clamp_t0(p, c, t0)
        if t0 is not None:
            try:
                outcome = generate_schedule(p, c, t0)
            except CycleStealingError:
                schedule = Schedule([t0])  # single conservative period
            else:
                schedule = outcome.schedule
                termination = outcome.termination.value
        if schedule is None:
            # No closed form for this family (or degenerate bracket): the
            # Theorem 3.2 bound still yields one productive period — unless
            # the overhead leaves none, which is a miss, not a tier fault.
            try:
                t0 = self._clamp_t0(p, c, lower_bound_t0(p, c))
            except CycleStealingError:
                t0 = None
            if t0 is None:
                raise _TierMiss(
                    f"no productive closed-form period exists for c={c} "
                    f"(overhead at or above the usable lifespan)"
                )
            schedule = Schedule([t0])
        ew = schedule.expected_work(p, c)
        return ServedPlan(
            family=family, c=c, param_value=param_value, t0=float(t0),
            schedule=schedule, expected_work=ew,
            source="guideline", termination=termination,
        )

    # ------------------------------------------------------------------
    # Helpers
    # ------------------------------------------------------------------

    @staticmethod
    def _family_life(family: str, param_value: float) -> LifeFunction:
        from ..analysis.tables_precompute import (  # deferred: analysis imports core
            TABLE_FAMILIES,
            make_family_life,
        )

        fixed = TABLE_FAMILIES.get(family, (None, {}))[1]
        return make_family_life(family, param_value, fixed)

    @staticmethod
    def _closed_form_t0(family: str, c: float, param_value: float) -> Optional[float]:
        """The Section 4 closed-form guideline ``t_0`` for one family.

        Finite-lifespan families use the bracket's lower bound (conservative:
        shorter periods risk less work per owner return); the
        geometric-decreasing family uses the Lemma 3.1 ceiling, which
        Section 4.2 shows is remarkably close to the true optimum.
        """
        try:
            if family == "uniform":
                return uniform_bracket(param_value, c).lo
            if family == "poly":
                from ..analysis.tables_precompute import TABLE_FAMILIES  # deferred

                d = int(TABLE_FAMILIES["poly"][1]["d"])
                return polynomial_bracket(d, param_value, c).lo
            if family == "geomdec":
                return geometric_decreasing_bracket(param_value, c).hi
            if family == "geominc":
                return geometric_increasing_window(param_value, c).lo
        except ValueError:
            return None
        return None

    @staticmethod
    def _clamp_t0(p: LifeFunction, c: float, t0: float) -> Optional[float]:
        """Clamp a guideline ``t0`` into the productive band ``(c, L)``."""
        if not math.isfinite(t0):
            return None
        if math.isfinite(p.lifespan):
            t0 = min(t0, p.lifespan * (1 - 1e-12))
        if t0 <= c:
            t0 = c * (1 + 1e-9) + 1e-12
            if math.isfinite(p.lifespan) and t0 >= p.lifespan:
                return None
        return t0


class _Flight:
    """One distinct in-flight query plus every future waiting on it."""

    __slots__ = ("family", "c", "param_value", "futures")

    def __init__(self, family: str, c: float, param_value: float) -> None:
        self.family = family
        self.c = c
        self.param_value = param_value
        self.futures: list[Future] = []


class BatchingPlanServer:
    """A micro-batching front door for :class:`PlanServer`.

    Concurrent callers :meth:`submit` single queries; the server coalesces
    exact duplicates in flight (singleflight, keyed on the life function's
    ``fingerprint()``-based cache key — N identical concurrent requests cost
    one serve) and accumulates *distinct* queries until either ``max_batch``
    of them are waiting or the oldest has waited ``max_delay_ms``
    milliseconds, then serves the whole batch through
    :meth:`PlanServer.serve_batch`'s vectorized tier passes.

    The flush deadline is measured on a **monotonic** clock (never wall
    time, which steps under NTP) — injectable for tests.  Failures are
    delivered per future: a query that exhausted every tier gets its own
    :class:`~repro.exceptions.PlanServingError`; the rest of the batch still
    resolves.

    Use as a context manager (or call :meth:`close`) so the background
    flusher thread is joined deterministically.
    """

    def __init__(
        self,
        server: PlanServer,
        max_batch: int = 256,
        max_delay_ms: float = 2.0,
        clock: Optional[Callable[[], float]] = None,
    ) -> None:
        if isinstance(max_batch, bool) or not isinstance(max_batch, int):
            raise ValueError(f"max_batch must be an int >= 1, got {max_batch!r}")
        if max_batch < 1:
            raise ValueError(f"max_batch must be >= 1, got {max_batch}")
        delay = float(max_delay_ms)
        if not math.isfinite(delay) or delay < 0:
            raise ValueError(f"max_delay_ms must be finite and >= 0, got {max_delay_ms}")
        self.server = server
        self.max_batch = int(max_batch)
        self.max_delay_ms = delay
        self._clock = clock if clock is not None else time.monotonic
        self._cond = threading.Condition()
        self._flights: "dict[object, _Flight]" = {}
        self._oldest_at: Optional[float] = None
        self._closed = False
        self._thread: Optional[threading.Thread] = None
        self.submitted = 0  #: queries accepted
        self.coalesced = 0  #: queries folded onto an identical in-flight one
        self.batches = 0  #: flushes dispatched

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------

    def submit(self, family: str, c: float, param_value: float) -> Future:
        """Enqueue one query; the future resolves to a :class:`ServedPlan`."""
        fut: Future = Future()
        key = self._flight_key(family, c, param_value)
        with self._cond:
            if self._closed:
                raise PlanServingError("cannot submit to a closed BatchingPlanServer")
            flight = self._flights.get(key) if key is not None else None
            if flight is None:
                flight = _Flight(str(family), float(c), float(param_value))
                self._flights[key if key is not None else object()] = flight
                if self._oldest_at is None:
                    self._oldest_at = self._clock()
            else:
                self.coalesced += 1
            flight.futures.append(fut)
            self.submitted += 1
            self._ensure_flusher()
            self._cond.notify_all()
        return fut

    def serve(self, family: str, c: float, param_value: float) -> ServedPlan:
        """Blocking convenience wrapper: :meth:`submit` + ``result()``."""
        return self.submit(family, c, param_value).result()

    def flush(self) -> int:
        """Serve everything queued right now (caller's thread); count flushed."""
        with self._cond:
            batch = self._take_batch()
        return self._dispatch(batch)

    def close(self) -> None:
        """Flush the queue, stop the flusher thread, reject new submissions."""
        with self._cond:
            self._closed = True
            self._cond.notify_all()
            thread = self._thread
        if thread is not None:
            thread.join()
        self.flush()  # anything racing in before the close flag

    def __enter__(self) -> "BatchingPlanServer":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()

    def stats_dict(self) -> dict[str, Any]:
        """Front-door counters, JSON-ready."""
        with self._cond:
            queued = len(self._flights)
        return {
            "submitted": self.submitted,
            "coalesced": self.coalesced,
            "batches": self.batches,
            "queued": queued,
            "max_batch": self.max_batch,
            "max_delay_ms": self.max_delay_ms,
        }

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------

    def _flight_key(self, family: str, c: float, param_value: float) -> Optional[str]:
        """The singleflight identity: the plan cache's content address."""
        try:
            p = self.server._family_life(str(family), float(param_value))
        except Exception:
            return None  # invalid query: served un-coalesced, fails per future
        fingerprint = PlanCache.fingerprint_of(p)
        if fingerprint is None:
            return None
        return plan_key("serve", fingerprint, float(c))

    def _ensure_flusher(self) -> None:
        # Called under the lock.
        if self._thread is None or not self._thread.is_alive():
            self._thread = threading.Thread(
                target=self._flusher, name="repro-batching-plan-server", daemon=True
            )
            self._thread.start()

    def _take_batch(self) -> list[_Flight]:
        # Called under the lock.
        batch = list(self._flights.values())
        self._flights.clear()
        self._oldest_at = None
        return batch

    def _deadline_remaining(self) -> Optional[float]:
        # Called under the lock; None when nothing is queued.
        if self._oldest_at is None:
            return None
        return self.max_delay_ms / 1000.0 - (self._clock() - self._oldest_at)

    def _flusher(self) -> None:
        while True:
            with self._cond:
                while True:
                    if self._closed:
                        batch = self._take_batch()
                        break
                    if len(self._flights) >= self.max_batch:
                        batch = self._take_batch()
                        break
                    remaining = self._deadline_remaining()
                    if remaining is not None and remaining <= 0:
                        batch = self._take_batch()
                        break
                    # An injected test clock can advance independently of
                    # wall time; cap the sleep so deadlines are re-checked.
                    if remaining is None:
                        timeout = None
                    elif self._clock is time.monotonic:
                        timeout = max(remaining, 0.0)
                    else:
                        timeout = max(min(remaining, 0.05), 0.0)
                    self._cond.wait(timeout=timeout)
                closed = self._closed
            self._dispatch(batch)
            if closed:
                return

    def _dispatch(self, batch: list[_Flight]) -> int:
        if not batch:
            return 0
        self.batches += 1
        families = [fl.family for fl in batch]
        cs = [fl.c for fl in batch]
        vs = [fl.param_value for fl in batch]
        try:
            plans, errors = self.server._serve_batch_impl(families, cs, vs)
        except Exception as exc:  # batch-level validation (unknown family, ...)
            for flight in batch:
                for fut in flight.futures:
                    fut.set_exception(exc)
            return len(batch)
        for i, flight in enumerate(batch):
            for fut in flight.futures:
                if i in errors:
                    fut.set_exception(errors[i])
                else:
                    fut.set_result(plans[i])
        return len(batch)
