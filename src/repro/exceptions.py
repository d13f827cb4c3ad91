"""Exception hierarchy for the cycle-stealing reproduction library.

All library-raised errors derive from :class:`CycleStealingError` so callers can
catch the library's failures without swallowing programming errors.
"""

from __future__ import annotations


class CycleStealingError(Exception):
    """Base class for all errors raised by :mod:`repro`."""


class InvalidScheduleError(CycleStealingError):
    """A schedule violates a structural requirement (e.g. non-positive period)."""


class InvalidLifeFunctionError(CycleStealingError):
    """A life function violates the model requirements of Section 2.1.

    Life functions must satisfy ``p(0) == 1``, be non-increasing, and tend to 0
    (at the lifespan bound L when one exists, or in the limit otherwise).
    """


class SupportError(CycleStealingError):
    """A time value lies outside the life function's support ``[0, L]``."""


class RecurrenceTerminated(CycleStealingError):
    """The Corollary 3.1 recurrence cannot be continued from the current state.

    Raised internally when the recurrence target falls outside the range of the
    life function (the schedule must end); public generators catch this and
    finalize the schedule instead of propagating.
    """


class NoOptimalScheduleError(CycleStealingError):
    """The life function admits no optimal schedule (Corollary 3.2 test failed)."""


class ConvergenceError(CycleStealingError):
    """A numerical routine (root find, NLP, fixed point) failed to converge."""


class BracketError(ConvergenceError):
    """A root-bracketing search could not locate a sign change."""


class SimulationError(CycleStealingError):
    """The discrete-event or Monte-Carlo simulator reached an invalid state."""


class WorkloadError(CycleStealingError):
    """A data-parallel workload specification is invalid or exhausted."""


class TraceError(CycleStealingError):
    """An owner-usage trace is malformed or insufficient for estimation."""


class SweepError(CycleStealingError):
    """A parameter-sweep worker failed; the message names the offending params.

    :func:`repro.analysis.sweeps.run_sweep` wraps worker exceptions in this
    type so a failure deep inside a process pool still reports *which*
    parameter point broke.  The original exception is chained as
    ``__cause__`` and its repr is embedded in the message (process pools
    cannot always pickle arbitrary causes across the IPC boundary).
    """

    def __init__(self, message: str, params: dict | None = None) -> None:
        super().__init__(message)
        self.params = params or {}

    def __reduce__(self):  # keep picklability across ProcessPoolExecutor
        return (type(self), (self.args[0], self.params))


class PlanCacheError(CycleStealingError):
    """The schedule plan cache hit an unrecoverable state.

    Recoverable problems (corrupt disk entries, unwritable cache dirs) are
    absorbed and counted in :class:`repro.core.plancache.CacheStats`; this is
    raised only for caller errors such as invalid cache configuration.
    """


class FaultPlanError(CycleStealingError):
    """A fault-injection plan is malformed (bad probabilities, duplicates)."""


class FaultInjectionError(CycleStealingError):
    """An injected fault fired (chaos testing).

    Raised by the serving-stack chaos hooks to simulate a tier outage; the
    resilience machinery (circuit breakers, fallback chains, degraded-mode
    policies) is expected to absorb it.  ``tier`` names the injected site.
    """

    def __init__(self, tier: str, message: str | None = None) -> None:
        super().__init__(message or f"injected fault in tier {tier!r}")
        self.tier = tier


class PlanServingError(CycleStealingError):
    """Every tier of the plan-serving fallback chain failed for a query."""


class ShardingError(CycleStealingError):
    """The sharded multi-worker serving tier hit an unrecoverable state."""


class ShardProtocolError(ShardingError):
    """A framed shard message is malformed (bad magic, length, or checksum).

    Raised on the *receiving* side of the worker pipe protocol when a frame
    fails validation — a truncated payload, a checksum mismatch, or bytes
    that were never a frame.  The connection that produced it can no longer
    be trusted mid-stream, so the dispatcher treats the worker as dead.
    """


class ShardWorkerError(ShardingError):
    """A shard worker died, timed out, or answered out of protocol.

    The front door's crash handling catches this: the worker is restarted
    within its retry budget and the affected lanes fall back to the
    in-process serving chain, so one dead shard never fails a batch.
    """

    def __init__(self, message: str, shard: int | None = None) -> None:
        super().__init__(message)
        self.shard = shard

    def __reduce__(self):  # keep picklability across the worker boundary
        return (type(self), (self.args[0], self.shard))


class FittingError(CycleStealingError):
    """Life-function fitting from trace data failed."""
