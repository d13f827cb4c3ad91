"""Sharded multi-worker plan serving: horizontal scale-out of the tier chain.

The batched serving stack (:class:`~repro.core.serving.PlanServer` and its
micro-batching front door) is capped by one interpreter.  This module scales
it *out*: a front door that routes every query to one of ``N`` shard worker
**processes** by hashing the query's LifeFunction
:meth:`~repro.core.life_functions.LifeFunction.fingerprint`, with a
shared-nothing design — each worker loads its own
:class:`~repro.analysis.tables_precompute.GuidelineTable` copies from one
table directory, and owns its own :class:`~repro.core.plancache.PlanCache`
and :class:`~repro.core.serving.PlanServer` fallback chain.

Routing invariants (the bit-parity contract):

* **Deterministic and cross-process stable.**  :func:`shard_of` hashes the
  fingerprint through SHA-256 — never Python's salted ``hash()`` — so
  ``fingerprint → shard`` is identical in every process and under any
  ``PYTHONHASHSEED``.
* **Duplicates colocate.**  Identical queries share a fingerprint, hence a
  shard, so :meth:`PlanServer.serve_batch`'s duplicate coalescing (and its
  optimizer→cache source rewrite) behaves exactly as in a single process.
* **Cache keys colocate.**  Plan-cache keys are fingerprint-addressed, so a
  shard's private cache sees precisely the lookup sequence the
  single-process cache would have seen for those keys — cross-batch cache
  warmth evolves identically, keeping a whole *stream* of batches
  bit-identical to the single-process path.
* **Chaos substreams are per shard.**  A :class:`TierChaos` salted with the
  shard index (``TierChaos(rates, seed, shard=s)``) draws the same sequence
  for shard ``s``'s lanes whether they run in a worker process or serially
  in-process (``inprocess=True``), which is what the cross-process chaos
  parity suite asserts.

Transport is a ``multiprocessing`` pipe per worker carrying
**length-prefixed framed payloads**: each message is pickled and wrapped in
a fixed header (magic, version, body length, CRC-32) — see
:func:`encode_frame` / :func:`decode_frame` — so a truncated or corrupted
frame is detected on receipt instead of desynchronizing the stream.

Crash handling reuses the PR-4 resilience machinery: one
:class:`~repro.core.serving.CircuitBreaker` per shard, a bounded restart
budget, and an **in-process fallback chain** (a parent-side
:class:`PlanServer` over the same table directory) that serves a dead shard's
lanes, so a worker crash degrades throughput monotonically instead of
failing the batch.
"""

from __future__ import annotations

import builtins
import hashlib
import multiprocessing
import os
import pickle
import struct
import threading
import zlib
from dataclasses import dataclass, replace
from typing import Any, Callable, Mapping, Optional, Sequence

from .. import exceptions as _exceptions
from ..exceptions import (
    PlanServingError,
    ShardProtocolError,
    ShardWorkerError,
    ShardingError,
)
from .plancache import PlanCache
from .serving import CircuitBreaker, PlanServer, ServedPlan, TierChaos

__all__ = [
    "FRAME_MAGIC",
    "FRAME_VERSION",
    "encode_frame",
    "decode_frame",
    "send_frame",
    "recv_frame",
    "shard_of",
    "query_fingerprint",
    "shard_of_query",
    "split_batch",
    "ShardConfig",
    "build_shard_server",
    "ShardWorker",
    "ShardedPlanServer",
]


# ----------------------------------------------------------------------
# Shard routing (pure functions — the property-tested surface)
# ----------------------------------------------------------------------


def shard_of(fingerprint: str, n_shards: int) -> int:
    """The shard owning ``fingerprint``, in ``[0, n_shards)``.

    SHA-256 of the fingerprint text, top 8 bytes, mod ``n_shards`` — fully
    deterministic, identical across processes/platforms, and independent of
    ``PYTHONHASHSEED`` (unlike the builtin ``hash()``, which is salted per
    interpreter and would scatter the same query to different shards in
    different processes).
    """
    if n_shards < 1:
        raise ShardingError(f"n_shards must be >= 1, got {n_shards}")
    digest = hashlib.sha256(str(fingerprint).encode()).digest()
    return int.from_bytes(digest[:8], "big") % int(n_shards)


#: Bounded memo of query fingerprints: building a life function per lane per
#: batch just to route it would dominate small-batch dispatch.
_FINGERPRINT_MEMO_MAX = 4096
_fingerprint_memo: dict[tuple[str, str], str] = {}


def query_fingerprint(family: str, param_value: float) -> str:
    """The routing identity of a ``(family, θ)`` query.

    The life function's content address when the query is valid; a
    canonical ``invalid:`` key otherwise, so malformed queries still route
    deterministically (and fail per lane inside their shard, exactly as the
    single-process path fails them).  The overhead ``c`` is deliberately
    absent: the fingerprint addresses the life function, so all overheads of
    one workload family colocate with its cache entries.
    """
    key = (str(family), float(param_value).hex())
    memo = _fingerprint_memo.get(key)
    if memo is not None:
        return memo
    try:
        p = PlanServer._family_life(key[0], float(param_value))
        fingerprint = p.fingerprint()
    except Exception:
        fingerprint = f"invalid:{key[0]}|{key[1]}"
    if len(_fingerprint_memo) >= _FINGERPRINT_MEMO_MAX:
        _fingerprint_memo.clear()
    _fingerprint_memo[key] = fingerprint
    return fingerprint


def shard_of_query(family: str, param_value: float, n_shards: int) -> int:
    """Route one query: :func:`shard_of` over :func:`query_fingerprint`."""
    return shard_of(query_fingerprint(family, param_value), n_shards)


def split_batch(
    families: Sequence[str],
    param_values: Sequence[float],
    n_shards: int,
) -> list[list[int]]:
    """Partition batch lanes by shard, preserving input order within each.

    Returns ``n_shards`` lists of lane indices.  Relative order within a
    shard equals input order, which is what keeps per-shard serving (tier
    passes, chaos draws, duplicate coalescing) aligned with the
    single-process pass over the same lanes.
    """
    if len(families) != len(param_values):
        raise ShardingError(
            f"split_batch needs equally long families/param_values, got "
            f"{len(families)}/{len(param_values)}"
        )
    lanes: list[list[int]] = [[] for _ in range(int(n_shards))]
    for i, (family, value) in enumerate(zip(families, param_values)):
        lanes[shard_of_query(family, value, n_shards)].append(i)
    return lanes


# ----------------------------------------------------------------------
# Framed wire protocol
# ----------------------------------------------------------------------

#: Frame magic: marks the start of every shard protocol payload.
FRAME_MAGIC = b"RSHD"
#: Bump on incompatible changes to the header or payload pickling.
FRAME_VERSION = 1

_HEADER = struct.Struct(">4sBII")  # magic, version, body length, CRC-32


def encode_frame(obj: Any) -> bytes:
    """Frame one message: header (magic, version, length, CRC-32) + pickle."""
    body = pickle.dumps(obj, protocol=pickle.HIGHEST_PROTOCOL)
    return _HEADER.pack(FRAME_MAGIC, FRAME_VERSION, len(body), zlib.crc32(body)) + body


def decode_frame(data: bytes) -> Any:
    """Validate and unpickle one frame; :class:`ShardProtocolError` if bad."""
    if len(data) < _HEADER.size:
        raise ShardProtocolError(
            f"frame shorter than its {_HEADER.size}-byte header ({len(data)} bytes)"
        )
    magic, version, length, crc = _HEADER.unpack_from(data)
    if magic != FRAME_MAGIC:
        raise ShardProtocolError(f"bad frame magic {magic!r}")
    if version != FRAME_VERSION:
        raise ShardProtocolError(
            f"unsupported frame version {version} (speaking {FRAME_VERSION})"
        )
    body = data[_HEADER.size:]
    if len(body) != length:
        raise ShardProtocolError(
            f"frame length mismatch: header says {length}, got {len(body)} bytes"
        )
    if zlib.crc32(body) != crc:
        raise ShardProtocolError("frame checksum mismatch (corrupt payload)")
    return pickle.loads(body)


def send_frame(conn: Any, obj: Any) -> None:
    """Write one framed message to a :mod:`multiprocessing` connection."""
    conn.send_bytes(encode_frame(obj))


def recv_frame(conn: Any, timeout: Optional[float] = None) -> Any:
    """Read one framed message; ``timeout`` bounds the wait (None = block)."""
    if timeout is not None and not conn.poll(timeout):
        raise ShardWorkerError(f"no frame within {timeout:g}s")
    return decode_frame(conn.recv_bytes())


# ----------------------------------------------------------------------
# Per-lane error transport
# ----------------------------------------------------------------------


def _serialize_error(exc: BaseException) -> dict[str, Any]:
    """A picklable, cause-preserving wire form of one per-lane error."""
    return {
        "type": type(exc).__name__,
        "message": str(exc),
        "cause": str(exc.__cause__) if exc.__cause__ is not None else None,
    }


def _rebuild_error(spec: Mapping[str, Any]) -> BaseException:
    """Reconstruct a per-lane error from its wire form.

    The original class is recovered by name from :mod:`repro.exceptions` (or
    builtins, for e.g. ``ValueError`` raised by family constructors); anything
    unrecognized degrades to :class:`PlanServingError` with the original
    message.  Both the in-process and multiprocess execution modes normalize
    errors through this round trip, so per-lane error delivery is identical
    regardless of transport.
    """
    name = str(spec.get("type", "PlanServingError"))
    cls = getattr(_exceptions, name, None)
    if cls is None:
        cls = getattr(builtins, name, None)
    if not (isinstance(cls, type) and issubclass(cls, Exception)):
        cls = PlanServingError
    try:
        err: BaseException = cls(str(spec.get("message", "")))
    except Exception:
        err = PlanServingError(str(spec.get("message", "")))
    cause = spec.get("cause")
    if cause:
        err.__cause__ = PlanServingError(str(cause))
    return err


def _normalize_error(exc: BaseException) -> BaseException:
    """One error-delivery format for every transport (wire round trip)."""
    return _rebuild_error(_serialize_error(exc))


# ----------------------------------------------------------------------
# Worker-side serving stack
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class ShardConfig:
    """Everything a shard worker needs to build its serving stack (picklable)."""

    shard: int
    n_shards: int
    #: Directory holding the precomputed guideline tables, loaded by every
    #: worker.  ``None`` disables the table tier; the chain still serves via
    #: cache/optimizer/guideline.
    table_dir: Optional[str] = None
    #: Per-tier chaos rates; the worker salts its streams with ``shard``.
    chaos_rates: Optional[dict[str, float]] = None
    chaos_seed: int = 0


def build_shard_server(config: ShardConfig) -> PlanServer:
    """One shard's shared-nothing serving stack.

    A memory-only :class:`PlanCache` (never the disk tier — shards must not
    couple through the filesystem), the table server over the shared table
    directory, and a per-shard-salted :class:`TierChaos` when chaos is
    configured.  The single-process parity reference builds the *same* stack
    (minus the shard salt) so the comparison is apples to apples.
    """
    cache = PlanCache()
    table_server = None
    if config.table_dir is not None:
        from ..analysis.tables_precompute import TableServer  # deferred: analysis imports core

        table_server = TableServer(cache_dir=config.table_dir)
    chaos = None
    if config.chaos_rates:
        chaos = TierChaos(config.chaos_rates, seed=config.chaos_seed, shard=config.shard)
    return PlanServer(table_server=table_server, cache=cache, chaos=chaos)


def _worker_main(conn: Any, config: ShardConfig) -> None:
    """Shard worker loop: read framed requests, serve, reply framed results.

    Runs until the pipe closes, a ``shutdown`` frame arrives, or a ``crash``
    frame (the chaos suite's deterministic kill switch) calls ``os._exit``.
    A request that raises is answered with a ``failure`` frame — the worker
    never dies on a bad batch.
    """
    server = build_shard_server(config)
    batches = 0
    while True:
        try:
            msg = recv_frame(conn)
        except (EOFError, OSError, ShardProtocolError, ShardWorkerError):
            break  # parent went away or the stream is unrecoverable
        op = msg.get("op") if isinstance(msg, dict) else None
        reply_id = msg.get("id") if isinstance(msg, dict) else None
        try:
            if op == "shutdown":
                send_frame(conn, {"op": "bye", "id": reply_id, "shard": config.shard})
                break
            if op == "ping":
                send_frame(
                    conn,
                    {"op": "pong", "id": reply_id, "shard": config.shard,
                     "pid": os.getpid()},
                )
                continue
            if op == "crash":
                os._exit(13)  # deterministic mid-run death for the chaos suite
            if op == "stats":
                stats = server.stats_dict()
                stats.update(shard=config.shard, pid=os.getpid(), batches=batches)
                send_frame(conn, {"op": "stats", "id": reply_id, "stats": stats})
                continue
            if op == "serve":
                try:
                    plans, errors = server._serve_batch_impl(
                        msg["families"], msg["cs"], msg["param_values"]
                    )
                    reply: dict[str, Any] = {
                        "op": "result", "id": reply_id, "plans": plans,
                        "errors": {int(i): _serialize_error(e)
                                   for i, e in errors.items()},
                    }
                except Exception as exc:  # batch-level failure: report, survive
                    reply = {"op": "failure", "id": reply_id,
                             "error": _serialize_error(exc)}
                batches += 1
                send_frame(conn, reply)
                continue
            send_frame(
                conn,
                {"op": "failure", "id": reply_id,
                 "error": {"type": "ShardProtocolError",
                           "message": f"unknown op {op!r}", "cause": None}},
            )
        except (BrokenPipeError, OSError):
            break


# ----------------------------------------------------------------------
# Parent-side worker handle
# ----------------------------------------------------------------------


class ShardWorker:
    """Parent-side handle for one shard process: pipe, lifecycle, requests."""

    def __init__(self, config: ShardConfig, ctx: Any = None) -> None:
        self.config = config
        self._ctx = ctx if ctx is not None else multiprocessing.get_context()
        self._next_id = 0
        self.process: Optional[Any] = None
        self._conn: Optional[Any] = None
        self.spawn()

    # -- lifecycle ------------------------------------------------------

    def spawn(self) -> None:
        """Start (or re-start) the worker process over a fresh pipe."""
        self.discard()
        parent_conn, child_conn = self._ctx.Pipe(duplex=True)
        self.process = self._ctx.Process(
            target=_worker_main,
            args=(child_conn, self.config),
            name=f"repro-shard-{self.config.shard}",
            daemon=True,
        )
        self.process.start()
        child_conn.close()  # the parent's copy; the worker holds its own
        self._conn = parent_conn

    @property
    def alive(self) -> bool:
        return self.process is not None and self.process.is_alive()

    def kill(self) -> None:
        """SIGKILL the worker (chaos tests); the handle stays restartable."""
        if self.process is not None:
            self.process.kill()
            self.process.join(timeout=5.0)

    def discard(self) -> None:
        """Drop the current process/pipe without the shutdown handshake."""
        if self._conn is not None:
            try:
                self._conn.close()
            except OSError:
                pass
            self._conn = None
        if self.process is not None:
            if self.process.is_alive():
                self.process.terminate()
            self.process.join(timeout=5.0)
            self.process = None

    def close(self, grace: float = 2.0) -> None:
        """Polite shutdown: ask, wait ``grace`` seconds, then terminate."""
        if self.process is not None and self.process.is_alive():
            try:
                self.send({"op": "shutdown"})
                self.process.join(timeout=grace)
            except ShardWorkerError:
                pass
        self.discard()

    # -- requests -------------------------------------------------------

    def _take_id(self) -> int:
        self._next_id += 1
        return self._next_id

    def send(self, msg: dict[str, Any]) -> int:
        """Write one framed request; returns its id for :meth:`receive`.

        Raises :class:`ShardWorkerError` when there is no live worker or the
        pipe write fails.
        """
        shard = self.config.shard
        if self._conn is None or self.process is None:
            raise ShardWorkerError(f"shard {shard} has no live worker", shard)
        msg_id = self._take_id()
        try:
            send_frame(self._conn, {**msg, "id": msg_id})
        except (OSError, ValueError) as exc:
            raise ShardWorkerError(
                f"shard {shard} pipe write failed: {exc}", shard
            ) from exc
        return msg_id

    def receive(self, msg_id: int, timeout: Optional[float]) -> dict[str, Any]:
        """Read the reply to request ``msg_id``; :class:`ShardWorkerError` on
        a timeout, a dead pipe, a bad frame, an out-of-sequence reply, or a
        ``failure`` reply (chained to the worker's error)."""
        shard = self.config.shard
        if self._conn is None:
            raise ShardWorkerError(f"shard {shard} has no live worker", shard)
        try:
            reply = recv_frame(self._conn, timeout=timeout)
        except ShardWorkerError as exc:
            raise ShardWorkerError(
                f"shard {shard} timed out after {timeout:g}s", shard
            ) from exc
        except (EOFError, OSError) as exc:
            raise ShardWorkerError(
                f"shard {shard} died (pipe closed mid-request)", shard
            ) from exc
        except ShardProtocolError as exc:
            raise ShardWorkerError(
                f"shard {shard} protocol violation: {exc}", shard
            ) from exc
        if not isinstance(reply, dict) or reply.get("id") != msg_id:
            raise ShardWorkerError(
                f"shard {shard} answered out of sequence", shard
            )
        if reply.get("op") == "failure":
            cause = _rebuild_error(reply.get("error", {}))
            raise ShardWorkerError(
                f"shard {shard} request failed: {cause}", shard
            ) from cause
        return reply

    def request(self, msg: dict[str, Any], timeout: Optional[float]) -> dict[str, Any]:
        """One framed round trip: :meth:`send`, then :meth:`receive`."""
        return self.receive(self.send(msg), timeout)

    def ping(self, timeout: Optional[float] = 30.0) -> dict[str, Any]:
        """Liveness handshake; returns the worker's ``pong`` frame."""
        return self.request({"op": "ping"}, timeout=timeout)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        state = "alive" if self.alive else "dead"
        return f"ShardWorker(shard={self.config.shard}, {state})"


# ----------------------------------------------------------------------
# The front door
# ----------------------------------------------------------------------


class ShardedPlanServer:
    """Serve query batches across ``workers`` shard processes.

    Parameters
    ----------
    workers:
        Number of shards.  Each owns a worker process (or, with
        ``inprocess=True``, a worker-equivalent in-process serving stack —
        the differential reference for the cross-process parity suite).
    table_dir:
        Directory of precomputed guideline tables, loaded by every shard
        (and by the parent's fallback chain).  ``None`` serves without
        the table tier.
    chaos_rates / chaos_seed:
        Optional per-tier fault rates; each shard draws from its own
        ``(seed, tier, shard)`` substream (see :class:`TierChaos`).
    request_timeout:
        Per-request bound on waiting for a worker reply.  A timeout counts
        as a worker failure: breaker, restart budget, then fallback — no
        hung batches.
    max_restarts:
        Total restarts allowed per shard before its lanes degrade
        permanently to the fallback chain.
    breaker_threshold / breaker_cooldown / clock:
        Per-shard circuit breaker configuration (PR-4 machinery; ``clock``
        injectable for deterministic tests).
    mp_method:
        ``multiprocessing`` start method (``None`` = platform default).
    inprocess:
        Serve every shard serially in this process instead of spawning
        workers.  Same sharded decomposition, same per-shard stacks and
        chaos substreams, no IPC — the multiprocess path must match it bit
        for bit.

    Failures inside a worker request (death, timeout, protocol violation)
    never fail the batch: the shard's lanes are re-served by the parent's
    in-process fallback chain and the event is visible in
    :meth:`stats_dict` (``restarts``, ``fallback_lanes``, breaker states).
    """

    def __init__(
        self,
        workers: int,
        table_dir: Optional[str] = None,
        chaos_rates: Optional[Mapping[str, float]] = None,
        chaos_seed: int = 0,
        request_timeout: float = 60.0,
        max_restarts: int = 2,
        breaker_threshold: int = 2,
        breaker_cooldown: float = 5.0,
        clock: Optional[Callable[[], float]] = None,
        mp_method: Optional[str] = None,
        inprocess: bool = False,
    ) -> None:
        if workers < 1:
            raise ShardingError(f"workers must be >= 1, got {workers}")
        if request_timeout <= 0:
            raise ShardingError(
                f"request_timeout must be > 0, got {request_timeout}"
            )
        if max_restarts < 0:
            raise ShardingError(f"max_restarts must be >= 0, got {max_restarts}")
        self.n_shards = int(workers)
        self.request_timeout = float(request_timeout)
        self.max_restarts = int(max_restarts)
        self.inprocess = bool(inprocess)
        self._configs = [
            ShardConfig(
                shard=s,
                n_shards=self.n_shards,
                table_dir=str(table_dir) if table_dir is not None else None,
                chaos_rates=dict(chaos_rates) if chaos_rates else None,
                chaos_seed=int(chaos_seed),
            )
            for s in range(self.n_shards)
        ]
        self._lock = threading.RLock()
        self._closed = False
        self.breakers = [
            CircuitBreaker(breaker_threshold, breaker_cooldown, clock)
            for _ in range(self.n_shards)
        ]
        #: The parent-side degradation chain: same tables, no chaos.  Lanes
        #: land here only when their shard is down past its restart budget
        #: (or mid-cooldown), so a dead worker costs latency, not answers.
        self.fallback = build_shard_server(
            replace(self._configs[0], shard=-1, chaos_rates=None)
        )
        self._shards: Optional[list[PlanServer]] = None
        self._workers: Optional[list[ShardWorker]] = None
        if self.inprocess:
            self._shards = [build_shard_server(cfg) for cfg in self._configs]
        else:
            ctx = multiprocessing.get_context(mp_method)
            self._workers = [ShardWorker(cfg, ctx) for cfg in self._configs]
        # Counters (parent side; per-worker tier stats via worker_stats()).
        self.served = 0  #: lanes answered (worker or fallback)
        self.exhausted = 0  #: lanes for which every tier failed
        self.fallback_lanes = 0  #: lanes served by the parent fallback chain
        self.restarts = 0  #: worker restarts performed
        self.worker_failures = 0  #: failed worker requests (death/timeout)
        self.batches = 0  #: serve_batch calls dispatched

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------

    def serve_batch(
        self,
        families: Sequence[str],
        cs: Sequence[float],
        param_values: Sequence[float],
    ) -> list[ServedPlan]:
        """Serve a batch across the shards; raises if **any** lane failed.

        Mirrors :meth:`PlanServer.serve_batch`: the aggregate
        :class:`PlanServingError` chains the first failing lane's error.
        Use :meth:`try_serve_batch` for per-lane error delivery.
        """
        plans, errors = self.try_serve_batch(families, cs, param_values)
        if errors:
            first = min(errors)
            raise PlanServingError(
                f"{len(errors)} of {len(families)} sharded queries failed — "
                f"invalid or exhausted every serving tier (first failure at "
                f"index {first})"
            ) from errors[first]
        return [plan for plan in plans if plan is not None]

    def try_serve_batch(
        self,
        families: Sequence[str],
        cs: Sequence[float],
        param_values: Sequence[float],
    ) -> tuple[list[Optional[ServedPlan]], dict[int, BaseException]]:
        """The sharded serve: per-lane outcomes in input order, nothing raised.

        Returns ``(plans, errors)`` shaped exactly like
        :meth:`PlanServer._serve_batch_impl`: ``plans[i]`` is lane ``i``'s
        plan (``None`` iff ``i in errors``).  Errors are normalized through
        the wire format in *both* execution modes, so delivery is identical
        whether a lane was served in-process, in a worker, or by fallback.
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
        with self._lock:
            if self._closed:
                raise ShardingError("cannot serve through a closed ShardedPlanServer")
            self.batches += 1
            lanes_by_shard = split_batch(fams, vs_list, self.n_shards)
            plans: list[Optional[ServedPlan]] = [None] * n
            errors: dict[int, BaseException] = {}
            if self.inprocess:
                for shard, lanes in enumerate(lanes_by_shard):
                    if not lanes:
                        continue
                    sub = self._sub_batch(lanes, fams, cs_list, vs_list)
                    assert self._shards is not None
                    sub_plans, sub_errors = self._shards[shard]._serve_batch_impl(*sub)
                    self._scatter(
                        lanes, sub_plans,
                        {i: _normalize_error(e) for i, e in sub_errors.items()},
                        plans, errors,
                    )
            else:
                self._serve_remote(lanes_by_shard, fams, cs_list, vs_list, plans, errors)
            self.served += n - len(errors)
            self.exhausted += len(errors)
            return plans, errors

    def close(self) -> None:
        """Shut every worker down (idempotent); the server rejects new serves."""
        with self._lock:
            if self._closed:
                return
            self._closed = True
            if self._workers is not None:
                for worker in self._workers:
                    worker.close()

    def __enter__(self) -> "ShardedPlanServer":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()

    # -- observability --------------------------------------------------

    def stats_dict(self) -> dict[str, Any]:
        """Front-door counters + per-shard breaker states, JSON-ready."""
        return {
            "workers": self.n_shards,
            "mode": "inprocess" if self.inprocess else "multiprocess",
            "served": self.served,
            "exhausted": self.exhausted,
            "fallback_lanes": self.fallback_lanes,
            "restarts": self.restarts,
            "worker_failures": self.worker_failures,
            "batches": self.batches,
            "breakers": [b.as_dict() for b in self.breakers],
            "alive": [w.alive for w in self._workers] if self._workers else None,
        }

    def worker_stats(self, timeout: Optional[float] = 10.0) -> list[Optional[dict]]:
        """Each shard's own serving stats (``None`` for unreachable workers)."""
        out: list[Optional[dict]] = []
        if self.inprocess:
            assert self._shards is not None
            for shard, server in enumerate(self._shards):
                stats = server.stats_dict()
                stats.update(shard=shard, pid=os.getpid())
                out.append(stats)
            return out
        assert self._workers is not None
        for worker in self._workers:
            try:
                out.append(worker.request({"op": "stats"}, timeout=timeout)["stats"])
            except (ShardWorkerError, ShardProtocolError):
                out.append(None)
        return out

    def ping(self, timeout: Optional[float] = 30.0) -> list[dict[str, Any]]:
        """Handshake every worker (raises on an unreachable shard)."""
        if self.inprocess:
            return [{"op": "pong", "shard": s, "pid": os.getpid()}
                    for s in range(self.n_shards)]
        assert self._workers is not None
        return [w.ping(timeout=timeout) for w in self._workers]

    def kill_worker(self, shard: int) -> None:
        """SIGKILL one shard's process (the chaos suite's entry point)."""
        if self._workers is None:
            raise ShardingError("kill_worker needs multiprocess mode")
        self._workers[shard].kill()

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------

    @staticmethod
    def _sub_batch(
        lanes: list[int], fams: list[str], cs: list[float], vs: list[float]
    ) -> tuple[list[str], list[float], list[float]]:
        return ([fams[i] for i in lanes], [cs[i] for i in lanes],
                [vs[i] for i in lanes])

    def _scatter(
        self,
        lanes: list[int],
        sub_plans: list[Optional[ServedPlan]],
        sub_errors: Mapping[int, BaseException],
        plans: list[Optional[ServedPlan]],
        errors: dict[int, BaseException],
    ) -> None:
        """Fold one shard's sub-batch outcome back into input-order lanes."""
        for j, lane in enumerate(lanes):
            if j in sub_errors:
                errors[lane] = sub_errors[j]
            else:
                plans[lane] = sub_plans[j]

    def _serve_remote(
        self,
        lanes_by_shard: list[list[int]],
        fams: list[str],
        cs: list[float],
        vs: list[float],
        plans: list[Optional[ServedPlan]],
        errors: dict[int, BaseException],
    ) -> None:
        """Dispatch sub-batches to the workers: send all, then collect.

        Sending every shard's request before waiting on any reply lets the
        workers serve concurrently; collection order (shard 0..N-1) does not
        affect results, only who is waited on first.
        """
        assert self._workers is not None
        sent: list[tuple[int, dict[str, Any], int]] = []
        degraded: list[int] = []
        for shard, lanes in enumerate(lanes_by_shard):
            if not lanes:
                continue
            breaker = self.breakers[shard]
            if not breaker.allow():
                degraded.append(shard)
                continue
            if not self._workers[shard].alive and not self._try_restart(shard):
                self.worker_failures += 1
                breaker.record_failure()
                degraded.append(shard)
                continue
            msg = {
                "op": "serve",
                **dict(zip(("families", "cs", "param_values"),
                           self._sub_batch(lanes, fams, cs, vs))),
            }
            try:
                sent.append((shard, msg, self._workers[shard].send(msg)))
            except ShardWorkerError:
                if not self._retry_shard(shard, msg, lanes, plans, errors):
                    degraded.append(shard)

        for shard, msg, msg_id in sent:
            lanes = lanes_by_shard[shard]
            try:
                self._collect(shard, msg_id, lanes, plans, errors)
            except ShardWorkerError:
                if not self._retry_shard(shard, msg, lanes, plans, errors):
                    degraded.append(shard)

        for shard in degraded:
            self._serve_fallback(lanes_by_shard[shard], fams, cs, vs, plans, errors)

    def _collect(
        self,
        shard: int,
        msg_id: int,
        lanes: list[int],
        plans: list[Optional[ServedPlan]],
        errors: dict[int, BaseException],
    ) -> None:
        """Wait for one shard's serve reply and fold it into the batch.

        Raises :class:`ShardWorkerError` when the reply does not arrive or is
        not a ``result``; the shard's breaker records a success otherwise.
        """
        assert self._workers is not None
        reply = self._workers[shard].receive(msg_id, self.request_timeout)
        if reply.get("op") != "result":
            raise ShardWorkerError(f"shard {shard} answered out of protocol", shard)
        self.breakers[shard].record_success()
        self._scatter(
            lanes, reply["plans"],
            {int(i): _rebuild_error(e) for i, e in reply["errors"].items()},
            plans, errors,
        )

    def _retry_shard(
        self,
        shard: int,
        msg: dict[str, Any],
        lanes: list[int],
        plans: list[Optional[ServedPlan]],
        errors: dict[int, BaseException],
    ) -> bool:
        """Count a failed request, then restart and retry once; True when served.

        The slow path: the shard already failed once this batch, so the
        retry runs synchronously (restart, resend, wait).  A second failure
        re-trips the breaker and the caller degrades the lanes to fallback.
        """
        assert self._workers is not None
        self.worker_failures += 1
        self.breakers[shard].record_failure()
        if not self._try_restart(shard):
            return False
        try:
            self._collect(shard, self._workers[shard].send(msg), lanes, plans, errors)
        except ShardWorkerError:
            self.worker_failures += 1
            self.breakers[shard].record_failure()
            return False
        return True

    def _try_restart(self, shard: int) -> bool:
        """Respawn one shard within the restart budget; False when exhausted."""
        if self.restarts >= self.max_restarts * self.n_shards:
            return False
        assert self._workers is not None
        self._workers[shard].spawn()
        self.restarts += 1
        return True

    def _serve_fallback(
        self,
        lanes: list[int],
        fams: list[str],
        cs: list[float],
        vs: list[float],
        plans: list[Optional[ServedPlan]],
        errors: dict[int, BaseException],
    ) -> None:
        """Serve a degraded shard's lanes through the parent's own chain."""
        sub = self._sub_batch(lanes, fams, cs, vs)
        sub_plans, sub_errors = self.fallback._serve_batch_impl(*sub)
        self.fallback_lanes += len(lanes)
        self._scatter(
            lanes, sub_plans,
            {i: _normalize_error(e) for i, e in sub_errors.items()},
            plans, errors,
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        mode = "inprocess" if self.inprocess else "multiprocess"
        return f"ShardedPlanServer(workers={self.n_shards}, mode={mode})"
