"""Content-addressed schedule plan cache: O(1) amortized schedule serving.

The paper's guidelines make every optimal schedule a deterministic function
of the pair ``(p, c)`` (plus search tolerances): Theorem 3.1's recurrence
propagates ``t_0`` deterministically, and Theorems 3.2/3.3 pin the search
interval.  Repeated and near-repeated queries therefore need not re-run the
multi-start NLP or the batch recurrence sweep — a cached plan keyed on the
life function's content address answers them exactly.

This module provides:

* :class:`PlanCache` — a bounded, thread-safe, in-memory LRU with an optional
  disk tier (JSON files with atomic writes, a versioned schema, and
  corruption-tolerant loads).  Keys combine a life function's
  :meth:`~repro.core.life_functions.LifeFunction.fingerprint` with the
  overhead ``c``, the search tolerances, and the engine — see
  :func:`plan_key`.
* :class:`CacheStats` — hit / miss / time counters, exposed per cache.
* :func:`default_plan_cache` — a process-wide cache shared by the CLI and by
  sweep workers, and :func:`default_cache_dir` — the conventional on-disk
  location (``$REPRO_CACHE_DIR``, else ``$XDG_CACHE_HOME/repro/plancache``).

Cache values travel through :mod:`repro.io`'s versioned serializers, so the
disk tier shares the library's stable JSON formats.  Memory hits return the
*original* result objects (all frozen/immutable), hence bit-identical
schedules; disk hits round-trip floats exactly (``repr``-precision JSON).
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
import threading
import time
from collections import OrderedDict
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Optional, Union

from ..exceptions import CycleStealingError, PlanCacheError
from .life_functions import LifeFunction

__all__ = [
    "CACHE_SCHEMA_VERSION",
    "CacheStats",
    "PlanCache",
    "plan_key",
    "default_cache_dir",
    "default_plan_cache",
    "reset_default_plan_cache",
]

#: Version of the on-disk entry schema.  Bump on any incompatible change to
#: the key construction or payload formats; entries written under other
#: versions are invisible (they live in a versioned subdirectory).
CACHE_SCHEMA_VERSION = 1

#: What a lookup returns when neither tier holds the key (a cached value may
#: itself be ``None``).
_MISS = object()


def _canon(value: Any) -> str:
    """Canonical, exact text for one key component (floats via ``hex``)."""
    if value is None:
        return "~"
    if isinstance(value, bool):
        return "T" if value else "F"
    if isinstance(value, float):
        return value.hex()
    if isinstance(value, int):
        return str(value)
    if isinstance(value, str):
        return value
    if isinstance(value, (tuple, list)):
        return "[" + ";".join(_canon(v) for v in value) + "]"
    raise PlanCacheError(f"cannot canonicalize cache-key component {value!r}")


def plan_key(op: str, fingerprint: str, c: float, **extras: Any) -> str:
    """Build a cache key: operation + content address + overhead + tolerances.

    ``extras`` carries whatever parameters change the answer (grid, widen,
    engine, m_max, ...); they are sorted by name so call sites cannot
    accidentally produce distinct keys for identical queries.
    """
    parts = [op, fingerprint, f"c={_canon(float(c))}"]
    parts.extend(f"{name}={_canon(extras[name])}" for name in sorted(extras))
    return "|".join(parts)


@dataclass
class CacheStats:
    """Hit / miss / time counters for one :class:`PlanCache`."""

    hits: int = 0  #: memory-tier hits
    disk_hits: int = 0  #: disk-tier hits (promoted to memory)
    misses: int = 0  #: full recomputations
    puts: int = 0  #: entries inserted into the memory tier
    evictions: int = 0  #: LRU evictions from the memory tier
    corrupt_loads: int = 0  #: disk entries dropped as unreadable/corrupt
    hit_seconds: float = 0.0  #: time spent serving hits (both tiers)
    miss_seconds: float = 0.0  #: time spent computing misses
    uncacheable: int = 0  #: lookups skipped (e.g. unfingerprintable p)

    @property
    def lookups(self) -> int:
        return self.hits + self.disk_hits + self.misses

    @property
    def hit_rate(self) -> float:
        """Fraction of lookups served from either tier (0 when untouched)."""
        n = self.lookups
        return (self.hits + self.disk_hits) / n if n else 0.0

    def as_dict(self) -> dict[str, Any]:
        return {
            "hits": self.hits,
            "disk_hits": self.disk_hits,
            "misses": self.misses,
            "puts": self.puts,
            "evictions": self.evictions,
            "corrupt_loads": self.corrupt_loads,
            "uncacheable": self.uncacheable,
            "hit_rate": self.hit_rate,
            "hit_seconds": self.hit_seconds,
            "miss_seconds": self.miss_seconds,
        }


def default_cache_dir() -> Path:
    """The conventional on-disk cache location.

    ``$REPRO_CACHE_DIR`` when set; otherwise ``$XDG_CACHE_HOME/repro/plancache``
    (with the usual ``~/.cache`` fallback).
    """
    env = os.environ.get("REPRO_CACHE_DIR")
    if env:
        return Path(env)
    xdg = os.environ.get("XDG_CACHE_HOME")
    base = Path(xdg) if xdg else Path.home() / ".cache"
    return base / "repro" / "plancache"


class PlanCache:
    """Bounded LRU of schedule plans with an optional JSON disk tier.

    Parameters
    ----------
    maxsize:
        Memory-tier capacity (entries).  The least recently used entry is
        evicted on overflow.  Must be >= 1.
    cache_dir:
        Directory for the disk tier; ``None`` disables it.  Entries are
        written atomically (temp file + ``os.replace``) under a
        schema-versioned subdirectory, so concurrent writers and version
        bumps are safe, and unreadable entries degrade to recomputation.

    Thread safety: all tier bookkeeping runs under one lock; the *compute*
    callback of :meth:`get_or_compute` runs outside it (concurrent misses on
    the same key may compute twice — idempotent, so only wasteful).
    """

    def __init__(
        self,
        maxsize: int = 1024,
        cache_dir: Optional[Union[str, Path]] = None,
    ) -> None:
        if maxsize < 1:
            raise PlanCacheError(f"maxsize must be >= 1, got {maxsize}")
        self.maxsize = int(maxsize)
        self.cache_dir = Path(cache_dir) if cache_dir is not None else None
        self.stats = CacheStats()
        self._lock = threading.RLock()
        self._mem: "OrderedDict[str, Any]" = OrderedDict()

    # ------------------------------------------------------------------
    # Key helpers
    # ------------------------------------------------------------------

    @staticmethod
    def fingerprint_of(p: LifeFunction) -> Optional[str]:
        """``p.fingerprint()``, or ``None`` when ``p`` cannot be addressed."""
        try:
            return p.fingerprint()
        except Exception:
            return None

    # ------------------------------------------------------------------
    # Core API
    # ------------------------------------------------------------------

    def get_or_compute(
        self,
        key: Optional[str],
        compute: Callable[[], Any],
        to_payload: Optional[Callable[[Any], dict]] = None,
        from_payload: Optional[Callable[[dict], Any]] = None,
    ) -> Any:
        """Serve ``key`` from memory, then disk, then by running ``compute``.

        ``to_payload`` / ``from_payload`` are the :mod:`repro.io`-style
        serializers for the disk tier; omit them for memory-only entries.
        ``key=None`` (unfingerprintable life function) bypasses the cache
        entirely and just computes.
        """
        if key is None:
            self.stats.uncacheable += 1
            return compute()
        start = time.perf_counter()
        value = self._lookup(key, from_payload, start)
        if value is not _MISS:
            return value
        value = compute()
        self.stats.misses += 1
        self.stats.miss_seconds += time.perf_counter() - start
        self._mem_put(key, value)
        if to_payload is not None:
            try:
                self._disk_write(key, to_payload(value))
            except (OSError, TypeError, ValueError):
                pass  # an unwritable disk tier must never fail the query
        return value

    def peek(
        self,
        key: Optional[str],
        from_payload: Optional[Callable[[dict], Any]] = None,
    ) -> Optional[Any]:
        """Serve ``key`` from memory or disk **without ever computing**.

        The warm-only lookup used by the serving fallback chain's cache tier:
        a hit behaves exactly like :meth:`get_or_compute` (LRU touch, disk
        promotion, hit counters) but a miss returns ``None`` and is *not*
        counted in :attr:`CacheStats.misses` (nothing was recomputed).
        """
        if key is None:
            self.stats.uncacheable += 1
            return None
        value = self._lookup(key, from_payload, time.perf_counter())
        return None if value is _MISS else value

    def _lookup(
        self,
        key: str,
        from_payload: Optional[Callable[[dict], Any]],
        start: float,
    ) -> Any:
        """The one hit path: memory, then disk (promoted); ``_MISS`` if neither.

        Counts ``hits`` / ``disk_hits`` and the hit's time since ``start``; a
        miss is counted by the caller, if at all.
        """
        with self._lock:
            if key in self._mem:
                self._mem.move_to_end(key)
                value = self._mem[key]
                self.stats.hits += 1
                self.stats.hit_seconds += time.perf_counter() - start
                return value
        if from_payload is not None:
            payload = self._disk_read(key)
            if payload is not None:
                try:
                    value = from_payload(payload)
                except (CycleStealingError, KeyError, TypeError, ValueError):
                    self.stats.corrupt_loads += 1
                else:
                    self._mem_put(key, value)
                    self.stats.disk_hits += 1
                    self.stats.hit_seconds += time.perf_counter() - start
                    return value
        return _MISS

    def _mem_put(self, key: str, value: Any) -> None:
        with self._lock:
            self._mem[key] = value
            self._mem.move_to_end(key)
            self.stats.puts += 1
            while len(self._mem) > self.maxsize:
                self._mem.popitem(last=False)
                self.stats.evictions += 1

    def __len__(self) -> int:
        with self._lock:
            return len(self._mem)

    def __contains__(self, key: str) -> bool:
        with self._lock:
            return key in self._mem

    def clear(self, memory: bool = True, disk: bool = False) -> None:
        """Drop cached entries (the memory tier, and optionally disk)."""
        if memory:
            with self._lock:
                self._mem.clear()
        if disk and self.cache_dir is not None:
            root = self._disk_root()
            if root.is_dir():
                for path in root.glob("*.json"):
                    try:
                        path.unlink()
                    except OSError:
                        pass

    # ------------------------------------------------------------------
    # Disk tier
    # ------------------------------------------------------------------

    def _disk_root(self) -> Path:
        assert self.cache_dir is not None
        return self.cache_dir / f"v{CACHE_SCHEMA_VERSION}"

    def _entry_path(self, key: str) -> Path:
        digest = hashlib.sha256(key.encode()).hexdigest()[:40]
        return self._disk_root() / f"{digest}.json"

    def disk_entries(self) -> int:
        """Number of entries in the (current-schema) disk tier."""
        if self.cache_dir is None:
            return 0
        root = self._disk_root()
        return sum(1 for _ in root.glob("*.json")) if root.is_dir() else 0

    def _disk_read(self, key: str) -> Optional[dict]:
        """Load a payload, tolerating missing/corrupt/mismatched entries."""
        if self.cache_dir is None:
            return None
        path = self._entry_path(key)
        try:
            with open(path, encoding="utf-8") as fh:
                entry = json.load(fh)
        except FileNotFoundError:
            return None
        except (OSError, json.JSONDecodeError, UnicodeDecodeError):
            self.stats.corrupt_loads += 1
            return None
        if (
            not isinstance(entry, dict)
            or entry.get("schema") != CACHE_SCHEMA_VERSION
            or entry.get("key") != key  # digest collision or truncated key
            or not isinstance(entry.get("payload"), dict)
        ):
            self.stats.corrupt_loads += 1
            return None
        return entry["payload"]

    def _disk_write(self, key: str, payload: dict) -> None:
        """Atomically persist one entry (temp file + rename)."""
        if self.cache_dir is None:
            return
        root = self._disk_root()
        root.mkdir(parents=True, exist_ok=True)
        entry = {"schema": CACHE_SCHEMA_VERSION, "key": key, "payload": payload}
        text = json.dumps(entry)
        fd, tmp = tempfile.mkstemp(dir=root, suffix=".tmp")
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as fh:
                fh.write(text)
            os.replace(tmp, self._entry_path(key))
        except OSError:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        tier = f", disk={self.cache_dir}" if self.cache_dir else ""
        return f"PlanCache(size={len(self)}/{self.maxsize}{tier})"


# ----------------------------------------------------------------------
# Process-wide default cache (CLI, sweep workers)
# ----------------------------------------------------------------------

_default_lock = threading.Lock()
_default_cache: Optional[PlanCache] = None
#: Directories that failed the writability probe (warn + re-probe avoidance).
_unwritable_dirs: set[Path] = set()


def _probe_writable(path: Path) -> bool:
    """Whether ``path`` can be created and written (one tiny probe file)."""
    try:
        path.mkdir(parents=True, exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=path, suffix=".probe")
        os.close(fd)
        os.unlink(tmp)
        return True
    except OSError:
        return False


def default_plan_cache(
    cache_dir: Optional[Union[str, Path]] = None, maxsize: int = 1024
) -> PlanCache:
    """The process-wide shared cache, created on first use.

    The first caller fixes the configuration; later calls with a *different*
    ``cache_dir`` replace the singleton (sweep workers pass their pool's
    directory explicitly, so a worker process always converges on the
    directory its sweep was launched with).

    When the requested directory (typically ``$REPRO_CACHE_DIR`` or the XDG
    default via :func:`default_cache_dir`) is read-only or cannot be
    created, the cache degrades to **memory-only** with a one-time
    :class:`RuntimeWarning` instead of raising — an unwritable disk must
    never take plan serving down.
    """
    global _default_cache
    wanted = Path(cache_dir) if cache_dir is not None else None
    with _default_lock:
        if wanted in _unwritable_dirs:
            wanted = None
        elif wanted is not None and (
            _default_cache is None or _default_cache.cache_dir != wanted
        ):
            if not _probe_writable(wanted):
                _unwritable_dirs.add(wanted)
                import warnings

                warnings.warn(
                    f"plan cache directory {wanted} is not writable; "
                    "degrading to a memory-only plan cache",
                    RuntimeWarning,
                    stacklevel=2,
                )
                wanted = None
        if _default_cache is None or (
            wanted is not None and _default_cache.cache_dir != wanted
        ):
            _default_cache = PlanCache(maxsize=maxsize, cache_dir=wanted)
        return _default_cache


def reset_default_plan_cache() -> None:
    """Forget the process-wide cache (tests and long-lived services)."""
    global _default_cache
    with _default_lock:
        _default_cache = None
        _unwritable_dirs.clear()
