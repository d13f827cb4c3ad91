"""JIT-compiled hot kernels (numba) with a transparent NumPy fallback.

The batch engines are NumPy-vectorized Python: every recurrence step of
:func:`repro.core.batch_recurrence.generate_schedules_batch` and
:func:`repro.core.hetero_recurrence.generate_schedules_hetero` pays Python
dispatch, boolean-mask compaction, and a handful of temporary arrays per
vector operation.  This package ports the remaining hot paths to
``numba.njit(cache=True)`` kernels:

* :func:`kernels` ``.hetero_recurrence`` — the full Corollary 3.1 system
  (3.6) loop over mixed ``(c, θ, t0)`` lanes for the Section 4 closed-form
  families, lane-local and allocation-free per step;
* :func:`kernels` ``.expected_work_rows`` — eq. (2.1) scoring over a
  NaN-padded period block, accumulated in the scalar engine's
  left-to-right order;
* :func:`kernels` ``.episodes_gather`` — the vectorized episode simulator's
  inner pass (``searchsorted`` + cumulative-work gather) as one fused loop.

Capability probe and fallback contract
--------------------------------------
numba is an **optional** dependency (the ``jit`` extra).  Nothing in this
package hard-fails without it: :func:`available` reports whether the kernels
can be used, and every ``engine="jit"`` selection in the library degrades
transparently to the bit-equivalent NumPy path when numba is missing,
too old, broken, or disabled via the ``REPRO_DISABLE_JIT`` environment
variable.  Only :func:`require` (used by the CLI's explicit ``--engine jit``)
raises :class:`~repro.exceptions.JITUnavailableError`.

On-disk kernel cache
--------------------
The probe points ``NUMBA_CACHE_DIR`` at ``<plan-cache dir>/numba`` (unless
the variable is already set) *before* importing numba, so every process —
including the sharded serving workers — shares one on-disk kernel cache and
only the first process ever pays the compile.
"""

from __future__ import annotations

import os
from pathlib import Path
from types import ModuleType
from typing import Optional

from ..exceptions import JITUnavailableError

__all__ = [
    "DISABLE_ENV",
    "MIN_NUMBA_VERSION",
    "available",
    "disabled_reason",
    "refresh",
    "require",
    "resolve_engine",
    "kernels",
    "numba_cache_dir",
    "family_code",
    "FAM_POLY",
    "FAM_GEOMDEC",
    "FAM_GEOMINC",
]

#: Environment variable that force-disables the JIT kernels (any value other
#: than empty / "0").  Checked on every probe refresh, so tests and operators
#: can flip it without reinstalling.
DISABLE_ENV = "REPRO_DISABLE_JIT"

#: Oldest numba the kernels are exercised against (matches the ``jit`` extra).
MIN_NUMBA_VERSION = (0, 59)

#: Integer family codes shared with the compiled kernels.  ``uniform`` is the
#: ``d = 1`` special case of ``poly``, exactly as in the hetero engine.
FAM_POLY = 0
FAM_GEOMDEC = 1
FAM_GEOMINC = 2

_FAMILY_CODES = {
    "uniform": FAM_POLY,
    "poly": FAM_POLY,
    "geomdec": FAM_GEOMDEC,
    "geominc": FAM_GEOMINC,
}

#: Probe result memo: ``None`` = not probed yet, else ``(ok, reason)``.
_probe_result: Optional[tuple[bool, str]] = None
_kernels_module: Optional[ModuleType] = None


def numba_cache_dir() -> Path:
    """Where the on-disk kernel cache lives: ``<plan-cache dir>/numba``.

    Riding the plan-cache directory keeps all repro persistence under one
    root and lets the sharded workers (which inherit the environment) reuse
    the parent's compiled kernels instead of recompiling per process.
    """
    from ..core.plancache import default_cache_dir  # deferred: avoids a cycle

    return default_cache_dir() / "numba"


def _configure_cache_env() -> None:
    """Point ``NUMBA_CACHE_DIR`` at the plan-cache dir before numba imports.

    numba reads the variable lazily per compilation, but setting it before
    the first import is the only ordering that is guaranteed across numba
    versions.  An explicit pre-existing value always wins, and an unwritable
    directory is left to numba's own fallback (per-source ``__pycache__``).
    """
    if os.environ.get("NUMBA_CACHE_DIR"):
        return
    try:
        cache_dir = numba_cache_dir()
        cache_dir.mkdir(parents=True, exist_ok=True)
    except OSError:
        return
    os.environ["NUMBA_CACHE_DIR"] = str(cache_dir)


def _run_probe() -> tuple[bool, str]:
    raw = os.environ.get(DISABLE_ENV, "")
    if raw.strip() not in ("", "0"):
        return False, f"JIT kernels disabled by {DISABLE_ENV}={raw!r}"
    _configure_cache_env()
    try:
        import numba
    except Exception as exc:  # ImportError, or a broken install raising worse
        return False, (
            f"numba is not importable ({exc!r}); install the optional extra: "
            f"pip install 'repro[jit]'"
        )
    try:
        parts = tuple(int(x) for x in str(numba.__version__).split(".")[:2])
    except ValueError:
        parts = MIN_NUMBA_VERSION  # unparseable dev version: assume new enough
    if parts < MIN_NUMBA_VERSION:
        wanted = ".".join(str(v) for v in MIN_NUMBA_VERSION)
        return False, (
            f"numba {numba.__version__} is older than the supported "
            f">= {wanted}; upgrade via pip install 'repro[jit]'"
        )
    global _kernels_module
    try:
        from . import kernels as kernels_module
    except Exception as exc:  # pragma: no cover - needs a broken numba
        return False, f"JIT kernel definitions failed to import: {exc!r}"
    _kernels_module = kernels_module
    return True, ""


def _probe() -> tuple[bool, str]:
    global _probe_result
    if _probe_result is None:
        _probe_result = _run_probe()
    return _probe_result


def available() -> bool:
    """Whether the numba kernels can serve ``engine="jit"`` requests."""
    return _probe()[0]


def disabled_reason() -> str:
    """Why the JIT kernels are unavailable (empty string when available)."""
    return _probe()[1]


def refresh() -> None:
    """Drop the memoized probe so the next call re-examines the environment.

    Lets tests (and long-lived processes) flip ``REPRO_DISABLE_JIT`` without
    restarting; an already-imported numba stays imported, only the
    library-level gate re-evaluates.
    """
    global _probe_result
    _probe_result = None


def require(context: str = "jit engine") -> None:
    """Raise :class:`JITUnavailableError` unless the kernels are available.

    For call sites where the user *named* the jit engine and a silent
    fallback would misreport what ran (the CLI ``--engine jit`` flags).
    """
    ok, reason = _probe()
    if not ok:
        raise JITUnavailableError(f"{context} requires numba: {reason}")


def resolve_engine(engine: str, fallback: str) -> str:
    """Map ``"jit"`` to ``fallback`` when the kernels are unavailable.

    Every other engine name passes through untouched; validation of the name
    itself stays with the caller.
    """
    if engine == "jit" and not available():
        return fallback
    return engine


def kernels() -> ModuleType:
    """The compiled-kernel module; raises if the probe failed.

    Call :func:`available` first on paths that must not raise.
    """
    ok, reason = _probe()
    if not ok:
        raise JITUnavailableError(f"JIT kernels are unavailable: {reason}")
    assert _kernels_module is not None
    return _kernels_module


def family_code(family: str) -> int:
    """The kernel-level integer code for a Section 4 table family."""
    try:
        return _FAMILY_CODES[family]
    except KeyError:
        raise JITUnavailableError(
            f"family {family!r} has no JIT kernel; expected one of "
            f"{sorted(_FAMILY_CODES)}"
        ) from None
