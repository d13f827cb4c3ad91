"""The analytic life-function families of Sections 3.1 and 4.

Three scenarios are inherited from the phenomenological study [3] and drive
the paper's evaluation (Section 4):

* :class:`UniformRisk` — ``p(t) = 1 - t/L`` (Section 4.1, d = 1): the risk of
  interruption is uniform across the potential lifespan; both concave and
  convex.
* :class:`PolynomialRisk` — ``p_{d,L}(t) = 1 - t^d / L^d`` (Section 4.1): the
  concave generalization studied in the paper's first case family.
* :class:`GeometricDecreasingLifespan` — ``p_a(t) = a^{-t}`` (Section 4.2):
  episodes with a "half-life"; convex, unbounded support.
* :class:`GeometricIncreasingRisk` — ``p(t) = (2^L - 2^t)/(2^L - 1)``
  (Section 4.3): the "coffee break" scenario, where the risk of interruption
  doubles at every time unit; concave.

Two further families support the library's testing and the Corollary 3.2
existence experiment:

* :class:`WeibullLife` — ``p(t) = exp(-(t/scale)^k)``: convex for ``k <= 1``;
  for ``k > 1`` it has a flex point, exercising the ``GENERAL`` shape paths.
* :class:`ParetoLife` — ``p(t) = (1 + t)^{-d}``: the paper's example (after
  Corollary 3.2) of a family that, for ``d > 1``, admits **no** optimal
  schedule.

All closed-form inverses and derivatives are exact, so the guideline
recurrence and the Monte-Carlo sampler never fall back to grid inversion for
these families.

The family table
----------------
The four Section 4 families also live in :data:`FAMILY_TABLE`, keyed by their
table names ``"uniform"``, ``"poly"``, ``"geomdec"`` and ``"geominc"``.  Each
:class:`FamilyKernels` row holds the family's closed forms as ufunc-style
functions of the degree ``d`` and a *per-lane* parameter ``θ`` (the lifespan
``L``, or the risk factor ``a`` for geomdec), broadcasting over ``c``, ``θ``
and ``t`` alike:

* ``survival(d, θ, t)`` — ``p(t; θ)`` inside the support;
* ``inverse(d, θ, y)`` — ``p^{-1}(y; θ)``;
* ``step(d, c, θ, t_prev, T_prev)`` — the closed-form recurrence step of
  eqs. (4.1), (4.6), (4.7) and the general ``p_{d,L}`` form (NaN where the
  schedule ends);
* ``lifespan(θ)`` and ``mean_absence(d, θ)`` — ``L`` and ``E[R] = ∫ p``;
* ``make(θ, d)`` — the :class:`LifeFunction` instance;
* ``param_floor`` — ``θ``'s domain: finite and above it (the bound the
  family class's constructor enforces).

This is the one place these formulas are written for NumPy: the classes'
``_evaluate`` / ``inverse`` and ``ln_a`` read it (scalar ``θ``), the mixed-lane
recurrence reads it with ``θ`` per lane, and the fleet reads it with ``θ`` per
host row, so all of them round identically.  :func:`make` builds a family's
life function from table coordinates and :func:`family_of` maps an instance
of an exact family class back to ``(family, d, θ)``.  The scalar oracle
(:mod:`repro.core.recurrence`) keeps its own copy on purpose: it is what this
table is checked against.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from ...types import ArrayLike, FloatArray
from .base import LifeFunction, Shape

__all__ = [
    "FAMILY_TABLE",
    "FamilyKernels",
    "make",
    "family_of",
    "UniformRisk",
    "PolynomialRisk",
    "GeometricDecreasingLifespan",
    "GeometricIncreasingRisk",
    "WeibullLife",
    "ParetoLife",
]


_LN2 = math.log(2.0)


# ----------------------------------------------------------------------
# Section 4 closed forms, vectorized over per-lane θ (see FAMILY_TABLE)
# ----------------------------------------------------------------------


def _poly_survival(d, L, t):
    return 1.0 - (t / L) ** d


def _poly_inverse(d, L, y):
    return L * (1.0 - y) ** (1.0 / d)


def _poly_step(d, c, L, t_prev, boundary_prev):
    if d == 1:
        return t_prev - c  # eq. (4.1)
    ratio = 1.0 + d * (t_prev - c) / boundary_prev
    with np.errstate(invalid="ignore"):
        return np.where(ratio > 0.0, (ratio ** (1.0 / d) - 1.0) * boundary_prev, np.nan)


def _poly_mean_absence(d, L):
    return L * d / (d + 1.0)


def _geomdec_survival(d, a, t):
    return np.exp(-np.log(a) * t)


def _geomdec_inverse(d, a, y):
    with np.errstate(divide="ignore"):
        return np.where(y > 0, -np.log(np.where(y > 0, y, 1.0)) / np.log(a), np.inf)


def _geomdec_step(d, c, a, t_prev, boundary_prev):
    ln_a = np.log(a)
    arg = 1.0 + (c - t_prev) * ln_a  # eq. (4.6)
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(arg > 0.0, -np.log(arg) / ln_a, np.nan)


def _geomdec_lifespan(a):
    return np.full(np.shape(a), np.inf)


def _geomdec_mean_absence(d, a):
    return 1.0 / np.log(a)


def _geominc_denom(L):
    """``1 - 2^{-L}``, computed stably for large ``L``."""
    return -np.expm1(-L * _LN2)


def _geominc_survival(d, L, t):
    # (2^L - 2^t) / (2^L - 1) = (1 - 2^{t-L}) / (1 - 2^{-L})
    return -np.expm1((t - L) * _LN2) / _geominc_denom(L)


def _geominc_inverse(d, L, y):
    # y = (1 - 2^{t-L}) / denom  =>  t = L + log2(1 - y * denom)
    inner = 1.0 - y * _geominc_denom(L)
    out = L + np.log(np.maximum(inner, np.finfo(float).tiny)) / _LN2
    return np.clip(out, 0.0, L)


def _geominc_step(d, c, L, t_prev, boundary_prev):
    arg = (t_prev - c) * _LN2 + 1.0  # eq. (4.7)
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(arg > 0.0, np.log2(arg), np.nan)


def _geominc_mean_absence(d, L):
    # ∫0^L (2^L - 2^t) / (2^L - 1) dt = L - 1/ln2 + L / (2^L - 1)
    return L - 1.0 / _LN2 + L / np.expm1(L * _LN2)


def _finite_lifespan(L):
    return L


class PolynomialRisk(LifeFunction):
    """``p_{d,L}(t) = 1 - (t/L)^d`` on ``[0, L]`` — Section 4.1's concave family.

    ``d = 1`` is the *uniform risk* scenario of [3].  For every integer
    ``d >= 1`` the function is concave (``p''(t) = -d(d-1) t^{d-2} / L^d <= 0``),
    so Theorem 3.3's concave upper bound and the Section 5 structural results
    (strictly decreasing periods, finiteness) all apply.
    """

    def __init__(self, d: int, lifespan: float) -> None:
        super().__init__()
        if d < 1 or int(d) != d:
            raise ValueError(f"degree d must be a positive integer, got {d}")
        if not 0 < lifespan < math.inf:
            raise ValueError(f"lifespan must be positive and finite, got {lifespan}")
        self.d = int(d)
        self._lifespan = float(lifespan)

    def _fingerprint_params(self) -> tuple[tuple[str, float], ...]:
        return (("d", float(self.d)), ("L", self._lifespan))

    def _evaluate(self, t: FloatArray) -> FloatArray:
        return _poly_survival(self.d, self._lifespan, t)

    def _derivative(self, t: FloatArray) -> FloatArray:
        d, L = self.d, self._lifespan
        return -(d / L) * (t / L) ** (d - 1)

    def second_derivative(self, t: ArrayLike, h: float = 1e-6) -> ArrayLike:
        arr, scalar = self._coerce(t)
        d, L = self.d, self._lifespan
        out = np.zeros_like(arr)
        inside = arr <= L
        if d >= 2:
            out[inside] = -(d * (d - 1) / L**2) * (arr[inside] / L) ** (d - 2)
        return float(out[0]) if scalar else out

    def inverse(self, y: ArrayLike) -> ArrayLike:
        arr = np.asarray(y, dtype=float)
        if np.any((arr < 0) | (arr > 1)):
            raise ValueError("inverse() requires probabilities in [0, 1]")
        out = _poly_inverse(self.d, self._lifespan, arr)
        return float(out) if np.ndim(y) == 0 else out

    @property
    def lifespan(self) -> float:
        return self._lifespan

    @property
    def shape(self) -> Shape:
        return Shape.LINEAR if self.d == 1 else Shape.CONCAVE

    def __repr__(self) -> str:
        return f"PolynomialRisk(d={self.d}, L={self._lifespan})"


class UniformRisk(PolynomialRisk):
    """``p(t) = 1 - t/L`` — uniform interruption risk (Section 4.1, d = 1).

    Both concave and convex; its unique optimal schedule (from [3]) has
    ``t_k = t_{k-1} - c`` and ``t_0 = sqrt(2cL) + low-order terms``.
    """

    def __init__(self, lifespan: float) -> None:
        super().__init__(d=1, lifespan=lifespan)

    def __repr__(self) -> str:
        return f"UniformRisk(L={self._lifespan})"


class GeometricDecreasingLifespan(LifeFunction):
    """``p_a(t) = a^{-t}`` — episodes with a half-life (Section 4.2).

    Convex with unbounded support.  The memoryless property (constant hazard
    ``ln a``) makes the conditional risk identical at every instant, which is
    why the true optimal schedule of [3] is infinite with all periods equal.
    """

    def __init__(self, a: float) -> None:
        super().__init__()
        if not 1 < a < math.inf:
            raise ValueError(f"risk factor a must be finite and exceed 1, got {a}")
        self.a = float(a)
        # The rate every geomdec kernel uses: np.log.  On SIMD NumPy builds
        # math.log differs from it in the last bit for ~0.25% of a.
        self.ln_a = float(np.log(self.a))

    def _fingerprint_params(self) -> tuple[tuple[str, float], ...]:
        return (("a", self.a),)

    def _evaluate(self, t: FloatArray) -> FloatArray:
        return _geomdec_survival(1, self.a, t)

    def _derivative(self, t: FloatArray) -> FloatArray:
        return -self.ln_a * np.exp(-self.ln_a * t)

    def second_derivative(self, t: ArrayLike, h: float = 1e-6) -> ArrayLike:
        out = self.ln_a**2 * np.exp(-self.ln_a * np.asarray(t, dtype=float))
        return float(out) if np.ndim(t) == 0 else out

    def inverse(self, y: ArrayLike) -> ArrayLike:
        arr = np.asarray(y, dtype=float)
        if np.any((arr < 0) | (arr > 1)):
            raise ValueError("inverse() requires probabilities in [0, 1]")
        out = _geomdec_inverse(1, self.a, arr)
        return float(out) if np.ndim(y) == 0 else out

    @property
    def lifespan(self) -> float:
        return math.inf

    @property
    def shape(self) -> Shape:
        return Shape.CONVEX

    def __repr__(self) -> str:
        return f"GeometricDecreasingLifespan(a={self.a})"


class GeometricIncreasingRisk(LifeFunction):
    """``p(t) = (2^L - 2^t) / (2^L - 1)`` on ``[0, L]`` — Section 4.3.

    Models an opportunity like a coffee break: the risk of interruption
    doubles at every time step.  Concave (``p''(t) = -2^t ln^2 2/(2^L-1) < 0``).

    Evaluation is carried out in a numerically careful form,
    ``p(t) = (1 - 2^{t-L}) / (1 - 2^{-L})``, so lifespans up to ~1000 stay
    well inside double-precision range.
    """

    def __init__(self, lifespan: float) -> None:
        super().__init__()
        if not 0 < lifespan < math.inf:
            raise ValueError(f"lifespan must be positive and finite, got {lifespan}")
        self._lifespan = float(lifespan)
        self._denom = float(_geominc_denom(self._lifespan))

    def _fingerprint_params(self) -> tuple[tuple[str, float], ...]:
        return (("L", self._lifespan),)

    def _evaluate(self, t: FloatArray) -> FloatArray:
        return _geominc_survival(1, self._lifespan, t)

    def _derivative(self, t: FloatArray) -> FloatArray:
        ln2 = math.log(2.0)
        return -ln2 * np.exp((t - self._lifespan) * ln2) / self._denom

    def second_derivative(self, t: ArrayLike, h: float = 1e-6) -> ArrayLike:
        ln2 = math.log(2.0)
        arr = np.asarray(t, dtype=float)
        out = -(ln2**2) * np.exp((arr - self._lifespan) * ln2) / self._denom
        return float(out) if np.ndim(t) == 0 else out

    def inverse(self, y: ArrayLike) -> ArrayLike:
        arr = np.asarray(y, dtype=float)
        if np.any((arr < 0) | (arr > 1)):
            raise ValueError("inverse() requires probabilities in [0, 1]")
        out = _geominc_inverse(1, self._lifespan, arr)
        return float(out) if np.ndim(y) == 0 else out

    @property
    def lifespan(self) -> float:
        return self._lifespan

    @property
    def shape(self) -> Shape:
        return Shape.CONCAVE

    def __repr__(self) -> str:
        return f"GeometricIncreasingRisk(L={self._lifespan})"


class WeibullLife(LifeFunction):
    """``p(t) = exp(-(t/scale)^k)`` — a flexible extra family.

    Convex for ``k <= 1`` (decreasing hazard; ``k = 1`` recovers the
    geometric-decreasing scenario with ``a = e^{1/scale}``).  For ``k > 1``
    the survival curve has a flex point, so only the shape-free guidelines
    (Theorem 3.1 recurrence, Theorem 3.2 lower bound) apply — this is the
    library's canonical ``GENERAL``-shape test case.
    """

    def __init__(self, k: float, scale: float = 1.0) -> None:
        super().__init__()
        if not (k > 0 and scale > 0):
            raise ValueError(f"k and scale must be positive, got k={k}, scale={scale}")
        self.k = float(k)
        self.scale = float(scale)

    def _fingerprint_params(self) -> tuple[tuple[str, float], ...]:
        return (("k", self.k), ("scale", self.scale))

    def _evaluate(self, t: FloatArray) -> FloatArray:
        return np.exp(-((t / self.scale) ** self.k))

    def _derivative(self, t: FloatArray) -> FloatArray:
        k, s = self.k, self.scale
        with np.errstate(divide="ignore", invalid="ignore"):
            grad = -(k / s) * (t / s) ** (k - 1.0) * np.exp(-((t / s) ** k))
        if k < 1.0:
            grad = np.where(t == 0.0, -np.inf, grad)
        return grad

    def inverse(self, y: ArrayLike) -> ArrayLike:
        arr = np.asarray(y, dtype=float)
        if np.any((arr < 0) | (arr > 1)):
            raise ValueError("inverse() requires probabilities in [0, 1]")
        with np.errstate(divide="ignore"):
            out = np.where(
                arr > 0,
                self.scale * (-np.log(np.where(arr > 0, arr, 1.0))) ** (1.0 / self.k),
                np.inf,
            )
        return float(out) if np.ndim(y) == 0 else out

    @property
    def lifespan(self) -> float:
        return math.inf

    @property
    def shape(self) -> Shape:
        return Shape.CONVEX if self.k <= 1.0 else Shape.GENERAL

    def __repr__(self) -> str:
        return f"WeibullLife(k={self.k}, scale={self.scale})"


class ParetoLife(LifeFunction):
    """``p(t) = (1 + t)^{-d}`` — the heavy-tailed example after Corollary 3.2.

    The paper notes that for ``d > 1`` this family admits **no** optimal
    schedule: the supremum of expected work over schedules is approached but
    never attained.  Convex, unbounded support.
    """

    def __init__(self, d: float) -> None:
        super().__init__()
        if not d > 0:
            raise ValueError(f"exponent d must be positive, got {d}")
        self.d = float(d)

    def _fingerprint_params(self) -> tuple[tuple[str, float], ...]:
        return (("d", self.d),)

    def _evaluate(self, t: FloatArray) -> FloatArray:
        return (1.0 + t) ** (-self.d)

    def _derivative(self, t: FloatArray) -> FloatArray:
        return -self.d * (1.0 + t) ** (-self.d - 1.0)

    def inverse(self, y: ArrayLike) -> ArrayLike:
        arr = np.asarray(y, dtype=float)
        if np.any((arr < 0) | (arr > 1)):
            raise ValueError("inverse() requires probabilities in [0, 1]")
        with np.errstate(divide="ignore"):
            out = np.where(arr > 0, np.where(arr > 0, arr, 1.0) ** (-1.0 / self.d) - 1.0, np.inf)
        return float(out) if np.ndim(y) == 0 else out

    @property
    def lifespan(self) -> float:
        return math.inf

    @property
    def shape(self) -> Shape:
        return Shape.CONVEX

    def __repr__(self) -> str:
        return f"ParetoLife(d={self.d})"


# ----------------------------------------------------------------------
# The family table
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class FamilyKernels:
    """One Section 4 family's closed forms, vectorized over per-lane ``θ``.

    Every function broadcasts like a ufunc; ``d`` is the polynomial degree
    (read only by the polynomial kernels).  ``survival`` is unclipped, as
    :meth:`LifeFunction._evaluate` is; ``step`` returns NaN on lanes whose
    recurrence target is non-positive (the schedule ends there).
    """

    survival: Callable[..., FloatArray]  # (d, θ, t)
    inverse: Callable[..., FloatArray]  # (d, θ, y)
    step: Callable[..., FloatArray]  # (d, c, θ, t_prev, T_prev)
    lifespan: Callable[..., FloatArray]  # (θ)
    mean_absence: Callable[..., FloatArray]  # (d, θ)
    make: Callable[[float, int], LifeFunction]  # (θ, d)
    #: ``θ`` must be finite and exceed this: ``L > 0``, or ``a > 1``.
    param_floor: float = 0.0


_POLY = dict(survival=_poly_survival, inverse=_poly_inverse, step=_poly_step,
             lifespan=_finite_lifespan, mean_absence=_poly_mean_absence)

#: The Section 4 families by table name; ``"uniform"`` is ``"poly"`` at d = 1.
FAMILY_TABLE: dict[str, FamilyKernels] = {
    "uniform": FamilyKernels(**_POLY, make=lambda L, d: UniformRisk(L)),
    "poly": FamilyKernels(**_POLY, make=lambda L, d: PolynomialRisk(d, L)),
    "geomdec": FamilyKernels(
        _geomdec_survival, _geomdec_inverse, _geomdec_step, _geomdec_lifespan,
        _geomdec_mean_absence, lambda a, d: GeometricDecreasingLifespan(a), param_floor=1.0,
    ),
    "geominc": FamilyKernels(
        _geominc_survival, _geominc_inverse, _geominc_step, _finite_lifespan,
        _geominc_mean_absence, lambda L, d: GeometricIncreasingRisk(L),
    ),
}


def make(family: str, theta: float, d: int = 1) -> LifeFunction:
    """The life function of table family ``family`` at parameter ``θ``.

    ``d`` is read only by ``"poly"``.  Raises ``ValueError`` on a name
    outside :data:`FAMILY_TABLE`.
    """
    row = FAMILY_TABLE.get(family)
    if row is None:
        raise ValueError(
            f"unknown Section 4 family {family!r}; expected one of {sorted(FAMILY_TABLE)}"
        )
    return row.make(float(theta), int(d))


def family_of(p: object) -> Optional[tuple[str, int, float]]:
    """Map ``p`` onto its table coordinates ``(family, d, θ)``; ``None`` if unmapped.

    Exact types only: a subclass may override evaluation, so it takes the
    generic p/p'/p^{-1} paths, as do Weibull, Pareto and fitted or
    transformed functions.
    """
    kind = type(p)
    if kind is UniformRisk:
        return "uniform", 1, p.lifespan
    if kind is PolynomialRisk:
        return "poly", p.d, p.lifespan
    if kind is GeometricDecreasingLifespan:
        return "geomdec", 1, p.a
    if kind is GeometricIncreasingRisk:
        return "geominc", 1, p.lifespan
    return None
