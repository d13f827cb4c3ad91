"""The retired ``jit`` engine stays retired.

The numba kernels and every ``engine=`` switch that selected them were removed;
the NumPy recurrences are the only path.  This checks that naming ``"jit"``
(or any other unknown engine) is refused rather than silently accepted.
"""

from __future__ import annotations

import importlib

import numpy as np
import pytest

import repro
from repro.core.batch_recurrence import batch_expected_work, generate_schedules_batch
from repro.core.hetero_recurrence import generate_schedules_hetero


def test_unknown_engine_rejected():
    p = repro.UniformRisk(100.0)
    for engine in ("cuda", "jit"):
        with pytest.raises(TypeError):
            generate_schedules_batch(p, 1.0, [5.0], engine=engine)
        with pytest.raises(TypeError):
            generate_schedules_hetero(
                "uniform", np.array([1.0]), np.array([100.0]), np.array([5.0]),
                engine=engine,
            )
        with pytest.raises(TypeError):
            batch_expected_work(np.array([[5.0]]), p, 1.0, engine=engine)
        with pytest.raises(ValueError, match="engine"):
            repro.optimize_t0_via_recurrence(p, 1.0, engine=engine)
    with pytest.raises(ImportError):
        importlib.import_module("repro.jitkernels")
