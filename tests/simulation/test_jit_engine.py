"""The Monte-Carlo estimators no longer have a ``jit`` episode engine.

``"vectorized"`` and ``"scalar"`` are the registered engines; ``"jit"`` is
refused like any other unknown name.
"""

from __future__ import annotations

import pytest

import repro
from repro.simulation import estimate_expected_work, estimate_policy_work
from repro.simulation.episode import ENGINES


def test_unknown_engine_rejected():
    p, c = repro.UniformRisk(100.0), 1.0
    schedule = repro.guideline_schedule(p, c).schedule
    assert "jit" not in ENGINES
    for engine in ("cuda", "jit"):
        with pytest.raises(ValueError, match="engine"):
            estimate_expected_work(schedule, p, c, n=10, engine=engine)
        with pytest.raises(ValueError, match="engine"):
            estimate_policy_work(lambda e: None, p, c, n=10, engine=engine)
