"""Shared benchmark configuration.

Each bench file reproduces one experiment from DESIGN.md's index: it computes
the full comparison table, prints it (visible with ``-s`` or in the captured
output), asserts the paper's qualitative shape, and times a representative
kernel with pytest-benchmark.
"""

from __future__ import annotations

import numpy as np
import pytest


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(19980330)  # the IPPS'98 dates
