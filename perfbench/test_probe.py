"""Tests of the benchmark's host speed probe.

Run from the root of the repository::

    python3 -m pytest -q perfbench/test_probe.py
"""

from __future__ import annotations

import gc
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

from probe import REFERENCE_S, SpeedProbe  # noqa: E402


def test_speed_factor_is_the_reference_over_the_mean_in_the_window():
    probe = SpeedProbe()
    probe.samples = [(1.0, 9.0), (2.0, 1.0), (3.0, 3.0), (4.0, 9.0)]
    assert probe.speed_factor(2.0, 3.0) == pytest.approx(REFERENCE_S / 2.0)
    assert probe.speed_factor() == pytest.approx(REFERENCE_S / 5.5)
    with pytest.raises(ValueError):
        probe.speed_factor(5.0, 6.0)


def test_run_times_the_work_and_keeps_the_collector_state():
    probe = SpeedProbe()
    probe.run()
    assert gc.isenabled()
    gc.disable()
    try:
        probe.run()
        assert not gc.isenabled()
    finally:
        gc.enable()
    assert len(probe.samples) == 2
    assert all(taken > 0 for _, taken in probe.samples)
    assert probe.samples[0][0] <= probe.samples[1][0]
