"""Wall-objective device probes time the physics on every repeat."""

from __future__ import annotations

import repro.md.physics as physics
from repro.tune.probe import probe_job


def test_timed_repeats_recompute_the_trajectory(monkeypatch):
    built = []

    class CountingSimulation(physics.MDSimulation):
        def __init__(self, *args, **kwargs):
            built.append(1)
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(physics, "MDSimulation", CountingSimulation)
    result = probe_job("table1-opteron", quick=True, repeats=2)
    assert result.all_passed
    assert len(built) == 1 + 2  # the warm-up and each timed repeat
