"""Ambient observation sessions: observe many runs without plumbing.

The harness ``--trace``/``--counters`` path must observe every
``Device.run`` inside an experiment function without changing any
experiment signature.  :func:`collect` opens an
:class:`ObservationSession` and pushes it onto a module-level stack;
``Device.run`` (when not given an explicit ``observe=`` argument) asks
:func:`ambient_observation` for a fresh per-run
:class:`~repro.obs.observe.Observation` from the innermost active
session.  With no session active, :func:`ambient_observation` returns
``None`` and the run is completely unobserved.

The stack is intentionally not thread- or task-local: the simulators
are single-threaded, and harness workers each run in their own process.
"""

from __future__ import annotations

import contextlib
from typing import Any, Iterator

from repro.obs.counters import CounterSet
from repro.obs.observe import Observation
from repro.obs.trace import chrome_trace

__all__ = ["ObservationSession", "ambient_observation", "collect"]


class ObservationSession:
    """Observations from every device run inside one ``collect()`` block."""

    __slots__ = ("runs",)

    def __init__(self) -> None:
        #: per-run observations in start order
        self.runs: list[Observation] = []

    def new_observation(self, device: str) -> Observation:
        prior = sum(
            1 for o in self.runs
            if o.device == device or o.device.startswith(device + "#")
        )
        name = device if prior == 0 else f"{device}#{prior + 1}"
        obs = Observation(device=name)
        self.runs.append(obs)
        return obs

    def merged_counters(self) -> dict[str, float]:
        """All runs' counters, keyed ``{device}/{counter}``, summed."""
        merged = CounterSet()
        out: dict[str, float] = {}
        for obs in self.runs:
            for name, value in obs.counters.as_dict().items():
                merged.add(name, value)  # validates, keeps totals coherent
                key = f"{obs.device}/{name}"
                out[key] = out.get(key, 0.0) + value
        return dict(sorted(out.items()))

    def total_counters(self) -> dict[str, float]:
        """All runs' counters summed per counter name (no device key)."""
        merged = CounterSet()
        for obs in self.runs:
            merged.merge(obs.counters)
        return merged.as_dict()

    def chrome_trace(self) -> dict[str, Any]:
        """All runs as one trace-event doc, one process per run."""
        return chrome_trace([(obs.device, obs.tracer) for obs in self.runs])


_ACTIVE: list[ObservationSession] = []


@contextlib.contextmanager
def collect() -> Iterator[ObservationSession]:
    """Observe every ``Device.run`` executed inside the block."""
    session = ObservationSession()
    _ACTIVE.append(session)
    try:
        yield session
    finally:
        _ACTIVE.remove(session)


def ambient_observation(device: str) -> Observation | None:
    """A fresh Observation from the innermost session, or ``None``."""
    if not _ACTIVE:
        return None
    return _ACTIVE[-1].new_observation(device)
