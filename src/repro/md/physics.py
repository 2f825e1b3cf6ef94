"""Compute each trajectory once: the shared, memoized physics record.

The paper's method is one MD kernel priced on several machines.  Every
fast-path device model integrates exactly the same trajectory for a
given configuration, precision and force path; only its cost model
differs.  :func:`physics_record` therefore runs that trajectory once
per process and keeps the result in a bounded LRU memo, and
:meth:`repro.arch.device.Device.run` prices it per device.

A record is immutable: its step records are frozen dataclasses and its
final arrays are read-only.  The memo key is the full physics input —
the :class:`MDConfig` (dtype included), ``n_steps``, the force-backend
registry name and its resolved factory options — so two runs share a
record exactly when they would compute bit-identical trajectories.
:func:`memoize` gives other trajectory producers (the simulated
cluster's decomposed physics) the same bounded memo, and
:func:`clear_memo` empties all of them.
"""

from __future__ import annotations

import dataclasses
import functools
from typing import Any, Callable, Mapping

import numpy as np

from repro.md.simulation import MDConfig, MDSimulation, StepRecord

__all__ = [
    "MEMO_SIZE",
    "PhysicsRecord",
    "clear_memo",
    "frozen_copy",
    "memoize",
    "physics_record",
]

#: Trajectories kept per memo, least recently used evicted first.  A
#: paper-scale device record holds two (N, 3) arrays plus the step
#: records; a decomposed cluster record adds one exchange plan per step.
MEMO_SIZE = 16

_MEMOS: list[Any] = []


def memoize(fn: Callable) -> Callable:
    """``fn`` behind a :data:`MEMO_SIZE` LRU memo that :func:`clear_memo`
    empties.  Arguments must be hashable; exceptions are not cached."""
    memo = functools.lru_cache(maxsize=MEMO_SIZE)(fn)
    _MEMOS.append(memo)
    return memo


def clear_memo() -> None:
    """Forget every memoized trajectory in this process."""
    for memo in _MEMOS:
        memo.cache_clear()


def frozen_copy(array: np.ndarray) -> np.ndarray:
    """A read-only copy of ``array``, safe to hand to every memo hit."""
    out = np.array(array, copy=True)
    out.flags.writeable = False
    return out


@dataclasses.dataclass(frozen=True)
class PhysicsRecord:
    """One trajectory: every step's record and the final state."""

    #: ``n_steps + 1`` records, the initial state first; each carries
    #: the interacting-pair count of the force evaluation that ended it
    records: tuple[StepRecord, ...]
    final_positions: np.ndarray
    final_velocities: np.ndarray


def physics_record(
    config: MDConfig,
    n_steps: int,
    force_path: str,
    options: Mapping[str, Any] | None = None,
) -> PhysicsRecord:
    """The trajectory of ``n_steps`` steps of ``config`` through the
    ``force_path`` backend built with ``options``, computed on the
    first request and served from the memo afterwards."""
    return _physics_record(
        config, int(n_steps), force_path, tuple(sorted((options or {}).items()))
    )


@memoize
def _physics_record(
    config: MDConfig,
    n_steps: int,
    force_path: str,
    options: tuple[tuple[str, Any], ...],
) -> PhysicsRecord:
    sim = MDSimulation(config, force_backend=force_path, **dict(options))
    sim.run(n_steps)
    return PhysicsRecord(
        records=tuple(sim.records),
        final_positions=frozen_copy(sim.state.positions),
        final_velocities=frozen_copy(sim.state.velocities),
    )
