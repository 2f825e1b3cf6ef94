"""Long-running resumable MD job — the service's durability workload.

Runs the paper's LJ liquid for ``n_steps`` and persists a
step-granular :class:`repro.faults.checkpoint.Checkpoint` to
``checkpoint_path`` every ``checkpoint_interval`` steps (atomic
write-then-rename, JSON-native, bit-exact on reload).  If the file
already exists at startup the run *resumes* from it instead of starting
over — which is exactly what happens when the service's scheduler
retries a job whose worker process was killed mid-run: the retry picks
up at the last checkpoint and the final state is bit-identical to an
uninterrupted run.

``crash_at_step`` is the deliberate fault hook behind that guarantee's
test: on a fresh (non-resumed) run it SIGKILLs the hosting process the
moment the step counter reaches it — after the scheduled checkpoints
below it were written, exactly like a real OOM-kill.  Only ever pass it
to a job running in a disposable worker process (the harness scheduler
with ``max_workers >= 1``); inline it would kill the caller.

Without ``checkpoint_path`` the experiment is just a longer MD run with
energy-conservation shape checks — every front-end can run it; only the
service wires the persistence in (keyed by the job's cache key).
"""

from __future__ import annotations

import hashlib
import json
import os
import signal
import uuid
from pathlib import Path

import numpy as np

from repro.experiments.common import ExperimentResult, ShapeCheck
from repro.faults.checkpoint import Checkpoint
from repro.md.simulation import MDConfig, MDSimulation

__all__ = ["DESCRIPTION", "run"]

#: One-line roster description (``--list`` / harness job metadata).
DESCRIPTION = (
    "long-running resumable MD job: persisted step-granular checkpoints, "
    "bit-identical resume after a worker kill"
)


def _write_checkpoint(path: Path, checkpoint: Checkpoint) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(f"{path.name}.{os.getpid()}-{uuid.uuid4().hex[:8]}.tmp")
    tmp.write_text(
        json.dumps(checkpoint.to_dict(), sort_keys=True) + "\n"
    )
    tmp.replace(path)


def _load_checkpoint(path: Path) -> Checkpoint | None:
    try:
        return Checkpoint.from_dict(json.loads(path.read_text()))
    except (OSError, json.JSONDecodeError, KeyError, ValueError):
        # A torn or foreign file restarts the run instead of crashing it.
        return None


def run(
    n_atoms: int = 256,
    n_steps: int = 24,
    checkpoint_interval: int = 5,
    checkpoint_path: str | None = None,
    crash_at_step: int | None = None,
) -> ExperimentResult:
    """Run (or resume) the long job; see the module docstring."""
    if n_steps < 1:
        raise ValueError("n_steps must be >= 1")
    if checkpoint_interval < 1:
        raise ValueError("checkpoint_interval must be >= 1")

    sim = MDSimulation(MDConfig(n_atoms=n_atoms))
    path = Path(checkpoint_path) if checkpoint_path else None
    resumed_from: int | None = None
    if path is not None and path.exists():
        checkpoint = _load_checkpoint(path)
        if checkpoint is not None and 0 < checkpoint.step <= n_steps:
            sim.restore(checkpoint)
            resumed_from = checkpoint.step

    checkpoints_written = 0
    while sim.step_count < n_steps:
        sim.step()
        if path is not None and sim.step_count % checkpoint_interval == 0:
            _write_checkpoint(path, sim.snapshot())
            checkpoints_written += 1
        if (
            crash_at_step is not None
            and resumed_from is None
            and sim.step_count >= crash_at_step
        ):
            # The deliberate mid-run kill: no cleanup, no flush — the
            # process dies exactly as hard as a real OOM-kill would.
            os.kill(os.getpid(), signal.SIGKILL)

    drift = sim.energy_drift()
    final = sim.state.positions
    digest = hashlib.sha256(np.ascontiguousarray(final).tobytes()).hexdigest()
    finite = bool(np.all(np.isfinite(final)))

    checks = (
        ShapeCheck(
            key="longrun_completed",
            measured=float(sim.step_count) / float(n_steps),
            low=1.0,
            high=1.0,
            paper_value=1.0,
            description=f"all {n_steps} steps completed (resume included)",
        ),
        ShapeCheck(
            key="longrun_energy_drift",
            measured=drift,
            low=0.0,
            high=0.02,
            paper_value=0.0,
            description="relative total-energy drift stays small over the "
            "long run (velocity Verlet conserves energy)",
        ),
        ShapeCheck(
            key="longrun_finite",
            measured=1.0 if finite else 0.0,
            low=1.0,
            high=1.0,
            paper_value=1.0,
            description="final dynamical state is finite",
        ),
    )
    mode = (
        f"resumed from step {resumed_from}" if resumed_from is not None
        else "fresh"
    )
    return ExperimentResult(
        experiment_id="longrun",
        title=(
            f"resumable long job ({n_atoms} atoms, {n_steps} steps, "
            f"checkpoint every {checkpoint_interval}, {mode})"
        ),
        headers=("quantity", "value"),
        rows=(
            ("steps_completed", sim.step_count),
            ("resumed_from_step", -1 if resumed_from is None else resumed_from),
            ("checkpoints_written", checkpoints_written),
            ("energy_drift", drift),
            ("final_total_energy", float(sim.records[-1].total_energy)),
            ("final_positions_sha256", digest),
        ),
        checks=checks,
        notes=(
            "final_positions_sha256 is the bit-identity witness: a "
            "crashed-and-resumed run must reproduce the uninterrupted "
            "run's digest exactly.",
            "checkpoints persist under the job's content-addressed cache "
            "key when run through repro.service.",
        ),
    )
