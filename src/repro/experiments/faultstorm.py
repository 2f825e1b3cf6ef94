"""Fault-storm chaos run — the robustness certification experiment.

Every device model runs the same workload twice: once clean, once under
a seeded :class:`repro.faults.FaultPlan` storm.  The experiment then
checks the three-part contract of the fault plane:

* **accounting** — every injected fault appears in the event log as
  recovered (none aborted, none silently lost),
* **bit-faithful recovery** — the faulted run's final positions are
  *exactly* the clean run's (retries re-read pristine data, checkpoint
  restores replay deterministically),
* **priced recovery** — the only lasting damage is simulated wall-clock:
  the faulted run must be strictly slower than the clean one.

Passing a zero-rate plan (``--fault-plan none``) flips the experiment
into its differential mode: it then certifies that merely *arming* the
fault plane perturbs nothing — timings equal the clean run to the bit.
"""

from __future__ import annotations

from typing import Any, Mapping

import numpy as np

from repro.cell.device import CellDevice
from repro.experiments.common import ExperimentResult, ShapeCheck, paper_config
from repro.faults import FaultPlan
from repro.gpu.device import GpuDevice
from repro.mta.device import MTADevice

__all__ = ["DESCRIPTION", "run"]

#: One-line roster description (``--list`` / harness job metadata).
DESCRIPTION = "fault-storm chaos run: inject/detect/recover on every device model"


def _device_factories():
    return (
        ("cell", lambda: CellDevice(n_spes=8)),
        ("gpu", lambda: GpuDevice()),
        ("mta", lambda: MTADevice()),
    )


def run(
    n_atoms: int = 256,
    n_steps: int = 12,
    fault_plan: Mapping[str, Any] | None = None,
) -> ExperimentResult:
    """Clean-vs-storm comparison across the device roster.

    ``fault_plan`` is the JSON-native ``FaultPlan.to_dict()`` form (the
    harness ships it through job params); ``None`` selects the default
    seeded storm.
    """
    plan = FaultPlan.from_dict(fault_plan) if fault_plan else FaultPlan.storm()
    config = paper_config(n_atoms)

    rows = []
    all_accounted = True
    total_injected = 0
    total_aborted = 0
    max_deviation = 0.0
    min_slowdown = float("inf")
    for label, make in _device_factories():
        clean = make().run(config, n_steps)
        faulted = make().run(config, n_steps, faults=plan)
        summary = dict(faulted.fault_summary)
        injected = int(summary.get("injected", 0))
        recovered = int(summary.get("recovered", 0))
        aborted = int(summary.get("aborted", 0))
        restores = int(summary.get("restores", 0))
        accounted = bool(summary.get("fully_accounted", True))
        deviation = float(
            np.max(np.abs(faulted.final_positions - clean.final_positions))
        )
        slowdown = faulted.total_seconds / clean.total_seconds

        all_accounted = all_accounted and accounted
        total_injected += injected
        total_aborted += aborted
        max_deviation = max(max_deviation, deviation)
        min_slowdown = min(min_slowdown, slowdown)
        rows.append(
            (
                label,
                injected,
                recovered,
                restores,
                aborted,
                round(clean.total_seconds, 6),
                round(faulted.total_seconds, 6),
                round(slowdown, 4),
                deviation,
            )
        )

    zero = plan.is_zero
    checks = (
        ShapeCheck(
            key="faults_accounted",
            measured=1.0 if (all_accounted and (zero or total_injected > 0)) else 0.0,
            low=1.0,
            high=1.0,
            paper_value=1.0,
            description="every injected fault detected and recovered "
            "(event log fully accounted on every device)",
        ),
        ShapeCheck(
            key="faults_bit_identity",
            measured=max_deviation,
            low=0.0,
            high=0.0,
            paper_value=0.0,
            description="recovery restores the clean trajectory exactly "
            "(max |dx| vs clean run across devices)",
        ),
        ShapeCheck(
            key="faults_slowdown",
            # A zero-rate plan must cost nothing: the ratio is then
            # required to be exactly 1 (arming the plane is free).
            measured=min_slowdown,
            low=1.0 if zero else 1.0 + 1e-12,
            high=1.0 if zero else 1.0e3,
            paper_value=1.0,
            description="recovery is charged in simulated time only "
            "(min faulted/clean runtime ratio across devices)"
            + (" — zero-rate plan must cost exactly nothing" if zero else ""),
        ),
    )
    mode = "zero-rate differential" if zero else f"storm seed {plan.seed}"
    return ExperimentResult(
        experiment_id="faults",
        title=f"fault-storm chaos run ({n_atoms} atoms, {n_steps} steps, {mode})",
        headers=(
            "device",
            "injected",
            "recovered",
            "restores",
            "aborted",
            "clean_s",
            "faulted_s",
            "slowdown",
            "max_dx_vs_clean",
        ),
        rows=tuple(rows),
        checks=checks,
        notes=(
            "Functional physics is bit-identical between clean and faulted "
            "runs by construction; faults cost simulated wall-clock via the "
            "fault_recovery breakdown component.",
            f"{total_injected} fault(s) injected, {total_aborted} aborted "
            "across the roster.",
        ),
    )
