"""Table 1 — total-runtime comparison at 2048 atoms, 10 time steps.

Rows: Opteron, Cell 1 SPE, Cell 8 SPEs, Cell PPE-only.  The paper's
absolute seconds are garbled in the source text, so the reference
column is the reconstruction documented in
:mod:`repro.experiments.paperdata`; the checks assert the ratios the
prose states explicitly.
"""

from __future__ import annotations

from repro.cell import CellDevice, PPEOnlyDevice
from repro.experiments.common import (
    PAPER_STEPS,
    ExperimentResult,
    check_band,
    normalized_total,
    paper_config,
)
from repro.experiments.paperdata import TABLE1_PAPER_SECONDS
from repro.opteron import OpteronDevice

__all__ = ["DESCRIPTION", "run"]

#: One-line roster description (``--list`` / harness job metadata).
DESCRIPTION = "Cross-device 2048-atom runtime comparison (Table 1)"


def run(n_atoms: int = 2048, n_steps: int = PAPER_STEPS) -> ExperimentResult:
    config = paper_config(n_atoms)
    devices = {
        "Opteron": OpteronDevice(),
        "Cell, 1 SPE": CellDevice(n_spes=1),
        "Cell, 8 SPEs": CellDevice(n_spes=8),
        "Cell, PPE only": PPEOnlyDevice(),
    }
    seconds: dict[str, float] = {}
    rows = []
    for label, device in devices.items():
        result = device.run(config, n_steps)
        seconds[label] = normalized_total(result, PAPER_STEPS)
        rows.append(
            (
                label,
                round(seconds[label], 4),
                TABLE1_PAPER_SECONDS[label],
            )
        )

    checks = [
        check_band(
            "table1_1spe_vs_opteron", seconds["Opteron"] / seconds["Cell, 1 SPE"]
        ),
        check_band(
            "table1_8spe_vs_opteron", seconds["Opteron"] / seconds["Cell, 8 SPEs"]
        ),
        check_band(
            "table1_ppe_vs_8spe",
            seconds["Cell, PPE only"] / seconds["Cell, 8 SPEs"],
        ),
    ]
    return ExperimentResult(
        experiment_id="table1",
        title=f"Performance comparison of MD calculations "
        f"({n_atoms} atoms, normalized to {PAPER_STEPS} steps)",
        headers=("system", "measured_s", "paper_s (reconstructed)"),
        rows=tuple(rows),
        checks=tuple(checks),
        notes=(
            "Paper seconds reconstructed from stated ratios; see "
            "repro/experiments/paperdata.py.",
        ),
    )
