"""Figure 5 — SIMD optimization ladder of the SPE acceleration kernel.

"Figure 5 shows the runtime of the acceleration computation function
for 2048 atoms, when running on a single SPE, across various SIMD
optimizations."  This experiment runs the MD workload once per
optimization level on a 1-SPE Cell device and reports the simulated
runtime of the acceleration kernel alone (the ``spe_kernel`` component),
then checks every prose claim about the ladder.
"""

from __future__ import annotations

from repro.cell import OPT_LEVELS, CellDevice
from repro.experiments.common import (
    PAPER_STEPS,
    ExperimentResult,
    check_band,
    paper_config,
)
from repro.experiments.paperdata import FIG5_CUMULATIVE_SPEEDUP

__all__ = ["DESCRIPTION", "run"]

#: One-line roster description (``--list`` / harness job metadata).
DESCRIPTION = "SIMD optimization ladder of the SPE acceleration kernel (Fig 5)"

_STEP_BAND_KEYS = {
    "copysign": "fig5_copysign_gain",
    "simd_direction": "fig5_direction_gain",
    "simd_length": "fig5_length_gain",
    "simd_acceleration": "fig5_acceleration_gain",
}


def run(n_atoms: int = 2048, n_steps: int = PAPER_STEPS) -> ExperimentResult:
    config = paper_config(n_atoms)
    kernel_seconds: dict[str, float] = {}
    for level in OPT_LEVELS:
        device = CellDevice(n_spes=1, opt_level=level)
        result = device.run(config, n_steps)
        kernel_seconds[level] = result.component("spe_kernel")

    original = kernel_seconds["original"]
    rows = []
    for level in OPT_LEVELS:
        seconds = kernel_seconds[level]
        rows.append(
            (
                level,
                round(seconds, 4),
                round(original / seconds, 3),
                FIG5_CUMULATIVE_SPEEDUP[level],
            )
        )

    checks = [
        check_band(
            "fig5_copysign_gain",
            kernel_seconds["original"] / kernel_seconds["copysign"],
        ),
        check_band(
            "fig5_reflection_cumulative",
            kernel_seconds["original"] / kernel_seconds["simd_reflection"],
        ),
        check_band(
            "fig5_direction_gain",
            kernel_seconds["simd_reflection"] / kernel_seconds["simd_direction"],
        ),
        check_band(
            "fig5_length_gain",
            kernel_seconds["simd_direction"] / kernel_seconds["simd_length"],
        ),
        check_band(
            "fig5_acceleration_gain",
            kernel_seconds["simd_length"] / kernel_seconds["simd_acceleration"],
        ),
    ]
    return ExperimentResult(
        experiment_id="fig5",
        title=f"SPE SIMD optimization ladder ({n_atoms} atoms, 1 SPE, "
        f"{n_steps} steps, acceleration kernel only)",
        headers=("level", "kernel_s", "cumulative_speedup", "paper_cumulative"),
        rows=tuple(rows),
        checks=tuple(checks),
        notes=(
            "Runtimes are simulated SPE cycles from the scheduled "
            "instruction streams of the six kernel variants.",
        ),
    )
