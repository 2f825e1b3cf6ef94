"""Figure 6 — SPE thread-launch overhead: respawn-per-step vs launch-once.

"Figure 6 shows the total runtime of the whole program, and the
percentage which is devoted to launching SPE threads" for {1, 8} SPEs
under both launch strategies.  The checks encode the prose: respawning
caps the 8-SPE speedup near 1.5x; amortizing the launch restores ~4.5x.

The ratios are properties of the paper's 2048-atom, 10-step workload;
``n_steps`` only controls how many steps run functionally — simulated
times are always normalized to the 10-step convention.
"""

from __future__ import annotations

from repro.cell import CellDevice, LaunchStrategy
from repro.experiments.common import (
    PAPER_STEPS,
    ExperimentResult,
    check_band,
    normalized_component,
    normalized_total,
    paper_config,
)

__all__ = ["DESCRIPTION", "run"]

#: One-line roster description (``--list`` / harness job metadata).
DESCRIPTION = "Thread launch-per-step vs launch-once overhead on the MTA (Fig 6)"


def run(n_atoms: int = 2048, n_steps: int = PAPER_STEPS) -> ExperimentResult:
    config = paper_config(n_atoms)
    cases = [
        ("respawn every time step", LaunchStrategy.RESPAWN_PER_STEP, 1),
        ("respawn every time step", LaunchStrategy.RESPAWN_PER_STEP, 8),
        ("launch only first time step", LaunchStrategy.LAUNCH_ONCE, 1),
        ("launch only first time step", LaunchStrategy.LAUNCH_ONCE, 8),
    ]
    totals: dict[tuple[str, int], float] = {}
    rows = []
    for label, strategy, n_spes in cases:
        device = CellDevice(n_spes=n_spes, strategy=strategy)
        result = device.run(config, n_steps)
        total = normalized_total(result, PAPER_STEPS)
        launch = normalized_component(result, "thread_launch", PAPER_STEPS)
        totals[(strategy.value, n_spes)] = total
        rows.append(
            (
                label,
                f"{n_spes} SPE" + ("s" if n_spes > 1 else ""),
                round(total, 4),
                round(launch, 4),
                f"{100.0 * launch / total:.1f}%",
            )
        )

    respawn_ratio = (
        totals[(LaunchStrategy.RESPAWN_PER_STEP.value, 1)]
        / totals[(LaunchStrategy.RESPAWN_PER_STEP.value, 8)]
    )
    amortized_ratio = (
        totals[(LaunchStrategy.LAUNCH_ONCE.value, 1)]
        / totals[(LaunchStrategy.LAUNCH_ONCE.value, 8)]
    )
    checks = [
        check_band("fig6_respawn_8v1", respawn_ratio),
        check_band("fig6_amortized_8v1", amortized_ratio),
    ]
    return ExperimentResult(
        experiment_id="fig6",
        title=f"SPE launch overhead ({n_atoms} atoms, normalized to "
        f"{PAPER_STEPS} steps)",
        headers=("strategy", "spes", "total_s", "launch_s", "launch_share"),
        rows=tuple(rows),
        checks=tuple(checks),
        notes=(
            "Launch-once amortizes thread creation across all steps via "
            "mailbox signalling, as in the paper's fix.",
        ),
    )
