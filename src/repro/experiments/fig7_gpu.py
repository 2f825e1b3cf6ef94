"""Figure 7 — GPU vs Opteron runtime across atom counts.

"There is a startup cost associated with the GPU implementation ...
it is not included in these results.  However, there are other constant
and O(N) costs associated with each time step on the GPU, and these
costs are included" — reproduced by the device model's accounting
(per-step PCIe + driver costs in, one-time JIT out).  The checks assert
the crossover at small N and the ~6x win at 2048 atoms.
"""

from __future__ import annotations

from typing import Sequence

from repro.experiments.common import (
    PAPER_STEPS,
    ExperimentResult,
    check_band,
    run_device,
)
from repro.experiments.paperdata import PAPER_ATOM_COUNTS
from repro.gpu import GpuDevice
from repro.opteron import OpteronDevice
from repro.reporting import ascii_plot

__all__ = ["DESCRIPTION", "run"]

#: One-line roster description (``--list`` / harness job metadata).
DESCRIPTION = "GPU vs Opteron runtime across atom counts, with crossover (Fig 7)"


def run(
    atom_counts: Sequence[int] = PAPER_ATOM_COUNTS,
    n_steps: int = 3,
) -> ExperimentResult:
    """Sweep system sizes; functional steps = ``n_steps``, times are
    normalized to the paper's 10-step convention."""
    gpu_seconds: list[float] = []
    cpu_seconds: list[float] = []
    rows = []
    for n in atom_counts:
        _gres, gsec = run_device(GpuDevice(), n, n_steps, normalize_steps=PAPER_STEPS)
        _ores, osec = run_device(
            OpteronDevice(), n, n_steps, normalize_steps=PAPER_STEPS
        )
        gpu_seconds.append(gsec)
        cpu_seconds.append(osec)
        rows.append((n, round(osec, 4), round(gsec, 4), round(osec / gsec, 3)))

    # crossover: smallest N where the GPU wins (geometric midpoint of the
    # bracketing sizes when it flips between sweep points)
    crossover = None
    for i, n in enumerate(atom_counts):
        if cpu_seconds[i] > gpu_seconds[i]:
            if i == 0:
                crossover = float(n)
            else:
                crossover = (atom_counts[i - 1] * n) ** 0.5
            break
    if crossover is None:
        crossover = float(atom_counts[-1]) * 2  # GPU never won: fails the band

    checks = []
    if 2048 in atom_counts:
        idx = list(atom_counts).index(2048)
        checks.append(
            check_band("fig7_gpu_speedup_2048", cpu_seconds[idx] / gpu_seconds[idx])
        )
    checks.append(check_band("fig7_crossover_atoms", crossover))

    plot = ascii_plot(
        {
            "Opteron": list(zip(atom_counts, cpu_seconds)),
            "NVIDIA GPU": list(zip(atom_counts, gpu_seconds)),
        },
        logx=True,
        logy=True,
        title="Figure 7: runtime (s, 10 steps) vs number of atoms",
    )
    return ExperimentResult(
        experiment_id="fig7",
        title="Performance results on GPU vs Opteron",
        headers=("atoms", "opteron_s", "gpu_s", "gpu_speedup"),
        rows=tuple(rows),
        checks=tuple(checks),
        plot=plot,
        notes=(
            "GPU one-time setup excluded, per-step PCIe/driver costs "
            "included, exactly as the paper accounts them.",
        ),
    )
