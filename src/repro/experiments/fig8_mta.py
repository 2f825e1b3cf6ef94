"""Figure 8 — fully vs partially multithreaded MD on the MTA-2.

The partially multithreaded version is the original source, whose force
loop the compiler refuses to parallelize (the reduction dependence);
the fully multithreaded version carries the paper's restructuring +
pragma.  Checks: the fully multithreaded version wins by roughly the
single-stream issue gap, and the absolute gap grows with the atom count
("the performance difference increases with the increase in the number
of atoms").
"""

from __future__ import annotations

from typing import Sequence

from repro.experiments.common import (
    PAPER_STEPS,
    ExperimentResult,
    ShapeCheck,
    check_band,
    run_device,
)
from repro.experiments.paperdata import PAPER_ATOM_COUNTS
from repro.mta import MTADevice
from repro.reporting import ascii_plot

__all__ = ["DESCRIPTION", "run"]

#: One-line roster description (``--list`` / harness job metadata).
DESCRIPTION = "Fully vs partially multithreaded MTA runtime sweep (Fig 8)"


def run(
    atom_counts: Sequence[int] = PAPER_ATOM_COUNTS[:6],
    n_steps: int = 2,
) -> ExperimentResult:
    full_seconds: list[float] = []
    partial_seconds: list[float] = []
    rows = []
    for n in atom_counts:
        _fres, fsec = run_device(
            MTADevice(fully_multithreaded=True), n, n_steps, normalize_steps=PAPER_STEPS
        )
        _pres, psec = run_device(
            MTADevice(fully_multithreaded=False),
            n,
            n_steps,
            normalize_steps=PAPER_STEPS,
        )
        full_seconds.append(fsec)
        partial_seconds.append(psec)
        rows.append((n, round(fsec, 3), round(psec, 3), round(psec / fsec, 2)))

    gaps = [p - f for p, f in zip(partial_seconds, full_seconds)]
    gap_growing = all(b > a for a, b in zip(gaps, gaps[1:]))
    checks = [
        check_band(
            "fig8_partial_vs_full", partial_seconds[-1] / full_seconds[-1]
        ),
        ShapeCheck(
            key="fig8_gap_growth",
            measured=1.0 if gap_growing else 0.0,
            low=1.0,
            high=1.0,
            paper_value=1.0,
            description="absolute full-vs-partial gap grows with atom count",
        ),
    ]
    plot = ascii_plot(
        {
            "Fully Multithreaded": list(zip(atom_counts, full_seconds)),
            "Partially Multithreaded": list(zip(atom_counts, partial_seconds)),
        },
        logx=True,
        logy=True,
        title="Figure 8: MTA-2 runtime (s, 10 steps) vs number of atoms",
    )
    return ExperimentResult(
        experiment_id="fig8",
        title="Fully vs partially multithreaded MD kernel on the MTA-2",
        headers=("atoms", "fully_mt_s", "partially_mt_s", "slowdown"),
        rows=tuple(rows),
        checks=tuple(checks),
        plot=plot,
        notes=(
            "The compiler's refusal reason for the partial version: "
            "loop-carried dependence on the PE reduction (see "
            "repro.mta.compiler).",
        ),
    )
