"""The tuning-target sweep: gpu/mta workloads under tuned configs.

This experiment is the roster anchor for the autotuner's accelerator
scenarios (``tunesweep-gpu`` and ``tunesweep-mta`` in
:mod:`repro.tune.probe`): a tuned artifact persisted for
``experiment_id="tunesweep"`` auto-loads onto this job's runs, and its
knob values reach the workloads ambiently through
:mod:`repro.tune.context` — exactly the path a production run takes.

Untuned, every workload runs at its backend defaults; tuned, the run
record's ``tuned`` entry names the applied config and the cache key
changes with it, so tuned and untuned results never alias.  The rows
report throughput per workload plus which tuned knobs were active, and
the checks are wide positivity bands — the *strict* tuned-vs-default
gate lives in ``scripts/record_bench.py --tune`` (``BENCH_tune.json``),
where both sides are measured back to back.
"""

from __future__ import annotations

from repro.experiments.common import ExperimentResult, ShapeCheck

__all__ = ["DESCRIPTION", "run"]

#: One-line roster description (``--list`` / harness job metadata).
DESCRIPTION = "gpu/mta tuning-target sweep under the active tuned config"

#: The probe scenarios this experiment re-runs as its workloads.
_SCENARIO_IDS = ("tunesweep-gpu", "tunesweep-mta")


def run(quick: bool = False, repeats: int = 2) -> ExperimentResult:
    """Run each tuning-target workload once under the ambient config."""
    from repro.tune.context import active_values
    from repro.tune.probe import _WORKLOADS, scenario_for

    applied = active_values()
    rows = []
    checks = []
    for scenario_id in _SCENARIO_IDS:
        scenario = scenario_for(scenario_id)
        per_second, seconds, accuracy = _WORKLOADS[scenario_id](
            scenario, quick, repeats
        )
        active = sorted(
            name for name in applied
            if name.startswith(f"{scenario.device}/")
        )
        rows.append(
            (
                scenario_id,
                scenario.device,
                scenario.size(quick),
                scenario.metric,
                per_second,
                seconds,
                accuracy,
                ",".join(active) or "(defaults)",
            )
        )
        checks.append(
            ShapeCheck(
                key=f"tunesweep.{scenario.device}.positive",
                measured=per_second,
                low=0.0,
                high=1e18,  # finite so the JSON record stays standard
                paper_value=0.0,
                description=(
                    f"{scenario.device} workload throughput is finite and "
                    "positive under the active tuned config"
                ),
            )
        )
    return ExperimentResult(
        experiment_id="tunesweep",
        title="tuning-target sweep (gpu / mta)",
        headers=(
            "scenario", "device", "n", "metric", "per_second",
            "best_seconds", "accuracy", "tuned_knobs",
        ),
        rows=tuple(rows),
        checks=tuple(checks),
        notes=(
            f"{len(applied)} tuned knob value(s) ambiently active",
            "strict tuned>=default gate: scripts/record_bench.py --tune",
        ),
    )
