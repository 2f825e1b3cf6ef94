"""Closed-loop autotuning over the harness and the counter stream.

The paper's per-device throughput hinges on hand-picked parameters —
SPE row partition, GPU batch width, MTA stream count, VM backend —
and the related Cell/GPU MD ports show such knobs swing throughput by
integer factors.  This package closes the loop the observability layer
opened: each backend *declares* its tunable knobs in a typed
:class:`~repro.tune.spec.TunableSpec` registry, the tuner runs short
measured probes per (experiment, N, device) scenario, and the winning
configuration is persisted as a content-addressed artifact under
``runs/tuned/`` that the harness CLI and the service
worker auto-load on subsequent runs (``--no-tuned`` opts out).

Only knobs that cannot change trajectories are registrable: a
``TunableSpec`` with ``affects_physics=True`` (dtype, cutoff, ...) is
rejected at registration, so a tuned run always passes the shape-band
diff gate against its untuned twin.
"""

from repro.tune.artifact import (
    TunedArtifact,
    TunedAssignment,
    TunedStore,
    merge_for_experiment,
    tuned_key,
)
from repro.tune.context import applied, config_fingerprint, tuned_value
from repro.tune.spec import (
    TunableSpec,
    all_tunables,
    ensure_declared,
    register_tunable,
    tunable,
    validate_values,
)

# probe/search import the experiment and device layers, which import
# tune.spec to declare their knobs — loading them here would recurse
# through this package's own __init__.  Resolve them lazily instead.
_LAZY = {
    "SCENARIOS": "repro.tune.probe",
    "TuneScenario": "repro.tune.probe",
    "probe_job": "repro.tune.probe",
    "scenario_for": "repro.tune.probe",
    "TuneOutcome": "repro.tune.search",
    "candidates_for": "repro.tune.search",
    "tune_scenario": "repro.tune.search",
    "tune_scenarios": "repro.tune.search",
}

__all__ = [
    "TunableSpec",
    "TunedArtifact",
    "TunedAssignment",
    "TunedStore",
    "all_tunables",
    "applied",
    "config_fingerprint",
    "ensure_declared",
    "merge_for_experiment",
    "register_tunable",
    "tunable",
    "tuned_key",
    "tuned_value",
    "validate_values",
    *sorted(_LAZY),
]


def __getattr__(name: str):
    module = _LAZY.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    import importlib

    return getattr(importlib.import_module(module), name)
