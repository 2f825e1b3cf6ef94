"""Content-addressed tuned-config artifacts under ``runs/tuned/``.

A :class:`TunedArtifact` is the durable output of one tuning search:
the winning knob values for one (experiment, N, device) scenario, plus
the full trial table that justified them.  Artifacts are keyed by
:func:`tuned_key` — a sha256 over the scenario identity, the knob grids
searched, and the code fingerprint — so a tuned config can never be
applied to a scenario, knob space, or code tree it wasn't measured on:
any of those changing changes the key, and the harness simply finds no
artifact and falls back to defaults until someone re-tunes.

Writes are atomic (unique-per-writer temp name + rename, the same
pattern as :mod:`repro.harness.store`), so concurrent tuners on the
same key can race freely: readers see either the old artifact or the
new one, never a torn file.
"""

from __future__ import annotations

import dataclasses
import json
import os
import time
import uuid
from pathlib import Path
from typing import Any, Iterable, Mapping

from repro.tune.context import config_fingerprint
from repro.tune.spec import validate_values

__all__ = [
    "TUNED_DIR",
    "TunedArtifact",
    "TunedAssignment",
    "TunedStore",
    "merge_for_experiment",
    "tuned_key",
]

#: subdirectory of the runs root holding tuned-config artifacts
TUNED_DIR = "tuned"

SCHEMA = "repro.tuned/1"

#: how the artifact's values were chosen
SOURCE_SEARCH = "search"
SOURCE_BUDGET_EXHAUSTED = "budget-exhausted"
SOURCE_PROBE_FAILED = "probe-failed"


def tuned_key(
    *,
    scenario_id: str,
    experiment_id: str,
    device: str,
    n: int,
    quick: bool,
    knob_grids: Mapping[str, Iterable[Any]],
    code_fingerprint: str,
) -> str:
    """Content address of one tuning problem (not its answer).

    Includes the candidate grids: widening a knob's grid is a new
    search problem, so stale narrow-grid winners don't shadow it.
    """
    import hashlib

    payload = json.dumps(
        {
            "scenario_id": scenario_id,
            "experiment_id": experiment_id,
            "device": device,
            "n": n,
            "quick": quick,
            "knobs": {name: list(grid) for name, grid in sorted(knob_grids.items())},
            "code": code_fingerprint,
        },
        sort_keys=True,
        default=str,
    )
    return hashlib.sha256(payload.encode()).hexdigest()


@dataclasses.dataclass(frozen=True)
class TunedArtifact:
    """The persisted outcome of one scenario's tuning search."""

    key: str
    scenario_id: str
    experiment_id: str
    device: str
    n: int
    quick: bool
    #: knob names that were searched
    knobs: tuple[str, ...]
    #: winning values, scoped ``"<device>/<knob>"``; empty when the
    #: defaults won (nothing to apply, but the search is still recorded)
    values: dict[str, Any]
    #: content fingerprint of ``values`` (joins the run record)
    fingerprint: str
    #: what was optimized: ``wall`` (host seconds) or ``sim`` (modeled)
    objective: str
    #: metric name the numbers below are in (e.g. ``steps_per_second``)
    metric: str
    default_metric: float
    best_metric: float
    speedup: float
    #: search | budget-exhausted | probe-failed
    source: str
    probes_run: int
    #: per-candidate trial rows: {values, metric, accuracy, probes}
    trials: tuple[dict[str, Any], ...]
    code_fingerprint: str
    created: float

    def to_dict(self) -> dict[str, Any]:
        out = dataclasses.asdict(self)
        out["schema"] = SCHEMA
        out["knobs"] = list(self.knobs)
        out["trials"] = [dict(t) for t in self.trials]
        return out

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "TunedArtifact":
        fields = {f.name for f in dataclasses.fields(cls)}
        kwargs = {k: v for k, v in data.items() if k in fields}
        kwargs["knobs"] = tuple(kwargs.get("knobs", ()))
        kwargs["trials"] = tuple(dict(t) for t in kwargs.get("trials", ()))
        kwargs["values"] = dict(kwargs.get("values", {}))
        art = cls(**kwargs)
        validate_values(art.values)  # a hand-edited artifact can't smuggle
        return art


class TunedStore:
    """Filesystem store for tuned-config artifacts (``<root>/tuned/``)."""

    def __init__(self, root: Path | str = "runs"):
        self.root = Path(root)
        self.dir = self.root / TUNED_DIR

    def path(self, key: str) -> Path:
        return self.dir / f"{key}.json"

    def save(self, artifact: TunedArtifact) -> Path:
        path = self.path(artifact.key)
        path.parent.mkdir(parents=True, exist_ok=True)
        # unique-per-writer temp name: concurrent tuners on the same key
        # must never rename through a shared temp file
        tmp = path.with_name(
            f"{path.name}.{os.getpid()}-{uuid.uuid4().hex[:8]}.tmp"
        )
        tmp.write_text(json.dumps(artifact.to_dict(), indent=2, sort_keys=True) + "\n")
        tmp.replace(path)
        return path

    def load(self, key: str) -> TunedArtifact | None:
        path = self.path(key)
        if not path.exists():
            return None
        try:
            data = json.loads(path.read_text())
            return TunedArtifact.from_dict(data)
        except (OSError, json.JSONDecodeError, TypeError, KeyError, ValueError):
            return None  # torn/stale/hand-broken artifact reads as absent

    def list_keys(self) -> list[str]:
        if not self.dir.is_dir():
            return []
        return sorted(p.stem for p in self.dir.glob("*.json"))

    def delete(self, key: str) -> bool:
        try:
            self.path(key).unlink()
            return True
        except FileNotFoundError:
            return False

    def iter_artifacts(self) -> Iterable[TunedArtifact]:
        for key in self.list_keys():
            art = self.load(key)
            if art is not None:
                yield art


@dataclasses.dataclass(frozen=True)
class TunedAssignment:
    """Merged tuned values ready to attach to one experiment's jobs."""

    keys: tuple[str, ...]
    fingerprint: str
    values: dict[str, Any]


def merge_for_experiment(
    store: TunedStore,
    experiment_id: str,
    *,
    quick: bool,
    code_fingerprint: str,
) -> TunedAssignment | None:
    """All applicable artifacts for one experiment, merged.

    Matches on (experiment, quick, code fingerprint) — a config tuned
    against other code, or at the other problem size, never applies.
    Later scenario ids win key collisions, but scenarios are
    device-scoped so collisions don't occur in practice.
    """
    matching = sorted(
        (
            art
            for art in store.iter_artifacts()
            if art.experiment_id == experiment_id
            and art.quick == quick
            and art.code_fingerprint == code_fingerprint
        ),
        key=lambda art: art.scenario_id,
    )
    if not matching:
        return None
    values: dict[str, Any] = {}
    for art in matching:
        values.update(art.values)
    return TunedAssignment(
        keys=tuple(art.key for art in matching),
        fingerprint=config_fingerprint(values),
        values=values,
    )


def make_artifact(
    *,
    key: str,
    scenario_id: str,
    experiment_id: str,
    device: str,
    n: int,
    quick: bool,
    knobs: Iterable[str],
    values: Mapping[str, Any],
    objective: str,
    metric: str,
    default_metric: float,
    best_metric: float,
    source: str,
    probes_run: int,
    trials: Iterable[Mapping[str, Any]],
    code_fingerprint: str,
) -> TunedArtifact:
    """Assemble + validate an artifact (the one construction path)."""
    values = dict(values)
    validate_values(values)
    speedup = best_metric / default_metric if default_metric > 0 else 1.0
    return TunedArtifact(
        key=key,
        scenario_id=scenario_id,
        experiment_id=experiment_id,
        device=device,
        n=n,
        quick=quick,
        knobs=tuple(sorted(knobs)),
        values=values,
        fingerprint=config_fingerprint(values),
        objective=objective,
        metric=metric,
        default_metric=default_metric,
        best_metric=best_metric,
        speedup=speedup,
        source=source,
        probes_run=probes_run,
        trials=tuple(dict(t) for t in trials),
        code_fingerprint=code_fingerprint,
        created=time.time(),
    )
