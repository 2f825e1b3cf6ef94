"""The closed-loop search with an injected measurement function.

Every test drives :func:`tune_scenario` through a deterministic fake
``measure``, so the search logic (candidate enumeration, adoption gate,
fallbacks, artifact caching, counters) is exercised without running a
single real probe.
"""

from __future__ import annotations

import pytest

from repro.obs.context import collect
from repro.tune.artifact import (
    SOURCE_BUDGET_EXHAUSTED,
    SOURCE_PROBE_FAILED,
    SOURCE_SEARCH,
    TunedStore,
)
from repro.tune.probe import scenario_for
from repro.tune.search import (
    MIN_GAIN,
    ProbeError,
    candidates_for,
    tune_scenario,
    tune_scenarios,
)
from repro.tune.spec import tunable

CODE_FP = "feedc0de" * 8
MTA = scenario_for("tunesweep-mta")
STREAMS = tunable("mta.streams").candidates
#: the defaults plus one probe per stream count
PROBES = 1 + len(STREAMS)


def streams_measure(values):
    """Deterministic: 16 streams 9x, any other explicit count 3x,
    defaults 1x."""
    streams = values.get("mta/mta.streams")
    speed = 100.0 if streams is None else 900.0 if streams == 16 else 300.0
    return speed, 1.0 / speed, 0.0


class TestCandidates:
    def test_defaults_first_then_full_grid(self):
        cands = candidates_for(MTA, budget=16, key="ab" * 32)
        assert cands[0] == {}
        for streams in STREAMS:
            assert {"mta/mta.streams": streams} in cands
        assert len(cands) == PROBES

    def test_deterministic_subsample_under_budget(self):
        key = "cd" * 32
        a = candidates_for(MTA, budget=2, key=key)
        b = candidates_for(MTA, budget=2, key=key)
        assert a == b  # same key + budget => same candidate list
        assert a[0] == {} and len(a) == 2

    def test_zero_budget_admits_nothing(self):
        assert candidates_for(MTA, budget=0, key="ef" * 32) == []

    def test_multi_knob_scenario_takes_the_cartesian_product(self):
        cell = scenario_for("table1-cell")
        cands = candidates_for(cell, budget=64, key="01" * 32)
        blocks = {c.get("cell/md.block") for c in cands[1:]}
        parts = {c.get("cell/cell.partition") for c in cands[1:]}
        assert len(cands) == 1 + len(blocks) * len(parts)
        assert "cyclic" in parts and "block" in parts

    def test_vm_exec_has_no_scenario(self):
        """The drivers default to compiled and interp is slower, so a
        vm.exec search has nothing to win."""
        with pytest.raises(KeyError):
            scenario_for("tunesweep-vm")


class TestSearch:
    def test_adopts_the_fastest_candidate(self, tmp_path):
        outcome = tune_scenario(
            "tunesweep-mta", quick=True, store=TunedStore(tmp_path),
            code_fingerprint=CODE_FP, measure=streams_measure,
        )
        art = outcome.artifact
        assert not outcome.cached
        assert outcome.probes_run == PROBES
        assert art.source == SOURCE_SEARCH
        assert art.values == {"mta/mta.streams": 16}
        assert art.speedup == pytest.approx(9.0)
        assert len(art.trials) == PROBES

    def test_same_measure_twice_is_the_same_winner(self, tmp_path):
        kwargs = dict(
            quick=True, code_fingerprint=CODE_FP, measure=streams_measure,
        )
        a = tune_scenario(
            "tunesweep-mta", store=TunedStore(tmp_path / "a"), **kwargs
        ).artifact
        b = tune_scenario(
            "tunesweep-mta", store=TunedStore(tmp_path / "b"), **kwargs
        ).artifact
        assert a.key == b.key
        assert a.values == b.values
        assert a.trials == b.trials

    def test_sub_threshold_gain_keeps_the_defaults(self, tmp_path):
        def barely_faster(values):
            # 1% gain: under MIN_GAIN, so pure probe-noise risk
            speed = 101.0 if values else 100.0
            return speed, 1.0 / speed, 0.0

        assert MIN_GAIN > 0.01
        art = tune_scenario(
            "tunesweep-mta", quick=True, store=TunedStore(tmp_path),
            code_fingerprint=CODE_FP, measure=barely_faster,
        ).artifact
        assert art.source == SOURCE_SEARCH
        assert art.values == {}  # defaults stand
        assert art.speedup == pytest.approx(1.0)

    def test_cached_artifact_short_circuits(self, tmp_path):
        store = TunedStore(tmp_path)
        kwargs = dict(
            quick=True, store=store, code_fingerprint=CODE_FP,
        )
        first = tune_scenario(
            "tunesweep-mta", measure=streams_measure, **kwargs
        )

        def exploding(values):
            raise AssertionError("cached search must run zero probes")

        second = tune_scenario("tunesweep-mta", measure=exploding, **kwargs)
        assert second.cached and second.probes_run == 0
        assert second.artifact == first.artifact

    def test_force_reruns_past_a_cached_artifact(self, tmp_path):
        store = TunedStore(tmp_path)
        kwargs = dict(
            quick=True, store=store, code_fingerprint=CODE_FP,
            measure=streams_measure,
        )
        tune_scenario("tunesweep-mta", **kwargs)
        again = tune_scenario("tunesweep-mta", force=True, **kwargs)
        assert not again.cached and again.probes_run == PROBES


class TestFallbacks:
    def test_zero_budget_degrades_to_defaults(self, tmp_path):
        art = tune_scenario(
            "tunesweep-mta", quick=True, budget=0,
            store=TunedStore(tmp_path), code_fingerprint=CODE_FP,
            measure=streams_measure,
        ).artifact
        assert art.source == SOURCE_BUDGET_EXHAUSTED
        assert art.values == {}
        assert art.speedup == pytest.approx(1.0)

    def test_failed_baseline_degrades_to_defaults(self, tmp_path):
        def always_fails(values):
            raise ProbeError("probe tune-x failed:\nboom")

        store = TunedStore(tmp_path)
        outcome = tune_scenario(
            "tunesweep-mta", quick=True, store=store,
            code_fingerprint=CODE_FP, measure=always_fails,
        )
        art = outcome.artifact
        assert art.source == SOURCE_PROBE_FAILED
        assert art.values == {}
        assert outcome.probes_run == PROBES  # every probe was attempted
        assert all(not t["ok"] for t in art.trials)
        # the fallback is persisted: the next call is a cache hit
        assert store.load(art.key) is not None

    def test_fallback_artifact_still_short_circuits_later(self, tmp_path):
        store = TunedStore(tmp_path)
        kwargs = dict(
            quick=True, budget=0, store=store, code_fingerprint=CODE_FP,
            measure=streams_measure,
        )
        tune_scenario("tunesweep-mta", **kwargs)
        assert tune_scenario("tunesweep-mta", **kwargs).cached


class TestTuneScenarios:
    def test_filters_to_named_scenarios(self, tmp_path):
        outcomes = tune_scenarios(
            ["tunesweep-mta"], quick=True, store=TunedStore(tmp_path),
            code_fingerprint=CODE_FP,
        )
        # injected measure is per-scenario only via tune_scenario, so
        # this goes through the real probe path — keep it to the fast
        # simulated-time MTA scenario and just assert the shape of the
        # outcome map
        assert list(outcomes) == ["tunesweep-mta"]
        assert outcomes["tunesweep-mta"].artifact.scenario_id == "tunesweep-mta"

    def test_unknown_scenario_raises(self, tmp_path):
        with pytest.raises(KeyError):
            tune_scenarios(
                ["tunesweep-quantum"], quick=True,
                store=TunedStore(tmp_path), code_fingerprint=CODE_FP,
            )


class TestCounters:
    def test_search_charges_tune_counters(self, tmp_path):
        with collect() as session:
            tune_scenario(
                "tunesweep-mta", quick=True, store=TunedStore(tmp_path),
                code_fingerprint=CODE_FP, measure=streams_measure,
            )
        counters = session.merged_counters()
        assert counters["tune/tune.scenarios"] == 1
        assert counters["tune/tune.probes"] == PROBES
        assert counters["tune/tune.adopted"] == 1
        assert counters["tune/tune.seconds"] > 0.0

    def test_cache_hit_charges_no_probes(self, tmp_path):
        store = TunedStore(tmp_path)
        kwargs = dict(
            quick=True, store=store, code_fingerprint=CODE_FP,
            measure=streams_measure,
        )
        tune_scenario("tunesweep-mta", **kwargs)
        with collect() as session:
            tune_scenario("tunesweep-mta", **kwargs)
        counters = session.merged_counters()
        assert counters["tune/tune.cache_hits"] == 1
        assert "tune/tune.probes" not in counters
