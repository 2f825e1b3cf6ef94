"""Node devices of one precision share each decomposed trajectory.

The decomposed physics depends on the configuration (dtype included),
the step count, K and the halo width — never on the node device model —
so ``cell`` and ``gpu`` (both float32) price one trajectory, as do
``mta`` and ``opteron`` (both float64).
"""

from __future__ import annotations

import importlib.util
from pathlib import Path

import numpy as np
import pytest

import repro.cluster.forces as cluster_forces
from repro.cluster.machine import SimulatedCluster
from repro.experiments import cluster_scaling
from repro.faults.plan import FaultPlan
from repro.md.simulation import MDConfig

CONFIG = MDConfig(n_atoms=128)
STEPS = 2
SCRIPT = (
    Path(__file__).resolve().parents[2]
    / "scripts"
    / "assert_cluster_determinism.py"
)


@pytest.fixture
def node_calls(monkeypatch):
    """Count node kernel evaluations (one per node per force call)."""
    calls = []
    original = cluster_forces.node_force_contribution

    def spy(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(cluster_forces, "node_force_contribution", spy)
    return calls


def _run(device, n_nodes=2, **kwargs):
    cluster = SimulatedCluster(device=device, n_nodes=n_nodes, **kwargs)
    return cluster.run(CONFIG, STEPS)


def _one_trajectory(n_nodes):
    return n_nodes * (STEPS + 1)


class TestSharing:
    @pytest.mark.parametrize("first,second", [("cell", "gpu"), ("mta", "opteron")])
    def test_same_precision_runs_one_trajectory(self, node_calls, first, second):
        a = _run(first)
        b = _run(second)
        assert len(node_calls) == _one_trajectory(2)
        assert a.state_digest() == b.state_digest()
        assert a.step_seconds != b.step_seconds  # priced per device

    def test_precisions_do_not_share(self, node_calls):
        _run("cell")
        _run("opteron")
        assert len(node_calls) == 2 * _one_trajectory(2)

    def test_node_counts_do_not_share(self, node_calls):
        _run("cell", n_nodes=2)
        _run("gpu", n_nodes=4)
        assert len(node_calls) == _one_trajectory(2) + _one_trajectory(4)

    def test_halo_widths_do_not_share(self, node_calls):
        _run("cell")
        _run("gpu", halo_skin=0.1)  # 0.3 and 0.5 both cap at L/2
        assert len(node_calls) == 2 * _one_trajectory(2)

    def test_shared_run_equals_fresh_run(self):
        _run("gpu")
        shared = _run("cell")
        cluster_forces.decomposed_record.cache_clear()
        fresh = _run("cell")
        assert shared.state_digest() == fresh.state_digest()
        assert shared.step_seconds == fresh.step_seconds
        assert shared.node_step_seconds == fresh.node_step_seconds
        assert shared.ledger == fresh.ledger
        assert shared.breakdown == fresh.breakdown

    def test_faults_price_the_shared_record(self, node_calls):
        clean = _run("cell")
        faulted = SimulatedCluster(device="cell", n_nodes=2).run(
            CONFIG, STEPS, faults=FaultPlan.cluster_storm()
        )
        assert len(node_calls) == _one_trajectory(2)
        assert faulted.state_digest() == clean.state_digest()

    def test_results_do_not_alias_the_record(self):
        first = _run("cell")
        expected = first.final_positions.copy()
        first.final_positions[:] = np.nan
        assert _run("gpu").final_positions.tobytes() == expected.tobytes()

    def test_scaling_sweep_computes_each_dtype_and_k_once(self, node_calls):
        result = cluster_scaling.run(
            n_atoms=128,
            n_steps=STEPS,
            node_counts=(1, 2),
            devices=("cell", "gpu", "mta", "opteron"),
        )
        # two precisions, each decomposed at K=1 and K=2
        assert len(node_calls) == 2 * (_one_trajectory(1) + _one_trajectory(2))
        assert len(result.rows) == 8
        checks = {check.key: check for check in result.checks}
        assert checks["cluster_equivalence"].measured == 1.0
        assert result.all_passed, [c.render() for c in result.checks]


@pytest.mark.parametrize("plan", ["cluster-storm", "none"])
def test_determinism_gate_passes(plan, capsys):
    spec = importlib.util.spec_from_file_location("cluster_gate", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    assert module.main(["--plan", plan]) == 0
