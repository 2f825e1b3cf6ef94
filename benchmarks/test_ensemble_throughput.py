"""Batched-replica ensemble throughput: compiled-batched vs compiled-sequential.

The acceptance gate for whole-timestep replica batching: one compiled
closure call over R stacked replicas must beat R sequential compiled
calls, one replica each, by >= 2x replicas-per-second once the ensemble
is large enough to amortize the dispatch (R >= 8).  Uses the same measurement that writes
BENCH_vm2.json (``scripts/record_bench.py --ensemble``).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.cell.kernels import build_spe_timestep_kernel, timestep_constants
from repro.md.lj import LennardJones
from repro.vm.bench import (
    BOX_LENGTH,
    bench_ensemble,
    ensemble_speedups,
    timestep_env,
)
from repro.vm.machine import Machine

GATE_REPLICAS = 8
MIN_SPEEDUP = 2.0


def test_batched_speedup_at_gate_replicas():
    """Acceptance gate: >= 2x replicas/sec for compiled-batched at R >= 8."""
    results = bench_ensemble(
        replica_counts=(GATE_REPLICAS,), rows_per_replica=256, repeats=5
    )
    ratios = ensemble_speedups(results)
    assert set(ratios) == {GATE_REPLICAS}
    ratio = ratios[GATE_REPLICAS]
    assert ratio >= MIN_SPEEDUP, (
        f"compiled-batched only {ratio:.2f}x compiled-sequential replicas/sec "
        f"at R={GATE_REPLICAS} (required >= {MIN_SPEEDUP:.2f}x)"
    )


@pytest.mark.parametrize("replicas_per_call", [1, 8])
def test_bench_whole_timestep_replicas(benchmark, replicas_per_call):
    """pytest-benchmark statistics for R=8 whole-timestep replicas,
    as 8 one-replica calls or one 8-replica call."""
    replicas, rows = 8, 256
    program = build_spe_timestep_kernel("simd_acceleration", BOX_LENGTH)
    constants = timestep_constants(LennardJones(), dt=0.005)
    machine = Machine(width=4, dtype=np.float32, exec_backend="compiled")
    env = timestep_env(machine, replicas * rows, constants)
    batch = replicas_per_call * rows
    calls = [
        {name: reg[start : start + batch] for name, reg in env.items()}
        for start in range(0, replicas * rows, batch)
    ]

    def run():
        return [
            machine.run_program(program, dict(sub), replicas=replicas_per_call)
            for sub in calls
        ]

    outs = benchmark(run)
    assert all(np.isfinite(out["xi_out"]).all() for out in outs)
