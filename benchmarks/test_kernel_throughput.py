"""Microbenchmarks of this library's own hot kernels (real wall time).

These complement the paper-artifact benchmarks: they time the NumPy
force kernels and the VM interpreter so regressions in the
reproduction's substrate are caught by pytest-benchmark's statistics.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.cell import SpePairSweep, build_spe_kernel, kernel_constants
from repro.cell.kernels import OPT_LEVELS
from repro.cluster.decomposition import DEFAULT_HALO_SKIN, SlabDecomposition
from repro.cluster.forces import node_force_contribution
from repro.md import MDConfig, compute_forces, compute_forces_27image
from repro.md.lattice import cubic_lattice
from repro.md.neighborlist import NeighborList, compute_forces_neighborlist
from repro.vm.bench import bench_kernels, speedups

CONFIG = MDConfig(n_atoms=1024)
BOX = CONFIG.make_box()
POTENTIAL = CONFIG.make_potential()
POSITIONS = cubic_lattice(CONFIG.n_atoms, BOX)


def test_bench_allpairs_float64(benchmark):
    result = benchmark(compute_forces, POSITIONS, BOX, POTENTIAL)
    assert result.interacting_pairs > 0


def test_bench_allpairs_float32(benchmark):
    result = benchmark(
        compute_forces, POSITIONS, BOX, POTENTIAL, dtype=np.float32
    )
    assert result.interacting_pairs > 0


#: The paper's headline size, where the shared pair kernel
#: (``repro.md.forces.pair_block``) does nearly all the host work.
PAPER_CONFIG = MDConfig(n_atoms=2048)
PAPER_BOX = PAPER_CONFIG.make_box()
PAPER_POSITIONS = cubic_lattice(PAPER_CONFIG.n_atoms, PAPER_BOX)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_bench_allpairs_paper_size(benchmark, dtype):
    result = benchmark(
        compute_forces, PAPER_POSITIONS, PAPER_BOX, POTENTIAL, dtype=dtype
    )
    assert result.interacting_pairs > 0


def test_bench_cluster_node_slice_k8(benchmark):
    """One node of an 8-node slab decomposition at N=2048: owned rows
    against owned + ghost columns."""
    halo = POTENTIAL.rcut + DEFAULT_HALO_SKIN
    plan = SlabDecomposition(PAPER_BOX, 8, halo).plan(PAPER_POSITIONS)
    domain = plan.domains[0]
    result = benchmark(
        node_force_contribution, PAPER_POSITIONS, PAPER_BOX, POTENTIAL,
        rows=domain.owned, cols=domain.local,
    )
    assert result.interacting > 0


def test_bench_27image_search(benchmark):
    small = POSITIONS[:256]
    result = benchmark(compute_forces_27image, small, BOX, POTENTIAL)
    assert result.interacting_pairs > 0


def test_bench_neighborlist(benchmark):
    nlist = NeighborList(BOX, POTENTIAL, skin=0.3)
    nlist.update(POSITIONS)

    def run():
        return compute_forces_neighborlist(POSITIONS, nlist)

    result = benchmark(run)
    assert result.interacting_pairs > 0


@pytest.mark.parametrize("backend", ["interp", "compiled"])
def test_bench_vm_spe_kernel(benchmark, backend):
    """Batched VM execution of the fully-SIMDized SPE kernel, per backend."""
    program = build_spe_kernel("simd_acceleration", BOX.length)
    sweep = SpePairSweep(program, exec_backend=backend)
    constants = kernel_constants(POTENTIAL)
    positions = POSITIONS[:256]
    rows = np.arange(64)

    def run():
        return sweep.run(positions, rows, constants)

    acc, _pe = benchmark(run)
    assert np.isfinite(acc).all()


@pytest.mark.parametrize("backend", ["interp", "compiled"])
def test_bench_vm_original_kernel(benchmark, backend):
    """The scalar fig5 'original' kernel: the interpreter's worst case."""
    program = build_spe_kernel("original", BOX.length)
    sweep = SpePairSweep(program, exec_backend=backend)
    constants = kernel_constants(POTENTIAL)
    positions = POSITIONS[:256]
    rows = np.arange(64)

    def run():
        return sweep.run(positions, rows, constants)

    acc, _pe = benchmark(run)
    assert np.isfinite(acc).all()


def test_compiled_backend_speedup_on_fig5_ladder():
    """Acceptance gate: >= 2x pairs/sec for compiled on every fig5 kernel.

    Uses the same measurement that writes BENCH_vm.json
    (scripts/record_bench.py), best-of-3 on identical inputs.
    """
    results = bench_kernels(
        kernels=[f"spe:{level}" for level in OPT_LEVELS],
        batch=1024, repeats=5,
    )
    ratios = speedups(results)
    assert set(ratios) == {f"spe:{level}" for level in OPT_LEVELS}
    slow = {k: round(v, 2) for k, v in ratios.items() if v < 2.0}
    assert not slow, f"compiled backend below 2x on: {slow}"
