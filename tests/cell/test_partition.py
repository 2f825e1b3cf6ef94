"""Tests for SPE row partitioning and load-balance timing."""

from __future__ import annotations

import numpy as np
import pytest

from repro.arch import calibration as cal
from repro.cell.kernels import build_spe_kernel
from repro.cell.partition import (
    PartitionTiming,
    RowPartition,
    partition_rows,
    partitioned_kernel_seconds,
)
from repro.md import MDConfig, compute_forces, cubic_lattice


class TestPartitionRows:
    @pytest.mark.parametrize("strategy", list(RowPartition))
    def test_covers_every_row_exactly_once(self, strategy):
        parts = partition_rows(100, 8, strategy)
        combined = np.sort(np.concatenate(parts))
        np.testing.assert_array_equal(combined, np.arange(100))

    def test_block_is_contiguous(self):
        parts = partition_rows(64, 4, RowPartition.BLOCK)
        for part in parts:
            np.testing.assert_array_equal(part, np.arange(part[0], part[-1] + 1))

    def test_cyclic_strides(self):
        parts = partition_rows(12, 3, RowPartition.CYCLIC)
        np.testing.assert_array_equal(parts[1], [1, 4, 7, 10])

    def test_balanced_sizes(self):
        for strategy in RowPartition:
            parts = partition_rows(103, 8, strategy)
            sizes = [p.size for p in parts]
            assert max(sizes) - min(sizes) <= 1

    def test_validation(self):
        with pytest.raises(ValueError):
            partition_rows(0, 4, RowPartition.BLOCK)
        with pytest.raises(ValueError):
            partition_rows(10, 0, RowPartition.BLOCK)


class TestPartitionTiming:
    def test_step_is_max_and_imbalance_definition(self):
        timing = PartitionTiming(per_spe_seconds=(1.0, 2.0, 3.0))
        assert timing.step_seconds == 3.0
        assert timing.mean_seconds == pytest.approx(2.0)
        assert timing.imbalance == pytest.approx(0.5)

    def test_balanced_has_zero_imbalance(self):
        timing = PartitionTiming(per_spe_seconds=(2.0, 2.0))
        assert timing.imbalance == 0.0

    @pytest.mark.parametrize("n_spes,seconds", [(3, 0.1), (8, 0.7)])
    def test_equal_seconds_are_exactly_balanced(self, n_spes, seconds):
        # The float mean of these equal values rounds above their max,
        # so max/mean - 1 would come out at -1.1e-16.
        per_spe = (seconds,) * n_spes
        assert max(per_spe) / (sum(per_spe) / n_spes) - 1.0 < 0.0
        assert PartitionTiming(per_spe_seconds=per_spe).imbalance == 0.0


class TestPartitionedKernelSeconds:
    @pytest.fixture(scope="class")
    def droplet(self):
        config = MDConfig(n_atoms=256)
        box = config.make_box()
        positions = 0.5 * cubic_lattice(config.n_atoms, box)
        order = np.lexsort(positions.T)
        result = compute_forces(
            positions[order], box, config.make_potential()
        )
        program = build_spe_kernel("simd_acceleration", box.length)
        return program, result.row_interacting

    def test_block_slower_than_cyclic_on_droplet(self, droplet):
        program, row_counts = droplet
        block = partitioned_kernel_seconds(
            program, row_counts, 8, RowPartition.BLOCK, cal.SPE_CLOCK_HZ
        )
        cyclic = partitioned_kernel_seconds(
            program, row_counts, 8, RowPartition.CYCLIC, cal.SPE_CLOCK_HZ
        )
        assert block.step_seconds > cyclic.step_seconds
        assert block.imbalance > cyclic.imbalance

    def test_means_agree_across_strategies(self, droplet):
        """Total work is partition-independent; only the max moves."""
        program, row_counts = droplet
        block = partitioned_kernel_seconds(
            program, row_counts, 8, RowPartition.BLOCK, cal.SPE_CLOCK_HZ
        )
        cyclic = partitioned_kernel_seconds(
            program, row_counts, 8, RowPartition.CYCLIC, cal.SPE_CLOCK_HZ
        )
        assert block.mean_seconds == pytest.approx(
            cyclic.mean_seconds, rel=1e-3
        )

    def test_single_spe_has_no_imbalance(self, droplet):
        program, row_counts = droplet
        timing = partitioned_kernel_seconds(
            program, row_counts, 1, RowPartition.BLOCK, cal.SPE_CLOCK_HZ
        )
        assert timing.imbalance == 0.0

    def test_rejects_tiny_systems(self, droplet):
        program, _ = droplet
        with pytest.raises(ValueError):
            partitioned_kernel_seconds(
                program, np.array([1]), 2, RowPartition.BLOCK, cal.SPE_CLOCK_HZ
            )


class TestRowInteractingPlumbing:
    def test_compute_forces_reports_row_counts(self):
        config = MDConfig(n_atoms=128)
        box = config.make_box()
        result = compute_forces(
            cubic_lattice(128, box), box, config.make_potential()
        )
        assert result.row_interacting is not None
        assert result.row_interacting.shape == (128,)
        # ordered tallies count each unordered pair twice
        assert int(result.row_interacting.sum()) == 2 * result.interacting_pairs
