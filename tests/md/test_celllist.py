"""Tests for the linked-cell pair search and its skin-reuse semantics."""

from __future__ import annotations

import numpy as np
import pytest

from repro.md.box import PeriodicBox
from repro.md.cells import CellGrid, cells_per_side
from repro.md.celllist import (
    CellList,
    CellListForceBackend,
    build_pairs_cells,
)
from repro.md.forces import compute_forces
from repro.md.lattice import cubic_lattice
from repro.md.lj import LennardJones
from repro.md.neighborlist import build_pairs


def _system(n=96, density=0.6, seed=3, rcut=2.0):
    box = PeriodicBox.from_density(n, density)
    potential = LennardJones(rcut=rcut)
    rng = np.random.default_rng(seed)
    positions = box.wrap(cubic_lattice(n, box) + rng.normal(0, 0.05, (n, 3)))
    return box, potential, positions


class TestBuildPairsCells:
    @pytest.mark.parametrize(
        "n,density,radius",
        [(96, 0.6, 2.0), (300, 0.8442, 2.8), (77, 0.2, 1.5), (500, 1.2, 2.8)],
    )
    def test_matches_blocked_scan_exactly(self, n, density, radius):
        box = PeriodicBox.from_density(n, density)
        rng = np.random.default_rng(n)
        positions = box.wrap(cubic_lattice(n, box) + rng.normal(0, 0.15, (n, 3)))
        reference = build_pairs(positions, box, radius)
        cells = build_pairs_cells(positions, box, radius)
        assert {tuple(p) for p in cells} == {tuple(p) for p in reference}
        # no duplicates, deterministic row-major order
        assert cells.shape == reference.shape
        np.testing.assert_array_equal(cells, reference)

    def test_pairs_are_ordered_i_less_than_j(self):
        box, _potential, positions = _system()
        pairs = build_pairs_cells(positions, box, radius=2.0)
        assert np.all(pairs[:, 0] < pairs[:, 1])

    def test_falls_back_when_box_too_small_for_grid(self):
        # radius > length/3 leaves fewer than 3 cells per side
        box, _potential, positions = _system(n=32, density=0.3)
        radius = 0.45 * box.length
        assert cells_per_side(box, radius) < 3
        cells = build_pairs_cells(positions, box, radius)
        reference = build_pairs(positions, box, radius)
        np.testing.assert_array_equal(cells, reference)

    def test_rejects_radius_beyond_half_box(self):
        box, _potential, positions = _system()
        with pytest.raises(ValueError):
            build_pairs_cells(positions, box, radius=box.length)

    def test_empty_when_radius_small_but_griddable(self):
        box, _potential, positions = _system(n=64, density=0.05)
        radius = box.length / 4.0
        pairs = build_pairs_cells(positions[:2] * 0.0 + [[0.0, 0.0, 0.0],
                                                         [0.45 * box.length] * 3],
                                  box, radius)
        assert pairs.shape == (0, 2)


class TestCellGrid:
    def test_requires_three_cells_per_side(self):
        box = PeriodicBox(length=6.0)
        with pytest.raises(ValueError):
            CellGrid(box, radius=2.5)  # only 2 cells per side

    def test_neighbors_are_distinct_and_cover_27(self):
        box = PeriodicBox(length=9.0)
        grid = CellGrid(box, radius=3.0)
        assert grid.m == 3
        for c in range(grid.n_cells):
            # with m == 3 every cell neighbors every cell exactly once
            assert sorted(grid.neighbors[c]) == list(range(27))

    def test_assign_handles_positions_at_box_edge(self):
        box = PeriodicBox(length=10.0)
        grid = CellGrid(box, radius=2.0)
        edge = np.array([[np.nextafter(10.0, 0.0)] * 3, [0.0, 5.0, 9.999999]])
        ids = grid.assign(edge)
        assert np.all((0 <= ids) & (ids < grid.n_cells))


class TestCellListSkinReuse:
    def test_drift_under_half_buffer_reuses(self):
        box, potential, positions = _system()
        clist = CellList(box, potential, buffer=0.4)
        clist.update(positions)
        assert clist.rebuild_count == 1
        # drift every atom by just under buffer/2 in one axis
        drift = np.zeros_like(positions)
        drift[:, 0] = 0.19
        assert not clist.update(box.wrap(positions + drift))
        assert clist.rebuild_count == 1
        assert clist.reuse_count == 1

    def test_drift_over_half_buffer_rebuilds(self):
        box, potential, positions = _system()
        clist = CellList(box, potential, buffer=0.4)
        clist.update(positions)
        drift = np.zeros_like(positions)
        drift[0, 0] = 0.21  # one atom crossing the threshold suffices
        assert clist.update(box.wrap(positions + drift))
        assert clist.rebuild_count == 2
        assert clist.reuse_count == 0

    def test_rebuild_check_delay_defers_the_check(self):
        box, potential, positions = _system()
        clist = CellList(box, potential, buffer=0.4, rebuild_check_delay=3)
        clist.update(positions)
        far = box.wrap(positions + 0.5)  # way past buffer/2
        # ages 1 and 2: reused without even checking displacements
        assert not clist.update(far)
        assert not clist.update(far)
        assert clist.check_count == 0
        # age 3: the check fires and triggers the rebuild
        assert clist.update(far)
        assert clist.check_count == 1
        assert clist.rebuild_count == 2

    def test_check_dist_false_rebuilds_on_schedule(self):
        box, potential, positions = _system()
        clist = CellList(
            box, potential, buffer=0.4, rebuild_check_delay=2, check_dist=False
        )
        clist.update(positions)
        assert not clist.update(positions)  # age 1: reuse
        assert clist.update(positions)  # age 2: unconditional rebuild
        assert clist.rebuild_count == 2

    def test_box_shrunk_mid_run_fails_loudly(self):
        box, potential, positions = _system()
        clist = CellList(box, potential, buffer=0.3)
        clist.update(positions)
        clist.box = PeriodicBox(length=potential.rcut)  # half_length < rcut
        with pytest.raises(ValueError, match="exceeds half the box"):
            clist.update(positions)

    def test_validates_radius_at_construction(self):
        box = PeriodicBox(length=5.0)
        with pytest.raises(ValueError):
            CellList(box, LennardJones(rcut=2.4), buffer=0.2)

    def test_rejects_bad_parameters(self):
        box, potential, _positions = _system()
        with pytest.raises(ValueError):
            CellList(box, potential, buffer=-0.1)
        with pytest.raises(ValueError):
            CellList(box, potential, rebuild_check_delay=0)


class TestCellListForceBackend:
    def test_matches_all_pairs_kernel(self):
        box, potential, positions = _system()
        backend = CellListForceBackend(box, potential, buffer=0.4)
        direct = compute_forces(positions, box, potential)
        listed = backend(positions)
        np.testing.assert_allclose(
            listed.accelerations, direct.accelerations, atol=1e-9
        )
        assert listed.potential_energy == pytest.approx(
            direct.potential_energy, abs=1e-9
        )
        assert listed.interacting_pairs == direct.interacting_pairs

    def test_counters_and_reuse_fraction(self):
        box, potential, positions = _system()
        backend = CellListForceBackend(box, potential, buffer=0.4)
        backend(positions)
        backend(box.wrap(positions + 0.01))
        backend(box.wrap(positions + 0.02))
        assert backend.rebuild_count == 1
        assert backend.reuse_count == 2
        assert backend.reuse_fraction == pytest.approx(2.0 / 3.0)

    def test_float32_dtype_respected(self):
        box, potential, positions = _system()
        backend = CellListForceBackend(box, potential, buffer=0.4, dtype=np.float32)
        f32 = backend(positions)
        f64 = compute_forces(positions, box, potential, dtype=np.float64)
        scale = float(np.max(np.abs(f64.accelerations)))
        assert np.max(np.abs(f32.accelerations - f64.accelerations)) < 1e-4 * scale
