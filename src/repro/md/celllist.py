"""Linked-cell (binning) pair search — the O(N) list build.

:func:`repro.md.neighborlist.build_pairs` finds the same pairs with an
O(N^2) blocked scan, which caps every downstream consumer (the Verlet
list, the ablations, the fig9 sweep) at ~10^4 atoms.  This module bins
atoms into a cubic grid of cells at least ``radius`` wide, so each atom
only examines the 27 cells around its own — O(N) total work at fixed
density.  The structure is the one HOOMD-blue's ``NList``/``CellList``
pair uses (see SNIPPETS.md) and the one the GPU N-body literature
identifies as the step that unlocks large-N MD.

Skin semantics follow HOOMD's buffer contract:

* ``buffer`` — extra shell beyond the cutoff; a list built once stays
  valid until some atom has moved more than ``buffer / 2``.
* ``rebuild_check_delay`` — the displacement check starts only that many
  updates after the last build (the list is reused unconditionally in
  between); with ``check_dist=False`` the list instead rebuilds
  unconditionally every ``rebuild_check_delay`` updates.

:class:`CellListForceBackend` wraps the list into the ``ForceBackend``
callable shape that :class:`repro.md.simulation.MDSimulation` and the
device models consume, and exposes rebuild/reuse counters for the
experiment reports.
"""

from __future__ import annotations

import numpy as np

from repro.md.box import PeriodicBox
from repro.md.cells import CellGrid, cells_per_side
from repro.md.forces import ForceResult, compute_pair_forces
from repro.md.lj import LennardJones
from repro.md.neighborlist import build_pairs, validate_list_radius

__all__ = [
    "CellList",
    "CellListForceBackend",
    "build_pairs_cells",
]


def build_pairs_cells(
    positions: np.ndarray,
    box: PeriodicBox,
    radius: float,
    grid: CellGrid | None = None,
) -> np.ndarray:
    """All unordered pairs (i < j) within ``radius``, by linked-cell search.

    Exactly the pair set :func:`repro.md.neighborlist.build_pairs`
    returns (the tests assert set equality), built in O(N) instead of
    O(N^2).  Falls back to the blocked scan when the box is too small to
    hold a 3x3x3 cell grid — the regime where O(N^2) is cheap anyway.
    """
    positions = np.asarray(positions, dtype=np.float64)
    validate_list_radius(radius, box)
    if grid is None:
        if cells_per_side(box, radius) < 3:
            return build_pairs(positions, box, radius)
        grid = CellGrid(box, radius)
    n = positions.shape[0]
    cell_of = grid.assign(positions)

    # Cell c's members are order[starts[c] : starts[c] + counts[c]].
    order, bounds = grid.sort(cell_of)
    starts, counts = bounds[:-1], np.diff(bounds)

    radius2 = radius * radius
    chunks: list[np.ndarray] = []
    atom_idx = np.arange(n)
    for off in range(27):
        # For every atom, enumerate all atoms in its `off`-th neighbor
        # cell as candidate partners, fully vectorized: the candidate
        # block of atom i is a run of counts[nc[i]] entries of `order`.
        nc = grid.neighbors[cell_of, off]
        runs = counts[nc]
        total = int(runs.sum())
        if total == 0:
            continue
        rows = np.repeat(atom_idx, runs)
        run_first = np.repeat(np.cumsum(runs) - runs, runs)
        within_run = np.arange(total) - run_first
        cols = order[np.repeat(starts[nc], runs) + within_run]
        keep = rows < cols
        rows, cols = rows[keep], cols[keep]
        if rows.size == 0:
            continue
        delta = positions[rows] - positions[cols]
        delta -= box.length * np.round(delta / box.length)
        r2 = np.einsum("ij,ij->i", delta, delta)
        close = r2 < radius2
        if np.any(close):
            chunks.append(np.column_stack((rows[close], cols[close])))
    if not chunks:
        return np.empty((0, 2), dtype=np.intp)
    pairs = np.concatenate(chunks, axis=0).astype(np.intp, copy=False)
    # Deterministic order regardless of cell geometry, matching the
    # row-major order of the blocked scan.
    return pairs[np.lexsort((pairs[:, 1], pairs[:, 0]))]


class CellList:
    """Self-maintaining pair list built by linked-cell binning.

    The cell-list sibling of :class:`repro.md.neighborlist.NeighborList`:
    same ``rcut + buffer`` shell, same staleness criterion, O(N) rebuild.

    Parameters
    ----------
    box, potential:
        The periodic cell and the potential whose cutoff the list serves.
    buffer:
        HOOMD's name for the skin: extra shell thickness beyond the
        cutoff.  A built list stays valid until an atom moves more than
        ``buffer / 2``.
    rebuild_check_delay:
        Number of updates after a build before the displacement check
        starts (the list is reused unconditionally until then).  With
        ``check_dist=False`` the list instead rebuilds unconditionally
        every ``rebuild_check_delay`` updates.
    check_dist:
        Whether staleness is decided by measured displacements (True,
        the default) or purely by the update counter (False).
    """

    def __init__(
        self,
        box: PeriodicBox,
        potential: LennardJones,
        buffer: float = 0.3,
        rebuild_check_delay: int = 1,
        check_dist: bool = True,
    ) -> None:
        if buffer < 0.0:
            raise ValueError(f"buffer must be non-negative, got {buffer}")
        if rebuild_check_delay < 1:
            raise ValueError(
                f"rebuild_check_delay must be >= 1, got {rebuild_check_delay}"
            )
        validate_list_radius(potential.rcut + buffer, box)
        self.box = box
        self.potential = potential
        self.buffer = buffer
        self.rebuild_check_delay = rebuild_check_delay
        self.check_dist = check_dist
        self.pairs = np.empty((0, 2), dtype=np.intp)
        self.rebuild_count = 0
        self.reuse_count = 0
        self.check_count = 0
        self._updates_since_build = 0
        self._reference_positions: np.ndarray | None = None
        self._grid: CellGrid | None = None
        if cells_per_side(box, self.radius) >= 3:
            self._grid = CellGrid(box, self.radius)

    @property
    def radius(self) -> float:
        """The list radius, ``rcut + buffer``."""
        return self.potential.rcut + self.buffer

    def max_displacement(self, positions: np.ndarray) -> float:
        """Largest minimum-image displacement since the last build."""
        if self._reference_positions is None:
            return float("inf")
        delta = np.asarray(positions, dtype=np.float64) - self._reference_positions
        delta -= self.box.length * np.round(delta / self.box.length)
        return float(np.sqrt(np.max(np.einsum("ij,ij->i", delta, delta))))

    def needs_rebuild(self, positions: np.ndarray) -> bool:
        """Apply the HOOMD buffer contract to the current positions.

        Judged for the *next* update: the displacement check (or the
        unconditional rebuild when ``check_dist=False``) fires once the
        list is ``rebuild_check_delay`` updates old.  With the default
        delay of 1 every update runs the check, matching
        ``NeighborList``.
        """
        if self._reference_positions is None:
            return True
        age = self._updates_since_build + 1
        if not self.check_dist:
            return age >= self.rebuild_check_delay
        if age < self.rebuild_check_delay:
            return False
        self.check_count += 1
        return self.max_displacement(positions) > 0.5 * self.buffer

    def update(self, positions: np.ndarray) -> bool:
        """Rebuild if stale; returns True when a rebuild happened.

        Like :meth:`NeighborList.update`, re-validates the radius
        against the current box every call so a mid-run box change fails
        loudly instead of silently serving a stale list.
        """
        validate_list_radius(self.radius, self.box)
        if not self.needs_rebuild(positions):
            self._updates_since_build += 1  # ages the list by one update
            self.reuse_count += 1
            return False
        positions = np.asarray(positions, dtype=np.float64)
        self.pairs = build_pairs_cells(positions, self.box, self.radius, self._grid)
        self._reference_positions = positions.copy()
        self._updates_since_build = 0
        self.rebuild_count += 1
        return True


class CellListForceBackend:
    """``ForceBackend`` adapter: cell-list pair search + shared pair kernel.

    Plugs into :class:`repro.md.simulation.MDSimulation` (and the device
    models) anywhere ``compute_forces`` or the Verlet-list path does.
    The ``rebuild_count`` / ``reuse_count`` properties feed the
    list-reuse statistics the ablation report prints.
    """

    def __init__(
        self,
        box: PeriodicBox,
        potential: LennardJones,
        buffer: float = 0.3,
        dtype: np.dtype | type = np.float64,
        rebuild_check_delay: int = 1,
        check_dist: bool = True,
    ) -> None:
        self.cell_list = CellList(
            box,
            potential,
            buffer=buffer,
            rebuild_check_delay=rebuild_check_delay,
            check_dist=check_dist,
        )
        self.dtype = np.dtype(dtype)

    @property
    def rebuild_count(self) -> int:
        return self.cell_list.rebuild_count

    @property
    def reuse_count(self) -> int:
        return self.cell_list.reuse_count

    @property
    def reuse_fraction(self) -> float:
        """Share of force evaluations served by an already-built list."""
        total = self.rebuild_count + self.reuse_count
        return self.reuse_count / total if total else 0.0

    def __call__(self, positions: np.ndarray) -> ForceResult:
        self.cell_list.update(positions)
        return compute_pair_forces(
            positions,
            self.cell_list.pairs,
            self.cell_list.box,
            self.cell_list.potential,
            dtype=self.dtype,
        )
