"""Cubic cell binning of the periodic box.

One grid serves both pair searches: :mod:`repro.md.celllist` walks it to
build the Verlet-style pair list, and :func:`repro.md.forces.pair_block`
walks it to pick each row's candidate columns.  It lives apart from both
so neither has to import the other.
"""

from __future__ import annotations

import numpy as np

from repro.md.box import PeriodicBox

__all__ = ["CellGrid", "cells_per_side"]


def cells_per_side(box: PeriodicBox, radius: float) -> int:
    """Cells per box edge for a search ``radius``; each cell >= radius wide."""
    if radius <= 0.0:
        raise ValueError(f"search radius must be positive, got {radius}")
    return int(np.floor(box.length / radius))


class CellGrid:
    """A cubic binning of the periodic box into ``m**3`` cells.

    Precomputes, for each of the 27 neighbor offsets, the flat id of the
    neighboring cell of every cell — the periodic "cell adjacency" the
    pair search walks.  Requires ``m >= 3`` so the 27 wrapped neighbor
    cells of any cell are distinct (with fewer, the same cell appears
    under several offsets and pairs would be double-counted).
    """

    def __init__(self, box: PeriodicBox, radius: float) -> None:
        m = cells_per_side(box, radius)
        if m < 3:
            raise ValueError(
                f"box of length {box.length} holds only {m} cells of width "
                f">= {radius} per side; need >= 3 for a linked-cell search"
            )
        self.box = box
        self.radius = radius
        self.m = m
        self.n_cells = m**3
        self.cell_width = box.length / m
        offsets = np.array(
            [(dx, dy, dz) for dx in (-1, 0, 1) for dy in (-1, 0, 1) for dz in (-1, 0, 1)],
            dtype=np.int64,
        )
        grid = np.indices((m, m, m)).reshape(3, -1).T  # (m^3, 3) cell coords
        neighbor_coords = (grid[:, None, :] + offsets[None, :, :]) % m
        #: (n_cells, 27) flat ids of each cell's periodic neighborhood
        self.neighbors = (
            neighbor_coords[:, :, 0] * m * m
            + neighbor_coords[:, :, 1] * m
            + neighbor_coords[:, :, 2]
        )

    def assign(self, positions: np.ndarray) -> np.ndarray:
        """Flat cell id of each atom (positions are wrapped first)."""
        wrapped = self.box.wrap(np.asarray(positions, dtype=np.float64))
        coords = np.floor(wrapped / self.cell_width).astype(np.int64)
        # wrap() keeps positions in [0, L), but L/width * (L - eps) can
        # still floor to m for coordinates within one ulp of L.
        np.clip(coords, 0, self.m - 1, out=coords)
        return coords[:, 0] * self.m * self.m + coords[:, 1] * self.m + coords[:, 2]

    def sort(self, cell_of: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """``(order, bounds)`` for atoms binned as ``cell_of``: cell
        ``c`` holds ``order[bounds[c] : bounds[c + 1]]``, ascending."""
        order = np.argsort(cell_of, kind="stable")
        bounds = np.zeros(self.n_cells + 1, dtype=np.int64)
        np.cumsum(np.bincount(cell_of, minlength=self.n_cells), out=bounds[1:])
        return order, bounds
