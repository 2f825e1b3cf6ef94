"""All-pairs force evaluation — step 2 of the paper's kernel.

The paper deliberately avoids pairlist construction and "calculate[s]
the distances on the fly" (section 3.4): every time step each atom's
distance to all other N-1 atoms is computed, atoms inside the cutoff
contribute a force and a potential-energy term.  This module provides

* :func:`compute_forces_reference` — straight nested Python loops,
  the executable specification, for small N and cross-checking;
* :func:`compute_forces` — the vectorized all-pairs kernel, one
  :func:`pair_block` over every row and column;
* :func:`compute_forces_27image` — same physics with the minimum image
  obtained by the explicit 27-image search the Cell kernel uses;
* :func:`compute_pair_forces` — the explicit pair-array path of the
  Verlet and cell-list backends.

All of them return a :class:`ForceResult` carrying the accelerations,
the potential energy and the interacting-pair count that the device
cost models consume; the vectorized ones share the LJ arithmetic of
:func:`_lj_terms`.  ``pairs_examined`` counts the *modelled* algorithm,
n(n-1)/2 distances for the all-pairs kernels, not the host's work.

:func:`pair_block` sums each row over its columns strictly in column
order, and every column outside the cutoff adds an exact ``±0.0``.  So
a row evaluated against any sorted superset of its cutoff partners
that holds the row itself (whose ``+0.0`` fixes the sign of an
all-zero sum) is bitwise the same whatever the block size.  The host
therefore scans each row only against the columns in the 27 cells
around its own, on a grid of cells a little wider than the cutoff: O(N)
work for :func:`compute_forces` and for a cluster node's owned rows
against its owned + ghost columns (:mod:`repro.cluster.forces`), with
results bitwise equal to scanning every column.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from repro.md.box import IMAGE_OFFSETS, PeriodicBox
from repro.md.cells import CellGrid, cells_per_side
from repro.md.lj import LennardJones

__all__ = [
    "ForceResult",
    "compute_forces",
    "compute_forces_reference",
    "compute_forces_27image",
    "compute_pair_forces",
]

#: Row-block size of :func:`pair_block`, the ``md.block`` default: at
#: N = 2048 each float64 ``(n_cols, block)`` pair array is 2 MB.
_DEFAULT_BLOCK = 128

#: Width of :func:`pair_block`'s cells beyond ``rcut``, in units of the
#: kernel dtype's epsilon times the largest coordinate or box length.
#: The float32 minimum image is off by at most about ten such units.
_CELL_MARGIN_ULPS = 64


@dataclasses.dataclass(frozen=True)
class ForceResult:
    """The outcome of one force evaluation.

    Attributes
    ----------
    accelerations:
        Per-atom acceleration vectors, shape ``(n, 3)``; equal to forces
        because the reduced mass is 1.
    potential_energy:
        Total LJ potential energy of the configuration.
    interacting_pairs:
        Number of unordered pairs inside the cutoff — the quantity that
        drives the "interacting" branch of every device cost model.
    pairs_examined:
        Number of unordered pairs whose distance the modelled algorithm
        computes: ``n * (n - 1) / 2`` for the all-pairs kernels, however
        few of them the host evaluates.
    """

    accelerations: np.ndarray
    potential_energy: float
    interacting_pairs: int
    pairs_examined: int
    #: per-atom interacting-partner counts (ordered view: row i's scan);
    #: None for kernels that do not tally them.  Drives the
    #: load-balance analysis of the Cell partitioning strategies.
    row_interacting: np.ndarray | None = None

    @property
    def interacting_fraction(self) -> float:
        """Share of examined pairs that fell inside the cutoff."""
        if self.pairs_examined == 0:
            return 0.0
        return self.interacting_pairs / self.pairs_examined


def _validate(positions: np.ndarray, box: PeriodicBox, potential: LennardJones) -> np.ndarray:
    positions = np.asarray(positions, dtype=np.float64)
    if positions.ndim != 2 or positions.shape[1] != 3:
        raise ValueError(f"positions must have shape (n, 3), got {positions.shape}")
    if potential.rcut > box.half_length:
        raise ValueError(
            f"cutoff {potential.rcut} exceeds half the box length "
            f"{box.half_length}; minimum image would be ambiguous"
        )
    return positions


def _lj_terms(
    r2: np.ndarray,
    within: np.ndarray,
    potential: LennardJones,
    work: tuple[np.ndarray, ...] | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Per-pair ``(f_over_r, pair_pe)`` in ``r2``'s dtype, exactly zero
    outside ``within``; computed in ``work`` (four arrays like ``r2``)
    if given.  Multiplying by the mask rounds as ``np.where(within, x,
    0)`` does, because every masked ``x`` is finite."""
    t = r2.dtype.type
    if work is None:
        work = tuple(np.empty_like(r2) for _ in range(4))
    safe_r2, sr12, sr6, pair_pe = work
    # r2 inside the cutoff; rcut2 for the rest, self pair and NaN alike.
    np.fmin(r2, t(potential.rcut2), out=safe_r2)
    inv_r2 = np.divide(t(potential.sigma * potential.sigma), safe_r2, out=sr12)
    inv_r2 *= within
    np.multiply(inv_r2, inv_r2, out=sr6)
    sr6 *= inv_r2
    np.multiply(sr6, sr6, out=sr12)
    np.subtract(sr12, sr6, out=pair_pe)
    pair_pe *= t(4.0 * potential.epsilon)
    f_over_r = np.multiply(t(2.0), sr12, out=sr12)
    f_over_r -= sr6
    f_over_r *= t(24.0 * potential.epsilon)
    inv_safe_r2 = np.divide(t(1.0), safe_r2, out=safe_r2)
    inv_safe_r2 *= within
    f_over_r *= inv_safe_r2
    pair_pe -= np.multiply(within, t(potential.shift_energy), out=sr6)
    return f_over_r, pair_pe


def _ordered_column_sums(terms: np.ndarray) -> np.ndarray:
    """Sum a C-contiguous ``(n_cols, width)`` array over axis 0, adding
    row ``j`` into the running result in ``j`` order.

    For width >= 2 NumPy's axis-0 ``sum`` does exactly that: NumPy
    behaviour, not a documented guarantee, so the reduction-order canary
    test checks it.  At width 1 NumPy sums the contiguous vector
    pairwise, so that case takes ``np.add.accumulate``, sequential by
    definition but several times slower.
    """
    if terms.shape[1] == 1:
        return np.add.accumulate(terms, axis=0)[-1]
    return terms.sum(axis=0)


def pair_block(
    positions: np.ndarray,
    rows: np.ndarray,
    cols: np.ndarray,
    box: PeriodicBox,
    potential: LennardJones,
    dtype: np.dtype | type = np.float64,
    block: int = _DEFAULT_BLOCK,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-row ``(accelerations, pe_rows, row_interacting)`` of atoms
    ``rows`` interacting with atoms ``cols`` (sorted global indices,
    ``rows ⊆ cols``; ``positions`` holds all atoms, float64).

    Each row is scanned only against its candidate columns: the members
    of ``cols`` in the 27 cells around its own on a grid of cells wider
    than the cutoff (:func:`_candidate_grid`).  Those hold every cutoff
    partner, so every row is bitwise what a scan of all of ``cols``
    gives (see the module docstring).  All of ``cols`` is scanned only
    when no such grid applies.
    """
    dtype = np.dtype(dtype)
    # Cast the *global* array, then gather: the cast is elementwise, so
    # every row is rounded the same whatever subset it is gathered into.
    pos = positions.astype(dtype)
    rows = np.asarray(rows, dtype=np.int64)
    cols = np.asarray(cols, dtype=np.int64)
    grid = _candidate_grid(pos, box, potential)
    if grid is None:
        return _scan_columns(pos, rows, cols, box, potential, block)

    acc = np.empty((rows.shape[0], 3), dtype=dtype)
    pe_rows = np.empty(rows.shape[0], dtype=dtype)
    row_interacting = np.empty(rows.shape[0], dtype=np.int64)
    row_order, row_bounds = grid.sort(grid.assign(positions[rows]))
    col_order, col_bounds = grid.sort(grid.assign(positions[cols]))
    cols_by_cell = cols[col_order]
    col_bounds = col_bounds.tolist()
    for cell in np.flatnonzero(np.diff(row_bounds)).tolist():
        # rows is sorted, so the stable sort keeps each cell's rows sorted.
        slots = row_order[row_bounds[cell] : row_bounds[cell + 1]]
        candidates = np.sort(
            np.concatenate(
                [
                    cols_by_cell[col_bounds[k] : col_bounds[k + 1]]
                    for k in grid.neighbors[cell].tolist()
                ]
            )
        )
        acc[slots], pe_rows[slots], row_interacting[slots] = _scan_columns(
            pos, rows[slots], candidates, box, potential, block
        )
    return acc, pe_rows, row_interacting


def _candidate_grid(
    pos: np.ndarray, box: PeriodicBox, potential: LennardJones
) -> CellGrid | None:
    """The cell grid :func:`pair_block` draws candidate columns from, or
    None when it must scan every column.

    The cells are wider than ``rcut`` by a margin covering the rounding
    of the minimum image in ``pos``'s dtype (``_CELL_MARGIN_ULPS`` ulps
    of the largest coordinate or of the box length), so that no pair the
    kernel finds within the cutoff lies two cells apart.  Binning at ``rcut + skin``
    instead would cost whole cells per axis.

    There is no grid when the box holds fewer than 3 cells per axis
    (their 27 neighbours would repeat), or when a coordinate is not
    finite: a scan of all columns spreads one NaN to every row, and
    candidate sets would not.  At exactly 3 cells per axis the 27
    neighbours of every cell are the whole box, so every candidate set
    is all of ``cols`` and one scan of it serves every row at once.
    """
    if pos.size == 0:
        return None
    scale = float(np.abs(pos).max())
    if not np.isfinite(scale):
        return None
    margin = _CELL_MARGIN_ULPS * float(np.finfo(pos.dtype).eps) * max(scale, box.length)
    radius = potential.rcut + margin
    if cells_per_side(box, radius) < 4:
        return None
    return CellGrid(box, radius)


def _scan_columns(
    pos: np.ndarray,
    rows: np.ndarray,
    cols: np.ndarray,
    box: PeriodicBox,
    potential: LennardJones,
    block: int,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The row kernel of :func:`pair_block`: every row against every
    column of ``cols``, in ``pos``'s dtype (``pos`` already cast).

    Structure-of-arrays layout: one vector per coordinate, pair arrays
    ``(n_cols, block_rows)`` in scratch reused across row blocks.
    """
    dtype = pos.dtype
    length = dtype.type(box.length)
    rcut2 = dtype.type(potential.rcut2)
    n_rows, n_cols = rows.shape[0], cols.shape[0]
    row_xyz = np.ascontiguousarray(pos[rows].T)
    col_xyz = np.ascontiguousarray(pos[cols].T)
    # Position of each row inside the column set, for the self-pair mask.
    self_col = np.searchsorted(cols, rows)

    acc = np.zeros((n_rows, 3), dtype=dtype)
    pe_rows = np.zeros(n_rows, dtype=dtype)
    row_interacting = np.zeros(n_rows, dtype=np.int64)
    # A one-row tail joins the block before it: width-1 sums are slow.
    starts = list(range(0, n_rows, block))
    if len(starts) > 1 and n_rows - starts[-1] == 1:
        starts.pop()
    # Each block views a C-contiguous (n_cols, width) prefix of the
    # scratch, the layout _ordered_column_sums needs.
    widest = min(n_rows, block + 1)
    flat = np.empty((9, n_cols * widest), dtype=dtype)
    flat_within = np.empty(n_cols * widest, dtype=bool)

    for start, stop in zip(starts, starts[1:] + [n_rows]):
        width = stop - start
        shape = (n_cols, width)
        dx, dy, dz, r2, scratch, *work = (
            buf[: n_cols * width].reshape(shape) for buf in flat
        )
        within = flat_within[: n_cols * width].reshape(shape)
        # d[j, b] = minimum image of pos[rows[start + b]] - pos[cols[j]],
        # by rint, which NumPy runs faster than masked compare-and-reflect
        for d, row_k, col_k in zip((dx, dy, dz), row_xyz, col_xyz):
            np.subtract(row_k[None, start:stop], col_k[:, None], out=d)
            np.divide(d, length, out=scratch)
            np.rint(scratch, out=scratch)
            scratch *= length
            d -= scratch
        np.multiply(dx, dx, out=r2)
        r2 += np.multiply(dy, dy, out=scratch)
        r2 += np.multiply(dz, dz, out=scratch)
        r2[self_col[start:stop], np.arange(width)] = np.inf
        np.less(r2, rcut2, out=within)
        row_interacting[start:stop] = np.count_nonzero(within, axis=0)
        f_over_r, pair_pe = _lj_terms(r2, within, potential, tuple(work))
        for k, d in enumerate((dx, dy, dz)):
            acc[start:stop, k] = _ordered_column_sums(
                np.multiply(f_over_r, d, out=scratch)
            )
        pe_rows[start:stop] = _ordered_column_sums(pair_pe)

    return acc, pe_rows, row_interacting


def compute_forces_reference(
    positions: np.ndarray,
    box: PeriodicBox,
    potential: LennardJones,
) -> ForceResult:
    """Nested-loop reference kernel; O(N^2) in pure Python, small N only."""
    positions = _validate(positions, box, potential)
    n = positions.shape[0]
    acc = np.zeros((n, 3))
    pe = 0.0
    interacting = 0
    rcut2 = potential.rcut2
    for i in range(n):
        for j in range(i + 1, n):
            delta = box.minimum_image(positions[i] - positions[j])
            r2 = float(delta @ delta)
            if r2 < rcut2:
                interacting += 1
                f_over_r = float(potential.force_over_r(np.array([r2]))[0])
                force = f_over_r * delta
                acc[i] += force
                acc[j] -= force
                pe += float(potential.energy(np.array([np.sqrt(r2)]))[0])
    return ForceResult(
        accelerations=acc,
        potential_energy=pe,
        interacting_pairs=interacting,
        pairs_examined=n * (n - 1) // 2,
    )


def compute_forces(
    positions: np.ndarray,
    box: PeriodicBox,
    potential: LennardJones,
    dtype: np.dtype | type = np.float64,
    block: int = _DEFAULT_BLOCK,
) -> ForceResult:
    """Vectorized all-pairs kernel: :func:`pair_block` over every atom.

    Parameters
    ----------
    dtype:
        Arithmetic precision.  The paper runs float32 on Cell/GPU and
        float64 on Opteron/MTA-2; passing ``np.float32`` makes this
        kernel reproduce the single-precision arithmetic bit-for-bit at
        the NumPy level.
    block:
        Row-block size; bounds the transient working set to a few
        ``block * n_cols`` pair arrays, ``n_cols`` the columns a row
        is scanned against.  The result does not depend on it.
    """
    positions64 = _validate(positions, box, potential)
    n = positions64.shape[0]
    dtype = np.dtype(dtype)
    every = np.arange(n)
    acc, pe_rows, row_interacting = pair_block(
        positions64, every, every, box, potential, dtype=dtype, block=block
    )
    # Every unordered pair was visited twice (once from each of its
    # rows), so halve the tallies; the force rows are one-sided already.
    return ForceResult(
        accelerations=acc.astype(np.float64),
        potential_energy=0.5 * float(pe_rows.sum(dtype=dtype)),
        interacting_pairs=int(row_interacting.sum()) // 2,
        pairs_examined=n * (n - 1) // 2,
        row_interacting=row_interacting,
    )


def compute_pair_forces(
    positions: np.ndarray,
    pairs: np.ndarray,
    box: PeriodicBox,
    potential: LennardJones,
    dtype: np.dtype | type = np.float64,
) -> ForceResult:
    """Force evaluation over an explicit (i, j) pair array.

    The single arithmetic path shared by every list-driven backend
    (Verlet list, cell list): whichever structure produced ``pairs``,
    the physics — and therefore the equivalence guarantees the test
    suite asserts — is identical.  Pairs outside the cutoff contribute
    nothing; ``pairs_examined`` reports ``pairs.shape[0]``.
    """
    positions = np.asarray(positions, dtype=np.float64)
    n = positions.shape[0]
    dtype = np.dtype(dtype)
    pos = positions.astype(dtype)
    pairs = np.asarray(pairs)
    acc = np.zeros((n, 3), dtype=dtype)
    if pairs.shape[0] == 0:
        return ForceResult(
            accelerations=acc.astype(np.float64),
            potential_energy=0.0,
            interacting_pairs=0,
            pairs_examined=0,
        )
    i, j = pairs[:, 0], pairs[:, 1]
    delta = pos[i] - pos[j]
    length = dtype.type(box.length)
    delta -= length * np.round(delta / length)
    r2 = np.einsum("ij,ij->i", delta, delta)
    within = r2 < dtype.type(potential.rcut2)
    f_over_r, pair_pe = _lj_terms(r2, within, potential)
    force = f_over_r[:, None] * delta
    np.add.at(acc, i, force)
    np.subtract.at(acc, j, force)
    return ForceResult(
        accelerations=acc.astype(np.float64),
        potential_energy=float(pair_pe.sum(dtype=dtype)),
        interacting_pairs=int(np.count_nonzero(within)),
        pairs_examined=int(pairs.shape[0]),
    )


def compute_forces_27image(
    positions: np.ndarray,
    box: PeriodicBox,
    potential: LennardJones,
    dtype: np.dtype | type = np.float64,
    block: int = 64,
) -> ForceResult:
    """All-pairs kernel with minimum image by explicit 27-image search.

    Functionally identical to :func:`compute_forces`; exists so tests can
    certify that the formulation the Cell/GPU kernels use agrees with the
    closed-form wrap, and to serve as the executable specification for
    the "SIMD unit cell reflection" optimization of Figure 5.
    """
    positions64 = _validate(positions, box, potential)
    n = positions64.shape[0]
    dtype = np.dtype(dtype)
    pos = positions64.astype(dtype)
    offsets = (IMAGE_OFFSETS * box.length).astype(dtype)
    rcut2 = dtype.type(potential.rcut2)

    acc = np.zeros((n, 3), dtype=dtype)
    pe = dtype.type(0.0)
    interacting = 0

    for start in range(0, n, block):
        stop = min(start + block, n)
        raw = pos[start:stop, None, :] - pos[None, :, :]
        # candidates[b, j, m, :] = raw + offset_m ; pick the shortest image.
        candidates = raw[:, :, None, :] + offsets[None, None, :, :]
        norms2 = np.einsum("bjmk,bjmk->bjm", candidates, candidates)
        best = np.argmin(norms2, axis=2)
        b_idx, j_idx = np.indices(best.shape)
        delta = candidates[b_idx, j_idx, best]
        r2 = norms2[b_idx, j_idx, best]
        rows = np.arange(start, stop)
        r2[np.arange(stop - start), rows] = np.inf
        within = r2 < rcut2
        interacting += int(np.count_nonzero(within))
        f_over_r, pair_pe = _lj_terms(r2, within, potential)
        acc[start:stop] += np.einsum("bj,bjk->bk", f_over_r, delta)
        pe += pair_pe.sum(dtype=dtype)

    return ForceResult(
        accelerations=acc.astype(np.float64),
        potential_energy=0.5 * float(pe),
        interacting_pairs=interacting // 2,
        pairs_examined=n * (n - 1) // 2,
    )
