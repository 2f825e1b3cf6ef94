"""Candidate-cell force kernel vs the all-columns scan — the O(N) win, measured.

:func:`repro.md.forces.compute_forces` scans each row only against the
atoms of its 27 neighbour cells.  At N = 8192 (8 cells per axis) that
must be at least 5x faster than the row kernel run over every column
(about 15-20x on a 2-core x86 host), and byte-identical to it:
accelerations, potential energy and per-row partner counts.
"""

from __future__ import annotations

import time

import numpy as np
import pytest

from repro.md import forces
from repro.md.box import PeriodicBox
from repro.md.forces import compute_forces
from repro.md.lattice import cubic_lattice
from repro.md.lj import LennardJones

#: The paper's liquid density and cutoff.
_DENSITY = 0.8442
_RCUT = 2.5
_N = 8192


def _system(n: int) -> tuple[PeriodicBox, LennardJones, np.ndarray]:
    box = PeriodicBox.from_density(n, _DENSITY)
    rng = np.random.default_rng(n)
    positions = box.wrap(cubic_lattice(n, box) + rng.normal(0, 0.1, (n, 3)))
    return box, LennardJones(rcut=_RCUT), positions


def _all_columns(positions, box, potential, dtype):
    every = np.arange(positions.shape[0])
    return forces._scan_columns(
        positions.astype(dtype), every, every, box, potential, forces._DEFAULT_BLOCK
    )


def _best_of(fn, repeats: int) -> tuple[float, object]:
    best, out = float("inf"), None
    for _ in range(repeats):
        start = time.perf_counter()
        out = fn()
        best = min(best, time.perf_counter() - start)
    return best, out


@pytest.mark.parametrize("dtype", (np.float64, np.float32))
def test_candidate_kernel_5x_faster_and_identical_at_8192(dtype):
    box, potential, positions = _system(_N)
    small_box, small_potential, small = _system(2048)
    compute_forces(small, small_box, small_potential, dtype=dtype)  # warm

    scan_s, (acc, pe_rows, row_interacting) = _best_of(
        lambda: _all_columns(positions, box, potential, dtype), repeats=1
    )
    cand_s, result = _best_of(
        lambda: compute_forces(positions, box, potential, dtype=dtype), repeats=2
    )
    speedup = scan_s / cand_s
    print(
        f"\nN={_N} {np.dtype(dtype).name}: all columns {scan_s:.3f}s, "
        f"candidate cells {cand_s:.3f}s, speedup {speedup:.1f}x"
    )

    assert result.accelerations.tobytes() == acc.astype(np.float64).tobytes()
    assert result.potential_energy == 0.5 * float(pe_rows.sum(dtype=dtype))
    assert result.row_interacting.tobytes() == row_interacting.tobytes()
    assert result.interacting_pairs == int(row_interacting.sum()) // 2
    assert result.pairs_examined == _N * (_N - 1) // 2  # the modelled count
    assert speedup >= 5.0
