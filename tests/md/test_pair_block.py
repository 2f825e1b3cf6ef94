"""The shared pair kernel's reduction contract.

:func:`repro.md.forces.pair_block` promises that a row's accelerations,
energy sum and partner count do not depend on which other columns are
present (as long as every cutoff partner is) nor on the row-block size.
That rests on one NumPy behaviour, isolated in
``_ordered_column_sums``: an axis-0 ``sum`` of a C-contiguous array of
width >= 2 adds the rows in index order.  The canary below checks that
behaviour directly, so a NumPy that changes it fails here, by name,
instead of as a drifting cluster digest.

``pair_block`` scans each row against the candidate columns of its 27
neighbour cells only.  The tests at the end compare it byte for byte
with the row kernel run over every column (``_all_columns``): across
the grid sizes where it falls back (fewer than 3 cells per axis), scans
the whole box at once (3) and picks candidates (4 or more), for a row
with no partner, for a cell side within a float32 ulp of the cutoff,
and for non-finite positions.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.md import forces
from repro.md.box import PeriodicBox
from repro.md.cells import CellGrid, cells_per_side
from repro.md.forces import _ordered_column_sums, compute_forces, pair_block
from repro.md.lattice import cubic_lattice
from repro.md.lj import LennardJones

DTYPES = (np.float32, np.float64)


def _left_to_right(terms: np.ndarray) -> np.ndarray:
    total = np.zeros(terms.shape[1], dtype=terms.dtype)
    for row in terms:
        total = total + row
    return total


def _system(n, density, seed, jitter=0.1):
    box = PeriodicBox.from_density(n, density)
    potential = LennardJones(rcut=min(2.5, 0.9 * box.half_length))
    rng = np.random.default_rng(seed)
    positions = box.wrap(cubic_lattice(n, box) + rng.normal(0, jitter, (n, 3)))
    return box, potential, positions


def _partners(positions, box, potential):
    """Boolean (n, n) matrix of pairs within a slightly padded cutoff."""
    delta = positions[:, None, :] - positions[None, :, :]
    delta -= box.length * np.round(delta / box.length)
    return np.einsum("ijk,ijk->ij", delta, delta) < (1.01 * potential.rcut) ** 2


class TestReductionOrderCanary:
    @pytest.mark.parametrize("dtype", DTYPES)
    @pytest.mark.parametrize("n_cols", [1, 2, 3, 17, 1000, 2048])
    def test_axis0_sum_is_left_to_right(self, dtype, n_cols):
        rng = np.random.default_rng(n_cols)
        # Magnitudes spread over 12 decades, so any reassociation of the
        # sum shows up in the low bits.
        for width in range(1, 34):
            terms = (
                rng.standard_normal((n_cols, width))
                * 10.0 ** rng.integers(-6, 6, (n_cols, width))
            ).astype(dtype)
            got = _ordered_column_sums(terms)
            assert np.array_equal(got, _left_to_right(terms)), (
                f"NumPy {np.__version__}: the axis-0 sum of a "
                f"({n_cols}, {width}) {np.dtype(dtype).name} array is not a "
                "left-to-right loop; switch _ordered_column_sums to "
                "np.add.accumulate"
            )

    @pytest.mark.parametrize("n_rows", [1, 8, 15, 22])
    def test_no_width_one_sum_reaches_numpy(self, monkeypatch, n_rows):
        """n_rows == 1 and n_rows ≡ 1 (mod block): no block is one row
        wide unless the whole call is, and that row still matches the
        full evaluation bit for bit."""
        box, potential, positions = _system(24, 0.8, seed=3)
        every = np.arange(24)
        full = pair_block(positions, every, every, box, potential, block=7)
        widths = []

        def spy(terms):
            widths.append(terms.shape[1])
            return _ordered_column_sums(terms)

        monkeypatch.setattr(forces, "_ordered_column_sums", spy)
        rows = every[-n_rows:]
        part = pair_block(positions, rows, every, box, potential, block=7)
        assert min(widths) >= (1 if n_rows == 1 else 2)
        for whole, sliced in zip(full, part):
            assert np.array_equal(whole[rows], sliced)


@st.composite
def _cases(draw):
    n = draw(st.integers(min_value=2, max_value=80))
    seed = draw(st.integers(min_value=0, max_value=2**16))
    density = draw(st.sampled_from([0.3, 0.6, 0.85]))
    dtype = draw(st.sampled_from(DTYPES))
    block = draw(st.sampled_from([1, 2, 7, 128, n]))
    rows = draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=n, unique=True))
    extra = draw(st.lists(st.integers(0, n - 1), max_size=n))
    return n, seed, density, dtype, block, sorted(rows), extra


@settings(max_examples=60, deadline=None)
@given(case=_cases())
def test_rows_are_subset_and_block_invariant(case):
    """Any rows against any column superset of their cutoff partners
    reproduce the full evaluation's rows bitwise, at any block size."""
    n, seed, density, dtype, block, rows, extra = case
    box, potential, positions = _system(n, density, seed)
    every = np.arange(n)
    full = pair_block(positions, every, every, box, potential, dtype=dtype)
    rows = np.array(rows)
    partners = np.flatnonzero(_partners(positions, box, potential)[rows].any(axis=0))
    cols = np.union1d(np.union1d(rows, partners), extra).astype(np.int64)
    part = pair_block(positions, rows, cols, box, potential, dtype=dtype, block=block)
    for name, whole, sliced in zip(("acc", "pe_rows", "row_interacting"), full, part):
        assert sliced.dtype == whole.dtype, name
        assert np.array_equal(whole[rows], sliced), name


@settings(max_examples=30, deadline=None)
@given(
    n=st.integers(min_value=2, max_value=80),
    seed=st.integers(min_value=0, max_value=2**16),
    dtype=st.sampled_from(DTYPES),
    block=st.sampled_from([1, 2, 7, 128]),
)
def test_compute_forces_is_bitwise_block_independent(n, seed, dtype, block):
    box, potential, positions = _system(n, 0.6, seed)
    base = compute_forces(positions, box, potential, dtype=dtype, block=n)
    other = compute_forces(positions, box, potential, dtype=dtype, block=block)
    assert np.array_equal(base.accelerations, other.accelerations)
    assert base.potential_energy == other.potential_energy
    assert np.array_equal(base.row_interacting, other.row_interacting)
    assert base.interacting_pairs == other.interacting_pairs


def _all_columns(positions, rows, cols, box, potential, dtype, block=128):
    """The row kernel over every column of ``cols``: the reference the
    candidate scan must reproduce byte for byte."""
    pos = np.asarray(positions, dtype=np.float64).astype(dtype)
    rows = np.asarray(rows, dtype=np.int64)
    cols = np.asarray(cols, dtype=np.int64)
    return forces._scan_columns(pos, rows, cols, box, potential, block)


def _assert_bytes_equal(got, want):
    for name, g, w in zip(("acc", "pe_rows", "row_interacting"), got, want):
        assert g.dtype == w.dtype, name
        assert g.shape == w.shape, name
        assert g.tobytes() == w.tobytes(), name


def _node_subsets(draw, n):
    """Sorted ``rows ⊆ cols``, as a cluster node passes them, or every
    atom for both, as ``compute_forces`` does."""
    if draw(st.booleans()):
        every = np.arange(n)
        return every, every
    rows = draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=n, unique=True))
    extra = draw(st.lists(st.integers(0, n - 1), max_size=n))
    rows = np.array(sorted(rows), dtype=np.int64)
    return rows, np.union1d(rows, extra).astype(np.int64)


#: Atom counts at the paper's density and cutoff holding 2, 3 and 4
#: cells per axis: the fallback, whole-box and candidate regimes.
_PAPER_N_BY_CELLS = {2: (106, 356), 3: (357, 844), 4: (846, 1100)}


@st.composite
def _paper_cases(draw):
    m = draw(st.sampled_from(sorted(_PAPER_N_BY_CELLS)))
    n = draw(st.integers(*_PAPER_N_BY_CELLS[m]))
    seed = draw(st.integers(min_value=0, max_value=2**16))
    dtype = draw(st.sampled_from(DTYPES))
    rows, cols = _node_subsets(draw, n)
    return m, n, seed, dtype, rows, cols


@settings(max_examples=20, deadline=None)
@given(case=_paper_cases())
def test_candidate_scan_matches_all_columns_at_paper_density(case):
    m, n, seed, dtype, rows, cols = case
    box = PeriodicBox.from_density(n, 0.8442)
    potential = LennardJones(rcut=2.5)
    rng = np.random.default_rng(seed)
    positions = box.wrap(cubic_lattice(n, box) + rng.normal(0, 0.1, (n, 3)))
    assert cells_per_side(box, 2.5 + 1e-3) == m  # clear of the margin
    grid = forces._candidate_grid(positions.astype(dtype), box, potential)
    assert (grid is not None) == (m >= 4)
    _assert_bytes_equal(
        pair_block(positions, rows, cols, box, potential, dtype=dtype),
        _all_columns(positions, rows, cols, box, potential, dtype),
    )


@st.composite
def _cutoff_cases(draw):
    n = draw(st.integers(min_value=2, max_value=300))
    density = draw(st.sampled_from([0.05, 0.3, 0.85]))
    m = draw(st.integers(min_value=2, max_value=8))
    frac = draw(st.floats(min_value=0.01, max_value=0.99))
    seed = draw(st.integers(min_value=0, max_value=2**16))
    uniform = draw(st.booleans())
    dtype = draw(st.sampled_from(DTYPES))
    block = draw(st.sampled_from([1, 2, 7, 128]))
    rows, cols = _node_subsets(draw, n)
    return n, density, m, frac, seed, uniform, dtype, block, rows, cols


@settings(max_examples=60, deadline=None)
@given(case=_cutoff_cases())
def test_candidate_scan_matches_all_columns_for_any_cutoff(case):
    """Cutoffs from 2 to 8 cells per axis, lattice or uniform random
    positions (close pairs included), any block size."""
    n, density, m, frac, seed, uniform, dtype, block, rows, cols = case
    box = PeriodicBox.from_density(n, density)
    potential = LennardJones(rcut=box.length / (m + frac))
    rng = np.random.default_rng(seed)
    if uniform:
        positions = box.random_positions(n, rng)
    else:
        positions = box.wrap(cubic_lattice(n, box) + rng.normal(0, 0.2, (n, 3)))
    with np.errstate(all="ignore"):  # uniform draws may overflow LJ terms
        got = pair_block(positions, rows, cols, box, potential, dtype, block)
        want = _all_columns(positions, rows, cols, box, potential, dtype, block)
    _assert_bytes_equal(got, want)


@pytest.mark.parametrize("dtype", DTYPES)
def test_row_without_partners_keeps_the_all_columns_zero(dtype):
    """An isolated atom sums only out-of-cutoff zeros.  Atom 1's
    candidates (atom 0 first, a ``-0.0`` term in x) differ from all
    columns, yet the sum is ``+0.0`` either way: the self column adds
    ``+0.0``."""
    box = PeriodicBox(length=12.0)
    potential = LennardJones(rcut=2.5)
    # cells of side 3: atom 0 in (1,1,1), atom 1 in (0,0,0), the pair
    # in (2,0,2), atom 4 in (2,3,0) with no other atom around it
    positions = np.array(
        [
            [3.9, 3.9, 3.9],  # atom 0: 5.0 from atom 1, a -x neighbour
            [1.0, 1.0, 1.0],  # atom 1: no partner, atom 0 a candidate
            [7.5, 1.0, 7.5],  # atoms 2 and 3: a pair 1.1 apart
            [7.5, 2.1, 7.5],
            [7.5, 10.5, 1.5],  # atom 4: no candidate but itself
        ]
    )
    every = np.arange(len(positions))
    assert forces._candidate_grid(positions.astype(dtype), box, potential).m == 4
    got = pair_block(positions, every, every, box, potential, dtype=dtype)
    _assert_bytes_equal(got, _all_columns(positions, every, every, box, potential, dtype))
    acc, pe_rows, row_interacting = got
    assert list(row_interacting) == [0, 0, 1, 1, 0]
    assert np.signbit(positions[1, 0] - positions[0, 0])  # the -0.0 term
    for isolated in (0, 1, 4):
        assert np.all(acc[isolated] == 0.0) and not np.any(np.signbit(acc[isolated]))
        assert pe_rows[isolated] == 0.0 and not np.signbit(pe_rows[isolated])


@pytest.mark.parametrize("dtype", DTYPES)
def test_cell_side_within_a_float32_ulp_of_the_cutoff(dtype):
    """Five cells of side ``rcut + 1e-7`` would fit the box, but float32
    rounding puts this pair, two such cells apart, inside the cutoff.
    The margin drops the grid to four cells, so it is still found."""
    rcut = 2.3
    side = rcut + 1e-7  # under one float32 ulp (2.4e-7) above rcut
    box = PeriodicBox(length=5 * side)
    potential = LennardJones(rcut=rcut)
    positions = np.array(
        [
            [np.nextafter(2 * side, 0.0), 1.0, 1.0],
            [np.nextafter(3 * side, np.inf), 1.0, 1.0],
        ]
    )
    unpadded = CellGrid(box, rcut)
    assert unpadded.m == 5
    x_cells = unpadded.assign(positions) // (unpadded.m * unpadded.m)
    assert list(x_cells) == [1, 3]  # not neighbours without the margin
    every = np.arange(2)
    want = _all_columns(positions, every, every, box, potential, dtype)
    expected = 1 if dtype == np.float32 else 0
    assert list(want[2]) == [expected, expected]
    assert forces._candidate_grid(positions.astype(dtype), box, potential) is not None
    _assert_bytes_equal(pair_block(positions, every, every, box, potential, dtype=dtype), want)


@pytest.mark.parametrize("dtype", DTYPES)
@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_non_finite_position_matches_all_columns(dtype, bad):
    """One non-finite coordinate spreads to every row of an all-columns
    scan; the kernel must do the same, not confine it to nearby cells."""
    box, potential, positions = _system(300, 0.3, seed=5)
    positions[17, 1] = bad
    assert forces._candidate_grid(positions.astype(dtype), box, potential) is None
    every = np.arange(300)
    rows = every[::3]
    with np.errstate(all="ignore"):
        got = pair_block(positions, rows, every, box, potential, dtype=dtype)
        want = _all_columns(positions, rows, every, box, potential, dtype)
    _assert_bytes_equal(got, want)
    assert np.isnan(got[0][:, 1]).all()  # every row, in y
