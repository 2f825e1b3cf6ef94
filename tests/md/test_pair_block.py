"""The shared pair kernel's reduction contract.

:func:`repro.md.forces.pair_block` promises that a row's accelerations,
energy sum and partner count do not depend on which other columns are
present (as long as every cutoff partner is) nor on the row-block size.
That rests on one NumPy behaviour, isolated in
``_ordered_column_sums``: an axis-0 ``sum`` of a C-contiguous array of
width >= 2 adds the rows in index order.  The canary below checks that
behaviour directly, so a NumPy that changes it fails here, by name,
instead of as a drifting cluster digest.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.md import forces
from repro.md.box import PeriodicBox
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
