"""Shared fixtures for the test suite."""

from __future__ import annotations

import numpy as np
import pytest

from repro.md import MDConfig, cubic_lattice
from repro.md.physics import clear_memo


@pytest.fixture(autouse=True)
def _fresh_physics_memo():
    """Every test starts with an empty trajectory memo, so no test's
    outcome depends on which trajectories earlier tests computed."""
    clear_memo()
    yield
    clear_memo()


@pytest.fixture
def small_config() -> MDConfig:
    """A fast workload whose box still accommodates the 2.5-sigma cutoff."""
    return MDConfig(n_atoms=128)


@pytest.fixture
def small_system(small_config):
    """(config, box, potential, positions) for a 128-atom lattice."""
    box = small_config.make_box()
    potential = small_config.make_potential()
    positions = cubic_lattice(small_config.n_atoms, box)
    return small_config, box, potential, positions


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(20070326)  # IPDPS 2007 conference date
