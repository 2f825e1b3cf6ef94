"""The molecular-dynamics engine: the paper's computational kernel.

Public surface re-exported here; see DESIGN.md section 1 for the module
map.
"""

from repro.md.bonded import BondedForceField, HarmonicAngle, HarmonicBond
from repro.md.box import PeriodicBox
from repro.md.cells import CellGrid
from repro.md.celllist import (
    CellList,
    CellListForceBackend,
    build_pairs_cells,
)
from repro.md.forcefield import (
    VerletListForceBackend,
    available_backends,
    make_force_backend,
    register_backend,
)
from repro.md.forces import (
    ForceResult,
    compute_forces,
    compute_forces_27image,
    compute_forces_reference,
    compute_pair_forces,
)
from repro.md.integrators import State, leapfrog_step, velocity_verlet_step
from repro.md.lattice import (
    cubic_lattice,
    fcc_lattice,
    maxwell_boltzmann_velocities,
    zero_net_momentum,
)
from repro.md.lj import LennardJones
from repro.md.neighborlist import (
    NeighborList,
    build_pairs,
    compute_forces_neighborlist,
)
from repro.md.observables import (
    kinetic_energy,
    net_momentum,
    temperature,
    total_energy,
)
from repro.md.rdf import RadialDistribution, radial_distribution
from repro.md.simulation import MDConfig, MDSimulation, StepRecord
from repro.md.thermostat import BerendsenThermostat, VelocityRescale
from repro.md.trajectory import Frame, Trajectory
from repro.md.units import ARGON, LJUnitSystem

__all__ = [
    "ARGON",
    "BerendsenThermostat",
    "BondedForceField",
    "CellGrid",
    "CellList",
    "CellListForceBackend",
    "ForceResult",
    "HarmonicAngle",
    "HarmonicBond",
    "RadialDistribution",
    "VelocityRescale",
    "VerletListForceBackend",
    "radial_distribution",
    "Frame",
    "LJUnitSystem",
    "LennardJones",
    "MDConfig",
    "MDSimulation",
    "NeighborList",
    "PeriodicBox",
    "State",
    "StepRecord",
    "Trajectory",
    "available_backends",
    "build_pairs",
    "build_pairs_cells",
    "compute_forces",
    "compute_forces_27image",
    "compute_forces_neighborlist",
    "compute_forces_reference",
    "compute_pair_forces",
    "cubic_lattice",
    "make_force_backend",
    "register_backend",
    "fcc_lattice",
    "kinetic_energy",
    "leapfrog_step",
    "maxwell_boltzmann_velocities",
    "net_momentum",
    "temperature",
    "total_energy",
    "velocity_verlet_step",
    "zero_net_momentum",
]
