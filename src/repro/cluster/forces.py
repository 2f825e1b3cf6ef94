"""Per-node force contribution, bit-identical to the global all-pairs kernel.

A K-way run must reproduce the plain device trajectory bit for bit,
potential energy included.  It does so by construction: each node runs
the same :func:`repro.md.forces.pair_block` as
:func:`~repro.md.forces.compute_forces`, over its owned rows and its
sorted owned + ghost columns.  ``pair_block`` reduces each row over its
columns in column order and out-of-cutoff columns add exact zeros, so a
row depends only on its cutoff partners, which the halo guarantees are
present (:mod:`repro.cluster.decomposition`).  The backend then
finishes as ``compute_forces`` does, with one ``0.5 * pe_rows.sum()``.

:func:`decomposed_record` runs a decomposed trajectory once per
(configuration, step count, K, halo width) and memoizes it with
:func:`repro.md.physics.memoize`: the node device model is not part of
the key, because the decomposed physics does not depend on it.
"""

from __future__ import annotations

import dataclasses
from typing import NamedTuple

import numpy as np

from repro.cluster.decomposition import ExchangePlan, SlabDecomposition
from repro.md.box import PeriodicBox
from repro.md.forces import _DEFAULT_BLOCK, ForceResult, _validate, pair_block
from repro.md.lj import LennardJones
from repro.md.physics import frozen_copy, memoize
from repro.md.simulation import MDConfig, MDSimulation, StepRecord

__all__ = [
    "DecomposedRecord",
    "NodeCounts",
    "NodeForces",
    "cluster_force_backend",
    "decomposed_record",
    "node_force_contribution",
]


@dataclasses.dataclass(frozen=True)
class NodeForces:
    """One node's force contribution for a step."""

    #: accelerations of the owned rows, node dtype, shape (n_owned, 3)
    accelerations: np.ndarray
    #: per-owned-row LJ energy sums (ordered view), node dtype
    pe_rows: np.ndarray
    #: ordered within-cutoff pair count over owned rows
    interacting: int
    #: ordered pair distances examined: n_owned * (n_local - 1)
    pairs_examined: int
    #: per-owned-row interacting-partner counts
    row_interacting: np.ndarray


def node_force_contribution(
    positions: np.ndarray,
    box: PeriodicBox,
    potential: LennardJones,
    rows: np.ndarray,
    cols: np.ndarray,
    dtype: np.dtype | type = np.float64,
    block: int = _DEFAULT_BLOCK,
) -> NodeForces:
    """Force rows ``rows`` against column set ``cols`` (both sorted global
    indices, ``rows ⊆ cols``) through the shared
    :func:`repro.md.forces.pair_block`."""
    positions64 = _validate(positions, box, potential)
    acc, pe_rows, row_interacting = pair_block(
        positions64, rows, cols, box, potential, dtype=dtype, block=block
    )
    return NodeForces(
        accelerations=acc,
        pe_rows=pe_rows,
        interacting=int(row_interacting.sum()),
        pairs_examined=len(rows) * (len(cols) - 1),
        row_interacting=row_interacting,
    )


def cluster_force_backend(
    decomposition: SlabDecomposition,
    box: PeriodicBox,
    potential: LennardJones,
    dtype: np.dtype | type = np.float64,
    block: int = _DEFAULT_BLOCK,
    collector=None,
):
    """A :class:`~repro.md.simulation.MDSimulation` force backend that
    evaluates forces through the slab decomposition.

    Returns a callable ``positions -> ForceResult`` whose accelerations
    are bit-identical to the global kernel's for every node count.  If
    ``collector`` is given it is called once per evaluation with
    ``(plan, node_forces)`` — the machine layer uses it to price the
    exchange that produced the step.
    """
    dtype = np.dtype(dtype)

    def backend(positions: np.ndarray) -> ForceResult:
        positions64 = _validate(positions, box, potential)
        n = positions64.shape[0]
        plan: ExchangePlan = decomposition.plan(positions64)

        acc = np.zeros((n, 3), dtype=dtype)
        pe_rows = np.zeros(n, dtype=dtype)
        row_interacting = np.zeros(n, dtype=np.int64)
        interacting = 0
        per_node: list[NodeForces] = []
        for domain in plan.domains:
            nf = node_force_contribution(
                positions64,
                box,
                potential,
                rows=domain.owned,
                cols=domain.local,
                dtype=dtype,
                block=block,
            )
            per_node.append(nf)
            # Ownership partitions the rows, so these are assignments
            # into disjoint slices — no accumulation-order dependence.
            acc[domain.owned] = nf.accelerations
            pe_rows[domain.owned] = nf.pe_rows
            row_interacting[domain.owned] = nf.row_interacting
            interacting += nf.interacting

        if collector is not None:
            collector(plan, tuple(per_node))

        return ForceResult(
            accelerations=acc.astype(np.float64),
            potential_energy=0.5 * float(pe_rows.sum(dtype=dtype)),
            interacting_pairs=interacting // 2,
            pairs_examined=n * (n - 1) // 2,
            row_interacting=row_interacting,
        )

    return backend


class NodeCounts(NamedTuple):
    """The pair counts of one node's force contribution, for pricing."""

    interacting: int
    pairs_examined: int


@dataclasses.dataclass(frozen=True)
class DecomposedRecord:
    """One decomposed trajectory: per-step exchange plans and node
    pair counts, the step records and the final state."""

    decomposition: SlabDecomposition
    #: ``n_steps + 1`` plans, the initial force evaluation's first
    plans: tuple[ExchangePlan, ...]
    #: per step, per node
    node_counts: tuple[tuple[NodeCounts, ...], ...]
    records: tuple[StepRecord, ...]
    final_positions: np.ndarray
    final_velocities: np.ndarray


@memoize
def decomposed_record(
    config: MDConfig, n_steps: int, n_nodes: int, halo_width: float
) -> DecomposedRecord:
    """``n_steps`` of ``config`` through :func:`cluster_force_backend`
    over ``n_nodes`` slabs with halo ``halo_width``, memoized."""
    box = config.make_box()
    decomposition = SlabDecomposition(box, n_nodes, halo_width)
    latest: dict[str, object] = {}

    def collector(plan: ExchangePlan, per_node: tuple[NodeForces, ...]):
        latest["plan"] = plan
        latest["counts"] = tuple(
            NodeCounts(nf.interacting, nf.pairs_examined) for nf in per_node
        )

    backend = cluster_force_backend(
        decomposition, box, config.make_potential(),
        dtype=config.np_dtype, collector=collector,
    )
    sim = MDSimulation(config, force_backend=backend)
    plans: list = [latest["plan"]]
    node_counts: list = []
    for _ in range(n_steps):
        sim.step()
        plans.append(latest["plan"])
        node_counts.append(latest["counts"])
    return DecomposedRecord(
        decomposition=decomposition,
        plans=tuple(plans),
        node_counts=tuple(node_counts),
        records=tuple(sim.records),
        final_positions=frozen_copy(sim.state.positions),
        final_velocities=frozen_copy(sim.state.velocities),
    )
