"""The Device contract: shared physics, priced per device model.

The MD physics of a run is computed once per key — configuration,
precision, step count, force path and resolved backend options — by
:func:`repro.md.physics.physics_record`, and every device whose force
path is the plain functional backend prices that one record: for each
step it reports simulated wall-clock components derived from its cost
model and the measured kernel metrics of that step.  Fault runs and
devices with their own force backend (instruction-level VM modes, test
doubles) step their backend live instead, through the same pricing
code.  :meth:`Device.run` is the template method tying the two halves
together; subclasses implement :meth:`Device.step_seconds`.
"""

from __future__ import annotations

import abc
import dataclasses
from typing import Any

import numpy as np

from repro.arch.profilecounts import KernelMetrics, pair_trip_metrics
from repro.faults.checkpoint import CheckpointManager, RestoreBudgetExceeded
from repro.faults.detect import EnergyDriftWatchdog
from repro.faults.plan import FaultPlan
from repro.faults.session import FaultSession, UnrecoveredFaultError
from repro.md.physics import physics_record
from repro.md.simulation import MDConfig, MDSimulation, StepRecord
from repro.obs.context import ambient_observation
from repro.obs.observe import Observation

__all__ = ["Device", "DeviceRunResult", "merge_breakdowns"]


def merge_breakdowns(*breakdowns: dict[str, float]) -> dict[str, float]:
    """Sum per-component second tallies."""
    merged: dict[str, float] = {}
    for breakdown in breakdowns:
        for key, value in breakdown.items():
            merged[key] = merged.get(key, 0.0) + value
    return merged


@dataclasses.dataclass(frozen=True)
class DeviceRunResult:
    """Outcome of simulating ``n_steps`` MD steps on a device model."""

    device: str
    config: MDConfig
    n_steps: int
    setup_seconds: float
    step_seconds: tuple[float, ...]
    step_breakdowns: tuple[dict[str, float], ...]
    breakdown: dict[str, float]
    records: tuple[StepRecord, ...]
    final_positions: np.ndarray
    final_velocities: np.ndarray
    #: structured fault audit trail (event dicts) when the run executed
    #: under a fault plan; empty tuple otherwise
    fault_events: tuple[dict[str, Any], ...] = ()
    #: accounting tallies from the fault session (injected/recovered/...)
    fault_summary: dict[str, Any] = dataclasses.field(default_factory=dict)
    #: hardware counters accumulated by this run when observed (the
    #: delta against whatever the Observation held beforehand); empty
    #: dict when the run was unobserved
    counters: dict[str, float] = dataclasses.field(default_factory=dict)

    @property
    def total_seconds(self) -> float:
        """Simulated run time excluding one-time setup (the paper's
        Figure-7 convention: startup "is not included in these results")."""
        return float(sum(self.step_seconds))

    @property
    def total_seconds_with_setup(self) -> float:
        return self.setup_seconds + self.total_seconds

    @property
    def seconds_per_step(self) -> float:
        if self.n_steps == 0:
            return 0.0
        return self.total_seconds / self.n_steps

    def component(self, name: str) -> float:
        return self.breakdown.get(name, 0.0)


class Device(abc.ABC):
    """Base class for the four device models."""

    #: human-readable device name
    name: str = "device"
    #: native arithmetic precision ("float32" on Cell/GPU, "float64"
    #: on Opteron/MTA-2 — section 3.5 of the paper)
    precision: str = "float64"
    #: functional force path, a :mod:`repro.md.forcefield` registry name.
    #: "all-pairs" reproduces the paper's deliberate O(N^2) formulation;
    #: "cell" swaps in the linked-cell engine so large-N sweeps stay
    #: feasible (the *simulated* cost model is unchanged — it prices the
    #: paper's kernel from the step's measured metrics either way).
    force_path: str = "all-pairs"
    #: scope under which this device reads tuned knob values — a tuned
    #: config key ``"<tune_family>/<knob>"`` applies only to devices of
    #: that family (see :mod:`repro.tune.context`)
    tune_family: str = "host"

    def force_backend(self, sim_box, potential):
        """Return the functional force callable for this device.

        The callable maps positions -> :class:`ForceResult` and must
        perform arithmetic in the device's native precision.  The
        default is :meth:`functional_backend`; a device that overrides
        this runs its own backend live on every run (see
        :meth:`uses_shared_physics`).
        """
        return self.functional_backend(sim_box, potential)

    def functional_backend(self, sim_box, potential):
        """Resolve :attr:`force_path` through the backend registry.

        The concrete devices' NumPy-level ("fast") force paths all
        delegate here, so every device honors a ``force_path`` override;
        instruction-level VM paths ignore it by design.  Factory options
        come from :meth:`backend_options`.
        """
        from repro.md.forcefield import make_force_backend

        return make_force_backend(
            self.force_path,
            sim_box,
            potential,
            dtype=np.dtype(self.precision),
            **self.backend_options(),
        )

    def backend_options(self) -> dict[str, object]:
        """Factory options of the functional backend: the active tuned
        knob values for this device's :attr:`tune_family`, or ``{}``
        (factory defaults) with no tuning in effect."""
        from repro.md.forcefield import tuned_backend_options

        return tuned_backend_options(self.force_path, self.tune_family)

    def uses_shared_physics(self) -> bool:
        """Whether a fault-free :meth:`run` prices the shared physics
        record rather than stepping :meth:`force_backend` itself.

        True exactly when the force backend is the inherited
        :meth:`functional_backend` delegate, whose trajectory depends
        only on the record's key.  Devices with a mode switch refine
        this.
        """
        return type(self).force_backend is Device.force_backend

    @abc.abstractmethod
    def step_seconds(
        self, metrics: KernelMetrics, step_index: int
    ) -> dict[str, float]:
        """Simulated seconds for one MD step, broken down by component."""

    def setup_breakdown(self) -> dict[str, float]:
        """One-time setup costs (JIT compile, first thread launch, ...)."""
        return {}

    def prepare(self, config: MDConfig) -> None:
        """Hook called once per run before stepping (program builds, ...)."""

    def workers(self) -> int:
        """How many workers split the ordered pair scan (SPE count, ...)."""
        return 1

    def branch_probabilities(self, config: MDConfig) -> dict[str, float]:
        """Measured data-dependent branch probabilities for this workload.

        Devices whose kernels contain IfBlocks override this with values
        measured by the VM on a calibration system; the base returns {}.
        """
        return {}

    @property
    def observation(self) -> Observation | None:
        """The active :class:`Observation` during :meth:`run`, else ``None``.

        Device hooks may consult this mid-run; counter charging and span
        emission happen through :meth:`observe_step`, called by the
        template method once per completed step.
        """
        return getattr(self, "_observation", None)

    @property
    def fault_session(self) -> FaultSession | None:
        """The active fault session during :meth:`run`, else ``None``.

        Device hooks (DMA transfers, mailbox signals, cost-model step
        pricing) consult this to draw and recover injected faults; with
        no session — or a zero-rate plan — every hook is a no-op.
        """
        return getattr(self, "_fault_session", None)

    def run(
        self,
        config: MDConfig,
        n_steps: int,
        faults: FaultPlan | None = None,
        observe: "Observation | bool | None" = None,
    ) -> DeviceRunResult:
        """Run ``n_steps`` of MD functionally and accumulate simulated time.

        With a :class:`FaultPlan`, the run executes under a fault
        session: device hooks inject/recover transfer faults, the force
        path runs behind the numeric guard, and an energy-drift watchdog
        backs the simulation up to the last good checkpoint when silent
        corruption slips through.  All recovery is charged in simulated
        seconds (the ``fault_recovery`` breakdown component).  A
        zero-rate plan is bit-identical to ``faults=None``.

        ``observe`` controls hardware-counter and timeline collection:
        an explicit :class:`~repro.obs.observe.Observation` records into
        that object, ``None`` (the default) records into the ambient
        :func:`~repro.obs.context.collect` session if one is active (and
        is otherwise completely off), and ``False`` forces observation
        off.  Observation never changes timing or physics results.
        """
        if n_steps < 0:
            raise ValueError(f"n_steps must be non-negative, got {n_steps}")
        config = dataclasses.replace(config, dtype=self.precision)
        session = FaultSession(faults) if faults is not None else None
        if observe is None:
            obs = ambient_observation(self.name)
        elif observe is False:
            obs = None
        else:
            obs = observe
        self._fault_session = session
        self._observation = obs
        try:
            return self._run(config, n_steps, session)
        finally:
            self._fault_session = None
            self._observation = None

    def _run(
        self, config: MDConfig, n_steps: int, session: FaultSession | None
    ) -> DeviceRunResult:
        self.prepare(config)
        if session is not None or not self.uses_shared_physics():
            return self._run_live(config, n_steps, session)
        physics = physics_record(
            config, n_steps, self.force_path, self.backend_options()
        )
        branch_probs = self.branch_probabilities(config)
        obs = self.observation
        counter_baseline = obs.counters.as_dict() if obs is not None else {}
        breakdowns = [
            self._price_step(
                config, branch_probs, record.interacting_pairs, step_index, None
            )
            for step_index, record in enumerate(physics.records[1:])
        ]
        return self._result(
            config, n_steps, breakdowns, physics.records,
            physics.final_positions, physics.final_velocities,
            None, counter_baseline,
        )

    def _run_live(
        self, config: MDConfig, n_steps: int, session: FaultSession | None
    ) -> DeviceRunResult:
        """Step this device's own force backend: the path for fault runs
        (the guard, watchdog and restores act on the live state) and for
        devices whose physics is not the shared functional trajectory."""
        box = config.make_box()
        potential = config.make_potential()
        backend = self.force_backend(box, potential)
        if session is not None:
            session.enabled = False  # checkpoint 0 must be trustworthy
            backend = session.guard_backend(backend)

        sim = MDSimulation(config, force_backend=backend)
        watchdog: EnergyDriftWatchdog | None = None
        manager: CheckpointManager | None = None
        if session is not None:
            watchdog = EnergyDriftWatchdog(
                tolerance=session.plan.watchdog_tolerance,
                window=session.plan.watchdog_window,
            )
            watchdog.arm(sim.records[0].total_energy)
            manager = CheckpointManager(
                interval=session.plan.checkpoint_interval,
                max_restores=session.plan.max_restores,
            )
            manager.take(sim)
            session.enabled = True

        branch_probs = self.branch_probabilities(config)
        obs = self.observation
        counter_baseline = obs.counters.as_dict() if obs is not None else {}
        breakdowns: list[dict[str, float]] = []
        while sim.step_count < n_steps:
            step_index = len(breakdowns)
            if session is not None:
                session.begin_step(step_index + 1)
            record = sim.step()
            breakdowns.append(self._price_step(
                config, branch_probs, record.interacting_pairs, step_index,
                session,
            ))
            if session is not None:
                assert watchdog is not None and manager is not None
                if watchdog.observe(record.total_energy):
                    checkpoint = manager.last
                    assert checkpoint is not None
                    wasted = float(sum(
                        sum(parts.values())
                        for parts in breakdowns[checkpoint.step :]
                    ))
                    try:
                        manager.note_restore()
                    except RestoreBudgetExceeded as exc:
                        session.log.append(
                            sim.step_count, "vm.bitflip", "aborted",
                            {"faults": session.silent_pending,
                             "reason": str(exc)},
                        )
                        raise UnrecoveredFaultError(str(exc), session.log) from exc
                    session.note_restore(
                        sim.step_count,
                        checkpoint.step,
                        wasted,
                        watchdog.drift(record.total_energy),
                    )
                    sim.restore(checkpoint)
                    del breakdowns[checkpoint.step :]
                    continue
                manager.maybe_take(sim)

        return self._result(
            config, n_steps, breakdowns, tuple(sim.records),
            sim.state.positions, sim.state.velocities,
            session, counter_baseline,
        )

    def _price_step(
        self,
        config: MDConfig,
        branch_probs: dict[str, float],
        interacting_pairs: int,
        step_index: int,
        session: FaultSession | None,
    ) -> dict[str, float]:
        """Price one completed step and observe it: kernel metrics from
        the step's pair count, the device's cost model, any fault
        recovery surcharge, then the counters and spans."""
        metrics = pair_trip_metrics(
            n_atoms=config.n_atoms,
            interacting_pairs=interacting_pairs,
            workers=self.workers(),
            branch_probabilities=branch_probs,
        )
        parts = self.step_seconds(metrics, step_index)
        if session is not None:
            recovery = session.drain_pending()
            retries = session.drain_retries()
            if retries:
                # Each recompute re-pays the whole step's kernel path.
                recovery += retries * sum(parts.values())
            recovery += session.drain_carried()
            if recovery > 0.0:
                parts = dict(parts)
                parts["fault_recovery"] = (
                    parts.get("fault_recovery", 0.0) + recovery
                )
        obs = self.observation
        if obs is not None:
            # A watchdog restore rewinds the breakdowns but not the
            # observation: the trace keeps the wasted work visible (that
            # is the point of a timeline) and the counters keep charging
            # real executed work.
            self._observe_step(obs, metrics, parts, step_index)
        return parts

    def _result(
        self,
        config: MDConfig,
        n_steps: int,
        breakdowns: list[dict[str, float]],
        records: tuple[StepRecord, ...],
        final_positions: np.ndarray,
        final_velocities: np.ndarray,
        session: FaultSession | None,
        counter_baseline: dict[str, float],
    ) -> DeviceRunResult:
        obs = self.observation
        setup = self.setup_breakdown()
        return DeviceRunResult(
            device=self.name,
            config=config,
            n_steps=n_steps,
            setup_seconds=sum(setup.values()),
            step_seconds=tuple(sum(parts.values()) for parts in breakdowns),
            step_breakdowns=tuple(breakdowns),
            breakdown=merge_breakdowns(*breakdowns),
            records=records,
            final_positions=np.array(final_positions, copy=True),
            final_velocities=np.array(final_velocities, copy=True),
            fault_events=tuple(session.log.to_dicts()) if session else (),
            fault_summary=session.summary() if session else {},
            counters=(
                obs.counters.delta(counter_baseline) if obs is not None else {}
            ),
        )

    # -- observability -------------------------------------------------

    def _observe_step(
        self,
        obs: Observation,
        metrics: KernelMetrics,
        parts: dict[str, float],
        step_index: int,
    ) -> None:
        """Charge the generic counters and the ``step`` span, then
        delegate to :meth:`observe_step` and advance the cursor."""
        total = sum(parts.values())
        workers = self.workers()
        obs.charge("step.count", 1)
        obs.charge("sim.seconds", total)
        obs.charge("pairs.examined", round(metrics.pairs_examined * workers))
        obs.charge(
            "pairs.interacting",
            round(
                metrics.pairs_examined * workers * metrics.interacting_fraction
            ),
        )
        obs.span_at(
            "step", "step", 0.0, total, args={"step": step_index, **parts}
        )
        self.observe_step(obs, metrics, parts, step_index)
        obs.advance(total)

    def observe_step(
        self,
        obs: Observation,
        metrics: KernelMetrics,
        parts: dict[str, float],
        step_index: int,
    ) -> None:
        """Device-specific counters and spans for one completed step.

        ``parts`` is the step's final component breakdown (including any
        ``fault_recovery`` surcharge).  The default lays the components
        end to end, each on a lane named after itself; devices with
        concurrent hardware units (SPEs, pipelines, streams) override
        this to emit one lane per unit and charge their hardware
        counters.  Implementations must *recompute* whatever they need
        from the same inputs ``step_seconds`` used — never mutate
        simulation state.
        """
        offset = 0.0
        for name, seconds in parts.items():
            if seconds > 0.0:
                obs.span_at(name, name, offset, seconds, args={"step": step_index})
                offset += seconds
