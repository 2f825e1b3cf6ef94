"""The shared physics record: one trajectory, priced on every device.

A memo hit must be indistinguishable from computing the trajectory
afresh, and from the live loop that fault runs keep; devices whose
physics is not the functional backend must never be served from it.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.arch.device import Device
from repro.cell import CellDevice, PPEOnlyDevice
from repro.faults.plan import FaultPlan
from repro.gpu import GpuDevice
from repro.md.forces import compute_forces
from repro.md.physics import _physics_record, clear_memo, physics_record
from repro.md.simulation import MDConfig
from repro.mta import MTADevice, XMTDevice
from repro.obs.observe import Observation
from repro.opteron import OpteronDevice
from repro.tune.context import applied

CONFIG = MDConfig(n_atoms=128)
STEPS = 3

FAST_DEVICES = {
    "opteron": OpteronDevice,
    "cell-1spe": lambda: CellDevice(n_spes=1),
    "cell-8spe": lambda: CellDevice(n_spes=8),
    "ppe-only": PPEOnlyDevice,
    "gpu-fast": GpuDevice,
    "mta": MTADevice,
    "xmt": XMTDevice,
}


def _observed_run(make, **kwargs):
    obs = Observation()
    result = make().run(CONFIG, STEPS, observe=obs, **kwargs)
    return result, obs


def _assert_same_run(a, a_obs, b, b_obs):
    assert a.records == b.records
    assert a.final_positions.tobytes() == b.final_positions.tobytes()
    assert a.final_velocities.tobytes() == b.final_velocities.tobytes()
    assert a.step_seconds == b.step_seconds
    assert a.step_breakdowns == b.step_breakdowns
    assert a.breakdown == b.breakdown
    assert a.setup_seconds == b.setup_seconds
    assert a.counters == b.counters
    assert a_obs.counters.as_dict() == b_obs.counters.as_dict()
    assert a_obs.tracer.spans == b_obs.tracer.spans
    assert a_obs.tracer.samples == b_obs.tracer.samples


def _memo_stats():
    info = _physics_record.cache_info()
    return info.hits, info.misses


class _SpyBackend:
    """Counts every force evaluation of the backends a device builds."""

    def __init__(self, device: Device):
        self.calls = 0
        self._build = device.force_backend
        device.force_backend = self

    def __call__(self, sim_box, potential):
        backend = self._build(sim_box, potential)

        def counted(positions):
            self.calls += 1
            return backend(positions)

        return counted


class _OwnBackendDevice(OpteronDevice):
    """A device whose force backend is its own, not the shared one."""

    name = "own-backend"

    def force_backend(self, sim_box, potential):
        def backend(positions):
            return compute_forces(positions, sim_box, potential)

        return backend


class TestMemoEquivalence:
    @pytest.mark.parametrize("name", sorted(FAST_DEVICES))
    def test_hit_equals_fresh_computation(self, name):
        make = FAST_DEVICES[name]
        fresh, fresh_obs = _observed_run(make)
        assert _memo_stats() == (0, 1)
        hit, hit_obs = _observed_run(make)
        assert _memo_stats() == (1, 1)
        _assert_same_run(fresh, fresh_obs, hit, hit_obs)

    @pytest.mark.parametrize("name", sorted(FAST_DEVICES))
    def test_zero_rate_fault_run_equals_memoized_run(self, name):
        make = FAST_DEVICES[name]
        shared, shared_obs = _observed_run(make)
        live, live_obs = _observed_run(make, faults=FaultPlan.none())
        assert _memo_stats() == (0, 1)  # the fault run stepped live
        _assert_same_run(shared, shared_obs, live, live_obs)

    def test_devices_of_one_precision_share_one_trajectory(self):
        one = CellDevice(n_spes=1).run(CONFIG, STEPS)
        ppe = PPEOnlyDevice().run(CONFIG, STEPS)
        gpu = GpuDevice().run(CONFIG, STEPS)
        assert _memo_stats() == (2, 1)
        assert one.records == ppe.records == gpu.records
        assert one.step_seconds != ppe.step_seconds  # priced per device

    def test_precisions_do_not_share(self):
        OpteronDevice().run(CONFIG, STEPS)
        CellDevice().run(CONFIG, STEPS)
        assert _memo_stats() == (0, 2)

    def test_tuned_backend_option_is_a_separate_key(self):
        plain = OpteronDevice().run(CONFIG, STEPS)
        with applied({"md.block": 64}):
            device = OpteronDevice()
            assert device.backend_options() == {"block": 64}
            tuned = device.run(CONFIG, STEPS)
        assert _memo_stats() == (0, 2)
        # md.block never changes the all-pairs physics
        assert plain.records == tuned.records

    def test_step_count_is_part_of_the_key(self):
        OpteronDevice().run(CONFIG, STEPS)
        OpteronDevice().run(CONFIG, STEPS + 1)
        assert _memo_stats() == (0, 2)

    def test_clear_memo_forgets_everything(self):
        OpteronDevice().run(CONFIG, STEPS)
        clear_memo()
        OpteronDevice().run(CONFIG, STEPS)
        assert _memo_stats() == (0, 1)


class TestMemoSafety:
    def test_record_arrays_are_read_only(self):
        record = physics_record(CONFIG, STEPS, "all-pairs")
        with pytest.raises(ValueError):
            record.final_positions[0, 0] = 0.0
        with pytest.raises(ValueError):
            record.final_velocities[0, 0] = 0.0

    def test_writing_a_result_leaves_the_next_hit_unchanged(self):
        first = OpteronDevice().run(CONFIG, STEPS)
        positions = first.final_positions.copy()
        velocities = first.final_velocities.copy()
        first.final_positions[:] = np.nan
        first.final_velocities[:] = np.nan
        second = OpteronDevice().run(CONFIG, STEPS)
        assert _memo_stats() == (1, 1)
        assert second.final_positions.tobytes() == positions.tobytes()
        assert second.final_velocities.tobytes() == velocities.tobytes()

    @pytest.mark.parametrize(
        "make",
        [
            lambda: CellDevice(n_spes=1, mode="vm"),
            lambda: GpuDevice(mode="vm"),
            _OwnBackendDevice,
        ],
        ids=["cell-vm", "gpu-vm", "own-backend"],
    )
    def test_own_backends_run_on_every_run(self, make):
        config = MDConfig(n_atoms=64, density=0.5)
        device = make()
        assert not device.uses_shared_physics()
        spy = _SpyBackend(device)
        for _ in range(2):
            device.run(config, 1)
        assert spy.calls == 2 * 2  # initial evaluation + one step, twice
        assert _memo_stats() == (0, 0)

    def test_fast_devices_use_the_shared_record(self):
        for make in FAST_DEVICES.values():
            assert make().uses_shared_physics()
