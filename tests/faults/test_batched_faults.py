"""Fault injection against batched multi-replica compiled execution.

The recovery contract the ensemble work depends on: a ``vm.bitflip``
landing in a compiled R-replica batch corrupts exactly one row of one
declared output, so it is attributable to a single replica
(``row // rows_per_replica``), detectable by the numeric guard (loud
severity saturates to ±inf), and recoverable by recomputing *only*
that replica — the other R-1 replicas' outputs are untouched,
bit for bit.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.cell.kernels import build_spe_timestep_kernel, timestep_constants
from repro.faults import FaultPlan, FaultSession, SiteSpec
from repro.md.lj import LennardJones
from repro.vm.machine import Machine

BOX_LENGTH = 8.0
PROGRAM = build_spe_timestep_kernel("simd_acceleration", BOX_LENGTH)
CONSTANTS = timestep_constants(LennardJones(), dt=0.005)
REPLICAS = 4
ROWS = 8
BATCH = REPLICAS * ROWS


def _env(machine: Machine, seed: int = 11) -> dict:
    rng = np.random.default_rng(seed)
    xi = rng.uniform(0.0, BOX_LENGTH, size=(BATCH, 3)).astype(np.float32)
    xj = (xi + rng.uniform(-1.5, 1.5, size=(BATCH, 3))).astype(np.float32)
    vi = rng.uniform(-0.1, 0.1, size=(BATCH, 3)).astype(np.float32)
    env = {
        "xi": machine.load_vec3(xi),
        "xj": machine.load_vec3(xj),
        "vi": machine.load_vec3(vi),
    }
    for name, value in CONSTANTS.items():
        env[name] = machine.make_register(BATCH, float(value))
    env["zero"] = machine.make_register(BATCH, 0.0)
    env["self_flag"] = machine.make_register(BATCH, 0.0)
    return env


def _clean_reference() -> dict:
    machine = Machine(width=4, dtype=np.float32, exec_backend="compiled")
    env = _env(machine)
    machine.run_program(PROGRAM, env, replicas=REPLICAS)
    return {name: env[name].copy() for name in PROGRAM.outputs}


def _faulted_run(plan: FaultPlan):
    machine = Machine(width=4, dtype=np.float32, exec_backend="compiled")
    session = FaultSession(plan)
    machine.install_fault_session(session)
    session.begin_step(0)
    env = _env(machine)
    machine.run_program(PROGRAM, env, replicas=REPLICAS)
    return env, session


def _injection_detail(session: FaultSession) -> dict:
    injected = session.log.by_kind("injected")
    assert len(injected) == 1, "expected exactly one scheduled bitflip"
    return dict(injected[0].detail)


class TestBatchedBitflip:
    def test_flip_lands_in_exactly_one_replica(self):
        clean = _clean_reference()
        plan = FaultPlan(sites={"vm.bitflip": SiteSpec(schedule=(0,))})
        env, session = _faulted_run(plan)
        detail = _injection_detail(session)
        assert detail["level"] == "vm"
        hit_replica = detail["row"] // ROWS
        hit_register = detail["register"]

        for name in PROGRAM.outputs:
            for replica in range(REPLICAS):
                got = env[name][replica * ROWS : (replica + 1) * ROWS]
                want = clean[name][replica * ROWS : (replica + 1) * ROWS]
                if replica == hit_replica and name == hit_register:
                    # one element of one row corrupted, nothing else
                    delta = got != want
                    assert delta.sum() == 1
                    assert delta[detail["row"] - replica * ROWS, 0]
                else:
                    assert got.tobytes() == want.tobytes(), (
                        f"fault in replica {hit_replica} perturbed "
                        f"replica {replica} output {name!r}"
                    )

    def test_loud_flip_is_detectable_by_numeric_guard(self):
        plan = FaultPlan(sites={"vm.bitflip": SiteSpec(schedule=(0,))})
        env, session = _faulted_run(plan)
        detail = _injection_detail(session)
        corrupted = env[detail["register"]]
        assert not np.isfinite(corrupted).all()
        # the guard's scan localizes the fault to the replica the log
        # attributes it to — detection needs no injection metadata
        bad_rows = np.unique(np.argwhere(~np.isfinite(corrupted))[:, 0])
        assert (bad_rows // ROWS == detail["row"] // ROWS).all()

    def test_recovery_recomputes_only_the_hit_replica(self):
        clean = _clean_reference()
        plan = FaultPlan(sites={"vm.bitflip": SiteSpec(schedule=(0,))})
        env, session = _faulted_run(plan)
        detail = _injection_detail(session)
        k = detail["row"] // ROWS

        # recompute replica k alone from the same inputs and splice it
        # back — the batch must now be bit-identical to the clean run
        retry = Machine(width=4, dtype=np.float32, exec_backend="compiled")
        sub = {
            name: reg[k * ROWS : (k + 1) * ROWS].copy()
            for name, reg in _env(retry).items()
        }
        retry.run_program(PROGRAM, sub, replicas=1)
        for name in PROGRAM.outputs:
            env[name][k * ROWS : (k + 1) * ROWS] = sub[name]
            assert env[name].tobytes() == clean[name].tobytes()

    def test_same_plan_hits_the_same_replica(self):
        """Injection is deterministic: seeded plans replay bit-identically."""
        plan = FaultPlan(sites={"vm.bitflip": SiteSpec(schedule=(0,))})
        env_a, session_a = _faulted_run(plan)
        env_b, session_b = _faulted_run(plan)
        assert _injection_detail(session_a) == _injection_detail(session_b)
        for name in PROGRAM.outputs:
            assert env_a[name].tobytes() == env_b[name].tobytes()

    def test_silent_flip_stays_finite_but_single_replica(self):
        clean = _clean_reference()
        plan = FaultPlan(sites={"vm.bitflip": SiteSpec(
            schedule=(0,), payload={"severity": "silent"}
        )})
        env, session = _faulted_run(plan)
        detail = _injection_detail(session)
        k = detail["row"] // ROWS
        corrupted = env[detail["register"]]
        assert np.isfinite(corrupted).all()  # slips the numeric guard
        for name in PROGRAM.outputs:
            for replica in range(REPLICAS):
                if replica == k:
                    continue
                got = env[name][replica * ROWS : (replica + 1) * ROWS]
                want = clean[name][replica * ROWS : (replica + 1) * ROWS]
                assert got.tobytes() == want.tobytes()

    def test_fault_hook_fires_once_per_batched_program(self):
        """One run_program call == one injection opportunity, regardless
        of how many replicas or segments it carried."""
        plan = FaultPlan(sites={"vm.bitflip": SiteSpec(rate=1.0)})
        env, session = _faulted_run(plan)
        assert session.injector.draw_counts() == {"vm.bitflip": 1}
        assert len(session.log.by_kind("injected")) == 1
