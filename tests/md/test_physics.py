"""The memoized physics record of :mod:`repro.md.physics`."""

from __future__ import annotations

import pytest

from repro.md.physics import _physics_record, clear_memo, physics_record
from repro.md.simulation import MDConfig, MDSimulation

CONFIG = MDConfig(n_atoms=128, dtype="float32")


class TestRecord:
    def test_matches_a_direct_simulation(self):
        record = physics_record(CONFIG, 3, "all-pairs")
        sim = MDSimulation(CONFIG, force_backend="all-pairs")
        sim.run(3)
        assert record.records == tuple(sim.records)
        assert len(record.records) == 4
        assert record.final_positions.tobytes() == sim.state.positions.tobytes()
        assert record.final_velocities.tobytes() == sim.state.velocities.tobytes()
        assert record.final_positions.dtype == sim.state.positions.dtype

    def test_arrays_are_read_only(self):
        record = physics_record(CONFIG, 1, "all-pairs")
        with pytest.raises(ValueError):
            record.final_positions[0, 0] = 0.0
        with pytest.raises(ValueError):
            record.final_velocities[0, 0] = 0.0

    def test_negative_steps_are_rejected_and_not_cached(self):
        with pytest.raises(ValueError):
            physics_record(CONFIG, -1, "all-pairs")
        assert _physics_record.cache_info().currsize == 0


class TestMemo:
    def test_second_request_is_the_same_object(self):
        first = physics_record(CONFIG, 2, "all-pairs")
        assert physics_record(CONFIG, 2, "all-pairs") is first

    def test_option_order_does_not_matter(self):
        dilute = MDConfig(n_atoms=128, density=0.5)  # box fits the cell list
        a = physics_record(dilute, 1, "cell", {"buffer": 0.3, "rebuild_check_delay": 2})
        b = physics_record(dilute, 1, "cell", {"rebuild_check_delay": 2, "buffer": 0.3})
        assert a is b

    @pytest.mark.parametrize(
        "other",
        [
            dict(config=MDConfig(n_atoms=128, dtype="float64")),
            dict(config=MDConfig(n_atoms=128, dtype="float32", seed=1)),
            dict(n_steps=3),
            dict(force_path="27image"),
            dict(options={"block": 64}),
        ],
        ids=["dtype", "seed", "n_steps", "force_path", "options"],
    )
    def test_every_key_part_separates(self, other):
        base = dict(config=CONFIG, n_steps=2, force_path="all-pairs", options=None)
        first = physics_record(**base)
        assert physics_record(**{**base, **other}) is not first

    def test_clear_memo_empties_every_memo(self):
        from repro.cluster.forces import decomposed_record

        physics_record(CONFIG, 1, "all-pairs")
        decomposed_record(CONFIG, 1, 2, 2.5)
        clear_memo()
        assert _physics_record.cache_info().currsize == 0
        assert decomposed_record.cache_info().currsize == 0
