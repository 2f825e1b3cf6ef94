"""The 2.2 GHz Opteron baseline device (the paper's reference system)."""

from __future__ import annotations

from repro.arch import calibration as cal
from repro.arch.clock import Clock
from repro.arch.device import Device
from repro.arch.profilecounts import KernelMetrics
from repro.md.simulation import MDConfig
from repro.obs.observe import Observation
from repro.opteron.costmodel import cache_scan_stats, cache_stall_cycles_per_pair
from repro.opteron.kernel import OPTERON_COST_TABLE, build_opteron_kernel
from repro.vm.schedule import estimate_cycles

__all__ = ["OpteronDevice"]

#: O(N) integration work per atom per step, cycles (loads, FP ops,
#: stores of steps 1/3/4/5 on a 3-wide core).
OPTERON_INTEGRATION_CYCLES_PER_ATOM = 40.0

#: Measured P(taken) of the per-axis reflection if on a uniform liquid;
#: geometry-determined, shared with the Cell path (the code is the same
#: algorithm).  Overridden per run by the measured Cell value when the
#: experiments run both devices; kept here as a sane default.
_DEFAULT_REFLECT_TAKE = 0.04


class OpteronDevice(Device):
    """Scalar double-precision baseline with a simulated cache hierarchy."""

    precision = "float64"
    name = "opteron-2.2GHz"
    tune_family = "opteron"

    def __init__(
        self,
        reflect_take: float = _DEFAULT_REFLECT_TAKE,
        force_path: str = "all-pairs",
    ) -> None:
        if not 0.0 <= reflect_take <= 1.0:
            raise ValueError(f"reflect_take {reflect_take} outside [0, 1]")
        self.clock = Clock(cal.OPTERON_CLOCK_HZ, "opteron")
        self.reflect_take = reflect_take
        self.force_path = force_path
        self._program_cache: dict[float, object] = {}

    def prepare(self, config: MDConfig) -> None:
        self._box_length = config.make_box().length

    def branch_probabilities(self, config: MDConfig) -> dict[str, float]:
        return {"reflect_take": self.reflect_take}

    def _program(self, box_length: float):
        key = round(box_length, 12)
        if key not in self._program_cache:
            self._program_cache[key] = build_opteron_kernel(box_length)
        return self._program_cache[key]

    def kernel_cycles_per_pair(self, metrics: KernelMetrics) -> float:
        """Base (stall-free) cycles per examined pair; exposed for tests."""
        program = self._program(getattr(self, "_box_length", 1.0))
        report = estimate_cycles(program, OPTERON_COST_TABLE, metrics.as_dict())
        if metrics.pairs_examined == 0:
            return 0.0
        return report.total_cycles / metrics.pairs_examined

    def step_seconds(
        self, metrics: KernelMetrics, step_index: int
    ) -> dict[str, float]:
        program = self._program(self._box_length)
        report = estimate_cycles(program, OPTERON_COST_TABLE, metrics.as_dict())
        stall = cache_stall_cycles_per_pair(metrics.n_atoms) * metrics.pairs_examined
        integration = OPTERON_INTEGRATION_CYCLES_PER_ATOM * metrics.n_atoms
        return {
            "kernel": self.clock.seconds(report.total_cycles),
            "memory_stall": self.clock.seconds(stall),
            "integration": self.clock.seconds(integration),
        }

    def observe_step(
        self,
        obs: Observation,
        metrics: KernelMetrics,
        parts: dict[str, float],
        step_index: int,
    ) -> None:
        program = self._program(self._box_length)
        report = estimate_cycles(program, OPTERON_COST_TABLE, metrics.as_dict())
        stats = cache_scan_stats(metrics.n_atoms)
        # Each atom's inner loop rescans the position array once per step.
        scale = metrics.n_atoms / stats.scans
        obs.charge("opteron.kernel.cycles", report.total_cycles)
        obs.charge("opteron.cache.l1_accesses", round(stats.l1_accesses * scale))
        obs.charge("opteron.cache.l1_hits", round(stats.l1_hits * scale))
        obs.charge("opteron.cache.l2_accesses", round(stats.l2_accesses * scale))
        obs.charge("opteron.cache.l2_hits", round(stats.l2_hits * scale))
        obs.charge(
            "opteron.cache.stall_cycles",
            cache_stall_cycles_per_pair(metrics.n_atoms) * metrics.pairs_examined,
        )
        super().observe_step(obs, metrics, parts, step_index)
