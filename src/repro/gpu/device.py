"""The streaming-GPU device model (paper section 5.2).

Per time step, the host uploads the position texture over PCIe, the
pipeline array executes the MD shader once per output atom (each
invocation scanning all N positions), and the host reads back the
acceleration+PE array — "these costs are included", while the one-time
JIT/setup cost "occurs only once ... so it is not included", matching
the Figure-7 accounting exactly (setup is reported separately by
:class:`repro.arch.device.DeviceRunResult`).
"""

from __future__ import annotations

import numpy as np

from repro.arch import calibration as cal
from repro.arch.device import Device
from repro.arch.interconnect import PCIeBus, TransferModel
from repro.arch.profilecounts import KernelMetrics
from repro.gpu.kernels import build_md_shader, shader_constants
from repro.gpu.pipelines import GPU_ISSUE_SLOTS, PipelineArray
from repro.md.box import PeriodicBox
from repro.md.forces import ForceResult, compute_forces
from repro.md.lj import LennardJones
from repro.md.simulation import MDConfig
from repro.obs.observe import Observation
from repro.tune.context import tuned_value
from repro.tune.spec import TunableSpec, register_tunable
from repro.vm.machine import Machine, resolve_exec_backend
from repro.vm.schedule import count_issues

__all__ = ["GpuDevice", "GpuPairSweep", "make_pcie_bus"]

# The pair-batch width of the functional rasterization: how many output
# rows each driver dispatch materializes as an (rows x N) pair batch.
# Purely a batching choice — every (i, j) pair still contributes exactly
# once, so results are bit-identical across widths.
register_tunable(TunableSpec(
    name="gpu.row_block",
    backend="gpu",
    kind="int",
    default=128,
    candidates=(32, 64, 128, 256, 512),
    low=1,
    high=4096,
    description="output rows per GPU pair-batch dispatch",
    effect="wider batches cut dispatch overhead until the pair batch "
           "overflows cache; narrow batches waste closure setup",
))


def make_pcie_bus() -> PCIeBus:
    return PCIeBus(
        link=TransferModel(
            latency_s=cal.PCIE_LATENCY_S,
            bandwidth_bytes_per_s=cal.PCIE_BANDWIDTH_BPS,
            name="pcie",
        ),
        readback_sync_s=cal.GPU_READBACK_SYNC_S,
    )


class GpuPairSweep:
    """Functional execution of the MD shader on the batched VM.

    One "rasterization": every output atom's invocation scans all N
    partner positions.  The driver plays the rasterizer/texture units:
    it materializes the (i, j) pair batch, runs the shader body, and
    sums each invocation's masked contributions — the accumulation that
    the shader's single-output loop performs across its inner scan.
    """

    def __init__(
        self, shader, width: int = 4, exec_backend: str | None = None
    ) -> None:
        self.shader = shader
        # Shaders only expose declared outputs, so the compiled VM
        # backend is the default; exec_backend or a tuned vm.exec override.
        self.machine = Machine(
            width=width,
            dtype=np.float32,
            exec_backend=resolve_exec_backend(
                exec_backend, default="compiled", device="gpu"
            ),
        )
        self._env_cache: dict[int, dict[str, np.ndarray]] = {}
        self._env_constants: tuple | None = None
        self._replica_env_cache: dict[tuple, dict[str, np.ndarray]] = {}

    @staticmethod
    def _resolve_row_block(row_block: int | None) -> int:
        """Explicit argument > tuned ``gpu.row_block`` > 128."""
        if row_block is not None:
            return row_block
        tuned = tuned_value("gpu.row_block", "gpu")
        return int(tuned) if tuned is not None else 128

    def _block_env(self, batch: int, constants: dict[str, float]) -> dict[str, np.ndarray]:
        """Constant/zero/tiny/self_flag registers per batch size, reused
        across row blocks (only ``self_flag`` is mutated, re-zeroed here)."""
        key = tuple(sorted(constants.items()))
        if key != self._env_constants:
            self._env_cache.clear()
            self._env_constants = key
        cached = self._env_cache.get(batch)
        if cached is None:
            machine = self.machine
            cached = {
                name: machine.make_register(batch, float(value))
                for name, value in constants.items()
            }
            cached["zero"] = machine.make_register(batch, 0.0)
            cached["tiny"] = machine.make_register(batch, 1.0e-12)
            cached["self_flag"] = machine.make_register(batch, 0.0)
            if len(self._env_cache) > 8:
                self._env_cache.clear()
            self._env_cache[batch] = cached
        return cached

    def run(
        self,
        positions: np.ndarray,
        constants: dict[str, float],
        row_block: int | None = None,
    ) -> tuple[np.ndarray, np.ndarray]:
        """Returns (accelerations (n, 3), pe contribution per atom (n,))."""
        row_block = self._resolve_row_block(row_block)
        positions32 = np.asarray(positions, dtype=np.float32)
        n = positions32.shape[0]
        machine = self.machine
        acc = np.zeros((n, 3), dtype=np.float32)
        pe = np.zeros(n, dtype=np.float32)
        for start in range(0, n, row_block):
            stop = min(start + row_block, n)
            rows = np.arange(start, stop)
            xi = np.repeat(positions32[rows], n, axis=0)
            xj = np.tile(positions32, (rows.size, 1))
            j_index = np.tile(np.arange(n), rows.size)
            i_index = np.repeat(rows, n)
            self_rows = i_index == j_index
            env: dict[str, np.ndarray] = {
                "xi": machine.load_vec3(xi),
                "xj": machine.load_vec3(xj),
            }
            batch = env["xi"].shape[0]
            env.update(self._block_env(batch, constants))
            self_flag = env["self_flag"]
            self_flag.fill(0.0)
            self_flag[self_rows] = 1.0
            machine.run_segment(self.shader.program, "pair", env)
            out = env["acc_out"].reshape(rows.size, n, machine.width)
            acc[rows] = out[:, :, :3].sum(axis=1, dtype=np.float32)
            pe[rows] = out[:, :, 3].sum(axis=1, dtype=np.float32)
        return acc, pe

    def _replica_block_env(
        self, batch: int, constants: tuple[dict[str, float], ...]
    ) -> dict[str, np.ndarray]:
        """Constant registers for a replica-stacked batch, cached.

        Unlike the SPE kernels — whose box length is baked into
        reflection immediates — the shader reads its box from ``boxL``/
        ``invL`` *registers*, so replicas may differ in any constant:
        replica r's value fills its row range ``r*B .. (r+1)*B-1``.
        """
        key = (batch, tuple(tuple(sorted(c.items())) for c in constants))
        cached = self._replica_env_cache.get(key)
        if cached is None:
            machine = self.machine
            replicas = len(constants)
            rows = batch // replicas
            names = constants[0].keys()
            cached = {}
            for name in names:
                reg = machine.make_register(batch, 0.0)
                for index, per_replica in enumerate(constants):
                    reg[index * rows : (index + 1) * rows] = np.float32(
                        per_replica[name]
                    )
                cached[name] = reg
            cached["zero"] = machine.make_register(batch, 0.0)
            cached["tiny"] = machine.make_register(batch, 1.0e-12)
            cached["self_flag"] = machine.make_register(batch, 0.0)
            if len(self._replica_env_cache) > 8:
                self._replica_env_cache.clear()
            self._replica_env_cache[key] = cached
        return cached

    def run_replicas(
        self,
        positions: np.ndarray,
        constants,
        row_block: int | None = None,
    ) -> tuple[np.ndarray, np.ndarray]:
        """Batched multi-replica rasterization: R position sets at once.

        ``positions`` is (R, n, 3); ``constants`` is either one dict
        shared by every replica or a sequence of R dicts (replicas may
        run different box sizes — the shader's constants are registers).
        Replica r occupies rows ``r*B .. (r+1)*B-1``; the ``fused``
        backend executes all replicas per block in one closure call,
        other backends loop per replica with bit-identical results.
        Returns ``(acc (R, n, 3), pe (R, n))``.
        """
        row_block = self._resolve_row_block(row_block)
        positions32 = np.asarray(positions, dtype=np.float32)
        if positions32.ndim != 3:
            raise ValueError(
                f"expected (replicas, n, 3) positions, got {positions32.shape}"
            )
        replicas, n, _ = positions32.shape
        if isinstance(constants, dict):
            constants = (constants,) * replicas
        else:
            constants = tuple(constants)
        if len(constants) != replicas:
            raise ValueError(
                f"{len(constants)} constant sets for {replicas} replicas"
            )
        machine = self.machine
        acc = np.zeros((replicas, n, 3), dtype=np.float32)
        pe = np.zeros((replicas, n), dtype=np.float32)
        for start in range(0, n, row_block):
            stop = min(start + row_block, n)
            rows = np.arange(start, stop)
            xi = np.concatenate(
                [np.repeat(positions32[r, rows], n, axis=0) for r in range(replicas)]
            )
            xj = np.concatenate(
                [np.tile(positions32[r], (rows.size, 1)) for r in range(replicas)]
            )
            j_index = np.tile(np.arange(n), rows.size)
            i_index = np.repeat(rows, n)
            self_rows = np.tile(i_index == j_index, replicas)
            env: dict[str, np.ndarray] = {
                "xi": machine.load_vec3(xi),
                "xj": machine.load_vec3(xj),
            }
            batch = env["xi"].shape[0]
            env.update(self._replica_block_env(batch, constants))
            self_flag = env["self_flag"]
            self_flag.fill(0.0)
            self_flag[self_rows] = 1.0
            machine.run_program(self.shader.program, env, replicas=replicas)
            out = env["acc_out"].reshape(replicas, rows.size, n, machine.width)
            acc[:, rows] = out[:, :, :, :3].sum(axis=2, dtype=np.float32)
            pe[:, rows] = out[:, :, :, 3].sum(axis=2, dtype=np.float32)
        return acc, pe


class GpuDevice(Device):
    """GeForce 7900GTX-class streaming GPU + host CPU."""

    precision = "float32"
    tune_family = "gpu"

    def __init__(self, mode: str = "fast", force_path: str = "all-pairs") -> None:
        if mode not in ("fast", "vm"):
            raise ValueError(f"mode must be 'fast' or 'vm', got {mode!r}")
        self.mode = mode
        self.force_path = force_path
        self.name = "gpu-7900gtx"
        self.pipelines = PipelineArray()
        self.pcie = make_pcie_bus()
        self._shader_cache: dict[float, object] = {}
        self._sweep_cache: dict[float, GpuPairSweep] = {}

    def prepare(self, config: MDConfig) -> None:
        self._box_length = config.make_box().length
        self._potential = config.make_potential()

    def _shader(self, box_length: float):
        key = round(box_length, 12)
        if key not in self._shader_cache:
            self._shader_cache[key] = build_md_shader(box_length)
        return self._shader_cache[key]

    def uses_shared_physics(self) -> bool:
        """Fast mode prices the shared physics record; vm mode executes
        the instruction-level kernel on every run."""
        return (
            self.mode == "fast"
            and type(self).force_backend is GpuDevice.force_backend
        )

    def force_backend(self, sim_box: PeriodicBox, potential: LennardJones):
        if self.mode == "fast":
            return self.functional_backend(sim_box, potential)

        key = round(sim_box.length, 12)
        sweep = self._sweep_cache.get(key)
        if sweep is None:
            if len(self._sweep_cache) > 4:
                self._sweep_cache.clear()
            sweep = GpuPairSweep(self._shader(sim_box.length))
            self._sweep_cache[key] = sweep
        constants = shader_constants(potential, sim_box.length)
        # Cached machines carry state across runs: disarm any stale
        # fault session before optionally arming this run's.
        sweep.machine.install_fault_session(None)
        if self.fault_session is not None:
            # vm mode flips bits in the real render-target registers.
            self.fault_session.adopt_machine(sweep.machine)

        def vm_backend(positions: np.ndarray) -> ForceResult:
            n = positions.shape[0]
            acc, pe_rows = sweep.run(positions, constants)
            # interacting count from the pair distances (host-side tally,
            # only for bookkeeping — the shader itself is branchless)
            reference = compute_forces(positions, sim_box, potential, dtype=np.float32)
            return ForceResult(
                accelerations=acc.astype(np.float64),
                potential_energy=0.5 * float(pe_rows.sum(dtype=np.float64)),
                interacting_pairs=reference.interacting_pairs,
                pairs_examined=n * (n - 1) // 2,
            )

        return vm_backend

    def setup_breakdown(self) -> dict[str, float]:
        """One-time JIT compile + texture/FBO setup (excluded from totals)."""
        return {"jit_setup": cal.GPU_JIT_SETUP_S}

    def step_seconds(
        self, metrics: KernelMetrics, step_index: int
    ) -> dict[str, float]:
        shader = self._shader(self._box_length)
        # The shader runs once per output atom over all N inputs:
        # ordered-pair trips = N * N (the scan includes the masked
        # self-pair, unlike the host kernels' N * (N - 1)).
        shader_metrics = dict(metrics.as_dict())
        shader_metrics["pairs"] = float(metrics.n_atoms) ** 2
        array_bytes = metrics.n_atoms * cal.VEC4_F32_BYTES
        shader_seconds = self.pipelines.execute_seconds(shader, shader_metrics)
        session = self.fault_session
        if session is not None:
            # Readback corruption: the host checksums the acceleration
            # texture and re-reads it over PCIe until clean.
            session.charge(session.faulty_transfer(
                "gpu.pcie.corrupt",
                self.pcie.readback_time(array_bytes),
                detection="payload-checksum",
            ))
            # A failed pass is reported by the driver; the whole
            # rasterization re-executes (plus one driver round trip).
            session.charge(session.transient(
                "gpu.shader.fail",
                lambda decision: self.pipelines.repass_seconds(
                    shader, shader_metrics
                ) + cal.GPU_STEP_OVERHEAD_S,
                detection="driver-status",
                action="shader pass re-executed",
            ))
        return {
            "shader": shader_seconds,
            "pcie_upload": self.pcie.upload_time(array_bytes),
            "pcie_readback": self.pcie.readback_time(array_bytes),
            "driver": cal.GPU_STEP_OVERHEAD_S,
            "host": self._host_seconds(metrics.n_atoms),
        }

    def observe_step(
        self,
        obs: Observation,
        metrics: KernelMetrics,
        parts: dict[str, float],
        step_index: int,
    ) -> None:
        n = metrics.n_atoms
        array_bytes = n * cal.VEC4_F32_BYTES
        shader = self._shader(self._box_length)
        shader_metrics = dict(metrics.as_dict())
        shader_metrics["pairs"] = float(n) ** 2
        obs.charge_many({
            "gpu.pcie.bytes_up": array_bytes,
            "gpu.pcie.bytes_down": array_bytes,
            "gpu.pcie.bytes": 2 * array_bytes,
            "gpu.pcie.transfers": 2,
            "gpu.shader.passes": 1,
            "gpu.shader.invocations": n,
            "gpu.shader.pair_trips": n * n,
            "gpu.shader.issues": count_issues(
                shader.program, shader_metrics, issue_slots=GPU_ISSUE_SLOTS
            ),
        })
        # Timeline: upload, then all pipelines rasterize concurrently,
        # then readback; driver overhead and host integration close out.
        upload = parts.get("pcie_upload", 0.0)
        shade = parts.get("shader", 0.0)
        readback = parts.get("pcie_readback", 0.0)
        driver = parts.get("driver", 0.0)
        host = parts.get("host", 0.0)
        recovery = parts.get("fault_recovery", 0.0)
        if upload > 0.0:
            obs.span_at("pcie", "pcie", 0.0, upload,
                        args={"step": step_index, "dir": "upload"})
        if shade > 0.0:
            for pipe in range(self.pipelines.n_pipelines):
                obs.span_at("shader_pass", f"pipe{pipe}", upload, shade,
                            args={"step": step_index})
        if readback > 0.0:
            obs.span_at("pcie", "pcie", upload + shade, readback,
                        args={"step": step_index, "dir": "readback"})
        after = upload + shade + readback
        if driver > 0.0:
            obs.span_at("driver", "host", after, driver,
                        args={"step": step_index})
        if host > 0.0:
            obs.span_at("host", "host", after + driver, host,
                        args={"step": step_index})
        if recovery > 0.0:
            obs.span_at("fault_recovery", "host", after + driver + host,
                        recovery, args={"step": step_index})

    @staticmethod
    def _host_seconds(n_atoms: int) -> float:
        """Integration + PE summation on the host CPU (linear time,
        "the CPU ... is well suited to this scalar task")."""
        cycles = 60.0 * n_atoms
        return cycles / cal.OPTERON_CLOCK_HZ
