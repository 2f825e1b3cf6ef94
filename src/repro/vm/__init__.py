"""The batched SIMD virtual machine: ISA, programs, scheduler, executors.

Execution comes in two interchangeable backends — the reference
interpreter and the ``compiled`` codegen backend of
:mod:`repro.vm.compile`, which runs a segment or a whole program (with
replica batching) as one closure — chosen per :class:`Machine` (see
:func:`resolve_exec_backend`).
"""

from repro.vm.builder import Asm
from repro.vm.compile import (
    CompiledSegment,
    VMCompileError,
    compiled_program,
    compiled_segment,
)
from repro.vm.isa import EVEN, ODD, OPS, CostTable, OpCost, OpSpec
from repro.vm.machine import (
    EXEC_BACKENDS,
    BranchStat,
    Machine,
    MachineError,
    resolve_exec_backend,
)
from repro.vm.program import IfBlock, Instr, Loop, Program, Segment
from repro.vm.schedule import (
    CycleReport,
    SegmentCycles,
    estimate_cycles,
    straightline_cycles,
)

__all__ = [
    "Asm",
    "BranchStat",
    "CompiledSegment",
    "CostTable",
    "CycleReport",
    "EVEN",
    "EXEC_BACKENDS",
    "IfBlock",
    "Instr",
    "Loop",
    "Machine",
    "MachineError",
    "ODD",
    "OPS",
    "OpCost",
    "OpSpec",
    "Program",
    "Segment",
    "SegmentCycles",
    "VMCompileError",
    "compiled_program",
    "compiled_segment",
    "estimate_cycles",
    "resolve_exec_backend",
    "straightline_cycles",
]
