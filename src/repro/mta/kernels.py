"""The MD kernel for the MTA-2: loop-nest IR + issue-slot accounting.

Two artifacts live here:

* the loop-IR description of the Figure-4 kernel, in the two source
  variants the paper compiled — the original (whose force loop the
  compiler refuses, Figure 8's "partially multithreaded" version) and
  the restructured one (reduction moved into the loop body + the
  ``assert parallel`` pragma, the "fully multithreaded" version);
* the instruction-issue model: the MTA-2 runs the same C source as the
  Opteron, so the issue stream is counted off the same scalar kernel
  program, with software divide/sqrt expanded to multi-issue sequences.
"""

from __future__ import annotations

from repro.mta.loopir import (
    PRAGMA_ASSERT_PARALLEL,
    ArrayRef,
    LoopNest,
    ScalarRef,
    Statement,
)
from repro.opteron.kernel import build_integration_program, build_opteron_kernel
from repro.vm.builder import Asm
from repro.vm.program import Node, Program, Segment

__all__ = [
    "MTA_ISSUE_SLOTS",
    "build_mta_pair_program",
    "build_mta_integration_program",
    "build_mta_timestep_program",
    "md_kernel_ir",
]

#: Software-sequence lengths for ops without single-instruction hardware
#: support on the MTA-2 (divide and sqrt expand to Newton iterations).
MTA_ISSUE_SLOTS: dict[str, float] = {
    "fdiv": 15.0,
    "fsqrt": 20.0,
}


def build_mta_pair_program(box_length: float) -> Program:
    """The per-pair force program (same C source as the Opteron port)."""
    return build_opteron_kernel(box_length)


def build_mta_integration_program() -> Program:
    """The O(N) integration program (steps 1/3/4/5)."""
    return build_integration_program()


def build_mta_timestep_program(box_length: float) -> Program:
    """The whole timestep as one two-segment program: force + integrate.

    The MTA-2 runs both phases from the same C source with no kernel
    relaunch between them, so the whole-timestep form is the natural
    unit for its issue accounting — and for whole-program ``compiled``
    VM execution, where the integration consumes ``acc_out`` as an SSA value instead
    of re-reading the acceleration array.  Each batch row is one
    independent pair system, as in the SPE/GPU timestep kernels.
    """
    pair = build_opteron_kernel(box_length)
    a = Asm()
    integrate: list[Node] = [
        a.lqd("vel", "vel"),
        a.shufb("facc", "acc_out", "zero", (0, 1, 2, 4)),
        a.fm("dv", "facc", "dt"),
        a.fa("vel_s", "vel", "dv"),
        a.lqd("posn", "posn"),
        a.fm("dxv", "vel_s", "dt"),
        a.fa("posn_s", "posn", "dxv"),
        a.stqd("posn_s", "posn_s"),
        a.stqd("vel_s", "vel_s"),
    ]
    program = Program(
        name="mta_md_timestep",
        segments=(
            pair.segment("pair"),
            Segment("integrate", "atoms", tuple(integrate)),
        ),
        inputs=pair.inputs + ("vel", "posn", "dt", "zero"),
        outputs=("acc_out", "pe_out", "posn_s", "vel_s"),
    )
    program.validate()
    return program


def md_kernel_ir(fully_multithreaded: bool) -> tuple[LoopNest, ...]:
    """The Figure-4 kernel as loop nests for the compiler model.

    ``fully_multithreaded=False`` is the original source: the potential
    energy accumulates into a global scalar from inside the nested pair
    loop, which the compiler reports as a reduction dependence and
    serializes.  ``True`` is the paper's fix: a per-iteration partial
    sum is privatized, the global accumulation is a recognizable
    reduction directly in the loop body, and the pragma asserts
    parallelism.
    """
    x = lambda idx: ArrayRef("pos", (idx,))  # noqa: E731
    v = lambda idx: ArrayRef("vel", (idx,))  # noqa: E731
    acc = lambda idx: ArrayRef("acc", (idx,))  # noqa: E731

    advance_velocities = LoopNest(
        index="i",
        trips_key="atoms",
        label="step1_advance_velocities",
        body=(
            Statement(
                "v[i] += 0.5*dt*a[i]",
                reads=(v("i"), acc("i")),
                writes=(v("i"),),
            ),
        ),
    )

    if fully_multithreaded:
        force_body: tuple = (
            Statement("pe_local = 0", writes=(ScalarRef("pe_local"),)),
            LoopNest(
                index="j",
                trips_key="atoms",
                label="force_inner",
                body=(
                    Statement(
                        "acc[i] += f(x[i], x[j])",
                        reads=(x("i"), x("j"), acc("i")),
                        writes=(acc("i"),),
                    ),
                    Statement(
                        "pe_local += v(x[i], x[j])",
                        reads=(x("i"), x("j"), ScalarRef("pe_local")),
                        writes=(ScalarRef("pe_local"),),
                        is_reduction=True,
                    ),
                ),
            ),
            Statement(
                "pe += pe_local",
                reads=(ScalarRef("pe"), ScalarRef("pe_local")),
                writes=(ScalarRef("pe"),),
                is_reduction=True,
            ),
        )
        pragmas = frozenset({PRAGMA_ASSERT_PARALLEL})
    else:
        force_body = (
            LoopNest(
                index="j",
                trips_key="atoms",
                label="force_inner",
                body=(
                    Statement(
                        "acc[i] += f(x[i], x[j])",
                        reads=(x("i"), x("j"), acc("i")),
                        writes=(acc("i"),),
                    ),
                    Statement(
                        "pe += v(x[i], x[j])",
                        reads=(x("i"), x("j"), ScalarRef("pe")),
                        writes=(ScalarRef("pe"),),
                        is_reduction=True,
                    ),
                ),
            ),
        )
        pragmas = frozenset()

    force_loop = LoopNest(
        index="i",
        trips_key="atoms",
        label="step2_forces",
        body=force_body,
        pragmas=pragmas,
    )

    move_atoms = LoopNest(
        index="i",
        trips_key="atoms",
        label="step34_move_atoms",
        body=(
            Statement(
                "x[i] += dt*v[i]; v[i] += 0.5*dt*a[i]",
                reads=(x("i"), v("i"), acc("i")),
                writes=(x("i"), v("i")),
            ),
        ),
    )

    energies = LoopNest(
        index="i",
        trips_key="atoms",
        label="step5_energies",
        body=(
            Statement(
                "ke += 0.5*m*v[i]^2",
                reads=(ScalarRef("ke"), v("i")),
                writes=(ScalarRef("ke"),),
                is_reduction=True,
            ),
        ),
    )

    return (advance_velocities, force_loop, move_atoms, energies)
