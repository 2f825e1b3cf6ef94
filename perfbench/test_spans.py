"""Traced-run integrity of the benchmark's span wrappers.

    PYTHONPATH=src python3 -m pytest perfbench/test_spans.py -q

A traced roster runs in a child interpreter under cProfile.  Every
wrapped entry point must have been entered through its wrapper exactly
as often as cProfile saw its code run, so no binding (a re-export, a
default argument, a subclass override) bypassed the wrapper.  The
spans must also tile the traced wall and export as a valid Chrome trace.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")

#: Quick experiments that between them enter every wrapped layer.
ROSTER = ("fig5", "fig8", "fig9", "abl-nlist", "abl-cache", "faults",
          "ensemble", "longrun", "cluster")

CHILD = r"""
import cProfile, json, pstats, sys, tempfile
import spans
from repro.obs.trace import validate_chrome_trace

recorder = spans.Recorder("test")
originals = spans.install(recorder)
from repro.harness.api import jobs_from_registry, run_roster
from repro.harness.store import RunStore

jobs = jobs_from_registry(quick=True, only=sys.argv[1].split(","))
profiler = cProfile.Profile()
with tempfile.TemporaryDirectory() as tmp:
    root = recorder.open("roster")
    profiler.enable()
    run_roster(jobs, store=RunStore(tmp), max_workers=None)
    profiler.disable()
    recorder.close(root)
profiled = pstats.Stats(profiler).stats
calls = []
for fn in originals:
    key = spans._code_key(fn)
    calls.append([fn.__qualname__, recorder.raw_calls[key],
                  profiled.get(key, (0, 0))[1]])
all_spans = recorder.spans
print(json.dumps({
    "calls": calls,
    "spans": dict(spans.counts(all_spans)),
    "wall": all_spans[root].duration,
    "self_sum": sum(span.self_s for span in all_spans),
    "trace_problems": validate_chrome_trace(spans.chrome_trace(all_spans, {0: "test"})),
}))
"""


def _traced_run() -> dict:
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([HERE, SRC]))
    proc = subprocess.run(
        [sys.executable, "-c", CHILD, ",".join(ROSTER)],
        env=env, capture_output=True, text=True, timeout=300, check=True,
    )
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_traced_counts_match_cprofile_and_spans_tile_the_wall():
    out = _traced_run()
    missed = [(name, traced, profiled) for name, traced, profiled in out["calls"]
              if traced != profiled]
    assert not missed, f"(function, wrapper calls, cProfile calls): {missed}"
    for name in ("md.forces", "md.integrate", "md.pairlist", "device.run",
                 "arch.cache", "vm.run_program", "vm.compile", "cluster.run",
                 "cluster.node_force", "cluster.decompose", "faults.session",
                 "harness.execute", "harness.store", "harness.fingerprint"):
        assert out["spans"].get(name, 0) > 0, f"no {name} span recorded"
    assert abs(out["self_sum"] - out["wall"]) < 1e-6 * out["wall"]
    assert out["trace_problems"] == []
