"""Run a ``repro.service`` node with the layer entry points wrapped.

    python3 perfbench/node.py SPANS_DIR [repro.service arguments...]

The node's own spans (cache reads and writes, store writes) are written
to ``SPANS_DIR/node-<pid>.json`` when it shuts down.  Each job runs in
a pool worker forked from the node, which inherits the wrappers; the
worker starts an empty record, runs the job and writes its spans to
``SPANS_DIR/worker-<pid>-<job>.json`` before it returns.
"""

from __future__ import annotations

import json
import os
import sys

import spans

RECORDER = spans.Recorder(run_id="node")
#: Set by ``main`` before the node starts; forked workers inherit them.
SPANS_DIR = ""
TRACED_EXECUTE = None


def _dump(name: str) -> None:
    with open(os.path.join(SPANS_DIR, name), "w") as handle:
        json.dump([span.to_dict() for span in RECORDER.spans], handle)


def execute_and_dump(payload):
    """``execute_job`` in a forked worker, spans written per job."""
    RECORDER.reset(run_id=payload["job_id"])
    try:
        return TRACED_EXECUTE(payload)
    finally:
        _dump(f"worker-{os.getpid()}-{payload['job_id']}.json")


def main() -> int:
    global SPANS_DIR, TRACED_EXECUTE
    SPANS_DIR = sys.argv[1]
    node_pid = os.getpid()
    spans.install(RECORDER)
    from repro.harness import jobs, scheduler
    from repro.service.__main__ import main as service_main

    TRACED_EXECUTE = jobs.execute_job
    scheduler.run_jobs.__kwdefaults__ = dict(
        scheduler.run_jobs.__kwdefaults__, execute=execute_and_dump
    )
    try:
        return service_main(sys.argv[2:])
    finally:
        if os.getpid() == node_pid:
            _dump(f"node-{node_pid}.json")


if __name__ == "__main__":
    sys.exit(main())
