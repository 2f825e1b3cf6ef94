"""One roster pass in a fresh interpreter; prints one JSON line.

    python3 perfbench/roster.py --workload quick-roster --t0 <monotonic> \
        --store DIR [--trace FILE] [--setup-only]

``--t0`` is the parent's ``time.monotonic()`` taken just before it
spawned this interpreter (the clock is system-wide on Linux), so
``setup_s`` spans interpreter start, imports, ``code_fingerprint`` and
the roster build, as a user's ``harness run`` pays them.  The pass is
the ``run_roster`` call up to its manifest being written.  With
``--trace FILE`` the layer entry points are wrapped first and the
pass's spans are summarised into per-layer metrics and written to
``FILE`` as a Chrome trace.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import sys
import time

#: Roster workloads: (quick params?, experiment ids or None for all).
WORKLOADS = {
    "quick-roster": (True, None),
    "paper-2048": (False, ("table1", "cluster")),
}

#: Experiments whose checks and rows are host-throughput measurements
#: (replicas/s, sweeps/s), not simulated results: they vary run to run,
#: so they stay out of the determinism digest.
HOST_TIMED = ("ensemble", "tunesweep")


def sim_digest(records) -> str:
    """sha256 over every shape check's measured value and the result rows."""
    body = []
    for record in sorted(records, key=lambda r: r["experiment_id"]):
        result = record.get("result") or {}
        if record["experiment_id"] in HOST_TIMED:
            continue
        body.append([
            record["experiment_id"],
            record["status"],
            [[c["key"], repr(c["measured"]), c["passed"]] for c in result.get("checks", [])],
            result.get("rows", []),
        ])
    return hashlib.sha256(json.dumps(body, default=repr).encode()).hexdigest()


def result_sha(record) -> str:
    return hashlib.sha256(
        json.dumps(record.get("result"), sort_keys=True, default=repr).encode()
    ).hexdigest()


def tree_bytes(root: str) -> int:
    return sum(
        os.path.getsize(os.path.join(path, name))
        for path, _dirs, names in os.walk(root)
        for name in names
    )


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--t0", type=float, required=True)
    parser.add_argument("--store", required=True)
    parser.add_argument("--trace", default=None)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    recorder = None
    if args.trace:
        import spans

        recorder = spans.Recorder(run_id=f"{args.workload}-{os.getpid()}")
        spans.install(recorder)

    from repro.harness.api import attach_tuned, jobs_from_registry, run_roster
    from repro.harness.fingerprint import code_fingerprint
    from repro.harness.store import RunStore
    from repro.tune.artifact import TunedStore

    quick, only = WORKLOADS[args.workload]
    region_start = time.perf_counter()
    root = recorder.open("roster") if recorder is not None else None
    fingerprint = code_fingerprint()
    store = RunStore(args.store)
    jobs = attach_tuned(
        jobs_from_registry(quick=quick, only=only),
        tuned_store=TunedStore(store.root),
        quick=quick,
        fingerprint=fingerprint,
    )
    setup_s = time.monotonic() - args.t0
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    start = time.perf_counter()
    outcome = run_roster(jobs, store=store, max_workers=None, fingerprint=fingerprint)
    end = time.perf_counter()
    if recorder is not None:
        recorder.close(root)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    records = outcome.records
    out = {
        "setup_s": setup_s,
        "wall_s": end - start,
        "region_s": end - region_start,
        "peak_rss_mb": rss_mb,
        "jobs": [
            {
                "id": r["job_id"],
                "status": r["status"],
                "all_passed": r.get("all_passed"),
                "cached": bool(r.get("cached")),
                "wall_seconds": r.get("wall_seconds", 0.0),
                "result_sha": result_sha(r),
            }
            for r in records
        ],
        "sim_digest": sim_digest(records),
        "store_bytes": tree_bytes(args.store),
    }

    if recorder is not None:
        import spans

        pass_spans = list(recorder.spans)
        out["layers"] = spans.layer_metrics(pass_spans)
        out["residual_s"] = pass_spans[root].self_s
        out["self_sum_s"] = sum(span.self_s for span in pass_spans) - out["residual_s"]
        out["trace_wall_s"] = pass_spans[root].duration
        doc = spans.chrome_trace(pass_spans, {os.getpid(): args.workload})
        with open(args.trace, "w") as handle:
            json.dump(doc, handle)

    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
