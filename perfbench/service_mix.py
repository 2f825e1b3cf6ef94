"""The service-mixed workload: a node, one client process, 2 threads.

A run is two batches, each against a fresh node over a fresh runs dir.
Each client thread runs its own op list closed loop (next op only after
the previous reply), as ``ServiceClient.wait`` callers and harness
scripts do.  An op is either

* **cold** — a quick ``faults`` job under its own
  ``FaultPlan.storm(seed)``, so its cache key is new and the node runs
  it: admission, WAL fsync, queue wait, a worker process, the cache
  write; or
* **replay** — the one resubmission of a key this thread has already
  seen settle, answered from the harness cache on the submit itself.

The op lists, the storm seeds and the replay picks are all drawn from
the workload seed, never from timing, so one seed always issues the
same traffic.  Latency is submit to terminal status document in hand;
the result document is fetched after that (outside the latency) to
check each replay against its cold twin.
"""

from __future__ import annotations

import hashlib
import http.client
import json
import math
import os
import random
import select
import signal
import subprocess
import sys
import threading
import time
from typing import Any

BATCHES = 2
THREADS = 2
#: Cold ops per second of ``--seconds``: a 30 s run issues 212 cold ops,
#: ten samples beyond the cold p95, and as many replays.
COLD_PER_SECOND = 7
#: Terminal-status wait per cold op before it counts as timed out.
WAIT_TIMEOUT_S = 60.0
#: Wait for a spawned node to print its address.
START_TIMEOUT_S = 60.0
_HERE = os.path.dirname(os.path.abspath(__file__))


def op_lists(seed: int, seconds: int) -> list[list[list[tuple[str, int]]]]:
    """Per batch, per thread: ``[("cold" | "replay", storm_seed), ...]``.

    Every cold key is resubmitted once, after it settled, as
    ``scripts/service_smoke.py`` does (submit, wait, submit the same job
    again and expect ``cached: true``), so a run holds as many replays
    as cold ops.  Where each replay falls after its cold op is drawn
    from the seed.  Each batch runs on its own fresh node, so a replay
    only resubmits a key the same thread saw settle earlier in the same
    batch.
    """
    rng = random.Random(seed)
    per_list = max(1, math.ceil(seconds * COLD_PER_SECOND / (BATCHES * THREADS)))
    storm_seeds = iter(rng.sample(range(2**31), BATCHES * THREADS * per_list))
    batches = []
    for _ in range(BATCHES):
        lists = []
        for _ in range(THREADS):
            ops: list[tuple[str, int]] = []
            pending: list[int] = []
            cold_left = per_list
            while cold_left or pending:
                if cold_left and (not pending or rng.random() < 0.5):
                    pending.append(next(storm_seeds))
                    ops.append(("cold", pending[-1]))
                    cold_left -= 1
                else:
                    ops.append(("replay", pending.pop(rng.randrange(len(pending)))))
            lists.append(ops)
        batches.append(lists)
    return batches


class Node:
    """A ``repro.service`` node process over its own runs dir."""

    def __init__(self, env: dict[str, str], tmp: str, tag: str, spans_dir: str | None = None):
        from repro.service.client import ServiceClient

        runs_dir = os.path.join(tmp, f"runs-{tag}")
        service_args = ["--port", "0", "--runs-dir", runs_dir]
        if spans_dir is None:
            cmd = [sys.executable, "-m", "repro.service", *service_args]
        else:
            cmd = [sys.executable, os.path.join(_HERE, "node.py"), spans_dir, *service_args]
        self.log_path = os.path.join(tmp, f"node-{tag}.log")
        start = time.monotonic()
        with open(self.log_path, "w") as log:
            self.proc = subprocess.Popen(
                cmd, cwd=tmp, env=env, stdout=subprocess.PIPE, stderr=log, text=True
            )
        ready, _, _ = select.select([self.proc.stdout], [], [], START_TIMEOUT_S)
        line = self.proc.stdout.readline() if ready else ""
        if "listening on http://" not in line:
            self.stop()
            raise RuntimeError(f"node did not start: {line!r} (log {self.log_path})")
        self.port = int(line.split("listening on http://", 1)[1].split()[0].rsplit(":", 1)[1])
        self.client = ServiceClient(port=self.port, timeout=WAIT_TIMEOUT_S)
        self.client.healthz()
        self.setup_s = time.monotonic() - start

    def peak_rss_mb(self) -> float:
        """The node process's ``VmHWM`` (its pool workers not included)."""
        with open(f"/proc/{self.proc.pid}/status") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise RuntimeError("no VmHWM in /proc status")

    def stop(self) -> None:
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()


def _run_thread(client, ops, thread: int, out: dict[str, Any], recorder) -> None:
    from repro.faults import FaultPlan
    from repro.service.client import TERMINAL_STATUSES, ServiceError, WaitTimeout

    def span(name):
        return recorder.open(name) if recorder is not None else None

    def close(index):
        if index is not None:
            recorder.close(index)

    root = span("service.client")
    for kind, storm_seed in ops:
        op: dict[str, Any] = {"kind": kind, "storm_seed": storm_seed, "ok": False}
        t_submit = time.perf_counter()
        try:
            index = span("service.submit")
            try:
                doc = client.submit(
                    "faults",
                    quick=True,
                    tenant=f"client{thread}",
                    fault_plan=FaultPlan.storm(seed=storm_seed).to_dict(),
                )
            finally:
                close(index)
            op["submit_ms"] = (time.perf_counter() - t_submit) * 1e3
            if doc["status"] not in TERMINAL_STATUSES:
                index = span("service.wait")
                try:
                    doc = client.wait(doc["id"], timeout=WAIT_TIMEOUT_S)
                finally:
                    close(index)
            op["latency_ms"] = (time.perf_counter() - t_submit) * 1e3
            op["in_hand_unix"] = time.time()
            result = {}
            if doc["status"] == "succeeded":
                index = span("service.result")
                try:
                    result = client.result(doc["id"])
                finally:
                    close(index)
        except (ServiceError, WaitTimeout, OSError, http.client.HTTPException) as exc:
            op["error"] = f"{type(exc).__name__}: {exc}"
            out["ops"].append(op)
            continue
        op.update(
            status=doc["status"],
            cached=bool(doc.get("cached")),
            all_passed=doc.get("all_passed"),
            wall_seconds=doc.get("wall_seconds"),
            events=doc.get("events", []),
            result_sha=hashlib.sha256(
                json.dumps(result.get("result"), sort_keys=True).encode()
            ).hexdigest(),
        )
        op["ok"] = op["status"] == "succeeded" and op["all_passed"] is True
        out["ops"].append(op)
    close(root)


def drive(node: Node, lists: list[list[tuple[str, int]]], recorder=None) -> dict[str, Any]:
    """Run one batch's per-thread op lists against ``node``."""
    outs = [{"ops": []} for _ in lists]
    threads = [
        threading.Thread(target=_run_thread, args=(node.client, ops, i, outs[i], recorder))
        for i, ops in enumerate(lists)
    ]
    start = time.perf_counter()
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    wall = time.perf_counter() - start
    ops = [op for out in outs for op in out["ops"]]
    if len(ops) != sum(len(thread_ops) for thread_ops in lists):
        raise RuntimeError("a client thread stopped before its last op")
    return {"wall_s": wall, "ops": ops, "stats": node.client.stats()}


def judge(ops: list[dict[str, Any]]) -> dict[str, Any]:
    """Failed ops and integrity problems, by the service manifest's rule."""
    cold_sha = {op["storm_seed"]: op["result_sha"] for op in ops
                if op["kind"] == "cold" and op.get("status") == "succeeded"}
    failed, problems = 0, []
    for op in ops:
        bad = not op["ok"]
        # a key whose cold run did not succeed was never cached, so its
        # resubmission runs again: a failed op, not a broken replay
        if op["kind"] == "replay" and op["storm_seed"] in cold_sha:
            if not op["cached"]:
                problems.append(f"replay of storm seed {op['storm_seed']} was not cached")
                bad = True
            if op.get("result_sha") != cold_sha[op["storm_seed"]]:
                problems.append(f"replay of storm seed {op['storm_seed']} differs from its cold twin")
                bad = True
        if op["kind"] == "cold" and op.get("cached"):
            problems.append(f"cold storm seed {op['storm_seed']} was served from cache")
        failed += bad
    outcomes = sorted(
        (op["storm_seed"], op.get("status"), op.get("result_sha"))
        for op in ops if op["kind"] == "cold"
    )
    digest = hashlib.sha256(json.dumps(outcomes).encode()).hexdigest()
    errors = sorted({op["error"].split(":")[0] for op in ops if "error" in op})
    return {"failed": failed, "problems": problems, "sim_digest": digest, "errors": errors}
