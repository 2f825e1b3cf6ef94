"""Crash-restart durability end to end.

The crash is simulated the way ``kill -9`` looks from the next boot's
perspective: the node's asyncio tasks are torn down with *nothing*
settled — no drain, no cancellation sweep, no journal compaction — and
a second :class:`Service` boots over the same ``runs/`` directory.  The
WAL must hand every acknowledged job to the new node exactly once.
"""

from __future__ import annotations

import asyncio
import json
import time

from repro.service.app import Service, ServiceConfig
from repro.service.client import ServiceClient
from tests.service.conftest import call, running_service, stub_spec


def run(coro):
    return asyncio.run(coro)


async def crash(service: Service) -> None:
    """Abandon the node without settling anything (kill -9 semantics).

    Worker tasks are cancelled mid-``run_in_executor`` so no settle,
    journal transition, or cache write happens for in-flight jobs —
    exactly the state a SIGKILL'd node leaves on disk.  The in-flight
    harness *threads* (which a real SIGKILL would take down with the
    process) are told to preempt so the test doesn't leak pools.
    """
    if service._server is not None:
        service._server.close()
        await service._server.wait_closed()
        service._server = None
    await service.supervisor.stop()
    for task in service.workers._tasks:
        task.cancel()
    await asyncio.gather(*service.workers._tasks, return_exceptions=True)
    service.workers._tasks = []
    for job in service.jobs.values():
        if job.cancel_event is not None:
            job.cancel_event.set()
    executor = service.workers._executor
    if executor is not None:
        service.workers._executor = None
        await asyncio.get_running_loop().run_in_executor(
            None, lambda: executor.shutdown(wait=True, cancel_futures=True)
        )
    if service.journal is not None:
        service.journal.close()


def batch_specs(tmp_path):
    """2 slow jobs (to be caught in flight) + 8 distinct quick ones.

    The slow jobs nap until ``tmp_path / "release"`` exists (at most
    3 s); the test creates it once the crash has caught them running.
    """
    release = str(tmp_path / "release")
    specs = {
        f"slow{i}": stub_spec(
            f"slow{i}", "napping_job", seconds=3.0, value=100.0 + i,
            release_path=release,
        )
        for i in range(2)
    }
    specs.update(
        {
            f"quick{i}": stub_spec(f"quick{i}", "ok_job", value=float(i))
            for i in range(8)
        }
    )
    return specs


async def submit_batch(client: ServiceClient) -> dict[str, str]:
    """Submit the mixed batch; returns ``experiment -> job_id``."""
    ids: dict[str, str] = {}
    for name in ("slow0", "slow1"):
        ids[name] = (await call(client.submit, name))["id"]
    for i in range(8):
        name = f"quick{i}"
        ids[name] = (await call(client.submit, name))["id"]
    # cache-key idempotence: a twin of quick0 rides along; its cache
    # key equals quick0's, so recovery must not run it twice
    ids["quick0-twin"] = (await call(client.submit, "quick0"))["id"]
    return ids


class TestCrashRecovery:
    def test_sigkilled_node_replays_every_acknowledged_job(self, tmp_path):
        specs = batch_specs(tmp_path)
        runs = str(tmp_path / "runs")

        async def crashed_boot():
            config = ServiceConfig(
                port=0,
                concurrency=2,
                runs_dir=runs,
                tenant_quota=32,
                journal_fsync=False,
            )
            service = Service(config, specs=dict(specs))
            await service.start()
            client = ServiceClient(port=service.port)
            ids = await submit_batch(client)
            # wait for both slow jobs to be genuinely in flight
            deadline = time.monotonic() + 30.0
            while time.monotonic() < deadline:
                running = [
                    j for j in service.jobs.values() if j.status == "running"
                ]
                if len(running) >= 2:
                    break
                await asyncio.sleep(0.02)
            assert len(running) >= 2, "slow jobs never started"
            await crash(service)
            statuses = {
                name: service.jobs[jid].status for name, jid in ids.items()
            }
            # the crash terminated the naps; their reruns need not nap
            (tmp_path / "release").touch()
            return ids, statuses

        async def recovered_boot(ids):
            async with running_service(
                runs,
                specs=specs,
                concurrency=2,
                tenant_quota=32,
                journal_fsync=False,
            ) as svc:
                client = ServiceClient(port=svc.port)
                results = {}
                for name, jid in ids.items():
                    final = await call(client.wait, jid, 120)
                    assert final["status"] == "succeeded", (name, final)
                    # exactly one terminal event: never double-settled
                    terminal = [
                        e for e in final["events"]
                        if e["status"] in ("succeeded", "failed", "cancelled")
                    ]
                    assert len(terminal) == 1, (name, final["events"])
                    assert any(
                        "replayed from journal" in e.get("detail", "")
                        for e in final["events"]
                    ), name
                    results[name] = await call(client.result, jid)
                stats = await call(client.stats)
                counters = stats["counters"]
                assert counters["service.journal.recovered"] == len(ids)
                # every job the crashed node acknowledged is accounted
                # for on the new node — none lost
                listed = {j["id"] for j in await call(client.jobs)}
                assert set(ids.values()) <= listed
                # idempotence: the twin replayed from quick0's cache
                # entry instead of executing again
                twin = svc.jobs[ids["quick0-twin"]]
                quick0 = svc.jobs[ids["quick0"]]
                assert twin.cache_key == quick0.cache_key
                assert twin.cached or quick0.cached
                return results

        async def uninterrupted_boot():
            async with running_service(
                str(tmp_path / "runs-control"),
                specs=specs,
                concurrency=2,
                tenant_quota=32,
                journal_fsync=False,
            ) as svc:
                client = ServiceClient(port=svc.port)
                ids = await submit_batch(client)
                results = {}
                for name, jid in ids.items():
                    final = await call(client.wait, jid, 120)
                    assert final["status"] == "succeeded", (name, final)
                    results[name] = await call(client.result, jid)
                return results

        ids, statuses = run(crashed_boot())
        # the crash caught what we meant it to catch
        assert statuses["slow0"] == "running"
        assert statuses["slow1"] == "running"
        assert all(
            statuses[f"quick{i}"] in ("queued", "running") for i in range(8)
        )

        recovered = run(recovered_boot(ids))
        control = run(uninterrupted_boot())

        # bit-identical results: recovery changed *when* jobs ran, not
        # what they computed
        for name in recovered:
            got = json.dumps(recovered[name]["result"], sort_keys=True)
            want = json.dumps(control[name]["result"], sort_keys=True)
            assert got == want, name

    def test_recovered_node_compacts_old_segments(self, tmp_path):
        runs = str(tmp_path / "runs")

        specs = {
            "ok": stub_spec("ok", "ok_job"),
            "pending": stub_spec("pending", "napping_job", seconds=0.5),
        }

        async def crashed_boot():
            config = ServiceConfig(
                port=0, concurrency=1, runs_dir=runs, journal_fsync=False
            )
            service = Service(config, specs=dict(specs))
            await service.start()
            client = ServiceClient(port=service.port)
            doc = await call(client.submit, "ok")
            await call(client.wait, doc["id"], 60)
            doc2 = await call(client.submit, "pending")
            await crash(service)  # before "pending" can settle
            assert service.jobs[doc2["id"]].status in ("queued", "running")
            return service.journal.dir, doc2["id"]

        async def recovered_boot(journal_root, pending_id):
            async with running_service(
                runs, specs=specs, journal_fsync=False
            ) as svc:
                client = ServiceClient(port=svc.port)
                final = await call(client.wait, pending_id, 60)
                assert final["status"] == "succeeded"
                segments = sorted(p.name for p in journal_root.iterdir())
                live = [n for n in segments if n.endswith(".wal")]
                settled = [n for n in segments if n.endswith(".wal.settled")]
                # the crashed boot's segment was retired; only the new
                # node's own segment stays live
                assert len(live) == 1 and len(settled) == 1
                assert live[0].startswith(svc.run_id)

        journal_root, pending_id = run(crashed_boot())
        run(recovered_boot(journal_root, pending_id))


class TestGracefulDrain:
    def test_hung_job_cannot_stall_shutdown(self, tmp_path):
        specs = {
            "stalled": stub_spec(
                "stalled",
                "stalled_job",
                touch_path=str(tmp_path / "started.marker"),
            )
        }

        async def scenario():
            started = time.monotonic()
            async with running_service(
                str(tmp_path / "runs"),
                specs=specs,
                retries=0,
                journal_fsync=False,
                hang_seconds=None,  # the watchdog must not help here
                drain_seconds=1.0,
            ) as svc:
                client = ServiceClient(port=svc.port)
                doc = await call(client.submit, "stalled")
                deadline = time.monotonic() + 30.0
                while time.monotonic() < deadline:
                    if svc.jobs[doc["id"]].status == "running":
                        break
                    await asyncio.sleep(0.02)
                await asyncio.sleep(1.0)  # let the worker actually freeze
                drain_started = time.monotonic()
                job_id = doc["id"]
            # exiting the context ran shutdown(): the SIGSTOPped worker
            # must not hold it past drain + preempt-grace + teardown
            assert time.monotonic() - drain_started < 15.0
            return job_id, time.monotonic() - started

        async def verify(job_id):
            # reboot over the same runs dir: the journal settled the job
            # as cancelled during shutdown, so nothing replays
            async with running_service(
                str(tmp_path / "runs"), specs=specs, journal_fsync=False
            ) as svc:
                stats_client = ServiceClient(port=svc.port)
                stats = await call(stats_client.stats)
                assert stats["counters"]["service.journal.recovered"] == 0

        job_id, _elapsed = run(scenario())
        run(verify(job_id))

    def test_shutdown_closes_event_streams_with_terminal_event(self, tmp_path):
        specs = {"slow": stub_spec("slow", "napping_job", seconds=30.0)}

        async def scenario():
            async with running_service(
                str(tmp_path),
                specs=specs,
                journal_fsync=False,
                drain_seconds=1.0,
            ) as svc:
                client = ServiceClient(port=svc.port)
                doc = await call(client.submit, "slow")
                seen: list[dict] = []

                def consume():
                    for event in client.events(doc["id"], timeout=60):
                        seen.append(event)

                consumer = asyncio.ensure_future(call(consume))
                deadline = time.monotonic() + 30.0
                while time.monotonic() < deadline:
                    # the stream replays past events on connect, so a
                    # non-empty ``seen`` proves it is truly attached
                    if seen and svc.jobs[doc["id"]].status == "running":
                        break
                    await asyncio.sleep(0.02)
                # SIGTERM arrives: the node drains and goes down while
                # the client is mid-stream
                await svc.shutdown()
                await asyncio.wait_for(consumer, 30)
                assert seen, "stream yielded nothing"
                assert seen[-1]["status"] == "cancelled"

        run(scenario())
