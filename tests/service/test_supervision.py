"""Supervision tests: circuit breakers, watchdog, quarantine, deadlines.

The breaker state machine is unit-tested with an injected clock; the
watchdog / quarantine / deadline paths run end to end against a real
service with SIGSTOP-based hang injection (a frozen worker process is
the one failure a plain timeout cannot model — its heartbeat simply
stops).
"""

from __future__ import annotations

import asyncio
import time

import pytest

from repro.harness import cli
from repro.service.client import ServiceClient, ServiceUnavailable
from repro.service.supervisor import (
    PREEMPT_DEADLINE,
    PREEMPT_HUNG,
    BreakerBoard,
    BreakerConfig,
    BreakerOpen,
    CircuitBreaker,
)
from tests.service.conftest import call, running_service, stub_spec


def run(coro):
    return asyncio.run(coro)


class TestCircuitBreaker:
    def config(self, **overrides):
        defaults = dict(
            window=4, min_samples=2, threshold=0.5, cooldown_seconds=10.0
        )
        return BreakerConfig(**{**defaults, **overrides})

    def test_stays_closed_below_min_samples(self):
        breaker = CircuitBreaker(self.config(min_samples=3))
        assert breaker.record(False, now=0.0) == CircuitBreaker.CLOSED
        assert breaker.record(False, now=1.0) == CircuitBreaker.CLOSED
        assert breaker.record(False, now=2.0) == CircuitBreaker.OPEN

    def test_opens_at_failure_rate_threshold(self):
        breaker = CircuitBreaker(self.config(threshold=0.6))
        breaker.record(True, now=0.0)
        # 1 failure / 2 outcomes = 0.5 < 0.6
        assert breaker.record(False, now=1.0) == CircuitBreaker.CLOSED
        # 2 failures / 3 outcomes = 0.67 >= 0.6
        assert breaker.record(False, now=2.0) == CircuitBreaker.OPEN
        assert breaker.opened_total == 1

    def test_open_fast_fails_until_cooldown(self):
        breaker = CircuitBreaker(self.config())
        breaker.record(False, now=0.0)
        breaker.record(False, now=0.0)
        assert breaker.state == CircuitBreaker.OPEN
        assert breaker.admit(now=5.0) == (False, False)
        assert breaker.retry_after(now=5.0) == 5

    def test_half_open_admits_exactly_one_probe(self):
        breaker = CircuitBreaker(self.config())
        breaker.record(False, now=0.0)
        breaker.record(False, now=0.0)
        assert breaker.admit(now=11.0) == (True, True)  # the probe
        assert breaker.state == CircuitBreaker.HALF_OPEN
        assert breaker.admit(now=11.0) == (False, False)  # queued behind it

    def test_probe_success_closes_and_clears_history(self):
        breaker = CircuitBreaker(self.config())
        breaker.record(False, now=0.0)
        breaker.record(False, now=0.0)
        breaker.admit(now=11.0)
        assert breaker.record(True, now=11.5, probe=True) == CircuitBreaker.CLOSED
        assert breaker.failure_rate == 0.0  # old failures forgotten
        # one fresh failure does not instantly re-open
        assert breaker.record(False, now=12.0) == CircuitBreaker.CLOSED

    def test_probe_failure_reopens_with_fresh_cooldown(self):
        breaker = CircuitBreaker(self.config())
        breaker.record(False, now=0.0)
        breaker.record(False, now=0.0)
        breaker.admit(now=11.0)
        assert breaker.record(False, now=11.5, probe=True) == CircuitBreaker.OPEN
        assert breaker.admit(now=12.0) == (False, False)
        assert breaker.retry_after(now=12.0) == 10  # cooldown restarted
        assert breaker.opened_total == 2

    def test_config_validation(self):
        with pytest.raises(ValueError):
            BreakerConfig(window=0)
        with pytest.raises(ValueError):
            BreakerConfig(threshold=0.0)
        with pytest.raises(ValueError):
            BreakerConfig(cooldown_seconds=0.0)


class TestBreakerBoard:
    def test_admit_raises_with_retry_after(self):
        board = BreakerBoard(BreakerConfig(min_samples=1, cooldown_seconds=30.0))
        board.record("exp", False, now=0.0)
        with pytest.raises(BreakerOpen, match="circuit breaker") as excinfo:
            board.admit("exp", now=10.0)
        assert excinfo.value.status_code == 503
        assert excinfo.value.retry_after == 20

    def test_scenario_key_includes_forced_path(self):
        assert BreakerBoard.scenario_key("fig5") == "fig5"
        assert BreakerBoard.scenario_key("fig5", "cell") == "fig5/cell"

    def test_revoke_returns_the_probe_slot(self):
        board = BreakerBoard(BreakerConfig(min_samples=1, cooldown_seconds=1.0))
        board.record("exp", False, now=0.0)
        assert board.admit("exp", now=2.0) is True  # the probe
        with pytest.raises(BreakerOpen):
            board.admit("exp", now=2.0)
        # the probe job was bounced by a later admission check
        board.revoke("exp")
        assert board.admit("exp", now=2.0) is True

    def test_breakers_are_independent_per_scenario(self):
        board = BreakerBoard(BreakerConfig(min_samples=1))
        board.record("sick", False, now=0.0)
        with pytest.raises(BreakerOpen):
            board.admit("sick", now=0.0)
        assert board.admit("healthy", now=0.0) is False  # closed, not probe


class TestBreakerEndToEnd:
    def test_open_fast_fail_then_half_open_recovery(self, tmp_path):
        specs = {
            "flaky": stub_spec(
                "flaky",
                "flaky_job",
                counter_path=str(tmp_path / "flaky.count"),
                fail_times=2,
            )
        }
        async def scenario():
            async with running_service(
                str(tmp_path / "runs"),
                specs=specs,
                retries=0,
                quarantine_attempts=100,
                journal_fsync=False,
                breaker_window=4,
                breaker_min_samples=2,
                breaker_threshold=0.5,
                breaker_cooldown=1.0,
            ) as svc:
                client = ServiceClient(port=svc.port)
                for _ in range(2):
                    doc = await call(client.submit, "flaky")
                    final = await call(client.wait, doc["id"], 60)
                    assert final["status"] == "failed"

                stats = await call(client.stats)
                assert stats["breakers"]["flaky"]["state"] == "open"
                assert stats["counters"]["service.breaker.opened"] == 1

                with pytest.raises(ServiceUnavailable) as excinfo:
                    await call(client.submit, "flaky")
                assert excinfo.value.retry_after >= 1
                assert "circuit breaker" in str(excinfo.value)

                await asyncio.sleep(1.1)  # cooldown elapses
                probe = await call(client.submit, "flaky")  # the probe
                final = await call(client.wait, probe["id"], 60)
                assert final["status"] == "succeeded"

                stats = await call(client.stats)
                assert stats["breakers"]["flaky"]["state"] == "closed"
                assert stats["counters"]["service.breaker.closed"] == 1
                assert stats["counters"]["service.breaker.fast_failed"] == 1

        run(scenario())


class TestWatchdog:
    def test_hung_worker_is_preempted_and_requeued(self, tmp_path):
        specs = {
            "stall-once": stub_spec(
                "stall-once",
                "stall_once_job",
                marker_path=str(tmp_path / "stall.marker"),
            )
        }
        async def scenario():
            async with running_service(
                str(tmp_path / "runs"),
                specs=specs,
                retries=0,
                journal_fsync=False,
                hang_seconds=2.0,
                hang_retries=3,
                supervise_interval=0.1,
            ) as svc:
                client = ServiceClient(port=svc.port)
                doc = await call(client.submit, "stall-once")
                final = await call(client.wait, doc["id"], 120)
                # the first (frozen) run was preempted; the requeued run
                # completed the job
                assert final["status"] == "succeeded"
                assert final["hang_preempts"] >= 1
                details = [e.get("detail", "") for e in final["events"]]
                assert any("stuck worker preempted" in d for d in details)
                stats = await call(client.stats)
                preempted = stats["counters"]["service.supervisor.preempted"]
                requeued = stats["counters"]["service.supervisor.requeued"]
                assert preempted >= 1 and preempted == requeued

        run(scenario())

    def test_hang_retries_exhausted_fails_the_job(self, tmp_path):
        specs = {
            "stalled": stub_spec(
                "stalled",
                "stalled_job",
                touch_path=str(tmp_path / "started.marker"),
            )
        }
        async def scenario():
            async with running_service(
                str(tmp_path / "runs"),
                specs=specs,
                retries=0,
                quarantine_attempts=100,
                journal_fsync=False,
                hang_seconds=1.0,
                hang_retries=0,
                supervise_interval=0.1,
            ) as svc:
                client = ServiceClient(port=svc.port)
                doc = await call(client.submit, "stalled")
                final = await call(client.wait, doc["id"], 120)
                assert final["status"] == "failed"
                assert "hung" in final["traceback"]
                stats = await call(client.stats)
                assert stats["counters"]["service.supervisor.preempted"] == 1
                assert stats["counters"]["service.supervisor.requeued"] == 0

        run(scenario())

    def test_scan_preempts_stale_heartbeats_directly(self, tmp_path):
        # unit-level: a fabricated running job with an old heartbeat
        import threading

        from repro.service.app import Service, ServiceConfig
        from repro.service.models import ServiceJob

        config = ServiceConfig(
            runs_dir=str(tmp_path / "runs"), hang_seconds=5.0, journal=False
        )
        service = Service(config, specs={})
        job = ServiceJob(
            job_id="job-stuck",
            tenant="t",
            priority=10,
            experiment_id="x",
            payload={"job_id": "job-stuck", "params": {}},
            cache_key="k",
            status="running",
            started_unix=time.time() - 60.0,
            cancel_event=threading.Event(),
        )
        service.jobs[job.job_id] = job
        hb = service.heartbeat_path(job.job_id)
        hb.parent.mkdir(parents=True, exist_ok=True)
        hb.touch()

        assert service.supervisor.scan() == []  # fresh heartbeat
        old = time.time() - 30.0
        import os

        os.utime(hb, (old, old))
        assert service.supervisor.scan() == ["job-stuck"]
        assert job.preempt_reason == PREEMPT_HUNG
        assert job.cancel_event.is_set()
        # a pass over an already-preempting job is a no-op
        assert service.supervisor.scan() == []

    def test_requeued_job_is_not_judged_by_the_hung_attempts_beat(
        self, tmp_path
    ):
        """Between the requeue and the new attempt's first beat the
        watchdog measures from the new start, not from the frozen
        attempt's last heartbeat."""
        import os
        import threading

        from repro.service.app import Service, ServiceConfig
        from repro.service.models import ServiceJob

        config = ServiceConfig(
            runs_dir=str(tmp_path / "runs"), hang_seconds=5.0, journal=False
        )
        service = Service(config, specs={})
        started = time.time() - 60.0
        job = ServiceJob(
            job_id="job-requeued",
            tenant="t",
            priority=10,
            experiment_id="x",
            payload={"job_id": "job-requeued", "params": {}},
            cache_key="k",
            status="running",
            started_unix=started,
            cancel_event=threading.Event(),
        )
        service.jobs[job.job_id] = job
        hb = service.heartbeat_path(job.job_id)
        hb.parent.mkdir(parents=True, exist_ok=True)
        hb.touch()
        os.utime(hb, (started + 1.0, started + 1.0))  # its last beat
        assert service.supervisor.scan(now_unix=started + 30.0) == [job.job_id]

        async def requeue_and_restart():
            await service.requeue_after_preempt(job, detail="requeue 1/3")
            await service.queue.get()
            await service.mark_running(job)

        run(requeue_and_restart())
        job.cancel_event = threading.Event()  # the new attempt's
        restarted = job.started_unix
        assert service.supervisor.scan(now_unix=restarted + 1.0) == []
        # with no beat at all the new attempt still hangs in the end
        assert service.supervisor.scan(now_unix=restarted + 6.0) == [
            job.job_id
        ]

    def test_scan_prefers_deadline_over_hang(self, tmp_path):
        import threading

        from repro.service.app import Service, ServiceConfig
        from repro.service.models import ServiceJob

        config = ServiceConfig(
            runs_dir=str(tmp_path / "runs"), hang_seconds=1.0, journal=False
        )
        service = Service(config, specs={})
        job = ServiceJob(
            job_id="job-late",
            tenant="t",
            priority=10,
            experiment_id="x",
            payload={"job_id": "job-late", "params": {}},
            cache_key="k",
            status="running",
            created_unix=time.time() - 60.0,
            started_unix=time.time() - 60.0,
            deadline_seconds=1.0,
            cancel_event=threading.Event(),
        )
        service.jobs[job.job_id] = job
        assert service.supervisor.scan() == ["job-late"]
        assert job.preempt_reason == PREEMPT_DEADLINE


class TestQuarantine:
    def test_deterministic_crasher_quarantined_across_restart(self, tmp_path):
        runs = str(tmp_path / "runs")

        async def first_boot():
            async with running_service(
                runs, retries=0, quarantine_attempts=3, journal_fsync=False
            ) as svc:
                client = ServiceClient(port=svc.port)
                for _ in range(2):
                    doc = await call(client.submit, "boom")
                    final = await call(client.wait, doc["id"], 60)
                    assert final["status"] == "failed"
                return svc.jobs[doc["id"]].cache_key

        async def second_boot(cache_key):
            async with running_service(
                runs, retries=0, quarantine_attempts=3, journal_fsync=False
            ) as svc:
                client = ServiceClient(port=svc.port)
                # third failure crosses the threshold -> quarantined
                doc = await call(client.submit, "boom")
                final = await call(client.wait, doc["id"], 60)
                assert final["status"] == "quarantined"
                assert svc.poison.is_quarantined(cache_key)

                # a fourth submission never runs: fast-settled
                doc = await call(client.submit, "boom")
                final = await call(client.wait, doc["id"], 60)
                assert final["status"] == "quarantined"
                assert "harness quarantine release" in final["traceback"]
                listing = await call(
                    client._request, "GET", "/v1/quarantine"
                )
                assert cache_key in listing["quarantined"]
                stats = await call(client.stats)
                assert stats["counters"]["service.quarantine.added"] == 1
                assert stats["counters"]["service.quarantine.rejected"] == 1

        cache_key = run(first_boot())
        run(second_boot(cache_key))

        # the operator's escape hatch: CLI list + release
        code = cli.main(["quarantine", "list", "--runs-dir", runs])
        assert code == 0
        code = cli.main(
            ["quarantine", "release", cache_key[:12], "--runs-dir", runs]
        )
        assert code == 0

        async def third_boot():
            async with running_service(
                runs, retries=0, quarantine_attempts=3, journal_fsync=False
            ) as svc:
                client = ServiceClient(port=svc.port)
                doc = await call(client.submit, "boom")
                final = await call(client.wait, doc["id"], 60)
                # released: it runs (and fails) again instead of being
                # fast-settled out of hand
                assert final["status"] == "failed"

        run(third_boot())


class TestDeadlines:
    def test_admission_rejects_unmeetable_deadline(self, tmp_path):
        async def scenario():
            async with running_service(
                str(tmp_path), journal_fsync=False
            ) as svc:
                client = ServiceClient(port=svc.port)
                # the queue's initial wait estimate is ~2s; a 0.5s
                # budget is honest-rejected before any work queues
                with pytest.raises(ServiceUnavailable, match="deadline"):
                    await call(
                        client.submit, "ok", deadline_seconds=0.5
                    )
                stats = await call(client.stats)
                assert stats["counters"]["service.deadline.rejected"] == 1
                assert stats["counters"]["service.jobs.submitted"] == 1
                assert stats["jobs"]["total"] == 0  # never admitted

        run(scenario())

    def test_running_past_deadline_fails_without_poisoning(self, tmp_path):
        specs = {"slow": stub_spec("slow", "napping_job", seconds=30.0)}

        async def scenario():
            async with running_service(
                str(tmp_path),
                specs=specs,
                retries=0,
                journal_fsync=False,
                supervise_interval=0.1,
            ) as svc:
                client = ServiceClient(port=svc.port)
                doc = await call(client.submit, "slow", deadline_seconds=3.0)
                final = await call(client.wait, doc["id"], 60)
                assert final["status"] == "failed"
                details = [e.get("detail", "") for e in final["events"]]
                assert any("deadline exceeded" in d for d in details)
                stats = await call(client.stats)
                assert stats["counters"]["service.deadline.missed"] == 1
                # a missed client budget is not a sick scenario: no
                # poison entry, no breaker signal
                job = svc.jobs[doc["id"]]
                assert svc.poison.failures(job.cache_key) == 0
                assert stats["breakers"].get("slow", {}).get("state", "closed") == "closed"

        run(scenario())
