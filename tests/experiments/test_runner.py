"""Tests for running the experiment roster through ``python -m repro``.

``repro.__main__`` hands argv unchanged to the harness CLI, so these
drive its ``run`` and ``show`` subcommands the way a user reproducing
the paper does: the roster, flag validation, inline crash isolation,
and ``--replicas`` reaching the ensemble report.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.__main__ import main
from repro.harness.api import jobs_from_registry
from repro.harness.store import RunStore


def run_then_render(runs_dir: Path, argv: list[str], capsys) -> tuple[int, str]:
    """``run --jobs 0`` into ``runs_dir``, then ``show --render`` the run.

    Returns the run's exit code and everything both commands printed.
    """
    code = main(["run", "--jobs", "0", "--runs-dir", str(runs_dir), *argv])
    (run_id,) = RunStore(runs_dir).list_runs()
    assert main(["show", run_id, "--render", "--runs-dir", str(runs_dir)]) == 0
    return code, capsys.readouterr().out


class TestRoster:
    def test_full_roster_covers_every_artifact(self):
        assert len(jobs_from_registry(quick=False)) == 19

    def test_quick_roster_same_length(self):
        assert len(jobs_from_registry(quick=True)) == len(
            jobs_from_registry(quick=False)
        )


class TestCli:
    def test_only_filter_runs_one_experiment(self, tmp_path, capsys):
        code, out = run_then_render(
            tmp_path / "runs", ["--quick", "--only", "abl-precision"], capsys
        )
        assert "abl-precision" in out
        assert "fig7" not in out
        assert code == 0

    def test_module_main_entry(self):
        src = Path(repro.__file__).resolve().parents[1]
        proc = subprocess.run(
            [sys.executable, "-m", "repro", "run", "--list"],
            capture_output=True,
            text=True,
            env=dict(os.environ, PYTHONPATH=str(src)),
            timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        assert "SIMD optimization ladder" in proc.stdout

    def test_bad_flag_rejected(self):
        with pytest.raises(SystemExit):
            main(["run", "--bogus"])

    def test_unknown_only_id_rejected(self, tmp_path, capsys):
        code = main(
            ["run", "--only", "fig99", "--runs-dir", str(tmp_path / "runs")]
        )
        assert code == 2
        assert "unknown experiment id" in capsys.readouterr().err

    def test_list_prints_roster_without_running(self, tmp_path, capsys):
        runs_dir = tmp_path / "runs"
        exit_code = main(["run", "--list", "--runs-dir", str(runs_dir)])
        out = capsys.readouterr().out
        assert exit_code == 0
        for eid in ("fig5", "table1", "abl-precision"):
            assert eid in out
        assert "SIMD optimization ladder" in out
        assert "PASS" not in out  # listing must not execute experiments
        assert not runs_dir.exists()


class TestReplicasFlag:
    def test_replicas_below_one_rejected(self, tmp_path, capsys):
        code = main(
            ["run", "--quick", "--replicas", "0",
             "--runs-dir", str(tmp_path / "runs")]
        )
        assert code == 2
        assert "--replicas must be >= 1" in capsys.readouterr().err

    def test_non_integer_replicas_rejected(self):
        with pytest.raises(SystemExit):
            main(["run", "--quick", "--replicas", "two"])

    def test_replicas_reaches_the_ensemble_experiment(self, tmp_path, capsys):
        code, out = run_then_render(
            tmp_path / "runs",
            ["--quick", "--only", "ensemble", "--replicas", "2"],
            capsys,
        )
        assert code == 0
        assert "2 replicas" in out  # the override landed in the title
        assert "bit-identical to sequential runs" in out
        assert "FAIL" not in out

    def test_replicas_is_a_registry_param_only_where_accepted(self):
        from repro.experiments.registry import EXPERIMENTS

        by_id = {spec.experiment_id: spec for spec in EXPERIMENTS}
        ensemble = by_id["ensemble"].params(quick=True, replicas=3)
        assert ensemble["replicas"] == 3
        other = by_id["fig5"].params(quick=True, replicas=3)
        assert "replicas" not in other


class TestCrashIsolation:
    def test_one_raising_experiment_does_not_abort_the_roster(
        self, tmp_path, capsys, monkeypatch
    ):
        from repro.experiments import ablations

        def explode(**_kwargs):
            raise RuntimeError("injected crash")

        monkeypatch.setattr(ablations, "run_precision", explode)
        code, out = run_then_render(
            tmp_path / "runs",
            ["--quick", "--only", "abl-precision", "--only", "abl-reduce"],
            capsys,
        )
        assert code == 1
        assert "[abl-precision] failed" in out
        assert "[abl-reduce] ok, bands ok" in out  # the survivor finished
        assert "injected crash" in out  # show --render prints the traceback
        assert "RuntimeError" in out
