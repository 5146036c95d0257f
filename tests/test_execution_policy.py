"""The execution-policy seam and the edges that feed it.

* The experiment CLI and the server each build one
  :class:`~repro.experiments.common.ExecutionPolicy`; a served batch
  runs under the server's own policy and never touches the process one.
* ``REPRO_JOBS`` / ``REPRO_CACHE_QUOTA_MB`` and ``--cache-quota-mb`` are
  validated like the policy: a bad value is an error naming its source,
  never a silent 1-byte quota or a bare ``int()`` traceback.
* The ``--trace-out`` fan-out note follows the effective worker count,
  so a sweep made parallel through ``REPRO_JOBS`` prints it too.
"""

from __future__ import annotations

import os
import pathlib
import subprocess
import sys

import pytest

from repro.chaos import parse_chaos_spec
from repro.experiments import common
from repro.experiments import runner
from repro.serve import cli as serve_cli
from repro.serve.testing import running_server

SRC = pathlib.Path(__file__).resolve().parents[1] / "src"
FAN_OUT_NOTE = "cells dispatched to worker processes appear as one"


def _python(code_or_args: list[str], tmp_path, **env):
    """Run a fresh interpreter on the in-tree package with ``env`` set."""
    environ = dict(os.environ, PYTHONPATH=str(SRC), **env)
    for name in ("REPRO_JOBS", "REPRO_CACHE_QUOTA_MB"):
        if name not in env:
            environ.pop(name, None)
    return subprocess.run(
        [sys.executable, *code_or_args],
        cwd=tmp_path,
        env=environ,
        capture_output=True,
        text=True,
        timeout=120,
    )


class TestEnvironmentValues:
    @pytest.mark.parametrize("value", ["0", "-5", "1e-9", "lots"])
    def test_bad_cache_quota_names_the_variable(self, tmp_path, value):
        proc = _python(
            ["-c", "import repro.experiments.common"],
            tmp_path,
            REPRO_CACHE_QUOTA_MB=value,
        )
        assert proc.returncode != 0, "a bad quota must not load silently"
        assert "REPRO_CACHE_QUOTA_MB must be at least one byte" in proc.stderr

    def test_valid_cache_quota_is_applied(self, tmp_path):
        proc = _python(
            [
                "-c",
                "from repro.experiments import common; "
                "print(common.cache_quota())",
            ],
            tmp_path,
            REPRO_CACHE_QUOTA_MB="0.5",
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == str(512 * 1024)

    def test_malformed_jobs_names_the_variable(self, tmp_path):
        proc = _python(
            ["-c", "import repro.experiments.common"],
            tmp_path,
            REPRO_JOBS="two",
        )
        assert proc.returncode != 0
        assert "REPRO_JOBS must be an integer, got 'two'" in proc.stderr

    def test_jobs_sets_the_process_policy(self, tmp_path):
        proc = _python(
            [
                "-c",
                "from repro.experiments import common; "
                "print(common.policy().jobs)",
            ],
            tmp_path,
            REPRO_JOBS="3",
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "3"

    def test_quota_bytes_rejects_values_rounding_to_zero(self):
        assert common.quota_bytes(1, "--cache-quota-mb") == 1024 * 1024
        with pytest.raises(ValueError, match="--cache-quota-mb"):
            common.quota_bytes(1e-9, "--cache-quota-mb")


class TestCacheQuotaFlag:
    @pytest.mark.parametrize("value", ["0", "-1", "1e-9"])
    def test_experiments_cli_usage_error(self, value, capsys):
        with pytest.raises(SystemExit) as excinfo:
            runner.main(["table1", "--cache-quota-mb", value])
        assert excinfo.value.code == 2
        assert "--cache-quota-mb must be at least one byte" in (
            capsys.readouterr().err
        )
        assert common.cache_quota() is None, "a rejected quota is not set"

    @pytest.mark.parametrize("value", ["0", "1e-9"])
    def test_serve_cli_usage_error(self, value, capsys):
        with pytest.raises(SystemExit) as excinfo:
            serve_cli.main(["--port", "0", "--cache-quota-mb", value])
        assert excinfo.value.code == 2
        assert "--cache-quota-mb must be at least one byte" in (
            capsys.readouterr().err
        )

    def test_serve_cli_rejects_simulation_pool_chaos(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            serve_cli.main(["--port", "0", "--pool-chaos", "dma-stall:prob=0.1"])
        assert excinfo.value.code == 2
        assert "process-level kinds only" in capsys.readouterr().err


class TestTraceNote:
    def _sweep(self, tmp_path, **env):
        return _python(
            [
                "-m", "repro.experiments", "table1", "--no-cache",
                "--no-progress", "--trace-out", str(tmp_path / "t.json"),
            ],
            tmp_path,
            **env,
        )

    def test_note_follows_repro_jobs(self, tmp_path):
        proc = self._sweep(tmp_path, REPRO_JOBS="2")
        assert proc.returncode == 0, proc.stderr
        assert FAN_OUT_NOTE in proc.stderr

    def test_no_note_for_a_serial_sweep(self, tmp_path):
        proc = self._sweep(tmp_path)
        assert proc.returncode == 0, proc.stderr
        assert FAN_OUT_NOTE not in proc.stderr


class TestServerPolicy:
    def test_served_batch_leaves_process_policy_unchanged(self, tmp_path):
        before = common.policy()
        with running_server(
            cache_dir=str(tmp_path / "cache"),
            checkpoint_dir=str(tmp_path / "ckpt"),
            cell_timeout=120.0,
            breaker_threshold=100,
            announce=False,
            jobs=2,
            pool_chaos=parse_chaos_spec("worker-kill:prob=0.5,after=1", seed=2),
        ) as (server, client):
            response = client.run(workload="KCORE", scale="tiny", seed=0)
            assert response.status == 200
            assert server.policy.on_error == "keep-going"
            assert server.policy.checkpoint_dir == str(tmp_path / "ckpt")
        assert common.policy() is before
        assert common.drain_failures() == []

    def test_experiments_cli_restores_process_policy(self, capsys):
        before = common.policy()
        assert runner.main(["table1", "--keep-going", "--retries", "3"]) == 0
        capsys.readouterr()
        assert common.policy() is before
