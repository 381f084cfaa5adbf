"""The transport, TCP peer, CLI and benchmark-guard tests close every
socket they open; the CLI tests and TestScheduleHelpers run TCP peers in
this process, and the guard drives the benchmark's in-process TCP swarm."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.slow
def test_tcp_tests_leave_no_socket_unclosed():
    # Under -X dev a socket collected while open warns "unclosed <socket ...>"
    # from its finalizer; pytest reports that as an unraisable exception,
    # which does not fail the run, so the output is searched instead.
    path = [str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, path))}
    proc = subprocess.run(
        [sys.executable, "-X", "dev", "-W", "error::ResourceWarning", "-m", "pytest",
         "-q", "-p", "no:cacheprovider",
         "tests/test_transport.py", "tests/test_tcp_integration.py",
         "tests/test_federation.py", "tests/test_bench_guard.py",
         "tests/test_cli.py", "tests/test_experiments.py::TestScheduleHelpers"],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=300,
    )
    output = proc.stdout + proc.stderr
    assert proc.returncode == 0, output
    assert "unclosed" not in output, output
