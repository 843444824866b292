"""Smoke tests for the ``python -m repro`` command-line interface."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

#: the checkout this file belongs to: its CLI is the one under test
ROOT = Path(__file__).resolve().parents[1]


def run_cli(*args, timeout=180):
    path = [str(ROOT / "src")]
    if os.environ.get("PYTHONPATH"):
        path.append(os.environ["PYTHONPATH"])
    return subprocess.run(
        [sys.executable, "-m", "repro", *args],
        capture_output=True,
        text=True,
        timeout=timeout,
        cwd=ROOT,
        env={**os.environ, "PYTHONPATH": os.pathsep.join(path)},
    )


class TestCLI:
    def test_no_command_prints_help(self):
        result = run_cli()
        assert result.returncode == 2
        assert "usage" in result.stdout.lower()

    def test_selftest(self):
        result = run_cli("selftest")
        assert result.returncode == 0, result.stderr
        assert "selftest ok" in result.stdout

    def test_demo(self):
        result = run_cli("demo")
        assert result.returncode == 0, result.stderr
        assert "repeatable read preserved" in result.stdout

    def test_recovery_example(self):
        result = run_cli("recovery")
        assert result.returncode == 0, result.stderr
        assert "committed state restored exactly" in result.stdout

    def test_unknown_command_rejected(self):
        result = run_cli("frobnicate")
        assert result.returncode != 0

    @pytest.mark.slow
    def test_quickstart(self):
        result = run_cli("quickstart")
        assert result.returncode == 0, result.stderr
        assert "final contents" in result.stdout

    def test_zorder_example(self):
        result = run_cli("zorder")
        assert result.returncode == 0, result.stderr
        assert "more objects" in result.stdout

    @pytest.mark.slow
    def test_gis_example(self):
        result = run_cli("gis", timeout=300)
        assert result.returncode == 0, result.stderr
        assert "conflict-serializable" in result.stdout

    @pytest.mark.slow
    def test_booking_example(self):
        result = run_cli("booking", timeout=300)
        assert result.returncode == 0, result.stderr
        assert "double bookings: 0" in result.stdout

    @pytest.mark.slow
    def test_reproduce_reduced_scale(self, tmp_path):
        out = tmp_path / "report.md"
        result = run_cli("reproduce", "-o", str(out), timeout=600)
        assert result.returncode == 0, result.stderr
        text = out.read_text()
        assert "Table 2" in text
        assert "boundary-changing" in text
        assert "Table 4" in text
