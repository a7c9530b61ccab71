"""Smoke test: the demo scripts and ``python -m bvn`` run end to end and exit 0."""

import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _run(*argv) -> subprocess.CompletedProcess:
    """Run the interpreter on ``argv`` from the checkout, with ``src`` on the
    import path and nothing installed."""
    env = dict(os.environ)
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return subprocess.run([sys.executable, *argv], cwd=ROOT, env=env, capture_output=True,
                          text=True, timeout=600)


@pytest.mark.parametrize("script", ["circuit_assertion_demo.py", "loop_verification_demo.py"])
def test_demo_runs(script):
    proc = _run(os.path.join(ROOT, "scripts", script))
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
    assert proc.stdout.strip()


def test_python_m_bvn_runs_the_cli():
    proc = _run("-m", "bvn", "-i", "tests/fixtures/ex1.bvn", "verify", "tests/fixtures/hh.qht")
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert proc.stdout.splitlines()[-1] == "valid"
