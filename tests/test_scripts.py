"""Smoke test: the demo scripts and ``python -m bvn`` run end to end and exit 0,
``python -m bvn`` exits 2 without a traceback when its reader leaves early, and a
fresh process answers as a warm in-process ``bvn.cli.main`` does."""

import os
import subprocess
import sys

import pytest

import bvn.cli

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _env() -> dict:
    """The environment with ``src`` on the import path, nothing installed."""
    env = dict(os.environ)
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def _run(*argv) -> subprocess.CompletedProcess:
    """Run the interpreter on ``argv`` from the checkout."""
    return subprocess.run([sys.executable, *argv], cwd=ROOT, env=_env(), capture_output=True,
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


def test_a_fresh_process_answers_as_a_warm_main(capsys):
    """Each query in its own ``python -m bvn`` process prints what two calls of
    ``main`` in this process print, the second on the interpretation and the
    sources that the first kept."""
    fx = os.path.join(ROOT, "tests", "fixtures")
    ex1, noisy = os.path.join(fx, "ex1.bvn"), os.path.join(fx, "noisy.bvn")
    queries = [
        ["-i", ex1, "verify", os.path.join(fx, "hh.qht")],
        ["-i", ex1, "check-proof", os.path.join(fx, "hh_proof.qpf"), "--cross-check"],
        ["-i", ex1, "run", "--program", os.path.join(fx, "loop_x.qwp"), "--state", "|10>"],
        ["-i", noisy, "term-eq", os.path.join(fx, "tau1.qt"), os.path.join(fx, "tau2.qt")],
    ]
    fresh = [subprocess.Popen([sys.executable, "-m", "bvn", *argv], cwd=ROOT, env=_env(),
                              stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
             for argv in queries]
    for argv, proc in zip(queries, fresh):
        out, err = proc.communicate(timeout=600)
        assert proc.returncode in (0, 1), err[-2000:]
        for _ in range(2):
            assert (bvn.cli.main(argv), capsys.readouterr().out) == (proc.returncode, out), argv


def test_a_closed_stdout_exits_2_without_traceback(tmp_path):
    # the basis of the full 8-qubit space prints about 1.3 MB, far more than a
    # pipe holds, so the CLI is still writing when the reader leaves
    interp = tmp_path / "wide.bvn"
    interp.write_text("".join(f"var q{k} : 2\n" for k in range(1, 9))
                      + "predicate P (2) = span { |0> }\n")
    proc = subprocess.Popen(
        [sys.executable, "-m", "bvn", "-i", str(interp), "sem", "--formula", "~(P(q1) /\\ ~P(q1))"],
        cwd=ROOT, env=_env(), stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    first = proc.stdout.readline()
    proc.stdout.close()
    err = proc.stderr.read().decode()
    proc.stderr.close()
    assert proc.wait(timeout=600) == 2
    assert first.startswith(b"# tolerances:")
    assert err.startswith("error: ") and "Broken pipe" in err and "Traceback" not in err
