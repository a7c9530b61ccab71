"""Compare one query's exit status and printed output with its known answer.

``check`` returns None when the answer matches and a one-line reason when
it does not.  A verify that prints the image/wlp disagreement warning is a
failure even when its verdict is right.
"""

from __future__ import annotations

import re

import numpy as np

import oracle as O

_RANK = re.compile(r"^(?:closure )?rank (\d+) of (\d+)$", re.M)
_BASIS = re.compile(r"^  b\d+: \[(.*)\]$", re.M)
_ENTRY = re.compile(r"([+-][0-9.]+)([+-][0-9.]+)i")
_RUN = re.compile(
    r"^output trace (\S+)  residual (\S+)  status (\S+)  steps (\d+)$", re.M)
_DIAG = re.compile(r"^  diagonal: (.*)$", re.M)
_PRINT_TOL = 1e-4  # bases and diagonals are printed to six decimals
_VALUE_TOL = 1e-9  # trace and residual are printed to twelve / four digits


def check(q, status: int, out: str):
    if status != q.status:
        return f"exit {status}, expected {q.status}"
    if q.kind == "verify" and "warning: image and wlp checks disagree" in out:
        return "image and wlp checks disagree"
    e = q.expect
    if "rank" in e:
        return _check_subspace(e, out)
    if "closure_rank" in e:
        m = _RANK.findall(out)
        if not m or int(m[-1][0]) != e["closure_rank"]:
            return f"closure rank {m[-1][0] if m else None}, expected {e['closure_rank']}"
    if "trace" in e:
        return _check_run(e, out)
    if "proof" in e:
        last = out.strip().splitlines()[-1] if out.strip() else ""
        if last != e["proof"]:
            return f"{last!r}, expected {e['proof']!r}"
    return None


def _check_subspace(e, out: str):
    m = _RANK.search(out)
    if not m or int(m.group(1)) != e["rank"]:
        return f"rank {m.group(1) if m else None}, expected {e['rank']}"
    cols = [
        [complex(float(a), float(b)) for a, b in _ENTRY.findall(row)]
        for row in _BASIS.findall(out)
    ]
    printed = np.array(cols, dtype=complex).T.reshape(e["basis"].shape[0], -1)
    resid = printed - e["basis"] @ (e["basis"].conj().T @ printed)
    if resid.size and np.abs(resid).max() > _PRINT_TOL:
        return "printed basis leaves the expected subspace"
    if not O.same_subspace(O.orth(printed), e["basis"]):
        return "printed basis spans another subspace"
    return None


def _check_run(e, out: str):
    m = _RUN.search(out)
    d = _DIAG.search(out)
    if not m or not d:
        return "no run summary printed"
    trace, residual, word = float(m.group(1)), float(m.group(2)), m.group(3)
    if word != e["run_status"]:
        return f"status {word}, expected {e['run_status']}"
    if abs(trace - e["trace"]) > _VALUE_TOL or abs(residual - e["residual"]) > _VALUE_TOL:
        return f"trace {trace} residual {residual}, expected {e['trace']} {e['residual']}"
    diag = np.array([float(x) for x in d.group(1).split()])
    if diag.shape != e["diag"].shape or np.abs(diag - e["diag"]).max() > _PRINT_TOL:
        return "output diagonal differs"
    return None
