"""Which factorizations a wide verify runs.

On 8 qubits (dim 256) a rank-128 precondition goes through a CNOT chain, a
case on a measurement and a guard loop, checked by image and by wlp.  The
lattice decisions work on the r1 x r2 principal-angle matrices and the
measurement wlp needs no complement, so no 256 x 256 matrix is factored and
no complete QR of the whole space is taken.
"""

import numpy as np

from bvn import triple_valid, triple_valid_wlp
from bvn.parser import parse_interp, parse_triple

QUBITS = [f"q{k}" for k in range(1, 9)]
INTERP = "\n".join([f"var {q} : 2" for q in QUBITS] + [
    "unitary X (2) = [[0, 1], [1, 0]]",
    "unitary C (2,2) = [[1,0,0,0],[0,1,0,0],[0,0,0,1],[0,0,1,0]]",
    "measurement M (2) = { 0: [[1,0],[0,0]], 1: [[0,0],[0,1]] }",
    "predicate P0 (2) = span { |0> }",
])
ORDER = ["q6", "q1", "q2", "q5", "q3", "q7", "q4", "q8"]
CHAIN = "; ".join(f"{a},{b} := C({a},{b})" for a, b in zip(ORDER, ORDER[1:]))
TRIPLE = (f"{{ P0(q6) }} {CHAIN}; if M[q1] {{ 0 -> skip | 1 -> q1 := X(q1) }} fi; "
          "while M[q8] = 1 do q8 := X(q8) od { (P0(q1) /\\ P0(q8)) }")


def test_rank_128_verify_factors_no_full_square_matrix(monkeypatch):
    i, t = parse_interp(INTERP), parse_triple(TRIPLE)
    calls = []
    svd, qr = np.linalg.svd, np.linalg.qr

    def counting_svd(a, *args, **kwargs):
        calls.append(("svd", np.shape(a)))
        return svd(a, *args, **kwargs)

    def counting_qr(a, mode="reduced"):
        calls.append(("qr", mode))
        return qr(a, mode)

    monkeypatch.setattr(np.linalg, "svd", counting_svd)
    monkeypatch.setattr(np.linalg, "qr", counting_qr)
    ok, report = triple_valid(i, t)
    assert triple_valid_wlp(i, t) == ok
    assert report["pre_rank"] == 128
    assert any(kind == "svd" for kind, _ in calls)
    assert ("svd", (256, 256)) not in calls
    assert ("qr", "complete") not in calls
