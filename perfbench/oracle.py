"""Dense numpy oracle for the benchmark's known answers.

Independent of ``bvn``: gates act on a qubit register by tensor contraction
(``apply_op``), subspaces are orthonormal column bases, and meets are null
spaces of stacked complement projectors.  Every expected verdict, rank,
trace and diagonal of a loop-free query comes from here; loop answers come
from closed forms of the loops the generators build (see ``xloop_image``).

Qubit ``k`` of an ``n``-qubit register is tensor leg ``k`` (0-based, most
significant first), the order in which interpretation files declare them.
"""

from __future__ import annotations

import numpy as np

RANK_TOL = 1e-9
NOISE_FLOOR = 1e-13
SUB_TOL = 1e-7

_S2 = 1 / np.sqrt(2)
GATES = {
    "I": np.eye(2, dtype=complex),
    "H": np.array([[_S2, _S2], [_S2, -_S2]], dtype=complex),
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "Z": np.array([[1, 0], [0, -1]], dtype=complex),
    "C": np.array([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], dtype=complex),
}
# Bit-flip and phase-flip noise with p = 1/4, as Kraus lists.
CHANNELS = {
    "Ebf": [np.sqrt(0.75) * GATES["I"], 0.5 * GATES["X"]],
    "Epf": [np.sqrt(0.75) * GATES["I"], 0.5 * GATES["Z"]],
}
P0 = np.array([[1, 0], [0, 0]], dtype=complex)
P1 = np.array([[0, 0], [0, 1]], dtype=complex)


def kraus_of(symbol: str) -> list:
    if symbol in CHANNELS:
        return CHANNELS[symbol]
    return [GATES[symbol]]


def apply_op(mat: np.ndarray, pos, vecs: np.ndarray, n: int) -> np.ndarray:
    """``mat`` on qubits ``pos`` (in that order) applied to the columns of
    ``vecs`` (shape 2**n x r)."""
    k = len(pos)
    r = vecs.shape[1]
    t = vecs.reshape([2] * n + [r])
    m = mat.reshape([2] * (2 * k))
    t = np.tensordot(m, t, axes=(list(range(k, 2 * k)), list(pos)))
    t = np.moveaxis(t, list(range(k)), list(pos))
    return t.reshape(2**n, r)


def full_op(mat: np.ndarray, pos, n: int) -> np.ndarray:
    return apply_op(mat, pos, np.eye(2**n, dtype=complex), n)


def ket(bits) -> np.ndarray:
    v = np.zeros(2 ** len(bits), dtype=complex)
    v[int("".join(str(b) for b in bits), 2)] = 1.0
    return v


# ---------------------------------------------------------------------------
# subspaces as orthonormal column bases
# ---------------------------------------------------------------------------


def orth(vecs: np.ndarray) -> np.ndarray:
    d = vecs.shape[0]
    if vecs.shape[1] == 0:
        return np.zeros((d, 0), dtype=complex)
    u, s, _ = np.linalg.svd(vecs, full_matrices=False)
    if s[0] <= NOISE_FLOOR:
        return np.zeros((d, 0), dtype=complex)
    return u[:, s > RANK_TOL * s[0]]


def null_space(rows: np.ndarray) -> np.ndarray:
    """Orthonormal basis of {v : rows v = 0}."""
    d = rows.shape[1]
    _, s, vh = np.linalg.svd(rows, full_matrices=True)
    scale = max(s[0] if s.size else 0.0, 1.0)
    rank = int((s > RANK_TOL * scale).sum())
    return vh[rank:].conj().T


def complement_projector(b: np.ndarray) -> np.ndarray:
    return np.eye(b.shape[0], dtype=complex) - b @ b.conj().T


def complement(b: np.ndarray) -> np.ndarray:
    return null_space(b.conj().T) if b.shape[1] else np.eye(b.shape[0], dtype=complex)


def meet(*bases) -> np.ndarray:
    return null_space(np.vstack([complement_projector(b) for b in bases]))


def join(*bases) -> np.ndarray:
    return orth(np.hstack(bases))


def contains(big: np.ndarray, small: np.ndarray) -> bool:
    """True iff span(small) lies inside span(big)."""
    if small.shape[1] == 0:
        return True
    resid = small - big @ (big.conj().T @ small)
    return bool(np.linalg.norm(resid, axis=0).max() <= SUB_TOL)


def same_subspace(a: np.ndarray, b: np.ndarray) -> bool:
    return a.shape[1] == b.shape[1] and contains(a, b) and contains(b, a)


# ---------------------------------------------------------------------------
# terms: ("g", symbol, vars) | ("seq", first, second) | ("tensor", l, r);
#        vars are 0-based qubit positions
# ---------------------------------------------------------------------------


def term_kraus(t, n: int) -> list:
    kind = t[0]
    if kind == "g":
        return [full_op(k, t[2], n) for k in kraus_of(t[1])]
    if kind in ("seq", "tensor"):
        first, second = term_kraus(t[1], n), term_kraus(t[2], n)
        return [k2 @ k1 for k2 in second for k1 in first]
    raise ValueError(f"not a term: {t!r}")


def wlp_kraus(kraus: list, target: np.ndarray) -> np.ndarray:
    """Largest subspace every Kraus operator sends into ``target``."""
    q = complement_projector(target)
    return null_space(np.vstack([q @ k for k in kraus]))


def choi(kraus: list) -> np.ndarray:
    vs = [k.reshape(-1) for k in kraus]
    return sum(np.outer(v, v.conj()) for v in vs)


def channels_equal(k1: list, k2: list, tol: float = 1e-9) -> bool:
    return bool(np.abs(choi(k1) - choi(k2)).max() <= tol)


# ---------------------------------------------------------------------------
# formulas: ("atom", predicate, pos, term | None) | ("not", f)
#           | ("and", a, b) | ("or", a, b) | ("adj", term, f)
#           | ("meas", outcome, q); ``preds`` maps a predicate symbol to an
#           orthonormal basis of its local subspace
# ---------------------------------------------------------------------------


def predicate_space(local: np.ndarray, pos, n: int) -> np.ndarray:
    proj = local @ local.conj().T
    return orth(full_op(proj, pos, n))


def eval_formula(f, n: int, preds: dict) -> np.ndarray:
    kind = f[0]
    if kind == "atom":
        target = predicate_space(preds[f[1]], f[2], n)
        return target if f[3] is None else wlp_kraus(term_kraus(f[3], n), target)
    if kind == "meas":
        return orth(full_op(P1 if f[1] else P0, [f[2]], n))
    if kind == "not":
        return complement(eval_formula(f[1], n, preds))
    if kind == "and":
        return meet(eval_formula(f[1], n, preds), eval_formula(f[2], n, preds))
    if kind == "or":
        return join(eval_formula(f[1], n, preds), eval_formula(f[2], n, preds))
    if kind == "adj":
        return wlp_kraus(term_kraus(f[1], n), eval_formula(f[2], n, preds))
    raise ValueError(f"not a formula: {f!r}")


# ---------------------------------------------------------------------------
# programs: ("assign", term) | ("seq", [programs]) | ("case", q, p0, p1)
#           | ("xloop", q) = while M[q] = 1 do q := X(q) od
# ---------------------------------------------------------------------------


def _unitary_image(t, basis: np.ndarray, n: int) -> np.ndarray:
    kind = t[0]
    if kind == "g":
        (k,) = kraus_of(t[1])
        return apply_op(k, t[2], basis, n)
    if kind in ("seq", "tensor"):
        return _unitary_image(t[2], _unitary_image(t[1], basis, n), n)
    raise ValueError(f"not a unitary term: {t!r}")


def xloop_image(q: int, basis: np.ndarray, n: int) -> np.ndarray:
    """Image of while M[q] = 1 do q := X(q) od.  Mass with q = 1 is flipped
    once and then exits, so the image is P0 x  v  X P1 x."""
    p0 = apply_op(P0, [q], basis, n)
    flipped = apply_op(GATES["X"], [q], apply_op(P1, [q], basis, n), n)
    return orth(np.hstack([p0, flipped]))


def prog_image(p, basis: np.ndarray, n: int) -> np.ndarray:
    kind = p[0]
    if kind == "assign":
        return _unitary_image(p[1], basis, n)
    if kind == "seq":
        for sub in p[1]:
            basis = prog_image(sub, basis, n)
        return basis
    if kind == "case":
        b0 = prog_image(p[2], orth(apply_op(P0, [p[1]], basis, n)), n)
        b1 = prog_image(p[3], orth(apply_op(P1, [p[1]], basis, n)), n)
        return orth(np.hstack([b0, b1]))
    if kind == "xloop":
        return xloop_image(p[1], basis, n)
    if kind == "skip":
        return basis
    raise ValueError(f"not a program: {p!r}")


def unitary_wlp(t, basis: np.ndarray, n: int) -> np.ndarray:
    """wlp of a unitary assignment: U^dagger applied to the target."""
    kind = t[0]
    if kind == "g":
        (k,) = kraus_of(t[1])
        return apply_op(k.conj().T, t[2], basis, n)
    if kind in ("seq", "tensor"):
        return unitary_wlp(t[1], unitary_wlp(t[2], basis, n), n)
    raise ValueError(f"not a unitary term: {t!r}")


def prog_wlp(p, basis: np.ndarray, n: int) -> np.ndarray:
    """wlp of a program built from unitary assignments alone."""
    if p[0] == "assign":
        return unitary_wlp(p[1], basis, n)
    if p[0] == "seq":
        for sub in reversed(p[1]):
            basis = prog_wlp(sub, basis, n)
        return basis
    raise ValueError(f"not a unitary program: {p!r}")


def prog_density(p, rho: np.ndarray, n: int) -> np.ndarray:
    """Output density matrix of a program on input ``rho``."""
    kind = p[0]
    if kind == "assign":
        (u,) = term_kraus(p[1], n)
        return u @ rho @ u.conj().T
    if kind == "seq":
        for sub in p[1]:
            rho = prog_density(sub, rho, n)
        return rho
    if kind == "case":
        a0, a1 = full_op(P0, [p[1]], n), full_op(P1, [p[1]], n)
        return prog_density(p[2], a0 @ rho @ a0, n) + prog_density(p[3], a1 @ rho @ a1, n)
    if kind == "xloop":
        a0 = full_op(P0, [p[1]], n)
        flip = full_op(GATES["X"], [p[1]], n) @ full_op(P1, [p[1]], n)
        return a0 @ rho @ a0 + flip @ rho @ flip.conj().T
    if kind == "skip":
        return rho
    raise ValueError(f"not a program: {p!r}")
