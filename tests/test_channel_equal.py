"""Channel equality on Choi factors.

``channel_equal`` decides "no entry of J1 - J2 above tau_num" for the Choi
matrices J_i = W_i W_i^dagger without forming them: it reads the row norms of
J1 - J2 off one QR of [W1 W2] and forms only the rows whose norm passes
tau_num.  These tests hold it to the same rule on the dense Choi matrices of
``helpers.choi_matrix``, on channels placed on tensor legs, in memory, and
through ``term-eq`` on joint spaces whose Choi matrices would not fit.
"""

import tracemalloc

import numpy as np
import pytest

import helpers
from bvn import Channel, channel_equal
from bvn.cli import main
from bvn.config import DEFAULT_TOL
from bvn.linalg import global_kraus
from bvn.parser import parse_interp, parse_term
from bvn.terms import term_equiv

TAU = DEFAULT_TOL.tau_num


def _perturbed_twin(rng, e: Channel) -> Channel:
    """e's Kraus operators mixed by a random isometry (the same channel, with
    up to two more operators), then one operator moved by eps / d, eps in [1e-11, 1e-7]."""
    r, d = len(e.kraus), e.dim
    r2 = r + int(rng.integers(3))
    v = np.linalg.qr(rng.normal(size=(r2, r2)) + 1j * rng.normal(size=(r2, r2)))[0][:, :r]
    twin = np.einsum("ji,iab->jab", v, np.stack(e.kraus))
    eps = 10 ** rng.uniform(-11, -7) / d
    twin[int(rng.integers(r2))] += eps * (rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d)))
    return Channel(tuple(twin))


def test_verdicts_equal_the_dense_rule():
    rng = np.random.default_rng(31)
    near, verdicts = 0, set()
    for _ in range(300):
        d = int(rng.integers(2, 9))
        e = helpers.random_channel(rng, d, int(rng.integers(1, d * d + 1)))
        twin = _perturbed_twin(rng, e)
        gap = np.abs(helpers.choi_matrix(e) - helpers.choi_matrix(twin)).max()
        assert channel_equal(e, twin) == (gap <= TAU), (d, len(e.kraus), gap)
        near += TAU / 10 <= gap <= 10 * TAU
        verdicts.add(bool(gap <= TAU))
    assert verdicts == {True, False}
    assert near >= 90


def _planted(spread: float, peak: float) -> tuple:
    """Two channels on C^64 whose J1 - J2 has the entry ``spread`` on the
    first 512 x 512 indices, whose rows have norm 22.6 * spread, and the
    entry ``peak`` on a 2 x 2 block of the last indices, whose rows have
    norm 1.41 * peak: 514 candidate rows, in two blocks of 256."""
    d = 64
    base = 0.5 * np.eye(d)
    a = np.zeros(d * d)
    a[:512] = np.sqrt(spread)
    c = np.zeros(d * d)
    c[-2:] = np.sqrt(peak)
    return Channel((base, a.reshape(d, d), c.reshape(d, d))), Channel((base,))


def test_rows_past_tau_num_are_read_to_the_end():
    assert channel_equal(*_planted(0.9 * TAU, 0.9 * TAU))
    assert not channel_equal(*_planted(0.9 * TAU, 2 * TAU))


def test_unitaries_equal_up_to_a_global_phase():
    u = helpers.random_unitary(np.random.default_rng(4), 4)
    assert channel_equal(Channel.unitary(u), Channel.unitary(1j * u))
    assert not channel_equal(Channel.unitary(u), Channel.unitary(u @ np.diag([1, 1, 1, -1])))


def _on_legs(rng, layout):
    """Channels on some legs of ``layout``: a unitary, a projector and a
    two-Kraus noise channel on one leg, on two legs and on two legs out of
    order."""
    for legs in ((1,), (0, 2), (2, 0)):
        d = int(np.prod([layout[g] for g in legs]))
        u = helpers.random_unitary(rng, d)
        p = helpers.haar_basis(rng, d, max(1, d // 2))
        yield Channel((u,), "unitary", legs, layout)
        yield Channel((p @ p.conj().T,), "projective", legs, layout)
        yield Channel((np.sqrt(0.3) * np.eye(d), np.sqrt(0.7) * u), "general", legs, layout)


def test_channels_on_legs_equal_their_dense_twins():
    layout = (2, 3, 2)
    for e in _on_legs(np.random.default_rng(5), layout):
        dense = Channel(global_kraus(e), e.kind)
        assert channel_equal(e, dense) and channel_equal(dense, e), (e.kind, e.legs)
        assert helpers.dense_channel_equal(e, dense)


def test_the_same_operators_on_other_legs_differ():
    layout = (2, 3, 2)
    x = Channel((helpers.X,), "unitary", (0,), layout)
    assert not channel_equal(x, Channel((helpers.X,), "unitary", (2,), layout))
    noise = (np.sqrt(0.5) * np.eye(2), np.sqrt(0.5) * helpers.X)
    assert not channel_equal(Channel(noise, "general", (0,), layout),
                             Channel(noise, "general", (2,), layout))
    assert not channel_equal(Channel((helpers.CNOT,), "unitary", (0, 2), layout),
                             Channel((helpers.CNOT,), "unitary", (2, 0), layout))


def _noisy_qubits(fixture_text, n: int):
    """noisy.bvn's symbols on qubits q1..qn."""
    body = fixture_text("noisy.bvn").replace("var q1 : 2\nvar q2 : 2\n", "")
    return "".join(f"var q{k} : 2\n" for k in range(1, n + 1)) + body


def _peak_mib(i, t1, t2):
    tracemalloc.start()
    try:
        verdict = term_equiv(i, t1, t2)
        return verdict, tracemalloc.get_traced_memory()[1] / 2 ** 20
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("k,last,equal,bound", [
    (5, "Ebf", True, 16),  # one 5-qubit Choi matrix alone is 16 MiB
    (6, "Ebf", True, 150),
    (6, "Epf", False, 150),
])
def test_term_eq_forms_no_choi_matrix(fixture_text, k, last, equal, bound):
    i = parse_interp(_noisy_qubits(fixture_text, k))
    word = " ".join(f"H(q{q}) Ebf(q{q})" for q in range(1, k + 1))
    t1 = parse_term(word)
    t2 = parse_term(word[:word.rindex("Ebf")] + f"{last}(q{k})")
    verdict, peak = _peak_mib(i, t1, t2)
    assert verdict is equal
    assert peak < bound


def test_a_different_pair_is_decided_on_its_first_rows(fixture_text):
    # the K=6 twins differ in their largest row: the first block of one row
    # answers, and no 2^20-entry block is formed (it was 8 MiB over the equal pair)
    i = parse_interp(_noisy_qubits(fixture_text, 6))
    word = " ".join(f"H(q{q}) Ebf(q{q})" for q in range(1, 7))
    same = _peak_mib(i, parse_term(word), parse_term(word))
    other = _peak_mib(i, parse_term(word), parse_term(word[:word.rindex("Ebf")] + "Epf(q6)"))
    assert same[0] and not other[0]
    assert other[1] < same[1] + 2


def _gates(names, n):
    return " ".join(f"{g}(q{q})" for g in names for q in range(1, n + 1))


@pytest.mark.parametrize("other,code,line", [
    ("XH", 0, "equal as channels"),
    ("HX", 1, "different channels"),
])
def test_term_eq_on_eight_qubits(fixture_text, tmp_path, capsys, other, code, line):
    interp = tmp_path / "q8.bvn"
    interp.write_text(_noisy_qubits(fixture_text, 8))
    assert main(["-i", str(interp), "term-eq", _gates("HZ", 8), _gates(other, 8)]) == code
    assert capsys.readouterr().out.splitlines()[-1] == line
