"""Embedded channels hold local Kraus operators on tensor legs.  Every
channel kernel must give the same answer on them as on the same operators
embedded densely, and embed_subspace must equal kron plus an explicit
permutation of the global basis."""

import math

import numpy as np
import pytest

import helpers
from bvn import Channel, InvalidChannelError, build, embed
from bvn.config import DEFAULT_TOL
from bvn.interp import allowed_generators, embed_matrix_on, embed_subspace
from bvn.linalg import (
    Subspace,
    channel_adjoint,
    channel_apply,
    channel_image,
    channel_wlp,
    global_kraus,
    orthonormal_columns,
    subspace_equal,
)
from bvn.terms import BasicTerm, _embedded, _Observe, basic_channel

TAU = DEFAULT_TOL.tau_num

# (layout, variable lists): reordered and non-adjacent legs, one leg, all legs.
CASES = [
    ([2, 3, 2], [["c", "a"], ["b"], ["c", "b"], ["a", "c"], ["b", "a", "c"], ["a", "b", "c"]]),
    ([2, 2, 2, 2], [["q3", "q1"], ["q2", "q4"], ["q4"], ["q4", "q2", "q1"], ["q2", "q3"]]),
]


def _interp(layout):
    names = "abc" if len(layout) == 3 else [f"q{k}" for k in range(1, 5)]
    return build(list(zip(names, layout)))


def _channels(rng, i, names):
    """A unitary, a projective, a two-Kraus noise channel on ``names`` and,
    for a single variable, the reset 0(q)."""
    d = math.prod(i.var_dim(n) for n in names)
    yield Channel.unitary(helpers.random_unitary(rng, d))
    p = helpers.haar_basis(rng, d, max(1, d // 2))
    yield Channel((p @ p.conj().T,), "projective")
    u = helpers.random_unitary(rng, d)
    yield Channel.validated([np.sqrt(0.3) * np.eye(d), np.sqrt(0.7) * u])
    if len(names) == 1:
        yield basic_channel(i, BasicTerm("0", tuple(names)))


def _dense(i, e, names):
    kraus = tuple(embed_matrix_on(i, k, names, list(i.variables)) for k in e.kraus)
    return Channel(kraus, e.kind)


def _ranks(dim):
    return sorted({0, 1, dim // 3, dim})


def _all_cases():
    for layout, name_lists in CASES:
        for names in name_lists:
            yield layout, names


@pytest.mark.parametrize("seed,layout,names", [(s, *c) for s, c in enumerate(_all_cases())])
def test_kernels_agree_with_dense_embedding(seed, layout, names):
    rng = np.random.default_rng(seed)
    i = _interp(layout)
    total = i.total_dim
    for e in _channels(rng, i, names):
        local, dense = embed(i, e, names), _dense(i, e, names)
        assert np.allclose(np.stack(global_kraus(local)), np.stack(dense.kraus), atol=TAU)
        rho = helpers.random_state(rng, total)
        assert np.abs(channel_apply(local, rho).matrix
                      - channel_apply(dense, rho).matrix).max() <= TAU
        adj_l, adj_d = channel_adjoint(local), channel_adjoint(dense)
        assert adj_l.kind == adj_d.kind
        assert np.allclose(np.stack(global_kraus(adj_l)), np.stack(adj_d.kraus), atol=TAU)
        for rank in _ranks(total):
            x = helpers.random_subspace(rng, total, rank)
            for op in (channel_image, channel_wlp):
                a, b = op(local, x), op(dense, x)
                assert a.rank == b.rank and subspace_equal(a, b)
            a, b = channel_image(adj_l, x), channel_image(adj_d, x)
            assert a.rank == b.rank and subspace_equal(a, b)


def test_generators_on_a_target_agree_with_dense_embedding():
    rng = np.random.default_rng(11)
    i = helpers.two_qubit_interp()
    target = list(i.variables)
    gens = allowed_generators(i, ["q1", "q2"])
    assert {("C", ("q1", "q2")), ("C", ("q2", "q1"))} <= set(gens)
    for sym, names in gens:
        g = _embedded(i, BasicTerm(sym, names))
        dense = [embed_matrix_on(i, k, names, target) for k in i.operations[sym].channel.kraus]
        assert np.allclose(np.stack(global_kraus(g)), np.stack(dense), atol=TAU)
        rho = helpers.random_state(rng, 4)
        want = sum(k @ rho.matrix @ k.conj().T for k in dense)
        assert np.abs(channel_apply(g, rho).matrix - want).max() <= TAU


def _kron_permuted(i, x, names):
    """kron(basis, I) in the (names..., rest...) order, rows permuted back
    into the global order by an explicit permutation."""
    layout = i.layout
    pos = [list(i.variables).index(n) for n in names]
    order = pos + [k for k in range(len(layout)) if k not in pos]
    rest_dim = i.total_dim // x.dim
    wide = np.kron(x.basis, np.eye(rest_dim))
    perm = np.zeros((i.total_dim, i.total_dim))
    for g in range(i.total_dim):
        multi = np.unravel_index(g, layout)
        perm[g, np.ravel_multi_index([multi[k] for k in order], [layout[k] for k in order])] = 1
    return perm @ wide


@pytest.mark.parametrize("layout,names", list(_all_cases()))
def test_embed_subspace_is_kron_and_permutation(layout, names):
    rng = np.random.default_rng(7)
    i = _interp(layout)
    d = math.prod(i.var_dim(n) for n in names)
    for rank in _ranks(d):
        x = helpers.random_subspace(rng, d, rank)
        got = embed_subspace(i, x, names)
        assert got.dim == i.total_dim and got.rank == rank * (i.total_dim // d)
        assert np.allclose(got.basis, _kron_permuted(i, x, names), atol=TAU)


def test_channel_rejects_legs_outside_layout():
    with pytest.raises(InvalidChannelError):
        Channel((np.eye(2),), "general", (3,), (2, 2, 2))
    with pytest.raises(InvalidChannelError):
        Channel((np.eye(4),), "general", (1, 1), (2, 2, 2))
    with pytest.raises(InvalidChannelError):
        Channel((np.eye(4),), "general", (0,), (2, 2, 2))


def test_whole_layout_in_order_is_the_whole_space():
    ch = Channel((helpers.CNOT,), "unitary", (0, 1), (2, 2))
    assert ch.legs == () and ch.layout == ()
    ket10, ket11 = np.eye(4)[:, [2]], np.eye(4)[:, [3]]
    assert subspace_equal(channel_image(ch, Subspace(4, ket10)), Subspace(4, ket11))


def _random_names(rng, i, most):
    """Between one and ``most`` distinct variables of i, in random order."""
    k = int(rng.integers(1, min(most, len(i.variables)) + 1))
    return [str(n) for n in rng.permutation(list(i.variables))[:k]]


def _projectors(rng, i):
    """(channel, dense projector) pairs: every outcome of the measurements of
    ``helpers.measured_interp`` on random variables, embedded with the split
    the binding gives it, and a random-rank projector on random variables,
    embedded with a split, embedded without one, and dense."""
    variables = list(i.variables)
    for sym, m in i.measurements.items():
        names = tuple(str(n) for n in rng.permutation(variables)[:len(m.signature)])
        for outcome in m.outcomes:
            e = _embedded(i, BasicTerm(sym, names, outcome))
            assert e.split
            yield e, global_kraus(e)[0]
    names = _random_names(rng, i, 3)
    d = 2 ** len(names)
    q = helpers.random_unitary(rng, d)
    r = int(rng.integers(1, d + 1))
    ran, ker = q[:, :r], q[:, r:]
    p = ran @ ran.conj().T
    dense = embed_matrix_on(i, p, names, variables)
    yield embed(i, Channel((p,), "projective", split=(ker, ran)), names), dense
    yield embed(i, Channel((p,), "projective"), names), dense
    yield Channel((dense,), "projective"), dense


def _random_operand(rng, i):
    """A random-rank subspace, dense or on random variables in random order."""
    if rng.random() < 0.3:
        return helpers.random_subspace(rng, i.total_dim)
    names = _random_names(rng, i, len(i.variables))
    return embed_subspace(i, helpers.random_subspace(rng, 2 ** len(names)), names)


def _dense_image(p, x):
    """The image as the general Kraus path takes it: a rank cut of P times x."""
    return Subspace(x.dim, orthonormal_columns(p @ x.basis, DEFAULT_TOL))


@pytest.mark.parametrize("n", [2, 3, 4])
def test_projective_image_agrees_with_the_dense_rank_cut(n):
    rng = np.random.default_rng(20261019 + n)
    i = helpers.measured_interp(rng, n)
    for _ in range(4):
        for e, p in _projectors(rng, i):
            for _ in range(3):
                x = _random_operand(rng, i)
                got, want = channel_image(e, x), _dense_image(p, x)
                assert got.rank == want.rank and subspace_equal(got, want)


@pytest.mark.parametrize("cosine,kept", [(1e-10, False), (1e-8, True)])
@pytest.mark.parametrize("split", [True, False])
def test_projective_image_cuts_planted_cosines_at_tau_rank(cosine, kept, split):
    # x is spanned by a vector of the range and one at the given cosine to it,
    # 1/10 and 10 times the tau_rank cutoff, on two of three qubits in reverse
    # order; tensoring with the third repeats both singular values
    assert DEFAULT_TOL.tau_rank == 1e-9
    rng = np.random.default_rng(5)
    i = build([("q1", 2), ("q2", 2), ("q3", 2)])
    names = ["q3", "q1"]
    q = helpers.random_unitary(rng, 4)
    ran, ker = q[:, :2], q[:, 2:]
    p = ran @ ran.conj().T
    e = embed(i, Channel((p,), "projective", split=(ker, ran) if split else ()), names)
    sine = math.sqrt(1 - cosine ** 2)
    local = np.stack([ran[:, 0], cosine * ran[:, 1] + sine * ker[:, 0]], axis=1)
    x = embed_subspace(i, Subspace(4, local), names)
    got = channel_image(e, x)
    want = _dense_image(embed_matrix_on(i, p, names, list(i.variables)), x)
    assert got.rank == want.rank == (4 if kept else 2)
    assert subspace_equal(got, want)


def test_adjoint_of_an_outcome_is_the_outcome():
    rng = np.random.default_rng(3)
    i = helpers.measured_interp(rng, 3)
    t = BasicTerm("M", ("q1",), 0)
    e = _embedded(i, t)
    adj = channel_adjoint(e)
    assert adj.kind == "projective" and adj.split is e.split and adj.legs == e.legs
    p = global_kraus(e)[0]
    for _ in range(5):
        x = _random_operand(rng, i)
        got = _Observe(i)(t, x)
        want = Subspace(x.dim, orthonormal_columns(p.conj().T @ x.basis, DEFAULT_TOL))
        assert got.rank == want.rank and subspace_equal(got, want)
