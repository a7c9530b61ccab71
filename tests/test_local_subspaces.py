"""Local-support subspaces against their dense forms.

A subspace held on a few legs of the tensor layout (``Subspace.legs``) is
its local basis tensored with the whole space of the other legs.  Every
kernel places its operands on the union of their legs, so each answer must
equal, at tau_sub and with the same rank, the answer of the same call on the
operands' dense forms, ``Subspace(x.dim, x.basis)``, which run the kernels on
the whole space.  The instances are random on 2-4 qubits at a fixed seed:
supports, ranks, embedded channels and programs from
``helpers.random_program``.

A channel action drops each leg it added on which its result is still the
whole space (``linalg._trimmed``); the answers with that trim must equal
those without it, a result turned off the trimmed form by more than the
tau_rank cut keeps its leg, and repeated actions keep the untrimmed
verdicts.
"""

from dataclasses import replace

import numpy as np
import pytest

import bvn.linalg
import helpers
from bvn import (
    BasicTerm,
    Channel,
    HoareTriple,
    Subspace,
    channel_image,
    channel_wlp,
    forall_closure,
    includes,
    lattice_join,
    lattice_meet,
    ortho,
    prog_image,
    prog_wlp,
    sasaki_implies,
    subspace_equal,
    triple_valid,
    triple_valid_wlp,
)
from bvn.linalg import _split, global_kraus, inclusion_witness
from bvn.terms import _embedded

SEED = 20261019


def _local(rng, i, legs=None) -> Subspace:
    """A Haar-random subspace of random rank on 1..n-1 random legs (in
    random order), tensored with the whole space elsewhere."""
    n = len(i.variables)
    if legs is None:
        legs = tuple(int(g) for g in rng.permutation(n)[:rng.integers(1, n)])
    side = 2 ** len(legs)
    rank = int(rng.integers(0, side + 1))
    basis = helpers.haar_basis(rng, side, rank) if rank else np.zeros((side, 0))
    return Subspace(i.total_dim, basis, legs, tuple(i.layout))


def _dense(x: Subspace) -> Subspace:
    return Subspace(x.dim, x.basis)


def _same(i, local: Subspace, dense: Subspace) -> bool:
    return local.rank == dense.rank and subspace_equal(local, dense, i.tol)


@pytest.fixture
def instances():
    """(interpretation, rng) on 2, 3 and 4 qubits; quantifiers range over Z
    and CNOT."""
    rng = np.random.default_rng(SEED)
    allowed = {(2,): ("Z",), (2, 2): ("C",)}
    return [(replace(helpers.measured_interp(rng, n), allowed=allowed), rng) for n in (2, 3, 4)]


def test_lattice_operations_match_the_dense_forms(instances):
    forms = []
    for i, rng in instances:
        n = len(i.variables)
        for k in range(30):
            x = _local(rng, i)
            # every fourth pair on disjoint legs: their meet is a Kronecker product
            y = _local(rng, i, tuple(g for g in range(n) if g not in x.legs)) if k % 4 == 0 \
                else _local(rng, i)
            xd, yd = _dense(x), _dense(y)
            for local, dense in ((lattice_meet([x, y], i.tol), lattice_meet([xd, yd], i.tol)),
                                 (lattice_join([x, y], i.tol), lattice_join([xd, yd], i.tol)),
                                 (ortho(x, i.tol), ortho(xd, i.tol)),
                                 (sasaki_implies(x, y, i.tol), sasaki_implies(xd, yd, i.tol))):
                assert _same(i, local, dense)
                forms.append(bool(local.layout))
            assert includes(x, y, i.tol) == includes(xd, yd, i.tol)
            assert subspace_equal(x, y, i.tol) == subspace_equal(xd, yd, i.tol)
            witness = inclusion_witness(x, y, i.tol)
            assert (witness is None) == (inclusion_witness(xd, yd, i.tol) is None)
            if witness is not None:  # a unit vector of y farther than tau_sub from x
                assert abs(np.linalg.norm(witness) - 1) <= i.tol.tau_num
                assert np.linalg.norm(witness - yd.basis @ (yd.basis.conj().T @ witness)) \
                    <= i.tol.tau_num
                assert np.linalg.norm(witness - xd.basis @ (xd.basis.conj().T @ witness)) \
                    > i.tol.tau_sub
    assert any(forms) and not all(forms)


def test_channel_actions_match_the_dense_forms(instances):
    kinds = set()
    for i, rng in instances:
        names = list(i.variables)
        terms = [BasicTerm("H", (names[-1],)), BasicTerm("N", (names[0],)),
                 BasicTerm("C", (names[1], names[0])), BasicTerm("0", (names[-1],)),
                 BasicTerm("M", (names[0],), 1), BasicTerm("E", (names[-1], names[0]), 0)]
        for t in terms:
            e = _embedded(i, t)
            ed = Channel(global_kraus(e), e.kind)
            kinds.add(e.kind)
            for _ in range(8):
                x = _local(rng, i)
                for act in (channel_image, channel_wlp):
                    assert _same(i, act(e, x, i.tol), act(ed, _dense(x), i.tol))
    assert kinds == {"unitary", "projective", "general"}


def test_programs_and_quantifiers_match_the_dense_forms(instances):
    verdicts, forms = set(), set()
    for i, rng in instances:
        names = list(i.variables)
        for _ in range(20):
            s = helpers.random_program(i, rng, names)
            x, y = _local(rng, i), _local(rng, i)
            image, pre = prog_image(i, s, x), prog_wlp(i, s, y)
            assert _same(i, image, prog_image(i, s, _dense(x)))
            assert _same(i, pre, prog_wlp(i, s, _dense(y)))
            # the verdict of {x} s {y} by image and by wlp, local and dense alike
            valid = includes(y, image, i.tol)
            assert valid == includes(pre, x, i.tol)
            assert valid == includes(_dense(y), prog_image(i, s, _dense(x)), i.tol)
            verdicts.add(valid)
            forms |= {bool(z.layout) for z in (image, pre) if 0 < z.rank < z.dim}
        qs = [names[g] for g in rng.permutation(len(names))[:2]]
        x = _local(rng, i)
        assert _same(i, forall_closure(i, qs, x), forall_closure(i, qs, _dense(x)))
    assert verdicts == forms == {True, False}


def _binding(i, x: Subspace) -> tuple:
    """(variables, subspace on them) to bind x as a predicate: its own legs
    when they are in declaration order, else every variable."""
    names = list(i.variables)
    if x.layout and x.legs and x.legs == tuple(sorted(x.legs)):
        return [names[g] for g in x.legs], Subspace(x.local.shape[0], x.local)
    return names, Subspace(x.dim, x.basis)


def test_verify_verdicts_match_the_dense_forms(instances):
    verdicts, forms = set(), set()
    for i, rng in instances:
        names = list(i.variables)
        for _ in range(10):
            s = helpers.random_program(i, rng, names, noisy=False)  # triples need unitary terms
            x = _local(rng, i)
            x = _local(rng, i, tuple(sorted(x.legs)))  # bound as a predicate on its legs
            # one post holding the image, one a random local subspace
            for post in (prog_image(i, s, x), _local(rng, i)):
                j, atoms = helpers.bind_atoms(i, {"PRE": _binding(i, x), "POST": _binding(i, post)})
                t = HoareTriple(atoms["PRE"], s, atoms["POST"])
                valid = triple_valid(j, t)[0]
                assert valid == triple_valid_wlp(j, t)
                assert valid == includes(_dense(post), prog_image(i, s, _dense(x)), i.tol)
                verdicts.add(valid)
                forms.add(len(_binding(i, post)[0]) < len(names))
    assert verdicts == {True, False} and forms == {True, False}


def test_actions_on_disjoint_legs_take_no_arithmetic(instances, monkeypatch):
    calls = helpers.count_factorizations(monkeypatch)
    for i, rng in instances:
        names = list(i.variables)
        gate, outcome, reset = (_embedded(i, t) for t in (
            BasicTerm("C", (names[1], names[0])), BasicTerm("M", (names[0],), 1),
            BasicTerm("0", (names[0],))))
        for _ in range(8):
            x = _local(rng, i, tuple(g for g in rng.permutation(len(names)) if g > 1))
            if not 0 < x.rank < x.dim:
                continue
            # a unitary keeps x, and an outcome's image is x (x) ran P on both legs
            assert channel_image(gate, x, i.tol) is x and channel_wlp(gate, x, i.tol) is x
            calls.clear()
            image = channel_image(outcome, x, i.tol)
            assert calls == [] and image.legs == x.legs + outcome.legs
            assert np.array_equal(image.local, np.kron(x.local, _split(outcome)[1]))
            assert _same(i, image, channel_image(Channel(global_kraus(outcome), "projective"),
                                                 _dense(x), i.tol))
        # the zero and full subspaces constrain no leg, and take neither path
        zero, full = Subspace.zero(i.total_dim), Subspace.full(i.total_dim)
        assert channel_image(gate, zero, i.tol).rank == 0
        assert channel_image(gate, full, i.tol).is_full()
        for e in (outcome, reset):  # a full x under a reset is not full
            assert channel_image(e, full, i.tol).rank == i.total_dim // 2


def _leg_set(x: Subspace, n: int) -> set:
    """The legs x constrains: none for the zero and full subspaces, all n
    for a dense one."""
    if not 0 < x.rank < x.dim:
        return set()
    return set(x.legs) if x.layout else set(range(n))


def _track_trims(monkeypatch) -> list:
    """(legs dropped, whether an added leg was kept) of each trim from now
    on that had an added leg to look at."""
    seen, real = [], bvn.linalg._trimmed

    def tracking(y, e, x, tol):
        z = real(y, e, x, tol)
        n = len(e.layout)
        added = _leg_set(y, n) - _leg_set(x, n) if x.layout else set()
        if added:
            seen.append((len(added - _leg_set(z, n)), bool(_leg_set(z, n) & added)))
        return z

    monkeypatch.setattr(bvn.linalg, "_trimmed", tracking)
    return seen


def _untrimmed(monkeypatch, f, *args):
    """f(*args) with the trim of every channel action turned off."""
    with monkeypatch.context() as m:
        m.setattr(bvn.linalg, "_trimmed", lambda y, e, x, tol: y)
        return f(*args)


def test_trimming_matches_the_untrimmed_forms(instances, monkeypatch):
    trims = _track_trims(monkeypatch)
    verdicts = set()
    for i, rng in instances:
        names = list(i.variables)

        def same(a, b):
            assert a.rank == b.rank and subspace_equal(a, b, i.tol)

        terms = [BasicTerm("C", (names[1], names[0])), BasicTerm("N", (names[0],)),
                 BasicTerm("0", (names[-1],)), BasicTerm("M", (names[-1],), 0),
                 BasicTerm("E", (names[0], names[-1]), 1)]
        for t in terms:
            e = _embedded(i, t)
            for _ in range(6):
                x = _local(rng, i)
                for act in (channel_image, channel_wlp):
                    same(act(e, x, i.tol), _untrimmed(monkeypatch, act, e, x, i.tol))
        for _ in range(15):
            s = helpers.random_program(i, rng, names)
            x, y = _local(rng, i), _local(rng, i)
            image, pre = prog_image(i, s, x), prog_wlp(i, s, y)
            bare = replace(i)  # empty memos
            same(image, _untrimmed(monkeypatch, prog_image, bare, s, x))
            same(pre, _untrimmed(monkeypatch, prog_wlp, bare, s, y))
            valid = includes(y, image, i.tol)
            assert valid == includes(pre, x, i.tol)
            verdicts.add(valid)
        for _ in range(3):
            qs = [names[g] for g in rng.permutation(len(names))[:2]]
            x = _local(rng, i)
            same(forall_closure(i, qs, x), _untrimmed(monkeypatch, forall_closure, i, qs, x))
        for _ in range(6):
            s = helpers.random_program(i, rng, names, noisy=False)
            x = _local(rng, i)
            x = _local(rng, i, tuple(sorted(x.legs)))
            post = _local(rng, i)
            j, atoms = helpers.bind_atoms(i, {"PRE": _binding(i, x), "POST": _binding(i, post)})
            t = HoareTriple(atoms["PRE"], s, atoms["POST"])
            valid = triple_valid(j, t)[0]
            assert valid == triple_valid_wlp(j, t)
            assert valid == _untrimmed(monkeypatch, lambda: triple_valid(replace(j), t)[0])
            assert valid == _untrimmed(monkeypatch, triple_valid_wlp, replace(j), t)
    assert verdicts == {True, False}
    assert any(dropped for dropped, _ in trims) and any(kept for _, kept in trims)


def _tilted(theta: float) -> tuple:
    """On three qubits, x = |0> on leg 0, and the unitary on legs (0, 1)
    that turns |00> by theta towards |10>: it sends x to the span of
    cos|00> + sin|10> and |01> on legs (0, 1), whose largest sine off x is
    sin theta, and so does its adjoint.  The unitary comes local and dense."""
    u = np.eye(4, dtype=complex)
    u[np.ix_([0, 2], [0, 2])] = [[np.cos(theta), -np.sin(theta)], [np.sin(theta), np.cos(theta)]]
    x = Subspace(8, np.array([[1], [0]], dtype=complex), (0,), (2, 2, 2))
    e = Channel((u,), "unitary", (0, 1), (2, 2, 2))
    return x, e, Channel(global_kraus(e), "unitary")


TOL = bvn.DEFAULT_TOL


@pytest.mark.parametrize("theta, trimmed, equal", [
    (0.5 * TOL.tau_rank, True, True), (4 * TOL.tau_rank, False, True),
    (0.5 * TOL.tau_sub, False, True), (2 * TOL.tau_sub, False, False)],
    ids=["half-tau_rank", "4-tau_rank", "half-tau_sub", "2-tau_sub"])
def test_a_leg_is_trimmed_at_the_rank_cut_only(theta, trimmed, equal):
    """The tail of the turned leg is about theta / sqrt 2 against the cut
    tau_rank * sqrt 2, so the boundary lies at theta = 2 tau_rank, far below
    tau_sub, where the verdicts turn."""
    x, e, dense = _tilted(theta)
    for act in (channel_image, channel_wlp):
        for y in (act(e, x, TOL), act(dense, x, TOL)):
            yd = act(dense, _dense(x), TOL)
            assert y.rank == yd.rank == 4 and subspace_equal(y, yd, TOL)
            # trimmed, it is x's own form: |0> on leg 0, tensored with legs 1, 2
            assert (y.legs == (0,)) == trimmed
            if trimmed:
                assert abs(abs(y.local[0, 0]) - 1) <= TOL.tau_num
            assert subspace_equal(y, x, TOL) == subspace_equal(yd, _dense(x), TOL) == equal
            assert includes(x, y, TOL) == includes(_dense(x), yd, TOL) == equal


@pytest.mark.parametrize("theta", [0.9 * TOL.tau_sub, 0.5 * TOL.tau_rank],
                         ids=["0.9-tau_sub", "half-tau_rank"])
def test_repeated_actions_keep_the_untrimmed_verdicts(theta, monkeypatch):
    """n turns by theta turn x by n theta.  A trim that spent tau_sub on each
    action would keep the bisector of each step and call the twice-turned x
    still inside x; at the rank cut, n trims move the result by at most n
    tau_rank sqrt 2 (the bound of ``_trimmed``), and every verdict is the
    untrimmed one."""
    x, e, dense = _tilted(theta)
    for act in (channel_image, channel_wlp):
        y, bare, yd = x, x, _dense(x)
        for n in range(1, 9):
            y, yd = act(e, y, TOL), act(dense, yd, TOL)
            bare = _untrimmed(monkeypatch, act, e, bare, TOL)
            assert (y.legs == (0,)) == (theta < TOL.tau_rank)
            gap = np.linalg.norm(y.basis @ y.basis.conj().T - bare.basis @ bare.basis.conj().T, 2)
            assert gap <= n * TOL.tau_rank * np.sqrt(2)
            inside = n * theta <= TOL.tau_sub
            assert includes(x, y, TOL) == includes(x, bare, TOL) == inside
            assert includes(_dense(x), yd, TOL) == inside
