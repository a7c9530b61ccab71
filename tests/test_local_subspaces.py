"""Local-support subspaces against their dense forms.

A subspace held on a few legs of the tensor layout (``Subspace.legs``) is
its local basis tensored with the whole space of the other legs.  Every
kernel places its operands on the union of their legs, so each answer must
equal, at tau_sub and with the same rank, the answer of the same call on the
operands' dense forms, ``Subspace(x.dim, x.basis)``, which run the kernels on
the whole space.  The instances are random on 2-4 qubits at a fixed seed:
supports, ranks, embedded channels and programs from
``helpers.random_program``.
"""

from dataclasses import replace

import numpy as np
import pytest

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
from bvn.linalg import global_kraus, inclusion_witness
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
