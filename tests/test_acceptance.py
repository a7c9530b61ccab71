"""Acceptance suite: one test per criterion, each printing a PASS line.

Counts and tolerances are pinned here; every randomized check runs from a
fixed seed so failures reproduce.
"""

import numpy as np
import pytest

import helpers
import soundness
from bvn import (
    Adjoint,
    HoareTriple,
    Not,
    ProofStep,
    StateDensity,
    Subspace,
    UnitaryAssign,
    channel_apply,
    channel_image,
    channel_wlp,
    check_proof,
    eval_subspace,
    forall_closure,
    includes,
    lattice_join,
    lattice_meet,
    ortho,
    prog_image,
    prog_wlp,
    run,
    sat_probability,
    satisfies,
    subspace_equal,
    support,
    term_image,
    term_wlp,
    triple_valid,
)
from bvn.cli import main as cli_main
from bvn.config import DEFAULT_TOL
from bvn.formulas import basis_atoms
from bvn.interp import allowed_generators, embed, embed_subspace
from bvn.linalg import channel_adjoint, choi_matrix
from bvn.parser import parse_formula, parse_interp, parse_program, parse_term

TAU_SUB = DEFAULT_TOL.tau_sub

FIX = None  # populated by fixture_path below


@pytest.fixture(autouse=True)
def _fix(fixture_path):
    global FIX
    FIX = fixture_path
    yield


def _passed(n, text):
    print(f"ACCEPTANCE {n}: {text}: PASS")


# -------------------------------------------------------------------------
# 1. lattice laws on >= 1000 random instances across dims {2,3,4,8,16}
# -------------------------------------------------------------------------


def test_criterion_1_lattice_laws():
    rng = np.random.default_rng(101)
    dims = [2, 3, 4, 8, 16]
    per_dim = 200  # 5 * 200 = 1000 instances
    for dim in dims:
        for _ in range(per_dim):
            x = helpers.random_subspace(rng, dim)
            y = lattice_join([x, helpers.random_subspace(rng, dim)])  # x <= y
            z = helpers.random_subspace(rng, dim)
            # orthomodularity
            assert subspace_equal(lattice_join([x, lattice_meet([ortho(x), y])]), y)
            # contradiction / excluded middle
            assert lattice_meet([x, ortho(x)]).rank == 0
            assert lattice_join([x, ortho(x)]).rank == dim
            # modularity (finite dimension)
            lhs = lattice_join([x, lattice_meet([z, y])])
            rhs = lattice_meet([lattice_join([x, z]), y])
            assert subspace_equal(lhs, rhs)
    # fixed dim-2 distributivity counterexample
    e = np.eye(2)
    x = Subspace.from_span(e[:, [0]], 2)
    y = Subspace.from_span(e[:, [1]], 2)
    z = Subspace.from_span(np.array([[1.0, 1.0]]).T / np.sqrt(2), 2)
    assert subspace_equal(lattice_meet([z, lattice_join([x, y])]), z)
    assert lattice_join([lattice_meet([z, x]), lattice_meet([z, y])]).rank == 0
    _passed(1, "lattice laws on 1000 random instances + distributivity counterexample")


# -------------------------------------------------------------------------
# 2. duality on >= 500 random (channel, subspace, state) triples
# -------------------------------------------------------------------------


def test_criterion_2_duality():
    rng = np.random.default_rng(202)
    dims = [2, 3, 4, 8, 16]
    per_dim = 100  # 500 triples
    for dim in dims:
        for _ in range(per_dim):
            e = helpers.random_channel(rng, dim, n_kraus=int(rng.integers(1, 4)),
                                       trace_preserving=bool(rng.integers(0, 2)))
            x = helpers.random_subspace(rng, dim)
            w = channel_wlp(e, x)
            rho = helpers.random_state(rng, dim)
            out = channel_apply(e, rho)
            forward = out.trace < 1e-12 or includes(x, support(out))
            backward = includes(w, support(rho))
            assert forward == backward
            if w.rank:
                inside = helpers.random_state_inside(rng, w)
                pushed = channel_apply(e, inside)
                assert pushed.trace < 1e-12 or includes(x, support(pushed))
    # unitary terms: wlp coincides with the adjoint image exactly
    i = helpers.two_qubit_interp()
    for k in range(60):
        t = helpers.random_word_term(i, rng, ["q1", "q2"])
        x = helpers.random_subspace(rng, 4)
        assert subspace_equal(term_wlp(i, t, x), term_image(i, t, x))
    _passed(2, "Schroedinger-Heisenberg duality on 500 channel triples + 60 unitary terms")


# -------------------------------------------------------------------------
# 3. Example-1 reproduction through the sat command
# -------------------------------------------------------------------------


def test_criterion_3_example_one(capsys):
    code = cli_main(["-i", FIX("ex1.bvn"), "sat", "--state", "|00>",
                     "--formula", FIX("beta.qlf")])
    assert code == 0
    code = cli_main(["-i", FIX("ex1.bvn"), "sat", "--state", "|00>",
                     "--formula", FIX("beta_joint.qlf")])
    assert code == 0
    capsys.readouterr()
    # negative control: with the guard's second factor pinned to span|1>
    # and the controlled gate's control moved to q2, the property is false
    from dataclasses import replace

    from bvn.interp import PredicateBinding

    i = helpers.two_qubit_interp()
    pinned = Subspace.from_span(np.kron(np.eye(2), np.array([[0.0], [1.0]])), 4)
    i = replace(i, predicates={**i.predicates,
                               "P": PredicateBinding("P", (2, 2), pinned)})
    wrong = parse_formula(
        "forall q1 . forall q2 . (P0(q1) /\\ P(q1,q2)) -> "
        "P(Z(q1) H(q2) C(q2,q1) Y(q1) H(q2))"
    )
    assert not satisfies(i, StateDensity.pure([1, 0, 0, 0]), wrong)
    _passed(3, "Example-1 satisfaction (nested + joint) with a failing control circuit")


# -------------------------------------------------------------------------
# 4. noisy-circuit equivalence through term-eq
# -------------------------------------------------------------------------


def test_criterion_4_noisy_equivalence(capsys, fixture_text):
    code = cli_main(["-i", FIX("noisy.bvn"), "term-eq", FIX("tau1.qt"), FIX("tau2.qt")])
    assert code == 0
    capsys.readouterr()
    noisy = parse_interp(fixture_text("noisy.bvn"))
    t1 = parse_term(fixture_text("tau1.qt"))
    t2 = parse_term(fixture_text("tau2.qt"))
    j1 = choi_matrix(helpers.dense_term_channel(noisy, t1))
    j2 = choi_matrix(helpers.dense_term_channel(noisy, t2))
    assert np.abs(j1 - j2).max() < 1e-9
    _passed(4, "the two noisy-circuit factorizations agree (Choi distance < 1e-9)")


# -------------------------------------------------------------------------
# 5. quantifier fixpoint: stabilization bound + brute-force word meet
# -------------------------------------------------------------------------


def _word_image_meet(i, qs, x, depth):
    """Independent oracle: meet of adjoint images over all generator words
    up to the given depth, enumerated breadth-first with deduplication."""
    gens = [embed(i, i.operations[sym].channel, vs) for sym, vs in allowed_generators(i, qs)]
    seen = {}

    def key(sub):
        return np.round(sub.projector(), 7).tobytes()

    frontier = [x]
    seen[key(x)] = x
    collected = [x]
    for _ in range(depth):
        nxt = []
        for y in frontier:
            for g in gens:
                img = channel_image(channel_adjoint(g), y)
                k = key(img)
                if k not in seen:
                    seen[k] = img
                    nxt.append(img)
                    collected.append(img)
        if not nxt:
            break
        frontier = nxt
        assert len(seen) < 5000, "word orbit exploded; pick a finite generator group"
    return lattice_meet(collected)


def test_criterion_5_quantifier_fixpoint():
    rng = np.random.default_rng(505)
    one_hz = helpers.one_qubit_interp(allowed_syms=("H", "Z"))
    one_x = helpers.one_qubit_interp(allowed_syms=("X",))
    import bvn

    two_pauli = bvn.build(
        variables=[("q1", 2), ("q2", 2)],
        operations=[("X", (2,), [helpers.X], True), ("Z", (2,), [helpers.Z], True),
                    ("C", (2, 2), [helpers.CNOT], True)],
        allowed=[((2,), ["X", "Z"]), ((2, 2), ["C"])],
    )
    std2 = helpers.two_qubit_interp()
    instances = 0
    for _ in range(70):
        for i, qs in ((one_hz, ["q"]), (one_x, ["q"]), (std2, ["q1", "q2"])):
            dim = i.total_dim
            x = helpers.random_subspace(rng, dim)
            trace = []
            forall_closure(i, qs, x, trace=trace)
            assert trace[-1][0] <= dim + 1
            instances += 1
    assert instances >= 200
    # unitary-only generators: equals the brute-force word meet
    for _ in range(40):
        x = helpers.random_subspace(rng, 2)
        trace = []
        closure = forall_closure(one_hz, ["q"], x, trace=trace)
        brute = _word_image_meet(one_hz, ["q"], x, trace[-1][0])
        assert subspace_equal(closure, brute)
    for _ in range(15):
        x = helpers.random_subspace(rng, 4)
        trace = []
        closure = forall_closure(two_pauli, ["q1", "q2"], x, trace=trace)
        brute = _word_image_meet(two_pauli, ["q1", "q2"], x, trace[-1][0])
        assert subspace_equal(closure, brute)
    _passed(5, "210 fixpoints stabilize within dim+1; 55 match brute-force word meets")


# -------------------------------------------------------------------------
# 6. program-semantics oracle
# -------------------------------------------------------------------------


def test_criterion_6_program_oracle():
    rng = np.random.default_rng(606)
    i = helpers.two_qubit_interp()
    for _ in range(100):
        s = helpers.random_loop_free_program(i, rng, ["q1", "q2"], depth=2)
        ch = helpers.brute_channel(i, s)
        x = helpers.random_subspace(rng, 4)
        assert subspace_equal(prog_image(i, s, x), channel_image(ch, x))
        assert subspace_equal(prog_wlp(i, s, x), channel_wlp(ch, x))
    one = helpers.one_qubit_interp()
    zero_line = embed_subspace(one, Subspace.from_span(np.eye(2)[:, [0]], 2), ["q"])
    one_line = embed_subspace(one, Subspace.from_span(np.eye(2)[:, [1]], 2), ["q"])
    x_loop = parse_program("while M[q] = 1 do q := X(q) od")
    assert prog_wlp(one, x_loop, zero_line).rank == 2
    assert subspace_equal(prog_image(one, x_loop, one_line), zero_line)
    h_loop = parse_program("while M[q] = 1 do q := H(q) od")
    res = run(one, h_loop, StateDensity.pure([0, 1]), max_steps=100_000, epsilon=1e-13)
    assert res.residual < 1e-9
    _passed(6, "100 loop-free programs match the composed-channel oracle; loop cases by hand")


# -------------------------------------------------------------------------
# 7. rule soundness: 7 construct + 6 adaptation rules, 100 instances each
# -------------------------------------------------------------------------

N_RULE = 100
CRITERION_7 = ("Ax.Sk", "Ax.In", "Ax.UT", "R.SC", "R.IF", "R.LP", "R.Con", "Invariance",
               "Substitution", "Conjunction", "Disjunction", "Exists-Intro", "Hoare-Adaptation")


def test_criterion_7_rule_soundness():
    for rule in CRITERION_7:
        soundness.check_row(rule, N_RULE, 707)
    _passed(7, "13 rules x 100 randomized valid-premise instances, zero counterexamples")


# -------------------------------------------------------------------------
# 8. HH = I correctness proof for five distinct subspaces
# -------------------------------------------------------------------------


def test_criterion_8_hh_proof():
    rng = np.random.default_rng(808)
    base = helpers.one_qubit_interp()
    prog = parse_program("q := H(q); q := H(q)")
    h = parse_term("H(q)")
    for k in range(5):
        rank = 1 + (k % 2)
        sub = helpers.random_subspace(rng, 2, rank=rank)
        i, fs = helpers.bind_atoms(base, {f"_W{k}": (("q",), sub)})
        x = fs[f"_W{k}"]
        steps = [
            ProofStep("s1", HoareTriple(Adjoint(h, x), UnitaryAssign(("q",), h), x),
                      "Ax.UT", (), {"formula": x, "term": h, "vars": ("q",)}),
            ProofStep("s2", HoareTriple(Adjoint(h, Adjoint(h, x)), UnitaryAssign(("q",), h),
                                        Adjoint(h, x)),
                      "Ax.UT", (), {"formula": Adjoint(h, x), "term": h, "vars": ("q",)}),
            ProofStep("s3", HoareTriple(Adjoint(h, Adjoint(h, x)), prog, x),
                      "R.SC", ("s2", "s1"), {}),
        ]
        report = check_proof(i, steps, semantic_cross_check=True)
        assert report.ok and len(report.steps) == 3
        # the derived precondition is semantically the original subspace
        final = steps[-1].judgment
        assert subspace_equal(eval_subspace(i, final.pre), eval_subspace(i, x))
        ok, _ = triple_valid(i, HoareTriple(x, prog, x))
        assert ok
    _passed(8, "3-step HH=I derivation checks for 5 distinct subspaces")


# -------------------------------------------------------------------------
# 9. runtime-assertion encoding in dimension 8
# -------------------------------------------------------------------------


def test_criterion_9_runtime_assertions():
    rng = np.random.default_rng(909)
    i3 = helpers.three_qubit_interp()
    u = helpers.random_unitary(rng, 8)
    i, atoms = basis_atoms(i3, ["q1", "q2", "q3"], [u[:, k] for k in range(8)])
    rest = eval_subspace(i, Not(atoms[0]))
    assert subspace_equal(rest, Subspace(8, u[:, 1:]), tol=DEFAULT_TOL)
    # disjunction-rule decomposition on 50 random programs
    names = ["q1", "q2", "q3"]
    for k in range(50):
        s = helpers.random_loop_free_program(i, rng, names, depth=1)
        x = helpers.random_subspace(rng, 8, rank=int(rng.integers(1, 5)))
        y_sub = helpers.random_subspace(rng, 8, rank=int(rng.integers(2, 8)))
        i_k, fs = helpers.bind_atoms(
            i, {f"_Y{k}": (tuple(names), y_sub), f"_X{k}": (tuple(names), x)}
        )
        i_k, rays = basis_atoms(i_k, names, [x.basis[:, c] for c in range(x.rank)],
                                prefix=f"_R{k}_")
        whole, _ = triple_valid(i_k, HoareTriple(fs[f"_X{k}"], s, fs[f"_Y{k}"]))
        each = all(
            triple_valid(i_k, HoareTriple(ray, s, fs[f"_Y{k}"]))[0] for ray in rays
        )
        assert whole == each
    _passed(9, "negated-ray encoding in dim 8 + disjunction decomposition on 50 programs")


# -------------------------------------------------------------------------
# 10. satisfaction structure: convexity, monotonicity, limits, Born rule
# -------------------------------------------------------------------------


def test_criterion_10_satisfaction_structure():
    rng = np.random.default_rng(1010)
    i = helpers.two_qubit_interp()
    checked = 0
    for k in range(170):
        sub = helpers.random_subspace(rng, 4, rank=int(rng.integers(1, 5)))
        i_k, fs = helpers.bind_atoms(i, {f"_S{k}": (("q1", "q2"), sub)})
        b = fs[f"_S{k}"]
        # convexity: mixtures of satisfying states satisfy
        states = [helpers.random_state_inside(rng, sub) for _ in range(3)]
        weights = rng.dirichlet(np.ones(3))
        mix = StateDensity(sum(w * s.matrix for w, s in zip(weights, states)))
        assert satisfies(i_k, mix, b)
        assert abs(sat_probability(i_k, mix, b) - 1.0) < 1e-9
        checked += 1
        # monotonicity: smaller support inherits satisfaction
        sigma = helpers.random_state_inside(rng, sub)
        smaller = helpers.random_subspace_inside(rng, support(sigma), rank=1)
        rho = helpers.random_state_inside(rng, smaller)
        assert satisfies(i_k, rho, b)
        checked += 1
        # limit: a trace-distance convergent sequence of satisfying states
        target = helpers.random_state_inside(rng, sub)
        other = helpers.random_state_inside(rng, sub)
        seq = [
            StateDensity((1 - 2.0 ** -n) * target.matrix + 2.0 ** -n * other.matrix)
            for n in range(1, 6)
        ]
        assert all(satisfies(i_k, r, b) for r in seq)
        assert satisfies(i_k, target, b)
        checked += 1
        # Born probability: certainty iff satisfied, always within [0, 1]
        generic = helpers.random_state(rng, 4)
        p = sat_probability(i_k, generic, b)
        assert 0.0 <= p <= 1.0
        assert (abs(p - 1.0) < 1e-9) == satisfies(i_k, generic, b)
    assert checked >= 500
    _passed(10, f"{checked} constructed satisfaction instances + Born checks")
