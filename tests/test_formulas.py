import numpy as np
import pytest

import helpers
from bvn import (
    Adjoint,
    And,
    Atom,
    DimensionMismatchError,
    Forall,
    InvalidStateError,
    Not,
    StateDensity,
    Subspace,
    WellFormednessError,
    basis_atoms,
    big_or,
    entails,
    eval_subspace,
    exists_formula,
    forall_closure,
    formula_wf,
    identity_term,
    includes,
    lattice_join,
    lattice_meet,
    or_formula,
    ortho,
    sasaki_formula,
    sasaki_implies,
    sat_probability,
    satisfies,
    subspace_equal,
    support,
)
from bvn.parser import parse_formula, parse_interp, parse_term


class TestWellFormedness:
    def test_exam_wff_free_vars(self, fixture_text):
        noisy = parse_interp(fixture_text("noisy.bvn"))
        b = parse_formula("~P0(Z(q1) Ebf(q1)) /\\ P2(H(q2))")
        assert formula_wf(noisy, b) == {"q1", "q2"}

    def test_eq2_closed(self, std2, fixture_text):
        b = parse_formula(fixture_text("beta.qlf"))
        assert formula_wf(std2, b) == frozenset()

    def test_adjoint_unions(self, std2):
        b = Adjoint(parse_term("H(q1)"), Atom("P0", identity_term(["q2"])))
        assert formula_wf(std2, b) == {"q1", "q2"}

    def test_unknown_predicate(self, std2):
        with pytest.raises(WellFormednessError):
            formula_wf(std2, parse_formula("Nope(q1)"))

    def test_signature_mismatch(self, std2):
        with pytest.raises(WellFormednessError):
            formula_wf(std2, parse_formula("P0(q1,q2)"))

    def test_meas_atom(self, std2):
        assert formula_wf(std2, parse_formula("meas M.0(q1)")) == {"q1"}
        with pytest.raises(WellFormednessError):
            formula_wf(std2, parse_formula("meas M.7(q1)"))


class TestEvaluation:
    def test_identity_atom(self, std1):
        x = eval_subspace(std1, parse_formula("S0(q)"))
        assert subspace_equal(x, Subspace.from_span(np.eye(2)[:, [0]], 2))

    def test_negated_basis_atom(self, rng):
        i = helpers.one_qubit_interp()
        u = helpers.random_unitary(rng, 2)
        i2, atoms = basis_atoms(i, ["q"], [u[:, 0], u[:, 1]])
        neg = eval_subspace(i2, Not(atoms[0]))
        assert subspace_equal(neg, Subspace(2, u[:, [1]]))

    def test_contradiction_is_zero(self, std2):
        b = parse_formula("P0(q1)")
        assert eval_subspace(std2, And(b, Not(b))).rank == 0

    def test_atom_through_term(self, std1):
        # wlp reading: states that H sends into span|0> form span|+>
        x = eval_subspace(std1, parse_formula("S0(H(q))"))
        assert subspace_equal(x, Subspace.from_span(np.array([[1, 1]]).T / np.sqrt(2), 2))

    def test_meas_atom_subspace(self, std2):
        x = eval_subspace(std2, parse_formula("meas M.1(q2)"))
        expect = lattice_join(
            [Subspace.from_span(np.eye(4)[:, [1]], 4), Subspace.from_span(np.eye(4)[:, [3]], 4)]
        )
        assert subspace_equal(x, expect)

    def test_de_morgan_or(self, std2, rng):
        i2, fs = helpers.bind_atoms(
            std2,
            {
                "A": (("q1", "q2"), helpers.random_subspace(rng, 4)),
                "B": (("q1", "q2"), helpers.random_subspace(rng, 4)),
            },
        )
        lhs = eval_subspace(i2, or_formula(fs["A"], fs["B"]))
        rhs = lattice_join([eval_subspace(i2, fs["A"]), eval_subspace(i2, fs["B"])])
        assert subspace_equal(lhs, rhs)

    def test_sasaki_encoding_matches_lattice(self, std2, rng):
        i2, fs = helpers.bind_atoms(
            std2,
            {
                "A": (("q1", "q2"), helpers.random_subspace(rng, 4)),
                "B": (("q1", "q2"), helpers.random_subspace(rng, 4)),
            },
        )
        lhs = eval_subspace(i2, sasaki_formula(fs["A"], fs["B"]))
        rhs = sasaki_implies(eval_subspace(i2, fs["A"]), eval_subspace(i2, fs["B"]))
        assert subspace_equal(lhs, rhs)


class TestForallClosure:
    def test_identity_generators_fix_everything(self, rng):
        i = helpers.one_qubit_interp(allowed_syms=("I",))
        x = helpers.random_subspace(rng, 2)
        assert subspace_equal(forall_closure(i, ["q"], x), x)

    def test_x_generator_kills_coordinate_line(self):
        i = helpers.one_qubit_interp(allowed_syms=("X",))
        x = Subspace.from_span(np.eye(2)[:, [0]], 2)
        assert forall_closure(i, ["q"], x).rank == 0

    def test_top_is_fixpoint(self):
        i = helpers.one_qubit_interp(allowed_syms=("X",))
        assert forall_closure(i, ["q"], Subspace.full(2)).rank == 2

    def test_missing_generator_sets_error(self):
        from bvn import ConfigurationError, build

        bare = build([("q", 2)], [("H", (2,), [helpers.H], True)],
                     predicates=[("Q", (2,), np.array([[1, 0]]))])
        with pytest.raises(ConfigurationError):
            eval_subspace(bare, Forall(("q",), Atom("Q", identity_term(["q"]))))

    def test_a_quantifier_over_no_variables_is_the_identity(self, std2):
        # no generator set is needed for none of the variables, declared or not
        from bvn import build

        bare = build([("q", 2)], [("H", (2,), [helpers.H], True)],
                     predicates=[("Q", (2,), np.array([[1, 0]]))])
        for i, b in ((bare, Atom("Q", identity_term(["q"]))), (std2, parse_formula("P0(q1)")),
                     (std2, parse_formula("~P(q1,q2)"))):
            assert subspace_equal(eval_subspace(i, Forall((), b)), eval_subspace(i, b))

    def test_closure_shrinks_and_is_monotone(self, std2, rng):
        for _ in range(8):
            x = helpers.random_subspace(rng, 4)
            y = lattice_join([x, helpers.random_subspace(rng, 4)])
            cx = forall_closure(std2, ["q1"], x)
            cy = forall_closure(std2, ["q1"], y)
            assert includes(x, cx)
            assert includes(cy, cx)

    def test_iteration_bound(self, std2, rng, fixture_text):
        trace: list = []
        x = helpers.random_subspace(rng, 4)
        forall_closure(std2, ["q1", "q2"], x, trace=trace)
        assert trace[-1][0] <= 5

    def test_unstable_fixpoint_raises_fixpoint_error(self, std2, monkeypatch):
        import bvn.linalg
        from bvn import BvnError, FixpointError

        monkeypatch.setattr(bvn.linalg, "subspace_equal", lambda *a, **k: False)
        trace: list = []
        with pytest.raises(FixpointError) as exc:
            forall_closure(std2, ["q1"], Subspace.full(4), trace=trace)
        assert isinstance(exc.value, BvnError)
        assert exc.value.ranks == [r for _, r in trace]
        assert len(trace) == 4 + 2
        assert "quantifier" in str(exc.value)

    def test_unitary_generators_match_word_image_meet(self, rng):
        i = helpers.one_qubit_interp(allowed_syms=("H", "Z"))
        from bvn.interp import allowed_generators, embed
        from bvn.linalg import channel_adjoint, channel_image

        for _ in range(6):
            x = helpers.random_subspace(rng, 2)
            trace: list = []
            closure = forall_closure(i, ["q"], x, trace=trace)
            depth = trace[-1][0]
            gens = [embed(i, i.operations[sym].channel, vs)
                    for sym, vs in allowed_generators(i, ["q"])]
            frontier = [x]
            everything = [x]
            for _ in range(depth):
                frontier = [
                    channel_image(channel_adjoint(g), y) for g in gens for y in frontier
                ]
                everything.extend(frontier)
            brute = lattice_meet(everything)
            assert subspace_equal(closure, brute)


class TestSatisfaction:
    def test_example_one(self, std2, fixture_text):
        b = parse_formula(fixture_text("beta.qlf"))
        assert satisfies(std2, StateDensity.pure([1, 0, 0, 0]), b)

    def test_example_one_joint(self, std2, fixture_text):
        b = parse_formula(fixture_text("beta_joint.qlf"))
        assert satisfies(std2, StateDensity.pure([1, 0, 0, 0]), b)

    def test_mixture_of_satisfying_states(self, std2, rng):
        b = parse_formula("P(q1,q2)")
        x = eval_subspace(std2, b)
        states = [helpers.random_state_inside(rng, x) for _ in range(3)]
        mix = StateDensity(sum(m.matrix for m in states) / 3)
        assert satisfies(std2, mix, b)

    def test_plus_fails_zero_line(self, std1):
        rho = StateDensity.pure(np.array([1, 1]) / np.sqrt(2))
        assert not satisfies(std1, rho, parse_formula("S0(q)"))

    def test_zero_state_rejected(self, std1):
        with pytest.raises(InvalidStateError):
            satisfies(std1, StateDensity.zero(2), parse_formula("S0(q)"))

    def test_quantifier_free_coincidence(self, std2, rng):
        b = parse_formula("S_marker(q1)") if False else parse_formula("P0(q1)")
        sigma = helpers.random_state(rng, 2)
        for env in (helpers.random_state(rng, 2), helpers.random_state(rng, 2)):
            rho = StateDensity(np.kron(sigma.matrix, env.matrix))
            assert satisfies(std2, rho, b) == satisfies(
                std2, StateDensity(np.kron(sigma.matrix, np.eye(2) / 2)), b
            )


class TestBornProbability:
    def test_certainty(self, std1):
        assert abs(sat_probability(std1, StateDensity.pure([1, 0]), parse_formula("S0(q)")) - 1) < 1e-12

    def test_half(self, std1):
        rho = StateDensity.pure(np.array([1, 1]) / np.sqrt(2))
        assert abs(sat_probability(std1, rho, parse_formula("S0(q)")) - 0.5) < 1e-12

    def test_top_always_one(self, std1, rng):
        rho = helpers.random_state(rng, 2)
        top = or_formula(parse_formula("S0(q)"), Not(parse_formula("S0(q)")))
        assert abs(sat_probability(std1, rho, top) - 1.0) < 1e-9

    def test_subnormalized_rejected(self, std1):
        with pytest.raises(InvalidStateError):
            sat_probability(std1, StateDensity(np.diag([0.5, 0.0])), parse_formula("S0(q)"))

    def test_wrong_dimension_rejected(self, std1):
        for decide in (sat_probability, satisfies):
            with pytest.raises(DimensionMismatchError, match="state dim 4 != global dimension 2"):
                decide(std1, StateDensity.maximally_mixed(4), parse_formula("S0(q)"))

    def test_one_iff_satisfies(self, std1, rng):
        for _ in range(10):
            rho = helpers.random_state(rng, 2, rank=1)
            b = parse_formula("Splus(q)")
            p = sat_probability(std1, rho, b)
            assert (abs(p - 1.0) < 1e-9) == satisfies(std1, rho, b)
            assert -1e-12 <= p <= 1 + 1e-12


class TestEntailment:
    def test_reflexive(self, std2, fixture_text):
        b = parse_formula("P(q1,q2)")
        assert entails(std2, b, b)

    def test_conjunction_weakening(self, std2):
        b = parse_formula("P0(q1) /\\ P(q1,q2)")
        assert entails(std2, b, parse_formula("P0(q1)"))

    def test_disjoint_lines(self, std1):
        assert not entails(std1, parse_formula("S0(q)"), parse_formula("S1(q)"))


class TestExistsAndRename:
    def test_exists_duality(self, std2, rng):
        i2, fs = helpers.bind_atoms(
            std2, {"A": (("q1", "q2"), helpers.random_subspace(rng, 4))}
        )
        b = exists_formula(("q1",), fs["A"])
        lhs = eval_subspace(i2, b)
        inner = eval_subspace(i2, fs["A"])
        rhs = ortho(forall_closure(i2, ["q1"], ortho(inner)))
        assert subspace_equal(lhs, rhs)

    def test_alpha_equivalent_closures_agree(self, std2):
        # Both closures are zero under H, X, Y, Z.  A closure that is neither
        # zero nor full lies on the legs of its variable, so renaming moves it.
        b = Forall(("q1",), Atom("P0", identity_term(["q1"])))
        renamed = Forall(("q2",), Atom("P0", identity_term(["q2"])))
        assert subspace_equal(eval_subspace(std2, b), eval_subspace(std2, renamed))


class TestNegationClause:
    def test_orthocomplement_matches_literal_reading(self, std2, rng):
        # the satisfaction reading of ~b: orthogonal to every state of b;
        # cross-checked on sampled pure states against the orthocomplement
        for _ in range(12):
            sub = helpers.random_subspace(rng, 4, rank=int(rng.integers(1, 4)))
            i2, fs = helpers.bind_atoms(std2, {"_N": (("q1", "q2"), sub)})
            b = fs["_N"]
            neg = eval_subspace(i2, Not(b))
            rho = helpers.random_state(rng, 4, rank=1)
            holds = includes(neg, support(rho))
            # literal clause: orthogonal to every satisfying state, probed
            # on random states drawn inside the formula's subspace
            witnesses = [helpers.random_state_inside(rng, sub) for _ in range(6)]
            orthogonal = all(
                abs(np.trace(w.matrix @ rho.matrix)) < 1e-9 for w in witnesses
            )
            if holds:
                assert orthogonal
            # spanning probe: orthogonality to a full basis of the subspace
            # decides the literal clause, which must agree exactly
            spanning = all(
                np.linalg.norm(sub.basis[:, k].conj() @ rho.matrix) < 1e-9
                for k in range(sub.rank)
            )
            assert holds == spanning


class TestRuntimeAssertionHelpers:
    def test_big_or_spans(self, std1, rng):
        u = helpers.random_unitary(rng, 2)
        i2, atoms = basis_atoms(std1, ["q"], [u[:, 0], u[:, 1]])
        both = eval_subspace(i2, big_or(atoms))
        assert both.rank == 2
