import re
from dataclasses import replace

import numpy as np
import pytest

import helpers
import soundness
from bvn import (
    Adjoint,
    And,
    Atom,
    ConfigurationError,
    Forall,
    HoareTriple,
    Not,
    ProofStep,
    RuleError,
    Skip,
    Subspace,
    Tolerances,
    apply_rule,
    build,
    check_proof,
    eval_subspace,
    exists_formula,
    identity_term,
    or_formula,
    subspace_equal,
    triple_valid,
    triple_valid_wlp,
)
from bvn.hoare import (
    PARAM_KINDS,
    RULES,
    EquationJudgment,
    _semantic_check,
    SequentJudgment,
)
from bvn.parser import (
    parse_formula, parse_interp, parse_program, parse_proof, parse_term, parse_triple,
)
from bvn.terms import BasicTerm, SeqTerm


class TestTripleValid:
    def test_hh_identity(self, std2, rng):
        t = parse_triple("{ PX(q1) } q1 := H(q1); q1 := H(q1) { PX(q1) }")
        ok, report = triple_valid(std2, t)
        assert ok and report["witness"] is None
        assert triple_valid_wlp(std2, t)

    def test_top_to_bottom_fails_with_witness(self, std1):
        t = HoareTriple(
            or_formula(parse_formula("S0(q)"), Not(parse_formula("S0(q)"))),
            Skip(),
            And(parse_formula("S0(q)"), Not(parse_formula("S0(q)"))),
        )
        ok, report = triple_valid(std1, t)
        assert not ok
        assert report["witness"] is not None
        assert not triple_valid_wlp(std1, t)

    def test_near_boundary_invalid_triple_has_witness(self, std2):
        # post tilts (e0 + e1)/sqrt2 by 1.2 tau_sub towards e2: each basis
        # column of pre is only 0.85 tau_sub off post, yet pre is not inside.
        tau = std2.tol.tau_sub
        e = np.eye(4)
        plus, minus = (e[:, 0] + e[:, 1]) / np.sqrt(2), (e[:, 0] - e[:, 1]) / np.sqrt(2)
        tilted = np.cos(1.2 * tau) * plus + np.sin(1.2 * tau) * e[:, 2]
        i, fs = helpers.bind_atoms(std2, {
            "A": (("q1", "q2"), Subspace(4, e[:, :2])),
            "B": (("q1", "q2"), Subspace(4, np.column_stack([tilted, minus]))),
        })
        t = HoareTriple(fs["A"], Skip(), fs["B"])
        ok, report = triple_valid(i, t)
        assert not ok and not triple_valid_wlp(i, t)
        w = np.array(report["witness"])
        post = eval_subspace(i, fs["B"])
        assert abs(np.linalg.norm(w) - 1) < 1e-12
        assert np.linalg.norm(w - e[:, :2] @ (e[:, :2].T @ w)) < 1e-12  # in the image
        assert np.linalg.norm(w - post.basis @ (post.basis.conj().T @ w)) > tau

    def test_near_boundary_meet_beside_a_large_angle(self, rng):
        # at tau_sub = 1e-9, A's principal angles off B have sines 1, tau/2,
        # 1.2 tau and 2 tau, so A ^ B is the one line of the tau/2 angle;
        # Haar-random unitaries and bases keep the Gram matrices dense
        tau = 1e-9
        e = np.eye(8)
        tilt = [np.cos(s) * e[:, k] + np.sin(s) * e[:, k + 4]
                for k, s in ((1, tau / 2), (2, 1.2 * tau), (3, 2 * tau))]
        bases = {
            "A": np.column_stack([e[:, 4], *tilt]),
            "B": e[:, :4],
            "Tilted": np.cos(3 * tau) * e[:, 1:2] + np.sin(3 * tau) * e[:, :1],
        }
        i = parse_interp("var q1 : 2\nvar q2 : 2\nvar q3 : 2", tol=Tolerances(tau_sub=tau))
        qs = ("q1", "q2", "q3")
        for _ in range(5):
            u = helpers.random_unitary(rng, 8)
            j, fs = helpers.bind_atoms(i, {
                name: (qs, Subspace(8, u @ b @ helpers.random_unitary(rng, b.shape[1])))
                for name, b in bases.items()
            })
            meet = And(fs["A"], fs["B"])
            assert eval_subspace(j, meet).rank == 1
            assert eval_subspace(j, or_formula(fs["A"], fs["B"])).rank == 7
            valid = HoareTriple(meet, Skip(), fs["B"])
            assert triple_valid(j, valid)[0] and triple_valid_wlp(j, valid)
            t = HoareTriple(meet, Skip(), fs["Tilted"])
            ok, report = triple_valid(j, t)
            assert not ok and not triple_valid_wlp(j, t)
            w = np.array(report["witness"])
            post = eval_subspace(j, fs["Tilted"])
            assert np.linalg.norm(w - post.basis @ (post.basis.conj().T @ w)) > tau

    def test_wlp_examples(self, std1):
        assert triple_valid_wlp(std1, parse_triple("{ S0(q) } q := H(q) { Splus(q) }"))
        assert not triple_valid_wlp(std1, parse_triple("{ S1(q) } q := H(q) { Splus(q) }"))
        top_post = or_formula(parse_formula("S0(q)"), Not(parse_formula("S0(q)")))
        t = HoareTriple(parse_formula("Splus(q)"), parse_program("q := H(q)"), top_post)
        assert triple_valid_wlp(std1, t)

    def test_image_and_wlp_agree(self, std2, rng):
        progs = [
            parse_program("q1 := H(q1)"),
            parse_program("q1 := |0>"),
            parse_program("if M[q2] { 0 -> skip | 1 -> q1 := X(q1) } fi"),
            parse_program("while M[q1] = 1 do q1 := X(q1) od"),
        ]
        for s in progs:
            for _ in range(5):
                i2, fs = helpers.bind_atoms(
                    std2,
                    {
                        "Apre": (("q1", "q2"), helpers.random_subspace(rng, 4)),
                        "Apost": (("q1", "q2"), helpers.random_subspace(rng, 4)),
                    },
                )
                t = HoareTriple(fs["Apre"], s, fs["Apost"])
                ok, _ = triple_valid(i2, t)
                assert ok == triple_valid_wlp(i2, t)


class TestConstructRules:
    def test_ax_sk(self, std1):
        b = parse_formula("S0(q)")
        j = apply_rule(std1, "Ax.Sk", [], {"formula": b})
        assert j == HoareTriple(b, Skip(), b)

    def test_ax_in(self, std1):
        b = parse_formula("S0(q)")
        j = apply_rule(std1, "Ax.In", [], {"formula": b, "var": "q"})
        assert j.pre == Adjoint(BasicTerm("0", ("q",)), b)

    def test_ax_ut_requires_unitary(self, std1):
        with pytest.raises(RuleError):
            apply_rule(
                std1,
                "Ax.UT",
                [],
                {"formula": parse_formula("S0(q)"), "term": parse_term("M.0(q)"), "vars": ("q",)},
            )

    def test_r_sc_mid_mismatch(self, std1):
        b, c = parse_formula("S0(q)"), parse_formula("S1(q)")
        t1 = HoareTriple(b, Skip(), b)
        t2 = HoareTriple(c, Skip(), c)
        with pytest.raises(RuleError):
            apply_rule(std1, "R.SC", [t1, t2], {})

    def test_r_if_builds_guarded_disjunction(self, std1):
        post = parse_formula("S0(q)")
        p0 = HoareTriple(parse_formula("S0(q)"), Skip(), post)
        p1 = HoareTriple(parse_formula("S1(q)"), parse_program("q := X(q)"), post)
        j = apply_rule(std1, "R.IF", [p0, p1], {"meas": "M", "vars": ("q",)})
        ok, _ = triple_valid(std1, j)
        assert ok

    def test_r_lp_shape_checked(self, std1):
        bad = HoareTriple(parse_formula("S0(q)"), Skip(), parse_formula("S0(q)"))
        with pytest.raises(RuleError):
            apply_rule(std1, "R.LP", [bad], {"meas": "M", "vars": ("q",)})

    def test_r_lp_loop(self, std1):
        gamma = parse_formula("S0(q)")
        beta = parse_formula("S1(q)")
        inv = or_formula(
            And(parse_formula("meas M.0(q)"), gamma),
            And(parse_formula("meas M.1(q)"), beta),
        )
        body = parse_program("q := X(q)")
        premise = HoareTriple(beta, body, inv)
        ok, _ = triple_valid(std1, premise)
        assert ok
        j = apply_rule(std1, "R.LP", [premise], {"meas": "M", "vars": ("q",)})
        assert j.post == gamma
        ok2, _ = triple_valid(std1, j)
        assert ok2

    def test_r_con_semantic(self, std1):
        t = HoareTriple(parse_formula("S0(q)"), Skip(), parse_formula("S0(q)"))
        weaker_post = or_formula(parse_formula("S0(q)"), parse_formula("S1(q)"))
        j = apply_rule(
            std1, "R.Con", [t], {"pre": parse_formula("S0(q)"), "post": weaker_post}
        )
        assert j.post == weaker_post

    def test_r_con_false_entailment_diagnostic(self, std1):
        t = HoareTriple(parse_formula("S0(q)"), Skip(), parse_formula("S0(q)"))
        with pytest.raises(RuleError) as err:
            apply_rule(
                std1, "R.Con", [t],
                {"pre": parse_formula("S1(q)"), "post": parse_formula("S0(q)")},
            )
        assert "entailment" in str(err.value)

    def test_r_con_with_sequent_subproofs(self, std1):
        b = parse_formula("S0(q)")
        conj = And(b, parse_formula("Splus(q)"))
        s1 = SequentJudgment((conj,), b)
        t = HoareTriple(b, Skip(), b)
        s2 = SequentJudgment((b,), or_formula(b, parse_formula("S1(q)")))
        j = apply_rule(std1, "R.Con", [s1, t, s2], {})
        assert j.pre == conj


class TestAdaptationRules:
    def test_invariance(self, std2):
        t = HoareTriple(parse_formula("P0(q1)"), parse_program("q1 := H(q1)"),
                        parse_formula("P0(H(q1))"))
        delta = parse_formula("P0(q2)")
        j = apply_rule(std2, "Invariance", [t], {"delta": delta})
        assert j.pre == And(t.pre, delta)
        ok, _ = triple_valid(std2, j)
        assert ok

    def test_invariance_side_condition(self, std2):
        t = HoareTriple(parse_formula("P0(q1)"), parse_program("q1 := H(q1)"),
                        parse_formula("P0(H(q1))"))
        with pytest.raises(RuleError):
            apply_rule(std2, "Invariance", [t], {"delta": parse_formula("P0(q1)")})

    def test_substitution(self, std2):
        t = HoareTriple(parse_formula("P0(q1)"), parse_program("q1 := H(q1)"),
                        parse_formula("P0(H(q1))"))
        tau = parse_term("X(q2)")
        j = apply_rule(std2, "Substitution", [t], {"term": tau})
        assert j.pre == Adjoint(tau, t.pre)
        with pytest.raises(RuleError):
            apply_rule(std2, "Substitution", [t], {"term": parse_term("X(q1)")})

    def test_conjunction_needs_same_program(self, std1):
        a = HoareTriple(parse_formula("S0(q)"), Skip(), parse_formula("S0(q)"))
        b = HoareTriple(parse_formula("S1(q)"), parse_program("q := X(q)"), parse_formula("S0(q)"))
        with pytest.raises(RuleError):
            apply_rule(std1, "Conjunction", [a, b], {})

    def test_disjunction(self, std1):
        post = parse_formula("Splus(q)")
        a = HoareTriple(parse_formula("S0(q)"), parse_program("q := H(q)"), post)
        bpre = parse_formula("S0(q)")
        b = HoareTriple(bpre, parse_program("q := H(q)"), post)
        j = apply_rule(std1, "Disjunction", [a, b], {})
        assert j.pre == or_formula(a.pre, bpre)

    def test_exists_intro_terminating(self, std2):
        t = HoareTriple(parse_formula("P0(q1)"), parse_program("q1 := H(q1)"),
                        parse_formula("P0(H(q1))"))
        j = apply_rule(std2, "Exists-Intro", [t], {"qvars": ("q2",)})
        assert j.pre == exists_formula(("q2",), t.pre)
        assert apply_rule(std2, "Exists-Intro", [t], {"qvars": ("q2",), "max_steps": 5}) == j
        ok, _ = triple_valid(std2, j)
        assert ok

    def test_exists_intro_rejects_diverging(self, std1):
        t = HoareTriple(parse_formula("S1(q)"), parse_program("while M[q] = 1 do skip od"),
                        parse_formula("S0(q)"))
        with pytest.raises(RuleError) as err:
            apply_rule(std1, "Exists-Intro", [t], {"qvars": ()})
        assert "termination" in str(err.value)

    def test_exists_intro_names_the_diverging_loop(self, std2):
        prog = parse_program("while M[q1] = 1 do q1 := X(q1) od; while M[q2] = 1 do skip od")
        t = HoareTriple(parse_formula("P0(q1)"), prog, parse_formula("P0(q1)"))
        with pytest.raises(RuleError, match=r"M\[q2\] = 1"):
            apply_rule(std2, "Exists-Intro", [t], {"qvars": ()})

    def test_hoare_adaptation(self, std2):
        pre = parse_formula("P0(q1)")
        prog = parse_program("q1 := H(q1)")
        post = parse_formula("P0(H(q1))")
        t = HoareTriple(pre, prog, post)
        delta = parse_formula("PX(q1)")
        notes: list = []
        j = apply_rule(
            std2, "Hoare-Adaptation", [t],
            {"delta": delta, "pvars": ("q1",), "witness": parse_term("H(q1)")},
            notes,
        )
        assert any("decided on 2d−1 rays" in n for n in notes)
        ok, _ = triple_valid(std2, j)
        assert ok

    def test_hoare_adaptation_needs_witness(self, std1):
        t = HoareTriple(parse_formula("S1(q)"), parse_program("q := |0>"), parse_formula("S0(q)"))
        with pytest.raises(RuleError):
            apply_rule(
                std1, "Hoare-Adaptation", [t],
                {"delta": parse_formula("S0(q)"), "pvars": ("q",), "witness": parse_term("I(q)")},
            )


def _identity_or_hadamard_cases(word):
    """QQL14 instantiating forall q1 . P0(q1) with ``word``, and
    Hoare-Adaptation on { P0(q1) } skip { P0(q1) } with ``word`` as witness."""
    skip = HoareTriple(parse_formula("P0(q1)"), Skip(), parse_formula("P0(q1)"))
    return [
        ("QQL14", [], {"term": parse_term(word), "qvars": ("q1",),
                       "formula": parse_formula("P0(q1)")}),
        ("Hoare-Adaptation", [skip], {"delta": parse_formula("P0(q1)"), "pvars": ("q1",),
                                      "witness": parse_term(word)}),
    ]


def test_other_words_fail_as_forall_does_without_a_generator_set():
    """Without a generator set over q1 every word fails, an identity word too:
    the conclusion's forall q1 could not be evaluated.  With one, an identity
    word instantiates the quantifier."""
    declared = helpers.two_qubit_interp()
    i = replace(declared, allowed={})
    with pytest.raises(ConfigurationError) as forall:
        eval_subspace(i, parse_formula("forall q1 . P0(q1)"))
    for word in ("I(q1)", "I(q1) I(q1)", "I(q1) H(q1)"):
        for rule, premises, params in _identity_or_hadamard_cases(word):
            with pytest.raises(RuleError) as err:
                apply_rule(i, rule, premises, params)
            assert str(err.value) == f"{rule}: {forall.value}"
    for word in ("I(q1)", "I(q1) I(q1)"):
        for rule, premises, params in _identity_or_hadamard_cases(word):
            j = apply_rule(declared, rule, premises, params)
            if rule == "QQL14":
                assert j == SequentJudgment((parse_formula("forall q1 . P0(q1)"),),
                                            Adjoint(parse_term(word), parse_formula("P0(q1)")))
            else:
                assert j.prog == Skip() and j.post == parse_formula("P0(q1)")


def test_hoare_adaptation_fails_without_a_generator_set_over_the_other_variables():
    """The conclusion's precondition is exists q3 . ...; with generators
    declared over qubits only, the qutrit q3 has none, so the step fails as
    forall q3 would, and does not conclude a judgment that cannot be
    evaluated."""
    i = parse_interp("\n".join([
        "var q1 : 2", "var q3 : 3",
        "unitary H (2) = [[1/sqrt(2), 1/sqrt(2)], [1/sqrt(2), -1/sqrt(2)]]",
        "predicate P0 (2) = span { |0> }", "predicate T0 (3) = span { |0> }",
        "allowed (2) = { H }",
    ]))
    t = parse_triple("{ T0(q3) /\\ adj<H(q1)>(P0(q1)) } q1 := H(q1) { P0(q1) /\\ T0(q3) }")
    assert triple_valid(i, t)[0]
    with pytest.raises(ConfigurationError) as forall:
        eval_subspace(i, parse_formula("forall q3 . T0(q3)"))
    with pytest.raises(RuleError) as err:
        apply_rule(i, "Hoare-Adaptation", [t],
                   {"delta": parse_formula("P0(q1)"), "pvars": ("q1",),
                    "witness": parse_term("H(q1)")})
    assert str(err.value) == f"Hoare-Adaptation: {forall.value}"


class TestSequentRules:
    def test_ql1(self, std1):
        b = parse_formula("S0(q)")
        j = apply_rule(std1, "QL1", [], {"formula": b, "sigma": (parse_formula("S1(q)"),)})
        assert b in j.context and j.conclusion == b

    def test_ql2_cut(self, std1):
        b, c = parse_formula("S0(q)"), parse_formula("S1(q)")
        p1 = SequentJudgment((), b)
        p2 = SequentJudgment((b,), c)
        j = apply_rule(std1, "QL2", [p1, p2], {})
        assert j == SequentJudgment((), c)

    def test_ql3_and_elim(self, std1):
        b, c = parse_formula("S0(q)"), parse_formula("S1(q)")
        j = apply_rule(std1, "QL3", [], {"formula": And(b, c), "pick": "right"})
        assert j.conclusion == c

    def test_ql4_needs_shared_context(self, std1):
        b, c = parse_formula("S0(q)"), parse_formula("S1(q)")
        p1 = SequentJudgment((b,), b)
        p2 = SequentJudgment((c,), c)
        with pytest.raises(RuleError):
            apply_rule(std1, "QL4", [p1, p2], {})

    def test_ql6_refutation(self, std1):
        b, c = parse_formula("S0(q)"), parse_formula("S1(q)")
        p1 = SequentJudgment((b,), c)
        p2 = SequentJudgment((b,), Not(c))
        j = apply_rule(std1, "QL6", [p1, p2], {})
        assert j == SequentJudgment((), Not(b))

    def test_ql10_contraposition(self, std1):
        b, c = parse_formula("S0(q)"), parse_formula("S1(q)")
        j = apply_rule(std1, "QL10", [SequentJudgment((b,), c)], {})
        assert j == SequentJudgment((Not(c),), Not(b))

    def test_ql11_orthomodular_schema(self, std1):
        b, c = parse_formula("S0(q)"), parse_formula("S1(q)")
        j = apply_rule(std1, "QL11", [], {"formula": b, "target": c})
        assert j.conclusion == c
        assert j.context[0] == And(b, Not(And(b, Not(And(b, c)))))


class TestEquationRules:
    def test_refl_sym_trans(self, std1):
        t = parse_term("H(q)")
        e = apply_rule(std1, "QT.Refl", [], {"term": t})
        assert e == EquationJudgment(t, t)
        s = apply_rule(std1, "QT.Sym", [EquationJudgment(t, parse_term("X(q)"))], {})
        assert s.left == parse_term("X(q)")
        tr = apply_rule(
            std1, "QT.Trans",
            [EquationJudgment(t, parse_term("X(q)")), EquationJudgment(parse_term("X(q)"), t)],
            {},
        )
        assert tr == EquationJudgment(t, t)

    def test_qt6_unitary_inverse(self, std1):
        t = parse_term("H(q)")
        e = apply_rule(std1, "QT6", [], {"term": t})
        assert e.left == SeqTerm(t, BasicTerm("H", ("q",), None, True))
        assert e.right == identity_term(["q"])

    def test_qt3_requires_disjoint(self, std2):
        with pytest.raises(RuleError):
            apply_rule(std2, "QT3", [], {"t1": parse_term("H(q1)"), "t2": parse_term("X(q1)")})

    def test_qt1_congruence(self, std1):
        prem = EquationJudgment(parse_term("H(q) H(q)"), parse_term("I(q)"))
        e = apply_rule(std1, "QT1a", [prem], {"term": parse_term("X(q)")})
        assert e.left == SeqTerm(parse_term("X(q)"), prem.left)


class TestFirstOrderRules:
    def test_qql2_semantic_discharge(self, std1):
        j = apply_rule(
            std1, "QQL2", [],
            {"semantic": True, "t1": parse_term("H(q) H(q)"), "t2": parse_term("I(q)"),
             "pred": "S0"},
        )
        assert j.conclusion == Atom("S0", parse_term("I(q)"))

    def test_qql2_semantic_discharge_fails(self, std1):
        with pytest.raises(RuleError):
            apply_rule(
                std1, "QQL2", [],
                {"semantic": True, "t1": parse_term("H(q)"), "t2": parse_term("X(q)"),
                 "pred": "S0"},
            )

    def test_qql5_composition(self, std1):
        t1, t2 = parse_term("H(q)"), parse_term("X(q)")
        b = parse_formula("S0(q)")
        j = apply_rule(std1, "QQL5", [], {"t1": t1, "t2": t2, "formula": b})
        assert j.context[0] == Adjoint(t1, Adjoint(t2, b))
        assert j.conclusion == Adjoint(SeqTerm(t1, t2), b)

    def test_qql8_needs_unitary(self, std1):
        with pytest.raises(RuleError):
            apply_rule(
                std1, "QQL8", [],
                {"term": parse_term("M.0(q)"), "formula": parse_formula("S0(q)")},
            )

    def test_qql11_unitary_transposition(self, std1):
        t = parse_term("H(q)")
        b, c = parse_formula("S0(q)"), parse_formula("S1(q)")
        prem = SequentJudgment((Adjoint(t, b),), c)
        j = apply_rule(std1, "QQL11", [prem], {})
        assert j.context == (b,)
        assert j.conclusion == Adjoint(BasicTerm("H", ("q",), None, True), c)

    def test_qql10_needs_components_that_send_no_state_to_zero(self, std2):
        params = {"t2": parse_term("H(q2)"), "left": parse_formula("PX(q1)"),
                  "right": parse_formula("P0(q2)")}
        apply_rule(std2, "QQL10", [], {**params, "t1": parse_term("X(q1)")})
        with pytest.raises(RuleError, match="QQL10: a tensor component sends some state to zero"):
            apply_rule(std2, "QQL10", [], {**params, "t1": parse_term("M.1(q1)")})

    def test_qql14_instantiation(self, std1):
        b = parse_formula("S0(q)")
        j = apply_rule(
            std1, "QQL14", [],
            {"qvars": ("q",), "formula": b, "term": parse_term("X(q)")},
        )
        assert j.conclusion == Adjoint(parse_term("X(q)"), b)
        assert Forall(("q",), b) in j.context

    def test_qql14_instantiates_generator_words_only(self, std1):
        b = parse_formula("S0(q)")  # std1 allows H and X on q
        for text in ("X^-1(q) H(q)", "I(q)", "mix { 0.5: H(q), 0.5: X(q) }"):
            apply_rule(std1, "QQL14", [], {"qvars": ("q",), "formula": b, "term": parse_term(text)})
        for text in ("Z(q)", "H(q) Z^-1(q)", "0(q)", "M.1(q)"):
            with pytest.raises(RuleError, match="QQL14: the instantiating term .* not an allowed"):
                apply_rule(std1, "QQL14", [], {"qvars": ("q",), "formula": b,
                                               "term": parse_term(text)})

    def test_qql14_variable_condition(self, std2):
        with pytest.raises(RuleError):
            apply_rule(
                std2, "QQL14", [],
                {"qvars": ("q2",), "formula": parse_formula("P0(q1)"),
                 "term": parse_term("X(q1)")},
            )

    def test_qql15_generalization(self, std2):
        b = parse_formula("P0(q1)")
        j = apply_rule(std2, "QQL15", [SequentJudgment((), b)], {"qvars": ("q2",)})
        assert j.conclusion == Forall(("q2",), b)

    def test_qql15_side_condition(self, std2):
        b = parse_formula("P0(q1)")
        ctx = (parse_formula("P0(q2)"),)
        with pytest.raises(RuleError):
            apply_rule(std2, "QQL15", [SequentJudgment(ctx, b)], {"qvars": ("q1",)})


class TestCheckProof:
    def test_hh_script(self, std2, fixture_text):
        steps = parse_proof(fixture_text("hh_proof.qpf"))
        report = check_proof(std2, steps, semantic_cross_check=True)
        assert report.ok
        assert all(s.cross_check for s in report.steps)
        final = steps[-1].judgment
        assert subspace_equal(
            eval_subspace(std2, final.pre), eval_subspace(std2, parse_formula("PX(q1)"))
        )

    def test_consequence_script_with_subproofs(self, std2, fixture_text):
        # R.Con discharged by explicit sequent steps, one of them a
        # semantically justified equation (HH = I in this interpretation)
        script = parse_proof(fixture_text("con_proof.qpf"))
        report = check_proof(std2, script, semantic_cross_check=True)
        assert report.ok
        assert [s.rule for s in report.steps] == ["Ax.Sk", "QL1", "QQL2", "R.Con"]

    def test_equation_and_first_order_script(self, std2, fixture_text):
        script = parse_proof(fixture_text("ql_proof.qpf"))
        report = check_proof(std2, script, semantic_cross_check=True)
        assert report.ok
        rules = {s.rule for s in report.steps}
        assert {"QT.Refl", "QT1a", "QT6", "QQL3", "QQL14", "QL1", "QL4"} <= rules

    def test_forward_reference_rejected(self, std1):
        b = parse_formula("S0(q)")
        steps = [
            ProofStep("a", HoareTriple(b, Skip(), b), "R.SC", ("zz",), {}),
        ]
        report = check_proof(std1, steps)
        assert not report.ok and report.first_failure == "a"
        assert "earlier steps" in report.steps[0].message

    def test_wrong_stated_judgment(self, std1):
        b, c = parse_formula("S0(q)"), parse_formula("S1(q)")
        steps = [
            ProofStep("a", HoareTriple(b, Skip(), c), "Ax.Sk", (), {"formula": b}),
        ]
        report = check_proof(std1, steps)
        assert not report.ok
        assert "differs" in report.steps[0].message

    def test_sequent_context_order_insensitive(self, std1):
        b, c = parse_formula("S0(q)"), parse_formula("S1(q)")
        j1 = SequentJudgment((b, c), b)
        j2 = SequentJudgment((c, b), b)
        assert j1 == j2 and j1.context == j2.context

    def test_failed_side_condition_pinpointed(self, std2):
        post = parse_formula("P0(q1)")
        good = HoareTriple(Adjoint(parse_term("H(q1)"), post), parse_program("q1 := H(q1)"), post)
        framed = HoareTriple(And(good.pre, post), good.prog, And(post, post))
        steps = [
            ProofStep("one", good, "Ax.UT",
                      (), {"formula": post, "term": parse_term("H(q1)"), "vars": ("q1",)}),
            ProofStep("two", framed, "Invariance", ("one",), {"delta": post}),
        ]
        report = check_proof(std2, steps)
        assert not report.ok and report.first_failure == "two"
        assert report.steps[0].ok
        assert "program variables" in report.steps[1].message


def _random_std2(seed: int = 20240811):
    """std2's two qubits and guard M with Haar-random gates U, V (one qubit)
    and W (two qubits), and random predicates A(q1), B(q2), P(q1,q2)."""
    rng = np.random.default_rng(seed)
    return build(
        variables=[("q1", 2), ("q2", 2)],
        operations=[
            ("U", (2,), [helpers.random_unitary(rng, 2)], True),
            ("V", (2,), [helpers.random_unitary(rng, 2)], True),
            ("W", (2, 2), [helpers.random_unitary(rng, 4)], True),
        ],
        measurements=[("M", (2,), [(0, helpers.P0), (1, helpers.P1)])],
        predicates=[
            ("A", (2,), helpers.random_subspace(rng, 2, 1)),
            ("B", (2,), helpers.random_subspace(rng, 2, 1)),
            ("P", (2, 2), helpers.random_subspace(rng, 4, 2)),
        ],
        allowed=[((2,), ["U", "V"]), ((2, 2), ["W"])],
    )


def _directed_params():
    t, f = parse_term, parse_formula
    return {
        "QT5": {"t1": t("U(q1)"), "t2": t("W(q1,q2)"), "t3": t("V(q2)")},
        "QQL5": {"t1": t("U(q1)"), "t2": t("W(q1,q2)"), "formula": f("P(q1,q2)")},
        "QQL7": {"t1": t("U(q1)"), "t2": t("W(q1,q2)"), "pred": "P"},
        "QQL8": {"term": t("W(q1,q2)"), "formula": f("P(q1,q2)")},
        "QQL9": {"term": t("W(q1,q2)"), "left": f("A(q1)"), "right": f("P(q1,q2)")},
        "QQL10": {"t1": t("U(q1)"), "t2": t("V(q2)"), "left": f("A(q1)"), "right": f("B(q2)")},
        "QQL13": {"term": t("U(q1)"), "qvars": ("q2",), "formula": f("P(q1,q2)")},
    }


DIRECTED = sorted(_directed_params())


class TestDirectedRules:
    """QT5 and QQL5/7/8/9/10/13 read an equivalence either way round."""

    @pytest.mark.parametrize("direction", ["lr", "rl"])
    @pytest.mark.parametrize("rule", DIRECTED)
    def test_rl_mirrors_lr_and_both_are_sound(self, rule, direction):
        i = _random_std2()
        params = _directed_params()[rule]
        lr = apply_rule(i, rule, [], params)
        assert apply_rule(i, rule, [], {**params, "direction": "lr"}) == lr
        j = apply_rule(i, rule, [], {**params, "direction": direction})
        if direction == "rl":
            if isinstance(lr, EquationJudgment):
                assert j == EquationJudgment(lr.right, lr.left)
            else:
                assert j == SequentJudgment((lr.conclusion,), lr.context[0])
        assert _semantic_check(i, j)

    @pytest.mark.parametrize("rule", DIRECTED)
    def test_unknown_direction_rejected(self, rule):
        params = {**_directed_params()[rule], "direction": "sideways"}
        with pytest.raises(RuleError, match="direction must be one of lr, rl, got 'sideways'"):
            apply_rule(_random_std2(), rule, [], params)


class TestKeywordParameters:
    @pytest.mark.parametrize("rule, key, allowed, params", [
        ("QT4", "form", "left, right",
         {"term": parse_term("U(q1)"), "identity": parse_term("I(q1)")}),
        ("QT6", "form", "right, left", {"term": parse_term("U(q1)")}),
        ("QL3", "pick", "left, right", {"formula": parse_formula("A(q1) /\\ B(q2)")}),
        ("QT3", "form", "tensor-seq, tensor-seq-comm, seq-comm",
         {"t1": parse_term("U(q1)"), "t2": parse_term("V(q2)")}),
    ])
    def test_unknown_word_rejected(self, rule, key, allowed, params):
        i = _random_std2()
        with pytest.raises(RuleError, match=f"{rule}: {key} must be one of {allowed}, got 'up'"):
            apply_rule(i, rule, [], {**params, key: "up"})
        for word in allowed.split(", "):
            apply_rule(i, rule, [], {**params, key: word})


class TestSemanticCheckTolerance:
    @staticmethod
    def _phases(tol):
        """Identity P and a phase gate Q = diag(1, e^{i 1e-8}) on one qubit."""
        return build(variables=[("q", 2)], tol=tol, operations=[
            ("P", (2,), [np.eye(2)], True),
            ("Q", (2,), [np.diag([1.0, np.exp(1e-8j)])], True)])

    def test_rule_discharge_decided_at_the_check_tolerance(self):
        i = build(variables=[("q", 2)], predicates=[("S0", (2,), [[1, 0]])], operations=[
            ("P", (2,), [np.eye(2)], True),
            ("Q", (2,), [np.diag([1.0, 1.0 + 1e-8j])], True)])
        script = parse_proof("step s1 by QQL2 with semantic = true; t1 = P(q); t2 = Q(q); "
                             "pred = S0\n  shows sequent S0(P(q)) |- S0(Q(q))")
        assert not check_proof(i, script).ok
        report = check_proof(replace(i, tol=Tolerances(tau_num=1e-6)), script)
        assert report.ok, report.steps[0].message

    def test_equation_decided_at_the_given_tolerance(self):
        eq = EquationJudgment(parse_term("P(q)"), parse_term("Q(q)"))
        loose, tight = Tolerances(tau_num=1e-6), Tolerances(tau_num=1e-9)
        assert _semantic_check(replace(self._phases(tight), tol=loose), eq)
        assert not _semantic_check(replace(self._phases(loose), tol=tight), eq)


class TestRuleTable:
    """Premise kinds and parameters are checked in one place for every rule
    in ``RULES``, so a rule added to the table is covered here too."""

    KINDS = ("", "s", "e", "t", "ss", "ee", "tt", "st", "sts", "eee", "ttt")
    PREMISE = {
        "s": SequentJudgment((parse_formula("A(q1)"),), parse_formula("A(q1)")),
        "e": EquationJudgment(parse_term("U(q1)"), parse_term("U(q1)")),
        "t": HoareTriple(parse_formula("A(q1)"), Skip(), parse_formula("A(q1)")),
    }
    VALUE = {
        "formula": parse_formula("A(q1)"), "term": parse_term("U(q1)"), "vars": ("q1",),
        "var": "q1", "weights": [1.0], "flag": True, "formulas": (), "int": 3,
    }
    ILL_FORMED = {
        "formula": (parse_formula("NOPE(q1)"),), "term": (parse_term("U(q9)"),),
        "vars": (("q9",), ("q1", "q1")), "var": ("q9",), "formulas": ((parse_formula("A(q9)"),),),
    }

    @classmethod
    def _value(cls, rule, key):
        kind = PARAM_KINDS[key]
        if kind == "name":
            return {"pred": "A", "meas": "M"}[key]
        return rule.optional[key][0] if kind == "word" else cls.VALUE[kind]

    def _call(self, name, kinds, params):
        premises = [self.PREMISE[k] for k in kinds]
        with pytest.raises(RuleError) as err:
            apply_rule(_random_std2(), name, premises, params)
        assert str(err.value).startswith(f"{name}: "), str(err.value)
        return str(err.value)

    @pytest.mark.parametrize("name", sorted(RULES))
    def test_wrong_premises_missing_unknown_and_ill_formed_parameters(self, name):
        rule = RULES[name]
        fits = [k for k in self.KINDS if re.fullmatch(rule.shape, k)]
        assert fits, f"no sample premise list fits {rule.shape!r}"
        params = {k: self._value(rule, k) for k in rule.required}
        for kinds in set(self.KINDS) - set(fits):
            assert "premise kinds" in self._call(name, kinds, params)
        for key in rule.required:
            rest = {k: v for k, v in params.items() if k != key}
            assert f"missing parameter {key!r}" in self._call(name, fits[0], rest)
        other = sorted(PARAM_KINDS.keys() - set(rule.required) - rule.optional.keys())[0]
        assert f"takes no parameter {other!r}" in self._call(name, fits[0], {**params, other: 1})
        for key in [*rule.required, *rule.optional]:
            for bad in self.ILL_FORMED.get(PARAM_KINDS[key], ()):
                message = self._call(name, fits[0], {**params, key: bad})
                assert message.startswith(f"{name}: parameter {key!r}: ")

    def test_every_declared_parameter_has_a_kind_and_every_kind_a_rule(self):
        declared = {k for rule in RULES.values() for k in (*rule.required, *rule.optional)}
        assert declared == set(PARAM_KINDS)


# ---------------------------------------------------------------------------
# soundness: one row of soundness.ROWS per rule, valid conclusions only
# ---------------------------------------------------------------------------


def test_every_rule_has_a_soundness_row():
    assert set(RULES) - set(soundness.ROWS) == set(), "rules without a row"
    assert set(soundness.ROWS) - set(RULES) == set(), "rows that name no rule"


@pytest.mark.parametrize("rule", sorted(soundness.ROWS))
def test_rule_concludes_only_valid_judgments(rule):
    soundness.check_row(rule, soundness.DRAWS[rule], 4400)
