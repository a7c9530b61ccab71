import numpy as np
import pytest

import helpers
from bvn import (
    BasicTerm,
    ProbSumTerm,
    SeqTerm,
    StateDensity,
    Subspace,
    TensorTerm,
    WellFormednessError,
    identity_term,
    subspace_equal,
    support,
    term_apply,
    term_equiv,
    term_image,
    term_invert,
    term_wf,
    term_wlp,
    includes,
    lattice_meet,
)
from bvn.interp import embed_subspace
from bvn.formulas import formula_wf
from bvn.linalg import channel_equal, choi_matrix
from bvn.hoare import EquationJudgment, ProofStep, check_proof
from bvn.parser import parse_formula, parse_interp, parse_program, parse_term, term_to_text
from bvn.programs import prog_wf
from bvn.terms import _subterms, is_unitary_term, term_channel, term_forward_image, term_vars


EQ1 = "Z(q1) H(q2) C(q1,q2) Y(q1) H(q2)"


class TestWellFormedness:
    def test_eq1_vars(self, std2):
        t = parse_term(EQ1)
        assert term_wf(std2, t) == {"q1", "q2"}

    def test_tensor_overlap_rejected(self, std2):
        t = TensorTerm(parse_term("H(q1)"), parse_term("X(q1)"))
        with pytest.raises(WellFormednessError):
            term_wf(std2, t)

    def test_probsum(self, std2):
        t = parse_term("mix { 0.5: H(q1), 0.5: X(q1) }")
        assert term_wf(std2, t) == {"q1"}

    def test_probsum_weights_above_one(self, std2):
        t = ProbSumTerm(((0.7, parse_term("H(q1)")), (0.5, parse_term("X(q1)"))))
        with pytest.raises(WellFormednessError):
            term_wf(std2, t)

    def test_probsum_mismatched_vars(self, std2):
        t = ProbSumTerm(((0.5, parse_term("H(q1)")), (0.5, parse_term("H(q2)"))))
        with pytest.raises(WellFormednessError):
            term_wf(std2, t)

    def test_unknown_symbol(self, std2):
        with pytest.raises(WellFormednessError):
            term_wf(std2, parse_term("Q(q1)"))

    def test_arity_mismatch(self, std2):
        with pytest.raises(WellFormednessError):
            term_wf(std2, parse_term("C(q1)"))

    def test_sub_probability_allowed(self, std2):
        t = parse_term("mix { 0.25: H(q1), 0.25: X(q1) }")
        assert term_wf(std2, t) == {"q1"}


class TestApply:
    def test_identity(self, std2, rng):
        rho = helpers.random_state(rng, 4)
        out = term_apply(std2, identity_term(["q1", "q2"]), rho)
        assert np.allclose(out.matrix, rho.matrix)

    def test_eq1_preserves_q2_marginal_on_zero_control(self, std2):
        t = parse_term(EQ1)
        for q2_state in (np.array([1, 0]), np.array([1, 1]) / np.sqrt(2)):
            vec = np.kron(np.array([1, 0]), q2_state)
            rho = StateDensity.pure(vec)
            out = term_apply(std2, t, rho)
            before = helpers.partial_trace(rho, [1], [2, 2])
            after = helpers.partial_trace(out, [1], [2, 2])
            assert np.allclose(before.matrix, after.matrix, atol=1e-9)

    def test_probsum_mixes(self, std1):
        t = parse_term("mix { 0.5: I(q), 0.5: X(q) }")
        out = term_apply(std1, t, StateDensity.pure([1, 0]))
        assert np.allclose(out.matrix, np.diag([0.5, 0.5]))

    def test_sub_probability_loses_trace(self, std1):
        t = parse_term("mix { 0.5: I(q) }")
        out = term_apply(std1, t, StateDensity.pure([1, 0]))
        assert abs(out.trace - 0.5) < 1e-12

    def test_measurement_outcome_term(self, std1):
        t = parse_term("M.0(q)")
        out = term_apply(std1, t, StateDensity.pure(np.array([1, 1]) / np.sqrt(2)))
        assert abs(out.trace - 0.5) < 1e-12

    def test_reset_term(self, std1):
        out = term_apply(std1, parse_term("0(q)"), StateDensity.pure([0, 1]))
        assert np.allclose(out.matrix, np.diag([1.0, 0.0]))


class TestImageAndWlp:
    def test_identity_image(self, std2, rng):
        x = helpers.random_subspace(rng, 4, 2)
        assert subspace_equal(term_image(std2, identity_term(["q1"]), x), x)

    def test_unitary_image_is_adjoint(self, std2, rng):
        t = parse_term(EQ1)
        u = term_channel(std2, t).kraus[0]
        x = helpers.random_subspace(rng, 4, 2)
        assert subspace_equal(term_image(std2, t, x), Subspace(4, u.conj().T @ x.basis))

    def test_probsum_image_joins(self, std1):
        t = parse_term("mix { 0.5: I(q), 0.5: X(q) }")
        x = Subspace.from_span(np.eye(2)[:, [0]], 2)
        assert term_image(std1, t, x).rank == 2

    def test_wlp_identity(self, std1, rng):
        x = helpers.random_subspace(rng, 2)
        assert subspace_equal(term_wlp(std1, identity_term(["q"]), x), x)

    def test_wlp_equals_image_for_unitary(self, std2, rng):
        t = parse_term("H(q1) C(q1,q2)")
        for _ in range(10):
            x = helpers.random_subspace(rng, 4)
            assert subspace_equal(term_wlp(std2, t, x), term_image(std2, t, x))

    def test_wlp_of_reset(self, std1):
        zero_slice = embed_subspace(std1, Subspace.from_span(np.eye(2)[:, [0]], 2), ["q"])
        assert term_wlp(std1, parse_term("0(q)"), zero_slice).rank == 2
        one_slice = embed_subspace(std1, Subspace.from_span(np.eye(2)[:, [1]], 2), ["q"])
        assert term_wlp(std1, parse_term("0(q)"), one_slice).rank == 0

    def test_duality(self, std2, rng):
        # support(apply(t, rho)) <= x  iff  support(rho) <= wlp(t, x)
        terms = [
            parse_term("H(q1) C(q1,q2)"),
            parse_term("mix { 0.5: H(q1), 0.5: X(q1) }"),
            parse_term("M.0(q1) H(q2)"),
        ]
        for t in terms:
            for _ in range(8):
                x = helpers.random_subspace(rng, 4)
                w = term_wlp(std2, t, x)
                rho = helpers.random_state(rng, 4)
                out = term_apply(std2, t, rho)
                lhs = out.trace < 1e-12 or includes(x, support(out))
                rhs = includes(w, support(rho))
                assert lhs == rhs
                if w.rank:
                    inside = helpers.random_state_inside(rng, w)
                    out2 = term_apply(std2, t, inside)
                    assert out2.trace < 1e-12 or includes(x, support(out2))

    def test_wlp_meet_preserving_and_monotone(self, std2, rng):
        t = parse_term("mix { 0.5: H(q1), 0.25: X(q1) }")
        for _ in range(8):
            a = helpers.random_subspace(rng, 4)
            b = helpers.random_subspace(rng, 4)
            wa, wb = term_wlp(std2, t, a), term_wlp(std2, t, b)
            meet = term_wlp(std2, t, lattice_meet([a, b]))
            assert subspace_equal(meet, lattice_meet([wa, wb]))
            grown = term_wlp(std2, t, helpers.random_subspace(rng, 4, 4))
            assert grown.rank == 4  # wlp of the full space is everything


class TestForwardImage:
    def test_matches_channel_support(self, std2, rng):
        t = parse_term("mix { 0.5: H(q1) I(q2), 0.5: C(q1,q2) }")
        for _ in range(6):
            x = helpers.random_subspace(rng, 4, int(rng.integers(1, 4)))
            rho = helpers.random_state_inside(rng, x)
            out = term_apply(std2, t, rho)
            img = term_forward_image(std2, t, x)
            assert includes(img, support(out))


class TestInvert:
    def test_basic(self, std2):
        t = term_invert(parse_term("H(q1)"))
        assert t == BasicTerm("H", ("q1",), None, True)

    def test_seq_reverses(self, std2):
        t = term_invert(parse_term("H(q1) C(q1,q2)"))
        assert isinstance(t, SeqTerm)
        assert t.first == BasicTerm("C", ("q1", "q2"), None, True)

    def test_probsum_rejected(self, std2):
        with pytest.raises(WellFormednessError):
            term_invert(parse_term("mix { 0.5: H(q1), 0.5: X(q1) }"))

    def test_measurement_rejected(self, std2):
        with pytest.raises(WellFormednessError):
            term_invert(parse_term("M.0(q1)"))
        with pytest.raises(WellFormednessError):
            term_invert(parse_term("0(q1)"))  # reset

    def test_unitary_roundtrip(self, std2, rng):
        t = parse_term("Z(q1) C(q1,q2) H(q2)")
        rho = helpers.random_state(rng, 4)
        back = term_apply(std2, term_invert(t), term_apply(std2, t, rho))
        assert np.allclose(back.matrix, rho.matrix, atol=1e-9)

    def test_a_term_of_any_length_inverts(self, std2):
        # built from a work stack: 10 000 gates, far past the recursion limit
        t = parse_term(" ".join((["H(q1)", "C(q1,q2)", "Z^-1(q2)"] * 3334)[:10_000]))
        inv = term_invert(t)
        gates = [b for b in _subterms(t) if isinstance(b, BasicTerm)]
        assert len(gates) == 10_000
        assert [b for b in _subterms(inv) if isinstance(b, BasicTerm)] == [
            BasicTerm(b.symbol, b.variables, None, not b.inverse) for b in reversed(gates)]
        assert term_to_text(term_invert(inv)) == term_to_text(t)

    def test_qt6_over_a_long_term_fails_as_a_step(self, std2):
        # the inverse is built; comparing the stated equation with the
        # derived one by == still recurses once per gate
        text = " ".join(["H(q1) C(q1,q2)"] * 5000)
        t = parse_term(text)
        stated = EquationJudgment(SeqTerm(t, term_invert(parse_term(text))),
                                  identity_term(["q1", "q2"]))
        report = check_proof(std2, [ProofStep("s1", stated, "QT6", (), {"term": t})])
        assert not report.ok
        assert report.steps[0].message == "input nests too deeply"

    def test_is_unitary_term(self, std2):
        assert is_unitary_term(std2, parse_term(EQ1))
        assert not is_unitary_term(std2, parse_term("0(q1)"))


class TestEquivalence:
    def test_hh_is_identity(self, std2):
        assert term_equiv(std2, parse_term("H(q1) H(q1)"), parse_term("I(q1)"))

    def test_h_differs_from_x(self, std2):
        assert not term_equiv(std2, parse_term("H(q1)"), parse_term("X(q1)"))

    def test_tensor_equals_seq(self, std2):
        assert term_equiv(std2, parse_term("H(q1) @ X(q2)"), parse_term("H(q1) X(q2)"))
        assert term_equiv(std2, parse_term("H(q1) @ X(q2)"), parse_term("X(q2) H(q1)"))

    def test_tensor_equals_seq_on_states_exactly(self, std2, rng):
        rho = helpers.random_state(rng, 4)
        outs = [
            term_apply(std2, parse_term(t), rho).matrix
            for t in ("H(q1) @ X(q2)", "H(q1) X(q2)", "X(q2) H(q1)")
        ]
        assert np.array_equal(outs[0], outs[1]) or np.allclose(outs[0], outs[1], atol=1e-15)
        assert np.allclose(outs[0], outs[2], atol=1e-15)

    def test_noisy_factorizations(self, fixture_text):
        from bvn.parser import parse_interp

        noisy = parse_interp(fixture_text("noisy.bvn"))
        t1 = parse_term(fixture_text("tau1.qt"))
        t2 = parse_term(fixture_text("tau2.qt"))
        assert term_equiv(noisy, t1, t2)

    def test_different_variable_sets(self, std2):
        assert not term_equiv(std2, parse_term("H(q1)"), parse_term("H(q2)"))


def _random_term(rng, names, depth):
    """A random term on some of ``names``: unitaries and their inverses,
    noisy channels, measurement outcomes, resets, Seq, tensors (with I or
    with a random part) and mixes.  It may break a formation rule: a tensor
    of overlapping parts, mixed branches on different variables, the inverse
    of a noisy channel."""
    q = str(rng.choice(names))
    kind = rng.integers(9 if depth else 5)
    if kind == 0:
        return BasicTerm(str(rng.choice(["H", "X", "Y", "Z"])), (q,), None, rng.random() < 0.3)
    if kind == 1:
        return BasicTerm(str(rng.choice(["Ebf", "Epf"])), (q,), None, rng.random() < 0.05)
    if kind == 2:
        return BasicTerm("M", (q,), int(rng.integers(2)))
    if kind == 3:
        return BasicTerm("0", (q,))
    if kind == 4:
        pair = rng.permutation(names)[:2]
        return BasicTerm("C", tuple(map(str, pair))) if len(pair) == 2 else BasicTerm("I", (q,))
    part = _random_term(rng, names, depth - 1)
    if kind in (5, 6):
        return SeqTerm(part, _random_term(rng, names, depth - 1))
    if kind == 7:
        other = [n for n in names if n not in term_vars(part)]
        right = BasicTerm("I", (str(rng.choice(other)),)) if other and rng.random() < 0.7 else (
            _random_term(rng, names, depth - 1))
        return TensorTerm(part, right)
    weights = rng.dirichlet(np.ones(3))[:int(rng.integers(2, 4))]
    return ProbSumTerm(tuple((float(w), part if rng.random() < 0.8 else
                              _random_term(rng, names, depth - 1)) for w in weights))


def _twin(rng, t):
    """A term equal to t as a channel: t after I or U U^-1, a mix of t with
    itself, or t tensored with I on a variable it leaves alone."""
    q = sorted(term_vars(t))[0]
    kind = rng.integers(4)
    if kind == 0:
        return SeqTerm(t, BasicTerm("I", (q,)))
    if kind == 1:
        u = str(rng.choice(["H", "Y"]))
        return SeqTerm(SeqTerm(BasicTerm(u, (q,)), BasicTerm(u, (q,), None, True)), t)
    if kind == 2:
        return ProbSumTerm(((0.5, t), (0.5, t)))
    free = sorted({"q1", "q2", "q3"} - term_vars(t))
    return TensorTerm(BasicTerm("I", (free[0],)), t) if free else t


def _verdict(equiv, i, t1, t2):
    try:
        return equiv(i, t1, t2)
    except Exception as exc:
        return type(exc)


def _dense_equiv(i, t1, t2):
    joint = sorted(term_vars(t1) | term_vars(t2), key=i.var_index)
    return channel_equal(helpers.dense_term_channel(i, t1, joint),
                         helpers.dense_term_channel(i, t2, joint), i.tol)


class TestChannelAgainstDenseComposition:
    """term_channel reads the Kraus operators off the Choi state that the
    term_apply fold reaches from vec(I); helpers.dense_term_channel embeds
    every operator densely and composes pairwise.  Their Choi matrices agree,
    and so do term_equiv's verdicts and errors."""

    def test_random_terms(self, fixture_text):
        i = parse_interp(fixture_text("noisy.bvn").replace("var q2 : 2", "var q2 : 2\nvar q3 : 2"))
        rng = np.random.default_rng(2718)
        seen = set()
        for _ in range(300):
            names = list(rng.permutation(["q1", "q2", "q3"])[:rng.integers(1, 4)])
            t1 = _random_term(rng, names, 3)
            t2 = _twin(rng, t1) if rng.random() < 0.4 else _random_term(rng, names, 3)
            verdict = _verdict(term_equiv, i, t1, t2)
            assert verdict == _verdict(_dense_equiv, i, t1, t2), (t1, t2)
            seen.add(verdict)
            if isinstance(verdict, bool):
                joint = sorted(term_vars(t1), key=i.var_index)
                got, want = term_channel(i, t1, joint), helpers.dense_term_channel(i, t1, joint)
                assert got.kind == want.kind == ("unitary" if is_unitary_term(i, t1) else "general")
                assert len(got.kraus) <= got.dim ** 2
                assert np.abs(choi_matrix(got) - choi_matrix(want)).max() <= 1e-12, t1
        assert seen == {True, False, WellFormednessError}


class TestCoincidence:
    def test_environment_invisible(self, std2, rng):
        # states agreeing on var(t) produce outputs agreeing there
        t = parse_term("mix { 0.6: H(q1), 0.4: Z(q1) }")
        sigma = helpers.random_state(rng, 2)
        env1 = helpers.random_state(rng, 2)
        env2 = helpers.random_state(rng, 2)
        rho1 = StateDensity(np.kron(sigma.matrix, env1.matrix))
        rho2 = StateDensity(np.kron(sigma.matrix, env2.matrix))
        out1 = helpers.partial_trace(term_apply(std2, t, rho1), [0], [2, 2])
        out2 = helpers.partial_trace(term_apply(std2, t, rho2), [0], [2, 2])
        assert np.allclose(out1.matrix, out2.matrix, atol=1e-9)


class TestMeasurementCheck:
    """Outcome terms, measurement atoms, case statements and loop guards check
    'measurement M on q-bar, with outcome o' alike."""

    INTERP = "\n".join([
        "var q1 : 2", "var q2 : 2",
        "measurement M (2) = { 0: [[1,0],[0,0]], 1: [[0,0],[0,1]] }",
        "measurement N (2) = { 0: [[1,0],[0,0]], 2: [[0,0],[0,1]] }",  # no outcome 1
        "measurement MM (2,2) = { 0: [[1,0,0,0],[0,0,0,0],[0,0,0,0],[0,0,0,0]], "
        "1: [[0,0,0,0],[0,1,0,0],[0,0,1,0],[0,0,0,1]] }",
    ])
    FORMS = {  # construct -> (parse, check, text of measurement {m} on {v}, outcome 1)
        "term": (parse_term, term_wf, "{m}.1({v})"),
        "atom": (parse_formula, formula_wf, "meas {m}.1({v})"),
        "case": (parse_program, prog_wf, "if {m}[{v}] {{ 0 -> skip | 1 -> skip }} fi"),
        "loop": (parse_program, prog_wf, "while {m}[{v}] = 1 do skip od"),
    }

    @pytest.mark.parametrize("form", sorted(FORMS))
    @pytest.mark.parametrize("m, v, message", [
        ("Q", "q1", "unknown measurement symbol 'Q'"),
        ("M", "q1,q2", "measurement 'M' has signature"),
        ("MM", "q1,q1", "repeats a variable"),
        ("N", "q1", "no outcome 1|must cover outcomes|need outcomes"),
    ])
    def test_rejected(self, form, m, v, message):
        i = parse_interp(self.INTERP)
        parse, check, text = self.FORMS[form]
        with pytest.raises(WellFormednessError, match=message):
            check(i, parse(text.format(m=m, v=v)))


def test_term_readings_on_mixes_nested_past_the_stack(std2):
    t = BasicTerm("H", ("q1",))
    for _ in range(3000):
        t = ProbSumTerm(((0.5, t),))
    assert term_wf(std2, t) == {"q1"}  # the check walks from a work stack
    x = Subspace.full(4)
    for call in (lambda: term_apply(std2, t, StateDensity.pure([1, 0, 0, 0])),
                 lambda: term_image(std2, t, x), lambda: term_forward_image(std2, t, x),
                 lambda: term_wlp(std2, t, x), lambda: term_channel(std2, t)):
        with pytest.raises(WellFormednessError, match="^input nests too deeply$"):
            call()
