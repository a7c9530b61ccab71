from dataclasses import replace
from itertools import permutations

import numpy as np
import pytest

import helpers
from bvn import (
    Channel,
    InterpretationError,
    MeasAtom,
    build,
    embed,
    entails,
    eval_subspace,
    prog_wlp,
    triple_valid,
    triple_valid_wlp,
)
from bvn.config import Tolerances
from bvn.interp import Interpretation, allowed_generators, embed_matrix_on, embed_subspace
from bvn.linalg import (
    Subspace,
    channel_apply,
    channel_equal,
    global_kraus,
    orthonormal_columns,
    subspace_equal,
)
from bvn.parser import (
    interp_to_text,
    parse_formula,
    parse_interp,
    parse_program,
    parse_term,
    parse_triple,
)
from bvn.terms import BasicTerm, _embedded, term_channel


class TestBuild:
    def test_standard_two_qubit(self, std2):
        assert std2.total_dim == 4
        assert list(std2.variables) == ["q1", "q2"]
        assert std2.operations["H"].unitary
        assert list(std2.operations) == ["H", "X", "Y", "Z", "C"]  # no inverse bindings

    def test_projective_measurement_accepted(self, std2):
        m = std2.measurements["M"]
        assert m.outcomes == (0, 1)

    def test_inverse_binding_is_matrix_inverse(self, std2):
        for sym, op in std2.operations.items():
            u = op.channel.kraus[0]
            t = BasicTerm(sym, ("q1", "q2")[:len(op.signature)], None, True)
            inv = _embedded(std2, t)
            assert inv is _embedded(std2, t) and inv.kind == "unitary"
            assert inv.kraus[0].tobytes() == u.conj().T.tobytes()
            assert np.allclose(inv.kraus[0] @ u, np.eye(u.shape[0]), atol=1e-12)

    def test_parse_validates_each_declared_matrix_once(self, monkeypatch, fixture_text):
        validated, calls = Channel.validated, []

        def counting(*args, **kwargs):
            calls.append(args)
            return validated(*args, **kwargs)

        monkeypatch.setattr(Channel, "validated", staticmethod(counting))
        i = parse_interp(fixture_text("ex1.bvn"))
        assert len(calls) == len(i.operations) == 5

    def test_bindings_are_read_only(self):
        h = np.array([[1, 1], [1, -1]], dtype=np.complex128) / np.sqrt(2)
        i = build([("q", 2)], operations=[("H", (2,), [h], True)],
                  measurements=[("M", (2,), [(0, np.diag([1, 0])), (1, np.diag([0, 1]))])],
                  predicates=[("P", (2,), [[1, 0]])])
        bound = (i.operations["H"].channel.kraus[0], i.measurements["M"].projectors[0],
                 i.measurements["M"].ranges[0], i.predicates["P"].subspace.basis)
        for a in bound:
            with pytest.raises(ValueError):
                a[0, 0] = 0
        h[0, 0] = 1  # the caller's own array stays writable

    def test_non_unitary_bound_to_unitary_symbol(self):
        with pytest.raises(InterpretationError):
            build([("q", 2)], [("B", (2,), [np.diag([1.0, 0.5])], True)])

    def test_non_projective_measurement_rejected(self):
        bad = np.array([[0.5, 0.5], [0.5, 0.5]]) @ np.diag([1, 0.5])
        with pytest.raises(InterpretationError):
            build([("q", 2)], [], [("M", (2,), [(0, bad), (1, np.eye(2) - bad)])])

    def test_incomplete_measurement_rejected(self):
        with pytest.raises(InterpretationError):
            build([("q", 2)], [], [("M", (2,), [(0, helpers.P0)])])

    def test_signature_mismatch_rejected(self):
        with pytest.raises(InterpretationError):
            build([("q", 2)], [("G", (2, 2), [helpers.H], True)])

    def test_dimension_cap(self):
        with pytest.raises(InterpretationError):
            build([("q", 2048)], tol=Tolerances())

    def test_allowed_checks_signature(self):
        with pytest.raises(InterpretationError):
            build(
                [("q", 2)],
                [("H", (2,), [helpers.H], True)],
                allowed=[((2, 2), ["H"])],
            )

    def test_predicate_needs_matching_space(self):
        with pytest.raises(InterpretationError):
            build([("q", 2)], predicates=[("P", (2,), np.array([[1, 0, 0]]))])


class TestMeasurementRanges:
    """build splits each outcome's projector once, into its eigenvectors above
    1/2, and every query reads that range: the formula meas M.m(q), the
    outcome's channel and the wlp of a case or loop."""

    @staticmethod
    def _orthonormal(x: Subspace) -> bool:
        return np.abs(x.basis.conj().T @ x.basis - np.eye(x.rank)).max(initial=0.0) <= 1e-12

    def test_a_blurred_two_qubit_measurement_keeps_rank_2_ranges(self):
        i = helpers.blurred_pair_interp()
        e0, e1 = (eval_subspace(i, parse_formula(f"meas E.{o}(q,r)")) for o in (0, 1))
        assert (e0.rank, e1.rank) == (2, 2)
        t = parse_triple("{ meas E.1(q,r) } skip { ~meas E.0(q,r) }")
        assert triple_valid(i, t)[0] and triple_valid_wlp(i, t)
        assert entails(i, parse_formula("meas E.0(q,r) /\\ meas E.1(q,r)"),
                       parse_formula("~meas E.0(q,r)"))
        w = prog_wlp(i, parse_program("if E[q,r] { 0 -> skip | 1 -> skip } fi"), e0)
        assert w.rank == 2 and self._orthonormal(w) and subspace_equal(w, e0)

    def test_a_loose_tau_num_keeps_the_declared_ranges(self):
        i = helpers.blurred_qubit_interp()
        m0 = eval_subspace(i, parse_formula("meas M.0(q)"))
        assert (m0.rank, m0.dim) == (2, 4)
        w = prog_wlp(i, parse_program("if M[q] { 0 -> skip | 1 -> skip } fi"),
                     eval_subspace(i, parse_formula("meas M.0(r)")))
        assert w.rank == 2 and self._orthonormal(w)
        t = parse_triple("{ meas M.1(q) } if M[q] { 0 -> skip | 1 -> q := X(q) } fi "
                         "{ meas M.0(q) }")
        assert triple_valid(i, t)[0] and triple_valid_wlp(i, t)

    def test_tau_rank_moves_no_measurement_range(self, rng):
        exact = helpers.measured_interp(rng, 2)
        atoms = [(exact, MeasAtom(sym, o, names)) for sym, m in exact.measurements.items()
                 for names in permutations(["q1", "q2"], len(m.signature)) for o in m.outcomes]
        blurred = helpers.blurred_pair_interp()
        atoms += [(blurred, MeasAtom("E", o, ("q", "r"))) for o in (0, 1)]
        for m in exact.measurements.values():  # the relative rank cut agrees on these
            for p, ran in zip(m.projectors, m.ranges):
                cut = Subspace(p.shape[0], orthonormal_columns(p, exact.tol))
                assert subspace_equal(Subspace(p.shape[0], ran), cut)
        seen = {}
        for tau_rank in (1e-12, 1e-9, 1e-6, 1e-3):
            for i, b in atoms:
                x = eval_subspace(replace(i, tol=replace(i.tol, tau_rank=tau_rank)), b)
                first = seen.setdefault((id(i), b), x)
                assert x.rank == first.rank and subspace_equal(x, first)
        assert [seen[id(blurred), b].rank for _, b in atoms[-2:]] == [2, 2]

    def test_ranges_that_do_not_tile_are_rejected(self):
        # each passes the projector, orthogonality and completeness checks
        # at tau_num 0.3, but 0.5 is no eigenvalue of a projector
        outcomes = [(0, np.diag([1, 0.5])), (1, np.diag([0, 0.5]))]
        with pytest.raises(InterpretationError, match="do not tile"):
            build([("q", 2)], measurements=[("M", (2,), outcomes)], tol=Tolerances(tau_num=0.3))


class TestGlobalSpace:
    def test_two_qubits(self, std2):
        assert std2.layout == [2, 2]
        assert {n: std2.var_index(n) for n in std2.variables} == {"q1": 0, "q2": 1}

    def test_single_qutrit(self):
        i = build([("q", 3)])
        assert i.layout == [3] and i.total_dim == 3

    def test_mixed_dims(self):
        i = build([("a", 2), ("b", 3), ("c", 2)])
        assert i.layout == [2, 3, 2] and i.total_dim == 12
        assert i.var_index("c") == 2


class TestEmbed:
    def test_hadamard_on_first(self, std2):
        ch = embed(std2, Channel.unitary(helpers.H), ["q1"])
        assert np.allclose(global_kraus(ch)[0], np.kron(helpers.H, np.eye(2)))

    def test_hadamard_on_second(self, std2):
        ch = embed(std2, Channel.unitary(helpers.H), ["q2"])
        assert np.allclose(global_kraus(ch)[0], np.kron(np.eye(2), helpers.H))

    def test_cnot_in_order(self, std2):
        ch = embed(std2, Channel.unitary(helpers.CNOT), ["q1", "q2"])
        assert np.allclose(global_kraus(ch)[0], helpers.CNOT)

    def test_cnot_reversed_is_swap_conjugate(self, std2):
        ch = embed(std2, Channel.unitary(helpers.CNOT), ["q2", "q1"])
        swap = np.eye(4)[[0, 2, 1, 3]]
        assert np.allclose(global_kraus(ch)[0], swap @ helpers.CNOT @ swap)

    def test_middle_factor(self):
        i = build([("a", 2), ("b", 3), ("c", 2)])
        u = helpers.haar_basis(np.random.default_rng(5), 3, 3)
        got = embed_matrix_on(i, u, ["b"], list(i.variables))
        expect = np.kron(np.kron(np.eye(2), u), np.eye(2))
        assert np.allclose(got, expect)

    def test_disjoint_embeds_commute(self, std2, rng):
        e1 = embed(std2, Channel.unitary(helpers.random_unitary(rng, 2)), ["q1"])
        e2 = embed(std2, Channel.unitary(helpers.random_unitary(rng, 2)), ["q2"])
        assert channel_equal(helpers.channel_compose(e1, e2), helpers.channel_compose(e2, e1))

    def test_embed_subspace_permutes(self, std2):
        x = Subspace.from_span(np.array([[0.0, 1.0]]).T, 2)  # span |1> on q2
        wide = embed_subspace(std2, x, ["q2"])
        expect = Subspace.from_span(np.eye(4)[:, [1, 3]], 4)  # q2 = 1 slices
        assert subspace_equal(wide, expect)

    def test_embed_matches_explicit_kron_action(self, std2, rng):
        rho = helpers.random_state(rng, 4)
        ch = embed(std2, Channel.unitary(helpers.H), ["q2"])
        out = channel_apply(ch, rho)
        u = np.kron(np.eye(2), helpers.H)
        assert np.allclose(out.matrix, u @ rho.matrix @ u.conj().T)


class TestGenerators:
    def test_single_qubit_symbols(self, std2):
        gens = allowed_generators(std2, ["q1"])
        assert sorted(gens) == [("H", ("q1",)), ("X", ("q1",)), ("Y", ("q1",)), ("Z", ("q1",))]

    def test_pair_includes_both_orders(self, std2):
        gens = allowed_generators(std2, ["q1", "q2"])
        assert ("C", ("q1", "q2")) in gens and ("C", ("q2", "q1")) in gens

    def test_missing_declaration_errors(self):
        from bvn import ConfigurationError

        i = build([("q", 2)], [("H", (2,), [helpers.H], True)])
        with pytest.raises(ConfigurationError):
            allowed_generators(i, ["q"])

    def test_identity_only_set_is_empty_generator_list(self):
        i = build([("q", 2)], allowed=[((2,), ["I"])])
        assert allowed_generators(i, ["q"]) == []

    def test_only_the_arities_of_declared_signatures_are_tried(self, monkeypatch):
        names = [f"q{k}" for k in range(10)]
        i = build([(q, 2) for q in names],
                  [("X", (2,), [helpers.X], True), ("C", (2, 2), [helpers.CNOT], True)],
                  allowed=[((2,), ["X"]), ((2, 2), ["C"])])
        signature_of, lookups = Interpretation.signature_of, []

        def counting(self, tup):
            lookups.append(tup)
            assert len(lookups) <= 100, "a lookup for a tuple no generator has"
            return signature_of(self, tup)

        monkeypatch.setattr(Interpretation, "signature_of", counting)
        gens = allowed_generators(i, names)
        assert gens == [("X", (q,)) for q in names] + [("C", t) for t in permutations(names, 2)]
        assert len(gens) == 100 and len(lookups) <= 100

    def test_repeated_target_variable_rejected(self, std2):
        target = ["q1", "q1"]
        with pytest.raises(InterpretationError, match="target list .* repeats a variable"):
            term_channel(std2, parse_term("H(q1)"), target)
        with pytest.raises(InterpretationError, match="target list .* repeats a variable"):
            embed_matrix_on(std2, helpers.H, ["q1"], target)


class TestSerialization:
    def test_round_trip_bit_identical(self, std2):
        # rebuilding from the serialized form is deterministic: a second
        # serialize/parse round reproduces every binding bit for bit
        first = parse_interp(interp_to_text(std2))
        second = parse_interp(interp_to_text(first))
        assert list(second.variables.items()) == list(first.variables.items())
        for sym, op in first.operations.items():
            got = second.operations[sym]
            assert got.signature == op.signature
            for a, b in zip(got.channel.kraus, op.channel.kraus):
                assert a.tobytes() == b.tobytes()
        for sym, m in first.measurements.items():
            got = second.measurements[sym]
            assert got.outcomes == m.outcomes
            for a, b in zip(got.projectors, m.projectors):
                assert a.tobytes() == b.tobytes()
        for sym, p in first.predicates.items():
            assert second.predicates[sym].subspace.basis.tobytes() == p.subspace.basis.tobytes()
        assert second.allowed == first.allowed
        assert interp_to_text(second) == interp_to_text(first)

    def test_fixture_file_parses(self, fixture_text):
        i = parse_interp(fixture_text("ex1.bvn"))
        assert i.total_dim == 4
        assert interp_to_text(parse_interp(interp_to_text(i))) == interp_to_text(i)
