from dataclasses import replace

import numpy as np
import pytest

import helpers
import bvn.programs
from bvn import (
    BvnError,
    CaseProg,
    ConfigurationError,
    Configuration,
    DimensionMismatchError,
    FixpointError,
    HoareTriple,
    Init,
    SeqProg,
    Skip,
    StateDensity,
    Subspace,
    Tolerances,
    UnitaryAssign,
    WellFormednessError,
    WhileProg,
    eval_subspace,
    includes,
    lattice_join,
    prog_image,
    prog_vars,
    prog_wf,
    prog_wlp,
    representable_probe,
    run,
    step,
    subspace_equal,
    support,
    terminates_probe,
    triple_valid,
    triple_valid_wlp,
)
from bvn.linalg import channel_adjoint, channel_image, channel_wlp, global_kraus
from bvn.interp import PredicateBinding
from bvn.parser import parse_formula, parse_interp, parse_program, parse_term
from bvn.terms import BasicTerm, ProbSumTerm, SeqTerm, identity_term, term_apply, term_vars


def coord(dim, *ks):
    return Subspace.from_span(np.eye(dim)[:, list(ks)], dim)


class TestWellFormedness:
    def test_vars(self, std2):
        s = parse_program("q1 := |0>; q1,q2 := C(q1,q2)")
        assert prog_wf(std2, s) == {"q1", "q2"}
        assert prog_vars(s) == {"q1", "q2"}

    def test_probsum_assignment_rejected(self, std2):
        s = UnitaryAssign(("q1",), parse_term("mix { 0.5: H(q1), 0.5: X(q1) }"))
        with pytest.raises(WellFormednessError):
            prog_wf(std2, s)
        # the noisy extension accepts it behind the flag
        assert prog_wf(std2, s, allow_nonunitary=True) == {"q1"}

    def test_while_needs_binary_outcomes(self):
        import bvn

        three = bvn.build(
            [("q", 3)],
            [],
            [("M3", (3,), [(0, np.diag([1.0, 0, 0])), (1, np.diag([0.0, 1, 0])), (2, np.diag([0.0, 0, 1]))])],
        )
        s = WhileProg("M3", ("q",), Skip())
        with pytest.raises(WellFormednessError):
            prog_wf(three, s)

    def test_case_must_cover_outcomes(self, std1):
        s = CaseProg("M", ("q",), ((0, Skip()),))
        with pytest.raises(WellFormednessError):
            prog_wf(std1, s)

    def test_term_outside_assigned_vars(self, std2):
        s = UnitaryAssign(("q1",), parse_term("C(q1,q2)"))
        with pytest.raises(WellFormednessError):
            prog_wf(std2, s)


class TestStep:
    def test_skip(self, std1, rng):
        rho = helpers.random_state(rng, 2)
        (succ,) = step(std1, Configuration(Skip(), rho))
        assert succ.program is None and np.allclose(succ.state.matrix, rho.matrix)

    def test_if_branches_have_born_weights(self, std1):
        rho = StateDensity.pure(np.array([1, 1]) / np.sqrt(2))
        s = parse_program("if M[q] { 0 -> skip | 1 -> q := X(q) } fi")
        succs = step(std1, Configuration(s, rho))
        assert len(succs) == 2
        assert all(abs(c.state.trace - 0.5) < 1e-12 for c in succs)

    def test_if_preserves_total_trace(self, std1, rng):
        rho = helpers.random_state(rng, 2)
        s = parse_program("if M[q] { 0 -> skip | 1 -> skip } fi")
        succs = step(std1, Configuration(s, rho))
        assert abs(sum(c.state.trace for c in succs) - rho.trace) < 1e-12

    def test_loop_zero_branch_flagged(self, std1):
        s = parse_program("while M[q] = 1 do q := X(q) od")
        succs = step(std1, Configuration(s, StateDensity.pure([0, 1])))
        exit_branch = [c for c in succs if c.via == "L0"][0]
        loop_branch = [c for c in succs if c.via == "L1"][0]
        assert exit_branch.zero_trace and exit_branch.program is None
        assert not loop_branch.zero_trace
        assert isinstance(loop_branch.program, SeqProg)

    def test_terminated_has_no_successors(self, std1):
        with pytest.raises(WellFormednessError):
            step(std1, Configuration(None, StateDensity.pure([1, 0])))

    @pytest.mark.parametrize("text, error", [
        ("while N[q1] = 1 do skip od", WellFormednessError),  # unknown guard symbol
        ("if M[q1] { 0 -> skip | 1 -> skip | 2 -> skip } fi", WellFormednessError),  # no M.2
        ("q1 := H(q2)", WellFormednessError),  # term outside the assigned variables
        ("skip", DimensionMismatchError),  # the state below has the wrong dimension
    ])
    def test_checks_its_configuration(self, fixture_text, text, error):
        i = parse_interp(fixture_text("ex1.bvn"))
        dim = 2 if error is DimensionMismatchError else 4
        with pytest.raises(error):
            step(i, Configuration(parse_program(text), StateDensity.maximally_mixed(dim)))


class TestRun:
    def test_skip_exact(self, std1, rng):
        rho = helpers.random_state(rng, 2)
        res = run(std1, Skip(), rho)
        assert res.status == "exact" and res.residual == 0.0
        assert np.allclose(res.output.matrix, rho.matrix)

    def test_init(self, std1):
        res = run(std1, parse_program("q := |0>"), StateDensity.pure([0, 1]))
        assert np.allclose(res.output.matrix, np.diag([1.0, 0.0]))
        assert res.status == "exact"

    def test_h_loop_truncates_geometrically(self, std1):
        s = parse_program("while M[q] = 1 do q := H(q) od")
        res = run(std1, s, StateDensity.pure([0, 1]), max_steps=100_000, epsilon=1e-9)
        assert res.output.trace >= 1 - 1e-6
        assert res.status == "truncated" or res.residual < 1e-9

    @pytest.mark.parametrize("limits", [
        {"max_steps": -1}, {"epsilon": float("nan")}, {"epsilon": float("inf")},
        {"epsilon": -1e-12}, {"epsilon": 1.0},
    ])
    def test_invalid_limits_rejected(self, std1, limits):
        with pytest.raises(ConfigurationError):
            run(std1, Skip(), StateDensity.pure([1, 0]), **limits)

    def test_zero_limits_accepted(self, std1, monkeypatch):
        # the budget counts iterated loop iterations: skip, a loop whose
        # guard reads 0, and a solved loop need none; mass that an iterated
        # loop would need one for stays unfinished
        res = run(std1, Skip(), StateDensity.pure([1, 0]), max_steps=0, epsilon=0.0)
        assert res.steps == 0 and res.status == "exact"
        s = parse_program("while M[q] = 1 do q := X(q) od")
        res = run(std1, s, StateDensity.pure([1, 0]), max_steps=0, epsilon=0.0)
        assert (res.steps, res.status, res.residual) == (0, "exact", 0.0)
        res = run(std1, s, StateDensity.pure([0, 1]), max_steps=0, epsilon=0.0)
        assert (res.steps, res.status, res.residual, res.diverged) == (0, "exact", 0.0, 0.0)
        assert np.allclose(res.output.matrix, np.diag([1.0, 0.0]), rtol=0, atol=1e-15)
        monkeypatch.setattr(bvn.programs, "_SOLVED_CAP", 0)
        res = run(std1, s, StateDensity.pure([0, 1]), max_steps=0, epsilon=0.0)
        assert (res.steps, res.status, res.residual, res.diverged) == (0, "truncated", 1.0, 0.0)

    def test_step_cap_reports_residual(self, std1, monkeypatch):
        # a solved loop spends none of the budget; an iterated one stops at it
        s = parse_program("while M[q] = 1 do q := H(q) od")
        res = run(std1, s, StateDensity.pure([0, 1]), max_steps=5, epsilon=0.0)
        assert (res.status, res.steps, res.residual) == ("exact", 0, 0.0)
        monkeypatch.setattr(bvn.programs, "_SOLVED_CAP", 0)
        res = run(std1, s, StateDensity.pure([0, 1]), max_steps=5, epsilon=0.0)
        assert res.status == "truncated"
        assert res.residual > 1e-3

    def test_loop_free_equals_composed_channel(self, std2, rng):
        s = parse_program("q1 := H(q1); if M[q2] { 0 -> q1,q2 := C(q1,q2) | 1 -> q2 := X(q2) } fi")
        rho = helpers.random_state(rng, 4)
        res = run(std2, s, rho)
        assert res.status == "exact"
        ch = _brute_channel(std2, s)
        expect = sum(k @ rho.matrix @ k.conj().T for k in ch.kraus)
        assert np.allclose(res.output.matrix, expect, atol=1e-9)


_brute_channel = helpers.brute_channel

_PLUS = np.array([1, 1]) / np.sqrt(2)


_LOOP_RUNS = [
    (1, "while M[q] = 1 do q := X(q) od", [0, 1], 100, 1e-12),
    (1, "while M[q] = 1 do q := H(q) od", [0, 1], 100, 1e-12),
    (1, "while M[q] = 1 do q := H(q) od", [0, 1], 10_000, 1e-9),
    (1, "while M[q] = 1 do skip od", None, 50, 1e-12),
    (2, "while M[q1] = 1 do q1 := X(q1); q2 := H(q2) od", None, 100, 1e-12),
    (2, "while M[q2] = 1 do q1,q2 := C(q1,q2); q2 := H(q2) od", np.kron(_PLUS, [0, 1]), 200, 1e-12),
    # half the mass stays in the loop forever
    (2, "while M[q1] = 1 do if M[q2] { 0 -> q1 := X(q1) | 1 -> skip } fi od",
     np.kron([0, 1], _PLUS), 300, 1e-12),
]


def _pinned_run(std1, std2, qubits, text, state, cap, eps):
    i = std1 if qubits == 1 else std2
    mixed = StateDensity.maximally_mixed(i.total_dim)
    rho = mixed if state is None else StateDensity.pure(state)
    return i, rho, run(i, parse_program(text), rho, max_steps=cap, epsilon=eps)


class TestRunVerdictsPinned:
    """Pinned loop iterations, status, residual and output diagonal of loop
    runs: any change to the fold, the state traces or the leg permutations
    shows here.  Each loop here is solved: it takes no iteration, its
    residual is the mass it keeps forever, and the transition tree
    (``helpers.tree_run``) agrees with it up to the tree's cut."""

    @pytest.mark.parametrize("case, steps, status, residual, diag", [
        (0, 0, "exact", 0.0, [1, 0]),
        (1, 0, "exact", 0.0, [1, 0]),
        (2, 0, "exact", 0.0, [1, 0]),
        (3, 0, "truncated", 0.5, [0.5, 0]),
        (4, 0, "exact", 0.0, [0.5, 0.5, 0, 0]),
        (5, 0, "exact", 0.0, [0.5, 0, 0.5, 0]),
        (6, 0, "truncated", 0.5, [0.5, 0, 0, 0]),
    ])
    def test_loop_run(self, std1, std2, case, steps, status, residual, diag):
        qubits, text, *_ = _LOOP_RUNS[case]
        i, rho, res = _pinned_run(std1, std2, *_LOOP_RUNS[case])
        assert (res.steps, res.status) == (steps, status)
        assert res.residual == pytest.approx(residual, rel=1e-9, abs=1e-15)
        assert res.diverged == res.residual
        assert np.allclose(np.diag(res.output.matrix), diag, rtol=0, atol=1e-12)
        out, cut = helpers.tree_run(i, parse_program(text), rho, 2000, 1e-13)
        assert np.abs(res.output.matrix - out.matrix).max() <= 1e-12
        assert res.residual == pytest.approx(cut, abs=1e-12)

    @pytest.mark.parametrize("case, steps, status, residual, diag", [
        (0, 1, "exact", 0.0, [1, 0]),
        (1, 40, "exact", 9.094947017729225e-13, [0.9999999999990903, 0]),
        (2, 30, "exact", 9.313225746154741e-10, [0.9999999990686772, 0]),
        (3, 1, "truncated", 0.5, [0.5, 0]),
        (4, 1, "exact", 0.0, [0.5, 0.5, 0, 0]),
        (5, 40, "exact", 9.094947017729227e-13, [0.49999999999954525, 0, 0.49999999999954525, 0]),
        (6, 2, "truncated", 0.5, [0.5, 0, 0, 0]),
    ])
    def test_iterated_loop_run(self, std1, std2, monkeypatch, case, steps, status, residual,
                               diag):
        # the same loops iterated, as every loop past the cap is
        monkeypatch.setattr(bvn.programs, "_SOLVED_CAP", 0)
        _, _, res = _pinned_run(std1, std2, *_LOOP_RUNS[case])
        assert (res.steps, res.status) == (steps, status)
        assert res.residual == pytest.approx(residual, rel=1e-9, abs=1e-15)
        assert np.allclose(np.diag(res.output.matrix), diag, rtol=0, atol=1e-12)

    def test_a_loop_past_the_cap_still_iterates(self):
        # four qubits in the loop: d_L^2 = 256 is past the cap, so the loop
        # runs its 40 iterations and sets the last 2^-40 of mass aside
        i = helpers.measured_interp(np.random.default_rng(5), 4)
        s = parse_program("while M[q1] = 1 do q1 := H(q1); q2 := X(q2); q3 := X(q3); "
                          "q4 := Z(q4) od")
        res = run(i, s, StateDensity.pure(np.eye(16)[8]), epsilon=1e-12)
        assert (res.steps, res.status, res.diverged) == (40, "exact", 0.0)
        assert res.residual == pytest.approx(9.094947017729225e-13, rel=1e-9)
        diag = np.diag(res.output.matrix).real
        assert diag[[0, 6]] == pytest.approx([1 / 3, 2 / 3], abs=1e-12)


class TestRunAgainstTree:
    """run's fold against the transition tree walked by ``step``
    (``helpers.tree_run``), and pinned runs of loops the tree cannot
    finish: one whose cases double the tree, and ones with diverging mass."""

    def test_matches_the_tree_where_it_finishes(self):
        rng = np.random.default_rng(20261019)
        compared, seen = 0, set()
        for n in (1, 2, 3):
            i = helpers.one_qubit_interp() if n == 1 else helpers.measured_interp(rng, n)
            for k in range(12):
                s = Skip()
                while not any(isinstance(node, WhileProg) for node in _nodes(s)):
                    s = helpers.random_program(i, rng, i.variables, 3, noisy=n > 1 and k % 2 == 0)
                rho = helpers.random_state(rng, i.total_dim)
                res = run(i, s, rho, max_steps=600, epsilon=1e-13)
                # every channel here preserves the trace: no mass goes missing
                assert res.output.trace + res.residual == pytest.approx(rho.trace, abs=1e-12)
                assert 0 <= res.diverged <= res.residual
                out, residual = helpers.tree_run(i, s, rho, 600, 1e-13)
                if residual >= i.tol.tau_num:
                    continue
                assert res.status == "exact", s
                assert np.abs(res.output.matrix - out.matrix).max() <= i.tol.tau_num, s
                compared += 1
                seen |= {type(node) for node in _nodes(s)}
                seen |= {"nested loop" for node in _nodes(s) if isinstance(node, WhileProg)
                         and any(isinstance(m, WhileProg) for m in _nodes(node.body))}
        assert compared >= 15
        assert {CaseProg, Init, "nested loop"} <= seen

    def test_branching_loop_terminates_exactly(self, fixture_text):
        # the tree doubles at every case; the fold merges the branches
        i = parse_interp(fixture_text("ex1.bvn"))
        s = parse_program("q2 := H(q2); while M[q1] = 1 do q1 := H(q1); "
                          "if M[q2] { 0 -> q2 := H(q2) | 1 -> q2 := H(q2) } fi od")
        res = run(i, s, StateDensity.pure(np.eye(4)[2]))
        assert (res.status, res.steps, res.diverged) == ("exact", 0, 0.0)
        assert res.residual < 1e-12
        assert np.allclose(np.diag(res.output.matrix), [0.5, 0.5, 0, 0], rtol=0, atol=1e-12)

    @pytest.mark.parametrize("qubits, text, state", [
        (1, "while M[q] = 1 do skip od", _PLUS),
        (2, "while M[q1] = 1 do if M[q2] { 0 -> q1 := X(q1) | 1 -> skip } fi od",
         np.kron([0, 1], _PLUS)),
    ])
    def test_half_diverging_loop(self, std1, std2, qubits, text, state):
        i = std1 if qubits == 1 else std2
        res = run(i, parse_program(text), StateDensity.pure(state))
        assert res.status == "truncated"
        assert res.diverged == res.residual == pytest.approx(0.5, abs=1e-15)
        assert res.output.trace == pytest.approx(0.5, abs=1e-15)

    def test_nested_loop_whose_inner_loop_diverges(self, std2, monkeypatch):
        # each outer round sends |+> into the inner loop, which keeps its
        # q2 = 1 half forever: 1/2 + 1/8 + 1/32 + ... = 2/3 diverges.  Both
        # loops iterate here; TestSolvedLoops solves the same program
        monkeypatch.setattr(bvn.programs, "_SOLVED_CAP", 0)
        traps, trap = [], bvn.programs._trap

        def counting(i, loop):
            traps.append(loop)
            return trap(i, loop)

        monkeypatch.setattr(bvn.programs, "_trap", counting)
        s = parse_program("while M[q1] = 1 do q1 := H(q1); q2 := H(q2); "
                          "while M[q2] = 1 do skip od od")
        res = run(std2, s, StateDensity.pure([0, 0, 1, 0]))
        assert res.status == "truncated" and res.steps > 20
        assert res.diverged == pytest.approx(2 / 3, abs=1e-12)
        assert res.residual == pytest.approx(2 / 3, abs=1e-12)
        assert np.allclose(np.diag(res.output.matrix), [1 / 3, 0, 0, 0], rtol=0, atol=1e-12)
        # each loop's trap is computed once, though the inner loop stalls in
        # every outer round
        inner = next(node for node in _nodes(s.body) if isinstance(node, WhileProg))
        assert traps == [s, inner]


def _solved_and_iterated(i, s, rho, monkeypatch, max_steps=100_000, epsilon=1e-12):
    """run of s with its loops solved, and with every loop iterated."""
    solved = run(i, s, rho, max_steps=max_steps, epsilon=epsilon)
    with monkeypatch.context() as m:
        m.setattr(bvn.programs, "_SOLVED_CAP", 0)
        return solved, run(i, s, rho, max_steps=max_steps, epsilon=epsilon)


def _close(a: StateDensity, b, atol: float) -> bool:
    b = b.matrix if isinstance(b, StateDensity) else b
    return bool(np.abs(a.matrix - b).max() <= atol)


class TestSolvedLoops:
    """Loops solved in closed form on their own variables, against the same
    loops iterated (``_SOLVED_CAP`` 0) and the transition tree
    (``helpers.tree_run``): the hard cases of the stop rule, nested and
    noisy loops, and random programs."""

    def test_a_loop_that_exits_only_after_a_full_cycle(self, monkeypatch):
        # S moves |k> to |k+1 mod 4> on (q1, q2) and the guard lets out |11>
        # alone: |00> passes three bodies and exits at the fourth guard
        last = np.diag([0, 0, 0, 1.0])
        i = bvn.build([("q1", 2), ("q2", 2)], [("S", (2, 2), [np.roll(np.eye(4), 1, 0)], True)],
                      [("G", (2, 2), [(0, last), (1, np.eye(4) - last)])])
        s = WhileProg("G", ("q1", "q2"), UnitaryAssign(("q1", "q2"), BasicTerm("S", ("q1", "q2"))))
        for rho in (StateDensity.pure(np.eye(4)[0]), StateDensity.maximally_mixed(4)):
            solved, iterated = _solved_and_iterated(i, s, rho, monkeypatch)
            assert (solved.status, solved.steps, solved.residual) == ("exact", 0, 0.0)
            assert _close(solved.output, rho.trace * last, 1e-15)
            assert _close(solved.output, iterated.output, 1e-15)
            assert _close(solved.output, helpers.tree_run(i, s, rho, 100, 0.0)[0], 1e-15)
        assert iterated.steps == 3  # the mixed state's last part leaves after 3 rounds

    def test_a_trapped_part_that_rotates_with_period_three(self, monkeypatch):
        # S shifts q : 3 and fixes f0 = (|0> + |1> + |2>)/sqrt 3, whose part
        # of q sends p through H each round and drains; the coherences
        # between the other Fourier modes f1, f2 turn by a third of a turn a
        # round and stay with p = 1 forever, so T^(2^m) never settles
        f0 = np.ones(3) / np.sqrt(3)
        i = bvn.build([("q", 3), ("p", 2)],
                      [("S", (3,), [np.roll(np.eye(3), 1, 0)], True), ("H", (2,), [helpers.H], True)],
                      [("M", (2,), [(0, helpers.P0), (1, helpers.P1)]),
                       ("F", (3,), [(0, np.outer(f0, f0)), (1, np.eye(3) - np.outer(f0, f0))])])
        s = parse_program("while M[p] = 1 do q := S(q); "
                          "if F[q] { 0 -> p := H(p) | 1 -> skip } fi od")
        rho = StateDensity.pure(np.kron([1, 0, 0], [0, 1]))
        monkeypatch.setattr(bvn.programs, "_SOLVED_CAP", 36)  # d_L = 6, past the cap
        solved, iterated = _solved_and_iterated(i, s, rho, monkeypatch, epsilon=1e-15)
        assert (solved.status, solved.steps) == ("truncated", 0)
        assert solved.diverged == solved.residual == pytest.approx(2 / 3, abs=1e-12)
        assert _close(solved.output, np.kron(np.outer(f0, f0), helpers.P0) / 3, 1e-12)
        assert _close(solved.output, iterated.output, 1e-12)
        assert abs(solved.diverged - iterated.diverged) <= 1e-12
        tree, cut = helpers.tree_run(i, s, rho, 400, 1e-15)
        assert _close(solved.output, tree, 1e-12) and cut == pytest.approx(2 / 3, abs=1e-12)

    @staticmethod
    def _drain(rate: float):
        # R turns |1> by an angle whose sine squared is rate: each round lets
        # out that share of the guard-1 mass, so T has spectral radius 1 - rate
        c, r = np.sqrt(1 - rate), np.sqrt(rate)
        i = bvn.build([("q", 2)], [("R", (2,), [np.array([[c, -r], [r, c]])], True)],
                      [("M", (2,), [(0, helpers.P0), (1, helpers.P1)])])
        return i, parse_program("while M[q] = 1 do q := R(q) od")

    def test_a_slow_drain(self, monkeypatch):
        # spectral radius 1 - 1e-4: solved, the loop lets it all out, as
        # |0>, within the rounding bound the solve reports; iteration and the
        # tree cut off after a few thousand rounds what would still leave
        i, s = self._drain(1e-4)
        noise = bvn.programs._solve(i, s)[1]
        assert noise < i.tol.tau_num
        for rho in (StateDensity.pure([0, 1]), StateDensity.maximally_mixed(2)):
            solved, iterated = _solved_and_iterated(i, s, rho, monkeypatch, 2000, 0.0)
            assert (solved.status, solved.residual) == ("exact", 0.0)
            assert _close(solved.output, rho.trace * helpers.P0, noise)
            assert iterated.residual > 0.09
            assert _close(solved.output, iterated.output.matrix + iterated.residual * helpers.P0,
                          noise)
            tree, cut = helpers.tree_run(i, s, rho, 4000, 0.0)
            assert _close(solved.output, tree.matrix + cut * helpers.P0, noise)

    @pytest.mark.parametrize("rate", [1e-6, 1e-8, 1e-10])
    def test_a_slower_drain_is_iterated(self, rate, monkeypatch):
        # spectral radius 1 - 1e-6 and slower: the closed form's rounding
        # bound passes tau_num before the loop settles, so the loop is
        # iterated and answers as with no loop solved, cut at its step cap
        i, s = self._drain(rate)
        assert bvn.programs._solve(i, s) is None
        rho = StateDensity.pure([0, 1])
        solved, iterated = _solved_and_iterated(i, s, rho, monkeypatch, 2000)
        assert (solved.status, solved.steps, solved.diverged) == ("truncated", 2000, 0.0)
        assert solved.residual == iterated.residual == pytest.approx((1 - rate) ** 2000, rel=1e-9)
        assert np.array_equal(solved.output.matrix, iterated.output.matrix)
        assert solved.output.trace <= 1

    def test_a_loop_around_an_iterated_loop_is_iterated(self, std2, monkeypatch):
        # the inner slow drain is iterated, so the outer loop is too: its
        # body's channel would otherwise hold the inner loop cut at no steps
        i = bvn.build([("q1", 2), ("q2", 2)],
                      [("H", (2,), [helpers.H], True),
                       ("R", (2,), [np.array([[1, -1e-5], [1e-5, 1]]) / np.sqrt(1 + 1e-10)],
                        True)],
                      [("M", (2,), [(0, helpers.P0), (1, helpers.P1)])])
        s = parse_program("while M[q1] = 1 do q1 := H(q1); "
                          "while M[q2] = 1 do q2 := R(q2) od od")
        assert bvn.programs._solve(i, s) is None
        rho = StateDensity.pure([0, 0, 0, 1])
        res, iterated = _solved_and_iterated(i, s, rho, monkeypatch, 500)
        assert (res.status, res.steps) == ("truncated", 500)
        assert (res.residual, res.diverged) == (iterated.residual, iterated.diverged)
        assert np.array_equal(res.output.matrix, iterated.output.matrix)

    def test_a_nested_loop_whose_inner_loop_keeps_mass(self, std2, monkeypatch):
        # as in TestRunAgainstTree: 2/3 stays in the inner loop.  Solved, the
        # inner loop's kept mass is what the outer loop's channel does not
        # return, and no trap is computed
        s = parse_program("while M[q1] = 1 do q1 := H(q1); q2 := H(q2); "
                          "while M[q2] = 1 do skip od od")
        rho = StateDensity.pure([0, 0, 1, 0])
        solved, iterated = _solved_and_iterated(std2, s, rho, monkeypatch)
        monkeypatch.setattr(bvn.programs, "_trap", None)
        again = run(std2, s, rho)
        assert (again.residual, again.diverged) == (solved.residual, solved.diverged)
        assert (solved.status, solved.steps) == ("truncated", 0)
        assert solved.diverged == solved.residual == pytest.approx(2 / 3, abs=1e-12)
        assert np.allclose(np.diag(solved.output.matrix), [1 / 3, 0, 0, 0], rtol=0, atol=1e-12)
        assert _close(solved.output, iterated.output, 1e-12)
        assert abs(solved.diverged - iterated.diverged) <= 1e-12

    def test_kept_mass_is_the_trace_the_exit_channel_loses(self, std2, monkeypatch):
        # loops that let all their mass out lose no more trace than the cut
        # allows for the Kraus operators' dropped eigenvalues, so they keep
        # nothing, exactly
        rng = np.random.default_rng(36)
        for text in ("while M[q1] = 1 do q1 := X(q1) od", "while M[q1] = 1 do q1 := H(q1) od",
                     "while M[q1] = 1 do q1 := H(q1); while M[q2] = 1 do q2 := X(q2) od od"):
            s = parse_program(text)
            assert bvn.programs._solve(std2, s) is not None
            for rho in (StateDensity.pure([0, 0, 1, 0]), helpers.random_state(rng, 4)):
                res = run(std2, s, rho)
                assert (res.status, res.steps, res.residual, res.diverged) == ("exact", 0, 0.0, 0.0)
        # both loops keep mass: the outer one |10>, which it never changes,
        # the inner one |11>, the flipped |11> that the outer body passes it
        s = parse_program("while M[q1] = 1 do q2,q1 := C(q2,q1); while M[q2] = 1 do skip od od")
        ch, noise = bvn.programs._solve(std2, s)
        rho = helpers.random_state(rng, 4)
        kept = np.trace(np.kron(helpers.P1, np.eye(2)) @ rho.matrix).real
        solved, iterated = _solved_and_iterated(std2, s, rho, monkeypatch, 300, 1e-15)
        assert (solved.status, solved.steps) == ("truncated", 0) and iterated.steps > 0
        assert solved.diverged == solved.residual == pytest.approx(kept, abs=noise)
        assert abs(solved.diverged - iterated.diverged) <= noise
        tree, cut = helpers.tree_run(std2, s, rho, 300, 0.0)
        assert abs(solved.diverged - cut) <= noise
        assert _close(solved.output, tree, noise) and _close(solved.output, iterated.output, noise)

    def test_a_noisy_body(self, monkeypatch):
        # amplitude damping on the guard qubit drains 0.3 of it a round
        i = helpers.measured_interp(np.random.default_rng(3), 2)
        s = parse_program("while M[q1] = 1 do q1 := N(q1); q2 := H(q2) od")
        rho = helpers.random_state(np.random.default_rng(4), 4)
        solved, iterated = _solved_and_iterated(i, s, rho, monkeypatch, epsilon=1e-15)
        assert (solved.status, solved.steps, solved.residual) == ("exact", 0, 0.0)
        assert solved.output.trace == pytest.approx(rho.trace, abs=1e-12)
        assert _close(solved.output, iterated.output, 1e-12)
        tree, cut = helpers.tree_run(i, s, rho, 1000, 1e-15)
        assert cut < 1e-12 and _close(solved.output, tree, 1e-12)

    def test_random_programs_against_iteration_and_the_tree(self, monkeypatch):
        # nested, noisy, diverging and wide loops on 1-4 qubits; where the
        # iteration finishes (nothing cut at its step cap) it agrees with
        # the solved run, and so does the tree where it finishes
        rng = np.random.default_rng(20261021)
        solves, solve = [], bvn.programs._solve
        monkeypatch.setattr(bvn.programs, "_solve", lambda *args: solves.append(solve(*args))
                            or solves[-1])
        compared, trees, paths = 0, 0, []
        for n in (1, 2, 3, 4):
            i = helpers.one_qubit_interp() if n == 1 else helpers.measured_interp(rng, n)
            for k in range(45):
                s = Skip()
                while not any(isinstance(node, WhileProg) for node in bvn.programs._statements(s)):
                    s = helpers.random_program(i, rng, i.variables, 3, noisy=n > 1 and k % 2 == 0)
                rho = helpers.random_state(rng, i.total_dim)
                del solves[:]
                solved = run(i, s, rho, max_steps=300, epsilon=1e-13)
                paths += [x is not None for x in solves]
                with monkeypatch.context() as m:
                    m.setattr(bvn.programs, "_SOLVED_CAP", 0)
                    iterated = run(i, s, rho, max_steps=300, epsilon=1e-13)
                assert 0 <= solved.diverged <= solved.residual
                if iterated.residual - iterated.diverged < 1e-9:
                    assert _close(solved.output, iterated.output, i.tol.tau_num), s
                    assert abs(solved.residual - iterated.residual) <= 1e-9, s
                    assert abs(solved.diverged - iterated.diverged) <= 1e-9, s
                    compared += 1
                if n < 3:
                    tree, cut = helpers.tree_run(i, s, rho, 300, 1e-13)
                    if cut < i.tol.tau_num:
                        assert _close(solved.output, tree, i.tol.tau_num), s
                        trees += 1
        assert compared >= 150 and trees >= 30, (compared, trees)
        assert paths.count(True) >= 50 and paths.count(False) >= 10  # solved, iterated loops


class TestChannelMemo:
    def test_interpretations_keep_their_own_channels(self, rng):
        # the same basic terms denote different embedded channels on two and
        # on three qubits; interleaved runs must each read their own
        i2, i3 = helpers.two_qubit_interp(), helpers.three_qubit_interp()
        programs = [helpers.random_loop_free_program(i3, rng, ["q1", "q2"], 3) for _ in range(12)]
        programs.append(parse_program("q1 := H(q1); if M[q2] { 0 -> q1,q2 := C(q1,q2) "
                                      "| 1 -> q2 := |0> } fi"))
        for s in programs:
            for i in (i2, i3, i2):
                rho = helpers.random_state(rng, i.total_dim)
                ch = _brute_channel(i, s)
                expect = sum(k @ rho.matrix @ k.conj().T for k in ch.kraus)
                assert np.allclose(run(i, s, rho).output.matrix, expect, atol=1e-9)
        assert i2.embedded and i3.embedded
        assert all(ch.dim == 4 for ch in i2.embedded.values())
        assert all(ch.dim == 8 for ch in i3.embedded.values())

    def test_copies_start_empty(self, std2):
        run(std2, parse_program("q1 := H(q1); q2 := |0>"), StateDensity.maximally_mixed(4))
        assert len(std2.embedded) == 2
        for copy in (replace(std2, tol=Tolerances(tau_num=1e-8)), std2.with_predicates({})):
            assert copy.embedded == {} and copy.embedded is not std2.embedded
            run(copy, parse_program("q1 := X(q1)"), StateDensity.maximally_mixed(4))
        assert len(std2.embedded) == 2


class TestFormulaMemo:
    def test_copies_start_empty(self, std2):
        b = parse_formula("P0(q1) /\\ PX(q2)")
        x = eval_subspace(std2, b)
        evaluated = [b.left, b.right, b]  # the formula and its subformulas
        assert list(std2.evaluated) == evaluated and eval_subspace(std2, b) is x
        for copy in (replace(std2, tol=Tolerances(tau_num=1e-8)), std2.with_predicates({})):
            assert copy.evaluated == {} and copy.evaluated is not std2.evaluated
            assert subspace_equal(eval_subspace(copy, b), x, std2.tol)
            assert list(copy.evaluated) == evaluated and copy.evaluated[b] is not x
        assert list(std2.evaluated) == evaluated

    def test_a_replaced_tolerance_gets_its_own_answer(self, std1):
        # Q is about 1e-5 rad from S0: the meet is zero at the default tau_sub
        # and the ray itself at tau_sub = 1e-3, whichever is evaluated first
        tilted = Subspace.from_span(np.array([[1.0], [1e-5]]), 2)
        i = std1.with_predicates({"Q": PredicateBinding("Q", (2,), tilted)})
        loose = replace(i, tol=Tolerances(tau_sub=1e-3))
        b = parse_formula("S0(q) /\\ Q(q)")
        assert [eval_subspace(j, b).rank for j in (i, loose, i, loose)] == [0, 1, 0, 1]


class TestSubspaceTransformers:
    def test_skip(self, std1, rng):
        x = helpers.random_subspace(rng, 2)
        assert subspace_equal(prog_image(std1, Skip(), x), x)
        assert subspace_equal(prog_wlp(std1, Skip(), x), x)

    def test_hadamard_image(self, std1):
        x = coord(2, 0)
        img = prog_image(std1, parse_program("q := H(q)"), x)
        assert subspace_equal(img, Subspace.from_span(np.array([[1, 1]]).T / np.sqrt(2), 2))

    def test_hadamard_wlp(self, std1):
        plus_line = Subspace.from_span(np.array([[1, 1]]).T / np.sqrt(2), 2)
        w = prog_wlp(std1, parse_program("q := H(q)"), plus_line)
        assert subspace_equal(w, coord(2, 0))

    def test_x_loop_image(self, std1):
        s = parse_program("while M[q] = 1 do q := X(q) od")
        assert subspace_equal(prog_image(std1, s, coord(2, 1)), coord(2, 0))

    def test_x_loop_wlp_is_everything(self, std1):
        s = parse_program("while M[q] = 1 do q := X(q) od")
        assert prog_wlp(std1, s, coord(2, 0)).rank == 2

    def test_skip_loop_wlp_is_liberal(self, std1):
        # diverging runs satisfy any postcondition under partial correctness
        s = parse_program("while M[q] = 1 do skip od")
        assert prog_wlp(std1, s, coord(2, 0)).rank == 2
        assert prog_wlp(std1, s, Subspace.zero(2)).rank == 1  # only the diverging line

    def test_loop_free_matches_brute_channel(self, std2, rng):
        s = parse_program(
            "q1 := H(q1); if M[q2] { 0 -> q1,q2 := C(q1,q2) | 1 -> q2 := Z(q2) } fi"
        )
        ch = _brute_channel(std2, s)
        for _ in range(6):
            x = helpers.random_subspace(rng, 4)
            assert subspace_equal(prog_image(std2, s, x), channel_image(ch, x))
            assert subspace_equal(prog_wlp(std2, s, x), channel_wlp(ch, x))

    def test_image_wlp_adjunction_loop_free(self, std2, rng):
        s = parse_program("q1 := H(q1); q1,q2 := C(q1,q2)")
        for _ in range(8):
            x = helpers.random_subspace(rng, 4)
            y = helpers.random_subspace(rng, 4)
            lhs = includes(y, prog_image(std2, s, x))
            rhs = includes(prog_wlp(std2, s, y), x)
            assert lhs == rhs

    def test_loop_adjunction_direction(self, std2, rng):
        # for loops: wlp(s, y) >= x implies image(s, x) <= y
        s = parse_program("while M[q1] = 1 do q1,q2 := C(q1,q2); q1 := X(q1) od")
        for _ in range(8):
            y = helpers.random_subspace(rng, 4)
            w = prog_wlp(std2, s, y)
            x = helpers.random_subspace_inside(rng, w)
            assert includes(y, prog_image(std2, s, x))

    def test_case_joins_and_meets(self, std1, rng):
        s = parse_program("if M[q] { 0 -> q := H(q) | 1 -> skip } fi")
        x = Subspace.full(2)
        assert prog_image(std1, s, x).rank == 2
        assert prog_wlp(std1, s, Subspace.full(2)).rank == 2


def _nodes(s):
    """s and every program node under it."""
    yield s
    for child in (getattr(s, "first", None), getattr(s, "second", None), getattr(s, "body", None)):
        if child is not None:
            yield from _nodes(child)
    for _, branch in getattr(s, "branches", ()):
        yield from _nodes(branch)


def _random_programs(seed, count):
    """(rng, interpretation, program) triples on 2, 3 and 4 qubits, each
    program with a case or a loop; every other program may use the noisy
    channel N."""
    rng = np.random.default_rng(seed)
    for n in (2, 3, 4):
        i = helpers.measured_interp(rng, n)
        for k in range(count):
            s = Skip()
            while not any(isinstance(node, (CaseProg, WhileProg)) for node in _nodes(s)):
                s = helpers.random_program(i, rng, i.variables, 3, noisy=k % 2 == 0)
            yield rng, i, s


class TestDirectSumWlp:
    """The wlp of a case, and of each loop step, is the direct sum of the
    parts ran P_m ^ wlp(...) over the measurement's outcomes; it must equal
    the meet of the outcomes' channel wlps."""

    def test_matches_meet_form(self):
        seen = set()
        for rng, i, s in _random_programs(20261018, 24):
            for node in _nodes(s):
                if isinstance(node, CaseProg):
                    seen.add(("case", len(node.branches)))
                if isinstance(node, WhileProg):
                    inner = list(_nodes(node.body))
                    seen.add(("nested while", any(isinstance(n, WhileProg) for n in inner)))
                    seen.add(("noisy body", any(isinstance(n, UnitaryAssign)
                                                and n.term == BasicTerm("N", n.variables)
                                                for n in inner)))
            d = i.total_dim
            for y in (helpers.random_subspace(rng, d, d - 1),
                      helpers.random_subspace(rng, d, d // 2),
                      coord(d, *range(0, d, 3)), Subspace.zero(d)):
                w = prog_wlp(i, s, y)
                assert subspace_equal(w, helpers.meet_wlp(i, s, y), i.tol), s
        assert {("case", 2), ("case", 4), ("nested while", True), ("noisy body", True)} <= seen

    def test_wlp_verdicts_agree_with_image_verdicts(self):
        verdicts = set()
        for rng, i, s in _random_programs(20261019, 12):
            d = i.total_dim
            post = helpers.random_subspace(rng, d, int(rng.integers(1, d)))
            w = prog_wlp(i, s, post)
            for pre in (helpers.random_subspace_inside(rng, w), helpers.random_subspace(rng, d)):
                if pre.rank == 0:
                    continue
                j, atoms = helpers.bind_atoms(
                    i, {"Pre": (i.variables, pre), "Post": (i.variables, post)})
                t = HoareTriple(atoms["Pre"], s, atoms["Post"])
                try:
                    ok = triple_valid(j, t)[0]
                except WellFormednessError:  # a triple's program must be unitary
                    ok = includes(post, prog_image(i, s, pre))
                    verdicts.add(("noisy", ok))
                    assert includes(w, pre) == ok
                else:
                    verdicts.add(("triple", ok))
                    assert triple_valid_wlp(j, t) == ok
        assert verdicts == {(kind, ok) for kind in ("noisy", "triple") for ok in (True, False)}


def _mix_assignment(i, rng, names):
    """names := mix { w: I(names) word [N(q)], ... } with weights summing to
    1 or 0.8, and now and then one branch that is itself a mix."""
    weights = rng.dirichlet(np.ones(int(rng.integers(2, 4)))) * rng.choice([1.0, 0.8])
    branches = []
    for w in weights:
        t = SeqTerm(identity_term(names), helpers.random_word_term(i, rng, names))
        if rng.random() < 0.5:
            t = SeqTerm(t, BasicTerm("N", (names[rng.integers(len(names))],)))
        if rng.random() < 0.25:
            t = ProbSumTerm(((0.5, t), (0.5, identity_term(names))))
        branches.append((float(w), t))
    return UnitaryAssign(tuple(names), ProbSumTerm(tuple(branches)))


class TestMixAssignment:
    """The wlp of a mix assignment meets its branches' wlps, and its image
    joins their images; around one, in a random noisy program, the two are
    adjoint: a ray x lies in wlp(S, y) exactly when image(S, x) lies in y."""

    def test_wlp_is_adjoint_to_the_image(self, monkeypatch):
        meets = []
        wlp_mix = bvn.programs._Wlp.mix
        monkeypatch.setattr(bvn.programs._Wlp, "mix",
                            lambda walk, parts: meets.append(len(parts)) or wlp_mix(walk, parts))
        rng = np.random.default_rng(20261020)
        verdicts = set()
        for n in (1, 2):
            i = helpers.measured_interp(rng, n)
            names = list(i.variables)
            for k in range(12):
                a = _mix_assignment(i, rng, names)
                body = helpers.random_program(i, rng, names, 2)
                s = [SeqProg(a, body), SeqProg(body, a),
                     WhileProg("M", (names[0],), SeqProg(body, a))][k % 3]
                d = i.total_dim
                x0 = helpers.random_subspace(rng, d, 1)
                other = helpers.random_subspace(rng, d, int(rng.integers(1, d)))
                for y in (lattice_join([prog_image(i, s, x0), other], i.tol), other):
                    w = prog_wlp(i, s, y)
                    rays = [x0, helpers.random_subspace(rng, d, 1)]
                    if w.rank:
                        rays.append(helpers.random_subspace_inside(rng, w, 1))
                    for x in rays:
                        ok = includes(y, prog_image(i, s, x))
                        assert includes(w, x) == ok, s
                        verdicts.add(ok)
        assert verdicts == {True, False} and len(meets) >= 24


class TestRunAgainstDenseFold:
    """run and term_apply act on a state's factor V (rho = V V^dagger), one
    side only.  On random noisy programs with mix assignments, from pure
    inputs and mixed ones of every rank from 2 to full, they agree with the
    dense two-sided fold (``helpers.dense_run``, ``helpers.dense_term_apply``)
    within 1e-12, and with the transition tree (``helpers.tree_run``) up to
    the mass either one set aside.  The dense fold iterates every loop, so
    run does too here; TestSolvedLoops checks the solved loops."""

    def test_factor_run_matches_the_dense_fold_and_the_tree(self, monkeypatch):
        monkeypatch.setattr(bvn.programs, "_SOLVED_CAP", 0)
        rng = np.random.default_rng(20261019)
        seen, trees = set(), 0
        for n in (1, 2, 3, 4):
            i = helpers.measured_interp(rng, n)
            names, d = list(i.variables), i.total_dim
            for k in range(6):
                a = _mix_assignment(i, rng, names)
                body = helpers.random_program(i, rng, names, 3)
                s = [SeqProg(a, body), SeqProg(body, a),
                     WhileProg("M", (names[0],), SeqProg(body, a))][k % 3]
                ranks = sorted({1, 2, (d + 2) // 2, d})
                for rank in ranks:
                    rho = helpers.random_state(rng, d, rank)
                    res = run(i, s, rho, max_steps=300, epsilon=1e-13)
                    out, residual, diverged, steps = helpers.dense_run(i, s, rho, 300, 1e-13)
                    assert np.abs(res.output.matrix - out).max() <= 1e-12, s
                    assert abs(res.residual - residual) <= 1e-12, s
                    assert abs(res.diverged - diverged) <= 1e-12, s
                    assert res.steps == steps, s
                    applied = term_apply(i, a.term, rho).matrix
                    assert np.abs(applied - helpers.dense_term_apply(i, a.term, rho)).max() <= 1e-12
                    seen |= {(rank == 1, rank == d, res.steps > 0)}
                    if rank == d:
                        tree, cut = helpers.tree_run(i, s, rho, 300, 1e-13)
                        bound = 1e-12 + cut + res.residual
                        assert np.abs(res.output.matrix - tree.matrix).max() <= bound, s
                        trees += 1
        # pure, middle-rank and full-rank inputs, through loops that ran
        assert {(True, False, True), (False, False, True), (False, True, True)} <= seen
        assert trees >= 16


class TestTerminatesProbe:
    def test_prog_image_collects_loop_heads_outer_first(self, std2):
        from bvn.programs import _Image

        s = parse_program(
            "while M[q1] = 1 do q1 := X(q1); while M[q2] = 1 do q2 := X(q2) od od")
        x = Subspace.full(4)
        walk = _Image(std2)
        out, loops = walk(s, x), walk.heads
        assert subspace_equal(out, prog_image(std2, s, x))
        assert [loop for loop, _ in loops] == [s, s.body.second]
        assert subspace_equal(loops[0][1], x)
        # the inner head is what the body's flip leaves: q1 = |0>, q2 free
        assert subspace_equal(loops[1][1], Subspace.from_span(np.eye(4)[:, [0, 1]], 4))

    def test_skip(self, std1):
        assert terminates_probe(std1, Skip()).status == "terminates"

    def test_skip_loop_diverges_with_witness(self, std1):
        s = parse_program("while M[q] = 1 do skip od")
        rep = terminates_probe(std1, s)
        assert rep.status == "diverges-witness"
        assert rep.witness is not None and rep.loop == s
        # the witness lies in the guard's 1-range
        assert abs(rep.witness[1]) > 0.9

    def test_h_loop_large_cap_terminates(self, std1):
        # the H loop exits with probability 1/2 per round; the name is kept
        # from when the probe ran a step-capped simulation
        s = parse_program("while M[q] = 1 do q := H(q) od")
        assert terminates_probe(std1, s).status == "terminates"

    def test_nested_unreachable_loop_still_terminates(self, std1):
        # the diverging loop is guarded by a reset, so nothing reaches |1>
        s = parse_program("q := |0>; while M[q] = 1 do skip od")
        rep = terminates_probe(std1, s)
        assert rep.status == "terminates"

    @pytest.mark.parametrize("text, status", [
        ("skip", "terminates"),
        ("while M[q] = 1 do q := X(q) od", "terminates"),
        ("while M[q] = 1 do q := H(q) od", "terminates"),
        ("q := |0>; while M[q] = 1 do skip od", "terminates"),
        ("while M[q] = 1 do skip od", "diverges-witness"),
        ("while M[q] = 1 do q := X(q) od; q := X(q); while M[q] = 1 do skip od",
         "diverges-witness"),
    ])
    def test_decided_without_running(self, std1, monkeypatch, text, status):
        import bvn.programs

        def no_run(*args, **kwargs):
            raise AssertionError("terminates_probe must not simulate")

        monkeypatch.setattr(bvn.programs, "run", no_run)
        assert terminates_probe(std1, parse_program(text)).status == status

    def test_random_loops_against_superoperator_powers(self):
        # while M[g] = 1 do B od terminates from every input iff the
        # superoperator of rho -> B(P1 rho P1) has spectral radius < 1; the
        # oracle squares it 20 times (2^20 rounds).  Every sampled radius is
        # 1 or at most 1 - 1e-3, outside the tolerance band of the decision.
        rng = np.random.default_rng(606)
        seen = set()
        for k in range(120):
            i = helpers.one_qubit_interp() if k % 3 == 0 else helpers.two_qubit_interp()
            names = list(i.variables)
            guard = names[rng.integers(len(names))]
            body = helpers.random_loop_free_program(i, rng, names, 2)
            p1 = helpers.dense_term_channel(i, BasicTerm("M", (guard,), 1)).kraus[0]
            ops = [b @ p1 for b in global_kraus(helpers.brute_channel(i, body))]
            sup = sum(np.kron(a, a.conj()) for a in ops)
            radius = max(abs(np.linalg.eigvals(sup)))
            assert abs(radius - 1) < 1e-9 or radius <= 1 - 1e-3
            for _ in range(20):
                sup = sup @ sup
            drains = np.abs(sup).max() < 1e-6
            status = terminates_probe(i, WhileProg("M", (guard,), body)).status
            assert (status == "terminates") == drains, (guard, body)
            seen.add(status)
        assert seen == {"terminates", "diverges-witness"}


    def test_trap_verdicts_against_trace_preservation(self, monkeypatch):
        # a loop terminates from every input iff its map preserves the
        # trace, E_loop^dagger(I) = I.  The solved map gives that without a
        # threshold of angles (the cap raised to d_L = 8, so 3-qubit loops
        # are solved too); the probe decides through the trap at tau_sub.
        # On these 120 random loops the two agree
        monkeypatch.setattr(bvn.programs, "_SOLVED_CAP", 64)
        rng = np.random.default_rng(20261022)
        interps = {1: helpers.one_qubit_interp(), 2: helpers.measured_interp(rng, 2),
                   3: helpers.measured_interp(rng, 3)}
        verdicts = []
        for k in range(120):
            i = interps[1 + k % 3]
            s = Skip()
            while not isinstance(s, WhileProg):
                s = helpers.random_program(i, rng, i.variables, 3, noisy=k % 3 > 0 and k % 2 == 0)
            kraus = bvn.programs._solve(i, s)[0].kraus
            excess = sum(a.conj().T @ a for a in kraus) - np.eye(len(kraus[0]))
            preserves = bool(np.abs(excess).max() <= i.tol.tau_num)
            verdicts.append((preserves, terminates_probe(i, s).status == "terminates"))
        assert all(p == t for p, t in verdicts)
        assert verdicts.count((True, True)) >= 30 and verdicts.count((False, False)) >= 30


class TestRepresentableProbe:
    def test_hadamard_with_itself(self, std1):
        rep = representable_probe(std1, parse_program("q := H(q)"), parse_term("H(q)"))
        assert rep.status == "represented"
        assert rep.checks == 3  # 2d - 1 rays for d = 2

    def test_reset_refuted(self, std1):
        rep = representable_probe(std1, parse_program("q := |0>"), parse_term("I(q)"))
        assert rep.status == "refuted"
        assert rep.counterexample is not None

    def test_phase_flip_refuted_on_the_diagonal_ray(self, std1):
        # Z fixes both coordinate rays and their plane, but not span(e0 + e1)
        rep = representable_probe(std1, parse_program("q := Z(q)"), parse_term("I(q)"))
        assert rep.status == "refuted"
        assert subspace_equal(rep.counterexample, Subspace.from_span(np.array([[1], [1]]), 2))

    def test_skip_with_identity(self, std1):
        rep = representable_probe(std1, Skip(), parse_term("I(q)"))
        assert rep.status == "represented"

    def test_witness_outside_vars_rejected(self, std2):
        with pytest.raises(WellFormednessError):
            representable_probe(std2, parse_program("q1 := H(q1)"), parse_term("X(q2)"))

    def test_random_programs_against_kraus_operators(self):
        # The probe runs the program after the witness's adjoint action, so
        # the witness represents S iff every nonzero Kraus operator of
        # brute_channel(S) after channel_adjoint(dense_term_channel(w)) is a
        # multiple of I.  Witnesses: S's own word, its reversal (the
        # inverse word: every gate here is self-inverse) and random words.
        rng = np.random.default_rng(607)
        seen = set()
        for k in range(90):
            i = helpers.one_qubit_interp() if k % 3 == 0 else helpers.two_qubit_interp()
            names = list(i.variables)
            if k % 2:
                word = helpers.random_word_term(i, rng, names)
                s = UnitaryAssign(tuple(sorted(term_vars(word), key=i.var_index)), word)
                witness = word if k % 4 == 1 else _reversed_word(word)
            else:
                s = helpers.random_loop_free_program(i, rng, names, 2)
                svars = sorted(prog_vars(s), key=i.var_index) or names
                witness = helpers.random_word_term(i, rng, svars)
            adj = channel_adjoint(helpers.dense_term_channel(i, witness))
            composed = helpers.channel_compose(helpers.brute_channel(i, s), adj)
            ops = [a for a in global_kraus(composed) if np.linalg.norm(a) > 1e-9]
            scalar = bool(ops) and all(
                np.allclose(a, a[0, 0] * np.eye(i.total_dim), atol=1e-9) for a in ops)
            rep = representable_probe(i, s, witness)
            assert (rep.status == "represented") == scalar, (s, witness)
            seen.add(rep.status)
        assert seen == {"represented", "refuted"}


def _reversed_word(t):
    if isinstance(t, SeqTerm):
        return SeqTerm(_reversed_word(t.second), _reversed_word(t.first))
    return t


class TestLoopWlpAgainstPureStateGrid:
    @pytest.mark.parametrize("body", ["q := X(q)", "q := H(q)"])
    def test_one_qubit_loops(self, std1, body):
        # membership in the computed wlp iff the executed output's support
        # lands in the postcondition (runs terminate with tiny residual)
        s = parse_program(f"while M[q] = 1 do {body} od")
        y = coord(2, 0)
        w = prog_wlp(std1, s, y)
        for theta in np.linspace(0, np.pi, 7):
            for phi in np.linspace(0, 2 * np.pi, 7, endpoint=False):
                psi = np.array(
                    [np.cos(theta / 2), np.exp(1j * phi) * np.sin(theta / 2)]
                )
                rho = StateDensity.pure(psi)
                res = run(std1, s, rho, max_steps=20_000, epsilon=1e-14)
                assert res.residual < 1e-9
                lands = res.output.trace < 1e-9 or includes(y, support(res.output))
                assert lands == includes(w, support(rho))

    def test_two_qubit_loop(self, std2, rng):
        s = parse_program("while M[q1] = 1 do q1,q2 := C(q1,q2); q1 := X(q1) od")
        y = helpers.random_subspace(rng, 4, 2)
        w = prog_wlp(std2, s, y)
        for _ in range(40):
            rho = helpers.random_state(rng, 4, rank=1)
            res = run(std2, s, rho, max_steps=20_000, epsilon=1e-14)
            assert res.residual < 1e-9
            lands = res.output.trace < 1e-9 or includes(y, support(res.output))
            assert lands == includes(w, support(rho))


class TestFixpointBounds:
    def test_loop_fixpoints_stabilize_quickly(self, std2, rng):
        s = parse_program("while M[q1] = 1 do q1,q2 := C(q1,q2); q1 := X(q1) od")
        for _ in range(4):
            x = helpers.random_subspace(rng, 4)
            prog_image(std2, s, x)  # raises FixpointError if > dim+1 rounds
            prog_wlp(std2, s, x)


class TestFixpointGuards:
    """A fixpoint that never repeats raises FixpointError, a BvnError that
    carries the rank trace, instead of an AssertionError."""

    LOOP = "while M[q1] = 1 do q1,q2 := C(q1,q2); q1 := X(q1) od"

    @pytest.fixture
    def never_equal(self, monkeypatch):
        import bvn.linalg

        monkeypatch.setattr(bvn.linalg, "subspace_equal", lambda *a, **k: False)

    def _check(self, exc, what, dim):
        assert isinstance(exc.value, BvnError)
        assert what in str(exc.value)
        assert len(exc.value.ranks) == dim + 2
        assert str(exc.value.ranks) in str(exc.value)

    def test_image_fixpoint(self, std2, never_equal):
        x = Subspace.from_span(np.eye(4)[:, [2]], 4)
        with pytest.raises(FixpointError) as exc:
            prog_image(std2, parse_program(self.LOOP), x)
        self._check(exc, "loop image", 4)
        assert exc.value.ranks[0] == 1

    def test_wlp_fixpoint(self, std2, never_equal):
        with pytest.raises(FixpointError) as exc:
            prog_wlp(std2, parse_program(self.LOOP), Subspace.full(4))
        self._check(exc, "loop wlp", 4)
        assert exc.value.ranks[0] == 4

    def test_divergence_fixpoint(self, std2, never_equal):
        from bvn.programs import _trap

        loop = parse_program("while M[q1] = 1 do q1 := H(q1) od")
        with pytest.raises(FixpointError) as exc:
            _trap(std2, loop)
        self._check(exc, "loop wlp", 4)


class TestLongPrograms:
    """The walker threads a sequence without recursion, so a program far
    longer than Python's recursion limit allows a recursive walk still gets
    its answers."""

    def test_a_straight_line_of_self_inverse_gates_reads_as_skip(self, std2):
        s = parse_program("; ".join(["q1 := H(q1)"] * 2000))
        p0 = eval_subspace(std2, parse_formula("P0(q1)"))
        res = run(std2, s, StateDensity.pure([1, 0, 0, 0]))
        assert res.status == "exact"
        assert np.allclose(np.diag(res.output.matrix), [1, 0, 0, 0], rtol=0, atol=1e-9)
        assert subspace_equal(prog_image(std2, s, p0), p0)
        assert subspace_equal(prog_wlp(std2, s, p0), p0)
        t = HoareTriple(parse_formula("P0(q1)"), s, parse_formula("P0(q1)"))
        assert triple_valid(std2, t)[0] and triple_valid_wlp(std2, t)
        assert prog_vars(s) == prog_wf(std2, s) == {"q1"}

    def test_a_loop_with_a_long_body(self, std2, monkeypatch):
        body = "; ".join(["q2 := H(q2)"] * 2000)
        s = parse_program(f"while M[q1] = 1 do {body} od")
        p0 = eval_subspace(std2, parse_formula("P0(q1)"))
        # solved, the kept mass sums the 2000 gates' rounding over the
        # iterations its stop rule needs, within the bound the solve reports
        res = run(std2, s, StateDensity.pure([0, 0, 1, 0]))
        noise = bvn.programs._solve(std2, s)[1]
        assert res.status == "truncated" and noise < 1e-9
        assert res.diverged == res.residual == pytest.approx(1, abs=noise)
        monkeypatch.setattr(bvn.programs, "_SOLVED_CAP", 0)
        res = run(std2, s, StateDensity.pure([0, 0, 1, 0]))
        assert res.status == "truncated"
        assert res.diverged == res.residual == pytest.approx(1, abs=1e-12)
        assert subspace_equal(prog_image(std2, s, p0), p0)
        assert prog_wlp(std2, s, p0).rank == 4  # every run that exits has q1 = 0
        assert terminates_probe(std2, s).status == "diverges-witness"

    def test_cases_nested_past_the_stack_are_a_wellformedness_error(self, std2):
        # prog_wf walks from a work stack and accepts the program; each
        # reading recurses once per case and turns the overflow into the error
        s = Skip()
        for _ in range(3000):
            s = CaseProg("M", ("q1",), ((0, s), (1, Skip())))
        assert prog_wf(std2, s) == {"q1"}
        x = Subspace.full(4)
        for call in (lambda: prog_image(std2, s, x), lambda: prog_wlp(std2, s, x),
                     lambda: run(std2, s, StateDensity.pure([1, 0, 0, 0]))):
            with pytest.raises(WellFormednessError, match="^input nests too deeply$"):
                call()
