"""Which kernels a query runs, and how often.

On 8 qubits (dim 256) a rank-128 precondition goes through a CNOT chain, a
case on a measurement and a guard loop, checked by image and by wlp.  The
lattice decisions work on the r2 x r2 Gram matrix of one basis's residual
off the other, so no 256 x 256 matrix is factored and no complete QR of the
whole space is taken; when the residual is within tau_sub, one subspace
lies in the other and nothing is factored at all.
A channel action drops each leg it added on which its result is still the
whole space, so the rank-128 image stays on the three legs it constrains,
and an entangled result keeps its legs at no factorization.
The wlp of the case, and of each loop step, is a direct sum of parts on the
measurement's ranges: no meet, so no 192 x 192 principal-angle matrix of a
rank-192 loop iterate against the rank-192 exit part.

The channel of each basic term is embedded once per interpretation: a run
of any length, and every step of a loop fixpoint, read the same channels.
Each formula's subspace is evaluated once per interpretation, too, and the
loop and case wlps read their outcomes' ranges as such formulas, from the
bases that ``interp.build`` split off each projector once.  Each
public query checks its inputs once, at its entry, and the CLI's ``verify``
checks its triple once for both of its checks.  Repeated ``cli.main`` calls
parse an interpretation file once per text and tolerances, and a query
source once per kind and text.
"""

import dataclasses
import json
import sys

import numpy as np
import pytest

import bvn.cli
import bvn.formulas
import bvn.hoare
import bvn.interp
import bvn.linalg
import bvn.parser
import bvn.programs
import bvn.terms
import helpers
from bvn import (
    MeasAtom,
    StateDensity,
    Subspace,
    check_proof,
    eval_subspace,
    prog_image,
    prog_wlp,
    run,
    triple_valid,
    triple_valid_wlp,
)
from bvn.parser import (parse_formula, parse_interp, parse_program, parse_proof, parse_term,
                        parse_triple)

QUBITS = [f"q{k}" for k in range(1, 9)]
INTERP = "\n".join([f"var {q} : 2" for q in QUBITS] + [
    "unitary X (2) = [[0, 1], [1, 0]]",
    "unitary C (2,2) = [[1,0,0,0],[0,1,0,0],[0,0,0,1],[0,0,1,0]]",
    "measurement M (2) = { 0: [[1,0],[0,0]], 1: [[0,0],[0,1]] }",
    "predicate P0 (2) = span { |0> }",
])
ORDER = ["q6", "q1", "q2", "q5", "q3", "q7", "q4", "q8"]
CHAIN = "; ".join(f"{a},{b} := C({a},{b})" for a, b in zip(ORDER, ORDER[1:]))
TRIPLE = (f"{{ P0(q6) }} {CHAIN}; if M[q1] {{ 0 -> skip | 1 -> q1 := X(q1) }} fi; "
          "while M[q8] = 1 do q8 := X(q8) od { (P0(q1) /\\ P0(q8)) }")


def test_rank_128_verify_factors_no_full_square_matrix(monkeypatch):
    i, t = parse_interp(INTERP), parse_triple(TRIPLE)
    calls = []
    svd, qr = np.linalg.svd, np.linalg.qr

    def counting_svd(a, *args, **kwargs):
        calls.append(("svd", np.shape(a)))
        return svd(a, *args, **kwargs)

    def counting_qr(a, mode="reduced"):
        calls.append(("qr", mode))
        return qr(a, mode)

    monkeypatch.setattr(np.linalg, "svd", counting_svd)
    monkeypatch.setattr(np.linalg, "qr", counting_qr)
    ok, report = triple_valid(i, t)
    assert triple_valid_wlp(i, t) == ok
    assert report["pre_rank"] == 128
    assert any(kind == "svd" for kind, _ in calls)
    assert ("svd", (256, 256)) not in calls
    assert ("qr", "complete") not in calls


def test_rank_128_forall_over_an_unquantified_qubit_factors_nothing(monkeypatch):
    # every generator X(q2) keeps P0(q1), so each meet and the fixpoint's
    # equality test is an inclusion, decided from the residual alone
    i = parse_interp(INTERP + "\nallowed (2) = { X }")
    x = eval_subspace(i, parse_formula("P0(q1)"))
    calls = helpers.count_factorizations(monkeypatch)
    trace: list = []
    assert bvn.formulas.forall_closure(i, ["q2"], x, trace).rank == 128
    assert trace == [(0, 128), (1, 128)]
    assert ("svd", (128, 128)) not in calls
    assert "eigh" not in {kind for kind, _ in calls}


def test_rank_128_verify_factors_outcome_images_on_their_range(monkeypatch):
    # the image under a one-qubit outcome factors E^dagger X, 128 rows per
    # column block, not P X on all 256, from the range its channel carries
    i, t = parse_interp(INTERP), parse_triple(TRIPLE)
    splits = _count_calls(monkeypatch, bvn.linalg.projector_split)
    calls = helpers.count_factorizations(monkeypatch)
    assert triple_valid(i, t)[0] == triple_valid_wlp(i, t)
    rows = [shape[0] for kind, shape in calls if kind == "svd"]
    assert rows and 256 not in rows and max(rows) <= 128
    assert splits == []


def test_rank_128_image_stays_on_the_legs_it_constrains(monkeypatch):
    # q6 is only ever a control, so the image stays P0(q6) (x) I through the
    # chain: each gate's added leg is trimmed, or the gate misses q6's leg.
    # The case and the loop add q1 and q8, so no basis spans more than three
    # legs and no SVD more than 8 rows
    i, t = parse_interp(INTERP), parse_triple(TRIPLE)
    x = eval_subspace(i, t.pre)
    held = []
    post_init = Subspace.__post_init__

    def recording(self):
        post_init(self)
        held.append(len(self.legs) if self.layout else len(QUBITS))

    monkeypatch.setattr(Subspace, "__post_init__", recording)
    calls = helpers.count_factorizations(monkeypatch)
    assert prog_image(i, t.prog, x).rank == 32
    assert held and max(held) <= 3
    rows = [shape[0] for kind, shape in calls if kind == "svd"]
    assert rows and max(rows) <= 8


def test_entangling_chain_keeps_its_legs_without_factoring(monkeypatch):
    # |+> on q1 spread by CNOTs down the register is full on no added leg:
    # each trim is refused by its probe, so the chain factors nothing
    i = parse_interp(INTERP + "\nunitary H (2) = [[1/sqrt(2), 1/sqrt(2)], [1/sqrt(2), -1/sqrt(2)]]")
    s = parse_program("; ".join(["q1 := H(q1)"] + [f"{a},{b} := C({a},{b})"
                                                    for a, b in zip(QUBITS, QUBITS[1:])]))
    x = eval_subspace(i, parse_formula("P0(q1)"))
    trims = _count_calls(monkeypatch, bvn.linalg._trimmed)
    calls = helpers.count_factorizations(monkeypatch)
    image = prog_image(i, s, x)
    assert image.local.shape == (256, 128) and len(trims) == 8
    assert calls == []


def test_mixed_meet_takes_one_eigh_and_no_svd(monkeypatch):
    # neither rank-128 subspace lies in the other: on their dense forms the
    # meet's one _principal call factors the Gram matrix of the residual, and
    # nothing else (on their own legs it is a Kronecker product, below)
    i = parse_interp(INTERP)
    x, y = (eval_subspace(i, parse_formula(f)) for f in ("P0(q1)", "P0(q2)"))
    x, y = Subspace(x.dim, x.basis), Subspace(y.dim, y.basis)
    calls = helpers.count_factorizations(monkeypatch)
    assert bvn.linalg.lattice_meet([x, y]).rank == 64
    assert calls == [("eigh", (128, 128))]


def test_meet_on_disjoint_legs_factors_nothing(monkeypatch):
    i = parse_interp(INTERP)
    x, y = (eval_subspace(i, parse_formula(f)) for f in ("P0(q1)", "P0(q2)"))
    calls = helpers.count_factorizations(monkeypatch)
    meet = bvn.linalg.lattice_meet([x, y])
    assert calls == [] and (meet.rank, meet.local.shape) == (64, (4, 1))


def test_measurement_wlp_takes_no_meet(monkeypatch):
    i, t = parse_interp(INTERP), parse_triple(TRIPLE)
    depth, shapes = [0], []
    real_wlp, svd = bvn.programs._Wlp.__call__, np.linalg.svd

    def tracked_wlp(*args):
        depth[0] += 1
        try:
            return real_wlp(*args)
        finally:
            depth[0] -= 1

    def counting_svd(a, *args, **kwargs):
        shapes.append(np.shape(a))
        return svd(a, *args, **kwargs)

    monkeypatch.setattr(bvn.programs._Wlp, "__call__", tracked_wlp)
    monkeypatch.setattr(np.linalg, "svd", counting_svd)
    meets = _count_calls(monkeypatch, bvn.linalg.lattice_meet, lambda *args: depth[0] > 0)
    assert triple_valid_wlp(i, t) == triple_valid(i, t)[0]
    assert meets == [False]  # the post's conjunction, outside the wlp
    assert shapes and (192, 192) not in shapes


def _count_calls(monkeypatch, real, record=lambda *args: args) -> list:
    """Wrap the function ``real`` wherever a bvn module binds it, recursion
    included; return ``record(*args)`` of each call."""
    calls = []

    def counting(*args, **kwargs):
        calls.append(record(*args))
        return real(*args, **kwargs)

    for name, mod in list(sys.modules.items()):
        if name.split(".")[0] == "bvn" and getattr(mod, real.__name__, None) is real:
            monkeypatch.setattr(mod, real.__name__, counting)
    return calls


def _count_embeds(monkeypatch) -> list:
    """The variable lists of the interp.embed calls."""
    return _count_calls(monkeypatch, bvn.interp.embed, lambda i, e, names: tuple(names))


def test_run_embeds_as_often_at_any_step_cap(monkeypatch):
    calls = _count_embeds(monkeypatch)
    s = parse_program("while M[q] = 1 do skip od")
    counts = []
    for cap in (100, 10_000):
        calls.clear()
        res = run(helpers.one_qubit_interp(), s, StateDensity.maximally_mixed(2), max_steps=cap)
        # the guard-1 half is proven to diverge after one iteration, whatever
        # the cap; proving it reads the guard's ranges, not its channels.  The
        # half is the mass of the factor I/sqrt(2), so it is 1/2 up to rounding
        assert (res.steps, res.status) == (1, "truncated")
        assert res.diverged == pytest.approx(0.5, abs=1e-15)
        counts.append(len(calls))
    assert counts == [2, 2]  # the guard's two outcome channels


def _ladder(n: int) -> tuple:
    """The qubit ladder on q1..qn: its interpretation, and the program that
    puts q1 in |+>, chains CNOTs down the register, then loops while M[q1]
    reads 1, applying H to q1 and X to q2."""
    qs = [f"q{k}" for k in range(1, n + 1)]
    interp = "\n".join([f"var {q} : 2" for q in qs] + [
        "unitary H (2) = [[1/sqrt(2), 1/sqrt(2)], [1/sqrt(2), -1/sqrt(2)]]",
        "unitary X (2) = [[0, 1], [1, 0]]",
        "unitary C (2,2) = [[1,0,0,0],[0,1,0,0],[0,0,0,1],[0,0,1,0]]",
        "measurement M (2) = { 0: [[1,0],[0,0]], 1: [[0,0],[0,1]] }",
        "predicate Z0 (2) = span { |0> }",
        "allowed (2) = { H, X }",
    ])
    chain = [f"{a}, {b} := C({a}, {b})" for a, b in zip(qs, qs[1:])]
    program = "; ".join(["q1 := H(q1)", *chain, "while M[q1] = 1 do q1 := H(q1); q2 := X(q2) od"])
    return interp, program


def test_ladder_run_keeps_the_state_a_thin_factor(monkeypatch, tmp_path, capsys):
    # from |0...0>, the unitaries and the guard's projectors keep the factor
    # one column wide, and the loop's 40 exits give the output 40 columns: no
    # 1024 x 1024 density is formed or factored
    interp, program = _ladder(10)
    (tmp_path / "ladder.bvn").write_text(interp)
    widths, reads = [], []
    of = StateDensity._of
    monkeypatch.setattr(StateDensity, "_of",
                        staticmethod(lambda v: widths.append(v.shape[1]) or of(v)))
    monkeypatch.setattr(StateDensity, "matrix", property(lambda rho: reads.append(rho)))
    argv = ["-i", str(tmp_path / "ladder.bvn"), "run", "--program", program,
            "--state", "|" + "0" * 10 + ">"]
    assert bvn.cli.main(argv) == 0
    assert "status exact  steps 39" in capsys.readouterr().out
    assert reads == [] and widths and max(widths) < 1024


def test_term_eq_holds_at_most_d_squared_kraus_operators(monkeypatch, fixture_path,
                                                         fixture_text, capsys):
    # term_channel reads a term's Kraus operators off its Choi state on the
    # joint variables and a reference copy: d^2 rows, so at most d^2 = 4
    # operators on q1 however many noisy leaves, where pairwise composition
    # of 16 bit flips holds 2^16.  Each leaf stacks two operators on a factor
    # of at most 4 columns, and each term embeds its one basic term once.
    noisy = parse_interp(fixture_text("noisy.bvn"))
    sixteen = parse_term(" ".join(["Ebf(q1)"] * 16))
    assert len(bvn.terms.term_channel(noisy, sixteen, ["q1"]).kraus) <= 4
    widths, embeds = [], _count_embeds(monkeypatch)
    of = StateDensity._of
    monkeypatch.setattr(StateDensity, "_of",
                        staticmethod(lambda v: widths.append(v.shape[1]) or of(v)))
    argv = ["-i", fixture_path("noisy.bvn"), "term-eq", " ".join(["Ebf(q1)"] * 40),
            " ".join(["Ebf(q1)"] * 41)]
    assert bvn.cli.main(argv) == 0
    assert "equal as channels" in capsys.readouterr().out
    assert embeds == [("q1",), ("q1",)]
    assert len(widths) == 1 + 40 + 1 + 41 and max(widths) <= 8


def test_loop_wlp_embeds_each_channel_once(monkeypatch):
    splits = _count_calls(monkeypatch, bvn.linalg.projector_split, lambda p: p)
    i = helpers.two_qubit_interp()
    m = i.measurements["M"]
    # build splits each outcome's projector once, and no query splits one again
    assert len(splits) == 2 and all(a is p for a, p in zip(splits, m.projectors))
    splits.clear()
    calls = _count_embeds(monkeypatch)
    evaluations = _count_evaluations(monkeypatch)
    ranks: list = []
    factored: list = []  # every SVD or eigh of a bound projector or range
    fixpoint = bvn.programs.lattice_fixpoint
    for kind in ("svd", "eigh"):
        def counting(a, *args, _real=getattr(np.linalg, kind), **kwargs):
            if any(a is b for b in m.projectors + m.ranges):
                factored.append(len(ranks))
            return _real(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, kind, counting)
    monkeypatch.setattr(bvn.programs, "lattice_fixpoint",
                        lambda step, start, what, tol: fixpoint(step, start, what, tol, ranks))
    s = parse_program("while M[q1] = 1 do q1 := H(q1); q2 := X(q2) od")
    y = Subspace(4, np.eye(4, dtype=complex)[:, [0]])
    assert prog_wlp(i, s, y).rank == 1
    assert ranks == [4, 3, 2, 1, 1]  # four body walks
    # H(q1) and X(q2), each built once; the guard's two ranges, each evaluated
    # once from the bases build split off, so no bound projector is factored
    assert sorted(calls) == [("q1",), ("q2",)]
    assert len(i.embedded) == 2
    assert set(evaluations) == {MeasAtom("M", o, ("q1",)) for o in (0, 1)}
    assert len(evaluations) == 2
    assert factored == [] and splits == []
    prog_wlp(i, s, y)
    assert len(calls) == 2 and len(evaluations) == 2 and factored == [] and splits == []


def test_run_checks_the_program_once_at_any_step_cap(monkeypatch):
    calls = _count_calls(monkeypatch, bvn.terms.term_wf)
    s = parse_program("while M[q1] = 1 do q1 := H(q1) od")
    counts = []
    for cap in (10, 10_000):
        calls.clear()
        run(helpers.two_qubit_interp(), s, StateDensity.maximally_mixed(4), max_steps=cap)
        counts.append(len(calls))
    assert counts == [1, 1]  # prog_wf's check of the assignment term


def test_verify_walks_the_program_once_per_check(monkeypatch, fixture_text):
    calls = _count_calls(monkeypatch, bvn.programs.prog_wf)
    i, t = parse_interp(fixture_text("ex1.bvn")), parse_triple(fixture_text("hh.qht"))
    assert triple_valid(i, t)[0] and triple_valid_wlp(i, t)
    assert len(calls) == 2  # one walk of the program per check


def test_verify_query_checks_its_program_once(monkeypatch, fixture_path, capsys):
    calls = _count_calls(monkeypatch, bvn.programs.prog_wf)
    assert bvn.cli.main(["-i", fixture_path("ex1.bvn"), "verify", fixture_path("hh.qht")]) == 0
    assert len(calls) == 1  # the image and the wlp check share it
    assert capsys.readouterr().out.splitlines()[-1] == "valid"


def _count_evaluations(monkeypatch) -> list:
    """The formulas of the formulas._eval calls, its recursion into
    subformulas included."""
    return _count_calls(monkeypatch, bvn.formulas._eval, lambda i, b: b)


def test_cross_check_evaluates_each_formula_once(monkeypatch, fixture_text):
    calls = _count_evaluations(monkeypatch)
    i = parse_interp(fixture_text("ex1.bvn"))
    script = parse_proof(fixture_text("hh_proof.qpf"))
    report = check_proof(i, script, semantic_cross_check=True)
    assert report.ok and all(s.cross_check for s in report.steps)
    # three triples, whose pre and post are three distinct formulas
    assert len(calls) == len(set(calls)) == 3
    assert set(i.evaluated) == set(calls)


def test_verify_evaluates_pre_and_post_once(monkeypatch, fixture_text):
    calls = _count_evaluations(monkeypatch)
    checked = _count_calls(monkeypatch, bvn.formulas.formula_wf, lambda i, b: b)
    i = parse_interp(fixture_text("ex1.bvn"))
    t = parse_triple("{ P(q1,q2) } q1 := H(q1) { P0(q2) }")
    assert triple_valid(i, t)[0] and triple_valid_wlp(i, t)
    assert calls == [t.pre, t.post]
    # only the evaluation is memoised: each check still checks both formulas
    assert checked.count(t.pre) == checked.count(t.post) == 2


def _count_parses(monkeypatch) -> list:
    """The texts that ``cli.main`` parses from now on, none of them kept from
    an earlier call."""
    bvn.cli._parsed_interp.cache_clear()
    return _count_calls(monkeypatch, bvn.parser.parse_interp)


@pytest.mark.parametrize("query", [
    ["sat", "--state", "|00>", "--formula", "beta.qlf"],
    ["verify", "hh.qht"],
    ["check-proof", "hh_proof.qpf", "--cross-check"],
    ["run", "--program", "loop_x.qwp", "--state", "|10>"],
    ["forall", "--vars", "q1", "--formula", "P0(q1)"],
], ids=lambda q: q[0])
def test_repeated_queries_parse_their_interpretation_once(monkeypatch, fixture_path, tmp_path,
                                                          capsys, query):
    parses = _count_parses(monkeypatch)
    argv = [fixture_path(a) if a.endswith((".qlf", ".qht", ".qpf", ".qwp")) else a
            for a in query]
    outs, reports = [], []
    for k in range(3):
        report = tmp_path / f"r{k}.json"
        assert bvn.cli.main(["-i", fixture_path("ex1.bvn"), "--json", str(report), *argv]) == 0
        outs.append(capsys.readouterr().out)
        data = json.loads(report.read_text())
        assert data.pop("timings")
        reports.append(data)
    assert len(parses) == 1
    assert outs == outs[:1] * 3 and reports == reports[:1] * 3


def test_a_rewritten_interpretation_is_parsed_again(monkeypatch, fixture_text, tmp_path, capsys):
    parses = _count_parses(monkeypatch)
    interp = tmp_path / "i.bvn"
    query = ["-i", str(interp), "sat", "--state", "|00>", "--formula", "PX(q1)"]
    interp.write_text(fixture_text("ex1.bvn"))
    assert bvn.cli.main(query) == 1
    interp.write_text(fixture_text("ex1.bvn").replace("[3/5, 4/5]", "[1, 0]"))
    assert bvn.cli.main(query) == 0  # PX is now span { |0> }
    assert bvn.cli.main(query) == 0
    assert len(parses) == 2


def test_each_tolerance_keeps_its_own_interpretation(monkeypatch, fixture_path, capsys):
    parses = _count_parses(monkeypatch)
    seen = []
    dispatch = bvn.cli._dispatch
    monkeypatch.setattr(bvn.cli, "_dispatch",
                        lambda args, i, report: seen.append(i.tol) or dispatch(args, i, report))
    for option in ([], ["--tol-sub", "1e-6"], [], ["--tol-sub", "1e-6"]):
        assert bvn.cli.main(["-i", fixture_path("ex1.bvn"), *option,
                             "entail", "P0(q1)", "P0(q1) \\/ P(q1,q2)"]) == 0
    assert len(parses) == 2 and bvn.cli._parsed_interp.cache_info().currsize == 2
    assert [t.tau_sub for t in seen] == [1e-7, 1e-6, 1e-7, 1e-6]


def _count_source_parses(monkeypatch) -> list:
    """The kinds of the query sources that ``cli.main`` parses from now on,
    none of them kept from an earlier call."""
    bvn.cli._parsed_source.cache_clear()
    return _count_calls(monkeypatch, bvn.parser.parse, lambda kind, text: kind)


@pytest.mark.parametrize("query, kinds", [
    (["sat", "--state", "|00>", "--formula", "beta.qlf"], ["formula"]),
    (["term-eq", "H(q1) H(q1)", "I(q1)"], ["term", "term"]),
    (["run", "--program", "loop_x.qwp", "--state", "|10>"], ["program"]),
    (["verify", "hh.qht"], ["triple"]),
    (["check-proof", "hh_proof.qpf", "--cross-check"], ["proof"]),
], ids=lambda q: q[0])
def test_repeated_queries_parse_their_sources_once(monkeypatch, fixture_path, tmp_path, capsys,
                                                  query, kinds):
    parses = _count_source_parses(monkeypatch)
    argv = [fixture_path(a) if a.endswith((".qlf", ".qht", ".qpf", ".qwp")) else a
            for a in query]
    outs, reports = [], []
    for k in range(3):
        report = tmp_path / f"r{k}.json"
        assert bvn.cli.main(["-i", fixture_path("ex1.bvn"), "--json", str(report), *argv]) == 0
        outs.append(capsys.readouterr().out)
        data = json.loads(report.read_text())
        assert data.pop("timings")
        reports.append(data)
    assert parses == kinds
    assert outs == outs[:1] * 3 and reports == reports[:1] * 3


@pytest.mark.parametrize("query, suffix, texts, codes", [
    (["sat", "--state", "|00>", "--formula"], ".qlf", ["PX(q1)", "P0(q1)"], [1, 0]),
    (["check-proof"], ".qpf", ["step s by Ax.Sk with formula = P0(q1)\n"
                               "  shows triple { P0(q1) } skip { P0(q1) }\n",
                               "step s by Ax.Sk with formula = P0(q1)\n"
                               "  shows triple { P0(q1) } skip { PX(q1) }\n"], [0, 1]),
], ids=["formula", "proof"])
def test_a_rewritten_source_is_parsed_again(monkeypatch, fixture_path, tmp_path, capsys,
                                            query, suffix, texts, codes):
    parses = _count_source_parses(monkeypatch)
    source = tmp_path / f"source{suffix}"
    got = []
    for text in texts:
        source.write_text(text)
        got += [bvn.cli.main(["-i", fixture_path("ex1.bvn"), *query, str(source)])
                for _ in range(2)]
    assert got == [codes[0], codes[0], codes[1], codes[1]]
    assert len(parses) == 2


def test_a_source_with_a_parse_error_fails_on_every_call(monkeypatch, fixture_path, capsys):
    parses = _count_source_parses(monkeypatch)
    errors = []
    for _ in range(3):
        assert bvn.cli.main(["-i", fixture_path("ex1.bvn"), "sem", "--formula", "P0(q1"]) == 2
        errors.append(capsys.readouterr().err)
    assert errors == errors[:1] * 3 and errors[0].startswith("error: ")
    assert len(parses) == 3 and bvn.cli._parsed_source.cache_info().currsize == 0


def test_one_text_keeps_one_entry_per_kind(monkeypatch):
    parses = _count_source_parses(monkeypatch)
    for _ in range(2):
        as_formula = bvn.cli._parsed_source("formula", "P0(q1)")
        as_term = bvn.cli._parsed_source("term", "P0(q1)")
    assert isinstance(as_formula, bvn.formulas.Formula) and isinstance(as_term, bvn.terms.Term)
    assert parses == ["formula", "term"] and bvn.cli._parsed_source.cache_info().currsize == 2


def test_a_kept_proof_script_cannot_be_written(fixture_path, fixture_text, capsys):
    query = ["-i", fixture_path("ex1.bvn"), "check-proof", fixture_path("hh_proof.qpf")]
    assert bvn.cli.main(query) == 0
    step = bvn.cli._parsed_source("proof", fixture_text("hh_proof.qpf"))[0]
    with pytest.raises(dataclasses.FrozenInstanceError):
        step.rule = "Ax.Sk"
    with pytest.raises(TypeError):
        step.params["vars"] = ("q2",)
    with pytest.raises(TypeError):
        del step.params["term"]
    assert step.rule == "Ax.UT" and step.params["vars"] == ("q1",)
    assert bvn.cli.main(query) == 0
