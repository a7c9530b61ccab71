import ast
import json
import re
import shlex
from pathlib import Path

import numpy as np
import pytest

import bvn.cli
import helpers
from bvn import (
    BasicTerm,
    BvnError,
    ProbSumTerm,
    Subspace,
    Tolerances,
    eval_subspace,
    term_equiv,
    term_wf,
    term_wlp,
)
from bvn.cli import _build_parser, _numbers, _print_subspace, main
from bvn.parser import (
    interp_to_text,
    parse_formula,
    parse_interp,
    parse_state_vector,
    parse_term,
)


@pytest.fixture
def fx(fixture_path):
    return fixture_path


def test_sat_example_one(fx, capsys):
    code = main(["-i", fx("ex1.bvn"), "sat", "--state", "|00>", "--formula", fx("beta.qlf")])
    out = capsys.readouterr().out
    assert code == 0
    assert "satisfied" in out
    assert "tau_num" in out and "layout" in out


def test_sat_failure_exit_code(fx, capsys):
    code = main(["-i", fx("ex1.bvn"), "sat", "--state", "|10>", "--formula", "P0(q1)"])
    assert code == 1
    assert "not satisfied" in capsys.readouterr().out


def test_term_eq_noisy(fx, tmp_path, capsys):
    report = tmp_path / "report.json"
    code = main([
        "-i", fx("noisy.bvn"), "--json", str(report),
        "term-eq", fx("tau1.qt"), fx("tau2.qt"),
    ])
    assert code == 0
    data = json.loads(report.read_text())
    assert data["command"] == "term-eq"
    assert data["result"] == {"equal": True}
    assert data["tolerances"]["tau_num"] == 1e-9
    assert "timings" in data


def test_term_eq_differs(fx):
    assert main(["-i", fx("ex1.bvn"), "term-eq", "H(q1)", "X(q1)"]) == 1


def test_verify_valid_triple(fx, capsys):
    assert main(["-i", fx("ex1.bvn"), "verify", fx("hh.qht")]) == 0
    assert "valid" in capsys.readouterr().out


def test_verify_invalid_triple_prints_witness(fx, capsys):
    code = main(["-i", fx("ex1.bvn"), "verify",
                 "{ P0(q1) \\/ ~P0(q1) } skip { P0(q1) /\\ ~P0(q1) }"])
    out = capsys.readouterr().out
    assert code == 1
    assert "invalid" in out and "violating state" in out


def test_run_loop(fx, capsys):
    code = main(["-i", fx("ex1.bvn"), "--max-steps", "200", "--eps", "1e-10",
                 "run", "--program", fx("loop_x.qwp"), "--state", "|10>"])
    out = capsys.readouterr().out
    assert code == 0
    assert "status exact" in out


def _perfbench_run_pattern() -> re.Pattern:
    """The benchmark's pattern for the run summary line (``_RUN`` in
    ``perfbench/checks.py``), read from its source."""
    tree = ast.parse((Path(__file__).resolve().parents[1] / "perfbench" / "checks.py").read_text())
    node = next(n for n in tree.body if isinstance(n, ast.Assign)
                and getattr(n.targets[0], "id", None) == "_RUN")
    return re.compile(ast.literal_eval(node.value.args[0]), re.M)


@pytest.mark.parametrize("state, summary", [
    ("|10>", ("0.000000000000", "1.000e+00", "truncated", "0")),
    ("(|00> + |10>)/sqrt(2)", ("0.500000000000", "5.000e-01", "truncated", "1")),
])
def test_run_reports_diverged_mass(fx, tmp_path, capsys, state, summary):
    report = tmp_path / "run.json"
    code = main(["-i", fx("ex1.bvn"), "--json", str(report), "run",
                 "--program", "while M[q1] = 1 do q2 := H(q2) od", "--state", state])
    out = capsys.readouterr().out
    assert code == 0
    assert _perfbench_run_pattern().search(out).groups() == summary
    lines = out.splitlines()
    after = lines[next(k for k, line in enumerate(lines) if line.startswith("  diagonal:")) + 1]
    assert after == f"  diverged: {summary[1]}"
    result = json.loads(report.read_text())["result"]
    assert result["diverged"] == result["residual"] == pytest.approx(float(summary[1]))
    assert "loop-iteration cap" in _build_parser().format_help()


def test_check_proof(fx, capsys):
    code = main(["-i", fx("ex1.bvn"), "check-proof", fx("hh_proof.qpf"), "--cross-check"])
    out = capsys.readouterr().out
    assert code == 0
    assert "proof accepted" in out


_UT_STEP = ("step a by Ax.UT with formula = P0(q2); term = H(q1); vars = q1\n"
            "  shows triple { adj<H(q1)>(P0(q2)) } q1 := H(q1) { P0(q2) }\n")


@pytest.mark.parametrize("cross_check", [False, True])
@pytest.mark.parametrize("rule, allowed, script", [
    # q2 is free in the postcondition, so quantifying it is unsound
    ("Exists-Intro", "H, X, Y, Z", _UT_STEP
     + "step e from a by Exists-Intro with qvars = q2\n"
       "  shows triple { exists q2 . adj<H(q1)>(P0(q2)) } q1 := H(q1) { P0(q2) }\n"),
    # forall q1 ranges over words in Z alone, and H is none
    ("QQL14", "Z", "step s by QQL14 with term = H(q1); qvars = q1; formula = P0(q1)\n"
                    "  shows sequent forall q1 . P0(q1) |- adj<H(q1)>(P0(q1))\n"),
    ("Hoare-Adaptation", "", _UT_STEP
     + "step h from a by Hoare-Adaptation with delta = P0(q1); pvars = q1; witness = H(q1)\n"
       "  shows triple { exists q2 . adj<H(q1)>(P0(q2)) /\\ (forall q1 . P0(q2) -> P0(q1)) }"
       " q1 := H(q1) { P0(q1) }\n"),
], ids=["Exists-Intro", "QQL14", "Hoare-Adaptation"])
def test_unsound_adaptation_and_instantiation_rejected(fixture_text, tmp_path, capsys, rule,
                                                       allowed, script, cross_check):
    interp = tmp_path / "i.bvn"
    interp.write_text(fixture_text("ex1.bvn").replace("{ H, X, Y, Z }", f"{{ {allowed} }}"))
    proof = tmp_path / "p.qpf"
    proof.write_text(script)
    code = main(["-i", str(interp), "check-proof", str(proof)] + ["--cross-check"] * cross_check)
    out = capsys.readouterr().out
    assert code == 1
    assert f"FAIL  {rule}:" in out and "proof rejected" in out


@pytest.mark.parametrize("cross_check", [False, True])
def test_identity_word_without_a_generator_set_is_rejected(fixture_text, tmp_path, capsys,
                                                           cross_check):
    interp = tmp_path / "i.bvn"
    lines = fixture_text("ex1.bvn").splitlines(keepends=True)
    interp.write_text("".join(line for line in lines if not line.startswith("allowed")))
    proof = tmp_path / "p.qpf"
    proof.write_text("step s by QQL14 with term = I(q1); qvars = q1; formula = P0(q1)\n"
                     "  shows sequent forall q1 . P0(q1) |- adj<I(q1)>(P0(q1))\n")
    code = main(["-i", str(interp), "check-proof", str(proof)] + ["--cross-check"] * cross_check)
    out = capsys.readouterr().out
    assert code == 1
    assert ("step s [QQL14] FAIL  QQL14: no allowed generator set declared for any "
            "signature over variables ['q1']") in out


_QUANTIFYING_STEPS = (
    "step a by QL1 with formula = P0(q1)\n  shows sequent P0(q1) |- P0(q1)\n"
    "step b from a by QQL15 with qvars = q2\n  shows sequent P0(q1) |- forall q2 . P0(q1)\n"
    "step c by Ax.Sk with formula = P0(q1)\n  shows triple { P0(q1) } skip { P0(q1) }\n"
    "step d from c by Exists-Intro with qvars = q2\n"
    "  shows triple { exists q2 . P0(q1) } skip { P0(q1) }\n"
    "step e by QQL13 with term = H(q1); qvars = q2; formula = P(q1,q2)\n"
    "  shows sequent adj<H(q1)>(forall q2 . P(q1,q2)) |- forall q2 . adj<H(q1)>(P(q1,q2))\n")


def test_quantifying_without_a_generator_set_fails_with_or_without_cross_check(
        fixture_text, tmp_path, capsys):
    interp = tmp_path / "i.bvn"
    lines = fixture_text("ex1.bvn").splitlines(keepends=True)
    interp.write_text("".join(line for line in lines if not line.startswith("allowed")))
    proof = tmp_path / "p.qpf"
    proof.write_text(_QUANTIFYING_STEPS)
    failed = []
    for flags in ([], ["--cross-check"]):
        assert main(["-i", str(interp), "check-proof", str(proof), *flags]) == 1
        out = capsys.readouterr().out
        assert "no allowed generator set declared for any signature over variables ['q2']" in out
        failed.append([line.split()[1] for line in out.splitlines() if " FAIL " in line])
    assert failed == [["b", "d", "e"]] * 2


def test_check_proof_failure(fx, tmp_path, capsys):
    bad = tmp_path / "bad.qpf"
    bad.write_text(
        "step s1 by Ax.Sk with formula = P0(q1)\n"
        "  shows triple { P0(q1) } skip { PX(q1) }\n"
    )
    code = main(["-i", fx("ex1.bvn"), "check-proof", str(bad)])
    out = capsys.readouterr().out
    assert code == 1
    assert "rejected at step s1" in out


def test_a_step_id_is_taken_even_by_a_failed_step(fx, tmp_path, capsys):
    # the first s1 states a wrong post and fails; the second is valid, but
    # its id is taken
    step = ("step s1 by Ax.UT with formula = P0(q1); term = H(q1); vars = q1\n"
            "  shows triple {{ adj<H(q1)>(P0(q1)) }} q1 := H(q1) {{ {post} }}\n")
    script = tmp_path / "twice.qpf"
    script.write_text(step.format(post="PX(q1)") + step.format(post="P0(q1)"))
    assert main(["-i", fx("ex1.bvn"), "check-proof", str(script)]) == 1
    out = capsys.readouterr().out.splitlines()
    assert [line for line in out if line.startswith("  step s1")][1] == \
        "  step s1 [Ax.UT] FAIL  duplicate step id"
    assert out[-1] == "proof rejected at step s1"


def test_sem_prints_basis(fx, capsys):
    code = main(["-i", fx("ex1.bvn"), "sem", "--formula", "P0(q1)"])
    out = capsys.readouterr().out
    assert code == 0
    assert "rank 2 of 4" in out


def _print_subspace_per_entry(x):
    """Reference for _print_subspace: one f-string per basis entry."""
    print(f"rank {x.rank} of {x.dim}")
    cols = []
    for k in range(x.rank):
        col = [complex(z) for z in x.basis[:, k]]
        cols.append([[z.real, z.imag] for z in col])
        entries = ", ".join(f"{z.real:+.6f}{z.imag:+.6f}i" for z in col)
        print(f"  b{k}: [{entries}]")
    return cols


# exact binary ties of the sixth digit (j 2^-7 for odd j), a dyadic value
# off them, and (k + 1/2) 1e-6 with its neighbours on both sides
_NEAR_TIES = np.array([(k + 0.5) * 1e-6 for k in (0, 1, 7, 12345, 499_999, 999_999, 9_499_999)])
_TIES = [2 ** -7, -2 ** -7, 5 * 2 ** -7, -127 * 2 ** -7, 3 * 2 ** -21, -3 * 2 ** -21,
         *_NEAR_TIES, *np.nextafter(_NEAR_TIES, 0), *-np.nextafter(_NEAR_TIES, 10)]


def test_basis_printing_matches_per_entry_formatting(capsys):
    # signed zeros, tiny negatives that print as -0.000000, values at the
    # sixth digit's rounding edge, and random orthonormal bases
    edge = [-0.0, 0.0, -1e-300, -1e-9, -4.9999e-7, -5e-7, 5e-7, 5.0001e-7, 0.1234565,
            -0.1234575, 0.9999995, -0.9999995, 1.0000005, 1 / 3, -2 / 3, 2.5e-7, *_TIES]
    basis = np.empty((len(edge), len(edge)), dtype=complex)
    basis.real = [np.roll(edge, k) for k in range(len(edge))]
    basis.imag = basis.real[::-1].T
    rng = np.random.default_rng(5)
    q, _ = np.linalg.qr(rng.normal(size=(16, 6)) + 1j)
    outputs = []
    for x in (Subspace(len(edge), basis), Subspace(16, q), Subspace(16, q[:, :1]),
              Subspace.zero(4)):
        cols = _print_subspace(x)
        outputs.append(capsys.readouterr().out)
        reference = _print_subspace_per_entry(x)
        assert outputs[-1] == capsys.readouterr().out
        assert cols == reference and json.dumps(cols) == json.dumps(reference)
        assert _print_subspace(x, report=False) is None  # no columns kept without --json
        assert capsys.readouterr().out == outputs[-1]
    assert "-0.000000-0.000000i" in outputs[0] and "+0.000001" in outputs[0]
    assert "+0.007812" in outputs[0] and "0.007813" not in outputs[0]  # exact ties go to even
    assert "+0.039062" in outputs[0] and "-0.992188" in outputs[0]
    wide, _ = np.linalg.qr(rng.normal(size=(1024, 256)) + 1j * rng.normal(size=(1024, 256)))
    _print_subspace(Subspace(1024, wide), report=False)
    out = capsys.readouterr().out
    _print_subspace_per_entry(Subspace(1024, wide))
    assert out == capsys.readouterr().out


def test_parts_of_9_5_and_more_are_formatted_entry_by_entry(capsys):
    # no orthonormal basis, unit vector or probability holds one; "%" prints
    # the wider cell (every array here has the 128 floats or more that would
    # otherwise take the array path)
    outs = []
    for wide in (9.5, 12.5 - 1j, -1e3, np.inf, np.nan * 1j):
        basis = np.random.default_rng(6).normal(size=(40, 2)) * 0.1 + 0j
        basis[7, 1] = wide
        _print_subspace(Subspace(40, basis), report=False)
        outs.append(capsys.readouterr().out)
        _print_subspace_per_entry(Subspace(40, basis))
        assert outs[-1] == capsys.readouterr().out
    assert "+12.500000-1.000000i" in outs[1] and "+nan" in outs[-1]
    for bad in (9.5, 1e3, np.nan, -0.0, -1e-9):
        diag = np.full(128, 0.25)
        diag[5] = bad
        assert _numbers(diag[None]) == [" ".join(f"{d:.6f}" for d in diag)]


def _seven_qubits(fixture_text, tmp_path):
    """ex1.bvn's symbols on qubits q1..q7, so that a state has 128 entries:
    enough floats for the array path, which 64 real ones do not take."""
    interp = tmp_path / "q7.bvn"
    interp.write_text("".join(f"var q{k} : 2\n" for k in range(1, 8))
                      + fixture_text("ex1.bvn").replace("var q1 : 2\nvar q2 : 2\n", ""))
    return str(interp)


def test_violating_state_line_matches_per_entry_formatting(fixture_text, tmp_path, capsys):
    report = tmp_path / "v.json"
    code = main(["-i", _seven_qubits(fixture_text, tmp_path), "--json", str(report), "verify",
                 "{ P0(q1) } q1 := H(q1); q2 := H(q2) { P0(q1) }"])
    out = capsys.readouterr().out.splitlines()
    assert code == 1
    witness = [complex(*z) for z in json.loads(report.read_text())["witnesses"][0]]
    entries = ", ".join(f"{z.real:+.6f}{z.imag:+.6f}i" for z in witness)
    assert len(witness) == 128 and out[-1] == f"  violating state: [{entries}]"
    edge = np.resize(_TIES, 64) + 1j * np.resize(_TIES[::-1], 64)
    assert _numbers(edge[None]) == [", ".join(f"{z.real:+.6f}{z.imag:+.6f}i" for z in edge)]


def test_diagonal_line_matches_per_entry_formatting(fixture_text, tmp_path, capsys):
    report = tmp_path / "r.json"
    code = main(["-i", _seven_qubits(fixture_text, tmp_path), "--json", str(report), "run",
                 "--program", "q1 := H(q1); q2 := H(q2); q1, q2 := C(q1, q2); q7 := H(q7)",
                 "--state", "(3 * |0000000> + 4 * |1100000>) / 5"])
    out = capsys.readouterr().out.splitlines()
    assert code == 0
    diag = json.loads(report.read_text())["result"]["density_diag"]
    assert len(diag) == 128 and out[-2] == "  diagonal: " + " ".join(f"{d:.6f}" for d in diag)
    edge = np.abs(np.resize(_TIES + [0.0, 1 / 3, 0.9999995, 1.0, 1.0000005, 9.4999995], 128))
    assert _numbers(edge[None]) == [" ".join(f"{d:.6f}" for d in edge)]


def test_prob(fx, capsys):
    code = main(["-i", fx("ex1.bvn"), "prob", "--state", "(|00> + |10>)/sqrt(2)",
                 "--formula", "P0(q1)"])
    out = capsys.readouterr().out
    assert code == 0
    assert "probability 0.5" in out


def test_entail(fx):
    assert main(["-i", fx("ex1.bvn"), "entail", "P0(q1) /\\ P(q1,q2)", "P0(q1)"]) == 0
    assert main(["-i", fx("ex1.bvn"), "entail", "P0(q1)", "P0(q1) /\\ P(q1,q2)"]) == 1
    assert main(["-i", fx("ex1.bvn"), "--tol-sub", "0.99", "entail", "P0(q1)", "P0(q2)"]) == 1


def test_image_and_wlp(fx, capsys):
    code = main(["-i", fx("ex1.bvn"), "image", "--formula", "P0(q1)",
                 "--term", "H(q1)"])
    assert code == 0
    assert "rank 2 of 4" in capsys.readouterr().out
    code = main(["-i", fx("ex1.bvn"), "wlp", "--formula", "P0(q1)",
                 "--program", "q1 := H(q1)"])
    assert code == 0


@pytest.mark.parametrize("cmd", ["image", "wlp"])
def test_image_and_wlp_reject_a_loop_on_a_three_outcome_guard(fx, tmp_path, capsys, cmd):
    interp = tmp_path / "m.bvn"
    interp.write_text(open(fx("ex1.bvn"), encoding="utf-8").read()
                      + "measurement N (2) = { 1: [[1,0],[0,0]], 2: [[0,0],[0,1]] }\n")
    code = main(["-i", str(interp), cmd, "--formula", "P0(q1)",
                 "--program", "while N[q1] = 1 do q1 := X(q1) od"])
    err = capsys.readouterr().err
    assert code == 2
    assert "error: loop guards need outcomes {0, 1}" in err and "Traceback" not in err


@pytest.mark.parametrize("cmd", ["image", "wlp"])
def test_image_and_wlp_reject_an_assignment_outside_its_variables(fx, capsys, cmd):
    code = main(["-i", fx("ex1.bvn"), cmd, "--formula", "P0(q1)", "--program", "q1 := H(q2)"])
    err = capsys.readouterr().err
    assert code == 2
    assert "error: assignment term uses ['q2'] outside ['q1']" in err
    assert "Traceback" not in err


def test_forall_trace(fx, capsys):
    code = main(["-i", fx("ex1.bvn"), "forall", "--vars", "q1", "--formula", "P0(q1)"])
    out = capsys.readouterr().out
    assert code == 0
    assert "iteration 0" in out and "closure rank" in out


def test_forall_rejects_a_repeated_variable(fx, capsys):
    code = main(["-i", fx("ex1.bvn"), "forall", "--vars", "q1,q1", "--formula", "P0(q1)"])
    err = capsys.readouterr().err
    assert code == 2
    assert "error: quantifier repeats a variable" in err and "Traceback" not in err


def test_error_exit_code(fx, capsys):
    code = main(["-i", fx("ex1.bvn"), "sat", "--state", "|00>", "--formula", "Nope(q1)"])
    assert code == 2
    assert "error" in capsys.readouterr().err


def test_tolerance_override_in_report(fx, tmp_path):
    report = tmp_path / "r.json"
    main(["-i", fx("ex1.bvn"), "--tol", "1e-7", "--json", str(report),
          "sat", "--state", "|00>", "--formula", "P0(q1)"])
    data = json.loads(report.read_text())
    assert data["tolerances"]["tau_num"] == 1e-7


def test_unstable_loop_fixpoint_exits_2_without_traceback(fx, capsys, monkeypatch):
    import bvn.linalg

    monkeypatch.setattr(bvn.linalg, "subspace_equal", lambda *a, **k: False)
    code = main(["-i", fx("ex1.bvn"), "wlp", "--formula", "P0(q1)",
                 "--program", fx("loop_x.qwp")])
    err = capsys.readouterr().err
    assert code == 2
    assert "error: loop wlp fixpoint did not stabilize" in err
    assert "Traceback" not in err


def test_missing_interpretation_file_exits_2(capsys, tmp_path):
    code = main(["-i", str(tmp_path / "missing.bvn"), "sem", "--formula", "P0(q1)"])
    err = capsys.readouterr().err
    assert code == 2
    assert "error: cannot read" in err and "Traceback" not in err


def test_unwritable_json_path_exits_2(fx, capsys, tmp_path):
    report = tmp_path / "no" / "such" / "dir" / "r.json"
    code = main(["-i", fx("ex1.bvn"), "--json", str(report), "sem", "--formula", "P0(q1)"])
    err = capsys.readouterr().err
    assert code == 2
    assert "error: cannot write" in err and not report.exists()


@pytest.mark.parametrize("option", [
    ["--tol", "nan"], ["--tol", "0"], ["--tol-rank", "inf"], ["--tol-rank=-1e-9"],
    ["--tol-rank", "1"], ["--tol-rank", "2"], ["--tol-sub", "nan"],
])
def test_invalid_tolerance_exits_2(fx, capsys, option):
    code = main(["-i", fx("ex1.bvn"), *option, "entail", "P0(q1)", "P1(q1)"])
    assert code == 2
    assert "error:" in capsys.readouterr().err


_NON_FINITE_U = "\n".join([
    "unitary U (2) = [[1e400, 0], [0, 1]]", "predicate P (2) = span { |0> }", "allowed (2) = { U }",
])
_BIG = "1" + "0" * 400  # an integer literal too large for a double


@pytest.mark.parametrize("decls, query", [
    (_NON_FINITE_U, ["sem", "--formula", "forall q . P(q)"]),
    (_NON_FINITE_U, ["verify", "{P(q)} q := U(q) {P(q)}"]),
    (_NON_FINITE_U, ["sem", "--formula", "P(U(q))"]),
    ("channel N (2) = kraus { [[1e400, 0], [0, 1]] }\npredicate P (2) = span { |0> }",
     ["sem", "--formula", "P(N(q))"]),
    ("predicate P (2) = span { [1e400, 1] }", ["sem", "--formula", "~P(q)"]),
    (None, ["prob", "--state", "[1e400,0,0,0]", "--formula", "P0(q1)"]),
    (None, ["prob", "--state", "[1e300,1e300,0,0]", "--formula", "P0(q1)"]),
    pytest.param(None, ["prob", "--state", "1e300*1e300*|00>", "--formula", "P0(q1)"],
                 id="overflowing-state"),
    pytest.param("measurement M (2) = { 0: [[1e400, 0], [0, 0]], 1: [[0, 0], [0, 1]] }",
                 ["sem", "--formula", "meas M.0(q)"], id="inf-measurement"),
    pytest.param(None, ["prob", "--state", f"{_BIG}*|00>", "--formula", "P0(q1)"],
                 id="big-state"),
    pytest.param(f"unitary U (2) = [[{_BIG}, 0], [0, 1]]", ["sem", "--formula", "P0(U(q))"],
                 id="big-unitary"),
    pytest.param(f"measurement M (2) = {{ 0: [[{_BIG}, 0], [0, 0]], 1: [[0, 0], [0, 1]] }}",
                 ["sem", "--formula", "meas M.0(q)"], id="big-measurement"),
    pytest.param(f"predicate P (2) = span {{ [{_BIG}, 1] }}", ["sem", "--formula", "P(q)"],
                 id="big-span"),
    pytest.param(None, ["term-eq", f"mix {{ {_BIG}: X(q1), 0.5: X(q1) }}", "X(q1)"],
                 id="big-mix-weight"),
])
def test_non_finite_numbers_exit_2(fx, tmp_path, capsys, decls, query):
    interp = fx("ex1.bvn")
    if decls is not None:
        interp = tmp_path / "nf.bvn"
        interp.write_text("var q : 2\n" + decls + "\n")
    code = main(["-i", str(interp), *query])
    out, err = capsys.readouterr()
    assert code == 2
    assert len(err.splitlines()) == 1 and err.startswith("error:")  # no warning, no traceback
    assert "nan" not in out


_LONG = "1" * 5001  # past Python's default limit of 4300 digits for int()


@pytest.mark.parametrize("decl,query,where", [
    (f"var q : {_LONG}", ["sem", "--formula", "P(q)"], "1:9"),
    (None, ["sem", "--formula", f"meas M.{_LONG}(q1)"], "1:8"),
    (None, ["sat", "--state", f"|{_LONG},0>", "--formula", "P0(q1)"], "1:1"),
], ids=["dimension", "outcome-label", "ket-index"])
def test_overlong_integer_literals_are_parse_errors(fx, tmp_path, capsys, decl, query, where):
    interp = fx("ex1.bvn")
    if decl is not None:
        interp = tmp_path / "long.bvn"
        interp.write_text(decl + "\npredicate P (2) = span { |0> }\n")
    code = main(["-i", str(interp), *query])
    err = capsys.readouterr().err
    assert code == 2
    assert len(err.splitlines()) == 1 and err.startswith(f"error: {where}: ")
    assert "internal error" not in err
    assert len(err.rstrip("\n")) < 200 and "… of 50" in err  # the literal is cut, with its length


def test_internal_error_exits_2_not_1(fx, tmp_path, capsys, monkeypatch):
    # exit 1 is a verdict: a crash inside a query must not read as one
    def broken(*args):
        raise ValueError("broken on purpose")

    monkeypatch.setattr(bvn.cli, "entails", broken)
    report = tmp_path / "r.json"
    code = main(["-i", fx("ex1.bvn"), "--json", str(report), "entail", "P0(q1)", "P0(q1)"])
    err = capsys.readouterr().err
    assert code == 2 and "Traceback" not in err
    assert err.splitlines() == ["error: internal error: ValueError: broken on purpose"]
    assert json.loads(report.read_text())["result"] == {
        "error": "internal error: ValueError: broken on purpose"}


@pytest.mark.parametrize("query", [
    ["--tol-sub", "1", "verify", "{P0(q1)} skip {P0(q2)}"],
    ["--tol-sub", "5", "entail", "P0(q1)", "P0(q2)"],
])
def test_angle_threshold_of_one_or_more_exits_2(fx, capsys, query):
    # at tau_sub >= 1 every inclusion would hold, these two included
    code = main(["-i", fx("ex1.bvn"), *query])
    out, err = capsys.readouterr()
    assert code == 2
    assert "error: tau_sub" in err and "valid" not in out and "entails" not in out


@pytest.mark.parametrize("option", [
    ["--max-steps=-5"], ["--eps", "nan"], ["--eps", "inf"], ["--eps=-1e-12"], ["--eps", "2"],
])
def test_invalid_run_limit_exits_2(fx, capsys, option):
    code = main(["-i", fx("ex1.bvn"), *option, "run", "--program", fx("loop_x.qwp"),
                 "--state", "|10>"])
    err = capsys.readouterr().err
    assert code == 2
    assert "error:" in err and "Traceback" not in err


ILL_FORMED_PROOFS = {
    "QL1: parameter 'formula': unknown predicate symbol 'NOPE'":
        "step a by QL1 with formula = NOPE(q1)\n  shows sequent NOPE(q1) |- NOPE(q1)\n",
    "QQL5: parameter 't1': unknown quantum variable 'q9'":
        "step a by QQL5 with t1 = X(q9); t2 = H(q1); formula = P0(q1)\n"
        "  shows sequent adj<X(q9)>(adj<H(q1)>(P0(q1))) |- adj<X(q9) H(q1)>(P0(q1))\n",
    "QQL9: parameter 'term': unknown quantum variable 'q9'":
        "step a by QQL9 with term = X(q9); left = P0(q1); right = P0(q2)\n"
        "  shows sequent adj<X(q9)>(P0(q1) /\\ P0(q2)) |- adj<X(q9)>(P0(q1)) /\\ "
        "adj<X(q9)>(P0(q2))\n",
    "Ax.In: parameter 'var': unknown quantum variable 'q9'":
        "step a by Ax.In with formula = P0(q1); var = q9\n"
        "  shows triple { adj<0(q9)>(P0(q1)) } q9 := |0> { P0(q1) }\n",
    "R.IF: parameter 'vars': unknown quantum variable 'q9'":
        "step p by Ax.Sk with formula = P0(q1)\n  shows triple { P0(q1) } skip { P0(q1) }\n"
        "step a from p, p by R.IF with meas = M; vars = q9\n"
        "  shows triple { (meas M.0(q9) /\\ P0(q1)) \\/ (meas M.1(q9) /\\ P0(q1)) } "
        "if M[q9] { 0 -> skip | 1 -> skip } fi { P0(q1) }\n",
    "QQL14: parameter 'qvars': ['q1', 'q1'] repeats a variable":
        "step a by QQL14 with term = H(q1); qvars = q1, q1; formula = P0(q1)\n"
        "  shows sequent forall q1 q1 . P0(q1) |- adj<H(q1)>(P0(q1))\n",
    "QT3: takes no parameter 'direction'":
        "step a by QT3 with t1 = H(q1); t2 = X(q2); direction = rl\n"
        "  shows equation H(q1) @ X(q2) = H(q1) X(q2)\n",
}


@pytest.mark.parametrize("flags", [[], ["--cross-check"]])
@pytest.mark.parametrize("message", sorted(ILL_FORMED_PROOFS))
def test_ill_formed_or_unused_parameter_fails_its_step(fx, tmp_path, capsys, message, flags):
    script = tmp_path / "bad.qpf"
    script.write_text(ILL_FORMED_PROOFS[message])
    code = main(["-i", fx("ex1.bvn"), "check-proof", str(script), *flags])
    captured = capsys.readouterr()
    assert code == 1 and captured.err == ""
    assert f"FAIL  {message}" in captured.out
    assert captured.out.rstrip().endswith("proof rejected at step a")


DISCHARGE_ERRORS = {  # rule -> (flags, script); the interpretation declares no generator set
    "R.Con": ([], "step s1 by Ax.Sk with formula = P0(q1)\n"
                  "  shows triple { P0(q1) } skip { P0(q1) }\n"
                  "step a from s1 by R.Con with pre = forall q2 . P0(q1); post = P0(q1)\n"
                  "  shows triple { forall q2 . P0(q1) } skip { P0(q1) }\n"),
    "QL1": (["--cross-check"], "step a by QL1 with formula = forall q2 . P0(q1)\n"
                               "  shows sequent forall q2 . P0(q1) |- forall q2 . P0(q1)\n"),
}


@pytest.mark.parametrize("rule", sorted(DISCHARGE_ERRORS))
def test_package_error_in_a_discharge_fails_its_step(fx, tmp_path, capsys, rule):
    interp = tmp_path / "no_allowed.bvn"
    with open(fx("ex1.bvn"), encoding="utf-8") as fh:
        interp.write_text("".join(line for line in fh if not line.startswith("allowed")))
    flags, text = DISCHARGE_ERRORS[rule]
    script = tmp_path / "proof.qpf"
    script.write_text(text)
    code = main(["-i", str(interp), "check-proof", str(script), *flags])
    captured = capsys.readouterr()
    assert code == 1 and captured.err == ""
    assert f"step a [{rule}] FAIL  {rule}: " in captured.out
    assert "no allowed generator set declared" in captured.out
    assert ("step s1 [Ax.Sk] ok" in captured.out) == (rule == "R.Con")
    assert captured.out.rstrip().endswith("proof rejected at step a")


@pytest.mark.parametrize("query", [
    ["sem", "--formula", "P0(q1) /\\ \u00b2"],
    ["sat", "--state", "|0\u00b2>", "--formula", "P0(q1)"],
])
def test_unicode_digit_exits_2_without_traceback(fx, capsys, query):
    code = main(["-i", fx("ex1.bvn"), *query])
    err = capsys.readouterr().err
    assert code == 2
    assert "unexpected character '\u00b2'" in err and "Traceback" not in err
    assert err.startswith("error: 1:")


def test_main_builds_its_parser_once():
    assert _build_parser() is _build_parser()


def test_repeated_calls_take_only_their_own_options(fx, tmp_path, capsys):
    first, second = tmp_path / "first.json", tmp_path / "second.json"
    assert main(["-i", fx("ex1.bvn"), "--tol-sub", "1e-6", "--json", str(first),
                 "check-proof", "--cross-check", fx("hh_proof.qpf")]) == 0
    written = first.read_text()
    assert json.loads(written)["inputs"]["cross_check"] is True
    assert main(["-i", fx("ex1.bvn"), "check-proof", fx("hh_proof.qpf")]) == 0
    assert "tau_sub=1e-07" in capsys.readouterr().out
    assert first.read_text() == written  # --json was not carried over
    assert main(["-i", fx("ex1.bvn"), "--json", str(second),
                 "check-proof", fx("hh_proof.qpf")]) == 0
    data = json.loads(second.read_text())
    assert data["inputs"] == {"interp": fx("ex1.bvn"), "max_steps": 100_000, "eps": 1e-12,
                              "proof": fx("hh_proof.qpf"), "cross_check": False}
    assert data["tolerances"]["tau_sub"] == 1e-7
    assert [s["cross_check"] for s in data["result"]["steps"]] == [None, None, None]


def test_queries_share_kept_channels_and_start_with_no_formulas(fx, monkeypatch):
    bvn.cli._parsed_interp.cache_clear()
    seen = []
    dispatch = bvn.cli._dispatch

    def recording(args, i, report):
        query = {"interp": i, "kept": dict(i.embedded), "formulas": len(i.evaluated)}
        try:
            return dispatch(args, i, report)
        finally:
            query.update(built=dict(i.embedded), used=len(i.evaluated))
            seen.append(query)

    monkeypatch.setattr(bvn.cli, "_dispatch", recording)
    for argv in (["verify", fx("hh.qht")], ["verify", fx("hh.qht")],
                 ["run", "--program", fx("loop_x.qwp"), "--state", "|10>"]):
        assert main(["-i", fx("ex1.bvn"), *argv]) == 0
    first = seen[0]["interp"]
    assert seen[0]["kept"] == {} and first.evaluated == {}
    assert [(q["formulas"], q["used"] > 0) for q in seen] == [(0, True)] * 3
    assert len(seen[2]["built"]) > len(seen[1]["built"]) > 0  # run adds the outcomes of M
    for earlier, query in zip(seen, seen[1:]):
        assert query["interp"].operations is first.operations  # the bindings are shared
        assert list(query["kept"]) == list(earlier["built"])
        assert all(query["kept"][t] is ch for t, ch in earlier["built"].items())


def test_kept_channels_are_read_only(fx, capsys):
    bvn.cli._parsed_interp.cache_clear()
    for argv in (["verify", fx("hh.qht")],
                 ["run", "--program", fx("loop_x.qwp"), "--state", "|10>"],
                 ["image", "--formula", "P0(q1)", "--term", "H^-1(q1) M.1(q2) 0(q1) I(q2)"],
                 ["forall", "--vars", "q1,q2", "--formula", "P(q1,q2)"]):
        main(["-i", fx("ex1.bvn"), *argv])
    capsys.readouterr()
    with open(fx("ex1.bvn"), encoding="utf-8") as fh:
        kept = bvn.cli._parsed_interp(fh.read(), Tolerances()).embedded
    symbols = {(t.symbol, t.outcome, t.inverse) for t in kept}
    assert {("H", None, True), ("M", 1, False), ("0", None, False), ("I", None, False),
            ("C", None, False)} <= symbols
    arrays = [a for ch in kept.values() for a in (*ch.kraus, *ch.split)]
    assert any(ch.split for ch in kept.values())
    for a in arrays:
        with pytest.raises(ValueError, match="read-only"):
            a[(0,) * a.ndim] = 7


_OTHER_GATES = """var q1 : 2
var q2 : 2
unitary H (2) = [[0, 1], [1, 0]]
unitary X (2) = [[1, 0], [0, i]]
measurement M (2) = { 0: [[1/2, 1/2], [1/2, 1/2]], 1: [[1/2, -1/2], [-1/2, 1/2]] }
predicate P0 (2) = span { |0> }
allowed (2) = { H, X }
"""


def _mixed_queries(fx, tmp_path) -> list:
    """A round of CLI calls over several interpretations: ex1 and noisy, one
    binding H, X and M to other matrices, other tolerances, and nine texts in
    a row, more than the CLI keeps, so ex1 is parsed again after them."""
    ex1, noisy, other = fx("ex1.bvn"), fx("noisy.bvn"), tmp_path / "other.bvn"
    other.write_text(_OTHER_GATES)
    branch = "q1 := H(q1); if M[q2] { 0 -> q1,q2 := C(q1,q2) | 1 -> q2 := |0> } fi"
    bell = "1/sqrt(2)*|00> + 1/sqrt(2)*|11>"
    on_ex1 = [
        ["sem", "--formula", "adj<H(q1)>(P0(q1))"],
        ["sem", "--formula", fx("beta.qlf")],
        ["sat", "--state", "|00>", "--formula", fx("beta.qlf")],
        ["prob", "--state", bell, "--formula", "P0(q1)"],
        ["entail", "P0(q1) /\\ P(q1,q2)", "P0(q1)"],
        ["term-eq", "H(q1) H(q1)", "I(q1)"],
        ["image", "--formula", "P0(q1)", "--program", fx("loop_x.qwp")],
        ["wlp", "--formula", "PX(q1)", "--program", branch],
        ["image", "--formula", "P0(q1)", "--term", "H^-1(q1) M.1(q2) 0(q1)"],
        ["wlp", "--formula", "P(q1,q2)", "--term", "C(q1,q2) H(q1)"],
        ["run", "--program", branch, "--state", bell],
        ["verify", fx("hh.qht")],
        ["verify", "{ P0(q1) } q1 := H(q1) { P0(q1) }"],
        ["check-proof", fx("hh_proof.qpf")],
        ["check-proof", "--cross-check", fx("ql_proof.qpf")],
        ["forall", "--vars", "q1", "--formula", "PX(q1)"],
    ]
    on_noisy = [
        ["term-eq", fx("tau1.qt"), fx("tau2.qt")],
        ["wlp", "--formula", "Pe(q1,q2)", "--term", fx("tau1.qt")],
        ["image", "--formula", "P0(q1)", "--term", fx("tau2.qt")],
        ["run", "--program", "q1 := Ebf(q1); q2 := Epf(q2); q1 := H(q1)", "--state", "|01>"],
        ["check-proof", "--cross-check", fx("con_proof.qpf")],
    ]
    on_other = [
        on_ex1[0],
        ["wlp", "--formula", "P0(q1)", "--program", branch.replace("C(q1,q2)", "X(q2)")],
        ["run", "--program", "q1 := X(q1); q1 := H(q1)", "--state", "|00>"],
        ["image", "--formula", "P0(q2)", "--term", "M.0(q1) H^-1(q2)"],
    ]
    nine = []
    for k in range(1, 10):
        path = tmp_path / f"tilt{k}.bvn"
        path.write_text(f"var q1 : 2\nunitary H (2) = [[1/sqrt(2), 1/sqrt(2)], "
                        f"[1/sqrt(2), -1/sqrt(2)]]\npredicate T (2) = span {{ [{k}, 1] }}\n")
        nine.append(["-i", str(path), "wlp", "--formula", "T(q1)", "--term", "H(q1)"])
    tighter = ["-i", ex1, "--tol-sub", "1e-6"]
    return ([["-i", ex1, *q] for q in on_ex1] + [["-i", str(other), *q] for q in on_other]
            + [[*tighter, *q] for q in on_ex1[3:6]] + [["-i", noisy, *q] for q in on_noisy]
            + [["-i", ex1, *q] for q in on_ex1[::2]] + nine
            + [["-i", ex1, *q] for q in on_ex1[1::2]] + [["-i", str(other), *q] for q in on_other])


def test_a_warm_answer_is_a_cold_answer(fx, tmp_path, capsys):
    def answer(argv):
        status = main(argv)
        return status, capsys.readouterr().out

    def forget():  # every interpretation and query source main keeps
        bvn.cli._parsed_interp.cache_clear()
        bvn.cli._parsed_source.cache_clear()

    queries = _mixed_queries(fx, tmp_path)
    cold = []
    for argv in queries:
        forget()
        cold.append(answer(argv))
    assert {status for status, _ in cold} == {0, 1}
    # the same question on two files that bind H differently has two answers
    assert len({out for argv, (_, out) in zip(queries, cold)
                if argv[2:] == ["sem", "--formula", "adj<H(q1)>(P0(q1))"]}) == 2
    forget()
    warm = [answer(argv) for _ in range(2) for argv in queries]
    for argv, got, want in zip(queries * 2, warm, cold * 2):
        assert got == want, argv


def test_a_parse_error_exits_2_on_every_call(tmp_path, capsys):
    interp = tmp_path / "bad.bvn"
    interp.write_text("var q : 2\nunitary U (2) = [[1, 0], [0\n")
    for _ in range(2):
        assert main(["-i", str(interp), "sem", "--formula", "P0(q)"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "Traceback" not in err


def test_usage_error_does_not_disturb_the_next_call(fx, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["-i", fx("ex1.bvn"), "--tol-sub", "1e-6", "entail", "P0(q1)"])
    assert exc.value.code == 2
    assert "usage: bvn" in capsys.readouterr().err
    assert main(["-i", fx("ex1.bvn"), "entail", "P0(q1) /\\ P(q1,q2)", "P0(q1)"]) == 0
    out = capsys.readouterr().out
    assert "tau_sub=1e-07" in out and out.rstrip().endswith("entails")
    assert main(["-i", fx("ex1.bvn"), "entail", "P0(q1)", "P0(q2)"]) == 1


_BIT_FLIP = """var q : 2
unitary X (2) = [[0, 1], [1, 0]]
channel B (2) = kraus { [[sqrt(1/2), 0], [0, sqrt(1/2)]], [[0, sqrt(1/2)], [sqrt(1/2), 0]] }
"""


@pytest.mark.parametrize("t1, t2, code", [
    ("mix { 0.5: I(q), 0.5: X(q) }", "B(q)", 0),
    ("mix { 0.25: I(q), 0.75: X(q) }", "B(q)", 1),
    ("mix { 0.25: I(q), 0.25: X(q) }", "mix { 0.5: I(q), 0.5: X(q) }", 1),
], ids=["half-half", "quarter-three-quarters", "sub-probabilistic"])
def test_term_eq_on_a_mix(tmp_path, capsys, t1, t2, code):
    interp = tmp_path / "flip.bvn"
    interp.write_text(_BIT_FLIP)
    assert main(["-i", str(interp), "term-eq", t1, t2]) == code
    out = capsys.readouterr().out
    assert out.rstrip().endswith("equal as channels" if code == 0 else "different channels")


def test_qt6_inverts_a_tensor_and_cross_checks(fx, tmp_path, capsys):
    proof = tmp_path / "qt6.qpf"
    proof.write_text("step e by QT6 with term = H(q1) @ X(q2)\n"
                     "  shows equation (H(q1) @ X(q2)) (H^-1(q1) @ X^-1(q2)) = I(q1) I(q2)\n")
    code = main(["-i", fx("ex1.bvn"), "check-proof", str(proof), "--cross-check"])
    out = capsys.readouterr().out
    assert code == 0 and "step e [QT6] ok" in out and "proof accepted" in out


@pytest.mark.parametrize("triple, code", [
    ("{ P0(q1) } q1 := X(q1) X(q1) { P0(q1) }", 0),
    ("{ P0(q1) } q1 := X(q1) { P0(q1) }", 1),
], ids=["valid", "invalid"])
def test_verify_warns_when_image_and_wlp_disagree(fx, tmp_path, capsys, monkeypatch,
                                                  triple, code):
    import bvn.cli

    verdicts = bvn.cli.triple_verdicts

    def wlp_flipped(i, t):
        ok, info, wlp_ok = verdicts(i, t)
        return ok, info, not wlp_ok

    monkeypatch.setattr(bvn.cli, "triple_verdicts", wlp_flipped)
    report = tmp_path / "report.json"
    assert main(["-i", fx("ex1.bvn"), "--json", str(report), "verify", triple]) == code
    lines = capsys.readouterr().out.splitlines()
    assert "warning: image and wlp checks disagree (numerical trouble)" in lines
    assert ("valid" if code == 0 else "invalid") in lines
    result = json.loads(report.read_text())["result"]
    assert result["valid"] is (code == 0) and result["wlp_agrees"] is False


@pytest.mark.parametrize("build, tol, queries", [
    ("blurred_pair_interp", [], [
        (["sem", "--formula", "meas E.0(q,r)"], 0, "rank 2 of 4"),
        (["sem", "--formula", "meas E.1(q,r)"], 0, "rank 2 of 4"),
        (["verify", "{ meas E.1(q,r) } skip { ~meas E.0(q,r) }"], 0, "valid"),
        (["entail", "meas E.0(q,r) /\\ meas E.1(q,r)", "~meas E.0(q,r)"], 0, "entails"),
        (["wlp", "--formula", "meas E.0(q,r)", "--program",
          "if E[q,r] { 0 -> skip | 1 -> skip } fi"], 0, "rank 2 of 4"),
    ]),
    ("blurred_qubit_interp", ["--tol", "1e-6"], [
        (["sem", "--formula", "meas M.0(q)"], 0, "rank 2 of 4"),
        (["wlp", "--formula", "meas M.0(r)", "--program",
          "if M[q] { 0 -> skip | 1 -> skip } fi"], 0, "rank 2 of 4"),
        (["verify", "{ meas M.1(q) } if M[q] { 0 -> skip | 1 -> q := X(q) } fi "
          "{ meas M.0(q) }"], 0, "valid"),
    ]),
], ids=["blurred-pair", "blurred-qubit"])
def test_blurred_measurements_keep_their_declared_ranges(tmp_path, capsys, build, tol, queries):
    interp = tmp_path / "blurred.bvn"
    interp.write_text(interp_to_text(getattr(helpers, build)()))
    for query, code, line in queries:
        assert main(["-i", str(interp), *tol, *query]) == code
        lines = capsys.readouterr().out.splitlines()
        assert line in lines and not any(s.startswith("warning") for s in lines)


def test_measurement_whose_ranges_do_not_tile_exits_2(tmp_path, capsys):
    interp = tmp_path / "half.bvn"
    interp.write_text("var q : 2\n"
                      "measurement M (2) = { 0: [[1, 0], [0, 0.5]], 1: [[0, 0], [0, 0.5]] }\n")
    code = main(["-i", str(interp), "--tol", "0.3", "sem", "--formula", "meas M.0(q)"])
    out, err = capsys.readouterr()
    assert code == 2 and "rank" not in out
    assert "error: measurement 'M': the ranges of its outcomes do not tile its space" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("query", [
    ["sem", "--formula", "~" * 600 + "P0(q1)"],
    ["sem", "--formula", "(" * 250 + "P0(q1)" + ")" * 250],
    ["term-eq", "mix { 0.5: " * 1200 + "H(q1)" + " }" * 1200, "I(q1)"],
], ids=["negations", "parentheses", "mixes"])
def test_input_nested_past_the_stack_exits_2(fx, capsys, query):
    assert main(["-i", fx("ex1.bvn"), *query]) == 2
    out, err = capsys.readouterr()
    assert err == "error: input nests too deeply\n"
    assert all(line.startswith("# ") for line in out.splitlines())  # the header alone


def test_library_callers_get_a_bvn_error_for_deep_nesting(fx):
    # the CLI test's three inputs, each past the stack in the named entry;
    # the mixes are built directly, since their text stops at the parser
    i = parse_interp(Path(fx("ex1.bvn")).read_text())
    negations = parse_formula("~" * 600 + "P0(q1)")
    mixes = BasicTerm("H", ("q1",))
    for _ in range(1200):
        mixes = ProbSumTerm(((0.5, mixes),))
    assert term_wf(i, mixes) == {"q1"}  # the checks walk from a work stack
    x = eval_subspace(i, parse_formula("P0(q1)"))
    nested_ket = "(" * 400 + "|0>" + ")" * 400
    for call in (lambda: eval_subspace(i, negations),
                 lambda: parse_formula("(" * 250 + "P0(q1)" + ")" * 250),
                 lambda: parse_term("mix { 0.5: " * 1200 + "H(q1)" + " }" * 1200),
                 lambda: term_wlp(i, mixes, x),
                 lambda: term_equiv(i, mixes, BasicTerm("H", ("q1",))),
                 lambda: parse_state_vector(nested_ket, [2]),
                 lambda: parse_interp(f"var q : 2\npredicate P (2) = span {{ {nested_ket} }}")):
        with pytest.raises(BvnError, match="^input nests too deeply$"):
            call()


def _gates(n):
    return " ".join(["H(q1)"] * n)


@pytest.mark.parametrize("query, code, line", [
    (["term-eq", _gates(2400), "I(q1)"], 0, "equal as channels"),
    (["term-eq", _gates(2401), "H(q1)"], 0, "equal as channels"),
    (["verify", f"{{ P0(q1) }} q1 := {_gates(2400)} {{ P0(q1) }}"], 0, "valid"),
    (["run", "--program", f"q1 := {_gates(2401)}", "--state", "|00>"], 0,
     "  diagonal: 0.500000 0.000000 0.500000 0.000000"),
], ids=["even-identity", "odd-H", "verify", "run"])
def test_a_term_of_any_length_gets_its_answer(fx, capsys, query, code, line):
    assert main(["-i", fx("ex1.bvn"), *query]) == code
    assert line in capsys.readouterr().out.splitlines()


def test_image_of_a_long_term_is_that_of_its_parity(fx, capsys):
    # 2401 gates H(q1) send P0(q1) to |+> on q1, as one gate does
    outs = []
    for term in (_gates(2401), "H(q1)"):
        assert main(["-i", fx("ex1.bvn"), "image", "--term", term, "--formula", "P0(q1)"]) == 0
        outs.append(capsys.readouterr().out)
    assert outs[0] == outs[1]
    assert "  b0: [+0.707107+0.000000i, +0.000000+0.000000i, +0.707107+0.000000i, " in outs[0]


def test_proof_step_on_a_long_term_fails_as_a_step(fx, tmp_path, capsys):
    # the rule derives the triple; comparing it with the stated one recurses
    gates = _gates(1200)
    script = tmp_path / "long.qpf"
    script.write_text(f"step s1 by Ax.UT with formula = P0(q1); term = {gates}; vars = q1\n"
                      f"  shows triple {{ adj<{gates}>(P0(q1)) }} q1 := {gates} {{ P0(q1) }}\n")
    assert main(["-i", fx("ex1.bvn"), "check-proof", str(script)]) == 1
    out = capsys.readouterr().out.splitlines()
    assert "  step s1 [Ax.UT] FAIL  input nests too deeply" in out
    assert "proof rejected at step s1" in out


def test_loop_with_a_long_body_reports_its_diverged_mass(fx, capsys):
    body = "; ".join(["q2 := H(q2)"] * 2000)
    code = main(["-i", fx("ex1.bvn"), "run", "--program", f"while M[q1] = 1 do {body} od",
                 "--state", "|10>"])
    out = capsys.readouterr().out
    assert code == 0
    assert _perfbench_run_pattern().search(out).groups() == (
        "0.000000000000", "1.000e+00", "truncated", "0")
    assert "  diverged: 1.000e+00" in out.splitlines()


def test_readme_cli_examples_run(monkeypatch, capsys):
    """Every `bvn ...` line of the README's sh blocks answers (exit 0 or 1)
    when run from the repository root."""
    root = Path(__file__).resolve().parents[1]
    blocks = re.findall(r"```sh\n(.*?)```", (root / "README.md").read_text(), re.S)
    lines = [ln for b in blocks for ln in b.splitlines() if ln.startswith("bvn ")]
    assert len(lines) >= 7
    assert any("1/sqrt(2)*|00> + 1/sqrt(2)*|11>" in ln for ln in lines)
    monkeypatch.chdir(root)
    for line in lines:
        code = main(shlex.split(line, comments=True)[1:])
        assert code in (0, 1), (line, capsys.readouterr())
