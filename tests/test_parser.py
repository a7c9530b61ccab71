import os
import random
import time

import numpy as np
import pytest

from bvn import BvnError, ParseError
from bvn.formulas import Adjoint, And, Atom, Forall, MeasAtom, Not, exists_formula, or_formula
from bvn.hoare import EquationJudgment, SequentJudgment, TripleJudgment
from bvn.parser import (
    _Parser,
    formula_to_text,
    parse,
    parse_formula,
    parse_program,
    parse_proof,
    parse_state_vector,
    parse_term,
    parse_triple,
    program_to_text,
    term_to_text,
    triple_to_text,
)
from bvn.programs import CaseProg, Init, SeqProg, Skip, UnitaryAssign, WhileProg
from bvn.terms import BasicTerm, ProbSumTerm, SeqTerm, TensorTerm, identity_term


class TestTermParsing:
    def test_eq1_ast(self):
        t = parse_term("Z(q1) H(q2) C(q1,q2) Y(q1) H(q2)")
        # juxtaposition associates left, leftmost applies first
        assert isinstance(t, SeqTerm)
        assert t.second == BasicTerm("H", ("q2",))
        inner = t.first
        assert inner.second == BasicTerm("Y", ("q1",))

    def test_tensor_binds_looser_than_seq(self):
        t = parse_term("H(q1) Z(q1) @ X(q2)")
        assert isinstance(t, TensorTerm)
        assert isinstance(t.left, SeqTerm)

    def test_mix(self):
        t = parse_term("mix { 0.5: H(q), 0.5: X(q) }")
        assert isinstance(t, ProbSumTerm)
        assert t.branches[0][0] == 0.5

    def test_inverse_and_outcome(self):
        assert parse_term("H^-1(q)") == BasicTerm("H", ("q",), None, True)
        assert parse_term("M.1(q)") == BasicTerm("M", ("q",), 1, False)
        assert parse_term("0(q)") == BasicTerm("0", ("q",))

    def test_grouping(self):
        t = parse_term("H(q) (Z(q) X(q))")
        assert isinstance(t.second, SeqTerm)


class TestFormulaParsing:
    def test_eq2_nested_quantifiers(self):
        b = parse_formula(
            "forall q1 . forall q2 . (P0(q1) /\\ P(q1,q2)) -> P(Z(q1) H(q2) C(q1,q2) Y(q1) H(q2))"
        )
        assert isinstance(b, Forall) and b.variables == ("q1",)
        assert isinstance(b.sub, Forall) and b.sub.variables == ("q2",)

    def test_joint_quantifier(self):
        b = parse_formula("forall q1 q2 . P(q1,q2)")
        assert isinstance(b, Forall) and b.variables == ("q1", "q2")

    def test_bare_variable_atom_sugar(self):
        b = parse_formula("P(q1,q2)")
        assert b == Atom("P", identity_term(["q1", "q2"]))

    def test_atom_with_term(self):
        b = parse_formula("P0(H(q1))")
        assert b == Atom("P0", BasicTerm("H", ("q1",)))

    def test_precedence(self):
        b = parse_formula("~A(q) /\\ B(q) \\/ C(q)")
        assert b == or_formula(And(Not(parse_formula("A(q)")), parse_formula("B(q)")),
                               parse_formula("C(q)"))

    def test_implication_is_sasaki(self):
        b = parse_formula("A(q) -> B(q)")
        a, c = parse_formula("A(q)"), parse_formula("B(q)")
        assert b == or_formula(Not(a), And(a, c))

    def test_adjoint_and_meas(self):
        b = parse_formula("adj<H(q)>(meas M.0(q))")
        assert b == Adjoint(BasicTerm("H", ("q",)), MeasAtom("M", 0, ("q",)))

    def test_exists_desugars(self):
        b = parse_formula("exists q . A(q)")
        assert b == exists_formula(("q",), parse_formula("A(q)"))


class TestProgramParsing:
    def test_constructs(self):
        s = parse_program("q := |0>; q := H(q); while M[q] = 1 do skip od")
        assert isinstance(s, SeqProg)
        assert isinstance(s.second, WhileProg)
        assert s.first == SeqProg(Init("q"), UnitaryAssign(("q",), BasicTerm("H", ("q",))))

    def test_case(self):
        s = parse_program("if M[q] { 0 -> skip | 1 -> q := X(q) } fi")
        assert isinstance(s, CaseProg)
        assert s.branches[0] == (0, Skip())

    def test_loop_guard_must_be_one(self):
        with pytest.raises(ParseError):
            parse_program("while M[q] = 0 do skip od")

    def test_init_requires_zero_ket(self):
        with pytest.raises(ParseError):
            parse_program("q := |1>")


class TestDispatch:
    def test_parse_by_kind(self):
        from bvn.parser import parse

        assert parse("term", "H(q)") == BasicTerm("H", ("q",))
        assert parse("formula", "P0(q)") == Atom("P0", identity_term(["q"]))
        assert parse("program", "skip") == Skip()
        assert isinstance(parse("triple", "{ A(q) } skip { A(q) }").prog, Skip)
        with pytest.raises(Exception):
            parse("nonsense", "x")


class TestErrors:
    def test_position_reported(self):
        with pytest.raises(ParseError) as err:
            parse_formula("P0(q1) /\\\n  ???")
        assert err.value.line == 2
        assert err.value.col >= 3

    def test_parameter_given_twice(self):
        with pytest.raises(ParseError) as err:
            parse_proof("step a by QL1 with formula = PX(q1); formula = P0(q1) "
                         "shows sequent PX(q1) |- PX(q1)")
        assert (err.value.line, err.value.col, err.value.token) == (1, 38, "formula")
        assert "parameter 'formula' given twice" in str(err.value)

    def test_trailing_input(self):
        with pytest.raises(ParseError):
            parse_term("H(q) }")

    def test_unbalanced(self):
        with pytest.raises(ParseError):
            parse_formula("(P0(q1)")


class TestStateVectors:
    def test_ket(self):
        v = parse_state_vector("|10>", [2, 2])
        assert np.allclose(v, np.eye(4)[:, 2])

    def test_comma_ket(self):
        v = parse_state_vector("|1,2>", [2, 3])
        assert np.allclose(v, np.eye(6)[:, 5])

    def test_superposition(self):
        v = parse_state_vector("(|00> + |11>)/sqrt(2)", [2, 2])
        assert np.allclose(v, np.array([1, 0, 0, 1]) / np.sqrt(2))

    def test_coefficients(self):
        v = parse_state_vector("0.6*|0> - 0.8*|1>", [2])
        assert np.allclose(v, [0.6, -0.8])
        v2 = parse_state_vector("i*|1>", [2])
        assert np.allclose(v2, [0, 1j])

    def test_bracket_vector(self):
        v = parse_state_vector("[1/sqrt(2), -1/sqrt(2)]", [2])
        assert np.allclose(v, np.array([1, -1]) / np.sqrt(2))

    def test_out_of_range_ket(self):
        with pytest.raises(ParseError):
            parse_state_vector("|2>", [2])


# -- one arithmetic over numbers, kets and bracket lists ----------------------
#
# Expression trees are drawn by shape: () a number, (4,) a vector over the
# layout (2, 2), (2, 4) a list of two vectors.  Each renders as text with the
# parentheses its precedence needs, and evaluates with numpy on its own.

_LAYOUT = [2, 2]
_LITERALS = [("0.5", 0.5), ("2", 2), ("3", 3), ("1.5", 1.5), ("2e-1", 0.2), ("i", 1j),
             ("2i", 2j), ("0.5i", 0.5j)]
_PREC = {"add": 0, "sub": 0, "mul": 1, "div": 1}  # every other node is an atom, 2


def _draw_expr(rng, shape, depth):
    if depth <= 0 or rng.random() < 0.2:
        if shape == ():
            return ("lit",) + rng.choice(_LITERALS)
        if shape == (4,) and rng.random() < 0.6:
            return ("ket", rng.randrange(4))
        return ("list", [_draw_expr(rng, shape[1:], depth - 1) for _ in range(shape[0])])
    ops = ["add", "sub", "mul", "div", "neg", "group"] + (["sqrt"] if shape == () else ["list"])
    op = rng.choice(ops)
    if op in ("add", "sub"):
        return (op, _draw_expr(rng, shape, depth - 1), _draw_expr(rng, shape, depth - 1))
    if op == "mul":
        a, b = _draw_expr(rng, (), depth - 1), _draw_expr(rng, shape, depth - 1)
        return (op, a, b) if rng.random() < 0.5 else (op, b, a)
    if op == "div":
        while True:
            den = _draw_expr(rng, (), depth - 1)
            if abs(_eval_expr(den)) > 0.2:
                return (op, _draw_expr(rng, shape, depth - 1), den)
    if op in ("neg", "group"):
        return (op, _draw_expr(rng, shape, depth - 1))
    if op == "sqrt":
        return (op, _draw_expr(rng, (), depth - 1))
    return ("list", [_draw_expr(rng, shape[1:], depth - 1) for _ in range(shape[0])])


def _render_expr(node, need=0) -> str:
    op = node[0]
    if op == "lit":
        text = node[1]
    elif op == "ket":
        text = "|" + format(node[1], "02b") + ">"
    elif op == "list":
        text = "[" + ", ".join(_render_expr(c) for c in node[1]) + "]"
    elif op in ("add", "sub"):
        sign = " + " if op == "add" else " - "
        text = _render_expr(node[1], 0) + sign + _render_expr(node[2], 1)
    elif op in ("mul", "div"):
        text = _render_expr(node[1], 1) + ("*" if op == "mul" else "/") + _render_expr(node[2], 2)
    elif op == "neg":
        text = "-" + _render_expr(node[1], 2)
    elif op == "group":
        text = "(" + _render_expr(node[1]) + ")"
    else:
        text = "sqrt(" + _render_expr(node[1]) + ")"
    return f"({text})" if _PREC.get(op, 2) < need else text


def _eval_expr(node):
    op, args = node[0], node[1:]
    if op == "lit":
        return np.complex128(args[1])
    if op == "ket":
        return np.eye(4, dtype=np.complex128)[args[0]]
    if op == "list":
        return np.array([_eval_expr(c) for c in args[0]], dtype=np.complex128)
    if op in ("neg", "group", "sqrt"):
        v = _eval_expr(args[0])
        return -v if op == "neg" else np.sqrt(v) if op == "sqrt" else v
    a, b = _eval_expr(args[0]), _eval_expr(args[1])
    return {"add": np.add, "sub": np.subtract, "mul": np.multiply, "div": np.divide}[op](a, b)


def _forms(node) -> set:
    """The forms in node that the ket grammar of old rejected."""
    op = node[0]
    kids = node[1] if op == "list" else [c for c in node[1:] if isinstance(c, tuple)]
    found = set().union(*(_forms(c) for c in kids))
    if op == "mul" and np.ndim(_eval_expr(node)):
        right_num = not np.ndim(_eval_expr(node[2]))
        found.add("array*number" if right_num else "number*array")
        coef = node[2] if right_num else node[1]
        if coef[0] != "lit":
            found.add("grouped coefficient" if coef[0] == "group" else "compound coefficient")
    if op == "neg" and np.ndim(_eval_expr(node)):
        found.add("negated array")
    if op in ("add", "sub", "mul", "div") and any(c[0] == "list" for c in kids):
        found.add("list arithmetic")
    return found


def _parse_expr(text):
    p = _Parser(text)
    v = p.expr(_LAYOUT)
    p.done()
    return v


def test_one_arithmetic_matches_numpy():
    rng = random.Random(20261019)
    seen: dict = {}
    for k in range(1200):
        shape = [(), (4,), (4,), (2, 4)][k % 4]
        node = _draw_expr(rng, shape, rng.randint(1, 4))
        text = _render_expr(node)
        want = _eval_expr(node)
        got = parse_state_vector(text, _LAYOUT) if shape == (4,) else _parse_expr(text)
        assert np.shape(got) == shape, text
        # the parser divides Python complex numbers, numpy divides its own
        scale = max(1.0, float(np.max(np.abs(want))))
        assert np.max(np.abs(np.asarray(got) - want)) <= 1e-15 * scale, text
        for form in _forms(node):
            seen[form] = seen.get(form, 0) + 1
    assert len(seen) == 6 and min(seen.values()) >= 10, seen


# (where, text, line:col, offending token): each is a ParseError there
SHAPE_ERRORS = [
    ("state", "|00> + 2", "1:6", "+"),
    ("state", "|00>*|00>", "1:5", "*"),
    ("state", "2/|00>", "1:2", "/"),
    ("state", "|00>/(1 - 1)", "1:5", "/"),
    ("state", "[[1, 0, 0, 0], [0, 1, 0, 0]]", "1:1", "["),
    ("state", "[|00>, |11>]", "1:1", "["),
    ("state", "2*(3)", "1:1", "2"),
    ("state", "[1, 0]", "1:1", "["),
    ("state", "sqrt(|00>)/2 + |00>", "1:6", "|00>"),
    ("interp", "var q : 2\nunitary U (2) = [[|0>, 0], [0, 1]]", "2:19", "|0>"),
    ("interp", "var q : 2\nunitary U (2) = [[1, 0], [0]]", "2:26", "["),
    ("interp", "var q : 2\nunitary U (2) = [1, 0]", "2:17", "["),
    ("interp", "var q : 2\nunitary U (2) = [[[1, 0]], [[0, 1]]]", "2:17", "["),
    ("interp", "var q : 2\npredicate P (2) = span { |0>, [[1, 0]] }", "2:31", "["),
    ("term", "mix { |0>: H(q) }", "1:7", "|0>"),
    ("term", "mix { [0.5, 0.5]: H(q) }", "1:7", "["),
]


@pytest.mark.parametrize("where, text, pos, token", SHAPE_ERRORS)
def test_shape_errors_are_parse_errors_at_their_position(where, text, pos, token):
    with pytest.raises(ParseError) as err:
        if where == "state":
            parse_state_vector(text, _LAYOUT)
        else:
            parse(where, text)
    assert (f"{err.value.line}:{err.value.col}", err.value.token) == (pos, token)


class TestProofParsing:
    def test_kinds_and_params(self):
        text = """
        step e1 by QT.Refl with term = H(q)
          shows equation H(q) = H(q)
        step s1 by QL1 with formula = A(q); sigma = { B(q) }
          shows sequent A(q), B(q) |- A(q)
        step t1 from s1 by Ax.Sk with formula = A(q)
          shows triple { A(q) } skip { A(q) }
        """
        script = parse_proof(text)
        assert [s.step_id for s in script.steps] == ["e1", "s1", "t1"]
        assert isinstance(script.steps[0].judgment, EquationJudgment)
        assert isinstance(script.steps[1].judgment, SequentJudgment)
        assert isinstance(script.steps[2].judgment, TripleJudgment)
        assert script.steps[2].premises == ("s1",)
        assert script.steps[1].params["sigma"][0] == parse_formula("B(q)")

    def test_rule_name_with_separators(self):
        text = """
        step a by Hoare-Adaptation with delta = D(q); pvars = q; witness = I(q)
          shows triple { D(q) } skip { D(q) }
        """
        script = parse_proof(text)
        assert script.steps[0].rule == "Hoare-Adaptation"

    def test_hyphenated_keyword_values(self):
        text = """
        step a by QT3 with t1 = H(q1); t2 = X(q2); form = tensor-seq-comm
          shows equation H(q1) @ X(q2) = X(q2) H(q1)
        step b by QT5 with t1 = H(q1); t2 = X(q2); t3 = H(q1); direction = rl
          shows equation (H(q1) X(q2)) H(q1) = H(q1) (X(q2) H(q1))
        """
        script = parse_proof(text)
        assert script.steps[0].params["form"] == "tensor-seq-comm"
        assert script.steps[1].params["direction"] == "rl"


ROUND_TRIP_TERMS = [
    "H(q)",
    "H^-1(q)",
    "0(q)",
    "M.0(q)",
    "Z(q1) H(q2) C(q1,q2) Y(q1) H(q2)",
    "H(q) (Z(q) X(q))",
    "H(q1) @ X(q2)",
    "H(q1) Z(q1) @ X(q2) H(q2)",
    "(H(q1) @ X(q2)) C(q1,q2)",
    "mix { 0.5: H(q), 0.5: X(q) }",
    "mix { 0.25: H(q) Z(q), 0.5: X(q) H(q) }",
    "I(q1) I(q2)",
    "H(q1) @ (X(q2) @ Y(q3))",
    "H(q1) (X(q1) @ Y(q2)) Z(q1)",
    "mix { 0.5: H(q1) @ X(q2), 0.5: mix { 1: X(q1) @ H(q2) } } C(q1,q2)",
]

ROUND_TRIP_FORMULAS = [
    "P0(q1)",
    "P(q1,q2)",
    "P0(H(q1))",
    "~P0(q1)",
    "~~P0(q1)",
    "P0(q1) /\\ P(q1,q2)",
    "P0(q1) \\/ P2(q2)",
    "P0(q1) -> P2(q2)",
    "(P0(q1) \\/ P2(q2)) /\\ P0(q1)",
    "P0(q1) \\/ P2(q2) \\/ P0(q1)",
    "P0(q1) /\\ (P2(q2) /\\ P0(q1))",
    "~(P0(q1) \\/ P2(q2))",
    "adj<H(q1)>(P0(q1))",
    "adj<Z(q1) Ebf(q1)>(~P0(q1))",
    "meas M.1(q1)",
    "forall q1 . P0(q1)",
    "forall q1 q2 . P(q1,q2)",
    "exists q1 . P0(q1)",
    "forall q1 . exists q2 . P(q1,q2)",
    "(forall q1 . P0(q1)) /\\ P2(q2)",
    "(P0(q1) -> P2(q2)) -> P0(q1)",
    "P0(q1) -> P2(q2) -> P0(q1)",
    "forall q1 . (P0(q1) /\\ P(q1,q2)) -> P(C(q1,q2))",
    "~(P0(q1) -> P2(q2))",
    "P(I^-1(q))",
    "P(I^-1(q1) I(q2))",
    "P(I(q1) I.0(q2))",
    "P(I(q1) (I(q2) I(q3)))",
]

ROUND_TRIP_PROGRAMS = [
    "skip",
    "q := |0>",
    "q := H(q)",
    "q1,q2 := C(q1,q2)",
    "skip; skip",
    "q := |0>; q := H(q); q := X(q)",
    "if M[q] { 0 -> skip | 1 -> q := X(q) } fi",
    "while M[q] = 1 do q := H(q) od",
    "while M[q] = 1 do q := H(q); q := Z(q) od",
    "if M[q1] { 0 -> while M[q2] = 1 do skip od | 1 -> q1 := X(q1) } fi",
    "skip; (q := H(q); (skip; q := X(q))); skip",
]


class TestRoundTrips:
    @pytest.mark.parametrize("text", ROUND_TRIP_TERMS)
    def test_terms(self, text):
        ast = parse_term(text)
        assert parse_term(term_to_text(ast)) == ast

    @pytest.mark.parametrize("text", ROUND_TRIP_FORMULAS)
    def test_formulas(self, text):
        ast = parse_formula(text)
        assert parse_formula(formula_to_text(ast)) == ast

    @pytest.mark.parametrize("text", ROUND_TRIP_PROGRAMS)
    def test_programs(self, text):
        ast = parse_program(text)
        assert parse_program(program_to_text(ast)) == ast

    def test_triple(self):
        text = "{ P0(q1) } q1 := H(q1); q1 := H(q1) { P0(q1) }"
        ast = parse_triple(text)
        assert parse_triple(triple_to_text(ast)) == ast

    def test_long_program_prints(self):
        # 2000 statements nest SeqProg 2000 deep; compared as text, since
        # the dataclass == recurses once per ';'
        text = "; ".join(["q1 := H(q1)"] * 2000)
        assert program_to_text(parse_program(text)) == text
        triple = "{ P0(q1) } " + text + " { P0(q1) }"
        assert triple_to_text(parse_triple(triple)) == triple

    def test_long_term_prints(self):
        # 1200 gates nest SeqTerm 1200 deep; compared as text, since the
        # dataclass == recurses once per gate
        text = " ".join(["H(q1)"] * 1200)
        assert term_to_text(parse_term(text)) == text
        assert formula_to_text(parse_formula(f"P0({text})")) == f"P0({text})"

    def test_corpus_is_large_enough(self):
        assert len(ROUND_TRIP_TERMS) + len(ROUND_TRIP_FORMULAS) + len(ROUND_TRIP_PROGRAMS) >= 30


def _tokens(src):
    p = _Parser(src)
    out = []
    for t in p.toks:
        err = p.error("", t)
        out.append((t.kind, t.text, t.value, f"{err.line}:{err.col}"))
    return out


# (source, [(kind, text, value, line:col) for every token] or ("error", message))
LEXICAL_CASES = [
    ("M.1", [("IDENT", "M", None, "1:1"), (".", ".", None, "1:2"), ("NUM", "1", 1, "1:3"),
             ("EOF", "", None, "1:4")]),
    ("forall q .", [("IDENT", "forall", None, "1:1"), ("IDENT", "q", None, "1:8"),
                    (".", ".", None, "1:10"), ("EOF", "", None, "1:11")]),
    ("1.5.3", [("NUM", "1.5", 1.5, "1:1"), (".", ".", None, "1:4"), ("NUM", "3", 3, "1:5"),
               ("EOF", "", None, "1:6")]),
    ("2e-3", [("NUM", "2e-3", 0.002, "1:1"), ("EOF", "", None, "1:5")]),
    ("2e", [("NUM", "2", 2, "1:1"), ("IDENT", "e", None, "1:2"), ("EOF", "", None, "1:3")]),
    ("|0,1>", [("KET", "|0,1>", "0,1", "1:1"), ("EOF", "", None, "1:6")]),
    ("|>", [("|", "|", None, "1:1"), (">", ">", None, "1:2"), ("EOF", "", None, "1:3")]),
    ("|-", [("|-", "|-", None, "1:1"), ("EOF", "", None, "1:3")]),
    ("H^-1", [("IDENT", "H", None, "1:1"), ("^-1", "^-1", None, "1:2"),
              ("EOF", "", None, "1:5")]),
    ("a->b", [("IDENT", "a", None, "1:1"), ("->", "->", None, "1:2"),
              ("IDENT", "b", None, "1:4"), ("EOF", "", None, "1:5")]),
    ("x # comment /\\ 1\n y", [("IDENT", "x", None, "1:1"), ("IDENT", "y", None, "2:2"),
                                ("EOF", "", None, "2:3")]),
    ("a\r\n\tb\r\n", [("IDENT", "a", None, "1:1"), ("IDENT", "b", None, "2:2"),
                     ("EOF", "", None, "3:1")]),
    ("q\u00b2_1", [("IDENT", "q\u00b2_1", None, "1:1"), ("EOF", "", None, "1:5")]),
    ("a\nb\n  $", ("error", "3:3: unexpected character '$' (at '$')")),
    ("P0(q1) /\\ \u00b2", ("error", "1:11: unexpected character '\u00b2' (at '\u00b2')")),
    ("|0\u00b2>", ("error", "1:3: unexpected character '\u00b2' (at '\u00b2')")),
    ("var q : \u0663", ("error", "1:9: unexpected character '\u0663' (at '\u0663')")),
    ("1.\u0663", ("error", "1:3: unexpected character '\u0663' (at '\u0663')")),
    ("\u00bd", ("error", "1:1: unexpected character '\u00bd' (at '\u00bd')")),
]


class TestLexer:
    @pytest.mark.parametrize("src, expected", LEXICAL_CASES)
    def test_lexical_corner_cases(self, src, expected):
        if expected[0] == "error":
            with pytest.raises(ParseError) as err:
                _Parser(src)
            assert str(err.value) == expected[1]
        else:
            assert _tokens(src) == expected


@pytest.mark.parametrize("kind, text, where", [
    ("interp", "var q : 2.9", "1:9"),
    ("interp", "var q : 2e0", "1:9"),
    ("interp", "unitary U (2.0) = [[1, 0], [0, 1]]", "1:12"),
    ("interp", "var q : 2\nmeasurement M (2) = { 1.7: [[1, 0], [0, 1]] }", "2:23"),
    ("term", "M.1.0(q)", "1:3"),
    ("term", "0.0(q)", "1:1"),
    ("formula", "meas M.1.7(q)", "1:8"),
    ("program", "if M[q] { 1.0 -> skip } fi", "1:11"),
    ("program", "while M[q] = 1.0 do skip od", "1:14"),
    ("proof", "step a by R with max_steps = 2.5 shows sequent |- A(q)", "1:30"),
])
def test_non_integer_literal_rejected(kind, text, where):
    with pytest.raises(ParseError) as err:
        parse(kind, text)
    assert f"{err.value.line}:{err.value.col}" == where
    assert err.value.token in text and not err.value.token.isdigit()


FIXTURE_KINDS = {".bvn": "interp", ".qt": "term", ".qlf": "formula", ".qwp": "program",
                 ".qht": "triple", ".qpf": "proof"}


def test_mutated_sources_raise_only_package_errors(fixture_path):
    """Random edits of the fixture sources parse or raise a BvnError, never
    anything else; the alphabet holds non-ASCII digits and letters."""
    sources = []
    for name in sorted(os.listdir(fixture_path(""))):
        with open(fixture_path(name), encoding="utf-8") as fh:
            sources.append((FIXTURE_KINDS[os.path.splitext(name)[1]], fh.read()))
    alphabet = "0123456789.,;:|<>=+-*/@~^()[]{}#_ \n\\eiqxM" + "\u00b2\u0663\u00bd\u2167\u00e9"
    rng = random.Random(20261018)
    start = time.perf_counter()
    for _ in range(2400):
        kind, text = rng.choice(sources)
        for _ in range(rng.randint(1, 3)):
            k = rng.randrange(len(text) + 1)
            cut = rng.choice((0, 1))
            text = text[:k] + rng.choice(alphabet) * rng.choice((0, 1, 1)) + text[k + cut:]
        try:
            parse(kind, text)
        except BvnError:
            pass
    assert time.perf_counter() - start < 2.0
