r"""Surface syntax: lexer, parsers and pretty-printers.

One parser per source kind: interpretation files (.bvn), terms (.qt),
formulas (.qlf), programs (.qwp), Hoare triples (.qht) and proof scripts
(.qpf).  The grammar needs one token of lookahead everywhere except the
atom-vs-variable-list sugar P(q1,q2), which backtracks within one
parenthesis group.

Concrete syntax summary:

  terms      Z(q1) H(q2) C(q1,q2)      juxtaposition applies left first
             t1 @ t2                   tensor product (disjoint variables)
             mix { 0.5: H(q), 0.5: X(q) }
             H^-1(q), 0(q), M.1(q)     inverse, reset, measurement outcome
  formulas   ~b, a /\ b, a \/ b, a -> b (Sasaki), adj<t>(b),
             forall q1 q2 . b, exists q . b, meas M.0(q), P(t), P(q1,q2)
  programs   skip, q := |0>, q1,q2 := t, S1; S2,
             if M[q] { 0 -> S0 | 1 -> S1 } fi, while M[q] = 1 do S od
  proofs     step <id> [from <ids>] by <rule> [with k = v; ...] shows <judgment>

Numeric literals admit complex arithmetic: 1/sqrt(2), 0.5+0.5i, -2i.
Kets |01> (digit string) or |0,1> (comma indices) over the relevant
variable layout.  Comments run from '#' to end of line.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ParseError, WellFormednessError
from .formulas import (
    Adjoint,
    And,
    Atom,
    Forall,
    Formula,
    MeasAtom,
    Not,
    exists_formula,
    or_formula,
    sasaki_formula,
)
from .hoare import (
    PARAM_KINDS,
    EquationJudgment,
    HoareTriple,
    ProofScript,
    ProofStep,
    SequentJudgment,
    TripleJudgment,
)
from .interp import Interpretation, build
from .programs import (
    CaseProg,
    Init,
    Program,
    SeqProg,
    Skip,
    UnitaryAssign,
    WhileProg,
)
from .terms import BasicTerm, ProbSumTerm, SeqTerm, Term, TensorTerm

__all__ = [
    "parse",
    "parse_term",
    "parse_formula",
    "parse_program",
    "parse_triple",
    "parse_proof",
    "parse_interp",
    "parse_state_vector",
    "term_to_text",
    "formula_to_text",
    "program_to_text",
    "triple_to_text",
    "interp_to_text",
]


@dataclass
class Token:
    kind: str  # NUM, IDENT, KET, punctuation text
    text: str
    value: object
    line: int
    col: int


_PUNCT2 = ("/\\", "\\/", "->", ":=", "|-", "^-1")
_PUNCT1 = "()[]{},:;.|<>=+-*/@~^"


def _lex(src: str) -> list:
    toks: list = []
    line, col = 1, 1
    k, n = 0, len(src)

    def advance(m: int):
        nonlocal k, line, col
        for _ in range(m):
            if k < n and src[k] == "\n":
                line += 1
                col = 1
            else:
                col += 1
            k += 1

    while k < n:
        c = src[k]
        if c in " \t\r\n":
            advance(1)
            continue
        if c == "#":
            while k < n and src[k] != "\n":
                advance(1)
            continue
        start_line, start_col = line, col
        # ket: | digits > or | idx , idx >
        if c == "|":
            j = k + 1
            body = ""
            while j < n and (src[j].isdigit() or src[j] == ","):
                body += src[j]
                j += 1
            if body and j < n and src[j] == ">":
                toks.append(Token("KET", src[k : j + 1], body, start_line, start_col))
                advance(j + 1 - k)
                continue
        matched2 = src[k : k + 3] if src[k : k + 3] == "^-1" else src[k : k + 2]
        if matched2 in _PUNCT2:
            toks.append(Token(matched2, matched2, None, start_line, start_col))
            advance(len(matched2))
            continue
        if c.isdigit():
            j = k
            seen_dot = False
            while j < n and (src[j].isdigit() or (src[j] == "." and not seen_dot)):
                if src[j] == ".":
                    # keep 'M.1' and 'forall q .' intact: a dot not followed
                    # by a digit ends the number
                    if j + 1 >= n or not src[j + 1].isdigit():
                        break
                    seen_dot = True
                j += 1
            if j < n and src[j] in "eE" and j + 1 < n and (
                src[j + 1].isdigit() or (src[j + 1] in "+-" and j + 2 < n and src[j + 2].isdigit())
            ):
                j += 2
                while j < n and src[j].isdigit():
                    j += 1
            text = src[k:j]
            value = float(text) if ("." in text or "e" in text or "E" in text) else int(text)
            toks.append(Token("NUM", text, value, start_line, start_col))
            advance(j - k)
            continue
        if c.isalpha() or c == "_":
            j = k
            while j < n and (src[j].isalnum() or src[j] == "_"):
                j += 1
            text = src[k:j]
            toks.append(Token("IDENT", text, text, start_line, start_col))
            advance(j - k)
            continue
        if c in _PUNCT1:
            toks.append(Token(c, c, None, start_line, start_col))
            advance(1)
            continue
        raise ParseError(f"unexpected character {c!r}", line, col, c)
    toks.append(Token("EOF", "", None, line, col))
    return toks


class _Parser:
    def __init__(self, text: str):
        self.toks = _lex(text)
        self.k = 0

    def peek(self, ahead: int = 0) -> Token:
        return self.toks[min(self.k + ahead, len(self.toks) - 1)]

    def next(self) -> Token:
        t = self.toks[self.k]
        if t.kind != "EOF":
            self.k += 1
        return t

    def at(self, kind: str, text: str | None = None) -> bool:
        t = self.peek()
        return t.kind == kind and (text is None or t.text == text)

    def accept(self, kind: str, text: str | None = None):
        if self.at(kind, text):
            return self.next()
        return None

    def expect(self, kind: str, what: str | None = None) -> Token:
        t = self.peek()
        if t.kind != kind:
            raise ParseError(f"expected {what or kind}", t.line, t.col, t.text)
        return self.next()

    def fail(self, message: str):
        t = self.peek()
        raise ParseError(message, t.line, t.col, t.text)

    def expect_keyword(self, word: str):
        t = self.peek()
        if not (t.kind == "IDENT" and t.text == word):
            raise ParseError(f"expected {word!r}", t.line, t.col, t.text)
        return self.next()

    def done(self):
        t = self.peek()
        if t.kind != "EOF":
            raise ParseError("trailing input", t.line, t.col, t.text)

    # -- scalar expressions ------------------------------------------------

    def scalar(self) -> complex:
        v = self.scalar_term()
        while self.at("+") or self.at("-"):
            op = self.next().kind
            rhs = self.scalar_term()
            v = v + rhs if op == "+" else v - rhs
        return v

    def scalar_term(self) -> complex:
        v = self.scalar_factor()
        while self.at("*") or self.at("/"):
            op = self.next().kind
            rhs = self.scalar_factor()
            if op == "/":
                if rhs == 0:
                    self.fail("division by zero in a scalar literal")
                v = v / rhs
            else:
                v = v * rhs
        return v

    def scalar_factor(self) -> complex:
        if self.accept("-"):
            return -self.scalar_factor()
        if self.at("NUM"):
            v = complex(self.next().value)
            if self.at("IDENT", "i"):
                self.next()
                return v * 1j
            return v
        if self.at("IDENT", "i"):
            self.next()
            return 1j
        if self.at("IDENT", "sqrt"):
            self.next()
            self.expect("(")
            v = self.scalar()
            self.expect(")")
            return complex(np.sqrt(v))
        if self.accept("("):
            v = self.scalar()
            self.expect(")")
            return v
        self.fail("expected a number")

    def real_scalar(self) -> float:
        v = self.scalar()
        if abs(v.imag) > 1e-12:
            self.fail("expected a real number")
        return float(v.real)

    # -- vectors and matrices ----------------------------------------------

    def bracket_vector(self) -> np.ndarray:
        self.expect("[")
        entries = [self.scalar()]
        while self.accept(","):
            entries.append(self.scalar())
        self.expect("]")
        return np.array(entries, dtype=np.complex128)

    def matrix(self) -> np.ndarray:
        self.expect("[")
        rows = [self.bracket_vector()]
        while self.accept(","):
            rows.append(self.bracket_vector())
        self.expect("]")
        width = len(rows[0])
        if any(len(r) != width for r in rows):
            self.fail("ragged matrix rows")
        return np.array(rows, dtype=np.complex128)

    def ket_vector(self, layout) -> np.ndarray:
        tok = self.expect("KET", "a ket like |01>")
        total = int(math.prod(layout)) if layout else 1
        body = tok.value
        if "," in body:
            idx = [int(p) for p in body.split(",") if p != ""]
        else:
            idx = [int(ch) for ch in body]
        if len(idx) != len(layout):
            raise ParseError(
                f"ket names {len(idx)} factors, layout has {len(layout)}",
                tok.line, tok.col, tok.text,
            )
        for pos, (ix, d) in enumerate(zip(idx, layout)):
            if ix >= d:
                raise ParseError(
                    f"ket index {ix} out of range for factor {pos} (dim {d})",
                    tok.line, tok.col, tok.text,
                )
        flat = int(np.ravel_multi_index(idx, layout)) if layout else 0
        v = np.zeros(total, dtype=np.complex128)
        v[flat] = 1.0
        return v

    def vector(self, layout) -> np.ndarray:
        """Vector literal: bracket list, or ket arithmetic over the layout."""
        if self.at("["):
            v = self.bracket_vector()
            total = int(math.prod(layout)) if layout else 1
            if v.shape[0] != total:
                self.fail(f"vector has {v.shape[0]} entries, layout needs {total}")
            return v
        return self.vec_expr(layout)

    def vec_expr(self, layout) -> np.ndarray:
        v = self.vec_term(layout)
        while self.at("+") or self.at("-"):
            op = self.next().kind
            rhs = self.vec_term(layout)
            v = v + rhs if op == "+" else v - rhs
        return v

    def vec_term(self, layout) -> np.ndarray:
        # coefficient form: <scalar factor> * <ket/group>, e.g. 0.5*|01>
        if self.at("KET") or self.at("("):
            v = self.vec_atom(layout)
        else:
            coef = self.scalar_factor()
            self.expect("*")
            v = coef * self.vec_atom(layout)
        while self.accept("/"):
            den = self.scalar_factor()
            if den == 0:
                self.fail("division by zero")
            v = v / den
        return v

    def vec_atom(self, layout) -> np.ndarray:
        if self.at("KET"):
            return self.ket_vector(layout)
        self.expect("(")
        v = self.vec_expr(layout)
        self.expect(")")
        return v

    # -- terms ---------------------------------------------------------------

    def varlist(self) -> tuple:
        names = [self.expect("IDENT", "a variable name").text]
        while self.accept(","):
            names.append(self.expect("IDENT", "a variable name").text)
        return tuple(names)

    def term(self) -> Term:
        t = self.term_seq()
        while self.accept("@"):
            t = TensorTerm(t, self.term_seq())
        return t

    def term_seq(self) -> Term:
        t = self.term_atom()
        while self.at("IDENT") and not self._at_term_boundary() or self.at("(") or self.at("NUM"):
            t = SeqTerm(t, self.term_atom())
        return t

    _TERM_KEYWORDS = {"mix"}
    _STOP_WORDS = {"do", "od", "fi", "with", "shows", "by", "from", "step"}

    def _at_term_boundary(self) -> bool:
        t = self.peek()
        return t.kind == "IDENT" and t.text in self._STOP_WORDS

    def term_atom(self) -> Term:
        if self.at("NUM"):
            tok = self.next()
            if tok.value != 0:
                raise ParseError("only 0(q) resets are terms", tok.line, tok.col, tok.text)
            self.expect("(")
            names = self.varlist()
            self.expect(")")
            if len(names) != 1:
                raise ParseError("reset takes one variable", tok.line, tok.col, tok.text)
            return BasicTerm("0", names)
        if self.accept("("):
            t = self.term()
            self.expect(")")
            return t
        ident = self.expect("IDENT", "an operation symbol")
        if ident.text == "mix":
            self.expect("{")
            branches = []
            while True:
                w = self.real_scalar()
                self.expect(":")
                branches.append((w, self.term()))
                if not self.accept(","):
                    break
            self.expect("}")
            return ProbSumTerm(tuple(branches))
        inverse = bool(self.accept("^-1"))
        outcome = None
        if self.accept("."):
            outcome = int(self.expect("NUM", "an outcome label").value)
        self.expect("(")
        names = self.varlist()
        self.expect(")")
        return BasicTerm(ident.text, names, outcome, inverse)

    # -- formulas --------------------------------------------------------------

    def formula(self) -> Formula:
        f = self.formula_or()
        if self.accept("->"):
            return sasaki_formula(f, self.formula())
        return f

    def formula_or(self) -> Formula:
        f = self.formula_and()
        while self.accept("\\/"):
            f = or_formula(f, self.formula_and())
        return f

    def formula_and(self) -> Formula:
        f = self.formula_unary()
        while self.accept("/\\"):
            f = And(f, self.formula_unary())
        return f

    def formula_unary(self) -> Formula:
        if self.accept("~"):
            return Not(self.formula_unary())
        if self.at("IDENT", "adj"):
            self.next()
            self.expect("<")
            t = self.term()
            self.expect(">")
            self.expect("(")
            f = self.formula()
            self.expect(")")
            return Adjoint(t, f)
        if self.at("IDENT", "forall") or self.at("IDENT", "exists"):
            word = self.next().text
            names = [self.expect("IDENT", "a variable name").text]
            while self.at("IDENT"):
                names.append(self.next().text)
            self.expect(".")
            body = self.formula()
            if word == "forall":
                return Forall(tuple(names), body)
            return exists_formula(tuple(names), body)
        if self.at("IDENT", "meas"):
            self.next()
            sym = self.expect("IDENT", "a measurement symbol").text
            self.expect(".")
            outcome = int(self.expect("NUM", "an outcome label").value)
            self.expect("(")
            names = self.varlist()
            self.expect(")")
            return MeasAtom(sym, outcome, names)
        if self.accept("("):
            f = self.formula()
            self.expect(")")
            return f
        pred = self.expect("IDENT", "a predicate symbol").text
        self.expect("(")
        saved = self.k
        names = self._try_bare_varlist()
        if names is not None:
            from .terms import identity_term

            return Atom(pred, identity_term(names))
        self.k = saved
        t = self.term()
        self.expect(")")
        return Atom(pred, t)

    def _try_bare_varlist(self):
        names = []
        while True:
            if not self.at("IDENT"):
                return None
            if self.peek(1).kind in ("(", ".", "^-1"):
                return None
            names.append(self.next().text)
            if self.accept(","):
                continue
            if self.accept(")"):
                return tuple(names)
            return None

    # -- programs ---------------------------------------------------------------

    def program(self) -> Program:
        s = self.statement()
        while self.accept(";"):
            s = SeqProg(s, self.statement())
        return s

    def statement(self) -> Program:
        if self.at("IDENT", "skip"):
            self.next()
            return Skip()
        if self.at("IDENT", "if"):
            self.next()
            meas = self.expect("IDENT", "a measurement symbol").text
            self.expect("[")
            names = self.varlist()
            self.expect("]")
            self.expect("{")
            branches = [self.case_branch()]
            while self.accept("|"):
                branches.append(self.case_branch())
            self.expect("}")
            self.expect_keyword("fi")
            return CaseProg(meas, names, tuple(branches))
        if self.at("IDENT", "while"):
            self.next()
            meas = self.expect("IDENT", "a measurement symbol").text
            self.expect("[")
            names = self.varlist()
            self.expect("]")
            self.expect("=")
            one = self.expect("NUM", "the loop guard outcome 1")
            if one.value != 1:
                raise ParseError("loops run while the guard yields 1", one.line, one.col, one.text)
            self.expect_keyword("do")
            body = self.program()
            self.expect_keyword("od")
            return WhileProg(meas, names, body)
        if self.accept("("):
            s = self.program()
            self.expect(")")
            return s
        names = self.varlist()
        self.expect(":=")
        if self.at("KET"):
            tok = self.next()
            if tok.value != "0" or len(names) != 1:
                raise ParseError(
                    "initialisation has the form q := |0>", tok.line, tok.col, tok.text
                )
            return Init(names[0])
        return UnitaryAssign(names, self.term())

    def case_branch(self):
        outcome = int(self.expect("NUM", "an outcome label").value)
        self.expect("->")
        return outcome, self.program()

    # -- triples and judgments ----------------------------------------------------

    def triple(self) -> HoareTriple:
        self.expect("{")
        pre = self.formula()
        self.expect("}")
        prog = self.program()
        self.expect("{")
        post = self.formula()
        self.expect("}")
        return HoareTriple(pre, prog, post)

    def judgment(self):
        word = self.expect("IDENT", "triple / sequent / equation").text
        if word == "triple":
            return TripleJudgment(self.triple())
        if word == "sequent":
            context = []
            if not self.at("|-"):
                context.append(self.formula())
                while self.accept(","):
                    context.append(self.formula())
            self.expect("|-")
            return SequentJudgment(tuple(context), self.formula())
        if word == "equation":
            left = self.term()
            self.expect("=")
            return EquationJudgment(left, self.term())
        self.fail("expected one of: triple, sequent, equation")

    # -- proof scripts ---------------------------------------------------------------

    def rule_name(self) -> str:
        name = self.expect("IDENT", "a rule name").text
        while self.at(".") or self.at("-"):
            sep = self.next().kind
            part = self.next()
            if part.kind not in ("IDENT", "NUM"):
                raise ParseError("malformed rule name", part.line, part.col, part.text)
            name += sep + part.text
        return name

    def binding(self):
        key = self.expect("IDENT", "a parameter name").text
        self.expect("=")
        kind = PARAM_KINDS.get(key)
        if kind == "formula":
            return key, self.formula()
        if kind == "term":
            return key, self.term()
        if kind == "vars":
            return key, self.varlist()
        if kind in ("name", "var"):
            return key, self.expect("IDENT", "a symbol").text
        if kind == "word":
            word = self.expect("IDENT", "a keyword").text
            while self.accept("-"):
                word += "-" + self.expect("IDENT", "a keyword").text
            return key, word
        if kind == "int":
            return key, int(self.expect("NUM", "an integer").value)
        if kind == "weights":
            ws = [self.real_scalar()]
            while self.accept(","):
                ws.append(self.real_scalar())
            return key, ws
        if kind == "flag":
            return key, self.expect("IDENT", "true or false").text == "true"
        if kind == "formulas":
            self.expect("{")
            fs = []
            if not self.at("}"):
                fs.append(self.formula())
                while self.accept(","):
                    fs.append(self.formula())
            self.expect("}")
            return key, tuple(fs)
        self.fail(f"unknown parameter {key!r}")

    def proof(self) -> ProofScript:
        steps = []
        while self.at("IDENT", "step"):
            self.next()
            step_id = self.expect("IDENT", "a step id").text
            premises: tuple = ()
            if self.at("IDENT", "from"):
                self.next()
                ids = [self.expect("IDENT", "a step id").text]
                while self.accept(","):
                    ids.append(self.expect("IDENT", "a step id").text)
                premises = tuple(ids)
            self.expect_keyword("by")
            rule = self.rule_name()
            params: dict = {}
            if self.at("IDENT", "with"):
                self.next()
                k, v = self.binding()
                params[k] = v
                while self.accept(";"):
                    k, v = self.binding()
                    params[k] = v
            self.expect_keyword("shows")
            steps.append(ProofStep(step_id, self.judgment(), rule, premises, params))
        if not steps:
            self.fail("a proof script needs at least one step")
        return ProofScript(steps)

    # -- interpretation files -----------------------------------------------------------

    def signature(self) -> tuple:
        self.expect("(")
        dims = [int(self.expect("NUM", "a dimension").value)]
        while self.accept(","):
            dims.append(int(self.expect("NUM", "a dimension").value))
        self.expect(")")
        return tuple(dims)

    def interp(self, tol=None) -> Interpretation:
        from .config import DEFAULT_TOL

        variables: list = []
        operations: list = []
        measurements: list = []
        predicates: list = []
        allowed: list = []
        while self.at("IDENT"):
            word = self.next().text
            if word == "var":
                name = self.expect("IDENT", "a variable name").text
                self.expect(":")
                dim = int(self.expect("NUM", "a dimension").value)
                variables.append((name, dim))
            elif word in ("unitary", "channel"):
                name = self.expect("IDENT", "an operation symbol").text
                sig = self.signature()
                self.expect("=")
                if word == "unitary":
                    operations.append((name, sig, [self.matrix()], True))
                else:
                    self.expect_keyword("kraus")
                    self.expect("{")
                    ops = [self.matrix()]
                    while self.accept(","):
                        ops.append(self.matrix())
                    self.expect("}")
                    operations.append((name, sig, ops, False))
            elif word == "measurement":
                name = self.expect("IDENT", "a measurement symbol").text
                sig = self.signature()
                self.expect("=")
                self.expect("{")
                pairs = []
                while True:
                    outcome = int(self.expect("NUM", "an outcome label").value)
                    self.expect(":")
                    pairs.append((outcome, self.matrix()))
                    if not self.accept(","):
                        break
                self.expect("}")
                measurements.append((name, sig, pairs))
            elif word == "predicate":
                name = self.expect("IDENT", "a predicate symbol").text
                sig = self.signature()
                self.expect("=")
                if self.at("IDENT", "zero"):
                    self.next()
                    from .linalg import Subspace

                    predicates.append((name, sig, Subspace.zero(int(math.prod(sig)))))
                else:
                    self.expect_keyword("span")
                    self.expect("{")
                    vectors = [self.vector(list(sig))]
                    while self.accept(","):
                        vectors.append(self.vector(list(sig)))
                    self.expect("}")
                    predicates.append((name, sig, np.array(vectors)))
            elif word == "allowed":
                sig = self.signature()
                self.expect("=")
                self.expect("{")
                symbols = []
                if not self.at("}"):
                    symbols.append(self.expect("IDENT", "an operation symbol").text)
                    while self.accept(","):
                        symbols.append(self.expect("IDENT", "an operation symbol").text)
                self.expect("}")
                allowed.append((sig, symbols))
            else:
                self.fail(f"unknown declaration {word!r}")
        self.done()
        return build(
            variables, operations, measurements, predicates, allowed,
            tol=tol or DEFAULT_TOL,
        )


def _run(parser_method, text: str):
    p = _Parser(text)
    out = parser_method(p)
    p.done()
    return out


def parse_term(text: str) -> Term:
    return _run(_Parser.term, text)


def parse_formula(text: str) -> Formula:
    return _run(_Parser.formula, text)


def parse_program(text: str) -> Program:
    return _run(_Parser.program, text)


def parse_triple(text: str) -> HoareTriple:
    return _run(_Parser.triple, text)


def parse_proof(text: str) -> ProofScript:
    return _run(_Parser.proof, text)


def parse_interp(text: str, tol=None) -> Interpretation:
    p = _Parser(text)
    return p.interp(tol)


def parse_state_vector(text: str, layout) -> np.ndarray:
    p = _Parser(text)
    v = p.vector(list(layout))
    p.done()
    return v


def parse(kind: str, text: str):
    """Dispatch by source kind: interp, term, formula, program, triple, proof."""
    table = {
        "interp": parse_interp,
        "term": parse_term,
        "formula": parse_formula,
        "program": parse_program,
        "triple": parse_triple,
        "proof": parse_proof,
    }
    if kind not in table:
        raise WellFormednessError(f"unknown source kind {kind!r}")
    return table[kind](text)


# ---------------------------------------------------------------------------
# pretty-printers (parse . print == identity on ASTs)
# ---------------------------------------------------------------------------


def term_to_text(t: Term, parent: str = "top") -> str:
    if isinstance(t, BasicTerm):
        head = t.symbol
        if t.inverse:
            head += "^-1"
        if t.outcome is not None:
            head += f".{t.outcome}"
        return f"{head}({','.join(t.variables)})"
    if isinstance(t, SeqTerm):
        text = f"{term_to_text(t.first, 'seq')} {term_to_text(t.second, 'seq-right')}"
        return f"({text})" if parent in ("seq-right",) else text
    if isinstance(t, TensorTerm):
        text = f"{term_to_text(t.left, 'tensor')} @ {term_to_text(t.right, 'tensor-right')}"
        return f"({text})" if parent not in ("top", "tensor") else text
    if isinstance(t, ProbSumTerm):
        inner = ", ".join(f"{_num(w)}: {term_to_text(c)}" for w, c in t.branches)
        return "mix { " + inner + " }"
    raise WellFormednessError(f"not a term node: {t!r}")


def _num(x: float) -> str:
    return repr(int(x)) if float(x).is_integer() else repr(float(x))


def _complex_text(z: complex) -> str:
    # adding 0.0 folds IEEE negative zeros so reprints are stable
    re, im = float(np.real(z)) + 0.0, float(np.imag(z)) + 0.0
    if im == 0.0:
        return _num(re)
    if re == 0.0:
        return f"{_num(im)}i" if im >= 0 else f"-{_num(-im)}i"
    sign = "+" if im >= 0 else "-"
    return f"{_num(re)}{sign}{_num(abs(im))}i"


def _matrix_text(m: np.ndarray) -> str:
    rows = ", ".join(
        "[" + ", ".join(_complex_text(z) for z in row) + "]" for row in np.asarray(m)
    )
    return "[" + rows + "]"


def _is_identity_seq(t: Term):
    names = []
    node = t
    while isinstance(node, SeqTerm):
        if not (isinstance(node.second, BasicTerm) and node.second.symbol == "I"
                and len(node.second.variables) == 1):
            return None
        names.append(node.second.variables[0])
        node = node.first
    if isinstance(node, BasicTerm) and node.symbol == "I" and len(node.variables) == 1:
        names.append(node.variables[0])
        return tuple(reversed(names))
    return None


def _or_parts(b: Formula):
    """Disjuncts (p, q) when b has the derived-or shape ~(~p /\\ ~q)."""
    if isinstance(b, Not) and isinstance(b.sub, And):
        inner = b.sub
        if isinstance(inner.left, Not) and isinstance(inner.right, Not):
            return inner.left.sub, inner.right.sub
    return None


# precedence levels: implication / quantifier 0, or 1, and 2, prefix 3, atom 4
def formula_to_text(b: Formula, level: int = 0) -> str:
    if isinstance(b, Not) and isinstance(b.sub, Forall) and isinstance(b.sub.sub, Not):
        text = (
            f"exists {' '.join(b.sub.variables)} . "
            f"{formula_to_text(b.sub.sub.sub, 0)}"
        )
        return f"({text})" if level > 0 else text
    parts = _or_parts(b)
    if parts is not None:
        p, q = parts
        if isinstance(p, Not) and isinstance(q, And) and p.sub == q.left:
            text = f"{formula_to_text(p.sub, 1)} -> {formula_to_text(q.right, 0)}"
            return f"({text})" if level > 0 else text
        text = f"{formula_to_text(p, 1)} \\/ {formula_to_text(q, 2)}"
        return f"({text})" if level > 1 else text
    if isinstance(b, Atom):
        names = _is_identity_seq(b.term)
        if names is not None:
            return f"{b.predicate}({','.join(names)})"
        return f"{b.predicate}({term_to_text(b.term)})"
    if isinstance(b, MeasAtom):
        return f"meas {b.measurement}.{b.outcome}({','.join(b.variables)})"
    if isinstance(b, Not):
        return f"~{formula_to_text(b.sub, 3)}"
    if isinstance(b, And):
        text = f"{formula_to_text(b.left, 2)} /\\ {formula_to_text(b.right, 3)}"
        return f"({text})" if level > 2 else text
    if isinstance(b, Adjoint):
        return f"adj<{term_to_text(b.term)}>({formula_to_text(b.sub)})"
    if isinstance(b, Forall):
        text = f"forall {' '.join(b.variables)} . {formula_to_text(b.sub, 0)}"
        return f"({text})" if level > 0 else text
    raise WellFormednessError(f"not a formula node: {b!r}")


def program_to_text(s: Program, parent: str = "top") -> str:
    if isinstance(s, Skip):
        return "skip"
    if isinstance(s, Init):
        return f"{s.variable} := |0>"
    if isinstance(s, UnitaryAssign):
        return f"{','.join(s.variables)} := {term_to_text(s.term)}"
    if isinstance(s, SeqProg):
        text = f"{program_to_text(s.first, 'seq')}; {program_to_text(s.second, 'seq-right')}"
        return f"({text})" if parent == "seq-right" else text
    if isinstance(s, CaseProg):
        inner = " | ".join(f"{o} -> {program_to_text(p)}" for o, p in s.branches)
        return f"if {s.measurement}[{','.join(s.variables)}] {{ {inner} }} fi"
    if isinstance(s, WhileProg):
        return (
            f"while {s.measurement}[{','.join(s.variables)}] = 1 "
            f"do {program_to_text(s.body)} od"
        )
    raise WellFormednessError(f"not a program node: {s!r}")


def triple_to_text(t: HoareTriple) -> str:
    return (
        "{ " + formula_to_text(t.pre) + " } "
        + program_to_text(t.prog)
        + " { " + formula_to_text(t.post) + " }"
    )


def interp_to_text(i: Interpretation) -> str:
    """Serialize an interpretation; parsing the result reproduces the
    bindings bit-identically (floats are printed via repr)."""
    lines = []
    for name, dim in i.variables.items():
        lines.append(f"var {name} : {dim}")
    from .interp import INVERSE_SUFFIX

    for sym, op in i.operations.items():
        if sym.endswith(INVERSE_SUFFIX):
            continue  # regenerated from the forward binding
        sig = "(" + ",".join(str(d) for d in op.signature) + ")"
        if op.unitary:
            lines.append(f"unitary {sym} {sig} = {_matrix_text(op.channel.kraus[0])}")
        else:
            body = ", ".join(_matrix_text(k) for k in op.channel.kraus)
            lines.append(f"channel {sym} {sig} = kraus {{ {body} }}")
    for sym, m in i.measurements.items():
        sig = "(" + ",".join(str(d) for d in m.signature) + ")"
        body = ", ".join(
            f"{o}: {_matrix_text(p)}" for o, p in zip(m.outcomes, m.projectors)
        )
        lines.append(f"measurement {sym} {sig} = {{ {body} }}")
    for sym, p in i.predicates.items():
        sig = "(" + ",".join(str(d) for d in p.signature) + ")"
        if p.subspace.rank == 0:
            lines.append(f"predicate {sym} {sig} = zero")
        else:
            cols = ", ".join(
                "[" + ", ".join(_complex_text(z) for z in p.subspace.basis[:, k]) + "]"
                for k in range(p.subspace.rank)
            )
            lines.append(f"predicate {sym} {sig} = span {{ {cols} }}")
    for sig, symbols in i.allowed.items():
        sig_text = "(" + ",".join(str(d) for d in sig) + ")"
        lines.append(f"allowed {sig_text} = {{ {', '.join(symbols)} }}")
    return "\n".join(lines) + "\n"
