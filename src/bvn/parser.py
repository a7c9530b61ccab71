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

Lexical rules: numbers use the ASCII digits 0-9 only, as 12, 0.5 or 2e-3
(a dot not followed by a digit ends the number, so M.1 and 'forall q .'
stay apart).  Identifiers start with a letter or '_' and go on with
letters, digits and '_'.  Kets are |01> (digit string) or |0,1> (comma
indices) over the relevant variable layout.  Comments run from '#' to
end of line.  Any other character is a parse error.

Each literal is read from its token's text by the rule that needs it.
Integer literals, and only these, stand for dimensions, outcome labels
(M.1, meas M.0, case branches, measurement declarations), the loop guard
'= 1', the reset 0(q) and the max_steps parameter; a literal with a dot
or an exponent there is a parse error.  Every other numeric literal is one
expression of one complex arithmetic (+ - * /, unary -, sqrt, i, parentheses)
over numbers, kets (in a state or span only) and bracket lists [a, b, ...]
of entries of one shape: 1/sqrt(2), 0.5+0.5i, 1/sqrt(2)*|00> - |11>/2.  A
sum takes two operands of one shape, a product at least one number, and a
quotient a number below the line.  Matrix entries, mix weights and sqrt
arguments are numbers; states and span vectors are 1-D over the layout;
bound matrices are 2-D.  A non-finite value is a parse error.
"""

from __future__ import annotations

import math
import re
from typing import NamedTuple

import numpy as np

from .config import DEFAULT_TOL
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
    ProofStep,
    SequentJudgment,
)
from .interp import IDENTITY_SYMBOL, Interpretation, build
from .linalg import Subspace
from .programs import (
    CaseProg,
    Init,
    Program,
    SeqProg,
    Skip,
    UnitaryAssign,
    WhileProg,
)
from .terms import BasicTerm, ProbSumTerm, SeqTerm, Term, TensorTerm, identity_term

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


class Token(NamedTuple):
    kind: str  # NUM, IDENT, KET, EOF, BAD, or the punctuation text
    text: str
    pos: int  # offset into the source


# Alternatives are tried in order, two-character marks first; BAD catches the rest.
_TOKEN = re.compile(r"""
    (?P<SKIP>[ \t\r\n]+|\#[^\n]*)
  | (?P<KET>\|[0-9,]+>)
  | (?P<NUM>[0-9]+(?:\.[0-9]+)?(?:[eE][+-]?[0-9]+)?)
  | (?P<IDENT>\w+)
  | (?P<PUNCT>/\\|\\/|->|:=|\|-|\^-1|[()\[\]{},:;.|<>=+\-*/@~^])
  | (?P<BAD>.)
""", re.VERBOSE)


def _lex(src: str) -> list:
    """Tokens of src, ending in EOF, or in BAD at the first character that
    starts no token."""
    toks = []
    for m in _TOKEN.finditer(src):
        kind, text = m.lastgroup, m.group()
        if kind == "SKIP":
            continue
        if kind == "PUNCT":
            kind = text
        elif kind in ("IDENT", "BAD") and not (text[0].isalpha() or text[0] == "_"):
            toks.append(Token("BAD", text[0], m.start()))  # BAD, or \w+ led by a numeral
            return toks
        toks.append(Token(kind, text, m.start()))
    toks.append(Token("EOF", "", len(src)))
    return toks


def _shape(v) -> tuple:
    """The shape of a parsed value: () for a number (a Python complex)."""
    return v.shape if isinstance(v, np.ndarray) else ()


class _Parser:
    def __init__(self, text: str):
        self.src = text
        self.toks = _lex(text)
        self.k = 0
        last = self.toks[-1]
        if last.kind == "BAD":
            raise self.error(f"unexpected character {last.text!r}", last)

    def error(self, message: str, tok: Token | None = None) -> ParseError:
        """A ParseError at tok (default: the next token), with its line:col."""
        tok = tok or self.peek()
        line = self.src.count("\n", 0, tok.pos) + 1
        col = tok.pos - self.src.rfind("\n", 0, tok.pos)
        return ParseError(message, line, col, tok.text)

    def peek(self, ahead: int = 0) -> Token:
        return self.toks[self.k + ahead]

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

    def expect(self, kind: str, what: str | None = None, text: str | None = None) -> Token:
        if not self.at(kind, text):
            raise self.error(f"expected {what or (repr(text) if text else kind)}")
        return self.next()

    def sep(self, item, separator: str = ",") -> tuple:
        """item (separator item)*"""
        items = [item()]
        while self.accept(separator):
            items.append(item())
        return tuple(items)

    def integer(self, what: str) -> int:
        tok = self.expect("NUM", what)
        try:  # int() also refuses a literal past Python's limit on the digits of an int
            return int(tok.text)
        except ValueError:
            raise self.error(f"expected {what}", tok) from None

    def done(self):
        if not self.at("EOF"):
            raise self.error("trailing input")

    # -- numeric expressions: numbers are Python complex, kets and lists arrays

    def expr(self, layout):
        v = self.expr_term(layout)
        while self.at("+") or self.at("-"):
            op = self.next()
            rhs = self.expr_term(layout)
            if _shape(v) != _shape(rhs):
                raise self.error(f"cannot add shapes {_shape(v)} and {_shape(rhs)}", op)
            v = v + rhs if op.kind == "+" else v - rhs
        return v

    def expr_term(self, layout):
        v = self.expr_factor(layout)
        while self.at("*") or self.at("/"):
            op = self.next()
            rhs = self.expr_factor(layout)
            if _shape(rhs) and (op.kind == "/" or _shape(v)):
                raise self.error("cannot divide by an array" if op.kind == "/"
                                 else "cannot multiply two arrays", op)
            if op.kind == "/" and rhs == 0:
                raise self.error("division by zero", op)
            v = v * rhs if op.kind == "*" else v / rhs
        return v

    def expr_factor(self, layout):
        if self.accept("-"):
            return -self.expr_factor(layout)
        if self.at("NUM"):
            v = complex(float(self.next().text))
            return v * 1j if self.accept("IDENT", "i") else v
        if self.accept("IDENT", "i"):
            return 1j
        if self.at("KET"):
            return self.ket_vector(layout)
        if self.accept("IDENT", "sqrt"):
            self.expect("(")
            v = complex(np.sqrt(self.shaped("a number", (), layout)))
            self.expect(")")
            return v
        if self.accept("("):
            v = self.expr(layout)
            self.expect(")")
            return v
        if self.accept("["):
            entries = [self.expr(layout)]
            while self.accept(","):
                tok = self.peek()
                entries.append(self.expr(layout))
                if _shape(entries[-1]) != _shape(entries[0]):
                    raise self.error("ragged list: entries differ in shape", tok)
            self.expect("]")
            return np.array(entries, dtype=np.complex128)
        raise self.error("expected a number, a ket or a [list]")

    def shaped(self, what: str, want: tuple, layout=None):
        """A finite expression of shape want (None: any length), else a ParseError at its start."""
        tok = self.peek()
        with np.errstate(all="ignore"):  # an overflow is reported below
            v = self.expr(layout)
        got = _shape(v)
        if len(got) != len(want) or any(w not in (None, g) for w, g in zip(want, got)):
            raise self.error(f"expected {what}, got shape {got}", tok)
        if not np.isfinite(v).all():
            raise self.error(f"expected {what}, got a non-finite value", tok)
        return v

    def real_scalar(self) -> float:
        v = self.shaped("a number", ())
        if abs(v.imag) > 1e-12:
            raise self.error("expected a real number")
        return float(v.real)

    def matrix(self) -> np.ndarray:
        return self.shaped("a matrix [[...], ...]", (None, None))

    def vector(self, layout) -> np.ndarray:
        """A state or spanning vector over the layout."""
        n = int(math.prod(layout))
        return self.shaped(f"a vector of {n} entries", (n,), layout)

    def ket_vector(self, layout) -> np.ndarray:
        tok = self.next()
        if layout is None:
            raise self.error("a ket stands only in a state or a span", tok)
        try:
            idx = [int(p) for p in re.findall("[0-9]+" if "," in tok.text else "[0-9]", tok.text)]
        except ValueError:  # past Python's limit on the digits of an int
            raise self.error("ket index has too many digits", tok) from None
        if len(idx) != len(layout):
            raise self.error(f"ket names {len(idx)} factors, layout has {len(layout)}", tok)
        for pos, (ix, d) in enumerate(zip(idx, layout)):
            if ix >= d:
                raise self.error(f"ket index {ix} out of range for factor {pos} (dim {d})", tok)
        v = np.zeros(int(math.prod(layout)), dtype=np.complex128)
        v[int(np.ravel_multi_index(idx, layout)) if layout else 0] = 1.0
        return v

    # -- terms ---------------------------------------------------------------

    def name(self, what: str = "a variable name") -> str:
        return self.expect("IDENT", what).text

    def varlist(self) -> tuple:
        return self.sep(self.name)

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

    _STOP_WORDS = {"do", "od", "fi", "with", "shows", "by", "from", "step"}

    def _at_term_boundary(self) -> bool:
        t = self.peek()
        return t.kind == "IDENT" and t.text in self._STOP_WORDS

    def term_atom(self) -> Term:
        if self.at("NUM"):
            tok = self.peek()
            if self.integer("the reset 0(q)") != 0:
                raise self.error("only 0(q) resets are terms", tok)
            self.expect("(")
            names = self.varlist()
            self.expect(")")
            if len(names) != 1:
                raise self.error("reset takes one variable", tok)
            return BasicTerm("0", names)
        if self.accept("("):
            t = self.term()
            self.expect(")")
            return t
        ident = self.name("an operation symbol")
        if ident == "mix":
            self.expect("{")
            branches = self.sep(self.mix_branch)
            self.expect("}")
            return ProbSumTerm(branches)
        inverse = bool(self.accept("^-1"))
        outcome = self.integer("an outcome label") if self.accept(".") else None
        self.expect("(")
        names = self.varlist()
        self.expect(")")
        return BasicTerm(ident, names, outcome, inverse)

    def mix_branch(self):
        w = self.real_scalar()
        self.expect(":")
        return w, self.term()

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
        if self.accept("IDENT", "adj"):
            self.expect("<")
            t = self.term()
            self.expect(">")
            self.expect("(")
            f = self.formula()
            self.expect(")")
            return Adjoint(t, f)
        if self.at("IDENT", "forall") or self.at("IDENT", "exists"):
            word = self.next().text
            names = [self.name()]
            while self.at("IDENT"):
                names.append(self.next().text)
            self.expect(".")
            body = self.formula()
            if word == "forall":
                return Forall(tuple(names), body)
            return exists_formula(tuple(names), body)
        if self.accept("IDENT", "meas"):
            sym = self.name("a measurement symbol")
            self.expect(".")
            outcome = self.integer("an outcome label")
            self.expect("(")
            names = self.varlist()
            self.expect(")")
            return MeasAtom(sym, outcome, names)
        if self.accept("("):
            f = self.formula()
            self.expect(")")
            return f
        pred = self.name("a predicate symbol")
        self.expect("(")
        saved = self.k
        names = self._try_bare_varlist()
        if names is not None:
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
        if self.accept("IDENT", "skip"):
            return Skip()
        if self.accept("IDENT", "if"):
            meas = self.name("a measurement symbol")
            self.expect("[")
            names = self.varlist()
            self.expect("]")
            self.expect("{")
            branches = self.sep(self.case_branch, "|")
            self.expect("}")
            self.expect("IDENT", text="fi")
            return CaseProg(meas, names, branches)
        if self.accept("IDENT", "while"):
            meas = self.name("a measurement symbol")
            self.expect("[")
            names = self.varlist()
            self.expect("]")
            self.expect("=")
            one = self.peek()
            if self.integer("the loop guard outcome 1") != 1:
                raise self.error("loops run while the guard yields 1", one)
            self.expect("IDENT", text="do")
            body = self.program()
            self.expect("IDENT", text="od")
            return WhileProg(meas, names, body)
        if self.accept("("):
            s = self.program()
            self.expect(")")
            return s
        names = self.varlist()
        self.expect(":=")
        tok = self.accept("KET")
        if tok is None:
            return UnitaryAssign(names, self.term())
        if tok.text != "|0>" or len(names) != 1:
            raise self.error("initialisation has the form q := |0>", tok)
        return Init(names[0])

    def case_branch(self):
        outcome = self.integer("an outcome label")
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
        word = self.name("triple / sequent / equation")
        if word == "triple":
            return self.triple()
        if word == "sequent":
            context = () if self.at("|-") else self.sep(self.formula)
            self.expect("|-")
            return SequentJudgment(context, self.formula())
        if word == "equation":
            left = self.term()
            self.expect("=")
            return EquationJudgment(left, self.term())
        raise self.error("expected one of: triple, sequent, equation")

    # -- proof scripts ---------------------------------------------------------------

    def rule_name(self) -> str:
        name = self.name("a rule name")
        while self.at(".") or self.at("-"):
            sep = self.next().kind
            part = self.next()
            if part.kind not in ("IDENT", "NUM"):
                raise self.error("malformed rule name", part)
            name += sep + part.text
        return name

    def binding(self, params: dict):
        """key = value into params; a key given twice fails at its second use."""
        tok = self.peek()
        key = self.name("a parameter name")
        if key in params:
            raise self.error(f"parameter {key!r} given twice", tok)
        params[key] = self.param_value(key)

    def param_value(self, key: str):
        self.expect("=")
        kind = PARAM_KINDS.get(key)
        if kind == "formula":
            return self.formula()
        if kind == "term":
            return self.term()
        if kind == "vars":
            return self.varlist()
        if kind in ("name", "var"):
            return self.name("a symbol")
        if kind == "word":
            return "-".join(self.sep(lambda: self.name("a keyword"), "-"))
        if kind == "int":
            return self.integer("an integer")
        if kind == "weights":
            return list(self.sep(self.real_scalar))
        if kind == "flag":
            return self.name("true or false") == "true"
        if kind == "formulas":
            self.expect("{")
            fs = () if self.at("}") else self.sep(self.formula)
            self.expect("}")
            return fs
        raise self.error(f"unknown parameter {key!r}")

    def proof(self) -> tuple:
        steps = []
        while self.accept("IDENT", "step"):
            step_id = self.name("a step id")
            premises = ()
            if self.accept("IDENT", "from"):
                premises = self.sep(lambda: self.name("a step id"))
            self.expect("IDENT", text="by")
            rule = self.rule_name()
            params: dict = {}
            if self.accept("IDENT", "with"):
                self.sep(lambda: self.binding(params), ";")
            self.expect("IDENT", text="shows")
            steps.append(ProofStep(step_id, self.judgment(), rule, premises, params))
        if not steps:
            raise self.error("a proof script needs at least one step")
        return tuple(steps)

    # -- interpretation files -----------------------------------------------------------

    def signature(self) -> tuple:
        self.expect("(")
        dims = self.sep(lambda: self.integer("a dimension"))
        self.expect(")")
        return dims

    def outcome_pair(self):
        outcome = self.integer("an outcome label")
        self.expect(":")
        return outcome, self.matrix()

    def declarations(self) -> tuple:
        """The declarations of an interpretation file, as ``build`` takes them."""
        variables: list = []
        operations: list = []
        measurements: list = []
        predicates: list = []
        allowed: list = []
        while self.at("IDENT"):
            word = self.next().text
            if word == "var":
                name = self.name()
                self.expect(":")
                variables.append((name, self.integer("a dimension")))
            elif word in ("unitary", "channel"):
                name = self.name("an operation symbol")
                sig = self.signature()
                self.expect("=")
                if word == "unitary":
                    operations.append((name, sig, [self.matrix()], True))
                else:
                    self.expect("IDENT", text="kraus")
                    self.expect("{")
                    operations.append((name, sig, self.sep(self.matrix), False))
                    self.expect("}")
            elif word == "measurement":
                name = self.name("a measurement symbol")
                sig = self.signature()
                self.expect("=")
                self.expect("{")
                measurements.append((name, sig, self.sep(self.outcome_pair)))
                self.expect("}")
            elif word == "predicate":
                name = self.name("a predicate symbol")
                sig = self.signature()
                self.expect("=")
                if self.accept("IDENT", "zero"):
                    predicates.append((name, sig, Subspace.zero(int(math.prod(sig)))))
                else:
                    self.expect("IDENT", text="span")
                    self.expect("{")
                    vectors = self.sep(lambda: self.vector(list(sig)))
                    self.expect("}")
                    predicates.append((name, sig, np.array(vectors)))
            elif word == "allowed":
                sig = self.signature()
                self.expect("=")
                self.expect("{")
                symbols = () if self.at("}") else self.sep(lambda: self.name("an operation symbol"))
                self.expect("}")
                allowed.append((sig, symbols))
            else:
                raise self.error(f"unknown declaration {word!r}")
        return variables, operations, measurements, predicates, allowed


def _run(parser_method, text: str):
    p = _Parser(text)
    try:
        out = parser_method(p)
    except RecursionError:
        raise WellFormednessError("input nests too deeply") from None
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


def parse_proof(text: str) -> tuple:
    return _run(_Parser.proof, text)


def parse_interp(text: str, tol=None) -> Interpretation:
    return build(*_run(_Parser.declarations, text), tol=tol or DEFAULT_TOL)


def parse_state_vector(text: str, layout) -> np.ndarray:
    return _run(lambda p: p.vector(list(layout)), text)


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


def term_to_text(t: Term) -> str:
    """Text of t, walking from a work stack so a term of any length prints.
    A part is bracketed where the parser would read it otherwise: a tensor
    first in a sequence, a sequence or a tensor second, a tensor right of @."""
    out, todo = [], [t]
    while todo:
        t = todo.pop()
        if isinstance(t, str):
            out.append(t)
        elif isinstance(t, BasicTerm):
            head = t.symbol
            if t.inverse:
                head += "^-1"
            if t.outcome is not None:
                head += f".{t.outcome}"
            out.append(f"{head}({','.join(t.variables)})")
        elif isinstance(t, SeqTerm):
            todo += [*_bracketed(t.second, (SeqTerm, TensorTerm)), " ",
                     *_bracketed(t.first, TensorTerm)]
        elif isinstance(t, TensorTerm):
            todo += [*_bracketed(t.right, TensorTerm), " @ ", t.left]
        elif isinstance(t, ProbSumTerm):  # the one recursion, as in terms._Walk
            inner = ", ".join(f"{_num(w)}: {term_to_text(c)}" for w, c in t.branches)
            out.append(f"mix {{ {inner} }}")
        else:
            raise WellFormednessError(f"not a term node: {t!r}")
    return "".join(out)


def _bracketed(t: Term, kinds) -> list:
    """t as work-stack pieces (the last first), in parentheses if of ``kinds``."""
    return [")", t, "("] if isinstance(t, kinds) else [t]


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


def _identity_names(t: Term):
    """The names of t, compared atom by atom, when t is identity_term(names),
    which prints as the P(q1,...,qn) sugar; None otherwise."""
    names = []
    while True:
        atom = t.second if isinstance(t, SeqTerm) else t
        if not (isinstance(atom, BasicTerm) and len(atom.variables) == 1
                and atom == BasicTerm(IDENTITY_SYMBOL, atom.variables)):
            return None
        names.append(atom.variables[0])
        if atom is t:
            return tuple(reversed(names))
        t = t.first


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
        names = _identity_names(b.term)
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


def program_to_text(s: Program) -> str:
    """Text of s, walking ';' from a work stack so a program of any length prints."""
    out, todo = [], [s]
    while todo:
        node = todo.pop()
        if isinstance(node, str):
            out.append(node)
        elif isinstance(node, SeqProg):
            second = node.second
            todo += [")", second, "; ("] if isinstance(second, SeqProg) else [second, "; "]
            todo.append(node.first)
        else:
            out.append(_statement_text(node))
    return "".join(out)


def _statement_text(s: Program) -> str:
    if isinstance(s, Skip):
        return "skip"
    if isinstance(s, Init):
        return f"{s.variable} := |0>"
    if isinstance(s, UnitaryAssign):
        return f"{','.join(s.variables)} := {term_to_text(s.term)}"
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
    for sym, op in i.operations.items():
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
