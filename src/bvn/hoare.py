"""Hoare triples, semantic validity, and the proof-script checker.

Every rule of the proof system is one entry of ``RULES``, declared by
``_rule`` above the function that builds its conclusion:

  shape     a regular expression over the premise kinds, one letter per
            premise: s sequent, e equation, t triple ("ss", "e+", "e?",
            "t|sts"; empty for a rule without premises)
  required  the parameters the rule needs
  optional  its other parameters with their defaults; a word-valued one
            lists its allowed words, the first being the default
  directed  the rule states an equivalence and also takes direction =
            lr | rl, where rl concludes the converse

``apply_rule`` does the plumbing once for all rules.  It matches the
premise kinds against the shape, finds every required parameter, rejects
any parameter the rule does not take, and checks each formula, term and
variable parameter against the interpretation by its kind in
``PARAM_KINDS`` (the proof-script parser reads values by the same kinds).
It turns a directed rule round for rl and prefixes every RuleError with
the rule name.  Each rule function checks only its side conditions.

Rules by figure of the paper: QL1..QL11 (Fig. 1, propositional sequents);
QT.Refl QT.Sym QT.Trans QT1a QT1b QT2..QT6 (Fig. 5, term equations);
QQL1..QQL15 (Fig. 6, first-order rules over quantum variables); Ax.Sk
Ax.In Ax.UT R.SC R.IF R.LP R.Con (Fig. 7, program constructs); Invariance
Substitution Conjunction Disjunction Exists-Intro Hoare-Adaptation (Fig. 8,
adaptation rules).

A judgment is a ``SequentJudgment``, an ``EquationJudgment`` or a
``HoareTriple``, and a proof script is its ``ProofStep``s in order.
Entailment premises (R.Con, QQL2/QQL3 equation sides) may be discharged
semantically against the active interpretation or by explicit sub-proof
steps.  Checking only: no rule application is ever searched for.
"""

from __future__ import annotations

import re
from collections.abc import Callable, Mapping
from dataclasses import dataclass, field
from types import MappingProxyType

from .errors import BvnError, InterpretationError, RuleError, WellFormednessError
from .formulas import (
    Adjoint,
    And,
    Atom,
    Forall,
    Formula,
    MeasAtom,
    Not,
    big_or,
    entails,
    eval_subspace,
    exists_formula,
    formula_wf,
    free_vars,
    or_formula,
    sasaki_formula,
)
from .interp import IDENTITY_SYMBOL, Interpretation, allowed_generators
from .linalg import Subspace, includes, inclusion_witness, lattice_meet
from .programs import (
    CaseProg,
    Init,
    Program,
    SeqProg,
    Skip,
    UnitaryAssign,
    WhileProg,
    _Image,
    _Wlp,
    prog_vars,
    prog_wf,
    representable_probe,
    terminates_probe,
)
from .terms import (
    BasicTerm,
    ProbSumTerm,
    SeqTerm,
    Term,
    TensorTerm,
    _subterms,
    identity_term,
    is_unitary_term,
    term_equiv,
    term_invert,
    term_vars,
    term_wf,
    term_wlp,
)

__all__ = [
    "HoareTriple",
    "SequentJudgment",
    "EquationJudgment",
    "ProofStep",
    "triple_valid",
    "triple_valid_wlp",
    "triple_verdicts",
    "apply_rule",
    "check_proof",
    "ProofReport",
    "StepReport",
    "RULES",
]


@dataclass(frozen=True)
class HoareTriple:
    pre: Formula
    prog: Program
    post: Formula


@dataclass(frozen=True)
class SequentJudgment:
    """Sigma |- beta.  The context is a set: it is kept sorted by repr, so
    judgments that differ only in its order are equal."""

    context: tuple  # of Formula
    conclusion: Formula

    def __post_init__(self):
        context = tuple(self.context)  # one formula needs no repr, however deep
        object.__setattr__(self, "context",
                           tuple(sorted(context, key=repr)) if len(context) > 1 else context)


@dataclass(frozen=True)
class EquationJudgment:
    left: Term
    right: Term


@dataclass(frozen=True)
class ProofStep:
    """One step of a proof script: ``judgment`` by ``rule`` from the steps
    named in ``premises``, with the rule's ``params``.  A step is immutable
    syntax and its params a read-only mapping, so one parsed script can be
    checked under any number of interpretations and tolerances: ``cli.main``
    keeps each parsed script under its text, and a write to a kept step
    raises rather than changing the queries that follow."""

    step_id: str
    judgment: object
    rule: str
    premises: tuple = ()
    params: Mapping = field(default_factory=dict)

    def __post_init__(self):
        object.__setattr__(self, "params", MappingProxyType(dict(self.params)))


# ---------------------------------------------------------------------------
# semantic validity of triples
# ---------------------------------------------------------------------------


def _pre_post(i: Interpretation, t: HoareTriple) -> tuple:
    """The pre and post subspaces, after checking the pre, the program and
    the post once each."""
    pre = eval_subspace(i, t.pre)
    prog_wf(i, t.prog)
    return pre, eval_subspace(i, t.post)


def triple_valid(i: Interpretation, t: HoareTriple):
    """Partial correctness: the forward image of the precondition subspace
    lies inside the postcondition subspace.  Returns (bool, report)."""
    return _image_verdict(i, t.prog, *_pre_post(i, t))


def triple_valid_wlp(i: Interpretation, t: HoareTriple) -> bool:
    """The same judgment through the weakest liberal precondition."""
    return _wlp_verdict(i, t.prog, *_pre_post(i, t))


def triple_verdicts(i: Interpretation, t: HoareTriple) -> tuple:
    """``triple_valid``'s verdict and report and ``triple_valid_wlp``'s
    verdict, ``(valid, report, wlp_valid)``, with the triple checked once."""
    pre, post = _pre_post(i, t)
    return (*_image_verdict(i, t.prog, pre, post), _wlp_verdict(i, t.prog, pre, post))


def _image_verdict(i: Interpretation, prog: Program, pre: Subspace, post: Subspace):
    image = _Image(i)(prog, pre)
    witness = inclusion_witness(post, image, i.tol)
    report = {
        "pre_rank": pre.rank,
        "image_rank": image.rank,
        "post_rank": post.rank,
        "tolerances": i.tol.as_dict(),
        "witness": None if witness is None else [complex(c) for c in witness],
    }
    return witness is None, report


def _wlp_verdict(i: Interpretation, prog: Program, pre: Subspace, post: Subspace) -> bool:
    return includes(_Wlp(i)(prog, post), pre, i.tol)


# ---------------------------------------------------------------------------
# judgment plumbing
# ---------------------------------------------------------------------------


def _ctx_remove(context: tuple, member) -> tuple:
    out = list(context)
    try:
        out.remove(member)
    except ValueError:
        raise RuleError(f"context does not contain the required formula {member}") from None
    return tuple(out)


# ---------------------------------------------------------------------------
# the rule table
# ---------------------------------------------------------------------------

PARAM_KINDS = {
    **dict.fromkeys(("formula", "delta", "pre", "post", "left", "right", "target"), "formula"),
    **dict.fromkeys(("term", "witness", "t1", "t2", "t3", "identity"), "term"),
    **dict.fromkeys(("vars", "qvars", "pvars"), "vars"),
    **dict.fromkeys(("direction", "form", "pick"), "word"),
    "pred": "name", "meas": "name", "var": "var", "weights": "weights",
    "semantic": "flag", "sigma": "formulas", "max_steps": "int",
}
"""The kind of every rule parameter; the proof-script parser reads each value by it."""

_WF = {  # kinds checked against the interpretation before a rule runs
    "formula": formula_wf,
    "formulas": lambda i, fs: [formula_wf(i, f) for f in fs],
    "term": term_wf,
    "var": Interpretation.var_dim,
    "vars": lambda i, qs: [i.var_dim(q) for q in qs],
}

_LETTER = {SequentJudgment: "s", EquationJudgment: "e", HoareTriple: "t"}


@dataclass(frozen=True)
class Rule:
    conclude: Callable  # (i, premises, params, notes) -> judgment
    shape: str
    required: tuple
    optional: dict
    directed: bool


RULES: dict = {}


def _rule(name: str, shape: str = "", required: str = "", directed: bool = False, **optional):
    """Register a rule's conclusion function under ``name`` (see the module
    docstring for ``shape``, ``required``, ``optional`` and ``directed``)."""
    if directed:
        optional["direction"] = ("lr", "rl")

    def register(conclude):
        RULES[name] = Rule(conclude, shape, tuple(required.split()), optional, directed)
        return conclude

    return register


def _check_params(i: Interpretation, rule: Rule, params: dict) -> dict:
    """The rule's parameters with defaults filled in, each checked once."""
    for key in rule.required:
        if key not in params:
            raise RuleError(f"missing parameter {key!r}")
    out = {k: d[0] if PARAM_KINDS[k] == "word" else d for k, d in rule.optional.items()}
    for key, value in params.items():
        if key not in rule.required and key not in rule.optional:
            raise RuleError(f"takes no parameter {key!r}")
        kind = PARAM_KINDS[key]
        if kind == "word" and value not in rule.optional[key]:
            allowed = ", ".join(rule.optional[key])
            raise RuleError(f"{key} must be one of {allowed}, got {value!r}")
        if kind in _WF:
            try:
                _WF[kind](i, value)
            except (WellFormednessError, InterpretationError) as exc:
                raise RuleError(f"parameter {key!r}: {exc}") from None
        if kind == "vars" and len(set(value)) != len(value):
            raise RuleError(f"parameter {key!r}: {list(value)} repeats a variable")
        if key in ("qvars", "pvars"):  # a quantifier over them, as forall reads it
            allowed_generators(i, value)
        out[key] = tuple(value) if kind in ("vars", "formulas") else value
    return out


def apply_rule(i: Interpretation, rule: str, premises, params=None, notes=None):
    """Re-derive a rule's conclusion from premise judgments and parameters,
    checking the premise kinds, the parameters and every side condition.
    Raises RuleError, prefixed with the rule name, on any violation."""
    entry = RULES.get(rule)
    if entry is None:
        raise RuleError(f"unknown rule {rule!r} (registry: {', '.join(sorted(RULES))})")
    premises = list(premises)
    kinds = "".join(_LETTER.get(type(p), "?") for p in premises)
    try:
        if not re.fullmatch(entry.shape, kinds):
            raise RuleError(f"premise kinds {kinds or 'none'} do not match "
                            f"{entry.shape or 'none'} (s sequent, e equation, t triple)")
        p = _check_params(i, entry, dict(params or {}))
        j = entry.conclude(i, premises, p, notes if notes is not None else [])
    except BvnError as exc:  # a failed discharge fails this one step
        raise RuleError(f"{rule}: {exc}") from None
    if entry.directed and p["direction"] == "rl":
        if isinstance(j, EquationJudgment):
            return EquationJudgment(j.right, j.left)
        return SequentJudgment((j.conclusion,), j.context[0])
    return j


def _equation_side(i, premises, p):
    """An equation premise, or a semantically discharged equation given as
    params t1/t2 with semantic=true."""
    if premises:
        return premises[0].left, premises[0].right
    if not p["semantic"] or p["t1"] is None or p["t2"] is None:
        raise RuleError("needs an equation premise or semantic=true with t1/t2")
    if not term_equiv(i, p["t1"], p["t2"]):
        raise RuleError("semantic discharge failed, the terms denote different channels")
    return p["t1"], p["t2"]


def _unitary(i, t):
    if not is_unitary_term(i, t):
        raise RuleError("the term is not unitary")
    return t


def _generator_word(i, t, qs, what):
    """t, if a quantifier over qs ranges over it: a generator set is declared
    over qs, so the quantifier can be evaluated, and every basic term is I on
    variables among qs, or one of ``allowed_generators(i, qs)``, a unitary one
    maybe inverted.  A reset or a measurement outcome is no generator."""
    gens = allowed_generators(i, qs)
    for b in _subterms(t):
        if not isinstance(b, BasicTerm) or (b.symbol == IDENTITY_SYMBOL
                                            and set(b.variables) <= set(qs)):
            continue
        if (b.symbol, tuple(b.variables)) not in gens:
            raise RuleError(f"{what} applies {b.symbol} to {list(b.variables)}, "
                            f"not an allowed generator on the quantified {list(qs)}")
    return t


# ---------------------------------------------------------------------------
# Fig. 1: propositional sequent rules
# ---------------------------------------------------------------------------


@_rule("QL1", required="formula", sigma=())
def _ql1(i, premises, p, notes):
    return SequentJudgment(p["sigma"] + (p["formula"],), p["formula"])


@_rule("QL2", "ss")
def _ql2(i, premises, p, notes):
    p1, p2 = premises
    rest = _ctx_remove(p2.context, p1.conclusion)
    return SequentJudgment(p1.context + rest, p2.conclusion)


@_rule("QL3", required="formula", pick=("left", "right"), sigma=())
def _ql3(i, premises, p, notes):
    conj = p["formula"]
    if not isinstance(conj, And):
        raise RuleError("the designated formula must be a conjunction")
    chosen = conj.left if p["pick"] == "left" else conj.right
    return SequentJudgment(p["sigma"] + (conj,), chosen)


@_rule("QL4", "ss")
def _ql4(i, premises, p, notes):
    p1, p2 = premises
    if p1.context != p2.context:
        raise RuleError("premises must share one context")
    return SequentJudgment(p1.context, And(p1.conclusion, p2.conclusion))


@_rule("QL5", "s", "left right")
def _ql5(i, premises, p, notes):
    ctx = _ctx_remove(premises[0].context, p["left"])
    ctx = _ctx_remove(ctx, p["right"])
    return SequentJudgment(ctx + (And(p["left"], p["right"]),), premises[0].conclusion)


@_rule("QL6", "ss")
def _ql6(i, premises, p, notes):
    p1, p2 = premises
    if len(p1.context) != 1 or p1.context != p2.context:
        raise RuleError("premises must both assume exactly the refuted formula")
    if p2.conclusion != Not(p1.conclusion):
        raise RuleError("conclusions must be a formula and its negation")
    return SequentJudgment((), Not(p1.context[0]))


@_rule("QL7", required="formula", sigma=())
def _ql7(i, premises, p, notes):
    return SequentJudgment(p["sigma"] + (p["formula"],), Not(Not(p["formula"])))


@_rule("QL8", required="formula", sigma=())
def _ql8(i, premises, p, notes):
    return SequentJudgment(p["sigma"] + (Not(Not(p["formula"])),), p["formula"])


@_rule("QL9", required="formula target", sigma=())
def _ql9(i, premises, p, notes):
    beta = p["formula"]
    return SequentJudgment(p["sigma"] + (And(beta, Not(beta)),), p["target"])


@_rule("QL10", "s")
def _ql10(i, premises, p, notes):
    (s,) = premises
    if len(s.context) != 1:
        raise RuleError("premise must have a single assumption")
    return SequentJudgment((Not(s.conclusion),), Not(s.context[0]))


@_rule("QL11", required="formula target")
def _ql11(i, premises, p, notes):
    beta, target = p["formula"], p["target"]
    assumption = And(beta, Not(And(beta, Not(And(beta, target)))))
    return SequentJudgment((assumption,), target)


# ---------------------------------------------------------------------------
# Fig. 5: term-equation rules
# ---------------------------------------------------------------------------


@_rule("QT.Refl", required="term")
def _qt_refl(i, premises, p, notes):
    return EquationJudgment(p["term"], p["term"])


@_rule("QT.Sym", "e")
def _qt_sym(i, premises, p, notes):
    return EquationJudgment(premises[0].right, premises[0].left)


@_rule("QT.Trans", "ee")
def _qt_trans(i, premises, p, notes):
    a, b = premises
    if a.right != b.left:
        raise RuleError("middle terms differ")
    return EquationJudgment(a.left, b.right)


@_rule("QT1a", "e", "term")
def _qt1a(i, premises, p, notes):
    (e,) = premises
    return EquationJudgment(SeqTerm(p["term"], e.left), SeqTerm(p["term"], e.right))


@_rule("QT1b", "e", "term")
def _qt1b(i, premises, p, notes):
    (e,) = premises
    return EquationJudgment(SeqTerm(e.left, p["term"]), SeqTerm(e.right, p["term"]))


@_rule("QT2", "e+", "weights")
def _qt2(i, premises, p, notes):
    weights = p["weights"]
    if len(weights) != len(premises):
        raise RuleError("one weight per equation premise required")
    lhs = ProbSumTerm(tuple((w, e.left) for w, e in zip(weights, premises)))
    rhs = ProbSumTerm(tuple((w, e.right) for w, e in zip(weights, premises)))
    term_wf(i, lhs)
    term_wf(i, rhs)
    return EquationJudgment(lhs, rhs)


@_rule("QT3", required="t1 t2", form=("tensor-seq", "tensor-seq-comm", "seq-comm"))
def _qt3(i, premises, p, notes):
    t1, t2 = p["t1"], p["t2"]
    if term_vars(t1) & term_vars(t2):
        raise RuleError("components must have disjoint variables")
    if p["form"] == "tensor-seq":
        return EquationJudgment(TensorTerm(t1, t2), SeqTerm(t1, t2))
    if p["form"] == "tensor-seq-comm":
        return EquationJudgment(TensorTerm(t1, t2), SeqTerm(t2, t1))
    return EquationJudgment(SeqTerm(t1, t2), SeqTerm(t2, t1))


@_rule("QT4", required="term identity", form=("left", "right"))
def _qt4(i, premises, p, notes):
    t, ident = p["term"], p["identity"]
    if any(isinstance(b, ProbSumTerm) or isinstance(b, BasicTerm) and b.symbol != IDENTITY_SYMBOL
           for b in _subterms(ident)):
        raise RuleError("the designated identity term must be built from I alone")
    if p["form"] == "left":
        return EquationJudgment(SeqTerm(ident, t), t)
    return EquationJudgment(SeqTerm(t, ident), t)


@_rule("QT5", required="t1 t2 t3", directed=True)
def _qt5(i, premises, p, notes):
    t1, t2, t3 = p["t1"], p["t2"], p["t3"]
    return EquationJudgment(SeqTerm(t1, SeqTerm(t2, t3)), SeqTerm(SeqTerm(t1, t2), t3))


@_rule("QT6", required="term", form=("right", "left"))
def _qt6(i, premises, p, notes):
    t = _unitary(i, p["term"])
    inv = term_invert(t)
    ident = identity_term(sorted(term_vars(t), key=i.var_index))
    if p["form"] == "right":
        return EquationJudgment(SeqTerm(t, inv), ident)
    return EquationJudgment(SeqTerm(inv, t), ident)


# ---------------------------------------------------------------------------
# Fig. 6: first-order rules with quantum variables
# ---------------------------------------------------------------------------


@_rule("QQL1", "s")
def _qql1(i, premises, p, notes):
    return premises[0]


@_rule("QQL2", "e?", "pred", semantic=False, t1=None, t2=None)
def _qql2(i, premises, p, notes):
    t1, t2 = _equation_side(i, premises, p)
    lhs, rhs = Atom(p["pred"], t1), Atom(p["pred"], t2)
    formula_wf(i, lhs)
    formula_wf(i, rhs)
    return SequentJudgment((lhs,), rhs)


@_rule("QQL3", "e?", "formula", semantic=False, t1=None, t2=None)
def _qql3(i, premises, p, notes):
    t1, t2 = _equation_side(i, premises, p)
    return SequentJudgment((Adjoint(t1, p["formula"]),), Adjoint(t2, p["formula"]))


@_rule("QQL4", "s+", "weights")
def _qql4(i, premises, p, notes):
    weights = p["weights"]
    if len(weights) != len(premises):
        raise RuleError("one weight per premise required")
    ctx = premises[0].context
    if any(s.context != ctx for s in premises):
        raise RuleError("premises must share one context")
    if not all(isinstance(s.conclusion, Atom) for s in premises):
        raise RuleError("premises must conclude atomic formulas")
    pred = premises[0].conclusion.predicate
    if any(s.conclusion.predicate != pred for s in premises):
        raise RuleError("premises must use one predicate symbol")
    out = Atom(pred, ProbSumTerm(tuple((w, s.conclusion.term) for w, s in zip(weights, premises))))
    formula_wf(i, out)
    return SequentJudgment(ctx, out)


@_rule("QQL5", required="t1 t2 formula", directed=True)
def _qql5(i, premises, p, notes):
    t1, t2, beta = p["t1"], p["t2"], p["formula"]
    return SequentJudgment((Adjoint(t1, Adjoint(t2, beta)),), Adjoint(SeqTerm(t1, t2), beta))


@_rule("QQL6", "s", "term")
def _qql6(i, premises, p, notes):
    (s,) = premises
    if len(s.context) != 1:
        raise RuleError("premise must have a single assumption")
    t = p["term"]
    return SequentJudgment((Adjoint(t, s.context[0]),), Adjoint(t, s.conclusion))


@_rule("QQL7", required="t1 t2 pred", directed=True)
def _qql7(i, premises, p, notes):
    t1, t2, pred = p["t1"], p["t2"], p["pred"]
    rhs = Atom(pred, SeqTerm(t1, t2))
    formula_wf(i, rhs)
    return SequentJudgment((Adjoint(t1, Atom(pred, t2)),), rhs)


@_rule("QQL8", required="term formula", directed=True)
def _qql8(i, premises, p, notes):
    t, beta = _unitary(i, p["term"]), p["formula"]
    return SequentJudgment((Adjoint(t, Not(beta)),), Not(Adjoint(t, beta)))


@_rule("QQL9", required="term left right", directed=True)
def _qql9(i, premises, p, notes):
    t, b1, b2 = p["term"], p["left"], p["right"]
    return SequentJudgment((Adjoint(t, And(b1, b2)),), And(Adjoint(t, b1), Adjoint(t, b2)))


@_rule("QQL10", required="t1 t2 left right", directed=True)
def _qql10(i, premises, p, notes):
    t1, t2, b1, b2 = p["t1"], p["t2"], p["left"], p["right"]
    if term_vars(t1) & term_vars(t2):
        raise RuleError("the tensor components must have disjoint variables")
    if not free_vars(b1) <= term_vars(t1) or not free_vars(b2) <= term_vars(t2):
        raise RuleError("each formula must mention only its component's variables")
    if any(term_wlp(i, t, Subspace.zero(i.total_dim)).rank for t in (t1, t2)):
        raise RuleError("a tensor component sends some state to zero")
    return SequentJudgment((Adjoint(TensorTerm(t1, t2), And(b1, b2)),),
                           And(Adjoint(t1, b1), Adjoint(t2, b2)))


@_rule("QQL11", "s")
def _qql11(i, premises, p, notes):
    (s,) = premises
    if len(s.context) != 1 or not isinstance(s.context[0], Adjoint):
        raise RuleError("premise assumption must be a term-adjoint formula")
    adj = s.context[0]
    term_wf(i, adj.term)
    _unitary(i, adj.term)
    return SequentJudgment((adj.sub,), Adjoint(term_invert(adj.term), s.conclusion))


@_rule("QQL12", "s")
def _qql12(i, premises, p, notes):
    (s,) = premises
    if len(s.context) != 1 or not isinstance(s.conclusion, Adjoint):
        raise RuleError("premise conclusion must be a term-adjoint formula")
    adj = s.conclusion
    term_wf(i, adj.term)
    _unitary(i, adj.term)
    return SequentJudgment((Adjoint(term_invert(adj.term), s.context[0]),), adj.sub)


@_rule("QQL13", required="term qvars formula", directed=True)
def _qql13(i, premises, p, notes):
    t, qs, beta = _unitary(i, p["term"]), p["qvars"], p["formula"]
    if not term_vars(t) <= (free_vars(beta) - set(qs)):
        raise RuleError("term variables must be free in the body and not quantified")
    return SequentJudgment((Adjoint(t, Forall(qs, beta)),), Forall(qs, Adjoint(t, beta)))


@_rule("QQL14", required="term qvars formula", sigma=())
def _qql14(i, premises, p, notes):
    qs, beta = p["qvars"], p["formula"]
    t = _generator_word(i, p["term"], qs, "the instantiating term")
    return SequentJudgment(p["sigma"] + (Forall(qs, beta),), Adjoint(t, beta))


@_rule("QQL15", "s", "qvars")
def _qql15(i, premises, p, notes):
    (s,) = premises
    qs, beta = p["qvars"], s.conclusion
    free_sigma = frozenset().union(*[free_vars(f) for f in s.context])
    if not (not (set(qs) & free_vars(beta)) or free_sigma <= (free_vars(beta) - set(qs))):
        raise RuleError(
            "need the quantified variables absent from the conclusion's free "
            "variables, or every assumption variable free in the body and unquantified"
        )
    return SequentJudgment(s.context, Forall(qs, beta))


# ---------------------------------------------------------------------------
# Fig. 7: construct rules
# ---------------------------------------------------------------------------


@_rule("Ax.Sk", required="formula")
def _ax_sk(i, premises, p, notes):
    return HoareTriple(p["formula"], Skip(), p["formula"])


@_rule("Ax.In", required="formula var")
def _ax_in(i, premises, p, notes):
    beta, q = p["formula"], p["var"]
    return HoareTriple(Adjoint(BasicTerm("0", (q,)), beta), Init(q), beta)


@_rule("Ax.UT", required="formula term vars")
def _ax_ut(i, premises, p, notes):
    beta, t, qs = p["formula"], _unitary(i, p["term"]), p["vars"]
    if not term_vars(t) <= set(qs):
        raise RuleError("the term must act within the assigned variables")
    return HoareTriple(Adjoint(t, beta), UnitaryAssign(qs, t), beta)


@_rule("R.SC", "tt")
def _r_sc(i, premises, p, notes):
    t1, t2 = premises
    if t1.post != t2.pre:
        raise RuleError("the midcondition does not match between the premises")
    return HoareTriple(t1.pre, SeqProg(t1.prog, t2.prog), t2.post)


@_rule("R.IF", "t+", "meas vars")
def _r_if(i, premises, p, notes):
    meas, qs = p["meas"], p["vars"]
    m = i.measurements.get(meas)
    if m is None:
        raise RuleError(f"unknown measurement symbol {meas!r}")
    if len(premises) != len(m.outcomes):
        raise RuleError(f"expected {len(m.outcomes)} triple premises (one per outcome)")
    post = premises[0].post
    branches = []
    disjuncts = []
    for outcome, t in zip(m.outcomes, premises):
        if t.post != post:
            raise RuleError("all premises must share one postcondition")
        branches.append((outcome, t.prog))
        disjuncts.append(And(MeasAtom(meas, outcome, qs), t.pre))
    prog = CaseProg(meas, qs, tuple(branches))
    prog_wf(i, prog)
    return HoareTriple(big_or(disjuncts), prog, post)


@_rule("R.LP", "t", "meas vars")
def _r_lp(i, premises, p, notes):
    meas, qs, t = p["meas"], p["vars"], premises[0]
    inv = t.post
    # The invariant must read (M0 ^ gamma) v (M1 ^ beta) with beta the
    # premise's precondition; Or is the derived connective.
    try:
        gamma, beta = inv.sub.left.sub.right, inv.sub.right.sub.right
    except AttributeError:
        gamma = beta = None
    if inv != or_formula(And(MeasAtom(meas, 0, qs), gamma), And(MeasAtom(meas, 1, qs), beta)):
        raise RuleError(
            "the premise postcondition must have the shape (M0(qs) and gamma) or (M1(qs) and pre)"
        )
    if beta != t.pre:
        raise RuleError("the loop disjunct must carry the premise precondition")
    prog = WhileProg(meas, qs, t.prog)
    prog_wf(i, prog)
    return HoareTriple(inv, prog, gamma)


@_rule("R.Con", "t|sts", pre=None, post=None)
def _r_con(i, premises, p, notes):
    if len(premises) == 3:
        s1, t, s2 = premises
        if len(s1.context) != 1 or s1.conclusion != t.pre:
            raise RuleError("first sequent must derive the premise precondition")
        if len(s2.context) != 1 or s2.context[0] != t.post:
            raise RuleError("second sequent must weaken the premise postcondition")
        return HoareTriple(s1.context[0], t.prog, s2.conclusion)
    t, pre, post = premises[0], p["pre"], p["post"]
    if pre is None or post is None:
        raise RuleError("a single triple premise needs the parameters 'pre' and 'post'")
    if not entails(i, pre, t.pre):
        raise RuleError(
            "entailment discharge failed, the new precondition does not "
            "entail the old one in this interpretation"
        )
    if not entails(i, t.post, post):
        raise RuleError(
            "entailment discharge failed, the old postcondition does not "
            "entail the new one in this interpretation"
        )
    notes.append("R.Con: entailments discharged semantically against the interpretation")
    return HoareTriple(pre, t.prog, post)


# ---------------------------------------------------------------------------
# Fig. 8: adaptation rules
# ---------------------------------------------------------------------------


@_rule("Invariance", "t", "delta")
def _invariance(i, premises, p, notes):
    t, delta = premises[0], p["delta"]
    overlap = free_vars(delta) & prog_vars(t.prog)
    if overlap:
        raise RuleError(f"the frame formula mentions program variables {sorted(overlap)}")
    return HoareTriple(And(t.pre, delta), t.prog, And(t.post, delta))


@_rule("Substitution", "t", "term")
def _substitution(i, premises, p, notes):
    t, tau = premises[0], p["term"]
    overlap = term_vars(tau) & prog_vars(t.prog)
    if overlap:
        raise RuleError(f"the term touches program variables {sorted(overlap)}")
    return HoareTriple(Adjoint(tau, t.pre), t.prog, Adjoint(tau, t.post))


@_rule("Conjunction", "tt")
def _conjunction(i, premises, p, notes):
    t1, t2 = premises
    if t1.prog != t2.prog:
        raise RuleError("premises must concern the same program")
    return HoareTriple(And(t1.pre, t2.pre), t1.prog, And(t1.post, t2.post))


@_rule("Disjunction", "tt")
def _disjunction(i, premises, p, notes):
    t1, t2 = premises
    if t1.prog != t2.prog:
        raise RuleError("premises must concern the same program")
    if t1.post != t2.post:
        raise RuleError("premises must share one postcondition")
    return HoareTriple(or_formula(t1.pre, t2.pre), t1.prog, t1.post)


@_rule("Exists-Intro", "t", "qvars", max_steps=None)  # max_steps: accepted, unused
def _exists_intro(i, premises, p, notes):
    t, qs = premises[0], p["qvars"]
    bad = set(qs) & (prog_vars(t.prog) | free_vars(t.post))
    if bad:
        raise RuleError(
            f"quantified variables {sorted(bad)} are program variables or free in the postcondition"
        )
    probe = terminates_probe(i, t.prog)
    if probe.status != "terminates":
        guard = f"{probe.loop.measurement}[{','.join(probe.loop.variables)}]"
        raise RuleError(
            f"termination fails, the loop guarded by {guard} = 1 "
            "traps some input forever; the rule needs a terminating program"
        )
    notes.append("Exists-Intro: termination decided from the loops' never-terminating subspaces")
    return HoareTriple(exists_formula(qs, t.pre), t.prog, t.post)


@_rule("Hoare-Adaptation", "t", "delta pvars witness")
def _hoare_adaptation(i, premises, p, notes):
    t, delta, ps = premises[0], p["delta"], p["pvars"]
    if not prog_vars(t.prog) <= set(ps):
        raise RuleError(
            f"program variables {sorted(prog_vars(t.prog) - set(ps))} "
            "lie outside the designated variable list"
        )
    qs = sorted(
        (free_vars(t.pre) | free_vars(t.post)) - (free_vars(delta) | set(ps)),
        key=i.var_index,
    )
    allowed_generators(i, qs)  # the precondition quantifies over them, as forall reads it
    _generator_word(i, p["witness"], ps, "the witness term")
    probe = representable_probe(i, t.prog, p["witness"])
    if probe.status != "represented":
        raise RuleError(
            f"the witness term fails to represent the program (refuted after {probe.checks} checks)"
        )
    notes.append(
        f"Hoare-Adaptation: representability decided on 2d−1 rays ({probe.checks} rays)")
    body = And(t.pre, Forall(ps, sasaki_formula(t.post, delta)))
    pre = exists_formula(tuple(qs), body) if qs else body
    return HoareTriple(pre, t.prog, delta)


# ---------------------------------------------------------------------------
# proof checking
# ---------------------------------------------------------------------------


@dataclass
class StepReport:
    step_id: str
    rule: str
    ok: bool
    message: str = ""
    notes: tuple = ()
    cross_check: bool | None = None


@dataclass
class ProofReport:
    ok: bool
    steps: list
    first_failure: str | None = None

    def as_dict(self) -> dict:
        return {
            "ok": self.ok,
            "first_failure": self.first_failure,
            "steps": [
                {
                    "id": s.step_id,
                    "rule": s.rule,
                    "ok": s.ok,
                    "message": s.message,
                    "notes": list(s.notes),
                    "cross_check": s.cross_check,
                }
                for s in self.steps
            ],
        }


def _semantic_check(i, judgment) -> bool:
    if isinstance(judgment, HoareTriple):
        return triple_valid(i, judgment)[0]
    if isinstance(judgment, SequentJudgment):
        if not judgment.context:
            target = eval_subspace(i, judgment.conclusion)
            return target.rank == target.dim
        assumed = lattice_meet([eval_subspace(i, f) for f in judgment.context], i.tol)
        return includes(eval_subspace(i, judgment.conclusion), assumed, i.tol)
    if isinstance(judgment, EquationJudgment):
        return term_equiv(i, judgment.left, judgment.right)
    return False


def check_proof(i: Interpretation, steps, semantic_cross_check: bool = False) -> ProofReport:
    """Re-derive every step of a proof script, its ``ProofStep``s in order,
    via apply_rule and compare with the stated judgment; optionally
    cross-check each proven judgment against the semantic oracle.

    The rule discharges and the cross-check both decide at ``i.tol``; to
    check at other tolerances, pass ``dataclasses.replace(i, tol=...)``.  A
    package error inside a step fails that step alone, and so does a
    judgment nested past Python's stack."""
    seen: dict = {}  # the accepted steps' judgments, by id
    ids: set = set()  # every id so far, accepted or not
    reports: list = []
    for step in steps:
        notes: list = []
        try:
            if step.step_id in ids:
                raise RuleError("duplicate step id")
            missing = [p for p in step.premises if p not in seen]
            if missing:
                raise RuleError(f"premises {missing} are not defined by earlier steps")
            derived = apply_rule(i, step.rule, [seen[p] for p in step.premises], step.params, notes)
            if derived != step.judgment:
                raise RuleError(f"stated judgment differs from the rule's conclusion {derived}")
            rep = StepReport(step.step_id, step.rule, True, notes=tuple(notes))
        except RuleError as exc:
            rep = StepReport(step.step_id, step.rule, False, str(exc))
        except RecursionError:  # == and hashing recurse through a judgment
            rep = StepReport(step.step_id, step.rule, False, "input nests too deeply")
        if rep.ok and semantic_cross_check:
            try:
                rep.cross_check = _semantic_check(i, step.judgment)
            except BvnError as exc:
                rep.cross_check = False
                rep.message = f"{step.rule}: semantic cross-check failed, {exc}"
            if not rep.cross_check:
                rep.ok = False
                rep.message = rep.message or "semantic cross-check failed"
        if rep.ok:
            seen[step.step_id] = step.judgment
        ids.add(step.step_id)
        reports.append(rep)
    first = next((rep.step_id for rep in reports if not rep.ok), None)
    return ProofReport(first is None, reports, first)
