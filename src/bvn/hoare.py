"""Hoare triples, semantic validity, and the proof-script checker.

Rule registry (script names on the left):

  QL1..QL11                 propositional sequent rules
  QT.Refl QT.Sym QT.Trans   equational core for term equations
  QT1a QT1b QT2..QT6        term-equation rules (congruence, mixing,
                            tensor/sequence exchange, identity,
                            associativity, unitary inverses)
  QQL1..QQL15               first-order rules over quantum variables
                            (term-adjoint and quantifier reasoning)
  Ax.Sk Ax.In Ax.UT R.SC R.IF R.LP R.Con      program-construct rules
  Invariance Substitution Conjunction Disjunction
  Exists-Intro Hoare-Adaptation               adaptation rules

Entailment premises (R.Con, QQL2/QQL3 equation sides) may be discharged
semantically against the active interpretation or by explicit sub-proof
steps.  Checking only: no rule application is ever searched for.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from .config import Tolerances
from .errors import RuleError, WellFormednessError
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
from .interp import Interpretation
from .linalg import includes, inclusion_witness, lattice_meet
from .programs import (
    CaseProg,
    Init,
    Program,
    SeqProg,
    Skip,
    UnitaryAssign,
    WhileProg,
    prog_image,
    prog_vars,
    prog_wf,
    prog_wlp,
    representable_probe,
    terminates_probe,
)
from .terms import (
    BasicTerm,
    ProbSumTerm,
    SeqTerm,
    Term,
    TensorTerm,
    identity_term,
    is_unitary_term,
    term_equiv,
    term_invert,
    term_vars,
    term_wf,
)

__all__ = [
    "HoareTriple",
    "TripleJudgment",
    "SequentJudgment",
    "EquationJudgment",
    "ProofStep",
    "ProofScript",
    "triple_valid",
    "triple_valid_wlp",
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
class TripleJudgment:
    triple: HoareTriple


@dataclass(frozen=True)
class SequentJudgment:
    context: tuple  # of Formula
    conclusion: Formula


@dataclass(frozen=True)
class EquationJudgment:
    left: Term
    right: Term


@dataclass
class ProofStep:
    step_id: str
    judgment: object
    rule: str
    premises: tuple = ()
    params: dict = field(default_factory=dict)


@dataclass
class ProofScript:
    steps: list


# ---------------------------------------------------------------------------
# semantic validity of triples
# ---------------------------------------------------------------------------


def triple_wf(i: Interpretation, t: HoareTriple):
    formula_wf(i, t.pre)
    prog_wf(i, t.prog)
    formula_wf(i, t.post)


def triple_valid(i: Interpretation, t: HoareTriple, tol: Tolerances | None = None):
    """Partial correctness: the forward image of the precondition subspace
    lies inside the postcondition subspace.  Returns (bool, report)."""
    tol = tol or i.tol
    triple_wf(i, t)
    pre = eval_subspace(i, t.pre, tol)
    post = eval_subspace(i, t.post, tol)
    image = prog_image(i, t.prog, pre, tol)
    witness = inclusion_witness(post, image, tol)
    report = {
        "pre_rank": pre.rank,
        "image_rank": image.rank,
        "post_rank": post.rank,
        "tolerances": tol.as_dict(),
        "witness": None if witness is None else [complex(c) for c in witness],
    }
    return witness is None, report


def triple_valid_wlp(i: Interpretation, t: HoareTriple, tol: Tolerances | None = None) -> bool:
    """The same judgment through the weakest liberal precondition."""
    tol = tol or i.tol
    triple_wf(i, t)
    pre = eval_subspace(i, t.pre, tol)
    post = eval_subspace(i, t.post, tol)
    return includes(prog_wlp(i, t.prog, post, tol), pre, tol)


# ---------------------------------------------------------------------------
# judgment plumbing
# ---------------------------------------------------------------------------


def _ast_key(x) -> str:
    return repr(x)


def _ctx(formulas) -> tuple:
    return tuple(sorted(formulas, key=_ast_key))


def _ctx_remove(context: tuple, member) -> tuple:
    out = list(context)
    try:
        out.remove(member)
    except ValueError:
        raise RuleError(f"context does not contain the required formula {member}") from None
    return tuple(out)


def judgment_equal(a, b) -> bool:
    if isinstance(a, SequentJudgment) and isinstance(b, SequentJudgment):
        return _ctx(a.context) == _ctx(b.context) and a.conclusion == b.conclusion
    return a == b


def _need(params: dict, key: str, rule: str):
    if key not in params:
        raise RuleError(f"{rule}: missing parameter {key!r}")
    return params[key]


def _keyword(params: dict, key: str, rule: str, allowed: tuple) -> str:
    """An optional word-valued parameter; the first allowed word is the default."""
    value = params.get(key, allowed[0])
    if value not in allowed:
        raise RuleError(f"{rule}: {key} must be one of {', '.join(allowed)}, got {value!r}")
    return value


def _directed(rule: str, sides, judgment=lambda lhs, rhs: SequentJudgment((lhs,), rhs)):
    """A rule read in either direction: ``sides(i, params)`` checks the side
    conditions and returns (lhs, rhs); direction=lr concludes lhs |- rhs (or
    the equation lhs = rhs), direction=rl the converse."""
    def apply(i, premises, params, notes):
        lhs, rhs = sides(i, params)
        if _keyword(params, "direction", rule, ("lr", "rl")) == "rl":
            lhs, rhs = rhs, lhs
        return judgment(lhs, rhs)

    return apply


def _one_triple(premises, rule):
    if len(premises) != 1 or not isinstance(premises[0], TripleJudgment):
        raise RuleError(f"{rule}: expected exactly one triple premise")
    return premises[0].triple


def _sequent(p, rule) -> SequentJudgment:
    if not isinstance(p, SequentJudgment):
        raise RuleError(f"{rule}: expected a sequent premise")
    return p


def _equation_side(i, premises, params, rule):
    """An equation premise, or a semantically discharged equation given as
    params t1/t2 with semantic=true."""
    if premises:
        if len(premises) != 1 or not isinstance(premises[0], EquationJudgment):
            raise RuleError(f"{rule}: expected one equation premise")
        return premises[0].left, premises[0].right
    if not params.get("semantic"):
        raise RuleError(f"{rule}: needs an equation premise or semantic=true with t1/t2")
    t1, t2 = _need(params, "t1", rule), _need(params, "t2", rule)
    if not term_equiv(i, t1, t2):
        raise RuleError(f"{rule}: semantic discharge failed, the terms denote different channels")
    return t1, t2


# ---------------------------------------------------------------------------
# Fig. 1: propositional sequent rules
# ---------------------------------------------------------------------------


def _ql1(i, premises, params, notes):
    beta = _need(params, "formula", "QL1")
    sigma = tuple(params.get("sigma", ()))
    return SequentJudgment(_ctx(sigma + (beta,)), beta)


def _ql2(i, premises, params, notes):
    if len(premises) != 2:
        raise RuleError("QL2: expected two sequent premises")
    p1, p2 = (_sequent(p, "QL2") for p in premises)
    rest = _ctx_remove(p2.context, p1.conclusion)
    return SequentJudgment(_ctx(tuple(p1.context) + rest), p2.conclusion)


def _ql3(i, premises, params, notes):
    conj = _need(params, "formula", "QL3")
    if not isinstance(conj, And):
        raise RuleError("QL3: the designated formula must be a conjunction")
    pick = _keyword(params, "pick", "QL3", ("left", "right"))
    chosen = conj.left if pick == "left" else conj.right
    sigma = tuple(params.get("sigma", ()))
    return SequentJudgment(_ctx(sigma + (conj,)), chosen)


def _ql4(i, premises, params, notes):
    if len(premises) != 2:
        raise RuleError("QL4: expected two sequent premises")
    p1, p2 = (_sequent(p, "QL4") for p in premises)
    if _ctx(p1.context) != _ctx(p2.context):
        raise RuleError("QL4: premises must share one context")
    return SequentJudgment(_ctx(p1.context), And(p1.conclusion, p2.conclusion))


def _ql5(i, premises, params, notes):
    p = _sequent(_one(premises, "QL5"), "QL5")
    left = _need(params, "left", "QL5")
    right = _need(params, "right", "QL5")
    ctx = _ctx_remove(p.context, left)
    ctx = _ctx_remove(ctx, right)
    return SequentJudgment(_ctx(ctx + (And(left, right),)), p.conclusion)


def _one(premises, rule):
    if len(premises) != 1:
        raise RuleError(f"{rule}: expected exactly one premise")
    return premises[0]


def _ql6(i, premises, params, notes):
    if len(premises) != 2:
        raise RuleError("QL6: expected two sequent premises")
    p1, p2 = (_sequent(p, "QL6") for p in premises)
    if len(p1.context) != 1 or p1.context != p2.context:
        raise RuleError("QL6: premises must both assume exactly the refuted formula")
    if p2.conclusion != Not(p1.conclusion):
        raise RuleError("QL6: conclusions must be a formula and its negation")
    return SequentJudgment((), Not(p1.context[0]))


def _ql7(i, premises, params, notes):
    beta = _need(params, "formula", "QL7")
    sigma = tuple(params.get("sigma", ()))
    return SequentJudgment(_ctx(sigma + (beta,)), Not(Not(beta)))


def _ql8(i, premises, params, notes):
    beta = _need(params, "formula", "QL8")
    sigma = tuple(params.get("sigma", ()))
    return SequentJudgment(_ctx(sigma + (Not(Not(beta)),)), beta)


def _ql9(i, premises, params, notes):
    beta = _need(params, "formula", "QL9")
    target = _need(params, "target", "QL9")
    sigma = tuple(params.get("sigma", ()))
    return SequentJudgment(_ctx(sigma + (And(beta, Not(beta)),)), target)


def _ql10(i, premises, params, notes):
    p = _sequent(_one(premises, "QL10"), "QL10")
    if len(p.context) != 1:
        raise RuleError("QL10: premise must have a single assumption")
    return SequentJudgment((Not(p.conclusion),), Not(p.context[0]))


def _ql11(i, premises, params, notes):
    beta = _need(params, "formula", "QL11")
    target = _need(params, "target", "QL11")
    assumption = And(beta, Not(And(beta, Not(And(beta, target)))))
    return SequentJudgment((assumption,), target)


# ---------------------------------------------------------------------------
# Fig. 5: term-equation rules
# ---------------------------------------------------------------------------


def _qt_refl(i, premises, params, notes):
    t = _need(params, "term", "QT.Refl")
    term_wf(i, t)
    return EquationJudgment(t, t)


def _qt_sym(i, premises, params, notes):
    p = _one(premises, "QT.Sym")
    if not isinstance(p, EquationJudgment):
        raise RuleError("QT.Sym: expected an equation premise")
    return EquationJudgment(p.right, p.left)


def _qt_trans(i, premises, params, notes):
    if len(premises) != 2 or not all(isinstance(p, EquationJudgment) for p in premises):
        raise RuleError("QT.Trans: expected two equation premises")
    a, b = premises
    if a.right != b.left:
        raise RuleError("QT.Trans: middle terms differ")
    return EquationJudgment(a.left, b.right)


def _qt1(side):
    def rule(i, premises, params, notes):
        name = f"QT1{side}"
        p = _one(premises, name)
        if not isinstance(p, EquationJudgment):
            raise RuleError(f"{name}: expected an equation premise")
        t = _need(params, "term", name)
        term_wf(i, t)
        if side == "a":
            return EquationJudgment(SeqTerm(t, p.left), SeqTerm(t, p.right))
        return EquationJudgment(SeqTerm(p.left, t), SeqTerm(p.right, t))

    return rule


def _qt2(i, premises, params, notes):
    weights = _need(params, "weights", "QT2")
    if len(weights) != len(premises) or not premises:
        raise RuleError("QT2: one weight per equation premise required")
    if not all(isinstance(p, EquationJudgment) for p in premises):
        raise RuleError("QT2: premises must be equations")
    lhs = ProbSumTerm(tuple((w, p.left) for w, p in zip(weights, premises)))
    rhs = ProbSumTerm(tuple((w, p.right) for w, p in zip(weights, premises)))
    term_wf(i, lhs)
    term_wf(i, rhs)
    return EquationJudgment(lhs, rhs)


def _qt3(i, premises, params, notes):
    t1 = _need(params, "t1", "QT3")
    t2 = _need(params, "t2", "QT3")
    if term_vars(t1) & term_vars(t2):
        raise RuleError("QT3: components must have disjoint variables")
    term_wf(i, t1)
    term_wf(i, t2)
    form = _keyword(params, "form", "QT3", ("tensor-seq", "tensor-seq-comm", "seq-comm"))
    if form == "tensor-seq":
        return EquationJudgment(TensorTerm(t1, t2), SeqTerm(t1, t2))
    if form == "tensor-seq-comm":
        return EquationJudgment(TensorTerm(t1, t2), SeqTerm(t2, t1))
    return EquationJudgment(SeqTerm(t1, t2), SeqTerm(t2, t1))


def _is_identity_only(t: Term) -> bool:
    if isinstance(t, BasicTerm):
        return t.symbol == "I"
    if isinstance(t, SeqTerm):
        return _is_identity_only(t.first) and _is_identity_only(t.second)
    if isinstance(t, TensorTerm):
        return _is_identity_only(t.left) and _is_identity_only(t.right)
    return False


def _qt4(i, premises, params, notes):
    t = _need(params, "term", "QT4")
    ident = _need(params, "identity", "QT4")
    if not _is_identity_only(ident):
        raise RuleError("QT4: the designated identity term must be built from I alone")
    term_wf(i, t)
    term_wf(i, ident)
    if _keyword(params, "form", "QT4", ("left", "right")) == "left":
        return EquationJudgment(SeqTerm(ident, t), t)
    return EquationJudgment(SeqTerm(t, ident), t)


def _qt5(i, params):
    t1, t2, t3 = (_need(params, k, "QT5") for k in ("t1", "t2", "t3"))
    for t in (t1, t2, t3):
        term_wf(i, t)
    return SeqTerm(t1, SeqTerm(t2, t3)), SeqTerm(SeqTerm(t1, t2), t3)


def _qt6(i, premises, params, notes):
    t = _need(params, "term", "QT6")
    term_wf(i, t)
    if not is_unitary_term(i, t):
        raise RuleError("QT6: the term is not unitary")
    inv = term_invert(t, i)
    ident = identity_term(sorted(term_vars(t), key=i.var_index))
    if _keyword(params, "form", "QT6", ("right", "left")) == "right":
        return EquationJudgment(SeqTerm(t, inv), ident)
    return EquationJudgment(SeqTerm(inv, t), ident)


# ---------------------------------------------------------------------------
# Fig. 6: first-order rules with quantum variables
# ---------------------------------------------------------------------------


def _qql1(i, premises, params, notes):
    p = _sequent(_one(premises, "QQL1"), "QQL1")
    return p


def _qql2(i, premises, params, notes):
    t1, t2 = _equation_side(i, premises, params, "QQL2")
    pred = _need(params, "pred", "QQL2")
    lhs, rhs = Atom(pred, t1), Atom(pred, t2)
    formula_wf(i, lhs)
    formula_wf(i, rhs)
    return SequentJudgment((lhs,), rhs)


def _qql3(i, premises, params, notes):
    t1, t2 = _equation_side(i, premises, params, "QQL3")
    beta = _need(params, "formula", "QQL3")
    return SequentJudgment((Adjoint(t1, beta),), Adjoint(t2, beta))


def _qql4(i, premises, params, notes):
    weights = _need(params, "weights", "QQL4")
    if len(weights) != len(premises) or not premises:
        raise RuleError("QQL4: one weight per premise required")
    seqs = [_sequent(p, "QQL4") for p in premises]
    ctx = _ctx(seqs[0].context)
    pred = None
    comps = []
    for p in seqs:
        if _ctx(p.context) != ctx:
            raise RuleError("QQL4: premises must share one context")
        if not isinstance(p.conclusion, Atom):
            raise RuleError("QQL4: premises must conclude atomic formulas")
        if pred is None:
            pred = p.conclusion.predicate
        elif p.conclusion.predicate != pred:
            raise RuleError("QQL4: premises must use one predicate symbol")
        comps.append(p.conclusion.term)
    mixed = ProbSumTerm(tuple((w, t) for w, t in zip(weights, comps)))
    out = Atom(pred, mixed)
    formula_wf(i, out)
    return SequentJudgment(ctx, out)


def _qql5(i, params):
    t1, t2 = _need(params, "t1", "QQL5"), _need(params, "t2", "QQL5")
    beta = _need(params, "formula", "QQL5")
    return Adjoint(t1, Adjoint(t2, beta)), Adjoint(SeqTerm(t1, t2), beta)


def _qql6(i, premises, params, notes):
    p = _sequent(_one(premises, "QQL6"), "QQL6")
    if len(p.context) != 1:
        raise RuleError("QQL6: premise must have a single assumption")
    t = _need(params, "term", "QQL6")
    term_wf(i, t)
    return SequentJudgment((Adjoint(t, p.context[0]),), Adjoint(t, p.conclusion))


def _qql7(i, params):
    t1, t2 = _need(params, "t1", "QQL7"), _need(params, "t2", "QQL7")
    pred = _need(params, "pred", "QQL7")
    rhs = Atom(pred, SeqTerm(t1, t2))
    formula_wf(i, rhs)
    return Adjoint(t1, Atom(pred, t2)), rhs


def _require_unitary(i, t, rule):
    term_wf(i, t)
    if not is_unitary_term(i, t):
        raise RuleError(f"{rule}: the term is not unitary")


def _qql8(i, params):
    t = _need(params, "term", "QQL8")
    _require_unitary(i, t, "QQL8")
    beta = _need(params, "formula", "QQL8")
    return Adjoint(t, Not(beta)), Not(Adjoint(t, beta))


def _qql9(i, params):
    t = _need(params, "term", "QQL9")
    term_wf(i, t)
    b1, b2 = _need(params, "left", "QQL9"), _need(params, "right", "QQL9")
    return Adjoint(t, And(b1, b2)), And(Adjoint(t, b1), Adjoint(t, b2))


def _qql10(i, params):
    t1, t2 = _need(params, "t1", "QQL10"), _need(params, "t2", "QQL10")
    b1, b2 = _need(params, "left", "QQL10"), _need(params, "right", "QQL10")
    if term_vars(t1) & term_vars(t2):
        raise RuleError("QQL10: the tensor components must have disjoint variables")
    if not free_vars(b1) <= term_vars(t1) or not free_vars(b2) <= term_vars(t2):
        raise RuleError("QQL10: each formula must mention only its component's variables")
    term_wf(i, t1)
    term_wf(i, t2)
    return Adjoint(TensorTerm(t1, t2), And(b1, b2)), And(Adjoint(t1, b1), Adjoint(t2, b2))


def _qql11(i, premises, params, notes):
    p = _sequent(_one(premises, "QQL11"), "QQL11")
    if len(p.context) != 1 or not isinstance(p.context[0], Adjoint):
        raise RuleError("QQL11: premise assumption must be a term-adjoint formula")
    adj = p.context[0]
    _require_unitary(i, adj.term, "QQL11")
    return SequentJudgment((adj.sub,), Adjoint(term_invert(adj.term, i), p.conclusion))


def _qql12(i, premises, params, notes):
    p = _sequent(_one(premises, "QQL12"), "QQL12")
    if len(p.context) != 1 or not isinstance(p.conclusion, Adjoint):
        raise RuleError("QQL12: premise conclusion must be a term-adjoint formula")
    adj = p.conclusion
    _require_unitary(i, adj.term, "QQL12")
    return SequentJudgment(
        (Adjoint(term_invert(adj.term, i), p.context[0]),), adj.sub
    )


def _qql13(i, params):
    t = _need(params, "term", "QQL13")
    qs = tuple(_need(params, "qvars", "QQL13"))
    beta = _need(params, "formula", "QQL13")
    _require_unitary(i, t, "QQL13")
    if not term_vars(t) <= (free_vars(beta) - set(qs)):
        raise RuleError("QQL13: term variables must be free in the body and not quantified")
    return Adjoint(t, Forall(qs, beta)), Forall(qs, Adjoint(t, beta))


def _qql14(i, premises, params, notes):
    t = _need(params, "term", "QQL14")
    qs = tuple(_need(params, "qvars", "QQL14"))
    beta = _need(params, "formula", "QQL14")
    term_wf(i, t)
    if not term_vars(t) <= set(qs):
        raise RuleError("QQL14: the instantiating term must act on the quantified variables")
    sigma = tuple(params.get("sigma", ()))
    return SequentJudgment(_ctx(sigma + (Forall(qs, beta),)), Adjoint(t, beta))


def _qql15(i, premises, params, notes):
    p = _sequent(_one(premises, "QQL15"), "QQL15")
    qs = tuple(_need(params, "qvars", "QQL15"))
    beta = p.conclusion
    free_sigma = frozenset().union(*[free_vars(f) for f in p.context]) if p.context else frozenset()
    if not (not (set(qs) & free_vars(beta)) or free_sigma <= (free_vars(beta) - set(qs))):
        raise RuleError(
            "QQL15: need the quantified variables absent from the conclusion's free "
            "variables, or every assumption variable free in the body and unquantified"
        )
    return SequentJudgment(_ctx(p.context), Forall(qs, beta))


# ---------------------------------------------------------------------------
# Fig. 7: construct rules
# ---------------------------------------------------------------------------


def _ax_sk(i, premises, params, notes):
    beta = _need(params, "formula", "Ax.Sk")
    formula_wf(i, beta)
    return TripleJudgment(HoareTriple(beta, Skip(), beta))


def _ax_in(i, premises, params, notes):
    beta = _need(params, "formula", "Ax.In")
    q = _need(params, "var", "Ax.In")
    formula_wf(i, beta)
    i.var_dim(q)
    pre = Adjoint(BasicTerm("0", (q,)), beta)
    return TripleJudgment(HoareTriple(pre, Init(q), beta))


def _ax_ut(i, premises, params, notes):
    beta = _need(params, "formula", "Ax.UT")
    t = _need(params, "term", "Ax.UT")
    qs = tuple(_need(params, "vars", "Ax.UT"))
    formula_wf(i, beta)
    term_wf(i, t)
    if not is_unitary_term(i, t):
        raise RuleError("Ax.UT: assignment terms must be unitary")
    if not term_vars(t) <= set(qs):
        raise RuleError("Ax.UT: the term must act within the assigned variables")
    return TripleJudgment(HoareTriple(Adjoint(t, beta), UnitaryAssign(qs, t), beta))


def _r_sc(i, premises, params, notes):
    if len(premises) != 2 or not all(isinstance(p, TripleJudgment) for p in premises):
        raise RuleError("R.SC: expected two triple premises")
    t1, t2 = premises[0].triple, premises[1].triple
    if t1.post != t2.pre:
        raise RuleError("R.SC: the midcondition does not match between the premises")
    return TripleJudgment(HoareTriple(t1.pre, SeqProg(t1.prog, t2.prog), t2.post))


def _r_if(i, premises, params, notes):
    meas = _need(params, "meas", "R.IF")
    qs = tuple(_need(params, "vars", "R.IF"))
    m = i.measurements.get(meas)
    if m is None:
        raise RuleError(f"R.IF: unknown measurement symbol {meas!r}")
    if len(premises) != len(m.outcomes) or not all(
        isinstance(p, TripleJudgment) for p in premises
    ):
        raise RuleError(
            f"R.IF: expected {len(m.outcomes)} triple premises (one per outcome)"
        )
    post = premises[0].triple.post
    branches = []
    disjuncts = []
    for outcome, p in zip(m.outcomes, premises):
        t = p.triple
        if t.post != post:
            raise RuleError("R.IF: all premises must share one postcondition")
        branches.append((outcome, t.prog))
        disjuncts.append(And(MeasAtom(meas, outcome, qs), t.pre))
    pre = big_or(disjuncts)
    prog = CaseProg(meas, qs, tuple(branches))
    prog_wf(i, prog)
    return TripleJudgment(HoareTriple(pre, prog, post))


def _r_lp(i, premises, params, notes):
    meas = _need(params, "meas", "R.LP")
    qs = tuple(_need(params, "vars", "R.LP"))
    t = _one_triple(premises, "R.LP")
    inv = t.post
    # The invariant must read (M0 ^ gamma) v (M1 ^ beta) with beta the
    # premise's precondition; Or is the derived connective.
    shape_err = RuleError(
        "R.LP: the premise postcondition must have the shape "
        "(M0(qs) and gamma) or (M1(qs) and pre)"
    )
    if not (isinstance(inv, Not) and isinstance(inv.sub, And)):
        raise shape_err
    left, right = inv.sub.left, inv.sub.right
    if not (isinstance(left, Not) and isinstance(right, Not)):
        raise shape_err
    exit_part, loop_part = left.sub, right.sub
    if not (
        isinstance(exit_part, And)
        and exit_part.left == MeasAtom(meas, 0, qs)
        and isinstance(loop_part, And)
        and loop_part.left == MeasAtom(meas, 1, qs)
    ):
        raise shape_err
    gamma = exit_part.right
    if loop_part.right != t.pre:
        raise RuleError("R.LP: the loop disjunct must carry the premise precondition")
    prog = WhileProg(meas, qs, t.prog)
    prog_wf(i, prog)
    return TripleJudgment(HoareTriple(inv, prog, gamma))


def _r_con(i, premises, params, notes):
    if len(premises) == 3:
        s1 = _sequent(premises[0], "R.Con")
        tj = premises[1]
        s2 = _sequent(premises[2], "R.Con")
        if not isinstance(tj, TripleJudgment):
            raise RuleError("R.Con: middle premise must be a triple")
        t = tj.triple
        if len(s1.context) != 1 or s1.conclusion != t.pre:
            raise RuleError("R.Con: first sequent must derive the premise precondition")
        if len(s2.context) != 1 or s2.context[0] != t.post:
            raise RuleError("R.Con: second sequent must weaken the premise postcondition")
        return TripleJudgment(HoareTriple(s1.context[0], t.prog, s2.conclusion))
    t = _one_triple(premises, "R.Con")
    pre = _need(params, "pre", "R.Con")
    post = _need(params, "post", "R.Con")
    formula_wf(i, pre)
    formula_wf(i, post)
    if not entails(i, pre, t.pre):
        raise RuleError(
            "R.Con: entailment discharge failed, the new precondition does not "
            "entail the old one in this interpretation"
        )
    if not entails(i, t.post, post):
        raise RuleError(
            "R.Con: entailment discharge failed, the old postcondition does not "
            "entail the new one in this interpretation"
        )
    notes.append("R.Con: entailments discharged semantically against the interpretation")
    return TripleJudgment(HoareTriple(pre, t.prog, post))


# ---------------------------------------------------------------------------
# Fig. 8: adaptation rules
# ---------------------------------------------------------------------------


def _invariance(i, premises, params, notes):
    t = _one_triple(premises, "Invariance")
    delta = _need(params, "delta", "Invariance")
    formula_wf(i, delta)
    overlap = free_vars(delta) & prog_vars(t.prog)
    if overlap:
        raise RuleError(
            f"Invariance: the frame formula mentions program variables {sorted(overlap)}"
        )
    return TripleJudgment(
        HoareTriple(And(t.pre, delta), t.prog, And(t.post, delta))
    )


def _substitution(i, premises, params, notes):
    t = _one_triple(premises, "Substitution")
    tau = _need(params, "term", "Substitution")
    term_wf(i, tau)
    overlap = term_vars(tau) & prog_vars(t.prog)
    if overlap:
        raise RuleError(
            f"Substitution: the term touches program variables {sorted(overlap)}"
        )
    return TripleJudgment(
        HoareTriple(Adjoint(tau, t.pre), t.prog, Adjoint(tau, t.post))
    )


def _conjunction(i, premises, params, notes):
    if len(premises) != 2 or not all(isinstance(p, TripleJudgment) for p in premises):
        raise RuleError("Conjunction: expected two triple premises")
    t1, t2 = premises[0].triple, premises[1].triple
    if t1.prog != t2.prog:
        raise RuleError("Conjunction: premises must concern the same program")
    return TripleJudgment(
        HoareTriple(And(t1.pre, t2.pre), t1.prog, And(t1.post, t2.post))
    )


def _disjunction(i, premises, params, notes):
    if len(premises) != 2 or not all(isinstance(p, TripleJudgment) for p in premises):
        raise RuleError("Disjunction: expected two triple premises")
    t1, t2 = premises[0].triple, premises[1].triple
    if t1.prog != t2.prog:
        raise RuleError("Disjunction: premises must concern the same program")
    if t1.post != t2.post:
        raise RuleError("Disjunction: premises must share one postcondition")
    return TripleJudgment(
        HoareTriple(or_formula(t1.pre, t2.pre), t1.prog, t1.post)
    )


def _exists_intro(i, premises, params, notes):
    t = _one_triple(premises, "Exists-Intro")
    qs = tuple(_need(params, "qvars", "Exists-Intro"))
    bad = set(qs) & (prog_vars(t.prog) & free_vars(t.post))
    if bad:
        raise RuleError(
            f"Exists-Intro: quantified variables {sorted(bad)} are program variables "
            "free in the postcondition"
        )
    probe = terminates_probe(i, t.prog)
    if probe.status != "terminates":
        guard = f"{probe.loop.measurement}[{','.join(probe.loop.variables)}]"
        raise RuleError(
            f"Exists-Intro: termination fails, the loop guarded by {guard} = 1 "
            "traps some input forever; the rule needs a terminating program"
        )
    notes.append("Exists-Intro: termination decided from the loops' never-terminating subspaces")
    return TripleJudgment(HoareTriple(exists_formula(qs, t.pre), t.prog, t.post))


def _hoare_adaptation(i, premises, params, notes):
    t = _one_triple(premises, "Hoare-Adaptation")
    delta = _need(params, "delta", "Hoare-Adaptation")
    ps = tuple(_need(params, "pvars", "Hoare-Adaptation"))
    witness = _need(params, "witness", "Hoare-Adaptation")
    formula_wf(i, delta)
    if not prog_vars(t.prog) <= set(ps):
        raise RuleError(
            f"Hoare-Adaptation: program variables {sorted(prog_vars(t.prog) - set(ps))} "
            "lie outside the designated variable list"
        )
    qs = sorted(
        (free_vars(t.pre) | free_vars(t.post)) - (free_vars(delta) | set(ps)),
        key=i.var_index,
    )
    probe = representable_probe(i, t.prog, witness)
    if probe.status != "represented":
        raise RuleError(
            "Hoare-Adaptation: the witness term fails to represent the program "
            f"(refuted after {probe.checks} checks)"
        )
    notes.append(
        f"Hoare-Adaptation: representability decided on 2d−1 rays ({probe.checks} rays)")
    body = And(t.pre, Forall(ps, sasaki_formula(t.post, delta)))
    pre = exists_formula(tuple(qs), body) if qs else body
    return TripleJudgment(HoareTriple(pre, t.prog, delta))


RULES = {
    "QL1": _ql1, "QL2": _ql2, "QL3": _ql3, "QL4": _ql4, "QL5": _ql5,
    "QL6": _ql6, "QL7": _ql7, "QL8": _ql8, "QL9": _ql9, "QL10": _ql10,
    "QL11": _ql11,
    "QT.Refl": _qt_refl, "QT.Sym": _qt_sym, "QT.Trans": _qt_trans,
    "QT1a": _qt1("a"), "QT1b": _qt1("b"), "QT2": _qt2, "QT3": _qt3,
    "QT4": _qt4, "QT5": _directed("QT5", _qt5, EquationJudgment), "QT6": _qt6,
    "QQL1": _qql1, "QQL2": _qql2, "QQL3": _qql3, "QQL4": _qql4,
    "QQL5": _directed("QQL5", _qql5), "QQL6": _qql6, "QQL7": _directed("QQL7", _qql7),
    "QQL8": _directed("QQL8", _qql8), "QQL9": _directed("QQL9", _qql9),
    "QQL10": _directed("QQL10", _qql10), "QQL11": _qql11, "QQL12": _qql12,
    "QQL13": _directed("QQL13", _qql13), "QQL14": _qql14, "QQL15": _qql15,
    "Ax.Sk": _ax_sk, "Ax.In": _ax_in, "Ax.UT": _ax_ut,
    "R.SC": _r_sc, "R.IF": _r_if, "R.LP": _r_lp, "R.Con": _r_con,
    "Invariance": _invariance, "Substitution": _substitution,
    "Conjunction": _conjunction, "Disjunction": _disjunction,
    "Exists-Intro": _exists_intro, "Hoare-Adaptation": _hoare_adaptation,
}


def apply_rule(i: Interpretation, rule: str, premises, params=None, notes=None):
    """Re-derive a rule's conclusion from premise judgments and parameters,
    checking every side condition.  Raises RuleError with a distinct
    diagnostic on any violation."""
    fn = RULES.get(rule)
    if fn is None:
        raise RuleError(f"unknown rule {rule!r} (registry: {', '.join(sorted(RULES))})")
    return fn(i, list(premises), dict(params or {}), notes if notes is not None else [])


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


def _semantic_check(i, judgment, tol) -> bool:
    if isinstance(judgment, TripleJudgment):
        ok, _ = triple_valid(i, judgment.triple, tol)
        return ok
    if isinstance(judgment, SequentJudgment):
        if not judgment.context:
            target = eval_subspace(i, judgment.conclusion, tol)
            return target.rank == target.dim
        assumed = lattice_meet(
            [eval_subspace(i, f, tol) for f in judgment.context], tol
        )
        return includes(eval_subspace(i, judgment.conclusion, tol), assumed, tol)
    if isinstance(judgment, EquationJudgment):
        return term_equiv(i, judgment.left, judgment.right, tol)
    return False


def check_proof(
    i: Interpretation,
    script: ProofScript,
    semantic_cross_check: bool = False,
    tol: Tolerances | None = None,
) -> ProofReport:
    """Re-derive every step of the script via apply_rule and compare with
    the stated judgment; optionally cross-check each proven judgment
    against the semantic oracle."""
    tol = tol or i.tol
    i = replace(i, tol=tol)  # rule discharges decide at the cross-check's tolerances
    seen: dict = {}
    reports: list = []
    ok_all = True
    first = None
    for step in script.steps:
        notes: list = []
        if step.step_id in seen:
            rep = StepReport(step.step_id, step.rule, False, "duplicate step id")
        else:
            missing = [p for p in step.premises if p not in seen]
            if missing:
                rep = StepReport(
                    step.step_id, step.rule, False,
                    f"premises {missing} are not defined by earlier steps",
                )
            else:
                try:
                    derived = apply_rule(
                        i, step.rule, [seen[p] for p in step.premises], step.params, notes
                    )
                    if judgment_equal(derived, step.judgment):
                        rep = StepReport(step.step_id, step.rule, True, notes=tuple(notes))
                    else:
                        rep = StepReport(
                            step.step_id, step.rule, False,
                            f"stated judgment differs from the rule's conclusion {derived}",
                        )
                except (RuleError, WellFormednessError) as exc:
                    rep = StepReport(step.step_id, step.rule, False, str(exc))
        if rep.ok and semantic_cross_check:
            rep.cross_check = _semantic_check(i, step.judgment, tol)
            if not rep.cross_check:
                rep.ok = False
                rep.message = "semantic cross-check failed"
        if rep.ok:
            seen[step.step_id] = step.judgment
        else:
            ok_all = False
            if first is None:
                first = step.step_id
        reports.append(rep)
    return ProofReport(ok_all, reports, first)
