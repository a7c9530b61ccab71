"""Soundness of every proof rule on random instances.

``ROWS`` has a row per rule of ``hoare.RULES``: a function of a ``Draw`` that
returns valid premises and parameters, now and then breaking a side condition.
``check_row`` checks each conclusion the rule accepts (and rl's) semantically,
under random generator sets; ``draw(rule, seed, n)`` rebuilds one draw.
"""

import zlib
from dataclasses import replace
from functools import reduce

import numpy as np

import helpers
from bvn import (
    Adjoint, And, Atom, BasicTerm, BvnError, ConfigurationError, Formula, HoareTriple, Init,
    MeasAtom, Not, ProbSumTerm, RuleError, SeqProg, SeqTerm, Skip, Subspace, TensorTerm, Term,
    UnitaryAssign, WhileProg, apply_rule, eval_subspace, formula_to_text, identity_term,
    lattice_join, lattice_meet, or_formula, prog_vars, prog_wlp, term_invert, term_to_text,
    term_vars, triple_to_text, triple_valid_wlp,
)
from bvn.hoare import RULES, EquationJudgment, SequentJudgment, TripleJudgment, _semantic_check
from bvn.interp import allowed_generators

BASE = helpers.two_qubit_interp(
    operations=[("S", (2,), [helpers.S], True)],
    predicates=[("P1", (2,), [[0, 1]]), ("PP", (2,), [[0.5 ** 0.5] * 2])])
PAIR = ("q1", "q2")
SCOPES = (("q1",), ("q2",), PAIR)


class Draw:
    """A draw's interpretation and random generator; the methods after ``triple`` are rows."""

    def __init__(self, i, rng):
        self.i, self.rng = i, rng

    def int(self, lo, hi):
        return int(self.rng.integers(lo, hi + 1))

    def coin(self, p):
        return self.rng.random() < p

    def pick(self, options):
        return options[self.rng.integers(len(options))]

    def sem(self, f):
        return eval_subspace(self.i, f)

    def sub(self, rank=None):
        return helpers.random_subspace(self.rng, 4, rank)

    def inside(self, x):
        """A fresh atom for a random subspace of x."""
        return self.atom(helpers.random_subspace_inside(self.rng, x))

    def atom(self, x=None, names=PAIR, rank=None, extra=0):
        """x or a random subspace of ``rank``, plus ``extra`` random directions, as a new atom."""
        x = self.sub(rank) if x is None else x
        x = lattice_join([x, self.sub(extra)]) if extra else x
        name = f"R{len(self.i.predicates)}"
        self.i, fs = helpers.bind_atoms(self.i, {name: (names, x)})
        return fs[name]

    def sigma(self):
        return tuple(self.atom() for _ in range(self.int(0, 2)))

    def formula(self, names=PAIR):
        """P0, P1, PP or a fresh atom on one of ``names``, or of both variables."""
        k = self.int(0, 7)
        if k == 7:
            return self.atom()
        q = (self.pick(names),)
        if k == 6:
            return self.atom(helpers.random_subspace(self.rng, 2), q)
        return Atom(("P0", "P1", "PP")[k % 3], identity_term(q))

    def word(self, names=PAIR):
        return helpers.random_word_term(self.i, self.rng, names)

    def padded(self, names=PAIR):
        return SeqTerm(self.word(names), identity_term(names))

    def term(self, names=PAIR):
        """A word on ``names``, maybe inverted, a reset, an outcome or a mix."""
        q, kind = self.pick(names), self.rng.random()
        if kind < 0.2:
            return BasicTerm("0", (q,)) if kind < 0.1 else BasicTerm("M", (q,), self.int(0, 1))
        if kind < 0.3:
            p = self.rng.uniform(0.1, 0.9)
            return ProbSumTerm(((p, self.padded(names)), (1 - p, self.padded(names))))
        t = self.word(names)
        return term_invert(t) if kind < 0.6 else t

    def generator_word(self, qs):
        """I on qs then generators over qs, or any term if no set is declared."""
        try:
            gens = allowed_generators(self.i, qs)
        except ConfigurationError:
            return self.term(qs)
        picks = [BasicTerm(*self.pick(gens)) for _ in range(self.int(1, 3) if gens else 0)]
        return reduce(SeqTerm, picks, identity_term(qs))

    def equation(self):
        """w = w I, w w^-1 = I, u @ v = v u, or a mix against it swapped."""
        w, kind = self.padded(), self.int(0, 3)
        if kind == 0:
            return EquationJudgment(w, SeqTerm(w, identity_term(PAIR)))
        if kind == 1:
            return EquationJudgment(SeqTerm(w, term_invert(w)), identity_term(PAIR))
        if kind == 2:
            w1, w2 = (self.word((q,)) for q in PAIR)
            return EquationJudgment(TensorTerm(w1, w2), SeqTerm(w2, w1))
        p, v = self.rng.uniform(0.1, 0.9), self.padded()
        return EquationJudgment(ProbSumTerm(((p, w), (1 - p, v))),
                                ProbSumTerm(((1 - p, v), (p, w))))

    def weights(self, k):  # their sum lies between 1/2 and 1
        return [float(w) for w in self.rng.dirichlet(np.ones(k)) * self.rng.uniform(0.5, 1.0)]

    def sequent(self, n):
        """A1 .. An |- C, C containing the Ak's meet (all of A1 when n is 1)."""
        common = self.sub(self.int(1, 2))
        context = tuple(self.atom(common, extra=int(n > 1)) for _ in range(n))
        return SequentJudgment(context, self.atom(common, extra=self.int(0, 2)))

    def prog(self, names=PAIR):
        return helpers.random_loop_free_program(self.i, self.rng, names, 1)

    def triple(self, prog, post, within=None):
        """{A} prog {post} for A the wlp (met with ``within``) or inside it."""
        w = prog_wlp(self.i, prog, self.sem(post))
        w = w if within is None else lattice_meet([w, within])
        pre = self.atom(w) if self.coin(0.75) else self.inside(w)
        return TripleJudgment(HoareTriple(pre, prog, post))

    def assumed(self):
        """A formula and assumptions that contain it."""
        x = self.sub(self.int(1, 3))
        return [], {"formula": self.atom(x),
                    "sigma": tuple(self.atom(x, extra=1) for _ in range(self.int(0, 2)))}

    def cut(self):
        s = self.sequent(2)
        return [SequentJudgment((self.inside(self.sem(s.context[0])),), s.context[0]), s], {}

    def shared_context(self):
        """G |- A and G |- B, or now and then H |- B for another H."""
        x, y, same = self.sub(self.int(1, 2)), self.sub(self.int(1, 2)), self.coin(0.8)
        g, h = self.atom(x), self.atom(y)
        a, b = self.atom(x, extra=1), self.atom(x if same else y, extra=1)
        return [SequentJudgment((g,), a), SequentJudgment((g if same else h,), b)], {}

    def and_left(self):
        s = self.sequent(2)
        return [s], {"left": s.context[0], "right": s.context[1]}

    def refutation(self):
        """A |- B and A |- not B for A zero, or A |- B and A |- C for A nonzero."""
        x = Subspace.zero(4) if self.coin(0.5) else self.sub(1)
        a, b, c = self.atom(x), self.atom(x, extra=1), self.atom(x, extra=1)
        return [SequentJudgment((a,), b), SequentJudgment((a,), Not(b) if x.rank == 0 else c)], {}

    def chain(self):
        """t = u and u = v, or now and then an unrelated second equation."""
        first = self.equation()
        u = first.right
        return [first, self.pick((EquationJudgment(u, first.left), self.equation(),
                                  EquationJudgment(u, SeqTerm(u, identity_term(PAIR)))))], {}

    def mixed(self):
        k = self.int(1, 3)
        return [self.equation() for _ in range(k)], {"weights": self.weights(k)}

    def equation_side(self, key, value):
        """An equation, or semantic t1, t2 that may differ; ``key`` by ``value``."""
        if self.coin(0.5):
            return [self.equation()], {key: value(self)}
        t1 = self.padded()
        t2 = SeqTerm(t1, identity_term(PAIR)) if self.coin(0.5) else self.padded()
        return [], {"semantic": True, "t1": t1, "t2": t2, key: value(self)}

    def weighted_atoms(self):
        """G |- P(t_k) for G inside every P(t_k); now and then one P differs."""
        k, pred = self.int(1, 3), self.atom(rank=3).predicate
        goals = [Atom(pred if self.coin(0.9) else self.atom(rank=3).predicate, self.padded())
                 for _ in range(k)]
        g = self.inside(lattice_meet([self.sem(f) for f in goals]))
        return [SequentJudgment((g,), f) for f in goals], {"weights": self.weights(k)}

    def adjoint_assumed(self):
        """adj<t>(A) |- B, or adj<t>(A), H |- B, B containing their meet."""
        assumed = (Adjoint(self.term(), self.formula()),)
        assumed += (self.atom(),) if self.coin(0.3) else ()
        meet = lattice_meet([self.sem(f) for f in assumed])
        return [SequentJudgment(assumed, self.atom(meet, extra=self.int(0, 1)))], {}

    def adjoint_concluded(self):
        """G |- adj<t>(B), or H, G |- adj<t>(B), for G inside adj<t>(B)."""
        goal = Adjoint(self.term(), self.formula())
        inside = (self.inside(self.sem(goal)),)
        return [SequentJudgment((self.atom(),) + inside if self.coin(0.3) else inside, goal)], {}

    def quantified_other(self):
        """A term and a formula on q, quantified over the other, both or q."""
        q, other = PAIR if self.coin(0.5) else PAIR[::-1]
        return [], {"term": self.term((q,)), "qvars": self.pick(((other,), (other,), (q,), PAIR)),
                    "formula": self.formula((q,))}

    def instance(self):
        qs = self.pick(SCOPES)
        t = self.generator_word(qs) if self.coin(0.5) else self.term(qs)
        return [], {"term": t, "qvars": qs, "formula": self.formula(), "sigma": self.sigma()}

    def generalized(self):
        """G |- B for B = G or a fresh atom of both variables that contains G."""
        g = self.formula()
        b = g if self.coin(0.5) else self.atom(self.sem(g), extra=self.int(0, 1))
        return [SequentJudgment((g,), b)], {"qvars": self.pick((*SCOPES, ()))}

    def assignment(self):
        """A term, and its variables, both or one."""
        t = self.term()
        own = tuple(q for q in PAIR if q in term_vars(t))
        return [], {"formula": self.formula(), "term": t,
                    "vars": self.pick((own, own, PAIR, (self.pick(PAIR),)))}

    def sequence(self):
        """{A} S1 {B} and {B} S2 {C}, or now and then {B'} S2 {C}."""
        second = self.triple(self.prog(), self.atom(rank=self.int(2, 3)))
        mid = second.triple.pre if self.coin(0.5) else self.atom(rank=self.int(2, 3))
        return [self.triple(self.prog(), mid), second], {}

    def branches(self):
        """Per outcome k a premise with its pre inside M.k, and one post or two."""
        guard, post = (self.pick(PAIR),), self.atom(rank=self.int(2, 3))
        posts = (post, post if self.coin(0.5) else self.atom(rank=self.int(2, 3)))
        return [self.triple(self.prog(), p, self.sem(MeasAtom("M", k, guard)))
                for k, p in enumerate(posts)], {"meas": "M", "vars": guard}

    def loop(self):
        """{B} body {(M0 /\\ G) \\/ (M1 /\\ B)} for B = wlp(body, wlp(loop, G)),
        or a random B and a pre inside its wlp; half the bodies turn the guard."""
        guard, gamma, invariant = (self.pick(PAIR),), self.formula(), self.coin(0.5)
        body = self.prog() if self.coin(0.5) else SeqProg(
            self.prog(), UnitaryAssign(guard, self.word(guard)))
        loop = prog_wlp(self.i, WhileProg("M", guard, body), self.sem(gamma))
        beta = self.atom(prog_wlp(self.i, body, loop) if invariant else self.sub(self.int(1, 4)))
        inv = or_formula(And(MeasAtom("M", 0, guard), gamma), And(MeasAtom("M", 1, guard), beta))
        pre = beta if invariant else self.inside(prog_wlp(self.i, body, self.sem(inv)))
        return [TripleJudgment(HoareTriple(pre, body, inv))], {"meas": "M", "vars": guard}

    def consequence(self):
        """A weaker post and a stronger pre, or not, as parameters or sequents."""
        t = self.triple(self.prog(), self.atom()).triple
        stronger = self.coin(0.5)
        pre = self.inside(self.sem(t.pre)) if stronger else self.atom()
        post = self.atom(self.sem(t.post), extra=self.int(0, 1))
        if stronger and self.coin(0.4):
            return [SequentJudgment((pre,), t.pre), TripleJudgment(t),
                    SequentJudgment((t.post,), post)], {}
        return [TripleJudgment(t)], {"pre": pre, "post": post}

    def same_program(self):
        """Two premises, on one program or two, with one post or two."""
        s, b = self.prog(), self.atom(rank=3)
        return [self.triple(s, b), self.triple(s if self.coin(0.5) else self.prog(),
                                               b if self.coin(0.5) else self.atom(rank=3))], {}

    def exists(self):
        """A program and a post on the unquantified variable, or on both."""
        q, other = PAIR if self.coin(0.5) else PAIR[::-1]
        s = self.prog((other,)) if self.coin(0.8) else self.prog()
        return [self.triple(s, self.formula((other,)))], {"qvars": self.pick(((q,), (q,), PAIR))}

    def adaptation(self):
        """Skip, a reset or a word, pvars and a witness word, its own or not."""
        kind, q = self.int(0, 2), self.pick(PAIR)
        t = self.word(self.pick(SCOPES)) if kind == 2 else identity_term((q,))
        prog = (Skip(), Init(q), UnitaryAssign(tuple(sorted(term_vars(t))), t))[kind]
        ps = tuple(v for v in PAIR if v in prog_vars(prog) | set(self.pick((*SCOPES, ()))))
        return [self.triple(prog, self.formula())], {"delta": self.formula(), "pvars": ps,
                "witness": t if self.coin(0.5) else self.generator_word(ps or (q,))}


def _params(**draws):
    """The row of a rule without premises: each parameter drawn by its function."""
    return lambda d: ([], {key: f(d) for key, f in draws.items()})


ROWS = {
    "QL1": Draw.assumed, "QL2": Draw.cut, "QL4": Draw.shared_context, "QL5": Draw.and_left,
    "QL3": _params(formula=lambda d: And(d.atom(), d.atom()),
                   pick=lambda d: d.pick(("left", "right")), sigma=Draw.sigma),
    "QL6": Draw.refutation, "QL7": Draw.assumed, "QL8": Draw.assumed,
    "QL9": _params(formula=Draw.atom, target=Draw.atom, sigma=Draw.sigma),
    "QL10": lambda d: ([d.sequent(1 + d.coin(0.3))], {}), "QT.Trans": Draw.chain,
    "QL11": _params(formula=Draw.atom, target=Draw.atom), "QT2": Draw.mixed,
    "QT.Refl": _params(term=Draw.term), "QT.Sym": lambda d: ([d.equation()], {}),
    "QT1a": lambda d: ([d.equation()], {"term": d.term()}),
    "QT1b": lambda d: ([d.equation()], {"term": d.term()}),
    "QT3": _params(t1=lambda d: d.term(("q1",)), t2=lambda d: d.term((d.pick(PAIR),)),
                   form=lambda d: d.pick(("tensor-seq", "tensor-seq-comm", "seq-comm"))),
    "QT4": _params(term=Draw.term, form=lambda d: d.pick(("left", "right")),
                   identity=lambda d: identity_term(d.pick(SCOPES)) if d.coin(0.5) else d.word()),
    "QT5": _params(t1=Draw.term, t2=Draw.term, t3=Draw.term),
    "QT6": _params(term=Draw.term, form=lambda d: d.pick(("right", "left"))),
    "QQL1": lambda d: ([d.sequent(1 + d.coin(0.3))], {}),
    "QQL2": lambda d: d.equation_side("pred", lambda d: d.atom().predicate),
    "QQL3": lambda d: d.equation_side("formula", Draw.formula),
    "QQL4": Draw.weighted_atoms, "QQL5": _params(t1=Draw.term, t2=Draw.term, formula=Draw.formula),
    "QQL6": lambda d: ([d.sequent(1 + d.coin(0.3))], {"term": d.term()}),
    "QQL7": _params(t1=Draw.term, t2=Draw.padded, pred=lambda d: d.atom().predicate),
    "QQL8": _params(term=Draw.term, formula=Draw.formula),
    "QQL9": _params(term=Draw.term, left=Draw.formula, right=Draw.formula),
    "QQL10": _params(t1=lambda d: d.term(("q1",)), t2=lambda d: d.term(("q2",)),
                     left=lambda d: d.formula(("q1",) if d.coin(0.7) else PAIR),
                     right=lambda d: d.formula(("q2",) if d.coin(0.7) else PAIR)),
    "QQL11": Draw.adjoint_assumed, "QQL12": Draw.adjoint_concluded, "QQL13": Draw.quantified_other,
    "QQL14": Draw.instance, "QQL15": Draw.generalized,
    "Ax.Sk": _params(formula=Draw.formula), "Ax.UT": Draw.assignment, "R.Con": Draw.consequence,
    "Ax.In": _params(formula=Draw.formula, var=lambda d: d.pick(PAIR)),
    "R.SC": Draw.sequence, "R.IF": Draw.branches, "R.LP": Draw.loop,
    "Invariance": lambda d: ([d.triple(d.prog(("q1",)), d.atom(rank=3))], {"delta": d.formula()}),
    "Substitution": lambda d: ([d.triple(d.prog(("q1",)), d.atom(rank=3))],
                               {"term": d.term((d.pick(PAIR),))}),
    "Conjunction": Draw.same_program, "Disjunction": Draw.same_program,
    "Exists-Intro": Draw.exists, "Hoare-Adaptation": Draw.adaptation,
}

# Without its variable condition QQL13 goes wrong in about one draw of fifty.
DRAWS = {**dict.fromkeys(ROWS, 20), "QQL13": 200,
         **dict.fromkeys(("QQL14", "Hoare-Adaptation", "Exists-Intro"), 400)}


def draw(rule, seed, n):
    """(i, premises, params); each generator set undeclared, empty or random."""
    rng = np.random.default_rng([seed, zlib.crc32(rule.encode()), n])
    allowed = {}
    for sig, symbols in (((2,), "HXYZS"), ((2, 2), "C")):
        if k := rng.integers(3):
            allowed[sig] = tuple(s for s in symbols if k == 2 and rng.random() < 0.35)
    d = Draw(replace(BASE, allowed=allowed), rng)
    premises, params = ROWS[rule](d)
    return d.i, premises, params


def _text(x):
    """x in proof-script syntax where it has one."""
    if isinstance(x, (Formula, Term)):
        return formula_to_text(x) if isinstance(x, Formula) else term_to_text(x)
    if isinstance(x, TripleJudgment):
        return triple_to_text(x.triple)
    if isinstance(x, SequentJudgment):
        return f"{_text(x.context)} |- {_text(x.conclusion)}"
    if isinstance(x, EquationJudgment):
        return f"{_text(x.left)} = {_text(x.right)}"
    return ", ".join(map(_text, x)) if isinstance(x, tuple) else x


def _refuted(i, j):
    """Why judgment j fails in i, or None if it holds."""
    try:
        ok = _semantic_check(i, j) and (
            not isinstance(j, TripleJudgment) or triple_valid_wlp(i, j.triple))
    except BvnError as exc:
        return f"{type(exc).__name__}: {exc}"
    return None if ok else "it does not hold"


def check_row(rule, draws, seed):
    """Premises and accepted conclusions (rl's too) must hold, and a tenth of
    the draws be accepted (a RuleError rejects); returns the count accepted."""
    accepted = 0
    for n in range(draws):
        i, premises, params = draw(rule, seed, n)
        where = (f"{rule} seed {seed} draw {n}, allowed {i.allowed}, params "
                 f"{ {k: _text(v) for k, v in params.items()} }; apply_rule(i, {rule!r}, "
                 f"premises, params) repeats it on soundness.draw({rule!r}, {seed}, {n})")
        for p in premises:
            assert (why := _refuted(i, p)) is None, f"{where}: premise {_text(p)} fails, {why}"
        try:
            j = apply_rule(i, rule, premises, params)
        except RuleError:
            continue
        accepted += 1
        conclusions = [j]
        if RULES[rule].directed:
            conclusions.append(EquationJudgment(j.right, j.left) if isinstance(j, EquationJudgment)
                               else SequentJudgment((j.conclusion,), j.context[0]))
            for direction, want in zip(("lr", "rl"), conclusions):
                got = apply_rule(i, rule, premises, {**params, "direction": direction})
                assert got == want, f"{where}: direction {direction} concludes {_text(got)}"
        for c in conclusions:
            assert (why := _refuted(i, c)) is None, f"{where}: unsound conclusion {_text(c)}, {why}"
    assert accepted >= draws / 10, f"{rule} accepted {accepted} of {draws} draws"
    return accepted
