"""Quantum terms: ASTs, state-side and subspace-side semantics, inversion.

A term denotes a channel built from interpreted operation symbols by
sequencing, tensoring over disjoint variables, and sub-probabilistic
mixing.  Its syntax is read from work stacks.  The checks and
``term_invert`` are loops over ``_subterms``, every node in pre-order.
Every reading goes through ``_Walk``, the one walker of terms and programs:
a kernel on each basic term (``leaf``), Seq and Tensor threaded in order
(reversed for the backward readings), and a mix of the branch results
(``mix``; the one recursion: only a mix nested past the stack fails).
Each reading is a subclass with its own leaf and mix:

  _Apply    forward action on partial density operators (mix: weighted
            sum, factors scaled by sqrt(w)): term_apply, and term_channel,
            the Kraus channel on a variable list, read off the Choi state
  _Image    term_forward_image, the support of _Apply on a subspace (mix: join)
  _Observe  term_image, the backward (adjoint) action on subspaces, the
            observable-side reading (mix: join)
  _Wlp      term_wlp and formula atoms: the largest subspace sent into a
            target subspace (mix: meet)

term_image and term_wlp coincide on unitary terms but differ in general;
satisfaction semantics downstream is defined through term_wlp.  Every
reading takes the channels of basic terms from ``_embedded``, built once per
interpretation.  Each public reading checks its operand and term once, then
walks.  Formulas and programs call the readings on input they have checked.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import DimensionMismatchError, WellFormednessError
from .interp import (
    IDENTITY_SYMBOL,
    INIT_SYMBOL,
    Interpretation,
    _placement,
    _read_only,
    embed,
)
from .linalg import (
    Channel,
    StateDensity,
    Subspace,
    channel_apply,
    channel_adjoint,
    channel_equal,
    channel_image,
    channel_wlp,
    lattice_join,
    lattice_meet,
)

__all__ = [
    "Term",
    "BasicTerm",
    "SeqTerm",
    "TensorTerm",
    "ProbSumTerm",
    "identity_term",
    "term_vars",
    "term_wf",
    "is_unitary_term",
    "term_invert",
    "term_apply",
    "term_image",
    "term_forward_image",
    "term_wlp",
    "term_channel",
    "term_equiv",
]


class Term:
    """Base class for quantum-term AST nodes."""

    __slots__ = ()


@dataclass(frozen=True)
class BasicTerm(Term):
    """An operation symbol applied to a variable tuple.

    ``symbol`` is a declared operation symbol, the built-in identity "I",
    the reset symbol "0", or a measurement symbol (then ``outcome`` is the
    observed outcome label).  ``inverse`` marks the U^-1 form of a unitary
    symbol, whose channel is the adjoint of the bound one.
    """

    symbol: str
    variables: tuple
    outcome: int | None = None
    inverse: bool = False


@dataclass(frozen=True)
class SeqTerm(Term):
    first: Term
    second: Term


@dataclass(frozen=True)
class TensorTerm(Term):
    left: Term
    right: Term


@dataclass(frozen=True)
class ProbSumTerm(Term):
    branches: tuple  # of (weight, Term)


def identity_term(names) -> Term:
    """I(q1)...I(qn) folded into one Seq chain (a bare I(q) for one name)."""
    names = list(names)
    if not names:
        raise WellFormednessError("identity term needs at least one variable")
    t: Term = BasicTerm(IDENTITY_SYMBOL, (names[0],))
    for n in names[1:]:
        t = SeqTerm(t, BasicTerm(IDENTITY_SYMBOL, (n,)))
    return t


def _subterms(t: Term):
    """Every node of t in pre-order, walked from a work stack."""
    todo = [t]
    while todo:
        t = todo.pop()
        if isinstance(t, (SeqTerm, TensorTerm)):
            todo += (t.second, t.first) if isinstance(t, SeqTerm) else (t.right, t.left)
        elif isinstance(t, ProbSumTerm):
            todo += reversed([child for _, child in t.branches])
        elif not isinstance(t, BasicTerm):
            raise WellFormednessError(f"not a term node: {t!r}")
        yield t


def term_vars(t: Term) -> frozenset:
    """Syntactic variable set (no well-formedness implied)."""
    return frozenset(v for b in _subterms(t) if isinstance(b, BasicTerm) for v in b.variables)


def _basic_signature(i: Interpretation, t: BasicTerm) -> tuple:
    vs = list(t.variables)
    if len(set(vs)) != len(vs):
        raise WellFormednessError(f"{t.symbol}: repeated variable in {vs}")
    return i.signature_of(vs)


def _measurement(i: Interpretation, symbol: str, variables, outcome=None):
    """The binding of measurement ``symbol`` on ``variables``, checked alike for
    outcome terms, measurement atoms and program guards: a bound symbol, distinct
    variables matching its signature and, if given, a declared outcome."""
    m = i.measurements.get(symbol)
    if m is None:
        raise WellFormednessError(f"unknown measurement symbol {symbol!r}")
    if len(set(variables)) != len(variables):
        raise WellFormednessError(f"measurement {symbol!r}: {list(variables)} repeats a variable")
    if i.signature_of(variables) != m.signature:
        raise WellFormednessError(
            f"measurement {symbol!r} has signature {m.signature}, "
            f"variables {list(variables)} give {i.signature_of(variables)}"
        )
    if outcome is not None and outcome not in m.outcomes:
        raise WellFormednessError(f"measurement {symbol!r} has no outcome {outcome!r}")
    return m


def term_wf(i: Interpretation, t: Term) -> frozenset:
    """Check formation rules against the interpretation; return var(t).
    Read from its end, the pre-order list puts every node after its parts,
    so each node takes their variable sets from the top of a stack."""
    var_sets: list = []
    for node in reversed(list(_subterms(t))):
        if isinstance(node, BasicTerm):
            var_sets.append(_basic_wf(i, node))
        elif isinstance(node, ProbSumTerm):
            if not node.branches:
                raise WellFormednessError("probabilistic combination needs branches")
            total = 0.0
            for w, _ in node.branches:
                if not w > 0:
                    raise WellFormednessError(f"branch weight {w} is not positive")
                total += float(w)
            if total > 1.0 + i.tol.tau_num:
                raise WellFormednessError(f"branch weights sum to {total} > 1")
            parts = [var_sets.pop() for _ in node.branches]
            if any(vs != parts[0] for vs in parts[1:]):
                raise WellFormednessError("probabilistic branches must share one variable set")
            var_sets.append(parts[0])
        else:
            lv, rv = var_sets.pop(), var_sets.pop()
            if isinstance(node, TensorTerm) and lv & rv:
                raise WellFormednessError(
                    f"tensor components share variables {sorted(lv & rv)}"
                )
            var_sets.append(lv | rv)
    return var_sets.pop()


def _basic_wf(i: Interpretation, t: BasicTerm) -> frozenset:
    if t.outcome is not None and t.symbol not in (IDENTITY_SYMBOL, INIT_SYMBOL):
        _measurement(i, t.symbol, t.variables, t.outcome)
        if t.inverse:
            raise WellFormednessError("measurement-outcome terms have no inverse")
        return frozenset(t.variables)
    sig = _basic_signature(i, t)
    if t.symbol == IDENTITY_SYMBOL:
        if t.outcome is not None:
            raise WellFormednessError("identity takes no outcome")
        return frozenset(t.variables)
    if t.symbol == INIT_SYMBOL:
        if len(t.variables) != 1 or t.outcome is not None or t.inverse:
            raise WellFormednessError("reset terms have the form 0(q)")
        return frozenset(t.variables)
    op = i.operations.get(t.symbol)
    if op is None:
        raise WellFormednessError(f"unknown operation symbol {t.symbol!r}")
    if op.signature != sig:
        raise WellFormednessError(
            f"operation {t.symbol!r} has signature {op.signature}, got {sig}"
        )
    if t.inverse and not op.unitary:
        raise WellFormednessError(f"{t.symbol!r} is not unitary, no inverse exists")
    return frozenset(t.variables)


def is_unitary_term(i: Interpretation, t: Term) -> bool:
    """Built by sequencing/tensoring alone, from unitary symbols only."""
    for node in _subterms(t):
        if isinstance(node, ProbSumTerm):
            return False
        if isinstance(node, BasicTerm) and node.symbol != IDENTITY_SYMBOL:
            op = i.operations.get(node.symbol)
            if op is None or not op.unitary:
                return False
    return True


def term_invert(t: Term) -> Term:
    """Structural inverse (Seq order reversed) of a term the caller has
    checked with ``is_unitary_term``; mixtures, outcomes and resets fail.
    Built from the reversed pre-order list, as ``term_wf`` reads it."""
    built: list = []
    for node in reversed(list(_subterms(t))):
        if isinstance(node, (SeqTerm, TensorTerm)):
            a, b = built.pop(), built.pop()
            built.append(SeqTerm(b, a) if isinstance(node, SeqTerm) else TensorTerm(a, b))
        elif isinstance(node, BasicTerm) and node.outcome is None and node.symbol != INIT_SYMBOL:
            built.append(node if node.symbol == IDENTITY_SYMBOL
                         else BasicTerm(node.symbol, node.variables, None, not node.inverse))
        else:
            raise WellFormednessError("only unitary terms have inverses")
    return built.pop()


def basic_channel(i: Interpretation, t: BasicTerm) -> Channel:
    """The bound channel of a basic term on its own variable space."""
    sig = _basic_signature(i, t)
    space = int(math.prod(sig))
    if t.symbol == IDENTITY_SYMBOL:
        return Channel.identity(space)
    if t.symbol == INIT_SYMBOL:  # |0><k| for every basis vector k
        eye = np.eye(space, dtype=np.complex128)
        return Channel(tuple(np.outer(eye[:, 0], eye[:, k]) for k in range(space)))
    if t.outcome is not None:  # the projector onto the range that build split off
        m = i.measurements[t.symbol]
        k = m.outcomes.index(t.outcome)
        ker = np.hstack([np.zeros((space, 0)), *m.ranges[:k], *m.ranges[k + 1:]])
        return Channel((m.ranges[k] @ m.ranges[k].conj().T,), "projective",
                       split=(ker, m.ranges[k]))
    op = i.operations[t.symbol]
    return channel_adjoint(op.channel) if t.inverse else op.channel


def _embedded(i: Interpretation, t: BasicTerm) -> Channel:
    """A basic term's channel on the global space, built once per interpretation.
    It outlives the query that built it, so its arrays are read-only views."""
    ch = i.embedded.get(t)
    if ch is None:
        ch = embed(i, basic_channel(i, t), list(t.variables))
        ch = i.embedded[t] = replace(ch, kraus=tuple(map(_read_only, ch.kraus)),
                                     split=tuple(map(_read_only, ch.split)))
    return ch


def _checked(i: Interpretation, t: Term, x):
    """x, after the one input check of each public reading: its dimension and t."""
    if x.dim != i.total_dim:
        raise DimensionMismatchError(f"operand dim {x.dim} != global dimension {i.total_dim}")
    term_wf(i, t)
    return x


class _Walk:
    """The one walker.  Calling it threads x through a checked term:
    ``leaf(b, x)`` on each basic term b; Seq and Tensor chains pass x through
    their parts in order, reversed when ``backward``, from a work stack;
    ProbSum returns ``mix([(w, result on x), ...])``.  Any other node goes to
    ``statement(s, x, todo)``, which ``programs._Walk`` defines."""

    backward = False

    def __init__(self, i: Interpretation):
        self.i, self.tol = i, i.tol

    def __call__(self, t, x):
        todo = [t]
        try:
            while todo:
                t = todo.pop()
                if isinstance(t, BasicTerm):
                    x = self.leaf(t, x)
                elif isinstance(t, (SeqTerm, TensorTerm)):
                    parts = (t.first, t.second) if isinstance(t, SeqTerm) else (t.left, t.right)
                    todo += parts if self.backward else reversed(parts)
                elif isinstance(t, ProbSumTerm):
                    x = self.mix([(w, self(child, x)) for w, child in t.branches])
                else:
                    x = self.statement(t, x, todo)
        except RecursionError:
            raise WellFormednessError("input nests too deeply") from None
        return x


class _Apply(_Walk):
    def leaf(self, b: BasicTerm, rho: StateDensity) -> StateDensity:
        return channel_apply(_embedded(self.i, b), rho)

    def mix(self, parts: list) -> StateDensity:
        return StateDensity._of(np.hstack([np.sqrt(w) * rho.factor for w, rho in parts]))


class _Image(_Walk):
    def leaf(self, b: BasicTerm, x: Subspace) -> Subspace:
        return channel_image(_embedded(self.i, b), x, self.tol)

    def mix(self, parts: list) -> Subspace:
        return lattice_join([x for _, x in parts], self.tol)


class _Observe(_Walk):
    backward = True

    def leaf(self, b: BasicTerm, x: Subspace) -> Subspace:
        return channel_image(channel_adjoint(_embedded(self.i, b)), x, self.tol)

    def mix(self, parts: list) -> Subspace:
        return lattice_join([x for _, x in parts], self.tol)


class _Wlp(_Walk):
    backward = True

    def leaf(self, b: BasicTerm, y: Subspace) -> Subspace:
        return channel_wlp(_embedded(self.i, b), y, self.tol)

    def mix(self, parts: list) -> Subspace:
        return lattice_meet([y for _, y in parts], self.tol)


def term_apply(i: Interpretation, t: Term, rho: StateDensity) -> StateDensity:
    """Forward semantics on the global space; mixing sums the weighted branches."""
    return _Apply(i)(t, _checked(i, t, rho))


def term_image(i: Interpretation, t: Term, x: Subspace) -> Subspace:
    """Adjoint-side (observable) semantics: Seq composes in reverse and
    probabilistic combination joins."""
    return _Observe(i)(t, _checked(i, t, x))


def term_forward_image(i: Interpretation, t: Term, x: Subspace) -> Subspace:
    """Forward image: the support of term_apply on states supported in x."""
    return _Image(i)(t, _checked(i, t, x))


def term_wlp(i: Interpretation, t: Term, x: Subspace) -> Subspace:
    """The subspace of states that term_apply sends into x."""
    return _Wlp(i)(t, _checked(i, t, x))


# The reference leg of a Choi state: a key no declared variable can equal.
_REFERENCE = object()


def _doubled(i: Interpretation, target) -> tuple:
    """(copy, d): i on the ordered variable list ``target`` and a reference
    leg of dimension d = dim(target), built once per target and kept on i,
    so its channel memo outlives the query that filled it."""
    key = tuple(target)
    if key not in i.doubled:
        _, layout, d = _placement(i, key, key)
        i.doubled[key] = replace(i, variables={**dict(zip(key, layout)), _REFERENCE: d}), d
    return i.doubled[key]


def term_channel(i: Interpretation, t: Term, on_vars=None) -> Channel:
    """Compile the term to a Kraus channel on the ordered variable list
    ``on_vars`` (default: all variables in declaration order), read off its
    Choi state: ``_Apply`` of t on vec(I_d), for d = dim(on_vars), over
    on_vars and a reference leg of dimension d.  Column by column the factor
    is (K (x) I) vec(I_d) = vec(K), so it holds at most d^2 operators."""
    target = list(i.variables) if on_vars is None else list(on_vars)
    doubled, d = _doubled(i, target)
    missing = sorted(term_wf(i, t) - set(target))
    if missing:
        raise DimensionMismatchError(f"term uses variables {missing} outside target space")
    omega = StateDensity._of(np.eye(d, dtype=np.complex128).reshape(-1, 1))
    v = _Apply(doubled)(t, omega).factor
    return Channel(tuple(v.T.reshape(-1, d, d)), "unitary" if is_unitary_term(i, t) else "general")


def term_equiv(i: Interpretation, t1: Term, t2: Term) -> bool:
    """Equality of the induced channels, decided on the joint variable set
    with untouched tensor factors stripped."""
    joint = sorted(term_vars(t1) | term_vars(t2), key=i.var_index)
    if not joint:
        raise WellFormednessError("terms mention no variables")
    return channel_equal(term_channel(i, t1, joint), term_channel(i, t2, joint), i.tol)

