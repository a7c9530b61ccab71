"""Assertion formulas: subspace semantics, satisfaction, quantifiers.

Every formula denotes a closed subspace of the global space; a state
satisfies the formula exactly when its support lies inside that subspace.
Universal quantification over quantum variables ranges over the allowed
operations on them and is computed as a greatest fixpoint in the subspace
lattice (the chain is strictly rank-decreasing, so it stabilizes within
the ambient dimension).

The atom and term-adjoint clauses are evaluated through the weakest-
precondition transformer, which is what the satisfaction relation demands.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    DimensionMismatchError,
    InvalidStateError,
    WellFormednessError,
)
from .interp import Interpretation, allowed_generators, embed_subspace
from .linalg import (
    StateDensity,
    Subspace,
    channel_wlp,
    includes,
    lattice_fixpoint,
    lattice_meet,
    ortho,
    support,
)
from .terms import (
    BasicTerm,
    Term,
    _embedded,
    _measurement,
    _Wlp,
    identity_term,
    term_vars,
    term_wf,
)

__all__ = [
    "Formula",
    "Atom",
    "MeasAtom",
    "Not",
    "And",
    "Adjoint",
    "Forall",
    "or_formula",
    "exists_formula",
    "sasaki_formula",
    "big_or",
    "free_vars",
    "formula_wf",
    "eval_subspace",
    "forall_closure",
    "satisfies",
    "sat_probability",
    "entails",
    "basis_atoms",
]


class Formula:
    __slots__ = ()


@dataclass(frozen=True)
class Atom(Formula):
    predicate: str
    term: Term


@dataclass(frozen=True)
class MeasAtom(Formula):
    """The proposition 'outcome m of measurement M on q-bar': the range of
    the corresponding projector.  Used by the conditional and loop proof
    rules."""

    measurement: str
    outcome: int
    variables: tuple


@dataclass(frozen=True)
class Not(Formula):
    sub: Formula


@dataclass(frozen=True)
class And(Formula):
    left: Formula
    right: Formula


@dataclass(frozen=True)
class Adjoint(Formula):
    """Term-adjoint formula: the sub-formula evaluated after running the
    term (the quantum stand-in for substitution)."""

    term: Term
    sub: Formula


@dataclass(frozen=True)
class Forall(Formula):
    variables: tuple
    sub: Formula


def or_formula(a: Formula, b: Formula) -> Formula:
    return Not(And(Not(a), Not(b)))


def exists_formula(names, b: Formula) -> Formula:
    return Not(Forall(tuple(names), Not(b)))


def sasaki_formula(a: Formula, b: Formula) -> Formula:
    """a -> b as the Sasaki implication not-a v (a ^ b)."""
    return or_formula(Not(a), And(a, b))


def big_or(formulas) -> Formula:
    formulas = list(formulas)
    if not formulas:
        raise WellFormednessError("empty disjunction")
    out = formulas[0]
    for f in formulas[1:]:
        out = or_formula(out, f)
    return out


def free_vars(b: Formula) -> frozenset:
    if isinstance(b, Atom):
        return term_vars(b.term)
    if isinstance(b, MeasAtom):
        return frozenset(b.variables)
    if isinstance(b, Not):
        return free_vars(b.sub)
    if isinstance(b, And):
        return free_vars(b.left) | free_vars(b.right)
    if isinstance(b, Adjoint):
        return term_vars(b.term) | free_vars(b.sub)
    if isinstance(b, Forall):
        return free_vars(b.sub) - set(b.variables)
    raise WellFormednessError(f"not a formula node: {b!r}")


def _atom_variables(i: Interpretation, b: Atom) -> list:
    """var(term) in global declaration order; must match the predicate's
    signature."""
    names = sorted(term_vars(b.term), key=i.var_index)
    pred = i.predicates.get(b.predicate)
    if pred is None:
        raise WellFormednessError(f"unknown predicate symbol {b.predicate!r}")
    if i.signature_of(names) != pred.signature:
        raise WellFormednessError(
            f"predicate {b.predicate!r} has signature {pred.signature}, term "
            f"variables {names} give {i.signature_of(names)}"
        )
    return names


def formula_wf(i: Interpretation, b: Formula) -> frozenset:
    """Signature-check the formula; return its free variables."""
    if isinstance(b, Atom):
        term_wf(i, b.term)
        return frozenset(_atom_variables(i, b))
    if isinstance(b, MeasAtom):
        _measurement(i, b.measurement, b.variables, b.outcome)
        return frozenset(b.variables)
    if isinstance(b, Not):
        return formula_wf(i, b.sub)
    if isinstance(b, And):
        return formula_wf(i, b.left) | formula_wf(i, b.right)
    if isinstance(b, Adjoint):
        return term_wf(i, b.term) | formula_wf(i, b.sub)
    if isinstance(b, Forall):
        for q in b.variables:
            i.var_dim(q)
        if len(set(b.variables)) != len(b.variables):
            raise WellFormednessError("quantifier repeats a variable")
        return formula_wf(i, b.sub) - set(b.variables)
    raise WellFormednessError(f"not a formula node: {b!r}")


def forall_closure(
    i: Interpretation,
    names,
    x: Subspace,
    trace: list | None = None,
) -> Subspace:
    """Greatest subspace Y <= x with Y <= wlp_g(Y) for every allowed
    generator g over the quantified variables.

    Iterates Y <- Y ^ meet_g wlp_g(Y) from Y0 = x.  Because the weakest
    precondition of a composition nests and of a probabilistic mix meets,
    this fixpoint equals the intersection of wlp over all generator words,
    i.e. over all terms on the quantified variables.  The chain loses rank
    at every non-final step, so it stabilizes within dim+1 iterations.
    ``trace``, if given, collects (iteration, rank) pairs from (0, rank x).
    """
    if x.dim != i.total_dim:
        raise DimensionMismatchError(f"subspace dim {x.dim} != global dimension {i.total_dim}")
    if len(set(names)) != len(names):
        raise WellFormednessError("quantifier repeats a variable")
    gens = [_embedded(i, BasicTerm(sym, tup)) for sym, tup in allowed_generators(i, names)]
    ranks: list = []
    try:
        return lattice_fixpoint(
            lambda y: lattice_meet([y] + [channel_wlp(ch, y, i.tol) for ch in gens], i.tol),
            x, "quantifier", i.tol, ranks)
    finally:
        if trace is not None:
            trace.extend(enumerate(ranks))


def eval_subspace(i: Interpretation, b: Formula) -> Subspace:
    """The subspace of the global space whose member states satisfy b,
    checked on every call and evaluated once per interpretation."""
    try:
        formula_wf(i, b)
        return _evaluated(i, b)
    except RecursionError:
        raise WellFormednessError("input nests too deeply") from None


def _evaluated(i: Interpretation, b: Formula) -> Subspace:
    """eval_subspace without the check, memoised for b and each of its
    subformulas; programs read outcome ranges through it."""
    x = i.evaluated.get(b)
    if x is None:
        x = i.evaluated[b] = _eval(i, b)
    return x


def _eval(i, b):
    if isinstance(b, Atom):
        names = _atom_variables(i, b)
        target = embed_subspace(i, i.predicates[b.predicate].subspace, names)
        return _Wlp(i)(b.term, target)
    if isinstance(b, MeasAtom):  # the range of the outcome's projector, split by build
        m = i.measurements[b.measurement]
        ran = m.ranges[m.outcomes.index(b.outcome)]
        return embed_subspace(i, Subspace(ran.shape[0], ran), list(b.variables))
    if isinstance(b, Not):
        return ortho(_evaluated(i, b.sub), i.tol)
    if isinstance(b, And):
        return lattice_meet([_evaluated(i, b.left), _evaluated(i, b.right)], i.tol)
    if isinstance(b, Adjoint):
        return _Wlp(i)(b.term, _evaluated(i, b.sub))
    if isinstance(b, Forall):
        return forall_closure(i, b.variables, _evaluated(i, b.sub))
    raise WellFormednessError(f"not a formula node: {b!r}")


def _check_state(i: Interpretation, rho: StateDensity) -> None:
    if rho.dim != i.total_dim:
        raise DimensionMismatchError(f"state dim {rho.dim} != global dimension {i.total_dim}")


def satisfies(i: Interpretation, rho: StateDensity, b: Formula) -> bool:
    """True iff the support of rho lies inside the subspace of b."""
    _check_state(i, rho)
    if rho.trace <= i.tol.tau_num:
        raise InvalidStateError("satisfaction is undefined for the zero state")
    return includes(eval_subspace(i, b), support(rho, i.tol), i.tol)


def sat_probability(i: Interpretation, rho: StateDensity, b: Formula) -> float:
    """Born probability that rho satisfies b: tr(P rho) = ‖B† V‖² for a basis
    B of b's subspace and rho's factor V.  Requires a normalized state."""
    _check_state(i, rho)
    if abs(rho.trace - 1.0) > i.tol.tau_num:
        raise InvalidStateError(
            f"Born probability needs a normalized state, got trace {rho.trace}"
        )
    return min(float(np.linalg.norm(eval_subspace(i, b).basis.conj().T @ rho.factor) ** 2), 1.0)


def entails(i: Interpretation, b: Formula, c: Formula) -> bool:
    """Semantic consequence in this interpretation: [[b]] <= [[c]]."""
    return includes(eval_subspace(i, c), eval_subspace(i, b), i.tol)


def basis_atoms(i: Interpretation, names, vectors, prefix: str = "_KET"):
    """Bind each vector as a one-dimensional predicate over ``names`` and
    return (extended interpretation, [atomic formulas]).

    This is the runtime-assertion encoding: the k-th returned formula
    asserts 'the variables are in the ray of vector k', and their
    disjunction asserts membership in the spanned subspace.  Vectors are
    read in the tensor order of the declaration (global) variable order.
    """
    from .interp import PredicateBinding

    names = sorted(names, key=i.var_index)
    sig = i.signature_of(names)
    space = int(np.prod(sig))
    extra = {}
    formulas = []
    for k, v in enumerate(vectors):
        vec = np.asarray(v, dtype=np.complex128).reshape(-1)
        if vec.shape[0] != space:
            raise DimensionMismatchError(
                f"vector {k} has length {vec.shape[0]}, variables span {space}"
            )
        sym = f"{prefix}{k}"
        extra[sym] = PredicateBinding(sym, sig, Subspace.from_span(vec.reshape(-1, 1), space))
        formulas.append(Atom(sym, identity_term(names)))
    return i.with_predicates(extra), formulas
