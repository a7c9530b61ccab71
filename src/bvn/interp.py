"""Interpretations: variable declarations, symbol bindings, generator sets.

An interpretation fixes the quantum variables (with dimensions and a tensor
layout given by declaration order), binds operation / measurement /
predicate symbols to concrete matrices, and lists per-signature generator
sets over which quantifiers on quantum variables range.  Only the declared
symbols are bound: ``build`` validates each matrix once, and the inverse
``U^-1`` of a unitary symbol is read off its binding as the adjoint matrix.
It splits each outcome's projector once into its range, the eigenvectors
above 1/2, read by meas M.m(q) and the outcome's channel; the ranges must tile.

An operation on variables q extends by the identity on the others.  ``embed``
keeps its local Kraus operators and records the legs of q in the tensor
layout, so the kernels in ``linalg`` contract them there; ``terms._embedded``
calls it once per basic term and interpretation, for the term readings and for
the generators that ``allowed_generators`` lists as (symbol, variables) pairs.
``embed_subspace`` likewise keeps a subspace's basis on the legs of its
variables.  ``embed_matrix_on`` builds the dense matrix of an operator on
some variables; no package function calls it, and it is kept for library
callers, the tests and the benchmark's tracer.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from itertools import permutations

import numpy as np

from .config import DEFAULT_TOL, Tolerances
from .errors import ConfigurationError, DimensionMismatchError, InterpretationError
from .linalg import Channel, Subspace, global_kraus, orthonormal_columns, projector_split

__all__ = [
    "OperationBinding",
    "MeasurementBinding",
    "PredicateBinding",
    "Interpretation",
    "build",
    "embed",
    "embed_subspace",
]

IDENTITY_SYMBOL = "I"
INIT_SYMBOL = "0"


@dataclass(frozen=True)
class OperationBinding:
    symbol: str
    signature: tuple  # tuple of per-variable dimensions
    channel: Channel
    unitary: bool = False


@dataclass(frozen=True)
class MeasurementBinding:
    symbol: str
    signature: tuple
    outcomes: tuple  # outcome labels, in declaration order
    projectors: tuple  # matching projector matrices, as declared
    ranges: tuple  # matching orthonormal bases of their ranges, split by build


@dataclass(frozen=True)
class PredicateBinding:
    symbol: str
    signature: tuple
    subspace: Subspace


@dataclass(frozen=True)
class Interpretation:
    variables: dict  # name -> dimension, declaration order == tensor order
    operations: dict  # symbol -> OperationBinding
    measurements: dict  # symbol -> MeasurementBinding
    predicates: dict  # symbol -> PredicateBinding
    allowed: dict  # signature tuple -> tuple of operation symbols
    tol: Tolerances = DEFAULT_TOL
    # basic term -> embedded channel, filled by terms._embedded and kept across the
    # queries on this interpretation, one per basic term they use (66 in 11.2 KiB on
    # perfbench's 8-qubit wide-verify file); copies start empty
    embedded: dict = field(default_factory=dict, init=False, repr=False, compare=False)
    # formula -> its subspace, filled by formulas.eval_subspace, cleared after each
    # cli query; copies start empty
    evaluated: dict = field(default_factory=dict, init=False, repr=False, compare=False)
    # target variable tuple -> (this interpretation on those variables and a reference
    # leg, its dimension), filled by terms._doubled for Choi-state readings and kept
    # with its own channel memo across queries; copies start empty
    doubled: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    @property
    def layout(self) -> list:
        return list(self.variables.values())

    @property
    def total_dim(self) -> int:
        return int(math.prod(self.variables.values())) if self.variables else 1

    def var_index(self, name: str) -> int:
        try:
            return list(self.variables).index(name)
        except ValueError:
            raise InterpretationError(f"unknown quantum variable {name!r}") from None

    def var_dim(self, name: str) -> int:
        if name not in self.variables:
            raise InterpretationError(f"unknown quantum variable {name!r}")
        return self.variables[name]

    def signature_of(self, names) -> tuple:
        return tuple(self.var_dim(n) for n in names)

    def with_predicates(self, extra: dict) -> "Interpretation":
        """A copy with additional predicate bindings (used to name ad-hoc
        subspaces, e.g. basis-vector propositions)."""
        preds = dict(self.predicates)
        for sym, binding in extra.items():
            if sym in preds or sym in self.operations or sym in self.measurements:
                raise InterpretationError(f"symbol {sym!r} already bound")
            preds[sym] = binding
        return replace(self, predicates=preds)


def _is_projector(m: np.ndarray, tol: Tolerances) -> bool:
    return (
        np.abs(m - m.conj().T).max(initial=0.0) <= tol.tau_num
        and np.abs(m @ m - m).max(initial=0.0) <= tol.tau_num
    )


def _read_only(a: np.ndarray) -> np.ndarray:
    """A view of ``a`` that raises on an in-place write: a binding is shared
    by every later query on its interpretation, while the caller's own array
    stays writable."""
    view = a.view()
    view.setflags(write=False)
    return view


def build(
    variables,
    operations=(),
    measurements=(),
    predicates=(),
    allowed=(),
    tol: Tolerances = DEFAULT_TOL,
) -> Interpretation:
    """Validate declarations and freeze them into an interpretation.

    ``variables``    iterable of (name, dim)
    ``operations``   iterable of (symbol, signature, kraus list, unitary?)
    ``measurements`` iterable of (symbol, signature, [(outcome, projector)])
    ``predicates``   iterable of (symbol, signature, vectors | Subspace)
    ``allowed``      iterable of (signature, [symbols])
    """
    var_map: dict = {}
    for name, dim in variables:
        if name in var_map:
            raise InterpretationError(f"variable {name!r} declared twice")
        if not (isinstance(dim, int) and dim >= 1):
            raise InterpretationError(f"variable {name!r} has invalid dimension {dim!r}")
        var_map[name] = dim
    total = int(math.prod(var_map.values())) if var_map else 1
    if total > tol.dim_cap:
        raise InterpretationError(
            f"total ambient dimension {total} exceeds the configured cap {tol.dim_cap}"
        )

    ops: dict = {}
    for symbol, signature, kraus, unitary in operations:
        if symbol in (IDENTITY_SYMBOL, INIT_SYMBOL):
            raise InterpretationError(f"{symbol!r} is a reserved operation symbol")
        if symbol in ops:
            raise InterpretationError(f"operation symbol {symbol!r} bound twice")
        try:
            ch = Channel.validated(kraus, kind="unitary" if unitary else "general", tol=tol)
        except Exception as exc:
            raise InterpretationError(f"operation {symbol!r}: {exc}") from exc
        space = int(math.prod(signature))
        if ch.dim != space:
            raise InterpretationError(
                f"operation {symbol!r}: matrices act on dim {ch.dim}, "
                f"signature {tuple(signature)} needs {space}"
            )
        ch = replace(ch, kraus=tuple(map(_read_only, ch.kraus)))
        ops[symbol] = OperationBinding(symbol, tuple(signature), ch, bool(unitary))

    meas: dict = {}
    for symbol, signature, outcome_pairs in measurements:
        if symbol in meas or symbol in ops:
            raise InterpretationError(f"measurement symbol {symbol!r} bound twice")
        space = int(math.prod(signature))
        labels, projs = [], []
        acc = np.zeros((space, space), dtype=np.complex128)
        for label, proj in outcome_pairs:
            m = np.asarray(proj, dtype=np.complex128)
            if m.shape != (space, space):
                raise InterpretationError(
                    f"measurement {symbol!r} outcome {label}: shape {m.shape} != {(space, space)}"
                )
            if not _is_projector(m, tol):
                raise InterpretationError(
                    f"measurement {symbol!r} outcome {label} is not a projection"
                )
            for other_label, other in zip(labels, projs):
                if np.abs(m @ other).max(initial=0.0) > tol.tau_num:
                    raise InterpretationError(
                        f"measurement {symbol!r}: outcomes {label} and {other_label} "
                        "are not orthogonal"
                    )
            labels.append(label)
            projs.append(_read_only(m))
            acc += m
        if np.abs(acc - np.eye(space)).max(initial=0.0) > tol.tau_num:
            raise InterpretationError(f"measurement {symbol!r} projectors do not sum to identity")
        if len(set(labels)) != len(labels):
            raise InterpretationError(f"measurement {symbol!r} has duplicate outcome labels")
        ranges = tuple(_read_only(projector_split(p)[1]) for p in projs)
        tiles = np.hstack(ranges)
        gram = tiles.conj().T @ tiles
        if gram.shape != (space, space) or np.abs(gram - np.eye(space)).max() > tol.tau_num:
            raise InterpretationError(
                f"measurement {symbol!r}: the ranges of its outcomes do not tile its space")
        meas[symbol] = MeasurementBinding(
            symbol, tuple(signature), tuple(labels), tuple(projs), ranges)

    preds: dict = {}
    for symbol, signature, value in predicates:
        if symbol in preds or symbol in ops or symbol in meas:
            raise InterpretationError(f"predicate symbol {symbol!r} bound twice")
        space = int(math.prod(signature))
        if isinstance(value, Subspace):
            sub = value
        else:
            vectors = np.asarray(value, dtype=np.complex128)
            if not np.isfinite(vectors).all():
                raise InterpretationError(
                    f"predicate {symbol!r}: spanning vectors have a non-finite entry"
                )
            if vectors.size == 0:
                sub = Subspace.zero(space)
            else:
                if vectors.ndim == 1:
                    vectors = vectors.reshape(1, -1)
                if vectors.shape[1] != space:
                    raise InterpretationError(
                        f"predicate {symbol!r}: spanning vectors have length "
                        f"{vectors.shape[1]}, signature needs {space}"
                    )
                cols = vectors.T
                gram = cols.conj().T @ cols
                if np.abs(gram - np.eye(cols.shape[1])).max(initial=0.0) <= tol.tau_num:
                    sub = Subspace(space, cols)  # keep exact columns for round-trips
                else:
                    sub = Subspace(space, orthonormal_columns(cols, tol))
        if sub.dim != space:
            raise InterpretationError(
                f"predicate {symbol!r}: subspace lives in dim {sub.dim}, signature needs {space}"
            )
        sub = Subspace(space, _read_only(sub.basis))
        preds[symbol] = PredicateBinding(symbol, tuple(signature), sub)

    allow: dict = {}
    for signature, symbols in allowed:
        sig = tuple(signature)
        seen = list(allow.get(sig, ()))
        for s in symbols:
            if s == IDENTITY_SYMBOL:
                seen.append(s)
                continue
            if s not in ops:
                raise InterpretationError(f"allowed set for {sig} names unknown operation {s!r}")
            if ops[s].signature != sig:
                raise InterpretationError(
                    f"allowed set for {sig} names {s!r} of signature {ops[s].signature}"
                )
            seen.append(s)
        allow[sig] = tuple(dict.fromkeys(seen))

    return Interpretation(var_map, ops, meas, preds, allow, tol)


# ---------------------------------------------------------------------------
# embedding into the global space
# ---------------------------------------------------------------------------


def _placement(i: Interpretation, names, target) -> tuple:
    """(legs, layout, dim): the positions of ``names`` in the ordered
    variable list ``target``, the dimensions of ``target``, and the
    dimension that ``names`` span."""
    names, target = list(names), list(target)
    slot = {n: g for g, n in enumerate(target)}
    if len(slot) != len(target):
        raise InterpretationError(f"target list {target} repeats a variable")
    missing = [n for n in names if n not in slot]
    if missing:
        raise InterpretationError(f"variables {missing} are not among {target}")
    legs = tuple(slot[n] for n in names)
    if len(set(legs)) != len(legs):
        raise InterpretationError(f"variable list {names} repeats a variable")
    layout = tuple(i.var_dim(n) for n in target)
    return legs, layout, math.prod(layout[g] for g in legs)


def embed_matrix_on(i: Interpretation, mat: np.ndarray, names, target) -> np.ndarray:
    """mat acting on ``names``, identity on the remaining variables of the
    ordered list ``target`` (which must contain all of ``names``), as one
    dense matrix."""
    legs, layout, sub_dim = _placement(i, names, target)
    mat = np.asarray(mat, dtype=np.complex128)
    if mat.shape != (sub_dim, sub_dim):
        raise DimensionMismatchError(
            f"matrix shape {mat.shape} does not match variables {list(names)} (dim {sub_dim})"
        )
    return global_kraus(Channel((mat,), "general", legs, layout))[0]


def embed(i: Interpretation, e: Channel, names) -> Channel:
    """Channel on the full global space: e on ``names``, identity elsewhere,
    held as e's own Kraus operators on the legs of ``names``."""
    names = list(names)
    legs, layout, space = _placement(i, names, i.variables)
    if e.dim != space:
        raise DimensionMismatchError(
            f"channel acts on dim {e.dim}, variables {names} span dim {space}")
    return replace(e, legs=legs, layout=layout)


def allowed_generators(i: Interpretation, qs) -> list:
    """The generators a quantifier over ``qs`` ranges over, as (symbol,
    variables) pairs: every allowed operation symbol other than I applied to
    every ordered tuple of distinct variables drawn from ``qs`` whose
    dimensions match the symbol's signature, shorter tuples first.  Only the
    lengths of declared signatures are tried.  Raises ConfigurationError when
    no generator set at all is declared for these variables; an explicitly
    empty set is fine and leaves only the identity word."""
    qs = list(qs)
    found_signature = False
    gens = []
    for r in sorted({len(sig) for sig in i.allowed if 0 < len(sig) <= len(qs)}):
        for tup in permutations(qs, r):
            symbols = i.allowed.get(i.signature_of(tup))
            if symbols is not None:
                found_signature = True
                gens.extend((sym, tup) for sym in symbols if sym != IDENTITY_SYMBOL)
    if not found_signature:
        raise ConfigurationError(
            f"no allowed generator set declared for any signature over variables {qs}"
        )
    return gens


def embed_subspace(i: Interpretation, x: Subspace, names) -> Subspace:
    """x on the listed variables, tensored with the full space elsewhere,
    held as x's basis on their legs."""
    legs, layout, sub_dim = _placement(i, names, i.variables)
    if x.dim != sub_dim:
        raise DimensionMismatchError(
            f"subspace dim {x.dim} does not match variables {list(names)} (dim {sub_dim})"
        )
    return Subspace(i.total_dim, x.basis, legs, layout)
