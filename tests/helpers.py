"""Shared builders for tests: gate matrices, standard interpretations and
randomized subspaces / states / channels."""

from __future__ import annotations

import math

import numpy as np

from bvn import (
    Atom,
    Channel,
    StateDensity,
    Subspace,
    build,
    identity_term,
)
from bvn.config import Tolerances
from bvn.interp import Interpretation, PredicateBinding
from bvn.terms import _embedded, _Walk

H = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2)
X = np.array([[0, 1], [1, 0]], dtype=complex)
Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
Z = np.diag([1.0, -1.0]).astype(complex)
S = np.diag([1.0, 1j])
T = np.diag([1.0, np.exp(1j * np.pi / 4)])
CNOT = np.eye(4, dtype=complex)[[0, 1, 3, 2]]
P0 = np.diag([1.0, 0.0]).astype(complex)
P1 = np.diag([0.0, 1.0]).astype(complex)

GATES = {"H": H, "X": X, "Y": Y, "Z": Z, "S": S, "T": T, "C": CNOT}


def partial_trace(rho: StateDensity, keep, layout) -> StateDensity:
    """The partial trace of rho over the factors of ``layout`` not in
    ``keep``: one row and one column axis per factor, each discarded pair
    traced out from the back."""
    t = rho.matrix.reshape(list(layout) * 2)
    for k in sorted(set(range(len(layout))) - set(keep), reverse=True):
        t = np.trace(t, axis1=k, axis2=k + t.ndim // 2)
    d = math.prod(layout[k] for k in keep)
    return StateDensity(t.reshape(d, d))


def two_qubit_interp(operations=(), predicates=()) -> Interpretation:
    """q1, q2 with the usual gates, a computational measurement and the
    worked-example predicates, and any further ``operations`` and
    ``predicates`` as ``build`` takes them."""
    return build(
        variables=[("q1", 2), ("q2", 2)],
        operations=[
            ("H", (2,), [H], True),
            ("X", (2,), [X], True),
            ("Y", (2,), [Y], True),
            ("Z", (2,), [Z], True),
            ("C", (2, 2), [CNOT], True),
            *operations,
        ],
        measurements=[("M", (2,), [(0, P0), (1, P1)])],
        predicates=[
            ("P0", (2,), np.array([[1, 0]])),
            ("PX", (2,), np.array([[0.6, 0.8]])),
            ("P", (2, 2), np.array([[1, 0, 0, 0], [0, 0, 1, 0]])),
            *predicates,
        ],
        allowed=[((2,), ["H", "X", "Y", "Z"]), ((2, 2), ["C"])],
    )


def one_qubit_interp(allowed_syms=("H", "X")) -> Interpretation:
    return build(
        variables=[("q", 2)],
        operations=[
            ("H", (2,), [H], True),
            ("X", (2,), [X], True),
            ("Z", (2,), [Z], True),
        ],
        measurements=[("M", (2,), [(0, P0), (1, P1)])],
        predicates=[
            ("S0", (2,), np.array([[1, 0]])),
            ("S1", (2,), np.array([[0, 1]])),
            ("Splus", (2,), np.array([[1, 1]]) / np.sqrt(2)),
        ],
        allowed=[((2,), list(allowed_syms))],
    )


def blurred_pair_interp() -> Interpretation:
    """q, r and the measurement E on both, at the default tolerances.  Outcome
    0 is U diag(1, 1, 0, 3e-9) U^T with U = H (x) H and outcome 1 is I minus
    it: a projector within 7.5e-10 entrywise, whose third eigenvalue a
    relative rank cut at tau_rank = 1e-9 keeps."""
    u = np.kron(H, H)
    p0 = u @ np.diag([1, 1, 0, 3e-9]).astype(complex) @ u.T
    return build([("q", 2), ("r", 2)], measurements=[("E", (2, 2), [(0, p0), (1, np.eye(4) - p0)])])


def blurred_qubit_interp() -> Interpretation:
    """q, r, X and the measurement M on one qubit, with outcomes diag(1, 5e-7)
    and diag(0, 0.9999995), projectors within tau_num = 1e-6."""
    outcomes = [(0, np.diag([1, 5e-7])), (1, np.diag([0, 0.9999995]))]
    return build([("q", 2), ("r", 2)], operations=[("X", (2,), [X], True)],
                 measurements=[("M", (2,), outcomes)], tol=Tolerances(tau_num=1e-6))


def haar_basis(rng, dim: int, rank: int) -> np.ndarray:
    g = rng.normal(size=(dim, rank)) + 1j * rng.normal(size=(dim, rank))
    q, _ = np.linalg.qr(g)
    return q[:, :rank]


def random_subspace(rng, dim: int, rank: int | None = None) -> Subspace:
    if rank is None:
        rank = int(rng.integers(0, dim + 1))
    if rank == 0:
        return Subspace.zero(dim)
    return Subspace(dim, haar_basis(rng, dim, rank))


def random_subspace_inside(rng, outer: Subspace, rank: int | None = None) -> Subspace:
    if outer.rank == 0:
        return outer
    if rank is None:
        rank = int(rng.integers(0, outer.rank + 1))
    if rank == 0:
        return Subspace.zero(outer.dim)
    return Subspace(outer.dim, outer.basis @ haar_basis(rng, outer.rank, rank))


def random_unitary(rng, dim: int) -> np.ndarray:
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, r = np.linalg.qr(g)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def random_state(rng, dim: int, rank: int | None = None) -> StateDensity:
    if rank is None:
        rank = int(rng.integers(1, dim + 1))
    g = rng.normal(size=(dim, rank)) + 1j * rng.normal(size=(dim, rank))
    m = g @ g.conj().T
    return StateDensity(m / np.trace(m))


def random_state_inside(rng, x: Subspace) -> StateDensity:
    """A normalized state whose support lies inside x (x must be nonzero)."""
    inner = random_state(rng, x.rank)
    return StateDensity(x.basis @ inner.matrix @ x.basis.conj().T)


def random_channel(rng, dim: int, n_kraus: int = 2, trace_preserving: bool = True) -> Channel:
    ops = [
        rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        for _ in range(n_kraus)
    ]
    gram = sum(k.conj().T @ k for k in ops)
    evals, evecs = np.linalg.eigh(gram)
    inv_sqrt = evecs @ np.diag(evals ** -0.5) @ evecs.conj().T
    ops = [k @ inv_sqrt for k in ops]
    if not trace_preserving:
        ops = [np.sqrt(float(rng.uniform(0.3, 1.0))) * k for k in ops]
    return Channel(tuple(ops))


def three_qubit_interp() -> Interpretation:
    return build(
        variables=[("q1", 2), ("q2", 2), ("q3", 2)],
        operations=[
            ("H", (2,), [H], True),
            ("X", (2,), [X], True),
            ("Z", (2,), [Z], True),
            ("C", (2, 2), [CNOT], True),
        ],
        measurements=[("M", (2,), [(0, P0), (1, P1)])],
        allowed=[((2,), ["H", "X", "Z"]), ((2, 2), ["C"])],
    )


def random_word_term(i: Interpretation, rng, names, length: int | None = None):
    """A random sequence of unitary symbol applications over ``names``."""
    from itertools import permutations

    from bvn import BasicTerm, SeqTerm

    names = list(names)
    choices = []
    for sym, op in i.operations.items():
        if not op.unitary:
            continue
        for tup in permutations(names, len(op.signature)):
            if i.signature_of(tup) == op.signature:
                choices.append((sym, tup))
    if not choices:
        raise ValueError("no unitary symbols apply to these variables")
    if length is None:
        length = int(rng.integers(1, 4))
    sym, tup = choices[rng.integers(len(choices))]
    t = BasicTerm(sym, tup)
    for _ in range(length - 1):
        sym, tup = choices[rng.integers(len(choices))]
        t = SeqTerm(t, BasicTerm(sym, tup))
    return t


def random_loop_free_program(i: Interpretation, rng, names, depth: int = 2):
    """A random program over ``names`` built from skip, resets, unitary
    assignments, sequencing and case statements."""
    from bvn import CaseProg, Init, SeqProg, Skip, UnitaryAssign
    from bvn.terms import term_vars

    names = list(names)
    kind = int(rng.integers(0, 5 if depth > 0 else 3))
    if kind == 0:
        return Skip()
    if kind == 1:
        return Init(names[rng.integers(len(names))])
    if kind == 2:
        t = random_word_term(i, rng, names)
        return UnitaryAssign(tuple(sorted(term_vars(t), key=i.var_index)), t)
    if kind == 3:
        return SeqProg(
            random_loop_free_program(i, rng, names, depth - 1),
            random_loop_free_program(i, rng, names, depth - 1),
        )
    guard = names[rng.integers(len(names))]
    return CaseProg(
        "M",
        (guard,),
        (
            (0, random_loop_free_program(i, rng, names, depth - 1)),
            (1, random_loop_free_program(i, rng, names, depth - 1)),
        ),
    )


def channel_compose(second: Channel, first: Channel) -> Channel:
    """second after first, as the pairwise products of their dense Kraus
    operators; unitary when both are."""
    from bvn.linalg import global_kraus

    assert first.dim == second.dim
    kraus = tuple(k2 @ k1 for k2 in global_kraus(second) for k1 in global_kraus(first))
    kind = "unitary" if (first.kind == "unitary" and second.kind == "unitary") else "general"
    return Channel(kraus, kind)


def choi_matrix(e: Channel) -> np.ndarray:
    """Dense oracle for channel equality: the d^2 x d^2 Choi matrix
    sum_ij |i><j| (x) e(|i><j|) = W W^dagger, for W the vectorized Kraus
    operators side by side."""
    from bvn.linalg import global_kraus

    w = np.stack([k.T.reshape(-1) for k in global_kraus(e)], axis=1)  # w[(i, a)] = K[a, i]
    return w @ w.conj().T


def dense_channel_equal(e1: Channel, e2: Channel, tau: float = Tolerances().tau_num) -> bool:
    """The rule channel_equal decides, on dense Choi matrices: no entry of
    J1 - J2 above tau."""
    return bool(np.abs(choi_matrix(e1) - choi_matrix(e2)).max() <= tau)


def dense_term_channel(i: Interpretation, t, on_vars=None) -> Channel:
    """Oracle for ``term_channel``: each basic channel embedded densely on
    ``on_vars`` (default: all variables), composed pairwise, and each mix
    the branches' Kraus operators scaled by sqrt(w)."""
    from bvn import DimensionMismatchError
    from bvn.interp import embed_matrix_on
    from bvn.terms import basic_channel, term_wf

    target = list(i.variables) if on_vars is None else list(on_vars)
    missing = sorted(term_wf(i, t) - set(target))
    if missing:
        raise DimensionMismatchError(f"term uses variables {missing} outside target space")
    total = int(math.prod(i.var_dim(n) for n in target)) if target else 1

    class Compose(_Walk):
        def leaf(self, b, ch):
            basic = basic_channel(i, b)
            ops = tuple(embed_matrix_on(i, k, list(b.variables), target) for k in basic.kraus)
            return channel_compose(Channel(ops, basic.kind), ch)

        def mix(self, parts):
            return Channel(tuple(np.sqrt(w) * k for w, ch in parts for k in ch.kraus))

    return Compose(i)(t, Channel.identity(total))


def brute_channel(i: Interpretation, s) -> Channel:
    """Loop-free program as a single Kraus channel on the global space
    (independent composition oracle for the subspace transformers)."""
    from bvn import BasicTerm, CaseProg, Init, SeqProg, Skip, UnitaryAssign

    d = i.total_dim
    if isinstance(s, Skip):
        return Channel.identity(d)
    if isinstance(s, Init):
        return dense_term_channel(i, BasicTerm("0", (s.variable,)))
    if isinstance(s, UnitaryAssign):
        return dense_term_channel(i, s.term)
    if isinstance(s, SeqProg):
        return channel_compose(brute_channel(i, s.second), brute_channel(i, s.first))
    if isinstance(s, CaseProg):
        kraus = []
        for outcome, branch in s.branches:
            mch = dense_term_channel(i, BasicTerm(s.measurement, s.variables, outcome))
            sub = channel_compose(brute_channel(i, branch), mch)
            kraus.extend(sub.kraus)
        return Channel(tuple(kraus))
    raise ValueError("loops have no finite Kraus form")


def tree_run(i: Interpretation, s, rho: StateDensity, max_steps: int, epsilon: float):
    """Oracle for ``programs.run``: the breadth-first walk of the transition
    tree by ``programs._step``, the transitions of the public ``step`` after
    its one check of s and rho, made here once, summing its terminal leaves.
    Branches never merge.  A configuration whose trace is at most
    ``epsilon``, and every one left once ``max_steps`` transitions are
    taken, goes to the residual.  Returns (output, residual)."""
    from collections import deque

    from bvn import Configuration
    from bvn.programs import _checked, _step

    out = np.zeros((i.total_dim, i.total_dim), dtype=np.complex128)
    residual, steps = 0.0, 0
    pending = deque([Configuration(s, _checked(i, s, rho))])
    while pending:
        c = pending.popleft()
        if c.program is None:
            out += c.state.matrix
            continue
        trace = c.state.trace
        if trace <= epsilon or steps >= max_steps:
            residual += max(trace, 0.0)
            continue
        steps += 1
        pending.extend(_step(i, c))
    return StateDensity(out), residual


def _dense_apply(e: Channel, m: np.ndarray) -> np.ndarray:
    """sum_k K m K^dagger = (K (K m)^dagger)^dagger on a dense matrix, each
    product on the channel's legs: the two-sided reference for the one-sided
    action on a state's factor."""
    from bvn.linalg import _on_legs

    out = np.zeros_like(m)
    for k in e.kraus:
        out += _on_legs(k, e.legs, e.layout, _on_legs(k, e.legs, e.layout, m).conj().T).conj().T
    return out


class _DenseApply(_Walk):
    """The forward action on dense matrices, a reading of the one walker:
    each leaf applied on both sides and each mix a weighted sum."""

    def leaf(self, b, m):
        return _dense_apply(_embedded(self.i, b), m)

    def mix(self, parts):
        return sum(w * m for w, m in parts)


def dense_term_apply(i: Interpretation, t, rho: StateDensity) -> np.ndarray:
    """Oracle for ``term_apply``: the walk on the dense matrix of rho, each
    leaf applied on both sides and each mix a weighted sum."""
    return _DenseApply(i)(t, rho.matrix)


def dense_run(i: Interpretation, s, rho: StateDensity, max_steps: int = 100_000,
              epsilon: float = 1e-12) -> tuple:
    """Oracle for ``programs.run``: the same walk and loop rule on the dense
    matrix of rho, each leaf applied on both sides, each mix a weighted sum
    and a loop's exits summed into a dense output.  Returns (output matrix,
    residual, diverged, steps)."""
    from bvn.programs import _outcome, _trap, _Walk as _Statements

    traps: dict = {}  # by id, as run keeps them

    class DenseRun(_Statements, _DenseApply):
        steps, residual, diverged = 0, 0.0, 0.0

        def loop(self, s, m):
            leave, stay = (_embedded(i, _outcome(s, o)) for o in (0, 1))
            out = np.zeros_like(m)
            while True:
                done = _dense_apply(leave, m)
                out += done
                m = _dense_apply(stay, m)
                mass = max(float(np.trace(m).real), 0.0)
                stop = mass <= epsilon or self.steps >= max_steps
                if not stop and np.trace(done).real <= epsilon:
                    if id(s) not in traps:
                        traps[id(s)] = _trap(i, s).basis
                    n = traps[id(s)]
                    if np.trace(m).real - np.vdot(n, m @ n).real <= epsilon:
                        self.diverged += mass
                        stop = True
                if stop:
                    self.residual += mass
                    return out
                self.steps += 1
                m = self(s.body, m)

    walk = DenseRun(i)
    out = walk(s, rho.matrix)
    return out, walk.residual, walk.diverged, walk.steps


def bind_atoms(i: Interpretation, mapping: dict):
    """Extend the interpretation with predicate symbols for ad-hoc subspaces.

    mapping: name -> (variable name tuple, Subspace over those variables).
    Returns (new interpretation, {name: atomic Formula}).
    """
    extra = {}
    formulas = {}
    for name, (names, sub) in mapping.items():
        names = tuple(names)
        sig = i.signature_of(names)
        if sub.dim != int(math.prod(sig)):
            raise ValueError(f"subspace for {name} has dim {sub.dim}, needs {math.prod(sig)}")
        extra[name] = PredicateBinding(name, sig, sub)
        formulas[name] = Atom(name, identity_term(names))
    return i.with_predicates(extra), formulas


def measured_interp(rng, n: int) -> Interpretation:
    """q1..qn with H, X, Z, C, the amplitude-damping channel N (gamma 0.3) and
    four measurements: M on one qubit in the computational basis, R on one
    qubit in a random basis, E on two qubits with two rank-2 outcomes and B on
    two qubits with four outcomes, E and B in random bases.  M, R and E can
    guard loops."""

    def rotated(u, diagonals):
        return [(k, u @ np.diag(d).astype(complex) @ u.conj().T) for k, d in enumerate(diagonals)]

    damping = [np.diag([1.0, math.sqrt(0.7)]), np.array([[0.0, math.sqrt(0.3)], [0.0, 0.0]])]
    return build(
        variables=[(f"q{k}", 2) for k in range(1, n + 1)],
        operations=[
            ("H", (2,), [H], True),
            ("X", (2,), [X], True),
            ("Z", (2,), [Z], True),
            ("C", (2, 2), [CNOT], True),
            ("N", (2,), damping, False),
        ],
        measurements=[
            ("M", (2,), [(0, P0), (1, P1)]),
            ("R", (2,), rotated(random_unitary(rng, 2), np.eye(2))),
            ("E", (2, 2), rotated(random_unitary(rng, 4), [[1, 0, 0, 1], [0, 1, 1, 0]])),
            ("B", (2, 2), rotated(random_unitary(rng, 4), np.eye(4))),
        ],
    )


def random_program(i: Interpretation, rng, names, depth: int = 2, noisy: bool = True):
    """A random program over ``names``: skip, a reset, a unitary word, the
    channel N on one variable (when ``noisy``; a unitary word otherwise), a
    sequence, a case on any measurement of i that fits ``names`` with its
    branches in random order, or a loop guarded by a measurement with
    outcomes {0, 1}."""
    from itertools import permutations

    from bvn import BasicTerm, CaseProg, Init, SeqProg, Skip, UnitaryAssign, WhileProg
    from bvn.terms import term_vars

    names = list(names)
    kind = int(rng.integers(0, 7 if depth > 0 else 4))
    if kind == 0:
        return Skip()
    if kind == 1:
        return Init(names[rng.integers(len(names))])
    if kind == 3 and noisy:
        q = names[rng.integers(len(names))]
        return UnitaryAssign((q,), BasicTerm("N", (q,)))
    if kind in (2, 3):
        t = random_word_term(i, rng, names)
        return UnitaryAssign(tuple(sorted(term_vars(t), key=i.var_index)), t)
    if kind == 4:
        return SeqProg(random_program(i, rng, names, depth - 1, noisy),
                       random_program(i, rng, names, depth - 1, noisy))
    loop = kind == 6
    places = {sym: [tup for tup in permutations(names, len(m.signature))
                    if i.signature_of(tup) == m.signature]
              for sym, m in sorted(i.measurements.items())
              if not loop or set(m.outcomes) == {0, 1}}
    symbols = [sym for sym, tups in places.items() if tups]
    m = i.measurements[symbols[rng.integers(len(symbols))]]
    place = places[m.symbol][rng.integers(len(places[m.symbol]))]
    if loop:
        return WhileProg(m.symbol, place, random_program(i, rng, names, depth - 1, noisy))
    return CaseProg(m.symbol, place, tuple(
        (m.outcomes[k], random_program(i, rng, names, depth - 1, noisy))
        for k in rng.permutation(len(m.outcomes))))


def meet_wlp(i: Interpretation, s, y: Subspace) -> Subspace:
    """Oracle for prog_wlp: the wlp of a case, and each step of a loop's,
    formed as the lattice_meet over outcomes m of channel_wlp(P_m, ...), which
    is ker P_m (+) (... ^ ran P_m), instead of as a direct sum."""
    from bvn import BasicTerm, CaseProg, SeqProg, WhileProg, channel_wlp, lattice_meet, prog_wlp
    from bvn.linalg import lattice_fixpoint

    def outcome(o):
        return _embedded(i, BasicTerm(s.measurement, s.variables, o))

    if isinstance(s, SeqProg):
        return meet_wlp(i, s.first, meet_wlp(i, s.second, y))
    if isinstance(s, CaseProg):
        return lattice_meet([channel_wlp(outcome(o), meet_wlp(i, branch, y), i.tol)
                             for o, branch in s.branches], i.tol)
    if isinstance(s, WhileProg):
        exit_part = channel_wlp(outcome(0), y, i.tol)

        def shrink(z):
            body = channel_wlp(outcome(1), meet_wlp(i, s.body, z), i.tol)
            return lattice_meet([exit_part, body], i.tol)

        return lattice_fixpoint(shrink, Subspace.full(y.dim), "loop wlp", i.tol)
    return prog_wlp(i, s, y)


def count_factorizations(monkeypatch) -> list:
    """(kind, shape) of every np.linalg.svd and eigh call from now on."""
    calls = []
    for kind in ("svd", "eigh"):
        def counting(a, *args, _kind=kind, _real=getattr(np.linalg, kind), **kwargs):
            calls.append((_kind, np.shape(a)))
            return _real(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, kind, counting)
    return calls
