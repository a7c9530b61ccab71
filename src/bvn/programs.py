"""Quantum while-programs: their semantics on states and exact subspace transformers.

Programs are read by the one walker of terms and programs, ``terms._Walk``
(Ying, Foundations of Quantum Programming, 2016, chs. 3-4), into which
``_Walk`` here mixes the statements.  Each reading takes its leaf and mix
from a term reading: ``run`` (``_Run``, on ``terms._Apply``) folds the
denotational semantics over one partial density operator, ``prog_image``
and ``prog_wlp`` (``_Image`` and ``_Wlp``) give exact forward images and
weakest liberal preconditions.  A sequence of any length costs no
recursion; only cases, loops and mixes nested in one another recurse.
``prog_vars`` and ``prog_wf`` are loops over ``_statements``.  In ``run``
the branches of a case merge, and a loop on few variables is solved in
closed form on them (``_solve``), with the mass it keeps forever reported
as residual.  Any other loop is iterated: it stops on a tiny remaining mass,
on the run's budget of iterations, or on a proof, from its trap wlp(loop,
0), that what remains diverges; what it stops with is reported as
residual, never silently dropped.  Verification never relies on ``run``:
images and wlps of loops are exact least/greatest fixpoints in the
subspace lattice, which has finite height.  ``step`` is the small-step
transition relation.  The wlp of a case or loop reads each outcome's
range, the one ``interp.build`` split off, as the formula meas M.m(q) from
the formula memo.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from . import terms
from .errors import ConfigurationError, DimensionMismatchError, WellFormednessError
from .formulas import MeasAtom, _evaluated
from .interp import INIT_SYMBOL, Interpretation, _placement, embed_subspace
from .linalg import (
    Channel,
    StateDensity,
    Subspace,
    _direct_sum,
    _meet_from,
    _psd_factor,
    channel_apply,
    lattice_fixpoint,
    lattice_join,
    lattice_meet,
    subspace_equal,
)
from .terms import (
    BasicTerm,
    Term,
    _Apply,
    _embedded,
    _measurement,
    _Observe,
    is_unitary_term,
    term_vars,
    term_wf,
)

__all__ = [
    "Program",
    "Skip",
    "Init",
    "UnitaryAssign",
    "SeqProg",
    "CaseProg",
    "WhileProg",
    "Configuration",
    "prog_vars",
    "prog_wf",
    "step",
    "run",
    "RunResult",
    "prog_image",
    "prog_wlp",
    "terminates_probe",
    "TerminationReport",
    "representable_probe",
    "RepresentabilityReport",
]


class Program:
    __slots__ = ()


@dataclass(frozen=True)
class Skip(Program):
    pass


@dataclass(frozen=True)
class Init(Program):
    variable: str


@dataclass(frozen=True)
class UnitaryAssign(Program):
    variables: tuple
    term: Term


@dataclass(frozen=True)
class SeqProg(Program):
    first: Program
    second: Program


@dataclass(frozen=True)
class CaseProg(Program):
    measurement: str
    variables: tuple
    branches: tuple  # of (outcome, Program), in declared outcome order


@dataclass(frozen=True)
class WhileProg(Program):
    measurement: str
    variables: tuple
    body: Program


@dataclass(frozen=True)
class Configuration:
    """A program under execution paired with a partial density operator;
    ``program is None`` marks termination."""

    program: Program | None
    state: StateDensity
    via: str = ""
    zero_trace: bool = False


def _statements(s: Program):
    """Every statement of s in pre-order, walked from a work stack."""
    todo = [s]
    while todo:
        s = todo.pop()
        if isinstance(s, SeqProg):
            todo += (s.second, s.first)
        elif isinstance(s, CaseProg):
            todo += reversed([b for _, b in s.branches])
        elif isinstance(s, WhileProg):
            todo.append(s.body)
        elif not isinstance(s, (Skip, Init, UnitaryAssign)):
            raise WellFormednessError(f"not a program node: {s!r}")
        yield s


def prog_vars(s: Program) -> frozenset:
    out: set = set()
    for node in _statements(s):
        if isinstance(node, Init):
            out.add(node.variable)
        elif isinstance(node, UnitaryAssign):
            out |= term_vars(node.term)
        out.update(getattr(node, "variables", ()))  # of an assignment, a case or a loop
    return frozenset(out)


def prog_wf(i: Interpretation, s: Program, allow_nonunitary: bool = False) -> frozenset:
    """Validate the program against the interpretation; return var(S).

    ``allow_nonunitary`` admits non-unitary terms in assignments (the noisy
    extension); the proof rules never accept such programs.
    """
    out: set = set()
    for node in _statements(s):
        if isinstance(node, Init):
            i.var_dim(node.variable)
            out.add(node.variable)
        elif isinstance(node, UnitaryAssign):
            tv = term_wf(i, node.term)
            if not tv <= set(node.variables):
                raise WellFormednessError(f"assignment term uses {sorted(tv - set(node.variables))} "
                                          f"outside {list(node.variables)}")
            if len(set(node.variables)) != len(node.variables):
                raise WellFormednessError("assignment variable list repeats a variable")
            for q in node.variables:
                i.var_dim(q)
            if not allow_nonunitary and not is_unitary_term(i, node.term):
                raise WellFormednessError("assignment terms must be unitary")
        elif isinstance(node, CaseProg):
            declared = set(_measurement(i, node.measurement, node.variables).outcomes)
            covered = [o for o, _ in node.branches]
            if set(covered) != declared or len(covered) != len(declared):
                raise WellFormednessError(
                    f"case must cover outcomes {sorted(declared)} exactly once, got {covered}")
        elif isinstance(node, WhileProg):
            m = _measurement(i, node.measurement, node.variables)
            if set(m.outcomes) != {0, 1}:
                raise WellFormednessError(
                    f"loop guards need outcomes {{0, 1}}, {node.measurement!r} has {list(m.outcomes)}")
        out.update(getattr(node, "variables", ()))
    return frozenset(out)


def _checked(i: Interpretation, s: Program, x):
    """x, after the one input check of each public entry: its dimension and s."""
    if x.dim != i.total_dim:
        raise DimensionMismatchError(f"operand dim {x.dim} != global dimension {i.total_dim}")
    prog_wf(i, s, allow_nonunitary=True)
    return x


def _outcome(s: CaseProg | WhileProg, outcome) -> BasicTerm:
    """The basic term of one outcome of the statement's measurement."""
    return BasicTerm(s.measurement, s.variables, outcome)


def _range(i: Interpretation, s: CaseProg | WhileProg, outcome) -> Subspace:
    """The range of one outcome's projector, split by build: meas M.m(q), memoised."""
    return _evaluated(i, MeasAtom(s.measurement, outcome, s.variables))


def step(i: Interpretation, c: Configuration) -> list:
    """All successor configurations of one transition.  Measurement rules
    return one successor per branch; zero-trace successors are kept and
    flagged rather than dropped."""
    if c.program is None:
        raise WellFormednessError("terminated configurations have no successors")
    _checked(i, c.program, c.state)
    return _step(i, c)


def _step(i: Interpretation, c: Configuration) -> list:
    s, rho = c.program, c.state

    def conf(program, state, via):
        return Configuration(program, state, via, state.trace <= i.tol.tau_num)

    if isinstance(s, Skip):
        return [conf(None, rho, "Sk")]
    if isinstance(s, Init):
        ch = _embedded(i, BasicTerm(INIT_SYMBOL, (s.variable,)))
        return [conf(None, channel_apply(ch, rho), "In")]
    if isinstance(s, UnitaryAssign):
        return [conf(None, _Apply(i)(s.term, rho), "UT")]
    if isinstance(s, SeqProg):
        out = []
        for sub in _step(i, Configuration(s.first, rho)):
            rest = s.second if sub.program is None else SeqProg(sub.program, s.second)
            out.append(conf(rest, sub.state, "SC:" + sub.via))
        return out
    if isinstance(s, CaseProg):
        return [conf(branch, channel_apply(_embedded(i, _outcome(s, o)), rho), f"IF[{o}]")
                for o, branch in s.branches]
    if isinstance(s, WhileProg):
        return [conf(nxt, channel_apply(_embedded(i, _outcome(s, o)), rho), f"L{o}")
                for o, nxt in ((0, None), (1, SeqProg(s.body, s)))]
    raise WellFormednessError(f"not a program node: {s!r}")


@dataclass(frozen=True)
class RunResult:
    """What ``run`` returns.

    ``output`` is the partial density operator of the terminated mass.
    ``residual`` is the trace of the mass that loops set aside, unfinished:
    the trace a solved loop's channel loses, the mass it keeps forever;
    and, of an iterated loop, guard-1 mass at or below ``epsilon``, mass
    left when the iteration budget ran out, and mass proven to diverge.
    ``diverged`` is the kept and the proven part, so 0 <= diverged <=
    residual.  ``status`` is ``exact`` iff the residual is below
    ``tau_num``.  ``steps`` counts the iterations of iterated loops; a
    solved loop adds none.
    """

    output: StateDensity
    residual: float
    status: str  # exact | truncated
    steps: int
    diverged: float


def run(i: Interpretation, s: Program, rho: StateDensity, max_steps: int = 100_000,
        epsilon: float = 1e-12) -> RunResult:
    """The program's denotational semantics applied to rho, as one fold
    over a single partial density operator (Ying, Foundations of Quantum
    Programming, 2016, ch. 3): [[S1; S2]]ρ = [[S2]]([[S1]]ρ), a case is
    Σ_m [[S_m]](P_m ρ P_m), so branches merge, and a loop is
    Σₖ E₀(Tᵏ(ρ)), for E_m(ρ) = P_m ρ P_m and T = [[body]] ∘ E₁.

    A loop whose own variables L = var(guard) ∪ var(body) have d_L² at
    most ``_SOLVED_CAP`` is solved once per run in closed form on L
    (``_solve``) and applied as one channel there.  The trace that channel
    loses, the mass the loop keeps forever, goes into the residual and
    ``diverged``; it takes none of ``max_steps`` and ignores ``epsilon``.

    Any other loop is iterated: a wider one, one with an iterated loop
    inside, and one that drains too slowly to settle before the rounding
    bound of its closed form passes ``tau_num``.  An iterated loop adds
    P0 ρ_k P0 to its output and goes on with ρ_{k+1} = [[body]](P1 ρ_k P1).
    It sets its guard-1 mass P1 ρ_k P1 aside, into the residual, when its
    trace is at most ``epsilon``, when the run's budget of ``max_steps``
    iterations (all iterated loops together) is spent, or when the mass is
    proven to diverge.  The proof reads the loop's trap
    N = wlp(loop, 0), the inputs from which it never terminates: the mass
    that can still exit is at most tr((I - Π_N) ρ), so once that is at most
    ``epsilon``, the rest diverges and is also counted in ``diverged``.  N
    is computed at most once per loop and run, and only after an iteration
    whose exit mass is at most ``epsilon``.  It is decided at ``tau_sub``,
    as in ``terminates_probe``, so mass that a body moves out of the guard-1
    range by less than about tau_sub per round counts as diverged.

    ``epsilon`` must be below 1: no state has a trace above 1, so at 1 or
    more every iterated loop would be abandoned before its first iteration.
    """
    if max_steps < 0:
        raise ConfigurationError(f"max_steps must not be negative, got {max_steps}")
    if not (math.isfinite(epsilon) and 0 <= epsilon < 1):
        raise ConfigurationError(f"epsilon must be finite, not negative and below 1, "
                                 f"got {epsilon}")
    walk = _Run(i, max_steps, epsilon)
    out = walk(s, _checked(i, s, rho))
    status = "exact" if walk.residual < i.tol.tau_num else "truncated"
    return RunResult(out, walk.residual, status, walk.steps, float(walk.diverged))


class _Walk:
    """The statements of ``terms._Walk``, mixed into a term reading, whose
    leaf and mix also read resets and outcomes.  A reading adds ``loop(s,
    x)``.  A case mixes its branches, each after its outcome's channel, with
    weight 1, unless the reading overrides ``case``."""

    def statement(self, s: Program, x, todo: list):
        if isinstance(s, SeqProg):
            todo += (s.first, s.second) if self.backward else (s.second, s.first)
        elif isinstance(s, UnitaryAssign):
            todo.append(s.term)
        elif isinstance(s, Init):
            return self.leaf(BasicTerm(INIT_SYMBOL, (s.variable,)), x)
        elif isinstance(s, CaseProg):
            return self.case(s, x)
        elif isinstance(s, WhileProg):
            return self.loop(s, x)
        elif not isinstance(s, Skip):
            raise WellFormednessError(f"not a program node: {s!r}")
        return x

    def case(self, s: CaseProg, x):
        return self.mix([(1, self(branch, self.leaf(_outcome(s, o), x)))
                         for o, branch in s.branches])


# A loop whose own variables L = var(guard) ∪ var(body) have d_L² at most
# this is solved in closed form, a wider one iterated; the README's run
# section records the measurement that set it.
_SOLVED_CAP = 16


class _Run(_Walk, _Apply):
    """One call of ``run``, or of a solved loop's guard and body on its Choi
    state: the fold, its count of iterations, the mass it set aside, of which
    ``diverged`` is the kept and proven-diverging part, the sum of the
    rounding bounds of the solved loops it applied, and the traps and closed
    forms (None for a loop it iterates) it has computed, by loop."""

    def __init__(self, i: Interpretation, max_steps: int, epsilon: float):
        super().__init__(i)
        self.max_steps, self.epsilon = max_steps, epsilon
        self.steps, self.residual, self.diverged, self.rounding = 0, 0.0, 0.0, 0.0
        self.traps: dict = {}  # by id: hashing a frozen loop recurses through its body
        self.solved: dict = {}  # by id, as the traps

    def loop(self, s: WhileProg, rho: StateDensity) -> StateDensity:
        if id(s) not in self.solved:
            self.solved[id(s)] = _solve(self.i, s)
        if self.solved[id(s)] is not None:
            ch, noise = self.solved[id(s)]
            self.rounding += noise
            out = channel_apply(ch, rho)
            kept = rho.trace - out.trace  # what the loop never lets out
            if kept > len(ch.kraus[0]) ** 2 * noise * rho.trace:
                self.diverged += kept
                self.residual += kept
            return out
        leave, stay = (_embedded(self.i, _outcome(s, o)) for o in (0, 1))
        out = StateDensity.zero(rho.dim).factor  # the exits' factors, side by side
        while True:
            done = channel_apply(leave, rho)
            out = np.hstack([out, done.factor])
            if out.shape[1] > 2 * rho.dim:  # made square once per d exits, not at each
                out = StateDensity._of(out).factor
            rho = channel_apply(stay, rho)
            mass = rho.trace
            stop = mass <= self.epsilon or self.steps >= self.max_steps
            if not stop and done.trace <= self.epsilon and self._live(s, rho) <= self.epsilon:
                self.diverged += mass
                stop = True
            if stop:
                self.residual += mass
                return StateDensity._of(out)
            self.steps += 1
            rho = self(s.body, rho)

    def _live(self, s: WhileProg, rho: StateDensity) -> float:
        """tr((I - Π_N) rho) for the loop's trap N: a bound on the mass of
        rho that the loop can still let out."""
        if id(s) not in self.traps:
            self.traps[id(s)] = _trap(self.i, s).basis
        n = self.traps[id(s)]
        return rho.trace - float(np.linalg.norm(n.conj().T @ rho.factor) ** 2)


def _solve(i: Interpretation, s: WhileProg):
    """The loop in closed form on its own variables L (Ying and Feng,
    Quantum loop programs, Acta Informatica 47, 2010): (the channel
    E = E₀ ∘ Σₖ Tᵏ, for T = [[body]] ∘ E₁, on L's legs of i; a bound on its
    rounding).  None, so that the loop is iterated, when d_L² exceeds
    ``_SOLVED_CAP``, when a loop inside it is iterated, or when the bound
    passes ``tau_num`` before the loop settles.

    T is read off ``_Run`` of E₁ and the body on the Choi state over L and
    a reference leg, nested loops solved first.  On d² x d² superoperators,
    from A = E₀ and P = T, A ← A + A·P, P ← P·P sums 2^m iterations.  Each
    row of A and the in-loop trace P†(I) obey a linear recurrence of order
    d² (Cayley-Hamilton) with positive terms, so a window of d² iterations
    in which neither moves by more than its rounding (d·eps per node of the
    loop and a nested loop's bound, per iteration summed) stays quiet; so
    does every window once P itself is below it.  E is exact within the
    bound, so the mass the loop keeps, nested loops' part included (T loses
    it), is tr ρ - tr E(ρ), less what the Kraus factor drops: at most d²
    Choi eigenvalues below the bound, each taking at most bound·tr ρ, so
    ``run`` reads a loss up to d²·bound·tr ρ as rounding."""
    names = sorted(prog_vars(s), key=i.var_index)
    d = math.prod(i.var_dim(n) for n in names)
    if d * d > _SOLVED_CAP:
        return None
    walk = _Run(terms._doubled(i, names)[0], 0, 0.0)
    omega = StateDensity._of(np.eye(d, dtype=np.complex128).reshape(-1, 1))  # vec(I), Choi
    p0 = walk.leaf(_outcome(s, 0), omega).factor.reshape(d, d)
    k = walk(s.body, walk.leaf(_outcome(s, 1), omega)).factor.T.reshape(-1, d, d)
    if None in walk.solved.values():
        return None  # a nested loop is iterated, so this one is too
    p = np.einsum("kai,kbj->abij", k, k.conj()).reshape(d * d, d * d)
    a = np.einsum("ai,bj->abij", p0, p0.conj()).reshape(d * d, d * d)
    nodes = sum(len(list(terms._subterms(x.term))) if isinstance(x, UnitaryAssign) else 1
                for x in _statements(s))
    rounding = (d * d + d * nodes) * np.finfo(float).eps + walk.rounding  # per iteration
    trace = np.eye(d).reshape(-1)
    stay = trace @ p
    for m in itertools.count():
        moved = a @ p
        a += moved
        p = p @ p
        later = trace @ p
        noise = 2 ** m * rounding
        if noise > i.tol.tau_num:
            return None  # too slow a drain for its rounding: iterate it
        if np.abs(p).max() <= noise or (2 ** m >= d * d and np.abs(moved).max() <= noise
                                        and np.abs(later - stay).max() <= noise):
            break
        stay = later
    choi = a.reshape(d, d, d, d).transpose(0, 2, 1, 3).reshape(d * d, d * d)
    kraus = tuple(_psd_factor(choi, noise).T.reshape(-1, d, d))
    return Channel(kraus, "general", *_placement(i, names, i.variables)[:2]), noise


# ---------------------------------------------------------------------------
# exact subspace transformers
# ---------------------------------------------------------------------------


class _Image(_Walk, terms._Image):
    """The forward image.  ``heads`` holds (loop, head subspace) for every
    loop it reaches, nested ones after the loop containing them."""

    def __init__(self, i: Interpretation):
        super().__init__(i)
        self.heads: list = []

    def loop(self, s: WhileProg, x: Subspace) -> Subspace:
        mark = len(self.heads)

        def grow(z):
            del self.heads[mark:]
            return lattice_join([z, self(s.body, self.leaf(_outcome(s, 1), z))], self.tol)

        # the fixpoint's last step walks the body from the returned head, so
        # the nested loops it collected are the ones reached from the head
        head = lattice_fixpoint(grow, x, "loop image", self.tol)
        self.heads.insert(mark, (s, head))
        return self.leaf(_outcome(s, 0), head)


class _Wlp(_Walk, terms._Wlp):
    """The weakest liberal precondition.  For a case or a loop step it is
    the R.IF / R.LP precondition, the join over outcomes m of the range
    [[meas M.m(q)]] met with wlp(what follows m), each part taken inside the
    range: a direct sum, as ``interp.build`` checks the ranges orthogonal."""

    def case(self, s: CaseProg, y: Subspace) -> Subspace:
        return _direct_sum([_meet_from(_range(self.i, s, o), self(branch, y), self.tol)
                            for o, branch in s.branches])

    def loop(self, s: WhileProg, y: Subspace) -> Subspace:
        ran1 = _range(self.i, s, 1)
        exit_part = _meet_from(_range(self.i, s, 0), y, self.tol)

        def shrink(z):
            return _direct_sum([exit_part, _meet_from(ran1, self(s.body, z), self.tol)])

        return lattice_fixpoint(shrink, Subspace.full(y.dim), "loop wlp", self.tol)


def prog_image(i: Interpretation, s: Program, x: Subspace) -> Subspace:
    """Exact forward image of a subspace under the program's semantics.

    A loop's head subspace is the least fixpoint of Z -> Z v image(body,
    image(M1, Z)) from x: everything reachable at the loop head."""
    return _Image(i)(s, _checked(i, s, x))


def prog_wlp(i: Interpretation, s: Program, y: Subspace) -> Subspace:
    """Exact weakest liberal precondition: the largest subspace of inputs
    from which the program, if it terminates, lands inside y."""
    return _Wlp(i)(s, _checked(i, s, y))


def _trap(i: Interpretation, loop: WhileProg) -> Subspace:
    """The loop's trap wlp(loop, 0): the inputs from which it, if it exits,
    lands in the zero space, so it terminates with probability 0.  Mass
    that never drains out of the loop has a Cesaro-mean limit σ ≠ 0 fixed
    by "guard 1, then body", and supp σ lies in the trap (compare Ying and
    Feng, Quantum loop programs, Acta Informatica 47, 2010).  Decided at
    ``i.tol.tau_sub``: a body that moves guard-1 mass out by less than about
    tau_sub per round reads as diverging."""
    return _Wlp(i)(loop, Subspace.zero(i.total_dim))


# ---------------------------------------------------------------------------
# decisions for the side conditions of the adaptation rules
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TerminationReport:
    status: str  # terminates | diverges-witness
    witness: np.ndarray | None = None
    loop: Program | None = None


def terminates_probe(i: Interpretation, s: Program) -> TerminationReport:
    """Decide termination from every input, in the trace-preservation sense.

    For each loop, meet the subspace reaching its head (collected by
    ``_Image``) with its trap (``_trap``, decided at ``tau_sub``).  The
    program terminates almost surely from every input iff every such meet
    is zero: loop mass that never drains reaches a head and lies in the
    trap.  Otherwise the first nonzero vector of a meet witnesses
    divergence.
    """
    prog_wf(i, s, allow_nonunitary=True)
    walk = _Image(i)
    walk(s, Subspace.full(i.total_dim))
    for loop, head in walk.heads:
        trap = lattice_meet([_trap(i, loop), head], i.tol)
        if trap.rank > 0:
            return TerminationReport("diverges-witness", trap.basis[:, 0], loop)
    return TerminationReport("terminates")


@dataclass(frozen=True)
class RepresentabilityReport:
    status: str  # represented | refuted
    checks: int
    counterexample: Subspace | None = None


def representable_probe(i: Interpretation, s: Program, witness: Term) -> RepresentabilityReport:
    """Decide whether running the program after the witness term's adjoint
    action restores every subspace of the program's variable space.

    That composite maps X to L·X, for L the span of its Kraus operators,
    so it restores every subspace iff L = ℂ·I.  On a d-dimensional space
    the 2d−1 rays e_k and e_k + e_{k+1} decide this: the first force every
    operator diagonal, the second make its diagonal constant.  A ray that
    is not restored is the counterexample.
    """
    svars = prog_wf(i, s, allow_nonunitary=True)
    wvars = term_wf(i, witness)
    if svars and not wvars <= svars:
        raise WellFormednessError(f"witness uses variables {sorted(wvars - svars)} outside var(S)")
    names = sorted(svars | wvars, key=i.var_index)
    if not names:
        return RepresentabilityReport("represented", 0)
    space = int(math.prod(i.var_dim(n) for n in names))
    eye = np.eye(space, dtype=np.complex128)
    rays = [eye[:, [k]] for k in range(space)]
    rays += [(eye[:, [k]] + eye[:, [k + 1]]) / math.sqrt(2) for k in range(space - 1)]
    for checks, ray in enumerate(rays, 1):
        local = Subspace(space, ray)
        x = embed_subspace(i, local, names)
        back = _Image(i)(s, _Observe(i)(witness, x))
        if not subspace_equal(back, x, i.tol):
            return RepresentabilityReport("refuted", checks, local)
    return RepresentabilityReport("represented", len(rays))
