"""Seeded workload generators with known answers.

Each generator writes interpretation, formula, program, triple, term and
proof files into a directory and returns one *round*: the list of queries
the closed loop repeats.  Every query carries the verdict bvn must give
(exit status) and, where the CLI prints one, the expected rank, basis,
trace, residual, diagonal or rejected proof step.  Expected values come
from the construction or from ``oracle``, never from bvn.

The seed changes which qubits, gates, predicates and input states a query
uses, not the shape of the round, so rounds of different seeds cost about
the same.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field

import numpy as np

import oracle as O
import render as R


@dataclass
class Query:
    kind: str  # subcommand, plus "+x" for check-proof --cross-check
    argv: list
    status: int  # expected exit status: 0 holds, 1 fails
    total_dim: int
    expect: dict = field(default_factory=dict)


@dataclass
class Round:
    queries: list
    files: int


class _Inputs:
    """Writes numbered input files and hands back their paths."""

    def __init__(self, root: str):
        self.root = root
        self.count = 0
        os.makedirs(root, exist_ok=True)

    def add(self, suffix: str, text: str) -> str:
        self.count += 1
        path = os.path.join(self.root, f"f{self.count:04d}{suffix}")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
        return path


# ---------------------------------------------------------------------------
# interpretations
# ---------------------------------------------------------------------------

_GATE_DECLS = [
    "unitary H (2) = [[1/sqrt(2), 1/sqrt(2)], [1/sqrt(2), -1/sqrt(2)]]",
    "unitary X (2) = [[0, 1], [1, 0]]",
    "unitary Y (2) = [[0, -i], [i, 0]]",
    "unitary Z (2) = [[1, 0], [0, -1]]",
    "unitary C (2,2) = [[1,0,0,0],[0,1,0,0],[0,0,0,1],[0,0,1,0]]",
]
_NOISE_DECLS = [
    "channel Ebf (2) = kraus { [[sqrt(3)/2, 0], [0, sqrt(3)/2]], [[0, 1/2], [1/2, 0]] }",
    "channel Epf (2) = kraus { [[sqrt(3)/2, 0], [0, sqrt(3)/2]], [[1/2, 0], [0, -1/2]] }",
]
_BASE_DECLS = [
    "measurement M (2) = { 0: [[1,0],[0,0]], 1: [[0,0],[0,1]] }",
    "predicate P0 (2) = span { |0> }",
    "predicate P1 (2) = span { |1> }",
    "allowed (2) = { H, X, Z }",
    "allowed (2,2) = { C }",
]

KET0 = np.array([[1.0], [0.0]], dtype=complex)
KET1 = np.array([[0.0], [1.0]], dtype=complex)


class _Interp:
    """An interpretation file plus the oracle view of its predicates."""

    def __init__(self, inputs: _Inputs, n: int, noise: bool, extra=()):
        self.n = n
        self.dim = 2**n
        self.preds = {"P0": KET0, "P1": KET1}  # symbol -> local basis
        lines = [f"var {R.var(k)} : 2" for k in range(n)] + _GATE_DECLS
        if noise:
            lines += _NOISE_DECLS
        lines += _BASE_DECLS
        for sym, sig, vectors in extra:
            self.preds[sym] = O.orth(np.array(vectors, dtype=complex).T)
            spans = ", ".join(R.vector_text(v) for v in vectors)
            lines.append(f"predicate {sym} ({','.join(['2'] * sig)}) = span {{ {spans} }}")
        self.path = inputs.add(".bvn", "\n".join(lines))

    def atom(self, sym, pos, term=None):
        return ("atom", sym, tuple(pos), term)

    def space(self, f) -> np.ndarray:
        return O.eval_formula(f, self.n, self.preds)


def _ket_column(bits) -> np.ndarray:
    return O.ket(bits).reshape(-1, 1)


def _run_expect(p, state: np.ndarray, n: int) -> dict:
    rho = O.prog_density(p, np.outer(state, state.conj()), n)
    trace = float(np.real(np.trace(rho)))
    return {"trace": trace, "residual": 1.0 - trace,
            "run_status": "exact", "diag": np.real(np.diag(rho))}


# ---------------------------------------------------------------------------
# wide-verify: 8 qubits, dim 256
# ---------------------------------------------------------------------------


def wide_verify(seed: int, root: str) -> Round:
    n = 8
    rng = np.random.default_rng(seed)
    inputs = _Inputs(root)
    perm = [int(k) for k in rng.permutation(n)]
    zeros, ones = [0] * n, [1] * n
    ghz_p = (O.ket(zeros) + O.ket(ones)).real.astype(int)
    ghz_m = (O.ket(zeros) - O.ket(ones)).real.astype(int)
    ip = _Interp(inputs, n, noise=False, extra=[
        ("Z0", n, [O.ket(zeros).real.astype(int)]),
        ("GHZp", n, [ghz_p]),
        ("GHZm", n, [ghz_m]),
    ])
    everyone = list(range(n))
    cnots = [("assign", ("g", "C", (a, b))) for a, b in zip(perm, perm[1:])]
    # A closing Z on one qubit flips the GHZ sign; I keeps it at equal cost.
    sign = int(rng.integers(2))
    phase = ("g", "Z" if sign else "I", (int(rng.choice(perm)),))
    ghz = [("assign", ("g", "H", (perm[0],)))] + cnots + [("assign", phase)]
    pa, pb, pc = perm[2], perm[3], perm[4]

    def tail(pk, pm):
        """Case on pk, then a guard loop on pm: both end in |0>."""
        return [("case", pk, ("skip",), ("assign", ("g", "X", (pk,)))), ("xloop", pm)]

    pk, pm = perm[1], perm[-1]
    ctrl = ("seq", cnots + tail(pk, pm))
    ghz_ctrl = ("seq", ghz + tail(pk, pm))
    queries = []

    def verify(pre, prog, post):
        image = O.prog_image(prog, ip.space(pre), n)
        valid = O.contains(ip.space(post), image)
        text = f"{{ {R.formula(pre)} }} {R.program(prog)} {{ {R.formula(post)} }}"
        path = inputs.add(".qht", text)
        queries.append(Query("verify", ["-i", ip.path, "verify", path],
                             0 if valid else 1, ip.dim))

    z0 = ip.atom("Z0", everyone)
    verify(z0, ("seq", ghz), ip.atom("GHZm" if sign else "GHZp", everyone))
    verify(z0, ("seq", ghz), ip.atom("GHZp" if sign else "GHZm", everyone))
    # Seven rank-128 triples that are one triple under seven relabellings
    # of the qubits cost the same; they sit in the middle of the round's
    # latency order, so the median latency is one of them and does not move
    # between query kinds of different cost from run to run.
    half = ip.atom("P0", [perm[0]])
    for k in range(7):
        p = perm if k == 0 else [int(q) for q in rng.permutation(n)]
        chain_k = [("assign", ("g", "C", (a, b))) for a, b in zip(p, p[1:])]
        verify(ip.atom("P0", [p[0]]), ("seq", chain_k + tail(p[1], p[-1])),
               ("and", ip.atom("P0", [p[1]]), ip.atom("P0", [p[-1]])))
    verify(half, ctrl, ("and", ip.atom("P0", [pk]), ip.atom("P1", [pm])))

    image = O.prog_image(ctrl, ip.space(half), n)
    queries.append(Query(
        "image",
        ["-i", ip.path, "image", "--formula", inputs.add(".qlf", R.formula(half)),
         "--program", inputs.add(".qwp", R.program(ctrl))],
        0, ip.dim, {"rank": image.shape[1], "basis": image}))
    target = ip.atom("P0", [pk])
    chain = ("seq", cnots)
    pre = O.prog_wlp(chain, ip.space(target), n)
    queries.append(Query(
        "wlp",
        ["-i", ip.path, "wlp", "--formula", inputs.add(".qlf", R.formula(target)),
         "--program", inputs.add(".qwp", R.program(chain))],
        0, ip.dim, {"rank": pre.shape[1], "basis": pre}))
    # The generators {H, X, Z} on one qubit and C on two leave no proper
    # subspace of a quantified qubit fixed, so the closure keeps P0 on an
    # unquantified qubit whole and empties P0 on a quantified one.
    for sub, rank in ((pc, ip.dim // 2), (pa, 0)):
        queries.append(Query(
            "forall",
            ["-i", ip.path, "forall", "--vars", R.varlist([pa, pb]),
             "--formula", inputs.add(".qlf", R.formula(ip.atom("P0", [sub])))],
            0, ip.dim, {"closure_rank": rank}))
    bits = [int(b) for b in rng.integers(0, 2, n)]
    queries.append(Query(
        "run",
        ["-i", ip.path, "run", "--program", inputs.add(".qwp", R.program(ghz_ctrl)),
         "--state", R.ket_text(bits)],
        0, ip.dim, _run_expect(ghz_ctrl, O.ket(bits), n)))
    return Round(queries, inputs.count)


# ---------------------------------------------------------------------------
# small-proofs: 2-3 qubits, hundreds of millisecond queries
# ---------------------------------------------------------------------------

# The three proof fixtures of the repository, over an interpretation with
# q1, q2, H, X, P0 and PX.
FIXTURE_PROOFS = [
    """\
step s1 by Ax.UT with formula = PX(q1); term = H(q1); vars = q1
  shows triple { adj<H(q1)>(PX(q1)) } q1 := H(q1) { PX(q1) }
step s2 by Ax.UT with formula = adj<H(q1)>(PX(q1)); term = H(q1); vars = q1
  shows triple { adj<H(q1)>(adj<H(q1)>(PX(q1))) } q1 := H(q1) { adj<H(q1)>(PX(q1)) }
step s3 from s2, s1 by R.SC
  shows triple { adj<H(q1)>(adj<H(q1)>(PX(q1))) } q1 := H(q1); q1 := H(q1) { PX(q1) }""",
    """\
step e1 by QT.Refl with term = X(q1)
  shows equation X(q1) = X(q1)
step e2 from e1 by QT1a with term = H(q1)
  shows equation H(q1) X(q1) = H(q1) X(q1)
step e3 by QT6 with term = H(q1) X(q1)
  shows equation H(q1) X(q1) (X^-1(q1) H^-1(q1)) = I(q1)
step g1 from e2 by QQL3 with formula = PX(q1)
  shows sequent adj<H(q1) X(q1)>(PX(q1)) |- adj<H(q1) X(q1)>(PX(q1))
step g2 by QQL14 with qvars = q1; formula = PX(q1); term = X(q1)
  shows sequent forall q1 . PX(q1) |- adj<X(q1)>(PX(q1))
step g3 by QL1 with formula = P0(q1); sigma = { PX(q1) }
  shows sequent P0(q1), PX(q1) |- P0(q1)
step g4 by QL1 with formula = PX(q1); sigma = { P0(q1) }
  shows sequent P0(q1), PX(q1) |- PX(q1)
step g5 from g3, g4 by QL4
  shows sequent P0(q1), PX(q1) |- P0(q1) /\\ PX(q1)""",
    """\
step t1 by Ax.Sk with formula = PX(H(q1) H(q1))
  shows triple { PX(H(q1) H(q1)) } skip { PX(H(q1) H(q1)) }
step s1 by QL1 with formula = PX(H(q1) H(q1))
  shows sequent PX(H(q1) H(q1)) |- PX(H(q1) H(q1))
step s2 by QQL2 with semantic = true; t1 = H(q1) H(q1); t2 = I(q1); pred = PX
  shows sequent PX(H(q1) H(q1)) |- PX(I(q1))
step t2 from s1, t1, s2 by R.Con
  shows triple { PX(H(q1) H(q1)) } skip { PX(I(q1)) }""",
]

_UNITARY = ("H", "X", "Y", "Z")
_NOISE = ("Ebf", "Epf")


def _gate(rng, n: int, names=_UNITARY):
    """A one-qubit gate drawn from ``names``, or a CNOT on a random ordered
    pair when ``names`` is "C"."""
    if names == "C":
        a, b = (int(k) for k in rng.choice(n, 2, replace=False))
        return ("g", "C", (a, b))
    return ("g", str(rng.choice(names)), (int(rng.integers(n)),))


def _term_vars(t) -> set:
    if t[0] == "g":
        return set(t[2])
    return _term_vars(t[1]) | _term_vars(t[2])


class _ProofWriter:
    """Accumulates the steps of one proof script."""

    def __init__(self):
        self.lines = []

    def step(self, sid, rule, shows, premises=(), params=""):
        head = f"step {sid}"
        if premises:
            head += " from " + ", ".join(premises)
        head += f" by {rule}"
        if params:
            head += f" with {params}"
        self.lines.append(f"{head}\n  shows {shows}")

    def text(self) -> str:
        return "\n".join(self.lines)


def _triple(ip, pre, prog, post) -> str:
    return f"triple {{ {R.formula(pre)} }} {prog} {{ {R.formula(post)} }}"


def _atom_on(ip, rng, n, syms=("P0", "P1", "PX")):
    return ip.atom(str(rng.choice(syms)), [int(rng.integers(n))])


def _chain_proof(ip, rng, n, broken: bool, mode: int):
    """Ax.UT steps composed left to right by R.SC; the twin states a wrong
    postcondition (mode 0), uses a noisy assignment term (mode 1), or swaps
    the premises of the last R.SC (mode 2)."""
    terms = [_gate(rng, n), _gate(rng, n, "C"), _gate(rng, n)]
    post = _atom_on(ip, rng, n)
    pw = _ProofWriter()
    fs = [post]
    for t in reversed(terms):
        fs.insert(0, ("adj", t, fs[0]))
    progs = [f"{R.varlist(sorted(_term_vars(t)))} := {R.term(t)}" for t in terms]
    mode = mode if broken else -1
    bad = None
    for k, t in enumerate(terms):
        sid = f"u{k + 1}"
        term_text = R.term(t)
        if mode == 1 and k == 0:
            t_noisy = ("g", "Ebf", (sorted(_term_vars(t))[0],))
            term_text, bad = R.term(t_noisy), sid
            progs_k = f"{R.varlist(sorted(_term_vars(t)))} := {term_text}"
            shows = _triple(ip, ("adj", t_noisy, fs[k + 1]), progs_k, fs[k + 1])
        else:
            shows = _triple(ip, fs[k], progs[k], fs[k + 1])
        pw.step(sid, "Ax.UT", shows, params=f"formula = {R.formula(fs[k + 1])}; "
                f"term = {term_text}; vars = {R.varlist(sorted(_term_vars(t)))}")
    prev = "u1"
    for k in range(1, len(terms)):
        sid = f"c{k}"
        last = k == len(terms) - 1
        end = fs[k + 1]
        if last and mode == 0:
            end, bad = ip.atom("P0" if post[1] == "P1" else "P1", post[2]), sid
        premises = (prev, f"u{k + 1}")
        if last and mode == 2:
            premises, bad = premises[::-1], sid
        pw.step(sid, "R.SC", _triple(ip, fs[0], "; ".join(progs[: k + 1]), end), premises)
        prev = sid
    return pw.text(), bad


def _if_proof(ip, rng, n, broken: bool, mode: int):
    q = int(rng.integers(n))
    g = ("g", str(rng.choice(_UNITARY)), (q,))
    post = _atom_on(ip, rng, n)
    pw = _ProofWriter()
    pw.step("p0", "Ax.Sk", _triple(ip, post, "skip", post),
            params=f"formula = {R.formula(post)}")
    body = f"{R.var(q)} := {R.term(g)}"
    pw.step("p1", "Ax.UT", _triple(ip, ("adj", g, post), body, post),
            params=f"formula = {R.formula(post)}; term = {R.term(g)}; vars = {R.var(q)}")
    pre = ("or", ("and", ("meas", 0, q), post), ("and", ("meas", 1, q), ("adj", g, post)))
    prog = f"if M[{R.var(q)}] {{ 0 -> skip | 1 -> {body} }} fi"
    premises = ("p1", "p0") if broken else ("p0", "p1")
    pw.step("r", "R.IF", _triple(ip, pre, prog, post), premises,
            params=f"meas = M; vars = {R.var(q)}")
    return pw.text(), "r" if broken else None


def _loop_premise(ip, pw, guard: int, body_var: int, gamma_sym: str = "P0"):
    """Steps u1, c1, l1 proving { inv } while M[guard] = 1 do body od { P0 }
    with body  body_var := X(body_var)  and inv = (M0 /\\ P0) \\/ (M1 /\\ P1)."""
    inv = ("or", ("and", ("meas", 0, guard), ip.atom("P0", [guard])),
           ("and", ("meas", 1, guard), ip.atom("P1", [guard])))
    x = ("g", "X", (body_var,))
    body = f"{R.var(body_var)} := {R.term(x)}"
    pw.step("u1", "Ax.UT", _triple(ip, ("adj", x, inv), body, inv),
            params=f"formula = {R.formula(inv)}; term = {R.term(x)}; vars = {R.var(body_var)}")
    beta = ip.atom("P1", [guard])
    pw.step("c1", "R.Con", _triple(ip, beta, body, inv), ("u1",),
            params=f"pre = {R.formula(beta)}; post = {R.formula(inv)}")
    loop = f"while M[{R.var(guard)}] = 1 do {body} od"
    gamma = ip.atom(gamma_sym, [guard])
    pw.step("l1", "R.LP", _triple(ip, inv, loop, gamma), ("c1",),
            params=f"meas = M; vars = {R.var(guard)}")
    return inv, loop


def _lp_proof(ip, rng, n, broken: bool, mode: int):
    q = int(rng.integers(n))
    pw = _ProofWriter()
    _loop_premise(ip, pw, q, q, "P1" if broken else "P0")
    return pw.text(), "l1" if broken else None


def _conj_proof(ip, rng, n, broken: bool, mode: int):
    t = _gate(rng, n)
    qs = R.varlist(sorted(_term_vars(t)))
    prog = f"{qs} := {R.term(t)}"
    f1, f2 = _atom_on(ip, rng, n, ("P0", "PX")), _atom_on(ip, rng, n, ("P1",))
    pw = _ProofWriter()
    for sid, f in (("a", f1), ("b", f2)):
        pw.step(sid, "Ax.UT", _triple(ip, ("adj", t, f), prog, f),
                params=f"formula = {R.formula(f)}; term = {R.term(t)}; vars = {qs}")
    pre = ("and", ("adj", t, f1), ("adj", t, f2))
    if broken:
        pre = ("and", pre[2], pre[1])
    pw.step("c", "Conjunction", _triple(ip, pre, prog, ("and", f1, f2)), ("a", "b"))
    return pw.text(), "c" if broken else None


def _invariance_proof(ip, rng, n, broken: bool, mode: int):
    qa, qb = (int(k) for k in rng.choice(n, 2, replace=False))
    g = ("g", str(rng.choice(_UNITARY)), (qa,))
    post = ip.atom(str(rng.choice(("P0", "PX"))), [qa])
    delta = ip.atom(str(rng.choice(("P0", "P1"))), [qa if broken else qb])
    prog = f"{R.var(qa)} := {R.term(g)}"
    pw = _ProofWriter()
    pw.step("a", "Ax.UT", _triple(ip, ("adj", g, post), prog, post),
            params=f"formula = {R.formula(post)}; term = {R.term(g)}; vars = {R.var(qa)}")
    pw.step("b", "Invariance",
            _triple(ip, ("and", ("adj", g, post), delta), prog, ("and", post, delta)),
            ("a",), params=f"delta = {R.formula(delta)}")
    return pw.text(), "b" if broken else None


# Each template returns (script, id of the step its broken twin fails at, or
# None).  ``mode`` picks one of three ways to break a chain proof; the other
# templates break one way and ignore it.
_PROOF_TEMPLATES = (_chain_proof, _if_proof, _lp_proof, _conj_proof, _invariance_proof)


def _draw(make, want: bool, attempts: int = 2000):
    """Draw instances of one shape until one has the wanted verdict."""
    for _ in range(attempts):
        verdict, item = make()
        if verdict == want:
            return item
    raise RuntimeError("generator found no instance with the wanted verdict")


def _alternating(shapes, per_shape: int):
    """(shape, wanted verdict) pairs: each shape half true, half false."""
    return [(shape, k % 2 == 0) for shape in shapes for k in range(per_shape)]


def _equal_pair(rng, n, pick: int):
    """A pair of noisy terms whose channels agree by a known identity."""
    qa, qb = (int(k) for k in rng.choice(n, 2, replace=False))
    a = _gate(rng, n, _NOISE)
    b = ("g", str(rng.choice(_UNITARY)), (qb if a[2][0] == qa else qa,))
    if pick == 0:  # gates on disjoint qubits commute
        return ("seq", a, b), ("seq", b, a)
    if pick == 1:  # a tensor is the sequence of its factors
        return ("tensor", a, b), ("seq", a, b)
    if pick == 2:  # Pauli noise commutes with the Pauli it is made of
        sym = str(rng.choice(_NOISE))
        pauli = "X" if sym == "Ebf" else "Z"
        return ("seq", ("g", pauli, (qa,)), ("g", sym, (qa,))), \
            ("seq", ("g", sym, (qa,)), ("g", pauli, (qa,)))
    # H turns bit-flip noise into phase-flip noise
    h = ("g", "H", (qa,))
    return ("seq", ("seq", h, ("g", "Ebf", (qa,))), h), ("g", "Epf", (qa,))


def small_proofs(seed: int, root: str) -> Round:
    rng = np.random.default_rng(seed)
    inputs = _Inputs(root)
    px = [int(v) for v in rng.integers(1, 6, 2)]
    ex1 = _Interp(inputs, 2, noise=False, extra=[("PX", 1, [px])])
    ip = _Interp(inputs, 3, noise=True, extra=[("PX", 1, [px])])
    n = ip.n
    queries = []

    def proof(i, text, bad):
        path = inputs.add(".qpf", text)
        expect = {"proof": f"proof rejected at step {bad}" if bad else "proof accepted"}
        for flags, kind in (([], "check-proof"), (["--cross-check"], "check-proof+x")):
            queries.append(Query(kind, ["-i", i.path, "check-proof", path] + flags,
                                 1 if bad else 0, i.dim, dict(expect)))

    for text in FIXTURE_PROOFS:
        proof(ex1, text, None)
    for template in _PROOF_TEMPLATES:
        for mode in range(3):
            for broken in (False, True):
                text, bad = template(ip, rng, n, broken, mode)
                proof(ip, text, bad)

    # Leaves of every shape below are drawn from sets of equal cost: a
    # one-qubit predicate, a unitary gate, a noise channel.
    def atom():
        return _atom_on(ip, rng, n)

    def atom_u():
        g = _gate(rng, n)
        return ip.atom(str(rng.choice(("P0", "P1", "PX"))), g[2], g)

    def atom_e():
        g = _gate(rng, n, _NOISE)
        return ip.atom(str(rng.choice(("P0", "P1", "PX"))), g[2], g)

    def term_case(pick):
        def make():
            if pick < 4:
                t1, t2 = _equal_pair(rng, n, pick)
            else:
                t1 = ("seq", _gate(rng, n, _NOISE), _gate(rng, n))
                t2 = ("seq", _gate(rng, n), _gate(rng, n, _NOISE))
            return O.channels_equal(O.term_kraus(t1, n), O.term_kraus(t2, n)), (t1, t2)
        return make

    for pick in (0, 1, 2, 3, 0, 1, 2, 3, 4, 4, 4, 4, 4, 4, 4, 4):
        t1, t2 = _draw(term_case(pick), pick < 4)
        queries.append(Query(
            "term-eq", ["-i", ip.path, "term-eq", inputs.add(".qt", R.term(t1)),
                        inputs.add(".qt", R.term(t2))], 0 if pick < 4 else 1, ip.dim))

    sat_shapes = (
        lambda: atom_e(),
        lambda: ("and", atom(), ("not", atom_u())),
        lambda: ("or", atom_u(), atom()),
        lambda: ("adj", _gate(rng, n, _NOISE), ("and", atom(), atom())),
    )
    for shape, want in _alternating(sat_shapes, 4):
        def sat_case():
            f = shape()
            bits = [int(b) for b in rng.integers(0, 2, n)]
            return O.contains(ip.space(f), _ket_column(bits)), (f, bits)
        f, bits = _draw(sat_case, want)
        queries.append(Query(
            "sat", ["-i", ip.path, "sat", "--state", R.ket_text(bits),
                    "--formula", inputs.add(".qlf", R.formula(f))], 0 if want else 1, ip.dim))

    entail_shapes = (
        lambda: (atom(), ("or", atom(), atom())),
        lambda: (("and", atom(), atom_u()), atom()),
        lambda: (("adj", _gate(rng, n), atom()), atom_u()),
        lambda: (("not", atom()), ("or", atom_e(), atom())),
    )
    for shape, want in _alternating(entail_shapes, 4):
        def entail_case():
            f, g = shape()
            return O.contains(ip.space(g), ip.space(f)), (f, g)
        f, g = _draw(entail_case, want)
        queries.append(Query(
            "entail", ["-i", ip.path, "entail", inputs.add(".qlf", R.formula(f)),
                       inputs.add(".qlf", R.formula(g))], 0 if want else 1, ip.dim))

    def case(q):
        return ("case", q, ("skip",), ("assign", ("g", "X", (q,))))

    verify_shapes = (
        lambda: (atom(), [("assign", _gate(rng, n)), ("assign", _gate(rng, n, "C"))], atom_u()),
        lambda: (("and", atom(), atom()),
                 [("assign", _gate(rng, n)), ("assign", _gate(rng, n)),
                  case(int(rng.integers(n)))], atom()),
        lambda: (atom(), [("assign", _gate(rng, n, "C")), ("xloop", int(rng.integers(n)))],
                 ("or", atom(), atom())),
        lambda: (atom_u(), [("assign", _gate(rng, n)), ("assign", _gate(rng, n, "C")),
                            ("assign", _gate(rng, n))], atom()),
    )
    for shape, want in _alternating(verify_shapes, 4):
        def verify_case():
            pre, steps, post = shape()
            prog = ("seq", steps)
            held = O.contains(ip.space(post), O.prog_image(prog, ip.space(pre), n))
            return held, (pre, prog, post)
        pre, prog, post = _draw(verify_case, want)
        text = f"{{ {R.formula(pre)} }} {R.program(prog)} {{ {R.formula(post)} }}"
        queries.append(Query("verify", ["-i", ip.path, "verify", inputs.add(".qht", text)],
                             0 if want else 1, ip.dim))
    return Round(queries, inputs.count)


# ---------------------------------------------------------------------------
# loop-sim: branching and diverging loops on 2, 4 and 6 qubits
# ---------------------------------------------------------------------------

# Step caps per register size, chosen so one capped run takes about as
# long (0.1 s on the reference core) at every size.  The twelve capped
# queries then form the upper half of the round's latency order and the
# median latency is one of them.
_LOOP_CAPS = {2: 800, 4: 700, 6: 300}
_TERMINATING_CAP = 5000


def loop_sim(seed: int, root: str) -> Round:
    rng = np.random.default_rng(seed)
    inputs = _Inputs(root)
    queries = []
    for n, cap in _LOOP_CAPS.items():
        ip = _Interp(inputs, n, noise=False)
        qa, qb = (int(k) for k in rng.choice(n, 2, replace=False))
        bits = [int(b) for b in rng.integers(0, 2, n)]
        bits[qa] = 1
        start = O.ket(bits)
        low = list(bits)
        low[qa] = 0
        ga, gb = R.var(qa), R.var(qb)

        def run(prog_text, state_text, cap, expect):
            queries.append(Query(
                "run", ["-i", ip.path, "--max-steps", str(cap), "run",
                        "--program", inputs.add(".qwp", prog_text), "--state", state_text],
                0, ip.dim, expect))

        xloop = ("xloop", qa)
        run(R.program(xloop), R.ket_text(bits), _TERMINATING_CAP,
            _run_expect(xloop, start, n))
        # H on the guard exits half the remaining mass per iteration while
        # qb flips each time: qb ends flipped an odd number of times with
        # probability 2/3.  The simulator abandons the branch once its trace
        # falls to 1e-12, about 40 iterations deep, far below the tolerance.
        diag = np.zeros(ip.dim)
        flipped = list(low)
        flipped[qb] ^= 1
        diag[int("".join(map(str, low)), 2)] = 1 / 3
        diag[int("".join(map(str, flipped)), 2)] = 2 / 3
        run(f"while M[{ga}] = 1 do {ga} := H({ga}); {gb} := X({gb}) od", R.ket_text(bits),
            _TERMINATING_CAP, {"trace": 1.0, "residual": 0.0, "run_status": "exact",
                               "diag": diag})
        # Guard mass never leaves |1>: the capped run loses all of it.
        for gate in ("X", "H"):
            run(f"while M[{ga}] = 1 do {gb} := {gate}({gb}) od", R.ket_text(bits), cap,
                {"trace": 0.0, "residual": 1.0, "run_status": "truncated",
                 "diag": np.zeros(ip.dim)})
        # Half the mass exits at once, half diverges.
        half = np.zeros(ip.dim)
        half[int("".join(map(str, low)), 2)] = 0.5
        run(f"while M[{ga}] = 1 do {gb} := X({gb}) od",
            f"({R.ket_text(low)} + {R.ket_text(bits)})/sqrt(2)", cap,
            {"trace": 0.5, "residual": 0.5, "run_status": "truncated", "diag": half})
        # Exists-Intro needs a termination probe: the X loop terminates,
        # the loop flipping another qubit diverges from guard outcome 1.
        for body_var, bad in ((qa, None), (qb, "e1")):
            pw = _ProofWriter()
            inv, loop = _loop_premise(ip, pw, qa, body_var)
            ex = f"exists {gb} . {R.formula(inv)}"
            pw.step("e1", "Exists-Intro",
                    f"triple {{ {ex} }} {loop} {{ {R.formula(ip.atom('P0', [qa]))} }}",
                    ("l1",), params=f"qvars = {gb}; max_steps = {cap}")
            expect = {"proof": f"proof rejected at step {bad}" if bad else "proof accepted"}
            queries.append(Query(
                "check-proof", ["-i", ip.path, "check-proof", inputs.add(".qpf", pw.text())],
                1 if bad else 0, ip.dim, expect))
    return Round(queries, inputs.count)


WORKLOADS = {
    "wide-verify": wide_verify,
    "small-proofs": small_proofs,
    "loop-sim": loop_sim,
}

# Calibration kernel parts (see ``speed``) per workload: the kinds of work
# its queries spend their time on, so that a slow spell on the host slows
# the kernel as much as the queries.
SPEED_PARTS = {
    "wide-verify": ("svd256",),
    "small-proofs": ("python", "small_numpy"),
    "loop-sim": ("python", "small_numpy", "svd48"),
}
