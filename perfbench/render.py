"""Surface syntax for the oracle's term, formula and program tuples.

The generators build every input as an oracle tuple (see ``oracle``) and
render it here, so the text bvn parses and the structure the oracle
evaluates are one object.  Qubit position ``k`` is the variable
``q{k+1}``.
"""

from __future__ import annotations


def var(k: int) -> str:
    return f"q{k + 1}"


def varlist(pos) -> str:
    return ",".join(var(k) for k in pos)


def term(t) -> str:
    kind = t[0]
    if kind == "g":
        return f"{t[1]}({varlist(t[2])})"
    if kind == "seq":
        return f"{_operand(t[1])} {_operand(t[2])}"
    if kind == "tensor":
        return f"({term(t[1])} @ {term(t[2])})"
    raise ValueError(f"not a term: {t!r}")


def _operand(t) -> str:
    return f"({term(t)})" if t[0] == "seq" else term(t)


def formula(f) -> str:
    kind = f[0]
    if kind == "atom":
        return f"{f[1]}({varlist(f[2]) if f[3] is None else term(f[3])})"
    if kind == "meas":
        return f"meas M.{f[1]}({var(f[2])})"
    if kind == "not":
        return f"~({formula(f[1])})"
    if kind == "and":
        return f"({formula(f[1])} /\\ {formula(f[2])})"
    if kind == "or":
        return f"({formula(f[1])} \\/ {formula(f[2])})"
    if kind == "adj":
        return f"adj<{term(f[1])}>({formula(f[2])})"
    raise ValueError(f"not a formula: {f!r}")


def program(p) -> str:
    kind = p[0]
    if kind == "assign":
        t = p[1]
        return f"{varlist(_assigned(t))} := {term(t)}"
    if kind == "seq":
        return "; ".join(program(sub) for sub in p[1])
    if kind == "case":
        q = var(p[1])
        return f"if M[{q}] {{ 0 -> {program(p[2])} | 1 -> {program(p[3])} }} fi"
    if kind == "xloop":
        q = var(p[1])
        return f"while M[{q}] = 1 do {q} := X({q}) od"
    if kind == "skip":
        return "skip"
    raise ValueError(f"not a program: {p!r}")


def _assigned(t) -> list:
    if t[0] == "g":
        return list(t[2])
    out = []
    for sub in t[1:3]:
        out += [k for k in _assigned(sub) if k not in out]
    return sorted(out)


def ket_text(bits) -> str:
    return "|" + "".join(str(b) for b in bits) + ">"


def vector_text(v) -> str:
    """Bracket literal of a real vector (integer entries stay exact)."""
    return "[" + ", ".join(str(x) for x in v) + "]"
