"""Command-line front end.

Every invocation loads an interpretation file, prints a header with the
active tolerances and the tensor layout, runs one query, and exits with
0 (holds / equal / verified), 1 (fails / refuted) or 2 (any error).  With
--json FILE a machine-readable report is written as well.

``main`` can be called repeatedly in one process.  It builds its argparse
tree once, on the first call, and every call parses its own arguments
into a fresh namespace, so no option carries over from an earlier call.
It also keeps the last few interpretations it parsed and validated, each
under its file's text and the call's tolerances, so repeated queries on
one file parse it once.  The queries on a kept interpretation share its
embedded channels, one per distinct basic term they use (66 in 11.2 KiB on
perfbench's 8-qubit file), and each starts with no evaluated formulas.
In the same way it keeps the last 256 query sources it parsed (terms,
formulas, programs, triples, proof scripts), each under its kind and text,
as frozen syntax with nothing computed against an interpretation, so a
source is lexed and parsed once however many queries, interpretations or
tolerances read it.  One round of perfbench's workloads reads 17
(wide-verify, loop-sim) or 119 (small-proofs, about 0.45 MiB under
tracemalloc) distinct sources.  A one-shot process parses everything once
anyway and gains nothing from either memo.

Bases, witnesses and diagonals print six decimals a part, byte for byte as
"%+.6f" (complex) or "%.6f" (real) would; ``_numbers`` cuts the text as
bytes from whole arrays, 2-5 ms for a 256 x 128 basis (5x quicker than "%").
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
import time

import numpy as np

from .config import Tolerances
from .errors import BvnError
from .formulas import (
    entails,
    eval_subspace,
    forall_closure,
    sat_probability,
    satisfies,
)
from .hoare import check_proof, triple_verdicts
from .interp import Interpretation
from .linalg import StateDensity, Subspace
from .parser import parse, parse_interp, parse_state_vector
from .programs import prog_image, prog_wlp, run as run_program
from .terms import term_equiv, term_forward_image, term_wlp as term_wlp_op


def _read(path: str) -> str:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise BvnError(f"cannot read {path}: {getattr(exc, 'strerror', None) or exc}") from None


def _write(path: str, text: str):
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise BvnError(f"cannot write {path}: {exc.strerror or exc}") from None


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="bvn",
        description="assertion checking and proof checking for quantum while-programs",
    )
    ap.add_argument("-i", "--interp", required=True, help="interpretation file (.bvn)")
    ap.add_argument("--json", metavar="FILE", help="write a JSON report")
    ap.add_argument("--tol", type=float, help="override the general numeric tolerance")
    ap.add_argument("--tol-rank", type=float, help="override the rank cutoff")
    ap.add_argument("--tol-sub", type=float, help="override the inclusion tolerance")
    ap.add_argument("--max-steps", type=int, default=100_000,
                    help="loop-iteration cap for runs, shared by the iterated loops "
                         "(solved loops take none)")
    ap.add_argument("--eps", type=float, default=1e-12,
                    help="loop-mass threshold for runs, of the iterated loops")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("sem", help="print a formula's subspace basis and rank")
    p.add_argument("--formula", required=True, help="formula file or inline text")

    p = sub.add_parser("sat", help="does a state satisfy a formula")
    p.add_argument("--state", required=True, help="state vector, e.g. \"|00>\"")
    p.add_argument("--formula", required=True)

    p = sub.add_parser("prob", help="Born probability of a formula in a state")
    p.add_argument("--state", required=True)
    p.add_argument("--formula", required=True)

    p = sub.add_parser("entail", help="semantic entailment between two formulas")
    p.add_argument("lhs")
    p.add_argument("rhs")

    p = sub.add_parser("term-eq", help="channel equality of two terms")
    p.add_argument("t1")
    p.add_argument("t2")

    p = sub.add_parser("image", help="forward image of a formula's subspace")
    p.add_argument("--formula", required=True)
    p.add_argument("--program", help="program file or inline text")
    p.add_argument("--term", help="term file or inline text")

    p = sub.add_parser("wlp", help="weakest liberal precondition of a formula")
    p.add_argument("--formula", required=True)
    p.add_argument("--program")
    p.add_argument("--term")

    p = sub.add_parser("run", help="execute a program on a state")
    p.add_argument("--program", required=True)
    p.add_argument("--state", required=True)

    p = sub.add_parser("verify", help="check a Hoare triple")
    p.add_argument("triple", help="triple file or inline text")

    p = sub.add_parser("check-proof", help="check a proof script")
    p.add_argument("proof")
    p.add_argument("--cross-check", action="store_true",
                   help="also test every proven judgment semantically")

    p = sub.add_parser("forall", help="trace the quantifier fixpoint on a formula")
    p.add_argument("--vars", required=True, help="comma-separated quantified variables")
    p.add_argument("--formula", required=True)
    return ap


# Interpretations that ``_parsed_interp`` keeps: a caller asks many questions
# against a few fixed interpretations.
_INTERPRETATIONS_KEPT = 8


@functools.lru_cache(maxsize=_INTERPRETATIONS_KEPT)
def _parsed_interp(text: str, tol: Tolerances) -> Interpretation:
    """The interpretation ``text`` declares, validated at ``tol``, parsed once
    while it is among the last few used.  A parse error is not kept, so it
    is raised again on every call.  Its channel memo is kept across queries,
    its formula memo is not: formula subspaces would pile up on a wide space."""
    return parse_interp(text, tol=tol)


# Query sources that ``_parsed_source`` keeps: one round of each perfbench
# workload reads 17 (wide-verify, loop-sim) or 119 (small-proofs) distinct ones.
_SOURCES_KEPT = 256


@functools.lru_cache(maxsize=_SOURCES_KEPT)
def _parsed_source(kind: str, text: str):
    """``text`` parsed as a ``kind`` source, once while it is among the last
    few used.  The kind is part of the key, since one text can read as two
    kinds ("P0(q1)" is an atom and a basic term).  What is kept is frozen
    syntax alone, checked and evaluated afresh by each query, and a parse
    error is not kept.  ``parse`` is looked up on each call, so a wrapper
    put in its place sees every miss."""
    return parse(kind, text)


def _source(kind: str, arg: str):
    """The parsed ``kind`` source in the file the argument names, if it names
    a readable file, else in the argument itself as inline text."""
    try:
        text = _read(arg)
    except BvnError:
        text = arg
    return _parsed_source(kind, text)


# "%03d" % m as the low three bytes of a little-endian integer (b"0." is 0x2E30)
_DIGITS = np.array([int.from_bytes(b"%03d" % m, "little") for m in range(1000)], np.int64)


def _numbers(x: np.ndarray) -> list[str]:
    """Each row of x as text: complex entries "%+.6f%+.6fi" joined by ", ", real ones "%.6f"
    by " ".  For |v| < 9.5, n = rint(|v| 10^6) is "%"'s rounding unless the product (within
    2^-30 of |v| 10^6) is within 1e-6 of a tie.  Those parts, arrays with a part of 9.5 or more
    or a negative real, and arrays of under 128 floats ("%" is quicker below ~110) take "%"."""
    signed = np.iscomplexobj(x)
    v = np.ascontiguousarray(x).view(np.float64)  # a complex row is re0, im0, re1, ...
    step, cell, tail, sep = (2, "%+.6f%+.6fi", "i", ", ") if signed else (1, "%.6f", "", " ")
    if v.size < 128 or not ((np.abs(v) < 9.5).all() and (signed or not np.signbit(v).any())):
        return [sep.join(cell % z for z in zip(*[iter(r)] * step)) for r in v.tolist()]
    n = np.rint(p := np.abs(v) * 1e6).astype(np.int64)
    q, i = n // 1000, n // 1_000_000
    cells = np.empty(v.shape, [("sign", "u1"), ("body", "<i8")])  # "+" or "-", then "D.DDDDDD"
    cells["sign"] = 43 + 2 * np.signbit(v)
    cells["body"] = i + 0x2E30 | _DIGITS.take(q - 1000 * i) << 16 | _DIGITS.take(n - 1000 * q) << 40
    for j in np.flatnonzero(np.abs(np.abs(p - n) - 0.5) < 1e-6):
        cells.flat[j] = np.frombuffer(b"%+.6f" % v.flat[j], cells.dtype)[0]
    (r, d), w = x.shape, 18 if signed else 8  # a real cell drops its sign byte
    out = np.empty((r, d, w + len(tail + sep)), np.uint8)
    out[..., :w] = cells.view(np.uint8).reshape(r, d, 9 * step)[..., 9 * step - w:]
    out[..., w:] = np.frombuffer((tail + sep).encode(), np.uint8)
    return [row.tobytes()[:-len(sep)].decode() for row in out.reshape(r, d * out.shape[2])]


def _print_subspace(x: Subspace, report: bool = True) -> list | None:
    """Print the rank and each column of the global basis; with ``report``,
    return the columns as lists of [real, imag] pairs for the JSON report."""
    cols = np.ascontiguousarray(x.basis.T)
    print("\n".join([f"rank {x.rank} of {x.dim}"]
                    + [f"  b{k}: [{row}]" for k, row in enumerate(_numbers(cols))]))
    return cols.view(np.float64).reshape(*cols.shape, 2).tolist() if report else None


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    t0 = time.monotonic()
    report = {"command": args.command, "inputs": {}, "result": None, "witnesses": []}
    try:
        tol_kwargs = {}
        if args.tol is not None:
            tol_kwargs["tau_num"] = args.tol
        if args.tol_rank is not None:
            tol_kwargs["tau_rank"] = args.tol_rank
        if args.tol_sub is not None:
            tol_kwargs["tau_sub"] = args.tol_sub
        tol = Tolerances(**tol_kwargs)
        i = _parsed_interp(_read(args.interp), tol)
        report["tolerances"] = tol.as_dict()
        report["inputs"] = {
            k: v for k, v in vars(args).items()
            if k not in ("command", "json") and v is not None
        }
        layout = ", ".join(f"{n}:{d}" for n, d in i.variables.items())
        print(f"# tolerances: tau_num={tol.tau_num} tau_rank={tol.tau_rank} "
              f"tau_sub={tol.tau_sub}")
        print(f"# layout: [{layout}] total dim {i.total_dim}")
        try:
            status = _dispatch(args, i, report)
        finally:
            i.evaluated.clear()
        sys.stdout.flush()
    except Exception as exc:  # exit 1 is a verdict, so every failure exits 2
        if isinstance(exc, BrokenPipeError):  # stdout closed: what is left goes to the null device
            devnull = os.open(os.devnull, os.O_WRONLY)
            os.dup2(devnull, sys.stdout.fileno())
            os.close(devnull)
        # a formula, term or program nested past Python's recursion limit, a
        # package error, or a fault of the program itself
        message = ("input nests too deeply" if isinstance(exc, RecursionError)
                   else str(exc) if isinstance(exc, (BvnError, BrokenPipeError))
                   else f"internal error: {type(exc).__name__}: {exc}")
        print(f"error: {message}", file=sys.stderr)
        report["result"] = {"error": message}
        status = 2
    report["timings"] = {"seconds": round(time.monotonic() - t0, 6)}
    if args.json:
        try:
            _write(args.json, json.dumps(report, indent=2))
        except BvnError as exc:
            print(f"error: {exc}", file=sys.stderr)
            status = 2
    return status


def _state(args, i) -> StateDensity:
    return StateDensity.pure(parse_state_vector(args.state, i.layout))


def _dispatch(args, i, report) -> int:
    cmd = args.command
    if cmd == "sem":
        b = _source("formula", args.formula)
        x = eval_subspace(i, b)
        basis = _print_subspace(x, bool(args.json))
        report["result"] = {"rank": x.rank, "dim": x.dim, "basis": basis}
        return 0
    if cmd == "sat":
        b = _source("formula", args.formula)
        ok = satisfies(i, _state(args, i), b)
        print("satisfied" if ok else "not satisfied")
        report["result"] = {"satisfied": ok}
        return 0 if ok else 1
    if cmd == "prob":
        b = _source("formula", args.formula)
        p = sat_probability(i, _state(args, i), b)
        print(f"probability {p:.12f}")
        report["result"] = {"probability": p}
        return 0
    if cmd == "entail":
        lhs = _source("formula", args.lhs)
        rhs = _source("formula", args.rhs)
        ok = entails(i, lhs, rhs)
        print("entails" if ok else "does not entail")
        report["result"] = {"entails": ok}
        return 0 if ok else 1
    if cmd == "term-eq":
        t1 = _source("term", args.t1)
        t2 = _source("term", args.t2)
        ok = term_equiv(i, t1, t2)
        print("equal as channels" if ok else "different channels")
        report["result"] = {"equal": ok}
        return 0 if ok else 1
    if cmd in ("image", "wlp"):
        b = _source("formula", args.formula)
        x = eval_subspace(i, b)
        if bool(args.program) == bool(args.term):
            raise BvnError("give exactly one of --program / --term")
        if args.program:
            s = _source("program", args.program)
            y = prog_image(i, s, x) if cmd == "image" else prog_wlp(i, s, x)
        else:
            t = _source("term", args.term)
            y = term_forward_image(i, t, x) if cmd == "image" else term_wlp_op(i, t, x)
        basis = _print_subspace(y, bool(args.json))
        report["result"] = {"rank": y.rank, "dim": y.dim, "basis": basis}
        return 0
    if cmd == "run":
        s = _source("program", args.program)
        res = run_program(i, s, _state(args, i), max_steps=args.max_steps, epsilon=args.eps)
        print(f"output trace {res.output.trace:.12f}  residual {res.residual:.3e}  "
              f"status {res.status}  steps {res.steps}")
        diag = np.sum(np.abs(res.output.factor) ** 2, axis=1)
        print("  diagonal:", _numbers(diag[None])[0])
        print(f"  diverged: {res.diverged:.3e}")
        report["result"] = {
            "trace": res.output.trace,
            "residual": res.residual,
            "status": res.status,
            "steps": res.steps,
            "diverged": res.diverged,
            "density_diag": [float(d) for d in diag],
        }
        return 0
    if cmd == "verify":
        t = _source("triple", args.triple)
        ok, info, wlp_ok = triple_verdicts(i, t)
        agree = wlp_ok == ok
        print("valid" if ok else "invalid")
        if not agree:
            print("warning: image and wlp checks disagree (numerical trouble)")
        if info["witness"] is not None:
            print(f"  violating state: [{_numbers(np.array([info['witness']]))[0]}]")
            report["witnesses"].append([[z.real, z.imag] for z in info["witness"]])
        info["witness"] = None
        report["result"] = {"valid": ok, "wlp_agrees": agree, **info}
        return 0 if ok else 1
    if cmd == "check-proof":
        script = _source("proof", args.proof)
        rep = check_proof(i, script, semantic_cross_check=args.cross_check)
        for s in rep.steps:
            mark = "ok" if s.ok else "FAIL"
            extra = f"  {s.message}" if s.message else ""
            print(f"  step {s.step_id} [{s.rule}] {mark}{extra}")
            for note in s.notes:
                print(f"    note: {note}")
        print("proof accepted" if rep.ok else f"proof rejected at step {rep.first_failure}")
        report["result"] = rep.as_dict()
        return 0 if rep.ok else 1
    if cmd == "forall":
        b = _source("formula", args.formula)
        names = [v.strip() for v in args.vars.split(",") if v.strip()]
        x = eval_subspace(i, b)
        trace: list = []
        y = forall_closure(i, names, x, trace=trace)
        for iteration, rank in trace:
            print(f"  iteration {iteration}: rank {rank}")
        print(f"closure rank {y.rank} of {y.dim}")
        report["result"] = {"rank": y.rank, "trace": trace}
        return 0
    raise BvnError(f"unknown command {cmd!r}")


if __name__ == "__main__":
    sys.exit(main())
