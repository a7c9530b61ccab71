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
one file parse it once; each query gets a copy whose memos (embedded
channels, evaluated formulas) start empty.
"""

from __future__ import annotations

import argparse
import dataclasses
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
from .hoare import check_proof, triple_valid, triple_valid_wlp
from .interp import Interpretation
from .linalg import StateDensity, Subspace
from .parser import (
    parse_formula,
    parse_interp,
    parse_program,
    parse_proof,
    parse_state_vector,
    parse_term,
    parse_triple,
)
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
    ap.add_argument("--max-steps", type=int, default=100_000, help="loop-iteration cap for runs")
    ap.add_argument("--eps", type=float, default=1e-12, help="loop-mass threshold for runs")
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
    is raised again on every call.  Callers take a copy, whose memos start
    empty: kept memos would pile up from query to query on a wide space."""
    return parse_interp(text, tol=tol)


def _source(arg: str) -> str:
    """File contents when the argument names a readable file, else the
    argument itself as inline source."""
    try:
        return _read(arg)
    except BvnError:
        return arg


def _print_subspace(x: Subspace, report: bool = True) -> list | None:
    """Print the rank and each basis column of the global basis, one format
    per column over its interleaved real and imaginary parts; with
    ``report``, return the columns as lists of [real, imag] pairs for the
    JSON report."""
    # each row of the transposed basis, viewed as floats, is re0, im0, re1, ...
    parts = np.ascontiguousarray(x.basis.T).view(np.float64).tolist()
    row = "  b%d: [" + ", ".join(["%+.6f%+.6fi"] * x.dim) + "]"
    print("\n".join([f"rank {x.rank} of {x.dim}"] + [row % (k, *c) for k, c in enumerate(parts)]))
    return [[c[j:j + 2] for j in range(0, len(c), 2)] for c in parts] if report else None


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
        i = dataclasses.replace(_parsed_interp(_read(args.interp), tol))
        report["tolerances"] = tol.as_dict()
        report["inputs"] = {
            k: v for k, v in vars(args).items()
            if k not in ("command", "json") and v is not None
        }
        layout = ", ".join(f"{n}:{d}" for n, d in i.variables.items())
        print(f"# tolerances: tau_num={tol.tau_num} tau_rank={tol.tau_rank} "
              f"tau_sub={tol.tau_sub}")
        print(f"# layout: [{layout}] total dim {i.total_dim}")
        status = _dispatch(args, i, report)
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
        b = parse_formula(_source(args.formula))
        x = eval_subspace(i, b)
        basis = _print_subspace(x, bool(args.json))
        report["result"] = {"rank": x.rank, "dim": x.dim, "basis": basis}
        return 0
    if cmd == "sat":
        b = parse_formula(_source(args.formula))
        ok = satisfies(i, _state(args, i), b)
        print("satisfied" if ok else "not satisfied")
        report["result"] = {"satisfied": ok}
        return 0 if ok else 1
    if cmd == "prob":
        b = parse_formula(_source(args.formula))
        p = sat_probability(i, _state(args, i), b)
        print(f"probability {p:.12f}")
        report["result"] = {"probability": p}
        return 0
    if cmd == "entail":
        lhs = parse_formula(_source(args.lhs))
        rhs = parse_formula(_source(args.rhs))
        ok = entails(i, lhs, rhs)
        print("entails" if ok else "does not entail")
        report["result"] = {"entails": ok}
        return 0 if ok else 1
    if cmd == "term-eq":
        t1 = parse_term(_source(args.t1))
        t2 = parse_term(_source(args.t2))
        ok = term_equiv(i, t1, t2)
        print("equal as channels" if ok else "different channels")
        report["result"] = {"equal": ok}
        return 0 if ok else 1
    if cmd in ("image", "wlp"):
        b = parse_formula(_source(args.formula))
        x = eval_subspace(i, b)
        if bool(args.program) == bool(args.term):
            raise BvnError("give exactly one of --program / --term")
        if args.program:
            s = parse_program(_source(args.program))
            y = prog_image(i, s, x) if cmd == "image" else prog_wlp(i, s, x)
        else:
            t = parse_term(_source(args.term))
            y = term_forward_image(i, t, x) if cmd == "image" else term_wlp_op(i, t, x)
        basis = _print_subspace(y, bool(args.json))
        report["result"] = {"rank": y.rank, "dim": y.dim, "basis": basis}
        return 0
    if cmd == "run":
        s = parse_program(_source(args.program))
        res = run_program(i, s, _state(args, i), max_steps=args.max_steps, epsilon=args.eps)
        print(f"output trace {res.output.trace:.12f}  residual {res.residual:.3e}  "
              f"status {res.status}  steps {res.steps}")
        diag = np.sum(np.abs(res.output.factor) ** 2, axis=1)
        print("  diagonal:", " ".join(f"{d:.6f}" for d in diag))
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
        t = parse_triple(_source(args.triple))
        ok, info = triple_valid(i, t)
        agree = triple_valid_wlp(i, t) == ok
        print("valid" if ok else "invalid")
        if not agree:
            print("warning: image and wlp checks disagree (numerical trouble)")
        if info["witness"] is not None:
            entries = ", ".join(f"{z.real:+.6f}{z.imag:+.6f}i" for z in info["witness"])
            print(f"  violating state: [{entries}]")
            report["witnesses"].append([[z.real, z.imag] for z in info["witness"]])
        info["witness"] = None
        report["result"] = {"valid": ok, "wlp_agrees": agree, **info}
        return 0 if ok else 1
    if cmd == "check-proof":
        script = parse_proof(_source(args.proof))
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
        b = parse_formula(_source(args.formula))
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
