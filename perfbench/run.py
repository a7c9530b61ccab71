"""Known-answer query benchmark for bvn.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; bvn is imported from ``src/``.  The
workload generator writes seeded input files under ``perfbench/out/`` and
hands back one round of queries with known answers.  A single client sends
the queries one after another through ``bvn.cli.main(argv)`` (a closed
loop: the next query goes out when the previous one returns), capturing
stdout, and repeats whole rounds until ``--seconds`` have passed.  Every
answer is checked against its known value.  Times are expressed at the
reference speed of ``speed``; raw times go to the result file too.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` wraps bvn's
public functions (see ``tracer``), runs the rounds traced, runs one round
untraced to measure the tracing overhead, and prints the per-layer
metrics; the spans go to ``perfbench/out/spans-<workload>.csv``.

The last line of stdout is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  A result file with the environment (seed,
numpy, BLAS library and threads, nproc, src/bvn line count) is written to
``perfbench/out/results/``; ``perfbench/compare.py`` compares two sets of
them.
"""

from __future__ import annotations

import os
import sys
import time

# One BLAS thread, fixed for every commit measured: on a shared two-core
# box a second thread adds more run-to-run noise than speed.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
SETUP_SAMPLES = 5
SETUP_TIMEOUT_S = 60


def _import_bvn():
    """Import bvn from this checkout's src/, refusing any other copy."""
    if not os.path.isfile(os.path.join(SRC, "bvn", "__init__.py")):
        raise SystemExit(f"error: no bvn sources under {SRC}")
    sys.path.insert(0, SRC)
    import bvn
    import bvn.cli

    if os.path.dirname(os.path.dirname(os.path.abspath(bvn.__file__))) != SRC:
        raise SystemExit(f"error: bvn imported from {bvn.__file__}, not {SRC}")
    return bvn.cli


def _generate(workload: str, seed: int, tag: str = ""):
    sys.path.insert(0, HERE)
    import workloads

    root = os.path.join(OUT, "inputs", f"{workload}-{seed}{tag}")
    return workloads.WORKLOADS[workload](seed, root)


def _setup_sample(workload: str, seed: int):
    """Time one set-up from a fresh interpreter: import bvn, generate.
    The speed kernel runs after the timed part, once numpy is loaded; its
    first run warms BLAS up and is left out."""
    t0 = time.perf_counter()
    _import_bvn()
    _generate(workload, seed, "-setup")
    t1 = time.perf_counter()
    import speed
    import workloads

    sp = speed.Speed(workloads.SPEED_PARTS[workload])
    for _ in range(4):
        sp.sample()
    scale = sp.ref_s / statistics.median(sp.costs[1:])
    print(json.dumps({"setup_s": t1 - t0, "scale": scale}))


def _setup_seconds(workload: str, seed: int) -> tuple:
    """Raw and speed-scaled set-up times of SETUP_SAMPLES fresh processes."""
    raw, scaled = [], []
    for _ in range(SETUP_SAMPLES):
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--setup-sample",
             "--workload", workload, "--seed", str(seed)],
            capture_output=True, text=True, timeout=SETUP_TIMEOUT_S, cwd=ROOT,
        )
        if proc.returncode != 0:
            raise SystemExit(f"error: set-up sample failed: {proc.stderr.strip()}")
        sample = json.loads(proc.stdout.strip().splitlines()[-1])
        raw.append(sample["setup_s"])
        scaled.append(sample["setup_s"] * sample["scale"])
    return raw, scaled


class _Client:
    """The closed-loop client: one query at a time, output captured, the
    machine's speed sampled between queries."""

    def __init__(self, cli, check, speed):
        self.cli = cli  # main is looked up per call, so tracing sees it
        self.check = check
        self.speed = speed
        self.failures = []

    def ask(self, q, tracer=None, qid=0) -> tuple:
        out, err = io.StringIO(), io.StringIO()
        if tracer is not None:
            tracer.begin(qid, q.total_dim)
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                status = self.cli.main(q.argv)
        except SystemExit as exc:  # argparse usage errors
            status = exc.code if isinstance(exc.code, int) else 2
        except Exception as exc:  # a traceback is a failed query, not a crash
            status = None
            err.write(f"{type(exc).__name__}: {exc}")
        t1 = time.perf_counter()
        if tracer is not None:
            tracer.end()
        reason = "exception: " + err.getvalue() if status is None else \
            self.check(q, status, out.getvalue())
        if reason:
            self.failures.append(f"{q.kind} {' '.join(q.argv)}: {reason}")
        return t0, t1

    def rounds(self, queries, seconds=None, count=None, tracer=None):
        """Whole rounds until ``seconds`` elapse, or exactly ``count``.
        Returns raw and speed-scaled latencies, query kinds, rounds run."""
        spans, kinds = [], []
        start = time.perf_counter()
        done = 0
        while True:
            if count is not None and done == count:
                break
            if count is None and done and time.perf_counter() - start >= seconds:
                break
            for q in queries:
                self.speed.sample()
                spans.append(self.ask(q, tracer, len(spans)))
                kinds.append(q.kind)
            done += 1
        self.speed.sample()
        raw = [t1 - t0 for t0, t1 in spans]
        scaled = [(t1 - t0) * self.speed.scale(t0, t1) for t0, t1 in spans]
        return raw, scaled, kinds, done


def _per_query_medians(latencies, n: int) -> list:
    """Each of the round's ``n`` queries' median latency over the rounds."""
    return [statistics.median(latencies[k::n]) for k in range(n)]


def _src_lines() -> int:
    total = 0
    pkg = os.path.join(SRC, "bvn")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), encoding="utf-8") as fh:
                total += sum(1 for _ in fh)
    return total


def _environment(seed: int) -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "seed": seed,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": BLAS_THREADS,
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
        "code.src_bvn_lines": _src_lines(),
    }


def _declared_metrics(trace: int):
    path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.isfile(path):
        return None
    with open(path, encoding="utf-8") as fh:
        spec = json.load(fh)
    return {m["name"] for m in spec["per_layer" if trace else "end_to_end"]}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-sample", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.setup_sample:
        _setup_sample(args.workload, args.seed)
        return 0
    sys.path.insert(0, HERE)
    import workloads

    if args.workload not in workloads.WORKLOADS:
        ap.error(f"unknown workload {args.workload!r}; one of {sorted(workloads.WORKLOADS)}")

    cli = _import_bvn()
    rnd = _generate(args.workload, args.seed)
    import checks
    import speed

    client = _Client(cli, checks.check, speed.Speed(workloads.SPEED_PARTS[args.workload]))
    client.ask(rnd.queries[-1])  # warm-up: lazy imports, BLAS buffers
    client.failures.clear()

    metrics = {}
    result = {"workload": args.workload, "trace": args.trace, "seconds": args.seconds,
              "environment": _environment(args.seed), "round_queries": len(rnd.queries),
              "input_files": rnd.files,
              "speed_parts": workloads.SPEED_PARTS[args.workload]}
    if args.trace:
        import tracer as T

        tr = T.Tracer()
        tr.install()
        try:
            raw, traced, _, rounds = client.rounds(rnd.queries, args.seconds, tracer=tr)
        finally:
            tr.restore()
        _, plain, _, _ = client.rounds(rnd.queries, count=1)
        scales = [s / r for s, r in zip(traced, raw)]
        for name, (value, unit) in tr.metrics(scales).items():
            metrics[name] = {"value": value, "unit": unit}
        metrics["trace.overhead_frac"] = {
            "value": sum(traced) / rounds / sum(plain) - 1.0, "unit": "ratio"}
        metrics["code.src_bvn_lines"] = {
            "value": result["environment"]["code.src_bvn_lines"], "unit": "lines"}
        os.makedirs(OUT, exist_ok=True)
        tr.write(os.path.join(OUT, f"spans-{args.workload}.csv"))
        latencies = traced + plain
    else:
        raw, latencies, kinds, rounds = client.rounds(rnd.queries, args.seconds)
        setup_raw, setup = _setup_seconds(args.workload, args.seed)
        metrics["setup_s"] = {"value": statistics.median(setup), "unit": "s"}
        metrics["qps"] = {"value": len(latencies) / sum(latencies), "unit": "1/s"}
        # The median over the round's queries of each query's median over
        # the rounds is the same order statistic whatever the number of rounds.
        per_query = _per_query_medians(latencies, len(rnd.queries))
        metrics["latency_p50_ms"] = {"value": 1e3 * statistics.median(per_query), "unit": "ms"}
        rss_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        metrics["peak_rss_mb"] = {"value": rss_kib / 1024.0, "unit": "MB"}
        if len(latencies) >= 100:
            result["latency_p90_ms"] = 1e3 * statistics.quantiles(
                latencies, n=10, method="inclusive")[-1]
        per_kind = {}
        for k, lat in zip(kinds, latencies):
            per_kind.setdefault(k, []).append(lat)
        result["per_kind_p50_ms"] = {k: 1e3 * statistics.median(v) for k, v in per_kind.items()}
        result["per_query_p50_ms"] = [[q.kind, 1e3 * t] for q, t in zip(rnd.queries, per_query)]
        result["raw"] = {"setup_samples_s": setup_raw, "setup_samples_scaled_s": setup,
                         "qps": len(raw) / sum(raw),
                         "latency_p50_ms": 1e3 * statistics.median(
                             _per_query_medians(raw, len(rnd.queries)))}

    attempted = len(latencies)
    failed = len(client.failures)
    result.update(rounds=rounds, attempted=attempted, failed=failed,
                  ops_failed_frac=failed / attempted, failures=client.failures[:20],
                  metrics=metrics)
    declared = _declared_metrics(args.trace)
    if declared is not None and declared != set(metrics):
        print(f"error: metrics differ from BENCHMARK.json: "
              f"missing {sorted(declared - set(metrics))}, extra {sorted(set(metrics) - declared)}",
              file=sys.stderr)
        return 3
    results = os.path.join(OUT, "results")
    os.makedirs(results, exist_ok=True)
    stamp = time.strftime("%Y%m%dT%H%M%S", time.gmtime())
    name = f"{args.workload}-s{args.seed}-t{args.trace}-{stamp}-{os.getpid()}.json"
    with open(os.path.join(results, name), "w", encoding="utf-8") as fh:
        json.dump(result, fh, indent=1)
    for line in client.failures[:5]:
        print(f"failed: {line[:300]}", file=sys.stderr)
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
