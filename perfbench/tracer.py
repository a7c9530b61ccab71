"""Per-layer tracing of bvn from outside the package.

``Tracer.install`` replaces each traced function, by identity, in every
``bvn`` module namespace that binds it (import aliases such as
``cli.run_program`` and the package re-exports included), and replaces
``numpy.linalg.svd`` / ``eigh`` for the ``lapack`` layer.  Recursion through
a public name (``prog_image``, ``prog_wlp``, ``step``) is therefore traced
too.  ``restore`` puts every original back.

A span is recorded only while a query is open (``begin`` .. ``end``): its
function, parent span, query id, start and end.  Spans stay in memory and
are written once, by ``write``.  A span's self time is its duration minus
the durations of its direct children; calls run on one thread, so children
never overlap.
"""

from __future__ import annotations

import functools
import sys
import time
from array import array
from collections import defaultdict

import numpy as np

# Layers from the front end down, with the public functions traced in each.
LAYERS = {
    "cli": ["main"],
    "parser": ["parse", "parse_interp", "parse_term", "parse_formula", "parse_program",
               "parse_triple", "parse_proof", "parse_state_vector"],
    "hoare": ["triple_valid", "triple_valid_wlp", "apply_rule", "check_proof"],
    "programs": ["prog_image", "prog_wlp", "run", "step", "terminates_probe",
                 "representable_probe"],
    "formulas": ["eval_subspace", "forall_closure"],
    "terms": ["term_wf", "term_apply", "term_forward_image", "term_wlp", "term_channel",
              "term_equiv"],
    "interp": ["embed", "embed_matrix_on", "embed_subspace", "allowed_generators"],
    "linalg": ["orthonormal_columns", "ortho", "lattice_join", "lattice_meet", "includes",
               "support", "channel_apply", "channel_image", "channel_wlp", "channel_equal"],
    "lapack": ["svd", "eigh"],
}
ROOT = "bench.query"


def _svd_flops(shape, full_matrices: bool) -> float:
    """Flop estimate of a complex SVD with singular vectors, from Golub and
    Van Loan's R-SVD counts (Matrix Computations, 4th ed., fig. 8.6.1),
    times four for complex arithmetic.  Computed, not measured."""
    m, n = shape[-2], shape[-1]
    big, k = max(m, n), min(m, n)
    if full_matrices:
        real = 4 * big * big * k + 8 * big * k * k + 9 * k**3
    else:
        real = 6 * big * k * k + 11 * k**3
    return 4.0 * real


class Tracer:
    def __init__(self):
        self.names = []  # function index -> "layer.function"
        self.key = {}
        self.parent = array("l")
        self.query = array("l")
        self.func = array("l")
        self.t0 = array("d")
        self.t1 = array("d")
        self.extra = {}  # span -> hook payload
        self.stack = []
        self.qid = None
        self.total_dim = 0
        self._saved = []

    # -- installation -------------------------------------------------------

    def install(self):
        import bvn.cli  # noqa: F401  (loads every bvn module)

        modules = [m for name, m in sorted(sys.modules.items())
                   if m is not None and (name == "bvn" or name.startswith("bvn."))]
        for layer, funcs in LAYERS.items():
            if layer == "lapack":
                for fn in funcs:
                    self._patch(np.linalg, fn, getattr(np.linalg, fn), layer, [np.linalg])
                continue
            home = sys.modules[f"bvn.{layer}"]
            for fn in funcs:
                self._patch(home, fn, getattr(home, fn), layer, modules)

    def _patch(self, home, fn, original, layer, modules):
        name = f"{layer}.{fn}"
        hook = {
            "lapack.svd": self._svd_hook,
            "interp.embed": self._embed_hook,
            "interp.embed_matrix_on": self._embed_on_hook,
        }.get(name)
        wrapper = self._wrap(name, original, hook)
        for m in modules:
            for attr, value in list(vars(m).items()):
                if value is original:
                    self._saved.append((m, attr, original))
                    setattr(m, attr, wrapper)

    def restore(self):
        for m, attr, original in reversed(self._saved):
            setattr(m, attr, original)
        self._saved.clear()

    def _index(self, name) -> int:
        if name not in self.key:
            self.key[name] = len(self.names)
            self.names.append(name)
        return self.key[name]

    def _wrap(self, name, f, hook):
        idx = self._index(name)
        clock = time.perf_counter
        stack = self.stack

        @functools.wraps(f)
        def traced(*args, **kwargs):
            if self.qid is None:
                return f(*args, **kwargs)
            sid = self._open(idx, clock())
            try:
                out = f(*args, **kwargs)
            finally:
                stack.pop()
                self.t1[sid] = clock()
            if hook is not None:
                self.extra[sid] = hook(args, kwargs, out, sid)
            return out

        return traced

    def _open(self, idx, t) -> int:
        sid = len(self.t0)
        self.parent.append(self.stack[-1] if self.stack else -1)
        self.query.append(self.qid)
        self.func.append(idx)
        self.t0.append(t)
        self.t1.append(t)
        self.stack.append(sid)
        return sid

    # -- queries ------------------------------------------------------------

    def begin(self, qid: int, total_dim: int):
        self.qid = qid
        self.total_dim = total_dim
        self._open(self._index(ROOT), time.perf_counter())

    def end(self):
        sid = self.stack.pop()
        self.t1[sid] = time.perf_counter()
        self.qid = None

    # -- hooks --------------------------------------------------------------

    def _svd_hook(self, args, kwargs, out, sid):
        shape = np.shape(args[0])
        full = kwargs.get("full_matrices", args[1] if len(args) > 1 else True)
        return (_svd_flops(shape, bool(full)), max(shape[-2:]) == self.total_dim)

    def _embed_hook(self, args, kwargs, out, sid):
        e, names = args[1], args[2]
        key = ("embed", tuple(names), hash(b"".join(k.tobytes() for k in e.kraus)))
        return (sum(k.nbytes for k in out.kraus), key)

    def _embed_on_hook(self, args, kwargs, out, sid):
        if self.names[self.func[self.parent[sid]]] == "interp.embed":
            return None  # counted by the enclosing embed
        mat, names, target = args[1], args[2], args[3]
        key = ("on", tuple(names), tuple(target), hash(np.asarray(mat).tobytes()))
        return (out.nbytes, key)

    # -- results ------------------------------------------------------------

    def metrics(self, scales) -> dict:
        """Per-function calls and self time, per-layer self time, and the
        derived kernel counters, as {name: (value, unit)}.  Times of query
        ``q`` are multiplied by ``scales[q]`` (see ``speed``)."""
        n = len(self.t0)
        dur = [(self.t1[s] - self.t0[s]) * scales[self.query[s]] for s in range(n)]
        self_t = list(dur)
        for s in range(n):
            p = self.parent[s]
            if p >= 0:
                self_t[p] -= dur[s]
        calls = defaultdict(int)
        self_s = defaultdict(float)
        for s in range(n):
            calls[self.func[s]] += 1
            self_s[self.func[s]] += self_t[s]
        out = {}
        layer_s = defaultdict(float)
        for idx, name in enumerate(self.names):
            if name == ROOT:
                continue
            layer = name.split(".")[0]
            layer_s[layer] += self_s[idx]
            if layer not in ("cli", "parser", "lapack"):
                out[f"{name}.calls"] = (calls[idx], "count")
                out[f"{name}.self_s"] = (self_s[idx], "s")
        by_name = {name: idx for idx, name in enumerate(self.names)}

        def of(name, table):
            return table[by_name[name]] if name in by_name else 0

        parse = [f"parser.{fn}" for fn in LAYERS["parser"]]
        out["parser.calls"] = (sum(of(p, calls) for p in parse), "count")
        out["parser.self_s"] = (sum(of(p, self_s) for p in parse), "s")
        out["parser.parse_interp.self_s"] = (of("parser.parse_interp", self_s), "s")
        out["cli.main.self_s"] = (of("cli.main", self_s), "s")
        for layer in LAYERS:
            if layer not in ("cli", "parser"):  # those are cli.main.self_s, parser.self_s
                out[f"layer.{layer}.self_s"] = (layer_s[layer], "s")

        svd = by_name.get("lapack.svd")
        svd_spans = [s for s in range(n) if self.func[s] == svd]
        out["lapack.svd.calls"] = (len(svd_spans), "count")
        out["lapack.svd.s"] = (sum(dur[s] for s in svd_spans), "s")
        # A call that raised has no hook payload.
        payloads = [self.extra.get(s, (0.0, False)) for s in svd_spans]
        out["lapack.svd.full_dim_calls"] = (sum(1 for _, full in payloads if full), "count")
        out["lapack.svd.flops"] = (sum(flops for flops, _ in payloads), "flop-computed")
        out["lapack.eigh.calls"] = (of("lapack.eigh", calls), "count")
        out["lapack.eigh.s"] = (of("lapack.eigh", self_s), "s")
        query_s = sum(dur[s] for s in range(n) if self.parent[s] < 0)
        out["trace.query_s"] = (query_s, "s")
        out["lapack.svd.share"] = (out["lapack.svd.s"][0] / query_s if query_s else 0.0, "ratio")

        built = 0
        nbytes = 0
        distinct = set()
        for s, payload in self.extra.items():
            if payload is None or self.names[self.func[s]] == "lapack.svd":
                continue
            built += 1
            nbytes += payload[0]
            distinct.add((self.query[s], payload[1]))
        out["interp.embed.bytes"] = (nbytes, "bytes")
        out["interp.embed.distinct_ratio"] = (len(distinct) / built if built else 0.0, "ratio")

        closure = by_name.get("formulas.forall_closure")
        meet = by_name.get("linalg.lattice_meet")
        out["formulas.forall_closure.iterations"] = (sum(
            1 for s in range(n)
            if self.func[s] == meet and self.parent[s] >= 0
            and self.func[self.parent[s]] == closure), "count")
        return out

    def write(self, path: str):
        """One line per span: id, parent, query, function, start, end."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("span,parent,query,function,t0,t1\n")
            for s in range(len(self.t0)):
                fh.write(f"{s},{self.parent[s]},{self.query[s]},{self.names[self.func[s]]},"
                         f"{self.t0[s]:.9f},{self.t1[s]:.9f}\n")
