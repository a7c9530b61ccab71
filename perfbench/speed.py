"""Machine-speed calibration for timings on a shared host.

On a small shared box the same work can take half again as long from one
second to the next, because neighbours compete for the core.  A fixed
calibration kernel, built from the kinds of work a workload's queries are
made of (parsing in Python, small numpy embeddings, dense SVDs), is timed
before every query and after the last: slow spells come and go within
tens of milliseconds.  A query's time is scaled by the kernel's reference
time over the mean of the kernel times measured just before and just
after it.  That expresses it at the reference speed: the speed at which
each kernel part takes its reference time in ``PARTS``, the 10th
percentile of its times on one core of a 2-core x86-64 VM with OpenBLAS.
Raw times are kept alongside in the result file.
"""

from __future__ import annotations

import bisect
import re
import time

import numpy as np

_RNG = np.random.default_rng(0)
_A48 = _RNG.normal(size=(48, 48)) + 1j * _RNG.normal(size=(48, 48))
_A256 = _RNG.normal(size=(256, 128)) + 1j * _RNG.normal(size=(256, 128))
_M8 = _RNG.normal(size=(8, 8)) + 0j
_REVERSE = np.arange(64)[::-1]
_TOKEN = re.compile(r"\s*(?:(\d+\.?\d*)|(\w+)|(.))")
_SCRIPT = ("step s1 by Ax.UT with formula = PX(q1); term = H(q1) X(q2); vars = q1, q2 "
           "shows triple { adj<H(q1)>(PX(q1)) } q1 := H(q1) { PX(q1) } ") * 4


class _Token:
    __slots__ = ("kind", "text")

    def __init__(self, kind, text):
        self.kind = kind
        self.text = text


def _python():
    """Tokenise and bracket-match a proof script, as bvn's parser does."""
    for _ in range(6):
        tokens = []
        for m in _TOKEN.finditer(_SCRIPT):
            num, ident, other = m.groups()
            tokens.append(_Token("NUM" if num else "IDENT" if ident else "SYM",
                                 num or ident or other))
        depth = 0
        for t in tokens:
            if t.text in ("(", "{", "<"):
                depth += 1
            elif t.text in (")", "}", ">"):
                depth -= 1


def _small_numpy():
    """Kronecker embedding and permutation of a small gate, as in bvn's
    interp layer."""
    for _ in range(30):
        wide = np.kron(_M8, np.eye(8, dtype=complex))[np.ix_(_REVERSE, _REVERSE)]
        wide @ wide.conj().T


def _svd48():
    for _ in range(4):
        np.linalg.svd(_A48)


def _svd256():
    np.linalg.svd(_A256, full_matrices=False)


# part -> (function, reference seconds)
PARTS = {
    "python": (_python, 1.1e-3),
    "small_numpy": (_small_numpy, 3.3e-3),
    "svd48": (_svd48, 2.2e-3),
    "svd256": (_svd256, 10.4e-3),
}


class Speed:
    def __init__(self, parts):
        self.parts = [PARTS[p][0] for p in parts]
        self.ref_s = sum(PARTS[p][1] for p in parts)
        self.times = []  # kernel start times, increasing
        self.costs = []

    def sample(self):
        t0 = time.perf_counter()
        for part in self.parts:
            part()
        self.times.append(t0)
        self.costs.append(time.perf_counter() - t0)

    def scale(self, t0: float, t1: float) -> float:
        """Reference kernel time over the mean kernel time around [t0, t1]."""
        before = max(bisect.bisect_right(self.times, t0) - 1, 0)
        after = min(bisect.bisect_left(self.times, t1), len(self.times) - 1)
        return self.ref_s / (0.5 * (self.costs[before] + self.costs[after]))
