"""Loop verification walkthrough: exact lattice fixpoints vs simulation.

For the flip loop (while M[q]=1 do q := X(q) od) and the Hadamard loop,
prints the forward image and weakest liberal precondition computed by the
fixpoint engine, then cross-checks membership against runs, which report
the mass they prove diverging, and shows the termination decision.

Run:  python3 scripts/loop_verification_demo.py
"""

import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tests"))

import helpers  # noqa: E402
from bvn import (  # noqa: E402
    StateDensity,
    Subspace,
    includes,
    prog_image,
    prog_wlp,
    run,
    support,
    terminates_probe,
)
from bvn.parser import parse_program  # noqa: E402


def show(i, text: str):
    s = parse_program(text)
    zero = Subspace.from_span(np.eye(2)[:, [0]], 2)
    one = Subspace.from_span(np.eye(2)[:, [1]], 2)
    print(f"program: {text}")
    print(f"  image(span|1>) rank {prog_image(i, s, one).rank}")
    wlp = prog_wlp(i, s, zero)
    print(f"  wlp(span|0>) rank {wlp.rank}")
    print(f"  termination: {terminates_probe(i, s).status}")
    for vec, name in (([1, 0], "|0>"), ([0, 1], "|1>"), ([1, 1], "|+>")):
        rho = StateDensity.pure(np.array(vec, dtype=complex))
        res = run(i, s, rho, max_steps=100_000, epsilon=1e-13)
        lands = res.output.trace < 1e-9 or includes(zero, support(res.output))
        member = includes(wlp, support(rho))
        print(
            f"  from {name}: run trace {res.output.trace:.6f} residual {res.residual:.1e} "
            f"diverged {res.diverged:.1e}  lands-in-|0>: {lands}  wlp-member: {member}"
        )
        assert lands == member or res.residual > 1e-9
    print()


def main() -> int:
    i = helpers.one_qubit_interp()
    show(i, "while M[q] = 1 do q := X(q) od")
    show(i, "while M[q] = 1 do q := H(q) od")
    show(i, "while M[q] = 1 do skip od")
    return 0


if __name__ == "__main__":
    sys.exit(main())
