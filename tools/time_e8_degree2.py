"""Time the degree-2 suites on E8 over F_46337, step by step, in one process.

    PYTHONPATH=src python tools/time_e8_degree2.py [path/to/e8.json]

Loads tools/e8.json (or the given file) and runs what criterion 10 runs,
with one DegreeTwo built on one A: build_cg and unit(), then ker T
(DegreeTwo.kernel, read off A, which checks every premise ker T rests
on) and its g-module generators (kernel_generators, A's generators of
ker S shifted, kept as its own line so that outputs of older versions
line up), then correspondence_suite, conformal_suite and
ideal_closure_suite.  The descent proof, sym_quotient (the product
identity and the pairing on ker T's generators against every monomial,
on the engine's integers), runs inside correspondence_suite and is timed
there; its line comes first, with the peak of correspondence_suite up to
its end.  Prints the CPU time of each step with the process peak RSS after
it, so the step that sets the peak is the first to show it, then the wall
time of the whole and the peak RSS.  Exits with 1 if a suite fails or a
value differs from its known answer: dims [30876, 27000, 3876, 27000]
(dim S^2 g, dim ker S, dim A, dim ker T), lambda 23169 (the image of 1/2
in F_46337), central charge 8 (dim g / (1 + h), h = 30) and kernel_dim
27000.
"""

import os
import resource
import sys
import time

import cgva.degree2 as degree2
from cgva.cg import build_cg
from cgva.degree2 import DegreeTwo
from cgva.fields import PrimeField
from cgva.lie import load_algebra


def main(argv: list[str]) -> int:
    path = argv[1] if len(argv) > 1 else os.path.join(
        os.path.dirname(os.path.abspath(__file__)), "e8.json")
    wall0 = time.monotonic()
    steps = []

    def peak_mb() -> float:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    def timed(name, fn, *args):
        t0 = time.process_time()
        out = fn(*args)
        steps.append((name, time.process_time() - t0))
        print(f"{name}: {steps[-1][1]:.1f} s CPU, peak RSS {peak_mb():.0f} MB",
              flush=True)
        return out

    alg = timed("load", load_algebra, path, PrimeField(46337))
    cga = timed("build_cg", build_cg, alg)
    timed("unit", cga.unit)
    d2 = DegreeTwo(cga)
    ker = timed("DegreeTwo.kernel", d2.kernel)
    timed("kernel_generators", d2.kernel_generators)
    exact = degree2.sym_quotient
    degree2.sym_quotient = lambda *a: timed("sym_quotient", exact, *a)
    try:
        reps = [timed("correspondence_suite", degree2.correspondence_suite,
                      alg, d2)]
    finally:
        degree2.sym_quotient = exact
    reps.append(timed("conformal_suite", degree2.conformal_suite, alg, d2))
    reps.append(timed("ideal_closure_suite", degree2.ideal_closure_suite,
                      alg, d2))
    wall = time.monotonic() - wall0
    corr, conf, ideal = reps
    values = {"dims": corr.meta["dims"], "lambda": corr.meta["form_lambda"],
              "central_charge": conf.meta["central_charge"],
              "kernel_dim": ideal.meta["kernel_dim"]}
    print(f"ker T dim {ker.dim}; {values}")
    print(f"wall {wall:.1f} s, peak RSS {peak_mb():.0f} MB")
    failed = [str(r.first_failure) for r in reps if not r.passed]
    want = {"dims": [30876, 27000, 3876, 27000], "lambda": "23169",
            "central_charge": "8", "kernel_dim": 27000}
    if failed or values != want:
        print(f"failed: {failed}; expected {want}")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
