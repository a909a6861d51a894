"""Run E8's degree-2 pipeline over a field step by step, in one process,
and check it against E8's known answers.

    PYTHONPATH=src python tools/time_e8_degree2.py [path/to/e8.json [FIELD]]

FIELD is q or fp:P, as the CLI's --field reads it, and fp:46337 when it
is left out.  Loads tools/e8.json (or the given file) over FIELD and runs
what criterion 10 runs over F_46337 and over Q,
with one DegreeTwo built on one A: build_cg (with its *-ideal proof) and
unit(), which checks the unit on the g-module generators of S^2 g, then
ker T (DegreeTwo.kernel, read off A, which checks every premise ker T
rests on, each premise timed on a line of its own before the kernel's:
theta, the zero modes, T after theta and the translations) and its
g-module generators (kernel_generators, A's generators
of ker S shifted, kept as its own line so that outputs of older versions
line up), then correspondence_suite(d2), conformal_suite(d2) and
ideal_closure_suite(d2) on that one DegreeTwo.  The descent proof,
sym_quotient (the product identity and the pairing on ker T's generators
against every monomial, on the engine's integers), runs inside
correspondence_suite and is timed there; its line comes first, with the
peak of correspondence_suite up to its end.  Prints the CPU time of each
step with the process's own peak RSS after it (VmHWM, which leaves out
the process that spawned it), so the step that sets the peak is the
first to show it, then each value that differs from KNOWN, and last the
wall time of the whole and the peak RSS.  Exits with 1 if a suite fails
or a value differs.
"""

import functools
import os
import sys
import time
from fractions import Fraction

import cgva.degree2 as degree2
from cgva.cg import build_cg, sym2_generators
from cgva.degree2 import DegreeTwo
from cgva.fields import parse_field_spec
from cgva.lie import load_algebra

# E8's known answers, stated once for every field: the scalars are
# rationals, and a run over a field must give their images in it
# (expected()):
# - unit: the unit's (im coordinate, value) pairs, integers over Q; over
#   F_46337 they are the residues that the exhaustive check
#   (diamond(u, e_t) == e_t for each of the 3876 im basis vectors)
#   returned;
# - tau: tau(u, u), read off S's pivot columns S_P (CGAlgebra.tau), a
#   quarter of the central charge;
# - generators: 16 Lie generators of g, 1 g-module generator of ker S (cached
#   by build_cg's proof) and the S^2 g generators;
# - dims: dim S^2 g, dim ker S, dim A, dim ker T;
# - lambda: 1/2;
# - central_charge: dim g / (1 + h), h = 30 the dual Coxeter number.
KNOWN = {
    "unit": [
        (0, 2), (1, 5), (2, 4), (3, 7), (4, 10), (5, 7), (6, 10), (7, 15),
        (8, 20), (9, 15), (10, 8), (11, 12), (12, 16), (13, 24), (14, 10),
        (15, 6), (16, 9), (17, 12), (18, 18), (19, 15), (20, 6), (21, 4),
        (22, 6), (23, 8), (24, 12), (25, 10), (26, 8), (27, 3), (28, 2),
        (29, 3), (30, 4), (31, 6), (32, 5), (33, 4), (34, 3), (35, 1),
    ],
    "tau": 2,
    "generators": (16, 1, [(0, 0)]),
    "dims": [30876, 27000, 3876, 27000],
    "lambda": Fraction(1, 2),
    "central_charge": 8,
    "kernel_dim": 27000,
}


def expected(field) -> dict:
    """KNOWN over field: each scalar as the field writes its image."""
    def image(q):
        return field.format(field.from_fraction(Fraction(q)))

    return {**KNOWN, "unit": [(t, image(n)) for t, n in KNOWN["unit"]],
            "tau": image(KNOWN["tau"]), "lambda": image(KNOWN["lambda"]),
            "central_charge": image(KNOWN["central_charge"])}


def main(argv: list[str]) -> int:
    path = argv[1] if len(argv) > 1 else os.path.join(
        os.path.dirname(os.path.abspath(__file__)), "e8.json")
    field = parse_field_spec(argv[2] if len(argv) > 2 else "fp:46337")
    wall0 = time.monotonic()

    def peak_mb() -> float:
        # VmHWM is this process's own high-water mark; ru_maxrss starts
        # from the peak of the process that spawned it, which Linux carries
        # across exec
        with open("/proc/self/status") as status:
            return next(int(line.split()[1]) for line in status
                        if line.startswith("VmHWM:")) / 1024

    def timed(name, fn, *args):
        t0 = time.process_time()
        out = fn(*args)
        print(f"{name}: {time.process_time() - t0:.1f} s CPU, "
              f"peak RSS {peak_mb():.0f} MB", flush=True)
        return out

    alg = timed("load", load_algebra, path, field)
    cga = timed("build_cg", build_cg, alg)
    unit = timed("unit", cga.unit)
    d2 = DegreeTwo(cga)
    premises = ((d2, "theta_witness"), (d2, "zero_mode_witness"),
                (d2, "t_after_theta_witness"), (d2.engine, "translation_witness"))
    for obj, name in premises:
        setattr(obj, name, functools.partial(timed, name, getattr(obj, name)))
    try:
        ker = timed("DegreeTwo.kernel", d2.kernel)
    finally:
        for obj, name in premises:
            delattr(obj, name)
    timed("kernel_generators", d2.kernel_generators)
    exact = degree2.sym_quotient
    degree2.sym_quotient = lambda *a: timed("sym_quotient", exact, *a)
    try:
        reps = [timed("correspondence_suite", degree2.correspondence_suite,
                      d2)]
    finally:
        degree2.sym_quotient = exact
    reps.append(timed("conformal_suite", degree2.conformal_suite, d2))
    reps.append(timed("ideal_closure_suite", degree2.ideal_closure_suite, d2))
    wall = time.monotonic() - wall0
    corr, conf, ideal = reps
    values = {
        "unit": unit and [(t, field.format(c)) for t, c in unit.items()],
        "tau": unit and field.format(cga.tau(unit, unit)),
        "generators": (len(alg.lie_generators()), len(cga.kernel_generators()),
                       sym2_generators(alg)),
        "dims": corr.meta["dims"], "lambda": corr.meta["form_lambda"],
        "central_charge": conf.meta["central_charge"],
        "kernel_dim": ideal.meta["kernel_dim"],
    }
    known = expected(field)
    wrong = [k for k in known if values[k] != known[k]]
    print(f"ker T dim {ker.dim}; {len(known) - len(wrong)} of {len(known)} "
          "known answers hold")
    for k in wrong:
        print(f"{k} differs: got {values[k]}, expected {known[k]}")
    failed = [str(r.first_failure) for r in reps if not r.passed]
    if failed:
        print(f"failed: {failed}")
    print(f"wall {wall:.1f} s, peak RSS {peak_mb():.0f} MB")
    return 1 if wrong or failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
