"""Build A for E8 over F_46337 and check the unit's coordinates.

    PYTHONPATH=src python tools/check_e8_unit.py [path/to/e8.json]

Loads tools/e8.json (or the given file), runs build_cg with its *-ideal
proof and then CGAlgebra.unit(), which checks the unit on the g-module
generators of S^2 g.  The unit's im-coordinates must equal the 36 below,
which the exhaustive check (diamond(u, e_t) == e_t for each of the 3876
im basis vectors) returned.  Then tau(u, u), read off S's pivot columns
S_P (CGAlgebra.tau), must be 2: 4 tau(Id, Id) is the level-one central charge dim g / (1 + h),
with h = 30 the dual Coxeter number, and 248 / 31 = 8.  Last, the
generators the proofs use: 16 Lie generators, 1 g-module generator of
ker S (cached by build_cg's proof) and the S^2 g generators [(0, 0)].
Prints the CPU time of each step and the peak RSS, and exits with 1 if
the coordinates, tau(u, u) or a generator count differ.
"""

import os
import resource
import sys
import time

from cgva.cg import build_cg, sym2_generators
from cgva.fields import PrimeField
from cgva.lie import load_algebra

# (im coordinate, value mod 46337)
EXPECTED = [
    (0, 2), (1, 5), (2, 4), (3, 7), (4, 10), (5, 7), (6, 10), (7, 15),
    (8, 20), (9, 15), (10, 8), (11, 12), (12, 16), (13, 24), (14, 10),
    (15, 6), (16, 9), (17, 12), (18, 18), (19, 15), (20, 6), (21, 4),
    (22, 6), (23, 8), (24, 12), (25, 10), (26, 8), (27, 3), (28, 2),
    (29, 3), (30, 4), (31, 6), (32, 5), (33, 4), (34, 3), (35, 1),
]


def main(argv: list[str]) -> int:
    path = argv[1] if len(argv) > 1 else os.path.join(
        os.path.dirname(os.path.abspath(__file__)), "e8.json")
    field = PrimeField(46337)
    t0 = time.process_time()
    alg = load_algebra(path, field)
    t1 = time.process_time()
    cga = build_cg(alg)
    t2 = time.process_time()
    unit = cga.unit()
    t3 = time.process_time()
    print(f"load {t1 - t0:.1f} s, build_cg {t2 - t1:.1f} s (dim A = {cga.dim}), "
          f"unit() {t3 - t2:.1f} s CPU")
    got = [(t, int(field.format(c))) for t, c in unit.items()] if unit else None
    if got != EXPECTED:
        print(f"unit coordinates differ: {got}")
        return 1
    print(f"unit: the expected {len(EXPECTED)} coordinates")
    t4 = time.process_time()
    tau = cga.tau(unit, unit)
    t5 = time.process_time()
    print(f"tau(u, u) = {field.format(tau)} ({t5 - t4:.3f} s CPU)")
    if tau != field.from_int(2):
        print("tau(u, u) differs from 2")
        return 1
    t6 = time.process_time()
    counts = (len(alg.lie_generators()), len(cga.kernel_generators()),
              sym2_generators(cga.algebra))
    t7 = time.process_time()
    print(f"generators: {counts[0]} of g, {counts[1]} of ker S, "
          f"{counts[2]} of S^2 g ({t7 - t6:.1f} s CPU)")
    print(f"peak RSS {resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024:.0f} MB")
    if counts != (16, 1, [(0, 0)]):
        print("generator counts differ from (16, 1, [(0, 0)])")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
