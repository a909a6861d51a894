#!/usr/bin/env python3
"""The level-one vacuum module of affine sl2, hands on.

States are linear combinations of PBW monomials a1(-m1)...ak(-mk)|0>.
Applying a mode with a nonnegative index triggers the commutation rules,
including the central term at level one; this script shows the
straightening happen and then exercises the general n-th products.

Run:  python3 demos/vacuum_module.py
"""

from cgva.fields import QQ, PrimeField
from cgva.lie import algebra_from_name
from cgva.vertex import VertexEngine, format_state, parse_state

alg = algebra_from_name("sl2", QQ)
eng = VertexEngine(alg)
vac = eng.vacuum()
E, H, F = 0, 1, 2

print("modes acting on the vacuum:")
st = eng.apply_mode(F, -1, vac)
print("  f(-1)|0>           =", format_state(alg, st))
print("  e(1) f(-1)|0>      =", format_state(alg, eng.apply_mode(E, 1, st)),
      " (central term: <e,f> times the level)")
print("  h(0) e(-1)|0>      =",
      format_state(alg, eng.apply_mode(H, 0, eng.apply_mode(E, -1, vac))))

# ordering: e(-1)f(-1)|0> is not a PBW monomial (e sorts after f at the
# same depth), so storing it forces one commutation
st = eng.apply_mode(E, -1, eng.apply_mode(F, -1, vac))
print("\ne(-1)f(-1)|0> straightened:")
print("  ", format_state(alg, st))

print("\nparsing goes through the same engine:")
for text in ("h(-1) h(-1) |0>", "2 * e(0) f(-1) |0>", "h(-3)|0>"):
    print(f"  {text!r:26} -> {format_state(alg, parse_state(eng, text))}")

a = eng.apply_mode(E, -1, vac)
b = eng.apply_mode(F, -1, vac)
print("\nn-th products of a = e(-1)|0> with b = f(-1)|0>:")
for n in (-2, -1, 0, 1):
    print(f"  a_({n}) b =", format_state(alg, eng.nth_product(a, n, b)))

print("\nskew-symmetry at n = 0:")
lhs = eng.nth_product(a, 0, b)
rhs = eng.nth_product(b, 0, a)
print("  a_0 b         =", format_state(alg, lhs))
print("  b_0 a         =", format_state(alg, rhs))
print("  sum           =", format_state(alg, lhs + rhs),
      " (D applied to a_1 b =", format_state(alg, eng.nth_product(a, 1, b)),
      "which D kills)")

print("\nthe same computation over F_7 is the mod-7 reduction:")
f7 = PrimeField(7)
alg7 = algebra_from_name("sl2", f7)
eng7 = VertexEngine(alg7)
vac7 = eng7.vacuum()
a7 = eng7.apply_mode(E, -1, vac7)
b7 = eng7.apply_mode(F, -1, vac7)
for n in (-2, -1):
    q = eng.nth_product(a, n, b)
    p = eng7.nth_product(a7, n, b7)
    reduced = {k: v for k, v in ((k, f7.parse(QQ.format(c))) for k, c in q.items()) if v}
    print(f"  a_({n}) b mod 7 =", format_state(alg7, p),
          "  agrees:", dict(p.items()) == reduced)
