#!/usr/bin/env python3
"""From the symmetric square to degree 2 of the vacuum module and back.

theta embeds S^2 g into the degree-2 slice, T sends that slice back to
endomorphisms of g, and the composite recovers S.  On the quotient by
ker T the first products turn into the finite-dimensional algebra, with
one scalar lambda relating the two trace forms.  The last section builds
the conformal vector out of the algebra unit.

Run:  python3 demos/degree_two_correspondence.py
"""

from cgva.cg import build_cg, s_map, star
from cgva.degree2 import DegreeTwo, correspondence_suite, form3, jordan_product
from cgva.fields import QQ, parse_field_spec
from cgva.lie import algebra_from_name
from cgva.linalg import LinComb, Matrix
from cgva.vertex import format_state

alg = algebra_from_name("sl2", QQ)
cga = build_cg(alg)
d2 = DegreeTwo(cga)
eng = d2.engine

hh = LinComb.term((1, 1), QQ.one)
ef = LinComb.term((2, 0), QQ.one)

print("theta on monomials:")
print("  theta(hh) =", format_state(alg, d2.theta(hh)))
print("  theta(ef) =", format_state(alg, d2.theta(ef)))



def t_of(state):
    """T(d) = 2 d_1 as a matrix on g: column j is 2 d_1 e_j(-1)|0>."""
    return Matrix(alg.dim, alg.dim, QQ, {
        (i, j): 2 * c for j in range(alg.dim)
        for i, c in eng.vector_of_state(eng.nth_product(
            state, 1, eng.state_of_vector(alg.basis_vector(j)))).items()})


print("\nT recovers S through theta:")
m = t_of(d2.theta(hh))
print("  T(theta(hh)) entries:", {rc: QQ.format(v) for rc, v in m.entries.items()})
print("  equals S(hh):        ", m == s_map(alg, hh))

print("\nthe first product transports the star product (mod ker T):")
prod = jordan_product(eng, d2.theta(hh), d2.theta(ef))
target = d2.theta(star(alg, hh, ef))
drift = d2.coords(prod - target)
print("  theta(hh) . theta(ef) - theta(hh * ef) lies in ker T:",
      d2.kernel().contains(drift))

print("\nlambda between the two trace forms, field by field:")
for spec in ("q", "fp:7", "fp:11"):
    a = algebra_from_name("sl2", parse_field_spec(spec))
    rep = correspondence_suite(DegreeTwo(build_cg(a)))
    print(f"  {spec:6} lambda = {rep.meta['form_lambda']:>4}   "
          f"dims (S^2 g, ker S, A, ker T) = {rep.meta['dims']}   "
          f"passed: {rep.passed}")

print("\nthe conformal vector, built from the unit of A:")
omega = d2.theta(cga.lift(cga.unit())).scale(2)
print("  omega =", format_state(alg, omega))
ok = all(eng.apply_mode(i, 1, omega) == LinComb.term(((1, i),), QQ.one)
         for i in range(alg.dim))
print("  a(1) omega = a(-1)|0> for every basis vector:", ok)
print("  a(2) omega = 0 for every basis vector:",
      all(not eng.apply_mode(i, 2, omega) for i in range(alg.dim)))
charge = form3(eng, omega, omega) * 2
print("  central charge =", QQ.format(charge),
      "  (4 tau(Id, Id) =", QQ.format(cga.tau(cga.unit(), cga.unit()) * 4) + ")")

print("\nfor comparison, the rank-two case:")
sl3 = algebra_from_name("sl3", QQ)
rep3 = correspondence_suite(DegreeTwo(build_cg(sl3)))
print("  sl3 dims =", rep3.meta["dims"], "  lambda =", rep3.meta["form_lambda"],
      "  passed:", rep3.passed)
