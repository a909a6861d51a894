"""Oracles that only the tests use: independent routes to results that
cgva computes another way."""

from cgva.cg import Sym2, sym2_of_vectors, sym2_square
from cgva.lie import LieAlgebra
from cgva.linalg import LinComb, _axpy


def lincomb_sum(items) -> LinComb:
    out: dict = {}
    for x in items:
        _axpy(out, x.terms.items())
    return LinComb._raw(out)


def star_via_squares(alg: LieAlgebra, x: Sym2, y: Sym2) -> Sym2:
    """Independent oracle for star: expand both arguments into squares with
    ab = ((a+b)(a+b) - aa - bb)/2 and apply the defining formula on squares."""

    def square_form(a: LinComb, b: LinComb) -> Sym2:
        br = alg.bracket
        return lincomb_sum([
            sym2_of_vectors(a, br(b, br(b, a))),
            sym2_of_vectors(b, br(a, br(a, b))),
            sym2_square(br(a, b)),
            sym2_of_vectors(a, b).scale(2 * alg.form_value(a, b)),
        ])

    half = alg.field.one / 2

    def monomial_star(p, q) -> Sym2:
        i, j = p
        k, l = q
        a, b = alg.basis_vector(i), alg.basis_vector(j)
        c, d = alg.basis_vector(k), alg.basis_vector(l)
        # ab = (1/2)((a+b)^2 - a^2 - b^2) on both sides
        lefts = [(a + b, half), (a, -half), (b, -half)] if i != j else [(a, alg.field.one)]
        rights = [(c + d, half), (c, -half), (d, -half)] if k != l else [(c, alg.field.one)]
        out = LinComb()
        for u, cu in lefts:
            for v, cv in rights:
                out = out + square_form(u, v).scale(cu * cv)
        return out

    out = LinComb()
    for p, cx in x.items():
        for q, cy in y.items():
            out = out + monomial_star(p, q).scale(cx * cy)
    return out
