#!/usr/bin/env python3
"""Walk through the construction of A from a simple Lie algebra.

Everything happens on the symmetric square S^2 g: the star product, the
map S into End(g), and the image A = im S that carries the transported
product.  sl2 is small enough to print every intermediate object.

Run:  python3 demos/build_symmetric_square.py
"""

from cgva.cg import build_cg, s_map, s_matrix, star, sym2_pairs
from cgva.fields import QQ, PrimeField
from cgva.lie import algebra_from_name
from cgva.linalg import LinComb, matrix_rank


def banner(title):
    print()
    print(title)
    print("-" * len(title))


def show_sym2(alg, x):
    if not x:
        return "0"
    parts = []
    for (i, j), c in sorted(x.items()):
        mono = alg.labels[i] + alg.labels[j]
        parts.append(f"{alg.field.format(c)} {mono}")
    return "  +  ".join(parts)


def main():
    alg = algebra_from_name("sl2", QQ)

    banner("The input algebra")
    print(f"{alg.name}: dim {alg.dim}, basis {', '.join(alg.labels)}")
    for i in range(alg.dim):
        for j in range(i + 1, alg.dim):
            br = alg.bracket_basis(i, j)
            terms = " + ".join(f"{QQ.format(c)} {alg.labels[k]}"
                               for k, c in sorted(br.items())) or "0"
            print(f"  [{alg.labels[i]}, {alg.labels[j]}] = {terms}")
    print(f"  normalized form: <e,f> = {QQ.format(alg.form_value(alg.basis_vector(0), alg.basis_vector(2)))},"
          f" <h,h> = {QQ.format(alg.form_value(alg.basis_vector(1), alg.basis_vector(1)))}")
    print(f"  Casimir acts by {QQ.format(alg.casimir_scalar())}"
          " (twice the dual Coxeter number, by the normalization)")

    banner("The star product on S^2 g")
    pairs = sym2_pairs(alg.dim)
    print("symmetric-square basis:",
          ", ".join(alg.labels[i] + alg.labels[j] for (i, j) in pairs))
    ee = LinComb.term((0, 0), QQ.one)
    ff = LinComb.term((2, 2), QQ.one)
    print("  ee * ff =", show_sym2(alg, star(alg, ee, ff)))
    hh = LinComb.term((1, 1), QQ.one)
    print("  hh * hh =", show_sym2(alg, star(alg, hh, hh)))

    banner("The map S and its image")
    for mono, label in ((ee, "ee"), (LinComb.term((2, 0), QQ.one), "fe"), (hh, "hh")):
        m = s_map(alg, mono)
        cells = {rc: QQ.format(v) for rc, v in m.entries.items()}
        print(f"  S({label}) = {cells or '0'}")
    cga = build_cg(alg)
    print(f"  dim S^2 g = {len(pairs)}, rank S = {cga.dim}, ker S = {cga.kernel.dim}")
    print(f"  A is spanned by S of: "
          f"{', '.join(alg.labels[i] + alg.labels[j] for (i, j) in cga.im_monomials)}")

    banner("The unit and the trace form")
    unit = cga.unit()
    print("  unit coordinates on the pivot monomials:",
          {t: QQ.format(c) for t, c in unit.items()})
    print("  as an element of S^2 g:", show_sym2(alg, cga.lift(unit)))
    print("  S(that element) is the identity:",
          s_map(alg, cga.lift(unit)).entries == {(i, i): QQ.one for i in range(alg.dim)})
    print("  unit diamond unit == unit:", cga.diamond(unit, unit) == unit)
    print("  tau(unit, unit) =", QQ.format(cga.tau(unit, unit)))

    banner("The same construction over F_7")
    f7 = PrimeField(7)
    alg7 = algebra_from_name("sl2", f7)
    cga7 = build_cg(alg7)
    print(f"  rank S = {cga7.dim}, ker S = {cga7.kernel.dim} (matches the rational answer)")
    print(f"  rank of the full S matrix recomputed directly: "
          f"{matrix_rank(s_matrix(alg7))}")


if __name__ == "__main__":
    main()
