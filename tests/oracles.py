"""Oracles that only the tests use: independent routes to results that
cgva computes another way."""

import random
from typing import Optional

from cgva.cg import (Sym2, _field_scalars, star, sym2_generators, sym2_index,
                     sym2_of_vectors, sym2_square)
from cgva.degree2 import form3, jordan_product
from cgva.fields import int_coefficients
from cgva.lie import LieAlgebra
from cgva.linalg import LinComb, Matrix, _axpy
from cgva.report import SuiteReport
from cgva.vertex import VertexEngine, binom, state_degree


def lincomb_sum(items) -> LinComb:
    out: dict = {}
    for x in items:
        _axpy(out, x.terms.items())
    return LinComb._raw(out)


def int_map(field, table: list):
    """A map given on field scalars, as its table of images (for each key
    k, the (key, scalar) pairs of the image of e_k), made the int map that
    greedy_generators takes: the whole table times one common denominator
    of all its scalars (fields.int_coefficients), never an image scaled on
    its own."""
    ints, _ = int_coefficients(field, [c for image in table for _, c in image])
    it = iter(ints)
    return [[(m, next(it)) for m, _ in image] for image in table].__getitem__


def t_map(eng: VertexEngine, state: LinComb) -> Matrix:
    """T(d) = 2 d_1 as an endomorphism of g, through the public
    nth_product: column j is 2 d_1 (e_j(-1)|0>), read back as a vector
    (ValueError where it leaves degree 1)."""
    field, d = eng.field, eng.algebra.dim
    two = field.from_int(2)
    entries = {}
    for j in range(d):
        col = eng.nth_product(state, 1, LinComb.term(((1, j),), field.one))
        for i, c in eng.vector_of_state(col).items():
            entries[(i, j)] = two * c
    return Matrix(d, d, field, entries)


def abelian(dim: int, field) -> LieAlgebra:
    """An abelian algebra with the identity form."""
    labels = [f"x{i + 1}" for i in range(dim)]
    return LieAlgebra(field, labels, {}, Matrix.identity(dim, field),
                      name=f"abelian{dim}")


def d_pow(eng: VertexEngine, m: int, state: LinComb) -> LinComb:
    """The divided-power translation D^(m): v -> v_{-m-1}|0>, through the
    public nth_product."""
    if m < 0:
        raise ValueError("divided power D^(m) needs m >= 0")
    return eng.nth_product(state, -m - 1, eng.vacuum())


def split_components_union_find(rows: list[dict], ncols: int) -> list:
    """linalg._split_components as a union-find over the columns, with one
    find() per entry: (columns, rows) pairs ordered by least column, the
    column lists sorted, each component's rows in input order."""
    parent = list(range(ncols))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    seen = [False] * ncols
    for row in rows:
        it = iter(row)
        try:
            first = next(it)
        except StopIteration:
            continue
        seen[first] = True
        ra = find(first)
        for c in it:
            seen[c] = True
            rb = find(c)
            if ra != rb:
                parent[rb] = ra
                ra = find(ra)
    cols_of: dict[int, list[int]] = {}
    for c in range(ncols):
        if seen[c]:
            cols_of.setdefault(find(c), []).append(c)
    rows_of: dict[int, list[dict]] = {root: [] for root in cols_of}
    for row in rows:
        if row:
            rows_of[find(next(iter(row)))].append(row)
    return [(sorted(cols_of[root]), rows_of[root])
            for root in sorted(cols_of, key=lambda r: min(cols_of[r]))]


def casimir_element(alg: LieAlgebra) -> LinComb:
    """The Casimir as a symmetric 2-tensor: sum_i e_i u^i for dual bases e_i,
    u^i of the form, expressed on the basis {e_i e_j : i >= j} of S^2 g
    (keys are (i, j) pairs, i >= j)."""
    ginv = alg.gram_inverse()
    return LinComb._raw(_axpy({}, (((i, j) if i >= j else (j, i), c)
                                   for (j, i), c in ginv.entries.items())))


def s_map_two_products(alg: LieAlgebra, x: Sym2) -> Matrix:
    """S(x) with both orders of each double bracket summed on the integer
    lift, w ad_i ad_j + w ad_j ad_i, as cg.s_map summed it before it used
    Jacobi: the definition, at the cost of two double brackets per
    monomial, with the same scale 1/(2 t^2 D)."""
    lift = alg.integer_lift()
    field = alg.field
    weights, den = int_coefficients(field, x.terms.values())
    acc: dict = {}
    get = acc.get
    for (i, j), w in zip(x.terms, weights):
        lift.add_ad_product(acc, i, j, w)
        lift.add_ad_product(acc, j, i, w)
        for a, b in ((i, j), (j, i)):
            # 2 <e_a, e_q> e_b at entry (b, q)
            for q, v in lift.form[a].items():
                key = (b, q)
                acc[key] = get(key, 0) + 2 * w * v
    return Matrix._raw(alg.dim, alg.dim, field,
                       _field_scalars(field, acc, field.one / (2 * lift.t ** 2 * den)))


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


def comp_lemmas_by_public_calls(alg: LieAlgebra) -> dict:
    """comp_lemma_suite's thirteen checks on LinCombs through the public
    engine calls (nth_product, apply_mode, nth_sum), as the suite made them
    before they moved onto the engine's integers: each check's first
    failing basis pair or triple, as the suite's loops order them, or
    None."""
    eng = VertexEngine(alg)
    d = alg.dim
    labels = alg.labels
    vac = eng.vacuum()

    def vecst(x: LinComb) -> LinComb:
        return eng.state_of_vector(x)

    def neg1(x: LinComb, st: LinComb) -> LinComb:
        return eng.apply_mode(x, -1, st)

    br, fv = alg.bracket, alg.form_value
    basis = [alg.basis_vector(i) for i in range(d)]
    states = [vecst(v) for v in basis]
    brs = [[br(x, y) for y in basis] for x in basis]
    fvs = [[fv(x, y) for y in basis] for x in basis]
    pair = [[neg1(basis[ib], states[ic]) for ic in range(d)] for ib in range(d)]
    fails: dict = {}

    def check(name: str, ok: bool, where: tuple) -> None:
        fails.setdefault(name, None)
        if not ok and fails[name] is None:
            fails[name] = where

    for ia in range(d):
        a, A = basis[ia], states[ia]
        aa = pair[ia][ia]
        l_state = eng.apply_mode(a, -2, vac)
        for ib in range(d):
            b, B = basis[ib], states[ib]
            lbl = (labels[ia], labels[ib])
            ab_v = brs[ia][ib]
            fab = fvs[ia][ib]
            check("zeroth-product-is-bracket",
                  eng.nth_product(A, 0, B) == vecst(ab_v), lbl)
            check("first-product-is-form",
                  eng.nth_product(A, 1, B) == vac.scale(fab), lbl)
            bb = pair[ib][ib]
            check("second-mode-kills-squares",
                  not eng.apply_mode(a, 2, bb), lbl)
            a_ab_v = br(a, ab_v)
            AB, A_AB = vecst(ab_v), vecst(a_ab_v)
            AB_B = vecst(br(ab_v, b))
            check("double-zero-mode-on-square", not eng.nth_sum([
                (1, A, 0, eng.apply_mode(a, 0, bb)), (-2, AB, -1, AB),
                (-1, B, -1, A_AB), (-1, A_AB, -1, B)]), lbl)
            h_lhs = eng.apply_mode(a, -1, eng.apply_mode(a, 1, bb))
            h_rhs = neg1(a, AB_B) + neg1(a, B).scale(2 * fab)
            check("minus-one-one-mode-on-square", h_lhs == h_rhs, lbl)
            check("two-zero-mode-on-square",
                  not eng.apply_mode(a, 2, eng.apply_mode(a, 0, bb)), lbl)
            j_lhs = eng.apply_mode(a, 1, eng.apply_mode(a, 1, bb))
            j_scalar = 2 * fab * fab - fv(ab_v, ab_v)
            check("double-first-mode-is-form-square",
                  j_lhs == vac.scale(j_scalar), lbl)
            k_closed = vecst(a_ab_v + a.scale(2 * fab))
            check("square-acts-by-s-operator",
                  eng.nth_product(aa, 1, B) == k_closed
                  and eng.nth_product(B, 1, aa) == k_closed, lbl)
            check("translate-acts-by-bracket",
                  eng.nth_product(l_state, 1, B) == vecst(-ab_v), lbl)
            check("jacobi-cancellation", not eng.nth_sum([
                (1, A, -1, AB_B), (-1, AB_B, -1, A),
                (1, B, -1, A_AB), (-1, A_AB, -1, B)]), lbl)

    for ia in range(d):
        a, A = basis[ia], states[ia]
        for ib in range(d):
            b, B = basis[ib], states[ib]
            for ic in range(d):
                c, C = basis[ic], states[ic]
                lbl = (labels[ia], labels[ib], labels[ic])
                ab = brs[ia][ib]
                bc = pair[ib][ic]
                check("zero-mode-is-derivation", not eng.nth_sum([
                    (1, A, 0, bc), (-1, B, -1, vecst(brs[ia][ic])),
                    (-1, vecst(ab), -1, C)]), lbl)
                d_lhs = eng.apply_mode(a, 1, bc)
                d_rhs = vecst(br(ab, c)) + C.scale(fvs[ia][ib]) + B.scale(fvs[ia][ic])
                check("first-mode-on-pairs", d_lhs == d_rhs, lbl)
                check("second-mode-is-form-of-bracket",
                      eng.apply_mode(a, 2, bc) == vac.scale(fv(ab, c)), lbl)
    return fails


def times0(eng: VertexEngine, u: LinComb, v: LinComb) -> LinComb:
    """Borcherds' commutative x0 product on degree-2 states in
    characteristic 0, through public engine calls: u x0 v = u_1 v -
    1/2 D(u_2 v)."""
    half = eng.field.one / 2
    return eng.nth_product(u, 1, v) \
        - d_pow(eng, 1, eng.nth_product(u, 2, v)).scale(half)


def correspondence_pair_checks_by_public_calls(d2) -> list:
    """correspondence_suite's four checks on G x monomials (G the g-module
    generators of S^2 g, cg.sym2_generators) through the public engine
    calls, as the suite made them before they moved onto the engine's
    integers: (name, passed, details) in report order, and the formatted
    lambda or None.  The zeroth-product check is made in characteristic 0
    only; the pairing check is reported by the suite only once ker T
    exists."""
    alg, eng, pairs, cga = d2.algebra, d2.engine, d2.pairs, d2.cg
    field, labels, one = alg.field, alg.labels, alg.field.one
    theta_states = [d2.theta_pair(i, j) for (i, j) in pairs]
    gens = [sym2_index(i, j) for (i, j) in sym2_generators(alg)]

    def pair_name(p):
        return f"({labels[p[0]]}, {labels[p[1]]})"

    def first_bad_pair(bad):
        for s in gens:
            for t in range(len(pairs)):
                if bad(s, t):
                    return f"{pair_name(pairs[s])} x {pair_name(pairs[t])}"
        return None

    def commutator_off(s, t):
        u, v = theta_states[s], theta_states[t]
        lhs = eng.nth_product(u, 1, v) - eng.nth_product(v, 1, u)
        return lhs != d_pow(eng, 1, eng.nth_product(u, 2, v))

    def product_off(s, t):
        expect = d2.theta(star(alg, LinComb.term(pairs[s], one),
                               LinComb.term(pairs[t], one)))
        return jordan_product(eng, theta_states[s], theta_states[t]) != expect

    out = []
    for name, off in (("first-product-commutator-is-translate", commutator_off),
                      ("product-matches-star-exactly", product_off)):
        bad = first_bad_pair(off)
        out.append((name, bad is None, bad or "all pairs"))
    if field.char == 0:
        bad = first_bad_pair(
            lambda s, t: times0(eng, theta_states[s], theta_states[t])
            != jordan_product(eng, theta_states[s], theta_states[t]))
        out.append(("zeroth-product-matches-jordan", bad is None, bad or "all pairs"))

    im_coords = [cga.reduce_to_im(LinComb.term(p, one)) for p in pairs]
    lam = None

    def pairing_off(s, t):
        nonlocal lam
        tau = cga.tau(im_coords[s], im_coords[t])
        f3 = form3(eng, theta_states[s], theta_states[t])
        if lam is None and tau:
            lam = f3 / tau
        return f3 != (lam * tau if lam is not None else field.zero)

    bad = first_bad_pair(pairing_off)
    lam = field.format(lam) if lam is not None else None
    out.append(("pairing-proportional-to-tau", bad is None and lam is not None,
                bad or (f"lambda = {lam}" if lam is not None
                        else "tau vanished on every pair")))
    return out, lam


def axiom_suite_by_public_calls(alg: LieAlgebra, samples: int = 200,
                                seed: int = 0, max_degree: int = 4) -> SuiteReport:
    """axiom_suite through the public engine calls (nth_product, nth_sum,
    d_pow) on LinCombs, as the suite made its checks before they moved
    onto the engine's integers: the same samples, checks and report."""
    eng = VertexEngine(alg)
    rng = random.Random(seed)
    rep = SuiteReport("vertex-axioms",
                      meta={"algebra": alg.name, "samples": samples, "seed": seed,
                            "max_degree": max_degree})
    names = ["truncation", "vacuum", "creation", "grading", "skew-symmetry",
             "iterate-formula", "borcherds"]
    fails: dict[str, Optional[str]] = {k: None for k in names}

    def record(name: str, ok: bool, info: str) -> None:
        if not ok and fails[name] is None:
            fails[name] = info

    for it in range(samples):
        a = eng.random_homogeneous_state(rng, max_degree)
        b = eng.random_homogeneous_state(rng, max_degree)
        c = eng.random_homogeneous_state(rng, max_degree)
        da = state_degree(a) or 0
        db = state_degree(b) or 0
        dc = state_degree(c) or 0
        m = rng.randint(-3, 3)
        n = rng.randint(-3, 3)
        p = rng.randint(-3, 3)
        info = f"sample {it}: m={m} n={n} p={p}"

        record("truncation",
               not eng.nth_product(a, da + db, b)
               and not eng.nth_product(a, da + db + 2, b), info)
        vac_napped = eng.nth_product(eng.vacuum(), n, a)
        record("vacuum", vac_napped == (a if n == -1 else LinComb()), info)
        creation_ok = eng.nth_product(a, -1, eng.vacuum()) == a
        if n >= 0:
            creation_ok = creation_ok and not eng.nth_product(a, n, eng.vacuum())
        record("creation", creation_ok, info)

        anb = eng.nth_product(a, n, b)
        expected_deg = da + db - 1 - n
        record("grading",
               (not anb) or state_degree(anb) == expected_deg, info)

        skew = LinComb()
        for i in range(max(da + db - n, 0)):
            t = eng.nth_product(b, n + i, a)
            if t:
                t = d_pow(eng, i, t)
                skew = skew + t if (i + n + 1) % 2 == 0 else skew - t
        record("skew-symmetry", anb == skew, info)

        lhs = eng.nth_product(eng.nth_product(a, m, b), n, c)
        rhs = []
        imax = max(db + dc - 1 - n, da + dc - 1, 0)
        if m >= 0:
            imax = min(imax, m)
        for i in range(imax + 1):
            coef = (-1) ** i * binom(m, i)
            # the second term carries -(-1)^m
            rhs.append((coef, a, m - i, eng.nth_product(b, n + i, c)))
            rhs.append(((1 if m % 2 else -1) * coef, b, n + m - i,
                        eng.nth_product(a, i, c)))
        record("iterate-formula", lhs == eng.nth_sum(rhs), info)

        blhs = []
        imax = max(da + db - 1 - p, 0)
        if m >= 0:
            imax = min(imax, m)
        for i in range(imax + 1):
            blhs.append((binom(m, i), eng.nth_product(a, p + i, b), m + n - i, c))
        brhs = []
        imax = max(db + dc - 1 - n, da + dc - 1 - m, 0)
        if p >= 0:
            imax = min(imax, p)
        for i in range(imax + 1):
            coef = (-1) ** i * binom(p, i)
            # the second term carries -(-1)^p
            brhs.append((coef, a, m + p - i, eng.nth_product(b, n + i, c)))
            brhs.append(((1 if p % 2 else -1) * coef, b, n + p - i,
                         eng.nth_product(a, m + i, c)))
        record("borcherds", eng.nth_sum(blhs) == eng.nth_sum(brhs), info)

    for name in names:
        rep.add(name, fails[name] is None,
                fails[name] if fails[name] is not None
                else f"{samples} samples")
    return rep
