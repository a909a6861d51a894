"""The Chayet-Garibaldi algebra of a Lie algebra with invariant form.

Elements of S^2 g are LinCombs keyed by pairs (i, j) with i >= j, meaning
the unordered product e_i e_j.  The commutative product on S^2 g is, on
squares,

    aa * bb = a[b,[b,a]] + b[a,[a,b]] + [a,b][a,b] + 2<a,b> ab,

and the associated endomorphism is S(aa) = [a,[a,.]] + 2<a,.>a.  Both are
used through their full polarizations (derived once, by expanding each
square into a sum of squares and collecting the multilinear part), so only
divisions by 2 and 4 occur and odd characteristic is fine.  Both are summed
in Python ints on the algebra's integer lift (lie.IntegerLift), S in s_map
and * in star, and each distinct int becomes a field scalar once, at the
end; an F_p result is the reduction of the integer result by construction.
S(e_i e_j) sums one double bracket, 2 ad_i ad_j - ad_[e_i,e_j] for
ad_i ad_j + ad_j ad_i: Jacobi holds exactly on the lift over Q, where
both sides carry t^2, and mod p over F_p, so no entry changes.

The algebra A itself is the image of S with x * y transported along S; its
coordinates here are taken on the preimages of the leftmost independent
columns of the S-matrix ("pivot monomials").  A keeps no copy of S, only
the pivots, the RREF, ker S and S's pivot columns S_P: x lies in ker S
exactly when its im-coordinates vanish, S_P c is S of im-coordinates c,
and the form tau(f, S(e_i e_j)) = 1/2 <f(e_i), e_j> is read off S_P
through the symmetry of the invariant form (CGAlgebra.tau).
Well-definedness needs ker S to be an ideal for *,
which build_cg proves from g-module generators.  S and * are built from
the bracket and the invariant form, so both are g-equivariant, and
K = ker S is a g-submodule.  If G generates K as a g-module, then
star(G, S^2 g) in K gives star(K, S^2 g) in K, because
x.v (x) y = x.(v (x) y) - v (x) x.y.  So the check costs |G| * dim S^2 g
star evaluations instead of dim K * dim S^2 g.  On sl2, sl3, sl4, so5,
sp4 and E8 one kernel vector of one or two terms generates K.
"""

from __future__ import annotations

import random
from typing import Optional

from .fields import int_coefficients
from .lie import LieAlgebra, AlgebraError, once
from .linalg import (LinComb, Matrix, Subspace, _axpy, greedy_generators,
                     row_reduce, solve, submodule_generators)
from .report import SuiteReport

Sym2 = LinComb  # keys: (i, j) pairs with i >= j


def sym2_pairs(dim: int) -> list[tuple[int, int]]:
    """The basis of S^2 g in its fixed order: (i, j), i >= j, lexicographic."""
    return [(i, j) for i in range(dim) for j in range(i + 1)]


def sym2_index(i: int, j: int) -> int:
    if i < j:
        i, j = j, i
    return i * (i + 1) // 2 + j


def sym2_of_vectors(a: LinComb, b: LinComb) -> Sym2:
    """The product ab in S^2 g of two vectors of g."""
    return LinComb._raw(_axpy({}, (((i, j) if i >= j else (j, i), ca * cb)
                                   for i, ca in a.items() for j, cb in b.items())))


def sym2_square(a: LinComb) -> Sym2:
    return sym2_of_vectors(a, a)


def sym2_action(alg: LieAlgebra, x: int):
    """e_x acting on S^2 g as a derivation, x.(ab) = [x,a]b + a[x,b], on
    ints: a map from monomial indices to (index, int) pairs, as
    greedy_generators takes it, and the int D that the map is D times the
    action, ad e_x's common denominator (LieAlgebra.ad_ints)."""
    pairs = sym2_pairs(alg.dim)
    ad, den = alg.ad_ints(x)

    def image(k: int) -> list:
        i, j = pairs[k]
        return ([(sym2_index(m, j), c) for m, c in ad[i]]
                + [(sym2_index(i, m), c) for m, c in ad[j]])

    return image, den


@once
def sym2_generators(alg: LieAlgebra) -> list[tuple[int, int]]:
    """S^2 g monomials that generate S^2 g as a g-module: the
    greedy_generators walk over the monomials in the fixed order, under
    the Lie generators of g, up to all of S^2 g.  It needs only ad, not A:
    CGAlgebra (the unit) and DegreeTwo (T after theta = S on generators,
    the correspondence's G) share it, so it is kept with the algebra."""
    pairs = sym2_pairs(alg.dim)
    n = len(pairs)
    maps = [sym2_action(alg, x)[0] for x in alg.lie_generators()]
    walk, _ = greedy_generators(
        (LinComb.term(k, alg.field.one) for k in range(n)),
        lambda kept: maps, n, alg.field, n)
    return [pairs[next(iter(g))] for g in walk]


def _field_scalars(field, acc: dict, scale) -> dict:
    """acc's ints times scale as field scalars, with the zeros dropped.
    Each distinct int becomes a field scalar once: few values recur."""
    made: dict = {}  # int -> field scalar, None if zero
    out = {}
    for key, v in acc.items():
        y = made.get(v, made)
        if y is made:
            y = field.from_int(v) * scale
            y = made[v] = y if y else None
        if y is not None:
            out[key] = y
    return out


def star(alg: LieAlgebra, x: Sym2, y: Sym2) -> Sym2:
    """The commutative product on S^2 g, by the polarized closed form: for
    monomials x = e_i e_j and y = e_k e_l,

        x * y = 1/4 (e_i[e_k,[e_l,e_j]] + e_i[e_l,[e_k,e_j]] + ...)
              + 1/2 ([e_i,e_k][e_j,e_l] + [e_i,e_l][e_j,e_k])
              + 1/2 (<e_i,e_k> e_j e_l + <e_i,e_l> e_j e_k + ...),

    with eight nested terms a[b,[c,d]], where a and d are the two factors
    of one argument and b, c those of the other, and four form terms, one
    for each factor of x paired with each factor of y.  Summed in ints on the
    algebra's integer lift, like s_map: every term carries t^2 there, so
    with the coefficients of x and y as ints over common denominators D_x
    and D_y the sum is 4 t^2 D_x D_y (x * y)."""
    lift = alg.integer_lift()
    field = alg.field
    ad, form = lift.ad, lift.form
    wx, dx = int_coefficients(field, x.terms.values())
    wy, dy = int_coefficients(field, y.terms.values())
    acc: dict = {}
    get = acc.get
    for (i, j), u in zip(x.terms, wx):
        for (k, l), v in zip(y.terms, wy):
            w = u * v
            for a, b, c, d in ((i, k, l, j), (i, l, k, j), (j, k, l, i),
                               (j, l, k, i), (k, i, j, l), (k, j, i, l),
                               (l, i, j, k), (l, j, i, k)):
                # w a[b,[c,d]]
                adb = ad[b]
                for m, cm in ad[c][d]:
                    cm *= w
                    for r, cr in adb[m]:
                        key = (a, r) if a >= r else (r, a)
                        acc[key] = get(key, 0) + cm * cr
            w2 = 2 * w
            for a, b, c, d in ((i, k, j, l), (i, l, j, k)):
                # 2w [a,b][c,d]
                cd = ad[c][d]
                for m, cm in ad[a][b]:
                    cm *= w2
                    for r, cr in cd:
                        key = (m, r) if m >= r else (r, m)
                        acc[key] = get(key, 0) + cm * cr
            for a, b, c, d in ((i, k, j, l), (i, l, j, k), (j, k, i, l),
                               (j, l, i, k)):
                # 2w <a,b> cd
                f = form[a].get(b)
                if f:
                    key = (c, d) if c >= d else (d, c)
                    acc[key] = get(key, 0) + w2 * f
    scale = field.one / (4 * lift.t ** 2 * dx * dy)
    return LinComb._raw(_field_scalars(field, acc, scale))


def s_map(alg: LieAlgebra, x: Sym2) -> Matrix:
    """The endomorphism S(x) of g.  On a monomial e_i e_j,

        S(e_i e_j) b = 1/2([e_i,[e_j,b]] + [e_j,[e_i,b]]) + <e_i,b>e_j + <e_j,b>e_i,

    summed as ad_i ad_j - 1/2 ad_[e_i,e_j] plus the form terms, since
    Jacobi gives ad_j ad_i = ad_i ad_j - ad_[e_i,e_j]: one double bracket
    per monomial.  Summed in ints on the algebra's integer lift (see
    lie.IntegerLift), where ad_i ad_j, ad_[b_i,b_j] and the form values all
    carry t^2, so the identity holds there exactly over Q, and mod p over
    F_p.  With the coefficients of x as ints over one common denominator D,
    the sum is 2 t^2 D S(x), and each entry becomes a field scalar once,
    at the end.  AlgebraError if Jacobi fails (LieAlgebra.validate)."""
    report = alg.validate()
    if not report.jacobi_ok:
        raise AlgebraError("S is summed by the Jacobi identity, which fails "
                           f"on basis triple {report.jacobi_witness}")
    lift = alg.integer_lift()
    field = alg.field
    weights, den = int_coefficients(field, x.terms.values())
    acc: dict = {}
    get = acc.get
    for (i, j), w in zip(x.terms, weights):
        lift.add_ad_product(acc, i, j, 2 * w)
        for k, c in lift.ad[i][j]:  # - w ad_[b_i,b_j]
            lift.add_ad(acc, k, -w * c)
        for a, b in ((i, j), (j, i)):
            # 2 <e_a, e_q> e_b at entry (b, q)
            for q, v in lift.form[a].items():
                key = (b, q)
                acc[key] = get(key, 0) + 2 * w * v
    return Matrix._raw(alg.dim, alg.dim, field,
                       _field_scalars(field, acc, field.one / (2 * lift.t ** 2 * den)))


def s_matrix(alg: LieAlgebra) -> Matrix:
    """All of S at once: a d^2 x dim(S^2 g) matrix, columns in the fixed
    monomial order, rows indexed p*d + q for endomorphism entry (p, q)."""
    d = alg.dim
    one = alg.field.one
    pairs = sym2_pairs(d)
    entries: dict = {}
    for col, pair in enumerate(pairs):
        for (p, q), v in s_map(alg, LinComb.term(pair, one)).entries.items():
            entries[(p * d + q, col)] = v
    return Matrix._raw(d * d, len(pairs), alg.field, entries)


class CGAlgebra:
    """A = im S with the transported product, in pivot-monomial coordinates."""

    def __init__(self, algebra: LieAlgebra, pivots: list[int],
                 rref_rows: list[LinComb], kernel: Subspace):
        self.algebra = algebra
        self.field = algebra.field
        self.pivots = pivots
        self.rref_rows = rref_rows
        self.kernel = kernel
        self.dim = len(pivots)
        self.pairs = sym2_pairs(algebra.dim)
        self.im_monomials = [self.pairs[c] for c in pivots]
        self._rref_cols: dict[int, list] = {}
        for t, row in enumerate(rref_rows):
            for col, v in row.items():
                self._rref_cols.setdefault(col, []).append((t, v))

    # -- coordinates -------------------------------------------------------

    def reduce_to_im(self, x: Sym2) -> LinComb:
        """Coordinates of S(x) on {S(pivot monomial)}; kernel part drops out.
        Each term of x reads the RREF entries of its own column."""
        out: dict = {}
        for (i, j), w in x.items():
            _axpy(out, self._rref_cols.get(sym2_index(i, j), ()), w)
        return LinComb._raw(dict(sorted(out.items())))

    def lift(self, coords: LinComb) -> Sym2:
        """The canonical preimage: the same combination of pivot monomials."""
        return LinComb({self.im_monomials[t]: c for t, c in coords.items()})

    def in_kernel(self, x: Sym2) -> bool:
        """Whether S(x) = 0: exactly when x's im-coordinates vanish, because
        the columns S(pivot monomial t) are a basis of im S and column c of
        S is sum_t R[t, c] S(pivot monomial t), with R the RREF."""
        return not self.reduce_to_im(x)

    @once
    def s_im(self) -> list[dict]:
        """S_P = S[:, pivots], a basis of im S, with S = S_P R for the RREF
        R: one flat column per pivot monomial, s_map's entry (p, q) at key
        p d + q.  tau, unit() and DegreeTwo.kernel read it."""
        alg, d, one = self.algebra, self.algebra.dim, self.field.one
        return [{p * d + q: v for (p, q), v in
                 s_map(alg, LinComb.term(m, one)).entries.items()}
                for m in self.im_monomials]

    @once
    def kernel_generators(self) -> list[LinComb]:
        """Kernel basis vectors that generate ker S as a g-module under the
        Lie generators of g (linalg.submodule_generators).  The proof
        obligation, closure == ker S, holds exactly when ker S is a
        g-submodule: checked rather than assumed from the equivariance of
        S.  AlgebraError says otherwise."""
        gens, p = submodule_generators(
            self.kernel, [sym2_action(self.algebra, x)[0]
                          for x in self.algebra.lie_generators()])
        if p is not None:
            raise AlgebraError(
                "ker S is not a g-submodule: the closure of its generators "
                f"differs from it at pivot monomial {self.pairs[p]}")
        return gens

    @once
    def star_ideal_witness(self) -> Optional[tuple[int, int]]:
        """The proof obligation for the transported product: star(v, y) must
        lie in ker S for every v in ker S and every S^2 g monomial y.  By
        equivariance it is enough to check v in kernel_generators(); they
        are checked in order, against y in the fixed monomial order, and
        the first y where it fails is returned, or None."""
        one = self.field.one
        for g in self.kernel_generators():
            g_sym = LinComb({self.pairs[c]: cv for c, cv in g.items()})
            for y in self.pairs:
                if not self.in_kernel(star(self.algebra, g_sym,
                                           LinComb.term(y, one))):
                    return y
        return None

    # -- products and the form ---------------------------------------------

    def diamond(self, cx: LinComb, cy: LinComb) -> LinComb:
        """The product of A in im-coordinates: S(x) diamond S(y) = S(x * y)."""
        return self.reduce_to_im(star(self.algebra, self.lift(cx), self.lift(cy)))

    def tau(self, cx: LinComb, cy: LinComb):
        """tau(S(x), S(y)) for im-coordinates cx and cy, read off S_P:
        tau(f, S(e_i e_j)) = 1/2 <f(e_i), e_j>, legitimate because im S
        consists of form-symmetric operators.  With (i_t, j_t) =
        im_monomials[t], that is 1/2 sum_s sum_t cx_s cy_t sum_r
        S_P[r d + i_t, s] <e_r, e_(j_t)>, the pairs (r d + i_t,
        <e_r, e_(j_t)>) made once per A in _tau_pairs."""
        cols, pairs = self.s_im(), self._tau_pairs()
        out = self.field.zero
        for s, a in cx.items():
            col = cols[s]
            for t, b in cy.items():
                for k, g in pairs[t]:
                    v = col.get(k)
                    if v is not None:
                        out = out + a * b * v * g
        return out * (self.field.one / 2)

    @once
    def _tau_pairs(self) -> list[list]:
        """For each im-basis index t, the pairs (r d + i_t, <e_r, e_(j_t)>)
        with a nonzero form value.  <e_r, e_j> is entry r of
        form_apply(e_j) because the form is symmetric, which _construct
        requires."""
        alg, d = self.algebra, self.algebra.dim
        return [[(r * d + i, k)
                 for r, k in alg.form_apply(alg.basis_vector(j)).items()]
                for i, j in self.im_monomials]

    # -- the unit ----------------------------------------------------------

    @once
    def unit(self) -> Optional[LinComb]:
        """Im-coordinates of the unit, or None.  A is unital exactly when the
        identity endomorphism lies in im S, and then Id is the unit.  The
        columns of S_P (s_im) are a basis of im S, so S_P c = Id has at
        most one solution, the unit's im-coordinates, solved for once.

        That u acts as the unit is checked only on the g-module generators
        g of S^2 g from sym2_generators: diamond(u, S(g)) = S(g).
        This covers every y in S^2 g, because Phi(y) = S(lift(u) * y) - S(y)
        is g-equivariant.  S(lift u) = Id is invariant, so x.lift(u) lies
        in ker S for every x in g, and ker S is a *-ideal, as build_cg has
        proved; so Phi(x.y) = x.Phi(y), and Phi vanishes on the g-module
        that the generators span, which is S^2 g.  AlgebraError if it does
        not vanish on them."""
        d = self.algebra.dim
        idvec = LinComb({i * d + i: self.field.one for i in range(d)})
        coords = solve(Matrix.from_columns(self.s_im(), d * d, self.field), idvec)
        if coords is not None:
            for g in sym2_generators(self.algebra):
                s_g = self.reduce_to_im(LinComb.term(g, self.field.one))
                if self.diamond(coords, s_g) != s_g:
                    raise AlgebraError(
                        "identity endomorphism is in im S but does not act "
                        "as a unit; well-definedness must have failed")
        return coords

    def export_tables(self) -> dict:
        """Dense product and form tables, JSON-ready.  Intended for desk-size
        algebras; the practical ceiling is a few thousand dimensions."""
        fmt = self.field.format
        e = [LinComb.term(t, self.field.one) for t in range(self.dim)]
        products = []
        for a in range(self.dim):
            for b in range(a, self.dim):
                prod = self.diamond(e[a], e[b])
                if prod:
                    products.append([a, b, [[t, fmt(c)] for t, c in sorted(prod.items())]])
        tau = [[s, t, fmt(v)] for s in range(self.dim) for t in range(self.dim)
               if (v := self.tau(e[s], e[t]))]
        return {
            "dim": self.dim,
            "im_monomials": [list(p) for p in self.im_monomials],
            "products": products,
            "tau": tau,
        }

    def __repr__(self) -> str:
        return f"CGAlgebra(dim {self.dim} from {self.algebra.name})"


def _construct(alg: LieAlgebra) -> CGAlgebra:
    """A = im S with its RREF and ker S, before the *-ideal proof obligation."""
    report = alg.validate()
    if not report.structure_ok:
        raise AlgebraError("algebra failed structural validation; refusing to build")
    if not report.nondegenerate_ok:
        raise AlgebraError("bilinear form is degenerate; the construction needs "
                           "a nondegenerate invariant form")
    return CGAlgebra(alg, *row_reduce(s_matrix(alg)))


def build_cg(alg: LieAlgebra) -> CGAlgebra:
    """Construct A = (im S, diamond) for a validated algebra.

    The transported product is well defined only if ker S is a *-ideal, so
    the build discharges that proof obligation with
    CGAlgebra.star_ideal_witness and raises AlgebraError where it fails.
    The proof checks g-module generators G of ker S against every monomial:
    |G| * dim S^2 g star evaluations, after a closure of G under the Lie
    generators of g that spans ker S.  Where only dim A is wanted
    (criterion 8 at E8), take the rank of s_matrix with matrix_rank.
    """
    cga = _construct(alg)
    witness = cga.star_ideal_witness()
    if witness is not None:
        raise AlgebraError(
            f"ker S is not a *-ideal at monomial {witness}; the product "
            "does not descend to im S")
    return cga


# -- identity suite --------------------------------------------------------


def identity_suite(cga: CGAlgebra, samples: int = 100,
                   seed: int = 0) -> SuiteReport:
    """Operator identities tying star, S and ad together, checked exactly.

    For each pair (a, b) of basis elements (all pairs when dim g <= 10,
    seeded samples otherwise):

      (i)  [ad_b, S(aa)] = 2 S(a [b,a])
      (ii) S(aa * bb) = 1/2 [ad_b, [ad_b, S(aa)]] + S((S(aa)b) b)

    plus associativity of tau and the *-ideal property of ker S, the latter
    proved from g-module generators of ker S checked against every S^2 g
    monomial (CGAlgebra.star_ideal_witness); its proof, if build_cg
    already ran it, is not repeated.
    """
    alg = cga.algebra
    rep = SuiteReport("cg-identities", meta={"algebra": alg.name, "samples": samples,
                                            "seed": seed})
    d = alg.dim
    rng = random.Random(seed)
    if d <= 10:
        pairs = [(i, j) for i in range(d) for j in range(d)]
    else:
        pairs = [(rng.randrange(d), rng.randrange(d)) for _ in range(samples)]

    half = alg.field.one / 2
    ok_i = ok_ii = True
    witness_i = witness_ii = None
    for (ia, ib) in pairs:
        a, b = alg.basis_vector(ia), alg.basis_vector(ib)
        saa = s_map(alg, sym2_square(a))
        adb = alg.ad_basis(ib)
        lhs = adb @ saa - saa @ adb
        rhs = s_map(alg, sym2_of_vectors(a, alg.bracket(b, a))).scale(2)
        if ok_i and lhs != rhs:
            ok_i, witness_i = False, (alg.labels[ia], alg.labels[ib])
        sbb_prod = s_map(alg, star(alg, sym2_square(a), sym2_square(b)))
        rhs2 = (adb @ lhs - lhs @ adb).scale(half) \
            + s_map(alg, sym2_of_vectors(saa.mul_vec(b), b))
        if ok_ii and sbb_prod != rhs2:
            ok_ii, witness_ii = False, (alg.labels[ia], alg.labels[ib])
    rep.add("bracket-of-S-is-S-of-bracket", ok_i,
            None if ok_i else f"failed at pair {witness_i}")
    rep.add("product-against-a-square", ok_ii,
            None if ok_ii else f"failed at pair {witness_ii}")

    ideal_witness = cga.star_ideal_witness()
    rep.add("kernel-is-star-ideal", ideal_witness is None,
            None if ideal_witness is None
            else f"failed at monomial {ideal_witness}")

    # tau associativity: tau(x<>y, z) = tau(x, y<>z)
    one = alg.field.one
    assoc_ok = True
    assoc_witness = None
    n = cga.dim
    if n:
        if n <= 12:
            triples = [(x, y, z) for x in range(n) for y in range(n) for z in range(n)]
        else:
            triples = [(rng.randrange(n), rng.randrange(n), rng.randrange(n))
                       for _ in range(samples)]
        for (x, y, z) in triples:
            ex, ey, ez = (LinComb.term(t, one) for t in (x, y, z))
            left = cga.tau(cga.diamond(ex, ey), ez)
            right = cga.tau(ex, cga.diamond(ey, ez))
            if left != right:
                assoc_ok, assoc_witness = False, (x, y, z)
                break
    rep.add("tau-associative", assoc_ok,
            None if assoc_ok else f"failed at im-basis triple {assoc_witness}")
    basis = [LinComb.term(t, one) for t in range(n)]
    sym_witness = next(((s, t) for s in range(n) for t in range(s)
                        if cga.tau(basis[s], basis[t])
                        != cga.tau(basis[t], basis[s])), None)
    rep.add("tau-symmetric", sym_witness is None,
            None if sym_witness is None else f"failed at im-basis pair {sym_witness}")
    return rep
