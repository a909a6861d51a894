"""The degree-2 slice of the vacuum module and its finite-dimensional shadow.

Degree 2 of the vacuum module carries a commutative product
d • e = (d_1 e + e_1 d)/2 and a scalar pairing (d, e) -> d_3 e.  This
module builds the linear dictionary between that slice and the symmetric
square of the underlying algebra:

  * theta embeds S^2 g into degree 2: 4ab -> a(-1)b(-1)|0> + b(-1)a(-1)|0>,
  * T(d) = 2 d_1 makes a degree-2 state an endomorphism of g,
  * kernel_t gives ker T, the degree-2 slice of the maximal graded
    ideal of the vacuum module.

The verification suites then confirm, exactly, that (im S, diamond, tau)
and the quotient of the symmetric degree-2 slice by ker T are the same
algebra, with a single measured proportionality constant on the bilinear
form; that the quotient carries a conformal vector normalizing the unit;
and that ker T behaves as an ideal slice under all nonnegative modes.

The correspondence is proved from g-module generators rather than pair by
pair.  The zero mode x_0 is a derivation of every n-th product and theta
is g-equivariant, so each bilinear check B satisfies
B(x.g, y) = x.B(g, y) - B(g, x.y): it vanishes on all pairs once it
vanishes on G x every monomial, for any G that generates S^2 g as a
g-module.  Likewise the quotient's descent and the ideal-closure probes
are checked on g-module generators of ker T under the engine's zero
modes: A's generators of ker S, shifted (DegreeTwo.kernel_generators).
On sl4 that is 3 x 120 pairs per check instead of 7260, and one kernel
vector instead of 84.  The isomorphism between im S and the quotient is
derived from these checks, not computed a second time.

ker T is read off A.  theta(e_i e_j) is sym_ij / 4, its one statement
(DegreeTwo.theta_pair), so T(sym_ij) = 4 S(e_i e_j), and ker T is A's
ker S shifted by dim g, with S neither built nor eliminated again, and no
rank taken.  That rests on four engine facts, each a zero test on its
integers (VertexEngine._vanishes): e_i(-1)e_j(-1)|0> + e_j(-1)e_i(-1)|0>
= sym_ij, x_0 sym_ij = sym of x.(e_i e_j) for the Lie generators x, T
after theta = S on the generators of S^2 g, and T(e_k(-2)|0>) = -2 ad
e_k; and on an argument (DegreeTwo.kernel).  DegreeTwo.kernel is the
one statement of all of them: it checks each, in order, and refuses
(AlgebraError) where one fails, as it refuses a center.
Every degree-2 entry point reads ker T through it, so kernel_t,
sym_quotient, conformal_suite and ideal_closure_suite refuse a failed
premise (exit 1 in the CLI), and in correspondence_suite it fails
kernel-of-t and ends the report.  There:

  * theta-embeds-the-symmetric-square and t-after-theta-is-s report the
    witnesses DegreeTwo.kernel refuses by;
  * theta-of-kernel-is-kernel-of-t and kernel-of-t-in-sym-part then
    follow: theta is linear and ker T is ker S shifted.

The engine's side of correspondence_suite's pair checks and of
sym_quotient's descent runs on its integers too, by the same zero test.
The states x(-1)|0> and sym_ij are packed once per DegreeTwo
(DegreeTwo._sym_operands), and the witnesses, the pair checks and the
descent read that one pack; DegreeTwo.kernel makes no public engine
call, and only conformal_suite and ideal_closure_suite make them.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import chain
from typing import Optional

from .cg import (CGAlgebra, s_map, star, sym2_action, sym2_generators,
                 sym2_index)
from .fields import int_coefficients
from .lie import AlgebraError, once
from .linalg import LinComb, Subspace, _axpy
from .report import SuiteReport
from .vertex import VertexEngine, state_degree

# ideal_closure_suite lifts ker T by creation modes up to this degree
DEGREE_CAP = 4


class DegreeTwo:
    """Coordinates on the degree-2 component of the vacuum module.

    The basis is the translation part e_k(-2)|0> for k < dim g, followed
    by the symmetrized pairs

        sym_ij = 2 e_i(-1)e_j(-1)|0> - [e_i, e_j](-2)|0>,   i >= j,

    in sym2_pairs order.  Every degree-2 state splits uniquely across the
    two groups, and the span of the sym_ij is exactly the image of theta.
    """

    def __init__(self, cga: CGAlgebra):
        self.cg, self.algebra, self.field = cga, cga.algebra, cga.field
        self.engine = VertexEngine(cga.algebra)
        self.pairs = cga.pairs
        self.dim = cga.algebra.dim + len(self.pairs)
        self._pack: Optional[tuple] = None  # (width, _sym_operands)

    # -- coordinates -------------------------------------------------------

    def coords(self, state: LinComb) -> LinComb:
        """Coordinates of a degree-2 state; rejects anything else.  A term
        c e_i(-1)e_j(-1)|0> puts c/2 at sym_ij and adds (c/2)[e_i, e_j] to
        the translation part.  Keys: sym keys in state order, then
        translation keys ascending."""
        d = self.algebra.dim
        two = self.field.from_int(2)
        out: dict = {}
        trans: dict = {}
        for mo, c in state.items():
            if len(mo) == 1 and mo[0][0] == 2:
                _axpy(trans, [(mo[0][1], c)])
            elif len(mo) == 2 and mo[0][0] == 1 and mo[1][0] == 1:
                i, j = mo[0][1], mo[1][1]
                half_c = c / two
                out[d + sym2_index(i, j)] = half_c
                _axpy(trans, self.algebra.bracket_basis(i, j).items(), half_c)
            else:
                raise ValueError("state is not homogeneous of degree 2")
        for k in sorted(trans):
            out[k] = trans[k]
        return LinComb._raw(out)

    def state(self, coords: LinComb) -> LinComb:
        """Inverse of coords."""
        d = self.algebra.dim
        two = self.field.from_int(2)
        out: dict = {}
        for t, c in coords.items():
            if t < d:
                _axpy(out, [(((2, t),), c)])
            else:
                i, j = self.pairs[t - d]
                _axpy(out, [(((1, i), (1, j)), two * c)])
                _axpy(out, ((((2, k),), g)
                            for k, g in self.algebra.bracket_basis(i, j).items()), -c)
        return LinComb._raw(out)

    # -- theta and T -------------------------------------------------------

    def theta_pair(self, i: int, j: int) -> LinComb:
        """theta(e_i e_j) = sym_ij / 4; the engine agrees (theta_witness)."""
        return self.state(LinComb.term(self.algebra.dim + sym2_index(i, j),
                                       self.field.one / 4))

    def theta(self, x: LinComb) -> LinComb:
        """theta of a symmetric-square element, read from coordinates."""
        d, quarter = self.algebra.dim, self.field.one / 4
        return self.state(LinComb._raw({d + sym2_index(i, j): c * quarter
                                         for (i, j), c in x.items()}))

    def _sym_operands(self) -> tuple[list, list, int]:
        """x(-1)|0> for every basis index x and every sym_k, packed by one
        engine _operands call, over one denominator den.  The accumulate
        of u_n v on two is den^2 u_n v, like den sym_k.  Made once per
        DegreeTwo and kept with the width it was made at; made again only
        where the engine's packing has widened since."""
        alg, eng = self.algebra, self.engine
        if self._pack is None or self._pack[0] != eng._bits:
            d = alg.dim
            ops, den, _ = eng._operands(chain(
                (eng.state_of_vector(alg.basis_vector(x)) for x in range(d)),
                (self.state(LinComb.term(d + k, self.field.one))
                 for k in range(len(self.pairs)))))
            self._pack = eng._bits, ops[:d], ops[d:], den
        return self._pack[1:]

    def _matches_star(self, sym_ops, u, w: int, z: LinComb, t: int) -> bool:
        """Whether theta(z) • theta(y) = theta(z * y), y = pairs[t], on the
        engine's integers: sym_ops and den are _sym_operands', u is w
        sym(z) packed at their width.  With z * y = sum_m (n_m / e) m and v
        = sym_ops[t], the identity times 32 e w den reads e (u_1 v + v_1 u)
        = 8 w sum_m n_m sym_ops[m]."""
        x = star(self.algebra, z, LinComb.term(self.pairs[t], self.field.one))
        ints, e = int_coefficients(self.field, list(x.terms.values()))
        v = sym_ops[t]
        return self.engine._vanishes(
            ((e, u, 1, v), (e, v, 1, u)),
            ((mo, 8 * w * n * c) for m, n in zip(x.terms, ints)
             for mo, c in sym_ops[sym2_index(*m)]))

    @once
    def theta_witness(self) -> Optional[tuple[int, int]]:
        """The first pair (i, j) in sym2_pairs order where the engine's
        e_i(-1)e_j(-1)|0> + e_j(-1)e_i(-1)|0> is not sym_ij, or None; on
        its integers (VertexEngine._vanishes)."""
        x_ops, sym_ops, den = self._sym_operands()
        vanishes = self.engine._vanishes
        return next((p for p, s_op in zip(self.pairs, sym_ops)
                     if not vanishes(((1, x_ops[p[0]], -1, x_ops[p[1]]),
                                      (1, x_ops[p[1]], -1, x_ops[p[0]])),
                                     ((mo, den * c) for mo, c in s_op))), None)

    @once
    def t_after_theta_witness(self) -> Optional[tuple[int, int]]:
        """The first g-module generator g of S^2 g (cg.sym2_generators) where
        T(theta(g)) = 2 (sym_g / 4)_1 is not S(g), or None; both sides are
        g-equivariant, so None proves it on all of S^2 g.  On the engine's
        ints and the packed _sym_operands, column c by column c: with S(g)
        e_c = sum_r (n_r / e) e_r, e (den sym_g)_1 (den e_c(-1)|0>) =
        2 den sum_r n_r (den e_r(-1)|0>).  A column that leaves degree 1
        cannot cancel, so it fails here."""
        x_ops, sym_ops, den = self._sym_operands()
        vanishes = self.engine._vanishes
        for g in sym2_generators(self.algebra):
            u = sym_ops[sym2_index(*g)]
            s = s_map(self.algebra, LinComb.term(g, self.field.one))
            for c, col in enumerate(s.transpose().rows_as_dicts()):
                ints, e = int_coefficients(self.field, col.values())
                if not vanishes(((e, u, 1, x_ops[c]),),
                                ((mo, 2 * den * n * x) for r, n in zip(col, ints)
                                 for mo, x in x_ops[r])):
                    return g
        return None

    def zero_mode_witness(self) -> Optional[tuple[int, tuple[int, int]]]:
        """The first (Lie generator x, pair (i, j)), sym coordinates outer,
        where the engine's zero mode x_0 on sym_ij differs from x acting on
        S^2 g (cg.sym2_action), shifted by dim g; or None.

        It runs on the engine's integers (VertexEngine._vanishes), as
        comp_lemma_suite's triple checks do.  The accumulate of e x(0) sym_k
        is e den^2 x_0 sym_k.  sym2_action gives x.(e_i e_j) as ints n_m over
        ad e_x's common denominator e, sum_m (n_m / e) (monomial m), so
        den sum_m n_m (packed sym_m) is e den^2 times its sym.  The images
        stay the engine's and the expected side the algebra's; each
        coordinate's image is made and dropped in turn."""
        alg = self.algebra
        xs = alg.lie_generators()
        acts = [sym2_action(alg, x) for x in xs]
        x_ops, sym_ops, den = self._sym_operands()
        vanishes = self.engine._vanishes
        for k, pair in enumerate(self.pairs):
            for x, (act, e) in zip(xs, acts):
                if not vanishes(((e, x_ops[x], 0, sym_ops[k]),),
                                ((mo, den * n * c) for m, n in act(k)
                                 for mo, c in sym_ops[m])):
                    return x, pair
        return None

    @once
    def kernel(self) -> Subspace:
        """ker T: the one statement of every premise it rests on.  Each is
        checked in this order and refused with AlgebraError where it fails:

          * no center: the containment ker T <= span(sym_ij) can genuinely
            fail there, and everything downstream relies on it;
          * e_i(-1)e_j(-1)|0> + e_j(-1)e_i(-1)|0> = sym_ij (theta_witness);
          * the engine's zero modes, x_0 sym_ij = sym of x.(e_i e_j) for
            every Lie generator x (zero_mode_witness);
          * T after theta = S on the g-module generators of S^2 g
            (t_after_theta_witness);
          * the translations, T(e_k(-2)|0>) = -2 ad e_k
            (VertexEngine.translation_witness).

        T(sym_ij) = 4 S(e_i e_j) is read off T after theta = S on the
        generators alone, and x_0 sym = sym x carries it to every pair;
        both sides are then g-equivariant.

        A valid structure and a nondegenerate invariant form need no check
        here: build_cg refuses both before any A exists.

        Then ker T is A's kernel basis shifted by dim g, already an RREF.
        A degree-2 state with translation part a in g and sym part z in
        S^2 g has T = T_tr a + 4 S(z), T_tr a = -2 ad a, so (0, z) lies in
        ker T exactly when z lies in ker S.  Suppose T_tr a + 4 S(z) = 0.
        -2 ad a is skew for the form, by invariance, and S(z) is symmetric:
        its form terms are, and <[e_i, [e_j, b]], c> = <b, [e_j, [e_i, c]]>.
        An operator both skew and symmetric is 0 in odd characteristic (and
        theta's 1/4 rules out 2), so ad a = 0, a = 0 as the center is 0,
        and S(z) = 0."""
        alg, cga, field = self.algebra, self.cg, self.field
        labels = alg.labels
        rep = alg.validate()
        if rep.center_dim:
            raise AlgebraError(
                "kernel of T needs a centerless algebra, but the center "
                f"has dimension {rep.center_dim}")
        bad = self.theta_witness()
        if bad is not None:
            raise AlgebraError(
                f"theta({labels[bad[0]]}, {labels[bad[1]]}) is not sym_ij / 4")
        bad = self.zero_mode_witness()
        if bad is not None:
            x, (i, j) = bad
            raise AlgebraError(
                f"the engine's zero mode of {labels[x]} differs from "
                f"{labels[x]} acting on S^2 g at ({labels[i]}, {labels[j]})")
        bad = self.t_after_theta_witness()
        if bad is not None:
            raise AlgebraError(
                "T after theta differs from S at "
                f"({labels[bad[0]]}, {labels[bad[1]]}), so ker T "
                "cannot be read off [T on translations | 4 S]")
        bad = self.engine.translation_witness()
        if bad is not None:
            a, b = labels[bad[0]], labels[bad[1]]
            raise AlgebraError(
                f"T({a}(-2)|0>) is not -2 ad {a} at column {b}")
        d = alg.dim
        return Subspace._from_rref(
            [LinComb._raw({d + c: v for c, v in b.items()})
             for b in cga.kernel.basis], self.dim, field)

    def kernel_generators(self) -> list[LinComb]:
        """A's g-module generators of ker S (CGAlgebra.kernel_generators),
        shifted by dim g.  They generate ker T under the engine's zero
        modes of the Lie generators, because self.kernel() has checked
        that ker T is ker S shifted and that those zero modes act on
        span(sym_ij) as g acts on S^2 g, or refused."""
        self.kernel()
        d = self.algebra.dim
        return [LinComb._raw({d + c: v for c, v in g.items()})
                for g in self.cg.kernel_generators()]


def kernel_t(d2: DegreeTwo) -> Subspace:
    """d2.kernel(): ker T, A's ker S shifted by dim g.  A module function
    only because perfbench's tracer wraps kernel_t by name."""
    return d2.kernel()


def jordan_product(eng: VertexEngine, u: LinComb, v: LinComb) -> LinComb:
    """u • v = (u_1 v + v_1 u) / 2 on degree-2 states."""
    half = eng.field.one / 2
    return (eng.nth_product(u, 1, v) + eng.nth_product(v, 1, u)).scale(half)


def form3(eng: VertexEngine, u: LinComb, v: LinComb):
    """The scalar pairing: coefficient of |0> in u_3 v."""
    return eng.nth_product(u, 3, v).get((), eng.field.zero)


# -- the quotient ----------------------------------------------------------

def sym_quotient(d2: DegreeTwo) -> None:
    """Prove that the product and the pairing descend to span(sym_ij)/ker T.

    Raises AlgebraError, naming the first failing pair, where either does
    not, and DegreeTwo.kernel's refusal where a premise of ker T fails.
    Each generator of ker T is 4 theta(kappa), kappa one of A's generators
    of ker S.  Against every S^2 g monomial y it checks, on the engine's
    integers, theta(kappa) • theta(y) = theta(kappa * y), which lies in
    ker T by build_cg's *-ideal proof (DegreeTwo._matches_star), and that
    the pairing vanishes.  The zero modes carry both to all of ker T
    against all of span(sym_ij).
    Derived instead, the product half would rest on x_0 being a derivation
    of the engine's first product, which main-theorem does not check.
    """
    alg = d2.algebra
    gens, eng, pairs, d = d2.kernel_generators(), d2.engine, d2.pairs, alg.dim
    _, sym_ops, _ = d2._sym_operands()
    for n, k in enumerate(gens):
        # the state of k is sym(kappa); u is w times it, packed
        (u,), w, _ = eng._operands([d2.state(k)])
        kappa = LinComb({pairs[c - d]: v for c, v in k.items()})
        for t, (i, j) in enumerate(pairs):
            if not d2._matches_star(sym_ops, u, w, kappa, t):
                fails = "product"
            elif not eng._vanishes(((1, u, 3, sym_ops[t]),)):
                fails = "pairing"
            else:
                continue
            raise AlgebraError(
                f"{fails} does not descend to the quotient: kernel generator "
                f"{n} against theta({alg.labels[i]}, {alg.labels[j]})")


# -- verification suites ---------------------------------------------------

def correspondence_suite(d2: DegreeTwo) -> SuiteReport:
    """Verify that (im S, diamond, tau) and the degree-2 quotient agree.

    Checks, all exact: theta(e_i e_j) is sym_ij / 4; T after theta is S;
    products correspond on the nose; the pairing corresponds up to one
    measured constant; theta maps ker S onto ker T; ker T lies in the sym
    part; and the induced map between im S and the quotient is a bijective
    algebra map.  The linear and bilinear checks hold on all of S^2 g
    because they hold on the g-module generators of cg.sym2_generators,
    the linear ones on G alone and the bilinear ones on G x every
    monomial.  The two kernel checks are read off DegreeTwo.kernel, which
    returns ker T as ker S shifted or refuses, where one of its premises
    fails (the theta and T-after-theta witnesses reported above, the
    engine's zero modes or translations, or a center): a failed
    kernel-of-t that ends the report.  theta, being linear, maps ker S
    onto the shifted ker S.

    The four pair checks run on the engine's integers
    (VertexEngine._vanishes, no public engine call): for theta_s =
    sym_s / 4 and theta_t, with the sym_ij packed once, u = sym_s and v =
    sym_t, D(u_2 v) is the accumulate of u_2 v at mode -2 on the vacuum.
    The product check, shared with sym_quotient, compares u_1 v + v_1 u
    with cg.star made ints (DegreeTwo._matches_star), and the pairing
    reads the vacuum coefficient of u_3 v, converted once.
    zeroth-product-matches-jordan is the commutator identity itself: x0 -
    Jordan = (u_1 v - v_1 u - D(u_2 v)) / 2, so it reads the commutator
    check's verdict and witness.

    The last check is derived, not recomputed.  theta is injective onto
    span(sym_ij) and maps ker S onto ker T, which lies in span(sym_ij), so
    it induces a linear bijection from im S = S^2 g / ker S to the quotient
    span(sym_ij) / ker T, sending S(pivot monomial t) to the class of
    theta(pivot monomial t).  That bijection is multiplicative because
    theta carries * to the Jordan product on all pairs and both products
    descend: on im S by build_cg's *-ideal proof, on the quotient by
    sym_quotient.  So it passes when sym_quotient raises nothing and
    product-matches-star-exactly passed, the one premise that can still
    have failed once ker T exists; otherwise its detail is the descent
    failure or that premise.
    """
    rep = SuiteReport("degree-2-correspondence")
    alg, cg, eng, pairs = d2.algebra, d2.cg, d2.engine, d2.pairs
    field, labels, one = alg.field, alg.labels, alg.field.one

    def pair_name(p):
        return f"({labels[p[0]]}, {labels[p[1]]})"

    def pairs_name(st) -> str:
        """The (generator, monomial) pair (s, t) named, or "all pairs"."""
        if st is None:
            return "all pairs"
        return f"{pair_name(pairs[st[0]])} x {pair_name(pairs[st[1]])}"

    # the premise DegreeTwo.kernel refuses by; stated there once
    bad = d2.theta_witness()
    rep.add("theta-embeds-the-symmetric-square", bad is None,
            f"theta{pair_name(bad)} is not sym_ij / 4" if bad is not None
            else f"rank {len(pairs)} of {len(pairs)}")

    # the identity that DegreeTwo.kernel reads T off by; stated there once
    bad = d2.t_after_theta_witness()
    rep.add("t-after-theta-is-s", bad is None,
            pair_name(bad) if bad is not None else "all pairs")

    # The pair checks are g-equivariant: x_0 is a derivation of every n-th
    # product and theta(x.y) = x_0 theta(y).  So a bilinear check that
    # vanishes on module generators G of S^2 g x monomials vanishes on all
    # pairs, by B(x.g, y) = x.B(g, y) - B(g, x.y).  They run on the
    # engine's integers, on theta(e_i e_j) = sym_ij / 4 with the sym_ij
    # packed once at scale den (DegreeTwo._sym_operands): for u = sym_s
    # and v = sym_t, an accumulate of u_n v is den^2 u_n v, and the vacuum
    # packs as 0 with scalar 1, so that of (u_2 v) at mode -2 on it is
    # den^2 D(u_2 v).
    _, sym_ops, den = d2._sym_operands()
    product, vanishes = eng._product, eng._vanishes
    vac = ((0, 1),)
    comm_bad = prod_bad = None
    f3s = []  # (s, t, 16 den^2 form3(theta_s, theta_t)) in loop order
    for s in (sym2_index(i, j) for (i, j) in sym2_generators(alg)):
        u, z = sym_ops[s], LinComb.term(pairs[s], one)
        for t, v in enumerate(sym_ops):
            # The commutator of the first products is a total translate;
            # this is what collapses the x0 product onto the Jordan product.
            if comm_bad is None and not vanishes((
                    (1, u, 1, v), (-1, v, 1, u),
                    (-1, product(((1, u, 2, v),)), -2, vac))):
                comm_bad = s, t
            if prod_bad is None and not d2._matches_star(sym_ops, u, den, z, t):
                prod_bad = s, t
            p3: dict = {}
            eng._accumulate(p3, ((1, u, 3, v),))
            f3s.append((s, t, p3.get(0, 0)))

    rep.add("first-product-commutator-is-translate", comm_bad is None,
            pairs_name(comm_bad))
    mult_ok = rep.add("product-matches-star-exactly", prod_bad is None,
                      pairs_name(prod_bad))
    if field.char == 0:
        # x0 - Jordan = (u_1 v - v_1 u - D(u_2 v)) / 2: the commutator
        # identity again, read off the same accumulates
        rep.add("zeroth-product-matches-jordan", comm_bad is None,
                pairs_name(comm_bad))

    try:
        ker_t = d2.kernel()
    except AlgebraError as exc:
        rep.add("kernel-of-t", False, str(exc))
        rep.meta["dims"] = [len(pairs), cg.kernel.dim, cg.dim, None]
        return rep

    rep.add("theta-of-kernel-is-kernel-of-t", True,
            f"theta(ker S) dim {cg.kernel.dim}, ker T dim {ker_t.dim}")

    rep.add("kernel-of-t-in-sym-part",
            all(min(b.keys()) >= alg.dim for b in ker_t.basis),
            f"{ker_t.dim} basis vectors")

    # reduce_to_im(x) writes S(x) on the im basis, so tau of the
    # coordinates is tau(S(x), S(y)); lambda is the first nonzero ratio,
    # and every other pair must agree with it
    im_coords = [cg.reduce_to_im(LinComb.term(p, one)) for p in pairs]
    lam = bad = None
    scale = 16 * den * den
    for s, t, n in f3s:
        tau = cg.tau(im_coords[s], im_coords[t])
        f3 = field.from_fraction(Fraction(n, scale))
        if lam is None and tau:
            lam = f3 / tau
        if f3 != (lam * tau if lam is not None else field.zero):
            bad = s, t
            break
    rep.add("pairing-proportional-to-tau", bad is None and lam is not None,
            pairs_name(bad) if bad is not None
            else f"lambda = {field.format(lam)}" if lam is not None
            else "tau vanished on every pair")

    # derived from descent and its premises above; see the docstring
    try:
        sym_quotient(d2)
    except AlgebraError as exc:
        iso_ok, detail = False, str(exc)
    else:
        iso_ok = mult_ok
        detail = (f"dimension {cg.dim}" if iso_ok else
                  "rests on product-matches-star-exactly, which failed")
    rep.add("induced-map-is-isomorphism", iso_ok, detail)

    rep.meta["dims"] = [len(pairs), cg.kernel.dim, cg.dim, ker_t.dim]
    rep.meta["form_lambda"] = field.format(lam) if lam is not None else None
    rep.meta["multiplicativity_ok"] = bool(mult_ok)
    rep.meta["kernel_match_ok"] = True  # ker T exists: it is theta(ker S)
    rep.meta["unital"] = cg.unit() is not None
    return rep


def conformal_suite(d2: DegreeTwo) -> SuiteReport:
    """Conformal checks on omega = 2 theta(lift(unit)), the one
    normalization that can pass.  With iota = theta(lift(unit)),
    skew-symmetry gives a_1 iota = iota_1 a (iota_2 a lies in F|0>, which
    the translation operator kills), and 2 iota_1 a = T(iota) a =
    S(lift(unit)) a = a.  So a_1 omega = a for every basis vector; a
    failure names the first one where it is not.  Then a_2 omega = 0
    exactly, a_0 omega lands in ker T, omega • omega = omega_1 omega
    doubles omega modulo ker T, and the central charge 2 (coefficient of
    |0> in omega_3 omega) equals 4 tau(unit, unit).  ker T is
    DegreeTwo.kernel's, so a failed premise of it (theta, the engine's
    zero modes, T after theta, the translations) raises AlgebraError here.
    """
    rep = SuiteReport("conformal")
    alg, cg, eng, field = d2.algebra, d2.cg, d2.engine, d2.field
    unit = cg.unit()
    if not rep.add("algebra-has-unit", unit is not None,
                   "" if unit is not None else "identity not in im S"):
        return rep

    omega = d2.theta(cg.lift(unit)).scale(2)
    bad = next((alg.labels[i] for i in range(alg.dim)
                if eng.apply_mode(i, 1, omega) != LinComb.term(((1, i),), field.one)),
               None)
    rep.add("mode-one-returns-the-vector", bad is None, bad or "2*unit-image")
    rep.meta["omega_normalization"] = "2*unit-image"

    bad = next((alg.labels[i] for i in range(alg.dim)
                if eng.apply_mode(i, 2, omega)), None)
    rep.add("mode-two-kills-omega", bad is None, bad or "all basis vectors")

    ker_t = d2.kernel()
    bad = next((alg.labels[i] for i in range(alg.dim)
                if not ker_t.contains(d2.coords(eng.apply_mode(i, 0, omega)))),
               None)
    rep.add("mode-zero-lands-in-ideal-slice", bad is None,
            bad or "all basis vectors")

    diff = jordan_product(eng, omega, omega) - omega.scale(2)
    rep.add("omega-doubles-itself-mod-ideal",
            ker_t.contains(d2.coords(diff)), "omega_1 omega vs 2 omega")

    charge = form3(eng, omega, omega) * 2
    expect = cg.tau(unit, unit) * 4
    rep.add("central-charge-is-four-tau",
            charge == expect,
            f"charge {field.format(charge)}, 4 tau(Id, Id) "
            f"{field.format(expect)}")
    rep.meta["central_charge"] = field.format(charge)
    return rep


def ideal_closure_suite(d2: DegreeTwo) -> SuiteReport:
    """Check that ker T closes like an ideal slice under all modes.

    a_0 ker T stays in ker T: ker S is a g-submodule
    (CGAlgebra.kernel_generators), and DegreeTwo.kernel checks that ker T
    is ker S shifted and that the engine's zero modes act on span(sym_ij)
    as g acts on S^2 g, or refuses (AlgebraError, which this suite
    raises).  For every kernel generator d
    and basis element a, a_1 d and a_2 d vanish, and the creation modes
    a(-m) up to the degree cap never leak below degree 2.  The generators
    are enough: [x_0, a_n] = [x, a]_n, so the states that pass each probe
    for every a form a subspace stable under the zero modes, and one that
    holds the generators holds ker T.
    """
    rep = SuiteReport("ideal-closure")
    alg, eng = d2.algebra, d2.engine
    ker = d2.kernel()
    probes = ("first-mode-annihilates", "second-mode-annihilates",
              "creation-modes-preserve-grading")
    covered = f"{ker.dim} kernel vectors"
    rep.meta["kernel_dim"] = ker.dim
    rep.meta["degree_cap"] = DEGREE_CAP
    states = [d2.state(g) for g in d2.kernel_generators()]
    rep.add("zero-mode-stays-in-kernel", True, covered)

    def graded(i, st):
        for m in range(1, DEGREE_CAP - 1):
            cur = eng.apply_mode(i, -m, st)
            if cur and state_degree(cur) != 2 + m:
                return False
        return True

    for name, probe in zip(probes, (
            lambda i, st: not eng.apply_mode(i, 1, st),
            lambda i, st: not eng.apply_mode(i, 2, st),
            graded)):
        bad = next((f"a = {alg.labels[i]}, kernel generator {n}"
                    for n, st in enumerate(states) for i in range(alg.dim)
                    if not probe(i, st)), None)
        rep.add(name, bad is None, bad or covered)
    return rep
