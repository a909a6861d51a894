import os
import random
import re
from fractions import Fraction

import pytest

import cgva.cg
import cgva.linalg
from cgva.cg import (CGAlgebra, _construct, build_cg, identity_suite, s_map,
                     s_matrix, star, sym2_action, sym2_generators,
                     sym2_index, sym2_of_vectors, sym2_pairs, sym2_square)
from cgva.fields import PrimeField, QQ
from cgva.lie import (AlgebraError, LieAlgebra, algebra_from_dict,
                      algebra_from_name, algebra_to_dict, load_algebra)
from cgva.linalg import (LinComb, Matrix, Subspace, _axpy, greedy_generators,
                         solve)
from oracles import (abelian, casimir_element, lincomb_sum, s_map_two_products,
                     star_via_squares)
from test_lie import _corrupted

F7 = PrimeField(7)
BOTH_FIELDS = pytest.mark.parametrize("field", [QQ, F7], ids=["q", "fp7"])


@pytest.fixture(scope="module")
def sl2():
    return algebra_from_name("sl2", QQ)


@pytest.fixture(scope="module")
def cg_sl2(sl2):
    return build_cg(sl2)


def _random_sym2(alg, rng, nterms=3):
    out = LinComb()
    pool = sym2_pairs(alg.dim)
    for _ in range(nterms):
        key = pool[rng.randrange(len(pool))]
        out = out + LinComb.term(key, alg.field.from_int(rng.randint(-4, 4)))
    return out


def _random_sum(alg, rng, coeffs, nterms=4):
    """A sum of nterms monomials, each with a coefficient drawn from
    coeffs, so that the coefficients have different denominators."""
    pool = sym2_pairs(alg.dim)
    return lincomb_sum(LinComb.term(rng.choice(pool), rng.choice(coeffs))
                       for _ in range(nterms))


def test_sym2_indexing_round_trips():
    pairs = sym2_pairs(4)
    assert len(pairs) == 10
    for n, (i, j) in enumerate(pairs):
        assert i >= j
        assert sym2_index(i, j) == n
        assert sym2_index(j, i) == n


def test_sym2_of_vectors_is_symmetric_and_bilinear(sl2):
    e, h = sl2.basis_vector(0), sl2.basis_vector(1)
    assert sym2_of_vectors(e, h) == sym2_of_vectors(h, e)
    two = QQ.from_int(2)
    assert sym2_of_vectors(e.scale(two), h) == sym2_of_vectors(e, h).scale(two)
    assert sym2_square(e + h) == \
        sym2_square(e) + sym2_square(h) + sym2_of_vectors(e, h).scale(two)


def test_star_frozen_sl2_square_product(sl2):
    ee = sym2_square(sl2.basis_vector(0))
    ff = sym2_square(sl2.basis_vector(2))
    got = star(sl2, ee, ff)
    # hh - 2ef on the (i >= j) pair basis
    assert got == LinComb({(1, 1): QQ.one, (2, 0): QQ.from_int(-2)})


def test_star_is_commutative_on_random_elements(sl2):
    rng = random.Random(5)
    for _ in range(20):
        x = _random_sym2(sl2, rng)
        y = _random_sym2(sl2, rng)
        assert star(sl2, x, y) == star(sl2, y, x)


@BOTH_FIELDS
@pytest.mark.parametrize("name", ["sl2", "sl3", "scaled-sl3"])
def test_star_matches_square_expansion_oracle(name, field, algebra_by_name):
    """The closed-form product equals the one computed by expanding both
    arguments into squares, an independent route through the definition."""
    alg = algebra_by_name(name, field)
    rng = random.Random(11)
    coeffs = [field.from_fraction(Fraction(q)) for q in ("1", "-1/3", "5/4")]
    for _ in range(12):
        x = _random_sym2(alg, rng)
        y = _random_sym2(alg, rng)
        assert star(alg, x, y) == star_via_squares(alg, x, y)
    for _ in range(4):
        x, y = (_random_sum(alg, rng, coeffs) for _ in range(2))
        assert star(alg, x, y) == star_via_squares(alg, x, y)


def _field_object_star_monomials(alg, p, q):
    """star of two S^2 g basis monomials by the polarized closed form, on
    field objects: ten LinCombs from bracket calls, scaled and summed."""
    i, j = p
    k, l = q
    x1, x2 = alg.basis_vector(i), alg.basis_vector(j)
    y1, y2 = alg.basis_vector(k), alg.basis_vector(l)
    br = alg.bracket
    half = alg.field.one / 2
    quarter = half * half

    terms = [
        # x-side nested brackets
        sym2_of_vectors(x1, br(y1, br(y2, x2))).scale(quarter),
        sym2_of_vectors(x1, br(y2, br(y1, x2))).scale(quarter),
        sym2_of_vectors(x2, br(y1, br(y2, x1))).scale(quarter),
        sym2_of_vectors(x2, br(y2, br(y1, x1))).scale(quarter),
        # y-side nested brackets
        sym2_of_vectors(y1, br(x1, br(x2, y2))).scale(quarter),
        sym2_of_vectors(y1, br(x2, br(x1, y2))).scale(quarter),
        sym2_of_vectors(y2, br(x1, br(x2, y1))).scale(quarter),
        sym2_of_vectors(y2, br(x2, br(x1, y1))).scale(quarter),
        # bracket squares
        sym2_of_vectors(br(x1, y1), br(x2, y2)).scale(half),
        sym2_of_vectors(br(x1, y2), br(x2, y1)).scale(half),
    ]
    # form terms
    fv = alg.form_value
    for c, pair in (
        (fv(x1, y1), (j, l)), (fv(x1, y2), (j, k)),
        (fv(x2, y1), (i, l)), (fv(x2, y2), (i, k)),
    ):
        if c:
            key = pair if pair[0] >= pair[1] else (pair[1], pair[0])
            terms.append(LinComb.term(key, c * half))
    return lincomb_sum(terms)


def _field_object_star(alg, x, y):
    """The oracle: star on field objects, bilinear over basis monomials."""
    return lincomb_sum(_field_object_star_monomials(alg, p, q).scale(cx * cy)
                       for p, cx in x.items() for q, cy in y.items())


@BOTH_FIELDS
@pytest.mark.parametrize("name", ["sl2", "sl3", "so5", "sp4", "sl4", "scaled-sl3"])
def test_star_matches_the_field_object_oracle(name, field, algebra_by_name):
    """star on the integer lift equals star on field objects: on every
    monomial pair (seeded ones on sl4) and on sums whose coefficients have
    different denominators."""
    alg = algebra_by_name(name, field)
    one = field.one
    pairs = sym2_pairs(alg.dim)
    rng = random.Random(43)
    if name == "sl4":
        pq = [(rng.choice(pairs), rng.choice(pairs)) for _ in range(600)]
    else:
        pq = [(p, q) for p in pairs for q in pairs]
    for p, q in pq:
        x, y = LinComb.term(p, one), LinComb.term(q, one)
        assert star(alg, x, y) == _field_object_star(alg, x, y), (p, q)
    coeffs = [field.from_fraction(Fraction(q)) for q in ("1", "-1/3", "5/4")]
    for _ in range(10):
        x, y = (_random_sum(alg, rng, coeffs) for _ in range(2))
        assert star(alg, x, y) == _field_object_star(alg, x, y)
    assert star(alg, LinComb(), _random_sum(alg, rng, coeffs)) == LinComb()


def test_s_map_frozen_sl2_values(sl2):
    eye = Matrix.identity(3, QQ)
    e, h, f = (sl2.basis_vector(i) for i in range(3))
    assert s_map(sl2, sym2_square(e)) == Matrix.zero(3, 3, QQ)
    assert s_map(sl2, sym2_of_vectors(e, h)) == Matrix.zero(3, 3, QQ)
    assert s_map(sl2, sym2_of_vectors(e, f)) == eye.scale(QQ.from_int(2))
    assert s_map(sl2, sym2_square(h)) == eye.scale(QQ.from_int(4))


def test_s_map_output_is_form_symmetric(sl2):
    rng = random.Random(3)
    for _ in range(10):
        x = _random_sym2(sl2, rng)
        m = s_map(sl2, x)
        # <S(x)a, b> = <a, S(x)b>, i.e. form-adjoint symmetry
        km = sl2.form
        assert (km @ m) == (km @ m).transpose()


def _s_map_oracle(alg, x):
    """S(x) by the definition, with ad_i ad_j and ad_j ad_i as Matrix
    products."""
    half = alg.field.one / 2
    out: dict = {}
    for (i, j), c in x.items():
        adi, adj = alg.ad_basis(i), alg.ad_basis(j)
        _axpy(out, (adi @ adj).entries.items(), c * half)
        _axpy(out, (adj @ adi).entries.items(), c * half)
        gi = alg.form_apply(alg.basis_vector(i))
        gj = alg.form_apply(alg.basis_vector(j))
        _axpy(out, (((j, col), v) for col, v in gi.items()), c)
        _axpy(out, (((i, col), v) for col, v in gj.items()), c)
    return Matrix(alg.dim, alg.dim, alg.field, out)


ORACLE_ALGEBRAS = pytest.mark.parametrize(
    "name", ["sl2", "sl3", "so5", "sp4", "sl4", "scaled-sl3"])


@BOTH_FIELDS
@ORACLE_ALGEBRAS
def test_s_map_matches_the_matrix_product_oracle(name, field, algebra_by_name):
    alg = algebra_by_name(name, field)
    assert (alg.integer_lift().t > 1) == (name == "scaled-sl3" and field is QQ)
    one = field.one
    for pair in sym2_pairs(alg.dim):
        x = LinComb.term(pair, one)
        assert s_map(alg, x) == _s_map_oracle(alg, x), pair
    cas = casimir_element(alg)
    assert s_map(alg, cas) == _s_map_oracle(alg, cas)
    rng = random.Random(41)
    coeffs = [field.from_fraction(Fraction(q)) for q in ("1", "-1/3", "5/4")]
    for _ in range(10):
        x = _random_sym2(alg, rng, nterms=4).scale(rng.choice(coeffs))
        assert s_map(alg, x) == _s_map_oracle(alg, x)


@BOTH_FIELDS
@ORACLE_ALGEBRAS
def test_s_matrix_matches_the_matrix_product_oracle(name, field, algebra_by_name):
    alg = algebra_by_name(name, field)
    d, one = alg.dim, field.one
    cols = [LinComb({p * d + q: v for (p, q), v in
                     _s_map_oracle(alg, LinComb.term(pair, one)).entries.items()})
            for pair in sym2_pairs(d)]
    assert s_matrix(alg) == Matrix.from_columns(cols, d * d, field)


@BOTH_FIELDS
@pytest.mark.parametrize("name", ["sl2", "sl3", "so5", "sl4"])
def test_s_matrix_equals_the_column_by_column_construction(name, field):
    # the construction s_matrix replaced: each s_map re-keyed to p*d + q as
    # a column, then Matrix.from_columns; entries compared in order too
    alg = algebra_from_name(name, field)
    d, one = alg.dim, field.one
    cols = [LinComb._raw({p * d + q: v for (p, q), v in
                          s_map(alg, LinComb.term(pair, one)).entries.items()})
            for pair in sym2_pairs(d)]
    want = Matrix.from_columns(cols, d * d, field)
    got = s_matrix(alg)
    assert (got.nrows, got.ncols, got.field) == (want.nrows, want.ncols, want.field)
    assert list(got.entries.items()) == list(want.entries.items())


def test_s_matrix_of_e8_equals_the_two_product_oracle():
    # s_map sums 2 ad_i ad_j - ad_[e_i,e_j], the oracle ad_i ad_j + ad_j ad_i
    path = os.path.join(os.path.dirname(__file__), "..", "tools", "e8.json")
    alg = load_algebra(path, PrimeField(46337))
    d, one = alg.dim, alg.field.one
    want = {}
    for col, pair in enumerate(sym2_pairs(d)):
        for (p, q), v in s_map_two_products(alg, LinComb.term(pair, one)).entries.items():
            want[(p * d + q, col)] = v
    got = s_matrix(alg).entries
    assert len(got) == len(want) == 777801
    assert got == want


@BOTH_FIELDS
def test_s_map_refuses_an_algebra_that_fails_jacobi(field):
    # sl3 with [E12, E23] = 2 E13, built without the loader's validation
    bad = _corrupted("sl3", field, 0, lambda c: 2 * c)
    witness = ("E12", "E13", "E21")
    assert bad.validate().jacobi_witness == witness
    for run in (lambda: s_map(bad, LinComb.term((1, 0), field.one)),
                lambda: s_matrix(bad)):
        with pytest.raises(AlgebraError, match=re.escape(str(witness))):
            run()


def test_s_matrix_shape(sl2):
    m = s_matrix(sl2)
    assert m.nrows == 9 and m.ncols == 6


@pytest.mark.parametrize("name,total,kernel,image", [
    ("sl2", 6, 5, 1),
    ("sl3", 36, 27, 9),
    ("so5", 55, 35, 20),
    ("sp4", 55, 35, 20),
])
def test_image_and_kernel_dimensions(name, total, kernel, image):
    alg = algebra_from_name(name, QQ)
    cga = build_cg(alg)
    assert len(sym2_pairs(alg.dim)) == total
    assert cga.kernel.dim == kernel
    assert cga.dim == image


def test_sl2_unit_is_quarter_of_hh(cg_sl2):
    unit = cg_sl2.unit()
    assert cg_sl2.im_monomials == [(1, 1)]
    assert unit == LinComb({0: QQ.parse("1/4")})
    # S at the unit is the identity operator
    assert s_map(cg_sl2.algebra, cg_sl2.lift(unit)) == Matrix.identity(3, QQ)


def test_unit_is_neutral_for_diamond(cg_sl2):
    rng = random.Random(7)
    unit = cg_sl2.unit()
    for _ in range(6):
        x = cg_sl2.reduce_to_im(_random_sym2(cg_sl2.algebra, rng))
        assert cg_sl2.diamond(unit, x) == x


def test_diamond_is_commutative_but_not_associative_in_general():
    alg = algebra_from_name("sl3", QQ)
    cga = build_cg(alg)
    rng = random.Random(19)
    saw_nonassoc = False
    for _ in range(12):
        x = cga.reduce_to_im(_random_sym2(alg, rng))
        y = cga.reduce_to_im(_random_sym2(alg, rng))
        z = cga.reduce_to_im(_random_sym2(alg, rng))
        assert cga.diamond(x, y) == cga.diamond(y, x)
        left = cga.diamond(cga.diamond(x, y), z)
        right = cga.diamond(x, cga.diamond(y, z))
        saw_nonassoc = saw_nonassoc or (left != right)
    assert saw_nonassoc


def test_reduce_and_lift_round_trip(cg_sl2):
    rng = random.Random(13)
    for _ in range(10):
        x = _random_sym2(cg_sl2.algebra, rng)
        coords = cg_sl2.reduce_to_im(x)
        lifted = cg_sl2.lift(coords)
        # x and its lift differ by a kernel element
        assert cg_sl2.in_kernel(x - lifted)
        assert cg_sl2.reduce_to_im(lifted) == coords


def test_kernel_vanishes_under_s(sl2, cg_sl2):
    for kv in cg_sl2.kernel.basis:
        x = LinComb({cg_sl2.pairs[c]: v for c, v in kv.items()})
        assert s_map(sl2, x) == Matrix.zero(3, 3, QQ)


def test_kernel_is_a_star_ideal(sl2, cg_sl2):
    rng = random.Random(23)
    for kv in cg_sl2.kernel.basis:
        x = LinComb({cg_sl2.pairs[c]: v for c, v in kv.items()})
        y = _random_sym2(sl2, rng)
        assert cg_sl2.in_kernel(star(sl2, x, y))


def test_failed_star_ideal_check_names_the_same_monomial(sl2, monkeypatch):
    # star against the monomial (2, 1) gains a pivot monomial, which S does
    # not kill
    target, one = (2, 1), sl2.field.one
    cga = build_cg(sl2)
    stray = LinComb.term(cga.im_monomials[0], one)
    assert target != cga.im_monomials[0] and not cga.in_kernel(stray)
    exact = cgva.cg.star

    def broken(alg, x, y):
        out = exact(alg, x, y)
        return out + stray if y == LinComb.term(target, one) else out

    monkeypatch.setattr(cgva.cg, "star", broken)
    with pytest.raises(AlgebraError) as exc:
        build_cg(sl2)
    assert f"at monomial {target}" in str(exc.value)
    rep = identity_suite(_construct(sl2))
    (check,) = [c for c in rep.checks if c.name == "kernel-is-star-ideal"]
    assert not check.passed
    assert check.details == f"failed at monomial {target}"


# -- the *-ideal proof ------------------------------------------------------


def _act(alg, x, a):
    """e_x . a for a in S^2 g, with x.(bc) = [x,b]c + b[x,c]."""
    ex, vec = alg.basis_vector(x), alg.basis_vector
    return lincomb_sum((sym2_of_vectors(alg.bracket(ex, vec(i)), vec(j))
                        + sym2_of_vectors(vec(i), alg.bracket(ex, vec(j)))).scale(c)
                       for (i, j), c in a.items())


@BOTH_FIELDS
@pytest.mark.parametrize("name", ["sl2", "sl3", "so5", "sl4"])
def test_star_is_g_equivariant(name, field):
    """x.star(a, b) = star(x.a, b) + star(a, x.b): the identity the
    generator proof of the *-ideal check rests on.  All basis triples
    below sl4, seeded ones on sl4."""
    alg = algebra_from_name(name, field)
    one = field.one
    pairs = sym2_pairs(alg.dim)
    if name == "sl4":
        rng = random.Random(31)
        triples = [(rng.randrange(alg.dim), rng.choice(pairs), rng.choice(pairs))
                   for _ in range(150)]
    else:
        triples = [(x, a, b) for x in range(alg.dim) for a in pairs for b in pairs]
    table: dict = {}

    def star_of(u, v):
        # star is bilinear in the monomials; their products are cached
        terms = []
        for p, cu in u.items():
            for q, cv in v.items():
                if (p, q) not in table:
                    table[(p, q)] = star(alg, LinComb.term(p, one), LinComb.term(q, one))
                terms.append(table[(p, q)].scale(cu * cv))
        return lincomb_sum(terms)

    for x, a, b in triples:
        ta, tb = LinComb.term(a, one), LinComb.term(b, one)
        assert _act(alg, x, star_of(ta, tb)) == \
            star_of(_act(alg, x, ta), tb) + star_of(ta, _act(alg, x, tb)), (x, a, b)


def _exhaustive_star_ideal_witness(cga):
    """The oracle: star(v, y) in ker S for every kernel basis vector v and
    every monomial y, in basis and monomial order; the first failing y."""
    one = cga.field.one
    for kv in cga.kernel.basis:
        v_sym = LinComb({cga.pairs[c]: cv for c, cv in kv.items()})
        for y in cga.pairs:
            if not cga.in_kernel(star(cga.algebra, v_sym, LinComb.term(y, one))):
                return y
    return None


def _algebra(name, field):
    """A builtin, or sl2 + sl2, whose ker S is the sum of the two summands'
    kernels, so that no one vector of the basis generates it."""
    if name != "sl2+sl2":
        return algebra_from_name(name, field)
    d = algebra_to_dict(algebra_from_name("sl2", QQ))
    shift = [[i + 3, j + 3, [[k + 3, c] for k, c in terms]]
             for i, j, terms in d["brackets"]]
    entries = d["form"]["entries"]
    return algebra_from_dict(
        {"name": name, "dim": 6, "basis": ["e", "h", "f", "E", "H", "F"],
         "brackets": d["brackets"] + shift,
         "form": {"type": "matrix",
                  "entries": entries + [[r + 3, c + 3, v] for r, c, v in entries]}},
        field)


@BOTH_FIELDS
@pytest.mark.parametrize("name,ngens", [("sl2", 1), ("sl3", 1), ("so5", 1),
                                        ("sp4", 1), ("sl4", 1), ("sl2+sl2", 2)])
def test_generator_check_agrees_with_the_exhaustive_oracle(name, ngens, field):
    cga = _construct(_algebra(name, field))
    gens = cga.kernel_generators()
    assert len(gens) == ngens
    maps = [sym2_action(cga.algebra, x)[0] for x in cga.algebra.lie_generators()]
    n = cga.kernel.ambient_dim
    rows = greedy_generators(gens, lambda kept: maps, n, field, n)[1]
    assert Subspace(rows, n, field) == cga.kernel
    assert cga.star_ideal_witness() is None
    assert _exhaustive_star_ideal_witness(cga) is None


def test_build_cg_makes_one_star_call_per_generator_and_monomial(monkeypatch):
    alg = algebra_from_name("sl4", QQ)
    calls = [0]
    exact = cgva.cg.star

    def counted(alg, x, y):
        calls[0] += 1
        return exact(alg, x, y)

    monkeypatch.setattr(cgva.cg, "star", counted)
    cga = build_cg(alg)
    # |G| * dim S^2 g, against dim ker S * dim S^2 g = 84 * 120 exhaustively
    assert calls[0] == len(cga.kernel_generators()) * len(sym2_pairs(alg.dim)) == 120


def test_kernel_generators_are_computed_once(monkeypatch):
    alg = algebra_from_name("sl3", QQ)
    walks = [0]
    exact = cgva.linalg.greedy_generators

    def counted(*args):
        walks[0] += 1
        return exact(*args)

    # the walk runs inside linalg.submodule_generators
    monkeypatch.setattr(cgva.linalg, "greedy_generators", counted)
    cga = _construct(alg)
    first = cga.kernel_generators()
    assert cga.kernel_generators() is first and walks[0] == 1


def _fake_sl2(sl2) -> CGAlgebra:
    """sl2's A with a "kernel" spanned by hh, which S does not kill."""
    cga = build_cg(sl2)
    hh = sym2_index(1, 1)
    return CGAlgebra(sl2, cga.pivots, cga.rref_rows,
                     Subspace([LinComb.term(hh, QQ.one)], 6, QQ))


def test_kernel_generators_refuse_a_closure_outside_ker_s(sl2):
    # the fake kernel's g-closure must be refused, not trusted
    with pytest.raises(AlgebraError, match="not a g-submodule"):
        _fake_sl2(sl2).kernel_generators()


@pytest.mark.parametrize("method", ["kernel_generators", "star_ideal_witness"])
def test_a_refused_proof_is_refused_on_every_call(sl2, method):
    # a refusal keeps nothing: read back, star_ideal_witness's None would
    # say "proved" and identity_suite would pass kernel-is-star-ideal
    fake = _fake_sl2(sl2)
    for _ in range(2):
        with pytest.raises(AlgebraError, match="not a g-submodule"):
            getattr(fake, method)()
    with pytest.raises(AlgebraError, match="not a g-submodule"):
        identity_suite(fake)


def test_kernel_generators_refuse_a_fake_kernel_of_the_right_dimension():
    # sl3's ker S without its densest vector, plus the monomial (2, 0),
    # which S does not kill: 27-dimensional, like ker S.  Its sparsest
    # vector lies in ker S and generates it, so the closure is the real
    # ker S, killed by S and of the right dimension; only the equality
    # of the closure with the claimed kernel refuses it.
    sl3 = algebra_from_name("sl3", QQ)
    cga = build_cg(sl3)
    basis = list(cga.kernel.basis)
    basis.remove(max(basis, key=len))
    stray = LinComb.term(sym2_index(2, 0), QQ.one)
    assert not cga.in_kernel(LinComb.term((2, 0), QQ.one))
    fake_kernel = Subspace(basis + [stray], cga.kernel.ambient_dim, QQ)
    assert fake_kernel.dim == cga.kernel.dim == 27
    assert cga.kernel.contains(min(fake_kernel.basis, key=len))
    fake = CGAlgebra(sl3, cga.pivots, cga.rref_rows, fake_kernel)
    with pytest.raises(AlgebraError, match="not a g-submodule.*at pivot "
                                           r"monomial \(2, 0\)"):
        fake.kernel_generators()


@BOTH_FIELDS
def test_reduce_to_im_and_in_kernel_match_the_rref_and_kernel(field):
    alg = algebra_from_name("sl3", field)
    cga = build_cg(alg)
    rng = random.Random(37)
    for _ in range(40):
        x = _random_sym2(alg, rng, nterms=rng.randint(1, 6))
        xi = LinComb({sym2_index(*k): v for k, v in x.items()})
        rows = {t: sum((v * xi[c] for c, v in row.items()), field.zero)
                for t, row in enumerate(cga.rref_rows)}
        expect = {t: v for t, v in rows.items() if v}
        got = cga.reduce_to_im(x)
        assert list(got.items()) == list(expect.items())
        assert cga.in_kernel(x) == cga.kernel.contains(xi) == (not got) == \
            (not s_map(alg, x).entries)
        k = cga.kernel.basis[rng.randrange(cga.kernel.dim)]
        assert cga.in_kernel(LinComb({cga.pairs[c]: v for c, v in k.items()}))


def _dense_tau_table(cga):
    """The oracle: tau(S(x_s), S(x_t)) on the im basis as a dense table,
    with tau(f, S(e_i e_j)) = 1/2 <f(e_i), e_j> and f = s_map of the
    pivot monomial x_s, made afresh rather than read off S's columns."""
    alg = cga.algebra
    half = cga.field.one / 2
    entries = {}
    for s in range(cga.dim):
        fs = s_map(alg, LinComb.term(cga.im_monomials[s], cga.field.one))
        for t in range(cga.dim):
            (i, j) = cga.im_monomials[t]
            v = alg.form_value(fs.mul_vec(alg.basis_vector(i)), alg.basis_vector(j))
            if v:
                entries[(s, t)] = half * v
    return Matrix(cga.dim, cga.dim, cga.field, entries)


def test_tau_frozen_values_and_symmetry(cg_sl2):
    unit = cg_sl2.unit()
    assert cg_sl2.tau(unit, unit) == QQ.parse("1/4")
    assert _dense_tau_table(cg_sl2).is_symmetric()


@BOTH_FIELDS
@pytest.mark.parametrize("name", ["sl2", "sl3", "so5", "sp4", "sl4", "sp6",
                                  "scaled-sl3", "nappi-witten"])
def test_tau_matches_the_dense_table_oracle(name, field, algebra_by_name):
    alg = _nappi_witten(field) if name == "nappi-witten" else algebra_by_name(name, field)
    cga = build_cg(alg)
    table = _dense_tau_table(cga).entries
    e = [LinComb.term(t, field.one) for t in range(cga.dim)]
    for s in range(cga.dim):
        for t in range(cga.dim):
            assert cga.tau(e[s], e[t]) == table.get((s, t), field.zero)
    rng = random.Random(13)
    for _ in range(10):
        x, y = (LinComb({rng.randrange(cga.dim): field.from_int(rng.randint(-5, 5))
                         for _ in range(rng.randint(1, 4))}) for _ in range(2))
        want = field.zero
        for (s, t), v in table.items():
            want = want + x.get(s, field.zero) * v * y.get(t, field.zero)
        assert cga.tau(x, y) == want
    fmt = field.format
    assert cga.export_tables()["tau"] == [[s, t, fmt(v)]
                                          for (s, t), v in sorted(table.items())]


def test_tau_associativity_with_diamond():
    alg = algebra_from_name("sl3", QQ)
    cga = build_cg(alg)
    rng = random.Random(29)
    for _ in range(8):
        x = cga.reduce_to_im(_random_sym2(alg, rng))
        y = cga.reduce_to_im(_random_sym2(alg, rng))
        z = cga.reduce_to_im(_random_sym2(alg, rng))
        assert cga.tau(cga.diamond(x, y), z) == cga.tau(x, cga.diamond(y, z))


def test_dimensions_are_stable_mod_7():
    alg = algebra_from_name("sl3", PrimeField(7))
    cga = build_cg(alg)
    assert cga.dim == 9
    assert cga.kernel.dim == 27
    assert cga.unit() is not None


def test_one_dimensional_abelian_is_unital():
    alg = abelian(1, QQ)
    cga = build_cg(alg)
    assert cga.dim == 1
    unit = cga.unit()
    assert unit is not None
    assert s_map(alg, cga.lift(unit)) == Matrix.identity(1, QQ)


def _nappi_witten(field):
    """The Nappi-Witten algebra: [J,P1] = P2, [J,P2] = -P1, [P1,P2] = T,
    with <J,T> = <P1,P1> = <P2,P2> = 1."""
    one = field.one
    form = Matrix(4, 4, field, {(0, 3): one, (3, 0): one, (1, 1): one, (2, 2): one})
    return LieAlgebra(field, ["J", "P1", "P2", "T"],
                      {(0, 1): {2: one}, (0, 2): {1: -one}, (1, 2): {3: one}},
                      form, name="nappi-witten")


def test_nappi_witten_is_unital_but_its_casimir_is_no_scalar():
    # so a unit read off the Casimir would not cover it
    alg = _nappi_witten(QQ)
    assert alg.casimir_scalar() is None
    cga = build_cg(alg)
    assert cga.dim == 10
    unit = cga.unit()
    assert unit is not None
    assert s_map(alg, cga.lift(unit)) == Matrix.identity(4, QQ)


def _unit_by_full_solve(cga):
    """The oracle: solve S x = Id over every column of S, then take the
    im-coordinates of x."""
    alg = cga.algebra
    d = alg.dim
    x = solve(s_matrix(alg), LinComb({i * d + i: alg.field.one for i in range(d)}))
    if x is None:
        return None
    return cga.reduce_to_im(LinComb({cga.pairs[c]: v for c, v in x.items()}))


@BOTH_FIELDS
@pytest.mark.parametrize("name", ["sl2", "sl3", "so5", "sp4", "sl4", "abelian1",
                                  "nappi-witten"])
def test_unit_matches_the_full_solve_oracle(name, field):
    if name == "abelian1":
        alg = abelian(1, field)
    elif name == "nappi-witten":
        alg = _nappi_witten(field)
    else:
        alg = algebra_from_name(name, field)
    cga = build_cg(alg)
    unit = cga.unit()
    want = _unit_by_full_solve(cga)
    assert want is not None
    assert list(unit.items()) == list(want.items())
    # the exhaustive unit check that unit() makes on S^2 g generators only
    for t in range(cga.dim):
        e_t = LinComb.term(t, field.one)
        assert cga.diamond(unit, e_t) == e_t


def test_a_star_wrong_only_at_the_unit_and_a_generator_fails_unit(monkeypatch):
    alg = algebra_from_name("sl3", QQ)
    cga = build_cg(alg)
    one = QQ.one
    lift_u = cga.lift(_unit_by_full_solve(cga))
    g0 = sym2_generators(cga.algebra)[0]
    lift_g0 = cga.lift(cga.reduce_to_im(LinComb.term(g0, one)))
    exact = cgva.cg.star

    def broken(a, x, y):
        out = exact(a, x, y)
        if (x, y) == (lift_u, lift_g0):
            out = out + LinComb.term(cga.im_monomials[0], one)
        return out

    monkeypatch.setattr(cgva.cg, "star", broken)
    with pytest.raises(AlgebraError, match="does not act as a unit"):
        cga.unit()


def test_unit_checks_one_diamond_per_sym2_generator(monkeypatch):
    alg = algebra_from_name("sl4", QQ)
    cga = build_cg(alg)
    calls = []
    real = CGAlgebra.diamond
    monkeypatch.setattr(CGAlgebra, "diamond",
                        lambda self, x, y: calls.append(1) or real(self, x, y))
    assert cga.unit() is not None
    assert len(calls) == len(sym2_generators(cga.algebra)) == 3


def test_export_tables_shape(cg_sl2):
    tables = cg_sl2.export_tables()
    assert tables["dim"] == 1
    assert tables["im_monomials"] == [[1, 1]]
    assert len(tables["products"]) == 1
    assert len(tables["tau"]) == 1


def test_export_tables_reads_tau_off_the_kept_pivot_columns(monkeypatch):
    cga = build_cg(algebra_from_name("sl3", QQ))
    calls = [0]
    exact = cgva.cg.s_map

    def counted(alg, x):
        calls[0] += 1
        return exact(alg, x)

    monkeypatch.setattr(cgva.cg, "s_map", counted)
    want = cga.export_tables()
    # the first export makes S_P, one s_map per pivot monomial
    assert calls[0] == cga.dim == 9
    assert cga.export_tables() == want
    # a second export reads tau off S_P alone
    assert calls[0] == 9


@pytest.mark.parametrize("name", ["sl2", "sl3"])
def test_identity_suite_passes(name):
    alg = algebra_from_name(name, QQ)
    report = identity_suite(_construct(alg))
    assert report.passed, report.first_failure
    (check,) = [c for c in report.checks if c.name == "tau-symmetric"]
    assert check.details is None


def test_a_tau_off_at_one_ordered_pair_fails_tau_symmetric(monkeypatch):
    # the break is tau(e_1, e_0) alone; tau(e_0, e_1) stays exact
    alg = algebra_from_name("sl3", QQ)
    e1, e0 = LinComb.term(1, QQ.one), LinComb.term(0, QQ.one)
    exact = CGAlgebra.tau

    def broken(self, cx, cy):
        out = exact(self, cx, cy)
        return out + 1 if (cx, cy) == (e1, e0) else out

    monkeypatch.setattr(CGAlgebra, "tau", broken)
    report = identity_suite(_construct(alg))
    verdicts = {c.name: c.passed for c in report.checks}
    assert verdicts["tau-symmetric"] is False
    assert verdicts["kernel-is-star-ideal"] is True
    (check,) = [c for c in report.checks if c.name == "tau-symmetric"]
    assert check.details == "failed at im-basis pair (1, 0)"
