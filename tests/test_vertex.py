import random
from fractions import Fraction

import pytest

from cgva.fields import PrimeField, QQ
from cgva.lie import algebra_from_name, builtin
from cgva.linalg import LinComb
from cgva.vertex import (VertexEngine, axiom_suite, binom, comp_lemma_suite,
                         format_state, mono_degree, parse_state, state_degree)
from oracles import (axiom_suite_by_public_calls, comp_lemmas_by_public_calls,
                     d_pow)


@pytest.fixture(scope="module")
def sl2():
    return algebra_from_name("sl2", QQ)


@pytest.fixture(scope="module")
def eng(sl2):
    return VertexEngine(sl2)


E, H, F = 0, 1, 2


def test_binom_on_negative_upper_index():
    assert binom(-2, 3) == -4
    assert binom(-1, 5) == -1
    assert binom(-3, 2) == 6


def test_binom_ordinary_cases():
    assert binom(5, 2) == 10
    assert binom(3, 5) == 0
    assert binom(-1, 0) == 1
    assert binom(0, 0) == 1


def test_degrees():
    assert mono_degree(((2, 1), (1, 0))) == 3
    assert state_degree(LinComb.term((), QQ.one)) == 0
    mixed = LinComb({((1, 0),): QQ.one, ((2, 0),): QQ.one})
    assert state_degree(mixed) is None


def test_annihilation_of_the_vacuum(eng):
    vac = eng.vacuum()
    for i in (E, H, F):
        for n in (0, 1, 5):
            assert eng.apply_mode(i, n, vac) == LinComb()


def test_frozen_sl2_mode_actions(eng, sl2):
    vac = eng.vacuum()
    f_state = eng.apply_mode(F, -1, vac)
    # e(1) f(-1)|0> = <e,f>|0>
    assert eng.apply_mode(E, 1, f_state) == vac
    # h(0) e(-1)|0> = [h,e](-1)|0> = 2 e(-1)|0>
    e_state = eng.apply_mode(E, -1, vac)
    assert eng.apply_mode(H, 0, e_state) == e_state.scale(QQ.from_int(2))
    # h(1) h(-1)|0> = <h,h>|0>
    h_state = eng.apply_mode(H, -1, vac)
    assert eng.apply_mode(H, 1, h_state) == vac.scale(QQ.from_int(2))


def test_straightening_produces_the_central_correction(eng):
    vac = eng.vacuum()
    # e(-1) f(-1)|0> reorders to f(-1) e(-1)|0> plus [e,f](-2)|0>
    lhs = eng.apply_mode(E, -1, eng.apply_mode(F, -1, vac))
    expected = LinComb({((1, F), (1, E)): QQ.one, ((2, H),): QQ.one})
    assert lhs == expected


def test_monomial_state_straightens_out_of_order_input(eng):
    direct = eng.monomial_state([(1, E), (1, F)])
    assert direct == eng.apply_mode(E, -1, eng.apply_mode(F, -1, eng.vacuum()))


def test_modes_of_a_general_vector_are_linear(eng, sl2):
    x = sl2.basis_vector(E) + sl2.basis_vector(H).scale(QQ.from_int(3))
    st = eng.monomial_state([(2, F)])
    combined = eng.apply_mode(x, 1, st)
    split = eng.apply_mode(E, 1, st) + eng.apply_mode(H, 1, st).scale(QQ.from_int(3))
    assert combined == split


def test_state_vector_round_trip(eng, sl2):
    x = sl2.basis_vector(E).scale(QQ.from_int(-2)) + sl2.basis_vector(F)
    assert eng.vector_of_state(eng.state_of_vector(x)) == x
    with pytest.raises(ValueError):
        eng.vector_of_state(eng.monomial_state([(2, E)]))


def test_translation_shifts_one_mode(eng):
    h1 = eng.monomial_state([(1, H)])
    assert d_pow(eng, 1, h1) == eng.monomial_state([(2, H)])
    # divided powers: D^(2) of h(-1)|0> is h(-3)|0>
    assert d_pow(eng, 2, h1) == eng.monomial_state([(3, H)])


def test_nth_product_against_mode_action(eng, sl2):
    # for u = a(-1)|0>, the n-th product is the mode a(n)
    u = eng.state_of_vector(sl2.basis_vector(H))
    v = eng.monomial_state([(1, E), (1, F)])
    for n in range(-2, 3):
        assert eng.nth_product(u, n, v) == eng.apply_mode(H, n, v)


def test_truncation(eng):
    v = eng.monomial_state([(2, H), (1, E)])
    assert eng.nth_product(eng.state_of_vector(eng.algebra.basis_vector(F)),
                           9, v) == LinComb()


def test_a_product_above_the_packing_width_widens_it(sl2):
    """A fresh sl2 engine packs monomials of degree up to 41.  A product of
    degree 47 widens the packing inside nth_sum, repacks its operands and
    clears the caches; it must still be the normal-ordered monomial, and a
    product made before the widening must come out the same after it."""
    eng = VertexEngine(sl2)
    rng = random.Random(5)
    u = eng.random_homogeneous_state(rng, 4, max_terms=3)
    v = eng.random_homogeneous_state(rng, 4, max_terms=3)
    small = eng.nth_product(u, -2, v)
    assert small and eng._top_degree == 41
    pair = eng.monomial_state([(1, E), (1, F)])
    big = eng.nth_product(LinComb.term(((45, H),), QQ.one), -1, pair)
    assert eng._top_degree >= 47
    assert big == eng.monomial_state([(45, H), (1, E), (1, F)])
    assert eng.nth_product(u, -2, v) == small


def test_prime_field_results_are_reductions_of_rational_results(sl2):
    """No division happens inside the engine, so every F_p computation must
    equal the mod-p image of the corresponding rational one.  This guards
    against coefficients that are nonzero as ints but zero mod p sneaking
    into state dictionaries (binomials such as C(-2, 6) = 7).  sl3 adds
    structure constants of both signs, which the F_7 engine lifts to
    ints."""
    p = 7
    fp = PrimeField(p)

    def reduce_state(state):
        out = {}
        for k, v in state.items():
            w = fp.from_fraction(v)
            if w:
                out[k] = w
        return LinComb(out)

    for name, samples, top in (("sl2", 40, 6), ("sl3", 60, 3)):
        alg_q = sl2 if name == "sl2" else algebra_from_name(name, QQ)
        eng_q = VertexEngine(alg_q)
        eng_p = VertexEngine(algebra_from_name(name, fp))
        rng = random.Random(99)
        for _ in range(samples):
            u = eng_q.random_homogeneous_state(rng, 4)
            v = eng_q.random_homogeneous_state(rng, 4)
            n = rng.randint(-3, top)
            up, vp = reduce_state(u), reduce_state(v)
            got = eng_p.nth_product(up, n, vp)
            want = reduce_state(eng_q.nth_product(u, n, v))
            assert got == want, (name, n, dict(u.items()), dict(v.items()))
            # and no stored zeros on either side
            assert all(got.terms.values())


def test_fractional_states_keep_their_products(sl2, eng):
    """States with fractional coefficients go through the integer engine
    over a common denominator; the products are those of the field-scalar
    engine, frozen here, and their mod-p images are the F_p products."""
    q = QQ.parse
    theta_fe = LinComb({((1, F), (1, E)): q("1/2"), ((2, H),): q("1/4")})
    omega = eng.monomial_state([(1, H), (1, H)]).scale(q("1/4"))
    x = sl2.basis_vector(E).scale(q("1/3")) + sl2.basis_vector(F).scale(q("-2/5"))
    cases = [
        (eng.nth_product(theta_fe, 0, omega), {((2, H), (1, H)): q("1/2")}),
        (eng.nth_product(omega, 1, theta_fe), {((1, H), (1, H)): q("1/2")}),
        (eng.nth_product(theta_fe, 2, omega), {}),
        (eng.nth_product(omega, 3, theta_fe), {(): q("1/2")}),
        (eng.nth_product(omega, -1, omega),
         {((1, H),) * 4: q("1/16"), ((3, H), (1, H)): q("1/2")}),
        (eng.apply_mode(E, 1, theta_fe), {((1, E),): q("1")}),
        (eng.apply_mode(x, 0, theta_fe),
         {((1, H), (1, E)): q("1/6"), ((1, F), (1, H)): q("1/5"),
          ((2, E),): q("-1/6"), ((2, F),): q("-1/5")}),
        (eng.apply_mode(x, -2, omega),
         {((2, E), (1, H), (1, H)): q("1/12"), ((2, F), (1, H), (1, H)): q("-1/10")}),
    ]
    for got, want in cases:
        assert got == LinComb(want)

    fp = PrimeField(11)
    eng_p = VertexEngine(algebra_from_name("sl2", fp))

    def reduce_state(state):
        return LinComb({k: fp.from_fraction(v) for k, v in state.items()})

    for n in range(-2, 4):
        assert eng_p.nth_product(reduce_state(theta_fe), n, reduce_state(omega)) \
            == reduce_state(eng.nth_product(theta_fe, n, omega))


def test_nth_sum_is_the_linear_combination(sl2, eng):
    rng = random.Random(12)
    for _ in range(6):
        u, v, w = (eng.random_homogeneous_state(rng, 3).scale(QQ.parse(q))
                   for q in ("1/2", "3", "-2/3"))
        n1, n2 = rng.randint(-2, 2), rng.randint(-2, 2)
        got = eng.nth_sum([(2, u, n1, v), (-3, w, n2, u), (0, v, n1, w)])
        want = eng.nth_product(u, n1, v).scale(QQ.from_int(2)) \
            - eng.nth_product(w, n2, u).scale(QQ.from_int(3))
        assert got == want
    assert eng.nth_sum([]) == LinComb()


def test_fractional_form_runs_on_a_rescaled_basis():
    """Killing/8 gives <e,f> = 1/2, a form value that is not an integer;
    the engine computes in the basis 2e, 2h, 2f instead, and the results
    come back in the basis e, h, f."""
    from fractions import Fraction
    eighth = builtin("sl", 2, QQ, form=Fraction(1, 8))
    eng = VertexEngine(eighth)
    f_state = eng.apply_mode(F, -1, eng.vacuum())
    assert eng.apply_mode(E, 1, f_state) == eng.vacuum().scale(QQ.parse("1/2"))
    report = axiom_suite(eighth, samples=12, seed=2, max_degree=3)
    assert report.passed, report.first_failure


@pytest.mark.parametrize("field", [QQ, PrimeField(7)], ids=["q", "fp7"])
def test_rescaled_basis_agrees_with_sl3(field, scaled_sl3):
    """An algebra with fractional bracket constants and form values gives,
    mapped over to sl3's basis, sl3's products and modes.  A monomial in
    the a' basis is the same monomial in the a basis times the scales of
    its factors."""
    alg, sl3, scale = scaled_sl3(field)
    if field is QQ:
        assert any(c.denominator > 1 for v in alg.brackets.values()
                   for c in v.terms.values())
        assert any(c.denominator > 1 for c in alg.form.entries.values())
    eng, ref = VertexEngine(alg), VertexEngine(sl3)

    def to_sl3(state):
        out = {}
        for mono, c in state.items():
            for _, i in mono:
                c = c * scale[i]
            out[mono] = c
        return LinComb(out)

    rng = random.Random(31)
    coeffs = [field.from_fraction(Fraction(q)) for q in ("1", "-1/3", "5/4")]
    for _ in range(25):
        u = eng.random_homogeneous_state(rng, 3).scale(rng.choice(coeffs))
        v = eng.random_homogeneous_state(rng, 3).scale(rng.choice(coeffs))
        n = rng.randint(-3, 3)
        assert to_sl3(eng.nth_product(u, n, v)) \
            == ref.nth_product(to_sl3(u), n, to_sl3(v))
        i = rng.randrange(alg.dim)
        x = alg.basis_vector(i).scale(rng.choice(coeffs)) \
            + alg.basis_vector(rng.choice([0, 3]))
        x_sl3 = LinComb({k: c * scale[k] for k, c in x.items()})
        assert to_sl3(eng.apply_mode(x, n, v)) \
            == ref.apply_mode(x_sl3, n, to_sl3(v))
        assert to_sl3(eng.apply_mode(alg.labels[i], n, v)) \
            == ref.apply_mode(sl3.basis_vector(i).scale(scale[i]), n, to_sl3(v))
    report = axiom_suite(alg, samples=20, seed=1, max_degree=3)
    assert report.passed, report.first_failure


def test_no_explicit_zeros_in_deep_mod_p_states():
    # h(-1)^7 |0> over F_7 exercises binomial coefficients divisible by 7
    fp = PrimeField(7)
    eng = VertexEngine(algebra_from_name("sl2", fp))
    st = eng.vacuum()
    for _ in range(7):
        st = eng.apply_mode(H, -1, st)
    out = eng.nth_product(st, 6, st)
    assert all(out.terms.values())
    for mono, c in out.items():
        assert c.val != 0


def test_format_state_examples(eng, sl2):
    assert format_state(sl2, eng.vacuum()) == "1 |0>"
    assert format_state(sl2, LinComb()) == "0"
    st = eng.monomial_state([(1, E)]).scale(QQ.from_int(2))
    assert format_state(sl2, st) == "2 e(-1) |0>"
    neg = eng.monomial_state([(2, H)]).scale(QQ.parse("-1/3"))
    assert format_state(sl2, neg) == "-1/3 h(-2) |0>"


def test_parse_state_accepts_stars_and_signs(eng, sl2):
    st = parse_state(eng, "2 * e(-1) * f(-1) |0> - h(-2) |0>")
    byhand = eng.monomial_state([(1, E), (1, F)]).scale(QQ.from_int(2)) \
        - eng.monomial_state([(2, H)])
    assert st == byhand


def test_parse_applies_annihilation_modes(eng, sl2):
    assert parse_state(eng, "e(1) f(-1) |0>") == eng.vacuum()
    assert parse_state(eng, "e(0) |0>") == LinComb()


def test_format_parse_round_trip(eng, sl2):
    rng = random.Random(4)
    for _ in range(15):
        st = eng.random_homogeneous_state(rng, 4, max_terms=3)
        assert parse_state(eng, format_state(sl2, st)) == st


def test_parse_rejects_malformed_input(eng, sl2):
    for bad in ["e(-1)", "q(-1) |0>", "e(-1) 2 |0>", "", "e |0>",
                # a sign with no term between it and the next sign or the end
                "e(-1) |0> - + f(-1) |0>", "- - e(-1) |0>", "e(-1) |0> -"]:
        with pytest.raises(ValueError):
            parse_state(eng, bad)


def test_axiom_suite_small_run_passes(sl2):
    report = axiom_suite(sl2, samples=25, seed=3, max_degree=3)
    assert report.passed, report.first_failure
    names = [c.name for c in report.checks]
    assert "borcherds" in names


def test_axiom_suite_passes_mod_11():
    alg = algebra_from_name("sl2", PrimeField(11))
    report = axiom_suite(alg, samples=15, seed=5, max_degree=3)
    assert report.passed, report.first_failure


AXIOM_ORACLE_CASES = [("sl2", QQ, None), ("sl2", PrimeField(7), None),
                      ("sl3", PrimeField(7), None), ("scaled-sl3", QQ, None),
                      ("scaled-sl3", PrimeField(7), None), ("sl2", QQ, Fraction(1, 8))]
AXIOM_BREAKS = [None] + [(kind, index, mode) for kind in ("doubled", "plus-input")
                         for index in range(3) for mode in range(-2, 4)]


@pytest.mark.parametrize("name,field,form", AXIOM_ORACLE_CASES,
                         ids=[f"{n}-{f}" + (f"-form{q}" if q else "")
                              for n, f, q in AXIOM_ORACLE_CASES])
def test_axiom_suite_on_ints_matches_the_public_call_oracle(monkeypatch, algebra_by_name,
                                                           name, field, form):
    """The suite on the engine's integers gives the public-call oracle's
    report, byte for byte: with t > 1 and fractional constants (scaled-sl3
    over Q), with the form 1/8 (t = 2), and unbroken or under each single
    _apply_basis break, doubled or plus-input, at modes -2..3 of each of
    the first three basis vectors."""
    alg = (algebra_by_name(name, field) if form is None
           else builtin("sl", 2, field, form=form))
    failing = 0
    for brk in AXIOM_BREAKS:
        with monkeypatch.context() as mp:
            if brk is not None:
                _break_apply_basis(mp, *brk)
            want = axiom_suite_by_public_calls(alg, samples=4, seed=0, max_degree=3)
            got = axiom_suite(alg, samples=4, seed=0, max_degree=3)
        assert got.to_dict() == want.to_dict(), brk
        assert brk is not None or got.passed, got.first_failure
        failing += not got.passed
    assert failing >= len(AXIOM_BREAKS) // 3


# Three single _apply_basis breaks on sl2 (e, h, f = 0, 1, 2) and the checks
# each fails at samples=4, seed=0, max_degree=3, with their first witness.
BROKEN_AXIOMS = {
    ("doubled", E, -2): {"borcherds": "sample 2: m=1 n=-1 p=2"},
    ("plus-input", E, -1): {"truncation": "sample 1: m=0 n=3 p=3",
                            "grading": "sample 1: m=0 n=3 p=3",
                            "skew-symmetry": "sample 1: m=0 n=3 p=3",
                            "borcherds": "sample 2: m=1 n=-1 p=2"},
    ("plus-input", H, -2): {"truncation": "sample 0: m=-3 n=-1 p=0",
                            "creation": "sample 1: m=0 n=3 p=3",
                            "grading": "sample 0: m=-3 n=-1 p=0",
                            "skew-symmetry": "sample 0: m=-3 n=-1 p=0",
                            "iterate-formula": "sample 0: m=-3 n=-1 p=0",
                            "borcherds": "sample 0: m=-3 n=-1 p=0"},
}


@pytest.mark.parametrize("field", [QQ, PrimeField(7)], ids=["q", "fp7"])
@pytest.mark.parametrize("kind,index,mode", list(BROKEN_AXIOMS),
                         ids=[f"{k}-{i}-{n}" for k, i, n in BROKEN_AXIOMS])
def test_axiom_suite_fails_where_apply_basis_is_broken(monkeypatch, field, kind,
                                                       index, mode):
    _break_apply_basis(monkeypatch, kind, index, mode)
    report = axiom_suite(algebra_from_name("sl2", field), samples=4, seed=0,
                         max_degree=3)
    assert {c.name: c.details for c in report.checks if not c.passed} == \
        BROKEN_AXIOMS[(kind, index, mode)]
    assert len(report.checks) == 7


# (algebra, field, seed, samples) for the widening test.  Seed 11's sample 0
# has degrees summing to 8 and m = n = p = -3, and seed 2401's sample 1
# degrees summing to 9 and the same modes, so every Borcherds product of
# theirs has degree sum + 7, the bound each sample fits to.
WIDENING_CASES = [("sl2", QQ, 0, 6), ("sl2", PrimeField(7), 0, 6),
                  ("sl3", PrimeField(7), 0, 6), ("sl2", QQ, 11, 1),
                  ("sl2", PrimeField(7), 2401, 2)]


def test_a_widening_inside_the_axiom_suite_keeps_its_report(monkeypatch):
    """Engines that start at the narrowest packing widen sample by sample,
    inside the suite: each sample fits every product it makes before it
    packs a, b and c, so its operands stay valid, and the report is the
    oracle's."""
    made, fit = VertexEngine.__init__, VertexEngine._fit
    widened = []

    def narrow(self, alg):
        made(self, alg)
        self._top_degree = -1
        fit(self, 1)

    def logged(self, degree):
        changed = fit(self, degree)
        if changed:
            widened.append(self._top_degree)
        return changed

    monkeypatch.setattr(VertexEngine, "__init__", narrow)
    monkeypatch.setattr(VertexEngine, "_fit", logged)
    for name, field, seed, samples in WIDENING_CASES:
        alg = algebra_from_name(name, field)
        widened.clear()
        got = axiom_suite(alg, samples=samples, seed=seed, max_degree=4)
        assert len(widened) >= 2
        assert got.passed, got.first_failure
        assert got.to_dict() == axiom_suite_by_public_calls(
            alg, samples=samples, seed=seed, max_degree=4).to_dict()


def test_nested_products_over_fp_hold_only_residues():
    """Over F_7, h(-1)^7|0> has binomials divisible by 7 in its products:
    the accumulate of its (-1)st product with itself holds 34 ints, 33 of
    them nonzero multiples of 7; _product holds only residues in [1, 7),
    on exactly the monomials of the public product."""
    eng = VertexEngine(algebra_from_name("sl2", PrimeField(7)))
    st = eng.vacuum()
    for _ in range(7):
        st = eng.apply_mode(H, -1, st)
    (op,), den, _ = eng._operands([st])
    assert den == 1
    raw: dict = {}
    eng._accumulate(raw, ((1, op, -1, op),))
    assert sum(1 for c in raw.values() if c and not c % 7) == 33
    pairs = eng._product(((1, op, -1, op),))
    assert len(pairs) == 1 and all(1 <= c < 7 for _, c in pairs)
    assert eng._state(dict(pairs), 1) == eng.nth_product(st, -1, st)


def test_comp_lemma_suite_passes(sl2):
    report = comp_lemma_suite(sl2)
    assert report.passed, report.first_failure
    assert len(report.checks) >= 13


# Each entry breaks VertexEngine._apply_basis at one (basis index, mode) of
# sl3 (labels E12 E13 E23 H1 H2 E21 E31 E32): "doubled" doubles its result,
# "plus-input" adds the monomial it was applied to.  The value is every
# check that fails, with the basis tuple its report names; every other
# check passes.
BROKEN_APPLY_BASIS = {
    ('doubled', 0, 0): {
        'zeroth-product-is-bracket': ('E12', 'E23'),
        'zero-mode-is-derivation': ('E12', 'E12', 'E23'),
        'first-mode-on-pairs': ('E12', 'E23', 'H1'),
        'double-zero-mode-on-square': ('E12', 'E23'),
        'minus-one-one-mode-on-square': ('E12', 'H1'),
        'two-zero-mode-on-square': ('E12', 'E21'),
        'square-acts-by-s-operator': ('E12', 'E21'),
        'translate-acts-by-bracket': ('E12', 'E23'),
    },
    ('doubled', 3, 0): {
        'zeroth-product-is-bracket': ('H1', 'E12'),
        'zero-mode-is-derivation': ('H1', 'E12', 'E12'),
        'first-mode-on-pairs': ('E12', 'E12', 'E21'),
        'double-zero-mode-on-square': ('H1', 'E12'),
        'minus-one-one-mode-on-square': ('E12', 'E21'),
        'double-first-mode-is-form-square': ('E12', 'E21'),
        'square-acts-by-s-operator': ('E12', 'E21'),
        'translate-acts-by-bracket': ('H1', 'E12'),
    },
    ('doubled', 1, 1): {
        'first-product-is-form': ('E13', 'E31'),
        'first-mode-on-pairs': ('E13', 'E12', 'E31'),
        'minus-one-one-mode-on-square': ('E13', 'H1'),
        'double-first-mode-is-form-square': ('E13', 'E31'),
        'square-acts-by-s-operator': ('E13', 'E31'),
    },
    ('doubled', 4, 1): {
        'first-product-is-form': ('H2', 'H1'),
        'first-mode-on-pairs': ('H2', 'E12', 'E23'),
        'second-mode-is-form-of-bracket': ('E13', 'H1', 'E31'),
        'minus-one-one-mode-on-square': ('H2', 'H1'),
        'two-zero-mode-on-square': ('E13', 'E31'),
        'double-first-mode-is-form-square': ('H2', 'H1'),
        'square-acts-by-s-operator': ('H1', 'H2'),
    },
    ('doubled', 5, 2): {
        'second-mode-is-form-of-bracket': ('E21', 'E12', 'H1'),
    },
    ('doubled', 2, -1): {
        'zeroth-product-is-bracket': ('E13', 'E21'),
        'zero-mode-is-derivation': ('E12', 'E23', 'E12'),
        'first-mode-on-pairs': ('E12', 'E23', 'H1'),
        'second-mode-is-form-of-bracket': ('E12', 'E23', 'E31'),
        'double-zero-mode-on-square': ('E12', 'E23'),
        'minus-one-one-mode-on-square': ('E23', 'H1'),
        'two-zero-mode-on-square': ('E32', 'E23'),
        'double-first-mode-is-form-square': ('E32', 'E23'),
        'square-acts-by-s-operator': ('E23', 'E32'),
        'translate-acts-by-bracket': ('E13', 'E21'),
    },
    ('doubled', 7, -1): {
        'zeroth-product-is-bracket': ('E12', 'E31'),
        'zero-mode-is-derivation': ('E12', 'E12', 'E31'),
        'first-mode-on-pairs': ('E12', 'H1', 'E31'),
        'second-mode-is-form-of-bracket': ('E13', 'E32', 'E21'),
        'double-zero-mode-on-square': ('E12', 'E31'),
        'minus-one-one-mode-on-square': ('E23', 'E32'),
        'double-first-mode-is-form-square': ('E23', 'E32'),
        'square-acts-by-s-operator': ('H1', 'E32'),
        'translate-acts-by-bracket': ('E12', 'E31'),
    },
    ('doubled', 6, -2): {
        'zero-mode-is-derivation': ('H1', 'H1', 'E31'),
        'translate-acts-by-bracket': ('E31', 'E12'),
    },
    ('plus-input', 1, 2): {
        'second-mode-is-form-of-bracket': ('E13', 'E12', 'E12'),
        'second-mode-kills-squares': ('E13', 'E12'),
        'two-zero-mode-on-square': ('E13', 'H1'),
    },
    ('plus-input', 6, 0): {
        'zeroth-product-is-bracket': ('E31', 'E12'),
        'first-product-is-form': ('H1', 'E31'),
        'zero-mode-is-derivation': ('E31', 'E12', 'E12'),
        'first-mode-on-pairs': ('H1', 'E12', 'E31'),
        'second-mode-is-form-of-bracket': ('E12', 'E21', 'E31'),
        'second-mode-kills-squares': ('E13', 'E31'),
        'double-zero-mode-on-square': ('E31', 'E12'),
        'minus-one-one-mode-on-square': ('H1', 'E31'),
        'two-zero-mode-on-square': ('E31', 'H1'),
        'double-first-mode-is-form-square': ('H1', 'E31'),
        'square-acts-by-s-operator': ('H1', 'E31'),
        'translate-acts-by-bracket': ('E31', 'E12'),
    },
}


@pytest.mark.parametrize("field", [QQ, PrimeField(7)], ids=["q", "fp7"])
@pytest.mark.parametrize("kind,index,mode", list(BROKEN_APPLY_BASIS),
                         ids=[f"{k}-{i}-{n}" for k, i, n in BROKEN_APPLY_BASIS])
def test_comp_lemmas_fail_where_apply_basis_is_broken(monkeypatch, field, kind,
                                                      index, mode):
    _break_apply_basis(monkeypatch, kind, index, mode)
    report = comp_lemma_suite(algebra_from_name("sl3", field))
    want = BROKEN_APPLY_BASIS[(kind, index, mode)]
    assert {c.name: c.details for c in report.checks if not c.passed} == \
        {name: f"failed at {where}" for name, where in want.items()}
    assert len(report.checks) == 13


def _break_apply_basis(monkeypatch, kind, index, mode):
    """Break VertexEngine._apply_basis at one (basis index, mode): "doubled"
    doubles its result there, "plus-input" adds the monomial it was
    applied to."""
    exact = VertexEngine._apply_basis

    def broken(self, i, n, mono):
        out = exact(self, i, n, mono)
        if (i, n) != (index, mode):
            return out
        if kind == "doubled":
            return {k: 2 * v for k, v in out.items()}
        return {**out, mono: out.get(mono, 0) + 1}

    monkeypatch.setattr(VertexEngine, "_apply_basis", broken)


# jacobi-cancellation fails under none of the sl3 breaks: on sl3's basis its
# four products cancel in pairs as formal products.  On sp4 (labels A11 A12
# A21 A22 B11 B12 B22 C11 C12 C22) they do not for 16 basis pairs, and a
# broken a(-1) fails it; doubling one entry of the engine's _br does not.
BROKEN_APPLY_BASIS_SP4 = {
    ('doubled', 4, -1): {
        'zeroth-product-is-bracket': ('A11', 'B11'),
        'zero-mode-is-derivation': ('A11', 'A11', 'B11'),
        'first-mode-on-pairs': ('A11', 'A12', 'B12'),
        'second-mode-is-form-of-bracket': ('A11', 'B11', 'C11'),
        'double-zero-mode-on-square': ('A11', 'B11'),
        'minus-one-one-mode-on-square': ('B11', 'A11'),
        'double-first-mode-is-form-square': ('C11', 'B11'),
        'square-acts-by-s-operator': ('A11', 'B11'),
        'translate-acts-by-bracket': ('A11', 'B11'),
        'jacobi-cancellation': ('A12', 'B22'),
    },
    ('plus-input', 7, -1): {
        'zeroth-product-is-bracket': ('A11', 'C11'),
        'zero-mode-is-derivation': ('A11', 'A11', 'C11'),
        'first-mode-on-pairs': ('A11', 'A21', 'C12'),
        'double-zero-mode-on-square': ('A11', 'C11'),
        'minus-one-one-mode-on-square': ('B11', 'C11'),
        'square-acts-by-s-operator': ('A11', 'C11'),
        'translate-acts-by-bracket': ('A11', 'C11'),
        'jacobi-cancellation': ('A12', 'C11'),
    },
}


@pytest.mark.parametrize("field", [QQ, PrimeField(7)], ids=["q", "fp7"])
@pytest.mark.parametrize("kind,index,mode", list(BROKEN_APPLY_BASIS_SP4),
                         ids=[f"{k}-{i}-{n}" for k, i, n in BROKEN_APPLY_BASIS_SP4])
def test_jacobi_cancellation_fails_where_apply_basis_is_broken_on_sp4(
        monkeypatch, field, kind, index, mode):
    _break_apply_basis(monkeypatch, kind, index, mode)
    report = comp_lemma_suite(algebra_from_name("sp4", field))
    want = BROKEN_APPLY_BASIS_SP4[(kind, index, mode)]
    assert {c.name: c.details for c in report.checks if not c.passed} == \
        {name: f"failed at {where}" for name, where in want.items()}


TRIPLE_CHECKS = ("zero-mode-is-derivation", "first-mode-on-pairs",
                 "second-mode-is-form-of-bracket")


ORACLE_CASES = [(name, field, None) for name in ("sl2", "sl3", "so5", "sp4", "scaled-sl3")
                for field in (QQ, PrimeField(7))] + [("sl3", QQ, Fraction(1, 4))]


@pytest.mark.parametrize("broken", [False, True], ids=["exact", "broken"])
@pytest.mark.parametrize("name,field,form", ORACLE_CASES,
                         ids=[f"{n}-{f}" + (f"-form{q}" if q else "")
                              for n, f, q in ORACLE_CASES])
def test_triple_checks_match_the_lincomb_oracle(monkeypatch, algebra_by_name,
                                                name, field, form, broken):
    """The integer triple loop gives the LinComb loop's verdicts and first
    failing triples, with t > 1 (scaled-sl3 over Q has t = 150, and its pair
    states a common denominator of 22500; the form 1/4 gives t = 2 and form
    values 3/2), also where the modes 0, 1 and 2 of the last basis vector
    are doubled."""
    if form is None:
        alg = algebra_by_name(name, field)
    else:
        alg = algebra_from_name(name, field, form=form)
    if broken:
        for mode in (0, 1, 2):
            _break_apply_basis(monkeypatch, "doubled", alg.dim - 1, mode)
    want = {k: comp_lemmas_by_public_calls(alg)[k] for k in TRIPLE_CHECKS}
    report = comp_lemma_suite(alg)
    assert {c.name: c.details for c in report.checks if c.name in TRIPLE_CHECKS} \
        == {k: None if w is None else f"failed at {w}" for k, w in want.items()}
    if broken:
        assert all(w is not None for w in want.values())
    else:
        assert report.passed, report.first_failure


@pytest.mark.parametrize("broken", [None, -2, -1, 0, 1, 2, "bracket"],
                         ids=["exact", "mode-2", "mode-1", "mode0", "mode1",
                              "mode2", "bracket"])
@pytest.mark.parametrize("name,field,form", ORACLE_CASES,
                         ids=[f"{n}-{f}" + (f"-form{q}" if q else "")
                              for n, f, q in ORACLE_CASES])
def test_pair_checks_match_the_public_call_oracle(monkeypatch, algebra_by_name,
                                                  name, field, form, broken):
    """The ten pair checks on the engine's integers give the public-call
    oracle's verdicts and first failing pairs, with t > 1 (scaled-sl3 over
    Q, t = 150; the form 1/4, t = 2), also where the last basis vector's
    mode n is doubled (mode -2 makes the translates, mode -1 the pair
    states) or one entry of the engine's _br is."""
    if form is None:
        alg = algebra_by_name(name, field)
    else:
        alg = algebra_from_name(name, field, form=form)
    last = alg.dim - 1
    if broken == "bracket":
        ad = alg.integer_lift().ad
        _double_engine_bracket(monkeypatch, last,
                               next(j for j in range(alg.dim) if ad[last][j]))
    elif broken is not None:
        _break_apply_basis(monkeypatch, "doubled", last, broken)
    want = comp_lemmas_by_public_calls(alg)
    report = comp_lemma_suite(alg)
    got = {c.name: c.details for c in report.checks}
    assert got == {k: None if w is None else f"failed at {w}"
                   for k, w in want.items()}
    assert len(got) == 13
    assert (broken is None) == report.passed


def _double_engine_bracket(monkeypatch, i, j):
    """Double the entry VertexEngine._br[i][j], the terms of [b_i, b_j] on
    the integer lift, in every engine made from now on, on copies: the
    algebra's own lift is left alone."""
    made = VertexEngine.__init__

    def doubled_entry(self, alg):
        made(self, alg)
        br = list(self._br)
        br[i] = list(br[i])
        br[i][j] = tuple((k, 2 * c) for k, c in br[i][j])
        self._br = br

    monkeypatch.setattr(VertexEngine, "__init__", doubled_entry)


def test_comp_lemmas_make_no_public_engine_call(monkeypatch):
    """Every check runs on the engine's integers: no nth_product,
    apply_mode or nth_sum call, on sl3 and on sp4."""
    calls = []
    for meth in ("nth_product", "apply_mode", "nth_sum"):
        monkeypatch.setattr(VertexEngine, meth,
                            lambda *args, meth=meth: calls.append(meth))
    for name in ("sl3", "sp4"):
        report = comp_lemma_suite(algebra_from_name(name, QQ))
        assert report.passed, report.first_failure
    assert calls == []


# Each entry doubles one entry VertexEngine._br[i][j] of sl3, the terms of
# [b_i, b_j] on the engine's integer lift, after the engine is made; the
# value is every check that fails, with its first failing basis tuple.
# The closed forms come from alg.bracket and alg.form_value, so the
# engine's products no longer match them; read from _br, they would move
# with the products and these checks would pass.
DOUBLED_ENGINE_BRACKET = {
    (0, 2): {
        'zeroth-product-is-bracket': ('E12', 'E23'),
        'zero-mode-is-derivation': ('E12', 'E12', 'E23'),
        'first-mode-on-pairs': ('E12', 'E13', 'E21'),
        'second-mode-is-form-of-bracket': ('E31', 'E12', 'E23'),
        'double-zero-mode-on-square': ('E12', 'E23'),
        'translate-acts-by-bracket': ('E12', 'E23'),
    },
    (0, 5): {
        'zeroth-product-is-bracket': ('E12', 'E21'),
        'zero-mode-is-derivation': ('E12', 'E12', 'E21'),
        'first-mode-on-pairs': ('E12', 'E13', 'E21'),
        'second-mode-is-form-of-bracket': ('E12', 'H1', 'E21'),
        'double-zero-mode-on-square': ('E12', 'E21'),
        'minus-one-one-mode-on-square': ('E12', 'E21'),
        'two-zero-mode-on-square': ('E12', 'E21'),
        'double-first-mode-is-form-square': ('E12', 'E21'),
        'square-acts-by-s-operator': ('E12', 'E21'),
        'translate-acts-by-bracket': ('E12', 'E21'),
    },
    (5, 1): {
        'zeroth-product-is-bracket': ('E21', 'E13'),
        'zero-mode-is-derivation': ('E21', 'E12', 'E13'),
        'first-mode-on-pairs': ('E23', 'E13', 'E31'),
        'double-zero-mode-on-square': ('E21', 'E13'),
        'translate-acts-by-bracket': ('E21', 'E13'),
    },
}


@pytest.mark.parametrize("field", [QQ, PrimeField(7)], ids=["q", "fp7"])
@pytest.mark.parametrize("entry", list(DOUBLED_ENGINE_BRACKET),
                         ids=[f"{i}-{j}" for i, j in DOUBLED_ENGINE_BRACKET])
def test_comp_lemmas_read_closed_forms_from_the_algebra(monkeypatch, field, entry):
    _double_engine_bracket(monkeypatch, *entry)
    alg = algebra_from_name("sl3", field)
    report = comp_lemma_suite(alg)
    assert {c.name: c.details for c in report.checks if not c.passed} == \
        {name: f"failed at {where}"
         for name, where in DOUBLED_ENGINE_BRACKET[entry].items()}
    # the algebra's own lift is untouched
    assert alg.integer_lift().ad == algebra_from_name("sl3", field).integer_lift().ad
