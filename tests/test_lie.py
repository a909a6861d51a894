import functools
import inspect
import json
import os
import re
from fractions import Fraction

import pytest

from cgva.fields import PrimeField, QQ
from cgva.lie import (AlgebraError, LieAlgebra, _mat_commutator, _matrix_basis,
                      _structure_constants, algebra_from_dict,
                      algebra_from_name, algebra_hash, algebra_to_dict,
                      builtin, load_algebra, once)
from cgva.linalg import LinComb, Matrix, Subspace, rank_and_kernel, solve
from oracles import abelian, casimir_element


F7 = PrimeField(7)


@pytest.fixture(scope="module")
def sl2():
    return algebra_from_name("sl2", QQ)


def test_sl2_labels_and_brackets(sl2):
    assert sl2.labels == ["e", "h", "f"]
    e, h, f = (sl2.basis_vector(i) for i in range(3))
    assert sl2.bracket(e, f) == h
    assert sl2.bracket(h, e) == e.scale(QQ.from_int(2))
    assert sl2.bracket(h, f) == f.scale(QQ.from_int(-2))
    assert sl2.bracket(e, e) == LinComb()


def test_bracket_is_bilinear_and_antisymmetric(sl2):
    e, h, f = (sl2.basis_vector(i) for i in range(3))
    x = e + h.scale(QQ.from_int(3))
    y = f - e
    assert sl2.bracket(x, y) == -sl2.bracket(y, x)
    two = QQ.from_int(2)
    assert sl2.bracket(x.scale(two), y) == sl2.bracket(x, y).scale(two)


def test_sl2_normalized_form_values(sl2):
    # Killing form divided by twice the dual Coxeter number (4 for sl2)
    assert sl2.form.get(0, 2) == QQ.one        # <e, f>
    assert sl2.form.get(1, 1) == QQ.from_int(2)  # <h, h>
    assert sl2.form.get(0, 0) == QQ.zero
    assert sl2.form.is_symmetric()


def test_killing_form_option():
    k = builtin("sl", 2, QQ, form="killing")
    assert k.form.get(0, 2) == QQ.from_int(4)
    assert k.form.get(1, 1) == QQ.from_int(8)


def test_rational_form_scale():
    from fractions import Fraction
    quarter = builtin("sl", 2, QQ, form=Fraction(1, 4))
    std = algebra_from_name("sl2", QQ)
    assert quarter.form == std.form


def test_form_invariance_holds(sl2):
    e, h, f = (sl2.basis_vector(i) for i in range(3))
    lhs = sl2.form_value(sl2.bracket(e, h), f)
    rhs = sl2.form_value(e, sl2.bracket(h, f))
    assert lhs == rhs


def test_ad_matrices(sl2):
    ad_h = sl2.ad_basis(1)
    assert ad_h.mul_vec(sl2.basis_vector(0)) == sl2.basis_vector(0).scale(QQ.from_int(2))
    ad_e = sl2.ad_basis(0)
    assert ad_e.mul_vec(sl2.basis_vector(2)) == sl2.basis_vector(1)
    x = sl2.basis_vector(0) + sl2.basis_vector(2)
    assert sl2.ad(x) == ad_e + sl2.ad_basis(2)


@pytest.mark.parametrize("name,dim,scalar", [
    ("sl2", 3, 4),
    ("sl3", 8, 6),
    ("so5", 10, 6),
    ("sp4", 10, 6),
])
def test_builtin_families_validate(name, dim, scalar):
    alg = algebra_from_name(name, QQ)
    assert alg.dim == dim
    rep = alg.validate()
    assert rep.admissible
    assert rep.center_dim == 0
    # Casimir endomorphism is twice the dual Coxeter number times Id
    assert alg.casimir_scalar() == QQ.from_int(scalar)


def test_so5_and_sp4_share_casimir_but_differ_as_presentations():
    so5 = algebra_from_name("so5", QQ)
    sp4 = algebra_from_name("sp4", QQ)
    assert so5.casimir_scalar() == sp4.casimir_scalar()
    assert algebra_hash(so5) != algebra_hash(sp4)


def test_casimir_element_sl2(sl2):
    # C = ef + fe + h^2/2 written on the i >= j basis of the symmetric square
    cas = casimir_element(sl2)
    assert cas == LinComb({(2, 0): QQ.from_int(2), (1, 1): QQ.parse("1/2")})
    endo = sl2.casimir_endomorphism()
    assert endo == Matrix.identity(3, QQ).scale(QQ.from_int(4))


def test_casimir_scalar_over_prime_fields():
    for p in (7, 11):
        alg = algebra_from_name("sl3", PrimeField(p))
        assert alg.casimir_scalar() == 6 % p


def test_abelian_algebras():
    ab = abelian(2, QQ)
    rep = ab.validate()
    assert rep.structure_ok and rep.nondegenerate_ok
    assert rep.center_dim == 2
    assert not rep.admissible
    assert abelian(1, QQ).casimir_scalar() == QQ.zero


def test_algebra_hash_is_frozen():
    # canonical serialization; these change only if the wire format does
    assert algebra_hash(algebra_from_name("sl2", QQ)) == "sha256:883e283119c93c9f"
    assert algebra_hash(algebra_from_name("sl3", QQ)) == "sha256:54d8a3ea047ae74e"


def test_algebra_hash_depends_on_field_and_form():
    q_hash = algebra_hash(algebra_from_name("sl2", QQ))
    assert algebra_hash(algebra_from_name("sl2", PrimeField(7))) != q_hash
    assert algebra_hash(builtin("sl", 2, QQ, form="killing")) != q_hash


def test_unknown_builtin_name():
    with pytest.raises(AlgebraError, match="unknown builtin"):
        algebra_from_name("e17", QQ)


def test_dict_round_trip(sl2):
    data = algebra_to_dict(sl2)
    again = algebra_from_dict(data, QQ)
    assert algebra_hash(again) == algebra_hash(sl2)
    assert again.labels == sl2.labels
    for i in range(3):
        for j in range(3):
            assert again.bracket_basis(i, j) == sl2.bracket_basis(i, j)


def test_file_round_trip(tmp_path, sl2):
    path = tmp_path / "sl2.json"
    path.write_text(json.dumps(algebra_to_dict(sl2)))
    again = load_algebra(str(path), QQ)
    assert algebra_hash(again) == algebra_hash(sl2)


def test_file_round_trip_into_prime_field(tmp_path, sl2):
    path = tmp_path / "sl2.json"
    path.write_text(json.dumps(algebra_to_dict(sl2)))
    mod7 = load_algebra(str(path), PrimeField(7))
    assert mod7.field.p == 7
    assert mod7.casimir_scalar() == 4


def test_loader_rejects_broken_jacobi(sl2):
    data = algebra_to_dict(sl2)
    # corrupt one structure constant: [h, f] = -3f kills the Jacobi identity
    # on (e, h, f)
    assert data["brackets"][2][:2] == [1, 2]
    data["brackets"][2] = [1, 2, [[2, "-3"]]]
    with pytest.raises(AlgebraError, match="[Jj]acobi"):
        algebra_from_dict(data, QQ)


def test_loader_rejects_ill_stored_brackets(sl2):
    data = algebra_to_dict(sl2)
    data["brackets"].append([2, 1, []])  # wrong order: storage wants i < j
    with pytest.raises(AlgebraError, match="i < j"):
        algebra_from_dict(data, QQ)


def test_loader_rejects_dual_coxeter_without_value(sl2):
    data = algebra_to_dict(sl2)
    data["form"] = {"type": "dual_coxeter"}
    with pytest.raises(AlgebraError):
        algebra_from_dict(data, QQ)
    data["form"] = {"type": "dual_coxeter", "h_dual": 2}
    again = algebra_from_dict(data, QQ)
    assert again.form == sl2.form


def test_degenerate_form_loads_but_reports_inadmissible():
    ab = abelian(2, QQ)
    data = algebra_to_dict(ab)
    data["form"] = {"type": "matrix",
                    "entries": [[0, 0, "1"]]}  # rank 1 on a 2-dim space
    loaded = algebra_from_dict(data, QQ)
    rep = loaded.validate()
    assert rep.structure_ok
    assert not rep.nondegenerate_ok
    assert not rep.admissible


def _generated_subalgebra(alg, gens):
    """The span of all iterated brackets of the gens, by brute force."""
    span = Subspace([alg.basis_vector(g) for g in gens], alg.dim, alg.field)
    while True:
        brackets = [alg.bracket(a, b) for a in span.basis for b in span.basis]
        grown = Subspace(list(span.basis) + brackets, alg.dim, alg.field)
        if grown.dim == span.dim:
            return span
        span = grown


def _ad_is_diagonal(alg, i):
    return all(alg.bracket_basis(i, k).keys() <= {k} for k in range(alg.dim))


@pytest.mark.parametrize("field", [QQ, PrimeField(7)], ids=["q", "fp7"])
@pytest.mark.parametrize("name", ["sl2", "sl3", "so5", "sp4", "sl4"])
def test_lie_generators_generate_greedily(name, field):
    alg = algebra_from_name(name, field)
    gens = alg.lie_generators()
    # the walk: the basis in order, the elements with a diagonal ad last
    walk = sorted(range(alg.dim), key=lambda i: _ad_is_diagonal(alg, i))
    assert gens == [i for i in walk if i in gens]
    assert len(gens) == {"sl2": 2, "sl3": 5, "so5": 4, "sp4": 4, "sl4": 9}[name]
    assert _generated_subalgebra(alg, gens).dim == alg.dim
    # each kept element lies outside what the earlier ones generate, and
    # each skipped one inside
    for n, i in enumerate(walk):
        earlier = [g for g in gens if g in walk[:n]]
        inside = _generated_subalgebra(alg, earlier).contains(alg.basis_vector(i))
        assert inside == (i not in gens)
    # the Cartan elements come last and are never needed
    assert not any(_ad_is_diagonal(alg, g) for g in gens)


def test_e8_lie_generators_are_its_16_chevalley_generators():
    path = os.path.join(os.path.dirname(__file__), "..", "tools", "e8.json")
    alg = load_algebra(path, PrimeField(46337))
    gens = alg.lie_generators()
    assert len(gens) == 16
    assert not any(_ad_is_diagonal(alg, g) for g in gens)


def _center_oracle(alg):
    """The kernel of x -> ad_x, flattened, through the public
    rank_and_kernel on a Matrix of the field-scalar ad_basis entries."""
    d = alg.dim
    entries = {(r * d + c, i): v for i in range(d)
               for (r, c), v in alg.ad_basis(i).entries.items()}
    return rank_and_kernel(Matrix(d * d, d, alg.field, entries))[1]


@pytest.mark.parametrize("field", [QQ, F7], ids=["q", "fp7"])
@pytest.mark.parametrize("name", ["sl2", "sl3", "sl4", "so5", "sp4",
                                  "abelian2", "abelian3"])
def test_center_from_the_lift_matches_the_ad_matrix_oracle(name, field):
    alg = (abelian(int(name[-1]), field) if name.startswith("abelian")
           else algebra_from_name(name, field))
    center = alg.center()
    assert center == _center_oracle(alg)
    assert center.dim == (alg.dim if name.startswith("abelian") else 0)


def test_center_of_e8_from_the_lift_matches_the_ad_matrix_oracle():
    path = os.path.join(os.path.dirname(__file__), "..", "tools", "e8.json")
    alg = load_algebra(path, PrimeField(46337))
    assert alg.center() == _center_oracle(alg)
    assert alg.center().dim == 0


def test_once_keeps_each_result_per_object_and_nothing_from_a_refusal():
    class Probe:
        def __init__(self, *results):
            self.results, self.calls = iter(results), 0

        @once
        def value(self):
            self.calls += 1
            r = next(self.results)
            if isinstance(r, Exception):
                raise r
            return r

    probe = Probe(AlgebraError("first"), AlgebraError("second"), None, 1)
    for refusal in ("first", "second"):
        with pytest.raises(AlgebraError, match=refusal):
            probe.value()
    assert probe.value() is None and probe.value() is None
    assert probe.calls == 3
    assert Probe(2).value() == 2
    # a plain function, which a tracer can wrap through the class __dict__
    assert inspect.isfunction(vars(Probe)["value"])


def test_lie_generators_of_an_abelian_algebra_are_its_basis():
    assert abelian(3, QQ).lie_generators() == [0, 1, 2]


# -- the integer lift -------------------------------------------------------


@pytest.mark.parametrize("field", [QQ, F7], ids=["q", "fp7"])
@pytest.mark.parametrize("name", ["sl3", "so5", "scaled-sl3"])
def test_integer_lift_is_t_times_the_constants(name, field, algebra_by_name):
    alg = algebra_by_name(name, field)
    lift = alg.integer_lift()
    # 150 = 2 * 3 * 5^2, the lcm of the denominators of the rescaled
    # constants (5/6, 6/5, ...) and form values (1/4, 9/25, ...)
    assert lift.t == (150 if name == "scaled-sl3" and field is QQ else 1)
    t = field.from_int(lift.t)
    half = field.char // 2
    for i in range(alg.dim):
        assert lift.triples[i] == [(q, m, c) for q in range(alg.dim)
                                   for m, c in lift.ad[i][q]]
        for q in range(alg.dim):
            assert LinComb({m: field.from_int(c) for m, c in lift.ad[i][q]}) \
                == alg.bracket_basis(i, q).scale(t)
            assert field.from_int(lift.form[i].get(q, 0)) \
                == alg.form.get(i, q) * t * t
            if field.char:
                assert all(-half <= c <= half for _, c in lift.ad[i][q])


def _jacobi_oracle(alg):
    """Jacobi by the definition, with ad_i ad_j and ad_j ad_i as Matrix
    products: the first failing pair i < j, and the least column of the
    difference."""
    for i in range(alg.dim):
        adi = alg.ad_basis(i)
        for j in range(i + 1, alg.dim):
            adj = alg.ad_basis(j)
            lhs = alg.ad(alg.bracket_basis(i, j))
            rhs = adi @ adj - adj @ adi
            if lhs != rhs:
                k = min(q for (_, q) in (lhs - rhs).entries)
                return False, (alg.labels[i], alg.labels[j], alg.labels[k])
    return True, None


@functools.lru_cache(maxsize=None)
def _builtin_and_its_file_brackets(name, field):
    return (algebra_from_name(name, field),
            algebra_to_dict(algebra_from_name(name, QQ))["brackets"])


def _corrupted(name, field, entry, change):
    """The builtin with one structure constant changed, built without the
    loader's validation."""
    good, stored = _builtin_and_its_file_brackets(name, field)
    brackets = {}
    for n, (i, j, terms) in enumerate(stored):
        coeffs = [(k, Fraction(c)) for k, c in terms]
        if n == entry:
            (k, c), *rest = coeffs
            coeffs = [(k, change(c)), *rest]
        brackets[(i, j)] = LinComb({k: field.from_fraction(c) for k, c in coeffs})
    return LieAlgebra(field, good.labels, brackets, good.form, name=name)


CORRUPTIONS = [(lambda c: 2 * c, False), (lambda c: -c, False),
               (lambda c: c + Fraction(1, 3), False),
               (lambda c: c + 7, True)]  # the last one vanishes mod 7


@pytest.mark.parametrize("field", [QQ, F7], ids=["q", "fp7"])
@pytest.mark.parametrize("name", ["sl3", "so5", "sl4"])
def test_jacobi_check_matches_the_matrix_product_oracle(name, field):
    alg = algebra_from_name(name, field)
    assert alg._check_jacobi() == _jacobi_oracle(alg) == (True, None)
    n = len(algebra_to_dict(alg)["brackets"])
    for entry in (0, n // 3, n // 2, n - 1):
        for change, vanishes_mod_7 in CORRUPTIONS:
            bad = _corrupted(name, field, entry, change)
            verdict = bad._check_jacobi()
            assert verdict == _jacobi_oracle(bad), (entry, verdict)
            assert verdict[0] == (vanishes_mod_7 and field is F7), (entry, verdict)


def _pair_scan_verdict(alg):
    """Jacobi as the pair scan alone decides it, on every pair i < j."""
    witness = alg._jacobi_pair_scan()
    return (witness is None, witness)


@pytest.mark.parametrize("field", [QQ, F7], ids=["q", "fp7"])
@pytest.mark.parametrize("name", ["sl2", "sl3", "so5", "sp4", "sl4"])
def test_jacobi_on_the_generators_agrees_with_the_pair_scan_on_every_corruption(
        name, field):
    alg = algebra_from_name(name, field)
    assert alg._check_jacobi() == _pair_scan_verdict(alg) == (True, None)
    failures = 0
    for entry in range(len(algebra_to_dict(alg)["brackets"])):
        for change, _ in CORRUPTIONS:
            bad = _corrupted(name, field, entry, change)
            verdict = bad._check_jacobi()
            assert verdict == _pair_scan_verdict(bad), (entry, verdict)
            failures += not verdict[0]
    assert failures > 0


@pytest.mark.parametrize("which", ["sl4", "e8"])
def test_jacobi_on_a_valid_algebra_tests_only_generator_pairs(which, monkeypatch):
    calls = []
    columns = LieAlgebra._jacobi_columns

    def counted(self, i, j):
        calls.append((i, j))
        return columns(self, i, j)

    def refused(self):
        raise AssertionError("the pair scan ran on a valid algebra")

    monkeypatch.setattr(LieAlgebra, "_jacobi_columns", counted)
    monkeypatch.setattr(LieAlgebra, "_jacobi_pair_scan", refused)
    if which == "e8":
        path = os.path.join(os.path.dirname(__file__), "..", "tools", "e8.json")
        alg = load_algebra(path, PrimeField(46337))
    else:
        alg = algebra_from_name(which, QQ)
    assert alg.validate().jacobi_ok
    gens = alg.lie_generators()
    # each x against every y != x, but a pair of generators only once
    assert len(calls) == len(gens) * (alg.dim - 1) - len(gens) * (len(gens) - 1) // 2
    assert calls == [(x, y) for k, x in enumerate(gens) for y in range(alg.dim)
                     if y != x and y not in gens[:k]]


# the witness of each bracket between two Lie generators doubled, as the
# check that tested both orders of a generator pair found it
GENERATOR_PAIR_WITNESSES = {
    "sl3": {0: ("E12", "E13", "E21"), 3: ("E12", "E13", "E21"),
            4: ("E12", "E13", "E31"), 7: ("E12", "E13", "E21"),
            8: ("E12", "E13", "E31"), 12: ("E12", "E23", "E31")},
    "sp4": {6: ("A12", "A21", "B11"), 10: ("A12", "A21", "C11"),
            13: ("A12", "A21", "B11"), 21: ("A12", "B11", "C11")},
}


@pytest.mark.parametrize("field", [QQ, F7], ids=["q", "fp7"])
@pytest.mark.parametrize("name", sorted(GENERATOR_PAIR_WITNESSES))
def test_a_broken_bracket_between_two_generators_is_refused_with_its_witness(
        name, field):
    alg = algebra_from_name(name, field)
    gens = alg.lie_generators()
    stored = algebra_to_dict(algebra_from_name(name, QQ))["brackets"]
    between = {n for n, (i, j, _) in enumerate(stored) if i in gens and j in gens}
    assert between == set(GENERATOR_PAIR_WITNESSES[name])
    for entry, witness in GENERATOR_PAIR_WITNESSES[name].items():
        bad = _corrupted(name, field, entry, lambda c: 2 * c)
        assert bad._check_jacobi() == _jacobi_oracle(bad) == (False, witness)
        data = algebra_to_dict(bad)
        with pytest.raises(AlgebraError, match=re.escape(str(witness))):
            algebra_from_dict(data, field)


def _invariance_oracle(alg):
    """Invariance by the definition, with g ad_i and ad_i^T g as Matrix
    products: the first failing i, and the least entry of the sum."""
    g = alg.form
    for i in range(alg.dim):
        adi = alg.ad_basis(i)
        lhs = g @ adi
        rhs = adi.transpose() @ g
        if lhs != -rhs:
            (j, k) = min((lhs + rhs).entries)
            return False, (alg.labels[i], alg.labels[k], alg.labels[j])
    return True, None


@pytest.mark.parametrize("field", [QQ, F7], ids=["q", "fp7"])
@pytest.mark.parametrize("name", ["sl3", "so5", "sl4", "scaled-sl3"])
def test_invariance_check_matches_the_matrix_product_oracle(name, field,
                                                            algebra_by_name):
    alg = algebra_by_name(name, field)
    assert alg._check_invariance() == _invariance_oracle(alg) == (True, None)
    one = field.one
    failures = 0
    for r, c in sorted(alg.form.entries):
        # the entry bumped on both sides of the diagonal, then on one side
        for bumped in ({(r, c), (c, r)}, {(r, c)}):
            entries = dict(alg.form.entries)
            for key in bumped:
                entries[key] = entries.get(key, field.zero) + one
            bad = LieAlgebra(field, alg.labels, alg.brackets,
                             Matrix(alg.dim, alg.dim, field, entries), name=name)
            verdict = bad._check_invariance()
            assert verdict == _invariance_oracle(bad), ((r, c), bumped, verdict)
            failures += not verdict[0]
    assert failures > 0


def _structure_constants_by_solves(mats):
    """The oracle: one solve per nonzero commutator against the basis."""
    size = 1 + max(max(r, c) for m in mats for (r, c) in m)
    cols = [LinComb({r * size + c: Fraction(v) for (r, c), v in m.items()})
            for m in mats]
    span = Matrix.from_columns(cols, size * size, QQ)
    out = {}
    for i in range(len(mats)):
        for j in range(i + 1, len(mats)):
            comm = _mat_commutator(mats[i], mats[j])
            if comm:
                coords = solve(span, LinComb({r * size + c: Fraction(v)
                                              for (r, c), v in comm.items()}))
                if coords is None:
                    raise AlgebraError("commutator left the span of the basis")
                out[(i, j)] = coords
    return out


@pytest.mark.parametrize("family,n", [("sl", n) for n in (2, 3, 4, 5)]
                         + [("so", n) for n in (3, 4, 5, 6)]
                         + [("sp", n) for n in (2, 4, 6)])
def test_structure_constants_match_the_per_commutator_solves(family, n):
    _, mats = _matrix_basis(family, n)
    got = _structure_constants(mats)
    want = _structure_constants_by_solves(mats)
    assert list(got) == list(want)
    assert all(list(got[k].items()) == list(want[k].items()) for k in want)


def test_structure_constants_refuse_a_basis_not_closed_under_the_commutator():
    # E12 and E21 without their commutator E11 - E22
    mats = [{(0, 1): 1}, {(1, 0): 1}]
    for constants in (_structure_constants, _structure_constants_by_solves):
        with pytest.raises(AlgebraError, match="commutator left the span"):
            constants(mats)
