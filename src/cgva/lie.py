"""Finite-dimensional Lie algebras with an invariant symmetric bilinear form.

An algebra is a basis with structure constants, stored only for i < j
(antisymmetry fills in the rest), plus a form matrix.  Built-in classical
families are realized by integer matrices and their structure constants are
computed over Q once, then mapped into the requested field; exceptional
algebras come in through JSON files only.

Conventions.  Basis indices are 0-based everywhere; JSON files use the
same convention.  The Killing form is K(a, b) = tr(ad_a ad_b).
"""

from __future__ import annotations

import functools
import hashlib
import json
import math
import re
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Union

from .fields import QQ, FieldError, int_coefficients
from .linalg import (LinComb, Matrix, _axpy, _kernel, _rref,
                     greedy_generators, matrix_inverse, matrix_rank, Subspace)


LABEL = r"[A-Za-z_][A-Za-z_0-9]*"  # a basis label, as parse_state reads it


class AlgebraError(ValueError):
    """Malformed algebra data or a failed structural validation."""


def once(fn):
    """fn(obj), computed on the first call and kept in obj.__dict__ for as
    long as obj lives; a hit costs one dict lookup.  A call that raises
    keeps nothing, so a refusal is refused again on every later call,
    never read back as a result.  The decorated fn is a plain function,
    so a method stays wrappable through its class's __dict__."""
    key = fn.__qualname__ + "()"  # not an identifier: it shadows no attribute

    @functools.wraps(fn)
    def cached(obj):
        try:
            return obj.__dict__[key]
        except KeyError:
            pass
        value = obj.__dict__[key] = fn(obj)
        return value

    return cached


DUAL_COXETER = {"sl": lambda n: n, "so": lambda n: n - 2, "sp": lambda n: n // 2 + 1}


@dataclass
class ValidationReport:
    """Outcome of the structural and admissibility checks."""

    jacobi_ok: bool
    jacobi_witness: Optional[tuple] = None
    form_symmetric_ok: bool = True
    invariance_ok: bool = True
    invariance_witness: Optional[tuple] = None
    nondegenerate_ok: bool = True
    center_dim: int = 0
    characteristic: int = 0

    @property
    def structure_ok(self) -> bool:
        return self.jacobi_ok and self.form_symmetric_ok and self.invariance_ok

    @property
    def admissible(self) -> bool:
        """Whether the algebra meets the running assumptions of the main
        construction: valid structure, nondegenerate form, trivial center
        (characteristic 2 is already unrepresentable)."""
        return self.structure_ok and self.nondegenerate_ok and self.center_dim == 0

    def to_dict(self) -> dict:
        return {
            "jacobi_ok": self.jacobi_ok,
            "jacobi_witness": list(self.jacobi_witness) if self.jacobi_witness else None,
            "form_symmetric_ok": self.form_symmetric_ok,
            "invariance_ok": self.invariance_ok,
            "invariance_witness": (list(self.invariance_witness)
                                   if self.invariance_witness else None),
            "nondegenerate_ok": self.nondegenerate_ok,
            "center_dim": self.center_dim,
            "characteristic": self.characteristic,
            "structure_ok": self.structure_ok,
            "admissible": self.admissible,
        }


@dataclass(frozen=True)
class IntegerLift:
    """The structure constants and form values as Python ints, in a basis
    where they are integers.

    Over Q, with t the lcm of the denominators of all bracket constants and
    form values, the basis b_i = t e_i has bracket constants t c and form
    values t^2 k, all integers.  Over F_p, t is 1 and the ints are the
    symmetric representatives, which keeps them small.  A product of r
    basis elements computed on the ints is t^r times the product on the
    e's, and an F_p result is the reduction of the integer result.

    ad[i][q] holds the terms of [b_i, b_q] as (m, int) pairs; triples[i]
    lists the same terms for every q as (q, m, int), so the nonzero
    entries of ad_i are walked without the empty ones; form[i] maps q to
    <b_i, b_q> where that is nonzero.
    """

    t: int
    ad: list
    triples: list
    form: list

    def add_ad_product(self, acc: dict, i: int, j: int, w: int) -> None:
        """Add w ad_i ad_j into acc, in place: w times the coefficient of
        b_r in [b_i, [b_j, b_q]] at key (r, q).  The one double-bracket
        loop; entries that cancel stay as zeros."""
        get = acc.get
        adi = self.ad[i]
        for q, m, c in self.triples[j]:
            c *= w
            for r, cr in adi[m]:
                key = (r, q)
                acc[key] = get(key, 0) + c * cr

    def add_ad(self, acc: dict, k: int, w: int) -> None:
        """Add w ad_k into acc, in place: w times the coefficient of b_m in
        [b_k, b_q] at key (m, q)."""
        get = acc.get
        for q, m, c in self.triples[k]:
            key = (m, q)
            acc[key] = get(key, 0) + w * c


class LieAlgebra:
    """A Lie algebra over an exact field, with a chosen bilinear form."""

    def __init__(self, field, labels: list[str], brackets: dict, form: Matrix,
                 name: str = "custom"):
        self.field = field
        self.dim = len(labels)
        self.labels = list(labels)
        if len(set(self.labels)) != self.dim:
            raise AlgebraError("duplicate basis labels")
        self.name = name
        self.brackets = {}
        for (i, j), v in brackets.items():
            if not (0 <= i < j < self.dim):
                raise AlgebraError(
                    f"bracket key ({i},{j}) must satisfy 0 <= i < j < dim "
                    "(antisymmetry determines the rest)")
            vv = v if isinstance(v, LinComb) else LinComb(v)
            if vv:
                self.brackets[(i, j)] = vv
        if form.nrows != self.dim or form.ncols != self.dim or form.field != field:
            raise AlgebraError("form matrix does not match the basis")
        self.form = form
        self._form_rows = form.rows_as_dicts()
        self.label_index = {l: i for i, l in enumerate(self.labels)}

    # -- basic structure ---------------------------------------------------

    def basis_vector(self, i: int) -> LinComb:
        return LinComb.term(i, self.field.one)

    def bracket_basis(self, i: int, j: int) -> LinComb:
        if i == j:
            return LinComb()
        if i < j:
            return self.brackets.get((i, j), LinComb())
        v = self.brackets.get((j, i))
        return -v if v is not None else LinComb()

    def bracket(self, a: LinComb, b: LinComb) -> LinComb:
        out: dict = {}
        for i, ca in a.items():
            for j, cb in b.items():
                v = self.bracket_basis(i, j)
                if v:
                    _axpy(out, v.items(), ca * cb)
        return LinComb._raw(out)

    @once
    def _ad_matrices(self) -> list[Matrix]:
        return [Matrix(self.dim, self.dim, self.field,
                       {(k, j): c for j in range(self.dim)
                        for k, c in self.bracket_basis(i, j).items()})
                for i in range(self.dim)]

    def ad_basis(self, i: int) -> Matrix:
        return self._ad_matrices()[i]

    def ad(self, a: LinComb) -> Matrix:
        out: dict = {}
        for i, c in a.items():
            _axpy(out, self.ad_basis(i).entries.items(), c)
        return Matrix(self.dim, self.dim, self.field, out)

    def ad_ints(self, x: int) -> tuple[list[list], int]:
        """ad e_x on ints: the columns [e_x, e_k], k = 0..dim-1, as lists of
        (index, int) pairs over one common denominator D of all of them,
        and D (fields.int_coefficients; over F_p the residues and 1).  Read
        off the brackets themselves, never the integer lift: D times ad e_x
        is the map greedy_generators takes, here and in cg.sym2_action."""
        cols = [self.bracket_basis(x, k).terms for k in range(self.dim)]
        ints, den = int_coefficients(self.field, [c for col in cols
                                                  for c in col.values()])
        it = iter(ints)
        return [[(m, next(it)) for m in col] for col in cols], den

    def form_apply(self, a: LinComb) -> LinComb:
        """The covector kappa(a, .) as a coordinate vector: the rows of the
        form, summed with a's coefficients."""
        out: dict = {}
        for i, c in a.items():
            _axpy(out, self._form_rows[i].items(), c)
        return LinComb._raw(out)

    def form_value(self, a: LinComb, b: LinComb):
        out = self.field.zero
        ga = self.form_apply(a)
        for i, c in b.items():
            v = ga.terms.get(i)
            if v is not None:
                out = out + v * c
        return out

    @once
    def integer_lift(self) -> IntegerLift:
        """The integer structure constants and form values, from the stored
        brackets: each (i, j) gives ad[i][j] and its negation ad[j][i].
        The vertex engine, cg.s_map, cg.star, center and the structure
        checks all read them."""
        d = self.dim
        if self.field.char:
            p = self.field.p
            t = 1
            lift = lambda c: c.val - p if 2 * c.val > p else c.val
        else:
            t = math.lcm(*[c.denominator for v in self.brackets.values()
                           for c in v.terms.values()],
                         *[c.denominator for c in self.form.entries.values()])
            lift = int
        ad = [[()] * d for _ in range(d)]
        for (i, j), v in self.brackets.items():
            terms = tuple((m, lift(c * t)) for m, c in v.items())
            ad[i][j] = terms
            ad[j][i] = tuple((m, -c) for m, c in terms)
        triples = [[(q, m, c) for q, terms in enumerate(row) for m, c in terms]
                   for row in ad]
        form: list[dict] = [{} for _ in range(d)]
        for (r, q), c in self.form.entries.items():
            form[r][q] = lift(c * t * t)
        return IntegerLift(t, ad, triples, form)

    @once
    def killing(self) -> Matrix:
        ads = self._ad_matrices()
        entries = {}
        for i in range(self.dim):
            rows_i = ads[i].entries
            for j in range(i, self.dim):
                other = ads[j].entries
                t = self.field.zero
                for (p, q), v in rows_i.items():
                    w = other.get((q, p))
                    if w is not None:
                        t = t + v * w
                if t:
                    entries[(i, j)] = t
                    if i != j:
                        entries[(j, i)] = t
        return Matrix(self.dim, self.dim, self.field, entries)

    @once
    def lie_generators(self) -> list[int]:
        """Basis indices that generate g as a Lie algebra, chosen greedily:
        e_i is kept only if it lies outside the closure of the kept ones'
        span under their ad maps.  The basis is walked in order, those whose
        ad is diagonal in the basis last: a closure is stable under the
        brackets of its maps, so a Cartan element is kept only if needed."""
        maps: list = []

        def ad_maps(kept):
            maps.extend(self.ad_ints(next(iter(v)))[0].__getitem__
                        for v in kept[len(maps):])
            return maps

        walk = sorted(range(self.dim), key=lambda i: all(
            self.bracket_basis(i, k).keys() <= {k} for k in range(self.dim)))
        gens, _ = greedy_generators(
            (self.basis_vector(i) for i in walk), ad_maps,
            self.dim, self.field, self.dim)
        return [next(iter(v)) for v in gens]

    @once
    def center(self) -> Subspace:
        # column i is t ad_i, flattened; t != 0 leaves the kernel alone.
        # The lift's ints go in as raw scalars: residues mod p over F_p,
        # the ints themselves over Q
        d, p = self.dim, self.field.char
        rows: list[dict] = [{} for _ in range(d * d)]
        for i, col in enumerate(self.integer_lift().triples):
            for q, m, c in col:
                rows[m * d + q][i] = c % p if p else c
        return _kernel(*_rref(rows, d, self.field), d, self.field)

    # -- validation --------------------------------------------------------

    @once
    def validate(self) -> ValidationReport:
        """Jacobi, symmetry, invariance and nondegeneracy of the form, and
        the center.  Jacobi and invariance run on the integer lift, the
        center's matrix is read off it, and each check is a full one: a
        failure carries the same witness as the pair-by-pair definition."""
        jac_ok, jac_wit = self._check_jacobi()
        sym_ok = self.form.is_symmetric()
        inv_ok, inv_wit = self._check_invariance()
        nondeg = matrix_rank(self.form) == self.dim
        return ValidationReport(
            jacobi_ok=jac_ok,
            jacobi_witness=jac_wit,
            form_symmetric_ok=sym_ok,
            invariance_ok=inv_ok,
            invariance_witness=inv_wit,
            nondegenerate_ok=nondeg,
            center_dim=self.center().dim,
            characteristic=self.field.char,
        )

    def _check_jacobi(self) -> tuple[bool, Optional[tuple]]:
        """Jacobi, decided on the Lie generators: [ad_x, ad_y] = ad_[x,y] on
        every column, for each x in lie_generators() and every basis y != x.

        That condition says ad_x is a derivation, and the set D of such x
        is a linear subspace.  For x in D and any y it gives ad_[x,y] =
        [ad_x, ad_y], a commutator of derivations when y is in D too, so D
        is a subalgebra.  It therefore contains the closure of the
        generators under their ad maps, which lie_generators builds to be
        all of g; no step uses Jacobi or the characteristic.  With every
        ad_x a derivation, antisymmetry, which storing brackets with i < j
        enforces, turns the derivation rule into the Jacobi identity.

        A pair of generators is tested once: (y, x) gives the exact
        negative of (x, y), as the lift stores ad[j][i] as the negation of
        ad[i][j].

        Only after a failure does the pair scan run, for the witness: the
        first failing pair i < j and the least column of the difference,
        as the definition on every basis triple gives it."""
        done: set = set()
        for x in self.lie_generators():
            for y in range(self.dim):
                if y != x and y not in done and self._jacobi_columns(x, y):
                    witness = self._jacobi_pair_scan()
                    if witness is None:
                        raise AssertionError(
                            f"{self.name}: Jacobi fails on the generators "
                            "but on no basis triple")
                    return False, witness
            done.add(x)
        return True, None

    def _jacobi_pair_scan(self) -> Optional[tuple]:
        """The first pair i < j with ad_i ad_j - ad_j ad_i != ad_[e_i,e_j],
        and the least column of the difference, as labels, or None.  Column
        q is the alternating Jacobiator J(e_i, e_j, e_q), so only q > j is
        tested: a failure at q < j is one of an earlier pair."""
        for i in range(self.dim):
            for j in range(i + 1, self.dim):
                cols = [q for q in self._jacobi_columns(i, j) if q > j]
                if cols:
                    return (self.labels[i], self.labels[j], self.labels[min(cols)])
        return None

    def _jacobi_columns(self, i: int, j: int) -> list[int]:
        """The columns q where ad_i ad_j - ad_j ad_i - ad_[e_i,e_j] is
        nonzero in the field.  On the integer lift that difference is t^2
        times the one over the field, and over F_p it is reduced mod p."""
        lift = self.integer_lift()
        p = self.field.char
        diff: dict = {}
        lift.add_ad_product(diff, i, j, 1)
        lift.add_ad_product(diff, j, i, -1)
        for k, ck in lift.ad[i][j]:
            lift.add_ad(diff, k, -ck)
        return [q for (_, q), v in diff.items() if (v % p if p else v)]

    def _check_invariance(self) -> tuple[bool, Optional[tuple]]:
        """Every ad_i skew for the form, g ad_i + ad_i^T g = 0, which is
        kappa([a,b],c) + kappa(b,[a,c]) = 0 on all basis triples.  It runs
        on the integer lift, where the sum is t^3 times the one over the
        field, reduced mod p over F_p.  Entry (j, k) reads kappa(e_j, e_m)
        from row j in g ad_i and kappa(e_m, e_k) from row m in ad_i^T g, so
        a form that is not symmetric gets the verdict of those products.
        The witness is the first failing i and the least entry (j, k)."""
        lift = self.integer_lift()
        p = self.field.char
        form_cols: list[list] = [[] for _ in range(self.dim)]
        for j, row in enumerate(lift.form):
            for m, g in row.items():
                form_cols[m].append((j, g))
        for i, col in enumerate(lift.triples):
            diff: dict = {}
            get = diff.get
            for q, m, c in col:
                for j, g in form_cols[m]:  # (g ad_i)[j, q]
                    diff[(j, q)] = get((j, q), 0) + g * c
                for k, g in lift.form[m].items():  # (ad_i^T g)[q, k]
                    diff[(q, k)] = get((q, k), 0) + c * g
            bad = [key for key, v in diff.items() if (v % p if p else v)]
            if bad:
                j, k = min(bad)
                return False, (self.labels[i], self.labels[k], self.labels[j])
        return True, None

    # -- Casimir -----------------------------------------------------------

    def gram_inverse(self) -> Matrix:
        inv = matrix_inverse(self.form)
        if inv is None:
            raise AlgebraError("bilinear form is degenerate; no dual basis")
        return inv

    def casimir_endomorphism(self) -> Matrix:
        """sum_i ad(e_i) ad(u^i) for dual bases e_i, u^i of the form."""
        ginv = self.gram_inverse()
        out: dict = {}
        for i in range(self.dim):
            dual = LinComb({j: v for (j, ii), v in ginv.entries.items() if ii == i})
            _axpy(out, (self.ad_basis(i) @ self.ad(dual)).entries.items())
        return Matrix(self.dim, self.dim, self.field, out)

    def casimir_scalar(self):
        """The scalar s with Casimir = s * Id, or None if not scalar."""
        m = self.casimir_endomorphism()
        s = m.get(0, 0)
        if m == Matrix.identity(self.dim, self.field).scale(s):
            return s
        return None

    def __repr__(self) -> str:
        return f"LieAlgebra({self.name}, dim {self.dim} over {self.field!r})"


# -- built-in families -----------------------------------------------------


def _matrix_basis(family: str, n: int) -> tuple[list[str], list[dict]]:
    """Integer matrix realizations; returns (labels, list of {(r,c): int})."""
    if family == "sl":
        if n < 2:
            raise AlgebraError("sl(n) needs n >= 2")
        labels, mats = [], []
        for i in range(n):
            for j in range(i + 1, n):
                labels.append(f"E{i + 1}{j + 1}")
                mats.append({(i, j): 1})
        for k in range(n - 1):
            labels.append(f"H{k + 1}")
            mats.append({(k, k): 1, (k + 1, k + 1): -1})
        for i in range(1, n):
            for j in range(i):
                labels.append(f"E{i + 1}{j + 1}")
                mats.append({(i, j): 1})
        if n == 2:
            labels = ["e", "h", "f"]
        return labels, mats
    if family == "so":
        if n < 3:
            raise AlgebraError("so(n) needs n >= 3")
        labels, mats = [], []
        for i in range(n):
            for j in range(i + 1, n):
                labels.append(f"F{i + 1}{j + 1}")
                mats.append({(i, j): 1, (j, i): -1})
        return labels, mats
    if family == "sp":
        if n < 2 or n % 2:
            raise AlgebraError("sp(n) needs even n >= 2")
        m = n // 2
        labels, mats = [], []
        for i in range(m):
            for j in range(m):
                labels.append(f"A{i + 1}{j + 1}")
                mats.append({(i, j): 1, (m + j, m + i): -1})
        for i in range(m):
            for j in range(i, m):
                labels.append(f"B{i + 1}{j + 1}")
                mats.append({(i, m + j): 1, (j, m + i): 1} if i != j else {(i, m + i): 1})
        for i in range(m):
            for j in range(i, m):
                labels.append(f"C{i + 1}{j + 1}")
                mats.append({(m + i, j): 1, (m + j, i): 1} if i != j else {(m + i, i): 1})
        return labels, mats
    raise AlgebraError(f"unknown family {family!r} (expected sl, so or sp)")


def _mat_commutator(x: dict, y: dict) -> dict:
    out: dict = {}
    ycols: dict = {}
    for (r, c), v in y.items():
        ycols.setdefault(r, []).append((c, v))
    xcols: dict = {}
    for (r, c), v in x.items():
        xcols.setdefault(r, []).append((c, v))
    for (r, k), v in x.items():
        _axpy(out, (((r, c), w) for c, w in ycols.get(k, ())), v)
    for (r, k), v in y.items():
        _axpy(out, (((r, c), w) for c, w in xcols.get(k, ())), -v)
    return out


def _structure_constants(mats: list[dict]) -> dict:
    """Brackets of all basis pairs, as Fraction coordinates in the basis:
    one RREF of the basis matrices as columns, every nonzero commutator
    appended as a column.  A pivot there means it left the span."""
    size = 1 + max(max(r, c) for m in mats for (r, c) in m)
    nb = len(mats)
    comms = {(i, j): comm for i in range(nb) for j in range(i + 1, nb)
             if (comm := _mat_commutator(mats[i], mats[j]))}
    pairs = list(comms)
    rows: dict[int, dict] = {}
    for k, m in enumerate(mats + list(comms.values())):
        for (r, c), v in m.items():
            rows.setdefault(r * size + c, {})[k] = v
    piv_cols, piv_rows = _rref(list(rows.values()), nb + len(pairs), QQ)
    if piv_cols and piv_cols[-1] >= nb:
        raise AlgebraError("commutator left the span of the basis")
    out: dict = {ij: {} for ij in pairs}
    for p, row in zip(piv_cols, piv_rows):
        for k, v in row.items():
            if k >= nb:
                out[pairs[k - nb]][p] = v
    return {ij: LinComb._raw(c) for ij, c in out.items()}


def builtin(family: str, n: int, field=QQ,
            form: Union[str, Fraction] = "dual_coxeter") -> LieAlgebra:
    """A classical algebra sl(n), so(n) or sp(n) (n = matrix size).

    form: "killing", "dual_coxeter" (Killing scaled by 1/(2 h-vee), the
    default), or an explicit Fraction scale applied to Killing.
    """
    labels, mats = _matrix_basis(family, n)
    consts = _structure_constants(mats)
    rational = LieAlgebra(QQ, labels, consts, Matrix.zero(len(labels), len(labels), QQ),
                          name=f"{family}{n}")
    killing_q = rational.killing()

    def to_field(v: Fraction):
        return field.from_fraction(v)

    brackets_f = {k: LinComb({i: to_field(c) for i, c in v.items()})
                  for k, v in consts.items()}
    if form == "killing":
        scale = Fraction(1)
    elif form == "dual_coxeter":
        scale = Fraction(1, 2 * DUAL_COXETER[family](n))
    elif isinstance(form, Fraction):
        scale = form
    else:
        raise AlgebraError(f"unknown form spec {form!r}")
    try:
        form_f = Matrix(len(labels), len(labels), field,
                        {k: to_field(v * scale) for k, v in killing_q.entries.items()})
    except FieldError as exc:
        raise AlgebraError(
            f"form scale {scale} is not defined over {field!r}: {exc}") from exc
    alg = LieAlgebra(field, labels, brackets_f, form_f, name=f"{family}{n}")
    report = alg.validate()
    if not report.structure_ok:
        raise AlgebraError(f"builtin {family}{n} failed validation: {report.to_dict()}")
    return alg


_BUILTIN_NAMES = {"sl", "so", "sp"}


def algebra_from_name(name: str, field=QQ,
                      form: Union[str, Fraction] = "dual_coxeter") -> LieAlgebra:
    """Resolve a name like "sl2", "so5" or "sp4" to a built-in algebra;
    form as for builtin."""
    for fam in _BUILTIN_NAMES:
        if name.startswith(fam):
            try:
                n = int(name[len(fam):])
            except ValueError:
                break
            return builtin(fam, n, field, form)
    raise AlgebraError(f"unknown builtin algebra {name!r}")


# -- JSON interchange ------------------------------------------------------


def algebra_to_dict(alg: LieAlgebra) -> dict:
    """Canonical JSON-ready form; scalars become exact strings, the bilinear
    form is always materialized as explicit matrix entries."""
    fmt = alg.field.format
    brackets = []
    for (i, j) in sorted(alg.brackets):
        terms = sorted(alg.brackets[(i, j)].items())
        brackets.append([i, j, [[k, fmt(c)] for k, c in terms]])
    entries = [[r, c, fmt(v)] for (r, c), v in sorted(alg.form.entries.items())]
    return {
        "name": alg.name,
        "dim": alg.dim,
        "basis": list(alg.labels),
        "brackets": brackets,
        "form": {"type": "matrix", "entries": entries},
    }


def algebra_hash(alg: LieAlgebra) -> str:
    blob = json.dumps(algebra_to_dict(alg), sort_keys=True, separators=(",", ":"))
    return "sha256:" + hashlib.sha256(blob.encode()).hexdigest()[:16]


def _is_int(x) -> bool:
    """x is a JSON integer: an int, and not true or false, which are bools."""
    return isinstance(x, int) and not isinstance(x, bool)


def _json_list(items, size: int, what: str) -> list:
    """items, checked to be a list of `size`-element lists; AlgebraError
    names the first entry that is not one."""
    if not isinstance(items, (list, tuple)):
        plural = what[:-1] + "ies" if what.endswith("y") else what + "s"
        raise AlgebraError(f"{plural} must be a list, not {items!r}")
    for item in items:
        if not (isinstance(item, (list, tuple)) and len(item) == size):
            raise AlgebraError(f"malformed {what} {item!r}")
    return items


def algebra_from_dict(data: dict, field=QQ) -> LieAlgebra:
    """The algebra a JSON object describes.  A malformed entry, an index
    outside the basis or a scalar that is not a rational of the field
    raises AlgebraError naming it.  A scalar is a string or an integer:
    a JSON float is a binary fraction, not the decimal written, so it is
    refused, as is true or false wherever an integer belongs."""
    if not isinstance(data, dict):
        kind = {list: "an array", str: "a string", int: "a number",
                float: "a number", bool: "true or false",
                type(None): "null"}.get(type(data), type(data).__name__)
        raise AlgebraError(f"algebra data must be a JSON object, not {kind}")
    try:
        name = data.get("name", "unnamed")
        dim = data["dim"]
        labels = data["basis"]
        raw_brackets = data["brackets"]
        form_spec = data["form"]
    except KeyError as exc:
        raise AlgebraError(f"malformed algebra data: missing {exc}") from exc
    if not isinstance(name, str):
        raise AlgebraError(f"name must be a string, not {name!r}")
    if not _is_int(dim) or dim < 1:
        raise AlgebraError(f"dim must be a positive integer, not {dim!r}")
    if not isinstance(labels, list):
        raise AlgebraError(f"basis must be a list of strings, not {labels!r}")
    for label in labels:
        if not isinstance(label, str):
            raise AlgebraError(f"basis label {label!r} is not a string")
        if not re.fullmatch(LABEL, label):
            raise AlgebraError(f"basis label {label!r} does not match {LABEL}")
    if len(labels) != dim:
        raise AlgebraError(f"basis has {len(labels)} labels but dim = {dim}")
    if not isinstance(form_spec, dict):
        raise AlgebraError(f"form must be an object, not {form_spec!r}")

    def rational(s) -> Fraction:
        if not (_is_int(s) or isinstance(s, str)):
            raise AlgebraError(f"bad scalar {s!r}: write it as a string or an integer")
        try:
            return Fraction(s)
        except (TypeError, ValueError, ZeroDivisionError) as exc:
            raise AlgebraError(f"bad scalar {s!r}: {exc}") from exc

    parsed: dict = {}

    def scalar(s):
        # each distinct scalar is parsed once; the key holds its type, as
        # true == 1 == 1.0 in a dict and only the 1 may be served
        key = (type(s), s) if isinstance(s, (int, str)) else None
        if key in parsed:
            return parsed[key]
        try:
            v = field.from_fraction(rational(s))
        except FieldError as exc:
            raise AlgebraError(f"bad scalar {s!r}: {exc}") from exc
        parsed[key] = v
        return v

    def index(k, where: str) -> int:
        if not (_is_int(k) and 0 <= k < dim):
            raise AlgebraError(f"{where}: index {k!r} lies outside [0, {dim})")
        return k

    brackets = {}
    for i, j, terms in _json_list(raw_brackets, 3, "bracket entry"):
        if not (_is_int(i) and _is_int(j) and 0 <= i < j < dim):
            raise AlgebraError(
                f"bracket entry ({i},{j}) violates the i < j storage convention "
                "(antisymmetry determines the rest)")
        if (i, j) in brackets:
            raise AlgebraError(f"duplicate bracket entry for ({i},{j})")
        terms = _json_list(terms, 2, "bracket term")
        coeffs = {index(k, f"bracket ({i},{j})"): scalar(s) for k, s in terms}
        if len(coeffs) != len(terms):
            raise AlgebraError(f"bracket entry ({i},{j}) repeats a term index")
        brackets[(i, j)] = LinComb(coeffs)
    ftype = form_spec.get("type")
    if ftype == "matrix":
        raw_entries = _json_list(form_spec.get("entries"), 3, "form entry")
        entries = {(index(r, "form entry"), index(c, "form entry")): scalar(s)
                   for r, c, s in raw_entries}
        if len(entries) != len(raw_entries):
            raise AlgebraError("form entries repeat an index pair")
        form = Matrix(dim, dim, field, entries)
        alg = LieAlgebra(field, labels, brackets, form, name=name)
    elif ftype in ("killing", "killing_scaled", "dual_coxeter"):
        if ftype == "killing":
            scale = Fraction(1)
        elif ftype == "killing_scaled":
            scale = rational(form_spec.get("scale"))
        else:
            h = form_spec.get("h_dual")
            if not _is_int(h) or h <= 0:
                raise AlgebraError(
                    'form type "dual_coxeter" needs an explicit positive '
                    '"h_dual" entry; arbitrary files cannot infer it')
            scale = Fraction(1, 2 * h)
        tmp = LieAlgebra(field, labels, brackets, Matrix.zero(dim, dim, field), name=name)
        try:
            form = tmp.killing().scale(field.from_fraction(scale))
        except FieldError as exc:
            raise AlgebraError(f"form scale {scale} not defined in this field") from exc
        alg = LieAlgebra(field, labels, brackets, form, name=name)
    else:
        raise AlgebraError(f"unknown form type {ftype!r}")
    report = alg.validate()
    if not report.jacobi_ok:
        raise AlgebraError(
            f"Jacobi identity fails on basis triple {report.jacobi_witness}")
    if not report.form_symmetric_ok:
        raise AlgebraError("bilinear form is not symmetric")
    if not report.invariance_ok:
        raise AlgebraError(
            f"bilinear form is not invariant on basis triple {report.invariance_witness}")
    return alg


def load_algebra(path: str, field=QQ) -> LieAlgebra:
    try:
        with open(path) as fh:
            data = json.load(fh)
    except OSError as exc:
        raise AlgebraError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise AlgebraError(f"{path} is not valid JSON: {exc}") from exc
    return algebra_from_dict(data, field)
