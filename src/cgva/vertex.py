"""The level-one vacuum module of an affine Lie algebra, with exact modes.

States are LinCombs over PBW monomials.  A monomial is a tuple of (m, i)
pairs, meaning a^(i1)(-m1)...a^(ir)(-mr)|0> with all m >= 1, kept sorted so
that (m1, i1) >= (m2, i2) >= ... lexicographically; the empty tuple is the
vacuum.  Degree of a monomial is the sum of its m's.

Everything reduces to two recursions:

  * _apply_basis straightens a(n) applied to a normal-ordered monomial,
    using [a(m), b(n)] = [a,b](m+n) + m <a,b> delta_{m,-n} (level one);
  * _nth_mono computes u_n v by peeling the leading factor of u with the
    iterate formula

      (b_{-m} w)_n v = sum_i (-1)^i C(-m,i)
          (b_{-m-i}(w_{n+i} v) - (-1)^m w_{n-m-i}(b_i v)),

    whose sums truncate because modes of large index kill any fixed state.

Inside the engine a monomial is packed into one int.  The factor (m, i)
becomes the code m * dim + i, which orders factors exactly as the pairs
do, and the codes sit in fixed-width bit fields with the leading factor
lowest: reading it is a mask, dropping it a shift, prepending one a shift
and an or, and an int key hashes far faster than a tuple.  The width fits
the largest degree requested so far (_fit).  Both recursions are memoized per
engine: _apply_cache is keyed by (i, n, monomial) and _nth_cache by
(u, n, v), all packed.  A creation mode that lands in front of a monomial,
or passes a single factor of it, is worked out on the spot, not cached,
and a product of two whole monomials asked for by nth_product is cached
only when it is small (_WHOLE_LIMIT).  The recursions accumulate inline,
out[k] = get(k, 0) + c, and delete cancelled zeros in one scan per result;
a helper call per merged dict (linalg's _axpy) measured about 9% slower
on the heaviest Borcherds check of the criterion-1 samples.

The recursions never divide: binomials C(m, i) are exact integers, and
they only add and multiply.  So the engine works on plain Python ints, on
the algebra's integer lift (lie.IntegerLift: the basis b_i = t a_i, whose
structure constants and form values are integers).  A monomial of r
factors in the a's is 1/t^r times the same monomial in the b's.  The
builtins, with the default or the Killing form, have t = 1.  The
scalars become field elements only at the public boundary, nth_sum
(which nth_product and apply_mode call, and which sums several products
before it converts).  One packing path crosses it: _operands packs every
u and v of the sum and makes their coefficients, each divided by its
t^r, ints over one common denominator with fields.int_coefficients (the
routine cg's s_map and star use; the denominator is 1 except for
fractional rational states or t > 1).  The integer sum, each term
multiplied by its t^r, is reduced to the field once per output term.  An
F_p result is therefore the reduction of the integer result by
construction.  The checks that compare the engine with a closed form
never leave the ints: _vanishes runs the accumulate half of nth_sum on
operands packed once by the same _operands, subtracts the closed form
and tests for zero, mod p over F_p (p read once, when the engine is
made).  A nested product feeds an accumulate back in as an operand
(_product: its pairs, reduced to [1, p) over F_p, with the entries that
vanish in the field dropped), since an accumulate and a packed operand
are both engine scalars on packed monomials.  Every comp_lemma_suite
check, the translation witness (VertexEngine.translation_witness),
DegreeTwo's theta, zero-mode and T-after-theta witnesses,
degree2.correspondence_suite's pair checks and degree2.sym_quotient's
descent go through _vanishes; none of them makes a public call.  So do
axiom_suite's truncation, grading, skew-symmetry, iterate-formula and
borcherds.  Its vacuum axiom and the a(-1)|0> = a half of creation stay
on public states through nth_product: they are where a suite checks the
round trip through _operands and _state that every other check skips.
"""

from __future__ import annotations

import functools
import math
import re
import random
from fractions import Fraction
from itertools import compress
from operator import not_
from typing import Optional, Union

from .fields import int_coefficients
from .lie import LABEL
from .linalg import LinComb, _axpy
from .report import SuiteReport

Mono = tuple  # tuple of (m, i) pairs, non-increasing

# The largest product of two whole monomials that nth_product caches.  Small
# ones recur (the degree-2 suites ask for the same few thousand); large
# ones are one-offs, and one degree-13 sl3 product alone would keep 1.5M
# terms.
_WHOLE_LIMIT = 256


@functools.lru_cache(maxsize=None)
def binom(m: int, i: int) -> int:
    """C(m, i) for any integer m and i >= 0, as an exact integer."""
    if i < 0:
        raise ValueError("lower index must be nonnegative")
    num = 1
    for t in range(i):
        num *= m - t
    return num // math.factorial(i)


def mono_degree(mono: Mono) -> int:
    return sum(m for m, _ in mono)


def state_degree(state: LinComb) -> Optional[int]:
    """The common degree of a homogeneous state; None if mixed or zero."""
    degs = {mono_degree(mo) for mo in state}
    if len(degs) == 1:
        return degs.pop()
    return None


def _drop_zeros(out: dict) -> None:
    """Delete the entries that cancelled to zero; the scan runs in C."""
    for mo in list(compress(out, map(not_, out.values()))):
        del out[mo]


class VertexEngine:
    """Exact mode arithmetic on the vacuum module of one algebra."""

    def __init__(self, alg: LieAlgebra):
        self.algebra = alg
        self.field = alg.field
        self._p = alg.field.char  # _vanishes tests mod p, or exactly at 0
        self._apply_cache: dict = {}
        self._nth_cache: dict = {}
        self._dim = alg.dim
        lift = alg.integer_lift()
        self._t = lift.t
        # flat lookup tables; the recursions below hit these constantly
        self._br = lift.ad
        self._kv = lift.form
        self._top_degree = -1
        self._fit(31)

    # -- state constructors ------------------------------------------------

    def vacuum(self) -> LinComb:
        return LinComb.term((), self.field.one)

    def state_of_vector(self, a: LinComb) -> LinComb:
        """a as the degree-1 state a(-1)|0>."""
        return LinComb({((1, i),): c for i, c in a.items()})

    def vector_of_state(self, state: LinComb) -> LinComb:
        """Inverse of state_of_vector; rejects anything not of degree 1."""
        out = {}
        for mo, c in state.items():
            if len(mo) != 1 or mo[0][0] != 1:
                raise ValueError("state is not a combination of a(-1)|0> terms")
            out[mo[0][1]] = c
        return LinComb(out)

    def monomial_state(self, pairs) -> LinComb:
        """Build a state by applying modes a(-m) left to right to |0>.

        The pairs need not be normal-ordered; straightening is applied.
        """
        state = self.vacuum()
        for m, i in reversed(list(pairs)):
            state = self.apply_mode(i, -m, state)
        return state

    # -- packed monomials and engine scalars ---------------------------------

    def _fit(self, degree: int) -> bool:
        """Widen the packing, if need be, so that every factor of a monomial
        of this degree fits; the caches are keyed by the old width, so they
        go.  True if the width changed."""
        if degree <= self._top_degree:
            return False
        d = self._dim
        self._bits = ((degree + 1) * d - 1).bit_length()
        self._mask = (1 << self._bits) - 1
        self._top_degree = (self._mask + 1) // d - 1
        # (m, i) for each code, shared by every unpacked monomial
        self._factors = [divmod(k, d) for k in range(min(self._mask + 1, 1 << 16))]
        self._apply_cache.clear()
        self._nth_cache.clear()
        return True

    def _operands(self, states) -> tuple[list, int, list]:
        """The states packed at the current width, all over one common
        denominator: for each state a list of (packed monomial, engine
        scalar) pairs, then that denominator, then each state's top degree.
        The scalars come from one int_coefficients over every coefficient,
        each divided first by t^r for a monomial of r factors (t > 1 only
        over Q).  They stay valid while the width does."""
        bits, d, t = self._bits, self._dim, self._t
        packed, tops, coeffs = [], [], []
        for st in states:
            monos = []
            top = 0
            for mono, c in st.terms.items():
                mo = deg = 0
                for m, i in mono[::-1]:
                    mo = mo << bits | (m * d + i)
                    deg += m
                monos.append(mo)
                coeffs.append(c if t == 1 else c / t ** len(mono))
                if deg > top:
                    top = deg
            packed.append(monos)
            tops.append(top)
        scalars, den = int_coefficients(self.field, coeffs)
        it = iter(scalars)  # zip ends with monos, before it takes from it
        return [list(zip(monos, it)) for monos in packed], den, tops

    def _unpack(self, mo: int) -> Mono:
        bits, mask, factors = self._bits, self._mask, self._factors
        n_factors = len(factors)
        out = []
        while mo:
            k = mo & mask
            out.append(factors[k] if k < n_factors else divmod(k, self._dim))
            mo >>= bits
        return tuple(out)

    def _degree(self, mo: int) -> int:
        bits, mask, d = self._bits, self._mask, self._dim
        deg = 0
        while mo:
            deg += (mo & mask) // d
            mo >>= bits
        return deg

    def _state(self, acc: dict, den: int) -> LinComb:
        """The public state of packed monomials with engine scalars / den; a
        monomial of r factors gets back its t^r."""
        f, t, bits = self.field, self._t, self._bits
        to_field = f.from_int if den == 1 else lambda c: f.from_fraction(Fraction(c, den))
        unpack = self._unpack
        out = {}
        for mo, c in acc.items():
            if t != 1:
                # codes are nonzero, so r factors fill exactly r bit fields
                c *= t ** -(-mo.bit_length() // bits)
            x = to_field(c)
            if x:
                out[unpack(mo)] = x
        return LinComb._raw(out)

    # -- the two core recursions -------------------------------------------
    #
    # A packed monomial keeps its leading factor in the low bits: mo & mask
    # is that factor's code, mo >> bits the rest, and prepending a factor k
    # that is >= the leading one is mo << bits | k.  Results are dicts from
    # packed monomials to engine scalars; they may hold zeros until they
    # are cached.

    def _apply_basis(self, ai: int, n: int, mono: int) -> dict:
        """a_ai(n) applied to a packed monomial."""
        d, bits, mask = self._dim, self._bits, self._mask
        k1 = mono & mask
        if n < 0:
            k = ai - n * d
            if k >= k1:
                return {mono << bits | k: 1}
            rest = mono >> bits
            if k >= rest & mask:
                # a(n) passes one factor x(-m1): x(-m1) a(n) rest and
                # [a,x](n-m1) rest are both normal-ordered
                out = {(rest << bits | k) << bits | k1: 1}
                rest <<= bits
                base = k1 - k1 % d - n * d
                for z, cz in self._br[ai][k1 % d]:
                    out[rest | base + z] = cz
                return out
        elif not mono:
            return {}
        key = (ai, n, mono)
        hit = self._apply_cache.get(key)
        if hit is not None:
            return hit
        m1, i1 = divmod(k1, d)
        rest = mono >> bits
        out: dict = {}
        get = out.get
        # a(n) x(-m1) rest = x(-m1) a(n) rest + [a,x](n-m1) rest
        #                    + n <a,x> delta_{n,m1} rest
        for mo, c in self._apply_basis(ai, n, rest).items():
            if k1 >= mo & mask:
                mo = mo << bits | k1
                out[mo] = get(mo, 0) + c
            else:
                for mo2, c2 in self._apply_basis(i1, -m1, mo).items():
                    out[mo2] = get(mo2, 0) + c * c2
        for k, ck in self._br[ai][i1]:
            for mo2, c2 in self._apply_basis(k, n - m1, rest).items():
                out[mo2] = get(mo2, 0) + ck * c2
        if n == m1:
            kv = self._kv[ai].get(i1)
            if kv is not None:
                out[rest] = get(rest, 0) + n * kv
        _drop_zeros(out)
        self._apply_cache[key] = out
        return out

    def _nth_mono(self, um: int, n: int, vm: int, limit: Optional[int] = None) -> dict:
        """u_n v for packed monomials u and v, by the iterate formula on the
        leading factor of u.  The result is cached unless it has more than
        limit terms."""
        d, bits, mask = self._dim, self._bits, self._mask
        if um <= mask:
            if not um:
                return {vm: 1} if n == -1 else {}
            m1, i1 = divmod(um, d)
            if m1 == 1:
                return self._apply_basis(i1, n, vm)
        key = (um, n, vm)
        hit = self._nth_cache.get(key)
        if hit is not None:
            return hit
        out: dict = {}
        get = out.get
        k1 = um & mask
        w = um >> bits
        m1, i1 = divmod(k1, d)
        if not w:
            # b(-m1)|0> = T^(m1-1) b(-1)|0>, and (T^(k) b)_n is
            # (-1)^k C(n, k) b_{n-k}
            c = binom(n, m1 - 1)
            if m1 % 2 == 0:
                c = -c
            if c:
                for mo, x in self._apply_basis(i1, n - m1 + 1, vm).items():
                    out[mo] = c * x
            self._nth_cache[key] = out
            return out
        br = self._br[i1]
        deg_w = self._degree(w)
        deg_v = self._degree(vm)
        for i in range(max(deg_w + deg_v - n, 0)):
            c1 = binom(-m1, i)
            if i % 2:
                c1 = -c1
            k = k1 + i * d  # the factor b(-m1-i)
            for mo, c in self._nth_mono(w, n + i, vm).items():
                c *= c1
                ka = mo & mask
                if k >= ka:
                    mo = mo << bits | k
                    out[mo] = get(mo, 0) + c
                    continue
                rest = mo >> bits
                if k >= rest & mask:
                    # b(-m1-i) passes one factor x(-m), as in _apply_basis,
                    # inlined here because this is the hottest loop
                    mo = (rest << bits | k) << bits | ka
                    out[mo] = get(mo, 0) + c
                    rest <<= bits
                    base = k - i1 + ka - ka % d
                    for z, cz in br[ka % d]:
                        mo = rest | base + z
                        out[mo] = get(mo, 0) + c * cz
                else:
                    for mo2, c2 in self._apply_basis(i1, -m1 - i, mo).items():
                        out[mo2] = get(mo2, 0) + c * c2
        sgn = 1 if m1 % 2 else -1  # -(-1)^{m1}
        for i in range(deg_v + 1):
            c1 = binom(-m1, i) * sgn
            if i % 2:
                c1 = -c1
            for mo, c in self._apply_basis(i1, i, vm).items():
                c *= c1
                for mo2, c2 in self._nth_mono(w, n - m1 - i, mo).items():
                    out[mo2] = get(mo2, 0) + c * c2
        _drop_zeros(out)
        if limit is None or len(out) <= limit:
            self._nth_cache[key] = out
        return out

    # -- public operations ---------------------------------------------------

    def apply_mode(self, a: Union[int, str, LinComb], n: int, state: LinComb) -> LinComb:
        """a(n) applied to a state; a may be a basis index, label or vector.
        It is the product (a(-1)|0>)_n state."""
        if not isinstance(a, LinComb):
            alg = self.algebra
            a = alg.basis_vector(alg.label_index[a] if isinstance(a, str) else a)
        return self.nth_sum([(1, self.state_of_vector(a), n, state)])

    def nth_product(self, u: LinComb, n: int, v: LinComb) -> LinComb:
        """The n-th product u_n v, bilinear over PBW monomials."""
        return self.nth_sum([(1, u, n, v)])

    def nth_sum(self, terms) -> LinComb:
        """The sum of c * u_n v over (c, u, n, v) in terms, c an integer:
        one sum in the engine's scalars, made into a state once."""
        terms = [t for t in terms if t[0] and t[1].terms and t[3].terms]
        states = [st for _, u, _, v in terms for st in (u, v)]
        while True:
            ops, den, tops = self._operands(states)
            top = 0
            for k, (_, _, n, _) in enumerate(terms):
                top = max(top, tops[2 * k] + tops[2 * k + 1] + max(-n - 1, 0))
            if not self._fit(top):
                break
        acc: dict = {}
        self._accumulate(acc, [(c, ops[2 * k], n, ops[2 * k + 1])
                               for k, (c, _, n, _) in enumerate(terms)])
        return self._state(acc, den * den)

    def _accumulate(self, acc: dict, ops) -> None:
        """Add c * u_n v into acc, in the engine's scalars, for each
        (c, us, n, vs) in ops: us and vs packed operands at the current
        width, c an int.  The accumulate half of nth_sum."""
        get = acc.get
        nth = self._nth_mono
        for c, us, n, vs in ops:
            for um, cu in us:
                for vm, cv in vs:
                    cc = c * cu * cv
                    for mo, x in nth(um, n, vm, _WHOLE_LIMIT).items():
                        acc[mo] = get(mo, 0) + cc * x

    def _product(self, products) -> list:
        """The accumulate of products (as _accumulate takes them) as a
        packed operand: its (monomial, int) pairs, reduced to [1, p) over
        F_p, with the entries that vanish in the field dropped."""
        acc: dict = {}
        self._accumulate(acc, products)
        p = self._p
        if p:
            return [(mo, r) for mo, c in acc.items() if (r := c % p)]
        return [(mo, c) for mo, c in acc.items() if c]

    def _vanishes(self, products, minus=()) -> bool:
        """Whether the accumulate of products (as _accumulate takes them)
        minus the (packed monomial, int) pairs of minus is zero in the
        field, mod p over F_p: the one zero test on engine ints."""
        acc: dict = {}
        self._accumulate(acc, products)
        get = acc.get
        for mo, c in minus:
            acc[mo] = get(mo, 0) - c
        p = self._p
        return not any(v % p for v in acc.values()) if p else not any(acc.values())

    def translation_witness(self) -> Optional[tuple[int, int]]:
        """The first basis pair (a, b), a outer, where (a(-2)|0>)_1 b(-1)|0>
        is not -[a, b](-1)|0>, or None; (Ta)_1 = -a_0 makes T(a(-2)|0>) =
        -2 ad a.  comp_lemma_suite reports it, DegreeTwo.kernel refuses by
        it.  On the engine's ints: code d + b with scalar 1 packs t b(-1)|0>
        (lie.IntegerLift), its accumulate at mode -2 on the vacuum is t
        a(-2)|0>, and with [a, b] = sum_k (n_k / e) e_k read off the
        algebra (LieAlgebra.ad_ints), never the engine's lift, the identity
        times e t^2 is e (t a(-2)|0>)_1 (t b(-1)|0>) = -t sum_k n_k (t e_k(-1)|0>)."""
        alg, d, t = self.algebra, self._dim, self._t
        for a in range(d):
            cols, e = alg.ad_ints(a)
            trans = self._product(((1, ((d + a, 1),), -2, ((0, 1),)),))
            for b in range(d):
                if not self._vanishes(((e, trans, 1, ((d + b, 1),)),),
                                      ((d + k, -t * n) for k, n in cols[b])):
                    return a, b
        return None

    def random_homogeneous_state(self, rng: random.Random, max_degree: int,
                                 max_terms: int = 2) -> LinComb:
        """A seeded random homogeneous state with small integer coefficients."""
        d = self.algebra.dim
        deg = rng.randint(0, max_degree)
        if deg == 0:
            return self.vacuum().scale(self.field.from_int(rng.choice([1, 2, -1])))
        out: dict = {}
        for _ in range(rng.randint(1, max_terms)):
            remaining = deg
            parts = []
            while remaining:
                m = rng.randint(1, remaining)
                parts.append((m, rng.randrange(d)))
                remaining -= m
            mono = tuple(sorted(parts, reverse=True))
            c = self.field.from_int(rng.choice([1, 2, 3, -1, -2, -3]))
            _axpy(out, self.monomial_state(mono).items(), c)
        return LinComb._raw(out) if out else self.vacuum()


# -- textual state format ---------------------------------------------------

_FACTOR_RE = re.compile(rf"^({LABEL})\((-?\d+)\)$")
_COEFF_RE = re.compile(r"^[+-]?\d+(/\d+)?$")


def format_state(alg: LieAlgebra, state: LinComb) -> str:
    """Render a state as `c a(-m) b(-n) ... |0>` terms; exact round-trip
    with parse_state."""
    if not state:
        return "0"
    field = alg.field
    parts: list[str] = []
    for mono in sorted(state.keys(), key=lambda mo: (mono_degree(mo), mo)):
        c = state[mono]
        text = field.format(c)
        neg = text.startswith("-")
        mag = text[1:] if neg else text
        factors = " ".join(f"{alg.labels[i]}({-m})" for m, i in mono)
        if factors and mag == "1":
            body = f"{factors} |0>"
        elif factors:
            body = f"{mag} {factors} |0>"
        else:
            body = f"{mag} |0>"
        if not parts:
            parts.append(("-" if neg else "") + body)
        else:
            parts.append(("- " if neg else "+ ") + body)
    return " ".join(parts)


def parse_state(engine: VertexEngine, text: str) -> LinComb:
    """Parse the textual format.  Factors may sit in any order and with any
    integer modes (including nonnegative ones); they are applied right to
    left to |0>, so the result is always normal-ordered."""
    alg = engine.algebra
    s = text.strip()
    if s == "0":
        return LinComb()
    # split into signed terms at depth 0; only a leading sign may have
    # nothing before it, and every sign needs a term after it
    terms: list[tuple[int, str]] = []
    depth = 0
    sign, buf = 1, []
    for ch in s:
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
        if ch in "+-" and depth == 0 and (not buf or buf[-1].isspace()):
            terms.append((sign, "".join(buf).strip()))
            sign = 1 if ch == "+" else -1
            buf = []
        else:
            buf.append(ch)
    terms.append((sign, "".join(buf).strip()))
    if not terms[0][1]:
        del terms[0]
    if not terms:
        raise ValueError(f"empty state expression: {text!r}")
    if not all(chunk for _, chunk in terms):
        raise ValueError(f"a sign with no term after it in {text!r}")

    out: dict = {}
    for sgn, term in terms:
        if not term.endswith("|0>"):
            raise ValueError(f"term does not end with |0>: {term!r}")
        body = term[: -len("|0>")].strip()
        tokens = [t for t in re.split(r"[\s*]+", body) if t]
        coeff = alg.field.one
        factors: list[tuple[str, int]] = []
        for idx, tok in enumerate(tokens):
            m = _FACTOR_RE.match(tok)
            if m:
                label, mode = m.group(1), int(m.group(2))
                if label not in alg.label_index:
                    raise ValueError(f"unknown basis label {label!r}")
                factors.append((label, mode))
            elif _COEFF_RE.match(tok) and idx == 0:
                coeff = alg.field.parse(tok)
            else:
                raise ValueError(f"cannot parse token {tok!r} in {term!r}")
        state = engine.vacuum()
        for label, mode in reversed(factors):
            state = engine.apply_mode(label, mode, state)
        _axpy(out, state.items(), -coeff if sgn < 0 else coeff)
    return LinComb._raw(out)


# -- verification suites ----------------------------------------------------


def axiom_suite(alg: LieAlgebra, samples: int = 200, seed: int = 0,
                max_degree: int = 4) -> SuiteReport:
    """Vertex algebra axioms plus Borcherds' identity on seeded random
    homogeneous triples, every equality exact.

    Truncation, grading, skew-symmetry, the iterate formula and Borcherds
    run on the engine's integers.  Each sample fits the packing once to a
    bound on every product it makes, then packs a, b and c in one
    VertexEngine._operands call, over one denominator den.  The bound is
    the sum of their top degrees plus 7: a double product of the sample
    has degree da + db + dc - k - l - 2 for its two modes k and l, where
    k + l is m + n or m + n + p, never below -9, and a single product
    (or D^(i) of one) has less.  A nested product such as a_m b is an
    accumulate kept packed, reduced and with its zeros dropped
    (VertexEngine._product), and fed back in as an operand: den^2 a_m b.
    D^(i) x is the accumulate of x at mode -i-1 on the vacuum, which packs
    as 0 with scalar 1.  Every equation is one VertexEngine._vanishes of
    LHS - RHS, with both sides scaled by the same power of den; grading
    reads the degree of each monomial of a_n b that is nonzero in the
    field.  The vacuum axiom and
    a(-1)|0> = a stay on public states through nth_product: they check
    the round trip through _operands and _state that the int path skips
    everywhere else."""
    eng = VertexEngine(alg)
    rng = random.Random(seed)
    rep = SuiteReport("vertex-axioms",
                      meta={"algebra": alg.name, "samples": samples, "seed": seed,
                            "max_degree": max_degree})
    names = ["truncation", "vacuum", "creation", "grading", "skew-symmetry",
             "iterate-formula", "borcherds"]
    fails: dict[str, Optional[str]] = {k: None for k in names}
    vanishes = eng._vanishes
    vac_op = ((0, 1),)

    def nested(u, k, v) -> list:
        """den^2 u_k v for operands u and v packed at scale den."""
        return eng._product(((1, u, k, v),))

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
        eng._fit(sum(max(map(mono_degree, st), default=0) for st in (a, b, c)) + 7)
        (A, B, C), _, _ = eng._operands((a, b, c))

        record("truncation",
               vanishes(((1, A, da + db, B),))
               and vanishes(((1, A, da + db + 2, B),)), info)
        vac_napped = eng.nth_product(eng.vacuum(), n, a)
        record("vacuum", vac_napped == (a if n == -1 else LinComb()), info)
        creation_ok = eng.nth_product(a, -1, eng.vacuum()) == a
        if n >= 0:
            creation_ok = creation_ok and vanishes(((1, A, n, vac_op),))
        record("creation", creation_ok, info)

        anb = nested(A, n, B)
        expected_deg = da + db - 1 - n
        record("grading",
               all(eng._degree(mo) == expected_deg for mo, _ in anb), info)

        # a_n b = sum_i (-1)^(n+i+1) D^(i)(b_{n+i} a)
        skew = [(1 if (n + i) % 2 else -1, nested(B, n + i, A), -i - 1, vac_op)
                for i in range(max(da + db - n, 0))]
        record("skew-symmetry", vanishes(skew, anb), info)

        # LHS - RHS, each side den^3 times its state
        iterate = [(1, nested(A, m, B), n, C)]
        imax = max(db + dc - 1 - n, da + dc - 1, 0)
        if m >= 0:
            imax = min(imax, m)
        for i in range(imax + 1):
            coef = (-1) ** i * binom(m, i)
            # the second term of the RHS carries -(-1)^m
            iterate.append((-coef, A, m - i, nested(B, n + i, C)))
            iterate.append(((-1 if m % 2 else 1) * coef, B, n + m - i,
                            nested(A, i, C)))
        record("iterate-formula", vanishes(iterate), info)

        borcherds = []
        imax = max(da + db - 1 - p, 0)
        if m >= 0:
            imax = min(imax, m)
        for i in range(imax + 1):
            borcherds.append((binom(m, i), nested(A, p + i, B), m + n - i, C))
        imax = max(db + dc - 1 - n, da + dc - 1 - m, 0)
        if p >= 0:
            imax = min(imax, p)
        for i in range(imax + 1):
            coef = (-1) ** i * binom(p, i)
            # the second term of the RHS carries -(-1)^p
            borcherds.append((-coef, A, m + p - i, nested(B, n + i, C)))
            borcherds.append(((-1 if p % 2 else 1) * coef, B, n + p - i,
                              nested(A, m + i, C)))
        record("borcherds", vanishes(borcherds), info)

    for name in names:
        rep.add(name, fails[name] is None,
                fails[name] if fails[name] is not None
                else f"{samples} samples")
    return rep


def comp_lemma_suite(alg: LieAlgebra) -> SuiteReport:
    """Closed forms for low modes on degree <= 2 states, checked on every
    basis pair (and triple where three vectors enter), plus the four-term
    Jacobi cancellation that makes the degree-2 product commutative.

    Every check runs on the engine's integers; the suite makes no public
    engine call.  The states a(-1)|0> are packed once, over one common
    denominator (VertexEngine._operands).  The pair states b(-1)c(-1)|0>,
    d^2 of them and shared by both loops, and the nested products
    a(0) b(-1)b(-1)|0> and a(1) b(-1)b(-1)|0> are accumulates of packed operands, kept as packed (monomial, int) lists
    with their zeros dropped (VertexEngine._product) and fed back in as
    operands.  Each check asks VertexEngine._vanishes whether an
    accumulate minus its closed form is zero (mod p over F_p).  The closed
    forms' constants come from alg.bracket and alg.form_value, made ints
    over one common denominator once, never from the engine's own integer
    lift: the checks compare the engine with the algebra, not with itself.
    translate-acts-by-bracket is VertexEngine.translation_witness.
    Where a closed form holds engine states (b(-1)[a,c](-1)|0>,
    a(-1)[[a,b],b](-1)|0>), it is summed by linearity over the pair
    states; double-zero-mode-on-square and jacobi-cancellation are each
    one accumulate of LHS - RHS, which must vanish.

    What jacobi-cancellation proves depends on the basis.  Where
    [[a,b],b] and [a,[a,b]] lie in the span of a and b for every basis
    pair (the sl_n and so_n bases), its four products cancel in pairs as
    formal products, so it holds for any engine that is linear in its
    operands.  On sp4 (16 pairs) and sp6 (48) they do not, and a broken
    a(-1) fails it there."""
    eng = VertexEngine(alg)
    rep = SuiteReport("comp-lemmas", meta={"algebra": alg.name})
    d = alg.dim
    labels = alg.labels
    br, fv = alg.bracket, alg.form_value
    basis = [alg.basis_vector(i) for i in range(d)]
    brs = [[br(x, y) for y in basis] for x in basis]
    fvs = [[fv(x, y) for y in basis] for x in basis]

    fail_by: dict[str, Optional[tuple]] = {}

    def check(name: str, ok: bool, where: tuple) -> None:
        if name not in fail_by:
            fail_by[name] = None
        if not ok and fail_by[name] is None:
            fail_by[name] = where

    # The constants: [a, b] is sum_k nb[a][b][k] e_k / E and <a, b> is
    # nf[a][b] / E.  The states a(-1)|0> are packed once, over one
    # denominator den: the operand A[a] is den times a(-1)|0> in engine
    # scalars, and an accumulate of operands scaled by s and r is s r times
    # the product.  So pair[b][c] is den^2 b(-1)c(-1)|0>.  Each check
    # weights its accumulate by a power of E and its closed form by powers
    # of den, so that both sides carry the same factor.
    coeffs, E = int_coefficients(alg.field, [c for row in brs for x in row
                                             for c in x.terms.values()]
                                 + [c for row in fvs for c in row])
    it = iter(coeffs)  # zip ends with x.terms, before it takes from it
    nb = [[list(zip(x.terms, it)) for x in row] for row in brs]
    nf = [[next(it) for _ in row] for row in fvs]
    A, den, _ = eng._operands(eng.state_of_vector(x) for x in basis)
    # A[k] is the one packed monomial e_k(-1) with the scalar den / t
    one, x1 = [op[0][0] for op in A], den // eng._t
    product, vanishes = eng._product, eng._vanishes
    pair = [[product(((1, A[ib], -1, A[ic]),)) for ic in range(d)]
            for ib in range(d)]
    den2, den3 = den * den, den * den * den
    E2, E3 = E * E, E * E * E

    def vec(terms, w) -> list:
        """w den sum n e_k(-1)|0> over (k, n) in terms, packed."""
        return [(one[k], w * x1 * n) for k, n in terms]

    for ia in range(d):
        a, aa = A[ia], pair[ia][ia]
        for ib in range(d):
            b, bb = A[ib], pair[ib][ib]
            lbl = (labels[ia], labels[ib])
            nab, fab = nb[ia][ib], nf[ia][ib]
            # E^2 [a,[a,b]] and E^2 [[a,b],b] as (k, int) terms, and E den
            # [a,b](-1)|0>, E^2 den [a,[a,b]](-1)|0>, E^2 den [[a,b],b](-1)|0>
            a_ab = [(j, n * m) for k, n in nab for j, m in nb[ia][k]]
            ab_b = [(j, n * m) for k, n in nab for j, m in nb[k][ib]]
            AB, A_AB, AB_B = vec(nab, 1), vec(a_ab, 1), vec(ab_b, 1)
            check("zeroth-product-is-bracket",
                  vanishes(((E, a, 0, b),), vec(nab, den)), lbl)
            check("first-product-is-form",
                  vanishes(((E, a, 1, b),), ((0, den2 * fab),)), lbl)
            check("second-mode-kills-squares", vanishes(((1, a, 2, bb),)), lbl)
            # den^3 a(0)bb and den^3 a(1)bb
            a0bb = product(((1, a, 0, bb),))
            a1bb = product(((1, a, 1, bb),))
            check("double-zero-mode-on-square", vanishes((
                (E2, a, 0, a0bb), (-2 * den2, AB, -1, AB),
                (-den2, b, -1, A_AB), (-den2, A_AB, -1, b))), lbl)
            # a(-1) a(1) bb = a(-1)[[a,b],b](-1)|0> + 2 <a,b> a(-1)b(-1)|0>
            check("minus-one-one-mode-on-square", vanishes(
                ((E2, a, -1, a1bb),),
                [(mo, den2 * n * x) for j, n in ab_b + [(ib, 2 * E * fab)]
                 for mo, x in pair[ia][j]]), lbl)
            check("two-zero-mode-on-square", vanishes(((1, a, 2, a0bb),)), lbl)
            # a(1) a(1) bb = (2 <a,b>^2 - <[a,b],[a,b]>) |0>
            check("double-first-mode-is-form-square", vanishes(
                ((E3, a, 1, a1bb),),
                ((0, den2 * den2 * (2 * E * fab * fab - sum(
                    n * m * nf[k][j] for k, n in nab for j, m in nab))),)), lbl)
            # aa_1 b = b_1 aa = [a,[a,b]](-1)|0> + 2 <a,b> a(-1)|0>
            k_closed = vec(a_ab + [(ia, 2 * E * fab)], den2)
            check("square-acts-by-s-operator",
                  vanishes(((E2, aa, 1, b),), k_closed)
                  and vanishes(((E2, b, 1, aa),), k_closed), lbl)
            check("jacobi-cancellation", vanishes((
                (1, a, -1, AB_B), (-1, AB_B, -1, a),
                (1, b, -1, A_AB), (-1, A_AB, -1, b))), lbl)

    bad = eng.translation_witness()
    fail_by["translate-acts-by-bracket"] = bad and (labels[bad[0]], labels[bad[1]])

    w1 = den2 * x1
    w1_form = w1 * E
    for ia in range(d):
        a = A[ia]
        for ib in range(d):
            nab = nb[ia][ib]
            fab = nf[ia][ib]
            for ic in range(d):
                lbl = (labels[ia], labels[ib], labels[ic])
                bc = pair[ib][ic]
                # a(0) bc = b(-1)[a,c](-1)|0> + [a,b](-1)c(-1)|0>
                check("zero-mode-is-derivation", vanishes(
                    ((E, a, 0, bc),),
                    [(mo, den * n * x) for k, n in nb[ia][ic]
                     for mo, x in pair[ib][k]]
                    + [(mo, den * n * x) for k, n in nab
                       for mo, x in pair[k][ic]]), lbl)
                # a(1) bc = [[a,b],c](-1)|0> + <a,b> c(-1)|0> + <a,c> b(-1)|0>,
                # inlined vec(..., den^2): this loop is the hottest
                check("first-mode-on-pairs", vanishes(
                    ((E2, a, 1, bc),),
                    [(one[j], w1 * n * m) for k, n in nab for j, m in nb[k][ic]]
                    + [(one[ic], w1_form * fab),
                       (one[ib], w1_form * nf[ia][ic])]), lbl)
                # a(2) bc = <[a,b],c> |0>
                check("second-mode-is-form-of-bracket", vanishes(
                    ((E2, a, 2, bc),),
                    ((0, den3 * sum(n * nf[k][ic] for k, n in nab)),)), lbl)

    order = ["zeroth-product-is-bracket", "first-product-is-form",
             "zero-mode-is-derivation", "first-mode-on-pairs",
             "second-mode-is-form-of-bracket", "second-mode-kills-squares",
             "double-zero-mode-on-square", "minus-one-one-mode-on-square",
             "two-zero-mode-on-square", "double-first-mode-is-form-square",
             "square-acts-by-s-operator", "translate-acts-by-bracket",
             "jacobi-cancellation"]
    for name in order:
        fail = fail_by.get(name)
        rep.add(name, fail is None, None if fail is None else f"failed at {fail}")
    return rep
