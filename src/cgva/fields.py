"""Exact scalar arithmetic over Q and over odd prime fields.

No floating point is used anywhere in this package.  A field object knows
how to build, parse and format scalars; the scalars themselves support the
ordinary arithmetic operators and interoperate with plain Python ints, so
the algebra layers above stay field-agnostic.
"""

from __future__ import annotations

import math
from fractions import Fraction


class FieldError(ValueError):
    """Invalid field construction, parse failure, or mixed-field arithmetic."""


_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin, exact for every n below 3.3e24."""
    if n < 2:
        return False
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
    d, r = n - 1, 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


class Rationals:
    """The rational numbers, with fractions.Fraction scalars."""

    char = 0

    def __init__(self):
        self.zero = Fraction(0)
        self.one = Fraction(1)

    def from_int(self, n: int):
        return Fraction(n)

    def from_fraction(self, q):
        return Fraction(q)

    def parse(self, text: str):
        try:
            return Fraction(text.strip())
        except (ValueError, ZeroDivisionError) as exc:
            raise FieldError(f"not a rational: {text!r}") from exc

    def format(self, x) -> str:
        return str(x)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Rationals)

    def __hash__(self) -> int:
        return hash("QQ")

    def __repr__(self) -> str:
        return "QQ"


QQ = Rationals()


class FpElement:
    """An element of F_p.  Arithmetic accepts ints and same-p elements."""

    __slots__ = ("val", "field")

    def __init__(self, val: int, field: "PrimeField"):
        self.val = val % field.p
        self.field = field

    def _other_val(self, other):
        if isinstance(other, FpElement):
            if other.field.p != self.field.p:
                raise FieldError(
                    f"mixed prime fields F_{self.field.p} and F_{other.field.p}"
                )
            return other.val
        if isinstance(other, int):
            return other % self.field.p
        if isinstance(other, Fraction):
            raise FieldError("cannot mix rational and F_p scalars")
        return None

    def __add__(self, other):
        f = self.field
        if type(other) is FpElement and other.field is f:
            return f.element((self.val + other.val) % f.p)
        v = self._other_val(other)
        if v is None:
            return NotImplemented
        return f.element((self.val + v) % f.p)

    __radd__ = __add__

    def __sub__(self, other):
        f = self.field
        if type(other) is FpElement and other.field is f:
            return f.element((self.val - other.val) % f.p)
        v = self._other_val(other)
        if v is None:
            return NotImplemented
        return f.element((self.val - v) % f.p)

    def __rsub__(self, other):
        v = self._other_val(other)
        if v is None:
            return NotImplemented
        f = self.field
        return f.element((v - self.val) % f.p)

    def __mul__(self, other):
        f = self.field
        if type(other) is FpElement and other.field is f:
            return f.element(self.val * other.val % f.p)
        v = self._other_val(other)
        if v is None:
            return NotImplemented
        return f.element(self.val * v % f.p)

    __rmul__ = __mul__

    def __truediv__(self, other):
        v = self._other_val(other)
        if v is None:
            return NotImplemented
        f = self.field
        if v % f.p == 0:
            raise ZeroDivisionError(f"division by zero in F_{f.p}")
        return f.element(self.val * pow(v, -1, f.p) % f.p)

    def __rtruediv__(self, other):
        v = self._other_val(other)
        if v is None:
            return NotImplemented
        f = self.field
        if self.val == 0:
            raise ZeroDivisionError(f"division by zero in F_{f.p}")
        return f.element(v * pow(self.val, -1, f.p) % f.p)

    def __neg__(self):
        f = self.field
        return f.element(-self.val % f.p)

    def __pow__(self, e: int):
        f = self.field
        if e < 0:
            if self.val == 0:
                raise ZeroDivisionError(f"division by zero in F_{f.p}")
        return f.element(pow(self.val, e, f.p))

    def __eq__(self, other) -> bool:
        v = self._other_val(other)
        if v is None:
            return NotImplemented
        return self.val == v

    def __hash__(self) -> int:
        return hash((self.field.p, self.val))

    def __bool__(self) -> bool:
        return self.val != 0

    def __repr__(self) -> str:
        return f"{self.val}"


class PrimeField:
    """F_p for an odd prime p.  p = 2 is rejected: the constructions here
    assume characteristic different from 2 throughout."""

    # fields up to this size keep every element preallocated, which makes
    # arithmetic allocation-free.  The vertex engine runs on ints, so this
    # pays in the field-scalar code, linalg's _axpy and LinComb arithmetic
    # in the suites: perfbench's verify-sl4 runs about 3% faster with it.
    _INTERN_LIMIT = 1 << 17

    def __init__(self, p: int):
        if p == 2:
            raise FieldError("characteristic 2 is not supported: the "
                             "construction divides by 2 throughout")
        if not is_prime(p):
            raise FieldError(f"{p} is not prime")
        self.p = p
        if p <= self._INTERN_LIMIT:
            elems = []
            for v in range(p):
                e = FpElement.__new__(FpElement)
                e.val = v
                e.field = self
                elems.append(e)
            self._elems = tuple(elems)
            self.element = self._elems.__getitem__
        else:
            self._elems = None
            self.element = self._element_big
        self.zero = self.element(0)
        self.one = self.element(1)

    def _element_big(self, v: int) -> FpElement:
        # v must already be reduced to [0, p)
        e = FpElement.__new__(FpElement)
        e.val = v
        e.field = self
        return e

    @property
    def char(self) -> int:
        return self.p

    def from_int(self, n: int) -> FpElement:
        return self.element(n % self.p)

    def from_fraction(self, q) -> FpElement:
        num, den = int(q.numerator), int(q.denominator)
        if den % self.p == 0:
            raise FieldError(f"denominator of {q} vanishes in F_{self.p}")
        return self.element(num % self.p) / den

    def parse(self, text: str) -> FpElement:
        text = text.strip()
        try:
            return self.from_fraction(Fraction(text))
        except (ValueError, ZeroDivisionError) as exc:
            raise FieldError(f"not an F_{self.p} scalar: {text!r}") from exc

    def format(self, x: FpElement) -> str:
        return str(x.val)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, PrimeField) and other.p == self.p

    def __hash__(self) -> int:
        return hash(("Fp", self.p))

    def __repr__(self) -> str:
        return f"GF({self.p})"


def parse_field_spec(spec: str):
    """Parse a field descriptor: "q" for the rationals, "fp:N" for F_N."""
    s = spec.strip().lower()
    if s == "q":
        return QQ
    if s.startswith("fp:"):
        try:
            p = int(s[3:])
        except ValueError as exc:
            raise FieldError(f"bad field spec {spec!r}") from exc
        return PrimeField(p)
    raise FieldError(f"bad field spec {spec!r} (expected 'q' or 'fp:<odd prime>')")


def field_spec_string(field) -> str:
    if isinstance(field, Rationals):
        return "q"
    return f"fp:{field.p}"


def int_coefficients(field, coeffs) -> tuple[list[int], int]:
    """The coefficients as ints over one common denominator D: the ints
    and D.  Over F_p they are the residues and D is 1."""
    if field.char:
        return [c.val for c in coeffs], 1
    den = math.lcm(*[c.denominator for c in coeffs])
    return [c.numerator * (den // c.denominator) for c in coeffs], den
