"""Sparse exact linear algebra over a scalar field from cgva.fields.

Vectors (and every other linear combination in the package: Lie algebra
elements, symmetric tensors, vertex algebra states) are LinComb objects,
dicts from hashable keys to nonzero scalars.  Matrices are dicts from
(row, col) to nonzero scalars.

No sparse dict stores a zero.  For sums of field scalars that invariant
is kept in one place, the accumulate helper _axpy(out, items, c): it adds
c times the (key, value) pairs into the dict out in place, deletes entries
that cancel and skips products that vanish.  Sums, differences and
scalings of LinComb, Matrix and Subspace, and the field-scalar sums
elsewhere in the package, all go through it.  Four loops on raw scalars
keep inlined copies, because there the field objects and a helper call
cost measurably (2-vCPU VM, CPU time):
  - the vertex engine's, whose accumulate also serves the checks that
    compare it with a closed form in the same int dict (_vanishes: every
    comp-lemma check, DegreeTwo's witnesses, correspondence's pair checks,
    sym_quotient's descent, and the axiom suite's truncation, grading,
    skew-symmetry, iterate formula and Borcherds, on nested products kept
    as ints): as field-object products the whole sl4 comp-lemma suite
    took 0.53 s over Q and 0.37 s over F_11, against 0.17 s and 0.15 s
    with only its triple checks on ints, and perfbench's vertex-axioms
    round (the axiom suite on sl2/Q, sl2/F_7 and sl3/F_7) took a median
    4.86 s with every check through nth_product against 4.09 s with the
    heavy ones on ints;
  - the double-bracket loop of lie.IntegerLift.add_ad_product, with its
    one-bracket twin add_ad, which cg.s_map and the Jacobi check run:
    through _axpy, E8's s_matrix took 3.8-4.1 s against 1.5-1.6 s, and
    its Jacobi check on the Lie generators 0.29-0.32 s against
    0.11-0.16 s.  Summing one double bracket per monomial,
    2 ad_i ad_j - ad_[e_i,e_j], instead of both orders took E8's
    s_matrix from a median 1.18 s to 0.97 s (nine runs each);
  - the star product, cg.star, on the same integer lift: on field objects
    (ten LinCombs from bracket calls per monomial pair) an sl4 pair took
    185 us over Q and 107-110 us over F_p, against 24 us and 16 us; the
    *-ideal proof at E8 over F_46337 took 2.0-2.4 s against 0.34 s;
  - the elimination, _reduce_rows, and greedy_generators' walk, through
    one clearing step, _clear: on int residues in [0, p) over F_p, and over
    Q on int rows, fraction-free as in Bareiss (Math. Comp. 22,
    1968): r <- b r - a p, then divided by its content.  On FpElements
    E8's 61504 x 30876 S matrix over F_46337 was ranked in 2.9-3.0 s and
    row_reduced, with its 27000-dim kernel, in 3.4-3.8 s; with raw scalars
    converted per component, 0.95-1.40 s and 1.42-1.63 s; with raw lines
    built once and the rank taken along the short side, 0.56-0.84 s and
    1.17-1.58 s.  Over Q, on Fractions, the same S was ranked in 7.1 s and
    row_reduced in 8.2 s, and build_cg with unit() took 17.2 s; on int
    rows, 0.9-1.0 s, 1.6-1.9 s and 7.5-8.4 s.  Each gave the same pivots,
    rows, kernel basis and generators.

Every elimination but greedy_generators' goes through _rref, on raw
scalars from boundary to boundary.  Scalars are converted once on the way
in, where Matrix._lines builds fresh row (or column) dicts of raw scalars
straight from a matrix's entries, or _to_raw copies a vector's terms, and
once on the way out, where _from_raw makes field scalars of the raw result
at the public exits only: row_reduce's RREF rows and kernel basis
(_kernel, the one routine from RREF to kernel), solve, matrix_inverse,
Subspace and intersect.  Over Q the raw scalar there is the Fraction (an
int going in): _reduce_rows turns rows to ints and back, so the ints never
leave it.  In between, _rref and _reduce_rows own the rows they are given
and eliminate them in place.  matrix_rank eliminates the shorter side: the
columns of a tall matrix, as row rank equals column rank.
greedy_generators keeps its own echelon form, reduced by leading terms
only, on the same raw ints; its maps hand it ints.

_rref splits the rows into connected components of their nonzero
pattern, eliminates each on its own and merges the pieces by pivot.
Components do not interact and the RREF of a row space is unique, so the
merge is the RREF of the whole.  The split is what keeps large
block-diagonal instances (Chevalley bases sorted by weight) cheap without
any special-casing.  Inside a component, columns are processed left to
right, so pivot columns are always the leftmost independent set; inside a
column the sparsest eligible row wins, with the row index as tie-break.
"""

from __future__ import annotations

from collections import deque
from fractions import Fraction
from itertools import islice
from math import gcd
from typing import Callable, Iterable, Iterator, Optional

from .fields import int_coefficients


class LinComb:
    """A finite linear combination of hashable keys with nonzero coefficients."""

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        if terms is None:
            self.terms = {}
        else:
            self.terms = {k: v for k, v in dict(terms).items() if v}

    @classmethod
    def term(cls, key, coeff) -> "LinComb":
        x = cls.__new__(cls)
        x.terms = {key: coeff} if coeff else {}
        return x

    @classmethod
    def _raw(cls, terms: dict) -> "LinComb":
        # internal: caller guarantees no zero values
        x = cls.__new__(cls)
        x.terms = terms
        return x

    def items(self):
        return self.terms.items()

    def keys(self):
        return self.terms.keys()

    def get(self, key, default=0):
        return self.terms.get(key, default)

    def __getitem__(self, key):
        return self.terms.get(key, 0)

    def __iter__(self) -> Iterator:
        return iter(self.terms)

    def __len__(self) -> int:
        return len(self.terms)

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __eq__(self, other) -> bool:
        if not isinstance(other, LinComb):
            return NotImplemented
        return self.terms == other.terms

    def __hash__(self) -> int:
        return hash(frozenset(self.terms.items()))

    def __add__(self, other: "LinComb") -> "LinComb":
        return LinComb._raw(_axpy(dict(self.terms), other.terms.items()))

    def __sub__(self, other: "LinComb") -> "LinComb":
        return LinComb._raw(_axpy(dict(self.terms),
                                  ((k, -v) for k, v in other.terms.items())))

    def __neg__(self) -> "LinComb":
        return LinComb._raw({k: -v for k, v in self.terms.items()})

    def scale(self, c) -> "LinComb":
        return LinComb._raw(_axpy({}, self.terms.items(), c))

    def __repr__(self) -> str:
        if not self.terms:
            return "LinComb(0)"
        parts = " + ".join(f"{v}*{k}" for k, v in sorted(self.terms.items(), key=repr))
        return f"LinComb({parts})"


def _axpy(out: dict, items, c=None) -> dict:
    """Add c * v at key k into out, in place, for each (k, v) in items; no
    c means 1.  Returns out.

    The one accumulate loop for sums of field scalars, outside the four
    raw-scalar loops named in the module docstring, and the one place that
    keeps the invariant that a sparse dict of field scalars never stores a
    zero: an entry that cancels is deleted, and a product with c that
    vanishes is skipped.  That happens when c is a plain int: over F_p a
    multiple of p is truthy as an int but zero once it meets a field
    element.  The items themselves must hold no zero, as every sparse dict
    and every product of nonzero field elements does.
    """
    get = out.get
    for k, v in items:
        if c is not None:
            v = c * v
            if not v:
                continue
        w = get(k)
        if w is None:
            out[k] = v
        else:
            w = w + v
            if w:
                out[k] = w
            else:
                del out[k]
    return out


class Matrix:
    """Sparse exact matrix with entries in a fixed field."""

    __slots__ = ("nrows", "ncols", "field", "entries")

    def __init__(self, nrows: int, ncols: int, field, entries=None):
        self.nrows = nrows
        self.ncols = ncols
        self.field = field
        self.entries = {k: v for k, v in dict(entries or {}).items() if v}

    @classmethod
    def _raw(cls, nrows: int, ncols: int, field, entries: dict) -> "Matrix":
        # internal: caller guarantees no zero values
        m = cls.__new__(cls)
        m.nrows, m.ncols, m.field, m.entries = nrows, ncols, field, entries
        return m

    @classmethod
    def identity(cls, n: int, field) -> "Matrix":
        one = field.one
        return cls(n, n, field, {(i, i): one for i in range(n)})

    @classmethod
    def zero(cls, nrows: int, ncols: int, field) -> "Matrix":
        return cls(nrows, ncols, field, {})

    @classmethod
    def from_columns(cls, cols: list[LinComb], nrows: int, field) -> "Matrix":
        entries = {}
        for c, col in enumerate(cols):
            for r, v in col.items():
                entries[(r, c)] = v
        return cls._raw(nrows, len(cols), field, entries)

    def get(self, r: int, c: int):
        return self.entries.get((r, c), self.field.zero)

    def rows_as_dicts(self) -> list[dict]:
        rows: list[dict] = [dict() for _ in range(self.nrows)]
        for (r, c), v in self.entries.items():
            rows[r][c] = v
        return rows

    def _lines(self, by_cols: bool = False) -> list[dict]:
        """Fresh dicts of raw scalars, one per row, or one per column with
        by_cols, made straight from entries: v.val over F_p, the Fraction
        itself over Q.  The lines an elimination owns and works in."""
        lines: list[dict] = [{} for _ in range(self.ncols if by_cols else self.nrows)]
        p = self.field.char
        for (r, c), v in self.entries.items():
            if by_cols:
                r, c = c, r
            lines[r][c] = v.val if p else v
        return lines

    def transpose(self) -> "Matrix":
        return Matrix(self.ncols, self.nrows, self.field,
                      {(c, r): v for (r, c), v in self.entries.items()})

    def __add__(self, other: "Matrix") -> "Matrix":
        self._check_shape(other)
        return Matrix(self.nrows, self.ncols, self.field,
                      _axpy(dict(self.entries), other.entries.items()))

    def __sub__(self, other: "Matrix") -> "Matrix":
        self._check_shape(other)
        return Matrix(self.nrows, self.ncols, self.field,
                      _axpy(dict(self.entries),
                            ((k, -v) for k, v in other.entries.items())))

    def __neg__(self) -> "Matrix":
        return self.scale(-self.field.one)

    def scale(self, c) -> "Matrix":
        return Matrix(self.nrows, self.ncols, self.field,
                      _axpy({}, self.entries.items(), c))

    def __matmul__(self, other: "Matrix") -> "Matrix":
        if self.ncols != other.nrows:
            raise ValueError("dimension mismatch")
        other_rows = other.rows_as_dicts()
        out: dict = {}
        for (r, k), v in self.entries.items():
            _axpy(out, (((r, c), w) for c, w in other_rows[k].items()), v)
        return Matrix._raw(self.nrows, other.ncols, self.field, out)

    def mul_vec(self, vec: LinComb) -> LinComb:
        terms = vec.terms
        return LinComb._raw(_axpy({}, ((r, v * terms[c])
                                       for (r, c), v in self.entries.items()
                                       if c in terms)))

    def is_symmetric(self) -> bool:
        for (r, c), v in self.entries.items():
            if self.entries.get((c, r)) != v:
                return False
        return True

    def __eq__(self, other) -> bool:
        if not isinstance(other, Matrix):
            return NotImplemented
        return (self.nrows, self.ncols) == (other.nrows, other.ncols) \
            and self.entries == other.entries

    def __hash__(self) -> int:
        return hash((self.nrows, self.ncols, frozenset(self.entries.items())))

    def _check_shape(self, other: "Matrix") -> None:
        if (self.nrows, self.ncols) != (other.nrows, other.ncols):
            raise ValueError("dimension mismatch")

    def __repr__(self) -> str:
        return f"Matrix({self.nrows}x{self.ncols}, {len(self.entries)} nonzero)"


def _split_components(rows: list[dict], ncols: int) -> list[tuple[list[int], list[dict]]]:
    """Split the nonzero pattern into connected components.

    Returns (columns, rows) pairs, ordered by their least column; the
    column lists are sorted and disjoint, and each component keeps its
    rows in input order.  Columns with no nonzero entry are not listed
    (they are trivially kernel directions).  Each nonempty row lands in
    exactly one component.

    Every column carries the label of its component (-1 before a row has
    touched it) and every label its column list.  A row's labels are read
    as one set; a row that meets several labels merges their lists,
    smaller into larger, relabelling the moved columns.  A column moves
    only into a list at least twice the size of its own, so the split
    costs O(nnz + ncols log ncols), with no per-entry call.
    """
    label = [-1] * ncols
    cols_of: dict[int, list[int]] = {}
    label_of = label.__getitem__
    for row in rows:
        if not row:
            continue
        labs = set(map(label_of, row))
        fresh = -1 in labs
        if not fresh and len(labs) == 1:
            continue
        labs.discard(-1)
        if labs:
            lab = max(labs, key=lambda l: len(cols_of[l]))
            labs.discard(lab)
            into = cols_of[lab]
            for other in labs:
                moved = cols_of.pop(other)
                for c in moved:
                    label[c] = lab
                into.extend(moved)
        else:
            lab = next(iter(row))  # an untouched column: a label never used
            into = cols_of[lab] = []
        if fresh:
            new = [c for c in row if label[c] < 0]
            for c in new:
                label[c] = lab
            into.extend(new)
    rows_of: dict[int, list[dict]] = {lab: [] for lab in cols_of}
    for row in rows:
        if row:
            rows_of[label[next(iter(row))]].append(row)
    for cols in cols_of.values():
        cols.sort()
    return [(cols_of[lab], rows_of[lab])
            for lab in sorted(cols_of, key=lambda l: cols_of[l][0])]


def _clear(col: int, prow: dict, targets, p: int) -> None:
    """Clear column col from each target row that holds it, in place, with
    the pivot row prow: rows of ints, eliminated by _reduce_rows and by
    greedy_generators.

    Over F_p (p = field.char) the rows hold residues in [0, p) and prow's
    pivot is 1: row -= row[col] * prow mod p.  Over Q they hold ints and
    the step is fraction-free: with a = row[col] and b = prow[col], each
    divided by their gcd, row <- b row - a prow, then divided by its
    content, which leaves a primitive row.  Either way the row is a nonzero
    multiple of what the step gives on field scalars, with the same keys
    in the same order: entries that cancel are deleted, new ones appended
    in prow's order, so no row stores a zero.
    """
    items, b0 = prow.items(), prow[col]
    for row in targets:
        f = row.get(col)
        if f is None:
            continue
        get = row.get
        if p:
            f = p - f
            for c, v in items:
                w = (get(c, 0) + f * v) % p
                if w:
                    row[c] = w
                else:
                    del row[c]
            continue
        g = gcd(f, b0)
        a, b = f // g, b0 // g
        if b != 1:
            for c, v in row.items():
                row[c] = b * v
        for c, v in items:
            w = get(c)
            w = -a * v if w is None else w - a * v
            if w:
                row[c] = w
            else:
                del row[c]
        _divide_content(row)


def _divide_content(row: dict) -> None:
    """Divide the int row by its content, the gcd of its entries, in place,
    which leaves it primitive unless it is empty."""
    g = gcd(*row.values())
    if g > 1:
        for c, v in row.items():
            row[c] = v // g


def _reduce_rows(rows: list[dict], cols: list[int], field,
                 reduced: bool = True) -> tuple[list[int], list[dict]]:
    """Row echelon form of the given rows restricted to the given column order.

    The rows hold raw scalars (int residues in [0, p) over F_p, Fractions
    or ints over Q) and belong to the call: they are eliminated in place,
    with no copy.  Returns (pivot_cols, pivot_rows), raw as well, with
    pivot entries 1 and pivots increasing in the order of `cols`.  With
    reduced=True (the default) pivot columns are also cleared from the
    other pivot rows, i.e. the result is the RREF.

    Over Q the rows are eliminated on ints: each is made an int row on
    the way in (fields.int_coefficients), cleared fraction-free (_clear),
    and each pivot row is made Fractions with pivot 1 on the way out, in
    the same key order.  Over F_p the pivot row is scaled to pivot 1 when
    it is chosen.  One step, _clear, serves the forward pass and the back
    substitution.
    """
    p = field.char
    active = [r for r in rows if r]
    if not p:
        for row in active:
            row.update(zip(list(row), int_coefficients(field, row.values())[0]))
    piv_cols: list[int] = []
    piv_rows: list[dict] = []
    for col in cols:
        holders = [row for row in active if col in row]
        if not holders:
            continue
        prow = min(holders, key=len)  # the first of the sparsest
        active = [row for row in active if row is not prow and row]
        if p:
            inv = pow(prow[col], -1, p)
            if inv != 1:  # in place: the row is the call's own
                for c, v in prow.items():
                    prow[c] = inv * v % p
        _clear(col, prow, (row for row in holders if row is not prow), p)
        piv_cols.append(col)
        piv_rows.append(prow)
    if reduced:
        # back substitution: clear each pivot column from the rows above it
        for k in range(len(piv_rows) - 1, -1, -1):
            _clear(piv_cols[k], piv_rows[k], islice(piv_rows, k), p)
    if not p:
        for col, prow in zip(piv_cols, piv_rows):
            b = prow[col]
            for c, v in prow.items():
                prow[c] = Fraction(v) if b == 1 else Fraction(v, b)
    return piv_cols, piv_rows


def _rref(rows: list[dict], ncols: int, field,
          reduced: bool = True) -> tuple[list[int], list[dict]]:
    """Row echelon form of raw rows over columns 0..ncols-1, by components.

    Takes a list of rows of raw scalars (residues over F_p, Fractions or
    ints over Q) that it owns: it empties the list and eliminates the rows
    in place, each component's by _reduce_rows, so a component's emptied
    rows are freed as soon as it is done.
    Returns (pivot_cols, pivot_rows), raw, with increasing pivots and
    pivot entries 1; with reduced=True (the default) it is the RREF.  The
    one caller of _split_components and _reduce_rows.
    """
    pairs: list[tuple[int, dict]] = []
    comps = _split_components(rows, ncols)
    rows.clear()  # so each component's rows are freed once it is eliminated
    while comps:
        cols, sub = comps.pop()
        pairs.extend(zip(*_reduce_rows(sub, cols, field, reduced)))
    pairs.sort(key=lambda pc: pc[0])
    return [p for p, _ in pairs], [r for _, r in pairs]


def _to_raw(field, terms: dict) -> dict:
    """A fresh dict of the raw scalars of terms: v.val over F_p, the
    Fraction itself over Q."""
    return {k: v.val for k, v in terms.items()} if field.char else dict(terms)


def _from_raw(field, raw: dict) -> dict:
    """The field scalars of a dict of raw scalars: a fresh dict of
    FpElements over F_p, sized to its entries where an eliminated row may
    not be; over Q they already are, and raw itself is returned."""
    if not field.char:
        return raw
    element = field.element
    return {k: element(v) for k, v in raw.items()}


def _lincombs(field, rows: list[dict]) -> list[LinComb]:
    """Rows of raw scalars made LinCombs of field scalars.  The list is
    the call's own and is emptied, so each raw row is freed once it is
    converted."""
    rows.reverse()
    return [LinComb._raw(_from_raw(field, rows.pop())) for _ in range(len(rows))]


def _kernel(piv_cols: list[int], piv_rows: list[dict], ncols: int,
            field) -> "Subspace":
    """The right kernel of a matrix over columns 0..ncols-1 from its RREF
    (pivot columns and raw pivot rows, which are only read): the one
    routine that goes from RREF to kernel.

    Each free column f gives the kernel vector e_f - sum_t rows[t][f] e_{p_t}
    (p_t the pivot of row t), built from the raw pivot rows, negated mod p;
    brought to RREF, these are the canonical kernel basis.
    """
    p = field.char
    free = {c: {c: 1} for c in range(ncols)}
    for c in piv_cols:
        del free[c]
    for pc, row in zip(piv_cols, piv_rows):
        for c, v in row.items():
            if c != pc:
                free[c][pc] = p - v if p else -v
    rows = list(free.values())
    del free  # the rows are the elimination's own, freed once converted
    _, kernel_rows = _rref(rows, ncols, field)
    return Subspace._from_rref(_lincombs(field, kernel_rows), ncols, field)


def row_reduce(m: Matrix) -> tuple[list[int], list[LinComb], "Subspace"]:
    """Reduced row echelon form of m and its right kernel.  Returns
    (pivot_cols, rows, kernel): the RREF of m's raw rows, its kernel by
    _kernel, and the rows made field scalars."""
    field = m.field
    piv_cols, piv_rows = _rref(m._lines(), m.ncols, field)
    kernel = _kernel(piv_cols, piv_rows, m.ncols, field)
    return piv_cols, _lincombs(field, piv_rows), kernel


def matrix_rank(m: Matrix) -> int:
    """The rank of m, by echelon form along its shorter side: when m has
    fewer columns than rows its columns are eliminated, since row rank
    equals column rank over a field."""
    by_cols = m.ncols < m.nrows
    return len(_rref(m._lines(by_cols), m.nrows if by_cols else m.ncols,
                     m.field, reduced=False)[0])


def rank_and_kernel(m: Matrix) -> tuple[int, "Subspace"]:
    """Rank of m and its right kernel as a canonical (RREF-basis) subspace."""
    pivots, _, kernel = row_reduce(m)
    return len(pivots), kernel


def solve(m: Matrix, b: LinComb) -> Optional[LinComb]:
    """One solution x of m x = b, or None if the system is inconsistent.

    The RREF of the augmented matrix [m | b], by components like every
    elimination; the system is inconsistent when b's column is a pivot.
    Free variables are set to zero, so the answer is deterministic.
    """
    rows = m._lines()
    aug = m.ncols  # the appended right-hand-side column
    for r, v in _to_raw(m.field, b.terms).items():
        if not (0 <= r < m.nrows):
            raise ValueError("dimension mismatch")
        rows[r][aug] = v
    piv_cols, piv_rows = _rref(rows, m.ncols + 1, m.field)
    sol: dict = {}
    for c, row in zip(piv_cols, piv_rows):
        if c == aug:
            return None
        v = row.get(aug)
        if v is not None:
            sol[c] = v
    return LinComb._raw(_from_raw(m.field, sol))


def matrix_inverse(m: Matrix) -> Optional[Matrix]:
    """Inverse of a square matrix, or None if singular."""
    if m.nrows != m.ncols:
        raise ValueError("dimension mismatch")
    n, field = m.nrows, m.field
    rows = m._lines()
    for r in range(n):
        rows[r][n + r] = 1
    piv_cols, piv_rows = _rref(rows, 2 * n, field)
    if piv_cols[:n] != list(range(n)):
        return None
    entries = {}
    for r, row in enumerate(piv_rows[:n]):
        for c, v in row.items():
            if c >= n:
                entries[(r, c - n)] = v
    return Matrix._raw(n, n, field, _from_raw(field, entries))


class Subspace:
    """A subspace of field^n, stored as an RREF basis with increasing pivots."""

    __slots__ = ("ambient_dim", "field", "basis", "_rows")

    def __init__(self, vectors: Iterable[LinComb], ambient_dim: int, field):
        _, rref = _rref([_to_raw(field, v.terms) for v in vectors], ambient_dim, field)
        self._set(ambient_dim, field, _lincombs(field, rref))

    @classmethod
    def _from_rref(cls, basis: list[LinComb], ambient_dim: int, field) -> "Subspace":
        s = cls.__new__(cls)
        s._set(ambient_dim, field, basis)
        return s

    def _set(self, ambient_dim: int, field, basis: list[LinComb]) -> None:
        self.ambient_dim = ambient_dim
        self.field = field
        self.basis = tuple(basis)
        # pivot -> basis vector, pivots increasing
        self._rows = {min(b.keys()): b for b in self.basis}

    @property
    def dim(self) -> int:
        return len(self.basis)

    @property
    def pivots(self) -> tuple[int, ...]:
        return tuple(self._rows)

    def reduce(self, vec: LinComb) -> LinComb:
        """Canonical representative of vec modulo this subspace.

        Linear and idempotent; the kernel of the map is exactly the subspace.
        The basis is an RREF, so subtracting one basis vector leaves every
        other pivot coordinate alone: the result is vec - sum vec[p] b_p
        over the pivots p among vec's own keys, found through the pivot
        index.  They are subtracted in increasing order, as a walk over
        every pivot would, so the result has the same keys in the same
        order; a call costs vec's keys and the rows they name, not dim.
        """
        rows = self._rows
        out = dict(vec.terms)
        for p in sorted(k for k in vec.terms if k in rows):
            _axpy(out, rows[p].terms.items(), -out[p])
        return LinComb._raw(out)

    def contains(self, vec: LinComb) -> bool:
        return not self.reduce(vec)

    def add(self, other: "Subspace") -> "Subspace":
        self._check(other)
        return Subspace(list(self.basis) + list(other.basis), self.ambient_dim, self.field)

    def intersect(self, other: "Subspace") -> "Subspace":
        """Zassenhaus: RREF of [[b, b], [c, 0]]; rows with zero left half
        carry the intersection in their right half.  Those rows, shifted,
        are already its RREF basis: their pivots are pivots of the whole
        RREF, cleared from every other row."""
        self._check(other)
        n, field = self.ambient_dim, self.field
        rows: list[dict] = []
        for b in self.basis:
            row = _to_raw(field, b.terms)
            row.update((k + n, v) for k, v in list(row.items()))
            rows.append(row)
        for c in other.basis:
            rows.append(_to_raw(field, c.terms))
        _, rref = _rref(rows, 2 * n, field)
        inter = [{k - n: v for k, v in row.items()} for row in rref if min(row) >= n]
        return Subspace._from_rref(_lincombs(field, inter), n, field)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Subspace):
            return NotImplemented
        return self.ambient_dim == other.ambient_dim and self.basis == other.basis

    def __hash__(self) -> int:
        return hash((self.ambient_dim, self.basis))

    def _check(self, other: "Subspace") -> None:
        if other.ambient_dim != self.ambient_dim or other.field != self.field:
            raise ValueError("dimension mismatch")

    def __repr__(self) -> str:
        return f"Subspace(dim {self.dim} of {self.ambient_dim})"


def greedy_generators(candidates: Iterable[LinComb],
                      maps: Callable[[list[LinComb]], list[Callable]],
                      ambient_dim: int, field,
                      target_dim: int) -> tuple[list[LinComb], list[LinComb]]:
    """Generators picked greedily, with the echelon rows of their closure.

    Candidates are taken in order.  One is kept only if it lies outside
    the closure of the kept ones under maps(kept), which must start with
    maps(kept[:-1]); the walk stops once that closure has dimension
    target_dim or the candidates run out.  Returns the kept candidates and
    rows spanning their closure, one per pivot, reduced by leading terms
    only: Subspace(rows, ...) is the closure, for a caller that compares
    it.  When the candidates span a target space of dimension target_dim,
    the closure equals it exactly when it is stable under the maps.

    The maps work on ints.  A map takes a key k and yields (key, int)
    pairs, none of them zero in the field: the images of e_k times one
    constant D that is fixed for the map and nonzero in the field, such as
    a common denominator of all its images (LieAlgebra.ad_ints).  Scaling
    a map leaves its closure alone, so D never shows.

    One echelon form (pivot -> row) serves the whole walk: the maps a kept
    candidate adds are applied to the rows already there, and each new row
    gets every map.  Its rows are raw ints, residues with pivot 1 over F_p
    and primitive rows over Q, reduced by _reduce_rows' step, _clear.
    """
    p = field.char
    rows: dict[int, dict] = {}  # in insertion order
    queue: deque = deque()  # (row, the maps to apply to it)
    kept: list[LinComb] = []
    fs: list[Callable] = []  # extended after the kept candidate's row is queued

    def insert(vec: dict) -> bool:
        # vec: ints, made residues over F_p; a new row is made pivot 1 over
        # F_p and primitive over Q
        vec = {k: w for k, v in vec.items() if (w := v % p if p else v)}
        while vec:
            c = min(vec)
            row = rows.get(c)
            if row is None:
                if not p:
                    _divide_content(vec)
                elif (inv := pow(vec[c], -1, p)) != 1:
                    for k, v in vec.items():
                        vec[k] = inv * v % p
                rows[c] = vec
                queue.append((vec, fs))
                return True
            _clear(c, row, (vec,), p)
        return False

    for v in candidates:
        n = len(rows)
        if n >= target_dim:
            break
        if not insert(dict(zip(v.terms, int_coefficients(field, v.terms.values())[0]))):
            continue
        kept.append(v)
        new = maps(kept)[len(fs):]
        fs.extend(new)
        if new:
            queue.extend((row, new) for row in islice(rows.values(), n))
        while queue:
            row, todo = queue.popleft()
            for f in todo:
                image: dict = {}
                get = image.get
                for k, c in row.items():
                    for m, w in f(k):
                        image[m] = get(m, 0) + c * w
                insert(image)
    return kept, [LinComb._raw({k: field.from_int(v) for k, v in r.items()})
                  for r in rows.values()]


def submodule_generators(space: Subspace, maps: list[Callable]
                         ) -> tuple[list[LinComb], Optional[int]]:
    """Basis vectors of space that generate it under maps (int maps, as
    greedy_generators takes them), by the greedy_generators walk sparsest
    first (basis order among equals), and None if their closure is space,
    which holds exactly when space is stable under the maps, or else the
    first pivot where they differ."""
    gens, rows = greedy_generators(sorted(space.basis, key=len),
                                   lambda kept: maps, space.ambient_dim,
                                   space.field, space.dim)
    span = Subspace(rows, space.ambient_dim, space.field)
    if span == space:
        return gens, None
    return gens, min(min(b.keys()) for b in set(span.basis) ^ set(space.basis))
