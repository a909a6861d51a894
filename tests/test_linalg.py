import random
from collections import deque
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cgva.fields import FpElement, PrimeField, QQ
from cgva.linalg import (LinComb, Matrix, Subspace, _axpy, _clear, _from_raw,
                         _reduce_rows, _split_components, greedy_generators,
                         matrix_inverse, matrix_rank, rank_and_kernel,
                         row_reduce, solve)
from oracles import int_map, lincomb_sum, split_components_union_find

F7 = PrimeField(7)


def lc(**kw):
    return LinComb({k: QQ.from_int(v) for k, v in kw.items()})


# -- LinComb ---------------------------------------------------------------

def test_lincomb_drops_zero_coefficients_on_construction():
    x = LinComb({"a": QQ.from_int(0), "b": QQ.one})
    assert "a" not in x.terms
    assert len(x) == 1


def test_lincomb_add_cancels_to_empty():
    x = lc(a=2, b=-1)
    y = lc(a=-2, b=1)
    assert not (x + y)
    assert (x + y) == LinComb()


def test_lincomb_scale_by_zero_int_is_empty():
    assert not lc(a=3).scale(0)


def test_lincomb_scale_filters_per_term_zeros():
    # 7 is truthy as an int but acts as zero on F_7 coefficients; a scaled
    # combination must never keep such terms
    x = LinComb({"a": F7.one, "b": F7.from_int(3)})
    y = x.scale(7)
    assert not y.terms
    z = x.scale(14 + 1)
    assert z["a"] == 1 and z["b"] == 3


def test_lincomb_sum_matches_pairwise_addition():
    parts = [lc(a=1), lc(b=2), lc(a=-1, c=5)]
    assert lincomb_sum(parts) == parts[0] + parts[1] + parts[2]


# -- Matrix ----------------------------------------------------------------

def mat(rows, field=QQ):
    return Matrix(len(rows), len(rows[0]) if rows else 0, field,
                  {(r, c): field.from_int(v) for r, row in enumerate(rows)
                   for c, v in enumerate(row)})


def test_matrix_identity_and_matmul():
    m = mat([[1, 2], [3, 4]])
    eye = Matrix.identity(2, QQ)
    assert m @ eye == m
    assert eye @ m == m
    sq = m @ m
    assert sq == mat([[7, 10], [15, 22]])


def test_matrix_mul_vec():
    m = mat([[1, 2], [0, 1]])
    v = LinComb({0: QQ.from_int(5), 1: QQ.from_int(-1)})
    assert m.mul_vec(v) == LinComb({0: QQ.from_int(3), 1: QQ.from_int(-1)})


def test_matrix_transpose():
    m = mat([[1, 2], [3, 4]])
    assert m.transpose() == mat([[1, 3], [2, 4]])
    assert m.transpose().transpose() == m


def test_rank_of_known_matrices():
    assert matrix_rank(mat([[1, 2], [2, 4]])) == 1
    assert matrix_rank(mat([[1, 2], [3, 4]])) == 2
    assert matrix_rank(Matrix.zero(3, 5, QQ)) == 0
    # 3x3 with a dependent third row
    assert matrix_rank(mat([[1, 0, 2], [0, 1, 1], [1, 1, 3]])) == 2


def test_rank_and_kernel_shapes():
    m = mat([[1, 0, 2], [0, 1, 1], [1, 1, 3]])
    rank, ker = rank_and_kernel(m)
    assert rank == 2
    assert ker.dim == 1
    (kv,) = ker.basis
    assert m.mul_vec(kv) == LinComb()


def test_kernel_is_canonical_under_row_order():
    rows = [[1, 0, 2], [0, 1, 1], [1, 1, 3]]
    _, k1 = rank_and_kernel(mat(rows))
    _, k2 = rank_and_kernel(mat(rows[::-1]))
    assert k1.basis == k2.basis


def test_solve_consistent_and_inconsistent():
    m = mat([[1, 2], [2, 4]])
    b_good = LinComb({0: QQ.from_int(3), 1: QQ.from_int(6)})
    x = solve(m, b_good)
    assert x is not None and m.mul_vec(x) == b_good
    b_bad = LinComb({0: QQ.from_int(3), 1: QQ.from_int(5)})
    assert solve(m, b_bad) is None


def test_matrix_inverse_round_trip():
    m = mat([[2, 1], [1, 1]])
    inv = matrix_inverse(m)
    assert inv is not None
    assert m @ inv == Matrix.identity(2, QQ)
    assert matrix_inverse(mat([[1, 2], [2, 4]])) is None


def test_rank_over_prime_field_can_drop():
    over_q = mat([[1, 7], [0, 7]])
    over_7 = mat([[1, 7], [0, 7]], F7)
    assert matrix_rank(over_q) == 2
    assert matrix_rank(over_7) == 1


def test_rank_over_non_interned_prime_field():
    big = PrimeField(1048583)
    rows = [[3, 1, 4], [1, 5, 9], [2, 6, 5]]
    # det = -90, a unit mod the big prime, so full rank survives reduction
    assert matrix_rank(mat(rows, big)) == 3
    assert matrix_rank(mat(rows)) == 3


# -- Subspace --------------------------------------------------------------

def test_subspace_span_and_membership():
    s = Subspace([LinComb({0: QQ.one, 1: QQ.one}),
                  LinComb({1: QQ.one, 2: QQ.one})], 3, QQ)
    assert s.dim == 2
    assert s.contains(LinComb({0: QQ.one, 2: QQ.from_int(-1)}))
    assert not s.contains(LinComb({0: QQ.one}))


def test_subspace_reduce_is_zero_exactly_on_members():
    s = Subspace([LinComb({0: QQ.one, 1: QQ.from_int(2)})], 2, QQ)
    inside = LinComb({0: QQ.from_int(3), 1: QQ.from_int(6)})
    assert s.reduce(inside) == LinComb()
    outside = LinComb({0: QQ.one})
    assert s.reduce(outside)


def test_subspace_add_and_intersect_dims():
    e0 = LinComb({0: QQ.one})
    e1 = LinComb({1: QQ.one})
    e2 = LinComb({2: QQ.one})
    plane_a = Subspace([e0, e1], 3, QQ)
    plane_b = Subspace([e1, e2], 3, QQ)
    assert plane_a.add(plane_b).dim == 3
    line = plane_a.intersect(plane_b)
    assert line.dim == 1
    assert line.contains(e1)


def test_subspace_equality_is_basis_independent():
    v1 = LinComb({0: QQ.one, 1: QQ.one})
    v2 = LinComb({0: QQ.one, 1: QQ.from_int(-1)})
    a = Subspace([v1, v2], 2, QQ)
    b = Subspace([LinComb({0: QQ.one}), LinComb({1: QQ.one})], 2, QQ)
    assert a == b


def _all_pivot_reduce(space, vec):
    """The oracle: Subspace.reduce as a walk over every pivot in order."""
    out = dict(vec.terms)
    for p, b in zip(space.pivots, space.basis):
        c = out.get(p)
        if c is not None:
            _axpy(out, b.terms.items(), -c)
    return LinComb._raw(out)


@st.composite
def _rows_and_vectors(draw):
    """Sparse int rows and dense int vectors on the same columns, each
    vector's keys in a drawn order: several pivots among a vector's keys,
    out of order, are what tells the order of subtraction apart."""
    ncols = draw(st.integers(1, 9))
    entry = st.one_of(st.just(0), st.integers(-4, 4))
    rows = draw(st.lists(st.lists(entry, min_size=ncols, max_size=ncols),
                         min_size=0, max_size=7))
    vecs = draw(st.lists(st.permutations(range(ncols)).flatmap(
        lambda keys: st.lists(st.integers(-4, 4), min_size=ncols,
                              max_size=ncols).map(
            lambda vals: [(k, vals[k]) for k in keys])), min_size=1, max_size=4))
    return ncols, rows, vecs


@pytest.mark.parametrize("field", [QQ, F7], ids=["q", "fp7"])
@given(case=_rows_and_vectors())
@settings(max_examples=80, deadline=None)
def test_subspace_reduce_matches_the_all_pivot_loop(field, case):
    """Same LinComb, same key order, and on sums of basis vectors too."""
    ncols, rows, vecs = case
    space = Subspace([LinComb({c: field.from_int(v) for c, v in enumerate(r)})
                      for r in rows], ncols, field)
    vecs = [LinComb({k: field.from_int(v) for k, v in items}) for items in vecs]
    vecs += [v + b for v in vecs for b in space.basis[:2]]
    for vec in vecs:
        got = space.reduce(vec)
        assert list(got.items()) == list(_all_pivot_reduce(space, vec).items())
        assert space.contains(vec) == (not got)


def _random_int_matrix(rng, nrows, ncols, bound=5):
    return [[rng.randint(-bound, bound) for _ in range(ncols)]
            for _ in range(nrows)]


@given(st.integers(0, 10 ** 6))
@settings(max_examples=40, deadline=None)
def test_rank_is_invariant_under_row_and_column_permutation(seed):
    rng = random.Random(seed)
    rows = _random_int_matrix(rng, 4, 5)
    base = matrix_rank(mat(rows))
    rng.shuffle(rows)
    cols = list(range(5))
    rng.shuffle(cols)
    shuffled = [[row[c] for c in cols] for row in rows]
    assert matrix_rank(mat(shuffled)) == base


@given(st.integers(0, 10 ** 6))
@settings(max_examples=40, deadline=None)
def test_rank_never_grows_under_reduction_mod_p(seed):
    rng = random.Random(seed)
    rows = _random_int_matrix(rng, 4, 4, bound=9)
    assert matrix_rank(mat(rows, F7)) <= matrix_rank(mat(rows))


@given(st.integers(0, 10 ** 6))
@settings(max_examples=40, deadline=None)
def test_kernel_vectors_annihilate_and_count(seed):
    rng = random.Random(seed)
    m = mat(_random_int_matrix(rng, 3, 6))
    rank, ker = rank_and_kernel(m)
    assert rank + ker.dim == 6
    for v in ker.basis:
        assert m.mul_vec(v) == LinComb()


@st.composite
def _sparse_int_rows(draw):
    nrows = draw(st.integers(1, 6))
    ncols = draw(st.integers(1, 8))
    entry = st.one_of(st.just(0), st.integers(-4, 4))
    return [draw(st.lists(entry, min_size=ncols, max_size=ncols))
            for _ in range(nrows)]


@pytest.mark.parametrize("field", [QQ, F7], ids=["q", "fp7"])
@given(rows=_sparse_int_rows())
@settings(max_examples=60, deadline=None)
def test_row_reduce_kernel_is_the_span_of_free_column_vectors(field, rows):
    m = mat(rows, field)
    pivots, rref, kernel = row_reduce(m)
    # reference: x_free = 1 and x_pivot = -(its RREF row's entry at free)
    free_vecs = []
    for free in range(m.ncols):
        if free in pivots:
            continue
        vec = {free: field.one}
        for c, row in zip(pivots, rref):
            if row[free]:
                vec[c] = -row[free]
        free_vecs.append(LinComb(vec))
    assert kernel == Subspace(free_vecs, m.ncols, field)
    assert len(pivots) == matrix_rank(m)
    assert len(pivots) + kernel.dim == m.ncols
    for v in kernel.basis:
        assert m.mul_vec(v) == LinComb()


def _block_tables(rng, n: int, nmaps: int, field):
    """Map tables with small proper invariant subspaces that the
    coordinates do not show: P B P^-1 for block-diagonal B, blocks of size
    1 to 3 shared by every map, and P unit upper triangular with small
    ints.  Random maps close nearly every vector to the whole space, so a
    walk on the wrong map could not be told apart; here each P(block) is
    stable, and a map changed entry by entry rarely keeps it.  Returns the
    tables (for each map, the images of e_0..e_n-1) and a function that
    draws a vector of one P(block)."""
    one = field.one
    blocks, start = [], 0
    while start < n:
        size = min(rng.randint(1, 3), n - start)
        blocks.append(range(start, start + size))
        start += size
    P = Matrix(n, n, field, {(i, j): one if i == j else field.from_int(rng.randint(-2, 2))
                             for i in range(n) for j in range(i, n)})
    p_inv = matrix_inverse(P)
    tables = []
    for _ in range(nmaps):
        m = P @ Matrix(n, n, field, {(i, j): field.from_int(rng.randint(-3, 3))
                                     for b in blocks for i in b for j in b}) @ p_inv
        cols: list = [{} for _ in range(n)]
        for (i, j), v in m.entries.items():
            cols[j][i] = v
        tables.append([LinComb(c) for c in cols])

    def block_vec() -> LinComb:
        return P.mul_vec(LinComb({i: field.from_int(rng.randint(-3, 3))
                                  for i in rng.choice(blocks)}))

    return tables, block_vec


# the walk tests' inputs: random map tables, and block ones (_block_tables)
WALK_INPUTS = [(QQ, "random"), (F7, "random"), (QQ, "block"), (F7, "block")]
WALK_IDS = ["q", "fp7", "q-block", "fp7-block"]


@pytest.mark.parametrize("field,shape", WALK_INPUTS, ids=WALK_IDS)
@given(n=st.integers(1, 7), nmaps=st.integers(0, 3), nvecs=st.integers(0, 3),
       seed=st.integers(0, 10 ** 6))
@settings(max_examples=60, deadline=None)
def test_closure_is_the_least_stable_subspace(field, shape, n, nmaps, nvecs,
                                              seed):
    rng = random.Random(seed)

    def sparse_vec():
        return LinComb({k: field.from_int(rng.randint(-3, 3))
                        for k in range(n) if rng.random() < 0.3})

    if shape == "block":
        mats, block_vec = _block_tables(rng, n, nmaps, field)
        vectors = [block_vec() for _ in range(nvecs)]
    else:
        vectors = [sparse_vec() for _ in range(nvecs)]
        mats = [[sparse_vec() for _ in range(n)] for _ in range(nmaps)]
    # a map hands over each pair of e_k's image twice, so it is twice cols
    # (the same stable subspaces) and its indices repeat
    maps = [int_map(field, [[p for i, v in col.items() for p in ((i, v), (i, v))]
                            for col in cols])
            for cols in mats]
    got = Subspace(greedy_generators(vectors, lambda kept: maps, n, field, n)[1],
                   n, field)
    # reference: add the images of a basis until the span stops growing
    span = Subspace(vectors, n, field)
    while True:
        images = [lincomb_sum(cols[k].scale(c) for k, c in b.items())
                  for cols in mats for b in span.basis]
        grown = Subspace(list(span.basis) + images, n, field)
        if grown.dim == span.dim:
            break
        span = grown
    assert got == span
    assert all(min(b.keys()) == p for b, p in zip(got.basis, got.pivots))


def _oracle_closure(vectors, maps, ambient_dim, field):
    """The closure before the one-echelon walk: its own echelon fed
    breadth-first from the given vectors."""
    one = field.one
    rows = {}
    queue = deque()

    def insert(vec):
        while vec:
            p = min(vec)
            row = rows.get(p)
            if row is None:
                inv = one / vec[p]
                if inv != one:
                    vec = {k: inv * v for k, v in vec.items()}
                rows[p] = vec
                queue.append(vec)
                return
            _axpy(vec, row.items(), -vec[p])

    for v in vectors:
        insert(dict(v.terms))
    while queue:
        row = queue.popleft()
        for f in maps:
            image = {}
            for k, c in row.items():
                _axpy(image, f(k), c)
            insert(image)
    return Subspace([LinComb(r) for r in rows.values()], ambient_dim, field)


def _oracle_greedy_generators(candidates, maps, ambient_dim, field, target_dim):
    """The walk that restarts the closure for every generator kept."""
    kept = []
    span = Subspace([], ambient_dim, field)
    for v in candidates:
        if span.dim >= target_dim:
            break
        if span.contains(v):
            continue
        kept.append(v)
        span = _oracle_closure(kept, maps(kept), ambient_dim, field)
    return kept, span


@pytest.mark.parametrize("field,shape", WALK_INPUTS, ids=WALK_IDS)
@pytest.mark.parametrize("grow", [False, True], ids=["constant", "growing"])
@given(n=st.integers(1, 7), nmaps=st.integers(0, 2), ncands=st.integers(0, 6),
       target=st.integers(0, 7), seed=st.integers(0, 10 ** 6))
@settings(max_examples=60, deadline=None)
def test_greedy_generators_match_the_restarting_oracle(field, shape, grow, n,
                                                       nmaps, ncands, target,
                                                       seed):
    rng = random.Random(seed)

    def sparse_vec():
        return LinComb({k: field.from_int(rng.randint(-3, 3))
                        for k in range(n) if rng.random() < 0.4})

    def as_maps(tables):
        # each table as the oracle's map on field scalars and as the int
        # map that greedy_generators takes
        return ([lambda k, cols=cols: cols[k].items() for cols in tables],
                [int_map(field, [list(v.items()) for v in cols]) for cols in tables])

    # with grow, each kept candidate brings one more map, as each Lie
    # generator brings its ad map in lie_generators
    if shape == "block":
        tables, block_vec = _block_tables(rng, n, nmaps + ncands, field)
        fixed, int_fixed = as_maps(tables[:nmaps])
        extra, int_extra = as_maps(tables[nmaps:])
        candidates = [block_vec() for _ in range(ncands)]
    else:
        fixed, int_fixed = as_maps([[sparse_vec() for _ in range(n)]
                                    for _ in range(nmaps)])
        extra, int_extra = as_maps([[sparse_vec() for _ in range(n)]
                                    for _ in range(ncands)])
        candidates = [sparse_vec() for _ in range(ncands)]
    candidates += candidates[:2]  # repeats, which the walk must skip

    def maps(kept):
        return fixed + extra[:len(kept)] if grow else fixed

    def int_maps(kept):
        return int_fixed + int_extra[:len(kept)] if grow else int_fixed

    target = min(target, n)
    got = greedy_generators(candidates, int_maps, n, field, target)
    want = _oracle_greedy_generators(candidates, maps, n, field, target)
    assert got[0] == want[0]
    assert Subspace(got[1], n, field) == want[1]
    if not grow:
        rows = greedy_generators(candidates, lambda kept: int_fixed, n, field, n)[1]
        assert Subspace(rows, n, field) == _oracle_closure(candidates, fixed, n, field)


# -- elimination by components against the one-piece oracle ---------------

def _field_object_reduce_rows(rows, cols, field, reduced=True):
    """The oracle for _reduce_rows: the same pivot rule (sparsest eligible
    row, row index as tie-break), eliminating on field scalars through
    _axpy rather than on raw residues."""
    active = [dict(r) for r in rows if r]
    piv_cols, piv_rows = [], []
    for col in cols:
        best = -1
        best_sz = -1
        for idx, row in enumerate(active):
            if col in row:
                sz = len(row)
                if best < 0 or sz < best_sz:
                    best, best_sz = idx, sz
        if best < 0:
            continue
        prow = active.pop(best)
        inv = field.one / prow[col]
        if inv != field.one:
            prow = {c: inv * v for c, v in prow.items()}
        for row in active:
            f = row.get(col)
            if f is not None:
                _axpy(row, prow.items(), -f)
        piv_cols.append(col)
        piv_rows.append(prow)
    if not reduced:
        return piv_cols, piv_rows
    for k in range(len(piv_rows) - 1, -1, -1):
        col = piv_cols[k]
        prow = piv_rows[k]
        for l in range(k):
            row = piv_rows[l]
            f = row.get(col)
            if f is not None:
                _axpy(row, prow.items(), -f)
    return piv_cols, piv_rows


def _one_piece(rows, ncols, field):
    """The oracle: every column eliminated at once on field scalars,
    without the split into connected components that all elimination in
    the package goes through."""
    return _field_object_reduce_rows(rows, list(range(ncols)), field)


def _oracle_row_reduce(m):
    piv, rref = _one_piece(m.rows_as_dicts(), m.ncols, m.field)
    free_vecs = []
    for f in range(m.ncols):
        if f not in piv:
            vec = {f: m.field.one}
            vec.update((c, -row[f]) for c, row in zip(piv, rref) if f in row)
            free_vecs.append(vec)
    return piv, rref, _one_piece(free_vecs, m.ncols, m.field)[1]


def _oracle_solve(m, b):
    rows = m.rows_as_dicts()
    for r, v in b.items():
        rows[r][m.ncols] = v
    piv, rref = _one_piece(rows, m.ncols + 1, m.field)
    if m.ncols in piv:
        return None
    return LinComb({c: row[m.ncols] for c, row in zip(piv, rref) if m.ncols in row})


def _oracle_inverse(m):
    n = m.nrows
    rows = m.rows_as_dicts()
    for r in range(n):
        rows[r][n + r] = m.field.one
    piv, rref = _one_piece(rows, 2 * n, m.field)
    if piv[:n] != list(range(n)):
        return None
    return Matrix(n, n, m.field, {(r, c - n): v for r, row in enumerate(rref[:n])
                                  for c, v in row.items() if c >= n})


@st.composite
def _block_matrices(draw, invertible=False, big=False):
    """(nrows, ncols, int entries) of a sparse matrix assembled from 2-4
    blocks on disjoint rows and columns, both shuffled: its nonzero pattern
    has several components, interleaved in column order.  invertible=True
    makes each block square with determinant +-1, as L U with unit lower
    triangular L and upper triangular U with diagonal +-1.  big=True also
    draws entries up to 10^7 in absolute value."""
    entry = st.one_of(st.just(0), st.just(0), st.integers(-3, 3),
                      *([st.integers(-10**7, 10**7)] if big else []))
    blocks = []
    for _ in range(draw(st.integers(2, 4))):
        h = draw(st.integers(1, 4))
        if not invertible:
            w = draw(st.integers(1, 4))
            blocks.append([draw(st.lists(entry, min_size=w, max_size=w))
                           for _ in range(h)])
            continue
        low = [[1 if i == j else draw(entry) if j < i else 0 for j in range(h)]
               for i in range(h)]
        up = [[draw(st.sampled_from([1, -1])) if i == j else draw(entry) if j > i else 0
               for j in range(h)] for i in range(h)]
        blocks.append([[sum(low[i][k] * up[k][j] for k in range(h)) for j in range(h)]
                       for i in range(h)])
    nrows = sum(len(b) for b in blocks)
    ncols = sum(len(b[0]) for b in blocks)
    row_of = draw(st.permutations(range(nrows)))
    col_of = draw(st.permutations(range(ncols)))
    entries = {}
    r0 = c0 = 0
    for b in blocks:
        for i, row in enumerate(b):
            for j, v in enumerate(row):
                if v:
                    entries[(row_of[r0 + i], col_of[c0 + j])] = v
        r0, c0 = r0 + len(b), c0 + len(b[0])
    return nrows, ncols, entries


def _in_field(shape, field):
    nrows, ncols, entries = shape
    return Matrix(nrows, ncols, field,
                  {k: field.from_int(v) for k, v in entries.items()})


@pytest.mark.parametrize("field", [QQ, F7], ids=["q", "fp7"])
@given(shape=_block_matrices())
@settings(max_examples=60, deadline=None)
def test_row_reduce_rank_and_subspace_match_the_one_piece_oracle(field, shape):
    m = _in_field(shape, field)
    piv, rref, kernel = _oracle_row_reduce(m)
    got_piv, got_rref, got_kernel = row_reduce(m)
    assert got_piv == piv
    assert [r.terms for r in got_rref] == rref
    assert [v.terms for v in got_kernel.basis] == kernel
    assert matrix_rank(m) == len(piv)
    row_space = Subspace([LinComb(r) for r in m.rows_as_dicts()], m.ncols, field)
    assert [v.terms for v in row_space.basis] == rref


@pytest.mark.parametrize("field", [QQ, F7], ids=["q", "fp7"])
@given(shape=_block_matrices(), data=st.data())
@settings(max_examples=60, deadline=None)
def test_solve_matches_the_one_piece_oracle(field, shape, data):
    m = _in_field(shape, field)
    coeffs = st.integers(-3, 3)
    x = LinComb({c: field.from_int(data.draw(coeffs)) for c in range(m.ncols)})
    consistent = m.mul_vec(x)
    # one more row, all zero, whose right-hand side is not
    tall = Matrix(m.nrows + 1, m.ncols, field, m.entries)
    inconsistent = consistent + LinComb.term(m.nrows, field.one)
    drawn = LinComb({r: field.from_int(data.draw(coeffs)) for r in range(m.nrows)})
    assert solve(m, consistent) is not None
    assert solve(tall, inconsistent) is None
    for mm, b in ((m, consistent), (tall, inconsistent), (m, drawn)):
        assert solve(mm, b) == _oracle_solve(mm, b)


@pytest.mark.parametrize("field", [QQ, F7], ids=["q", "fp7"])
@given(shape=_block_matrices(invertible=True), data=st.data())
@settings(max_examples=60, deadline=None)
def test_matrix_inverse_matches_the_one_piece_oracle(field, shape, data):
    m = _in_field(shape, field)
    inv = matrix_inverse(m)
    assert inv == _oracle_inverse(m)
    assert inv is not None and m @ inv == Matrix.identity(m.nrows, field)
    # a zero row makes it singular
    r = data.draw(st.integers(0, m.nrows - 1))
    singular = Matrix(m.nrows, m.ncols, field,
                      {k: v for k, v in m.entries.items() if k[0] != r})
    assert matrix_inverse(singular) is None
    assert _oracle_inverse(singular) is None


@pytest.mark.parametrize("field", [QQ, F7, PrimeField(46337), PrimeField(1000003)],
                         ids=["q", "fp7", "fp46337", "fp1000003"])
@pytest.mark.parametrize("reduced", [True, False], ids=["rref", "echelon"])
@given(shape=_block_matrices(big=True), data=st.data())
@settings(max_examples=60, deadline=None)
def test_reduce_rows_matches_the_field_object_oracle(field, reduced, shape, data):
    # 1000003 lies above PrimeField._INTERN_LIMIT, so its scalars are made
    # one by one (_element_big) rather than read from the interned table
    m = _in_field(shape, field)
    cols = data.draw(st.permutations(range(m.ncols)))
    # _reduce_rows owns raw rows: residues in [1, p) over F_p, Fractions over Q
    piv, got = _reduce_rows(m._lines(), cols, field, reduced)
    want_piv, want = _field_object_reduce_rows(m.rows_as_dicts(), cols, field,
                                               reduced)
    assert piv == want_piv
    p = field.char
    for r in got:
        for v in r.values():
            assert type(v) is Fraction and v if field is QQ \
                else type(v) is int and 0 < v < p
    assert [list(_from_raw(field, r).items()) for r in got] \
        == [list(r.items()) for r in want]
    # the public exits hand out field scalars
    scalar_type = Fraction if field is QQ else FpElement
    _, rref, kernel = row_reduce(m)
    x = LinComb({c: field.from_int(data.draw(st.integers(-3, 3)))
                 for c in range(m.ncols)})
    inter = kernel.intersect(Subspace(kernel.basis[:1] + (x,), m.ncols, field))
    for vec in (*rref, *kernel.basis, *inter.basis, solve(m, m.mul_vec(x))):
        for v in vec.terms.values():
            assert v and type(v) is scalar_type
            assert field is QQ or v.field == field


@st.composite
def _rational_matrices(draw):
    """A matrix over Q with _block_matrices' pattern whose entries have
    mixed denominators and either sign, and whose rows each carry a common
    content: every entry of a row is the drawn int over a drawn
    denominator, times the row's own rational factor."""
    nrows, ncols, entries = draw(_block_matrices(big=True))
    dens = st.sampled_from([1, 1, 2, 3, 4, 6, 9, 35])
    factor = [Fraction(draw(st.sampled_from([1, -1, 6, -4, 15, -21])), draw(dens))
              for _ in range(nrows)]
    return Matrix(nrows, ncols, QQ, {(r, c): Fraction(v, draw(dens)) * factor[r]
                                     for (r, c), v in entries.items()})


@pytest.mark.parametrize("reduced", [True, False], ids=["rref", "echelon"])
@given(m=_rational_matrices(), data=st.data())
@settings(max_examples=80, deadline=None)
def test_fraction_free_elimination_matches_the_fraction_oracle(reduced, m, data):
    """Over Q _reduce_rows eliminates primitive int rows fraction-free;
    what it hands back are the oracle's rows, eliminated on Fractions:
    the same pivots, and the same Fractions with pivot 1 in the same key
    order.  row_reduce gives the oracle's RREF and kernel, key order
    included."""
    cols = data.draw(st.permutations(range(m.ncols)))
    piv, got = _reduce_rows(m._lines(), cols, QQ, reduced)
    want_piv, want = _field_object_reduce_rows(m.rows_as_dicts(), cols, QQ,
                                               reduced)
    assert piv == want_piv
    assert all(r[c] == 1 and all(type(v) is Fraction for v in r.values())
               for c, r in zip(piv, got))
    assert [list(r.items()) for r in got] == [list(r.items()) for r in want]
    piv, rref, kernel = _oracle_row_reduce(m)
    got_piv, got_rref, got_kernel = row_reduce(m)
    assert got_piv == piv
    assert [list(r.items()) for r in got_rref] == [list(r.items()) for r in rref]
    assert [list(v.items()) for v in got_kernel.basis] == \
        [list(v.items()) for v in kernel]


_INT_ROWS = st.dictionaries(st.integers(0, 5), st.integers(-30, 30).filter(bool))


@given(prow=_INT_ROWS.filter(bool), rows=st.lists(_INT_ROWS, max_size=4),
       data=st.data())
@settings(max_examples=100, deadline=None)
def test_the_fraction_free_step_leaves_primitive_multiples(prow, rows, data):
    """Over Q _clear turns each int row that holds the pivot column into a
    primitive int row without it: a nonzero multiple of the row that the
    step gives on Fractions, row - (row[col] / prow[col]) prow, with the
    same keys in the same order.  A row without the column is left alone."""
    col = data.draw(st.sampled_from(sorted(prow)))
    got = [dict(row) for row in rows]
    _clear(col, dict(prow), got, 0)
    for row, g in zip(rows, got):
        if col not in row:
            assert g == row
            continue
        want = _axpy({k: Fraction(v) for k, v in row.items()}, prow.items(),
                     -Fraction(row[col], prow[col]))
        assert list(g) == list(want)
        if g:
            assert gcd(*g.values()) == 1
            ratio = Fraction(next(iter(want.values())), next(iter(g.values())))
            assert all(want[k] == ratio * v for k, v in g.items())


@pytest.mark.parametrize("field,shape", WALK_INPUTS, ids=WALK_IDS)
@given(n=st.integers(1, 7), nmaps=st.integers(1, 3), ncands=st.integers(0, 6),
       scales=st.lists(st.integers(-50, 50).filter(lambda c: c % 7),
                       min_size=3, max_size=3),
       seed=st.integers(0, 10 ** 6))
@settings(max_examples=60, deadline=None)
def test_scaling_each_map_leaves_the_walk_alone(field, shape, n, nmaps, ncands,
                                                 scales, seed):
    """A map times a constant nonzero in the field has the same closures,
    so greedy_generators keeps the same candidates and spans the same
    closure however each map's ints are scaled."""
    rng = random.Random(seed)

    def sparse_vec():
        return LinComb({k: field.from_int(rng.randint(-3, 3))
                        for k in range(n) if rng.random() < 0.4})

    if shape == "block":
        tables, block_vec = _block_tables(rng, n, nmaps, field)
        maps = [int_map(field, [list(v.items()) for v in cols]) for cols in tables]
        candidates = [block_vec() for _ in range(ncands)]
    else:
        maps = [int_map(field, [list(sparse_vec().items()) for _ in range(n)])
                for _ in range(nmaps)]
        candidates = [sparse_vec() for _ in range(ncands)]
    scaled = [lambda k, f=f, c=c: [(m, c * w) for m, w in f(k)]
              for f, c in zip(maps, scales)]
    kept, rows = greedy_generators(candidates, lambda kept: maps, n, field, n)
    kept_scaled, rows_scaled = greedy_generators(candidates, lambda kept: scaled,
                                                 n, field, n)
    assert [list(v.items()) for v in kept_scaled] == [list(v.items()) for v in kept]
    assert Subspace(rows_scaled, n, field) == Subspace(rows, n, field)


FIELDS = [QQ, F7, PrimeField(46337), PrimeField(1000003)]
FIELD_IDS = ["q", "fp7", "fp46337", "fp1000003"]


@st.composite
def _shaped_matrices(draw, shape):
    """(nrows, ncols, int entries) of a sparse matrix that is tall (more
    rows than columns), wide or square, with entries up to 10^7."""
    short = draw(st.integers(1, 6))
    long = short if shape == "square" else short + draw(st.integers(1, 5))
    nrows, ncols = (long, short) if shape == "tall" else (short, long)
    entry = st.one_of(st.just(0), st.just(0), st.integers(-3, 3),
                      st.integers(-10**7, 10**7))
    entries = {(r, c): v for r in range(nrows) for c in range(ncols)
               if (v := draw(entry))}
    return nrows, ncols, entries


@pytest.mark.parametrize("field", FIELDS, ids=FIELD_IDS)
@pytest.mark.parametrize("shape", ["tall", "wide", "square"])
@given(data=st.data())
@settings(max_examples=40, deadline=None)
def test_rank_is_the_same_along_rows_and_columns(field, shape, data):
    m = _in_field(data.draw(_shaped_matrices(shape)), field)
    assert matrix_rank(m) == matrix_rank(m.transpose()) == len(row_reduce(m)[0])


@given(nrows=st.integers(0, 12), ncols=st.integers(1, 12), data=st.data())
@settings(max_examples=200, deadline=None)
def test_split_components_matches_the_union_find_oracle(nrows, ncols, data):
    density = data.draw(st.sampled_from([0.1, 0.25, 0.5]))
    rows = []
    for _ in range(nrows):
        keys = data.draw(st.lists(st.integers(0, ncols - 1), unique=True,
                                  max_size=max(1, int(density * ncols) + 1)))
        rows.append({c: 1 for c in keys})
    got = _split_components(rows, ncols)
    want = split_components_union_find(rows, ncols)
    assert [cols for cols, _ in got] == [cols for cols, _ in want]
    assert [[id(r) for r in sub] for _, sub in got] \
        == [[id(r) for r in sub] for _, sub in want]


@pytest.mark.parametrize("field", [QQ, F7], ids=["q", "fp7"])
@given(shape=_block_matrices(invertible=True), data=st.data())
@settings(max_examples=40, deadline=None)
def test_eliminations_leave_their_inputs_untouched(field, shape, data):
    m = _in_field(shape, field)
    vecs = [LinComb({c: field.from_int(data.draw(st.integers(-3, 3)))
                     for c in range(m.ncols)}) for _ in range(3)]
    b = m.mul_vec(vecs[0])
    tall = Matrix(m.nrows + 1, m.ncols, field, m.entries)  # ranked by columns

    def state():
        return (list(m.entries.items()), list(tall.entries.items()),
                list(b.terms.items()), [list(v.terms.items()) for v in vecs])

    before = state()
    row_reduce(m)
    matrix_rank(m)
    matrix_rank(tall)
    solve(m, b)
    matrix_inverse(m)
    one, two = Subspace(vecs[:2], m.ncols, field), Subspace(vecs[1:], m.ncols, field)
    assert state() == before
    bases = [list(v.terms.items()) for v in one.basis + two.basis]
    one.intersect(two)
    assert [list(v.terms.items()) for v in one.basis + two.basis] == bases


# -- the accumulate helper -------------------------------------------------

_int_terms = st.lists(st.tuples(st.integers(0, 5),
                                st.integers(-3, 3).filter(bool)), max_size=10)


@pytest.mark.parametrize("field", [QQ, F7], ids=["q", "fp7"])
@given(base=_int_terms, items=_int_terms, cancel=st.booleans(),
       c=st.one_of(st.none(), st.integers(-15, 15), st.sampled_from([7, -14, 21])),
       c_in_field=st.booleans())
@settings(max_examples=150, deadline=None)
def test_axpy_is_sum_then_filter(field, base, items, cancel, c, c_in_field):
    start: dict = {}
    for k, v in base:
        start[k] = start.get(k, 0) + v
    start = {k: v for k, v in start.items() if field.from_int(v)}
    if cancel:  # exact cancellations: among the items, and with out if c is 1
        items = items + [(k, -v) for k, v in items]
        if c is None:
            items += [(k, -v) for k, v in start.items()]
    # oracle: sum everything in the integers, reduce, then drop the zeros
    total = dict(start)
    for k, v in items:
        total[k] = total.get(k, 0) + (v if c is None else c * v)
    expected = {k: field.from_int(v) for k, v in total.items() if field.from_int(v)}

    out = {k: field.from_int(v) for k, v in start.items()}
    scale = field.from_int(c) if c_in_field and c is not None else c
    result = _axpy(out, [(k, field.from_int(v)) for k, v in items], scale)
    assert result is out
    assert out == expected
    assert all(out.values())
