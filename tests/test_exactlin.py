"""Exact linear algebra: oracle-checked examples and algebraic laws.

Oracles live at the top and are deliberately naive (triple-loop products,
Bareiss determinants, textbook Gaussian elimination); the library code
never calls them.
"""

import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from opdk import _kernel, exactlin, trees
from opdk.chain import ChainComplex, ChainMap, pushout_complex
from opdk.doldkan import _image_basis
from opdk.exactlin import (
    FreeModule,
    LinearMap,
    SmithForm,
    _replayed,
    cokernel,
    compose,
    hnf_columns,
    hstack,
    kernel,
    matrix_from_json,
    matrix_to_json,
    signed_quotient,
    smith_normal_form,
    solve,
    vstack,
)
from opdk.rings import QQ, ZZ, Zmod

# ranks a free module refuses: not an int, a bool, or negative
BAD_RANKS = [-3, -1, True, False, 2.5, "2", None]

F5 = Zmod(5)


# ---------------------------------------------------------------------------
# oracles
# ---------------------------------------------------------------------------


def naive_matmul(a, b, m, ring):
    """Triple-loop product on dense row lists; b has m columns."""
    n, k = len(a), len(b)
    out = [[ring.zero] * m for _ in range(n)]
    for i in range(n):
        for j in range(m):
            acc = ring.zero
            for t in range(k):
                acc = ring.add(acc, ring.mul(a[i][t], b[t][j]))
            out[i][j] = acc
    return out


def gauss_rank(rows, ring):
    """Row-reduction rank over a field, straight from the textbook."""
    rows = [[Fraction(x) if ring.kind == "Q" else x for x in r] for r in rows]
    p = ring.p if ring.kind == "Zmod" else None
    rank = 0
    cols = len(rows[0]) if rows else 0
    for col in range(cols):
        piv = None
        for i in range(rank, len(rows)):
            if rows[i][col] % p if p else rows[i][col]:
                piv = i
                break
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        for i in range(len(rows)):
            if i == rank:
                continue
            if p:
                c = (rows[i][col] * pow(rows[rank][col], p - 2, p)) % p
                rows[i] = [(x - c * y) % p for x, y in zip(rows[i], rows[rank])]
            else:
                c = rows[i][col] / rows[rank][col]
                rows[i] = [x - c * y for x, y in zip(rows[i], rows[rank])]
        rank += 1
    return rank


def det_bareiss(rows):
    """Fraction-free determinant over Z."""
    n = len(rows)
    if n == 0:
        return 1
    m = [r[:] for r in rows]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            piv = next((i for i in range(k + 1, n) if m[i][k]), None)
            if piv is None:
                return 0
            m[k], m[piv] = m[piv], m[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
        prev = m[k][k]
    return sign * m[n - 1][n - 1]


def oracle_hnf_columns(m):
    """`hnf_columns` as one work list of columns: each pivot step scans
    every remaining column for its leading row, and the reduction above
    the pivots visits every earlier column.  The same operations in the
    same order as the bucketed routine, in quadratic time."""
    ring = m.ring
    cols = {}
    for (i, j), v in m.entries.items():
        cols.setdefault(j, {})[i] = v
    work = [cols[j] for j in sorted(cols)]
    out = []
    while work:
        lead = min(min(c) for c in work)
        group = [c for c in work if min(c) == lead]
        rest = [c for c in work if min(c) != lead]
        if ring.is_field:
            piv = group[0]
            inv = ring.inv(piv[lead])
            piv = {i: ring.mul(inv, v) for i, v in piv.items()}
            for c in group[1:]:
                f = ring.neg(c[lead])
                merged = dict(c)
                for i, v in piv.items():
                    nv = ring.add(merged.get(i, ring.zero), ring.mul(f, v))
                    if nv != ring.zero:
                        merged[i] = nv
                    elif i in merged:
                        del merged[i]
                if merged:
                    rest.append(merged)
            out.append(piv)
        else:
            while len(group) > 1:
                piv = min(group, key=lambda c: abs(c[lead]))
                p = piv[lead]
                kept = [piv]
                for c in group:
                    if c is piv:
                        continue
                    q, r = divmod(c[lead], p)
                    if 2 * abs(r) > abs(p):
                        q += 1
                    for i, v in piv.items():
                        nv = c.get(i, 0) - q * v
                        if nv:
                            c[i] = nv
                        else:
                            del c[i]
                    if lead in c:
                        kept.append(c)
                    elif c:
                        rest.append(c)
                group = kept
            piv = group[0]
            if piv.get(lead, 0) < 0:
                piv = {i: -v for i, v in piv.items()}
            out.append(piv)
        work = rest
    out.sort(key=lambda c: min(c))
    for k in range(len(out)):
        lead = min(out[k])
        p = out[k][lead]
        for t in range(k):
            c = out[t]
            if lead in c:
                if ring.is_field:
                    q = ring.mul(c[lead], ring.inv(p))
                else:
                    q = c[lead] // p
                if q != ring.zero:
                    for i, v in out[k].items():
                        nv = ring.sub(c.get(i, ring.zero), ring.mul(q, v))
                        if nv != ring.zero:
                            c[i] = nv
                        elif i in c:
                            del c[i]
    entries = {}
    for j, c in enumerate(out):
        for i, v in c.items():
            entries[(i, j)] = v
    return LinearMap(FreeModule(ring, len(out)), m.target, entries)


def oracle_coordinates(basis, pivots, x):
    """Forward substitution over every pivot row for every column of x,
    on any ring; ValueError when basis . c misses x."""
    ring = basis.ring
    at = [dict() for _ in pivots]
    where = {r: k for k, r in enumerate(pivots)}
    for (i, t), v in basis.entries.items():
        if i in where:
            at[where[i]][t] = v
    cols = {}
    for (i, j), v in x.entries.items():
        cols.setdefault(j, {})[i] = v
    entries = {}
    for j, col in cols.items():
        c = {}
        for k, r in enumerate(pivots):
            row = at[k]
            v = col.get(r, ring.zero)
            for t, w in row.items():
                if t in c:
                    v = ring.sub(v, ring.mul(w, c[t]))
            if v != ring.zero:
                c[k] = ring.mul(v, ring.inv(row[k])) if ring.is_field else v // row[k]
        for k, v in c.items():
            entries[(k, j)] = v
    coords = LinearMap(x.source, basis.source, entries)
    if compose(basis, coords).entries != x.entries:
        raise ValueError("column is not in the span of the basis")
    return coords


def oracle_smith_integer(m):
    """`smith_normal_form` over Z with the row and the column operations
    written out as separate closures on a dict-of-dicts store and a
    dict-of-sets column index: the same operations in the same order,
    so the same logs, diagonal and transforms."""
    R, C = m.target.rank, m.source.rank
    # dict-of-dicts working copies
    rows = {}
    for (i, j), v in m.entries.items():
        rows.setdefault(i, {})[j] = int(v)
    cols = {}
    for i, r in rows.items():
        for j in r:
            cols.setdefault(j, set()).add(i)
    # the elementary operations in the order they are made, for _replay:
    # U is the row operations applied to the identity, V^T the column ones
    row_log, col_log = [], []

    def row_get(i, j):
        return rows.get(i, {}).get(j, 0)

    def set_entry(i, j, v):
        if v:
            rows.setdefault(i, {})[j] = v
            cols.setdefault(j, set()).add(i)
        else:
            if i in rows and j in rows[i]:
                del rows[i][j]
                if not rows[i]:
                    del rows[i]
            if j in cols and i in cols[j]:
                cols[j].discard(i)
                if not cols[j]:
                    del cols[j]

    def row_add(i1, i2, c):
        # row i1 += c * row i2
        if c == 0:
            return
        for j, v in list(rows.get(i2, {}).items()):
            set_entry(i1, j, row_get(i1, j) + c * v)
        row_log.append(("add", i1, i2, c))

    def col_add(j1, j2, c):
        # col j1 += c * col j2
        if c == 0:
            return
        for i in list(cols.get(j2, set())):
            set_entry(i, j1, row_get(i, j1) + c * row_get(i, j2))
        col_log.append(("add", j1, j2, c))

    def row_swap(i1, i2):
        if i1 == i2:
            return
        r1, r2 = rows.get(i1, {}), rows.get(i2, {})
        for j in set(r1) | set(r2):
            cols.setdefault(j, set())
            cols[j].discard(i1)
            cols[j].discard(i2)
        if r1:
            rows[i2] = r1
        elif i2 in rows:
            del rows[i2]
        if r2:
            rows[i1] = r2
        elif i1 in rows:
            del rows[i1]
        for j in set(r1) | set(r2):
            if j in rows.get(i1, {}):
                cols.setdefault(j, set()).add(i1)
            if j in rows.get(i2, {}):
                cols.setdefault(j, set()).add(i2)
            if j in cols and not cols[j]:
                del cols[j]
        row_log.append(("swap", i1, i2, 0))

    def col_swap(j1, j2):
        if j1 == j2:
            return
        touched = cols.get(j1, set()) | cols.get(j2, set())
        for i in list(touched):
            a, b = row_get(i, j1), row_get(i, j2)
            set_entry(i, j1, b)
            set_entry(i, j2, a)
        col_log.append(("swap", j1, j2, 0))

    def row_negate(i):
        for j in list(rows.get(i, {})):
            rows[i][j] = -rows[i][j]
        row_log.append(("neg", i, i, 0))

    n = min(R, C)
    t = 0
    while t < n:
        # smallest-magnitude pivot in the remaining block; ties by position.
        # Re-selected after every remainder round: without that, entry sizes
        # square each round on dense inputs and the computation never ends.
        best = None
        for i in sorted(rows):
            if i < t:
                continue
            for j in sorted(rows[i]):
                if j < t:
                    continue
                v = abs(rows[i][j])
                if best is None or v < best[0] or (v == best[0] and (i, j) < best[1:]):
                    best = (v, i, j)
        if best is None:
            break
        _, pi, pj = best
        row_swap(t, pi)
        col_swap(t, pj)
        if row_get(t, t) < 0:
            row_negate(t)
        p = row_get(t, t)
        reduced = False
        for i in sorted(cols.get(t, set())):
            if i == t:
                continue
            # symmetric remainder keeps the fill-in multiplier minimal
            q, r = divmod(row_get(i, t), p)
            if 2 * r > p:
                q += 1
            if q:
                row_add(i, t, -q)
            if row_get(i, t):
                reduced = True
        if reduced:
            continue
        # column t is clear below the pivot, so these column ops touch
        # row t only and cannot re-dirty column t
        for j in sorted(rows.get(t, {})):
            if j == t:
                continue
            q, r = divmod(row_get(t, j), p)
            if 2 * r > p:
                q += 1
            if q:
                col_add(j, t, -q)
            if row_get(t, j):
                reduced = True
        if reduced:
            continue
        t += 1

    diag = [row_get(i, i) for i in range(n)]
    # enforce the divisibility chain d_i | d_{i+1}
    r = len([d for d in diag if d])
    changed = True
    while changed:
        changed = False
        for i in range(r - 1):
            a, b = row_get(i, i), row_get(i + 1, i + 1)
            if b % a != 0:
                # fold entry b into position (i,i) and rediagonalize the block
                col_add(i, i + 1, 1)
                while True:
                    p = row_get(i, i)
                    q = row_get(i + 1, i) // p if p else 0
                    row_add(i + 1, i, -q)
                    if row_get(i + 1, i):
                        row_swap(i, i + 1)
                        continue
                    break
                p = row_get(i, i)
                q = row_get(i, i + 1) // p
                col_add(i + 1, i, -q)
                if row_get(i, i + 1):
                    col_swap(i, i + 1)
                    continue
                if row_get(i, i) < 0:
                    row_negate(i)
                if row_get(i + 1, i + 1) < 0:
                    row_negate(i + 1)
                changed = True
    diag = [row_get(i, i) for i in range(n)]
    # nonzero entries first is guaranteed by pivoting; sanity-check the chain
    for a, b in zip(diag, diag[1:]):
        if (b % a if a else b) != 0:
            raise RuntimeError("integer Smith form: the diagonal is not a "
                               "divisibility chain")

    return SmithForm(
        tuple(diag),
        U=lambda: _replayed(row_log, m.target),
        V=lambda: _replayed(col_log, m.source).transpose(),
        Uinv=lambda: _replayed(row_log, m.target, inverse=True))


def zero_seeded_compose(f, g):
    """The entries of f after g as `compose` computed them when every
    sum started from the int 0: the same sparse merge, with
    `acc.get(i, 0) + v * w` for each product."""
    g_cols, f_cols = {}, {}
    for (i, j), v in g.entries.items():
        g_cols.setdefault(j, []).append((i, v))
    for (i, j), v in f.entries.items():
        f_cols.setdefault(j, []).append((i, v))
    p = f.ring.p
    entries = {}
    for j, col in g_cols.items():
        acc = {}
        for t, w in col:
            for i, v in f_cols.get(t, ()):
                acc[i] = acc.get(i, 0) + v * w
        for i, v in acc.items():
            if p is not None:
                v %= p
            if v:
                entries[(i, j)] = v
    return entries


def random_map(rng, ring, rows, cols, density=0.6, bound=4):
    src, tgt = FreeModule(ring, cols), FreeModule(ring, rows)
    entries = {}
    for i in range(rows):
        for j in range(cols):
            if rng.random() < density:
                v = rng.randint(-bound, bound)
                if ring.kind == "Q" and rng.random() < 0.3:
                    v = Fraction(v, rng.randint(1, 3))
                entries[(i, j)] = v
    return LinearMap(src, tgt, entries)


def same_span(a: LinearMap, b: LinearMap) -> bool:
    """Whether the column spans (sublattices over Z) coincide."""
    if a.target != b.target:
        raise ValueError(
            f"same_span: targets of rank {a.target.rank} over {a.ring.name()} "
            f"and {b.target.rank} over {b.ring.name()}")
    ha = hnf_columns(a)
    hb = hnf_columns(LinearMap(b.source, a.target, b.entries))
    return ha.entries == hb.entries and ha.source.rank == hb.source.rank


# ---------------------------------------------------------------------------
# compose
# ---------------------------------------------------------------------------


def test_compose_identity_law():
    rng = random.Random(1)
    f = random_map(rng, ZZ, 3, 2)
    assert compose(LinearMap.identity(f.target), f) == f
    assert compose(f, LinearMap.identity(f.source)) == f


def test_compose_scalar_example():
    M1, M2 = FreeModule(ZZ, 1), FreeModule(ZZ, 2)
    f = LinearMap.from_rows(M1, M2, [[1], [0]])
    g = LinearMap.from_rows(M1, M1, [[3]])
    assert compose(f, g).to_rows() == [[3], [0]]


def test_compose_against_naive_oracle_f5():
    rng = random.Random(2)
    F5 = Zmod(5)
    for _ in range(25):
        f = random_map(rng, F5, 3, 3)
        g = random_map(rng, F5, 3, 3)
        expect = naive_matmul(f.to_rows(), g.to_rows(), 3, F5)
        assert compose(f, g).to_rows() == expect


def test_compose_matches_naive_product():
    # one sparse path for every ring, shape and density; p = 4294967311
    # is where a dense kernel on machine words overflows
    rng = random.Random(3)
    shapes = [(0, 3, 4), (4, 3, 0), (3, 0, 4), (0, 0, 0), (1, 1, 1),
              (5, 7, 6), (30, 30, 30)]
    for ring in (ZZ, QQ, Zmod(5), Zmod(4294967311)):
        for rows, inner, cols in shapes:
            for density in (0.0, 0.2, 0.8, 1.0):
                f = random_map(rng, ring, rows, inner, density, bound=10 ** 6)
                g = random_map(rng, ring, inner, cols, density, bound=10 ** 6)
                expect = naive_matmul(f.to_rows(), g.to_rows(), cols, ring)
                assert compose(f, g).to_rows() == expect


def _typed(entries):
    return [(k, v, type(v)) for k, v in entries.items()]


def test_compose_matches_the_zero_seeded_oracle():
    # ordered entries and value types: a Fraction over Q, an int
    # elsewhere.  Single-entry columns (signed permutations), several
    # entries per column, and sums that cancel, to zero for good or on
    # the way to a nonzero value
    rng = random.Random(5)
    for ring in (ZZ, QQ, F5, Zmod(2)):
        canonical = Fraction if ring is QQ else int
        M = FreeModule(ring, 3)
        perm = LinearMap(M, M, {(1, 0): -1, (2, 1): 1, (0, 2): -1})
        cancel = LinearMap.from_rows(FreeModule(ring, 3),
                                     FreeModule(ring, 2),
                                     [[1, 1, 1], [1, -1, 0]])
        back = LinearMap.from_rows(FreeModule(ring, 2), M,
                                   [[1, 1], [-1, 1], [2, 2]])
        half = Fraction(1, 2) if ring is QQ else 3
        split = LinearMap.from_rows(FreeModule(ring, 2), M,
                                    [[half, 0], [half, 1], [0, -1]])
        pairs = [(perm, perm), (perm, back), (cancel, perm), (cancel, back),
                 (cancel, split), (back, cancel)]
        for _ in range(40):
            a, b, c = (rng.randint(0, 5) for _ in range(3))
            pairs.append((random_map(rng, ring, a, b, rng.random(), 2),
                          random_map(rng, ring, b, c, rng.random(), 2)))
        for f, g in pairs:
            got = compose(f, g).entries
            assert _typed(got) == _typed(zero_seeded_compose(f, g))
            assert all(type(v) is canonical for v in got.values())
        # 1 - 1 + 2 is back after a zero, 1 - 1 stays gone
        assert compose(cancel, back).entries == (
            {} if ring.p == 2 else
            {(0, 0): ring.normalize(2), (1, 0): ring.normalize(2),
             (0, 1): ring.normalize(4)})


def _column_counts_agree(m):
    """The column-function flag read off m against a count of m's
    entries per column."""
    cols = [j for _, j in m.entries]
    return m.column_function == (len(set(cols)) == len(cols))


def _drawn_map(data, ring, rows, cols, column_function):
    """A rows x cols map whose entries come in a drawn order: at most one
    per column when column_function, any pattern otherwise, with empty
    columns and empty maps among them."""
    cells = [(i, j) for i in range(rows) for j in range(cols)]
    picks = data.draw(st.lists(st.sampled_from(cells), unique=True)) \
        if cells else []
    if column_function:
        picks = list({j: (i, j) for i, j in reversed(picks)}.values())[::-1]
    values = st.integers(-4, 4).filter(bool)
    if ring is QQ:
        values = st.builds(Fraction, values, st.integers(1, 3))
    return LinearMap(FreeModule(ring, cols), FreeModule(ring, rows),
                     {k: data.draw(values) for k in picks})


@given(st.data())
@settings(max_examples=300, deadline=None)
def test_column_function_compose_matches_the_general_product(data):
    """compose through its column-function pass against
    `_product_entries`, entry for entry and in stored order, on
    column-function, general and mixed operands; the flag matches a
    count of entries per column on every map built along the way."""
    ring = data.draw(st.sampled_from([ZZ, QQ, F5, Zmod(2)]))
    a, b, c = (data.draw(st.integers(0, 5)) for _ in range(3))
    f_kind, g_kind = data.draw(st.booleans()), data.draw(st.booleans())
    f = _drawn_map(data, ring, a, b, f_kind)
    g, g2 = (_drawn_map(data, ring, b, c, g_kind) for _ in range(2))
    # a sum and a placement store their entries with no flag, so the
    # flag of each is read by a scan
    summed = g + g2
    beside = LinearMap.placed(FreeModule(ring, 2 * c), FreeModule(ring, b),
                              [(0, 0, g), (0, c, g2)])
    stacked = LinearMap.placed(FreeModule(ring, c), FreeModule(ring, 2 * b),
                               [(0, 0, g), (b, 0, g2)])
    # g2^T g2 is a general map unless g2 is a column function
    square = g2.transpose() @ g2
    canonical = Fraction if ring is QQ else int
    for left, right in ((f, g), (f, summed), (f @ g, square),
                        (square, square)):
        got = compose(left, right)
        want = exactlin._product_entries(left.entries, right.entries,
                                         ring.p)
        assert list(got.entries.items()) == list(want.items())
        assert all(type(v) is canonical for v in got.entries.values())
        assert _column_counts_agree(got)
    for m in (f, g, summed, beside, stacked, square,
              LinearMap.identity(FreeModule(ring, a)),
              LinearMap.zero(FreeModule(ring, c), FreeModule(ring, a))):
        assert _column_counts_agree(m)
    if g_kind:
        assert g.column_function and beside.column_function
    if g_kind and f_kind:
        assert compose(f, g).column_function


def entry_list_product(ring, outer, inner):
    """outer after inner on raw entry dicts as the tree contraction took
    it before it shared `compose`'s sparse product: a ring.add and a
    ring.mul per term, walking inner's entries."""
    by_col = {}
    for (i, j), v in outer.items():
        by_col.setdefault(j, []).append((i, v))
    acc = {}
    for (j, k), w in inner.items():
        for i, v in by_col.get(j, []):
            acc[(i, k)] = ring.add(acc.get((i, k), ring.zero), ring.mul(v, w))
    return {key: v for key, v in acc.items() if v != ring.zero}


def test_product_entries_takes_unreduced_factors():
    # the tree contraction chains products on entry dicts straight from
    # `chain._tensor_entries`, which leaves products unreduced mod p; the
    # result must still be canonical and equal compose of the maps
    rng = random.Random(6)
    for ring in (ZZ, QQ, F5, Zmod(2)):
        canonical = Fraction if ring is QQ else int

        def raw(rows, cols):
            ents = {}
            for i in range(rows):
                for j in range(cols):
                    if rng.random() < 0.5:
                        v = rng.randint(-12, 12)
                        ents[(i, j)] = Fraction(v, rng.randint(1, 3)) \
                            if ring is QQ else v
            return ents
        for _ in range(40):
            a, b, c = (rng.randint(0, 5) for _ in range(3))
            f, g = raw(a, b), raw(b, c)
            got = exactlin._product_entries(f, g, ring.p)
            assert got == entry_list_product(ring, f, g)
            assert all(type(v) is canonical for v in got.values())
            F = LinearMap(FreeModule(ring, b), FreeModule(ring, a), f)
            G = LinearMap(FreeModule(ring, c), FreeModule(ring, b), g)
            assert got == compose(F, G).entries


def fraction_entries(data, rows, cols, column_function):
    """A drawn rows x cols entry dict of nonzero Fractions with
    denominators 1 to 6, mixed within a row and within a column: at most
    one entry per column when column_function, any pattern otherwise,
    empty dicts among them."""
    cells = [(i, j) for i in range(rows) for j in range(cols)]
    picks = data.draw(st.lists(st.sampled_from(cells), unique=True)) \
        if cells else []
    if column_function:
        picks = list({j: (i, j) for i, j in reversed(picks)}.values())[::-1]
    values = st.builds(Fraction, st.integers(-6, 6).filter(bool),
                       st.integers(1, 6))
    return {k: data.draw(values) for k in picks}


def with_cancelling_column(f, g, cols):
    """g with a column at index cols added that f maps to zero in its
    first row holding two entries x, y at columns s, t: g there is y at
    s and -x at t, so that row's sum x*y - y*x cancels."""
    row = {}
    for (i, t), v in f.items():
        row.setdefault(i, []).append((t, v))
    pair = next((r for r in row.values() if len(r) >= 2), None)
    if pair is None:
        return g
    (s, x), (t, y) = pair[:2]
    return {**g, (s, cols): y, (t, cols): -x}


@given(st.data())
@settings(max_examples=300, deadline=None)
def test_q_product_kernel_matches_the_fraction_product(data):
    """`_q_product_entries`, the Q product on integer numerators, against
    `_product_entries` on the Fractions themselves: the same ordered
    entries, each a Fraction, on column-function, general and empty
    operands and on sums that cancel; and `compose` over Q, through
    either of its passes, stores the same."""
    a, b, c = (data.draw(st.integers(0, 5)) for _ in range(3))
    f = fraction_entries(data, a, b, data.draw(st.booleans()))
    g = fraction_entries(data, b, c, data.draw(st.booleans()))
    for right, cols in ((g, c), (with_cancelling_column(f, g, c), c + 1)):
        got = exactlin._q_product_entries(f, right)
        want = exactlin._product_entries(f, right, None)
        assert _typed(got) == _typed(want)
        assert all(type(v) is Fraction for v in got.values())
        F = LinearMap(FreeModule(QQ, b), FreeModule(QQ, a), f)
        G = LinearMap(FreeModule(QQ, cols), FreeModule(QQ, b), right)
        assert _typed(compose(F, G).entries) == _typed(want)


@given(st.data())
@settings(max_examples=100, deadline=None)
def test_tree_products_over_q_match_the_fraction_product(data):
    """`trees._products`, the tree contraction's chained products on
    per-degree entry dicts, over Q against `_product_entries` on the
    Fractions: ordered entries and value types, degree by degree."""
    degrees = data.draw(st.integers(1, 3))
    outer, inner = [], []
    for _ in range(degrees):
        a, b, c = (data.draw(st.integers(0, 4)) for _ in range(3))
        f = fraction_entries(data, a, b, data.draw(st.booleans()))
        g = fraction_entries(data, b, c, data.draw(st.booleans()))
        outer.append(f)
        inner.append(with_cancelling_column(f, g, c))
    got = trees._products(QQ, outer, inner)
    assert [_typed(e) for e in got] == \
        [_typed(exactlin._product_entries(f, g, None))
         for f, g in zip(outer, inner)]


def test_q_product_kernel_cancels_and_keeps_mixed_denominators():
    # row 0 of f has denominators 2 and 3, and so has column 0 of g: the
    # sum 1/2 * 1/3 - 1/3 * 1/2 cancels on the scaled numerators, and
    # (1, 0) comes back from the numerator 1 * -3 over the scales 6 * 6
    h, t = Fraction(1, 2), Fraction(1, 3)
    f = {(0, 0): h, (0, 1): t, (1, 1): Fraction(1, 6)}
    g = {(0, 0): t, (1, 0): -h, (1, 1): Fraction(1)}
    got = exactlin._q_product_entries(f, g)
    assert _typed(got) == _typed(exactlin._product_entries(f, g, None))
    assert _typed(got) == [((1, 0), Fraction(-1, 12), Fraction),
                           ((0, 1), Fraction(1, 3), Fraction),
                           ((1, 1), Fraction(1, 6), Fraction)]
    assert exactlin._q_product_entries({}, g) == {}
    assert exactlin._q_product_entries(f, {}) == {}


def test_entry_outside_the_shape_raises():
    # an explicit check, so it also holds under python -O
    with pytest.raises(ValueError, match=r"entry \(0,0\) outside 0x2"):
        LinearMap(FreeModule(ZZ, 2), FreeModule(ZZ, 0),
                  {(0, 0): 1, (1, 1): 1})
    with pytest.raises(ValueError, match=r"outside 2x2"):
        LinearMap(FreeModule(ZZ, 2), FreeModule(ZZ, 2), {(0, -1): 1})


@pytest.mark.parametrize("position", [(0.5, 0), (True, 1), (0, False),
                                      (1.0, 1), ("0", 0), (0, None)])
def test_an_entry_position_that_is_not_an_int_raises(position):
    # 0 <= 0.5 < 2 and True == 1: without the type test both were stored,
    # and to_rows() then raised TypeError on the float
    M = FreeModule(ZZ, 2)
    with pytest.raises(ValueError, match="is not a pair of ints"):
        LinearMap(M, M, {position: 1})


def test_compose_shape_mismatch_raises():
    f = random_map(random.Random(4), ZZ, 2, 2)
    g = random_map(random.Random(5), ZZ, 3, 3)
    with pytest.raises(ValueError, match="cannot compose: inner ranks 3 vs 2"):
        compose(f, g)


@pytest.mark.parametrize("op", ["add", "sub"])
def test_mismatched_sums_raise(op):
    # the 3x3 map's only entry lies inside the 2x2 shape, so only an
    # explicit shape check can refuse it (also under python -O)
    small = LinearMap.zero(FreeModule(ZZ, 2), FreeModule(ZZ, 2))
    big = LinearMap(FreeModule(ZZ, 3), FreeModule(ZZ, 3), {(0, 0): 1})
    for f, g in ((small, big), (big, small)):
        with pytest.raises(ValueError, match="cannot add"):
            f + g if op == "add" else f - g
    over_q = LinearMap.zero(FreeModule(QQ, 2), FreeModule(QQ, 2))
    with pytest.raises(ValueError, match="cannot add"):
        small + over_q if op == "add" else small - over_q


def test_mismatched_blocks_and_stacks_raise():
    Z2, Q2, Z3 = FreeModule(ZZ, 2), FreeModule(QQ, 2), FreeModule(ZZ, 3)
    fz, fq = LinearMap.identity(Z2), LinearMap.identity(Q2)
    with pytest.raises(ValueError, match="ring mismatch"):
        fz.tensor(fq)
    with pytest.raises(ValueError, match="ring mismatch"):
        fz.direct_sum(fq)
    g = LinearMap(Z3, Z3, {(0, 0): 1})
    with pytest.raises(ValueError, match="hstack: the maps' targets differ"):
        hstack([fz, g])
    with pytest.raises(ValueError, match="vstack: the maps' sources differ"):
        vstack([fz, g])
    with pytest.raises(ValueError, match="hstack: the maps' targets differ"):
        hstack([fz, fq])
    with pytest.raises(ValueError, match="at least one map"):
        hstack([])
    with pytest.raises(ValueError, match="at least one map"):
        vstack([])


def test_placed_blocks_match_the_checking_constructor():
    Z2, Z3, Z5 = FreeModule(ZZ, 2), FreeModule(ZZ, 3), FreeModule(ZZ, 5)
    f = LinearMap(Z3, Z2, {(1, 2): -4, (0, 0): 3, (1, 0): 1})
    g = LinearMap(Z2, Z3, {(2, 1): 7, (0, 0): -1})
    got = LinearMap.placed(Z5, Z5, [(3, 0, f), (0, 3, g),
                                    (0, 0, LinearMap.zero(Z3, Z3))])
    raw = {(4, 2): -4, (3, 0): 3, (4, 0): 1, (2, 4): 7, (0, 3): -1}
    assert list(got.entries.items()) == list(LinearMap(Z5, Z5, raw).entries.items())
    # one block filling the shape copies a map onto the given modules
    X3 = FreeModule(ZZ, 3)
    rel = LinearMap.placed(X3, Z2, [(0, 0, f)])
    assert rel.source is X3 and rel.entries == f.entries
    assert rel.entries is not f.entries
    # blocks may share rows and columns where their entries do not meet
    h = LinearMap.placed(Z2, Z2, [(0, 0, LinearMap(Z2, Z2, {(0, 1): 1})),
                                  (0, 0, LinearMap(Z2, Z2, {(1, 0): 2}))])
    assert h.entries == {(0, 1): 1, (1, 0): 2}
    assert LinearMap.placed(Z2, Z3, []).is_zero()


@pytest.mark.parametrize("case", [
    "block over another ring", "source and target over different rings",
    "too many rows", "too many columns", "negative offset",
    "entries overlap"])
def test_placed_refuses_bad_blocks(case):
    Z2, Z3 = FreeModule(ZZ, 2), FreeModule(ZZ, 3)
    one = LinearMap.identity(Z2)
    source, target, blocks = Z3, Z3, [(0, 0, one)]
    if case == "block over another ring":
        blocks = [(0, 0, LinearMap.identity(FreeModule(QQ, 2)))]
    elif case == "source and target over different rings":
        source = FreeModule(QQ, 3)
    elif case == "too many rows":
        blocks = [(2, 0, one)]
    elif case == "too many columns":
        blocks = [(0, 2, one)]
    elif case == "negative offset":
        blocks = [(-1, 0, one)]
    else:
        blocks = [(0, 0, one), (1, 1, one)]
    with pytest.raises(ValueError):
        LinearMap.placed(source, target, blocks)


def test_maps_and_modules_refuse_malformed_input():
    with pytest.raises(ValueError, match="different rings"):
        LinearMap(FreeModule(ZZ, 1), FreeModule(QQ, 1), {})
    with pytest.raises(ValueError, match="different rings"):
        LinearMap.zero(FreeModule(ZZ, 1), FreeModule(QQ, 1))
    for rank in BAD_RANKS:
        with pytest.raises(ValueError, match="rank must be an int >= 0"):
            FreeModule(ZZ, rank)


def test_solve_and_same_span_refuse_mismatched_operands():
    m = LinearMap.identity(FreeModule(ZZ, 2))
    b3 = LinearMap(FreeModule(ZZ, 1), FreeModule(ZZ, 3), {(0, 0): 1})
    bq = LinearMap(FreeModule(QQ, 1), FreeModule(QQ, 2), {(0, 0): 1})
    for b in (b3, bq):
        with pytest.raises(ValueError, match="solve: the right-hand side"):
            solve(m, b)
        with pytest.raises(ValueError, match="same_span: targets"):
            same_span(m, b)


def test_inverse_of_a_non_unit_raises():
    M, M2 = FreeModule(ZZ, 1), FreeModule(ZZ, 2)
    with pytest.raises(ValueError, match="map is not invertible"):
        LinearMap.from_rows(M, M, [[2]]).inverse()
    with pytest.raises(ValueError, match="map is not invertible"):
        LinearMap.from_rows(M2, M, [[1, 0]]).inverse()
    F = FreeModule(Zmod(5), 2)
    with pytest.raises(ValueError, match="map is not invertible"):
        LinearMap.from_rows(F, F, [[1, 2], [2, 4]]).inverse()
    f = LinearMap.from_rows(M2, M2, [[2, 1], [1, 1]])
    assert f.is_iso() and not LinearMap.from_rows(M2, M2, [[2, 0], [0, 1]]).is_iso()
    assert f @ f.inverse() == LinearMap.identity(M2)


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2 ** 32 - 1))
def test_compose_associativity(seed):
    rng = random.Random(seed)
    f = random_map(rng, ZZ, 2, 3, bound=3)
    g = random_map(rng, ZZ, 3, 2, bound=3)
    h = random_map(rng, ZZ, 2, 2, bound=3)
    assert compose(compose(f, g), h) == compose(f, compose(g, h))


# ---------------------------------------------------------------------------
# rref
# ---------------------------------------------------------------------------

# 4294967311 is the least prime above 2**32: products of two residues
# overflow 64-bit integers
RREF_RINGS = [QQ, F5, Zmod(2), Zmod(4294967311)]


def _rref_cases():
    for ring in RREF_RINGS:
        cases = {f"{rows}x{cols}": LinearMap.zero(FreeModule(ring, cols),
                                                  FreeModule(ring, rows))
                 for rows, cols in ((0, 3), (3, 0), (0, 0))}
        M = FreeModule(ring, 1)
        cases["1x1"] = LinearMap.from_rows(M, M, [[3]])
        bound = ring.p - 1 if ring.kind == "Zmod" else 4
        for density in (0, 0.5, 1):
            for seed in range(3):
                rng = random.Random(1000 * seed + int(10 * density))
                cases[f"6x8-d{density}-s{seed}"] = random_map(
                    rng, ring, 6, 8, density=density, bound=bound)
        for shape, m in cases.items():
            yield pytest.param(m, id=f"{ring.name()}-{shape}")


@pytest.mark.parametrize("m", _rref_cases())
def test_rref_is_a_reduced_echelon_form(m):
    ring = m.ring
    n, ncols = m.target.rank, m.source.rank
    R, T, pivots = exactlin.rref(m)
    r, t = R.to_rows(), T.to_rows()
    assert (R.target.rank, R.source.rank) == (n, ncols)
    assert (T.target.rank, T.source.rank) == (n, n)
    assert r == naive_matmul(t, m.to_rows(), ncols, ring)
    # reduced echelon: row k leads with 1 at pivots[k], each pivot column
    # is a unit vector, and the rows below the pivots are zero
    assert pivots == sorted(set(pivots)) and len(pivots) <= n
    for k, c in enumerate(pivots):
        assert r[k][c] == 1 and not any(r[k][:c])
        assert all(r[i][c] == 0 for i in range(n) if i != k)
    assert not any(any(row) for row in r[len(pivots):])
    assert len(pivots) == gauss_rank(m.to_rows(), ring)
    # T is invertible, by the textbook elimination above
    assert gauss_rank(t, ring) == n


def test_rref_over_Z_raises():
    # an explicit check, so it also holds under python -O
    M = FreeModule(ZZ, 2)
    with pytest.raises(ValueError, match="rref needs a field"):
        exactlin.rref(LinearMap.from_rows(M, M, [[2, 1], [4, 3]]))


def oracle_rref(m):
    """rref as it was before the sparse elimination: the dense Fraction
    row loop over Q and `_kernel.rref_mod` over Z/p, each carrying T
    along row by row; (R, T, pivots)."""
    ring = m.ring
    if ring.kind == "Zmod":
        rows, trans, pivots = _kernel.rref_mod(m.to_rows(), ring.p)
        if m.target.rank == 0:
            rows, trans = [], []
        R = (LinearMap.from_rows(m.source, m.target, rows) if rows
             else LinearMap.zero(m.source, m.target))
        T = (LinearMap.from_rows(m.target, m.target, trans) if trans
             else LinearMap.identity(m.target))
        return R, T, pivots
    n, mm = m.target.rank, m.source.rank
    r = m.to_rows()
    t = [[Fraction(1) if i == j else Fraction(0) for j in range(n)]
         for i in range(n)]
    pivots = []
    row = 0
    for col in range(mm):
        if row >= n:
            break
        piv = next((i for i in range(row, n) if r[i][col] != 0), None)
        if piv is None:
            continue
        r[row], r[piv] = r[piv], r[row]
        t[row], t[piv] = t[piv], t[row]
        prow, ptrow = r[row], t[row]
        rnz = [k for k, x in enumerate(prow) if x]
        tnz = [k for k, x in enumerate(ptrow) if x]
        c = prow[col]
        for k in rnz:
            prow[k] /= c
        for k in tnz:
            ptrow[k] /= c
        for i in range(n):
            if i != row and r[i][col] != 0:
                ri, ti = r[i], t[i]
                c = ri[col]
                for k in rnz:
                    ri[k] -= c * prow[k]
                for k in tnz:
                    ti[k] -= c * ptrow[k]
        pivots.append(col)
        row += 1
    R = LinearMap.from_rows(m.source, m.target, r)
    T = LinearMap.from_rows(m.target, m.target, t)
    return R, T, pivots


def _typed_set(m):
    return {k: (v, type(v)) for k, v in m.entries.items()}


def _field_draw(ring, rows, cols, inner, density, seed):
    """A random rows x cols map over a field: dense to empty by
    `density`, or, given `inner`, a product through rank inner, so
    rank-deficient when inner < min(rows, cols)."""
    rng = random.Random(seed)
    bound = min(ring.p - 1, 4) if ring.kind == "Zmod" else 4
    if inner is None:
        return random_map(rng, ring, rows, cols, density=density, bound=bound)
    return compose(random_map(rng, ring, rows, inner, bound=bound),
                   random_map(rng, ring, inner, cols, bound=bound))


FIELD_DRAW = (st.sampled_from(RREF_RINGS), st.integers(0, 7), st.integers(0, 7),
              st.one_of(st.none(), st.integers(0, 3)), st.floats(0, 1),
              st.integers(0, 2 ** 32 - 1))


@settings(max_examples=200, deadline=None)
@given(*FIELD_DRAW)
@example(QQ, 0, 4, None, 1.0, 0)
@example(F5, 4, 0, None, 1.0, 0)
@example(Zmod(2), 0, 0, None, 1.0, 0)
@example(Zmod(4294967311), 6, 7, 2, 1.0, 3)
@example(QQ, 7, 7, None, 0.0, 1)
def test_rref_matches_the_dense_oracle(ring, rows, cols, inner, density, seed):
    # R, T and the pivots are the dense loop's, entry for entry and of
    # the same value types, and T, replayed from the log, is built once
    m = _field_draw(ring, rows, cols, inner, density, seed)
    R0, T0, pivots0 = oracle_rref(m)
    ech = exactlin.rref(m)
    R, T, pivots = ech
    assert pivots == pivots0
    assert _typed_set(R) == _typed_set(R0)
    assert _typed_set(T) == _typed_set(T0)
    assert (R.source, R.target, T.source, T.target) == (
        R0.source, R0.target, T0.source, T0.target)
    assert ech.T is T


@settings(max_examples=120, deadline=None)
@given(*FIELD_DRAW)
@example(QQ, 0, 3, None, 1.0, 0)
@example(F5, 3, 0, None, 1.0, 0)
@example(Zmod(2), 6, 5, 1, 1.0, 2)
def test_field_smith_transforms_match_the_dense_oracle(ring, rows, cols,
                                                       inner, density, seed):
    # U is the old T and U^-1 the old T.inverse(), which checks itself
    # on both sides; U^-1 now comes from the log replayed in reverse
    m = _field_draw(ring, rows, cols, inner, density, seed)
    _, T0, _ = oracle_rref(m)
    sf = smith_normal_form(m)
    assert _typed_set(sf.U) == _typed_set(T0)
    assert _typed_set(sf.Uinv) == _typed_set(T0.inverse())


def test_field_kernel_rank_and_iso_build_no_transform(monkeypatch):
    # kernel, rank_of_image and is_iso read R and the pivots alone, and
    # solve replays the log on its right-hand side: none builds T
    built = []
    replayed = exactlin._replayed

    def counting(*args, **kw):
        built.append(args)
        return replayed(*args, **kw)

    monkeypatch.setattr(exactlin, "_replayed", counting)
    for ring in RREF_RINGS:
        rng = random.Random(5)
        m = random_map(rng, ring, 5, 5, bound=min(4, (ring.p or 5) - 1))
        kernel(m)
        m.rank_of_image()
        m.is_iso()
        solve(m, compose(m, random_map(rng, ring, 5, 2)))
    assert built == []


# ---------------------------------------------------------------------------
# smith normal form
# ---------------------------------------------------------------------------


def _snf_of_rows(rows, nrows, ncols):
    src, tgt = FreeModule(ZZ, ncols), FreeModule(ZZ, nrows)
    return smith_normal_form(LinearMap.from_rows(src, tgt, rows))


def test_snf_already_diagonal():
    assert _snf_of_rows([[2]], 1, 1).diagonal == (2,)


def test_snf_zero():
    assert _snf_of_rows([[0]], 1, 1).diagonal == (0,)


def test_snf_diag_2_3_gives_1_6():
    sf = _snf_of_rows([[2, 0], [0, 3]], 2, 2)
    assert sf.diagonal == (1, 6)


def _check_snf_instance(m):
    sf = smith_normal_form(m)
    lhs = compose(compose(sf.U, m), sf.V)
    D = {(i, i): d for i, d in enumerate(sf.diagonal) if d}
    assert lhs == LinearMap(sf.V.source, sf.U.target, D)
    assert det_bareiss(sf.U.to_rows()) in (1, -1)
    assert det_bareiss(sf.V.to_rows()) in (1, -1)
    diag = sf.diagonal
    for i in range(len(diag) - 1):
        if diag[i]:
            assert diag[i + 1] % diag[i] == 0
        else:
            assert diag[i + 1] == 0
    assert all(d >= 0 for d in diag)
    # recorded inverses really invert
    assert compose(sf.U, LinearMap(sf.Uinv.source, sf.U.source, sf.Uinv.entries)).entries == LinearMap.identity(sf.U.target).entries


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2 ** 32 - 1))
def test_snf_random_instances(seed):
    rng = random.Random(seed)
    m = random_map(rng, ZZ, rng.randint(0, 5), rng.randint(0, 5), bound=6)
    _check_snf_instance(m)


def test_snf_entry_growth_regression():
    # dense-ish matrix that blows up naive pivoting; smallest-pivot keeps
    # the computation in check and the answer exact
    rng = random.Random(99)
    m = random_map(rng, ZZ, 12, 12, density=0.9, bound=9)
    _check_snf_instance(m)


@st.composite
def _integer_smith_input(draw):
    """A Z matrix of shape 0..9 x 0..9, or a product of two such through
    a smaller rank (rank-deficient), with entries from one set, some of
    them heavy in common divisors so that the pivots leave a diagonal
    the divisibility-chain fix-up must repair."""
    entry = st.sampled_from(draw(st.sampled_from(
        [(0, 2, 3), (0, 4, 6, 9, -6), (0, 6, 10, 15), tuple(range(-4, 5))])))

    def matrix(r, c):
        return LinearMap.from_rows(
            FreeModule(ZZ, c), FreeModule(ZZ, r),
            [[draw(entry) for _ in range(c)] for _ in range(r)])

    rows, cols = draw(st.integers(0, 9)), draw(st.integers(0, 9))
    inner = draw(st.one_of(st.none(), st.integers(0, min(rows, cols))))
    if inner is None:
        return matrix(rows, cols)
    return matrix(rows, inner) @ matrix(inner, cols)


@settings(max_examples=250, deadline=None)
@given(_integer_smith_input())
@example(LinearMap.from_rows(FreeModule(ZZ, 2), FreeModule(ZZ, 2),
                             [[2, 0], [0, 3]]))
@example(LinearMap.from_rows(FreeModule(ZZ, 3), FreeModule(ZZ, 3),
                             [[4, 0, 0], [0, 6, 0], [0, 0, 9]]))
def test_integer_smith_form_matches_the_oracle(m):
    # the same operations in the same order: the same diagonal, and U,
    # V and U^-1 equal entry for entry in stored order
    sf, want = smith_normal_form(m), oracle_smith_integer(m)
    assert sf.diagonal == want.diagonal
    for name in ("U", "V", "Uinv"):
        assert list(getattr(sf, name).entries.items()) == \
            list(getattr(want, name).entries.items())


def _smith_draw(ring, rows, cols, inner, seed):
    """A random rows x cols map over ring; given `inner`, the product of
    two random maps through rank inner, rank-deficient when inner <
    min(rows, cols)."""
    rng = random.Random(seed)
    if inner is None:
        return random_map(rng, ring, rows, cols, density=rng.random())
    return compose(random_map(rng, ring, rows, inner, bound=2),
                   random_map(rng, ring, inner, cols, bound=2))


@settings(max_examples=80, deadline=None)
@given(st.sampled_from([ZZ, QQ, F5, Zmod(2)]), st.integers(0, 6),
       st.integers(0, 6), st.one_of(st.none(), st.integers(0, 3)),
       st.integers(0, 2 ** 32 - 1))
@example(ZZ, 0, 4, None, 0)
@example(ZZ, 4, 0, None, 0)
@example(QQ, 0, 3, None, 0)
@example(F5, 3, 0, None, 0)
@example(ZZ, 5, 6, 2, 1)
@example(Zmod(2), 6, 5, 1, 2)
def test_smith_transforms_are_built_on_read(ring, rows, cols, inner, seed):
    m = _smith_draw(ring, rows, cols, inner, seed)
    sf = smith_normal_form(m)
    # U m V is the diagonal, and U^-1 inverts U on both sides
    D = {(i, i): d for i, d in enumerate(sf.diagonal) if d}
    assert (sf.U @ m @ sf.V).entries == D
    assert (sf.U @ sf.Uinv).entries == {(i, i): 1 for i in range(rows)}
    assert (sf.Uinv @ sf.U).entries == {(i, i): 1 for i in range(rows)}
    # each transform is built once and kept
    assert sf.U is sf.U and sf.V is sf.V and sf.Uinv is sf.Uinv
    if ring != ZZ:
        return
    # the kernel is the saturated, Hermite-reduced basis of the nullspace
    K, incl = kernel(m)
    assert (m @ incl).is_zero()
    assert hnf_columns(incl).entries == incl.entries
    assert K.rank == cols - len([d for d in sf.diagonal if d])
    assert all(d == 1 for d in smith_normal_form(incl).diagonal)
    # solve finds x with m x = b exactly when b lies in the column span
    rng = random.Random(seed)
    solvable = compose(m, random_map(rng, ZZ, cols, 2))
    for b in (solvable, random_map(rng, ZZ, rows, 2)):
        x = solve(m, b)
        assert (x is not None) == same_span(m, hstack([m, b]))
        assert x is None or (m @ x).entries == b.entries
    assert solve(m, solvable) is not None


# ---------------------------------------------------------------------------
# kernel
# ---------------------------------------------------------------------------


def test_kernel_single_relation():
    M2, M1 = FreeModule(ZZ, 2), FreeModule(ZZ, 1)
    m = LinearMap.from_rows(M2, M1, [[1, 1]])
    K, incl = kernel(m)
    assert K.rank == 1
    assert incl.to_rows() == [[1], [-1]]


def test_kernel_identity():
    M = FreeModule(ZZ, 3)
    K, incl = kernel(LinearMap.identity(M))
    assert K.rank == 0


def test_kernel_rank_nullity_f5():
    rng = random.Random(7)
    F5 = Zmod(5)
    for _ in range(20):
        m = random_map(rng, F5, 4, 6)
        K, incl = kernel(m)
        r = gauss_rank(m.to_rows(), F5)
        assert K.rank == 6 - r
        assert compose(m, incl).is_zero()
        assert gauss_rank(incl.to_rows(), F5) == K.rank


def test_kernel_saturated_over_Z():
    # [[2, 2]] has rational kernel (1,-1); the lattice kernel must be the
    # saturated span, not 2*(1,-1)
    M2, M1 = FreeModule(ZZ, 2), FreeModule(ZZ, 1)
    m = LinearMap.from_rows(M2, M1, [[2, 2]])
    K, incl = kernel(m)
    assert incl.to_rows() == [[1], [-1]]


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2 ** 32 - 1))
def test_kernel_saturation_random(seed):
    # x in ker and k*x in lattice => x in lattice: verified by membership
    rng = random.Random(seed)
    m = random_map(rng, ZZ, rng.randint(1, 4), rng.randint(1, 5), bound=5)
    K, incl = kernel(m)
    assert compose(m, incl).is_zero()
    # saturation: any integer solution of m x = 0 must lie in the span
    for _ in range(5):
        coeffs = [rng.randint(-3, 3) for _ in range(K.rank)]
        vec = {}
        for j, c in enumerate(coeffs):
            for i, v in incl.column(j).items():
                vec[i] = vec.get(i, 0) + c * v
        src = FreeModule(ZZ, 1)
        target_vec = LinearMap(src, m.source, {(i, 0): v for i, v in vec.items()})
        assert solve(incl, target_vec) is not None


@pytest.mark.parametrize("ring", [ZZ, QQ, F5], ids=["Z", "Q", "F5"])
def test_coordinates_refuse_a_column_outside_the_span(ring):
    # over Z the basis vector (2, 1) spans a lattice that misses (1, 0),
    # whose substitution even divides inexactly; over a field the
    # reduced basis (3, 1) misses (0, 1) and (1, 0)
    M, L = FreeModule(ring, 2), FreeModule(ring, 1)
    col = [[2], [1]] if ring == ZZ else [[3], [1]]
    basis, pivots = _image_basis(LinearMap.from_rows(L, M, col))
    assert basis.entries == LinearMap.from_rows(L, M, col).entries
    assert pivots == exactlin._pivots(basis)
    for x in ([[1], [0]], [[0], [1]], [[1], [1]]):
        x = LinearMap.from_rows(L, M, x)
        for route in (exactlin._coordinates, oracle_coordinates):
            with pytest.raises(ValueError, match="not in the span"):
                route(basis, pivots, x)


# ---------------------------------------------------------------------------
# cokernel
# ---------------------------------------------------------------------------


def test_cokernel_times_two():
    M = FreeModule(ZZ, 1)
    pres = cokernel(LinearMap.from_rows(M, M, [[2]]))
    assert pres.presentation.free_rank == 0
    assert pres.presentation.invariant_factors == (2,)


def test_cokernel_zero_map():
    M0, M2 = FreeModule(ZZ, 0), FreeModule(ZZ, 2)
    pres = cokernel(LinearMap.zero(M0, M2))
    assert pres.presentation.free_rank == 2
    assert pres.presentation.invariant_factors == ()


def test_cokernel_diag_2_3():
    M = FreeModule(ZZ, 2)
    pres = cokernel(LinearMap.from_rows(M, M, [[2, 0], [0, 3]]))
    assert pres.presentation.free_rank == 0
    assert pres.presentation.invariant_factors == (6,)


def test_cokernel_field_dimension():
    rng = random.Random(11)
    F5 = Zmod(5)
    for _ in range(10):
        m = random_map(rng, F5, 4, 3)
        pres = cokernel(m)
        assert pres.presentation.free_rank == 4 - gauss_rank(m.to_rows(), F5)
        assert pres.presentation.invariant_factors == ()


def test_cokernel_projection_section():
    rng = random.Random(12)
    for _ in range(10):
        m = random_map(rng, ZZ, 4, 3, bound=4)
        pres = cokernel(m)
        assert compose(pres.proj, pres.section) == LinearMap.identity(pres.generators)
        # proj kills the image
        killed = pres.reduce_map(compose(pres.proj, m))
        assert killed.is_zero()


@st.composite
def _signed_graph_matrix(draw):
    """A ring and a matrix whose columns each hold zero, one or two
    entries, each +1 or -1: the incidence matrix of a signed graph with
    killed vertices, parallel edges and cycles of either balance."""
    ring = draw(st.sampled_from([ZZ, QQ, F5, Zmod(2)]))
    rows, cols = draw(st.integers(0, 7)), draw(st.integers(0, 10))
    entries = {}
    for j in range(cols):
        ends = draw(st.lists(st.integers(0, rows - 1), max_size=2,
                             unique=True)) if rows else []
        for i in ends:
            entries[(i, j)] = draw(st.sampled_from([1, -1]))
    return LinearMap(FreeModule(ring, cols),
                     FreeModule(ring, rows), entries)


def _incidence(ring, rows, cols):
    """The matrix with the listed columns, each {row: entry}."""
    return LinearMap(FreeModule(ring, len(cols)),
                     FreeModule(ring, rows),
                     {(i, j): v for j, col in enumerate(cols)
                      for i, v in col.items()})


@settings(max_examples=300, deadline=None)
@given(_signed_graph_matrix())
# an unbalanced triangle: Z/2 over Z, dead over a field of odd
# characteristic, and a free class over Z/2, where -1 = 1
@example(_incidence(ZZ, 3, [{0: 1, 1: 1}, {1: 1, 2: -1}, {0: 1, 2: -1}]))
@example(_incidence(F5, 3, [{0: 1, 1: 1}, {1: 1, 2: -1}, {0: 1, 2: -1}]))
@example(_incidence(Zmod(2), 3, [{0: 1, 1: 1}, {1: 1, 2: 1}, {0: 1, 2: 1}]))
# a balanced cycle, and an unbalanced pair of parallel edges whose class
# a killed vertex clears of its torsion
@example(_incidence(ZZ, 3, [{0: 1, 1: -1}, {1: 1, 2: -1}, {0: 1, 2: -1}]))
@example(_incidence(ZZ, 3, [{0: 1, 1: 1}, {0: 1, 1: -1}, {1: -1}, {}]))
# an unbalanced class joined to a class with a smaller root passes its
# torsion on
@example(_incidence(ZZ, 3, [{1: 1, 2: 1}, {1: 1, 2: -1}, {0: 1, 1: -1}]))
# two unbalanced classes: both torsion generators come first
@example(_incidence(ZZ, 5, [{0: 1, 1: 1}, {0: 1, 1: -1}, {3: 1, 4: 1},
                            {3: -1, 4: 1}]))
@example(_incidence(QQ, 0, [{}, {}]))
@example(_incidence(Zmod(2), 3, []))
def test_cokernel_signed_graph_front_end_matches_smith(m):
    fast = cokernel(m)
    slow = exactlin._smith_cokernel(m)
    assert exactlin._signed_graph(m) is not None
    assert fast.presentation == slow.presentation
    for pres in (fast, slow):
        assert pres.proj.source.rank == m.target.rank
        assert compose(pres.proj, pres.section) == \
            LinearMap.identity(pres.generators)
        assert pres.reduce_map(compose(pres.proj, m)).is_zero()
    # torsion generators first, as on the Smith path: generator k <
    # torsion_rank times its invariant factor lifts into the image of m
    one = FreeModule(m.ring, 1)
    for k, d in enumerate(fast.invariant_factors):
        lift = compose(fast.section,
                       LinearMap(one, fast.generators, {(k, 0): d}))
        assert solve(m, lift) is not None


def test_cokernel_front_end_refuses_other_matrices():
    # an entry other than +-1, or a third entry in a column, is not a
    # signed graph; Z/3 reads -2 as 1, so there it is one
    for ring, cols in ((ZZ, [{0: 2}]), (QQ, [{0: 1, 1: 1, 2: 1}]),
                       (F5, [{0: 2, 1: 1}])):
        m = _incidence(ring, 3, cols)
        assert exactlin._signed_graph(m) is None
        assert cokernel(m).presentation == exactlin._smith_cokernel(m).presentation
    assert exactlin._signed_graph(_incidence(Zmod(3), 1, [{0: -2}]))


def test_signed_graph_reads_units_against_the_ring():
    # +1 and -1 (p - 1 over Z/p) make edges; 1/2 over Q and 2 over Z/5
    # are units but not signs
    for ring, minus in ((QQ, Fraction(-1)), (ZZ, -1), (F5, 4)):
        m = _incidence(ring, 2, [{0: 1, 1: minus}, {0: minus, 1: minus},
                                 {1: minus}])
        assert exactlin._signed_graph(m) == ([(1, 1, 0), (1, -1, 0)], [1])
    for ring, bad in ((QQ, Fraction(1, 2)), (QQ, Fraction(-1, 2)),
                      (F5, 2), (F5, 3)):
        assert exactlin._signed_graph(_incidence(ring, 2, [{0: bad}])) \
            is None
        assert exactlin._signed_graph(
            _incidence(ring, 2, [{0: 1, 1: bad}])) is None


def test_signed_quotient_self_loop_and_killed_vertex():
    # e1 = -e1 is 2-torsion over Z; a killed vertex in the class clears
    # it, and over Q the class dies
    M = FreeModule(ZZ, 3)
    pres = signed_quotient(M, [(1, -1, 1), (2, 1, 0)])
    assert pres.presentation.free_rank == 1
    assert pres.invariant_factors == (2,)
    assert pres.generators == FreeModule(ZZ, 2)
    assert pres.section.entries == {(1, 0): 1, (0, 1): 1}
    killed = signed_quotient(M, [(1, -1, 1), (2, 1, 0)], killed=[1])
    assert killed.presentation.free_rank == 1
    assert killed.invariant_factors == ()
    over_q = signed_quotient(FreeModule(QQ, 3), [(1, -1, 1), (2, 1, 0)])
    assert over_q.presentation.free_rank == 1
    # over Z/2 the sign -1 is 1, so the self-loop relates nothing
    over_2 = signed_quotient(FreeModule(Zmod(2), 3), [(1, -1, 1), (2, 1, 0)])
    assert over_2.presentation.free_rank == 2


# ---------------------------------------------------------------------------
# coinvariants, as the cokernel of the stacked g - id
# ---------------------------------------------------------------------------


def coinvariants(module, mats):
    """module / <g x - x> for the listed action matrices."""
    ident = LinearMap.identity(module)
    rel = [g - ident for g in mats]
    return cokernel(hstack(rel + [LinearMap.zero(FreeModule(module.ring, 0),
                                                 module)]))


def test_coinvariants_swap():
    M = FreeModule(ZZ, 2)
    swap = LinearMap.from_rows(M, M, [[0, 1], [1, 0]])
    pres = coinvariants(M, [swap])
    assert pres.presentation.free_rank == 1
    assert pres.presentation.invariant_factors == ()
    # proj identifies e1 ~ e2
    assert pres.proj.column(0) == pres.proj.column(1)


def test_coinvariants_sign_action():
    M = FreeModule(ZZ, 1)
    sgn = LinearMap.from_rows(M, M, [[-1]])
    pres = coinvariants(M, [sgn])
    assert pres.presentation.free_rank == 0
    assert pres.presentation.invariant_factors == (2,)


def test_coinvariants_trivial_action():
    M = FreeModule(ZZ, 3)
    pres = coinvariants(M, [LinearMap.identity(M)])
    assert pres.proj == LinearMap(M, pres.generators,
                                  LinearMap.identity(M).entries)


def test_coinvariants_functoriality():
    # equivariant maps induce maps on coinvariants: symmetrize a random
    # map over the group, then check proj-compatibility
    rng = random.Random(13)
    M = FreeModule(ZZ, 3)
    cyc = LinearMap.from_rows(
        M, M, [[0, 0, 1], [1, 0, 0], [0, 1, 0]]
    )  # 3-cycle permuting the basis
    group = [LinearMap.identity(M), cyc, compose(cyc, cyc)]
    assert compose(cyc, group[2]) == group[0]
    for _ in range(5):
        h0 = random_map(rng, ZZ, 3, 3, bound=3)
        h = None
        for mat in group:
            term = compose(compose(mat, h0), mat.inverse())
            h = term if h is None else h + term
        # h is now equivariant: cyc h = h cyc
        assert compose(cyc, h) == compose(h, cyc)
        pres = coinvariants(M, [cyc])
        proj = pres.proj
        induced = compose(compose(proj, h), pres.section)
        lhs = pres.reduce_map(compose(induced, proj))
        rhs = pres.reduce_map(compose(proj, h))
        assert lhs == rhs


# ---------------------------------------------------------------------------
# pushout, through chain.pushout_complex in degree 0
# ---------------------------------------------------------------------------


def _degree0(m):
    """m as a chain map of complexes concentrated in degree 0."""
    return ChainMap(ChainComplex(m.ring, [m.source], []),
                    ChainComplex(m.ring, [m.target], []), [m])


def pushout(f, g):
    return pushout_complex(_degree0(f), _degree0(g))


def test_pushout_of_identities():
    M = FreeModule(ZZ, 2)
    po = pushout(LinearMap.identity(M), LinearMap.identity(M))
    assert po.complex.ranks() == (2,)


def test_pushout_coproduct():
    M0 = FreeModule(ZZ, 0)
    M, N = FreeModule(ZZ, 2), FreeModule(ZZ, 3)
    po = pushout(LinearMap.zero(M0, M), LinearMap.zero(M0, N))
    assert po.complex.ranks() == (5,)


def test_pushout_two_against_identity():
    M = FreeModule(ZZ, 1)
    two = LinearMap.from_rows(M, M, [[2]])
    po = pushout(two, LinearMap.identity(M))
    assert po.complex.ranks() == (1,)
    # direct quotient oracle: coker(f, -g) on stacked matrix
    stacked = vstack([two, -LinearMap.identity(M)])
    assert cokernel(stacked).presentation == exactlin.ModulePresentation(1)
    assert exactlin._smith_cokernel(stacked).presentation == \
        exactlin.ModulePresentation(1)


def test_pushout_universal_property_random():
    rng = random.Random(17)
    for _ in range(10):
        S = FreeModule(ZZ, 2)
        f = random_map(rng, ZZ, 3, 2, bound=3)
        g = random_map(rng, ZZ, 2, 2, bound=3)
        f = LinearMap(S, f.target, f.entries)
        g = LinearMap(S, g.target, g.entries)
        if not cokernel(vstack([f, -g])).is_free():
            # mediating into a free W needs a free pushout here, and
            # pushout_complex refuses the torsion
            with pytest.raises(ValueError, match="torsion"):
                pushout(f, g)
            continue
        po = pushout(f, g)
        # random cocone through a free module W: build u, v compatibly by
        # factoring through the pushout itself
        W = po.complex
        r = random_map(rng, ZZ, W.level(0).rank, W.level(0).rank, bound=2)
        r = ChainMap(W, W, [LinearMap(W.level(0), W.level(0), r.entries)])
        u = r @ po.inl
        v = r @ po.inr
        h = po.mediating(u, v)
        assert h == r  # uniqueness: any mediating map equals r


def test_json_roundtrip():
    rng = random.Random(19)
    for ring in (ZZ, QQ, Zmod(7)):
        m = random_map(rng, ring, 3, 4)
        data = matrix_to_json(m)
        m2 = matrix_from_json(data)
        assert m2.to_rows() == m.to_rows()
        assert m2.ring == ring


@pytest.mark.parametrize("entries, message", [
    ([[0, 0, "1/0"]], "denominator 0"),
    ([[0, 1, "-3/0"]], "denominator 0"),
    ([[0, 0, "1"], [0, 0, "2"]], "listed twice"),
    ([[1, 0, "1/2"], [0, 0, "1"], [1, 0, "1/2"]], "listed twice")])
def test_matrix_from_json_refuses_bad_entries(entries, message):
    data = {"ring": "Q", "rows": 2, "cols": 2, "entries": entries}
    with pytest.raises(ValueError, match=message):
        matrix_from_json(data)


@pytest.mark.parametrize("side", ["rows", "cols"])
@pytest.mark.parametrize("rank", BAD_RANKS)
def test_matrix_from_json_refuses_a_shape_that_is_not_a_rank(side, rank):
    # a negative count read as an empty side, True as 1
    data = {"ring": "Z", "rows": 2, "cols": 2, "entries": []}
    data[side] = rank
    with pytest.raises(ValueError, match="rank must be an int >= 0"):
        matrix_from_json(data)


@pytest.mark.parametrize("entry", [[0.5, 1, "3"], [True, 0, "1"],
                                   ["1", 0, "1"], [0, 1.0, "1"],
                                   [0, 0, 3], [0, 0, 1.5]],
                         ids=["half-row", "bool-row", "str-row", "float-col",
                              "int-value", "float-value"])
def test_matrix_from_json_refuses_an_entry_that_is_not_int_int_str(entry):
    # int() read [0.5, 1, "3"] at (0, 1), and True and "1" as row 1
    data = {"ring": "Z", "rows": 2, "cols": 2, "entries": [entry]}
    with pytest.raises(ValueError, match=r"is not \[int, int, str\]"):
        matrix_from_json(data)


@pytest.mark.parametrize("key", ["ring", "rows", "cols", "entries"])
def test_matrix_from_json_names_a_missing_key(key):
    data = matrix_to_json(LinearMap.identity(FreeModule(ZZ, 2)))
    del data[key]
    with pytest.raises(ValueError, match=f"needs the key '{key}'"):
        matrix_from_json(data)


def test_matrix_from_json_refuses_a_duplicate_over_every_ring():
    for ring in ("Z", "Zmod:5", "Zmod:2"):
        data = {"ring": ring, "rows": 1, "cols": 1,
                "entries": [[0, 0, "1"], [0, 0, "1"]]}
        with pytest.raises(ValueError, match="listed twice"):
            matrix_from_json(data)


def test_hnf_columns_is_the_reduced_hermite_basis_of_the_span():
    # spans compared through the Smith-form solver, not through hnf
    rng = random.Random(29)
    for t in range(40):
        rows, inner, cols = rng.randint(0, 12), rng.randint(0, 8), rng.randint(0, 16)
        m = compose(random_map(rng, ZZ, rows, inner, density=0.8),
                    random_map(rng, ZZ, inner, cols, density=0.8))
        h = hnf_columns(m)
        leads = [min(i for i, jj in h.entries if jj == j) for j in range(h.source.rank)]
        assert leads == sorted(set(leads))
        for k, r in enumerate(leads):
            assert h.entries[(r, k)] > 0
            assert all(0 <= h.entries.get((r, t), 0) < h.entries[(r, k)] for t in range(k))
        assert solve(h, m) is not None and solve(m, h) is not None


HNF_RINGS = [ZZ, QQ, F5, Zmod(2)]


def dense_idempotent(rng, ring, n):
    """U P U^-1 for a coordinate projection P and a unimodular U made of
    shears, so every entry is filled in while e . e = e."""
    M = FreeModule(ring, n)
    U, Uinv = LinearMap.identity(M), LinearMap.identity(M)
    for _ in range(3 * n):
        i, j = rng.randrange(n), rng.randrange(n)
        if i == j:
            continue
        c = rng.choice([-2, -1, 1, 2])
        e = {(t, t): 1 for t in range(n)}
        U = compose(LinearMap(M, M, {**e, (i, j): c}), U)
        Uinv = compose(Uinv, LinearMap(M, M, {**e, (i, j): -c}))
    keep = rng.sample(range(n), rng.randint(0, n))
    P = LinearMap(M, M, {(t, t): 1 for t in keep})
    return compose(U, compose(P, Uinv))


def hnf_input(rng, ring, kind):
    rows, cols = rng.randint(0, 10), rng.randint(0, 10)
    if kind == "sparse":
        return random_map(rng, ring, rows, cols, density=0.15)
    if kind == "dense":
        return random_map(rng, ring, rows, cols, density=0.95, bound=9)
    if kind == "deficient":
        inner = rng.randint(0, min(rows, cols))
        return compose(random_map(rng, ring, rows, inner, density=0.7),
                       random_map(rng, ring, inner, cols, density=0.7))
    if kind == "zero-columns":
        m = random_map(rng, ring, rows, cols, density=0.5)
        spread = sorted(rng.sample(range(2 * cols + 1), cols))
        return LinearMap(FreeModule(ring, 2 * cols + 1), m.target,
                         {(i, spread[j]): v for (i, j), v in m.entries.items()})
    return dense_idempotent(rng, ring, rng.randint(1, 9))


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(HNF_RINGS),
       st.sampled_from(["sparse", "dense", "deficient", "zero-columns",
                        "idempotent"]),
       st.integers(0, 2 ** 32 - 1))
def test_hnf_columns_matches_the_work_list_oracle(ring, kind, seed):
    m = hnf_input(random.Random(seed), ring, kind)
    got, want = hnf_columns(m), oracle_hnf_columns(m)
    assert got.source == want.source and got.target == m.target
    assert got.entries == want.entries
    # the same operations in the same order store the same entry order
    assert list(got.entries.items()) == list(want.entries.items())
    for v in got.entries.values():
        assert v == ring.normalize(v) and v


def test_hnf_columns_canonical_span():
    rng = random.Random(23)
    for _ in range(10):
        m = random_map(rng, ZZ, 4, 3, bound=4)
        h = hnf_columns(m)
        assert same_span(m, h)
        # canonical: recomputing from shuffled generating columns agrees
        cols = list(range(3))
        rng.shuffle(cols)
        entries = {}
        for newj, j in enumerate(cols):
            for i, v in m.column(j).items():
                entries[(i, newj)] = v
        m_shuf = LinearMap(FreeModule(ZZ, 3), m.target, entries)
        doubled = LinearMap(
            FreeModule(ZZ, 3),
            m.target,
            {(i, j): 1 * v for (i, j), v in m_shuf.entries.items()},
        )
        assert hnf_columns(doubled).entries == h.entries
