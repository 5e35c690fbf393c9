"""exactlin's own products, sums and blocks against the public constructor.

`LinearMap._canonical` stores an entry dict unchecked; exactlin's
arithmetic uses it on entries it has just made canonical.  The oracles
below are the routes those producers took before: the same raw entries,
in the same order, passed through the public `LinearMap(...)`, which
checks and normalizes every entry.  Each producer must give the same
ordered `entries.items()` with the same value types (an int over Z and
Z/p, a Fraction over Q), and passing its entries through the public
constructor once more must change nothing, so no stored value is zero,
out of range or of the wrong type.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from opdk.exactlin import (
    FreeModule,
    LinearMap,
    compose,
    hstack,
    vstack,
)
from opdk.rings import QQ, ZZ, Zmod

RINGS = [ZZ, QQ, Zmod(5), Zmod(2)]


# ---------------------------------------------------------------------------
# oracles: the producers' former routes through the public constructor
# ---------------------------------------------------------------------------


def _compose(f, g):
    g_cols, f_cols = {}, {}
    for (i, j), v in g.entries.items():
        g_cols.setdefault(j, []).append((i, v))
    for (i, j), v in f.entries.items():
        f_cols.setdefault(j, []).append((i, v))
    entries = {}
    for j, col in g_cols.items():
        acc = {}
        for t, w in col:
            for i, v in f_cols.get(t, ()):
                acc[i] = acc.get(i, 0) + v * w
        for i, v in acc.items():
            entries[(i, j)] = v
    return LinearMap(g.source, f.target, entries)


def _add(f, g):
    ring = f.ring
    entries = dict(f.entries)
    for k, v in g.entries.items():
        entries[k] = ring.add(entries.get(k, ring.zero), v)
    return LinearMap(f.source, f.target, entries)


def _scale(f, c):
    ring = f.ring
    c = ring.normalize(c)
    return LinearMap(f.source, f.target,
                     {k: ring.mul(c, v) for k, v in f.entries.items()})


def _tensor(f, g):
    ring = f.ring
    sb, tb = g.source.rank, g.target.rank
    entries = {}
    for (i, j), v in f.entries.items():
        for (k, l), w in g.entries.items():
            entries[(i * tb + k, j * sb + l)] = ring.mul(v, w)
    return LinearMap(FreeModule(ring, f.source.rank * sb),
                     FreeModule(ring, f.target.rank * tb), entries)


def _direct_sum(f, g):
    ring = f.ring
    entries = dict(f.entries)
    for (i, j), v in g.entries.items():
        entries[(i + f.target.rank, j + f.source.rank)] = v
    return LinearMap(FreeModule(ring, f.source.rank + g.source.rank),
                     FreeModule(ring, f.target.rank + g.target.rank), entries)


def _hstack(maps):
    entries, off = {}, 0
    for m in maps:
        for (i, j), v in m.entries.items():
            entries[(i, j + off)] = v
        off += m.source.rank
    src = FreeModule(maps[0].ring, off)
    return LinearMap(src, maps[0].target, entries)


def _vstack(maps):
    entries, off = {}, 0
    for m in maps:
        for (i, j), v in m.entries.items():
            entries[(i + off, j)] = v
        off += m.target.rank
    tgt = FreeModule(maps[0].ring, off)
    return LinearMap(maps[0].source, tgt, entries)


def _typed(m):
    return [(k, v, type(v)) for k, v in m.entries.items()]


def assert_same_canonical(got, want):
    """got holds want's entries in want's order with want's value types,
    and the public constructor leaves got's entries as they are."""
    assert got.source == want.source and got.target == want.target
    assert _typed(got) == _typed(want)
    again = LinearMap(got.source, got.target, got.entries)
    assert _typed(again) == _typed(got)
    assert all(v != 0 for v in got.entries.values())


# ---------------------------------------------------------------------------
# operands: canonical maps built through the public constructor
# ---------------------------------------------------------------------------


@st.composite
def raw_value(draw, ring):
    """A raw entry: out of [0, p) over Z/p, an int or a Fraction over Q,
    and zero now and then."""
    n = draw(st.integers(-6, 6))
    if ring is QQ and draw(st.booleans()):
        return Fraction(n, draw(st.integers(1, 4)))
    return n


@st.composite
def linear_map(draw, ring, rows, cols, src=None, tgt=None):
    """A map built from raw entries in a drawn insertion order."""
    cells = [(i, j) for i in range(rows) for j in range(cols)]
    cells = draw(st.permutations(cells))[:draw(st.integers(0, len(cells)))]
    entries = {k: draw(raw_value(ring)) for k in cells}
    src = src or FreeModule(ring, cols)
    tgt = tgt or FreeModule(ring, rows)
    return LinearMap(src, tgt, entries)


rings = st.sampled_from(RINGS)
ranks = st.integers(0, 3)


@st.composite
def cancelling_pair(draw):
    """(f, g) of one shape where g agrees with -f on some of f's entries,
    so f + g cancels there; and with f itself on others."""
    ring, r, c = draw(rings), draw(ranks), draw(ranks)
    f = draw(linear_map(ring, r, c))
    g = draw(linear_map(ring, r, c, f.source, f.target))
    entries = dict(g.entries)
    for k, v in f.entries.items():
        pick = draw(st.integers(0, 2))
        if pick == 1:
            entries[k] = -v
        elif pick == 2:
            entries[k] = v
    return f, LinearMap(f.source, f.target, entries)


@settings(max_examples=120, deadline=None)
@given(data=st.data())
def test_compose_matches_the_public_route(data):
    ring = data.draw(rings)
    a, b, c = (data.draw(ranks) for _ in range(3))
    g = data.draw(linear_map(ring, b, a))
    f = data.draw(linear_map(ring, c, b, src=g.target))
    assert_same_canonical(compose(f, g), _compose(f, g))
    assert_same_canonical(f @ g, _compose(f, g))


@settings(max_examples=120, deadline=None)
@given(pair=cancelling_pair())
def test_sums_match_the_public_route(pair):
    f, g = pair
    assert_same_canonical(f + g, _add(f, g))
    assert_same_canonical(f - g, _add(f, _scale(g, -1)))
    assert_same_canonical(g - f, _add(g, _scale(f, -1)))
    assert (f - f).entries == {}
    p = f.ring.p
    if p is not None:
        assert (f + f.scale(p - 1)).entries == {}
        assert_same_canonical(f + g.scale(p - 1), _add(f, _scale(g, p - 1)))


@settings(max_examples=120, deadline=None)
@given(data=st.data())
def test_scale_and_negation_match_the_public_route(data):
    ring = data.draw(rings)
    f = data.draw(linear_map(ring, data.draw(ranks), data.draw(ranks)))
    c = data.draw(raw_value(ring))
    assert_same_canonical(f.scale(c), _scale(f, c))
    assert_same_canonical(-f, _scale(f, -1))


@settings(max_examples=120, deadline=None)
@given(data=st.data())
def test_blocks_match_the_public_route(data):
    ring = data.draw(rings)
    f = data.draw(linear_map(ring, data.draw(ranks), data.draw(ranks)))
    g = data.draw(linear_map(ring, data.draw(ranks), data.draw(ranks)))
    assert_same_canonical(f.tensor(g), _tensor(f, g))
    assert_same_canonical(f.direct_sum(g), _direct_sum(f, g))
    assert_same_canonical(
        f.transpose(),
        LinearMap(f.target, f.source,
                  {(j, i): v for (i, j), v in f.entries.items()}))


@settings(max_examples=80, deadline=None)
@given(data=st.data())
def test_stacks_match_the_public_route(data):
    ring = data.draw(rings)
    r = data.draw(ranks)
    tgt = FreeModule(ring, r)
    row = [data.draw(linear_map(ring, r, data.draw(ranks), tgt=tgt))
           for _ in range(data.draw(st.integers(1, 3)))]
    assert_same_canonical(hstack(row), _hstack(row))
    src = FreeModule(ring, r)
    col = [data.draw(linear_map(ring, data.draw(ranks), r, src=src))
           for _ in range(data.draw(st.integers(1, 3)))]
    assert_same_canonical(vstack(col), _vstack(col))


@pytest.mark.parametrize("ring", RINGS, ids=lambda r: r.name())
@pytest.mark.parametrize("rank", [0, 1, 3])
def test_identity_and_zero_match_the_public_route(ring, rank):
    M, N = FreeModule(ring, rank), FreeModule(ring, 2)
    assert_same_canonical(
        LinearMap.identity(M),
        LinearMap(M, M, {(i, i): 1 for i in range(rank)}))
    assert_same_canonical(LinearMap.zero(M, N), LinearMap(M, N, {}))


@pytest.mark.parametrize("ring", RINGS, ids=lambda r: r.name())
def test_cancellations_store_no_zero(ring):
    M, N = FreeModule(ring, 2), FreeModule(ring, 3)
    f = LinearMap(M, N, {(2, 1): 3, (0, 0): -1, (1, 1): 1})
    assert (f - f).entries == {}
    assert (f + (-f)).entries == {}
    assert f.scale(0).entries == {}
    if ring.p is not None:
        assert (f + f.scale(ring.p - 1)).entries == {}
    # partial cancellation keeps the survivors in order
    g = LinearMap(M, N, {(0, 0): 1, (1, 0): 1})
    assert_same_canonical(f + g, _add(f, g))
    assert list((f + g).entries) == [(2, 1), (1, 1), (1, 0)]


@pytest.mark.parametrize("ring", RINGS, ids=lambda r: r.name())
def test_empty_operands_compose_to_the_zero_map(ring):
    A, B, C = FreeModule(ring, 2), FreeModule(ring, 3), FreeModule(ring, 0)
    f = LinearMap(B, A, {(0, 0): 1, (1, 2): 2})
    z = LinearMap.zero(A, B)
    assert_same_canonical(compose(f, z), LinearMap(A, A, {}))
    assert_same_canonical(compose(z, f), LinearMap(B, B, {}))
    to_c = LinearMap.zero(A, C)
    assert compose(to_c, f).shape == (0, 3)
    assert compose(LinearMap.zero(C, A), LinearMap.zero(B, C)).shape == (2, 3)
