"""Tensor products and their structure maps against hand-written loops.

The oracles below are the block loops the library used before: every
block of a chain tensor differential, tensor map or simplicial operator
is a `LinearMap.tensor` product, with `LinearMap.identity` standing in
for the identity factor, copied in at its offsets.  The library now
writes the same entries straight into one dict.  The chain braiding,
the chain associator and the simplicial swap come from the tensor
layouts (`chain._coherence`); their oracles are the block-offset loops
that wrote each basis vector's image by hand.  The oracles place
each entry at the position of its index tuple in the documented basis
order (`_oracle_basis`: summands p ascending, K_p's basis outer), and
the comparison is on the ordered entry lists, since rref and Smith
pivoting may read a map's entry order.  `_oracle_tensor_entries` is
the general body that `chain._tensor_entries` kept beside its strided
path, which expands both layouts and looks every row tuple up;
`tests/test_operad.py` compares the two.  `operad_check`, which builds
each structure map once per distinct value per call through
`operad._Replay`, is compared with the same replay building every map
afresh, and on an operad whose levels are all equal by value its
violations are pinned by hand.
"""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from opdk import chain, corpus, permutations, simp
from opdk import operad as op
from opdk.chain import tensor_blocks
from opdk.exactlin import FreeModule, LinearMap, _kron_entries
from opdk.rings import QQ, ZZ, Zmod

RINGS = [ZZ, QQ, Zmod(5), Zmod(2)]
X = "x"


def sig(n, color=X):
    return ((color,) * n, color)


# ---------------------------------------------------------------------------
# oracles: the Kronecker block route
# ---------------------------------------------------------------------------


def _kron(f, g):
    """The Kronecker product as `LinearMap.tensor` computed it, written
    out here so that the oracles do not go through `_kron_entries`."""
    ring = f.ring
    sb, tb = g.source.rank, g.target.rank
    entries = {}
    for (i, j), v in f.entries.items():
        for (k, l), w in g.entries.items():
            entries[(i * tb + k, j * sb + l)] = ring.mul(v, w)
    return LinearMap(FreeModule(ring, f.source.rank * sb),
                     FreeModule(ring, f.target.rank * tb), entries)


def _placed(ring, rows, cols, entries):
    """Entries as the route's final `LinearMap` normalized them."""
    m = LinearMap(FreeModule(ring, cols), FreeModule(ring, rows), entries)
    return list(m.entries.items())


def _oracle_blocks(K, L, n):
    """The summands (p, q) of (K (x) L)_n, p ascending."""
    return [(p, n - p)
            for p in range(max(0, n - L.max_degree), min(n, K.max_degree) + 1)]


def _oracle_basis(K, L, D):
    """The basis of (K (x) L)_n for n <= D as index tuples (p, a, b):
    summands p ascending, and in each the basis of K_p outer and that
    of L_q inner."""
    return [tuple((p, a, b) for p, q in _oracle_blocks(K, L, n)
                  for a in range(K.level(p).rank)
                  for b in range(L.level(q).rank))
            for n in range(D + 1)]


def _where(basis):
    return [{key: pos for pos, key in enumerate(b)} for b in basis]


def _oracle_tensor(K, L, bound):
    """(basis, differentials): each block of d_n is a `_kron` product,
    its row and column (a, b) read as a * rank + b and placed at the
    basis position of (p, a, b)."""
    ring = K.ring
    D = K.max_degree + L.max_degree
    if bound is not None:
        D = min(D, bound)
    basis = _oracle_basis(K, L, D)
    where = _where(basis)
    diffs = []
    for n in range(1, D + 1):
        entries = {}
        src, tgt = where[n], where[n - 1]
        for p, q in _oracle_blocks(K, L, n):
            rq = L.level(q).rank
            if p >= 1:
                blk = _kron(K.d(p), LinearMap.identity(L.level(q)))
                for (i, j), v in blk.entries.items():
                    entries[(tgt[(p - 1, *divmod(i, rq))],
                             src[(p, *divmod(j, rq))])] = v
            if q >= 1:
                blk = _kron(LinearMap.identity(K.level(p)), L.d(q))
                sign = ring.normalize(-1) if p % 2 else ring.one
                rt = L.level(q - 1).rank
                for (i, j), v in blk.entries.items():
                    key = (tgt[(p, *divmod(i, rt))], src[(p, *divmod(j, rq))])
                    entries[key] = ring.add(entries.get(key, ring.zero),
                                            ring.mul(sign, v))
        diffs.append(_placed(ring, len(basis[n - 1]), len(basis[n]),
                             {k: v for k, v in entries.items()
                              if v != ring.zero}))
    return basis, diffs


def _oracle_tensor_map(f, g, bound):
    src, _ = _oracle_tensor(f.source, g.source, bound)
    tgt, _ = _oracle_tensor(f.target, g.target, bound)
    comps = []
    for n, (s, t) in enumerate(zip(_where(src), _where(tgt))):
        entries = {}
        for p, q in _oracle_blocks(f.source, g.source, n):
            if (p, q) not in _oracle_blocks(f.target, g.target, n):
                continue
            rs, rt = g.source.level(q).rank, g.target.level(q).rank
            blk = _kron(f.component(p), g.component(q))
            for (i, j), v in blk.entries.items():
                entries[(t[(p, *divmod(i, rt))], s[(p, *divmod(j, rs))])] = v
        comps.append(_placed(f.source.ring, len(tgt[n]), len(src[n]), entries))
    return src, tgt, comps


def _oracle_tensor_entries(ring, base, maps, sigma, src_layout, tgt_layout):
    """`chain._tensor_entries` the slow way: both layouts are expanded
    by `chain._expand`, each source position's column is the product of
    the factor maps' columns at its indices, and each row tuple is
    looked up among the target positions."""
    one = ring.one
    columns = {}

    def column(slot, deg, idx):
        f = maps[slot]
        if f is None:
            return ((idx, one),)
        cols = columns.get((slot, deg))
        if cols is None:
            cols = columns[(slot, deg)] = {}
            for (r, c), v in f.component(deg).entries.items():
                cols.setdefault(c, []).append((r, v))
        return cols.get(idx, ())

    # relabeling tensor factors costs a sign only in the graded world;
    # the simplicial symmetry is plain
    graded = sigma is not None and base == "chain"
    signs, out = {}, []
    for src_boxes, tgt_boxes in zip(src_layout, tgt_layout):
        entries = {}
        tgt_index = {key: pos
                     for pos, key in enumerate(chain._expand(tgt_boxes))}
        for col, (degs, idxs) in enumerate(chain._expand(src_boxes)):
            if degs not in signs:
                signs[degs] = chain._koszul(ring, degs, sigma) if graded \
                    else one
            partial = [((), signs[degs])]
            for slot, (d, i) in enumerate(zip(degs, idxs)):
                partial = [(rows + (r,), v * w) for rows, v in partial
                           for r, w in column(slot, d, i)]
            if sigma is not None:
                degs = tuple(degs[j] for j in sigma)
            for rows, v in partial:
                if sigma is not None:
                    rows = tuple(rows[j] for j in sigma)
                entries[(tgt_index[(degs, rows)], col)] = v
        out.append(entries)
    return out


def _oracle_braiding(K, L, bound):
    """(p, i, j) of K (x) L goes to (q, j, i) of L (x) K with the sign
    (-1)^(pq)."""
    ring = K.ring
    src, _ = _oracle_tensor(K, L, bound)
    tgt = _where(_oracle_basis(L, K, len(src) - 1))
    comps = []
    for n in range(len(src)):
        entries = {}
        for col, (p, i, j) in enumerate(src[n]):
            q = n - p
            sign = ring.one if (p * q) % 2 == 0 else ring.normalize(-1)
            entries[(tgt[n][(q, j, i)], col)] = sign
        comps.append(_placed(ring, len(src[n]), len(src[n]), entries))
    return comps


def _oracle_swap(A, B):
    """A (x) B -> B (x) A for simplicial modules: the pair (i, j) at
    i * rank(B_n) + j goes to j * rank(A_n) + i, with no sign."""
    comps = []
    for n in range(min(A.max_degree, B.max_degree) + 1):
        ra, rb = A.level(n).rank, B.level(n).rank
        entries = {}
        for i in range(ra):
            for j in range(rb):
                entries[(j * ra + i, i * rb + j)] = A.ring.one
        comps.append(_placed(A.ring, ra * rb, ra * rb, entries))
    return comps


def _oracle_associator(K, L, M, bound):
    """The position-dictionary loop: every target basis vector
    (p, q, r, i, j, k) is looked up by its index tuple."""
    KL, LM = chain.tensor(K, L, bound), chain.tensor(L, M, bound)
    src, _ = _oracle_tensor(KL, M, bound)
    comps = []
    for n in range(len(src)):
        entries = {}
        tgt_pos = {}
        for p, t, off in tensor_blocks(K, LM, n):
            for q, r, ioff in tensor_blocks(L, M, t):
                rj, rk = L.level(q).rank, M.level(r).rank
                for i in range(K.level(p).rank):
                    for j in range(rj):
                        for k in range(rk):
                            tgt_pos[(p, q, r, i, j, k)] = (
                                off + i * LM.level(t).rank + ioff + j * rk + k)
        for s, r, off in tensor_blocks(KL, M, n):
            rm = M.level(r).rank
            for p, q, ioff in tensor_blocks(K, L, s):
                rj = L.level(q).rank
                for i in range(K.level(p).rank):
                    for j in range(rj):
                        for k in range(rm):
                            col = off + (ioff + i * rj + j) * rm + k
                            entries[(tgt_pos[(p, q, r, i, j, k)], col)] = \
                                K.ring.one
        comps.append(_placed(K.ring, len(src[n]), len(src[n]), entries))
    return comps


# ---------------------------------------------------------------------------
# cases
# ---------------------------------------------------------------------------


def chain_case(seed):
    """Random complexes of degree <= 3 and ranks <= 2 (rank-0 levels
    included), chain maps between same-degree pairs, and a bound below
    the degree sum."""
    rng = random.Random(seed)
    ring = RINGS[seed % len(RINGS)]
    K, L, M = (corpus.random_complex(rng, ring, rng.randint(0, 3), max_rank=2)
               for _ in range(3))
    K2 = corpus.random_complex(rng, ring, K.max_degree, max_rank=2)
    L2 = corpus.random_complex(rng, ring, L.max_degree, max_rank=2)
    f = corpus.random_chain_map(rng, K, K2)
    g = corpus.random_chain_map(rng, L, L2)
    total = K.max_degree + L.max_degree
    low = rng.randint(0, total - 1) if total else None
    return K, L, M, f, g, low


def simp_case(seed):
    rng = random.Random(seed)
    ring = RINGS[seed % len(RINGS)]
    D = rng.randint(0, 3)
    A, A2, B, B2 = (corpus.random_instance(rng, ring, D, max_rank=2)
                    for _ in range(4))
    f = corpus.random_simplicial_map(rng, A, A2)
    g = corpus.random_simplicial_map(rng, B, B2)
    return A.module, B.module, f, g


FIXED_CHAIN = range(1000, 1012)
FIXED_SIMP = range(2000, 2008)


def _items(maps):
    return [list(m.entries.items()) for m in maps]


def _check_chain_case(seed):
    K, L, M, f, g, low = chain_case(seed)
    bounds = [None] if low is None else [None, low]
    for bound in bounds:
        T = chain.tensor(K, L, bound)
        basis, diffs = _oracle_tensor(K, L, bound)
        assert T.ranks() == tuple(len(b) for b in basis)
        assert _items(T.differentials) == diffs

        tm = chain.tensor_map(f, g, bound)
        src, tgt, comps = _oracle_tensor_map(f, g, bound)
        assert tm.source.ranks() == tuple(len(b) for b in src)
        assert tm.target.ranks() == tuple(len(b) for b in tgt)
        assert _items(tm.components) == comps

        assert _items(chain.braiding(K, L, bound).components) == \
            _oracle_braiding(K, L, bound)
        assoc = chain.associator(K, L, M, bound)
        assert _items(assoc.components) == _oracle_associator(K, L, M, bound)


def _check_simp_case(seed):
    A, B, f, g = simp_case(seed)
    T = simp.tensor(A, B)
    assert T.ranks() == tuple(A.level(n).rank * B.level(n).rank
                              for n in range(T.max_degree + 1))
    for n in range(1, T.max_degree + 1):
        for i in range(n + 1):
            assert list(T.face(n, i).entries.items()) == \
                list(_kron(A.face(n, i), B.face(n, i)).entries.items())
    for n in range(T.max_degree):
        for i in range(n + 1):
            assert list(T.degeneracy(n, i).entries.items()) == \
                list(_kron(A.degeneracy(n, i),
                           B.degeneracy(n, i)).entries.items())
    tm = simp.tensor_map(f, g)
    assert _items(tm.components) == \
        [list(_kron(f.component(n), g.component(n)).entries.items())
         for n in range(T.max_degree + 1)]
    assert _items(simp.swap_map(A, B).components) == _oracle_swap(A, B)


def test_linear_map_tensor_is_the_kronecker_product():
    for seed in FIXED_SIMP:
        A, B, f, g = simp_case(seed)
        for n in range(A.max_degree + 1):
            a, b = f.component(n), g.component(n)
            t = a.tensor(b)
            assert list(t.entries.items()) == list(_kron(a, b).entries.items())
            assert t.source == FreeModule(a.ring,
                                          a.source.rank * b.source.rank)
            assert t.target == FreeModule(a.ring,
                                          a.target.rank * b.target.rank)


@pytest.mark.parametrize("seed", FIXED_CHAIN)
def test_chain_tensor_routes_fixed(seed):
    _check_chain_case(seed)


@pytest.mark.parametrize("seed", FIXED_SIMP)
def test_simp_tensor_routes_fixed(seed):
    _check_simp_case(seed)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2 ** 32 - 1))
def test_chain_tensor_matches_kronecker_route(seed):
    _check_chain_case(seed)


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2 ** 32 - 1))
def test_simp_tensor_matches_kronecker_route(seed):
    _check_simp_case(seed)


def _typed(entries):
    return [(k, v, type(v)) for k, v in entries.items()]


def _kron_block_components(f, g, bound):
    """f (x) g as the library placed it before both tensor maps went
    through `chain._tensor_entries`: each block from
    `exactlin._kron_entries`, in its order, at its offsets, the chain
    blocks by source summand, p ascending."""
    if isinstance(f, simp.SimplicialMap):
        return [_typed(_kron_entries(f.component(n), g.component(n)))
                for n in range(min(f.source.max_degree,
                                   g.source.max_degree) + 1)]
    T = chain.tensor(f.source, g.source, bound)
    out = []
    for n in range(T.max_degree + 1):
        entries = {}
        tgt_off = {(p, q): off
                   for p, q, off in tensor_blocks(f.target, g.target, n)}
        for p, q, off in tensor_blocks(f.source, g.source, n):
            to = tgt_off.get((p, q))
            if to is None:
                continue
            for (i, j), v in _kron_entries(f.component(p),
                                           g.component(q)).items():
                entries[(to + i, off + j)] = v
        out.append(_typed(entries))
    return out


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2 ** 32 - 1))
def test_tensor_maps_are_the_kronecker_blocks_in_order(seed):
    """chain.tensor_map and simp.tensor_map hold the blockwise
    `_kron_entries` entries, value types and order included, at every
    bound: the two-factor layouts place f's entries outer and g's
    inner."""
    K, L, M, f, g, low = chain_case(seed)
    d = K.max_degree
    for bound in (None, low, d, d + 1, 2 * d):
        tm = chain.tensor_map(f, g, bound)
        assert [_typed(c.entries) for c in tm.components] == \
            _kron_block_components(f, g, bound)
    A, B, f, g = simp_case(seed)
    tm = simp.tensor_map(f, g)
    assert [_typed(c.entries) for c in tm.components] == \
        _kron_block_components(f, g, None)


def test_fixed_cases_reach_odd_degrees_rank_zero_and_every_ring():
    odd = zero = 0
    rings = set()
    for seed in FIXED_CHAIN:
        K, L, M, f, g, low = chain_case(seed)
        rings.add(K.ring)
        # the sign (-1)^p of 1 (x) d_L shows at a nonzero odd-degree K_p
        odd += any(K.level(p).rank for p in range(1, K.max_degree + 1, 2)) \
            and any(d.entries for d in L.differentials)
        zero += 0 in K.ranks() + L.ranks()
    assert rings == set(RINGS) and odd and zero


# ---------------------------------------------------------------------------
# over Q: a factor +1 or -1 passes the other through, with no product
# ---------------------------------------------------------------------------


SIGNS_AND_OTHERS = (Fraction(1), Fraction(-1), Fraction(3, 2), Fraction(-2))
FIXED_Q = range(3000, 3008)


def _scaled(f, rng):
    """f times a scalar drawn from SIGNS_AND_OTHERS: a chain or
    simplicial map again."""
    c = rng.choice(SIGNS_AND_OTHERS)
    return type(f)(f.source, f.target, [m.scale(c) for m in f.components])


def _rediagonalized(A, rng):
    """A carried along a diagonal automorphism of each level with entries
    drawn from SIGNS_AND_OTHERS, so that its faces and degeneracies hold
    signs beside other entries."""
    return corpus.conjugate(A, [
        LinearMap(M, M, {(i, i): rng.choice(SIGNS_AND_OTHERS)
                         for i in range(M.rank)}) for M in A.levels])


def q_case(seed):
    """Simplicial modules A, B over Q and simplicial maps f, g between
    others; chain complexes K, L over Q and chain maps fc, gc out of
    them; the maps scaled and the modules rediagonalized so that their
    entries mix +1 and -1 with 3/2, -2 and their quotients."""
    rng = random.Random(seed)
    D = rng.randint(1, 3)
    A, A2, B, B2 = (corpus.random_instance(rng, QQ, D, max_rank=2)
                    for _ in range(4))
    f = _scaled(corpus.random_simplicial_map(rng, A, A2), rng)
    g = _scaled(corpus.random_simplicial_map(rng, B, B2), rng)
    A, B = (_rediagonalized(X.module, rng) for X in (A, B))
    dk, dl = rng.randint(0, 3), rng.randint(0, 3)
    K, K2 = (corpus.random_complex(rng, QQ, dk, max_rank=2) for _ in range(2))
    L, L2 = (corpus.random_complex(rng, QQ, dl, max_rank=2) for _ in range(2))
    fc = _scaled(corpus.random_chain_map(rng, K, K2), rng)
    gc = _scaled(corpus.random_chain_map(rng, L, L2), rng)
    return A, B, f, g, K, L, fc, gc


def _simplicial_operators(A):
    return [A.face(n, i) for n in range(1, A.max_degree + 1)
            for i in range(n + 1)] + \
        [A.degeneracy(n, i) for n in range(A.max_degree) for i in range(n + 1)]


@pytest.mark.parametrize("seed", FIXED_Q)
def test_q_tensors_match_the_plain_product(seed):
    """Over Q, where `chain._tensor_entries` passes a factor +1 or -1
    through with `exactlin._q_mul`: LinearMap.tensor, simp.tensor,
    simp.tensor_map, chain.tensor_map and chain.braiding store the
    ordered entries and value types of the plain-product route, one
    `ring.mul` per pair (`_kron` and the block oracles)."""
    A, B, f, g, K, L, fc, gc = q_case(seed)
    T = simp.tensor(A, B)
    for a, b, t in zip(_simplicial_operators(A), _simplicial_operators(B),
                       _simplicial_operators(T)):
        want = _typed(_kron(a, b).entries)
        assert _typed(t.entries) == want
        assert _typed(a.tensor(b).entries) == want
    assert [_typed(c.entries) for c in simp.tensor_map(f, g).components] == \
        [_typed(_kron(f.component(n), g.component(n)).entries)
         for n in range(min(f.source.max_degree, g.source.max_degree) + 1)]
    for bound in (None, K.max_degree):
        _, _, comps = _oracle_tensor_map(fc, gc, bound)
        assert [_typed(c.entries)
                for c in chain.tensor_map(fc, gc, bound).components] == \
            [[(k, v, type(v)) for k, v in c] for c in comps]
        assert [_typed(c.entries)
                for c in chain.braiding(K, L, bound).components] == \
            [[(k, v, type(v)) for k, v in c]
             for c in _oracle_braiding(K, L, bound)]


def test_q_cases_hold_signs_beside_other_entries():
    # each product route meets a factor +1 or -1 and a factor that is not
    signs, others = set(), set()
    for seed in FIXED_Q:
        A, B, f, g, K, L, fc, gc = q_case(seed)
        for route, maps in (("simp", _simplicial_operators(A)),
                            ("map", list(f.components) + list(fc.components))):
            for m in maps:
                for v in m.entries.values():
                    (signs if v in (1, -1) else others).add(route)
    assert signs == others == {"simp", "map"}


# ---------------------------------------------------------------------------
# operad_check: one build per structure map, the same verdicts
# ---------------------------------------------------------------------------


def _corrupt_composition():
    P = op.associative_operad(ZZ, "chain", 3, 0)
    key = (sig(2), 0, sig(2))
    f = P.compositions[key]
    bad = dict(f.component(0).entries)
    (r, c), v = next(iter(bad.items()))
    bad[(r, c)] = v + 1
    comps = [LinearMap(f.component(0).source, f.component(0).target, bad)]
    P.compositions[key] = P.ops.make_map(f.source, f.target, comps)
    return P


def _non_simplicial_composition():
    F5 = Zmod(5)
    P = op.associative_operad(F5, "simplicial", 2, 2)
    key = (sig(2), 0, sig(1))
    f = P.composition(*key)
    comps = list(f.components)
    top = dict(comps[-1].entries)
    top[(0, 0)] = F5.add(top.get((0, 0), F5.zero), F5.one)
    comps[-1] = LinearMap(comps[-1].source, comps[-1].target, top)
    P.compositions[key] = P.ops.make_map(f.source, f.target, comps)
    return P


def _scaled_composition():
    # graded, and every law replays: the composition is a chain map
    P = op.associative_operad(QQ, "chain", 3, 1)
    key = (sig(2), 1, sig(2))
    f = P.compositions[key]
    P.compositions[key] = P.ops.make_map(f.source, f.target,
                                         [c.scale(2) for c in f.components])
    return P


BROKEN = {
    "corrupt-composition": (_corrupt_composition, 3),
    "non-simplicial": (_non_simplicial_composition, 1),
    "scaled-composition": (_scaled_composition, 2),
}

F5 = Zmod(5)
CORPUS = {
    "assoc-chain": lambda: op.associative_operad(ZZ, "chain", 3, 0),
    "assoc-simplicial": lambda: op.associative_operad(ZZ, "simplicial", 3, 2),
    "indiscrete-acyclic": lambda: corpus.indiscrete_operad(
        F5, "simplicial", 2, disk=corpus.acyclic_disk(F5, 2)),
    "disconnected": lambda: corpus.disconnected_operad(
        F5, "simplicial", 2, disk=corpus.acyclic_disk(F5, 2)),
    "scaled-pair": lambda: corpus.scaled_pair_operad(ZZ, 4),
    "nilpotent": lambda: corpus.nilpotent_two_color_operad(ZZ, 1),
    "normalized-assoc": lambda: op.associative_operad(
        ZZ, "simplicial", 3, 2),
}


def _unmemoized(monkeypatch):
    """Make `_Replay` build every structure map afresh, as the checker
    did before it kept them."""
    monkeypatch.setattr(op._Replay, "_once",
                        lambda self, key, inputs, build: build())


@pytest.mark.parametrize("name", sorted(BROKEN))
def test_operad_check_memo_keeps_the_violations(monkeypatch, name):
    make, count = BROKEN[name]
    got = op.operad_check(make())
    assert len(got) == count
    _unmemoized(monkeypatch)
    assert op.operad_check(make()) == got


@pytest.mark.parametrize("name", sorted(CORPUS))
def test_operad_check_memo_passes_the_corpus(monkeypatch, name):
    P = CORPUS[name]()
    if name == "normalized-assoc":
        from opdk.doldkan import normalize_operad
        P = normalize_operad(P)
    assert op.operad_check(P) == []
    _unmemoized(monkeypatch)
    assert op.operad_check(P) == []


def test_operad_check_builds_each_tensor_once_per_call(monkeypatch):
    # every chain tensor the replay asks for has distinct inputs, and a
    # second call builds exactly as many again: nothing is kept between
    # calls
    P = _scaled_composition()
    real = chain.tensor
    seen = []

    def counting(K, L, bound=None):
        seen.append((id(K), id(L)))
        return real(K, L, bound)

    monkeypatch.setattr(chain, "tensor", counting)
    first = op.operad_check(P)
    n_first = len(seen)
    assert n_first and len(set(seen)) == n_first
    assert op.operad_check(P) == first
    assert len(seen) == 2 * n_first


def _commutative_operad(base, D):
    """Com over Z up to arity 3: every level is the unit object, built
    apart but equal by value, every action generator and composition
    the identity entry."""
    ops = op._ops_for(base, ZZ, D)
    levels = {sig(n): ops.unit_obj() for n in (1, 2, 3)}
    actions = {sig(n): {s: ops.identity(levels[sig(n)])
                        for s in permutations.transpositions(n)}
               for n in (1, 2, 3)}
    coll = op.Collection(ZZ, base, (X,), 3, D, levels, actions)
    comps = {}
    for k in (1, 2, 3):
        for m in range(1, 4 - k + 1):
            for i in range(k):
                src = ops.tensor(levels[sig(k)], levels[sig(m)])
                tgt = levels[sig(k + m - 1)]
                comps[(sig(k), i, sig(m))] = ops.make_map(src, tgt, [
                    LinearMap(src.level(n), tgt.level(n),
                              {(0, 0): 1} if tgt.level(n).rank else {})
                    for n in range(D + 1)])
    return op.Operad(coll, {X: ops.identity(levels[sig(1)])}, comps)


# Com with the composition (x; x, x) o_1 (x; x) scaled by 2.  Every law
# instance compares products of the scalars 1 and 2, so it fails where
# the two sides use the scaled composition a different number of times:
# the right unit law at slot 1 of arity 2; sequential associativity
# through (2, 1, 1) with z of arity 1 and 2, through (2, 0, 2) and
# (2, 1, 2) at j = 1, and parallel associativity through (2, 0, 2) with
# z of arity 1 in slot 1; outer equivariance of (2, i, 1), where the
# swap trades slot 0 for slot 1.  Inner equivariance reads one
# composition on both sides.
S1, S2 = sig(1), sig(2)
SWAP = (1, 0)
SCALED_COMPOSITION = [
    ("unit-right", S2, 1),
    ("assoc-seq", S2, 1, S1, 0, S1),
    ("assoc-seq", S2, 1, S1, 0, S2),
    ("assoc-seq", S2, 0, S2, 1, S1),
    ("assoc-par", S2, 0, 1, S2, S1),
    ("assoc-seq", S2, 1, S2, 1, S1),
    ("equiv-outer", S2, 0, S1, SWAP),
    ("equiv-outer", S2, 1, S1, SWAP),
]
# Com with the action generator at arity 2 negated: still an action,
# since (-1)^2 = 1, and the laws that read it on one side only fail,
# outer and inner equivariance of (2, i, 2), whose graft, of arity 3,
# keeps the identity action; those of (1, 0, 2) and (2, i, 1) land in
# arity 2 and read the sign on both sides.
NEGATED_ACTION = [
    ("equiv-outer", S2, 0, S2, SWAP),
    ("equiv-inner", S2, 0, S2, SWAP),
    ("equiv-outer", S2, 1, S2, SWAP),
    ("equiv-inner", S2, 1, S2, SWAP),
]


@pytest.mark.parametrize("base, D", [("chain", 1), ("simplicial", 1)])
def test_operad_check_finds_single_faults_among_equal_levels(
        monkeypatch, base, D):
    """Levels equal by value share every tensor of the replay, and one
    corrupted composition or action generator still gives exactly the
    violations derived by hand, as it does with no memo."""
    assert op.operad_check(_commutative_operad(base, D)) == []

    def scaled():
        P = _commutative_operad(base, D)
        key = (S2, 1, S1)
        f = P.compositions[key]
        P.compositions[key] = P.ops.make_map(
            f.source, f.target, [c.scale(2) for c in f.components])
        return P

    def negated():
        P = _commutative_operad(base, D)
        g = P.collection.action(S2, SWAP)
        P.collection.actions[S2][SWAP] = P.ops.make_map(
            g.source, g.target, [-c for c in g.components])
        return P

    assert op.operad_check(scaled()) == SCALED_COMPOSITION
    assert op.operad_check(negated()) == NEGATED_ACTION
    _unmemoized(monkeypatch)
    assert op.operad_check(scaled()) == SCALED_COMPOSITION
    assert op.operad_check(negated()) == NEGATED_ACTION


def test_operad_check_builds_each_distinct_tensor_once(monkeypatch):
    # the four levels of the normalized indiscrete operad are one
    # complex, so its law replay builds 5 chain tensors: N (x) N, the
    # unit with N on either side, and (N (x) N) (x) N and N (x) (N (x) N)
    # for the associators; keyed by identity it built 88
    from opdk.doldkan import normalize_operad
    F5 = Zmod(5)
    Q = normalize_operad(corpus.indiscrete_operad(
        F5, "simplicial", 2, disk=corpus.acyclic_disk(F5, 2)))
    real = chain.tensor
    seen = []

    def counting(K, L, bound=None):
        seen.append((K, L))
        return real(K, L, bound)

    monkeypatch.setattr(chain, "tensor", counting)
    assert op.operad_check(Q) == []
    assert len(seen) == 5
    assert all(seen[a] != seen[b] for a in range(5) for b in range(a))
