"""Normalization, its inverse, and the Eilenberg-Zilber comparison maps.

Oracle strategy: kernel ranks come from an independent Fraction-based
elimination; `normalize` and the corestrictions through its projection
are compared entry for entry with the kernel route, which splits each
level by a kernel basis, `solve` and an inverse; the structure rule of
the inverse construction is pinned by hand-computed face matrices at
low degree and by the counit being simplicial (checked at
construction); AW and shuffle formulas are
compared against matrices assembled directly from stored face and
degeneracy tables.  Random instances come from the seeded corpus.
"""

import random
from fractions import Fraction
from itertools import product as iproduct
from math import factorial

import pytest
from hypothesis import given, settings, strategies as st

from opdk import corpus, permutations
from opdk import operad as op
from opdk.chain import (
    ChainComplex,
    ChainMap,
    braiding,
    concentrated,
    homology,
    homology_map,
    is_quasi_iso,
    tensor_blocks,
    tensor_map,
    two_term,
)
from opdk.chain import direct_sum as chain_direct_sum
from opdk.chain import tensor as chain_tensor
from opdk.doldkan import (
    Normalization,
    _gamma_action,
    _idempotent,
    _shuffle_entries,
    _surjection_index,
    aw,
    counit,
    gamma,
    gamma_map,
    gamma_oplax,
    gamma_summands,
    normalize,
    normalize_map,
    normalize_operad_data,
    shuffle,
)
from opdk.exactlin import (
    FreeModule,
    LinearMap,
    _coordinates,
    _image_basis,
    compose,
    hnf_columns,
    hstack,
    kernel,
    solve,
    vstack,
)
from opdk.rings import QQ, ZZ, Zmod
from test_exactlin import oracle_coordinates, oracle_hnf_columns
from test_simp import replace_degeneracy, replace_face
from opdk.simp import (
    SimplicialMap,
    SimplicialModule,
    compose_monotone,
    constant_module,
    delta,
    monotone_surjections,
    moore_complex,
    sigma,
    simplicial_operator,
    standard_simplex,
    swap_map,
    validate,
)
from opdk.simp import direct_sum as simp_direct_sum
from opdk.simp import tensor as simp_tensor
from opdk.simp import tensor_map as simp_tensor_map

F5 = Zmod(5)


# -- oracles ----------------------------------------------------------------


def fraction_nullity(rows, cols: int) -> int:
    """Kernel dimension over Q by textbook elimination; for saturated
    integer kernels this equals the rank of the kernel lattice."""
    rows = [[Fraction(v) for v in r] for r in rows]
    rank = 0
    for c in range(cols):
        piv = next((i for i in range(rank, len(rows)) if rows[i][c]), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        pv = rows[rank][c]
        rows[rank] = [v / pv for v in rows[rank]]
        for i in range(len(rows)):
            if i != rank and rows[i][c]:
                f = rows[i][c]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[rank])]
        rank += 1
    return cols - rank


def stacked_face_rows(A, n):
    out = []
    for i in range(1, n + 1):
        out.extend(A.face(n, i).to_rows())
    return out


def _normalize_by_kernels(A):
    """The general route to N(A): a kernel basis of the stacked faces,
    differentials solved for, and the projection read from the inverse
    of the change of basis to kernel (+) degenerate image."""
    ring = A.ring
    D = A.max_degree
    moore = moore_complex(A)
    incls = [LinearMap.identity(A.level(0))]
    for n in range(1, D + 1):
        _, incl = kernel(vstack([A.face(n, i) for i in range(1, n + 1)]))
        incls.append(incl)
    levels = [f.source for f in incls]
    diffs = []
    for n in range(1, D + 1):
        d = solve(incls[n - 1], compose(A.face(n, 0), incls[n]))
        assert d is not None, "d_0 does not preserve the face kernels"
        diffs.append(d)
    N = ChainComplex(ring, levels, diffs)
    projs = [LinearMap.identity(A.level(0))]
    for n in range(1, D + 1):
        degim = hnf_columns(hstack([A.degeneracy(n - 1, i) for i in range(n)]))
        change = hstack([incls[n], degim])
        assert change.is_iso(), "kernel and degenerate part do not split the level"
        # the rows of the inverse that give the kernel coordinates
        projs.append(LinearMap(A.level(n), levels[n], {
            (i, j): v for (i, j), v in change.inverse().entries.items()
            if i < levels[n].rank}))
    return Normalization(N, moore, ChainMap(N, moore, incls),
                         ChainMap(moore, N, projs))


def assert_same_normalization(got, want):
    assert got.complex == want.complex
    assert got.moore == want.moore
    for n in range(want.complex.max_degree + 1):
        assert got.incl.component(n).entries == want.incl.component(n).entries
        assert got.proj.component(n).entries == want.proj.component(n).entries


def assert_same_chain_map(got, want):
    assert got.source.ranks() == want.source.ranks()
    assert got.target.ranks() == want.target.ranks()
    for n in range(want.source.max_degree + 1):
        assert got.component(n).entries == want.component(n).entries


def _oracle_idempotent(A, n):
    """p_n as the product of its factors, each a sparse product of
    whole matrices: p = p - s_i d_{i+1} p for i = n-1 down to 0."""
    p = LinearMap.identity(A.level(n))
    for i in range(n - 1, -1, -1):
        p = p - compose(A.degeneracy(n - 1, i), compose(A.face(n, i + 1), p))
    return p


def _every_factor_idempotent(A, n):
    """`_idempotent` with every factor's degeneracy step and filter run
    on every column, also where the face misses the vector: the same
    entries in the same order, with the same value types."""
    ring, mod = A.ring, A.ring.p

    def by_column(m):
        cols = {}
        for (i, j), v in m.entries.items():
            cols.setdefault(j, []).append((i, v))
        return cols

    factors = [(by_column(A.face(n, i + 1)), by_column(A.degeneracy(n - 1, i)))
               for i in range(n - 1, -1, -1)]
    entries = {}
    for j in range(A.level(n).rank):
        vec = {j: ring.one}
        for face, degeneracy in factors:
            dv = {}
            for t, x in vec.items():
                for r, y in face.get(t, ()):
                    dv[r] = dv[r] + x * y if r in dv else x * y
            for t, x in dv.items():
                for r, y in degeneracy.get(t, ()):
                    vec[r] = vec[r] - x * y if r in vec else -x * y
            vec = {r: x if mod is None else x % mod for r, x in vec.items()
                   if (x if mod is None else x % mod)}
            if not vec:
                break
        for r, x in vec.items():
            entries[(r, j)] = x
    return LinearMap(A.level(n), A.level(n), entries)


def _oracle_image_basis(p):
    """`_image_basis` on the work-list Hermite form."""
    ring, R = p.ring, p.target.rank
    flip = ring.is_field
    if flip:
        p = LinearMap(p.source, p.target,
                      {(R - 1 - i, j): v for (i, j), v in p.entries.items()})
    h = oracle_hnf_columns(p)
    r = h.source.rank
    pivots = [R] * r
    for i, j in h.entries:
        pivots[j] = min(pivots[j], i)
    entries = h.entries
    if flip:
        entries = {(R - 1 - i, r - 1 - j): v for (i, j), v in entries.items()}
        pivots = [R - 1 - i for i in reversed(pivots)]
    return LinearMap(FreeModule(ring, r), p.target, entries), pivots


def _oracle_normalize(A):
    """`normalize` on the whole-matrix idempotent, the work-list Hermite
    form and substitution over every pivot row, with the same checks."""
    ring, D = A.ring, A.max_degree
    ident = LinearMap.identity(A.level(0))
    incls, projs = [ident], [ident]
    for n in range(1, D + 1):
        p = _oracle_idempotent(A, n)
        incl, pivots = _oracle_image_basis(p)
        proj = oracle_coordinates(incl, pivots, p)
        for i in range(1, n + 1):
            if not compose(A.face(n, i), incl).is_zero():
                raise ValueError("not a simplicial module")
        for j in range(n):
            if not compose(proj, A.degeneracy(n - 1, j)).is_zero():
                raise ValueError("not a simplicial module")
        if compose(p, incl).entries != incl.entries:
            raise ValueError("not a simplicial module")
        incls.append(incl)
        projs.append(proj)
    levels = [f.source for f in incls]
    N = ChainComplex(ring, levels, [
        compose(projs[n - 1], compose(A.face(n, 0), incls[n]))
        for n in range(1, D + 1)])
    moore = moore_complex(A)
    return Normalization(N, moore, ChainMap(N, moore, incls),
                         ChainMap(moore, N, projs))


# -- normalization ----------------------------------------------------------


def test_normalize_constant_module():
    nz = normalize(constant_module(ZZ, 3))
    assert nz.complex.ranks() == (1, 0, 0, 0)
    assert nz.moore.ranks() == (1, 1, 1, 1)
    assert nz.incl.component(0) == LinearMap.identity(nz.complex.level(0))


def test_normalize_interval_against_elimination():
    A = standard_simplex(1, ZZ, 2)
    nz = normalize(A)
    expected = tuple(
        fraction_nullity(stacked_face_rows(A, n), A.level(n).rank) if n else A.level(0).rank
        for n in range(3))
    assert expected == (2, 1, 0)
    assert nz.complex.ranks() == expected
    h0 = homology(nz.complex, 0)
    assert h0.rank == 1 and not h0.invariant_factors
    assert homology(nz.complex, 1).is_zero()


def test_normalize_splitting_identities():
    rng = random.Random(501)
    for t in range(8):
        ring = [ZZ, F5][t % 2]
        A = corpus.random_instance(rng, ring, rng.randint(1, 3), max_rank=2).module
        nz = normalize(A)
        assert (nz.proj @ nz.incl) == ChainMap.identity(nz.complex)
        e = nz.incl @ nz.proj
        assert (e @ e) == e


def test_normalize_direct_sum_is_blockwise():
    rng = random.Random(502)
    for ring in (ZZ, F5):
        A = corpus.random_instance(rng, ring, 2, max_rank=2).module
        B = corpus.random_instance(rng, ring, 2, max_rank=2).module
        left = normalize(simp_direct_sum(A, B)).complex
        right = chain_direct_sum(normalize(A).complex, normalize(B).complex)
        assert left == right


def test_normalize_matches_kernel_route():
    rng = random.Random(511)
    modules = []
    for ring in (ZZ, QQ, F5):
        for D in range(1, 5):
            modules.append(corpus.random_instance(rng, ring, D, max_rank=2).module)
        for D in (1, 2):
            A = corpus.random_instance(rng, ring, D, max_rank=2).module
            B = corpus.random_instance(rng, ring, D, max_rank=2).module
            modules.append(simp_tensor(A, B))
        modules.append(gamma(corpus.random_complex(rng, ring, 3, max_rank=2)))
        modules.extend(standard_simplex(k, ring, 3) for k in range(3))
    for A in modules:
        assert_same_normalization(normalize(A), _normalize_by_kernels(A))


def test_corestrictions_match_solved_forms():
    # normalize_map, shuffle, aw and counit against their solved forms,
    # all fed with the kernel-route normalizations
    rng = random.Random(512)
    for ring in (ZZ, QQ, F5):
        D = 2
        insts = [corpus.random_instance(rng, ring, D, max_rank=2) for _ in range(3)]
        A, B = insts[0].module, insts[1].module
        old = {id(X): _normalize_by_kernels(X) for X in (A, B)}
        f = corpus.random_simplicial_map(rng, insts[0], insts[2])
        src, tgt = old[id(A)], _normalize_by_kernels(insts[2].module)
        solved = ChainMap(src.complex, tgt.complex, [
            solve(tgt.incl.component(n),
                  compose(f.component(n), src.incl.component(n)))
            for n in range(D + 1)])
        assert_same_chain_map(normalize_map(f), solved)

        na, nb = old[id(A)], old[id(B)]
        AB = simp_tensor(A, B)
        nab = _normalize_by_kernels(AB)
        NN = chain_tensor(na.complex, nb.complex, bound=D)
        solved = ChainMap(NN, nab.complex, [
            solve(nab.incl.component(n),
                  LinearMap(NN.level(n), AB.level(n),
                            _shuffle_entries(A, B, na, nb, n)))
            for n in range(D + 1)])
        assert_same_chain_map(shuffle(A, B), solved)
        assert_same_chain_map(aw(A, B), aw(A, B, na, nb, nab))
        assert counit(A) == counit(A, na)


@pytest.mark.parametrize("ring", [ZZ, F5], ids=["Z", "F5"])
def test_non_simplicial_degeneracy_rejected(ring):
    # s_0 zeroed or doubled at degree 1 breaks d_0 s_0 = id; over F_5
    # the doubled one spans the same degenerate part as before
    A = standard_simplex(1, ring, 3)
    s0 = A.degeneracy(1, 0)
    for bad in (LinearMap.zero(s0.source, s0.target), s0.scale(2)):
        with pytest.raises(ValueError, match="not a simplicial module"):
            normalize(replace_degeneracy(A, 1, 0, bad))
    # with d_1 zeroed at degree 1 every face kernel is the whole level,
    # so only p_1 s_0 = s_0 != 0 shows that the degenerate part overlaps it
    B = standard_simplex(1, ring, 1)
    d1 = B.face(1, 1)
    with pytest.raises(ValueError, match="does not kill s_0"):
        normalize(replace_face(B, 1, 1, LinearMap.zero(d1.source, d1.target)))


def test_normalize_map_rejects_a_map_leaving_the_face_kernels():
    # swapping s0|v0 and s0|v1 at degree 1 moves v01 - s0|v0, which
    # spans N_1, off ker d_1
    A = standard_simplex(1, ZZ, 2)
    swap = LinearMap.from_rows(A.level(1), A.level(1),
                               [[0, 1, 0], [1, 0, 0], [0, 0, 1]])
    f = SimplicialMap(A, A, [LinearMap.identity(A.level(0)), swap,
                             LinearMap.identity(A.level(2))], check=False)
    with pytest.raises(ValueError, match="leaves the normalized summand at degree 1"):
        normalize_map(f)


def _differential_modules(rng, ring):
    """Random instances, gamma images, a tensor and a Barratt-Eccles
    level over ring, with a copy of one instance whose top face is
    doubled, so the routines also meet maps that are not simplicial."""
    out = [corpus.random_instance(rng, ring, D, max_rank=2).module
           for D in (1, 2, 3, 3)]
    out.append(gamma(corpus.random_complex(rng, ring, 3, max_rank=2)))
    A, B = (corpus.random_instance(rng, ring, 2, max_rank=2).module
            for _ in range(2))
    out.append(simp_tensor(A, B))
    out.append(corpus.barratt_eccles_level(ring, 3, 2))
    X = out[2]
    out.append(replace_face(X, 3, 3, X.face(3, 3).scale(2)))
    return out


@settings(max_examples=30, deadline=None)
@given(st.sampled_from([ZZ, QQ, F5, Zmod(2)]), st.integers(0, 2 ** 32 - 1))
def test_idempotent_and_coordinates_match_the_whole_matrix_oracles(ring, seed):
    rng = random.Random(seed)
    for A in _differential_modules(rng, ring):
        for n in range(1, A.max_degree + 1):
            p = _idempotent(A, n)
            assert p.source == p.target == A.level(n)
            assert p.entries == _oracle_idempotent(A, n).entries
            assert ([(k, v, type(v)) for k, v in p.entries.items()]
                    == [(k, v, type(v)) for k, v in
                        _every_factor_idempotent(A, n).entries.items()])
            basis, pivots = _image_basis(p)
            want_basis, want_pivots = _oracle_image_basis(p)
            assert basis.entries == want_basis.entries and pivots == want_pivots
            # x: p itself and a random combination of the basis vectors
            coeffs = corpus.random_matrix(
                rng, FreeModule(ring, rng.randint(0, 4)), basis.source)
            for x in (p, compose(basis, coeffs)):
                try:
                    want = oracle_coordinates(basis, pivots, x)
                except ValueError:
                    with pytest.raises(ValueError, match="not in the span"):
                        _coordinates(basis, pivots, x)
                    continue
                got = _coordinates(basis, pivots, x)
                assert got.source == want.source and got.target == want.target
                assert got.entries == want.entries


@settings(max_examples=20, deadline=None)
@given(st.sampled_from([ZZ, QQ, F5, Zmod(2)]), st.integers(0, 2 ** 32 - 1))
def test_normalize_matches_the_whole_matrix_oracle(ring, seed):
    rng = random.Random(seed)
    modules = [corpus.random_instance(rng, ring, D, max_rank=2).module
               for D in (1, 2, 3)]
    modules.append(gamma(corpus.random_complex(rng, ring, 3, max_rank=2)))
    for A in modules:
        assert_same_normalization(normalize(A), _oracle_normalize(A))


@pytest.mark.parametrize("ring", [ZZ, QQ, F5], ids=["Z", "Q", "F5"])
@pytest.mark.parametrize("n, D", [(1, 3), (2, 3), (3, 3)])
def test_barratt_eccles_levels_normalize_to_a_contractible_complex(ring, n, D):
    # E(n) is the nerve of the contractible groupoid on S_n: N E(n) has
    # ranks n! (n! - 1)^d and the homology of a point
    A = corpus.barratt_eccles_level(ring, n, D)
    N = factorial(n)
    assert A.ranks() == tuple(N ** (d + 1) for d in range(D + 1))
    assert validate(A) == []
    nz = normalize(A)
    assert nz.complex.ranks() == tuple(N * (N - 1) ** d for d in range(D + 1))
    h0 = homology(nz.complex, 0)
    assert h0.rank == 1 and not h0.invariant_factors
    for k in range(1, D):
        assert homology(nz.complex, k).is_zero()


def test_barratt_eccles_operators_delete_and_repeat_entries():
    # at n = 2, N = 2: (k0, k1, k2) sits at 4 k0 + 2 k1 + k2
    A = corpus.barratt_eccles_level(ZZ, 2, 2)
    assert A.ranks() == (2, 4, 8)
    idx = lambda *ks: sum(k * 2 ** (len(ks) - 1 - t) for t, k in enumerate(ks))
    for ks in iproduct(range(2), repeat=3):
        for i in range(3):
            dropped = ks[:i] + ks[i + 1:]
            assert A.face(2, i).column(idx(*ks)) == {idx(*dropped): 1}
    for ks in iproduct(range(2), repeat=2):
        for i in range(2):
            repeated = ks[:i + 1] + ks[i:]
            assert A.degeneracy(1, i).column(idx(*ks)) == {idx(*repeated): 1}


# -- the inverse construction ------------------------------------------------


def test_gamma_of_point_is_constant():
    G = gamma(concentrated(ZZ, 0, 1), 3)
    assert G == constant_module(ZZ, 3)
    assert validate(G) == []


def test_gamma_concentrated_degree_one():
    # hand computation: level 2 has summands (0,0,1) and (0,1,1); only
    # eta . delta_0 for eta = (0,1,1) misses the value 0, and the
    # complex differential there is zero
    G = gamma(concentrated(ZZ, 1, 1), 2)
    assert G.ranks() == (0, 1, 2)
    assert validate(G) == []
    assert G.face(2, 0).to_rows() == [[1, 0]]
    assert G.face(2, 1).to_rows() == [[1, 1]]
    assert G.face(2, 2).to_rows() == [[0, 1]]


def test_gamma_summand_order_puts_identity_first():
    K = two_term(ZZ, [[3]])
    for n in range(3):
        k, eta, off = gamma_summands(K, n)[0]
        assert off == 0 and k == n and eta == tuple(range(n + 1))


def test_gamma_feeds_differential_to_zeroth_face():
    K = two_term(ZZ, [[3]])
    G = gamma(K, 1)
    # identity summand first at level 1, the K_0 copy after it
    assert G.face(1, 0).to_rows() == [[3, 1]]
    assert G.face(1, 1).to_rows() == [[0, 1]]


def test_gamma_validates_on_randoms():
    rng = random.Random(503)
    for t in range(10):
        ring = [ZZ, F5, QQ][t % 3]
        K = corpus.random_complex(rng, ring, rng.randint(1, 4), max_rank=3)
        assert validate(gamma(K)) == []


# The inverse construction as it was before its combinatorics were
# tabled per degree: every summand and every operator factors eta . theta
# afresh, and every map goes through the checking constructor.


def _oracle_summands(K, n):
    out = []
    off = 0
    for k in range(n, -1, -1):
        for eta in monotone_surjections(n, k):
            out.append((k, eta, off))
            off += K.level(k).rank
    return out


def _oracle_basis(K, n):
    """Level n of gamma as index tuples (k, eta, a): the summands in
    `_surjection_index` order, k descending and eta lexicographic, and
    the basis of K_k inner."""
    return [(k, eta, a) for k in range(n, -1, -1)
            for eta in monotone_surjections(n, k)
            for a in range(K.level(k).rank)]


def _oracle_operator(K, theta, n, m):
    """theta: [m] -> [n] from level n of gamma to level m, each entry
    placed at the positions of its index tuples."""
    ring = K.ring
    src, tgt = _oracle_basis(K, n), _oracle_basis(K, m)
    col = {key: pos for pos, key in enumerate(src)}
    row = {key: pos for pos, key in enumerate(tgt)}
    entries = {}
    for k in range(n, -1, -1):
        for eta in monotone_surjections(n, k):
            c = compose_monotone(eta, theta)
            image = sorted(set(c))
            if len(image) == k + 1:
                for i in range(K.level(k).rank):
                    entries[(row[(k, c, i)], col[(k, eta, i)])] = ring.one
            elif image == list(range(1, k + 1)):
                c = tuple(v - 1 for v in c)
                for (i, j), v in K.d(k).entries.items():
                    entries[(row[(k - 1, c, i)], col[(k, eta, j)])] = v
    return LinearMap(FreeModule(ring, len(src)), FreeModule(ring, len(tgt)),
                     entries)


def _oracle_gamma(K, D):
    levels = [FreeModule(K.ring, len(_oracle_basis(K, n)))
              for n in range(D + 1)]
    faces = [[_oracle_operator(K, delta(i, n), n, n - 1)
              for i in range(n + 1)]
             for n in range(1, D + 1)]
    degeneracies = [[_oracle_operator(K, sigma(i, n), n, n + 1)
                     for i in range(n + 1)]
                    for n in range(D)]
    return SimplicialModule(K.ring, levels, faces, degeneracies)


def _oracle_gamma_map(f, D):
    A, B = _oracle_gamma(f.source, D), _oracle_gamma(f.target, D)
    comps = []
    for n in range(D + 1):
        col = {key: pos for pos, key in enumerate(_oracle_basis(f.source, n))}
        row = {key: pos for pos, key in enumerate(_oracle_basis(f.target, n))}
        entries = {}
        for k, eta, _ in _oracle_summands(f.source, n):
            for (i, j), v in f.component(k).entries.items():
                entries[(row[(k, eta, i)], col[(k, eta, j)])] = v
        comps.append(LinearMap(A.level(n), B.level(n), entries))
    return comps


def _oracle_counit(A, nz):
    G = _oracle_gamma(nz.complex, A.max_degree)
    comps = []
    for n in range(A.max_degree + 1):
        parts = [compose(simplicial_operator(A, eta, k), nz.incl.component(k))
                 for k, eta, _ in _oracle_summands(nz.complex, n)]
        comps.append(LinearMap(G.level(n), A.level(n), hstack(parts).entries))
    return comps


def _ordered(m):
    """A map as its modules and its entries in insertion order, with the
    type of each entry."""
    return (m.source, m.target,
            [(key, type(v), v) for key, v in m.entries.items()])


def _complex_with_ranks(rng, ring, ranks):
    """A random complex with the given ranks; d*d = 0 because each
    differential factors through the kernel of the one below."""
    levels = [FreeModule(ring, r) for r in ranks]
    diffs = []
    for n in range(1, len(ranks)):
        if n == 1:
            d = corpus.random_matrix(rng, levels[1], levels[0])
        else:
            _, incl = kernel(diffs[-1])
            d = compose(incl, corpus.random_matrix(rng, levels[n], incl.source))
        diffs.append(d)
    return ChainComplex(ring, levels, diffs)


@settings(max_examples=100, deadline=None)
@given(ring=st.sampled_from([ZZ, QQ, F5, Zmod(2)]),
       ranks=st.lists(st.integers(0, 3), min_size=1, max_size=4),
       target_ranks=st.lists(st.integers(0, 2), min_size=4, max_size=4),
       extra=st.integers(0, 1), seed=st.integers(0, 2**32 - 1))
def test_gamma_matches_the_untabled_oracle(ring, ranks, target_ranks, extra, seed):
    # gamma, gamma_map and counit against the route that factors every
    # eta . theta afresh, entry for entry and in insertion order, with
    # max_degree equal to and above the complex's degree
    rng = random.Random(seed)
    K = _complex_with_ranks(rng, ring, ranks)
    D = K.max_degree + extra
    G = gamma(K, D)
    want = _oracle_gamma(K, D)
    assert validate(G) == []
    assert G.levels == want.levels
    for got_ops, want_ops in ((G.faces, want.faces),
                              (G.degeneracies, want.degeneracies)):
        assert [[_ordered(f) for f in fs] for fs in got_ops] == \
            [[_ordered(f) for f in fs] for fs in want_ops]
    for n in range(D + 1):
        assert gamma_summands(K, n) == _oracle_summands(K, n)

    L = _complex_with_ranks(rng, ring, target_ranks[:len(ranks)])
    f = corpus.random_chain_map(rng, K, L)
    assert [_ordered(c) for c in gamma_map(f, D).components] == \
        [_ordered(c) for c in _oracle_gamma_map(f, D)]

    if D <= 3:
        change = [corpus.random_unimodular(rng, G.level(n)) for n in range(D + 1)]
        A = corpus.conjugate(G, change)
        nz = normalize(A)
        assert [_ordered(c) for c in counit(A, nz).components] == \
            [_ordered(c) for c in _oracle_counit(A, nz)]


def test_surjection_tables_are_immutable_and_lists_stay_fresh():
    # the per-degree tables hand out tuples only, and monotone_surjections
    # still builds a new list per call: mutating one, even before the
    # tables are built from it, changes neither the next call nor gamma
    K = two_term(ZZ, [[3, 0], [1, 2]])
    _surjection_index.cache_clear()
    _gamma_action.cache_clear()
    first = monotone_surjections(3, 1)
    assert first == [(0, 0, 0, 1), (0, 0, 1, 1), (0, 1, 1, 1)]
    first.append((9,))
    first[0] = (7, 7, 7, 7)
    assert monotone_surjections(3, 1) == [(0, 0, 0, 1), (0, 0, 1, 1), (0, 1, 1, 1)]
    assert monotone_surjections(3, 1) is not monotone_surjections(3, 1)
    G = gamma(K, 3)
    monotone_surjections(3, 1).clear()
    want = _oracle_gamma(K, 3)
    for got, again in ((G, gamma(K, 3)), (want, G)):
        assert got.levels == again.levels
        assert [[_ordered(f) for f in fs]
                for fs in got.faces + got.degeneracies] == \
            [[_ordered(f) for f in fs]
             for fs in again.faces + again.degeneracies]
    for n in range(4):
        table = _surjection_index(n)
        assert isinstance(table, tuple)
        assert all(isinstance(key, tuple) and isinstance(key[1], tuple)
                   for key in table)
        for theta in [delta(i, n) for i in range(n + 1) if n] + \
                [sigma(i, n) for i in range(n + 1)]:
            act = _gamma_action(theta, n)
            assert isinstance(act, tuple)
            assert all(a is None or isinstance(a, tuple) for a in act)


def test_normalize_gamma_roundtrip_is_identity():
    rng = random.Random(504)
    for t in range(100):
        ring = [ZZ, F5][t % 2]
        K = corpus.random_complex(rng, ring, rng.randint(1, 4), max_rank=3)
        assert normalize(gamma(K)).complex == K


def test_normalize_gamma_roundtrip_on_morphisms():
    rng = random.Random(505)
    for t in range(15):
        ring = [ZZ, F5][t % 2]
        D = rng.randint(1, 3)
        K = corpus.random_complex(rng, ring, D, max_rank=2)
        L = corpus.random_complex(rng, ring, D, max_rank=2)
        f = corpus.random_chain_map(rng, K, L)
        assert normalize_map(gamma_map(f)) == f


def test_counit_is_simplicial_isomorphism():
    rng = random.Random(506)
    for t in range(10):
        ring = [ZZ, F5][t % 2]
        inst = corpus.random_instance(rng, ring, rng.randint(1, 3), max_rank=2)
        eps = counit(inst.module)
        assert eps.is_iso()
        assert (eps @ eps.inverse()) == SimplicialMap.identity(inst.module)
    # a module that is nobody's gamma image on the nose
    eps = counit(standard_simplex(2, ZZ, 3))
    assert eps.is_iso()


def test_counit_level_zero_is_identity():
    A = standard_simplex(1, ZZ, 2)
    eps = counit(A)
    assert eps.component(0) == LinearMap.identity(A.level(0))


def test_corrupted_module_fails_counit_construction():
    A = standard_simplex(1, ZZ, 2)
    bad = replace_face(A, 2, 1, LinearMap.zero(A.level(2), A.level(1)))
    with pytest.raises(ValueError):
        counit(bad)


# -- Eilenberg-Zilber --------------------------------------------------------


def _interval_pair():
    A = standard_simplex(1, ZZ, 2)
    B = standard_simplex(1, ZZ, 2)
    na, nb = normalize(A), normalize(B)
    AB = simp_tensor(A, B)
    nab = normalize(AB)
    return A, B, na, nb, AB, nab


def test_aw_degree_zero_is_identity():
    A, B, na, nb, AB, nab = _interval_pair()
    F = aw(A, B, na, nb, nab)
    assert F.component(0) == LinearMap.identity(AB.level(0))


def test_aw_degree_one_formula():
    # degree 1 is (d_1 a) (x) b + a (x) (d_0 b) followed by the
    # projections, assembled here from the raw face tables instead of
    # the operator peeler
    A, B, na, nb, AB, nab = _interval_pair()
    F = aw(A, B, na, nb, nab)
    top = compose(na.proj.component(0), A.face(1, 1)).tensor(
        nb.proj.component(1))
    bot = na.proj.component(1).tensor(
        compose(nb.proj.component(0), B.face(1, 0)))
    expected = dict(top.entries)
    off = top.target.rank
    for (i, j), v in bot.entries.items():
        expected[(off + i, j)] = v
    expected_map = LinearMap(AB.level(1), F.component(1).target, expected)
    assert compose(expected_map, nab.incl.component(1)).entries \
        == F.component(1).entries


def test_shuffle_degree_zero_is_identity():
    A, B, na, nb, AB, nab = _interval_pair()
    G = shuffle(A, B, na, nb, nab)
    assert G.component(0) == LinearMap.identity(AB.level(0))


def test_shuffle_one_one_signs():
    # (1,1) block at level 2 must be s_1 x (x) s_0 y - s_0 x (x) s_1 y,
    # assembled from the raw degeneracy tables
    A, B, na, nb, AB, nab = _interval_pair()
    G = shuffle(A, B, na, nb, nab)
    NN = chain_tensor(na.complex, nb.complex, bound=2)
    plus = compose(A.degeneracy(1, 1), na.incl.component(1)).tensor(
        compose(B.degeneracy(1, 0), nb.incl.component(1)))
    minus = compose(A.degeneracy(1, 0), na.incl.component(1)).tensor(
        compose(B.degeneracy(1, 1), nb.incl.component(1)))
    expected = plus - minus
    # into ambient level 2, then pick out the (1,1) source block
    realized = compose(nab.incl.component(2), G.component(2))
    blocks = {(p, q): off for p, q, off in tensor_blocks(na.complex, nb.complex, 2)}
    off = blocks[(1, 1)]
    w = na.complex.level(1).rank * nb.complex.level(1).rank
    got = {(i, j - off): v for (i, j), v in realized.entries.items()
           if off <= j < off + w}
    assert got == expected.entries


def test_aw_after_shuffle_is_identity():
    A, B, na, nb, AB, nab = _interval_pair()
    F = aw(A, B, na, nb, nab)
    G = shuffle(A, B, na, nb, nab)
    NN = chain_tensor(na.complex, nb.complex, bound=2)
    assert (F @ G) == ChainMap.identity(NN)


def test_aw_after_shuffle_identity_on_randoms():
    rng = random.Random(507)
    for t in range(10):
        ring = [ZZ, F5][t % 2]
        D = rng.randint(1, 3)
        A = corpus.random_instance(rng, ring, D, max_rank=2).module
        B = corpus.random_instance(rng, ring, D, max_rank=2).module
        na, nb = normalize(A), normalize(B)
        nab = normalize(simp_tensor(A, B))
        F = aw(A, B, na, nb, nab)
        G = shuffle(A, B, na, nb, nab)
        NN = chain_tensor(na.complex, nb.complex, bound=D)
        assert (F @ G) == ChainMap.identity(NN)


def test_aw_and_shuffle_refuse_a_normalization_of_another_product():
    rng = random.Random(11)
    A = corpus.random_instance(rng, ZZ, 2, max_rank=1).module
    B = corpus.random_instance(rng, ZZ, 2, max_rank=2).module
    assert A.ranks() != B.ranks()
    na, nb = normalize(A), normalize(B)
    naa = normalize(simp_tensor(A, A))
    for build in (aw, shuffle):
        with pytest.raises(ValueError, match="Moore ranks"):
            build(A, B, na, nb, naa)
    # the normalization of A (x) B itself is accepted, and gives what
    # building it inside gives
    nab = normalize(simp_tensor(A, B))
    assert aw(A, B, na, nb, nab) == aw(A, B)
    assert shuffle(A, B, na, nb, nab) == shuffle(A, B)


def test_shuffle_after_aw_identity_on_homology():
    rng = random.Random(508)
    pairs = [_interval_pair()[:2]]
    for t in range(4):
        ring = [ZZ, F5][t % 2]
        D = rng.randint(2, 3)
        pairs.append((corpus.random_instance(rng, ring, D, max_rank=2).module,
                      corpus.random_instance(rng, ring, D, max_rank=2).module))
    for A, B in pairs:
        na, nb = normalize(A), normalize(B)
        nab = normalize(simp_tensor(A, B))
        e = shuffle(A, B, na, nb, nab) @ aw(A, B, na, nb, nab)
        for n in range(e.source.max_degree):
            induced, _, Ht = homology_map(e, n)
            pres = Ht.presentation
            assert pres.reduce_map(induced).entries == \
                pres.reduce_map(pres.proj).entries


def test_shuffle_symmetry_square():
    rng = random.Random(509)
    pairs = [(standard_simplex(1, ZZ, 2), standard_simplex(1, ZZ, 2))]
    for t in range(4):
        ring = [ZZ, F5][t % 2]
        D = rng.randint(1, 3)
        pairs.append((corpus.random_instance(rng, ring, D, max_rank=2).module,
                      corpus.random_instance(rng, ring, D, max_rank=2).module))
    for A, B in pairs:
        D = A.max_degree
        na, nb = normalize(A), normalize(B)
        nab = normalize(simp_tensor(A, B))
        nba = normalize(simp_tensor(B, A))
        lhs = normalize_map(swap_map(A, B), nab, nba) @ shuffle(A, B, na, nb, nab)
        rhs = shuffle(B, A, nb, na, nba) @ braiding(na.complex, nb.complex, bound=D)
        assert lhs == rhs


def test_aw_symmetry_square_fails_with_witness():
    A, B, na, nb, AB, nab = _interval_pair()
    nba = normalize(simp_tensor(B, A))
    F = aw(A, B, na, nb, nab)
    lhs = aw(B, A, nb, na, nba) @ normalize_map(swap_map(A, B), nab, nba)
    rhs = braiding(na.complex, nb.complex, bound=2) @ F
    assert lhs != rhs
    witness = [n for n in range(3)
               if lhs.component(n).entries != rhs.component(n).entries]
    # degree 0 is forced to agree; the failure starts strictly above it
    assert witness and min(witness) >= 1


def test_shuffle_naturality():
    rng = random.Random(510)
    for t in range(4):
        ring = [ZZ, F5][t % 2]
        D = rng.randint(1, 2)
        src_a = corpus.random_instance(rng, ring, D, max_rank=2)
        tgt_a = corpus.random_instance(rng, ring, D, max_rank=2)
        src_b = corpus.random_instance(rng, ring, D, max_rank=2)
        tgt_b = corpus.random_instance(rng, ring, D, max_rank=2)
        f = corpus.random_simplicial_map(rng, src_a, tgt_a)
        g = corpus.random_simplicial_map(rng, src_b, tgt_b)
        na, nb = normalize(src_a.module), normalize(src_b.module)
        na2, nb2 = normalize(tgt_a.module), normalize(tgt_b.module)
        nab = normalize(simp_tensor(src_a.module, src_b.module))
        nab2 = normalize(simp_tensor(tgt_a.module, tgt_b.module))
        lhs = shuffle(tgt_a.module, tgt_b.module, na2, nb2, nab2) @ tensor_map(
            normalize_map(f, na, na2), normalize_map(g, nb, nb2), bound=D)
        rhs = normalize_map(simp_tensor_map(f, g), nab, nab2) @ shuffle(
            src_a.module, src_b.module, na, nb, nab)
        assert lhs == rhs


# -- the oplax structure map -------------------------------------------------


def test_gamma_oplax_quasi_iso_but_not_iso():
    K = two_term(ZZ, [[2]])
    L = concentrated(ZZ, 1)
    op = gamma_oplax(K, L)
    assert not op.is_iso()
    assert op.source.ranks() != op.target.ranks()
    assert is_quasi_iso(normalize_map(op))


def test_gamma_oplax_over_field():
    K = two_term(F5, [[1, 2], [0, 1]])
    L = two_term(F5, [[3]])
    op = gamma_oplax(K, L)
    assert is_quasi_iso(normalize_map(op))


def test_gamma_oplax_source_normalizes_to_tensor():
    K = two_term(ZZ, [[2]])
    L = concentrated(ZZ, 1)
    op = gamma_oplax(K, L)
    D = K.max_degree + L.max_degree
    assert normalize(op.source).complex == chain_tensor(K, L, bound=D)


# -- normalization of operads -------------------------------------------------


def _oracle_normalize_operad_data(P):
    """The per-signature route: one `normalize` per signature and per
    unit source, and N(X (x) Y) and the shuffle built afresh for every
    composition, shared with nothing; the laws are not replayed."""
    coll = P.collection
    ring, D = coll.ring, coll.max_degree
    usrc = op._ops_for("chain", ring, D).unit_obj()
    nz = {sig: normalize(coll.level(sig)) for sig in coll.signatures()}
    levels = {sig: nz[sig].complex for sig in coll.signatures()}
    actions = {sig: {s: normalize_map(coll.action(sig, s), nz[sig],
                                      nz[op.sig_act(sig, s)])
                     for s in permutations.transpositions(len(sig[0]))}
               for sig in coll.signatures()}
    units = {}
    for c in coll.colors:
        u = P.unit(c)
        nu = normalize_map(u, normalize(u.source), nz[((c,), c)])
        units[c] = ChainMap(usrc, nu.target, [
            LinearMap(usrc.level(n), nu.target.level(n),
                      nu.component(n).entries) for n in range(D + 1)])
    comps = {}
    for (osig, i, isig), f in P.compositions.items():
        X, Y = coll.level(osig), coll.level(isig)
        nab = normalize(simp_tensor(X, Y))
        gsig = op.graft_signature(osig, i, isig)
        comps[(osig, i, isig)] = normalize_map(f, nab, nz[gsig]) @ shuffle(
            X, Y, nz[osig], nz[isig], nab)
    Q = op.Operad(op.Collection(ring, "chain", coll.colors, coll.max_arity, D,
                                levels, actions, truncated=coll.truncated),
                  units, comps)
    return Q, nz


def _oracle_integrated_normalize(phi):
    NP, nzP = _oracle_normalize_operad_data(phi.source)
    NQ, nzQ = _oracle_normalize_operad_data(phi.target)
    maps = {}
    for sig in phi.source.collection.signatures():
        tsig = phi.map_sig(sig)
        tgt = nzQ[tsig] if tsig in nzQ else \
            normalize(phi.target.collection.level(tsig))
        maps[sig] = normalize_map(phi.level_map(sig), nzP[sig], tgt)
    return NP, NQ, maps


def _stored(f):
    """A map's ranks and its entries in stored order, degree by degree."""
    return (f.source.ranks(), f.target.ranks(),
            [list(c.entries.items()) for c in f.components])


def _assert_same_normalized_operad(got, want):
    G, W = got.collection, want.collection
    assert G.signatures() == W.signatures()
    assert (G.colors, G.max_arity, G.max_degree, G.truncated) == \
        (W.colors, W.max_arity, W.max_degree, W.truncated)
    for sig in W.signatures():
        K, L = G.level(sig), W.level(sig)
        assert K == L
        assert [list(d.entries.items()) for d in K.differentials] == \
            [list(d.entries.items()) for d in L.differentials]
        for s in permutations.transpositions(len(sig[0])):
            assert _stored(G.action(sig, s)) == _stored(W.action(sig, s))
    assert got.units.keys() == want.units.keys()
    for c in want.units:
        assert _stored(got.unit(c)) == _stored(want.unit(c))
    assert got.compositions.keys() == want.compositions.keys()
    for key, f in want.compositions.items():
        assert _stored(got.compositions[key]) == _stored(f)


def _simplicial_scaled_pair(ring, factor, D):
    """Two colors, every hom the constant module R, and u . v = v . u =
    factor: the four levels and both unit sources are equal by value,
    while the compositions on them differ (factor against 1)."""
    ops = op._ops_for("simplicial", ring, D)
    colors = ("a", "b")
    lev = {((c,), d): ops.unit_obj() for c in colors for d in colors}
    coll = op.Collection(ring, "simplicial", colors, 1, D, lev)
    units = {c: ops.identity(lev[((c,), c)]) for c in colors}
    comps = {}
    for c in colors:
        for d in colors:
            for e in colors:
                scale = ring.one if c == d or d == e else ring.normalize(factor)
                src = ops.tensor(lev[((d,), e)], lev[((c,), d)])
                tgt = lev[((c,), e)]
                comps[(((d,), e), 0, ((c,), d))] = ops.make_map(src, tgt, [
                    LinearMap(src.level(n), tgt.level(n), {(0, 0): scale})
                    for n in range(D + 1)])
    return op.Operad(coll, units, comps)


def _simplicial_corpus():
    """(operad, a morphism out of or into it), named, for every
    simplicial operad of the corpus and the scaled pair."""
    T = corpus.trivial_operad(F5, "simplicial", 2)
    out = []
    for name, make, disk in (
            ("indiscrete-acyclic", corpus.indiscrete_operad, corpus.acyclic_disk),
            ("indiscrete-loop", corpus.indiscrete_operad, corpus.loop_disk),
            ("disconnected", corpus.disconnected_operad, corpus.acyclic_disk)):
        Q = make(F5, "simplicial", 2, disk=disk(F5, 2))
        out.append(pytest.param(Q, corpus.point_inclusion(T, Q, "a"), id=name))
    out.append(pytest.param(T, op.OpMorphism.identity(T), id="trivial"))
    for ring in (ZZ, F5):
        A = op.associative_operad(ring, "simplicial", 3, 2)
        out.append(pytest.param(A, op.OpMorphism.identity(A),
                                id=f"assoc-{ring.name()}"))
    S = _simplicial_scaled_pair(ZZ, 2, 2)
    out.append(pytest.param(S, op.OpMorphism.identity(S), id="scaled-pair"))
    Tz = corpus.trivial_operad(ZZ, "simplicial", 2)
    out.append(pytest.param(S, corpus.point_inclusion(Tz, S, "b"),
                            id="scaled-pair-point"))
    return out


@pytest.mark.parametrize("P, phi", _simplicial_corpus())
def test_normalize_operad_shares_what_the_per_signature_route_builds(P, phi):
    """Sharing normalizations among equal levels, and the normalized
    tensor and shuffle among compositions on equal level pairs, gives
    the per-signature route's operad and records entry for entry, and
    equal levels become one complex."""
    Q, nz = normalize_operad_data(P)
    W, wnz = _oracle_normalize_operad_data(P)
    _assert_same_normalized_operad(Q, W)
    assert nz.keys() == wnz.keys()
    for sig in wnz:
        assert_same_normalization(nz[sig], wnz[sig])
    coll = P.collection
    sigs = coll.signatures()
    for s in sigs:
        for t in sigs:
            shared = Q.collection.level(s) is Q.collection.level(t)
            assert shared == (coll.level(s) == coll.level(t))

    nphi = op.integrated_normalize(phi)
    NP, NQ, maps = _oracle_integrated_normalize(phi)
    _assert_same_normalized_operad(nphi.source, NP)
    _assert_same_normalized_operad(nphi.target, NQ)
    assert nphi.color_map == phi.color_map
    for sig, f in maps.items():
        assert _stored(nphi.level_map(sig)) == _stored(f)


def test_scaled_pair_shares_levels_but_not_compositions():
    """All four levels of the scaled pair are one complex after
    normalization, and the compositions on them keep their own factors."""
    S = _simplicial_scaled_pair(ZZ, 2, 2)
    Q, nz = normalize_operad_data(S)
    levels = {id(Q.collection.level(sig)) for sig in Q.collection.signatures()}
    assert len(levels) == 1 and len({id(n) for n in nz.values()}) == 1
    ab, ba = (("a",), "b"), (("b",), "a")
    aa = (("a",), "a")
    assert Q.compositions[(ba, 0, ab)].component(0).entries == {(0, 0): 2}
    assert Q.compositions[(aa, 0, aa)].component(0).entries == {(0, 0): 1}
