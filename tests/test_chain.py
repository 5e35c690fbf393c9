"""Chain complexes: sign rules, homology, pushout-products, cube colimits."""

import random
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import given, settings, strategies as st

from opdk.chain import (
    ChainColimit,
    ChainComplex,
    ChainMap,
    associator,
    braiding,
    chain_from_json,
    chain_to_json,
    concentrated,
    diagram_colimit,
    direct_sum,
    homology,
    homology_map,
    is_quasi_iso,
    left_unitor,
    pad,
    pushout_complex,
    pushout_product,
    right_unitor,
    tensor,
    tensor_blocks,
    tensor_many,
    tensor_map,
    tensor_map_many,
    two_term,
    unit_complex,
    zero_complex,
)
from opdk import corpus
from opdk.doldkan import normalize
from opdk.exactlin import (FreeModule, LinearMap, cokernel, compose, kernel,
                           matrix_to_json, solve, vstack)
from opdk.rings import QQ, ZZ, Zmod

F5 = Zmod(5)


# ---------------------------------------------------------------------------
# oracles
# ---------------------------------------------------------------------------


def sign_rule_differential(K, L, n):
    """Evaluate d(x (x) y) = dx (x) y + (-1)^|x| x (x) dy elementwise on the
    tensor basis, returning a dense matrix over the target basis."""
    src_basis = []
    for p, q, _ in tensor_blocks(K, L, n):
        for i in range(K.level(p).rank):
            for j in range(L.level(q).rank):
                src_basis.append((p, q, i, j))
    tgt_index = {}
    pos = 0
    for p, q, _ in tensor_blocks(K, L, n - 1):
        for i in range(K.level(p).rank):
            for j in range(L.level(q).rank):
                tgt_index[(p, q, i, j)] = pos
                pos += 1
    rows = [[0] * len(src_basis) for _ in range(pos)]
    for col, (p, q, i, j) in enumerate(src_basis):
        if p >= 1:
            for (r, c), v in K.d(p).entries.items():
                if c == i:
                    rows[tgt_index[(p - 1, q, r, j)]][col] += v
        if q >= 1:
            sgn = -1 if p % 2 else 1
            for (r, c), v in L.d(q).entries.items():
                if c == j:
                    rows[tgt_index[(p, q - 1, i, r)]][col] += sgn * v
    return rows


def random_complex(rng, ring, max_degree, max_rank=2):
    """Differentials built inside the kernel of the previous one, so d^2 = 0
    by construction and homology is usually nonzero."""
    from opdk.exactlin import kernel

    levels = [FreeModule(ring, rng.randint(0, max_rank))
              for n in range(max_degree + 1)]
    diffs = []
    prev_kernel = None  # (module, incl) inside levels[n-1]
    for n in range(1, max_degree + 1):
        if n == 1:
            kmod, kincl = levels[0], LinearMap.identity(levels[0])
        else:
            kmod, kincl = prev_kernel
        entries = {}
        for j in range(levels[n].rank):
            for t in range(kmod.rank):
                if rng.random() < 0.5:
                    entries[(t, j)] = rng.randint(-2, 2)
        coeff = LinearMap(levels[n], kmod, {k: ring.normalize(v)
                                            for k, v in entries.items()})
        d = compose(kincl, coeff)
        diffs.append(d)
        prev_kernel = kernel(d)
    return ChainComplex(ring, levels, diffs)


def random_chain_map(rng, f_source, f_target):
    """A random degreewise map made to commute by zeroing obstructions is
    hard to generate directly; instead scale identity-shaped maps on equal
    complexes or compose structure maps. Used only where the caller knows
    source == target shape."""
    raise NotImplementedError


# ---------------------------------------------------------------------------
# tensor
# ---------------------------------------------------------------------------


def test_tensor_kunneth_ranks_zero_differential():
    K = ChainComplex(ZZ, [FreeModule(ZZ, 1), FreeModule(ZZ, 1)],
                     [LinearMap.zero(FreeModule(ZZ, 1), FreeModule(ZZ, 1))])
    T = tensor(K, K)
    assert T.ranks() == (1, 2, 1)


def test_tensor_unit():
    K = two_term(ZZ, [[2]])
    T = tensor(K, unit_complex(ZZ))
    assert T.ranks() == K.ranks()
    assert [d.entries for d in T.differentials] == [d.entries for d in K.differentials]
    assert right_unitor(K).is_iso()
    assert left_unitor(K).is_iso()


def test_tensor_sign_rule_oracle():
    K = two_term(ZZ, [[2]])
    L = two_term(ZZ, [[3]])
    T = tensor(K, L)
    for n in (1, 2):
        assert T.d(n).to_rows() == sign_rule_differential(K, L, n)


def test_tensor_sign_rule_oracle_random():
    rng = random.Random(31)
    for _ in range(10):
        K = random_complex(rng, ZZ, 2)
        L = random_complex(rng, ZZ, 2)
        T = tensor(K, L)
        for n in range(1, T.max_degree + 1):
            assert T.d(n).to_rows() == sign_rule_differential(K, L, n)


def test_tensor_ring_mismatch():
    with pytest.raises(ValueError):
        tensor(unit_complex(ZZ), unit_complex(QQ))


def test_tensor_bound_truncates():
    K = two_term(ZZ, [[0]])
    T = tensor(K, K, bound=1)
    assert T.max_degree == 1


@settings(max_examples=15, deadline=None)
@given(st.integers(0, 2 ** 32 - 1))
def test_tensor_associative_unital_via_canonical_isos(seed):
    rng = random.Random(seed)
    K = random_complex(rng, ZZ, 2)
    L = random_complex(rng, ZZ, 2)
    M = random_complex(rng, ZZ, 2)
    a = associator(K, L, M)
    assert a.is_iso()
    # the associator is a chain iso whose inverse is also a chain map
    inv = a.inverse()
    assert (a @ inv).is_zero() or all(
        c.entries == LinearMap.identity(c.source).entries
        for c in (a @ inv).components)


def test_braiding_squares_to_identity_and_koszul_sign():
    K = two_term(ZZ, [[2]])
    L = two_term(ZZ, [[3]])
    b = braiding(K, L)
    c = braiding(L, K)
    assert all(f.entries == LinearMap.identity(f.source).entries
               for f in (c @ b).components)
    # degree (1,1) block carries the sign
    blk = [(p, q) for p, q, _ in tensor_blocks(K, L, 2)]
    assert blk == [(1, 1)]
    assert b.component(2).entries == {(0, 0): -1}


def test_kunneth_over_field():
    rng = random.Random(37)
    for _ in range(8):
        K = random_complex(rng, F5, 2)
        L = random_complex(rng, F5, 2)
        T = tensor(K, L)
        # interior degrees only; top degree of T is a truncation boundary
        for n in range(T.max_degree):
            lhs = homology(T, n).rank
            rhs = 0
            for p in range(n + 1):
                q = n - p
                if p <= K.max_degree and q <= L.max_degree:
                    rhs += homology(K, p).rank * homology(L, q).rank
            if n < K.max_degree + L.max_degree:
                # beware: factors' top degrees are themselves flagged
                hp_flags = [p == K.max_degree or (n - p) == L.max_degree
                            for p in range(n + 1)]
                if any(hp_flags):
                    continue
            assert lhs == rhs


# ---------------------------------------------------------------------------
# homology
# ---------------------------------------------------------------------------


def test_homology_times_two():
    K = two_term(ZZ, [[2]])
    h0 = homology(K, 0)
    assert h0.rank == 0 and h0.invariant_factors == (2,)
    assert not h0.boundary_unreliable
    h1 = homology(K, 1)
    assert h1.is_zero()
    assert h1.boundary_unreliable


def test_homology_zero_complex():
    Z = zero_complex(ZZ, 3)
    for n in range(4):
        assert homology(Z, n).is_zero()


def test_homology_interval():
    # the normalized chains of the 1-simplex: Z --(1)--> Z... built by hand
    K = two_term(ZZ, [[1]])
    assert homology(K, 0).rank == 1 or homology(K, 0).invariant_factors == ()
    h0 = homology(K, 0)
    assert h0.rank == 0 and h0.invariant_factors == ()
    assert homology(K, 1).is_zero()


def test_homology_interval_with_two_vertices():
    # d(e) = v1 - v0: H0 = Z, H1 = 0
    K = two_term(ZZ, [[-1], [1]])
    h0 = homology(K, 0)
    assert h0.rank == 1 and h0.invariant_factors == ()
    assert homology(K, 1).is_zero()


def _solve_route_homology(K, n):
    """H_n as `homology` built it before it read coordinates: kernel(d_n),
    then a solve for the boundaries in cycle coordinates, then the
    cokernel; (kernel_incl, boundaries, presentation)."""
    _, incl = kernel(K.d(n))
    X = solve(incl, K.d(n + 1))
    assert X is not None
    return incl, X, cokernel(X)


def _typed(m):
    return {k: (v, type(v)) for k, v in m.entries.items()}


@settings(max_examples=60, deadline=None)
@given(st.sampled_from([ZZ, QQ, F5]), st.integers(1, 4), st.integers(1, 4),
       st.integers(0, 2 ** 32 - 1))
def test_homology_matches_the_solve_route(ring, max_degree, max_rank, seed):
    # the cycle basis, the boundaries in its coordinates, the
    # presentation's proj and section, the rank and the invariant
    # factors are those of the solve route, entry for entry; the induced
    # map of a random chain map lifts as a solve lifts it
    rng = random.Random(seed)
    K = corpus.random_complex(rng, ring, max_degree, max_rank=max_rank)
    L = corpus.random_complex(rng, ring, max_degree, max_rank=max_rank)
    f = corpus.random_chain_map(rng, K, L)
    for n in range(max_degree + 1):
        h = homology(K, n)
        incl, X, pres = _solve_route_homology(K, n)
        assert _typed(h.kernel_incl) == _typed(incl)
        assert _typed(h.boundaries) == _typed(X)
        assert h.boundaries.source == X.source and h.boundaries.target == X.target
        assert _typed(h.presentation.proj) == _typed(pres.proj)
        assert _typed(h.presentation.section) == _typed(pres.section)
        assert h.rank == pres.presentation.free_rank
        assert h.invariant_factors == pres.invariant_factors
        induced, Hs, Ht = homology_map(f, n)
        lifted = solve(Ht.kernel_incl, compose(f.component(n), Hs.kernel_incl))
        assert _typed(induced) == _typed(compose(Ht.presentation.proj, lifted))


@pytest.mark.parametrize("ring", [ZZ, QQ, F5], ids=["Z", "Q", "F5"])
def test_homology_of_a_normalized_level_matches_the_solve_route(ring):
    # N E(3) at degree 2 (ranks 6, 30, 150): the kernel bases are no
    # longer tiny, and H_0 is the ring with H_1 zero
    N = normalize(corpus.barratt_eccles_level(ring, 3, 2)).complex
    for n in range(3):
        h = homology(N, n)
        incl, X, pres = _solve_route_homology(N, n)
        assert _typed(h.kernel_incl) == _typed(incl)
        assert _typed(h.boundaries) == _typed(X)
        assert (h.rank, h.invariant_factors) == (
            pres.presentation.free_rank, pres.invariant_factors)
    assert [(homology(N, n).rank, homology(N, n).invariant_factors)
            for n in range(2)] == [(1, ()), (0, ())]


def test_homology_map_identity_is_iso():
    rng = random.Random(41)
    for _ in range(5):
        K = random_complex(rng, ZZ, 3)
        assert is_quasi_iso(ChainMap.identity(K))


def test_quasi_iso_detects_failure():
    # map Z --2--> Z concentrated in degree 0: multiplication by 2 is not
    # a homology iso over Z
    K = concentrated(ZZ, 0, 1)
    f = ChainMap(K, K, [LinearMap.from_rows(K.level(0), K.level(0), [[2]])])
    assert not is_quasi_iso(f, degrees=[0])
    assert is_quasi_iso(ChainMap.identity(K), degrees=[0])


def test_quasi_iso_with_torsion():
    # projection (Z --2--> Z) -> (0 --> Z/2 presented complex) is modeled by
    # comparing the two-term complex against itself via an automorphism
    K = two_term(ZZ, [[2]])
    f = ChainMap(K, K, [LinearMap.from_rows(K.level(0), K.level(0), [[-1]]),
                        LinearMap.from_rows(K.level(1), K.level(1), [[-1]])])
    assert is_quasi_iso(f, degrees=[0])


# ---------------------------------------------------------------------------
# pushouts
# ---------------------------------------------------------------------------


def test_pushout_of_identities():
    K = two_term(ZZ, [[2]])
    po = pushout_complex(ChainMap.identity(K), ChainMap.identity(K))
    assert po.complex.ranks() == K.ranks()
    assert po.inl.is_iso()


def test_pushout_along_zero_map_from_zero():
    K = two_term(ZZ, [[2]])
    L = two_term(ZZ, [[3]])
    Z = zero_complex(ZZ, 1)
    po = pushout_complex(ChainMap.zero(Z, K), ChainMap.zero(Z, L))
    assert po.complex.ranks() == (2, 2)
    assert compose(po.complex.d(1), LinearMap.identity(po.complex.level(1))).rank_of_image == 2 or True
    # direct sum: block diagonal differential
    d = po.complex.d(1).to_rows()
    flat = sorted(abs(v) for row in d for v in row if v)
    assert flat == [2, 3]


def test_pushout_rank2_against_degreewise_oracle():
    rng = random.Random(43)
    for _ in range(6):
        S = random_complex(rng, ZZ, 2)
        # maps out of S: scalar multiples of identity-shaped maps work when
        # target = S; use f = 2*id, g = 3*id
        two = ChainMap(S, S, [m.scale(2) for m in
                              (LinearMap.identity(M) for M in S.levels)], check=False)
        three = ChainMap(S, S, [m.scale(3) for m in
                                (LinearMap.identity(M) for M in S.levels)], check=False)
        po = pushout_complex(two, three)
        for n in range(3):
            stacked = vstack([two.component(n), -three.component(n)])
            oracle = cokernel(stacked)
            assert oracle.presentation.free_rank == po.complex.level(n).rank
            assert not oracle.presentation.invariant_factors
        # structure maps form a commuting square
        assert (po.inl @ two) == (po.inr @ three)


def test_pushout_mediating():
    K = two_term(ZZ, [[2]])
    po = pushout_complex(ChainMap.identity(K), ChainMap.identity(K))
    h = po.mediating(ChainMap.identity(K), ChainMap.identity(K))
    assert (h @ po.inl) == ChainMap.identity(K) or h.source.ranks() == K.ranks()


def test_pushout_source_mismatch():
    K, L = two_term(ZZ, [[2]]), zero_complex(ZZ, 1)
    with pytest.raises(ValueError):
        pushout_complex(ChainMap.identity(K), ChainMap.identity(L))


def test_pushout_torsion_rejected():
    # coker(2: Z -> Z) in a single degree has torsion
    M = concentrated(ZZ, 0, 1)
    f = ChainMap(M, M, [LinearMap.from_rows(M.level(0), M.level(0), [[2]])])
    Z = zero_complex(ZZ, 0)
    with pytest.raises(ValueError):
        pushout_complex(f, ChainMap.zero(M, Z))


# ---------------------------------------------------------------------------
# pushout-product and punctured cubes
# ---------------------------------------------------------------------------


def test_pushout_product_initial_maps():
    M = concentrated(ZZ, 0, 2)
    Z = zero_complex(ZZ, 0)
    f = ChainMap.zero(Z, M)
    sq = pushout_product(f, f)
    assert sq.source.total_rank() == 0
    assert sq.target.ranks() == tensor(M, M).ranks()


def test_pushout_product_identity_absorbs():
    K = two_term(ZZ, [[2]])
    f = ChainMap.identity(K)
    g = ChainMap(K, K, [LinearMap.from_rows(K.level(0), K.level(0), [[3]]),
                        LinearMap.from_rows(K.level(1), K.level(1), [[3]])])
    sq = pushout_product(g, f)
    # f identity: g square id is iso onto g tensor id up to the pushout
    # presentation; ranks and quasi-iso-ness agree
    gt = tensor_map(g, f)
    assert sq.target.ranks() == gt.target.ranks()
    assert sq.source.total_rank() == gt.source.total_rank()


# -- pushout-product powers and punctured cubes --------------------------------
#
# Only these tests build the n-fold pushout product of one map and the
# punctured-cube colimit that is its domain.


def iterated_pushout_product(f: ChainMap, n: int, bound=None) -> ChainMap:
    """f^{square n}, left-associated."""
    if n < 1:
        raise ValueError(f"pushout-product power {n} is not positive")
    out = f
    for _ in range(n - 1):
        out = pushout_product(out, f, bound)
    return out


def punctured_cube_colimit(f: ChainMap, n: int) -> ChainColimit:
    """Colimit over proper subsets S of {1..n} of the tensor with f's
    target in slots S and f's source elsewhere."""
    if n < 1:
        raise ValueError(f"punctured cube of dimension {n} is not positive")
    X, A = f.source, f.target
    subsets = []
    for size in range(n):
        for c in combinations(range(n), size):
            subsets.append(frozenset(c))
    subsets.sort(key=lambda s: (len(s), sorted(s)))
    index = {s: i for i, s in enumerate(subsets)}
    verts = [tensor_many([A if i in S else X for i in range(n)]) for S in subsets]
    edges = []
    for S in subsets:
        for i in range(n):
            if i in S:
                continue
            T = S | {i}
            if T not in index:
                continue
            emap = tensor_map_many([
                (ChainMap.identity(A) if k in S else
                 (f if k == i else ChainMap.identity(X)))
                for k in range(n)])
            edges.append((index[S], index[T], emap))
    return diagram_colimit(verts, edges)


def test_iterated_pushout_product_of_point_inclusion():
    # f: 0 -> Z[0]; f^{square n} has domain 0 and codomain Z in degree 0
    M = concentrated(ZZ, 0, 1)
    f = ChainMap.zero(zero_complex(ZZ, 0), M)
    for n in (2, 3):
        sq = iterated_pushout_product(f, n)
        assert sq.source.total_rank() == 0
        assert sq.target.total_rank() == 1
        Q = punctured_cube_colimit(f, n)
        assert Q.complex.total_rank() == 0


def test_punctured_cube_n1():
    K = two_term(ZZ, [[5]])
    f = ChainMap.identity(K)
    Q = punctured_cube_colimit(f, 1)
    assert Q.complex.ranks() == K.ranks()
    assert Q.injections[0].is_iso()


def test_punctured_cube_mapping_cylinder_instance():
    # X = Z[0], Y = Z[0] + Z[1] with zero differential; f includes the
    # degree-0 part
    X = concentrated(ZZ, 0, 1)
    Y = ChainComplex(ZZ, [FreeModule(ZZ, 1), FreeModule(ZZ, 1)],
                     [LinearMap.zero(FreeModule(ZZ, 1), FreeModule(ZZ, 1))])
    f = ChainMap(pad(X, 1), Y,
                 [LinearMap.identity(X.level(0)),
                  LinearMap.zero(pad(X, 1).level(1), Y.level(1))])
    Q = punctured_cube_colimit(f, 2)
    # oracle: direct diagram colimit over the three proper subsets
    XX = tensor(pad(X, 1), pad(X, 1))
    AX = tensor(Y, pad(X, 1))
    XA = tensor(pad(X, 1), Y)
    e1 = tensor_map(f, ChainMap.identity(pad(X, 1)))
    e2 = tensor_map(ChainMap.identity(pad(X, 1)), f)
    oracle = diagram_colimit([XX, AX, XA], [(0, 1, e1), (0, 2, e2)])
    assert Q.complex.ranks() == oracle.complex.ranks()


def test_pushout_product_domain_is_punctured_square():
    # natural agreement: mutually inverse mediating maps commuting with the
    # canonical maps to the tensor target
    X = concentrated(ZZ, 0, 1)
    Y = ChainComplex(ZZ, [FreeModule(ZZ, 1), FreeModule(ZZ, 1)],
                     [LinearMap.zero(FreeModule(ZZ, 1), FreeModule(ZZ, 1))])
    f = ChainMap(pad(X, 1), Y,
                 [LinearMap.identity(X.level(0)),
                  LinearMap.zero(pad(X, 1).level(1), Y.level(1))])

    sq = pushout_product(f, f)
    Q = punctured_cube_colimit(f, 2)
    assert Q.complex.ranks() == sq.source.ranks()

    # rebuild the iterated domain's pushout to get its legs
    top = tensor_map(f, ChainMap.identity(f.source))
    left = tensor_map(ChainMap.identity(f.source), f)
    po = pushout_complex(top, left)
    # cube -> pushout: legs for vertices [empty, {0}, {1}]
    legs = [po.inl @ top, po.inl, po.inr]
    comp1 = Q.mediating(legs)
    # pushout -> cube
    comp2 = po.mediating(Q.injections[1], Q.injections[2])
    round1 = comp2 @ comp1
    round2 = comp1 @ comp2
    assert all(c.entries == LinearMap.identity(c.source).entries
               for c in round1.components)
    assert all(c.entries == LinearMap.identity(c.source).entries
               for c in round2.components)
    # naturality: the canonical maps to Y (x) Y commute with comp1
    u = tensor_map(ChainMap.identity(f.target), f)
    v = tensor_map(f, ChainMap.identity(f.target))
    q_iter = po.mediating(u, v)
    q_cube = Q.mediating([tensor_map(f, f), u, v])
    assert (q_iter @ comp1) == q_cube


def test_d_squared_enforced():
    M = FreeModule(ZZ, 1)
    with pytest.raises(ValueError):
        ChainComplex(ZZ, [M, M, M],
                     [LinearMap.from_rows(M, M, [[1]]),
                      LinearMap.from_rows(M, M, [[1]])])


def test_chain_map_must_commute():
    K = two_term(ZZ, [[2]])
    with pytest.raises(ValueError):
        ChainMap(K, K, [LinearMap.identity(K.level(0)),
                        LinearMap.from_rows(K.level(1), K.level(1), [[2]])])


def test_json_roundtrip():
    rng = random.Random(47)
    K = random_complex(rng, ZZ, 3)
    K2 = chain_from_json(chain_to_json(K))
    assert K2 == K


@pytest.mark.parametrize("levels, count", [([1], 1), ([], 1), ([2, 1], 3)])
def test_json_more_differentials_than_levels_raises(levels, count):
    d = {"ring": "Z", "rows": 1, "cols": 1, "entries": []}
    data = {"ring": "Z", "levels": levels, "differentials": [d] * count}
    with pytest.raises(ValueError, match=rf"^{count} differentials need "
                                         rf"{count + 1} levels, got "
                                         rf"{len(levels)}$"):
        chain_from_json(data)


@pytest.mark.parametrize("levels", [[-2], [True], [2.5], ["2"], [None],
                                    [1, -1], [1, False]])
def test_json_refuses_a_level_rank_that_is_not_a_rank(levels):
    # -2 read as a silent zero level, True as rank 1
    d = {"ring": "Z", "rows": 1, "cols": 0, "entries": []}
    data = {"ring": "Z", "levels": levels,
            "differentials": [d] * (len(levels) - 1)}
    with pytest.raises(ValueError, match="rank must be an int >= 0"):
        chain_from_json(data)


def _bad_chain_document(case):
    """chain_to_json of a rank-2 complex over Z, with one field broken."""
    data = chain_to_json(two_term(ZZ, [[1, 0], [0, 1]]))
    if case == "ring":
        data["differentials"][0] = matrix_to_json(
            LinearMap.from_rows(FreeModule(QQ, 2), FreeModule(QQ, 2),
                                [[Fraction(1, 2), 0], [0, 1]]))
    elif case == "shape":
        data["differentials"][0] = matrix_to_json(
            LinearMap.identity(FreeModule(ZZ, 1)))
    elif case == "max_degree":
        data["max_degree"] = 3
    else:
        del data["max_degree"]
    return data


_BAD_CHAIN_DOCUMENTS = {
    "ring": r"^a 2x2 matrix over Q in a 2x2 slot over Z$",
    "shape": r"^a 1x1 matrix over Z in a 2x2 slot over Z$",
    "max_degree": r"^max_degree 3 does not match 2 levels$",
    "no-max_degree": r"^max_degree None does not match 2 levels$",
}


@pytest.mark.parametrize("case", sorted(_BAD_CHAIN_DOCUMENTS))
def test_json_refuses_a_matrix_or_max_degree_that_misses_its_slot(case):
    # the Q differential holding 1/2 loaded as zero, the 1x1 one filled
    # the 2x2 slot, and a declared max_degree was never read
    with pytest.raises(ValueError, match=_BAD_CHAIN_DOCUMENTS[case]):
        chain_from_json(_bad_chain_document(case))


def test_json_bad_rational_entries_raise():
    K = two_term(QQ, [[Fraction(1, 2)]])
    for bad in (["1/0"], ["1/2", "1/2"]):
        data = chain_to_json(K)
        data["differentials"][0]["entries"] = [[0, 0, s] for s in bad]
        with pytest.raises(ValueError, match="denominator 0|listed twice"):
            chain_from_json(data)


def _complex_inputs():
    M1, M2, M3 = (FreeModule(ZZ, r) for r in (1, 2, 3))
    return {
        "empty": ((ZZ, [], []), "at least degree 0"),
        "count": ((ZZ, [M3, M2], []), "need 1 differentials, got 0"),
        "ring": ((QQ, [M1], []), "level 0 is over Z, not Q"),
        # d_1: M1 -> M1 on levels of ranks (3, 2)
        "shape": ((ZZ, [M3, M2], [LinearMap.identity(M2)]),
                  "d_1 is not a map from level 1 to level 0"),
    }


@pytest.mark.parametrize("case", sorted(_complex_inputs()))
def test_chain_complex_refuses_malformed_input(case):
    # explicit raises, so they also hold under python -O
    args, msg = _complex_inputs()[case]
    with pytest.raises(ValueError, match=msg):
        ChainComplex(*args)


def _chain_map_inputs():
    K, L = two_term(ZZ, [[1, 0]]), two_term(ZZ, [[1]])
    f = ChainMap(L, L, [LinearMap.identity(M) for M in L.levels])
    KQ = two_term(QQ, [[1]])
    comps = list(f.components)
    return {
        "ring": ((L, KQ, comps), "ring mismatch"),
        "degree": ((L, pad(L, 2), comps), "truncated at different degrees"),
        "count": ((L, L, comps[:1]), "need 2 components, got 1"),
        # component 1 lands in a rank-2 module where L_1 has rank 1
        "target": ((L, L, [comps[0], LinearMap.from_rows(
            L.level(1), K.level(1), [[1], [0]])]),
            "component 1 is not a map between the degree-1 levels"),
    }


@pytest.mark.parametrize("case", sorted(_chain_map_inputs()))
def test_chain_map_refuses_malformed_input(case):
    args, msg = _chain_map_inputs()[case]
    with pytest.raises(ValueError, match=msg):
        ChainMap(*args)


def _chain_input_checks():
    K = two_term(ZZ, [[2]])
    idK, id3 = ChainMap.identity(K), ChainMap.identity(pad(K, 3))
    colim = diagram_colimit([K], [])
    po = pushout_complex(idK, idK)
    return {
        "pad": (lambda: pad(pad(K, 2), 1),
                "cannot pad a complex of max_degree 2 down to 1"),
        "homology-below": (lambda: homology(K, -1),
                           r"homology degree -1 outside 0\.\.1"),
        "homology-above": (lambda: homology(K, 2),
                           r"homology degree 2 outside 0\.\.1"),
        "direct-sum": (lambda: direct_sum(K, pad(K, 2)),
                       "summands differ in ring or max_degree"),
        "compose": (lambda: idK @ ChainMap.identity(two_term(ZZ, [[1, 0]])),
                    "composable chain maps need matching ranks"),
        "legs": (lambda: colim.mediating([idK, idK]),
                 "2 legs for a diagram of 1 vertices"),
        "colimit-degree": (lambda: colim.mediating([id3]),
                           "cocone target exceeds colimit truncation"),
        "empty-diagram": (lambda: diagram_colimit([], []),
                          "needs at least one vertex"),
        "empty-tensor-maps": (lambda: tensor_map_many([]),
                              "empty tensor product of maps"),
        "pushout-degree": (lambda: po.mediating(id3, id3),
                           "cocone target exceeds pushout truncation"),
        "power": (lambda: iterated_pushout_product(idK, 0),
                  "pushout-product power 0 is not positive"),
        "cube": (lambda: punctured_cube_colimit(idK, 0),
                 "punctured cube of dimension 0 is not positive"),
    }


@pytest.mark.parametrize("case", sorted(_chain_input_checks()))
def test_chain_input_checks_raise_value_error(case):
    # explicit raises, so they also hold under python -O
    call, msg = _chain_input_checks()[case]
    with pytest.raises(ValueError, match=msg):
        call()


def test_homology_invariant_raises_runtime_error(monkeypatch):
    # homology reads the boundaries in cycle coordinates; a coordinate
    # routine that finds a column outside the span must surface as the
    # broken invariant, not as the routine's ValueError
    import opdk.chain as chain_module

    def refuse(basis, pivots, x):
        raise ValueError("column is not in the span of the basis")

    monkeypatch.setattr(chain_module, "_coordinates", refuse)
    with pytest.raises(RuntimeError, match="boundaries must lie in the "
                                           "cycle lattice"):
        homology(two_term(ZZ, [[2]]), 0)


def test_homology_map_invariant_raises_runtime_error():
    # e in degree 1 is a cycle, and its image a is not: f is no chain map
    K = pad(concentrated(ZZ, 1, 1), 1)
    L = two_term(ZZ, [[1]])
    f = ChainMap(K, L, [LinearMap.zero(K.level(0), L.level(0)),
                        LinearMap(K.level(1), L.level(1), {(0, 0): 1})],
                 check=False)
    with pytest.raises(RuntimeError, match="chain maps send cycles to cycles"):
        homology_map(f, 1)


def test_chain_from_json_of_an_empty_document_names_the_ring():
    with pytest.raises(ValueError, match="needs the key 'ring'"):
        chain_from_json({})


@pytest.mark.parametrize("value", [5, None, {"0": 1}, "d"])
def test_chain_from_json_refuses_differentials_that_are_not_a_list(value):
    data = chain_to_json(two_term(ZZ, [[1]]))
    data["differentials"] = value
    with pytest.raises(ValueError, match="'differentials' of a chain "
                                         "complex document is a list"):
        chain_from_json(data)
