"""Normalization of simplicial modules and its inverse construction.

`normalize` carries a truncated simplicial module to the complex of
intersected face kernels, together with the inclusion into the Moore
complex and the projection splitting it off.  Both come from the
degeneracy idempotent p_n = (1 - s_0 d_1)(1 - s_1 d_2) ... (1 - s_{n-1} d_n),
whose rightmost factor acts first: its image is N_n, its kernel the
degenerate part D_n, and no Smith form, solve or inverse is needed.
Three checks per level (d_i p_n = 0 for i >= 1, p_n fixing the chosen
basis of its image, p_n s_j = 0) certify A_n = N_n (+) D_n; a module
that breaks the simplicial identities fails one of them with
ValueError.  `gamma` rebuilds a
simplicial module from a complex as a direct sum indexed by monotone
surjections; normalizing a `gamma` image returns the input complex on
the nose, and `counit` realizes the comparison in the other order.
Which summands level n has, and how a face or degeneracy theta acts on
each through the epi-mono factorization of eta . theta, depend on n and
theta only, never on the complex: both are tabled once per degree
(`_surjection_index`, `_gamma_action`), and each complex only places
its identity and differential blocks at its own summand offsets.
The Eilenberg-Zilber maps `aw` and `shuffle` relate the normalization
of a tensor product to the tensor product of the normalizations, and
`gamma_oplax` assembles them into the oplax structure map of gamma.

None of the sign or direction conventions below are taken on faith:
every map is constructed with its defining property checked (chain
maps commute with d, simplicial maps with all faces and degeneracies,
corestrictions through the projection are checked against the
inclusion), so a wrong convention fails at
construction time rather than producing a plausible-looking matrix.
"""

from __future__ import annotations

import functools
from itertools import combinations
from typing import Optional

from . import permutations
from .chain import ChainComplex, ChainMap, tensor_blocks
from .chain import tensor as tensor_complex
from .exactlin import (FreeModule, LinearMap, _coordinates, _image_basis,
                       compose)
from .simp import (
    SimplicialMap,
    SimplicialModule,
    compose_monotone,
    delta,
    monotone_surjections,
    moore_complex,
    sigma,
    simplicial_operator,
    surjection_from_word,
)
from .simp import tensor as tensor_simplicial

__all__ = ["Normalization", "normalize", "normalize_map", "gamma_summands",
           "gamma", "gamma_map", "counit", "aw", "shuffle", "gamma_oplax",
           "normalize_operad_data", "normalize_operad"]


# ---------------------------------------------------------------------------
# normalization
# ---------------------------------------------------------------------------


class Normalization:
    """A normalized complex together with its Moore-complex splitting.

    `incl` includes the complex into the Moore complex (same levels as
    the simplicial module, alternating face sum differential); `proj`
    retracts onto it, killing the degenerate part: proj . incl = id.
    """

    __slots__ = ("complex", "moore", "incl", "proj")

    def __init__(self, complex: ChainComplex, moore: ChainComplex,
                 incl: ChainMap, proj: ChainMap):
        self.complex = complex
        self.moore = moore
        self.incl = incl
        self.proj = proj

    def __repr__(self):
        return f"Normalization(ranks={self.complex.ranks()})"


def _idempotent(A: SimplicialModule, n: int) -> LinearMap:
    """p_n = (1 - s_0 d_1)(1 - s_1 d_2) ... (1 - s_{n-1} d_n) on level n.

    The rightmost factor acts first: once 1 - s_{i} d_{i+1} has made
    d_{i+1} vanish, the factors to its left keep it vanishing.  Column j
    is basis vector j pushed through the n factors in turn, with each
    face and degeneracy indexed by column once; a vector that dies stops,
    and a factor whose face misses the vector leaves it as it is.
    """
    ring = A.ring
    mod = ring.p

    def by_column(m):
        cols: dict = {}
        for (i, j), v in m.entries.items():
            cols.setdefault(j, []).append((i, v))
        return cols

    factors = [(by_column(A.face(n, i + 1)), by_column(A.degeneracy(n - 1, i)))
               for i in range(n - 1, -1, -1)]
    entries = {}
    for j in range(A.level(n).rank):
        vec = {j: ring.one}
        for face, degeneracy in factors:
            dv: dict = {}
            for t, x in vec.items():
                for r, y in face.get(t, ()):
                    dv[r] = dv[r] + x * y if r in dv else x * y
            if not dv:
                continue
            for t, x in dv.items():
                for r, y in degeneracy.get(t, ()):
                    vec[r] = vec[r] - x * y if r in vec else -x * y
            if mod is None:
                vec = {r: x for r, x in vec.items() if x}
            else:
                vec = {r: x % mod for r, x in vec.items() if x % mod}
            if not vec:
                break
        for r, x in vec.items():
            entries[(r, j)] = x
    return LinearMap(A.level(n), A.level(n), entries)


def _corestrict(nz: Normalization, n: int, x: LinearMap) -> LinearMap:
    """The unique c with incl_n . c = x; ValueError if x leaves N_n."""
    c = compose(nz.proj.component(n), x)
    if compose(nz.incl.component(n), c).entries != x.entries:
        raise ValueError(f"map leaves the normalized summand at degree {n}")
    return c


def normalize(A: SimplicialModule) -> Normalization:
    """N(A)_n = ker d_1 intersect .. intersect ker d_n, with d_0.

    Level n is the image of the degeneracy idempotent
    p_n = (1 - s_0 d_1)(1 - s_1 d_2) ... (1 - s_{n-1} d_n), rightmost
    factor first (Goerss-Jardine III.2), built column by column
    (`_idempotent`).  incl_n is a canonical basis of that image, the
    Hermite basis over Z and the reduced echelon basis over a field, as
    `kernel` returns; proj_n reads off the coordinates of p_n with
    `exactlin._coordinates`, the routine `homology` reads boundaries
    with, which checks incl_n . proj_n = p_n.  Each step
    follows the supports, so the work grows with the entries, not with
    the square of the rank.

    x - p_n x lies in the degenerate part D_n for every x, and p_n fixes
    every x killed by d_1..d_n, whatever the structure maps are.  Three
    checks then certify A_n = N_n (+) D_n and raise ValueError on a
    module that breaks the simplicial identities: d_i p_n = 0 for
    1 <= i <= n (the image is N_n), proj_n . incl_n = id (p_n is
    idempotent) and p_n s_j = 0 for j < n (the kernel is D_n).  The
    second is checked on the small square proj_n . incl_n rather than as
    p_n . incl_n = incl_n: `_coordinates` has checked incl_n . proj_n =
    p_n, so p_n . incl_n = incl_n . (proj_n . incl_n), and as incl_n is
    injective that equals incl_n exactly when proj_n . incl_n = id.
    """
    ring, one = A.ring, A.ring.one
    D = A.max_degree
    moore = moore_complex(A)
    ident = LinearMap.identity(A.level(0))
    incls, projs = [ident], [ident]
    for n in range(1, D + 1):
        p = _idempotent(A, n)
        incl, pivots = _image_basis(p)
        proj = _coordinates(incl, pivots, p)
        # p = incl . proj with incl injective, so the checks on p read
        # off the thinner factors: d_i p = 0 iff d_i incl = 0,
        # p s_j = 0 iff proj s_j = 0, and p incl = incl iff
        # proj incl = id
        for i in range(1, n + 1):
            if not compose(A.face(n, i), incl).is_zero():
                raise ValueError(f"d_{i} does not vanish on p_{n}: "
                                 "not a simplicial module")
        for j in range(n):
            if not compose(proj, A.degeneracy(n - 1, j)).is_zero():
                raise ValueError(f"p_{n} does not kill s_{j}: "
                                 "not a simplicial module")
        square = compose(proj, incl).entries
        if square != {(k, k): one for k in range(incl.source.rank)}:
            raise ValueError(f"p_{n} is not idempotent: not a simplicial module")
        incls.append(incl)
        projs.append(proj)
    levels = [f.source for f in incls]
    diffs = [compose(projs[n - 1], compose(A.face(n, 0), incls[n]))
             for n in range(1, D + 1)]
    N = ChainComplex(ring, levels, diffs)
    # both are checked: incl commuting with d certifies that d_0 keeps
    # N inside the face kernels, and proj commuting with d that the
    # degenerate part is a subcomplex
    incl = ChainMap(N, moore, incls)
    proj = ChainMap(moore, N, projs)
    return Normalization(N, moore, incl, proj)


def normalize_map(f: SimplicialMap,
                  source: Optional[Normalization] = None,
                  target: Optional[Normalization] = None) -> ChainMap:
    """N(f).  Simplicial maps preserve face kernels, so the restriction
    is corestricted through the target projection and checked against
    the target inclusion."""
    if source is None:
        source = normalize(f.source)
    if target is None:
        target = normalize(f.target)
    comps = [_corestrict(target, n, compose(f.component(n), source.incl.component(n)))
             for n in range(f.source.max_degree + 1)]
    return ChainMap(source.complex, target.complex, comps)


# ---------------------------------------------------------------------------
# the inverse construction
# ---------------------------------------------------------------------------


@functools.cache
def _surjection_index(n: int) -> tuple:
    """The summands of level n of gamma, (k, eta) over eta: [n] ->> [k]:
    k descending, eta lexicographic within each k."""
    return tuple((k, eta) for k in range(n, -1, -1)
                 for eta in monotone_surjections(n, k))


@functools.cache
def _gamma_action(theta, n: int) -> tuple:
    """How theta: [m] -> [n] acts from level n of gamma to level m, per
    summand eta: [n] ->> [k] of level n (Goerss-Jardine III.2).

    Factor eta . theta through its image: a full image sends the summand
    by the identity onto the summand of that surjection, (t, False); the
    image {1..k} sends it by d_k onto summand t of k - 1, (t, True);
    any other image kills it, None.  t indexes `_surjection_index(m)`.
    """
    m = len(theta) - 1
    where = {key: t for t, key in enumerate(_surjection_index(m))}
    out = []
    for k, eta in _surjection_index(n):
        c = compose_monotone(eta, theta)
        image = sorted(set(c))
        if len(image) == k + 1:
            out.append((where[(k, c)], False))
        elif image == list(range(1, k + 1)):
            out.append((where[(k - 1, tuple(v - 1 for v in c))], True))
        else:
            out.append(None)
    return tuple(out)


def gamma_summands(K: ChainComplex, n: int):
    """Index of gamma(K) at level n: (k, eta, offset) over eta: [n] ->> [k].

    The identity surjection comes first (k descending, eta lexicographic
    within each k), so every level starts with a verbatim copy of K_n
    and normalizing the result reads off exactly that copy.  The order
    is `_surjection_index(n)`, tabled once per degree; only the offsets
    read K's ranks.
    """
    ranks = K.ranks()
    out = []
    off = 0
    for k, eta in _surjection_index(n):
        out.append((k, eta, off))
        if k < len(ranks):
            off += ranks[k]
    return out


def gamma(K: ChainComplex, max_degree: Optional[int] = None) -> SimplicialModule:
    """Simplicial module with level n the sum of K_k over [n] ->> [k].

    A face or degeneracy theta acts on each summand through the
    factorization of eta . theta, which `_gamma_action` tables once per
    (theta, n), independent of K: each operator is the identity and
    differential blocks of K placed at the summand offsets.
    """
    D = K.max_degree if max_degree is None else max_degree
    summands = [gamma_summands(K, n) for n in range(D + 1)]
    levels = [FreeModule(K.ring, sum(K.level(k).rank for k, _, _ in s))
              for s in summands]
    idents = [LinearMap.identity(K.level(k)) for k in range(D + 1)]

    def operator(theta, n, m):
        # theta: [m] -> [n] acts from level n to level m
        tgt = summands[m]
        blocks = []
        for (k, _, off), act in zip(summands[n], _gamma_action(theta, n)):
            if act is not None:
                t, through_d = act
                blocks.append((tgt[t][2], off, K.d(k) if through_d else idents[k]))
        return LinearMap.placed(levels[n], levels[m], blocks)

    faces = [[operator(delta(i, n), n, n - 1) for i in range(n + 1)]
             for n in range(1, D + 1)]
    degeneracies = [[operator(sigma(i, n), n, n + 1) for i in range(n + 1)]
                    for n in range(D)]
    return SimplicialModule(K.ring, levels, faces, degeneracies)


def gamma_map(f: ChainMap, max_degree: Optional[int] = None) -> SimplicialMap:
    """Summandwise application of f; simplicial because the structure
    blocks of gamma are identities and components of the differential."""
    D = f.source.max_degree if max_degree is None else max_degree
    A, B = gamma(f.source, D), gamma(f.target, D)
    comps = []
    for n in range(D + 1):
        blocks = [(to, off, f.component(k)) for (k, _, off), (_, _, to)
                  in zip(gamma_summands(f.source, n), gamma_summands(f.target, n))]
        comps.append(LinearMap.placed(A.level(n), B.level(n), blocks))
    return SimplicialMap(A, B, comps)


def counit(A: SimplicialModule, nz: Optional[Normalization] = None) -> SimplicialMap:
    """gamma(N(A)) -> A, acting on the eta-summand by A(eta) after incl.

    Constructing this as a SimplicialMap checks commutation with every
    face and degeneracy, which pins the structure rule of `gamma`
    against honestly computed simplicial operators.
    """
    if nz is None:
        nz = normalize(A)
    G = gamma(nz.complex, A.max_degree)
    comps = []
    for n in range(A.max_degree + 1):
        blocks = [(0, off, compose(simplicial_operator(A, eta, k),
                                   nz.incl.component(k)))
                  for k, eta, off in gamma_summands(nz.complex, n)]
        comps.append(LinearMap.placed(G.level(n), A.level(n), blocks))
    return SimplicialMap(G, A, comps)


# ---------------------------------------------------------------------------
# Eilenberg-Zilber maps
# ---------------------------------------------------------------------------


def _product_normalization(A: SimplicialModule, B: SimplicialModule,
                           nab: Optional[Normalization]) -> Normalization:
    """nab, checked to be a normalization of a module shaped like
    A (x) B; the normalization of A (x) B itself when nab is None.

    A given nab is trusted to be N(A (x) B): A (x) B is not rebuilt to
    compare it entry for entry.  Its ring and its Moore ranks must still
    be A's ring and the degreewise products of A's and B's ranks, or
    ValueError.
    """
    if A.ring != B.ring:
        raise ValueError("ring mismatch")
    if nab is None:
        return normalize(tensor_simplicial(A, B))
    D = min(A.max_degree, B.max_degree)
    want = tuple(A.level(n).rank * B.level(n).rank for n in range(D + 1))
    if nab.moore.ring != A.ring or nab.moore.ranks() != want:
        raise ValueError(
            f"nab has Moore ranks {nab.moore.ranks()}, but A (x) B has {want}")
    return nab


def aw(A: SimplicialModule, B: SimplicialModule,
       na: Optional[Normalization] = None,
       nb: Optional[Normalization] = None,
       nab: Optional[Normalization] = None) -> ChainMap:
    """Alexander-Whitney map N(A (x) B) -> N(A) (x) N(B).

    The (p, q) block is front face tensor back face: restrict a to its
    first p vertices and b to its last q, then project both to the
    normalized summands.  A given `nab` stands for N(A (x) B), which is
    then not rebuilt (`_product_normalization`).
    """
    nab = _product_normalization(A, B, nab)
    if na is None:
        na = normalize(A)
    if nb is None:
        nb = normalize(B)
    D = nab.complex.max_degree
    NN = tensor_complex(na.complex, nb.complex, bound=D)
    comps = []
    for n in range(D + 1):
        blocks = []
        for p, q, off in tensor_blocks(na.complex, nb.complex, n):
            front = simplicial_operator(A, tuple(range(p + 1)), n)
            back = simplicial_operator(B, tuple(range(p, n + 1)), n)
            fa = compose(na.proj.component(p), front)
            fb = compose(nb.proj.component(q), back)
            blocks.append((off, 0, compose(fa.tensor(fb), nab.incl.component(n))))
        comps.append(LinearMap.placed(nab.complex.level(n), NN.level(n), blocks))
    return ChainMap(nab.complex, NN, comps)


def _shuffle_entries(A: SimplicialModule, B: SimplicialModule,
                     na: Normalization, nb: Normalization, n: int) -> dict:
    """Level n of the shuffle map before corestriction, as entries of a
    map from N(A) (x) N(B) in degree n to level n of A (x) B.

    The (p, q) block sends x (x) y to the signed sum over complementary
    index sets mu, nu inside {0..p+q-1} of s_nu x (x) s_mu y.
    """
    ring = A.ring
    entries = {}
    for p, q, off in tensor_blocks(na.complex, nb.complex, n):
        if na.complex.level(p).rank == 0 or nb.complex.level(q).rank == 0:
            continue
        acc: dict = {}
        for mu in combinations(range(n), p):
            nu = tuple(i for i in range(n) if i not in mu)
            sgn = ring.normalize(permutations.sign(mu + nu))
            sa = simplicial_operator(
                A, surjection_from_word(tuple(reversed(nu)), p), p)
            sb = simplicial_operator(
                B, surjection_from_word(tuple(reversed(mu)), q), q)
            term = compose(sa, na.incl.component(p)).tensor(
                compose(sb, nb.incl.component(q)))
            for key, v in term.entries.items():
                acc[key] = ring.add(acc.get(key, ring.zero), ring.mul(sgn, v))
        for (i, j), v in acc.items():
            if v != ring.zero:
                entries[(i, off + j)] = v
    return entries


def shuffle(A: SimplicialModule, B: SimplicialModule,
            na: Optional[Normalization] = None,
            nb: Optional[Normalization] = None,
            nab: Optional[Normalization] = None) -> ChainMap:
    """Shuffle map N(A) (x) N(B) -> N(A (x) B).

    Each level of the signed sum lands in the face kernels of the
    product; the corestriction goes through the projection and is
    checked against the inclusion.  A given `nab` stands for
    N(A (x) B), as in `aw`.
    """
    nab = _product_normalization(A, B, nab)
    if na is None:
        na = normalize(A)
    if nb is None:
        nb = normalize(B)
    D = nab.complex.max_degree
    NN = tensor_complex(na.complex, nb.complex, bound=D)
    comps = [_corestrict(nab, n, LinearMap(NN.level(n), nab.moore.level(n),
                                           _shuffle_entries(A, B, na, nb, n)))
             for n in range(D + 1)]
    return ChainMap(NN, nab.complex, comps)


def gamma_oplax(K: ChainComplex, L: ChainComplex,
                max_degree: Optional[int] = None) -> SimplicialMap:
    """Oplax structure map gamma(K (x) L) -> gamma(K) (x) gamma(L).

    Built as the counit after gamma applied to the shuffle map of the
    two gamma images; since normalization undoes gamma on the nose, the
    shuffle starts from (a padding of) K (x) L itself.  The default
    truncation keeps all of K (x) L.
    """
    D = K.max_degree + L.max_degree if max_degree is None else max_degree
    GK, GL = gamma(K, D), gamma(L, D)
    AB = tensor_simplicial(GK, GL)
    nab = normalize(AB)
    nabla = shuffle(GK, GL, nab=nab)
    eps = counit(AB, nab)
    lifted = gamma_map(nabla, D)
    comps = [compose(eps.component(n), lifted.component(n)) for n in range(D + 1)]
    return SimplicialMap(lifted.source, eps.target, comps)


# ---------------------------------------------------------------------------
# normalization of operads
# ---------------------------------------------------------------------------


def normalize_operad_data(P):
    """Normalization applied to every level of a simplicial operad.

    Returns the chain operad together with the per-signature
    Normalization records, so morphisms can be transported without
    recomputing kernels.  Structure maps are conjugated through the
    shuffle map, which respects both associativities because
    the simplicial tensor is strict and the shuffle is associative and
    symmetric; the result is replayed through the full law check and a
    violation is an internal error, not a property of the input.

    Objects are shared by value within this call: levels (and unit
    sources) that are equal as simplicial modules share one
    Normalization, so they become one complex of the chain operad, and
    the normalized tensor N(X (x) Y) and the shuffle map are built once
    per pair of distinct level values; each structure map is still
    normalized on its own.  The law check shares by value in the same
    way (`operad_check`).  Nothing is cached across calls or between
    operads.
    """
    from . import operad as _op
    coll = P.collection
    if coll.ops.Obj is not SimplicialModule:
        raise ValueError("only simplicial operads normalize")
    ring, D = coll.ring, coll.max_degree
    ops = _op._ops_for("chain", ring, D)
    by_value: dict = {}
    nz: dict = {}

    def shared(A):
        nA = by_value.get(A)
        if nA is None:
            nA = by_value[A] = normalize(A)
        return nA

    def norm(sig):
        sig = (tuple(sig[0]), sig[1])
        if sig not in nz:
            nz[sig] = shared(coll.level(sig))
        return nz[sig]

    levels = {sig: norm(sig).complex for sig in coll.signatures()}
    actions = {sig: {s: normalize_map(coll.action(sig, s), norm(sig),
                                      norm(_op.sig_act(sig, s)))
                     for s in permutations.transpositions(len(sig[0]))}
               for sig in coll.signatures()}

    units = {}
    usrc = ops.unit_obj()
    for c in coll.colors:
        u = P.unit(c)
        nu = normalize_map(u, shared(u.source), norm(((c,), c)))
        if nu.source.ranks() != usrc.ranks():
            raise RuntimeError(f"the normalized unit of color {c!r} has "
                               f"source ranks {nu.source.ranks()}, not "
                               f"{usrc.ranks()}")
        units[c] = ops.maps(usrc, nu.target,
                            [f.entries for f in nu.components])

    # N(X (x) Y) and the shuffle, keyed by the shared normalizations of
    # X and Y, which hold them alive
    products: dict = {}
    comps = {}
    for (osig, i, isig), f in P.compositions.items():
        nX, nY = norm(osig), norm(isig)
        key = (id(nX), id(nY))
        if key not in products:
            X, Y = coll.level(osig), coll.level(isig)
            nab = normalize(tensor_simplicial(X, Y))
            products[key] = (nab, shuffle(X, Y, nX, nY, nab))
        nab, sh = products[key]
        gsig = _op.graft_signature(osig, i, isig)
        comps[(osig, i, isig)] = normalize_map(f, nab, norm(gsig)) @ sh

    newcoll = _op.Collection(ring, "chain", coll.colors, coll.max_arity, D,
                             levels, actions, truncated=coll.truncated)
    Q = _op.Operad(newcoll, units, comps)
    bad = _op.operad_check(Q)
    if bad:
        raise RuntimeError(f"normalized operad violates the laws: {bad[:3]}")
    return Q, nz


def normalize_operad(P):
    """The chain operad with levels N(P(sig)) and shuffled compositions."""
    return normalize_operad_data(P)[0]
