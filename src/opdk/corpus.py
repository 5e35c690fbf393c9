"""Seeded pseudo-random corpora for the verification suites.

Every generator draws from a caller-owned random.Random, so a single
seed pins the whole corpus; CORPUS_VERSION names the recipe and goes
into verification reports so failures reproduce across machines.

Valid simplicial modules are produced as change-of-basis conjugates of
gamma images: conjugating every face and degeneracy by levelwise
unimodular maps preserves all simplicial identities exactly while
hiding the direct-sum decomposition from the code under test.
"""

from __future__ import annotations

import random
from math import factorial
from typing import Optional

from .chain import (ChainComplex, ChainMap, concentrated, pad, tensor_blocks,
                    two_term)
from .doldkan import gamma, gamma_map
from .exactlin import FreeModule, LinearMap, compose, kernel
from . import operad as op, permutations as perms, trees
from .rings import Ring
from .simp import SimplicialMap, SimplicialModule

__all__ = ["CORPUS_VERSION", "random_matrix", "random_complex",
           "random_chain_map", "random_unimodular", "conjugate",
           "SimplicialInstance", "random_instance", "random_simplicial_module",
           "random_simplicial_map", "barratt_eccles_level", "category_operad",
           "acyclic_disk", "loop_disk", "trivial_operad", "indiscrete_operad",
           "disconnected_operad", "scaled_pair_operad", "point_inclusion",
           "nilpotent_two_color_operad", "random_collection",
           "binary_generator", "split_binary_inclusion",
           "two_color_binary_inclusion"]

CORPUS_VERSION = "corpus-1"


def random_matrix(rng: random.Random, source, target, bound: int = 2,
                  density: float = 0.6) -> LinearMap:
    ring = source.ring
    entries = {}
    for i in range(target.rank):
        for j in range(source.rank):
            if rng.random() < density:
                v = ring.normalize(rng.randint(-bound, bound))
                if v != ring.zero:
                    entries[(i, j)] = v
    return LinearMap(source, target, entries)


def random_complex(rng: random.Random, ring: Ring, max_degree: int,
                   max_rank: int = 3, bound: int = 2) -> ChainComplex:
    """d*d = 0 by construction: each differential factors through the
    saturated kernel of the previous one."""
    ranks = [rng.randint(0, max_rank) for _ in range(max_degree + 1)]
    if not any(ranks):
        ranks[rng.randrange(max_degree + 1)] = 1
    levels = [FreeModule(ring, r) for r in ranks]
    diffs = []
    for n in range(1, max_degree + 1):
        if n == 1:
            d = random_matrix(rng, levels[1], levels[0], bound)
        else:
            _, incl = kernel(diffs[-1])
            d = compose(incl, random_matrix(rng, levels[n], incl.source, bound))
        diffs.append(d)
    return ChainComplex(ring, levels, diffs)


def random_chain_map(rng: random.Random, K: ChainComplex, L: ChainComplex,
                     bound: int = 2) -> ChainMap:
    """Random point of the full lattice of chain maps K -> L.

    The commutation constraints are one linear system over the ring;
    a random small combination of its saturated kernel basis is a chain
    map, and every chain map arises this way.
    """
    if K.ring != L.ring or K.max_degree != L.max_degree:
        raise ValueError("chain maps need complexes over one ring and of "
                         "one degree")
    ring = K.ring
    D = K.max_degree
    col_off, total = {}, 0
    for n in range(D + 1):
        col_off[n] = total
        total += K.level(n).rank * L.level(n).rank
    row_off, rows_total = {}, 0
    for n in range(1, D + 1):
        row_off[n] = rows_total
        rows_total += K.level(n).rank * L.level(n - 1).rank
    src = FreeModule(ring, total)
    tgt = FreeModule(ring, rows_total)
    ent: dict = {}

    def bump(key, v):
        w = ring.add(ent.get(key, ring.zero), v)
        if w == ring.zero:
            ent.pop(key, None)
        else:
            ent[key] = w

    for n in range(1, D + 1):
        s_n, s_prev = K.level(n).rank, K.level(n - 1).rank
        # (L.d f_n - f_{n-1} K.d)[i, j], components flattened row-major
        for (i, r), v in L.d(n).entries.items():
            for j in range(s_n):
                bump((row_off[n] + i * s_n + j, col_off[n] + r * s_n + j), v)
        for (c, j), v in K.d(n).entries.items():
            for i in range(L.level(n - 1).rank):
                bump((row_off[n] + i * s_n + j, col_off[n - 1] + i * s_prev + c),
                     ring.neg(v))
    _, incl = kernel(LinearMap(src, tgt, ent))
    coeffs = {(j, 0): ring.normalize(rng.randint(-bound, bound))
              for j in range(incl.source.rank)}
    coeffs = {k: v for k, v in coeffs.items() if v != ring.zero}
    vec = compose(incl, LinearMap(FreeModule(ring, 1), incl.source,
                                  coeffs)).column(0)
    comps = []
    for n in range(D + 1):
        s_n, t_n = K.level(n).rank, L.level(n).rank
        e = {}
        for r in range(t_n):
            for c in range(s_n):
                v = vec.get(col_off[n] + r * s_n + c)
                if v is not None:
                    e[(r, c)] = v
        comps.append(LinearMap(K.level(n), L.level(n), e))
    return ChainMap(K, L, comps)


def random_unimodular(rng: random.Random, module,
                      ops: Optional[int] = None) -> LinearMap:
    """Product of elementary shears; determinant 1 over any ring."""
    ring = module.ring
    r = module.rank
    m = LinearMap.identity(module)
    if r < 2:
        return m
    for _ in range(2 * r if ops is None else ops):
        i, j = rng.randrange(r), rng.randrange(r)
        if i == j:
            continue
        e = {(t, t): ring.one for t in range(r)}
        e[(i, j)] = ring.normalize(rng.choice([-2, -1, 1, 2]))
        m = compose(LinearMap(module, module, e), m)
    return m


def conjugate(A: SimplicialModule, change) -> SimplicialModule:
    """Transport all operators along levelwise isomorphisms.

    change[n] maps A.level(n) to the new basis.
    """
    inv = [p.inverse() for p in change]
    return SimplicialModule._rebuilt(
        A.ring, A.levels, lambda what, n, m, get:
        compose(compose(change[m], get(A)), inv[n]))


class SimplicialInstance:
    """A valid random simplicial module plus the data that built it:
    the generating complex and the levelwise isos from its gamma image."""

    __slots__ = ("module", "complex", "change")

    def __init__(self, module: SimplicialModule, complex: ChainComplex, change):
        self.module = module
        self.complex = complex
        self.change = tuple(change)

    def __repr__(self):
        return f"SimplicialInstance(ranks={self.module.ranks()})"


def random_instance(rng: random.Random, ring: Ring, max_degree: int,
                    max_rank: int = 3, bound: int = 2) -> SimplicialInstance:
    K = random_complex(rng, ring, max_degree, max_rank, bound)
    G = gamma(K, max_degree)
    change = [random_unimodular(rng, G.level(n)) for n in range(max_degree + 1)]
    return SimplicialInstance(conjugate(G, change), K, change)


def random_simplicial_module(rng: random.Random, ring: Ring, max_degree: int,
                             max_rank: int = 3) -> SimplicialModule:
    return random_instance(rng, ring, max_degree, max_rank).module


def random_simplicial_map(rng: random.Random, src: SimplicialInstance,
                          tgt: SimplicialInstance, bound: int = 2) -> SimplicialMap:
    """Conjugate of gamma applied to a random chain map; every check
    stays honest because the SimplicialMap constructor verifies it."""
    D = src.module.max_degree
    f = random_chain_map(rng, src.complex, tgt.complex, bound)
    gf = gamma_map(f, D)
    comps = [compose(compose(tgt.change[n], gf.component(n)),
                     src.change[n].inverse())
             for n in range(D + 1)]
    return SimplicialMap(src.module, tgt.module, comps)


def barratt_eccles_level(ring: Ring, n: int, max_degree: int) -> SimplicialModule:
    """The arity-n level E(n) of the Barratt-Eccles operad (Berger-Fresse).

    E(n)_d is free on the (d+1)-tuples of permutations of n: the tuple
    of permutation indices (in `itertools.permutations` order) k_0..k_d
    sits at sum k_i N^(d-i), N = n!, first entry outer.  d_i deletes
    entry i and s_i repeats it.  E(n) is the nerve of the contractible
    groupoid on S_n, so its normalization has ranks n! (n! - 1)^d and
    homology the ring in degree 0.
    """
    N = factorial(n)
    levels = [FreeModule(ring, N ** (d + 1)) for d in range(max_degree + 1)]
    one = ring.one
    # a degree-d index is hi * N^(d+1-i) + rest, hi holding the entries
    # before i and rest entry i and those after it
    faces = [[LinearMap(levels[d], levels[d - 1], {
        (hi * N ** (d - i) + rest % N ** (d - i), hi * N ** (d + 1 - i) + rest): one
        for hi in range(N ** i) for rest in range(N ** (d + 1 - i))})
        for i in range(d + 1)] for d in range(1, max_degree + 1)]
    degeneracies = [[LinearMap(levels[d], levels[d + 1], {
        (hi * N ** (d + 2 - i) + rest // N ** (d - i) * N ** (d + 1 - i) + rest,
         hi * N ** (d + 1 - i) + rest): one
        for hi in range(N ** i) for rest in range(N ** (d + 1 - i))})
        for i in range(d + 1)] for d in range(max_degree)]
    return SimplicialModule(ring, levels, faces, degeneracies)

# ---------------------------------------------------------------------------
# operad fixtures
# ---------------------------------------------------------------------------
#
# The category-shaped fixtures are square-zero extensions: a rank-one
# constant summand carries the categorical composition, and a "disk"
# summand multiplies to zero against itself.  Unit laws then hold
# strictly, associativity reduces to the constant part, and the
# homotopy type of each hom object is whatever the disk contributes.


def _hom_object(ops, ring, const: bool, disk):
    """C (+) disk, or just one of the two."""
    parts = []
    if const:
        parts.append(ops.unit_obj())
    if disk is not None:
        parts.append(disk)
    if not parts:
        raise ValueError("a hom object needs the constant summand or a disk")
    return parts[0] if len(parts) == 1 else ops.direct_sum(parts)[0]


def _sq_zero_mult(ops, ring, X, Y, Z, xc: bool, yc: bool, zc: bool):
    """X (x) Y -> Z with index 0 the constant generator where present.

    Sends const(x)const to const, const(x)disk and disk(x)const to the
    disk identically, disk(x)disk to zero.  All three disks must be the
    same object for the identity blocks to typecheck.

    Degree n of X (x) Y is the sum of the blocks X_p (x) Y_q of the
    object class's rule (`tensor_blocks`), and the pair (i, j) sits at
    the block offset plus i * rank(Y_q) + j.  The constant is the unit,
    so it lives where the free objects do (`ops.free_degrees`): in every
    degree over the simplicial base, whose one block is (n, n), and in
    degree 0 only over the chain base, whose blocks run over p + q = n.
    Over chains, since the constant is a cycle and the disk a
    subcomplex, the Koszul differential then commutes with this map:
    d(c (x) y) = c (x) dy and d(x (x) c) = dx (x) c.
    """
    src = ops.tensor(X, Y)
    lives = ops.free_degrees
    comps = []
    for n in range(ops.max_degree + 1):
        dz = int(zc and lives[n])
        entries = {}
        for p, q, off in tensor_blocks(X, Y, n):
            x0 = xc and lives[p]
            y0 = yc and lives[q]
            dx, dy = int(x0), int(y0)
            rx, ry = X.level(p).rank, Y.level(q).rank
            for i in range(rx):
                for j in range(ry):
                    col = off + i * ry + j
                    xi_const = x0 and i == 0
                    yj_const = y0 and j == 0
                    if xi_const and yj_const:
                        if dz:
                            entries[(0, col)] = ring.one
                    elif xi_const:
                        entries[(dz + (j - dy), col)] = ring.one
                    elif yj_const:
                        entries[(dz + (i - dx), col)] = ring.one
        comps.append(entries)
    return ops.maps(src, Z, comps)


def _unit_into(ops, ring, H):
    """unit -> C (+) disk, hitting the constant generator."""
    return ops.constant(ops.unit_obj(), H, {(0, 0): ring.one})


def category_operad(ring: Ring, base: str, max_degree: int, colors,
                    disks: dict, const_pairs=None, max_arity: int = 1):
    """Square-zero category operad: hom(c, d) = C (+) disks[(c, d)].

    disks maps color pairs to a disk object or None; pairs absent from
    the dict get no hom at all (only allowed off the diagonal).  The
    diagonal always carries the constant summand, cross pairs only when
    listed in const_pairs.  All present disks must be the same object.
    """
    ops = op._ops_for(base, ring, max_degree)
    const_pairs = set(const_pairs or ())
    levels, consts = {}, {}
    for c in colors:
        for d in colors:
            if (c, d) not in disks and c != d and (c, d) not in const_pairs:
                continue
            const = c == d or (c, d) in const_pairs
            consts[(c, d)] = const
            levels[((c,), d)] = _hom_object(ops, ring, const,
                                            disks.get((c, d)))
    coll = op.Collection(ring, base, colors, max_arity, max_degree, levels)
    units = {c: _unit_into(ops, ring, levels[((c,), c)]) for c in colors}
    comps = {}
    for c in colors:
        for d in colors:
            for e in colors:
                if ((c,), d) not in levels or ((d,), e) not in levels:
                    continue
                if ((c,), e) not in levels:
                    continue
                comps[((( d,), e), 0, ((c,), d))] = _sq_zero_mult(
                    ops, ring, levels[((d,), e)], levels[((c,), d)],
                    levels[((c,), e)], consts[(d, e)], consts[(c, d)],
                    consts[(c, e)])
    return op.Operad(coll, units, comps)


def acyclic_disk(ring: Ring, max_degree: int, base: str = "simplicial"):
    """Contractible but nonconstant: gamma of an exact two-step complex.
    A base other than "chain" or "simplicial" raises ValueError."""
    K = two_term(ring, [[1]])
    if op._ops_for(base, ring, max_degree).Obj is ChainComplex:
        return pad(K, max_degree)
    return gamma(K, max_degree)


def loop_disk(ring: Ring, max_degree: int, base: str = "simplicial"):
    """One nontrivial homotopy group: gamma of R in degree one.  A base
    other than "chain" or "simplicial" raises ValueError."""
    K = concentrated(ring, 1, 1)
    if op._ops_for(base, ring, max_degree).Obj is ChainComplex:
        return pad(K, max_degree)
    return gamma(pad(K, max_degree) if max_degree >= 1 else K, max_degree)


def trivial_operad(ring: Ring, base: str, max_degree: int, color="*",
                   max_arity: int = 1):
    """One color, hom = the unit object, nothing else."""
    return category_operad(ring, base, max_degree, (color,), {})


def indiscrete_operad(ring: Ring, base: str, max_degree: int,
                      colors=("a", "b"), disk=None):
    """Every hom is C (+) disk; all colors are equivalent, so any
    inclusion of a point is an equivalence when the disk is acyclic."""
    disks = {(c, d): disk for c in colors for d in colors} \
        if disk is not None else {}
    pairs = [(c, d) for c in colors for d in colors]
    return category_operad(ring, base, max_degree, colors, disks, pairs)


def disconnected_operad(ring: Ring, base: str, max_degree: int,
                        colors=("a", "b"), disk=None):
    """Cross homs carry only the disk (or nothing), so distinct colors
    are never equivalent: the essential-surjectivity counterexample."""
    disks = {}
    for c in colors:
        for d in colors:
            if c == d:
                disks[(c, d)] = disk
            elif disk is not None:
                disks[(c, d)] = disk
    return category_operad(ring, base, max_degree, colors, disks)


def scaled_pair_operad(ring: Ring, factor: int, max_degree: int = 1):
    """Two objects, rank-one homs, u . v = v . u = factor * identity.

    Valid for any factor by bilinearity; for factor not a unit the
    objects are not isomorphic, but certifying that needs unbounded
    search over an infinite ring, which is the inconclusive case.
    """
    ops = op._ops_for("chain", ring, max_degree)
    colors = ("a", "b")
    lev = {((c,), d): ops.unit_obj() for c in colors for d in colors}
    coll = op.Collection(ring, "chain", colors, 1, max_degree, lev)
    units = {c: ops.identity(lev[((c,), c)]) for c in colors}
    f = ring.normalize(factor)
    comps = {}
    for c in colors:
        for d in colors:
            for e in colors:
                scale = ring.one if (c == d or d == e) else f
                src = ops.tensor(lev[((d,), e)], lev[((c,), d)])
                comps[((( d,), e), 0, ((c,), d))] = ops.constant(
                    src, lev[((c,), e)], {(0, 0): scale})
    return op.Operad(coll, units, comps)


def point_inclusion(P, Q, target_color):
    """The morphism from the one-color trivial operad hitting the
    constant summand of hom(target_color, target_color)."""
    (c0,) = P.collection.colors
    sig = ((c0,), c0)
    tgt = Q.collection.level(((target_color,), target_color))
    return op.OpMorphism(P, Q, {c0: target_color}, {sig: P.ops.constant(
        P.collection.level(sig), tgt, {(0, 0): Q.ring.one})})


def nilpotent_two_color_operad(ring: Ring, max_degree: int):
    """Two colors, nonconstant binary levels, free symmetric action.

    Binary operations exist in mixed colors (a,b)->a, (b,a)->a and in
    (a,a)->b, (b,b)->b is absent; all binary-on-binary composites leave
    the arity window or land in zero levels, so only the unit laws and
    the symmetric action carry content, and those are exact.
    """
    base = "simplicial"
    ops = op._ops_for(base, ring, max_degree)
    a, b = "a", "b"
    C = ops.unit_obj()
    W = loop_disk(ring, max_degree, base)
    WW = ops.direct_sum([W, W])[0]
    levels = {
        ((a,), a): C, ((b,), b): C,
        ((a, b), a): W, ((b, a), a): W,
        ((a, a), b): WW,
    }
    swap = (1, 0)
    summand_swap = ops.maps(WW, WW, [
        {(i + w if i < w else i - w, i): ring.one for i in range(2 * w)}
        for w in [r // 2 for r in WW.ranks()]])
    actions = {
        ((a, b), a): {swap: ops.identity(W)},
        ((b, a), a): {swap: ops.identity(W)},
        ((a, a), b): {swap: summand_swap},
    }
    coll = op.Collection(ring, base, (a, b), 2, max_degree, levels, actions)
    units = {c: _unit_into(ops, ring, C) for c in (a, b)}
    comps = {}
    for c in (a, b):
        comps[(((c,), c), 0, ((c,), c))] = _sq_zero_mult(
            ops, ring, C, C, C, True, True, True)
    for sig in (((a, b), a), ((b, a), a), ((a, a), b)):
        out_c = sig[1]
        lev = levels[sig]
        comps[(((out_c,), out_c), 0, sig)] = _sq_zero_mult(
            ops, ring, C, lev, lev, True, False, False)
        for i, ci in enumerate(sig[0]):
            comps[(sig, i, ((ci,), ci))] = _sq_zero_mult(
                ops, ring, lev, C, lev, False, True, False)
    return op.Operad(coll, units, comps)


def random_collection(rng: random.Random, ring: Ring, base: str,
                      max_arity: int, max_degree: int, max_rank: int = 2,
                      action: str = "trivial", color="x"):
    """Single-color collection with random levels and a scalar action.

    action "trivial" fixes every permutation; "sign" acts by the sign
    character, which is only usable downstream where 2 is a unit.
    """
    ops = op._ops_for(base, ring, max_degree)
    levels, actions = {}, {}
    for n in range(1, max_arity + 1):
        if rng.random() < 0.25 and n > 1:
            continue
        if ops.Obj is ChainComplex:
            obj = random_complex(rng, ring, max_degree, max_rank)
        else:
            obj = random_simplicial_module(rng, ring, max_degree, max_rank)
        sig = ((color,) * n, color)
        levels[sig] = obj
        # a transposition has sign -1
        scale = ring.one if action == "trivial" else ring.normalize(-1)
        swap = ops.maps(obj, obj, [
            {(i, i): scale for i in range(rank)} for rank in obj.ranks()])
        actions[sig] = dict.fromkeys(perms.transpositions(n), swap)
    if not levels:
        levels[((color,), color)] = ops.unit_obj()
    return op.Collection(ring, base, (color,), max_arity, max_degree,
                         levels, actions)


def binary_generator(ring: Ring, max_arity: int, max_degree: int = 0,
                     color: str = "c", rank: int = 1,
                     regular: bool = False):
    """One-color generating collection with a single binary level.

    With regular=True the level is rank 2 and the slot swap exchanges
    the two basis vectors (one free orbit); otherwise the swap fixes
    each of the rank generators pointwise.
    """
    ops = op._ops_for("chain", ring, max_degree)
    sig = ((color, color), color)
    r = 2 if regular else rank
    obj = ops.free(r)
    if regular:
        table = {(0, 1): ring.one, (1, 0): ring.one}
    else:
        table = {(i, i): ring.one for i in range(r)}
    swap = ops.constant(obj, obj, table)
    return op.Collection(ring, "chain", (color,), max_arity, max_degree,
                         {sig: obj}, {sig: {(1, 0): swap}})


def split_binary_inclusion(ring: Ring, max_arity: int, m_rank: int = 2,
                           m_regular: bool = True, q_rank: int = 1,
                           q_regular: bool = False, max_degree: int = 0,
                           color: str = "c"):
    """(M, Y, f): Y is M plus a cokernel block, f the coordinate inclusion.

    m_rank=0 gives the empty source, so f is the attachment of Y from
    nothing.  Both blocks sit in the single binary level; the swap acts
    block-diagonally.
    """
    ops = op._ops_for("chain", ring, max_degree)
    sig = ((color, color), color)

    def block(r, regular):
        if regular:
            if r % 2:
                raise RuntimeError(f"a regular block of odd rank {r}")
            return {(i + 1 - 2 * (i % 2), i): ring.one for i in range(r)}
        return {(i, i): ring.one for i in range(r)}

    rm = m_rank if not m_regular else max(m_rank, 0)
    if m_regular and rm % 2:
        rm += 1
    rq = 2 * ((q_rank + 1) // 2) if q_regular else q_rank
    table = block(rm, m_regular)
    for (i, j), v in block(rq, q_regular).items():
        table[(rm + i, rm + j)] = v

    def coll(r, tbl):
        if r == 0:
            return op.Collection(ring, "chain", (color,), max_arity,
                                 max_degree, {}, {})
        obj = ops.free(r)
        return op.Collection(ring, "chain", (color,), max_arity,
                             max_degree, {sig: obj},
                             {sig: {(1, 0): ops.constant(obj, obj, tbl)}})

    M = coll(rm, block(rm, m_regular))
    Y = coll(rm + rq, table)
    comps = {}
    if rm:
        comps[sig] = ops.constant(M.level(sig), Y.level(sig),
                                  {(i, i): ring.one for i in range(rm)})
    f = trees.CollectionMap(M, Y, comps)
    return M, Y, f


def two_color_binary_inclusion(ring: Ring, max_arity: int,
                               max_degree: int = 0, colors=("a", "b")):
    """(M, Y, f) over two colors: M is the free orbit of a mixed-input
    binary generator, Y adds one same-input generator at the second
    color."""
    ops = op._ops_for("chain", ring, max_degree)
    a, b = colors
    s_ab = ((a, b), a)
    s_ba = ((b, a), a)
    s_bb = ((b, b), b)

    def unit_map(A, B):
        return ops.constant(A, B, {(0, 0): ring.one})

    m_levels = {s_ab: ops.free(1), s_ba: ops.free(1)}
    m_actions = {s_ab: {(1, 0): unit_map(m_levels[s_ab], m_levels[s_ba])},
                 s_ba: {(1, 0): unit_map(m_levels[s_ba], m_levels[s_ab])}}
    M = op.Collection(ring, "chain", colors, max_arity, max_degree,
                      m_levels, m_actions)
    y_levels = {s_ab: ops.free(1), s_ba: ops.free(1), s_bb: ops.free(1)}
    y_actions = {s_ab: {(1, 0): unit_map(y_levels[s_ab], y_levels[s_ba])},
                 s_ba: {(1, 0): unit_map(y_levels[s_ba], y_levels[s_ab])},
                 s_bb: {(1, 0): unit_map(y_levels[s_bb], y_levels[s_bb])}}
    Y = op.Collection(ring, "chain", colors, max_arity, max_degree,
                      y_levels, y_actions)
    f = trees.CollectionMap(M, Y, {
        s_ab: unit_map(m_levels[s_ab], y_levels[s_ab]),
        s_ba: unit_map(m_levels[s_ba], y_levels[s_ba])})
    return M, Y, f
