"""The degreewise object layer that chain complexes and simplicial
modules share (`chain.DegreewiseObject`), against the per-base
definitions it replaced: `level` off the ends, `ranks`, `total_rank`,
equality and hash, and the one block-diagonal direct sum, which was
written three times (`chain.direct_sum`, `simp.direct_sum` and
`operad._assemble`).  Those bodies live on here as the oracles."""

import random

import pytest

from opdk import corpus
from opdk import operad as op
from opdk.chain import ChainComplex, direct_sum as chain_direct_sum
from opdk.exactlin import FreeModule, LinearMap
from opdk.rings import QQ, ZZ, Zmod
from opdk.simp import SimplicialModule, direct_sum as simp_direct_sum

RINGS = {"Z": ZZ, "Q": QQ, "F5": Zmod(5)}
BASES = ("chain", "simplicial")
D = 2


# -- the definitions the shared layer replaced ------------------------------


def _old_level(X, n):
    if 0 <= n <= X.max_degree:
        return X.levels[n]
    return FreeModule(X.ring, 0)


def _old_ranks(X):
    return tuple(M.rank for M in X.levels)


def _old_eq(X, Y):
    """ChainComplex.__eq__ and SimplicialModule.__eq__ as they were;
    across the bases both returned NotImplemented, so == fell back to
    identity."""
    if isinstance(X, ChainComplex) and isinstance(Y, ChainComplex):
        return (X.ring == Y.ring and _old_ranks(X) == _old_ranks(Y)
                and all(a.entries == b.entries
                        for a, b in zip(X.differentials, Y.differentials)))
    if isinstance(X, SimplicialModule) and isinstance(Y, SimplicialModule):
        return (X.ring == Y.ring and _old_ranks(X) == _old_ranks(Y)
                and all(a.entries == b.entries
                        for fa, fb in zip(X.faces, Y.faces)
                        for a, b in zip(fa, fb))
                and all(a.entries == b.entries
                        for sa, sb in zip(X.degeneracies, Y.degeneracies)
                        for a, b in zip(sa, sb)))
    return X is Y


def _old_chain_sum(K, L):
    if K.ring != L.ring or K.max_degree != L.max_degree:
        raise ValueError("direct sum summands differ in ring or max_degree")
    levels = [FreeModule(K.ring, K.level(n).rank + L.level(n).rank)
              for n in range(K.max_degree + 1)]
    diffs = [LinearMap.placed(levels[n], levels[n - 1], [
        (0, 0, K.d(n)), (K.level(n - 1).rank, K.level(n).rank, L.d(n))])
        for n in range(1, K.max_degree + 1)]
    return ChainComplex(K.ring, levels, diffs, check=False)


def _old_simp_sum(A, B):
    if A.ring != B.ring or A.max_degree != B.max_degree:
        raise ValueError("direct sum of simplicial modules over different "
                         "rings or degrees")
    levels = [FreeModule(A.ring, A.level(n).rank + B.level(n).rank)
              for n in range(A.max_degree + 1)]

    def block_sum(f, g, n, m):
        return LinearMap.placed(levels[n], levels[m], [
            (0, 0, f), (A.level(m).rank, A.level(n).rank, g)])

    faces = [[block_sum(A.face(n, i), B.face(n, i), n, n - 1)
              for i in range(n + 1)] for n in range(1, A.max_degree + 1)]
    degeneracies = [[block_sum(A.degeneracy(n, i), B.degeneracy(n, i),
                               n, n + 1)
                     for i in range(n + 1)] for n in range(A.max_degree)]
    return SimplicialModule(A.ring, levels, faces, degeneracies)


def _old_structured(ops, mods, make, check=True):
    n_max = len(mods) - 1
    if ops.Obj is ChainComplex:
        diffs = [make("differential", n, n - 1, lambda X, n=n: X.d(n))
                 for n in range(1, n_max + 1)]
        return ChainComplex(ops.ring, mods, diffs, check=check)
    faces = [[make("face", n, n - 1, lambda X, n=n, i=i: X.face(n, i))
              for i in range(n + 1)] for n in range(1, n_max + 1)]
    degen = [[make("degeneracy", n, n + 1,
                   lambda X, n=n, i=i: X.degeneracy(n, i))
              for i in range(n + 1)] for n in range(n_max)]
    return SimplicialModule(ops.ring, mods, faces, degen)


def _old_assemble(ops, objs):
    offsets, acc = [], [0] * (ops.max_degree + 1)
    for A in objs:
        offsets.append(acc)
        acc = [a + A.level(n).rank for n, a in enumerate(acc)]
    mods = [FreeModule(ops.ring, a) for a in acc]

    def block(what, n, m, get):
        return LinearMap(mods[n], mods[m], {
            (off[m] + r, off[n] + c): v for A, off in zip(objs, offsets)
            for (r, c), v in get(A).entries.items()})

    return _old_structured(ops, mods, block, check=False), offsets


# -- objects -------------------------------------------------------------------


def _maps(X):
    if isinstance(X, ChainComplex):
        return list(X.differentials)
    return [m for ms in X.faces + X.degeneracies for m in ms]


def _listing(X):
    """Everything an object holds: its class, ring, ranks and every
    structure map's entries in stored order, with their value types."""
    return (type(X), X.ring, X.max_degree, _old_ranks(X),
            [[(k, v, type(v)) for k, v in m.entries.items()]
             for m in _maps(X)])


def _twins(X):
    """X rebuilt from its own maps, then with one kind of structure map
    negated: the same ranks, and other maps wherever that kind has a
    nonzero one.  Chains negate d_1, then the differentials above it
    (d^2 = 0 still holds); simplicial modules the faces, then the
    degeneracies."""
    if isinstance(X, ChainComplex):
        ds = X.differentials
        return [ChainComplex(X.ring, X.levels, ds),
                ChainComplex(X.ring, X.levels, (-ds[0],) + ds[1:]),
                ChainComplex(X.ring, X.levels,
                             ds[:1] + tuple(-d for d in ds[1:]))]
    faces, degen = X.faces, X.degeneracies
    neg = [[-m for m in ms] for ms in faces], [[-m for m in ms]
                                               for ms in degen]
    return [SimplicialModule(X.ring, X.levels, faces, degen),
            SimplicialModule(X.ring, X.levels, neg[0], degen),
            SimplicialModule(X.ring, X.levels, faces, neg[1])]


def _objects(base, ring, seed):
    """Random objects of the base over ring truncated at D, the tensor
    of two of them, the square of the acyclic disk (nonzero structure
    maps in every degree), the zero object, the unit and the free
    object of rank 2."""
    rng = random.Random(seed)
    ops = op._ops_for(base, ring, D)
    if base == "chain":
        made = [corpus.random_complex(rng, ring, D) for _ in range(3)]
    else:
        made = [corpus.random_simplicial_module(rng, ring, D, max_rank=2)
                for _ in range(3)]
    disk = corpus.acyclic_disk(ring, D, base)
    return ops, made + [ops.tensor(made[0], made[1]), ops.tensor(disk, disk),
                        ops.free(0), ops.free(1), ops.free(2)]


CASES = [(base, name, seed) for base in BASES for name in RINGS
         for seed in range(2)]


@pytest.mark.parametrize("base,ring_name,seed", CASES)
def test_levels_ranks_and_equality_match_the_per_base_definitions(
        base, ring_name, seed):
    ops, objs = _objects(base, RINGS[ring_name], seed)
    other_base = _objects(BASES[base == "chain"], RINGS[ring_name], seed)[1]
    for X in objs:
        for n in (-3, -1, D + 1, D + 4):
            assert X.level(n) == _old_level(X, n) == \
                FreeModule(X.ring, 0)
        for n in range(D + 1):
            assert X.level(n) is _old_level(X, n)
        assert X.ranks() == _old_ranks(X)
        assert X.total_rank() == sum(_old_ranks(X))
        assert hash(X) == hash((X.ring, _old_ranks(X)))
        assert repr(X) == f"{type(X).__name__}({X.ring.name()}, " \
                          f"ranks={_old_ranks(X)})"
        twins = _twins(X)
        assert X == twins[0] and hash(X) == hash(twins[0])
        for Y in objs + twins + other_base:
            assert (X == Y) is _old_eq(X, Y)
            assert (X != Y) is not _old_eq(X, Y)
    # each kind of negated twin reaches the entry comparison somewhere
    for k in (1, 2):
        assert any(X != _twins(X)[k] for X in objs)


@pytest.mark.parametrize("base,ring_name,seed", CASES)
def test_one_direct_sum_matches_the_three_it_replaced(base, ring_name, seed):
    ops, objs = _objects(base, RINGS[ring_name], seed)
    pair_sum, old_pair_sum = {
        "chain": (chain_direct_sum, _old_chain_sum),
        "simplicial": (simp_direct_sum, _old_simp_sum)}[base]
    for X in objs:
        for Y in objs:
            assert _listing(pair_sum(X, Y)) == _listing(old_pair_sum(X, Y))
    picks = [[], objs[:1], objs[:2], objs[::-1], objs[1:4] + objs[:2]]
    for summands in picks:
        new, offsets = ops.direct_sum(summands)
        old, old_offsets = _old_assemble(ops, summands)
        assert _listing(new) == _listing(old)
        assert offsets == old_offsets


@pytest.mark.parametrize("base", BASES)
def test_direct_sum_refuses_summands_it_cannot_place(base):
    ops, objs = _objects(base, ZZ, 0)
    alien = _objects(BASES[base == "chain"], ZZ, 0)[1][0]
    for bad in ([objs[0], op._ops_for(base, QQ, D).free(1)],
                [objs[0], op._ops_for(base, ZZ, D + 1).free(1)],
                [objs[0], alien]):
        with pytest.raises(ValueError, match="summands differ in ring or "
                                             "max_degree"):
            ops.direct_sum(bad)


@pytest.mark.parametrize("base", BASES)
def test_objects_refuse_a_level_over_another_ring(base):
    # explicit raises, so they also hold under python -O; the simplicial
    # constructor used to take any level
    levels = [FreeModule(ZZ, 1)]
    with pytest.raises(ValueError, match="level 0 is over Z, not Q"):
        if base == "chain":
            ChainComplex(QQ, levels, [])
        else:
            SimplicialModule(QQ, levels, [], [])
