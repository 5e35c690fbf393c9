"""Colored operads, composite products, and the equivalence verdict.

Oracle strategy: composite-product ranks are counted by brute-force
enumeration of decorated two-level trees canonized under the top
symmetric group, cross-checked against the closed formula n! 2^(n-1)
for the regular representation composed with itself, and
`composite_product` is compared entry for entry with the ordered sum
divided by the slot permutations (`_ordered_composite`); word substitution
is pinned by hand cases and by replaying both associativity shapes on
random words.  The axiom checker is trusted only after it rejects
corrupted inputs.
"""

import json
import random
import time
from contextlib import contextmanager, nullcontext
from fractions import Fraction
from itertools import combinations_with_replacement, product as iproduct
from math import factorial
from types import SimpleNamespace

import pytest
from hypothesis import example, given, settings, strategies as st

from opdk import chain, corpus, operad as op, simp
from opdk import permutations as perms
from opdk.doldkan import normalize_operad, normalize_operad_data
from opdk.operad import (
    Collection,
    OpMorphism,
    associative_operad,
    collection_check,
    composite_product,
    dk_equivalence,
    enumerate_signatures,
    graft_signature,
    homotopy_category,
    identity_collection,
    integrated_normalize,
    operad_check,
    operad_from_json,
    operad_to_json,
    perm_block_insert,
    perm_inner_insert,
    restrict_colors,
    sig_act,
    word_act,
    word_graft,
)
from opdk.chain import ChainComplex, homology, tensor_many
from opdk import exactlin
from opdk.exactlin import (CokernelPresentation, FreeModule, LinearMap,
                           cokernel, hstack, matrix_to_json)
from opdk.rings import QQ, ZZ, Zmod
from opdk.simp import SimplicialModule, moore_complex
from opdk.trees import cokernel_collection
from test_tensor_routes import (_oracle_associator, _oracle_braiding,
                                _oracle_swap, _oracle_tensor_entries)

F5 = Zmod(5)
X = "x"


@contextmanager
def smith_route():
    """Send every quotient down the Smith-form route: inside the block
    neither signed-graph front end, `exactlin._signed_graph` for
    `cokernel` and `operad._signed_edges` for `_quotient_by`, finds a
    graph."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(exactlin, "_signed_graph", lambda m: None)
        mp.setattr(op, "_signed_edges", lambda ring, relations: None)
        yield


def sig(n, color=X):
    return ((color,) * n, color)


# -- oracles ----------------------------------------------------------------


def two_level_tree_rank(n: int, max_arity: int) -> int:
    """Brute count of (w, phi, (v_j)) modulo the top symmetric group.

    w is a linear order of the k slots, phi assigns the n inputs to
    slots (surjectively, since there are no nullary operations), v_j
    orders each fiber; s in S_k acts on all three at once.
    """
    seen = set()
    for k in range(1, max_arity + 1):
        for phi in iproduct(range(k), repeat=n):
            fibers = [tuple(i for i in range(n) if phi[i] == j)
                      for j in range(k)]
            if any(not f for f in fibers):
                continue
            for w in perms.all_permutations(k):
                for vs in iproduct(*[perms.all_permutations(len(f))
                                     for f in fibers]):
                    best = None
                    for s in perms.all_permutations(k):
                        inv = perms.inverse(s)
                        enc = (tuple(inv[l] for l in w),
                               tuple(inv[phi[i]] for i in range(n)),
                               tuple(vs[s[j]] for j in range(k)))
                        if best is None or enc < best:
                            best = enc
                    seen.add(best)
    return len(seen)


def test_two_level_oracle_matches_closed_formula():
    for n in range(1, 5):
        assert two_level_tree_rank(n, 4) == factorial(n) * 2 ** (n - 1)


# -- word substitution ------------------------------------------------------


def test_word_graft_hand_cases():
    assert word_graft((0, 1), 0, (0, 1)) == (0, 1, 2)
    assert word_graft((1, 0), 0, (0, 1)) == (2, 0, 1)
    assert word_graft((1, 0), 1, (1, 0)) == (2, 1, 0)
    assert word_graft((0,), 0, (1, 0)) == (1, 0)
    # nullary deletes the letter and closes the gap
    assert word_graft((0, 1), 1, ()) == (0,)
    assert word_graft((2, 0, 1), 0, ()) == (1, 0)


def test_word_act_is_a_right_action():
    rng = random.Random(11)
    for _ in range(50):
        n = rng.randint(1, 5)
        w = tuple(rng.sample(range(n), n))
        s = tuple(rng.sample(range(n), n))
        t = tuple(rng.sample(range(n), n))
        assert word_act(word_act(w, s), t) == word_act(w, perms.compose(s, t))


def test_word_graft_sequential_associativity():
    rng = random.Random(12)
    for _ in range(100):
        k, m, l = rng.randint(1, 3), rng.randint(1, 3), rng.randint(1, 3)
        w = tuple(rng.sample(range(k), k))
        v = tuple(rng.sample(range(m), m))
        u = tuple(rng.sample(range(l), l))
        i, j = rng.randrange(k), rng.randrange(m)
        assert word_graft(word_graft(w, i, v), i + j, u) == \
            word_graft(w, i, word_graft(v, j, u))


def test_word_graft_parallel_associativity():
    rng = random.Random(13)
    for _ in range(100):
        k = rng.randint(2, 4)
        m, l = rng.randint(1, 3), rng.randint(1, 3)
        w = tuple(rng.sample(range(k), k))
        v = tuple(rng.sample(range(m), m))
        u = tuple(rng.sample(range(l), l))
        i = rng.randrange(k - 1)
        j = rng.randint(i + 1, k - 1)
        assert word_graft(word_graft(w, i, v), j + m - 1, u) == \
            word_graft(word_graft(w, j, u), i, v)


def test_block_insert_hand_case():
    # x.(12) o_0 y relabels to slot 1 of x; the worked permutation
    assert perm_block_insert((1, 0), 0, 2) == (1, 2, 0)
    assert perm_inner_insert(2, 0, (1, 0)) == (1, 0, 2)
    assert perm_inner_insert(3, 1, (1, 0)) == (0, 2, 1, 3)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2 ** 32 - 1))
def test_block_insert_matches_signature_bookkeeping(seed):
    rng = random.Random(seed)
    k, m = rng.randint(1, 4), rng.randint(1, 3)
    s = tuple(rng.sample(range(k), k))
    i = rng.randrange(k)
    colors = ["a", "b", "c"]
    osig = (tuple(rng.choice(colors) for _ in range(k)), rng.choice(colors))
    ssig = sig_act(osig, s)
    isig = (tuple(rng.choice(colors) for _ in range(m)), ssig[0][i])
    rho = perm_block_insert(s, i, m)
    assert sig_act(graft_signature(osig, s[i], isig), rho) == \
        graft_signature(ssig, i, isig)
    assert sorted(rho) == list(range(k + m - 1))


# -- the regular representation operad --------------------------------------


def test_associative_operad_chain_checks():
    assert operad_check(associative_operad(ZZ, "chain", 4, 0)) == []


def test_associative_operad_simplicial_checks():
    assert operad_check(associative_operad(ZZ, "simplicial", 3, 2)) == []


def test_associative_operad_tables_are_the_word_relabelings():
    # every permutation acts by the permutation matrix of word_act,
    # in every degree of a simplicial level
    for base, A, D, unital in (("chain", 4, 0, False), ("chain", 4, 0, True),
                               ("simplicial", 3, 2, False)):
        coll = associative_operad(ZZ, base, A, D, unital=unital).collection
        for s in coll.signatures():
            n = len(s[0])
            words = perms.all_permutations(n) if n else [()]
            index = {w: i for i, w in enumerate(words)}
            for p in perms.all_permutations(n):
                want = {(index[word_act(w, p)], j): 1
                        for j, w in enumerate(words)}
                f = coll.action(s, p)
                assert [c.entries for c in f.components] == [want] * (D + 1)


def test_associative_operad_unital_checks():
    P = associative_operad(ZZ, "chain", 3, 0, unital=True)
    assert operad_check(P) == []
    assert P.collection.level(((), X)).level(0).rank == 1


def test_collection_rejects_unknown_color():
    # associative_operad defaults to color "x"; asking for a "c" level
    # must not come back as a silent zero object
    M = associative_operad(ZZ, "chain", 3, 0).collection
    s = (("c", "c"), "c")
    with pytest.raises(ValueError, match="unknown color"):
        M.level(s)
    with pytest.raises(ValueError, match="unknown color"):
        M.is_zero_level(s)
    assert M.is_zero_level((("x",) * 4, "x"))


def _rank_two_generators(n, rows):
    """One rank-2 level in arity n, where s_t acts by the matrix rows[t]."""
    ops = op._ops_for("chain", ZZ, 0)
    lev = ChainComplex(ZZ, [FreeModule(ZZ, 2)], [])
    gens = {perms.transposition(n, t): ops.make_map(lev, lev, [
        LinearMap.from_rows(lev.level(0), lev.level(0), r)])
        for t, r in enumerate(rows)}
    return Collection(ZZ, "chain", (X,), n, 0, {sig(n): lev}, {sig(n): gens})


def test_collection_refuses_a_non_involution():
    # s_1 s_1 must act as the identity; a shear squares to another shear
    with pytest.raises(ValueError, match=r"inconsistent at .*\(0, 1\)"):
        _rank_two_generators(2, [[[1, 1], [0, 1]]])
    assert collection_check(_rank_two_generators(2, [[[0, 1], [1, 0]]])) == []


def test_collection_refuses_an_order_three_swap():
    # a matrix of order 3 assigned to a transposition
    with pytest.raises(ValueError, match=r"inconsistent at"):
        _rank_two_generators(2, [[[0, -1], [1, -1]]])


def test_collection_refuses_a_broken_braid_relation():
    # both generators are involutions, but s_1 s_2 s_1 = diag(-1, 1)
    # while s_2 s_1 s_2 swaps the basis with signs
    with pytest.raises(ValueError, match=r"inconsistent at .*\(2, 1, 0\)"):
        _rank_two_generators(3, [[[0, 1], [1, 0]], [[1, 0], [0, -1]]])


# the reflection representation of S_3 on the root lattice, basis
# e0 - e1, e1 - e2: three distinct involutions, any two of them braided
_S3_REFLECTIONS = {"(01)": [[-1, 1], [0, 1]], "(12)": [[1, 0], [1, -1]],
                   "(02)": [[0, -1], [-1, 0]]}


def test_collection_refuses_a_broken_far_commutation():
    # s_0 = (12) and s_2 = (02) each braid with s_1 = (01), but they do
    # not commute, so s_0 s_2 and s_2 s_0 disagree on (1, 0, 3, 2)
    r = _S3_REFLECTIONS
    with pytest.raises(ValueError, match=r"inconsistent at .*\(1, 0, 3, 2\)"):
        _rank_two_generators(4, [r["(12)"], r["(01)"], r["(02)"]])
    # s_0 = s_2 = (12) is S_4 onto S_3, a true action
    assert collection_check(_rank_two_generators(
        4, [r["(12)"], r["(01)"], r["(12)"]])) == []


def _closed_table(coll, sig):
    """Every permutation's map at sig, closed breadth-first from the
    identity over the stored generators: s g gets the generator g at
    sig.s after the map of s, for the first s that reaches it."""
    n = len(sig[0])
    e = perms.identity(n)
    table, frontier = {e: coll.ops.identity(coll.level(sig))}, [e]
    while frontier:
        new = []
        for s in frontier:
            for g in perms.transpositions(n):
                p = perms.compose(s, g)
                if p not in table:
                    table[p] = coll.actions[sig_act(sig, s)][g] @ table[s]
                    new.append(p)
        frontier = new
    return table


def _random_collections(ring, base, action):
    return [corpus.random_collection(random.Random(seed), ring, base, 4, 1,
                                     2, action) for seed in range(4)]


def _cokernels():
    return [cokernel_collection(f)[0] for f in (
        corpus.split_binary_inclusion(ZZ, 3)[2],
        corpus.split_binary_inclusion(QQ, 4, q_rank=2, q_regular=True)[2],
        corpus.two_color_binary_inclusion(F5, 3)[2])]


def _restrictions():
    A = associative_operad(ZZ, "chain", 4, 0)
    Q = corpus.indiscrete_operad(F5, "simplicial", 2,
                                 disk=corpus.acyclic_disk(F5, 2))
    return [restrict_colors({"a": X, "b": X}, A, ("a", "b")).collection,
            restrict_colors({"p": "a", "q": "b", "r": "a"}, Q,
                            ("p", "q", "r")).collection]


@pytest.mark.parametrize("build", [
    *[lambda r=r, b=b, a=a: _random_collections(r, b, a)
      for r in (ZZ, QQ, F5) for b in ("chain", "simplicial")
      for a in ("trivial", "sign")],
    lambda: [composite_product(*[associative_operad(
        ZZ, "chain", 4, 0).collection] * 2).collection],
    lambda: [composite_product(*[_two_color_associative()] * 2).collection],
    _cokernels,
    _restrictions,
], ids=[f"random-{r}-{b}-{a}" for r in ("Z", "Q", "F5")
        for b in ("chain", "simplicial") for a in ("trivial", "sign")]
    + ["regular-composite-4", "two-color-composite", "cokernels",
       "restrictions"])
def test_action_matches_the_closed_table(build):
    """action(sig, s) for every s in S_n, entry for entry, against the
    table the breadth-first closure of the generators builds; a freshly
    built collection stores the generators and nothing else."""
    for coll in build():
        for sig in coll.signatures():
            n = len(sig[0])
            assert set(coll.actions[sig]) == set(perms.transpositions(n))
        for sig in coll.signatures():
            table = _closed_table(coll, sig)
            assert set(table) == set(perms.all_permutations(len(sig[0])))
            for s, want in table.items():
                got = coll.action(sig, s)
                assert [c.entries for c in got.components] == \
                    [c.entries for c in want.components]


def test_collection_refuses_a_missing_generator():
    # arity 3 needs s_1 and s_2; s_1 alone does not generate S_3
    with pytest.raises(ValueError, match=r"missing action generator "
                                         r"\(0, 2, 1\) at x,x,x->x"):
        _rank_two_generators(3, [[[0, 1], [1, 0]]])


def test_collection_refuses_a_key_that_is_not_an_adjacent_transposition():
    ops = op._ops_for("chain", ZZ, 0)
    lev = ops.unit_obj()
    ident = ops.identity(lev)
    gens = {(0, 2, 1): ident, (1, 0, 2): ident, (1, 2, 0): ident}
    with pytest.raises(ValueError, match=r"\(1, 2, 0\) at x,x,x->x is not "
                                         r"an adjacent transposition"):
        Collection(ZZ, "chain", (X,), 3, 0, {sig(3): lev}, {sig(3): gens})
    # the identity is filled in, not given
    with pytest.raises(ValueError, match="not an adjacent transposition"):
        Collection(ZZ, "chain", (X,), 1, 0, {sig(1): lev},
                   {sig(1): {(0,): ident}})


def test_collection_refuses_a_generator_onto_a_missing_level():
    # a,b->b is present but b,a->b is not, so the swap lands nowhere
    ops = op._ops_for("chain", ZZ, 0)
    one = ops.unit_obj()
    with pytest.raises(ValueError, match="sends a,b->b to b,a->b, which "
                                         "has no level"):
        Collection(ZZ, "chain", ("a", "b"), 2, 0, {(("a", "b"), "b"): one},
                   {(("a", "b"), "b"): {(1, 0): ops.identity(one)}})


def test_collection_refuses_a_generator_of_the_wrong_shape():
    ops = op._ops_for("chain", ZZ, 0)
    two = ChainComplex(ZZ, [FreeModule(ZZ, 2)], [])
    one = ops.unit_obj()
    with pytest.raises(ValueError, match="wrong shape"):
        Collection(ZZ, "chain", (X,), 2, 0, {sig(2): two},
                   {sig(2): {(1, 0): ops.identity(one)}})


def test_collection_refuses_malformed_levels():
    # explicit checks, so they also hold under python -O
    ops = op._ops_for("chain", ZZ, 0)
    one = ops.unit_obj()
    with pytest.raises(ValueError, match="arity above bound"):
        Collection(ZZ, "chain", (X,), 0, 0, {sig(1): one})
    with pytest.raises(ValueError, match="unknown color 'c'"):
        Collection(ZZ, "chain", (X,), 1, 0, {sig(1, "c"): one})
    with pytest.raises(ValueError, match="wrong degree"):
        Collection(ZZ, "chain", (X,), 1, 1, {sig(1): one})


def test_collection_refuses_a_level_of_another_base_or_ring():
    # a simplicial level beside a chain one, and a level over Q in a
    # collection over Z, which used to fail only in composite_product
    chain_unit = op._ops_for("chain", ZZ, 1).unit_obj()
    levels = {sig(1, "a"): chain_unit,
              sig(1, "b"): op._ops_for("simplicial", ZZ, 1).unit_obj()}
    with pytest.raises(ValueError, match=r"level b->b is SimplicialModule\(Z, "
                                         r"ranks=\(1, 1\)\), not a "
                                         r"ChainComplex over Z"):
        Collection(ZZ, "chain", ("a", "b"), 1, 1, levels)
    levels = {sig(1, "a"): chain_unit,
              sig(1, "b"): op._ops_for("chain", QQ, 1).unit_obj()}
    with pytest.raises(ValueError, match=r"level b->b is ChainComplex\(Q, "
                                         r"ranks=\(1, 0\)\), not a "
                                         r"ChainComplex over Z"):
        Collection(ZZ, "chain", ("a", "b"), 1, 1, levels)
    # each level checks alone, so a simplicial collection refuses a chain
    # level too, and a zero level of the wrong class is no exception
    with pytest.raises(ValueError, match=r"level a->a is ChainComplex"):
        Collection(ZZ, "simplicial", ("a",), 1, 1, {sig(1, "a"): chain_unit})
    with pytest.raises(ValueError, match=r"level a->a is ChainComplex"):
        Collection(ZZ, "simplicial", ("a",), 1, 0,
                   {sig(1, "a"): op._ops_for("chain", ZZ, 0).zero_obj()})


@pytest.mark.parametrize("base", ["chane", ["chain"], 5, None])
def test_an_unknown_base_name_is_refused(base):
    # one name lookup: a list raises ValueError, not the TypeError of an
    # unhashable dict key
    with pytest.raises(ValueError, match="unknown base category"):
        Collection(ZZ, base, (X,), 1, 0, {})
    doc = operad_to_json(associative_operad(ZZ, "chain", 2, 0))
    doc["base"] = base
    with pytest.raises(ValueError, match="unknown base category"):
        operad_from_json(doc)


@pytest.mark.parametrize("make", [corpus.acyclic_disk, corpus.loop_disk])
def test_corpus_disks_follow_the_base_name(make):
    assert type(make(ZZ, 2, "chain")) is ChainComplex
    assert type(make(ZZ, 2)) is type(make(ZZ, 2, "simplicial")) \
        is SimplicialModule
    for base in ("chian", 5, None, ["chain"]):
        with pytest.raises(ValueError, match="unknown base category"):
            make(ZZ, 2, base)


def test_action_refuses_a_permutation_of_the_wrong_length():
    A = associative_operad(ZZ, "chain", 3, 0).collection
    with pytest.raises(ValueError, match="wrong length"):
        A.action(sig(2), (0, 1, 2))


def test_action_refuses_a_tuple_that_is_not_a_permutation():
    # at a level, and at a zero level beyond the arity bound, where a
    # zero map used to come back
    A = associative_operad(ZZ, "chain", 3, 0).collection
    with pytest.raises(ValueError, match="not a permutation"):
        A.action(sig(2), (0, 0))
    with pytest.raises(ValueError, match="not a permutation"):
        A.action(sig(4), (0, 0, 1, 2))


def test_checker_rejects_corrupted_composition():
    P = associative_operad(ZZ, "chain", 3, 0)
    key = (sig(2), 0, sig(2))
    f = P.compositions[key]
    bad = dict(f.component(0).entries)
    (r, c), v = next(iter(bad.items()))
    bad[(r, c)] = v + 1
    comps = [LinearMap(f.component(0).source, f.component(0).target, bad)]
    P.compositions[key] = P.ops.make_map(f.source, f.target, comps)
    assert operad_check(P) != []


def test_checker_rejects_corrupted_action():
    P = associative_operad(ZZ, "chain", 3, 0)
    s2 = sig(2)
    swap = (1, 0)
    f = P.collection.actions[s2][swap]
    lev0 = f.component(0).source
    # a shear is invertible but not an involution, so the law
    # action(swap) . action(swap) = id must fail
    shear = LinearMap(lev0, lev0, {(0, 0): 1, (0, 1): 1, (1, 1): 1})
    P.collection.actions[s2][swap] = P.ops.make_map(f.source, f.target, [shear])
    assert any(v[0] == "action-law" for v in collection_check(P.collection))


def test_checker_rejects_non_simplicial_structure_map():
    P = associative_operad(F5, "simplicial", 2, 2)
    key = (sig(2), 0, sig(1))
    f = P.composition(*key)
    comps = list(f.components)
    # break commutation with the face maps at the top level only
    top = dict(comps[-1].entries)
    top[(0, 0)] = F5.add(top.get((0, 0), F5.zero), F5.one)
    comps[-1] = LinearMap(comps[-1].source, comps[-1].target, top)
    P.compositions[key] = P.ops.make_map(f.source, f.target, comps)
    bad = operad_check(P)
    assert ("composition-not-a-map", key) in bad


# -- composite product ------------------------------------------------------


def _ordered_terms(M, N, sig):
    """Every decorated two-level term (k, dbar, phi) of (M o N) at sig,
    canonical or not, in the order of dbar and then phi."""
    cbar, c = sig
    n = len(cbar)
    out = []
    for k in range(M.max_arity + 1):
        for dbar in iproduct(M.colors, repeat=k):
            msig = (dbar, c)
            if M.is_zero_level(msig):
                continue
            for phi in iproduct(range(k), repeat=n):
                fsigs = [(tuple(cbar[i] for i in range(n) if phi[i] == j),
                          dbar[j]) for j in range(k)]
                if any(N.is_zero_level(fs) for fs in fsigs):
                    continue
                factors = [M.level(msig)] + [N.level(fs) for fs in fsigs]
                out.append(op.CompositeTerm(
                    k, dbar, phi, msig, fsigs, factors,
                    op._tensor_many(M.ops, factors)))
    return out


def _ordered_composite(M, N):
    """M o N the long way, the oracle of `composite_product`: the sum of
    every ordered term divided by the slot transpositions of each S_k
    through one `_coinvariants` per level, and the input relabelings
    built on the whole sum, then pushed down with `_descend`.  Returns
    the collection, the ordered terms and the per-degree quotients."""
    ops, D = M.ops, M.max_degree
    ring, Obj = ops.ring, ops.Obj
    data = {}
    for s in enumerate_signatures(M.colors, M.max_arity):
        terms = _ordered_terms(M, N, s)
        if terms:
            data[s] = terms
    lays = {s: [chain._layout(t.factors, D) for t in ts]
            for s, ts in data.items()}
    index = {s: {t.key(): ti for ti, t in enumerate(ts)}
             for s, ts in data.items()}
    levels, quotients, bigs, offs = {}, {}, {}, {}
    for s, terms in data.items():
        big, offsets = ops.direct_sum([t.obj for t in terms])
        rels = [[] for _ in range(D + 1)]
        for k in sorted({t.k for t in terms} - {0, 1}):
            kterms = [ti for ti, t in enumerate(terms) if t.k == k]
            cols = [{offsets[ti][n] + r for ti in kterms
                     for r in range(terms[ti].obj.level(n).rank)}
                    for n in range(D + 1)]
            for tr in range(k - 1):
                g = perms.transposition(k, tr)
                pieces = []
                for ti in kterms:
                    t = terms[ti]
                    # g is an involution, so phi moves by g itself
                    tj = index[s][(k, tuple(t.dbar[g[j]] for j in range(k)),
                                   tuple(g[v] for v in t.phi))]
                    blocks = chain._tensor_entries(
                        ring, Obj, (M.action(t.msig, g),) + (None,) * k,
                        (0,) + tuple(1 + j for j in g), lays[s][ti],
                        lays[s][tj])
                    pieces.append((blocks, offsets[ti], offsets[tj]))
                for n, ents in enumerate(op._placed(pieces, D)):
                    rels[n].append((ents, cols[n]))
        levels[s], quotients[s] = op._coinvariants(ops, big, rels)
        bigs[s], offs[s] = big, offsets
    gens = {}
    for s, terms in data.items():
        n_in = len(s[0])
        gens[s] = {}
        for tr in range(n_in - 1):
            g = perms.transposition(n_in, tr)
            tsig = sig_act(s, g)
            pieces = []
            for ti, t in enumerate(terms):
                phi2 = tuple(t.phi[v] for v in g)
                tj = index[tsig][(t.k, t.dbar, phi2)]
                maps = [None] * (1 + t.k)
                a = t.phi[tr]
                if phi2[tr] == a:
                    fsig = t.fiber_sigs[a]
                    maps[1 + a] = N.action(fsig, perms.transposition(
                        len(fsig[0]), t.phi[:tr].count(a)))
                blocks = chain._tensor_entries(ring, Obj, maps, None,
                                               lays[s][ti], lays[tsig][tj])
                pieces.append((blocks, offs[s][ti], offs[tsig][tj]))
            gens[s][g] = ops.make_map(levels[s], levels[tsig], [
                op._descend(exactlin.compose(quotients[tsig][n].proj,
                                             LinearMap(bigs[s].level(n),
                                                       bigs[tsig].level(n),
                                                       ents)),
                            quotients[s][n], "input relabeling")
                for n, ents in enumerate(op._placed(pieces, D))])
    truncated = M.truncated or N.truncated or \
        any(len(s[0]) == 0 for s in N.levels)
    coll = Collection(M.ring, M.base, M.colors, M.max_arity, D, levels,
                      gens, truncated=truncated)
    return SimpleNamespace(collection=coll, terms=data, quotients=quotients)


def test_composite_of_regular_representations_matches_oracle():
    A = associative_operad(ZZ, "chain", 4, 0)
    res = composite_product(A.collection, A.collection)
    for n in range(1, 5):
        expect = two_level_tree_rank(n, 4)
        assert res.collection.level(sig(n)).level(0).rank == expect
        assert expect == factorial(n) * 2 ** (n - 1)
    assert collection_check(res.collection) == []


def test_composite_simplicial_constant_levels():
    A = associative_operad(ZZ, "simplicial", 2, 2)
    res = composite_product(A.collection, A.collection)
    assert res.collection.level(sig(2)).ranks() == (4, 4, 4)
    assert collection_check(res.collection) == []


def test_composite_of_random_simplicial_collections():
    """L o M for two random simplicial collections over Q with the sign
    action reads the ranks that dividing the ordered sum by the slot
    permutations gave (4,685 ordered basis elements in degree 2 of
    arity 3, against 845 canonical ones)."""
    rng = random.Random(101)
    L, M = (corpus.random_collection(rng, QQ, "simplicial", 3, 2, 2, "sign")
            for _ in range(2))
    LM = composite_product(L, M).collection
    assert [LM.level(sig(n)).ranks() for n in range(1, 4)] == \
        [(0, 6, 25), (4, 13, 65), (28, 101, 845)]


def test_composite_unit_laws():
    A = associative_operad(ZZ, "chain", 3, 0)
    M = A.collection
    I = identity_collection(ZZ, "chain", (X,), 3, 0)
    IM = composite_product(I, M).collection
    MI = composite_product(M, I).collection
    for n in range(1, 4):
        assert IM.level(sig(n)).ranks() == M.level(sig(n)).ranks()
        assert MI.level(sig(n)).ranks() == M.level(sig(n)).ranks()
        for s in perms.all_permutations(n):
            assert IM.action(sig(n), s) == M.action(sig(n), s)
            assert MI.action(sig(n), s) == M.action(sig(n), s)


def _homology_fingerprint(coll):
    """Level ranks and homology presentations below the truncation
    degree, per signature: a complete iso invariant for bounded free
    complexes over a PID."""
    out = {}
    for s in coll.signatures():
        lev = coll.level(s)
        K = lev if coll.base == "chain" else moore_complex(lev)
        out[s] = (tuple(K.ranks()),
                  tuple((homology(K, n).rank,
                         tuple(homology(K, n).invariant_factors))
                        for n in range(K.max_degree)))
    return out


@pytest.mark.parametrize("ring,action", [(F5, "trivial"), (F5, "sign"),
                                         (QQ, "sign"), (ZZ, "trivial")])
def test_composite_associativity_invariants(ring, action):
    rng = random.Random(101)
    L = corpus.random_collection(rng, ring, "chain", 3, 2, 2, action)
    M = corpus.random_collection(rng, ring, "chain", 3, 2, 2, action)
    N = corpus.random_collection(rng, ring, "chain", 3, 2, 2, action)
    left = composite_product(composite_product(L, M).collection, N).collection
    right = composite_product(L, composite_product(M, N).collection).collection
    assert _homology_fingerprint(left) == _homology_fingerprint(right)


def _sign_and_nullary(ring):
    """Rank-one binary level on which the swap acts by -1, against a
    collection with a nullary level, so the swap fixes a composite term."""
    ops = op._ops_for("chain", ring, 0)
    one = ops.unit_obj()
    minus = ops.make_map(one, one, [LinearMap(
        one.level(0), one.level(0), {(0, 0): ring.normalize(-1)})])
    M = Collection(ring, "chain", (X,), 2, 0, {sig(2): one},
                   {sig(2): {(1, 0): minus}})
    N = Collection(ring, "chain", (X,), 2, 0, {((), X): one, sig(1): one})
    return M, N


def test_composite_sign_action_over_integers_refuses_torsion():
    M, N = _sign_and_nullary(ZZ)
    assert collection_check(M) == []
    with pytest.raises(ValueError, match="torsion"):
        composite_product(M, N)


def test_composite_sign_action_over_a_field_is_exact():
    M, N = _sign_and_nullary(F5)
    res = composite_product(M, N)
    # the fixed term dies in the quotient: 2x = 0 forces x = 0 mod 5
    assert res.collection.level(((), X)).level(0).rank == 0


def test_composite_orbit_fast_path_matches_generic(monkeypatch):
    # only a term with two empty fibers has a stabilizer to divide by,
    # so the quotient runs on the unital operad's arity-0 level
    A = associative_operad(F5, "chain", 3, 0, unital=True).collection
    fast = composite_product(A, A).collection
    seen = []
    monkeypatch.setattr(op, "cokernel", lambda m: seen.append(m) or
                        cokernel(m))
    with smith_route():
        slow = composite_product(A, A).collection
    assert seen
    for n in range(4):
        assert fast.level(sig(n)).ranks() == slow.level(sig(n)).ranks()
    # A(k) (x) A(0)^k is the regular representation of S_k, which the
    # swaps of the empty fibers divide to rank one, for k = 0..3
    assert fast.level(sig(0)).ranks() == (4,)
    assert collection_check(slow) == []


def _filtered_phis(rank, dbar, n):
    """The canonical phi the way `_composite_terms` first listed them:
    every phi in range(k)^n, kept when `_slot_order` sorts its slots to
    the identity."""
    return [phi for phi in iproduct(range(len(dbar)), repeat=n)
            if op._slot_order(rank, dbar, phi) == tuple(range(len(dbar)))]


def _filtered_terms(M, N, s):
    """(k, dbar, phi, fiber signatures) of every canonical term at s,
    through `_filtered_phis`, in the order of `_composite_terms`."""
    rank = {c: i for i, c in enumerate(M.colors)}
    cbar, c = s
    out = []
    for k in range(M.max_arity + 1):
        for dbar in combinations_with_replacement(M.colors, k):
            if M.is_zero_level((dbar, c)):
                continue
            for phi in _filtered_phis(rank, dbar, len(cbar)):
                fsigs = [(tuple(x for x, j in zip(cbar, phi) if j == a),
                          dbar[a]) for a in range(k)]
                if not any(N.is_zero_level(fs) for fs in fsigs):
                    out.append((k, dbar, phi, fsigs))
    return out


def test_sorted_phis_match_the_filter_over_three_colors():
    colors = ("a", "b", "c")
    rank = {c: i for i, c in enumerate(colors)}
    for k in range(5):
        for dbar in combinations_with_replacement(colors, k):
            for n in range(6):
                assert list(op._sorted_phis(dbar, n)) == \
                    _filtered_phis(rank, dbar, n), (dbar, n)


@pytest.mark.parametrize("pair", [
    lambda: (associative_operad(ZZ, "chain", 6, 0).collection,) * 2,
    lambda: (associative_operad(ZZ, "chain", 4, 0, unital=True)
             .collection,) * 2,
    lambda: (_two_color_associative(),) * 2,
    lambda: _nullary_pair("chain"),
], ids=["regular-6", "unital-4", "two-color", "nullary"])
def test_composite_terms_match_the_filtered_oracle(pair):
    """The terms of `_composite_terms`, in order, against the filter over
    all of range(k)^n that it replaced, up to arity 6."""
    M, N = pair()
    for s in enumerate_signatures(M.colors, M.max_arity):
        got = [(t.k, t.dbar, t.phi, t.fiber_sigs)
               for t in op._composite_terms(M, N, s)]
        assert got == _filtered_terms(M, N, s)


def _old_route_action(M, N, res, sig, s, n):
    """Degree-n component of the input relabeling s on (M o N)(sig),
    built the way composite_product used to: the tensor map of the
    identity and the fiber actions, one per ordered term of res (an
    `_ordered_composite`), embedded at the term offsets, then
    proj_t o bigmap o section_s."""
    ops, ring = M.ops, M.ring
    tsig = sig_act(sig, s)
    terms, tterms = res.terms[sig], res.terms[tsig]
    tindex = {t.key(): ti for ti, t in enumerate(tterms)}

    def offsets(ts):
        return [sum(u.obj.level(n).rank for u in ts[:i])
                for i in range(len(ts) + 1)]

    so, to = offsets(terms), offsets(tterms)
    entries = {}
    for ti, t in enumerate(terms):
        phi2 = tuple(t.phi[s[j]] for j in range(len(s)))
        tj = tindex[(t.k, t.dbar, phi2)]
        whole = ops.identity(t.factors[0])
        for j in range(t.k):
            fib = tuple(i for i in range(len(s)) if t.phi[i] == j)
            fib2 = tuple(i for i in range(len(s)) if phi2[i] == j)
            tau = tuple(fib.index(s[i]) for i in fib2)
            whole = ops.tensor_map(whole, N.action(t.fiber_sigs[j], tau))
        for (r, c), v in whole.component(n).entries.items():
            entries[(to[tj] + r, so[ti] + c)] = v
    bigmap = LinearMap(FreeModule(ring, so[-1]), FreeModule(ring, to[-1]),
                       entries)
    return res.quotients[tsig][n].proj @ bigmap @ res.quotients[sig][n].section


def _bracketings(ring, action):
    rng = random.Random(101)
    L, M, N = (corpus.random_collection(rng, ring, "chain", 3, 2, 2, action)
               for _ in range(3))
    LM = composite_product(L, M).collection
    MN = composite_product(M, N).collection
    return [(L, M), (M, N), (LM, N), (L, MN)]


def _two_color_associative():
    """Ass(3) with one color split in two, so that relabeling inputs
    changes the signature: building a permutation's action reads
    generators at signatures other than its start."""
    A = associative_operad(ZZ, "chain", 3, 0)
    return restrict_colors({"a": X, "b": X}, A, ("a", "b")).collection


@pytest.mark.parametrize("pairs", [
    lambda: [(associative_operad(ZZ, "chain", 4, 0).collection,) * 2],
    lambda: [(associative_operad(ZZ, "simplicial", 3, 2).collection,) * 2],
    lambda: _bracketings(QQ, "sign"),
    lambda: _bracketings(F5, "sign"),
    lambda: [(_two_color_associative(),) * 2],
], ids=["regular-4-Z", "simplicial-Z", "triple-Q-sign", "triple-F5-sign",
        "two-color-Z"])
def test_composite_action_tables_match_tensor_map_route(pairs):
    """Every action table of composite_product, entry for entry, against
    the tensor-complex route it replaced."""
    checked = crossing = 0
    for M, N in pairs():
        coll = composite_product(M, N).collection
        res = _ordered_composite(M, N)
        for sig in coll.signatures():
            n_in = len(sig[0])
            if n_in < 2:
                continue
            for s in perms.all_permutations(n_in):
                f = coll.action(sig, s)
                crossing += sig_act(sig, s) != sig
                for n in range(coll.max_degree + 1):
                    old = _old_route_action(M, N, res, sig, s, n)
                    assert f.component(n).entries == old.entries
                    checked += 1
    assert checked
    if len(coll.colors) > 1:
        assert crossing


def _graded_collection(ring, action):
    """Levels of arity 1..3 with a nonzero odd degree and zero
    differentials (`_graded_factor`), each transposition acting by a
    scalar: slot moves between them carry Koszul signs."""
    rng = random.Random(5)
    ops = op._ops_for("chain", ring, 2)
    scale = ring.one if action == "trivial" else ring.normalize(-1)
    levels, actions = {}, {}
    for n in range(1, 4):
        lev = levels[sig(n)] = _graded_factor(rng, ring, 2)
        swap = ops.make_map(lev, lev, [LinearMap(
            lev.level(m), lev.level(m),
            {(i, i): scale for i in range(lev.level(m).rank)})
            for m in range(3)])
        actions[sig(n)] = dict.fromkeys(perms.transpositions(n), swap)
    return Collection(ring, "chain", (X,), 3, 2, levels, actions)


def _shear_swap():
    """A rank-two binary level over Q whose swap is [[1, 0], [1, -1]],
    an involution that is not a signed permutation, so that slot moves
    take the generic route of the oracle."""
    ops = op._ops_for("chain", QQ, 0)
    two = ChainComplex(QQ, [FreeModule(QQ, 2)], [])
    shear = ops.make_map(two, two, [LinearMap.from_rows(
        two.level(0), two.level(0), [[1, 0], [1, -1]])])
    return Collection(QQ, "chain", (X,), 3, 0,
                      {sig(1): ops.unit_obj(), sig(2): two},
                      {sig(2): {(1, 0): shear}})


def _basis_change(M, res, ref, s, n):
    """Degree n of the map from composite_product's level at s (res) to
    the oracle's (ref): each canonical term's block, through the section
    of its stabilizer quotient when it has one (`operad._term_block`),
    placed at that term among the ordered terms, then the oracle's
    projection."""
    quotient = ref.quotients[s][n]
    index = {t.key(): ti for ti, t in enumerate(ref.terms[s])}
    starts = [0]
    for t in ref.terms[s]:
        starts.append(starts[-1] + t.obj.level(n).rank)
    entries, col = {}, 0
    for t in res.terms[s]:
        _, obj, qs = op._term_block(M.ops, M, t)
        rank = obj.level(n).rank
        section = qs[n].section.entries if qs else \
            {(r, r): M.ring.one for r in range(rank)}
        row = starts[index[t.key()]]
        entries.update({(row + r, col + c): v
                        for (r, c), v in section.items()})
        col += rank
    return quotient.proj @ LinearMap(FreeModule(M.ring, col),
                                     quotient.proj.source, entries)


def _structure_maps(obj):
    """(degree from, degree to, map) of each differential, face and
    degeneracy."""
    if isinstance(obj, ChainComplex):
        return [(n, n - 1, obj.d(n)) for n in range(1, obj.max_degree + 1)]
    return [(n, n - 1, obj.face(n, i)) for n in range(1, obj.max_degree + 1)
            for i in range(n + 1)] + \
        [(n, n + 1, obj.degeneracy(n, i)) for n in range(obj.max_degree)
         for i in range(n + 1)]


@pytest.mark.parametrize("pairs,generic", [
    *[(lambda r=r, a=a: [tuple(corpus.random_collection(
        random.Random(seed), r, "chain", 3, 2, 2, a) for seed in (s, s + 1))
        for s in (3, 7)], False)
      for r in (ZZ, QQ, F5) for a in ("trivial", "sign")],
    (lambda: _bracketings(F5, "trivial"), False),
    (lambda: _bracketings(QQ, "sign"), False),
    (lambda: [(_graded_collection(r, a), _graded_collection(r, a))
              for r, a in ((ZZ, "trivial"), (QQ, "sign"), (F5, "sign"))],
     False),
    (lambda: [(_two_color_associative(),) * 2], False),
    (lambda: [(associative_operad(ZZ, "chain", 3, 0, unital=True)
               .collection,) * 2,
              (associative_operad(F5, "simplicial", 3, 1, unital=True)
               .collection,) * 2,
              _nullary_pair("chain"), _nullary_pair("simplicial"),
              _sign_and_nullary(F5)], False),
    (lambda: [(_shear_swap(),) * 2], True),
], ids=[f"random-{r}-{a}" for r in ("Z", "Q", "F5")
        for a in ("trivial", "sign")]
    + ["triple-F5-trivial", "triple-Q-sign", "graded", "two-color",
       "nullary", "shear"])
def test_composite_matches_the_ordered_sum_oracle(pairs, generic):
    """composite_product against `_ordered_composite`, entry for entry:
    every level's ranks and structure maps, and the action of every
    permutation.  The oracle keeps the canonical terms' basis elements
    whenever the actions are signed, so the change of basis between the
    two is the identity; a generic action sends the oracle through an
    exact cokernel of its own choosing, and there both sides are compared
    through that change of basis, which must be invertible.  Each result
    also passes `collection_check`, the action laws with which
    `operad_check` starts; the triples run both bracketings of the
    composite associativity triple."""
    for M, N in pairs():
        res, ref = composite_product(M, N), _ordered_composite(M, N)
        got, want = res.collection, ref.collection
        assert got.signatures() == want.signatures()
        assert got.truncated == want.truncated
        for s in want.signatures():
            g, w = got.level(s), want.level(s)
            assert g.ranks() == w.ranks()
            P = [_basis_change(M, res, ref, s, n)
                 for n in range(got.max_degree + 1)]
            if generic:
                assert all(exactlin.kernel(p)[0].rank == 0 for p in P)
            else:
                assert all(p == LinearMap.identity(p.source) for p in P)
            for (n, m, f), (_, _, h) in zip(_structure_maps(g),
                                            _structure_maps(w)):
                assert (P[m] @ f).entries == (h @ P[n]).entries
            for p in perms.all_permutations(len(s[0])):
                t = sig_act(s, p)
                Pt = [_basis_change(M, res, ref, t, n)
                      for n in range(got.max_degree + 1)]
                for n, (f, h) in enumerate(zip(
                        got.action(s, p).components,
                        want.action(s, p).components)):
                    assert (Pt[n] @ f).entries == (h @ P[n]).entries
        assert collection_check(got) == []


def _nullary_pair(base):
    """A random collection with a binary level over Q, against one with a
    random nullary level: the swap of the two empty fibers under the
    binary top fixes that term, so its stabilizer quotient runs, on
    random structure maps."""
    rng = random.Random(0)
    M = corpus.random_collection(rng, QQ, base, 2, 2, 2, "sign")
    ops = op._ops_for(base, QQ, 2)
    nullary = corpus.random_complex(rng, QQ, 2, 2) if base == "chain" else \
        corpus.random_simplicial_module(rng, QQ, 2, 2)
    N = Collection(QQ, base, (X,), 2, 2, {((), X): nullary,
                                          sig(1): ops.unit_obj()})
    return M, N


@pytest.mark.parametrize("pair,what", [
    (lambda: [associative_operad(ZZ, "chain", 4, 0,
                                 unital=True).collection] * 2,
     "input relabeling"),
    (lambda: _nullary_pair("chain"), "differential"),
    (lambda: _nullary_pair("simplicial"), "face"),
], ids=["relabeling", "differential", "face"])
def test_composite_refuses_a_quotient_that_does_not_descend(
        monkeypatch, pair, what):
    # explicit checks, so they also hold under python -O.  Only a term
    # with two empty fibers of one color is divided, so each pair has
    # arity-0 levels; at arity 4 the unital operad has such terms under
    # two inputs, which the relabelings move
    M, N = pair()
    assert not M.is_zero_level(sig(2))
    real = op._quotient_by

    def keep_e0(ring, module, mats):
        """A quotient onto e0 alone, which the structure maps do not
        descend to."""
        if module.rank < 2:
            return real(ring, module, mats)
        gens = FreeModule(ring, 1)
        return CokernelPresentation(LinearMap(module, gens, {(0, 0): 1}),
                                    LinearMap(gens, module, {(0, 0): 1}))

    monkeypatch.setattr(op, "_quotient_by", keep_e0)
    with pytest.raises(ValueError, match=f"^{what} does not descend"):
        composite_product(M, N)


def _graded_factor(rng, ring, D):
    """A complex with zero differentials and a nonzero odd degree."""
    ranks = [rng.randint(0, 2) for _ in range(D + 1)]
    ranks[1] = max(ranks[1], 1)
    levels = [FreeModule(ring, r) for r in ranks]
    return ChainComplex(ring, levels, [LinearMap.zero(levels[n], levels[n - 1])
                                       for n in range(1, D + 1)])


def _oracle_map(ops, src, tgt, items):
    return ops.make_map(src, tgt, [LinearMap(src.level(n), tgt.level(n),
                                             dict(ents))
                                   for n, ents in enumerate(items)])


def _hand_braiding(ops, A, B):
    """A (x) B -> B (x) A from the hand loops of `test_tensor_routes`."""
    items = _oracle_braiding(A, B, ops.max_degree) \
        if ops.Obj is ChainComplex \
        else _oracle_swap(A, B)
    return _oracle_map(ops, ops.tensor(A, B), ops.tensor(B, A), items)


def _hand_associator(ops, A, B, C):
    """(A (x) B) (x) C -> A (x) (B (x) C) from the hand loop of
    `test_tensor_routes`; the simplicial tensor is degreewise Kronecker,
    so its associator has identity entries."""
    src = ops.tensor(ops.tensor(A, B), C)
    tgt = ops.tensor(A, ops.tensor(B, C))
    items = _oracle_associator(A, B, C, ops.max_degree) \
        if ops.Obj is ChainComplex else \
        [[((i, i), ops.ring.one) for i in range(src.level(n).rank)]
         for n in range(ops.max_degree + 1)]
    return _oracle_map(ops, src, tgt, items)


def _adjacent_swap(ops, objs, i):
    """Swap tensor factors i and i+1 of a left-associated tensor of two or
    three factors, through the braiding and, at i = 1, the associator,
    each written out by hand."""
    if i == 0:
        swap = _hand_braiding(ops, objs[0], objs[1])
        return swap if len(objs) == 2 else \
            ops.tensor_map(swap, ops.identity(objs[2]))
    A, B, C = objs
    inner = ops.tensor_map(ops.identity(A), _hand_braiding(ops, B, C))
    return _hand_associator(ops, A, C, B).inverse() @ inner @ \
        _hand_associator(ops, A, B, C)


def _tensor_route(ops, objs, maps, sigma):
    """(x)_j maps[j], then slot j gets factor sigma(j), by adjacent swaps."""
    maps = [ops.identity(A) if f is None else f for A, f in zip(objs, maps)]
    whole = maps[0]
    for f in maps[1:]:
        whole = ops.tensor_map(whole, f)
    order = list(range(len(maps)))
    for j, want in enumerate(sigma):
        for i in range(order.index(want) - 1, j - 1, -1):
            factors = [maps[t].target for t in order]
            whole = _adjacent_swap(ops, factors, i) @ whole
            order[i], order[i + 1] = order[i + 1], order[i]
    return whole


@pytest.mark.parametrize("k", [2, 3])
@pytest.mark.parametrize("ring", [ZZ, QQ, F5, Zmod(2)], ids=lambda r: r.name())
@pytest.mark.parametrize("base", ["chain", "simplicial"])
def test_tensor_entries_match_braiding_route(base, ring, k):
    """_tensor_entries against tensor_map, braidings and associators, for
    every sigma in S_k and random factor maps, some of them identities;
    the chain factors have odd degrees, so Koszul signs show."""
    D = 2
    ops = op._ops_for(base, ring, D)
    checked = 0
    for seed in range(3):
        rng = random.Random(seed)
        if base == "chain":
            objs = [_graded_factor(rng, ring, D) for _ in range(k)]
            tgts = [_graded_factor(rng, ring, D) for _ in range(k)]
        else:
            objs = [corpus.random_simplicial_module(rng, ring, D, 1)
                    for _ in range(2 * k)]
            objs, tgts = objs[:k], objs[k:]
        maps = [None if rng.random() < 0.3 else ops.make_map(A, B, [
            corpus.random_matrix(rng, A.level(n), B.level(n), 1, 0.8)
            for n in range(D + 1)]) for A, B in zip(objs, tgts)]
        outs = [A if f is None else f.target for A, f in zip(objs, maps)]
        src = chain._layout(objs, D)
        for sigma in [None] + perms.all_permutations(k):
            order = sigma or range(k)
            route = _tensor_route(ops, objs, maps, order)
            tgt = chain._layout([outs[j] for j in order], D)
            got = chain._tensor_entries(ring, ops.Obj, maps, sigma, src, tgt)
            for n in range(D + 1):
                comp = route.component(n)
                assert LinearMap(comp.source, comp.target,
                                 got[n]).entries == comp.entries
                checked += bool(comp.entries)
    assert checked


@pytest.mark.parametrize("ring", [ZZ, QQ, F5, Zmod(2)], ids=lambda r: r.name())
@pytest.mark.parametrize("base", ["chain", "simplicial"])
def test_replay_reorderings_match_the_hand_route(base, ring):
    """The law replay's associator is the hand associator, entry order
    included, and its parallel-associativity mediator, one signed
    permutation, is assoc(X,Z,Y)^-1 (1 (x) braiding(Y,Z)) assoc(X,Y,Z)
    from the hand loops; the chain factors have odd degrees, so the
    Koszul sign of the mediator shows."""
    D = 2
    ops = op._ops_for(base, ring, D)
    R = op._Replay(SimpleNamespace(ops=ops))
    signed = moved = 0
    for seed in range(3):
        rng = random.Random(seed)
        if base == "chain":
            X, Y, Z = (_graded_factor(rng, ring, D) for _ in range(3))
        else:
            X, Y, Z = (corpus.random_simplicial_module(rng, ring, D, 2)
                       for _ in range(3))
        assoc = R.reordered(X, Y, Z, (0, (1, 2)))
        hand = _hand_associator(ops, X, Y, Z)
        assert [list(c.entries.items()) for c in assoc.components] == \
            [list(c.entries.items()) for c in hand.components]
        mediator = R.reordered(X, Y, Z, ((0, 2), 1))
        route = _adjacent_swap(ops, [X, Y, Z], 1)
        assert mediator == route
        moved += any(r != c for comp in mediator.components
                     for r, c in comp.entries)
        signed += any(v != ring.one for comp in mediator.components
                      for v in comp.entries.values())
    # Y and Z trade places, with the sign -1 wherever the symmetry is
    # signed and -1 != 1
    assert moved
    assert bool(signed) == (base == "chain" and ring != Zmod(2))


@pytest.mark.parametrize("ring", [ZZ, QQ, F5, Zmod(2)], ids=lambda r: r.name())
@pytest.mark.parametrize("base", ["chain", "simplicial"])
def test_unitors_are_identity_entries(base, ring):
    """The replay's unitors, and chain.left_unitor and right_unitor,
    hold the identity entries in order from the tensor with the unit,
    and commute with the structure maps."""
    D = 2
    ops = op._ops_for(base, ring, D)
    R = op._Replay(SimpleNamespace(ops=ops))
    for seed in range(3):
        rng = random.Random(seed)
        X = _graded_factor(rng, ring, D) if base == "chain" else \
            corpus.random_simplicial_module(rng, ring, D, 2)
        unit = ops.unit_obj()
        for side, src in (("left", ops.tensor(unit, X)),
                          ("right", ops.tensor(X, unit))):
            f = R.unitor(X, side)
            ops.check_map(f)
            assert f.source.ranks() == src.ranks() and f.target is X
            assert [list(c.entries.items()) for c in f.components] == \
                [[((i, i), ring.one) for i in range(X.level(n).rank)]
                 for n in range(D + 1)]
            if base == "chain":
                g = (chain.left_unitor if side == "left" else chain.right_unitor)(X)
                assert [list(c.entries.items()) for c in g.components] == \
                    [list(c.entries.items()) for c in f.components]
                assert g.source.ranks() == src.ranks()


def _zero_differentials(ring, ranks):
    levels = [FreeModule(ring, r) for r in ranks]
    return ChainComplex(ring, levels, [LinearMap.zero(levels[n], levels[n - 1])
                                       for n in range(1, len(ranks))])


_TENSOR_D = 2


def _left(k):
    """The left-associated bracketing of k factors, as nested pairs."""
    tree = 0
    for j in range(1, k):
        tree = (tree, j)
    return tree


@st.composite
def _bracketing(draw, lo, hi):
    """A bracketing of the factors lo..hi-1, as nested pairs."""
    if hi - lo == 1:
        return lo
    cut = draw(st.integers(lo + 1, hi - 1))
    return (draw(_bracketing(lo, cut)), draw(_bracketing(cut, hi)))


def _column_ordered(f) -> bool:
    """Whether every component of f lists its entries by strictly
    ascending column: at most one entry per column, in column order."""
    return f is None or all(
        all(a < b for a, b in zip(cols, cols[1:]))
        for cols in ([c for _, c in comp.entries] for comp in f.components))


@st.composite
def _tensor_factors(draw):
    """ops, k = 1..4 source objects, a map out of each, sigma in S_k or
    None, and a bracketing of the source and of the target tensor.  A
    map is None, a signed permutation listed by row (so its columns come
    out of order), a monomial map with entries outside +-1 and zero
    columns, or a dense map with several entries in some columns and
    none in others, listed in a drawn order; the last two may map into
    rank 0.  Chain factors have zero differentials and a nonzero degree
    1, so Koszul signs cross; a bracketing other than the left one
    interleaves the boxes."""
    ring = draw(st.sampled_from([ZZ, QQ, F5, Zmod(2)]))
    base = draw(st.sampled_from(["chain", "simplicial"]))
    ops = op._ops_for(base, ring, _TENSOR_D)

    def obj(min_odd):
        if base == "simplicial":
            rng = random.Random(draw(st.integers(0, 2 ** 16)))
            return corpus.random_simplicial_module(rng, ring, _TENSOR_D, 1)
        ranks = draw(st.lists(st.integers(0, 2), min_size=_TENSOR_D + 1,
                              max_size=_TENSOR_D + 1))
        ranks[1] = max(ranks[1], min_odd)
        return _zero_differentials(ring, ranks)

    values = st.sampled_from([1, -1, 2, -3])
    k = draw(st.integers(1, 4))
    objs, maps = [], []
    for _ in range(k):
        A = obj(1)
        kind = draw(st.sampled_from(["identity", "signed", "monomial",
                                     "dense"]))
        if kind == "identity":
            objs.append(A)
            maps.append(None)
            continue
        B = A if kind == "signed" else obj(0)
        comps = []
        for n in range(_TENSOR_D + 1):
            src, tgt = A.level(n), B.level(n)
            if kind == "signed":
                cols = draw(st.permutations(range(src.rank)))
                ents = {(r, c): draw(st.sampled_from([1, -1]))
                        for r, c in enumerate(cols)}
            elif kind == "monomial":
                ents = {}
                for c in range(src.rank):
                    if tgt.rank and draw(st.booleans()):
                        r = draw(st.integers(0, tgt.rank - 1))
                        ents[(r, c)] = draw(values)
            else:
                cells = [(r, c) for c in range(src.rank)
                         for r in range(tgt.rank) if draw(st.booleans())]
                ents = {rc: draw(values)
                        for rc in draw(st.permutations(cells))}
            comps.append(LinearMap(src, tgt, ents))
        objs.append(A)
        maps.append(ops.make_map(A, B, comps))
    # sigma is None in about one case in four
    sigma = None if draw(st.integers(0, 3)) == 0 else \
        tuple(draw(st.permutations(range(k))))
    return ops, objs, maps, sigma, draw(_bracketing(0, k)), \
        draw(_bracketing(0, k))


def _rank_zero_target():
    """Factor 0's degree-1 part maps into rank 0, so the nonzero source
    block of degrees (1, 0) has a target degree tuple of rank 0."""
    ops = op._ops_for("chain", ZZ, _TENSOR_D)
    A = _zero_differentials(ZZ, [1, 1, 0])
    B = _zero_differentials(ZZ, [1, 0, 0])
    f = ops.make_map(A, B, [LinearMap(A.level(0), B.level(0), {(0, 0): 2}),
                            LinearMap.zero(A.level(1), B.level(1)),
                            LinearMap.zero(A.level(2), B.level(2))])
    return ops, [A, A], [f, None], (1, 0), _left(2), _left(2)


def _odd_swap():
    """Two degree-1 factors trade places, with Koszul sign -1."""
    ops = op._ops_for("chain", ZZ, _TENSOR_D)
    A = _zero_differentials(ZZ, [0, 1, 0])
    return ops, [A, A], [None, None], (1, 0), _left(2), _left(2)


def _shared_column():
    """A degree-1 column with two entries, tensored with an odd factor
    and swapped past it: each entry lands on its own row, signed."""
    ops = op._ops_for("chain", ZZ, _TENSOR_D)
    A = _zero_differentials(ZZ, [0, 1, 0])
    B = _zero_differentials(ZZ, [0, 2, 0])
    f = ops.make_map(A, B, [LinearMap.zero(A.level(0), B.level(0)),
                            LinearMap(A.level(1), B.level(1),
                                      {(1, 0): 3, (0, 0): -1}),
                            LinearMap.zero(A.level(2), B.level(2))])
    return ops, [A, A], [f, None], (1, 0), _left(2), _left(2)


@settings(max_examples=200, deadline=None)
@given(_tensor_factors())
@example(_rank_zero_target())
@example(_odd_swap())
@example(_shared_column())
def test_tensor_entries_match_the_general_oracle(case):
    ops, objs, maps, sigma, src_tree, tgt_tree = case
    order = sigma or range(len(objs))
    outs = [A if f is None else f.target for A, f in zip(objs, maps)]
    ring, Obj, D = ops.ring, ops.Obj, ops.max_degree
    src = chain._bracketed_layout(objs, src_tree, D)
    tgt = chain._bracketed_layout([outs[j] for j in order], tgt_tree, D)
    got = chain._tensor_entries(ring, Obj, maps, sigma, src, tgt)
    want = _oracle_tensor_entries(ring, Obj, maps, sigma, src, tgt)
    assert got == want
    # the oracle walks the source columns in turn; on a left-associated
    # source, whose boxes are row-major runs in ascending start order,
    # with every factor listing its entries by ascending column, the
    # library walks them in that order too, so the entries agree in
    # order: LinearMap keeps its entries' order
    if src_tree == _left(len(objs)) and all(map(_column_ordered, maps)):
        assert [list(e.items()) for e in got] == \
            [list(e.items()) for e in want]
    # equal values of one type: the identity factors' coefficients are
    # passed on, not multiplied by the ring's one
    assert [{k: type(v) for k, v in e.items()} for e in got] == \
        [{k: type(v) for k, v in e.items()} for e in want]


@pytest.mark.parametrize("sigma", [None, (1, 0, 2), (2, 0, 1)])
def test_tensor_entries_with_identity_factors_over_q(sigma):
    # odd factors trade places with Koszul sign -1; every entry is a
    # Fraction, in the oracle's order, whether a map factor multiplies
    # it or only identities carry it
    ops = op._ops_for("chain", QQ, _TENSOR_D)
    A = _zero_differentials(QQ, [1, 2, 1])
    B = _zero_differentials(QQ, [1, 1, 2])
    f = ops.make_map(A, B, [LinearMap(A.level(0), B.level(0), {(0, 0): -1}),
                            LinearMap(A.level(1), B.level(1),
                                      {(0, 0): Fraction(1, 2), (0, 1): 3}),
                            LinearMap(A.level(2), B.level(2),
                                      {(0, 0): 1, (1, 0): -2})])
    for maps in ([None, None, None], [None, f, None], [f, None, f]):
        objs = [A, A, A]
        outs = [A if g is None else g.target for g in maps]
        order = sigma or range(3)
        src = chain._bracketed_layout(objs, _left(3), _TENSOR_D)
        tgt = chain._bracketed_layout([outs[j] for j in order], _left(3),
                                      _TENSOR_D)
        got = chain._tensor_entries(QQ, ChainComplex, maps, sigma, src, tgt)
        want = _oracle_tensor_entries(QQ, ChainComplex, maps, sigma, src,
                                      tgt)
        assert [[(k, v, type(v)) for k, v in e.items()] for e in got] == \
            [[(k, v, type(v)) for k, v in e.items()] for e in want]
        assert all(type(v) is Fraction for e in got for v in e.values())
        if sigma is not None:
            assert any(v == -1 for e in got for v in e.values())


def _bracketed_tensor(ops, objs, tree):
    if isinstance(tree, int):
        return objs[tree]
    return ops.tensor(*(_bracketed_tensor(ops, objs, t) for t in tree))


def _oracle_tensor_basis(base, objs, tree, D):
    """The basis of the tensor of objs bracketed as tree, by degree, as
    (degree tuple, index tuple) per position, one slot per factor: a
    two-factor tensor lists its summands p ascending (a simplicial one
    has the single summand (n, n)), the left factor's basis outer and
    the right factor's inner."""
    if isinstance(tree, int):
        A = objs[tree]
        return [[((n,), (i,)) for i in range(A.level(n).rank)]
                for n in range(A.max_degree + 1)]
    X, Y = (_oracle_tensor_basis(base, objs, t, D) for t in tree)
    mx, my = len(X) - 1, len(Y) - 1
    if base == "simplicial":
        return [[(dx + dy, ix + iy) for dx, ix in X[n] for dy, iy in Y[n]]
                for n in range(min(mx, my) + 1)]
    return [[(dx + dy, ix + iy)
             for p in range(max(0, n - my), min(n, mx) + 1)
             for dx, ix in X[p] for dy, iy in Y[n - p]]
            for n in range(min(mx + my, D) + 1)]


def _assert_layout_reads_the_basis(ops, T, layout, basis):
    """At each flat index of T, `_expand` puts the degree and index
    tuples that the oracle basis lists there."""
    assert len(layout) == ops.max_degree + 1
    assert T.ranks() == tuple(len(b) for b in basis)
    for boxes, want in zip(layout, basis):
        assert chain._expand(boxes) == want


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(["chain", "simplicial"]), st.integers(1, 4),
       st.integers(0, 2 ** 32 - 1), st.data())
def test_layouts_read_the_tensor_labels(base, k, seed, data):
    """`chain._layout`, and `chain._bracketed_layout` on a random
    bracketing, against the basis of the tensor object as index tuples
    (`_oracle_tensor_basis`), with rank-0 levels among the chain
    factors."""
    D = 2
    rng = random.Random(seed)
    ring = rng.choice([ZZ, QQ, F5])
    ops = op._ops_for(base, ring, D)
    if base == "chain":
        objs = [corpus.random_complex(rng, ring, D, max_rank=2)
                for _ in range(k)]
    else:
        objs = [corpus.random_simplicial_module(rng, ring, D, 1)
                for _ in range(k)]
    left = tensor_many(objs, D) if base == "chain" else \
        _bracketed_tensor(ops, objs, _left(k))
    _assert_layout_reads_the_basis(
        ops, left, chain._layout(objs, D),
        _oracle_tensor_basis(base, objs, _left(k), D))
    tree = data.draw(_bracketing(0, k))
    _assert_layout_reads_the_basis(
        ops, _bracketed_tensor(ops, objs, tree),
        chain._bracketed_layout(objs, tree, D),
        _oracle_tensor_basis(base, objs, tree, D))


@st.composite
def _signed_action(draw):
    """A ring, a rank n <= 8 and up to three signed column functions:
    each column j of a matrix holds one entry, +1 or -1, in any row."""
    ring = draw(st.sampled_from([ZZ, QQ, F5, Zmod(2)]))
    n = draw(st.integers(0, 8))
    mats = []
    for _ in range(draw(st.integers(0, 3))):
        cols = draw(st.lists(st.tuples(st.integers(0, max(n - 1, 0)),
                                       st.sampled_from([1, -1])),
                             min_size=n, max_size=n))
        mats.append({(i, j): s for j, (i, s) in enumerate(cols)})
    return ring, n, mats


@settings(max_examples=200, deadline=None)
@given(_signed_action())
# e2 = -e2 kills e2's class before e2 = e0 joins it to a smaller root
@example((QQ, 3, [{(0, 0): 1, (1, 1): 1, (2, 2): -1},
                  {(0, 0): 1, (1, 1): 1, (0, 2): 1}]))
def test_signed_quotient_matches_cokernel(case):
    ring, n, entries = case
    M = FreeModule(ring, n)
    ident = LinearMap.identity(M)
    mats = [LinearMap(M, M, e) for e in entries]
    rel = hstack([m - ident for m in mats]
                 + [LinearMap.zero(FreeModule(ring, 0), M)])
    pres = exactlin._smith_cokernel(rel)
    # the union-find path must not fall back on a cokernel or on any
    # Smith form
    def no_smith(m):
        raise AssertionError("Smith form on the union-find path")
    saved = op.cokernel, exactlin.smith_normal_form
    op.cokernel, exactlin.smith_normal_form = None, no_smith
    try:
        rels = [(m.entries, range(n)) for m in mats]
        if pres.invariant_factors:
            with pytest.raises(ValueError, match="torsion"):
                op._quotient_by(ring, M, rels)
            return
        q = op._quotient_by(ring, M, rels)
    finally:
        op.cokernel, exactlin.smith_normal_form = saved
    assert q.generators.rank == pres.generators.rank
    assert q.invariant_factors == ()
    assert q.proj @ q.section == LinearMap.identity(q.generators)
    for m in mats:
        assert (q.proj @ (m - ident)).is_zero()
    # proj and section skip the entry checks, so every entry must lie
    # inside the shape and be a nonzero canonical element, in [1, p)
    # over Z/p
    for f in (q.proj, q.section):
        for (i, j), v in f.entries.items():
            assert 0 <= i < f.target.rank and 0 <= j < f.source.rank
            assert v and ring.normalize(v) == v and type(v) is type(ring.one)
            if ring.p is not None:
                assert 0 < v < ring.p


def test_quotient_by_pads_a_relation_outside_plus_minus_one(monkeypatch):
    # a rank-2 block with swap [[0, 2], [1/2, 0]] beside a fixed e2:
    # monomial, but not signed, so the relation takes the general
    # cokernel, padded with the identity on e2, exactly as the full
    # matrix did
    M = FreeModule(QQ, 3)
    swap = {(0, 1): 2, (1, 0): Fraction(1, 2)}
    full = LinearMap(M, M, {**swap, (2, 2): 1})
    old = cokernel(hstack([full - LinearMap.identity(M)]))
    seen = []
    monkeypatch.setattr(op, "cokernel", lambda m: seen.append(m) or
                        cokernel(m))
    q = op._quotient_by(QQ, M, [(swap, range(2))])
    assert [m.entries for m in seen] == \
        [(full - LinearMap.identity(M)).entries]
    assert q.generators.rank == 2
    assert q.proj.entries == old.proj.entries
    assert q.section.entries == old.section.entries


@pytest.mark.parametrize("ring, entry, edges", [
    (QQ, Fraction(1), [(1, 1, 0)]), (QQ, Fraction(-1), [(1, -1, 0)]),
    (QQ, -1, [(1, -1, 0)]), (ZZ, -1, [(1, -1, 0)]), (F5, 4, [(1, -1, 0)]),
    (F5, -1, [(1, -1, 0)]), (F5, 6, [(1, 1, 0)]), (Zmod(2), 1, [(1, 1, 0)]),
    (Zmod(2), -1, [(1, 1, 0)])])
def test_signed_edges_read_plus_and_minus_one(ring, entry, edges):
    assert op._signed_edges(ring, [({(0, 1): entry}, [1])]) == (edges, [])
    # a zero entry, here p over Z/p, leaves its column empty: e1 dies
    zero = ring.p or 0
    assert op._signed_edges(ring, [({(0, 1): zero}, [1])]) == ([], [1])


@pytest.mark.parametrize("ring, entry", [
    (QQ, Fraction(1, 2)), (QQ, Fraction(-3, 2)), (QQ, 2), (ZZ, 2),
    (F5, 2), (F5, -2), (Zmod(7), 3)])
def test_signed_edges_refuse_other_units(ring, entry):
    assert op._signed_edges(ring, [({(0, 1): entry}, [1])]) is None


@pytest.mark.parametrize("force", [False, True])
def test_quotient_by_reads_a_missing_column_as_zero(force):
    # g e0 = e1 and g e1 = 0 on columns {0, 1}, the identity on e2: e1
    # dies, then e0 with it; read as the identity, e1 would survive
    M = FreeModule(ZZ, 3)
    full = LinearMap(M, M, {(1, 0): 1, (2, 2): 1})
    old = cokernel(hstack([full - LinearMap.identity(M)]))
    with smith_route() if force else nullcontext():
        q = op._quotient_by(ZZ, M, [({(1, 0): 1}, range(2))])
    assert q.generators.rank == old.generators.rank == 1
    assert (q.proj @ (full - LinearMap.identity(M))).is_zero()
    assert q.proj.entries == {(0, 2): 1}


def test_composite_refuses_factors_from_different_windows():
    # an explicit check, so it also holds under python -O
    A3 = associative_operad(ZZ, "chain", 3, 0).collection
    A2 = associative_operad(ZZ, "chain", 2, 0).collection
    with pytest.raises(ValueError, match="composite factors differ"):
        composite_product(A3, A2)


def test_composite_refuses_a_relabeling_onto_a_missing_signature():
    # N has a,b->b but not b,a->b: its levels are not closed under
    # relabeling, so the swap has no target to land on.  The constructor
    # refuses such an N, so the level is deleted after construction.
    ops = op._ops_for("chain", ZZ, 0)
    one = ops.unit_obj()
    ab, ba = (("a", "b"), "b"), (("b", "a"), "b")
    swap = {(1, 0): ops.identity(one)}
    N = Collection(ZZ, "chain", ("a", "b"), 2, 0, {ab: one, ba: one},
                   {ab: swap, ba: swap})
    del N.levels[ba], N.actions[ba]
    M = identity_collection(ZZ, "chain", ("a", "b"), 2, 0)
    with pytest.raises(ValueError,
                       match="sends a,b->b to b,a->b, which has no terms"):
        composite_product(M, N)


def test_composite_with_nullary_sets_truncation_flag():
    A = associative_operad(ZZ, "chain", 3, 0, unital=True)
    res = composite_product(A.collection, A.collection)
    assert res.collection.truncated
    B = associative_operad(ZZ, "chain", 3, 0)
    assert not composite_product(B.collection, B.collection).collection.truncated


# -- morphisms ---------------------------------------------------------------


def test_identity_morphism_and_composition():
    P = associative_operad(F5, "chain", 3, 0)
    i = OpMorphism.identity(P)
    ii = i @ i
    for s in P.collection.signatures():
        assert ii.level_map(s) == i.level_map(s)


def test_point_inclusion_is_checked_and_valid():
    T = corpus.trivial_operad(F5, "simplicial", 2)
    Q = corpus.indiscrete_operad(F5, "simplicial", 2,
                                 disk=corpus.acyclic_disk(F5, 2))
    phi = corpus.point_inclusion(T, Q, "a")
    assert phi.map_sig((("*",), "*")) == (("a",), "a")


def test_morphism_rejecting_unit_violation():
    T = corpus.trivial_operad(F5, "simplicial", 2)
    Q = corpus.indiscrete_operad(F5, "simplicial", 2,
                                 disk=corpus.acyclic_disk(F5, 2))
    phi = corpus.point_inclusion(T, Q, "a")
    doubled = {s: Q.ops.make_map(
        f.source, f.target,
        [c.scale(2) for c in f.components])
        for s, f in phi.level_maps.items()}
    with pytest.raises(ValueError, match="unit"):
        OpMorphism(T, Q, phi.color_map, doubled)


# -- restriction and serialization -------------------------------------------


def test_restrict_colors_stays_an_operad():
    Q = corpus.indiscrete_operad(F5, "simplicial", 2,
                                 disk=corpus.acyclic_disk(F5, 2))
    R = restrict_colors({"p": "a", "q": "b", "r": "a"}, Q, ("p", "q", "r"))
    assert operad_check(R) == []
    assert R.collection.level((("p",), "q")).ranks() == \
        Q.collection.level((("a",), "b")).ranks()


def test_restrict_colors_refuses_a_color_outside_the_target():
    # explicit checks, so they also hold under python -O
    A = associative_operad(ZZ, "chain", 2, 0)
    with pytest.raises(ValueError, match="'c' maps to 'y', which is not a "
                                         "color of the target"):
        restrict_colors({"c": "y"}, A, ("c",))
    with pytest.raises(ValueError, match="'d' maps to None"):
        restrict_colors({"c": X}, A, ("c", "d"))


@pytest.mark.parametrize("base,D", [("chain", 0), ("simplicial", 2)])
def test_json_round_trip(base, D):
    A = associative_operad(F5, base, 3, D)
    data = json.loads(json.dumps(operad_to_json(A)))
    B = operad_from_json(data)
    assert operad_check(B) == []
    s2, s1 = sig(2), sig(1)
    assert B.composition(s2, 0, s1) == A.composition(s2, 0, s1)
    assert B.collection.action(s2, (1, 0)) == A.collection.action(s2, (1, 0))
    assert B.collection.level(sig(3)).ranks() == \
        A.collection.level(sig(3)).ranks()


def test_json_missing_generator_raises():
    A = associative_operad(F5, "chain", 2, 0)
    data = operad_to_json(A)
    data["actions"] = []
    with pytest.raises(ValueError, match="generator"):
        operad_from_json(data)


def test_json_action_into_a_missing_level_raises():
    # explicit checks, so they also hold under python -O
    A = associative_operad(ZZ, "chain", 2, 0)
    data = operad_to_json(restrict_colors({"a": X, "b": X}, A, ("a", "b")))
    ba_b = {"inputs": ["b", "a"], "output": "b"}
    data["levels"] = [e for e in data["levels"]
                      if {"inputs": e["inputs"], "output": e["output"]} != ba_b]
    data["actions"] = [e for e in data["actions"]
                       if {"inputs": e["inputs"], "output": e["output"]} != ba_b]
    with pytest.raises(ValueError, match=r"reaches b,a->b, which has no level"):
        operad_from_json(data)


@pytest.mark.parametrize("swap", [5, -1])
def test_json_action_swap_out_of_range_raises(swap):
    data = operad_to_json(associative_operad(F5, "chain", 2, 0))
    for entry in data["actions"]:
        entry["swap"] = swap
    with pytest.raises(ValueError, match=rf"swap {swap} at x,x->x is not in "
                                         rf"range\(1\)"):
        operad_from_json(data)


def test_json_unit_without_its_level_raises():
    # explicit checks, so they also hold under python -O
    data = operad_to_json(associative_operad(ZZ, "chain", 2, 0))
    data["levels"] = [e for e in data["levels"] if e["inputs"] != [X]]
    with pytest.raises(ValueError, match=r"^unit of color 'x' reaches x->x, "
                                         r"which has no level"):
        operad_from_json(data)


def test_json_missing_unit_raises():
    data = operad_to_json(associative_operad(ZZ, "chain", 2, 0))
    data["units"] = {}
    with pytest.raises(ValueError, match=r"^no unit for color 'x'"):
        operad_from_json(data)


@pytest.mark.parametrize("end", ["outer", "inner"])
def test_json_composition_of_a_missing_level_raises(end):
    data = operad_to_json(associative_operad(ZZ, "chain", 2, 0))
    entry = data["compositions"][0]
    entry[end] = {"inputs": [X] * 3, "output": X}
    with pytest.raises(ValueError, match=r"^composition \(.*\) reads "
                                         r"x,x,x->x, which has no level"):
        operad_from_json(data)


@pytest.mark.parametrize("where", ["units", "compositions"])
def test_json_bad_rational_entries_raise(where):
    data = operad_to_json(associative_operad(QQ, "chain", 2, 0))
    comps = data["units"][X] if where == "units" else \
        data["compositions"][0]["map"]
    entries = comps[0]["entries"]
    entries[0][2] = "1/0"
    with pytest.raises(ValueError, match="denominator 0"):
        operad_from_json(data)
    entries[0][2] = "1"
    entries.append(list(entries[0]))
    with pytest.raises(ValueError, match="listed twice"):
        operad_from_json(data)


@pytest.mark.parametrize("where, ring, rank, slot", [
    ("units", QQ, 7, "1x1"), ("actions", ZZ, 1, "2x2"),
    ("compositions", F5, 2, "2x2")], ids=["units", "actions", "compositions"])
def test_json_refuses_a_map_that_misses_its_slot(where, ring, rank, slot):
    # a 7x7 unit over Q loaded as the 1x1 unit over Z: every map was
    # re-read in its slot's modules
    data = operad_to_json(associative_operad(ZZ, "chain", 2, 0))
    doc = matrix_to_json(LinearMap.identity(FreeModule(ring, rank)))
    message = (rf"^a {rank}x{rank} matrix over {ring.name()} in a {slot} "
               rf"slot over Z$")
    if where == "units":
        data["units"][X] = [doc]
    else:
        data[where][0]["map"] = [doc]
    with pytest.raises(ValueError, match=message):
        operad_from_json(data)


@pytest.mark.parametrize("slot", [-1, 2, 3, "0"])
def test_graft_signature_refuses_a_slot_out_of_range(slot):
    # explicit checks, so they also hold under python -O
    with pytest.raises(ValueError, match=r"^slot .* of \(x,x->x, .*, x->x\) "
                                         r"is out of range"):
        graft_signature(((X, X), X), slot, ((X,), X))


def test_graft_signature_refuses_a_slot_of_another_color():
    with pytest.raises(ValueError, match=r"^inner output color of "
                                         r"\(a,b->a, 1, a->a\) does not "
                                         r"match its slot"):
        graft_signature((("a", "b"), "a"), 1, (("a",), "a"))


def test_json_composition_slot_out_of_range_raises():
    data = operad_to_json(associative_operad(ZZ, "chain", 2, 0))
    entry = data["compositions"][0]
    entry["slot"] = len(entry["outer"]["inputs"])
    with pytest.raises(ValueError, match=r"^slot \d+ of \(.*\) is out of "
                                         r"range"):
        operad_from_json(data)


def test_json_composition_into_a_slot_of_another_color_raises():
    data = operad_to_json(corpus.indiscrete_operad(QQ, "chain", 1))
    entry = data["compositions"][0]
    assert (entry["outer"], entry["slot"], entry["inner"]["output"]) == \
        ({"inputs": ["a"], "output": "a"}, 0, "a")
    entry["outer"]["inputs"] = ["b"]
    with pytest.raises(ValueError, match=r"^inner output color of "
                                         r"\(b->a, 0, a->a\) does not match "
                                         r"its slot"):
        operad_from_json(data)


def _broken_operad_parts(case):
    """Collection, units and compositions of Ass(2), one of them broken."""
    A = associative_operad(ZZ, "chain", 2, 0)
    coll, ops = A.collection, A.ops
    one, l1, l2 = ops.unit_obj(), coll.level(sig(1)), coll.level(sig(2))
    if case == "zero-unit-level":
        gens = {sig(2): {(1, 0): coll.action(sig(2), (1, 0))}}
        bare = Collection(ZZ, "chain", (X,), 2, 0, {sig(2): l2}, gens)
        return bare, A.units, {}
    units = {"missing-unit": {},
             "unit-source": {X: ops.identity(l2)},
             "unit-target": {X: ops.zero_map(one, l2)}}.get(case, A.units)
    comps = {
        "arity-window": {(sig(2), 0, sig(2)): ops.zero_map(
            ops.tensor(l2, l2), ops.zero_obj())},
        "composition-source": {(sig(2), 0, sig(1)): ops.identity(one)},
        "composition-target": {(sig(2), 0, sig(1)): ops.zero_map(
            ops.tensor(l2, l1), one)},
    }.get(case, {})
    return coll, units, comps


_BROKEN_OPERAD_MESSAGES = {
    "missing-unit": "no unit for color 'x'",
    "zero-unit-level": "unit level x->x is zero",
    "unit-source": "unit source mismatch at color 'x'",
    "unit-target": "unit target mismatch at color 'x'",
    "arity-window": "composite x,x,x->x leaves the arity window",
    "composition-source":
        r"composition source mismatch at \(x,x->x, 0, x->x\)",
    "composition-target":
        r"composition target mismatch at \(x,x->x, 0, x->x\)",
}


@pytest.mark.parametrize("case", list(_BROKEN_OPERAD_MESSAGES))
def test_operad_constructor_refuses_bad_shapes(case):
    # explicit checks, so they also hold under python -O
    with pytest.raises(ValueError, match="^" + _BROKEN_OPERAD_MESSAGES[case]):
        op.Operad(*_broken_operad_parts(case))


def _graded_operads():
    """Chain and simplicial operads whose levels live in several
    degrees, so the Kunneth sum and the degreewise product differ."""
    out = []
    for base in ("chain", "simplicial"):
        disk = corpus.acyclic_disk(ZZ, 2, base=base)
        out.append(corpus.indiscrete_operad(ZZ, base, 2, disk=disk))
        out.append(corpus.disconnected_operad(ZZ, base, 2, disk=disk))
        out.append(associative_operad(ZZ, base, 3, 2))
    return out


def test_tensor_ranks_are_the_ranks_of_the_tensor():
    for P in _graded_operads():
        coll, ops = P.collection, P.ops
        levels = [coll.level(s) for s in coll.signatures()]
        for A in levels:
            for B in levels:
                assert ops.tensor_ranks(A, B) == ops.tensor(A, B).ranks()
    # complexes of different lengths, against the degree bound
    rng = random.Random(8)
    for bound in range(4):
        ops = op._ops_for("chain", ZZ, bound)
        for _ in range(6):
            K = corpus.random_complex(rng, ZZ, rng.randint(0, 3))
            L = corpus.random_complex(rng, ZZ, rng.randint(0, 3))
            assert ops.tensor_ranks(K, L) == ops.tensor(K, L).ranks()


@pytest.mark.parametrize("base", ["chain", "simplicial"])
def test_mis_shaped_composition_source_is_refused(base):
    # the source of one composition gains the unit object as a summand,
    # so its ranks are off in degree 0 (chain) or in every degree
    # (simplicial)
    P = corpus.indiscrete_operad(ZZ, base, 2,
                                 disk=corpus.acyclic_disk(ZZ, 2, base=base))
    coll, ops = P.collection, P.ops
    key, f = next(iter(P.compositions.items()))
    src = ops.direct_sum([f.source, ops.unit_obj()])[0]
    comps = dict(P.compositions)
    comps[key] = ops.zero_map(src, f.target)
    with pytest.raises(ValueError, match="^composition source mismatch"):
        op.Operad(coll, P.units, comps)


@pytest.mark.parametrize("base", ["chain", "simplicial"])
def test_operad_constructor_builds_no_tensor(monkeypatch, base):
    for P in _graded_operads():
        if P.collection.base != base:
            continue
        calls = []
        for module in (chain, simp):
            real = module.tensor
            monkeypatch.setattr(
                module, "tensor",
                lambda *a, real=real, **k: calls.append(a) or real(*a, **k))
        Q = op.Operad(P.collection, P.units, P.compositions)
        assert calls == []
        assert Q.compositions.keys() == P.compositions.keys()
        monkeypatch.undo()


# -- normalization of operads -------------------------------------------------


def test_normalize_associative_operad():
    NA = normalize_operad(associative_operad(ZZ, "simplicial", 3, 2))
    Ac = associative_operad(ZZ, "chain", 3, 2)
    for n in range(1, 4):
        assert NA.collection.level(sig(n)).ranks() == \
            Ac.collection.level(sig(n)).ranks()
    f = NA.composition(sig(2), 0, sig(1))
    g = Ac.composition(sig(2), 0, sig(1))
    assert f.component(0).entries == g.component(0).entries
    s2 = sig(2)
    assert NA.collection.action(s2, (1, 0)).component(0).entries == \
        Ac.collection.action(s2, (1, 0)).component(0).entries


def test_normalize_refuses_a_chain_operad():
    # an explicit check, so it also holds under python -O
    with pytest.raises(ValueError, match="only simplicial operads"):
        normalize_operad(associative_operad(ZZ, "chain", 2, 0))


def test_normalize_nilpotent_two_color():
    P = corpus.nilpotent_two_color_operad(F5, 3)
    NP = normalize_operad(P)
    # gamma of R in degree one normalizes back to exactly that
    assert NP.collection.level((("a", "b"), "a")).ranks() == (0, 1, 0, 0)
    assert NP.collection.level((("a", "a"), "b")).ranks() == (0, 2, 0, 0)


def test_normalize_commutes_with_restriction():
    Q = corpus.indiscrete_operad(F5, "simplicial", 2,
                                 disk=corpus.acyclic_disk(F5, 2))
    alpha = {"p": "a", "q": "b"}
    NR = normalize_operad(restrict_colors(alpha, Q, ("p", "q")))
    RN = restrict_colors(alpha, normalize_operad(Q), ("p", "q"))
    for s in NR.collection.signatures():
        assert NR.collection.level(s).ranks() == RN.collection.level(s).ranks()
    for c in ("p", "q"):
        s1 = ((c,), c)
        assert NR.composition(s1, 0, s1) == RN.composition(s1, 0, s1)
    cross = ((("q",), "p"), 0, (("p",), "q"))
    assert NR.composition(*cross) == RN.composition(*cross)


# -- homotopy category and the equivalence verdict ----------------------------


def test_homotopy_category_of_the_regular_representation():
    ho = homotopy_category(associative_operad(ZZ, "chain", 2, 1))
    assert ho.identities[X] == (1,)
    assert ho.compose_classes(X, X, X, (1,), (1,)) == (1,)
    assert ho.compose_classes(X, X, X, (2,), (3,)) == (6,)


def test_dk_positive_with_planted_inverses():
    T = corpus.trivial_operad(F5, "simplicial", 2)
    Q = corpus.indiscrete_operad(F5, "simplicial", 2,
                                 disk=corpus.acyclic_disk(F5, 2))
    v = dk_equivalence(corpus.point_inclusion(T, Q, "a"))
    assert v.status == "equivalence"
    assert v.witnesses["b"][0] == "a"
    c, u_cls, v_cls = v.witnesses["b"]
    ho = homotopy_category(Q)
    assert ho.compose_classes("a", "b", "a", v_cls, u_cls) == ho.identities["a"]
    assert ho.compose_classes("b", "a", "b", u_cls, v_cls) == ho.identities["b"]


def test_dk_negative_essential_surjectivity():
    T = corpus.trivial_operad(F5, "simplicial", 2)
    Q = corpus.disconnected_operad(F5, "simplicial", 2,
                                   disk=corpus.acyclic_disk(F5, 2))
    v = dk_equivalence(corpus.point_inclusion(T, Q, "a"))
    assert v.status == "not_equivalence"
    assert any("not isomorphic" in r for r in v.reasons)
    assert all(ok for ok in v.levelwise.values())


def test_dk_negative_levelwise():
    T = corpus.trivial_operad(F5, "simplicial", 2)
    Q = corpus.indiscrete_operad(F5, "simplicial", 2,
                                 disk=corpus.loop_disk(F5, 2))
    v = dk_equivalence(corpus.point_inclusion(T, Q, "a"))
    assert v.status == "not_equivalence"
    assert any("quasi-isomorphism" in r for r in v.reasons)


def test_dk_inconclusive_over_the_integers():
    T = corpus.trivial_operad(ZZ, "chain", 1)
    Q = corpus.scaled_pair_operad(ZZ, 4)
    v = dk_equivalence(corpus.point_inclusion(T, Q, "a"))
    assert v.status == "inconclusive"
    assert any("within bound" in r for r in v.reasons)


def test_dk_unit_factor_over_the_integers_is_definitive():
    T = corpus.trivial_operad(ZZ, "chain", 1)
    Q = corpus.scaled_pair_operad(ZZ, 1)
    assert dk_equivalence(corpus.point_inclusion(T, Q, "a")).status == \
        "equivalence"


def test_dk_search_covering_a_small_field_is_definitive():
    # u . v = 0 never inverts, and the window -2..2 is all of F_5, so the
    # empty search is exhaustive
    T = corpus.trivial_operad(F5, "chain", 1)
    Q = corpus.scaled_pair_operad(F5, 0)
    v = dk_equivalence(corpus.point_inclusion(T, Q, "a"))
    assert v.status == "not_equivalence"
    assert any("not isomorphic" in r for r in v.reasons)
    assert all(v.levelwise.values())


def test_dk_search_over_z13_depends_on_the_window():
    # u . v = 9 id: the inverse pairs have a . b = 3 mod 13, none within
    # -2..2; -6..6 is all of F_13 and finds one, with the first witness
    # of the plain window order
    T = corpus.trivial_operad(Zmod(13), "chain", 1)
    phi = corpus.point_inclusion(T, corpus.scaled_pair_operad(Zmod(13), 9),
                                 "a")
    v = dk_equivalence(phi)
    assert v.status == "inconclusive"
    assert any("within bound 2" in r for r in v.reasons)
    v = dk_equivalence(phi, search_bound=6)
    assert v.status == "equivalence"
    c, u, w = v.witnesses["b"]
    assert c == "a" and (9 * u[0] * w[0]) % 13 == 1
    window = [k % 13 for k in range(-6, 7)]
    first = next((a, b) for a in window for b in window
                 if (9 * a * b) % 13 == 1)
    assert (u[0], w[0]) == first


def test_dk_search_over_a_huge_field_does_not_enumerate_it():
    # the window's five residues do not cover F_p, so the verdict stays
    # inconclusive, and F_p itself is never listed
    ring = Zmod(4294967311)
    T = corpus.trivial_operad(ring, "chain", 1)
    phi = corpus.point_inclusion(T, corpus.scaled_pair_operad(ring, 0), "a")
    start = time.perf_counter()
    v = dk_equivalence(phi)
    assert time.perf_counter() - start < 30
    assert v.status == "inconclusive"


@pytest.mark.parametrize("maker,expect", [
    (lambda: corpus.indiscrete_operad(F5, "simplicial", 2,
                                      disk=corpus.acyclic_disk(F5, 2)),
     "equivalence"),
    (lambda: corpus.disconnected_operad(F5, "simplicial", 2,
                                        disk=corpus.acyclic_disk(F5, 2)),
     "not_equivalence"),
])
def test_dk_verdict_transports_through_normalization(maker, expect):
    T = corpus.trivial_operad(F5, "simplicial", 2)
    phi = corpus.point_inclusion(T, maker(), "a")
    before = dk_equivalence(phi)
    after = dk_equivalence(integrated_normalize(phi))
    assert before.status == expect
    assert after.status == expect


@pytest.mark.parametrize("max_degree", [1, 2])
@pytest.mark.parametrize("ring", [QQ, F5], ids=lambda r: r.name())
@pytest.mark.parametrize("disk", ["acyclic", "loop"])
@pytest.mark.parametrize("shape", ["indiscrete", "disconnected"])
def test_chain_square_zero_operads_pass_the_law_check(shape, disk, ring,
                                                      max_degree):
    make = {"indiscrete": corpus.indiscrete_operad,
            "disconnected": corpus.disconnected_operad}[shape]
    D = {"acyclic": corpus.acyclic_disk, "loop": corpus.loop_disk}[disk](
        ring, max_degree, base="chain")
    assert op.operad_check(make(ring, "chain", max_degree, disk=D)) == []


def test_chain_square_zero_composition_uses_the_degree_sum_layout():
    # hom = C (+) disk with the disk b0 <- a0: degree 0 is (const, b0),
    # degree 1 is (a0).  Degree 1 of hom (x) hom is the block
    # hom_0 (x) hom_1 = (const a0, b0 a0) followed by the block
    # hom_1 (x) hom_0 = (a0 const, a0 b0); const a0 and a0 const go to
    # a0, the disk products to zero.
    Q = corpus.indiscrete_operad(QQ, "chain", 1,
                                 disk=corpus.acyclic_disk(QQ, 1, base="chain"))
    s = (("a",), "a")
    f = Q.compositions[(s, 0, s)]
    assert f.source.ranks() == (4, 4)
    assert f.component(0).entries == {(0, 0): 1, (1, 1): 1, (1, 2): 1}
    assert f.component(1).entries == {(0, 0): 1, (0, 2): 1}


def test_normalized_morphism_levels_are_the_normalized_maps():
    T = corpus.trivial_operad(F5, "simplicial", 2)
    Q = corpus.indiscrete_operad(F5, "simplicial", 2,
                                 disk=corpus.acyclic_disk(F5, 2))
    phi = corpus.point_inclusion(T, Q, "a")
    nphi = integrated_normalize(phi)
    s1 = (("*",), "*")
    assert nphi.source.collection.level(s1).ranks() == (1, 0, 0)
    assert nphi.level_map(s1).component(0).entries == {(0, 0): F5.one}


# ---------------------------------------------------------------------------
# explicit raises, so they also hold under python -O
# ---------------------------------------------------------------------------


def _op_morphism_inputs():
    P = associative_operad(ZZ, "chain", 3, 0)
    idP = OpMorphism.identity(P)
    level_maps = dict(idP.level_maps)
    wrong = dict(level_maps)
    wrong[sig(2)] = level_maps[sig(3)]

    def morphism(target, color_map=None, maps=None):
        return lambda: OpMorphism(P, target, color_map or {X: X},
                                  level_maps if maps is None else maps)

    return {
        "base": (morphism(associative_operad(ZZ, "simplicial", 3, 0)),
                 "chain source, simplicial target"),
        "ring": (morphism(associative_operad(QQ, "chain", 3, 0)),
                 "source over Z, target over Q"),
        "degree": (morphism(associative_operad(ZZ, "chain", 3, 1)),
                   "source degree 0, target degree 1"),
        "arity": (morphism(associative_operad(ZZ, "chain", 2, 0)),
                  "source arity 3 exceeds target arity 2"),
        "color": (morphism(P, color_map={X: "y"}),
                  "color 'x' is not mapped"),
        "shape": (morphism(P, maps=wrong),
                  "level map at x,x->x has the wrong shape"),
        "compose": (lambda: idP @ OpMorphism.identity(
            associative_operad(ZZ, "chain", 2, 0)),
                    "composed morphisms do not meet"),
    }


@pytest.mark.parametrize("case", sorted(_op_morphism_inputs()))
def test_op_morphism_refuses_mismatches(case):
    call, msg = _op_morphism_inputs()[case]
    with pytest.raises(ValueError, match=msg):
        call()


def test_operad_check_parallel_signature_invariant_raises(monkeypatch):
    # a graft that lists its inputs when it fills slot 0 breaks the
    # equality of the two parallel grafts, and nothing else
    real = op.graft_signature

    def listing(outer, i, inner):
        got = real((tuple(outer[0]), outer[1]), i,
                   (tuple(inner[0]), inner[1]))
        return (list(got[0]), got[1]) if i == 0 else got

    monkeypatch.setattr(op, "graft_signature", listing)
    with pytest.raises(RuntimeError, match="parallel grafts disagree"):
        operad_check(associative_operad(ZZ, "chain", 3, 0))


@pytest.mark.parametrize("name, msg", [
    ("perm_block_insert", "outer block insertion disagrees"),
    ("perm_inner_insert", "inner block insertion disagrees"),
])
def test_operad_check_block_insertion_invariants_raise(monkeypatch, name,
                                                       msg):
    # a permutation one letter short relabels to a shorter signature
    real = getattr(op, name)
    monkeypatch.setattr(op, name, lambda *args: real(*args)[:-1])
    with pytest.raises(RuntimeError, match=msg):
        operad_check(associative_operad(ZZ, "chain", 3, 0))


def test_normalize_operad_unit_shape_invariant_raises(monkeypatch):
    # the chain shim's unit gains a second generator, the simplicial
    # shim's stays
    unit = op._Ops.unit_obj
    monkeypatch.setattr(op._Ops, "unit_obj", lambda self: self.direct_sum(
        [unit(self)] * 2)[0] if self.Obj is ChainComplex else unit(self))
    with pytest.raises(RuntimeError, match="the normalized unit of color "
                                           "'x' has source ranks"):
        normalize_operad_data(associative_operad(ZZ, "simplicial", 2, 1))


def test_corpus_input_checks_raise_value_error():
    rng = random.Random(0)
    K = corpus.random_complex(rng, ZZ, 1, max_rank=1)
    L = corpus.random_complex(rng, ZZ, 2, max_rank=1)
    with pytest.raises(ValueError, match="one ring and of one degree"):
        corpus.random_chain_map(rng, K, L)
    with pytest.raises(ValueError, match="constant summand or a disk"):
        corpus._hom_object(op._ops_for("chain", ZZ, 1), ZZ, False, None)


def test_collection_refuses_a_repeated_color():
    # one color listed twice counted each top signature of the
    # composite product twice: I o I read rank 2 at (x; x)
    with pytest.raises(ValueError, match="color 'x' is listed twice"):
        Collection(ZZ, "chain", ("x", "y", "x"), 2, 0, {})


def test_identity_collection_refuses_a_repeated_color():
    with pytest.raises(ValueError, match="color 'x' is listed twice"):
        identity_collection(ZZ, "chain", ("x", "x"), 2, 0)


def test_json_refuses_a_repeated_color():
    data = operad_to_json(associative_operad(ZZ, "chain", 2, 0))
    data["colors"] = ["x", "x"]
    with pytest.raises(ValueError, match="color 'x' is listed twice"):
        operad_from_json(data)


def test_json_of_an_empty_document_names_the_ring():
    with pytest.raises(ValueError, match="an operad document needs the "
                                         "key 'ring'"):
        operad_from_json({})


@pytest.mark.parametrize("key,value", [
    ("max_arity", "2"), ("max_arity", True), ("max_arity", -1),
    ("max_degree", "0")])
def test_json_refuses_a_bound_that_is_not_an_int(key, value):
    # a max_arity of "2" raised TypeError from a comparison in Collection
    data = operad_to_json(associative_operad(ZZ, "chain", 2, 0))
    data[key] = value
    with pytest.raises(ValueError, match=f"an operad's {key} must be an "
                                         f"int >= 0, not {value!r}"):
        operad_from_json(data)


@pytest.mark.parametrize("where,key,value", [
    ("level", "output", ["x"]), ("level", "inputs", ["x", ["x"]]),
    ("composition", "output", {"x": 1})])
def test_json_refuses_a_color_that_is_not_a_str(where, key, value):
    # a level whose output is ["x"] raised TypeError: unhashable type
    data = operad_to_json(associative_operad(ZZ, "chain", 2, 0))
    entry = data["levels"][0] if where == "level" else \
        data["compositions"][0]["outer"]
    entry[key] = value
    with pytest.raises(ValueError, match="has inputs .* and output .*: a "
                                         "color is a str"):
        operad_from_json(data)


def test_json_level_without_inputs_raises():
    data = operad_to_json(associative_operad(ZZ, "chain", 2, 0))
    del data["levels"][0]["inputs"]
    with pytest.raises(ValueError, match="a level document needs the "
                                         "key 'inputs'"):
        operad_from_json(data)


@pytest.mark.parametrize("base", ["chain", "simplicial"])
def test_ops_builders_store_the_entries_of_the_loops_they_replace(base):
    # ops.constant puts one table in degree 0 over chains and in every
    # degree over simplicial modules; ops.maps reads degree n off
    # entries[n]; both through the LinearMap constructor
    D = 2
    ops = op._ops_for(base, QQ, D)
    A, B = ops.free(2), ops.free(3)
    table = {(0, 1): 1, (2, 0): Fraction(-1, 2)}
    loop = ops.make_map(A, B, [
        LinearMap(A.level(n), B.level(n),
                  table if base == "simplicial" or n == 0 else {})
        for n in range(D + 1)])
    f = ops.constant(A, B, table)
    assert type(f) is type(loop) is ops.Map
    assert [list(c.entries.items()) for c in f.components] == \
        [list(c.entries.items()) for c in loop.components]
    assert [[type(v) for v in c.entries.values()] for c in f.components] \
        == [[Fraction] * len(c.entries) for c in loop.components]
    X = ops.direct_sum([A, ops.free(1)])[0]
    entries = [{(i, i): 2 for i in range(r)} for r in X.ranks()]
    g = ops.maps(X, X, entries)
    loop = ops.make_map(X, X, [LinearMap(X.level(n), X.level(n), e)
                               for n, e in enumerate(entries)])
    assert [list(c.entries.items()) for c in g.components] == \
        [list(c.entries.items()) for c in loop.components]
    assert g == loop and ops.free(1).ranks() == ops.unit_obj().ranks()
