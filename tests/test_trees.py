"""Planar trees, free operads, cell maps, and extension filtrations.

Oracle strategy: automorphism orders are cross-checked by a brute
recursive isomorphism count (a permanent over child matchings), and
enumeration by an independent budget-split planar generator that knows
nothing of the multiset recursion under test.  Free-operad level ranks
are frozen from closed counts (Catalan shapes times leaf labelings for
the regular generator, double factorials for the trivial one), graded
ranks from orbit counting by hand.  The epsilon decomposition identity
and the extension colimits are compared against independently built
objects, never against the code's own intermediate output.
"""

import itertools
import math
import random
from contextlib import nullcontext
from fractions import Fraction

import pytest

from opdk import chain, corpus, exactlin, permutations, trees
from opdk import operad as op
from opdk.chain import (ChainMap, concentrated, homology, pad, two_term,
                        _expand, _tensor_entries)
from opdk.exactlin import LinearMap
from opdk.operad import (Collection, Operad, associative_operad,
                         operad_check, sig_arity, _ops_for)
from opdk.rings import QQ, ZZ, Zmod
from opdk.trees import (
    CollectionMap,
    FreeOperad,
    Tree,
    _level_basis,
    aut_order,
    canonical,
    cokernel_collection,
    enumerate_planar,
    enumerate_trees,
    extend_to_operad,
    extension_stage,
    free_operad,
    generator_inclusion,
    graft,
    leaf_labelings,
    tree_from_json,
    tree_to_json,
)
from test_operad import smith_route

F5 = Zmod(5)

e = Tree.edge
node = Tree.node


def corolla(n, color="c", marked=False):
    return node(color, [e(color)] * n, marked)


# -- oracles ----------------------------------------------------------------


def _iso_count(S, T):
    """Number of isomorphisms S -> T fixing the root."""
    if S.is_edge or T.is_edge:
        return int(S.is_edge and T.is_edge and S.output == T.output)
    if S.output != T.output or S.marked != T.marked:
        return 0
    if len(S.children) != len(T.children):
        return 0
    r = len(S.children)
    total = 0
    for sigma in itertools.permutations(range(r)):
        prod = 1
        for i in range(r):
            prod *= _iso_count(S.children[i], T.children[sigma[i]])
            if prod == 0:
                break
        total += prod
    return total


def _brute_aut(T):
    return _iso_count(T, T)


def _brute_planar(root_color, valencies, vmax, max_leaves=None):
    """Every planar tree with the given root color and at most vmax
    vertices, generated by splitting the vertex budget across ordered
    child slots.  Marked flags range freely over the vertices.  With
    max_leaves, a child tuple is dropped once its leaves exceed it: a
    tree's leaves are the sum of its children's."""
    memo = {}

    def gen(root, budget, room):
        # (tree, vertices, leaves); children hold at most room leaves
        key = (root, budget, room)
        if key in memo:
            return memo[key]
        res = [(e(root), 0, 1)]
        if budget >= 1:
            for ins, c in valencies:
                if c != root:
                    continue
                for kids, v, w in slots(ins, 0, budget - 1, room):
                    res.append((node(root, kids, False), v + 1, w))
                    res.append((node(root, kids, True), v + 1, w))
        memo[key] = res
        return res

    def slots(ins, i, budget, room):
        if i == len(ins):
            yield (), 0, 0
            return
        for t, v, w in gen(ins[i], budget, room):
            if w > room:
                continue
            for rest, rv, rw in slots(ins, i + 1, budget - v, room - w):
                yield (t,) + rest, v + rv, w + rw

    cap = float("inf") if max_leaves is None else max_leaves
    return [t for t, _, _ in gen(root_color, vmax, cap)]


def _brute_planar_unrank(root_color, valencies, vmax):
    """(N, tree) for _brute_planar(root_color, valencies, vmax): N is the
    length of its list and tree(k) its k-th entry, found by counting
    trees per (root color, exact vertex count) and walking the same
    generation order, without building the list."""
    colors = {root_color} | {c for ins, c in valencies} | \
        {c for ins, _ in valencies for c in ins}
    # exact[c][v]: planar trees with root color c and exactly v vertices
    exact = {c: [1] + [0] * vmax for c in colors}

    def tuples(ins, budget):
        # [u]: child tuples over the colors ins with u vertices in total
        out = [1] + [0] * budget
        for c in ins:
            out = [sum(out[a] * exact[c][u - a] for a in range(u + 1))
                   for u in range(budget + 1)]
        return out

    for v in range(1, vmax + 1):
        for ins, c in valencies:
            exact[c][v] += 2 * tuples(ins, v - 1)[v - 1]

    # w[v] is how many entries of the enclosing list a tree (or a child
    # tuple) with v vertices stands for; k is a position in that list
    def tree(root, budget, k, w):
        if k < w[0]:
            return e(root), k
        k -= w[0]
        for ins, c in valencies:
            if c != root or budget < 1:
                continue
            w2 = [2 * w[1 + u] for u in range(budget)]
            block = sum(n * x for n, x in zip(tuples(ins, budget - 1), w2))
            if k >= block:
                k -= block
                continue
            kids, k = slots(ins, budget - 1, k, w2)
            wv = w[1 + sum(t.n_vertices for t in kids)]
            return node(root, kids, k >= wv), k % wv
        raise IndexError(k)

    def slots(ins, budget, k, w):
        if not ins:
            return (), k
        rest = ins[1:]
        wt = [sum(n * w[v + u]
                  for u, n in enumerate(tuples(rest, budget - v)))
              for v in range(budget + 1)]
        t, k = tree(ins[0], budget, k, wt)
        kids, k = slots(rest, budget - t.n_vertices, k, w[t.n_vertices:])
        return (t,) + kids, k

    return sum(exact[root_color]), \
        lambda k: tree(root_color, vmax, k, [1] * (vmax + 1))[0]


def _brute_orbit_size(t):
    """Planar trees reached from t by reordering children at every
    vertex in every way, counted without repeats."""
    def rec(u):
        if u.is_edge:
            return [u]
        out = []
        for kids in itertools.permutations(u.children):
            for combo in itertools.product(*(rec(ch) for ch in kids)):
                out.append(node(u.output, combo, u.marked))
        return out
    return len({p.key() for p in rec(t)})


# -- planar orbits and decompositions -----------------------------------------
#
# Tree helpers that only these tests use: the planar orbit of a class
# and the root and edge decompositions, which grafting must invert.


def _orbit_size(tree_class):
    """prod_v (arity of v)! / aut_order: the automorphisms act freely on
    the child orderings at every vertex."""
    return math.prod(math.factorial(len(vsig[0]))
                     for vsig, _ in tree_class.rep.vertex_preorder()) \
        // tree_class.aut_order


def planar_orbit(T: Tree):
    """All planar trees isomorphic to T, canonical representative first.

    Breadth-first over single adjacent sibling swaps: the planar trees
    that a class's block carries to the canonical one.
    """
    start = canonical(T)
    seen = {start.key(): start}
    order = [start]
    frontier = [start]
    while frontier:
        new = []
        for p in frontier:
            for path in p.vertex_paths():
                v = p.subtree_at(path)
                for t in range(len(v.children) - 1):
                    q = _swap_children(p, path, t)
                    if q.key() not in seen:
                        seen[q.key()] = q
                        order.append(q)
                        new.append(q)
        frontier = new
    return order


def _swap_children(T: Tree, path, t: int) -> Tree:
    v = T.subtree_at(path)
    kids = list(v.children)
    kids[t], kids[t + 1] = kids[t + 1], kids[t]
    return T.replace_at(path, Tree.node(v.output, kids, v.marked))


def root_decomposition(T: Tree):
    """The root corolla and the subtrees grafted onto its inputs."""
    if T.is_edge:
        raise ValueError("the edge tree has no root vertex")
    corolla = Tree.node(T.output,
                        tuple(Tree.edge(ch.output) for ch in T.children),
                        T.marked)
    return corolla, T.children


def graft_root(corolla: Tree, subtrees) -> Tree:
    """Graft subtrees onto the inputs of a corolla, one per input."""
    if corolla.is_edge:
        raise ValueError("the edge tree has no root vertex to graft onto")
    if len(subtrees) != len(corolla.children):
        raise ValueError(f"{len(subtrees)} subtrees for a corolla with "
                         f"{len(corolla.children)} inputs")
    for slot, sub in zip(corolla.children, subtrees):
        if not slot.is_edge:
            raise ValueError("graft_root needs a corolla")
        if slot.output != sub.root_color:
            raise ValueError("grafted root color does not match the slot")
    return Tree.node(corolla.output, subtrees, corolla.marked)


def edge_decompositions(T: Tree):
    """(T1, leaf_index, T2) per internal edge; grafting T2 back onto the
    leaf of T1 restores T exactly.  The edge color is kept on both sides."""
    out = []
    for path in T.vertex_paths():
        if not path:
            continue
        sub = T.subtree_at(path)
        stub = T.replace_at(path, Tree.edge(sub.root_color))
        parent = T.subtree_at(path[:-1])
        leaf_index = _leaf_offset(T, path)
        if parent.children[path[-1]] is not sub:
            raise RuntimeError("vertex path does not lead to its subtree")
        out.append((stub, leaf_index, sub))
    return out


def _leaf_offset(T: Tree, path) -> int:
    """Leaves strictly to the left of the subtree at path."""
    if not path:
        return 0
    j = path[0]
    off = sum(len(ch.leaves()) for ch in T.children[:j])
    return off + _leaf_offset(T.children[j], path[1:])


def _brute_classes(planars):
    """Deduplicate by pairwise isomorphism testing only."""
    reps = []
    for t in planars:
        if not any(_iso_count(t, r) > 0 for r in reps):
            reps.append(t)
    return reps


def _encoding_reps(planars):
    # dedup convenience for the aut sweeps; the enumeration test
    # validates encoding-dedup against pairwise iso testing separately,
    # and a wrongly merged pair here would only lose coverage
    return list({t.encoding(): t for t in planars}.values())


ONE_COLOR = [(("c",) * r, "c") for r in (1, 2, 3)]
TWO_COLOR = [(ins, c)
             for r in (1, 2)
             for ins in itertools.product(("a", "b"), repeat=r)
             for c in ("a", "b")]


# -- tree basics ------------------------------------------------------------


def test_edge_and_corolla_shapes():
    t = corolla(2)
    assert t.leaves() == ("c", "c")
    assert t.val == ((("c", "c"), "c"))
    assert t.n_vertices == 1 and t.n_marked == 0
    assert e("c").is_edge and e("c").n_vertices == 0
    assert corolla(2, marked=True).n_marked == 1


def test_encoding_detects_isomorphism():
    a = node("c", [e("c"), node("c", [e("c")])])
    b = node("c", [node("c", [e("c")]), e("c")])
    assert a.encoding() == b.encoding()
    assert a.encoding() != node("c", [e("c"), node("c", [e("c")], True)]).encoding()
    # canonical form is itself canonical and isomorphic to the input
    assert canonical(a) == canonical(b)
    assert _iso_count(canonical(a), a) > 0


def test_marked_flag_separates_classes():
    assert corolla(2).encoding() != corolla(2, marked=True).encoding()


def test_json_round_trip():
    t = node("a", [node("b", [e("a"), e("b")], True), e("a")])
    assert tree_from_json(tree_to_json(t)) == t
    assert tree_from_json(tree_to_json(e("b"))) == e("b")


def test_json_rejects_malformed():
    with pytest.raises(ValueError):
        tree_from_json({"val": {"in": ["c"], "out": "c"}})  # no children
    with pytest.raises(ValueError):
        tree_from_json({"val": {"in": ["c", "c"], "out": "c"},
                        "marked": False,
                        "children": [{"leaf": "c"}]})  # arity mismatch


@pytest.mark.parametrize("doc", ["leaf", 5, None, ["leaf", "c"]])
def test_json_refuses_a_tree_that_is_not_an_object(doc):
    # at the root, and as a child of a vertex
    with pytest.raises(ValueError, match="a tree document is an object"):
        tree_from_json(doc)
    parent = tree_to_json(node("c", [e("c")]))
    parent["children"] = [doc]
    with pytest.raises(ValueError, match="a tree document is an object"):
        tree_from_json(parent)


@pytest.mark.parametrize("flag", ["false", "true", 0, 1, None, [False]])
def test_json_refuses_a_marked_flag_that_is_not_a_bool(flag):
    # bool("false") is True: the flag is read as it stands, never cast
    doc = tree_to_json(node("a", [e("a"), e("b")], marked=False))
    doc["marked"] = flag
    with pytest.raises(ValueError, match="marked flag is a bool"):
        tree_from_json(doc)


def test_json_refuses_a_vertex_val_that_is_not_an_object():
    doc = tree_to_json(node("a", [e("a")]))
    for val, msg in ((["a"], "a vertex val document is an object"),
                     ({"in": "a", "out": "a"}, "'in' of a vertex val "
                                               "document is a list")):
        doc["val"] = val
        with pytest.raises(ValueError, match=msg):
            tree_from_json(doc)


# -- aut orders -------------------------------------------------------------


def test_aut_hand_values():
    assert aut_order(e("c")) == 1
    assert aut_order(corolla(3)) == 6
    assert aut_order(node("c", [e("a"), e("b")])) == 1
    twin = node("c", [corolla(2), corolla(2)])
    assert aut_order(twin) == 8  # (2!)^2 * 2!


def test_aut_against_brute_force_one_color():
    for t in _encoding_reps(_brute_planar("c", ONE_COLOR, 3)):
        assert aut_order(t) == _brute_aut(t), t


def test_aut_against_brute_force_two_colors():
    for t in _encoding_reps(_brute_planar("a", TWO_COLOR, 3)):
        assert aut_order(t) == _brute_aut(t), t


def test_aut_sweep_five_vertices():
    # deeper sweep on a narrower universe: unary/binary, one color;
    # the six-vertex two-color sweep lives in the acceptance suite
    vals = [(("c",), "c"), (("c", "c"), "c")]
    for t in _encoding_reps(_brute_planar("c", vals, 5)):
        assert aut_order(t) == _brute_aut(t), t


def test_planar_orbit_members():
    # every orbit member is isomorphic to the rep, the orbit is
    # duplicate-free, and the rep is the least encoding it contains
    rng = random.Random(3)
    pool = _encoding_reps(_brute_planar("c", ONE_COLOR, 4))
    for t in rng.sample(pool, 40):
        orb = planar_orbit(t)
        assert len({u.key() for u in orb}) == len(orb)
        assert all(u.encoding() == t.encoding() for u in orb)
        assert canonical(t) in orb


# -- enumeration ------------------------------------------------------------


def test_enumerate_edge_tree_only():
    cls = enumerate_trees((("c",), "c"), 0, 0)
    assert len(cls) == 1 and cls[0].rep == e("c")


def test_enumerate_marked_two_corolla():
    cls = enumerate_trees((("c", "c"), "c"), 1, 1)
    assert len(cls) == 1
    assert cls[0].rep == corolla(2, marked=True)
    assert cls[0].aut_order == 2 and _orbit_size(cls[0]) == 1


def test_enumerate_planar_catalan():
    binary = [(("c", "c"), "c")]
    for n, count in ((1, 1), (2, 1), (3, 2), (4, 5)):
        got = enumerate_planar((("c",) * n, "c"), 0, n,
                               unmarked_valencies=binary,
                               marked_valencies=[])
        assert len(got) == count


def test_enumerate_against_brute_force():
    cases = [((("c", "c"), "c"), 0), ((("c", "c"), "c"), 1),
             ((("c", "c", "c"), "c"), 0), ((("c",), "c"), 2)]
    for sig, k in cases:
        got = enumerate_planar(sig, k, 4, marked_valencies=ONE_COLOR,
                               unmarked_valencies=ONE_COLOR)
        want = [t for t in _brute_planar(sig[1], ONE_COLOR, 4)
                if sorted(t.leaves()) == sorted(sig[0])
                and t.n_marked == k]
        assert {t.key() for t in got} == {t.key() for t in want}
        assert len(got) == len(want)  # no duplicates on either side
        classes = enumerate_trees(sig, k, 4, marked_valencies=ONE_COLOR,
                                  unmarked_valencies=ONE_COLOR)
        assert len(classes) == len(_brute_classes(want))


def _brute_filtered(sig, k, marked_vals, unmarked_vals, no_adjacent_unmarked,
                    vmax):
    """_brute_planar over both valency lists, kept when the leaves, the
    marked count, each vertex's list and the adjacency rule all fit."""
    allowed = {True: set(marked_vals), False: set(unmarked_vals)}

    def fits(t, under_unmarked):
        if t.is_edge:
            return True
        if t.val not in allowed[t.marked]:
            return False
        if no_adjacent_unmarked and under_unmarked and not t.marked:
            return False
        return all(fits(ch, not t.marked) for ch in t.children)

    pool = list(dict.fromkeys(list(marked_vals) + list(unmarked_vals)))
    return [t for t in _brute_planar(sig[1], pool, vmax, len(sig[0]))
            if sorted(t.leaves()) == sorted(sig[0]) and t.n_marked == k
            and fits(t, False)]


def _differential_draws(seed, count, min_arity):
    """(sig, k, marked list, unmarked list, no_adjacent_unmarked), with
    sig and k read off a tree grown at random over the two lists, so
    that most draws have trees; every fourth k is drawn blind."""
    rng = random.Random(seed)
    pool = [(ins, c) for r in range(min_arity, 4)
            for ins in itertools.product(("a", "b"), repeat=r)
            for c in ("a", "b")]
    for _ in range(count):
        mv = rng.sample(pool, rng.randint(1, 4))
        uv = rng.sample(pool, rng.randint(1, 4))
        budget = [rng.randint(0, 3)]

        def grow(color):
            opts = [(m, ins) for m, vals in ((True, mv), (False, uv))
                    for ins, c in vals if c == color]
            if not budget[0] or not opts or rng.random() < 0.3:
                return [color], 0
            budget[0] -= 1
            m, ins = rng.choice(opts)
            leaves, k = [], int(m)
            for c in ins:
                sub, sk = grow(c)
                leaves, k = leaves + sub, k + sk
            return leaves, k

        root = rng.choice("ab")
        leaves, k = grow(root)
        leaves = leaves[:5]  # the brute generator grows fast in leaves
        if rng.random() < 0.25:
            k = rng.randint(0, 3)
        yield ((tuple(rng.sample(leaves, len(leaves))), root), k, mv, uv,
               rng.random() < 0.5)


@pytest.mark.parametrize("min_arity,seed", [(0, 1), (2, 2)],
                         ids=["arities-0-3", "arities-2-3"])
def test_enumerate_differential_with_pruning(min_arity, seed):
    # the pruned search against the unpruned brute generator: two colors,
    # marked and unmarked lists that differ, no_adjacent_unmarked on and
    # off, k in 0..3 and every bound in 0..5.  Without arity 0 or 1 the
    # lower bound of the leaf-vertex identity prunes too; ONE_COLOR has
    # arity 1, so test_enumerate_against_brute_force never reaches it.
    for sig_, k, mv, uv, nau in _differential_draws(seed, 25, min_arity):
        brute = _brute_filtered(sig_, k, mv, uv, nau, 5)
        for bound in range(6):
            want = [t for t in brute if t.n_vertices <= bound]
            got = enumerate_planar(sig_, k, bound, mv, uv, nau)
            assert len(got) == len(want)
            assert {t.key() for t in got} == {t.key() for t in want}
            classes = enumerate_trees(sig_, k, bound, mv, uv, nau)
            # by vertex count, which is the count of "(", then encoding
            assert [c.encoding for c in classes] == sorted(
                {t.encoding() for t in want},
                key=lambda enc: (enc.count("("), enc))
            for c in classes:
                assert _orbit_size(c) == _brute_orbit_size(c.rep)
                assert c.aut_order == _brute_aut(c.rep)


def test_enumerate_vertex_stability():
    sig = (("c", "c"), "c")
    small = enumerate_trees(sig, 1, 3, marked_valencies=ONE_COLOR,
                            unmarked_valencies=ONE_COLOR)
    big = enumerate_trees(sig, 1, 4, marked_valencies=ONE_COLOR,
                          unmarked_valencies=ONE_COLOR)
    assert [c.encoding for c in big[:len(small)]] == \
        [c.encoding for c in small]
    assert len(big) > len(small)


# -- grafting and decomposition ---------------------------------------------


def test_root_decomposition_two_corolla():
    r, subs = root_decomposition(corolla(2))
    assert r == corolla(2)
    assert list(subs) == [e("c"), e("c")]


def test_root_decomposition_left_comb():
    comb = node("c", [corolla(2), e("c")])
    r, subs = root_decomposition(comb)
    assert r == corolla(2)
    assert list(subs) == [corolla(2), e("c")]
    assert graft_root(r, subs) == comb


def test_decompose_graft_round_trip():
    # the same 60 draws as rng.sample over the materialized list of
    # _brute_planar("c", ONE_COLOR, 6) without its leading edge tree:
    # sample depends only on the population size
    rng = random.Random(7)
    size, unrank = _brute_planar_unrank("c", ONE_COLOR, 6)
    for k in rng.sample(range(1, size), 60):
        t = unrank(k)
        r, subs = root_decomposition(t)
        assert graft_root(r, subs) == t
        for stub, li, sub in edge_decompositions(t):
            assert graft(stub, li, sub) == t


_BAD_TREE_INPUTS = {
    "color": (lambda: e("a b"), "colors are plain identifiers"),
    "edge-inputs": (lambda: e("c").inputs, "no vertex"),
    "edge-decomposition": (lambda: root_decomposition(e("c")),
                           "no root vertex"),
    "edge-graft": (lambda: graft_root(e("c"), []), "no root vertex"),
    "count": (lambda: graft_root(corolla(2), [e("c")]),
              "1 subtrees for a corolla with 2 inputs"),
    "root-color": (lambda: graft_root(corolla(2),
                                      [e("c"), corolla(2, color="d")]),
                   "root color does not match the slot"),
    "not-corolla": (lambda: graft_root(node("c", [corolla(2), e("c")]),
                                       [e("c"), e("c")]),
                    "needs a corolla"),
}


@pytest.mark.parametrize("case", list(_BAD_TREE_INPUTS))
def test_tree_input_checks_raise_value_error(case):
    # explicit checks, so they also hold under python -O
    build, match = _BAD_TREE_INPUTS[case]
    with pytest.raises(ValueError, match=match):
        build()


def test_graft_at_leaf_positions():
    t = node("c", [e("a"), e("c")])
    s = corolla(2)
    assert graft(t, 1, s) == node("c", [e("a"), s])
    # explicit checks, so they also hold under python -O
    with pytest.raises(ValueError, match="root color does not match the leaf"):
        graft(t, 0, s)  # color mismatch at the leaf
    with pytest.raises(IndexError):
        graft(t, 2, s)


def test_leaf_labelings_counts():
    assert len(leaf_labelings(("c",) * 3, ("c",) * 3)) == 6
    assert leaf_labelings(("a", "b"), ("b", "a")) == [(1, 0)]
    assert len(leaf_labelings(("a", "a", "b"), ("a", "b", "a"))) == 2
    assert leaf_labelings(("a",), ("b",)) == []


# -- free operad levels -----------------------------------------------------


def sig(n, color="c"):
    return ((color,) * n, color)


def test_free_level_zero_collection_is_unit():
    M = Collection(ZZ, "chain", ("c",), 3, 0, {}, {})
    assert free_operad(M, sig(1), 2).object.ranks() == (1,)
    assert free_operad(M, sig(2), 2).object.ranks() == (0,)


def test_free_level_regular_generator_ranks():
    # M(2) = free module on the slot swap: level n has rank
    # n! * (number of planar binary shapes) / |moves|, which collapses
    # to n! * Catalan(n-1) / 2^(n-1) * 2^(n-1) = n! * C_{n-1}.
    M = corpus.binary_generator(ZZ, 4, regular=True)
    assert free_operad(M, sig(1), 3).object.total_rank() == 1
    assert free_operad(M, sig(2), 3).object.total_rank() == 2
    assert free_operad(M, sig(3), 3).object.total_rank() == 12
    assert free_operad(M, sig(4), 3).object.total_rank() == 120
    # 5! * C_4 = 1680
    M5 = corpus.binary_generator(ZZ, 5, regular=True)
    assert free_operad(M5, sig(5), 4).object.total_rank() == 1680


def test_free_level_trivial_generator_ranks():
    # rank (2n-3)!! : one generator per abstract binary tree shape with
    # unordered leaves
    M = corpus.binary_generator(ZZ, 4, rank=1)
    assert free_operad(M, sig(2), 3).object.total_rank() == 1
    assert free_operad(M, sig(3), 3).object.total_rank() == 3
    assert free_operad(M, sig(4), 3).object.total_rank() == 15


def test_free_level_truncation_flag():
    M = corpus.binary_generator(ZZ, 5)
    lvl = free_operad(M, sig(5), 3)
    assert lvl.object.total_rank() == 0 and lvl.truncated
    assert not free_operad(M, sig(3), 3).truncated
    # the flag flips exactly at the bound: the binary trees with 3
    # leaves have exactly 2 vertices
    assert free_operad(M, sig(3), 1).truncated
    assert not free_operad(M, sig(3), 2).truncated


def _fast_and_generic(build):
    """build() on the union-find quotient, then on the Smith-form one."""
    fast = build()
    with smith_route():
        slow = build()
    return fast, slow


def test_free_level_generic_quotient_agrees():
    M = corpus.binary_generator(ZZ, 3, regular=True)
    fast, slow = _fast_and_generic(
        lambda: free_operad(M, sig(3), 2).object.ranks())
    assert fast == slow == (12,)
    # arity 4: the tree moves are column functions, not permutations
    M4 = corpus.binary_generator(ZZ, 4, regular=True)
    fast, slow = _fast_and_generic(
        lambda: free_operad(M4, sig(4), 3).object.ranks())
    assert fast == slow == (120,)
    # arity 5: 5! * Catalan(4), the Smith route on canonical trees alone
    M5 = corpus.binary_generator(ZZ, 5, regular=True)
    fast, slow = _fast_and_generic(
        lambda: free_operad(M5, sig(5), 4).object.ranks())
    assert fast == slow == (1680,)


def _graded_binary(ring, max_degree):
    # M(2) = (x -> m), an acyclic two-term complex, slot swap trivial.
    # A binary tree with n leaves has n-1 vertices, so the arity-n free
    # level lives in degrees 0..n-1 and max_degree must reach n-1.
    obj = pad(two_term(ring, [[1]]), max_degree)
    s = sig(2)
    ops = Collection(ring, "chain", ("c",), 4, max_degree, {}).ops
    return Collection(ring, "chain", ("c",), 4, max_degree, {s: obj},
                      {s: {(1, 0): ops.identity(obj)}})


def test_free_level_graded_ranks_and_homology():
    # hand orbit count: big = planars x 3! labelings x (1,2,1), the two
    # sibling moves act freely, so arity 3 gives (12,24,12)/4 = (3,6,3);
    # arity 4: (120,360,360,120)/8 = (15,45,45,15).  The decoration
    # complex is acyclic and the labelings split off freely, so H = 0.
    lvl3 = free_operad(_graded_binary(ZZ, 2), sig(3), 2)
    assert lvl3.object.ranks() == (3, 6, 3)
    for n in range(3):
        assert homology(pad(lvl3.object, 3), n).is_zero()
    lvl4 = free_operad(_graded_binary(ZZ, 3), sig(4), 3)
    assert lvl4.object.ranks() == (15, 45, 45, 15)
    for n in range(4):
        assert homology(pad(lvl4.object, 4), n).is_zero()


@pytest.mark.parametrize("ring", [ZZ, QQ, F5, Zmod(2)], ids=lambda r: r.name())
def test_free_level_graded_fast_path_matches_generic(ring):
    # sibling swaps of degree-1 vertices carry Koszul signs -1
    for n in (3, 4):
        def build():
            lvl = free_operad(_graded_binary(ring, n - 1), sig(n), n - 1)
            K = pad(lvl.object, n)
            return lvl.object.ranks(), [
                (h.rank, h.invariant_factors)
                for h in (homology(K, k) for k in range(n))]
        fast, slow = _fast_and_generic(build)
        assert fast == slow


def _odd_nullary(ring):
    # a nullary generator in degree 1 and a binary one in degree 0 with
    # trivial swap: grafting two nullaries swaps two odd factors, so a
    # basis element is sent to minus itself
    nul = pad(concentrated(ring, 1, 1), 2)
    bin2 = pad(concentrated(ring, 0, 1), 2)
    ops = Collection(ring, "chain", ("c",), 2, 2, {}).ops
    return Collection(ring, "chain", ("c",), 2, 2,
                      {((), "c"): nul, sig(2): bin2},
                      {sig(2): {(1, 0): ops.identity(bin2)}})


def test_free_level_sign_conflict_matches_generic():
    # the class forced to x = -x dies over Q and Z/5 and survives over
    # Z/2, on both quotient paths
    for ring, want in ((QQ, (0, 1, 0)), (F5, (0, 1, 0)),
                       (Zmod(2), (0, 1, 1))):
        M = _odd_nullary(ring)
        fast, slow = _fast_and_generic(
            lambda: free_operad(M, ((), "c"), 3).object.ranks())
        assert fast == slow == want
    M = _odd_nullary(ZZ)
    for route in (nullcontext, smith_route):
        with route(), pytest.raises(ValueError, match="torsion"):
            free_operad(M, ((), "c"), 3)


def test_free_level_refuses_torsion():
    # two identical nullary children in odd degree: the sibling swap
    # fixes the basis line up to the Koszul sign, so the coinvariants
    # acquire 2-torsion over the integers and the construction must
    # refuse rather than return a free-rank answer.
    ring = ZZ
    nul = pad(concentrated(ring, 1, 1), 2)
    bin2 = pad(concentrated(ring, 0, 1), 2)
    tau = Collection(ring, "chain", ("c",), 2, 2, {}).ops.identity(bin2)
    M = Collection(ring, "chain", ("c",), 2, 2,
                   {((), "c"): nul, sig(2): bin2},
                   {sig(2): {(1, 0): tau}})
    with pytest.raises(ValueError, match="torsion"):
        free_operad(M, ((), "c"), 3)
    # over a field the same input quotients cleanly
    nulq = pad(concentrated(QQ, 1, 1), 2)
    bin2q = pad(concentrated(QQ, 0, 1), 2)
    Mq = Collection(QQ, "chain", ("c",), 2, 2,
                    {((), "c"): nulq, sig(2): bin2q},
                    {sig(2): {(1, 0): Collection(
                        QQ, "chain", ("c",), 2, 2, {}).ops.identity(bin2q)}})
    free_operad(Mq, ((), "c"), 3)


def test_free_level_refuses_unknown_colors():
    # explicit checks, so they also hold under python -O: a color the
    # collection does not have raises, it never gives a zero level
    M = corpus.binary_generator(ZZ, 3)
    for bad in ((("d", "d"), "d"), (("c", "c"), "d")):
        with pytest.raises(ValueError, match="unknown color 'd'"):
            free_operad(M, bad, 2)


# -- one planar tree per class, against the orbit-wide quotient -------------


def _orbit_quotient(case, tree_class):
    """A class quotient built over the whole planar orbit: the tensors of
    every planar tree of the class, summed by `ops.direct_sum`, divided by
    every sibling swap between two of them through `_coinvariants`.
    Each swap is the library's tree-isomorphism routine from a planar
    tree to its swapped twin, not to the canonical tree.  Returns the
    orbit (canonical tree first), each tree's (labelings, layout) and
    per-degree offsets and ranks, and the quotient with its per-degree
    presentations."""
    ring, bound, sig_, _, decor, action = case
    ops = _ops_for("chain", ring, bound)
    orbit = planar_orbit(tree_class.rep)
    where = {p.key(): i for i, p in enumerate(orbit)}
    sides, objs = [], []
    for p in orbit:
        labs = leaf_labelings(p.leaves(), sig_[0])
        factors = [decor(vsig, m) for vsig, m in p.vertex_preorder()] + [
            pad(concentrated(ring, 0, len(labs)), bound)]
        sides.append((labs, chain._layout(factors, bound)))
        objs.append(op._tensor_many(ops, factors))
    big, offsets = ops.direct_sum(objs)
    ranks = [obj.ranks() for obj in objs]
    rels = [[] for _ in range(bound + 1)]
    for pi, p in enumerate(orbit):
        for vi, path in enumerate(p.vertex_paths()):
            k = len(p.subtree_at(path).children)
            for t in range(k - 1):
                qi = where[_swap_children(p, path, t).key()]
                swap = permutations.transposition(k, t)
                move = trees._iso_entries(
                    ops, action, p,
                    lambda wi, w: swap if wi == vi else None,
                    sides[pi], sides[qi])
                placed = op._placed([(move, offsets[pi], offsets[qi])], bound)
                for n in range(bound + 1):
                    cols = range(offsets[pi][n], offsets[pi][n] + ranks[pi][n])
                    rels[n].append((placed[n], cols))
    obj, quotients = op._coinvariants(ops, big, rels)
    return orbit, sides, offsets, ranks, obj, quotients


def _columns(entries, start, rank):
    """The entries in columns start..start+rank-1, shifted to start at 0."""
    return {(i, j - start): v for (i, j), v in entries.items()
            if start <= j < start + rank}


def _free_blocks(M, sig_, max_vertices):
    """(ring, bound, sig, classes, decor, action) of a free level's class
    blocks, zero ones included."""
    return (M.ring, M.max_degree, sig_,
            enumerate_trees(sig_, 0, max_vertices, [], M.signatures()),
            lambda vsig, m: M.level(vsig),
            lambda vsig, m, tau: M.action(vsig, tau))


def _stage_blocks(Y, O, sig_, k, max_vertices):
    """The same for the blocks extension_stage attaches at stage k: Y at
    marked vertices, O elsewhere."""
    coll = O.collection
    return (Y.ring, Y.max_degree, sig_,
            enumerate_trees(sig_, k, max_vertices, Y.signatures(),
                            [s for s in coll.signatures() if len(s[0]) != 1],
                            no_adjacent_unmarked=True),
            lambda vsig, m: Y.level(vsig) if m else coll.level(vsig),
            lambda vsig, m, tau: (Y.action(vsig, tau) if m
                                  else coll.action(vsig, tau)))


def _nullary_beside_regular(ring, degree):
    """A nullary generator in the given degree beside the regular binary
    one: leafless subtrees swap, so the labelings are not permuted
    freely."""
    nul = pad(concentrated(ring, degree, 1), 1)
    reg = corpus.binary_generator(ring, 3, max_degree=1, regular=True)
    return Collection(ring, "chain", ("c",), 3, 1,
                      {((), "c"): nul, sig(2): reg.level(sig(2))},
                      {sig(2): {(1, 0): reg.action(sig(2), (1, 0))}})


def _block_cases():
    """(id, case) pairs: case() gives `_free_blocks` or `_stage_blocks`
    data."""
    cases = []
    for ring in (ZZ, QQ, F5, Zmod(2)):
        for regular in (True, False):
            for n in (3, 4):
                cases.append((f"binary-{ring.name()}-{regular}-{n}",
                              lambda ring=ring, regular=regular, n=n:
                              _free_blocks(corpus.binary_generator(
                                  ring, 4, regular=regular), sig(n), n - 1)))
    for ring in (ZZ, QQ, F5):
        for seed in range(4):
            for action in ("trivial", "sign"):
                for n in range(4):
                    cases.append((
                        f"random-{ring.name()}-{seed}-{action}-{n}",
                        lambda ring=ring, seed=seed, action=action, n=n:
                        _free_blocks(corpus.random_collection(
                            random.Random(seed), ring, "chain", 3, 2, 2,
                            action), sig(n, "x"), 3)))
    for ring in (ZZ, QQ, F5, Zmod(2)):
        # two odd nullary children under a trivial binary vertex: x = -x,
        # which is torsion over Z and kills the class over Q and F_5
        cases.append((f"odd-nullary-{ring.name()}",
                      lambda ring=ring: _free_blocks(_odd_nullary(ring),
                                                     ((), "c"), 3)))
    for ring in (ZZ, QQ, F5):
        for degree in (0, 1):
            for n in range(3):
                cases.append((f"nullary-{ring.name()}-{degree}-{n}",
                              lambda ring=ring, degree=degree, n=n:
                              _free_blocks(_nullary_beside_regular(
                                  ring, degree), sig(n), 3)))
        for n in (3, 4):
            cases.append((f"graded-{ring.name()}-{n}",
                          lambda ring=ring, n=n: _free_blocks(
                              _graded_binary(ring, n - 1), sig(n), n - 1)))
        for s in ((("a", "b", "b"), "a"), (("b", "a", "b"), "a"),
                  (("b", "b", "b"), "b")):
            cases.append((f"two-color-{ring.name()}-{','.join(s[0])}",
                          lambda ring=ring, s=s: _free_blocks(
                              corpus.two_color_binary_inclusion(ring, 3)[1],
                              s, 3)))
        for k in (1, 2):
            cases.append((f"two-color-marked-{ring.name()}-{k}",
                          lambda ring=ring, k=k: _stage_blocks(
                              *_inclusion_operad(
                                  corpus.two_color_binary_inclusion(ring, 3),
                                  3), (("a", "b", "b"), "a"), k, 3)))
    for ring in (ZZ, F5):
        for k in (1, 2, 3):
            cases.append((f"marked-{ring.name()}-{k}",
                          lambda ring=ring, k=k: _stage_blocks(
                              *_inclusion_operad(corpus.split_binary_inclusion(
                                  ring, 4, q_rank=2, q_regular=True), 4),
                              sig(4), k, 3)))
    return cases


def _inclusion_operad(inclusion, max_arity):
    """(Y, the free operad on M) for an inclusion (M, Y, f)."""
    M, Y, _ = inclusion
    return Y, FreeOperad(M, max_arity=max_arity, max_vertices=3).operad()


_BLOCK_CASES = _block_cases()


def _each_block(case):
    """(class, block) per class of case whose block builds; a class whose
    block refuses torsion is skipped, once the orbit-wide quotient has
    refused it too."""
    ring, bound, sig_, classes, decor, action = case
    for cl in classes:
        try:
            yield cl, trees._Block(_ops_for("chain", ring, bound), cl, decor,
                                   action, sig_[0])
        except ValueError as exc:
            assert "torsion" in str(exc)
            with pytest.raises(ValueError, match="torsion"):
                _orbit_quotient(case, cl)


@pytest.mark.parametrize("case", [c for _, c in _BLOCK_CASES],
                         ids=[i for i, _ in _BLOCK_CASES])
def test_block_matches_the_orbit_wide_quotient(case):
    # the coinvariants of the canonical tree under its automorphisms are
    # the colimit over the whole planar orbit: object, differentials,
    # section and proj on the canonical tree's columns agree entry for
    # entry, or both refuse torsion
    case = case()
    for cl, b in _each_block(case):
        *_, obj, quotients = _orbit_quotient(case, cl)
        assert b.obj.ranks() == obj.ranks()
        assert [d.entries for d in b.obj.differentials] == \
            [d.entries for d in obj.differentials]
        for n in range(b.ops.max_degree + 1):
            assert b.quotients[n].section.entries == \
                quotients[n].section.entries
            assert b.quotients[n].proj.entries == _columns(
                quotients[n].proj.entries, 0, b.tensor.level(n).rank)


_REACH_CASES = _BLOCK_CASES + [
    (f"binary-{ring.name()}-{regular}-5",
     lambda ring=ring, regular=regular: _free_blocks(
         corpus.binary_generator(ring, 5, regular=regular), sig(5), 4))
    for ring in (ZZ, F5) for regular in (True, False)]


@pytest.mark.parametrize("case", [c for _, c in _REACH_CASES],
                         ids=[i for i, _ in _REACH_CASES])
def test_reach_matches_the_orbit_wide_proj(case):
    # every planar tree of a class, carried to the canonical tree along
    # the isomorphism that sorts siblings and then projected, lands
    # where the orbit-wide quotient projects that tree's own columns
    case = case()
    for cl, b in _each_block(case):
        orbit, sides, offsets, ranks, _, quotients = _orbit_quotient(case, cl)
        for p, side, off, rank in zip(orbit, sides, offsets, ranks):
            labs, layout, reach = b.reach(p)
            assert (labs, layout) == side
            assert b.reach(p)[2] is reach
            for n in range(b.ops.max_degree + 1):
                assert reach[n] == _columns(quotients[n].proj.entries,
                                            off[n], rank[n])


@pytest.mark.parametrize("case", [
    c for i, c in _BLOCK_CASES
    if i.startswith(("binary-Z-", "graded", "nullary-Q", "odd-nullary"))],
    ids=[i for i, _ in _BLOCK_CASES
         if i.startswith(("binary-Z-", "graded", "nullary-Q", "odd-nullary"))])
def test_block_generic_quotient_ranks_match_the_orbit_wide_quotient(case):
    # on the Smith-form route the bases may differ, the ranks may not
    case = case()
    with smith_route():
        for cl, b in _each_block(case):
            assert b.obj.ranks() == _orbit_quotient(case, cl)[4].ranks()


# -- free operads as operads ------------------------------------------------


def test_free_operad_passes_axiom_checker():
    for regular in (True, False):
        M = corpus.binary_generator(ZZ, 3, regular=regular)
        P = FreeOperad(M, max_arity=3, max_vertices=2).operad()
        assert operad_check(P) == []


def test_free_operad_unit_and_level_ranks():
    M = corpus.binary_generator(ZZ, 3, regular=True)
    P = FreeOperad(M, max_arity=3, max_vertices=2).operad()
    assert P.collection.level(sig(1)).ranks() == (1,)
    assert P.collection.level(sig(2)).total_rank() == 2
    assert P.collection.level(sig(3)).total_rank() == 12


def test_free_operad_two_colors_axioms():
    M, _, _ = corpus.two_color_binary_inclusion(F5, 3)
    P = FreeOperad(M, max_arity=3, max_vertices=3).operad()
    assert operad_check(P) == []


@pytest.mark.parametrize("build,max_arity,max_vertices", [
    (lambda: corpus.split_binary_inclusion(ZZ, 4)[0], 4, 3),
    (lambda: corpus.split_binary_inclusion(ZZ, 4, m_rank=1,
                                           m_regular=False)[0], 4, 3),
    (lambda: corpus.two_color_binary_inclusion(ZZ, 3)[0], 3, 3),
], ids=["regular-4", "trivial-4", "two-color-3"])
def test_free_operad_closed_actions_match_relabeling(build, max_arity,
                                                     max_vertices):
    # the constructor closes the adjacent transpositions; every entry
    # must equal the relabeling map of its permutation built directly
    F = FreeOperad(build(), max_arity=max_arity, max_vertices=max_vertices)
    coll = F.operad().collection
    assert any(len(s[0]) == max_arity for s in coll.signatures())
    for s in coll.signatures():
        for p in permutations.all_permutations(len(s[0])):
            assert coll.action(s, p) == F._action_map(s, p)


def test_free_operad_refuses_a_simplicial_collection():
    # explicit checks, so they also hold under python -O
    A = associative_operad(ZZ, "simplicial", 2, 1).collection
    with pytest.raises(ValueError, match="chain complexes"):
        FreeOperad(A, max_arity=2, max_vertices=1)
    with pytest.raises(ValueError, match="chain complexes"):
        free_operad(A, (("x", "x"), "x"), 1)


def test_action_map_refuses_mismatched_tree_classes():
    M, _, _ = corpus.two_color_binary_inclusion(ZZ, 2)
    F = FreeOperad(M, max_arity=2, max_vertices=1)
    ab, ba = (("a", "b"), "a"), (("b", "a"), "a")
    # a,b->a and b,a->a have one corolla class each; point the target
    # at a level whose classes differ
    F.levels[ba] = F.levels[(("a",), "a")]
    with pytest.raises(ValueError, match="tree classes"):
        F._action_map(ab, (1, 0))


def test_level_basis_refuses_non_unit_sections():
    M = corpus.binary_generator(ZZ, 3, regular=True)
    fl = free_operad(M, sig(3), 2)
    b = fl.blocks[0]
    doubled = [LinearMap(c.source, c.target,
                         {k: 2 * v for k, v in c.entries.items()})
               for c in b.section.components]
    b.section = ChainMap(b.section.source, b.section.target, doubled,
                         check=False)
    with pytest.raises(ValueError, match="unit section columns"):
        _level_basis(fl, 0)


def test_cokernel_collection_refuses_a_non_descending_differential():
    # f hits the top of x -> m but not its boundary m, so f is not a
    # chain map and the cokernel differential cannot descend
    ring = ZZ
    M = Collection(ring, "chain", ("c",), 1, 1,
                   {sig(1): pad(concentrated(ring, 1, 1), 1)})
    Y = Collection(ring, "chain", ("c",), 1, 1,
                   {sig(1): two_term(ring, [[1]])})
    A, B = M.level(sig(1)), Y.level(sig(1))
    f = ChainMap(A, B, [LinearMap(A.level(0), B.level(0), {}),
                        LinearMap(A.level(1), B.level(1), {(0, 0): 1})],
                 check=False)
    with pytest.raises(ValueError, match="does not descend"):
        cokernel_collection(CollectionMap(M, Y, {sig(1): f}, check=False))


def test_free_level_refuses_a_quotient_that_does_not_descend(monkeypatch):
    # explicit checks, so they also hold under python -O; the class
    # blocks quotient through the same helper as the composite product
    real = op._quotient_by

    def keep_e0(ring, module, rels):
        """A quotient onto e0 alone, which the differential does not
        descend to."""
        if module.rank < 2:
            return real(ring, module, rels)
        gens = exactlin.FreeModule(ring, 1)
        return exactlin.CokernelPresentation(
            LinearMap(module, gens, {(0, 0): 1}),
            LinearMap(gens, module, {(0, 0): 1}))

    monkeypatch.setattr(op, "_quotient_by", keep_e0)
    with pytest.raises(ValueError, match="^differential does not descend"):
        free_operad(_graded_binary(ZZ, 2), sig(3), 2)


def _inclusion_parts():
    M, Y, f = corpus.split_binary_inclusion(ZZ, 3)
    return M, Y, f.component(sig(2))


@pytest.mark.parametrize("make,match", [
    (lambda M, Y, g: (M, corpus.split_binary_inclusion(QQ, 3)[1], {}),
     "one ring and base"),
    (lambda M, Y, g: (
        M, corpus.split_binary_inclusion(ZZ, 3, max_degree=1)[1], {}),
     "one max_degree"),
    (lambda M, Y, g: (M, Y, {sig(2): Y.ops.identity(Y.level(sig(2)))}),
     "source ranks"),
    (lambda M, Y, g: (M, Y, {sig(2): M.ops.identity(M.level(sig(2)))}),
     "target ranks"),
], ids=["ring", "max_degree", "source", "target"])
def test_collection_map_refuses_bad_shapes(make, match):
    # explicit checks, so they also hold under python -O, even without
    # the equivariance check
    source, target, comps = make(*_inclusion_parts())
    with pytest.raises(ValueError, match=match):
        CollectionMap(source, target, comps, check=False)


def test_extend_to_operad_refuses_graded_generators():
    # explicit check, so it also holds under python -O
    M = _graded_binary(ZZ, 1)
    F = FreeOperad(M, max_arity=2, max_vertices=1)
    A = associative_operad(ZZ, "chain", 2, 1, color="c")
    g = CollectionMap(M, A.collection, {})
    with pytest.raises(ValueError, match="concentrated in degree zero"):
        extend_to_operad(F, A, g)


def test_free_operad_refuses_silent_truncation():
    M = corpus.binary_generator(ZZ, 4, regular=True)
    with pytest.raises(ValueError, match="graft|vertex bound"):
        FreeOperad(M, max_arity=4, max_vertices=2).operad()


def test_generator_inclusion_and_extension_triangle():
    M = corpus.binary_generator(ZZ, 3, regular=True)
    F = FreeOperad(M, max_arity=3, max_vertices=2)
    P = F.operad()
    inc = generator_inclusion(F)
    assert inc.component(sig(2)).component(0).rank_of_image() == 2

    A = associative_operad(ZZ, base="chain", max_arity=3, color="c")
    # M(2) = k[Sigma_2] = A(2): send the generators to the two words
    g = _generator_map(M, A, swap=False)
    phi = extend_to_operad(F, A, g)
    for s in M.signatures():
        assert phi.level_map(s) @ inc.component(s) == g.component(s)


def _generator_map(M, A, swap):
    """M(2) -> A(2), the generators to the two words in order, or
    swapped; both commute with the slot swap."""
    ring, s = M.ring, sig(2)
    one = ring.one
    ents = {(0, 1): one, (1, 0): one} if swap else {(0, 0): one, (1, 1): one}
    src, tgt = M.level(s), A.collection.level(s)
    return CollectionMap(M, A.collection, {s: M.ops.make_map(
        src, tgt, [LinearMap(src.level(0), tgt.level(0), ents)])})


@pytest.mark.parametrize("swap", [False, True], ids=["identity", "swap"])
@pytest.mark.parametrize("ring", [ZZ, QQ, F5, Zmod(2)],
                         ids=lambda r: r.name())
def test_extend_to_operad_at_arity_four_restricts_to_g(ring, swap):
    # The constructor checks the evaluation Free(M) -> A as an operad
    # map; the universal property pins it by its restriction along the
    # generator inclusion, which must be g.  Binary words generate A,
    # so all 4! words of arity four are hit.
    M = corpus.binary_generator(ring, 4, regular=True)
    F = FreeOperad(M, max_arity=4, max_vertices=3)
    A = associative_operad(ring, base="chain", max_arity=4, color="c")
    g = _generator_map(M, A, swap)
    phi = extend_to_operad(F, A, g)
    inc = generator_inclusion(F)
    for s in M.signatures():
        assert phi.level_map(s) @ inc.component(s) == g.component(s)
    assert phi.level_map(sig(4)).component(0).rank_of_image() == 24


def test_collection_map_rejects_non_equivariant():
    M = corpus.binary_generator(ZZ, 3, regular=True)
    ops = M.ops
    s = sig(2)
    bad = ops.make_map(M.level(s), M.level(s),
                       [LinearMap(M.level(s).level(0), M.level(s).level(0),
                                  {(0, 0): ZZ.one})])
    with pytest.raises(ValueError, match="equivariant"):
        CollectionMap(M, M, {s: bad})
    assert CollectionMap(M, M, {}).component(s).is_zero()


# -- epsilon cells ----------------------------------------------------------
#
# The cell map of a tree in the free-extension filtration
# (Berger-Moerdijk, Axiomatic homotopy theory for operads, section 5):
# no extension stage builds it, so it lives here, where the
# decomposition identity checks it against the cells of the pieces.


class EpsilonCell:
    """An iterated pushout product together with its factor bookkeeping.

    atoms are the vertex maps in preorder; build records the bracketing
    of the codomain, a tree of atom indices as `chain._bracketed_layout`
    reads it (() for no atom), so cells assembled along different
    decompositions can be compared through an explicit reordering
    isomorphism.
    """

    __slots__ = ("map", "atoms", "vertices", "build")

    def __init__(self, map: ChainMap, atoms, vertices, build):
        self.map = map
        self.atoms = atoms
        self.vertices = vertices
        self.build = build


def _vertex_cell(f: CollectionMap, O: Operad, vsig, marked: bool) -> ChainMap:
    ops = O.ops
    if marked:
        return f.component(vsig)
    if sig_arity(vsig) == 1 and vsig[0][0] == vsig[1]:
        return O.unit(vsig[1])
    return ops.zero_map(ops.zero_obj(), O.collection.level(vsig))


def epsilon(T: Tree, f: CollectionMap, O: Operad) -> EpsilonCell:
    """The cell map of a tree: the pushout product, over vertices in
    preorder, of f at marked vertices and the unit of O elsewhere.

    The edge tree has no vertices; its cell is zero into the unit."""
    ops = O.ops
    bound = ops.max_degree
    verts = T.vertex_preorder()
    atoms = [_vertex_cell(f, O, vsig, m) for vsig, m in verts]
    if not atoms:
        return EpsilonCell(ops.zero_map(ops.zero_obj(), ops.unit_obj()),
                           [], [], ())
    cur = atoms[0]
    build = 0
    for k in range(1, len(atoms)):
        cur = chain.pushout_product(cur, atoms[k], bound=bound)
        build = (build, k)
    return EpsilonCell(cur, atoms, verts, build)


def cell_pushout_product(a: EpsilonCell, b: EpsilonCell,
                         bound: int) -> EpsilonCell:
    m = chain.pushout_product(a.map, b.map, bound=bound)
    shift = len(a.atoms)
    return EpsilonCell(m, a.atoms + b.atoms, a.vertices + b.vertices,
                       (a.build, _relabel(b.build, lambda j: j + shift)))


def _relabel(build, rename):
    """A cell's bracketing with atom j renamed rename(j)."""
    if isinstance(build, int):
        return rename(build)
    return tuple(_relabel(t, rename) for t in build)


def cell_comparison_iso(cellA: EpsilonCell, cellB: EpsilonCell,
                        atom_perm, ops) -> ChainMap:
    """The codomain isomorphism matching atom j of A with atom
    atom_perm[j] of B, with the graded reordering sign: the reordering
    (`chain._coherence`) from A's bracketing to B's, each atom of B
    named by its match in A."""
    match = {b: a for a, b in enumerate(atom_perm)}
    codA, codB = cellA.map.target, cellB.map.target
    atoms = [a.target for a in cellA.atoms]
    return ops.make_map(codA, codB, chain._coherence(
        lambda t: chain._bracketed_layout(atoms, t, codA.max_degree),
        cellA.build, _relabel(cellB.build, match.__getitem__), codA, codB))


def cells_agree(cellA: EpsilonCell, cellB: EpsilonCell, atom_perm,
                ops) -> bool:
    """Whether two cells agree through the atom-matching isomorphism.

    The domain comparison is the corestriction of the codomain one, so
    both maps must be degreewise split injections for the test to make
    sense; it is exact, no homology is taken."""
    phi = cell_comparison_iso(cellA, cellB, atom_perm, ops)
    bound = ops.max_degree
    psis = []
    for n in range(bound + 1):
        rhs = phi.component(n) @ cellA.map.component(n)
        psi = exactlin.solve(cellB.map.component(n), rhs)
        if psi is None:
            return False
        back = exactlin.solve(cellA.map.component(n),
                     phi.component(n).transpose() @ cellB.map.component(n))
        if back is None:
            return False
        psis.append(psi)
    dom = cellA.map.source
    domB = cellB.map.source
    for n in range(1, bound + 1):
        if not (psis[n - 1] @ dom.d(n)) == (domB.d(n) @ psis[n]):
            return False
    return True




def _epsilon_setup(ring=ZZ):
    M, Y, f = corpus.split_binary_inclusion(ring, 3)
    O = FreeOperad(M, max_arity=3, max_vertices=3).operad()
    return M, Y, f, O


def test_epsilon_edge_tree():
    _, _, f, O = _epsilon_setup()
    cell = epsilon(e("c"), f, O)
    assert cell.map.source.total_rank() == 0
    assert cell.map.target.ranks() == O.ops.unit_obj().ranks()


def test_epsilon_marked_corolla_is_f():
    _, _, f, O = _epsilon_setup()
    cell = epsilon(corolla(2, marked=True), f, O)
    assert cell.map == f.component(sig(2))


def test_epsilon_unmarked_unary_is_unit():
    _, _, f, O = _epsilon_setup()
    cell = epsilon(node("c", [e("c")]), f, O)
    assert cell.map == O.unit("c")


def test_epsilon_domain_ranks():
    # one marked above one unmarked vertex: dom = X (x) O(2) = 2*2;
    # two marked vertices: dom = X(x)Y + Y(x)X - X(x)X = 6+6-4
    _, _, f, O = _epsilon_setup()
    mixed = node("c", [node("c", [e("c"), e("c")]), e("c")], marked=True)
    cell = epsilon(mixed, f, O)
    assert cell.map.source.total_rank() == 4
    assert cell.map.target.total_rank() == 6
    comb2 = node("c", [corolla(2, marked=True), e("c")], marked=True)
    cell2 = epsilon(comb2, f, O)
    assert cell2.map.source.total_rank() == 8
    assert cell2.map.target.total_rank() == 9


def _decomposition_atom_perm(T, path):
    """Atom matching between the preorder of T and stub-then-subtree."""
    tpaths = T.vertex_paths()
    k = len(path)
    stub_paths = [p for p in tpaths if p[:k] != path]
    sub_paths = [p for p in tpaths if p[:k] == path]
    perm = []
    for p in tpaths:
        if p[:k] == path:
            perm.append(len(stub_paths) + sub_paths.index(p))
        else:
            perm.append(stub_paths.index(p))
    return perm


def test_epsilon_decomposition_identity():
    # the cell of a grafted tree is the pushout product of the pieces'
    # cells, exactly, through the atom-matching isomorphism
    _, _, f, O = _epsilon_setup()
    ops = O.ops
    shapes = [
        node("c", [corolla(2, marked=True), e("c")], marked=True),
        node("c", [corolla(2), e("c")], marked=True),
        node("c", [corolla(2, marked=True), e("c")]),
        node("c", [corolla(2, marked=True), corolla(2)], marked=True),
        node("c", [node("c", [corolla(2, marked=True)])], marked=True),
    ]
    checked = 0
    for T in shapes:
        whole = epsilon(T, f, O)
        paths = [p for p in T.vertex_paths() if p]
        for (stub, li, sub), path in zip(edge_decompositions(T), paths):
            pieces = cell_pushout_product(epsilon(stub, f, O),
                                          epsilon(sub, f, O),
                                          bound=ops.max_degree)
            perm = _decomposition_atom_perm(T, path)
            assert cells_agree(whole, pieces, perm, ops), (T, path)
            checked += 1
    assert checked >= 6


def test_tensor_entries_on_interleaved_runs_is_the_tensor_map():
    # in A (x) (B (x) C) a degree tuple of B (x) C repeats once per index
    # of A, so its box interleaves with the others; _tensor_entries still
    # places each box by its strides, and its answer is id (x) (f (x) id)
    ops = _ops_for("chain", ZZ, 2)
    A, B, C = (pad(two_term(ZZ, [[1], [1]]), 2) for _ in range(3))
    f = ops.make_map(B, B, [LinearMap(B.level(0), B.level(0), {(1, 0): 1,
                                                               (0, 1): 1}),
                            LinearMap.identity(B.level(1)),
                            LinearMap.zero(B.level(2), B.level(2))])
    lay = chain._bracketed_layout([A, B, C], (0, (1, 2)), 2)
    runs = [degs for degs, _ in itertools.groupby(
        degs for degs, _ in _expand(lay[1]))]
    assert len(runs) > len(lay[1])
    want = ops.tensor_map(ops.identity(A),
                          ops.tensor_map(f, ops.identity(C)))
    got = _tensor_entries(ZZ, ops.Obj, [None, f, None], None, lay, lay)
    for n in range(3):
        comp = want.component(n)
        assert LinearMap(comp.source, comp.target, got[n]).entries == \
            comp.entries


# -- extension stages -------------------------------------------------------


def test_extension_trivial_cokernel_is_constant():
    M, _, _ = corpus.split_binary_inclusion(ZZ, 3)
    ident = CollectionMap(M, M, {s: M.ops.identity(M.level(s))
                                 for s in M.signatures()})
    O = FreeOperad(M, max_arity=3, max_vertices=3).operad()
    F = FreeOperad(M, max_arity=3, max_vertices=3)
    st = extension_stage(O, ident, sig(3), 3,
                         generator_map=generator_inclusion(F))
    assert [s.total_rank() for s in st.stages] == [12, 12, 12, 12]
    assert st.certificate["stabilized"]
    assert st.certificate["attached_ranks"] == [0, 0, 0]
    for m in st.maps:
        assert all(m.component(n).is_iso()
                   for n in range(m.source.max_degree + 1))


def _free_extension(ring, sig3, **kw):
    M, Y, f = corpus.split_binary_inclusion(ring, 3, **kw)
    F = FreeOperad(M, max_arity=3, max_vertices=3)
    O = F.operad()
    g = generator_inclusion(F)
    return Y, f, extension_stage(O, f, sig3, 3, generator_map=g)


def test_extension_stage_ranks_trivial_q():
    # stage 1 attaches one marked generator into 12-dimensional stage 0:
    # hand count gives 24 total, stage 2 closes at the free answer 27
    Y, f, st = _free_extension(ZZ, sig(3))
    assert [s.total_rank() for s in st.stages] == [12, 24, 27, 27]
    assert st.colimit.total_rank() == \
        free_operad(Y, sig(3), 3).object.total_rank() == 27
    assert st.certificate["stabilized"] and not st.certificate["truncated"]


def test_extension_stage_ranks_regular_q():
    Y, f, st = _free_extension(ZZ, sig(3), q_rank=2, q_regular=True)
    assert [s.total_rank() for s in st.stages] == [12, 36, 48, 48]
    assert st.colimit.total_rank() == \
        free_operad(Y, sig(3), 3).object.total_rank() == 48


def test_free_operad_arity_four_passes_axiom_checker():
    # arity 4 has two tree classes, so each relabeling table must place
    # the second class's block after the first in both big sums
    M, _, _ = corpus.split_binary_inclusion(ZZ, 4, m_rank=1,
                                            m_regular=False)
    assert operad_check(FreeOperad(M, max_arity=4, max_vertices=3).operad()) \
        == []


_TRIVIAL_M = {"m_rank": 1, "m_regular": False}


@pytest.mark.parametrize("ring,m,stages", [
    (ZZ, _TRIVIAL_M, [15, 60, 105, 120]),
    (F5, _TRIVIAL_M, [15, 60, 105, 120]),
    (ZZ, {}, [120, 300, 390, 405]),
], ids=["Z", "Zmod:5", "Z-regular"])
def test_extension_stage_ranks_arity_four(ring, m, stages):
    # The 15 leaf-labelled binary trees with 4 leaves have 3 vertices,
    # and stage k adds the trees with k marked vertices.  The attached
    # generator has rank 1 with trivial swap.  With M(2) of rank 1 and
    # trivial swap, stage k is 15 * sum_{j<=k} C(3, j); with the default
    # regular M(2) of rank 2, an unmarked vertex counts twice, so it is
    # 15 * sum_{j<=k} C(3, j) 2^(3-j).
    M, Y, f = corpus.split_binary_inclusion(ring, 4, **m)
    F = FreeOperad(M, max_arity=4, max_vertices=3)
    st = extension_stage(F.operad(), f, sig(4), 3,
                         generator_map=generator_inclusion(F))
    assert [s.total_rank() for s in st.stages] == stages
    assert st.colimit.total_rank() == \
        free_operad(Y, sig(4), 3).object.total_rank() == stages[-1]
    assert st.certificate["stabilized"] and not st.certificate["truncated"]


def test_extension_from_zero_source_is_free():
    # attaching a generator to the unit operad builds its free operad
    M, Y, f = corpus.split_binary_inclusion(ZZ, 3, m_rank=0,
                                            m_regular=False, q_rank=1)
    O = FreeOperad(M, max_arity=3, max_vertices=3).operad()
    st = extension_stage(O, f, sig(3), 3)
    ranks = [s.total_rank() for s in st.stages]
    assert ranks[0] == 0 and ranks[-1] == 3
    assert st.colimit.total_rank() == \
        free_operad(Y, sig(3), 3).object.total_rank()


def test_extension_two_colors():
    M, Y, f = corpus.two_color_binary_inclusion(F5, 3)
    F = FreeOperad(M, max_arity=3, max_vertices=3)
    st = extension_stage(F.operad(), f, (("a", "b", "b"), "a"), 3,
                         generator_map=generator_inclusion(F))
    assert [s.total_rank() for s in st.stages] == [2, 3, 3, 3]
    assert st.colimit.total_rank() == \
        free_operad(Y, (("a", "b", "b"), "a"), 3).object.total_rank()


def _unary_generator_inclusion():
    """The inclusion of a unary generator into itself plus a binary one."""
    one = pad(concentrated(ZZ, 0, 1), 0)
    ops = Collection(ZZ, "chain", ("c",), 3, 0, {}).ops
    X = Collection(ZZ, "chain", ("c",), 3, 0, {sig(1): one})
    Y = Collection(ZZ, "chain", ("c",), 3, 0, {sig(1): one, sig(2): one},
                   {sig(2): {(1, 0): ops.identity(one)}})
    return CollectionMap(X, Y, {sig(1): ops.identity(one)})


def _broken_extension(case):
    """extension_stage arguments over the free operad on M(2) of rank 2,
    with one of them broken."""
    M, _, f = corpus.split_binary_inclusion(ZZ, 3)
    F = FreeOperad(M, max_arity=3, max_vertices=3)
    O, g, s = F.operad(), generator_inclusion(F), sig(3)
    if case == "arity-window":
        s = sig(4)
    elif case == "unit-not-iso":
        zero = O.ops.zero_map(O.ops.unit_obj(), O.collection.level(sig(1)))
        O = Operad(O.collection, {"c": zero}, O.compositions)
    elif case == "unary-source":
        f = _unary_generator_inclusion()
    elif case == "no-generator-map":
        g = None
    return O, f, s, 3, g


_BROKEN_EXTENSION_MESSAGES = {
    "arity-window": "the operad's arity window is smaller than the signature",
    "unit-not-iso": "unary level at 'c' is larger than the unit",
    "unary-source": "attaching maps need source generators in arities >= 2",
    "no-generator-map": "a nontrivial extension needs the generator map "
                        "into O",
}


@pytest.mark.parametrize("case", list(_BROKEN_EXTENSION_MESSAGES))
def test_extension_stage_refuses_bad_input(case):
    # explicit checks, so they also hold under python -O
    with pytest.raises(ValueError,
                       match="^" + _BROKEN_EXTENSION_MESSAGES[case]):
        extension_stage(*_broken_extension(case))


def test_extension_truncation_flips_at_the_bound():
    # the binary trees with 3 leaves have exactly 2 vertices
    M, _, f = corpus.split_binary_inclusion(ZZ, 3)
    F = FreeOperad(M, max_arity=3, max_vertices=2)
    O, g = F.operad(), generator_inclusion(F)
    certs = [extension_stage(O, f, sig(3), bound,
                             generator_map=g).certificate
             for bound in (1, 2)]
    assert [c["truncated"] for c in certs] == [True, False]
    assert [c["stabilized"] for c in certs] == [False, True]
    assert "warning" in certs[0] and "warning" not in certs[1]


def test_extension_stage_maps_are_split_injections():
    _, _, st = _free_extension(ZZ, sig(3))
    for m in st.maps:
        for n in range(m.source.max_degree + 1):
            comp = m.component(n)
            assert comp.rank_of_image() == comp.source.rank


def test_extension_unary_generator_never_stabilizes():
    # a unary generator keeps composing with itself, so every stage
    # attaches new classes and the certificate must say so explicitly.
    # Over the unit operad, stage k is spanned by the words of length
    # j <= k in the r generators: rank sum_{j<=k} r^j.
    ring = ZZ
    M = Collection(ring, "chain", ("c",), 1, 0, {}, {})
    O = FreeOperad(M, max_arity=1, max_vertices=3).operad()
    for r in (1, 2):
        Y = Collection(ring, "chain", ("c",), 1, 0,
                       {sig(1): concentrated(ring, 0, r)}, {})
        f = CollectionMap(M, Y, {})
        st = extension_stage(O, f, sig(1), 3)
        assert [s.total_rank() for s in st.stages] == \
            [sum(r ** j for j in range(k + 1)) for k in range(4)]
        assert st.colimit.total_rank() == \
            free_operad(Y, sig(1), 3).object.total_rank()
        cert = st.certificate
        assert not cert["stabilized"]
        assert cert["truncated"]
        assert "warning" in cert


@pytest.mark.parametrize("ring", [QQ, ZZ, Zmod(5)], ids=lambda r: r.name())
def test_moved_rows_match_the_product_route(ring):
    # each entry moves to its row's image times that row's sign: over Q
    # the sign passes through with no Fraction product, and the entries,
    # their order and their value types are those of the products
    rng = random.Random(3)
    n = ring.normalize
    move = {(2, 0): n(-1), (0, 1): n(1), (3, 2): n(1), (1, 3): n(-1)}
    values = [n(v) for v in (1, -1, 2, -3)]
    if ring is QQ:
        values += [QQ.normalize(Fraction(3, 2)), QQ.normalize(Fraction(-1, 4))]
    cells = [(i, j) for i in range(4) for j in range(3)]
    rng.shuffle(cells)
    entries = {k: rng.choice(values) for k in cells[:9]}
    to = {c: (r, u) for (r, c), u in move.items()}
    p = ring.p
    want = {(to[i][0], j): to[i][1] * v if p is None else to[i][1] * v % p
            for (i, j), v in entries.items()}
    got = trees._moved_rows(move, entries, ring)
    assert ([(k, v, type(v)) for k, v in got.items()]
            == [(k, v, type(v)) for k, v in want.items()])


# -- the pushout route, the oracle of the cell attachment --------------------
#
# Before the stages were cell attachments, stage k was the degreewise
# pushout of C <- D -> stage(k-1): C sums the classes with k marked
# vertices decorated by Y = f's target, and D sums, over each class's
# canonical tree, the choice blocks that keep f's source X at some
# marked vertices and the cokernel Q at the others, not Q at all of
# them.  The first leg injects a choice block into C through f and the
# sections of Q; the second collapses it into an earlier stage.  Only
# these tests build it now: on every instance whose sections are chain
# maps it must agree with `extension_stage` up to an isomorphism of
# stages that respects the stage maps.


def _pushout_stages(O, f, sig_, max_vertices, g):
    """(ExtensionStages, steps) of the pushout route; steps[k - 1] is
    None when stage k attached nothing, else (pushout, Y-blocks,
    choices), choices listing (block index, kind, D, D's layout,
    attaching leg)."""
    ring, ops = O.ring, O.ops
    bound = ops.max_degree
    coll = O.collection
    Qc, q_sections = cokernel_collection(f)
    stage = pad(coll.level(sig_), bound)
    unmarked_vals = [s for s in coll.signatures() if sig_arity(s) != 1]
    decor = lambda vsig, m: f.target.level(vsig) if m else coll.level(vsig)
    action = lambda vsig, m, tau: (f.target.action(vsig, tau) if m
                                   else coll.action(vsig, tau))
    base_leg = ops.identity(stage)
    stages, maps, steps, attached = [stage], [], [], []
    cells_by_stage, cell_legs = {}, {}
    truncated = False
    for k in range(1, max_vertices + 2):
        classes, beyond = trees._classes_within(
            sig_, k, max_vertices, f.target.signatures(), unmarked_vals,
            no_adjacent_unmarked=True)
        truncated = truncated or beyond
        if k > max_vertices:
            continue
        blocks = [trees._Block(ops, cl, decor, action, sig_[0])
                  for cl in classes]
        blocks = [b for b in blocks if not ops.is_zero(b.obj)]
        attached.append(sum(b.obj.total_rank() for b in blocks))
        cells_by_stage[k] = blocks
        if not blocks:
            stages.append(stage)
            maps.append(ops.identity(stage))
            steps.append(None)
            continue
        C, c_off = ops.direct_sum([b.obj for b in blocks])
        choices, inks = [], []
        for bi, b in enumerate(blocks):
            marked = [vi for vi, (_, m) in
                      enumerate(b.tree_class.rep.vertex_preorder()) if m]
            for choice in itertools.product((0, 1), repeat=len(marked)):
                if all(choice):
                    continue
                kind = {vi: "Q" if c else "X" for vi, c in zip(marked, choice)}
                D, layout, ink, att = _choice_block(
                    O, f, Qc, q_sections, g, b, kind, cells_by_stage,
                    cell_legs, base_leg, stage, sig_)
                if ink is not None:
                    choices.append((bi, kind, D, layout, att))
                    inks.append((ink.components, c_off[bi]))
        Dtot, d_off = ops.direct_sum([c[2] for c in choices])
        ink_tot = trees._placed_map(ops, Dtot, C, [
            (ink, off, row) for (ink, row), off in zip(inks, d_off)])
        att_tot = trees._placed_map(ops, Dtot, stage, [
            (c[-1].components, off, None) for c, off in zip(choices, d_off)])
        po = chain.pushout_complex(ink_tot, att_tot)
        for key, (leg, offs) in cell_legs.items():
            cell_legs[key] = (po.inr @ leg, offs)
        cell_legs[k] = (po.inl, c_off)
        base_leg = po.inr @ base_leg
        maps.append(po.inr)
        stages.append(po.complex)
        steps.append((po, blocks, choices))
        stage = po.complex
    stable_from = len(attached)
    while stable_from > 0 and attached[stable_from - 1] == 0:
        stable_from -= 1
    cert = {"vertex_bound": max_vertices, "stages": len(stages) - 1,
            "attached_ranks": attached, "stable_from": stable_from,
            "stabilized": not truncated, "truncated": truncated}
    if truncated:
        cert["warning"] = ("classes beyond the vertex bound exist; the "
                           "colimit is truncated, not final")
    return trees.ExtensionStages(sig_, stages, maps, cert), steps


def _choice_block(O, f, Qc, q_sections, g, block, kind, cells_by_stage,
                  cell_legs, base_leg, stage, sig_):
    """A choice block D of block's canonical tree, with its layout and
    its legs into the class coinvariants and into the stage before; the
    legs are None when D is zero."""
    ring, ops = O.ring, O.ops
    p = block.tree_class.rep
    facs = [O.collection.level(vsig) if not m
            else Qc.level(vsig) if kind[vi] == "Q" else f.source.level(vsig)
            for vi, (vsig, m) in enumerate(p.vertex_preorder())]
    mats = [None if not m else q_sections[vsig] if kind[vi] == "Q"
            else f.component(vsig)
            for vi, (vsig, m) in enumerate(p.vertex_preorder())]
    L = ops.free(len(block.labs))
    D = op._tensor_many(ops, facs + [L])
    layout = chain._layout(facs + [L], ops.max_degree)
    if D.total_rank() == 0:
        return D, layout, None, None
    ents = _tensor_entries(ring, ops.Obj, mats + [None], None, layout,
                           block.layout)
    ink = block.proj @ ops.maps(D, block.tensor, ents)
    att = _pushout_collapse(O, q_sections, g, p, kind, facs, D, layout,
                            block.labs, cells_by_stage, cell_legs,
                            base_leg, stage, sig_)
    return D, layout, ink, att


def _pushout_collapse(O, q_sections, g, p, kind, facs, D, layout, labs,
                      cells_by_stage, cell_legs, base_leg, stage, sig_):
    """The attaching leg of a choice block: X through g into O, the
    unmarked edges contracted, the surviving Q factors injected back
    into Y through the sections, and the tree carried to its class's
    Y-block in an earlier stage."""
    ring, ops = O.ring, O.ops
    bound = ops.max_degree
    objs, mats, flags = list(facs), [None] * len(facs), []
    for vi, (vsig, m) in enumerate(p.vertex_preorder()):
        if m and kind[vi] == "X":
            mats[vi] = g.component(vsig)
            objs[vi] = g.target.level(vsig)
        flags.append(m and kind[vi] == "Q")
    tree, layout, cur = trees._contract(O, trees._reflag(p, flags), mats,
                                        objs, labs, layout)
    if not tree.n_marked:
        cur = trees._products(ring, trees._act_by_labelings(
            O, tree, labs, layout), cur)
        return base_leg @ ops.maps(D, O.collection.level(sig_), cur)
    target_blocks = cells_by_stage[tree.n_marked]
    tbi = trees._block_of(target_blocks, tree)
    if tbi is None:
        return ops.zero_map(D, stage)
    tb = target_blocks[tbi]
    tlabs, tlayout, reach = tb.reach(tree)
    mats = [q_sections[vsig] if m else None
            for vsig, m in tree.vertex_preorder()]
    lab_map = trees._labeling_map(ops, labs, tlabs, lambda lab: lab)
    final = _tensor_entries(ring, ops.Obj, mats + [lab_map], None, layout,
                            tlayout)
    cur = trees._products(ring, reach, trees._products(ring, final, cur))
    leg, offs = cell_legs[tree.n_marked]
    return leg @ trees._placed_map(ops, D, leg.source, [(
        [LinearMap(D.level(n), tb.obj.level(n), cur[n])
         for n in range(bound + 1)], None, offs[tbi])])


def _compare_routes(O, f, sig_, max_vertices, g=None):
    """Both routes agree in ranks and certificate, and each pushout stage
    maps isomorphically onto the cell-attachment stage, compatibly with
    the stage maps: the comparison is `ChainPushout.mediating` of the
    previous comparison, followed by the stage map, and of
    `_class_sum_leg`.  Returns the new route's stages."""
    new = extension_stage(O, f, sig_, max_vertices, generator_map=g)
    old, steps = _pushout_stages(O, f, sig_, max_vertices, g)
    assert [s.ranks() for s in new.stages] == [s.ranks() for s in old.stages]
    assert new.certificate == old.certificate
    assert new.stages[0] == old.stages[0]
    Qc, q_sections = cokernel_collection(f)
    split = {s: trees._splitting(O.ops, f.component(s), q_sections[s])
             for s in f.target.signatures()}
    phi = O.ops.identity(old.stages[0])
    for k, step in enumerate(steps, 1):
        v = new.maps[k - 1] @ phi
        psi = v if step is None else step[0].mediating(
            _class_sum_leg(O, Qc, split, step, new.stages[k - 1],
                           new.stages[k], v), v)
        assert psi.is_iso()
        assert psi @ old.maps[k - 1] == v
        phi = psi
    return new


def _class_sum_leg(O, Qc, split, step, before, stage, v):
    """The map from the class sum C of a pushout step into the new stage
    that follows before.  On a class's Y-tensor, [f | s]^-1 at each
    marked vertex splits it into its faces (`trees._splitting`): the
    all-Q face goes to the class's Q-block, where the new route put it
    after before, and every other face to its choice block, then along
    that block's attaching leg and v, the comparison of the stage before.
    Each class's map descends to its coinvariants when the sections
    commute with the actions, as on every instance here."""
    po, blocks, choices = step
    ring, ops = O.ring, O.ops
    bound = ops.max_degree
    off, qblocks = list(before.ranks()), {}
    for b in blocks:
        qb = trees._Block(ops, b.tree_class,
                          *trees._decorated(Qc, O.collection), b.sig_inputs)
        if not ops.is_zero(qb.obj):
            qblocks[b.tree_class.encoding] = (qb, off)
            off = [a + r for a, r in zip(off, qb.obj.ranks())]
    assert off == list(stage.ranks())
    pieces = []
    for bi, b in enumerate(blocks):
        verts = b.tree_class.rep.vertex_preorder()
        faces = [LinearMap.zero(b.tensor.level(n), stage.level(n))
                 for n in range(bound + 1)]
        if b.tree_class.encoding in qblocks:
            qb, qoff = qblocks[b.tree_class.encoding]
            P = _tensor_entries(ring, ops.Obj, [
                split[s][1] if m else None for s, m in verts] + [None], None,
                b.layout, qb.layout)
            for n, face in enumerate(faces):
                pq = qb.quotients[n].proj @ LinearMap(
                    face.source, qb.tensor.level(n), P[n])
                faces[n] = face + LinearMap(face.source, face.target, {
                    (qoff[n] + i, j): x for (i, j), x in pq.entries.items()})
        for cbi, kind, D, layout, att in choices:
            if cbi != bi:
                continue
            RP = _tensor_entries(ring, ops.Obj, [
                None if not m else split[s][1] if kind[vi] == "Q"
                else split[s][0] for vi, (s, m) in enumerate(verts)] + [None],
                None, b.layout, layout)
            leg = v @ att
            faces = [face + leg.component(n) @ LinearMap(
                face.source, D.level(n), RP[n]) for n, face in enumerate(faces)]
        pieces.append([op._descend(face, b.quotients[n], "the comparison")
                       for n, face in enumerate(faces)])
    c_off = ops.direct_sum([b.obj for b in blocks])[1]
    return trees._placed_map(ops, po.inl.source, stage, [
        (maps, off, None) for maps, off in zip(pieces, c_off)])


def _inclusion_case(inclusion, sig_, max_vertices, free_vertices=3):
    """extension_stage arguments for an inclusion (M, Y, f), over the
    free operad on M with trees of up to free_vertices vertices."""
    M, _, f = inclusion
    F = FreeOperad(M, max_arity=max(3, sig_arity(sig_)),
                   max_vertices=free_vertices)
    return F.operad(), f, sig_, max_vertices, generator_inclusion(F)


def _unary_case(r):
    M = Collection(ZZ, "chain", ("c",), 1, 0, {}, {})
    O = FreeOperad(M, max_arity=1, max_vertices=3).operad()
    Y = Collection(ZZ, "chain", ("c",), 1, 0,
                   {sig(1): concentrated(ZZ, 0, r)}, {})
    return O, CollectionMap(M, Y, {}), sig(1), 3, None


def _binary_inclusion(ring, max_arity, D, x, y, fs):
    """(X, Y, f) with X(2) = x and Y(2) = y, both with trivial swap, and
    f the map with the entries fs in its lowest degrees."""
    ops = _ops_for("chain", ring, D)
    X, Y = (Collection(ring, "chain", ("c",), max_arity, D, {sig(2): obj},
                       {sig(2): {(1, 0): ops.identity(obj)}})
            for obj in (x, y))
    return X, Y, CollectionMap(X, Y, {sig(2): ops.maps(
        x, y, fs + [{}] * (D + 1 - len(fs)))})


def _graded_split_inclusion(ring, max_arity, D):
    """X(2) = (x -> m), acyclic, and Y(2) = X(2) plus a degree-0 q: f
    splits as complexes, so its sections are chain maps."""
    x = pad(two_term(ring, [[1]]), D)
    y = pad(two_term(ring, [[1], [0]]), D)
    return _binary_inclusion(ring, max_arity, D, x, y,
                             [{(0, 0): ring.one}, {(0, 0): ring.one}])


def _twisted_inclusion(ring, max_arity, D):
    """X(2) = m in degree 0 and Y(2) = (x -> m): f splits degreewise
    but not as complexes, since d x = m leaves the section of Q = x."""
    return _binary_inclusion(ring, max_arity, D,
                             pad(concentrated(ring, 0, 1), D),
                             pad(two_term(ring, [[1]]), D),
                             [{(0, 0): ring.one}])


def _route_cases():
    cases = []
    for ring in (ZZ, QQ, F5):
        r = ring.name()
        cases += [
            (f"arity3-trivial-q-{r}", lambda ring=ring: _inclusion_case(
                corpus.split_binary_inclusion(ring, 3), sig(3), 3)),
            (f"arity3-regular-q-{r}", lambda ring=ring: _inclusion_case(
                corpus.split_binary_inclusion(ring, 3, q_rank=2,
                                              q_regular=True), sig(3), 3)),
            (f"arity4-trivial-{r}", lambda ring=ring: _inclusion_case(
                corpus.split_binary_inclusion(ring, 4, **_TRIVIAL_M),
                sig(4), 3)),
            (f"two-colors-{r}", lambda ring=ring: _inclusion_case(
                corpus.two_color_binary_inclusion(ring, 3),
                (("a", "b", "b"), "a"), 3)),
            (f"zero-source-{r}", lambda ring=ring: _inclusion_case(
                corpus.split_binary_inclusion(ring, 3, m_rank=0,
                                              m_regular=False, q_rank=1),
                sig(3), 3)),
            (f"truncated-{r}", lambda ring=ring: _inclusion_case(
                corpus.split_binary_inclusion(ring, 3), sig(3), 1, 2)),
            (f"padded-degree-1-{r}", lambda ring=ring: _inclusion_case(
                corpus.split_binary_inclusion(ring, 3, max_degree=1),
                sig(3), 3)),
            (f"graded-split-arity3-{r}", lambda ring=ring: _inclusion_case(
                _graded_split_inclusion(ring, 3, 2), sig(3), 2)),
        ]
    cases += [
        ("arity4-regular-Z", lambda: _inclusion_case(
            corpus.split_binary_inclusion(ZZ, 4), sig(4), 3)),
        ("arity4-regular-q-Z", lambda: _inclusion_case(
            corpus.split_binary_inclusion(ZZ, 4, q_rank=2, q_regular=True),
            sig(4), 3)),
        ("arity4-regular-q-Zmod:5", lambda: _inclusion_case(
            corpus.split_binary_inclusion(F5, 4, q_rank=2, q_regular=True),
            sig(4), 3)),
        ("graded-split-arity4-Z", lambda: _inclusion_case(
            _graded_split_inclusion(ZZ, 4, 3), sig(4), 3)),
        ("unary-1", lambda: _unary_case(1)),
        ("unary-2", lambda: _unary_case(2)),
    ]
    return cases


_ROUTE_CASES = _route_cases()


@pytest.mark.parametrize("case", [c for _, c in _ROUTE_CASES],
                         ids=[i for i, _ in _ROUTE_CASES])
def test_cell_attachment_matches_the_pushout_route(case):
    # same ranks and certificate, and each pushout stage is isomorphic
    # to its cell-attachment stage, compatibly with the stage maps
    _compare_routes(*case())


@pytest.mark.parametrize("ring", [ZZ, QQ, F5], ids=lambda r: r.name())
@pytest.mark.parametrize("n,stages", [
    (3, [(3, 0, 0), (3, 6, 0), (3, 6, 3)]),
    (4, [(15, 0, 0, 0), (15, 45, 0, 0), (15, 45, 45, 0), (15, 45, 45, 15)]),
], ids=["arity3", "arity4"])
def test_extension_stages_of_a_degreewise_split_map(ring, n, stages):
    # f: m -> (x -> m) splits in each degree, not as complexes, so the
    # attaching map is read off the faces: h(x) = r(d x) = m is the
    # generator of X, and stage k is the degree <= k part of the free
    # level of the acyclic Y, with its homology in degree k alone
    # (the cycles of degree k: 15, 30, 15, 0 at arity 4)
    D = n - 1
    X, Y, f = _twisted_inclusion(ring, n, D)
    O, f, s, mv, g = _inclusion_case((X, Y, f), sig(n), D, D)
    st = extension_stage(O, f, s, mv, generator_map=g)
    assert [x.ranks() for x in st.stages] == stages
    free = free_operad(Y, sig(n), D).object
    assert st.colimit.ranks() == free.ranks() == stages[-1]
    hom = [[homology(stage, d) for d in range(D + 1)] for stage in st.stages]
    assert all(not h.invariant_factors for row in hom for h in row)
    cycles = {3: [3, 3, 0], 4: [15, 30, 15, 0]}[n]
    assert [[h.rank for h in row] for row in hom] == \
        [[r if d == k else 0 for d in range(D + 1)]
         for k, r in enumerate(cycles)]


@pytest.mark.parametrize("ring", [ZZ, QQ, F5], ids=lambda r: r.name())
def test_pushout_route_refuses_a_degreewise_split_map(ring):
    # the old route injected the Q factors through the sections, which
    # are not chain maps here, so it could not build the stages
    O, f, s, mv, g = _inclusion_case(_twisted_inclusion(ring, 3, 2),
                                     sig(3), 2, 2)
    with pytest.raises(ValueError, match="does not commute with d"):
        _pushout_stages(O, f, s, mv, g)


def test_attaching_map_refuses_sections_that_are_not_equivariant():
    # Y(2) = (a, b -> m) with a and b swapped, X(2) = (a + b -> 2m): the
    # cokernel is the sign representation in degree 1, and no section of
    # it commutes with the swap over Z, so the attaching map, computed
    # on the tensor of the marked corolla, does not descend; the
    # pushout route refused this map too, as its sections are not chain
    # maps (d a = m)
    D = 2
    ops = _ops_for("chain", ZZ, D)

    def two_level(ranks, d1):
        lv = [exactlin.FreeModule(ZZ, r) for r in ranks]
        return pad(chain.ChainComplex(ZZ, lv, [LinearMap(lv[1], lv[0], d1)]),
                   D)

    x = two_level([1, 1], {(0, 0): 2})
    y = two_level([1, 2], {(0, 0): 1, (0, 1): 1})
    swap = ops.maps(y, y, [{(0, 0): 1}, {(1, 0): 1, (0, 1): 1}, {}])
    X = Collection(ZZ, "chain", ("c",), 3, D, {sig(2): x},
                   {sig(2): {(1, 0): ops.identity(x)}})
    Y = Collection(ZZ, "chain", ("c",), 3, D, {sig(2): y},
                   {sig(2): {(1, 0): swap}})
    f = CollectionMap(X, Y, {sig(2): ops.maps(
        x, y, [{(0, 0): 1}, {(0, 0): 1, (1, 0): 1}, {}])})
    O, f, s, mv, g = _inclusion_case((X, Y, f), sig(3), 2, 2)
    with pytest.raises(ValueError, match="attaching map does not descend"):
        extension_stage(O, f, s, mv, generator_map=g)
    with pytest.raises(ValueError, match="does not commute with d"):
        _pushout_stages(O, f, s, mv, g)


def _odd_nullary_inclusion(ring):
    """X(2) in degree 0 and Y = X plus an odd nullary generator, both
    with trivial swap: two nullary leaves under a binary vertex swap two
    odd Q factors, so their class is x = -x."""
    D = 2
    ops = _ops_for("chain", ring, D)
    bin2 = pad(concentrated(ring, 0, 1), D)
    nul = pad(concentrated(ring, 1, 1), D)
    X = Collection(ring, "chain", ("c",), 2, D, {sig(2): bin2},
                   {sig(2): {(1, 0): ops.identity(bin2)}})
    Y = Collection(ring, "chain", ("c",), 2, D,
                   {sig(2): bin2, ((), "c"): nul},
                   {sig(2): {(1, 0): ops.identity(bin2)}})
    return X, Y, CollectionMap(X, Y, {sig(2): ops.identity(bin2)})


def test_torsion_in_the_q_blocks_raises_in_both_routes():
    O, f, s, mv, g = _inclusion_case(_odd_nullary_inclusion(ZZ), ((), "c"),
                                     3)
    for route in (lambda: extension_stage(O, f, s, mv, generator_map=g),
                  lambda: _pushout_stages(O, f, s, mv, g)):
        with pytest.raises(ValueError, match="torsion"):
            route()
    # over Q and Z/5 the class dies instead, and both routes agree
    for ring in (QQ, F5):
        st = _compare_routes(*_inclusion_case(_odd_nullary_inclusion(ring),
                                              ((), "c"), 3))
        assert st.colimit.ranks() == (0, 1, 0)


def test_extension_stages_at_arity_five():
    # 105 * sum_{j<=k} C(4, j) 2^(4-j) at stage k, and the colimit is the
    # free level of Y, 105 * 3^4; the pushout route took half a minute
    # and 409 MB here
    M, Y, f = corpus.split_binary_inclusion(ZZ, 5)
    F = FreeOperad(M, max_arity=5, max_vertices=4)
    st = extension_stage(F.operad(), f, sig(5), 4,
                         generator_map=generator_inclusion(F))
    assert [x.total_rank() for x in st.stages] == \
        [1680, 5040, 7560, 8400, 8505]
    assert st.colimit.total_rank() == \
        free_operad(Y, sig(5), 4).object.total_rank() == 8505
