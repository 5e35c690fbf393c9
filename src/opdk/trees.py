"""Planar colored trees and the free operads they index.

Rooted planar trees with colored edges and a marked/unmarked flag per
vertex drive four computations:

* enumeration of isomorphism classes within a vertex bound, pruned by
  the leaf-vertex identity L - 1 = sum over vertices of (arity - 1),
  together with canonical forms, grafting, and automorphism orders; a
  free level or an extension stage takes its classes and its
  truncation flag from one enumeration one vertex past its bound;
* levels of the free operad on a collection: each class contributes
  the decorations of its canonical planar tree tensored with the leaf
  labelings, divided by that tree's automorphisms, which the self-moves
  swapping two identical adjacent siblings generate.  The sibling swaps
  between the planar trees of a class form a connected groupoid, and a
  colimit over it is the coinvariants of its vertex group at one object
  (the tree-coinvariant description of free operads, as in
  Dotsenko-Khoroshkin and in the free-extension filtration of
  Berger-Moerdijk), so no other planar tree is summed: a map that lands
  on another planar tree carries it to the canonical one along the
  isomorphism that sorts siblings, then projects.  That isomorphism and
  the self-moves come from one routine, `_iso_entries`, a single
  `chain._tensor_entries` call: the vertex factors move with their
  Koszul sign, each decoration goes through the action of its input
  permutation, and the labelings follow their leaves, placed by the
  strided layouts of both tensors (`chain._layout`).  The quotients go
  through the sum-quotient-descend layer of `operad`: the shim's
  `direct_sum`, the one block-diagonal sum of both base categories
  (`chain.DegreewiseObject.block_sum`), lays out every direct sum (the
  classes of a level, the blocks and choice domains of an extension
  stage) and maps between sums are placed by its offsets
  (`_placed_map`, which builds them through the shim's per-degree
  builder `ops.maps`); `_coinvariants` divides a block by
  its self-moves, as it divides a composite term by its stabilizer,
  through `_quotient_by`, which feeds them to the signed union-find
  `exactlin.signed_quotient` when the actions send basis elements to
  +-basis elements and takes an exact cokernel otherwise; and
  `_descend` pushes relabelings and evaluations down block by block,
  raising ValueError on one that does not descend;
* the stages of a free extension of operads, assembled with degreewise
  pushouts of complexes, gluing each class along the choice blocks of
  its canonical tree alone.  The cokernel collection of the attaching
  map takes its levels from the cokernel presentations through
  `operad._quotient_object`, the descent step of that layer, which
  rebuilds an object of either base from its pushed-down structure maps
  (the object class's `_rebuilt`).  When the
  cell maps send basis elements to +-basis elements, the pushout
  relations form a signed graph, and `exactlin.cokernel` takes the
  same union-find;
* the evaluation of decorated trees in an operad, on whole per-degree
  entry lists: `_contract` composes along the unmarked edges and
  `_act_by_labelings` acts by each labeling.  The attaching maps of the
  extension stages and `extend_to_operad`, the map a free operad's
  universal property gives, both evaluate this way.

Everything is exact.  Quotients that would acquire torsion raise
instead of truncating invariant factors, and every stage object records
whether the vertex bound cut the computation short.
"""

from __future__ import annotations

import itertools
import math
import re
from bisect import bisect_right
from typing import Callable, Optional

from .rings import Ring
from .exactlin import (LinearMap, cokernel, compose, hstack, _json_fields,
                       _sparse_product)
from . import chain as _chain
from .chain import (ChainComplex, ChainMap, pad, _expand,
                    _flat, _layout, _tensor_entries)
from . import permutations
from .operad import (Collection, Operad, graft_signature, sig_act, sig_arity,
                     sig_str, word_act, word_graft, _coinvariants, _descend,
                     _ops_for, _placed, _quotient_object, _tensor_many)

__all__ = ["Tree", "canonical", "aut_order", "TreeIsoClass",
           "enumerate_planar", "enumerate_trees", "graft", "tree_to_json",
           "tree_from_json", "leaf_labelings", "FreeLevel", "free_operad",
           "FreeOperad", "CollectionMap", "generator_inclusion",
           "extend_to_operad", "ExtensionStages", "cokernel_collection",
           "extension_stage"]


_COLOR = re.compile(r"[A-Za-z0-9_.+-]+\Z")


# ---------------------------------------------------------------------------
# trees
# ---------------------------------------------------------------------------


class Tree:
    """A planar rooted tree: either a bare edge or a vertex with children.

    The edge tree is a single dangling edge carrying a color and no
    vertex.  A node carries its output color, a marked flag, and an
    ordered tuple of child trees; its input colors are the root colors
    of the children, so an input slot filled by an edge child is a leaf.

    >>> t = Tree.node("c", (Tree.edge("c"), Tree.edge("c")))
    >>> t.leaves(), t.n_vertices
    (('c', 'c'), 1)
    """

    __slots__ = ("output", "marked", "children", "_k", "_enc")

    def __init__(self, output, marked, children):
        if not (isinstance(output, str) and _COLOR.match(output)):
            raise ValueError(f"colors are plain identifiers, got {output!r}")
        self.output = output
        self.marked = marked
        self.children = children
        self._k = None
        self._enc = None

    @staticmethod
    def edge(color: str) -> "Tree":
        return Tree(color, None, None)

    @staticmethod
    def node(output: str, children, marked: bool = False) -> "Tree":
        return Tree(output, bool(marked), tuple(children))

    @property
    def is_edge(self) -> bool:
        return self.children is None

    @property
    def root_color(self) -> str:
        return self.output

    @property
    def inputs(self):
        if self.is_edge:
            raise ValueError("the edge tree has no vertex, so no inputs")
        return tuple(ch.output for ch in self.children)

    @property
    def val(self):
        """The valency of the root vertex as a signature."""
        return (self.inputs, self.output)

    def leaves(self):
        if self.is_edge:
            return (self.output,)
        out = ()
        for ch in self.children:
            out += ch.leaves()
        return out

    @property
    def signature(self):
        return (self.leaves(), self.output)

    @property
    def n_vertices(self) -> int:
        if self.is_edge:
            return 0
        return 1 + sum(ch.n_vertices for ch in self.children)

    @property
    def n_marked(self) -> int:
        if self.is_edge:
            return 0
        return int(self.marked) + sum(ch.n_marked for ch in self.children)

    def key(self):
        if self._k is None:
            if self.is_edge:
                self._k = ("e", self.output)
            else:
                self._k = ("n", self.output, self.marked,
                           tuple(ch.key() for ch in self.children))
        return self._k

    def __eq__(self, other):
        return isinstance(other, Tree) and self.key() == other.key()

    def __hash__(self):
        return hash(self.key())

    def __repr__(self):
        return f"Tree[{self.encoding()}]"

    def encoding(self) -> str:
        """Canonical string: lexicographically least over all sibling
        reorderings, so two trees are isomorphic iff they encode equally.

        >>> a = Tree.node("c", (Tree.edge("c"), Tree.node("c", (Tree.edge("c"),))))
        >>> b = Tree.node("c", (Tree.node("c", (Tree.edge("c"),)), Tree.edge("c")))
        >>> a.encoding() == b.encoding()
        True
        """
        if self._enc is None:
            if self.is_edge:
                self._enc = "|" + self.output
            else:
                parts = sorted(ch.encoding() for ch in self.children)
                flag = "*" if self.marked else ""
                self._enc = f"({flag}{self.output}:{','.join(parts)})"
        return self._enc

    def vertex_preorder(self):
        """(signature, marked) per vertex, root first, children in
        planar order."""
        if self.is_edge:
            return []
        out = [(self.val, self.marked)]
        for ch in self.children:
            out.extend(ch.vertex_preorder())
        return out

    def vertex_paths(self):
        """Paths (tuples of child indices) to every vertex, preorder."""
        if self.is_edge:
            return []
        out = [()]
        for j, ch in enumerate(self.children):
            out.extend((j,) + p for p in ch.vertex_paths())
        return out

    def subtree_at(self, path) -> "Tree":
        t = self
        for j in path:
            t = t.children[j]
        return t

    def replace_at(self, path, sub: "Tree") -> "Tree":
        if not path:
            return sub
        j = path[0]
        kids = list(self.children)
        kids[j] = kids[j].replace_at(path[1:], sub)
        return Tree.node(self.output, kids, self.marked)


def canonical(T: Tree) -> Tree:
    """The representative whose planar order realizes the encoding."""
    if T.is_edge:
        return T
    kids = sorted((canonical(ch) for ch in T.children),
                  key=lambda t: t.encoding())
    return Tree.node(T.output, kids, T.marked)


def aut_order(T: Tree) -> int:
    """Order of the automorphism group of the underlying non-planar tree.

    Children are partitioned into groups of pairwise isomorphic
    subtrees; the group is the product of the child groups twisted by
    the permutations of each isomorphism block.

    >>> c = Tree.edge("c")
    >>> aut_order(Tree.node("c", (c, c, c)))
    6
    """
    if T.is_edge:
        return 1
    blocks: dict = {}
    for ch in T.children:
        blocks.setdefault(ch.encoding(), []).append(ch)
    out = 1
    for group in blocks.values():
        out *= aut_order(group[0]) ** len(group) * math.factorial(len(group))
    return out


class TreeIsoClass:
    """Canonical representative plus its automorphism data.

    rep is the one planar tree a class's block is built on; every other
    planar tree of the class reaches it through the isomorphism that
    sorts siblings (`_Block.reach`).  The automorphisms act freely on
    the child orderings at every vertex, so the planar orbit has
    prod_v (arity of v)! / aut_order members, with no orbit built."""

    __slots__ = ("rep", "aut_order")

    def __init__(self, rep: Tree):
        self.rep = canonical(rep)
        self.aut_order = aut_order(self.rep)

    @property
    def encoding(self) -> str:
        return self.rep.encoding()

    def __repr__(self):
        return f"TreeIsoClass[{self.encoding}]"


# ---------------------------------------------------------------------------
# enumeration
# ---------------------------------------------------------------------------


def _default_valencies(sig, max_vertices: int):
    colors = sorted(set(sig[0]) | {sig[1]})
    top = sig_arity(sig) + max_vertices - 1
    out = []
    for r in range(top + 1):
        for ins in itertools.product(colors, repeat=r):
            for c in colors:
                out.append((tuple(ins), c))
    return out


def enumerate_planar(sig, marked: int, max_vertices: int,
                     marked_valencies=None, unmarked_valencies=None,
                     no_adjacent_unmarked: bool = False):
    """All planar trees with the given leaf multiset and root color.

    The leaf multiset is the multiset of sig's inputs; marked counts the
    flagged vertices exactly.  Valency lists default to every signature
    over the colors of sig with arity at most (leaves + bound - 1),
    which is the largest arity a tree within the bound can carry.

    Every tree with L leaves obeys L - 1 = sum over its vertices of
    (arity - 1).  So with a_min and a_max the least and greatest arity
    over both valency lists, a subtree with v >= 1 vertices, k of them
    marked, exists only if (a_min - 1) v <= L - 1 <= (a_max - 1) v and
    k <= v; the search skips every other (leaves, k, v) split.  With an
    arity-0 or arity-1 valency the lower bound never prunes.
    """
    if marked_valencies is None:
        marked_valencies = _default_valencies(sig, max_vertices)
    if unmarked_valencies is None:
        unmarked_valencies = _default_valencies(sig, max_vertices)
    # flag -> output color -> input tuples, marked first
    by_out: dict = {True: {}, False: {}}
    for flag, vals in ((True, marked_valencies), (False, unmarked_valencies)):
        for ins, c in vals:
            by_out[flag].setdefault(c, []).append(tuple(ins))
    arities = [len(ins) for t in by_out.values() for r in t.values()
               for ins in r]
    lo, hi = min(arities, default=1) - 1, max(arities, default=1) - 1

    memo: dict = {}

    def gen(ms, root, k, v, under_unmarked):
        if v and not (k <= v and lo * v <= len(ms) - 1 <= hi * v):
            return ()
        key = (ms, root, k, v, under_unmarked and no_adjacent_unmarked)
        if key in memo:
            return memo[key]
        out = []
        if v == 0 and k == 0 and ms == (root,):
            out.append(Tree.edge(root))
        if v >= 1:
            for flag, table in by_out.items():
                if flag and k == 0:
                    continue
                if (not flag) and no_adjacent_unmarked and under_unmarked:
                    continue
                for ins in table.get(root, ()):
                    if len(ins) > len(ms) + v - 1:
                        continue
                    kk = k - 1 if flag else k
                    for kids in _child_seqs(ins, ms, kk, v - 1,
                                            not flag, gen):
                        out.append(Tree.node(root, kids, flag))
        memo[key] = out
        return out

    leaves = tuple(sorted(sig[0]))
    out = []
    for v in range(max_vertices + 1):
        out.extend(gen(leaves, sig[1], marked, v, False))
    del gen  # gen's closure refers to gen: free the memo now, not at a GC
    return out


def _child_seqs(ins, ms, k, v, under_unmarked, gen):
    """Ordered child tuples with the exact leaf multiset, marked count,
    and vertex budget."""
    if not ins:
        if not ms and k == 0 and v == 0:
            yield ()
        return
    first, rest = ins[0], ins[1:]
    for sub, remainder in _splits(ms):
        for k1 in range(k + 1):
            for v1 in range(v + 1):
                heads = gen(sub, first, k1, v1, under_unmarked)
                if not heads:
                    continue
                for tail in _child_seqs(rest, remainder, k - k1, v - v1,
                                        under_unmarked, gen):
                    for h in heads:
                        yield (h,) + tail


def _splits(ms):
    """(sub-multiset, complement) pairs of the sorted tuple ms, both
    sorted."""
    vals = sorted(set(ms))
    counts = [ms.count(c) for c in vals]
    for picks in itertools.product(*(range(n + 1) for n in counts)):
        yield (sum(((c,) * p for c, p in zip(vals, picks)), ()),
               sum(((c,) * (n - p) for c, n, p in zip(vals, counts, picks)),
                   ()))


def enumerate_trees(sig, marked: int, max_vertices: int,
                    marked_valencies=None, unmarked_valencies=None,
                    no_adjacent_unmarked: bool = False):
    """Isomorphism classes, ordered by vertex count then encoding.

    Extending the vertex bound appends classes without reordering the
    ones already emitted, so one call at max_vertices + 1 holds the
    call at max_vertices as an initial segment: `FreeLevel` and
    `extension_stage` take both their classes and their truncation flag
    from it, through `_classes_within`.
    """
    seen = {}
    for p in enumerate_planar(sig, marked, max_vertices, marked_valencies,
                              unmarked_valencies, no_adjacent_unmarked):
        enc = p.encoding()
        if enc not in seen:
            seen[enc] = TreeIsoClass(p)
    return sorted(seen.values(),
                  key=lambda cl: (cl.rep.n_vertices, cl.encoding))


def _classes_within(sig, marked: int, max_vertices: int, *valencies, **kw):
    """(classes with at most max_vertices vertices, whether one with
    more exists), from one `enumerate_trees` call one vertex past the
    bound."""
    classes = enumerate_trees(sig, marked, max_vertices + 1, *valencies, **kw)
    within = [cl for cl in classes if cl.rep.n_vertices <= max_vertices]
    return within, len(within) < len(classes)


# ---------------------------------------------------------------------------
# grafting
# ---------------------------------------------------------------------------


def graft(T1: Tree, leaf_index: int, T2: Tree) -> Tree:
    """Replace the leaf at the planar position leaf_index of T1 by T2."""
    if T1.is_edge:
        if leaf_index != 0:
            raise IndexError(f"no leaf at position {leaf_index}")
        if T1.output != T2.root_color:
            raise ValueError("grafted root color does not match the leaf")
        return T2
    offset = 0
    kids = list(T1.children)
    for j, ch in enumerate(kids):
        w = len(ch.leaves())
        if leaf_index < offset + w:
            kids[j] = graft(ch, leaf_index - offset, T2)
            return Tree.node(T1.output, kids, T1.marked)
        offset += w
    raise IndexError(f"no leaf at position {leaf_index}")


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------


def tree_to_json(T: Tree) -> dict:
    if T.is_edge:
        return {"leaf": T.output}
    return {"val": {"in": list(T.inputs), "out": T.output},
            "marked": T.marked,
            "children": [tree_to_json(ch) for ch in T.children]}


def tree_from_json(data: dict) -> Tree:
    """Inverse of tree_to_json; ValueError for a document or val that is
    not an object, a missing key, a list field that is not a list, a
    marked flag that is not a bool, or inputs that do not match the
    children."""
    _json_fields(data, "a tree", ())
    if "leaf" in data:
        return Tree.edge(data["leaf"])
    val, marked, children = _json_fields(
        data, "a tree", ("val", "marked", "children"), ("children",))
    ins, out = _json_fields(val, "a vertex val", ("in", "out"), ("in",))
    if type(marked) is not bool:
        raise ValueError(f"a tree's marked flag is a bool, not {marked!r}")
    children = [tree_from_json(ch) for ch in children]
    if [ch.root_color for ch in children] != ins:
        raise ValueError("input colors do not match the children")
    return Tree.node(out, children, marked)


# ---------------------------------------------------------------------------
# leaf labelings
# ---------------------------------------------------------------------------


def leaf_labelings(leaf_colors, inputs):
    """Bijections leaf position -> input slot preserving colors, sorted.

    The count is the product of the factorials of the color
    multiplicities; an empty list means the multisets disagree.
    """
    n = len(leaf_colors)
    if n != len(inputs) or sorted(leaf_colors) != sorted(inputs):
        return []
    slots: dict = {}
    for j, c in enumerate(inputs):
        slots.setdefault(c, []).append(j)
    out = []

    def rec(t, used, acc):
        if t == n:
            out.append(tuple(acc))
            return
        for j in slots[leaf_colors[t]]:
            if j not in used:
                rec(t + 1, used | {j}, acc + [j])

    rec(0, frozenset(), [])
    return sorted(out)


# ---------------------------------------------------------------------------
# tensor bookkeeping
# ---------------------------------------------------------------------------
#
# The basis of an iterated tensor is read off its layout: per degree,
# {degree tuple: (start, dims, strides)}, one strided box per degree
# tuple with nonzero rank, so index tuple idx sits at flat position
# start + sum idx[j] * strides[j] (`chain._flat`).  `chain._layout`
# folds the binary combinator `chain._tensor_layout` over a factor list
# (left-associated, as `operad._tensor_many` builds the objects).  A
# block keeps the layout of its canonical tree, a planar tree carried
# to it lays out its own on first use, and stage rewrites build theirs
# per factor list; no position list or index dict is stored.  The last
# factor of every tensor is the labeling complex, the shim's free object
# `ops.free` on the labelings, and a relabeling of it is the shim's
# `ops.constant` map (`_labeling_map`).  Every map applied factorwise, a
# tree isomorphism, a relabeling or a stage rewrite, goes through
# `chain._tensor_entries`, which places each product by the strides of
# both layouts, and the per-degree entries it returns become a map
# through the shim's `ops.maps`, directly or, for pieces of a direct
# sum, at their offsets through `_placed_map`.  `chain._expand` lists a
# degree's basis only where a map is not factorwise: `_pair_entries`,
# whose map leaves the tensor of two factors.


def _pair_entries(ops, src_objs, a: int, pairmap: ChainMap):
    """Per-degree entries contracting factors a, a+1 through a map out
    of their tensor.  A column meets one column of pairmap, whose rows
    land on distinct rows, so nothing is summed."""
    base, D = ops.base, ops.max_degree
    pair = _layout(base, src_objs[a:a + 2], D)
    tgt = _layout(base, src_objs[:a] + [pairmap.target] + src_objs[a + 2:], D)
    cols: dict = {}
    for d, comp in enumerate(pairmap.components):
        for (i, j), v in comp.entries.items():
            cols.setdefault((d, j), []).append((i, v))
    out = []
    for n, boxes in enumerate(_layout(base, src_objs, D)):
        entries: dict = {}
        for col, (degs, idxs) in enumerate(_expand(boxes)):
            d = degs[a] + degs[a + 1]
            q = _flat(pair[d][degs[a:a + 2]], idxs[a:a + 2])
            for row_in_pair, v in cols.get((d, q), ()):
                row = _flat(tgt[n][degs[:a] + (d,) + degs[a + 2:]],
                            idxs[:a] + (row_in_pair,) + idxs[a + 2:])
                entries[(row, col)] = v
        out.append(entries)
    return out


def _labeling_map(ops, labs, tgt_labs, relabel):
    """The map of labeling complexes, the free objects on the labelings,
    sending labeling lab to relabel(lab) among tgt_labs."""
    where = {lab: i for i, lab in enumerate(tgt_labs)}
    return ops.constant(ops.free(len(labs)), ops.free(len(tgt_labs)), {
        (where[relabel(lab)], i): ops.ring.one for i, lab in enumerate(labs)})


def _placed_map(ops, src, tgt, pieces):
    """The map src -> tgt holding each piece (per-degree LinearMaps,
    column offsets, row offsets) at its per-degree offsets, None for no
    offset: block maps go into and out of the sums of the shim's
    `direct_sum` this way, through `operad._placed`."""
    return ops.maps(src, tgt, _placed([([m.entries for m in maps], co, ro)
                                       for maps, co, ro in pieces],
                                      ops.max_degree))


# ---------------------------------------------------------------------------
# class blocks: a canonical tree's decorations, divided by its automorphisms
# ---------------------------------------------------------------------------


class _Block:
    """The contribution of one tree class to a level.

    tensor is the tensor of the decorations of p0 = tree_class.rep, the
    canonical planar tree, in vertex preorder, with its leaf labelings
    labs; layout is its `chain._layout` (per degree, one strided box per
    degree tuple), all the tensor bookkeeping a block keeps.  obj is the
    coinvariants of tensor under Aut(p0), which the self-moves of p0
    generate: the swaps of two identical adjacent siblings, acting on
    decorations through the collection actions and on labelings through
    the induced leaf permutation.  The sibling swaps between the planar
    trees of the class form a connected groupoid, and a colimit over it
    is the coinvariants of its vertex group at one object, so no other
    planar tree is summed.  `operad._coinvariants` takes the quotient
    and descends the differential, as it does for a composite term with
    a stabilizer.
    quotients[n] is the degree-n quotient, and proj and section are
    chain maps between tensor and obj made of its maps.

    Any other planar tree of the class reaches obj through `reach`.
    """

    __slots__ = ("tree_class", "labs", "layout", "tensor", "obj", "proj",
                 "section", "quotients", "ring", "bound", "ops", "decor",
                 "action", "sig_inputs", "_reached")

    def __init__(self, ring: Ring, bound: int, tree_class: TreeIsoClass,
                 decor: Callable, action: Callable, sig_inputs):
        self.ring = ring
        self.bound = bound
        self.ops = ops = _ops_for("chain", ring, bound)
        self.tree_class = tree_class
        self.decor, self.action, self.sig_inputs = decor, action, sig_inputs
        self._reached = {}
        p0 = tree_class.rep
        self.labs, factors = self._factors(p0)
        self.layout = _layout("chain", factors, bound)
        self.tensor = _tensor_many(ops, factors)
        cols = [range(self.tensor.level(n).rank) for n in range(bound + 1)]
        rels = [[] for _ in range(bound + 1)]
        for vi, path in enumerate(p0.vertex_paths()):
            kids = p0.subtree_at(path).children
            for t in range(len(kids) - 1):
                if kids[t] != kids[t + 1]:
                    continue
                swap = permutations.transposition(len(kids), t)
                move = _iso_entries(
                    ring, bound, action, p0,
                    lambda wi, w: swap if wi == vi else None,
                    (self.labs, self.layout), (self.labs, self.layout))
                for n in range(bound + 1):
                    rels[n].append((move[n], cols[n]))
        self.obj, self.quotients = _coinvariants(ops, self.tensor, rels)
        self.proj = ops.make_map(self.tensor, self.obj,
                                 [q.proj for q in self.quotients])
        self.section = ops.make_map(self.obj, self.tensor,
                                    [q.section for q in self.quotients])

    def _factors(self, p: Tree):
        """p's labelings, and the factors of its tensor: its decorations
        in vertex preorder, then the labeling complex, the free object
        on the labelings."""
        labs = leaf_labelings(p.leaves(), self.sig_inputs)
        return labs, [self.decor(vsig, m) for vsig, m in p.vertex_preorder()] \
            + [self.ops.free(len(labs))]

    def reach(self, p: Tree):
        """(labelings, layout, per-degree entries into obj) of the planar
        tree p of this class: the tensor of p carried to p0's by the
        isomorphism that sorts siblings, then proj.  Cached per planar
        key."""
        hit = self._reached.get(p.key())
        if hit is None:
            labs, factors = self._factors(p)
            layout = _layout("chain", factors, self.bound)
            iso = _iso_entries(self.ring, self.bound, self.action, p,
                               _sorting, (labs, layout),
                               (self.labs, self.layout))
            hit = self._reached[p.key()] = (labs, layout, _products(
                self.ring, [q.proj.entries for q in self.quotients], iso))
        return hit


def _iso_entries(ring: Ring, bound: int, action: Callable, p: Tree,
                 order: Callable, src, tgt):
    """Per-degree entries from the tensor of the planar tree p to the
    tensor of the tree q that puts child order(vi, v)[i] of p's preorder
    vertex vi, v, at slot i (None keeps the order), along that tree
    isomorphism.  src and tgt are the (labelings, layout) pairs of p's
    and q's tensors; action(vsig, marked, pi) is the decorations' action.
    A block's self-moves (q = p = p0) and the sort that carries any tree
    of a class onto its canonical one (`_Block.reach`) are both this.

    It is one `chain._tensor_entries` call: the vertex factors move
    with the Koszul sign, each vertex's decoration goes through the
    action of its input permutation, and the labelings follow their
    leaves."""
    maps = []

    def rec(t, leaf):
        # t's vertices (source preorder indices) and leaf positions,
        # both in target order
        if t.is_edge:
            return [], [leaf]
        vi = len(maps)
        pi = order(vi, t)
        maps.append(None if pi is None else action(t.val, t.marked, pi))
        subs = []
        for ch in t.children:
            subs.append(rec(ch, leaf))
            leaf += len(subs[-1][1])
        verts, leaves = [vi], []
        for j in (range(len(subs)) if pi is None else pi):
            verts += subs[j][0]
            leaves += subs[j][1]
        return verts, leaves

    sigma, rho = rec(p, 0)
    lab_map = _labeling_map(_ops_for("chain", ring, bound), src[0], tgt[0],
                            lambda lab: tuple(lab[j] for j in rho))
    return _tensor_entries(ring, "chain", maps + [lab_map],
                           tuple(sigma) + (len(sigma),), src[1], tgt[1])


def _sorting(vi: int, v: Tree):
    """The child order that `canonical` gives v: stable, by encoding."""
    pi = sorted(range(len(v.children)), key=lambda j: v.children[j].encoding())
    return None if pi == list(range(len(pi))) else tuple(pi)


def _block_of(blocks, tree: Tree) -> Optional[int]:
    """Index of the block of tree's class among blocks, None when the
    class left no block (its coinvariants were zero)."""
    enc = tree.encoding()
    return next((i for i, b in enumerate(blocks)
                 if b.tree_class.encoding == enc), None)


# ---------------------------------------------------------------------------
# free operad levels
# ---------------------------------------------------------------------------


class FreeLevel:
    """One signature level of the free operad on a collection.

    object is the shim's `direct_sum` of the class blocks' quotients,
    block bi starting at row offsets[bi][n] in degree n; a map out of or
    into a block is placed by these offsets.  Each block is built on its
    class's canonical tree; a planar tree that a composition or the
    generator inclusion lands on finds its block by `_block_of` and
    reaches its quotient through `_Block.reach`.  An unknown color in
    the signature raises ValueError, as the collection's levels do.
    """

    __slots__ = ("sig", "max_vertices", "blocks", "object", "offsets",
                 "truncated", "ring", "bound")

    def __init__(self, M: Collection, sig, max_vertices: int):
        if M.base != "chain":
            raise ValueError("free operad levels live over chain complexes")
        self.sig = (tuple(sig[0]), sig[1])
        M._check_colors(self.sig)
        self.max_vertices = max_vertices
        self.ring = M.ring
        self.bound = M.max_degree
        ops = M.ops
        classes, self.truncated = _classes_within(
            self.sig, 0, max_vertices, [], M.signatures())
        decor = lambda vsig, m: M.level(vsig)
        action = lambda vsig, m, tau: M.action(vsig, tau)
        self.blocks = [_Block(M.ring, M.max_degree, cl, decor, action,
                              self.sig[0]) for cl in classes]
        self.blocks = [b for b in self.blocks if not ops.is_zero(b.obj)]
        self.object, self.offsets = ops.direct_sum(
            [b.obj for b in self.blocks])

    def ranks(self):
        return self.object.ranks()


def free_operad(M: Collection, sig, max_vertices: int) -> FreeLevel:
    """The level of the free operad on M at the given signature.

    The direct sum runs over tree classes with at most max_vertices
    vertices, every vertex decorated by M; the edge-tree class carries
    the unit when the signature is a unary diagonal.
    """
    return FreeLevel(M, sig, max_vertices)


class FreeOperad:
    """All levels of the free operad within an arity and vertex window,
    with the unit, the symmetric actions, and the grafting compositions.

    Raises when a composition would graft past the vertex bound, so the
    emitted operad is never silently partial.
    """

    def __init__(self, M: Collection, max_arity: int, max_vertices: int):
        if M.base != "chain":
            raise ValueError("free operad levels live over chain complexes")
        self.M = M
        self.ring = M.ring
        self.bound = M.max_degree
        self.max_arity = max_arity
        self.max_vertices = max_vertices
        self.ops = _ops_for("chain", M.ring, M.max_degree)
        self.levels = {}
        from .operad import enumerate_signatures
        for sig in enumerate_signatures(M.colors, max_arity):
            fl = FreeLevel(M, sig, max_vertices)
            if not self.ops.is_zero(fl.object):
                self.levels[sig] = fl
        self._operad = None

    def level(self, sig) -> Optional[FreeLevel]:
        return self.levels.get((tuple(sig[0]), sig[1]))

    def truncated(self) -> bool:
        return any(fl.truncated for fl in self.levels.values())

    # -- operad assembly ----------------------------------------------------

    def operad(self) -> Operad:
        if self._operad is not None:
            return self._operad
        ring, ops = self.ring, self.ops
        levels = {sig: fl.object for sig, fl in self.levels.items()}
        actions = {sig: {s: self._action_map(sig, s)
                         for s in permutations.transpositions(sig_arity(sig))}
                   for sig in self.levels}
        coll = Collection(ring, "chain", self.M.colors, self.max_arity,
                          self.bound, levels, actions,
                          truncated=self.truncated())
        units = {}
        for c in self.M.colors:
            fl = self.levels[((c,), c)]
            bi = next(i for i, b in enumerate(fl.blocks)
                      if b.tree_class.rep.is_edge)
            units[c] = _placed_map(ops, ops.unit_obj(), fl.object, [
                (fl.blocks[bi].proj.components, None, fl.offsets[bi])])
        comps = {}
        for osig, flo in self.levels.items():
            for i in range(sig_arity(osig)):
                for isig, fli in self.levels.items():
                    if isig[1] != osig[0][i]:
                        continue
                    g = graft_signature(osig, i, isig)
                    if sig_arity(g) > self.max_arity:
                        continue
                    comps[(osig, i, isig)] = self._composition_map(
                        osig, i, isig)
        self._operad = Operad(coll, units, comps)
        return self._operad

    def _action_map(self, sig, sigma):
        """Relabel the leaf labelings; the classes of the source and
        target levels coincide because both only depend on the leaf
        multiset, so each block maps to the block at its own index, on
        the same canonical tree, and descends through `operad._descend`
        on its own."""
        fl = self.levels[sig]
        tl = self.levels[sig_act(sig, sigma)]
        if [b.tree_class.encoding for b in fl.blocks] != \
                [b.tree_class.encoding for b in tl.blocks]:
            raise ValueError(f"relabeling {sigma} at {sig_str(sig)} does "
                             f"not match the tree classes")
        ops = self.ops
        pieces = []
        for b, tb, soff, toff in zip(fl.blocks, tl.blocks, fl.offsets,
                                     tl.offsets):
            lab_map = _labeling_map(ops, b.labs, tb.labs,
                                    lambda lab: word_act(lab, sigma))
            relabel = _tensor_entries(
                ops.ring, ops.base,
                [None] * b.tree_class.rep.n_vertices + [lab_map], None,
                b.layout, tb.layout)
            comps = []
            for n, entries in enumerate(relabel):
                src, tgt = b.tensor.level(n), tb.tensor.level(n)
                if (tgt.rank != src.rank or len(entries) != src.rank
                        or len({r for r, _ in entries}) != src.rank):
                    raise ValueError(
                        f"relabeling {sigma} at {sig_str(sig)} is not a "
                        f"permutation of the degree-{n} basis")
                pushed = compose(tb.quotients[n].proj,
                                 LinearMap(src, tgt, entries))
                comps.append(_descend(pushed, b.quotients[n], "relabeling"))
            pieces.append((comps, soff, toff))
        return _placed_map(self.ops, fl.object, tl.object, pieces)

    def _composition_map(self, osig, i, isig):
        """Graft each pair of basis elements on their canonical trees,
        and carry the grafted planar tree to its class's quotient
        through `_reach_columns`, once per planar tree."""
        fl1, fl2 = self.levels[osig], self.levels[isig]
        gsig = graft_signature(osig, i, isig)
        flg = self.levels.get(gsig)
        ring, ops, bound = self.ring, self.ops, self.bound
        src = ops.tensor(fl1.object, fl2.object)
        if flg is None:
            raise ValueError(f"graft level {sig_str(gsig)} vanished")
        reached: dict = {}  # planar key -> `_reach_columns`
        basis1 = [_level_basis(fl1, m) for m in range(bound + 1)]
        basis2 = [_level_basis(fl2, m) for m in range(bound + 1)]
        comps = []
        for n in range(bound + 1):
            entries: dict = {}
            for s, r, off in _chain.tensor_blocks(fl1.object, fl2.object, n):
                rank2 = fl2.object.level(r).rank
                for c1, (b1, degs1, idxs1) in basis1[s]:
                    block1 = fl1.blocks[b1]
                    l1 = block1.labs[idxs1[-1]]
                    tree1 = block1.tree_class.rep
                    t = l1.index(i)
                    insert = _graft_insert_position(tree1, t)
                    for c2, (b2, degs2, idxs2) in basis2[r]:
                        block2 = fl2.blocks[b2]
                        l2 = block2.labs[idxs2[-1]]
                        p = graft(tree1, t, block2.tree_class.rep)
                        if p.n_vertices > self.max_vertices:
                            raise ValueError(
                                "composition grafts past the vertex bound; "
                                "rebuild with a larger max_vertices")
                        if p.key() not in reached:
                            reached[p.key()] = _reach_columns(flg, p)
                        if reached[p.key()] is None:
                            continue
                        labs, layout, columns = reached[p.key()]
                        lgi = labs.index(word_graft(l1, i, l2))
                        m1 = len(degs1) - 1
                        sign = 1
                        tail = [d for d in degs1[insert:m1] if d % 2]
                        d2odd = sum(1 for d in degs2[:-1] if d % 2)
                        if len(tail) % 2 and d2odd % 2:
                            sign = -sign
                        degsg = (degs1[:insert] + degs2[:-1]
                                 + degs1[insert:m1] + (0,))
                        idxsg = (idxs1[:insert] + idxs2[:-1]
                                 + idxs1[insert:m1] + (lgi,))
                        row_obj = columns[n].get(_flat(layout[n][degsg],
                                                       idxsg))
                        if row_obj is None:
                            continue
                        col = off + c1 * rank2 + c2
                        val = ring.one if sign == 1 else ring.normalize(-1)
                        for rr, vv in row_obj:
                            key = (rr, col)
                            entries[key] = ring.add(entries.get(key, ring.zero),
                                                    ring.mul(vv, val))
            comps.append(entries)
        return ops.maps(src, flg.object, comps)


def _graft_insert_position(t: Tree, pos: int) -> int:
    """Preorder slot where a subtree grafted at leaf pos starts: the
    leaf's ancestors plus every vertex in subtrees left of its path."""
    if t.is_edge:
        return 0
    used = 0
    acc = 1
    for ch in t.children:
        w = len(ch.leaves())
        if pos < used + w:
            return acc + _graft_insert_position(ch, pos - used)
        acc += ch.n_vertices
        used += w
    raise IndexError(f"no leaf at position {pos}")


def _level_basis(fl: FreeLevel, n: int):
    """Pairs (object index, (block, degs, idxs)) at degree n, through the
    quotient sections: object basis element c corresponds to the basis
    element of its block's canonical tree that its section column hits.

    Sections of the signed union-find route are unit columns, so the
    correspondence is exact there; a generic section would make this a
    representative choice, which the callers do not accept.  A block
    layout's boxes are contiguous row-major runs in ascending start
    order, so a flat position unranks by a bisect over the box starts,
    then by divmod over the box's strides.
    """
    out = []
    for bi, (b, off) in enumerate(zip(fl.blocks, fl.offsets)):
        sec = b.section.component(n)
        cols: dict = {}
        for (i, j), v in sec.entries.items():
            if j in cols or v != b.ring.one:
                raise ValueError(
                    "composition bookkeeping needs unit section columns")
            cols[j] = i
        run = list(b.layout[n].items())
        starts = [box[0] for _, box in run]
        for j in range(b.obj.level(n).rank):
            degs, (start, _, strides) = run[bisect_right(starts, cols[j]) - 1]
            rem, idxs = cols[j] - start, []
            for stride in strides:
                q, rem = divmod(rem, stride)
                idxs.append(q)
            out.append((off[n] + j, (bi, degs, tuple(idxs))))
    return out


def _reach_columns(fl: FreeLevel, p: Tree):
    """(labelings, layout, per-degree column index) of the planar tree p
    in the level fl: each basis element of p's tensor to the level-object
    rows that `_Block.reach` sends it to, as (row, entry) lists.  None
    when p's class left no block."""
    bi = _block_of(fl.blocks, p)
    if bi is None:
        return None
    labs, layout, reach = fl.blocks[bi].reach(p)
    columns = []
    for n, ents in enumerate(reach):
        cols: dict = {}
        for (i, j), v in ents.items():
            cols.setdefault(j, []).append((fl.offsets[bi][n] + i, v))
        columns.append(cols)
    return labs, layout, columns


# ---------------------------------------------------------------------------
# collection maps
# ---------------------------------------------------------------------------


class CollectionMap:
    """A levelwise map of collections commuting with the actions."""

    __slots__ = ("source", "target", "components")

    def __init__(self, source: Collection, target: Collection,
                 components: dict, check: bool = True):
        if (source.ring, source.base) != (target.ring, target.base):
            raise ValueError("a collection map needs one ring and base, "
                             f"got {source.ring.name()} {source.base} -> "
                             f"{target.ring.name()} {target.base}")
        if source.max_degree != target.max_degree:
            raise ValueError("a collection map needs one max_degree, got "
                             f"{source.max_degree} -> {target.max_degree}")
        self.source = source
        self.target = target
        self.components = {}
        for sig, f in components.items():
            sig = (tuple(sig[0]), sig[1])
            for end, coll in (("source", source), ("target", target)):
                got = getattr(f, end).ranks()
                if got != coll.level(sig).ranks():
                    raise ValueError(
                        f"component at {sig_str(sig)} has {end} ranks "
                        f"{got}, not {coll.level(sig).ranks()}")
            self.components[sig] = f
        if check:
            self._check()

    def _check(self):
        ops = self.source.ops
        for sig in self.source.signatures():
            f = self.component(sig)
            ops.check_map(f)
            n = sig_arity(sig)
            for t in range(n - 1):
                tau = permutations.transposition(n, t)
                lhs = self.target.action(sig, tau) @ f
                rhs = self.component(sig_act(sig, tau)) @ \
                    self.source.action(sig, tau)
                if lhs != rhs:
                    raise ValueError(
                        f"map is not equivariant at {sig_str(sig)}, swap {t}")

    def component(self, sig):
        sig = (tuple(sig[0]), sig[1])
        if sig in self.components:
            return self.components[sig]
        return self.source.ops.zero_map(self.source.level(sig),
                                        self.target.level(sig))

    def is_iso(self) -> bool:
        return all(self.component(sig).is_iso() for sig in
                   set(self.source.levels) | set(self.target.levels))


def generator_inclusion(F: FreeOperad) -> CollectionMap:
    """The collection map sending a generator to its one-vertex class:
    each basis element to the corolla, decorated by it and labeled by
    the identity, carried to its block by `_Block.reach` (with two
    colors the corolla need not be canonical)."""
    M = F.M
    ops = F.ops
    comps = {}
    for sig in M.signatures():
        fl = F.levels[sig]
        corolla = Tree.node(sig[1], [Tree.edge(c) for c in sig[0]])
        bi = _block_of(fl.blocks, corolla)
        block = fl.blocks[bi]
        labs, layout, reach = block.reach(corolla)
        li = labs.index(tuple(range(sig_arity(sig))))
        lev = M.level(sig)
        emb = [{(_flat(layout[n][(n, 0)], (j, li)), j): M.ring.one
                for j in range(lev.level(n).rank)}
               for n in range(F.bound + 1)]
        comps[sig] = _placed_map(ops, lev, fl.object, [(
            [LinearMap(lev.level(n), block.obj.level(n), e) for n, e in
             enumerate(_products(M.ring, reach, emb))],
            None, fl.offsets[bi])])
    return CollectionMap(M, F.operad().collection, comps)


def extend_to_operad(F: FreeOperad, target: Operad,
                     g: CollectionMap) -> "object":
    """The operad map Free(M) -> target induced by g: M -> target.

    Decorations must be concentrated in degree zero, so every basis
    element sits in degree zero.  Each block's canonical tree is
    evaluated the way an extension stage collapses a block onto its
    base level: `_contract` takes the decorations through g and composes
    along every edge, and `_act_by_labelings` acts by each labeling
    (through the target's unit on the edge tree).  The degree-zero
    condition stays because no check of graded signs covers the
    evaluation in higher degrees.  Each block's evaluation descends to
    its quotient through `operad._descend`, which raises ValueError
    when it is not invariant under the tree's automorphisms.  The
    result is checked as an operad map, and precomposition with the
    generator inclusion returns g.
    """
    from .operad import OpMorphism
    M = F.M
    for s in M.signatures():
        if sum(M.level(s).ranks()[1:]):
            raise ValueError("evaluation needs generators concentrated in "
                             f"degree zero, not so at {sig_str(s)}")
    ops = F.ops
    P = F.operad()
    level_maps = {}
    for sig, fl in F.levels.items():
        tgt = target.collection.level(sig)
        pieces = []
        for b, off in zip(fl.blocks, fl.offsets):
            vsigs = [vsig for vsig, _ in b.tree_class.rep.vertex_preorder()]
            tree, layout, cur = _contract(
                target, b.tree_class.rep, [g.component(v) for v in vsigs],
                [target.collection.level(v) for v in vsigs], b.labs,
                b.layout)
            ev = _products(ops.ring, _act_by_labelings(target, tree, b.labs,
                                                       layout), cur)
            pieces.append(([_descend(LinearMap(b.tensor.level(n),
                                               tgt.level(n), e),
                                     b.quotients[n], "evaluation")
                            for n, e in enumerate(ev)], off, None))
        level_maps[sig] = _placed_map(ops, fl.object, tgt, pieces)
    colors = {c: c for c in M.colors}
    return OpMorphism(P, target, colors, level_maps)


# ---------------------------------------------------------------------------
# free extension stages
# ---------------------------------------------------------------------------


class ExtensionStages:
    """Stagewise model of a free extension at one signature.

    stages[k] is the object after attaching the classes with up to k
    marked vertices; maps[k] includes stages[k] into stages[k+1].  The
    certificate records the vertex bound, the stage from which nothing
    new was attached, and whether trees beyond the bound exist.
    """

    __slots__ = ("sig", "stages", "maps", "certificate")

    def __init__(self, sig, stages, maps, certificate):
        self.sig = sig
        self.stages = stages
        self.maps = maps
        self.certificate = certificate

    @property
    def colimit(self) -> ChainComplex:
        return self.stages[-1]


def _split_data(f: ChainMap):
    """The per-degree cokernel presentations of a degreewise split
    injection f, or None when f does not split with a free cokernel.

    [f_n | section_n] is invertible, so the presentation's proj is the
    one map q with q f_n = 0 and q section_n = id: the projection along
    the splitting."""
    out = []
    for comp in f.components:
        pres = cokernel(comp)
        if pres.invariant_factors or \
                not hstack([comp, pres.section]).is_iso():
            return None
        out.append(pres)
    return out


def cokernel_collection(f: CollectionMap):
    """The cokernel of a degreewise split collection map, with the
    induced actions, plus the chain-level sections picking the
    complement inside the target.

    Each level is `operad._quotient_object` on the cokernel
    presentations of `_split_data`, the quotient-and-descend step that
    the tree-class blocks and the stabilized composite terms share; the
    differentials and action generators are pushed down with
    `operad._descend`, and one that does not descend raises ValueError.
    """
    ops = f.source.ops
    levels, actions, sections, quotients = {}, {}, {}, {}
    for sig in f.target.signatures():
        qs = _split_data(f.component(sig))
        if qs is None:
            raise ValueError(f"map does not split at {sig_str(sig)}")
        T = f.target.level(sig)
        levels[sig] = _quotient_object(T, qs)
        quotients[sig] = qs
        sections[sig] = ops.make_map(levels[sig], T, [q.section for q in qs])
    for sig, Q in levels.items():
        actions[sig] = {}
        for s in permutations.transpositions(sig_arity(sig)):
            tsig = sig_act(sig, s)
            act = f.target.action(sig, s)
            comps = [_descend(compose(quotients[tsig][m].proj,
                                      act.component(m)),
                              quotients[sig][m], "action")
                     for m in range(ops.max_degree + 1)]
            actions[sig][s] = ops.make_map(Q, levels[tsig], comps)
    Qc = Collection(f.source.ring, "chain", f.source.colors,
                    f.source.max_arity, ops.max_degree, levels, actions)
    return Qc, sections


def extension_stage(O: Operad, f: CollectionMap, sig, max_vertices: int,
                    generator_map: Optional[CollectionMap] = None
                    ) -> ExtensionStages:
    """Stage filtration of the free extension of O along f at one level.

    Stage k attaches the classes with k marked vertices: each class
    contributes the coinvariants, under the automorphisms of its
    canonical tree, of f's target at marked vertices and O elsewhere,
    glued along the choice blocks of its cell map on that tree alone.
    Any other planar tree of the class has the same latching image and
    attaching value as a choice block of the canonical tree, so the
    pushout is the same.  The attaching map rewrites a block through
    generator_map at the marked source factors and contracts unmarked
    pairs with O's compositions; the collapsed tree reaches its class's
    block in an earlier stage through `_Block.reach`.

    O must have unit-sized unary diagonal levels and f must split
    degreewise; f's source must sit in arities >= 2 unless it is zero.
    """
    ring = O.ring
    ops = O.ops
    bound = ops.max_degree
    sig = (tuple(sig[0]), sig[1])
    coll = O.collection
    if coll.max_arity < sig_arity(sig):
        raise ValueError("the operad's arity window is smaller than the "
                         "signature")
    for c in coll.colors:
        usig = ((c,), c)
        if coll.level(usig).ranks() != ops.unit_obj().ranks() or \
                not O.unit(c).component(0).is_iso():
            raise ValueError(f"unary level at {c!r} is larger than the unit")

    Qc, q_sections = cokernel_collection(f)
    trivial = all(ops.is_zero(Qc.level(s)) for s in f.target.signatures())
    stage = pad(coll.level(sig), bound)
    if trivial:
        # the map is an isomorphism, so every attachment glues along an
        # iso and the stages never move
        cert = {"vertex_bound": max_vertices, "stages": max_vertices,
                "attached_ranks": [0] * max_vertices, "stable_from": 0,
                "stabilized": True, "truncated": False}
        return ExtensionStages(sig, [stage] * (max_vertices + 1),
                               [ops.identity(stage)] * max_vertices, cert)
    if any(sig_arity(s) < 2 for s in f.source.signatures()):
        raise ValueError("attaching maps need source generators in "
                         "arities >= 2")
    if generator_map is None and f.source.signatures():
        raise ValueError("a nontrivial extension needs the generator map "
                         "into O")

    marked_vals = f.target.signatures()
    unmarked_vals = [s for s in coll.signatures() if sig_arity(s) != 1]
    base_leg = ops.identity(stage)
    stages = [stage]
    maps = []
    cells_by_stage: dict = {}
    cell_legs: dict = {}
    attached = []
    truncated = False

    # one marked vertex past the bound is enumerated only for the flag
    for k in range(1, max_vertices + 2):
        classes, beyond = _classes_within(sig, k, max_vertices, marked_vals,
                                          unmarked_vals,
                                          no_adjacent_unmarked=True)
        truncated = truncated or beyond
        if k > max_vertices:
            continue
        decor = lambda vsig, m: f.target.level(vsig) if m else coll.level(vsig)
        action = lambda vsig, m, tau: (f.target.action(vsig, tau) if m
                                       else coll.action(vsig, tau))
        blocks = [_Block(ring, bound, cl, decor, action, sig[0])
                  for cl in classes]
        blocks = [b for b in blocks if not ops.is_zero(b.obj)]
        if not blocks:
            stages.append(stage)
            maps.append(ops.identity(stage))
            attached.append(0)
            cells_by_stage[k] = []
            continue
        C, c_off = ops.direct_sum([b.obj for b in blocks])
        doms, inks, atts = [], [], []
        for bi, b in enumerate(blocks):
            p = b.tree_class.rep
            marked = [vi for vi, (_, m) in enumerate(p.vertex_preorder())
                      if m]
            for choice in itertools.product((0, 1), repeat=len(marked)):
                if all(choice):
                    continue
                kind = {vi: "Q" if c else "X"
                        for vi, c in zip(marked, choice)}
                D, ink, att = _choice_block(
                    O, f, Qc, q_sections, generator_map, b, kind,
                    cells_by_stage, cell_legs, base_leg, stage, sig)
                if ink is None:
                    continue
                doms.append(D)
                inks.append((ink.components, c_off[bi]))
                atts.append(att.components)
        Dtot, d_off = ops.direct_sum(doms)
        ink_tot = _placed_map(ops, Dtot, C, [
            (ink, off, row) for (ink, row), off in zip(inks, d_off)])
        att_tot = _placed_map(ops, Dtot, stage, [
            (att, off, None) for att, off in zip(atts, d_off)])
        po = _chain.pushout_complex(ink_tot, att_tot)
        new_stage = po.complex
        stage_map = po.inr
        cells_by_stage[k] = blocks
        # each earlier stage's class sum, with its block offsets, maps on
        # into the new stage
        for key, (leg, offs) in cell_legs.items():
            cell_legs[key] = (stage_map @ leg, offs)
        cell_legs[k] = (po.inl, c_off)
        base_leg = stage_map @ base_leg
        maps.append(stage_map)
        stages.append(new_stage)
        stage = new_stage
        attached.append(sum(b.obj.total_rank() for b in blocks))

    stable_from = len(attached)
    while stable_from > 0 and attached[stable_from - 1] == 0:
        stable_from -= 1
    cert = {
        "vertex_bound": max_vertices,
        "stages": len(stages) - 1,
        "attached_ranks": attached,
        "stable_from": stable_from,
        "stabilized": not truncated,
        "truncated": truncated,
    }
    if truncated:
        cert["warning"] = ("classes beyond the vertex bound exist; the "
                           "colimit is truncated, not final")
    return ExtensionStages(sig, stages, maps, cert)


def _choice_block(O, f, Qc, q_sections, g, block, kind, cells_by_stage,
                  cell_legs, base_leg, stage, sig):
    """One mixed block of a cell domain on block's canonical tree, with
    its two legs.

    kind[vi] is "Q" to keep the cokernel factor at the marked preorder
    vertex vi, "X" to keep the source factor; at least one source factor
    is present.  The first leg includes the block into the class
    coinvariants, the second rewrites it into earlier stages.
    """
    ring = O.ring
    ops = O.ops
    bound = ops.max_degree
    coll = O.collection
    p = block.tree_class.rep
    facs, mats = [], []
    for vi, (vsig, m) in enumerate(p.vertex_preorder()):
        if not m:
            facs.append(coll.level(vsig))
            mats.append(None)
        elif kind[vi] == "Q":
            facs.append(Qc.level(vsig))
            mats.append(q_sections[vsig])
        else:
            facs.append(f.source.level(vsig))
            mats.append(f.component(vsig))
    L = ops.free(len(block.labs))
    D = _tensor_many(ops, facs + [L])
    if D.total_rank() == 0:
        return D, None, None
    layout = _layout(ops.base, facs + [L], bound)
    ents = _tensor_entries(ring, ops.base, mats + [None], None, layout,
                           block.layout)
    ink = block.proj @ ops.maps(D, block.tensor, ents)

    att = _collapse(O, f, Qc, q_sections, g, p, kind, facs, D, layout,
                    block.labs, cells_by_stage, cell_legs, base_leg,
                    stage, sig)
    return D, ink, att


def _collapse(O, f, Qc, q_sections, g, p, kind, facs, D, layout, labs,
              cells_by_stage, cell_legs, base_leg, stage, sig):
    """Rewrite a mixed block, D with its layout, into the earlier stage
    it factors through."""
    ring = O.ring
    ops = O.ops
    bound = ops.max_degree

    # the X factors go through the generator map and join O's vertices
    objs = list(facs)
    mats = [None] * len(objs)
    flags = []
    for vi, (vsig, m) in enumerate(p.vertex_preorder()):
        if m and kind[vi] == "X":
            mats[vi] = g.component(vsig)
            flags.append(False)
            objs[vi] = g.target.level(vsig)
        else:
            flags.append(m)
    tree, layout, cur = _contract(O, _reflag(p, flags), mats, objs, labs,
                                  layout)

    kprime = tree.n_marked
    if kprime == 0:
        # a single unmarked vertex; its factor lands in the base level
        # through the action of each labeling
        cur = _products(ring, _act_by_labelings(O, tree, labs, layout), cur)
        return base_leg @ ops.maps(D, O.collection.level(sig), cur)
    # locate the class of the collapsed tree among the earlier stages;
    # a class absent there had zero coinvariants, so the image is zero
    target_blocks = cells_by_stage.get(kprime)
    if target_blocks is None:
        raise RuntimeError("collapse reached a stage that was never built")
    tbi = _block_of(target_blocks, tree)
    if tbi is None:
        return ops.zero_map(D, stage)
    tb = target_blocks[tbi]
    tlabs, tlayout, reach = tb.reach(tree)
    # inject the surviving Q factors back into the target's Y factors,
    # then carry the collapsed tree to its class's canonical tree
    mats = [q_sections[vsig] if m else None
            for vsig, m in tree.vertex_preorder()]
    lab_map = _labeling_map(ops, labs, tlabs, lambda lab: lab)
    final = _tensor_entries(ring, ops.base, mats + [lab_map], None, layout,
                            tlayout)
    cur = _products(ring, reach, _products(ring, final, cur))
    leg, offs = cell_legs[kprime]
    return leg @ _placed_map(ops, D, leg.source, [(
        [LinearMap(D.level(n), tb.obj.level(n), cur[n])
         for n in range(bound + 1)], None, offs[tbi])])


def _reflag(tree: Tree, marks) -> Tree:
    """Rebuild with marks[vi] as the flag of preorder vertex vi."""
    flags = iter(marks)

    def rec(t):
        if t.is_edge:
            return t
        m = next(flags)
        return Tree.node(t.output, [rec(ch) for ch in t.children], m)

    return rec(tree)


def _first_contraction(tree: Tree):
    """Preorder-first internal edge joining two unmarked vertices."""
    for path in tree.vertex_paths():
        v = tree.subtree_at(path)
        if v.marked:
            continue
        for slot, ch in enumerate(v.children):
            if not ch.is_edge and not ch.marked:
                return path, slot
    return None


def _contract(O: Operad, tree: Tree, maps, objs, labs, src_layout):
    """Push a tensor, laid out by src_layout as a factor per vertex of
    tree in preorder and then the labelings labs, through maps (None
    for an identity) onto objs, and compose along every edge of tree
    joining two unmarked vertices through O's partial compositions.

    The preorder-first edge goes first (`_first_contraction`): a
    reordering brings the child's factor next to its parent's, and
    `_pair_entries` composes the two.  The reordering is a signed
    permutation, so `_moved_rows` moves each entry to its new row with
    its sign, with nothing summed.  Returns the contracted tree, the
    layout of its factors and labs, and the per-degree entries into it.
    """
    ring, ops = O.ring, O.ops
    base, bound = ops.base, ops.max_degree
    L = ops.free(len(labs))
    layout = _layout(base, objs + [L], bound)
    cur = _tensor_entries(ring, base, maps + [None], None, src_layout, layout)
    while (edge := _first_contraction(tree)) is not None:
        parent_path, slot = edge
        paths = tree.vertex_paths()
        parent_vi = paths.index(parent_path)
        child_vi = paths.index(parent_path + (slot,))
        parent = tree.subtree_at(parent_path)
        child = parent.children[slot]
        rest = [j for j in range(len(objs) + 1) if j != child_vi]
        sigma = tuple(rest[:parent_vi + 1] + [child_vi] + rest[parent_vi + 1:])
        objs = [objs[j] for j in sigma[:-1]]
        cur = [_moved_rows(move, ents, ring.p) for move, ents in zip(
            _tensor_entries(ring, base, [None] * len(sigma), sigma, layout,
                            _layout(base, objs + [L], bound)), cur)]
        pair = O.composition(parent.val, slot, child.val)
        cur = _products(ring, _pair_entries(ops, objs + [L], parent_vi, pair),
                        cur)
        objs = objs[:parent_vi] + [pair.target] + objs[parent_vi + 2:]
        layout = _layout(base, objs + [L], bound)
        tree = tree.replace_at(parent_path, Tree.node(
            parent.output, parent.children[:slot] + child.children
            + parent.children[slot + 1:], parent.marked))
    return tree, layout, cur


def _moved_rows(move: dict, entries: dict, p) -> dict:
    """The entries of move after entries, for move a signed permutation:
    each entry goes to its row's image, times that row's sign, in
    entries' own order.  The product would group them by column, but
    `_contract` multiplies them by `_pair_entries` next, and that product
    groups them the same way."""
    to = {c: (r, u) for (r, c), u in move.items()}
    return {(to[i][0], j): to[i][1] * v if p is None else to[i][1] * v % p
            for (i, j), v in entries.items()}


def _act_by_labelings(O: Operad, tree: Tree, labs, layout):
    """Per-degree entries from the tensor laid out by layout, the one
    vertex of tree and the labelings labs, into O: labeling lab acts on
    the vertex by the inverse of lab.  On the edge tree, with no vertex
    and one labeling, O's unit is the map."""
    if tree.is_edge:
        return [dict(c.entries) for c in O.unit(tree.output).components]
    if tree.n_vertices != 1:
        raise RuntimeError("an unmarked collapse left more than one vertex")
    acts = [O.collection.action(tree.val, permutations.inverse(lab))
            for lab in labs]
    entries = []
    for n, boxes in enumerate(layout):
        acc: dict = {}
        for li, act in enumerate(acts):
            for (i, j), v in act.component(n).entries.items():
                acc[(i, _flat(boxes[(n, 0)], (j, li)))] = v
        entries.append(acc)
    return entries


def _products(ring: Ring, outer, inner):
    """Per-degree entries of outer after inner, through the general
    sparse product of `exactlin.compose`."""
    return [_sparse_product(ring, o, i) for o, i in zip(outer, inner)]
