"""Planar colored trees and the free operads they index.

Rooted planar trees with colored edges and a marked/unmarked flag per
vertex drive three computations:

* enumeration of isomorphism classes within a vertex bound, together
  with canonical forms, grafting, and automorphism orders;
* levels of the free operad on a collection: each class contributes the
  decorations of its planar representatives tensored with the leaf
  labelings, divided by the reordering moves between representatives.
  This is the same coinvariant machinery the composite product uses.
  A move matrix sends each basis element to plus or minus one basis
  element, the sign being the Koszul sign of the reordering; it is the
  identity off the moved representative, so a row can be hit twice and
  the matrix need not be a permutation.  `operad._quotient_by` feeds
  the moves to the signed union-find `exactlin.signed_quotient`
  whenever the collection's actions also send basis elements to
  +-basis elements, and takes an exact cokernel otherwise;
* the cell maps of a free extension of operads: the map attached to a
  tree is an iterated pushout product of the collection map at marked
  vertices and the operad unit elsewhere, and the stages are assembled
  with degreewise pushouts of complexes.  When the cell maps send
  basis elements to +-basis elements, the pushout relations form a
  signed graph, and `exactlin.cokernel` takes the same union-find.

Everything is exact.  Quotients that would acquire torsion raise
instead of truncating invariant factors, and every stage object records
whether the vertex bound cut the computation short.
"""

from __future__ import annotations

import itertools
import math
import re
from typing import Callable, Optional

from .rings import Ring
from .exactlin import LinearMap, cokernel, hstack, solve
from . import chain as _chain
from .chain import ChainComplex, ChainMap, concentrated, pad
from . import permutations
from .operad import (Collection, Operad, graft_signature, sig_act, sig_arity,
                     sig_str, word_act, word_graft, _ops_for,
                     _multi_positions, _quotient_by)


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
        assert isinstance(output, str) and _COLOR.match(output), \
            f"colors are plain identifiers, got {output!r}"
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
        assert not self.is_edge
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


def is_isomorphic(S: Tree, T: Tree) -> bool:
    return S.encoding() == T.encoding()


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


def planar_orbit(T: Tree):
    """All planar trees isomorphic to T, canonical representative first.

    Breadth-first over single adjacent sibling swaps; the order is
    deterministic, which the quotient bookkeeping relies on.
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


class TreeIsoClass:
    """Canonical representative plus its orbit and automorphism data."""

    __slots__ = ("rep", "aut_order", "orbit_size")

    def __init__(self, rep: Tree):
        self.rep = canonical(rep)
        self.aut_order = aut_order(self.rep)
        self.orbit_size = len(planar_orbit(self.rep))

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
    """
    if marked_valencies is None:
        marked_valencies = _default_valencies(sig, max_vertices)
    if unmarked_valencies is None:
        unmarked_valencies = _default_valencies(sig, max_vertices)
    by_out_m: dict = {}
    by_out_u: dict = {}
    for (ins, c) in marked_valencies:
        by_out_m.setdefault(c, []).append(tuple(ins))
    for (ins, c) in unmarked_valencies:
        by_out_u.setdefault(c, []).append(tuple(ins))

    memo: dict = {}

    def gen(ms, root, k, v, under_unmarked):
        key = (ms, root, k, v, under_unmarked and no_adjacent_unmarked)
        if key in memo:
            return memo[key]
        out = []
        if v == 0 and k == 0 and ms == (root,):
            out.append(Tree.edge(root))
        if v >= 1:
            for flag, table in ((True, by_out_m), (False, by_out_u)):
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
    return out


def _child_seqs(ins, ms, k, v, under_unmarked, gen):
    """Ordered child tuples with the exact leaf multiset, marked count,
    and vertex budget."""
    if not ins:
        if not ms and k == 0 and v == 0:
            yield ()
        return
    first, rest = ins[0], ins[1:]
    for sub in _sub_multisets(ms):
        remainder = _multiset_minus(ms, sub)
        for k1 in range(k + 1):
            for v1 in range(v + 1):
                heads = gen(sub, first, k1, v1, under_unmarked)
                if not heads:
                    continue
                for tail in _child_seqs(rest, remainder, k - k1, v - v1,
                                        under_unmarked, gen):
                    for h in heads:
                        yield (h,) + tail


def _sub_multisets(ms):
    vals = sorted(set(ms))
    counts = [ms.count(c) for c in vals]
    out = []
    for picks in itertools.product(*(range(n + 1) for n in counts)):
        sub = ()
        for c, n in zip(vals, picks):
            sub += (c,) * n
        out.append(sub)
    return out


def _multiset_minus(ms, sub):
    left = list(ms)
    for c in sub:
        left.remove(c)
    return tuple(sorted(left))


def enumerate_trees(sig, marked: int, max_vertices: int,
                    marked_valencies=None, unmarked_valencies=None,
                    no_adjacent_unmarked: bool = False):
    """Isomorphism classes, ordered by vertex count then encoding.

    Extending the vertex bound appends classes without reordering the
    ones already emitted.
    """
    seen = {}
    for p in enumerate_planar(sig, marked, max_vertices, marked_valencies,
                              unmarked_valencies, no_adjacent_unmarked):
        enc = p.encoding()
        if enc not in seen:
            seen[enc] = TreeIsoClass(p)
    return sorted(seen.values(),
                  key=lambda cl: (cl.rep.n_vertices, cl.encoding))


# ---------------------------------------------------------------------------
# grafting and decomposition
# ---------------------------------------------------------------------------


def root_decomposition(T: Tree):
    """The root corolla and the subtrees grafted onto its inputs."""
    assert not T.is_edge, "the edge tree has no root vertex"
    corolla = Tree.node(T.output,
                        tuple(Tree.edge(ch.output) for ch in T.children),
                        T.marked)
    return corolla, T.children


def graft_root(corolla: Tree, subtrees) -> Tree:
    assert not corolla.is_edge
    assert len(subtrees) == len(corolla.children)
    for slot, sub in zip(corolla.children, subtrees):
        assert slot.is_edge and slot.output == sub.root_color, \
            "grafted root color does not match the slot"
    return Tree.node(corolla.output, subtrees, corolla.marked)


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
        assert parent.children[path[-1]] is sub
        out.append((stub, leaf_index, sub))
    return out


def _leaf_offset(T: Tree, path) -> int:
    """Leaves strictly to the left of the subtree at path."""
    if not path:
        return 0
    j = path[0]
    off = sum(len(ch.leaves()) for ch in T.children[:j])
    return off + _leaf_offset(T.children[j], path[1:])


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
    if "leaf" in data:
        return Tree.edge(data["leaf"])
    try:
        val = data["val"]
        ins, out = list(val["in"]), val["out"]
        marked = bool(data["marked"])
        children = [tree_from_json(ch) for ch in data["children"]]
    except (KeyError, TypeError) as exc:
        raise ValueError(f"malformed tree object: {exc}") from None
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


def _positions(objs, n: int):
    """Flat basis of the left-associated chain tensor at degree n, with
    a rank-one degree-zero placeholder when the factor list is empty."""
    if not objs:
        return [((), ())] if n == 0 else []
    return _multi_positions("chain", objs, n)


def _position_index(objs, n: int) -> dict:
    return {pos: i for i, pos in enumerate(_positions(objs, n))}


def _col_cache(f: ChainMap):
    """Columns of every component, keyed (degree, column)."""
    cols: dict = {}
    for d, comp in enumerate(f.components):
        for (i, j), v in comp.entries.items():
            cols.setdefault((d, j), []).append((i, v))
    return cols


def _reorder_entries(ring: Ring, src_objs, tgt_objs, pi, mats, n: int) -> dict:
    """Degree-n matrix entries of the map sending factor j of the source
    through mats[j] (identity when None) into slot pi[j] of the target,
    with the sign of the graded reordering."""
    tgt_index = _position_index(tgt_objs, n)
    caches = [None if m is None else _col_cache(m) for m in mats]
    entries: dict = {}
    for col, (degs, idxs) in enumerate(_positions(src_objs, n)):
        sign = 1
        for a in range(len(pi)):
            for b in range(a + 1, len(pi)):
                if pi[a] > pi[b] and degs[a] % 2 and degs[b] % 2:
                    sign = -sign
        base = ring.one if sign == 1 else ring.normalize(-1)
        choices = []
        for j, (d, i) in enumerate(zip(degs, idxs)):
            if caches[j] is None:
                choices.append([(i, ring.one)])
            else:
                choices.append(caches[j].get((d, i), []))
        for combo in itertools.product(*choices):
            tdegs = [0] * len(pi)
            tidxs = [0] * len(pi)
            for j in range(len(pi)):
                tdegs[pi[j]] = degs[j]
                tidxs[pi[j]] = combo[j][0]
            row = tgt_index.get((tuple(tdegs), tuple(tidxs)))
            if row is None:
                continue
            coeff = base
            for _, v in combo:
                coeff = ring.mul(coeff, v)
            if coeff != ring.zero:
                key = (row, col)
                entries[key] = ring.add(entries.get(key, ring.zero), coeff)
    return {k: v for k, v in entries.items() if v != ring.zero}


def _pair_entries(ring: Ring, src_objs, a: int, pairmap: ChainMap, n: int) -> dict:
    """Contract factors a, a+1 through a map out of their tensor."""
    A, B = src_objs[a], src_objs[a + 1]
    tgt_objs = list(src_objs[:a]) + [pairmap.target] + list(src_objs[a + 2:])
    tgt_index = _position_index(tgt_objs, n)
    pair_index: dict = {}
    for m in range(n + 1):
        pair_index[m] = _position_index([A, B], m)
    cols = _col_cache(pairmap)
    entries: dict = {}
    for col, (degs, idxs) in enumerate(_positions(src_objs, n)):
        da, db = degs[a], degs[a + 1]
        q = pair_index[da + db].get(((da, db), (idxs[a], idxs[a + 1])))
        if q is None:
            continue
        for row_in_pair, v in cols.get((da + db, q), []):
            tdegs = degs[:a] + (da + db,) + degs[a + 2:]
            tidxs = idxs[:a] + (row_in_pair,) + idxs[a + 2:]
            row = tgt_index.get((tdegs, tidxs))
            if row is None:
                continue
            key = (row, col)
            entries[key] = ring.add(entries.get(key, ring.zero), v)
    return {k: v for k, v in entries.items() if v != ring.zero}


def _labeling_complex(ring: Ring, count: int, bound: int) -> ChainComplex:
    return pad(concentrated(ring, 0, count, prefix="l"), bound)


# ---------------------------------------------------------------------------
# class blocks: decorations tensor labelings, divided by reordering moves
# ---------------------------------------------------------------------------


class _Block:
    """The contribution of one tree class to a level.

    big is the direct sum over the planar orbit of (decorations tensor
    labelings); obj is its quotient by the sibling-swap moves, which act
    on decorations through the collection actions and permute labelings
    through the induced leaf permutation.  proj and section are chain
    maps between the two.
    """

    __slots__ = ("tree_class", "planar", "factors", "labs", "big", "obj",
                 "proj", "section", "offsets", "_pos", "ring", "bound")

    def __init__(self, ring: Ring, bound: int, tree_class: TreeIsoClass,
                 decor: Callable, action: Callable, sig_inputs):
        self.ring = ring
        self.bound = bound
        self.tree_class = tree_class
        ops = _ops_for("chain", ring, bound)
        self.planar = planar_orbit(tree_class.rep)
        where = {p.key(): pi for pi, p in enumerate(self.planar)}
        self.factors = []
        self.labs = []
        blocks = []
        for p in self.planar:
            facs = [decor(vsig, m) for vsig, m in p.vertex_preorder()]
            labs = leaf_labelings(p.leaves(), sig_inputs)
            self.factors.append(facs)
            self.labs.append(labs)
            blocks.append(_tensor_with_labels(ops, facs,
                                              len(labs)))
        big = blocks[0]
        for B in blocks[1:]:
            big = ops.direct_sum(big, B)
        self.big = big
        self.offsets = []
        for n in range(bound + 1):
            offs, total = [], 0
            for B in blocks:
                offs.append(total)
                total += B.level(n).rank
            self.offsets.append(offs)
        self._pos = {}

        mats_per_degree = [[] for _ in range(bound + 1)]
        for pi, p in enumerate(self.planar):
            paths = p.vertex_paths()
            for vi, path in enumerate(paths):
                v = p.subtree_at(path)
                for t in range(len(v.children) - 1):
                    q = _swap_children(p, path, t)
                    qi = where[q.key()]
                    move = self._move_entries(ops, action, pi, qi, p, q,
                                              path, vi, t)
                    for n in range(bound + 1):
                        full = dict(move[n])
                        lev = big.level(n)
                        for pj in range(len(self.planar)):
                            if pj == pi:
                                continue
                            off = self.offsets[n][pj]
                            for r in range(blocks[pj].level(n).rank):
                                full[(off + r, off + r)] = ring.one
                        mats_per_degree[n].append(
                            LinearMap(lev, lev, full))
        quos = [_quotient_by(ring, big.level(n), mats_per_degree[n])
                for n in range(bound + 1)]
        levels = [q.generators for q in quos]
        diffs = []
        for n in range(1, bound + 1):
            d = quos[n - 1].proj @ big.d(n) @ quos[n].section
            if (quos[n - 1].proj @ big.d(n)) != (d @ quos[n].proj):
                raise ValueError(
                    "differential does not descend to the class quotient")
            diffs.append(d)
        self.obj = ChainComplex(ring, levels, diffs)
        self.proj = ChainMap(big, self.obj, [q.proj for q in quos],
                             check=False)
        self.section = ChainMap(self.obj, big, [q.section for q in quos],
                                check=False)

    def _move_entries(self, ops, action, pi, qi, p, q, path, vi, t):
        ring = self.ring
        v = p.subtree_at(path)
        tau = permutations.transposition(len(v.children), t)
        act = action(v.val, v.marked, tau)
        sizes = [st.n_vertices for st in v.children]
        first = vi + 1 + sum(sizes[:t])
        pi_map = list(range(len(self.factors[pi])))
        for j in range(sizes[t + 1]):
            pi_map[first + sizes[t] + j] = first + j
        for j in range(sizes[t]):
            pi_map[first + j] = first + sizes[t + 1] + j
        # leaf permutation: the two sibling blocks swap wholesale
        lf = _leaf_offset(p, path)
        before = sum(len(ch.leaves()) for ch in v.children[:t])
        wa = len(v.children[t].leaves())
        wb = len(v.children[t + 1].leaves())
        start = lf + before
        nleaves = len(p.leaves())
        rho = list(range(nleaves))
        for j in range(wa):
            rho[start + j] = start + wb + j
        for j in range(wb):
            rho[start + wa + j] = start + j
        lab_tgt = {lab: i for i, lab in enumerate(self.labs[qi])}
        lab_entries = {}
        for i, lab in enumerate(self.labs[pi]):
            new = [0] * nleaves
            for pos in range(nleaves):
                new[rho[pos]] = lab[pos]
            lab_entries[(lab_tgt[tuple(new)], i)] = ring.one
        Lp = _labeling_complex(ring, len(self.labs[pi]), self.bound)
        Lq = _labeling_complex(ring, len(self.labs[qi]), self.bound)
        lab_map = ops.make_map(Lp, Lq, [
            LinearMap(Lp.level(n), Lq.level(n),
                      lab_entries if n == 0 else {})
            for n in range(self.bound + 1)])
        src_objs = self.factors[pi] + [Lp]
        tgt_objs = self.factors[qi] + [Lq]
        mats = [None] * len(src_objs)
        mats[vi] = act
        mats[-1] = lab_map
        full_pi = pi_map + [len(src_objs) - 1]
        out = []
        for n in range(self.bound + 1):
            ent = _reorder_entries(ring, src_objs, tgt_objs, full_pi, mats, n)
            shifted = {(self.offsets[n][qi] + r, self.offsets[n][pi] + c): val
                       for (r, c), val in ent.items()}
            out.append(shifted)
        return out

    def _objs(self, planar_idx: int):
        return self.factors[planar_idx] + [
            _labeling_complex(self.ring, len(self.labs[planar_idx]),
                              self.bound)]

    def positions(self, n: int, planar_idx: int):
        key = (n, planar_idx)
        if key not in self._pos:
            pos = _positions(self._objs(planar_idx), n)
            self._pos[key] = (pos, {p: i for i, p in enumerate(pos)})
        return self._pos[key][0]

    def flat_index(self, n: int, planar_idx: int, degs, idxs) -> int:
        self.positions(n, planar_idx)
        local = self._pos[(n, planar_idx)][1][(tuple(degs), tuple(idxs))]
        return self.offsets[n][planar_idx] + local


def _tensor_with_labels(ops, facs, n_labs: int) -> ChainComplex:
    L = _labeling_complex(ops.ring, n_labs, ops.max_degree)
    if not facs:
        return L
    out = facs[0]
    for F in facs[1:]:
        out = ops.tensor(out, F)
    return ops.tensor(out, L)


# ---------------------------------------------------------------------------
# free operad levels
# ---------------------------------------------------------------------------


class FreeLevel:
    """One signature level of the free operad on a collection."""

    __slots__ = ("sig", "max_vertices", "blocks", "object", "legs",
                 "truncated", "ring", "bound", "lookup")

    def __init__(self, M: Collection, sig, max_vertices: int):
        assert M.base == "chain", "free operad levels live over chain complexes"
        self.sig = (tuple(sig[0]), sig[1])
        self.max_vertices = max_vertices
        self.ring = M.ring
        self.bound = M.max_degree
        ops = M.ops
        classes = enumerate_trees(self.sig, 0, max_vertices,
                                  marked_valencies=[],
                                  unmarked_valencies=M.signatures())
        decor = lambda vsig, m: M.level(vsig)
        action = lambda vsig, m, tau: M.action(vsig, tau)
        self.blocks = [_Block(M.ring, M.max_degree, cl, decor, action,
                              self.sig[0]) for cl in classes]
        self.blocks = [b for b in self.blocks if not ops.is_zero(b.obj)]
        if self.blocks:
            obj = self.blocks[0].obj
            for b in self.blocks[1:]:
                obj = ops.direct_sum(obj, b.obj)
        else:
            obj = ops.zero_obj()
        self.object = obj
        self.legs = []
        off = [0] * (self.bound + 1)
        for b in self.blocks:
            comps = []
            for n in range(self.bound + 1):
                comps.append(LinearMap(
                    b.obj.level(n), obj.level(n),
                    {(off[n] + i, i): M.ring.one
                     for i in range(b.obj.level(n).rank)}))
            self.legs.append(ops.make_map(b.obj, obj, comps))
            for n in range(self.bound + 1):
                off[n] += b.obj.level(n).rank
        self.lookup = {}
        for bi, b in enumerate(self.blocks):
            for pi, p in enumerate(b.planar):
                self.lookup[p.key()] = (bi, pi)
        frontier = enumerate_trees(self.sig, 0, max_vertices + 1,
                                   marked_valencies=[],
                                   unmarked_valencies=M.signatures())
        self.truncated = any(cl.rep.n_vertices == max_vertices + 1
                             for cl in frontier)

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
        assert M.base == "chain"
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
        actions: dict = {}
        for sig, fl in self.levels.items():
            n = sig_arity(sig)
            if n < 2:
                continue
            table = {}
            for s in permutations.all_permutations(n):
                table[s] = self._action_map(sig, s)
            actions[sig] = table
        coll = Collection(ring, "chain", self.M.colors, self.max_arity,
                          self.bound, levels, actions,
                          truncated=self.truncated())
        units = {}
        for c in self.M.colors:
            fl = self.levels[((c,), c)]
            bi = next(i for i, b in enumerate(fl.blocks)
                      if b.tree_class.rep.is_edge)
            u = fl.legs[bi] @ fl.blocks[bi].proj
            units[c] = ops.make_map(
                ops.unit_obj(), fl.object,
                [LinearMap(ops.unit_obj().level(n), fl.object.level(n),
                           dict(u.component(n).entries))
                 for n in range(self.bound + 1)])
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
        """Relabel the leaf labelings; classes and planar orbits of the
        source and target levels coincide because both only depend on
        the leaf multiset."""
        fl = self.levels[sig]
        tl = self.levels[sig_act(sig, sigma)]
        assert len(fl.blocks) == len(tl.blocks)
        ring = self.ring
        src, tgt = _big_sum(self.ops, fl), _big_sum(self.ops, tl)
        comps = []
        for n in range(self.bound + 1):
            # each block sits after the earlier blocks in its big sum
            entries, soff, toff = {}, 0, 0
            for b, tb in zip(fl.blocks, tl.blocks):
                assert b.tree_class.encoding == tb.tree_class.encoding
                for pi in range(len(b.planar)):
                    lab_tgt = {lab: i for i, lab in enumerate(tb.labs[pi])}
                    relab = [lab_tgt[word_act(lab, sigma)]
                             for lab in b.labs[pi]]
                    for pos, (degs, idxs) in enumerate(b.positions(n, pi)):
                        col = soff + b.offsets[n][pi] + pos
                        tidx = idxs[:-1] + (relab[idxs[-1]],)
                        row = toff + tb.flat_index(n, pi, degs, tidx)
                        entries[(row, col)] = ring.one
                soff += b.big.level(n).rank
                toff += tb.big.level(n).rank
            rank = src.level(n).rank
            if (tgt.level(n).rank != rank or len(entries) != rank
                    or len({r for r, _ in entries}) != rank):
                raise ValueError(
                    f"relabeling {sigma} at {sig_str(sig)} is not a "
                    f"permutation of the degree-{n} basis")
            comps.append(LinearMap(src.level(n), tgt.level(n), entries))
        return _descend(self.ops, self.ops.make_map(src, tgt, comps), fl, tl)

    def _composition_map(self, osig, i, isig):
        fl1, fl2 = self.levels[osig], self.levels[isig]
        gsig = graft_signature(osig, i, isig)
        flg = self.levels.get(gsig)
        ring, ops, bound = self.ring, self.ops, self.bound
        src = ops.tensor(fl1.object, fl2.object)
        if flg is None:
            raise ValueError(f"graft level {sig_str(gsig)} vanished")
        n2 = sig_arity(isig)
        comps = []
        for n in range(bound + 1):
            entries: dict = {}
            for s, r, off in _chain.tensor_blocks(fl1.object, fl2.object, n):
                rank2 = fl2.object.level(r).rank
                for c1, (b1, p1, degs1, idxs1) in _level_basis(fl1, s):
                    block1 = fl1.blocks[b1]
                    l1 = block1.labs[p1][idxs1[-1]]
                    tree1 = block1.planar[p1]
                    for c2, (b2, p2, degs2, idxs2) in _level_basis(fl2, r):
                        block2 = fl2.blocks[b2]
                        l2 = block2.labs[p2][idxs2[-1]]
                        tree2 = block2.planar[p2]
                        t = l1.index(i)
                        p = graft(tree1, t, tree2)
                        if p.n_vertices > self.max_vertices:
                            raise ValueError(
                                "composition grafts past the vertex bound; "
                                "rebuild with a larger max_vertices")
                        bg, pg = flg.lookup[p.key()]
                        blockg = flg.blocks[bg]
                        lg = word_graft(l1, i, l2)
                        lgi = blockg.labs[pg].index(lg)
                        insert = _graft_insert_position(tree1, t)
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
                        rowflat = blockg.flat_index(n, pg, degsg, idxsg)
                        row_obj = _obj_row(flg, bg, n, rowflat, blockg)
                        if row_obj is None:
                            continue
                        col = off + c1 * rank2 + c2
                        val = ring.one if sign == 1 else ring.normalize(-1)
                        for rr, vv in row_obj:
                            key = (rr, col)
                            entries[key] = ring.add(entries.get(key, ring.zero),
                                                    ring.mul(vv, val))
            comps.append(LinearMap(src.level(n), flg.object.level(n),
                                   {k: v for k, v in entries.items()
                                    if v != ring.zero}))
        return ops.make_map(src, flg.object, comps)


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
    """Pairs (object index, (block, planar, degs, idxs)) at degree n,
    through the quotient sections: object basis element c corresponds to
    the big-module basis element its section column hits.

    Sections out of the orbit fast path are unit columns, so the
    correspondence is exact there; a generic section would make this a
    representative choice, which the callers do not accept.
    """
    out = []
    off = 0
    for bi, b in enumerate(fl.blocks):
        sec = b.section.component(n)
        cols: dict = {}
        for (i, j), v in sec.entries.items():
            assert j not in cols and v == b.ring.one, \
                "composition bookkeeping needs unit section columns"
            cols[j] = i
        for j in range(b.obj.level(n).rank):
            flat = cols[j]
            pi = 0
            offs = b.offsets[n]
            for k in range(len(b.planar)):
                if flat >= offs[k]:
                    pi = k
            local = flat - offs[pi]
            degs, idxs = b.positions(n, pi)[local]
            out.append((off + j, (bi, pi, degs, idxs)))
        off += b.obj.level(n).rank
    return out


def _obj_row(fl: FreeLevel, bi: int, n: int, flat_in_block: int, block: _Block):
    """Rows of the level object hit by a big-module basis element."""
    proj = block.proj.component(n)
    off = sum(b.obj.level(n).rank for b in fl.blocks[:bi])
    out = []
    for (i, j), v in proj.entries.items():
        if j == flat_in_block:
            out.append((off + i, v))
    return out or None


def _big_sum(ops, fl: FreeLevel) -> ChainComplex:
    if not fl.blocks:
        return ops.zero_obj()
    out = fl.blocks[0].big
    for b in fl.blocks[1:]:
        out = ops.direct_sum(out, b.big)
    return out


def _descend(ops, big_map: ChainMap, fl: FreeLevel, tl: FreeLevel) -> ChainMap:
    """Conjugate a big-module map by the quotient data of both sides."""
    ring = ops.ring
    bound = ops.max_degree
    sec = _stacked(ops, fl, "section")
    prj = _stacked(ops, tl, "proj")
    out = ops.make_map(fl.object, tl.object,
                       [(prj.component(n) @ big_map.component(n)
                         @ sec.component(n)) for n in range(bound + 1)])
    chk = _stacked(ops, fl, "proj")
    for n in range(bound + 1):
        lhs = prj.component(n) @ big_map.component(n)
        rhs = out.component(n) @ chk.component(n)
        if lhs != rhs:
            raise ValueError("map does not descend to the class quotients")
    return out


def _stacked(ops, fl: FreeLevel, kind: str) -> ChainMap:
    big = _big_sum(ops, fl)
    bound = ops.max_degree
    comps = []
    for n in range(bound + 1):
        entries = {}
        ob, bb = 0, 0
        for b in fl.blocks:
            m = getattr(b, kind).component(n)
            for (i, j), v in m.entries.items():
                if kind == "proj":
                    entries[(ob + i, bb + j)] = v
                else:
                    entries[(bb + i, ob + j)] = v
            ob += b.obj.level(n).rank
            bb += b.big.level(n).rank
        if kind == "proj":
            comps.append(LinearMap(big.level(n), fl.object.level(n), entries))
        else:
            comps.append(LinearMap(fl.object.level(n), big.level(n), entries))
    if kind == "proj":
        return ops.make_map(big, fl.object, comps)
    return ops.make_map(fl.object, big, comps)


# ---------------------------------------------------------------------------
# collection maps
# ---------------------------------------------------------------------------


class CollectionMap:
    """A levelwise map of collections commuting with the actions."""

    __slots__ = ("source", "target", "components")

    def __init__(self, source: Collection, target: Collection,
                 components: dict, check: bool = True):
        assert source.ring == target.ring and source.base == target.base
        assert source.max_degree == target.max_degree
        self.source = source
        self.target = target
        self.components = {}
        for sig, f in components.items():
            sig = (tuple(sig[0]), sig[1])
            assert f.source.ranks() == source.level(sig).ranks()
            assert f.target.ranks() == target.level(sig).ranks()
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
                if not ops.equal(lhs, rhs):
                    raise ValueError(
                        f"map is not equivariant at {sig_str(sig)}, swap {t}")

    def component(self, sig):
        sig = (tuple(sig[0]), sig[1])
        if sig in self.components:
            return self.components[sig]
        return self.source.ops.zero_map(self.source.level(sig),
                                        self.target.level(sig))

    def is_iso(self) -> bool:
        sigs = set(self.source.levels) | set(self.target.levels)
        for sig in sigs:
            f = self.component(sig)
            for n in range(self.source.max_degree + 1):
                if not f.component(n).is_iso():
                    return False
        return True


def generator_inclusion(F: FreeOperad) -> CollectionMap:
    """The collection map sending a generator to its one-vertex class."""
    M = F.M
    ops = F.ops
    comps = {}
    for sig in M.signatures():
        fl = F.levels[sig]
        corolla = Tree.node(sig[1], [Tree.edge(c) for c in sig[0]])
        bi, pi = fl.lookup[corolla.key()]
        block = fl.blocks[bi]
        ident = tuple(range(sig_arity(sig)))
        li = block.labs[pi].index(ident)
        lev = M.level(sig)
        entries = [dict() for _ in range(F.bound + 1)]
        for n in range(F.bound + 1):
            for j in range(lev.level(n).rank):
                row = block.flat_index(n, pi, (n, 0), (j, li))
                entries[n][(row, j)] = M.ring.one
        emb = ops.make_map(lev, block.big,
                           [LinearMap(lev.level(n), block.big.level(n),
                                      entries[n])
                            for n in range(F.bound + 1)])
        comps[sig] = fl.legs[bi] @ (block.proj @ emb)
    return CollectionMap(M, F.operad().collection, comps)


def extend_to_operad(F: FreeOperad, target: Operad,
                     g: CollectionMap) -> "object":
    """The operad map Free(M) -> target induced by g: M -> target.

    Decorations must be concentrated in degree zero.  Each basis element
    evaluates by composing its decorations along the tree and acting by
    the labeling permutation; the result is checked as an operad map,
    and precomposition with the generator inclusion returns g.
    """
    from .operad import OpMorphism
    M = F.M
    for s in M.signatures():
        assert sum(M.level(s).ranks()[1:]) == 0, \
            "evaluation needs generators concentrated in degree zero"
    ops = F.ops
    ring = F.ring
    P = F.operad()
    level_maps = {}
    for sig, fl in F.levels.items():
        tgt = target.collection.level(sig)
        entries = [dict() for _ in range(F.bound + 1)]
        big = _big_sum(ops, fl)
        off = [0] * (F.bound + 1)
        for bi, b in enumerate(fl.blocks):
            for pi, p in enumerate(b.planar):
                for n in range(F.bound + 1):
                    for local, (degs, idxs) in enumerate(b.positions(n, pi)):
                        if any(degs[:-1]):
                            continue
                        col = off[n] + b.offsets[n][pi] + local
                        lab = b.labs[pi][idxs[-1]]
                        colmap = _eval_tree(target, g, p, list(idxs[:-1]))
                        psig = p.signature
                        if lab:
                            sigma = permutations.inverse(lab)
                            colmap = target.collection.action(
                                psig, sigma) @ colmap
                        for (i, z), v in colmap.component(0).entries.items():
                            entries[0][(i, col)] = v
            for n in range(F.bound + 1):
                off[n] += b.big.level(n).rank
        bigmap = ops.make_map(big, tgt,
                              [LinearMap(big.level(n), tgt.level(n),
                                         entries[n])
                               for n in range(F.bound + 1)])
        sec = _stacked(ops, fl, "section")
        prj = _stacked(ops, fl, "proj")
        lm = ops.make_map(fl.object, tgt,
                          [bigmap.component(n) @ sec.component(n)
                           for n in range(F.bound + 1)])
        for n in range(F.bound + 1):
            assert (lm.component(n) @ prj.component(n)) == bigmap.component(n), \
                "evaluation is not move-invariant"
        level_maps[sig] = lm
    colors = {c: c for c in M.colors}
    return OpMorphism(P, target, colors, level_maps)


def _eval_tree(target: Operad, g: CollectionMap, p: Tree, dec_idxs):
    """Element of target at p's planar signature, as a column map."""
    ops = target.ops
    ring = target.ring

    def unit_col(color):
        return target.unit(color), ((color,), color)

    idx_iter = iter(dec_idxs)

    def rec(t: Tree):
        if t.is_edge:
            return unit_col(t.output)
        j = next(idx_iter)
        lev = g.source.level(t.val)
        col = ops.make_map(
            ops.unit_obj(), lev,
            [LinearMap(ops.unit_obj().level(n), lev.level(n),
                       {(j, 0): ring.one} if n == 0 else {})
             for n in range(ops.max_degree + 1)])
        cur = g.component(t.val) @ col
        cur_sig = t.val
        pieces = [rec(ch) for ch in t.children]
        for slot in range(len(t.children) - 1, -1, -1):
            child_col, child_sig = pieces[slot]
            pair = _pair_column(ops, cur, child_col)
            cur = target.composition(cur_sig, slot, child_sig) @ pair
            cur_sig = graft_signature(cur_sig, slot, child_sig)
        return cur, cur_sig

    col, sig = rec(p)
    assert sig == p.signature
    return col


def _pair_column(ops, u, v):
    ring = ops.ring
    uu = ops.tensor_map(u, v)
    dup = ops.make_map(
        ops.unit_obj(), uu.source,
        [LinearMap(ops.unit_obj().level(n), uu.source.level(n),
                   {(0, 0): ring.one} if n == 0 else {})
         for n in range(ops.max_degree + 1)])
    return uu @ dup


# ---------------------------------------------------------------------------
# cell maps
# ---------------------------------------------------------------------------


class EpsilonCell:
    """An iterated pushout product together with its factor bookkeeping.

    atoms are the vertex maps in preorder; build records the bracketing
    of the codomain so cells assembled along different decompositions
    can be compared through an explicit reordering isomorphism.
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
    build = ("atom", 0)
    for k in range(1, len(atoms)):
        cur = _chain.pushout_product(cur, atoms[k], bound=bound)
        build = ("pair", build, ("atom", k))
    return EpsilonCell(cur, atoms, verts, build)


def cell_pushout_product(a: EpsilonCell, b: EpsilonCell,
                         bound: int) -> EpsilonCell:
    m = _chain.pushout_product(a.map, b.map, bound=bound)
    shift = len(a.atoms)
    bb = _shift_build(b.build, shift)
    return EpsilonCell(m, a.atoms + b.atoms, a.vertices + b.vertices,
                       ("pair", a.build, bb))


def _shift_build(build, k: int):
    if not build:
        return build
    if build[0] == "atom":
        return ("atom", build[1] + k)
    return ("pair", _shift_build(build[1], k), _shift_build(build[2], k))


def _build_leaves(build):
    if not build:
        return []
    if build[0] == "atom":
        return [build[1]]
    return _build_leaves(build[1]) + _build_leaves(build[2])


def _build_object(build, targets, ops):
    if build[0] == "atom":
        return targets[build[1]]
    return ops.tensor(_build_object(build[1], targets, ops),
                      _build_object(build[2], targets, ops))


def _build_positions(build, targets, ops, n: int):
    """Flat basis at degree n as (atom degs, atom idxs) in leaf order."""
    if build[0] == "atom":
        A = targets[build[1]]
        return [((d,), (i,)) for d in [n] for i in range(A.level(d).rank)]
    L = _build_object(build[1], targets, ops)
    R = _build_object(build[2], targets, ops)
    posL = {m: _build_positions(build[1], targets, ops, m)
            for m in range(n + 1)}
    posR = {m: _build_positions(build[2], targets, ops, m)
            for m in range(n + 1)}
    out = []
    for s, r, off in _chain.tensor_blocks(L, R, n):
        for dl, il in posL[s]:
            for dr, ir in posR[r]:
                out.append((dl + dr, il + ir))
    return out


def cell_comparison_iso(cellA: EpsilonCell, cellB: EpsilonCell,
                        atom_perm, ops) -> ChainMap:
    """The codomain isomorphism matching atom j of A with atom
    atom_perm[j] of B, with the graded reordering sign."""
    ring = ops.ring
    bound = ops.max_degree
    targetsA = [a.target for a in cellA.atoms]
    targetsB = [b.target for b in cellB.atoms]
    leavesA = _build_leaves(cellA.build)
    leavesB = _build_leaves(cellB.build)
    slotB = {atom: s for s, atom in enumerate(leavesB)}
    pi = [slotB[atom_perm[leavesA[s]]] for s in range(len(leavesA))]
    codA = cellA.map.target
    codB = cellB.map.target
    comps = []
    for n in range(bound + 1):
        posB = {pos: i for i, pos in
                enumerate(_build_positions(cellB.build, targetsB, ops, n))}
        entries = {}
        for col, (degs, idxs) in enumerate(
                _build_positions(cellA.build, targetsA, ops, n)):
            sign = 1
            for a in range(len(pi)):
                for b in range(a + 1, len(pi)):
                    if pi[a] > pi[b] and degs[a] % 2 and degs[b] % 2:
                        sign = -sign
            tdegs = [0] * len(pi)
            tidxs = [0] * len(pi)
            for j in range(len(pi)):
                tdegs[pi[j]] = degs[j]
                tidxs[pi[j]] = idxs[j]
            row = posB[(tuple(tdegs), tuple(tidxs))]
            entries[(row, col)] = ring.one if sign == 1 else ring.normalize(-1)
        comps.append(LinearMap(codA.level(n), codB.level(n), entries))
    return ops.make_map(codA, codB, comps)


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
        psi = solve(cellB.map.component(n), rhs)
        if psi is None:
            return False
        back = solve(cellA.map.component(n),
                     _inv_entries(phi, n) @ cellB.map.component(n))
        if back is None:
            return False
        psis.append(psi)
    dom = cellA.map.source
    domB = cellB.map.source
    for n in range(1, bound + 1):
        if not (psis[n - 1] @ dom.d(n)) == (domB.d(n) @ psis[n]):
            return False
    return True


def _inv_entries(phi: ChainMap, n: int) -> LinearMap:
    comp = phi.component(n)
    entries = {}
    for (i, j), v in comp.entries.items():
        entries[(j, i)] = v
    return LinearMap(comp.target, comp.source, entries)


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

    __slots__ = ("sig", "stages", "maps", "cells", "certificate")

    def __init__(self, sig, stages, maps, cells, certificate):
        self.sig = sig
        self.stages = stages
        self.maps = maps
        self.cells = cells
        self.certificate = certificate

    @property
    def colimit(self) -> ChainComplex:
        return self.stages[-1]


def _split_data(ring, f: ChainMap):
    """(retraction, coker section) of a degreewise split injection, or
    None when f does not split with a free cokernel."""
    rets, secs = [], []
    for n in range(f.source.max_degree + 1):
        comp = f.component(n)
        pres = cokernel(comp)
        if pres.invariant_factors:
            return None
        B = hstack([comp, pres.section])
        if not B.is_iso():
            return None
        X = comp.source
        proj = LinearMap(B.source, X,
                         {(i, i): ring.one for i in range(X.rank)})
        rets.append(proj @ B.inverse())
        secs.append(pres.section)
    return rets, secs


def cokernel_collection(f: CollectionMap):
    """The cokernel of a degreewise split collection map, with the
    induced actions, plus the chain-level sections picking the
    complement inside the target."""
    ring = f.source.ring
    bound = f.source.max_degree
    ops = f.source.ops
    levels, actions, sections = {}, {}, {}
    datas = {}
    for sig in f.target.signatures():
        comp = f.component(sig)
        data = _split_data(ring, comp)
        if data is None:
            raise ValueError(f"map does not split at {sig_str(sig)}")
        rets, secs = data
        qlevels = [s.source for s in secs]
        dq, dsec = [], []
        for n in range(1, bound + 1):
            prjn = _coker_proj(ring, comp.component(n), rets[n], secs[n])
            prjm = _coker_proj(ring, comp.component(n - 1), rets[n - 1],
                               secs[n - 1])
            d = prjm @ f.target.level(sig).d(n) @ secs[n]
            assert (prjm @ f.target.level(sig).d(n)) == (d @ prjn), \
                "cokernel differential does not descend"
            dq.append(d)
        Q = ChainComplex(ring, qlevels, dq)
        levels[sig] = Q
        datas[sig] = (rets, secs)
        sections[sig] = ops.make_map(Q, f.target.level(sig), secs)
    for sig, Q in levels.items():
        n = sig_arity(sig)
        if n < 2:
            continue
        table = {}
        for s in permutations.all_permutations(n):
            tsig = sig_act(sig, s)
            act = f.target.action(sig, s)
            rets_t, secs_t = datas[tsig]
            comp_t = f.component(tsig)
            comps = []
            for m in range(bound + 1):
                prj = _coker_proj(ring, comp_t.component(m), rets_t[m],
                                  secs_t[m])
                comps.append(prj @ act.component(m) @ datas[sig][1][m])
            table[s] = ops.make_map(Q, levels[tsig], comps)
        actions[sig] = table
    Qc = Collection(ring, "chain", f.source.colors, f.source.max_arity,
                    bound, levels, actions)
    return Qc, sections


def _coker_proj(ring, comp, ret, sec) -> LinearMap:
    """Projection target -> coker generators along the splitting."""
    # q = section^+ . (id - f r); with unit section columns this is just
    # reading off the complement coordinates, computed by solving
    ident = LinearMap.identity(comp.target)
    compl = ident - (comp @ ret)
    q = solve(sec, compl)
    assert q is not None, "splitting data is inconsistent"
    return q


def extension_stage(O: Operad, f: CollectionMap, sig, max_vertices: int,
                    generator_map: Optional[CollectionMap] = None,
                    max_stage: Optional[int] = None) -> ExtensionStages:
    """Stage filtration of the free extension of O along f at one level.

    Stage k attaches the classes with k marked vertices: each class
    contributes the coinvariants of f's target at marked vertices and O
    elsewhere, glued along the choice blocks of its cell map.  The
    attaching map rewrites a block through generator_map at the marked
    source factors and contracts unmarked pairs with O's compositions.

    O must have unit-sized unary diagonal levels and f must split
    degreewise; f's source must sit in arities >= 2 unless it is zero.
    """
    ring = O.ring
    ops = O.ops
    bound = ops.max_degree
    sig = (tuple(sig[0]), sig[1])
    coll = O.collection
    assert coll.max_arity >= sig_arity(sig), \
        "the operad's arity window is smaller than the signature"
    for c in coll.colors:
        u = O.unit(c)
        usig = ((c,), c)
        assert coll.level(usig).ranks() == ops.unit_obj().ranks() and \
            u.component(0).is_iso(), \
            f"unary level at {c!r} is larger than the unit"

    Qc, q_sections = cokernel_collection(f)
    trivial = all(ops.is_zero(Qc.level(s)) for s in f.target.signatures())
    K = max_stage if max_stage is not None else max_vertices
    stage = pad(coll.level(sig), bound)
    if trivial:
        # the map is an isomorphism, so every attachment glues along an
        # iso and the stages never move
        cert = {"vertex_bound": max_vertices, "stages": K,
                "attached_ranks": [0] * K, "stable_from": 0,
                "stabilized": True, "truncated": False}
        return ExtensionStages(sig, [stage] * (K + 1),
                               [ops.identity(stage)] * K,
                               {k: [] for k in range(1, K + 1)}, cert)
    assert all(sig_arity(s) >= 2 for s in f.source.signatures()), \
        "attaching maps need source generators in arities >= 2"
    assert generator_map is not None or not f.source.signatures(), \
        "a nontrivial extension needs the generator map into O"

    marked_vals = f.target.signatures()
    unmarked_vals = [s for s in coll.signatures() if sig_arity(s) != 1]
    base_leg = ops.identity(stage)
    stages = [stage]
    maps = []
    cells_by_stage: dict = {}
    cell_legs: dict = {}
    attached = []

    for k in range(1, K + 1):
        classes = enumerate_trees(sig, k, max_vertices, marked_vals,
                                  unmarked_vals, no_adjacent_unmarked=True)
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
        C = blocks[0].obj
        for b in blocks[1:]:
            C = ops.direct_sum(C, b.obj)
        c_off = [0] * (bound + 1)
        c_legs = []
        for b in blocks:
            comps = [LinearMap(b.obj.level(n), C.level(n),
                               {(c_off[n] + i, i): ring.one
                                for i in range(b.obj.level(n).rank)})
                     for n in range(bound + 1)]
            c_legs.append(ops.make_map(b.obj, C, comps))
            for n in range(bound + 1):
                c_off[n] += b.obj.level(n).rank
        doms, inks, atts = [], [], []
        for bi, b in enumerate(blocks):
            for pi, p in enumerate(b.planar):
                marked_paths = [path for path in p.vertex_paths()
                                if p.subtree_at(path).marked]
                for choice in itertools.product((0, 1),
                                                repeat=len(marked_paths)):
                    if all(choice):
                        continue
                    D, ink, att = _choice_block(
                        O, f, Qc, q_sections, generator_map, b, bi, pi, p,
                        marked_paths, choice, cells_by_stage, cell_legs,
                        base_leg, stage, sig)
                    if ink is None:
                        continue
                    doms.append(D)
                    inks.append(c_legs[bi] @ ink)
                    atts.append(att)
        if doms:
            Dtot = doms[0]
            for D in doms[1:]:
                Dtot = ops.direct_sum(Dtot, D)
            ink_tot = _stack_legs(ops, doms, inks, Dtot, C)
            att_tot = _stack_legs(ops, doms, atts, Dtot, stage)
        else:
            Dtot = ops.zero_obj()
            ink_tot = ops.zero_map(Dtot, C)
            att_tot = ops.zero_map(Dtot, stage)
        po = _chain.pushout_complex(ink_tot, att_tot)
        new_stage = po.complex
        stage_map = po.inr
        cells_by_stage[k] = blocks
        for key in list(cell_legs):
            cell_legs[key] = stage_map @ cell_legs[key]
        for bi, b in enumerate(blocks):
            cell_legs[(k, bi)] = po.inl @ c_legs[bi]
        base_leg = stage_map @ base_leg
        maps.append(stage_map)
        stages.append(new_stage)
        stage = new_stage
        attached.append(sum(b.obj.total_rank() for b in blocks))

    frontier = []
    for k in range(1, max_vertices + 2):
        for cl in enumerate_trees(sig, k, max_vertices + 1, marked_vals,
                                  unmarked_vals, no_adjacent_unmarked=True):
            if cl.rep.n_vertices == max_vertices + 1:
                frontier.append(cl)
    truncated = bool(frontier)
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
    return ExtensionStages(sig, stages, maps, cells_by_stage, cert)


def _stack_legs(ops, doms, legs, Dtot, target):
    ring = ops.ring
    bound = ops.max_degree
    comps = []
    for n in range(bound + 1):
        entries = {}
        off = 0
        for D, leg in zip(doms, legs):
            for (i, j), v in leg.component(n).entries.items():
                entries[(i, off + j)] = v
            off += D.level(n).rank
        comps.append(LinearMap(Dtot.level(n), target.level(n), entries))
    return ops.make_map(Dtot, target, comps)


def _choice_block(O, f, Qc, q_sections, g, block, bi, pi, p, marked_paths,
                  choice, cells_by_stage, cell_legs, base_leg, stage, sig):
    """One mixed block of a cell domain with its two legs.

    choice[j] == 1 keeps the cokernel factor at the j'th marked vertex,
    0 keeps the source factor; at least one source factor is present.
    The first leg includes the block into the class coinvariants, the
    second rewrites it into earlier stages.
    """
    ring = O.ring
    ops = O.ops
    bound = ops.max_degree
    coll = O.collection
    paths = p.vertex_paths()
    path_pos = {path: vi for vi, path in enumerate(paths)}
    kind = {}
    for path, c in zip(marked_paths, choice):
        kind[path_pos[path]] = "Q" if c else "X"
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
    L = _labeling_complex(ring, len(block.labs[pi]), bound)
    D = _tensor_with_labels(ops, facs, len(block.labs[pi]))
    if D.total_rank() == 0:
        return D, None, None
    tgt_objs = block.factors[pi] + [L]
    idpi = list(range(len(facs) + 1))
    comps = []
    for n in range(bound + 1):
        ent = _reorder_entries(ring, facs + [L], tgt_objs, idpi,
                               mats + [None], n)
        shifted = {(block.offsets[n][pi] + r, c): v
                   for (r, c), v in ent.items()}
        comps.append(LinearMap(D.level(n), block.big.level(n), shifted))
    ink = block.proj @ ops.make_map(D, block.big, comps)

    att = _collapse(O, f, Qc, q_sections, g, p, kind, facs, D,
                    block.labs[pi], cells_by_stage, cell_legs, base_leg,
                    stage, sig)
    return D, ink, att


def _collapse(O, f, Qc, q_sections, g, p, kind, facs, D, labs,
              cells_by_stage, cell_legs, base_leg, stage, sig):
    """Rewrite a mixed block into the earlier stage it factors through."""
    ring = O.ring
    ops = O.ops
    bound = ops.max_degree
    coll = O.collection

    tree = p
    objs = list(facs)
    # running entry lists from D into tensor(objs + [L]); start by
    # pushing the X factors through the generator map
    L = _labeling_complex(ring, len(labs), bound)
    mats = [None] * (len(objs) + 1)
    flags = []
    for vi, (vsig, m) in enumerate(p.vertex_preorder()):
        if m and kind[vi] == "X":
            mats[vi] = g.component(vsig)
            flags.append(False)
            objs[vi] = g.target.level(vsig)
        else:
            flags.append(m)
    tree = _reflag(tree, flags)
    cur = []
    for n in range(bound + 1):
        cur.append(dict(_reorder_entries(
            ring, facs + [L], objs + [L],
            list(range(len(facs) + 1)), mats, n)))

    # contract unmarked-unmarked edges until none remain
    while True:
        edge = _first_contraction(tree)
        if edge is None:
            break
        parent_path, slot = edge
        parent_vi = tree.vertex_paths().index(parent_path)
        child_path = parent_path + (slot,)
        child_vi = tree.vertex_paths().index(child_path)
        parent = tree.subtree_at(parent_path)
        child = tree.subtree_at(child_path)
        psig, csig = parent.val, child.val
        # bring the child factor next to the parent, then compose
        m = len(objs)
        pi_map = list(range(m))
        for j in range(parent_vi + 1, child_vi):
            pi_map[j] = j + 1
        pi_map[child_vi] = parent_vi + 1
        perm_entries = []
        tgt_objs = [objs[j] for j in sorted(range(m),
                                            key=lambda t: pi_map[t])]
        for n in range(bound + 1):
            ent = _reorder_entries(ring, objs + [L], tgt_objs + [L],
                                   pi_map + [m], [None] * (m + 1), n)
            perm_entries.append(ent)
        cur = _compose_entry_lists(ring, perm_entries, cur, bound)
        objs = tgt_objs
        pair = O.composition(psig, slot, csig)
        pair_entries = []
        for n in range(bound + 1):
            pair_entries.append(_pair_entries(
                ring, objs + [L], parent_vi, pair, n))
        cur = _compose_entry_lists(ring, pair_entries, cur, bound)
        objs = objs[:parent_vi] + [pair.target] + objs[parent_vi + 2:]
        merged_kids = (parent.children[:slot] + child.children
                       + parent.children[slot + 1:])
        tree = tree.replace_at(parent_path,
                               Tree.node(parent.output, merged_kids,
                                         parent.marked))

    kprime = tree.n_marked
    if kprime == 0:
        # a single unmarked vertex; its factor lands in the base level
        # through the action of each labeling
        assert tree.n_vertices == 1
        psig = tree.val
        entries = []
        for n in range(bound + 1):
            acc: dict = {}
            src = _position_index(objs + [L], n)
            for li, lab in enumerate(labs):
                act = coll.action(psig, permutations.inverse(lab))
                for (i, j), v in act.component(n).entries.items():
                    col = src.get(((n, 0), (j, li)))
                    if col is not None:
                        acc[(i, col)] = v
            entries.append(acc)
        cur = _compose_entry_lists(ring, entries, cur, bound)
        tgt = coll.level(sig)
        mdl = ops.make_map(D, pad(tgt, bound),
                           [LinearMap(D.level(n), tgt.level(n), cur[n])
                            for n in range(bound + 1)])
        return base_leg @ mdl
    # locate the class of the collapsed tree among the earlier stages;
    # a class absent there had zero coinvariants, so the image is zero
    target_blocks = cells_by_stage.get(kprime)
    assert target_blocks is not None, \
        "collapse reached a stage that was never built"
    enc = tree.encoding()
    tbi = next((i for i, b in enumerate(target_blocks)
                if b.tree_class.encoding == enc), None)
    if tbi is None:
        return ops.zero_map(D, stage)
    tb = target_blocks[tbi]
    tpi = next(i for i, q in enumerate(tb.planar) if q == tree)
    # inject the surviving Q factors back into the target's Y factors
    mats = []
    for vi, (vsig, m) in enumerate(tree.vertex_preorder()):
        mats.append(q_sections[vsig] if m else None)
    lab_tgt = {lab: i for i, lab in enumerate(tb.labs[tpi])}
    ident = list(range(len(objs) + 1))
    Lt = _labeling_complex(ring, len(tb.labs[tpi]), bound)
    lab_entries = {(lab_tgt[lab], li): ring.one
                   for li, lab in enumerate(labs)}
    lab_map = ops.make_map(L, Lt, [
        LinearMap(L.level(n), Lt.level(n),
                  lab_entries if n == 0 else {})
        for n in range(bound + 1)])
    final = []
    for n in range(bound + 1):
        ent = _reorder_entries(ring, objs + [L], tb.factors[tpi] + [Lt],
                               ident, mats + [lab_map], n)
        shifted = {(tb.offsets[n][tpi] + r, c): v
                   for (r, c), v in ent.items()}
        final.append(shifted)
    cur = _compose_entry_lists(ring, final, cur, bound)
    mdl = ops.make_map(D, tb.big,
                       [LinearMap(D.level(n), tb.big.level(n), cur[n])
                        for n in range(bound + 1)])
    return cell_legs[(kprime, tbi)] @ (tb.proj @ mdl)


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


def _compose_entry_lists(ring, outer, inner, bound):
    out = []
    for n in range(bound + 1):
        by_col: dict = {}
        for (i, j), v in outer[n].items():
            by_col.setdefault(j, []).append((i, v))
        acc: dict = {}
        for (j, k), w in inner[n].items():
            for i, v in by_col.get(j, []):
                key = (i, k)
                acc[key] = ring.add(acc.get(key, ring.zero), ring.mul(v, w))
        out.append({kk: vv for kk, vv in acc.items() if vv != ring.zero})
    return out
