"""Connective chain complexes over an exact ring.

Everything is degree-truncated: a complex carries an explicit max_degree D
and levels 0..D. Truncation is honest; homology at degree D is flagged
unreliable because d_{D+1} is not part of the data.

Sign convention for tensors: d(x (x) y) = dx (x) y + (-1)^|x| x (x) dy.

This module also holds the degreewise layer that chain complexes share
with the simplicial modules of `simp`.  `DegreewiseObject` keeps the
levels and writes once their checks, `level`, `ranks`, equality, hash
and repr, and the one block-diagonal direct sum of both base
categories (`block_sum`); `DegreewiseMap` does the same for the maps.
`ChainComplex` and `ChainMap` add the differentials, d^2 = 0 and the
commuting squares.  The object class is the base category: it carries
its map class, its free objects, its tensor of objects and of maps, and
the block rule and signs of its tensor layouts, so code written once
over both bases reads them off the class and never names a base.
"""

from __future__ import annotations

from itertools import product
from math import prod
from operator import mul
from typing import Optional, Sequence

from . import permutations
from .exactlin import (
    FreeModule,
    LinearMap,
    _coordinates,
    _json_fields,
    _matrix_in_slot,
    _pivots,
    _q_mul,
    cokernel,
    compose,
    hstack,
    kernel,
    matrix_to_json,
    solve,
)
from .rings import Ring

__all__ = ["DegreewiseObject", "ChainComplex", "DegreewiseMap", "ChainMap",
           "zero_complex", "unit_complex", "concentrated", "two_term",
           "direct_sum", "pad", "tensor_blocks", "tensor", "tensor_map",
           "tensor_many", "tensor_map_many", "braiding", "associator",
           "left_unitor", "right_unitor", "HomologyResult", "homology",
           "homology_map", "is_quasi_iso", "ChainColimit", "diagram_colimit",
           "ChainPushout", "pushout_complex", "pushout_product",
           "chain_to_json", "chain_from_json"]


class DegreewiseObject:
    """Free modules levels[0..max_degree] over one ring and a subclass's
    structure maps between them: the differentials of a chain complex,
    the faces and degeneracies of a simplicial module.

    The constructor checks that there is at least one level and that
    each lies over ring; `level` reads the zero module off the ends.
    Two objects are equal when their classes, rings, ranks and the
    entries of their structure maps are, in the order the subclass's
    `_maps` lists them; the hash reads the ring and the ranks.  A
    subclass stores its maps and checks their shapes and laws, and its
    `_rebuilt` builds an object on given levels from a builder
    make(what, n, m, get) of each structure map out of degree n into
    degree m, where get reads the matching map off an object of the
    class and what names it ("differential", "face", "degeneracy").
    `block_sum`, the one direct sum of both base categories, and the
    quotients of `operad` build through it.
    """

    __slots__ = ("ring", "max_degree", "levels")

    def __init__(self, ring: Ring, levels: Sequence[FreeModule]):
        levels = tuple(levels)
        if not levels:
            raise ValueError(f"a {type(self).__name__} needs at least "
                             f"degree 0")
        for n, M in enumerate(levels):
            # rings are shared, so identity settles nearly every level
            # without a call to Ring.__eq__
            if M.ring is not ring and M.ring != ring:
                raise ValueError(f"level {n} is over {M.ring.name()}, "
                                 f"not {ring.name()}")
        self.ring = ring
        self.max_degree = len(levels) - 1
        self.levels = levels

    def level(self, n: int) -> FreeModule:
        if 0 <= n <= self.max_degree:
            return self.levels[n]
        return FreeModule(self.ring, 0)

    def ranks(self):
        return tuple(M.rank for M in self.levels)

    def total_rank(self) -> int:
        return sum(self.ranks())

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return (self.ring == other.ring
                and self.ranks() == other.ranks()
                and all(a.entries == b.entries
                        for a, b in zip(self._maps(), other._maps())))

    def __hash__(self):
        return hash((self.ring, self.ranks()))

    def __repr__(self):
        return (f"{type(self).__name__}({self.ring.name()}, "
                f"ranks={self.ranks()})")

    # The rules of the base category, which the operad code reads off
    # the object class (`operad._Ops`) and each subclass sets: `Map`,
    # the map class; `koszul`, whether moving tensor factors past each
    # other takes the Koszul sign; `tensor_degrees(n)`, the degree pairs
    # (s, r) of the summands A_s (x) B_r of degree n of a tensor, in
    # layout order; `free(ring, max_degree, rank)`, the free object on a
    # rank; `tensor_objects(A, B, bound)`, the tensor of two objects
    # truncated at bound; and `to_json` and `from_json`.  The tensor of
    # two maps, `tensor_maps`, is written once here over them.

    @classmethod
    def tensor_maps(cls, f, g, bound):
        """f (x) g between the tensors of the sources and of the targets:
        `_tensor_entries` of (f, g) on the two-factor layouts, f's
        entries outer and g's inner, the order of
        `exactlin._kron_entries`."""
        src = cls.tensor_objects(f.source, g.source, bound)
        tgt = cls.tensor_objects(f.target, g.target, bound)
        D = src.max_degree
        return cls.Map(src, tgt, _tensor_components(
            (f, g), None, src, tgt, _layout((f.source, g.source), D),
            _layout((f.target, g.target), D)), check=False)

    @classmethod
    def block_sum(cls, ring: Ring, max_degree: int, objs):
        """The direct sum of objs, each of this class over ring and
        truncated at max_degree, with each summand's per-degree offsets.

        Degree n is the sum of the summands' degree-n levels, in order,
        and each structure map is block diagonal: the summands' maps
        placed at their offsets (`LinearMap.placed`), so its entries
        come summand by summand, each in its own entry order.  The sum
        of no objects is the zero object.  Maps between sums are placed
        by the offsets.
        """
        offsets, acc = [], [0] * (max_degree + 1)
        for A in objs:
            if type(A) is not cls or A.ring != ring \
                    or A.max_degree != max_degree:
                raise ValueError(f"direct sum summands differ in ring or "
                                 f"max_degree, or are not all {cls.__name__}")
            offsets.append(acc)
            acc = [a + r for a, r in zip(acc, A.ranks())]
        mods = [FreeModule(ring, a) for a in acc]
        return cls._rebuilt(ring, mods, lambda what, n, m, get:
                            LinearMap.placed(mods[n], mods[m], [
                                (off[m], off[n], get(A))
                                for A, off in zip(objs, offsets)])), offsets


class ChainComplex(DegreewiseObject):
    """Levels 0..max_degree with differentials d_n: level(n) -> level(n-1).

    d*d = 0 is checked at construction; an invalid complex is never a
    value of this type.
    """

    __slots__ = ("differentials",)

    def __init__(self, ring: Ring, levels: Sequence[FreeModule],
                 differentials: Sequence[LinearMap], check: bool = True):
        super().__init__(ring, levels)
        levels = self.levels
        differentials = tuple(differentials)
        if len(differentials) != len(levels) - 1:
            raise ValueError(f"{len(levels)} levels need {len(levels) - 1} "
                             f"differentials, got {len(differentials)}")
        for n, d in enumerate(differentials, start=1):
            if d.source != levels[n] or d.target != levels[n - 1]:
                raise ValueError(f"d_{n} is not a map from level {n} to "
                                 f"level {n - 1}")
        self.differentials = differentials
        if check:
            for n in range(1, self.max_degree):
                dd = compose(self.d(n), self.d(n + 1))
                if not dd.is_zero():
                    raise ValueError(f"d^2 != 0 between degrees {n + 1} and {n - 1}")

    def d(self, n: int) -> LinearMap:
        """Differential out of degree n; zero maps off the ends."""
        if 1 <= n <= self.max_degree:
            return self.differentials[n - 1]
        return LinearMap.zero(self.level(n), self.level(n - 1))

    def _maps(self):
        return self.differentials

    koszul = True

    @staticmethod
    def tensor_degrees(n: int):
        """Blocks (s, n - s), s ascending."""
        return [(s, n - s) for s in range(n + 1)]

    @staticmethod
    def free(ring: Ring, max_degree: int, rank: int) -> "ChainComplex":
        """rank generators in degree 0."""
        return pad(concentrated(ring, 0, rank), max_degree)

    @staticmethod
    def tensor_objects(K, L, bound) -> "ChainComplex":
        return tensor(K, L, bound)

    @classmethod
    def _rebuilt(cls, ring: Ring, levels, make) -> "ChainComplex":
        """The complex on levels whose d_n is make("differential", n,
        n - 1, get), get reading d_n.  d^2 = 0 is not checked again: a
        block sum of complexes has it, and so has a quotient whose
        differentials descend along surjections (`operad._descend`)."""
        return cls(ring, levels, [
            make("differential", n, n - 1, lambda X, n=n: X.d(n))
            for n in range(1, len(levels))], check=False)


def zero_complex(ring: Ring, max_degree: int = 0) -> ChainComplex:
    levels = [FreeModule(ring, 0) for _ in range(max_degree + 1)]
    diffs = [LinearMap.zero(levels[n], levels[n - 1]) for n in range(1, max_degree + 1)]
    return ChainComplex(ring, levels, diffs)


def unit_complex(ring: Ring) -> ChainComplex:
    return ChainComplex(ring, [FreeModule(ring, 1)], [])


def concentrated(ring: Ring, degree: int, rank: int = 1) -> ChainComplex:
    """rank^degree: one nonzero level, everything else 0."""
    levels = [FreeModule(ring, rank if n == degree else 0)
              for n in range(degree + 1)]
    diffs = [LinearMap.zero(levels[n], levels[n - 1]) for n in range(1, degree + 1)]
    return ChainComplex(ring, levels, diffs)


def two_term(ring: Ring, rows: Sequence[Sequence]) -> ChainComplex:
    """d_1 given by a dense matrix; degree 1 has len(rows[0]) generators."""
    cols = len(rows[0]) if rows else 0
    M1 = FreeModule(ring, cols)
    M0 = FreeModule(ring, len(rows))
    return ChainComplex(ring, [M0, M1], [LinearMap.from_rows(M1, M0, rows)])


def direct_sum(K: ChainComplex, L: ChainComplex) -> ChainComplex:
    return ChainComplex.block_sum(K.ring, K.max_degree, (K, L))[0]


def pad(K: ChainComplex, max_degree: int) -> ChainComplex:
    """Extend by zero levels up to max_degree. Identity if already there."""
    if max_degree < K.max_degree:
        raise ValueError(f"cannot pad a complex of max_degree "
                         f"{K.max_degree} down to {max_degree}")
    if max_degree == K.max_degree:
        return K
    levels = list(K.levels)
    diffs = list(K.differentials)
    for n in range(K.max_degree + 1, max_degree + 1):
        levels.append(FreeModule(K.ring, 0))
        diffs.append(LinearMap.zero(levels[n], levels[n - 1]))
    return ChainComplex(K.ring, levels, diffs, check=False)


class DegreewiseMap:
    """One linear map per degree between two degree-truncated objects
    over one ring, chain complexes or simplicial modules.

    The constructor checks the ring, the truncation degree, the number
    of components and the shape of each, and with check=True the
    subclass's `_check` that the components commute with the structure
    maps; `kind` names the base category in messages.  Two maps are
    equal when their source and target ranks and their entries are;
    `component` reads the zero map off the ends.
    """

    __slots__ = ("source", "target", "components")

    def __init__(self, source, target, components: Sequence[LinearMap],
                 check: bool = True):
        if source.ring is not target.ring and source.ring != target.ring:
            raise ValueError(f"ring mismatch: source over "
                             f"{source.ring.name()}, target over "
                             f"{target.ring.name()}")
        if source.max_degree != target.max_degree:
            raise ValueError(f"source degree {source.max_degree}, target "
                             f"degree {target.max_degree}: truncated at "
                             f"different degrees; pad first")
        components = tuple(components)
        if len(components) != source.max_degree + 1:
            raise ValueError(f"degrees 0..{source.max_degree} need "
                             f"{source.max_degree + 1} components, got "
                             f"{len(components)}")
        for n, f in enumerate(components):
            if f.source != source.level(n) or f.target != target.level(n):
                raise ValueError(f"component {n} is not a map between the "
                                 f"degree-{n} levels")
        self.source = source
        self.target = target
        self.components = components
        if check:
            self._check()

    def _check(self):
        raise NotImplementedError

    @classmethod
    def identity(cls, A):
        return cls(A, A, [LinearMap.identity(M) for M in A.levels],
                   check=False)

    @classmethod
    def zero(cls, A, B):
        return cls(A, B, [LinearMap.zero(a, b)
                          for a, b in zip(A.levels, B.levels)], check=False)

    def component(self, n: int) -> LinearMap:
        if 0 <= n <= self.source.max_degree:
            return self.components[n]
        return LinearMap.zero(self.source.level(n), self.target.level(n))

    def __matmul__(self, other):
        if other.target.ranks() != self.source.ranks():
            raise ValueError(f"composable {self.kind} maps need matching "
                             f"ranks, got "
                             f"{other.target.ranks()} -> "
                             f"{self.source.ranks()}")
        comps = [compose(a, b) for a, b in zip(self.components,
                                               other.components)]
        return type(self)(other.source, self.target, comps, check=False)

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return (self.source.ranks() == other.source.ranks()
                and self.target.ranks() == other.target.ranks()
                and all(a.entries == b.entries
                        for a, b in zip(self.components, other.components)))

    def __hash__(self):
        return hash((self.source.ranks(), self.target.ranks()))

    def is_zero(self) -> bool:
        return all(f.is_zero() for f in self.components)

    def is_iso(self) -> bool:
        return all(f.is_iso() for f in self.components)

    def inverse(self):
        return type(self)(self.target, self.source,
                          [f.inverse() for f in self.components], check=False)

    def __repr__(self):
        return (f"{type(self).__name__}({self.source.ranks()} -> "
                f"{self.target.ranks()})")


class ChainMap(DegreewiseMap):
    """Degreewise map commuting with the differentials.

    Source and target must share max_degree; use pad() to align.
    """

    __slots__ = ()
    kind = "chain"

    def _check(self):
        source, target, components = self.source, self.target, self.components
        for n in range(1, source.max_degree + 1):
            lhs = compose(target.d(n), components[n])
            rhs = compose(components[n - 1], source.d(n))
            if lhs.entries != rhs.entries:
                raise ValueError(f"does not commute with d at degree {n}")

    def __add__(self, other: "ChainMap") -> "ChainMap":
        comps = [a + b for a, b in zip(self.components, other.components)]
        return ChainMap(self.source, self.target, comps, check=False)

    def __sub__(self, other: "ChainMap") -> "ChainMap":
        comps = [a - b for a, b in zip(self.components, other.components)]
        return ChainMap(self.source, self.target, comps, check=False)


# ---------------------------------------------------------------------------
# tensor products
# ---------------------------------------------------------------------------


def tensor_blocks(K, L, n: int):
    """Summands of (K (x) L)_n as (p, q, offset), in the block rule of
    the object class (`tensor_degrees`): p ascending for chain
    complexes, the one summand (n, n) for simplicial modules."""
    out = []
    off = 0
    for p, q in type(K).tensor_degrees(n):
        if p <= K.max_degree and q <= L.max_degree:
            out.append((p, q, off))
            off += K.level(p).rank * L.level(q).rank
    return out


# The basis of an iterated tensor, chain or simplicial, is read off its
# layout: per degree, {degree tuple: (start, dims, strides)}, one
# strided box per degree tuple of nonzero rank, so that index tuple idx
# sits at flat position start + sum idx[j] * strides[j].  The base is
# the object class Obj of the factors, which the helpers below take or
# read off the objects they are given, never a name: the boxes follow
# its block rule, `Obj.tensor_degrees`, the rule `tensor_blocks` reads
# too.  `_tensor_entries` applies maps to the factors of a tensor and
# permutes them between two layouts, with the Koszul sign where
# `Obj.koszul` says; with identity maps it is `_coherence`, every
# braiding and associator of both base categories, and with two maps
# and no permutation it is `tensor_map` of both.


def _koszul(ring: Ring, degs, sigma):
    """Sign of rearranging graded letters so slot j carries letter
    sigma(j): -1 to the number of pairs of odd letters that the
    rearrangement puts out of order."""
    odd = [a for a in sigma if degs[a] % 2]
    flips = sum(a > b for i, a in enumerate(odd) for b in odd[i + 1:])
    return ring.one if flips % 2 == 0 else ring.normalize(-1)


def _atom_layout(A, max_degree: int):
    """The layout of one object: a single box per degree of nonzero
    rank."""
    ranks = [A.level(n).rank for n in range(max_degree + 1)]
    return [{(n,): (0, (r,), (1,))} if r else {} for n, r in enumerate(ranks)]


def _layout_rank(boxes) -> int:
    return sum(prod(dims) for _, dims, _ in boxes.values())


def _tensor_layout(Obj, left, right):
    """The layout of A (x) B from the layouts of A and B, objects of
    class Obj.

    The summands A_s (x) B_r of degree n follow Obj's block rule,
    `Obj.tensor_degrees(n)`: chain blocks (s, n - s) go s ascending, as
    in `tensor_blocks`, and the simplicial tensor is Kronecker at equal
    degree.  In a summand at offset off, the pair (a, b) sits at
    off + a * rank(B_r) + b, so a box of A and a box of B give the box
    starting at off + start_A * rank(B_r) + start_B, with A's strides
    scaled by rank(B_r) and B's strides as they are.
    """
    left_ranks = [_layout_rank(b) for b in left]
    right_ranks = [_layout_rank(b) for b in right]
    out = []
    for n in range(len(left)):
        boxes, off = {}, 0
        for s, r in Obj.tensor_degrees(n):
            rb = right_ranks[r]
            for dl, (sl, diml, strl) in left[s].items():
                for dr, (sr, dimr, strr) in right[r].items():
                    boxes[dl + dr] = (off + sl * rb + sr, diml + dimr,
                                      tuple(x * rb for x in strl) + strr)
            off += left_ranks[s] * rb
        out.append(boxes)
    return out


def _layout(objs, max_degree: int):
    """The layout in degrees 0..max_degree of the left-associated tensor
    of objs, all of one class: the combinator folded over the factors.
    Its boxes are contiguous row-major runs in ascending start order."""
    out = _atom_layout(objs[0], max_degree)
    for A in objs[1:]:
        out = _tensor_layout(type(A), out, _atom_layout(A, max_degree))
    return out


def _bracketed_layout(objs, tree, max_degree: int):
    """The layout of the tensor of objs, all of one class, bracketed as
    tree: a factor index, or a pair of trees."""
    if isinstance(tree, int):
        return _atom_layout(objs[tree], max_degree)
    return _tensor_layout(type(objs[0]), *(
        _bracketed_layout(objs, t, max_degree) for t in tree))


def _leaves(tree) -> tuple:
    return (tree,) if isinstance(tree, int) else \
        _leaves(tree[0]) + _leaves(tree[1])


def _flat(box, idxs) -> int:
    """Flat position of an index tuple in its box."""
    return box[0] + sum(map(mul, idxs, box[2]))


def _expand(boxes):
    """One degree of a layout as its flat-ordered list of (degree tuple,
    index tuple)."""
    out = [None] * _layout_rank(boxes)
    for degs, box in boxes.items():
        for idxs in product(*map(range, box[1])):
            out[_flat(box, idxs)] = (degs, idxs)
    return out


def _tensor_entries(ring: Ring, Obj, maps, sigma, src_layout, tgt_layout):
    """Per-degree entries of (x)_j maps[j] on a tensor of levels, with
    its factors permuted.

    maps[j] acts on tensor factor j of class Obj; None stands for an
    identity.  sigma, when given, then permutes the factors so that
    target slot j carries source factor sigma(j), with a Koszul sign
    when odd degrees cross and `Obj.koszul` holds (chain complexes; the
    simplicial tensor moves no sign).  src_layout[n] and tgt_layout[n]
    are the layouts of the degree-n bases, with the boxes of rank 0 left
    out.  `_layout` gives them for a left-associated tensor, and
    `_tensor_layout` for any bracketing.  The maps have degree 0, so the
    tensor adds no sign of its own.  Each entry is the Koszul sign (the
    ring's one when there is none) times the entries of the factors that
    are maps: an identity factor passes the coefficient on as it stands,
    with no multiplication by one.  Over Z/p the products are left
    unreduced, for `LinearMap` or a sparse product to reduce.  Over Q
    they go through `exactlin._q_mul`, so a sign or an entry +1 or -1
    passes the other factor through, and every product is a canonical
    Fraction already.

    A source box's image is one strided sum: a tuple of factor entries
    (r_j, c_j) gives the column start + sum c_j * strides[j] and the row
    toff + sum r_j * tstrides[sigma^-1(j)], the factor at target slot
    sigma^-1(j) moving by its target stride, and the Koszul sign is
    taken once per degree tuple.  Each source box has columns of its
    own, and inside it both sums are injective on the index tuples, so
    no two products share a position and none is ever summed or looked
    up: the one path serves every map, however many entries its columns
    hold.  The entries come in the factors' own entry order, factor 0
    outermost, as `exactlin._kron_entries` lists two factors.
    """
    one = ring.one
    q = ring.kind == "Q"
    graded = sigma is not None and Obj.koszul
    inv = permutations.inverse(sigma) if sigma is not None else \
        range(len(maps))
    out = []
    for boxes, tboxes in zip(src_layout, tgt_layout):
        entries = {}
        for degs, (start, dims, strides) in boxes.items():
            tdegs = degs if sigma is None else tuple(degs[j] for j in sigma)
            hit = tboxes.get(tdegs)
            if hit is None:
                # a target factor has rank 0 here, so every column dies
                continue
            toff, _, tstrides = hit
            sign = _koszul(ring, degs, sigma) if graded else one
            acc = [(start, toff, sign)]
            for j, (f, d, cs) in enumerate(zip(maps, degs, strides)):
                rs = tstrides[inv[j]]
                if f is None:
                    steps = [(c * cs, c * rs) for c in range(dims[j])]
                    acc = [(a + c, b + r, u) for a, b, u in acc
                           for c, r in steps]
                else:
                    steps = [(c * cs, r * rs, v)
                             for (r, c), v in f.component(d).entries.items()]
                    if q:
                        acc = [(a + c, b + r, _q_mul(u, v)) for a, b, u in acc
                               for c, r, v in steps]
                    else:
                        acc = [(a + c, b + r, u * v) for a, b, u in acc
                               for c, r, v in steps]
            for a, b, u in acc:
                entries[(b, a)] = u
        out.append(entries)
    return out


def _tensor_components(maps, sigma, src, tgt, src_layout,
                       tgt_layout) -> list:
    """`_tensor_entries` as the degreewise maps src -> tgt, src and tgt
    the tensor objects that the two layouts describe, whose class is
    the factors' class."""
    ents = _tensor_entries(src.ring, type(src), maps, sigma, src_layout,
                           tgt_layout)
    return [LinearMap(src.level(n), tgt.level(n), e)
            for n, e in enumerate(ents)]


def _coherence(layout, src_tree, tgt_tree, src, tgt):
    """The components src -> tgt of the structure map between two
    bracketed tensors of the same factors, each bracketing a tree of
    factor indices, the target's leaves in any order, and layout(tree)
    the layout of the tensor bracketed as tree (`_bracketed_layout`, or
    a memo of its pieces).  By Mac Lane's coherence theorem
    (*Categories for the Working Mathematician*, ch. XI) every composite
    of braidings and associators between them is this one signed
    permutation: `_tensor_entries` of identity maps, with target slot j
    carrying the factor at leaf j of tgt_tree."""
    where = {a: j for j, a in enumerate(_leaves(src_tree))}
    sigma = tuple(where[a] for a in _leaves(tgt_tree))
    return _tensor_components((None,) * len(sigma), sigma, src, tgt,
                              layout(src_tree), layout(tgt_tree))


def tensor(K: ChainComplex, L: ChainComplex, bound: Optional[int] = None) -> ChainComplex:
    """(K (x) L)_n = sum over p+q=n of K_p (x) L_q, Koszul differential.

    The summands follow p ascending (`tensor_blocks`), and in each one
    the basis pair (a, b) of K_p (x) L_q sits at offset + a * rank(L_q) + b.
    d_n is written straight into one entry dict by that offset
    arithmetic, with no identity map or per-block module.  Its entries
    come in this order: source summands p ascending; in each, first the
    d_K (x) 1 block (d_K's entries outer, the basis of L_q inner), then
    the (-1)^p 1 (x) d_L block (the basis of K_p outer, d_L's entries
    inner).  That is the order of the Kronecker route through
    `LinearMap.identity` and `LinearMap.tensor`, and pivoting may read it.
    """
    if K.ring != L.ring:
        raise ValueError("ring mismatch")
    ring = K.ring
    D = K.max_degree + L.max_degree
    if bound is not None:
        D = min(D, bound)
    blocks = [tensor_blocks(K, L, n) for n in range(D + 1)]
    levels = [FreeModule(ring, sum(K.level(p).rank * L.level(q).rank
                                   for p, q, _ in b)) for b in blocks]
    diffs = []
    for n in range(1, D + 1):
        entries = {}
        tgt_off = {(p, q): off for p, q, off in blocks[n - 1]}
        for p, q, off in blocks[n]:
            rq = L.level(q).rank
            to = tgt_off.get((p - 1, q))
            if to is not None:
                for (i, j), v in K.d(p).entries.items():
                    r, c = to + i * rq, off + j * rq
                    for k in range(rq):
                        entries[(r + k, c + k)] = v
            to = tgt_off.get((p, q - 1))
            if to is not None:
                dl = L.d(q).entries.items()
                if p % 2:
                    dl = [(kl, ring.neg(w)) for kl, w in dl]
                rt = L.level(q - 1).rank
                for i in range(K.level(p).rank):
                    r, c = to + i * rt, off + i * rq
                    for (k, l), w in dl:
                        entries[(r + k, c + l)] = w
        diffs.append(LinearMap(levels[n], levels[n - 1], entries))
    return ChainComplex(ring, levels, diffs)


def tensor_map(f: ChainMap, g: ChainMap, bound: Optional[int] = None) -> ChainMap:
    """f (x) g degreewise. Both maps have degree 0, so no signs appear.

    The components are `_tensor_entries` of (f, g) on the two-factor
    layouts (`DegreewiseObject.tensor_maps`): in each block f_p (x) g_q,
    p ascending, f_p's entries outer and g_q's inner, the order of
    `exactlin._kron_entries`.
    """
    return ChainComplex.tensor_maps(f, g, bound)


def tensor_many(factors: Sequence[ChainComplex], bound: Optional[int] = None) -> ChainComplex:
    """Left-associated iterated tensor; empty product is the unit."""
    if not factors:
        raise ValueError("empty tensor product has no ring to live over")
    out = factors[0]
    for F in factors[1:]:
        out = tensor(out, F, bound)
    return out


def tensor_map_many(maps: Sequence[ChainMap], bound: Optional[int] = None) -> ChainMap:
    """Left-associated iterated tensor of maps."""
    if not maps:
        raise ValueError("empty tensor product of maps has no ring to "
                         "live over")
    out = maps[0]
    for g in maps[1:]:
        out = tensor_map(out, g, bound)
    return out


def braiding(K: ChainComplex, L: ChainComplex,
             bound: Optional[int] = None) -> ChainMap:
    """K (x) L -> L (x) K, x (x) y |-> (-1)^{pq} y (x) x: the layouts'
    signed permutation (`_coherence` with sigma = (1, 0)), checked to be
    a chain map."""
    src, tgt = tensor(K, L, bound), tensor(L, K, bound)
    return ChainMap(src, tgt, _coherence(
        lambda t: _bracketed_layout((K, L), t, src.max_degree),
        (0, 1), (1, 0), src, tgt))


def associator(K: ChainComplex, L: ChainComplex, M: ChainComplex,
               bound: Optional[int] = None) -> ChainMap:
    """(K (x) L) (x) M -> K (x) (L (x) M), pure reindexing, no signs:
    `_coherence` from the left bracketing's layout to the right one's,
    checked to be a chain map.

    With a bound the same truncation is applied to every intermediate
    tensor; the surviving triple blocks agree on both sides, so the map
    is still an isomorphism.
    """
    src = tensor(tensor(K, L, bound), M, bound)
    tgt = tensor(K, tensor(L, M, bound), bound)
    return ChainMap(src, tgt, _coherence(
        lambda t: _bracketed_layout((K, L, M), t, src.max_degree),
        ((0, 1), 2), (0, (1, 2)), src, tgt))


def _unitor_components(src, X, max_degree: int) -> list:
    """Levels 0..max_degree of the unitor src = unit (x) X -> X (or
    X (x) unit -> X), chain or simplicial: identity entries, because
    tensoring with a rank-one degree-zero unit never reindexes."""
    return [LinearMap.placed(src.level(n), X.level(n),
                             [(0, 0, LinearMap.identity(X.level(n)))])
            for n in range(max_degree + 1)]


def left_unitor(K: ChainComplex) -> ChainMap:
    """unit (x) K -> K."""
    src = tensor(unit_complex(K.ring), K)
    return ChainMap(src, K, _unitor_components(src, K, K.max_degree))


def right_unitor(K: ChainComplex) -> ChainMap:
    """K (x) unit -> K."""
    src = tensor(K, unit_complex(K.ring))
    return ChainMap(src, K, _unitor_components(src, K, K.max_degree))


# ---------------------------------------------------------------------------
# homology
# ---------------------------------------------------------------------------


class HomologyResult:
    """H_n as a presentation, plus the data needed to map in and out.

    kernel_incl  : cycles -> level(n), the basis `kernel` returns
    kernel_pivots: its pivot rows (`exactlin._pivots`), against which
                   `exactlin._coordinates` reads cycles in its coordinates
    boundaries   : generators of the boundary lattice in cycle coordinates
    presentation : cycles / boundaries
    """

    __slots__ = ("degree", "rank", "invariant_factors", "boundary_unreliable",
                 "kernel_incl", "kernel_pivots", "boundaries", "presentation")

    def __init__(self, degree, kernel_incl, kernel_pivots, boundaries,
                 presentation, boundary_unreliable):
        self.degree = degree
        self.kernel_incl = kernel_incl
        self.kernel_pivots = kernel_pivots
        self.boundaries = boundaries
        self.presentation = presentation
        self.rank = presentation.presentation.free_rank
        self.invariant_factors = presentation.presentation.invariant_factors
        self.boundary_unreliable = boundary_unreliable

    def __repr__(self):
        flag = ", truncation-boundary" if self.boundary_unreliable else ""
        return (f"H_{self.degree} = rank {self.rank}"
                f" + {list(self.invariant_factors)}{flag}")

    def is_zero(self) -> bool:
        return self.rank == 0 and not self.invariant_factors


def homology(K: ChainComplex, n: int) -> HomologyResult:
    """ker(d_n)/im(d_{n+1}); at n == max_degree only a truncation artifact.

    One elimination finds the cycles, `kernel(d_n)`.  The boundaries
    d_{n+1} are then read in cycle coordinates by substitution against
    that basis (`exactlin._coordinates`): over a field it is the
    identity on its free columns, over Z it is in Hermite form.  No
    second elimination solves for them, and the check that the cycle
    basis gives d_{n+1} back raises RuntimeError if it does not.
    """
    if not 0 <= n <= K.max_degree:
        raise ValueError(f"homology degree {n} outside 0..{K.max_degree}")
    cycles, incl = kernel(K.d(n))
    pivots = _pivots(incl)
    try:
        X = _coordinates(incl, pivots, K.d(n + 1))
    except ValueError:
        raise RuntimeError("boundaries must lie in the cycle lattice") from None
    pres = cokernel(X)
    return HomologyResult(n, incl, pivots, X, pres,
                          boundary_unreliable=(n == K.max_degree))


def homology_map(f: ChainMap, n: int):
    """Induced map on degree-n homology, in presentation generators.

    Returns (map, H_src, H_tgt); the map is proj_tgt composed with the lift
    of f through the target cycle lattice, read in its coordinates
    (`exactlin._coordinates`).
    """
    Hs = homology(f.source, n)
    Ht = homology(f.target, n)
    try:
        lifted = _coordinates(Ht.kernel_incl, Ht.kernel_pivots,
                              compose(f.component(n), Hs.kernel_incl))
    except ValueError:
        raise RuntimeError("chain maps send cycles to cycles") from None
    induced = compose(Ht.presentation.proj, lifted)
    return induced, Hs, Ht


def _presentation_iso(induced: LinearMap, Hs: HomologyResult, Ht: HomologyResult) -> bool:
    """Is the induced map an isomorphism of finitely presented modules?

    `induced` goes from the source cycle module to the target presentation
    generators. Surjectivity: image plus target relations spans everything.
    Injectivity: the preimage of the target relation lattice is no bigger
    than the source boundary lattice (the reverse inclusion is automatic).
    """
    rel_t = compose(Ht.presentation.proj, Ht.boundaries)
    big = hstack([induced, rel_t])
    if not cokernel(big).presentation.is_trivial():
        return False
    kmod, kincl = kernel(big)
    # pairs (v, w) with induced v = -rel_t w; drop the w rows. Over Z the
    # kernel is saturated, so the projection is the full preimage lattice.
    pre_entries = {(i, j): v for (i, j), v in kincl.entries.items()
                   if i < induced.source.rank}
    pre = LinearMap(kmod, induced.source, pre_entries)
    return solve(Hs.boundaries, pre) is not None


def is_quasi_iso(f: ChainMap, degrees: Optional[Sequence[int]] = None) -> bool:
    """Does f induce isomorphisms on homology in the given degrees?

    Defaults to all degrees strictly below max_degree (the top one is a
    truncation artifact).
    """
    if degrees is None:
        degrees = range(f.source.max_degree)
    for n in degrees:
        induced, Hs, Ht = homology_map(f, n)
        if not _presentation_iso(induced, Hs, Ht):
            return False
    return True


# ---------------------------------------------------------------------------
# colimits
# ---------------------------------------------------------------------------


class ChainColimit:
    """A finite colimit presented degreewise as a free quotient.

    injections[v] need not be injective; they are the cocone legs, one per
    diagram vertex, in diagram order.
    """

    __slots__ = ("complex", "injections", "_sections", "_projs")

    def __init__(self, complex: ChainComplex, injections, sections, projs):
        self.complex = complex
        self.injections = injections
        self._sections = sections
        self._projs = projs

    def mediating(self, legs: Sequence[ChainMap]) -> ChainMap:
        """The unique map with h . injections[v] = legs[v] for all v.

        Legs are padded to the colimit's degree automatically.
        """
        if len(legs) != len(self.injections):
            raise ValueError(f"{len(legs)} legs for a diagram of "
                             f"{len(self.injections)} vertices")
        D = self.complex.max_degree
        W = pad(legs[0].target, max(D, max(l.target.max_degree for l in legs)))
        if W.max_degree != D:
            raise ValueError("cocone target exceeds colimit truncation")
        legs = [ChainMap(pad(leg.source, D), W,
                         [leg.component(n) for n in range(D + 1)], check=False)
                for leg in legs]
        comps = []
        for n in range(D + 1):
            stacked = hstack([leg.component(n) for leg in legs])
            comps.append(compose(stacked, self._sections[n]))
        h = ChainMap(self.complex, W, comps)
        for v, leg in enumerate(legs):
            if not (h @ self.injections[v]) == leg:
                raise ValueError(f"cocone leg {v} does not factor")
        return h


def diagram_colimit(vertices: Sequence[ChainComplex],
                    edges: Sequence[tuple],
                    ) -> ChainColimit:
    """Colimit of a finite diagram of complexes, degreewise.

    edges are (src_index, tgt_index, ChainMap). The result must be free in
    every degree; torsion raises.
    """
    if not vertices:
        raise ValueError("a diagram colimit needs at least one vertex")
    ring = vertices[0].ring
    D = max(V.max_degree for V in vertices)
    vs = [pad(V, D) for V in vertices]
    es = [(s, t, ChainMap(vs[s], vs[t], [f.component(n) for n in range(D + 1)],
                          check=False))
          for s, t, f in edges]

    levels, projs, sections = [], [], []
    offsets_per_degree = []
    for n in range(D + 1):
        offs, total = [], 0
        for V in vs:
            offs.append(total)
            total += V.level(n).rank
        offsets_per_degree.append(offs)
        big = FreeModule(ring, total)
        cols = []
        for s, t, f in es:
            fe = f.component(n)
            entries = {}
            for (i, j), v in fe.entries.items():
                entries[(offs[t] + i, j)] = v
            for j in range(fe.source.rank):
                key = (offs[s] + j, j)
                entries[key] = ring.sub(entries.get(key, ring.zero), ring.one)
            cols.append(LinearMap(vs[s].level(n), big, entries))
        rel = hstack(cols) if cols else LinearMap.zero(FreeModule(ring, 0), big)
        pres = cokernel(rel)
        if pres.presentation.invariant_factors:
            raise ValueError(f"colimit has torsion at degree {n}; "
                             "not representable as a free complex")
        levels.append(pres.generators)
        projs.append(pres.proj)
        sections.append(pres.section)

    diffs = []
    for n in range(1, D + 1):
        offs_n, offs_m = offsets_per_degree[n], offsets_per_degree[n - 1]
        big_d = LinearMap.placed(projs[n].source, projs[n - 1].source,
                                 [(offs_m[vi], offs_n[vi], V.d(n))
                                  for vi, V in enumerate(vs)])
        diffs.append(compose(compose(projs[n - 1], big_d), sections[n]))
    out = ChainComplex(ring, levels, diffs)

    injections = []
    for vi, V in enumerate(vs):
        comps = []
        for n in range(D + 1):
            incl = LinearMap.placed(V.level(n), projs[n].source, [
                (offsets_per_degree[n][vi], 0, LinearMap.identity(V.level(n)))])
            comps.append(compose(projs[n], incl))
        injections.append(ChainMap(vs[vi], out, comps))
    return ChainColimit(out, injections, sections, projs)


class ChainPushout:
    """Degreewise pushout with its two cocone legs."""

    __slots__ = ("complex", "inl", "inr", "_colim", "_left")

    def __init__(self, colim: ChainColimit, left: ChainMap):
        self.complex = colim.complex
        self.inl = colim.injections[1]
        self.inr = colim.injections[2]
        self._colim = colim
        self._left = left

    def mediating(self, u: ChainMap, v: ChainMap) -> ChainMap:
        """Unique h with h . inl = u and h . inr = v; raises if the cocone
        does not commute."""
        D = self.complex.max_degree
        if u.target.max_degree > D:
            raise ValueError("cocone target exceeds pushout truncation")
        u = ChainMap(pad(u.source, D), pad(u.target, D),
                     [u.component(n) for n in range(D + 1)], check=False)
        v = ChainMap(pad(v.source, D), pad(v.target, D),
                     [v.component(n) for n in range(D + 1)], check=False)
        s_leg = u @ self._left
        return self._colim.mediating([s_leg, u, v])


def pushout_complex(f: ChainMap, g: ChainMap) -> ChainPushout:
    """Pushout of target(f) <- source -> target(g), degreewise.

    >>> from opdk.rings import ZZ
    >>> M = concentrated(ZZ, 0, 1)
    >>> two = ChainMap(M, M, [LinearMap.from_rows(M.level(0), M.level(0), [[2]])])
    >>> pushout_complex(two, ChainMap.identity(M)).complex.ranks()
    (1,)
    """
    if f.source.ranks() != g.source.ranks():
        raise ValueError("source mismatch")
    D = max(f.target.max_degree, g.target.max_degree, f.source.max_degree)
    S = pad(f.source, D)
    B = pad(f.target, D)
    C = pad(g.target, D)
    fb = ChainMap(S, B, [f.component(n) for n in range(D + 1)], check=False)
    gc = ChainMap(S, C, [g.component(n) for n in range(D + 1)], check=False)
    colim = diagram_colimit([S, B, C], [(0, 1, fb), (0, 2, gc)])
    return ChainPushout(colim, fb)


def pushout_product(f: ChainMap, g: ChainMap, bound: Optional[int] = None) -> ChainMap:
    """f square g: from the corner pushout to target(f) (x) target(g)."""
    if f.source.ring != g.source.ring:
        raise ValueError("ring mismatch")
    top = tensor_map(f, ChainMap.identity(g.source), bound)      # X(x)Y -> A(x)Y
    left = tensor_map(ChainMap.identity(f.source), g, bound)     # X(x)Y -> X(x)B
    po = pushout_complex(top, left)
    u = tensor_map(ChainMap.identity(f.target), g, bound)        # A(x)Y -> A(x)B
    v = tensor_map(f, ChainMap.identity(g.target), bound)        # X(x)B -> A(x)B
    return po.mediating(u, v)


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------


def chain_to_json(K: ChainComplex) -> dict:
    return {
        "ring": K.ring.name(),
        "max_degree": K.max_degree,
        "levels": list(K.ranks()),
        "differentials": [matrix_to_json(d) for d in K.differentials],
    }


def chain_from_json(data: dict) -> ChainComplex:
    from .rings import ring_from_name
    name, ranks, diffs = _json_fields(
        data, "a chain complex", ("ring", "levels", "differentials"),
        ("levels", "differentials"))
    ring = ring_from_name(name)
    levels = [FreeModule(ring, r) for r in ranks]
    count = len(diffs)
    if count >= max(len(levels), 1):
        raise ValueError(f"{count} differentials need {count + 1} levels, "
                         f"got {len(levels)}")
    if data.get("max_degree") != len(levels) - 1:
        raise ValueError(f"max_degree {data.get('max_degree')!r} does not "
                         f"match {len(levels)} levels")
    diffs = [_matrix_in_slot(dj, levels[n], levels[n - 1])
             for n, dj in enumerate(diffs, start=1)]
    return ChainComplex(ring, levels, diffs)


# the rules of the base category that are defined after the class body
# (`DegreewiseObject`): its map class and its JSON
ChainComplex.Map = ChainMap
ChainComplex.to_json = chain_to_json
ChainComplex.from_json = staticmethod(chain_from_json)
