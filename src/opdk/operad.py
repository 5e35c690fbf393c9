"""Colored operads valued in chain complexes or simplicial modules.

The data model is deliberately concrete.  A Collection assigns to every
signature (c_1..c_n; c) of colors an object of the base category, with a
right action of the symmetric groups permuting the inputs; an Operad
adds a unit per color and Markl-style partial compositions.  Everything
is truncated: arities above ``max_arity`` and degrees above
``max_degree`` are simply not stored, and every law is checked on the
instances whose participants all fit inside the window.

`operad_check` replays the axioms as matrix identities and returns the
violations instead of a bare boolean, so corrupted inputs are reported
with the exact law and signature that broke.  `composite_product`
realizes M o N on one canonical decorated two-level term per orbit of
the slot permutations, which act freely unless two empty fibers of one
color let a term be fixed; only such a term is divided by its
stabilizer, so no level is a quotient of the whole ordered sum.
`homotopy_category` and `dk_equivalence` implement the degree-zero
homotopy category and the weak-equivalence verdict used to compare an
operad map with its normalization.
"""

from __future__ import annotations

from functools import cached_property
from itertools import combinations_with_replacement, product
from typing import NamedTuple, Optional

from . import permutations
from .chain import (ChainComplex, homology, is_quasi_iso, _atom_layout,
                    _coherence, _layout, _tensor_components, _tensor_entries,
                    _tensor_layout, _unitor_components)
from .simp import SimplicialModule, SimplicialMap, moore_complex
from .exactlin import (CokernelPresentation, FreeModule, LinearMap, cokernel,
                       compose, hstack, matrix_to_json, signed_quotient,
                       _json_fields, _json_list, _matrix_in_slot)
from .rings import Ring, ZZ, ring_from_name
from .doldkan import normalize, normalize_map

__all__ = ["sig_arity", "sig_act", "graft_signature", "enumerate_signatures",
           "sig_str", "perm_block_insert", "perm_inner_insert", "word_graft",
           "word_act", "Collection", "collection_check", "identity_collection",
           "Operad", "operad_check", "OpMorphism", "associative_operad",
           "CompositeTerm", "CompositeResult", "composite_product",
           "restrict_colors", "HoCategory", "homotopy_category", "DKVerdict",
           "dk_equivalence", "integrated_normalize", "operad_to_json",
           "operad_from_json"]


# ---------------------------------------------------------------------------
# signatures
# ---------------------------------------------------------------------------
#
# A signature is ((c_1, .., c_n), c): input colors in order, then the
# output color.  The right action permutes inputs, (sig . s)_j =
# c_{s(j)}, so acting by s and then t is acting by s o t.


def sig_arity(sig) -> int:
    return len(sig[0])


def sig_act(sig, sigma):
    inputs, out = sig
    return (tuple(inputs[sigma[j]] for j in range(len(sigma))), out)


def graft_signature(outer, i, inner):
    """Signature of x o_i y: slot i of the outer inputs is replaced by
    the inner inputs.  Slot indices are 0-based throughout.  A slot out
    of range, or an inner output color other than the slot's, raises
    ValueError naming the key (outer, i, inner)."""
    (o_in, o_out), (i_in, i_out) = outer, inner
    if not isinstance(i, int) or not 0 <= i < len(o_in):
        raise ValueError(f"slot {i!r} of ({sig_str(outer)}, {i!r}, "
                         f"{sig_str(inner)}) is out of range")
    if o_in[i] != i_out:
        raise ValueError(f"inner output color of ({sig_str(outer)}, {i}, "
                         f"{sig_str(inner)}) does not match its slot")
    return (o_in[:i] + i_in + o_in[i + 1:], o_out)


def enumerate_signatures(colors, max_arity: int, min_arity: int = 0):
    for n in range(min_arity, max_arity + 1):
        for inputs in product(colors, repeat=n):
            for out in colors:
                yield (inputs, out)


def sig_str(sig) -> str:
    return ",".join(str(c) for c in sig[0]) + "->" + str(sig[1])


def perm_block_insert(sigma, i: int, m: int):
    """The permutation relating (x.sigma) o_i y to x o_{sigma(i)} y.

    Slot i of x.sigma is slot sigma(i) of x; inserting an m-slot block
    there and renumbering gives a permutation of k+m-1 letters.

    >>> perm_block_insert((1, 0), 0, 2)
    (1, 2, 0)
    """
    k = len(sigma)
    si = sigma[i]

    def adj(v):
        return v if v < si else v + m - 1

    out = []
    for t in range(k + m - 1):
        if t < i:
            out.append(adj(sigma[t]))
        elif t < i + m:
            out.append(si + t - i)
        else:
            out.append(adj(sigma[t - m + 1]))
    return tuple(out)


def perm_inner_insert(k: int, i: int, tau):
    """tau acting inside the block of slot i, identity elsewhere.

    >>> perm_inner_insert(2, 0, (1, 0))
    (1, 0, 2)
    """
    out = list(range(k + len(tau) - 1))
    for s, v in enumerate(tau):
        out[i + s] = i + v
    return tuple(out)


def word_graft(w, i: int, v):
    """Substitution of linear orders: the word v replaces letter i of w.

    Letters of w above i are shifted to make room; v's letters come in
    shifted by i.  This is the partial composition of the regular
    representation basis.

    >>> word_graft((1, 0), 0, (0, 1))
    (2, 0, 1)
    >>> word_graft((0, 1), 1, ())
    (0,)
    """
    m = len(v)
    out = []
    for l in w:
        if l < i:
            out.append(l)
        elif l == i:
            out.extend(x + i for x in v)
        else:
            out.append(l + m - 1)
    return tuple(out)


def word_act(w, sigma):
    """Right action on linear orders by relabeling letters."""
    inv = permutations.inverse(sigma)
    return tuple(inv[l] for l in w)


# ---------------------------------------------------------------------------
# base category shims
# ---------------------------------------------------------------------------
#
# Everything downstream is written against this tiny interface so that
# chain complexes and simplicial modules are handled by the same code.
# The base is its object class `Obj`, `chain.ChainComplex` or
# `simp.SimplicialModule`, and the one shim `_Ops` reads off it what
# the two bases do differently: the map class `Map`, the free object on
# a rank (`free`: concentrated in degree 0 over chains, constant over
# simplicial modules; the unit is free(1)), the tensor of two objects
# and of two maps with its ranks, and the block rule and signs of a
# tensor layout (`chain._tensor_layout`).  `_ops_for` is the one place
# where a base name, the `base` of a `Collection` and of the JSON
# documents, becomes its class.  The direct sum is written once over
# `Obj`, the shared `chain.DegreewiseObject`: `direct_sum` lays out
# every sum of the operad code, and maps between sums are placed by its
# offsets.  Every degreewise map is built here: `maps` from per-degree
# entries, `constant` from one entry table placed in each degree where
# the free objects live, and `make_map` from finished components;
# `identity`, `zero_map` and `check_map` are written once over `Map`,
# the shared `chain.DegreewiseMap`.  The braidings and associators of
# both bases are not here but come from the tensor layouts
# (`chain._coherence`).

_BASES = {"chain": ChainComplex, "simplicial": SimplicialModule}


class _Ops:
    def __init__(self, Obj, ring: Ring, max_degree: int):
        self.Obj, self.Map = Obj, Obj.Map
        self.ring = ring
        self.max_degree = max_degree

    def free(self, rank: int):
        return self.Obj.free(self.ring, self.max_degree, rank)

    def zero_obj(self):
        return self.free(0)

    def unit_obj(self):
        return self.free(1)

    @cached_property
    def free_degrees(self):
        """Whether the free objects live in degree n, for each n."""
        return [bool(r) for r in self.unit_obj().ranks()]

    def is_zero(self, A) -> bool:
        return not any(A.ranks())

    def tensor(self, A, B):
        return self.Obj.tensor_objects(A, B, self.max_degree)

    def tensor_ranks(self, A, B):
        """The ranks of `tensor(A, B)`, without building it: degree n, up
        to max_degree, sums the blocks of Obj's rule that both factors
        reach.  The degrees that some block reaches run from 0 up, and
        the tensor stops where they do."""
        a, b = A.ranks(), B.ranks()
        blocks = [[a[s] * b[r] for s, r in self.Obj.tensor_degrees(n)
                   if s < len(a) and r < len(b)]
                  for n in range(self.max_degree + 1)]
        return tuple(sum(x) for x in blocks if x)

    def tensor_map(self, f, g):
        return self.Obj.tensor_maps(f, g, self.max_degree)

    def direct_sum(self, objs):
        """The direct sum of objs and each summand's per-degree offsets:
        the canonical terms of a composite level, the classes of a free
        level and an extension stage with the cells it attaches are
        summed here (`chain.DegreewiseObject.block_sum`)."""
        return self.Obj.block_sum(self.ring, self.max_degree, objs)

    def identity(self, A):
        return self.Map.identity(A)

    def zero_map(self, A, B):
        return self.Map.zero(A, B)

    def make_map(self, A, B, comps):
        return self.Map(A, B, comps, check=False)

    def maps(self, A, B, entries):
        """The map A -> B whose degree-n component holds entries[n]."""
        return self.make_map(A, B, [LinearMap(A.level(n), B.level(n), e)
                                    for n, e in enumerate(entries)])

    def constant(self, A, B, entries):
        """The map A -> B holding entries in every degree where the free
        objects live (`free_degrees`)."""
        return self.maps(A, B, [entries if live else {}
                                for live in self.free_degrees])

    def check_map(self, f):
        self.Map(f.source, f.target, f.components)


def _ops_for(base, ring: Ring, max_degree: int) -> _Ops:
    """The shim of the base category that base names, "chain" or
    "simplicial"; any other value raises ValueError."""
    Obj = _BASES.get(base) if type(base) is str else None
    if Obj is None:
        raise ValueError(f"unknown base category {base!r}")
    return _Ops(Obj, ring, max_degree)


def _tensor_many(ops, objs):
    out = objs[0]
    for A in objs[1:]:
        out = ops.tensor(out, A)
    return out


class _Replay:
    """The tensor objects, their layouts and the structure maps of one
    law replay, each built once per distinct value.

    Wraps the ops of operad P's collection.  Objects are shared by
    value: `rep` answers, for each object it is given, the first object
    of this replay equal to it (`__eq__`, which compares ranks and
    matrices), so the levels of different signatures and the sources of
    different compositions that are equal meet in one memo entry.
    Tensor objects, each with its two-factor layout for `tensor_map`,
    the reorderings of three factors (`reordered`: the associator and
    the parallel-associativity mediator), unitors and identities are
    memoized by the representatives of their inputs; tensor maps by
    the identity of their two maps; the unit object once, and the zero
    compositions by their signatures.  Layouts are memoized by the
    ranks of their factors (`layout`).  Each memo entry holds its
    inputs, so no id is reused while the memo lives, and nothing
    outlives it: `operad_check` makes one per call.  Every reordering
    is checked to be a chain or simplicial map.
    """

    __slots__ = ("P", "ops", "_memo", "_reps")

    def __init__(self, P):
        self.P, self.ops, self._memo, self._reps = P, P.ops, {}, {}

    def _once(self, key, inputs, build):
        hit = self._memo.get(key)
        if hit is None:
            hit = self._memo[key] = (inputs, build())
        return hit[1]

    def rep(self, A):
        """The first object of this replay equal to A by value."""
        return self._once(("rep", id(A)), (A,),
                          lambda: self._reps.setdefault(A, A))

    def tensor(self, A, B):
        return self._tensor(A, B)[0]

    def _tensor(self, A, B):
        """A (x) B and its two-factor layout, in one memo entry."""
        A, B = self.rep(A), self.rep(B)
        return self._once(("tensor", id(A), id(B)), (A, B), lambda: (
            self.ops.tensor(A, B), self.layout((A, B), (0, 1))))

    def identity(self, X):
        X = self.rep(X)
        return self._once(("identity", id(X)), (X,),
                          lambda: self.ops.identity(X))

    def layout(self, objs, tree):
        """The layout of the tensor of objs bracketed as tree, a factor
        index or a pair of trees, as `chain._bracketed_layout` builds
        it: an atom's from `chain._atom_layout`, a pair's from its
        halves' through `chain._tensor_layout`.  A layout depends on the
        factors' ranks alone, so it is memoized under tree with each
        index replaced by its object's ranks, and objects of equal ranks,
        such as the sources of different compositions, share it."""
        def ranks(t):
            return objs[t].ranks() if isinstance(t, int) else \
                (ranks(t[0]), ranks(t[1]))

        def build():
            ops = self.ops
            if isinstance(tree, int):
                return _atom_layout(objs[tree], ops.max_degree)
            return _tensor_layout(ops.Obj, self.layout(objs, tree[0]),
                                  self.layout(objs, tree[1]))
        return self._once(("layout", ranks(tree)), (), build)

    def tensor_map(self, f, g):
        """f (x) g between the memoized tensors, on their memoized
        two-factor layouts (`chain._tensor_components`)."""
        def build():
            ops = self.ops
            (src, slay), (tgt, tlay) = (self._tensor(f.source, g.source),
                                        self._tensor(f.target, g.target))
            return ops.make_map(src, tgt, _tensor_components(
                (f, g), None, src, tgt, slay, tlay))
        return self._once(("tensor_map", id(f), id(g)), (f, g), build)

    def reordered(self, X, Y, Z, tree):
        """(X (x) Y) (x) Z -> the tensor of the same factors bracketed
        and ordered as tree, a nest of pairs of the factor indices 0, 1
        and 2: the associator for (0, (1, 2)), and for ((0, 2), 1) the
        mediator x (x) y (x) z |-> (-1)^{|y||z|} x (x) z (x) y of
        parallel associativity, in one signed permutation
        (`chain._coherence` on the memoized layouts)."""
        X, Y, Z = self.rep(X), self.rep(Y), self.rep(Z)

        def build():
            ops, objs = self.ops, (X, Y, Z)
            src = self.tensor(self.tensor(X, Y), Z)

            def obj(t):
                return objs[t] if isinstance(t, int) else \
                    self.tensor(obj(t[0]), obj(t[1]))
            tgt = obj(tree)
            f = ops.make_map(src, tgt, _coherence(
                lambda t: self.layout(objs, t), ((0, 1), 2), tree, src, tgt))
            ops.check_map(f)
            return f
        return self._once(("reordered", tree, id(X), id(Y), id(Z)),
                          (X, Y, Z), build)

    def unitor(self, X, side: str):
        """unit (x) X -> X (or X (x) unit -> X), from
        `chain._unitor_components`."""
        X = self.rep(X)

        def build():
            ops = self.ops
            u = self._once(("unit",), (), ops.unit_obj)
            src = self.tensor(u, X) if side == "left" else self.tensor(X, u)
            return ops.make_map(src, X, _unitor_components(
                src, X, ops.max_degree))
        return self._once(("unitor", side, id(X)), (X,), build)

    def composition(self, osig, i: int, isig):
        """`P.composition`, with its zero maps built once."""
        key = ((tuple(osig[0]), osig[1]), i, (tuple(isig[0]), isig[1]))
        f = self.P.compositions.get(key)
        if f is not None:
            return f
        M = self.P.collection
        return self._once(("zero",) + key, (), lambda: self.ops.zero_map(
            self.tensor(M.level(key[0]), M.level(key[2])),
            M.level(graft_signature(*key))))


# ---------------------------------------------------------------------------
# collections
# ---------------------------------------------------------------------------


class Collection:
    """Signature-indexed levels with a right symmetric-group action.

    levels maps signatures to objects of the base category that base
    names, "chain" or "simplicial", over ring: another name, or a level
    of another class or over another ring, raises ValueError.  Zero
    objects are dropped, an absent signature over the known colors is
    the zero object, and a color outside ``colors`` raises ValueError.
    For each level of arity n, actions[sig] holds the generators: the
    map level(sig) -> level(sig.s) for each s in
    ``permutations.transpositions(n)``.  The
    constructor raises ValueError on a missing generator, a key that is
    not an adjacent transposition, a generator onto a signature with no
    level or of the wrong shape, and a Coxeter relation broken along its
    path of signatures.  `action` builds any other permutation when
    first asked and keeps it in actions[sig], so read the action through
    it.  Actions at absent signatures are ignored.
    """

    __slots__ = ("ring", "base", "ops", "colors", "max_arity", "max_degree",
                 "levels", "actions", "truncated")

    def __init__(self, ring: Ring, base: str, colors, max_arity: int,
                 max_degree: int, levels: dict, actions: Optional[dict] = None,
                 truncated: bool = False):
        self.ring = ring
        self.base = base
        self.ops = _ops_for(base, ring, max_degree)
        self.colors = tuple(colors)
        for i, c in enumerate(self.colors):
            if c in self.colors[:i]:
                raise ValueError(f"color {c!r} is listed twice")
        self.max_arity = max_arity
        self.max_degree = max_degree
        self.truncated = truncated
        self.levels = {}
        Obj = self.ops.Obj
        for sig, obj in levels.items():
            sig = (tuple(sig[0]), sig[1])
            if sig_arity(sig) > max_arity:
                raise ValueError(f"arity above bound at {sig_str(sig)}")
            self._check_colors(sig)
            if type(obj) is not Obj or (obj.ring is not ring
                                        and obj.ring != ring):
                raise ValueError(f"level {sig_str(sig)} is {obj!r}, not a "
                                 f"{Obj.__name__} over {ring.name()}")
            if obj.max_degree != max_degree:
                raise ValueError(f"level {sig_str(sig)} truncated at the "
                                 f"wrong degree")
            if not self.ops.is_zero(obj):
                self.levels[sig] = obj
        self.actions = {sig: dict((actions or {}).get(sig, {}))
                        for sig in self.levels}
        for sig, obj in self.levels.items():
            row = self.actions[sig]
            adjacent = permutations.transpositions(sig_arity(sig))
            for g in set(row) - set(adjacent):
                raise ValueError(f"action key {g} at {sig_str(sig)} is not "
                                 f"an adjacent transposition")
            for g in adjacent:
                tsig = sig_act(sig, g)
                if g not in row:
                    raise ValueError(f"missing action generator {g} at "
                                     f"{sig_str(sig)}")
                if tsig not in self.levels:
                    raise ValueError(f"action generator {g} sends "
                                     f"{sig_str(sig)} to {sig_str(tsig)}, "
                                     f"which has no level")
                if (row[g].source.ranks(), row[g].target.ranks()) != \
                        (obj.ranks(), self.levels[tsig].ranks()):
                    raise ValueError(f"action generator {g} at "
                                     f"{sig_str(sig)} has the wrong shape")
        # the Coxeter relations present S_n, so read along every path of
        # signatures they present the groupoid of S_n acting on them
        for sig in self.levels:
            s = permutations.transpositions(sig_arity(sig))
            for i, a in enumerate(s):
                for j, b in enumerate(s[i:], i):
                    # s_i s_i = 1, the braid relation, far commutation
                    u, v = ((a, a), ()) if j == i else \
                        ((a, b, a), (b, a, b)) if j == i + 1 else \
                        ((a, b), (b, a))
                    (f, p), (g, _) = self._path(sig, u), self._path(sig, v)
                    if f != g:
                        raise ValueError(f"action generators inconsistent "
                                         f"at {sig_str(sig)}, permutation {p}")

    def _path(self, sig, word):
        """(map, permutation) of the generators along word from sig."""
        f, p = None, permutations.identity(sig_arity(sig))
        for g in word:
            h = self.actions[sig_act(sig, p)][g]
            f, p = (h if f is None else h @ f), permutations.compose(p, g)
        return (self.ops.identity(self.levels[sig]) if f is None else f), p

    def _check_colors(self, sig):
        for c in sig[0] + (sig[1],):
            if c not in self.colors:
                raise ValueError(f"unknown color {c!r} in signature "
                                 f"{sig_str(sig)}; colors are {self.colors}")

    def level(self, sig):
        sig = (tuple(sig[0]), sig[1])
        obj = self.levels.get(sig)
        if obj is None:
            self._check_colors(sig)
            return self.ops.zero_obj()
        return obj

    def is_zero_level(self, sig) -> bool:
        sig = (tuple(sig[0]), sig[1])
        if sig in self.levels:
            return False
        self._check_colors(sig)
        return True

    def action(self, sig, sigma):
        sig = (tuple(sig[0]), sig[1])
        n = sig_arity(sig)
        if len(sigma) != n:
            raise ValueError(f"permutation {tuple(sigma)} has the wrong "
                             f"length for {sig_str(sig)}")
        if set(sigma) != set(range(n)):
            raise ValueError(f"{tuple(sigma)} is not a permutation of "
                             f"range({n})")
        if sig not in self.levels:
            return self.ops.zero_map(self.level(sig), self.level(sig_act(sig, sigma)))
        sigma, table = tuple(sigma), self.actions[sig]
        f = table.get(sigma)
        if f is None:
            # a right descent sigma = rho s_i, rho one inversion shorter
            i = next((i for i in range(n - 1) if sigma[i] > sigma[i + 1]),
                     None)
            if i is None:
                f = self.ops.identity(self.levels[sig])
            else:
                rho = sigma[:i] + (sigma[i + 1], sigma[i]) + sigma[i + 2:]
                f = self.actions[sig_act(sig, rho)][
                    permutations.transposition(n, i)] @ self.action(sig, rho)
            table[sigma] = f
        return f

    def signatures(self):
        idx = {c: i for i, c in enumerate(self.colors)}
        return sorted(self.levels,
                      key=lambda s: (len(s[0]), tuple(idx[c] for c in s[0]),
                                     idx[s[1]]))


def _action_fault(M: Collection, sig, s):
    """Why action(sig, s) is not a map of the right shape onto the
    level of sig.s, or None."""
    tsig = sig_act(sig, s)
    if M.is_zero_level(tsig):
        return "orbit-not-closed"
    try:
        f = M.action(sig, s)
    except KeyError:
        return "action-missing"
    except ValueError:
        return "action-shape"  # generators on the way do not compose
    if (f.source.ranks(), f.target.ranks()) != \
            (M.level(sig).ranks(), M.level(tsig).ranks()):
        return "action-shape"
    try:
        M.ops.check_map(f)
    except ValueError:
        return "action-not-a-map"
    return None


def collection_check(M: Collection) -> list:
    """Violations of the right-action laws, empty iff valid.

    The n! oracle for the Coxeter relations that the constructor checks,
    and the audit of generators edited since: every permutation, read
    through `Collection.action`, must be a map onto the permuted
    signature's level (`_action_fault`), and each generator after it
    must act as the product permutation.
    """
    out = []
    broken = set()
    for sig in M.signatures():
        for s in permutations.all_permutations(sig_arity(sig)):
            fault = _action_fault(M, sig, s)
            if fault:
                out.append((fault, sig, s))
                broken.add(sig)
    for sig in M.signatures():
        n = sig_arity(sig)
        perms = permutations.all_permutations(n)
        if sig in broken or any(sig_act(sig, s) in broken for s in perms):
            continue
        for s in perms:
            for g in permutations.transpositions(n):
                if M.action(sig, permutations.compose(s, g)) != \
                        M.action(sig_act(sig, s), g) @ M.action(sig, s):
                    out.append(("action-law", sig, s, g))
    return out


def identity_collection(ring: Ring, base: str, colors, max_arity: int,
                        max_degree: int) -> Collection:
    """The monoidal unit: a rank-one object on each (c; c), zero elsewhere."""
    ops = _ops_for(base, ring, max_degree)
    levels = {((c,), c): ops.unit_obj() for c in colors}
    return Collection(ring, base, colors, max_arity, max_degree, levels)


# ---------------------------------------------------------------------------
# operads
# ---------------------------------------------------------------------------


class Operad:
    """A Collection plus units and partial compositions.

    compositions is keyed by (outer_sig, slot, inner_sig) and holds the
    map level(outer) (x) level(inner) -> level(grafted signature).
    Missing keys are zero maps, which is how nilpotent structure is
    written down.  Laws live in operad_check, not the constructor.
    """

    __slots__ = ("collection", "units", "compositions")

    def __init__(self, collection: Collection, units: dict, compositions: dict):
        self.collection = collection
        ops = collection.ops
        self.units = dict(units)
        for c in collection.colors:
            if c not in self.units:
                raise ValueError(f"no unit for color {c!r}")
            usig = ((c,), c)
            if collection.is_zero_level(usig):
                raise ValueError(f"unit level {sig_str(usig)} is zero")
            u = self.units[c]
            if u.source.ranks() != ops.unit_obj().ranks():
                raise ValueError(f"unit source mismatch at color {c!r}")
            if u.target.ranks() != collection.level(usig).ranks():
                raise ValueError(f"unit target mismatch at color {c!r}")
        self.compositions = {}
        for (osig, i, isig), f in compositions.items():
            osig = (tuple(osig[0]), osig[1])
            isig = (tuple(isig[0]), isig[1])
            gsig = graft_signature(osig, i, isig)
            where = f"({sig_str(osig)}, {i}, {sig_str(isig)})"
            if sig_arity(gsig) > collection.max_arity:
                raise ValueError(f"composite {sig_str(gsig)} leaves the "
                                 f"arity window")
            if f.source.ranks() != ops.tensor_ranks(collection.level(osig),
                                                   collection.level(isig)):
                raise ValueError(f"composition source mismatch at {where}")
            if f.target.ranks() != collection.level(gsig).ranks():
                raise ValueError(f"composition target mismatch at {where}")
            if not f.is_zero():
                self.compositions[(osig, i, isig)] = f

    @property
    def ops(self):
        return self.collection.ops

    @property
    def ring(self):
        return self.collection.ring

    def composition(self, osig, i: int, isig):
        osig = (tuple(osig[0]), osig[1])
        isig = (tuple(isig[0]), isig[1])
        key = (osig, i, isig)
        if key in self.compositions:
            return self.compositions[key]
        gsig = graft_signature(osig, i, isig)
        src = self.ops.tensor(self.collection.level(osig),
                              self.collection.level(isig))
        return self.ops.zero_map(src, self.collection.level(gsig))

    def unit(self, color):
        return self.units[color]


def _composable(P: Operad, osig, i, isig) -> bool:
    return (osig[0][i] == isig[1]
            and sig_arity(osig) + sig_arity(isig) - 1 <= P.collection.max_arity)


def operad_check(P: Operad) -> list:
    """Replay every axiom instance inside the truncation window.

    Returns (kind, data...) tuples: action laws from the underlying
    collection, unit laws, sequential and parallel associativity, and
    equivariance against adjacent transpositions on both sides.  An
    empty list is the validity certificate.

    Every law instance is evaluated and compared.  The structure maps
    they compare come from a `_Replay`, a memo local to this call:
    objects are shared by value, so levels and composition sources that
    are equal, though built apart, are one object to it, and each tensor
    object, identity, unitor and reordering of three factors is built
    once per distinct value of its inputs, and each tensor map once per
    pair of maps.  Nothing is shared between calls: the memo is dropped
    when the call returns.  A reordering is one signed
    permutation of the tensor layouts: the associator, and for parallel
    associativity the map (X (x) Y) (x) Z -> (X (x) Z) (x) Y, with no
    braiding or inverse associator composed in.  A broken internal
    invariant raises RuntimeError.
    """
    M = P.collection
    ops = M.ops
    out = list(collection_check(M))
    sigs = M.signatures()

    for c in M.colors:
        try:
            ops.check_map(P.unit(c))
        except ValueError:
            out.append(("unit-not-a-map", c))
    for key, f in P.compositions.items():
        try:
            ops.check_map(f)
        except ValueError:
            out.append(("composition-not-a-map", key))
    if out:
        return out

    R = _Replay(P)
    for sig in sigs:
        lev = M.level(sig)
        c = sig[1]
        left = R.composition(((c,), c), 0, sig) @ R.tensor_map(
            P.unit(c), R.identity(lev))
        if left != R.unitor(lev, "left"):
            out.append(("unit-left", sig))
        for i, ci in enumerate(sig[0]):
            right = R.composition(sig, i, ((ci,), ci)) @ R.tensor_map(
                R.identity(lev), P.unit(ci))
            if right != R.unitor(lev, "right"):
                out.append(("unit-right", sig, i))

    pairs = [(osig, i, isig)
             for osig in sigs for isig in sigs
             for i in range(sig_arity(osig))
             if _composable(P, osig, i, isig)]

    for osig, i, isig in pairs:
        X, Y = M.level(osig), M.level(isig)
        mid = graft_signature(osig, i, isig)
        m = sig_arity(isig)
        # z into a slot of y: sequential associativity
        for zsig in sigs:
            for j in range(m):
                if not _composable(P, isig, j, zsig):
                    continue
                if sig_arity(mid) + sig_arity(zsig) - 1 > M.max_arity:
                    continue
                Z = M.level(zsig)
                lhs = R.composition(mid, i + j, zsig) @ R.tensor_map(
                    R.composition(osig, i, isig), R.identity(Z))
                inner = graft_signature(isig, j, zsig)
                rhs = R.composition(osig, i, inner) @ R.tensor_map(
                    R.identity(X), R.composition(isig, j, zsig))
                if lhs != rhs @ R.reordered(X, Y, Z, (0, (1, 2))):
                    out.append(("assoc-seq", osig, i, isig, j, zsig))
        # z into a later slot of x: parallel associativity
        for zsig in sigs:
            for j in range(i + 1, sig_arity(osig)):
                if not _composable(P, osig, j, zsig):
                    continue
                if sig_arity(mid) + sig_arity(zsig) - 1 > M.max_arity:
                    continue
                Z = M.level(zsig)
                mid2 = graft_signature(osig, j, zsig)
                if sig_arity(mid2) + m - 1 > M.max_arity:
                    continue
                tot1 = graft_signature(mid, j + m - 1, zsig)
                tot2 = graft_signature(mid2, i, isig)
                if tot1 != tot2:
                    raise RuntimeError("parallel grafts disagree on the "
                                       "signature")
                lhs = R.composition(mid, j + m - 1, zsig) @ R.tensor_map(
                    R.composition(osig, i, isig), R.identity(Z))
                rhs = R.composition(mid2, i, isig) @ R.tensor_map(
                    R.composition(osig, j, zsig), R.identity(Y))
                if lhs != rhs @ R.reordered(X, Y, Z, ((0, 2), 1)):
                    out.append(("assoc-par", osig, i, j, isig, zsig))

    for osig, i, isig in pairs:
        X, Y = M.level(osig), M.level(isig)
        k, m = sig_arity(osig), sig_arity(isig)
        # outer equivariance against adjacent transpositions of the outer slots
        for t in range(k - 1):
            s = permutations.transposition(k, t)
            ssig = sig_act(osig, s)
            if ssig[0][i] != isig[1]:
                continue
            rho = perm_block_insert(s, i, m)
            gs = graft_signature(osig, s[i], isig)
            if sig_act(gs, rho) != graft_signature(ssig, i, isig):
                raise RuntimeError("outer block insertion disagrees on the "
                                   "signature")
            lhs = R.composition(ssig, i, isig) @ R.tensor_map(
                M.action(osig, s), R.identity(Y))
            rhs = M.action(gs, rho) @ R.composition(osig, s[i], isig)
            if lhs != rhs:
                out.append(("equiv-outer", osig, i, isig, s))
        # inner equivariance against transpositions of the inner slots
        for t in range(m - 1):
            s = permutations.transposition(m, t)
            rho = perm_inner_insert(k, i, s)
            gs = graft_signature(osig, i, isig)
            if sig_act(gs, rho) != graft_signature(osig, i,
                                                   sig_act(isig, s)):
                raise RuntimeError("inner block insertion disagrees on the "
                                   "signature")
            lhs = R.composition(osig, i, sig_act(isig, s)) @ R.tensor_map(
                R.identity(X), M.action(isig, s))
            rhs = M.action(gs, rho) @ R.composition(osig, i, isig)
            if lhs != rhs:
                out.append(("equiv-inner", osig, i, isig, s))
    return out


# ---------------------------------------------------------------------------
# morphisms
# ---------------------------------------------------------------------------


class OpMorphism:
    """Color map plus level maps preserving all the structure.

    level_maps holds sig -> map level_P(sig) -> level_Q(alpha . sig) for
    the nonzero source levels; everything else is the zero map.  The
    constructor verifies preservation of units, compositions, and the
    symmetric action, and raises on the first failure.
    """

    __slots__ = ("source", "target", "color_map", "level_maps")

    def __init__(self, source: Operad, target: Operad, color_map: dict,
                 level_maps: dict, check: bool = True):
        S, T = source.collection, target.collection
        if S.base != T.base:
            raise ValueError(f"{S.base} source, {T.base} target")
        if source.ring != target.ring:
            raise ValueError(f"source over {source.ring.name()}, target "
                             f"over {target.ring.name()}")
        if S.max_degree != T.max_degree:
            raise ValueError(f"source degree {S.max_degree}, target degree "
                             f"{T.max_degree}")
        if S.max_arity > T.max_arity:
            raise ValueError(f"source arity {S.max_arity} exceeds target "
                             f"arity {T.max_arity}")
        self.source = source
        self.target = target
        self.color_map = dict(color_map)
        for c in S.colors:
            if self.color_map.get(c) not in T.colors:
                raise ValueError(f"color {c!r} is not mapped")
        self.level_maps = {}
        for sig, f in level_maps.items():
            sig = (tuple(sig[0]), sig[1])
            if f.source.ranks() != S.level(sig).ranks() or \
                    f.target.ranks() != T.level(self.map_sig(sig)).ranks():
                raise ValueError(f"level map at {sig_str(sig)} has the "
                                 f"wrong shape")
            self.level_maps[sig] = f
        if check:
            self._check()

    def map_sig(self, sig):
        a = self.color_map
        return (tuple(a[c] for c in sig[0]), a[sig[1]])

    def level_map(self, sig):
        sig = (tuple(sig[0]), sig[1])
        if sig in self.level_maps:
            return self.level_maps[sig]
        return self.source.ops.zero_map(
            self.source.collection.level(sig),
            self.target.collection.level(self.map_sig(sig)))

    def _check(self):
        P, Q = self.source, self.target
        ops = P.ops
        for c in P.collection.colors:
            lhs = self.level_map(((c,), c)) @ P.unit(c)
            if lhs != Q.unit(self.color_map[c]):
                raise ValueError(f"unit of color {c!r} is not preserved")
        sigs = P.collection.signatures()
        for sig in sigs:
            n = sig_arity(sig)
            for t in range(n - 1):
                s = permutations.transposition(n, t)
                lhs = self.level_map(sig_act(sig, s)) @ P.collection.action(sig, s)
                rhs = Q.collection.action(self.map_sig(sig), s) @ self.level_map(sig)
                if lhs != rhs:
                    raise ValueError(
                        f"action not preserved at {sig_str(sig)}, swap {t}")
        for osig in sigs:
            for isig in sigs:
                for i in range(sig_arity(osig)):
                    if not _composable(P, osig, i, isig):
                        continue
                    gsig = graft_signature(osig, i, isig)
                    lhs = self.level_map(gsig) @ P.composition(osig, i, isig)
                    rhs = Q.composition(self.map_sig(osig), i, self.map_sig(isig)) \
                        @ ops.tensor_map(self.level_map(osig), self.level_map(isig))
                    if lhs != rhs:
                        raise ValueError(
                            f"composition not preserved at "
                            f"({sig_str(osig)}, {i}, {sig_str(isig)})")

    @classmethod
    def identity(cls, P: Operad) -> "OpMorphism":
        ops = P.ops
        return cls(P, P, {c: c for c in P.collection.colors},
                   {sig: ops.identity(P.collection.level(sig))
                    for sig in P.collection.signatures()}, check=False)

    def __matmul__(self, other: "OpMorphism") -> "OpMorphism":
        if other.target is not self.source and \
                other.target.collection.levels.keys() != \
                self.source.collection.levels.keys():
            raise ValueError("composed morphisms do not meet: the first "
                             "one's target has other levels than the "
                             "second one's source")
        cmap = {c: self.color_map[v] for c, v in other.color_map.items()}
        maps = {sig: self.level_map(other.map_sig(sig)) @ other.level_map(sig)
                for sig in other.source.collection.signatures()}
        return OpMorphism(other.source, self.target, cmap, maps, check=False)


# ---------------------------------------------------------------------------
# the regular-representation operad
# ---------------------------------------------------------------------------


def associative_operad(ring: Ring, base: str = "chain", max_arity: int = 3,
                       max_degree: int = 0, unital: bool = False,
                       color: str = "x") -> Operad:
    """Arity n carries the free module on all linear orders of n letters.

    Composition substitutes words, the action relabels letters.  With
    ``unital`` the empty word appears in arity 0 and composing with it
    deletes a letter.
    """
    ops = _ops_for(base, ring, max_degree)

    def words(n):
        return permutations.all_permutations(n) if n or not unital else [()]

    arities = range(0 if unital else 1, max_arity + 1)
    levels = {((color,) * n, color): ops.free(len(words(n))) for n in arities}

    actions = {}
    for n in arities:
        sig = ((color,) * n, color)
        ws = words(n)
        index = {w: i for i, w in enumerate(ws)}
        actions[sig] = {}
        for s in permutations.transpositions(n):
            relabel = {(index[word_act(w, s)], j): ring.one
                       for j, w in enumerate(ws)}
            actions[sig][s] = ops.constant(levels[sig], levels[sig],
                                           relabel)

    coll = Collection(ring, base, (color,), max_arity, max_degree,
                      levels, actions)
    units = {color: ops.constant(ops.unit_obj(), levels[((color,), color)],
                                 {(0, 0): ring.one})}

    compositions = {}
    for k in arities:
        if k == 0:
            continue
        for m in arities:
            n = k + m - 1
            if n > max_arity or ((color,) * n, color) not in levels:
                continue
            osig, isig = ((color,) * k, color), ((color,) * m, color)
            wk, wm, wn = words(k), words(m), words(n)
            out_index = {w: i for i, w in enumerate(wn)}
            src = ops.tensor(levels[osig], levels[isig])
            for i in range(k):
                entries = {}
                for a, w in enumerate(wk):
                    for b, v in enumerate(wm):
                        row = out_index[word_graft(w, i, v)]
                        entries[(row, a * len(wm) + b)] = ring.one
                compositions[(osig, i, isig)] = ops.constant(
                    src, levels[((color,) * n, color)], entries)
    return Operad(coll, units, compositions)


# ---------------------------------------------------------------------------
# composite product
# ---------------------------------------------------------------------------


def _signed_edges(ring: Ring, relations):
    """(edges, killed) for `signed_quotient` from relations g e_j = e_j,
    read straight off the columns each g moves: an entry s e_i in
    column j, with s = +1 or -1, is the edge e_j = s e_i, and a listed
    column with no entry is a zero column, so e_j dies.  None when a
    column holds two entries or one that is not +1 or -1."""
    # int constants: a Fraction meets them on its fast int path
    one, minus = 1, (-1 if ring.p is None else ring.p - 1)
    edges, killed = [], []
    for entries, cols in relations:
        hit = set()
        for (i, j), v in entries.items():
            # entries may come unnormalized, say -1 over Z/p
            v = ring.normalize(v)
            if not v:
                continue
            if j in hit:
                return None
            hit.add(j)
            if v == one:
                if i != j:
                    edges.append((j, 1, i))
            elif v == minus:
                edges.append((j, -1, i))
            else:
                return None
        killed.extend(j for j in cols if j not in hit)
    return edges, killed


_TORSION = ("coinvariants acquire torsion; the composite does not exist "
            "with free levels over this ring")


def _quotient_by(ring: Ring, module: FreeModule, relations) -> CokernelPresentation:
    """module / <g x - x> over the listed relations g.

    Each relation is (entries, cols): g's entries, all in the columns
    cols (a range or a set), with g the identity on every other column
    and zero on a column of cols that holds no entry.  A tree move or a
    swap of a composite term's empty fibers touches one tensor's
    columns, so nothing else is stored.  When every listed column holds
    at most one entry, +1 or -1 (permutations, the column functions of
    tree moves, Koszul-signed actions), the relations are a signed
    graph, and `exactlin.signed_quotient` takes it directly, with no
    relation matrix and no Smith form: the quotient is free on the
    surviving classes, each represented by its least basis index, with
    proj sending e_x to +-[class] and section sending [class] to the
    representative.  Any other relation is padded here, and only here,
    to its full matrix, and all relations go through one exact
    cokernel.
    Either way torsion is refused, because the levels of a collection
    must stay free: a class forced to e = -e is 2-torsion over Z, dies
    over Q and Z/p with p odd, and cannot arise over Z/2, since
    -1 = 1 there.
    """
    graph = _signed_edges(ring, relations)
    if graph is not None:
        pres = signed_quotient(module, *graph)
    else:
        ident = LinearMap.identity(module)
        rels = []
        for entries, cols in relations:
            full = {(j, j): ring.one for j in range(module.rank)
                    if j not in cols}
            full.update(entries)
            rel = LinearMap(module, module, full) - ident
            if not rel.is_zero():
                rels.append(rel)
        pres = cokernel(hstack(rels)) if rels else signed_quotient(module, ())
    if pres.invariant_factors:
        raise ValueError(_TORSION)
    return pres


class CompositeTerm(NamedTuple):
    """A decorated two-level term: the M-level msig = (dbar, c) of arity
    k on top, the N-level fiber_sigs[j] under slot j, phi assigning the
    inputs to slots, and obj the tensor of these factors."""
    k: int
    dbar: tuple
    phi: tuple
    msig: tuple
    fiber_sigs: list
    factors: list
    obj: object

    def key(self):
        return (self.k, self.dbar, self.phi)


class CompositeResult(NamedTuple):
    collection: Collection
    terms: dict


def _slot_order(rank, dbar, phi):
    """The slots of the term (dbar, phi) sorted by their keys: the rank
    of the slot color, then the least input of the fiber, an empty
    fiber last.  Slot j of the canonical term of the S_k-orbit is slot
    order[j] of this one, and the term is canonical when the order is
    the identity.  The sort is stable, so empty slots of one color,
    which tie, keep their order."""
    first = {j: i for i, j in reversed(list(enumerate(phi)))}
    return tuple(sorted(range(len(dbar)), key=lambda j: (
        rank[dbar[j]], first.get(j, len(phi)))))


def _sorted_phis(dbar, n: int, phi=()):
    """The phi of the canonical terms over the top colors dbar, in the
    order of `product(range(len(dbar)), repeat=n)`.  dbar never
    decreases, so a term is canonical (`_slot_order` is the identity)
    when each run of slots of one color holds its nonempty fibers first,
    in the order of their least inputs: the next input goes into an open
    slot or opens the slot after the last open one of its run."""
    if len(phi) == n:
        yield phi
        return
    for j in range(len(dbar)):
        if j in phi or not j or dbar[j - 1] != dbar[j] or j - 1 in phi:
            yield from _sorted_phis(dbar, n, phi + (j,))


def _composite_terms(M: Collection, N: Collection, sig):
    """The canonical decorated two-level terms of (M o N) at the output
    signature, one per orbit of the slot permutations.

    A term places an M-level of arity k on top and an N-level under each
    slot; phi assigns the n inputs to slots and the fibers keep the
    ambient order.  S_k permutes the slots, and each orbit keeps the
    term whose slots are sorted (`_slot_order`); its slot colors never
    decrease, so only those top signatures are read, and
    `_sorted_phis` lists the sorted phi directly.  Terms whose
    factors include a zero level are gone.
    """
    cbar, c = sig
    n = len(cbar)
    out = []
    for k in range(M.max_arity + 1):
        for dbar in combinations_with_replacement(M.colors, k):
            msig = (dbar, c)
            if M.is_zero_level(msig):
                continue
            for phi in _sorted_phis(dbar, n):
                fsigs = [(tuple(cbar[i] for i in range(n) if phi[i] == j),
                          dbar[j]) for j in range(k)]
                if any(N.is_zero_level(fs) for fs in fsigs):
                    continue
                factors = [M.level(msig)] + [N.level(fs) for fs in fsigs]
                out.append(CompositeTerm(k, dbar, phi, msig, fsigs, factors,
                                         _tensor_many(M.ops, factors)))
    return out


def _coinvariants(ops, big, relations):
    """big divided degreewise by `_quotient_by` over relations[n], with
    its structure maps pushed down: (object, per-degree quotients).
    The tree-class blocks and the composite terms with a stabilizer
    quotient here."""
    qs = [_quotient_by(ops.ring, big.level(n), rels)
          for n, rels in enumerate(relations)]
    return _quotient_object(big, qs), qs


def _quotient_object(big, quotients):
    """The object on the generators of the per-degree quotients of big,
    each structure map of big pushed down by `_descend`, which raises
    ValueError when one does not descend."""
    return type(big)._rebuilt(
        big.ring, [q.generators for q in quotients],
        lambda what, n, m, get: _descend(compose(quotients[m].proj, get(big)),
                                         quotients[n], what))


def _placed(pieces, max_degree: int):
    """Per-degree entries assembled from term blocks: pieces holds
    (blocks, column offsets, row offsets), per degree each, with None
    for offsets that are all zero."""
    none = [0] * (max_degree + 1)
    pieces = [(blocks, co or none, ro or none) for blocks, co, ro in pieces]
    return [{(ro[n] + r, co[n] + c): v for blocks, co, ro in pieces
             for (r, c), v in blocks[n].items()}
            for n in range(max_degree + 1)]


def _descend(pushed: LinearMap, q: CokernelPresentation, what: str) -> LinearMap:
    """The map out of the coinvariants induced by pushed, which is a
    structure map already followed by the target's projection: pushed
    after q.section, checked to give pushed back after q.proj."""
    f = compose(pushed, q.section)
    if compose(f, q.proj).entries != pushed.entries:
        raise ValueError(f"{what} does not descend to the coinvariants")
    return f


def _slot_entries(ops, M: Collection, t: CompositeTerm, order, src, tgt,
                  fiber=None):
    """Per-degree entries carrying the term t to the term whose slot j is
    slot order[j] of t, between the layouts src and tgt: one
    `_tensor_entries` call, the routine that also builds the tree moves
    of `trees`, with M's action on the top factor, the fibers moved
    with their Koszul sign, and fiber = (a, map), when given, acting on
    fiber a."""
    maps = [M.action(t.msig, order)] + [None] * t.k
    if fiber is not None:
        maps[1 + fiber[0]] = fiber[1]
    return _tensor_entries(ops.ring, ops.Obj, maps,
                           (0,) + tuple(1 + j for j in order), src, tgt)


def _term_block(ops, M: Collection, t: CompositeTerm):
    """(layout, object, per-degree quotients) of a canonical term.

    A slot permutation fixes the term only by permuting its empty
    fibers of one color, which sit side by side, so the swaps of
    neighbouring ones generate its stabilizer.  A term without such a
    pair is its own tensor, with no quotient (quotients None); the
    others are divided by `_coinvariants` over those swaps."""
    lay = _layout(t.factors, ops.max_degree)
    rels = [[] for _ in range(ops.max_degree + 1)]
    for j in range(t.k - 1):
        if t.dbar[j] == t.dbar[j + 1] and \
                not (t.fiber_sigs[j][0] or t.fiber_sigs[j + 1][0]):
            move = _slot_entries(ops, M, t, permutations.transposition(
                t.k, j), lay, lay)
            for n, ents in enumerate(move):
                rels[n].append((ents, range(t.obj.level(n).rank)))
    if not rels[0]:
        return lay, t.obj, None
    return (lay,) + _coinvariants(ops, t.obj, rels)


def composite_product(M: Collection, N: Collection) -> CompositeResult:
    """M o N, built on one canonical term per orbit of the slot
    permutations.

    M o N is the sum of the decorated two-level terms (k, dbar, phi)
    divided by the S_k permuting their slots.  S_k acts freely on the
    terms whose fibers are all nonempty, so their part of a level is
    the plain `ops.direct_sum` of the canonical terms (`_composite_terms`),
    with block-diagonal structure maps and no quotient, for any action.
    A term with two empty fibers of one color is fixed by their swap;
    such a term alone is divided by its stabilizer (`_term_block`), and
    coinvariants with torsion raise ValueError.  Keeping one term per
    free orbit follows the shuffle compositions of Dotsenko-Khoroshkin,
    *Groebner bases for operads* (Duke Math. J. 153, 2010); the slots
    are sorted by color first, so with several colors a kept term need
    not be a shuffle.

    Input relabelings are built for the adjacent transpositions only,
    which the `Collection` constructor checks.  The swap s_i sends a
    canonical term to (dbar, phi o s_i), and the slot permutation that
    sorts that term carries it back to a canonical one, in one
    `_slot_entries` call that also applies N's action on a fiber that
    holds both inputs.  A term with a stabilizer takes its target's
    projection after, and `_descend` checks that the map descends,
    raising ValueError when it does not.  The result is truncated beyond
    honesty only when N has arity-zero levels, since those let the top
    arity exceed the window.
    """
    if (M.base, M.ring, M.max_degree, M.max_arity, M.colors) != \
            (N.base, N.ring, N.max_degree, N.max_arity, N.colors):
        raise ValueError("composite factors differ in base, ring, window "
                         "or colors")
    ops, D = M.ops, M.max_degree
    rank = {c: i for i, c in enumerate(M.colors)}
    data, built, levels = {}, {}, {}
    for sig in enumerate_signatures(M.colors, M.max_arity):
        terms = _composite_terms(M, N, sig)
        if terms:
            data[sig] = terms
            blocks = [_term_block(ops, M, t) for t in terms]
            levels[sig], offsets = ops.direct_sum([b[1] for b in blocks])
            built[sig] = (blocks, offsets,
                          {t.key(): ti for ti, t in enumerate(terms)})

    gens = {}
    for sig, terms in data.items():
        n_inputs = sig_arity(sig)
        blocks, offsets, _ = built[sig]
        gens[sig] = {}
        for tr in range(n_inputs - 1):
            s = permutations.transposition(n_inputs, tr)
            tsig = sig_act(sig, s)
            if tsig not in data:
                raise ValueError(f"input relabeling by {s} sends "
                                 f"{sig_str(sig)} to {sig_str(tsig)}, "
                                 f"which has no terms")
            tblocks, toffsets, tindex = built[tsig]
            pieces = []
            for t, (lay, _, qs), off in zip(terms, blocks, offsets):
                phi2 = tuple(t.phi[v] for v in s)
                order = _slot_order(rank, t.dbar, phi2)
                inv = permutations.inverse(order)
                tj = tindex[(t.k, tuple(t.dbar[j] for j in order),
                             tuple(inv[v] for v in phi2))]
                a, fiber = t.phi[tr], None
                if phi2[tr] == a:
                    # both inputs sit in fiber a, where s swaps them
                    fsig = t.fiber_sigs[a]
                    fiber = (a, N.action(fsig, permutations.transposition(
                        sig_arity(fsig), t.phi[:tr].count(a))))
                tlay, _, tqs = tblocks[tj]
                ents = _slot_entries(ops, M, t, order, lay, tlay, fiber)
                if qs is not None:
                    # the target term has the same empty fibers, so the
                    # same stabilizer
                    ents = [_descend(compose(q.proj, LinearMap(
                        p.proj.source, q.proj.source, e)), p,
                        "input relabeling").entries
                        for e, p, q in zip(ents, qs, tqs)]
                pieces.append((ents, off, toffsets[tj]))
            gens[sig][s] = ops.maps(levels[sig], levels[tsig],
                                    _placed(pieces, D))

    truncated = M.truncated or N.truncated or \
        any(sig_arity(s) == 0 for s in N.levels)
    coll = Collection(M.ring, M.base, M.colors, M.max_arity, D, levels,
                      gens, truncated=truncated)
    return CompositeResult(coll, data)


# ---------------------------------------------------------------------------
# color restriction
# ---------------------------------------------------------------------------


def restrict_colors(alpha: dict, Q: Operad, colors) -> Operad:
    """Pull back Q along a color map; levels and laws come for free."""
    coll = Q.collection
    for c in colors:
        if alpha.get(c) not in coll.colors:
            raise ValueError(f"color {c!r} maps to {alpha.get(c)!r}, "
                             f"which is not a color of the target")

    def push(sig):
        return (tuple(alpha[c] for c in sig[0]), alpha[sig[1]])

    levels, actions = {}, {}
    for sig in enumerate_signatures(colors, coll.max_arity):
        img = push(sig)
        if coll.is_zero_level(img):
            continue
        levels[sig] = coll.level(img)
        n = sig_arity(sig)
        actions[sig] = {s: coll.action(img, s)
                        for s in permutations.transpositions(n)}
    out = Collection(coll.ring, coll.base, colors, coll.max_arity,
                     coll.max_degree, levels, actions,
                     truncated=coll.truncated)
    units = {c: Q.unit(alpha[c]) for c in colors}
    comps = {}
    for osig in out.signatures():
        for isig in out.signatures():
            for i in range(sig_arity(osig)):
                if osig[0][i] != isig[1]:
                    continue
                if sig_arity(osig) + sig_arity(isig) - 1 > out.max_arity:
                    continue
                f = Q.composition(push(osig), i, push(isig))
                if not f.is_zero():
                    comps[(osig, i, isig)] = f
    return Operad(out, units, comps)


# ---------------------------------------------------------------------------
# homotopy category and the equivalence verdict
# ---------------------------------------------------------------------------


def _column(module: FreeModule, vec) -> LinearMap:
    one = FreeModule(module.ring, 1)
    return LinearMap(one, module,
                     {(i, 0): v for i, v in enumerate(vec)
                      if v != module.ring.zero})


class HoCategory:
    """Degree-zero homotopy category of the arity-one part.

    Hom(c, d) is presented by generators of H_0 of the (c; d) level;
    composition tables are induced on classes.  Class vectors are plain
    tuples in generator coordinates, reduced modulo torsion.
    """

    __slots__ = ("ring", "colors", "homs", "tables", "identities")

    def __init__(self, ring, colors, homs, tables, identities):
        self.ring = ring
        self.colors = colors
        self.homs = homs
        self.tables = tables
        self.identities = identities

    def reduce(self, c, d, vec):
        pres = self.homs[(c, d)].presentation
        col = pres.reduce_map(_column(pres.generators, vec))
        out = [self.ring.zero] * pres.generators.rank
        for (i, _), v in col.entries.items():
            out[i] = v
        return tuple(out)

    def compose_classes(self, c, d, e, g_vec, f_vec):
        """Class of g o f for f: c -> d and g: d -> e."""
        table = self.tables[(c, d, e)]
        rf = self.homs[(c, d)].presentation.generators.rank
        acc = [self.ring.zero] * self.homs[(c, e)].presentation.generators.rank
        for (i, j), v in table.entries.items():
            a, b = divmod(j, rf)
            w = self.ring.mul(v, self.ring.mul(g_vec[a], f_vec[b]))
            acc[i] = self.ring.add(acc[i], w)
        return self.reduce(c, e, tuple(acc))

    def class_vectors(self, c, d, bound: int):
        """All classes with small coordinates, plus an exhaustiveness flag.

        A torsion coordinate runs over its residues, a free one over the
        distinct values of -bound..bound in that order.  The search is
        exhaustive when every coordinate is torsion, or over Z/p when
        those values are all of F_p; a huge p is never enumerated."""
        pres = self.homs[(c, d)].presentation
        r = pres.generators.rank
        tors = pres.invariant_factors
        window = list(dict.fromkeys(self.ring.normalize(v)
                                    for v in range(-bound, bound + 1)))
        ranges = [[self.ring.normalize(v) for v in range(t)] for t in tors]
        ranges += [window] * (r - len(tors))
        exhaustive = r == len(tors) or len(window) == self.ring.p
        return [tuple(v) for v in product(*ranges)], exhaustive

    def iso_pair(self, c, d, bound: int):
        """(u, v) with v o u = id_c and u o v = id_d, or the reason there
        is none: returns (pair, exhausted)."""
        us, ex_u = self.class_vectors(c, d, bound)
        vs, ex_v = self.class_vectors(d, c, bound)
        idc = self.identities[c]
        idd = self.identities[d]
        for u in us:
            for v in vs:
                if self.compose_classes(c, d, c, v, u) == idc and \
                        self.compose_classes(d, c, d, u, v) == idd:
                    return (u, v), True
        return None, ex_u and ex_v


def homotopy_category(P: Operad) -> HoCategory:
    """Everything happens in degree zero, where cycles are the whole
    level, so the kernel inclusion is invertible on the nose."""
    coll = P.collection
    ring = coll.ring
    homs, emb, red = {}, {}, {}
    for c in coll.colors:
        for d in coll.colors:
            lev = coll.level(((c,), d))
            K = moore_complex(lev) if isinstance(lev, SimplicialModule) \
                else lev
            H = homology(K, 0)
            homs[(c, d)] = H
            pres = H.presentation
            emb[(c, d)] = H.kernel_incl @ pres.section
            red[(c, d)] = pres.proj @ H.kernel_incl.inverse()
    tables = {}
    for c in coll.colors:
        for d in coll.colors:
            for e in coll.colors:
                mu0 = P.composition(((d,), e), 0, ((c,), d)).component(0)
                table = red[(c, e)] @ mu0 @ emb[(d, e)].tensor(emb[(c, d)])
                tables[(c, d, e)] = homs[(c, e)].presentation.reduce_map(table)
    identities = {}
    for c in coll.colors:
        col = red[(c, c)] @ P.unit(c).component(0)
        pres = homs[(c, c)].presentation
        out = [ring.zero] * pres.generators.rank
        for (i, _), v in pres.reduce_map(col).entries.items():
            out[i] = v
        identities[c] = tuple(out)
    return HoCategory(ring, coll.colors, homs, tables, identities)


class DKVerdict:
    __slots__ = ("status", "reasons", "levelwise", "witnesses")

    def __init__(self, status, reasons, levelwise, witnesses):
        self.status = status
        self.reasons = reasons
        self.levelwise = levelwise
        self.witnesses = witnesses

    def __repr__(self):
        return f"DKVerdict({self.status!r}, reasons={self.reasons})"


def dk_equivalence(phi: OpMorphism, search_bound: int = 2) -> DKVerdict:
    """Is phi a levelwise quasi-isomorphism that is homotopy essentially
    surjective on colors?

    Levels are decided exactly, on homology in every degree below the
    top one, whose homology is a truncation artifact (degree 0 when it
    is the top).  The inverse-class search for essential
    surjectivity runs each free coordinate over -search_bound ..
    search_bound (torsion coordinates over all their residues), and
    returns ``inconclusive`` when an unexhausted search comes up empty.
    Over Z/p the window's residues cover F_p once 2 * search_bound + 1
    >= p, and the search is then exhaustive, so an empty one reads
    ``not_equivalence``; over Z and Q, and over Z/p for larger p, it is
    exhaustive only when every coordinate is torsion.
    """
    P, Q = phi.source, phi.target
    D = P.collection.max_degree
    degrees = range(D) if D >= 1 else [0]
    reasons, levelwise = [], {}
    for sig in enumerate_signatures(P.collection.colors, P.collection.max_arity):
        if P.collection.is_zero_level(sig) and \
                Q.collection.is_zero_level(phi.map_sig(sig)):
            continue
        f = phi.level_map(sig)
        if isinstance(f, SimplicialMap):
            f = normalize_map(f)
        ok = is_quasi_iso(f, degrees)
        levelwise[sig] = ok
        if not ok:
            reasons.append(f"level map at {sig_str(sig)} is not a "
                           f"quasi-isomorphism")
    ho = homotopy_category(Q)
    witnesses = {}
    inconclusive = False
    image = {phi.color_map[c] for c in P.collection.colors}
    for d in Q.collection.colors:
        if d in image:
            witnesses[d] = (d, "image")
            continue
        found = None
        exhausted_all = True
        for c in sorted(image, key=str):
            pair, exhausted = ho.iso_pair(c, d, search_bound)
            if pair is not None:
                found = (c, pair[0], pair[1])
                break
            exhausted_all = exhausted_all and exhausted
        if found is not None:
            witnesses[d] = found
        elif exhausted_all:
            reasons.append(f"color {d!r} is not isomorphic to any image "
                           f"color in the homotopy category")
        else:
            inconclusive = True
            reasons.append(f"no inverse classes for color {d!r} within "
                           f"bound {search_bound}")
    if any(not ok for ok in levelwise.values()) or \
            any("not isomorphic" in r for r in reasons):
        status = "not_equivalence"
    elif inconclusive:
        status = "inconclusive"
    else:
        status = "equivalence"
    return DKVerdict(status, reasons, levelwise, witnesses)


def integrated_normalize(phi: OpMorphism) -> OpMorphism:
    """Normalization applied to a morphism of simplicial operads.

    Color restriction commutes with normalization on the nose (the
    pulled back levels are the same objects), so the level maps are just
    the normalized ones; the constructor re-checks preservation.  Each
    operad is normalized by `normalize_operad_data`, which shares
    normalizations among equal levels within its own call, and each
    level map is normalized on its own; nothing is kept between calls.
    """
    from .doldkan import normalize_operad_data
    NP, nzP = normalize_operad_data(phi.source)
    NQ, nzQ = normalize_operad_data(phi.target)
    maps = {}
    for sig in phi.source.collection.signatures():
        tgt_sig = phi.map_sig(sig)
        tgt = nzQ.get(tgt_sig)
        if tgt is None:
            tgt = normalize(phi.target.collection.level(tgt_sig))
        maps[sig] = normalize_map(phi.level_map(sig), nzP[sig], tgt)
    return OpMorphism(NP, NQ, phi.color_map, maps)


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------


def _map_to_json(f) -> list:
    return [matrix_to_json(c) for c in f.components]


def _map_from_json(ops, A, B, data) -> object:
    return ops.make_map(A, B, [
        _matrix_in_slot(d, A.level(n), B.level(n))
        for n, d in enumerate(_json_list(data, "a map document"))])


def _sig_from_json(entry, what: str):
    inputs, output = _json_fields(entry, what, ("inputs", "output"),
                                  ("inputs",))
    if any(type(c) is not str for c in [*inputs, output]):
        raise ValueError(f"{what} has inputs {inputs!r} and output "
                         f"{output!r}: a color is a str")
    return tuple(inputs), output


def operad_to_json(P: Operad) -> dict:
    coll = P.collection
    out = {
        "ring": coll.ring.name(),
        "base": coll.base,
        "colors": [str(c) for c in coll.colors],
        "max_arity": coll.max_arity,
        "max_degree": coll.max_degree,
        "truncated": coll.truncated,
        "levels": [], "actions": [], "units": {}, "compositions": [],
    }
    for sig in coll.signatures():
        out["levels"].append({"inputs": [str(c) for c in sig[0]],
                              "output": str(sig[1]),
                              "object": coll.level(sig).to_json()})
        n = sig_arity(sig)
        for t in range(n - 1):
            s = permutations.transposition(n, t)
            out["actions"].append({"inputs": [str(c) for c in sig[0]],
                                   "output": str(sig[1]), "swap": t,
                                   "map": _map_to_json(coll.action(sig, s))})
    for c in coll.colors:
        out["units"][str(c)] = _map_to_json(P.unit(c))
    for (osig, i, isig), f in sorted(
            P.compositions.items(),
            key=lambda kv: (sig_str(kv[0][0]), kv[0][1], sig_str(kv[0][2]))):
        out["compositions"].append({
            "outer": {"inputs": [str(c) for c in osig[0]], "output": str(osig[1])},
            "slot": i,
            "inner": {"inputs": [str(c) for c in isig[0]], "output": str(isig[1])},
            "map": _map_to_json(f)})
    return out


def operad_from_json(data: dict) -> Operad:
    _json_fields(data, "an operad", (
        "ring", "base", "colors", "max_arity", "max_degree", "levels",
        "actions", "units", "compositions"), (
        "colors", "levels", "actions", "compositions"))
    unit_docs = data["units"]
    _json_fields(unit_docs, "the units", ())
    ring = ring_from_name(data["ring"])
    base = data["base"]
    colors = tuple(data["colors"])
    A, D = data["max_arity"], data["max_degree"]
    for key, v in (("max_arity", A), ("max_degree", D)):
        if type(v) is not int or v < 0:
            raise ValueError(f"an operad's {key} must be an int >= 0, "
                             f"not {v!r}")
    ops = _ops_for(base, ring, D)
    levels = {}
    for entry in data["levels"]:
        (obj,) = _json_fields(entry, "a level", ("object",))
        levels[_sig_from_json(entry, "a level")] = ops.Obj.from_json(obj)
    gens = {sig: {} for sig in levels}
    for entry in data["actions"]:
        sig = _sig_from_json(entry, "an action")
        swap, m = _json_fields(entry, "an action", ("swap", "map"))
        n = sig_arity(sig)
        if type(swap) is not int or not 0 <= swap < n - 1:
            raise ValueError(f"action swap {swap!r} at {sig_str(sig)} is not "
                             f"in range({n - 1})")
        s = permutations.transposition(n, swap)
        tsig = sig_act(sig, s)
        for end in (sig, tsig):
            if end not in levels:
                raise ValueError(f"action {s} at {sig_str(sig)} reaches "
                                 f"{sig_str(end)}, which has no level")
        gens[sig][s] = _map_from_json(ops, levels[sig], levels[tsig], m)
    coll = Collection(ring, base, colors, A, D, levels, gens,
                      truncated=data.get("truncated", False))
    units = {}
    for c in colors:
        usig = ((c,), c)
        if str(c) not in unit_docs:
            raise ValueError(f"no unit for color {c!r}")
        if usig not in levels:
            raise ValueError(f"unit of color {c!r} reaches {sig_str(usig)}, "
                             f"which has no level")
        units[c] = _map_from_json(ops, ops.unit_obj(), levels[usig],
                                  unit_docs[str(c)])
    comps = {}
    for entry in data["compositions"]:
        outer, i, inner, m = _json_fields(
            entry, "a composition", ("outer", "slot", "inner", "map"))
        osig, isig = (_sig_from_json(x, "a signature") for x in (outer, inner))
        for end in (osig, isig):
            if end not in levels:
                raise ValueError(f"composition ({sig_str(osig)}, {i}, "
                                 f"{sig_str(isig)}) reads {sig_str(end)}, "
                                 f"which has no level")
        gsig = graft_signature(osig, i, isig)
        src = ops.tensor(levels[osig], levels[isig])
        tgt = levels.get(gsig) or ops.zero_obj()
        comps[(osig, i, isig)] = _map_from_json(ops, src, tgt, m)
    return Operad(coll, units, comps)
