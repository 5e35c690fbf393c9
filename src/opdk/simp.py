"""Degree-truncated simplicial modules.

A simplicial module stores explicit face and degeneracy matrices up to a
truncation degree D (faces for 1..D, degeneracies for 0..D-1). Construction
checks the levels' ring and the shapes only; `validate` reports which
simplicial identities fail, so deliberately corrupted objects can be built
and examined.  The levels, equality and the direct sum come from the
degreewise layer that `SimplicialModule` and `SimplicialMap` share with
chain complexes (`chain.DegreewiseObject`, `chain.DegreewiseMap`).

Monotone maps between finite ordinals are tuples of values; they compose,
factor into faces and degeneracies, and induce operators contravariantly.
"""

from __future__ import annotations

from typing import Sequence

from .chain import (ChainComplex, DegreewiseMap, DegreewiseObject,
                    _bracketed_layout, _coherence)
from .exactlin import (
    FreeModule,
    LinearMap,
    _json_fields,
    _json_list,
    _matrix_in_slot,
    compose,
    matrix_to_json,
)
from .rings import Ring

__all__ = ["delta", "sigma", "compose_monotone", "is_monotone",
           "monotone_surjections", "surjection_from_word", "SimplicialModule",
           "SimplicialMap", "validate", "simplicial_operator",
           "from_simplicial_set", "standard_simplex", "constant_module",
           "tensor", "tensor_map", "direct_sum", "swap_map", "moore_complex",
           "simp_to_json", "simp_from_json"]


# ---------------------------------------------------------------------------
# monotone map combinatorics
# ---------------------------------------------------------------------------


def delta(i: int, n: int):
    """The injection [n-1] -> [n] missing i."""
    return tuple(t if t < i else t + 1 for t in range(n))


def sigma(i: int, n: int):
    """The surjection [n+1] -> [n] hitting i twice."""
    return tuple(t if t <= i else t - 1 for t in range(n + 2))


def compose_monotone(f, g):
    """f after g, as value tuples."""
    return tuple(f[v] for v in g)


def is_monotone(f) -> bool:
    return all(f[t] <= f[t + 1] for t in range(len(f) - 1))


def monotone_surjections(n: int, k: int):
    """All surjective monotone [n] -> [k], lexicographic by value tuple.

    >>> monotone_surjections(2, 1)
    [(0, 0, 1), (0, 1, 1)]
    """
    if k > n or k < 0:
        return []
    out = []

    def build(head, last):
        if len(head) == n + 1:
            if last == k:
                out.append(tuple(head))
            return
        remaining = n + 1 - len(head)
        for v in (last, last + 1):
            if v > k:
                continue
            if k - v <= remaining - 1:
                build(head + [v], v)

    build([0], 0)
    return out


def surjection_from_word(word, k: int):
    """The surjection onto [k] that a strictly decreasing degeneracy
    word names: s_{j_l}..s_{j_1} with word read left to right, so its
    duplicate positions are the word's entries."""
    eta = tuple(range(k + 1))
    for j in reversed(word):
        eta = compose_monotone(eta, sigma(j, len(eta) - 1))
    return eta


# ---------------------------------------------------------------------------
# simplicial modules
# ---------------------------------------------------------------------------


class SimplicialModule(DegreewiseObject):
    """Levels 0..D with face and degeneracy matrices.

    faces[n-1][i] is d_i: level(n) -> level(n-1); degeneracies[n][i] is
    s_i: level(n) -> level(n+1).
    """

    __slots__ = ("faces", "degeneracies")

    def __init__(self, ring: Ring, levels: Sequence[FreeModule],
                 faces, degeneracies):
        super().__init__(ring, levels)
        levels, D = self.levels, self.max_degree
        faces = tuple(tuple(fs) for fs in faces)
        degeneracies = tuple(tuple(ss) for ss in degeneracies)
        if len(faces) != D:
            raise ValueError(f"{D + 1} levels need face lists for degrees "
                             f"1..{D}, got {len(faces)}")
        if len(degeneracies) != D:
            raise ValueError(f"{D + 1} levels need degeneracy lists for "
                             f"degrees 0..{D - 1}, got {len(degeneracies)}")
        for n in range(1, D + 1):
            if len(faces[n - 1]) != n + 1:
                raise ValueError(f"need d_0..d_{n} at degree {n}")
            for i, d in enumerate(faces[n - 1]):
                if d.source != levels[n] or d.target != levels[n - 1]:
                    raise ValueError(f"d_{i} at degree {n} is not a map "
                                     f"from level {n} to level {n - 1}")
        for n in range(D):
            if len(degeneracies[n]) != n + 1:
                raise ValueError(f"need s_0..s_{n} at degree {n}")
            for i, s in enumerate(degeneracies[n]):
                if s.source != levels[n] or s.target != levels[n + 1]:
                    raise ValueError(f"s_{i} at degree {n} is not a map "
                                     f"from level {n} to level {n + 1}")
        self.faces = faces
        self.degeneracies = degeneracies

    def face(self, n: int, i: int) -> LinearMap:
        if not (1 <= n <= self.max_degree and 0 <= i <= n):
            raise ValueError(f"no face d_{i} out of degree {n} in degrees "
                             f"0..{self.max_degree}")
        return self.faces[n - 1][i]

    def degeneracy(self, n: int, i: int) -> LinearMap:
        if not (0 <= n < self.max_degree and 0 <= i <= n):
            raise ValueError(f"no degeneracy s_{i} out of degree {n} in "
                             f"degrees 0..{self.max_degree}")
        return self.degeneracies[n][i]

    def _maps(self):
        return [m for ms in self.faces + self.degeneracies for m in ms]

    koszul = False

    @staticmethod
    def tensor_degrees(n: int):
        """Kronecker at equal degree: the one block (n, n)."""
        return [(n, n)]

    @staticmethod
    def free(ring: Ring, max_degree: int, rank: int) -> "SimplicialModule":
        """The constant module on rank generators."""
        return constant_module(ring, max_degree, rank)

    @staticmethod
    def tensor_objects(A, B, bound) -> "SimplicialModule":
        """The degreewise tensor, which stops at the factors' lower
        truncation and needs no bound."""
        return tensor(A, B)

    @classmethod
    def _rebuilt(cls, ring: Ring, levels, make) -> "SimplicialModule":
        """The module on levels whose d_i out of degree n is make("face",
        n, n - 1, get) and whose s_i out of degree n is
        make("degeneracy", n, n + 1, get), get reading that d_i or s_i."""
        D = len(levels) - 1
        return cls(ring, levels, [
            [make("face", n, n - 1, lambda X, n=n, i=i: X.face(n, i))
             for i in range(n + 1)] for n in range(1, D + 1)], [
            [make("degeneracy", n, n + 1,
                  lambda X, n=n, i=i: X.degeneracy(n, i))
             for i in range(n + 1)] for n in range(D)])


class SimplicialMap(DegreewiseMap):
    """Degreewise map commuting with every face and degeneracy."""

    __slots__ = ()
    kind = "simplicial"

    def _check(self):
        source, target, components = self.source, self.target, self.components
        D = source.max_degree
        for n in range(1, D + 1):
            for i in range(n + 1):
                lhs = compose(target.face(n, i), components[n])
                rhs = compose(components[n - 1], source.face(n, i))
                if lhs.entries != rhs.entries:
                    raise ValueError(f"does not commute with d_{i} at degree {n}")
        for n in range(D):
            for i in range(n + 1):
                lhs = compose(target.degeneracy(n, i), components[n])
                rhs = compose(components[n + 1], source.degeneracy(n, i))
                if lhs.entries != rhs.entries:
                    raise ValueError(f"does not commute with s_{i} at degree {n}")


# ---------------------------------------------------------------------------
# validation
# ---------------------------------------------------------------------------


def validate(A: SimplicialModule) -> list:
    """Every violated simplicial identity, as (kind, degree, i, j) tuples.

    Checks all five families wherever both composites stay within the
    truncation window.
    """
    bad = []
    D = A.max_degree
    # d_i d_j = d_{j-1} d_i for i < j
    for n in range(2, D + 1):
        for j in range(n + 1):
            for i in range(j):
                lhs = compose(A.face(n - 1, i), A.face(n, j))
                rhs = compose(A.face(n - 1, j - 1), A.face(n, i))
                if lhs.entries != rhs.entries:
                    bad.append(("dd", n, i, j))
    # d_i s_j = s_{j-1} d_i for i < j
    for n in range(1, D):
        for j in range(n + 1):
            for i in range(j):
                lhs = compose(A.face(n + 1, i), A.degeneracy(n, j))
                rhs = compose(A.degeneracy(n - 1, j - 1), A.face(n, i))
                if lhs.entries != rhs.entries:
                    bad.append(("ds<", n, i, j))
    # d_j s_j = id = d_{j+1} s_j
    for n in range(D):
        for j in range(n + 1):
            ident = LinearMap.identity(A.level(n))
            if compose(A.face(n + 1, j), A.degeneracy(n, j)).entries != ident.entries:
                bad.append(("ds=", n, j, j))
            if compose(A.face(n + 1, j + 1), A.degeneracy(n, j)).entries != ident.entries:
                bad.append(("ds=", n, j + 1, j))
    # d_i s_j = s_j d_{i-1} for i > j + 1
    for n in range(1, D):
        for j in range(n):
            for i in range(j + 2, n + 2):
                lhs = compose(A.face(n + 1, i), A.degeneracy(n, j))
                rhs = compose(A.degeneracy(n - 1, j), A.face(n, i - 1))
                if lhs.entries != rhs.entries:
                    bad.append(("ds>", n, i, j))
    # s_i s_j = s_{j+1} s_i for i <= j
    for n in range(D - 1):
        for j in range(n + 1):
            for i in range(j + 1):
                lhs = compose(A.degeneracy(n + 1, i), A.degeneracy(n, j))
                rhs = compose(A.degeneracy(n + 1, j + 1), A.degeneracy(n, i))
                if lhs.entries != rhs.entries:
                    bad.append(("ss", n, i, j))
    return bad


# ---------------------------------------------------------------------------
# induced operators
# ---------------------------------------------------------------------------


def simplicial_operator(A: SimplicialModule, f, n: int) -> LinearMap:
    """A(f): level(n) -> level(p) for a monotone f: [p] -> [n].

    Peels f into faces (largest missing value first) then degeneracies,
    composing the stored matrices contravariantly.
    """
    p = len(f) - 1
    if not (all(0 <= v <= n for v in f) and is_monotone(f)):
        raise ValueError(f"{f} is not a monotone map into [{n}]")
    op = LinearMap.identity(A.level(n))
    cur = f
    hi = n
    while True:
        present = set(cur)
        missing = [a for a in range(hi + 1) if a not in present]
        if not missing:
            break
        a = max(missing)
        op = compose(A.face(hi, a), op)
        cur = tuple(v if v < a else v - 1 for v in cur)
        hi -= 1
    # cur: [p] ->> [hi]; peel first duplicates inward
    word = []
    while len(cur) - 1 > hi:
        i = next(t for t in range(len(cur) - 1) if cur[t] == cur[t + 1])
        word.append(i)
        cur = cur[:i] + cur[i + 1:]
    for lvl_offset, i in enumerate(reversed(word)):
        op = compose(A.degeneracy(hi + lvl_offset, i), op)
    return op


# ---------------------------------------------------------------------------
# constructions
# ---------------------------------------------------------------------------


def from_simplicial_set(simplices: dict, ring: Ring, max_degree: int
                        ) -> SimplicialModule:
    """Linearize a finite simplicial set given by nondegenerate simplices.

    `simplices` maps name -> list of faces (d_0..d_n order); vertices map
    to []. A face is either a name (nondegenerate) or (name, word) with a
    strictly decreasing degeneracy word, so dim(name) + len(word) = n - 1.
    Level n gets one generator per pair (x, eta) with x nondegenerate and
    eta: [n] ->> [dim x]; operators are induced by monotone composition.
    The basis of level n lists these pairs with x outer, the simplices
    ordered by (dimension, position in `simplices`), and eta inner, in
    `monotone_surjections(n, dim x)` order.
    """
    names = list(simplices)
    dims = {}
    for name, faces in simplices.items():
        dims[name] = len(faces) - 1 if faces else 0
    face_pairs = {}
    for name, faces in simplices.items():
        lst = []
        for spec in faces:
            if isinstance(spec, str):
                y, word = spec, ()
            else:
                y, word = spec[0], tuple(spec[1])
            if y not in dims:
                raise ValueError(f"face {y!r} of {name!r} not listed")
            if dims[y] + len(word) != dims[name] - 1:
                raise ValueError(f"face of {name!r} has wrong dimension")
            if any(word[t] <= word[t + 1] for t in range(len(word) - 1)):
                raise ValueError("degeneracy word must be strictly decreasing")
            lst.append((y, surjection_from_word(word, dims[y])))
        face_pairs[name] = lst

    def evaluate(x, g):
        # value of the simplicial set at monotone g: [p] -> [dim x], in
        # normal form (nondegenerate, surjection)
        while True:
            m = dims[x]
            present = set(g)
            missing = [a for a in range(m + 1) if a not in present]
            if not missing:
                return x, g
            a = max(missing)
            x1, eta1 = face_pairs[x][a]
            g = compose_monotone(eta1, tuple(v if v < a else v - 1 for v in g))
            x = x1

    order = {name: k for k, name in enumerate(names)}
    basis = []
    index = {}
    for n in range(max_degree + 1):
        level = []
        for name in sorted(names, key=lambda s: (dims[s], order[s])):
            if dims[name] > n:
                continue
            for eta in monotone_surjections(n, dims[name]):
                level.append((name, eta))
        basis.append(level)
        for pos, key in enumerate(level):
            index[(n, key)] = pos

    levels = [FreeModule(ring, len(level)) for level in basis]
    faces = []
    for n in range(1, max_degree + 1):
        fs = []
        for i in range(n + 1):
            entries = {}
            for col, (x, eta) in enumerate(basis[n]):
                y, zeta = evaluate(x, compose_monotone(eta, delta(i, n)))
                entries[(index[(n - 1, (y, zeta))], col)] = ring.one
            fs.append(LinearMap(levels[n], levels[n - 1], entries))
        faces.append(fs)
    degeneracies = []
    for n in range(max_degree):
        ss = []
        for i in range(n + 1):
            entries = {}
            for col, (x, eta) in enumerate(basis[n]):
                key = (x, compose_monotone(eta, sigma(i, n)))
                entries[(index[(n + 1, key)], col)] = ring.one
            ss.append(LinearMap(levels[n], levels[n + 1], entries))
        degeneracies.append(ss)
    return SimplicialModule(ring, levels, faces, degeneracies)


def standard_simplex(k: int, ring: Ring, max_degree: int) -> SimplicialModule:
    """The linearized k-simplex: one nondegenerate face per subset."""
    from itertools import combinations

    simplices = {}
    for size in range(1, k + 2):
        for verts in combinations(range(k + 1), size):
            name = "v" + "".join(str(v) for v in verts)
            if size == 1:
                simplices[name] = []
            else:
                faces = []
                for drop in range(size):
                    sub = verts[:drop] + verts[drop + 1:]
                    faces.append("v" + "".join(str(v) for v in sub))
                simplices[name] = faces
    return from_simplicial_set(simplices, ring, max_degree)


def constant_module(ring: Ring, max_degree: int, rank: int = 1) -> SimplicialModule:
    """All levels equal, all operators the identity."""
    M = FreeModule(ring, rank)
    levels = [M] * (max_degree + 1)
    faces = [[LinearMap.identity(M) for _ in range(n + 1)]
             for n in range(1, max_degree + 1)]
    degeneracies = [[LinearMap.identity(M) for _ in range(n + 1)]
                    for n in range(max_degree)]
    return SimplicialModule(ring, levels, faces, degeneracies)


def tensor(A: SimplicialModule, B: SimplicialModule) -> SimplicialModule:
    """Degreewise tensor; operators act diagonally.

    Each operator is the Kronecker product of the two factors' operators,
    `LinearMap.tensor`, with its entries in the order of
    `exactlin._kron_entries`.  Level n is the two-factor layout's single
    box at degrees (n, n) (`chain._layout`): the pair (a, b) sits at
    a * rank(B_n) + b, so maps between tensors, `tensor_map` and
    `swap_map`, come from `chain._tensor_entries` on that layout in the
    same entry order.
    """
    if A.ring != B.ring:
        raise ValueError("ring mismatch")
    D = min(A.max_degree, B.max_degree)
    levels = [FreeModule(A.ring, A.level(n).rank * B.level(n).rank)
              for n in range(D + 1)]
    return SimplicialModule._rebuilt(
        A.ring, levels, lambda what, n, m, get: get(A).tensor(get(B)))


def tensor_map(f: SimplicialMap, g: SimplicialMap) -> SimplicialMap:
    """f (x) g degreewise between the tensor modules: `chain._tensor_entries`
    of (f, g) on the two-factor layouts, f's entries outer and g's
    inner, the order of `exactlin._kron_entries`
    (`chain.DegreewiseObject.tensor_maps`)."""
    return SimplicialModule.tensor_maps(f, g, None)


def direct_sum(A: SimplicialModule, B: SimplicialModule) -> SimplicialModule:
    return SimplicialModule.block_sum(A.ring, A.max_degree, (A, B))[0]


def swap_map(A: SimplicialModule, B: SimplicialModule) -> SimplicialMap:
    """A (x) B -> B (x) A, transposing basis pairs; no signs degreewise:
    the layouts' permutation (`chain._coherence` with sigma = (1, 0)),
    checked to be a simplicial map.  The simplicial associator needs no
    routine of its own: degreewise Kronecker is associative on the nose,
    so both bracketings have one layout and `_coherence` gives identity
    entries."""
    AB, BA = tensor(A, B), tensor(B, A)
    return SimplicialMap(AB, BA, _coherence(
        lambda t: _bracketed_layout((A, B), t, AB.max_degree),
        (0, 1), (1, 0), AB, BA))


def moore_complex(A: SimplicialModule) -> ChainComplex:
    """Same levels, differential the alternating face sum d_0 - d_1 +
    d_2 - ..., summed left to right with `LinearMap`'s `+` and `-`: the
    positions come in the order d_0, d_1, ... first reach them, and a
    position that cancels is dropped (and comes last if a later face
    reaches it again)."""
    diffs = []
    for n in range(1, A.max_degree + 1):
        d = A.face(n, 0)
        for i in range(1, n + 1):
            d = d - A.face(n, i) if i % 2 else d + A.face(n, i)
        diffs.append(d)
    return ChainComplex(A.ring, A.levels, diffs)


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------


def simp_to_json(A: SimplicialModule) -> dict:
    return {
        "ring": A.ring.name(),
        "max_degree": A.max_degree,
        "levels": list(A.ranks()),
        "faces": [[matrix_to_json(d) for d in fs] for fs in A.faces],
        "degeneracies": [[matrix_to_json(s) for s in ss] for ss in A.degeneracies],
    }


def simp_from_json(data: dict) -> SimplicialModule:
    from .rings import ring_from_name
    keys = ("ring", "levels", "faces", "degeneracies")
    name, ranks, faces, degeneracies = _json_fields(
        data, "a simplicial module", keys, keys[1:])
    ring = ring_from_name(name)
    levels = [FreeModule(ring, r) for r in ranks]
    for what, lists in (("faces", faces), ("degeneracies", degeneracies)):
        for n, maps in enumerate(lists):
            _json_list(maps, f"entry {n} of {what!r}")
        count = len(lists)
        if count >= max(len(levels), 1):
            raise ValueError(f"{count} lists of {what} need {count + 1} "
                             f"levels, got {len(levels)}")
    if data.get("max_degree") != len(levels) - 1:
        raise ValueError(f"max_degree {data.get('max_degree')!r} does not "
                         f"match {len(levels)} levels")
    faces = [[_matrix_in_slot(m, levels[n], levels[n - 1]) for m in fs]
             for n, fs in enumerate(faces, start=1)]
    degeneracies = [[_matrix_in_slot(m, levels[n], levels[n + 1]) for m in ss]
                    for n, ss in enumerate(degeneracies)]
    return SimplicialModule(ring, levels, faces, degeneracies)


# the rules of the base category that are defined after the class body
# (`chain.DegreewiseObject`): its map class and its JSON
SimplicialModule.Map = SimplicialMap
SimplicialModule.to_json = simp_to_json
SimplicialModule.from_json = staticmethod(simp_from_json)
