"""Exact linear algebra over Z, Q and Z/p.

A free module is a ring and a rank, with basis 0..rank-1; maps are
sparse coordinate matrices with exact entries.  On top of plain matrix
arithmetic this module provides the workhorses everything else reduces
to:

* compose            -- the sparse product.  Over Q it runs on integer
  numerators: the general product scales each row of f and each column
  of g by the lcm of its denominators, sums the integer products and
  builds one Fraction per stored entry, and the one-pass product of a
  column-function factor passes a factor +1 or -1 through with no
  Fraction product (`_q_mul`, which `chain`'s tensor maps share),
* rref               -- over Q and Z/p, one sparse elimination on dict
  rows that logs its row operations; T is replayed from the log only
  when a caller reads it,
* smith_normal_form  -- U*m*V = D with unimodular U, V and a divisibility
  chain down the diagonal.  Over Z the elimination keeps each entry
  twice, by row and by column, so that rows and columns share one set
  of line operations (add, swap, clear) and a column operation is the
  row operation on the transpose.  U, V and U^-1 are built only when a
  caller first reads them, by replaying the row and column operations
  the elimination recorded (over a field, those of its rref),
* kernel             -- saturated kernel sublattice (nullspace over fields),
  a basis against which `_coordinates` reads coordinates by
  substitution, with no second elimination,
* cokernel           -- presentation of target/im(m) with projection and
  section.  Its front end, signed_quotient, is a signed union-find: it
  takes every relation matrix whose columns hold at most two entries,
  each +1 or -1 (the incidence matrix of a signed graph), and so every
  coinvariant module of a signed permutation action and every colimit
  of complexes along such maps, with no Smith form.  Every other matrix
  goes through the Smith form.

No floats anywhere.  Matrices stay small (desk scale) but entry growth is
kept in check by smallest-pivot selection.
"""

from __future__ import annotations

import heapq
from fractions import Fraction
from functools import cached_property
from math import lcm

from .rings import Ring, ZZ, ring_from_name

__all__ = ["FreeModule", "LinearMap", "compose", "hstack", "vstack", "Echelon",
           "rref", "SmithForm", "smith_normal_form", "hnf_columns", "kernel",
           "solve", "ModulePresentation", "CokernelPresentation",
           "signed_quotient", "cokernel", "matrix_to_json", "matrix_from_json"]


class FreeModule:
    """The free module ring^rank.  Its basis is 0..rank-1: a module is
    its ring and its rank, and two modules with the same ones are equal.
    Every builder documents the order in which its basis lists the
    pieces it is made of.  ValueError unless rank is an int (not a bool)
    and at least 0."""

    __slots__ = ("ring", "rank")

    def __init__(self, ring: Ring, rank: int):
        if type(rank) is not int or rank < 0:
            raise ValueError(f"a free module's rank must be an int >= 0, "
                             f"not {rank!r}")
        self.ring = ring
        self.rank = rank

    def __repr__(self):
        return f"FreeModule({self.ring.name()}, rank={self.rank})"

    def __eq__(self, other):
        if self is other:
            return True
        return (
            isinstance(other, FreeModule)
            and self.ring == other.ring
            and self.rank == other.rank
        )

    def __hash__(self):
        return hash((self.ring, self.rank))


class LinearMap:
    """Map of free modules, stored as {(row, col): entry} with no zeros.

    Rows index the target basis, columns the source basis.

    Every stored entry is canonical: its position lies inside the shape,
    it is nonzero, and it is an int over Z, a Fraction over Q and an int
    in [0, p) over Z/p.  The public constructor checks and normalizes
    each entry it is given, and is the only way entries from outside
    this module come in.  The private `_canonical` stores a dict as it
    is; only this module's own arithmetic calls it, on entries that
    arithmetic has just made canonical from canonical operands:
    `identity`, `zero`, `+`, `-`, `scale` and negation, `tensor`,
    `direct_sum`, `transpose`, `compose`, `hstack` and `vstack`.  Each
    of them checks its operands' rings and shapes with ValueError.
    Over Q, `compose` stores the entries of the Q product kernel: its
    general path `_q_product_entries`, which sums on integer numerators
    and builds one Fraction per stored entry, and `_q_mul` in its
    column-function pass, which passes a factor +1 or -1 through.
    `placed` calls it too, to copy the entries of maps that are
    canonical already into a larger or relabelled map, and so does
    `signed_quotient`, whose projection and section hold only the
    ring's `one` and its negative, at positions its union-find keeps
    inside the shape.  So do `hnf_columns`, `rref`, the transforms
    `_replayed` builds, the field `kernel` and `solve`, whose entries are
    exact combinations of canonical entries, reduced mod p over Z/p.

    `column_function` says whether every column holds at most one entry,
    as signed permutations and relabelings do; `compose` takes a
    one-pass product when its right factor is one.  The flag is set by
    the producers that know it anyway: the public constructor's entry
    loop, `identity`, `zero` and a `compose` of two column functions.
    Every other map scans its entries once, when first asked, and keeps
    the answer.  It is a property of the entries, read off them: it
    never changes them or their order.  So the entries are not mutated
    after construction.
    """

    __slots__ = ("source", "target", "entries", "_column_function")

    def __init__(self, source: FreeModule, target: FreeModule, entries):
        if source.ring is not target.ring and source.ring != target.ring:
            raise ValueError("source and target lie over different rings")
        ring = source.ring
        rows, cols = target.rank, source.rank
        clean, seen = {}, set()
        for (i, j), v in entries.items():
            if type(i) is not int or type(j) is not int:
                raise ValueError(f"entry position ({i!r},{j!r}) is not a "
                                 f"pair of ints")
            if not (0 <= i < rows and 0 <= j < cols):
                raise ValueError(f"entry ({i},{j}) outside {rows}x{cols}")
            v = ring.normalize(v)
            if v:
                clean[(i, j)] = v
                seen.add(j)
        self.source = source
        self.target = target
        self.entries = clean
        self._column_function = len(seen) == len(clean)

    @classmethod
    def _canonical(cls, source: FreeModule, target: FreeModule,
                   entries: dict, column_function=None) -> "LinearMap":
        """A map holding `entries` itself, unchecked: see the class
        docstring for who may call this and what it relies on.  Pass
        column_function only when the caller knows it; None leaves it
        to the first read."""
        m = object.__new__(cls)
        m.source = source
        m.target = target
        m.entries = entries
        m._column_function = column_function
        return m

    @property
    def column_function(self) -> bool:
        """Whether every column holds at most one entry (see the class
        docstring)."""
        if self._column_function is None:
            self._column_function = \
                len({j for _, j in self.entries}) == len(self.entries)
        return self._column_function

    # -- construction helpers -------------------------------------------

    @classmethod
    def from_rows(cls, source, target, rows):
        entries = {}
        for i, row in enumerate(rows):
            for j, v in enumerate(row):
                if v:
                    entries[(i, j)] = v
        return cls(source, target, entries)

    @classmethod
    def identity(cls, module: FreeModule):
        one = module.ring.one
        return cls._canonical(
            module, module, {(i, i): one for i in range(module.rank)}, True)

    @classmethod
    def placed(cls, source: FreeModule, target: FreeModule,
               blocks) -> "LinearMap":
        """The map source -> target holding, for each block (row, col, m)
        in turn, m's entry (i, j) at (row + i, col + j).

        m's entries are canonical already, so each block is checked once,
        not entry by entry: it must lie over the target's ring and fit
        inside the target shape at (row, col), or ValueError.  Entries
        are placed, never summed: two blocks storing an entry at the same
        position raise ValueError.
        """
        ring = target.ring
        # rings are shared, so identity settles nearly every check without
        # a call to Ring.__eq__
        if source.ring is not ring and source.ring != ring:
            raise ValueError("source and target lie over different rings")
        rows, cols = target.rank, source.rank
        entries = {}
        for r, c, m in blocks:
            if m.source.ring is not ring and m.source.ring != ring:
                raise ValueError("a block lies over another ring")
            if not (0 <= r and 0 <= c and r + m.target.rank <= rows
                    and c + m.source.rank <= cols):
                raise ValueError(f"a {m.target.rank}x{m.source.rank} block at "
                                 f"({r},{c}) leaves {rows}x{cols}")
            count = len(entries) + len(m.entries)
            for (i, j), v in m.entries.items():
                entries[(r + i, c + j)] = v
            if len(entries) != count:
                raise ValueError(f"the block at ({r},{c}) overlaps an entry "
                                 "already placed")
        return cls._canonical(source, target, entries)

    @classmethod
    def zero(cls, source: FreeModule, target: FreeModule):
        if source.ring != target.ring:
            raise ValueError("source and target lie over different rings")
        return cls._canonical(source, target, {}, True)

    @property
    def ring(self) -> Ring:
        return self.source.ring

    @property
    def shape(self):
        return (self.target.rank, self.source.rank)

    def to_rows(self):
        rows = [[self.ring.zero] * self.source.rank for _ in range(self.target.rank)]
        for (i, j), v in self.entries.items():
            rows[i][j] = v
        return rows

    # -- arithmetic -------------------------------------------------------

    def _merge(self, other: "LinearMap", sign: int) -> "LinearMap":
        """self + sign * other for sign +1 or -1, in one pass: self's
        entries keep their order, other's new positions follow in
        theirs, and a position that cancels is dropped."""
        if self.shape != other.shape or self.ring != other.ring:
            raise ValueError(
                f"cannot add a {other.shape[0]}x{other.shape[1]} map over "
                f"{other.ring.name()} to a {self.shape[0]}x{self.shape[1]} "
                f"map over {self.ring.name()}")
        p = self.ring.p
        entries = dict(self.entries)
        get = entries.get
        for k, v in other.entries.items():
            t = get(k)
            if t is None:
                v = v if sign == 1 else -v
            else:
                v = t + v if sign == 1 else t - v
            if p is not None:
                v %= p
            if v:
                entries[k] = v
            else:
                del entries[k]
        return LinearMap._canonical(self.source, self.target, entries)

    def __add__(self, other: "LinearMap") -> "LinearMap":
        return self._merge(other, 1)

    def __sub__(self, other: "LinearMap") -> "LinearMap":
        return self._merge(other, -1)

    def scale(self, c) -> "LinearMap":
        ring = self.ring
        c = ring.normalize(c)
        if not c:
            return LinearMap._canonical(self.source, self.target, {})
        p = ring.p
        if p is None:
            entries = {k: c * v for k, v in self.entries.items()}
        else:
            entries = {k: c * v % p for k, v in self.entries.items()}
        return LinearMap._canonical(self.source, self.target, entries)

    def __neg__(self):
        return self.scale(-1)

    def __matmul__(self, other: "LinearMap") -> "LinearMap":
        return compose(self, other)

    def __eq__(self, other):
        return (
            isinstance(other, LinearMap)
            and self.ring == other.ring
            and self.shape == other.shape
            and self.entries == other.entries
        )

    def __hash__(self):
        return hash((self.ring, self.shape, tuple(sorted(self.entries.items()))))

    def is_zero(self) -> bool:
        return not self.entries

    def __repr__(self):
        return f"LinearMap({self.target.rank}x{self.source.rank} over {self.ring.name()})"

    # -- structure --------------------------------------------------------

    def tensor(self, other: "LinearMap") -> "LinearMap":
        """Kronecker product in row-major pair order (`_kron_entries`)."""
        if self.ring != other.ring:
            raise ValueError("ring mismatch")
        ring = self.ring
        src = FreeModule(ring, self.source.rank * other.source.rank)
        tgt = FreeModule(ring, self.target.rank * other.target.rank)
        return LinearMap._canonical(src, tgt, _kron_entries(self, other))

    def direct_sum(self, other: "LinearMap") -> "LinearMap":
        if self.ring != other.ring:
            raise ValueError("ring mismatch")
        ring = self.ring
        r0, c0 = self.target.rank, self.source.rank
        src = FreeModule(ring, c0 + other.source.rank)
        tgt = FreeModule(ring, r0 + other.target.rank)
        entries = dict(self.entries)
        for (i, j), v in other.entries.items():
            entries[(i + r0, j + c0)] = v
        return LinearMap._canonical(src, tgt, entries)

    def transpose(self) -> "LinearMap":
        return LinearMap._canonical(
            self.target, self.source, {(j, i): v for (i, j), v in self.entries.items()}
        )

    def column(self, j: int) -> dict:
        return {i: v for (i, jj), v in self.entries.items() if jj == j}

    def rank_of_image(self) -> int:
        if self.ring.is_field:
            return len(rref(self).pivots)
        return len([d for d in smith_normal_form(self).diagonal if d != 0])

    def is_iso(self) -> bool:
        """Invertible over the ring (unimodular over Z)."""
        if self.source.rank != self.target.rank:
            return False
        if self.ring.is_field:
            return self.rank_of_image() == self.source.rank
        diagonal = smith_normal_form(self).diagonal
        return len(diagonal) == self.source.rank and all(d == 1 for d in diagonal)

    def inverse(self) -> "LinearMap":
        """Two-sided inverse; ValueError if the map is not invertible.

        >>> M = FreeModule(ZZ, 1)
        >>> LinearMap.from_rows(M, M, [[2]]).inverse()
        Traceback (most recent call last):
            ...
        ValueError: map is not invertible
        """
        sol = None
        if self.source.rank == self.target.rank:
            sol = solve(self, LinearMap.identity(self.target))
        if sol is None:
            raise ValueError("map is not invertible")
        inv = LinearMap(self.target, self.source, sol.entries)
        if (self @ inv) != LinearMap.identity(self.target):
            raise ValueError("inverse fails on the target side")
        if (inv @ self) != LinearMap.identity(self.source):
            raise ValueError("inverse fails on the source side")
        return inv


def _kron_entries(f: LinearMap, g: LinearMap) -> dict:
    """Entries of the Kronecker product f (x) g, with no module or map.

    Basis pair (a, b) sits at a * rank + b, rank that of g's side, and
    the entries come in this order: f's entries outer, g's inner, each
    in its own insertion order.  Callers that place the product into a
    bigger map keep that order, and so the order their maps had when
    they went through `LinearMap.tensor`.  The rings have no zero
    divisors, so the product of two canonical entries, reduced mod p
    over Z/p, is canonical again.
    """
    p = f.ring.p
    sb, tb = g.source.rank, g.target.rank
    g_items = list(g.entries.items())
    entries = {}
    for (i, j), v in f.entries.items():
        r, c = i * tb, j * sb
        if p is None:
            for (k, l), w in g_items:
                entries[(r + k, c + l)] = v * w
        else:
            for (k, l), w in g_items:
                entries[(r + k, c + l)] = v * w % p
    return entries


def _q_mul(v: Fraction, w: Fraction) -> Fraction:
    """v * w for two nonzero Fractions, with no Fraction product when a
    factor is +1 or -1: the other passes through, negated for -1.  Most
    entries over Q are signs, and a Fraction product costs two gcds and
    a new Fraction."""
    n = w.numerator
    if w.denominator == 1 and (n == 1 or n == -1):
        return v if n == 1 else -v
    n = v.numerator
    if v.denominator == 1 and (n == 1 or n == -1):
        return w if n == 1 else -w
    return v * w


def compose(f: LinearMap, g: LinearMap) -> LinearMap:
    """f after g.  Inner modules must agree in ring and rank.

    When g is a column function (`LinearMap.column_function`), column j
    of the product is w times column t of f, for g's one entry w at
    (t, j): one pass over g's entries writes each product v*w, reduced
    mod p over Z/p and through `_q_mul` over Q, with nothing summed; the
    rings have no zero divisors, so no product is zero.  f is indexed by
    its columns, over Z and Z/p one entry each when f is known to be a
    column function (no scan of f is made to find out); when it is
    known to be one, the product is one too.  Every other g takes the
    general path, `_sparse_product`.  `_product_entries` is this pass's
    test oracle; both store the same entries in the same order.
    """
    fs, gt = f.source, g.target
    if gt != fs:
        raise ValueError(
            f"cannot compose: inner ranks {gt.rank} vs {fs.rank}")
    ring = fs.ring
    p, q = ring.p, ring.kind == "Q"
    # the slot directly: most products have a few entries, and a property
    # call would add a visible share to each
    flag = g._column_function
    if not (g.column_function if flag is None else flag):
        return LinearMap._canonical(
            g.source, f.target, _sparse_product(ring, f.entries, g.entries))
    entries = {}
    if f._column_function and not q:
        f_col = {t: (i, v) for (i, t), v in f.entries.items()}.get
        for (t, j), w in g.entries.items():
            hit = f_col(t)
            if hit is not None:
                v = hit[1] * w
                entries[(hit[0], j)] = v if p is None else v % p
        return LinearMap._canonical(g.source, f.target, entries, True)
    f_cols: dict = {}
    for (i, t), v in f.entries.items():
        f_cols.setdefault(t, []).append((i, v))
    if q:
        for (t, j), w in g.entries.items():
            for i, v in f_cols.get(t, ()):
                entries[(i, j)] = _q_mul(v, w)
    else:
        for (t, j), w in g.entries.items():
            for i, v in f_cols.get(t, ()):
                entries[(i, j)] = v * w if p is None else v * w % p
    return LinearMap._canonical(g.source, f.target, entries,
                                f._column_function or None)


def _sparse_product(ring: Ring, f_entries: dict, g_entries: dict) -> dict:
    """The entries of f after g over ring from the two entry dicts, the
    general product of `compose` and of callers that chain products on
    entry dicts before any map is built: `_q_product_entries` over Q,
    `_product_entries` over Z and Z/p."""
    if ring.kind == "Q":
        return _q_product_entries(f_entries, g_entries)
    return _product_entries(f_entries, g_entries, ring.p)


def _product_entries(f_entries: dict, g_entries: dict, p) -> dict:
    """The entries of f after g from the two entry dicts, reduced mod p
    unless p is None: `_sparse_product` over Z and Z/p, and the oracle
    of `compose`'s column-function pass and of `_q_product_entries`.
    Each column of g is merged with the columns of f it hits, summing
    raw products; each output entry is reduced mod p once (over Z/p)
    and dropped if zero.  The arithmetic is exact over Z, Q and Z/p, so
    the result does not depend on when it is reduced, and a sum starts
    from its first product, not from the int 0, so over Q no Fraction is
    ever added to an int.  The factors' entries need not be reduced mod
    p, but over Q they must be Fractions.  Over Q only tests call it on
    Fractions: the library routes every Q product through
    `_q_product_entries`, which calls it on integer numerators.  The
    result is canonical, its entries grouped by the column of g they
    come from, in the order those columns first appear in g_entries."""
    if not f_entries or not g_entries:
        return {}
    g_cols: dict = {}
    for (i, j), v in g_entries.items():
        g_cols.setdefault(j, []).append((i, v))
    f_cols: dict = {}
    for (i, j), v in f_entries.items():
        f_cols.setdefault(j, []).append((i, v))
    entries: dict = {}
    for j, col in g_cols.items():
        acc: dict = {}
        for t, w in col:
            for i, v in f_cols.get(t, ()):
                if i in acc:
                    acc[i] += v * w
                else:
                    acc[i] = v * w
        for i, v in acc.items():
            if p is not None:
                v %= p
            if v:
                entries[(i, j)] = v
    return entries


def _numerators(entries: dict, side: int):
    """Fraction entries as ints: each line (the row for side 0, the
    column for side 1) times the lcm of its entries' denominators.
    Returns the int entries, in the same order, and the lcm of each
    line whose lcm is not 1.  Every stored entry over Q is a Fraction,
    as `Ring.normalize` makes it."""
    scale: dict = {}
    for k, v in entries.items():
        if v.denominator != 1:
            scale[k[side]] = lcm(scale.get(k[side], 1), v.denominator)
    return {k: v.numerator * (scale.get(k[side], 1) // v.denominator)
            for k, v in entries.items()}, scale


def _q_product_entries(f_entries: dict, g_entries: dict) -> dict:
    """`_product_entries(f_entries, g_entries, None)` for Fraction
    entries, summed on integer numerators: each row of f and each column
    of g is scaled by the lcm of its denominators (`_numerators`), the
    integer loop of `_product_entries` sums the scaled products, and each
    stored sum x becomes one Fraction, x over its row's and its column's
    scale.  A sum is zero exactly when its scaled one is, so both store
    the same values, as Fractions, in the same order."""
    F, rows = _numerators(f_entries, 0)
    G, cols = _numerators(g_entries, 1)
    out = _product_entries(F, G, None)
    # all denominators 1, as on every workload and on the Barratt-Eccles
    # levels: no scale to look up per stored entry
    if not rows and not cols:
        return {k: Fraction(x) for k, x in out.items()}
    return {(i, j): Fraction(x) if (d := rows.get(i, 1) * cols.get(j, 1)) == 1
            else Fraction(x, d) for (i, j), x in out.items()}


def _stack(maps, common: str, what: str):
    """The maps as a list, and their common side; ValueError unless
    there is at least one map and they share that side's ring and rank."""
    maps = list(maps)
    if not maps:
        raise ValueError(f"{what} needs at least one map")
    side = getattr(maps[0], common)
    for m in maps:
        if getattr(m, common) != side:
            raise ValueError(f"{what}: the maps' {common}s differ in ring or rank")
    return maps, side


def hstack(maps) -> LinearMap:
    """[f g ...] : S1 + S2 + ... -> T for maps with a common target."""
    maps, tgt = _stack(maps, "target", "hstack")
    src = FreeModule(tgt.ring, sum(m.source.rank for m in maps))
    entries = {}
    off = 0
    for m in maps:
        for (i, j), v in m.entries.items():
            entries[(i, j + off)] = v
        off += m.source.rank
    return LinearMap._canonical(src, tgt, entries)


def vstack(maps) -> LinearMap:
    """(f; g; ...) : S -> T1 + T2 + ... for maps with a common source."""
    maps, src = _stack(maps, "source", "vstack")
    tgt = FreeModule(src.ring, sum(m.target.rank for m in maps))
    entries = {}
    off = 0
    for m in maps:
        for (i, j), v in m.entries.items():
            entries[(i + off, j)] = v
        off += m.target.rank
    return LinearMap._canonical(src, tgt, entries)


# ---------------------------------------------------------------------------
# echelon forms
# ---------------------------------------------------------------------------


class Echelon:
    """The reduced row echelon form R = T*m of a map m over a field.

    `R` and `pivots` (the pivot column of each nonzero row, increasing)
    are computed with the form, and so is `log`, the row operations of
    the elimination in the order they were made (see `_replay`).  T is
    built from the log the first time it is read, and kept.  Unpacks as
    (R, T, pivots).
    """

    def __init__(self, R: LinearMap, pivots: list, log: list):
        self.R = R
        self.pivots = pivots
        self.log = log

    @cached_property
    def T(self) -> LinearMap:
        return _replayed(self.log, self.R.target)

    def __iter__(self):
        return iter((self.R, self.T, self.pivots))


def rref(m: LinearMap) -> Echelon:
    """Reduced row echelon form over a field: R = T*m, as an `Echelon`.

    One sparse elimination for Q and Z/p, on dict rows with an index of
    the rows holding each column.  For each column in turn, the first
    row at or below the current one with an entry there is swapped up,
    scaled to 1 and cleared from every other row.  Each swap, scale and
    add is logged, and T is replayed from the log only when it is read:
    `kernel`, `rank_of_image` and `is_iso` read R and the pivots alone,
    and `solve` replays the log on its right-hand side.
    """
    ring = m.ring
    if not ring.is_field:
        raise ValueError(f"rref needs a field, got {ring}")
    p, one = ring.p, ring.one
    n = m.target.rank
    # rows by id, their first position; `where` maps a column to the ids
    # of the rows holding it, and a swap only exchanges positions
    rows = [{} for _ in range(n)]
    where: dict = {}
    for (i, j), v in m.entries.items():
        rows[i][j] = v
        where.setdefault(j, set()).add(i)
    at, pos = list(range(n)), list(range(n))
    log, pivots = [], []
    r = 0
    for col in range(m.source.rank):
        if r >= n:
            break
        piv = min((pos[i] for i in where.get(col, ()) if pos[i] >= r),
                  default=None)
        if piv is None:
            continue
        if piv != r:
            a, b = at[r], at[piv]
            at[r], at[piv], pos[a], pos[b] = b, a, piv, r
            log.append(("swap", r, piv, None))
        k = at[r]
        prow = rows[k]
        u = prow[col]
        if u != one:
            c = ring.inv(u)
            if p is None:
                prow = {j: v * c for j, v in prow.items()}
            else:
                prow = {j: v * c % p for j, v in prow.items()}
            rows[k] = prow
            log.append(("scale", r, u, c))
        for i in list(where[col]):
            if i == k:
                continue
            ri = rows[i]
            f = ri[col]
            for j, v in prow.items():
                if j in ri:
                    nv = ri[j] - f * v
                    if p is not None:
                        nv %= p
                    if nv:
                        ri[j] = nv
                    else:
                        del ri[j]
                        where[j].discard(i)
                else:
                    ri[j] = -f * v if p is None else -f * v % p
                    where.setdefault(j, set()).add(i)
            log.append(("add", pos[i], r, -f))
        pivots.append(col)
        r += 1
    entries = {(i, j): v for i, k in enumerate(at) for j, v in rows[k].items()}
    return Echelon(LinearMap._canonical(m.source, m.target, entries),
                   pivots, log)


class SmithForm:
    """U*m*V = D: U and V are invertible over the ring, and D is the
    diagonal matrix whose diagonal, `diagonal`, is a divisibility chain.

    `diagonal` is computed with the form.  U, V and U^-1 are each built
    the first time they are read, and kept.  Over Z all three are
    replayed from the logged row and column operations of the
    elimination (`_replay`).  Over a field from its rref: U is T and U^-1
    its log replayed in reverse, and V is read off R.  `kernel` reads
    only V, `solve` U and V, `cokernel` U and U^-1, and `is_iso` and
    `rank_of_image` none of them.
    """

    def __init__(self, diagonal, U, V, Uinv):
        self.diagonal = diagonal
        self._build = {"U": U, "V": V, "Uinv": Uinv}

    @cached_property
    def U(self) -> LinearMap:
        return self._build["U"]()

    @cached_property
    def V(self) -> LinearMap:
        return self._build["V"]()

    @cached_property
    def Uinv(self) -> LinearMap:
        return self._build["Uinv"]()


def _replay(log, rows: dict, p=None, inverse: bool = False) -> dict:
    """Apply the row operations in `log` to `rows`, {i: {j: entry}} with
    every row present, in place, and return it.  ("add", a, b, c) is
    row a += c * row b (a != b), ("swap", a, b, _) swaps rows a and b,
    ("neg", a, _, _) negates row a, and ("scale", a, u, c) is row a *= c
    for c = 1/u.  Entries are reduced mod p unless p is None.  With
    `inverse`, the inverse of each operation, in reverse order: on the
    identity that makes the inverse of the matrix the log makes."""
    for op, a, b, c in (reversed(log) if inverse else log):
        if op == "add":
            c = -c if inverse else c
            ra = rows[a]
            for j, v in rows[b].items():
                nv = ra[j] + c * v if j in ra else c * v
                if p is not None:
                    nv %= p
                if nv:
                    ra[j] = nv
                elif j in ra:
                    del ra[j]
        elif op == "swap":
            rows[a], rows[b] = rows[b], rows[a]
        else:
            f = -1 if op == "neg" else b if inverse else c
            if p is None:
                rows[a] = {j: f * v for j, v in rows[a].items()}
            else:
                rows[a] = {j: f * v % p for j, v in rows[a].items()}
    return rows


def _replayed(log, module: FreeModule, inverse: bool = False) -> LinearMap:
    """The map of `module` to itself that the row operations in `log`
    make of the identity (`_replay`).  Its entries are exact
    combinations of canonical ones, reduced mod p over Z/p."""
    ring = module.ring
    rows = {i: {i: ring.one} for i in range(module.rank)}
    rows = _replay(log, rows, ring.p, inverse)
    return LinearMap._canonical(
        module, module, {(i, j): v for i, r in rows.items() for j, v in r.items()})


def _add(lines, other, log, a, b, c):
    """Line a += c * line b (a != b) of a matrix stored twice, as
    `lines` and as its transpose `other`, and log ("add", a, b, c);
    nothing when c is 0."""
    if not c:
        return
    la = lines[a]
    for k, v in lines[b].items():
        nv = la.get(k, 0) + c * v
        if nv:
            la[k] = other[k][a] = nv
        else:
            del la[k], other[k][a]
    log.append(("add", a, b, c))


def _swap(lines, other, log, a, b):
    """Exchange lines a and b of a matrix stored twice (see `_add`), and
    log ("swap", a, b, 0); nothing when a == b."""
    if a == b:
        return
    la, lb = lines[a], lines[b]
    for k in la:
        del other[k][a]
    for k in lb:
        del other[k][b]
    for k, v in la.items():
        other[k][b] = v
    for k, v in lb.items():
        other[k][a] = v
    lines[a], lines[b] = lb, la
    log.append(("swap", a, b, 0))


def _clear(lines, other, log, t) -> bool:
    """Reduce each line a != t with an entry at t, in order of a, by the
    multiple of line t that leaves the symmetric remainder of that entry
    by the pivot lines[t][t] > 0, which keeps the fill-in multiplier
    minimal; whether any remainder is left."""
    p = lines[t][t]
    left = False
    for a in sorted(other[t]):
        if a != t:
            q, r = divmod(lines[a][t], p)
            _add(lines, other, log, a, t, -q - (2 * r > p))
            left = left or t in lines[a]
    return left


def _smith_integer(m: LinearMap) -> SmithForm:
    R, C = m.target.rank, m.source.rank
    # each entry twice, rows[i][j] = cols[j][i]: a column operation is the
    # row operation on the transpose, so _add, _swap and _clear serve both
    # sides, as (rows, cols, row_log) or as (cols, rows, col_log).  The
    # logs keep the operations in the order they are made, for _replay:
    # U is the row operations applied to the identity, V^T the column ones
    rows, cols = [{} for _ in range(R)], [{} for _ in range(C)]
    for (i, j), v in m.entries.items():
        rows[i][j] = cols[j][i] = v
    row_log, col_log = [], []

    def negate(i):
        r = rows[i]
        for j in r:
            r[j] = cols[j][i] = -r[j]
        row_log.append(("neg", i, i, 0))

    n = min(R, C)
    t = 0
    while t < n:
        # smallest-magnitude pivot in the remaining block; ties by position.
        # Re-selected after every remainder round: without that, entry sizes
        # square each round on dense inputs and the computation never ends.
        best = min(((abs(v), i, j) for i in range(t, R)
                    for j, v in rows[i].items() if j >= t), default=None)
        if best is None:
            break
        _swap(rows, cols, row_log, t, best[1])
        _swap(cols, rows, col_log, t, best[2])
        if rows[t][t] < 0:
            negate(t)
        # once column t is clear below the pivot, the column operations
        # touch row t only and cannot re-dirty column t
        if not (_clear(rows, cols, row_log, t)
                or _clear(cols, rows, col_log, t)):
            t += 1

    # the matrix is now diagonal, nonzero exactly at d_0..d_{t-1}.  Enforce
    # the divisibility chain d_i | d_{i+1}: fold d_{i+1} into column i, run
    # Euclid down column i to gcd(d_i, d_{i+1}) at (i, i), and clear the
    # entry it leaves at (i, i + 1), which that gcd divides
    changed = True
    while changed:
        changed = False
        for i in range(t - 1):
            if rows[i + 1][i + 1] % rows[i][i]:
                _add(cols, rows, col_log, i, i + 1, 1)
                while True:
                    _add(rows, cols, row_log, i + 1, i,
                         -(rows[i + 1][i] // rows[i][i]))
                    if i not in rows[i + 1]:
                        break
                    _swap(rows, cols, row_log, i, i + 1)
                _add(cols, rows, col_log, i + 1, i,
                     -(rows[i][i + 1] // rows[i][i]))
                for k in (i, i + 1):
                    if rows[k][k] < 0:
                        negate(k)
                changed = True
    diag = [rows[i].get(i, 0) for i in range(n)]
    for a, b in zip(diag, diag[1:]):
        if (b % a if a else b) != 0:
            raise RuntimeError("integer Smith form: the diagonal is not a "
                               "divisibility chain")

    return SmithForm(
        tuple(diag),
        U=lambda: _replayed(row_log, m.target),
        V=lambda: _replayed(col_log, m.source).transpose(),
        Uinv=lambda: _replayed(row_log, m.target, inverse=True))


def _smith_field(m: LinearMap) -> SmithForm:
    ring = m.ring
    ech = rref(m)
    R1, pivots = ech.R, ech.pivots
    r = len(pivots)
    C = m.source.rank

    def build_V():
        # V = V0 V1: the permutation V0 puts the pivot columns first, and
        # the unipotent V1 clears the rest, col k (k >= r) -= sum RP[i][k]
        # col i with RP = R1 V0; both are relabelings of the entries of
        # R1, whose rows below r are zero
        used = set(pivots)
        order = list(pivots) + [j for j in range(C) if j not in used]
        slot = {j: k for k, j in enumerate(order)}
        entries = {(j, k): ring.one for k, j in enumerate(order)}
        for (i, j), v in R1.entries.items():
            if slot[j] >= r:
                entries[(order[i], slot[j])] = ring.neg(v)
        V = LinearMap(m.source, m.source, entries)
        if (R1 @ V).entries != {(i, i): ring.one for i in range(r)}:
            raise RuntimeError("field Smith form: T @ m @ V is not diagonal")
        return V

    diag = tuple([ring.one] * r) + tuple([ring.zero] * (min(m.target.rank, C) - r))
    return SmithForm(diag, U=lambda: ech.T, V=build_V,
                     Uinv=lambda: _replayed(ech.log, m.target, inverse=True))


def smith_normal_form(m: LinearMap) -> SmithForm:
    """Smith form with transforms.

    Over Z the diagonal is the nonnegative invariant chain; over a field
    it is 1s then 0s.

    >>> M = FreeModule(ZZ, 2)
    >>> f = LinearMap.from_rows(M, M, [[2, 0], [0, 3]])
    >>> smith_normal_form(f).diagonal
    (1, 6)
    """
    if m.ring.kind == "Z":
        return _smith_integer(m)
    return _smith_field(m)


def hnf_columns(m: LinearMap) -> LinearMap:
    """Column Hermite form of the lattice/space spanned by the columns.

    Canonical: pivots positive (monic over fields), entries right of a
    pivot reduced, zero columns dropped, pivot rows strictly increasing.
    Used to compare spans and to normalize kernel bases.

    Each pivot step takes its columns from a bucket keyed by leading
    row (a heap holds the leads), and a reduced column goes to the
    bucket of its new lead.  Buckets keep the order of one work list of
    all columns, so every operation is that of scanning such a list.
    The reduction above the pivots visits each column only at the pivot
    rows it holds.
    """
    ring = m.ring
    zero, mod = ring.zero, ring.p
    cols: dict = {}
    for (i, j), v in m.entries.items():
        cols.setdefault(j, {})[i] = v
    buckets: dict = {}
    heap: list = []

    def file(c):
        lead = min(c)
        bucket = buckets.get(lead)
        if bucket is None:
            buckets[lead] = [c]
            heapq.heappush(heap, lead)
        else:
            bucket.append(c)

    for j in sorted(cols):
        file(cols[j])
    out, leads = [], []
    while heap:
        lead = heapq.heappop(heap)
        group = buckets.pop(lead)
        if ring.is_field:
            piv = group[0]
            inv = ring.inv(piv[lead])
            piv = {i: ring.mul(inv, v) for i, v in piv.items()}
            for c in group[1:]:
                f = ring.neg(c[lead])
                merged = dict(c)
                for i, v in piv.items():
                    nv = merged.get(i, zero) + f * v
                    if mod is not None:
                        nv %= mod
                    if nv != zero:
                        merged[i] = nv
                    elif i in merged:
                        del merged[i]
                if merged:
                    file(merged)
        else:
            # gcd rounds on the leading entries: the smallest one reduces
            # all others to symmetric remainders.  Re-selecting it every
            # round keeps the multipliers small; a pairwise gcd chain
            # lets the lower entries grow row after row (29 s against
            # 0.04 s on a dense 63x63 integer idempotent).
            while len(group) > 1:
                piv = min(group, key=lambda c: abs(c[lead]))
                p = piv[lead]
                kept = [piv]
                for c in group:
                    if c is piv:
                        continue
                    q, r = divmod(c[lead], p)
                    if 2 * abs(r) > abs(p):
                        q += 1
                    for i, v in piv.items():
                        nv = c.get(i, 0) - q * v
                        if nv:
                            c[i] = nv
                        else:
                            del c[i]
                    if lead in c:
                        kept.append(c)
                    elif c:
                        file(c)
                group = kept
            piv = group[0]
            if piv[lead] < 0:
                piv = {i: -v for i, v in piv.items()}
        out.append(piv)
        leads.append(lead)
    # reduce above-pivot entries for canonicity.  Column t meets the
    # later columns k in increasing order, each while column k is still
    # unreduced, so it visits only the pivot rows it holds, smallest
    # first; a reduction adds rows below the one it clears, never above
    pivot_of = {lead: k for k, lead in enumerate(leads)}
    for t, c in enumerate(out):
        todo = [i for i in c if i in pivot_of and i != leads[t]]
        heapq.heapify(todo)
        last = None
        while todo:
            r = heapq.heappop(todo)
            if r == last or r not in c:
                continue
            last = r
            piv = out[pivot_of[r]]
            if ring.is_field:
                q = ring.mul(c[r], ring.inv(piv[r]))
            else:
                q = c[r] // piv[r]
            if q != zero:
                for i, v in piv.items():
                    nv = c.get(i, zero) - q * v
                    if mod is not None:
                        nv %= mod
                    if nv != zero:
                        if i not in c and i in pivot_of:
                            heapq.heappush(todo, i)
                        c[i] = nv
                    elif i in c:
                        del c[i]
    entries = {}
    for j, c in enumerate(out):
        for i, v in c.items():
            entries[(i, j)] = v
    return LinearMap._canonical(FreeModule(ring, len(out)), m.target, entries)


def kernel(m: LinearMap):
    """Saturated kernel: (K, incl) with incl a basis of {x : m x = 0}.

    Over a field the basis is read off the rref: one vector per free
    column, 1 there and minus that column of R at the pivot columns, so
    it is the identity on the free columns.  Over Z the span is the full
    kernel sublattice (automatically saturated), from the Smith form;
    the basis is Hermite-reduced for determinism.  Either way it is the
    basis `_coordinates` reads coordinates against (`_pivots`).

    >>> M2, M1 = FreeModule(ZZ, 2), FreeModule(ZZ, 1)
    >>> f = LinearMap.from_rows(M2, M1, [[2, 4]])
    >>> K, incl = kernel(f)
    >>> incl.to_rows()
    [[2], [-1]]
    """
    ring = m.ring
    if ring.is_field:
        ech = rref(m)
        pivots, p = ech.pivots, ring.p
        is_pivot = set(pivots)
        free = [j for j in range(m.source.rank) if j not in is_pivot]
        slot = {j: k for k, j in enumerate(free)}
        entries = {(j, k): ring.one for j, k in slot.items()}
        for (i, j), v in ech.R.entries.items():
            if j in slot:
                entries[(pivots[i], slot[j])] = -v if p is None else p - v
        incl = LinearMap._canonical(FreeModule(ring, len(free)),
                                    m.source, entries)
    else:
        # the columns of V against zero diagonal entries span the kernel
        sf = smith_normal_form(m)
        diag = sf.diagonal
        zero = [j for j in range(m.source.rank) if j >= len(diag) or diag[j] == 0]
        slot = {j: k for k, j in enumerate(zero)}
        cols = {(i, slot[j]): v for (i, j), v in sf.V.entries.items()
                if j in slot}
        incl = hnf_columns(
            LinearMap(FreeModule(ring, len(slot)), m.source, cols))
    if not (m @ incl).is_zero():
        raise RuntimeError("kernel: the basis is not killed by the map")
    return incl.source, incl


def solve(m: LinearMap, b: LinearMap):
    """Exact solution X of m @ X = b, or None.  b shares m's target:
    its ring and rank, which is all `compose` asks of it, so it is
    used as it stands."""
    if b.target != m.target:
        raise ValueError(
            f"solve: the right-hand side has {b.target.rank} rows over "
            f"{b.ring.name()}, the map {m.target.rank} over {m.ring.name()}")
    ring = m.ring
    if ring.is_field:
        # T b, by replaying the elimination on b's rows
        ech = rref(m)
        rows = {i: {} for i in range(m.target.rank)}
        for (i, j), v in b.entries.items():
            rows[i][j] = v
        rows = _replay(ech.log, rows, ring.p)
        r = len(ech.pivots)
        if any(rows[i] for i in range(r, m.target.rank)):
            return None
        entries = {(c, j): v for k, c in enumerate(ech.pivots)
                   for j, v in rows[k].items()}
        x = LinearMap._canonical(b.source, m.source, entries)
    else:
        sf = smith_normal_form(m)
        ub = sf.U @ b
        r = len([d for d in sf.diagonal if d])
        entries = {}
        for (i, j), v in ub.entries.items():
            if i >= r:
                return None
            d = sf.diagonal[i]
            if v % d != 0:
                return None
            entries[(i, j)] = v // d
        z = LinearMap(b.source, sf.V.source, entries)
        x = sf.V @ z
    if (m @ x).entries != b.entries:
        return None
    return x


def _pivots(basis: LinearMap) -> list:
    """The pivot row of each vector of a basis from `kernel` or
    `doldkan._image_basis`, as `_coordinates` reads them: its first
    support row over Z, where the basis is in Hermite form, and its last
    over a field, where the basis is the identity on those rows."""
    first = not basis.ring.is_field
    pivots = [None] * basis.source.rank
    for i, j in basis.entries:
        q = pivots[j]
        if q is None or (i < q if first else i > q):
            pivots[j] = i
    return pivots


def _coordinates(basis: LinearMap, pivots, x: LinearMap) -> LinearMap:
    """c with basis . c = x, for a basis and its `_pivots`.

    Over a field that basis is the identity on its pivot rows, so c is
    the pivot rows of x.  Over Z basis vector t is zero above its pivot
    row, so row pivots[k] meets only vectors t <= k: each column of x is
    solved by forward substitution in pivot order over the pivot rows
    it touches, its own and those meeting a vector it uses.  Raises
    ValueError when a column of x is not in the span: the pivot rows
    then cannot account for all of x.
    """
    where = {r: k for k, r in enumerate(pivots)}
    entries = {}
    if basis.ring.is_field:
        for (i, j), v in x.entries.items():
            k = where.get(i)
            if k is not None:
                entries[(k, j)] = v
    else:
        at = [dict() for _ in pivots]
        meets = [[] for _ in pivots]
        for (i, t), v in basis.entries.items():
            k = where.get(i)
            if k is not None:
                at[k][t] = v
                if k != t:
                    meets[t].append(k)
        cols: dict = {}
        for (i, j), v in x.entries.items():
            cols.setdefault(j, {})[i] = v
        for j, col in cols.items():
            todo = [where[i] for i in col if i in where]
            seen = set(todo)
            heapq.heapify(todo)
            c = {}
            while todo:
                k = heapq.heappop(todo)
                row = at[k]
                v = col.get(pivots[k], 0)
                for t, w in row.items():
                    if t in c:
                        v -= w * c[t]
                if v:
                    c[k] = v // row[k]
                    for k2 in meets[k]:
                        if k2 not in seen:
                            seen.add(k2)
                            heapq.heappush(todo, k2)
            for k, v in c.items():
                entries[(k, j)] = v
    coords = LinearMap(x.source, basis.source, entries)
    if compose(basis, coords).entries != x.entries:
        raise ValueError("column is not in the span of the basis")
    return coords


# ---------------------------------------------------------------------------
# cokernels
# ---------------------------------------------------------------------------


class ModulePresentation:
    """Isomorphism type of a finitely generated module: free rank plus
    invariant factors (each > 1, ordered by divisibility)."""

    __slots__ = ("free_rank", "invariant_factors")

    def __init__(self, free_rank: int, invariant_factors=()):
        self.free_rank = free_rank
        self.invariant_factors = tuple(invariant_factors)

    def __eq__(self, other):
        return (
            isinstance(other, ModulePresentation)
            and self.free_rank == other.free_rank
            and self.invariant_factors == other.invariant_factors
        )

    def __hash__(self):
        return hash((self.free_rank, self.invariant_factors))

    def is_trivial(self) -> bool:
        return self.free_rank == 0 and not self.invariant_factors

    def is_free(self) -> bool:
        return not self.invariant_factors

    def __repr__(self):
        if self.invariant_factors:
            tors = " + " + " + ".join(f"Z/{d}" for d in self.invariant_factors)
        else:
            tors = ""
        return f"Presentation(rank {self.free_rank}{tors})"


class CokernelPresentation:
    """A quotient of a free module, in explicit quotient coordinates.

    The generators list torsion coordinates first (orders in
    invariant_factors), then free coordinates.  proj: module ->
    generators and section: generators -> module satisfy
    proj @ section = id; classes are equal iff their reduced coordinates
    agree.
    """

    __slots__ = ("invariant_factors", "proj", "section")

    def __init__(self, proj, section, invariant_factors=()):
        self.invariant_factors = tuple(invariant_factors)
        self.proj = proj
        self.section = section

    @property
    def ring(self) -> Ring:
        return self.proj.ring

    @property
    def generators(self) -> FreeModule:
        return self.proj.target

    @property
    def presentation(self) -> ModulePresentation:
        return ModulePresentation(
            self.generators.rank - len(self.invariant_factors),
            self.invariant_factors,
        )

    @property
    def torsion_rank(self) -> int:
        return len(self.invariant_factors)

    def reduce_map(self, f: LinearMap) -> LinearMap:
        """Reduce torsion coordinates of a map into the generators."""
        if not self.invariant_factors:
            return f
        entries = {}
        for (i, j), v in f.entries.items():
            if i < self.torsion_rank:
                v = v % self.invariant_factors[i]
            if v != self.ring.zero:
                entries[(i, j)] = v
        return LinearMap(f.source, f.target, entries)

    def is_free(self) -> bool:
        return not self.invariant_factors


def signed_quotient(module: FreeModule, edges, killed=()) -> CokernelPresentation:
    """module / <e_j - s e_i, e_k> for the signed edges (j, s, i), that
    is e_j = s e_i with s = +1 or -1, and the killed vertices k.

    A signed union-find (Tarjan 1975) gives the quotient with no Smith
    form.  Each surviving class is represented by its least basis index:
    proj sends e_x to +-[class], the sign taken against the
    representative, and section sends [class] to the representative.  A
    class holding a killed vertex dies.  A class whose edges force
    e = -e is unbalanced (Zaslavsky, *Signed graphs*, 1982): over Z it
    is a torsion generator of order 2, listed first as in the Smith
    path; over Q and Z/p with p odd it dies.  Over Z/2, where -1 = 1,
    every sign counts as +1, so no class is unbalanced.

    >>> M = FreeModule(ZZ, 3)
    >>> signed_quotient(M, [(1, -1, 0)], killed=[2]).presentation
    Presentation(rank 1)
    >>> signed_quotient(M, [(1, -1, 0), (1, 1, 0)]).presentation
    Presentation(rank 1 + Z/2)
    """
    ring = module.ring
    n = module.rank
    one, minus = ring.one, ring.neg(ring.one)
    if one == minus:
        edges = [(j, 1, i) for j, _, i in edges]
    # e_x = sign[x] e_parent[x]; a root is the least index of its class
    parent = list(range(n))
    sign = [1] * n
    odd = [False] * n

    def find(x):
        path = []
        while parent[x] != x:
            path.append(x)
            x = parent[x]
        s = 1
        for y in reversed(path):
            s *= sign[y]
            sign[y] = s
            parent[y] = x
        return x

    for j, s, i in edges:
        rj, ri = find(j), find(i)
        s *= sign[j] * sign[i]              # e_rj = s e_ri
        if rj == ri:
            if s == -1:
                odd[rj] = True
            continue
        lo, hi = (rj, ri) if rj < ri else (ri, rj)
        parent[hi] = lo
        sign[hi] = s
        odd[lo] = odd[lo] or odd[hi]
    dead = {find(k) for k in killed}
    torsion, free = [], []
    for x in range(n):
        if parent[x] == x and x not in dead:
            if not odd[x]:
                free.append(x)
            elif not ring.is_field:
                torsion.append(x)
    reps = torsion + free
    pos = {r: k for k, r in enumerate(reps)}
    proj = {}
    for x in range(n):
        k = pos.get(find(x))
        if k is not None:
            proj[(k, x)] = one if sign[x] == 1 else minus
    gens = FreeModule(ring, len(reps))
    # one and minus are the ring's canonical units, at positions the
    # union-find keeps inside both shapes
    return CokernelPresentation(
        LinearMap._canonical(module, gens, proj),
        LinearMap._canonical(gens, module,
                             {(r, k): one for k, r in enumerate(reps)}),
        [2] * len(torsion))


def _signed_graph(m: LinearMap):
    """(edges, killed) for signed_quotient when every column of m holds
    at most two entries, each +1 or -1 in the ring: a column a e_i kills
    e_i, and a column a e_i + b e_j is the edge e_j = -ab e_i, its sign
    taken in the ring.  None for any other matrix."""
    ring = m.ring
    # int constants: a Fraction meets them on its fast int path
    one, minus = 1, (-1 if ring.p is None else ring.p - 1)
    cols: dict = {}
    for (i, j), v in m.entries.items():
        if v != one and v != minus:
            return None
        col = cols.setdefault(j, [])
        if len(col) == 2:
            return None
        col.append((i, v))
    edges, killed = [], []
    for col in cols.values():
        if len(col) == 1:
            killed.append(col[0][0])
        else:
            (i, a), (j, b) = col
            s = ring.neg(ring.mul(a, b))
            edges.append((j, 1 if s == one else -1, i))
    return edges, killed


def _smith_cokernel(m: LinearMap) -> CokernelPresentation:
    """The general path of cokernel: proj and section are the kept rows
    of U and columns of U^-1 from the Smith form."""
    ring = m.ring
    sf = smith_normal_form(m)
    R = m.target.rank
    diag = list(sf.diagonal) + [ring.zero] * (R - len(sf.diagonal))
    if ring.is_field:
        torsion_idx = []
        free_idx = [i for i in range(R) if diag[i] == ring.zero]
    else:
        torsion_idx = [i for i in range(R) if diag[i] not in (0, 1)]
        free_idx = [i for i in range(R) if diag[i] == 0]
    slot = {i: k for k, i in enumerate(torsion_idx + free_idx)}
    gens = FreeModule(ring, len(slot))
    proj = {(slot[r], c): v for (r, c), v in sf.U.entries.items() if r in slot}
    sec = {(r, slot[c]): v for (r, c), v in sf.Uinv.entries.items()
           if c in slot}
    return CokernelPresentation(LinearMap(m.target, gens, proj),
                                LinearMap(gens, m.target, sec),
                                [diag[i] for i in torsion_idx])


def cokernel(m: LinearMap) -> CokernelPresentation:
    """Presentation of target(m)/im(m) with projection and section.

    A relation matrix whose columns each hold at most two entries, each
    +1 or -1, is the incidence matrix of a signed graph, and its
    cokernel is a signed_quotient; every other matrix goes through the
    Smith form.

    >>> M = FreeModule(ZZ, 2)
    >>> f = LinearMap.from_rows(M, M, [[2, 0], [0, 3]])
    >>> cokernel(f).presentation
    Presentation(rank 0 + Z/6)
    >>> cokernel(LinearMap.from_rows(M, M, [[1, 1], [1, 1]])).presentation
    Presentation(rank 1)
    """
    graph = _signed_graph(m)
    if graph is None:
        pres = _smith_cokernel(m)
    else:
        pres = signed_quotient(m.target, *graph)
    if pres.proj @ pres.section != LinearMap.identity(pres.generators):
        raise RuntimeError("cokernel: proj @ section is not the identity")
    return pres


# ---------------------------------------------------------------------------
# JSON interface
# ---------------------------------------------------------------------------


def matrix_to_json(m: LinearMap) -> dict:
    ring = m.ring
    entries = [
        [i, j, ring.to_str(v)] for (i, j), v in sorted(m.entries.items())
    ]
    return {
        "ring": ring.name(),
        "rows": m.target.rank,
        "cols": m.source.rank,
        "entries": entries,
    }


def _json_list(value, what: str) -> list:
    """value, which a JSON loader reads as a list, or ValueError."""
    if not isinstance(value, list):
        raise ValueError(f"{what} is a list, not {type(value).__name__}")
    return value


def _json_fields(data, what: str, keys, lists=()) -> list:
    """The values under keys of data, a JSON object that a loader reads
    as what ("a matrix") document, or ValueError: when data is not an
    object, lacks one of keys or holds anything but a list under one of
    lists.  Every loader reads its documents and their nested entries
    through this."""
    if not isinstance(data, dict):
        raise ValueError(f"{what} document is an object, not "
                         f"{type(data).__name__}")
    for key in keys:
        if key not in data:
            raise ValueError(f"{what} document needs the key {key!r}")
    for key in lists:
        _json_list(data[key], f"{key!r} of {what} document")
    return [data[key] for key in keys]


def matrix_from_json(data: dict) -> LinearMap:
    """Inverse of matrix_to_json; ValueError for a missing key, an entry
    that is not [int, int, str], a malformed entry or a position listed
    twice."""
    name, rows, cols, items = _json_fields(
        data, "a matrix", ("ring", "rows", "cols", "entries"), ("entries",))
    ring = ring_from_name(name)
    src = FreeModule(ring, cols)
    tgt = FreeModule(ring, rows)
    entries = {}
    for entry in items:
        if not (isinstance(entry, list) and len(entry) == 3 and
                [type(x) for x in entry] == [int, int, str]):
            raise ValueError(f"entry {entry!r} is not [int, int, str]")
        i, j, s = entry
        if (i, j) in entries:
            raise ValueError(f"entry ({i},{j}) is listed twice")
        entries[(i, j)] = ring.from_str(s)
    return LinearMap(src, tgt, entries)


def _matrix_in_slot(data: dict, source: FreeModule,
                    target: FreeModule) -> LinearMap:
    """matrix_from_json(data), which must map source to target (the same
    ring and ranks), or ValueError: a loader never re-reads a matrix's
    entries in its slot's modules."""
    m = matrix_from_json(data)
    if m.source != source or m.target != target:
        raise ValueError(
            f"a {m.target.rank}x{m.source.rank} matrix over {m.ring.name()} "
            f"in a {target.rank}x{source.rank} slot over {target.ring.name()}")
    return m
