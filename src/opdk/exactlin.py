"""Exact linear algebra over Z, Q and Z/p.

Free modules carry ordered basis labels; maps are sparse coordinate
matrices with exact entries.  On top of plain matrix arithmetic this
module provides the workhorses everything else reduces to:

* smith_normal_form  -- U*m*V = D with unimodular U, V and a divisibility
  chain down the diagonal,
* kernel             -- saturated kernel sublattice (nullspace over fields),
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

from fractions import Fraction

from . import _kernel
from .rings import Ring, ZZ, ring_from_name

class FreeModule:
    """Finitely generated free module with an ordered, labeled basis."""

    __slots__ = ("ring", "labels")

    def __init__(self, ring: Ring, labels):
        labels = tuple(labels)
        assert len(set(labels)) == len(labels), "basis labels must be distinct"
        self.ring = ring
        self.labels = labels

    @property
    def rank(self) -> int:
        return len(self.labels)

    def compatible(self, other: "FreeModule") -> bool:
        return self.ring == other.ring and self.rank == other.rank

    def index(self, label: str) -> int:
        return self.labels.index(label)

    def __repr__(self):
        return f"FreeModule({self.ring.name()}, rank={self.rank})"

    def __eq__(self, other):
        return (
            isinstance(other, FreeModule)
            and self.ring == other.ring
            and self.labels == other.labels
        )

    def __hash__(self):
        return hash((self.ring, self.labels))


def free_module(ring: Ring, rank: int, prefix: str = "e") -> FreeModule:
    return FreeModule(ring, tuple(f"{prefix}{i}" for i in range(rank)))


def tensor_labels(a: FreeModule, b: FreeModule):
    return tuple(f"({x})⊗({y})" for x in a.labels for y in b.labels)


def sum_labels(mods) -> tuple:
    out = []
    for i, m in enumerate(mods):
        out.extend(f"{i}:{lab}" for lab in m.labels)
    return tuple(out)


class LinearMap:
    """Map of free modules, stored as {(row, col): entry} with no zeros.

    Rows index the target basis, columns the source basis.
    """

    __slots__ = ("source", "target", "entries")

    def __init__(self, source: FreeModule, target: FreeModule, entries):
        assert source.ring == target.ring
        ring = source.ring
        rows, cols = target.rank, source.rank
        zero = ring.zero
        clean = {}
        for (i, j), v in entries.items():
            if not (0 <= i < rows and 0 <= j < cols):
                raise ValueError(f"entry ({i},{j}) outside {rows}x{cols}")
            v = ring.normalize(v)
            if v != zero:
                clean[(i, j)] = v
        self.source = source
        self.target = target
        self.entries = clean

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
        return cls(
            module, module, {(i, i): module.ring.one for i in range(module.rank)}
        )

    @classmethod
    def zero(cls, source: FreeModule, target: FreeModule):
        return cls(source, target, {})

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

    def __add__(self, other: "LinearMap") -> "LinearMap":
        assert self.shape == other.shape and self.ring == other.ring
        ring = self.ring
        entries = dict(self.entries)
        for k, v in other.entries.items():
            entries[k] = ring.add(entries.get(k, ring.zero), v)
        return LinearMap(self.source, self.target, entries)

    def __sub__(self, other: "LinearMap") -> "LinearMap":
        return self + other.scale(-1)

    def scale(self, c) -> "LinearMap":
        ring = self.ring
        c = ring.normalize(c)
        return LinearMap(
            self.source,
            self.target,
            {k: ring.mul(c, v) for k, v in self.entries.items()},
        )

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
        """Kronecker product in row-major pair order."""
        assert self.ring == other.ring
        ring = self.ring
        src = FreeModule(ring, tensor_labels(self.source, other.source))
        tgt = FreeModule(ring, tensor_labels(self.target, other.target))
        sb, tb = other.source.rank, other.target.rank
        entries = {}
        for (i, j), v in self.entries.items():
            for (k, l), w in other.entries.items():
                entries[(i * tb + k, j * sb + l)] = ring.mul(v, w)
        return LinearMap(src, tgt, entries)

    def direct_sum(self, other: "LinearMap") -> "LinearMap":
        assert self.ring == other.ring
        ring = self.ring
        src = FreeModule(ring, sum_labels([self.source, other.source]))
        tgt = FreeModule(ring, sum_labels([self.target, other.target]))
        entries = dict(self.entries)
        r0, c0 = self.target.rank, self.source.rank
        for (i, j), v in other.entries.items():
            entries[(i + r0, j + c0)] = v
        return LinearMap(src, tgt, entries)

    def transpose(self) -> "LinearMap":
        return LinearMap(
            self.target, self.source, {(j, i): v for (i, j), v in self.entries.items()}
        )

    def apply(self, vec: dict) -> dict:
        """Apply to a sparse column vector {index: entry}."""
        ring = self.ring
        out: dict = {}
        for (i, j), v in self.entries.items():
            if j in vec:
                out[i] = ring.add(out.get(i, ring.zero), ring.mul(v, vec[j]))
        return {i: v for i, v in out.items() if v != ring.zero}

    def column(self, j: int) -> dict:
        return {i: v for (i, jj), v in self.entries.items() if jj == j}

    def rank_of_image(self) -> int:
        if self.ring.is_field:
            _, _, pivots = rref(self)
            return len(pivots)
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

        >>> M = free_module(ZZ, 1)
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


def compose(f: LinearMap, g: LinearMap) -> LinearMap:
    """f after g.  Inner modules must agree in ring and rank.

    One sparse path for every ring and size: each column of g is merged
    with the columns of f it hits, summing raw products, and
    `LinearMap` normalizes each output entry once and drops the zeros.
    The arithmetic is exact over Z, Q and Z/p, so the result does not
    depend on when it is normalized.
    """
    if not g.target.compatible(f.source):
        raise ValueError(
            f"cannot compose: inner ranks {g.target.rank} vs {f.source.rank}")
    g_cols: dict = {}
    for (i, j), v in g.entries.items():
        g_cols.setdefault(j, []).append((i, v))
    f_cols: dict = {}
    for (i, j), v in f.entries.items():
        f_cols.setdefault(j, []).append((i, v))
    entries: dict = {}
    for j, col in g_cols.items():
        acc: dict = {}
        for t, w in col:
            for i, v in f_cols.get(t, ()):
                acc[i] = acc.get(i, 0) + v * w
        for i, v in acc.items():
            entries[(i, j)] = v
    return LinearMap(g.source, f.target, entries)


def hstack(maps) -> LinearMap:
    """[f g ...] : S1 + S2 + ... -> T for maps with a common target."""
    maps = list(maps)
    tgt = maps[0].target
    ring = maps[0].ring
    src = FreeModule(ring, sum_labels([m.source for m in maps]))
    entries = {}
    off = 0
    for m in maps:
        assert m.target.compatible(tgt)
        for (i, j), v in m.entries.items():
            entries[(i, j + off)] = v
        off += m.source.rank
    return LinearMap(src, tgt, entries)


def vstack(maps) -> LinearMap:
    """(f; g; ...) : S -> T1 + T2 + ... for maps with a common source."""
    maps = list(maps)
    src = maps[0].source
    ring = maps[0].ring
    tgt = FreeModule(ring, sum_labels([m.target for m in maps]))
    entries = {}
    off = 0
    for m in maps:
        assert m.source.compatible(src)
        for (i, j), v in m.entries.items():
            entries[(i + off, j)] = v
        off += m.target.rank
    return LinearMap(src, tgt, entries)


# ---------------------------------------------------------------------------
# echelon forms
# ---------------------------------------------------------------------------


def rref(m: LinearMap):
    """Reduced row echelon form over a field: (R, T, pivots), R = T*m."""
    ring = m.ring
    if not ring.is_field:
        raise ValueError(f"rref needs a field, got {ring}")
    if ring.kind == "Zmod":
        rows, trans, pivots = _kernel.rref_mod(m.to_rows(), ring.p)
        if m.target.rank == 0:
            rows, trans = [], []
        R = LinearMap.from_rows(m.source, m.target, rows) if rows else LinearMap.zero(m.source, m.target)
        T = (
            LinearMap.from_rows(m.target, m.target, trans)
            if trans
            else LinearMap.identity(m.target)
        )
        return R, T, pivots
    # dense Fraction path
    n, mm = m.target.rank, m.source.rank
    r = m.to_rows()  # entries over Q are already Fractions
    t = [[Fraction(1) if i == j else Fraction(0) for j in range(n)] for i in range(n)]
    pivots = []
    row = 0
    for col in range(mm):
        if row >= n:
            break
        piv = next((i for i in range(row, n) if r[i][col] != 0), None)
        if piv is None:
            continue
        r[row], r[piv] = r[piv], r[row]
        t[row], t[piv] = t[piv], t[row]
        # row operations touch only the pivot row's nonzero positions
        prow, ptrow = r[row], t[row]
        rnz = [k for k, x in enumerate(prow) if x]
        tnz = [k for k, x in enumerate(ptrow) if x]
        c = prow[col]
        for k in rnz:
            prow[k] /= c
        for k in tnz:
            ptrow[k] /= c
        for i in range(n):
            if i != row and r[i][col] != 0:
                ri, ti = r[i], t[i]
                c = ri[col]
                for k in rnz:
                    ri[k] -= c * prow[k]
                for k in tnz:
                    ti[k] -= c * ptrow[k]
        pivots.append(col)
        row += 1
    R = LinearMap.from_rows(m.source, m.target, r)
    T = LinearMap.from_rows(m.target, m.target, t)
    return R, T, pivots


class SmithForm:
    """U*m*V = D diagonal with div chain; all four transforms kept."""

    __slots__ = ("matrix", "U", "Uinv", "V", "Vinv", "D", "diagonal")

    def __init__(self, matrix, U, Uinv, V, Vinv, D, diagonal):
        self.matrix = matrix
        self.U = U
        self.Uinv = Uinv
        self.V = V
        self.Vinv = Vinv
        self.D = D
        self.diagonal = diagonal


def _smith_integer(m: LinearMap) -> SmithForm:
    R, C = m.target.rank, m.source.rank
    # dict-of-dicts working copies
    rows = {}
    for (i, j), v in m.entries.items():
        rows.setdefault(i, {})[j] = int(v)
    cols = {}
    for i, r in rows.items():
        for j in r:
            cols.setdefault(j, set()).add(i)

    U = {i: {i: 1} for i in range(R)}
    Uinv = {i: {i: 1} for i in range(R)}
    V = {j: {j: 1} for j in range(C)}
    Vinv = {j: {j: 1} for j in range(C)}

    def row_get(i, j):
        return rows.get(i, {}).get(j, 0)

    def set_entry(i, j, v):
        if v:
            rows.setdefault(i, {})[j] = v
            cols.setdefault(j, set()).add(i)
        else:
            if i in rows and j in rows[i]:
                del rows[i][j]
                if not rows[i]:
                    del rows[i]
            if j in cols and i in cols[j]:
                cols[j].discard(i)
                if not cols[j]:
                    del cols[j]

    def row_add(i1, i2, c):
        # row i1 += c * row i2, with U updated and Uinv counter-updated
        if c == 0:
            return
        for j, v in list(rows.get(i2, {}).items()):
            set_entry(i1, j, row_get(i1, j) + c * v)
        u2 = U.get(i2, {})
        u1 = U.setdefault(i1, {})
        for j, v in u2.items():
            nv = u1.get(j, 0) + c * v
            if nv:
                u1[j] = nv
            elif j in u1:
                del u1[j]
        # inverse op on Uinv columns: col i2 -= c * col i1
        for r_ in list(Uinv.keys()):
            ur = Uinv[r_]
            if i1 in ur:
                nv = ur.get(i2, 0) - c * ur[i1]
                if nv:
                    ur[i2] = nv
                elif i2 in ur:
                    del ur[i2]

    def col_add(j1, j2, c):
        # col j1 += c * col j2, with V updated (V acts on the right)
        if c == 0:
            return
        for i in list(cols.get(j2, set())):
            set_entry(i, j1, row_get(i, j1) + c * row_get(i, j2))
        for r_ in list(V.keys()):
            vr = V[r_]
            if j2 in vr:
                nv = vr.get(j1, 0) + c * vr[j2]
                if nv:
                    vr[j1] = nv
                elif j1 in vr:
                    del vr[j1]
        # inverse op on Vinv rows: row j2 -= c * row j1
        v1 = Vinv.get(j1, {})
        v2 = Vinv.setdefault(j2, {})
        for j, v in list(v1.items()):
            nv = v2.get(j, 0) - c * v
            if nv:
                v2[j] = nv
            elif j in v2:
                del v2[j]

    def row_swap(i1, i2):
        if i1 == i2:
            return
        r1, r2 = rows.get(i1, {}), rows.get(i2, {})
        for j in set(r1) | set(r2):
            cols.setdefault(j, set())
            cols[j].discard(i1)
            cols[j].discard(i2)
        if r1:
            rows[i2] = r1
        elif i2 in rows:
            del rows[i2]
        if r2:
            rows[i1] = r2
        elif i1 in rows:
            del rows[i1]
        for j in set(r1) | set(r2):
            if j in rows.get(i1, {}):
                cols.setdefault(j, set()).add(i1)
            if j in rows.get(i2, {}):
                cols.setdefault(j, set()).add(i2)
            if j in cols and not cols[j]:
                del cols[j]
        U[i1], U[i2] = U.get(i2, {}), U.get(i1, {})
        for r_ in Uinv.values():
            a, b = r_.get(i1), r_.get(i2)
            if a is not None:
                r_[i2] = a
            elif i2 in r_:
                del r_[i2]
            if b is not None:
                r_[i1] = b
            elif i1 in r_:
                del r_[i1]

    def col_swap(j1, j2):
        if j1 == j2:
            return
        touched = cols.get(j1, set()) | cols.get(j2, set())
        for i in list(touched):
            a, b = row_get(i, j1), row_get(i, j2)
            set_entry(i, j1, b)
            set_entry(i, j2, a)
        for r_ in V.values():
            a, b = r_.get(j1), r_.get(j2)
            if a is not None:
                r_[j2] = a
            elif j2 in r_:
                del r_[j2]
            if b is not None:
                r_[j1] = b
            elif j1 in r_:
                del r_[j1]
        Vinv[j1], Vinv[j2] = Vinv.get(j2, {}), Vinv.get(j1, {})

    def row_negate(i):
        for j in list(rows.get(i, {})):
            rows[i][j] = -rows[i][j]
        U[i] = {j: -v for j, v in U.get(i, {}).items()}
        for r_ in Uinv.values():
            if i in r_:
                r_[i] = -r_[i]

    n = min(R, C)
    t = 0
    while t < n:
        # smallest-magnitude pivot in the remaining block; ties by position.
        # Re-selected after every remainder round: without that, entry sizes
        # square each round on dense inputs and the computation never ends.
        best = None
        for i in sorted(rows):
            if i < t:
                continue
            for j in sorted(rows[i]):
                if j < t:
                    continue
                v = abs(rows[i][j])
                if best is None or v < best[0] or (v == best[0] and (i, j) < best[1:]):
                    best = (v, i, j)
        if best is None:
            break
        _, pi, pj = best
        row_swap(t, pi)
        col_swap(t, pj)
        if row_get(t, t) < 0:
            row_negate(t)
        p = row_get(t, t)
        reduced = False
        for i in sorted(cols.get(t, set())):
            if i == t:
                continue
            # symmetric remainder keeps the fill-in multiplier minimal
            q, r = divmod(row_get(i, t), p)
            if 2 * r > p:
                q += 1
            if q:
                row_add(i, t, -q)
            if row_get(i, t):
                reduced = True
        if reduced:
            continue
        # column t is clear below the pivot, so these column ops touch
        # row t only and cannot re-dirty column t
        for j in sorted(rows.get(t, {})):
            if j == t:
                continue
            q, r = divmod(row_get(t, j), p)
            if 2 * r > p:
                q += 1
            if q:
                col_add(j, t, -q)
            if row_get(t, j):
                reduced = True
        if reduced:
            continue
        t += 1

    diag = [row_get(i, i) for i in range(n)]
    # enforce the divisibility chain d_i | d_{i+1}
    r = len([d for d in diag if d])
    changed = True
    while changed:
        changed = False
        for i in range(r - 1):
            a, b = row_get(i, i), row_get(i + 1, i + 1)
            if b % a != 0:
                # fold entry b into position (i,i) and rediagonalize the block
                col_add(i, i + 1, 1)
                while True:
                    p = row_get(i, i)
                    q = row_get(i + 1, i) // p if p else 0
                    row_add(i + 1, i, -q)
                    if row_get(i + 1, i):
                        row_swap(i, i + 1)
                        continue
                    break
                p = row_get(i, i)
                q = row_get(i, i + 1) // p
                col_add(i + 1, i, -q)
                if row_get(i, i + 1):
                    col_swap(i, i + 1)
                    continue
                if row_get(i, i) < 0:
                    row_negate(i)
                if row_get(i + 1, i + 1) < 0:
                    row_negate(i + 1)
                changed = True
    diag = [row_get(i, i) for i in range(n)]
    # nonzero entries first is guaranteed by pivoting; sanity-check the chain
    for i in range(len(diag) - 1):
        if diag[i] == 0:
            assert diag[i + 1] == 0
        else:
            assert diag[i + 1] % diag[i] == 0

    def to_map(d, src, tgt):
        entries = {}
        for i, rdict in d.items():
            for j, v in rdict.items():
                if v:
                    entries[(i, j)] = v
        return LinearMap(src, tgt, entries)

    Rmod, Cmod = m.target, m.source
    Umap = to_map(U, Rmod, free_module(ZZ, R, "r"))
    Uinvmap = to_map(Uinv, free_module(ZZ, R, "r"), Rmod)
    Vmap = to_map(V, free_module(ZZ, C, "c"), Cmod)
    Vinvmap = to_map(Vinv, Cmod, free_module(ZZ, C, "c"))
    entries = {(i, i): d for i, d in enumerate(diag) if d}
    D = LinearMap(Vmap.source, Umap.target, entries)
    return SmithForm(m, Umap, Uinvmap, Vmap, Vinvmap, D, tuple(diag))


def _smith_field(m: LinearMap) -> SmithForm:
    ring = m.ring
    R1, T, pivots = rref(m)
    r = len(pivots)
    C = m.source.rank
    # V = V0 V1: the permutation V0 puts the pivot columns first, and the
    # unipotent V1 clears the rest, col k (k >= r) -= sum RP[i][k] col i
    # with RP = R1 V0.  V1 inverts by negating its off-diagonal block and
    # V0 by its transpose, so Vinv = V1^-1 V0^T; all three are relabelings
    # of the entries of R1, whose rows below r are zero.
    used = set(pivots)
    order = list(pivots) + [j for j in range(C) if j not in used]
    slot = {j: k for k, j in enumerate(order)}
    V_entries = {(j, k): ring.one for k, j in enumerate(order)}
    Vinv_entries = {(k, j): ring.one for k, j in enumerate(order)}
    for (i, j), v in R1.entries.items():
        if slot[j] >= r:
            V_entries[(order[i], slot[j])] = ring.neg(v)
            Vinv_entries[(i, j)] = v
    src = free_module(ring, C, "c")
    V = LinearMap(src, m.source, V_entries)
    Vinv = LinearMap(m.source, src, Vinv_entries)
    if V @ Vinv != LinearMap.identity(m.source):
        raise RuntimeError("field Smith form: V @ Vinv is not the identity")
    D = R1 @ V
    diag = tuple([ring.one] * r) + tuple([ring.zero] * (min(m.target.rank, C) - r))
    Uinv = T.inverse()
    return SmithForm(m, T, Uinv, V, Vinv, D, diag)


def smith_normal_form(m: LinearMap) -> SmithForm:
    """Smith form with transforms.

    Over Z the diagonal is the nonnegative invariant chain; over a field
    it is 1s then 0s.

    >>> M = free_module(ZZ, 2)
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
    """
    ring = m.ring
    cols: dict = {}
    for (i, j), v in m.entries.items():
        cols.setdefault(j, {})[i] = v
    work = [cols[j] for j in sorted(cols)]
    out = []
    while work:
        # smallest leading row
        lead = min(min(c) for c in work)
        group = [c for c in work if min(c) == lead]
        rest = [c for c in work if min(c) != lead]
        if ring.is_field:
            piv = group[0]
            inv = ring.inv(piv[lead])
            piv = {i: ring.mul(inv, v) for i, v in piv.items()}
            for c in group[1:]:
                f = ring.neg(c[lead])
                merged = dict(c)
                for i, v in piv.items():
                    nv = ring.add(merged.get(i, ring.zero), ring.mul(f, v))
                    if nv != ring.zero:
                        merged[i] = nv
                    elif i in merged:
                        del merged[i]
                if merged:
                    rest.append(merged)
            out.append(piv)
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
                        rest.append(c)
                group = kept
            piv = group[0]
            if piv.get(lead, 0) < 0:
                piv = {i: -v for i, v in piv.items()}
            out.append(piv)
        work = rest
    # reduce above-pivot entries for canonicity
    out.sort(key=lambda c: min(c))
    for k in range(len(out)):
        lead = min(out[k])
        p = out[k][lead]
        for t in range(k):
            c = out[t]
            if lead in c:
                if ring.is_field:
                    q = ring.mul(c[lead], ring.inv(p))
                else:
                    q = c[lead] // p
                if q != ring.zero:
                    for i, v in out[k].items():
                        nv = ring.sub(c.get(i, ring.zero), ring.mul(q, v))
                        if nv != ring.zero:
                            c[i] = nv
                        elif i in c:
                            del c[i]
    entries = {}
    for j, c in enumerate(out):
        for i, v in c.items():
            entries[(i, j)] = v
    src = free_module(ring, len(out), "h")
    return LinearMap(src, m.target, entries)


def kernel(m: LinearMap):
    """Saturated kernel: (K, incl) with incl a basis of {x : m x = 0}.

    Over Z the span is the full kernel sublattice (automatically
    saturated); the basis is Hermite-reduced for determinism.

    >>> M2, M1 = free_module(ZZ, 2), free_module(ZZ, 1)
    >>> f = LinearMap.from_rows(M2, M1, [[2, 4]])
    >>> K, incl = kernel(f)
    >>> incl.to_rows()
    [[2], [-1]]
    """
    ring = m.ring
    if ring.is_field:
        R1, _, pivots = rref(m)
        free_cols = [j for j in range(m.source.rank) if j not in pivots]
        entries = {}
        pivot_of_col = {c: r for r, c in enumerate(pivots)}
        for k, j in enumerate(free_cols):
            entries[(j, k)] = ring.one
            for c in pivots:
                v = R1.entries.get((pivot_of_col[c], j))
                if v is not None:
                    entries[(c, k)] = ring.neg(v)
        K = free_module(ring, len(free_cols), "k")
        incl = LinearMap(K, m.source, entries)
    else:
        sf = smith_normal_form(m)
        zero_cols = [
            j
            for j in range(m.source.rank)
            if j >= len(sf.diagonal) or sf.diagonal[j] == 0
        ]
        cols = hstack(
            [_column_map(sf.V, j) for j in zero_cols]
        ) if zero_cols else LinearMap.zero(free_module(ring, 0, "k"), m.source)
        reduced = hnf_columns(cols)
        K = free_module(ring, reduced.source.rank, "k")
        incl = LinearMap(K, m.source, reduced.entries)
    assert (m @ incl).is_zero()
    return incl.source, incl


def _column_map(m: LinearMap, j: int) -> LinearMap:
    src = free_module(m.ring, 1, "v")
    return LinearMap(src, m.target, {(i, 0): v for i, v in m.column(j).items()})


def solve(m: LinearMap, b: LinearMap):
    """Exact solution X of m @ X = b, or None.  b shares m's target."""
    assert b.target.compatible(m.target)
    ring = m.ring
    if ring.is_field:
        R1, T, pivots = rref(m)
        tb = T @ LinearMap(b.source, T.source, b.entries)
        entries = {}
        pivot_rows = {c: r for r, c in enumerate(pivots)}
        for (i, j), v in tb.entries.items():
            if i >= len(pivots):
                return None
        for c, r in pivot_rows.items():
            for j in range(b.source.rank):
                v = tb.entries.get((r, j))
                if v is not None:
                    entries[(c, j)] = v
        x = LinearMap(b.source, m.source, entries)
    else:
        sf = smith_normal_form(m)
        ub = sf.U @ LinearMap(b.source, sf.U.source, b.entries)
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
        x = LinearMap(b.source, m.source, x.entries)
    if (m @ x).entries != LinearMap(b.source, m.target, b.entries).entries:
        return None
    return x


def same_span(a: LinearMap, b: LinearMap) -> bool:
    """Whether the column spans (sublattices over Z) coincide."""
    assert a.target.compatible(b.target)
    ha = hnf_columns(a)
    hb = hnf_columns(LinearMap(b.source, a.target, b.entries))
    return ha.entries == hb.entries and ha.source.rank == hb.source.rank


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

    def classes_equal(self, f: LinearMap, g: LinearMap) -> bool:
        """Whether two maps into the generator coordinates agree as maps
        into the quotient."""
        return self.reduce_map(f).entries == self.reduce_map(g).entries

    def is_free(self) -> bool:
        return not self.invariant_factors


def _generators(ring: Ring, n_torsion: int, n_free: int) -> FreeModule:
    return FreeModule(ring, tuple([f"t{k}" for k in range(n_torsion)]
                                  + [f"q{k}" for k in range(n_free)]))


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

    >>> M = free_module(ZZ, 3)
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
    gens = _generators(ring, len(torsion), len(free))
    return CokernelPresentation(
        LinearMap(module, gens, proj),
        LinearMap(gens, module, {(r, k): one for k, r in enumerate(reps)}),
        [2] * len(torsion))


def _signed_graph(m: LinearMap):
    """(edges, killed) for signed_quotient when every column of m holds
    at most two entries, each +1 or -1 in the ring: a column a e_i kills
    e_i, and a column a e_i + b e_j is the edge e_j = -ab e_i, its sign
    taken in the ring.  None for any other matrix."""
    ring = m.ring
    one, minus = ring.one, ring.neg(ring.one)
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
    gens = _generators(ring, len(torsion_idx), len(free_idx))
    proj = {(slot[r], c): v for (r, c), v in sf.U.entries.items() if r in slot}
    sec = {(r, slot[c]): v for (r, c), v in sf.Uinv.entries.items()
           if c in slot}
    return CokernelPresentation(LinearMap(m.target, gens, proj),
                                LinearMap(gens, m.target, sec),
                                [diag[i] for i in torsion_idx])


# tests flip this to route every cokernel through the Smith form and
# compare; it is not part of the interface
_FORCE_GENERIC = False


def cokernel(m: LinearMap) -> CokernelPresentation:
    """Presentation of target(m)/im(m) with projection and section.

    A relation matrix whose columns each hold at most two entries, each
    +1 or -1, is the incidence matrix of a signed graph, and its
    cokernel is a signed_quotient; every other matrix goes through the
    Smith form.

    >>> M = free_module(ZZ, 2)
    >>> f = LinearMap.from_rows(M, M, [[2, 0], [0, 3]])
    >>> cokernel(f).presentation
    Presentation(rank 0 + Z/6)
    >>> cokernel(LinearMap.from_rows(M, M, [[1, 1], [1, 1]])).presentation
    Presentation(rank 1)
    """
    graph = None if _FORCE_GENERIC else _signed_graph(m)
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


def matrix_from_json(data: dict) -> LinearMap:
    ring = ring_from_name(data["ring"])
    src = free_module(ring, data["cols"], "e")
    tgt = free_module(ring, data["rows"], "f")
    entries = {}
    for i, j, s in data["entries"]:
        entries[(int(i), int(j))] = ring.from_str(s)
    return LinearMap(src, tgt, entries)
