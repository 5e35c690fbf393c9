"""Answer checks for the opdk benchmark.

Every check takes plain data (ranks, matrices as ``{(row, col): entry}``
dicts with their shape, verdict strings) and returns a list of problems;
an empty list accepts the answer.  Expected values are closed forms, hand
counts and structural properties, never a saved copy of the program's
output, and the matrix properties are decided by the elimination below,
which shares no code with ``opdk``.  Nothing here imports ``opdk``.

A ring is named by a key: ``"Z"``, ``"Q"`` or a prime ``p`` for Z/p.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb, factorial

# free level of the acyclic graded binary generator x -> m, counted by hand
# as planar trees x leaf labelings x (1, 2, 1)-decorations over the free
# sibling moves (see tests/test_trees.py)
GRADED_RANKS = {3: (3, 6, 3), 4: (15, 45, 45, 15)}

# stage ranks of the free extension at arity 3 on split_binary_inclusion,
# counted by hand: the default cokernel block and q_rank=2, q_regular=True
EXTENSION_STAGES = {"trivial_q": (12, 24, 27, 27), "regular_q": (12, 36, 48, 48)}


def catalan(n: int) -> int:
    return comb(2 * n, n) // (n + 1)


def double_factorial(n: int) -> int:
    out = 1
    while n > 1:
        out *= n
        n -= 2
    return out


# -- elimination -------------------------------------------------------------


def _dense(entries, nrows: int, ncols: int):
    rows = [[0] * ncols for _ in range(nrows)]
    for (i, j), v in entries.items():
        rows[i][j] = v
    return rows


def _field_rank(rows, ring) -> int:
    """Rank over Q (Fractions) or Z/p by plain Gaussian elimination."""
    if ring == "Q":
        rows = [[Fraction(v) for v in r] for r in rows]
        inv = lambda x: 1 / x
        red = lambda x: x
    else:
        p = ring
        rows = [[v % p for v in r] for r in rows]
        inv = lambda x: pow(x, -1, p)
        red = lambda x: x % p
    rank = 0
    ncols = len(rows[0]) if rows else 0
    for c in range(ncols):
        piv = next((i for i in range(rank, len(rows)) if rows[i][c]), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        s = inv(rows[rank][c])
        top = [red(v * s) for v in rows[rank]]
        rows[rank] = top
        for i in range(rank + 1, len(rows)):
            f = rows[i][c]
            if f:
                rows[i] = [red(a - f * b) for a, b in zip(rows[i], top)]
        rank += 1
    return rank


def _integer_invariant_factors(rows):
    """Invariant factors of an integer matrix by smallest-pivot Smith
    reduction without transforms; zeros past the rank are omitted."""
    a = [list(r) for r in rows]
    out = []
    while a and a[0]:
        nz = [(abs(v), i, j) for i, r in enumerate(a) for j, v in enumerate(r) if v]
        if not nz:
            break
        _, pi, pj = min(nz)
        a[0], a[pi] = a[pi], a[0]
        for r in a:
            r[0], r[pj] = r[pj], r[0]
        p = a[0][0]
        clean = True
        for i in range(1, len(a)):
            q = a[i][0] // p
            if q:
                a[i] = [x - q * y for x, y in zip(a[i], a[0])]
            clean = clean and a[i][0] == 0
        for j in range(1, len(a[0])):
            q = a[0][j] // p
            if q:
                for r in a:
                    r[j] -= q * r[0]
            clean = clean and a[0][j] == 0
        if not clean:
            continue
        bad = next((i for i in range(1, len(a))
                    if any(v % p for v in a[i][1:])), None)
        if bad is not None:
            a[0] = [x + y for x, y in zip(a[0], a[bad])]
            continue
        out.append(abs(p))
        a = [r[1:] for r in a[1:]]
    return out


def unit_rank(entries, nrows: int, ncols: int, ring):
    """(rank, every invariant factor is a unit) of the matrix."""
    if nrows == 0 or ncols == 0:
        return 0, True
    rows = _dense(entries, nrows, ncols)
    if ring == "Z":
        factors = _integer_invariant_factors(rows)
        return len(factors), all(f == 1 for f in factors)
    return _field_rank(rows, ring), True


# -- checks ------------------------------------------------------------------


def free_level_regular(n: int, rank: int):
    want = catalan(n - 1) * factorial(n)
    return [] if rank == want else [
        f"regular generator arity {n}: rank {rank}, Catalan(n-1)*n! = {want}"]


def free_level_trivial(n: int, rank: int):
    want = double_factorial(2 * n - 3)
    return [] if rank == want else [
        f"trivial generator arity {n}: rank {rank}, (2n-3)!! = {want}"]


def free_level_graded(n: int, ranks, homology):
    """homology: one (free rank, invariant factors) pair per degree."""
    problems = []
    if tuple(ranks) != GRADED_RANKS[n]:
        problems.append(f"graded generator arity {n}: ranks {tuple(ranks)}, "
                        f"hand count {GRADED_RANKS[n]}")
    if len(homology) != len(GRADED_RANKS[n]):
        problems.append(f"graded generator arity {n}: homology in "
                        f"{len(homology)} degrees")
    for deg, (rank, factors) in enumerate(homology):
        if rank or tuple(factors):
            problems.append(f"graded generator arity {n}: H_{deg} = "
                            f"rank {rank} + {list(factors)}, expected 0")
    return problems


def regular_composite(ranks):
    """ranks: {arity: rank} of the composite of the regular representation."""
    problems = []
    if sorted(ranks) != [1, 2, 3, 4]:
        problems.append(f"regular composite arities {sorted(ranks)}")
    for n, r in sorted(ranks.items()):
        want = factorial(n) * 2 ** (n - 1)
        if r != want:
            problems.append(f"regular composite arity {n}: rank {r}, "
                            f"n!*2^(n-1) = {want}")
    return problems


def bracketings_agree(left, right):
    """Each side: {signature: (level ranks, homology fingerprint)}."""
    if not left:
        return ["left bracketing has no levels"]
    if left != right:
        diff = sorted(str(s) for s in set(left) | set(right)
                      if left.get(s) != right.get(s))
        return [f"bracketings differ at {', '.join(diff)}"]
    return []


def extension_stages(kind: str, ring, stage_ranks, maps, colimit_rank,
                     free_rank):
    """maps: for each stage inclusion, its components as
    (entries, nrows, ncols), one per degree."""
    problems = []
    hand = EXTENSION_STAGES[kind]
    stage_ranks = tuple(stage_ranks)
    if stage_ranks != hand:
        problems.append(f"{kind}: stage ranks {stage_ranks}, hand count {hand}")
    if any(a > b for a, b in zip(stage_ranks, stage_ranks[1:])):
        problems.append(f"{kind}: stage ranks {stage_ranks} decrease")
    if len(maps) != len(stage_ranks) - 1:
        problems.append(f"{kind}: {len(maps)} stage maps for "
                        f"{len(stage_ranks)} stages")
    for k, comps in enumerate(maps):
        shape = (sum(c[2] for c in comps), sum(c[1] for c in comps))
        if shape != tuple(stage_ranks[k:k + 2]):
            problems.append(f"{kind}: stage map {k} goes {shape[0]} -> "
                            f"{shape[1]}, not between stages {k} and {k + 1}")
        for deg, (entries, nrows, ncols) in enumerate(comps):
            rank, units = unit_rank(entries, nrows, ncols, ring)
            if rank != ncols or not units:
                problems.append(f"{kind}: stage map {k} in degree {deg} is "
                                f"not a split injection")
    if colimit_rank != free_rank or colimit_rank != hand[-1]:
        problems.append(f"{kind}: colimit rank {colimit_rank}, free operad "
                        f"{free_rank}, hand count {hand[-1]}")
    return problems


def same_on_the_nose(what: str, want, got):
    """Complexes as (ranks, differential entry dicts), or maps as (source
    ranks, target ranks, component entry dicts): equal on the nose."""
    return [] if want == got else [f"{what}: not the identity on the nose"]


def identity_map(what: str, comps):
    """comps: (entries, nrows, ncols) per degree."""
    problems = []
    for deg, (entries, nrows, ncols) in enumerate(comps):
        if nrows != ncols or entries != {(i, i): 1 for i in range(nrows)}:
            problems.append(f"{what}: degree {deg} is not the identity")
    return problems


def isomorphism(what: str, ring, comps):
    problems = []
    for deg, (entries, nrows, ncols) in enumerate(comps):
        rank, units = unit_rank(entries, nrows, ncols, ring)
        if nrows != ncols or rank != nrows or not units:
            problems.append(f"{what}: degree {deg} is not invertible")
    return problems


def verdict(what: str, expected: str, got: str):
    return [] if got == expected else [f"{what}: status {got!r}, built to "
                                       f"be {expected!r}"]


def normalized_associative(ranks, max_degree: int):
    """ranks: {arity: level ranks}; N of a constant module is its value
    in degree 0, so level n is (n!, 0, ..., 0)."""
    problems = []
    for n, r in sorted(ranks.items()):
        want = (factorial(n),) + (0,) * max_degree
        if tuple(r) != want:
            problems.append(f"normalized associative arity {n}: ranks "
                            f"{tuple(r)}, expected {want}")
    if not ranks:
        problems.append("normalized associative operad has no levels")
    return problems
