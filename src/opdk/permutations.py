"""Finite permutations and small permutation groups.

A permutation of {0..n-1} is a tuple sigma with sigma[i] the image of i.
Groups are handled by explicit closure; every group in this project is
tiny (symmetric groups up to degree ~5, tree automorphism groups).
"""

from __future__ import annotations

from itertools import permutations as _itperms


def identity(n: int) -> tuple:
    return tuple(range(n))


def compose(a: tuple, b: tuple) -> tuple:
    """(a*b)[i] = a[b[i]], i.e. apply b first."""
    return tuple(a[b[i]] for i in range(len(b)))


def inverse(a: tuple) -> tuple:
    out = [0] * len(a)
    for i, v in enumerate(a):
        out[v] = i
    return tuple(out)


def sign(a: tuple) -> int:
    """Parity of a permutation as +1/-1.

    >>> sign((1, 0, 2))
    -1
    """
    seen = [False] * len(a)
    s = 1
    for i in range(len(a)):
        if seen[i]:
            continue
        j = i
        length = 0
        while not seen[j]:
            seen[j] = True
            j = a[j]
            length += 1
        if length % 2 == 0:
            s = -s
    return s


def transposition(n: int, i: int) -> tuple:
    """Adjacent swap (i, i+1) in degree n."""
    p = list(range(n))
    p[i], p[i + 1] = p[i + 1], p[i]
    return tuple(p)


def all_permutations(n: int):
    return [tuple(p) for p in _itperms(range(n))]


def block_permutation(blocks: list[int], sigma: tuple) -> tuple:
    """Permute consecutive blocks of the stated sizes by sigma.

    Position layout: block j occupies the slots after blocks 0..j-1.  The
    result sends the contents of block j (in order) to where block
    sigma^{-1}... concretely: new layout lists block sigma[0]'s... The
    convention: the block at old position j moves to the position that j
    maps to under sigma, preserving inner order.

    >>> block_permutation([2, 1], (1, 0))
    (1, 2, 0)
    """
    n = len(blocks)
    starts = [0] * n
    for j in range(1, n):
        starts[j] = starts[j - 1] + blocks[j - 1]
    total = starts[-1] + blocks[-1] if n else 0
    inv = inverse(sigma)
    # new order of blocks: block inv[0], inv[1], ...
    out = [0] * total
    pos = 0
    for slot in range(n):
        j = inv[slot]
        for t in range(blocks[j]):
            out[starts[j] + t] = pos
            pos += 1
    return tuple(out)
