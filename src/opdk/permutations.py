"""Finite permutations and small permutation groups.

A permutation of {0..n-1} is a tuple sigma with sigma[i] the image of i.
A symmetric group is given by its adjacent transpositions, whose Coxeter
relations `operad.Collection` checks; every group in this project is
tiny (symmetric groups up to degree ~5, tree automorphism groups).
"""

from __future__ import annotations

from itertools import permutations as _itperms

__all__ = ["identity", "compose", "inverse", "sign", "transposition",
           "transpositions", "all_permutations"]


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


def transpositions(n: int) -> list:
    """The adjacent swaps s_0..s_{n-2}, which generate S_n.

    >>> transpositions(3)
    [(1, 0, 2), (0, 2, 1)]
    """
    return [transposition(n, t) for t in range(n - 1)]


def all_permutations(n: int):
    return [tuple(p) for p in _itperms(range(n))]
