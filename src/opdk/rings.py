"""Coefficient rings: Z, Q and Z/p for p prime.

A modulus is tested by deterministic Miller-Rabin, which is exact below
3,317,044,064,679,887,385,961,981; larger moduli raise ValueError.

Elements are plain data: int for Z and Z/p (reduced into [0, p)), Fraction
for Q.  A Ring object bundles the arithmetic, canonical string formatting
and parsing used by the JSON interfaces.
"""

from __future__ import annotations

from fractions import Fraction

__all__ = ["Ring", "ZZ", "QQ", "Zmod", "ring_from_name"]


# Strong-probable-prime tests to the thirteen prime bases 2..41 decide
# primality exactly below _MR_BOUND, the least strong pseudoprime to all
# of them (Sorenson and Webster, "Strong pseudoprimes to twelve prime
# bases", Math. Comp. 86 (2017) 985-1003).
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_BOUND = 3317044064679887385961981


def _is_prime(p: int) -> bool:
    """Deterministic Miller-Rabin; ValueError at or above _MR_BOUND.

    >>> [q for q in range(30) if _is_prime(q)]
    [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]
    """
    if p >= _MR_BOUND:
        raise ValueError(f"modulus {p} is at or above {_MR_BOUND}, where "
                         f"primality is not decided")
    if p < 2:
        return False
    for a in _MR_BASES:
        if p % a == 0:
            return p == a
    d, s = p - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, p)
        if x == 1 or x == p - 1:
            continue
        for _ in range(s - 1):
            x = x * x % p
            if x == p - 1:
                break
        else:
            return False
    return True


class Ring:
    """One of Z, Q, Z/p.  Use the module constants ZZ, QQ and Zmod(p).

    `zero` and `one` are the ring's canonical constants, set once here:
    0 and 1 over Z and Z/p, Fraction(0) and Fraction(1) over Q.
    """

    __slots__ = ("kind", "p", "zero", "one")

    def __init__(self, kind: str, p: int | None = None):
        if kind not in ("Z", "Q", "Zmod"):
            raise ValueError(f"unknown ring kind {kind!r}")
        if kind == "Zmod":
            if p is None or not _is_prime(p):
                raise ValueError(f"modulus must be prime, got {p!r}")
        elif p is not None:
            raise ValueError(f"ring {kind} takes no modulus, got {p!r}")
        self.kind = kind
        self.p = p
        self.zero = Fraction(0) if kind == "Q" else 0
        self.one = Fraction(1) if kind == "Q" else 1

    # -- canonical element handling -------------------------------------

    def normalize(self, x):
        """Canonical representative of x (reduces mod p, keeps Fractions).

        Over Z and Z/p, x must be an int or a Fraction with denominator 1,
        and over Q an int or a Fraction (an int includes a bool); anything
        else, a float or a string too, raises ValueError, never a
        truncated, rounded or parsed number.

        >>> Zmod(5).normalize(-3)
        2
        >>> QQ.normalize(2)
        Fraction(2, 1)
        >>> ZZ.normalize(Fraction(1, 2))
        Traceback (most recent call last):
            ...
        ValueError: Fraction(1, 2) is not an integer, so not an element of Z
        >>> QQ.normalize(0.1)
        Traceback (most recent call last):
            ...
        ValueError: 0.1 is not an int or a Fraction, so not an element of Q
        """
        if self.kind == "Q":
            if type(x) is Fraction:
                return x
            if not isinstance(x, (int, Fraction)):
                raise ValueError(f"{x!r} is not an int or a Fraction, so "
                                 f"not an element of Q")
            return Fraction(x)
        if type(x) is not int:
            if not (isinstance(x, int) or
                    (isinstance(x, Fraction) and x.denominator == 1)):
                raise ValueError(f"{x!r} is not an integer, so not an "
                                 f"element of {self.name()}")
            x = int(x)
        return x if self.p is None else x % self.p

    def add(self, x, y):
        return self.normalize(x + y)

    def sub(self, x, y):
        return self.normalize(x - y)

    def mul(self, x, y):
        return self.normalize(x * y)

    def neg(self, x):
        return self.normalize(-x)

    def is_unit(self, x) -> bool:
        x = self.normalize(x)
        if self.kind == "Z":
            return x in (1, -1)
        return x != 0

    def inv(self, x):
        x = self.normalize(x)
        if not self.is_unit(x):
            raise ValueError(f"{self.to_str(x)} is not a unit in {self.name()}")
        if self.kind == "Z":
            return x
        if self.kind == "Q":
            return Fraction(1) / x
        return pow(x, self.p - 2, self.p)

    @property
    def is_field(self) -> bool:
        return self.kind != "Z"

    # -- formatting -------------------------------------------------------

    def to_str(self, x) -> str:
        x = self.normalize(x)
        if self.kind == "Q":
            if x.denominator == 1:
                return str(x.numerator)
            return f"{x.numerator}/{x.denominator}"
        return str(x)

    def from_str(self, s: str):
        """The element s names; ValueError for a malformed string.

        >>> QQ.from_str("1/0")
        Traceback (most recent call last):
            ...
        ValueError: '1/0' has denominator 0
        """
        if self.kind == "Q":
            if "/" in s:
                num, den = map(int, s.split("/"))
                if not den:
                    raise ValueError(f"{s!r} has denominator 0")
                return Fraction(num, den)
            return Fraction(int(s))
        return self.normalize(int(s))

    def name(self) -> str:
        return "Zmod:%d" % self.p if self.kind == "Zmod" else self.kind

    def __repr__(self):
        return f"Ring({self.name()})"

    def __eq__(self, other):
        return self is other or (
            isinstance(other, Ring)
            and self.kind == other.kind
            and self.p == other.p
        )

    def __hash__(self):
        return hash((self.kind, self.p))


ZZ = Ring("Z")
QQ = Ring("Q")

_zmod_cache: dict[int, Ring] = {}


def Zmod(p: int) -> Ring:
    if p not in _zmod_cache:
        _zmod_cache[p] = Ring("Zmod", p)
    return _zmod_cache[p]


def ring_from_name(name: str) -> Ring:
    """Inverse of Ring.name(), used by every JSON loader."""
    if type(name) is not str:
        raise ValueError(f"a ring name is a str, not {name!r}")
    if name == "Z":
        return ZZ
    if name == "Q":
        return QQ
    if name.startswith("Zmod:"):
        return Zmod(int(name.split(":", 1)[1]))
    raise ValueError(f"unknown ring {name!r}")
