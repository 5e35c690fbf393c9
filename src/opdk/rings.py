"""Coefficient rings: Z, Q and Z/p for p prime.

Elements are plain data: int for Z and Z/p (reduced into [0, p)), Fraction
for Q.  A Ring object bundles the arithmetic, canonical string formatting
and parsing used by the JSON interfaces.
"""

from __future__ import annotations

from fractions import Fraction


def _is_prime(p: int) -> bool:
    if p < 2:
        return False
    d = 2
    while d * d <= p:
        if p % d == 0:
            return False
        d += 1
    return True


class Ring:
    """One of Z, Q, Z/p.  Use the module constants ZZ, QQ and Zmod(p)."""

    __slots__ = ("kind", "p")

    def __init__(self, kind: str, p: int | None = None):
        assert kind in ("Z", "Q", "Zmod")
        if kind == "Zmod":
            assert p is not None and _is_prime(p), "modulus must be prime"
        else:
            assert p is None
        self.kind = kind
        self.p = p

    # -- canonical element handling -------------------------------------

    @property
    def zero(self):
        return 0 if self.kind != "Q" else Fraction(0)

    @property
    def one(self):
        return 1 if self.kind != "Q" else Fraction(1)

    def normalize(self, x):
        """Canonical representative of x (reduces mod p, keeps Fractions).

        >>> Zmod(5).normalize(-3)
        2
        >>> QQ.normalize(2)
        Fraction(2, 1)
        """
        if self.kind == "Z":
            return int(x)
        if self.kind == "Q":
            return x if type(x) is Fraction else Fraction(x)
        return int(x) % self.p

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
        assert self.is_unit(x), f"{x} is not a unit in {self}"
        if self.kind == "Z":
            return x
        if self.kind == "Q":
            return Fraction(1) / x
        return pow(x, self.p - 2, self.p)

    def divides(self, x, y) -> bool:
        """Whether x divides y exactly."""
        x, y = self.normalize(x), self.normalize(y)
        if y == 0:
            return True
        if x == 0:
            return False
        if self.kind == "Z":
            return y % x == 0
        return True

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
        if self.kind == "Q":
            if "/" in s:
                num, den = s.split("/")
                return Fraction(int(num), int(den))
            return Fraction(int(s))
        return self.normalize(int(s))

    def name(self) -> str:
        return "Zmod:%d" % self.p if self.kind == "Zmod" else self.kind

    def __repr__(self):
        return f"Ring({self.name()})"

    def __eq__(self, other):
        return (
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
    if name == "Z":
        return ZZ
    if name == "Q":
        return QQ
    if name.startswith("Zmod:"):
        return Zmod(int(name.split(":", 1)[1]))
    raise ValueError(f"unknown ring {name!r}")
