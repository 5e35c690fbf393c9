"""Coefficient rings: construction refuses what is not Z, Q or Z/p.

The checks are explicit raises, so they also hold under python -O.
"""

from fractions import Fraction

import pytest

from opdk.exactlin import FreeModule, LinearMap
from opdk.rings import QQ, ZZ, Ring, Zmod, _MR_BOUND, _is_prime, ring_from_name


def test_composite_modulus_is_refused():
    with pytest.raises(ValueError, match="modulus must be prime"):
        Zmod(4)
    with pytest.raises(ValueError, match="modulus must be prime"):
        ring_from_name("Zmod:1")
    assert Zmod(5).is_field and Zmod(5).p == 5


def test_unknown_kind_is_refused():
    with pytest.raises(ValueError, match="unknown ring kind 'R'"):
        Ring("R")


def test_modulus_on_z_or_q_is_refused():
    with pytest.raises(ValueError, match="takes no modulus"):
        Ring("Z", 3)
    with pytest.raises(ValueError, match="takes no modulus"):
        Ring("Q", 5)
    assert Ring("Z") == ZZ and Ring("Q") == QQ


def _trial_division(n):
    return n >= 2 and all(n % d for d in range(2, int(n ** 0.5) + 1))


def test_is_prime_agrees_with_trial_division():
    assert [n for n in range(-3, 20000) if _is_prime(n)] == \
        [n for n in range(-3, 20000) if _trial_division(n)]


@pytest.mark.parametrize("n", [561, 1105, 1729, 2465, 2821, 6601, 8911,
                               41041, 825265, 321197185, 5394826801])
def test_carmichael_numbers_are_refused(n):
    # Fermat pseudoprimes to every coprime base
    assert not _is_prime(n)
    with pytest.raises(ValueError, match="modulus must be prime"):
        Zmod(n)


@pytest.mark.parametrize("n,factors", [
    (2047, (23, 89)),                           # strong to base 2
    (3215031751, (151, 751, 28351)),            # strong to 2, 3, 5, 7
    (3825123056546413051, (149491, 747451, 34233211)),  # strong to 2..31
    (318665857834031151167461, (399165290221, 798330580441)),  # 2..37
])
def test_strong_pseudoprimes_are_refused(n, factors):
    product = 1
    for f in factors:
        product *= f
    assert product == n
    assert not _is_prime(n)


def test_large_primes_are_accepted_quickly():
    for p in (10 ** 15 + 37, 2 ** 61 - 1, 2 ** 31 - 1):
        assert _is_prime(p)
        assert Zmod(p).p == p
    assert ring_from_name(f"Zmod:{10 ** 15 + 37}").normalize(-1) == 10 ** 15 + 36


def test_moduli_past_the_miller_rabin_range_are_refused():
    assert _MR_BOUND == 3317044064679887385961981
    assert isinstance(_is_prime(_MR_BOUND - 2), bool)
    for n in (_MR_BOUND, _MR_BOUND + 1, 2 ** 89 - 1):
        with pytest.raises(ValueError, match="at or above"):
            _is_prime(n)
        with pytest.raises(ValueError, match="at or above"):
            Zmod(n)


@pytest.mark.parametrize("name,x", [("Z", 2), ("Z", 0), ("Z", -3), ("Q", 0),
                                    ("Zmod:5", 0), ("Zmod:5", 10),
                                    ("Zmod:2", 4)])
def test_inverse_of_a_non_unit_is_refused(name, x):
    # an explicit check: under python -O an assert let ZZ.inv(2) return 2
    # and Zmod(5).inv(0) return 0
    with pytest.raises(ValueError, match="is not a unit"):
        ring_from_name(name).inv(x)


def test_inverses_of_units():
    assert ZZ.inv(-1) == -1 and ZZ.inv(1) == 1
    assert QQ.inv(Fraction(-2, 3)) == Fraction(-3, 2)
    F7 = Zmod(7)
    assert all(F7.mul(x, F7.inv(x)) == 1 for x in range(1, 7))
    assert F7.inv(-1) == 6


def test_ring_constants_are_canonical():
    for ring, kind in ((ZZ, int), (QQ, Fraction), (Zmod(5), int),
                       (Zmod(2), int)):
        assert type(ring.zero) is kind and ring.zero == 0
        assert type(ring.one) is kind and ring.one == 1
        assert ring.normalize(ring.zero) == ring.zero
        assert ring.normalize(ring.one) == ring.one
        # set once, not rebuilt on each read
        assert ring.one is ring.one and ring.zero is ring.zero


@pytest.mark.parametrize("ring", [ZZ, Zmod(5)], ids=["Z", "F5"])
def test_a_non_integer_is_refused_over_z_and_z_mod_p(ring):
    # int() truncated these: 1/2 read 0 and 2.7 read 2, over Z and F_5
    for x in (Fraction(1, 2), Fraction(-7, 3), 2.7, 2.0, "3", None):
        with pytest.raises(ValueError, match="is not an integer"):
            ring.normalize(x)
    with pytest.raises(ValueError, match="is not an integer"):
        LinearMap.from_rows(FreeModule(ring, 1), FreeModule(ring, 1),
                            [[Fraction(1, 2)]])
    with pytest.raises(ValueError, match="is not an integer"):
        LinearMap(FreeModule(ring, 1), FreeModule(ring, 1), {(0, 0): 2.7})
    # ints, bools and whole Fractions are elements, stored as plain ints
    p = ring.p or 0
    for x, want in ((7, 7), (-1, -1), (True, 1), (False, 0),
                    (Fraction(6, 2), 3), (Fraction(-8, 1), -8)):
        got = ring.normalize(x)
        assert type(got) is int and got == (want % p if p else want)
    assert ring.add(Fraction(1, 1), 1) == 2


def test_only_an_int_or_a_fraction_is_an_element_of_q():
    # Fraction(x) read 0.1 as its binary value 3602879701896397/2**55
    # and parsed the string "1/2"
    for x in (0.1, 0.5, "1/2", None):
        with pytest.raises(ValueError, match="is not an int or a Fraction"):
            QQ.normalize(x)
    with pytest.raises(ValueError, match="is not an int or a Fraction"):
        LinearMap(FreeModule(QQ, 1), FreeModule(QQ, 1), {(0, 0): 0.1})
    # ints, bools and Fractions are elements, stored as Fractions
    for x, want in ((7, 7), (True, 1), (False, 0),
                    (Fraction(1, 2), Fraction(1, 2))):
        got = QQ.normalize(x)
        assert type(got) is Fraction and got == want
    assert QQ.from_str("1/2") == Fraction(1, 2)


@pytest.mark.parametrize("name", [None, 5, b"Z", ["Z"]])
def test_ring_from_name_refuses_anything_but_a_str(name):
    with pytest.raises(ValueError, match="a ring name is a str"):
        ring_from_name(name)
