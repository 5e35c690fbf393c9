"""Coefficient rings: construction refuses what is not Z, Q or Z/p.

The checks are explicit raises, so they also hold under python -O.
"""

import pytest

from opdk.rings import QQ, ZZ, Ring, Zmod, ring_from_name


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
