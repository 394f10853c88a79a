from __future__ import annotations

from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from minpair.arith import (
    class_index,
    class_members,
    pair,
    position,
    unpair,
)


def test_pair_formula_values():
    assert pair(0, 0) == 0
    assert pair(3, 1) == 11  # (4*5)/2 + 1
    assert pair(0, 1) == 2


def test_pair_rejects_negatives():
    with pytest.raises(ValueError):
        pair(-1, 0)
    with pytest.raises(ValueError):
        unpair(-3)


def test_pair_unpair_roundtrip_exhaustive():
    for x in range(1000):
        base = x * (x + 1) // 2
        for y in range(1000):
            code = pair(x, y)
            assert unpair(code) == (x, y)
        assert pair(x, 0) == base  # spot-check the diagonal start


@given(st.integers(0, 10**9), st.integers(0, 10**9))
def test_pair_unpair_roundtrip_large(x, y):
    assert unpair(pair(x, y)) == (x, y)


@given(st.integers(0, 10**6))
def test_unpair_pair_roundtrip(code):
    x, y = unpair(code)
    assert pair(x, y) == code


def test_pair_monotone_in_each_argument():
    for x in range(30):
        for y in range(30):
            assert pair(x + 1, y) > pair(x, y)
            assert pair(x, y + 1) > pair(x, y)


def test_class_index_values():
    assert class_index(12) == 2  # 12 = 4 * 3
    assert class_index(7) == 0
    assert class_index(0) is None


def test_class_members():
    assert list(class_members(0, 8)) == [1, 3, 5, 7]
    assert list(class_members(1, 16)) == [2, 6, 10, 14]
    assert list(class_members(3, 8)) == []
    assert list(class_members(1, 40, above=10)) == [14, 18, 22, 26, 30, 34, 38]


def test_classes_partition_positive_naturals():
    for bound in (1, 7, 64, 129):
        seen = {}
        for e in range(bound.bit_length() + 1):
            for n in class_members(e, bound):
                assert n not in seen
                seen[n] = e
        # everything positive below the bound is covered by exactly one class
        assert sorted(seen) == list(range(1, bound))
        for n in range(1, bound):
            assert class_index(n) == seen[n]


def test_class_density_exact_at_aligned_bounds():
    for e in range(5):
        block = 1 << (e + 1)
        for k in (1, 3, 8):
            bound = k * block
            got = Fraction(len(class_members(e, bound)), bound)
            assert got == Fraction(1, block)


def test_position_enumerates_requirements_in_priority_order():
    # (0, 0), (0, 1), (1, 0), ... take the positions 0, 1, 2, ... in turn
    assert [position(e, side) for e in range(6) for side in (0, 1)] == list(range(12))
    assert position(3, 1) == 7
