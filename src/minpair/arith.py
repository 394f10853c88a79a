"""Pair coding, dyadic valuation classes and requirement positions.

Ordered pairs of naturals are coded with the Cantor pairing function.  The
positive naturals split into disjoint classes by 2-adic valuation (class e
holds the n divisible by 2^e but not 2^(e+1)); class e has density
2^-(e+1), so the classes partition the positive naturals with geometric
weight.  Requirements (e, side) are ordered by their position 2e + side.
"""

from __future__ import annotations

from math import isqrt


def position(e: int, side: int) -> int:
    """Priority position 2e + side of requirement (e, side); smaller is
    stronger."""
    return 2 * e + side


def pair(x: int, y: int) -> int:
    """Cantor code (x+y)(x+y+1)/2 + y of the ordered pair (x, y)."""
    if x < 0 or y < 0:
        raise ValueError(f"pair requires naturals, got ({x}, {y})")
    s = x + y
    return s * (s + 1) // 2 + y


def unpair(code: int) -> tuple[int, int]:
    """Inverse of pair."""
    if code < 0:
        raise ValueError(f"unpair requires a natural, got {code}")
    w = (isqrt(8 * code + 1) - 1) // 2
    y = code - w * (w + 1) // 2
    return w - y, y


def class_index(n: int) -> int | None:
    """2-adic valuation of n, or None for n = 0 (divisible by every power)."""
    if n < 0:
        raise ValueError(f"class_index requires a natural, got {n}")
    if n == 0:
        return None
    return (n & -n).bit_length() - 1


def class_members(e: int, bound: int, above: int = 0) -> range:
    """Members of valuation class e above the natural `above` and below
    bound, ascending."""
    if e < 0:
        raise ValueError(f"class index must be a natural, got {e}")
    return range((1 << e) + ((above + (1 << e)) >> (e + 1) << (e + 1)), bound, 2 << e)
