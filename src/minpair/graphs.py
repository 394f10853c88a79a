"""Graphs of {0,1}-valued partial functions.

Two shapes cover everything the construction touches: finite explicit
graphs, and cofinite all-ones graphs (value 1 everywhere off a finite
exception set, undefined on it — the shape of a side's description at any
stage).  A graph is identified with its set of pair(n, value) codes, so
enumeration operators can consume either shape uniformly.  An explicit
graph is built from its canonical form (entries sorted by point), which its
constructor checks; a cofinite graph reads its exception set in place.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import TYPE_CHECKING, Collection, Iterable, Mapping, NamedTuple, Sequence, Union

from .arith import unpair

if TYPE_CHECKING:
    from fractions import Fraction


class ExplicitGraph:
    """Finite partial function listed point by point, sorted by point."""

    __slots__ = ("entries", "_map")

    def __init__(self, entries: tuple[tuple[int, int], ...]) -> None:
        seen: dict[int, int] = {}
        for n, v in entries:
            if n < 0 or v not in (0, 1):
                raise ValueError(f"bad graph entry {n} -> {v}")
            if n in seen:
                raise ValueError(f"point {n} mapped twice")
            seen[n] = v
        self.entries = entries
        self._map = seen

    @classmethod
    def from_map(cls, mapping: Mapping[int, int]) -> "ExplicitGraph":
        return cls(tuple(sorted(mapping.items())))

    def value_at(self, n: int) -> int | None:
        return self._map.get(n)

    def defined_below(self, bound: int) -> int:
        return bisect_left(self.entries, (bound,))


class CofiniteOnes:
    """Value 1 everywhere except a finite set of undefined points, read in place."""

    __slots__ = ("exceptions",)

    def __init__(self, exceptions: Collection[int]) -> None:
        self.exceptions = exceptions

    @classmethod
    def of(cls, exceptions: Iterable[int]) -> "CofiniteOnes":
        return cls(frozenset(exceptions))

    def value_at(self, n: int) -> int | None:
        return None if n in self.exceptions else 1

    def defined_below(self, bound: int) -> int:
        return bound - sum(1 for n in self.exceptions if n < bound)


PartialGraph = Union[ExplicitGraph, CofiniteOnes]


def contains(graph: PartialGraph, code: int) -> bool:
    """Whether the pair coded by code lies on the graph."""
    n, v = unpair(code)
    return graph.value_at(n) == v


def extends(f: PartialGraph, g: PartialGraph) -> bool:
    """Whether g extends f, i.e. every pair on f's graph lies on g's."""
    if isinstance(f, ExplicitGraph):
        return all(g.value_at(n) == v for n, v in f.entries)
    if isinstance(g, CofiniteOnes):
        return set(g.exceptions) <= set(f.exceptions)
    # a cofinite graph never fits inside a finite one
    return False


class DescriptionReport(NamedTuple):
    """Result of checking a partial graph against a total bit sequence."""

    checked_bound: int
    error_points: tuple[int, ...]
    domain_partial_density: Fraction


def check_description(
    f: PartialGraph, bits: Sequence[int], bound: int
) -> DescriptionReport:
    """List every point below bound where f is defined but disagrees with
    bits, and measure the density of f's domain there.  Bits are read only
    at f's defined points, and an explicit graph walks only its entries, so
    any bound costs an explicit graph the same."""
    if bound < 1:
        raise ValueError(f"bound must be >= 1, got {bound}")
    try:
        bits[bound - 1]  # len() stops at sys.maxsize, an index does not
    except IndexError:
        raise ValueError(f"bit sequence shorter than bound {bound}") from None
    if isinstance(f, ExplicitGraph):
        points = f.entries[: f.defined_below(bound)]
    else:
        points = ((n, f.value_at(n)) for n in range(bound))
    errors = tuple(n for n, v in points if v is not None and v != bits[n])
    from fractions import Fraction

    density = Fraction(f.defined_below(bound), bound)
    return DescriptionReport(bound, errors, density)
