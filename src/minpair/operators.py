"""Staged enumeration operators over partial-function graphs.

An operator is a finite table of axioms, each a finite premise set of pair
codes together with an output number, tagged with a stage from which it
is visible.  Evaluating on a graph at a stage returns every output whose
premise codes all lie on the graph; the use of an axiom is the least bound
strictly above every premise code.  Evaluation is monotone both in the
stage (axiom tables only grow) and in the oracle (larger graphs satisfy
more premises).
"""

from __future__ import annotations

from typing import NamedTuple

from .graphs import PartialGraph, contains


class _AxiomFields(NamedTuple):
    premise: tuple[int, ...]
    output: int


class Axiom(_AxiomFields):
    """Finite premise of codes (sorted, duplicate-free) and an output."""

    __slots__ = ()

    def __new__(cls, premise: tuple[int, ...], output: int) -> "Axiom":
        if any(c < 0 for c in premise):
            raise ValueError("premise codes must be naturals")
        if list(premise) != sorted(set(premise)):
            raise ValueError("premise must be sorted and duplicate-free")
        if output < 0:
            raise ValueError("output must be a natural")
        return super().__new__(cls, premise, output)

    @classmethod
    def of(cls, premise, output: int) -> "Axiom":
        return cls(tuple(sorted(set(premise))), output)

    @property
    def use(self) -> int:
        """Least bound strictly above every premise code (0 if empty)."""
        return self.premise[-1] + 1 if self.premise else 0


class EnumOperator(NamedTuple):
    """Axioms with their stages, sorted by (stage, output, premise)."""

    staged_axioms: tuple[tuple[int, Axiom], ...]

    @classmethod
    def from_staged(cls, staged) -> "EnumOperator":
        canonical = sorted(staged, key=lambda sa: (sa[0], sa[1].output, sa[1].premise))
        if canonical and canonical[0][0] < 0:
            raise ValueError("stage must be a natural")
        return cls(tuple(canonical))


EMPTY_OPERATOR = EnumOperator(())


def evaluate(op: EnumOperator, graph: PartialGraph, stage: int) -> frozenset[int]:
    """Outputs of every axiom visible at the stage whose premise lies on the
    graph."""
    return frozenset(
        a.output
        for s, a in op.staged_axioms
        if s <= stage and all(contains(graph, c) for c in a.premise)
    )
