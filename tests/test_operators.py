from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from conftest import operators
from minpair.arith import pair
from minpair.graphs import CofiniteOnes, ExplicitGraph, extends
from minpair.operators import Axiom, EnumOperator, evaluate


def op_of(*staged):
    return EnumOperator.from_staged(staged)


def test_evaluate_empty_premise():
    w = op_of((0, Axiom.of([], 4)))
    assert evaluate(w, ExplicitGraph.from_map({}), 0) == {4}
    assert evaluate(w, CofiniteOnes.of({1, 2, 3}), 9) == {4}


def test_evaluate_single_premise():
    w = op_of((0, Axiom.of([pair(3, 1)], 9)))
    assert evaluate(w, ExplicitGraph.from_map({3: 1}), 0) == {9}
    assert evaluate(w, ExplicitGraph.from_map({}), 0) == frozenset()


def test_evaluate_blocked_by_exception():
    w = op_of((1, Axiom.of([pair(1, 1)], 42)))
    g = CofiniteOnes.of({1})
    for s in range(10):
        assert evaluate(w, g, s) == frozenset()


def test_stage_gating():
    w = op_of((5, Axiom.of([], 7)))
    assert evaluate(w, CofiniteOnes.of(set()), 4) == frozenset()
    assert evaluate(w, CofiniteOnes.of(set()), 5) == {7}


def test_axioms_deduplicate_keeping_first_stage():
    w = op_of((7, Axiom.of([], 1)), (3, Axiom.of([], 1)))
    assert w.staged_axioms == ((3, Axiom.of([], 1)),)


def test_axiom_validation():
    with pytest.raises(ValueError):
        Axiom((2, 1), 0)  # unsorted premise
    with pytest.raises(ValueError):
        Axiom.of([1], -1)


# -- randomized structural properties ---------------------------------------

cofinite_graphs = st.frozensets(st.integers(0, 10), max_size=6).map(CofiniteOnes.of)


@settings(max_examples=200)
@given(operators, cofinite_graphs, st.frozensets(st.integers(0, 10), max_size=4), st.integers(0, 12))
def test_oracle_monotonicity(w, g, extra, s):
    smaller = CofiniteOnes.of(set(g.exceptions) | extra)
    assert extends(smaller, g)
    assert evaluate(w, smaller, s) <= evaluate(w, g, s)


@settings(max_examples=200)
@given(operators, cofinite_graphs, st.integers(0, 12), st.integers(0, 12))
def test_stage_monotonicity(w, g, s1, s2):
    lo, hi = min(s1, s2), max(s1, s2)
    assert evaluate(w, g, lo) <= evaluate(w, g, hi)
