from __future__ import annotations

from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from minpair.arith import pair
from minpair.graphs import (
    CofiniteOnes,
    DescriptionReport,
    ExplicitGraph,
    check_description,
    contains,
    extends,
)
from minpair.suites import EndToEndSpec

bits = st.integers(0, 1)
explicit_graphs = st.dictionaries(st.integers(0, 24), bits, max_size=8).map(
    ExplicitGraph.from_map
)
cofinite_graphs = st.frozensets(st.integers(0, 24), max_size=8).map(CofiniteOnes.of)
graphs = st.one_of(explicit_graphs, cofinite_graphs)


def test_contains_examples():
    assert contains(CofiniteOnes.of({2, 5}), pair(3, 1)) is True
    assert contains(CofiniteOnes.of({2, 5}), pair(2, 1)) is False
    assert contains(ExplicitGraph.from_map({4: 0}), pair(4, 1)) is False
    assert contains(ExplicitGraph.from_map({4: 0}), pair(4, 0)) is True


@given(cofinite_graphs, st.integers(0, 40))
def test_cofinite_never_takes_value_zero(g, n):
    assert contains(g, pair(n, 0)) is False


def test_extends_examples():
    assert extends(CofiniteOnes.of({2, 5, 9}), CofiniteOnes.of({2, 5})) is True
    assert extends(CofiniteOnes.of({2}), CofiniteOnes.of({3})) is False
    assert extends(ExplicitGraph.from_map({1: 1}), CofiniteOnes.of(set())) is True
    assert extends(CofiniteOnes.of(set()), ExplicitGraph.from_map({1: 1})) is False


@given(st.frozensets(st.integers(0, 24), max_size=8), st.frozensets(st.integers(0, 24), max_size=8))
def test_cofinite_extends_is_exception_containment(e1, e2):
    assert extends(CofiniteOnes.of(e1), CofiniteOnes.of(e2)) == (e2 <= e1)


@given(graphs)
def test_extends_reflexive(g):
    assert extends(g, g)


@given(graphs, graphs)
def test_extends_antisymmetric_on_canonical_forms(f, g):
    if extends(f, g) and extends(g, f):
        assert type(f) is type(g)
        form = "entries" if isinstance(f, ExplicitGraph) else "exceptions"
        assert getattr(f, form) == getattr(g, form)


@given(graphs, graphs, graphs)
def test_extends_transitive(f, g, h):
    if extends(f, g) and extends(g, h):
        assert extends(f, h)


def test_graph_constructors_validate():
    with pytest.raises(ValueError):
        ExplicitGraph(((3, 1), (3, 0)))  # point mapped twice
    with pytest.raises(ValueError):
        ExplicitGraph.from_map({1: 2})


def test_check_description_all_ones():
    report = check_description(CofiniteOnes.of(set()), [1] * 100, 100)
    assert report.error_points == ()
    assert report.domain_partial_density == 1


def test_check_description_disagreement():
    report = check_description(ExplicitGraph.from_map({4: 0}), [1] * 10, 10)
    assert report.error_points == (4,)
    assert report.domain_partial_density == Fraction(1, 10)


def test_check_description_requires_enough_bits():
    with pytest.raises(ValueError):
        check_description(CofiniteOnes.of(set()), [1, 1], 5)
    with pytest.raises(ValueError):
        check_description(CofiniteOnes.of(set()), [], 0)


def test_check_description_reads_only_defined_points_of_an_explicit_graph():
    """A bound no index could hold: only the entries' bits are read."""
    spec = EndToEndSpec(0, 1, 2**64, Fraction(1), {"kind": "parity"})
    graph = ExplicitGraph.from_map({3: 1, 8: 1, 2**64 - 1: 1, 2**64: 0})
    report = check_description(graph, spec.target_view(), 2**64)
    assert report == (2**64, (8,), Fraction(3, 2**64))


def test_report_shape():
    report = check_description(CofiniteOnes.of({0}), [0, 1, 1], 3)
    assert isinstance(report, DescriptionReport)
    assert report.checked_bound == 3
    assert report.domain_partial_density == Fraction(2, 3)
