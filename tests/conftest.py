from __future__ import annotations

import json

import pytest
from hypothesis import strategies as st

from config_gen import SCENARIO_CONFIG, random_config
from minpair import engine
from minpair.arith import pair
from minpair.cli import build_suites, parse_config
from minpair.operators import Axiom, EnumOperator

# random staged operators, for property tests of operators and analysis
codes = st.integers(0, 60)
axioms = st.builds(Axiom.of, st.frozensets(codes, max_size=4), st.integers(0, 20))
operators = st.lists(st.tuples(st.integers(0, 12), axioms), max_size=8).map(
    EnumOperator.from_staged
)
# operators whose premises ask points 1..12 to stay out of a side and whose
# outputs collide, so that runs make and break joint enumerations
guarded_axioms = st.builds(
    Axiom.of,
    st.frozensets(st.integers(1, 12).map(lambda n: pair(n, 1)), max_size=3),
    st.integers(0, 5),
)
guarded_operators = st.lists(st.tuples(st.integers(0, 40), guarded_axioms), max_size=8).map(
    EnumOperator.from_staged
)


def make_suites(raw_config: dict):
    return build_suites(parse_config(json.dumps(raw_config)))


@pytest.fixture(scope="session")
def scenario_suite():
    fsuite, _ = make_suites(SCENARIO_CONFIG)
    return fsuite


@pytest.fixture(scope="session")
def scenario_trace(scenario_suite):
    return engine.run(scenario_suite, 5)


@pytest.fixture(scope="session")
def oracle_corpus():
    """Scenario config plus the 50 seeded random configs, with engine traces."""
    corpus = []
    for raw in [SCENARIO_CONFIG] + [random_config(seed) for seed in range(50)]:
        config = parse_config(json.dumps(raw))
        fsuite, _ = build_suites(config)
        trace = engine.run(fsuite, config.horizon, config.snapshot_every)
        corpus.append((config, fsuite, trace))
    return corpus
