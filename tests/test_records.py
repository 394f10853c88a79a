from __future__ import annotations

import pytest

from minpair.analysis import CheckResult
from minpair.engine import Action, Removal, TraceEvent
from minpair.records import Snapshot, TraceSummary
from minpair.graphs import CofiniteOnes, ExplicitGraph
from minpair.operators import Axiom, EnumOperator


@pytest.mark.parametrize(
    "a, b",
    [
        (Snapshot((1,), (2,)), Snapshot(side0=(1,), side1=(2,))),
        (
            CheckResult.of("capture", "pass", witness=1),
            CheckResult("capture", "pass", (("witness", 1),)),
        ),
        (Axiom.of([7, 3, 7], 1), Axiom((3, 7), 1)),
        (
            EnumOperator.from_staged([(4, Axiom.of([], 1)), (2, Axiom.of([], 1))]),
            EnumOperator(((2, Axiom((), 1)),)),
        ),
        (Action(0, 1, 3, 4), Action(e=0, side=1, witness=3, restraint=4)),
        (Removal(6, 1, 1, 1, 35), Removal(6, 1, 1, 1, 35)),
        (TraceEvent(3, None, ()), TraceEvent(3, None, (), None)),
    ],
)
def test_equal_records_hash_equal(a, b):
    assert a == b and hash(a) == hash(b)
    assert len({a, b}) == 1


@pytest.mark.parametrize(
    "record, field",
    [
        (Snapshot((1,), ()), "side0"),
        (Removal(6, 1, 1, 1, 35), "by_e"),
        (TraceSummary(1, 5, (), (), ()), "horizon"),
        (Axiom((2,), 0), "output"),
        (EnumOperator(()), "staged_axioms"),
        (Action(0, 0, 1, 2), "witness"),
        (TraceEvent(0, None, ()), "snapshot"),
        (CheckResult.of("capture", "pass"), "verdict"),
    ],
)
def test_frozen_records_reject_assignment(record, field):
    with pytest.raises(AttributeError):
        setattr(record, field, ())


@pytest.mark.parametrize(
    "build",
    [
        lambda: ExplicitGraph(((1, 2),)),  # value not a bit
        lambda: ExplicitGraph(((-1, 0),)),  # negative point
        lambda: ExplicitGraph(((3, 1), (3, 0))),  # point mapped twice
        lambda: CofiniteOnes((-1,)),
        lambda: CofiniteOnes((2, 2)),
        lambda: CofiniteOnes((5, 2)),  # not sorted
        lambda: Axiom((-1,), 0),
        lambda: Axiom((2, 1), 0),  # premise not sorted
        lambda: Axiom((1, 1), 0),  # premise repeats a code
        lambda: Axiom((), -1),
    ],
)
def test_malformed_records_raise_value_error(build):
    with pytest.raises(ValueError):
        build()
