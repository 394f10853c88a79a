from __future__ import annotations

import pytest

from config_gen import random_config
from conftest import make_suites
from minpair.analysis import CheckResult, reference_run
from minpair.engine import MUTATIONS, Action, Removal, TraceEvent, run
from minpair.records import Snapshot, Trace, TraceSummary, canon, event_line, trace_lines
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


def dense_lines(trace):
    """The writer's specification: `event_line` of each event of the dense
    `Trace.events` view, then the canonical summary line."""
    return [event_line(ev) for ev in trace.events] + [canon({"summary": trace.summary._asdict()})]


def writer_cases():
    for seed in range(10):
        raw = random_config(seed, 400)
        fsuite, _ = make_suites(raw)
        for snapshot_every in (0, 37):
            yield reference_run(fsuite, 400, snapshot_every)
            for mutation in (None, *MUTATIONS):
                yield run(fsuite, 400, snapshot_every, mutation)
    summary = TraceSummary.of(6, (1,), (), {0: 0})
    last = TraceEvent(5, None, (), Snapshot((1,), ()))
    yield Trace([TraceEvent(0, Action(0, 0, 1, 0), ()), last], summary)
    yield Trace([TraceEvent(0, None, ()), TraceEvent(3, None, (), None), last], summary)
    yield Trace([], TraceSummary.of(0, (), (), {}))


def test_trace_lines_equal_the_dense_rendering():
    """Quiet stages written from the template give the bytes of rendering a
    quiet event of every stage, kept events at the first and last stage
    and kept quiet events too."""
    for trace in writer_cases():
        assert trace_lines(trace) == dense_lines(trace)
