from __future__ import annotations

from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from config_gen import random_config
from conftest import make_suites
from minpair import engine
from minpair.analysis import check_structural, replay
from minpair.arith import class_index
from minpair.engine import MUTATIONS, Action, Removal, Trace, run
from minpair.oracle import reference_run


def scenario_suite(value=0):
    fsuite, _ = make_suites(
        {"horizon": 5, "suite": {"functionals": [{"kind": "total_const", "value": value}], "operators": []}}
    )
    return fsuite


def test_step_by_step_walkthrough():
    """Hand-simulated stage rule on the constant-zero suite.

    Stage 1 has only pair position 0 in range, and its class (the odds)
    misses the domain {0}.  Stage 2 sees witness 1, inserts it into side 0,
    and restrains at 2.  Stage 4 lets the side-1 twin act with witness 3
    (3 exceeds the restraint 2); nothing is removed because the only other
    insertion was made by a stronger pair.
    """
    trace = run(scenario_suite(), 5, snapshot_every=1)
    events = trace.events

    assert events[0].stage == 0 and events[0].action is None
    assert events[1].action is None

    assert events[2].action == Action(e=0, side=0, witness=1, restraint=2)
    assert events[2].removals == ()
    assert events[2].snapshot.side0 == (1,)

    assert events[3].action is None

    assert events[4].action == Action(e=0, side=1, witness=3, restraint=4)
    assert events[4].removals == ()

    assert events[4].snapshot.side0 == (1,)
    assert events[4].snapshot.side1 == (3,)
    assert trace.summary.restraints == ((0, 2), (1, 4))


def test_run_horizon_zero_is_empty():
    trace = run(scenario_suite(), 0)
    assert trace.kept == [] and trace.events == ()
    assert trace.summary.horizon == 0
    assert trace.summary.side0 == () and trace.summary.side1 == ()


def test_run_records_actions_at_stages_2_and_4():
    trace = run(scenario_suite(), 5)
    acted = [ev.stage for ev in trace.events if ev.action]
    assert acted == [2, 4]
    assert trace.summary.side0 == (1,)
    assert trace.summary.side1 == (3,)
    assert trace.summary.restraints == ((0, 2), (1, 4))


def test_run_rejects_negative_horizon():
    with pytest.raises(ValueError):
        run(scenario_suite(), -1)


def test_everywhere_divergent_never_acts():
    fsuite, _ = make_suites(
        {"horizon": 30, "suite": {"functionals": [{"kind": "empty"}, {"kind": "empty"}], "operators": []}}
    )
    trace = run(fsuite, 30)
    assert all(ev.action is None for ev in trace.events)


def injury_suite():
    fsuite, _ = make_suites(
        {
            "horizon": 50,
            "suite": {
                "functionals": [
                    {"kind": "table_partial", "entries": [[1, 1, 40]]},
                    {"kind": "table_partial", "entries": [[2, 1, 5], [6, 1, 35]]},
                ],
                "operators": [],
            },
        }
    )
    return fsuite


def test_injury_run_removes_weaker_insertion():
    """Frozen from the hand-simulation: the weak side-1 insertion of 6 at
    stage 35 is removed when the strongest pair finally acts at stage 40."""
    trace = run(injury_suite(), 50)
    actions = [(ev.stage, ev.action) for ev in trace.events if ev.action]
    assert actions == [
        (5, Action(e=1, side=0, witness=2, restraint=5)),
        (35, Action(e=1, side=1, witness=6, restraint=35)),
        (40, Action(e=0, side=0, witness=1, restraint=40)),
    ]
    (removal,) = trace.events[40].removals
    assert removal == Removal(n=6, side=1, by_e=1, by_side=1, inserted_at=35)
    assert trace.summary.side0 == (1, 2)
    assert trace.summary.side1 == ()


def test_single_entry_and_class_bound_hold_on_random_runs():
    from config_gen import random_config

    for seed in (3, 11, 29):
        raw = random_config(seed)
        fsuite, _ = make_suites(raw)
        trace = run(fsuite, raw["horizon"], raw["snapshot_every"])
        seen = set()
        members = ({}, {})
        for ev in trace.events:
            if ev.action:
                key = (ev.action.side, ev.action.witness)
                assert key not in seen
                seen.add(key)
                members[ev.action.side][ev.action.witness] = ev.action
            for rm in ev.removals:
                assert members[rm.side].pop(rm.n).position > ev.action.position
            for side in (0, 1):
                per_class = {}
                for n in members[side]:
                    e = members[side][n].e
                    per_class[e] = per_class.get(e, 0) + 1
                assert all(c <= 1 for c in per_class.values())


def test_snapshot_cadence_and_content():
    trace = run(injury_suite(), 50, snapshot_every=10)
    with_snap = [ev.stage for ev in trace.events if ev.snapshot]
    assert with_snap == [0, 10, 20, 30, 40]
    snap40 = trace.events[40].snapshot
    # post-action state at stage 40: witness 1 inserted, 6 removed
    assert snap40.side0 == (1, 2)
    assert snap40.side1 == ()


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 59), st.integers(0, 400), st.sampled_from([1, 2, 7]))
def test_snapshots_equal_the_replay_at_every_cadence_and_mutation(seed, horizon, every):
    """A snapshot is the members after its stage's action, and one Snapshot
    serves until the next action: at every cadence, honest or mutated, each
    snapshot and the summary equal the replay, and an honest trace equals
    the reference oracle's."""
    fsuite = make_suites(random_config(seed, horizon))[0]
    for mutation in (None, *MUTATIONS):
        trace = run(fsuite, horizon, every, mutation=mutation)
        verdicts = {c.name: c.verdict for c in check_structural(trace).checks}
        assert verdicts["event_shape"] == verdicts["replay_summary"] == "pass", mutation
        if mutation is None:
            assert trace == reference_run(fsuite, horizon, every)


def test_mutations_change_behaviour():
    fsuite = injury_suite()
    honest = run(fsuite, 50)
    assert run(fsuite, 50, mutation="skip_removals").events[40].removals == ()
    wrong = run(fsuite, 50, mutation="wrong_removal_side")
    assert all(rm.side == ev.action.side for ev in wrong.events if ev.action for rm in ev.removals)
    assert honest.events[40].removals != ()
    with pytest.raises(ValueError):
        run(fsuite, 5, mutation="not_a_mutation")


def test_trace_is_plain_data():
    trace = run(scenario_suite(), 5)
    assert isinstance(trace, Trace)
    for ev in trace.events:
        assert ev.stage >= 0
        if ev.action is None:
            assert ev.removals == ()


def test_run_settles_each_point_at_most_once():
    from config_gen import random_config

    raw = random_config(2, horizon=4000)  # machine, random_partial, delayed, ...
    fsuite, _ = make_suites(raw)
    calls = Counter()
    settle = fsuite.settle

    def counting_settle(e, n, limit):
        calls[e, n] += 1
        return settle(e, n, limit)

    fsuite.settle = counting_settle
    trace = run(fsuite, 4000)
    assert any(ev.action for ev in trace.events)
    assert len(calls) <= 4000 and max(calls.values()) == 1


def test_run_makes_events_only_for_kept_stages(monkeypatch):
    """A TraceEvent is made only at a stage with an action or a snapshot,
    exactly the events the trace keeps: a quiet stage is only a line."""
    from config_gen import random_config

    made, event = [], engine.TraceEvent
    monkeypatch.setattr(engine, "TraceEvent", lambda *args: made.append(args) or event(*args))
    for seed in range(10):
        raw = random_config(seed, 3200)
        fsuite, _ = make_suites(raw)
        for mutation in (None, *MUTATIONS):
            made.clear()
            trace = run(fsuite, 3200, raw["snapshot_every"], mutation)
            assert len(made) == len(trace.kept) < 3200, (seed, mutation)


def test_run_rejects_an_unknown_mutation_at_horizon_zero():
    with pytest.raises(ValueError):
        run(scenario_suite(), 0, mutation="bogus")


def budget_runs():
    """(suite, horizon, mutation) over random_config seeds 0-9 at horizons
    800 and 3200, with no mutation and under each mutation."""
    from config_gen import random_config

    for seed in range(10):
        for horizon in (800, 3200):
            for mutation in (None, *MUTATIONS):
                yield make_suites(random_config(seed, horizon))[0], horizon, mutation


def test_run_settles_only_points_that_can_still_be_witnesses():
    """A point n is settled, at stage n + 1, exactly when its class is
    indexed and, unless restraints are skipped, some side entering stage
    n + 1 holds no member of its class."""
    for fsuite, horizon, mutation in budget_runs():
        settle, calls = fsuite.settle, []
        fsuite.settle = lambda e, n, limit: calls.append(n) or settle(e, n, limit)
        entering = replay(run(fsuite, horizon, mutation=mutation)).entering

        def settles(n):
            e = class_index(n)
            if e >= fsuite.classes:
                return False
            sides = entering[n + 1]
            return mutation == "skip_restraints" or any(e not in map(class_index, s) for s in sides)

        assert calls == [n for n in range(1, horizon - 1) if settles(n)], (horizon, mutation)


def test_run_scans_only_when_the_answer_may_have_changed(monkeypatch):
    """Scans: at most one per stage up to 2 * classes, one after each
    action, and one per point that converges."""
    scans, find_actor = [], engine._find_actor
    monkeypatch.setattr(engine, "_find_actor", lambda *args: scans.append(1) or find_actor(*args))
    for fsuite, horizon, mutation in budget_runs():
        scans.clear()
        settle, hits = fsuite.settle, []
        fsuite.settle = lambda e, n, limit: hits.append(settle(e, n, limit)) or hits[-1]
        trace = run(fsuite, horizon, mutation=mutation)
        actions = sum(ev.action is not None for ev in trace.kept)
        budget = 2 * fsuite.classes + 1 + actions + sum(hit is not None for hit in hits)
        assert len(scans) <= budget, (horizon, mutation)
