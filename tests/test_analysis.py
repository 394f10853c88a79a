from __future__ import annotations

import importlib
import json
import re
from bisect import bisect_right
from collections import Counter, defaultdict
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import naive_checks
from config_gen import axioms_config, forged_trace, machine_ops_config, random_config
from conftest import guarded_operators, make_suites, operators
from minpair import analysis, engine, joint
from minpair.analysis import (
    TraceFormatError,
    check_capture,
    check_end_to_end,
    check_preservation,
    check_structural,
    derive_diagonal,
    reference_run,
    replay,
    synthesize_joint,
)
from minpair.arith import pair, unpair
from minpair.cli import main, trace_lines, write_trace
from minpair.operators import Axiom, EnumOperator, evaluate
from minpair.engine import Action, Removal, Trace, TraceEvent, TraceSummary
from minpair.records import Snapshot
from minpair.graphs import CofiniteOnes, check_description
from minpair.joint import _next, enumeration
from minpair.suites import OperatorSuite


def const_suite(value=0, horizon=5):
    raw = {
        "horizon": horizon,
        "suite": {"functionals": [{"kind": "total_const", "value": value}], "operators": []},
    }
    return make_suites(raw)[0]


def ops_suite(specs, horizon=20):
    raw = {
        "horizon": horizon,
        "suite": {"functionals": [{"kind": "total_const", "value": 0}], "operators": specs},
    }
    return make_suites(raw)


def axioms(*rows):
    return {
        "kind": "axioms",
        "axioms": [{"stage": s, "premise": p, "output": o} for s, p, o in rows],
    }


def forged(events, side0=(), side1=(), restraints=(), horizon=None):
    horizon = len(events) if horizon is None else horizon
    return Trace(
        events,
        TraceSummary(1, horizon, tuple(side0), tuple(side1), tuple(restraints)),
    )


def empty_events(stages):
    return [TraceEvent(s, None, ()) for s in stages]


# -- names resolved on first use ----------------------------------------------


@pytest.mark.parametrize(
    "name, home",
    [
        ("check_structural", "analysis"),
        ("check_capture", "analysis"),
        ("replay", "analysis"),
        *analysis._LAZY.items(),
    ],
)
def test_traced_names_are_analysis_attributes(name, home):
    """Every function a tracer wraps through `analysis`, and every name it
    resolves on first use, is an attribute of it, and is the object its
    home module defines."""
    module = importlib.import_module(f"minpair.{home}")
    assert getattr(analysis, name) is getattr(module, name)
    assert getattr(module, name).__module__ == module.__name__


def test_unknown_analysis_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_check"):
        analysis.no_such_check
    assert not hasattr(analysis, "check_nothing")


# -- replay ------------------------------------------------------------------


def test_replay_entering_series(scenario_suite, scenario_trace):
    rep = replay(scenario_trace)
    assert rep.entering[0] == (frozenset(), frozenset())
    assert rep.entering[3] == (frozenset({1}), frozenset())
    assert rep.entering[5] == (frozenset({1}), frozenset({3}))
    assert rep.restraints_entering[4] == {0: 2}
    assert rep.restraints_entering[5] == {0: 2, 1: 4}


def entering_in_order(trace):
    """For each stage 0..horizon, (members, restraints) entering it, as
    `naive_checks.entering` rebuilds them stage by stage, each side's
    members listed in the order they entered, each with its provenance and
    the stage from which it has been a member."""
    states = naive_checks.entering(trace)
    entered: tuple[dict, dict] = ({}, {})  # side -> n -> the stage it entered
    ordered = []
    for s, (members, restraints) in enumerate(states):
        sides = []
        for side in (0, 1):
            for n in members[side]:
                if s == 0 or n not in states[s - 1][0][side]:
                    entered[side][n] = s - 1
            rows = [(n, (*members[side][n], entered[side][n])) for n in members[side]]
            sides.append(sorted(rows, key=lambda row: row[1][3]))
        ordered.append((sides, restraints))
    return ordered


# small witnesses and victims, so that forged events meet real members;
# sides are bits, as the trace reader gives them
forged_actions = st.builds(
    Action, st.integers(0, 3), st.integers(0, 1), st.integers(0, 8), st.integers(0, 200)
)
forged_removals = st.builds(
    Removal,
    st.integers(0, 8),
    st.integers(0, 1),
    st.integers(0, 3),
    st.integers(0, 1),
    st.integers(0, 200),
)
forged_events = st.tuples(
    st.integers(0, 199), st.none() | forged_actions, st.lists(forged_removals, max_size=3)
)


def with_forgeries(trace, forgeries):
    """The trace with each forged (stage, action, removals) event below its
    horizon in place of that stage's event."""
    events = {ev.stage: ev for ev in trace.kept}
    for stage, action, removals in forgeries:
        if stage < trace.summary.horizon:
            events[stage] = TraceEvent(stage, action, tuple(removals))
    return Trace([events[s] for s in sorted(events) if not events[s].quiet], trace.summary)


@settings(max_examples=150, deadline=None)
@given(
    st.integers(0, 59),
    st.integers(0, 200),
    st.lists(forged_events, max_size=6),
    st.sets(st.integers(0, 200)),
)
def test_replay_at_change_points_matches_every_stage(seed, horizon, forgeries, picked):
    """replay keeps only the events with an action or removals; one pass of
    `states` over them gives, entering each stage of an ascending list (every
    stage, or any subset of them), the state that a stage-by-stage rebuild
    gives, members in the order they entered, forged traces included."""
    raw = random_config(seed, horizon)
    trace = engine.run(make_suites(raw)[0], horizon, raw["snapshot_every"])
    trace = with_forgeries(trace, forgeries)
    rep = replay(trace)
    states = entering_in_order(trace)
    assert rep.events == [ev for ev in trace.kept if ev.action is not None or ev.removals]
    for stages in (range(horizon + 1), sorted(s for s in picked if s <= horizon)):
        got = [
            (s, ([list(side.items()) for side in members], dict(restraints)))
            for s, members, restraints in rep.states(stages)
        ]
        assert got == [(s, states[s]) for s in stages]
    for s, (members, restraints) in enumerate(states):
        assert rep.entering[s] == tuple(frozenset(n for n, _ in side) for side in members)
        assert rep.restraints_entering[s] == restraints
    for outside in (-1, horizon + 1):
        with pytest.raises(IndexError):
            rep.entering[outside]


def test_replay_rejects_events_out_of_stage_order(scenario_trace):
    """Kept events come in increasing stage order, below the horizon; that
    every stage has its event is the reader's check."""
    first, second = scenario_trace.kept  # stages 2 and 4 of horizon 5
    for kept in ([second, first], [first, first], [first, second._replace(stage=5)]):
        with pytest.raises(TraceFormatError, match="out of order"):
            replay(Trace(kept, scenario_trace.summary))


# -- structural checks on genuine and forged traces ---------------------------


def test_structural_passes_on_genuine_trace(scenario_suite, scenario_trace):
    report = check_structural(scenario_trace, scenario_suite)
    assert report.passed
    assert {c.verdict for c in report.checks} == {"pass"}


def test_structural_flags_double_insertion():
    events = empty_events(range(2))
    events.append(TraceEvent(2, Action(0, 0, 1, 2), ()))
    events.append(TraceEvent(3, None, ()))
    events.append(TraceEvent(4, Action(0, 0, 1, 4), ()))
    trace = forged(events, side0=(1,), restraints=((0, 4),))
    report = check_structural(trace)
    assert report.find("dce_single_entry").verdict == "fail"
    assert dict(report.find("dce_single_entry").detail) == {"side": 0, "n": 1}


def test_structural_flags_stronger_removal():
    events = empty_events(range(2))
    events.append(TraceEvent(2, Action(0, 0, 1, 2), ()))
    events.append(TraceEvent(3, None, ()))
    events.append(
        TraceEvent(4, Action(0, 1, 3, 4), (Removal(1, 0, 0, 0, 2),))
    )
    trace = forged(events, side1=(3,), restraints=((0, 2), (1, 4)))
    report = check_structural(trace)
    bad = report.find("removal_discipline")
    assert bad.verdict == "fail"
    assert dict(bad.detail)["reason"] == "removed a stronger insertion"


def test_structural_flags_missing_removal_and_key_lemma():
    events = empty_events(range(4))
    events.append(TraceEvent(4, Action(1, 1, 2, 4), ()))
    events.append(TraceEvent(5, Action(0, 0, 1, 5), ()))  # should have removed 2
    trace = forged(events, side0=(1,), side1=(2,), restraints=((0, 5), (3, 4)))
    report = check_structural(trace)
    assert report.find("key_lemma").verdict == "fail"
    assert report.find("removal_discipline").verdict == "fail"


def test_structural_flags_restraint_mismatch():
    events = empty_events(range(2))
    events.append(TraceEvent(2, Action(0, 0, 1, 3), ()))
    trace = forged(events, side0=(1,), restraints=((0, 3),))
    report = check_structural(trace)
    assert report.find("restraint_discipline").verdict == "fail"


def test_structural_flags_summary_mismatch(scenario_trace):
    trace = Trace(
        scenario_trace.events,
        TraceSummary(1, 5, (1, 9), (3,), ((0, 2), (1, 4))),
    )
    report = check_structural(trace)
    assert report.find("replay_summary").verdict == "fail"


def test_structural_flags_removals_without_action(scenario_trace):
    events = list(scenario_trace.events)
    events[3] = TraceEvent(3, None, (Removal(1, 0, 0, 0, 2),))
    report = check_structural(forged(events, side1=(3,), restraints=((0, 2), (1, 4))))
    assert report.find("event_shape").verdict == "fail"


def test_structural_flags_witness_under_restraint(scenario_suite):
    events = empty_events(range(2))
    events.append(TraceEvent(2, Action(0, 0, 1, 2), ()))
    events.append(TraceEvent(3, Action(0, 1, 1, 3), ()))  # 1 <= restraint 2
    trace = forged(events, side0=(1,), side1=(1,), restraints=((0, 2), (1, 3)))
    report = check_structural(trace, scenario_suite)
    bad = report.find("witness_discipline")
    assert bad.verdict == "fail"
    assert dict(bad.detail)["reason"] == "witness under a stronger restraint"


def test_structural_mutation_sweep():
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
    expected_failures = {
        "skip_removals": "removal_discipline",
        "wrong_removal_side": "removal_discipline",
        "skip_restraints": "witness_discipline",
    }
    for mutation, name in expected_failures.items():
        trace = engine.run(fsuite, 50, mutation=mutation)
        report = check_structural(trace, fsuite)
        assert not report.passed
        assert report.find(name).verdict == "fail", mutation



def quiet_but(horizon, events):
    """A forged trace whose stage s holds events[s], every other stage quiet."""
    return forged([events.get(s, TraceEvent(s, None, ())) for s in range(horizon)])


def acts(*rows):
    """stage -> event, one (stage, e, side, witness, restraint, removals...) row each."""
    return {
        s: TraceEvent(s, Action(e, side, w, r), tuple(removals))
        for s, e, side, w, r, *removals in rows
    }


# (check, events with two of its violations, the first counterexample, and
# the stage whose event, made quiet, leaves only the other violation)
TWO_VIOLATIONS = [
    (
        "event_shape",
        {
            1: TraceEvent(1, None, (), Snapshot((7,), ())),
            3: TraceEvent(3, None, (Removal(1, 0, 0, 0, 0),)),
        },
        {"stage": 1, "reason": "snapshot disagrees with replay"},
        1,
    ),
    (  # side 1 breaks the bound from stage 5, side 0 from stage 7
        "class_bound",
        acts((2, 0, 0, 1, 2), (3, 0, 1, 3, 3), (4, 0, 1, 5, 4), (6, 0, 0, 7, 6)),
        {"stage": 5, "side": 1, "class": 0},
        4,
    ),
    (  # no stage: the least (side, n) entered twice comes first
        "dce_single_entry",
        acts((2, 0, 0, 5, 2), (4, 0, 0, 5, 4), (6, 0, 0, 1, 6), (8, 0, 0, 1, 8)),
        {"side": 0, "n": 1},
        8,
    ),
    (  # the earlier fault is further down the reason chain than the later one
        "witness_discipline",
        acts((2, 0, 0, 2, 2), (5, 2, 1, 4, 5)),
        {"stage": 2, "reason": "witness outside its class"},
        2,
    ),
    (
        "restraint_discipline",
        acts((2, 0, 0, 1, 3), (4, 0, 1, 3, 9)),
        {"stage": 2, "recorded": 3},
        2,
    ),
    (  # stage 5 misses victim 2; stage 7 removes from its own side
        "removal_discipline",
        acts((4, 1, 1, 2, 4), (5, 0, 0, 1, 5), (7, 0, 1, 3, 7, Removal(9, 1, 0, 0, 5))),
        {"stage": 5, "reason": "removals disagree with weaker opposite-side members"},
        5,
    ),
    (  # neither stage 5 nor stage 9 removes the weaker opposite insertion
        "key_lemma",
        acts((4, 1, 1, 2, 4), (5, 0, 0, 1, 5), (7, 1, 0, 6, 7), (9, 0, 1, 3, 9)),
        {"stage": 5, "since": 0, "side": 1},
        5,
    ),
    (  # no stage: the strongest position comes first
        "finite_action",
        acts((6, 0, 0, 1, 6), (8, 0, 0, 3, 8), (10, 1, 1, 2, 10), (12, 1, 1, 6, 12)),
        {"position": 0, "stages": (6, 8)},
        8,
    ),
]


# the structural walk's rare paths, in the shape of TWO_VIOLATIONS
RARE_PATHS = {
    # stage 5 removes victim 2 twice; stage 7 removes from its own side
    "removal_discipline-duplicate_removal": (
        "removal_discipline",
        acts(
            (4, 1, 1, 2, 4),
            (5, 0, 0, 1, 5, Removal(2, 1, 1, 1, 4), Removal(2, 1, 1, 1, 4)),
            (7, 0, 1, 3, 7, Removal(9, 1, 0, 0, 5)),
        ),
        {"stage": 5, "n": 2, "reason": "not a current member"},
        5,
    ),
    # stage 3 inserts 3 and removes its class-mate 1 from side 0, which
    # keeps the bound; side 0 breaks it from stage 6, side 1 from stage 9
    "class_bound-mate_removed_by_the_insertion": (
        "class_bound",
        acts(
            (2, 0, 0, 1, 2),
            (3, 0, 0, 3, 3, Removal(1, 0, 0, 0, 2)),
            (5, 0, 0, 5, 5),
            (7, 1, 1, 2, 7),
            (8, 1, 1, 6, 8),
        ),
        {"stage": 6, "side": 0, "class": 0},
        5,
    ),
    # side 1 holds 1 entering stages 3-4, lacks it entering 5-6 and holds
    # it again from 7, so the lemma of stage 8, back to stage 3, fails at 5
    "key_lemma-since_after_a_reentry": (
        "key_lemma",
        acts(
            (2, 0, 1, 1, 2),
            (4, 2, 0, 4, 4, Removal(1, 1, 0, 1, 2)),
            (6, 3, 1, 1, 6),
            (8, 1, 0, 2, 8),
            (10, 1, 0, 6, 10),
        ),
        {"stage": 8, "since": 5, "side": 1},
        8,
    ),
    # side 1 inserts its member 1 again at stages 4 and 10, which keeps the
    # stage it entered: the lemma holds at stage 6, and first fails at 12,
    # where 4, which entered at stage 8, is missing back to stage 3
    "key_lemma-a_member_inserted_again": (
        "key_lemma",
        acts(
            (2, 0, 1, 1, 2),
            (4, 3, 1, 1, 4),
            (6, 1, 0, 2, 6),
            (8, 2, 1, 4, 8),
            (10, 3, 1, 1, 10),
            (12, 1, 0, 6, 12),
            (14, 1, 0, 10, 14),
        ),
        {"stage": 12, "since": 3, "side": 1},
        12,
    ),
}


@pytest.mark.parametrize(
    "name, events, first, drop",
    [*TWO_VIOLATIONS, *RARE_PATHS.values()],
    ids=[*(case[0] for case in TWO_VIOLATIONS), *RARE_PATHS],
)
def test_structural_reports_the_first_counterexample(name, events, first, drop):
    """Of two violations of one check, the report names the first one in the
    order that the check walks the run."""
    horizon = max(events) + 2
    assert dict(check_structural(quiet_but(horizon, events)).find(name).detail) == first
    other = quiet_but(horizon, {s: ev for s, ev in events.items() if s != drop})
    check = check_structural(other).find(name)
    assert check.verdict == "fail" and dict(check.detail) != first



def test_structural_memory_follows_the_events_not_their_square(tmp_path):
    """Work budget: on a forged trace whose stages 1-4000 each insert the
    next odd number into side 0, check_structural peaks under 4 MiB under
    tracemalloc (a copy of each side at every change point took about
    334 MiB), and `verify --checks structural` of the trace exits 1."""
    import tracemalloc

    horizon = 4001
    kept = [TraceEvent(s, Action(0, 0, 2 * s + 1, s), ()) for s in range(1, horizon)]
    side0 = [2 * s + 1 for s in range(1, horizon)]
    trace = forged(kept, side0=side0, restraints=((0, horizon - 1),), horizon=horizon)
    tracemalloc.start()
    try:
        report = check_structural(trace)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2**20
    assert dict(report.find("class_bound").detail) == {"stage": 3, "side": 0, "class": 0}
    with open("configs/injury.json", encoding="utf-8") as fh:
        raw = dict(json.load(fh), horizon=horizon)
    config = tmp_path / "forged.json"
    config.write_text(json.dumps(raw), encoding="utf-8")
    write_trace(trace, tmp_path / "forged.trace")
    argv = ["verify", "--trace", str(tmp_path / "forged.trace"), "--config", str(config)]
    assert main([*argv, "--checks", "structural", "--report", str(tmp_path / "r.json")]) == 1


def test_removal_discipline_ranks_no_opposite_side_per_action(monkeypatch):
    """Work budget: on 8000 weaker-alternating actions (`forged_trace`), each
    of which sees every earlier member of the other side, the elements that
    check_structural passes to `sorted` plus its calls of `position` stay
    under 4 x actions; ranking the opposite side at each action computed
    about actions^2 / 4 positions.  Removal discipline passes."""
    actions = 8000
    trace = forged_trace("weaker-alternating", actions)
    work, real_position = [0], analysis.position

    def spend(amount):
        work[0] += amount
        assert work[0] < 4 * actions, "elements sorted plus positions computed"

    def counted_sorted(items, **kwargs):
        items = list(items)
        spend(len(items))
        return sorted(items, **kwargs)

    def counted_position(*args):
        spend(1)
        return real_position(*args)

    monkeypatch.setattr(analysis, "sorted", counted_sorted, raising=False)
    monkeypatch.setattr(analysis, "position", counted_position)
    report = check_structural(trace)
    assert report.find("removal_discipline").verdict == "pass"
    assert report.find("witness_discipline").verdict == "fail"


def test_stronger_restraint_bound_sees_logarithmically_many_restraints(monkeypatch):
    """Work budget: with a suite, witness discipline reads the stronger
    restraint bound only while it has no counterexample, so every earlier
    action had a converged witness w of its class e, 2**e <= w < H, and no
    call sees more than 2 (floor(log2 H) + 1) restraints.  Checked on
    `random_config` seeds 0-9 at horizon 800, with capture of every pair,
    and on 4000 weaker-in-class actions (`forged_trace`), whose witnesses
    lie in their class above every stronger restraint: without a suite each
    action scans every earlier one, and so would a walk that kept scanning
    after the first fault."""
    seen, real = [], analysis._stronger_restraint_bound

    def counted(restraints, p):
        seen.append(len(restraints))
        return real(restraints, p)

    monkeypatch.setattr(analysis, "_stronger_restraint_bound", counted)
    for seed in range(10):
        raw = random_config(seed, 800)
        fsuite = make_suites(raw)[0]
        trace = engine.run(fsuite, 800, raw["snapshot_every"])
        rep = replay(trace)
        assert check_structural(trace, fsuite, rep).passed
        for e in range(fsuite.classes + 1):
            for side in (0, 1):
                check_capture(trace, fsuite, e, side, 800, rep)
        assert max(seen) <= 2 * (800).bit_length()
    trace = forged_trace("weaker-in-class", 4000)
    seen.clear()
    assert check_structural(trace).find("witness_discipline").verdict == "pass"
    assert max(seen) == 3999
    seen.clear()
    report = check_structural(trace, const_suite(horizon=4001))
    assert report.find("witness_discipline").verdict == "fail"
    assert max(seen) <= 2 * (4001).bit_length()


def test_readme_lists_the_structural_checks():
    """README "Reports" lists exactly analysis.STRUCTURAL, in report order."""
    readme = (Path(__file__).parent.parent / "README.md").read_text(encoding="utf-8")
    reports = readme.split("\n## Reports\n", 1)[1]
    assert tuple(re.findall(r"^- `structural:(\w+)`", reports, re.M)) == analysis.STRUCTURAL
    report = check_structural(forged(empty_events(range(3))))
    assert tuple(c.name for c in report.checks) == analysis.STRUCTURAL
    assert naive_checks.NAMES == analysis.STRUCTURAL


# the edits that need an action event with removals
ON_REMOVALS = ("removal_side", "by_e", "inserted_at", "drop_removal", "duplicate_removal", "strip_action")


def edited(trace, edits):
    """The trace with each (kind, pick, delta) edit applied to the action
    event, or the removal of one, that pick selects."""
    events, summary = list(trace.events), trace.summary
    for kind, pick, delta in edits:
        if kind == "summary":
            summary = summary._replace(side0=tuple(sorted(set(summary.side0) ^ {abs(delta)})))
            continue
        busy = [ev for ev in events if ev.action is not None]
        if kind in ON_REMOVALS:
            busy = [ev for ev in busy if ev.removals]
        if not busy:
            continue
        ev = busy[pick % len(busy)]
        act, rms = ev.action, list(ev.removals)
        j = pick % len(rms) if rms else 0
        if kind == "witness":  # an even delta keeps the class, an odd one leaves it
            step = 2 ** (act.e + 1) * (delta // 2) if delta % 2 == 0 else delta
            act = act._replace(witness=max(0, act.witness + step))
        elif kind == "side":
            act = act._replace(side=1 - act.side)
        elif kind == "restraint":
            act = act._replace(restraint=max(0, act.restraint + delta))
        elif kind == "removal_side":
            rms[j] = rms[j]._replace(side=1 - rms[j].side)
        elif kind == "by_e":
            rms[j] = rms[j]._replace(by_e=max(0, rms[j].by_e + delta))
        elif kind == "inserted_at":
            rms[j] = rms[j]._replace(inserted_at=max(0, rms[j].inserted_at + delta))
        elif kind == "drop_removal":
            del rms[j]
        elif kind == "duplicate_removal":
            rms.insert(j, rms[j])
        elif kind == "reorder_removals":
            rms.reverse()
        elif kind == "drop_event":
            act, rms = None, []
        elif kind == "strip_action":
            act = None
        elif kind == "snapshot":
            ev = ev._replace(snapshot=Snapshot((act.witness,), ()))
        elif kind == "copy_action":  # the same action again, at a later stage
            later = ev.stage + 1 + pick % max(1, len(events) - ev.stage - 1)
            if later < len(events):
                events[later] = events[later]._replace(action=act._replace(restraint=later))
        events[ev.stage] = ev._replace(action=act, removals=tuple(rms))
    return Trace([ev for ev in events if not ev.quiet], summary)


EDITS = (
    "witness",
    "side",
    "restraint",
    "removal_side",
    "by_e",
    "inserted_at",
    "drop_removal",
    "duplicate_removal",
    "reorder_removals",
    "drop_event",
    "strip_action",
    "snapshot",
    "copy_action",
    "summary",
)


def test_structural_matches_its_naive_specification():
    """check_structural gives the verdicts and first counterexamples of
    `tests/naive_checks.py` on engine traces under every mutation, as run,
    with random edits and with forged events; most cases reach a failing
    check."""
    failing = []

    @settings(max_examples=400, deadline=None, database=None)
    @given(
        st.integers(0, 59),
        st.integers(0, 160),
        st.sampled_from((None, *engine.MUTATIONS)),
        st.booleans(),
        st.lists(
            st.tuples(st.sampled_from(EDITS), st.integers(0, 10**6), st.integers(-3, 3)),
            max_size=4,
        ),
        st.lists(forged_events, max_size=3),
    )
    def compare(seed, horizon, mutation, with_suite, edits, forgeries):
        raw = random_config(seed, horizon)
        fsuite = make_suites(raw)[0]
        trace = engine.run(fsuite, horizon, raw["snapshot_every"], mutation=mutation)
        trace = with_forgeries(edited(trace, edits), forgeries)
        suite = fsuite if with_suite else None
        report = check_structural(trace, suite)
        got = {c.name: (c.verdict, dict(c.detail)) for c in report.checks}
        assert got == naive_checks.structural(trace, suite)
        failing.extend([seed] if not report.passed else [])

    compare()
    assert len(failing) >= 200
    # the acting pairs' chain: 300 ever weaker pairs, on one side or
    # alternating sides (no removal is due); and pair position 3
    # acting twice before the stronger position 0 acts, then position 2
    # acting twice after every stronger pair has stopped
    rows = [(1, 0, 1, 1, 1), (3, 1, 1, 2, 3), (5, 1, 1, 6, 5), (7, 0, 0, 3, 7)]
    rows += [(9, 1, 1, 10, 9), (11, 1, 0, 14, 11), (13, 1, 0, 18, 13)]
    forged = [forged_trace(family, 300) for family in ("new-position", "weaker-alternating")]
    # 9, inserted by pair position 4, then again by the stronger position 0,
    # leaves no weaker member for position 1 to remove
    forged.append(quiet_but(10, acts((5, 2, 0, 9, 5), (7, 0, 0, 9, 7), (8, 0, 1, 11, 8))))
    for trace in (*forged, quiet_but(15, acts(*rows))):
        report = check_structural(trace)
        assert {c.name: (c.verdict, dict(c.detail)) for c in report.checks} == (
            naive_checks.structural(trace)
        )
    assert dict(report.find("finite_action").detail) == {"position": 2, "stages": (11, 13)}


# -- capture check -----------------------------------------------------------


def test_capture_matches_its_naive_specification():
    """check_capture gives the verdict and detail of `tests/naive_checks.py`
    on engine traces under every mutation, as run and with random edits, at
    any horizon up to the trace's; each verdict occurs in many cases."""
    verdicts = Counter()

    @settings(max_examples=300, deadline=None, database=None)
    @given(
        st.integers(0, 59),
        st.integers(0, 160),
        st.sampled_from((None, *engine.MUTATIONS)),
        st.lists(
            st.tuples(st.sampled_from(EDITS), st.integers(0, 10**6), st.integers(-3, 3)),
            max_size=4,
        ),
        st.integers(0, 10**6),
        st.booleans(),
        st.integers(0, 10**6),
    )
    def compare(seed, horizon, mutation, edits, pick, forget, cut):
        raw = random_config(seed, horizon)
        fsuite = make_suites(raw)[0]
        trace = engine.run(fsuite, horizon, raw["snapshot_every"], mutation=mutation)
        # mostly a requirement that acted before the edits, else any of the first few
        acted = [(ev.action.e, ev.action.side) for ev in trace.events if ev.action]
        e, side = acted[pick % len(acted)] if acted and pick % 4 else divmod(pick % 10, 2)
        if forget:  # a forgery in which the requirement never acts
            kept = [ev for ev in trace.kept if not (ev.action and ev.action[:2] == (e, side))]
            trace = Trace(kept, trace.summary)
        trace = edited(trace, edits)
        h = horizon if cut % 2 else cut % (horizon + 1)
        check = check_capture(trace, fsuite, e, side, h).find("capture")
        got = check.verdict, dict(check.detail)
        assert got == naive_checks.capture(trace, fsuite, e, side, h)
        verdicts[check.verdict] += 1

    compare()
    assert all(verdicts[v] >= 20 for v in ("pass", "fail", "inconclusive")), verdicts


def test_capture_scenario_witness(scenario_suite, scenario_trace):
    report = check_capture(scenario_trace, scenario_suite, 0, 0, 5)
    check = report.find("capture")
    assert check.verdict == "pass"
    assert dict(check.detail)["witness"] == 1


def test_capture_inconclusive_when_divergent():
    fsuite, _ = make_suites(
        {"horizon": 10, "suite": {"functionals": [{"kind": "empty"}], "operators": []}}
    )
    trace = engine.run(fsuite, 10)
    report = check_capture(trace, fsuite, 0, 0, 10)
    assert report.find("capture").verdict == "inconclusive"


def test_capture_inconclusive_at_small_horizon(scenario_suite):
    trace = engine.run(scenario_suite, 1)
    report = check_capture(trace, scenario_suite, 0, 0, 1)
    assert report.find("capture").verdict == "inconclusive"


def test_capture_fails_on_idle_forged_trace(scenario_suite):
    trace = forged(empty_events(range(5)))
    report = check_capture(trace, scenario_suite, 0, 0, 5)
    check = report.find("capture")
    assert check.verdict == "fail"
    assert dict(check.detail)["actionable_stage"] == 2


def test_capture_settles_no_point_at_or_above_its_actionable_stage():
    """Work budget: a capture that passes or fails settles no class point at
    or above its actionable stage other than the side's members, on engine
    traces of `random_config` seeds 0-9 at horizon 800 and on forgeries in
    which the requirement never acts, for every (e, side)."""
    horizon, verdicts, wasted = 800, Counter(), []
    for seed in range(10):
        raw = random_config(seed, horizon)
        fsuite = make_suites(raw)[0]
        settle, calls = fsuite.settle, []
        fsuite.settle = lambda e, n, limit: calls.append(n) or settle(e, n, limit)
        trace = engine.run(fsuite, horizon, raw["snapshot_every"])
        for e in range(fsuite.classes + 1):
            for side in (0, 1):
                kept = [ev for ev in trace.kept if not (ev.action and ev.action[:2] == (e, side))]
                for run in (trace, Trace(kept, trace.summary)):
                    members = replay(run).entering[horizon][side]
                    calls.clear()
                    check = check_capture(run, fsuite, e, side, horizon).find("capture")
                    verdicts[check.verdict] += 1
                    if check.verdict != "inconclusive":
                        s = dict(check.detail)["actionable_stage"]
                        wasted += [(seed, e, side, n) for n in calls if n >= s and n not in members]
    assert wasted == []
    assert verdicts["pass"] >= 50 and verdicts["fail"] >= 50, verdicts


def test_capture_scans_a_class_once_for_both_sides():
    """Work budget: on `random_config(32, 3200)`, whose class 0 (a machine)
    never halts, capture of (0, 0) and of (0, 1) on one replay share one
    least-settle scan: 1599 settle calls in all, not 3198."""
    raw = random_config(32, 3200)
    fsuite = make_suites(raw)[0]
    trace = engine.run(fsuite, 3200, raw["snapshot_every"])
    rep = replay(trace)
    settle, calls = fsuite.settle, []
    fsuite.settle = lambda e, n, limit: calls.append(n) or settle(e, n, limit)
    for side in (0, 1):
        check = check_capture(trace, fsuite, 0, side, 3200, rep).find("capture")
        assert check.verdict == "inconclusive"
    assert len(calls) == 1599


# -- preservation check --------------------------------------------------------


def test_preservation_unconditional_axioms():
    fsuite, osuite = ops_suite(
        [axioms((0, [], 42)), axioms((0, [], 42))], horizon=6
    )
    trace = engine.run(fsuite, 6)
    report = check_preservation(trace, osuite, 0, 1, 6)
    check = report.find("preservation")
    assert check.verdict == "pass"
    assert dict(check.detail)["outputs"] == 1


def test_preservation_vacuous_when_premise_breaks_before_visibility():
    # side-0 premise on point 1 becomes visible at stage 5 but 1 joins side 0
    # at stage 2, so the joint enumeration never fires
    fsuite, osuite = ops_suite(
        [axioms((5, [[1, 1]], 42)), axioms((0, [], 42))], horizon=8
    )
    trace = engine.run(fsuite, 8)
    report = check_preservation(trace, osuite, 0, 1, 8)
    assert report.find("preservation").verdict == "pass"
    assert dict(report.find("preservation").detail)["outputs"] == 0


def injury_case():
    raw = {
        "horizon": 50,
        "suite": {
            "functionals": [
                {"kind": "table_partial", "entries": [[1, 1, 40]]},
                {"kind": "table_partial", "entries": [[2, 1, 5], [6, 1, 35]]},
            ],
            "operators": [
                axioms((8, [[1, 1]], 42)),
                axioms((30, [[6, 1]], 42)),
            ],
        },
    }
    return make_suites(raw)


def test_preservation_survives_injury_through_removal():
    fsuite, osuite = injury_case()
    trace = engine.run(fsuite, 50)
    report = check_preservation(trace, osuite, 0, 1, 50)
    assert report.find("preservation").verdict == "pass"
    assert dict(report.find("preservation").detail)["outputs"] == 1


def test_preservation_fails_without_removals():
    fsuite, osuite = injury_case()
    trace = engine.run(fsuite, 50, mutation="skip_removals")
    report = check_preservation(trace, osuite, 0, 1, 50)
    check = report.find("preservation")
    assert check.verdict == "fail"
    detail = dict(check.detail)
    assert detail["output"] == 42
    assert detail["found_at"] == 30
    assert detail["violated_at"] == 41


def test_preservation_fails_with_wrong_removal_side():
    fsuite, osuite = injury_case()
    trace = engine.run(fsuite, 50, mutation="wrong_removal_side")
    assert check_preservation(trace, osuite, 0, 1, 50).find("preservation").verdict == "fail"


def test_preservation_fails_without_restraints():
    raw = {
        "horizon": 30,
        "suite": {
            "functionals": [
                {"kind": "table_partial", "entries": [[1, 1, 10]]},
                {"kind": "table_partial", "entries": [[2, 1, 20]]},
            ],
            "operators": [
                axioms((5, [[1, 1]], 42)),
                axioms((8, [[2, 1]], 42)),
            ],
        },
    }
    fsuite, osuite = make_suites(raw)
    honest = engine.run(fsuite, 30)
    assert check_preservation(honest, osuite, 0, 1, 30).find("preservation").verdict == "pass"
    mutated = engine.run(fsuite, 30, mutation="skip_restraints")
    check = check_preservation(mutated, osuite, 0, 1, 30).find("preservation")
    assert check.verdict == "fail"
    assert dict(check.detail)["found_at"] == 8


def test_preservation_requires_trace_to_reach_horizon(scenario_trace):
    _, osuite = ops_suite([axioms((0, [], 1)), axioms((0, [], 1))])
    with pytest.raises(ValueError):
        check_preservation(scenario_trace, osuite, 0, 1, 9)


# -- change-point evaluation ------------------------------------------------------


def per_stage_preservation(trace, w0, w1, horizon):
    """check_preservation's verdict and detail, evaluating both operators at
    every stage and rebuilding the acting pairs for every output."""
    rep = replay(trace)

    def enumerated(w, side, s):
        return evaluate(w, CofiniteOnes.of(rep.entering[s][side]), s)

    found = {}
    for s in range(horizon + 1):
        for x in enumerated(w0, 0, s) & enumerated(w1, 1, s):
            found.setdefault(x, s)
    actions = [(ev.stage, ev.action.position) for ev in trace.events if ev.action]
    for x in sorted(found):
        s = found[x]
        acting = [(q, u) for u, q in actions if u >= s]
        start = min(acting)[1] + 1 if acting else s
        first_bad = [
            next((u for u in range(start, horizon + 1) if x not in enumerated(w, side, u)), None)
            for side, w in ((0, w0), (1, w1))
        ]
        if None not in first_bad:
            return "fail", {
                "output": x,
                "found_at": s,
                "violated_at": max(first_bad),
                "window_start": start,
            }
    return "pass", {"outputs": len(found)}


def per_stage_joint(trace, w0, w1, horizon):
    """synthesize_joint's entries, evaluating both operators at every stage."""
    rep = replay(trace)
    entries = {}
    for s in range(horizon + 1):
        joint = evaluate(w0, CofiniteOnes.of(rep.entering[s][0]), s) & evaluate(
            w1, CofiniteOnes.of(rep.entering[s][1]), s
        )
        for n, k in sorted(unpair(code) for code in joint):
            if k <= 1:
                entries.setdefault(n, (k, s))
    return entries


@settings(max_examples=150, deadline=None)
@given(
    st.integers(0, 59),
    st.integers(0, 40),
    st.sampled_from((None,) + engine.MUTATIONS),
    st.one_of(operators, guarded_operators),
    st.one_of(operators, guarded_operators),
    st.integers(0, 40),
)
def test_change_point_evaluation_matches_every_stage(seed, horizon, mutation, w0, w1, cut):
    fsuite, _ = make_suites(random_config(seed, horizon))
    trace = engine.run(fsuite, horizon, mutation=mutation)
    rep = replay(trace)
    for w in (w0, w1):
        for side, flips in enumerate(enumeration(rep, w, horizon)):
            sets = [
                evaluate(w, CofiniteOnes.of(rep.entering[s][side]), s) for s in range(horizon + 1)
            ]
            rebuilt = [
                {x for x, at in flips.items() if bisect_right(at, s) % 2} for s in range(horizon + 1)
            ]
            assert rebuilt == sets
            for x in set().union(*sets):
                for start in range(horizon + 1):
                    for enumerated in (0, 1):
                        found = (
                            u for u in range(start, horizon + 1) if (x in sets[u]) == enumerated
                        )
                        assert _next(flips.get(x, []), start, enumerated) == next(found, None)
    osuite = OperatorSuite([w0, w1])
    for h in (horizon, min(cut, horizon)):
        check = check_preservation(trace, osuite, 0, 1, h).find("preservation")
        assert (check.verdict, dict(check.detail)) == per_stage_preservation(trace, w0, w1, h)
        assert synthesize_joint(trace, osuite, 0, 1, h) == per_stage_joint(trace, w0, w1, h)


@settings(max_examples=100, deadline=None)
@given(
    st.integers(0, 59),
    st.integers(0, 40),
    st.sampled_from((None,) + engine.MUTATIONS),
    st.one_of(operators, guarded_operators),
    st.one_of(operators, guarded_operators),
    st.integers(0, 40),
)
def test_one_replay_serves_every_suite_pair_and_horizon(seed, horizon, mutation, w0, w1, cut):
    """A replay keeps what the operator checks derive from it, keyed by
    suite, entry and horizon: checks that share one replay across two
    suites, their pairs and two horizons each match the definition."""
    fsuite, _ = make_suites(random_config(seed, horizon))
    trace = engine.run(fsuite, horizon, mutation=mutation)
    rep = replay(trace)
    for osuite in (OperatorSuite([w0, w1]), OperatorSuite([w1, w0])):
        for h in (horizon, min(cut, horizon)):
            for e0, e1 in ((0, 1), (1, 0), (0, 0)):
                ops = osuite.get(e0), osuite.get(e1)
                check = check_preservation(trace, osuite, e0, e1, h, rep).find("preservation")
                assert (check.verdict, dict(check.detail)) == per_stage_preservation(trace, *ops, h)
                table = synthesize_joint(trace, osuite, e0, e1, h, rep)
                assert table == per_stage_joint(trace, *ops, h)


# operators whose premises name points 1..12 with bits 0, 1 and 2, so that
# some axioms never fire (a bit other than 1) and members block the others
bit_operators = st.lists(
    st.tuples(
        st.integers(0, 40),
        st.builds(
            Axiom.of,
            st.frozensets(st.builds(pair, st.integers(1, 12), st.integers(0, 2)), max_size=3),
            st.integers(0, 5),
        ),
    ),
    max_size=8,
).map(EnumOperator.from_staged)
# forged events on points 1..12: a witness is often a member already, and
# when the flag is set the event also removes its own witness
point_events = st.tuples(
    st.integers(0, 40),
    st.builds(Action, st.integers(0, 3), st.integers(0, 1), st.integers(1, 12), st.integers(0, 40)),
    st.lists(st.tuples(st.integers(1, 12), st.integers(0, 1)), max_size=2),
    st.booleans(),
)


@settings(max_examples=200, deadline=None)
@given(
    st.integers(0, 59),
    st.integers(0, 40),
    st.lists(point_events, max_size=10),
    bit_operators,
)
def test_enumeration_counts_blocked_premises(seed, horizon, forgeries, w):
    """Each side's flips are the stages at which an output enters or leaves
    evaluate's set on that side, stage 0 for the outputs of its set at stage
    0, each list strictly ascending and non-empty, on engine traces and on
    forged events that insert a member again or insert and remove a witness
    at once."""
    raw = random_config(seed, horizon)
    trace = engine.run(make_suites(raw)[0], horizon, raw["snapshot_every"])
    events = []
    for stage, act, gone, own in forgeries:
        gone = [*gone, (act.witness, act.side)] if own else gone
        events.append((stage, act, [Removal(n, k, 0, 0, 0) for n, k in gone]))
    rep = replay(with_forgeries(trace, events))
    expected = (defaultdict(list), defaultdict(list))
    for side in (0, 1):
        sets = [evaluate(w, CofiniteOnes.of(rep.entering[s][side]), s) for s in range(horizon + 1)]
        for s, (before, now) in enumerate(zip([frozenset(), *sets], sets)):
            for x in before ^ now:
                expected[side][x].append(s)
    sides = enumeration(rep, w, horizon)
    assert sides == expected
    assert all(at and all(u < v for u, v in zip(at, at[1:])) for f in sides for at in f.values())


def test_enumeration_counts_an_entry_once():
    """A member inserted again does not enter again, and a witness inserted
    and removed by one event does not enter: side 0 gets 3 at stages 1 and
    2, side 1's action at stage 3 removes it, and at stage 5 one event
    inserts and removes it."""
    op = EnumOperator.from_staged([(0, Axiom.of([pair(3, 1)], 7))])
    kept = [
        TraceEvent(1, Action(0, 0, 3, 1), ()),
        TraceEvent(2, Action(0, 0, 3, 2), ()),
        TraceEvent(3, Action(0, 1, 5, 3), (Removal(3, 0, 0, 0, 2),)),
        TraceEvent(5, Action(0, 0, 3, 5), (Removal(3, 0, 0, 0, 5),)),
    ]
    rep = replay(Trace(kept, TraceSummary.of(7, (), (5,), {0: 5, 1: 3})))
    assert enumeration(rep, op, 7) == ({7: [0, 2, 4]}, {7: [0]})


def test_enumeration_work_follows_premises_and_membership_changes(monkeypatch):
    """Work budget: on the two machine operators of `config_gen` at
    H = 20 000, each operator's enumeration, which gives both sides,
    decodes premise codes (`unpair` as `joint` and `graphs` call it) at most
    as often as the sum of premise sizes plus the sum, over both sides'
    membership changes, of the axioms with bits all 1 that name the point,
    and evaluates once.  The count raises as soon as it passes the bound, so
    a scan of every visible axiom at every change point, or a decode per
    side, fails within seconds."""
    from minpair import graphs

    horizon = 20000
    fsuite, osuite = make_suites(machine_ops_config(horizon))
    rep = replay(engine.run(fsuite, horizon))
    flips = Counter()  # (side, point) -> how often its membership changed
    before = (set(), set())
    for _, members, _ in rep.states(sorted({ev.stage + 1 for ev in rep.events})):
        now = tuple(set(side) for side in members)
        flips.update((k, n) for k in (0, 1) for n in now[k] ^ before[k])
        before = now
    decodes, evaluations, real = [0], [], analysis.evaluate

    def counting(code):
        decodes[0] += 1
        assert decodes[0] <= bound, f"more than {bound} premise decodes"
        return unpair(code)

    monkeypatch.setattr(joint, "unpair", counting)
    monkeypatch.setattr(graphs, "unpair", counting)
    monkeypatch.setattr(analysis, "evaluate", lambda *args: evaluations.append(1) or real(*args))
    for w in (osuite.get(0), osuite.get(1)):
        visible = [axiom.premise for stage, axiom in w.staged_axioms if stage <= horizon]
        decoded = [[unpair(code) for code in premise] for premise in visible]
        kept = [points for points in decoded if all(v == 1 for _, v in points)]
        naming = Counter(n for points in kept for n, _ in points)
        bound = sum(map(len, visible)) + sum(count * naming[n] for (_, n), count in flips.items())
        decodes[0], evaluations[:] = 0, []
        sides = enumeration(rep, w, horizon)
        assert len(evaluations) == 1
        assert all(max(at[0] for at in side.values()) > 0 for side in sides)


def test_enumeration_memory_follows_the_flips():
    """Memory budget: with `config_gen.axioms_config` at H = 20 000 (2
    operators of 2000 axioms) compiled and replayed first, check_preservation
    of (0, 1) retains under 0.5 MiB under tracemalloc, both enumerations
    included; a whole enumerated set at every change point retained 1.9 MiB."""
    import tracemalloc

    horizon = 20000
    fsuite, osuite = make_suites(axioms_config(horizon, operators=2, axioms=2000))
    trace = engine.run(fsuite, horizon)
    rep = replay(trace)
    assert osuite.get(0) != osuite.get(1)  # both compiled before tracing starts
    tracemalloc.start()
    try:
        check = check_preservation(trace, osuite, 0, 1, horizon, rep).find("preservation")
        retained = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert retained < 2**19
    assert (check.verdict, dict(check.detail)) == ("pass", {"outputs": 18})


def test_preservation_window_opens_after_strongest_later_action():
    # both operators enumerate 7 while 3 stays out of side 0 and 5 out of side 1
    osuite = OperatorSuite(
        [
            EnumOperator.from_staged([(0, Axiom.of([pair(3, 1)], 7))]),
            EnumOperator.from_staged([(0, Axiom.of([pair(5, 1)], 7))]),
        ]
    )
    early = empty_events(range(8))
    early[0] = TraceEvent(0, Action(0, 0, 1, 0), ())  # strongest, at the found stage
    early[2] = TraceEvent(2, Action(0, 1, 9, 2), ())
    early[5] = TraceEvent(5, Action(1, 0, 3, 5), ())
    early[6] = TraceEvent(6, Action(1, 1, 5, 6), ())
    check = check_preservation(forged(early), osuite, 0, 1, 8).find("preservation")
    assert check.verdict == "fail"
    assert dict(check.detail) == {"output": 7, "found_at": 0, "violated_at": 7, "window_start": 1}
    late = empty_events(range(8))
    late[2] = TraceEvent(2, Action(1, 0, 3, 2), ())
    late[3] = TraceEvent(3, Action(1, 1, 5, 3), ())
    late[5] = TraceEvent(5, Action(0, 1, 9, 5), ())
    late[7] = TraceEvent(7, Action(0, 0, 1, 7), ())  # strongest, last
    check = check_preservation(forged(late), osuite, 0, 1, 8).find("preservation")
    assert dict(check.detail) == {"output": 7, "found_at": 0, "violated_at": 8, "window_start": 8}
    # cut at stage 7 the window opens past the horizon, so nothing can violate it
    check = check_preservation(forged(late), osuite, 0, 1, 7).find("preservation")
    assert (check.verdict, dict(check.detail)) == ("pass", {"outputs": 1})


def test_preservation_memory_and_evaluations_follow_the_events(monkeypatch):
    """Work budget: on 4000 alternating class-0 actions (`forged_trace`),
    check_preservation with `configs/injury.json`'s operators peaks under
    4 MiB under tracemalloc, where a copy of a side at every change point
    peaked at 167.6 MiB, and evaluates an operator at most 4003 times: at
    stage 0, where its side's membership changes and at its axiom's stage."""
    import tracemalloc

    with open("configs/injury.json", encoding="utf-8") as fh:
        _, osuite = make_suites(json.load(fh))
    trace = forged_trace("alternating", 4000)
    calls, real = [], analysis.evaluate
    monkeypatch.setattr(analysis, "evaluate", lambda *args: calls.append(1) or real(*args))
    tracemalloc.start()
    try:
        check = check_preservation(trace, osuite, 0, 1, 4001).find("preservation")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2**20
    assert len(calls) <= 4003
    assert (check.verdict, dict(check.detail)) == ("pass", {"outputs": 1})


def test_preservation_evaluates_only_at_change_points(tmp_path, monkeypatch):
    with open("configs/parity_demo.json", encoding="utf-8") as fh:
        raw = dict(json.load(fh), horizon=800)
    raw["checks"]["preservation"] = [{"e0": 0, "e1": 1}]
    fsuite, osuite = make_suites(raw)
    trace = engine.run(fsuite, 800)
    w0, w1 = osuite.get(0), osuite.get(1)
    assert w0 != w1
    calls = {0: 0, 1: 0}
    real = analysis.evaluate

    def counting(op, graph, stage):
        calls[0 if op == w0 else 1] += 1
        return real(op, graph, stage)

    monkeypatch.setattr(analysis, "evaluate", counting)
    rep = replay(trace)
    bounds = {}
    for side, w in ((0, w0), (1, w1)):
        changes = {s for s in range(1, 801) if rep.entering[s][side] != rep.entering[s - 1][side]}
        changes |= {stage for stage, _ in w.staged_axioms if 0 < stage <= 800}
        bounds[side] = len(changes) + 1

    check = check_preservation(trace, osuite, 0, 1, 800).find("preservation")
    assert check.verdict == "pass"
    assert all(1 <= calls[side] <= bounds[side] for side in (0, 1))

    # one verify enumerates each operator once, both sides at once, for
    # preservation and end_to_end alike, and each enumeration evaluates once,
    # at stage 0
    calls.update({0: 0, 1: 0})
    enumerations, real_enumeration = Counter(), joint.enumeration

    def enumerating(rep, op, horizon):
        enumerations[0 if op == w0 else 1] += 1
        return real_enumeration(rep, op, horizon)

    monkeypatch.setattr(joint, "enumeration", enumerating)
    config = tmp_path / "parity.json"
    config.write_text(json.dumps(raw), encoding="utf-8")
    write_trace(trace, tmp_path / "parity.trace")
    argv = ["verify", "--trace", str(tmp_path / "parity.trace"), "--config", str(config)]
    argv += ["--checks", "preservation,end_to_end", "--report", str(tmp_path / "r.json")]
    assert main(argv) == 0
    assert enumerations == {0: 1, 1: 1} and calls == {0: 1, 1: 1}


def test_no_operator_check_hashes_an_operator(tmp_path, monkeypatch, capsys):
    """The enumerations are kept by suite entry, never by operator contents:
    with EnumOperator's hash raising, verify of preservation and end_to_end
    and psi on `configs/parity_demo.json` exit 0 with the usual output."""
    with open("configs/parity_demo.json", encoding="utf-8") as fh:
        raw = json.load(fh)
    raw["checks"]["preservation"] = [{"e0": 0, "e1": 1}]
    config, trace = tmp_path / "parity.json", tmp_path / "parity.trace"
    config.write_text(json.dumps(raw), encoding="utf-8")
    assert main(["run", "--config", str(config), "--out", str(trace)]) == 0
    verify = ["verify", "--trace", str(trace), "--config", str(config)]
    verify += ["--checks", "preservation,end_to_end", "--report"]
    psi = ["psi", "--trace", str(trace), "--config", str(config), "--e0", "0", "--e1", "1"]
    psi += ["--bound", "100"]
    outputs = []
    for name in ("usual", "unhashed"):
        if name == "unhashed":
            monkeypatch.setattr(EnumOperator, "__hash__", lambda op: pytest.fail("hashed"))
        capsys.readouterr()
        report = tmp_path / f"{name}.json"
        assert main([*verify, str(report)]) == 0 and main(psi) == 0
        outputs.append((report.read_text(encoding="utf-8"), capsys.readouterr().out))
    assert outputs[0] == outputs[1] and outputs[0][1].count("\n") == 95


# -- joint table ---------------------------------------------------------------


def test_joint_unconditional_entry():
    fsuite, osuite = ops_suite(
        [axioms((0, [], [5, 1])), axioms((0, [], [5, 1]))], horizon=6
    )
    trace = engine.run(fsuite, 6)
    assert synthesize_joint(trace, osuite, 0, 1, 6) == {5: (1, 0)}


def test_joint_waits_for_both_sides():
    # side 0 offers (5,0) from stage 3; side 1 offers (5,1) at 3 and (5,0)
    # only at stage 10, so the joint entry lands at stage 10 with bit 0
    fsuite, osuite = ops_suite(
        [axioms((3, [], [5, 0])), axioms((3, [], [5, 1]), (10, [], [5, 0]))],
        horizon=12,
    )
    trace = engine.run(fsuite, 12)
    assert synthesize_joint(trace, osuite, 0, 1, 12) == {5: (0, 10)}


def test_joint_stage_can_be_a_later_entry():
    # side 0 enumerates 7 while 3 is no member of it: 3 enters at stage 1
    # and is removed at stage 5, so 7 leaves at 2 and enters again at 6;
    # side 1 enumerates 7 from stage 4, so both do first at 6, not at 0 or 4
    osuite = OperatorSuite(
        [
            EnumOperator.from_staged([(0, Axiom.of([pair(3, 1)], 7))]),
            EnumOperator.from_staged([(4, Axiom.of([], 7))]),
        ]
    )
    kept = [
        TraceEvent(1, Action(0, 0, 3, 1), ()),
        TraceEvent(5, Action(0, 1, 5, 5), (Removal(3, 0, 0, 1, 1),)),
    ]
    trace = Trace(kept, TraceSummary.of(8, (), (5,), {0: 1, 1: 5}))
    assert enumeration(replay(trace), osuite.get(0), 8) == ({7: [0, 2, 6]}, {7: [0]})
    assert synthesize_joint(trace, osuite, 0, 1, 8) == {2: (1, 6)}  # 7 = pair(2, 1)
    check = check_preservation(trace, osuite, 0, 1, 8).find("preservation")
    assert (check.verdict, dict(check.detail)) == ("pass", {"outputs": 1})


def test_joint_tie_breaks_to_least_bit():
    fsuite, osuite = ops_suite(
        [
            axioms((2, [], [5, 0]), (2, [], [5, 1])),
            axioms((2, [], [5, 0]), (2, [], [5, 1])),
        ],
        horizon=6,
    )
    trace = engine.run(fsuite, 6)
    assert synthesize_joint(trace, osuite, 0, 1, 6) == {5: (0, 2)}


def test_joint_ignores_unsatisfied_premises():
    fsuite, osuite = ops_suite(
        [axioms((13, [[2, 0]], [5, 1])), axioms((0, [], [5, 1]))], horizon=16
    )
    # the premise wants value 0 at 2, but side graphs only ever carry ones
    trace = engine.run(fsuite, 16)
    assert synthesize_joint(trace, osuite, 0, 1, 16) == {}


def test_joint_ignores_outputs_decoding_to_large_bits():
    fsuite, osuite = ops_suite(
        [axioms((0, [], [5, 2])), axioms((0, [], [5, 2]))], horizon=4
    )
    trace = engine.run(fsuite, 4)
    assert synthesize_joint(trace, osuite, 0, 1, 4) == {}


# -- diagonal set ---------------------------------------------------------------


def test_diagonal_constant_zero_candidate(scenario_suite, scenario_trace):
    diag = derive_diagonal(scenario_trace, scenario_suite, 0, 5, 8)
    assert diag.bits == (1,) * 8  # flipping 0 at the captured witness gives 1
    assert (1, 0, 1) in diag.disagreements
    # every odd point converged by the horizon realizes the disagreement
    assert [n for n, _, _ in diag.disagreements] == [1, 3]


def test_diagonal_constant_one_candidate():
    fsuite = const_suite(value=1)
    trace = engine.run(fsuite, 5)
    diag = derive_diagonal(trace, fsuite, 0, 5, 8)
    assert diag.bits[1] == 0  # captured witness flips the constant-one candidate
    assert diag.bits[0] == 1 and diag.bits[2] == 1
    assert (1, 1, 0) in diag.disagreements


def test_diagonal_empty_suite_is_all_ones():
    fsuite, _ = make_suites(
        {"horizon": 5, "suite": {"functionals": [], "operators": []}}
    )
    trace = engine.run(fsuite, 5)
    diag = derive_diagonal(trace, fsuite, 0, 5, 10)
    assert diag.bits == (1,) * 10
    assert diag.disagreements == ()


def test_diagonal_agrees_with_description(scenario_suite, scenario_trace):
    rep = replay(scenario_trace)
    for side in (0, 1):
        diag = derive_diagonal(scenario_trace, scenario_suite, side, 5, 16)
        graph = CofiniteOnes.of(rep.entering[5][side])
        report = check_description(graph, diag.bits, 16)
        assert report.error_points == ()
        members = len([n for n in rep.entering[5][side] if n < 16])
        assert report.domain_partial_density == Fraction(16 - members, 16)


# -- end-to-end check ------------------------------------------------------------


def test_end_to_end_parity():
    rows0 = [(3, [[0, 1]], [n, n % 2]) for n in range(40) if n % 8 != 0]
    rows1 = [(8, [[2, 1]], [n, n % 2]) for n in range(40) if n % 8 != 0]
    fsuite, osuite = ops_suite([axioms(*rows0), axioms(*rows1)], horizon=10)
    trace = engine.run(fsuite, 10)
    target = [n % 2 for n in range(40)]
    report = check_end_to_end(trace, osuite, 0, 1, 10, 40, target, Fraction(8, 10))
    assert report.passed
    assert dict(report.find("domain_density").detail)["density"] == "7/8"


def test_end_to_end_flags_wrong_bit():
    # 7 is found wrong at stage 0 and 5 at stage 2: the least point is reported
    rows = [(0, [], [7, 0]), (2, [], [5, 0])]
    fsuite, osuite = ops_suite([axioms(*rows), axioms(*rows)], horizon=4)
    trace = engine.run(fsuite, 4)
    assert list(synthesize_joint(trace, osuite, 0, 1, 4)) == [7, 5]
    target = [1] * 10
    report = check_end_to_end(trace, osuite, 0, 1, 4, 10, target, Fraction(0))
    assert report.find("values_match").verdict == "fail"
    assert dict(report.find("values_match").detail) == {"n": 5, "got": 0, "want": 1}


def test_end_to_end_one_sided_wrong_pair_never_joins():
    # one side emits the wrong bit for 5; the intersection stays empty there
    fsuite, osuite = ops_suite(
        [axioms((0, [], [5, 0])), axioms((0, [], [5, 1]))], horizon=4
    )
    trace = engine.run(fsuite, 4)
    report = check_end_to_end(trace, osuite, 0, 1, 4, 10, [1] * 10, Fraction(0))
    assert report.find("values_match").verdict == "pass"
    assert dict(report.find("values_match").detail)["defined"] == 0


def test_joint_entries_survive_on_some_side_when_preservation_holds():
    fsuite, osuite = injury_case()
    trace = engine.run(fsuite, 50)
    assert check_preservation(trace, osuite, 0, 1, 50).passed
    table = synthesize_joint(trace, osuite, 0, 1, 50)
    final = replay(trace).entering[50]
    for n, (k, _) in table.items():
        code = pair(n, k)
        held = [
            e
            for e, side in ((0, 0), (1, 1))
            if code in evaluate(osuite.get(e), CofiniteOnes.of(final[side]), 50)
        ]
        assert held


def test_capture_witness_realizes_a_disagreement(scenario_suite, scenario_trace):
    check = check_capture(scenario_trace, scenario_suite, 0, 0, 5).find("capture")
    assert check.verdict == "pass"
    witness = dict(check.detail)["witness"]
    candidate = scenario_suite.query(0, witness, 5)
    assert candidate is not None
    diag = derive_diagonal(scenario_trace, scenario_suite, 0, 5, witness + 1)
    assert candidate != diag.bits[witness]


# -- reference oracle ------------------------------------------------------------


def test_reference_run_horizon_zero(scenario_suite):
    trace = reference_run(scenario_suite, 0)
    assert trace.kept == [] and trace.events == ()
    assert trace.summary.side0 == ()


def test_reference_matches_engine_on_injury_scenario():
    fsuite, _ = injury_case()
    assert trace_lines(reference_run(fsuite, 50)) == trace_lines(engine.run(fsuite, 50))


def test_reference_matches_engine_with_snapshots(scenario_suite):
    a = engine.run(scenario_suite, 5, snapshot_every=2)
    b = reference_run(scenario_suite, 5, snapshot_every=2)
    assert trace_lines(a) == trace_lines(b)


@pytest.mark.parametrize("seed", range(5))
def test_reference_matches_engine_at_horizon_800(seed):
    raw = random_config(seed, 800)
    fsuite, _ = make_suites(raw)
    fast = engine.run(fsuite, 800, raw["snapshot_every"])
    naive = reference_run(fsuite, 800, raw["snapshot_every"])
    assert trace_lines(fast) == trace_lines(naive)
