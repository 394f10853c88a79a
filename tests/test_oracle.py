"""The interval reference oracle against its quadratic specification and the engine."""

from __future__ import annotations

import json
from collections import Counter

import pytest
from hypothesis import example, given, settings, strategies as st

import naive_oracle
from config_gen import random_config
from conftest import make_suites
from minpair import engine
from minpair.analysis import reference_run
from minpair.cli import build_suites, load_config, main, read_trace, write_trace
from minpair.engine import Action, Removal, Snapshot

TOTAL = {"kind": "total_const", "value": 1}


def delayed(a: int, b: int) -> dict:
    return {"kind": "delayed", "inner": {"kind": "total_const", "value": 0}, "delay": {"a": a, "b": b}}


def case(functionals: list, horizon: int, snapshot_every: int = 7) -> dict:
    return {
        "horizon": horizon,
        "snapshot_every": snapshot_every,
        "suite": {"functionals": functionals, "operators": []},
    }


def table(*entries) -> dict:
    return {"kind": "table_partial", "entries": [list(entry) for entry in entries]}


@settings(max_examples=200, deadline=None)
@given(st.builds(random_config, st.integers(0, 59), st.integers(0, 200)))
# class 0 never settles, so its scan runs to the horizon
@example(case([{"kind": "empty"}, TOTAL, TOTAL], 200))
@example(case([{"kind": "undefined_on_class", "e": 0}, TOTAL, delayed(0, 20)], 200))
# (1, 0) rescans above (0, 0)'s restraint and finds nothing while (1, 1) is
# unheld, so (1, 1) takes (1, 0)'s None in place of its stale entry
@example(case([TOTAL, table([2, 0, 5]), TOTAL], 200))
# (1, 1) has scanned when (0, 1)'s action at stage 100 injures (1, 0), whose
# rescan above the new bound finds nothing: (1, 1) must not act at stage 150
@example(case([table([1, 0, 2], [3, 0, 100]), table([6, 0, 10], [14, 0, 150])], 200))
# the least settle stage lies far beyond the current stage, or beyond the horizon
@example(case([delayed(1, 150), TOTAL, delayed(0, 90), delayed(2, 500)], 200))
@example(case([TOTAL, TOTAL], 0))
@example(case([TOTAL, TOTAL], 1))
def test_interval_oracle_matches_naive_oracle_and_engine(raw):
    horizon, every = raw["horizon"], raw["snapshot_every"]
    interval = reference_run(make_suites(raw)[0], horizon, every)
    naive = naive_oracle.reference_run(make_suites(raw)[0], horizon, every)
    assert interval == naive
    assert engine.run(make_suites(raw)[0], horizon, every) == interval
    for mutation in engine.MUTATIONS:
        mutated = engine.run(make_suites(raw)[0], horizon, every, mutation=mutation)
        assert (mutated != interval) == (mutated != naive)


# Suites on which the engine's skipped scans must still find every actor,
# each with the action that a wrongly skipped scan would miss.
GUARD_CASES = {
    # (0, 0) acts at stage 9, so (1, 0)'s bound is 9.  Point 6, below it,
    # arrives at stage 300; point 10, exactly one above it, at stage 500.
    "arrival_at_bound_plus_one": (
        [table([1, 0, 9]), table([6, 0, 300], [10, 0, 500])],
        Action(1, 0, 10, 500),
    ),
    # Position 4 first comes in range at stage 5, when its witness 4 has
    # settled, after quiet stages whose scans never reached class 2.
    "position_first_in_range": (
        [delayed(0, 100), {"kind": "empty"}, TOTAL],
        Action(2, 0, 4, 5),
    ),
    # (0, 0)'s action at stage 501 removes 6, which (1, 1) took at stage 7,
    # so class 1 is free again on side 1; point 502 lands above the new bound.
    "injury_frees_an_old_class": (
        [delayed(0, 500), TOTAL],
        Action(1, 1, 502, 503),
    ),
}


@pytest.mark.parametrize("snapshot_every", [0, 37])
@pytest.mark.parametrize("name", sorted(GUARD_CASES))
def test_skipped_scans_match_both_oracles(name, snapshot_every):
    functionals, action = GUARD_CASES[name]
    raw = case(functionals, 800, snapshot_every)
    trace = engine.run(make_suites(raw)[0], 800, snapshot_every)
    assert trace.events[action.restraint].action == action
    interval = reference_run(make_suites(raw)[0], 800, snapshot_every)
    naive = naive_oracle.reference_run(make_suites(raw)[0], 800, snapshot_every)
    assert trace == interval == naive
    for mutation in engine.MUTATIONS:
        mutated = engine.run(make_suites(raw)[0], 800, snapshot_every, mutation=mutation)
        assert (mutated != interval) == (mutated != naive)


@pytest.mark.parametrize("seed", range(10))
def test_reference_matches_engine_at_horizon_3200(seed):
    raw = random_config(seed, 3200)
    fsuite, _ = make_suites(raw)
    assert reference_run(fsuite, 3200, raw["snapshot_every"]) == engine.run(
        fsuite, 3200, raw["snapshot_every"]
    )


@pytest.mark.parametrize(
    "never", [{"kind": "empty"}, {"kind": "machine", "program": [["decjz", 2, 0]]}]
)
def test_reference_settles_a_class_that_never_settles_once(never):
    """Work budget: when (0, 0)'s scan finds nothing, (0, 1) takes its None
    unscanned, so at horizon 3200 `reference_run` settles each of the 1599
    class-0 points below stage 3199 exactly once (3198 calls if (0, 1)
    scanned too)."""
    fsuite = make_suites(case([never, TOTAL], 3200))[0]
    settle, calls = fsuite.settle, []
    fsuite.settle = lambda e, n, limit: calls.append((e, n)) or settle(e, n, limit)
    trace = reference_run(fsuite, 3200)
    assert [ev.action.e for ev in trace.kept] == [1, 1]
    counts = Counter(n for e, n in calls if e == 0)
    assert len(counts) == 1599 and set(counts.values()) == {1}


@pytest.mark.parametrize("seed", [0, 4])
def test_reference_memory_follows_kept_events_not_stages(seed):
    """`reference_run` keeps no settle result, so at horizon 32000 its
    tracemalloc peak stays under 0.5 MiB on seeds 0 and 4; a memo of every
    settled point peaked at 0.94 and 1.99 MiB."""
    import tracemalloc

    raw = random_config(seed, 32000)
    fsuite = make_suites(raw)[0]
    tracemalloc.start()
    try:
        reference_run(fsuite, 32000, raw["snapshot_every"])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**19


def test_engine_snapshots_share_the_members_between_actions():
    """`engine.run` builds a Snapshot only when a stage acts, and every
    snapshot until the next action is that object, so at horizon 32000 with a
    snapshot at every stage the trace it keeps takes under 5 MiB on seed 4
    (a fresh Snapshot per stage took 10.0 MiB)."""
    import tracemalloc

    fsuite = make_suites(random_config(4, 32000))[0]
    tracemalloc.start()
    try:
        trace = engine.run(fsuite, 32000, 1)
        retained = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert len(trace.kept) == 32000 and retained < 5 * 2**20
    actions = sum(ev.action is not None for ev in trace.kept)
    assert len({id(ev.snapshot) for ev in trace.kept}) <= actions + 1


def verify_verdicts(tmp_path, trace_path, config_path) -> dict[str, str]:
    report_path = tmp_path / "report.json"
    main(["verify", "--trace", str(trace_path), "--config", str(config_path), "--report", str(report_path)])
    report = json.loads(report_path.read_text())
    return {c["name"]: c["verdict"] for c in report["checks"]}


def test_verify_oracle_passes_at_horizon_3200(tmp_path):
    config_path = tmp_path / "seed0.json"
    config_path.write_text(json.dumps(random_config(0, 3200)), encoding="utf-8")
    trace_path = tmp_path / "seed0.trace"
    assert main(["run", "--config", str(config_path), "--out", str(trace_path)]) == 0
    assert verify_verdicts(tmp_path, trace_path, config_path)["oracle_equivalence"] == "pass"


def kept_at(trace, stage: int) -> int:
    """The index in trace.kept of the event of `stage`."""
    return [ev.stage for ev in trace.kept].index(stage)


def forge_snapshot_member(trace):
    """Stage 10's snapshot holds 4 in place of 2."""
    i = kept_at(trace, 10)
    assert trace.kept[i].snapshot == Snapshot((2,), ())
    trace.kept[i] = trace.kept[i]._replace(snapshot=Snapshot((4,), ()))


def forge_inserted_at(trace):
    """The one removal, at stage 40, says its victim entered a stage early."""
    i = kept_at(trace, 40)
    assert trace.kept[i].removals == (Removal(6, 1, 1, 1, 35),)
    trace.kept[i] = trace.kept[i]._replace(removals=(Removal(6, 1, 1, 1, 34),))


@pytest.mark.parametrize(
    "forge, verdict", [(None, "pass"), (forge_snapshot_member, "fail"), (forge_inserted_at, "fail")]
)
def test_verify_oracle_compares_whole_records(tmp_path, forge, verdict):
    config = load_config("configs/injury.json")
    honest = engine.run(build_suites(config)[0], config.horizon, config.snapshot_every)
    path = tmp_path / "injury.trace"
    write_trace(honest, path)
    trace = read_trace(path)
    assert trace == honest
    if forge is not None:
        forge(trace)
        write_trace(trace, path)
    assert verify_verdicts(tmp_path, path, "configs/injury.json")["oracle_equivalence"] == verdict
