"""Replay of construction traces, the structural checks and capture.

Everything here is read-only over a trace: replay reconstructs the
memberships and restraints entering each stage, kept at the stages where
they change, the structural checks verify the invariants the construction
promises (class bounds, single entry, witness and removal discipline, the
opposite-side preservation lemma, quiescent finite action), and the
capture check confirms its behavioural guarantee at a finite horizon.
Capture finds its actionable stage with the oracle's scan
(`suites.least_settle`), and capture and witness discipline read a side's
converged class members through one helper, `_converged`.

`STRUCTURAL` names the structural checks in report order.  They run in one
pass over the run's actions, each keeping its first counterexample, and a
check fails exactly when it has one, with that counterexample as detail.
A check's report carries no `meta`; `verify` adds its own.

The reference oracle (`reference_run`) lives in `oracle` and the operator
layer (enumerations, preservation, the joint table, the diagonal set and
the end-to-end check) in `joint`.  All but the enumerations, and
`operators.evaluate`, are attributes of this module too, resolved on first
use (`_LAZY`): a command loads the oracle or the operator layer only when
one of its checks needs it, and callers keep one namespace in which a
tracer or a test can replace a function for every caller, `joint`'s own
calls included.

Indexing convention, shared with the engine: memberships entering stage s
reflect all actions of stages < s; entering[horizon] is the final state.
"""

from __future__ import annotations

from bisect import bisect_right
from collections import Counter
from typing import Mapping, NamedTuple

from .arith import class_index, class_members, position
from .records import Action, Trace, TraceFormatError
from .suites import FunctionalSuite, least_settle

# The home module of each name resolved on first use.
_LAZY = {
    "reference_run": "oracle",
    **dict.fromkeys(
        ("check_preservation", "synthesize_joint", "derive_diagonal", "check_end_to_end"), "joint"
    ),
    "evaluate": "operators",
}


def __getattr__(name: str):
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    # `from .<home> import <name>`, as a call; unlike importlib.import_module,
    # it shows in -X importtime
    value = getattr(__import__(_LAZY[name], globals(), fromlist=[name], level=1), name)
    globals()[name] = value  # later lookups, and replacements, see a plain attribute
    return value


# ---------------------------------------------------------------------------
# replay


class Stepwise:
    """A value for each stage 0..horizon, kept only where it may change:
    values[i] holds from stages[i] (stages[0] is 0) up to stages[i + 1].
    Indexing a stage finds its value by bisection and passes it through
    `read`, which gives each caller a fresh copy of a mutable value.  It
    has no length and no iteration: walk it with `runs`."""

    def __init__(self, stages: list[int], values: list, horizon: int, read=None) -> None:
        self.stages = stages
        self.values = values
        self.horizon = horizon
        self.read = read

    def __getitem__(self, s: int):
        if not 0 <= s <= self.horizon:
            raise IndexError(f"stage {s} outside 0..{self.horizon}")
        value = self.values[bisect_right(self.stages, s) - 1]
        return value if self.read is None else self.read(value)

    def runs(self, start: int, stop: int):
        """(first stage, value) for each value in force at a stage in
        [start, stop), in stage order; the first stage is at least start."""
        i = bisect_right(self.stages, start) - 1
        for first, value in zip(self.stages[i:], self.values[i:]):
            if first >= stop:
                break
            yield max(first, start), value


class ReplayedRun(NamedTuple):
    horizon: int
    entering: Stepwise  # stage -> (side 0, side 1) members, as frozensets
    restraints_entering: Stepwise  # stage -> {position: restraint}
    actions: list[tuple[int, Action]]  # (stage, action), in stage order
    derived: dict  # what the checks derive from this run, each computed once (see `joint`)

    def final(self) -> tuple[frozenset[int], frozenset[int]]:
        return self.entering[self.horizon]


def replay(trace: Trace) -> ReplayedRun:
    """Reconstruct the state entering each stage from the events alone.

    Permissive on content (forged traces replay too; the checkers judge
    them) but strict on shape: the kept events must come in increasing
    stage order, below the horizon.  Memberships and restraints change only
    at events with an action or removals, so the state is kept only after
    those.
    """
    horizon = trace.summary.horizon
    cur: tuple[set[int], set[int]] = (set(), set())
    stages = [0]
    members = [(frozenset(), frozenset())]
    restraint_tables: list[dict[int, int]] = [{}]
    restraints: dict[int, int] = {}
    actions = []
    last = -1  # the stage of the event before
    for ev in trace.kept:
        if not last < ev.stage < horizon:
            raise TraceFormatError(f"event at stage {ev.stage} out of order for horizon {horizon}")
        last = s = ev.stage
        if ev.action is None and not ev.removals:
            continue
        act = ev.action
        if act is not None:
            if act.side not in (0, 1) or act.witness < 0 or act.e < 0:
                raise TraceFormatError(f"event {s}: malformed action fields")
            actions.append((s, act))
            cur[act.side].add(act.witness)
            restraints[act.position] = act.restraint
        for rm in ev.removals:
            if rm.side in (0, 1):
                cur[rm.side].discard(rm.n)
        stages.append(s + 1)
        members.append((frozenset(cur[0]), frozenset(cur[1])))
        restraint_tables.append(dict(restraints))
    return ReplayedRun(
        horizon,
        Stepwise(stages, members, horizon),
        Stepwise(stages, restraint_tables, horizon, dict),
        actions,
        {},
    )


def replay_to(trace: Trace, horizon: int, rep: ReplayedRun | None = None) -> ReplayedRun:
    """rep, or else the replay of the trace, which must reach the horizon."""
    rep = replay(trace) if rep is None else rep
    if horizon > rep.horizon:
        raise ValueError(f"trace reaches {rep.horizon}, asked for {horizon}")
    return rep


# ---------------------------------------------------------------------------
# verification reports


class CheckResult(NamedTuple):
    name: str
    verdict: str  # "pass" | "fail" | "inconclusive"
    detail: tuple[tuple[str, object], ...] = ()

    @classmethod
    def of(cls, name: str, verdict: str, **detail) -> "CheckResult":
        return cls(name, verdict, tuple(sorted(detail.items())))


class VerificationReport(NamedTuple):
    checks: tuple[CheckResult, ...]
    meta: tuple[tuple[str, object], ...] = ()

    @property
    def passed(self) -> bool:
        return all(c.verdict != "fail" for c in self.checks)

    def find(self, name: str) -> CheckResult:
        for c in self.checks:
            if c.name == name:
                return c
        raise KeyError(name)


def _report(checks: list[CheckResult]) -> VerificationReport:
    return VerificationReport(tuple(sorted(checks, key=lambda c: c.name)))


# ---------------------------------------------------------------------------
# structural checks

# The structural checks, in report order.  Each fails with its first
# counterexample: the earliest in the order that its check walks the run.
STRUCTURAL = (
    "class_bound",
    "dce_single_entry",
    "event_shape",
    "finite_action",
    "key_lemma",
    "removal_discipline",
    "replay_summary",
    "restraint_discipline",
    "witness_discipline",
)


def _stronger_restraint_bound(restraints: Mapping[int, int], p: int) -> int:
    return max((v for q, v in restraints.items() if q < p), default=0)


def _witness_fault(
    rep: ReplayedRun, suite: FunctionalSuite | None, s: int, act: Action
) -> str | None:
    """Why the witness of the action at stage s breaks witness discipline, or None."""
    if act.position >= s:
        return "pair position not below stage"
    if class_index(act.witness) != act.e:
        return "witness outside its class"
    if act.witness in rep.entering[s][act.side]:
        return "witness already a member"
    if act.witness <= _stronger_restraint_bound(rep.restraints_entering[s], act.position):
        return "witness under a stronger restraint"
    if suite is None:
        return None
    if suite.query(act.e, act.witness, s) is None:
        return "witness not converged"
    if _converged(suite, rep.entering[s][act.side], act.e, s):
        return "class already satisfied"
    return None


def _converged(suite: FunctionalSuite, members, e: int, s: int) -> list[int]:
    """The class-e points among a side's members that converge by stage s, ascending."""
    return sorted(m for m in members if class_index(m) == e and suite.query(e, m, s) is not None)


def _removal_fault(
    removals: tuple, s: int, act: Action, opposite: frozenset[int], inserted: dict
) -> dict | None:
    """What breaks removal discipline at the action of stage s, with these
    removals, or None: each removal must hit a current opposite-side member
    inserted earlier by a strictly weaker pair, and no victim may be missed.
    opposite holds the opposite side's members entering stage s, and
    inserted maps each to the (e, side, stage) of the action that last
    inserted it."""
    gone = set()  # the members that this event's earlier removals took
    for rm in removals:
        if rm.side != 1 - act.side:
            reason = "wrong side"
        elif rm.by_position <= act.position:
            reason = "removed a stronger insertion"
        elif rm.inserted_at >= s:
            reason = "inserted_at not earlier"
        elif rm.n not in opposite or rm.n in gone:
            reason = "not a current member"
        elif inserted[rm.n] != (rm.by_e, rm.by_side, rm.inserted_at):
            reason = "provenance mismatch"
        else:
            gone.add(rm.n)
            continue
        return {"n": rm.n, "reason": reason}
    recorded = [rm.n for rm in removals]
    if recorded != sorted(recorded):
        return {"reason": "removals not in canonical order"}
    if recorded != sorted(n for n in opposite if position(*inserted[n][:2]) > act.position):
        return {"reason": "removals disagree with weaker opposite-side members"}
    return None


def check_structural(
    trace: Trace, suite: FunctionalSuite | None = None, rep: ReplayedRun | None = None
) -> VerificationReport:
    """Verify every structural invariant of a run against its full trace.

    With a suite, witness discipline additionally confirms each witness was
    converged and its class held no converged member at the action stage.
    Pass rep, the replay of the trace, to share one replay between checks.
    """
    rep = replay(trace) if rep is None else rep
    T = rep.horizon
    bad: dict[str, dict] = {}  # check name -> its first counterexample

    # event shape: removals only ride on actions; snapshots match replay
    for ev in trace.kept:
        if ev.action is None and ev.removals:
            bad.setdefault("event_shape", {"stage": ev.stage, "reason": "removals without action"})
        elif ev.snapshot is not None and ev.snapshot != tuple(
            tuple(sorted(side)) for side in rep.entering[ev.stage + 1]
        ):
            bad.setdefault(
                "event_shape", {"stage": ev.stage, "reason": "snapshot disagrees with replay"}
            )

    # the summary must equal the replayed final state
    summary = trace.summary
    final0, final1 = (tuple(sorted(side)) for side in rep.final())
    restraints = tuple(sorted(rep.restraints_entering[T].items()))
    if (summary.side0, summary.side1, summary.restraints) != (final0, final1, restraints):
        bad["replay_summary"] = {}

    # per-class bound: at most one member of each valuation class per side
    for s, sides in rep.entering.runs(0, T + 1):
        for side, members in enumerate(sides):
            classes = set()
            for n in members:
                e = class_index(n)
                if e is None or e in classes:
                    bad.setdefault("class_bound", {"stage": s, "side": side, "class": e})
                classes.add(e)

    # single entry: an element enters a given side at most once, so each
    # membership changes at most twice over the run
    entries = Counter((act.side, act.witness) for _, act in rep.actions)
    for side, n in sorted(key for key, count in entries.items() if count > 1):
        bad.setdefault("dce_single_entry", {"side": side, "n": n})

    removals = {ev.stage: ev.removals for ev in trace.kept}
    stages_at: dict[int, list[int]] = {}  # pair position -> its action stages so far
    inserted: tuple[dict, dict] = ({}, {})  # side -> n -> (e, side, stage) of its last insertion
    for s, act in rep.actions:
        p, other = act.position, 1 - act.side
        reason = _witness_fault(rep, suite, s, act)
        if reason:
            bad.setdefault("witness_discipline", {"stage": s, "reason": reason})
        # restraint discipline: set to exactly the acting stage, only by actions
        if act.restraint != s:
            bad.setdefault("restraint_discipline", {"stage": s, "recorded": act.restraint})
        fault = _removal_fault(removals[s], s, act, rep.entering[s][other], inserted[other])
        if fault:
            bad.setdefault("removal_discipline", {"stage": s, **fault})
        inserted[act.side][act.witness] = (act.e, act.side, s)
        # key lemma: after this action the opposite side is contained in its
        # state at every stage back to the last stronger action; equivalently
        # each of those stages' descriptions extends to the new one
        since = 1 + max((at[-1] for q, at in stages_at.items() if q < p), default=-1)
        post = rep.entering[s + 1][other]
        for u, sides in rep.entering.runs(since, s + 1):
            if not post <= sides[other]:
                bad.setdefault("key_lemma", {"stage": s, "since": u, "side": other})
                break
        stages_at.setdefault(p, []).append(s)

    # finite action: once every stronger pair has stopped, a pair acts at
    # most once more
    stronger_last = -1
    for p, stages in sorted(stages_at.items()):
        late = tuple(u for u in stages if u > stronger_last)
        if len(late) > 1:
            bad.setdefault("finite_action", {"position": p, "stages": late})
        stronger_last = max(stronger_last, stages[-1])

    return _report(
        [
            CheckResult.of(name, "fail" if name in bad else "pass", **bad.get(name, {}))
            for name in STRUCTURAL
        ]
    )


# ---------------------------------------------------------------------------
# capture check (a side eventually meets a candidate's domain in its class)


def check_capture(
    trace: Trace,
    suite: FunctionalSuite,
    e: int,
    side: int,
    horizon: int,
    rep: ReplayedRun | None = None,
) -> VerificationReport:
    """Finite form of the capture guarantee for requirement (e, side).

    If, at some stage s after every stronger pair has gone quiet for the
    rest of the run, the class holds a converged witness above every
    stronger restraint, then by the horizon the side must hold a converged
    class member.  The stage-s condition (rather than horizon-only
    visibility) is what the stage rule actually guarantees: a witness first
    converging at the final stage leaves no stage to act on it.  Without
    such a stage the verdict is inconclusive, not a failure.

    Once the stronger pairs are quiet their restraint bound is frozen, so
    the first such stage is the least settle stage of a class member above
    the bound (or the first quiet stage, if later).  `least_settle` finds it
    and stops there (rep.derived keeps it for the other side), so the check
    settles no class point at or above that stage, only the side's members.
    """
    rep = replay_to(trace, horizon, rep)
    p = position(e, side)
    last_stronger = max((u for u, act in rep.actions if act.position < p), default=-1)
    start = max(p, last_stronger) + 1
    least = None  # (stage, n) of least_settle above the frozen bound
    if start < horizon:
        bound = _stronger_restraint_bound(rep.restraints_entering[start], p)
        key = (suite, e, bound, horizon)  # (e, 0) and (e, 1) often share it
        if key not in rep.derived:
            rep.derived[key] = least_settle(suite, e, bound, horizon)
        least = rep.derived[key]
    if least is None:
        check = CheckResult.of("capture", "inconclusive", reason="no actionable stage in horizon")
        return _report([check])
    s = max(start, least[0])
    captured = _converged(suite, rep.entering[horizon][side], e, horizon)
    if captured:
        check = CheckResult.of("capture", "pass", witness=captured[0], actionable_stage=s)
    else:  # a point settled by stage s lies below s
        eligible = tuple(n for n in class_members(e, s, bound) if suite.settle(e, n, s))
        check = CheckResult.of("capture", "fail", actionable_stage=s, eligible=eligible)
    return _report([check])
