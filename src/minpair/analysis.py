"""Replay of construction traces, the structural checks and capture.

Everything here is read-only over a trace: replay keeps the events that
change a membership or a restraint, and one pass over them
(`ReplayedRun.states`) gives the state entering each stage of an ascending
list; the structural checks verify the invariants the construction
promises (class bounds, single entry, witness and removal discipline, the
opposite-side preservation lemma, quiescent finite action), and the
capture check confirms its behavioural guarantee at a finite horizon.
Capture finds its actionable stage with the oracle's scan
(`suites.least_settle`), and capture and witness discipline read a side's
converged class members through one helper, `_converged`.

`STRUCTURAL` names the structural checks in report order.  They run in one
walk over the kept events with one live state, the one `_apply` keeps, and
each keeps its first counterexample: a check fails exactly when it has
one, with that counterexample as detail.  A check's report carries no
`meta`; `verify` adds its own.

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

from collections import Counter
from heapq import heappop, heappush
from itertools import chain
from typing import Mapping, NamedTuple

from .arith import class_index, class_members, position
from .records import Action, Trace, TraceEvent, TraceFormatError
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


def _apply(ev: TraceEvent, members: tuple[dict, dict], restraints: dict[int, int]) -> list:
    """Apply the event to the live state, and give the (side, n) of each
    member that it removed.  restraints maps each position to the restraint
    of its last action; members[side] maps each member, in the order they
    entered, to the (e, side, stage) of the action that last inserted it and
    the stage from which it has been a member."""
    act = ev.action
    if act is not None:
        side = members[act.side]
        entered = side[act.witness][3] if act.witness in side else ev.stage
        side[act.witness] = (act.e, act.side, ev.stage, entered)
        restraints[act.position] = act.restraint
    return [(rm.side, rm.n) for rm in ev.removals if members[rm.side].pop(rm.n, None)]


class _ByStage:
    """A replayed run's state entering each stage, indexed by the stage and
    read through read(members, restraints) of that state."""

    def __init__(self, rep: ReplayedRun, read) -> None:
        self.rep, self.read = rep, read

    def __getitem__(self, s: int):
        if not 0 <= s <= self.rep.horizon:
            raise IndexError(f"stage {s} outside 0..{self.rep.horizon}")
        for _, members, restraints in self.rep.states([s]):
            return self.read(members, restraints)


class ReplayedRun(NamedTuple):
    horizon: int
    events: list[TraceEvent]  # the kept events with an action or removals, in stage order
    actions: list[tuple[int, Action]]  # (stage, action), in stage order
    derived: dict  # what the checks derive from this run, each computed once (see `joint`)

    def states(self, stages):
        """(s, members, restraints) entering each stage s of the ascending
        iterable, in one pass over the events.  The state is live: the dicts
        of `_apply`, updated in place between yields."""
        members, restraints, i = ({}, {}), {}, 0
        for s in stages:
            while i < len(self.events) and self.events[i].stage < s:
                _apply(self.events[i], members, restraints)
                i += 1
            yield s, members, restraints

    @property
    def entering(self) -> _ByStage:
        """stage -> (side 0, side 1) members entering it, as frozensets."""
        return _ByStage(self, lambda members, _: tuple(map(frozenset, members)))

    @property
    def restraints_entering(self) -> _ByStage:
        """stage -> {position: restraint} entering it."""
        return _ByStage(self, lambda _, restraints: restraints)


def replay(trace: Trace) -> ReplayedRun:
    """The run the events spell: its actions, and the kept events that
    change a membership or a restraint, from which `ReplayedRun.states`
    rebuilds the state entering any stage.

    Permissive on content (forged traces replay too; the checkers judge
    them) but strict on shape: the kept events must come in increasing
    stage order, below the horizon.
    """
    horizon = trace.summary.horizon
    events = []
    last = -1  # the stage of the event before
    for ev in trace.kept:
        if not last < ev.stage < horizon:
            raise TraceFormatError(f"event at stage {ev.stage} out of order for horizon {horizon}")
        last, act = ev.stage, ev.action
        if act is not None and (act.side not in (0, 1) or act.witness < 0 or act.e < 0):
            raise TraceFormatError(f"event {last}: malformed action fields")
        if act is not None or ev.removals:
            events.append(ev)
    actions = [(ev.stage, ev.action) for ev in events if ev.action is not None]
    return ReplayedRun(horizon, events, actions, {})


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


def _witness_fault(state: tuple, suite: FunctionalSuite | None, s: int, act: Action) -> str | None:
    """Why the witness of the action at stage s breaks witness discipline, or
    None; state is (members, restraints) entering stage s."""
    members, restraints = state
    if act.position >= s:
        return "pair position not below stage"
    if class_index(act.witness) != act.e:
        return "witness outside its class"
    if act.witness in members[act.side]:
        return "witness already a member"
    if act.witness <= _stronger_restraint_bound(restraints, act.position):
        return "witness under a stronger restraint"
    if suite is None:
        return None
    if suite.query(act.e, act.witness, s) is None:
        return "witness not converged"
    if _converged(suite, members[act.side], act.e, s):
        return "class already satisfied"
    return None


def _converged(suite: FunctionalSuite, members, e: int, s: int) -> list[int]:
    """The class-e points among a side's members that converge by stage s, ascending."""
    return sorted(m for m in members if class_index(m) == e and suite.query(e, m, s) is not None)


def _removal_fault(ev: TraceEvent, opposite: dict) -> dict | None:
    """What breaks removal discipline at the action of the event, or None:
    each removal must hit a current opposite-side member inserted earlier by
    a strictly weaker pair, in canonical order (the caller checks that none
    is missed).  opposite is the opposite side's members entering the
    event's stage, as `_apply` keeps them."""
    s, act = ev.stage, ev.action
    gone = set()  # the members that this event's earlier removals took
    for rm in ev.removals:
        if rm.side != 1 - act.side:
            reason = "wrong side"
        elif rm.by_position <= act.position:
            reason = "removed a stronger insertion"
        elif rm.inserted_at >= s:
            reason = "inserted_at not earlier"
        elif rm.n not in opposite or rm.n in gone:
            reason = "not a current member"
        elif opposite[rm.n][:3] != (rm.by_e, rm.by_side, rm.inserted_at):
            reason = "provenance mismatch"
        else:
            gone.add(rm.n)
            continue
        return {"n": rm.n, "reason": reason}
    recorded = [rm.n for rm in ev.removals]
    if recorded != sorted(recorded):
        return {"reason": "removals not in canonical order"}
    return None


def _first_lacking(rep: ReplayedRun, post, side: int, since: int, stop: int) -> int:
    """The first stage u with since <= u <= stop at which the side lacks a
    member of post; the caller knows that there is one."""
    stages = chain([since], (ev.stage + 1 for ev in rep.events if since <= ev.stage < stop))
    return next(u for u, members, _ in rep.states(stages) if not post <= members[side].keys())


def check_structural(
    trace: Trace, suite: FunctionalSuite | None = None, rep: ReplayedRun | None = None
) -> VerificationReport:
    """Verify every structural invariant of a run against its full trace.

    A check that has its first counterexample is not evaluated again where
    that costs more than a comparison.  With a suite, witness discipline
    additionally confirms each witness was converged and its class held no
    converged member at the action stage.  Pass rep, the replay of the
    trace, to share one replay between checks.
    """
    rep = replay(trace) if rep is None else rep
    bad: dict[str, dict] = {}  # check name -> its first counterexample
    state = members, restraints = ({}, {}), {}  # entering the stage of ev, then after it
    classes = (Counter(), Counter())  # side -> class -> its members on the side
    inserted = ([], [])  # side -> lazy max-heap of its insertions, as (-position, stage, n)
    # the pairs that have acted since every stronger pair last did, each as
    # (position, the stages of those actions); positions and stages ascend
    acted: list[tuple[int, list[int]]] = []
    for ev in trace.kept:
        s, act = ev.stage, ev.action
        if act is None and ev.removals:  # removals only ride on actions
            bad.setdefault("event_shape", {"stage": s, "reason": "removals without action"})
        if act is not None:
            side, other = act.side, 1 - act.side
            if "witness_discipline" not in bad and (reason := _witness_fault(state, suite, s, act)):
                bad["witness_discipline"] = {"stage": s, "reason": reason}
            # restraint discipline: set to exactly the acting stage, only by actions
            if act.restraint != s:
                bad.setdefault("restraint_discipline", {"stage": s, "recorded": act.restraint})
            if "removal_discipline" not in bad and (fault := _removal_fault(ev, members[other])):
                bad["removal_discipline"] = {"stage": s, **fault}
            while acted and acted[-1][0] > act.position:
                acted.pop()  # a weaker pair, whose late actions this one ends
            if not acted or acted[-1][0] < act.position:
                acted.append((act.position, []))
            since = acted[-2][1][-1] + 1 if len(acted) > 1 else 0
            acted[-1][1].append(s)
            e = class_index(act.witness)
            if act.witness not in members[side]:
                classes[side][e] += 1
        for gone in _apply(ev, members, restraints):
            classes[gone[0]][class_index(gone[1])] -= 1
        if act is not None:
            # removal discipline, once each removal took a distinct weaker
            # member in order: no weaker member is left
            heappush(inserted[side], (-act.position, s, act.witness))
            heap, left = inserted[other], members[other]
            while heap and not (heap[0][2] in left and left[heap[0][2]][2] == heap[0][1]):
                heappop(heap)  # its member is gone, or was inserted again since
            if heap and -heap[0][0] > act.position:
                reason = "removals disagree with weaker opposite-side members"
                bad.setdefault("removal_discipline", {"stage": s, "reason": reason})
            # per-class bound: at most one member of each valuation class per
            # side, and never 0; only the witness's class can break it here
            if classes[side][e] > (e is not None):
                bad.setdefault("class_bound", {"stage": s + 1, "side": side, "class": e})
            # key lemma: after this action the opposite side is contained in
            # its state at every stage back to the last stronger action; its
            # members entered in stage order, so the last to enter decides
            last = next(reversed(members[other].values()), None)
            if "key_lemma" not in bad and last is not None and last[3] >= since:
                u = _first_lacking(rep, members[other].keys(), other, since, s)
                bad["key_lemma"] = {"stage": s, "since": u, "side": other}
        if ev.snapshot is not None and ev.snapshot != tuple(tuple(sorted(m)) for m in members):
            bad.setdefault("event_shape", {"stage": s, "reason": "snapshot disagrees with replay"})

    # the summary must equal the final state
    summary = trace.summary
    final = (*(tuple(sorted(m)) for m in members), tuple(sorted(restraints.items())))
    if (summary.side0, summary.side1, summary.restraints) != final:
        bad["replay_summary"] = {}

    # single entry: an element enters a given side at most once, so each
    # membership changes at most twice over the run
    entries = Counter((act.side, act.witness) for _, act in rep.actions)
    for side, n in sorted(key for key, count in entries.items() if count > 1):
        bad.setdefault("dce_single_entry", {"side": side, "n": n})

    # finite action: once every stronger pair has stopped, a pair acts at
    # most once more; a pair not in `acted` has not acted since they stopped
    for p, late in acted:
        if len(late) > 1:
            bad.setdefault("finite_action", {"position": p, "stages": tuple(late)})

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
