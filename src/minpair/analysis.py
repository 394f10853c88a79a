"""Replay of construction traces, the structural checks and capture.

Everything here is read-only over a trace: replay reconstructs the
memberships and restraints entering each stage, kept at the stages where
they change, the structural checks verify the invariants the construction
promises (class bounds, single entry, witness and removal discipline, the
opposite-side preservation lemma, quiescent finite action), and the
capture check confirms its behavioural guarantee at a finite horizon.

The reference oracle (`reference_run`) lives in `oracle` and the operator
layer (enumerations, preservation, the joint table, the diagonal set and
the end-to-end check) in `joint`.  Their names, and `operators.evaluate`,
are attributes of this module too, resolved on first use: a command loads
the oracle or the operator layer only when one of its checks needs it,
and callers keep one namespace in which a tracer or a test can replace a
function for every caller, `joint`'s own calls included.

Indexing convention, shared with the engine: memberships entering stage s
reflect all actions of stages < s; entering[horizon] is the final state.
"""

from __future__ import annotations

from bisect import bisect_right
from collections.abc import Sequence
from typing import Mapping, NamedTuple

from .arith import class_index, class_members, position
from .records import Action, Trace, TraceFormatError
from .suites import FunctionalSuite

# The home module of each name resolved on first use.
_LAZY = {
    "reference_run": "oracle",
    **dict.fromkeys(
        (
            "Changes",
            "enumeration",
            "_first_without",
            "SharedJoint",
            "check_preservation",
            "JointTable",
            "synthesize_joint",
            "DiagonalSet",
            "derive_diagonal",
            "check_end_to_end",
        ),
        "joint",
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


class EventFacts(NamedTuple):
    """Observations recorded while applying one event."""

    witness_was_member: bool
    removal_was_member: tuple[bool, ...]
    removal_provenance_ok: tuple[bool, ...]
    expected_removals: tuple[int, ...]


class Stepwise(Sequence):
    """A value for each stage 0..horizon, kept only where it may change:
    values[i] holds from stages[i] (stages[0] is 0) up to stages[i + 1].
    Indexing a stage finds its value by bisection and passes it through
    `read`, which gives each caller a fresh copy of a mutable value."""

    def __init__(self, stages: list[int], values: list, horizon: int, read=None) -> None:
        self.stages = stages
        self.values = values
        self.horizon = horizon
        self.read = read

    def __len__(self) -> int:
        return self.horizon + 1

    def __getitem__(self, s: int):
        if s < 0:
            s += self.horizon + 1
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
    insert_counts: dict[tuple[int, int], int]
    facts: dict[int, EventFacts]  # stage of each event with an action or removals
    actions: list[tuple[int, Action]]  # (stage, action), in stage order

    def final(self) -> tuple[frozenset[int], frozenset[int]]:
        return self.entering[self.horizon]


def replay(trace: Trace) -> ReplayedRun:
    """Reconstruct the state entering each stage from the events alone.

    Permissive on content (forged traces replay too; the checkers judge
    them) but strict on shape: events must cover stages 0..horizon-1 in
    order.  Memberships and restraints change only at events with an action
    or removals, so the state is kept only after those.
    """
    horizon = trace.summary.horizon
    if len(trace.events) != horizon:
        raise TraceFormatError(
            f"trace has {len(trace.events)} events for horizon {horizon}"
        )
    cur: tuple[dict[int, tuple[int, int, int]], dict[int, tuple[int, int, int]]] = (
        {},
        {},
    )
    stages = [0]
    members = [(frozenset(), frozenset())]
    restraint_tables: list[dict[int, int]] = [{}]
    restraints: dict[int, int] = {}
    insert_counts: dict[tuple[int, int], int] = {}
    facts = {}
    actions = []
    for idx, ev in enumerate(trace.events):
        if ev.stage != idx:
            raise TraceFormatError(f"event {idx} carries stage {ev.stage}")
        if ev.action is None and not ev.removals:
            continue
        witness_was_member = False
        expected: tuple[int, ...] = ()
        if ev.action is not None:
            act = ev.action
            if act.side not in (0, 1) or act.witness < 0 or act.e < 0:
                raise TraceFormatError(f"event {idx}: malformed action fields")
            actions.append((idx, act))
            witness_was_member = act.witness in cur[act.side]
            cur[act.side][act.witness] = (act.e, act.side, ev.stage)
            key = (act.side, act.witness)
            insert_counts[key] = insert_counts.get(key, 0) + 1
            restraints[act.position] = act.restraint
            opposite = cur[1 - act.side]
            expected = tuple(
                sorted(
                    n
                    for n, (e, side, _) in opposite.items()
                    if position(e, side) > act.position
                )
            )
        was_member = []
        provenance_ok = []
        for rm in ev.removals:
            rec = cur[rm.side].get(rm.n) if rm.side in (0, 1) else None
            was_member.append(rec is not None)
            provenance_ok.append(rec == (rm.by_e, rm.by_side, rm.inserted_at))
            if rec is not None:
                del cur[rm.side][rm.n]
        facts[idx] = EventFacts(
            witness_was_member, tuple(was_member), tuple(provenance_ok), expected
        )
        stages.append(idx + 1)
        members.append((frozenset(cur[0]), frozenset(cur[1])))
        restraint_tables.append(dict(restraints))
    return ReplayedRun(
        horizon,
        Stepwise(stages, members, horizon),
        Stepwise(stages, restraint_tables, horizon, dict),
        insert_counts,
        facts,
        actions,
    )


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


def _report(checks: list[CheckResult], **meta) -> VerificationReport:
    return VerificationReport(
        tuple(sorted(checks, key=lambda c: c.name)), tuple(sorted(meta.items()))
    )


# ---------------------------------------------------------------------------
# structural checks


def _stronger_restraint_bound(restraints: Mapping[int, int], p: int) -> int:
    return max((v for q, v in restraints.items() if q < p), default=0)


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
    checks: list[CheckResult] = []

    # event shape: removals only ride on actions; snapshots match replay
    shape_bad = None
    for ev in trace.events:
        if ev.action is None and ev.removals:
            shape_bad = {"stage": ev.stage, "reason": "removals without action"}
            break
        if ev.snapshot is not None:
            post = rep.entering[ev.stage + 1]
            if ev.snapshot.side0 != tuple(sorted(post[0])) or ev.snapshot.side1 != tuple(
                sorted(post[1])
            ):
                shape_bad = {"stage": ev.stage, "reason": "snapshot disagrees with replay"}
                break
    checks.append(
        CheckResult.of("event_shape", "fail" if shape_bad else "pass", **(shape_bad or {}))
    )

    # summary must equal the replayed final state
    final0, final1 = rep.final()
    summary_ok = (
        trace.summary.side0 == tuple(sorted(final0))
        and trace.summary.side1 == tuple(sorted(final1))
        and trace.summary.restraints == tuple(sorted(rep.restraints_entering[T].items()))
    )
    checks.append(CheckResult.of("replay_summary", "pass" if summary_ok else "fail"))

    # per-class bound: at most one member of each valuation class per side
    bound_bad = None
    for s, sides in rep.entering.runs(0, T + 1):
        for side in (0, 1):
            per_class: dict[int | None, int] = {}
            for n in sides[side]:
                e = class_index(n)
                per_class[e] = per_class.get(e, 0) + 1
                if e is None or per_class[e] > 1:
                    bound_bad = {"stage": s, "side": side, "class": e}
                    break
            if bound_bad:
                break
        if bound_bad:
            break
    checks.append(
        CheckResult.of("class_bound", "fail" if bound_bad else "pass", **(bound_bad or {}))
    )

    # single entry: an element enters a given side at most once, so each
    # membership changes at most twice over the run
    multi = sorted(
        (side, n) for (side, n), c in rep.insert_counts.items() if c > 1
    )
    checks.append(
        CheckResult.of(
            "dce_single_entry",
            "fail" if multi else "pass",
            **({"side": multi[0][0], "n": multi[0][1]} if multi else {}),
        )
    )

    # witness discipline
    witness_bad = None
    for s, act in rep.actions:
        fact = rep.facts[s]
        entering = rep.entering[s]
        bound = _stronger_restraint_bound(rep.restraints_entering[s], act.position)
        if act.position >= s:
            witness_bad = {"stage": s, "reason": "pair position not below stage"}
        elif class_index(act.witness) != act.e:
            witness_bad = {"stage": s, "reason": "witness outside its class"}
        elif fact.witness_was_member:
            witness_bad = {"stage": s, "reason": "witness already a member"}
        elif act.witness <= bound:
            witness_bad = {"stage": s, "reason": "witness under a stronger restraint"}
        elif suite is not None and suite.query(act.e, act.witness, s) is None:
            witness_bad = {"stage": s, "reason": "witness not converged"}
        elif suite is not None and any(
            class_index(m) == act.e and suite.query(act.e, m, s) is not None
            for m in entering[act.side]
        ):
            witness_bad = {"stage": s, "reason": "class already satisfied"}
        if witness_bad:
            break
    checks.append(
        CheckResult.of(
            "witness_discipline", "fail" if witness_bad else "pass", **(witness_bad or {})
        )
    )

    # restraint discipline: set to exactly the acting stage, only by actions
    restraint_bad = None
    for s, act in rep.actions:
        if act.restraint != s:
            restraint_bad = {"stage": s, "recorded": act.restraint}
            break
    checks.append(
        CheckResult.of(
            "restraint_discipline",
            "fail" if restraint_bad else "pass",
            **(restraint_bad or {}),
        )
    )

    # removal discipline: each removal hits a current opposite-side member
    # inserted earlier by a strictly weaker pair, and no victim is missed
    removal_bad = None
    for s, act in rep.actions:
        if removal_bad:
            break
        removals = trace.events[s].removals
        fact = rep.facts[s]
        for i, rm in enumerate(removals):
            if rm.side != 1 - act.side:
                removal_bad = {"stage": s, "n": rm.n, "reason": "wrong side"}
            elif rm.by_position <= act.position:
                removal_bad = {"stage": s, "n": rm.n, "reason": "removed a stronger insertion"}
            elif rm.inserted_at >= s:
                removal_bad = {"stage": s, "n": rm.n, "reason": "inserted_at not earlier"}
            elif not fact.removal_was_member[i]:
                removal_bad = {"stage": s, "n": rm.n, "reason": "not a current member"}
            elif not fact.removal_provenance_ok[i]:
                removal_bad = {"stage": s, "n": rm.n, "reason": "provenance mismatch"}
            if removal_bad:
                break
        if removal_bad:
            break
        recorded = tuple(rm.n for rm in removals)
        if recorded != tuple(sorted(recorded)):
            removal_bad = {"stage": s, "reason": "removals not in canonical order"}
        elif recorded != fact.expected_removals:
            removal_bad = {
                "stage": s,
                "reason": "removals disagree with weaker opposite-side members",
            }
    checks.append(
        CheckResult.of(
            "removal_discipline", "fail" if removal_bad else "pass", **(removal_bad or {})
        )
    )

    # key lemma: after an action at stage t by pair p, the opposite side is
    # contained in its state at every stage s <= t back to the last stronger
    # action; equivalently the stage-s description extends to the post-t one
    lemma_bad = None
    action_stages = [(s, act.position, act.side) for s, act in rep.actions]
    for t, p, side in action_stages:
        s_min = 0
        for u, q, _ in action_stages:
            if u <= t and q < p:
                s_min = max(s_min, u + 1)
        post = rep.entering[t + 1][1 - side]
        for s, sides in rep.entering.runs(s_min, t + 1):
            if not post <= sides[1 - side]:
                lemma_bad = {"stage": t, "since": s, "side": 1 - side}
                break
        if lemma_bad:
            break
    checks.append(
        CheckResult.of("key_lemma", "fail" if lemma_bad else "pass", **(lemma_bad or {}))
    )

    # finite action: once every stronger pair has stopped, a pair acts at
    # most once more
    finite_bad = None
    positions = sorted({p for _, p, _ in action_stages})
    for p in positions:
        stronger_last = max((u for u, q, _ in action_stages if q < p), default=-1)
        late = [u for u, q, _ in action_stages if q == p and u > stronger_last]
        if len(late) > 1:
            finite_bad = {"position": p, "stages": tuple(late)}
            break
    checks.append(
        CheckResult.of("finite_action", "fail" if finite_bad else "pass", **(finite_bad or {}))
    )

    return _report(checks, horizon=T, kind="structural")


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
    the bound (or the first quiet stage, if later).
    """
    rep = replay(trace) if rep is None else rep
    if horizon > rep.horizon:
        raise ValueError(f"trace reaches {rep.horizon}, asked for {horizon}")
    p = position(e, side)
    last_stronger = max((u for u, act in rep.actions if act.position < p), default=-1)
    start = max(p, last_stronger) + 1
    settled: list[tuple[int, int]] = []  # (n, settle stage) below the horizon
    if start < horizon:
        bound = _stronger_restraint_bound(rep.restraints_entering[start], p)
        for n in class_members(e, horizon):
            hit = suite.settle(e, n, horizon - 1) if n > bound else None
            if hit is not None:
                settled.append((n, hit[1]))
    if not settled:
        check = CheckResult.of("capture", "inconclusive", reason="no actionable stage in horizon")
        return _report([check], e=e, side=side, horizon=horizon)
    s = max(start, min(stage for _, stage in settled))
    captured = sorted(
        m
        for m in rep.entering[horizon][side]
        if class_index(m) == e and suite.query(e, m, horizon) is not None
    )
    if captured:
        check = CheckResult.of("capture", "pass", witness=captured[0], actionable_stage=s)
    else:
        eligible = tuple(n for n, stage in settled if stage <= s)
        check = CheckResult.of("capture", "fail", actionable_stage=s, eligible=eligible)
    return _report([check], e=e, side=side, horizon=horizon)
