"""Derived objects and machine checks over construction traces.

Everything here is read-only over a trace: replay reconstructs the
memberships and restraints entering each stage, kept at the stages where
they change, the checkers verify the structural
invariants the construction promises (class bounds, single entry, witness
and removal discipline, the opposite-side preservation lemma, quiescent
finite action), the capture and preservation checks confirm the two
behavioural guarantees at a finite horizon, and the joint table and
diagonal set are computed exactly as the run defines them, evaluating each
side's enumerated set only where it can change.  reference_run is an
independent re-transcription of the stage rule that jumps from action to
action: between two actions the memberships and restraints are frozen, so
the next actor, its stage and its witness follow from the settle stages
alone.  It shares no code with the engine's arrival queue, actor scan or
side state, and exists purely to cross-validate the engine trace for trace.

Indexing convention, shared with the engine: memberships entering stage s
reflect all actions of stages < s; entering[horizon] is the final state.
The preservation window for a joint output found at stage s opens just
after the first action (at a stage >= s) of the strongest pair acting at
any stage >= s, because that action's removals restore the opposite side
and its restraint then shields the restored premise.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from collections.abc import Sequence
from typing import TYPE_CHECKING, Mapping, NamedTuple

from .arith import class_index, class_members, partial_density, position, unpair
from .engine import (
    Action,
    Removal,
    Snapshot,
    Trace,
    TraceEvent,
    TraceFormatError,
    TraceSummary,
    TRACE_SCHEMA,
)
from .graphs import CofiniteOnes
from .operators import EnumOperator, evaluate
from .suites import FunctionalSuite, OperatorSuite

if TYPE_CHECKING:
    from fractions import Fraction


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


# ---------------------------------------------------------------------------
# preservation check (a jointly enumerated output survives on one side)


Changes = list[tuple[int, frozenset[int]]]  # (stage, set from it on), ascending


def enumeration(rep: ReplayedRun, op: EnumOperator, side: int, horizon: int) -> Changes:
    """Each change point up to the horizon, stage 0 first, with the set
    evaluate(op, the side's description graph, stage) from it on.

    The set can only change where the side's membership changes or one of
    op's axioms becomes visible, so evaluate runs only there and at stage 0.
    """
    visible = {stage for stage, _ in op.staged_axioms}
    runs = dict(rep.entering.runs(0, horizon + 1))
    changes = []
    before = None
    for s in sorted(runs.keys() | {v for v in visible if v <= horizon}):
        now = runs[s][side] if s in runs else before
        if s == 0 or s in visible or now != before:
            changes.append((s, evaluate(op, CofiniteOnes.of(now), s)))
        before = now
    return changes


def _first_without(changes: Changes, x: int, start: int, horizon: int) -> int | None:
    """First stage in [start, horizon] whose enumerated set lacks x, or None."""
    if start > horizon:
        return None
    i = bisect_right(changes, start, key=lambda change: change[0]) - 1
    return next((max(s, start) for s, outputs in changes[i:] if x not in outputs), None)


SharedJoint = dict  # (e0, e1) -> _joint_changes of one trace, operator suite and horizon


def _joint_changes(
    rep: ReplayedRun,
    operators: OperatorSuite,
    e0: int,
    e1: int,
    horizon: int,
    shared: SharedJoint | None = None,
) -> tuple[tuple[Changes, Changes], Changes]:
    """Both sides' enumerations, and the jointly enumerated set at each
    change point of either.

    shared, when given, keeps the result per (e0, e1): checks of one trace
    that pass the same dict compute each pair's enumerations once.
    """
    if shared is not None and (e0, e1) in shared:
        return shared[e0, e1]
    sides = (
        enumeration(rep, operators.get(e0), 0, horizon),
        enumeration(rep, operators.get(e1), 1, horizon),
    )
    by_stage = [dict(changes) for changes in sides]
    now: list[frozenset[int]] = [frozenset(), frozenset()]
    joint: Changes = []
    for s in sorted(by_stage[0].keys() | by_stage[1].keys()):
        now = [changes.get(s, outputs) for changes, outputs in zip(by_stage, now)]
        joint.append((s, now[0] & now[1]))
    if shared is not None:
        shared[e0, e1] = sides, joint
    return sides, joint


def check_preservation(
    trace: Trace,
    operators: OperatorSuite,
    e0: int,
    e1: int,
    horizon: int,
    rep: ReplayedRun | None = None,
    shared: SharedJoint | None = None,
) -> VerificationReport:
    """Every output jointly enumerated at some stage stays enumerated on at
    least one side from its protection stage through the horizon.

    The protection stage is the first action stage >= s of the strongest
    pair acting at any stage >= s (the window opens just after it); if no
    pair acts again the window opens at s itself.  Pass shared to reuse the
    enumerations of (e0, e1) between checks of the same trace.
    """
    rep = replay(trace) if rep is None else rep
    if horizon > rep.horizon:
        raise ValueError(f"trace reaches {rep.horizon}, asked for {horizon}")
    sides, joint = _joint_changes(rep, operators, e0, e1, horizon, shared)
    found: dict[int, int] = {}
    for s, outputs in joint:
        for x in outputs:
            found.setdefault(x, s)
    actions = [(s, act.position) for s, act in rep.actions]
    # protector[i]: the least (position, stage) among the actions from the i-th on
    protector = [None]
    for u, q in reversed(actions):
        protector.append(min((q, u), protector[-1] or (q, u)))
    protector.reverse()
    for x in sorted(found):
        s = found[x]
        protect = protector[bisect_left(actions, s, key=lambda action: action[0])]
        start = s if protect is None else protect[1] + 1
        first_bad = [_first_without(changes, x, start, horizon) for changes in sides]
        if None not in first_bad:
            return _report(
                [
                    CheckResult.of(
                        "preservation",
                        "fail",
                        output=x,
                        found_at=s,
                        violated_at=max(first_bad),
                        window_start=start,
                    )
                ],
                e0=e0,
                e1=e1,
                horizon=horizon,
            )
    return _report(
        [CheckResult.of("preservation", "pass", outputs=len(found))],
        e0=e0,
        e1=e1,
        horizon=horizon,
    )


# ---------------------------------------------------------------------------
# joint description table


class JointTable(NamedTuple):
    e0: int
    e1: int
    horizon: int
    entries: dict[int, tuple[int, int]]  # n -> (bit, found_at_stage)

    def rows(self) -> list[tuple[int, int, int]]:
        return [(n, k, s) for n, (k, s) in sorted(self.entries.items())]


def synthesize_joint(
    trace: Trace,
    operators: OperatorSuite,
    e0: int,
    e1: int,
    horizon: int,
    rep: ReplayedRun | None = None,
    shared: SharedJoint | None = None,
) -> JointTable:
    """Search stages for codes enumerated by both sides at once.

    For each input the first stage wins; if both bits appear at the same
    first stage the smaller bit is kept (any fixed choice is sound because
    preservation makes every jointly enumerated bit correct).
    """
    rep = replay(trace) if rep is None else rep
    if horizon > rep.horizon:
        raise ValueError(f"trace reaches {rep.horizon}, asked for {horizon}")
    _, joint = _joint_changes(rep, operators, e0, e1, horizon, shared)
    entries: dict[int, tuple[int, int]] = {}
    for s, outputs in joint:
        best_here: dict[int, int] = {}
        for code in outputs:
            n, k = unpair(code)
            if k <= 1 and (n not in best_here or k < best_here[n]):
                best_here[n] = k
        for n, k in best_here.items():
            entries.setdefault(n, (k, s))
    return JointTable(e0, e1, horizon, entries)


# ---------------------------------------------------------------------------
# diagonal set


class DiagonalSet(NamedTuple):
    side: int
    horizon: int
    bound: int
    bits: tuple[int, ...]
    disagreements: tuple[tuple[int, int, int], ...]  # (n, candidate bit, own bit)


def derive_diagonal(
    trace: Trace, suite: FunctionalSuite, side: int, horizon: int, bound: int
) -> DiagonalSet:
    """Bits disagree with the candidate on captured members, 1 elsewhere.

    Also reports every point below the bound where the point's class
    candidate has converged to a different bit — the realized evidence that
    the candidate does not describe this set.
    """
    rep = replay(trace)
    if horizon > rep.horizon:
        raise ValueError(f"trace reaches {rep.horizon}, asked for {horizon}")
    members = rep.entering[horizon][side]
    bits = []
    disagreements = []
    for n in range(bound):
        e = class_index(n)
        candidate = suite.query(e, n, horizon) if e is not None else None
        if n in members and candidate is not None:
            bits.append(1 - candidate)
        else:
            bits.append(1)
        if candidate is not None and candidate != bits[n]:
            disagreements.append((n, candidate, bits[n]))
    return DiagonalSet(side, horizon, bound, tuple(bits), tuple(disagreements))


# ---------------------------------------------------------------------------
# end-to-end check


def check_end_to_end(
    trace: Trace,
    operators: OperatorSuite,
    e0: int,
    e1: int,
    horizon: int,
    bound: int,
    target_bits: Sequence[int],
    threshold: Fraction,
    rep: ReplayedRun | None = None,
    shared: SharedJoint | None = None,
) -> VerificationReport:
    """Every defined joint-table bit matches the target, and the table's
    domain below the bound is at least as dense as the threshold."""
    if len(target_bits) < bound:
        raise ValueError(f"target bits shorter than bound {bound}")
    table = synthesize_joint(trace, operators, e0, e1, horizon, rep, shared)
    defined = [n for n in table.entries if n < bound]
    mismatches = sorted(
        (n, table.entries[n][0], target_bits[n])
        for n in defined
        if table.entries[n][0] != target_bits[n]
    )
    checks = [
        CheckResult.of(
            "values_match",
            "fail" if mismatches else "pass",
            **(
                {"n": mismatches[0][0], "got": mismatches[0][1], "want": mismatches[0][2]}
                if mismatches
                else {"defined": len(defined)}
            ),
        )
    ]
    density = partial_density(defined, bound)
    checks.append(
        CheckResult.of(
            "domain_density",
            "pass" if density >= threshold else "fail",
            density=str(density),
            threshold=str(threshold),
        )
    )
    return _report(checks, e0=e0, e1=e1, bound=bound, horizon=horizon)


# ---------------------------------------------------------------------------
# reference oracle


def _points_above(e: int, bound: int, horizon: int) -> range:
    """Every class-e point above bound and below the horizon, ascending."""
    return range((1 << e) + ((bound + (1 << e)) >> (e + 1) << (e + 1)), horizon, 2 << e)


def _least_settle(
    suite: FunctionalSuite, e: int, bound: int, horizon: int
) -> tuple[int, int] | None:
    """(stage, n): the least settle stage below the horizon of a class-e
    point above bound, and the least point that settles then; None if no
    such point settles before the horizon."""
    best, stop = None, horizon
    for n in _points_above(e, bound, horizon):
        if n + 1 >= stop:  # n and every later point settle after stage n
            break
        hit = suite.settle(e, n, horizon)
        if hit is not None and hit[1] < stop:
            best, stop = (hit[1], n), hit[1]
    return best


def reference_run(
    suite: FunctionalSuite, horizon: int, snapshot_every: int = 0
) -> Trace:
    """Independent transcription of the stage rule that jumps from action
    to action.

    Memberships and restraints change only at actions, so between two
    actions each requirement's stronger-restraint bound and its held state
    are frozen.  An unheld requirement p = (e, side) is then first eligible
    at the largest of: the next stage, p + 1, and the least settle stage of
    a class-e point above its bound.  The least p with the least such stage
    acts there, with the least class point above the bound settled by then
    as its witness; every stage before it is quiet.  Only present
    functionals are scanned: absent ones diverge, so never act or hold a
    restraint.  Must produce a trace identical to the engine's.
    """
    if horizon < 0:
        raise ValueError(f"horizon must be >= 0, got {horizon}")
    requirements = [(position(e, side), e, side) for e in suite.indices() for side in (0, 1)]
    members: tuple[dict[int, tuple[int, int, int]], ...] = ({}, {})  # n -> (e, side, stage)
    restraints: dict[int, int] = {}
    # p -> _least_settle above p's bound.  Bounds only rise, so an entry
    # stays right while its point is above p's bound.
    least: dict[int, tuple[int, int] | None] = {}
    acted: dict[int, tuple[Action, tuple[Removal, ...], Snapshot]] = {}  # stage -> event
    s = 0
    while True:
        chosen = None  # (stage, p, e, side, bound)
        strongest = 0  # max restraint over the positions scanned so far
        for p, e, side in requirements:
            bound = strongest
            strongest = max(strongest, restraints.get(p, 0))
            if any(class_index(m) == e for m in members[side]):
                continue
            if p not in least or least[p] is not None and least[p][1] <= bound:
                least[p] = _least_settle(suite, e, bound, horizon)
            if least[p] is None:
                continue
            t = max(s, p + 1, least[p][0])
            if t < (horizon if chosen is None else chosen[0]):
                chosen = (t, p, e, side, bound)
        if chosen is None:
            break
        t, p, e, side, bound = chosen
        for witness in _points_above(e, bound, horizon):
            hit = suite.settle(e, witness, horizon)
            if hit is not None and hit[1] <= t:
                break
        opposite = members[1 - side]
        removals = []
        for n in sorted(opposite):
            by_e, by_side, inserted_at = opposite[n]
            if position(by_e, by_side) > p:
                removals.append(Removal(n, 1 - side, by_e, by_side, inserted_at))
                del opposite[n]
        members[side][witness] = (e, side, t)
        restraints[p] = t
        post = Snapshot(tuple(sorted(members[0])), tuple(sorted(members[1])))
        acted[t] = (Action(e, side, witness, t), tuple(removals), post)
        s = t + 1
    events = []
    post = Snapshot((), ())
    for s in range(horizon):
        action, removals, post = acted.get(s, (None, (), post))
        snapshot = post if snapshot_every > 0 and s % snapshot_every == 0 else None
        events.append(TraceEvent(s, action, removals, snapshot))
    summary = TraceSummary(
        schema=TRACE_SCHEMA,
        horizon=horizon,
        side0=post.side0,
        side1=post.side1,
        restraints=tuple(sorted(restraints.items())),
    )
    return Trace(events, summary)
