"""The structural and capture checks transcribed straight from their
definitions, kept as the specification.

Each check reads the memberships and restraints entering every stage,
rebuilt stage by stage from every stage's event (`Trace.events`), and
judges the run from that alone: no change points, no bisection and no
helper shared with `minpair.analysis`.  `structural` gives each check's
verdict and first counterexample as `check_structural` reports them, and
`capture` the verdict and detail of `check_capture`; the tests hold each
pair equal.

`read_trace` is the trace reader in two loops, decoding every line first:
`lines` decodes and splits the file, and `parse_trace` compares each line
with the quiet line of the next stage as text.  The tests hold
`records.parse_trace`, which matches quiet lines as bytes, to its result
or its error.
"""

from __future__ import annotations

from collections import Counter

from minpair.records import Trace, TraceEvent, TraceFormatError, TraceSummary, _record_of, canon
from minpair.suites import SpecError, load_json

# The README's "Reports" section, in report order.
NAMES = (
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


def valuation_class(n: int) -> int | None:
    """The e with n divisible by 2^e but not by 2^(e+1); None for 0."""
    if n == 0:
        return None
    e = 0
    while n % 2 ** (e + 1) == 0:
        e += 1
    return e


def rank(e: int, side: int) -> int:
    """The position 2e + side of pair (e, side); smaller is stronger."""
    return 2 * e + side


def entering(trace) -> list:
    """(members, restraints) entering each stage 0..horizon.  members[side]
    maps each member n to (e, side, stage) of the action that last inserted
    it; restraints maps a position to the restraint of its last action."""
    members: tuple[dict, dict] = ({}, {})
    restraints: dict[int, int] = {}
    states = []
    for ev in trace.events:
        states.append(((dict(members[0]), dict(members[1])), dict(restraints)))
        if ev.action is not None:
            a = ev.action
            members[a.side][a.witness] = (a.e, a.side, ev.stage)
            restraints[rank(a.e, a.side)] = a.restraint
        for rm in ev.removals:
            members[rm.side].pop(rm.n, None)
    states.append(((dict(members[0]), dict(members[1])), dict(restraints)))
    return states


def _witness_reason(suite, s, a, members, restraints) -> str | None:
    """Witness discipline: the pair is in range, and its witness lies in its
    class, is not yet a member and lies above every stronger restraint; with
    a suite, it has converged while no converged member of its class is on
    the side."""
    p = rank(a.e, a.side)
    if p >= s:
        return "pair position not below stage"
    if valuation_class(a.witness) != a.e:
        return "witness outside its class"
    if a.witness in members[a.side]:
        return "witness already a member"
    if a.witness <= max((v for q, v in restraints.items() if q < p), default=0):
        return "witness under a stronger restraint"
    if suite is None:
        return None
    if suite.query(a.e, a.witness, s) is None:
        return "witness not converged"
    for m in members[a.side]:
        if valuation_class(m) == a.e and suite.query(a.e, m, s) is not None:
            return "class already satisfied"
    return None


def _removal_fault(s, a, removals, members) -> dict | None:
    """Removal discipline: each removal takes a current opposite-side member
    inserted earlier by a strictly weaker pair, with its provenance, in
    ascending order, and no such member is missed."""
    p, other = rank(a.e, a.side), 1 - a.side
    gone = set()  # taken by this event's earlier removals
    for rm in removals:
        if rm.side != other:
            reason = "wrong side"
        elif rank(rm.by_e, rm.by_side) <= p:
            reason = "removed a stronger insertion"
        elif rm.inserted_at >= s:
            reason = "inserted_at not earlier"
        elif rm.n not in members[other] or rm.n in gone:
            reason = "not a current member"
        elif members[other][rm.n] != (rm.by_e, rm.by_side, rm.inserted_at):
            reason = "provenance mismatch"
        else:
            gone.add(rm.n)
            continue
        return {"n": rm.n, "reason": reason}
    taken = [rm.n for rm in removals]
    if taken != sorted(taken):
        return {"reason": "removals not in canonical order"}
    weaker = sorted(n for n, (e, side, _) in members[other].items() if rank(e, side) > p)
    if taken != weaker:
        return {"reason": "removals disagree with weaker opposite-side members"}
    return None


def structural(trace, suite=None) -> dict[str, tuple[str, dict]]:
    """Check name -> (verdict, first counterexample) for the nine checks."""
    events = trace.events
    states = entering(trace)
    first: dict[str, dict] = {}

    def fail(name, **detail):
        first.setdefault(name, detail)

    # event shape: removals ride only on actions, and each snapshot equals
    # the state after its stage
    for ev in events:
        if ev.action is None and ev.removals:
            fail("event_shape", stage=ev.stage, reason="removals without action")
        elif ev.snapshot is not None:
            after = states[ev.stage + 1][0]
            if ev.snapshot != tuple(tuple(sorted(side)) for side in after):
                fail("event_shape", stage=ev.stage, reason="snapshot disagrees with replay")

    # the summary equals the final state
    (side0, side1), restraints = states[-1]
    final = (tuple(sorted(side0)), tuple(sorted(side1)), tuple(sorted(restraints.items())))
    summary = trace.summary
    if (summary.side0, summary.side1, summary.restraints) != final:
        fail("replay_summary")

    # class bound: at every stage each side holds at most one member of
    # each class, and never 0
    for s, (members, _) in enumerate(states):
        for side in (0, 1):
            classes = set()
            for n in sorted(members[side]):
                e = valuation_class(n)
                if e is None or e in classes:
                    fail("class_bound", stage=s, side=side, **{"class": e})
                classes.add(e)

    # single entry: an element enters a given side at most once
    entries = Counter((ev.action.side, ev.action.witness) for ev in events if ev.action)
    for side, n in sorted(key for key, count in entries.items() if count > 1):
        fail("dce_single_entry", side=side, n=n)

    acted: dict[int, list[int]] = {}  # position -> its action stages
    for ev in events:
        a, s = ev.action, ev.stage
        if a is None:
            continue
        p, other = rank(a.e, a.side), 1 - a.side
        members, restraints = states[s]
        reason = _witness_reason(suite, s, a, members, restraints)
        if reason is not None:
            fail("witness_discipline", stage=s, reason=reason)
        # restraint discipline: each action sets its restraint to its stage
        if a.restraint != s:
            fail("restraint_discipline", stage=s, recorded=a.restraint)
        fault = _removal_fault(s, a, ev.removals, members)
        if fault is not None:
            fail("removal_discipline", stage=s, **fault)
        # key lemma: after the action the opposite side is contained in its
        # state at every stage back to the last stronger action
        stronger = [u for q, stages in acted.items() if q < p for u in stages]
        since = max(stronger) + 1 if stronger else 0
        after = states[s + 1][0][other].keys()
        for u in range(since, s + 1):
            if not after <= states[u][0][other].keys():
                fail("key_lemma", stage=s, since=u, side=other)
                break
        acted.setdefault(p, []).append(s)

    # finite action: once every stronger pair has stopped acting, a pair
    # acts at most once more
    for p in sorted(acted):
        stronger_last = max((u for q in acted if q < p for u in acted[q]), default=-1)
        late = tuple(u for u in acted[p] if u > stronger_last)
        if len(late) > 1:
            fail("finite_action", position=p, stages=late)

    return {name: ("fail", first[name]) if name in first else ("pass", {}) for name in NAMES}


def capture(trace, suite, e, side, horizon) -> tuple[str, dict]:
    """(verdict, detail) of the capture check of requirement (e, side) by the
    horizon.  Its actionable stage is the first stage s below the horizon at
    which the pair is in range (its position is below s), no stronger pair
    acts at s or at any later stage of the run, and some member of class e
    above every stronger restraint has converged; those members are the
    eligible ones.  With such a stage the side must hold, at the horizon, a
    member of class e converged by then, the least of them being the
    witness.  Without one the verdict is inconclusive."""
    p = rank(e, side)
    states = entering(trace)
    stronger = [ev.stage for ev in trace.events if ev.action and rank(*ev.action[:2]) < p]
    for s in range(horizon):
        if s <= p or any(u >= s for u in stronger):
            continue
        bound = max((v for q, v in states[s][1].items() if q < p), default=0)
        eligible = tuple(
            n
            for n in range(s)
            if valuation_class(n) == e and n > bound and suite.query(e, n, s) is not None
        )
        if eligible:
            break
    else:
        return "inconclusive", {"reason": "no actionable stage in horizon"}
    captured = sorted(
        m
        for m in states[horizon][0][side]
        if valuation_class(m) == e and suite.query(e, m, horizon) is not None
    )
    if captured:
        return "pass", {"witness": captured[0], "actionable_stage": s}
    return "fail", {"actionable_stage": s, "eligible": eligible}


# -- the trace reader

_QUIET_HEAD, _, _QUIET_TAIL = canon(TraceEvent("", None, [], None)._asdict()).partition('""')


def lines(fh, path):
    """The lines of the file's UTF-8 text, split as `str.splitlines` splits
    them, read one line of bytes at a time: a line's bytes end at b"\n" and
    hold whole characters, and splitting one again gives what splitting the
    whole text gives there."""
    for raw in fh:
        try:
            text = raw.decode("utf-8")
        except UnicodeDecodeError as err:
            at = fh.tell() - len(raw) + err.start  # the file is read up to the line's end
            raise TraceFormatError(f"{path}: not UTF-8 at byte {at}") from None
        yield from text.splitlines()


def parse_trace(lines) -> Trace:
    """The trace spelled by lines, keeping the events that are not quiet.
    A line that is exactly the quiet line of the next stage is counted
    without parsing; any other line goes through `load_json` and the field
    tables.  The events must carry stages 0, 1, ... in turn, one for each
    stage below the summary's horizon."""
    kept: list[TraceEvent] = []
    stages = 0  # the event lines read so far
    summary: TraceSummary | None = None
    for i, line in enumerate(lines, 1):
        if line == f"{_QUIET_HEAD}{stages}{_QUIET_TAIL}" and summary is None:
            stages += 1
            continue
        if not line.strip():
            continue
        try:
            raw = load_json(line)
            if summary is not None:
                raise SpecError("records after the summary line")
            got = _record_of(raw)
        except SpecError as err:
            raise TraceFormatError(f"line {i}: {err}") from None
        if isinstance(got, TraceSummary):
            summary = got
            continue
        if got.stage != stages:
            raise TraceFormatError(f"event {stages} carries stage {got.stage}")
        stages += 1
        if not got.quiet:
            kept.append(got)
    if summary is None:
        raise TraceFormatError("missing summary line")
    if stages != summary.horizon:
        raise TraceFormatError(f"trace has {stages} events for horizon {summary.horizon}")
    return Trace(kept, summary)


def read_trace(fh, path) -> Trace:
    """The trace in the binary file fh, read from path."""
    return parse_trace(lines(fh, path))
