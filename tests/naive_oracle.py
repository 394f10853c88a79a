"""The quadratic transcription of the stage rule, kept as the specification.

reference_run here recomputes memberships, provenance and restraints from
the event history at every stage and scans every class point at every
stage.  It is the direct reading of the stage rule that the interval
oracle `minpair.analysis.reference_run` and the engine are both tested
against.
"""

from __future__ import annotations

from minpair.arith import class_index, class_members, position
from minpair.engine import (
    Action,
    Removal,
    Snapshot,
    Trace,
    TraceEvent,
    TraceSummary,
)
from minpair.records import TRACE_SCHEMA
from minpair.suites import FunctionalSuite


def _members_from_events(events: list[TraceEvent], side: int) -> dict[int, tuple[int, int, int]]:
    """Replay membership of one side from scratch: n -> (e, side, stage)."""
    members: dict[int, tuple[int, int, int]] = {}
    for ev in events:
        if ev.action is not None and ev.action.side == side:
            members[ev.action.witness] = (ev.action.e, ev.action.side, ev.stage)
        for rm in ev.removals:
            if rm.side == side:
                members.pop(rm.n, None)
    return members


def reference_run(
    suite: FunctionalSuite, horizon: int, snapshot_every: int = 0
) -> Trace:
    """Direct, unoptimized transcription of the stage rule.

    Recomputes memberships, provenance, and restraints from the event
    history at every stage instead of carrying state, so it is quadratic in
    the horizon.  Its only shortcuts: it scans just the positions of indices
    below suite.classes (those above diverge, so never act or hold a
    restraint), and
    keeps the stronger-restraint bound as a running max over that scan.
    Must produce a trace identical to the engine's, which keeps only the
    events that are not quiet.
    """
    if horizon < 0:
        raise ValueError(f"horizon must be >= 0, got {horizon}")
    requirements = [(position(e, side), e, side) for e in range(suite.classes) for side in (0, 1)]
    events: list[TraceEvent] = []
    for s in range(horizon):
        sides = (_members_from_events(events, 0), _members_from_events(events, 1))
        restraint_map = {ev.action.position: ev.action.restraint for ev in events if ev.action}
        chosen = None
        strongest = 0  # max restraint over the positions scanned so far
        for p, e, side in requirements:
            if p >= s:
                break
            bound = strongest
            strongest = max(strongest, restraint_map.get(p, 0))
            satisfied = False
            for m in sides[side]:
                if class_index(m) == e and suite.query(e, m, s) is not None:
                    satisfied = True
                    break
            if satisfied:
                continue
            for n in class_members(e, s):
                if n > bound and suite.query(e, n, s) is not None:
                    chosen = (p, e, side, n)
                    break
            if chosen:
                break
        action = None
        removals: list[Removal] = []
        if chosen:
            p, e, side, witness = chosen
            action = Action(e, side, witness, s)
            opposite = sides[1 - side]
            for n in sorted(opposite):
                by_e, by_side, inserted_at = opposite[n]
                if position(by_e, by_side) > p:
                    removals.append(Removal(n, 1 - side, by_e, by_side, inserted_at))
        snapshot = None
        if snapshot_every > 0 and s % snapshot_every == 0:
            post = (dict(sides[0]), dict(sides[1]))
            if action is not None:
                post[action.side][action.witness] = (action.e, action.side, s)
                for rm in removals:
                    post[rm.side].pop(rm.n, None)
            snapshot = Snapshot(tuple(sorted(post[0])), tuple(sorted(post[1])))
        events.append(TraceEvent(s, action, tuple(removals), snapshot))
    final = (_members_from_events(events, 0), _members_from_events(events, 1))
    restraint_map = {ev.action.position: ev.action.restraint for ev in events if ev.action}
    summary = TraceSummary(
        schema=TRACE_SCHEMA,
        horizon=horizon,
        side0=tuple(sorted(final[0])),
        side1=tuple(sorted(final[1])),
        restraints=tuple(sorted(restraint_map.items())),
    )
    return Trace([ev for ev in events if not ev.quiet], summary)
