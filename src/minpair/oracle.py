"""Reference oracle: an independent re-transcription of the stage rule.

It jumps from action to action: between two actions the memberships and
restraints are frozen, so the next actor, its stage and its witness follow
from the settle stages alone.  It imports only the arithmetic, the trace
records and the suites, and shares only `suite.settle` and `least_settle`
with the rest: no engine code or state, and no settle memo.  It exists
purely to cross-validate the engine trace for trace (`verify --checks oracle`).
"""

from __future__ import annotations

from .arith import class_index, class_members, position
from .records import Action, Removal, Snapshot, Trace, TraceEvent, TraceSummary
from .suites import FunctionalSuite, least_settle


def reference_run(suite: FunctionalSuite, horizon: int, snapshot_every: int = 0) -> Trace:
    """Independent transcription of the stage rule, from action to action.

    Between two actions the memberships and restraints are frozen, and so
    is each requirement's stronger-restraint bound and held state.  An
    unheld p = (e, side) is then first eligible at the largest of: the next
    stage, p + 1, and the least settle stage of a class-e point above its
    bound (`least_settle`, which capture reads too).  The least p with the
    least such stage acts there, with the least class point above the bound
    settled by then as its witness; the stages before it are quiet.  An
    index past suite.classes diverges, so it never acts.  Points are settled
    again when a scan revisits them, so memory follows the kept events, not
    the horizon.  The trace must be identical to the engine's.
    """
    if horizon < 0:
        raise ValueError(f"horizon must be >= 0, got {horizon}")
    requirements = [(position(e, side), e, side) for e in range(suite.classes) for side in (0, 1)]
    members: tuple[dict[int, tuple[int, int, int]], ...] = ({}, {})  # n -> (e, side, stage)
    restraints: dict[int, int] = {}

    # p -> least_settle above p's bound.  Bounds only rise, so an entry stays
    # right while its point is above p's bound, and None stays right, also for
    # (e, 1) once (e, 0) has it: (e, 1)'s bound is at least every (e, 0) bound.
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
            if least.get(position(e, 0), ()) is None:
                least[p] = None
            elif p not in least or least[p] is not None and least[p][1] <= bound:
                least[p] = least_settle(suite, e, bound, horizon)
            if least[p] is None:
                continue
            t = max(s, p + 1, least[p][0])
            if t < (horizon if chosen is None else chosen[0]):
                chosen = (t, p, e, side, bound)
        if chosen is None:
            break
        t, p, e, side, bound = chosen
        for witness in class_members(e, horizon, bound):
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
    kept = []
    post = Snapshot((), ())
    snapshots = range(0, horizon, snapshot_every) if snapshot_every > 0 else ()
    for s in sorted(acted.keys() | set(snapshots)):
        action, removals, post = acted.get(s, (None, (), post))
        snapshot = post if snapshot_every > 0 and s % snapshot_every == 0 else None
        kept.append(TraceEvent(s, action, removals, snapshot))
    return Trace(kept, TraceSummary.of(horizon, post.side0, post.side1, restraints))
