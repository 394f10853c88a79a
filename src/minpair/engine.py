"""Stage-by-stage finite-injury construction of the two membership sets.

At stage s the engine scans requirement pairs (e, side) in priority order
(position 2e + side, positions below s and below 2 * classes only, a
class per functional) and lets the least eligible pair act.  A pair is
eligible when its valuation class meets the candidate functional's
stage-s domain nowhere inside the pair's current side, and the class
contains a witness, converged by stage s, exceeding every stronger pair's
restraint.  Acting inserts the least such witness into the pair's side,
removes every weaker insertion from the opposite side, and raises the
pair's restraint to s.  One action per stage, exactly; a quiet stage, with
no eligible pair and no snapshot, gets no event: it is only a trace line.

The scan is skipped when its answer cannot have changed.  It reads the
stage (through the positions below it), the memberships and restraints
(changed only by actions) and the settled points (changed only by
arrivals).  So a stage needs a scan only if the stage before it acted, if
a position first comes in range (stages up to 2 * classes), or if a point
arriving at it lands in a class with an unheld pair and above that pair's
stronger-restraint bound as the last scan found it: anything at or below
the bound, or in a class whose pairs are both held, cannot be a witness.
Otherwise the last scan found nothing, and it would find nothing again.

Only points that can still be witnesses are settled and kept.  Restraints
only rise, and a pair injured at stage t has a stronger-restraint bound of
at least t from then on, above every point settled before t.  So a point n
is not settled while both pairs of its class are held at its stage n + 1,
and a scan drops the points of a class at or below its first unheld pair's
bound, which the other pair's bound is not below.  Under skip_restraints
every bound is 0, an injured pair may take an old point, and every point is
settled and kept.

Indexing: the state entering stage s reflects the actions of stages < s, and
a snapshot at stage s is the members after its action: one Snapshot serves
until the next action.  Restraints are never lowered or reset.

The mutation hooks deliberately break one clause each (skip removals, skip
the restraint filter, remove from the wrong side) so the verification
checkers can be shown to catch real faults; they are for fault injection
only.
"""

from __future__ import annotations

from bisect import bisect_right, insort

from .arith import class_index, position
from .records import Action, Removal, Snapshot, Trace, TraceEvent, TraceSummary
from .suites import FunctionalSuite

MUTATIONS = ("skip_removals", "skip_restraints", "wrong_removal_side")


def _find_actor(
    s: int, classes: int, sides: tuple[dict, ...], restraints: dict[int, int],
    settled: dict[int, list[int]], watch: dict[int, int], use_restraints: bool,
) -> tuple[int, int, int, int] | None:
    """Least eligible (position, e, side, witness) at stage s.

    A pair (e, side) is held when the side has a class-e member: only that pair
    inserts one, always a converged witness, and convergence is stable.  Refills
    `watch` and drops from `settled` the points that can no longer be witnesses.
    """
    watch.clear()
    strongest = 0  # running max of restraints over positions already scanned
    for e in range(classes):
        for side in (0, 1):
            p = position(e, side)
            if p >= s:
                return None
            bound = strongest if use_restraints else 0
            strongest = max(strongest, restraints.get(p, 0))
            if e in sides[side]:
                continue
            watch.setdefault(e, bound)  # bounds only grow along the scan
            points = settled.get(e, [])
            del points[: bisect_right(points, bound)]
            if points:
                return p, e, side, points[0]
    return None


def run(
    suite: FunctionalSuite, horizon: int, snapshot_every: int = 0, mutation: str | None = None,
    on_event=None,
) -> Trace:
    """Run the construction for the given number of stages.

    A side maps a class e to its member and the stage that inserted it.
    Only the pair (e, side) puts class-e points into the side, and only
    while the side holds none, so a side holds at most one member per class.
    A point n is settled at most once, at stage n + 1, with the horizon as
    the limit, and filed under its class when it converges.

    A TraceEvent is made only at a stage with an action or a snapshot
    (removals come only with an action): the returned trace keeps exactly
    these, and on_event, when given, receives each as it is made.
    """
    if horizon < 0:
        raise ValueError(f"horizon must be >= 0, got {horizon}")
    if mutation is not None and mutation not in MUTATIONS:
        raise ValueError(f"unknown mutation '{mutation}'")
    classes = suite.classes
    use_restraints = mutation != "skip_restraints"
    sides: tuple[dict[int, tuple[int, int]], ...] = ({}, {})  # e -> (n, inserted_at)
    restraints: dict[int, int] = {}
    settled: dict[int, list[int]] = {}  # class e -> converged points that may be witnesses
    arrivals: dict[int, list[tuple[int, int]]] = {}  # settle stage -> (e, n)
    watch: dict[int, int] = {}  # class e -> least bound of its unheld pairs at the last scan

    actor = None
    kept = []
    post = Snapshot((), ())  # the members of both sides after the last action
    for s in range(horizon):
        n = s - 1  # the newest point: it can first converge now
        e = class_index(n) if n > 0 else classes  # 0 is in no class
        if e < classes and not (use_restraints and e in sides[0] and e in sides[1]):
            hit = suite.settle(e, n, horizon)
            if hit is not None:
                arrivals.setdefault(hit[1], []).append((e, n))
        watched = False
        for e, n in arrivals.pop(s, ()):
            insort(settled.setdefault(e, []), n)
            watched = watched or e in watch and n > watch[e]
        if watched or actor is not None or s <= 2 * classes:
            actor = _find_actor(s, classes, sides, restraints, settled, watch, use_restraints)
        action, removals = None, []
        if actor is not None:
            p, e, side, witness = actor
            sides[side][e] = (witness, s)
            target = side if mutation == "wrong_removal_side" else 1 - side
            held = {} if mutation == "skip_removals" else sides[target]
            for n, c, at in sorted((n, c, at) for c, (n, at) in held.items()):
                if position(c, target) > p:
                    del held[c]
                    removals.append(Removal(n, target, c, target, at))
            restraints[p] = s
            action = Action(e, side, witness, s)
            post = Snapshot(*(tuple(sorted(n for n, _ in members.values())) for members in sides))
        snapshot = post if snapshot_every > 0 and s % snapshot_every == 0 else None
        if action is not None or snapshot is not None:
            kept.append(TraceEvent(s, action, tuple(removals), snapshot))
            if on_event is not None:
                on_event(kept[-1])
    return Trace(kept, TraceSummary.of(horizon, *post, restraints))
