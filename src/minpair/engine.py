"""Stage-by-stage finite-injury construction of the two membership sets.

At stage s the engine scans requirement pairs (e, side) in priority order
(position 2e + side, positions below s and below 2 * (max index + 1) only)
and lets the least eligible pair act.  A pair is eligible when its
valuation class meets the candidate functional's stage-s domain nowhere
inside the pair's current side, and the class contains a witness,
converged by stage s, exceeding every stronger pair's restraint.  Acting
inserts the least such witness into the pair's side, removes every weaker
insertion from the opposite side, and raises the pair's restraint to s.
One action per stage, exactly; a stage with no eligible pair is quiet,
and a run passes its event on but does not keep it.

The scan is skipped when its answer cannot have changed.  It reads the
stage (through the positions below it), the memberships and restraints
(changed only by actions) and the settled points (changed only by
arrivals).  So a stage needs a scan only if the stage before it acted, if
a position first comes in range (stages up to 2 * classes), or if a point
arriving at it lands in a class with an unheld pair and above that pair's
stronger-restraint bound as the last scan found it: anything at or below
the bound, or in a class whose pairs are both held, cannot be a witness.
Otherwise the last scan found nothing, and it would find nothing again.

Membership indexing convention: the state entering stage s reflects all
actions of stages < s; a snapshot taken at stage s shows the state after
the stage's action.  Restraints are never lowered or reset.

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


class ConstructionState:
    """Stage counter, both sides, the restraint table, and the witness index.

    Each side maps a class e to its member and the stage that inserted it.
    Only the pair (e, side) puts class-e points into the side, and only
    while the side holds none, so a side holds at most one member per class.
    The index files each point under its class once it has converged, in
    ascending order.  A point is settled once, at stage n + 1, with the
    horizon as the limit.
    """

    def __init__(self, horizon: int) -> None:
        self.stage = 0
        self.sides: tuple[dict[int, tuple[int, int]], ...] = ({}, {})  # e -> (n, inserted_at)
        self.restraints: dict[int, int] = {}
        self.horizon = horizon
        self.settled: dict[int, list[int]] = {}  # class e -> converged points
        self.arrivals: dict[int, list[tuple[int, int]]] = {}  # settle stage -> (e, n)
        # class e -> the least stronger-restraint bound of its unheld pairs at
        # the last scan; a class whose pairs are both held is absent
        self.watch: dict[int, int] = {}
        self.acted = False  # whether the last stage acted

    def members(self, side: int) -> tuple[int, ...]:
        """The side's members, ascending."""
        return tuple(sorted(n for n, _ in self.sides[side].values()))


def _admit(state: ConstructionState, suite: FunctionalSuite, classes: int) -> bool:
    """File every point that converges at the current stage under its class.

    Returns whether any of them lands above the watched bound of its class,
    so that it could be the witness of an unheld pair.
    """
    s = state.stage
    n = s - 1  # the newest point: it can first converge now
    e = class_index(n) if n > 0 else None
    if e is not None and e < classes:
        hit = suite.settle(e, n, state.horizon)
        if hit is not None:
            state.arrivals.setdefault(hit[1], []).append((e, n))
    watched = False
    for e, n in state.arrivals.pop(s, ()):
        insort(state.settled.setdefault(e, []), n)
        watched = watched or e in state.watch and n > state.watch[e]
    return watched


def _find_actor(
    state: ConstructionState, classes: int, use_restraints: bool
) -> tuple[int, int, int, int] | None:
    """Least eligible (position, e, side, witness) at the current stage.

    Positions of absent functionals never act.  A pair (e, side) is held
    when the side has a class-e member: only that pair inserts one, always
    a converged witness, and convergence is stable.  Records state.watch
    along the way.
    """
    state.watch = watch = {}
    strongest = 0  # running max of restraints over positions already scanned
    for e in range(classes):
        for side in (0, 1):
            p = position(e, side)
            if p >= state.stage:
                return None
            bound = strongest if use_restraints else 0
            strongest = max(strongest, state.restraints.get(p, 0))
            if e in state.sides[side]:
                continue
            watch.setdefault(e, bound)  # bounds only grow along the scan
            points = state.settled.get(e, ())
            i = bisect_right(points, bound)
            if i < len(points):
                return p, e, side, points[i]
    return None


def step(
    state: ConstructionState,
    suite: FunctionalSuite,
    mutation: str | None = None,
    take_snapshot: bool = False,
) -> TraceEvent:
    """Run one stage, mutating the state and returning its event."""
    if mutation is not None and mutation not in MUTATIONS:
        raise ValueError(f"unknown mutation '{mutation}'")
    s = state.stage
    classes = suite.classes
    actor = None
    if _admit(state, suite, classes) or state.acted or s <= 2 * classes:
        actor = _find_actor(state, classes, mutation != "skip_restraints")
    state.acted = actor is not None
    action = None
    removals: list[Removal] = []
    if actor is not None:
        p, e, side, witness = actor
        state.sides[side][e] = (witness, s)
        target = side if mutation == "wrong_removal_side" else 1 - side
        if mutation != "skip_removals":
            held = state.sides[target]
            victims = sorted((n, c, at) for c, (n, at) in held.items() if position(c, target) > p)
            for n, c, at in victims:
                del held[c]
                removals.append(Removal(n, target, c, target, at))
        state.restraints[p] = s
        action = Action(e, side, witness, s)
    snapshot = None
    if take_snapshot:
        snapshot = Snapshot(state.members(0), state.members(1))
    state.stage = s + 1
    return TraceEvent(s, action, tuple(removals), snapshot)


def run(
    suite: FunctionalSuite,
    horizon: int,
    snapshot_every: int = 0,
    mutation: str | None = None,
    on_event=None,
) -> Trace:
    """Run the construction for the given number of stages.

    on_event, when given, receives every stage's TraceEvent, quiet ones
    included, as it is produced, so a persistence layer can stream the
    trace; the returned trace keeps only the events that are not quiet.
    """
    if horizon < 0:
        raise ValueError(f"horizon must be >= 0, got {horizon}")
    state = ConstructionState(horizon)
    kept = []
    for s in range(horizon):
        snap = snapshot_every > 0 and s % snapshot_every == 0
        event = step(state, suite, mutation, take_snapshot=snap)
        if not event.quiet:
            kept.append(event)
        if on_event is not None:
            on_event(event)
    summary = TraceSummary.of(horizon, state.members(0), state.members(1), state.restraints)
    return Trace(kept, summary)
