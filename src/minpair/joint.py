"""The operator layer: enumerations, preservation, the joint table, the
diagonal set and the end-to-end check.

An operator's enumeration counts, per side, each axiom's premise points
that are members, so a membership change costs only the axioms that name
its point, and keeps per output only the stages at which it enters or
leaves.  The preservation window for a joint output found at stage s
opens just after the first action (at a stage >= s) of the strongest
pair acting at any stage >= s, because that action's removals restore
the opposite side and its restraint then shields the restored premise.

`replay` (by way of `analysis.replay_to`), `evaluate` and
`synthesize_joint` are called through the `analysis` module, whose
attributes are what a caller that wraps them (a tracer, a counting test)
replaces.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from collections import Counter, defaultdict
from collections.abc import Sequence
from heapq import merge
from itertools import accumulate, groupby
from typing import TYPE_CHECKING, NamedTuple

from . import analysis
from .analysis import CheckResult, ReplayedRun, VerificationReport, _apply, _report, replay_to
from .arith import class_index, unpair
from .graphs import CofiniteOnes, ExplicitGraph, check_description
from .records import Trace
from .suites import FunctionalSuite, OperatorSuite

if TYPE_CHECKING:
    from fractions import Fraction

    from .operators import EnumOperator


# ---------------------------------------------------------------------------
# preservation check (a jointly enumerated output survives on one side)


Flips = dict[int, list[int]]  # output -> the ascending stages at which it enters, leaves, ...


def enumeration(rep: ReplayedRun, op: EnumOperator, horizon: int) -> tuple[Flips, Flips]:
    """Per side, each output of evaluate(op, CofiniteOnes(the side's live
    members), s) at some stage s up to the horizon, with the ascending stages
    at which it enters that set, leaves it, enters again and so on: it is
    enumerated at stage s exactly when bisect_right(flips[x], s) is odd.

    A premise code pair(n, v) lies on CofiniteOnes(members) exactly when v = 1
    and n is no member, so an axiom with a bit other than 1 never fires, and
    any other, once visible, fires on a side exactly while none of its points
    is a member there.  Counters as in Dowling and Gallier's linear-time Horn
    propagation, run both ways since members also leave, keep that per side,
    axiom and output; the sides share one walk and one evaluate, at stage 0.
    """
    kept = []  # (stage, output) of each axiom by the horizon whose premise bits are all 1
    naming = defaultdict(list)  # point -> the kept axioms that name it
    for stage, axiom in op.staged_axioms:  # ascending by stage
        if stage > horizon:
            break
        points = [unpair(code) for code in axiom.premise]
        if all(v == 1 for _, v in points):
            for n, _ in points:
                naming[n].append(len(kept))
            kept.append((stage, axiom.output))
    blocked = [0] * len(kept), [0] * len(kept)  # side, kept axiom -> its points that are members
    live = Counter(), Counter()  # side, output -> its visible kept axioms with blocked == 0
    seed = analysis.evaluate(op, CofiniteOnes(()), 0)
    flips = tuple(defaultdict(list, {x: [0] for x in seed}) for _ in (0, 1))

    def fire(side: int, a: int, step: int) -> None:
        """The kept axiom a starts (step 1) or stops (step -1) firing on the side at stage s."""
        x = kept[a][1]
        live[side][x] += step
        if (live[side][x] > 0) != len(at := flips[side][x]) % 2:  # a 2nd flip at s undoes the 1st
            if at and at[-1] == s:
                at.pop()
            else:
                at.append(s)

    members, restraints, i, shown = ({}, {}), {}, 0, 0  # kept[:shown] are visible
    after = (ev.stage + 1 for ev in rep.events if ev.stage < horizon)
    for s, _ in groupby(merge((stage for stage, _ in kept), after)):
        while i < len(rep.events) and rep.events[i].stage < s:
            for side, n, step in _apply(rep.events[i], members, restraints):
                for a in naming.get(n, ()):
                    blocked[side][a] += step
                    if a < shown and blocked[side][a] == (step > 0):  # 0 -> 1 or 1 -> 0
                        fire(side, a, -step)
            i += 1
        while shown < len(kept) and kept[shown][0] <= s:
            for side in (side for side in (0, 1) if not blocked[side][shown]):
                fire(side, shown, 1)
            shown += 1
    return tuple({x: at for x, at in side.items() if at} for side in flips)


def _next(at: list[int], start: int, enumerated: int) -> int | None:
    """First stage >= start at which an output with flips at is enumerated
    (enumerated = 1) or not (0), or None if it never is from start on."""
    i = bisect_right(at, start)
    return start if i % 2 == enumerated else at[i] if i < len(at) else None


def _joint_flips(
    rep: ReplayedRun, operators: OperatorSuite, e0: int, e1: int, horizon: int
) -> tuple[tuple[Flips, Flips], dict[int, int]]:
    """Side 0's enumeration of operator e0 and side 1's of e1, from the pair
    that rep.derived keeps once per (suite, entry, horizon); and the first
    stage at which each output is enumerated on both sides, found by moving to
    side 0's next such stage, then to side 1's, until the two agree."""
    for e in (e0, e1):  # the suite hashes by identity, never by its operators
        if (operators, e, horizon) not in rep.derived:
            rep.derived[operators, e, horizon] = enumeration(rep, operators.get(e), horizon)
    sides = rep.derived[operators, e0, horizon][0], rep.derived[operators, e1, horizon][1]
    first = {}
    for x in sides[0].keys() & sides[1].keys():
        at, s = (sides[0][x], sides[1][x]), 0
        while (s0 := _next(at[0], s, 1)) is not None and (s := _next(at[1], s0, 1)) is not None:
            if s == s0:
                first[x] = s
                break
    return sides, first


def check_preservation(
    trace: Trace,
    operators: OperatorSuite,
    e0: int,
    e1: int,
    horizon: int,
    rep: ReplayedRun | None = None,
) -> VerificationReport:
    """Every output jointly enumerated at some stage stays enumerated on at
    least one side from its protection stage through the horizon.

    The protection stage is the first action stage >= s of the strongest
    pair acting at any stage >= s (the window opens just after it); if no
    pair acts again the window opens at s itself.
    """
    rep = replay_to(trace, horizon, rep)
    sides, found = _joint_flips(rep, operators, e0, e1, horizon)
    actions = [(s, act.position) for s, act in rep.actions]
    # protector[i]: the least (position, stage) among the actions from the i-th on
    protector = [*accumulate(((q, u) for u, q in reversed(actions)), min)][::-1] + [None]
    for x, s in sorted(found.items()):
        protect = protector[bisect_left(actions, s, key=lambda action: action[0])]
        start = s if protect is None else protect[1] + 1
        first_bad = [_next(flips[x], start, 0) for flips in sides]
        if start <= horizon and None not in first_bad:
            detail = dict(output=x, found_at=s, violated_at=max(first_bad), window_start=start)
            return _report([CheckResult.of("preservation", "fail", **detail)])
    return _report([CheckResult.of("preservation", "pass", outputs=len(found))])


# ---------------------------------------------------------------------------
# joint description table


def synthesize_joint(
    trace: Trace,
    operators: OperatorSuite,
    e0: int,
    e1: int,
    horizon: int,
    rep: ReplayedRun | None = None,
) -> dict[int, tuple[int, int]]:
    """Search stages for codes enumerated by both sides at once: each input
    n maps to (bit, the stage that found it).

    For each input the first stage wins; if both bits appear at the same
    first stage the smaller bit is kept (any fixed choice is sound because
    preservation makes every jointly enumerated bit correct).
    """
    rep = replay_to(trace, horizon, rep)
    _, first = _joint_flips(rep, operators, e0, e1, horizon)
    entries: dict[int, tuple[int, int]] = {}
    for code, s in sorted(first.items(), key=lambda item: (item[1], item[0])):
        n, k = unpair(code)
        if k <= 1:  # pair(n, 0) < pair(n, 1), so at one stage the least bit comes first
            entries.setdefault(n, (k, s))
    return entries


# ---------------------------------------------------------------------------
# diagonal set


class DiagonalSet(NamedTuple):
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
    members = replay_to(trace, horizon).entering[horizon][side]
    bits, disagreements = [], []
    for n in range(bound):
        e = class_index(n)
        candidate = suite.query(e, n, horizon) if e is not None else None
        bits.append(1 - candidate if n in members and candidate is not None else 1)
        if candidate is not None and candidate != bits[n]:
            disagreements.append((n, candidate, bits[n]))
    return DiagonalSet(tuple(bits), tuple(disagreements))


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
) -> VerificationReport:
    """The joint table, read as a graph, describes the target below the
    bound (`graphs.check_description`): every bit it defines there matches
    the target, and its domain is at least as dense as the threshold."""
    table = analysis.synthesize_joint(trace, operators, e0, e1, horizon, rep)
    graph = ExplicitGraph.from_map({n: k for n, (k, _) in table.items()})
    report = check_description(graph, target_bits, bound)
    if report.error_points:
        n = report.error_points[0]
        got, want = graph.value_at(n), target_bits[n]
        values = CheckResult.of("values_match", "fail", n=n, got=got, want=want)
    else:
        values = CheckResult.of("values_match", "pass", defined=graph.defined_below(bound))
    density = report.domain_partial_density
    verdict = "pass" if density >= threshold else "fail"
    detail = {"density": str(density), "threshold": str(threshold)}
    return _report([values, CheckResult.of("domain_density", verdict, **detail)])
