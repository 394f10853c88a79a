"""The operator layer: enumerations, preservation, the joint table, the
diagonal set and the end-to-end check.

Each side evaluates its operator only where its enumerated set can
change.  The preservation window for a joint output found at stage s opens
just after the first action (at a stage >= s) of the strongest pair acting
at any stage >= s, because that action's removals restore the opposite
side and its restraint then shields the restored premise.

`replay` (by way of `analysis.replay_to`), `evaluate` and
`synthesize_joint` are called through the `analysis` module, whose
attributes are what a caller that wraps them (a tracer, a counting test)
replaces.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from collections.abc import Sequence
from heapq import merge
from itertools import accumulate, groupby
from typing import TYPE_CHECKING, NamedTuple

from . import analysis
from .analysis import CheckResult, ReplayedRun, VerificationReport, _report, replay_to
from .arith import class_index, unpair
from .graphs import CofiniteOnes, ExplicitGraph, check_description
from .records import Trace
from .suites import FunctionalSuite, OperatorSuite

if TYPE_CHECKING:
    from fractions import Fraction

    from .operators import EnumOperator


# ---------------------------------------------------------------------------
# preservation check (a jointly enumerated output survives on one side)


Changes = list[tuple[int, frozenset[int]]]  # (stage, set from it on), ascending


def enumeration(rep: ReplayedRun, op: EnumOperator, side: int, horizon: int) -> Changes:
    """Each stage up to the horizon where the set evaluate(op, CofiniteOnes(the
    side's live members), stage) changes, stage 0 first, with the set from it on.

    The set can only change where the side's membership changes (its size
    or its last member to enter does) or one of op's axioms becomes
    visible, so evaluate runs only there and at stage 0.
    """
    visible = {stage for stage, _ in op.staged_axioms if stage <= horizon}
    after = (ev.stage + 1 for ev in rep.events if ev.stage < horizon)
    changes: Changes = []
    before = None
    for s, members, _ in rep.states(s for s, _ in groupby(merge([0], sorted(visible), after))):
        now = members[side]
        key = len(now), next(reversed(now), None)
        if s in visible or key != before:
            outputs = analysis.evaluate(op, CofiniteOnes(now), s)
            if not changes or outputs != changes[-1][1]:
                changes.append((s, outputs))
        before = key
    return changes


def _first_without(changes: Changes, x: int, start: int, horizon: int) -> int | None:
    """First stage in [start, horizon] whose enumerated set lacks x, or None."""
    i = bisect_right(changes, start, key=lambda change: change[0]) - 1
    lacking = (max(s, start) for s, outputs in changes[i:] if x not in outputs)
    return next(lacking, None) if start <= horizon else None


def _joint_changes(
    rep: ReplayedRun, operators: OperatorSuite, e0: int, e1: int, horizon: int
) -> tuple[tuple[Changes, Changes], dict[int, int]]:
    """Both sides' enumerations, and the first stage at which each output is
    enumerated by both sides at once.

    Each is kept in rep.derived, keyed by operator contents: a side's
    enumeration by (operator, side, horizon), the first joint stages by
    (operator of side 0, operator of side 1, horizon).  So the checks of one
    replay enumerate an operator once per side, whichever pairs name it.
    """
    memo = rep.derived
    ops = operators.get(e0), operators.get(e1)
    for side, op in enumerate(ops):
        if (op, side, horizon) not in memo:
            memo[op, side, horizon] = enumeration(rep, op, side, horizon)
    sides = memo[ops[0], 0, horizon], memo[ops[1], 1, horizon]
    if (*ops, horizon) not in memo:
        by_stage = [dict(changes) for changes in sides]
        now, first = [frozenset(), frozenset()], {}
        for s in sorted(by_stage[0].keys() | by_stage[1].keys()):
            now = [changes.get(s, outputs) for changes, outputs in zip(by_stage, now)]
            first |= dict.fromkeys((now[0] & now[1]) - first.keys(), s)
        memo[(*ops, horizon)] = first
    return sides, memo[(*ops, horizon)]


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
    sides, found = _joint_changes(rep, operators, e0, e1, horizon)
    actions = [(s, act.position) for s, act in rep.actions]
    # protector[i]: the least (position, stage) among the actions from the i-th on
    protector = [*accumulate(((q, u) for u, q in reversed(actions)), min)][::-1] + [None]
    for x, s in sorted(found.items()):
        protect = protector[bisect_left(actions, s, key=lambda action: action[0])]
        start = s if protect is None else protect[1] + 1
        first_bad = [_first_without(changes, x, start, horizon) for changes in sides]
        if None not in first_bad:
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
    _, first = _joint_changes(rep, operators, e0, e1, horizon)
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
