"""The quadratic transcription of the stage rule, and the literal reading of
each kind of functional, kept as the specification.

reference_run here recomputes memberships, provenance and restraints from
the event history at every stage and scans every class point at every
stage.  It is the direct reading of the stage rule that the interval
oracle `minpair.analysis.reference_run` and the engine are both tested
against.  run_machine is the register-machine interpreter that
`minpair.suites.run_machine` is tested against, and literal_query reads a
functional spec's bit at a stage off README's table of kinds, with no
settle rule, as every query of a compiled suite is tested against.
"""

from __future__ import annotations

import random

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
from minpair.suites import FunctionalSuite, Instruction, parse_program


def run_machine(
    program: tuple[Instruction, ...], value: int, max_steps: int
) -> tuple[bool, int, int]:
    """Run with register 0 = value and a step budget.

    Returns (halted, steps_used, output_bit); output is register 0 mod 2.
    Running off either end of the program halts.  Halting is stable: a
    larger budget never changes the outcome of a halted run.
    """
    regs: dict[int, int] = {0: value}
    pc = 0
    steps = 0
    while steps < max_steps:
        if pc < 0 or pc >= len(program):
            return True, steps, regs.get(0, 0) & 1
        ins = program[pc]
        steps += 1
        if ins.op == "halt":
            return True, steps, regs.get(0, 0) & 1
        if ins.op == "inc":
            regs[ins.reg] = regs.get(ins.reg, 0) + 1
            pc += 1
        else:  # decjz
            if regs.get(ins.reg, 0) == 0:
                pc = ins.target
            else:
                regs[ins.reg] -= 1
                pc += 1
    if pc < 0 or pc >= len(program):
        return True, steps, regs.get(0, 0) & 1
    return False, steps, 0


def literal_query(spec: dict, n: int, s: int, seed: int = 0) -> int | None:
    """The bit of functional `spec` on n at stage s, or None, as README's table
    of kinds reads: nothing converges before stage n + 1, and `seed` is the
    config's, for a random_partial that names none."""
    if s < n + 1:
        return None
    kind = spec["kind"]
    if kind == "total_const":
        return spec["value"]
    if kind == "total_fn":
        table, fill = spec["table"], spec.get("fill", "cycle")
        if n < len(table) or fill == "cycle":
            return table[n % len(table)]
        return 0 if fill == "zero" else 1
    if kind == "undefined_on_class":
        return None if class_index(n) == spec["e"] else spec.get("value", 1)
    if kind == "delayed":
        if s <= spec["delay"]["a"] * n + spec["delay"]["b"]:
            return None
        return literal_query(spec["inner"], n, s, seed)
    if kind == "random_partial":
        rng = random.Random(f"rp:{spec.get('seed', seed)}:{n}")
        if rng.random() >= spec["density"]:
            return None
        values = spec.get("values", "one")
        bit = rng.getrandbits(1)
        return {"zero": 0, "one": 1, "parity": n & 1, "random": bit}[values]
    if kind == "table_partial":
        for point, bit, from_stage in spec["entries"]:
            if point == n:
                return bit if s >= from_stage else None
        return None
    if kind == "empty":
        return None
    assert kind == "machine", kind
    halted, _, out = run_machine(parse_program(spec["program"]), n, s)
    return out if halted else None


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
