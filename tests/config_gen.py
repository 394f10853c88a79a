"""Deterministic generator of randomized run configs for the test suites."""

from __future__ import annotations

import random

SCENARIO_CONFIG = {
    "horizon": 5,
    "suite": {"functionals": [{"kind": "total_const", "value": 0}], "operators": []},
}


def random_functional(rng: random.Random) -> dict:
    kind = rng.choices(
        (
            "total_const",
            "total_fn",
            "undefined_on_class",
            "delayed",
            "random_partial",
            "table_partial",
            "empty",
            "machine",
        ),
        weights=(20, 15, 15, 20, 10, 10, 5, 5),
    )[0]
    if kind == "total_const":
        return {"kind": kind, "value": rng.randint(0, 1)}
    if kind == "total_fn":
        table = [rng.randint(0, 1) for _ in range(rng.randint(1, 8))]
        return {"kind": kind, "table": table, "fill": rng.choice(["cycle", "zero", "one"])}
    if kind == "undefined_on_class":
        return {"kind": kind, "e": rng.randint(0, 3), "value": rng.randint(0, 1)}
    if kind == "delayed":
        if rng.random() < 0.6:
            inner = {"kind": "total_const", "value": rng.randint(0, 1)}
        else:
            inner = {
                "kind": "total_fn",
                "table": [rng.randint(0, 1) for _ in range(rng.randint(1, 4))],
                "fill": "cycle",
            }
        return {
            "kind": kind,
            "inner": inner,
            "delay": {"a": rng.randint(0, 2), "b": rng.randint(0, 80)},
        }
    if kind == "random_partial":
        return {
            "kind": kind,
            "density": rng.choice([0.3, 0.5, 0.8]),
            "values": rng.choice(["zero", "one", "parity", "random"]),
            "seed": rng.randint(0, 10**6),
        }
    if kind == "table_partial":
        points = rng.sample(range(1, 100), k=rng.randint(2, 10))
        return {
            "kind": kind,
            "entries": sorted([n, rng.randint(0, 1), rng.randint(0, 150)] for n in points),
        }
    if kind == "empty":
        return {"kind": kind}
    length = rng.randint(1, 5)
    program = []
    for _ in range(length):
        roll = rng.random()
        if roll < 0.4:
            program.append(["inc", rng.randint(0, 2)])
        elif roll < 0.8:
            program.append(["decjz", rng.randint(0, 2), rng.randint(0, length)])
        else:
            program.append(["halt"])
    return {"kind": "machine", "program": program}


def random_config(seed: int, horizon: int = 200) -> dict:
    rng = random.Random(9000 + seed)
    functionals = [random_functional(rng) for _ in range(rng.randint(3, 6))]
    return {
        "horizon": horizon,
        "snapshot_every": rng.choice([0, 0, 37]),
        "seed": seed,
        "suite": {"functionals": functionals, "operators": []},
    }


def forged_trace(family: str, actions: int):
    """A forged trace of horizon actions + 1 whose stages 1..actions each
    act, with no removals, and whose summary is its final state.

    "new-position": stage s inserts 2s + 1 into side 0 for pair (s - 1, 0),
    at a new position, weaker than every one before.  "alternating": stage s
    inserts 2s + 1 into side s % 2 for class 0.  "weaker-alternating": stage
    s inserts 2s + 1 for pair ((s - 1) // 2, (s - 1) % 2), at position s - 1,
    so each action sees every earlier member of the other side, all
    inserted by stronger pairs.  "weaker-in-class" acts for the same pairs
    with witness (2s + 1) * 2**e, in its class and above every stronger
    restraint: it passes every structural check without a suite, and with
    one fails witness discipline at stage 1 (no witness converges).  The
    others break structural checks.  All measure what the checks cost per
    action.  minpair is
    imported here, not at the top, because `tests/scale.py` imports this
    module and no minpair.
    """
    from minpair.records import Action, Trace, TraceEvent, TraceSummary

    kept, members, restraints = [], ([], []), {}
    for s in range(1, actions + 1):
        if family == "new-position":
            act = Action(s - 1, 0, 2 * s + 1, s)
        elif family == "alternating":
            act = Action(0, s % 2, 2 * s + 1, s)
        elif family == "weaker-alternating":
            act = Action((s - 1) // 2, (s - 1) % 2, 2 * s + 1, s)
        elif family == "weaker-in-class":
            act = Action((s - 1) // 2, (s - 1) % 2, (2 * s + 1) << (s - 1) // 2, s)
        else:
            raise ValueError(f"unknown family {family!r}")
        kept.append(TraceEvent(s, act, ()))
        members[act.side].append(act.witness)
        restraints[act.position] = s
    return Trace(kept, TraceSummary.of(actions + 1, *map(tuple, members), restraints))
