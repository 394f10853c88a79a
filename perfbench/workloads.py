"""Workload definitions: the configs each workload feeds to the minpair CLI.

Generation is frozen here on purpose.  `random_config` is a copy of the
generator in `tests/config_gen.py` as it stood when the benchmark was
defined, and `parity_demo.json` is a copy of `configs/parity_demo.json`, so
edits to the test helpers or the shipped configs never move the benchmark.

A workload is a list of `Case`s.  Each case is one config file plus the CLI
commands run on it, in order; every command after `run` reads the trace
that `run` wrote.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from pathlib import Path

CORPUS_SIZE = 10  # random configs per workload: seeds seed_base .. seed_base + 9
ENGINE_HORIZON = 800
ORACLE_HORIZON = 300  # the cubic oracle takes about 36 s per five configs at 800
PARITY_HORIZON = 800
WORKLOADS = ("engine-sweep", "verify-sweep")
SMOKE_HORIZON = 24  # every case at this horizon, for the smoke test

PARITY_DEMO = Path(__file__).resolve().parent / "parity_demo.json"


@dataclass(frozen=True)
class Case:
    name: str  # unique within the workload; keys the recorded expectations
    config: dict
    commands: tuple[tuple[str, ...], ...]  # (command, *extra args); "run" comes first


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


def parity_stretched(horizon: int) -> dict:
    """parity_demo at a longer horizon, with a preservation check added."""
    config = json.loads(PARITY_DEMO.read_text(encoding="utf-8"))
    config["horizon"] = horizon
    config["checks"]["preservation"] = [{"e0": 0, "e1": 1}]
    return config


def cases(workload: str, seed_base: int, horizon: int | None = None) -> list[Case]:
    """The workload's cases; `horizon` overrides every case's own."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload '{workload}'")
    out = []
    if workload == "engine-sweep":
        h = horizon or ENGINE_HORIZON
        for seed in range(seed_base, seed_base + CORPUS_SIZE):
            config = random_config(seed, h)
            entries = len(config["suite"]["functionals"])
            config["checks"] = {
                "capture": [{"e": e, "side": side} for e in range(entries) for side in (0, 1)]
            }
            verify = ("verify", "--checks", "structural,capture")
            out.append(Case(f"random-{seed:04d}-h{h}", config, (("run",), verify)))
        return out
    h = horizon or ORACLE_HORIZON
    for seed in range(seed_base, seed_base + CORPUS_SIZE):
        # default checks: structural + oracle
        out.append(Case(f"random-{seed:04d}-h{h}", random_config(seed, h), (("run",), ("verify",))))
    h = horizon or PARITY_HORIZON
    out.append(
        Case(
            f"parity-h{h}",
            parity_stretched(h),
            (
                ("run",),
                ("verify", "--checks", "preservation,end_to_end"),
                ("psi", "--e0", "0", "--e1", "1", "--bound", "100"),
            ),
        )
    )
    return out
