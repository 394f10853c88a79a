"""Time `minpair run` and `verify` on the scale corpus under two source trees.

Usage: python tests/scale.py --parent DIR --out BENCH_<pr>.json
           [--rounds N] [--horizon H] [--only NAME,...]

The scale corpus is `random_config` seeds 0-9, 32 and 56 at horizon
320000, `configs/parity_demo.json` at 80000, and two register machines:
one loops forever, at 320000, and one halts on n after about 2n steps, at
3200.  `--horizon` puts every config at one horizon and `--only` keeps the
named configs, for a quick check.

Each command runs in a fresh process, `python -m minpair.cli` with
PYTHONPATH set to a copy of a tree's `src`: `run`, then the default
`verify` of the trace it wrote.  Both trees compile from source, as the
benchmark's children do: each copy is made under this run's temporary
directory without `__pycache__`, and every child gets
PYTHONDONTWRITEBYTECODE=1, so no child reads a warm or stale cache of
either tree.  (A PYTHONPYCACHEPREFIX would move the stdlib's cache too, and
every child would compile the stdlib modules it imports as well.)  Wall
time runs from spawn to `os.wait4`, and the peak RSS is the child's
`ru_maxrss`.  Linux keeps the spawner's own high-water mark in that figure,
so this script imports no minpair and hashes in a child.  In every round
each config runs under both trees, and the tree that goes first alternates.

The output records every sample and the median; the sha256 of each trace
and report, with the report's `meta` paths reduced to file names; whether
both trees and every round gave identical outputs; and `meets_100x`: this
tree's `run` and `verify` each take under 10 s and 100 MB, and its verdicts
equal those it gives at horizon 3200.  Uses only the stdlib.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from config_gen import random_config

ROOT = Path(__file__).resolve().parent.parent
REFERENCE_HORIZON = 3200
LIMIT_S, LIMIT_MB = 10, 100
MACHINES = {  # name -> (program, horizon)
    "machine-loop": ([["inc", 1], ["decjz", 2, 0]], 320000),
    "machine-slow-halt": ([["decjz", 0, 2], ["decjz", 1, 0], ["halt"]], 3200),
}
SHA256 = """
import hashlib, sys
for path in sys.argv[1:]:
    sha = hashlib.sha256()
    with open(path, "rb") as file:
        for chunk in iter(lambda: file.read(1 << 20), b""):
            sha.update(chunk)
    print(sha.hexdigest())
"""
METHOD = (
    "each command a fresh process (python -m minpair.cli) spawned by this stdlib script,"
    " which imports neither minpair nor hashlib; each tree compiles from source: its src"
    " is copied without __pycache__ into a temporary directory and every child gets"
    " PYTHONDONTWRITEBYTECODE=1; wall time from spawn to os.wait4, peak"
    " RSS = the child's ru_maxrss; every round runs each config under both trees, the"
    " first tree alternating; verify is the default verify of the trace the same tree wrote"
)


def corpus() -> dict[str, dict]:
    """name -> config, for every config of the scale corpus."""
    parity = json.loads((ROOT / "configs" / "parity_demo.json").read_text(encoding="utf-8"))
    seeds = (*range(10), 32, 56)
    configs = {f"random-{seed}": random_config(seed, 320000) for seed in seeds}
    configs["parity_demo"] = {**parity, "horizon": 80000}
    for name, (program, horizon) in MACHINES.items():
        functionals = [{"kind": "machine", "program": program}]
        configs[name] = {"horizon": horizon, "suite": {"functionals": functionals, "operators": []}}
    return configs


def spawn(tree: Path, *argv) -> tuple[float, float, int]:
    """Wall seconds, peak RSS in MB and exit code of `minpair argv` under tree/src."""
    env = {**os.environ, "PYTHONPATH": str(tree / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
    args = [sys.executable, "-m", "minpair.cli", *map(str, argv)]
    with open(os.devnull, "wb") as null:
        start = time.perf_counter()
        pid = os.posix_spawn(
            sys.executable, args, env, file_actions=[(os.POSIX_SPAWN_DUP2, null.fileno(), 1)]
        )
        _, status, usage = os.wait4(pid, 0)
        wall = time.perf_counter() - start
    return wall, usage.ru_maxrss / 1024, os.waitstatus_to_exitcode(status)


def copy_source(tree: Path, into: Path) -> Path:
    """A copy of tree/src under into/src with no `__pycache__`; returns into."""
    shutil.copytree(tree / "src", into / "src", ignore=shutil.ignore_patterns("__pycache__"))
    return into


def sha256s(*paths: Path) -> list[str]:
    """The files' sha256s, hashed by a child: importing hashlib here would
    raise the spawner's RSS, and with it every later child's floor."""
    argv = [sys.executable, "-c", SHA256, *map(str, paths)]
    return subprocess.run(argv, capture_output=True, text=True, check=True).stdout.split()


def measure(tree: Path, config: dict, work: Path) -> dict:
    """One `run` and one default `verify` of a config under a tree."""
    work.mkdir(parents=True, exist_ok=True)
    paths = {name: work / name for name in ("config.json", "trace.jsonl", "report.json")}
    paths["config.json"].write_text(json.dumps(config), encoding="utf-8")
    run = spawn(tree, "run", "--config", paths["config.json"], "--out", paths["trace.jsonl"])
    verify = spawn(
        tree,
        *("verify", "--trace", paths["trace.jsonl"], "--config", paths["config.json"]),
        *("--report", paths["report.json"]),
    )
    report = json.loads(paths["report.json"].read_text(encoding="utf-8"))
    meta = report["meta"]
    report["meta"] = {k: Path(v).name if isinstance(v, str) else v for k, v in meta.items()}
    paths["report.json"].write_text(json.dumps(report), encoding="utf-8")
    trace_sha256, report_sha256 = sha256s(paths["trace.jsonl"], paths["report.json"])
    return {
        "run": run,
        "verify": verify,
        "trace_sha256": trace_sha256,
        "report_sha256": report_sha256,
        "verdicts": [(check["name"], check["verdict"]) for check in report["checks"]],
    }


def summarize(samples: list[dict]) -> dict:
    """Every sample of one tree's commands on one config, with medians."""
    out = {}
    for command in ("run", "verify"):
        walls, rss, codes = zip(*(sample[command] for sample in samples))
        out[command] = {
            "s": [round(wall, 3) for wall in walls],
            "median_s": round(statistics.median(walls), 3),
            "peak_rss_mb": [round(mb, 1) for mb in rss],
            "max_peak_rss_mb": round(max(rss), 1),
            "exit_codes": list(codes),
        }
    for digest in ("trace_sha256", "report_sha256"):
        out[digest] = samples[0][digest]
    return out


def compare(trees: dict[str, Path], config: dict, first: int, rounds: int, work: Path) -> dict:
    """Both trees' samples on one config, and whether they agree; the tree
    that goes first in round r is list(trees)[(first + r) % 2]."""
    samples = {tree: [] for tree in trees}
    for r in range(rounds):
        for tree in list(trees)[:: 1 if (first + r) % 2 == 0 else -1]:
            samples[tree].append(measure(trees[tree], config, work / tree))
    verdicts = reference = samples["change"][0]["verdicts"]
    if config["horizon"] != REFERENCE_HORIZON:
        at_reference = {**config, "horizon": REFERENCE_HORIZON}
        reference = measure(trees["change"], at_reference, work / "reference")["verdicts"]
    result = {tree: summarize(runs) for tree, runs in samples.items()}
    digests = {(s["trace_sha256"], s["report_sha256"]) for runs in samples.values() for s in runs}
    fast_and_small = all(
        result["change"][command]["median_s"] < LIMIT_S
        and result["change"][command]["max_peak_rss_mb"] < LIMIT_MB
        for command in ("run", "verify")
    )
    return {
        "horizon": config["horizon"],
        **result,
        "identical": len(digests) == 1,
        "verdicts_equal_at_3200": verdicts == reference,
        "meets_100x": verdicts == reference and fast_and_small,
    }


def git_sha(tree: Path) -> str | None:
    """The tree's commit, suffixed -dirty when its files differ from it, or
    None when the tree is no git checkout."""
    if not (tree / ".git").exists():
        return None
    describe = ["git", "-C", str(tree), "describe", "--always", "--dirty", "--abbrev=40"]
    done = subprocess.run(describe, capture_output=True, text=True)
    return done.stdout.strip() or None


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True, help="root of the parent commit's tree")
    parser.add_argument("--out", required=True)
    parser.add_argument("--rounds", type=int, default=3)
    parser.add_argument("--horizon", type=int, help="run every config at this horizon")
    parser.add_argument("--only", help="comma-separated config names to keep")
    args = parser.parse_args(argv)
    trees = {"parent": Path(args.parent).resolve(), "change": ROOT}
    configs = corpus()
    if args.only:
        configs = {name: configs[name] for name in args.only.split(",")}
    if args.horizon is not None:
        configs = {name: {**config, "horizon": args.horizon} for name, config in configs.items()}
    with tempfile.TemporaryDirectory() as tmp:
        copies = {tree: copy_source(trees[tree], Path(tmp) / "trees" / tree) for tree in trees}
        results = {
            name: compare(copies, config, i, args.rounds, Path(tmp))
            for i, (name, config) in enumerate(configs.items())
        }
    meta = {
        "machine": f"{platform.system()} {platform.release()} {platform.machine()}",
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "git_sha": {tree: git_sha(path) for tree, path in trees.items()},
        "rounds": args.rounds,
        "method": METHOD,
    }
    text = json.dumps({"meta": meta, "configs": results}, indent=1)
    Path(args.out).write_text(text + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
