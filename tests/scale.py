"""Time `minpair run`, `verify` and `psi` on the scale corpus under two source trees.

Usage: python tests/scale.py --parent DIR --out BENCH_<pr>.json
           [--rounds N] [--horizon H] [--only NAME,...] [--parent-horizon-cap H]

The scale corpus is `random_config` seeds 0-9, 32 and 56 at horizon
320000, each with a capture check of every (e, side)
(`config_gen.with_captures`), `configs/parity_demo.json` at 80000, two
register machines (one loops forever, at 320000, and one halts on n after
about 2n steps, at 3200), and two operator workloads at 320000:
`axioms-2000`, 4 tables of 2000 random axioms with preservation of every
ordered pair, and `machine-ops`, two machine operators with preservation
of (0, 1) and (1, 0) (`config_gen.axioms_config` and
`machine_ops_config`).  `--horizon` puts every config at one horizon and
`--only` keeps the named configs, for a quick check.
`--parent-horizon-cap H` runs the parent on each config above H at H
instead, for a parent too slow to finish the corpus; the change then runs
such a config at its own horizon and once more at H, and its outputs at H
are the ones compared with the parent's.

Each command runs in a fresh process, `python -m minpair.cli` with
PYTHONPATH set to a copy of a tree's `src`: `run`, then the default
`verify` of the trace it wrote, which runs every check the config names,
and `psi` at bound 1000 of the first operator pair that the config's
`preservation` or else its `end_to_end` records name, if any.
Both trees compile from source, as the benchmark's children do: each copy
is made under this run's temporary directory without `__pycache__`, and
every child gets PYTHONDONTWRITEBYTECODE=1, so no child reads a warm or
stale cache of either tree.  (A PYTHONPYCACHEPREFIX would move the
stdlib's cache too, and every child would compile the stdlib modules it
imports as well.)  Wall time runs from spawn to `os.wait4`, whose usage
also gives the child's CPU time (`ru_utime + ru_stime`) and peak RSS
(`ru_maxrss`).  Linux keeps the spawner's own high-water mark in the RSS
figure, so this script imports no minpair, and builds each config file and
hashes in a child.  In every round each config runs under both trees, and
the tree that goes first alternates.

The output records every sample and the median; the sha256 of each trace,
report and `psi` output, with the report's `meta` paths reduced to file
names; whether both trees, at the parent's horizon, and every round gave
identical outputs; and `meets_100x`: each of this tree's commands takes
under 10 s and 100 MB at the config's own horizon, and its verdicts equal
those it gives at horizon 3200 (where it runs no `psi`).  Uses only the
stdlib.
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
from functools import partial
from pathlib import Path
from typing import Callable

from config_gen import axioms_config, machine_ops_config, random_config, with_captures

ROOT = Path(__file__).resolve().parent.parent
REFERENCE_HORIZON = 3200
LIMIT_S, LIMIT_MB = 10, 100
COMMANDS = ("run", "verify", "psi")
DIGESTS = ("trace_sha256", "report_sha256", "psi_sha256")
MACHINES = {  # name -> (program, horizon)
    "machine-loop": ([["inc", 1], ["decjz", 2, 0]], 320000),
    "machine-slow-halt": ([["decjz", 0, 2], ["decjz", 1, 0], ["halt"]], 3200),
}
CONFIG = """
import json, sys
from scale import corpus
config = corpus()[sys.argv[1]]()
config["horizon"] = int(sys.argv[2] or config["horizon"])
with open(sys.argv[3], "w", encoding="utf-8") as file:
    json.dump(config, file)
checks = config.get("checks", {})
pairs = [(r["e0"], r["e1"]) for r in checks.get("preservation", []) + checks.get("end_to_end", [])]
print(json.dumps([config["horizon"], pairs[0] if pairs else None]))
"""
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
    " which imports neither minpair nor hashlib and builds each config file in a child;"
    " each tree compiles from source: its src is copied without __pycache__ into a"
    " temporary directory and every child gets PYTHONDONTWRITEBYTECODE=1; wall time from spawn to os.wait4, CPU time = the"
    " child's ru_utime + ru_stime and peak RSS = its ru_maxrss from that os.wait4; every"
    " round runs each config under both trees, the first tree alternating; verify is the"
    " default verify of the trace the same tree wrote, and psi (for a config whose checks name"
    " an operator pair) reads that trace at bound 1000 and is hashed with it; with a parent horizon cap, the parent"
    " runs a config above the cap at the cap, and the change runs it at its own horizon"
    " and at the cap, where the two are compared"
)


def corpus() -> dict[str, Callable[[], dict]]:
    """name -> a function that builds the config, for every config of the
    scale corpus."""
    parity = json.loads((ROOT / "configs" / "parity_demo.json").read_text(encoding="utf-8"))
    seeds = (*range(10), 32, 56)
    configs = {
        f"random-{seed}": partial(with_captures, random_config(seed, 320000)) for seed in seeds
    }
    configs["parity_demo"] = partial(dict, parity, horizon=80000)
    for name, (program, horizon) in MACHINES.items():
        suite = {"functionals": [{"kind": "machine", "program": program}], "operators": []}
        configs[name] = partial(dict, horizon=horizon, suite=suite)
    configs["axioms-2000"] = partial(axioms_config, 320000)
    configs["machine-ops"] = partial(machine_ops_config, 320000)
    return configs


def write_config(name: str, horizon: int | None, path: Path) -> tuple[int, list[int] | None]:
    """Write the named config to path, at horizon if given, and give its
    horizon and the (e0, e1) that `psi` reads, or None if it names none.  A
    child builds it: the thousands of axioms of an operator workload would
    raise the spawner's RSS, and with it every later child's floor."""
    argv = [sys.executable, "-c", CONFIG, name, str(horizon or ""), str(path)]
    here = Path(__file__).parent
    done = subprocess.run(argv, cwd=here, capture_output=True, text=True, check=True)
    return json.loads(done.stdout)


def spawn(tree: Path, *argv, out: Path | str = os.devnull) -> tuple[float, float, float, int]:
    """Wall seconds, CPU seconds, peak RSS in MB and exit code of `minpair
    argv` under tree/src, which prints to out."""
    env = {**os.environ, "PYTHONPATH": str(tree / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
    args = [sys.executable, "-m", "minpair.cli", *map(str, argv)]
    with open(out, "wb") as stdout:
        start = time.perf_counter()
        pid = os.posix_spawn(
            sys.executable, args, env, file_actions=[(os.POSIX_SPAWN_DUP2, stdout.fileno(), 1)]
        )
        _, status, usage = os.wait4(pid, 0)
        wall = time.perf_counter() - start
    cpu = usage.ru_utime + usage.ru_stime
    return wall, cpu, usage.ru_maxrss / 1024, os.waitstatus_to_exitcode(status)


def copy_source(tree: Path, into: Path) -> Path:
    """A copy of tree/src under into/src with no `__pycache__`; returns into."""
    shutil.copytree(tree / "src", into / "src", ignore=shutil.ignore_patterns("__pycache__"))
    return into


def sha256s(*paths: Path) -> list[str]:
    """The files' sha256s, hashed by a child: importing hashlib here would
    raise the spawner's RSS, and with it every later child's floor."""
    argv = [sys.executable, "-c", SHA256, *map(str, paths)]
    return subprocess.run(argv, capture_output=True, text=True, check=True).stdout.split()


def measure(tree: Path, config: Path, work: Path, psi: list[int] | None = None) -> dict:
    """One `run` and one default `verify` of a config file under a tree, and
    one `psi` of the pair (e0, e1) if given."""
    work.mkdir(parents=True, exist_ok=True)
    paths = {name: work / name for name in ("trace.jsonl", "report.json", "psi.txt")}
    trace = ("--trace", paths["trace.jsonl"], "--config", config)
    samples = {"run": spawn(tree, "run", "--config", config, "--out", paths["trace.jsonl"])}
    samples["verify"] = spawn(tree, "verify", *trace, "--report", paths["report.json"])
    if psi:
        bound = ("--e0", psi[0], "--e1", psi[1], "--bound", 1000)
        samples["psi"] = spawn(tree, "psi", *trace, *bound, out=paths["psi.txt"])
    report = json.loads(paths["report.json"].read_text(encoding="utf-8"))
    meta = report["meta"]
    report["meta"] = {k: Path(v).name if isinstance(v, str) else v for k, v in meta.items()}
    paths["report.json"].write_text(json.dumps(report), encoding="utf-8")
    hashed = [paths["trace.jsonl"], paths["report.json"]] + ([paths["psi.txt"]] if psi else [])
    return {
        **samples,
        **dict(zip(DIGESTS, sha256s(*hashed))),
        "verdicts": [(check["name"], check["verdict"]) for check in report["checks"]],
    }


def summarize(samples: list[dict]) -> dict:
    """Every sample of one tree's commands on one config, with medians."""
    out = {}
    for command in [name for name in COMMANDS if name in samples[0]]:
        walls, cpus, rss, codes = zip(*(sample[command] for sample in samples))
        out[command] = {
            "s": [round(wall, 3) for wall in walls],
            "median_s": round(statistics.median(walls), 3),
            "cpu_s": [round(cpu, 3) for cpu in cpus],
            "median_cpu_s": round(statistics.median(cpus), 3),
            "peak_rss_mb": [round(mb, 1) for mb in rss],
            "max_peak_rss_mb": round(max(rss), 1),
            "exit_codes": list(codes),
        }
    out.update((digest, samples[0][digest]) for digest in DIGESTS if digest in samples[0])
    return out


def compare(
    trees: dict[str, Path],
    name: str,
    first: int,
    rounds: int,
    work: Path,
    horizon: int | None = None,
    cap: int | None = None,
) -> dict:
    """Both trees' samples on the named config, at horizon if given, and
    whether they agree; the tree that goes first in round r is
    list(trees)[(first + r) % 2].  A config above the cap runs under the
    parent at the cap, and under the change at its own horizon and then at
    the cap."""

    def at(h: int) -> Path:  # the config file at horizon h
        path = work / f"{name}-{h}.json"
        write_config(name, h, path)
        return path

    config = work / f"{name}.json"
    horizon, psi = write_config(name, horizon, config)
    capped = at(cap) if cap is not None and horizon > cap else None
    runs = {"parent": [capped or config], "change": [config, capped] if capped else [config]}
    samples = {tree: [] for tree in trees}
    at_cap = []  # the change's samples at the cap
    for r in range(rounds):
        for tree in list(trees)[:: 1 if (first + r) % 2 == 0 else -1]:
            own, *lower = [measure(trees[tree], run, work / tree, psi) for run in runs[tree]]
            samples[tree].append(own)
            at_cap += lower
    verdicts = reference = samples["change"][0]["verdicts"]
    if horizon != REFERENCE_HORIZON:
        reference = measure(trees["change"], at(REFERENCE_HORIZON), work / "reference")["verdicts"]
    result = {tree: summarize(runs) for tree, runs in samples.items()}
    if capped:
        result["change_at_parent_horizon"] = summarize(at_cap)
    digests = [
        {tuple(s.get(digest) for digest in DIGESTS) for s in runs}
        for runs in (samples["parent"] + (at_cap or samples["change"]), samples["change"])
    ]
    fast_and_small = all(
        result["change"][command]["median_s"] < LIMIT_S
        and result["change"][command]["max_peak_rss_mb"] < LIMIT_MB
        for command in COMMANDS
        if command in result["change"]
    )
    return {
        "horizon": horizon,
        "parent_horizon": cap if capped else horizon,
        **result,
        "identical": len(digests[0]) == len(digests[1]) == 1,
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
    parser.add_argument("--parent-horizon-cap", type=int, help="the parent's largest horizon")
    args = parser.parse_args(argv)
    trees = {"parent": Path(args.parent).resolve(), "change": ROOT}
    names = args.only.split(",") if args.only else list(corpus())
    with tempfile.TemporaryDirectory() as tmp:
        copies = {tree: copy_source(trees[tree], Path(tmp) / "trees" / tree) for tree in trees}
        results = {
            name: compare(
                copies, name, i, args.rounds, Path(tmp), args.horizon, args.parent_horizon_cap
            )
            for i, name in enumerate(names)
        }
    meta = {
        "machine": f"{platform.system()} {platform.release()} {platform.machine()}",
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "git_sha": {tree: git_sha(path) for tree, path in trees.items()},
        "rounds": args.rounds,
        "parent_horizon_cap": args.parent_horizon_cap,
        "method": METHOD,
    }
    text = json.dumps({"meta": meta, "configs": results}, indent=1)
    Path(args.out).write_text(text + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
