"""minpair benchmark: end-to-end CLI wall time on two workloads, per-layer spans.

Run from the repository root:

    python3 perfbench/run.py --workload engine-sweep --seed 0 --seconds 60 --trace 0

Every operation is a fresh `python3 -m minpair.cli` process, started one
after another from this process (a closed loop with one client).  A pass
runs each case of the workload once; passes repeat while the next one is
expected to end within `--seconds` (at least MIN_PASSES, or MIN_TRACED_PASSES
pairs of an untraced and a traced pass).  Each operation's
wall time is the median
over passes, and each time metric sums those medians.  Every output is
compared with `expected.json`, recorded from the commit that defined the
benchmark; see README.md.

`--trace 0` prints the end-to-end metrics.  `--trace 1` alternates untraced
passes with passes run through `traced_cli.py` and prints the per-layer
metrics.  The last line of standard output is always one JSON object.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import random
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / "work"
EXPECTED = HERE / "expected.json"

MIN_PASSES = 3
MIN_TRACED_PASSES = 2  # a traced run repeats each pass, so that counts can be compared
SETUP_REPS = 3  # set-up probes before each untraced pass, so they span the run
OP_TIMEOUT_S = 60.0
HARD_LIMIT_S = 150.0  # --seconds is capped here
DEADLINE_S = 165.0  # past this, children are killed at once, so a run ends in time

SETUP_PROBE = (
    "import sys\n"
    "from minpair.cli import build_suites, load_config\n"
    "for path in sys.argv[1:]:\n"
    "    build_suites(load_config(path))\n"
)

END_TO_END = {
    "setup_s": "s",
    "run_s": "s",
    "verify_s": "s",
    "total_s": "s",
    "stages_per_s": "1/s",
    "peak_rss_mb": "MB",
}

# Span metrics are self times: a span's duration minus its child spans.
SPANS = (
    "cli.main",
    "cli.load_config",
    "cli.write_trace",
    "cli.read_trace",
    "suites.build",
    "engine.run",
    "analysis.replay",
    "analysis.check_structural",
    "analysis.reference_run",
    "analysis.check_capture",
    "analysis.check_preservation",
    "analysis.synthesize_joint",
    "analysis.check_end_to_end",
    "operators.evaluate",
)
LAYERS = ("cli", "suites", "engine", "analysis", "operators")
PER_LAYER = {
    **{f"{name}_s": "s" for name in SPANS},
    **{f"{layer}.self_s": "s" for layer in LAYERS},
    "startup_s": "s",
    "suites.queries": "count",
    "suites.query_hit_ratio": "ratio",
    "engine.queries": "count",
    "engine.stages": "count",
    "engine.actions": "count",
    "engine.removals": "count",
    "cli.trace_bytes": "bytes",
    "analysis.replay_calls": "count",
    "operators.evaluate_calls": "count",
    "psi_s": "s",
    "untraced_total_s": "s",
    "traced_total_s": "s",
    "tracing_overhead_s": "s",
    "op_fail_ratio": "ratio",
}


@dataclass
class Op:
    key: str  # "<workload>/<case>/<command>"
    command: str
    argv: list[str]  # minpair arguments
    stdout: Path
    output: Path  # what the benchmark checks: the trace, the report, or stdout for psi


@dataclass
class Sample:
    wall_s: float
    rss_mb: float
    spans: Path | None = None


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    env["PYTHONHASHSEED"] = "0"
    return env


def observe(op: Op, code: int) -> dict:
    """What the benchmark checks of one operation's output."""
    obs: dict = {"exit": code}
    try:
        data = op.output.read_bytes()
    except OSError:
        data = None
    if op.command == "run":
        obs["trace_sha256"] = data and hashlib.sha256(data).hexdigest()
    elif op.command == "verify":
        try:
            checks = json.loads(data)["checks"]
            obs["verdicts"] = sorted(f"{c['name']}={c['verdict']}" for c in checks)
        except (ValueError, KeyError, TypeError):
            obs["verdicts"] = None
    else:
        obs["psi_sha256"] = data and hashlib.sha256(data).hexdigest()
        obs["psi_lines"] = data and data.count(b"\n")
    return obs


def acceptable(op: Op, obs: dict) -> bool:
    """Checks that hold on every seed base, recorded or not."""
    if obs["exit"] != 0:
        return False
    if op.command == "verify":
        verdicts = obs["verdicts"] or []
        if not verdicts or any(v.endswith("=fail") for v in verdicts):
            return False
        if "--checks" not in op.argv and "oracle_equivalence=pass" not in verdicts:
            return False  # the default checks include the oracle: it must agree
    return True


def plan(workload: str, cases: list, work: Path) -> list[Op]:
    """Write each case's config and list its operations in order."""
    ops: list[Op] = []
    for case in cases:
        config = work / f"{case.name}.json"
        config.write_text(json.dumps(case.config, sort_keys=True) + "\n", encoding="utf-8")
        trace, report = work / f"{case.name}.trace", work / f"{case.name}.report.json"
        for command, *extra in case.commands:
            if command == "run":
                argv = ["run", "--config", str(config), "--out", str(trace)]
            elif command == "verify":
                argv = ["verify", "--trace", str(trace), "--config", str(config)]
                argv += [*extra, "--report", str(report)]
            else:
                argv = [command, "--trace", str(trace), "--config", str(config), *extra]
            stdout = work / f"{case.name}.{command}.out"
            output = {"run": trace, "verify": report}.get(command, stdout)
            ops.append(Op(f"{workload}/{case.name}/{command}", command, argv, stdout, output))
    return ops


@dataclass
class Runner:
    """Starts the children of one benchmark run and checks what they produce."""

    work: Path
    env: dict
    deadline: float  # time.perf_counter() value
    expected: dict = field(default_factory=dict)  # op key -> observation to match
    attempted: int = 0
    failed: int = 0
    messages: list = field(default_factory=list)
    cpus: list = field(default_factory=lambda: sorted(os.sched_getaffinity(0)))

    def spawn(self, argv: list[str], stdout: Path, turn: int) -> tuple[int, float, float]:
        """Run one child to completion: (exit code, wall seconds, peak RSS in MB).

        The child runs on CPU number `turn` (modulo the CPUs this process may
        use).  A child starts on its parent's CPU and seldom leaves it, so
        without turns one run would time one CPU only; on a shared host each
        CPU slows down and speeds up on its own, for a minute or more.
        """
        os.sched_setaffinity(0, {self.cpus[turn % len(self.cpus)]})  # the child inherits it
        timeout = min(OP_TIMEOUT_S, max(0.01, self.deadline - time.perf_counter()))
        with open(stdout, "wb") as out, open(stdout.with_suffix(".err"), "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(
                argv, stdin=subprocess.DEVNULL, stdout=out, stderr=err, env=self.env, cwd=ROOT
            )
            previous = signal.signal(signal.SIGALRM, lambda *_: proc.kill())
            signal.setitimer(signal.ITIMER_REAL, timeout)
            try:
                _, status, usage = os.wait4(proc.pid, 0)
                wall = time.perf_counter() - start
            except BaseException:  # interrupted: stop the child before leaving
                proc.kill()
                proc.wait()
                raise
            finally:
                signal.setitimer(signal.ITIMER_REAL, 0)
                signal.signal(signal.SIGALRM, previous)
        proc.returncode = os.waitstatus_to_exitcode(status)
        return proc.returncode, wall, usage.ru_maxrss / 1024  # ru_maxrss is in KiB on Linux

    def check(self, op: Op, obs: dict) -> None:
        self.attempted += 1
        want = self.expected.setdefault(op.key, obs)  # unrecorded: first pass sets it
        if obs != want or not acceptable(op, obs):
            self.failed += 1
            self.messages.append(f"{op.key}: got {obs}, expected {want}")

    def run_pass(self, ops: list[Op], pass_id: int, traced: bool) -> dict[str, Sample]:
        samples: dict[str, Sample] = {}
        for i, op in enumerate(ops):
            spans = None
            if traced:
                spans = self.work / f"spans-{pass_id}-{i}.json"
                prefix = [sys.executable, str(HERE / "traced_cli.py"), str(spans), str(pass_id), "--"]
            else:
                prefix = [sys.executable, "-m", "minpair.cli"]
            op.output.unlink(missing_ok=True)  # a stale output must not pass for a new one
            code, wall, rss = self.spawn(prefix + op.argv, op.stdout, pass_id + i)
            self.check(op, observe(op, code))
            samples[op.key] = Sample(wall, rss, spans)
        return samples

    def setup(self, config_paths: list[str], reps: int) -> list[float]:
        """Wall time of fresh interpreters that import minpair and build every suite.

        Each probe counts as an operation; one that exits non-zero fails.
        """
        argv = [sys.executable, "-c", SETUP_PROBE, *config_paths]
        times = []
        for turn in range(reps):
            code, wall, _ = self.spawn(argv, self.work / "setup.out", turn)
            self.attempted += 1
            if code == 0:
                times.append(wall)
            else:
                self.failed += 1
                self.messages.append(f"set-up probe exited {code}")
        return times


def op_medians(passes: list[dict[str, Sample]]) -> dict[str, float]:
    return {key: statistics.median(p[key].wall_s for p in passes) for key in passes[0]}


def end_to_end(ops: list[Op], passes: list, setup: list[float], stages: int) -> dict:
    walls = op_medians(passes)
    by_command = {"run": 0.0, "verify": 0.0, "psi": 0.0}
    for op in ops:
        by_command[op.command] += walls[op.key]
    total = sum(by_command.values())
    return {
        "setup_s": statistics.median(setup),
        "run_s": by_command["run"],
        "verify_s": by_command["verify"],
        "psi_s": by_command["psi"],
        "total_s": total,
        "stages_per_s": stages / total,
        "peak_rss_mb": statistics.median(max(s.rss_mb for s in p.values()) for p in passes),
    }


def layer_metrics(samples: dict[str, Sample], spans_log: list) -> dict:
    """Per-layer figures of one traced pass, from its children's span files."""
    self_s = dict.fromkeys(SPANS, 0.0)
    calls = dict.fromkeys(SPANS, 0)
    counts = {"engine.stages": 0, "engine.actions": 0, "engine.removals": 0, "cli.trace_bytes": 0}
    queries = hits = engine_queries = 0
    startup = 0.0
    for sample in samples.values():
        if not sample.spans.exists():  # the child was killed; the op already failed
            continue
        record = json.loads(sample.spans.read_text(encoding="utf-8"))
        spans = record["spans"]
        spans_log.extend(spans)
        covered = [0.0] * len(spans)
        covered_queries = [0] * len(spans)
        for name, _, _, parent, _, _, busy, q, _ in spans:
            if parent >= 0:
                covered[parent] += busy
                covered_queries[parent] += q
        for i, (name, _, _, parent, _, n, busy, q, h) in enumerate(spans):
            self_s[name] += busy - covered[i]
            calls[name] += n
            if name == "engine.run":
                engine_queries += q - covered_queries[i]
            if parent < 0:
                startup += sample.wall_s - busy
                queries += q
                hits += h
        for name, value in record["counts"].items():
            counts[name] += value
    out = {f"{name}_s": self_s[name] for name in SPANS}
    for layer in LAYERS:
        out[f"{layer}.self_s"] = sum(v for k, v in self_s.items() if k.startswith(layer + "."))
    out.update(counts)
    out.update(
        {
            "startup_s": startup,
            "suites.queries": queries,
            "suites.query_hit_ratio": hits / queries if queries else 0.0,
            "engine.queries": engine_queries,
            "analysis.replay_calls": calls["analysis.replay"],
            "operators.evaluate_calls": calls["operators.evaluate"],
        }
    )
    return out


def git_sha() -> str:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        out = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True, text=True, env=env, timeout=10, check=True,
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip()


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True, help="shuffles the case order")
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument(
        "--seed-base", type=int, default=0,
        help="first random_config seed of the corpus (default 0; e.g. 10 for held-out seeds)",
    )
    parser.add_argument("--horizon", type=int, default=None, help="override every horizon")
    return parser.parse_args(argv)


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))  # unwind: kill child, clean up
    if not (SRC / "minpair" / "cli.py").is_file():
        print(f"perfbench: no minpair sources under {SRC}", file=sys.stderr)
        return 2
    cases = workloads.cases(args.workload, args.seed_base, args.horizon)
    random.Random(args.seed).shuffle(cases)
    work = WORK / f"{args.workload}-seed{args.seed}-trace{args.trace}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        return measure(args, cases, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def measure(args: argparse.Namespace, cases: list, work: Path) -> int:
    started = time.perf_counter()
    ops = plan(args.workload, cases, work)
    recorded = json.loads(EXPECTED.read_text(encoding="utf-8"))
    runner = Runner(
        work,
        child_env(),
        started + DEADLINE_S,
        {op.key: recorded[op.key] for op in ops if op.key in recorded},
    )
    config_paths = [str(work / f"{case.name}.json") for case in cases]
    runner.setup(config_paths, 1)  # warm the bytecode and file caches
    setup: list[float] = []

    plain: list[dict[str, Sample]] = []
    traced: list[dict[str, Sample]] = []
    budget = min(args.seconds, HARD_LIMIT_S)
    last = 0.0  # duration of the latest pass: start none expected to end past the budget
    min_passes = MIN_TRACED_PASSES if args.trace else MIN_PASSES
    while len(plain) < min_passes or time.perf_counter() - started + last <= budget:
        elapsed = time.perf_counter() - started
        pass_id = len(plain)
        if not args.trace:
            setup += runner.setup(config_paths, SETUP_REPS)
        plain.append(runner.run_pass(ops, pass_id, False))
        if args.trace:
            traced.append(runner.run_pass(ops, pass_id, True))
        last = time.perf_counter() - started - elapsed

    stages = sum(case.config["horizon"] for case in cases)
    e2e = end_to_end(ops, plain, setup or [0.0], stages)
    op_fail_ratio = runner.failed / runner.attempted
    meta = {
        "workload": args.workload,
        "seed": args.seed,
        "seed_base": args.seed_base,
        "horizon": args.horizon,
        "passes": len(plain),
        "pass_total_s": [round(sum(s.wall_s for s in p.values()), 4) for p in plain],
        "setup_reps": len(setup),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "git": git_sha(),
    }
    if args.trace:
        spans_log: list = []
        per_pass = [layer_metrics(p, spans_log) for p in traced]
        values = {}
        for key in per_pass[0]:
            seen = [p[key] for p in per_pass]
            if isinstance(seen[0], int):  # a work count: must repeat exactly
                if len(set(seen)) > 1:
                    print(f"perfbench: {key} differs between passes: {seen}", file=sys.stderr)
                values[key] = statistics.median_low(seen)
            else:
                values[key] = statistics.median(seen)
        values["psi_s"] = e2e["psi_s"]
        values["untraced_total_s"] = e2e["total_s"]
        values["traced_total_s"] = sum(op_medians(traced).values())
        values["tracing_overhead_s"] = values["traced_total_s"] - e2e["total_s"]
        values["op_fail_ratio"] = op_fail_ratio
        units = PER_LAYER
        out = WORK / f"spans-{args.workload}-seed{args.seed}.json"
        out.write_text(json.dumps({"meta": meta, "spans": spans_log}) + "\n", encoding="utf-8")
    else:
        values = {k: e2e[k] for k in END_TO_END}
        units = END_TO_END

    for message in runner.messages[:20]:
        print(f"perfbench: FAILED {message}", file=sys.stderr)
    print("# " + " ".join(f"{k}={v}" for k, v in meta.items()))
    extra = {"psi_s": (e2e["psi_s"], "s"), "op_fail_ratio": (op_fail_ratio, "ratio")}
    for name, (value, unit) in {**{k: (values[k], units[k]) for k in units}, **extra}.items():
        shown = f"{value:>16d}" if isinstance(value, int) else f"{value:>16.6g}"
        print(f"# {name:32s} {shown} {unit}")
    metrics = {k: {"value": values[k], "unit": units[k]} for k in units}
    result = {
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": metrics,
    }
    samples = {
        "setup_s": setup,
        "wall_s": {op.key: [p[op.key].wall_s for p in plain] for op in ops},
    }
    (WORK / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps({"meta": meta, **result, "samples": samples}, indent=1) + "\n",
        encoding="utf-8",
    )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
