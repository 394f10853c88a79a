"""Command-line surface: run constructions, verify traces, print joint tables.

Config files are strict JSON, read by `suites.load_json` and checked
against the schema in `minpair.suites`: unknown and repeated fields are
rejected so experiment files stay self-documenting.  Trace lines are
written and read by `minpair.records`, which owns their format; this
module opens the files and replaces them atomically.  Exit codes: 0 all
checks pass (inconclusive does not fail), 1 a check failed, 2 config or
runtime error, 3 malformed trace.
"""

from __future__ import annotations

import json
import os
import sys
from contextlib import contextmanager
from pathlib import Path
from types import SimpleNamespace
from typing import TYPE_CHECKING, NamedTuple, Sequence

from . import records, suites
from .records import Trace, TraceFormatError
from .suites import EndToEndSpec, SpecError, build_suite

trace_lines = records.trace_lines  # the lines write_trace writes, as a list

if TYPE_CHECKING:
    from .analysis import VerificationReport


# ---------------------------------------------------------------------------
# config schema (the tables live in minpair.suites)


class RunConfig(NamedTuple):
    horizon: int
    snapshot_every: int = 0
    seed: int = 0
    functionals: Sequence = ()
    operators: Sequence = ()
    capture_checks: Sequence = ()  # [(e, side)]
    preservation_checks: Sequence = ()  # [(e0, e1)]
    end_to_end_checks: Sequence[EndToEndSpec] = ()


def parse_config(text: str) -> RunConfig:
    """Strictly parse and validate a config document."""
    raw = suites.load_json(text, "config")
    try:
        got = suites.fields(raw, "config", suites.CONFIG)
    except RecursionError:
        raise SpecError("config: nested too deeply") from None
    suite, checks = got["suite"], got["checks"]
    # the suite's fields and then the checks', in table order, end RunConfig
    head = (got["horizon"], got["snapshot_every"], got["seed"])
    return RunConfig(*head, *suite.values(), *checks.values())


def serialize_config(config: RunConfig) -> str:
    """The config as JSON; each check record is keyed by its table's fields."""
    horizon, snapshot_every, seed, functionals, operators, *rows = config
    obj = {"horizon": horizon, "snapshot_every": snapshot_every, "seed": seed}
    obj["suite"] = {"functionals": functionals, "operators": operators}
    checks = {
        name: [dict(zip(table, row)) for row in got]
        for (name, (_, table)), got in zip(suites.CHECK_RECORDS.items(), rows)
        if got
    }
    if checks:
        obj["checks"] = checks
    return json.dumps(obj, sort_keys=True, indent=2, default=str) + "\n"  # str: thresholds


def load_config(path: str | Path) -> RunConfig:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as err:
        raise SpecError(f"{path}: not UTF-8 at byte {err.start}") from None
    return parse_config(text)


def build_suites(config: RunConfig) -> tuple[suites.FunctionalSuite, suites.OperatorSuite]:
    return build_suite(config.functionals, config.operators, config.horizon, config.seed)


# ---------------------------------------------------------------------------
# trace persistence


@contextmanager
def _atomic_writer(path: str | Path):
    """Text file handle whose content replaces `path` only on success."""
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "w", encoding="utf-8") as fh:
            yield fh
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)


def write_trace(trace: Trace, path: str | Path) -> None:
    with _atomic_writer(path) as fh:
        fh.writelines(line + "\n" for line in records.iter_lines(trace))


def read_trace(path: str | Path) -> Trace:
    with open(path, "rb") as fh:
        return records.parse_trace(_lines(fh, path))


def _lines(fh, path):
    """The lines of the file's UTF-8 text, split as `str.splitlines` splits
    them, read one line of bytes at a time: a line's bytes end at b"\n" and
    hold whole characters, and splitting one again gives what splitting the
    whole text gives there."""
    for raw in fh:
        try:
            text = raw.decode("utf-8")
        except UnicodeDecodeError as err:
            at = fh.tell() - len(raw) + err.start  # the file is read up to the line's end
            raise TraceFormatError(f"{path}: not UTF-8 at byte {at}") from None
        yield from text.splitlines()


# ---------------------------------------------------------------------------
# report persistence


def serialize_report(report: VerificationReport) -> str:
    obj = {
        "checks": [
            {"name": c.name, "verdict": c.verdict, "detail": dict(c.detail)} for c in report.checks
        ],
        "meta": dict(report.meta),
    }
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


# ---------------------------------------------------------------------------
# commands

KNOWN_CHECKS = ("structural", "oracle", *suites.CHECK_RECORDS)

# Each command's help line and its flags, as (name, type, required).
COMMANDS = {
    "run": (
        "run a construction and write its trace",
        (("config", str, True), ("out", str, True)),
    ),
    "verify": (
        "check a trace against its config; CHECKS is a comma-separated\nsubset of "
        + ",".join(KNOWN_CHECKS),
        (("trace", str, True), ("config", str, True))
        + (("checks", str, False), ("report", str, False)),
    ),
    "psi": (
        "print the joint description table of a trace",
        (
            ("trace", str, True),
            ("config", str, True),
            ("e0", int, True),
            ("e1", int, True),
            ("bound", int, True),
        ),
    ),
}


def _cmd_run(args) -> int:
    from . import engine  # only run loads the construction

    config = load_config(args.config)
    fsuite, _ = build_suites(config)
    write_trace(engine.run(fsuite, config.horizon, config.snapshot_every), args.out)
    return 0


def _load_matching(args) -> tuple[RunConfig, Trace]:
    """The config and the trace, which must share one horizon."""
    config = load_config(args.config)
    trace = read_trace(args.trace)
    if trace.summary.horizon != config.horizon:
        raise SpecError(
            f"trace horizon {trace.summary.horizon} does not match config horizon {config.horizon}"
        )
    return config, trace


def _cmd_verify(args) -> int:
    from . import analysis  # only verify and psi pay for loading the checks

    config, trace = _load_matching(args)
    fsuite, osuite = build_suites(config)
    configured = dict(zip(suites.CHECK_RECORDS, config[5:]))  # check name -> its records
    if args.checks is None:
        selected = {"structural", "oracle"} | {name for name, rows in configured.items() if rows}
    else:
        selected = {name.strip() for name in args.checks.split(",") if name.strip()}
        unknown = selected - set(KNOWN_CHECKS)
        if unknown:
            raise SpecError(f"unknown check '{sorted(unknown)[0]}'")
        selected.add("structural")
    for name in suites.CHECK_RECORDS:
        if name in selected and not configured[name]:
            raise SpecError(f"{name} selected but config.checks.{name} is empty")
    wanted = {name: rows if name in selected else () for name, rows in configured.items()}

    rep = analysis.replay(trace)
    horizon = config.horizon
    # (result name pattern, report): a pattern's {} is the name of a check in its report
    reports = [("structural:{}", analysis.check_structural(trace, fsuite, rep))]
    if "oracle" in selected:
        ref = analysis.reference_run(fsuite, horizon, config.snapshot_every)
        oracle = analysis.CheckResult.of("oracle_equivalence", "pass" if ref == trace else "fail")
        reports.append(("{}", analysis.VerificationReport((oracle,))))
    for e, side in wanted["capture"]:
        sub = analysis.check_capture(trace, fsuite, e, side, horizon, rep)
        reports.append((f"capture[e={e},side={side}]", sub))
    for e0, e1 in wanted["preservation"]:
        sub = analysis.check_preservation(trace, osuite, e0, e1, horizon, rep)
        reports.append((f"preservation[e0={e0},e1={e1}]", sub))
    for spec in wanted["end_to_end"]:
        e0, e1, bound, threshold, _ = spec
        sub = analysis.check_end_to_end(
            trace, osuite, e0, e1, horizon, bound, spec.target_view(), threshold, rep
        )
        reports.append((f"end_to_end[e0={e0},e1={e1}]:{{}}", sub))
    results = [
        analysis.CheckResult(pattern.format(c.name), c.verdict, c.detail)
        for pattern, report in reports
        for c in report.checks
    ]

    report = analysis.VerificationReport(
        tuple(sorted(results, key=lambda c: c.name)),
        (("config", str(args.config)), ("horizon", horizon), ("trace", str(args.trace))),
    )
    text = serialize_report(report)
    if args.report is not None:
        with _atomic_writer(args.report) as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0 if report.passed else 1


def _cmd_psi(args) -> int:
    from . import analysis

    for flag, least in (("e0", 0), ("e1", 0), ("bound", 1)):
        if getattr(args, flag) < least:
            raise SpecError(f"--{flag} must be >= {least}, got {getattr(args, flag)}")
    config, trace = _load_matching(args)
    _, osuite = build_suites(config)
    table = analysis.synthesize_joint(trace, osuite, args.e0, args.e1, trace.summary.horizon)
    for n, (k, s) in sorted(table.items()):
        if n < args.bound:
            sys.stdout.write(records.canon({"k": k, "n": n, "stage": s}) + "\n")
    return 0


class UsageError(ValueError):
    """The command line does not match COMMANDS."""


def _usage() -> str:
    lines, helps = [], []
    for command, (text, flags) in COMMANDS.items():
        spelled = [
            f"--{name} {name.upper()}" if required else f"[--{name} {name.upper()}]"
            for name, _, required in flags
        ]
        lines.append(" ".join(["minpair", command, *spelled]))
        helps.append(f"  {command:<7} " + text.replace("\n", "\n" + " " * 10))
    return (
        "usage: " + "\n       ".join(lines) + "\n\n"
        "Run the finite-injury construction and verify its traces.\n" + "\n".join(helps) + "\n"
    )


def parse_args(argv: Sequence[str]) -> tuple[str, SimpleNamespace]:
    """The command and its flags, as `--flag value` or `--flag=value`; an
    optional flag that is absent is None, and a repeated flag keeps its last
    value."""
    if not argv:
        raise UsageError("no command given")
    command, *rest = argv
    if command not in COMMANDS:
        raise UsageError(f"unknown command '{command}'")
    flags = {f"--{name}": (name, kind) for name, kind, _ in COMMANDS[command][1]}
    values: dict[str, object] = {}
    tokens = iter(rest)
    for token in tokens:
        flag, eq, value = token.partition("=")
        if flag not in flags:
            raise UsageError(f"unknown argument '{flag}'")
        if not eq:
            value = next(tokens, None)
            if value is None or value.startswith("--"):
                raise UsageError(f"{flag} needs a value")
        name, kind = flags[flag]
        try:
            values[name] = kind(value)
        except ValueError:
            raise UsageError(f"{flag} must be an integer, got '{value}'") from None
    for name, _, required in COMMANDS[command][1]:
        if required and name not in values:
            raise UsageError(f"--{name} is required")
        values.setdefault(name, None)
    return command, SimpleNamespace(**values)


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    if "-h" in argv or "--help" in argv:
        sys.stdout.write(_usage())
        return 0
    try:
        command, args = parse_args(argv)
    except UsageError as err:
        sys.stderr.write(f"{_usage()}minpair: error: {err}\n")
        return 2
    handlers = {"run": _cmd_run, "verify": _cmd_verify, "psi": _cmd_psi}
    try:
        return handlers[command](args)
    except TraceFormatError as err:
        print(f"minpair: malformed trace: {err}", file=sys.stderr)
        return 3
    except (SpecError, OSError) as err:
        print(f"minpair: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
