"""Command-line surface: run constructions, verify traces, print joint tables.

Config files are strict JSON: unknown fields are rejected so experiment
files stay self-documenting.  Traces are line-delimited JSON, one
self-contained event record per line in canonical key order followed by a
summary record carrying a schema version; identical configs produce
byte-identical files.  Exit codes: 0 all checks pass (inconclusive does not
fail), 1 a check failed, 2 config or runtime error, 3 malformed trace.
"""

from __future__ import annotations

import gc
import json
import os
import sys
from contextlib import contextmanager
from pathlib import Path
from types import SimpleNamespace
from typing import TYPE_CHECKING, NamedTuple, Sequence

from .records import (
    FIELD_CHECKS,
    Action,
    Removal,
    Snapshot,
    Trace,
    TraceEvent,
    TraceFormatError,
    TraceSummary,
    TRACE_SCHEMA,
)
from .suites import (
    FunctionalSuite,
    OperatorSuite,
    SpecError,
    SuiteValidationError,
    _is_bit,
    _is_nat,
    build_suite,
    compile_functional,
    compile_operator,
)

if TYPE_CHECKING:
    from fractions import Fraction

    from .analysis import CheckResult, VerificationReport


class ConfigError(ValueError):
    """The config file violates the documented schema."""


# ---------------------------------------------------------------------------
# config schema


class EndToEndSpec(NamedTuple):
    e0: int
    e1: int
    bound: int
    threshold: Fraction
    target: tuple[tuple[str, object], ...]  # normalized tagged record

    def target_bits(self) -> list[int]:
        spec = dict(self.target)
        if spec["kind"] == "parity":
            return [n & 1 for n in range(self.bound)]
        if spec["kind"] == "const":
            return [spec["value"]] * self.bound  # type: ignore[list-item]
        return list(spec["values"])[: self.bound]  # type: ignore[arg-type]


class RunConfig(NamedTuple):
    horizon: int
    snapshot_every: int = 0
    seed: int = 0
    functionals: Sequence = ()
    operators: Sequence = ()
    capture_checks: Sequence = ()  # [(e, side)]
    preservation_checks: Sequence = ()  # [(e0, e1)]
    end_to_end_checks: Sequence = ()  # [EndToEndSpec]

    def to_json_obj(self) -> dict:
        obj: dict = {
            "horizon": self.horizon,
            "snapshot_every": self.snapshot_every,
            "seed": self.seed,
            "suite": {"functionals": self.functionals, "operators": self.operators},
        }
        checks: dict = {}
        if self.capture_checks:
            checks["capture"] = [{"e": e, "side": side} for e, side in self.capture_checks]
        if self.preservation_checks:
            checks["preservation"] = [
                {"e0": e0, "e1": e1} for e0, e1 in self.preservation_checks
            ]
        if self.end_to_end_checks:
            checks["end_to_end"] = [
                {
                    "e0": s.e0,
                    "e1": s.e1,
                    "bound": s.bound,
                    "threshold": str(s.threshold),
                    "target": dict(s.target),
                }
                for s in self.end_to_end_checks
            ]
        if checks:
            obj["checks"] = checks
        return obj


def _expect_fields(obj: dict, path: str, required: set[str], optional: set[str]) -> None:
    if not isinstance(obj, dict):
        raise ConfigError(f"{path}: must be an object")
    unknown = sorted(set(obj) - required - optional)
    if unknown:
        raise ConfigError(f"{path}: unknown field '{unknown[0]}'")
    missing = sorted(required - set(obj))
    if missing:
        raise ConfigError(f"{path}: missing field '{missing[0]}'")


def _parse_target(raw, path: str) -> tuple[tuple[str, object], ...]:
    if not isinstance(raw, dict) or "kind" not in raw:
        raise ConfigError(f"{path}: target must be a tagged object")
    kind = raw["kind"]
    if kind == "parity":
        _expect_fields(raw, path, {"kind"}, set())
        return (("kind", "parity"),)
    if kind == "const":
        _expect_fields(raw, path, {"kind", "value"}, set())
        if not _is_bit(raw["value"]):
            raise ConfigError(f"{path}.value: must be a bit")
        return (("kind", "const"), ("value", raw["value"]))
    if kind == "bits":
        _expect_fields(raw, path, {"kind", "values"}, set())
        values = raw["values"]
        if not isinstance(values, list) or not all(_is_bit(v) for v in values):
            raise ConfigError(f"{path}.values: must be a list of bits")
        return (("kind", "bits"), ("values", tuple(values)))
    raise ConfigError(f"{path}: unknown kind '{kind}'")


def parse_config(text: str) -> RunConfig:
    """Strictly parse and validate a config document."""
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as err:
        raise ConfigError(f"line {err.lineno} column {err.colno}: {err.msg}") from None
    _expect_fields(
        raw, "config", {"horizon", "suite"}, {"snapshot_every", "seed", "probe", "checks"}
    )
    if not _is_nat(raw["horizon"]):
        raise ConfigError("config.horizon: must be >= 0")
    snapshot_every = raw.get("snapshot_every", 0)
    if not _is_nat(snapshot_every):
        raise ConfigError("config.snapshot_every: must be >= 0")
    seed = raw.get("seed", 0)
    if not isinstance(seed, int) or isinstance(seed, bool):
        raise ConfigError("config.seed: must be an integer")

    suite = raw["suite"]
    _expect_fields(suite, "config.suite", {"functionals"}, {"operators"})
    functionals = suite["functionals"]
    operators = suite.get("operators", [])
    if not isinstance(functionals, list):
        raise ConfigError("config.suite.functionals: must be a list")
    if not isinstance(operators, list):
        raise ConfigError("config.suite.operators: must be a list")
    for i, spec in enumerate(functionals):
        try:
            compile_functional(spec, seed)
        except SpecError as err:
            raise ConfigError(f"config.suite.functionals[{i}]: {err}") from None
        except SuiteValidationError as err:
            raise SuiteValidationError(f"config.suite.functionals[{i}]: {err}") from None
    for i, spec in enumerate(operators):
        try:
            compile_operator(spec, 4)  # shape check only; real bound set at build
        except SpecError as err:
            raise ConfigError(f"config.suite.operators[{i}]: {err}") from None

    if "probe" in raw:  # accepted and ignored: stability holds by construction
        _expect_fields(raw["probe"], "config.probe", {"points", "stages"}, set())
        if not _is_nat(raw["probe"]["points"]) or not _is_nat(raw["probe"]["stages"]):
            raise ConfigError("config.probe: points and stages must be naturals")

    capture_checks: list = []
    preservation_checks: list = []
    end_to_end_checks: list = []
    if "checks" in raw:
        _expect_fields(
            raw["checks"], "config.checks", set(), {"capture", "preservation", "end_to_end"}
        )
        for i, entry in enumerate(raw["checks"].get("capture", [])):
            path = f"config.checks.capture[{i}]"
            _expect_fields(entry, path, {"e", "side"}, set())
            if not _is_nat(entry["e"]) or not _is_bit(entry["side"]):
                raise ConfigError(f"{path}: e must be a natural and side a bit")
            capture_checks.append((entry["e"], entry["side"]))
        for i, entry in enumerate(raw["checks"].get("preservation", [])):
            path = f"config.checks.preservation[{i}]"
            _expect_fields(entry, path, {"e0", "e1"}, set())
            if not _is_nat(entry["e0"]) or not _is_nat(entry["e1"]):
                raise ConfigError(f"{path}: e0 and e1 must be naturals")
            preservation_checks.append((entry["e0"], entry["e1"]))
        for i, entry in enumerate(raw["checks"].get("end_to_end", [])):
            path = f"config.checks.end_to_end[{i}]"
            _expect_fields(entry, path, {"e0", "e1", "bound", "threshold", "target"}, set())
            if not _is_nat(entry["e0"]) or not _is_nat(entry["e1"]):
                raise ConfigError(f"{path}: e0 and e1 must be naturals")
            if not _is_nat(entry["bound"]) or entry["bound"] < 1:
                raise ConfigError(f"{path}.bound: must be >= 1")
            from fractions import Fraction  # only end_to_end checks load it

            try:
                threshold = Fraction(str(entry["threshold"]))
            except (ValueError, ZeroDivisionError):
                raise ConfigError(f"{path}.threshold: not a rational") from None
            target = _parse_target(entry["target"], f"{path}.target")
            if dict(target)["kind"] == "bits" and len(dict(target)["values"]) < entry["bound"]:
                raise ConfigError(f"{path}: target bits shorter than bound")
            end_to_end_checks.append(
                EndToEndSpec(entry["e0"], entry["e1"], entry["bound"], threshold, target)
            )

    return RunConfig(
        horizon=raw["horizon"],
        snapshot_every=snapshot_every,
        seed=seed,
        functionals=functionals,
        operators=operators,
        capture_checks=capture_checks,
        preservation_checks=preservation_checks,
        end_to_end_checks=end_to_end_checks,
    )


def serialize_config(config: RunConfig) -> str:
    return json.dumps(config.to_json_obj(), sort_keys=True, indent=2) + "\n"


def load_config(path: str | Path) -> RunConfig:
    return parse_config(Path(path).read_text(encoding="utf-8"))


def build_suites(config: RunConfig) -> tuple[FunctionalSuite, OperatorSuite]:
    return build_suite(
        config.functionals, config.operators, config.horizon, default_seed=config.seed
    )


# ---------------------------------------------------------------------------
# trace persistence


def _canon(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


# A quiet stage, one with no action, removal or snapshot, has the canonical
# line of TraceEvent(stage, None, [], None): this head, the stage, this tail.
_QUIET_HEAD, _, _QUIET_TAIL = _canon(TraceEvent("", None, [], None)._asdict()).partition('""')


def _event_line(ev: TraceEvent) -> str:
    """The event as one line, each nested record an object too (JSON would
    otherwise write a record as a list)."""
    stage, action, removals, snapshot = ev
    if action is None and not removals and snapshot is None:
        return f"{_QUIET_HEAD}{stage}{_QUIET_TAIL}"
    return _canon(
        TraceEvent(
            stage,
            None if action is None else action._asdict(),
            [rm._asdict() for rm in removals],
            None if snapshot is None else snapshot._asdict(),
        )._asdict()
    )


def _summary_line(summary: TraceSummary) -> str:
    return _canon({"summary": summary._asdict()})


def trace_lines(trace: Trace) -> list[str]:
    return [_event_line(ev) for ev in trace.events] + [_summary_line(trace.summary)]


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
        fh.write("\n".join(trace_lines(trace)) + "\n")


def _values(cls, raw, where: str) -> list:
    """The values of `raw` in the field order of `cls`; its keys must be exactly those fields."""
    # With as many keys as fields, finding every field rules out any other key.
    if isinstance(raw, dict) and len(raw) == len(cls._fields):
        try:
            return [raw[key] for key in cls._fields]
        except KeyError:
            pass
    raise TraceFormatError(f"{where}: malformed {cls.__name__} record")


def _frozen(value):
    """JSON lists as the tuples that the record types hold."""
    return tuple(map(_frozen, value)) if isinstance(value, list) else value


def _record(cls, raw, where: str):
    """The `cls` record that `raw` spells, each field checked by its entry in
    `records.FIELD_CHECKS` or else as a natural."""
    values = _values(cls, raw, where)
    for key, value in zip(cls._fields, values):
        if not FIELD_CHECKS.get(key, _is_nat)(value):
            raise TraceFormatError(f"{where}: malformed {cls.__name__}.{key}")
    return cls._make(map(_frozen, values))


@contextmanager
def _collector_paused():
    """Pause the cyclic garbage collector.  Trace records and the engine's
    state hold no reference cycles, so collecting while a list of records
    grows frees nothing, yet each full collection walks the whole list
    again."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if enabled:
            gc.enable()


def read_trace(path: str | Path) -> Trace:
    text = Path(path).read_text(encoding="utf-8")
    with _collector_paused():
        return _parse_trace(text.splitlines())


def _parse_trace(lines: list[str]) -> Trace:
    """The trace spelled by lines.  A line that is exactly the quiet line of
    the next stage is taken without parsing, as the record that parsing it
    would give; any other line goes through `json.loads` and the strict
    checks."""
    events: list[TraceEvent] = []
    summary: TraceSummary | None = None
    for i, line in enumerate(lines):
        stage = len(events)
        if line == f"{_QUIET_HEAD}{stage}{_QUIET_TAIL}" and summary is None:
            events.append(TraceEvent(stage, None, (), None))
            continue
        if not line.strip():
            continue
        where = f"line {i + 1}"
        try:
            raw = json.loads(line)
        except json.JSONDecodeError as err:
            raise TraceFormatError(f"{where}: {err.msg}") from None
        if summary is not None:
            raise TraceFormatError(f"{where}: records after the summary line")
        if isinstance(raw, dict) and "summary" in raw:
            if raw.keys() != {"summary"}:
                raise TraceFormatError(f"{where}: malformed summary record")
            summary = _record(TraceSummary, raw["summary"], where)
            if summary.schema != TRACE_SCHEMA:
                raise TraceFormatError(f"{where}: unsupported schema {summary.schema}")
        else:
            stage, action, removals, snapshot = _values(TraceEvent, raw, where)
            if not _is_nat(stage) or not isinstance(removals, list):
                raise TraceFormatError(f"{where}: malformed TraceEvent record")
            events.append(
                TraceEvent(
                    stage,
                    None if action is None else _record(Action, action, where),
                    tuple([_record(Removal, rm, where) for rm in removals]),
                    None if snapshot is None else _record(Snapshot, snapshot, where),
                )
            )
    if summary is None:
        raise TraceFormatError("missing summary line")
    return Trace(events, summary)


# ---------------------------------------------------------------------------
# report persistence


def report_json_obj(report: VerificationReport) -> dict:
    return {
        "checks": [
            {"name": c.name, "verdict": c.verdict, "detail": dict(c.detail)} for c in report.checks
        ],
        "meta": dict(report.meta),
    }


def serialize_report(report: VerificationReport) -> str:
    return json.dumps(report_json_obj(report), sort_keys=True, indent=2) + "\n"


# ---------------------------------------------------------------------------
# commands

KNOWN_CHECKS = ("structural", "oracle", "capture", "preservation", "end_to_end")

# Each command's help line and its flags, as (name, type, required).
COMMANDS = {
    "run": (
        "run a construction and write its trace",
        (("config", str, True), ("out", str, True)),
    ),
    "verify": (
        "check a trace against its config; CHECKS is a comma-separated\nsubset of "
        + ",".join(KNOWN_CHECKS),
        (("trace", str, True), ("config", str, True), ("checks", str, False), ("report", str, False)),
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
    with _atomic_writer(args.out) as fh, _collector_paused():
        trace = engine.run(
            fsuite,
            config.horizon,
            config.snapshot_every,
            on_event=lambda ev: fh.write(_event_line(ev) + "\n"),
        )
        fh.write(_summary_line(trace.summary) + "\n")
    return 0


def _load_matching(args) -> tuple[RunConfig, Trace]:
    """The config and the trace, which must share one horizon."""
    config = load_config(args.config)
    trace = read_trace(args.trace)
    if trace.summary.horizon != config.horizon:
        raise ConfigError(
            f"trace horizon {trace.summary.horizon} does not match config horizon {config.horizon}"
        )
    return config, trace


def _cmd_verify(args) -> int:
    from . import analysis  # only verify and psi pay for loading the checks

    config, trace = _load_matching(args)
    fsuite, osuite = build_suites(config)
    if args.checks is None:
        selected = {"structural", "oracle"}
        if config.capture_checks:
            selected.add("capture")
        if config.preservation_checks:
            selected.add("preservation")
        if config.end_to_end_checks:
            selected.add("end_to_end")
    else:
        selected = {name.strip() for name in args.checks.split(",") if name.strip()}
        unknown = selected - set(KNOWN_CHECKS)
        if unknown:
            raise ConfigError(f"unknown check '{sorted(unknown)[0]}'")
        selected.add("structural")

    rep = analysis.replay(trace)
    results: list[CheckResult] = []
    structural = analysis.check_structural(trace, fsuite, rep)
    results.extend(
        analysis.CheckResult(f"structural:{c.name}", c.verdict, c.detail)
        for c in structural.checks
    )
    if "oracle" in selected:
        ref = analysis.reference_run(fsuite, config.horizon, config.snapshot_every)
        results.append(
            analysis.CheckResult.of("oracle_equivalence", "pass" if ref == trace else "fail")
        )
    if "capture" in selected:
        if not config.capture_checks:
            raise ConfigError("capture selected but config.checks.capture is empty")
        for e, side in config.capture_checks:
            sub = analysis.check_capture(trace, fsuite, e, side, config.horizon, rep)
            results.extend(
                analysis.CheckResult(f"capture[e={e},side={side}]", c.verdict, c.detail)
                for c in sub.checks
            )
    shared: dict = {}  # each (e0, e1)'s enumerations, shared by preservation and end_to_end
    if "preservation" in selected:
        if not config.preservation_checks:
            raise ConfigError("preservation selected but config.checks.preservation is empty")
        for e0, e1 in config.preservation_checks:
            sub = analysis.check_preservation(trace, osuite, e0, e1, config.horizon, rep, shared)
            results.extend(
                analysis.CheckResult(f"preservation[e0={e0},e1={e1}]", c.verdict, c.detail)
                for c in sub.checks
            )
    if "end_to_end" in selected:
        if not config.end_to_end_checks:
            raise ConfigError("end_to_end selected but config.checks.end_to_end is empty")
        for spec in config.end_to_end_checks:
            sub = analysis.check_end_to_end(
                trace,
                osuite,
                spec.e0,
                spec.e1,
                config.horizon,
                spec.bound,
                spec.target_bits(),
                spec.threshold,
                rep,
                shared,
            )
            results.extend(
                analysis.CheckResult(
                    f"end_to_end[e0={spec.e0},e1={spec.e1}]:{c.name}", c.verdict, c.detail
                )
                for c in sub.checks
            )

    report = analysis.VerificationReport(
        tuple(sorted(results, key=lambda c: c.name)),
        (("config", str(args.config)), ("horizon", config.horizon), ("trace", str(args.trace))),
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

    if args.bound < 1:
        raise ConfigError(f"--bound must be >= 1, got {args.bound}")
    config, trace = _load_matching(args)
    _, osuite = build_suites(config)
    table = analysis.synthesize_joint(trace, osuite, args.e0, args.e1, trace.summary.horizon)
    for n, k, s in table.rows():
        if n < args.bound:
            sys.stdout.write(_canon({"k": k, "n": n, "stage": s}) + "\n")
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
    except (ConfigError, SpecError, SuiteValidationError) as err:
        print(f"minpair: {err}", file=sys.stderr)
        return 2
    except OSError as err:
        print(f"minpair: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
