"""The records of a construction trace, and the one trace format.

The engine and the reference oracle build these records, the checks replay
them, and this module alone writes and reads them.  A trace file holds one
canonical JSON line per stage, each record an object keyed by its fields,
then a summary line with the schema version.  A run is mostly quiet stages,
and a quiet stage exists only as a line: `iter_lines` writes it from one
template, a line that is exactly the next quiet line is read without
parsing, and a trace in memory keeps only the other events.  Every other
line is read by `suites.load_json` and through field tables built from
each record's fields with the config schema's parsers, so an error, a
repeated field too, names the line and the field's JSON path.  It
imports no construction code, so `verify` and `psi` never load the engine.
"""

from __future__ import annotations

import json
from typing import NamedTuple

from .arith import position
from .suites import SpecError, bit, fields, items, list_of, load_json, natural


class Action(NamedTuple):
    e: int
    side: int
    witness: int
    restraint: int

    @property
    def position(self) -> int:
        return position(self.e, self.side)


class Removal(NamedTuple):
    n: int
    side: int
    by_e: int
    by_side: int
    inserted_at: int

    @property
    def by_position(self) -> int:
        return position(self.by_e, self.by_side)


class Snapshot(NamedTuple):
    side0: tuple[int, ...]
    side1: tuple[int, ...]


class TraceEvent(NamedTuple):
    stage: int
    action: Action | None
    removals: tuple[Removal, ...]
    snapshot: Snapshot | None = None

    @property
    def quiet(self) -> bool:
        """No action, removal or snapshot: a trace keeps no quiet event."""
        return self.action is None and not self.removals and self.snapshot is None


class TraceSummary(NamedTuple):
    schema: int
    horizon: int
    side0: tuple[int, ...]
    side1: tuple[int, ...]
    restraints: tuple[tuple[int, int], ...]  # (position, value), sorted

    @classmethod
    def of(cls, horizon: int, side0, side1, restraints: dict) -> TraceSummary:
        """The summary of a run under this schema; restraints maps position to value."""
        return cls(TRACE_SCHEMA, horizon, side0, side1, tuple(sorted(restraints.items())))


class Trace(NamedTuple):
    kept: list[TraceEvent]  # the events that are not quiet, in stage order
    summary: TraceSummary

    @property
    def events(self) -> tuple[TraceEvent, ...]:
        """The event of every stage below the horizon, read-only: a stage
        that keeps none gets a quiet event made on the spot.  Only the tests
        and perfbench/traced_cli.py read this view."""
        kept = {ev.stage: ev for ev in self.kept}
        return tuple(kept.get(s) or TraceEvent(s, None, ()) for s in range(self.summary.horizon))


TRACE_SCHEMA = 1


class TraceFormatError(ValueError):
    """The trace does not have the shape of a construction run."""


# ---------------------------------------------------------------------------
# writing


def canon(obj) -> str:
    """obj as canonical JSON: keys sorted, no spaces."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


# A quiet stage, one with no action, removal or snapshot, has the canonical
# line of TraceEvent(stage, None, [], None): this head, the stage, this tail.
_QUIET_HEAD, _, _QUIET_TAIL = canon(TraceEvent("", None, [], None)._asdict()).partition('""')


def event_line(ev: TraceEvent) -> str:
    """The event as one line, each nested record an object too (JSON would
    otherwise write a record as a list); a quiet event gives the template."""
    action, snapshot = (None if rec is None else rec._asdict() for rec in (ev.action, ev.snapshot))
    removals = [rm._asdict() for rm in ev.removals]
    return canon(TraceEvent(ev.stage, action, removals, snapshot)._asdict())


def iter_lines(trace: Trace):
    """Each stage's line, the quiet template between kept events, then the summary's."""
    s = 0  # the first stage not yet written
    for ev in trace.kept:
        yield from (f"{_QUIET_HEAD}{q}{_QUIET_TAIL}" for q in range(s, ev.stage))
        yield event_line(ev)
        s = ev.stage + 1
    yield from (f"{_QUIET_HEAD}{q}{_QUIET_TAIL}" for q in range(s, trace.summary.horizon))
    yield canon({"summary": trace.summary._asdict()})


def trace_lines(trace: Trace) -> list[str]:
    return list(iter_lines(trace))


# ---------------------------------------------------------------------------
# reading


def _tuple(parse):
    """Parser that keeps what `parse` gives as a tuple, as the records hold it."""
    return lambda raw, path: tuple(parse(raw, path))


def _optional(parse):
    """Parser that keeps JSON null as None and parses anything else."""
    return lambda raw, path: None if raw is None else parse(raw, path)


def _reader(cls):
    """Parser of a `cls` record: each field by its FIELDS entry, else as a natural."""
    table = {name: (FIELDS.get(name, natural),) for name in cls._fields}
    return lambda raw, path: cls._make(fields(raw, path, table).values())


# A trace field's value is a natural, unless this table gives its parser.
_naturals, _pairs = _tuple(list_of(natural)), _tuple(list_of(_tuple(items(natural, natural))))
FIELDS = {"side": bit, "by_side": bit, "side0": _naturals, "side1": _naturals, "restraints": _pairs}
FIELDS |= {  # an event's nested records, read through the entries above
    "action": _optional(_reader(Action)),
    "removals": _tuple(list_of(_reader(Removal))),
    "snapshot": _optional(_reader(Snapshot)),
}
_EVENT, _SUMMARY = _reader(TraceEvent), _reader(TraceSummary)


def _record_of(raw) -> TraceEvent | TraceSummary:
    """The record a parsed line holds: an event, or the summary, its root object's one field."""
    if not (isinstance(raw, dict) and "summary" in raw):
        return _EVENT(raw, "event")
    summary = fields(raw, "", {"summary": (_SUMMARY,)})["summary"]
    if summary.schema != TRACE_SCHEMA:
        raise SpecError(f"unsupported schema {summary.schema}")
    return summary


def parse_trace(lines) -> Trace:
    """The trace spelled by lines, keeping the events that are not quiet.
    A line that is exactly the quiet line of the next stage is counted
    without parsing; any other line goes through `load_json` and the field
    tables.  The events must carry stages 0, 1, ... in turn, one for each
    stage below the summary's horizon."""
    kept: list[TraceEvent] = []
    stages = 0  # the event lines read so far
    summary: TraceSummary | None = None
    for i, line in enumerate(lines, 1):
        if line == f"{_QUIET_HEAD}{stages}{_QUIET_TAIL}" and summary is None:
            stages += 1
            continue
        if not line.strip():
            continue
        try:
            raw = load_json(line)
            if summary is not None:
                raise SpecError("records after the summary line")
            got = _record_of(raw)
        except SpecError as err:
            raise TraceFormatError(f"line {i}: {err}") from None
        if isinstance(got, TraceSummary):
            summary = got
            continue
        if got.stage != stages:
            raise TraceFormatError(f"event {stages} carries stage {got.stage}")
        stages += 1
        if not got.quiet:
            kept.append(got)
    if summary is None:
        raise TraceFormatError("missing summary line")
    if stages != summary.horizon:
        raise TraceFormatError(f"trace has {stages} events for horizon {summary.horizon}")
    return Trace(kept, summary)
