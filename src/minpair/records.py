"""The records of a construction trace and the checks on their fields.

This module is the one place that names trace fields.  The engine and the
reference oracle build these records, the CLI writes each one as a JSON
object keyed by its fields and reads it back with FIELD_CHECKS, and the
checks replay them.  A run is mostly quiet stages, so a trace keeps only
the events that are not quiet; the horizon in its summary implies the
rest.  It imports no construction code, so the read side of the CLI
(`verify`, `psi`) never loads the engine.
"""

from __future__ import annotations

from typing import NamedTuple

from .arith import position
from .suites import _is_bit, _is_nat


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


class Trace(NamedTuple):
    kept: list[TraceEvent]  # the events that are not quiet, in stage order
    summary: TraceSummary

    @property
    def events(self) -> tuple[TraceEvent, ...]:
        """The event of every stage below the horizon, read-only: a stage
        that keeps none gets a quiet event made on the spot."""
        kept = {ev.stage: ev for ev in self.kept}
        return tuple(kept.get(s) or TraceEvent(s, None, ()) for s in range(self.summary.horizon))


TRACE_SCHEMA = 1


class TraceFormatError(ValueError):
    """The trace does not have the shape of a construction run."""


def _is_naturals(x) -> bool:
    return isinstance(x, list) and all(map(_is_nat, x))


def _is_pairs(x) -> bool:
    return isinstance(x, list) and all(_is_naturals(p) and len(p) == 2 for p in x)


# A trace writes each record above as a JSON object keyed by its fields.
# Each field's value is a natural, unless this table gives its check.
FIELD_CHECKS = {
    "side": _is_bit,
    "by_side": _is_bit,
    "side0": _is_naturals,
    "side1": _is_naturals,
    "restraints": _is_pairs,
}
