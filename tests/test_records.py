from __future__ import annotations

import io
import json

import pytest
from hypothesis import given, settings, strategies as st

import naive_checks
from config_gen import SCENARIO_CONFIG, random_config
from conftest import make_suites
from minpair import records
from minpair.analysis import CheckResult, reference_run
from minpair.cli import read_trace, write_trace
from minpair.engine import MUTATIONS, Action, Removal, TraceEvent, run
from minpair.records import Snapshot, Trace, TraceSummary, canon, event_line, trace_lines
from minpair.graphs import ExplicitGraph
from minpair.operators import Axiom, EnumOperator


@pytest.mark.parametrize(
    "a, b",
    [
        (Snapshot((1,), (2,)), Snapshot(side0=(1,), side1=(2,))),
        (
            CheckResult.of("capture", "pass", witness=1),
            CheckResult("capture", "pass", (("witness", 1),)),
        ),
        (Axiom.of([7, 3, 7], 1), Axiom((3, 7), 1)),
        (
            EnumOperator.from_staged([(4, Axiom.of([], 1)), (2, Axiom.of([], 3))]),
            EnumOperator(((2, Axiom((), 3)), (4, Axiom((), 1)))),
        ),
        (Action(0, 1, 3, 4), Action(e=0, side=1, witness=3, restraint=4)),
        (Removal(6, 1, 1, 1, 35), Removal(6, 1, 1, 1, 35)),
        (TraceEvent(3, None, ()), TraceEvent(3, None, (), None)),
    ],
)
def test_equal_records_hash_equal(a, b):
    assert a == b and hash(a) == hash(b)
    assert len({a, b}) == 1


@pytest.mark.parametrize(
    "record, field",
    [
        (Snapshot((1,), ()), "side0"),
        (Removal(6, 1, 1, 1, 35), "by_e"),
        (TraceSummary(1, 5, (), (), ()), "horizon"),
        (Axiom((2,), 0), "output"),
        (EnumOperator(()), "staged_axioms"),
        (Action(0, 0, 1, 2), "witness"),
        (TraceEvent(0, None, ()), "snapshot"),
        (CheckResult.of("capture", "pass"), "verdict"),
    ],
)
def test_frozen_records_reject_assignment(record, field):
    with pytest.raises(AttributeError):
        setattr(record, field, ())


@pytest.mark.parametrize(
    "build",
    [
        lambda: ExplicitGraph(((1, 2),)),  # value not a bit
        lambda: ExplicitGraph(((-1, 0),)),  # negative point
        lambda: ExplicitGraph(((3, 1), (3, 0))),  # point mapped twice
        lambda: ExplicitGraph(((0, -1),)),  # negative value
        lambda: ExplicitGraph(((0, 1), (2, 0), (0, 1))),  # point repeated, same value
        lambda: EnumOperator.from_staged([(-1, Axiom.of([], 0))]),  # negative stage
        lambda: Axiom((-1,), 0),
        lambda: Axiom((2, 1), 0),  # premise not sorted
        lambda: Axiom((1, 1), 0),  # premise repeats a code
        lambda: Axiom((), -1),
    ],
)
def test_malformed_records_raise_value_error(build):
    with pytest.raises(ValueError):
        build()


def dense_lines(trace):
    """The writer's specification: `event_line` of each event of the dense
    `Trace.events` view, then the canonical summary line."""
    return [event_line(ev) for ev in trace.events] + [canon({"summary": trace.summary._asdict()})]


def writer_cases():
    for seed in range(10):
        raw = random_config(seed, 400)
        fsuite, _ = make_suites(raw)
        for snapshot_every in (0, 37):
            yield reference_run(fsuite, 400, snapshot_every)
            for mutation in (None, *MUTATIONS):
                yield run(fsuite, 400, snapshot_every, mutation)
    summary = TraceSummary.of(6, (1,), (), {0: 0})
    last = TraceEvent(5, None, (), Snapshot((1,), ()))
    yield Trace([TraceEvent(0, Action(0, 0, 1, 0), ()), last], summary)
    yield Trace([TraceEvent(0, None, ()), TraceEvent(3, None, (), None), last], summary)
    yield Trace([], TraceSummary.of(0, (), (), {}))


def test_trace_lines_equal_the_dense_rendering():
    """Quiet stages written from the template give the bytes of rendering a
    quiet event of every stage, kept events at the first and last stage
    and kept quiet events too."""
    for trace in writer_cases():
        assert trace_lines(trace) == dense_lines(trace)


# -- the reader


def reader_cases() -> list[bytes]:
    """The bytes of small engine traces: the scenario's, and random configs'
    with and without snapshots, which keep actions, removals and snapshots."""
    cases = [(SCENARIO_CONFIG, 5, 0)]
    cases += [(random_config(seed), 60, every) for seed in range(4) for every in (0, 7)]
    return [
        "".join(records.iter_lines(run(make_suites(raw)[0], horizon, every))).encode()
        for raw, horizon, every in cases
    ]


READER_CASES = reader_cases()
SEPARATORS = [b"\r", b"\r\n", b"\x0b", b"\x0c", b"\x1c", "\x85".encode(), "\u2028".encode()]
BLANKS = [b"\n", b" \n", b"\t \n", "\u00a0\n".encode()]
NOT_UTF8 = [b"\xff", b"\x80", b"\xc2", b"\xed\xa0\x80"]


def respell(line: bytes, style: str) -> bytes:
    """A line holding a JSON object, spelled with spaces or with its keys in
    another order; any other line as it is."""
    try:
        record = json.loads(line)
    except ValueError:
        return line
    if not isinstance(record, dict):
        return line
    if style == "spaces":
        return json.dumps(record).encode() + b"\n"
    reordered = dict(reversed(record.items()))
    return json.dumps(reordered, separators=(",", ":")).encode() + b"\n"


def mutate(data: bytes, draw) -> bytes:
    """data with one edit: a line separator or a byte that is not UTF-8
    inserted or put for a newline, a blank line, a line respelled, a quiet
    line after the summary or among the events, or the final newline dropped."""
    lines = io.BytesIO(data).readlines()
    edit = draw(st.sampled_from(["insert", "newline", "blank", "respell", "quiet", "unended"]))
    k = draw(st.integers(0, max(len(lines) - 1, 0)))
    if edit == "insert":
        at = draw(st.integers(0, len(data)))
        return data[:at] + draw(st.sampled_from(SEPARATORS + BLANKS + NOT_UTF8)) + data[at:]
    if edit == "newline" and lines:
        lines[k] = lines[k].rstrip(b"\n") + draw(st.sampled_from(SEPARATORS + NOT_UTF8))
    elif edit == "blank":
        lines.insert(k, draw(st.sampled_from(BLANKS)))
    elif edit == "respell" and lines:
        lines[k] = respell(lines[k], draw(st.sampled_from(["spaces", "reordered"])))
    elif edit == "quiet":  # after the summary, or at line k; of the horizon's stage, or of k
        stage = draw(st.sampled_from([len(lines) - 1, k]))
        lines.insert(draw(st.sampled_from([len(lines), k])), records._QUIET_BYTES % stage)
    elif edit == "unended" and lines:
        lines[-1] = lines[-1].rstrip(b"\n")
    return b"".join(lines)


def outcome(read, data: bytes):
    """What read gives on data: the trace, or the type and message of its error."""
    try:
        return read(io.BytesIO(data), "t.trace")
    except Exception as err:  # any error must match, its type and message too
        return type(err), str(err)


@settings(max_examples=400, deadline=None)
@given(st.sampled_from(READER_CASES), st.integers(1, 3), st.data())
def test_reader_matches_its_specification_on_mutated_bytes(data, edits, draws):
    """`records.parse_trace` gives the trace, or the error and message, that
    decoding and splitting every line first and comparing quiet lines as
    text gives, on trace bytes with up to three edits."""
    for _ in range(edits):
        data = mutate(data, draws.draw)
    assert outcome(records.parse_trace, data) == outcome(naive_checks.read_trace, data)


@pytest.mark.parametrize("seed", range(10))
def test_read_trace_parses_only_the_lines_that_are_not_quiet(tmp_path, monkeypatch, seed):
    """Reading an engine trace parses each kept event's line and the
    summary's with `load_json`, and no quiet line: a quiet template that the
    reader fails to match would cost one parse per stage."""
    fsuite, _ = make_suites(random_config(seed, 3200))
    calls, real = [], records.load_json
    monkeypatch.setattr(records, "load_json", lambda text: calls.append(text) or real(text))
    path = tmp_path / "t.trace"
    for snapshot_every in (0, 37):
        trace = run(fsuite, 3200, snapshot_every)
        write_trace(trace, path)
        calls.clear()
        assert read_trace(path) == trace
        assert len(calls) == len(trace.kept) + 1
