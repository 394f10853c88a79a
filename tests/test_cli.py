from __future__ import annotations

import contextlib
import io
import json
import os
import re
import shutil
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path
from typing import NamedTuple

import pytest
from hypothesis import given, settings, strategies as st

from config_gen import SCENARIO_CONFIG, random_config
from minpair import cli, engine, records
from minpair.analysis import TraceFormatError, replay
from minpair.cli import (
    EndToEndSpec,
    build_suites,
    main,
    parse_config,
    read_trace,
    serialize_config,
    trace_lines,
    write_trace,
)
from minpair.engine import Action, TraceEvent
from minpair.suites import SpecError


def write_config(path, raw) -> str:
    path.write_text(json.dumps(raw), encoding="utf-8")
    return str(path)


@pytest.fixture
def scenario_config_path(tmp_path):
    return write_config(tmp_path / "scenario.json", SCENARIO_CONFIG)


# -- config parsing -----------------------------------------------------------


def test_parse_scenario_config():
    cfg = parse_config(json.dumps(SCENARIO_CONFIG))
    assert cfg.horizon == 5
    assert cfg.snapshot_every == 0
    assert cfg.functionals == [{"kind": "total_const", "value": 0}]
    assert cfg.operators == []


# A config that fills every record of the schema, so that each can be broken.
FULL_CONFIG = {
    "horizon": 5,
    "snapshot_every": 0,
    "seed": 0,
    "suite": {
        "functionals": [
            {"kind": "total_const", "value": 0},
            {"kind": "total_fn", "table": [0, 1], "fill": "zero"},
            {"kind": "undefined_on_class", "e": 0, "value": 1},
            {"kind": "delayed", "inner": {"kind": "empty"}, "delay": {"a": 1, "b": 0}},
            {"kind": "random_partial", "density": 0.5, "values": "parity", "seed": 3},
            {"kind": "empty"},
            {"kind": "table_partial", "entries": [[2, 1, 5]]},
            {"kind": "machine", "program": [["inc", 1], ["decjz", 1, 0], ["halt"]]},
        ],
        "operators": [
            {"kind": "axioms", "axioms": [{"stage": 8, "premise": [[1, 1]], "output": [5, 1]}]},
            {"kind": "machine", "program": [["halt"]]},
        ],
    },
    "checks": {
        "capture": [{"e": 0, "side": 0}],
        "preservation": [{"e0": 0, "e1": 1}],
        "end_to_end": [
            {"e0": 0, "e1": 1, "bound": 4, "threshold": "1/2", "target": {"kind": "parity"}},
            {"e0": 0, "e1": 1, "bound": 4, "threshold": 1, "target": {"kind": "const", "value": 1}},
            {"e0": 0, "e1": 1, "bound": 4, "threshold": "0", "target": {"kind": "bits", "values": [1, 0, 1, 0]}},
        ],
    },
}

# Each record with a schema table: where it sits in FULL_CONFIG, its JSON
# path, and a required field with a value of the wrong type for it (None
# when the record has no required field).
SCHEMA_RECORDS = [
    ((), "config", "horizon", -1),
    (("suite",), "config.suite", "functionals", {}),
    (("checks",), "config.checks", None, None),
    (("checks", "capture", 0), "config.checks.capture[0]", "side", 2),
    (("checks", "preservation", 0), "config.checks.preservation[0]", "e1", "1"),
    (("checks", "end_to_end", 0), "config.checks.end_to_end[0]", "bound", 0),
    (("checks", "end_to_end", 0, "target"), "config.checks.end_to_end[0].target", None, None),
    (("checks", "end_to_end", 1, "target"), "config.checks.end_to_end[1].target", "value", 2),
    (("checks", "end_to_end", 2, "target"), "config.checks.end_to_end[2].target", "values", [2]),
    (("suite", "functionals", 0), "config.suite.functionals[0]", "value", True),
    (("suite", "functionals", 1), "config.suite.functionals[1]", "table", [0, 2]),
    (("suite", "functionals", 2), "config.suite.functionals[2]", "e", -1),
    (("suite", "functionals", 3), "config.suite.functionals[3]", "inner", {"kind": 0}),
    (("suite", "functionals", 4), "config.suite.functionals[4]", "density", 1.5),
    (("suite", "functionals", 5), "config.suite.functionals[5]", None, None),
    (("suite", "functionals", 6), "config.suite.functionals[6]", "entries", [[2, 1]]),
    (("suite", "functionals", 7), "config.suite.functionals[7]", "program", [["jmp", 0]]),
    (("suite", "operators", 0), "config.suite.operators[0]", "axioms", {}),
    (("suite", "operators", 1), "config.suite.operators[1]", "program", "halt"),
    (("suite", "operators", 0, "axioms", 0), "config.suite.operators[0].axioms[0]", "premise", [-1]),
]


def broken_configs():
    """(id, config, substrings its rejection must name) for each record: an
    unknown field, a missing required field and a value of the wrong type."""
    for where, path, field, wrong in SCHEMA_RECORDS:
        yield f"{path}-unknown", where, lambda obj: obj.update(experiment=1), (f"{path}.experiment",)
        if field is not None:
            yield f"{path}-missing", where, lambda obj, f=field: obj.pop(f), (f"{path}.{field}",)
            yield (
                f"{path}-wrong",
                where,
                lambda obj, f=field, v=wrong: obj.update({f: v}),
                (f"{path}.{field}",),
            )
    # an instruction is a list whose first item names the opcode
    program = ("suite", "functionals", 7, "program")
    path = "config.suite.functionals[7].program"
    yield f"{path}[0]-unknown", program, lambda p: p.__setitem__(0, ["jmp"]), (f"{path}[0][0]", "jmp")
    yield f"{path}[0]-missing", program, lambda p: p.__setitem__(0, ["inc"]), (f"{path}[0]",)
    yield f"{path}[1]-wrong", program, lambda p: p.__setitem__(1, ["decjz", 1, -1]), (f"{path}[1][2]",)
    halt = (f"{path}[0]: must be a list of 1 item",)
    yield f"{path}[0]-operand", program, lambda p: p.__setitem__(0, ["halt", 1]), halt
    path, where = "config.suite.functionals[0]", ("suite", "functionals", 0)
    yield f"{path}-kind", where, lambda obj: obj.update(kind="wibble"), (f"{path}.kind", "wibble")


def broken(where, edit) -> dict:
    raw = json.loads(json.dumps(FULL_CONFIG))
    obj = raw
    for key in where:
        obj = obj[key]
    edit(obj)
    return raw


BROKEN = list(broken_configs())


def test_full_config_parses(monkeypatch):
    cfg = parse_config(json.dumps(FULL_CONFIG))
    assert len(cfg.functionals) == 8 and len(cfg.end_to_end_checks) == 3
    assert parse_config(serialize_config(cfg)) == cfg
    # checking a target builds none of its bits, which may be as many as its bound
    monkeypatch.setattr(EndToEndSpec, "target_bits", lambda spec: pytest.fail("built target bits"))
    assert parse_config(json.dumps(FULL_CONFIG)) == cfg


@pytest.mark.parametrize("case", BROKEN, ids=[case[0] for case in BROKEN])
def test_schema_rejects_bad_field(tmp_path, capsys, case):
    """Every record's unknown, missing or mistyped field raises SpecError
    naming its JSON path; the first case of each record also exits 2."""
    name, where, edit, names = case
    raw = broken(where, edit)
    with pytest.raises(SpecError) as err:
        parse_config(json.dumps(raw))
    for part in names:
        assert part in str(err.value)
    if name.endswith("-unknown"):
        cfg = write_config(tmp_path / "c.json", raw)
        assert main(["run", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
        assert names[0] in capsys.readouterr().err


def test_parse_reports_json_position():
    with pytest.raises(SpecError) as err:
        parse_config("{\n  broken\n}")
    assert "line 2" in str(err.value)


def test_parse_checks_sections():
    raw = {
        "horizon": 4,
        "suite": {"functionals": [], "operators": []},
        "checks": {
            "capture": [{"e": 1, "side": 0}],
            "preservation": [{"e0": 0, "e1": 1}],
            "end_to_end": [
                {"e0": 0, "e1": 1, "bound": 8, "threshold": "1/2", "target": {"kind": "parity"}}
            ],
        },
    }
    cfg = parse_config(json.dumps(raw))
    assert cfg.capture_checks == [(1, 0)]
    assert cfg.preservation_checks == [(0, 1)]
    spec = cfg.end_to_end_checks[0]
    assert spec.target_bits() == [0, 1, 0, 1, 0, 1, 0, 1]
    with pytest.raises(SpecError):
        parse_config(json.dumps({**raw, "checks": {"capture": [{"e": 1}]}}))



@pytest.mark.parametrize("flag", [True, False])
def test_capture_side_must_be_an_integer_bit(tmp_path, scenario_config_path, flag):
    raw = dict(SCENARIO_CONFIG, checks={"capture": [{"e": 0, "side": flag}]})
    with pytest.raises(SpecError) as err:
        parse_config(json.dumps(raw))
    assert "capture[0]" in str(err.value)
    bad = write_config(tmp_path / "bad.json", raw)
    trace = tmp_path / "t.trace"
    assert main(["run", "--config", bad, "--out", str(trace)]) == 2
    assert main(["run", "--config", scenario_config_path, "--out", str(trace)]) == 0
    assert main(["verify", "--trace", str(trace), "--config", bad]) == 2


@pytest.mark.parametrize(
    "target",
    [
        {"kind": "const", "value": True},
        {"kind": "const", "value": False},
        {"kind": "bits", "values": [0, True, 1, 0]},
        {"kind": "bits", "values": [False, 1, 1, 0]},
    ],
)
def test_end_to_end_target_bits_must_be_integers(target):
    check = {"e0": 0, "e1": 1, "bound": 4, "threshold": "1/2", "target": target}
    with pytest.raises(SpecError) as err:
        parse_config(json.dumps(dict(SCENARIO_CONFIG, checks={"end_to_end": [check]})))
    assert "target.value" in str(err.value)

def test_probe_field_is_rejected(tmp_path, capsys):
    """`probe` once chose a validation grid and later did nothing: it is an unknown field."""
    with_probe = dict(SCENARIO_CONFIG, probe={"points": 8, "stages": 6})
    with pytest.raises(SpecError, match=r"^config\.probe: unknown field$"):
        parse_config(json.dumps(with_probe))
    config = write_config(tmp_path / "c.json", with_probe)
    assert main(["run", "--config", config, "--out", str(tmp_path / "o.trace")]) == 2
    assert capsys.readouterr().err == "minpair: config.probe: unknown field\n"


@pytest.mark.parametrize(
    "text, where",
    [
        (
            '{"horizon": 10, "horizon": 20, "suite": {"functionals": [], "operators": []}}',
            "config.horizon",
        ),
        (
            '{"horizon": 10, "suite": {"functionals": '
            '[{"kind": "total_const", "value": 0, "value": 1}], "operators": []}}',
            "config.suite.functionals[0].value",
        ),
    ],
    ids=["top", "nested"],
)
def test_repeated_field_is_rejected(tmp_path, capsys, text, where):
    """A field named twice in one object is a config error at its path, not a last-wins read."""
    with pytest.raises(SpecError, match=rf"^{re.escape(where)}: duplicate field$"):
        parse_config(text)
    config = tmp_path / "c.json"
    config.write_text(text, encoding="utf-8")
    assert main(["run", "--config", str(config), "--out", str(tmp_path / "o.trace")]) == 2
    assert capsys.readouterr().err == f"minpair: {where}: duplicate field\n"
    assert not (tmp_path / "o.trace").exists()


def test_config_round_trip():
    for raw in [SCENARIO_CONFIG, random_config(7)]:
        cfg = parse_config(json.dumps(raw))
        assert parse_config(serialize_config(cfg)) == cfg


def test_shipped_configs_parse():
    for name in ("scenario", "injury", "parity_demo"):
        cfg = parse_config(open(f"configs/{name}.json").read())
        assert cfg.horizon >= 1


# -- trace persistence ----------------------------------------------------------


def test_trace_round_trip(tmp_path, scenario_trace):
    path = tmp_path / "t.trace"
    write_trace(scenario_trace, path)
    back = read_trace(path)
    assert back == scenario_trace
    assert trace_lines(back) == trace_lines(scenario_trace)


@pytest.mark.parametrize("seed", range(10))
def test_trace_round_trip_at_horizon_800(tmp_path, seed):
    raw = random_config(seed, 800)
    fsuite, _ = build_suites(parse_config(json.dumps(raw)))
    trace = engine.run(fsuite, 800, raw["snapshot_every"])
    write_trace(trace, tmp_path / "t.trace")
    assert read_trace(tmp_path / "t.trace") == trace


def test_read_trace_rejects_garbage(tmp_path):
    path = tmp_path / "bad.trace"
    path.write_text("not json\n", encoding="utf-8")
    with pytest.raises(TraceFormatError):
        read_trace(path)
    path.write_text('{"stage":0,"action":null,"removals":[],"snapshot":null}\n', encoding="utf-8")
    with pytest.raises(TraceFormatError) as err:
        read_trace(path)
    assert "summary" in str(err.value)




def test_read_trace_rejects_a_quiet_line_after_the_summary(tmp_path, scenario_trace):
    path = tmp_path / "late.trace"
    late = records.event_line(TraceEvent(5, None, ()))
    path.write_text("\n".join(trace_lines(scenario_trace) + [late]) + "\n", encoding="utf-8")
    with pytest.raises(TraceFormatError, match="line 7: records after the summary line"):
        read_trace(path)


def test_read_trace_rejects_other_schemas(tmp_path, scenario_trace):
    path = tmp_path / "future.trace"
    lines = trace_lines(scenario_trace)
    lines[-1] = lines[-1].replace('"schema":1', '"schema":2')
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    with pytest.raises(TraceFormatError, match="unsupported schema 2"):
        read_trace(path)

def test_read_trace_rejects_unknown_event_fields(tmp_path, scenario_trace):
    path = tmp_path / "bad.trace"
    lines = trace_lines(scenario_trace)
    record = json.loads(lines[0])
    record["extra"] = 1
    lines[0] = json.dumps(record)
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    with pytest.raises(TraceFormatError):
        read_trace(path)


def test_read_trace_splits_lines_as_splitlines_does(tmp_path, scenario_trace):
    """Lines end where `str.splitlines` ends them: at a form feed and a line
    separator too, and at a carriage return with its newline."""
    lines = trace_lines(scenario_trace)
    path = tmp_path / "t.trace"
    for text in (
        "\x0c".join(lines[:2]) + "\n" + "\n".join(lines[2:]) + "\n",
        "\r\n".join(lines) + "\r\n",
        "\n".join(line + "\u2028" for line in lines) + "\n",  # each adds a blank line
    ):
        path.write_text(text, encoding="utf-8", newline="")
        assert read_trace(path) == scenario_trace
    lines[0] += "\u2028"
    lines[3] = "not json"  # line 5 once the separator has split line 1
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    with pytest.raises(TraceFormatError, match="^line 5: "):
        read_trace(path)


def test_read_trace_names_the_file_byte_that_is_not_utf8(tmp_path):
    """The offset counts bytes from the start of the file, past many lines
    and past characters of more than one byte."""
    raw = random_config(0, 3200)
    trace = engine.run(build_suites(parse_config(json.dumps(raw)))[0], 3200, raw["snapshot_every"])
    data = ("\n".join(["\u00a0" * 50] + trace_lines(trace)) + "\n").encode("utf-8")  # a blank line
    offset = 150_001
    assert len(data) > offset and data[offset:offset + 1].isascii()
    path = tmp_path / "t.trace"
    path.write_bytes(data[:offset] + b"\xff" + data[offset + 1:])
    with pytest.raises(TraceFormatError, match=f"not UTF-8 at byte {offset}$"):
        read_trace(path)


def edit_lines(lines: list[str], edit: str) -> list[str]:
    """The injury trace's lines with one quiet line deleted or doubled, or
    two event lines swapped."""
    quiet = [i for i, line in enumerate(lines[:-1]) if json.loads(line)["action"] is None]
    i, j = quiet[len(quiet) // 2], len(lines) - 2  # a quiet line, and the last event line
    lines = list(lines)
    if edit == "delete":
        del lines[i]
    elif edit == "delete_last":
        del lines[j]
    elif edit == "duplicate":
        lines.insert(i, lines[i])
    else:
        lines[i], lines[j] = lines[j], lines[i]
    return lines


@pytest.mark.parametrize("edit", ["delete", "delete_last", "duplicate", "swap"])
def test_verify_rejects_a_trace_whose_stages_do_not_count_up(injury_run, capsys, edit):
    """Every stage below the horizon has its event line, in stage order."""
    root, lines = injury_run
    path = root / f"{edit}.trace"
    path.write_text("\n".join(edit_lines(lines, edit)) + "\n", encoding="utf-8")
    assert main(["verify", "--trace", str(path), "--config", "configs/injury.json"]) == 3
    err = capsys.readouterr().err
    assert re.fullmatch(
        r"minpair: malformed trace: (event \d+ carries stage \d+|trace has \d+ events for horizon 50)\n",
        err,
    ), err


# -- commands -------------------------------------------------------------------


def test_run_writes_expected_trace(tmp_path):
    """The full trace of `configs/scenario.json`, as README "Trace format" shows it."""
    out = tmp_path / "scenario.trace"
    assert main(["run", "--config", "configs/scenario.json", "--out", str(out)]) == 0
    assert out.read_bytes() == (
        b'{"action":null,"removals":[],"snapshot":null,"stage":0}\n'
        b'{"action":null,"removals":[],"snapshot":null,"stage":1}\n'
        b'{"action":{"e":0,"restraint":2,"side":0,"witness":1},"removals":[],"snapshot":null,"stage":2}\n'
        b'{"action":null,"removals":[],"snapshot":null,"stage":3}\n'
        b'{"action":{"e":0,"restraint":4,"side":1,"witness":3},"removals":[],"snapshot":null,"stage":4}\n'
        b'{"summary":{"horizon":5,"restraints":[[0,2],[1,4]],"schema":1,"side0":[1],"side1":[3]}}\n'
    )


def test_run_horizon_zero_writes_only_summary(tmp_path):
    cfg = write_config(
        tmp_path / "c.json", {"horizon": 0, "suite": {"functionals": [], "operators": []}}
    )
    out = tmp_path / "o.trace"
    assert main(["run", "--config", cfg, "--out", str(out)]) == 0
    lines = [l for l in out.read_text().splitlines() if l.strip()]
    assert len(lines) == 1 and "summary" in lines[0]


def test_run_is_byte_deterministic(tmp_path):
    cfg = write_config(tmp_path / "c.json", random_config(13, horizon=80))
    out1, out2 = tmp_path / "a.trace", tmp_path / "b.trace"
    assert main(["run", "--config", cfg, "--out", str(out1)]) == 0
    assert main(["run", "--config", cfg, "--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_run_unwritable_output_exits_2(scenario_config_path, capsys):
    rc = main(["run", "--config", scenario_config_path, "--out", "/nonexistent/dir/x.trace"])
    assert rc == 2
    assert "minpair:" in capsys.readouterr().err


def test_interrupted_run_leaves_no_trace(tmp_path, scenario_config_path, monkeypatch):
    """A write that fails after some lines leaves neither the trace nor its temp file."""
    lines, written = records.iter_lines, []

    def interrupted_lines(trace):
        for line in lines(trace):
            if len(written) == 3:
                raise RuntimeError("interrupted")
            written.append(line)
            yield line

    monkeypatch.setattr(records, "iter_lines", interrupted_lines)
    out = tmp_path / "out.trace"
    with pytest.raises(RuntimeError):
        main(["run", "--config", scenario_config_path, "--out", str(out)])
    assert len(written) == 3 and not out.exists()
    assert [p.name for p in tmp_path.iterdir()] == ["scenario.json"]


def test_run_invalid_config_exits_2(tmp_path, capsys):
    cfg = write_config(tmp_path / "c.json", {"horizon": 1})
    assert main(["run", "--config", cfg, "--out", str(tmp_path / "o")]) == 2


@pytest.mark.parametrize(
    "bad, content, code",
    [
        ("config", b'{"horizon": 5\xff}', 2),
        ("trace", b'{"summary"\xff}\n', 3),
        ("config", b"[" * 200_000, 2),
        ("trace", b"[" * 200_000 + b"\n", 3),
        ("config", b'{"horizon": 1' + b"0" * 5000 + b"}", 2),
        ("trace", b'{"stage": 1' + b"0" * 5000 + b"}\n", 3),
    ],
    ids=["config-not-utf8", "trace-not-utf8", "config-deep", "trace-deep", "config-long", "trace-long"],
)
def test_malformed_input_exits_without_traceback(tmp_path, scenario_config_path, capsys, bad, content, code):
    """Input that is not UTF-8, is nested too deeply or holds too long a number
    is a config error (2) or a malformed trace (3)."""
    path = tmp_path / bad
    path.write_bytes(content)
    trace = tmp_path / "t.trace"
    assert main(["run", "--config", scenario_config_path, "--out", str(trace)]) == 0
    config = path if bad == "config" else scenario_config_path
    assert main(["verify", "--trace", str(path if bad == "trace" else trace), "--config", str(config)]) == code
    err = capsys.readouterr().err
    assert "Traceback" not in err and err.startswith("minpair: ")


NINES = 10**4300 - 1  # as many digits as Python prints: 2e + 1 or a pair code has more


@pytest.mark.parametrize(
    "number, command",
    [
        (number, command)
        for number in ("1e5000", "1e-5000", "1e99999999", "premise", "trace")
        for command in ("run", "verify", "psi")
        if (number, command) != ("trace", "run")  # run reads no trace
    ],
)
def test_numbers_too_long_to_print_exit_2_or_3(tmp_path, capsys, number, command):
    """An end_to_end threshold that expands past what Python prints, an
    axiom premise of NINES, or a trace whose pair e = NINES acts twice: each
    command exits 2 for the config or 3 for the trace within a second, with
    one line that names the JSON path (`run` reads no trace).  These raised
    a ValueError where a number was printed, or hung in Fraction."""
    demo = Path("configs/parity_demo.json")
    raw = json.loads(demo.read_text(encoding="utf-8"))
    path, code = "config.checks.end_to_end[0].threshold", 2
    if number == "premise":
        raw["suite"]["operators"][0]["axioms"][0]["premise"] = [[NINES, 1]]
        path = "config.suite.operators[0].axioms[0].premise[0][0]"
    elif number != "trace":
        raw["checks"]["end_to_end"][0]["threshold"] = number
    trace = tmp_path / "t.trace"
    if number == "trace":
        config = "configs/injury.json"
        assert main(["run", "--config", config, "--out", str(trace)]) == 0
        text = re.sub(r'"e":\d+', f'"e":{NINES}', trace.read_text(encoding="utf-8"))
        trace.write_text(text.replace('"side":1', '"side":0'), encoding="utf-8")
        path, code = "line 6: event.action.e", 3
    else:
        config = write_config(tmp_path / "config.json", raw)
        assert main(["run", "--config", str(demo), "--out", str(trace)]) == 0
    capsys.readouterr()
    argv = {
        "run": ["run", "--config", config, "--out", str(tmp_path / "out.trace")],
        "verify": ["verify", "--trace", str(trace), "--config", config, "--report", str(tmp_path / "r.json")],
        "psi": ["psi", "--trace", str(trace), "--config", config, "--e0", "0", "--e1", "1", "--bound", "9"],
    }[command]
    start = time.perf_counter()
    assert main(argv) == code
    assert time.perf_counter() - start < 1
    err = capsys.readouterr().err
    assert err.startswith("minpair: ") and err.count("\n") == 1 and path in err, err


def test_use_bound_breach_exits_2_with_one_line_in_every_command(tmp_path, capsys):
    """An axiom visible before its use is a config error that run, verify
    and psi each report with the same line, naming the operator's path."""
    good = write_config(tmp_path / "good.json", SCENARIO_CONFIG)
    trace = str(tmp_path / "t.trace")
    assert main(["run", "--config", good, "--out", trace]) == 0
    operator = {"kind": "axioms", "axioms": [{"stage": 1, "premise": [[1, 1]], "output": 0}]}
    suite = {**SCENARIO_CONFIG["suite"], "operators": [operator]}
    cfg = write_config(tmp_path / "bad.json", {**SCENARIO_CONFIG, "suite": suite})
    capsys.readouterr()
    errors = []
    for argv in (
        ["run", "--config", cfg, "--out", str(tmp_path / "o")],
        ["verify", "--trace", trace, "--config", cfg],
        psi_argv(trace, cfg),
    ):
        assert main(argv) == 2
        errors.append(capsys.readouterr().err)
    want = "minpair: config.suite.operators[0]: axiom with premise max 4 (use 5) visible at stage 1\n"
    assert errors == [want] * 3
    assert not (tmp_path / "o").exists()


def test_run_unstable_spec_exits_2_with_witness(tmp_path, capsys):
    cfg = write_config(
        tmp_path / "c.json",
        {
            "horizon": 20,
            "suite": {"functionals": [{"kind": "unstable_probe", "point": 3, "stage": 10}]},
        },
    )
    assert main(["run", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert "unknown kind 'unstable_probe'" in err and "functionals[0]" in err


def test_verify_genuine_trace_passes(tmp_path, scenario_config_path):
    out = tmp_path / "out.trace"
    report_path = tmp_path / "report.json"
    main(["run", "--config", scenario_config_path, "--out", str(out)])
    rc = main(
        [
            "verify",
            "--trace",
            str(out),
            "--config",
            scenario_config_path,
            "--report",
            str(report_path),
        ]
    )
    assert rc == 0
    report = json.loads(report_path.read_text())
    names = [c["name"] for c in report["checks"]]
    assert names == sorted(names)
    assert {c["verdict"] for c in report["checks"]} == {"pass"}
    assert "oracle_equivalence" in names


def test_verify_forged_double_insertion_exits_1(tmp_path, scenario_config_path, scenario_trace):
    events = list(scenario_trace.events)
    events[4] = TraceEvent(4, Action(0, 0, 1, 4), ())
    forged = type(scenario_trace)(
        events,
        type(scenario_trace.summary)(1, 5, (1,), (), ((0, 4),)),
    )
    path = tmp_path / "forged.trace"
    write_trace(forged, path)
    report_path = tmp_path / "report.json"
    rc = main(
        [
            "verify",
            "--trace",
            str(path),
            "--config",
            scenario_config_path,
            "--checks",
            "structural",
            "--report",
            str(report_path),
        ]
    )
    assert rc == 1
    report = json.loads(report_path.read_text())
    verdicts = {c["name"]: c["verdict"] for c in report["checks"]}
    assert verdicts["structural:dce_single_entry"] == "fail"


# Edits of one record of the scenario trace (line 3 holds stage 2's action,
# line 6 the summary), each with the message that names its line and field.
TRACE_EDITS = {
    "side-true": (2, ("action", "side"), True, "event.action.side: must be the integer 0 or 1"),
    "witness-negative": (2, ("action", "witness"), -1, "event.action.witness: must be a natural"),
    "snapshot-member-string": (
        2,
        ("snapshot",),
        {"side0": [1, "x"], "side1": []},
        "event.snapshot.side0[1]: must be a natural",
    ),
    "restraint-triple": (
        5,
        ("summary", "restraints", 0),
        [0, 2, 9],
        "summary.restraints[0]: must be a list of 2 items",
    ),
    "extra-key": (2, ("action", "extra"), 1, "event.action.extra: unknown field"),
    "line-break-key": (2, ("action", "\n"), 1, "event.action.\\n: unknown field"),
    "removal-missing-key": (
        2,
        ("removals",),
        [{"n": 1, "side": 1, "by_e": 0, "by_side": 0}],
        "event.removals[0].inserted_at: missing field",
    ),
}


@pytest.mark.parametrize("name", list(TRACE_EDITS))
def test_malformed_trace_names_line_and_field(tmp_path, scenario_trace, capsys, name):
    """A record that breaks the schema exits 3 with the line and the field's JSON path."""
    index, keys, value, message = TRACE_EDITS[name]
    lines = trace_lines(scenario_trace)
    record = json.loads(lines[index])
    node = record
    for key in keys[:-1]:
        node = node[key]
    node[keys[-1]] = value
    lines[index] = json.dumps(record, sort_keys=True, separators=(",", ":"))
    path = tmp_path / "bad.trace"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    assert main(["verify", "--trace", str(path), "--config", "configs/scenario.json"]) == 3
    err = capsys.readouterr().err
    assert err == f"minpair: malformed trace: line {index + 1}: {message}\n"


# Raw-text edits of the scenario trace that name a field twice, each with the
# 0-based line it edits, the text it replaces and the path the error names.
# A reader that keeps the last value reads each as the unedited trace.
TRACE_REPEATS = {
    "event-stage": (2, '"stage":2}', '"stage":2,"stage":2}', "event.stage"),
    "action-witness": (2, '"witness":1}', '"witness":1,"witness":1}', "event.action.witness"),
    "summary": (5, '{"summary":', '{"summary":{},"summary":', "summary"),
}


@pytest.mark.parametrize("name", list(TRACE_REPEATS))
def test_repeated_trace_field_is_rejected(tmp_path, scenario_trace, capsys, name):
    """A field named twice in any record of a trace line exits 3 with the line and its path."""
    index, old, new, where = TRACE_REPEATS[name]
    lines = trace_lines(scenario_trace)
    assert old in lines[index]
    lines[index] = lines[index].replace(old, new, 1)
    path = tmp_path / "repeat.trace"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    assert main(["verify", "--trace", str(path), "--config", "configs/scenario.json"]) == 3
    err = capsys.readouterr().err
    assert err == f"minpair: malformed trace: line {index + 1}: {where}: duplicate field\n"


@pytest.mark.parametrize("document", ["config", "trace"])
def test_a_repeat_after_40000_fields_is_found_in_one_scan(
    tmp_path, scenario_trace, capsys, document
):
    """A record of 40 000 fields whose last field repeats an earlier one exits
    2 (config) or 3 (trace) with the repeat's path within 5 s; rebuilding the
    fields before each field to look for the repeat took about a minute."""
    padding = "".join(f'"pad{i}":0,' for i in range(40000))
    if document == "config":
        functional = '{"kind": "total_const", "value": 0, ' + padding + '"value": 1}'
        text = '{"horizon": 5, "suite": {"functionals": [' + functional + '], "operators": []}}'
        path = tmp_path / "c.json"
        argv = ["run", "--config", str(path), "--out", str(tmp_path / "o.trace")]
        code, err = 2, "minpair: config.suite.functionals[0].value: duplicate field\n"
    else:
        lines = trace_lines(scenario_trace)
        lines[2] = lines[2].replace('"witness":1}', '"witness":1,' + padding + '"witness":1}', 1)
        text = "\n".join(lines) + "\n"
        path = tmp_path / "repeat.trace"
        argv = ["verify", "--trace", str(path), "--config", "configs/scenario.json"]
        code, err = 3, "minpair: malformed trace: line 3: event.action.witness: duplicate field\n"
    path.write_text(text, encoding="utf-8")
    start = time.perf_counter()
    assert main(argv) == code
    assert time.perf_counter() - start < 5
    assert capsys.readouterr().err == err


def test_verify_schema_invalid_trace_exits_3(tmp_path, scenario_config_path, capsys):
    path = tmp_path / "bad.trace"
    path.write_text('{"stage": "zero"}\n', encoding="utf-8")
    assert main(["verify", "--trace", str(path), "--config", scenario_config_path]) == 3
    assert "malformed trace" in capsys.readouterr().err



@pytest.mark.parametrize("flag", [True, False])
@pytest.mark.parametrize(
    "record, field",
    [("action", "side"), ("removal", "side"), ("removal", "by_side"), ("summary", "schema")],
)
def test_verify_rejects_boolean_trace_fields(tmp_path, record, field, flag):
    """JSON true and false are not the bits 0 and 1, nor the schema 1."""
    trace = tmp_path / "injury.trace"
    assert main(["run", "--config", "configs/injury.json", "--out", str(trace)]) == 0
    lines = [json.loads(line) for line in trace.read_text(encoding="utf-8").splitlines()]
    if record == "summary":
        target = lines[-1]["summary"]
    elif record == "action":
        target = next(line["action"] for line in lines if line.get("action"))
    else:
        target = next(line["removals"][0] for line in lines if line.get("removals"))
    target[field] = flag
    trace.write_text("\n".join(json.dumps(line) for line in lines) + "\n", encoding="utf-8")
    argv = ["verify", "--trace", str(trace), "--config", "configs/injury.json", "--checks", "structural"]
    assert main(argv) == 3

def test_verify_unknown_check_exits_2(tmp_path, scenario_config_path, capsys):
    out = tmp_path / "out.trace"
    main(["run", "--config", scenario_config_path, "--out", str(out)])
    rc = main(
        ["verify", "--trace", str(out), "--config", scenario_config_path, "--checks", "sparkle"]
    )
    assert rc == 2
    # a name read from argv is shown on one line, its newline escaped
    capsys.readouterr()
    argv = ["verify", "--trace", str(out), "--config", scenario_config_path]
    assert main([*argv, "--checks", "struct\nural"]) == 2
    assert capsys.readouterr().err == "minpair: unknown check 'struct\\nural'\n"


def test_verify_selected_check_needs_config(tmp_path, scenario_config_path):
    out = tmp_path / "out.trace"
    main(["run", "--config", scenario_config_path, "--out", str(out)])
    rc = main(
        ["verify", "--trace", str(out), "--config", scenario_config_path, "--checks", "capture"]
    )
    assert rc == 2


def test_verify_horizon_mismatch_exits_2(tmp_path, scenario_config_path):
    out = tmp_path / "out.trace"
    main(["run", "--config", scenario_config_path, "--out", str(out)])
    other = write_config(
        tmp_path / "other.json",
        {"horizon": 7, "suite": {"functionals": [{"kind": "total_const", "value": 0}]}},
    )
    assert main(["verify", "--trace", str(out), "--config", other]) == 2


def test_verify_oracle_check_on_tampered_summary(tmp_path, scenario_config_path, scenario_trace):
    tampered = type(scenario_trace)(
        list(scenario_trace.events),
        type(scenario_trace.summary)(1, 5, (1, 5), (3,), ((0, 2), (1, 4))),
    )
    path = tmp_path / "t.trace"
    write_trace(tampered, path)
    report_path = tmp_path / "r.json"
    rc = main(
        [
            "verify",
            "--trace",
            str(path),
            "--config",
            scenario_config_path,
            "--report",
            str(report_path),
        ]
    )
    assert rc == 1
    report = json.loads(report_path.read_text())
    verdicts = {c["name"]: c["verdict"] for c in report["checks"]}
    assert verdicts["structural:replay_summary"] == "fail"
    assert verdicts["oracle_equivalence"] == "fail"


def test_verify_injury_config_all_checks(tmp_path):
    out = tmp_path / "injury.trace"
    assert main(["run", "--config", "configs/injury.json", "--out", str(out)]) == 0
    report_path = tmp_path / "r.json"
    rc = main(
        ["verify", "--trace", str(out), "--config", "configs/injury.json", "--report", str(report_path)]
    )
    assert rc == 0
    report = json.loads(report_path.read_text())
    verdicts = {c["name"]: c["verdict"] for c in report["checks"]}
    assert verdicts["preservation[e0=0,e1=1]"] == "pass"
    assert verdicts["capture[e=0,side=0]"] == "pass"
    assert verdicts["capture[e=1,side=0]"] == "inconclusive"


@pytest.mark.parametrize("mutation", engine.MUTATIONS)
def test_verify_oracle_catches_engine_mutation(tmp_path, mutation):
    with open("configs/injury.json", encoding="utf-8") as fh:
        config = parse_config(fh.read())
    fsuite, _ = build_suites(config)
    honest = engine.run(fsuite, config.horizon, config.snapshot_every)
    mutated = engine.run(fsuite, config.horizon, config.snapshot_every, mutation=mutation)
    assert trace_lines(mutated) != trace_lines(honest)
    path = tmp_path / "mutated.trace"
    write_trace(mutated, path)
    report_path = tmp_path / "r.json"
    rc = main(
        ["verify", "--trace", str(path), "--config", "configs/injury.json", "--report", str(report_path)]
    )
    assert rc == 1
    report = json.loads(report_path.read_text())
    verdicts = {c["name"]: c["verdict"] for c in report["checks"]}
    assert verdicts["oracle_equivalence"] == "fail"


def test_psi_prints_joint_rows(tmp_path, capsys):
    out = tmp_path / "parity.trace"
    assert main(["run", "--config", "configs/parity_demo.json", "--out", str(out)]) == 0
    rc = main(
        [
            "psi",
            "--trace",
            str(out),
            "--config",
            "configs/parity_demo.json",
            "--e0",
            "0",
            "--e1",
            "1",
            "--bound",
            "6",
        ]
    )
    assert rc == 0
    rows = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
    assert rows == [
        {"k": 1, "n": 1, "stage": 8},
        {"k": 0, "n": 2, "stage": 8},
        {"k": 1, "n": 3, "stage": 8},
        {"k": 0, "n": 4, "stage": 8},
        {"k": 1, "n": 5, "stage": 8},
    ]


def psi_argv(trace, config, bound="6"):
    return ["psi", "--trace", str(trace), "--config", config, "--e0", "0", "--e1", "1", "--bound", bound]


def test_psi_horizon_mismatch_exits_2(tmp_path, capsys):
    out = tmp_path / "parity.trace"
    assert main(["run", "--config", "configs/parity_demo.json", "--out", str(out)]) == 0
    with open("configs/parity_demo.json", encoding="utf-8") as fh:
        raw = json.load(fh)
    longer = write_config(tmp_path / "longer.json", dict(raw, horizon=raw["horizon"] + 5))
    capsys.readouterr()
    assert main(psi_argv(out, longer)) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "horizon" in captured.err


@pytest.mark.parametrize("bound", ["0", "-3"])
def test_psi_bound_below_one_exits_2(tmp_path, capsys, bound):
    out = tmp_path / "parity.trace"
    assert main(["run", "--config", "configs/parity_demo.json", "--out", str(out)]) == 0
    assert main(psi_argv(out, "configs/parity_demo.json", bound)) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "--bound" in captured.err


@pytest.mark.parametrize("flag", ["--e0", "--e1"])
def test_psi_negative_index_exits_2(tmp_path, capsys, flag):
    """An operator index is a natural: a negative one is an error that names its flag."""
    out = tmp_path / "parity.trace"
    assert main(["run", "--config", "configs/parity_demo.json", "--out", str(out)]) == 0
    argv = psi_argv(out, "configs/parity_demo.json")
    argv[argv.index(flag) + 1] = "-1"
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == f"minpair: {flag} must be >= 0, got -1\n"


# -- start-up cost ------------------------------------------------------------


# command -> (argv, the minpair modules it must load, the modules it must not)
LOADS = {
    "run": (
        ["run", "--config", "configs/scenario.json", "--out", "{tmp}/new.trace"],
        {"minpair.engine"},
        {"dataclasses", "fractions", "minpair.analysis", "minpair.oracle", "minpair.joint",
         "minpair.operators", "minpair.graphs"},
    ),
    "verify-structural,capture": (
        ["verify", "--trace", "{tmp}/capture.trace", "--config", "{tmp}/capture.json"]
        + ["--checks", "structural,capture", "--report", "{tmp}/r.json"],
        {"minpair.analysis"},
        {"minpair.engine", "minpair.oracle", "minpair.joint", "minpair.graphs", "minpair.operators"},
    ),
    "verify": (
        ["verify", "--trace", "{tmp}/scenario.trace", "--config", "configs/scenario.json"]
        + ["--report", "{tmp}/r.json"],
        {"minpair.oracle"},
        {"minpair.engine", "minpair.joint"},
    ),
    "verify-preservation,end_to_end": (
        ["verify", "--trace", "{tmp}/parity.trace", "--config", "{tmp}/parity.json"]
        + ["--checks", "preservation,end_to_end", "--report", "{tmp}/r.json"],
        {"minpair.joint"},
        {"minpair.engine", "minpair.oracle"},
    ),
    "psi": (
        ["psi", "--trace", "{tmp}/parity.trace", "--config", "configs/parity_demo.json"]
        + ["--e0", "0", "--e1", "1", "--bound", "100"],
        {"minpair.joint"},
        {"minpair.engine", "minpair.oracle"},
    ),
}


@pytest.mark.parametrize("command", list(LOADS))
def test_command_loads_only_what_it_runs(tmp_path, command):
    """Each command, in a fresh interpreter without site packages, loads the
    modules its work needs and none of the others: never `argparse` or
    `dataclasses`, the engine only for `run`, the oracle only for an oracle
    check, and the operator layer only for preservation, end_to_end and
    `psi`."""
    root = Path(__file__).resolve().parent.parent
    capture = dict(random_config(0, 200), checks={"capture": [{"e": 0, "side": 0}]})
    parity = json.loads((root / "configs" / "parity_demo.json").read_text(encoding="utf-8"))
    parity["checks"]["preservation"] = [{"e0": 0, "e1": 1}]
    write_config(tmp_path / "capture.json", capture)
    write_config(tmp_path / "parity.json", parity)
    for trace, config in [
        ("capture.trace", str(tmp_path / "capture.json")),
        ("scenario.trace", "configs/scenario.json"),
        ("parity.trace", "configs/parity_demo.json"),
    ]:
        assert main(["run", "--config", config, "--out", str(tmp_path / trace)]) == 0
    argv, wanted, unwanted = LOADS[command]
    probe = (
        "import json, sys\n"
        "import minpair.cli\n"
        "code = minpair.cli.main(sys.argv[1:])\n"
        "print(json.dumps([code, sorted(sys.modules)]))\n"
    )
    argv = [sys.executable, "-S", "-c", probe, *(arg.format(tmp=tmp_path) for arg in argv)]
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    done = subprocess.run(argv, env=env, cwd=root, capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    code, modules = json.loads(done.stdout.splitlines()[-1])
    assert code == 0
    assert wanted <= set(modules)
    assert sorted((unwanted | {"argparse"}) & set(modules)) == []


def test_commands_run_clean_in_dev_mode(tmp_path):
    """Under `-X dev -W error`, which reports files left open among other
    faults, `run`, `verify` and `psi` on parity_demo exit 0 and `verify` on
    a malformed trace exits 3, none of them with a warning."""
    root = Path(__file__).resolve().parent.parent
    config, trace, bad = str(root / "configs" / "parity_demo.json"), tmp_path / "t", tmp_path / "b"
    dev = [sys.executable, "-X", "dev", "-W", "error", "-m", "minpair.cli"]
    env = dict(os.environ, PYTHONPATH=str(root / "src"))

    def minpair(*argv):
        return subprocess.run([*dev, *argv], env=env, capture_output=True, text=True, timeout=60)

    done = minpair("run", "--config", config, "--out", str(trace))
    assert (done.returncode, done.stderr) == (0, "")
    bad.write_text(trace.read_text(encoding="utf-8").replace('"stage":3', '"stage":true'))
    for argv, code in [
        (["verify", "--trace", str(trace), "--config", config], 0),
        (["psi", "--trace", str(trace), "--config", config, "--e0", "0", "--e1", "1", "--bound", "8"], 0),
        (["verify", "--trace", str(bad), "--config", config], 3),
    ]:
        done = minpair(*argv)
        assert done.returncode == code, done.stderr
        if code == 0:
            assert done.stderr == ""
        else:  # the error's one line, and nothing else
            assert re.fullmatch(r"minpair: malformed trace: line 4: [^\n]*\n", done.stderr)


def test_run_loads_neither_dataclasses_nor_the_checks(tmp_path):
    """Importing the CLI and running a construction, in a fresh interpreter
    without site packages, loads neither `dataclasses` nor the analysis
    module: `run` pays only for the code it runs."""
    root = Path(__file__).resolve().parent.parent
    probe = (
        "import json, sys\n"
        "import minpair.cli\n"
        "imported = sorted({'dataclasses', 'minpair.analysis'} & set(sys.modules))\n"
        "code = minpair.cli.main(['run', '--config', sys.argv[1], '--out', sys.argv[2]])\n"
        "print(json.dumps([imported, code, 'minpair.analysis' in sys.modules]))\n"
    )
    argv = [sys.executable, "-S", "-c", probe, str(root / "configs" / "scenario.json")]
    argv.append(str(tmp_path / "scenario.trace"))
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    done = subprocess.run(argv, env=env, capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout) == [[], 0, False]


def test_run_loads_neither_fractions_nor_operators(tmp_path):
    """`run` on a config without operators, in a fresh interpreter without
    site packages, loads neither `fractions` nor the operator, graph and
    analysis modules."""
    root = Path(__file__).resolve().parent.parent
    probe = (
        "import json, sys\n"
        "import minpair.cli\n"
        "code = minpair.cli.main(['run', '--config', sys.argv[1], '--out', sys.argv[2]])\n"
        "unwanted = {'fractions', 'minpair.operators', 'minpair.graphs', 'minpair.analysis'}\n"
        "print(json.dumps([code, sorted(unwanted & set(sys.modules))]))\n"
    )
    argv = [sys.executable, "-S", "-c", probe, str(root / "configs" / "scenario.json")]
    argv.append(str(tmp_path / "scenario.trace"))
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    done = subprocess.run(argv, env=env, capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout) == [0, []]


# -- command line ---------------------------------------------------------------

PSI_FLAGS = ["--trace", "t", "--config", "c", "--e0", "0", "--e1", "1", "--bound", "6"]


@pytest.mark.parametrize(
    "argv",
    [
        [],
        ["bogus"],
        ["run", "--config", "c", "--out", "o", "--seed", "1"],
        ["run", "--conf", "c", "--out", "o"],
        ["run", "--config", "c", "--out", "o", "extra"],
        ["run", "--config", "c", "--out"],
        ["run", "--config", "--out", "o"],
        ["run", "--out", "o"],
        ["verify", "--config", "c"],
        ["psi", *PSI_FLAGS, "--e0", "x"],
        ["psi", *PSI_FLAGS, "--e1=1.5"],
        ["psi", *PSI_FLAGS, "--bound", ""],
    ],
)
def test_usage_error_exits_2_with_usage(capsys, argv):
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("usage:") and "Traceback" not in captured.err
    assert captured.err.splitlines()[-1].startswith("minpair: error: ")


@pytest.mark.parametrize("argv", [["-h"], ["--help"], ["run", "-h"], ["psi", "--trace", "t", "--help"]])
def test_help_prints_usage_and_exits_0(capsys, argv):
    assert main(argv) == 0
    captured = capsys.readouterr()
    assert captured.out.startswith("usage:") and captured.err == ""
    assert all(f"minpair {command} " in captured.out for command in cli.COMMANDS)


def test_flag_equals_value_is_flag_then_value(tmp_path):
    spaced = ["verify", "--trace", "t", "--config", "c", "--checks", "oracle", "--report", "r"]
    assert cli.parse_args(["verify", "--trace=t", "--config=c", "--checks=oracle", "--report=r"]) == (
        cli.parse_args(spaced)
    )
    assert cli.parse_args(["psi", *PSI_FLAGS]) == cli.parse_args(
        ["psi", "--trace=t", "--config=c", "--e0=0", "--e1=1", "--bound=6"]
    )
    out1, out2 = tmp_path / "a.trace", tmp_path / "b.trace"
    assert main(["run", "--config", "configs/injury.json", "--out", str(out1)]) == 0
    assert main(["run", "--config=configs/injury.json", f"--out={out2}"]) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_readme_command_lines_parse():
    root = Path(__file__).resolve().parent.parent
    readme = (root / "README.md").read_text(encoding="utf-8")
    lines = [line.split() for line in readme.splitlines() if line.startswith("minpair ")]
    assert {line[1] for line in lines} == set(cli.COMMANDS)
    for line in lines:
        command, args = cli.parse_args([arg.strip("[]") for arg in line[1:]])
        assert command == line[1] and None not in vars(args).values()


def test_psi_bound_zero_is_a_config_error_not_a_usage_error(capsys):
    assert main(["psi", *PSI_FLAGS[:-1], "0"]) == 2
    captured = capsys.readouterr()
    assert captured.err == "minpair: --bound must be >= 1, got 0\n"


# -- corrupted traces -----------------------------------------------------------

# Spellings of a quiet line's stage k other than the canonical one, and
# whole-line edits; only the exact canonical line is read by template.
STAGE_SPELLINGS = {
    "leading_zero": "0{k}",
    "minus": "-{k}",  # -0 is JSON's 0
    "float": "{k}.0",
    "exponent": "{k}e0",
    "next_stage": "{k_next}",
}
QUIET_EDITS = sorted(STAGE_SPELLINGS) + ["spaces", "reordered"]


def edit_quiet_line(line: str, stage: int, name: str) -> str:
    record = json.loads(line)
    if name == "spaces":
        return json.dumps(record)
    if name == "reordered":
        return json.dumps({"stage": record.pop("stage"), **record}, separators=(",", ":"))
    value = STAGE_SPELLINGS[name].format(k=stage, k_next=stage + 1)
    return line.replace(f'"stage":{stage}}}', f'"stage":{value}}}')


def same_record(line: str, canonical: str) -> bool:
    try:
        return json.dumps(json.loads(line), sort_keys=True, separators=(",", ":")) == canonical
    except json.JSONDecodeError:
        return False


@pytest.mark.parametrize("name", QUIET_EDITS)
@pytest.mark.parametrize(
    "config, stage", [("configs/scenario.json", 0), ("configs/scenario.json", 3), ("configs/injury.json", 17)]
)
def test_edited_quiet_line_reads_as_json_reads_it(tmp_path, monkeypatch, config, stage, name):
    """An edited quiet line gives the records or the error, and the exit
    code, that reading every line with `json.loads` gives: 0 when it still
    spells the same record, else 3."""
    trace = tmp_path / "t.trace"
    assert main(["run", "--config", config, "--out", str(trace)]) == 0
    lines = trace.read_text(encoding="utf-8").splitlines()
    quiet = lines[stage]
    assert json.loads(quiet)["snapshot"] is None
    lines[stage] = edit_quiet_line(quiet, stage, name)
    assert lines[stage] != quiet
    trace.write_text("\n".join(lines) + "\n", encoding="utf-8")
    argv = ["verify", "--trace", str(trace), "--config", config, "--report", str(tmp_path / "r.json")]

    def outcome():
        try:
            records = read_trace(trace)
        except TraceFormatError as err:
            records = str(err)
        with contextlib.redirect_stderr(io.StringIO()):
            return records, main(argv)

    by_template = outcome()
    monkeypatch.setattr(records, "_QUIET_BYTES", b"\n%d")  # matches no byte line: all go to json.loads
    assert by_template == outcome()
    assert by_template[1] == (0 if same_record(lines[stage], quiet) else 3)


DROP = object()  # corruption that deletes the field instead of replacing it
field_values = st.one_of(
    st.just(DROP),
    st.none(),
    st.booleans(),
    st.integers(-2, 60),
    st.floats(-2, 60),
    st.text(max_size=3),
    st.lists(st.integers(-1, 9), max_size=3),
    st.dictionaries(st.sampled_from(["e", "n", "side"]), st.integers(0, 3), max_size=2),
)


@pytest.fixture(scope="module")
def injury_run(tmp_path_factory):
    """A directory holding the injury config's trace, and its lines."""
    root = tmp_path_factory.mktemp("injury")
    trace = root / "injury.trace"
    assert main(["run", "--config", "configs/injury.json", "--out", str(trace)]) == 0
    return root, trace.read_text(encoding="utf-8").splitlines()


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_corrupted_trace_ends_in_an_exit_code(injury_run, data):
    """One field anywhere in the trace replaced or dropped: verify exits with
    0, 1, 2 or 3 and never raises, and exits 0 only for unchanged content."""
    root, lines = injury_run
    records = [json.loads(line) for line in lines]
    node = records[data.draw(st.integers(0, len(records) - 1))]
    while True:
        key = data.draw(st.sampled_from(list(node) if isinstance(node, dict) else range(len(node))))
        if isinstance(node[key], (dict, list)) and node[key] and data.draw(st.booleans()):
            node = node[key]
        else:
            break
    value = data.draw(field_values)
    if value is DROP:
        del node[key]
    else:
        node[key] = value
    corrupted = [json.dumps(rec, sort_keys=True, separators=(",", ":")) for rec in records]
    (root / "corrupted.trace").write_text("\n".join(corrupted) + "\n", encoding="utf-8")
    argv = ["verify", "--trace", str(root / "corrupted.trace"), "--config", "configs/injury.json"]
    argv += ["--report", str(root / "report.json")]
    with contextlib.redirect_stderr(io.StringIO()):
        code = main(argv)
    assert code in (0, 1, 2, 3)
    if code == 0:
        assert corrupted == lines


# -- malformed input of any kind ----------------------------------------------

REPEAT = object()  # the key of (field, value): a mutated object names that field again


class Raw(NamedTuple):
    text: str  # written as it stands: lists nested deeply, or a number too long to read


def dump(node) -> str:
    """node as JSON with sorted keys and no spaces, so that an unmutated
    trace line keeps its canonical text; a Raw value and a REPEAT entry
    are written as text that no JSON writer would produce."""
    if isinstance(node, Raw):
        return node.text
    if isinstance(node, list):
        return "[" + ",".join(map(dump, node)) + "]"
    if not isinstance(node, dict):
        return json.dumps(node)
    pairs = sorted((item for item in node.items() if item[0] is not REPEAT), key=lambda i: i[0])
    pairs += [node[REPEAT]] if REPEAT in node else []
    return "{" + ",".join(f"{json.dumps(k)}:{dump(v)}" for k, v in pairs) + "}"


def objects(node) -> list[dict]:
    """Every JSON object in node, node itself included."""
    if isinstance(node, list):
        return [found for child in node for found in objects(child)]
    if isinstance(node, dict):
        return [node] + objects(list(node.values()))
    return []


MUTATIONS = ("drop", "repeat", "retype", "negative", "huge", "deep", "non_utf8", "truncate")
scalars = st.none() | st.booleans() | st.integers(-5, 5) | st.floats(allow_nan=False)
any_json = st.recursive(
    scalars | st.text(max_size=3),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=2), inner),
    max_leaves=4,
)
TOO_LONG = Raw("1" + "0" * 5000)  # more digits than Python converts to an int


def mutate_field(data, root: dict, mutation: str) -> None:
    """Drop, name twice, retype, make negative or huge, or nest deeply one
    field of the JSON document root, in place.  `horizon` is made huge only
    as a number too long to read: a huge horizon is a long run, not
    malformed input."""
    if mutation == "repeat":
        node = data.draw(st.sampled_from(objects(root)).filter(bool))
        name = data.draw(st.sampled_from(sorted(node)))
        node[REPEAT] = (name, node[name] if data.draw(st.booleans()) else data.draw(any_json))
        return
    node = root
    while True:
        keys = sorted(node) if isinstance(node, dict) else range(len(node))
        key = data.draw(st.sampled_from(keys))
        if not (isinstance(node[key], (dict, list)) and node[key] and data.draw(st.booleans())):
            break
        node = node[key]
    if mutation == "drop":
        del node[key]
    elif mutation == "retype":
        node[key] = data.draw(any_json)
    elif mutation == "negative":
        node[key] = -data.draw(st.integers(1, 10**30))
    elif mutation == "huge":
        huge = [TOO_LONG] if key == "horizon" else [2**64, 10**30, TOO_LONG, Raw("9" * 4300), "1e5000"]
        node[key] = data.draw(st.sampled_from(huge))
    else:
        depth = data.draw(st.sampled_from([3, 800, 100_000]))
        node[key] = Raw("[" * depth + "]" * depth)


@pytest.fixture(scope="module")
def malformed_corpus(tmp_path_factory):
    """(directory, name, config, trace lines) of three small runs, one with
    operators; the config is at <name>.json and the trace at <name>.trace."""
    root = tmp_path_factory.mktemp("malformed")
    corpus = []
    for name, raw in [
        ("injury", json.loads(Path("configs/injury.json").read_text(encoding="utf-8"))),
        ("parity", json.loads(Path("configs/parity_demo.json").read_text(encoding="utf-8"))),
        ("random", random_config(4, 60)),
    ]:
        config = write_config(root / f"{name}.json", raw)
        assert main(["run", "--config", config, "--out", str(root / f"{name}.trace")]) == 0
        lines = (root / f"{name}.trace").read_text(encoding="utf-8").splitlines()
        assert all(dump(json.loads(line)) == line for line in lines)
        corpus.append((root, name, raw, lines))
    return corpus


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_malformed_input_ends_in_an_exit_code(malformed_corpus, data):
    """A config or trace with one field dropped, repeated, retyped, negative,
    huge or nested deeply, or with a byte that is not UTF-8, or truncated:
    `run`, `verify` and `psi` exit 0, 1, 2 or 3 and raise nothing, and exits
    2 and 3 print one line.  A repeated field exits 2 in a config and 3 in a
    trace, and `verify` passes a trace only if it reads as the unmutated one."""
    root, name, raw, lines = data.draw(st.sampled_from(malformed_corpus))
    in_config = data.draw(st.booleans())
    mutation = data.draw(st.sampled_from(MUTATIONS))
    original = (json.dumps(raw) if in_config else "\n".join(lines) + "\n").encode("utf-8")
    if mutation in ("non_utf8", "truncate"):
        at = data.draw(st.integers(0, len(original) - 1))
        content = original[:at] + (b"\xff" + original[at:] if mutation == "non_utf8" else b"")
    elif in_config:
        doc = json.loads(original)
        mutate_field(data, doc, mutation)
        content = dump(doc).encode("utf-8")
    else:
        i = data.draw(st.integers(0, len(lines) - 1))
        record = json.loads(lines[i])
        mutate_field(data, record, mutation)
        content = ("\n".join(lines[:i] + [dump(record)] + lines[i + 1:]) + "\n").encode("utf-8")
    bad = root / "bad"
    bad.write_bytes(content)
    good_trace = str(root / f"{name}.trace")
    config = str(bad) if in_config else str(root / f"{name}.json")
    trace = good_trace if in_config else str(bad)
    commands = [
        ["verify", "--trace", trace, "--config", config, "--report", str(root / "report.json")],
        ["psi", "--trace", trace, "--config", config, "--e0", "0", "--e1", "1", "--bound", "40"],
    ]
    if in_config:
        commands.append(["run", "--config", config, "--out", str(root / "out.trace")])
    for argv in commands:
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = main(argv)
        assert code in (0, 1, 2, 3), (argv, code)
        if code >= 2:
            assert err.getvalue().startswith("minpair: ") and err.getvalue().count("\n") == 1
        if mutation == "repeat":
            assert code == (2 if in_config else 3), (argv[0], err.getvalue())
        if code == 0 and argv[0] == "verify" and not in_config:
            assert read_trace(trace) == read_trace(good_trace)


def parity_demo_with_bound(tmp_path, bound) -> str:
    path = Path(__file__).resolve().parent.parent / "configs" / "parity_demo.json"
    raw = json.loads(path.read_text(encoding="utf-8"))
    raw["checks"]["end_to_end"][0]["bound"] = bound
    return write_config(tmp_path / f"bound-{bound}.json", raw)


def test_end_to_end_bound_beyond_an_index_runs_and_verifies(tmp_path, capsys):
    """A bound no list could hold loads, runs and verifies without a traceback."""
    config = parity_demo_with_bound(tmp_path, 2**64)
    assert cli.load_config(config).end_to_end_checks[0].bound == 2**64
    trace = str(tmp_path / "t.trace")
    assert main(["run", "--config", config, "--out", trace]) == 0
    assert main(["verify", "--trace", trace, "--config", config]) in (0, 1)
    out, err = capsys.readouterr()
    assert any(c["name"].endswith(":domain_density") for c in json.loads(out)["checks"])
    assert "Traceback" not in err


def test_verify_memory_does_not_grow_with_the_end_to_end_bound(tmp_path):
    """Target bits are read only at the joint table's defined points, so
    `verify` with bound 10**6 peaks within 1 MB of the same `verify` with
    bound 100."""
    import tracemalloc

    trace = str(tmp_path / "t.trace")
    assert main(["run", "--config", parity_demo_with_bound(tmp_path, 100), "--out", trace]) == 0
    peaks = []
    for bound in (100, 100, 10**6):  # the first verify loads the modules
        argv = ["verify", "--trace", trace, "--config", parity_demo_with_bound(tmp_path, bound)]
        tracemalloc.start()
        try:
            assert main([*argv, "--report", str(tmp_path / "r.json")]) in (0, 1)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[2] - peaks[1] < 2**20


@pytest.mark.parametrize("seed", [4, 9])
def test_memory_grows_with_kept_events_not_with_stages(tmp_path, seed):
    """At horizon 32000 a run keeps under 900 events (its actions and a
    snapshot every 37 stages), so neither `engine.run` nor reading and
    replaying its trace peaks above 2 MB traced; one record per stage
    would take about 10 MB."""
    import tracemalloc

    config = write_config(tmp_path / "c.json", random_config(seed, 32000))
    trace = tmp_path / "t.trace"
    assert main(["run", "--config", config, "--out", str(trace)]) == 0
    loaded = cli.load_config(config)
    fsuite, _ = build_suites(loaded)
    for work in (
        lambda: engine.run(fsuite, loaded.horizon, loaded.snapshot_every),
        lambda: replay(read_trace(trace)),
    ):
        tracemalloc.start()
        try:
            work()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * 2**20


def test_corpus_digest_repeats_its_digests():
    """`tests/corpus_digest.py` gives a config the same digest on every run,
    so the outputs of two source trees differ only where their commands do;
    the configs differ, and so do their digests."""
    import time

    import corpus_digest

    configs = [random_config(0, 200), corpus_digest.parity_stretched(200)]
    start = time.perf_counter()
    first = [corpus_digest.digest(config) for config in configs]
    assert [corpus_digest.digest(config) for config in configs] == first
    assert time.perf_counter() - start < 5
    assert len(set(first)) == 2 and all(re.fullmatch("[0-9a-f]{64}", d) for d in first)


def test_scale_script_compares_a_tree_with_itself(tmp_path, monkeypatch):
    """`tests/scale.py` with this tree as its own parent, at horizon 200 on
    two configs: every field is there, and the outputs are identical.  It
    spawns 20 commands: per config, run and verify for each tree in each of
    two rounds, and once more at the reference horizon 3200."""
    import scale

    commands, real = Counter(), scale.spawn

    def spawn(tree, command, *argv):
        commands[command] += 1
        return real(tree, command, *argv)

    monkeypatch.setattr(scale, "spawn", spawn)
    out = tmp_path / "bench.json"
    argv = ["--parent", str(scale.ROOT), "--out", str(out), "--horizon", "200", "--rounds", "2"]
    assert scale.main([*argv, "--only", "random-0,parity_demo"]) == 0
    assert commands == {"run": 10, "verify": 10}
    bench = json.loads(out.read_text(encoding="utf-8"))
    assert {"machine", "python", "nproc", "git_sha", "method"} <= set(bench["meta"])
    assert list(bench["configs"]) == ["random-0", "parity_demo"]
    for result in bench["configs"].values():
        assert result["horizon"] == 200 and result["identical"] is True
        assert result["parent"]["trace_sha256"] == result["change"]["trace_sha256"]
        assert result["parent"]["report_sha256"] == result["change"]["report_sha256"]
        assert isinstance(result["meets_100x"], bool)
        for tree in ("parent", "change"):
            for command in ("run", "verify"):
                timing = result[tree][command]
                assert len(timing["s"]) == len(timing["peak_rss_mb"]) == 2
                assert timing["exit_codes"] == [0, 0] and timing["median_s"] > 0


def test_scale_children_compile_both_trees_from_source(tmp_path, monkeypatch):
    """Every child of `tests/scale.py` gets PYTHONDONTWRITEBYTECODE=1 and a
    PYTHONPATH into a copy of its tree's `src` under the run's temporary
    directory, made without the tree's `__pycache__`."""
    import scale

    stale = tmp_path / "parent"
    shutil.copytree(scale.ROOT / "src", stale / "src")
    (stale / "src" / "minpair" / "__pycache__").mkdir(exist_ok=True)
    (stale / "src" / "minpair" / "__pycache__" / "cli.cpython-311.pyc").write_bytes(b"stale")
    spawned, real = [], os.posix_spawn

    def posix_spawn(path, args, env, **kwargs):
        if args[1:3] == ["-m", "minpair.cli"]:
            src = Path(env["PYTHONPATH"])
            spawned.append((env["PYTHONDONTWRITEBYTECODE"], src, (src / "minpair").exists()))
            assert not (src / "minpair" / "__pycache__").exists()
        return real(path, args, env, **kwargs)

    monkeypatch.setattr(scale.os, "posix_spawn", posix_spawn)
    monkeypatch.setattr(scale.tempfile, "tempdir", str(tmp_path / "run"))
    monkeypatch.delenv("PYTHONDONTWRITEBYTECODE", raising=False)
    (tmp_path / "run").mkdir()
    argv = ["--parent", str(stale), "--out", str(tmp_path / "bench.json"), "--horizon", "50"]
    assert scale.main([*argv, "--rounds", "1", "--only", "random-0"]) == 0
    assert len(spawned) == 6  # run and verify: each tree once, and the change at 3200
    for dont_write, src, found in spawned:
        assert dont_write == "1" and found and src.is_relative_to(tmp_path / "run")
    assert {src.parent.name for _, src, _ in spawned} == {"parent", "change"}
