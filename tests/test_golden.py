"""Whole `verify` reports and engine traces, pinned byte for byte.

`tests/golden/` holds the default `verify` report of each `configs/*.json`
and of `configs/injury.json` under each engine mutation, with the report's
`meta` paths replaced by file names.  `engine-traces.json` holds the sha256
of the trace lines of `random_config` seeds 0-9 at horizon 800, with no
mutation and under each engine mutation.  `corpus-digests.txt` holds what
`tests/corpus_digest.py` prints: one sha256 per config of the ROADMAP corpus,
over its trace, reports and `psi` rows.  A change that is meant to alter
a report or a trace rewrites them all with
`PYTHONPATH=src python tests/test_golden.py`.
"""

from __future__ import annotations

import hashlib
import json
import sys
import tempfile
from pathlib import Path

import pytest

from config_gen import random_config
from conftest import make_suites
from corpus_digest import digests
from minpair import engine
from minpair.cli import build_suites, load_config, main, write_trace
from minpair.records import trace_lines

CONFIGS = Path(__file__).parent.parent / "configs"
GOLDEN = Path(__file__).parent / "golden"

# (golden file stem, config, engine mutation or None)
CASES = [(path.stem, path, None) for path in sorted(CONFIGS.glob("*.json"))] + [
    (f"injury-{mutation}", CONFIGS / "injury.json", mutation) for mutation in engine.MUTATIONS
]

TRACE_SEEDS, TRACE_HORIZON = range(10), 800
TRACES = GOLDEN / "engine-traces.json"
DIGESTS = GOLDEN / "corpus-digests.txt"


def trace_digests() -> dict[str, str]:
    """sha256 of the trace lines of each seeded random config, keyed
    `<seed>-<mutation or none>`."""
    digests = {}
    for seed in TRACE_SEEDS:
        raw = random_config(seed, TRACE_HORIZON)
        fsuite, _ = make_suites(raw)
        for mutation in (None, *engine.MUTATIONS):
            trace = engine.run(fsuite, TRACE_HORIZON, raw["snapshot_every"], mutation)
            text = "".join(line + "\n" for line in trace_lines(trace))
            digests[f"{seed}-{mutation or 'none'}"] = hashlib.sha256(text.encode()).hexdigest()
    return digests


def report_text(tmp: Path, config_path: Path, mutation: str | None) -> str:
    """The default `verify` report of the config's trace, with `meta` naming
    the config and the trace by file name only."""
    trace_path, report_path = tmp / "trace.jsonl", tmp / "report.json"
    if mutation is None:
        assert main(["run", "--config", str(config_path), "--out", str(trace_path)]) == 0
    else:
        config = load_config(config_path)
        fsuite, _ = build_suites(config)
        trace = engine.run(fsuite, config.horizon, config.snapshot_every, mutation=mutation)
        write_trace(trace, trace_path)
    argv = ["verify", "--trace", str(trace_path), "--config", str(config_path)]
    assert main([*argv, "--report", str(report_path)]) in (0, 1)
    text = report_path.read_text(encoding="utf-8")
    for path in (trace_path, config_path):
        text = text.replace(json.dumps(str(path)), json.dumps(path.name))
    return text


@pytest.mark.parametrize("stem, config_path, mutation", CASES, ids=[case[0] for case in CASES])
def test_verify_report_matches_golden(tmp_path, stem, config_path, mutation):
    golden = (GOLDEN / f"{stem}.json").read_text(encoding="utf-8")
    assert report_text(tmp_path, config_path, mutation) == golden


def test_mutated_engine_traces_match_golden():
    assert trace_digests() == json.loads(TRACES.read_text(encoding="utf-8"))


def test_corpus_digests_match_golden():
    assert digests() == DIGESTS.read_text(encoding="utf-8")


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    TRACES.write_text(json.dumps(trace_digests(), indent=2) + "\n", encoding="utf-8")
    print(f"wrote {TRACES}", file=sys.stderr)
    DIGESTS.write_text(digests(), encoding="utf-8")
    print(f"wrote {DIGESTS}", file=sys.stderr)
    for stem, config_path, mutation in CASES:
        with tempfile.TemporaryDirectory() as tmp:
            (GOLDEN / f"{stem}.json").write_text(
                report_text(Path(tmp), config_path, mutation), encoding="utf-8"
            )
        print(f"wrote {GOLDEN / stem}.json", file=sys.stderr)
