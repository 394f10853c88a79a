"""Whole `verify` reports, pinned byte for byte.

`tests/golden/` holds the default `verify` report of each `configs/*.json`
and of `configs/injury.json` under each engine mutation, with the report's
`meta` paths replaced by file names.  A change that is meant to alter a
report rewrites them with `PYTHONPATH=src python tests/test_golden.py`.
"""

from __future__ import annotations

import json
import sys
import tempfile
from pathlib import Path

import pytest

from minpair import engine
from minpair.cli import build_suites, load_config, main, write_trace

CONFIGS = Path(__file__).parent.parent / "configs"
GOLDEN = Path(__file__).parent / "golden"

# (golden file stem, config, engine mutation or None)
CASES = [(path.stem, path, None) for path in sorted(CONFIGS.glob("*.json"))] + [
    (f"injury-{mutation}", CONFIGS / "injury.json", mutation) for mutation in engine.MUTATIONS
]


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


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    for stem, config_path, mutation in CASES:
        with tempfile.TemporaryDirectory() as tmp:
            (GOLDEN / f"{stem}.json").write_text(
                report_text(Path(tmp), config_path, mutation), encoding="utf-8"
            )
        print(f"wrote {GOLDEN / stem}.json", file=sys.stderr)
