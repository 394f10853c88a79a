"""One sha256 per config of the ROADMAP corpus, over what the commands print.

Usage: PYTHONPATH=src python tests/corpus_digest.py > digests.txt

The corpus is `configs/*.json`, `random_config` seeds 0-9 at horizons
200, 800 and 3200, and `configs/parity_demo.json` at horizon 800 with a
preservation check.  For each config it runs `minpair.cli.main` in process
and hashes, in order:

- the trace that `run` writes;
- the default `verify` report and its exit code;
- the `verify --checks structural,capture` report and its exit code, with
  a capture record for every (e, side), e up to and including the number
  of functionals;
- the `psi` rows at bound 1000 of every ordered pair of operators, for
  configs with operators.

It prints one `name sha256` line per config.  Run it under the source trees
of two commits (through PYTHONPATH) and `diff` the outputs: equal lines mean
byte-identical traces, reports, exit codes and rows.  `tests/golden/corpus-digests.txt`
holds these lines, and `tests/test_golden.py` compares them.  Uses only the stdlib.
"""

from __future__ import annotations

import hashlib
import io
import json
import sys
import tempfile
from contextlib import redirect_stdout
from pathlib import Path

from config_gen import random_config, with_captures
from minpair import cli

CONFIGS = Path(__file__).resolve().parent.parent / "configs"
HORIZONS = (200, 800, 3200)


def parity_stretched(horizon: int) -> dict:
    """parity_demo at another horizon, with a preservation check added."""
    config = json.loads((CONFIGS / "parity_demo.json").read_text(encoding="utf-8"))
    config["horizon"] = horizon
    config["checks"]["preservation"] = [{"e0": 0, "e1": 1}]
    return config


def corpus(horizons=HORIZONS) -> list[tuple[str, dict]]:
    """(name, config) for each config of the corpus, the random ones at `horizons`."""
    shipped = [
        (f"configs/{path.name}", json.loads(path.read_text(encoding="utf-8")))
        for path in sorted(CONFIGS.glob("*.json"))
    ]
    drawn = [(f"random-{s}-h{h}", random_config(s, h)) for h in horizons for s in range(10)]
    return [*shipped, *drawn, ("parity_demo-h800", parity_stretched(800))]


def digest(config: dict) -> str:
    """The sha256 of the outputs of `run`, `verify` and `psi` on one config."""
    sha = hashlib.sha256()
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        trace, report = root / "trace.jsonl", root / "report.json"
        paths = {name: root / f"{name}.json" for name in ("config", "capture")}
        paths["config"].write_text(json.dumps(config), encoding="utf-8")
        paths["capture"].write_text(json.dumps(with_captures(config)), encoding="utf-8")

        def main(*argv: str) -> str:
            """The exit code of the command, then what it printed, with `tmp` left out."""
            out = io.StringIO()
            with redirect_stdout(out):
                code = cli.main([str(arg) for arg in argv])
            text = report.read_text(encoding="utf-8") if report.exists() else out.getvalue()
            report.unlink(missing_ok=True)
            return f"{code}\n{text.replace(tmp, '')}"

        outputs = [
            main("run", "--config", paths["config"], "--out", trace),
            trace.read_text(encoding="utf-8"),
            main("verify", "--trace", trace, "--config", paths["config"], "--report", report),
            main(
                "verify",
                *("--trace", trace, "--config", paths["capture"]),
                *("--checks", "structural,capture", "--report", report),
            ),
        ]
        operators = range(len(config["suite"].get("operators", [])))
        outputs += [
            main(
                "psi",
                *("--trace", trace, "--config", paths["config"]),
                *("--e0", e0, "--e1", e1, "--bound", 1000),
            )
            for e0 in operators
            for e1 in operators
            if e0 != e1
        ]
    for text in outputs:
        sha.update(text.encode("utf-8") + b"\0")
    return sha.hexdigest()


def digests() -> str:
    """One `name sha256` line per config of the corpus."""
    return "".join(f"{name} {digest(config)}\n" for name, config in corpus())


if __name__ == "__main__":
    sys.stdout.write(digests())
