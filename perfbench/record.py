"""Record expected.json from the current commit.

Runs each recorded workload's operations twice through the CLI and stores,
per operation, the exit code and the trace sha256, verify verdicts or psi
lines.  Both passes must agree and pass the checks `run.py` applies to every
seed base.  The file on record was made at the commit that defined the
benchmark; rerun this only to extend it, never to make a failing program
pass:

    python3 perfbench/record.py
"""

from __future__ import annotations

import json
import math
import shutil
import sys

import run as bench
import workloads

RECORDED = [
    *((w, 0, None) for w in workloads.WORKLOADS),
    ("engine-sweep", 10, None),  # held-out corpus, seeds 10-19
    ("verify-sweep", 10, None),
    *((w, 0, workloads.SMOKE_HORIZON) for w in workloads.WORKLOADS),
]


def main() -> int:
    expected = json.loads(bench.EXPECTED.read_text()) if bench.EXPECTED.exists() else {}
    for workload, seed_base, horizon in RECORDED:
        work = bench.WORK / f"record-{workload}-{seed_base}-{horizon}"
        shutil.rmtree(work, ignore_errors=True)
        work.mkdir(parents=True)
        try:
            ops = bench.plan(workload, workloads.cases(workload, seed_base, horizon), work)
            runner = bench.Runner(work, bench.child_env(), math.inf)
            for pass_id in range(2):
                runner.run_pass(ops, pass_id, False)
        finally:
            shutil.rmtree(work, ignore_errors=True)
        if runner.failed:
            print("\n".join(runner.messages), file=sys.stderr)
            return 1
        expected.update(runner.expected)
        print(f"recorded {workload} seed base {seed_base} horizon {horizon}: {len(ops)} ops")
    bench.EXPECTED.write_text(json.dumps(expected, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
