"""Run one minpair CLI command with per-layer spans recorded around it.

Usage: traced_cli.py SPANS_OUT PASS_ID -- <minpair arguments>

The program itself carries no tracing.  This script replaces the public
functions that `minpair.cli` and `minpair.analysis` look up at call time
with timing wrappers, passes a counting proxy suite into the engine and the
checks, runs `minpair.cli.main`, and writes the spans it kept in memory to
SPANS_OUT as JSON when the command ends.  It exits with the command's code.

A span is [name, start, end, parent, pass_id, calls, busy_s, queries, hits]:
`parent` is the index of the enclosing span (-1 at the root), `queries` and
`hits` count functional queries made while the span was open, its child
spans included, and the queries that converged.  Work
counts that belong to no single span (stages, actions, removals, trace
bytes read) are summed into a separate `counts` object.  Calls
made once per stage or per operator evaluation are folded into one span per
parent (`calls` > 1, `busy_s` summed over them), so tracing stays cheap.
"""

from __future__ import annotations

import functools
import json
import os
import sys
import time

from minpair import analysis, cli, engine

NAME, START, END, PARENT, PASS, CALLS, BUSY, QUERIES, HITS, INDEX = range(10)


class Tracer:
    def __init__(self, pass_id: int) -> None:
        self.pass_id = pass_id
        self.spans: list[list] = []
        self.stack: list[list] = []  # open spans, innermost last
        self.folded: dict[tuple[int, str], list] = {}
        self.counts: dict[str, int] = {}
        self.queries = 0  # bumped by CountingSuite
        self.hits = 0

    def add(self, name: str, amount: int) -> None:
        self.counts[name] = self.counts.get(name, 0) + amount

    def _open(self, name: str, start: float) -> list:
        parent = self.stack[-1][INDEX] if self.stack else -1
        span = [name, start, start, parent, self.pass_id, 1, 0.0, 0, 0, len(self.spans)]
        self.spans.append(span)
        return span

    def wrap(self, name: str, fn):
        """Time every call as its own span."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = self._open(name, time.perf_counter())
            self.stack.append(span)
            queries, hits = self.queries, self.hits
            try:
                return fn(*args, **kwargs)
            finally:
                self.stack.pop()
                span[END] = time.perf_counter()
                span[BUSY] = span[END] - span[START]
                span[QUERIES] = self.queries - queries
                span[HITS] = self.hits - hits

        return traced

    def wrap_folded(self, name: str, fn):
        """Time every call, summing them into one span per parent span."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                parent = self.stack[-1] if self.stack else None
                key = (id(parent), name)
                span = self.folded.get(key)
                if span is None:
                    span = self.folded[key] = self._open(name, start)
                    span[CALLS] = 0
                span[CALLS] += 1
                span[BUSY] += end - start
                span[END] = end

        return traced


class CountingSuite:
    """FunctionalSuite proxy that counts queries, and converged ones, on the tracer."""

    def __init__(self, inner, tracer: Tracer) -> None:
        self._inner = inner
        self._query = inner.query
        self._tracer = tracer

    def query(self, e, n, s):
        bit = self._query(e, n, s)
        tracer = self._tracer
        tracer.queries += 1
        if bit is not None:
            tracer.hits += 1
        return bit

    def __getattr__(self, attr):
        return getattr(self._inner, attr)


def install(tracer: Tracer) -> None:
    """Swap the traced functions into the modules that call them."""
    build_suite = tracer.wrap("suites.build", cli.build_suite)

    def counting_build_suite(*args, **kwargs):
        fsuite, osuite = build_suite(*args, **kwargs)
        return CountingSuite(fsuite, tracer), osuite

    cli.build_suite = counting_build_suite

    run = engine.run

    def traced_run(suite, horizon, snapshot_every=0, mutation=None, on_event=None):
        if on_event is not None:
            on_event = tracer.wrap_folded("cli.write_trace", on_event)
        trace = run(suite, horizon, snapshot_every, mutation, on_event)
        tracer.add("engine.stages", len(trace.events))
        tracer.add("engine.actions", sum(ev.action is not None for ev in trace.events))
        tracer.add("engine.removals", sum(len(ev.removals) for ev in trace.events))
        return trace

    engine.run = tracer.wrap("engine.run", traced_run)
    cli.load_config = tracer.wrap("cli.load_config", cli.load_config)
    read_trace = tracer.wrap("cli.read_trace", cli.read_trace)

    def counting_read_trace(path):
        tracer.add("cli.trace_bytes", os.path.getsize(path))
        return read_trace(path)

    cli.read_trace = counting_read_trace
    for name in (
        "check_structural",
        "reference_run",
        "check_capture",
        "check_preservation",
        "check_end_to_end",
        "synthesize_joint",
    ):
        traced = tracer.wrap(f"analysis.{name}", getattr(analysis, name))
        setattr(analysis, name, traced)  # check_end_to_end calls synthesize_joint
        setattr(cli, name, traced)
    analysis.replay = tracer.wrap("analysis.replay", analysis.replay)
    analysis.evaluate = tracer.wrap_folded("operators.evaluate", analysis.evaluate)


def main(argv: list[str]) -> int:
    if len(argv) < 3 or argv[2] != "--":
        print("usage: traced_cli.py SPANS_OUT PASS_ID -- <minpair arguments>", file=sys.stderr)
        return 2
    spans_out, pass_id, cli_args = argv[0], int(argv[1]), argv[3:]
    tracer = Tracer(pass_id)
    install(tracer)
    code = 2
    try:
        code = tracer.wrap("cli.main", cli.main)(cli_args)
    finally:
        tmp = f"{spans_out}.{os.getpid()}.tmp"
        with open(tmp, "w", encoding="utf-8") as fh:
            spans = [span[:INDEX] for span in tracer.spans]
            json.dump({"spans": spans, "counts": tracer.counts}, fh)
        os.replace(tmp, spans_out)
    return code


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
