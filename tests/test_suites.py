from __future__ import annotations

import json
import random
import re
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from config_gen import random_functional
from minpair import suites
from minpair.cli import build_suites, load_config, main, parse_config
from minpair.operators import Axiom
from minpair.suites import (
    FUNCTIONAL_KINDS,
    FunctionalSuite,
    RandomPartial,
    SpecError,
    build_suite,
    compile_functional,
    compile_operator,
    parse_program,
    run_machine,
)

ACCEPT_CODE_2 = [
    ["decjz", 0, 7],
    ["decjz", 0, 7],
    ["decjz", 0, 5],
    ["decjz", 0, 7],
    ["decjz", 1, 3],
    ["inc", 0],
    ["halt"],
    ["halt"],
]


def suite_of(*specs, horizon=20):
    fsuite, _ = build_suite(list(specs), [], horizon)
    return fsuite


def test_total_const_semantics():
    fsuite = suite_of({"kind": "total_const", "value": 0})
    assert fsuite.query(0, 1, 2) == 0
    assert fsuite.query(0, 5, 3) is None  # n >= s
    assert fsuite.query(7, 0, 100) is None  # absent index diverges


def test_undefined_on_class_diverges_on_its_class_only():
    fsuite = suite_of({"kind": "undefined_on_class", "e": 0})
    assert [n for n in range(10) if fsuite.query(0, n, 10) is not None] == [0, 2, 4, 6, 8]


def test_total_fn_fill_rules():
    table = {"kind": "total_fn", "table": [0, 1], "fill": "cycle"}
    fsuite = suite_of(table)
    assert [fsuite.query(0, n, 100) for n in range(5)] == [0, 1, 0, 1, 0]
    fsuite = suite_of({"kind": "total_fn", "table": [1], "fill": "zero"})
    assert fsuite.query(0, 9, 100) == 0
    assert fsuite.query(0, 0, 100) == 1


def test_delayed_postpones_convergence():
    fsuite = suite_of(
        {"kind": "delayed", "inner": {"kind": "total_const", "value": 1}, "delay": {"a": 0, "b": 5}}
    )
    assert fsuite.query(0, 3, 5) is None
    assert fsuite.query(0, 3, 6) == 1


def test_table_partial_visibility():
    fsuite = suite_of({"kind": "table_partial", "entries": [[2, 1, 5], [6, 0, 35]]}, horizon=50)
    assert fsuite.query(0, 2, 4) is None
    assert fsuite.query(0, 2, 5) == 1
    assert fsuite.query(0, 6, 34) is None
    assert fsuite.query(0, 6, 40) == 0
    assert fsuite.query(0, 3, 40) is None


def test_machine_halt_program_computes_parity():
    fsuite = suite_of({"kind": "machine", "program": [["halt"]]})
    for n in range(10):
        assert fsuite.query(0, n, n) is None  # needs s > n
        assert fsuite.query(0, n, n + 1) == n % 2


def test_machine_divergent_program():
    fsuite = suite_of({"kind": "machine", "program": [["decjz", 1, 0]]})
    assert all(fsuite.query(0, n, 19) is None for n in range(19))


def test_run_machine_steps():
    halted, steps, out = run_machine(parse_program(ACCEPT_CODE_2), 2, 100)
    assert (halted, steps, out) == (True, 5, 1)
    for c in (0, 1, 3, 4, 9):
        halted, _, out = run_machine(parse_program(ACCEPT_CODE_2), c, 100)
        assert halted and out == 0


def test_machine_operator_enumeration():
    op = compile_operator({"kind": "machine", "program": ACCEPT_CODE_2}, 30)
    # the machine accepts exactly code 2 = pair of empty premise mask and output 1,
    # which dovetails in at stage max(steps, code + 1) = 5
    assert op.staged_axioms == ((5, Axiom.of([], 1)),)


def test_operator_axioms_compile_and_respect_use_bound():
    op = compile_operator(
        {"kind": "axioms", "axioms": [{"stage": 8, "premise": [[1, 1]], "output": [5, 1]}]},
        30,
    )
    (stage, axiom), = op.staged_axioms
    assert stage == 8 and axiom.premise == (4,) and axiom.output == 22
    with pytest.raises(SpecError) as err:
        build_suite([], [{"kind": "axioms", "axioms": [{"stage": 1, "premise": [[1, 1]], "output": 0}]}], 10)
    want = "config.suite.operators[0]: axiom with premise max 4 (use 5) visible at stage 1"
    assert str(err.value) == want


def test_validation_flags_unstable_functional():
    # unstable_probe is no longer a kind: building a suite with it is an
    # unknown-kind error that names the record's path
    with pytest.raises(SpecError) as err:
        suite_of({"kind": "unstable_probe", "point": 3, "stage": 10})
    assert "config.suite.functionals[0].kind: unknown kind 'unstable_probe'" in str(err.value)


def test_unstable_probe_rejected_whatever_the_probe():
    # unstable_probe is an unknown kind, and the probe grid has no effect
    raw = {
        "horizon": 20,
        "probe": {"points": 8, "stages": 6},
        "suite": {"functionals": [{"kind": "unstable_probe", "point": 3, "stage": 10}]},
    }
    with pytest.raises(SpecError) as err:
        parse_config(json.dumps(raw))
    assert "config.suite.functionals[0].kind: unknown kind 'unstable_probe'" in str(err.value)


def test_unknown_kind_rejected():
    with pytest.raises(SpecError) as err:
        compile_functional({"kind": "mystery"})
    assert "mystery" in str(err.value)
    with pytest.raises(SpecError):
        compile_functional({"kind": "total_const", "value": 0, "extra": 1})
    with pytest.raises(SpecError):
        compile_functional({"kind": "total_fn", "table": [], "fill": "cycle"})
    with pytest.raises(SpecError):
        compile_functional({"kind": "random_partial", "density": 1.5, "values": "one", "seed": 0})
    with pytest.raises(SpecError):
        compile_operator({"kind": "mystery"}, 10)
    for unhashable in ([], {}):  # an unhashable kind is unknown too
        with pytest.raises(SpecError):
            compile_functional({"kind": unhashable})
        with pytest.raises(SpecError):
            compile_operator({"kind": unhashable}, 10)


def test_readme_functional_kinds_match_the_schema():
    """README's table of functional kinds lists exactly the kinds and fields
    of FUNCTIONAL_KINDS, and marks with `?` exactly the fields with a default."""
    readme = (Path(__file__).parent.parent / "README.md").read_text(encoding="utf-8")
    table = readme.split("| kind | fields | meaning |\n|---|---|---|\n", 1)[1].split("\n\n", 1)[0]
    documented = {}
    for row in table.splitlines():
        _, kind, spelled, _ = row.split("|", 3)
        names = [re.match(r"\w+\??", chunk).group() for chunk in re.findall(r"`([^`]*)`", spelled)]
        documented[kind.strip().strip("`")] = {n.rstrip("?"): n.endswith("?") for n in names}
    schema = {
        kind: {name: len(entry) == 2 for name, entry in fields.items()}
        for kind, (_, fields) in FUNCTIONAL_KINDS.items()
    }
    assert documented == schema


def test_machine_operators_enumerate_once_at_the_horizon(tmp_path, monkeypatch):
    """Loading a config runs no machine step; building its suites runs each
    machine operator once per code below the horizon, and nothing else."""
    raw = {
        "horizon": 40,
        "suite": {
            "functionals": [{"kind": "machine", "program": ACCEPT_CODE_2}],
            "operators": [{"kind": "machine", "program": ACCEPT_CODE_2}],
        },
    }
    path = tmp_path / "machine.json"
    path.write_text(json.dumps(raw), encoding="utf-8")
    calls = []
    real = suites.run_machine
    monkeypatch.setattr(suites, "run_machine", lambda *args: calls.append(args) or real(*args))
    config = load_config(path)
    assert calls == []
    _, osuite = build_suites(config)
    assert [(value, budget) for _, value, budget in calls] == [(c, 40) for c in range(40)]
    assert osuite.get(0).staged_axioms == ((5, Axiom.of([], 1)),)


def test_run_enumerates_no_operator(tmp_path, monkeypatch):
    """run reads only the functionals, so it runs no machine operator on any
    code, however far the horizon."""
    raw = {
        "horizon": 3000,
        "suite": {
            "functionals": [{"kind": "total_const", "value": 0}],
            "operators": [{"kind": "machine", "program": [["inc", 1], ["decjz", 2, 0]]}],
        },
    }
    path = tmp_path / "machine.json"
    path.write_text(json.dumps(raw), encoding="utf-8")
    calls = []
    real = suites.run_machine
    monkeypatch.setattr(suites, "run_machine", lambda *args: calls.append(args) or real(*args))
    assert main(["run", "--config", str(path), "--out", str(tmp_path / "t.trace")]) == 0
    assert calls == []


def test_random_partial_density_close_to_target():
    for target in (0.3, 0.7):
        for seed in range(10):
            fn = RandomPartial(target, "one", seed)
            realized = sum(1 for n in range(10_000) if fn.settle(n, 10_001) is not None)
            assert abs(realized / 10_000 - target) < 0.02


def test_queries_are_pure_under_randomized_schedules():
    fsuite, _ = build_suite(
        [
            {"kind": "random_partial", "density": 0.5, "values": "random", "seed": 3},
            {"kind": "machine", "program": ACCEPT_CODE_2},
        ],
        [],
        40,
    )
    grid = [(e, n, s) for e in (0, 1) for n in range(25) for s in range(30)]
    first = {q: fsuite.query(*q) for q in grid}
    rng = random.Random(0)
    for _ in range(3):
        rng.shuffle(grid)
        for q in grid:
            assert fsuite.query(*q) == first[q]


def test_stability_sweep_on_random_suites():
    from config_gen import random_config

    for seed in (0, 1, 2):
        raw = random_config(seed, horizon=60)["suite"]["functionals"]
        fsuite, _ = build_suite(raw, [], 60, default_seed=seed)
        for e in fsuite.indices():
            for n in range(40):
                settled = None
                for s in range(61):
                    got = fsuite.query(e, n, s)
                    if settled is None:
                        settled = got
                    else:
                        assert got == settled


def test_functional_suite_rejects_bad_indices():
    with pytest.raises(ValueError):
        FunctionalSuite({-1: None})  # type: ignore[dict-item]


@settings(max_examples=200, deadline=None)
@given(seed=st.integers(0, 10**6), horizon=st.integers(0, 120))
def test_query_is_derived_from_settle(seed, horizon):
    spec = random_functional(random.Random(seed))
    fsuite, _ = build_suite([spec], [], horizon)
    # horizon 0: each query settles with its own stage as the limit
    stepwise, _ = build_suite([spec], [], 0)
    for n in range(40):
        hit = fsuite.settle(0, n, horizon)
        stage = horizon + 1 if hit is None else hit[1]
        assert hit is None or n + 1 <= stage <= horizon
        for s in range(horizon + 1):
            want = None if s < stage else hit[0]
            assert fsuite.query(0, n, s) == want
            assert stepwise.query(0, n, s) == want
