from __future__ import annotations

import json
import random
import re
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import naive_oracle
from config_gen import random_config, random_functional
from conftest import make_suites
from minpair import analysis, suites
from minpair.arith import class_members, pair, position
from minpair.cli import build_suites, load_config, main, parse_config, read_trace
from minpair.operators import Axiom
from minpair.suites import (
    Instruction,
    SpecError,
    build_suite,
    compile_functional,
    compile_operator,
    functional_kinds,
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


# up to 6 instructions over registers 0, 1 and one of 2149 digits, jump
# targets from before the start to past the end
REGISTER = st.sampled_from((0, 1, 10**2148))
INSTRUCTION = st.one_of(
    st.builds(Instruction, st.just("halt")),
    st.builds(Instruction, st.just("inc"), REGISTER),
    st.builds(Instruction, st.just("decjz"), REGISTER, st.integers(-2, 8)),
)
PROGRAM = st.lists(INSTRUCTION, max_size=6).map(tuple)


@settings(max_examples=500, deadline=None)
@given(program=PROGRAM, value=st.integers(0, 20), budget=st.integers(0, 200))
def test_run_machine_matches_its_specification(program, value, budget):
    """Both interpreters agree on halting, and on a halted run's steps and
    output; an unhalted run may stop early, at its certificate."""
    got = run_machine(program, value, budget)
    want = naive_oracle.run_machine(program, value, budget)
    assert got[0] == want[0]
    if got[0]:
        assert got == want


@settings(max_examples=500, deadline=None)
@given(program=PROGRAM, value=st.integers(0, 20), budget=st.integers(1, 200))
def test_run_machine_certifies_only_machines_that_never_halt(program, value, budget):
    """A run that stops unhalted before its budget B does not halt within 20 B
    steps of the specification interpreter either."""
    halted, steps, _ = run_machine(program, value, budget)
    if not halted and steps < budget:
        assert not naive_oracle.run_machine(program, value, 20 * budget)[0]


def test_a_machine_loop_is_certified_within_16_steps():
    """Work budget: a loop that grows a register and jumps back on a register
    that stays zero is certified within 16 steps on every input below 1000,
    at budget 10**6; without the certificate each run spent its budget."""
    loop = parse_program([["inc", 1], ["decjz", 2, 0]])
    for n in range(1000):
        halted, steps, _ = run_machine(loop, n, 10**6)
        assert not halted and steps <= 16, (n, steps)


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

    def axioms(stage, premise):
        return {"kind": "axioms", "axioms": [{"stage": stage, "premise": premise, "output": 9}]}

    # an empty premise has use 0; a premise max of 11 has use 12, visible from stage 12
    assert compile_operator(axioms(0, []), 0).staged_axioms == ((0, Axiom.of([], 9)),)
    assert compile_operator(axioms(12, [11]), 0).staged_axioms == ((12, Axiom.of([11], 9)),)
    with pytest.raises(SpecError) as err:
        compile_operator(axioms(11, [11]), 0)
    assert str(err.value) == "operator: axiom with premise max 11 (use 12) visible at stage 11"
    bad = {"kind": "axioms", "axioms": [{"stage": 1, "premise": [[1, 1]], "output": 0}]}
    _, osuite = build_suite([], [bad], 10)  # compiles the operator on its first read
    with pytest.raises(SpecError) as err:
        osuite.get(0)
    want = "config.suite.operators[0]: axiom with premise max 4 (use 5) visible at stage 1"
    assert str(err.value) == want


def test_validation_flags_unstable_functional():
    # unstable_probe is no longer a kind: building a suite with it is an
    # unknown-kind error that names the record's path
    with pytest.raises(SpecError) as err:
        suite_of({"kind": "unstable_probe", "point": 3, "stage": 10})
    assert "config.suite.functionals[0].kind: unknown kind 'unstable_probe'" in str(err.value)


def test_unstable_probe_rejected_whatever_the_probe():
    # unstable_probe is an unknown kind when a whole config is parsed too
    raw = {
        "horizon": 20,
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
    with pytest.raises(SpecError, match=r"^program\[0\]: must be a list of 1 item$"):
        parse_program([["halt", 1]])
    for unhashable in ([], {}):  # an unhashable kind is unknown too
        with pytest.raises(SpecError):
            compile_functional({"kind": unhashable})
        with pytest.raises(SpecError):
            compile_operator({"kind": unhashable}, 10)


def test_readme_functional_kinds_match_the_schema():
    """README's table of functional kinds lists exactly the kinds and fields
    of functional_kinds(0), and marks with `?` exactly the fields with a default."""
    readme = (Path(__file__).parent.parent / "README.md").read_text(encoding="utf-8")
    table = readme.split("| kind | fields | meaning |\n|---|---|---|\n", 1)[1].split("\n\n", 1)[0]
    documented = {}
    for row in table.splitlines():
        _, kind, spelled, _ = row.split("|", 3)
        names = [re.match(r"\w+\??", chunk).group() for chunk in re.findall(r"`([^`]*)`", spelled)]
        documented[kind.strip().strip("`")] = {n.rstrip("?"): n.endswith("?") for n in names}
    schema = {}
    for kind, (_, table) in functional_kinds(0).items():
        schema[kind] = {name: len(entry) == 2 for name, entry in table.items()}
    assert documented == schema


@pytest.fixture
def machine_calls(monkeypatch):
    """The arguments of every run_machine call from here on."""
    calls = []
    real = suites.run_machine
    monkeypatch.setattr(suites, "run_machine", lambda *args: calls.append(args) or real(*args))
    return calls


def test_machine_operators_enumerate_once_at_the_horizon(tmp_path, machine_calls):
    """Loading a config or building its suites runs no machine step; the
    first read of a machine operator runs it once per code below the
    horizon, and a second read runs nothing."""
    raw = {
        "horizon": 40,
        "suite": {
            "functionals": [{"kind": "machine", "program": ACCEPT_CODE_2}],
            "operators": [{"kind": "machine", "program": ACCEPT_CODE_2}],
        },
    }
    path = tmp_path / "machine.json"
    path.write_text(json.dumps(raw), encoding="utf-8")
    _, osuite = build_suites(load_config(path))
    assert machine_calls == []
    assert osuite.get(0).staged_axioms == ((5, Axiom.of([], 1)),)
    assert [(value, budget) for _, value, budget in machine_calls] == [(c, 40) for c in range(40)]
    machine_calls.clear()
    assert osuite.get(0).staged_axioms == ((5, Axiom.of([], 1)),)
    assert machine_calls == []


def machine_operator_config(tmp_path) -> Path:
    """One total functional and, as operator 0, a machine that never halts,
    at horizon 3000: compiling the operator would run it on 3000 codes."""
    raw = {
        "horizon": 3000,
        "suite": {
            "functionals": [{"kind": "total_const", "value": 0}],
            "operators": [{"kind": "machine", "program": [["inc", 1], ["decjz", 2, 0]]}],
        },
    }
    path = tmp_path / "machine.json"
    path.write_text(json.dumps(raw), encoding="utf-8")
    return path


def test_run_enumerates_no_operator(tmp_path, machine_calls):
    """run reads only the functionals, so it runs no machine operator on any
    code, however far the horizon."""
    path = machine_operator_config(tmp_path)
    assert main(["run", "--config", str(path), "--out", str(tmp_path / "t.trace")]) == 0
    assert machine_calls == []


def test_verify_and_psi_enumerate_only_what_they_read(tmp_path, machine_calls, capsys):
    """Neither structural checks nor a joint table of operators 1 and 1
    read operator 0, so neither runs its machine."""
    path = machine_operator_config(tmp_path)
    trace = str(tmp_path / "t.trace")
    assert main(["run", "--config", str(path), "--out", trace]) == 0
    argv = ["verify", "--trace", trace, "--config", str(path), "--checks", "structural"]
    assert main(argv + ["--report", str(tmp_path / "r.json")]) == 0
    argv = ["psi", "--trace", trace, "--config", str(path), "--e0", "1", "--e1", "1"]
    assert main(argv + ["--bound", "10"]) == 0
    assert machine_calls == []
    assert capsys.readouterr().out == ""


def test_verify_enumerates_an_operator_once_per_side(tmp_path, monkeypatch):
    """Operator 0 sits on side 0 of two preservation pairs; one verify
    evaluates it only at its side's change points, once each."""
    with open("configs/parity_demo.json", encoding="utf-8") as fh:
        raw = dict(json.load(fh), horizon=800)
    late = {"kind": "axioms", "axioms": [{"stage": 5, "premise": [], "output": 7}]}
    raw["suite"]["operators"].append(late)
    raw["checks"] = {"preservation": [{"e0": 0, "e1": 1}, {"e0": 0, "e1": 2}]}
    config = tmp_path / "parity.json"
    config.write_text(json.dumps(raw), encoding="utf-8")
    trace = tmp_path / "parity.trace"
    assert main(["run", "--config", str(config), "--out", str(trace)]) == 0
    rep = analysis.replay(read_trace(trace))
    w0 = compile_operator(raw["suite"]["operators"][0], 800)
    changes = {s for s in range(1, 801) if rep.entering[s][0] != rep.entering[s - 1][0]}
    changes |= {stage for stage, _ in w0.staged_axioms if 0 < stage <= 800}
    calls = []
    real = analysis.evaluate
    monkeypatch.setattr(
        analysis, "evaluate", lambda op, *args: calls.append(op == w0) or real(op, *args)
    )
    argv = ["verify", "--trace", str(trace), "--config", str(config), "--checks", "preservation"]
    assert main(argv + ["--report", str(tmp_path / "r.json")]) == 0
    assert 1 <= calls.count(True) <= len(changes) + 1


def test_random_partial_density_close_to_target():
    for target in (0.3, 0.7):
        for seed in range(10):
            spec = {"kind": "random_partial", "density": target, "values": "one", "seed": seed}
            settle = compile_functional(spec)
            realized = sum(1 for n in range(10_000) if settle(n, 10_001) is not None)
            assert abs(realized / 10_000 - target) < 0.02


def test_random_partial_takes_the_config_seed_unless_it_names_one():
    """A random_partial without `seed` takes the config's seed, also two levels
    inside `delayed`; its own `seed` overrides the config's."""
    rp = {"kind": "random_partial", "density": 0.5, "values": "random"}
    zero = {"a": 0, "b": 0}  # delays nothing: the stage bound comes later anyway
    nested = {"kind": "delayed", "inner": {"kind": "delayed", "inner": rp, "delay": zero}}
    nested["delay"] = zero

    def settles(functionals, seed):
        raw = {"horizon": 200, "seed": seed, "suite": {"functionals": functionals}}
        fsuite, _ = build_suites(parse_config(json.dumps(raw)))
        return [[fsuite.settle(e, n, 200) for n in range(100)] for e in range(len(functionals))]

    got = settles([rp, nested, dict(rp, seed=3)], 7)
    (seed_7,), (seed_3,) = settles([dict(rp, seed=7)], 0), settles([dict(rp, seed=3)], 0)
    assert seed_7 != seed_3
    assert got == [seed_7, seed_7, seed_3]


def test_nested_delays_compile_each_level_a_bounded_number_of_times(monkeypatch):
    """Loading and building a config with delays nested 12 deep compiles its
    13 records at most 26 times, once to check the config and once to build
    it, at seed 0 and at another seed alike; compiling each inner record
    again at every enclosing level would grow the count with the square of
    the depth, or double it per level."""
    depth, compiles, real = 12, [], suites.tagged

    def counting(raw, path, kinds):
        compiles.append("delayed" in kinds)  # a functional record
        return real(raw, path, kinds)

    monkeypatch.setattr(suites, "tagged", counting)
    spec = {"kind": "random_partial", "density": 0.5}
    for _ in range(depth):
        spec = {"kind": "delayed", "inner": spec, "delay": {"a": 0, "b": 1}}
    for seed in (0, 5):
        compiles.clear()
        raw = {"horizon": 10, "seed": seed, "suite": {"functionals": [spec]}}
        build_suites(parse_config(json.dumps(raw)))
        assert compiles.count(True) <= 2 * (depth + 1)


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
        for e in range(fsuite.classes):
            for n in range(40):
                settled = None
                for s in range(61):
                    got = fsuite.query(e, n, s)
                    if settled is None:
                        settled = got
                    else:
                        assert got == settled


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
            assert naive_oracle.literal_query(spec, n, s) == want


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 59), horizon=st.integers(0, 400))
def test_least_settle_is_the_least_settle_stage_and_stops_early(seed, horizon):
    """For every e up to and including `classes` and every bound 0..H,
    `least_settle` is the least (stage, n) over the class-e points above the
    bound that settle before the horizon, or None.  It settles the class
    points above the bound in order, each only while n + 1 is below the best
    stage found so far, and stops at the first point that is not."""
    fsuite = make_suites(random_config(seed, horizon))[0]
    for e in range(fsuite.classes + 1):
        hits = {n: fsuite.settle(e, n, horizon) for n in class_members(e, horizon)}
        calls = []
        counted = SimpleNamespace(settle=lambda *args: calls.append(args) or hits[args[1]])
        for bound in range(horizon + 1):
            calls.clear()
            got = suites.least_settle(counted, e, bound, horizon)
            settled = [(hit[1], n) for n, hit in hits.items() if hit and n > bound]
            assert got == min((hit for hit in settled if hit[0] < horizon), default=None)
            members = list(class_members(e, horizon, bound))
            assert calls == [(e, n, horizon) for n in members[: len(calls)]]
            best = horizon
            for _, n, _ in calls:
                assert n + 1 < best
                best = min(best, hits[n][1]) if hits[n] else best
            assert best == (horizon if got is None else got[0])
            assert len(calls) == len(members) or members[len(calls)] + 1 >= best


@pytest.mark.skipif(
    not getattr(sys, "get_int_max_str_digits", int)(), reason="Python prints ints of any length"
)
def test_the_largest_natural_prints_paired_with_itself_and_as_a_position():
    """A natural has at most half the digits that Python prints, less one, so
    the largest one the schema takes prints as pair(n, n) and as 2n + 1."""
    limit = sys.get_int_max_str_digits()
    largest = 10 ** (limit // 2 - 1) - 1
    assert suites.natural(largest, "n") == largest
    with pytest.raises(SpecError, match="^n: must be a natural$"):
        suites.natural(largest + 1, "n")
    assert len(str(pair(largest, largest))) <= limit
    assert len(str(position(largest, 1))) <= limit
