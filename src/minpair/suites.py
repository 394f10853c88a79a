"""Indexed families of staged candidate functionals and operators.

Functional entries answer stage-bounded queries query(n, s) -> bit or None
under two hard conventions: nothing converges unless n < s, and convergence
is stable (once converged, the same bit at every later stage).  Each entry
gives the first stage at which a point converges (its settle stage) in
closed form, and queries are derived from it, so both conventions hold by
construction.  Entries are written in a small synthetic description
language (tagged records, parsed from config files) or as register-machine
programs run with a step budget equal to the stage.  build_suite compiles a
whole family; operators are checked for the use-within-stage bound.  Absent
indices behave as everywhere divergent.
"""

from __future__ import annotations

import random
from typing import TYPE_CHECKING, NamedTuple

from .arith import class_index, pair, unpair

if TYPE_CHECKING:
    from .operators import EnumOperator


class SpecError(ValueError):
    """A synthetic description is malformed."""


class SuiteValidationError(ValueError):
    """An entry violates a suite convention."""


# ---------------------------------------------------------------------------
# register machine


class Instruction(NamedTuple):
    op: str  # "inc" | "decjz" | "halt"
    reg: int = 0
    target: int = 0


def run_machine(
    program: tuple[Instruction, ...], value: int, max_steps: int
) -> tuple[bool, int, int]:
    """Run with register 0 = value and a step budget.

    Returns (halted, steps_used, output_bit); output is register 0 mod 2.
    Running off either end of the program halts.  Halting is stable: a
    larger budget never changes the outcome of a halted run.
    """
    regs: dict[int, int] = {0: value}
    pc = 0
    steps = 0
    while steps < max_steps:
        if pc < 0 or pc >= len(program):
            return True, steps, regs.get(0, 0) & 1
        ins = program[pc]
        steps += 1
        if ins.op == "halt":
            return True, steps, regs.get(0, 0) & 1
        if ins.op == "inc":
            regs[ins.reg] = regs.get(ins.reg, 0) + 1
            pc += 1
        else:  # decjz
            if regs.get(ins.reg, 0) == 0:
                pc = ins.target
            else:
                regs[ins.reg] -= 1
                pc += 1
    if pc < 0 or pc >= len(program):
        return True, steps, regs.get(0, 0) & 1
    return False, steps, 0


def parse_program(raw) -> tuple[Instruction, ...]:
    """Decode ["inc", r] / ["decjz", r, addr] / ["halt"] records."""
    if not isinstance(raw, list):
        raise SpecError("program must be a list of instructions")
    out = []
    for i, ins in enumerate(raw):
        if not isinstance(ins, list) or not ins or not isinstance(ins[0], str):
            raise SpecError(f"instruction {i} must be a tagged list")
        op = ins[0]
        if op == "halt":
            if len(ins) != 1:
                raise SpecError(f"instruction {i}: halt takes no operands")
            out.append(Instruction("halt"))
        elif op == "inc":
            if len(ins) != 2 or not _is_nat(ins[1]):
                raise SpecError(f"instruction {i}: inc takes one register")
            out.append(Instruction("inc", ins[1]))
        elif op == "decjz":
            if len(ins) != 3 or not _is_nat(ins[1]) or not _is_nat(ins[2]):
                raise SpecError(f"instruction {i}: decjz takes register and address")
            out.append(Instruction("decjz", ins[1], ins[2]))
        else:
            raise SpecError(f"instruction {i}: unknown opcode '{op}'")
    return tuple(out)


def _is_nat(x) -> bool:
    return isinstance(x, int) and not isinstance(x, bool) and x >= 0


def _is_bit(x) -> bool:
    return isinstance(x, int) and not isinstance(x, bool) and x in (0, 1)


# ---------------------------------------------------------------------------
# functional kinds


class StagedFunctional:
    """Base: a kind's closed form for the first stage at which n converges.

    settle(n, limit) returns (bit, stage) under the kind's own rule, or None
    when n never converges.  Only machines read the limit: they run for at
    most `limit` steps, so their None means "not by stage limit".  The stage
    bound n < s is added by FunctionalSuite.settle, in one place.
    """

    def settle(self, n: int, limit: int) -> tuple[int, int] | None:
        raise NotImplementedError


class TotalConst(StagedFunctional):
    def __init__(self, value: int):
        self.value = value

    def settle(self, n, limit):
        return self.value, 0


class TotalFn(StagedFunctional):
    """Finite table of bits continued by a fill rule beyond its end."""

    def __init__(self, table: tuple[int, ...], fill: str):
        if fill not in ("cycle", "zero", "one"):
            raise SpecError(f"unknown fill rule '{fill}'")
        if fill == "cycle" and not table:
            raise SpecError("cycle fill needs a nonempty table")
        self.table = table
        self.fill = fill

    def settle(self, n, limit):
        if n < len(self.table) or self.fill == "cycle":
            return self.table[n % len(self.table)], 0
        return (0 if self.fill == "zero" else 1), 0


class UndefinedOnClass(StagedFunctional):
    """Diverges exactly on one valuation class, constant elsewhere."""

    def __init__(self, e: int, value: int = 1):
        self.e = e
        self.value = value

    def settle(self, n, limit):
        return None if class_index(n) == self.e else (self.value, 0)


class Delayed(StagedFunctional):
    """Postpones an inner functional: nothing converges at stages <= a*n + b."""

    def __init__(self, inner: StagedFunctional, a: int, b: int):
        self.inner = inner
        self.a = a
        self.b = b

    def settle(self, n, limit):
        hit = self.inner.settle(n, limit)
        return None if hit is None else (hit[0], max(self.a * n + self.b + 1, hit[1]))


class RandomPartial(StagedFunctional):
    """Pseudo-random domain of a target density, deterministic per seed."""

    def __init__(self, density: float, rule: str, seed: int):
        if not 0.0 <= density <= 1.0:
            raise SpecError(f"density must lie in [0,1], got {density}")
        if rule not in ("zero", "one", "parity", "random"):
            raise SpecError(f"unknown value rule '{rule}'")
        self.density = density
        self.rule = rule
        self.seed = seed

    def settle(self, n, limit):
        rng = random.Random(f"rp:{self.seed}:{n}")
        if rng.random() >= self.density:
            return None
        bit = {"zero": 0, "one": 1, "parity": n & 1}.get(self.rule)
        return (rng.getrandbits(1) if bit is None else bit), 0


class EmptyFunctional(StagedFunctional):
    def settle(self, n, limit):
        return None


class TablePartial(StagedFunctional):
    """Explicit finite domain with a per-point first visible stage."""

    def __init__(self, entries: dict[int, tuple[int, int]]):
        self.entries = dict(entries)

    def settle(self, n, limit):
        return self.entries.get(n)


class MachineFunctional(StagedFunctional):
    """Register machine with step budget s: n converges once the machine
    halts on it, at the stage equal to its step count; the bit is r0 mod 2."""

    def __init__(self, program: tuple[Instruction, ...]):
        self.program = program

    def settle(self, n, limit):
        halted, steps, out = run_machine(self.program, n, limit)
        return (out, steps) if halted else None


# ---------------------------------------------------------------------------
# tagged-record compilation

_FUNCTIONAL_FIELDS = {
    "total_const": {"value"},
    "total_fn": {"table", "fill"},
    "undefined_on_class": {"e", "value"},
    "delayed": {"inner", "delay"},
    "random_partial": {"density", "values", "seed"},
    "empty": set(),
    "table_partial": {"entries"},
    "unstable_probe": {"point", "stage", "value"},
    "machine": {"program"},
}


def compile_functional(spec, default_seed: int = 0) -> StagedFunctional:
    """Compile one tagged record into a functional."""
    if not isinstance(spec, dict):
        raise SpecError("functional spec must be an object")
    kind = spec.get("kind")
    if kind not in _FUNCTIONAL_FIELDS:
        raise SpecError(f"unknown kind '{kind}'")
    extra = set(spec) - _FUNCTIONAL_FIELDS[kind] - {"kind"}
    if extra:
        raise SpecError(f"unknown fields {sorted(extra)} for kind '{kind}'")

    if kind == "total_const":
        if not _is_bit(spec.get("value")):
            raise SpecError("total_const needs a bit value")
        return TotalConst(spec["value"])
    if kind == "total_fn":
        table = spec.get("table")
        if not isinstance(table, list) or not all(_is_bit(b) for b in table):
            raise SpecError("total_fn needs a list of bits")
        return TotalFn(tuple(table), spec.get("fill", "cycle"))
    if kind == "undefined_on_class":
        if not _is_nat(spec.get("e")):
            raise SpecError("undefined_on_class needs a natural class index")
        value = spec.get("value", 1)
        if not _is_bit(value):
            raise SpecError("undefined_on_class value must be a bit")
        return UndefinedOnClass(spec["e"], value)
    if kind == "delayed":
        delay = spec.get("delay")
        if (
            not isinstance(delay, dict)
            or set(delay) != {"a", "b"}
            or not _is_nat(delay["a"])
            or not _is_nat(delay["b"])
        ):
            raise SpecError("delayed needs delay coefficients {a, b}")
        return Delayed(compile_functional(spec.get("inner"), default_seed), delay["a"], delay["b"])
    if kind == "random_partial":
        density = spec.get("density")
        if not isinstance(density, (int, float)) or isinstance(density, bool):
            raise SpecError("random_partial needs a numeric density")
        seed = spec.get("seed", default_seed)
        if not isinstance(seed, int) or isinstance(seed, bool):
            raise SpecError("random_partial seed must be an integer")
        return RandomPartial(float(density), spec.get("values", "one"), seed)
    if kind == "empty":
        return EmptyFunctional()
    if kind == "table_partial":
        entries = spec.get("entries")
        if not isinstance(entries, list):
            raise SpecError("table_partial needs a list of [n, bit, from_stage]")
        table: dict[int, tuple[int, int]] = {}
        for row in entries:
            if (
                not isinstance(row, list)
                or len(row) != 3
                or not _is_nat(row[0])
                or not _is_bit(row[1])
                or not _is_nat(row[2])
            ):
                raise SpecError(f"bad table_partial entry {row}")
            if row[0] in table:
                raise SpecError(f"point {row[0]} listed twice")
            table[row[0]] = (row[1], row[2])
        return TablePartial(table)
    if kind == "unstable_probe":
        if not _is_nat(spec.get("point")) or not _is_nat(spec.get("stage")):
            raise SpecError("unstable_probe needs point and stage")
        if not _is_bit(spec.get("value", 0)):
            raise SpecError("unstable_probe value must be a bit")
        # converges at one stage only, so no settle stage exists: never stable
        raise SuiteValidationError(
            f"monotone-stability violated: point {spec['point']} converges "
            f"at stage {spec['stage']} only"
        )
    # machine
    return MachineFunctional(parse_program(spec.get("program")))


def _decode_output(raw) -> int:
    if _is_nat(raw):
        return raw
    if isinstance(raw, list) and len(raw) == 2 and all(_is_nat(v) for v in raw):
        return pair(raw[0], raw[1])
    raise SpecError(f"output must be a natural or a [x, y] pair, got {raw}")


def _decode_premise(raw) -> tuple[int, ...]:
    if not isinstance(raw, list):
        raise SpecError("premise must be a list")
    codes = []
    for item in raw:
        if _is_nat(item):
            codes.append(item)
        elif (
            isinstance(item, list)
            and len(item) == 2
            and _is_nat(item[0])
            and _is_bit(item[1])
        ):
            codes.append(pair(item[0], item[1]))
        else:
            raise SpecError(f"premise entry must be a code or [point, bit], got {item}")
    return tuple(codes)


_OPERATOR_FIELDS = {
    "axioms": {"axioms"},
    "machine": {"program"},
}


def compile_operator(spec, stage_bound: int) -> EnumOperator:
    """Compile one tagged record into an operator.

    Machine operators enumerate axiom codes by dovetailing: code c (coding
    premise bitmask and output) enters at the least stage s with c < s, the
    machine accepting c (halting with output bit 1) within s steps, and the
    premise use within s.  Enumeration is cut off at stage_bound.
    """
    from .operators import Axiom, EnumOperator  # a config without operators never loads them

    if not isinstance(spec, dict):
        raise SpecError("operator spec must be an object")
    kind = spec.get("kind")
    if kind not in _OPERATOR_FIELDS:
        raise SpecError(f"unknown kind '{kind}'")
    extra = set(spec) - _OPERATOR_FIELDS[kind] - {"kind"}
    if extra:
        raise SpecError(f"unknown fields {sorted(extra)} for kind '{kind}'")

    if kind == "axioms":
        rows = spec.get("axioms")
        if not isinstance(rows, list):
            raise SpecError("axioms must be a list")
        staged = []
        for row in rows:
            if not isinstance(row, dict) or set(row) != {"stage", "premise", "output"}:
                raise SpecError(f"axiom must have stage/premise/output, got {row}")
            if not _is_nat(row["stage"]):
                raise SpecError("axiom stage must be a natural")
            staged.append(
                (
                    row["stage"],
                    Axiom.of(_decode_premise(row["premise"]), _decode_output(row["output"])),
                )
            )
        return EnumOperator.from_staged(staged)

    program = parse_program(spec.get("program"))
    staged = []
    for code in range(stage_bound):
        halted, steps, out = run_machine(program, code, stage_bound)
        if not halted or out != 1:
            continue
        mask, output = unpair(code)
        premise = tuple(i for i in range(mask.bit_length()) if mask >> i & 1)
        use = premise[-1] + 1 if premise else 0
        enters = max(steps, code + 1, use)
        if enters <= stage_bound:
            staged.append((enters, Axiom.of(premise, output)))
    return EnumOperator.from_staged(staged)


# ---------------------------------------------------------------------------
# suites


class FunctionalSuite:
    """Indexed family of staged functionals; absent indices diverge.

    settle is the one primitive and query is derived from it, so the stage
    bound (nothing converges unless n < s) and stability (once converged,
    the same bit at every later stage) hold by construction.  Settles are
    cached per (e, n); horizon is the least limit query settles with.
    """

    def __init__(self, entries: dict[int, StagedFunctional], horizon: int = 0):
        for e in entries:
            if not _is_nat(e):
                raise ValueError(f"functional index must be a natural, got {e}")
        self._entries = dict(entries)
        self.horizon = horizon
        self.classes = max(entries, default=-1) + 1  # the engine scans classes below it
        # (e, n) -> (bit, stage), or (None, limit) when unsettled by that limit
        self._settled: dict[tuple[int, int], tuple] = {}

    def settle(self, e: int, n: int, limit: int) -> tuple[int, int] | None:
        """(bit, stage) for the first stage at which entry e converges on n,
        or None when that stage does not come by the limit."""
        got = self._settled.get((e, n))
        if got is None or got[0] is None and got[1] < limit:
            fn = self._entries.get(e)
            hit = None if fn is None else fn.settle(n, limit)
            got = (None, limit) if hit is None else (hit[0], max(hit[1], n + 1))
            self._settled[e, n] = got
        return got if got[0] is not None and got[1] <= limit else None

    def query(self, e: int, n: int, s: int) -> int | None:
        """Entry e's bit on n from its settle stage on; None before it."""
        if n < 0 or s < 0:
            raise ValueError(f"query arguments must be naturals, got ({n}, {s})")
        got = self._settled.get((e, n))
        if got is None or got[0] is None and got[1] < s:
            self.settle(e, n, max(s, self.horizon))
            got = self._settled[e, n]
        return got[0] if got[1] <= s else None

    def indices(self) -> list[int]:
        return sorted(self._entries)


class OperatorSuite:
    """Indexed family of operators; absent indices are axiomless."""

    def __init__(self, entries: dict[int, EnumOperator]):
        for e in entries:
            if not _is_nat(e):
                raise ValueError(f"operator index must be a natural, got {e}")
        self._entries = dict(entries)

    def get(self, e: int) -> EnumOperator:
        from .operators import EMPTY_OPERATOR

        return self._entries.get(e, EMPTY_OPERATOR)

    def indices(self) -> list[int]:
        return sorted(self._entries)


def build_suite(
    functional_specs: list,
    operator_specs: list,
    horizon: int,
    default_seed: int = 0,
) -> tuple[FunctionalSuite, OperatorSuite]:
    """Compile a whole family from tagged records."""
    functionals: dict[int, StagedFunctional] = {}
    for e, spec in enumerate(functional_specs):
        try:
            functionals[e] = compile_functional(spec, default_seed)
        except (SpecError, SuiteValidationError) as err:
            raise type(err)(f"functionals[{e}]: {err}") from None
    ops: dict[int, EnumOperator] = {}
    for e, spec in enumerate(operator_specs):
        from .operators import OperatorValidationError, validate_use_bound

        try:
            op = compile_operator(spec, horizon)
        except SpecError as err:
            raise SpecError(f"operators[{e}]: {err}") from None
        try:
            validate_use_bound(op)
        except OperatorValidationError as err:
            raise SuiteValidationError(f"operators[{e}]: {err}") from None
        ops[e] = op
    return FunctionalSuite(functionals, horizon), OperatorSuite(ops)
