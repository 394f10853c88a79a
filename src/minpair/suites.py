"""Indexed families of staged candidate functionals and operators.

Functional entries answer stage-bounded queries query(n, s) -> bit or None
under two hard conventions: nothing converges unless n < s, and convergence
is stable (once converged, the same bit at every later stage).  Each kind
of functional compiles to its settle rule, which gives the first stage at
which a point converges (its settle stage) in closed form, and queries are
derived from it, so both conventions hold by construction.  Entries are
written in a small synthetic description language (tagged records, parsed
from config files) or as register-machine programs run with a step budget
equal to the stage.  build_suite compiles a whole family, each operator
when it is first read, and each `axioms` operator is checked for the
use-within-stage bound as it is built.  An index past the end of a family
diverges everywhere, or has no axioms.
`least_settle` is the one scan for the least settle stage of a class point
above a bound, which the reference oracle and capture both read; the stage
bound lets it stop early.  The config schema, one field table per record
(functional kinds per seed, operator kinds per stage bound), lives here too;
it compiles every spec to check it, at seed 0 and stage bound 0.  So does
`load_json`, the one JSON reader, of configs and trace lines alike.
"""

from __future__ import annotations

import json
import random
import sys
from functools import cache, partial
from typing import TYPE_CHECKING, Callable, NamedTuple, Sequence

from .arith import class_index, class_members, pair, unpair

if TYPE_CHECKING:
    from fractions import Fraction

    from .operators import EnumOperator


class SpecError(ValueError):
    """A config or a spec breaks the schema at the JSON path that the message names."""


# ---------------------------------------------------------------------------
# schema
#
# A table maps each field of a JSON object to (parse,) when it is required or
# to (parse, default) when it may be absent.  A parser takes the raw value and
# its JSON path and returns the checked value, or raises SpecError naming the
# path.  A default is parsed like a given value, so each config gets its own
# lists.  A natural has at most half the digits that Python prints
# (sys.get_int_max_str_digits(), 0 for any), less one, so that a pair code of
# two naturals, and a position 2e + 1, still print.
_DIGITS = getattr(sys, "get_int_max_str_digits", int)() // 2 - 1  # -1: no bound
_NAT_END = 10**_DIGITS if _DIGITS >= 0 else float("inf")


def _is_nat(x) -> bool:
    return isinstance(x, int) and not isinstance(x, bool) and 0 <= x < _NAT_END


def _is_bit(x) -> bool:
    return isinstance(x, int) and not isinstance(x, bool) and x in (0, 1)


def _object(pairs: list) -> dict:
    """A JSON object as a dict; if it names a field twice, None (no JSON key,
    and kept by `tagged`) maps to the first such name, for `fields` to reject."""
    obj = dict(pairs)
    if len(obj) < len(pairs):
        seen = set()  # one scan: `seen.add` returns None, so a name is kept only when repeated
        obj[None] = next(name for name, _ in pairs if name in seen or seen.add(name))
    return obj


def _shown(name) -> str:
    """A name read from input, on one line: a string's unprintable characters escaped."""
    return repr(name)[1:-1] if isinstance(name, str) else str(name)


def load_json(text: str, document: str = ""):
    """The JSON value of a config `document`, or of a trace line; a SpecError names a
    document's syntax error by line and column, and its other errors by the document."""
    try:
        return json.loads(text, object_pairs_hook=_object)
    except json.JSONDecodeError as err:
        at = f"line {err.lineno} column {err.colno}: " if document else ""
        raise SpecError(at + err.msg) from None
    except (RecursionError, ValueError) as err:  # nested too deeply, or too long a number
        raise SpecError(f"{document}: {err}" if document else str(err)) from None


def fields(raw, path: str, table: dict) -> dict:
    """The fields of the JSON object `raw`, each parsed by its entry in `table`;
    field `name` is at path.name, or at name when `raw` is a nameless root (path "")."""
    if not isinstance(raw, dict):
        raise SpecError(f"{path}: must be an object")
    at = f"{path}." if path else ""
    if None in raw:  # `load_json` read a field twice
        raise SpecError(f"{at}{_shown(raw[None])}: duplicate field")
    for name in raw:
        if name not in table:
            raise SpecError(f"{at}{_shown(name)}: unknown field")
    got = {}
    for name, entry in table.items():  # (parse,) or (parse, default)
        parse = entry[0]
        if name in raw:
            got[name] = parse(raw[name], at + name)
        elif len(entry) == 1:
            raise SpecError(f"{at}{name}: missing field")
        else:
            got[name] = parse(entry[1], at + name)
    return got


def _build(build, raw, path: str, table: dict):
    """build(**fields); a SpecError from build (a check across fields) names path."""
    got = fields(raw, path, table)
    try:
        return build(**got)
    except SpecError as err:
        raise SpecError(f"{path}: {err}") from None


def _row(**got) -> tuple:
    return tuple(got.values())


def record(build, table: dict):
    """Parser of a JSON object with the fields of `table`, made into build(**fields)."""
    return lambda raw, path: _build(build, raw, path, table)


def tagged(raw, path: str, kinds: dict):
    """The value of a kind-tagged JSON object: its "kind" picks the (build, table)
    entry of `kinds`, and its other fields go through table into build."""
    kind = raw.get("kind") if isinstance(raw, dict) else None
    if not isinstance(kind, str) or kind not in kinds:
        raise SpecError(f"{path}.kind: unknown kind '{_shown(kind)}'")
    build, table = kinds[kind]
    return _build(build, {k: v for k, v in raw.items() if k != "kind"}, path, table)


def _checked(test, what: str):
    """Parser that keeps a value passing `test`, which it carries as .test."""

    def parse(raw, path):
        if not test(raw):
            raise SpecError(f"{path}: must be {what}")
        return raw

    parse.test = test
    return parse


natural = _checked(_is_nat, "a natural")
bit = _checked(_is_bit, "the integer 0 or 1")
positive = _checked(lambda x: _is_nat(x) and x >= 1, "a natural >= 1")
integer = _checked(lambda x: type(x) is int, "an integer")
_json = _checked(lambda x: True, "JSON")


def one_of(*choices: str):
    return _checked(lambda x: isinstance(x, str) and x in choices, f"one of {list(choices)}")


def list_of(parse):
    """Parser of a JSON list, item i parsed by `parse` at path[i]; plain checks take one pass."""
    test = getattr(parse, "test", None)

    def parse_list(raw, path):
        if not isinstance(raw, list):
            raise SpecError(f"{path}: must be a list")
        if test is not None and all(map(test, raw)):
            return list(raw)
        return [parse(item, f"{path}[{i}]") for i, item in enumerate(raw)]

    return parse_list


def items(*parses):
    """Parser of a JSON list of exactly one item per parser, in order."""

    def parse_items(raw, path):
        if not isinstance(raw, list) or len(raw) != len(parses):
            many = "item" if len(parses) == 1 else "items"
            raise SpecError(f"{path}: must be a list of {len(parses)} {many}")
        return [parse(item, f"{path}[{i}]") for i, (parse, item) in enumerate(zip(parses, raw))]

    return parse_items


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
    larger budget never changes the outcome of a halted run.  A run that
    never halts may stop early, at a certificate (Brent 1980): the 1st, 2nd,
    4th, ... backward jump (a zero branch to at most its own pc) saves its
    target and the registers, and a later one to that target certifies when
    no register is below its saved value and each register tested zero
    since equals it.  The path between the two then repeats forever.
    """
    dense = {0: 0}  # register -> its index in regs, in order of first use
    code = [(ins.op, dense.setdefault(ins.reg, len(dense)), ins.target) for ins in program]
    regs = [value] + [0] * (len(dense) - 1)
    saved, target, below, zeroed, jumps = regs.copy(), None, 0, set(), 0  # below: regs < saved
    pc = steps = 0
    while 0 <= pc < len(code):
        if steps >= max_steps:
            return False, steps, 0
        op, r, to = code[pc]
        steps += 1
        if op == "inc":
            regs[r] += 1
            below -= regs[r] == saved[r]
            pc += 1
        elif op == "halt":
            break
        elif regs[r]:  # decjz
            regs[r] -= 1
            below += regs[r] + 1 == saved[r]
            pc += 1
        else:
            zeroed.add(r)
            if to <= pc:
                jumps += 1
                if jumps & (jumps - 1) == 0:
                    saved, target, below, zeroed = regs.copy(), to, 0, set()
                elif to == target and not below and all(regs[z] == saved[z] for z in zeroed):
                    return False, steps, 0
            pc = to
    return True, steps, regs[0] & 1


# The instruction table: each opcode's number of operands, all naturals (register, address).
OPERANDS = {"halt": 0, "inc": 1, "decjz": 2}


def _instruction(raw, path: str) -> Instruction:
    op = raw[0] if isinstance(raw, list) and raw else None
    if not isinstance(op, str) or op not in OPERANDS:
        raise SpecError(f"{path}[0]: unknown opcode '{_shown(op)}'")
    return Instruction(*items(_json, *[natural] * OPERANDS[op])(raw, path))


def parse_program(raw, path: str = "program") -> tuple[Instruction, ...]:
    """Decode ["inc", r] / ["decjz", r, addr] / ["halt"] records."""
    return tuple(list_of(_instruction)(raw, path))


# ---------------------------------------------------------------------------
# functional kinds
#
# Each kind compiles to its settle rule: settle(n, limit) is (bit, stage) for
# the first stage at which n converges under the kind's own rule, or None when
# n never converges.  Only machines read the limit: they run for at most
# `limit` steps, so their None means "not by stage limit".  The stage bound
# n < s is added by FunctionalSuite.settle, in one place.  Each builder takes
# only its kind's fields.


Settle = Callable[[int, int], "tuple[int, int] | None"]


def _total_fn(table: list[int], fill: str) -> Settle:
    """Finite table of bits continued by a fill rule beyond its end."""
    if fill == "cycle" and not table:
        raise SpecError("cycle fill needs a nonempty table")

    def settle(n, limit):
        if n < len(table) or fill == "cycle":
            return table[n % len(table)], 0
        return (0 if fill == "zero" else 1), 0

    return settle


def _undefined_on_class(e: int, value: int) -> Settle:
    """Diverges exactly on one valuation class, constant elsewhere."""
    return lambda n, limit: None if class_index(n) == e else (value, 0)


def _delayed(inner: Settle, delay: tuple[int, int]) -> Settle:
    """Postpones an inner functional: nothing converges at stages <= a*n + b."""
    a, b = delay

    def settle(n, limit):
        hit = inner(n, limit)
        return None if hit is None else (hit[0], max(a * n + b + 1, hit[1]))

    return settle


def _random_partial(density: float, values: str, seed: int) -> Settle:
    """Pseudo-random domain of a target density, deterministic per seed."""

    def settle(n, limit):
        rng = random.Random(f"rp:{seed}:{n}")
        if rng.random() >= density:
            return None
        bit = {"zero": 0, "one": 1, "parity": n & 1}.get(values)
        return (rng.getrandbits(1) if bit is None else bit), 0

    return settle


def _table_partial(entries: dict[int, tuple[int, int]]) -> Settle:
    """Explicit finite domain with a per-point first visible stage."""
    return lambda n, limit: entries.get(n)


def _machine(program: tuple[Instruction, ...]) -> Settle:
    """Register machine with step budget s: n converges once the machine
    halts on it, at the stage equal to its step count; the bit is r0 mod 2."""

    def settle(n, limit):
        halted, steps, out = run_machine(program, n, limit)
        return (out, steps) if halted else None

    return settle


_density = _checked(lambda x: type(x) in (int, float) and 0 <= x <= 1, "a number in [0, 1]")
_fill = one_of("cycle", "zero", "one")
_values = one_of("zero", "one", "parity", "random")
DELAY = {"a": (natural,), "b": (natural,)}


def _entries(raw, path: str) -> dict[int, tuple[int, int]]:
    """table_partial rows [n, bit, from_stage], one per point."""
    rows = list_of(items(natural, bit, natural))(raw, path)
    table = {n: (value, stage) for n, value, stage in rows}
    if len(table) < len(rows):
        raise SpecError(f"{path}: a point is listed twice")
    return table


def functional_kinds(seed: int) -> dict:
    """Each functional kind's (build, table) at a config's seed, the seed of every
    random_partial that names none; delayed's inner record is compiled as it is parsed."""

    def inner(raw, path):
        return compile_functional(raw, seed, path)

    return {
        "total_const": (lambda value: _total_fn([value], "cycle"), {"value": (bit,)}),
        "total_fn": (_total_fn, {"table": (list_of(bit),), "fill": (_fill, "cycle")}),
        "undefined_on_class": (_undefined_on_class, {"e": (natural,), "value": (bit, 1)}),
        "delayed": (_delayed, {"inner": (inner,), "delay": (record(_row, DELAY),)}),
        "random_partial": (
            _random_partial,
            {"density": (_density,), "values": (_values, "one"), "seed": (integer, seed)},
        ),
        "empty": (lambda: _table_partial({}), {}),
        "table_partial": (_table_partial, {"entries": (_entries,)}),
        "machine": (_machine, {"program": (parse_program,)}),
    }


def compile_functional(spec, default_seed: int = 0, path: str = "functional") -> Settle:
    """Compile one tagged record into its settle rule; default_seed is the
    seed of every random_partial that names none."""
    return tagged(spec, path, functional_kinds(default_seed))


# ---------------------------------------------------------------------------
# operator kinds


def _code(second):
    """Parser of a code: a natural, or [x, y] as pair(x, y) with y parsed by `second`."""
    xy = items(natural, second)
    return lambda raw, path: pair(*xy(raw, path)) if isinstance(raw, list) else natural(raw, path)


AXIOM = {"stage": (natural,), "premise": (list_of(_code(bit)),), "output": (_code(natural),)}


def _axioms_operator(axioms: list[dict]) -> EnumOperator:
    from .operators import Axiom, EnumOperator  # loaded only for operators

    op = EnumOperator.from_staged((a["stage"], Axiom.of(a["premise"], a["output"])) for a in axioms)
    for stage, axiom in op.staged_axioms:  # the restraint argument leans on this bound
        if axiom.use > stage:
            premise = f"premise max {axiom.premise[-1]} (use {axiom.use})"
            raise SpecError(f"axiom with {premise} visible at stage {stage}")
    return op


def _machine_operator(program: tuple[Instruction, ...], stage_bound: int) -> EnumOperator:
    """Machine operators enumerate axiom codes by dovetailing: code c (coding
    premise bitmask and output) enters at the least stage s with c < s, the
    machine accepting c (halting with output bit 1) within s steps, and the
    premise use within s.  Codes and steps stop at stage_bound, so all enter by it."""
    from .operators import Axiom, EnumOperator

    premise = cache(lambda mask: tuple(i for i in range(mask.bit_length()) if mask >> i & 1))
    staged = []
    for code in range(stage_bound):
        halted, steps, out = run_machine(program, code, stage_bound)
        if halted and out == 1:
            mask, output = unpair(code)
            axiom = Axiom(premise(mask), output)  # the axioms with one mask share its tuple
            staged.append((max(steps, code + 1, axiom.use), axiom))
    return EnumOperator.from_staged(staged)


def operator_kinds(stage_bound: int) -> dict:
    """Each operator kind's (build, table); a machine is enumerated up to stage_bound."""
    machine = partial(_machine_operator, stage_bound=stage_bound)
    return {
        "axioms": (_axioms_operator, {"axioms": (list_of(record(dict, AXIOM)),)}),
        "machine": (machine, {"program": (parse_program,)}),
    }


def compile_operator(spec, stage_bound: int, path: str = "operator") -> EnumOperator:
    """Compile one tagged record into an operator, enumerated up to stage_bound;
    an axiom visible before its use is a SpecError that names path."""
    return tagged(spec, path, operator_kinds(stage_bound))


# ---------------------------------------------------------------------------
# config records

# Each target kind's bit at a point, as a function of the point.
TARGET_KINDS = {
    "parity": (lambda: lambda n: n & 1, {}),
    "const": (lambda value: lambda n: value, {"value": (bit,)}),
    "bits": (lambda values: values.__getitem__, {"values": (list_of(bit),)}),
}


def _compiles(kinds: dict):
    """Parser that keeps a tagged spec which `kinds` compiles."""

    def parse(raw, path):
        tagged(raw, path, kinds)
        return raw

    return parse


def _rational(raw, path: str) -> Fraction:
    from fractions import Fraction  # only end_to_end checks load it

    try:  # the exponent is bounded before Fraction expands it, then its numerator and denominator
        if not 0 <= _DIGITS < abs(int(str(raw).lower().partition("e")[2] or 0)):
            q = Fraction(str(raw))
            if _is_nat(abs(q.numerator)) and _is_nat(q.denominator):
                return q
    except (ValueError, ZeroDivisionError):
        pass
    raise SpecError(f"{path}: must be a rational")


class EndToEndSpec(NamedTuple):
    e0: int
    e1: int
    bound: int
    threshold: Fraction
    target: dict  # its tagged JSON record

    def target_view(self) -> TargetBits:
        """The target's bits below the bound, each computed when it is read."""
        return TargetBits(tagged(self.target, "target", TARGET_KINDS), self.bound)

    def target_bits(self) -> list[int]:
        return list(self.target_view())


class TargetBits:
    """bit(n) for each n below bound; no bit is kept, so any bound costs the same."""

    def __init__(self, bit, bound: int) -> None:
        self.bit = bit
        self.bound = bound

    def __getitem__(self, n: int) -> int:
        if not 0 <= n < self.bound:
            raise IndexError(f"no target bit at {n}")
        return self.bit(n)


def _end_to_end(**got) -> EndToEndSpec:
    spec = EndToEndSpec(**got)
    if "values" in spec.target and len(spec.target["values"]) < spec.bound:  # only bits run short
        raise SpecError("target bits shorter than bound")
    return spec


# Each check record: how it is built, and its table, whose field order is
# that of the built tuple, so serializing zips the two.
CHECK_RECORDS = {
    "capture": (_row, {"e": (natural,), "side": (bit,)}),
    "preservation": (_row, {"e0": (natural,), "e1": (natural,)}),
    "end_to_end": (
        _end_to_end,
        {
            "e0": (natural,),
            "e1": (natural,),
            "bound": (positive,),
            "threshold": (_rational,),
            "target": (_compiles(TARGET_KINDS),),
        },
    ),
}

CHECKS = {name: (list_of(record(*entry)), []) for name, entry in CHECK_RECORDS.items()}
SUITE = {
    "functionals": (list_of(_compiles(functional_kinds(0))),),
    # at stage bound 0 a machine operator enumerates nothing, but an axioms operator
    # builds and checks every axiom, as it does again when a check reads it
    "operators": (list_of(_compiles(operator_kinds(0))), []),
}

CONFIG = {
    "horizon": (natural,),
    "snapshot_every": (natural, 0),
    "seed": (integer, 0),
    "suite": (record(dict, SUITE),),
    "checks": (record(dict, CHECKS), {}),
}


# ---------------------------------------------------------------------------
# suites


class FunctionalSuite:
    """Indexed family of settle rules; an index at or past the end diverges.

    settle is the one primitive and query is derived from it, so the stage
    bound (nothing converges unless n < s) and stability (once converged,
    the same bit at every later stage) hold by construction.  Nothing is
    cached, here or by a caller: a point that is revisited is settled again.
    """

    def __init__(self, rules: Sequence[Settle]):
        self._rules = tuple(rules)
        self.classes = len(self._rules)  # the engine scans classes below it

    def settle(self, e: int, n: int, limit: int) -> tuple[int, int] | None:
        """(bit, stage) for the first stage at which entry e converges on n,
        or None when that stage does not come by the limit."""
        hit = self._rules[e](n, limit) if e < self.classes else None
        if hit is None:
            return None
        stage = max(hit[1], n + 1)  # the stage bound: nothing converges unless n < s
        return (hit[0], stage) if stage <= limit else None

    def query(self, e: int, n: int, s: int) -> int | None:
        """Entry e's bit on n from its settle stage on; None before it."""
        if n < 0 or s < 0:
            raise ValueError(f"query arguments must be naturals, got ({n}, {s})")
        hit = self.settle(e, n, s)
        return None if hit is None else hit[0]


def least_settle(
    suite: FunctionalSuite, e: int, bound: int, horizon: int
) -> tuple[int, int] | None:
    """(stage, n): the least settle stage below the horizon of a class-e point above bound,
    and the least point that settles then; None if no such point settles before the horizon.
    The scan stops at the first point the stage bound keeps from settling before the best stage."""
    best, stop, settle = None, horizon, suite.settle
    for n in class_members(e, horizon, bound):
        if n + 1 >= stop:  # n and every later point settle after stage n
            break
        hit = settle(e, n, horizon)
        if hit is not None and hit[1] < stop:
            best, stop = (hit[1], n), hit[1]
    return best


class OperatorSuite:
    """Indexed family of operators; an index at or past the end is axiomless.
    An entry is an operator or a function that compiles one, called on the
    entry's first read, so an operator that nothing reads is never enumerated."""

    def __init__(self, entries: Sequence[EnumOperator | Callable[[], EnumOperator]]):
        self._entries = list(entries)

    def get(self, e: int) -> EnumOperator:
        from .operators import EMPTY_OPERATOR

        op = self._entries[e] if e < len(self._entries) else EMPTY_OPERATOR
        if callable(op):
            op = self._entries[e] = op()
        return op


def build_suite(
    functional_specs: list, operator_specs: list, horizon: int, default_seed: int = 0
) -> tuple[FunctionalSuite, OperatorSuite]:
    """Compile a whole family from tagged records, each operator on its
    first read; errors name config.suite.<list>[e]."""
    functionals = [
        compile_functional(spec, default_seed, f"config.suite.functionals[{e}]")
        for e, spec in enumerate(functional_specs)
    ]
    ops = [
        partial(compile_operator, spec, horizon, f"config.suite.operators[{e}]")
        for e, spec in enumerate(operator_specs)
    ]
    return FunctionalSuite(functionals), OperatorSuite(ops)
