"""Command line front end: parse, simulate, check, table2.

Exit codes: 0 success (and, for table2, all rows matching), 1 a
counterexample or witness was found, 2 usage or parse error, 3 internal
failure (a certification failure or any other fault of the program).
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import hashlib
import json
import os
import random
import sys
import traceback
from fractions import Fraction

from . import __version__
from .checker import (
    NOT_FALSIFIED, SELECTORS, VERDICT_VOCABULARY, WITNESS_FOUND, CheckError,
    SearchConfig, SelectorError, UnsupportedObligation, check,
    obligations_for,
)
from .model import Constant, Model, broken_constraint, domain_key
from .models import MODEL_IDS, builtin, fig2_script, table2_suite
from .obligations import FALSIFY_UNIVERSAL
from .parser import ParseError, parse_model, parse_term
from .printer import print_formula, print_model
from .semantics import (
    Aborted, Branch, Duration, Final, LoopCount, QuantifierInFormula,
    RandomValue, ScriptCursor, ScriptError, eval_fol, eval_term,
    max_admissible_duration, parse_script, run,
)

EXIT_OK = 0
EXIT_FOUND = 1
EXIT_USAGE = 2
EXIT_INTERNAL = 3

CAVEAT = ("note: 'consistent with valid' / 'no witness within budget' are "
          "budget-exhausted search results, not proofs")


class UsageError(Exception):
    pass


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except (UsageError, ParseError, ScriptError, SelectorError,
            UnsupportedObligation, QuantifierInFormula,
            FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except CheckError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    except Exception as exc:
        # a fault of the program is never reported as a finding (exit 1)
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        traceback.print_exc()
        return EXIT_INTERNAL


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="hpcheck",
        description="Model-level checking of hybrid-program control models.")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(required=True)

    p = sub.add_parser("parse", help="parse a model file and echo it back")
    p.add_argument("model")
    _add_flags(p, "--format")
    p.set_defaults(handler=cmd_parse)

    p = sub.add_parser("simulate", help="replay or sample executions")
    p.add_argument("model")
    p.add_argument("--script", help="choice script file")
    p.add_argument("--random", type=int, metavar="N",
                   help="sample N >= 1 random executions")
    _add_flags(p, "--seed", "--box", "--const", "--format", "--trace")
    p.set_defaults(handler=cmd_simulate)

    p = sub.add_parser("check", help="check obligations for one invariant")
    p.add_argument("model")
    p.add_argument("--invariant", required=True)
    p.add_argument("--obligation", default="all", choices=SELECTORS)
    _add_flags(p, *_FLAGS)
    p.set_defaults(handler=cmd_check)

    p = sub.add_parser("table2", help="run the bundled eight-row suite")
    _add_flags(p, "--seed", "--budget", "--format")
    p.set_defaults(handler=cmd_table2)
    return parser


_FLAGS = {
    "--seed": dict(type=int, default=0),
    "--budget": dict(type=int, default=200_000),
    "--box": dict(action="append", default=[], metavar="VAR=LO:HI"),
    "--const": dict(action="append", default=[], metavar="NAME=VALUE"),
    "--format": dict(choices=("text", "json"), default="text"),
    "--trace": dict(metavar="PATH"),
}


def _add_flags(p, *names):
    """Give a subcommand the flags of `_FLAGS` that it reads."""
    for name in names:
        p.add_argument(name, **_FLAGS[name])


def _load_model(path: str) -> Model:
    if path in MODEL_IDS:
        return builtin(path)
    with open(path) as fh:
        text = fh.read()
    name = os.path.splitext(os.path.basename(path))[0]
    return parse_model(text, name=name)


def _model_hash(model: Model) -> str:
    return hashlib.sha256(model.source.encode()).hexdigest()[:16]


def _parse_pairs(pairs, what):
    out = {}
    for pair in pairs:
        if "=" not in pair:
            raise UsageError(f"bad {what} {pair!r}; expected NAME=VALUE")
        name, value = pair.split("=", 1)
        out[name.strip()] = value.strip()
    return out


def _parse_value(text, error):
    """The exact value of a constant term, or a UsageError saying `error`."""
    try:
        return eval_term({}, parse_term(text))
    except Exception:
        raise UsageError(error) from None


def _apply_overrides(model: Model, args):
    """Return (model with the overrides, box overrides, constant overrides)
    from CLI flags.  A constant override that names no constant of the
    model is kept in the third only."""
    boxes = {}
    for var, spec in _parse_pairs(args.box, "box").items():
        if domain_key(model.domains, var) is None:
            raise UsageError(f"unknown box variable {var!r}; "
                             f"model has {sorted(model.domains)}")
        if ":" not in spec:
            raise UsageError(f"bad box {spec!r}; expected LO:HI")
        lo, hi = (_parse_value(end, f"bad box bound {end!r} in {spec!r}")
                  for end in spec.split(":", 1))
        if lo > hi:
            raise UsageError(f"empty box interval {spec!r}")
        boxes[var] = (lo, hi)
    consts = {name: _parse_value(value, f"bad constant value {value!r}")
              for name, value in _parse_pairs(args.const, "const").items()}
    values = model.constant_values()
    values.update((k, Fraction(v)) for k, v in consts.items() if k in values)
    broken = broken_constraint(model.constants, values)
    if broken is not None:
        constant, conjunct = broken
        raise UsageError(f"--const: {constant.name} = {values[constant.name]}"
                         f" violates its constraint {print_formula(conjunct)}")
    constants = [Constant(c.name, values[c.name], c.constraint)
                 for c in model.constants]
    return (dataclasses.replace(model, domains={**model.domains, **boxes},
                                constants=constants),
            boxes, consts)


def _config_echo(args, boxes, consts):
    echo = {
        "seed": args.seed,
        "boxes": {v: [str(lo), str(hi)] for v, (lo, hi) in sorted(boxes.items())},
        "constants": {k: str(v) for k, v in sorted(consts.items())},
    }
    if "budget" in vars(args):  # simulate takes no budget
        echo["budget"] = args.budget
    return echo


def _emit(args, report: dict, text_lines):
    try:
        if args.format == "json":
            print(json.dumps(report, sort_keys=True, indent=2))
        else:
            for line in text_lines:
                print(line)
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader has gone, which is no fault of the program: stop the
        # output and keep the command's exit code; stdout now points at
        # devnull so that the flush at exit does not fail again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())


# ---------------------------------------------------------------------------
# parse

def cmd_parse(args) -> int:
    model = _load_model(args.model)
    report = {
        "version": __version__,
        "model": model.name,
        "model_hash": _model_hash(model),
        "nonstandard_shape": model.nonstandard_shape,
        "warnings": model.warnings,
        "invariants": sorted(model.invariants),
    }
    lines = [print_model(model).rstrip("\n")]
    for w in model.warnings:
        lines.append(f"warning: {w}")
    if model.nonstandard_shape:
        lines.append("note: model does not follow the env/aux/ctrl/plant shape")
    _emit(args, report, lines)
    return EXIT_OK


# ---------------------------------------------------------------------------
# simulate

def _initial_state(model: Model, consts):
    state = {k: Fraction(v) for k, v in model.constant_values().items()}
    for var in model.domains:
        state.setdefault(var, Fraction(0))
    state.setdefault(model.time_var, Fraction(0))
    for name, value in consts.items():
        if name not in state:
            raise UsageError(f"unknown constant or variable {name!r}")
        state[name] = Fraction(value)
    return state


def _trace_vars(model: Model):
    ordered = [v for v in model.domains]
    if model.time_var not in ordered:
        ordered.append(model.time_var)
    return ordered

def _write_trace(path, model, trace):
    ordered = _trace_vars(model)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["step", "construct", "t"] + ordered)
        for i, step in enumerate(trace):
            row = [i, step.label, _num_str(step.time)]
            row.extend(_num_str(step.state[v]) if v in step.state else ""
                       for v in ordered)
            writer.writerow(row)


def _num_str(value):
    if isinstance(value, Fraction):
        return str(value)
    return repr(value)


class _RandomCursor(ScriptCursor):
    """Resolves each nondeterminism point uniformly at random as the run
    reaches it: a value from the variable's search interval, a duration up
    to the ODE's maximum (half the time the maximum itself), a branch and
    a loop count of 0 to 3."""

    def __init__(self, model: Model, rng):
        super().__init__(())
        self.model = model
        self.rng = rng

    def take(self, kind, state, program):
        rng = self.rng
        if kind is RandomValue:
            lo, hi = self.model.search_interval(program.var)
            return RandomValue(
                lo + (hi - lo) * Fraction(rng.randrange(1 << 16), 1 << 16))
        if kind is Duration:
            maximum = max_admissible_duration(state, program)
            duration = maximum * Fraction(rng.randrange(1 << 16), 1 << 16) \
                if maximum > 0 else Fraction(0)
            if rng.random() < 0.5 and maximum > 0:
                duration = maximum
            return Duration(duration)
        if kind is Branch:
            return Branch(rng.choice(("left", "right")))
        return LoopCount(rng.randrange(4))


def cmd_simulate(args) -> int:
    model, boxes, consts = _apply_overrides(_load_model(args.model), args)
    state = _initial_state(model, consts)
    report = {
        "version": __version__,
        "model": model.name,
        "model_hash": _model_hash(model),
        "config": _config_echo(args, boxes, consts),
        "runs": [],
    }
    lines = []
    if args.script and args.random is not None:
        raise UsageError("--script and --random are mutually exclusive")
    if args.script:
        if args.script == "fig2":
            script = fig2_script()
        else:
            with open(args.script) as fh:
                script = parse_script(fh.read())
        outcome, trace = run(state, model.loop_program(), script)
        report["runs"].append(_run_json(outcome))
        lines.extend(_run_lines(model, outcome))
    elif args.random is not None:
        if args.random < 1:
            raise UsageError("--random needs N >= 1")
        cursor = _RandomCursor(model, random.Random(args.seed))
        aborted = violations = 0
        for _ in range(args.random):
            outcome, trace = run(state, model.loop_program(), cursor)
            if isinstance(outcome, Aborted):
                aborted += 1
            elif not eval_fol(outcome.state, model.guarantee):
                violations += 1
        report["runs"].append({
            "sampled": args.random,
            "aborted": aborted,
            "guarantee_violations": violations,
        })
        lines.append(f"{args.random} runs: {aborted} aborted, "
                     f"{violations} guarantee violations")
    else:
        raise UsageError("simulate needs --script or --random")
    if args.trace:  # the (last) run's trace, which starts with its initial state
        _write_trace(args.trace, model, trace)
    _emit(args, report, lines)
    return EXIT_OK


def _run_json(outcome):
    state = {k: _num_str(v) for k, v in sorted(outcome.state.items())}
    if isinstance(outcome, Final):
        return {"outcome": "final", "state": state}
    return {"outcome": "aborted",
            "failed_test": print_formula(outcome.failed_test),
            "state": state}


def _run_lines(model, outcome):
    vals = ", ".join(f"{v} = {_num_str(outcome.state[v])}"
                     for v in _trace_vars(model) if v in outcome.state)
    if isinstance(outcome, Final):
        return [f"final: {vals}"]
    return [f"aborted at test {print_formula(outcome.failed_test)}",
            f"state: {vals}"]


# ---------------------------------------------------------------------------
# check

def _make_config(args) -> SearchConfig:
    try:
        return SearchConfig(budget=args.budget, seed=args.seed)
    except ValueError as exc:
        raise UsageError(str(exc)) from None


def _content_key(ob):
    """Cache key of what an obligation asks.  check() is deterministic in
    the obligation's content and derives its seed from the name, so equal
    keys get byte-identical verdicts whichever row asked."""
    return (ob.name, ob.kind, ob.formula,
            tuple(sorted(ob.search_box.items())),
            tuple(sorted(ob.fixed_constants.items())))


def _verdicts(obligations, config):
    """One verdict per obligation, in order; each distinct obligation is
    checked once."""
    checked, out = {}, []
    for ob in obligations:
        key = _content_key(ob)
        verdict = checked.get(key)
        if verdict is None:
            verdict = checked[key] = check(ob, config)
        out.append(verdict)
    return out


def cmd_check(args) -> int:
    model, boxes, consts = _apply_overrides(_load_model(args.model), args)
    names = sorted(model.constant_values())
    for name in consts:
        if name not in names:
            raise UsageError(f"unknown constant {name!r}; model has {names}")
    if args.invariant not in model.invariants:
        raise UsageError(f"unknown invariant {args.invariant!r}; "
                         f"model has {sorted(model.invariants)}")
    config = _make_config(args)
    verdicts = _verdicts(
        obligations_for(model, args.invariant, args.obligation), config)
    report = {
        "version": __version__,
        "model": model.name,
        "model_hash": _model_hash(model),
        "config": _config_echo(args, boxes, consts),
        "invariant": args.invariant,
        "verdicts": [v.to_json() for v in verdicts],
        "caveat": CAVEAT,
    }
    lines = [f"{model.name} / {args.invariant}"]
    for v in verdicts:
        lines.append(f"  {v.obligation.name:10s} {VERDICT_VOCABULARY[v.status]}"
                     f"  ({v.stats.evaluations} evaluations)")
        if v.counterexample is not None:
            assignment = ", ".join(
                f"{k} = {val}" for k, val in sorted(
                    v.counterexample.assignment.items()))
            if v.counterexample.numeric_only:
                assignment += "  (not exact: replayed with float RK4)"
            lines.append(f"    certificate: {assignment}")
    lines.append(CAVEAT)
    _emit(args, report, lines)
    found = any(v.found for v in verdicts)
    if args.trace:
        # the first certificate's trace, or the header alone, so that no
        # file from an earlier run is left looking like this run's
        traces = [v.counterexample.trace for v in verdicts
                  if v.counterexample is not None and v.counterexample.trace]
        _write_trace(args.trace, model, traces[0] if traces else [])
    return EXIT_FOUND if found else EXIT_OK


# ---------------------------------------------------------------------------
# table2

def cmd_table2(args) -> int:
    config = _make_config(args)
    rows = table2_suite()
    row_obligations = [
        [ob for selector in ("loop", *row.conjuncts)
         for ob in obligations_for(builtin(row.model_id), row.invariant,
                                   selector)]
        for row in rows]
    verdicts = iter(_verdicts([ob for obs in row_obligations for ob in obs],
                              config))
    report_rows = []
    lines = [f"{'model':5s} {'invariant':10s} {'conjuncts':16s} "
             f"{'expected':8s} {'ours':5s} match"]
    all_match = True
    for row, obligations in zip(rows, row_obligations):
        row_verdicts = [next(verdicts) for _ in obligations]
        passed = all(
            v.status == NOT_FALSIFIED if v.obligation.kind == FALSIFY_UNIVERSAL
            else v.status == WITNESS_FOUND
            for v in row_verdicts)
        ours = "Yes" if passed else "No"
        match = ours == row.expected
        all_match = all_match and match
        conj = " ".join(row.conjuncts) or "-"
        lines.append(f"{row.model_id:5s} {row.invariant:10s} {conj:16s} "
                     f"{row.expected:8s} {ours:5s} {'yes' if match else 'NO'}")
        report_rows.append({
            "model": row.model_id,
            "invariant": row.invariant,
            "conjuncts": list(row.conjuncts),
            "expected": row.expected,
            "computed": ours,
            "match": match,
            "reason": row.reason,
            "verdicts": [v.to_json() for v in row_verdicts],
        })
    lines.append(CAVEAT)
    lines.append("all rows match" if all_match else "MISMATCH: see rows above")
    report = {
        "version": __version__,
        "config": _config_echo(args, {}, {}),
        "rows": report_rows,
        "all_match": all_match,
        "caveat": CAVEAT,
    }
    _emit(args, report, lines)
    return EXIT_OK if all_match else EXIT_FOUND


if __name__ == "__main__":
    sys.exit(main())
