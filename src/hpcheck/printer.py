"""Deterministic pretty-printer; output re-parses to an identical tree."""

from __future__ import annotations

from fractions import Fraction

from .syntax import (
    FORMULA_OPS, PROGRAM_OPS, TERM_OPS, Assign, BoolLit, Box, Cmp, Diamond,
    Exists, Forall, Loop, Neg, Not, Num, ODE, Pow, RandomAssign, Test, Var,
)

# Precedence levels: a binary operator prints at its precedence in
# syntax.TERM_OPS, FORMULA_OPS or PROGRAM_OPS.  Above those, terms have
# unary=3, power=4, atom=5; formulas unary=5, atom=6; programs atom=3.


def _frac(value: Fraction) -> str:
    if value.denominator == 1:
        return str(value.numerator)
    return f"{value.numerator}/{value.denominator}"


def print_term(term, level: int = 0) -> str:
    if isinstance(term, Var):
        return term.name
    if isinstance(term, Num):
        if value_is_negative(term) or term.value.denominator != 1:
            # `-3` and `9/5` re-lex as unary minus / division; a negative
            # fraction such as `-7/5` is a division at the outermost level
            own = 2 if term.value.denominator != 1 else 3
            return _wrap(_frac(term.value), own, level)
        return str(term.value.numerator)
    if type(term) in TERM_OPS:
        return _binary(term, TERM_OPS, print_term, level)
    if isinstance(term, Neg):
        inner = print_term(term.inner, 3)
        # `-3` and `-4^2` would re-lex with the minus glued to the literal;
        # force parentheses whenever the operand starts with a digit
        if inner[0].isdigit():
            return _wrap(f"-({print_term(term.inner, 0)})", 3, level)
        return _wrap(f"-{inner}", 3, level)
    if isinstance(term, Pow):
        return _wrap(f"{print_term(term.base, 5)}^{term.exp}", 4, level)
    raise TypeError(f"not a term: {term!r}")


def value_is_negative(term) -> bool:
    return isinstance(term, Num) and term.value < 0


def _wrap(text: str, own_level: int, context_level: int) -> str:
    if own_level < context_level:
        return f"({text})"
    return text


def _binary(node, ops, show, level: int) -> str:
    """A node of the table `ops`, its operands printed by `show`.  The left
    operand takes the operator's own precedence, one more when the operator
    is right-associative; the right one takes the least the table allows."""
    spelling, own, right = ops[type(node)]
    first, second = node.fields
    sep = "; " if spelling == ";" else f" {spelling} "
    left = show(first, own + (own == right))
    return _wrap(f"{left}{sep}{show(second, right)}", own, level)


def print_formula(formula, level: int = 0) -> str:
    if isinstance(formula, BoolLit):
        return "true" if formula.value else "false"
    if isinstance(formula, Cmp):
        return _wrap(f"{print_term(formula.left)} {formula.op} "
                     f"{print_term(formula.right)}", 6, level)
    if type(formula) in FORMULA_OPS:
        return _binary(formula, FORMULA_OPS, print_formula, level)
    if isinstance(formula, Not):
        return _wrap(f"!{print_formula(formula.inner, 5)}", 5, level)
    # Quantifiers and modalities extend right as far as possible, so they
    # need parentheses in any binary-operator context.
    if isinstance(formula, (Forall, Exists)):
        kw = "forall" if isinstance(formula, Forall) else "exists"
        return _wrap(f"{kw} {formula.var} {print_formula(formula.body, 0)}",
                     1 if level <= 1 else 0, level)
    if isinstance(formula, Box):
        return _wrap(f"[{print_program(formula.program)}] "
                     f"{print_formula(formula.post, 0)}",
                     1 if level <= 1 else 0, level)
    if isinstance(formula, Diamond):
        return _wrap(f"<{print_program(formula.program)}> "
                     f"{print_formula(formula.post, 0)}",
                     1 if level <= 1 else 0, level)
    raise TypeError(f"not a formula: {formula!r}")


def print_program(program, level: int = 0) -> str:
    if isinstance(program, Assign):
        return _wrap(f"{program.var} := {print_term(program.term)}", 3, level)
    if isinstance(program, RandomAssign):
        return _wrap(f"{program.var} := *", 3, level)
    if isinstance(program, Test):
        return _wrap(f"?{print_formula(program.condition, 0)}", 3, level)
    if isinstance(program, ODE):
        eqs = ", ".join(f"{v}' = {print_term(rhs)}" for v, rhs in program.equations)
        if program.domain == BoolLit(True):
            return f"{{{eqs}}}"
        return f"{{{eqs} & {print_formula(program.domain)}}}"
    if type(program) in PROGRAM_OPS:
        return _binary(program, PROGRAM_OPS, print_program, level)
    if isinstance(program, Loop):
        return f"{{{print_program(program.body, 0)}}}*"
    raise TypeError(f"not a program: {program!r}")


def print_model(model) -> str:
    lines = []
    lines.append("CONSTANTS")
    for c in model.constants:
        entry = f"  {c.name} = {_frac(c.value)}"
        if c.constraint != BoolLit(True):
            entry += f" : {print_formula(c.constraint)}"
        lines.append(entry)
    lines.append("DOMAINS")
    for var, (lo, hi) in model.domains.items():
        lines.append(f"  {var} = [{_frac(lo)}, {_frac(hi)}]")
    lines.append("INIT")
    lines.append(f"  {print_formula(model.init)}")
    lines.append("GUARANTEE")
    lines.append(f"  {print_formula(model.guarantee)}")
    for keyword, prog in (("ENV", model.env), ("AUX", model.aux),
                          ("CTRL", model.ctrl), ("PLANT", model.plant)):
        lines.append(keyword)
        lines.append(f"  {print_program(prog)}")
    for name, inv in model.invariants.items():
        lines.append(f"INVARIANT {name}")
        lines.append(f"  {print_formula(inv)}")
    if model.relation is not None:
        lines.append("RELATION")
        lines.append(f"  {print_formula(model.relation)}")
    return "\n".join(lines) + "\n"
