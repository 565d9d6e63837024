"""The six-part model structure: init, guarantee, env, aux, ctrl, plant.

A model follows the standard shape when env and aux are
nondeterministic-assign-then-test, ctrl is a desugared if-statement, and
plant is a clock reset followed by an ODE whose domain conjoins an upper
bound on the clock.  Other shapes parse fine but are flagged
`nonstandard_shape`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from .semantics import UndeclaredVariable, eval_fol
from .syntax import (
    Assign, Choice, Cmp, Formula, Loop, Node, Not, Num, ODE, Program,
    RandomAssign, Seq, Test, Var, conjuncts, free_variables, seq,
)

# Search box of a variable the model gives no interval.
DEFAULT_DOMAIN = (Fraction(-100), Fraction(100))


class Constant(Node):
    __slots__ = ("name", "value", "constraint")


@dataclass
class Model:
    name: str
    constants: list
    domains: dict  # var -> (lo, hi) closed interval, exact rationals
    init: Formula
    guarantee: Formula
    env: Program
    aux: Program
    ctrl: Program
    plant: Program
    invariants: dict
    relation: Formula | None = None
    source: str = ""
    warnings: list = field(default_factory=list)

    # filled in by detect_shape
    nonstandard_shape: bool = False
    env_var: str | None = None
    action_var: str | None = None
    state_vars: list = field(default_factory=list)
    time_var: str = "tau"

    def constant_values(self) -> dict:
        return {c.name: c.value for c in self.constants}

    def declared_variables(self) -> set:
        out = set()
        for node in self.all_formulas_and_programs():
            out |= free_variables(node)
        return out - set(self.constant_values())

    def all_formulas_and_programs(self):
        out = [self.init, self.guarantee, self.env, self.aux, self.ctrl,
               self.plant]
        out.extend(self.invariants.values())
        if self.relation is not None:
            out.append(self.relation)
        for c in self.constants:
            out.append(c.constraint)
        return out

    def loop_body(self) -> Program:
        return seq(self.env, self.aux, self.ctrl, self.plant)

    def loop_program(self) -> Program:
        return Loop(self.loop_body())

    def search_interval(self, var: str):
        """Search box for a variable; derived variables such as `xc_post`
        inherit the interval of the variable they are derived from."""
        return self.domains.get(domain_key(self.domains, var), DEFAULT_DOMAIN)


def broken_constraint(constants, values: dict):
    """The first (constant, conjunct of its constraint) that is false, or
    undefined by a zero divisor, when each constant takes its value in
    `values`; None when every one holds.  A conjunct whose value needs
    anything but the constants in `values` is not decided here."""
    for constant in constants:
        for conjunct in conjuncts(constant.constraint):
            try:
                if not eval_fol(values, conjunct):
                    return constant, conjunct
            except UndeclaredVariable:
                continue
            except ZeroDivisionError:
                return constant, conjunct
    return None


def domain_key(domains: dict, var: str):
    """The key of `domains` whose interval `var` is searched in: `var`
    itself, or the variable a `_post`/`_prev` name derives from; None when
    neither is a key."""
    if var in domains:
        return var
    for suffix in ("_post", "_prev"):
        if var.endswith(suffix) and var[: -len(suffix)] in domains:
            return var[: -len(suffix)]
    return None


def _assign_then_test(program: Program):
    """Match `x := *; ?P`, returning (x, P) or None."""
    if isinstance(program, Seq) and isinstance(program.first, RandomAssign) \
            and isinstance(program.second, Test):
        return program.first.var, program.second.condition
    return None


def _if_shape(program: Program):
    """Match a desugared if-statement, returning (condition, body) or None."""
    if isinstance(program, Choice) and isinstance(program.left, Seq) \
            and isinstance(program.left.first, Test) \
            and isinstance(program.right, Test) \
            and program.right.condition == Not(program.left.first.condition):
        return program.left.first.condition, program.left.second
    return None


def _plant_shape(program: Program, constants):
    """Match `tau := 0; {... & ... tau <= T}`, returning (tau, ODE) or None."""
    if not (isinstance(program, Seq) and isinstance(program.first, Assign)
            and isinstance(program.first.term, Num)
            and program.first.term.value == 0
            and isinstance(program.second, ODE)):
        return None
    clock = program.first.var
    ode = program.second
    if not any(v == clock and rhs == Num(Fraction(1))
               for v, rhs in ode.equations):
        return None
    for c in conjuncts(ode.domain):
        if isinstance(c, Cmp) and c.op == "<=" and c.left == Var(clock) \
                and isinstance(c.right, Var) and c.right.name in constants:
            return clock, ode
    return None


def detect_shape(model: Model):
    """Classify the model against the standard shape and record roles."""
    nonstandard = False
    env = _assign_then_test(model.env)
    if env is not None:
        model.env_var = env[0]
    else:
        nonstandard = True
    aux = _assign_then_test(model.aux)
    if aux is not None:
        model.action_var = aux[0]
    else:
        nonstandard = True
    if _if_shape(model.ctrl) is None:
        nonstandard = True
    plant = _plant_shape(model.plant, set(model.constant_values()))
    if plant is not None:
        model.time_var = plant[0]
        model.state_vars = [v for v, _ in plant[1].equations if v != plant[0]]
    else:
        nonstandard = True
        if isinstance(model.plant, ODE):
            model.state_vars = [v for v, _ in model.plant.equations]
    model.nonstandard_shape = nonstandard
    return model
