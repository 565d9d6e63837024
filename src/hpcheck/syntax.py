"""Syntax trees for terms, formulas and hybrid programs.

All nodes are immutable (frozen dataclasses) and safe to share freely.
Formulas cover plain first-order real arithmetic as well as the modal
operators over hybrid programs.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Union

# ---------------------------------------------------------------------------
# Terms

@dataclass(frozen=True)
class Var:
    name: str


@dataclass(frozen=True)
class Num:
    value: Fraction

    def __post_init__(self):
        if not isinstance(self.value, Fraction):
            object.__setattr__(self, "value", Fraction(self.value))


@dataclass(frozen=True)
class Add:
    left: "Term"
    right: "Term"


@dataclass(frozen=True)
class Sub:
    left: "Term"
    right: "Term"


@dataclass(frozen=True)
class Mul:
    left: "Term"
    right: "Term"


@dataclass(frozen=True)
class Neg:
    inner: "Term"


@dataclass(frozen=True)
class Div:
    """Quotient restricted to constant divisors.

    The divisor must be built from rational literals and declared symbolic
    constants only; model loading rejects divisors whose symbolic constants
    lack a sign constraint.  A literal zero divisor is rejected here.
    """

    num: "Term"
    den: "Term"

    def __post_init__(self):
        if isinstance(self.den, Num) and self.den.value == 0:
            raise ValueError("division by zero constant")


@dataclass(frozen=True)
class Pow:
    base: "Term"
    exp: int

    def __post_init__(self):
        if self.exp < 0:
            raise ValueError("negative exponent")


Term = Union[Var, Num, Add, Sub, Mul, Neg, Div, Pow]

# ---------------------------------------------------------------------------
# Formulas

CMP_OPS = ("<=", "<", ">=", ">", "=", "!=")


@dataclass(frozen=True)
class Cmp:
    op: str
    left: Term
    right: Term

    def __post_init__(self):
        if self.op not in CMP_OPS:
            raise ValueError(f"bad comparison operator {self.op!r}")


@dataclass(frozen=True)
class BoolLit:
    value: bool


TRUE = BoolLit(True)
FALSE = BoolLit(False)


@dataclass(frozen=True)
class Not:
    inner: "Formula"


@dataclass(frozen=True)
class And:
    left: "Formula"
    right: "Formula"


@dataclass(frozen=True)
class Or:
    left: "Formula"
    right: "Formula"


@dataclass(frozen=True)
class Implies:
    left: "Formula"
    right: "Formula"


@dataclass(frozen=True)
class Iff:
    left: "Formula"
    right: "Formula"


@dataclass(frozen=True)
class Forall:
    var: str
    body: "Formula"


@dataclass(frozen=True)
class Exists:
    var: str
    body: "Formula"


@dataclass(frozen=True)
class Box:
    program: "Program"
    post: "Formula"


@dataclass(frozen=True)
class Diamond:
    program: "Program"
    post: "Formula"


Formula = Union[Cmp, BoolLit, Not, And, Or, Implies, Iff, Forall, Exists, Box, Diamond]

# ---------------------------------------------------------------------------
# Hybrid programs

@dataclass(frozen=True)
class Assign:
    var: str
    term: Term


@dataclass(frozen=True)
class RandomAssign:
    var: str


@dataclass(frozen=True)
class Test:
    condition: Formula


@dataclass(frozen=True)
class ODE:
    equations: tuple  # of (var name, rhs Term)
    domain: Formula

    def __post_init__(self):
        names = [v for v, _ in self.equations]
        if len(set(names)) != len(names):
            raise ValueError("duplicate variable in ODE")
        object.__setattr__(self, "equations", tuple(self.equations))


@dataclass(frozen=True)
class Choice:
    left: "Program"
    right: "Program"


@dataclass(frozen=True)
class Seq:
    first: "Program"
    second: "Program"


@dataclass(frozen=True)
class Loop:
    body: "Program"


Program = Union[Assign, RandomAssign, Test, ODE, Choice, Seq, Loop]


def desugar_if(condition: Formula, body: Program) -> Program:
    """if (P) then body fi, with the guarded branch as the left operand."""
    return Choice(Seq(Test(condition), body), Test(Not(condition)))


def seq(*programs: Program) -> Program:
    out = programs[0]
    for p in programs[1:]:
        out = Seq(out, p)
    return out


def conjuncts(formula: Formula):
    """Flatten nested conjunctions into a list."""
    if isinstance(formula, And):
        return conjuncts(formula.left) + conjuncts(formula.right)
    return [formula]


# ---------------------------------------------------------------------------
# Free variables

def free_variables(node) -> set:
    """Variables read or written and not bound by a quantifier.

    Program-assigned and ODE-evolved variables count as free: they must be
    declared in the enclosing model.
    """
    out = set()
    _add_free(node, frozenset(), out)
    return out


# the nodes with `left` and `right` operands
_BINARY = frozenset((Add, Sub, Mul, Cmp, And, Or, Implies, Iff, Choice))


def _add_free(node, bound, out):
    """Add to `out` the names free in `node` that `bound` does not hold:
    one walk, with the names bound by the quantifiers above carried down."""
    stack = [node]
    pop, push = stack.pop, stack.append
    while stack:
        node = pop()
        kind = type(node)
        if kind is Var:
            if node.name not in bound:
                out.add(node.name)
        elif kind in _BINARY:
            push(node.left)
            push(node.right)
        elif kind is Num or kind is BoolLit:
            pass
        elif kind is Neg or kind is Not:
            push(node.inner)
        elif kind is Div:
            push(node.num)
            push(node.den)
        elif kind is Pow:
            push(node.base)
        elif kind is Forall or kind is Exists:
            _add_free(node.body, bound | {node.var}, out)
        elif kind is Box or kind is Diamond:
            push(node.program)
            push(node.post)
        elif kind is Assign or kind is RandomAssign:
            if node.var not in bound:
                out.add(node.var)
            if kind is Assign:
                push(node.term)
        elif kind is Test:
            push(node.condition)
        elif kind is ODE:
            push(node.domain)
            for v, rhs in node.equations:
                if v not in bound:
                    out.add(v)
                push(rhs)
        elif kind is Seq:
            push(node.first)
            push(node.second)
        elif kind is Loop:
            push(node.body)
        else:
            raise TypeError(f"not a syntax node: {node!r}")


def assigned_variables(program: Program) -> set:
    """Variables written by assignments or evolved by ODEs."""
    if isinstance(program, (Assign, RandomAssign)):
        return {program.var}
    if isinstance(program, Test):
        return set()
    if isinstance(program, ODE):
        return {v for v, _ in program.equations}
    if isinstance(program, Choice):
        return assigned_variables(program.left) | assigned_variables(program.right)
    if isinstance(program, Seq):
        return assigned_variables(program.first) | assigned_variables(program.second)
    if isinstance(program, Loop):
        return assigned_variables(program.body)
    raise TypeError(f"not a program: {program!r}")


# ---------------------------------------------------------------------------
# Binders and substitution

def fresh_name(base: str, avoid) -> str:
    """Deterministic fresh-name scheme: base_1, base_2, ..."""
    root = base
    if "_" in base and base.rsplit("_", 1)[1].isdigit():
        root = base.rsplit("_", 1)[0]
    k = 1
    while f"{root}_{k}" in avoid or f"{root}_{k}" == base:
        k += 1
    return f"{root}_{k}"


def bound_variables(formula: Formula) -> set:
    if isinstance(formula, (Forall, Exists)):
        return {formula.var} | bound_variables(formula.body)
    if isinstance(formula, Not):
        return bound_variables(formula.inner)
    if isinstance(formula, (And, Or, Implies, Iff)):
        return bound_variables(formula.left) | bound_variables(formula.right)
    if isinstance(formula, (Box, Diamond)):
        return bound_variables(formula.post)
    return set()


def _rename_free(formula: Formula, old: str, new: str) -> Formula:
    """Rename free occurrences of a variable (used for binder renaming)."""
    return substitute(formula, old, Var(new))


def substitute_term(term: Term, var: str, replacement: Term) -> Term:
    if isinstance(term, Var):
        return replacement if term.name == var else term
    if isinstance(term, Num):
        return term
    if isinstance(term, (Add, Sub, Mul)):
        ctor = type(term)
        return ctor(substitute_term(term.left, var, replacement),
                    substitute_term(term.right, var, replacement))
    if isinstance(term, Neg):
        return Neg(substitute_term(term.inner, var, replacement))
    if isinstance(term, Div):
        return Div(substitute_term(term.num, var, replacement),
                   substitute_term(term.den, var, replacement))
    if isinstance(term, Pow):
        return Pow(substitute_term(term.base, var, replacement), term.exp)
    raise TypeError(f"not a term: {term!r}")


def substitute(formula: Formula, var: str, replacement: Term) -> Formula:
    """Capture-avoiding substitution of a term for a free variable.

    Binders that would capture free variables of the replacement are
    renamed.  Substitution through a modality whose program writes the
    substituted variable (or a variable of the replacement) is not
    supported and raises ValueError.
    """
    repl_vars = free_variables(replacement)
    if isinstance(formula, Cmp):
        return Cmp(formula.op,
                   substitute_term(formula.left, var, replacement),
                   substitute_term(formula.right, var, replacement))
    if isinstance(formula, BoolLit):
        return formula
    if isinstance(formula, Not):
        return Not(substitute(formula.inner, var, replacement))
    if isinstance(formula, (And, Or, Implies, Iff)):
        ctor = type(formula)
        return ctor(substitute(formula.left, var, replacement),
                    substitute(formula.right, var, replacement))
    if isinstance(formula, (Forall, Exists)):
        ctor = type(formula)
        if formula.var == var:
            return formula
        if formula.var in repl_vars:
            avoid = (repl_vars | free_variables(formula.body) |
                     bound_variables(formula.body) | {var})
            new = fresh_name(formula.var, avoid)
            body = _rename_free(formula.body, formula.var, new)
            return ctor(new, substitute(body, var, replacement))
        return ctor(formula.var, substitute(formula.body, var, replacement))
    if isinstance(formula, (Box, Diamond)):
        written = assigned_variables(formula.program)
        if var in written or written & repl_vars:
            raise ValueError(
                f"cannot substitute {var!r} through a program writing it")
        ctor = type(formula)
        return ctor(substitute_program(formula.program, var, replacement),
                    substitute(formula.post, var, replacement))
    raise TypeError(f"not a formula: {formula!r}")


def substitute_program(program: Program, var: str, replacement: Term) -> Program:
    if isinstance(program, Assign):
        return Assign(program.var, substitute_term(program.term, var, replacement))
    if isinstance(program, RandomAssign):
        return program
    if isinstance(program, Test):
        return Test(substitute(program.condition, var, replacement))
    if isinstance(program, ODE):
        eqs = tuple((v, substitute_term(rhs, var, replacement))
                    for v, rhs in program.equations)
        return ODE(eqs, substitute(program.domain, var, replacement))
    if isinstance(program, Choice):
        return Choice(substitute_program(program.left, var, replacement),
                      substitute_program(program.right, var, replacement))
    if isinstance(program, Seq):
        return Seq(substitute_program(program.first, var, replacement),
                   substitute_program(program.second, var, replacement))
    if isinstance(program, Loop):
        return Loop(substitute_program(program.body, var, replacement))
    raise TypeError(f"not a program: {program!r}")
