"""Syntax trees for terms, formulas and hybrid programs.

All nodes are immutable (frozen dataclasses) and safe to share freely.
Formulas cover plain first-order real arithmetic as well as the modal
operators over hybrid programs.
"""

from __future__ import annotations

from dataclasses import dataclass, fields, is_dataclass
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

# The binary operators of each sort, node class -> (spelling, precedence,
# least precedence of the right operand); a right operand of the operator's
# own precedence makes it right-associative.  The parser and the printer
# both read these tables.
TERM_OPS = {Add: ("+", 1, 2), Sub: ("-", 1, 2),
            Mul: ("*", 2, 3), Div: ("/", 2, 3)}

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

FORMULA_OPS = {Iff: ("<->", 1, 1), Implies: ("->", 2, 2),
               Or: ("|", 3, 4), And: ("&", 4, 5)}

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

PROGRAM_OPS = {Choice: ("++", 1, 2), Seq: (";", 2, 3)}


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
    if type(program) in PROGRAM_OPS:
        first, second = vars(program).values()
        return assigned_variables(first) | assigned_variables(second)
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
    kind = type(formula)
    if kind is Forall or kind is Exists:
        return {formula.var} | bound_variables(formula.body)
    if kind is Not:
        return bound_variables(formula.inner)
    if kind in FORMULA_OPS:
        return bound_variables(formula.left) | bound_variables(formula.right)
    if kind is Box or kind is Diamond:
        return bound_variables(formula.post)
    return set()


def substitute(node, var: str, replacement: Term):
    """Capture-avoiding substitution of a term for a free variable in a
    term, formula or program.

    Binders that would capture free variables of the replacement are
    renamed.  Substitution through a modality whose program writes the
    substituted variable (or a variable of the replacement) is not
    supported and raises ValueError, and so is a renaming that would meet
    such a program: its message names `var` and the binder; a program's
    own assignments and ODE equations keep the variables they write.
    """
    repl_vars = free_variables(replacement)

    def sub(node):
        kind = type(node)
        if kind is Var:
            return replacement if node.name == var else node
        if kind is Forall or kind is Exists:
            if node.var == var:
                return node
            name, body = node.var, node.body
            if name in repl_vars:
                name = fresh_name(name, repl_vars | free_variables(body) |
                                  bound_variables(body) | {var})
                try:
                    body = substitute(body, node.var, Var(name))
                except ValueError:
                    raise ValueError(
                        f"cannot substitute {var!r}: renaming the binder "
                        f"{node.var!r} meets a program writing it") from None
            return kind(name, sub(body))
        if kind is Box or kind is Diamond:
            written = assigned_variables(node.program)
            if var in written or written & repl_vars:
                raise ValueError(
                    f"cannot substitute {var!r} through a program writing it")
        elif kind is ODE:
            return ODE(tuple((v, sub(rhs)) for v, rhs in node.equations),
                       sub(node.domain))
        values = [getattr(node, f.name) for f in fields(node)]
        return kind(*[sub(v) if is_dataclass(v) else v for v in values])

    return sub(node)
