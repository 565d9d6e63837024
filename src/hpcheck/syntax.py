"""Syntax trees for terms, formulas and hybrid programs.

Every node is a `Node`: immutable, compared and hashed by value, and safe
to share freely.  Formulas cover plain first-order real arithmetic as well
as the modal operators over hybrid programs.
"""

from __future__ import annotations

from fractions import Fraction
from operator import attrgetter
from typing import Union

_set = object.__setattr__


class Node:
    """An immutable record whose subclass names its fields in `__slots__`.

    Each subclass gets a positional constructor that runs the class's
    `__post_init__` check, if it has one; equality with a node of the same
    class and a hash over its field values; the dataclass repr
    `Name(field=value, ...)`; and pickling by its fields.  `fields` is the
    tuple of the field values, in `__slots__` order.  The hash is computed
    once and kept in the private `_hash` slot, which is none of the fields.
    """

    __slots__ = ("_hash",)

    def __init_subclass__(cls):
        if "__slots__" not in cls.__dict__:
            raise TypeError(f"{cls.__name__} must name its fields in __slots__")
        names = cls.__slots__
        check = cls.__post_init__
        values = attrgetter(*names)
        if len(names) == 1:
            a, = names

            def __init__(self, x):
                _set(self, a, x)
                check(self)
        elif len(names) == 2:
            a, b = names

            def __init__(self, x, y):
                _set(self, a, x)
                _set(self, b, y)
                check(self)
        else:
            a, b, c = names

            def __init__(self, x, y, z):
                _set(self, a, x)
                _set(self, b, y)
                _set(self, c, z)
                check(self)

        fields = values if len(names) > 1 else lambda node: (values(node),)

        def __eq__(self, other):
            if other.__class__ is self.__class__:
                return values(self) == values(other)
            return NotImplemented

        def __hash__(self):
            try:
                return self._hash
            except AttributeError:
                _set(self, "_hash", hash(fields(self)))
                return self._hash
        cls.__init__, cls.__eq__, cls.__hash__ = __init__, __eq__, __hash__
        cls.fields = property(fields)

    def __post_init__(self):
        """Check or normalise the fields; a subclass overrides this."""

    def __repr__(self):
        shown = ", ".join(f"{name}={value!r}"
                          for name, value in zip(self.__slots__, self.fields))
        return f"{self.__class__.__qualname__}({shown})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return self.__class__, self.fields


# ---------------------------------------------------------------------------
# Terms

class Var(Node):
    __slots__ = ("name",)


class Num(Node):
    __slots__ = ("value",)

    def __post_init__(self):
        if not isinstance(self.value, Fraction):
            object.__setattr__(self, "value", Fraction(self.value))


class Add(Node):
    __slots__ = ("left", "right")


class Sub(Node):
    __slots__ = ("left", "right")


class Mul(Node):
    __slots__ = ("left", "right")


class Neg(Node):
    __slots__ = ("inner",)


class Div(Node):
    """Quotient restricted to constant divisors.

    The divisor must be built from rational literals and declared symbolic
    constants only; model loading rejects divisors whose symbolic constants
    lack a sign constraint.  A literal zero divisor is rejected here.
    """

    __slots__ = ("num", "den")

    def __post_init__(self):
        if isinstance(self.den, Num) and self.den.value == 0:
            raise ValueError("division by zero constant")


class Pow(Node):
    __slots__ = ("base", "exp")

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


class Cmp(Node):
    __slots__ = ("op", "left", "right")

    def __post_init__(self):
        if self.op not in CMP_OPS:
            raise ValueError(f"bad comparison operator {self.op!r}")


class BoolLit(Node):
    __slots__ = ("value",)


TRUE = BoolLit(True)
FALSE = BoolLit(False)


class Not(Node):
    __slots__ = ("inner",)


class And(Node):
    __slots__ = ("left", "right")


class Or(Node):
    __slots__ = ("left", "right")


class Implies(Node):
    __slots__ = ("left", "right")


class Iff(Node):
    __slots__ = ("left", "right")


class Forall(Node):
    __slots__ = ("var", "body")


class Exists(Node):
    __slots__ = ("var", "body")


class Box(Node):
    __slots__ = ("program", "post")


class Diamond(Node):
    __slots__ = ("program", "post")


Formula = Union[Cmp, BoolLit, Not, And, Or, Implies, Iff, Forall, Exists, Box, Diamond]

FORMULA_OPS = {Iff: ("<->", 1, 1), Implies: ("->", 2, 2),
               Or: ("|", 3, 4), And: ("&", 4, 5)}

# ---------------------------------------------------------------------------
# Hybrid programs

class Assign(Node):
    __slots__ = ("var", "term")


class RandomAssign(Node):
    __slots__ = ("var",)


class Test(Node):
    __slots__ = ("condition",)


class ODE(Node):
    __slots__ = ("equations", "domain")  # equations: tuple of (var, rhs Term)

    def __post_init__(self):
        names = [v for v, _ in self.equations]
        if len(set(names)) != len(names):
            raise ValueError("duplicate variable in ODE")
        object.__setattr__(self, "equations", tuple(self.equations))


class Choice(Node):
    __slots__ = ("left", "right")


class Seq(Node):
    __slots__ = ("first", "second")


class Loop(Node):
    __slots__ = ("body",)


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
        first, second = program.fields
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
        return kind(*[sub(v) if isinstance(v, Node) else v
                      for v in node.fields])

    return sub(node)
