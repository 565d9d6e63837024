"""Deterministic execution of hybrid programs under resolved nondeterminism.

All nondeterminism (random assignments, choices, ODE durations, loop
counts) is externalized into a ChoiceScript consumed left to right, so a
run is a pure function of (state, program, script).  States map variable
names to exact rationals where possible; floats appear only after a
plant outside the closed-form template, which the RK4 kernel integrates.
The search's states hold each exact rational as an int pair instead,
which is the only way the exact kernel below reads a value.  A closed-form
plant is one compiled kernel, which the search runs on its pairs and
`evolve`/`duration_bound` run on any state through pair_view, each value
read as its exact ratio; an evolved float comes back as the float nearest
its exact value.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import compress, repeat
from math import gcd, isfinite

from .syntax import (
    FORMULA_OPS, Add, And, Assign, BoolLit, Box, Choice, Cmp, Diamond, Div,
    Exists, Forall, Iff, Implies, Loop, Mul, Neg, Not, Num, ODE, Or, Pow,
    Node, RandomAssign, Seq, Sub, Test, Var, conjuncts, free_variables,
)

# States are plain dicts: name -> Fraction (exact) or float (approximate);
# in the search, an exact value is a (numerator, denominator > 0) int pair.
# eval_fol decides a comparison of exact values on such pairs, unreduced,
# and any other by eval_term's Fraction/float arithmetic.
State = dict


class UndeclaredVariable(Exception):
    pass


class QuantifierInFormula(Exception):
    pass


class ScriptError(Exception):
    pass


class NumericBlowup(Exception):
    pass


# Fixed-step integrator, evolution-domain grid and duration bisection.
ODE_STEP = 1 / 64
GRID_POINTS = 64
DURATION_TOL = 1e-9
DEFAULT_HORIZON = Fraction(100)


def is_exact(value) -> bool:
    return isinstance(value, (Fraction, int))


def eval_term(state: State, term):
    kind = type(term)
    if kind is Var:
        try:
            return state[term.name]
        except KeyError:
            raise UndeclaredVariable(term.name) from None
    if kind is Num:
        return term.value
    if kind is Mul:
        return eval_term(state, term.left) * eval_term(state, term.right)
    if kind is Sub:
        return eval_term(state, term.left) - eval_term(state, term.right)
    if kind is Add:
        return eval_term(state, term.left) + eval_term(state, term.right)
    if kind is Div:
        num = eval_term(state, term.num)
        den = eval_term(state, term.den)
        if type(num) is type(den) is Fraction:
            return num / den
        if is_exact(num) and is_exact(den):
            # an int operand becomes a Fraction first, so that a zero
            # divisor raises Fraction's message on every Python
            return Fraction(num, 1) / Fraction(den, 1)
        return num / den
    if kind is Pow:
        return eval_term(state, term.base) ** term.exp
    if kind is Neg:
        return -eval_term(state, term.inner)
    raise TypeError(f"not a term: {term!r}")


_CMP = {"<=": operator.le, "<": operator.lt, ">=": operator.ge,
        ">": operator.gt, "=": operator.eq, "!=": operator.ne}


class _Inexact(Exception):
    """A term that _pair leaves to eval_term."""


def _pair(state: State, term):
    """(numerator, denominator > 0) of `term` in `state`, unreduced, read
    from its Fraction and int values; _Inexact when it reads another value
    or lacks one, divides by 0 or meets a node it does not know."""
    kind = type(term)
    if kind is Var:
        value = state.get(term.name)
        if type(value) is Fraction or type(value) is int:
            return value.as_integer_ratio()
        raise _Inexact
    if kind is Num:
        return term.value.as_integer_ratio()
    if kind is Mul:
        a, b = _pair(state, term.left)
        c, d = _pair(state, term.right)
        return a * c, b * d
    if kind is Sub:
        a, b = _pair(state, term.left)
        c, d = _pair(state, term.right)
        return a * d - c * b, b * d
    if kind is Add:
        a, b = _pair(state, term.left)
        c, d = _pair(state, term.right)
        return a * d + c * b, b * d
    if kind is Div:
        a, b = _pair(state, term.num)
        c, d = _pair(state, term.den)
        if c > 0:
            return a * d, b * c
        if c < 0:
            return -a * d, -b * c
        raise _Inexact
    if kind is Pow:
        a, b = _pair(state, term.base)
        return a ** term.exp, b ** term.exp
    if kind is Neg:
        a, b = _pair(state, term.inner)
        return -a, b
    raise _Inexact


def eval_fol(state: State, formula) -> bool:
    """Truth of a quantifier-free, modality-free formula in a state.  A
    comparison of exact values is decided on their int pairs, unreduced
    and cross-multiplied, with no Fraction built; any other (a float, a
    missing variable, a zero divisor) falls back to eval_term's
    Fraction/float arithmetic and raises as eval_term raises."""
    kind = type(formula)
    if kind is Cmp:
        try:
            a, b = _pair(state, formula.left)
            c, d = _pair(state, formula.right)
        except _Inexact:
            return _CMP[formula.op](eval_term(state, formula.left),
                                    eval_term(state, formula.right))
        return _CMP[formula.op](a * d, c * b)
    if kind is And:
        return eval_fol(state, formula.left) and eval_fol(state, formula.right)
    if kind is Not:
        return not eval_fol(state, formula.inner)
    if kind is Or:
        return eval_fol(state, formula.left) or eval_fol(state, formula.right)
    if kind is Implies:
        return (not eval_fol(state, formula.left)) or eval_fol(state, formula.right)
    if kind is BoolLit:
        return formula.value
    if kind is Iff:
        return eval_fol(state, formula.left) == eval_fol(state, formula.right)
    if kind is Forall or kind is Exists:
        raise QuantifierInFormula("quantified formulas are decided by search")
    if kind is Box or kind is Diamond:
        raise QuantifierInFormula("modalities are decided by search")
    raise TypeError(f"not a formula: {formula!r}")


# Exact kernel.  The search evaluates each quantifier-free formula of an
# obligation tens of thousands of times, so it is compiled once into a tree
# of closures.  A term node returns its exact value as a (numerator,
# denominator > 0) pair of Python ints: sums and products are a few integer
# operations, comparisons cross-multiply, and nothing is reduced by a gcd
# inside a formula, so no Fraction is built.  The kernel reads a state that
# holds an int pair for every variable it reads, as the search's states do:
# a variable is operator.itemgetter, a C call that checks nothing.  Any
# other state is read through pair_view where it enters, which makes each
# value it reads a pair once and raises UndeclaredVariable for a missing
# one.  Float arithmetic lives only in the RK4 kernel below and in
# eval_term/eval_fol, which a caller that wants it calls.  The compiler
# folds every subterm built from literals alone into one reduced pair, and,
# given the values of constants the state never changes, those constants
# and every subterm built from them too; a node captures a folded operand
# instead of calling it (partial evaluation).  The block kernel below takes
# the same folding to columns of candidates.

def exact_view(state: State) -> State:
    """`state` with each int pair read as its Fraction."""
    return {k: Fraction(*v) if type(v) is tuple else v
            for k, v in state.items()}


class pair_view(dict):
    """`state` as the exact kernel reads it, each value made an int pair on
    its first read: a pair as it is, any other value its exact ratio.  A
    value never read is never converted, and a variable the state lacks is
    UndeclaredVariable."""

    __slots__ = ("state",)

    def __init__(self, state: State):
        self.state = state

    def __missing__(self, name):
        if name not in self.state:
            raise UndeclaredVariable(name)
        value = self.state[name]
        self[name] = pair = (value if type(value) is tuple
                             else value.as_integer_ratio())
        return pair


def _reduced(n, d):
    g = gcd(n, d)
    return (n // g, d // g) if g > 1 else (n, d)


def _ratio_term(term, constants=None):
    """Closure state of int pairs -> (numerator, denominator > 0) of `term`.
    `constants` maps the names whose values are fixed to their int pairs;
    given it, the closure reads none of them from the state."""
    value = _ratio(term, constants)
    return value if callable(value) else lambda s: value


def _ratio(term, constants, nodes=None):
    """The reduced pair of a subterm folded at compile time, else the node
    that `nodes` (by default _RATIO_NODES: a closure as `_ratio_term`
    gives) builds on its operands, or on the name of a variable.  Literals
    always fold; constants only when given."""
    nodes = nodes or _RATIO_NODES
    if isinstance(term, Var):
        if constants is not None and term.name in constants:
            return constants[term.name]
        return nodes[Var](term.name)
    if isinstance(term, Num):
        return term.value.as_integer_ratio()
    if isinstance(term, Neg):
        inner = _ratio(term.inner, constants, nodes)
        if not callable(inner):
            return -inner[0], inner[1]
        return nodes[Mul](inner, (-1, 1))
    if isinstance(term, Pow):
        base, k = _ratio(term.base, constants, nodes), term.exp
        if not callable(base):
            return base[0] ** k, base[1] ** k
        return nodes[Pow](base, k)
    if isinstance(term, Div):
        left = _ratio(term.num, constants, nodes)
        right = _ratio(term.den, constants, nodes)
    else:
        left = _ratio(term.left, constants, nodes)
        right = _ratio(term.right, constants, nodes)
    if not callable(left) and not callable(right):
        try:
            value = _TERM_OPS[type(term)](Fraction(*left), Fraction(*right))
        except ZeroDivisionError:
            pass  # raised when evaluated, as eval_term does
        else:
            return value.as_integer_ratio()
    return nodes[type(term)](left, right)


def _ratio_pow(base, k):
    def power(s):
        n, d = base(s)
        return n ** k, d ** k
    return power


def _ratio_div(left, right):
    if not callable(right):
        c, d = right
        if c == 0:  # raised when evaluated, as eval_term does
            def div(s):
                _divide_by_zero(*(left(s) if callable(left) else left))
            return div
        return _ratio_mul(left, (d, c) if c > 0 else (-d, -c))
    if not callable(left):
        left = (lambda a: lambda s: a)(left)

    def div(s):
        a, b = left(s)
        c, d = right(s)
        if c > 0:
            return a * d, b * c
        if c < 0:
            return -a * d, -b * c
        _divide_by_zero(a, b)
    return div


def _divide_by_zero(a, b):
    """Raise the ZeroDivisionError that Fraction(a, b) / 0 raises, with the
    message this Python's Fraction gives it."""
    Fraction(a, b) / Fraction(0)


def _ratio_mul(left, right):
    if not callable(left):
        left, right = right, left  # a product commutes
    if not callable(right):
        c, d = right

        def mul(s):
            a, b = left(s)
            return a * c, b * d
        return mul

    def mul(s):
        a, b = left(s)
        c, d = right(s)
        return a * c, b * d
    return mul


def _ratio_add(left, right):
    if not callable(left):
        left, right = right, left  # a sum commutes
    if not callable(right):
        c, d = right

        def add(s):
            a, b = left(s)
            return a * d + c * b, b * d
        return add

    def add(s):
        a, b = left(s)
        c, d = right(s)
        return a * d + c * b, b * d
    return add


def _ratio_sub(left, right):
    if not callable(right):
        return _ratio_add(left, (-right[0], right[1]))
    if not callable(left):
        a, b = left

        def sub(s):
            c, d = right(s)
            return a * d - c * b, b * d
        return sub

    def sub(s):
        a, b = left(s)
        c, d = right(s)
        return a * d - c * b, b * d
    return sub


_RATIO_NODES = {Add: _ratio_add, Sub: _ratio_sub, Mul: _ratio_mul,
                Div: _ratio_div, Pow: _ratio_pow, Var: operator.itemgetter}


def _fol_closure(formula, comparison):
    """Closure state -> bool of a quantifier-free formula, evaluated in the
    order of eval_fol so that a zero divisor raises exactly where it does;
    `comparison` compiles each comparison."""
    if isinstance(formula, BoolLit):
        value = formula.value
        return lambda s: value
    if isinstance(formula, Cmp):
        return comparison(formula)
    if isinstance(formula, Not):
        inner = _fol_closure(formula.inner, comparison)
        return lambda s: not inner(s)
    if type(formula) in FORMULA_OPS:
        left = _fol_closure(formula.left, comparison)
        right = _fol_closure(formula.right, comparison)
        if isinstance(formula, And):
            return lambda s: left(s) and right(s)
        if isinstance(formula, Or):
            return lambda s: left(s) or right(s)
        if isinstance(formula, Implies):
            return lambda s: not left(s) or right(s)
        return lambda s: left(s) == right(s)
    eval_fol({}, formula)  # raises as it does: QuantifierInFormula, TypeError
    raise TypeError(formula)


def _ratio_cmp(formula, constants):
    left = _ratio(formula.left, constants)
    right = _ratio(formula.right, constants)
    holds = _CMP[formula.op]
    if not callable(right):
        c, d = right
        if not callable(left):
            value = holds(left[0] * d, c * left[1])
            return lambda s: value

        def cmp(s):
            a, b = left(s)
            return holds(a * d, c * b)
        return cmp
    if not callable(left):
        a, b = left

        def cmp(s):
            c, d = right(s)
            return holds(a * d, c * b)
        return cmp

    def cmp(s):
        a, b = left(s)
        c, d = right(s)
        return holds(a * d, c * b)
    return cmp


def compile_fol(formula, constants=None):
    """state of int pairs -> bool, equal to eval_fol(exact_view(state),
    formula) on a quantifier-free `formula`, evaluated by the exact kernel,
    which folds `constants` (see _ratio_term).  A ZeroDivisionError is
    raised exactly when eval_fol raises one."""
    return _fol_closure(formula, lambda c: _ratio_cmp(c, constants))


# Block kernel.  The search decides a first-order matrix over a block of
# candidates at a time, column by column (Boncz, Zukowski and Nes,
# "MonetDB/X100: Hyper-Pipelining Query Execution", CIDR 2005).  A block
# maps each variable it holds to a column: a sequence of numerators over one
# shared int denominator.  Terms fold as in _ratio, and each operation on a
# column is one map over its numerators, a C loop with no call per row.
# Every division is by a folded nonzero literal, so a column keeps one
# shared denominator and a block raises nothing; any other divisor is
# NotBlockwise, and the caller decides row by row instead.  A comparison
# gives the list of its truths, one per row, as compile_fol gives on that
# row; on_rows evaluates an operand on the rows its connective leaves open.

class NotBlockwise(Exception):
    """A divisor that does not fold to a nonzero literal."""


def _lifted(value):
    """A column closure: a folded pair repeated on every row."""
    if callable(value):
        return value
    c, d = value
    return lambda b, n: ([c] * n, d)


def block_term(term, constants=None):
    """The folded pair of `term`, else its closure (block, n) -> column."""
    return _ratio(term, constants, _BLOCK_NODES)


def block_cmp(formula, constants=None, truth=True):
    """(block, n) -> whether the comparison `formula` is `truth` on each of
    the n rows of `block`, its sides over one denominator."""
    op = _CMP[formula.op] if truth else _CMP_NOT[formula.op]
    compare = _block_node(op, True)(block_term(formula.left, constants),
                                    block_term(formula.right, constants))
    return lambda b, n: list(compare(b, n)[0])


_CMP_NOT = {"<=": operator.gt, "<": operator.ge, ">=": operator.lt,
            ">": operator.le, "=": operator.ne, "!=": operator.eq}


def on_rows(b, n, mask, evaluate, fills):
    """The lists that evaluate(block, rows) gives on the rows of the n-row
    `block` where `mask` holds, each with its item of `fills` on the
    others; evaluate sees those rows alone when they are fewer than
    half."""
    count = mask.count(True)
    if 2 * count >= n:
        return [[value if m else fill for value, m in zip(out, mask)]
                for out, fill in zip(evaluate(b, n), fills)]
    outs = [[fill] * n for fill in fills]
    sub = {k: (list(compress(c, mask)), d) for k, (c, d) in b.items()}
    for out, part in zip(outs, evaluate(sub, count) if count else ()):
        for i, value in zip(compress(range(n), mask), part):
            out[i] = value
    return outs


def _block_node(op, common):
    """The closure of a binary term node with its operands' columns over
    their least common denominator (`common`), which scales neither when
    they share one, or over the product of theirs."""
    def build(left, right):
        left, right = _lifted(left), _lifted(right)

        def node(b, n):
            (a, da), (c, dc) = left(b, n), right(b, n)
            if not common:
                return map(op, a, c), da * dc
            g = gcd(da, dc)
            if dc != g:
                a = map(operator.mul, a, repeat(dc // g))
            if da != g:
                c = map(operator.mul, c, repeat(da // g))
            return map(op, a, c), da // g * dc
        return node
    return build


def _block_div(left, right):
    if callable(right) or right[0] == 0:
        raise NotBlockwise("a divisor that does not fold to a nonzero literal")
    c, d = right
    return _BLOCK_NODES[Mul](left, (d, c) if c > 0 else (-d, -c))


def _block_pow(base, k):
    def power(b, n):
        nums, den = base(b, n)
        return map(pow, nums, repeat(k)), den ** k
    return power


_BLOCK_NODES = {Add: _block_node(operator.add, True),
                Sub: _block_node(operator.sub, True),
                Mul: _block_node(operator.mul, False), Div: _block_div,
                Pow: _block_pow, Var: lambda name: lambda b, n: b[name]}


_TERM_OPS = {Add: operator.add, Sub: operator.sub, Mul: operator.mul,
             Div: operator.truediv}


# Polynomials: a dict from monomial, the tuple of its factors sorted by
# repr (variables first), to an int or Fraction coefficient.  A factor is a
# variable name, or an opaque atom Div(1, d) for a divisor d that is not a
# literal.  Monomials that cancel are kept, so that the longest is the
# syntactic degree and each divisor still raises where the term does.

def _plus(left, right, sign=1):
    out = dict(left)
    for m, c in right.items():
        out[m] = out.get(m, 0) + sign * c
    return out


def _times(left, right):
    out = {}
    for m1, c1 in left.items():
        for m2, c2 in right.items():
            m = tuple(sorted(m1 + m2, key=repr))
            out[m] = out.get(m, 0) + c1 * c2
    return out


def polynomial(term):
    """`term` as a polynomial, whatever its divisors."""
    kind = type(term)
    if kind is Var:
        return {(term.name,): 1}
    if kind is Num:
        return {(): term.value}
    if kind is Neg:
        return {m: -c for m, c in polynomial(term.inner).items()}
    if kind is Pow:
        base = polynomial(term.base)
        # a zero power is 1 where its base is defined: the atoms stay
        out = base if term.exp else {
            **{tuple(f for f in m if type(f) is not str): 0 for m in base},
            (): 1}
        for _ in range(term.exp - 1):
            out = _times(out, base)
        return out
    if kind is Div:
        num, den = polynomial(term.num), term.den
        if type(den) is Num:  # never 0: Div rejects it
            return {m: c / den.value for m, c in num.items()}
        return _times(num, {(Div(Num(1), den),): 1})
    left, right = polynomial(term.left), polynomial(term.right)
    if kind is Mul:
        return _times(left, right)
    return _plus(left, right, 1 if kind is Add else -1)


def coefficients(poly, variables):
    """`poly` as a dict from monomial in `variables` to its coefficient, a
    polynomial in the other factors; None when an atom's divisor holds one
    of `variables`."""
    out = {}
    for m, c in poly.items():
        rest = tuple(f for f in m if f not in variables)
        if any(free_variables(f.den).intersection(variables)
               for f in rest if type(f) is not str):
            return None
        out.setdefault(tuple(f for f in m if f in variables), {})[rest] = c
    return out


def affine(conjunct, variables):
    """The coefficients on `variables` of a comparison conjunct's
    left - right, keyed by () and (v,), when it is affine in them."""
    form = isinstance(conjunct, Cmp) and coefficients(
        polynomial(Sub(conjunct.left, conjunct.right)), variables)
    return form if form and all(len(m) < 2 for m in form) else None


def to_term(poly):
    """A term that eval_term and the exact kernel read as `poly`, zero
    monomials included; unit coefficients are left out."""
    total = None
    for m, c in poly.items():
        term = None if m and c in (1, -1) else Num(c)
        for f in m:
            if type(f) is str:
                term = Var(f) if term is None else Mul(term, Var(f))
            else:
                term = Div(Num(1) if term is None else term, f.den)
        term = Neg(term) if m and c == -1 else term
        total = term if total is None else Add(total, term)
    return Num(0) if total is None else total


# ---------------------------------------------------------------------------
# Choice scripts

class Branch(Node):
    __slots__ = ("side",)  # 'left' | 'right'

    def __post_init__(self):
        if self.side not in ("left", "right"):
            raise ValueError("branch side must be 'left' or 'right'")


class RandomValue(Node):
    __slots__ = ("value",)  # Fraction or float


class Duration(Node):
    __slots__ = ("value",)

    def __post_init__(self):
        if self.value < 0:
            raise ValueError("negative duration")


class LoopCount(Node):
    __slots__ = ("count",)

    def __post_init__(self):
        if self.count < 0:
            raise ValueError("negative loop count")


# The one spelling of a decision, in script files and certificate JSON:
# keyword -> (decision class, reader of its argument).
DECISIONS = {"loop": (LoopCount, int), "value": (RandomValue, Fraction),
             "branch": (Branch, str), "duration": (Duration, Fraction)}


def spell_decision(decision):
    """(keyword, argument) of a decision; TypeError for anything else."""
    for keyword, (kind, _) in DECISIONS.items():
        if isinstance(decision, kind):
            return keyword, decision.fields[0]
    raise TypeError(decision)


def parse_script(text: str) -> list:
    """Parse a decision-per-line script file.

    Lines: `loop N`, `value V`, `branch left|right`, `duration D`; blank
    lines and `#` comments are skipped.  V and D accept fractions (9/5)
    and decimals (1.8), both read exactly.
    """
    decisions = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if len(parts) != 2:
            raise ScriptError(f"line {lineno}: expected 'keyword argument'")
        keyword, arg = parts
        if keyword not in DECISIONS:
            raise ScriptError(f"line {lineno}: unknown keyword {keyword!r}")
        kind, read = DECISIONS[keyword]
        try:
            decisions.append(kind(read(arg)))
        except (ValueError, ZeroDivisionError) as exc:
            raise ScriptError(f"line {lineno}: {exc}") from None
    return decisions


def format_script(decisions) -> str:
    lines = ["%s %s" % spell_decision(d) for d in decisions]
    return "\n".join(lines) + ("\n" if lines else "")


class ScriptCursor:
    """Hands `run` its decisions in order.  `take` also gets the state and
    the program construct that asks, so a subclass can make each decision
    as the run reaches it."""

    def __init__(self, decisions):
        self.decisions = list(decisions)
        self.index = 0

    def take(self, kind, state, program):
        if self.index >= len(self.decisions):
            raise ScriptError(f"script exhausted; expected {kind.__name__}")
        decision = self.decisions[self.index]
        if not isinstance(decision, kind):
            raise ScriptError(
                f"script mismatch at position {self.index}: expected "
                f"{kind.__name__}, got {type(decision).__name__}")
        self.index += 1
        return decision

    def exhausted(self) -> bool:
        return self.index >= len(self.decisions)


# ---------------------------------------------------------------------------
# Outcomes and traces

class Final(Node):
    __slots__ = ("state",)


class Aborted(Node):
    __slots__ = ("failed_test", "state")


@dataclass(slots=True)
class TraceStep:
    """One record of a run's trace: the time, what the step did, and a copy
    of the state after it.  Slotted, not frozen: `run` builds one per step,
    and nothing hashes or changes one; `dataclasses.replace` makes a
    changed copy."""
    time: object
    label: str
    state: State


# ---------------------------------------------------------------------------
# ODE evolution

def closed_form_template(ode: ODE):
    """Match the double-integrator-with-clock template.

    Returns (pos, vel, clock, accel_rhs) or None.  The acceleration right
    hand side must be a variable not evolved by the ODE or a literal.
    """
    if len(ode.equations) != 3:
        return None
    evolved = {v for v, _ in ode.equations}
    pos = vel = clock = None
    for v, rhs in ode.equations:
        if rhs == Num(1):
            clock = v
    if clock is None:
        return None
    for v, rhs in ode.equations:
        if v == clock:
            continue
        if isinstance(rhs, Var) and any(v2 == rhs.name and v2 != clock
                                        for v2, _ in ode.equations):
            pos, vel = v, rhs.name
    if pos is None:
        return None
    accel = dict(ode.equations)[vel]
    if isinstance(accel, Num) or (isinstance(accel, Var)
                                  and accel.name not in evolved):
        return pos, vel, clock, accel
    return None


def _like(start, pair):
    """The int pair `pair` in the kind of `start`: a pair as it is, the
    nearest float for a float, else its Fraction."""
    kind = type(start)
    if kind is tuple:
        return pair
    if kind is float:
        return pair[0] / pair[1]
    return Fraction(*pair)


class Plant:
    """How one ODE evolves, decided once.  The double-integrator template with
    domain conjuncts affine in velocity and clock, as `affine` reads them,
    uses the exact polynomial solution, checks the domain at both
    endpoints and at any crossing of a `!=` conjunct between them, and gives
    an exact maximal duration.  Any other ODE is integrated in floats by
    fixed-step RK4 with step 1/64 (ODE_STEP), checks the domain at the start
    and at 65 evenly spaced times up to the duration (GRID_POINTS + 1) and
    bisects for its maximal duration; its right-hand sides and domain are
    compiled into closures once, on the first evolution.

    The template is compiled by the exact kernel once per set of fixed
    constants (_kernel), and reads states of int pairs.  `evolve` and
    `duration_bound` take any state and run the kernel with no constants
    on its pair view; a search whose states hold an int pair for every
    variable asks for `pair_kernel(constants)` instead: the same kernel's
    bound and step, which fold the constants and check no more than the
    bound leaves open."""

    def __init__(self, ode: ODE):
        self.ode = ode
        self.template = closed_form_template(ode)
        # the template needs each domain conjunct's left - right affine in
        # velocity and clock and free of position: (conjunct, coefficients)
        self._forms = [] if self.template is None else [
            (c, affine(c, self.template[:3]))
            for c in conjuncts(ode.domain) if not isinstance(c, BoolLit)]
        if any(form is None or (self.template[0],) in form
               for _, form in self._forms):
            self.template, self._forms = None, []
        # along the solution an affine `!=` conjunct fails at one instant,
        # which the endpoints miss; every other conjunct holds on an interval
        self._punctured = any(c.op == "!=" for c, _ in self._forms)
        self._numeric = None  # compiled on first use
        self._kernels = {}  # _kernel's, by sorted constants

    def evolve(self, state: State, duration):
        """Final(state at duration) when the evolution domain holds
        throughout [0, duration], else Aborted.  On a state of int pairs
        `duration` is a pair too, and RK4 reads each pair n, d as the float
        n / d.  The template judges the exact solution on the state's pair
        view and gives each evolved variable back in the kind of its start
        value (_like), and every other one as the state holds it."""
        if (duration[0] if type(duration) is tuple else duration) < 0:
            raise ValueError("negative duration")
        if self.template is None:
            if self._numeric is None:
                self._numeric = _compile_numeric(self.ode)
            return self._numeric(state, duration)
        domain, earliest, solve, _, _ = self._kernel(None)
        start = pair_view(state)
        if not domain(start):
            return Aborted(self.ode.domain, state)
        t = duration if type(duration) is tuple else duration.as_integer_ratio()
        # the end holds the values the start check read, and the domain, a
        # conjunction whose start held, reads no others
        end = solve(start, t)
        holds = domain(end)
        if holds and self._punctured:
            # the end holds, so a bound before it is a `!=` crossing
            first = earliest(start)
            if first is not None and first[0] * t[1] < t[0] * first[1]:
                end, holds = solve(start, first), False
        final = dict(state)
        for name in self.template[:3]:
            final[name] = _like(state[name], end[name])
        return Final(final) if holds else Aborted(self.ode.domain, final)

    def duration_bound(self, state: State):
        """Supremum of durations for which the domain holds throughout, up
        to DEFAULT_HORIZON: a reduced int pair on the template path, a float
        from bisection on the grid-checked predicate otherwise, whose start
        eval_fol judges."""
        if self.template is None:
            if not eval_fol(exact_view(state), self.ode.domain):
                return 0, 1
            return self._bisect(state)
        return self._kernel(None)[3](pair_view(state)) or (0, 1)

    def pair_kernel(self, constants=None, live=None):
        """(bound, step) of the template on dict states that hold an int
        pair for every variable, with `constants` folded: _kernel's, for
        the evolved variables in `live` (all where it is None)."""
        solved = None if live is None else tuple(
            name for name in self.template[:3] if name in live)
        return self._kernel(constants, solved)[3:]

    def _kernel(self, constants, solved=None):
        """(domain, earliest, solve, bound, step) of the template on states
        of int pairs, compiled once per set of constants and of variables
        solved for by the exact kernel, which folds `constants`.
        domain(state) is the domain's truth.  earliest(state) is the first
        time, an int pair, at which a conjunct's left - right, moving at the
        rate c_vel * accel + c_clock read off its form, reaches its bound,
        or None.  solve(state, duration) is the state with position,
        velocity and clock at the duration as reduced int pairs: those of
        them in `solved`, read after the evolution, unless it is None or the
        end is checked.  bound(state) is duration_bound's pair, or None
        where the start fails.  step(state, duration) is solve's state, or
        None where evolve aborts, for a state whose start holds and a
        duration up to its bound: every conjunct then holds throughout but a
        strict one or a `!=`, which can fail at the bound, so the end is
        checked only when the domain has one of these."""
        key = tuple(sorted(constants.items())) if constants else (), solved
        if key in self._kernels:
            return self._kernels[key]
        pos, vel, clock, accel = self.template
        domain = compile_fol(self.ode.domain, constants)
        lines = []
        for c, form in self._forms:
            rate = _plus(_times(form.get((vel,), {}), polynomial(accel)),
                         form.get((clock,), {}))
            lines.append((c.op,
                          _ratio_term(Sub(c.left, c.right), constants),
                          _ratio_term(to_term(rate), constants)))
        check_end = any(op not in ("<=", ">=", "=") for op, _, _ in lines)
        horizon = DEFAULT_HORIZON.as_integer_ratio()
        acceleration = _ratio_term(accel, constants)
        pos_of, vel_of, clock_of = map(operator.itemgetter, (pos, vel, clock))

        def earliest(state):
            return _earliest(_affine_conjunct_bound(op, *offset(state),
                                                    *rate(state))
                             for op, offset, rate in lines)

        # each evolved variable after time t under acceleration a, int pairs
        # all, by one gcd: pos = p + t * h with h = v + a * t / 2
        def position(state, a, t):
            (pn, pd), (vn, vd), (an, ad), (tn, td) = (pos_of(state),
                                                      vel_of(state), a, t)
            hn, hd = 2 * vn * ad * td + an * tn * vd, 2 * vd * ad * td
            return _reduced(pn * td * hd + tn * hn * pd, pd * td * hd)

        def velocity(state, a, t):
            (vn, vd), (an, ad), (tn, td) = vel_of(state), a, t
            return _reduced(vn * ad * td + an * tn * vd, vd * ad * td)

        def elapsed(state, a, t):
            (cn, cd), (tn, td) = clock_of(state), t
            return _reduced(cn * td + tn * cd, cd * td)
        ends = [(name, at) for name, at in zip((pos, vel, clock),
                                               (position, velocity, elapsed))
                if solved is None or check_end or name in solved]

        def solve(state, duration):
            end = dict(state)
            a = acceleration(state)
            for name, at in ends:
                end[name] = at(state, a, duration)
            return end

        def bound(state):
            if not domain(state):
                return None
            best = earliest(state)
            return horizon if best is None else _reduced(*best)

        def step(state, duration):
            end = solve(state, duration)
            return None if check_end and not domain(end) else end
        kernel = domain, earliest, solve, bound, step
        self._kernels[key] = kernel
        return kernel

    def _bisect(self, state):
        lo, hi = 0.0, float(DEFAULT_HORIZON)
        if self._admits(state, hi):
            return hi
        while hi - lo > DURATION_TOL:
            mid = (lo + hi) / 2
            if self._admits(state, mid):
                lo = mid
            else:
                hi = mid
        return lo

    def _admits(self, state, duration):
        """Whether the domain holds throughout `duration`; a run that blows
        up before its end does not."""
        try:
            return isinstance(self.evolve(state, duration), Final)
        except (NumericBlowup, OverflowError):
            return False


PLANT_CACHE = 256  # ODE values, and ODE objects, whose Plant is kept

# id(ode) -> (ode, Plant), oldest first; each entry holds its ODE, so the id
# is not reused while the entry lives
_plants_by_id = {}


@lru_cache(maxsize=PLANT_CACHE)
def _plant_of_value(ode: ODE) -> Plant:
    return Plant(ode)


def plant_of(ode: ODE) -> Plant:
    """The Plant of `ode`, one per distinct ODE value: the only place a
    Plant is built.  An ODE object asked for before is answered by its id,
    so a run that evolves one plant many times hashes and compares its tree
    once; `plant_of.cache_clear()` forgets both the ids and the values."""
    entry = _plants_by_id.get(id(ode))
    if entry is not None:
        return entry[1]
    plant = _plant_of_value(ode)
    if len(_plants_by_id) >= PLANT_CACHE:
        del _plants_by_id[next(iter(_plants_by_id))]
    _plants_by_id[id(ode)] = ode, plant
    return plant


def _clear_plants():
    _plants_by_id.clear()
    _plant_of_value.cache_clear()


plant_of.cache_clear = _clear_plants


def evolve_plant(state: State, ode: ODE, duration):
    """plant_of(ode).evolve(state, duration)."""
    return plant_of(ode).evolve(state, duration)


def max_admissible_duration(state: State, ode: ODE):
    """plant_of(ode).duration_bound(state), with a Fraction for its pair."""
    bound = plant_of(ode).duration_bound(state)
    return Fraction(*bound) if type(bound) is tuple else bound


# Float kernel.  A plant outside the closed-form template is integrated by
# fixed-step RK4 on a state that holds a float per variable.  Its right-hand
# sides and domain are compiled once into closures that compute what
# eval_term and eval_fol compute on such a state: a variable-free subterm
# is folded to its exact Fraction, and where it meets a float it enters as
# float(c), which is what Fraction arithmetic with a float does.

def _float_operand(c):
    """float(c) for a Fraction c, or c itself where that overflows, so that
    the operation raises as Fraction arithmetic does."""
    try:
        return float(c)
    except OverflowError:
        return c


def _float_term(term):
    """The exact Fraction of a variable-free `term`, else a closure
    state -> float."""
    if isinstance(term, Var):
        name = term.name

        def var(s):
            try:
                return s[name]
            except KeyError:
                raise UndeclaredVariable(name) from None
        return var
    if isinstance(term, Num):
        return term.value
    if isinstance(term, Neg):
        inner = _float_term(term.inner)
        if not callable(inner):
            return -inner
        return lambda s: -inner(s)
    if isinstance(term, Pow):
        base, k = _float_term(term.base), term.exp
        if not callable(base):
            return base ** k
        return lambda s: base(s) ** k
    op = _TERM_OPS[type(term)]
    if isinstance(term, Div):
        left, right = _float_term(term.num), _float_term(term.den)
    else:
        left, right = _float_term(term.left), _float_term(term.right)
    if not callable(left) and not callable(right):
        try:
            return op(left, right)
        except ZeroDivisionError:  # raised when evaluated, as eval_term does
            return lambda s: op(left, right)
    if not callable(left):
        c = _float_operand(left)
        return lambda s: op(c, right(s))
    if not callable(right):
        c = _float_operand(right)
        return lambda s: op(left(s), c)
    return lambda s: op(left(s), right(s))


def _float_cmp(formula):
    """A comparison on a state of floats.  A float compares exactly with a
    Fraction, so a constant side enters as float(c) only where that is c."""
    sides = []
    for term in (formula.left, formula.right):
        side = _float_term(term)
        if not callable(side):
            c = _float_operand(side)
            value = c if c == side else side
            side = lambda s, value=value: value
        sides.append(side)
    left, right = sides
    holds = _CMP[formula.op]
    return lambda s: holds(left(s), right(s))


def _compile_numeric(ode: ODE):
    """evolve(state, duration) of `ode` by RK4 in floats with step ODE_STEP:
    Final(state at duration) when the domain holds at the start and at
    GRID_POINTS + 1 evenly spaced times up to duration, else Aborted at the
    first time it fails.  Only the evolved variables are integrated, and a
    state that lacks one, once past the start check, is an
    UndeclaredVariable, whatever the duration.  A constant rate c shifts
    the stages by half or all of the step times float(c), and its update
    is a sixth of the step times float(6 c), as in Fraction arithmetic
    with a float.  A stage writes only the evolved
    variables some rate reads; the others keep their start value in the
    stage state, where nothing reads it."""
    names, rates, constants = [], [], []
    for name, rhs in ode.equations:
        rate = _float_term(rhs)
        if callable(rate):
            names.append(name)
            rates.append(rate)
        else:  # k1 + 2 k2 + 2 k3 + k4 = 6 c, summed exactly
            constants.append((name, _float_operand(rate),
                              _float_operand(6 * rate)))
    read = set().union(*(free_variables(rhs) for _, rhs in ode.equations))
    staged = [(i, name) for i, name in enumerate(names) if name in read]
    staged_constants = [(name, c) for name, c, _ in constants if name in read]
    evolved = names + [name for name, _, _ in constants]
    domain = _fol_closure(ode.domain, _float_cmp)
    samples = GRID_POINTS + 1

    def stage(current, work, k, factor):
        """The rates at the stage current + factor * k, whose values
        `work` takes for the variables a rate reads."""
        for j, name in staged:
            work[name] = current[name] + factor * k[j]
        for name, c in staged_constants:
            work[name] = current[name] + factor * c
        return [rate(work) for rate in rates]

    def evolve(state, duration):
        duration = (duration[0] / duration[1] if type(duration) is tuple
                    else float(duration))
        current = {k: v[0] / v[1] if type(v) is tuple else float(v)
                   for k, v in state.items()}
        if not domain(current):
            return Aborted(ode.domain, current)
        for name in evolved:
            if name not in current:
                raise UndeclaredVariable(name)
        work = dict(current)  # the state at each RK4 stage
        t = 0.0
        for i in range(1, samples + 1):
            target = duration * i / samples
            while t < target - 1e-15:
                h = min(ODE_STEP, target - t)
                half = h / 2
                k1 = [rate(current) for rate in rates]
                k2 = stage(current, work, k1, half)
                k3 = stage(current, work, k2, half)
                k4 = stage(current, work, k3, h)
                sixth = h / 6
                for name, a, b, c, d in zip(names, k1, k2, k3, k4):
                    value = current[name] + sixth * (a + 2 * b + 2 * c + d)
                    if not isfinite(value):
                        raise NumericBlowup(name)
                    current[name] = value
                for name, _, six in constants:
                    value = current[name] + sixth * six
                    if not isfinite(value):
                        raise NumericBlowup(name)
                    current[name] = value
                t += h
            if not domain(current):
                return Aborted(ode.domain, current)
        return Final(current)
    return evolve


def _earliest(bounds):
    """The least of int pairs with positive denominators, skipping None;
    None when there is none."""
    best = None
    for bound in bounds:
        if bound is not None and (
                best is None or bound[0] * best[1] < best[0] * bound[1]):
            best = bound
    return best


def _affine_conjunct_bound(op, n0, d0, sn, sd):
    """Latest time t >= 0 at which `n0/d0 + (sn/sd) * t op 0` still holds,
    as an int pair, or None if unbounded."""
    if op in ("<=", "<"):
        n0, sn = -n0, -sn  # sign-normalized: need n0/d0 + slope * t >= 0
    elif op == "=":
        return None if sn == 0 else (0, 1)
    elif op == "!=":
        if sn == 0:
            return None
        num, den = -n0 * sd, d0 * sn  # the crossing -d0 / slope
        if den < 0:
            num, den = -num, -den
        return (num, den) if num > 0 else None
    if sn >= 0:
        return None
    return n0 * sd, -sn * d0


# ---------------------------------------------------------------------------
# Program execution

def run(state: State, program, script):
    """Deterministic replay of a program under a choice script.

    `script` is a list of decisions or a ScriptCursor.  Returns (Outcome,
    trace): Final over the end state, or the Aborted of the first failed
    test or evolution domain.  The trace is a list of TraceStep with
    nondecreasing times, starting at the initial state.
    """
    cursor = script if isinstance(script, ScriptCursor) else ScriptCursor(script)
    clock = [Fraction(0)]
    trace = [TraceStep(clock[0], "init", dict(state))]
    outcome = _exec(dict(state), program, cursor, trace, clock)
    if type(outcome) is Aborted:
        return outcome, trace
    if not cursor.exhausted():
        raise ScriptError(
            f"surplus script decisions from position {cursor.index}")
    return Final(outcome), trace


def _exec(state, program, cursor, trace, clock):
    """The state after `program` from `state`, a dict that is never changed
    in place, or the Aborted that ends the run; each step appends its
    TraceStep to `trace` and each evolution advances `clock[0]`."""
    kind = type(program)
    if kind is Assign:
        state = dict(state)
        state[program.var] = eval_term(state, program.term)
        trace.append(TraceStep(clock[0], f"{program.var} := ...", dict(state)))
        return state
    if kind is RandomAssign:
        decision = cursor.take(RandomValue, state, program)
        state = dict(state)
        state[program.var] = decision.value
        trace.append(TraceStep(clock[0], f"{program.var} := *", dict(state)))
        return state
    if kind is Test:
        if eval_fol(state, program.condition):
            trace.append(TraceStep(clock[0], "test", dict(state)))
            return state
        return Aborted(program.condition, state)
    if kind is ODE:
        decision = cursor.take(Duration, state, program)
        outcome = evolve_plant(state, program, decision.value)
        if type(outcome) is Aborted:
            return outcome
        clock[0] = clock[0] + decision.value
        trace.append(TraceStep(clock[0], "ode", dict(outcome.state)))
        return outcome.state
    if kind is Choice:
        decision = cursor.take(Branch, state, program)
        chosen = program.left if decision.side == "left" else program.right
        return _exec(state, chosen, cursor, trace, clock)
    if kind is Seq:
        state = _exec(state, program.first, cursor, trace, clock)
        if type(state) is Aborted:
            return state
        return _exec(state, program.second, cursor, trace, clock)
    if kind is Loop:
        decision = cursor.take(LoopCount, state, program)
        for _ in range(decision.count):
            state = _exec(state, program.body, cursor, trace, clock)
            if type(state) is Aborted:
                return state
        return state
    raise TypeError(f"not a program: {program!r}")
