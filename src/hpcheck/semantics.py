"""Deterministic execution of hybrid programs under resolved nondeterminism.

All nondeterminism (random assignments, choices, ODE durations, loop
counts) is externalized into a ChoiceScript consumed left to right, so a
run is a pure function of (state, program, script).  States map variable
names to exact rationals where possible; floats appear only after a
plant outside the closed-form template, which the RK4 kernel integrates.
The search's states hold each exact rational as an int pair instead,
which a Plant and the exact kernel below take as they are.  A closed-form
plant is one compiled kernel, which the search runs on pairs and
`evolve`/`duration_bound` run on any state, reading each value as its
exact ratio; an evolved float comes back as the float nearest its exact
value.
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


def eval_fol(state: State, formula) -> bool:
    """Truth of a quantifier-free, modality-free formula in a state."""
    kind = type(formula)
    if kind is Cmp:
        return _CMP[formula.op](eval_term(state, formula.left),
                                eval_term(state, formula.right))
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
# inside a formula, so no Fraction is built.  The kernel reads exact values
# only: an int pair in the state (the search's states hold them) as it is,
# and a Fraction, an int or a float as its exact ratio; a missing variable
# raises UndeclaredVariable.  Float arithmetic lives only in the RK4 kernel
# below and in eval_term/eval_fol, which a caller that wants it calls.
# The compiler folds every subterm built from literals alone into one
# reduced pair, and, given the values of constants the state never
# changes, those constants and every subterm built from them too; a node
# captures a folded operand instead of calling it (partial evaluation).  In
# pair mode the caller vouches that every state holds a pair for every
# variable: a variable is then operator.itemgetter, a C call that checks
# nothing (_reader).  The block kernel below takes the same folding to
# columns of candidates.

def exact_view(state: State) -> State:
    """`state` with each int pair read as its Fraction."""
    return {k: Fraction(*v) if type(v) is tuple else v
            for k, v in state.items()}


def _reduced(n, d):
    g = gcd(n, d)
    return (n // g, d // g) if g > 1 else (n, d)


def _ratio_term(term, constants=None, pairs=False):
    """Closure state -> (numerator, denominator > 0) of `term`, each value
    read as _reader(pairs) reads it.  `constants` maps the names whose
    values are fixed to their int pairs; given it, the closure reads none
    of them from the state."""
    value = _ratio(term, _reader(pairs), constants)
    return value if callable(value) else lambda s: value


def _reader(pairs):
    """How the exact kernel reads a variable.  Without `pairs`, _read: any
    value from a dict state, checked.  With `pairs` the state holds an int
    pair for every variable read, returned by itemgetter with no check."""
    return operator.itemgetter if pairs else _read


def _read(name):
    """Closure state -> the variable's value as an int pair: a pair as it
    is, a Fraction, an int or a float as its exact ratio."""
    def var(s):
        try:
            value = s[name]
        except KeyError:
            raise UndeclaredVariable(name) from None
        return value if type(value) is tuple else value.as_integer_ratio()
    return var


def _ratio(term, read, constants, nodes=None):
    """The reduced pair of a subterm folded at compile time, else the node
    that `nodes` (by default _RATIO_NODES: a closure as `_ratio_term`
    gives) builds on its operands, with variables as `read` makes them (see
    _read).  Literals always fold; constants only when given."""
    nodes = nodes or _RATIO_NODES
    if isinstance(term, Var):
        if constants is not None and term.name in constants:
            return constants[term.name]
        return read(term.name)
    if isinstance(term, Num):
        return term.value.as_integer_ratio()
    if isinstance(term, Neg):
        inner = _ratio(term.inner, read, constants, nodes)
        if not callable(inner):
            return -inner[0], inner[1]
        return nodes[Mul](inner, (-1, 1))
    if isinstance(term, Pow):
        base, k = _ratio(term.base, read, constants, nodes), term.exp
        if not callable(base):
            return base[0] ** k, base[1] ** k
        return nodes[Pow](base, k)
    if isinstance(term, Div):
        left = _ratio(term.num, read, constants, nodes)
        right = _ratio(term.den, read, constants, nodes)
    else:
        left = _ratio(term.left, read, constants, nodes)
        right = _ratio(term.right, read, constants, nodes)
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
                Div: _ratio_div, Pow: _ratio_pow}


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
    raise TypeError(formula)


def _ratio_cmp(formula, read, constants):
    left = _ratio(formula.left, read, constants)
    right = _ratio(formula.right, read, constants)
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


def compile_fol(formula, constants=None, pairs=False):
    """state -> bool, equal to eval_fol(exact_view(state), formula) on a
    quantifier-free `formula`, evaluated by the exact kernel, which folds
    `constants` and reads a state as _reader(pairs) says (see
    _ratio_term).  A ZeroDivisionError is raised exactly when eval_fol
    raises one."""
    read = _reader(pairs)
    return _fol_closure(formula, lambda c: _ratio_cmp(c, read, constants))


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
    return _ratio(term, lambda name: lambda b, n: b[name], constants,
                  _BLOCK_NODES)


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
                Pow: _block_pow}


# Polynomial form.  A term is read as a polynomial in chosen variables whose
# coefficients are terms over the others; a coefficient of two literals is
# folded to one.  The closed-form plant and the search's pins read affine
# coefficients off this form and compile them with the exact kernel.

_TERM_OPS = {Add: operator.add, Sub: operator.sub, Mul: operator.mul,
             Div: operator.truediv}
_ZERO, _ONE = Num(Fraction(0)), Num(Fraction(1))


def _fold(node, left, right):
    """node(left, right), or its Num when both are literals."""
    if type(left) is Num and type(right) is Num:
        return Num(_TERM_OPS[node](left.value, right.value))
    return node(left, right)


def _neg(term):
    if type(term) is not Num:
        return Neg(term)
    return Num(-term.value) if term.value else term


def _times(left, right):
    """The product of two polynomial forms."""
    out = {}
    for m1, c1 in left.items():
        for m2, c2 in right.items():
            m, c = tuple(sorted(m1 + m2)), _fold(Mul, c1, c2)
            out[m] = _fold(Add, out[m], c) if m in out else c
    return out


def polynomial(term, variables):
    """`term` as a dict from monomial, the sorted tuple of its factors drawn
    from `variables`, to coefficient, a term over the other variables.
    Coefficients that cancel to zero are kept, so the longest monomial is
    the syntactic degree.  None when a divisor holds one of `variables`."""
    if isinstance(term, Var):
        return {(term.name,): _ONE} if term.name in variables else {(): term}
    if isinstance(term, Num):
        return {(): term}
    if isinstance(term, Neg):
        inner = polynomial(term.inner, variables)
        return None if inner is None else {m: _neg(c) for m, c in inner.items()}
    if isinstance(term, Pow):
        base = polynomial(term.base, variables)
        if base is None:
            return None
        out = base if term.exp else {(): _ONE}
        for _ in range(term.exp - 1):
            out = _times(out, base)
        return out
    if isinstance(term, Div):
        num = polynomial(term.num, variables)
        if num is None or not free_variables(term.den).isdisjoint(variables):
            return None
        return {m: _fold(Div, c, term.den) for m, c in num.items()}
    return _combine(type(term), term.left, term.right, variables)


def _combine(node, left, right, variables):
    """The form of node(left, right) for node Add, Sub or Mul, or None."""
    left = polynomial(left, variables)
    right = polynomial(right, variables)
    if left is None or right is None:
        return None
    if node is Mul:
        return _times(left, right)
    for m, c in right.items():  # left is a dict of this call's own
        if m in left:
            left[m] = _fold(node, left[m], c)
        else:
            left[m] = c if node is Add else _neg(c)
    return left


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
        try:
            if keyword == "loop":
                decisions.append(LoopCount(int(arg)))
            elif keyword == "value":
                decisions.append(RandomValue(Fraction(arg)))
            elif keyword == "branch":
                decisions.append(Branch(arg))
            elif keyword == "duration":
                decisions.append(Duration(Fraction(arg)))
            else:
                raise ScriptError(f"line {lineno}: unknown keyword {keyword!r}")
        except (ValueError, ZeroDivisionError) as exc:
            raise ScriptError(f"line {lineno}: {exc}") from None
    return decisions


def format_script(decisions) -> str:
    lines = []
    for d in decisions:
        if isinstance(d, LoopCount):
            lines.append(f"loop {d.count}")
        elif isinstance(d, RandomValue):
            lines.append(f"value {d.value}")
        elif isinstance(d, Branch):
            lines.append(f"branch {d.side}")
        elif isinstance(d, Duration):
            lines.append(f"duration {d.value}")
        else:
            raise TypeError(d)
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


@dataclass(frozen=True)
class TraceStep:
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
    pos = vel = clock = accel = None
    for v, rhs in ode.equations:
        if rhs == _ONE:
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
    for v, rhs in ode.equations:
        if v == vel:
            if isinstance(rhs, Var) and rhs.name not in evolved:
                accel = rhs
            elif isinstance(rhs, Num):
                accel = rhs
            else:
                return None
    if accel is None:
        return None
    return pos, vel, clock, accel


def _solution_at(p, v, c, a, t):
    """Reduced int pairs of position, velocity and clock after time t from
    p, v and c under acceleration a, all int pairs: the polynomial on ints,
    one gcd per variable, with pos = p + t * h and h = v + a * t / 2."""
    (pn, pd), (vn, vd), (cn, cd), (an, ad), (tn, td) = p, v, c, a, t
    hn, hd = 2 * vn * ad * td + an * tn * vd, 2 * vd * ad * td
    return (_reduced(pn * td * hd + tn * hn * pd, pd * td * hd),
            _reduced(vn * ad * td + an * tn * vd, vd * ad * td),
            _reduced(cn * td + tn * cd, cd * td))


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
    domain conjuncts affine in velocity and clock, as their polynomial forms
    show, uses the exact polynomial solution, checks the domain at both
    endpoints and at any crossing of a `!=` conjunct between them, and gives
    an exact maximal duration.  Any other ODE is integrated in floats by
    fixed-step RK4 with step 1/64 (ODE_STEP), checks the domain at the start
    and at 65 evenly spaced times up to the duration (GRID_POINTS + 1) and
    bisects for its maximal duration; its right-hand sides and domain are
    compiled into closures once, on the first evolution.

    The template is compiled by the exact kernel once per set of fixed
    constants and reader (_kernel).  `evolve` and `duration_bound` take any
    state and run that kernel with the checked reader, _read; a search
    whose states hold an int pair for every variable asks for
    `pair_kernel(constants)` instead: the same kernel's bound and step,
    which read pairs by itemgetter, fold the constants and check no more
    than the bound leaves open."""

    def __init__(self, ode: ODE):
        self.ode = ode
        self.template = closed_form_template(ode)
        # the template needs each domain conjunct's left - right affine in
        # velocity and clock and free of position: (conjunct, form) pairs
        self._forms = []
        if self.template is not None:
            variables = self.template[:3]
            affine = {(), (variables[1],), (variables[2],)}
            for c in conjuncts(ode.domain):
                if isinstance(c, BoolLit):
                    continue
                form = (_combine(Sub, c.left, c.right, variables)
                        if isinstance(c, Cmp) else None)
                if form is None or not form.keys() <= affine:
                    self.template, self._forms = None, []
                    break
                self._forms.append((c, form))
        # along the solution an affine `!=` conjunct fails at one instant,
        # which the endpoints miss; every other conjunct holds on an interval
        self._punctured = any(c.op == "!=" for c, _ in self._forms)
        self._numeric = None  # compiled on first use
        self._kernels = {}  # _kernel's, by sorted constants and reader

    def evolve(self, state: State, duration):
        """Final(state at duration) when the evolution domain holds
        throughout [0, duration], else Aborted.  On a state of int pairs
        `duration` is a pair too, and RK4 reads each pair n, d as the float
        n / d.  The template judges the exact solution and gives each
        evolved variable back in the kind of its start value (_like)."""
        if (duration[0] if type(duration) is tuple else duration) < 0:
            raise ValueError("negative duration")
        if self.template is None:
            if self._numeric is None:
                self._numeric = _compile_numeric(self.ode)
            return self._numeric(state, duration)
        domain, earliest, solve, _, _ = self._kernel(None, False)
        if not domain(state):
            return Aborted(self.ode.domain, state)
        t = duration if type(duration) is tuple else duration.as_integer_ratio()
        end = solve(state, t)
        holds = domain(end)
        if holds and self._punctured:
            # the end holds, so a bound before it is a `!=` crossing
            first = earliest(state)
            if first is not None and first[0] * t[1] < t[0] * first[1]:
                end, holds = solve(state, first), False
        for name in self.template[:3]:
            end[name] = _like(state[name], end[name])
        return Final(end) if holds else Aborted(self.ode.domain, end)

    def duration_bound(self, state: State):
        """Supremum of durations for which the domain holds throughout, up
        to DEFAULT_HORIZON: a reduced int pair on the template path, a float
        from bisection on the grid-checked predicate otherwise, whose start
        eval_fol judges."""
        if self.template is None:
            if not eval_fol(exact_view(state), self.ode.domain):
                return 0, 1
            return self._bisect(state)
        return self._kernel(None, False)[3](state) or (0, 1)

    def pair_kernel(self, constants=None):
        """(bound, step) of the template on dict states that hold an int
        pair for every variable, with `constants` folded, compiled once per
        set of constants: _kernel's with the itemgetter reader."""
        return self._kernel(constants, True)[3:]

    def _kernel(self, constants, pairs):
        """(domain, earliest, solve, bound, step) of the template, compiled
        once per (constants, pairs) by the exact kernel, which folds
        `constants` and reads a state as _reader(pairs) says.  domain(state)
        is the domain's truth.  earliest(state) is the first time, an int
        pair, at which a conjunct's left - right, moving at the rate
        c_vel * accel + c_clock read off its form, reaches its bound, or
        None.  solve(state, duration) is the state with position, velocity
        and clock at the duration as reduced int pairs.  bound(state) is
        duration_bound's pair, or None where the start fails.  step(state,
        duration) is solve's state, or None where evolve aborts, for a
        state whose start holds and a duration up to its bound: every
        conjunct then holds throughout but a strict one or a `!=`, which
        can fail at the bound, so the end is checked only when the domain
        has one of these."""
        key = (tuple(sorted(constants.items())) if constants else (), pairs)
        if key in self._kernels:
            return self._kernels[key]
        pos, vel, clock, accel = self.template
        domain = compile_fol(self.ode.domain, constants, pairs)
        lines = []
        for c, form in self._forms:
            rate = _fold(Add, _fold(Mul, form.get((vel,), _ZERO), accel),
                         form.get((clock,), _ZERO))
            lines.append((c.op,
                          _ratio_term(Sub(c.left, c.right), constants, pairs),
                          _ratio_term(rate, constants, pairs)))
        check_end = any(op not in ("<=", ">=", "=") for op, _, _ in lines)
        horizon = DEFAULT_HORIZON.as_integer_ratio()
        acceleration = _ratio_term(accel, constants, pairs)
        pos_of, vel_of, clock_of = map(_reader(pairs), (pos, vel, clock))

        def earliest(state):
            return _earliest(_affine_conjunct_bound(op, *offset(state),
                                                    *rate(state))
                             for op, offset, rate in lines)

        def solve(state, duration):
            end = dict(state)
            end[pos], end[vel], end[clock] = _solution_at(
                pos_of(state), vel_of(state), clock_of(state),
                acceleration(state), duration)
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


@lru_cache(maxsize=256)
def plant_of(ode: ODE) -> Plant:
    """The Plant of `ode`, one per distinct ODE value: the only place a
    Plant is built."""
    return Plant(ode)


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
    trace).  The trace is a list of TraceStep with nondecreasing times,
    starting at the initial state.
    """
    cursor = script if isinstance(script, ScriptCursor) else ScriptCursor(script)
    clock = [Fraction(0)]
    trace = [TraceStep(clock[0], "init", dict(state))]
    outcome = _exec(dict(state), program, cursor, trace, clock)
    if isinstance(outcome, Final) and not cursor.exhausted():
        raise ScriptError(
            f"surplus script decisions from position {cursor.index}")
    return outcome, trace


def _record(trace, clock, label, state):
    trace.append(TraceStep(clock[0], label, dict(state)))


def _exec(state, program, cursor, trace, clock):
    if isinstance(program, Assign):
        state = dict(state)
        state[program.var] = eval_term(state, program.term)
        _record(trace, clock, f"{program.var} := ...", state)
        return Final(state)
    if isinstance(program, RandomAssign):
        decision = cursor.take(RandomValue, state, program)
        state = dict(state)
        state[program.var] = decision.value
        _record(trace, clock, f"{program.var} := *", state)
        return Final(state)
    if isinstance(program, Test):
        if eval_fol(state, program.condition):
            _record(trace, clock, "test", state)
            return Final(state)
        return Aborted(program.condition, state)
    if isinstance(program, ODE):
        decision = cursor.take(Duration, state, program)
        outcome = evolve_plant(state, program, decision.value)
        if isinstance(outcome, Final):
            clock[0] = clock[0] + decision.value
            _record(trace, clock, "ode", outcome.state)
        return outcome
    if isinstance(program, Choice):
        decision = cursor.take(Branch, state, program)
        chosen = program.left if decision.side == "left" else program.right
        return _exec(state, chosen, cursor, trace, clock)
    if isinstance(program, Seq):
        outcome = _exec(state, program.first, cursor, trace, clock)
        if isinstance(outcome, Aborted):
            return outcome
        return _exec(outcome.state, program.second, cursor, trace, clock)
    if isinstance(program, Loop):
        decision = cursor.take(LoopCount, state, program)
        for _ in range(decision.count):
            outcome = _exec(state, program.body, cursor, trace, clock)
            if isinstance(outcome, Aborted):
                return outcome
            state = outcome.state
        return Final(state)
    raise TypeError(f"not a program: {program!r}")
