"""Shared helpers for property tests: a seeded AST generator whose output
round-trips through the pretty-printer, an independent brute-force
evaluator for small modal obligations, and the closed-form plant's
solution in plain arithmetic."""

from fractions import Fraction
from itertools import product

from hpcheck.obligations import FALSIFY_UNIVERSAL, FIND_WITNESS, Obligation
from hpcheck.semantics import eval_fol, eval_term
from hpcheck.syntax import (
    Add, And, Assign, BoolLit, Box, Choice, Cmp, Diamond, Div, Exists,
    Forall, Iff, Implies, Loop, Mul, Neg, Not, Num, ODE, Or, Pow,
    RandomAssign, Seq, Sub, Test, Var,
)

VAR_POOL = ("x", "v", "a", "xc", "w", "t1")

# Comparisons used inside program text: `<` and `>` would collide with the
# modality delimiters when printed.
PROGRAM_CMP_OPS = ("<=", ">=", "=", "!=")
ALL_CMP_OPS = ("<=", "<", ">=", ">", "=", "!=")


def random_num(rng) -> Num:
    num = rng.randint(-9, 9)
    den = rng.choice((1, 1, 1, 2, 3, 5))
    return Num(Fraction(num, den))


def random_term(rng, depth: int):
    if depth <= 0 or rng.random() < 0.35:
        if rng.random() < 0.6:
            return Var(rng.choice(VAR_POOL))
        return random_num(rng)
    kind = rng.choice(("add", "sub", "mul", "div", "neg", "pow"))
    if kind == "add":
        return Add(random_term(rng, depth - 1), random_term(rng, depth - 1))
    if kind == "sub":
        return Sub(random_term(rng, depth - 1), random_term(rng, depth - 1))
    if kind == "mul":
        return Mul(random_term(rng, depth - 1), random_term(rng, depth - 1))
    if kind == "div":
        # a literal-over-literal quotient would be folded when re-parsed
        return Div(random_term(rng, depth - 1), Var(rng.choice(VAR_POOL)))
    if kind == "neg":
        return Neg(random_term(rng, depth - 1))
    return Pow(random_term(rng, depth - 1), rng.randint(0, 3))


def random_cmp(rng, depth: int, ops) -> Cmp:
    return Cmp(rng.choice(ops), random_term(rng, depth), random_term(rng, depth))


def random_formula(rng, depth: int, in_program: bool = False):
    ops = PROGRAM_CMP_OPS if in_program else ALL_CMP_OPS
    if depth <= 0 or rng.random() < 0.3:
        if rng.random() < 0.15:
            return BoolLit(rng.random() < 0.5)
        return random_cmp(rng, max(depth - 1, 0), ops)
    choices = ["not", "and", "or", "implies", "iff", "forall", "exists"]
    if not in_program:
        choices.extend(["box", "diamond"])
    kind = rng.choice(choices)
    if kind == "not":
        return Not(random_formula(rng, depth - 1, in_program))
    if kind in ("and", "or", "implies", "iff"):
        ctor = {"and": And, "or": Or, "implies": Implies, "iff": Iff}[kind]
        return ctor(random_formula(rng, depth - 1, in_program),
                    random_formula(rng, depth - 1, in_program))
    if kind in ("forall", "exists"):
        ctor = Forall if kind == "forall" else Exists
        return ctor(rng.choice(VAR_POOL),
                    random_formula(rng, depth - 1, in_program))
    ctor = Box if kind == "box" else Diamond
    return ctor(random_program(rng, depth - 1),
                random_formula(rng, depth - 1, in_program=False))


def is_quantifier_free(formula) -> bool:
    if isinstance(formula, (Forall, Exists)):
        return False
    if isinstance(formula, Not):
        return is_quantifier_free(formula.inner)
    if isinstance(formula, (And, Or, Implies, Iff)):
        return is_quantifier_free(formula.left) and is_quantifier_free(formula.right)
    if isinstance(formula, (Box, Diamond)):
        return is_quantifier_free(formula.post)
    return True


def is_fol(formula) -> bool:
    """No modalities anywhere."""
    if isinstance(formula, (Box, Diamond)):
        return False
    if isinstance(formula, Not):
        return is_fol(formula.inner)
    if isinstance(formula, (And, Or, Implies, Iff)):
        return is_fol(formula.left) and is_fol(formula.right)
    if isinstance(formula, (Forall, Exists)):
        return is_fol(formula.body)
    return True


def random_program(rng, depth: int):
    if depth <= 0 or rng.random() < 0.3:
        kind = rng.choice(("assign", "random", "test"))
    else:
        kind = rng.choice(("assign", "random", "test", "ode", "choice",
                           "seq", "loop"))
    if kind == "assign":
        return Assign(rng.choice(VAR_POOL), random_term(rng, max(depth - 1, 0)))
    if kind == "random":
        return RandomAssign(rng.choice(VAR_POOL))
    if kind == "test":
        return Test(random_formula(rng, max(depth - 1, 0), in_program=True))
    if kind == "ode":
        return random_ode(rng, depth)
    if kind == "choice":
        return Choice(random_program(rng, depth - 1),
                      random_program(rng, depth - 1))
    if kind == "seq":
        return Seq(random_program(rng, depth - 1),
                   random_program(rng, depth - 1))
    return Loop(random_program(rng, depth - 1))


def random_ode(rng, depth: int) -> ODE:
    names = rng.sample(VAR_POOL, rng.randint(1, 2))
    eqs = tuple((n, random_term(rng, max(depth - 2, 0))) for n in names)
    if rng.random() < 0.4:
        domain = BoolLit(True)
    else:
        domain = random_cmp(rng, max(depth - 2, 0), PROGRAM_CMP_OPS)
    return ODE(eqs, domain)


# ---------------------------------------------------------------------------
# Small finite obligations and an independent brute-force decision procedure.

ORACLE_VARS = ("x", "y")


def _finite_term(rng, depth: int):
    if depth <= 0 or rng.random() < 0.5:
        if rng.random() < 0.6:
            return Var(rng.choice(ORACLE_VARS))
        return Num(Fraction(rng.randint(-3, 3)))
    ctor = rng.choice((Add, Sub, Mul))
    return ctor(_finite_term(rng, depth - 1), _finite_term(rng, depth - 1))


def _finite_fol(rng, depth: int):
    if depth <= 0 or rng.random() < 0.5:
        return Cmp(rng.choice(PROGRAM_CMP_OPS), _finite_term(rng, 1),
                   _finite_term(rng, 1))
    ctor = rng.choice((And, Or, Implies, Not))
    if ctor is Not:
        return Not(_finite_fol(rng, depth - 1))
    return ctor(_finite_fol(rng, depth - 1), _finite_fol(rng, depth - 1))


def _finite_program(rng, depth: int):
    """Programs with finitely many runs: no loops, no ODEs, no random
    assignments."""
    if depth <= 0 or rng.random() < 0.4:
        if rng.random() < 0.5:
            return Assign(rng.choice(ORACLE_VARS), _finite_term(rng, 1))
        return Test(_finite_fol(rng, 1))
    ctor = rng.choice((Choice, Seq))
    return ctor(_finite_program(rng, depth - 1), _finite_program(rng, depth - 1))


def random_finite_obligation(rng, values) -> Obligation:
    """A closed obligation over a finite grid, decidable by enumeration."""
    side = _finite_fol(rng, 2)
    prog = _finite_program(rng, 3)
    post = _finite_fol(rng, 2)
    if rng.random() < 0.5:
        kind = FALSIFY_UNIVERSAL
        matrix = Implies(side, Box(prog, post))
        ctor = Forall
    else:
        kind = FIND_WITNESS
        matrix = And(side, Diamond(prog, post))
        ctor = Exists
    formula = matrix
    for v in reversed(ORACLE_VARS):
        formula = ctor(v, formula)
    box = {v: (min(values), max(values)) for v in ORACLE_VARS}
    return Obligation(f"oracle_{rng.randrange(1 << 30)}", formula, kind, box, {})


def enumerate_final_states(state: dict, program) -> list:
    """All non-aborting final states of a finite program."""
    if isinstance(program, Assign):
        out = dict(state)
        out[program.var] = eval_term(state, program.term)
        return [out]
    if isinstance(program, Test):
        return [state] if eval_fol(state, program.condition) else []
    if isinstance(program, Choice):
        return (enumerate_final_states(state, program.left)
                + enumerate_final_states(state, program.right))
    if isinstance(program, Seq):
        out = []
        for mid in enumerate_final_states(state, program.first):
            out.extend(enumerate_final_states(mid, program.second))
        return out
    raise TypeError(f"not a finite program: {program!r}")


def _modal_truth(state: dict, formula) -> bool:
    if isinstance(formula, Box):
        return all(_modal_truth(s, formula.post)
                   for s in enumerate_final_states(state, formula.program))
    if isinstance(formula, Diamond):
        return any(_modal_truth(s, formula.post)
                   for s in enumerate_final_states(state, formula.program))
    if isinstance(formula, Not):
        return not _modal_truth(state, formula.inner)
    if isinstance(formula, And):
        return _modal_truth(state, formula.left) and _modal_truth(state, formula.right)
    if isinstance(formula, Or):
        return _modal_truth(state, formula.left) or _modal_truth(state, formula.right)
    if isinstance(formula, Implies):
        return (not _modal_truth(state, formula.left)) \
            or _modal_truth(state, formula.right)
    return eval_fol(state, formula)


def brute_force_decide(obligation: Obligation, grid: dict) -> bool:
    """True iff a falsifying assignment / witness exists on the grid."""
    names = list(grid)
    target = obligation.kind == FIND_WITNESS
    _, matrix = obligation.split()
    for combo in product(*(grid[n] for n in names)):
        state = dict(zip(names, combo))
        if _modal_truth(state, matrix) == target:
            return True
    return False


def closed_form_state(state: dict, template, t) -> dict:
    """The state after time t of the double integrator with clock, whose
    (pos, vel, clock, accel) closed_form_template gives, in the arithmetic
    of the state's values: p + v t + a t^2 / 2, v + a t and c + t."""
    pos, vel, clock, accel = template
    p, v, c, a = state[pos], state[vel], state[clock], eval_term(state, accel)
    out = dict(state)
    out[pos] = p + v * t + a * t * t / 2
    out[vel] = v + a * t
    out[clock] = c + t
    return out
