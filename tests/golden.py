"""Golden constructions of the bundled models' key formulas, built from
raw constructors so the tests can audit what the data files say."""

from fractions import Fraction

from hpcheck.syntax import (
    Add, And, Cmp, Div, Implies, Mul, Neg, Not, Num, Pow, RandomAssign, Seq,
    Sub, Test, Var, desugar_if,
)


def _n(value) -> Num:
    return Num(Fraction(value))


_X, _V, _XC, _A = Var("x"), Var("v"), Var("xc"), Var("a")
_T, _ANMAX, _ANMIN, _ASMIN = Var("T"), Var("anmax"), Var("anmin"), Var("asmin")


def env_test():
    # xc - x >= v^2 / (2 * anmin)
    return Cmp(">=", Sub(_XC, _X), Div(Pow(_V, 2), Mul(_n(2), _ANMIN)))


def aux_bounds():
    # -anmin <= a <= anmax, as two conjuncts
    return And(Cmp("<=", Neg(_ANMIN), _A), Cmp("<=", _A, _ANMAX))


def aux_requirement():
    # the braking-distance promise added in m3
    v_plus_at = Add(_V, Mul(_A, _T))
    travel = Add(Mul(_V, _T), Div(Mul(_A, Pow(_T, 2)), _n(2)))
    brake = Div(Pow(_V, 2), Mul(_n(2), _ANMIN))
    return And(
        Implies(Cmp(">=", v_plus_at, _n(0)), Cmp("<=", travel, brake)),
        Implies(Cmp("<", v_plus_at, _n(0)), Cmp("<=", _A, Neg(_ANMIN))))


def safe_condition(lookahead: bool):
    # xc - x >= v*T + anmax*T^2/2 (+ (v + anmax*T)^2 / (2*anmin) for m4)
    rhs = Add(Mul(_V, _T), Div(Mul(_ANMAX, Pow(_T, 2)), _n(2)))
    if lookahead:
        rhs = Add(rhs, Div(Pow(Add(_V, Mul(_ANMAX, _T)), 2),
                           Mul(_n(2), _ANMIN)))
    return Cmp(">=", Sub(_XC, _X), rhs)


def override_law():
    return Cmp("=", _A, Neg(_ASMIN))


def zeta1():
    return Cmp("<=", _X, _XC)


def zeta2():
    return Cmp("<=", Pow(_V, 2), Mul(Mul(_n(2), _ANMIN), Sub(_XC, _X)))


def zeta_iter():
    v_plus_at = Add(_V, Mul(_A, _T))
    gap = Sub(Sub(Sub(_XC, _X), Mul(_V, _T)), Div(Mul(_A, Pow(_T, 2)), _n(2)))
    return And(
        Implies(Cmp(">=", v_plus_at, _n(0)),
                Cmp("<=", Pow(v_plus_at, 2), Mul(Mul(_n(2), _ANMIN), gap))),
        Implies(Cmp("<", v_plus_at, _n(0)),
                Cmp("<=", Pow(_V, 2), Mul(Mul(_n(2), _ANMIN), Sub(_XC, _X)))))


def golden_ctrl(lookahead: bool):
    body = Seq(RandomAssign("a"), Test(override_law()))
    return desugar_if(Not(safe_condition(lookahead)), body)


SAMPLE_CONSTANTS = {
    "T": Fraction(1),
    "anmax": Fraction(2),
    "anmin": Fraction(3),
    "asmin": Fraction(4),
}
