import random
from fractions import Fraction

import pytest

from gen import (
    ORACLE_VARS, VAR_POOL, brute_force_decide, is_fol, is_quantifier_free,
    random_finite_obligation, random_formula, random_term,
)
from hpcheck.checker import (
    FALSIFIED, NO_WITNESS_FOUND, NOT_FALSIFIED, WITNESS_FOUND, CheckError,
    SearchConfig, UnsupportedObligation, certify, check, compile_fol,
    compile_term, derive_controller_witness, obligations_for,
    violation_margin,
)
from hpcheck.models import builtin
from hpcheck.obligations import (
    FALSIFY_UNIVERSAL, FIND_WITNESS, Obligation, psi_obligation,
)
from hpcheck.parser import parse_formula, parse_term
from hpcheck.semantics import eval_fol, eval_term
from hpcheck.syntax import Exists, Forall


def F(numerator, denominator=1):
    return Fraction(numerator, denominator)


def close(text, kind, box):
    """Quantify every box variable over the parsed matrix, in box order."""
    formula = parse_formula(text)
    ctor = Forall if kind == FALSIFY_UNIVERSAL else Exists
    for var in reversed(list(box)):
        formula = ctor(var, formula)
    return Obligation("adhoc", formula, kind, box, {})


# ---------------------------------------------------------------------------
# margins and compiled evaluation

def test_violation_margin_orientation():
    state = {"x": F(3)}
    assert violation_margin(state, parse_formula("x >= 1")) == 2.0
    assert violation_margin(state, parse_formula("x <= 1")) == -2.0
    assert violation_margin(state, parse_formula("!(x >= 1)")) == -2.0
    assert violation_margin(state, parse_formula("x <= 1 | x >= 2")) == 1.0
    assert violation_margin(state, parse_formula("x <= 1 & x >= 2")) == -2.0


def test_violation_margin_agrees_with_truth_sign():
    rng = random.Random(5)
    checked = 0
    while checked < 300:
        formula = random_formula(rng, 3, in_program=True)
        if not is_quantifier_free(formula):
            continue
        state = {v: F(rng.randint(-40, 40), rng.choice((1, 2, 4)))
                 for v in ("x", "v", "a", "xc", "w", "t1")}
        try:
            truth = eval_fol(state, formula)
            margin = violation_margin(state, formula)
        except ZeroDivisionError:
            continue
        checked += 1
        if margin > 0:
            assert truth
        elif margin < 0:
            assert not truth


def test_compile_fol_matches_interpreter():
    rng = random.Random(6)
    checked = 0
    while checked < 300:
        formula = random_formula(rng, 4, in_program=True)
        if not is_quantifier_free(formula):
            continue
        state = {v: F(rng.randint(-20, 20), rng.choice((1, 3)))
                 for v in ("x", "v", "a", "xc", "w", "t1")}
        try:
            expected = eval_fol(state, formula)
        except ZeroDivisionError:
            with pytest.raises(ZeroDivisionError):
                compile_fol(formula)(state)
            continue
        checked += 1
        assert compile_fol(formula)(state) == expected


def _mixed_state(rng, floats=False):
    """Values with denominators 1, 3 and 2^16 * k, negative values and
    zeros, some held as Python ints; with `floats`, some held as floats."""
    state = {}
    for var in VAR_POOL:
        shape = rng.randrange(5)
        if shape == 0:
            value = rng.randint(-6, 6)  # a Python int
        elif shape == 1:
            value = F(rng.randint(-20, 20), 3)
        elif shape == 2:
            value = F(0)
        else:
            value = F(rng.randint(-1 << 18, 1 << 18),
                      (1 << 16) * rng.choice((1, 3, 5)))
        if floats and rng.random() < 0.4:
            value = float(value)
        state[var] = value
    return state


def _outcome(fn, *args):
    """The value, or ZeroDivisionError and its message."""
    try:
        return fn(*args)
    except ZeroDivisionError as exc:
        return ZeroDivisionError, str(exc)


def test_compile_fol_parity_with_eval_fol():
    rng = random.Random(41)
    formulas = raised = fell_back = 0
    while formulas < 400:
        formula = random_formula(rng, 4)
        if not (is_fol(formula) and is_quantifier_free(formula)):
            continue
        formulas += 1
        compiled = compile_fol(formula)
        for floats in (False, False, True):
            state = _mixed_state(rng, floats)
            expected = _outcome(eval_fol, state, formula)
            assert _outcome(compiled, state) == expected, (formula, state)
            raised += not floats and isinstance(expected, tuple)
            fell_back += floats and any(type(v) is float
                                        for v in state.values())
    assert raised > 30 and fell_back > 300


def test_compile_term_parity_with_eval_term():
    rng = random.Random(42)
    exact = raised = 0
    for _ in range(600):
        term = random_term(rng, 4)
        compiled = compile_term(term)
        floats = rng.random() < 0.3
        state = _mixed_state(rng, floats)
        expected = _outcome(eval_term, state, term)
        got = _outcome(compiled, state)
        assert got == expected, (term, state)
        if isinstance(expected, tuple):
            raised += 1
        elif not any(type(v) is float for v in state.values()):
            assert type(got) is Fraction
            exact += 1
    assert raised > 0 and exact > 300


# ---------------------------------------------------------------------------
# plain quantified arithmetic

def test_falsifies_simple_universal():
    ob = close("x <= 5", FALSIFY_UNIVERSAL, {"x": (F(0), F(10))})
    verdict = check(ob)
    assert verdict.status == FALSIFIED
    cex = verdict.counterexample
    assert cex is not None
    assert F(5) < cex.assignment["x"] <= F(10)
    assert not cex.numeric_only
    assert certify(cex, ob)


def test_does_not_falsify_valid_universal():
    ob = close("x^2 >= 0", FALSIFY_UNIVERSAL, {"x": (F(-1), F(1))})
    verdict = check(ob, SearchConfig(budget=2000))
    assert verdict.status == NOT_FALSIFIED
    assert verdict.counterexample is None
    assert verdict.stats.evaluations >= 2000


def test_finds_simple_witness():
    ob = close("x >= 3 & x <= 4", FIND_WITNESS, {"x": (F(0), F(10))})
    verdict = check(ob)
    assert verdict.status == WITNESS_FOUND
    assert F(3) <= verdict.counterexample.assignment["x"] <= F(4)


def test_no_witness_for_unsatisfiable():
    ob = close("x >= 3 & x <= 2", FIND_WITNESS, {"x": (F(0), F(10))})
    verdict = check(ob, SearchConfig(budget=1000))
    assert verdict.status == NO_WITNESS_FOUND


def test_refinement_reaches_thin_violation():
    # the falsifying band is far from every coarse grid point
    ob = close("!(x >= 7/64 - 1/512 & x <= 7/64 + 1/512)", FALSIFY_UNIVERSAL,
               {"x": (F(0), F(1))})
    verdict = check(ob, SearchConfig(budget=100_000))
    assert verdict.status == FALSIFIED


def test_deterministic_across_repeats():
    ob = close("x * v <= 20", FALSIFY_UNIVERSAL,
               {"x": (F(0), F(10)), "v": (F(0), F(10))})
    a = check(ob, SearchConfig(seed=3))
    b = check(ob, SearchConfig(seed=3))
    assert a.to_json() == b.to_json()


def test_seed_changes_sampling_but_not_soundness():
    ob = close("x >= 249/256 & x <= 251/256", FIND_WITNESS,
               {"x": (F(0), F(1))})
    for seed in range(3):
        verdict = check(ob, SearchConfig(seed=seed))
        assert verdict.status == WITNESS_FOUND
        assert certify(verdict.counterexample, ob)


# ---------------------------------------------------------------------------
# modal obligations

def test_falsifies_box_via_script():
    ob = close("[v := x + 1; ?v >= 0] v <= 10", FALSIFY_UNIVERSAL,
               {"x": (F(0), F(20))})
    verdict = check(ob)
    assert verdict.status == FALSIFIED
    cex = verdict.counterexample
    assert cex.assignment["x"] + 1 > 10
    assert len(cex.scripts) == 1 and cex.scripts[0] == []


def test_branch_decision_recorded():
    ob = close("[x := 1 ++ x := -1] x >= 0", FALSIFY_UNIVERSAL,
               {"x": (F(0), F(1))})
    verdict = check(ob)
    assert verdict.status == FALSIFIED
    [script] = verdict.counterexample.scripts
    assert [type(d).__name__ for d in script] == ["Branch"]
    assert script[0].side == "right"


def test_goal_directed_env_diamond():
    ob = close("x >= 0 & <v := *; ?v >= x> v = x + 1", FIND_WITNESS,
               {"x": (F(0), F(5))})
    verdict = check(ob)
    assert verdict.status == WITNESS_FOUND
    [script] = verdict.counterexample.scripts
    assert script[0].value == verdict.counterexample.assignment["x"] + 1


def test_unsupported_polarities_raise():
    with pytest.raises(UnsupportedObligation):
        check(close("[x := 1] x = 1", FIND_WITNESS, {"x": (F(0), F(1))}))
    with pytest.raises(UnsupportedObligation):
        check(close("<x := 1 ++ x := 2> x = 1", FALSIFY_UNIVERSAL,
                    {"x": (F(0), F(1))}))


def test_loop_counts_explored():
    ob = close("[{x := x + 1}*] x <= 1", FALSIFY_UNIVERSAL,
               {"x": (F(0), F(1))})
    verdict = check(ob)
    assert verdict.status == FALSIFIED
    [script] = verdict.counterexample.scripts
    assert script[0].count == 2


def test_ode_duration_choice():
    ob = close("[tau := 0; {x' = v, v' = a, tau' = 1 & v >= 0 & tau <= 1}] "
               "x <= 2", FALSIFY_UNIVERSAL,
               {"v": (F(0), F(3)), "a": (F(0), F(1))})
    verdict = check(ob)
    assert verdict.status == FALSIFIED
    assert not verdict.counterexample.numeric_only


# ---------------------------------------------------------------------------
# certification

def test_tampered_assignment_fails_certification():
    ob = close("x <= 5", FALSIFY_UNIVERSAL, {"x": (F(0), F(10))})
    verdict = check(ob)
    cex = verdict.counterexample
    assert certify(cex, ob)
    cex.assignment["x"] = F(1)  # no longer violates x <= 5
    assert not certify(cex, ob)


def test_tampered_script_fails_certification():
    ob = close("[x := 1 ++ x := -1] x >= 0", FALSIFY_UNIVERSAL,
               {"x": (F(0), F(1))})
    verdict = check(ob)
    cex = verdict.counterexample
    assert certify(cex, ob)
    from hpcheck.checker import EvScript
    assert isinstance(cex.evidence, EvScript)
    cex.evidence.script[0] = type(cex.evidence.script[0])("left")
    assert not certify(cex, ob)


def test_verdict_json_schema():
    ob = close("x <= 5", FALSIFY_UNIVERSAL, {"x": (F(0), F(10))})
    blob = check(ob).to_json()
    assert set(blob) == {"obligation", "kind", "verdict", "evaluations",
                         "seed", "certificate"}
    cert = blob["certificate"]
    assert set(cert) == {"assignment", "scripts", "margin", "exact"}
    assert cert["exact"] is True


def test_uncoverable_symbols_rejected():
    ob = Obligation("bad", parse_formula("x <= y"), FALSIFY_UNIVERSAL,
                    {"x": (F(0), F(1))}, {})
    with pytest.raises(CheckError):
        check(ob)


def test_budget_is_respected():
    ob = close("x^2 >= 0", FALSIFY_UNIVERSAL, {"x": (F(-1), F(1))})
    verdict = check(ob, SearchConfig(budget=100))
    assert 100 <= verdict.stats.evaluations <= 140


# ---------------------------------------------------------------------------
# exhaustive mode vs the independent oracle

def test_exhaustive_mode_agrees_with_brute_force():
    values = tuple(F(k) for k in range(-2, 3))
    grid = {v: values for v in ORACLE_VARS}
    config = SearchConfig(budget=2_000_000, discrete={v: list(values)
                                                      for v in ORACLE_VARS})
    rng = random.Random(42)
    for _ in range(15):
        ob = random_finite_obligation(rng, values)
        expected = brute_force_decide(ob, grid)
        verdict = check(ob, config)
        assert verdict.found == expected, ob.to_json()
        if verdict.found:
            assert certify(verdict.counterexample, ob)


# ---------------------------------------------------------------------------
# model-level checks

def test_rho_counterexample_on_m2_zeta1():
    m2 = builtin("m2")
    [ob] = obligations_for(m2, "zeta1", "rho")
    verdict = check(ob)
    assert verdict.status == FALSIFIED
    cex = verdict.counterexample
    state = dict(cex.assignment)
    state.update({k: F(v) for k, v in ob.fixed_constants.items()})
    # the invariant and relation hold but env cannot reach xc_post
    assert eval_fol(state, m2.invariants["zeta1"])
    assert eval_fol(state, m2.relation)
    gap = state["xc_post"] - state["x"]
    assert gap < state["v"] ** 2 / (2 * state["anmin"])


def test_derived_witness_certifies(capsys):
    m4 = builtin("m4")
    zeta_iter = m4.invariants["zeta_iter"]
    psi = psi_obligation(m4, zeta_iter, "a", parse_term("-anmin"))
    verdict = check(psi)
    assert verdict.status == WITNESS_FOUND
    from hpcheck.syntax import substitute
    zeta_inst = substitute(zeta_iter, "a", parse_term("-anmin"))
    not_chi, derived = derive_controller_witness(m4, zeta_inst, verdict)
    assert derived.status == WITNESS_FOUND
    assert not_chi.name == "not_chi"
    assert certify(derived.counterexample, not_chi)
