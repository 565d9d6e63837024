import collections
import dataclasses
import hashlib
import math
import random
from fractions import Fraction

import pytest

from gen import (
    VAR_POOL, closed_form_state, is_fol, is_quantifier_free, random_formula,
    random_ode, random_program, random_term,
)
from golden import SAMPLE_CONSTANTS
from hpcheck import semantics
from hpcheck.models import MODEL_IDS, builtin, fig2_script
from hpcheck.parser import (
    parse_formula, parse_model, parse_program, parse_term,
)
from hpcheck.semantics import (
    Aborted, Branch, Duration, Final, LoopCount, Plant, RandomValue,
    ScriptError, UndeclaredVariable, _compile_numeric, closed_form_template,
    coefficients, eval_fol, eval_term, evolve_plant, format_script,
    max_admissible_duration, parse_script, polynomial, run, to_term,
)
from hpcheck.syntax import (
    ODE, Add, BoolLit, Cmp, Div, Mul, Neg, Not, Num, Pow, Seq, Sub, Var,
    conjuncts, free_variables,
)


def F(numerator, denominator=1):
    return Fraction(numerator, denominator)


def base_state(**overrides):
    state = dict(SAMPLE_CONSTANTS)
    state.update({"x": F(0), "v": F(0), "xc": F(0), "a": F(0), "tau": F(0),
                  "xc_post": F(0)})
    state.update({k: F(v) for k, v in overrides.items()})
    return state


# ---------------------------------------------------------------------------
# terms and formulas

def test_eval_term_exact():
    state = {"x": F(1) / 3, "y": F(2)}
    assert eval_term(state, parse_formula("x + y <= 0").left) == F(7) / 3
    assert eval_term(state, parse_formula("x * y = 0").left) == F(2) / 3


def test_eval_term_undeclared():
    from hpcheck.semantics import UndeclaredVariable
    with pytest.raises(UndeclaredVariable):
        eval_term({}, Var("nope"))


def test_eval_fol_connectives():
    state = {"x": F(1)}
    assert eval_fol(state, parse_formula("x = 1 & x <= 2"))
    assert eval_fol(state, parse_formula("x = 2 -> x = 3"))
    assert not eval_fol(state, parse_formula("!(x >= 0)"))
    assert eval_fol(state, parse_formula("x = 1 <-> x >= 1"))


def test_eval_fol_rejects_quantifiers_and_modalities():
    from hpcheck.semantics import QuantifierInFormula
    with pytest.raises(QuantifierInFormula):
        eval_fol({"x": F(0)}, parse_formula("forall x x = 0"))
    with pytest.raises(QuantifierInFormula):
        eval_fol({"x": F(0)}, parse_formula("[x := 1] x = 1"))


def _pinned_fol_records():
    """repr of eval_fol's truth value, or what it raised, for each case of
    test_eval_fol_outcomes_are_pinned: an UndeclaredVariable with its
    name, anything else by its type alone, since Fraction's message for a
    zero divisor differs between Python versions."""
    rng = random.Random(31)
    records = []
    while len(records) < 2000:
        formula = random_formula(rng, 3)
        if not (is_fol(formula) and is_quantifier_free(formula)):
            continue
        if rng.random() < 0.2:  # unreduced sums and Div chains of to_term
            formula = _map_cmps(formula, lambda cmp: Cmp(
                cmp.op, to_term(polynomial(cmp.left)),
                to_term(polynomial(cmp.right))))
        state = {}
        for name in VAR_POOL:
            n, d = rng.randint(-6, 6), rng.choice((1, 2, 3, 4))
            kind = rng.random()
            state[name] = (n if kind < 0.25 else n / (5 * d) if kind < 0.35
                           else F(n, d))
        if rng.random() < 0.4:  # a vanishing divisor
            state[rng.choice(VAR_POOL)] = rng.choice((F(0), 0, 0.0))
        if rng.random() < 0.1:
            del state[rng.choice(VAR_POOL)]
        exact = {name: Fraction(value) for name, value in state.items()}

        def tight(cmp):
            # the right side is the left's exact value, which a float's
            # rounding misses
            try:
                return Cmp(cmp.op, cmp.left, Num(eval_term(exact, cmp.left)))
            except (ZeroDivisionError, UndeclaredVariable):
                return cmp
        if rng.random() < 0.3:
            formula = _map_cmps(formula, tight)
        try:
            records.append(repr(eval_fol(state, formula)))
        except UndeclaredVariable as exc:
            records.append(f"UndeclaredVariable: {exc}")
        except (ZeroDivisionError, OverflowError) as exc:
            records.append(type(exc).__name__)
    return records


def _map_cmps(formula, change):
    if isinstance(formula, Cmp):
        return change(formula)
    if isinstance(formula, Not):
        return Not(_map_cmps(formula.inner, change))
    if isinstance(formula, BoolLit):
        return formula
    return type(formula)(_map_cmps(formula.left, change),
                         _map_cmps(formula.right, change))


def test_eval_fol_outcomes_are_pinned():
    # one sha256 over the truth value of eval_fol, or what it raised, on
    # 2 000 seeded quantifier-free formulas, some with their comparisons
    # rebuilt by to_term and some comparing a term with its exact value, in
    # states that mix Fractions, ints and floats, set a variable to an exact
    # or a float zero (so that divisors vanish) and lack a variable; taken
    # before eval_fol decided exact comparisons on int pairs
    text = "\n".join(_pinned_fol_records())
    for shown in ("True", "False", "ZeroDivisionError", "UndeclaredVariable"):
        assert shown in text, shown
    digest = hashlib.sha256(text.encode()).hexdigest()
    assert digest \
        == "819e9369d40aaaebffe1841282a08b2bc66c4292d66a00ca409683eee0e4a715"


def test_int_pairs_order_terms_as_eval_term_does():
    # eval_fol's int-pair walk against eval_term on exact states, by value
    # and with no message: each pair has a positive denominator and their
    # cross-multiplied difference has the sign of eval_term's difference,
    # and the walk gives up exactly where eval_term raises
    rng = random.Random(131)
    decided = 0
    for _ in range(2000):
        left, right = random_term(rng, 3), random_term(rng, 3)
        state = {name: (rng.randint(-6, 6) if rng.random() < 0.3
                        else F(rng.randint(-6, 6), rng.choice((1, 2, 3, 4))))
                 for name in VAR_POOL}
        if rng.random() < 0.1:
            del state[rng.choice(VAR_POOL)]
        try:
            want = eval_term(state, left) - eval_term(state, right)
        except (ZeroDivisionError, UndeclaredVariable):
            with pytest.raises(semantics._Inexact):
                semantics._pair(state, left)
                semantics._pair(state, right)
            continue
        (a, b), (c, d) = (semantics._pair(state, left),
                          semantics._pair(state, right))
        assert b > 0 and d > 0
        assert (a * d > c * b) - (a * d < c * b) == (want > 0) - (want < 0)
        decided += 1
    assert decided > 1500


# ---------------------------------------------------------------------------
# scripts

def test_parse_script_round_trip():
    text = "loop 2\nvalue 1\nvalue 9/5\nbranch right\nduration 1\nvalue 1\n"
    decisions = parse_script(text)
    assert decisions == [LoopCount(2), RandomValue(F(1)), RandomValue(F(9) / 5),
                         Branch("right"), Duration(F(1)), RandomValue(F(1))]
    assert format_script(decisions) == text


def test_parse_script_decimal_is_exact():
    assert parse_script("value 1.8") == [RandomValue(F(9) / 5)]


def test_parse_script_rejects_garbage():
    # the whole message, for arity, an unknown keyword and each argument
    # reader's ValueError or ZeroDivisionError
    for text, message in [
            ("loop", "expected 'keyword argument'"),
            ("teleport 3", "unknown keyword 'teleport'"),
            ("loop x", "invalid literal for int() with base 10: 'x'"),
            ("loop -1", "negative loop count"),
            ("value x", "Invalid literal for Fraction: 'x'"),
            ("value 1/0", "Fraction(1, 0)"),
            ("duration -1", "negative duration"),
            ("branch sideways", "branch side must be 'left' or 'right'")]:
        with pytest.raises(ScriptError) as caught:
            parse_script(f"# a comment\n\n{text}\n")
        assert str(caught.value) == f"line 3: {message}", text


def test_run_script_kind_mismatch():
    prog = parse_program("x := *")
    with pytest.raises(ScriptError):
        run({"x": F(0)}, prog, [Branch("left")])


def test_run_script_exhausted():
    prog = parse_program("x := *; y := *")
    with pytest.raises(ScriptError):
        run({"x": F(0), "y": F(0)}, prog, [RandomValue(F(1))])


def test_run_surplus_decisions_rejected():
    prog = parse_program("x := 1")
    with pytest.raises(ScriptError):
        run({"x": F(0)}, prog, [RandomValue(F(1))])


def test_run_aborted_leaves_surplus_unconsumed():
    prog = parse_program("?x = 1; y := *")
    outcome, _ = run({"x": F(0), "y": F(0)}, prog, [RandomValue(F(5))])
    assert isinstance(outcome, Aborted)


def test_run_test_reading_an_undeclared_variable():
    with pytest.raises(UndeclaredVariable, match="^y$"):
        run({"x": F(3, 2)}, parse_program("?x < y"), [])


def test_run_test_dividing_by_zero_raises_fractions_message():
    # the message is what dividing the quotient's exact numerator by 0
    # gives on the running Python, which differs between versions; a
    # positive, a negative and a zero numerator read apart on each
    for test, numerator in (("?x / (y - y) > 0", F(6, 4)),
                            ("?0 < x * 4 / (y - y) + 1", F(6)),
                            ("?(y - 4 * x) / (y - y) < 0", F(-4)),
                            ("?(x - x) / (y - y) = 0", F(0))):
        with pytest.raises(ZeroDivisionError) as want:
            numerator / F(0)
        with pytest.raises(ZeroDivisionError) as got:
            run({"x": F(6, 4), "y": F(2)}, parse_program(test), [])
        assert str(got.value) == str(want.value), test


def test_run_decides_tests_on_the_float_state_of_a_drag_evolve():
    program = parse_program(
        "{x' = v, v' = a - v / 4 & v >= 0}; ?x <= 1/2 & v * v > 4/5")
    kinds = []
    for k in range(1, 9):
        outcome, trace = run({"x": F(0), "v": F(1), "a": F(0)}, program,
                             [Duration(F(k, 8))])
        x, v = trace[-1].state["x"], trace[-1].state["v"]
        assert type(x) is float and type(v) is float
        assert type(outcome) is (Final if x <= F(1, 2) and v * v > F(4, 5)
                                 else Aborted)
        kinds.append(type(outcome).__name__[0])
    assert "".join(kinds) == "FFFAAAAA"


# ---------------------------------------------------------------------------
# the bundled walkthrough

def test_loop_body_first_iteration_exact():
    model = builtin("m2")
    script = [RandomValue(F(1)), RandomValue(F(9) / 5), Branch("right"),
              Duration(F(1))]
    outcome, trace = run(base_state(xc=1, a=F(9) / 5), model.loop_body(), script)
    assert isinstance(outcome, Final)
    assert outcome.state["x"] == F(9, 10)
    assert outcome.state["v"] == F(9, 5)
    assert outcome.state["tau"] == F(1)
    assert trace[0].label == "init"
    assert trace[-1].time == F(1)


def test_env_test_aborts_in_second_iteration():
    model = builtin("m2")
    state = base_state(x=F(9, 10), v=F(9, 5), xc=1, a=F(9, 5), tau=1)
    outcome, _ = run(state, model.env, [RandomValue(F(1))])
    assert isinstance(outcome, Aborted)
    # the gap is 1/10 but the braking distance is (9/5)^2 / 6 = 27/50
    assert state["xc"] - state["x"] == F(1, 10)
    assert F(9, 5) ** 2 / 6 == F(27, 50)


def test_full_bundled_script_aborts_at_env():
    model = builtin("m2")
    outcome, trace = run(base_state(xc=1, a=F(9, 5)), model.loop_program(),
                         fig2_script())
    assert isinstance(outcome, Aborted)
    assert outcome.state["x"] == F(9, 10)
    assert outcome.state["v"] == F(9, 5)
    assert outcome.state["tau"] == F(1)


# ---------------------------------------------------------------------------
# plant evolution

PLANT_ODE = parse_program("{x' = v, v' = a, tau' = 1 & v >= 0 & tau <= T}")


def test_compiled_kernel_reports_undeclared_variables():
    # the template plant's domain lines read the acceleration `a`
    with pytest.raises(UndeclaredVariable):
        max_admissible_duration({"x": F(0), "v": F(0), "tau": F(0),
                                 "T": F(1)}, PLANT_ODE)
    # and its solution the position, which its domain does not read
    with pytest.raises(UndeclaredVariable):
        evolve_plant({"v": F(0), "a": F(0), "tau": F(0), "T": F(1)},
                     PLANT_ODE, F(1))
    # and its domain the constant T, which nothing else reads
    with pytest.raises(UndeclaredVariable):
        evolve_plant({"x": F(0), "v": F(0), "a": F(0), "tau": F(0)},
                     PLANT_ODE, F(1))


def test_closed_form_template_detected():
    assert closed_form_template(PLANT_ODE) == ("x", "v", "tau", Var("a"))


def test_template_plant_reads_a_float_state_as_its_exact_ratios():
    # a template plant after a numeric one meets floats: v + w is
    # 0.30000000000000004 in floats, below the bound 0.30000000000000003
    # exactly; the domain check and the bound read the state alike, so the
    # bound is never negative and an evolution for it agrees with it
    state = {"x": 0.0, "v": 0.1, "t": 0.0, "w": 0.2}
    for op, a, bound, outcome in ((">=", -1.0, (0, 1), Aborted),
                                  ("<=", 0.0, (100, 1), Final)):
        ode = parse_program("{x' = v, v' = a, t' = 1 & v + w %s "
                            "30000000000000003/100000000000000000}" % op)
        plant = Plant(ode)
        assert plant.template is not None
        held = dict(state, a=a)
        assert plant.duration_bound(held) == bound
        assert max_admissible_duration(held, ode) == F(*bound)
        assert type(plant.evolve(held, bound)) is outcome
        assert type(plant.evolve(held, F(*bound))) is outcome


def test_template_evolve_keeps_each_value_kind():
    # a state that mixes an int, a Fraction, a float and an int pair: each
    # variable the ODE does not evolve comes back as the caller's own
    # object, each evolved one in the kind of its start value, and the
    # bound is the bound on the same state held as Fractions; a value the
    # plant does not read is not converted
    state = {"x": (1, 2), "v": F(1), "tau": 0.25, "a": F(-1, 3), "T": 2,
             "w": 0.1, "p": (3, 4)}
    exact = {k: F(*v) if type(v) is tuple else Fraction(v)
             for k, v in state.items()}
    state["y"] = math.inf  # no exact ratio, and nothing reads it
    plant = Plant(PLANT_ODE)
    assert plant.duration_bound(state) == plant.duration_bound(exact) \
        == (7, 4)
    for duration, outcome in ((F(1), Final), ((2, 1), Aborted)):
        got = plant.evolve(state, duration)
        want = plant.evolve(exact, duration)
        assert type(got) is type(want) is outcome
        for name in ("a", "T", "w", "p", "y"):
            assert got.state[name] is state[name]
        assert got.state["x"] == want.state["x"].as_integer_ratio()
        assert type(got.state["v"]) is Fraction
        assert got.state["v"] == want.state["v"]
        assert type(got.state["tau"]) is float
        assert got.state["tau"] == float(want.state["tau"])


def test_plant_evolution_is_exact_polynomial():
    state = base_state(v=1, a=2)
    outcome = evolve_plant(state, PLANT_ODE, F(1, 2))
    assert isinstance(outcome, Final)
    assert outcome.state["x"] == F(3, 4)  # t + t^2
    assert outcome.state["v"] == F(2)
    assert isinstance(outcome.state["x"], Fraction)


def test_plant_aborts_outside_domain():
    outcome = evolve_plant(base_state(v=1, a=-4), PLANT_ODE, F(1))
    assert isinstance(outcome, Aborted)  # v would become negative


def test_plant_aborts_at_a_disequality_crossing_between_the_ends():
    # v != 0 holds at both ends of [0, 2] from v = 1, a = -1, but fails at
    # t = 1 between them; the run stops there
    ode = parse_program("{x' = v, v' = a, t' = 1 & v != 0}")
    plant = Plant(ode)
    assert plant.template is not None
    state = {"x": F(0), "v": F(1), "a": F(-1), "t": F(0)}
    assert max_admissible_duration(state, ode) == F(1)
    outcome = plant.evolve(state, F(2))
    assert isinstance(outcome, Aborted)
    assert (outcome.state["v"], outcome.state["t"]) == (F(0), F(1))
    assert isinstance(plant.evolve(state, F(1)), Aborted)
    assert isinstance(plant.evolve(state, F(1, 2)), Final)
    # no crossing ahead: moving away from v = 0, or never reaching it
    assert isinstance(plant.evolve(dict(state, a=F(1)), F(200)), Final)
    assert isinstance(plant.evolve(dict(state, a=F(0)), F(200)), Final)
    # a float state finds the same crossing
    numeric = {k: float(v) for k, v in state.items()}
    assert isinstance(plant.evolve(numeric, 2.0), Aborted)
    assert isinstance(plant.evolve(numeric, 0.5), Final)


def test_max_admissible_duration_affine():
    assert max_admissible_duration(base_state(v=2, a=-3), PLANT_ODE) == F(2, 3)
    assert max_admissible_duration(base_state(v=2, a=1), PLANT_ODE) == F(1)
    assert max_admissible_duration(base_state(v=0, a=-1), PLANT_ODE) == F(0)


def test_template_max_duration_matches_max_admissible_duration():
    # the exact maximal duration of the template is where evolution stops:
    # the plant evolves for exactly that long and aborts just after it
    rng = random.Random(11)
    checked = outside = 0  # some states must start outside the domain
    for model_id in MODEL_IDS:
        model = builtin(model_id)
        ode = model.plant.second
        for _ in range(300):
            state = {k: F(v) for k, v in model.constant_values().items()}
            state["T"] = F(rng.randint(1, 12), rng.choice((1, 2, 3, 4)))
            for var in ("x", "v", "a", "tau"):
                state[var] = F(rng.randint(-24, 24), rng.choice((1, 2, 3, 8)))
            m = max_admissible_duration(state, ode)
            assert type(m) is Fraction
            checked += 1
            if not eval_fol(state, ode.domain):
                outside += 1
                assert m == 0
                assert isinstance(evolve_plant(state, ode, m), Aborted)
                continue
            assert isinstance(evolve_plant(state, ode, m), Final)
            if 0 < m < semantics.DEFAULT_HORIZON:
                later = evolve_plant(state, ode, m + F(1, 10**6))
                assert isinstance(later, Aborted)
    assert 0 < outside < checked


def test_run_matches_each_plant_template_once(monkeypatch):
    # two evolutions of one ODE in one run match its template once
    semantics.plant_of.cache_clear()
    calls = []
    original = semantics.closed_form_template

    def counting(ode):
        calls.append(ode)
        return original(ode)
    monkeypatch.setattr(semantics, "closed_form_template", counting)
    model = builtin("m2")
    script = [LoopCount(2),
              RandomValue(F(5)), RandomValue(F(0)), Branch("right"), Duration(F(1)),
              RandomValue(F(5)), RandomValue(F(0)), Branch("right"), Duration(F(1))]
    outcome, trace = run(base_state(xc=5), model.loop_program(), script)
    assert isinstance(outcome, Final)
    assert [step.label for step in trace].count("ode") == 2
    assert calls == [model.plant.second]


def test_plant_of_answers_an_ode_object_by_identity(monkeypatch):
    # one ODE object resolved many times is compared with the cached ODE at
    # most once; an equal ODE from another parse shares its Plant, and
    # cache_clear forgets both the object and the value
    semantics.plant_of.cache_clear()
    comparisons = []
    original = ODE.__eq__

    def counting(self, other):
        comparisons.append(other)
        return original(self, other)
    monkeypatch.setattr(ODE, "__eq__", counting)
    text = "{x' = v, v' = a, tau' = 1 & v >= 0 & tau <= T}"
    first, second = parse_program(text), parse_program(text)
    assert first == second and first is not second
    comparisons.clear()
    plant = semantics.plant_of(first)
    for _ in range(100):
        assert semantics.plant_of(second) is plant
        assert semantics.plant_of(first) is plant
    assert len(comparisons) <= 1
    semantics.plant_of.cache_clear()
    assert semantics.plant_of(first) is not plant
    assert semantics.plant_of(second) is semantics.plant_of(first)


def test_run_trace_steps_can_be_replaced():
    # the benchmark's self-check forges a trace step with dataclasses.replace
    _, trace = run(base_state(xc=5), builtin("m2").loop_program(),
                   fig2_script())
    step = trace[-1]
    forged = dataclasses.replace(step, state={**step.state, "x": F(7)})
    assert forged.state["x"] == F(7) and step.state["x"] != F(7)
    assert (forged.time, forged.label) == (step.time, step.label)


def _syntactic_degree(term, variables):
    """Degree of a term in `variables` counted on its syntax, or None when a
    divisor holds one of them."""
    if isinstance(term, Var):
        return int(term.name in variables)
    if isinstance(term, Num):
        return 0
    if isinstance(term, Neg):
        return _syntactic_degree(term.inner, variables)
    if isinstance(term, Pow):
        base = _syntactic_degree(term.base, variables)
        return None if base is None else base * term.exp
    if isinstance(term, Div):
        if free_variables(term.den) & set(variables):
            return None
        return _syntactic_degree(term.num, variables)
    left = _syntactic_degree(term.left, variables)
    right = _syntactic_degree(term.right, variables)
    if left is None or right is None:
        return None
    return left + right if isinstance(term, Mul) else max(left, right)


def test_polynomial_form_sums_to_the_term():
    rng = random.Random(21)
    formed = undefined = divided = 0
    for _ in range(600):
        term = random_term(rng, 4)
        variables = tuple(v for v in VAR_POOL if rng.random() < 0.5)
        poly = polynomial(term)
        for monomial in poly:
            assert list(monomial) == sorted(monomial, key=repr)
        form = coefficients(poly, variables)
        degree = _syntactic_degree(term, variables)
        assert (form is None) == (degree is None), (term, variables)
        if form is None:
            divided += 1
            continue
        assert max(map(len, form)) == degree, (term, variables)
        for monomial, coefficient in form.items():
            assert set(monomial) <= set(variables)
            assert free_variables(to_term(coefficient)).isdisjoint(variables)
        for _ in range(3):
            state = {v: F(rng.randint(-9, 9), rng.choice((1, 2, 7)))
                     for v in VAR_POOL}
            try:
                expected = eval_term(state, term)
            except ZeroDivisionError:
                undefined += 1
                continue
            total = F(0)
            for monomial, coefficient in form.items():
                product = eval_term(state, to_term(coefficient))
                for factor in monomial:
                    product *= state[factor]
                total += product
            assert total == expected, (term, variables, state)
            formed += 1
    assert formed > 1000 and undefined > 10 and divided > 50


def test_polynomial_folds_literals_and_keeps_cancelled_monomials():
    v = ("v", "tau")
    form = polynomial(parse_term("2 * v - tau / 4 + 3"))
    assert form == {("v",): 2, ("tau",): F(-1, 4), (): 3}
    assert all(type(c) is Fraction for c in form.values())
    assert coefficients(polynomial(parse_term("v * v - v ^ 2 + a * v")),
                        v) == {("v", "v"): {(): 0}, ("v",): {("a",): 1}}
    assert coefficients(polynomial(parse_term("x / v")), v) is None
    over_t = Div(Num(1), Var("T"))
    assert coefficients(polynomial(parse_term("v / T")), v) == {
        ("v",): {(over_t,): 1}}
    # a zero power and a cancelled quotient keep their divisors, which
    # raise where the term does
    over_a = Div(Num(1), Var("a"))
    assert polynomial(parse_term("(w / a) ^ 0")) == {(): 1, (over_a,): 0}
    assert coefficients(polynomial(parse_term("(w / a) ^ 0")), ("a",)) is None
    cancelled = polynomial(parse_term("x + y / a - y / a"))
    assert cancelled == {("x",): 1, ("y", over_a): 0}
    with pytest.raises(ZeroDivisionError):
        eval_term({"x": F(1), "y": F(1), "a": F(0)}, to_term(cancelled))


def test_polynomial_is_additive_and_multiplicative_and_to_term_reads_it():
    # on random terms: the polynomial of s + t, s - t, s * t and t * s is
    # the sum, difference or product of the parts', and to_term's term,
    # through eval_term and through the exact kernel, equals the term where
    # it is defined and raises ZeroDivisionError exactly where it does not
    rng = random.Random(27)
    defined = undefined = 0
    for _ in range(400):
        s, t = random_term(rng, 3), random_term(rng, 3)
        ps, pt = polynomial(s), polynomial(t)
        assert polynomial(Add(s, t)) == semantics._plus(ps, pt)
        assert polynomial(Sub(s, t)) == semantics._plus(ps, pt, -1)
        assert polynomial(Mul(s, t)) == semantics._times(ps, pt) \
            == polynomial(Mul(t, s))
        back = to_term(ps)
        kernel = semantics._ratio_term(back)
        for _ in range(3):
            state = {v: F(rng.randint(-3, 3), rng.choice((1, 2, 7)))
                     for v in VAR_POOL}
            pairs = {v: x.as_integer_ratio() for v, x in state.items()}
            try:
                expected = eval_term(state, s)
            except ZeroDivisionError:
                with pytest.raises(ZeroDivisionError):
                    eval_term(state, back)
                with pytest.raises(ZeroDivisionError):
                    kernel(pairs)
                undefined += 1
                continue
            assert eval_term(state, back) == expected, (s, state)
            assert F(*kernel(pairs)) == expected, (s, state)
            defined += 1
    assert defined > 500 and undefined > 50


def _reference_max_duration(state, ode):
    """The template plant's maximal duration in Fraction (or, on a float
    state, float) arithmetic: each affine domain conjunct's left - right
    evaluated at t = 0 and t = 1, then its last admissible time."""
    if not eval_fol(state, ode.domain):
        return F(0)
    at1 = closed_form_state(state, closed_form_template(ode), F(1))
    bounds = []
    for c in conjuncts(ode.domain):
        if isinstance(c, BoolLit):
            continue
        d0 = eval_term(state, c.left) - eval_term(state, c.right)
        slope = eval_term(at1, c.left) - eval_term(at1, c.right) - d0
        if c.op in ("<=", "<"):
            d0, slope = -d0, -slope
        if c.op == "=":
            bounds.append(None if slope == 0 else F(0))
        elif c.op == "!=":
            crossing = None if slope == 0 \
                else -Fraction(d0) / Fraction(slope)
            bounds.append(crossing if crossing and crossing > 0 else None)
        else:
            bounds.append(None if slope >= 0
                          else Fraction(d0) / Fraction(-slope))
    bounds = [b for b in bounds if b is not None]
    return min(bounds) if bounds else semantics.DEFAULT_HORIZON


def test_template_max_duration_parity_with_fraction_reference():
    odes = [builtin(m).plant.second for m in MODEL_IDS] + [
        parse_program("{x' = v, v' = a, tau' = 1 & v >= 0 & tau <= T"
                      " & tau != 1/2 & v != 1/3 & 2 * v - tau > -3}"),
        parse_program("{x' = v, v' = a, tau' = 1 & tau <= T & v = w}"),
    ]
    rng = random.Random(12)
    held = bounded = zero = 0
    for ode in odes:
        plant = Plant(ode)
        assert plant.template is not None
        for _ in range(300):
            state = dict(SAMPLE_CONSTANTS)
            for var in ("x", "v", "a", "tau", "T", "w"):
                state[var] = F(rng.randint(-24, 24), rng.choice((1, 2, 3, 8)))
            if rng.random() < 0.7:  # mostly inside the domain
                state["v"] = abs(state["v"])
                state["tau"] = abs(state["tau"]) / 8
                state["T"] = abs(state["T"]) + 3
                state["w"] = state["v"]
            m = max_admissible_duration(state, ode)
            assert type(m) is Fraction
            assert m == _reference_max_duration(state, ode)
            held += eval_fol(state, ode.domain)
            bounded += 0 < m < semantics.DEFAULT_HORIZON
            zero += m == 0 and eval_fol(state, ode.domain)
    assert held > 900 and bounded > 600 and zero > 20
    # a float in the state is read as its exact ratio: the duration is the
    # reference's on the exact view, not what float arithmetic rounds to
    ode = odes[0]
    state = base_state(v=1, a=-1, T=1000)
    state["v"] = 0.3
    state["a"] = -0.9  # 0.3 + -0.9 rounds in float arithmetic
    exact = dict(state, v=Fraction(0.3), a=Fraction(-0.9))
    m = max_admissible_duration(state, ode)
    assert type(m) is Fraction
    assert m == _reference_max_duration(exact, ode)
    assert m != _reference_max_duration(state, ode)


def test_max_admissible_duration_numeric_fallback():
    # x' = 1 - x^2 converges to 1 < 2, so the bisection hits the horizon
    ode = parse_program("{x' = 1 - x * x & x <= 2}")
    assert isinstance(ode, ODE)
    d = max_admissible_duration({"x": F(0)}, ode)
    assert d == 100.0  # the default horizon, domain never violated


def _random_ratio(rng):
    return F(rng.randint(-1 << 18, 1 << 18),
             rng.choice((1, 3, 7, 1 << 16, 3 << 16)))


def test_template_state_at_is_the_closed_form_polynomial():
    # the template's evolution with no domain, with a variable and with a
    # literal acceleration
    free = Plant(parse_program("{x' = v, v' = a, tau' = 1}"))
    literal = Plant(parse_program("{x' = v, v' = -5/2, tau' = 1}"))
    assert free.template is not None and literal.template is not None
    rng = random.Random(5)
    for case in range(400):
        state = {var: _random_ratio(rng) for var in ("x", "v", "a", "tau")}
        t = F(0) if case % 4 == 0 else abs(_random_ratio(rng))
        for plant, a in ((free, state["a"]), (literal, F(-5, 2))):
            outcome = plant.evolve(state, t)
            assert isinstance(outcome, Final)
            out = outcome.state
            x, v, tau = state["x"], state["v"], state["tau"]
            assert out["x"] == x + v * t + a * t * t / 2
            assert out["v"] == v + a * t
            assert out["tau"] == tau + t
            assert out["a"] == state["a"]
            assert all(type(out[k]) is Fraction for k in ("x", "v", "tau"))
        if t == 0:
            assert out == state
    # each evolved variable comes back in the kind of its start value: a
    # float as the float nearest the exact solution, which float
    # arithmetic often misses in the last bit, a Fraction as a Fraction
    # and an int pair as a reduced pair; the duration is read exactly
    template = free.template
    missed = 0
    for case in range(200):
        state = {var: rng.uniform(-4, 4) for var in ("x", "v", "a", "tau")}
        t = abs(_random_ratio(rng)) if case % 2 else rng.uniform(0, 4)
        out = free.evolve(state, t).state
        exact = closed_form_state(
            {k: Fraction(val) for k, val in state.items()}, template,
            Fraction(t))
        for var in ("x", "v", "tau"):
            assert type(out[var]) is float and out[var] == float(exact[var])
        missed += out != closed_form_state(state, template, t)
    assert missed > 40
    state = {"x": 0.1, "v": 0.3, "a": -0.9, "tau": 0.0}
    out = free.evolve(state, F(1, 3)).state
    assert (out["x"], out["v"]) == (0.15, -1.850371707708594e-17)
    floats = closed_form_state(state, template, F(1, 3))
    assert (floats["x"], floats["v"]) == (0.15000000000000002, 0.0)
    state = {"x": 0.1, "v": F(3), "a": -0.9, "tau": (2, 6)}
    out = free.evolve(state, (1, 4)).state
    exact = closed_form_state(
        dict(state, x=Fraction(0.1), a=Fraction(-0.9), tau=F(1, 3)),
        template, F(1, 4))
    assert out == {"x": float(exact["x"]), "v": exact["v"], "a": -0.9,
                   "tau": (7, 12)}
    assert type(out["v"]) is Fraction


def test_numeric_integration_matches_closed_form():
    # the RK4 kernel of plants outside the template, on the template's ODE
    template = closed_form_template(PLANT_ODE)
    evolve = _compile_numeric(PLANT_ODE)
    rng = random.Random(0)
    for _ in range(50):
        v0 = F(rng.randint(0, 40), 8)
        a = F(rng.randint(-16, 16), 8)
        d = F(rng.randint(0, 8), 8)
        if v0 + a * d < 0:
            continue
        state = base_state(v=v0, a=a)
        exact = closed_form_state(state, template, d)
        numeric = evolve(state, d)
        assert isinstance(numeric, Final)
        for var in ("x", "v", "tau"):
            assert abs(float(exact[var]) - numeric.state[var]) < 1e-6


# ODEs outside the closed-form template, each with the variables a state
# gives it: the drag plant, a non-dyadic constant rate, a literal rate
# folded from `2 * 3 / 7`, Pow and Div by a variable, a rate that reads a
# variable the ODE does not evolve, a domain with a non-dyadic bound that
# aborts, and constants that fail only once a step is taken: one too large
# for a float and a zero divisor
NUMERIC_PLANTS = [
    ("{x' = v, v' = a - v / 4, tau' = 1 & v >= 0 & tau <= T}",
     ("x", "v", "a", "tau", "T")),
    ("{x' = y, t' = 1/3 & t <= 1}", ("y", "x", "t")),
    ("{x' = 2 * 3 / 7, y' = x & y <= 5}", ("x", "y")),
    ("{x' = y / (x ^ 2 + 1), y' = -x ^ 3 / 2 & x <= 3}", ("x", "y")),
    ("{p' = q - p, r' = q * r & r <= q + 2}", ("q", "p", "r")),
    ("{x' = -1 - x / 2 & x >= 1/3}", ("x",)),
    ("{x' = 10 ^ 400 - x & x <= 1}", ("x",)),
    ("{y' = 1 / (2 - 2) & y <= 1}", ("y",)),
]


def test_numeric_plant_outcomes_are_pinned():
    # one sha256 over repr of every evolve and max_admissible_duration
    # outcome (or its exception) of seeded cases of NUMERIC_PLANTS, the
    # x' = x * x blowup and states that lack a variable; taken before the
    # numeric path compiled its kernel: floats, key order, failed tests and
    # exceptions stay as they were; re-derived when a blow-up in bisection
    # became an inadmissible duration, which moved the blowup's maximal
    # duration from NumericBlowup('x') to a float and no other record
    rng = random.Random(10)
    records = []

    def record(call, *args):
        try:
            records.append(repr(call(*args)))
        except (semantics.NumericBlowup, UndeclaredVariable, OverflowError,
                ZeroDivisionError) as exc:
            records.append(repr(exc))
        return records[-1]

    def value():
        if rng.random() < 0.5:
            return F(rng.randint(-4, 16), rng.choice((1, 3, 8)))
        return rng.uniform(-0.5, 2.0)
    for text, names in NUMERIC_PLANTS:
        plant = Plant(parse_program(text))
        assert plant.template is None
        for index in range(12):
            state = {name: value() for name in names}
            duration = (F(rng.randint(0, 96), 32) if index % 2
                        else rng.uniform(0, 3))
            record(plant.evolve, state, duration)
            if index < 2:
                record(max_admissible_duration, state, plant.ode)
    blowup = Plant(parse_program("{x' = x * x}"))
    for start in (F(1), 1.5):
        assert record(blowup.evolve, {"x": start}, 2) \
            == "NumericBlowup('x')"
    # a trial duration whose run blows up is inadmissible: the bisection
    # ends just short of the float run's blow-up after t = 1
    assert record(max_admissible_duration, {"x": F(1)}, blowup.ode) \
        == "1.0192376481427345"
    drag = Plant(parse_program(NUMERIC_PLANTS[0][0]))
    full = {"x": F(0), "v": F(1), "a": F(-1), "tau": F(0), "T": F(2)}
    for missing in ("v", "a"):
        state = {k: v for k, v in full.items() if k != missing}
        assert record(drag.evolve, state, F(1, 2)) \
            == f"UndeclaredVariable('{missing}')"
    digest = hashlib.sha256("\n".join(records).encode()).hexdigest()
    assert digest \
        == "eaa337e496bdd79b4f0295bea8486adf92db4a37e0273442bb8a74247535c27f"


def _as_pairs(rng, state):
    """Each value of an exact state as an unreduced int pair."""
    out = {}
    for var, value in state.items():
        n, d = value.as_integer_ratio()
        k = rng.choice((1, 2, 6, 1 << 16))
        out[var] = (n * k, d * k)
    return out


def _outcome_repr(call, *args):
    try:
        return repr(call(*args))
    except (semantics.NumericBlowup, OverflowError, ZeroDivisionError) as exc:
        return repr(exc)


def test_plant_on_pair_states_matches_the_fraction_path():
    # the search evolves states of int pairs with durations as pairs: the
    # template gives the Fraction path's values as reduced pairs, and RK4
    # reads a pair n, d as n / d, the float of its Fraction
    rng = random.Random(13)
    templates = [builtin(m).plant.second for m in MODEL_IDS] + [
        parse_program("{x' = v, v' = a, tau' = 1 & v >= 0 & tau <= T"
                      " & tau != 1/2 & v != 1/3 & 2 * v - tau > -3}"),
        parse_program("{x' = v, v' = -5/2, tau' = 1 & v >= -9}")]
    finals = aborts = 0
    for ode in templates:
        plant = Plant(ode)
        assert plant.template is not None
        for _ in range(200):
            state = dict(SAMPLE_CONSTANTS)
            for var in ("x", "v", "a", "tau"):
                state[var] = F(rng.randint(-24, 24), rng.choice((1, 2, 3, 8)))
            state["v"], state["tau"] = abs(state["v"]), abs(state["tau"]) / 8
            pairs = _as_pairs(rng, state)
            m = max_admissible_duration(state, ode)
            assert plant.duration_bound(pairs) == m.as_integer_ratio()
            assert max_admissible_duration(pairs, ode) == m
            t = rng.choice((m, m / 2, F(rng.randint(0, 40), rng.choice((3, 8)))))
            [t_pair] = _as_pairs(rng, {"t": t}).values()
            want, got = plant.evolve(state, t), plant.evolve(pairs, t_pair)
            assert type(got) is type(want)
            assert {k: F(*v) for k, v in got.state.items()} == want.state
            if isinstance(want, Final):
                finals += 1
                for var in plant.template[:3]:
                    assert got.state[var] == want.state[var].as_integer_ratio()
            else:
                aborts += 1
    assert finals > 400 and aborts > 300
    for text, names in NUMERIC_PLANTS:
        ode = parse_program(text)
        plant = Plant(ode)
        for index in range(6):
            state = {name: F(rng.randint(-4, 16), rng.choice((1, 3, 8)))
                     for name in names}
            duration = F(rng.randint(0, 96), 32)
            pairs = _as_pairs(rng, dict(state, duration=duration))
            t_pair = pairs.pop("duration")
            assert _outcome_repr(plant.evolve, pairs, t_pair) \
                == _outcome_repr(plant.evolve, state, duration)
            if index < 2:
                assert _outcome_repr(max_admissible_duration, pairs, ode) \
                    == _outcome_repr(max_admissible_duration, state, ode)


@pytest.mark.parametrize("accel", ["a", "-5/2"])
@pytest.mark.parametrize("domain, shape", [
    ("v >= 0 & tau <= T", "closed"),
    ("v > 0 & tau < T", "strict"),
    ("v >= 0 & tau <= T & T = 1 & tau * 0 = 0", "equation"),
    ("v >= 0 & tau = 0", "equation"),
    ("v >= 0 & tau <= T & v != 1 & tau != T / 2", "punctured"),
])
@pytest.mark.parametrize("fold", [False, True])
def test_pair_kernel_matches_the_checked_plant(accel, domain, shape, fold):
    # the search's bound and step against duration_bound and evolve, at
    # each duration the search tries: 0, the bound and samples below it;
    # the step takes a state whose domain holds at the start
    ode = parse_program(f"{{x' = v, v' = {accel}, tau' = 1 & {domain}}}")
    plant = Plant(ode)
    assert plant.template is not None
    constants = {"T": (1, 1), "a": (-3, 2)} if fold else None
    bound, step = plant.pair_kernel(constants)
    assert plant.pair_kernel(constants) == (bound, step)  # compiled once
    rng = random.Random(21)
    outcomes = collections.Counter()
    for _ in range(300):
        state = {"x": F(rng.randint(-8, 8), 3), "T": F(1),
                 "v": F(rng.randint(-1, 12), rng.choice((1, 2, 4))),
                 "tau": F(rng.choice((0, rng.randint(-1, 4))), 4),
                 "a": F(-3, 2)}
        if not fold:
            state.update(T=F(rng.choice((1, 2))), a=F(rng.randint(-6, 2), 2))
        pairs = _as_pairs(rng, state)
        maximum = bound(pairs)
        if maximum is None:
            assert isinstance(plant.evolve(pairs, (0, 1)), Aborted)
            assert plant.duration_bound(pairs) == (0, 1)
            outcomes["no start"] += 1
            continue
        assert maximum == plant.duration_bound(pairs)
        n, d = maximum
        durations = [(0, 1), maximum] + [(n * j, d * 8) for j in range(1, 8)]
        for duration in durations:
            want = plant.evolve(pairs, duration)
            got = step(pairs, duration)
            if isinstance(want, Final):
                assert got == want.state
                outcomes["final"] += 1
            else:
                assert got is None
                outcomes["aborted"] += 1
    assert outcomes["no start"] > 10 and outcomes["final"] > 1000
    # a strict or `!=` conjunct fails at its bound, where the step aborts
    assert (outcomes["aborted"] > 20) == (shape in ("strict", "punctured"))


@pytest.mark.parametrize("domain, checked", [
    ("v >= 0 & tau <= T", False), ("v >= 0 & tau < T", True),
    ("v >= 0 & v != 1", True)])
def test_pair_kernel_solves_for_the_live_evolved_variables(domain, checked):
    # the step writes the evolved variables read after it, and leaves the
    # others as they started, unless it checks the end, which reads them
    ode = parse_program(f"{{x' = v, v' = a, tau' = 1 & {domain}}}")
    plant = Plant(ode)
    bound, step = plant.pair_kernel({"T": (1, 1)})
    rng = random.Random(28)
    for live in ({"x"}, {"v", "T"}, {"tau", "x", "a"}, set()):
        live_bound, live_step = plant.pair_kernel({"T": (1, 1)}, live)
        # compiled once per set of evolved variables read after the step
        assert live_step is not step
        assert plant.pair_kernel({"T": (1, 1)}, live | {"T"})[1] is live_step
        for _ in range(40):
            state = _as_pairs(rng, {"x": F(rng.randint(-8, 8), 3), "T": F(1),
                                    "v": F(rng.randint(0, 12), 4),
                                    "tau": F(rng.randint(0, 3), 4),
                                    "a": F(rng.randint(-6, 2), 2)})
            maximum = bound(state)
            assert live_bound(state) == maximum
            for duration in ([] if maximum is None else
                             [(0, 1), maximum, (maximum[0], 3 * maximum[1])]):
                want, got = step(state, duration), live_step(state, duration)
                if want is None:
                    assert got is None
                    continue
                assert got == {name: want[name] if checked or name in live
                               or name not in ("x", "v", "tau") else value
                               for name, value in state.items()}


def reference_compile_numeric(ode):
    """The RK4 kernel as it was before its inner stages wrote only the
    variables a rate reads: each stage writes every evolved variable, and
    the stage rates are a list of lists.  A state that lacks an evolved
    variable is an UndeclaredVariable once past the start check.
    `_compile_numeric` must give what this gives, float for float and
    exception for exception."""
    names, rates, constants = [], [], []
    for name, rhs in ode.equations:
        rate = semantics._float_term(rhs)
        if callable(rate):
            names.append(name)
            rates.append(rate)
        else:
            constants.append((name, semantics._float_operand(rate),
                              semantics._float_operand(6 * rate)))
    domain = semantics._fol_closure(ode.domain, semantics._float_cmp)
    samples = semantics.GRID_POINTS + 1

    def evolve(state, duration):
        duration = (duration[0] / duration[1] if type(duration) is tuple
                    else float(duration))
        current = {k: v[0] / v[1] if type(v) is tuple else float(v)
                   for k, v in state.items()}
        if not domain(current):
            return Aborted(ode.domain, current)
        for name in names + [name for name, _, _ in constants]:
            if name not in current:
                raise UndeclaredVariable(name)
        work = dict(current)
        t = 0.0
        for i in range(1, samples + 1):
            target = duration * i / samples
            while t < target - 1e-15:
                h = min(semantics.ODE_STEP, target - t)
                half = h / 2
                ks = [[rate(current) for rate in rates]]
                for factor in (half, half, h):
                    for name, k in zip(names, ks[-1]):
                        work[name] = current[name] + factor * k
                    for name, c, _ in constants:
                        work[name] = current[name] + factor * c
                    ks.append([rate(work) for rate in rates])
                sixth = h / 6
                for name, a, b, c, d in zip(names, *ks):
                    value = current[name] + sixth * (a + 2 * b + 2 * c + d)
                    if not math.isfinite(value):
                        raise semantics.NumericBlowup(name)
                    current[name] = value
                for name, _, six in constants:
                    value = current[name] + sixth * six
                    if not math.isfinite(value):
                        raise semantics.NumericBlowup(name)
                    current[name] = value
                t += h
            if not domain(current):
                return Aborted(ode.domain, current)
        return Final(current)
    return evolve


def _any_outcome_repr(evolve, state, duration):
    try:
        return repr(evolve(state, duration))
    except Exception as exc:  # the kernels must raise alike, whatever it is
        return repr(exc)


def test_rk4_kernel_matches_the_reference_kernel():
    # repr of every outcome or exception, on NUMERIC_PLANTS and generated
    # ODEs, from states of Fractions, floats and int pairs, some of them
    # lacking a variable: an evolved one no rate reads (x of drag) is an
    # UndeclaredVariable, even for a duration too short for a step
    drag = parse_program(NUMERIC_PLANTS[0][0])
    no_x = {"v": F(1), "a": F(-1), "tau": F(0), "T": F(2)}
    kernel, reference = _compile_numeric(drag), reference_compile_numeric(drag)
    for duration in (F(1, 2), 1e-17, (3, 2), 0):
        assert _any_outcome_repr(kernel, no_x, duration) \
            == _any_outcome_repr(reference, no_x, duration) \
            == "UndeclaredVariable('x')"

    rng = random.Random(23)

    def value():
        roll = rng.random()
        if roll < 0.4:
            return F(rng.randint(-8, 16), rng.choice((1, 3, 8)))
        if roll < 0.8:
            return rng.uniform(-2.0, 3.0)
        return (rng.randint(-8, 16), rng.choice((1, 3, 8)))

    def duration():
        roll = rng.random()
        if roll < 0.1:
            return 0
        if roll < 0.5:
            return F(rng.randint(0, 48), 32)
        if roll < 0.8:
            return rng.uniform(0, 1.5)
        return (rng.randint(0, 48), 32)
    plants = [(parse_program(text), names) for text, names in NUMERIC_PLANTS]
    for _ in range(150):
        ode = random_ode(rng, rng.randint(2, 5))
        plants.append((ode, VAR_POOL))
    kinds = collections.Counter()
    for ode, names in plants:
        kernel, reference = _compile_numeric(ode), reference_compile_numeric(ode)
        for _ in range(6):
            state = {name: value() for name in names if rng.random() < 0.9}
            t = duration()
            got = _any_outcome_repr(kernel, state, t)
            assert got == _any_outcome_repr(reference, state, t), (ode, state, t)
            kinds[got.split("(")[0]] += 1
    assert min(kinds[kind] for kind in ("Final", "Aborted",
                                        "UndeclaredVariable")) >= 20, kinds
    assert "KeyError" not in kinds, kinds


def reference_divide(num, den):
    """eval_term's Div as it was: two exact operands as Fraction(num, 1) /
    Fraction(den, 1), anything else as Python divides it."""
    if semantics.is_exact(num) and semantics.is_exact(den):
        return Fraction(num, 1) / Fraction(den, 1)
    return num / den


def test_div_parity_with_the_fraction_division():
    # Fraction/Fraction, int/Fraction, Fraction/int and int/int, each with
    # a zero divisor, and mixes with a float: the same value, type and
    # exception message as the reference
    quotient = Div(Var("p"), Var("q"))
    operands = [F(-6), F(-3, 2), F(5, 3), F(0), -6, 0, 7, 2.5, -0.0]
    divisors = [F(0), F(2, 3), F(-4), 0, 3, -2, 0.0, 1.5]
    zero_messages = set()
    for num in operands:
        for den in divisors:
            try:
                want = reference_divide(num, den)
            except ZeroDivisionError as exc:
                with pytest.raises(ZeroDivisionError) as got:
                    eval_term({"p": num, "q": den}, quotient)
                assert str(got.value) == str(exc)
                if semantics.is_exact(num) and semantics.is_exact(den):
                    zero_messages.add(str(exc))
                continue
            got = eval_term({"p": num, "q": den}, quotient)
            assert type(got) is type(want) and repr(got) == repr(want)
    # an exact zero divisor never gives int division's message
    assert zero_messages and all(m.startswith("Fraction(")
                                 for m in zero_messages), zero_messages


def test_run_counts_time_across_iterations():
    model = builtin("m2")
    script = [LoopCount(2),
              RandomValue(F(5)), RandomValue(F(0)), Branch("right"), Duration(F(1)),
              RandomValue(F(5)), RandomValue(F(0)), Branch("right"), Duration(F(1))]
    outcome, trace = run(base_state(xc=5), model.loop_program(), script)
    assert isinstance(outcome, Final)
    assert trace[-1].time == F(2)


# ---------------------------------------------------------------------------
# pinned runs

class _Drawing(semantics.ScriptCursor):
    """A cursor that makes each decision with `draw` as the run reaches it
    and keeps it, so the run can be replayed from the list it leaves."""

    def __init__(self, rng, draw):
        super().__init__([])
        self.rng, self.draw = rng, draw

    def take(self, kind, state, program):
        previous = self.decisions[-1] if self.decisions else None
        self.decisions.append(self.draw(self.rng, kind, state, program,
                                        previous))
        return super().take(kind, state, program)


def _draw_any(rng, kind, state, program, previous):
    if kind is LoopCount:
        return LoopCount(rng.randint(0, 2))
    if kind is RandomValue:
        return RandomValue(F(rng.randint(-8, 8), rng.choice((1, 2, 4))))
    if kind is Branch:
        return Branch(rng.choice(("left", "right")))
    return Duration(F(rng.randint(0, 8), 8))


def _first_test(program):
    while isinstance(program, Seq):
        program = program.first
    return program.condition


def _draw_stop(rng, kind, state, program, previous):
    """Decisions shaped like the stop models' replay scripts: values near
    their tests, durations up to the plant's limit, and a few that fail."""
    if kind is LoopCount:
        return LoopCount(rng.randint(1, 3))
    if kind is Branch:
        holds = eval_fol(state, _first_test(program.left))
        if rng.random() < 0.05:
            holds = not holds
        return Branch("left" if holds else "right")
    if kind is RandomValue and program.var == "xc":
        stop = state["x"] + state["v"] ** 2 / (2 * state["anmin"])
        return RandomValue(F(math.ceil(float(stop) * 8) + rng.randint(-2, 24),
                             8))
    if kind is RandomValue:
        if isinstance(previous, Branch):  # ctrl's brake
            return RandomValue(-state["asmin"] if rng.random() < 0.95
                               else F(0))
        if rng.random() < 0.05:
            return RandomValue(state["anmax"] + F(1, 4))
        low, high = int(-state["anmin"] * 8), int(state["anmax"] * 8)
        return RandomValue(F(rng.randint(low, high), 8))
    a, v = state["a"], state["v"]
    limit = state["T"] if a >= 0 else min(state["T"], v / -a)
    return Duration(F(int(float(limit) * 64 * rng.uniform(0.2, 1.1)), 64))


def _pinned_run_records():
    """repr of (outcome, trace), or the type and message of what `run`
    raised, for each case of test_run_outcomes_are_pinned."""
    records = []

    def record(state, program, script):
        try:
            records.append(repr(run(state, program, script)))
        except (ScriptError, ZeroDivisionError, UndeclaredVariable,
                semantics.QuantifierInFormula, semantics.NumericBlowup,
                OverflowError, TypeError) as exc:
            records.append(f"{type(exc).__name__}: {exc}")

    def replays(state, program, rng, draw):
        cursor = _Drawing(rng, draw)
        record(state, program, cursor)
        decisions = cursor.decisions
        record(state, program, decisions)
        if decisions:
            record(state, program, decisions[:-1])  # runs out
        record(state, program, decisions + [LoopCount(1)])  # surplus

    rng = random.Random(29)
    template = parse_program(
        "{x' = v, v' = a, t1' = 1 & v >= 0 & t1 <= 2}")
    for index in range(80):
        state = {name: F(rng.randint(-4, 4), rng.choice((1, 2)))
                 for name in VAR_POOL}
        program = random_program(rng, 3)
        if index % 4 == 0:
            program = Seq(program, template)
        replays(state, program, rng, _draw_any)
    for family in (*MODEL_IDS, "drag"):
        source = builtin("m2" if family == "drag" else family).source
        if family == "drag":
            source = source.replace("v' = a,", "v' = a - v / 4,")
        for _ in range(10):
            program = parse_model(source, name=family).loop_program()
            anmin = F(rng.randint(2, 4))
            state = {"x": F(rng.randint(-4, 4), 4),
                     "v": F(rng.randint(0, 12), 4), "xc": F(0),
                     "xc_post": F(0), "a": F(0), "tau": F(0),
                     "T": rng.choice((F(1, 2), F(1), F(3, 2))),
                     "anmax": F(rng.randint(1, 3)), "anmin": anmin,
                     "asmin": anmin + rng.randint(1, 2)}
            replays(state, program, rng, _draw_stop)
    record({"x": F(0)}, Var("x"), [])
    return records


def test_run_outcomes_are_pinned():
    # one sha256 over repr of (outcome, trace) of every run, or the type and
    # message of what it raised: seeded generated programs (passing and
    # failing tests, choices, loops run 0-2 times, numeric and closed-form
    # plants) and stop-model scripts on m2, m3, m4 and the drag plant, each
    # run as drawn, replayed from its list, cut short by one decision and
    # given one surplus decision; taken before `run` passed bare states
    records = _pinned_run_records()
    text = "\n".join(records)
    for shown in ("Final(", "Aborted(", "'ode'", "ScriptError: script "
                  "exhausted", "ScriptError: surplus", "TypeError: not a "
                  "program"):
        assert shown in text, shown
    digest = hashlib.sha256(text.encode()).hexdigest()
    assert digest \
        == "7facc18e72e6e30bc304d33c5cd7daf6fa6582a51820a31c60085d00b395ed94"
