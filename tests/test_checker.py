import collections
import hashlib
import itertools
import json
import random
from fractions import Fraction

import pytest

from gen import (
    ORACLE_VARS, VAR_POOL, brute_force_decide, is_fol, is_quantifier_free,
    random_finite_obligation, random_formula, random_program, random_term,
)
from hpcheck import checker, semantics
from hpcheck.checker import (
    FALSIFIED, NO_WITNESS_FOUND, NOT_FALSIFIED, WITNESS_FOUND, CheckError,
    Counterexample, SearchConfig, UnsupportedObligation, _pinner, certify, check,
    compile_fol, derive_controller_witness, obligations_for,
)
from hpcheck.models import MODEL_IDS, builtin
from hpcheck.obligations import (
    FALSIFY_UNIVERSAL, FIND_WITNESS, Obligation, psi_obligation,
)
from hpcheck.parser import parse_formula, parse_program, parse_term
from hpcheck.semantics import (
    Branch, Duration, LoopCount, RandomValue, _ratio_term, eval_fol,
    eval_term, format_script, pair_view, parse_script,
)
from hpcheck.syntax import (
    ODE, And, Box, Choice, Cmp, Diamond, Exists, Forall, Iff, Implies, Loop,
    Node, Not, Or, RandomAssign, Seq, Sub, Test, conjuncts, free_variables,
)


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
# compiled evaluation

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
                compile_fol(formula)(pair_view(state))
            continue
        checked += 1
        assert compile_fol(formula)(pair_view(state)) == expected


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


def _exact_ratios(state):
    """The state with each float read as its exact ratio, as the exact
    kernel reads it."""
    return {var: Fraction(value) if type(value) is float else value
            for var, value in state.items()}


def _pair_state(rng, state):
    """The exact state as unreduced (numerator, denominator) int pairs,
    each scaled by a random positive factor."""
    out = {}
    for var, value in state.items():
        n, d = value.as_integer_ratio()
        k = rng.choice((1, 2, 3, 6, 1 << 16, 7 << 20))
        out[var] = (n * k, d * k)
    return out


def _outcome(fn, *args):
    """The value, or ZeroDivisionError and its message."""
    try:
        return fn(*args)
    except ZeroDivisionError as exc:
        return ZeroDivisionError, str(exc)


def test_compile_fol_parity_with_eval_fol():
    rng = random.Random(41)
    formulas = raised = floated = rounded = 0
    while formulas < 400:
        formula = random_formula(rng, 4)
        if not (is_fol(formula) and is_quantifier_free(formula)):
            continue
        formulas += 1
        compiled = compile_fol(formula)
        for floats in (False, False, True):
            state = _mixed_state(rng, floats)
            # a float is read as its exact ratio, not in float arithmetic
            expected = _outcome(eval_fol, _exact_ratios(state), formula)
            assert _outcome(compiled, pair_view(state)) == expected, \
                (formula, state)
            if not floats:
                # the same values held as int pairs, as the search holds
                # its first-order candidates
                pairs = _pair_state(rng, state)
                assert _outcome(compiled, pairs) == expected, (formula, pairs)
            raised += not floats and isinstance(expected, tuple)
            floated += floats and any(type(v) is float
                                      for v in state.values())
            rounded += _outcome(eval_fol, state, formula) != expected
    assert raised > 30 and floated > 300 and rounded > 0


def test_ratio_term_parity_with_eval_term():
    rng = random.Random(42)
    exact = raised = inexact = 0
    for _ in range(600):
        term = random_term(rng, 4)
        kernel = _ratio_term(term)
        floats = rng.random() < 0.3
        state = _mixed_state(rng, floats)
        # a float is read as its exact ratio, not in float arithmetic
        expected = _outcome(eval_term, _exact_ratios(state), term)
        for held in (pair_view(state), _pair_state(rng, state)):
            got = _outcome(kernel, held)
            if isinstance(expected, tuple):
                assert got == expected, (term, held)
            else:
                n, d = got
                assert d > 0 and Fraction(n, d) == expected, (term, held)
        if any(type(state[v]) is float for v in free_variables(term)):
            inexact += 1
        elif isinstance(expected, tuple):
            raised += 1
        else:
            exact += 1
    assert raised > 0 and exact > 300 and inexact > 50


def test_compile_fol_folds_constants_to_the_same_outcome():
    # a random subset of the variables fixed as constants, with the values
    # the state holds; zeros among them fold some divisors to zero, which
    # raise where eval_fol raises
    rng = random.Random(44)
    formulas = folded_zero = floated = 0
    while formulas < 400:
        formula = random_formula(rng, 4)
        if not (is_fol(formula) and is_quantifier_free(formula)):
            continue
        formulas += 1
        plain = compile_fol(formula)
        for floats in (False, True):
            state = _mixed_state(rng)
            fixed = rng.sample(VAR_POOL, rng.randint(1, len(VAR_POOL)))
            constants = {v: state[v].as_integer_ratio() for v in fixed}
            for v in VAR_POOL:
                if floats and v not in constants and rng.random() < 0.5:
                    state[v] = float(state[v])
            folded = compile_fol(formula, constants)
            # a float is read as its exact ratio, not in float arithmetic
            expected = _outcome(eval_fol, _exact_ratios(state), formula)
            assert _outcome(plain, pair_view(state)) == expected
            assert _outcome(folded, pair_view(state)) == expected, \
                (formula, fixed)
            if not floats:
                pairs = _pair_state(rng, state)
                assert _outcome(folded, pairs) == expected, (formula, fixed)
            folded_zero += isinstance(expected, tuple) and any(
                constants.get(v) == (0, 1) for v in free_variables(formula))
            floated += floats
    assert folded_zero > 10 and floated == 400
    # the fold of 1 / (c - c) is a closure: short-circuited, it never raises
    formula = parse_formula("y > 0 | x / (c - c) > 1")
    folded = compile_fol(formula, {"c": (2, 1)})
    state = {"x": (1, 1), "y": (1, 1), "c": (2, 1)}
    assert folded(state) is True
    state["y"] = (-1, 1)
    assert _outcome(folded, state) == _outcome(
        eval_fol, {k: F(*v) for k, v in state.items()}, formula) \
        == (ZeroDivisionError, "Fraction(1, 0)")
    # so is the fold of the literals 1 / (2 - 2), whatever the constants
    formula = parse_formula("y > 0 | x / (2 - 2) > 1")
    compiled = compile_fol(formula)
    state = {"x": (1, 1), "y": (1, 1)}
    assert compiled(state) is True
    state["y"] = (-1, 1)
    assert _outcome(compiled, state) == _outcome(
        eval_fol, {k: F(*v) for k, v in state.items()}, formula) \
        == (ZeroDivisionError, "Fraction(1, 0)")


def test_search_folds_only_the_constants_no_run_changes(monkeypatch):
    seen = []

    def recording(formula, constants=None):
        seen.append(constants)
        return compile_fol(formula, constants)
    monkeypatch.setattr(checker, "compile_fol", recording)
    [ob] = obligations_for(builtin("m2"), "zeta1", "gamma")
    check(ob, SearchConfig(budget=50))
    assert seen and all(c == {"T": (1, 1), "anmax": (2, 1), "anmin": (3, 1),
                              "asmin": (4, 1)} for c in seen)
    # c := c + x assigns the constant c: folding it would hold c <= 1
    seen.clear()
    ob = Obligation("assigned", parse_formula("forall x [c := c + x] c <= 1"),
                    FALSIFY_UNIVERSAL, {"x": (F(0), F(1))}, {"c": F(1)})
    verdict = check(ob, SearchConfig(budget=50))
    assert verdict.status == FALSIFIED
    assert verdict.counterexample.assignment["x"] > 0
    assert seen == [None]
    # a numeric plant leaves the constants floats in its final state, so
    # the interpreter evaluates the obligation and nothing is compiled
    seen.clear()
    ob = Obligation("drag", parse_formula(
        "forall x [{x' = -x / c, t' = 1 & t <= 1}; y := *; ?y >= c] y >= x"),
        FALSIFY_UNIVERSAL, {"x": (F(0), F(2))}, {"c": F(4)})
    check(ob, SearchConfig(budget=50))
    assert seen == []


def test_modal_search_builds_no_fraction_per_evolution(monkeypatch):
    # states stay int pairs through programs and plants: Fractions are
    # built for folds at compile time and for certificates, so as many at
    # budget 5000 as at 1000, for hundreds more evolutions
    built = {"checker": 0, "semantics": 0}
    evolutions = []

    def counting(module):
        def build(*args):
            built[module] += 1
            return Fraction(*args)
        return build
    monkeypatch.setattr(checker, "Fraction", counting("checker"))
    monkeypatch.setattr(semantics, "Fraction", counting("semantics"))
    pair_kernel = semantics.Plant.pair_kernel

    def spying(plant, constants=None, live=None):
        bound, step = pair_kernel(plant, constants, live)
        return bound, lambda state, t: (evolutions.append(t),
                                        step(state, t))[1]
    monkeypatch.setattr(semantics.Plant, "pair_kernel", spying)
    [ob] = obligations_for(builtin("m4"), "zeta1", "gamma")
    assert ob.name == "loop_ii"
    runs = []
    for budget in (1000, 5000):
        built.update(checker=0, semantics=0)
        evolutions.clear()
        verdict = check(ob, SearchConfig(budget=budget))
        assert verdict.status == NOT_FALSIFIED
        assert all(type(t) is tuple for t in evolutions)
        runs.append((dict(built), len(evolutions)))
    (small, few), (large, many) = runs
    assert small == large and many - few > 500
    assert large["checker"] < 10 and large["semantics"] < 30


def _reference_pins(state, var, test):
    """The pins as Fraction (or, on a float state, float) arithmetic
    computes them: probe each conjunct's left - right at var = 0, 1, 2."""
    pins = []
    for c in conjuncts(test):
        if not (isinstance(c, Cmp)
                and var in free_variables(c.left) | free_variables(c.right)):
            continue
        diff, probe = Sub(c.left, c.right), dict(state)
        try:
            probe[var] = F(0)
            d0 = eval_term(probe, diff)
            probe[var] = F(1)
            d1 = eval_term(probe, diff)
        except Exception:
            continue
        slope = d1 - d0
        if slope != 0:
            probe[var] = F(2)
            if eval_term(probe, diff) - d1 == slope:
                pins.append(-Fraction(d0) / Fraction(slope))
    return pins


def _assign_tests(program):
    """(var, test) of each `var := *; ?test` in a program."""
    if isinstance(program, Seq):
        if isinstance(program.first, RandomAssign) \
                and isinstance(program.second, Test):
            return [(program.first.var, program.second.condition)]
        return _assign_tests(program.first) + _assign_tests(program.second)
    return [pair for part in program.fields if isinstance(part, Node)
            for pair in _assign_tests(part)]


def test_pins_parity_with_fraction_reference():
    rng = random.Random(43)
    # non-affine, zero-slope, '!=' and var-free conjuncts besides the models'
    extra = ("a", parse_formula("a * a <= 4 & a - a <= 1 & 2 * a + x != 3"
                                " & x <= 1 & a / 3 - x / 5 >= v"))
    checked = pinned = 0
    for model_id in MODEL_IDS:
        model = builtin(model_id)
        cases = _assign_tests(model.loop_program()) + [extra]
        assert [var for var, _ in cases] == ["xc", "a", "a", "a"]
        constants = {k: v.as_integer_ratio()
                     for k, v in model.constant_values().items()}
        for _ in range(100):
            for var, test in cases:
                state = {k: F(v) for k, v in model.constant_values().items()}
                for name in free_variables(test) - set(state):
                    state[name] = F(rng.randint(-40, 40),
                                    rng.choice((1, 2, 3, 1 << 16)))
                pins = _pinner(var, test)(pair_view(state))
                # reduced pairs with positive denominators
                assert pins == [p.as_integer_ratio()
                                for p in _reference_pins(state, var, test)]
                assert _pinner(var, test, constants)(pair_view(state)) \
                    == pins
                checked += 1
                pinned += len(pins)
    assert checked == 1200 and pinned > 1500
    # a float in the state is read as its exact ratio: the pins are the
    # reference's on the exact view, not what float arithmetic rounds to
    model = builtin("m2")
    [(var, test), *_] = _assign_tests(model.loop_program())
    state = {k: F(v) for k, v in model.constant_values().items()}
    state.update({"x": 0.3, "v": 0.7, "xc": F(0)})  # a slope that rounds
    exact = dict(state, x=Fraction(0.3), v=Fraction(0.7))
    pins = [F(*p) for p in _pinner(var, test)(pair_view(state))]
    assert pins == _reference_pins(exact, var, test)
    assert pins and pins != _reference_pins(state, var, test)


def test_first_order_search_builds_few_fractions(monkeypatch):
    # candidates stay int pairs: the Fractions built are the fixed
    # constants and midpoints, not one per sampled value
    built = []

    def counting(*args):
        built.append(args)
        return Fraction(*args)
    monkeypatch.setattr(checker, "Fraction", counting)
    ob = obligations_for(builtin("m2"), "zeta2", "loop")[2]
    assert ob.name == "loop_iii"
    verdict = check(ob, SearchConfig(budget=5000))
    assert verdict.status == NOT_FALSIFIED
    # one evaluation per candidate of a modality-free matrix
    assert verdict.stats.evaluations == verdict.stats.candidates == 5000
    assert len(built) < 100


def test_one_pass_matrices_compile_no_row_closure(monkeypatch):
    # a first-order matrix or one whose only modality is an env goal is
    # decided a block of candidates at a time; the engine's row closures
    # are compiled only for a row that hits, and a modal matrix keeps them
    compiled = []

    def counting(*args, **kwargs):
        compiled.append(args[0])
        return compile_fol(*args, **kwargs)
    monkeypatch.setattr(checker, "compile_fol", counting)
    m2 = builtin("m2")
    for zeta, selector, index, status in [
            ("zeta2", "loop", 0, NOT_FALSIFIED), ("zeta2", "loop", 2,
                                                  NOT_FALSIFIED),
            ("zeta2", "rho", 0, NOT_FALSIFIED), ("zeta1", "rho", 0, FALSIFIED),
            ("zeta1", "loop", 1, NOT_FALSIFIED)]:
        compiled.clear()
        ob = obligations_for(m2, zeta, selector)[index]
        verdict = check(ob, SearchConfig(budget=5000))
        assert verdict.status == status
        assert bool(compiled) == (status == FALSIFIED or ob.name == "loop_ii")


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


@pytest.mark.parametrize("plant", ["x' = v", "x' = -x / 4"])
def test_quantified_test_in_a_program_raises(plant):
    # the closed-form plant's states hold pairs, which the exact kernel
    # compiles the test for; the numeric plant's, which eval_fol reads
    ob = close(f"[{{{plant}, v' = a, t' = 1 & t <= 1}}; ?(exists y y > x)] "
               "x <= 2", FALSIFY_UNIVERSAL,
               {"x": (F(0), F(1)), "v": (F(0), F(1)), "a": (F(0), F(1)),
                "t": (F(0), F(1))})
    with pytest.raises(semantics.QuantifierInFormula):
        check(ob, SearchConfig(budget=50))
    # a test that only one branch of a choice reaches raises whatever the
    # budget, before any run reaches it
    ob = close(f"[{{{plant}, v' = a, t' = 1 & t <= 1}} ++ ?(exists z (z > x))] "
               "x <= 2", FALSIFY_UNIVERSAL,
               {"x": (F(0), F(1)), "v": (F(0), F(1)), "a": (F(0), F(1)),
                "t": (F(0), F(1))})
    for budget in (1, 2000):
        with pytest.raises(semantics.QuantifierInFormula):
            check(ob, SearchConfig(budget=budget))
    # and an env goal's test, which the exact kernel compiles as well
    with pytest.raises(semantics.QuantifierInFormula):
        check(close("<x := *; ?(exists z (z > x))> x = y", FALSIFY_UNIVERSAL,
                    {"y": (F(0), F(1))}))


def reference_has_modality(formula) -> bool:
    """The search's modality test as it was, a walk of the whole subtree
    at each node it was asked about; the one-walk table must answer as it
    does, inner-quantifier error included."""
    if isinstance(formula, (Box, Diamond)):
        return True
    if isinstance(formula, Not):
        return reference_has_modality(formula.inner)
    if isinstance(formula, (And, Or, Implies, Iff)):
        return reference_has_modality(formula.left) \
            or reference_has_modality(formula.right)
    if isinstance(formula, (Forall, Exists)):
        raise UnsupportedObligation(
            "inner quantifiers are not supported; close the formula instead")
    return False


def _modality_outcome(fn, *args):
    try:
        return fn(*args)
    except UnsupportedObligation as exc:
        return str(exc)


def test_modality_table_answers_as_the_recursive_walk():
    # every node the search and the replay ask about: the operands of
    # connectives, a left operand negated, and the posts of modalities
    rng = random.Random(31)
    answers = collections.Counter()
    for _ in range(300):
        formula = random_formula(rng, 5)
        table = {}
        checker._modalities(formula, table)
        stack = [formula]
        while stack:
            node = stack.pop()
            for asked in (node, Not(node)):
                want = _modality_outcome(reference_has_modality, asked)
                assert _modality_outcome(checker._has_modality, table,
                                         asked) == want, asked
                answers[want] += 1
            if isinstance(node, Not):
                stack.append(node.inner)
            elif isinstance(node, (And, Or, Implies, Iff)):
                stack.extend((node.left, node.right))
            elif isinstance(node, (Box, Diamond)):
                stack.append(node.post)
    assert min(answers.values()) > 100 and len(answers) == 3, answers


def test_loop_counts_explored():
    ob = close("[{x := x + 1}*] x <= 1", FALSIFY_UNIVERSAL,
               {"x": (F(0), F(1))})
    verdict = check(ob)
    assert verdict.status == FALSIFIED
    [script] = verdict.counterexample.scripts
    assert script[0].count == 2


def test_nested_loops_compile_in_linear_time(monkeypatch):
    # a loop body compiles once, whatever its unrolling count: a copy per
    # count would compile the innermost body 3^10 times
    calls = []
    program = checker._Engine.program

    def counting(engine, node, k, live):
        calls.append(node)
        return program(engine, node, k, live)
    monkeypatch.setattr(checker._Engine, "program", counting)
    text = "x := x + 1"
    for depth in range(1, 11):
        text = f"{{?x >= 0; {text}}}*"
        calls.clear()
        ob = close(f"[{text}] x >= 0", FALSIFY_UNIVERSAL, {"x": (F(0), F(1))})
        assert check(ob, SearchConfig(budget=50)).status == NOT_FALSIFIED
        # a loop, a sequence and a test per level, and the assignment
        assert len(calls) == 3 * depth + 1


def test_ode_duration_choice():
    ob = close("[tau := 0; {x' = v, v' = a, tau' = 1 & v >= 0 & tau <= 1}] "
               "x <= 2", FALSIFY_UNIVERSAL,
               {"v": (F(0), F(3)), "a": (F(0), F(1))})
    verdict = check(ob)
    assert verdict.status == FALSIFIED
    assert not verdict.counterexample.numeric_only


def test_draw_after_a_numeric_plant():
    # the plant leaves every variable a float; the draw then puts an exact
    # value beside them, which the test and the post compare with floats
    formula = parse_formula(
        "forall x (x >= 0 -> [{x' = -x / 4, t' = 1 & t <= 1}; "
        "y := *; ?y >= x - 1/2] y >= x)")
    box = {"x": (F(0), F(2)), "y": (F(-3), F(3)), "t": (F(0), F(1))}
    ob = Obligation("mixed", formula, FALSIFY_UNIVERSAL, box, {})
    assert check(ob, SearchConfig(budget=300)).to_json() == {
        "obligation": "mixed", "kind": FALSIFY_UNIVERSAL,
        "verdict": FALSIFIED, "evaluations": 67, "seed": 0,
        "certificate": {
            "assignment": {"x": "1"},
            "scripts": [[{"duration": "17179869175/17179869184"},
                         {"value": "387/1024"}]],
            "exact": False,
        },
    }


def test_a_failed_numeric_left_operand_leaves_the_certificate_exact():
    # the replay takes the one script for the numeric left diamond first,
    # whose RK4 run leaves floats and whose post fails; the run is rolled
    # back with the left operand, so only the closed-form right run's
    # exact steps stay in the trace
    ob = close("(<{x' = -x / 4}> x > 100) | "
               "(<{p' = w, w' = 1, t' = 1 & t <= 1}> p >= x)", FIND_WITNESS,
               {v: (F(-1), F(1)) for v in ("x", "p", "w")})
    verdict = check(ob, SearchConfig(budget=2000))
    assert verdict.to_json()["certificate"] == {
        "assignment": {"p": "-1", "w": "-1", "x": "-1"},
        "scripts": [[{"duration": "0"}]],
        "exact": True,
    }
    assert verdict.status == WITNESS_FOUND
    assert [step.label for step in verdict.counterexample.trace] == [
        "init", "ode"]


def test_a_float_overwritten_after_rk4_leaves_the_certificate_numeric():
    # the run's end state is exact again, but RK4 ran in the replay
    ob = close("<{x' = -x / 4}; x := 0> x = 0", FIND_WITNESS,
               {"x": (F(-1), F(1))})
    verdict = check(ob, SearchConfig(budget=100))
    assert verdict.status == WITNESS_FOUND
    assert verdict.to_json()["certificate"]["exact"] is False


def test_a_certificate_never_certified_is_exact():
    cex = Counterexample({"x": F(1)}, [[Branch("left")]])
    assert not cex.numeric_only
    assert cex.to_json()["exact"] is True


def test_each_decision_kind_round_trips_through_script_and_json():
    # one table spells a decision in script files and certificate JSON
    decisions = [LoopCount(3), RandomValue(F(-9, 5)), Branch("left"),
                 Duration(F(1, 3))]
    assert [type(d) for d in decisions] == [
        kind for kind, _ in semantics.DECISIONS.values()]
    blobs = []
    for decision in decisions:
        assert parse_script(format_script([decision])) == [decision]
        blob = json.loads(json.dumps(checker._decision_json(decision)))
        [(keyword, argument)] = blob.items()
        kind, read = semantics.DECISIONS[keyword]
        assert kind(read(argument)) == decision
        blobs.append(blob)
    assert blobs == [{"loop": 3}, {"value": "-9/5"}, {"branch": "left"},
                     {"duration": "1/3"}]
    with pytest.raises(TypeError):
        format_script([Branch("left"), F(1)])
    with pytest.raises(TypeError):
        checker._decision_json(F(1))


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
    assert cex.scripts == [[Branch("right")]]
    cex.scripts[0][0] = Branch("left")
    assert not certify(cex, ob)


def test_certify_takes_back_a_left_operand_that_fails():
    # the left diamond runs on the script that witnesses the right one and
    # fails; the replay takes that run back, its trace included
    ob = close("(<y := x> y >= 100) | <y := x + 1> y <= 2", FIND_WITNESS,
               {"x": (F(0), F(10))})
    cex = check(ob, SearchConfig(budget=1000)).counterexample
    assert cex.scripts == [[]]
    assert certify(cex, ob)
    assert [step.label for step in cex.trace] == ["init", "y := ..."]
    assert cex.trace[-1].state["y"] == cex.assignment["x"] + 1


# One obligation per kind of node that search decides: (matrix, kind, the
# scripts found, a perturbation of the certificate as (assignment,
# scripts) -> (assignment, scripts)).  The found certificate must certify
# and the perturbed one must not.
EVIDENCE_CASES = {
    "leaf": (  # holds no formula of its own: x = 1 does not refute x <= 5
        "x <= 5", FALSIFY_UNIVERSAL, [],
        lambda a, s: ({"x": F(1)}, s)),
    "both-and": (
        "x >= 3 & <y := x + 1> y >= 5", FIND_WITNESS, [[]],
        lambda a, s: (a, [])),
    "pick-or": (
        "x >= 8 | <y := x + 1> y <= 2", FIND_WITNESS, [[]],
        lambda a, s: ({"x": F(5)}, s)),
    "pick-implies": (
        "x >= 0 -> <y := x + 1> y >= 3", FIND_WITNESS, [[]],
        lambda a, s: (a, s + [[]])),
    "script-box": (
        "[{y := x ++ y := x + 5}; z := y] z <= 3", FALSIFY_UNIVERSAL,
        [[Branch("right")]],
        lambda a, s: (a, [[Branch("left")]])),
    "script-diamond": (
        "<y := x ++ y := -x> y <= -1", FIND_WITNESS, [[Branch("right")]],
        lambda a, s: (a, [[Branch("left")]])),
    "goal-witness": (
        "<v := *; ?v >= x> v = x + 1", FIND_WITNESS, [[RandomValue(F(1))]],
        lambda a, s: (a, [[RandomValue(s[0][0].value + 1)]])),
    "goal-refutation": (
        "<v := *; ?v >= 2> v = x", FALSIFY_UNIVERSAL, [[RandomValue(F(0))]],
        lambda a, s: (a, [[RandomValue(s[0][0].value + 1)]])),
}


@pytest.mark.parametrize("case", EVIDENCE_CASES)
def test_each_evidence_kind_is_found_and_certified(case):
    text, kind, expected, perturb = EVIDENCE_CASES[case]
    ob = close(text, kind, {"x": (F(0), F(10))})
    verdict = check(ob, SearchConfig(budget=1000))
    assert verdict.found
    cex = verdict.counterexample
    assert cex.scripts == expected
    assert certify(cex, ob)
    assert not certify(Counterexample(*perturb(cex.assignment, cex.scripts)),
                       ob)


def test_verdict_json_schema():
    ob = close("x <= 5", FALSIFY_UNIVERSAL, {"x": (F(0), F(10))})
    blob = check(ob).to_json()
    assert set(blob) == {"obligation", "kind", "verdict", "evaluations",
                         "seed", "certificate"}
    cert = blob["certificate"]
    assert set(cert) == {"assignment", "scripts", "exact"}
    assert cert["exact"] is True


def test_uncoverable_symbols_rejected():
    ob = Obligation("bad", parse_formula("x <= y"), FALSIFY_UNIVERSAL,
                    {"x": (F(0), F(1))}, {})
    with pytest.raises(CheckError):
        check(ob)


def test_discrete_without_values_for_a_search_variable_is_rejected(
        monkeypatch):
    # named before any candidate is drawn, not a KeyError from the stream
    monkeypatch.setattr(checker, "_candidates", None)
    ob = close("x <= y & z <= 1", FALSIFY_UNIVERSAL,
               {"x": (F(0), F(1)), "y": (F(0), F(1)), "z": (F(0), F(1))})
    with pytest.raises(CheckError, match=r"no discrete values for: \['y'\]$"):
        check(ob, SearchConfig(discrete={"x": [F(0)], "z": [F(1)]}))
    with pytest.raises(CheckError, match=r"for: \['x', 'z'\]$"):
        check(ob, SearchConfig(discrete={"x": [], "y": [F(1)]}))


def test_quantified_variable_without_an_interval_is_rejected():
    # named before any candidate is drawn, not a KeyError from the stream
    # or from the midpoint of a variable the matrix does not read
    ob = Obligation("t", parse_formula("forall x (x >= 0)"),
                    FALSIFY_UNIVERSAL, {}, {})
    with pytest.raises(CheckError, match=r"no search interval for: \['x'\]$"):
        check(ob, SearchConfig(budget=100))
    ob = Obligation("t", parse_formula("exists y exists x exists z (x >= 0)"),
                    FIND_WITNESS, {"x": (F(0), F(1))}, {})
    with pytest.raises(CheckError, match=r"for: \['y', 'z'\]$"):
        check(ob, SearchConfig(budget=100))
    # discrete mode draws a search variable from its list, not its box
    with pytest.raises(CheckError, match=r"for: \['y', 'z'\]$"):
        check(ob, SearchConfig(discrete={"x": [F(2)]}))
    ob = Obligation("t", parse_formula("exists x (x >= 0)"), FIND_WITNESS,
                    {}, {})
    verdict = check(ob, SearchConfig(discrete={"x": [F(-1), F(2)]}))
    assert verdict.status == WITNESS_FOUND
    assert verdict.counterexample.assignment == {"x": F(2)}


def test_budget_is_respected():
    ob = close("x^2 >= 0", FALSIFY_UNIVERSAL, {"x": (F(-1), F(1))})
    verdict = check(ob, SearchConfig(budget=100))
    assert 100 <= verdict.stats.evaluations <= 140


def test_budget_above_the_largest_index_is_taken():
    # a budget no list index reaches decides a first-order matrix as an
    # ample one does
    ob = close("x <= 5", FALSIFY_UNIVERSAL, {"x": (F(0), F(10))})
    huge, ample = (check(ob, SearchConfig(budget=budget))
                   for budget in (10**20, 5000))
    assert huge.status == ample.status == FALSIFIED
    assert huge.stats == ample.stats
    assert huge.counterexample.to_json() == ample.counterexample.to_json()


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


# sha256 over the verdict, evaluations, candidates and certificate JSON of 50
# seeded finite obligations, each checked exhaustively with an ample budget
# and with a budget of 40 that cuts some of them short; taken before the
# exhaustive loop was streamlined, so every count it pins is the old one.
EXHAUSTIVE_DIGEST = \
    "ec26121c7d9e3e111349b0fbfd0288ceba0c85f976d296b0b7db32853402d572"


def test_exhaustive_outcomes_are_pinned():
    values = tuple(F(k) for k in range(-2, 3))
    discrete = {v: list(values) for v in ORACLE_VARS}
    rng = random.Random(2024)
    digest = hashlib.sha256()
    for _ in range(50):
        ob = random_finite_obligation(rng, values)
        for budget in (2_000_000, 40):
            verdict = check(ob, SearchConfig(budget=budget, discrete=discrete))
            record = dict(verdict.to_json(),
                          candidates=verdict.stats.candidates)
            digest.update(json.dumps(record, sort_keys=True).encode())
    assert digest.hexdigest() == EXHAUSTIVE_DIGEST


def _first_order_obligations():
    """Modality-free, quantifier-free tests/gen.py matrices over 1-4
    variables, closed by Forall or Exists in a shuffled order, some with a
    variable fixed as a constant, then the edge cases: a name quantified
    twice, a one-point box, a folded constant and no search variable."""
    rng = random.Random(21)
    out = []
    while len(out) < 60:
        matrix = random_formula(rng, 3)
        names = sorted(free_variables(matrix))
        if not (is_quantifier_free(matrix) and is_fol(matrix)
                and 1 <= len(names) <= 4):
            continue
        kind = rng.choice((FALSIFY_UNIVERSAL, FIND_WITNESS))
        fixed = {}
        if len(names) > 1 and rng.random() < 0.3:
            fixed[names.pop(rng.randrange(len(names)))] = F(
                rng.randint(-3, 3), rng.choice((1, 2, 3)))
        box = {}
        for name in names:
            lo = F(rng.randint(-4, 2), rng.choice((1, 2, 3)))
            box[name] = (lo, lo + F(rng.randint(0, 4), rng.choice((1, 3))))
        rng.shuffle(names)
        formula = matrix
        for name in reversed(names):
            formula = (Forall if kind == FALSIFY_UNIVERSAL else Exists)(
                name, formula)
        out.append(Obligation(f"fo{len(out)}", formula, kind, box, fixed))
    two = {"x": (F(0), F(2)), "y": (F(0), F(2))}
    out += [
        Obligation("twice", parse_formula(
            "forall x forall y forall x (x <= 1 | y > 1)"),
            FALSIFY_UNIVERSAL, two, {}),
        Obligation("twice_exists", parse_formula(
            "exists x exists y exists x (x > 3/2 & y < 1/2)"),
            FIND_WITNESS, two, {}),
        close("x * y <= 1", FALSIFY_UNIVERSAL,
              {"x": (F(1, 3), F(1, 3)), "y": (F(-1), F(3))}),
        Obligation("folded", parse_formula("forall x (c * x <= c + 1)"),
                   FALSIFY_UNIVERSAL, {"x": (F(0), F(2))}, {"c": F(3, 2)}),
        Obligation("unread", parse_formula("forall x (c <= 1)"),
                   FALSIFY_UNIVERSAL, {"x": (F(-1), F(2))}, {"c": F(2)}),
        Obligation("closed", parse_formula("1 <= 2 & c > 0"),
                   FIND_WITNESS, {}, {"c": F(1)}),
    ]
    return out


# _outcomes_digest (below) of every obligation above at budgets 1, 37 and
# 2 000; taken before first-order matrices were compiled to read the
# candidate tuple.
FIRST_ORDER_DIGEST = \
    "a34870a073331081d8e05bdb2fbbf7545ae95c3565baa320e084979889a11a11"


def test_first_order_outcomes_are_pinned():
    assert _outcomes_digest(_first_order_obligations(), (1, 37, 2000)) \
        == FIRST_ORDER_DIGEST


def _goal_obligations():
    """The bundled models' goal-directed obligations, `rho` and `friendly`,
    then API goals: a goal variable the obligation does not quantify and
    that the matrix also reads outside its goal, one fixed as a constant, a
    goal under `!`, `|` and `->`, a goal with no search variable, divisions
    by a variable in a goal's test and in its pinned term, a modal `<->`,
    an inner quantifier, and a goal's test with a quantifier or a
    modality."""
    out = [ob for model_id in ("m2", "m4") for zeta in ("zeta1", "zeta2")
           for selector in ("rho", "friendly")
           for ob in obligations_for(builtin(model_id), zeta, selector)]
    y = {"y": (F(-2), F(3))}
    for name, text, kind, box, fixed in [
            ("free", "forall y (x + y <= 1 | <x := *; ?2 * x >= y> x = y - 1)",
             FALSIFY_UNIVERSAL, y, {}),
            ("free_outside",
             "exists y ((<x := *; ?x * y > 1> x = y / 2) & x < 1)",
             FIND_WITNESS, y, {}),
            ("fixed", "forall y (x > y | <x := *; ?x > 0> x = y)",
             FALSIFY_UNIVERSAL, y, {"x": F(2)}),
            ("negated", "forall y (!(<x := *; ?x > 1> x = y) | y < 0)",
             FALSIFY_UNIVERSAL, y, {}),
            ("pick", "exists y ((<x := *; ?x > 1> x = y) | y < -1/2)",
             FIND_WITNESS, y, {}),
            ("modal_left", "forall y ((<x := *; ?x > 0> x = y) -> y > 1/2)",
             FALSIFY_UNIVERSAL, y, {}),
            ("two_goals", "forall y forall z ((<x := *; ?x >= z> x = y + z)"
             " -> (<w := *; ?w * c < y> w = z))", FALSIFY_UNIVERSAL,
             {"y": (F(-2), F(3)), "z": (F(0), F(1, 3))}, {"c": F(3, 2)}),
            ("closed", "<x := *; ?x > c> x = 2", FIND_WITNESS, {},
             {"c": F(1)}),
            ("test_divides", "forall y (<x := *; ?1 / y >= x> x = y)",
             FALSIFY_UNIVERSAL, {"y": (F(-1), F(1))}, {}),
            ("test_divides_late", "exists y (<x := *; ?x / y < 0> x = y * y)",
             FIND_WITNESS, {"y": (F(-1), F(1))}, {}),
            ("pin_divides", "forall y (<x := *; ?x >= 0> x = 1 / y)",
             FALSIFY_UNIVERSAL, {"y": (F(0), F(2))}, {}),
            ("iff", "forall y ((<x := *; ?x > 0> x = y) <-> y > 0)",
             FALSIFY_UNIVERSAL, y, {}),
            ("inner", "forall y ((<x := *; ?x > 0> x = y) & exists z (z > y))",
             FALSIFY_UNIVERSAL, y, {}),
            ("test_quantifies",
             "forall y (<x := *; ?(exists z (z > x))> x = y)",
             FALSIFY_UNIVERSAL, y, {}),
            ("test_modal", "forall y (<x := *; ?[y := 1] x > y> x = y)",
             FALSIFY_UNIVERSAL, y, {})]:
        out.append(Obligation(name, parse_formula(text), kind, box, fixed))
    return out


def _outcomes_digest(obligations, budgets, discrete_budgets=(37, 2000)):
    """sha256 over the verdict JSON and candidates of each obligation, or
    the exception it raises (a ZeroDivisionError by its type alone: its
    message differs between Python versions), sampled at `budgets` with
    seeds 0 and 7, and in discrete mode, over -1, 0, 1/2 and 2 for each
    quantified variable, at `discrete_budgets`."""
    values = [F(-1), F(0), F(1, 2), F(2)]
    configs = [SearchConfig(budget=budget, seed=seed)
               for budget in budgets for seed in (0, 7)]
    digest = hashlib.sha256()
    for ob in obligations:
        discrete = {v: values for v in ob.split()[0]}
        for config in configs + [SearchConfig(budget=budget, discrete=discrete)
                                 for budget in discrete_budgets]:
            try:
                verdict = check(ob, config)
            except ZeroDivisionError:
                record = {"raised": "ZeroDivisionError"}
            except Exception as exc:
                record = {"raised": f"{type(exc).__name__}: {exc}"}
            else:
                record = dict(verdict.to_json(),
                              candidates=verdict.stats.candidates)
            digest.update(json.dumps(record, sort_keys=True).encode())
    return digest.hexdigest()


# _outcomes_digest of the goal obligations above at budgets 1, 17, 37 and
# 2 000 (m2 zeta1 `rho` is found after 17 evaluations); taken before
# goal-directed matrices were decided a block of candidates at a time, and
# taken again when a goal's test with a quantifier or a modality came to
# raise QuantifierInFormula instead of a TypeError: the records of
# `test_quantifies` and `test_modal` changed, and no other.
GOAL_DIGEST = \
    "2c46aec32c36e71c91d1de20bdfe01c5289798e7878f0a678e6e6775557c68a8"


def test_goal_outcomes_are_pinned():
    assert _outcomes_digest(_goal_obligations(), (1, 17, 37, 2000)) \
        == GOAL_DIGEST


def _program_nodes(program):
    yield program
    if isinstance(program, Loop):
        yield from _program_nodes(program.body)
    elif isinstance(program, (Choice, Seq)):
        for side in program.fields:
            yield from _program_nodes(side)


def _closed_form_odes(program, rng):
    """`program` with each ODE, which tests/gen.py never draws in the
    closed-form template, replaced by a double integrator with clock over
    the pool under a domain conjunct the template takes: a non-strict,
    a strict and a `!=` one on velocity and clock, or none."""
    if isinstance(program, ODE):
        pos, vel, clock = rng.sample(("x", "v", "w", "t1"), 3)
        domain = rng.choice((f"{vel} >= 0", f"{clock} <= 1",
                             f"{vel} + {clock} > -1", f"{vel} != 1/2", "true"))
        return parse_program(f"{{{pos}' = {vel}, {vel}' = a, {clock}' = 1 "
                             f"& {domain}}}")
    if isinstance(program, Loop):
        return Loop(_closed_form_odes(program.body, rng))
    if isinstance(program, (Choice, Seq)):
        return type(program)(*(_closed_form_odes(side, rng)
                               for side in program.fields))
    return program


def _modal_obligations(numeric):
    """Seeded tests/gen.py programs of depth 4 with at least five nodes and
    first-order tests, under a box to falsify or a diamond to witness, with
    a modality-free post and, at times, a side condition, quantified over
    every variable in a positive box; their ODEs in the closed-form
    template, or left numeric (`numeric`: only those with an ODE).  Without
    `numeric` the distinct `all` obligations of the bundled models under
    each invariant follow, and m4's `psi`."""
    rng = random.Random(28)
    out = []
    while len(out) < (6 if numeric else 80):
        program = random_program(rng, 4)
        nodes = list(_program_nodes(program))
        if len(nodes) < 5 or numeric > any(type(n) is ODE for n in nodes) \
                or not all(is_fol(n.condition) and is_quantifier_free(
                    n.condition) for n in nodes if type(n) is Test):
            continue
        if not numeric:
            program = _closed_form_odes(program, rng)
        side, post = random_formula(rng, 2), random_formula(rng, 2)
        if not all(is_fol(f) and is_quantifier_free(f) for f in (side, post)):
            continue
        kind = rng.choice((FALSIFY_UNIVERSAL, FIND_WITNESS))
        matrix = (Box if kind == FALSIFY_UNIVERSAL else Diamond)(program, post)
        if rng.random() < 0.3:
            matrix = (Implies if kind == FALSIFY_UNIVERSAL else And)(side,
                                                                     matrix)
        names = sorted(free_variables(matrix))
        box = {name: (F(rng.randint(1, 3), 3), F(rng.randint(4, 9), 3))
               for name in names}
        formula = matrix
        for name in reversed(names):
            formula = (Forall if kind == FALSIFY_UNIVERSAL else Exists)(
                name, formula)
        out.append(Obligation(f"modal{len(out)}", formula, kind, box, {}))
    if not numeric:
        seen = set()
        for model_id in MODEL_IDS:
            model = builtin(model_id)
            for zeta in model.invariants:
                for ob in obligations_for(model, zeta, "all"):
                    if repr(ob) not in seen:
                        seen.add(repr(ob))
                        out.append(ob)
        out += obligations_for(builtin("m4"), "zeta_iter", "psi")
    return out


# _outcomes_digest of the closed-form modal obligations above at budgets 1,
# 37 and 400, then of the numeric ones at 1 and 37 (RK4 bisection makes a
# few hundred take seconds); taken before programs were compiled against
# their continuation, with a quantifier in a test already raising
# QuantifierInFormula.
MODAL_DIGEST = \
    "b471d737038e5c71ff556e134ad6651909297744cc19e505447338c4af076c8f"


def test_modal_outcomes_are_pinned():
    digest = _outcomes_digest(_modal_obligations(False), (1, 37, 400))
    numeric = _outcomes_digest(_modal_obligations(True), (1, 37), (37,))
    assert hashlib.sha256((digest + numeric).encode()).hexdigest() \
        == MODAL_DIGEST


def test_goal_pin_divides_where_its_test_does_not_read_it():
    # the pin is bound before the test is evaluated, so its zero divisor
    # raises on the first candidate, y = 0, though the test drops it
    ob = Obligation("pin_dropped",
                    parse_formula("forall y (<x := *; ?y >= 0> x = 1 / y)"),
                    FALSIFY_UNIVERSAL, {"y": (F(0), F(2))}, {})
    with pytest.raises(ZeroDivisionError):
        check(ob, SearchConfig(budget=2000))


# sha256 over repr of the first 6 000 candidates of 1, 2, 3 and 5 search
# variables, with dyadic, non-dyadic and one-point box ends, at seeds 0 and
# 7: the grid levels and the samples after them, read as rows across the
# blocks of the stream; taken before the candidate stream was rewritten.
CANDIDATE_STREAM_DIGEST = \
    "9652500d83549a9914abfdff89875cd9b8ff1b58c675a60c79372a0c2e835d88"


def test_candidate_stream_is_pinned():
    box = {"x": (F(-1), F(1)), "y": (F(-1, 3), F(7, 5)), "z": (F(0), F(10)),
           "w": (F(-5, 2), F(3, 8)), "u": (F(1, 7), F(2, 3)),
           "d": (F(1, 3), F(1, 3))}
    digest = hashlib.sha256()
    for names in ("x", "y", "xz", "ywd", "xyzwu"):
        for seed in (0, 7):
            stream = checker._rows(checker._candidates(
                list(names), box, SearchConfig(seed=seed), "pinned"))
            for values in itertools.islice(stream, 6000):
                digest.update(repr(values).encode())
    assert digest.hexdigest() == CANDIDATE_STREAM_DIGEST


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
