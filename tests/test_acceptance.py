"""End-to-end acceptance checks.

Each test prints one pass/fail line directly to the terminal, bypassing
output capture, so a full run always shows the per-criterion outcome.
"""

import io
import json
import random
import time
from contextlib import redirect_stdout
from fractions import Fraction

import pytest

from gen import (
    ORACLE_VARS, brute_force_decide, closed_form_state,
    random_finite_obligation, random_formula, random_program,
)
from hpcheck.checker import (
    FALSIFIED, NO_WITNESS_FOUND, NOT_FALSIFIED, WITNESS_FOUND, SearchConfig,
    certify, check, derive_controller_witness,
)
from hpcheck.cli import main
from hpcheck.models import MODEL_IDS, builtin, fig2_script
from hpcheck.obligations import FALSIFY_UNIVERSAL, psi_obligation
from hpcheck.parser import parse_formula, parse_program, parse_term
from hpcheck.printer import print_formula, print_program
from hpcheck.semantics import (
    Aborted, Final, RandomValue, _compile_numeric, closed_form_template, run,
)
from hpcheck.syntax import substitute

DEFAULT_BUDGET = 200_000


def _report(capfd, number, ok, detail):
    line = (f"acceptance criterion {number}: "
            f"{'PASS' if ok else 'FAIL'} - {detail}")
    with capfd.disabled():
        print(line, flush=True)
    assert ok, line


def _run_table2(*argv):
    buffer = io.StringIO()
    start = time.perf_counter()
    with redirect_stdout(buffer):
        code = main(["table2", "--format", "json", *argv])
    return code, buffer.getvalue(), time.perf_counter() - start


@pytest.fixture(scope="module")
def table2_full():
    code, text, elapsed = _run_table2()
    return code, json.loads(text), elapsed


def _verdicts_by_name(row):
    return {v["obligation"]: v for v in row["verdicts"]}


def test_criterion_1_walkthrough_exact(capfd):
    start = time.perf_counter()
    model = builtin("m2")
    state = {"x": Fraction(0), "v": Fraction(0), "xc": Fraction(1),
             "a": Fraction(9, 5), "tau": Fraction(0), "xc_post": Fraction(0)}
    state.update(model.constant_values())
    outcome, _ = run(state, model.loop_program(), fig2_script())
    elapsed = time.perf_counter() - start
    ok = (isinstance(outcome, Aborted)
          and outcome.state["x"] == Fraction(9, 10)
          and outcome.state["v"] == Fraction(9, 5)
          and isinstance(outcome.state["x"], Fraction)
          and elapsed < 1.0)
    _report(capfd, 1, ok,
            f"x = {outcome.state['x']}, v = {outcome.state['v']}, "
            f"aborted at env test, {elapsed:.3f}s")


def test_criterion_2_table_reproduction(capfd, table2_full):
    code, report, elapsed = table2_full
    rows = report["rows"]
    checks = [code == 0, report["all_match"], len(rows) == 8, elapsed <= 60.0]
    checks.append(report["config"]["budget"] == DEFAULT_BUDGET)
    # certified counterexamples/witnesses on the "No" rows
    rho1_m2 = _verdicts_by_name(rows[1])["rho"]
    checks.append(rho1_m2["verdict"] == FALSIFIED
                  and rho1_m2["certificate"]["exact"])
    step_m2z2 = _verdicts_by_name(rows[2])["loop_ii"]
    checks.append(step_m2z2["verdict"] == FALSIFIED
                  and step_m2z2["certificate"]["exact"])
    not_chi_m3 = _verdicts_by_name(rows[4])["not_chi"]
    checks.append(not_chi_m3["verdict"] == NO_WITNESS_FOUND)
    checks.append(rows[4]["reason"] == "Invariant preserved without controller")
    rho_m4z1 = _verdicts_by_name(rows[6])["rho"]
    checks.append(rho_m4z1["verdict"] == FALSIFIED
                  and rho_m4z1["certificate"]["exact"])
    # "Yes" rows: universal claims unfalsified, existential conjuncts witnessed
    for index in (0, 3, 5, 7):
        for verdict in rows[index]["verdicts"]:
            expected = (NOT_FALSIFIED
                        if verdict["kind"] == FALSIFY_UNIVERSAL
                        else WITNESS_FOUND)
            checks.append(verdict["verdict"] == expected)
    checks.append("not proofs" in report["caveat"])
    matches = sum(1 for r in rows if r["match"])
    _report(capfd, 2, all(checks), f"{matches}/8 rows match in {elapsed:.1f}s "
            f"at budget {DEFAULT_BUDGET}")


def test_criterion_3_necessity_witness_and_derivation(capfd):
    model = builtin("m4")
    zeta_iter = model.invariants["zeta_iter"]
    instantiation = parse_term("-anmin")
    psi = psi_obligation(model, zeta_iter, "a", instantiation)
    verdict = check(psi, SearchConfig(budget=DEFAULT_BUDGET))
    found = verdict.status == WITNESS_FOUND
    certified = found and certify(verdict.counterexample, psi)
    derived_ok = False
    if certified:
        zeta_inst = substitute(zeta_iter, "a", instantiation)
        not_chi, derived = derive_controller_witness(model, zeta_inst, verdict)
        derived_ok = (derived.status == WITNESS_FOUND
                      and certify(derived.counterexample, not_chi)
                      and not derived.counterexample.numeric_only)
    _report(capfd, 3, found and certified and derived_ok,
            f"witness in {verdict.stats.evaluations} evaluations, "
            f"uncontrolled-step witness derived and re-certified")


def test_criterion_4_consistency_across_seeds(capfd, table2_full):
    _, report, _ = table2_full
    row = report["rows"][7]  # the corrected model with the strong invariant
    named = _verdicts_by_name(row)
    premises = (named["loop_ii"]["verdict"] == NOT_FALSIFIED
                and named["rho"]["verdict"] == NOT_FALSIFIED)
    model = builtin("m4")
    from hpcheck.obligations import exploit_witness_formula
    exploit = exploit_witness_formula(model, model.invariants["zeta2"])
    statuses = []
    for seed in range(10):
        verdict = check(exploit, SearchConfig(budget=DEFAULT_BUDGET, seed=seed))
        statuses.append(verdict.status)
    ok = premises and all(s == NO_WITNESS_FOUND for s in statuses)
    _report(capfd, 4, ok, "step and reachability unfalsified; no exploit "
            f"witness across {len(statuses)} seeds")


def test_criterion_5_oracle_equivalence(capfd):
    values = tuple(Fraction(k) for k in range(-4, 5))  # 9^2 = 81 points
    grid = {v: values for v in ORACLE_VARS}
    config = SearchConfig(budget=5_000_000,
                          discrete={v: list(values) for v in ORACLE_VARS})
    rng = random.Random(2024)
    agreements = 0
    for _ in range(50):
        obligation = random_finite_obligation(rng, values)
        expected = brute_force_decide(obligation, grid)
        verdict = check(obligation, config)
        if verdict.found != expected:
            break
        if verdict.found and not certify(verdict.counterexample, obligation):
            break
        agreements += 1
    _report(capfd, 5, agreements == 50,
            f"{agreements}/50 obligations agree with brute force")


def test_criterion_6_ode_fidelity(capfd):
    ode = parse_program("{x' = v, v' = a, tau' = 1 & v >= 0 & tau <= T}")
    template = closed_form_template(ode)
    evolve = _compile_numeric(ode)  # the RK4 kernel, as if no template
    rng = random.Random(99)
    worst = 0.0
    samples = 0
    while samples < 1000:
        state = {"x": Fraction(rng.randint(-16, 16), 4),
                 "v": Fraction(rng.randint(0, 20), 4),
                 "a": Fraction(rng.randint(-12, 12), 4),
                 "tau": Fraction(0), "T": Fraction(1)}
        duration = Fraction(rng.randint(0, 64), 64)
        if state["v"] + state["a"] * duration < 0:
            continue
        samples += 1
        exact = closed_form_state(state, template, duration)
        numeric = evolve(state, duration)
        assert isinstance(numeric, Final)
        for var in ("x", "v", "tau"):
            worst = max(worst, abs(float(exact[var]) - numeric.state[var]))
    _report(capfd, 6, worst < 1e-6,
            f"max deviation {worst:.2e} over {samples} samples")


def test_criterion_7_parser_round_trip(capfd):
    rng = random.Random(1234)
    survived = 0
    total = 10_000
    for index in range(total):
        depth = rng.randint(0, 8)
        if index % 2 == 0:
            node = random_formula(rng, depth)
            ok = parse_formula(print_formula(node)) == node
        else:
            node = random_program(rng, depth)
            ok = parse_program(print_program(node)) == node
        if not ok:
            break
        survived += 1
    shapes_ok = all(not builtin(m).nonstandard_shape for m in MODEL_IDS)
    _report(capfd, 7, survived == total and shapes_ok,
            f"{survived}/{total} ASTs round-trip; bundled models standard")


def test_criterion_8_byte_determinism(capfd):
    outputs = []
    for _ in range(4):
        code, text, _ = _run_table2("--budget", "5000", "--seed", "7")
        outputs.append((code, text.encode()))
    identical = all(result == outputs[0] for result in outputs)
    _report(capfd, 8, identical,
            "byte-identical JSON across four repeated runs")
