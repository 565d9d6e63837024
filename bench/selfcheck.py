#!/usr/bin/env python3
"""Self-check of the benchmark's reference computations.

    python3 bench/selfcheck.py

Produces real program outputs for each workload, confirms the reference
accepts them, then corrupts them (a flipped verdict, a perturbed
certificate value, a shifted trace state) and confirms the reference
rejects every corrupted copy.  Exits 0 when every check holds.
"""

from __future__ import annotations

import contextlib
import copy
import io
import json
import random
import sys
from dataclasses import replace
from fractions import Fraction

from inputs import (
    ORACLE_VALUES, ORACLE_VARS, oracle_config, oracle_stream, replay_request,
    to_program_obligation, to_program_script,
)
from reference import (
    Simulator, check_oracle_verdict, check_table2 as table2_errors,
    compare_outcome, compare_trace,
)
from run import SRC, fresh_import

failures = []


def expect(label, ok):
    print(f"{'PASS' if ok else 'FAIL'}  {label}")
    if not ok:
        failures.append(label)


def selfcheck_oracle(hp):
    rng = random.Random(7)
    stream = oracle_stream(rng)
    config = oracle_config(hp)
    accepted = flipped = perturbed = found = 0
    for index in range(60):
        spec = next(stream)
        verdict = hp.check(to_program_obligation(hp, spec, f"self_{index}"), config)
        cex = verdict.counterexample
        assignment = cex.assignment if cex is not None else None
        args = (ORACLE_VARS, ORACLE_VALUES)
        accepted += check_oracle_verdict(spec, verdict.found, verdict.status,
                                         assignment, *args) is None
        flipped += check_oracle_verdict(spec, not verdict.found, verdict.status,
                                        assignment, *args) is not None
        if verdict.found:
            found += 1
            off_grid = {**assignment, "x": assignment["x"] + Fraction(1, 2)}
            perturbed += check_oracle_verdict(spec, True, verdict.status,
                                              off_grid, *args) is not None
    expect(f"oracle: 60/60 real verdicts accepted ({accepted})", accepted == 60)
    expect(f"oracle: 60/60 flipped verdicts rejected ({flipped})", flipped == 60)
    expect(f"oracle: {found}/{found} perturbed certificates rejected "
           f"({perturbed})", found > 0 and perturbed == found)


def selfcheck_table2(hp):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = hp.cli.main(["table2", "--format", "json", "--budget", "2000"])
    report = json.loads(buf.getvalue())
    expect("table2: real report accepted", not table2_errors(code, report))

    flipped = copy.deepcopy(report)
    first = flipped["rows"][0]["verdicts"][0]
    first["verdict"] = "falsified"
    expect("table2: flipped verdict rejected", bool(table2_errors(code, flipped)))

    certificates = [(r, i) for r, row in enumerate(report["rows"])
                    for i, v in enumerate(row["verdicts"]) if "certificate" in v]
    expect(f"table2: report carries certificates ({len(certificates)})",
           len(certificates) >= 3)
    for r, i in certificates:
        corrupted = copy.deepcopy(report)
        verdict = corrupted["rows"][r]["verdicts"][i]
        assignment = verdict["certificate"]["assignment"]
        if verdict["obligation"] == "rho":
            assignment["xc_post"] = str(Fraction(assignment["xc_post"])
                                        + Fraction(1, 1000))
        else:
            assignment["x"] = str(Fraction(assignment["x"]) + 100)
        expect(f"table2: perturbed {verdict['obligation']} certificate in row "
               f"{r} rejected", bool(table2_errors(code, corrupted)))


def selfcheck_replay(hp):
    rng = random.Random(11)
    shifted_exact = shifted_float = outcomes = accepted = checked = 0
    for index in range(12):
        request = replay_request(rng, index)
        model = hp.parse_model(request["text"], name=f"self_{index}")
        for script in request["scripts"]:
            outcome, trace = hp.run(request["state"], model.loop_program(),
                                    to_program_script(hp, script))
            sim = Simulator(request["model"], request["state"], script)
            expected = sim.finish()
            kind = "final" if isinstance(outcome, hp.semantics.Final) else "aborted"
            accepted += (compare_trace(sim.steps, trace) is None
                         and compare_outcome(expected, kind, outcome.state) is None)
            checked += 1
            step = trace[-1]
            value = step.state["x"]
            delta = 1e-6 if isinstance(value, float) else Fraction(1, 1000)
            bad = trace[:-1] + [replace(step, state={**step.state, "x": value + delta})]
            rejected = compare_trace(sim.steps, bad) is not None
            if isinstance(value, float):
                shifted_float += rejected
            else:
                shifted_exact += rejected
            flipped = "aborted" if kind == "final" else "final"
            outcomes += compare_outcome(expected, flipped, outcome.state) is not None
    expect(f"replay: {checked}/{checked} real traces accepted ({accepted})",
           accepted == checked)
    expect(f"replay: every shifted trace state rejected "
           f"({shifted_exact} exact, {shifted_float} drag)",
           shifted_exact + shifted_float == checked and shifted_float > 0)
    expect(f"replay: every flipped outcome rejected ({outcomes})",
           outcomes == checked)


def main():
    sys.path.insert(0, str(SRC))
    hp = fresh_import()
    selfcheck_oracle(hp)
    selfcheck_table2(hp)
    selfcheck_replay(hp)
    print(f"{len(failures)} failed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
