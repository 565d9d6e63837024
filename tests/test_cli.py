import csv
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from hpcheck import cli, semantics
from hpcheck.cli import main

SRC = Path(__file__).resolve().parent.parent / "src"
BROKEN_MODEL = "CONSTANTS\n  T = 1 : T > 0\nDOMAINS\n  x = [0, 1\n"


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_parse_builtin(capsys):
    code, out, _ = run_cli(capsys, "parse", "m2")
    assert code == 0
    assert "CONSTANTS" in out
    assert "INVARIANT zeta2" in out


def test_parse_json_report(capsys):
    code, out, _ = run_cli(capsys, "parse", "m4", "--format", "json")
    assert code == 0
    report = json.loads(out)
    assert report["model"] == "m4"
    assert report["nonstandard_shape"] is False
    assert report["invariants"] == ["zeta1", "zeta2", "zeta_iter"]
    assert len(report["model_hash"]) == 16


def test_parse_accepts_path(tmp_path, capsys):
    from hpcheck.models import builtin
    path = tmp_path / "copy.hpmodel"
    path.write_text(builtin("m2").source)
    code, out, _ = run_cli(capsys, "parse", str(path))
    assert code == 0
    assert "GUARANTEE" in out


def test_parse_error_exits_2(tmp_path, capsys):
    path = tmp_path / "broken.hpmodel"
    path.write_text(BROKEN_MODEL)
    code, _, err = run_cli(capsys, "parse", str(path))
    assert code == 2
    assert err.startswith("error:")


def test_deep_nesting_is_a_parse_error(tmp_path, capsys):
    from hpcheck.models import builtin
    source = builtin("m2").source
    assert "GUARANTEE\n  x <= xc\n" in source
    path = tmp_path / "deep.hpmodel"
    path.write_text(source.replace(
        "GUARANTEE\n  x <= xc\n",
        "GUARANTEE\n  " + "(" * 400 + "x <= xc" + ")" * 400 + "\n"))
    code, out, err = run_cli(capsys, "parse", str(path))
    assert (code, out) == (2, "")
    assert err.startswith("error: nesting too deep at line")
    assert "Traceback" not in err


def test_missing_file_exits_2(capsys):
    code, _, err = run_cli(capsys, "parse", "/nonexistent/model.hpmodel")
    assert code == 2
    assert "error" in err


def test_missing_required_flag_exits_2(capsys):
    with pytest.raises(SystemExit) as info:
        main(["check", "m2"])
    assert info.value.code == 2


def test_simulate_bundled_script_with_trace(tmp_path, capsys):
    trace_path = tmp_path / "trace.csv"
    code, out, _ = run_cli(capsys, "simulate", "m2", "--script", "fig2",
                           "--format", "json", "--trace", str(trace_path))
    assert code == 0
    report = json.loads(out)
    [run_report] = report["runs"]
    assert run_report["outcome"] == "aborted"
    assert run_report["state"]["x"] == "9/10"
    assert run_report["state"]["v"] == "9/5"
    with open(trace_path) as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["step", "construct", "t",
                       "x", "v", "xc", "xc_post", "a", "tau"]
    assert rows[1][0] == "0"
    assert rows[1][1] == "init"


def test_simulate_script_file(tmp_path, capsys):
    script = tmp_path / "one.script"
    script.write_text("loop 1\nvalue 2\nvalue 0\nbranch right\nduration 1\n")
    code, out, _ = run_cli(capsys, "simulate", "m2", "--script", str(script),
                           "--format", "json")
    assert code == 0
    [run_report] = json.loads(out)["runs"]
    assert run_report["outcome"] == "final"


def test_simulate_random(capsys):
    code, out, _ = run_cli(capsys, "simulate", "m2", "--random", "5",
                           "--format", "json")
    assert code == 0
    report = json.loads(out)
    assert report["config"] == {"seed": 0, "boxes": {}, "constants": {}}
    [summary] = report["runs"]
    assert summary["sampled"] == 5
    assert summary["aborted"] + summary["guarantee_violations"] <= 5


def test_simulate_needs_mode(capsys):
    code, _, err = run_cli(capsys, "simulate", "m2")
    assert code == 2
    assert "script or --random" in err


def test_simulate_random_needs_a_positive_count(tmp_path, capsys):
    # no run means no report and no trace, so an earlier file stays as is
    trace_path = tmp_path / "trace.csv"
    trace_path.write_text("stale\n")
    for count in ("0", "-3"):
        code, out, err = run_cli(capsys, "simulate", "m2", "--random", count,
                                 "--format", "json", "--trace",
                                 str(trace_path))
        assert (code, out) == (2, "")
        assert "--random needs N >= 1" in err
    assert trace_path.read_text() == "stale\n"


def test_check_rho_counterexample_exits_1(capsys):
    code, out, _ = run_cli(capsys, "check", "m2", "--invariant", "zeta1",
                           "--obligation", "rho", "--budget", "20000",
                           "--format", "json")
    assert code == 1
    report = json.loads(out)
    [verdict] = report["verdicts"]
    assert verdict["obligation"] == "rho"
    assert verdict["verdict"] == "falsified"
    cert = verdict["certificate"]
    assert set(cert) == {"assignment", "scripts", "exact"}
    assert cert["exact"] is True
    assert report["caveat"]


def test_check_loop_consistent_exits_0(capsys):
    code, out, _ = run_cli(capsys, "check", "m2", "--invariant", "zeta1",
                           "--obligation", "loop", "--budget", "3000",
                           "--format", "json")
    assert code == 0
    report = json.loads(out)
    assert [v["verdict"] for v in report["verdicts"]] == ["not_falsified"] * 3


def test_check_trace_is_written_when_nothing_is_found(tmp_path, capsys):
    # a finding writes its certificate's trace; a later run that finds
    # nothing leaves the header alone, not the earlier run's file
    trace_path = tmp_path / "trace.csv"
    code, _, _ = run_cli(capsys, "check", "m2", "--invariant", "zeta1",
                         "--obligation", "rho", "--budget", "2000",
                         "--trace", str(trace_path))
    assert code == 1
    assert len(trace_path.read_text().splitlines()) > 1
    code, _, _ = run_cli(capsys, "check", "m2", "--invariant", "zeta1",
                         "--obligation", "gamma", "--budget", "200",
                         "--trace", str(trace_path))
    assert code == 0
    with open(trace_path) as fh:
        rows = list(csv.reader(fh))
    assert rows == [["step", "construct", "t",
                     "x", "v", "xc", "xc_post", "a", "tau"]]


def test_check_psi_witness(capsys):
    code, out, _ = run_cli(capsys, "check", "m4", "--invariant", "zeta_iter",
                           "--obligation", "psi", "--budget", "20000",
                           "--format", "json")
    assert code == 1
    [verdict] = json.loads(out)["verdicts"]
    assert verdict["obligation"] == "psi"
    assert verdict["verdict"] == "witness_found"


def test_check_unknown_invariant_exits_2(capsys):
    code, _, err = run_cli(capsys, "check", "m2", "--invariant", "zeta9")
    assert code == 2
    assert "zeta9" in err


def test_check_text_output_mentions_caveat(capsys):
    code, out, _ = run_cli(capsys, "check", "m2", "--invariant", "zeta1",
                           "--obligation", "gamma", "--budget", "2000")
    assert code == 0
    assert "not proofs" in out


def test_check_const_override_changes_result(capsys):
    # m3's zeta2 is preserved at its own constants (50 000 evaluations
    # find nothing), and not at the lighter anmin = 1, asmin = 2
    code, out, _ = run_cli(capsys, "check", "m3", "--invariant", "zeta2",
                           "--obligation", "gamma", "--budget", "50000",
                           "--const", "anmin=1", "--const", "asmin=2",
                           "--format", "json")
    assert code == 1
    [verdict] = json.loads(out)["verdicts"]
    assert verdict["verdict"] == "falsified"


def test_const_override_must_satisfy_the_constraints(capsys):
    # each constraint is checked with every constant's value, overridden
    # or not: asmin = 4 fails asmin > anmin once anmin is 5
    for argv, message in (
            (("check", "m2", "--invariant", "zeta1", "--const", "T=-1"),
             "T = -1 violates its constraint T > 0"),
            (("simulate", "m2", "--const", "anmin=0", "--random", "3"),
             "anmin = 0 violates its constraint anmin > 0"),
            (("simulate", "m2", "--const", "anmin=5", "--random", "3"),
             "asmin = 4 violates its constraint asmin > anmin")):
        code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (2, "")
        assert err == f"error: --const: {message}\n"
    # an initial value for a state variable is no constant, but a name that
    # is neither is an error
    code, _, _ = run_cli(capsys, "simulate", "m2", "--const", "x=-5",
                         "--random", "3")
    assert code == 0
    code, out, err = run_cli(capsys, "simulate", "m2", "--const", "zz=3",
                             "--random", "2")
    assert (code, out) == (2, "")
    assert err == "error: unknown constant or variable 'zz'\n"


def test_a_constant_outside_its_constraint_is_a_parse_error(tmp_path,
                                                            capsys):
    # rejected before the search can divide by 2 * anmin = 0
    from hpcheck.models import builtin
    path = tmp_path / "zero.hpmodel"
    path.write_text(builtin("m2").source.replace("anmin = 3", "anmin = 0"))
    for argv in (("parse", str(path)),
                 ("check", str(path), "--invariant", "zeta1",
                  "--obligation", "rho")):
        code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (2, "")
        assert "value 0 of anmin violates its constraint anmin > 0" in err


def test_bad_box_flag_exits_2(capsys):
    # a malformed interval, an empty one as DOMAINS rejects it, and a
    # variable that neither DOMAINS nor a `_post`/`_prev` name of it gives
    for box, message in (("x=oops", "bad box"),
                         ("x=a:1", "error: bad box bound 'a' in 'a:1'\n"),
                         ("x=0:1+", "error: bad box bound '1+' in '0:1+'\n"),
                         ("v=2:1", "empty box interval"),
                         ("Q=0:1", "unknown box variable")):
        code, out, err = run_cli(capsys, "check", "m2", "--invariant", "zeta1",
                                 "--box", box)
        assert (code, out) == (2, "")
        assert message in err


def test_flags_a_command_does_not_read_exit_2(capsys):
    # table2 reads only --seed, --budget and --format; parse only --format;
    # simulate no --budget
    for argv in (("table2", "--const", "Tx=5"), ("table2", "--trace", "t.csv"),
                 ("table2", "--box", "v=0:1"), ("parse", "m2", "--budget", "7"),
                 ("parse", "m2", "--box", "v=2:1"), ("parse", "m2", "--seed", "1"),
                 ("parse", "m2", "--const", "T=1"),
                 ("parse", "m2", "--trace", "t.csv"),
                 ("simulate", "m2", "--random", "1", "--budget", "7")):
        with pytest.raises(SystemExit) as info:
            main(list(argv))
        assert info.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "unrecognized arguments" in captured.err


def test_closed_stdout_keeps_the_exit_code():
    # a reader that has gone away is no fault of the program: the output
    # stops quietly and the command's own exit code (1, a finding) stands
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run(
            [sys.executable, "-c",
             "import sys; from hpcheck.cli import main; sys.exit(main())",
             "check", "m2", "--invariant", "zeta1", "--obligation", "rho",
             "--budget", "20000", "--format", "json"],
            stdout=write_end, stderr=subprocess.PIPE, timeout=120,
            env=dict(os.environ, PYTHONPATH=str(SRC)))
    finally:
        os.close(write_end)
    assert (proc.returncode, proc.stderr) == (1, b"")


def test_python_dash_m_runs_the_cli(capsys):
    proc = subprocess.run([sys.executable, "-m", "hpcheck", "parse", "m2"],
                          capture_output=True, text=True, timeout=120,
                          env=dict(os.environ, PYTHONPATH=str(SRC)))
    code, out, _ = run_cli(capsys, "parse", "m2")
    assert (proc.returncode, proc.stdout, proc.stderr) == (code, out, "")
    assert code == 0


def test_unknown_const_exits_2(capsys):
    code, out, err = run_cli(capsys, "check", "m2", "--invariant", "zeta1",
                             "--obligation", "rho", "--const", "Tx=5")
    assert (code, out) == (2, "")
    assert err.startswith("error: unknown constant 'Tx'; model has [")


def test_table2_report_shape(capsys):
    code, out, _ = run_cli(capsys, "table2", "--budget", "300",
                           "--format", "json")
    report = json.loads(out)
    assert len(report["rows"]) == 8
    assert {"model", "invariant", "expected", "computed", "match",
            "verdicts"} <= set(report["rows"][0])
    assert code in (0, 1)
    assert code == (0 if report["all_match"] else 1)


def test_bad_budget_exits_2(capsys):
    code, _, err = run_cli(capsys, "check", "m2", "--invariant", "zeta1",
                           "--budget", "0")
    assert code == 2
    assert "budget" in err


def test_budget_above_the_largest_index_is_taken(capsys):
    code, out, err = run_cli(capsys, "check", "m2", "--invariant", "zeta1",
                             "--obligation", "rho", "--budget", str(10**20),
                             "--format", "json")
    assert (code, err) == (1, "")
    [verdict] = json.loads(out)["verdicts"]
    assert verdict["verdict"] == "falsified"
    assert verdict["evaluations"] == 17
    assert verdict["certificate"]["assignment"] == {
        "v": "5/2", "x": "-1", "xc": "-1", "xc_post": "-1"}


def test_unexpected_exception_exits_3(monkeypatch, capsys):
    def broken(obligation, config):
        raise RuntimeError("boom")

    monkeypatch.setattr("hpcheck.cli.check", broken)
    code, _, err = run_cli(capsys, "check", "m2", "--invariant", "zeta1",
                           "--obligation", "rho")
    assert code == 3
    assert err.startswith("internal error: RuntimeError: boom")


def test_check_modal_obligation_on_numeric_plant(tmp_path, capsys):
    # a drag plant is outside the closed-form template, so ODE durations
    # come from numeric bisection as floats
    from hpcheck.models import builtin
    source = builtin("m2").source
    assert "v' = a," in source
    path = tmp_path / "drag.hpmodel"
    path.write_text(source.replace("v' = a,", "v' = a - v / 4,"))
    code, out, err = run_cli(capsys, "check", str(path), "--invariant", "zeta1",
                             "--obligation", "not-chi", "--budget", "2000",
                             "--format", "json")
    assert err == ""
    assert code == 1
    [verdict] = json.loads(out)["verdicts"]
    assert verdict["verdict"] == "witness_found"
    assert verdict["certificate"]["exact"] is False


def test_text_report_marks_a_float_replayed_certificate(tmp_path, capsys):
    from hpcheck.models import builtin
    path = tmp_path / "drag.hpmodel"
    path.write_text(builtin("m2").source.replace("v' = a,", "v' = a - v / 4,"))
    code, out, _ = run_cli(capsys, "check", str(path), "--invariant", "zeta1",
                           "--obligation", "not-chi")
    assert code == 1
    assert "    certificate: a = -4, v = 0, x = -1, xc = -1  (not exact: " \
        "replayed with float RK4)\n" in out
    # an exactly replayed certificate is printed as before
    code, out, _ = run_cli(capsys, "check", "m2", "--invariant", "zeta1",
                           "--obligation", "rho")
    assert "    certificate: v = 5/2, x = -1, xc = -1, xc_post = -1\n" in out


@pytest.mark.parametrize("threads", [None, "4"])
def test_table2_checks_each_distinct_obligation_once(monkeypatch, capsys,
                                                      threads):
    # 31 verdicts in eight rows come from 14 obligations that differ
    import hpcheck.cli
    if threads is None:
        monkeypatch.delenv("HPCHECK_THREADS", raising=False)
    else:
        monkeypatch.setenv("HPCHECK_THREADS", threads)
    calls = []
    real_check = hpcheck.cli.check

    def counting(obligation, config):
        calls.append(obligation.name)
        return real_check(obligation, config)

    monkeypatch.setattr("hpcheck.cli.check", counting)
    for _ in range(2):  # no verdict outlives one invocation
        calls.clear()
        code, out, _ = run_cli(capsys, "table2", "--budget", "2000",
                               "--format", "json")
        report = json.loads(out)
        assert code == 0
        assert sum(len(row["verdicts"]) for row in report["rows"]) == 31
        assert len(calls) == 14


# (model, seed, runs) -> (aborted, guarantee violations, sha256 of the
# --trace CSV of the last run) of `simulate --random`.  The pins fix the
# order in which decisions are drawn from the seeded generator, so sampled
# runs stay reproducible from their seed.
RANDOM_SIMULATION_PINS = [
    ("m2", 0, 20, 13, 0,
     "5af781ac82b6c27f422168f15f475627b21a2fc72c771dd6848e09f187c4d630"),
    ("m2", 3, 20, 11, 0,
     "b68173d900316c921bc82ab7acb9db51fdca230cc782e0e74bfc537893cc1c06"),
    ("m2", 3, 25, 13, 0,
     "178e4daa8fb5ae033d08dd0c7b1d17bd063ac43579be94153b94c377bb0772fd"),
    ("m3", 0, 20, 18, 0,
     "bd17d0b5bac601f5d19b5789295153398b71176dedadac1f85317567821de8dc"),
    ("m3", 3, 20, 16, 0,
     "b68173d900316c921bc82ab7acb9db51fdca230cc782e0e74bfc537893cc1c06"),
    ("m4", 0, 20, 13, 0,
     "5af781ac82b6c27f422168f15f475627b21a2fc72c771dd6848e09f187c4d630"),
    ("m4", 3, 20, 11, 0,
     "b68173d900316c921bc82ab7acb9db51fdca230cc782e0e74bfc537893cc1c06"),
    ("drag", 0, 20, 13, 0,
     "5af781ac82b6c27f422168f15f475627b21a2fc72c771dd6848e09f187c4d630"),
    ("drag", 3, 20, 11, 0,
     "b68173d900316c921bc82ab7acb9db51fdca230cc782e0e74bfc537893cc1c06"),
    ("drag", 3, 25, 13, 0,
     "d687db25549e9685fdc73bc5737fd75968f4be6ced1a8cc1e3ef68982c208bc6"),
]


@pytest.mark.parametrize("model, seed, runs, aborted, violations, digest",
                         RANDOM_SIMULATION_PINS)
def test_simulate_random_is_pinned(tmp_path, capsys, model, seed, runs,
                                   aborted, violations, digest):
    if model == "drag":
        # outside the closed-form template: numeric durations and states
        from hpcheck.models import builtin
        model = tmp_path / "drag.hpmodel"
        model.write_text(builtin("m2").source.replace("v' = a,",
                                                      "v' = a - v / 4,"))
    trace_path = tmp_path / "trace.csv"
    code, out, _ = run_cli(capsys, "simulate", str(model), "--random",
                           str(runs), "--seed", str(seed), "--format", "json",
                           "--trace", str(trace_path))
    assert code == 0
    [summary] = json.loads(out)["runs"]
    assert (summary["aborted"], summary["guarantee_violations"]) \
        == (aborted, violations)
    assert hashlib.sha256(trace_path.read_bytes()).hexdigest() == digest


def test_simulate_random_builds_one_cursor_plant_per_ode(monkeypatch, capsys):
    from hpcheck.models import builtin
    # many runs evolve the plant and each decision draws a duration, yet the
    # whole simulation matches the ODE's template once
    semantics.plant_of.cache_clear()
    matches, per_run = [], []
    original, original_run = semantics.closed_form_template, cli.run

    def counting(ode):
        matches.append(ode)
        return original(ode)

    def counting_run(*args):
        outcome, trace = original_run(*args)
        per_run.append([step.label for step in trace].count("ode"))
        return outcome, trace
    monkeypatch.setattr(semantics, "closed_form_template", counting)
    monkeypatch.setattr(cli, "run", counting_run)
    code, _, _ = run_cli(capsys, "simulate", "m2", "--random", "100",
                         "--seed", "3")
    assert code == 0 and len(per_run) == 100
    reached = sum(1 for n in per_run if n)  # runs that evolved the plant
    assert reached > 20
    assert matches == [builtin("m2").plant.second]


def test_each_distinct_ode_gets_one_plant(monkeypatch, capsys):
    # a Plant is built once per distinct ODE value, whoever asks for it:
    # two parses of m2, six runs, simulate --random and check share one
    from hpcheck.models import builtin, fig2_script
    from hpcheck.parser import parse_model
    semantics.plant_of.cache_clear()
    matches = []
    original = semantics.closed_form_template

    def counting(ode):
        matches.append(ode)
        return original(ode)
    monkeypatch.setattr(semantics, "closed_form_template", counting)
    source = builtin("m2").source
    models = [parse_model(source, name="m2") for _ in range(2)]
    assert models[0].plant is not models[1].plant
    for model in models * 3:
        state = cli._initial_state(model, {})
        _, trace = semantics.run(state, model.loop_program(), fig2_script())
        assert [step.label for step in trace].count("ode") == 1
    for argv in (("simulate", "m2", "--random", "100", "--seed", "3"),
                 ("check", "m2", "--invariant", "zeta1",
                  "--obligation", "gamma")):
        assert run_cli(capsys, *argv)[0] in (0, 1)
    assert matches == [models[0].plant.second]


def test_plants_are_reached_through_the_traced_functions(monkeypatch,
                                                         capsys):
    # the benchmark's tracer wraps semantics.evolve_plant and
    # max_admissible_duration by name in every module that holds them: run
    # evolves through the first, simulate --random sizes each duration
    # through the second
    counts = {"evolve_plant": 0, "max_admissible_duration": 0}
    for name in counts:
        original = getattr(semantics, name)

        def wrapper(*args, name=name, original=original):
            counts[name] += 1
            return original(*args)
        for module in (semantics, cli):
            if getattr(module, name, None) is original:
                monkeypatch.setattr(module, name, wrapper)
    code, _, _ = run_cli(capsys, "simulate", "m2", "--script", "fig2")
    assert code == 0
    assert counts == {"evolve_plant": 1, "max_admissible_duration": 0}
    code, _, _ = run_cli(capsys, "simulate", "m2", "--random", "100",
                         "--seed", "3")
    assert code == 0
    # one duration drawn for each evolution
    assert counts["max_admissible_duration"] == counts["evolve_plant"] - 1
    assert counts["max_admissible_duration"] > 20


# sha256 of `table2 --format json --budget 2000` stdout, taken before the
# exact integer-ratio kernel replaced the Fraction closures of the search,
# then re-derived when certificates lost their `margin` key: that stdout
# with every certificate's `margin` removed, dumped again with
# json.dumps(..., sort_keys=True, indent=2) and a newline
TABLE2_PINS = [
    (0, "5777f11cae6cfecf3093553b2d28f095b09e6b87514e95bea600b96fa16f08df"),
    (7, "fa21f16a7028b861809b12d7921942ec74dcfb659f98ea1b744c7b3ee6e16b4c"),
]


@pytest.mark.parametrize("seed, digest", TABLE2_PINS)
def test_table2_json_is_pinned(capsys, seed, digest):
    code, out, err = run_cli(capsys, "table2", "--format", "json",
                             "--budget", "2000", "--seed", str(seed))
    assert (code, err) == (0, "")
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_table2_json_is_pinned_at_the_benchmark_budget(capsys):
    # the benchmark's table2 configuration; taken before search candidates
    # became integer pairs and re-derived, as TABLE2_PINS, without `margin`
    code, out, err = run_cli(capsys, "table2", "--format", "json",
                             "--budget", "5000", "--seed", "0")
    assert (code, err) == (0, "")
    assert hashlib.sha256(out.encode()).hexdigest() \
        == "fbd63a5815863015abba2031350d1a865b53c485477b858ba52bfce9d93619c3"


def test_check_json_is_pinned(tmp_path, capsys):
    # one sha256 over the exit code and `check --format json` stdout of
    # every built-in model x invariant x selector at budget 1 000, error
    # exits included, and of the drag m2, whose numeric plant the search
    # evolves in floats (its pins are taken in env, before the plant, on
    # exact states), x zeta1 x every selector at budget 300; taken before
    # the checker compiled each matrix once
    from hpcheck.models import MODEL_IDS, builtin
    drag = tmp_path / "drag.hpmodel"
    drag.write_text(builtin("m2").source.replace("v' = a,", "v' = a - v / 4,"))
    runs = [(model, zeta, "1000") for model in MODEL_IDS
            for zeta in ("zeta1", "zeta2", "zeta_iter")]
    runs.append((str(drag), "zeta1", "300"))
    digest = hashlib.sha256()
    for model, zeta, budget in runs:
        for selector in cli.SELECTORS:
            code, out, _ = run_cli(capsys, "check", model, "--invariant", zeta,
                                   "--obligation", selector, "--budget",
                                   budget, "--format", "json")
            digest.update(f"{code}\n{out}".encode())
    assert digest.hexdigest() \
        == "b2ada2de13aa112a8540782efd8365bd674ea7cf4b84ff111705a35a733cadbc"


def test_drag_zeta2_check_json_is_pinned(tmp_path, capsys):
    # one sha256, as above, over the drag m2 x zeta2 x every selector at
    # budget 300: durations, states and certificates of the numeric plant;
    # taken before the numeric path compiled its kernel
    from hpcheck.models import builtin
    drag = tmp_path / "drag.hpmodel"
    drag.write_text(builtin("m2").source.replace("v' = a,", "v' = a - v / 4,"))
    digest = hashlib.sha256()
    for selector in cli.SELECTORS:
        code, out, _ = run_cli(capsys, "check", str(drag), "--invariant",
                               "zeta2", "--obligation", selector, "--budget",
                               "300", "--format", "json")
        digest.update(f"{code}\n{out}".encode())
    assert digest.hexdigest() \
        == "4afcc70ce7a7745bd993d25b82d0334fea1a70cf01a1026bcababd5cde96d95d"


def _mixed_model(tmp_path):
    """m2 with a numeric plant, then a closed-form one: the closed-form
    solution meets the floats that RK4 leaves."""
    from hpcheck.models import builtin
    source = builtin("m2").source
    plant = "{x' = v, v' = a, tau' = 1 & v >= 0 & tau <= T}"
    assert plant in source
    path = tmp_path / "mixed.hpmodel"
    path.write_text(source.replace(plant, "{x' = v, v' = a - v / 4, tau' = 1 "
                                   "& v >= 0 & tau <= T / 2}; " + plant))
    return path


def test_mixed_plant_check_json_is_pinned(tmp_path, capsys):
    # sha256 of `check --obligation all` on the mixed plant; taken before
    # the closed-form plant solved float states exactly
    code, out, err = run_cli(capsys, "check", str(_mixed_model(tmp_path)),
                             "--invariant", "zeta1", "--obligation", "all",
                             "--budget", "300", "--format", "json")
    assert (code, err) == (1, "")
    exact = {r["obligation"]: r["certificate"]["exact"]
             for r in json.loads(out)["verdicts"] if r.get("certificate")}
    assert exact == {"rho": True, "friendly": True, "exploit": False,
                     "chi": False, "not_chi": False}
    assert hashlib.sha256(out.encode()).hexdigest() \
        == "8ecefac7b7d668973e692929fc00b9b76e7c5c5652c0ac20db3d56140340726b"


def test_mixed_plant_simulate_is_pinned(tmp_path, capsys):
    # the closed-form plant's end state on the floats RK4 left, as the
    # report and the trace print it; taken as above
    script = tmp_path / "mixed.script"
    script.write_text("loop 1\nvalue 10\nvalue 1\nbranch right\n"
                      "duration 1/4\nduration 1/4\n")
    trace_path = tmp_path / "trace.csv"
    code, out, err = run_cli(capsys, "simulate", str(_mixed_model(tmp_path)),
                             "--script", str(script), "--trace",
                             str(trace_path))
    assert (code, err) == (0, "")
    assert out.startswith("final: x = 0.12244594220214307, ")
    digest = hashlib.sha256(f"{out}\n{trace_path.read_text()}".encode())
    assert digest.hexdigest() \
        == "d67aabf96bad7e537f0b8aa7b89e4ae4cb3e93d0a85e5d1a6f8860a2caaeb29e"


def test_check_psi_needs_zeta_iter(capsys):
    code, out, err = run_cli(capsys, "check", "m2", "--invariant", "zeta1",
                             "--obligation", "psi")
    assert code == 2
    assert out == ""
    assert err == "error: psi needs an invariant named zeta_iter\n"


def _certificate_from_json(blob):
    """The Counterexample a certificate's JSON describes: Fractions from
    their strings, one decision per JSON object."""
    from fractions import Fraction
    from hpcheck.checker import Counterexample
    kinds = {"branch": semantics.Branch, "loop": semantics.LoopCount,
             "value": lambda text: semantics.RandomValue(Fraction(text)),
             "duration": lambda text: semantics.Duration(Fraction(text))}
    scripts = [[kinds[key](arg) for decision in script
                for key, arg in decision.items()]
               for script in blob["scripts"]]
    assignment = {k: Fraction(v) for k, v in blob["assignment"].items()}
    return Counterexample(assignment, scripts)


def test_printed_certificates_certify_from_the_json_alone(tmp_path, capsys):
    # what the report prints is the whole certificate: every certificate
    # of table2 and of the drag plant's numeric not-chi witness certifies
    # again from its JSON, with the exactness it was printed with
    from hpcheck.checker import certify, obligations_for
    from hpcheck.models import builtin
    from hpcheck.parser import parse_model
    pairs = []
    code, out, _ = run_cli(capsys, "table2", "--format", "json",
                           "--budget", "2000")
    assert code == 0
    for row in json.loads(out)["rows"]:
        model = builtin(row["model"])
        obligations = obligations_for(model, row["invariant"], "loop")
        for conjunct in row["conjuncts"]:
            obligations += obligations_for(model, row["invariant"], conjunct)
        assert len(obligations) == len(row["verdicts"])
        pairs.extend(zip(obligations, row["verdicts"]))
    drag = tmp_path / "drag.hpmodel"
    drag.write_text(builtin("m2").source.replace("v' = a,", "v' = a - v / 4,"))
    code, out, _ = run_cli(capsys, "check", str(drag), "--invariant", "zeta1",
                           "--obligation", "not-chi", "--budget", "2000",
                           "--format", "json")
    assert code == 1
    [ob] = obligations_for(parse_model(drag.read_text()), "zeta1", "not-chi")
    pairs.extend(zip([ob], json.loads(out)["verdicts"]))
    exactness = []
    for ob, verdict in pairs:
        assert ob.name == verdict["obligation"]
        if "certificate" not in verdict:
            continue
        cex = _certificate_from_json(verdict["certificate"])
        assert certify(cex, ob), ob.name
        assert verdict["certificate"]["exact"] == (not cex.numeric_only)
        exactness.append(verdict["certificate"]["exact"])
    # table2's five findings are exact; the drag plant's is numeric
    assert exactness == [True] * 5 + [False]


def test_a_variable_only_aux_reads_is_quantified(tmp_path, capsys):
    # loop_ii, chi and not_chi close over every free variable of their
    # matrix, so a variable that only a test reads is searched, not left
    # uncoverable
    from hpcheck.models import builtin
    path = tmp_path / "w.hpmodel"
    path.write_text(builtin("m2").source.replace(
        "a <= anmax)", "a <= anmax & w >= 0)", 1))
    for selector in ("gamma", "chi", "not-chi"):
        code, out, err = run_cli(capsys, "check", str(path), "--invariant",
                                 "zeta1", "--obligation", selector,
                                 "--budget", "1000", "--format", "json")
        assert err == ""
        assert code in (0, 1)
        [verdict] = json.loads(out)["verdicts"]
        if "certificate" in verdict:
            assert "w" in verdict["certificate"]["assignment"]


def test_overrides_leave_the_builtin_model_unchanged(capsys):
    from hpcheck.models import builtin
    model = builtin("m2")
    domains, constants = dict(model.domains), list(model.constants)
    for argv in (("check", "m2", "--invariant", "zeta1", "--obligation",
                  "loop", "--budget", "50"),
                 ("simulate", "m2", "--random", "2")):
        code, _, err = run_cli(capsys, *argv, "--box", "x=0:1",
                               "--const", "T=2")
        assert (code, err) == (0, "")
        assert builtin("m2") is model
        assert (model.domains, model.constants) == (domains, constants)


UNSUPPORTED = [
    ("INVARIANT zq\n  forall y (y >= 0 -> x <= xc)\n", "zq",
     "error: inner quantifiers are not supported; close the formula "
     "instead\n"),
    ("INVARIANT zb\n  [x := x + 1] x <= xc\n", "zb",
     "error: cannot establish a box by search; negate the obligation\n"),
]


@pytest.mark.parametrize("section, name, message", UNSUPPORTED,
                         ids=["quantifier", "box"])
def test_an_unsupported_invariant_is_a_usage_error(tmp_path, capsys,
                                                   section, name, message):
    from hpcheck.models import builtin
    path = tmp_path / "unsupported.hpmodel"
    path.write_text(builtin("m2").source + "\n" + section)
    code, out, err = run_cli(capsys, "check", str(path), "--invariant", name,
                             "--obligation", "gamma", "--budget", "100")
    assert (code, out, err) == (2, "", message)


def test_a_quantified_guarantee_is_a_usage_error_in_simulate(tmp_path,
                                                             capsys):
    from hpcheck.models import builtin
    path = tmp_path / "guarantee.hpmodel"
    source = builtin("m2").source
    assert "GUARANTEE\n  x <= xc\n" in source
    path.write_text(source.replace(
        "GUARANTEE\n  x <= xc\n",
        "GUARANTEE\n  forall y (y >= 0 -> x <= xc)\n"))
    code, out, err = run_cli(capsys, "simulate", str(path), "--random", "3")
    assert (code, out) == (2, "")
    assert err == "error: quantified formulas are decided by search\n"


BLOWUP_MODEL = """
CONSTANTS
  T = 1 : T > 0
DOMAINS
  x = [0, 10]
INIT
  x = 1
GUARANTEE
  x <= 100
ENV
  ?true
AUX
  ?true
CTRL
  ?true
PLANT
  tau := 0; {x' = x^2, tau' = 1 & tau <= T}
INVARIANT zeta1
  x <= 100
"""


def test_a_plant_that_blows_up_ends_in_a_verdict(tmp_path, capsys):
    # x' = x^2 from x = 5 blows up at t = 1/5: bisection counts the
    # durations whose run blows up as inadmissible, and the longest one
    # left carries x past 100
    path = tmp_path / "blowup.hpmodel"
    path.write_text(BLOWUP_MODEL)
    code, out, err = run_cli(capsys, "check", str(path), "--invariant",
                             "zeta1", "--obligation", "loop", "--budget",
                             "2000")
    assert (code, err) == (1, "")
    assert "  loop_ii    No (counterexample)" in out
    assert "    certificate: x = 5  (not exact: replayed with float RK4)\n" \
        in out


def test_all_skips_the_selectors_that_need_a_relation(tmp_path, capsys):
    # the blow-up model has no RELATION: `all` runs the loop and chi
    # obligations, and `rho` named on its own says why it does not apply
    path = tmp_path / "blowup.hpmodel"
    path.write_text(BLOWUP_MODEL)
    code, out, err = run_cli(capsys, "check", str(path), "--invariant",
                             "zeta1", "--budget", "500", "--format", "json")
    assert (code, err) == (1, "")
    assert [v["obligation"] for v in json.loads(out)["verdicts"]] \
        == ["loop_i", "loop_ii", "loop_iii", "chi", "not_chi"]
    for selector in ("rho", "exploit", "friendly"):
        code, out, err = run_cli(capsys, "check", str(path), "--invariant",
                                 "zeta1", "--obligation", selector)
        assert (code, out) == (2, "")
        assert err == "error: model has no RELATION section\n"


def test_psi_needs_an_action_drawn_by_aux(tmp_path, capsys):
    # a zeta_iter invariant alone does not make psi apply: the blow-up
    # model's AUX draws no action to instantiate
    path = tmp_path / "blowup.hpmodel"
    path.write_text(BLOWUP_MODEL + "INVARIANT zeta_iter\n  x <= 100\n")
    code, out, err = run_cli(capsys, "check", str(path), "--invariant",
                             "zeta1", "--obligation", "psi")
    assert (code, out) == (2, "")
    assert err == "error: psi needs an AUX of the shape a := *; ?P\n"


def test_psi_needs_the_action_free_in_zeta_iter(tmp_path, capsys):
    from hpcheck.models import builtin
    path = tmp_path / "m2.hpmodel"
    path.write_text(builtin("m2").source + "INVARIANT zeta_iter\n  v >= 0\n")
    code, out, err = run_cli(capsys, "check", str(path), "--invariant",
                             "zeta1", "--obligation", "psi")
    assert (code, out) == (2, "")
    assert err == "error: psi needs the action variable 'a' free in zeta_iter\n"


def test_psi_instantiates_the_lower_bound_of_aux(tmp_path, capsys):
    # psi sets the action to its lower bound in AUX's test, whatever the
    # constant is called: m4 with anmin renamed bmin gives m4's verdict
    from hpcheck.models import builtin
    verdicts = []
    for name, text in (("m4", builtin("m4").source),
                       ("m4b", builtin("m4").source.replace("anmin", "bmin"))):
        path = tmp_path / f"{name}.hpmodel"
        path.write_text(text)
        code, out, _ = run_cli(capsys, "check", str(path), "--invariant",
                               "zeta2", "--obligation", "psi", "--budget",
                               "2000", "--format", "json")
        assert code == 1
        verdicts.append(json.loads(out)["verdicts"])
    assert verdicts[0] == verdicts[1]
    [verdict] = verdicts[1]
    assert (verdict["verdict"], verdict["evaluations"]) == ("witness_found", 11)
    assert verdict["certificate"]["assignment"] \
        == {"v": "0", "x": "-1", "xc": "-1"}


@pytest.mark.parametrize("test, found", [
    ("a <= anmax", 0),
    ("-anmin <= a & a <= anmax & a > -asmin", 2),
])
def test_psi_needs_one_lower_bound_in_aux(tmp_path, capsys, test, found):
    from hpcheck.models import builtin
    path = tmp_path / "m4.hpmodel"
    path.write_text(builtin("m4").source.replace(
        "?(-anmin <= a & a <= anmax)", f"?({test})"))
    code, out, err = run_cli(capsys, "check", str(path), "--invariant",
                             "zeta2", "--obligation", "psi")
    assert (code, out) == (2, "")
    assert err == f"error: psi needs one lower bound on 'a' in AUX's test, " \
        f"not {found}\n"
