#!/usr/bin/env python3
"""hpcheck benchmark: one closed-loop client drives the program through its
public functions in this process, and every output is checked against the
benchmark's own reference computations (reference.py).

    python3 bench/run.py --workload table2|oracle|replay --seed N \\
        --seconds S --trace 0|1

Run from any directory; the program is imported from `src/` next to this
directory.  The last line of standard output is one JSON object with the
keys correct, attempted, failed and metrics.  With --trace 0 the metrics
are the end-to-end ones; with --trace 1 the run spends half its time
untraced and half traced, and reports per-layer metrics and the tracing
overhead.  Diagnostics go to standard error.  See README.md.
"""

from __future__ import annotations

import argparse
import bisect
import contextlib
import importlib
import io
import json
import math
import os
import random
import resource
import signal
import statistics
import sys
import time
from fractions import Fraction
from pathlib import Path

from inputs import (
    DRAG_SHARE, ORACLE_VALUES, ORACLE_VARS, oracle_config, oracle_stream,
    replay_request, to_program_obligation, to_program_script,
)
from reference import (
    PAPER_CONSTANTS, Simulator, StopModel, check_oracle_verdict, check_table2,
    compare_outcome, compare_trace,
)
from tracer import Tracer

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
SETUP_REPS = 7  # set-up is repeated and its median reported
# Reported times are scaled to this run time of the reference kernel, near
# its typical time on the 2-vCPU Xeon host the benchmark was built on; see
# SpeedSampler.
KERNEL_NOMINAL_S = 0.00015


def fresh_import():
    """Import the program from SRC, dropping any earlier import first."""
    for key in [k for k in sys.modules if k == "hpcheck" or k.startswith("hpcheck.")]:
        del sys.modules[key]
    hp = importlib.import_module("hpcheck")
    importlib.import_module("hpcheck.cli")
    if not Path(hp.__file__).resolve().is_relative_to(SRC):
        raise ImportError(f"hpcheck imported from {hp.__file__}, not {SRC}")
    return hp


# ---------------------------------------------------------------------------
# Workloads.  Each prepares its inputs in rounds (untimed), runs one
# operation at a time (timed) and verifies each output (untimed).

class Table2:
    """The eight-row suite through the CLI entry point; one op = one suite."""
    BUDGET = 5_000
    ARGV = ("table2", "--format", "json", "--budget", str(BUDGET), "--seed", "0")

    def __init__(self, hp, seed):
        # the suite is the paper's table: its inputs do not depend on seed
        os.environ.pop("HPCHECK_THREADS", None)
        self.hp = hp
        for model_id in ("m2", "m3", "m4"):
            hp.models.builtin(model_id)
        hp.models.table2_suite()
        self.tracer = None

    def preflight(self):
        return []

    def next_round(self):
        return [None]

    def run_op(self, _):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = self.hp.cli.main(list(self.ARGV))
        return code, buf.getvalue()

    def verify(self, _, output):
        code, text = output
        report = json.loads(text)
        if self.tracer is not None:
            self.tracer.count("table2_verdicts",
                              sum(len(r["verdicts"]) for r in report["rows"]))
        return check_table2(code, report)

    def describe(self):
        return f"budget {self.BUDGET}, seed 0, one worker"


class Oracle:
    """Random finite obligations decided by hpcheck.check in exhaustive
    mode; one op = one obligation, none repeated."""
    ROUND = 200

    def __init__(self, hp, seed):
        self.hp = hp
        self.seed = seed
        self.stream = oracle_stream(random.Random(seed))
        self.config = oracle_config(hp)
        self.index = 0
        self.found = 0
        self.total = 0
        self.pending = self._generate()

    def _generate(self):
        items = []
        for _ in range(self.ROUND):
            spec = next(self.stream)
            name = f"oracle_{self.seed}_{self.index}"
            self.index += 1
            items.append((spec, to_program_obligation(self.hp, spec, name)))
        return items

    def preflight(self):
        return []

    def next_round(self):
        items, self.pending = self.pending or self._generate(), None
        return items

    def run_op(self, item):
        return self.hp.check(item[1], self.config)

    def verify(self, item, verdict):
        self.total += 1
        self.found += int(verdict.found)
        cex = verdict.counterexample
        error = check_oracle_verdict(
            item[0], verdict.found, verdict.status,
            cex.assignment if cex is not None else None,
            ORACLE_VARS, ORACLE_VALUES)
        return [f"{item[1].name}: {error}"] if error else []

    def describe(self):
        return (f"found share {self.found}/{self.total}"
                f" = {self.found / max(self.total, 1):.3f}")


class Replay:
    """Simulation requests: parse one model text, replay a batch of
    scripts through hpcheck.run with traces on; one op = one request."""
    ROUND = 5 * DRAG_SHARE  # every round holds the same share of drag plants
    FIG2 = (("loop", 2), ("value", Fraction(1)), ("value", Fraction(9, 5)),
            ("branch", "right"), ("duration", Fraction(1)),
            ("value", Fraction(1)))

    def __init__(self, hp, seed):
        self.hp = hp
        self.rng = random.Random(seed)
        self.index = 0
        self.scripts = 0
        self.aborted = 0
        self.drag = 0
        self.fig2_model = hp.models.builtin("m2")
        self.fig2_script = hp.models.fig2_script()
        self.pending = self._generate()

    def _generate(self):
        items = []
        for _ in range(self.ROUND):
            request = replay_request(self.rng, self.index)
            request["name"] = f"replay_{self.index}"
            request["program_scripts"] = [to_program_script(self.hp, s)
                                          for s in request["scripts"]]
            self.index += 1
            items.append(request)
        return items

    def preflight(self):
        """The bundled fig2 walkthrough aborts at the env test with
        x = 9/10, v = 9/5, step for step as the reference predicts."""
        state = {"x": Fraction(0), "v": Fraction(0), "xc": Fraction(1),
                 "a": Fraction(9, 5), "tau": Fraction(0),
                 "xc_post": Fraction(0), **PAPER_CONSTANTS}
        outcome, trace = self.hp.run(state, self.fig2_model.loop_program(),
                                     self.fig2_script)
        sim = Simulator(StopModel("m2", **PAPER_CONSTANTS), state, self.FIG2)
        expected = sim.finish()
        env_test = self.fig2_model.env.second.condition
        errors = []
        if not (expected[:2] == ("aborted", "env")
                and isinstance(outcome, self.hp.semantics.Aborted)
                and outcome.failed_test == env_test
                and outcome.state["x"] == Fraction(9, 10)
                and outcome.state["v"] == Fraction(9, 5)):
            errors.append(f"fig2: outcome {outcome!r}")
        problem = compare_trace(sim.steps, trace)
        if problem:
            errors.append(f"fig2: {problem}")
        return errors

    def next_round(self):
        items, self.pending = self.pending or self._generate(), None
        return items

    def run_op(self, request):
        model = self.hp.parse_model(request["text"], name=request["name"])
        program = model.loop_program()
        return [self.hp.run(request["state"], program, script)
                for script in request["program_scripts"]]

    def verify(self, request, results):
        errors = []
        final_type = self.hp.semantics.Final
        self.drag += int(request["model"].drag)
        for script, (outcome, trace) in zip(request["scripts"], results):
            self.scripts += 1
            sim = Simulator(request["model"], request["state"], script)
            expected = sim.finish()
            self.aborted += int(expected[0] == "aborted")
            kind = "final" if isinstance(outcome, final_type) else "aborted"
            problem = (compare_trace(sim.steps, trace)
                       or compare_outcome(expected, kind, outcome.state))
            if problem:
                errors.append(f"{request['name']}: {problem}")
        return errors

    def describe(self):
        return (f"{self.index} requests ({self.drag} verified with drag plant), "
                f"aborted scripts {self.aborted}/{self.scripts}"
                f" = {self.aborted / max(self.scripts, 1):.3f}")


WORKLOADS = {"table2": Table2, "oracle": Oracle, "replay": Replay}


# ---------------------------------------------------------------------------
# Measurement

def _reference_kernel():
    """Fixed pure-Python work of the kind the program does: exact rational
    arithmetic, dict updates and small calls."""
    state = {"x": Fraction(0), "n": 0}
    for i in range(1, 12):
        q = Fraction(i, 7) * Fraction(3, i + 2) + Fraction(state["n"] % 5, 5)
        state["x"] = q if q < 10 else q - 10
        state["n"] += isinstance(q, Fraction)
    return state


class SpeedSampler:
    """Times the reference kernel every PERIOD_S, from a SIGALRM handler.

    On the 2-vCPU host this was built on, the speed of the CPU available to
    one process drifts by up to 2x within seconds.  The kernel slows with
    it, so scaling a raw time by KERNEL_NOMINAL_S over the kernel's median
    time while that time was spent cancels the drift.  The handler runs in
    the main thread between bytecodes, so it samples the CPU the operations
    run on, also in the middle of a long one; a sampling thread could be
    scheduled on the other CPU.  It costs about 0.1 ms per period."""
    PERIOD_S = 0.02

    def __init__(self):
        self.times = []  # midpoints, increasing
        self.kernel = []  # kernel run times at those midpoints
        self._previous = None

    def _sample(self, signum, frame):
        start = time.perf_counter()
        _reference_kernel()
        end = time.perf_counter()
        self.times.append((start + end) / 2)
        self.kernel.append(end - start)

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, self.PERIOD_S, self.PERIOD_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def calibrate(self, raw, start, end):
        """Scale a raw time measured over [start, end] by KERNEL_NOMINAL_S
        over the median kernel time sampled within one period of it, or
        of the nearest samples when fewer than two fall there."""
        # the handler only appends, and bisect runs no bytecode it could
        # interrupt, so the lists need no copy
        times = self.times
        lo = bisect.bisect_left(times, start - self.PERIOD_S)
        hi = bisect.bisect_right(times, end + self.PERIOD_S)
        if hi - lo < 2:
            lo, hi = max(0, min(lo, len(times) - 2)), max(hi, min(lo + 2, len(times)))
        return raw * KERNEL_NOMINAL_S / statistics.median(self.kernel[lo:hi])


class Phase:
    """Closed loop with one client: whole rounds until `seconds` of raw
    operation time have been spent.  Latencies are calibrated once each
    round has been verified (see SpeedSampler)."""

    def __init__(self, sampler):
        self.sampler = sampler
        self.latencies = []
        self.round_times = []
        self.raw_seconds = 0.0
        self.attempted = 0
        self.raised = []  # operations that failed
        self.errors = []  # outputs the references rejected

    def _op(self, workload, item):
        self.attempted += 1
        try:
            return workload.run_op(item)
        except Exception as exc:  # counted, reported, and the run goes on
            self.raised.append(f"operation raised {exc!r}")
            return None

    def run(self, workload, seconds, tracer=None, rounds=None):
        """Rounds until `seconds` of raw operation time, or exactly
        `rounds` rounds when given."""
        clock = time.perf_counter
        while (self.raw_seconds < seconds if rounds is None
               else len(self.round_times) < rounds):
            items = workload.next_round()
            outputs, spans = [], []
            for item in items:
                if tracer is not None:
                    tracer.op += 1
                start = clock()
                outputs.append(self._op(workload, item))
                spans.append((start, clock()))
            for item, output in zip(items, outputs):
                if output is not None:
                    self.errors.extend(workload.verify(item, output))
            # calibrated after verification, so samples taken after the
            # last operation have landed
            latencies = [self.sampler.calibrate(end - start, start, end)
                         for start, end in spans]
            self.raw_seconds += sum(end - start for start, end in spans)
            self.latencies.extend(latencies)
            self.round_times.append(sum(latencies))
        return self

    @property
    def ops(self):
        return len(self.latencies)


def percentile(values, q):
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def end_to_end(phase, setup_times):
    """End-to-end metrics.  op_p99_ms is nearest-rank: with fewer than 100
    operations (table2) it is the slowest operation of the run."""
    return {
        "setup_s": (statistics.median(setup_times), "s"),
        "wall_s": (statistics.median(phase.round_times), "s"),
        "ops_per_s": (phase.ops / sum(phase.round_times), "ops/s"),
        "op_p50_ms": (statistics.median(phase.latencies) * 1e3, "ms"),
        "op_p99_ms": (percentile(phase.latencies, 0.99) * 1e3, "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                        "MB"),
    }


def measure(args, sampler):
    setup_spans = []
    for _ in range(SETUP_REPS):
        start = time.perf_counter()
        workload = WORKLOADS[args.workload](fresh_import(), args.seed)
        setup_spans.append((start, time.perf_counter()))
    setup_times = [sampler.calibrate(end - start, start, end)
                   for start, end in setup_spans]
    errors = workload.preflight()

    if not args.trace:
        phase = Phase(sampler).run(workload, args.seconds)
        return workload, end_to_end(phase, setup_times), (phase,), errors
    plain = Phase(sampler).run(workload, args.seconds / 2)
    # the traced half replays the untraced half's inputs, so the overhead
    # compares the same operations
    workload = WORKLOADS[args.workload](workload.hp, args.seed)
    tracer = Tracer()
    workload.tracer = tracer
    tracer.install()
    try:
        traced = Phase(sampler).run(workload, math.inf, tracer,
                                    rounds=len(plain.round_times))
    finally:
        tracer.uninstall()
        workload.tracer = None
    OUT.mkdir(exist_ok=True)
    spans_path = OUT / f"spans-{args.workload}-{args.seed}.csv"
    tracer.write(spans_path)
    print(f"spans written to {spans_path}", file=sys.stderr)
    metrics = tracer.summary(traced.ops)
    overhead = (sum(traced.latencies) / sum(plain.latencies) - 1) * 100
    metrics["trace.overhead_pct"] = (overhead, "%")
    return workload, metrics, (plain, traced), errors


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "hpcheck" / "__init__.py").is_file():
        print(f"error: no program sources at {SRC / 'hpcheck'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    with SpeedSampler() as sampler:
        workload, metrics, phases, errors = measure(args, sampler)

    attempted = sum(p.attempted for p in phases)
    failed = sum(len(p.raised) for p in phases)
    errors += [e for p in phases for e in p.errors]
    for line in ([e for p in phases for e in p.raised] + errors)[:20]:
        print(f"error: {line}", file=sys.stderr)
    raw = sum(p.raw_seconds for p in phases)
    print(f"{args.workload}: {attempted} ops, {failed} failed, "
          f"{attempted / raw:.5g} ops/s uncalibrated; {workload.describe()}",
          file=sys.stderr)
    print(json.dumps({
        "correct": not errors,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0 if not errors else 1


if __name__ == "__main__":
    sys.exit(main())
