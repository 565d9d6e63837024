"""Span tracing from outside the program.

`Tracer.install` replaces each listed public function by a wrapper in
every loaded `hpcheck` module that holds a reference to it, so calls are
seen whichever module looks the function up (for example `check` through
both `hpcheck.cli` and `hpcheck.checker`).  Each call records a span
(id, name, start, end, parent id, operation id) in memory; `uninstall`
restores the originals.  A function that calls itself recursively through
its module global (`free_variables`) is folded into its outermost span.
"""

from __future__ import annotations

import csv
import statistics
import sys
import time

# (layer metric prefix, module, function name)
TRACED = (
    ("cli.main", "hpcheck.cli", "main"),
    ("obligations.obligations_for", "hpcheck.checker", "obligations_for"),
    ("checker.check", "hpcheck.checker", "check"),
    ("checker.compile_fol", "hpcheck.checker", "compile_fol"),
    ("checker.certify", "hpcheck.checker", "certify"),
    ("syntax.free_variables", "hpcheck.syntax", "free_variables"),
    ("semantics.max_admissible_duration", "hpcheck.semantics",
     "max_admissible_duration"),
    ("semantics.run", "hpcheck.semantics", "run"),
    ("semantics.evolve_plant", "hpcheck.semantics", "evolve_plant"),
    ("parser.parse_model", "hpcheck.parser", "parse_model"),
)


class Tracer:
    def __init__(self):
        self.spans = []  # (id, name, start, end, parent, op)
        self.stack = []  # (span id, name) of open spans
        self.op = 0
        self.counters = {}
        self._patched = []  # (module, attribute, original)
        self._next_id = 1

    def count(self, key, n=1):
        self.counters[key] = self.counters.get(key, 0) + n

    def _wrap(self, name, fn):
        tracer = self
        clock = time.perf_counter
        observe = _OBSERVERS.get(name)

        def wrapper(*args, **kwargs):
            stack = tracer.stack
            if stack and stack[-1][1] == name:
                return fn(*args, **kwargs)
            span_id = tracer._next_id
            tracer._next_id += 1
            parent = stack[-1][0] if stack else 0
            stack.append((span_id, name))
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                tracer.spans.append((span_id, name, start, end, parent,
                                     tracer.op))
            if observe is not None:
                observe(tracer, args, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def install(self):
        modules = [m for key, m in sys.modules.items()
                   if m is not None and (key == "hpcheck"
                                         or key.startswith("hpcheck."))]
        for name, module_name, attr in TRACED:
            original = getattr(sys.modules[module_name], attr)
            wrapper = self._wrap(name, original)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._patched.append((module, key, original))
                        setattr(module, key, wrapper)

    def uninstall(self):
        for module, key, original in reversed(self._patched):
            setattr(module, key, original)
        self._patched.clear()

    def write(self, path):
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["id", "name", "start", "end", "parent", "op"])
            writer.writerows(self.spans)

    def summary(self, ops: int) -> dict:
        """Per-layer metrics: counts and times per operation, self times,
        and the ratios listed in the README."""
        child_time = {}
        for _, _, start, end, parent, _ in self.spans:
            if parent:
                child_time[parent] = child_time.get(parent, 0.0) + end - start
        calls, total, own, durations = {}, {}, {}, {}
        for span_id, name, start, end, _, _ in self.spans:
            calls[name] = calls.get(name, 0) + 1
            total[name] = total.get(name, 0.0) + end - start
            own[name] = own.get(name, 0.0) + end - start - child_time.get(span_id, 0.0)
            durations.setdefault(name, []).append(end - start)
        per_op = max(ops, 1)
        out = {}
        for name, _, _ in TRACED:
            out[f"{name}.calls"] = (calls.get(name, 0) / per_op, "1/op")
            out[f"{name}.time_s"] = (total.get(name, 0.0) / per_op, "s/op")
            out[f"{name}.self_s"] = (own.get(name, 0.0) / per_op, "s/op")
        checks = durations.get("checker.check", [])
        out["checker.check.p50_ms"] = (
            statistics.median(checks) * 1e3 if checks else 0.0, "ms")
        c = self.counters
        check_time = total.get("checker.check", 0.0)
        out["checker.evaluations"] = (c.get("evaluations", 0) / per_op, "1/op")
        out["checker.candidates"] = (c.get("candidates", 0) / per_op, "1/op")
        out["checker.found"] = (c.get("found", 0) / per_op, "1/op")
        out["checker.evals_per_s"] = (
            c.get("evaluations", 0) / check_time if check_time else 0.0, "1/s")
        certifies = calls.get("checker.certify", 0)
        out["checker.certify.ok_per_call"] = (
            c.get("certified", 0) / certifies if certifies else 0.0, "ratio")
        parse_time = total.get("parser.parse_model", 0.0)
        out["parser.parse_model.bytes_per_s"] = (
            c.get("parsed_bytes", 0) / parse_time if parse_time else 0.0, "B/s")
        out["cli.table2.verdicts"] = (c.get("table2_verdicts", 0) / per_op, "1/op")
        out["trace.ops"] = (ops, "count")
        out["trace.spans_per_op"] = (len(self.spans) / per_op, "1/op")
        return out


def _observe_check(tracer, args, verdict):
    tracer.count("evaluations", verdict.stats.evaluations)
    tracer.count("candidates", verdict.stats.candidates)
    tracer.count("found", int(verdict.found))


def _observe_certify(tracer, args, ok):
    tracer.count("certified", int(bool(ok)))


def _observe_parse(tracer, args, model):
    tracer.count("parsed_bytes", len(args[0].encode()))


_OBSERVERS = {
    "checker.check": _observe_check,
    "checker.certify": _observe_certify,
    "parser.parse_model": _observe_parse,
}
