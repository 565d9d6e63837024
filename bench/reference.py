"""The benchmark's own reference computations.

Nothing here imports the program.  Three computations check its outputs:

* a brute-force decider for the finite `oracle` obligations, which
  enumerates every grid point and every run of the loop-free program;
* exact-rational kinematics of the stop-before-obstacle loop body
  `env; aux; ctrl; plant` (double integrator in closed form), used to
  replay `table2` certificates and every `replay` trace step;
* the analytic solution of the drag plant `x' = v, v' = a - v/4`, used
  to check the program's numeric (RK4) traces within DRAG_TOLERANCE.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from fractions import Fraction

# ---------------------------------------------------------------------------
# Brute-force decider for finite obligations (tuple syntax from inputs.py)

_CMP = {"<=": operator.le, "<": operator.lt, ">=": operator.ge,
        ">": operator.gt, "=": operator.eq, "!=": operator.ne}
_ARITH = {"add": operator.add, "sub": operator.sub, "mul": operator.mul}


def eval_term(t, s):
    if t[0] == "var":
        return s[t[1]]
    if t[0] == "num":
        return t[1]
    return _ARITH[t[0]](eval_term(t[1], s), eval_term(t[2], s))


def eval_fol(f, s) -> bool:
    op = f[0]
    if op == "cmp":
        return _CMP[f[1]](eval_term(f[2], s), eval_term(f[3], s))
    if op == "not":
        return not eval_fol(f[1], s)
    if op == "and":
        return eval_fol(f[1], s) and eval_fol(f[2], s)
    if op == "or":
        return eval_fol(f[1], s) or eval_fol(f[2], s)
    return (not eval_fol(f[1], s)) or eval_fol(f[2], s)  # implies


def final_states(p, s) -> list:
    """Every non-aborting final state of a loop-free program."""
    op = p[0]
    if op == "assign":
        out = dict(s)
        out[p[1]] = eval_term(p[2], s)
        return [out]
    if op == "test":
        return [s] if eval_fol(p[1], s) else []
    if op == "choice":
        return final_states(p[1], s) + final_states(p[2], s)
    return [end for mid in final_states(p[1], s)
            for end in final_states(p[2], mid)]


def matrix_truth(spec, s) -> bool:
    kind, side, program, post = spec
    if kind == "forall":
        return (not eval_fol(side, s)) or all(
            eval_fol(post, end) for end in final_states(program, s))
    return eval_fol(side, s) and any(
        eval_fol(post, end) for end in final_states(program, s))


def target_truth(spec) -> bool:
    """Matrix truth a falsifier (forall) or witness (exists) must reach."""
    return spec[0] == "exists"


def brute_force_found(spec, variables, values) -> bool:
    """True iff some grid point falsifies (forall) / witnesses (exists)."""
    target = target_truth(spec)
    x, y = variables
    return any(matrix_truth(spec, {x: vx, y: vy}) == target
               for vx in values for vy in values)


def check_oracle_verdict(spec, found, status, assignment, variables, values):
    """Error text, or None when the program's verdict is right.

    `found` must agree with brute force; a found verdict must name the
    right status and its assignment must really falsify / witness."""
    expected = brute_force_found(spec, variables, values)
    if found != expected:
        return f"verdict found={found}, brute force says {expected}"
    if not found:
        return None
    wanted = "falsified" if spec[0] == "forall" else "witness_found"
    if status != wanted:
        return f"status {status}, expected {wanted}"
    point = {v: Fraction(assignment[v]) for v in variables}
    if any(point[v] not in values for v in variables):
        return f"certificate {point} is off the grid"
    if matrix_truth(spec, point) != target_truth(spec):
        return f"certificate {point} does not decide the matrix"
    return None


# ---------------------------------------------------------------------------
# Stop-before-obstacle kinematics

PAPER_CONSTANTS = {"T": Fraction(1), "anmax": Fraction(2),
                   "anmin": Fraction(3), "asmin": Fraction(4)}
DRAG_TOLERANCE = 1e-9  # absolute, on x, v and tau after a drag plant
STATE_VARS = ("x", "v", "a", "xc", "tau")


@dataclass(frozen=True)
class StopModel:
    """m2, m3 or m4 with given constants; `drag` swaps the plant for
    x' = v, v' = a - v/4 (outside the closed-form template)."""
    family: str
    T: Fraction
    anmax: Fraction
    anmin: Fraction
    asmin: Fraction
    drag: bool = False

    def constants(self) -> dict:
        return {"T": self.T, "anmax": self.anmax, "anmin": self.anmin,
                "asmin": self.asmin}


# Tests read constants from the state, as the program does: after a
# numeric plant every value in the state, constants included, is a float.

def env_ok(s) -> bool:
    return s["xc"] - s["x"] >= s["v"] ** 2 / (2 * s["anmin"])


def aux_ok(family, s) -> bool:
    a, v, T, anmin = s["a"], s["v"], s["T"], s["anmin"]
    if not (-anmin <= a <= s["anmax"]):
        return False
    if family != "m3":
        return True
    if v + a * T >= 0:
        return v * T + a * T ** 2 / 2 <= v ** 2 / (2 * anmin)
    return a <= -anmin


def safe_margin(family, s):
    """Slack of the ctrl 'safe' condition; the override fires when < 0."""
    v, T, anmax = s["v"], s["T"], s["anmax"]
    need = v * T + anmax * T ** 2 / 2
    if family == "m4":
        need += (v + anmax * T) ** 2 / (2 * s["anmin"])
    return s["xc"] - s["x"] - need


def plant_domain(s) -> bool:
    return s["v"] >= 0 and s["tau"] <= s["T"]


def drag_zero_time(v0: float, a: float) -> float:
    """Time at which the drag plant's velocity reaches 0 (inf if never)."""
    if a >= 0:
        return math.inf
    return 4 * math.log1p(v0 / (-4 * a))


def plant_end(m: StopModel, s, d):
    """State after evolving the plant for duration d from s (tau reset)."""
    out = dict(s)
    if not m.drag:
        a = s["a"]
        out["x"] = s["x"] + s["v"] * d + a * d * d / 2
        out["v"] = s["v"] + a * d
        out["tau"] = s["tau"] + d
        return out
    out = {k: float(v) for k, v in s.items()}
    a, v0, t = out["a"], out["v"], float(d)
    decay = math.exp(-t / 4)
    out["v"] = 4 * a + (v0 - 4 * a) * decay
    out["x"] = out["x"] + 4 * a * t + 4 * (v0 - 4 * a) * (1 - decay)
    out["tau"] = out["tau"] + t
    return out


class Aborted(Exception):
    def __init__(self, stage, state):
        super().__init__(stage)
        self.stage = stage
        self.state = state


class _Cursor:
    def __init__(self, decisions):
        self.decisions = list(decisions)
        self.index = 0

    def take(self, kind):
        if self.index >= len(self.decisions):
            raise ValueError(f"script exhausted; expected {kind}")
        got, arg = self.decisions[self.index]
        if got != kind:
            raise ValueError(f"expected {kind} at {self.index}, got {got}")
        self.index += 1
        return arg


class Simulator:
    """Replays `env; aux; ctrl; plant` decisions and records each step.

    `steps` mirrors the program's trace: one (time, state) entry for the
    initial state and for every assignment, passed test and plant
    evolution, in execution order."""

    def __init__(self, m: StopModel, state, decisions):
        self.m = m
        self.state = dict(state)
        self.cursor = _Cursor(decisions)
        self.time = Fraction(0)
        self.steps = [(self.time, dict(self.state))]

    def _record(self):
        self.steps.append((self.time, dict(self.state)))

    def _assign(self, var, value):
        self.state[var] = value
        self._record()

    def _test(self, ok, stage):
        if not ok:
            raise Aborted(stage, dict(self.state))
        self._record()

    def iteration(self, with_ctrl=True):
        m, s = self.m, self.state
        self._assign("xc", self.cursor.take("value"))
        self._test(env_ok(s), "env")
        self._assign("a", self.cursor.take("value"))
        self._test(aux_ok(m.family, s), "aux")
        if with_ctrl:
            unsafe = safe_margin(m.family, s) < 0
            if self.cursor.take("branch") == "left":
                self._test(unsafe, "ctrl")
                self._assign("a", self.cursor.take("value"))
                self._test(s["a"] == -s["asmin"], "ctrl")
            else:
                self._test(not unsafe, "ctrl")
        self._assign("tau", Fraction(0))
        d = self.cursor.take("duration")
        start = {k: float(v) for k, v in s.items()} if m.drag else s
        if not plant_domain(start):
            raise Aborted("plant", start)
        end = plant_end(m, s, d)
        if not plant_domain(end):
            raise Aborted("plant", end)
        self.state = s = end
        self.time += d
        self._record()

    def loop(self):
        for _ in range(self.cursor.take("loop")):
            self.iteration()

    def finish(self):
        """('final', state) or ('aborted', stage, state)."""
        try:
            self.loop()
        except Aborted as exc:
            return ("aborted", exc.stage, exc.state)
        if self.cursor.index != len(self.cursor.decisions):
            raise ValueError("surplus decisions")
        return ("final", self.state)


def values_match(expected, actual) -> bool:
    if isinstance(expected, float):
        return isinstance(actual, float) and abs(expected - actual) <= DRAG_TOLERANCE
    return isinstance(actual, (Fraction, int)) and actual == expected


def compare_trace(steps, trace):
    """Error text, or None when the program's trace matches the reference
    steps in length, time and every state variable."""
    if len(steps) != len(trace):
        return f"trace has {len(trace)} steps, reference {len(steps)}"
    for i, ((time, state), step) in enumerate(zip(steps, trace)):
        if step.time != time:
            return f"step {i}: time {step.time} != {time}"
        for var in STATE_VARS:
            if not values_match(state[var], step.state.get(var)):
                return (f"step {i}: {var} = {step.state.get(var)!r}, "
                        f"reference {state[var]!r}")
    return None


def compare_outcome(expected, outcome_kind, outcome_state):
    """Error text, or None when final/aborted and the state agree; a final
    state must also satisfy the guarantee x <= xc."""
    if expected[0] != outcome_kind:
        return f"outcome {outcome_kind}, reference {expected[0]}"
    state = expected[-1]
    for var in STATE_VARS:
        if not values_match(state[var], outcome_state.get(var)):
            return f"outcome {var} = {outcome_state.get(var)!r}, reference {state[var]!r}"
    if outcome_kind == "final" and not outcome_state["x"] <= outcome_state["xc"]:
        return f"guarantee x <= xc fails at the final state {outcome_state}"
    return None


# ---------------------------------------------------------------------------
# table2: the paper's classification and certificate replay

# (model, invariant, conjuncts, paper's Yes/No)
PAPER_TABLE2 = (
    ("m2", "zeta1", (), "Yes"),
    ("m2", "zeta1", ("rho",), "No"),
    ("m2", "zeta2", ("rho",), "No"),
    ("m3", "zeta1", (), "Yes"),
    ("m3", "zeta1", ("not_chi",), "No"),
    ("m4", "zeta1", (), "Yes"),
    ("m4", "zeta1", ("rho", "not_chi"), "No"),
    ("m4", "zeta2", ("rho", "not_chi"), "Yes"),
)

ZETA = {
    "zeta1": lambda s: s["x"] <= s["xc"],
    "zeta2": lambda s: s["v"] ** 2 <= 2 * s["anmin"] * (s["xc"] - s["x"]),
}
UNIVERSAL = "falsify_universal"


def decision_from_json(d):
    (kind, arg), = d.items()
    if kind == "branch":
        return ("branch", arg)
    if kind == "loop":
        return ("loop", int(arg))
    return (kind, Fraction(arg))


def replay_certificate(model_id, invariant, verdict) -> str | None:
    """Error text, or None when the certificate of a found verdict is
    reproduced by the exact kinematics above."""
    name, cert = verdict["obligation"], verdict.get("certificate")
    if cert is None:
        return f"{name}: found verdict without certificate"
    if not cert["exact"]:
        return f"{name}: certificate is not exact"
    m = StopModel(model_id, **PAPER_CONSTANTS)
    s = {"tau": Fraction(0), **m.constants()}
    s.update({k: Fraction(v) for k, v in cert["assignment"].items()})
    scripts = [[decision_from_json(d) for d in script]
               for script in cert["scripts"]]
    zeta = ZETA[invariant]
    universal = verdict["kind"] == UNIVERSAL
    try:
        if name == "rho" and universal:
            ok = (len(scripts) == 1 and len(scripts[0]) == 1
                  and scripts[0][0] == ("value", s["xc_post"])
                  and zeta(s) and s["xc"] <= s["xc_post"]
                  and not env_ok({**s, "xc": s["xc_post"]}))
        elif name == "loop_i" and universal:
            ok = s["v"] == 0 and s["x"] <= s["xc"] and not zeta(s)
        elif name == "loop_iii" and universal:
            ok = zeta(s) and not s["x"] <= s["xc"]
        elif name in ("loop_ii", "not_chi") and len(scripts) == 1:
            sim = Simulator(m, s, scripts[0])
            sim.iteration(with_ctrl=name == "loop_ii")
            ok = (universal == (name == "loop_ii")
                  and sim.cursor.index == len(scripts[0])
                  and zeta(s) and not zeta(sim.state))
        else:
            return f"{name}: no reference replay for this certificate"
    except (Aborted, ValueError, KeyError) as exc:
        return f"{name}: certificate replay failed ({exc!r})"
    return None if ok else f"{name}: certificate does not reproduce"


def check_table2(code, report) -> list:
    """Errors found in one table2 JSON report (empty when correct)."""
    errors = []
    if code != 0 or not report.get("all_match"):
        errors.append(f"exit code {code}, all_match {report.get('all_match')}")
    rows = report.get("rows", [])
    if len(rows) != len(PAPER_TABLE2):
        return errors + [f"{len(rows)} rows, expected {len(PAPER_TABLE2)}"]
    for row, (model_id, invariant, conjuncts, paper) in zip(rows, PAPER_TABLE2):
        where = f"{model_id}/{invariant}/{'+'.join(conjuncts) or '-'}"
        if (row["model"], row["invariant"], tuple(row["conjuncts"])) != \
                (model_id, invariant, conjuncts):
            errors.append(f"{where}: row order differs")
            continue
        names = [v["obligation"] for v in row["verdicts"]]
        if names != ["loop_i", "loop_ii", "loop_iii", *conjuncts]:
            errors.append(f"{where}: obligations {names}")
        passed = all(
            v["verdict"] == ("not_falsified" if v["kind"] == UNIVERSAL
                             else "witness_found")
            for v in row["verdicts"])
        ours = "Yes" if passed else "No"
        if ours != paper or row["computed"] != paper:
            errors.append(f"{where}: computed {row['computed']}, verdicts say "
                          f"{ours}, paper says {paper}")
        for v in row["verdicts"]:
            if v["verdict"] in ("falsified", "witness_found"):
                problem = replay_certificate(model_id, invariant, v)
                if problem:
                    errors.append(f"{where}: {problem}")
    return errors
