"""Desk-scale obligation checking.

Universal obligations are attacked by searching for a falsifying
assignment of the quantified variables; existential obligations by
searching for a witness.  Candidates come from a coarse-to-fine grid and
seeded uniform sampling; they stay integer (numerator, denominator) pairs
until a value enters a program state or a certificate.  Modalities
are decided by script enumeration; the diamond-over-env pattern
`<e := *; ?P> e = e1` is decided goal-directed (bind e := e1, evaluate P)
with no search.  Every candidate success is re-checked by exact rational
replay before a verdict is emitted, so found-verdicts carry certificates
that cannot be false alarms.

Search cannot prove validity of quantified nonlinear arithmetic:
NotFalsified / NoWitnessFound are budget-exhausted non-results.
"""

from __future__ import annotations

import hashlib
import itertools
import math
import random
from dataclasses import dataclass, field
from fractions import Fraction

from .model import DEFAULT_DOMAIN
from .obligations import (
    FIND_WITNESS, Obligation, chi_obligation, exploit_witness_formula,
    friendliness_probe, loop_obligations, psi_obligation, rho_obligation,
)
from .parser import parse_term
from .semantics import (
    Aborted, Branch, Duration, Final, LoopCount, Plant, RandomValue,
    _Inexact, _ratio_term, compile_fol, eval_fol, eval_term, is_exact, run,
)
from .syntax import (
    And, Assign, Box, Choice, Cmp, Diamond, Forall, Exists, Iff,
    Implies, Loop, Not, ODE, Or, RandomAssign, Seq, Sub, Test, Var,
    assigned_variables, conjuncts, free_variables,
)

# Search shape: grid refinement levels before sampling, durations tried per
# ODE (0, the maximum and uniform samples), values tried per random
# assignment and loop unrollings.
GRID_LEVELS = 2
DURATION_SAMPLES_PER_ODE = 4
VALUES_PER_RANDOM_ASSIGN = 6
LOOP_COUNTS = (0, 1, 2)

FALSIFIED = "falsified"
WITNESS_FOUND = "witness_found"
NOT_FALSIFIED = "not_falsified"
NO_WITNESS_FOUND = "no_witness_found"

VERDICT_VOCABULARY = {
    FALSIFIED: "No (counterexample)",
    WITNESS_FOUND: "witness found",
    NOT_FALSIFIED: "consistent with valid",
    NO_WITNESS_FOUND: "no witness within budget",
}


class CheckError(Exception):
    pass


class UnsupportedObligation(CheckError):
    pass


class SelectorError(Exception):
    """An obligation selector that does not apply to the model."""


@dataclass(frozen=True)
class SearchConfig:
    budget: int = 200_000
    seed: int = 0
    # Optional exhaustive mode: every quantified variable takes values from
    # a finite list; no grid or sampling happens.
    discrete: dict | None = None

    def __post_init__(self):
        if self.budget < 1:
            raise ValueError("budget must be >= 1")


@dataclass
class Stats:
    evaluations: int = 0
    candidates: int = 0
    discarded_certificates: int = 0


@dataclass
class Verdict:
    status: str
    counterexample: "Counterexample | None"
    stats: Stats
    obligation: Obligation
    seed: int

    @property
    def found(self) -> bool:
        return self.status in (FALSIFIED, WITNESS_FOUND)

    def to_json(self):
        out = {
            "obligation": self.obligation.name,
            "kind": self.obligation.kind,
            "verdict": self.status,
            "evaluations": self.stats.evaluations,
            "seed": self.seed,
        }
        if self.counterexample is not None:
            out["certificate"] = self.counterexample.to_json()
        return out


# Evidence trees mirror the matrix structure along the established path.

@dataclass
class EvLeaf:
    formula: object
    value: bool


@dataclass
class EvBoth:
    left: object
    right: object


@dataclass
class EvPick:
    side: str  # 'left' | 'right'
    inner: object


@dataclass
class EvScript:
    script: list
    inner: object


@dataclass
class EvGoalFail:
    """Goal-directed refutation of <e := *; ?P> e = e1: P fails at e1."""
    value: object


@dataclass
class Counterexample:
    assignment: dict
    evidence: object
    scripts: list = field(default_factory=list)
    trace: list = field(default_factory=list)
    numeric_only: bool = False

    def to_json(self):
        return {
            "assignment": {k: str(v) for k, v in sorted(self.assignment.items())},
            "scripts": [[_decision_json(d) for d in script]
                        for script in self.scripts],
            "exact": not self.numeric_only,
        }


def _decision_json(decision):
    if isinstance(decision, Branch):
        return {"branch": decision.side}
    if isinstance(decision, RandomValue):
        return {"value": str(decision.value)}
    if isinstance(decision, Duration):
        return {"duration": str(decision.value)}
    if isinstance(decision, LoopCount):
        return {"loop": decision.count}
    raise TypeError(decision)


def flatten_scripts(evidence) -> list:
    out = []
    stack = [evidence]
    while stack:
        node = stack.pop(0)
        if isinstance(node, EvScript):
            out.append(node.script)
            stack.insert(0, node.inner)
        elif isinstance(node, EvGoalFail):
            out.append([RandomValue(node.value)])
        elif isinstance(node, EvBoth):
            stack.insert(0, node.right)
            stack.insert(0, node.left)
        elif isinstance(node, EvPick):
            stack.insert(0, node.inner)
    return out


def _has_modality(formula, memo) -> bool:
    key = id(formula)
    if key in memo:
        return memo[key]
    if isinstance(formula, (Box, Diamond)):
        out = True
    elif isinstance(formula, Not):
        out = _has_modality(formula.inner, memo)
    elif isinstance(formula, (And, Or, Implies, Iff)):
        out = (_has_modality(formula.left, memo)
               or _has_modality(formula.right, memo))
    elif isinstance(formula, (Forall, Exists)):
        raise UnsupportedObligation(
            "inner quantifiers are not supported; close the formula instead")
    else:
        out = False
    memo[key] = out
    return out


def _env_goal_pattern(diamond: Diamond):
    """Match <x := *; ?P> (x = t) with x not free in t; return (x, P, t)."""
    p = diamond.program
    if not (isinstance(p, Seq) and isinstance(p.first, RandomAssign)
            and isinstance(p.second, Test)):
        return None
    post = diamond.post
    if not (isinstance(post, Cmp) and post.op == "="):
        return None
    x = p.first.var
    for pinned, other in ((post.left, post.right), (post.right, post.left)):
        if pinned == Var(x) and x not in free_variables(other):
            return x, p.second.condition, other
    return None


# ---------------------------------------------------------------------------
# Search engine

class _Engine:
    def __init__(self, obligation: Obligation, config: SearchConfig):
        self.obligation = obligation
        self.config = config
        self.stats = Stats()
        self.memo = {}
        self._fol_cache = {}
        self._plants = {}
        self._pin_cache = {}
        self._goal_cache = {}
        self._binop_cache = {}
        self._draws = {}  # var -> (lo, hi, sampler) of its search interval
        self._rng = None
        self._rng_key = ("", 0)

    def reset_rng(self, salt: str):
        """Reseed lazily; most candidates never draw a sample."""
        self._rng = None
        self._rng_key = salt

    @property
    def rng(self):
        if self._rng is None:
            self._rng = random.Random(
                _derive_seed(self.config.seed, self.obligation.name,
                             self._rng_key))
        return self._rng

    def _fol(self, formula):
        fn = self._fol_cache.get(id(formula))
        if fn is None:
            fn = compile_fol(formula)
            self._fol_cache[id(formula)] = fn
        return fn

    # budget ---------------------------------------------------------------

    def _count(self, n=1):
        self.stats.evaluations += n

    def over_budget(self) -> bool:
        return self.stats.evaluations >= self.config.budget

    # leaf evaluation ------------------------------------------------------

    def _leaf(self, state, formula, target):
        self._count()
        if self._fol(formula)(state) == target:
            return EvLeaf(formula, target)
        return None

    # establish ------------------------------------------------------------

    def establish(self, state, formula, target):
        """Evidence that `formula` evaluates to `target` in `state`, or
        None when search finds none."""
        if not _has_modality(formula, self.memo):
            return self._leaf(state, formula, target)
        if isinstance(formula, Not):
            return self.establish(state, formula.inner, not target)
        if isinstance(formula, (And, Or, Implies)):
            ops = self._binop_cache.get(id(formula))
            if ops is None:
                if isinstance(formula, And):
                    ops = (formula.left, formula.right, True)
                elif isinstance(formula, Or):
                    ops = (formula.left, formula.right, False)
                else:
                    ops = (Not(formula.left), formula.right, False)
                self._binop_cache[id(formula)] = ops
            left, right, both_on_true = ops
            return self._binary(state, left, right, target,
                                both_needed=both_on_true == target)
        if isinstance(formula, Iff):
            raise UnsupportedObligation("modal <-> is not supported")
        if isinstance(formula, Box):
            if target:
                raise UnsupportedObligation(
                    "cannot establish a box by search; negate the obligation")
            return self._search_runs(state, formula, False)
        if isinstance(formula, Diamond):
            return self._diamond(state, formula, target)
        raise CheckError(f"unexpected formula {formula!r}")

    def _binary(self, state, left, right, target, both_needed):
        ev_l = self.establish(state, left, target)
        if both_needed:
            if ev_l is None and _has_modality(right, self.memo):
                return None  # skip an expensive doomed operand
            ev_r = self.establish(state, right, target)
            if ev_l is not None and ev_r is not None:
                return EvBoth(ev_l, ev_r)
            return None
        if ev_l is not None:
            return EvPick("left", ev_l)
        ev_r = self.establish(state, right, target)
        return None if ev_r is None else EvPick("right", ev_r)

    def _search_runs(self, state, modality, target):
        """A run of the modality's program after which its post evaluates
        to `target`: refutes a box (False) or witnesses a diamond (True)."""
        for final_state, script in self._runs(state, modality.program):
            ev = self.establish(final_state, modality.post, target)
            if ev is not None:
                return EvScript(script, ev)
            if self.over_budget():
                break
        return None

    def _diamond(self, state, diamond: Diamond, target):
        if id(diamond) in self._goal_cache:
            goal = self._goal_cache[id(diamond)]
        else:
            goal = _env_goal_pattern(diamond)
            self._goal_cache[id(diamond)] = goal
        if goal is not None:
            x, test, pin_term = goal
            value = eval_term(state, pin_term)
            bound = dict(state)
            bound[x] = value
            self._count()
            holds = self._fol(test)(bound)
            if holds and target:
                return EvScript([RandomValue(value)],
                                EvLeaf(diamond.post, True))
            if not holds and not target:
                return EvGoalFail(value)
            return None
        if not target:
            raise UnsupportedObligation(
                "cannot refute a general diamond by search")
        return self._search_runs(state, diamond, True)

    # run enumeration ------------------------------------------------------

    def _runs(self, state, program):
        """Enumerate non-aborting runs as (final state, script)."""
        if isinstance(program, Assign):
            out = dict(state)
            out[program.var] = eval_term(state, program.term)
            yield out, []
            return
        if isinstance(program, RandomAssign):
            following = None
            for value in self._random_values(state, program.var, following):
                out = dict(state)
                out[program.var] = value
                yield out, [RandomValue(value)]
            return
        if isinstance(program, Test):
            self._count()
            if self._fol(program.condition)(state):
                yield state, []
            return
        if isinstance(program, ODE):
            plant = self._plants.get(id(program))
            if plant is None:
                plant = self._plants[id(program)] = Plant(program)
            for duration in self._durations(state, plant):
                self._count(2)
                outcome = plant.evolve(state, duration)
                if isinstance(outcome, Final):
                    yield outcome.state, [Duration(duration)]
            return
        if isinstance(program, Choice):
            yield from self._prefixed(state, program.left, Branch("left"))
            if not self.over_budget():
                yield from self._prefixed(state, program.right, Branch("right"))
            return
        if isinstance(program, Seq):
            first, second = program.first, program.second
            # fuse `x := *; ?P` so the test can pin candidate values
            if isinstance(first, RandomAssign) and isinstance(second, Test):
                test_fn = self._fol(second.condition)
                for value in self._random_values(state, first.var,
                                                 second.condition):
                    out = dict(state)
                    out[first.var] = value
                    self._count()
                    if test_fn(out):
                        yield out, [RandomValue(value)]
                return
            for mid_state, script1 in self._runs(state, first):
                for final_state, script2 in self._runs(mid_state, second):
                    yield final_state, script1 + script2
                    if self.over_budget():
                        return
                if self.over_budget():
                    return
            return
        if isinstance(program, Loop):
            for count in LOOP_COUNTS:
                for final_state, script in self._unroll(state, program.body,
                                                        count):
                    yield final_state, [LoopCount(count)] + script
                if self.over_budget():
                    return
            return
        raise CheckError(f"unexpected program {program!r}")

    def _prefixed(self, state, program, decision):
        for final_state, script in self._runs(state, program):
            yield final_state, [decision] + script

    def _unroll(self, state, body, count):
        if count == 0:
            yield state, []
            return
        for mid_state, script1 in self._runs(state, body):
            for final_state, script2 in self._unroll(mid_state, body, count - 1):
                yield final_state, script1 + script2

    def _random_values(self, state, var, following_test):
        draws = self._draws.get(var)
        if draws is None:
            lo, hi = self.obligation.search_box.get(
                var, self._box_fallback(var))
            draws = self._draws[var] = (lo, hi, _sampler(lo, hi))
        lo, hi, sample = draws
        values = []
        if following_test is not None:
            values.extend(self._pins(state, var, following_test))
        values.extend([lo, hi])
        bits = self.rng.getrandbits
        for _ in range(VALUES_PER_RANDOM_ASSIGN):
            values.append(Fraction(*sample(bits(16))))
        seen = set()
        out = []
        for v in values:
            key = v.as_integer_ratio()
            if key not in seen:
                seen.add(key)
                out.append(v)
        return out

    def _box_fallback(self, var):
        for suffix in ("_post", "_prev"):
            if var.endswith(suffix):
                base = var[: -len(suffix)]
                if base in self.obligation.search_box:
                    return self.obligation.search_box[base]
        return DEFAULT_DOMAIN

    def _pins(self, state, var, test):
        """Boundary values of `var` from affine conjuncts of the test: the
        zero of each conjunct's left - right, one Fraction per pin."""
        probe = dict(state)
        pins = [_pin(probe, var, diff, exact)
                for diff, exact in self._pin_diffs(test, var)]
        return [pin for pin in pins if pin is not None]

    def _pin_diffs(self, test, var):
        key = (id(test), var)
        diffs = self._pin_cache.get(key)
        if diffs is None:
            diffs = []
            for c in conjuncts(test):
                if not isinstance(c, Cmp):
                    continue
                if var in free_variables(c.left) | free_variables(c.right):
                    diff = Sub(c.left, c.right)
                    diffs.append((diff, _ratio_term(diff)))
            self._pin_cache[key] = diffs
        return diffs

    def _durations(self, state, plant):
        self._count(2)
        # the numeric path returns a float; the maximum is itself a
        # duration to try, and Fraction(float) is exact
        maximum = Fraction(plant.max_duration(state))
        if maximum <= 0:
            return [Fraction(0)]
        out = [maximum, Fraction(0)]
        sample = _sampler(0, maximum)
        bits = self.rng.getrandbits
        for _ in range(DURATION_SAMPLES_PER_ODE - 2):
            out.append(Fraction(*sample(bits(16))))
        return out


def _pin(probe, var, diff, exact):
    """The zero -d0 / slope of `diff` = d0 + slope * var, when probing var =
    0, 1, 2 on int pairs finds it affine with a nonzero slope; else None.
    A state holding a float probes with eval_term instead and keeps its
    float arithmetic up to the slope."""
    try:
        probe[var] = (0, 1)
        n0, d0 = exact(probe)
        probe[var] = (1, 1)
        n1, d1 = exact(probe)
    except _Inexact:
        try:
            probe[var] = Fraction(0)
            f0 = eval_term(probe, diff)
            probe[var] = Fraction(1)
            f1 = eval_term(probe, diff)
        except Exception:
            return None
        slope = f1 - f0
        probe[var] = Fraction(2)
        if slope == 0 or eval_term(probe, diff) - f1 != slope:
            return None
        (n0, d0), (sn, sd) = f0.as_integer_ratio(), slope.as_integer_ratio()
        return Fraction(-n0 * sd, d0 * sn)
    except Exception:
        return None  # undefined at a probe
    sn, sd = n1 * d0 - n0 * d1, d0 * d1
    if sn == 0:
        return None
    probe[var] = (2, 1)
    n2, d2 = exact(probe)
    if (n2 * d1 - n1 * d2) * sd != sn * d1 * d2:
        return None  # not affine: the step from 1 to 2 is not the slope
    return Fraction(-n0 * sd, d0 * sn)


# ---------------------------------------------------------------------------
# Candidate streams

def _derive_seed(seed, name, salt=""):
    digest = hashlib.blake2b(f"{seed}:{name}:{salt}".encode(),
                             digest_size=8).digest()
    return int.from_bytes(digest, "big")


def _sampler(lo, hi, bits=16):
    """n -> lo + (hi - lo) * n / 2^bits as an unreduced (numerator,
    denominator) int pair; a uniform n < 2^bits samples [lo, hi]
    exactly."""
    ln, ld = lo.as_integer_ratio()
    hn, hd = hi.as_integer_ratio()
    d = math.lcm(ld, hd)
    base = ln * (d // ld)
    step = hn * (d // hd) - base
    base, den = base << bits, d << bits
    return lambda n: (base + n * step, den)


def _candidates(search_vars, box, config, rng, pairs):
    """Candidate assignments of `search_vars`: the `discrete` product,
    which ends, or the coarse-to-fine grid followed by endless seeded
    samples.  Values are int pairs when `pairs`, else Fractions."""
    if config.discrete is not None:
        lists = [config.discrete[v] for v in search_vars]
        if pairs:
            lists = [[x.as_integer_ratio() for x in xs] for xs in lists]
        for combo in itertools.product(*lists):
            yield dict(zip(search_vars, combo))
        return
    if not search_vars:
        yield {}
        return
    for level in range(GRID_LEVELS + 1):
        n = 1 << (level + 1)
        axes = []
        for v in search_vars:
            point = _sampler(*box[v], bits=level + 1)
            axes.append([(point(i) if pairs else Fraction(*point(i)), i)
                         for i in range(n + 1)])
        for combo in itertools.product(*axes):
            if level > 0 and all(i % 2 == 0 for _, i in combo):
                continue  # already visited at the previous level
            yield {v: value for v, (value, _) in zip(search_vars, combo)}
    samplers = [(v, _sampler(*box[v])) for v in search_vars]
    bits = rng.getrandbits
    if pairs:
        while True:
            yield {v: sample(bits(16)) for v, sample in samplers}
    while True:
        yield {v: Fraction(*sample(bits(16))) for v, sample in samplers}


# ---------------------------------------------------------------------------
# Certification (exact replay)

class _Replayer:
    def __init__(self):
        self.trace = []
        self.numeric_only = False

    def replay(self, state, formula, target, evidence) -> bool:
        # search walks through Not without recording a node of its own
        while isinstance(formula, Not) and not isinstance(evidence, EvLeaf):
            formula, target = formula.inner, not target
        if isinstance(evidence, EvLeaf):
            truth = self._eval_exact(state, evidence.formula)
            return truth == target and truth == evidence.value
        if isinstance(evidence, EvBoth):
            left, right = _operands(formula, target, both=True)
            if left is None:
                return False
            return (self.replay(state, left, target, evidence.left)
                    and self.replay(state, right, target, evidence.right))
        if isinstance(evidence, EvPick):
            left, right = _operands(formula, target, both=False)
            if left is None:
                return False
            chosen = left if evidence.side == "left" else right
            return self.replay(state, chosen, target, evidence.inner)
        if isinstance(evidence, EvScript):
            if isinstance(formula, Box) and not target:
                program, post, post_target = formula.program, formula.post, False
            elif isinstance(formula, Diamond) and target:
                program, post, post_target = formula.program, formula.post, True
            else:
                return False
            outcome, trace = run(state, program, evidence.script)
            self.trace.extend(trace)
            if not isinstance(outcome, Final):
                return False
            if any(not is_exact(v) for v in outcome.state.values()):
                self.numeric_only = True
            return self.replay(outcome.state, post, post_target, evidence.inner)
        if isinstance(evidence, EvGoalFail):
            if not (isinstance(formula, Diamond) and not target):
                return False
            goal = _env_goal_pattern(formula)
            if goal is None:
                return False
            _, _, pin_term = goal
            if evidence.value != eval_term(state, pin_term):
                return False
            outcome, trace = run(state, formula.program,
                                 [RandomValue(evidence.value)])
            self.trace.extend(trace)
            return isinstance(outcome, Aborted)
        return False

    def _eval_exact(self, state, formula) -> bool:
        if any(not is_exact(v) for v in state.values()):
            self.numeric_only = True
        return eval_fol(state, formula)


def _operands(formula, target, both):
    """Operand pair of a binary connective for the given target polarity."""
    if isinstance(formula, And):
        needs_both = target
        left, right = formula.left, formula.right
    elif isinstance(formula, Or):
        needs_both = not target
        left, right = formula.left, formula.right
    elif isinstance(formula, Implies):
        needs_both = not target
        left, right = Not(formula.left), formula.right
    else:
        return None, None
    if needs_both != both:
        return None, None
    return left, right


def certify(counterexample: Counterexample, obligation: Obligation) -> bool:
    """Replay the certificate with exact rational arithmetic.

    Returns True iff the recorded truth value is reproduced.  When a
    non-closed-form ODE forces floating point, that part of the replay is
    plain float evaluation and the certificate is marked `numeric_only`
    (`"exact": false` in its JSON).
    """
    target = obligation.kind == FIND_WITNESS
    state = {}
    for k, v in obligation.fixed_constants.items():
        state[k] = Fraction(v)
    for k, v in counterexample.assignment.items():
        state[k] = Fraction(v)
    _, matrix = obligation.split()
    for var in free_variables(obligation.formula) - set(state):
        state[var] = Fraction(0)
    replayer = _Replayer()
    try:
        ok = replayer.replay(state, matrix, target, counterexample.evidence)
    except Exception:
        return False
    if not ok:
        return False
    counterexample.trace = replayer.trace
    counterexample.numeric_only = replayer.numeric_only
    return True


# ---------------------------------------------------------------------------
# Main entry points

def check(obligation: Obligation, config: SearchConfig = SearchConfig()) -> Verdict:
    """Decide an obligation within a search budget.

    FalsifyUniversal: search for an assignment making the matrix false.
    FindWitness: search for an assignment making the matrix true.
    Deterministic in (obligation, config) including the seed.
    """
    target = obligation.kind == FIND_WITNESS
    quantified, matrix = obligation.split()
    uncovered = (free_variables(obligation.formula)
                 - set(obligation.fixed_constants) - set(quantified)
                 - _assigned_in(matrix))
    if uncovered:
        raise CheckError(f"uncoverable free symbols: {sorted(uncovered)}")

    engine = _Engine(obligation, config)
    matrix_vars = free_variables(matrix)
    search_vars = [v for v in quantified if v in matrix_vars]
    box = obligation.search_box
    stream_rng = random.Random(_derive_seed(config.seed, obligation.name, "grid"))
    base_state = {k: Fraction(v) for k, v in obligation.fixed_constants.items()}
    for v in quantified:
        if v not in search_vars:
            lo, hi = box[v]
            base_state[v] = (lo + hi) / 2
    for v in _assigned_in(matrix) - set(base_state) - set(search_vars):
        base_state[v] = Fraction(0)

    # A modality-free matrix is decided on int pairs, with no Fraction per
    # candidate; only a hit goes through establish and certify on Fractions.
    pairs = not _has_modality(matrix, engine.memo)
    if pairs:
        decide = engine._fol(matrix)
        pair_base = {k: v.as_integer_ratio() for k, v in base_state.items()}
    for index, candidate in enumerate(_candidates(search_vars, box, config,
                                                  stream_rng, pairs)):
        if engine.over_budget():
            break
        engine.stats.candidates += 1
        if pairs:
            state = pair_base.copy()
            state.update(candidate)
            if decide(state) != target:
                engine._count()  # the evaluation establish would count
                continue
            candidate = {v: Fraction(*p) for v, p in candidate.items()}
        engine.reset_rng(str(index))
        cex = _try_candidate(engine, base_state, candidate, matrix, target,
                             obligation, quantified)
        if cex is not None:
            status = WITNESS_FOUND if target else FALSIFIED
            return Verdict(status, cex, engine.stats, obligation, config.seed)

    status = NO_WITNESS_FOUND if target else NOT_FALSIFIED
    return Verdict(status, None, engine.stats, obligation, config.seed)


def _assigned_in(matrix):
    out = set()
    stack = [matrix]
    while stack:
        node = stack.pop()
        if isinstance(node, (Box, Diamond)):
            out |= assigned_variables(node.program)
            stack.append(node.post)
        elif isinstance(node, Not):
            stack.append(node.inner)
        elif isinstance(node, (And, Or, Implies, Iff)):
            stack.extend((node.left, node.right))
    return out


def _try_candidate(engine, base_state, candidate, matrix, target, obligation,
                   quantified):
    """The certified counterexample or witness at `candidate`, or None."""
    state = dict(base_state)
    state.update(candidate)
    evidence = engine.establish(state, matrix, target)
    if evidence is None:
        return None
    assignment = {v: state[v] for v in quantified}
    cex = Counterexample(assignment, evidence,
                         scripts=flatten_scripts(evidence))
    if certify(cex, obligation):
        return cex
    engine.stats.discarded_certificates += 1
    return None


# ---------------------------------------------------------------------------
# Obligation selection

_ALL_SELECTORS = ("loop", "rho", "exploit", "chi", "not-chi", "friendly")


def obligations_for(model, zeta_name: str, selector: str) -> list:
    """The obligations of one `--obligation` selector (loop, gamma, rho,
    exploit, chi, not-chi, psi, friendly or all) or suite conjunct name
    (not_chi) for the model's invariant `zeta_name`."""
    if zeta_name not in model.invariants:
        raise SelectorError(f"unknown invariant {zeta_name!r}")
    zeta = model.invariants[zeta_name]
    if selector == "all":
        return [ob for name in _ALL_SELECTORS
                for ob in obligations_for(model, zeta_name, name)]
    if selector == "loop":
        return loop_obligations(model, zeta)
    if selector == "gamma":
        return loop_obligations(model, zeta)[1:2]  # preservation branch only
    if selector == "rho":
        return [rho_obligation(model, zeta)]
    if selector == "exploit":
        return [exploit_witness_formula(model, zeta)]
    if selector == "chi":
        return [chi_obligation(model, zeta)[0]]
    if selector in ("not-chi", "not_chi"):
        return [chi_obligation(model, zeta)[1]]
    if selector == "psi":
        # controller necessity of the braking instantiation a := -anmin
        if "zeta_iter" not in model.invariants:
            raise SelectorError("psi needs an invariant named zeta_iter")
        return [psi_obligation(model, model.invariants["zeta_iter"],
                               model.action_var, parse_term("-anmin"))]
    if selector == "friendly":
        return [friendliness_probe(model)]
    raise SelectorError(f"unknown obligation selector {selector!r}")


def derive_controller_witness(model, zeta_instantiated, psi_verdict):
    """Turn a controller-necessity witness into an uncontrolled-step witness.

    A witness of the necessity existential provides a state where the
    instantiated invariant holds and scripts through env;aux and plant
    after which it fails.  Replaying the same decisions through
    env;aux;plant from the same state breaks the invariant with ctrl
    removed, so it certifies the negated preservation existential.
    Returns the (obligation, certified verdict) pair.
    """
    if not psi_verdict.found or psi_verdict.counterexample is None:
        raise CheckError("necessity witness required")
    psi_cex = psi_verdict.counterexample
    scripts = psi_cex.scripts
    if len(scripts) != 2:
        raise CheckError("unexpected witness shape")
    env_aux_script, plant_script = scripts
    combined = list(env_aux_script) + list(plant_script)
    _, not_chi = chi_obligation(model, zeta_instantiated)
    matrix = not_chi.matrix()
    if not isinstance(matrix, And) or not isinstance(matrix.right, Diamond):
        raise CheckError("unexpected obligation shape")
    post = matrix.right.post  # Not(zeta)
    evidence = EvBoth(EvLeaf(matrix.left, True),
                      EvScript(combined, EvLeaf(post, True)))
    assignment = dict(psi_cex.assignment)
    for var in not_chi.quantified_vars():
        if var not in assignment:
            lo, hi = not_chi.search_box[var]
            assignment[var] = (lo + hi) / 2
    cex = Counterexample(assignment, evidence, scripts=[combined])
    if not certify(cex, not_chi):
        raise CheckError("derived witness failed certification")
    verdict = Verdict(WITNESS_FOUND, cex, Stats(), not_chi, psi_verdict.seed)
    return not_chi, verdict

