"""Desk-scale obligation checking.

Universal obligations are attacked by searching for a falsifying
assignment of the quantified variables; existential obligations by
searching for a witness.  The matrix is compiled once per check into
closures with their polarity fixed, and one loop tries every candidate.
Candidates come from a coarse-to-fine grid and seeded uniform sampling,
in blocks of columns of integer numerators over one denominator.  A
one-pass matrix, whose modalities are env goals (below) if any, is
decided a block at a time, column by column.  For a modal matrix one
state, updated in place, holds each row of (numerator, denominator) pairs
in turn; states stay pairs through programs and their ODEs,
and a Fraction is built only for a certificate.  Without a numeric plant
every state holds a pair for every variable, so the exact kernel reads
variables by itemgetter, the fixed constants no run assigns are folded
into its closures along with the literals, and the closed-form plant is
compiled on these folded pairs too (Plant.pair_kernel).  With a numeric
plant, whose RK4 leaves floats, the interpreter evaluates each formula
and assigned term on the state's exact view; a test's pins are read off
the exact ratios of the state's values either way.  Modalities are decided
by script enumeration; the diamond-over-env pattern `<e := *; ?P> e =
e1` is decided goal-directed (bind e := e1, evaluate P) with no search.  Every
candidate success is re-checked by exact rational replay before a
verdict is emitted, so found-verdicts carry certificates that cannot be
false alarms.  A certificate is what the report prints: the assignment
of the quantified variables and one choice script per modality decided
by a run.  `certify` replays the obligation's own matrix from these
alone.

Search cannot prove validity of quantified nonlinear arithmetic:
NotFalsified / NoWitnessFound are budget-exhausted non-results.
"""

from __future__ import annotations

import bisect
import hashlib
import itertools
import math
import operator
import random
from dataclasses import dataclass, field
from fractions import Fraction

from .model import DEFAULT_DOMAIN, _assign_then_test, domain_key
from .obligations import (
    FIND_WITNESS, Obligation, chi_obligation, exploit_witness_formula,
    friendliness_probe, loop_obligations, psi_obligation, relation_missing,
    rho_obligation,
)
from .semantics import (
    Aborted, Branch, Duration, Final, LoopCount, NotBlockwise, RandomValue,
    _neg, _ratio_term, _reduced, block_cmp, block_term, compile_fol,
    eval_fol, eval_term, exact_view, is_exact, on_rows, plant_of, polynomial,
    run,
)
from .syntax import (
    FORMULA_OPS, PROGRAM_OPS, And, Assign, BoolLit, Box, Choice, Cmp,
    Diamond, Div, Forall, Exists, Iff, Implies, Loop, Not, Num, ODE, Or,
    RandomAssign, Seq, Sub, Test, Var, assigned_variables, conjuncts,
    free_variables, substitute,
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


@dataclass
class Counterexample:
    """A certificate: the values of the quantified variables and one choice
    script per modality that the replay of the matrix decides by a run, in
    the order `certify` takes them.  `certify` needs nothing else; it sets
    `trace` and `numeric_only`."""
    assignment: dict
    scripts: list
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


def _modalities(formula, table) -> bool:
    """Whether the operands of `formula`, read left to right, reach a
    modality (True) or an inner quantifier (None) first, or neither
    (False).  The same goes into `table`, by id, for each of its nodes and
    its modalities' posts but the leaves, in one walk that leaves the nodes
    of programs out."""
    kind = type(formula)
    if kind is Not:
        flag = _modalities(formula.inner, table)
    elif kind in FORMULA_OPS:
        flag = _modalities(formula.left, table)
        right = _modalities(formula.right, table)
        if flag is False:
            flag = right
    elif kind is Box or kind is Diamond:
        _modalities(formula.post, table)
        flag = True
    elif kind is Forall or kind is Exists:
        flag = None
    else:
        return False
    table[id(formula)] = flag
    return flag


def _has_modality(table, formula) -> bool:
    """Whether `formula`, a node of the walk that made `table` or the
    negation of one, holds a modality; an inner quantifier reached first is
    an UnsupportedObligation."""
    while type(formula) is Not:  # _connective negates a left operand
        formula = formula.inner
    flag = table.get(id(formula), False)
    if flag is None:
        raise UnsupportedObligation(
            "inner quantifiers are not supported; close the formula instead")
    return flag


def _connective(formula, target):
    """(left, right, both needed) of a binary connective at the target
    polarity, with the left of `->` negated; None for any other node."""
    if isinstance(formula, And):
        return formula.left, formula.right, target
    if isinstance(formula, Or):
        return formula.left, formula.right, not target
    if isinstance(formula, Implies):
        return Not(formula.left), formula.right, not target
    return None


def _env_goal_pattern(diamond: Diamond):
    """Match <x := *; ?P> (x = t) with x not free in t; return (x, P, t)."""
    fused, post = _assign_then_test(diamond.program), diamond.post
    if fused is None or not (isinstance(post, Cmp) and post.op == "="):
        return None
    x, test = fused
    for pinned, other in ((post.left, post.right), (post.right, post.left)):
        if pinned == Var(x) and x not in free_variables(other):
            return x, test, other
    return None


# ---------------------------------------------------------------------------
# Search engine

class _Engine:
    """One obligation's search, compiled once.  A formula node becomes a
    closure state -> the tuple of choice scripts that shows it evaluates
    to the polarity it has in the matrix, or None; a program node becomes
    a closure state -> iterator of (final state, script) over the runs the
    search tries.  States hold int pairs from the candidate down to the
    post, and floats after a numeric plant.  A script is a rope of raw
    decisions (see _decisions), made into a decision list only for a
    certificate.  With `pairs` every state holds an int pair for each
    variable: formulas and terms are compiled by the exact kernel, which
    reads them with no check and folds `constants`, the fixed constants,
    and each closed-form plant gives its pair kernel, compiled with the
    same constants.  Without it, an obligation with a numeric plant, the
    interpreter evaluates them on each state's exact view, each plant
    evolves by its checked evolve, and `constants` is None.  `check`
    decides a one-pass matrix a block at a time, and compiles these
    closures only for the scripts of a row that hits."""

    def __init__(self, obligation: Obligation, config: SearchConfig,
                 constants, pairs):
        self.obligation = obligation
        self.config = config
        self.constants = constants
        self.pairs = pairs
        self.modal = {}  # see _modalities
        _modalities(obligation.split()[1], self.modal)
        self.stats = Stats()
        self.candidate = 0  # the index of the candidate being decided
        self._rng = None
        self._rng_candidate = None

    @property
    def rng(self):
        """The current candidate's sample stream, seeded on its first use:
        most candidates never draw a sample."""
        if self._rng_candidate != self.candidate:
            self._rng = random.Random(
                _derive_seed(self.config.seed, self.obligation.name,
                             self.candidate))
            self._rng_candidate = self.candidate
        return self._rng

    # formulas -------------------------------------------------------------

    def formula(self, node, target):
        """Closure state -> the scripts, in `certify`'s order, that show
        `node` evaluates to `target`, or None when search finds none: () for
        a modality-free node, left then right for both operands, the side
        that held for one, and (script,) + the post's for a modality."""
        if not _has_modality(self.modal, node):
            holds = self._holds(node)
            stats = self.stats

            def leaf(state):
                stats.evaluations += 1
                return () if holds(state) == target else None
            return leaf
        if isinstance(node, Not):
            return self.formula(node.inner, not target)
        if isinstance(node, Iff):
            raise UnsupportedObligation("modal <-> is not supported")
        if not isinstance(node, (Box, Diamond)):
            return self._binary(node, target)
        goal = _env_goal_pattern(node) if isinstance(node, Diamond) else None
        if goal is not None:
            return self._goal(goal, target)
        if isinstance(node, Box) and target:
            raise UnsupportedObligation(
                "cannot establish a box by search; negate the obligation")
        if isinstance(node, Diamond) and not target:
            raise UnsupportedObligation(
                "cannot refute a general diamond by search")
        return self._search_runs(node, target)

    def _binary(self, node, target):
        left, right, both_needed = _connective(node, target)
        right_modal = _has_modality(self.modal, right)
        left = self.formula(left, target)
        right = self.formula(right, target)
        if both_needed:
            def both(state):
                shown = left(state)
                if shown is None and right_modal:
                    return None  # skip an expensive doomed operand
                rest = right(state)
                if shown is None or rest is None:
                    return None
                return shown + rest
            return both

        def pick(state):
            shown = left(state)
            return right(state) if shown is None else shown
        return pick

    def _search_runs(self, modality, target):
        """A run of the modality's program after which its post evaluates
        to `target`: refutes a box (False) or witnesses a diamond (True)."""
        runs = self.program(modality.program)
        post = self.formula(modality.post, target)
        stats, budget = self.stats, self.config.budget

        def search(state):
            for final_state, script in runs(state):
                rest = post(final_state)
                if rest is not None:
                    return (script,) + rest
                if stats.evaluations >= budget:
                    break
            return None
        return search

    def _goal(self, goal, target):
        """<x := *; ?P> x = t decided goal-directed: bind x := t, test P.
        The one script picks t, whether it witnesses or refutes."""
        x, test, pin_term = goal
        value = self._term(pin_term)
        holds = self._holds(test)
        stats = self.stats

        def decide(state):
            bound = dict(state)
            bound[x] = pick = value(state)
            stats.evaluations += 1
            if holds(bound) != target:
                return None
            return ((RandomValue, pick),)
        return decide

    def _holds(self, formula):
        """Closure state -> the truth of a modality-free `formula`: the
        exact kernel, reading pairs by itemgetter, when every state holds
        pairs, else eval_fol on the state's exact view."""
        if self.pairs:
            return compile_fol(formula, self.constants, pairs=True)
        return lambda state: eval_fol(exact_view(state), formula)

    def _term(self, term):
        """Closure state -> the value of `term`, by the same evaluator as
        _holds: a reduced int pair, or eval_term's value on the state's
        exact view as a reduced pair or a float."""
        if self.pairs:
            exact = _ratio_term(term, self.constants, pairs=True)
            return lambda state: _reduced(*exact(state))

        def value(state):
            v = eval_term(exact_view(state), term)
            return v if type(v) is float else v.as_integer_ratio()
        return value

    # programs -------------------------------------------------------------

    def program(self, node):
        """Closure state -> iterator of the non-aborting runs as (final
        state, script)."""
        stats, budget = self.stats, self.config.budget
        if isinstance(node, Assign):
            var, value = node.var, self._term(node.term)

            def assign(state):
                out = dict(state)
                out[var] = value(state)
                yield out, ()
            return assign
        fused = _assign_then_test(node)
        if isinstance(node, RandomAssign) or fused is not None:
            # a fused `x := *; ?P` lets the test pin candidate values
            var, condition = fused or (node.var, None)
            values = self._values(var, condition)
            holds = None if condition is None else self._holds(condition)

            def draw(state):
                for value in values(state):
                    out = dict(state)
                    out[var] = value
                    if holds:
                        stats.evaluations += 1
                        if not holds(out):
                            continue
                    yield out, (RandomValue, value)
            return draw
        if isinstance(node, Test):
            holds = self._holds(node.condition)

            def test(state):
                stats.evaluations += 1
                if holds(state):
                    yield state, ()
            return test
        if isinstance(node, ODE):
            bound, step = self._plant(plant_of(node))

            def evolve(state):
                stats.evaluations += 2
                maximum = bound(state)
                if maximum is None:  # the one duration tried, 0, aborts
                    stats.evaluations += 2
                    return
                for duration in self._durations(maximum):
                    stats.evaluations += 2
                    end = step(state, duration)
                    if end is not None:
                        yield end, (Duration, duration)
            return evolve
        if isinstance(node, Choice):
            left, right = self.program(node.left), self.program(node.right)

            def choice(state):
                for final_state, script in left(state):
                    yield final_state, (_LEFT, script)
                if stats.evaluations < budget:
                    for final_state, script in right(state):
                        yield final_state, (_RIGHT, script)
            return choice
        if isinstance(node, Seq):
            first, second = self.program(node.first), self.program(node.second)

            def sequence(state):
                for mid_state, script1 in first(state):
                    for final_state, script2 in second(mid_state):
                        yield final_state, (script1, script2)
                        if stats.evaluations >= budget:
                            return
                    if stats.evaluations >= budget:
                        return
            return sequence
        if isinstance(node, Loop):
            body = self.program(node.body)

            def unroll(state, count):
                if count == 0:
                    yield state, ()
                    return
                for mid_state, script1 in body(state):
                    for final_state, script2 in unroll(mid_state, count - 1):
                        yield final_state, (script1, script2)

            def loop(state):
                for count in LOOP_COUNTS:
                    for final_state, script in unroll(state, count):
                        yield final_state, ((LoopCount, count), script)
                    if stats.evaluations >= budget:
                        return
            return loop
        raise CheckError(f"unexpected program {node!r}")

    def _values(self, var, test):
        """Closure state -> the values, reduced int pairs, that `var := *`
        tries, each once: the pins of a following test, the ends of var's
        search interval and seeded samples from it."""
        box = self.obligation.search_box
        lo, hi = box.get(domain_key(box, var), DEFAULT_DOMAIN)
        ends = (lo.as_integer_ratio(), hi.as_integer_ratio())
        base, step, den = _sampler(*ends)
        pins = (None if test is None
                else _pinner(var, test, self.constants, self.pairs))

        def values(state):
            out = pins(state) if pins else []
            out += ends
            bits = self.rng.getrandbits
            for _ in range(VALUES_PER_RANDOM_ASSIGN):
                out.append(_reduced(base + bits(16) * step, den))
            return list(dict.fromkeys(out))
        return values

    def _plant(self, plant):
        """(bound, step) of an evolution: bound(state) is the int pair up
        to which durations are tried, or None where none is admitted, and
        step(state, duration) is the final state, or None where the run
        aborts.  With `pairs` the plant's pair kernel, else its checked
        duration_bound, with a bisected float read as its exact ratio, and
        evolve."""
        if self.pairs:
            return plant.pair_kernel(self.constants)

        def bound(state):
            maximum = plant.duration_bound(state)
            return (maximum.as_integer_ratio() if type(maximum) is float
                    else maximum)

        def step(state, duration):
            outcome = plant.evolve(state, duration)
            return outcome.state if isinstance(outcome, Final) else None
        return bound, step

    def _durations(self, maximum):
        """The durations an evolution tries up to the int pair `maximum`:
        the maximum, 0 and samples."""
        if maximum[0] <= 0:
            return [(0, 1)]
        out = [maximum, (0, 1)]
        base, step, den = _sampler((0, 1), maximum)
        bits = self.rng.getrandbits
        for _ in range(DURATION_SAMPLES_PER_ODE - 2):
            out.append((base + bits(16) * step, den))
        return out


# A script as the search builds it: () for none, a leaf (decision class,
# raw value) for one decision, and (first, rest) for two scripts in a row.
_LEFT, _RIGHT = (Branch, "left"), (Branch, "right")


def _decisions(rope, out):
    """Append the decisions of a script rope to `out`; a raw int pair value
    becomes its Fraction."""
    if rope:
        head, tail = rope
        if type(head) is tuple:
            _decisions(head, out)
            _decisions(tail, out)
        else:
            out.append(head(Fraction(*tail) if type(tail) is tuple else tail))
    return out


def _linear_conjuncts(var, formula):
    """(conjunct, c0, c1) per comparison conjunct of `formula` whose
    left - right is c0 + c1 * var as `polynomial` reads it, with var in it:
    c0 and c1 are terms over the other variables."""
    for c in conjuncts(formula):
        form = polynomial(Sub(c.left, c.right), (var,)) \
            if isinstance(c, Cmp) else None
        if form and (var,) in form and form.keys() <= {(), (var,)}:
            yield c, form.get((), Num(0)), form[(var,)]


def _pinner(var, test, constants=None, pairs=False):
    """Closure state -> one reduced int pair per conjunct of `test` whose
    left - right is c0 + c1 * var with c1 != 0: its zero -c0 / c1, with a
    float in the state read as its exact ratio; `constants` and `pairs` as
    _ratio_term takes them."""
    zeros = [(_ratio_term(c0, constants, pairs),
              _ratio_term(c1, constants, pairs))
             for _, c0, c1 in _linear_conjuncts(var, test)]

    def pins(state):
        found = []
        for c0, c1 in zeros:
            try:
                (n0, d0), (n1, d1) = c0(state), c1(state)
            except ZeroDivisionError:
                continue  # undefined in this state
            if n1:
                found.append(_reduced(-n0 * d1, d0 * n1) if n1 > 0
                             else _reduced(n0 * d1, -d0 * n1))
        return found
    return pins


# ---------------------------------------------------------------------------
# Candidate streams

def _derive_seed(seed, name, salt=""):
    digest = hashlib.blake2b(f"{seed}:{name}:{salt}".encode(),
                             digest_size=8).digest()
    return int.from_bytes(digest, "big")


def _sampler(lo, hi, bits=16):
    """(base, step, den): lo + (hi - lo) * n / 2^bits is the unreduced
    (numerator, denominator) int pair (base + n * step, den), for lo and
    hi int pairs with positive denominators; a uniform n < 2^bits samples
    [lo, hi] exactly."""
    (ln, ld), (hn, hd) = lo, hi
    d = math.lcm(ld, hd)
    base = ln * (d // ld)
    step = hn * (d // hd) - base
    return base << bits, step, d << bits


def _candidates(search_vars, box, config, name, room=None):
    """Blocks (n, columns) of the coarse-to-fine grid, then of endless
    samples seeded from the obligation's name: n rows, and per variable of
    `search_vars`, in order, a column (numerators, shared denominator).
    Blocks grow from 16 to 1 024 rows, so that an early hit stays cheap,
    and hold at most room() rows when `room` is given."""
    sizes = itertools.chain((16, 32, 64, 128, 256, 512),
                            itertools.repeat(1024))
    if room is not None:
        sizes = (min(size, room()) for size in sizes)
    if not search_vars:
        yield 1, []
        return
    ends = [[x.as_integer_ratio() for x in box[v]] for v in search_vars]
    for level in range(GRID_LEVELS + 1):
        n = 1 << (level + 1)
        axes = [_sampler(lo, hi, level + 1) for lo, hi in ends]
        points = itertools.product(*([base + i * step for i in range(n + 1)]
                                     for base, step, _ in axes))
        if level:  # skip the points of the previous level: all even
            odd = [i & 1 for i in range(n + 1)]
            points = itertools.compress(
                points, map(any, itertools.product(odd, repeat=len(ends))))
        dens = [den for _, _, den in axes]
        while chunk := list(itertools.islice(points, next(sizes))):
            yield len(chunk), list(zip(zip(*chunk), dens))
    samplers = [_sampler(lo, hi) for lo, hi in ends]
    bits = random.Random(_derive_seed(config.seed, name, "grid")).getrandbits
    k = len(samplers)
    for size in sizes:
        # drawn row by row, a variable at a time, and split per column
        draws = list(map(bits, itertools.repeat(16, size * k)))
        yield size, [([base + b * step for b in draws[j::k]], den)
                     for j, (base, step, den) in enumerate(samplers)]


def _rows(blocks):
    """The rows of `blocks`, in order, as tuples of int pairs."""
    for n, columns in blocks:
        yield from (zip(*[zip(nums, itertools.repeat(den))
                          for nums, den in columns])
                    if columns else itertools.repeat((), n))


# ---------------------------------------------------------------------------
# Certification (exact replay)

class _Replayer:
    """Walks the obligation's own matrix at its polarity and takes the
    certificate's scripts in the order the search lists them."""

    def __init__(self, scripts, matrix):
        self.scripts = scripts
        self.modal = {}  # see _modalities
        _modalities(matrix, self.modal)
        self.position = 0
        self.trace = []
        self.numeric_only = False

    def replay(self, state, formula, target) -> bool:
        if not _has_modality(self.modal, formula):
            if any(not is_exact(v) for v in state.values()):
                self.numeric_only = True
            return eval_fol(state, formula) == target
        if isinstance(formula, Not):
            return self.replay(state, formula.inner, not target)
        operands = _connective(formula, target)
        if operands is not None:
            left, right, both_needed = operands
            if both_needed:
                return (self.replay(state, left, target)
                        and self.replay(state, right, target))
            position, steps, numeric_only = \
                self.position, len(self.trace), self.numeric_only
            try:
                if self.replay(state, left, target):
                    return True
            except Exception:
                pass  # a left operand that raises has failed
            self.position, self.numeric_only = position, numeric_only
            del self.trace[steps:]
            return self.replay(state, right, target)
        if self.position >= len(self.scripts) \
                or not isinstance(formula, (Box, Diamond)):
            return False
        script = self.scripts[self.position]
        self.position += 1
        if isinstance(formula, Box) != target:
            # a box refuted or a diamond witnessed: one run, then the post
            outcome, trace = run(state, formula.program, script)
            self.trace.extend(trace)
            if not isinstance(outcome, Final):
                return False
            if any(not is_exact(v) for v in outcome.state.values()):
                self.numeric_only = True
            return self.replay(outcome.state, formula.post, target)
        if isinstance(formula, Box):
            return False
        # a diamond refuted: only <x := *; ?P> x = t, where P fails at t
        goal = _env_goal_pattern(formula)
        if goal is None \
                or list(script) != [RandomValue(eval_term(state, goal[2]))]:
            return False
        outcome, trace = run(state, formula.program, script)
        self.trace.extend(trace)
        return isinstance(outcome, Aborted)


def certify(counterexample: Counterexample, obligation: Obligation) -> bool:
    """Replay the certificate with exact rational arithmetic.

    Reads only the obligation, the assignment and the scripts; returns True
    iff the obligation's matrix evaluates to the polarity the verdict
    claims and every script is used.  When a non-closed-form ODE forces
    floating point, that part of the replay is plain float evaluation and
    the certificate is marked `numeric_only` (`"exact": false` in its
    JSON).
    """
    target = obligation.kind == FIND_WITNESS
    state = {}
    for k, v in obligation.fixed_constants.items():
        state[k] = Fraction(v)
    for k, v in counterexample.assignment.items():
        state[k] = Fraction(v)
    quantified, matrix = obligation.split()
    for var in obligation.matrix_variables.difference(quantified, state):
        state[var] = Fraction(0)
    replayer = _Replayer(counterexample.scripts, matrix)
    try:
        ok = replayer.replay(state, matrix, target)
    except Exception:
        return False
    if not ok or replayer.position != len(counterexample.scripts):
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
    matrix_vars = obligation.matrix_variables
    modalities = list(_modal_nodes(matrix))
    programs = [modality.program for modality in modalities]
    assigned = set().union(*map(assigned_variables, programs))
    uncovered = matrix_vars.difference(obligation.fixed_constants, quantified,
                                       assigned)
    if uncovered:
        raise CheckError(f"uncoverable free symbols: {sorted(uncovered)}")

    search_vars = [v for v in quantified if v in matrix_vars]
    box = obligation.search_box
    if config.discrete is not None:
        missing = [v for v in search_vars if not config.discrete.get(v)]
        if missing:
            raise CheckError(f"no discrete values for: {missing}")
    # the box gives the search's intervals, and the value of a quantified
    # variable the matrix does not read: its midpoint
    unboxed = [v for v in dict.fromkeys(quantified) if v not in box and (
        config.discrete is None or v not in search_vars)]
    if unboxed:
        raise CheckError(f"no search interval for: {unboxed}")
    base = {k: Fraction(v).as_integer_ratio()
            for k, v in obligation.fixed_constants.items()}
    for v in quantified:
        if v not in search_vars:
            lo, hi = box[v]
            base[v] = ((lo + hi) / 2).as_integer_ratio()
    for v in assigned - set(base) - set(search_vars):
        base[v] = (0, 1)

    # without a numeric plant every state holds an int pair per variable;
    # fold the constants no run changes, which a numeric plant would leave
    # floats in its final state
    pairs = all(plant_of(ode).template is not None
                for program in programs for ode in _odes(program))
    constants = {k: base[k] for k in obligation.fixed_constants
                 if k not in assigned and k not in quantified}
    if not (constants and pairs):
        constants = None
    engine = _Engine(obligation, config, constants, pairs)
    stats, budget = engine.stats, config.budget

    def found(values, ropes=None):
        """The certified verdict of a candidate that search says decides
        the obligation, or None; the engine decides a block's row again for
        its scripts."""
        state = dict(base)
        state.update(zip(search_vars, values))
        if ropes is None:
            ropes = engine.formula(matrix, target)(state)
        assignment = {v: Fraction(*state[v]) for v in quantified}
        cex = Counterexample(assignment,
                             [_decisions(rope, []) for rope in ropes])
        if certify(cex, obligation):
            status = WITNESS_FOUND if target else FALSIFIED
            return Verdict(status, cex, stats, obligation, config.seed)
        return None

    decide_block = None
    if config.discrete is None and all(map(_first_order_goal, modalities)):
        # one pass per candidate, a block of them at a time; no run writes
        # a variable the searched do not give, as a goal binds its own
        fixed = {k: v for k, v in base.items() if k not in search_vars}
        try:
            decide_block = _block_decider(matrix, target, engine.modal, fixed)
        except (NotBlockwise, UnsupportedObligation):
            pass  # the engine loop decides, and raises where it does
    if decide_block is not None:
        # a row costs at least one evaluation, so a block needs no more
        # rows than the budget left
        for n, columns in _candidates(search_vars, box, config,
                                      obligation.name,
                                      lambda: budget - stats.evaluations):
            shown, *costs = decide_block(dict(zip(search_vars, columns)), n)
            spent = list(itertools.accumulate(
                costs[0] if costs else itertools.repeat(1, n),
                initial=stats.evaluations))
            # the engine loop's budget check stops before the first row
            # that starts with the budget spent
            end = bisect.bisect_left(spent, budget, 0, n)
            tried = stats.candidates
            for hit in itertools.compress(range(end), shown):
                verdict = found(tuple((nums[hit], den)
                                      for nums, den in columns))
                stats.evaluations = spent[hit + 1]
                stats.candidates = tried + hit + 1
                if verdict is not None:
                    return verdict
            stats.evaluations, stats.candidates = spent[end], tried + end
            if stats.evaluations >= budget:
                break
    else:
        decide = engine.formula(matrix, target)
        rows = (_rows(_candidates(search_vars, box, config, obligation.name))
                if config.discrete is None else itertools.product(
                    *([x.as_integer_ratio() for x in config.discrete[v]]
                      for v in search_vars)))
        # one state for every candidate: programs copy a state before they
        # write, and nothing keeps one past its candidate
        state = dict(base)
        for index, values in enumerate(rows):
            if stats.evaluations >= budget:
                break
            stats.candidates += 1
            state.update(zip(search_vars, values))
            engine.candidate = index
            ropes = decide(state)
            if ropes is not None:
                verdict = found(values, ropes)
                if verdict is not None:
                    return verdict

    status = NO_WITNESS_FOUND if target else NOT_FALSIFIED
    return Verdict(status, None, stats, obligation, config.seed)


def _modal_nodes(matrix):
    """Every modality in the matrix."""
    stack = [matrix]
    while stack:
        node = stack.pop()
        if isinstance(node, (Box, Diamond)):
            yield node
            stack.append(node.post)
        elif isinstance(node, Not):
            stack.append(node.inner)
        elif type(node) in FORMULA_OPS:
            stack.extend((node.left, node.right))


def _first_order_goal(modality) -> bool:
    """Whether `modality` is an env goal whose test has no modality and no
    quantifier."""
    goal = _env_goal_pattern(modality) if type(modality) is Diamond else None
    return goal is not None and _modalities(goal[1], {}) is False


def _block_decider(node, target, modal, constants):
    """Closure (block, n) -> (shown,), or (shown, costs) for a modal node,
    of `node`, whose modalities are env goals, at `target`: per row of
    `block`, whether it shows `node` evaluates to `target`, and the
    evaluations _Engine.formula counts.  A leaf or a goal `<x := *; ?P> x
    = t`, P with t for x, costs 1; a connective that needs both operands
    counts both, but a modal right one its left dooms; a pick counts its
    right operand where its left fails."""
    counted = _has_modality(modal, node)
    if isinstance(node, Not):
        return _block_decider(node.inner, not target, modal, constants)
    if isinstance(node, Diamond):
        x, test, pin = _env_goal_pattern(node)
        block_term(pin, constants)  # NotBlockwise, even where P drops t
        holds = _block_decider(substitute(test, x, pin), target, modal,
                               constants)
        return lambda b, n: (holds(b, n)[0], [1] * n)
    if isinstance(node, Cmp):
        holds = block_cmp(node, constants, target)
        return lambda b, n: (holds(b, n),)
    if isinstance(node, BoolLit):
        return lambda b, n: ([node.value == target] * n,)
    if isinstance(node, Iff):  # which the engine takes only as a leaf
        if counted:
            raise UnsupportedObligation("modal <-> is not supported")
        return _block_decider(And(Implies(node.left, node.right),
                                  Implies(node.right, node.left)),
                              target, modal, constants)
    operands = _connective(node, target)
    both_needed, right_modal = operands[2], _has_modality(modal, operands[1])
    left, right = (_block_decider(side, target, modal, constants)
                   for side in operands[:2])
    # the rows the left settles: shown for a pick, not for the other
    fills = (not both_needed, 0) if right_modal else (not both_needed,)

    def binary(b, n):
        shown, *costs = left(b, n)
        mask = shown if both_needed else list(map(operator.not_, shown))
        shown, *more = on_rows(b, n, mask, right, fills)
        if not counted:
            return shown,
        more = (more[0] if right_modal  # a leaf on every row, or on the open
                else itertools.repeat(1) if both_needed else mask)
        return shown, list(map(operator.add, costs[0] if costs
                               else itertools.repeat(1), more))
    return binary


def _odes(program):
    """Every ODE in the program."""
    if isinstance(program, ODE):
        yield program
    elif type(program) in PROGRAM_OPS:
        for operand in program.fields:
            yield from _odes(operand)
    elif isinstance(program, Loop):
        yield from _odes(program.body)


# ---------------------------------------------------------------------------
# Obligation selection

def _nothing_missing(model):
    return None


def _psi_missing(model):
    """Why `psi` does not apply to the model, or None: it instantiates the
    action that AUX's `a := *; ?P` draws in an invariant named zeta_iter."""
    if "zeta_iter" not in model.invariants:
        return "psi needs an invariant named zeta_iter"
    if model.action_var is None:
        return "psi needs an AUX of the shape a := *; ?P"
    if model.action_var not in free_variables(model.invariants["zeta_iter"]):
        return (f"psi needs the action variable {model.action_var!r} free "
                "in zeta_iter")
    bounds = _action_lower_bounds(model)
    if len(bounds) != 1:
        return (f"psi needs one lower bound on {model.action_var!r} in "
                f"AUX's test, not {len(bounds)}")
    return None


def _action_lower_bounds(model):
    """The lower bounds that AUX's test `a := *; ?P` sets on a: one term
    -c0 / c1 per conjunct of P whose left - right is c0 + c1 * a (see
    _linear_conjuncts, which _pinner reads pins with), with c1 a nonzero
    literal and the conjunct bounding a from below (an equation does
    too)."""
    bounds = []
    for c, c0, c1 in _linear_conjuncts(*_assign_then_test(model.aux)):
        slope = c1.value if type(c1) is Num else 0
        if slope and (c.op == "=" or c.op in ("<=", "<") and slope < 0
                      or c.op in (">=", ">") and slope > 0):
            bounds.append(c0 if slope == -1 else _neg(c0) if slope == 1
                          else Div(_neg(c0), c1))
    return bounds


def _psi_obligations(model, zeta):
    # controller necessity of the braking instantiation: the action at its
    # lower bound, a := -anmin on the bundled models
    [bound] = _action_lower_bounds(model)
    return [psi_obligation(model, model.invariants["zeta_iter"],
                           model.action_var, bound)]


# Each `--obligation` selector, in the order of `--help`: whether "all"
# takes it, what it needs of the model (model -> why it does not apply, or
# None) and its obligations for (model, invariant).
_SELECTOR_TABLE = {
    "loop": (True, _nothing_missing, loop_obligations),
    "rho": (True, relation_missing,
            lambda model, zeta: [rho_obligation(model, zeta)]),
    # the preservation branch of the loop rule only
    "gamma": (False, _nothing_missing,
              lambda model, zeta: loop_obligations(model, zeta)[1:2]),
    "exploit": (True, relation_missing,
                lambda model, zeta: [exploit_witness_formula(model, zeta)]),
    "chi": (True, _nothing_missing,
            lambda model, zeta: [chi_obligation(model, zeta)[0]]),
    "not-chi": (True, _nothing_missing,
                lambda model, zeta: [chi_obligation(model, zeta)[1]]),
    "psi": (False, _psi_missing, _psi_obligations),
    "friendly": (True, relation_missing,
                 lambda model, zeta: [friendliness_probe(model)]),
}
SELECTORS = (*_SELECTOR_TABLE, "all")


def obligations_for(model, zeta_name: str, selector: str) -> list:
    """The obligations of one `--obligation` selector (see SELECTORS) or
    suite conjunct name (not_chi) for the model's invariant `zeta_name`.
    "all" takes the selectors it runs that apply to the model; a selector
    named on its own that does not apply is a SelectorError saying why."""
    if zeta_name not in model.invariants:
        raise SelectorError(f"unknown invariant {zeta_name!r}")
    zeta = model.invariants[zeta_name]
    if selector == "all":
        return [ob for in_all, missing, build in _SELECTOR_TABLE.values()
                if in_all and missing(model) is None
                for ob in build(model, zeta)]
    entry = _SELECTOR_TABLE.get(selector.replace("_", "-"))
    if entry is None:
        raise SelectorError(f"unknown obligation selector {selector!r}")
    _, missing, build = entry
    reason = missing(model)
    if reason is not None:
        raise SelectorError(reason)
    return build(model, zeta)


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
    if len(psi_cex.scripts) != 2:
        raise CheckError("unexpected witness shape")
    env_aux_script, plant_script = psi_cex.scripts
    combined = list(env_aux_script) + list(plant_script)
    _, not_chi = chi_obligation(model, zeta_instantiated)
    assignment = dict(psi_cex.assignment)
    for var in not_chi.split()[0]:
        if var not in assignment:
            lo, hi = not_chi.search_box[var]
            assignment[var] = (lo + hi) / 2
    cex = Counterexample(assignment, [combined])
    if not certify(cex, not_chi):
        raise CheckError("derived witness failed certification")
    verdict = Verdict(WITNESS_FOUND, cex, Stats(), not_chi, psi_verdict.seed)
    return not_chi, verdict

