"""Seeded input generators for the benchmark.

Everything here is built from a `random.Random` seeded by the caller, so
the same seed always yields the same inputs.  Obligations and scripts are
first drawn in the benchmark's own plain-tuple form, which `reference.py`
evaluates independently; only then are they converted into the program's
syntax objects.
"""

from __future__ import annotations

import math
from fractions import Fraction

from reference import (
    Aborted, Simulator, StopModel, aux_ok, drag_zero_time, safe_margin,
)

# ---------------------------------------------------------------------------
# oracle: finite obligations over two variables on a 9x9 grid

ORACLE_VARS = ("x", "y")
ORACLE_VALUES = tuple(range(-4, 5))
ORACLE_BUDGET = 5_000_000  # never reached: 81 candidates, exhaustive mode
CMP_OPS = ("<=", ">=", "=", "!=", "<", ">")


def _term(rng, depth):
    if depth <= 0 or rng.random() < 0.5:
        if rng.random() < 0.6:
            return ("var", rng.choice(ORACLE_VARS))
        return ("num", rng.randint(-3, 3))
    op = rng.choice(("add", "sub", "mul"))
    return (op, _term(rng, depth - 1), _term(rng, depth - 1))


def _fol(rng, depth):
    if depth <= 0 or rng.random() < 0.5:
        return ("cmp", rng.choice(CMP_OPS), _term(rng, 1), _term(rng, 1))
    op = rng.choice(("and", "or", "implies", "not"))
    if op == "not":
        return ("not", _fol(rng, depth - 1))
    return (op, _fol(rng, depth - 1), _fol(rng, depth - 1))


def _program(rng, depth):
    """Loop-free, ODE-free programs without random assignment: finitely
    many runs, so the brute-force decider can enumerate them all."""
    if depth <= 0 or rng.random() < 0.4:
        if rng.random() < 0.5:
            return ("assign", rng.choice(ORACLE_VARS), _term(rng, 1))
        return ("test", _fol(rng, 1))
    op = rng.choice(("choice", "seq"))
    return (op, _program(rng, depth - 1), _program(rng, depth - 1))


def oracle_obligation(rng, universal: bool):
    """(kind, side, program, post): `forall. side -> [program] post` or
    `exists. side & <program> post`."""
    return ("forall" if universal else "exists", _fol(rng, 2),
            _program(rng, 3), _fol(rng, 2))


def oracle_stream(rng):
    """Endless stream of distinct-by-construction obligations, alternating
    universal and existential so that exactly half of each kind is drawn."""
    index = 0
    while True:
        yield oracle_obligation(rng, universal=index % 2 == 0)
        index += 1


def to_program_obligation(hp, spec, name):
    """Convert a tuple obligation into the program's Obligation object."""
    S = hp.syntax
    kind, side, prog, post = spec

    def term(t):
        if t[0] == "var":
            return S.Var(t[1])
        if t[0] == "num":
            return S.Num(Fraction(t[1]))
        ctor = {"add": S.Add, "sub": S.Sub, "mul": S.Mul}[t[0]]
        return ctor(term(t[1]), term(t[2]))

    def fol(f):
        if f[0] == "cmp":
            return S.Cmp(f[1], term(f[2]), term(f[3]))
        if f[0] == "not":
            return S.Not(fol(f[1]))
        ctor = {"and": S.And, "or": S.Or, "implies": S.Implies}[f[0]]
        return ctor(fol(f[1]), fol(f[2]))

    def program(p):
        if p[0] == "assign":
            return S.Assign(p[1], term(p[2]))
        if p[0] == "test":
            return S.Test(fol(p[1]))
        if p[0] == "choice":
            return S.Choice(program(p[1]), program(p[2]))
        return S.Seq(program(p[1]), program(p[2]))

    if kind == "forall":
        matrix = S.Implies(fol(side), S.Box(program(prog), fol(post)))
        ctor, ob_kind = S.Forall, hp.obligations.FALSIFY_UNIVERSAL
    else:
        matrix = S.And(fol(side), S.Diamond(program(prog), fol(post)))
        ctor, ob_kind = S.Exists, hp.obligations.FIND_WITNESS
    formula = matrix
    for v in reversed(ORACLE_VARS):
        formula = ctor(v, formula)
    lo, hi = Fraction(min(ORACLE_VALUES)), Fraction(max(ORACLE_VALUES))
    box = {v: (lo, hi) for v in ORACLE_VARS}
    return hp.obligations.Obligation(name, formula, ob_kind, box, {})


def oracle_config(hp):
    values = [Fraction(k) for k in ORACLE_VALUES]
    return hp.checker.SearchConfig(budget=ORACLE_BUDGET,
                                   discrete={v: values for v in ORACLE_VARS})


# ---------------------------------------------------------------------------
# replay: model-text variants and choice scripts

SCRIPTS_PER_REQUEST = 6
DRAG_SHARE = 4  # one request in DRAG_SHARE uses the drag plant
# Per-decision chances of drawing a value that fails its test, so that a
# minority of scripts abort at env, aux or ctrl.
ENV_ABORT, AUX_ABORT, CTRL_ABORT = 0.04, 0.03, 0.02
MARGIN = Fraction(1, 32)  # keep drawn values this far from test boundaries

_T_CHOICES = (Fraction(1, 2), Fraction(3, 4), Fraction(1), Fraction(5, 4),
              Fraction(3, 2), Fraction(2))

_HEADERS = {
    "m2": ("# Stop-before-obstacle model with a safety override that exploits a\n"
           "# friendly environment: the override only looks one period ahead.\n"),
    "m3": ("# Same system as m2, but aux also promises never to travel more\n"
           "# than the braking distance in one sampling period.\n"),
    "m4": ("# Corrected model: the override test also budgets the braking\n"
           "# distance after one worst-case acceleration period.\n"),
}
_AUX = {
    "m2": "a := *; ?(-anmin <= a & a <= anmax)",
    "m3": ("a := *; ?(-anmin <= a & a <= anmax & (v + a * T >= 0 -> "
           "v * T + a * T^2 / 2 <= v^2 / (2 * anmin)) & (v + a * T < 0 -> "
           "a <= -anmin))"),
}
_AUX["m4"] = _AUX["m2"]
_SAFE = {
    "m2": "xc - x >= v * T + anmax * T^2 / 2",
    "m4": ("xc - x >= v * T + anmax * T^2 / 2 + (v + anmax * T)^2 / "
           "(2 * anmin)"),
}
_SAFE["m3"] = _SAFE["m2"]


def random_stop_model(rng, index) -> StopModel:
    """Constants inside their declared constraints: T, anmax, anmin > 0
    and asmin > anmin.  Every DRAG_SHARE-th model uses the drag plant."""
    family = rng.choice(("m2", "m3", "m4"))
    anmin = Fraction(rng.randint(4, 16), 4)
    return StopModel(
        family=family,
        T=rng.choice(_T_CHOICES),
        anmax=Fraction(rng.randint(2, 16), 4),
        anmin=anmin,
        asmin=anmin + Fraction(rng.randint(1, 8), 4),
        drag=index % DRAG_SHARE == DRAG_SHARE - 1,
    )


def model_text(m: StopModel) -> str:
    vel = "a - v / 4" if m.drag else "a"
    return (
        f"{_HEADERS[m.family]}\n"
        "CONSTANTS\n"
        f"  T = {m.T} : T > 0\n"
        f"  anmax = {m.anmax} : anmax > 0\n"
        f"  anmin = {m.anmin} : anmin > 0\n"
        f"  asmin = {m.asmin} : asmin > 0 & asmin > anmin\n\n"
        "DOMAINS\n"
        "  x = [-1, 5]\n  v = [0, 5]\n  xc = [-1, 10]\n"
        "  xc_post = [-1, 10]\n  a = [-4, 2]\n\n"
        "INIT\n  v = 0 & x <= xc\n\n"
        "GUARANTEE\n  x <= xc\n\n"
        "ENV\n  xc := *; ?xc - x >= v^2 / (2 * anmin)\n\n"
        f"AUX\n  {_AUX[m.family]}\n\n"
        f"CTRL\n  if (!({_SAFE[m.family]})) then a := *; ?a = -asmin fi\n\n"
        "PLANT\n"
        f"  tau := 0; {{x' = v, v' = {vel}, tau' = 1 & v >= 0 & tau <= T}}\n\n"
        "INVARIANT zeta1\n  x <= xc\n\n"
        "INVARIANT zeta2\n  v^2 <= 2 * anmin * (xc - x)\n\n"
        "RELATION\n  xc <= xc_post\n"
    )


def initial_state(m: StopModel, rng) -> dict:
    return {"x": Fraction(rng.randint(-4, 4), 4),
            "v": Fraction(rng.randint(0, 12), 4),
            "xc": Fraction(0), "xc_post": Fraction(0), "a": Fraction(0),
            "tau": Fraction(0), **m.constants()}


def _grid_above(value, rng, spread):
    """A multiple of 1/64 at least MARGIN above `value`, plus up to
    `spread` more."""
    base = Fraction(math.ceil((value + MARGIN) * 64), 64)
    return base + Fraction(rng.randint(0, spread * 64), 64)


def _grid_below(value, rng):
    """A multiple of 1/64 at least MARGIN below `value`, minus up to 1/2
    more."""
    return Fraction(math.floor((value - MARGIN) * 64), 64) \
        - Fraction(rng.randint(0, 32), 64)


def _clear_of_aux_boundary(m, s, a) -> bool:
    """aux_ok does not change when v moves by 1e-6 either way, so float
    rounding in the program cannot flip m3's braking-distance promise
    (the bounds on `a` compare exactly representable values)."""
    ok = aux_ok(m.family, {**s, "a": a})
    return all(aux_ok(m.family, {**s, "a": a, "v": s["v"] + eps}) == ok
               for eps in (1e-6, -1e-6))


def _draw_iteration(m: StopModel, s, rng) -> list:
    """Decisions for one `env; aux; ctrl; plant` iteration from state s.

    Values sit at least MARGIN from the boundary of the test they feed,
    so exact and float evaluation agree; plant durations stay inside the
    evolution domain.  A small share of values fails its test on purpose,
    which ends the script there."""
    stop_at = s["x"] + s["v"] ** 2 / (2 * s["anmin"])  # braking at anmin
    if rng.random() < ENV_ABORT:
        return [("value", _grid_below(stop_at, rng))]
    xc = _grid_above(stop_at, rng, 6)
    while abs(safe_margin(m.family, {**s, "xc": xc})) < MARGIN:
        xc += MARGIN
    decisions = [("value", xc)]
    s = {**s, "xc": xc}

    floats = any(isinstance(value, float) for value in s.values())

    def admitted(a):
        return aux_ok(m.family, {**s, "a": a}) \
            and (not floats or _clear_of_aux_boundary(m, s, a))

    a = None
    if rng.random() >= AUX_ABORT:
        # a few uniform draws on the 1/8 grid, then every grid value in
        # random order
        lo, hi = int(-m.anmin * 8), int(m.anmax * 8)
        draws = [rng.randint(lo, hi) for _ in range(4)]
        a = next((Fraction(k, 8) for k in draws if admitted(Fraction(k, 8))), None)
        if a is None:
            grid = list(range(lo, hi + 1))
            rng.shuffle(grid)
            a = next((Fraction(k, 8) for k in grid if admitted(Fraction(k, 8))), None)
    if a is None:
        return decisions + [("value", m.anmax + Fraction(rng.randint(1, 8), 8))]
    decisions.append(("value", a))

    unsafe = safe_margin(m.family, s) < 0
    if rng.random() < CTRL_ABORT:
        return decisions + [("branch", "right" if unsafe else "left")]
    if unsafe:
        a = -m.asmin
        decisions += [("branch", "left"), ("value", a)]
    else:
        decisions.append(("branch", "right"))

    v = s["v"]
    if m.drag:
        limit = min(float(m.T), drag_zero_time(float(v), float(a))) * 15 / 16
        d = Fraction(int(limit * 256 * rng.uniform(0.25, 1.0)), 256)
    else:
        limit = m.T if a >= 0 else min(m.T, v / -a)
        d = limit if rng.random() < 0.5 else limit * Fraction(rng.randint(0, 16), 16)
    return decisions + [("duration", d)]


def random_script(m: StopModel, state, rng) -> list:
    """One choice script for `{env; aux; ctrl; plant}*` from `state`, as
    tuples ("loop", n), ("value", q), ("branch", side), ("duration", q)."""
    loops = rng.randint(1, 3)
    sim = Simulator(m, state, [])
    for _ in range(loops):
        sim.cursor.decisions.extend(_draw_iteration(m, sim.state, rng))
        try:
            sim.iteration()
        except Aborted:
            break
    return [("loop", loops)] + sim.cursor.decisions


def replay_request(rng, index):
    """One simulation request: a model text, the variant it encodes, the
    initial state and SCRIPTS_PER_REQUEST scripts drawn against it."""
    m = random_stop_model(rng, index)
    state = initial_state(m, rng)
    return {"model": m, "text": model_text(m), "state": state,
            "scripts": [random_script(m, state, rng)
                        for _ in range(SCRIPTS_PER_REQUEST)]}


def to_program_script(hp, script):
    sem = hp.semantics
    out = []
    for kind, arg in script:
        if kind == "loop":
            out.append(sem.LoopCount(arg))
        elif kind == "value":
            out.append(sem.RandomValue(arg))
        elif kind == "branch":
            out.append(sem.Branch(arg))
        else:
            out.append(sem.Duration(arg))
    return out


