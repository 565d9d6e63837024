"""Proof-obligation generation: loop branches, the exploiting-controller
conditions, the unchallenged-controller conditions, and the environment
friendliness probe.

Each obligation packages a closed formula together with its quantifier
kind, a search box for the quantified variables, and fixed values for the
symbolic constants, ready for the checker.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

from .model import Model
from .syntax import (
    And, Box, Cmp, Diamond, Exists, Forall, Formula, Implies, Not, Seq, Var,
    free_variables, substitute,
)

FALSIFY_UNIVERSAL = "falsify_universal"
FIND_WITNESS = "find_witness"


class MissingRelation(Exception):
    pass


@dataclass(frozen=True)
class Obligation:
    name: str
    formula: Formula
    kind: str
    search_box: dict = field(default_factory=dict)
    fixed_constants: dict = field(default_factory=dict)

    def split(self):
        ctor = Forall if self.kind == FALSIFY_UNIVERSAL else Exists
        vars_ = []
        node = self.formula
        while isinstance(node, ctor):
            vars_.append(node.var)
            node = node.body
        return vars_, node

    @cached_property
    def matrix_variables(self) -> frozenset:
        """The free variables of the matrix, taken once per obligation; the
        formula's are these less the quantified ones."""
        return frozenset(free_variables(self.split()[1]))


def _ordered_vars(model: Model, names) -> list:
    """Deterministic variable order: state, env, action, then the rest."""
    preferred = list(model.state_vars)
    if model.env_var:
        preferred.append(model.env_var)
    if model.action_var:
        preferred.append(model.action_var)
    out = [v for v in preferred if v in names]
    out.extend(sorted(n for n in names if n not in out))
    return out


def _close(model: Model, name: str, matrix: Formula, kind: str,
           quantified=None) -> Obligation:
    """Quantify `matrix` over `quantified`, by default every free variable
    of the matrix but the constants and the clock."""
    constants = model.constant_values()
    if quantified is None:
        quantified = free_variables(matrix) - set(constants) - {model.time_var}
    quantified = _ordered_vars(model, set(quantified))
    box = {v: model.search_interval(v) for v in quantified}
    ctor = Forall if kind == FALSIFY_UNIVERSAL else Exists
    formula = matrix
    for v in reversed(quantified):
        formula = ctor(v, formula)
    return Obligation(name, formula, kind, box, dict(constants))


def loop_obligations(model: Model, zeta: Formula) -> list:
    """The three loop-rule branches, all universally closed."""
    _require_declared(model, zeta)
    return [
        _close(model, "loop_i", Implies(model.init, zeta), FALSIFY_UNIVERSAL),
        _close(model, "loop_ii", Implies(zeta, Box(model.loop_body(), zeta)),
               FALSIFY_UNIVERSAL),
        _close(model, "loop_iii", Implies(zeta, model.guarantee),
               FALSIFY_UNIVERSAL),
    ]


def _require_declared(model: Model, zeta: Formula):
    declared = model.declared_variables() | set(model.constant_values())
    undeclared = free_variables(zeta) - declared
    if undeclared:
        raise ValueError(f"undeclared variables in invariant: {sorted(undeclared)}")


def relation_missing(model: Model):
    """Why the model cannot state the RELATION obligations (`rho`,
    `exploit`, `friendly`), or None when it can."""
    if model.relation is None:
        return "model has no RELATION section"
    if model.env_var is None:
        return "relation requires the standard env shape"
    return None


def _relation_vars(model: Model):
    missing = relation_missing(model)
    if missing is not None:
        raise MissingRelation(missing)
    e = model.env_var
    return e, f"{e}_post", f"{e}_prev"


def rho_obligation(model: Model, zeta: Formula) -> Obligation:
    """For every next env action related to the current one, env can take it.

    Falsification witnesses of this obligation are exactly the
    counterexamples exhibiting an invariant too weak to rule out a
    friendly environment.
    """
    e, e_post, _ = _relation_vars(model)
    matrix = Implies(And(zeta, model.relation),
                     Diamond(model.env, Cmp("=", Var(e), Var(e_post))))
    return _close(model, "rho", matrix, FALSIFY_UNIVERSAL)


def exploit_witness_formula(model: Model, zeta: Formula) -> Obligation:
    """Existential whose witness certifies an exploiting controller."""
    e, e_post, e_prev = _relation_vars(model)
    zeta_prev = substitute(zeta, e, Var(e_prev))
    relation_prev = substitute(substitute(model.relation, e, Var(e_prev)),
                               e_post, Var(e))
    after_env = Seq(model.aux, Seq(model.ctrl, model.plant))
    matrix = And(And(zeta_prev, relation_prev), Diamond(after_env, Not(zeta)))
    return _close(model, "exploit", matrix, FIND_WITNESS)


def chi_obligation(model: Model, zeta: Formula):
    """Invariant preservation with ctrl removed, and its negation."""
    uncontrolled = Seq(model.env, Seq(model.aux, model.plant))
    chi_matrix = Implies(zeta, Box(uncontrolled, zeta))
    not_chi_matrix = And(zeta, Diamond(uncontrolled, Not(zeta)))
    return (_close(model, "chi", chi_matrix, FALSIFY_UNIVERSAL),
            _close(model, "not_chi", not_chi_matrix, FIND_WITNESS))


def psi_obligation(model: Model, zeta_general: Formula, instantiation_var: str,
                   instantiation_term) -> Obligation:
    """Controller-necessity existential: env and aux can break the
    instantiated invariant and the plant does not reestablish it."""
    if instantiation_var not in free_variables(zeta_general):
        raise ValueError(
            f"{instantiation_var!r} is not free in the general invariant")
    zeta_inst = substitute(zeta_general, instantiation_var, instantiation_term)
    env_aux = Seq(model.env, model.aux)
    inner = And(Not(zeta_general), Diamond(model.plant, Not(zeta_inst)))
    matrix = And(zeta_inst, Diamond(env_aux, inner))
    # not the default closure: the action variable, which aux assigns, is
    # left out
    quantified = (free_variables(zeta_inst) | set(model.state_vars)) \
        - set(model.constant_values()) - {model.time_var}
    if model.env_var:
        quantified.add(model.env_var)
    quantified.discard(instantiation_var)
    if model.action_var:
        quantified.discard(model.action_var)
    return _close(model, "psi", matrix, FIND_WITNESS, quantified=quantified)


def friendliness_probe(model: Model) -> Obligation:
    """A witness exhibits friendliness of env w.r.t. the relation."""
    e, e_post, _ = _relation_vars(model)
    matrix = And(model.relation,
                 Not(Diamond(model.env, Cmp("=", Var(e), Var(e_post)))))
    # not the default closure: every declared variable is quantified,
    # whether the matrix reads it or not
    quantified = (model.declared_variables() | {e_post}) \
        - set(model.constant_values()) - {model.time_var}
    return _close(model, "friendly", matrix, FIND_WITNESS,
                  quantified=quantified)
