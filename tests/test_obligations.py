from fractions import Fraction

import pytest

from hpcheck.models import builtin
from hpcheck.obligations import (
    FALSIFY_UNIVERSAL, FIND_WITNESS, MissingRelation, chi_obligation,
    exploit_witness_formula, friendliness_probe, loop_obligations,
    psi_obligation, rho_obligation,
)
from hpcheck.parser import parse_model, parse_term
from hpcheck.syntax import (
    And, Box, Cmp, Diamond, Forall, Implies, Not, Seq, Var,
    free_variables,
)


@pytest.fixture
def m2():
    return builtin("m2")


@pytest.fixture
def m4():
    return builtin("m4")


def all_obligations(model, zeta):
    out = list(loop_obligations(model, zeta))
    out.append(rho_obligation(model, zeta))
    out.append(exploit_witness_formula(model, zeta))
    out.extend(chi_obligation(model, zeta))
    out.append(friendliness_probe(model))
    return out


def test_loop_obligation_shapes(m2):
    zeta = m2.invariants["zeta1"]
    obs = loop_obligations(m2, zeta)
    assert [o.name for o in obs] == ["loop_i", "loop_ii", "loop_iii"]
    assert all(o.kind == FALSIFY_UNIVERSAL for o in obs)
    assert obs[0].split()[1] == Implies(m2.init, zeta)
    step = obs[1].split()[1]
    assert step == Implies(zeta, Box(m2.loop_body(), zeta))
    assert obs[2].split()[1] == Implies(zeta, m2.guarantee)


def test_quantifier_prefix_order(m2):
    ob = loop_obligations(m2, m2.invariants["zeta1"])[1]
    # state variables first, then env, then the action variable
    assert ob.split()[0] == ["x", "v", "xc", "a"]
    node = ob.formula
    for var in ob.split()[0]:
        assert isinstance(node, Forall) and node.var == var
        node = node.body


def test_obligations_are_closed(m2, m4):
    for model in (m2, m4):
        for zeta_name in ("zeta1", "zeta2"):
            for ob in all_obligations(model, model.invariants[zeta_name]):
                leftover = (free_variables(ob.formula)
                            - set(ob.fixed_constants) - {model.time_var})
                assert not leftover, (ob.name, leftover)


def test_search_boxes_cover_quantified_vars(m2):
    for ob in all_obligations(m2, m2.invariants["zeta2"]):
        quantified, _ = ob.split()
        assert set(ob.search_box) == set(quantified)
        for var in quantified:
            lo, hi = ob.search_box[var]
            assert lo <= hi


def test_derived_variables_inherit_intervals(m2):
    ob = rho_obligation(m2, m2.invariants["zeta1"])
    assert ob.search_box["xc_post"] == m2.domains["xc"]


def test_rho_shape(m2):
    zeta = m2.invariants["zeta1"]
    ob = rho_obligation(m2, zeta)
    _, matrix = ob.split()
    assert matrix == Implies(And(zeta, m2.relation),
                             Diamond(m2.env, Cmp("=", Var("xc"), Var("xc_post"))))
    assert ob.kind == FALSIFY_UNIVERSAL


def test_exploit_shape(m2):
    zeta = m2.invariants["zeta1"]
    ob = exploit_witness_formula(m2, zeta)
    assert ob.kind == FIND_WITNESS
    _, matrix = ob.split()
    assert isinstance(matrix, And)
    assert isinstance(matrix.right, Diamond)
    assert matrix.right.program == Seq(m2.aux, Seq(m2.ctrl, m2.plant))
    assert matrix.right.post == Not(zeta)
    # the previous obstacle position appears via the renamed copy of zeta
    assert "xc_prev" in free_variables(matrix.left)


def test_chi_pair_are_duals(m2):
    zeta = m2.invariants["zeta1"]
    chi, not_chi = chi_obligation(m2, zeta)
    assert chi.kind == FALSIFY_UNIVERSAL
    assert not_chi.kind == FIND_WITNESS
    uncontrolled = Seq(m2.env, Seq(m2.aux, m2.plant))
    assert chi.split()[1] == Implies(zeta, Box(uncontrolled, zeta))
    assert not_chi.split()[1] == And(zeta, Diamond(uncontrolled, Not(zeta)))
    assert chi.split()[0] == not_chi.split()[0]


def test_psi_instantiates_action(m4):
    zeta_iter = m4.invariants["zeta_iter"]
    ob = psi_obligation(m4, zeta_iter, "a", parse_term("-anmin"))
    assert ob.kind == FIND_WITNESS
    assert "a" not in ob.split()[0]
    _, matrix = ob.split()
    assert isinstance(matrix, And)
    inner = matrix.right
    assert isinstance(inner, Diamond)
    assert inner.program == Seq(m4.env, m4.aux)


def test_psi_rejects_missing_instantiation_var(m4):
    with pytest.raises(ValueError):
        psi_obligation(m4, m4.invariants["zeta1"], "a", parse_term("-anmin"))


def test_friendliness_probe_shape(m2):
    ob = friendliness_probe(m2)
    assert ob.kind == FIND_WITNESS
    _, matrix = ob.split()
    assert isinstance(matrix, And)
    assert isinstance(matrix.right, Not)
    assert isinstance(matrix.right.inner, Diamond)


def test_fixed_constants_carry_sample_values(m2):
    ob = rho_obligation(m2, m2.invariants["zeta1"])
    assert ob.fixed_constants == {"T": Fraction(1), "anmax": Fraction(2),
                                  "anmin": Fraction(3), "asmin": Fraction(4)}


def test_undeclared_invariant_variable_rejected(m2):
    from hpcheck.parser import parse_formula
    with pytest.raises(ValueError):
        loop_obligations(m2, parse_formula("q <= 0"))


NO_RELATION = """
CONSTANTS
  T = 1 : T > 0
DOMAINS
  x = [0, 1]
  a = [0, 1]
INIT
  x = 0
GUARANTEE
  x <= 1
ENV
  x := *; ?x >= 0
AUX
  a := *; ?a >= 0
CTRL
  if (x >= 1) then a := 0 fi
PLANT
  tau := 0; {x' = a, tau' = 1 & tau <= T}
"""


def test_relation_required_for_rho_and_exploit():
    model = parse_model(NO_RELATION)
    zeta = model.guarantee
    with pytest.raises(MissingRelation):
        rho_obligation(model, zeta)
    with pytest.raises(MissingRelation):
        exploit_witness_formula(model, zeta)
    with pytest.raises(MissingRelation):
        friendliness_probe(model)

