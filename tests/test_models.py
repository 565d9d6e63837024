from fractions import Fraction

import pytest

import golden
from golden import SAMPLE_CONSTANTS
from hpcheck.models import (
    MODEL_IDS, builtin, fig2_script, table2_suite,
)
from hpcheck.parser import parse_model
from hpcheck.printer import print_model
from hpcheck.semantics import (
    Branch, Duration, LoopCount, RandomValue, eval_fol,
)
from hpcheck.syntax import (
    And, Cmp, Num, RandomAssign, Seq, Test, Var, conjuncts,
)


@pytest.mark.parametrize("model_id", MODEL_IDS)
def test_builtin_models_follow_standard_shape(model_id):
    model = builtin(model_id)
    assert not model.nonstandard_shape
    assert model.env_var == "xc"
    assert model.action_var == "a"
    assert model.state_vars == ["x", "v"]
    assert model.time_var == "tau"
    assert not model.warnings


@pytest.mark.parametrize("model_id", MODEL_IDS)
def test_builtin_constants(model_id):
    assert builtin(model_id).constant_values() == SAMPLE_CONSTANTS


def test_env_section_matches_golden():
    for model_id in MODEL_IDS:
        model = builtin(model_id)
        assert model.env == Seq(RandomAssign("xc"), Test(golden.env_test()))


def test_aux_sections_match_golden():
    for model_id in ("m2", "m4"):
        model = builtin(model_id)
        assert model.aux == Seq(RandomAssign("a"), Test(golden.aux_bounds()))
    m3 = builtin("m3")
    assert isinstance(m3.aux, Seq)
    got = conjuncts(m3.aux.second.condition)
    want = conjuncts(golden.aux_bounds()) + conjuncts(golden.aux_requirement())
    assert got == want


def test_ctrl_sections_match_golden():
    assert builtin("m2").ctrl == golden.golden_ctrl(lookahead=False)
    assert builtin("m3").ctrl == golden.golden_ctrl(lookahead=False)
    assert builtin("m4").ctrl == golden.golden_ctrl(lookahead=True)


def test_invariants_match_golden():
    for model_id in MODEL_IDS:
        model = builtin(model_id)
        assert model.invariants["zeta1"] == golden.zeta1()
        assert model.invariants["zeta2"] == golden.zeta2()
    assert builtin("m4").invariants["zeta_iter"] == golden.zeta_iter()


def test_init_guarantee_relation():
    for model_id in MODEL_IDS:
        model = builtin(model_id)
        assert model.init == And(Cmp("=", Var("v"), Num(0)),
                                 Cmp("<=", Var("x"), Var("xc")))
        assert model.guarantee == golden.zeta1()
        assert model.relation == Cmp("<=", Var("xc"), Var("xc_post"))


def test_fig2_script_decisions():
    F = Fraction
    assert fig2_script() == [LoopCount(2), RandomValue(F(1)),
                             RandomValue(F(9, 5)), Branch("right"),
                             Duration(F(1)), RandomValue(F(1))]


def test_table2_suite_shape():
    rows = table2_suite()
    assert len(rows) == 8
    assert [r.expected for r in rows] == ["Yes", "No", "No", "Yes", "No",
                                          "Yes", "No", "Yes"]
    assert {r.model_id for r in rows} == set(MODEL_IDS)
    assert rows[4].conjuncts == ("not_chi",)
    assert rows[4].reason == "Invariant preserved without controller"


def test_zeta2_holds_initially_but_not_after_first_iteration():
    state = dict(SAMPLE_CONSTANTS)
    zeta2 = golden.zeta2()
    state.update({"x": Fraction(0), "v": Fraction(0), "xc": Fraction(0)})
    assert eval_fol(state, zeta2)
    state.update({"x": Fraction(9, 10), "v": Fraction(9, 5), "xc": Fraction(1)})
    assert not eval_fol(state, zeta2)


def test_unknown_builtin_rejected():
    with pytest.raises(KeyError):
        builtin("m1")


@pytest.mark.parametrize("model_id", MODEL_IDS)
def test_model_printer_round_trip(model_id):
    model = builtin(model_id)
    reparsed = parse_model(print_model(model), name=model.name)
    assert reparsed.constants == model.constants
    assert reparsed.domains == model.domains
    assert reparsed.init == model.init
    assert reparsed.guarantee == model.guarantee
    assert reparsed.env == model.env
    assert reparsed.aux == model.aux
    assert reparsed.ctrl == model.ctrl
    assert reparsed.plant == model.plant
    assert reparsed.invariants == model.invariants
    assert reparsed.relation == model.relation
    assert not reparsed.nonstandard_shape
