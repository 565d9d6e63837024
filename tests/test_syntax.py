import copy
import hashlib
import pickle
import random
from fractions import Fraction

import pytest

from gen import (
    VAR_POOL, is_fol, is_quantifier_free, random_formula, random_program,
    random_term,
)
from hpcheck.models import builtin, fig2_script
from hpcheck.parser import parse_formula
from hpcheck.semantics import Branch, Duration, LoopCount, run
from hpcheck.syntax import (
    TRUE, Add, And, Assign, BoolLit, Box, Choice, Cmp, Diamond, Div, Exists,
    Forall, Iff, Implies, Loop, Mul, Neg, Node, Not, Num, ODE, Or, Pow,
    RandomAssign, Seq, Sub, Test, Var, assigned_variables, bound_variables, conjuncts,
    desugar_if, free_variables, fresh_name, seq, substitute,
)


def test_num_coerces_to_fraction():
    assert Num(3).value == Fraction(3)
    assert Num(Fraction(1, 2)).value == Fraction(1, 2)


def test_div_rejects_literal_zero():
    with pytest.raises(ValueError):
        Div(Var("x"), Num(0))


def test_pow_rejects_negative_exponent():
    with pytest.raises(ValueError):
        Pow(Var("x"), -1)


def test_cmp_rejects_unknown_operator():
    with pytest.raises(ValueError):
        Cmp("~", Var("x"), Var("y"))


def test_ode_rejects_duplicate_variables():
    with pytest.raises(ValueError):
        ODE((("x", Var("v")), ("x", Num(1))), BoolLit(True))


def test_desugar_if_shape():
    p = Cmp("<=", Var("x"), Num(0))
    body = Assign("a", Num(1))
    sugar = desugar_if(p, body)
    assert sugar == Choice(Seq(Test(p), body), Test(Not(p)))


def test_desugar_if_behaves_like_conditional():
    # when the condition holds the guarded branch runs; otherwise the
    # program is a no-op (the skip branch's test passes)
    from hpcheck.semantics import Branch, Final, run
    p = Cmp("<=", Var("x"), Num(0))
    prog = desugar_if(p, Assign("a", Num(1)))
    taken, _ = run({"x": Fraction(-1), "a": Fraction(0)}, prog,
                   [Branch("left")])
    assert isinstance(taken, Final) and taken.state["a"] == 1
    skipped, _ = run({"x": Fraction(2), "a": Fraction(0)}, prog,
                     [Branch("right")])
    assert isinstance(skipped, Final) and skipped.state["a"] == 0


def test_free_variables_formula():
    f = Implies(Cmp("<=", Var("x"), Var("y")), Forall("x", Cmp("=", Var("x"), Var("z"))))
    assert free_variables(f) == {"x", "y", "z"}


def test_free_variables_modality_includes_program_vars():
    f = Box(Seq(Assign("a", Var("b")), Test(Cmp(">=", Var("a"), Num(0)))),
            Cmp("<=", Var("x"), Num(1)))
    assert free_variables(f) == {"a", "b", "x"}


def reference_free_variables(node) -> set:
    """The recursive union definition that free_variables replaced: a new
    set at every node, a quantifier's variable taken out of its body's."""
    if isinstance(node, Var):
        return {node.name}
    if isinstance(node, (Num, BoolLit)):
        return set()
    if isinstance(node, (Add, Sub, Mul, Cmp, And, Or, Implies, Iff, Choice)):
        return (reference_free_variables(node.left)
                | reference_free_variables(node.right))
    if isinstance(node, (Neg, Not)):
        return reference_free_variables(node.inner)
    if isinstance(node, Div):
        return (reference_free_variables(node.num)
                | reference_free_variables(node.den))
    if isinstance(node, Pow):
        return reference_free_variables(node.base)
    if isinstance(node, (Forall, Exists)):
        return reference_free_variables(node.body) - {node.var}
    if isinstance(node, (Box, Diamond)):
        return (reference_free_variables(node.program)
                | reference_free_variables(node.post))
    if isinstance(node, Assign):
        return {node.var} | reference_free_variables(node.term)
    if isinstance(node, RandomAssign):
        return {node.var}
    if isinstance(node, Test):
        return reference_free_variables(node.condition)
    if isinstance(node, ODE):
        out = reference_free_variables(node.domain)
        for v, rhs in node.equations:
            out |= {v} | reference_free_variables(rhs)
        return out
    if isinstance(node, Seq):
        return (reference_free_variables(node.first)
                | reference_free_variables(node.second))
    if isinstance(node, Loop):
        return reference_free_variables(node.body)
    raise TypeError(f"not a syntax node: {node!r}")


def test_free_variables_matches_the_union_definition():
    rng = random.Random(11)
    for _ in range(300):
        for node in (random_term(rng, 4), random_formula(rng, 5),
                     random_program(rng, 5)):
            assert free_variables(node) == reference_free_variables(node), node


@pytest.mark.parametrize("node, expected", [
    # a quantifier binds what its body assigns as well as what it reads
    (Forall("x", Box(Assign("x", Var("y")), Cmp(">=", Var("x"), Num(0)))),
     {"y"}),
    # an assignment outside the quantifier stays free
    (Box(Assign("x", Num(1)), Forall("x", Cmp(">=", Var("x"), Num(0)))),
     {"x"}),
    (Exists("x", Diamond(ODE((("x", Var("v")),), Cmp("<=", Var("x"), Var("w"))),
                         BoolLit(True))), {"v", "w"}),
    (Forall("x", Box(RandomAssign("x"), BoolLit(True))), set()),
    # the binding ends with the quantifier's body
    (And(Forall("x", Cmp("=", Var("x"), Var("y"))),
         Cmp("=", Var("x"), Num(0))), {"x", "y"}),
    (Forall("x", Exists("y", Cmp("=", Var("x"), Var("z")))), {"z"}),
])
def test_free_variables_under_shadowing_quantifiers(node, expected):
    assert free_variables(node) == expected
    assert reference_free_variables(node) == expected


def test_free_variables_rejects_a_non_node():
    with pytest.raises(TypeError):
        free_variables(Cmp("=", Var("x"), "y"))


def test_assigned_variables():
    prog = seq(Assign("x", Num(0)), RandomAssign("y"), Loop(Assign("z", Var("x"))))
    assert assigned_variables(prog) == {"x", "y", "z"}


def test_fresh_name_avoids_collisions():
    assert fresh_name("x", {"x"}) == "x_1"
    assert fresh_name("x", {"x", "x_1"}) == "x_2"
    assert fresh_name("y", {"x"}) == "y_1"


def test_substitute_simple():
    f = Cmp("<=", Var("x"), Var("y"))
    g = substitute(f, "x", Num(3))
    assert g == Cmp("<=", Num(3), Var("y"))
    # a bare term and a bare program; the program's assignment keeps the
    # variable it writes
    t = Add(Var("x"), Div(Var("y"), Pow(Var("x"), 2)))
    assert substitute(t, "x", Num(3)) \
        == Add(Num(3), Div(Var("y"), Pow(Num(3), 2)))
    p = Seq(Assign("x", Mul(Var("x"), Var("y"))), Test(f))
    assert substitute(p, "x", Var("z")) \
        == Seq(Assign("x", Mul(Var("z"), Var("y"))),
               Test(Cmp("<=", Var("z"), Var("y"))))


def test_substitute_capture_avoiding():
    f = Forall("y", Cmp("<=", Var("x"), Var("y")))
    g = substitute(f, "x", Var("y"))
    assert isinstance(g, Forall)
    assert g.var != "y"
    assert free_variables(g) == {"y"}


def test_substitute_through_writing_modality_rejected():
    f = Box(Assign("x", Num(0)), Cmp("<=", Var("x"), Var("c")))
    with pytest.raises(ValueError):
        substitute(f, "x", Num(1))


def test_substitute_names_the_variable_when_a_renaming_meets_a_write():
    # the binder y must be renamed away from the replacement y, and the
    # renaming meets [y := 1]: refused, naming x and the binder
    f = parse_formula("forall y (x <= y & [y := 1] y > 0)")
    with pytest.raises(ValueError) as info:
        substitute(f, "x", Var("y"))
    assert str(info.value) == ("cannot substitute 'x': renaming the binder "
                               "'y' meets a program writing it")


def test_substitute_bound_variable_is_noop():
    f = Forall("x", Cmp("<=", Var("x"), Num(0)))
    assert substitute(f, "x", Num(5)) == f


def test_substitute_is_pinned():
    # sha256 over repr(substitute(node, var, term)), or the ValueError
    # message where it raises, for 3 000 random terms, formulas and
    # programs, most of them at one of their free variables; taken when
    # terms, formulas and programs each had their own substitution, and
    # re-derived when a renaming refused by a writing program came to name
    # the substituted variable and the binder (one record of the 3 000).
    # A result also obeys the free-variable law, but for a bare program
    # that writes the variable, whose writes are kept.
    rng = random.Random(20)
    digest = hashlib.sha256()
    for i in range(3000):
        make = (random_term, random_formula, random_program)[i % 3]
        node = make(rng, rng.randint(0, 6))
        names = sorted(free_variables(node))
        var = (rng.choice(names) if names and rng.random() < 0.75
               else rng.choice(VAR_POOL))
        term = random_term(rng, rng.randint(0, 2))
        try:
            out = substitute(node, var, term)
        except ValueError as exc:
            digest.update(str(exc).encode() + b"\0")
            continue
        digest.update(repr(out).encode() + b"\0")
        if make is random_program and var in assigned_variables(node):
            continue
        want = free_variables(node)
        if var in want:
            want = (want - {var}) | free_variables(term)
        assert free_variables(out) == want, (node, var, term)
    assert digest.hexdigest() \
        == "ed8cdabba0757738e61e662dd93df256fe44aa2a9fc7aab9693ef93a68de11e7"


def test_conjuncts_flatten():
    a = Cmp("<=", Var("x"), Num(0))
    b = Cmp(">=", Var("y"), Num(1))
    c = Cmp("=", Var("z"), Num(2))
    assert conjuncts(And(And(a, b), c)) == [a, b, c]
    assert conjuncts(And(a, And(b, c))) == [a, b, c]


def test_is_fol_and_quantifier_free():
    plain = Cmp("<=", Var("x"), Num(0))
    assert is_fol(plain) and is_quantifier_free(plain)
    quantified = Forall("x", plain)
    assert is_fol(quantified) and not is_quantifier_free(quantified)
    modal = Box(Assign("x", Num(0)), plain)
    assert not is_fol(modal)


def test_bound_variables():
    f = Forall("x", Exists("y", Cmp("=", Var("x"), Var("y"))))
    assert bound_variables(f) == {"x", "y"}


def test_boollit_singletons():
    assert BoolLit(True) is not None
    assert BoolLit(True) == BoolLit(True)
    assert BoolLit(True) != BoolLit(False)


def test_formula_equality_is_structural():
    t = Add(Var("x"), Num(1))
    assert t == Add(Var("x"), Num(1))
    assert Mul(t, t) == Mul(Add(Var("x"), Num(1)), Add(Var("x"), Num(1)))
    assert Sub(Var("x"), Num(1)) != Sub(Num(1), Var("x"))
    assert Neg(Var("x")) == Neg(Var("x"))


def test_nodes_are_immutable_values():
    # syntax nodes, script entries, outcomes and constants are all a Node:
    # equal and hashed by value within one class, frozen, checked when
    # built, picklable and without an instance __dict__
    x = Var("x")
    assert Add(x, Num(1)) != Sub(x, Num(1))
    assert x != "x" and "x" != x
    assert repr(Add(x, Num(1))) == \
        "Add(left=Var(name='x'), right=Num(value=Fraction(1, 1)))"
    text = "forall x (x <= 1 -> [x := x + 1; {x' = 1 & x <= 2}] x >= 0)"
    first, second = parse_formula(text), parse_formula(text)
    assert first is not second
    assert first == second and hash(first) == hash(second)
    for name in ("name", "other"):
        with pytest.raises(AttributeError):
            setattr(x, name, "y")
        with pytest.raises(AttributeError):
            delattr(x, name)
    assert x == Var("x")
    for kind, args in ((Var, ()), (Var, ("x", "y")), (Add, (x,)),
                       (Cmp, ("<", x)), (Cmp, ("<", x, x, x))):
        with pytest.raises(TypeError):
            kind(*args)
    with pytest.raises(TypeError):
        class Loose(Node):
            pass
    for kind, args in ((Div, (x, Num(0))), (Pow, (x, -1)), (Cmp, ("~", x, x)),
                       (ODE, ((("x", x), ("x", Num(1))), TRUE)),
                       (Branch, ("middle",)), (Duration, (Fraction(-1),)),
                       (LoopCount, (-1,))):
        with pytest.raises(ValueError):
            kind(*args)
    model = builtin("m2")
    outcome, _ = run({**model.constant_values(), "x": Fraction(0),
                      "v": Fraction(2), "xc": Fraction(10), "a": Fraction(0),
                      "tau": Fraction(0)},
                     model.loop_program(), fig2_script())
    roots = [first, model.loop_program(), outcome, *model.constants,
             *fig2_script()]
    for root in roots:
        assert pickle.loads(pickle.dumps(root)) == root
        assert copy.deepcopy(root) == root
    stack, seen = list(roots), 0
    while stack:
        node = stack.pop()
        if isinstance(node, tuple):
            stack.extend(node)
        elif isinstance(node, Node):
            assert not hasattr(node, "__dict__"), node
            stack.extend(node.fields)
            seen += 1
    assert seen > 100
