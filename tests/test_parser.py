import hashlib
import random
import re
from fractions import Fraction

import pytest

from gen import random_formula, random_program, random_term
from hpcheck.models import MODEL_IDS, builtin
from hpcheck.parser import (
    ParseError, _Parser, _literal, _parsed_literal, parse_formula, parse_model,
    parse_program, parse_term, split_sections, tokenize,
)
from hpcheck.printer import print_formula, print_program, print_term
from hpcheck.syntax import (
    FORMULA_OPS, PROGRAM_OPS, TERM_OPS, Add, And, Assign, Box, Choice, Cmp,
    Diamond, Div, Exists, Forall, Implies, Loop, Mul, Neg, Not, Num, ODE, Or,
    Pow, RandomAssign, Seq, Sub, Test, Var, desugar_if, free_variables,
)


def test_tokenize_positions():
    tokens = tokenize("x +\n  y")
    assert [t.text for t in tokens] == ["x", "+", "y", ""]
    assert tokens[2].span.line == 2
    assert tokens[2].span.column == 3


def test_tokenize_rejects_stray_character():
    with pytest.raises(ParseError):
        tokenize("x @ y")


def test_term_precedence():
    assert parse_term("1 + 2 * x") == Add(Num(1), Mul(Num(2), Var("x")))
    assert parse_term("-x^2") == Neg(Pow(Var("x"), 2))
    assert parse_term("(1 + x) * 2") == Mul(Add(Num(1), Var("x")), Num(2))


def test_term_literal_folding():
    assert parse_term("9/5") == Num(Fraction(9, 5))
    assert parse_term("1.8") == Num(Fraction(9, 5))
    assert parse_term("-3") == Num(-3)
    assert parse_term("x/2") == Div(Var("x"), Num(2))


def test_term_rejects_zero_division():
    with pytest.raises(ParseError):
        parse_term("1/0")


def test_term_rejects_fractional_exponent():
    with pytest.raises(ParseError):
        parse_term("x^1.5")


def test_formula_precedence():
    f = parse_formula("a <= 1 | b <= 2 & c <= 3 -> d <= 4")
    assert isinstance(f, Implies)
    assert isinstance(f.left, Or)
    assert isinstance(f.left.right, And)


def test_implies_right_associative():
    f = parse_formula("x = 1 -> x = 2 -> x = 3")
    assert isinstance(f, Implies)
    assert isinstance(f.right, Implies)


def test_quantifier_extends_right():
    f = parse_formula("forall x x <= 1 & x <= 2")
    assert f == Forall("x", And(Cmp("<=", Var("x"), Num(1)),
                                Cmp("<=", Var("x"), Num(2))))


def test_modalities():
    f = parse_formula("[x := 1] x = 1")
    assert f == Box(Assign("x", Num(1)), Cmp("=", Var("x"), Num(1)))
    g = parse_formula("<x := *; ?x >= 0> x = y")
    assert g == Diamond(Seq(RandomAssign("x"), Test(Cmp(">=", Var("x"), Num(0)))),
                        Cmp("=", Var("x"), Var("y")))


def test_program_constructs():
    p = parse_program("x := 1; {y := 2 ++ ?y != 0}*")
    assert p == Seq(Assign("x", Num(1)),
                    Loop(Choice(Assign("y", Num(2)),
                                Test(Cmp("!=", Var("y"), Num(0))))))


def test_if_sugar_requires_parentheses():
    p = parse_program("if (x <= 0) then a := 1 fi")
    assert p == desugar_if(Cmp("<=", Var("x"), Num(0)), Assign("a", Num(1)))
    with pytest.raises(ParseError):
        parse_program("if x <= 0 then a := 1 fi")


def test_ode_parsing():
    p = parse_program("{x' = v, v' = a & v >= 0}")
    assert p == ODE((("x", Var("v")), ("v", Var("a"))),
                    Cmp(">=", Var("v"), Num(0)))
    q = parse_program("{t' = 1}")
    assert isinstance(q, ODE)
    with pytest.raises(ParseError):
        parse_program("{x' = 1, x' = 2}")


def test_parse_error_carries_location():
    with pytest.raises(ParseError) as info:
        parse_formula("x <= ")
    assert "line 1" in str(info.value)


@pytest.mark.parametrize("seed", range(8))
def test_round_trip_formulas_sampled(seed):
    rng = random.Random(seed)
    for _ in range(200):
        f = random_formula(rng, rng.randint(0, 8))
        assert parse_formula(print_formula(f)) == f


@pytest.mark.parametrize("seed", range(8))
def test_round_trip_programs_sampled(seed):
    rng = random.Random(100 + seed)
    for _ in range(200):
        p = random_program(rng, rng.randint(0, 8))
        assert parse_program(print_program(p)) == p


_WORD = re.compile(r"\d+(?:\.\d+)?|[A-Za-z_]\w*|<->|->|:=|<=|>=|!=|\+\+|\S")


def _token_deletions(text):
    """Every text made by deleting one token from a section's argument or
    body; the section keywords stay."""
    lines = text.split("\n")
    for _, _, body, header in split_sections(text):
        places = [(header, list(_WORD.finditer(lines[header - 1]))[1:])]
        places += [(lineno, list(_WORD.finditer(line))) for lineno, line in body]
        for lineno, words in places:
            line = lines[lineno - 1]
            for m in words:
                mutant = lines[:]
                mutant[lineno - 1] = line[:m.start()] + line[m.end():]
                yield "\n".join(mutant)


def _pinned_parse_inputs():
    """(parse, text) for each input of the parse pins: the bundled models,
    the round-trip tests' printed formulas and programs, and the 714
    single-token deletions from the bundled models (45 parse)."""
    models = [builtin(m).source for m in MODEL_IDS]
    inputs = [(parse_model, text) for text in models]
    for seed in range(8):
        rng = random.Random(seed)
        inputs += [(parse_formula,
                    print_formula(random_formula(rng, rng.randint(0, 8))))
                   for _ in range(200)]
        rng = random.Random(100 + seed)
        inputs += [(parse_program,
                    print_program(random_program(rng, rng.randint(0, 8))))
                   for _ in range(200)]
    mutants = [m for text in models for m in _token_deletions(text)]
    assert len(mutants) == 714
    return inputs + [(parse_model, text) for text in mutants]


def test_parse_outcomes_are_pinned():
    # the repr of each parse, or ParseError without its message; re-derived
    # when CONSTANTS names had to be identifiers, which turned the 9
    # deletions of a constant's name from a parse into a ParseError, and
    # when the unread Model field plant_ode went: each model's repr lost its
    # `, plant_ode=...` and nothing else moved
    digest = hashlib.sha256()
    for parse, text in _pinned_parse_inputs():
        try:
            outcome = repr(parse(text))
        except ParseError:
            outcome = "ParseError"
        digest.update(outcome.encode() + b"\0")
    assert digest.hexdigest() == (
        "5d810d6d25433b5c5b7ffb272474bcd6ffd44e47d0ae6aaa216ca809495d0f0f")


def test_parse_error_places_are_pinned():
    # the message, line and column of each input of the parse pins that
    # raises, which the outcome pin records only as ParseError
    digest = hashlib.sha256()
    raised = 0
    for parse, text in _pinned_parse_inputs():
        try:
            parse(text)
        except ParseError as exc:
            raised += 1
            place = (exc.message, exc.span.line, exc.span.column)
            digest.update(repr(place).encode() + b"\0")
    assert raised == 669
    assert digest.hexdigest() == (
        "c8f4917866306c6397112dd09e8c8f447f073a0d9368a89544cc1dc59c387ecb")


_SOUP = ["x", "v2", "_a", "true", "fi", "12", "007", "1.5", "1.", ".5", "٣",
         "é", "@", "$", "# note", "#", "\n", " ", "\t", "\r", "\x0c",
         "\u2028", "<->", "->", ":=", "<=", ">=", "!=", "++", "<", "-", "+",
         "*", "/", "^", "(", ")", "[", "]", "{", "}", "'", "=", "!", "&",
         "|", ";", ",", "?", ":"]


def _tokens_or_error(tokens_of, text):
    try:
        return tokens_of(text)
    except ParseError as exc:
        return exc.message, exc.span


def test_parser_tokens_are_tokenize_texts():
    # the parser's token strings and the positional tokens of tokenize, on
    # the inputs of the parse pins and on seeded soups of token pieces,
    # blanks, comments and unexpected characters: the same texts, or the
    # same error at the same place
    rng = random.Random(5)
    texts = [text for _, text in _pinned_parse_inputs()]
    texts += ["".join(rng.choices(_SOUP, k=rng.randint(0, 12)))
              for _ in range(3000)]
    for text in texts:
        assert _tokens_or_error(lambda t: _Parser(t, 2, 5).tokens, text) == \
            _tokens_or_error(lambda t: [tok.text for tok in tokenize(t, 2, 5)],
                             text), repr(text)


def test_round_trip_terms_sampled():
    rng = random.Random(7)
    for _ in range(500):
        t = random_term(rng, rng.randint(0, 8))
        assert parse_term(print_term(t)) == t


@pytest.mark.parametrize("ops, leaf, parse, show", [
    (TERM_OPS, Var, parse_term, print_term),
    (FORMULA_OPS, lambda name: Cmp("<=", Var(name), Num(0)), parse_formula,
     print_formula),
    (PROGRAM_OPS, lambda name: Assign(name, Num(0)), parse_program,
     print_program),
], ids=("terms", "formulas", "programs"))
def test_round_trip_every_operator_pair(ops, leaf, parse, show):
    # every ordered pair of one sort's binary operators, nested on the left
    # and on the right, reaches each precedence and associativity case
    p, q, r = leaf("p"), leaf("q"), leaf("r")
    for outer in ops:
        for inner in ops:
            for node in (outer(inner(p, q), r), outer(p, inner(q, r))):
                assert parse(show(node)) == node, show(node)


# ---------------------------------------------------------------------------
# model files

MINIMAL = """
CONSTANTS
  T = 1 : T > 0
DOMAINS
  x = [0, 1]
INIT
  x = 0
GUARANTEE
  x <= 1
ENV
  x := x
AUX
  x := x
CTRL
  x := x
PLANT
  tau := 0; {x' = 1, tau' = 1 & tau <= T}
"""


def test_minimal_model_parses():
    model = parse_model(MINIMAL)
    assert model.nonstandard_shape  # env/aux/ctrl are not assign-then-test
    assert model.domains["x"] == (0, 1)
    assert model.time_var == "tau"


def test_split_sections_rejects_duplicates():
    with pytest.raises(ParseError):
        split_sections(MINIMAL + "\nINIT\n  x = 1\n")


def test_split_sections_rejects_missing_section():
    with pytest.raises(ParseError):
        split_sections(MINIMAL.replace("GUARANTEE\n  x <= 1\n", ""))


def test_split_sections_rejects_leading_content():
    with pytest.raises(ParseError):
        split_sections("x = 1\n" + MINIMAL)


def test_unknown_domain_variable_rejected():
    with pytest.raises(ParseError):
        parse_model(MINIMAL.replace("x = [0, 1]", "x = [0, 1]\n  zz = [0, 1]"))


def test_missing_domain_warns_and_defaults():
    model = parse_model(MINIMAL.replace("ENV\n  x := x", "ENV\n  x := y"))
    assert any("y" in w for w in model.warnings)
    assert model.domains["y"] == (-100, 100)


def test_unconstrained_divisor_rejected():
    bad = MINIMAL.replace("T = 1 : T > 0", "T = 1").replace(
        "GUARANTEE\n  x <= 1", "GUARANTEE\n  x <= 1 / T")
    with pytest.raises(ParseError) as info:
        parse_model(bad)
    assert "unconstrained divisor" in str(info.value)


def test_division_by_state_variable_rejected():
    bad = MINIMAL.replace("GUARANTEE\n  x <= 1", "GUARANTEE\n  x <= 1 / x")
    with pytest.raises(ParseError) as info:
        parse_model(bad)
    assert "non-constant" in str(info.value)


def test_invariant_section_requires_name():
    with pytest.raises(ParseError):
        parse_model(MINIMAL + "\nINVARIANT\n  x <= 1\n")


# ---------------------------------------------------------------------------
# where model errors point

M2 = builtin("m2").source


def _error_at(text):
    with pytest.raises(ParseError) as info:
        parse_model(text)
    return info.value.message, info.value.span.line, info.value.span.column


def test_constants_errors_point_into_their_line():
    assert _error_at(M2.replace("  T = 1 : T > 0", "  T = 1 : T >")) == (
        "expected term, got ''", 5, 14)
    assert _error_at(M2.replace("  anmax = 2 :", "  anmax = y :")) == (
        "constant value must be a rational literal", 6, 11)
    # a name that is not an identifier, or is a keyword
    assert _error_at(M2.replace("  T = 1 : T > 0", "  T <= 1 : T > 0")) == (
        "expected a constant name, got 'T <'", 5, 3)
    assert _error_at(M2.replace("  T = 1 : T > 0", "  = 1 : T > 0")) == (
        "expected a constant name, got ''", 5, 3)
    assert _error_at(M2.replace("  T = 1 : T > 0", "  true = 1 : T > 0")) \
        == ("expected a constant name, got 'true'", 5, 3)
    # a value outside its constraint, which may name the other constants,
    # or that its constraint divides by
    assert _error_at(M2.replace("  anmin = 3", "  anmin = 0")) == (
        "value 0 of anmin violates its constraint anmin > 0", 7, 11)
    assert _error_at(M2.replace("  anmin = 3", "  anmin = 9/2")) == (
        "value 4 of asmin violates its constraint asmin > anmin", 8, 11)
    assert _error_at(M2.replace("  T = 1 : T > 0",
                                "  T = 0 : 1 / T > 0 & T > 0")) == (
        "value 0 of T violates its constraint 1 / T > 0", 5, 7)


def test_domains_errors_point_into_their_line():
    assert _error_at(M2.replace("  v = [0, 5]", "  v = [0, 5 +]")) == (
        "expected term, got ''", 12, 14)
    assert _error_at(M2.replace("  v = [0, 5]", "  v = [5, 0]")) == (
        "empty domain interval", 12, 3)


def test_unknown_domain_variable_points_at_its_line():
    text = M2.replace("  x = [-1, 5]", "  q = [0, 1]\n  x = [-1, 5]")
    assert _error_at(text) == ("unknown variable 'q' in DOMAINS", 11, 3)


def test_section_errors_count_blank_and_comment_lines():
    text = M2.replace("GUARANTEE\n  x <= xc",
                      "GUARANTEE\n  # the goal\n\n  x <= xc +")
    assert _error_at(text) == ("expected term, got ''", 23, 12)


def test_text_after_a_section_keyword_is_an_error():
    # each was once dropped without a word, or read as the next line's
    assert _error_at(M2.replace("CONSTANTS\n", "CONSTANTS T = 9\n")) == (
        "unexpected 'T = 9' after CONSTANTS", 4, 11)
    assert _error_at(M2.replace("INIT\n", "INIT v = 1\n")) == (
        "unexpected 'v = 1' after INIT", 17, 6)
    assert _error_at(M2.replace("RELATION\n", "RELATION xc >= 100\n")) == (
        "unexpected 'xc >= 100' after RELATION", 41, 10)
    assert _error_at(M2.replace("GUARANTEE\n  x <= xc", "GUARANTEE x <= xc")) \
        == ("unexpected 'x <= xc' after GUARANTEE", 20, 11)
    # a comment after a keyword is no text
    parse_model(M2.replace("RELATION\n", "RELATION  # how xc may move\n"))


def test_section_errors_span_their_line():
    def place(text):
        with pytest.raises(ParseError) as info:
            split_sections(text)
        span = info.value.span
        return (info.value.message, span.line, span.column,
                text[span.start:span.end])
    assert place(M2.replace("INVARIANT zeta2", "INVARIANT")) == (
        "INVARIANT requires a name", 38, 1, "INVARIANT")
    assert place(M2.replace("INVARIANT zeta2", "INVARIANT zeta1")) == (
        "duplicate section INVARIANT zeta1", 38, 1, "INVARIANT zeta1")
    assert place(M2.replace("DOMAINS", "INIT")) == (
        "duplicate section INIT", 17, 1, "INIT")
    assert place("\n   stray text  # note\n" + M2) == (
        "content before first section keyword", 2, 4, "stray text  # note")
    with pytest.raises(ParseError) as info:
        split_sections(M2.replace("INVARIANT zeta2", "INVARIANT"))
    assert (info.value.span.start, info.value.span.end) == (650, 659)


@pytest.mark.parametrize("text", [
    "0", "-0", "007", " -12 ", "5/4", "-5/4", "5/0", "1.5", "- 1", "+1",
    "1_000", "٣", "2^2", " 12 / 008 ", "0/0", "-5/-4", "5/ 4", "\t3\x0c"])
def test_literal_reads_as_its_parse(text):
    _assert_literal_reads_as_its_parse(text)


def test_random_literals_read_as_their_parse():
    rng = random.Random(3)
    pieces = ["", "", " ", "-", "- ", "+", "/", " / ", "/-", ".", "^2 ", "0",
              "00", "7", "٣", "_", "x"]
    for _ in range(2000):
        text = "".join(rng.choice(pieces) if rng.random() < 0.4
                       else str(rng.randint(0, 10 ** rng.randint(0, 12)))
                       for _ in range(rng.randint(1, 5)))
        _assert_literal_reads_as_its_parse(text)


def _assert_literal_reads_as_its_parse(text):
    # a DOMAINS bound or CONSTANTS value read by _literal, which skips the
    # parse of a plain integer or ratio, and by the full parse of its term
    line = "  lo = " + text + "  "
    outcomes = []
    for read in (_literal, _parsed_literal):
        try:
            value = read(line, 9, 6, len(line))
            outcomes.append((type(value), value))
        except ParseError as exc:
            outcomes.append((exc.message, exc.span))
    assert outcomes[0] == outcomes[1], text


def test_divisor_errors_point_at_the_divisor():
    # ENV, line 24: `xc := *; ?xc - x >= v^2 / (2 * anmin)`
    assert _error_at(M2.replace("v^2 / (2 * anmin)", "v^2 / (2 * v)")) == (
        "division by non-constant 'v'", 24, 29)
    assert _error_at(M2.replace("anmin = 3 : anmin > 0", "anmin = 3")) == (
        "unconstrained divisor 'anmin'", 24, 29)


def test_division_by_a_zero_literal_is_a_parse_error():
    # a zero divisor under a non-literal numerator raised ValueError
    for text in ("x / 0", "x / -0", "1 / 0", "(x + 1) / 0.0"):
        with pytest.raises(ParseError):
            parse_term(text)


def test_a_term_before_a_parenthesized_formula_is_rejected():
    # `x (y <= 1)` once parsed as `y <= 1`, dropping the term
    for text in ("x (y <= 1)", "-x^2 (true)", "2 * v (x = 1) & z = 2"):
        with pytest.raises(ParseError):
            parse_formula(text)
    with pytest.raises(ParseError):
        parse_program("?x (y = 1)")


def test_an_unclosed_parenthesis_of_terms_is_missing_its_paren():
    # a `(` with only term tokens up to the end opens a term
    for text, column in (("(x + 1", 7), ("(x", 3), ("((x) + 1 <= 2", 14)):
        with pytest.raises(ParseError) as info:
            parse_formula(text)
        assert (info.value.message, info.value.span.column) == (
            "expected ')', got ''", column)


def test_parser_collects_the_free_variables():
    # parse_model's DOMAINS check reads the names the parser collects in
    # place of syntax.free_variables
    rng = random.Random(11)
    for _ in range(300):
        for parse, text in (
                (_Parser.formula, print_formula(random_formula(rng, 5))),
                (_Parser.program, print_program(random_program(rng, 4)))):
            p = _Parser(text)
            node = parse(p)
            assert p.names == free_variables(node), text
