"""Parser for the model DSL, standalone formulas and hybrid programs.

Surface syntax is plain ASCII: `&`, `|`, `!`, `->`, `<->`, `forall`,
`exists`, `[...]`, `<...>`, `:=`, `?`, `{x' = v, v' = a & Q}`, `++` for
choice and a `*` loop postfix on braced or parenthesized groups.  The
spelling, precedence and associativity of each binary operator are in
`syntax.TERM_OPS`, `FORMULA_OPS` and `PROGRAM_OPS`; `!` binds tighter than
any of them, and quantifiers and modalities extend to the right as far as
possible.  `#` starts a line comment.

Text is split into its token strings in one regular-expression pass and
parsed in one pass without backtracking; a token's kind is read from its
text.  Binary operators are parsed by precedence climbing over those
tables (Pratt, "Top Down Operator Precedence", 1973).  A `(` where a
formula may start opens a term when the tokens up to its matching `)` can
all occur in a term, and a formula otherwise.  The parser keeps no
positions: when it raises a ParseError, `tokenize` runs again over the
same text and gives the line and column of the token at fault.
"""

from __future__ import annotations

import re
import string
from dataclasses import dataclass
from fractions import Fraction

from .model import (
    DEFAULT_DOMAIN, Constant, Model, broken_constraint, detect_shape,
)
from .printer import print_formula
from .semantics import eval_term
from .syntax import (
    CMP_OPS, FORMULA_OPS, PROGRAM_OPS, TERM_OPS, Assign, Box, Cmp, Diamond,
    Div, Exists, Forall, Formula, Loop, Neg, Not, Num, ODE, Pow, Program,
    RandomAssign, Term, Test, Var, TRUE, FALSE, desugar_if, free_variables,
    conjuncts,
)


@dataclass(frozen=True)
class SourceSpan:
    start: int
    end: int
    line: int
    column: int

    def __post_init__(self):
        if self.start > self.end:
            raise ValueError("span start after end")


class ParseError(Exception):
    def __init__(self, message: str, span: SourceSpan):
        super().__init__(f"{message} at line {span.line}, column {span.column}")
        self.message = message
        self.span = span


KEYWORDS = {"true", "false", "forall", "exists", "if", "then", "fi"}

_OPERATOR_CHARS = "()[]{}<>=!&|;,?*+-/^':"
_OPERATOR_STARTS = frozenset(_OPERATOR_CHARS)

# A token: a number, a name (keywords included) or an operator.
_TOKEN = r"""\d+(?:\.\d+)?
    | [A-Za-z_][A-Za-z0-9_]*
    | <-> | -> | := | <= | >= | != | \+\+ | [""" + re.escape(_OPERATOR_CHARS) + "]"

# Each match is (the blanks and comments before a token, the token): a
# token, a newline, any other character (an error) or the empty string at
# the end of the text.
_TOKEN_RE = re.compile(r"((?:[^\S\n]|\#[^\n]*)*)(" + _TOKEN + r"| \n | . | \Z)",
                       re.VERBOSE)

# Each match is a token after the blanks, newlines and comments before it,
# the empty string at the end of the text, or all the text from an
# unexpected character on.
_TEXT_RE = re.compile(r"(?:\s|\#[^\n]*)*(" + _TOKEN + r"| \Z | .[\s\S]*)",
                      re.VERBOSE)

# The first characters of tokens; a token may also start with a non-ASCII
# decimal digit, and any other character is unexpected.
_TOKEN_STARTS = frozenset(string.ascii_letters + string.digits + "_") \
    | _OPERATOR_STARTS


class Token:
    """A token: its text, empty at the end of the text, and where it starts
    (offset, line and column)."""
    __slots__ = ("text", "start", "line", "column")

    def __init__(self, text, start, line, column):
        self.text = text
        self.start = start
        self.line = line
        self.column = column

    @property
    def span(self) -> SourceSpan:
        return SourceSpan(self.start, self.start + len(self.text), self.line,
                          self.column)


def tokenize(text: str, line_offset: int = 0, column_offset: int = 0) -> list:
    """The tokens of `text`, ending with an empty one.  The text starts at
    line 1 + `line_offset`, with its first line shifted by `column_offset`
    columns."""
    tokens = []
    line = 1 + line_offset
    line_start = -column_offset
    start = 0
    for blanks, value in _TOKEN_RE.findall(text):
        start += len(blanks)
        if value == "\n":
            line += 1
            start += 1
            line_start = start
            continue
        if not value:  # the end of the text
            break
        if value[0] not in _TOKEN_STARTS and not value[0].isdecimal():
            raise ParseError(f"unexpected character {value!r}",
                             SourceSpan(start, start + 1, line,
                                        start - line_start + 1))
        tokens.append(Token(value, start, line, start - line_start + 1))
        start += len(value)
    tokens.append(Token("", len(text), line, len(text) - line_start + 1))
    return tokens


def _token_texts(text: str, line_offset: int, column_offset: int) -> list:
    """The texts of `tokenize(text, line_offset, column_offset)`, which
    raises the same error on an unexpected character."""
    texts = _TEXT_RE.findall(text)
    if len(texts) > 1:
        first = texts[-2][:1]  # of the last token or of the unexpected rest
        if not first:  # the end matched after trailing blanks and at itself
            texts.pop()
        elif first not in _TOKEN_STARTS and not first.isdecimal():
            tokenize(text, line_offset, column_offset)
    return texts


def _is_name(token: str) -> bool:
    return token.isidentifier() and token not in KEYWORDS


def _number(text: str) -> Fraction:
    # int() is much cheaper than Fraction's parser of decimal strings
    return Fraction(text) if "." in text else Fraction(int(text))


def _by_spelling(ops):
    """A `syntax` operator table keyed by token text: (precedence, least
    precedence of the right operand, constructor)."""
    return {spelling: (own, right, kind)
            for kind, (spelling, own, right) in ops.items()}


_FORMULA_OPS = _by_spelling(FORMULA_OPS)
_TERM_OPS = _by_spelling(TERM_OPS)
_PROGRAM_OPS = _by_spelling(PROGRAM_OPS)
_FORMULA_PREFIXES = frozenset(("!", "forall", "exists", "[", "<"))


class _Parser:
    """Recursive descent with precedence climbing over the token texts of
    `text`, which starts at line 1 + `line_offset` with its first line
    shifted by `column_offset` columns; the current token is `tok`, at
    index `pos`, and the empty string ends the text.  A token that is an
    identifier but no keyword is a name, one that starts with a decimal
    digit a number, and any other an operator.  For the checks of a model,
    `names` collects the free variables of what is parsed
    (`syntax.free_variables`), and `divisors` each `Div` that has a
    variable as (its divisor, this parser, the index of its first
    token)."""

    def __init__(self, text, line_offset=0, column_offset=0, names=None,
                 divisors=None):
        self.text = text
        self.offsets = line_offset, column_offset
        self.tokens = _token_texts(text, line_offset, column_offset)
        self.pos = 0
        self.tok = self.tokens[0]
        self.names = set() if names is None else names
        self.divisors = [] if divisors is None else divisors

    def advance(self) -> str:
        # never called on the end of the text: callers match the token first
        tok = self.tok
        self.pos += 1
        self.tok = self.tokens[self.pos]
        return tok

    def accept(self, text: str):
        if self.tok == text:
            return self.advance()
        return None

    def expect(self, text: str) -> str:
        if self.tok != text:
            self.fail(f"expected {text!r}, got {self.tok!r}")
        return self.advance()

    def span(self, index: int) -> SourceSpan:
        """Where token `index` is, worked out again from the text."""
        return tokenize(self.text, *self.offsets)[index].span

    def fail(self, message: str, index=None):
        raise ParseError(message, self.span(self.pos if index is None else index))

    def binary(self, operand, ops, floor=1):
        """Operands joined by the operators of `ops` of precedence `floor`
        or more."""
        left = operand(self)
        while True:
            op = ops.get(self.tok)
            if op is None or op[0] < floor:
                return left
            self.advance()
            first = self.pos
            right = self.binary(operand, ops, op[1])
            if op[2] is Div:
                left = self.divide(left, right, first)
            else:
                left = op[2](left, right)

    # -- terms --------------------------------------------------------------

    def term(self) -> Term:
        return self.binary(_Parser.term_unary, _TERM_OPS)

    def term_unary(self) -> Term:
        tok = self.tok
        if _is_name(tok):
            self.advance()
            self.names.add(tok)
            base = Var(tok)
        elif tok[:1].isdecimal():
            self.advance()
            base = Num(_number(tok))
        elif tok == "-":
            self.advance()
            if not self.tok[:1].isdecimal():
                return Neg(self.term_unary())
            base = Num(-_number(self.advance()))
        elif tok == "(":
            self.advance()
            base = self.term()
            self.expect(")")
        else:
            self.fail(f"expected term, got {tok!r}")
        if self.tok != "^":
            return base
        self.advance()
        exp = self.tok
        if not exp[:1].isdecimal() or "." in exp:
            self.fail("exponent must be a natural number literal")
        self.advance()
        return Pow(base, int(exp))

    def divide(self, num: Term, den: Term, first: int) -> Term:
        if not isinstance(den, Num):
            self.divisors.append((den, self, first))
        elif den.value == 0:
            self.fail("division by zero constant", first)
        elif isinstance(num, Num):
            return Num(num.value / den.value)
        return Div(num, den)

    # -- formulas -----------------------------------------------------------

    def formula(self) -> Formula:
        return self.binary(_Parser.formula_unary, _FORMULA_OPS)

    def formula_unary(self) -> Formula:
        tok = self.tok
        if tok not in _FORMULA_PREFIXES:
            return self.formula_atom()
        self.advance()
        if tok == "!":
            return Not(self.formula_unary())
        if tok == "[":
            prog = self.program()
            self.expect("]")
            return Box(prog, self.formula())
        if tok == "<":
            prog = self.program()
            self.expect(">")
            return Diamond(prog, self.formula())
        var = self.tok
        if not _is_name(var):
            self.fail("expected quantified variable name")
        self.advance()
        outer, self.names = self.names, set()
        body = self.formula()
        outer |= self.names - {var}  # the quantifier binds its variable
        self.names = outer
        return (Forall if tok == "forall" else Exists)(var, body)

    def formula_atom(self) -> Formula:
        text = self.tok
        if text == "true":
            self.advance()
            return TRUE
        if text == "false":
            self.advance()
            return FALSE
        if text == "(" and not self.opens_term():
            self.advance()
            inner = self.formula()
            self.expect(")")
            return inner
        left = self.term()
        op = self.tok
        if op not in CMP_OPS:
            self.fail(f"expected comparison operator, got {op!r}")
        self.advance()
        return Cmp(op, left, self.term())

    def opens_term(self) -> bool:
        """Whether the `(` at the current token opens a term: up to its
        matching `)` it holds only numbers, names and term operators."""
        depth = 0
        for i in range(self.pos, len(self.tokens)):
            tok = self.tokens[i]
            if tok == "(":
                depth += 1
            elif tok == ")":
                depth -= 1
                if depth == 0:
                    return True
            elif tok in KEYWORDS or tok[:1] in _OPERATOR_STARTS \
                    and tok not in _TERM_OPS and tok != "^":
                return False
        return True  # unbalanced: the term reports the missing `)`

    # -- programs -----------------------------------------------------------

    def program(self) -> Program:
        return self.binary(_Parser.program_postfix, _PROGRAM_OPS)

    def program_postfix(self) -> Program:
        prog = self.program_primary()
        while self.accept("*"):
            prog = Loop(prog)
        return prog

    def program_primary(self) -> Program:
        tok = self.tok
        if _is_name(tok):
            self.advance()
            self.names.add(tok)
            self.expect(":=")
            if self.accept("*"):
                return RandomAssign(tok)
            return Assign(tok, self.term())
        if tok == "?":
            self.advance()
            return Test(self.formula())
        if tok == "if":
            self.advance()
            self.expect("(")
            cond = self.formula()
            self.expect(")")
            self.expect("then")
            body = self.program()
            self.expect("fi")
            return desugar_if(cond, body)
        if tok == "(":
            self.advance()
            inner = self.program()
            self.expect(")")
            return inner
        if tok == "{":
            # ODE if the brace is followed by `name '`, else a program group
            after = self.tokens[self.pos + 1]
            if _is_name(after) and self.tokens[self.pos + 2] == "'":
                return self.ode()
            self.advance()
            inner = self.program()
            self.expect("}")
            return inner
        self.fail(f"expected program, got {tok!r}")

    def ode(self) -> Program:
        self.expect("{")
        equations = []
        while True:
            name = self.tok
            if not _is_name(name):
                self.fail("expected ODE variable")
            self.advance()
            self.names.add(name)
            self.expect("'")
            self.expect("=")
            equations.append((name, self.term()))
            if not self.accept(","):
                break
        domain = TRUE
        if self.accept("&"):
            domain = self.formula()
        close = self.pos
        self.expect("}")
        try:
            return ODE(tuple(equations), domain)
        except ValueError as exc:
            message = str(exc)
        self.fail(message, close)

    def done(self):
        if self.tok:
            self.fail(f"unexpected trailing input {self.tok!r}")


def _parse(parse, text: str, line_offset=0, column_offset=0, names=None,
           divisors=None):
    """`parse` (an unbound _Parser method) over all of `text`."""
    p = _Parser(text, line_offset, column_offset, names, divisors)
    try:
        out = parse(p)
    except RecursionError:  # the descent is as deep as the nesting
        raise ParseError("nesting too deep", p.span(p.pos)) from None
    p.done()
    return out


def parse_formula(text: str) -> Formula:
    return _parse(_Parser.formula, text)


def parse_program(text: str) -> Program:
    return _parse(_Parser.program, text)


def parse_term(text: str) -> Term:
    return _parse(_Parser.term, text)


# ---------------------------------------------------------------------------
# Model files

MANDATORY_SECTIONS = ("CONSTANTS", "DOMAINS", "INIT", "GUARANTEE",
                      "ENV", "AUX", "CTRL", "PLANT")
OPTIONAL_SECTIONS = ("INVARIANT", "RELATION")


_SECTION_RE = re.compile(r"^(" + "|".join(MANDATORY_SECTIONS + OPTIONAL_SECTIONS)
                         + r")\b(.*)$")


def split_sections(text: str) -> list:
    """A sectioned `.hpmodel` document as its raw sections, each [keyword,
    argument, body as (line number, text) pairs, line number].  A keyword
    line holds only its keyword, or INVARIANT and the invariant's name."""
    sections = []
    current = None
    lines = text.split("\n")
    for lineno, line in enumerate(lines, start=1):
        stripped = line.split("#", 1)[0].rstrip()
        m = _SECTION_RE.match(stripped)
        if m is not None:
            keyword, arg = m.group(1), m.group(2).strip()
            if arg and keyword != "INVARIANT":
                raise ParseError(f"unexpected {arg!r} after {keyword}",
                                 _line_span(lines, lineno, m.end(1)))
            current = [keyword, arg, [], lineno]
            sections.append(current)
        elif stripped.strip():
            if current is None:
                raise ParseError("content before first section keyword",
                                 _line_span(lines, lineno))
            current[2].append((lineno, stripped))
    seen = set()
    for keyword, arg, _, lineno in sections:
        if keyword == "INVARIANT" and not arg:
            raise ParseError("INVARIANT requires a name",
                             _line_span(lines, lineno))
        if (keyword, arg) in seen:
            raise ParseError(f"duplicate section {keyword} {arg}".strip(),
                             _line_span(lines, lineno))
        seen.add((keyword, arg))
    for keyword in MANDATORY_SECTIONS:
        if (keyword, "") not in seen:
            raise ParseError(f"missing section {keyword}", SourceSpan(0, 0, 1, 1))
    return sections


def _line_span(lines: list, lineno: int, start: int = 0) -> SourceSpan:
    """The span, as offsets in the document of `lines`, from the first
    non-blank character of line `lineno` at or after index `start` to the
    end of the line."""
    line = lines[lineno - 1]
    first = len(line) - len(line[start:].lstrip())
    offset = sum(map(len, lines[:lineno - 1])) + lineno - 1
    return SourceSpan(offset + first, offset + len(line), lineno, first + 1)


def _section_text(section) -> str:
    """The section's body, with blank lines where the document has blank or
    comment lines, so that line 1 of it is the line after the keyword."""
    lines = []
    for lineno, line in section[2]:
        lines.extend([""] * (lineno - section[3] - 1 - len(lines)))
        lines.append(line)
    return "\n".join(lines)


_DOMAIN_RE = re.compile(r"^\s*([A-Za-z_]\w*)\s*=\s*\[([^,\]]+),([^\]]+)\]\s*$")


def parse_model(text: str, name: str = "model"):
    """Parse a `.hpmodel` document into a Model.

    Raises ParseError with a SourceSpan on syntax errors, unknown DOMAINS
    variables, duplicate sections, and division by a zero literal, by a
    state variable or by a symbolic constant that has no sign constraint.
    """
    constants = []
    value_places = {}  # name -> the text of its value, for an error
    domains = {}
    domain_spans = {}
    invariants = {}
    parts = {}
    warnings = []
    names = set()  # the free variables of every formula and program
    divisors = []  # (divisor, parser, index of its first token) of each Div
    # with a variable
    for section in split_sections(text):
        keyword = section[0]
        if keyword == "CONSTANTS":
            for lineno, line in section[2]:
                decl, _, constraint_text = line.partition(":")
                if "=" not in decl:
                    raise ParseError("expected `name = value` in CONSTANTS",
                                     _field_span(line, lineno, 0))
                cname = decl.partition("=")[0]
                ident = cname.strip()
                if not (ident.isidentifier() and ident.isascii()) \
                        or ident in KEYWORDS:
                    raise ParseError(f"expected a constant name, got {ident!r}",
                                     _field_span(line, lineno, 0, len(cname)))
                value = _literal(line, lineno, len(cname) + 1, len(decl))
                constraint = (_parse(_Parser.formula, constraint_text, lineno - 1,
                                     len(decl) + 1, names, divisors)
                              if constraint_text.strip() else TRUE)
                constants.append(Constant(ident, value, constraint))
                value_places[ident] = line, lineno, len(cname) + 1, len(decl)
            broken = broken_constraint(
                constants, {c.name: c.value for c in constants})
            if broken is not None:
                constant, conjunct = broken
                raise ParseError(
                    f"value {constant.value} of {constant.name} violates "
                    f"its constraint {print_formula(conjunct)}",
                    _field_span(*value_places[constant.name]))
        elif keyword == "DOMAINS":
            for lineno, line in section[2]:
                m = _DOMAIN_RE.match(line)
                if m is None:
                    raise ParseError("expected `var = [lo, hi]` in DOMAINS",
                                     _field_span(line, lineno, 0))
                lo = _literal(line, lineno, m.start(2), m.end(2))
                hi = _literal(line, lineno, m.start(3), m.end(3))
                span = _field_span(line, lineno, 0)
                if lo > hi:
                    raise ParseError("empty domain interval", span)
                domains[m.group(1)] = (lo, hi)
                domain_spans[m.group(1)] = span
        else:
            parse = (_Parser.program if keyword in ("ENV", "AUX", "CTRL", "PLANT")
                     else _Parser.formula)
            node = _parse(parse, _section_text(section), section[3], 0, names,
                          divisors)
            if keyword == "INVARIANT":
                invariants[section[1]] = node
            else:
                parts[keyword] = node

    model = Model(
        name=name,
        constants=constants,
        domains=domains,
        init=parts["INIT"],
        guarantee=parts["GUARANTEE"],
        env=parts["ENV"],
        aux=parts["AUX"],
        ctrl=parts["CTRL"],
        plant=parts["PLANT"],
        invariants=invariants,
        relation=parts.get("RELATION"),
        source=text,
        warnings=warnings,
    )
    detect_shape(model)
    _check_domains(model, names - set(model.constant_values()), domain_spans,
                   warnings)
    _check_divisors(model, divisors)
    return model


def _field_span(line: str, lineno: int, start: int, end=None) -> SourceSpan:
    """The span of line[start:end], less its leading blanks."""
    end = len(line) if end is None else end
    field = line[start:end]
    start += len(field) - len(field.lstrip())
    return SourceSpan(start, end, lineno, start + 1)


# A signed ASCII integer, or one over a nonzero ASCII integer
_RATIO_RE = re.compile(r"\s*(-?[0-9]+)(?:\s*/\s*(0*[1-9][0-9]*))?\s*")


def _literal(line: str, lineno: int, start: int, end: int) -> Fraction:
    """The value of the rational literal line[start:end]: a signed integer
    or a ratio of integers is read without a parse."""
    m = _RATIO_RE.fullmatch(line, start, end)
    if m is None:
        return _parsed_literal(line, lineno, start, end)
    return Fraction(int(m[1]), int(m[2] or 1))


def _parsed_literal(line: str, lineno: int, start: int, end: int) -> Fraction:
    """The value of the term line[start:end]."""
    term = _parse(_Parser.term, line[start:end], lineno - 1, start)
    try:
        return Fraction(eval_term({}, term))
    except Exception:
        raise ParseError("constant value must be a rational literal",
                         _field_span(line, lineno, start, end)) from None


def _check_domains(model, declared, domain_spans, warnings):
    for var, span in domain_spans.items():
        if var not in declared:
            raise ParseError(f"unknown variable {var!r} in DOMAINS", span)
    for var in sorted(declared - set(model.domains)):
        if var == model.time_var:
            continue
        warnings.append(f"no DOMAINS entry for {var!r}; defaulting to [-100, 100]")
        model.domains[var] = DEFAULT_DOMAIN


def _check_divisors(model, divisors):
    constrained = {c.name for c in model.constants if _has_sign_constraint(c)}
    rationals = set(model.constant_values())
    for den, parser, first in divisors:
        for v in sorted(free_variables(den)):
            if v not in rationals:
                parser.fail(f"division by non-constant {v!r}", first)
            if v not in constrained:
                parser.fail(f"unconstrained divisor {v!r}", first)


def _has_sign_constraint(constant) -> bool:
    for c in conjuncts(constant.constraint):
        if isinstance(c, Cmp) and c.op in (">", "<"):
            sides = (c.left, c.right)
            if any(isinstance(s, Var) and s.name == constant.name for s in sides) \
                    and any(isinstance(s, Num) and s.value == 0 for s in sides):
                return True
    return False
