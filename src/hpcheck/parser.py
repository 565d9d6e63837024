"""Parser for the model DSL, standalone formulas and hybrid programs.

Surface syntax is plain ASCII: `&`, `|`, `!`, `->`, `<->`, `forall`,
`exists`, `[...]`, `<...>`, `:=`, `?`, `{x' = v, v' = a & Q}`, `++` for
choice and a `*` loop postfix on braced or parenthesized groups.  The
spelling, precedence and associativity of each binary operator are in
`syntax.TERM_OPS`, `FORMULA_OPS` and `PROGRAM_OPS`; `!` binds tighter than
any of them, and quantifiers and modalities extend to the right as far as
possible.  `#` starts a line comment.

Text is tokenized in one regular-expression pass and parsed in one pass
without backtracking.  Binary operators are parsed by precedence climbing
over those tables (Pratt, "Top Down Operator Precedence", 1973).  A
`(` where a formula may start opens a term when the tokens up to its
matching `)` can all occur in a term, and a formula otherwise.
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

# Each match is (the blanks and comments before a token, the token): a
# number, a name, an operator, a newline, any other character (an error) or
# the empty string at the end of the text.
_TOKEN_RE = re.compile(r"""
    ((?:[^\S\n]|\#[^\n]*)*)
    (\d+(?:\.\d+)?
    | [A-Za-z_][A-Za-z0-9_]*
    | <-> | -> | := | <= | >= | != | \+\+ | [()\[\]{}<>=!&|;,?*+\-/^':]
    | \n | . | \Z)
""", re.VERBOSE)

# A token's kind by its first character; any other token is a number when
# it starts with a non-ASCII decimal digit, else an unexpected character.
_KINDS = {**dict.fromkeys(string.digits, "num"),
          **dict.fromkeys(string.ascii_letters + "_", "ident"),
          **dict.fromkeys("()[]{}<>=!&|;,?*+-/^':", "op")}


class Token:
    """A token: kind 'num', 'ident', 'op' (keywords included) or 'eof', its
    text, and where it starts (offset, line and column)."""
    __slots__ = ("kind", "text", "start", "line", "column")

    def __init__(self, kind, text, start, line, column):
        self.kind = kind
        self.text = text
        self.start = start
        self.line = line
        self.column = column

    @property
    def span(self) -> SourceSpan:
        return SourceSpan(self.start, self.start + len(self.text), self.line,
                          self.column)


def tokenize(text: str, line_offset: int = 0, column_offset: int = 0) -> list:
    """The tokens of `text`, ending with an 'eof' token.  The text starts at
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
        kind = _KINDS.get(value[0]) or ("num" if value[0].isdecimal() else None)
        if kind is None:
            raise ParseError(f"unexpected character {value!r}",
                             SourceSpan(start, start + 1, line,
                                        start - line_start + 1))
        if kind == "ident" and value in KEYWORDS:
            kind = "op"
        tokens.append(Token(kind, value, start, line, start - line_start + 1))
        start += len(value)
    tokens.append(Token("eof", "", len(text), line, len(text) - line_start + 1))
    return tokens


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
    """Recursive descent with precedence climbing over a token list; the
    current token is `tok`.  For the checks of a model, `names` collects
    the free variables of what is parsed (`syntax.free_variables`), and
    `divisors` the divisor of each `Div` that has a variable, with its
    first token."""

    def __init__(self, tokens, names=None, divisors=None):
        self.tokens = tokens
        self.pos = 0
        self.tok = tokens[0]
        self.names = set() if names is None else names
        self.divisors = [] if divisors is None else divisors

    def advance(self) -> Token:
        # never called on the eof token: callers match the token first
        tok = self.tok
        self.pos += 1
        self.tok = self.tokens[self.pos]
        return tok

    def accept(self, text: str):
        if self.tok.text == text:
            return self.advance()
        return None

    def expect(self, text: str) -> Token:
        if self.tok.text != text:
            self.fail(f"expected {text!r}, got {self.tok.text!r}")
        return self.advance()

    def fail(self, message: str, tok=None):
        raise ParseError(message, (tok or self.tok).span)

    def binary(self, operand, ops, floor=1):
        """Operands joined by the operators of `ops` of precedence `floor`
        or more."""
        left = operand(self)
        while True:
            op = ops.get(self.tok.text)
            if op is None or op[0] < floor:
                return left
            self.advance()
            first = self.tok
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
        if tok.kind == "ident":
            self.advance()
            self.names.add(tok.text)
            base = Var(tok.text)
        elif tok.kind == "num":
            self.advance()
            base = Num(_number(tok.text))
        elif tok.text == "-":
            self.advance()
            if self.tok.kind != "num":
                return Neg(self.term_unary())
            base = Num(-_number(self.advance().text))
        elif tok.text == "(":
            self.advance()
            base = self.term()
            self.expect(")")
        else:
            self.fail(f"expected term, got {tok.text!r}")
        if self.tok.text != "^":
            return base
        self.advance()
        exp = self.tok
        if exp.kind != "num" or "." in exp.text:
            self.fail("exponent must be a natural number literal")
        self.advance()
        return Pow(base, int(exp.text))

    def divide(self, num: Term, den: Term, first: Token) -> Term:
        if not isinstance(den, Num):
            self.divisors.append((den, first))
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
        if tok.text not in _FORMULA_PREFIXES:
            return self.formula_atom()
        self.advance()
        if tok.text == "!":
            return Not(self.formula_unary())
        if tok.text == "[":
            prog = self.program()
            self.expect("]")
            return Box(prog, self.formula())
        if tok.text == "<":
            prog = self.program()
            self.expect(">")
            return Diamond(prog, self.formula())
        var = self.tok
        if var.kind != "ident":
            self.fail("expected quantified variable name")
        self.advance()
        outer, self.names = self.names, set()
        body = self.formula()
        outer |= self.names - {var.text}  # the quantifier binds its variable
        self.names = outer
        return (Forall if tok.text == "forall" else Exists)(var.text, body)

    def formula_atom(self) -> Formula:
        text = self.tok.text
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
        op = self.tok.text
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
            if tok.text == "(":
                depth += 1
            elif tok.text == ")":
                depth -= 1
                if depth == 0:
                    return True
            elif tok.kind == "op" and tok.text not in _TERM_OPS \
                    and tok.text != "^":
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
        if tok.kind == "ident":
            self.advance()
            self.names.add(tok.text)
            self.expect(":=")
            if self.accept("*"):
                return RandomAssign(tok.text)
            return Assign(tok.text, self.term())
        if tok.text == "?":
            self.advance()
            return Test(self.formula())
        if tok.text == "if":
            self.advance()
            self.expect("(")
            cond = self.formula()
            self.expect(")")
            self.expect("then")
            body = self.program()
            self.expect("fi")
            return desugar_if(cond, body)
        if tok.text == "(":
            self.advance()
            inner = self.program()
            self.expect(")")
            return inner
        if tok.text == "{":
            # ODE if the brace is followed by `ident '`, else a program group
            after = self.tokens[self.pos + 1]
            if after.kind == "ident" and self.tokens[self.pos + 2].text == "'":
                return self.ode()
            self.advance()
            inner = self.program()
            self.expect("}")
            return inner
        self.fail(f"expected program, got {tok.text!r}")

    def ode(self) -> Program:
        self.expect("{")
        equations = []
        while True:
            name = self.tok
            if name.kind != "ident":
                self.fail("expected ODE variable")
            self.advance()
            self.names.add(name.text)
            self.expect("'")
            self.expect("=")
            equations.append((name.text, self.term()))
            if not self.accept(","):
                break
        domain = TRUE
        if self.accept("&"):
            domain = self.formula()
        close = self.expect("}")
        try:
            return ODE(tuple(equations), domain)
        except ValueError as exc:
            raise ParseError(str(exc), close.span) from None

    def done(self):
        if self.tok.kind != "eof":
            self.fail(f"unexpected trailing input {self.tok.text!r}")


def _parse(parse, text: str, line_offset=0, column_offset=0, names=None,
           divisors=None):
    """`parse` (an unbound _Parser method) over all of `text`."""
    p = _Parser(tokenize(text, line_offset, column_offset), names, divisors)
    try:
        out = parse(p)
    except RecursionError:  # the descent is as deep as the nesting
        raise ParseError("nesting too deep", p.tok.span) from None
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
    argument, body as (line number, text) pairs, line number]."""
    sections = []
    current = None
    offset = 0
    for lineno, line in enumerate(text.split("\n"), start=1):
        stripped = line.split("#", 1)[0].rstrip()
        m = _SECTION_RE.match(stripped)
        if m is not None:
            current = [m.group(1), m.group(2).strip(), [], lineno]
            sections.append(current)
        elif stripped.strip():
            if current is None:
                span = SourceSpan(offset, offset + len(line), lineno, 1)
                raise ParseError("content before first section keyword", span)
            current[2].append((lineno, stripped))
        offset += len(line) + 1
    seen = {}
    for keyword, arg, _, lineno in sections:
        if keyword == "INVARIANT":
            if not arg:
                raise ParseError("INVARIANT requires a name",
                                 SourceSpan(0, 0, lineno, 1))
            key = ("INVARIANT", arg)
        else:
            key = (keyword, None)
        if key in seen:
            raise ParseError(f"duplicate section {keyword} {arg}".strip(),
                             SourceSpan(0, 0, lineno, 1))
        seen[key] = True
    for keyword in MANDATORY_SECTIONS:
        if (keyword, None) not in seen:
            raise ParseError(f"missing section {keyword}", SourceSpan(0, 0, 1, 1))
    return sections


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
    divisors = []  # (divisor, its first token) of each Div with a variable
    for section in split_sections(text):
        keyword = section[0]
        if keyword == "CONSTANTS":
            for lineno, line in section[2]:
                decl, _, constraint_text = line.partition(":")
                if "=" not in decl:
                    raise ParseError("expected `name = value` in CONSTANTS",
                                     _field_span(line, lineno, 0))
                cname, _, value_text = decl.partition("=")
                ident = cname.strip()
                if not (ident.isidentifier() and ident.isascii()) \
                        or ident in KEYWORDS:
                    raise ParseError(f"expected a constant name, got {ident!r}",
                                     _field_span(line, lineno, 0, len(cname)))
                value = _parse(_Parser.term, value_text, lineno - 1,
                               len(cname) + 1)
                if not isinstance(value, Num):
                    value = Num(_const_value(value, line, lineno, len(cname) + 1,
                                             len(decl)))
                constraint = (_parse(_Parser.formula, constraint_text, lineno - 1,
                                     len(decl) + 1, names, divisors)
                              if constraint_text.strip() else TRUE)
                constants.append(Constant(ident, value.value, constraint))
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


def _const_value(term, line: str, lineno: int, start: int, end: int) -> Fraction:
    """The value of `term`, parsed from line[start:end]."""
    try:
        return Fraction(eval_term({}, term))
    except Exception:
        raise ParseError("constant value must be a rational literal",
                         _field_span(line, lineno, start, end)) from None


def _literal(line: str, lineno: int, start: int, end: int) -> Fraction:
    term = _parse(_Parser.term, line[start:end], lineno - 1, start)
    return _const_value(term, line, lineno, start, end)


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
    for den, first in divisors:
        for v in sorted(free_variables(den)):
            if v not in rationals:
                raise ParseError(f"division by non-constant {v!r}", first.span)
            if v not in constrained:
                raise ParseError(f"unconstrained divisor {v!r}", first.span)


def _has_sign_constraint(constant) -> bool:
    for c in conjuncts(constant.constraint):
        if isinstance(c, Cmp) and c.op in (">", "<"):
            sides = (c.left, c.right)
            if any(isinstance(s, Var) and s.name == constant.name for s in sides) \
                    and any(isinstance(s, Num) and s.value == 0 for s in sides):
                return True
    return False
