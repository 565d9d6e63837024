"""Parser for the model DSL, standalone formulas and hybrid programs.

Surface syntax is plain ASCII: `&`, `|`, `!`, `->`, `<->`, `forall`,
`exists`, `[...]`, `<...>`, `:=`, `?`, `{x' = v, v' = a & Q}`, `++` for
choice and a `*` loop postfix on braced or parenthesized groups.
Precedence: `!` > `&` > `|` > `->` > `<->`; `->` and `<->` associate to
the right; quantifiers and modalities extend to the right as far as
possible.  `#` starts a line comment.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction

from .model import DEFAULT_DOMAIN, Constant, Model, detect_shape
from .semantics import eval_term
from .syntax import (
    Add, And, Assign, Box, Choice, Cmp, Diamond, Div, Exists,
    Forall, Formula, Iff, Implies, Loop, Mul, Neg, Not, Num, ODE, Or, Pow,
    Program, RandomAssign, Seq, Sub, Term, Test, Var, TRUE, FALSE,
    desugar_if, free_variables, conjuncts,
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

_TOKEN_RE = re.compile(r"""
    (?P<ws>\s+|\#[^\n]*)
  | (?P<num>\d+(?:\.\d+)?)
  | (?P<ident>[A-Za-z_][A-Za-z0-9_]*)
  | (?P<op><->|->|:=|<=|>=|!=|\+\+|[()\[\]{}<>=!&|;,?*+\-/^':])
""", re.VERBOSE)


@dataclass
class Token:
    kind: str  # 'num' | 'ident' | 'op' | 'eof'
    text: str
    span: SourceSpan


def tokenize(text: str, line_offset: int = 0) -> list:
    tokens = []
    pos = 0
    line = 1 + line_offset
    line_start = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            span = SourceSpan(pos, pos + 1, line, pos - line_start + 1)
            raise ParseError(f"unexpected character {text[pos]!r}", span)
        kind = m.lastgroup
        value = m.group()
        if kind == "ws":
            line += value.count("\n")
            if "\n" in value:
                line_start = m.start() + value.rindex("\n") + 1
        else:
            span = SourceSpan(m.start(), m.end(), line, m.start() - line_start + 1)
            if kind == "ident" and value in KEYWORDS:
                tokens.append(Token("op", value, span))
            else:
                tokens.append(Token(kind, value, span))
        pos = m.end()
    end_span = SourceSpan(len(text), len(text), line, len(text) - line_start + 1)
    tokens.append(Token("eof", "", end_span))
    return tokens


class _Parser:
    def __init__(self, tokens):
        self.tokens = tokens
        self.pos = 0

    def peek(self, ahead=0) -> Token:
        i = min(self.pos + ahead, len(self.tokens) - 1)
        return self.tokens[i]

    def next(self) -> Token:
        tok = self.tokens[self.pos]
        if tok.kind != "eof":
            self.pos += 1
        return tok

    def accept(self, text: str):
        if self.peek().kind == "op" and self.peek().text == text:
            return self.next()
        return None

    def expect(self, text: str) -> Token:
        tok = self.accept(text)
        if tok is None:
            raise ParseError(f"expected {text!r}, got {self.peek().text!r}",
                             self.peek().span)
        return tok

    def fail(self, message: str):
        raise ParseError(message, self.peek().span)

    # -- terms --------------------------------------------------------------

    def term(self) -> Term:
        left = self.term_mul()
        while True:
            if self.accept("+"):
                left = Add(left, self.term_mul())
            elif self.accept("-"):
                left = Sub(left, self.term_mul())
            else:
                return left

    def term_mul(self) -> Term:
        left = self.term_unary()
        while True:
            if self.accept("*"):
                left = Mul(left, self.term_unary())
            elif self.accept("/"):
                right = self.term_unary()
                if isinstance(left, Num) and isinstance(right, Num):
                    if right.value == 0:
                        self.fail("division by zero constant")
                    left = Num(left.value / right.value)
                else:
                    left = Div(left, right)
            else:
                return left

    def term_unary(self) -> Term:
        if self.accept("-"):
            if self.peek().kind == "num":
                tok = self.next()
                return self.term_pow_tail(Num(-Fraction(tok.text)))
            return Neg(self.term_unary())
        return self.term_power()

    def term_power(self) -> Term:
        base = self.term_atom()
        return self.term_pow_tail(base)

    def term_pow_tail(self, base: Term) -> Term:
        if self.accept("^"):
            tok = self.peek()
            if tok.kind != "num" or "." in tok.text:
                self.fail("exponent must be a natural number literal")
            self.next()
            return Pow(base, int(tok.text))
        return base

    def term_atom(self) -> Term:
        tok = self.peek()
        if tok.kind == "num":
            self.next()
            return Num(Fraction(tok.text))
        if tok.kind == "ident":
            self.next()
            return Var(tok.text)
        if self.accept("("):
            inner = self.term()
            self.expect(")")
            return inner
        self.fail(f"expected term, got {tok.text!r}")

    # -- formulas -----------------------------------------------------------

    def formula(self) -> Formula:
        left = self.formula_implies()
        if self.accept("<->"):
            return Iff(left, self.formula())
        return left

    def formula_implies(self) -> Formula:
        left = self.formula_or()
        if self.accept("->"):
            return Implies(left, self.formula_implies())
        return left

    def formula_or(self) -> Formula:
        left = self.formula_and()
        while self.accept("|"):
            left = Or(left, self.formula_and())
        return left

    def formula_and(self) -> Formula:
        left = self.formula_unary()
        while self.accept("&"):
            left = And(left, self.formula_unary())
        return left

    def formula_unary(self) -> Formula:
        tok = self.peek()
        if self.accept("!"):
            return Not(self.formula_unary())
        if tok.kind == "op" and tok.text in ("forall", "exists"):
            self.next()
            var = self.peek()
            if var.kind != "ident":
                self.fail("expected quantified variable name")
            self.next()
            body = self.formula()
            return (Forall if tok.text == "forall" else Exists)(var.text, body)
        if tok.kind == "op" and tok.text == "[":
            self.next()
            prog = self.program()
            self.expect("]")
            return Box(prog, self.formula())
        if tok.kind == "op" and tok.text == "<":
            self.next()
            prog = self.program()
            self.expect(">")
            return Diamond(prog, self.formula())
        return self.formula_atom()

    def formula_atom(self) -> Formula:
        tok = self.peek()
        if tok.kind == "op" and tok.text == "true":
            self.next()
            return TRUE
        if tok.kind == "op" and tok.text == "false":
            self.next()
            return FALSE
        # Try a comparison first; fall back to a parenthesized formula.
        save = self.pos
        try:
            left = self.term()
            op_tok = self.peek()
            if op_tok.kind == "op" and op_tok.text in ("<=", "<", ">=", ">", "=", "!="):
                self.next()
                right = self.term()
                return Cmp(op_tok.text, left, right)
            if self.pos != save and tok.text == "(":
                self.fail("expected comparison operator")
        except ParseError:
            self.pos = save
        if self.accept("("):
            inner = self.formula()
            self.expect(")")
            return inner
        self.fail(f"expected formula, got {tok.text!r}")

    # -- programs -----------------------------------------------------------

    def program(self) -> Program:
        left = self.program_seq()
        while self.accept("++"):
            left = Choice(left, self.program_seq())
        return left

    def program_seq(self) -> Program:
        left = self.program_postfix()
        while self.accept(";"):
            left = Seq(left, self.program_postfix())
        return left

    def program_postfix(self) -> Program:
        prog = self.program_primary()
        while self.accept("*"):
            prog = Loop(prog)
        return prog

    def program_primary(self) -> Program:
        tok = self.peek()
        if self.accept("?"):
            return Test(self.formula())
        if tok.kind == "op" and tok.text == "if":
            self.next()
            self.expect("(")
            cond = self.formula()
            self.expect(")")
            self.expect("then")
            body = self.program()
            self.expect("fi")
            return desugar_if(cond, body)
        if self.accept("("):
            inner = self.program()
            self.expect(")")
            return inner
        if tok.kind == "op" and tok.text == "{":
            # ODE if the brace is followed by `ident '`, else a program group
            if self.peek(1).kind == "ident" and self.peek(2).text == "'":
                return self.ode()
            self.next()
            inner = self.program()
            self.expect("}")
            return inner
        if tok.kind == "ident":
            self.next()
            self.expect(":=")
            if self.accept("*"):
                return RandomAssign(tok.text)
            return Assign(tok.text, self.term())
        self.fail(f"expected program, got {tok.text!r}")

    def ode(self) -> Program:
        self.expect("{")
        equations = []
        while True:
            name = self.peek()
            if name.kind != "ident":
                self.fail("expected ODE variable")
            self.next()
            self.expect("'")
            self.expect("=")
            equations.append((name.text, self.term()))
            if not self.accept(","):
                break
        domain = TRUE
        if self.accept("&"):
            domain = self.formula()
        span = self.peek().span
        self.expect("}")
        try:
            return ODE(tuple(equations), domain)
        except ValueError as exc:
            raise ParseError(str(exc), span) from None

    def done(self):
        if self.peek().kind != "eof":
            self.fail(f"unexpected trailing input {self.peek().text!r}")


def parse_formula(text: str) -> Formula:
    p = _Parser(tokenize(text))
    out = p.formula()
    p.done()
    return out


def parse_program(text: str) -> Program:
    p = _Parser(tokenize(text))
    out = p.program()
    p.done()
    return out


def parse_term(text: str) -> Term:
    p = _Parser(tokenize(text))
    out = p.term()
    p.done()
    return out


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
    return "\n".join(line for _, line in section[2])


def _parse_in_section(parse, section):
    text = _section_text(section)
    p = _Parser(tokenize(text, line_offset=section[3]))
    out = parse(p)
    p.done()
    return out


def parse_model(text: str, name: str = "model"):
    """Parse a `.hpmodel` document into a Model.

    Raises ParseError with a SourceSpan on syntax errors, unknown DOMAINS
    variables, duplicate sections, and division by a symbolic constant
    that has no sign constraint.
    """
    constants = []
    domains = {}
    invariants = {}
    relation = None
    parts = {}
    warnings = []
    for section in split_sections(text):
        keyword = section[0]
        if keyword == "CONSTANTS":
            for lineno, line in section[2]:
                if ":" in line:
                    decl, constraint_text = line.split(":", 1)
                else:
                    decl, constraint_text = line, ""
                if "=" not in decl:
                    raise ParseError("expected `name = value` in CONSTANTS",
                                     SourceSpan(0, 0, lineno, 1))
                cname, value_text = decl.split("=", 1)
                cname = cname.strip()
                value = parse_term(value_text.strip())
                if not isinstance(value, Num):
                    value = Num(_const_value(value, lineno))
                constraint = (parse_formula(constraint_text.strip())
                              if constraint_text.strip() else TRUE)
                constants.append(Constant(cname, value.value, constraint))
        elif keyword == "DOMAINS":
            for lineno, line in section[2]:
                m = re.match(r"^\s*([A-Za-z_]\w*)\s*=\s*\[([^,\]]+),([^\]]+)\]\s*$",
                             line)
                if m is None:
                    raise ParseError("expected `var = [lo, hi]` in DOMAINS",
                                     SourceSpan(0, 0, lineno, 1))
                lo = _literal(m.group(2), lineno)
                hi = _literal(m.group(3), lineno)
                if lo > hi:
                    raise ParseError("empty domain interval",
                                     SourceSpan(0, 0, lineno, 1))
                domains[m.group(1)] = (lo, hi)
        elif keyword in ("INIT", "GUARANTEE"):
            parts[keyword] = _parse_in_section(_Parser.formula, section)
        elif keyword in ("ENV", "AUX", "CTRL", "PLANT"):
            parts[keyword] = _parse_in_section(_Parser.program, section)
        elif keyword == "INVARIANT":
            invariants[section[1]] = _parse_in_section(_Parser.formula, section)
        elif keyword == "RELATION":
            relation = _parse_in_section(_Parser.formula, section)

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
        relation=relation,
        source=text,
        warnings=warnings,
    )
    detect_shape(model)
    _check_domains(model, warnings)
    _check_divisors(model)
    return model


def _const_value(term, lineno) -> Fraction:
    try:
        return Fraction(eval_term({}, term))
    except Exception:
        raise ParseError("constant value must be a rational literal",
                         SourceSpan(0, 0, lineno, 1)) from None


def _literal(text: str, lineno) -> Fraction:
    term = parse_term(text.strip())
    return _const_value(term, lineno)


def _check_domains(model, warnings):
    declared = model.declared_variables()
    for var in model.domains:
        if var not in declared:
            raise ParseError(f"unknown variable {var!r} in DOMAINS",
                             SourceSpan(0, 0, 1, 1))
    for var in sorted(declared - set(model.domains) - set(model.constant_values())):
        if var == model.time_var:
            continue
        warnings.append(f"no DOMAINS entry for {var!r}; defaulting to [-100, 100]")
        model.domains[var] = DEFAULT_DOMAIN


def _check_divisors(model):
    constrained = {c.name for c in model.constants if _has_sign_constraint(c)}
    rationals = set(model.constant_values())

    def walk_term(term):
        if isinstance(term, Div):
            for v in sorted(free_variables(term.den)):
                if v not in rationals:
                    raise ParseError(f"division by non-constant {v!r}",
                                     SourceSpan(0, 0, 1, 1))
                if v not in constrained:
                    raise ParseError(f"unconstrained divisor {v!r}",
                                     SourceSpan(0, 0, 1, 1))
        for child in _term_children(term):
            walk_term(child)

    for node in model.all_formulas_and_programs():
        for term in _terms_of(node):
            walk_term(term)


def _has_sign_constraint(constant) -> bool:
    for c in conjuncts(constant.constraint):
        if isinstance(c, Cmp) and c.op in (">", "<"):
            sides = (c.left, c.right)
            if any(isinstance(s, Var) and s.name == constant.name for s in sides) \
                    and any(isinstance(s, Num) and s.value == 0 for s in sides):
                return True
    return False


def _term_children(term):
    if isinstance(term, (Add, Sub, Mul)):
        return (term.left, term.right)
    if isinstance(term, Neg):
        return (term.inner,)
    if isinstance(term, Div):
        return (term.num, term.den)
    if isinstance(term, Pow):
        return (term.base,)
    return ()


def _terms_of(node):
    """All top-level terms occurring in a formula or program."""
    if isinstance(node, Cmp):
        return [node.left, node.right]
    if isinstance(node, (And, Or, Implies, Iff)):
        return _terms_of(node.left) + _terms_of(node.right)
    if isinstance(node, Not):
        return _terms_of(node.inner)
    if isinstance(node, (Forall, Exists)):
        return _terms_of(node.body)
    if isinstance(node, (Box, Diamond)):
        return _terms_of(node.program) + _terms_of(node.post)
    if isinstance(node, Assign):
        return [node.term]
    if isinstance(node, Test):
        return _terms_of(node.condition)
    if isinstance(node, ODE):
        out = [rhs for _, rhs in node.equations]
        return out + _terms_of(node.domain)
    if isinstance(node, Choice):
        return _terms_of(node.left) + _terms_of(node.right)
    if isinstance(node, Seq):
        return _terms_of(node.first) + _terms_of(node.second)
    if isinstance(node, Loop):
        return _terms_of(node.body)
    return []
