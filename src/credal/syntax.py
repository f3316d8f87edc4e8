"""Abstract syntax, parser and canonical printer for probabilistic answer set programs.

A program file is a sequence of "."-terminated statements:

    FLOAT::atom.            probabilistic fact
    atom.                   certain fact
    atom :- lit, ..., lit.  rule

where a literal is an atom optionally preceded by ``not`` (or ``\\+``),
identifiers match ``[a-z][A-Za-z0-9_]*``, variables ``[A-Z_][A-Za-z0-9_]*``,
and constants are identifiers or unsigned integers.  ``%`` starts a comment
that runs to the end of the line.  Terms are function-free, which keeps the
Herbrand universe finite.
"""

from __future__ import annotations

import re
from dataclasses import dataclass


class ParseError(Exception):
    """Syntax error with 1-based line/column position."""

    def __init__(self, message: str, line: int, column: int):
        super().__init__(f"{line}:{column}: {message}")
        self.message = message
        self.line = line
        self.column = column


class ProgramError(Exception):
    """A structurally valid parse that violates a program invariant
    (rule safety, probability range, duplicate or head-unifiable
    probabilistic fact)."""


@dataclass(frozen=True, order=True)
class Term:
    kind: str  # "constant" | "variable"
    name: str

    def __post_init__(self):
        if not self.name:
            raise ValueError("empty term name")
        first = self.name[0]
        if self.kind == "constant" and not (first.islower() or first.isdigit()):
            raise ValueError(f"constant {self.name!r} must start lowercase or with a digit")
        if self.kind == "variable" and not (first.isupper() or first == "_"):
            raise ValueError(f"variable {self.name!r} must start uppercase or with '_'")
        if self.kind not in ("constant", "variable"):
            raise ValueError(f"bad term kind {self.kind!r}")

    @property
    def is_variable(self) -> bool:
        return self.kind == "variable"

    def __str__(self) -> str:
        return self.name


def const(name: str) -> Term:
    return Term("constant", name)


def var(name: str) -> Term:
    return Term("variable", name)


@dataclass(frozen=True, order=True)
class Atom:
    """A predicate applied to terms.  Ground atoms key the sets and dicts
    of every layer, so the hash (the one the dataclass would compute) is
    taken once, at construction; pickling rebuilds the atom, so the stored
    hash never crosses into a process with another string-hash seed."""

    predicate: str
    args: tuple[Term, ...] = ()

    def __post_init__(self):
        if not self.predicate:
            raise ValueError("empty predicate name")
        object.__setattr__(self, "_hash", hash((self.predicate, self.args)))

    def __hash__(self) -> int:
        return self._hash

    def __reduce__(self):
        return Atom, (self.predicate, self.args)

    @property
    def signature(self) -> tuple[str, int]:
        return (self.predicate, len(self.args))

    def is_ground(self) -> bool:
        return all(not t.is_variable for t in self.args)

    def variables(self) -> set[str]:
        return {t.name for t in self.args if t.is_variable}

    def __str__(self) -> str:
        if not self.args:
            return self.predicate
        return f"{self.predicate}({','.join(t.name for t in self.args)})"


@dataclass(frozen=True, order=True)
class Literal:
    atom: Atom
    negated: bool = False

    def __str__(self) -> str:
        return f"not {self.atom}" if self.negated else str(self.atom)


@dataclass(frozen=True, order=True)
class Rule:
    head: Atom
    body: tuple[Literal, ...] = ()

    def unsafe_variables(self) -> set[str]:
        """Head or negative-body variables not bound by any positive body atom."""
        bound = set()
        for lit in self.body:
            if not lit.negated:
                bound |= lit.atom.variables()
        need = self.head.variables()
        for lit in self.body:
            if lit.negated:
                need |= lit.atom.variables()
        return need - bound

    def __str__(self) -> str:
        if not self.body:
            return f"{self.head}."
        return f"{self.head} :- {', '.join(str(l) for l in self.body)}."


@dataclass(frozen=True, order=True)
class ProbFact:
    prob: float
    atom: Atom

    def __post_init__(self):
        if not 0.0 <= self.prob <= 1.0:
            raise ValueError(f"probability {self.prob} outside [0,1] for {self.atom}")
        if not self.atom.is_ground():
            raise ValueError(f"probabilistic fact atom {self.atom} is not ground")

    def __str__(self) -> str:
        return f"{_format_probability(self.prob)}::{self.atom}."


@dataclass(frozen=True)
class Program:
    prob_facts: tuple[ProbFact, ...] = ()
    rules: tuple[Rule, ...] = ()

    def __post_init__(self):
        validate_program(self.prob_facts, self.rules)

    def predicates(self) -> set[tuple[str, int]]:
        preds = {pf.atom.signature for pf in self.prob_facts}
        for r in self.rules:
            preds.add(r.head.signature)
            preds.update(l.atom.signature for l in r.body)
        return preds


@dataclass(frozen=True)
class Query:
    atom: Atom

    def __post_init__(self):
        if not self.atom.is_ground():
            raise ValueError(f"query atom {self.atom} is not ground")

    def __str__(self) -> str:
        return str(self.atom)


# ---------------------------------------------------------------------------
# tokenizer / parser

_TOKEN_RE = re.compile(
    r"""(?P<ws>\s+)
      | (?P<comment>%[^\n]*)
      | (?P<float>\d+\.\d+)
      | (?P<int>\d+)
      | (?P<ident>[a-z][A-Za-z0-9_]*)
      | (?P<variable>[A-Z_][A-Za-z0-9_]*)
      | (?P<coloncolon>::)
      | (?P<arrow>:-)
      | (?P<notsym>\\\+)
      | (?P<punct>[(),.])
    """,
    re.VERBOSE,
)


@dataclass
class _Token:
    kind: str
    text: str
    line: int
    column: int


def _tokenize(text: str) -> list[_Token]:
    tokens = []
    line, line_start = 1, 0
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            raise ParseError(f"unexpected character {text[pos]!r}",
                             line, pos - line_start + 1)
        kind = m.lastgroup
        raw = m.group()
        if kind not in ("ws", "comment"):
            tokens.append(_Token(kind, raw, line, m.start() - line_start + 1))
        newlines = raw.count("\n")
        if newlines:
            line += newlines
            line_start = m.start() + raw.rindex("\n") + 1
        pos = m.end()
    tokens.append(_Token("eof", "", line, pos - line_start + 1))
    return tokens


class _Parser:
    def __init__(self, text: str):
        self.tokens = _tokenize(text)
        self.pos = 0

    def peek(self) -> _Token:
        return self.tokens[self.pos]

    def next(self) -> _Token:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, kind: str, what: str) -> _Token:
        tok = self.next()
        if tok.kind != kind:
            raise ParseError(f"expected {what}, found {tok.text or 'end of input'!r}",
                             tok.line, tok.column)
        return tok

    def expect_punct(self, char: str) -> _Token:
        tok = self.next()
        if tok.kind != "punct" or tok.text != char:
            raise ParseError(f"expected {char!r}, found {tok.text or 'end of input'!r}",
                             tok.line, tok.column)
        return tok

    def parse_term(self) -> Term:
        tok = self.next()
        if tok.kind in ("ident", "int"):
            nxt = self.peek()
            if nxt.kind == "punct" and nxt.text == "(":
                raise ParseError("function symbols are not supported (terms must be "
                                 "constants or variables)", nxt.line, nxt.column)
            return const(tok.text)
        if tok.kind == "variable":
            return var(tok.text)
        raise ParseError(f"expected a term, found {tok.text or 'end of input'!r}",
                         tok.line, tok.column)

    def parse_atom(self) -> Atom:
        tok = self.expect("ident", "a predicate name")
        args: list[Term] = []
        nxt = self.peek()
        if nxt.kind == "punct" and nxt.text == "(":
            self.next()
            args.append(self.parse_term())
            while True:
                tok2 = self.next()
                if tok2.kind == "punct" and tok2.text == ",":
                    args.append(self.parse_term())
                elif tok2.kind == "punct" and tok2.text == ")":
                    break
                else:
                    raise ParseError(f"expected ',' or ')', found "
                                     f"{tok2.text or 'end of input'!r}",
                                     tok2.line, tok2.column)
        return Atom(tok.text, tuple(args))

    def parse_literal(self) -> Literal:
        tok = self.peek()
        negated = False
        if tok.kind == "notsym":
            self.next()
            negated = True
        elif tok.kind == "ident" and tok.text == "not":
            # "not" is a negation token only when an atom follows; a bare
            # "not." statement would be the 0-ary atom "not".
            nxt = self.tokens[self.pos + 1]
            if nxt.kind in ("ident",):
                self.next()
                negated = True
        return Literal(self.parse_atom(), negated)

    def parse_statement(self) -> ProbFact | Rule:
        tok = self.peek()
        if tok.kind in ("float", "int"):
            self.next()
            prob = float(tok.text)
            if not 0.0 <= prob <= 1.0:
                raise ParseError(f"probability {tok.text} outside [0,1]",
                                 tok.line, tok.column)
            self.expect("coloncolon", "'::'")
            atom = self.parse_atom()
            if not atom.is_ground():
                raise ParseError(f"probabilistic fact atom {atom} contains variables",
                                 tok.line, tok.column)
            self.expect_punct(".")
            return ProbFact(prob, atom)
        head = self.parse_atom()
        nxt = self.next()
        if nxt.kind == "punct" and nxt.text == ".":
            return Rule(head)
        if nxt.kind != "arrow":
            raise ParseError(f"expected ':-' or '.', found {nxt.text or 'end of input'!r}",
                             nxt.line, nxt.column)
        body = [self.parse_literal()]
        while True:
            tok2 = self.next()
            if tok2.kind == "punct" and tok2.text == ",":
                body.append(self.parse_literal())
            elif tok2.kind == "punct" and tok2.text == ".":
                break
            else:
                raise ParseError(f"expected ',' or '.', found "
                                 f"{tok2.text or 'end of input'!r}",
                                 tok2.line, tok2.column)
        return Rule(head, tuple(body))


def _unifies(fact_atom: Atom, head: Atom) -> bool:
    """Whether a ground fact atom matches a (possibly non-ground) rule head."""
    if fact_atom.signature != head.signature:
        return False
    binding: dict[str, str] = {}
    for fa, ha in zip(fact_atom.args, head.args):
        if ha.is_variable:
            seen = binding.setdefault(ha.name, fa.name)
            if seen != fa.name:
                return False
        elif ha.name != fa.name:
            return False
    return True


def validate_program(prob_facts: list[ProbFact], rules: list[Rule]) -> None:
    for rule in rules:
        bad = rule.unsafe_variables()
        if bad:
            names = ", ".join(sorted(bad))
            raise ProgramError(
                f"unsafe rule '{rule}': variable(s) {names} do not occur in any "
                f"positive body literal")
    seen: set[Atom] = set()
    for pf in prob_facts:
        if pf.atom in seen:
            raise ProgramError(f"duplicate probabilistic fact atom {pf.atom}")
        seen.add(pf.atom)
    for pf in prob_facts:
        for rule in rules:
            if _unifies(pf.atom, rule.head):
                raise ProgramError(
                    f"probabilistic fact atom {pf.atom} unifies with the head of "
                    f"rule '{rule}'")


def parse_program(text: str) -> Program:
    """Parse program text; raises ParseError or ProgramError."""
    parser = _Parser(text)
    prob_facts: list[ProbFact] = []
    rules: list[Rule] = []
    while parser.peek().kind != "eof":
        stmt = parser.parse_statement()
        if isinstance(stmt, ProbFact):
            prob_facts.append(stmt)
        else:
            rules.append(stmt)
    return Program(tuple(prob_facts), tuple(rules))


def parse_query(text: str) -> Query:
    """Parse a single ground atom, e.g. "path(a,d)"."""
    parser = _Parser(text)
    atom = parser.parse_atom()
    tok = parser.peek()
    if tok.kind == "punct" and tok.text == ".":
        parser.next()
        tok = parser.peek()
    if tok.kind != "eof":
        raise ParseError(f"trailing input after query atom: {tok.text!r}",
                         tok.line, tok.column)
    if not atom.is_ground():
        raise ParseError(f"query atom {atom} contains variables", 1, 1)
    return Query(atom)


# ---------------------------------------------------------------------------
# canonical printer

def _format_probability(p: float) -> str:
    s = repr(p)
    if "e" in s or "E" in s:
        s = f"{p:.20f}".rstrip("0")
        if s.endswith("."):
            s += "0"
    return s


def render_program(program: Program) -> str:
    """Canonical text: probabilistic facts then rules, each group sorted by
    its canonical atom string; body literals keep source order."""
    lines = [str(pf) for pf in sorted(program.prob_facts, key=lambda pf: str(pf.atom))]
    lines.extend(sorted(str(r) for r in program.rules))
    return "".join(line + "\n" for line in lines)
