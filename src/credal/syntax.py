"""Abstract syntax, parser and canonical printer for probabilistic answer set programs.

A program file, read as UTF-8, is a sequence of "."-terminated statements:

    PROB::atom.             probabilistic fact
    atom.                   certain fact
    atom :- lit, ..., lit.  rule

where PROB is a decimal ``d.d`` or the integer ``0`` or ``1``, and a literal
is an atom optionally preceded by ``not`` (or ``\\+``).  ``not`` negates only
when an atom follows it, so ``not.`` is the 0-ary atom ``not``.  Identifiers
match ``[a-z][A-Za-z0-9_]*``, variables ``[A-Z_][A-Za-z0-9_]*``, and
constants are identifiers or unsigned integers.  ``_`` is an ordinary
variable, so two ``_`` in one rule are the same variable.  ``%`` starts a
comment that runs to the end of the line.  Terms are function-free, which
keeps the Herbrand universe finite.  The printer writes probabilities below
1e-4 in full positional form, so every probability round-trips.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from decimal import Decimal


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

# A token is (kind, text, offset); each symbol is its own kind.
_TOKEN_RE = re.compile(
    r"""(?P<skip>(?:\s+|%[^\n]*)+)
      | (?P<float>\d+\.\d+)
      | (?P<int>\d+)
      | (?P<ident>[a-z][A-Za-z0-9_]*)
      | (?P<variable>[A-Z_][A-Za-z0-9_]*)
      | (?P<symbol>::|:-|\\\+|[(),.])
      | (?P<bad>.)
    """,
    re.VERBOSE,
)


def _error(text: str, offset: int, message: str) -> ParseError:
    line_start = text.rfind("\n", 0, offset) + 1
    return ParseError(message, text.count("\n", 0, offset) + 1, offset - line_start + 1)


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    """The tokens of ``text``; a character outside the grammar is a ``bad``
    token, reported only when the parser reaches it, so an earlier syntax
    error is reported first."""
    tokens = []
    for m in _TOKEN_RE.finditer(text):
        kind, raw = m.lastgroup, m.group()
        if kind != "skip":
            tokens.append((raw if kind == "symbol" else kind, raw, m.start()))
    tokens.append(("eof", "", len(text)))
    return tokens


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.tokens = _tokenize(text)
        self.pos = 0

    def peek(self, ahead: int = 0) -> str:
        return self.tokens[self.pos + ahead][0]

    def fail(self, message: str) -> ParseError:
        """``message`` at the current token, unless that is a bad character."""
        kind, text, offset = self.tokens[self.pos]
        if kind == "bad":
            message = f"unexpected character {text!r}"
        return _error(self.text, offset, message)

    def expect(self, *kinds: str, what: str = "") -> tuple[str, str, int]:
        tok = self.tokens[self.pos]
        if tok[0] not in kinds:
            what = what or " or ".join(map(repr, kinds))
            raise self.fail(f"expected {what}, found {tok[1] or 'end of input'!r}")
        self.pos += 1
        return tok

    def parse_list(self, parse_item, close: str) -> tuple:
        """Items separated by ',' up to and including ``close``."""
        items = [parse_item()]
        while self.expect(",", close)[0] == ",":
            items.append(parse_item())
        return tuple(items)

    def parse_term(self) -> Term:
        kind, text, _ = self.expect("ident", "int", "variable", what="a term")
        if kind == "variable":
            return var(text)
        if self.peek() == "(":
            raise _error(self.text, self.tokens[self.pos][2],
                         "function symbols are not supported (terms must be "
                         "constants or variables)")
        return const(text)

    def parse_atom(self) -> Atom:
        name = self.expect("ident", what="a predicate name")[1]
        if self.peek() != "(":
            return Atom(name)
        self.pos += 1
        return Atom(name, self.parse_list(self.parse_term, ")"))

    def parse_literal(self) -> Literal:
        # "not" negates only when an atom follows: "not." is the atom "not"
        text = self.tokens[self.pos][1]
        negated = text == "\\+" or text == "not" and self.peek(1) == "ident"
        if negated:
            self.pos += 1
        return Literal(self.parse_atom(), negated)

    def parse_statement(self) -> ProbFact | Rule:
        kind, text, offset = self.tokens[self.pos]
        if kind in ("float", "int"):
            self.pos += 1
            prob = float(text)
            if not 0.0 <= prob <= 1.0:
                raise _error(self.text, offset, f"probability {text} outside [0,1]")
            self.expect("::")
            atom = self.parse_atom()
            if not atom.is_ground():
                raise _error(self.text, offset,
                             f"probabilistic fact atom {atom} contains variables")
            self.expect(".")
            return ProbFact(prob, atom)
        head = self.parse_atom()
        if self.expect(":-", ".")[0] == ".":
            return Rule(head)
        return Rule(head, self.parse_list(self.parse_literal, "."))


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
    while parser.peek() != "eof":
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
    if parser.peek() == ".":
        parser.pos += 1
    kind, rest, _ = parser.tokens[parser.pos]
    if kind != "eof":
        raise parser.fail(f"trailing input after query atom: {rest!r}")
    if not atom.is_ground():
        offset = next(tok[2] for tok in parser.tokens if tok[0] == "variable")
        raise _error(text, offset, f"query atom {atom} contains variables")
    return Query(atom)


# ---------------------------------------------------------------------------
# canonical printer

def _format_probability(p: float) -> str:
    """``repr`` unless it has an exponent (below 1e-4), which the grammar
    lacks: then the exact positional form of that shortest repr.  ``abs``
    writes -0.0 as 0.0."""
    s = repr(abs(p))
    return format(Decimal(s), "f") if "e" in s else s


def render_program(program: Program) -> str:
    """Canonical text: probabilistic facts then rules, each group sorted by
    its canonical atom string; body literals keep source order."""
    lines = [str(pf) for pf in sorted(program.prob_facts, key=lambda pf: str(pf.atom))]
    lines.extend(sorted(str(r) for r in program.rules))
    return "".join(line + "\n" for line in lines)
