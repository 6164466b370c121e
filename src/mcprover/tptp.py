"""Reader and canonical printer for TPTP-style cnf problems and a fof subset.

Supported: cnf clauses, fof formulas over ~ & | => <= <=> <~> with ! / ?
quantifiers, infix = and !=, include directives, %- and /* */-comments.
Conjectures are negated on clausification per the usual refutation setup.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field

from .formulas import Atom, Binary, FVar, Formula, Not, Quant, formula_to_str, free_vars
from .terms import App, Clause, EQ_PREDICATE, Literal, Var, clause_to_str


class ParseError(Exception):
    def __init__(self, message: str, line: int = 0, col: int = 0):
        super().__init__(f"line {line}, column {col}: {message}" if line else message)
        self.line = line
        self.col = col


@dataclass
class CnfDecl:
    name: str
    role: str
    clause: Clause


@dataclass
class FofDecl:
    name: str
    role: str
    formula: Formula


@dataclass
class Problem:
    declarations: list = field(default_factory=list)


# --- lexer ------------------------------------------------------------------

_PUNCT2 = ("<=>", "<~>", "=>", "<=", "!=")
_PUNCT1 = "()[],.:~&|!?="


@dataclass(frozen=True)
class _Token:
    kind: str  # word | var | punct | end
    text: str
    line: int
    col: int


def _tokenize(text: str):
    tokens = []
    i, line, col = 0, 1, 1
    n = len(text)
    while i < n:
        c = text[i]
        if c == "\n":
            i += 1
            line += 1
            col = 1
            continue
        if c in " \t\r":
            i += 1
            col += 1
            continue
        if c == "%":
            while i < n and text[i] != "\n":
                i += 1
            continue
        if text.startswith("/*", i):
            end = text.find("*/", i + 2)
            if end < 0:
                raise ParseError("unterminated block comment", line, col)
            skipped = text[i:end + 2]
            line += skipped.count("\n")
            col = len(skipped) - skipped.rfind("\n") if "\n" in skipped else col + len(skipped)
            i = end + 2
            continue
        start_line, start_col = line, col
        if c == "'":
            j = i + 1
            buf = []
            while j < n and text[j] != "'":
                if text[j] == "\\" and j + 1 < n:
                    buf.append(text[j + 1])
                    j += 2
                else:
                    buf.append(text[j])
                    j += 1
            if j >= n:
                raise ParseError("unterminated quoted atom", start_line, start_col)
            tokens.append(_Token("word", "".join(buf), start_line, start_col))
            col += j + 1 - i
            i = j + 1
            continue
        matched = False
        for op in _PUNCT2:
            if text.startswith(op, i):
                tokens.append(_Token("punct", op, start_line, start_col))
                i += len(op)
                col += len(op)
                matched = True
                break
        if matched:
            continue
        if c in _PUNCT1:
            tokens.append(_Token("punct", c, start_line, start_col))
            i += 1
            col += 1
            continue
        if c.isalpha() or c == "_" or c == "$" or c.isdigit():
            j = i + 1 if c != "$" else i + 1
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            word = text[i:j]
            kind = "var" if (c.isupper() or c == "_") else "word"
            tokens.append(_Token(kind, word, start_line, start_col))
            col += j - i
            i = j
            continue
        raise ParseError(f"unexpected character {c!r}", line, col)
    tokens.append(_Token("end", "", line, col))
    return tokens


# --- parser -----------------------------------------------------------------

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

    def expect(self, text: str) -> _Token:
        tok = self.next()
        if tok.text != text:
            raise ParseError(f"expected {text!r}, found {tok.text!r}", tok.line, tok.col)
        return tok

    def fail(self, message: str):
        tok = self.peek()
        raise ParseError(message, tok.line, tok.col)

    # declarations

    def declarations(self):
        out = []
        while self.peek().kind != "end":
            tok = self.peek()
            if tok.text == "include":
                self.next()
                self.expect("(")
                name = self.next()
                if name.kind != "word":
                    raise ParseError("expected file name", name.line, name.col)
                self.expect(")")
                self.expect(".")
                out.append(("include", name.text))
            elif tok.text in ("cnf", "fof"):
                out.append(self.annotated(tok.text))
            else:
                self.fail(f"expected cnf, fof or include, found {tok.text!r}")
        return out

    def annotated(self, lang: str):
        self.expect(lang)
        self.expect("(")
        name = self.next()
        if name.kind not in ("word", "var"):
            raise ParseError("expected formula name", name.line, name.col)
        self.expect(",")
        role = self.next()
        if role.kind != "word":
            raise ParseError("expected formula role", role.line, role.col)
        self.expect(",")
        if lang == "cnf":
            clause = self.cnf_clause()
            decl: CnfDecl | FofDecl = CnfDecl(name.text, role.text, clause)
        else:
            decl = FofDecl(name.text, role.text, self.formula())
        self.expect(")")
        self.expect(".")
        return ("decl", decl)

    # cnf

    def cnf_clause(self) -> Clause:
        names: dict = {}
        var_names: list = []

        def var_of(tok: _Token) -> Var:
            if tok.text not in names:
                names[tok.text] = len(var_names)
                var_names.append(tok.text)
            return Var(names[tok.text])

        wrapped = False
        if self.peek().text == "(":
            self.next()
            wrapped = True
        literals = [self.cnf_literal(var_of)]
        while self.peek().text == "|":
            self.next()
            literals.append(self.cnf_literal(var_of))
        if wrapped:
            self.expect(")")
        return Clause(tuple(literals), var_count=len(var_names), var_names=tuple(var_names))

    def cnf_literal(self, var_of) -> Literal:
        positive = True
        while self.peek().text == "~":
            self.next()
            positive = not positive
        term = self.term(var_of)
        nxt = self.peek()
        if nxt.text in ("=", "!="):
            self.next()
            rhs = self.term(var_of)
            if nxt.text == "!=":
                positive = not positive
            return Literal(positive, EQ_PREDICATE, (term, rhs))
        if isinstance(term, Var):
            raise ParseError("a variable is not a literal", nxt.line, nxt.col)
        return Literal(positive, term.functor, term.args)

    def term(self, var_of):
        tok = self.next()
        if tok.kind == "var":
            return var_of(tok)
        if tok.kind != "word":
            raise ParseError(f"expected a term, found {tok.text!r}", tok.line, tok.col)
        args: tuple = ()
        if self.peek().text == "(":
            self.next()
            parts = [self.term(var_of)]
            while self.peek().text == ",":
                self.next()
                parts.append(self.term(var_of))
            self.expect(")")
            args = tuple(parts)
        return App(tok.text, args)

    # fof

    def formula(self) -> Formula:
        left = self.unitary()
        tok = self.peek()
        if tok.text in ("&", "|"):
            op = tok.text
            while self.peek().text == op:
                self.next()
                left = Binary(op, left, self.unitary())
            after = self.peek()
            if after.text in ("&", "|", "=>", "<=", "<=>", "<~>"):
                raise ParseError("mixed binary connectives need parentheses", after.line, after.col)
            return left
        if tok.text in ("=>", "<=", "<=>", "<~>"):
            self.next()
            right = self.unitary()
            after = self.peek()
            if after.text in ("&", "|", "=>", "<=", "<=>", "<~>"):
                raise ParseError("non-associative connective needs parentheses", after.line, after.col)
            return Binary(tok.text, left, right)
        return left

    def unitary(self) -> Formula:
        tok = self.peek()
        if tok.text == "(":
            self.next()
            inner = self.formula()
            self.expect(")")
            return inner
        if tok.text == "~":
            self.next()
            return Not(self.unitary())
        if tok.text in ("!", "?"):
            self.next()
            self.expect("[")
            names = [self.quantified_var()]
            while self.peek().text == ",":
                self.next()
                names.append(self.quantified_var())
            self.expect("]")
            self.expect(":")
            body = self.unitary()
            for name in reversed(names):
                body = Quant(tok.text, name, body)
            return body
        return self.atom()

    def quantified_var(self) -> str:
        tok = self.next()
        if tok.kind != "var":
            raise ParseError("expected a variable", tok.line, tok.col)
        return tok.text

    def atom(self) -> Formula:
        term = self.fterm()
        nxt = self.peek()
        if nxt.text in ("=", "!="):
            self.next()
            rhs = self.fterm()
            atom = Atom(EQ_PREDICATE, (term, rhs))
            return Not(atom) if nxt.text == "!=" else atom
        if isinstance(term, FVar):
            raise ParseError("a variable is not an atom", nxt.line, nxt.col)
        return Atom(term.functor, term.args)

    def fterm(self):
        tok = self.next()
        if tok.kind == "var":
            return FVar(tok.text)
        if tok.kind != "word":
            raise ParseError(f"expected a term, found {tok.text!r}", tok.line, tok.col)
        args: tuple = ()
        if self.peek().text == "(":
            self.next()
            parts = [self.fterm()]
            while self.peek().text == ",":
                self.next()
                parts.append(self.fterm())
            self.expect(")")
            args = tuple(parts)
        return App(tok.text, args)


# --- entry points -----------------------------------------------------------

def parse_problem(text: str, *, path: str | None = None, include_dirs: tuple = ()) -> Problem:
    """Parse TPTP text into a Problem, resolving include directives."""
    problem = Problem()
    _parse_into(problem, text, path, tuple(include_dirs), seen=set())
    for i, decl in enumerate(problem.declarations):
        if isinstance(decl, CnfDecl):
            decl.clause = Clause(
                decl.clause.literals,
                origin=i,
                var_count=decl.clause.var_count,
                var_names=decl.clause.var_names,
                label=decl.name,
            )
        else:
            unbound = free_vars(decl.formula)
            if unbound:
                raise ParseError(f"formula {decl.name!r} has free variables: {', '.join(unbound)}")
    return problem


def _parse_into(problem: Problem, text: str, path, include_dirs, seen):
    for item in _Parser(text).declarations():
        if item[0] == "decl":
            problem.declarations.append(item[1])
            continue
        name = item[1]
        resolved = _resolve_include(name, path, include_dirs)
        if resolved in seen:
            continue
        seen.add(resolved)
        with open(resolved, encoding="utf-8") as handle:
            _parse_into(problem, handle.read(), resolved, include_dirs, seen)


def _resolve_include(name: str, path, include_dirs) -> str:
    candidates = []
    if path:
        candidates.append(os.path.join(os.path.dirname(os.path.abspath(path)), name))
    candidates.extend(os.path.join(d, name) for d in include_dirs)
    for candidate in candidates:
        if os.path.isfile(candidate):
            return candidate
    raise ParseError(f"cannot resolve include {name!r}")


def load_problem(path: str, include_dirs: tuple = ()) -> Problem:
    with open(path, encoding="utf-8") as handle:
        return parse_problem(handle.read(), path=path, include_dirs=include_dirs)


def print_problem(problem: Problem) -> str:
    """Canonical text whose re-parse is structurally equal to `problem`."""
    lines = []
    for decl in problem.declarations:
        if isinstance(decl, CnfDecl):
            lines.append(f"cnf({decl.name}, {decl.role}, {clause_to_str(decl.clause)}).")
        else:
            lines.append(f"fof({decl.name}, {decl.role}, {formula_to_str(decl.formula)}).")
    return "\n".join(lines) + ("\n" if lines else "")
