"""Reader for TPTP-style cnf problems and a fof subset.

Supported: cnf clauses, fof formulas over ~ & | => <= <=> <~> with ! / ?
quantifiers, infix = and !=, include directives, %- and /* */-comments.
Conjectures are negated on clausification per the usual refutation setup.
A predicate whose name starts with `$`, quoted or not, is refused: `$top`
marks start clauses, and defined predicates such as `$true` are not read.

cnf and fof share one term and atom grammar: an atom is a `terms.Literal`
over named variables, and `a != b` is a negative equality literal. A cnf
clause has its variables numbered as soon as it is read; a fof formula keeps
them named until clausification.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import NamedTuple

from .formulas import Binary, Formula, Not, Quant, free_vars, unwind
from .terms import App, Clause, EQ_PREDICATE, FVar, Literal, TOP_PREDICATE, number_variables


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


class _Token(NamedTuple):
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
        op = c if c in _PUNCT1 else ""
        if c in "<=!":  # the first characters of the _PUNCT2 operators
            op = next((op2 for op2 in _PUNCT2 if text.startswith(op2, i)), op)
        if op:
            tokens.append(_Token("punct", op, start_line, start_col))
            i += len(op)
            col += len(op)
            continue
        if c.isalpha() or c == "_" or c == "$" or c.isdigit():
            j = i + 1
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
            decl: CnfDecl | FofDecl = CnfDecl(name.text, role.text, self.cnf_clause(name.text))
        else:
            decl = FofDecl(name.text, role.text, unwind(self.formula()))
        self.expect(")")
        self.expect(".")
        return ("decl", decl)

    # cnf

    def cnf_clause(self, label: str) -> Clause:
        wrapped = False
        if self.peek().text == "(":
            self.next()
            wrapped = True
        marker = self.start_marker()
        literals = [self.cnf_literal()]
        while self.peek().text == "|":
            self.next()
            literals.append(self.cnf_literal())
        if marker is not None and not all(lit.positive for lit in literals):
            raise ParseError(f"{TOP_PREDICATE} may mark only a clause of positive literals", marker.line, marker.col)
        if wrapped:
            self.expect(")")
        return number_variables(literals, label)

    def start_marker(self) -> _Token | None:
        """Skip a leading `~$top |`, which `show` prints before the literals
        of a start clause; prepare_matrix adds it back. Returns its `$top`."""
        window = self.tokens[self.pos:self.pos + 3]
        if [(t.kind, t.text) for t in window] != [("punct", "~"), ("word", TOP_PREDICATE), ("punct", "|")]:
            return None
        self.pos += 3
        return window[1]

    def cnf_literal(self) -> Literal:
        positive = True
        while self.peek().text == "~":
            self.next()
            positive = not positive
        atom = self.atom()
        return atom if positive else atom.complement()

    # atoms and terms

    def atom(self) -> Literal:
        start = self.peek()
        term = self.term()
        nxt = self.peek()
        if nxt.text in ("=", "!="):
            self.next()
            return Literal(nxt.text == "=", EQ_PREDICATE, (term, self.term()))
        if isinstance(term, FVar):
            raise ParseError("a variable is not an atom", nxt.line, nxt.col)
        if term.functor.startswith("$"):  # $top is the start literal's, see start_marker
            reason = "reserved" if term.functor == TOP_PREDICATE else "a defined predicate, which is not supported"
            raise ParseError(f"the predicate {term.functor} is {reason}", start.line, start.col)
        return Literal(True, term.functor, term.args)

    def term(self):
        open_apps = []  # (functor, arguments so far) of each application whose ")" is pending
        while True:
            tok = self.next()
            if tok.kind == "var":
                term = FVar(tok.text)
            elif tok.kind != "word":
                raise ParseError(f"expected a term, found {tok.text!r}", tok.line, tok.col)
            elif self.peek().text == "(":
                self.next()
                open_apps.append((tok.text, []))
                continue
            else:
                term = App(tok.text)
            while open_apps:  # `term` is complete: add it to the innermost open application
                functor, args = open_apps[-1]
                args.append(term)
                if self.peek().text == ",":
                    self.next()
                    break
                self.expect(")")
                open_apps.pop()
                term = App(functor, tuple(args))
            else:
                return term

    # fof

    def formula(self):  # walkers run by `unwind`
        left = yield self.unitary()
        tok = self.peek()
        if tok.text in ("&", "|"):
            op = tok.text
            while self.peek().text == op:
                self.next()
                left = Binary(op, left, (yield self.unitary()))
            after = self.peek()
            if after.text in ("&", "|", "=>", "<=", "<=>", "<~>"):
                raise ParseError("mixed binary connectives need parentheses", after.line, after.col)
            return left
        if tok.text in ("=>", "<=", "<=>", "<~>"):
            self.next()
            right = yield self.unitary()
            after = self.peek()
            if after.text in ("&", "|", "=>", "<=", "<=>", "<~>"):
                raise ParseError("non-associative connective needs parentheses", after.line, after.col)
            return Binary(tok.text, left, right)
        return left

    def unitary(self):
        tok = self.peek()
        if tok.text == "(":
            self.next()
            inner = yield self.formula()
            self.expect(")")
            return inner
        if tok.text == "~":
            self.next()
            return Not((yield self.unitary()))
        if tok.text in ("!", "?"):
            self.next()
            self.expect("[")
            names = [self.quantified_var()]
            while self.peek().text == ",":
                self.next()
                names.append(self.quantified_var())
            self.expect("]")
            self.expect(":")
            body = yield self.unitary()
            for name in reversed(names):
                body = Quant(tok.text, name, body)
            return body
        return self.atom()

    def quantified_var(self) -> str:
        tok = self.next()
        if tok.kind != "var":
            raise ParseError("expected a variable", tok.line, tok.col)
        return tok.text


# --- entry points -----------------------------------------------------------

def parse_problem(text: str, *, path: str | None = None, include_dirs: tuple = ()) -> Problem:
    """Parse TPTP text into a Problem, resolving include directives."""
    problem = Problem()
    _parse_into(problem, text, path, tuple(include_dirs), seen=set())
    for decl in problem.declarations:
        if isinstance(decl, FofDecl):
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
        _parse_into(problem, _read(resolved), resolved, include_dirs, seen)


def _resolve_include(name: str, path, include_dirs) -> str:
    candidates = []
    if path:
        candidates.append(os.path.join(os.path.dirname(os.path.abspath(path)), name))
    candidates.extend(os.path.join(d, name) for d in include_dirs)
    for candidate in candidates:
        if os.path.isfile(candidate):
            return candidate
    raise ParseError(f"cannot resolve include {name!r}")


def _read(path: str) -> str:
    try:
        with open(path, encoding="utf-8") as handle:
            return handle.read()
    except UnicodeDecodeError as err:
        raise ParseError(f"{path}: not UTF-8 text ({err.reason} at byte {err.start})") from None


def load_problem(path: str, include_dirs: tuple = ()) -> Problem:
    return parse_problem(_read(path), path=path, include_dirs=include_dirs)

