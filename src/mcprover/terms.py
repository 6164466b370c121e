"""First-order clausal syntax: terms, literals, clauses and the clause matrix.

Variables in a clause are integers (`Var`) scoped to a namespace: input
clauses index their variables 0..k-1 in order of first occurrence, and
search-time clause copies are renamed by offsetting those indices into a
per-search counter. Before that numbering, parsed literals and the leaves of
fof formulas hold named variables (`FVar`). Constants are zero-arity
applications.

Terms are walked by `subterms`, `map_variables` and `term_text`, or under σ
in unification and the calculus, always on explicit stacks, so any depth
works. `App`'s generated `==` and `hash` recurse: keep them off nested terms.

`Var`, `FVar`, `App` and `Literal` are slotted value classes that compare and
hash by their fields; their constructors set fields directly, and nothing
assigns to a field once built (`tests/test_api_surface.py` checks).
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field

TOP_PREDICATE = "$top"
EQ_PREDICATE = "="


@dataclass(slots=True, unsafe_hash=True)
class Var:
    id: int


@dataclass(slots=True, unsafe_hash=True)
class FVar:
    name: str


@dataclass(slots=True, unsafe_hash=True)
class App:
    functor: str
    args: tuple = ()


Term = Var | FVar | App


@dataclass(slots=True, unsafe_hash=True)
class Literal:
    positive: bool
    predicate: str
    args: tuple = ()

    @property
    def arity(self) -> int:
        return len(self.args)

    def complement(self) -> "Literal":
        return Literal(not self.positive, self.predicate, self.args)


TOP = Literal(True, TOP_PREDICATE)
NEG_TOP = Literal(False, TOP_PREDICATE)


@dataclass(frozen=True)
class Clause:
    literals: tuple
    var_count: int = 0
    var_names: tuple = ()
    label: str = ""

    def is_positive(self) -> bool:
        return all(lit.positive for lit in self.literals)


# Pseudo-clause holding the synthetic goal every derivation starts from.
START_CLAUSE = Clause((TOP,), label="start")


def subterms(t: Term):
    """The subterms of `t`, `t` first, in pre-order, left to right, walked
    with an explicit stack so any depth walks."""
    stack = [t]
    while stack:
        u = stack.pop()
        yield u
        if type(u) is App and u.args:
            stack.extend(reversed(u.args))


def map_variables(t: Term, leaf) -> Term:
    """`t` with each variable `v` replaced by `leaf(v)`, called left to right,
    rebuilt with an explicit stack so any depth maps."""
    if type(t) is not App:
        return leaf(t)
    if not t.args:
        return t
    done = []  # mapped subterms, in order
    stack = [t]  # terms to map, and (functor, arity) marks that rebuild an App from `done`
    while stack:
        u = stack.pop()
        if type(u) is tuple:
            functor, n = u
            args = tuple(done[-n:])
            del done[-n:]
            done.append(App(functor, args))
        elif type(u) is not App:
            done.append(leaf(u))
        elif not u.args:
            done.append(u)
        else:
            stack.append((u.functor, len(u.args)))
            stack.extend(reversed(u.args))
    return done[0]


def number_variables(literals, label: str = "") -> Clause:
    """The clause of `literals`, its named variables numbered by first occurrence."""
    names: dict = {}

    def number(v):
        if type(v) is FVar:
            if v.name not in names:
                names[v.name] = Var(len(names))
            return names[v.name]
        return v

    lits = tuple(
        Literal(lit.positive, lit.predicate, tuple([map_variables(a, number) for a in lit.args]))
        for lit in literals
    )
    return Clause(lits, var_count=len(names), var_names=tuple(names), label=label)


def rename_term(t: Term, offset: int) -> Term:
    """`t` with every variable id raised by `offset`."""
    if type(t) is Var:  # the commonest argument, renamed without a callback
        return Var(t.id + offset)
    return map_variables(t, lambda v: Var(v.id + offset))


def rename_literal(lit: Literal, offset: int) -> Literal:
    if not lit.args:
        return lit
    return Literal(lit.positive, lit.predicate, tuple(rename_term(a, offset) for a in lit.args))


@dataclass
class Matrix:
    """Prepared problem: clause list plus the extension index.

    The index maps (predicate, polarity-of-a-goal-literal) to the positions of
    clause literals that could connect to such a goal, i.e. literals with the
    same predicate and the opposite polarity.
    """

    clauses: tuple = ()
    index: dict = field(default_factory=dict, repr=False)
    digest: str = ""
    # (predicate, polarity-of-a-goal-literal) -> calculus's lazily built extension entries
    extension_table: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def candidates(self, predicate: str, positive: bool) -> tuple:
        return self.index.get((predicate, positive), ())

    @property
    def has_positive_start(self) -> bool:
        """Whether some clause connects to the start goal `$top`."""
        return bool(self.candidates(TOP_PREDICATE, True))


def build_extension_index(clauses) -> dict:
    index: dict = {}
    for ci, clause in enumerate(clauses):
        for li, lit in enumerate(clause.literals):
            key = (lit.predicate, not lit.positive)
            index.setdefault(key, []).append((ci, li))
    return {key: tuple(entries) for key, entries in index.items()}


# --- canonical printing ---------------------------------------------------

_LOWER_OK = "abcdefghijklmnopqrstuvwxyz"
_WORD_OK = set(_LOWER_OK + _LOWER_OK.upper() + "0123456789_")


def _atom_name(name: str) -> str:
    """Quote a functor/predicate name unless it is a plain TPTP word."""
    if name and (name[0] in _LOWER_OK or name[0] == "$" or name.isdigit()):
        body = name[1:] if name[0] == "$" else name
        if all(c in _WORD_OK for c in body):
            return name
    return "'" + name.replace("\\", "\\\\").replace("'", "\\'") + "'"


def term_text(t: Term, variable, head) -> str:
    """`t` as text, walked with an explicit stack so any depth prints: a
    variable `v` as `variable(v)`, an application as `head(functor, arity)`
    followed by its arguments, if any, in parentheses and separated by commas."""
    parts = []
    stack = [t]
    while stack:
        t = stack.pop()
        if type(t) is str:
            parts.append(t)
        elif type(t) is not App:
            parts.append(variable(t))
        elif not t.args:
            parts.append(head(t.functor, 0))
        else:
            parts.append(head(t.functor, len(t.args)) + "(")
            stack.append(")")
            for i in range(len(t.args) - 1, -1, -1):
                stack.append(t.args[i])
                if i:
                    stack.append(",")
    return "".join(parts)


def term_to_str(t: Term, var_names: tuple = ()) -> str:
    """`t` in TPTP syntax."""

    def variable(v):
        if type(v) is FVar:
            return v.name
        return var_names[v.id] if v.id < len(var_names) else f"_{v.id}"

    return term_text(t, variable, lambda functor, arity: _atom_name(functor))


def literal_to_str(lit: Literal, var_names: tuple = ()) -> str:
    if lit.predicate == EQ_PREDICATE and lit.arity == 2:
        op = "=" if lit.positive else "!="
        return f"{term_to_str(lit.args[0], var_names)} {op} {term_to_str(lit.args[1], var_names)}"
    sign = "" if lit.positive else "~"
    if not lit.args:
        return sign + _atom_name(lit.predicate)
    args = ",".join(term_to_str(a, var_names) for a in lit.args)
    return f"{sign}{_atom_name(lit.predicate)}({args})"


def clause_to_str(clause: Clause) -> str:
    return " | ".join(literal_to_str(lit, clause.var_names) for lit in clause.literals)


def matrix_to_cnf(matrix: Matrix) -> str:
    """Canonical cnf rendering of a matrix, one clause per line."""
    lines = []
    for i, clause in enumerate(matrix.clauses):
        label = clause.label or f"c{i}"
        lines.append(f"cnf({label}, axiom, {clause_to_str(clause)}).")
    return "\n".join(lines) + ("\n" if lines else "")


def matrix_digest(clauses) -> str:
    text = "\n".join(clause_to_str(c) for c in clauses)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]
