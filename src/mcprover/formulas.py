"""First-order formula AST for the fof input subset.

Formula-level terms reuse App from terms.py but use named variables (FVar)
until clausification assigns clause-local indices.
"""

from __future__ import annotations

from dataclasses import dataclass

from .terms import App, EQ_PREDICATE, _atom_name


@dataclass(frozen=True, slots=True)
class FVar:
    name: str


@dataclass(frozen=True)
class Atom:
    predicate: str
    args: tuple = ()


@dataclass(frozen=True)
class Not:
    body: "Formula"


@dataclass(frozen=True)
class Binary:
    op: str  # one of & | => <= <=> <~>
    left: "Formula"
    right: "Formula"


@dataclass(frozen=True)
class Quant:
    kind: str  # "!" (forall) or "?" (exists)
    var: str
    body: "Formula"


Formula = Atom | Not | Binary | Quant


def free_vars(f: Formula, bound: frozenset = frozenset()) -> list:
    """Free variable names in order of first occurrence."""
    out: list = []
    seen = set()

    def walk_term(t, bound_here):
        if isinstance(t, FVar):
            if t.name not in bound_here and t.name not in seen:
                seen.add(t.name)
                out.append(t.name)
        elif isinstance(t, App):
            for a in t.args:
                walk_term(a, bound_here)

    def walk(g, bound_here):
        if isinstance(g, Atom):
            for a in g.args:
                walk_term(a, bound_here)
        elif isinstance(g, Not):
            walk(g.body, bound_here)
        elif isinstance(g, Binary):
            walk(g.left, bound_here)
            walk(g.right, bound_here)
        else:
            walk(g.body, bound_here | {g.var})

    walk(f, set(bound))
    return out


def subst_var(f: Formula, name: str, replacement) -> Formula:
    """Replace every free occurrence of variable `name` by a term."""

    def in_term(t):
        if isinstance(t, FVar):
            return replacement if t.name == name else t
        if isinstance(t, App) and t.args:
            return App(t.functor, tuple(in_term(a) for a in t.args))
        return t

    if isinstance(f, Atom):
        return Atom(f.predicate, tuple(in_term(a) for a in f.args))
    if isinstance(f, Not):
        return Not(subst_var(f.body, name, replacement))
    if isinstance(f, Binary):
        return Binary(f.op, subst_var(f.left, name, replacement), subst_var(f.right, name, replacement))
    if f.var == name:  # shadowed
        return f
    return Quant(f.kind, f.var, subst_var(f.body, name, replacement))


# --- canonical printing ---------------------------------------------------

def fterm_to_str(t) -> str:
    if isinstance(t, FVar):
        return t.name
    if not t.args:
        return _atom_name(t.functor)
    return f"{_atom_name(t.functor)}({','.join(fterm_to_str(a) for a in t.args)})"


def formula_to_str(f: Formula) -> str:
    if isinstance(f, Atom):
        if f.predicate == EQ_PREDICATE and len(f.args) == 2:
            return f"{fterm_to_str(f.args[0])} = {fterm_to_str(f.args[1])}"
        if not f.args:
            return _atom_name(f.predicate)
        return f"{_atom_name(f.predicate)}({','.join(fterm_to_str(a) for a in f.args)})"
    if isinstance(f, Not):
        if isinstance(f.body, Atom) and f.body.predicate == EQ_PREDICATE and len(f.body.args) == 2:
            return f"{fterm_to_str(f.body.args[0])} != {fterm_to_str(f.body.args[1])}"
        return "~" + _wrap(f.body)
    if isinstance(f, Binary):
        if f.op in ("&", "|"):
            # flatten the left spine of an associative chain
            parts = [_wrap(f.right)]
            node = f.left
            while isinstance(node, Binary) and node.op == f.op:
                parts.append(_wrap(node.right))
                node = node.left
            parts.append(_wrap(node))
            return "(" + f" {f.op} ".join(reversed(parts)) + ")"
        return f"({_wrap(f.left)} {f.op} {_wrap(f.right)})"
    names = [f.var]
    body = f.body
    while isinstance(body, Quant) and body.kind == f.kind:
        names.append(body.var)
        body = body.body
    return f"{f.kind} [{','.join(names)}] : {_wrap(body)}"


def _wrap(f: Formula) -> str:
    text = formula_to_str(f)
    if isinstance(f, Quant):
        return f"({text})"
    return text
