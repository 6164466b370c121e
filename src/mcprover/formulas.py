"""First-order formula AST for the fof input subset.

The leaves are `terms.Literal`s whose variables are named (`FVar`) until
clausification numbers them per clause; `a != b` is a negative equality
literal, and `~` builds a `Not` node.
"""

from __future__ import annotations

from dataclasses import dataclass

from .terms import FVar, Literal, literal_to_str, map_variables, subterms


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


Formula = Literal | Not | Binary | Quant


def free_vars(f: Formula) -> list:
    """Free variable names in order of first occurrence."""
    out: list = []
    seen = set()

    def walk(g, bound_here):
        if isinstance(g, Literal):
            for a in g.args:
                for t in subterms(a):
                    if type(t) is FVar and t.name not in bound_here and t.name not in seen:
                        seen.add(t.name)
                        out.append(t.name)
        elif isinstance(g, Not):
            walk(g.body, bound_here)
        elif isinstance(g, Binary):
            walk(g.left, bound_here)
            walk(g.right, bound_here)
        else:
            walk(g.body, bound_here | {g.var})

    walk(f, set())
    return out


def subst_var(f: Formula, name: str, replacement) -> Formula:
    """Replace every free occurrence of variable `name` by a term.

    Not capture-avoiding: no binder in `f` may bind a variable of `replacement`.
    """

    def leaf(v):
        return replacement if type(v) is FVar and v.name == name else v

    if isinstance(f, Literal):
        return Literal(f.positive, f.predicate, tuple(map_variables(a, leaf) for a in f.args))
    if isinstance(f, Not):
        return Not(subst_var(f.body, name, replacement))
    if isinstance(f, Binary):
        return Binary(f.op, subst_var(f.left, name, replacement), subst_var(f.right, name, replacement))
    if f.var == name:  # shadowed
        return f
    return Quant(f.kind, f.var, subst_var(f.body, name, replacement))


# --- canonical printing ---------------------------------------------------

def formula_to_str(f: Formula) -> str:
    if isinstance(f, Literal):
        return literal_to_str(f)
    if isinstance(f, Not):
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
