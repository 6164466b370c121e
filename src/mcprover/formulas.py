"""First-order formula AST for the fof input subset, and its walks.

The leaves are `terms.Literal`s whose variables are named (`FVar`) until
clausification numbers them per clause; `a != b` is a negative equality
literal, and `~` builds a `Not` node.

Every formula walk is a generator run by `unwind` on an explicit stack, so
formulas nest to any depth.
"""

from __future__ import annotations

from dataclasses import dataclass

from .terms import FVar, Literal, map_variables, subterms


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


def unwind(walk):
    """Run the generator `walk` to its return value on an explicit stack.

    A walker recurses by yielding a generator: `(yield child)` runs `child`
    the same way and evaluates to its return value.
    """
    stack, value = [walk], None
    while stack:
        try:
            child = stack[-1].send(value)
        except StopIteration as done:
            stack.pop()
            value = done.value
        else:
            stack.append(child)
            value = None
    return value


def free_vars(f: Formula) -> list:
    """Free variable names in order of first occurrence."""
    out: dict = {}
    bound: dict = {}  # name -> number of enclosing binders of that name

    def walk(g):
        if isinstance(g, Literal):
            for a in g.args:
                for t in subterms(a):
                    if type(t) is FVar and not bound.get(t.name):
                        out.setdefault(t.name)
        elif isinstance(g, Not):
            yield walk(g.body)
        elif isinstance(g, Binary):
            yield walk(g.left)
            yield walk(g.right)
        else:
            bound[g.var] = bound.get(g.var, 0) + 1
            yield walk(g.body)
            bound[g.var] -= 1

    unwind(walk(f))
    return list(out)


def subst_var(f: Formula, name: str, replacement) -> Formula:
    """Replace every free occurrence of variable `name` by a term.

    Not capture-avoiding: no binder in `f` may bind a variable of `replacement`.
    """

    def leaf(v):
        return replacement if type(v) is FVar and v.name == name else v

    def walk(g):
        if isinstance(g, Literal):
            return Literal(g.positive, g.predicate, tuple(map_variables(a, leaf) for a in g.args))
        if isinstance(g, Not):
            return Not((yield walk(g.body)))
        if isinstance(g, Binary):
            return Binary(g.op, (yield walk(g.left)), (yield walk(g.right)))
        if g.var == name:  # shadowed
            return g
        return Quant(g.kind, g.var, (yield walk(g.body)))

    return unwind(walk(f))

