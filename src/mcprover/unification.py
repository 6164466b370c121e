"""Immutable substitutions and first-order unification with occurs check.

A Substitution is a flat map from variable ids to terms that is never
mutated: the first binding a unification makes copies the map, and that
unification's bindings go into the copy, so sibling search branches each
hold their own map, a lookup is one dict probe, and memory per state stays
linear in the number of bindings. `unify_args` is the only code that makes
a new map.
"""

from __future__ import annotations

from .terms import Literal, Var


class Substitution:
    __slots__ = ("_bindings", "lookup")

    def __init__(self, bindings: dict | None = None):
        self._bindings = {} if bindings is None else bindings
        # var id -> bound term, or None when unbound
        self.lookup = self._bindings.get


EMPTY_SUBSTITUTION = Substitution()


def _occurs(var_id: int, t, lookup) -> bool:
    """Whether the variable `var_id` occurs in `t` under `lookup`. A compound
    with several arguments is walked once: bindings that share a variable
    make a DAG whose unfolding can be exponential."""
    stack = [t]
    seen = None
    while stack:
        u = stack.pop()
        while type(u) is Var:
            bound = lookup(u.id)
            if bound is None:
                break
            u = bound
        if type(u) is Var:
            if u.id == var_id:
                return True
            continue
        if len(u.args) > 1:
            if seen is None:
                seen = set()
            elif id(u) in seen:
                continue
            seen.add(id(u))
        stack.extend(u.args)
    return False


def unify_args(sigma: Substitution, xs: tuple, ys: tuple) -> Substitution | None:
    """Unify the terms of `xs` and `ys` pairwise: an extension of `sigma`, or
    None on a clash or an occurs-check failure. `sigma` itself is returned
    when nothing is bound; the first binding copies its map."""
    if len(xs) != len(ys):
        return None
    merged = None
    lookup = sigma.lookup
    stack = list(zip(xs, ys))
    # (id, id) of the pairs of compounds with several arguments whose
    # arguments are stacked, so that shared bindings are not unfolded
    pushed = None
    while stack:
        a, b = stack.pop()
        while type(a) is Var:
            bound = lookup(a.id)
            if bound is None:
                break
            a = bound
        while type(b) is Var:
            bound = lookup(b.id)
            if bound is None:
                break
            b = bound
        if a is b:
            continue
        if type(a) is not Var:
            if type(b) is not Var:
                if a.functor != b.functor or len(a.args) != len(b.args):
                    return None
                if len(a.args) > 1:
                    pair = (id(a), id(b))
                    if pushed is None:
                        pushed = set()
                    elif pair in pushed:
                        continue
                    pushed.add(pair)
                stack.extend(zip(a.args, b.args))
                continue
            a, b = b, a
        # `a` is an unbound variable; two unbound variables need no occurs check
        if type(b) is Var:
            if a.id == b.id:
                continue
        elif _occurs(a.id, b, lookup):
            return None
        if merged is None:
            merged = sigma._bindings.copy()
            lookup = merged.get
        merged[a.id] = b
    return sigma if merged is None else Substitution(merged)


def pairs_equal_under(sigma: Substitution, stack: list) -> bool:
    """Whether each (x, y) pair of `stack` is structurally equal modulo the
    substitution; consumes `stack`. A pair of compounds with several
    arguments is expanded once, so terms that share bound variables are not
    compared along their (possibly exponential) unfolding."""
    lookup = sigma.lookup
    pushed = None
    while stack:
        x, y = stack.pop()
        while type(x) is Var:
            t = lookup(x.id)
            if t is None:
                break
            x = t
        while type(y) is Var:
            t = lookup(y.id)
            if t is None:
                break
            y = t
        if x is y:
            continue
        if type(x) is Var or type(y) is Var:
            if type(x) is not type(y) or x.id != y.id:
                return False
        elif x.functor != y.functor or len(x.args) != len(y.args):
            return False
        else:
            if len(x.args) > 1:
                pair = (id(x), id(y))
                if pushed is None:
                    pushed = set()
                elif pair in pushed:
                    continue
                pushed.add(pair)
            stack.extend(zip(x.args, y.args))
    return True


def literals_equal_under(sigma: Substitution, a: Literal, b: Literal) -> bool:
    if a.positive != b.positive or a.predicate != b.predicate or len(a.args) != len(b.args):
        return False
    if not a.args:
        return True
    return pairs_equal_under(sigma, list(zip(a.args, b.args)))
