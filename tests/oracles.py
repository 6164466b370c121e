"""Reference operations on substitutions that only the tests use.

The prover itself needs `unify_args`, `pairs_equal_under` and
`literals_equal_under`; the tests also resolve terms fully, unify single
terms or literals, and compare substitutions, which these helpers do on top
of `mcprover.unification`.
"""

from mcprover.terms import App, Literal, Var
from mcprover.unification import Substitution, pairs_equal_under, unify_args


def bindings(sigma: Substitution) -> dict:
    """The bindings of `sigma`, var id -> term, as a fresh dict."""
    return dict(sigma._bindings)


def factors_through(sigma: Substitution, other: Substitution) -> bool:
    """True iff every binding of `other` is present in `sigma` unchanged."""
    return all(sigma.lookup(var_id) is term for var_id, term in bindings(other).items())


def deref(sigma: Substitution, t):
    while isinstance(t, Var):
        bound = sigma.lookup(t.id)
        if bound is None:
            return t
        t = bound
    return t


def unify(sigma: Substitution, a, b) -> Substitution | None:
    """Unify two terms, or the argument lists of two complementary literals.

    Returns an extension of `sigma` or None on clash / occurs-check failure.
    """
    if isinstance(a, Literal) or isinstance(b, Literal):
        if not (isinstance(a, Literal) and isinstance(b, Literal)):
            raise TypeError("cannot unify a literal with a term")
        if a.predicate != b.predicate or a.positive == b.positive:
            raise ValueError("literal unification requires complementary literals")
        return unify_args(sigma, a.args, b.args)
    return unify_args(sigma, (a,), (b,))


def resolve_term(sigma: Substitution, t):
    """Apply the substitution exhaustively, producing a fresh term."""
    t = deref(sigma, t)
    if isinstance(t, Var) or not t.args:
        return t
    return App(t.functor, tuple(resolve_term(sigma, a) for a in t.args))


def resolve_literal(sigma: Substitution, lit: Literal) -> Literal:
    if not lit.args:
        return lit
    return Literal(lit.positive, lit.predicate, tuple(resolve_term(sigma, a) for a in lit.args))


def terms_equal_under(sigma: Substitution, a, b) -> bool:
    """Structural equality of two terms modulo the substitution."""
    return pairs_equal_under(sigma, [(a, b)])
