import random

import pytest

from mcprover.terms import App, Literal, Var
from mcprover.unification import EMPTY_SUBSTITUTION, literals_equal_under
from oracles import bindings, factors_through, resolve_literal, resolve_term, terms_equal_under, unify


# --- independent reference unifier (naive, eager substitution) --------------

def ref_apply(sub, t):
    if isinstance(t, Var):
        while isinstance(t, Var) and t.id in sub:
            t = sub[t.id]
        if isinstance(t, Var):
            return t
    if not t.args:
        return t
    return App(t.functor, tuple(ref_apply(sub, a) for a in t.args))


def ref_occurs(var_id, t, sub):
    t = ref_apply(sub, t)
    if isinstance(t, Var):
        return t.id == var_id
    return any(ref_occurs(var_id, a, sub) for a in t.args)


def ref_unify(s, t, sub=None):
    sub = dict(sub or {})
    queue = [(s, t)]
    while queue:
        a, b = queue.pop()
        a = ref_apply(sub, a)
        b = ref_apply(sub, b)
        if a == b:
            continue
        if isinstance(a, Var):
            if ref_occurs(a.id, b, sub):
                return None
            sub[a.id] = b
        elif isinstance(b, Var):
            queue.append((b, a))
        elif a.functor == b.functor and len(a.args) == len(b.args):
            queue.extend(zip(a.args, b.args))
        else:
            return None
    return sub


def random_term(rng, depth, n_vars=4, n_functors=3, max_arity=3):
    if depth == 0 or rng.random() < 0.35:
        if rng.random() < 0.5:
            return Var(rng.randrange(n_vars))
        return App(f"c{rng.randrange(2)}")
    functor = f"f{rng.randrange(n_functors)}"
    arity = rng.randint(1, max_arity)
    return App(functor, tuple(random_term(rng, depth - 1, n_vars) for _ in range(arity)))


# --- basic examples ----------------------------------------------------------

def test_unify_single_binding():
    s = App("p", (Var(0),))
    t = App("p", (App("a"),))
    sigma = unify(EMPTY_SUBSTITUTION, s, t)
    assert sigma is not None
    assert resolve_term(sigma, s) == t


def test_occurs_check():
    assert unify(EMPTY_SUBSTITUTION, Var(0), App("f", (Var(0),))) is None


def test_unify_extends_without_mutating_parent():
    base = EMPTY_SUBSTITUTION.extended({0: App("a")})
    before = bindings(base)
    sigma = unify(base, App("q", (Var(0), Var(1))), App("q", (App("a"), App("b"))))
    assert sigma is not None
    assert bindings(base) == before
    assert resolve_term(sigma, Var(1)) == App("b")
    assert factors_through(sigma, base)


def test_literal_unification_requires_complement():
    a = Literal(True, "p", (Var(0),))
    b = Literal(False, "p", (App("a"),))
    sigma = unify(EMPTY_SUBSTITUTION, a, b)
    assert resolve_term(sigma, Var(0)) == App("a")
    with pytest.raises(ValueError):
        unify(EMPTY_SUBSTITUTION, a, a)


def test_clash_fails():
    assert unify(EMPTY_SUBSTITUTION, App("a"), App("b")) is None
    assert unify(EMPTY_SUBSTITUTION, App("f", (Var(0),)), App("g", (Var(0),))) is None


def test_factors_through_chain():
    s0 = EMPTY_SUBSTITUTION
    s1 = s0.extended({0: App("a")})
    s2 = s1.extended({1: App("b")})
    assert factors_through(s2, s1)
    assert factors_through(s2, s0)
    assert not factors_through(s1, s2)


def test_long_extension_chain_preserves_lookups():
    sigma = EMPTY_SUBSTITUTION
    for i in range(100):
        sigma = sigma.extended({i: App(f"k{i}")})
    for i in range(100):
        assert sigma.lookup(i) == App(f"k{i}")
    assert len(bindings(sigma)) == 100


def test_equal_under_handles_var_chains():
    sigma = EMPTY_SUBSTITUTION.extended({0: Var(1)}).extended({1: App("a")})
    assert terms_equal_under(sigma, Var(0), App("a"))
    assert literals_equal_under(sigma, Literal(True, "p", (Var(0),)), Literal(True, "p", (Var(1),)))
    assert not literals_equal_under(sigma, Literal(True, "p", (Var(0),)), Literal(False, "p", (Var(0),)))


def random_substitution(rng, n_vars=6):
    """Bindings added in a few `extended` steps; a variable is bound only to
    terms over variables later in a random order, so there are no cycles."""
    order = list(range(n_vars))
    rng.shuffle(order)
    sigma = EMPTY_SUBSTITUTION
    batch = {}
    for k, var_id in enumerate(order):
        if rng.random() < 0.6:
            later = order[k + 1:]
            term = random_term(rng, depth=2, n_vars=n_vars)
            batch[var_id] = rename_free(term, later, rng)
        if batch and rng.random() < 0.5:
            sigma = sigma.extended(batch)
            batch = {}
    return sigma.extended(batch) if batch else sigma


def rename_free(t, allowed, rng):
    if isinstance(t, Var):
        return Var(rng.choice(allowed)) if allowed else App("c0")
    return App(t.functor, tuple(rename_free(a, allowed, rng) for a in t.args))


def test_equal_under_agrees_with_resolution_1000():
    rng = random.Random(20261018)
    outcomes = set()
    for _ in range(1000):
        sigma = random_substitution(rng)
        arity = rng.randint(0, 2)
        a, b = (
            Literal(True, "p", tuple(random_term(rng, depth=2, n_vars=6) for _ in range(arity)))
            for _ in range(2)
        )
        expected = resolve_literal(sigma, a) == resolve_literal(sigma, b)
        assert literals_equal_under(sigma, a, b) == expected, (sigma, a, b)
        outcomes.add(expected)
    assert outcomes == {True, False}


# --- randomized agreement with the reference unifier -------------------------

def agreement_case(rng):
    s = random_term(rng, depth=rng.randint(1, 4))
    t = random_term(rng, depth=rng.randint(1, 4))
    ours = unify(EMPTY_SUBSTITUTION, s, t)
    reference = ref_unify(s, t)
    if (ours is None) != (reference is None):
        return False, (s, t, "outcome mismatch")
    if ours is not None:
        if resolve_term(ours, s) != resolve_term(ours, t):
            return False, (s, t, "engine result does not unify")
        if ref_apply(reference, s) != ref_apply(reference, t):
            return False, (s, t, "reference result does not unify")
    return True, None


def test_reference_unifier_agreement_1000():
    rng = random.Random(20240817)
    for _ in range(1000):
        ok, detail = agreement_case(rng)
        assert ok, detail


def test_reference_unifier_fixed_occurs_cases():
    cases = [
        (Var(0), App("f", (Var(0),))),
        (App("f", (Var(0), Var(1))), App("f", (Var(1), App("g", (Var(0),))))),
        (App("f", (Var(0),)), App("f", (App("g", (App("h", (Var(0),)),)),))),
    ]
    for s, t in cases:
        assert unify(EMPTY_SUBSTITUTION, s, t) is None
        assert ref_unify(s, t) is None


# --- bindings that share variables -------------------------------------------

def doubling_bindings(first, n, leaf):
    """Bindings first+i -> g(first+i-1, first+i-1) for i = 1..n, and `first`
    bound to `leaf` unless it is None: the term of variable first+n unfolds
    to 2**n copies of the leaf."""
    bindings = {first + i: App("g", (Var(first + i - 1), Var(first + i - 1))) for i in range(1, n + 1)}
    if leaf is not None:
        bindings[first] = leaf
    return bindings


def test_occurs_check_walks_a_shared_binding_once():
    sigma = EMPTY_SUBSTITUTION.extended(doubling_bindings(0, 60, None))
    assert unify(sigma, Var(0), App("f", (Var(60),))) is None
    bound = unify(sigma, Var(100), App("f", (Var(60),)))
    assert bound is not None and bound.lookup(100) == App("f", (Var(60),))


def test_equal_shared_terms_unify_and_compare_in_dag_time():
    sigma = EMPTY_SUBSTITUTION.extended({
        **doubling_bindings(0, 60, App("a")),
        **doubling_bindings(100, 60, App("a")),
        **doubling_bindings(200, 60, App("b")),
        **doubling_bindings(300, 60, None),
    })
    assert unify(sigma, Var(60), Var(160)) is sigma
    assert terms_equal_under(sigma, Var(60), Var(160))
    assert unify(sigma, Var(60), Var(260)) is None
    assert not terms_equal_under(sigma, Var(60), Var(260))
    bound = unify(sigma, Var(360), Var(60))
    assert bound is not None and bound.lookup(300) == App("a")
    assert not terms_equal_under(sigma, Var(360), Var(60))
