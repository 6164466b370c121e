"""The benchmark's trace mode still finds every prover name it wraps.

`perfbench/spans.py` replaces module and class attributes of the prover for
the length of a `tracing()` block. A rename in the prover breaks only
`perfbench/run.py --trace 1`, so this checks here that each patched
attribute exists, is replaced inside the block and is restored after it,
and that a traced call still counts one unification per candidate tried.
"""

import os

import pytest

from conftest import matrix_of
from mcprover import calculus

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench")


@pytest.fixture
def spans(monkeypatch):
    monkeypatch.syspath_prepend(PERFBENCH)
    import spans

    return spans


def test_tracing_patches_and_restores_every_attribute(spans):
    patched = [(owner, name) for owner, name, _ in spans._patches(spans.Tracer())]
    originals = [owner.__dict__[name] for owner, name in patched]
    with spans.tracing(spans.Tracer()):
        for (owner, name), original in zip(patched, originals):
            assert owner.__dict__[name] is not original, f"{owner.__name__}.{name}"
    for (owner, name), original in zip(patched, originals):
        assert owner.__dict__[name] is original, f"{owner.__name__}.{name}"


def test_each_extension_candidate_is_one_traced_unification(spans):
    """A head with three unifiable candidates and no reduction partner on its
    path makes three `unification.unify` calls."""
    m = matrix_of("cnf(c0, axiom, p(a)).\ncnf(c1, axiom, ~p(X) | q(X)).\n"
                  "cnf(c2, axiom, ~p(a)).\ncnf(c3, axiom, ~p(Y)).\n")
    state, = calculus.successors(calculus.initial_state(m), m)  # top -> p(a)
    tracer = spans.Tracer()
    with spans.tracing(tracer):
        assert len(calculus.successors(state, m)) == 3
    unify = tracer.take()["unification.unify"]
    assert (unify["calls"], unify["ok"]) == (3, 3)


def test_ground_head_settled_under_sigma_makes_no_traced_unification(spans):
    """The ground head p(a) repeats the path's p(X), X bound to a, under the
    state's σ, so its one candidate, ~p(a) of c2, is tried only without
    regularity."""
    m = matrix_of("cnf(c0, axiom, p(X) | q(X)).\ncnf(c1, axiom, ~q(a)).\ncnf(c2, axiom, ~p(a) | p(a)).\n")
    state = calculus.initial_state(m)
    for clause in (0, 2):  # top -> c0, goal p(X) | q(X) -> c2, goal p(a)
        state = next(x for x in calculus.successors(state, m) if x.trail[0].clause == clause)
    tracer = spans.Tracer()
    with spans.tracing(tracer):
        assert calculus.successors(state, m) == []
        assert "unification.unify" not in tracer.take()
        assert len(calculus.successors(state, m, calculus.CalculusOptions(regularity=False))) == 1
        assert tracer.take()["unification.unify"]["calls"] == 1
