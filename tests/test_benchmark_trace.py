"""The benchmark's trace mode still finds every prover name it wraps.

`perfbench/spans.py` replaces module and class attributes of the prover for
the length of a `tracing()` block. A rename in the prover breaks only
`perfbench/run.py --trace 1`, so this checks here that each patched
attribute exists, is replaced inside the block and is restored after it,
and that a traced call still counts one unification per candidate.
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
