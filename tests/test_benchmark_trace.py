"""The benchmark's trace mode still finds every prover name it wraps.

`perfbench/spans.py` replaces module and class attributes of the prover for
the length of a `tracing()` block. A rename in the prover breaks only
`perfbench/run.py --trace 1`, so this checks here that each patched
attribute exists, is replaced inside the block and is restored after it.
"""

import os

import pytest

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
