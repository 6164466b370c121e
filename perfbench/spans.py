"""Spans and counts around calls into the prover's modules.

Tracing replaces module attributes with timing wrappers for the duration of
a `tracing()` block, so the prover itself is unchanged. Each wrapped call is
a span: its time is added to the span's inclusive total (outermost call of
that name only, so recursion is not counted twice) and, minus the time of
the spans it called, to its self time. Spans are aggregated per name in
memory; `Tracer.take()` hands over the aggregate of one phase (set-up, or
one pass) and starts the next.

Module functions are wrapped in the namespace of the module that calls
them (`calculus.unify_args`, not `unification.unify_args`), because the
callers bound the names at import time.
"""

from __future__ import annotations

import contextlib
import gc
import time
from collections import defaultdict

from mcprover import calculus, checker, clausify, deepening, mcts, proving, tptp, trainstore

import workloads


class SpanStats:
    __slots__ = ("calls", "total", "self_time", "counts")

    def __init__(self):
        self.calls = 0
        self.total = 0.0
        self.self_time = 0.0
        self.counts: dict = defaultdict(int)

    def as_dict(self) -> dict:
        return {"calls": self.calls, "total_s": self.total, "self_s": self.self_time, **self.counts}


class Tracer:
    def __init__(self):
        self.spans: dict = defaultdict(SpanStats)
        self._stack: list = []        # per open span: time spent in its child spans
        self._open: dict = defaultdict(int)
        self._gc_started = 0.0

    def wrap(self, name: str, fn, on_call=None):
        """`fn` wrapped in a span; `on_call(stats, args, result)` adds counts."""
        spans, stack, open_ = self.spans, self._stack, self._open
        clock = time.perf_counter

        def traced(*args, **kwargs):
            stack.append(0.0)
            open_[name] += 1
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                children = stack.pop()
                open_[name] -= 1
                stats = spans[name]
                stats.calls += 1
                stats.self_time += elapsed - children
                if not open_[name]:
                    stats.total += elapsed
                if stack:
                    stack[-1] += elapsed
            if on_call is not None:
                on_call(stats, args, result)
            return result

        return traced

    def _on_gc(self, phase: str, info: dict):
        if phase == "start":
            self._gc_started = time.perf_counter()
            return
        stats = self.spans["gc"]
        stats.calls += 1
        stats.total += time.perf_counter() - self._gc_started
        if info.get("generation") == 2:
            stats.counts["gen2"] += 1

    def settle(self):
        """`workloads.settle` without counting its collection as a pause."""
        gc.callbacks.remove(self._on_gc)
        try:
            gc.collect()
        finally:
            gc.callbacks.append(self._on_gc)

    def take(self) -> dict:
        """The per-name aggregate since the last call, as plain dicts."""
        taken = {name: stats.as_dict() for name, stats in self.spans.items()}
        self.spans.clear()
        return taken


def _count(key, measure):
    def on_call(stats, args, result):
        stats.counts[key] += measure(args, result)
    return on_call


def _patches(tracer: Tracer) -> list:
    """(owner, attribute, wrapper) for every traced call site."""
    w = tracer.wrap
    unify = w("unification.unify", calculus.unify_args, _count("ok", lambda a, r: r is not None))
    successors = w("calculus.successors", calculus.successors, _count("out", lambda a, r: len(r)))
    keytable = w("trainstore.keytable", trainstore.KeyTable)
    game, store = proving.ConnectionGame, trainstore.Store
    return [
        (tptp, "load_problem", w("tptp.parse", tptp.load_problem)),
        (tptp, "parse_problem", w("tptp.parse", tptp.parse_problem)),
        (clausify, "clausify", w("clausify", clausify.clausify)),
        (clausify, "prepare_matrix", w("clausify", clausify.prepare_matrix)),
        (calculus, "unify_args", unify),
        (checker, "unify_args", unify),
        (calculus, "literals_equal_under", w("unification.equal_under", calculus.literals_equal_under)),
        (deepening, "successors", successors),
        (proving, "successors", successors),
        (deepening, "prove_iterative",
         w("deepening", deepening.prove_iterative, _count("rounds", lambda a, r: r.stats.rounds))),
        (mcts, "run", w("mcts.run", mcts.run, _mcts_run_counts)),
        (mcts, "mcts_step", w("mcts.step", mcts.mcts_step)),
        (mcts, "simulate", w("mcts.simulate", mcts.simulate, _count("states", lambda a, r: len(r[0])))),
        (game, "successors", w("proving.successors", game.successors)),
        (game, "reward", w("proving.reward", game.reward)),
        (game, "weights", w("proving.weights", game.weights)),
        (checker, "check_proof",
         w("checker", checker.check_proof, _count("actions", lambda a, r: len(a[1].actions)))),
        (deepening, "KeyTable", keytable),
        (proving, "KeyTable", keytable),
        (store, "record_events",
         w("trainstore.store", store.record_events, _count("events", lambda a, r: len(a[1])))),
        (store, "dumps", w("trainstore.store", store.dumps)),
        (store, "loads", staticmethod(w("trainstore.store", store.loads))),
        (workloads, "settle", tracer.settle),
    ]


def _mcts_run_counts(stats, args, result):
    stats.counts["iterations"] += result.stats.iterations
    stats.counts["depth_max"] = max(stats.counts["depth_max"], result.stats.max_tree_depth)


@contextlib.contextmanager
def tracing(tracer: Tracer):
    """Install the wrappers and the gc callback; restore everything on exit."""
    patches = _patches(tracer)
    saved = [(owner, name, owner.__dict__[name]) for owner, name, _ in patches]
    for owner, name, wrapper in patches:
        setattr(owner, name, wrapper)
    gc.callbacks.append(tracer._on_gc)
    try:
        yield tracer
    finally:
        gc.callbacks.remove(tracer._on_gc)
        for owner, name, original in saved:
            setattr(owner, name, original)
