"""A fixed reference kernel that shows how fast the host runs right now.

The kernel does the prover's kind of work without using the prover: it
walks chains of parent-linked binding cells scattered over a few megabytes
(as `Substitution.lookup` walks its chain) and compares nested terms with an
explicit stack (as the regularity test does). Its code never changes with
the prover's, so a change in its time is a change in the host's speed.

run.py times it just before every attempt and scales the attempt times by
it (see there). On the 2-core VM the benchmark was written on, the kernel
and the prover slowed down together in the host's slow phases; a smaller
pure-Python loop without the scattered heap did not, and was dropped.
"""

from __future__ import annotations

import random
import time

CELLS = 20000      # about 4 MB of cells, more than the caches close to a core
ROUNDS = 60        # about 0.5 ms per call on that VM


class _Cell:
    __slots__ = ("bindings", "parent")

    def __init__(self, bindings: dict, parent):
        self.bindings = bindings
        self.parent = parent


class _Term:
    __slots__ = ("functor", "args")

    def __init__(self, functor: str, args: tuple):
        self.functor = functor
        self.args = args


def _nested(depth: int) -> _Term:
    term = _Term("a", ())
    for _ in range(depth):
        term = _Term("f", (term, _Term("a", ())))
    return term


class Reference:
    def __init__(self):
        rng = random.Random(0)
        cells: list = []
        for i in range(CELLS):
            parent = cells[rng.randrange(len(cells))] if i % 16 else None
            cells.append(_Cell({i % 97: (i, i + 1)}, parent))
        rng.shuffle(cells)
        self._cells = cells
        self._terms = [(_nested(d), _nested(d)) for d in range(1, 12)]
        self._calls = 0

    def seconds(self) -> float:
        """Time of one run of the kernel."""
        cells, terms = self._cells, self._terms
        start = self._calls * 7919
        self._calls += 1
        started = time.perf_counter()
        for r in range(ROUNDS):
            cell = cells[(start + r * 104729) % CELLS]
            key = r % 97
            while cell is not None and key not in cell.bindings:
                cell = cell.parent
            stack = [terms[r % len(terms)]]
            while stack:
                x, y = stack.pop()
                if x.functor != y.functor or len(x.args) != len(y.args):
                    break
                stack.extend(zip(x.args, y.args))
        return time.perf_counter() - started
