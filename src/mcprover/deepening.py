"""Iterative-deepening depth-first proof search with backtracking.

Each depth-bounded round is one loop over an explicit stack of choice points,
as leanCoP backtracks (Otten & Bibel 2003): an expanded state pushes a record
of its untried successors, the loop tries the next successor of the top
record, and a record with none left is popped. A record's head literal is
closed once the goal stack falls back to the record's target height (the
goals below plus the head's remainder). The optional cut commits to such a
closure: the outermost literal it closed keeps no alternatives and the records
above it are dropped (Otten 2010). This prunes heavily but loses completeness.

During the final (successful) deepening round the search can record literal
outcome statistics: a goal literal counts as a success when a reduction
applied or an extension's opened subgoals all closed (the clause literal it
connected to shares that success), and as a failure when every alternative
was exhausted without a closure.

One table of successor lists serves every round of a search, so that a
deeper round does not recompute the expansions an earlier round made. A
state's list enters the table when its designated goal lies below the
round's depth bound, and a deeper bound gives the same list for such a goal.
It enters only when its parent's list is kept (or it is the root), so every
entry stays reachable through kept lists in every later round and no slot
holds a dead entry; a list computed afresh holds new states, which the table
does not know. A list is kept with its extension count, and a reused list is
charged that count and budget-checked like a computed one, so every outcome,
count and event is unchanged. On branching problems the states below the
bound multiply with every round, so the table holds at most
_KEPT_EXPANSIONS lists and evicts none: each round walks the top of the
tree first, so the lists kept first are the ones every later round asks
for, and FIFO eviction would throw out exactly those on any search larger
than the cap.

`prove_iterative` pauses Python's cyclic collector for the search and
restores the caller's setting when it returns or raises. Choice points,
states and kept lists form no reference cycles, so refcounting frees
whatever a round drops; the collector would only traverse the kept table
and the live stack again and again.
"""

from __future__ import annotations

import gc
import time
from collections.abc import Iterator
from dataclasses import dataclass, field, replace

from .calculus import (
    Action,
    CalculusOptions,
    Extension,
    Goal,
    LemmaStep,
    ProverState,
    extension_count,
    has_applicable_extension,
    initial_state,
    successors,
)
from .checker import ProofCertificate, certificate_for
from .terms import Matrix, TOP_PREDICATE
from .trainstore import KeyTable, LiteralKey

# The most successor lists one search keeps. A chain keeps one
# list per depth level, but on branching problems the states below the bound
# multiply with the depth, and so would the memory kept without a cap.
_KEPT_EXPANSIONS = 1 << 10


@dataclass
class DeepeningOptions:
    start_depth: int = 1
    increment: int = 1
    max_depth: int | None = None
    cut: bool = False
    time_budget: float | None = None
    inference_budget: int | None = None
    collect_training: bool = False
    calculus: CalculusOptions = field(default_factory=CalculusOptions)

    def __post_init__(self):
        if self.start_depth < 1 or self.increment < 1:
            raise ValueError("depth schedule requires start >= 1 and increment >= 1")
        if self.max_depth is not None and self.max_depth < self.start_depth:
            raise ValueError(f"max depth {self.max_depth} is below the start depth {self.start_depth}")


@dataclass(frozen=True)
class TrainingEvent:
    key: LiteralKey
    success: bool


@dataclass
class Proof:
    certificate: ProofCertificate
    final_state: ProverState
    depth: int


@dataclass
class Saturated:
    depth: int
    complete: bool = True
    reason: str = ""


@dataclass
class Timeout:
    reason: str = "time"


@dataclass
class RunStats:
    extension_inferences: int = 0  # extension successors of every expanded state
    rounds: int = 0


@dataclass
class DeepeningResult:
    outcome: Proof | Saturated | Timeout
    stats: RunStats
    events: list = field(default_factory=list)

    @property
    def proved(self) -> bool:
        return isinstance(self.outcome, Proof)


class _OutOfBudget(Exception):
    """The time or inference budget is spent; the one argument says which."""


@dataclass(slots=True, eq=False)
class _ChoicePoint:
    """An expanded state: its untried successors and how far its head is proved."""

    untried: Iterator
    goal: Goal
    target: int  # goal-stack height once the head is closed: the goals below plus its remainder
    kept: bool  # its successor list is kept for later rounds
    action: Action | None = None  # the successor being tried, until it first closes the head
    closed_any: bool = False
    head_emitted: bool = False


class _DepthSearch:
    """The depth-bounded exhaustive searches of one deepening run, one round
    per `run` call, and the successor lists they keep for each other."""

    def __init__(self, matrix, options, deadline, stats, key_table):
        self.matrix = matrix
        self.options = options
        self.deadline = deadline
        self.stats = stats
        self.keys = key_table
        self.kept: dict = {}  # state -> (successor list, extension count), for every round

    def run(self, root: ProverState, bound: int):
        """The first closed state within `bound`, or None once every choice is spent."""
        self.calc = replace(self.options.calculus, depth_bound=bound)
        self.bound_hit = False
        self.events: list = []
        stack = [self._expand(root, True)]
        while stack:
            top = stack[-1]
            state = next(top.untried, None)
            if state is None:
                stack.pop()
                if self.keys is not None and not top.closed_any:
                    self._emit(top.goal.clause_index, top.goal.literal_indices[0], False)
                continue
            top.action = state.trail[0]
            height = len(state.goals)
            # `state` closes the records of target `height`, innermost first, up
            # to one whose head leaves a remainder open; records of a higher
            # target hold literals closed earlier
            lowest = None
            for index in range(len(stack) - 1, -1, -1):
                point = stack[index]
                if point.target < height:
                    break
                if point.target == height:
                    self._closed(point)
                    lowest = index
                    if len(point.goal.clause) > 1:
                        break
            if not height:
                return state
            if lowest is not None and self.options.cut:
                # commit to this closure of the outermost closed literal
                stack[lowest].untried = iter(())
                del stack[lowest + 1:]
            stack.append(self._expand(state, top.kept))
        return None

    def _expand(self, state: ProverState, parent_kept: bool) -> _ChoicePoint:
        if self.deadline is not None and time.monotonic() > self.deadline:
            raise _OutOfBudget("time")
        cap = self.options.inference_budget
        if cap is not None and self.stats.extension_inferences > cap:
            raise _OutOfBudget("inferences")
        goal = state.goals[-1]
        # only a state whose parent's list is kept can have an entry; it gets
        # one when expanded below the bound while there is room, and keeps it
        entry = self.kept.get(state) if parent_kept else None
        kept = entry is not None
        if not kept:
            succs = successors(state, self.matrix, self.calc)
            entry = (succs, extension_count(succs))
            if parent_kept and goal.depth < self.calc.depth_bound and len(self.kept) < _KEPT_EXPANSIONS:
                self.kept[state] = entry
                kept = True
        self.stats.extension_inferences += entry[1]
        if not self.bound_hit and goal.depth >= self.calc.depth_bound:
            self.bound_hit = has_applicable_extension(state, self.matrix)
        return _ChoicePoint(iter(entry[0]), goal, len(state.goals) - 1 + (len(goal.clause) > 1), kept)

    def _closed(self, point: _ChoicePoint):
        """Record that the point's head literal closed; an extension's later
        closures, found by backtracking into its subgoals, add no events."""
        action, point.action = point.action, None
        point.closed_any = True
        if self.keys is None or action is None or isinstance(action, LemmaStep):
            return
        if not point.head_emitted:
            point.head_emitted = True
            self._emit(point.goal.clause_index, point.goal.literal_indices[0], True)
        if isinstance(action, Extension):
            connected = self.matrix.clauses[action.clause].literals[action.literal]
            if connected.predicate != TOP_PREDICATE:
                self._emit(action.clause, action.literal, True)

    def _emit(self, clause_index: int, literal_index: int, success: bool):
        self.events.append(TrainingEvent(self.keys.key(clause_index, literal_index), success))


def prove_iterative(matrix: Matrix, options: DeepeningOptions | None = None) -> DeepeningResult:
    """Deepening rounds until a proof, exhaustion, or a spent budget."""
    options = options or DeepeningOptions()
    stats = RunStats()
    if not matrix.has_positive_start:
        return DeepeningResult(Saturated(0, complete=True, reason="no positive start clause"), stats)
    deadline = time.monotonic() + options.time_budget if options.time_budget else None
    search = _DepthSearch(matrix, options, deadline, stats, KeyTable(matrix) if options.collect_training else None)
    collecting = gc.isenabled()
    gc.disable()
    try:
        return _deepen(search, matrix, options, stats)
    finally:
        if collecting:
            gc.enable()


def _deepen(search: _DepthSearch, matrix: Matrix, options: DeepeningOptions, stats: RunStats) -> DeepeningResult:
    depth = options.start_depth
    root = initial_state(matrix)
    while True:
        stats.rounds += 1
        try:
            final = search.run(root, depth)
        except _OutOfBudget as spent:
            return DeepeningResult(Timeout(spent.args[0]), stats)
        if final is not None:
            proof = Proof(certificate_for(final, matrix), final, depth)
            return DeepeningResult(proof, stats, search.events)
        if not search.bound_hit:
            reason = "" if not options.cut else "exhausted under cut"
            return DeepeningResult(Saturated(depth, complete=not options.cut, reason=reason), stats)
        if options.max_depth is not None and depth >= options.max_depth:
            return DeepeningResult(Saturated(depth, complete=False, reason="depth cap reached"), stats)
        depth += options.increment
