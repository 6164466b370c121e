"""Generic single-player Monte Carlo tree search with UCT selection.

Problems plug in via MctsProblem: a successor relation, weights that bias
the random draw among one state's successors, a reward in [0, 1] and a
success test. A solution is the success state a playout reaches; a problem
that needs the path to it keeps the path in its states. One search iteration
selects a tree node by UCT, draws one of its unexplored successor states
(weight-biased), adds a single new leaf, runs a non-backtracking random
playout, and backpropagates the playout reward to the root. The order of the
middle steps depends on the expansion policy:

- first: the drawn state becomes the leaf, with its successors unexplored,
  before the playout from it; the playout's first step asks for the same
  successors again. An iteration that later selects the leaf draws one of
  those same successor objects, whose own successors the playout may
  already have asked for.
- best: the playout runs from the drawn state first; the leaf is then the
  state with the fewest open subgoals along it (the earliest on a tie).

A node's state lives only until its successors are requested. Nodes left
with neither children nor unexplored successors are deleted, so hopeless
subtrees stop attracting exploration; a fully deleted tree means the whole
space was searched.

Nodes keep no parent pointers and jumps point down, so a tree holds no
reference cycles. `run` pauses Python's cyclic collector for the search and
restores the caller's setting when it returns or raises: refcounting frees
every node, state and list a search drops, and the collector would only
traverse the live tree again and again. A problem whose states or lists
form cycles keeps them until the collector next runs after the search.

A node is forced when it has no unexplored successor and one child; it stays
forced until deleted, since children are added only to nodes with unexplored
successors and a forced node that loses its child is dead. Selection at a
forced node with a forced child follows `jump` links (descendant, edge count)
to the first node that is not forced and repoints its own jump there.
Backpropagation updates only the nodes selection stops at. The nodes a jump skips are never read: a
forced node evaluates no UCT, a child's mean and visits are read only while
its parent is not forced, and no jump passes a node that is not forced. So
every value the engine reads gets the same float additions in the same order
as with a step per node. The tree depth adds up the edges of the hops; when a
hop's end dies, the run above it dies too, each edge a deletion.

Bookkeeping note: every node except the root receives one visit when it is
created, so for consistency checks

    visits == (0 if root else 1) + sum(child visits) + deleted_visits

where deleted_visits accumulates the visit counts of deleted children. No
jump skips a node that is not forced or whose parent is not forced, so the
equation holds at each such node, reading a skipped child's visits as its own
right-hand side.
"""

from __future__ import annotations

import gc
import math
import random
import time
from dataclasses import dataclass


class MctsProblem:
    """Base class for pluggable problem definitions. Implementations must be
    pure over immutable states; the engine may call them in any order."""

    def initial_state(self):
        raise NotImplementedError

    def successors(self, state) -> list:
        """The successor states of `state`. The engine only reads the list,
        so an implementation may keep lists for many states and return the
        same list object again when asked for the same state; what such a
        request is charged is the problem's business."""
        raise NotImplementedError

    def weights(self, candidates) -> list:
        """Transition weights of `candidates`, the successors of one state,
        which bias the expansion and playout draws; uniform by default."""
        return [1.0] * len(candidates)

    def reward(self, state) -> float:
        raise NotImplementedError

    def is_success(self, state) -> bool:
        raise NotImplementedError

    def openness(self, state) -> int:
        """Number of open subgoals, used by best-node expansion. Problems
        without such a notion may keep the constant default."""
        return 0


@dataclass
class SearchConfig:
    cp_base: float = 1.0 / math.sqrt(2.0)
    cp_amplitude: float = 0.0
    cp_period: float = 0.0
    max_sim_depth: int = 20
    max_iterations: int | None = None
    time_budget: float | None = None
    expansion: str = "first"  # first | best
    seed: int = 0

    def __post_init__(self):
        # NaN fails every comparison, so each check below rejects it
        if not 0 < self.cp_base < math.inf:
            raise ValueError("exploration constant must be positive and finite")
        if not 0 <= self.cp_amplitude < self.cp_base:
            raise ValueError("oscillation amplitude must be nonnegative and below the base constant")
        if not math.isfinite(self.cp_period) or (self.cp_amplitude > 0 and self.cp_period <= 0):
            raise ValueError("oscillation requires a positive finite period")
        if self.max_sim_depth < 1:
            raise ValueError("simulation depth must be at least 1")
        if self.expansion not in ("first", "best"):
            raise ValueError(f"unknown expansion policy {self.expansion!r}")


def uct_value(mean: float, visits: int, parent_visits: int, cp: float) -> float:
    return mean + cp * math.sqrt(2.0 * math.log(parent_visits) / visits)


def uct_key(parent_visits: int, cp: float):
    """Child -> uct_value of its mean, with the parent term computed once.
    The float operations and their order match uct_value exactly, so
    selections and ties are the same."""
    spread = 2.0 * math.log(parent_visits)
    return lambda c: c.reward_sum / c.visits + cp * math.sqrt(spread / c.visits)


def cp_schedule(iteration: int, config: SearchConfig) -> float:
    if config.cp_amplitude == 0:
        return config.cp_base
    return config.cp_base + config.cp_amplitude * math.sin(
        2.0 * math.pi * iteration / config.cp_period
    )


def draw_index(rng: random.Random, weights) -> int:
    total = 0.0
    for w in weights:
        if w <= 0:
            raise ValueError("transition weights must be positive")
        total += w
    x = rng.random() * total
    acc = 0.0
    for i, w in enumerate(weights):
        acc += w
        if x < acc:
            return i
    return len(weights) - 1


def _draw(problem: MctsProblem, candidates: list, rng: random.Random) -> int:
    """A weight-biased index into `candidates`; a lone candidate takes no
    random number."""
    if len(candidates) == 1:
        return 0
    return draw_index(rng, problem.weights(candidates))


def simulate(start, problem: MctsProblem, max_depth: int, rng: random.Random):
    """Random playout from `start`, no backtracking. Returns the sequence of
    states after `start` plus whether the last state reached is a success."""
    states = []
    state = start
    while len(states) < max_depth:
        if problem.is_success(state):
            break
        succs = problem.successors(state)
        if not succs:
            break
        state = succs[_draw(problem, succs, rng)]
        states.append(state)
    return states, problem.is_success(state)


class MctsNode:
    __slots__ = ("children", "unexplored", "visits", "reward_sum", "deleted_visits", "jump")

    def __init__(self):
        self.children: list = []
        self.unexplored: list = []
        self.visits = 0
        self.reward_sum = 0.0
        self.deleted_visits = 0
        self.jump = None  # (descendant, edges) set by selection while forced


@dataclass
class SearchStats:
    iterations: int = 0
    deletions: int = 0
    max_tree_depth: int = 0
    best_reward: float = -1.0
    best_state: object = None


def _leaf(problem: MctsProblem, state) -> MctsNode:
    """A new tree node with the successors of `state` unexplored."""
    leaf = MctsNode()
    if not problem.is_success(state):
        leaf.unexplored = list(problem.successors(state))
    return leaf


class MctsTree:
    def __init__(self, problem: MctsProblem, root_state):
        self.problem = problem
        self.root = _leaf(problem, root_state)
        self.stats = SearchStats()

    @property
    def exhausted(self) -> bool:
        return not self.root.unexplored and not self.root.children


def mcts_step(tree: MctsTree, config: SearchConfig, rng: random.Random, iteration: int):
    """One selection/simulation/expansion/backpropagation round.

    Returns the success state when the playout reached one, else None.
    """
    problem = tree.problem
    stats = tree.stats
    cp = cp_schedule(iteration, config)

    # root-to-leaf path of the selection's hops; nodes keep no parent pointers
    # and jumps point down, so finished trees hold no reference cycles and are
    # freed by refcounting
    node = tree.root
    path = [node]
    skipped = 0  # edges of the hops beyond the first of each
    while not node.unexplored:
        children = node.children
        if not children:
            return None  # dead root; run() reports exhaustion
        if len(children) > 1:
            node = max(children, key=uct_key(node.visits, cp))
        elif children[0].unexplored or len(children[0].children) != 1:
            node = children[0]  # a run of one forced node needs no jump
        else:
            start, (node, edges) = node, node.jump or (children[0], 1)
            while not node.unexplored and len(node.children) == 1:
                node, more = node.jump or (node.children[0], 1)
                edges += more
            start.jump = (node, edges)
            skipped += edges - 1
        path.append(node)

    action_state = node.unexplored.pop(_draw(problem, node.unexplored, rng))

    # first-node expansion builds the leaf before the playout, whose first
    # step then asks the problem for the same successors again
    child = _leaf(problem, action_state) if config.expansion == "first" else None
    playout, success = simulate(action_state, problem, config.max_sim_depth, rng)
    final = playout[-1] if playout else action_state
    reward = problem.reward(final)
    if not 0.0 <= reward <= 1.0:
        raise ValueError(f"reward {reward} outside [0, 1]")

    if child is None:
        chain = [action_state, *playout]
        pick = min(range(len(chain)), key=lambda i: (problem.openness(chain[i]), i))
        child = _leaf(problem, chain[pick])
    node.children.append(child)
    path.append(child)
    stats.max_tree_depth = max(stats.max_tree_depth, len(path) - 1 + skipped)

    for walk in path:
        walk.visits += 1
        walk.reward_sum += reward

    if reward > stats.best_reward:
        stats.best_reward = reward
        stats.best_state = final

    i = len(path) - 1
    while i > 0 and not path[i].unexplored and not path[i].children:
        dead, parent = path[i], path[i - 1]
        if parent.jump is None:
            parent.children.remove(dead)
            parent.deleted_visits += dead.visits
            stats.deletions += 1
        else:
            # the parent jumped here over a run that dies with it; its count is exact
            parent.children.clear()
            parent.deleted_visits = parent.visits - (0 if i == 1 else 1)
            stats.deletions += parent.jump[1]
        i -= 1

    return final if success else None


@dataclass
class Solution:
    final_state: object


@dataclass
class Exhausted:
    pass


@dataclass
class BudgetSpent:
    reason: str


@dataclass
class MctsResult:
    outcome: Solution | Exhausted | BudgetSpent
    stats: SearchStats

    @property
    def solved(self) -> bool:
        return isinstance(self.outcome, Solution)


def run(problem: MctsProblem, config: SearchConfig | None = None, stop=None) -> MctsResult:
    """Iterate mcts_step until a solution, exhaustion, a spent budget, or
    `stop()` returning true, which is asked before every iteration.

    The random stream is a single seeded generator per search, consumed only
    by the unexplored-action draw and the playout steps, so equal seeds give
    identical traces.
    """
    config = config or SearchConfig()
    collecting = gc.isenabled()
    gc.disable()
    try:
        return _search(problem, config, stop)
    finally:
        if collecting:
            gc.enable()


def _search(problem: MctsProblem, config: SearchConfig, stop) -> MctsResult:
    started = time.monotonic()
    rng = random.Random(config.seed)

    init = problem.initial_state()
    if problem.is_success(init):
        stats = SearchStats(best_reward=problem.reward(init), best_state=init)
        return MctsResult(Solution(init), stats)

    tree = MctsTree(problem, init)
    stats = tree.stats
    deadline = started + config.time_budget if config.time_budget else None
    iteration = 0
    while True:
        if tree.exhausted:
            outcome: Solution | Exhausted | BudgetSpent = Exhausted()
            break
        if config.max_iterations is not None and iteration >= config.max_iterations:
            outcome = BudgetSpent("iterations")
            break
        if deadline is not None and time.monotonic() > deadline:
            outcome = BudgetSpent("time")
            break
        if stop is not None and stop():
            outcome = BudgetSpent("stopped")
            break
        iteration += 1
        stats.iterations = iteration
        final = mcts_step(tree, config, rng, iteration)
        if final is not None:
            outcome = Solution(final)
            break
    return MctsResult(outcome, stats)
