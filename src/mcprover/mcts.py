"""Generic single-player Monte Carlo tree search with UCT selection.

Problems plug in via MctsProblem: a successor relation, transition weights
that bias random playouts, a reward in [0, 1] and a success test. One search
iteration selects a tree node by UCT, draws one of its unexplored successor
states (weight-biased), adds a single new leaf, runs a non-backtracking
random playout, and backpropagates the playout reward to the root. The order
of the middle steps depends on the expansion policy:

- first: the drawn state becomes the leaf, with its successors unexplored,
  before the playout from it; the playout's first step asks for the same
  successors again.
- best: the playout runs from the drawn state first; the leaf is then the
  state with the fewest open subgoals along it (the earliest on a tie).

Nodes left with neither children nor unexplored successors are deleted, so
hopeless subtrees stop attracting exploration; a fully deleted tree means the
whole space was searched.

Bookkeeping note: every node except the root receives one visit when it is
created, so for consistency checks

    visits == (0 if root else 1) + sum(child visits) + deleted_visits

where deleted_visits accumulates the visit counts of deleted children.
"""

from __future__ import annotations

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
        so an implementation may return the same list object again when
        asked for the same state."""
        raise NotImplementedError

    def weights(self, state, candidates) -> list:
        """Transition weights of the candidate successors of `state`, which
        bias random playouts; uniform by default."""
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
    reward_goal: float | None = None

    def validate(self):
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


def simulate(start, problem: MctsProblem, max_depth: int, rng: random.Random):
    """Random playout from `start`, no backtracking. Returns the sequence of
    states after `start` plus whether the last state reached is a success."""
    trajectory = []
    state = start
    while len(trajectory) < max_depth:
        if problem.is_success(state):
            break
        succs = problem.successors(state)
        if not succs:
            break
        if len(succs) == 1:
            state = succs[0]
        else:
            state = succs[draw_index(rng, problem.weights(state, succs))]
        trajectory.append(state)
    return trajectory, problem.is_success(state)


class MctsNode:
    __slots__ = ("state", "children", "unexplored", "visits", "reward_sum", "deleted_visits")

    def __init__(self, state):
        self.state = state
        self.children: list = []
        self.unexplored: list = []
        self.visits = 0
        self.reward_sum = 0.0
        self.deleted_visits = 0


@dataclass
class SearchStats:
    iterations: int = 0
    deletions: int = 0
    max_tree_depth: int = 0
    best_reward: float = -1.0
    best_state: object = None


class MctsTree:
    def __init__(self, problem: MctsProblem, root_state):
        self.problem = problem
        self.root = MctsNode(root_state)
        self.root.unexplored = list(problem.successors(root_state))
        self.stats = SearchStats()

    @property
    def exhausted(self) -> bool:
        return not self.root.unexplored and not self.root.children


def _leaf(problem: MctsProblem, state) -> MctsNode:
    """A new tree node for `state`, with its successors unexplored."""
    leaf = MctsNode(state)
    if not problem.is_success(state):
        leaf.unexplored = list(problem.successors(state))
    return leaf


def mcts_step(tree: MctsTree, config: SearchConfig, rng: random.Random, iteration: int):
    """One selection/simulation/expansion/backpropagation round.

    Returns the list of states from the root to a success state when the
    playout finished a solution, else None.
    """
    problem = tree.problem
    stats = tree.stats
    cp = cp_schedule(iteration, config)

    # root-to-leaf path of the selection; nodes keep no parent pointers, so
    # finished trees hold no reference cycles and are freed by refcounting
    node = tree.root
    path = [node]
    while not node.unexplored:
        children = node.children
        if not children:
            return None  # dead root; run() reports exhaustion
        node = children[0] if len(children) == 1 else max(children, key=uct_key(node.visits, cp))
        path.append(node)

    if len(node.unexplored) == 1:
        idx = 0
    else:
        idx = draw_index(rng, problem.weights(node.state, node.unexplored))
    action_state = node.unexplored.pop(idx)

    # first-node expansion builds the leaf before the playout, whose first
    # step then asks the problem for the same successors again
    child = _leaf(problem, action_state) if config.expansion == "first" else None
    trajectory, success = simulate(action_state, problem, config.max_sim_depth, rng)
    chain = [action_state] + trajectory
    final = chain[-1]
    reward = problem.reward(final)
    if not 0.0 <= reward <= 1.0:
        raise ValueError(f"reward {reward} outside [0, 1]")

    if child is None:
        pick = min(range(len(chain)), key=lambda i: (problem.openness(chain[i]), i))
        child = _leaf(problem, chain[pick])
    node.children.append(child)
    path.append(child)
    stats.max_tree_depth = max(stats.max_tree_depth, len(path) - 1)

    for walk in path:
        walk.visits += 1
        walk.reward_sum += reward

    if reward > stats.best_reward:
        stats.best_reward = reward
        stats.best_state = final

    i = len(path) - 1
    while i > 0 and not path[i].unexplored and not path[i].children:
        dead, parent = path[i], path[i - 1]
        parent.children.remove(dead)
        parent.deleted_visits += dead.visits
        stats.deletions += 1
        i -= 1

    if success:
        return [walk.state for walk in path[1:-1]] + chain
    return None


@dataclass
class Solution:
    final_state: object
    trajectory: list
    by_reward_goal: bool = False


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
    """Iterate mcts_step until a solution, exhaustion, or a spent budget.

    The random stream is a single seeded generator per search, consumed only
    by the unexplored-action draw and the playout steps, so equal seeds give
    identical traces.
    """
    config = config or SearchConfig()
    config.validate()
    started = time.monotonic()
    rng = random.Random(config.seed)

    init = problem.initial_state()
    if problem.is_success(init):
        stats = SearchStats(best_reward=problem.reward(init), best_state=init)
        return MctsResult(Solution(init, []), stats)

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
        solved_path = mcts_step(tree, config, rng, iteration)
        if solved_path is not None:
            outcome = Solution(solved_path[-1], solved_path)
            break
        if config.reward_goal is not None and stats.best_reward >= config.reward_goal:
            outcome = Solution(stats.best_state, [], by_reward_goal=True)
            break
    return MctsResult(outcome, stats)
