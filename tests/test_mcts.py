import contextlib
import gc
import math
import os
import random
import weakref

import pytest

from conftest import matrix_of
from mcprover import deepening, proving
from mcprover.calculus import ProverState
from mcprover.checker import ProofCertificate, certificate_for
from mcprover.cli import bundled_corpus_dir
from mcprover.clausify import load_matrix
from mcprover.deepening import DeepeningOptions, prove_iterative
from mcprover.guidance import ProvabilityModel, RewardConfig
from mcprover.mcts import (
    BudgetSpent,
    Exhausted,
    MctsNode,
    MctsProblem,
    MctsTree,
    SearchConfig,
    Solution,
    cp_schedule,
    draw_index,
    mcts_step,
    run,
    simulate,
    uct_key,
    uct_value,
)
from mcprover.proving import ConnectionGame
from mcprover.trainstore import Store
from oracles import annotated_corpus, reference_mcts_step

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench")


class InfiniteTree(MctsProblem):
    """Every state branches `width` ways forever; constant reward."""

    def __init__(self, width=3, reward=0.5):
        self.width = width
        self.reward_value = reward

    def initial_state(self):
        return ()

    def successors(self, state):
        return [state + (i,) for i in range(self.width)]

    def reward(self, state):
        return self.reward_value

    def is_success(self, state):
        return False


class RandomRewardTree(InfiniteTree):
    def __init__(self, width=2, seed=0):
        super().__init__(width)
        self.rng = random.Random(seed)

    def reward(self, state):
        return self.rng.random()


class ChainToGoal(MctsProblem):
    """A single line of states ending in a success state."""

    def __init__(self, length):
        self.length = length

    def initial_state(self):
        return 0

    def successors(self, state):
        return [] if state >= self.length else [state + 1]

    def reward(self, state):
        return 1.0 if self.is_success(state) else 0.0

    def is_success(self, state):
        return state == self.length


class DeadEnd(MctsProblem):
    """Finite tree with no success state anywhere."""

    def __init__(self, depth=3, width=2):
        self.depth = depth
        self.width = width

    def initial_state(self):
        return ()

    def successors(self, state):
        if len(state) >= self.depth:
            return []
        return [state + (i,) for i in range(self.width)]

    def reward(self, state):
        return 0.0

    def is_success(self, state):
        return False


class WeightedPick(MctsProblem):
    def __init__(self, weights):
        self._weights = list(weights)

    def initial_state(self):
        return None

    def successors(self, state):
        return list(range(len(self._weights))) if state is None else []

    def weights(self, candidates):
        return [self._weights[c] for c in candidates]

    def reward(self, state):
        return 0.0

    def is_success(self, state):
        return False


# --- formulas -----------------------------------------------------------------

def test_uct_value_zero_case():
    assert uct_value(0.0, 5, 5, 0.0) == 0.0


def test_uct_value_hand_computed():
    expected = 0.5 + math.sqrt(2.0 * math.log(2.0))
    assert abs(uct_value(0.5, 1, 2, 1.0) - expected) < 1e-9


def test_uct_less_visited_sibling_wins():
    assert uct_value(0.4, 1, 5, 1.0) > uct_value(0.4, 4, 5, 1.0)


def test_uct_key_matches_uct_value_bit_for_bit():
    rng = random.Random(20261018)
    for _ in range(10000):
        child = MctsNode()
        child.visits = rng.randint(1, 10 ** rng.randint(1, 6))
        child.reward_sum = rng.random() * child.visits
        parent_visits = child.visits + rng.randint(0, 10 ** rng.randint(1, 6))
        cp = rng.uniform(1e-3, 3.0)
        expected = uct_value(child.reward_sum / child.visits, child.visits, parent_visits, cp)
        assert uct_key(parent_visits, cp)(child).hex() == expected.hex()


def test_cp_schedule_disabled_and_enabled():
    flat = SearchConfig(cp_base=2.0)
    assert cp_schedule(123, flat) == 2.0
    wavy = SearchConfig(cp_base=1.0, cp_amplitude=0.5, cp_period=4.0)
    assert abs(cp_schedule(1, wavy) - 1.5) < 1e-12
    assert abs(cp_schedule(2, wavy) - 1.0) < 1e-12


def test_config_validation():
    with pytest.raises(ValueError):
        SearchConfig(cp_base=0.0)
    with pytest.raises(ValueError):
        SearchConfig(cp_base=1.0, cp_amplitude=1.0, cp_period=4.0)
    with pytest.raises(ValueError):
        SearchConfig(cp_amplitude=0.1, cp_period=0.0)
    with pytest.raises(ValueError):
        SearchConfig(max_sim_depth=0)
    SearchConfig(cp_base=1.0, cp_amplitude=0.5, cp_period=8.0)


# --- simulation ----------------------------------------------------------------

def test_simulate_empty_delta_stops_immediately():
    problem = DeadEnd(depth=0)
    traj, success = simulate((), problem, 10, random.Random(0))
    assert traj == [] and success is False


def test_simulate_success_detection():
    problem = ChainToGoal(3)
    traj, success = simulate(0, problem, 10, random.Random(0))
    assert traj == [1, 2, 3]
    assert success


def test_simulate_respects_depth_cap():
    problem = ChainToGoal(50)
    traj, success = simulate(0, problem, 5, random.Random(0))
    assert len(traj) == 5 and not success


def test_simulate_uniform_sampling_statistics():
    problem = WeightedPick([1.0, 1.0])
    rng = random.Random(42)
    counts = [0, 0]
    for _ in range(10000):
        traj, _ = simulate(None, problem, 1, rng)
        counts[traj[0]] += 1
    assert abs(counts[0] - 5000) <= 150  # 3 sigma


def test_simulate_biased_sampling_statistics():
    problem = WeightedPick([1.0, 3.0])
    rng = random.Random(7)
    second = 0
    for _ in range(10000):
        traj, _ = simulate(None, problem, 1, rng)
        second += traj[0] == 1
    assert abs(second / 10000 - 0.75) <= 0.02


def test_draw_index_rejects_nonpositive_weights():
    with pytest.raises(ValueError):
        draw_index(random.Random(0), [1.0, 0.0])


def test_scaling_weights_leaves_distribution_unchanged():
    picks_a = [draw_index(random.Random(s), [1.0, 3.0, 2.0]) for s in range(500)]
    picks_b = [draw_index(random.Random(s), [10.0, 30.0, 20.0]) for s in range(500)]
    assert picks_a == picks_b


# --- single step bookkeeping ----------------------------------------------------

def test_first_iteration_bookkeeping():
    problem = InfiniteTree(width=3, reward=0.5)
    tree = MctsTree(problem, problem.initial_state())
    solved = mcts_step(tree, SearchConfig(max_sim_depth=1), random.Random(0), 1)
    assert solved is None
    root = tree.root
    assert root.visits == 1
    assert len(root.children) == 1
    child = root.children[0]
    assert child.visits == 1
    assert root.reward_sum == child.reward_sum == 0.5


def test_dead_end_children_are_deleted():
    problem = DeadEnd(depth=1, width=1)
    config = SearchConfig(max_sim_depth=3)
    rng = random.Random(0)
    tree = MctsTree(problem, problem.initial_state())
    # one action from the root leads to a state with empty delta; after its
    # subtree is exhausted everything including the root empties out
    steps = 0
    while not tree.exhausted and steps < 50:
        mcts_step(tree, config, rng, steps + 1)
        steps += 1
    assert tree.exhausted
    assert tree.stats.deletions >= 1


def forced(node):
    return not node.unexplored and len(node.children) == 1


def visit_consistency(node, parent_forced=False, is_root=True):
    """Checks visits == (0 if root else 1) + sum(child visits) + deleted_visits
    at every node whose counts are kept, each node that is not forced or whose
    parent is not forced. A child inside a run of forced nodes, whose counts a
    jump skips, adds its own right-hand side, which is returned."""
    expected = (0 if is_root else 1) + node.deleted_visits
    expected += sum(visit_consistency(c, forced(node), False) for c in node.children)
    if not (parent_forced and forced(node)):
        assert node.visits == expected
    return expected


def test_visit_count_consistency_invariant():
    problem = InfiniteTree(width=3)
    tree = MctsTree(problem, problem.initial_state())
    rng = random.Random(3)
    config = SearchConfig(max_sim_depth=2)
    for i in range(300):
        mcts_step(tree, config, rng, i + 1)
    visit_consistency(tree.root)


def state_key(state):
    """What identifies a state across two searches of one problem."""
    return state.actions() if isinstance(state, ProverState) else state


def stats_key(stats):
    return (stats.iterations, stats.deletions, stats.max_tree_depth, stats.best_reward,
            state_key(stats.best_state))


def assert_same_kept_counts(node, reference) -> int:
    """Walks two trees of the same shape and compares the counts of every node
    that is not forced or whose parent is not forced; returns the most edges
    a jump in the first tree spans."""
    longest = 0
    stack = [(node, reference, False)]
    while stack:
        a, b, parent_forced = stack.pop()
        assert (len(a.children), len(a.unexplored)) == (len(b.children), len(b.unexplored))
        if not (parent_forced and forced(a)):
            assert (a.visits, a.reward_sum) == (b.visits, b.reward_sum)
        if a.jump is not None:
            longest = max(longest, a.jump[1])
        stack.extend((x, y, forced(a)) for x, y in zip(a.children, b.children))
    return longest


def connection_game(name):
    return lambda: ConnectionGame(load_matrix(f"{bundled_corpus_dir()}/{name}.p"))


SIDE_BY_SIDE = [
    pytest.param(lambda: ChainToGoal(60), SearchConfig(max_sim_depth=2), 100, id="chain"),
    pytest.param(lambda: DeadEnd(depth=40, width=1), SearchConfig(max_sim_depth=3), 100, id="dead-end"),
    # deletions leave single children behind
    pytest.param(lambda: DeadEnd(depth=7, width=2), SearchConfig(max_sim_depth=2), 500, id="dead-end-2"),
    pytest.param(connection_game("prop_pigeon3"), SearchConfig(max_sim_depth=1), 300, id="prop_pigeon3"),
] + [
    pytest.param(connection_game(name), SearchConfig(max_sim_depth=depth, expansion=expansion), 300,
                 id=f"{name}-sim{depth}-{expansion}")
    for name in ("hard_maze14", "hard_fork14")
    for depth in (1, 8)
    for expansion in ("first", "best")
]


@pytest.mark.parametrize("make, config, iterations", SIDE_BY_SIDE)
def test_jumps_match_the_reference_engine(make, config, iterations):
    """mcts_step, which jumps over runs of forced nodes, and the reference
    step, which walks every node, make the same search: after each iteration
    the same returned state, stats and counts wherever counts are kept."""
    problem, reference_problem = make(), make()
    tree = MctsTree(problem, problem.initial_state())
    reference = MctsTree(reference_problem, reference_problem.initial_state())
    rng, reference_rng = random.Random(config.seed), random.Random(config.seed)
    longest = 0
    for i in range(1, iterations + 1):
        assert tree.exhausted == reference.exhausted
        if tree.exhausted:
            break
        final = mcts_step(tree, config, rng, i)
        assert state_key(final) == state_key(reference_mcts_step(reference, config, reference_rng, i))
        assert stats_key(tree.stats) == stats_key(reference.stats)
        longest = max(longest, assert_same_kept_counts(tree.root, reference.root))
        if final is not None:
            break
    visit_consistency(tree.root)
    assert longest > 1


@pytest.mark.parametrize("sim_depth, expected", [
    (1, (1489, 0, 745, 1.0, 3001)),
    (8, (330, 0, 166, 1.0, 3003)),
], ids=["bf", "unguided"])
def test_unprinted_search_stats_on_hard_maze15(sim_depth, expected):
    """Iterations, deletions, tree depth, best reward and inferences of the
    bench configurations, which the golden reports do not print."""
    game = ConnectionGame(load_matrix(f"{bundled_corpus_dir()}/hard_maze15.p"),
                          reward=RewardConfig.with_ratio_weight(0.0))
    result = run(game, SearchConfig(seed=0, max_sim_depth=sim_depth),
                 stop=lambda: game.extension_inferences >= 3000)
    stats = result.stats
    assert (stats.iterations, stats.deletions, stats.max_tree_depth, stats.best_reward,
            game.extension_inferences) == expected


def test_sibling_visits_balanced_under_constant_reward():
    problem = InfiniteTree(width=3, reward=0.5)
    tree = MctsTree(problem, problem.initial_state())
    rng = random.Random(1)
    config = SearchConfig(max_sim_depth=1)

    def spread_ok(node):
        if node.children:
            visits = [c.visits for c in node.children]
            assert max(visits) - min(visits) <= 1
            for c in node.children:
                spread_ok(c)

    for i in range(400):
        mcts_step(tree, config, rng, i + 1)
        if (i + 1) % 50 == 0:
            spread_ok(tree.root)


def test_rewards_outside_unit_interval_rejected():
    class Bad(InfiniteTree):
        def reward(self, state):
            return 1.5

    tree = MctsTree(Bad(), ())
    with pytest.raises(ValueError):
        mcts_step(tree, SearchConfig(max_sim_depth=1), random.Random(0), 1)


# --- full runs -------------------------------------------------------------------

def test_initial_success_is_the_solution():
    problem = ChainToGoal(0)
    result = run(problem, SearchConfig())
    assert isinstance(result.outcome, Solution)
    assert result.outcome.final_state == 0
    assert result.stats.iterations == 0


def test_forced_chain_solved_within_three_iterations(unit_pair_matrix):
    for seed in range(5):
        result = run(ConnectionGame(unit_pair_matrix), SearchConfig(seed=seed, max_iterations=3))
        assert isinstance(result.outcome, Solution)
        assert result.stats.iterations <= 3
        assert result.outcome.final_state.is_closed


def test_unsolvable_finite_problem_exhausts():
    result = run(DeadEnd(depth=3, width=2), SearchConfig(max_iterations=10000))
    assert isinstance(result.outcome, Exhausted)


def test_iteration_budget():
    result = run(InfiniteTree(), SearchConfig(max_iterations=25))
    assert isinstance(result.outcome, BudgetSpent)
    assert result.outcome.reason == "iterations"
    assert result.stats.iterations == 25


def tree_shape(node):
    return (node.visits, node.reward_sum, tuple(state_key(s) for s in node.unexplored),
            tuple(tree_shape(c) for c in node.children))


def trace(problem, config, iterations):
    """The tree shape and stats after `iterations` steps, or fewer when one
    finds a solution."""
    tree = MctsTree(problem, problem.initial_state())
    rng = random.Random(config.seed)
    for i in range(iterations):
        if mcts_step(tree, config, rng, i + 1) is not None:
            break
    return tree_shape(tree.root), stats_key(tree.stats)


def test_same_seed_same_trace():
    def seeded(seed):
        return trace(InfiniteTree(width=3), SearchConfig(seed=seed, max_sim_depth=3), 120)

    assert seeded(9) == seeded(9)
    assert seeded(9) != seeded(10)


def test_second_search_on_a_matrix_traces_as_a_fresh_one():
    """The tables that a bf search fills on its matrix leave the next bf
    search on it the same as one on a freshly loaded matrix."""
    path = f"{bundled_corpus_dir()}/hard_maze14.p"
    config = SearchConfig(seed=0, max_sim_depth=1)
    matrix = load_matrix(path)
    first = trace(ConnectionGame(matrix), config, 200)
    assert matrix.extension_table
    assert trace(ConnectionGame(matrix), config, 200) == first == trace(ConnectionGame(load_matrix(path)), config, 200)


def test_solution_is_the_goal_state():
    problem = ChainToGoal(4)
    result = run(problem, SearchConfig(seed=0, max_sim_depth=2))
    assert isinstance(result.outcome, Solution)
    assert result.outcome.final_state == 4


def test_zero_reward_arm_keeps_accruing_visits():
    """With any positive exploration constant, a hopeless-looking arm is
    still selected infinitely often (no child starves)."""

    class TwoArm(MctsProblem):
        def initial_state(self):
            return ()

        def successors(self, state):
            if state == ():
                return [("a",), ("b",)]
            return [state + (0,), state + (1,)]

        def reward(self, state):
            return 0.0 if state and state[0] == "a" else 0.9

        def is_success(self, state):
            return False

    problem = TwoArm()
    tree = MctsTree(problem, problem.initial_state())
    rng = random.Random(0)
    config = SearchConfig(cp_base=1.0, max_sim_depth=2)
    checkpoints = []
    for i in range(1, 4001):
        mcts_step(tree, config, rng, i)
        if i in (500, 1000, 2000, 4000):
            zero_arm, = [c for c in tree.root.children if c.reward_sum == 0.0]
            checkpoints.append(zero_arm.visits)
    assert checkpoints == sorted(checkpoints)
    assert all(b > a for a, b in zip(checkpoints, checkpoints[1:]))


def test_stop_is_asked_before_every_iteration():
    asked = []
    result = run(InfiniteTree(), SearchConfig(max_iterations=1000),
                 stop=lambda: asked.append(True) or len(asked) == 4)
    assert result.outcome == BudgetSpent("stopped")
    assert result.stats.iterations == 3


def test_bf_playout_reuses_the_expansion_successors(monkeypatch):
    """Under first-node expansion the new leaf's successors are computed once
    per iteration, shared by the leaf and the playout's first step."""
    calls = []
    compute = proving.successors
    monkeypatch.setattr(proving, "successors", lambda *args: calls.append(1) or compute(*args))
    matrix = load_matrix(f"{bundled_corpus_dir()}/hard_fork14.p")
    game = proving.ConnectionGame(matrix, reward=RewardConfig.with_ratio_weight(0.0))
    result = run(game, SearchConfig(seed=0, max_sim_depth=1),
                 stop=lambda: game.extension_inferences >= 3000)
    assert (result.stats.iterations, game.extension_inferences) == (1489, 3001)
    assert len(calls) == result.stats.iterations + 1  # one more for the root


def count_computed_lists(monkeypatch) -> list:
    """Appends 1 to the returned list for every successor list a game computes."""
    calls = []
    compute = proving.successors
    monkeypatch.setattr(proving, "successors", lambda *args: calls.append(1) or compute(*args))
    return calls


def bench_summary(game, config, budget=3000):
    """Everything an inference-budgeted run of `game` reports, compared by value."""
    result = run(game, config, stop=lambda: game.extension_inferences >= budget)
    outcome = result.outcome
    if isinstance(outcome, Solution):
        outcome = certificate_for(outcome.final_state, game.matrix)
    return outcome, stats_key(result.stats), game.extension_inferences


@pytest.fixture(scope="module")
def bench_configs():
    """The bundled problems and the README's three bench configurations, as
    `mcts-eval` runs them, the guided one with a model trained by deepening
    capped at each DepthBound."""
    with pytest.MonkeyPatch.context() as patch:
        patch.syspath_prepend(PERFBENCH)
        import workloads
    problems, store = [], Store()
    for info in annotated_corpus():
        matrix = load_matrix(info.path)
        problems.append((info.name, matrix))
        result = prove_iterative(matrix, DeepeningOptions(max_depth=info.depth_bound, collect_training=True))
        if result.proved:
            store.record_events(result.events)
    return problems, workloads.mcts_configs(ProvabilityModel(store))


@pytest.mark.parametrize("expansion", ["first", "best"])
def test_kept_lists_change_no_bench_run(bench_configs, expansion):
    """A game that keeps one list, the last, and one that keeps the cap's
    worth report the same outcome, certificate, stats and inferences on every
    bundled problem under every bench configuration."""
    problems, configs = bench_configs
    solved = 0
    for name, matrix in problems:
        for kind, (game_kwargs, search_kwargs) in configs.items():
            config = SearchConfig(seed=0, expansion=expansion, **search_kwargs)
            runs = []
            for cap in (1, proving._KEPT_LISTS):
                with pytest.MonkeyPatch.context() as patch:
                    patch.setattr(proving, "_KEPT_LISTS", cap)
                    runs.append(bench_summary(ConnectionGame(matrix, **game_kwargs), config))
            assert runs[0] == runs[1], (name, kind)
            solved += isinstance(runs[0][0], ProofCertificate)
    assert solved > len(problems)


@pytest.mark.parametrize("cap, computed", [(1, 2641), (None, 399)], ids=["one", "cap"])
def test_kept_lists_spare_the_unguided_playouts(monkeypatch, cap, computed):
    """Unguided MCTS on hard_maze14 at 3000 inferences: a playout retraces
    the states the last one drew from, so a game that keeps more than the
    last list computes far fewer, with the same search."""
    if cap is not None:
        monkeypatch.setattr(proving, "_KEPT_LISTS", cap)
    calls = count_computed_lists(monkeypatch)
    game = ConnectionGame(load_matrix(f"{bundled_corpus_dir()}/hard_maze14.p"),
                          reward=RewardConfig.with_ratio_weight(0.0))
    _, (iterations, _, depth, *_), inferences = bench_summary(game, SearchConfig(seed=0, max_sim_depth=8))
    assert (iterations, depth, inferences) == (330, 166, 3003)
    assert len(calls) == computed


def test_playouts_along_a_forced_chain_compute_one_list_per_iteration(monkeypatch):
    """On a chain every playout of depth 8 retraces the last one but for its
    final step, so the kept lists save seven computations in eight."""
    n = 200
    text = "cnf(s, axiom, p0).\n" + "".join(f"cnf(c{i}, axiom, ~p{i} | p{i + 1}).\n" for i in range(n))
    matrix = matrix_of(text + f"cnf(g, negated_conjecture, ~p{n}).\n")
    config = SearchConfig(seed=0, max_sim_depth=8)
    calls = count_computed_lists(monkeypatch)
    counts = []
    for cap in (1, proving._KEPT_LISTS):
        monkeypatch.setattr(proving, "_KEPT_LISTS", cap)
        calls.clear()
        result = run(ConnectionGame(matrix), config)
        assert isinstance(result.outcome, Solution)
        counts.append((result.stats.iterations, len(calls)))
    (iterations, once), (same, kept) = counts
    assert iterations == same
    # the root's list, then eight per iteration, or the first playout's and
    # one per iteration
    assert (once, kept) == (1 + 8 * iterations, 1 + 8 + (iterations - 1))


def test_kept_lists_stay_within_the_cap(monkeypatch):
    """With room for four lists the table never holds more, the cap binds,
    and the search is the one with the real cap."""
    sizes = []

    class Watched(ConnectionGame):
        def successors(self, state):
            out = super().successors(state)
            sizes.append(len(self._kept))
            return out

    matrix = load_matrix(f"{bundled_corpus_dir()}/hard_maze14.p")
    config = SearchConfig(seed=0, max_sim_depth=8)
    flat = RewardConfig.with_ratio_weight(0.0)
    expected = bench_summary(ConnectionGame(matrix, reward=flat), config)
    monkeypatch.setattr(proving, "_KEPT_LISTS", 4)
    assert bench_summary(Watched(matrix, reward=flat), config) == expected
    assert max(sizes) == 4


class SharedLists(InfiniteTree):
    """Returns one list object per state on every request, as a memoizing
    problem may; the engine must only read it."""

    def __init__(self):
        super().__init__(width=3)
        self.lists = {}

    def successors(self, state):
        if len(state) >= 6:
            return []
        return self.lists.setdefault(state, super().successors(state))


@pytest.mark.parametrize("expansion", ["first", "best"])
def test_successor_lists_are_never_mutated(expansion):
    problem = SharedLists()
    tree = MctsTree(problem, problem.initial_state())
    rng = random.Random(0)
    config = SearchConfig(max_sim_depth=3, expansion=expansion)
    for i in range(1, 301):
        mcts_step(tree, config, rng, i)
    assert len(problem.lists) > 100
    for state, succs in problem.lists.items():
        assert succs == InfiniteTree.successors(problem, state)


# --- memory ---------------------------------------------------------------------

class Counted:
    """A state that a WeakSet can hold."""

    __slots__ = ("depth", "__weakref__")

    def __init__(self, depth):
        self.depth = depth


class CountedTree(MctsProblem):
    """Three successors per state down to depth 5, each a new object that
    `live` counts while it is alive; the problem keeps none of them."""

    def __init__(self):
        self.live = weakref.WeakSet()

    def initial_state(self):
        return self.made(0)

    def made(self, depth):
        state = Counted(depth)
        self.live.add(state)
        return state

    def successors(self, state):
        return [self.made(state.depth + 1) for _ in range(3)] if state.depth < 5 else []

    def reward(self, state):
        return state.depth / 5

    def is_success(self, state):
        return False


def unexplored_states(root):
    out = set()
    stack = [root]
    while stack:
        node = stack.pop()
        out.update(node.unexplored)
        stack.extend(node.children)
    return out


@pytest.mark.parametrize("expansion", ["first", "best"])
def test_tree_keeps_only_unexplored_states(expansion):
    """After every iteration the live states are exactly the tree's
    unexplored ones and the best state."""
    problem = CountedTree()
    tree = MctsTree(problem, problem.initial_state())
    rng = random.Random(0)
    config = SearchConfig(max_sim_depth=3, expansion=expansion)
    for i in range(1, 301):
        mcts_step(tree, config, rng, i)
        assert set(problem.live) == unexplored_states(tree.root) | {tree.stats.best_state}
    assert tree.stats.deletions > 0


def test_game_tree_keeps_only_unexplored_and_kept_states(monkeypatch):
    """On the connection game the live prover states are the tree's
    unexplored ones, the best state, and the game's kept states and lists."""
    monkeypatch.setattr(proving, "_KEPT_LISTS", 8)
    game = ConnectionGame(load_matrix(f"{bundled_corpus_dir()}/hard_maze14.p"))
    gc.collect()
    before = {o for o in gc.get_objects() if type(o) is ProverState}
    tree = MctsTree(game, game.initial_state())
    rng = random.Random(0)
    config = SearchConfig(max_sim_depth=1)
    for i in range(1, 301):
        mcts_step(tree, config, rng, i)
    live = {o for o in gc.get_objects() if type(o) is ProverState} - before
    kept = set(game._kept).union(*(succs for succs, _ in game._kept.values()))
    assert live == unexplored_states(tree.root) | {tree.stats.best_state} | kept
    assert len(live) > len(kept) + 1


def collected_after(search):
    """Runs `search()` with the collector off; returns what it returned and
    the number of objects a full collection then frees, which only reference
    cycles it dropped leave behind."""
    gc.collect()
    gc.disable()
    try:
        result = search()
    finally:
        gc.enable()
    return result, gc.collect()


@pytest.mark.parametrize("name, setup", [
    ("hard_maze14", dict(engine="mcts", sim_depth=1, reward_ratio_weight=0.0, max_inferences=3000)),
    ("sat_chain", dict(engine="deepening", max_inferences=20000)),
], ids=["mcts", "deepening"])
def test_finished_search_leaves_no_reference_cycles(name, setup):
    from mcprover.cli import EngineSetup, bundled_corpus_dir, run_engine
    from mcprover.clausify import clausify, prepare_matrix
    from mcprover.tptp import load_problem

    path = f"{bundled_corpus_dir()}/{name}.p"
    matrix = prepare_matrix(clausify(load_problem(path)))
    report, freed = collected_after(lambda: run_engine(matrix, EngineSetup(**setup), name))
    assert report.total_inferences >= setup["max_inferences"]
    assert freed == 0


@pytest.mark.parametrize("kind, expansion", [
    ("unguided", "first"), ("guided", "first"), ("bf", "best"), ("guided", "best"),
])
def test_finished_bench_search_leaves_no_reference_cycles(bench_configs, kind, expansion):
    """The `mcts-eval` configurations, the guided one with rank weights and a
    model, under both expansion policies."""
    problems, configs = bench_configs
    game_kwargs, search_kwargs = configs[kind]
    game = ConnectionGame(dict(problems)["hard_maze14"], **game_kwargs)
    config = SearchConfig(seed=0, expansion=expansion, **search_kwargs)
    result, freed = collected_after(lambda: run(game, config, stop=lambda: game.extension_inferences >= 3000))
    assert isinstance(result.outcome, BudgetSpent) and result.stats.iterations > 100
    assert freed == 0


def test_finished_tsp_search_leaves_no_reference_cycles():
    from mcprover.tsp import TspGame, TspInstance

    result, freed = collected_after(lambda: run(TspGame(TspInstance.random(8, seed=0)), SearchConfig(max_iterations=500)))
    assert result.stats.iterations == 500
    assert freed == 0


@contextlib.contextmanager
def collector(enabled):
    """The cyclic collector switched on or off inside, and back as it was after."""
    was = gc.isenabled()
    (gc.enable if enabled else gc.disable)()
    try:
        yield
    finally:
        (gc.enable if was else gc.disable)()


class Raised(Exception):
    pass


@pytest.mark.parametrize("caller", [True, False], ids=["enabled", "disabled"])
@pytest.mark.parametrize("ending", ["returns", "bad reward", "stop raises"])
def test_mcts_run_pauses_and_restores_the_collector(caller, ending):
    seen = []  # whether the collector ran, as each stop() saw it

    def stop():
        seen.append(gc.isenabled())
        if ending == "stop raises":
            raise Raised
        return False

    problem = InfiniteTree(reward=2.0 if ending == "bad reward" else 0.5)
    with collector(caller):
        if ending == "returns":
            assert run(problem, SearchConfig(max_iterations=20), stop).stats.iterations == 20
        else:
            with pytest.raises(ValueError if ending == "bad reward" else Raised):
                run(problem, SearchConfig(max_iterations=20), stop)
        after = gc.isenabled()
    assert after == caller
    assert seen and not any(seen)


@pytest.mark.parametrize("caller", [True, False], ids=["enabled", "disabled"])
@pytest.mark.parametrize("raises", [False, True], ids=["returns", "raises"])
def test_prove_iterative_pauses_and_restores_the_collector(monkeypatch, caller, raises):
    seen = []  # whether the collector ran, as each successors call saw it
    compute = deepening.successors

    def observed(*args):
        seen.append(gc.isenabled())
        if raises:
            raise Raised
        return compute(*args)

    monkeypatch.setattr(deepening, "successors", observed)
    matrix = matrix_of("cnf(c1, axiom, p).\ncnf(c2, axiom, ~p | q).\ncnf(c3, axiom, ~q).\n")
    with collector(caller):
        if raises:
            with pytest.raises(Raised):
                prove_iterative(matrix)
        else:
            assert prove_iterative(matrix).proved
        after = gc.isenabled()
    assert after == caller
    assert seen and not any(seen)


def test_deep_node_chain_deallocates():
    root = node = MctsNode()
    for _ in range(500_000):
        child = MctsNode()
        node.children.append(child)
        node = child
    del node, child
    del root
