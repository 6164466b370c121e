import gc
import math
import random

import pytest

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

    def weights(self, state, candidates):
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
        child = MctsNode(None)
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
        SearchConfig(cp_base=0.0).validate()
    with pytest.raises(ValueError):
        SearchConfig(cp_base=1.0, cp_amplitude=1.0, cp_period=4.0).validate()
    with pytest.raises(ValueError):
        SearchConfig(cp_amplitude=0.1, cp_period=0.0).validate()
    with pytest.raises(ValueError):
        SearchConfig(max_sim_depth=0).validate()
    SearchConfig(cp_base=1.0, cp_amplitude=0.5, cp_period=8.0).validate()


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


def visit_consistency(node, is_root=True):
    expected = sum(c.visits for c in node.children) + node.deleted_visits
    expected += 0 if is_root else 1
    assert node.visits == expected
    for c in node.children:
        visit_consistency(c, is_root=False)


def test_visit_count_consistency_invariant():
    problem = InfiniteTree(width=3)
    tree = MctsTree(problem, problem.initial_state())
    rng = random.Random(3)
    config = SearchConfig(max_sim_depth=2)
    for i in range(300):
        mcts_step(tree, config, rng, i + 1)
    visit_consistency(tree.root)


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

def test_initial_success_returns_empty_trajectory():
    problem = ChainToGoal(0)
    result = run(problem, SearchConfig())
    assert isinstance(result.outcome, Solution)
    assert result.outcome.trajectory == []
    assert result.stats.iterations == 0


def test_forced_chain_solved_within_three_iterations(unit_pair_matrix):
    from mcprover.proving import ConnectionGame

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


def test_same_seed_same_trace():
    def shape(node):
        return (node.state, node.visits, tuple(shape(c) for c in node.children))

    def trace(seed):
        problem = InfiniteTree(width=3)
        tree = MctsTree(problem, problem.initial_state())
        rng = random.Random(seed)
        config = SearchConfig(max_sim_depth=3)
        for i in range(120):
            mcts_step(tree, config, rng, i + 1)
        return shape(tree.root)

    assert trace(9) == trace(9)
    assert trace(9) != trace(10)


def test_solution_trajectory_is_root_to_goal_path():
    problem = ChainToGoal(4)
    result = run(problem, SearchConfig(seed=0, max_sim_depth=2))
    assert isinstance(result.outcome, Solution)
    assert result.outcome.trajectory == [1, 2, 3, 4]


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
            zero_arm = [c for c in tree.root.children if c.state == ("a",)][0]
            checkpoints.append(zero_arm.visits)
    assert checkpoints == sorted(checkpoints)
    assert all(b > a for a, b in zip(checkpoints, checkpoints[1:]))


def test_reward_goal_short_circuits():
    problem = InfiniteTree(width=2, reward=0.5)
    config = SearchConfig(max_iterations=1000, reward_goal=0.4)
    result = run(problem, config)
    assert isinstance(result.outcome, Solution)
    assert result.outcome.by_reward_goal
    assert result.stats.iterations == 1


# --- memory ---------------------------------------------------------------------

def test_finished_search_leaves_no_reference_cycles():
    from mcprover.cli import EngineSetup, bundled_corpus_dir, run_engine
    from mcprover.clausify import clausify, prepare_matrix
    from mcprover.tptp import load_problem

    path = f"{bundled_corpus_dir()}/hard_maze14.p"
    matrix = prepare_matrix(clausify(load_problem(path)))
    bf = EngineSetup(engine="mcts", sim_depth=1, reward_ratio_weight=0.0, max_inferences=3000)
    gc.collect()
    gc.disable()
    try:
        report = run_engine(matrix, bf, "hard_maze14")
    finally:
        gc.enable()
    assert report.total_inferences >= 3000
    assert gc.collect() == 0


def test_deep_node_chain_deallocates():
    root = node = MctsNode(0)
    for i in range(500_000):
        child = MctsNode(i + 1)
        node.children.append(child)
        node = child
    del node, child
    del root
