"""Acceptance suite: one test per criterion, each at its stated tolerance.

Each test prints a single `criterion N (<name>): PASS` line on success (run
with `pytest -s` to see them); failures surface as ordinary assertion errors.
"""

import math
import random

import pytest

from mcprover import mcts
from mcprover.checker import check_proof, certificate_for
from mcprover.cli import bundled_corpus_dir
from mcprover.clausify import clausify, prepare_matrix
from mcprover.deepening import DeepeningOptions, Proof, prove_iterative
from mcprover.guidance import (
    ProvabilityModel,
    RewardConfig,
    SimulationWeights,
    certainty,
    combine,
    literal_provability,
)
from mcprover.mcts import MctsProblem, MctsTree, SearchConfig, mcts_step, uct_value
from mcprover.proving import ConnectionGame
from mcprover.trainstore import Store, merge_stores
from mcprover.tsp import TspGame, TspInstance, brute_force_optimum
from test_trainstore import random_store
from test_unification import agreement_case, ref_unify
from mcprover.unification import EMPTY_SUBSTITUTION
from oracles import annotated_corpus, unify
from mcprover.terms import App, Var


def report(number, name):
    print(f"criterion {number} ({name}): PASS")


@pytest.fixture(scope="module")
def corpus():
    out = {}
    for info in annotated_corpus():
        from mcprover.tptp import load_problem

        out[info.name] = (info, prepare_matrix(clausify(load_problem(info.path))))
    return out


@pytest.fixture(scope="module")
def engine_proofs(corpus):
    """Proof attempts by both engines over the whole corpus."""
    runs = []
    for name in sorted(corpus):
        info, matrix = corpus[name]
        deep = prove_iterative(matrix, DeepeningOptions(time_budget=5.0, max_depth=16))
        if isinstance(deep.outcome, Proof):
            runs.append((name, "deepening", matrix, deep.outcome.final_state))
        game = ConnectionGame(matrix)
        result = mcts.run(game, SearchConfig(seed=0, max_iterations=1500, time_budget=1.0))
        if result.solved:
            runs.append((name, "mcts", matrix, result.outcome.final_state))
    return runs


def test_criterion_1_soundness(engine_proofs):
    assert len(engine_proofs) >= 60, "expected plenty of proofs across both engines"
    for name, engine, matrix, final in engine_proofs:
        verdict = check_proof(matrix, certificate_for(final, matrix))
        assert verdict.accepted, f"{engine} proof of {name} rejected: {verdict.reason}"
    report(1, "soundness")


def test_criterion_2_completeness_at_depth(corpus):
    for name in sorted(corpus):
        info, matrix = corpus[name]
        options = DeepeningOptions(max_depth=info.depth_bound, time_budget=10.0, cut=False)
        result = prove_iterative(matrix, options)
        if info.status == "Theorem":
            assert isinstance(result.outcome, Proof), f"{name} unsolved at depth {info.depth_bound}"
        else:
            assert not isinstance(result.outcome, Proof), f"{name} is satisfiable but closed"
    report(2, "completeness at declared depth")


def test_criterion_3_uct_arithmetic():
    expected = 0.5 + math.sqrt(2.0 * math.log(2.0))
    assert abs(uct_value(0.5, 1, 2, 1.0) - expected) < 1e-9
    rng = random.Random(3)
    for _ in range(1000):
        mean = rng.random()
        cp = rng.uniform(0.01, 2.0)
        n_low = rng.randint(1, 50)
        n_high = rng.randint(n_low + 1, 100)
        parent = n_high + rng.randint(n_low, 200)
        assert uct_value(mean, n_low, parent, cp) > uct_value(mean, n_high, parent, cp)
    report(3, "uct arithmetic")


class _UniformTree(MctsProblem):
    def __init__(self, width=3, reward=0.5):
        self.width = width
        self._reward = reward

    def initial_state(self):
        return ()

    def successors(self, state):
        return [state + (i,) for i in range(self.width)]

    def reward(self, state):
        return self._reward

    def is_success(self, state):
        return False


def test_criterion_4_breadth_first_degeneration():
    problem = _UniformTree(width=3, reward=0.5)
    tree = MctsTree(problem, problem.initial_state())
    rng = random.Random(0)
    config = SearchConfig(max_sim_depth=1)

    def check(node):
        if node.children:
            visits = [c.visits for c in node.children]
            assert max(visits) - min(visits) <= 1
            for child in node.children:
                check(child)

    for i in range(1, 401):
        mcts_step(tree, config, rng, i)
        if i % 25 == 0:
            check(tree.root)
    report(4, "breadth-first degeneration")


class _RandomRewardTree(_UniformTree):
    def __init__(self, seed):
        super().__init__(width=2)
        self.rng = random.Random(seed)

    def reward(self, state):
        return self.rng.random()


def test_criterion_5_random_reward_convergence():
    good = 0
    for seed in range(10):
        problem = _RandomRewardTree(seed=1000 + seed)
        tree = MctsTree(problem, problem.initial_state())
        rng = random.Random(seed)
        config = SearchConfig(max_sim_depth=2)
        for i in range(1, 10001):
            mcts_step(tree, config, rng, i)
        means = [child.reward_sum / child.visits for child in tree.root.children[:2]]
        if all(0.45 <= m <= 0.55 for m in means):
            good += 1
    assert good >= 9, f"only {good}/10 seeds converged to 0.5"
    report(5, "random-reward convergence")


class _TrapProblem(MctsProblem):
    """The only solution hides behind an arm whose reward stays 0; the other
    arm pays 0.9 forever and never terminates."""

    def __init__(self, depth=6):
        self.depth = depth

    def initial_state(self):
        return ("root", 0)

    def successors(self, state):
        kind, level = state[0], state[1]
        if kind == "root":
            return [("a", 0), ("b", 0)]
        if kind == "a":
            return [] if level >= self.depth else [("a", level + 1)]
        return [("b", level + 1), ("b'", level + 1)]

    def reward(self, state):
        if self.is_success(state):
            return 1.0
        return 0.9 if state[0] in ("b", "b'") else 0.0

    def is_success(self, state):
        return state[0] == "a" and state[1] == self.depth

    def openness(self, state):
        if state[0] == "a":
            return self.depth - state[1]
        return self.depth


def test_criterion_6_first_node_completeness():
    for seed in range(10):
        config = SearchConfig(
            seed=seed, cp_base=1.0, expansion="first", max_sim_depth=1, max_iterations=50000
        )
        result = mcts.run(_TrapProblem(), config)
        assert result.solved, f"seed {seed} did not reach the hidden solution"
        assert result.stats.iterations <= 50000
    # best-node expansion is permitted to fail on the same problem; record it
    outcomes = []
    for seed in range(10):
        config = SearchConfig(
            seed=seed, cp_base=1.0, expansion="best", max_sim_depth=1, max_iterations=50000
        )
        outcomes.append(mcts.run(_TrapProblem(), config).solved)
    print(f"  best-node expansion on the trap problem: {sum(outcomes)}/10 seeds solved")
    report(6, "first-node expansion completeness")


@pytest.fixture(scope="module")
def trained_model(corpus):
    store = Store()
    for name in sorted(corpus):
        _, matrix = corpus[name]
        result = prove_iterative(
            matrix, DeepeningOptions(collect_training=True, time_budget=5.0)
        )
        if result.proved:
            store.record_events(result.events)
    assert len(store) > 0
    return ProvabilityModel(store)


def test_criterion_7_guidance_monotonicity(corpus, trained_model):
    def run_config(matrix, kind):
        if kind == "bf":
            game = ConnectionGame(matrix, reward=RewardConfig.with_ratio_weight(0.0))
            config = SearchConfig(seed=0, max_sim_depth=1, time_budget=5.0)
        elif kind == "unguided":
            game = ConnectionGame(matrix, reward=RewardConfig.with_ratio_weight(0.0))
            config = SearchConfig(seed=0, max_sim_depth=8, time_budget=5.0)
        else:
            game = ConnectionGame(
                matrix,
                weights=SimulationWeights("rank"),
                reward=RewardConfig.with_ratio_weight(0.0),
                model=trained_model,
            )
            config = SearchConfig(seed=0, max_sim_depth=8, time_budget=5.0, cp_base=0.2)
        return mcts.run(game, config).solved

    solved = {"bf": set(), "unguided": set(), "guided": set()}
    for name in sorted(corpus):
        _, matrix = corpus[name]
        for kind in solved:
            if run_config(matrix, kind):
                solved[kind].add(name)
    counts = {kind: len(names) for kind, names in solved.items()}
    print(f"  solved: breadth-first {counts['bf']}, unguided {counts['unguided']}, "
          f"guided {counts['guided']}")
    assert counts["bf"] <= counts["unguided"] <= counts["guided"]
    assert counts["guided"] >= counts["unguided"], "guided config must not solve fewer"
    report(7, "guidance monotonicity")


def test_criterion_7_under_inference_budgets(corpus):
    """Criterion 7 with every budget counted in inferences, so the solved
    sets do not depend on the machine: the model is trained by deepening
    capped at each problem's DepthBound, and each configuration gets 3000
    extension inferences per problem, as in the mcts-eval benchmark."""
    store = Store()
    for name in sorted(corpus):
        info, matrix = corpus[name]
        result = prove_iterative(
            matrix, DeepeningOptions(max_depth=info.depth_bound, collect_training=True)
        )
        if result.proved:
            store.record_events(result.events)
    model = ProvabilityModel(store)
    flat = RewardConfig.with_ratio_weight(0.0)
    configs = {
        "bf": ({"reward": flat}, {"max_sim_depth": 1}),
        "unguided": ({"reward": flat}, {"max_sim_depth": 8}),
        "guided": ({"reward": flat, "weights": SimulationWeights("rank"), "model": model},
                   {"max_sim_depth": 8, "cp_base": 0.2}),
    }
    solved = {kind: set() for kind in configs}
    for name in sorted(corpus):
        _, matrix = corpus[name]
        for kind, (game_kwargs, search_kwargs) in configs.items():
            game = ConnectionGame(matrix, **game_kwargs)
            config = SearchConfig(seed=0, **search_kwargs)
            if mcts.run(game, config, stop=lambda: game.extension_inferences >= 3000).solved:
                solved[kind].add(name)
    counts = {kind: len(names) for kind, names in solved.items()}
    print(f"  solved at 3000 inferences: breadth-first {counts['bf']}, "
          f"unguided {counts['unguided']}, guided {counts['guided']}")
    assert solved["bf"] <= solved["unguided"] <= solved["guided"]
    assert counts == {"bf": 47, "unguided": 47, "guided": 49}
    report(7, "guidance monotonicity under inference budgets")


def test_criterion_8_inference_accounting(engine_proofs):
    for name, engine, matrix, final in engine_proofs:
        verdict = check_proof(matrix, certificate_for(final, matrix))
        assert verdict.accepted
        assert verdict.extension_count == final.extensions, (
            f"{engine} on {name}: engine counted {final.extensions}, "
            f"checker replayed {verdict.extension_count}"
        )
    report(8, "inference accounting")


def test_criterion_9_unification_oracle():
    rng = random.Random(20240817)
    disagreements = [detail for ok, detail in (agreement_case(rng) for _ in range(1000)) if not ok]
    assert disagreements == []
    fixed = [
        (Var(0), App("f", (Var(0),))),
        (App("f", (Var(0), Var(1))), App("f", (Var(1), App("g", (Var(0),))))),
        (App("f", (Var(0),)), App("f", (App("g", (App("h", (Var(0),)),)),))),
    ]
    for s, t in fixed:
        assert unify(EMPTY_SUBSTITUTION, s, t) is None
        assert ref_unify(s, t) is None
    report(9, "unification oracle agreement")


def test_criterion_10_training_pipeline(tmp_path):
    from mcprover.cli import main

    out_a = tmp_path / "model_a.txt"
    out_b = tmp_path / "model_b.txt"
    for out in (out_a, out_b):
        code = main(
            [
                "train",
                bundled_corpus_dir(),
                "--model-out", str(out),
                "--timeout", "60",
                "--max-inferences", "150000",
            ]
        )
        assert code == 0
    assert out_a.read_bytes() == out_b.read_bytes()
    assert out_a.read_bytes(), "model must not be empty"

    rng = random.Random(77)
    empty = Store()
    for _ in range(200):
        a = random_store(rng, size=15)
        b = random_store(rng, size=15)
        c = random_store(rng, size=15)
        assert merge_stores(a, b) == merge_stores(b, a)
        assert merge_stores(merge_stores(a, b), c) == merge_stores(a, merge_stores(b, c))
        assert merge_stores(a, empty) == a
    big = random_store(rng, size=10000)
    path = tmp_path / "round.txt"
    big.persist(str(path))
    assert Store.load(str(path)) == big
    report(10, "training pipeline determinism and merge laws")


class BestRewardTsp(TspGame):
    """Remembers the best reward it returned, so a search can stop there."""

    best = -1.0

    def reward(self, state):
        value = super().reward(state)
        self.best = max(self.best, value)
        return value


def test_criterion_11_tsp_validation():
    total = 0
    found = 0
    for i in range(10):
        instance = TspInstance.random(6, seed=500 + i)
        _, best_length = brute_force_optimum(instance)
        goal = TspGame(instance).reward(brute_force_optimum(instance)[0])
        for seed in range(20):
            game = BestRewardTsp(instance, reading="prose")
            config = SearchConfig(
                seed=seed,
                max_iterations=20000,
                max_sim_depth=instance.n,
            )
            result = mcts.run(game, config, stop=lambda: game.best >= goal)
            total += 1
            best_state = result.stats.best_state
            assert best_state is not None
            assert instance.tour_length(best_state) >= best_length - 1e-9
            if instance.tour_length(best_state) <= best_length + 1e-9:
                found += 1
    assert found / total >= 0.8, f"optimum found in only {found}/{total} runs"
    print(f"  optimal tours found in {found}/{total} runs")
    report(11, "tsp validation")


def test_criterion_12_guidance_formulas():
    assert literal_provability(0, 0) == 1.0
    assert literal_provability(5, 0, 0.3, 1.7) == 1.0
    assert abs(certainty(3, 1.0, 2.0) - 0.9) < 1e-12
    assert abs(literal_provability(0, 3, 1.0, 2.0) - 0.1) < 1e-12
    assert abs(combine([0.5, 0.8], "product") - 0.4) < 1e-12
    assert combine([0.5, 1.0], "min") == 0.5
    assert abs(combine([0.5, 1.0], "geometric") - 0.7071067811865476) < 1e-9
    assert abs(combine([0.5, 1.0], "arithmetic") - 0.75) < 1e-9
    assert abs(combine([0.5, 1.0], "harmonic") - 0.6666666666666666) < 1e-9
    rng = random.Random(12)
    for _ in range(1000):
        values = [rng.random() for _ in range(rng.randint(1, 9))]
        low = combine(values, "min")
        h = combine(values, "harmonic")
        g = combine(values, "geometric")
        a = combine(values, "arithmetic")
        assert low <= h + 1e-9 <= g + 2e-9 <= a + 3e-9
    report(12, "guidance formulas")
