import pytest

from mcprover import mcts
from mcprover.tsp import TspGame, TspInstance, brute_force_optimum
from oracles import dump_instance

SQUARE = TspInstance.from_edges(
    4, [(1, 2, 1), (2, 3, 1), (3, 4, 1), (4, 1, 1), (1, 3, 2), (2, 4, 2)]
)


def test_successors_enumerate_unvisited():
    game = TspGame(TspInstance.random(3, seed=0))
    assert game.successors(()) == [(1,), (2,), (3,)]
    assert game.successors((2,)) == [(2, 1), (2, 3)]
    assert game.successors((2, 1, 3)) == []


def test_weight_readings():
    # three successors with partial costs 10, 20, 30
    inst = TspInstance.from_edges(
        4,
        [(1, 2, 10), (1, 3, 20), (1, 4, 30), (2, 3, 1), (2, 4, 1), (3, 4, 1)],
    )
    candidates = [(1, 2), (1, 3), (1, 4)]
    formula = TspGame(inst, reading="formula").weights(candidates)
    prose = TspGame(inst, reading="prose").weights(candidates)
    assert formula == [pytest.approx(1 / 3), 0.5, 1.0]
    assert prose == [1.0, 0.5, pytest.approx(1 / 3)]


def test_reading_validation():
    with pytest.raises(ValueError):
        TspGame(SQUARE, reading="fancy")


def test_equal_distances_score_one():
    inst = TspInstance.from_edges(3, [(1, 2, 5), (1, 3, 5), (2, 3, 5)])
    for tour in ((1, 2, 3), (1, 3, 2)):
        assert TspGame(inst).reward(tour) == 1.0


def test_square_instance_reward_and_optimum():
    tour, length = brute_force_optimum(SQUARE)
    assert length == 4.0
    lower, upper = SQUARE.bounds()
    assert lower == 4.0 and upper == 8.0
    game = TspGame(SQUARE)
    assert game.reward(tour) == 1.0
    assert game.reward((1, 3, 2, 4)) < 1.0


def test_brute_force_tiny_cases():
    two = TspInstance.from_edges(2, [(1, 2, 7)])
    tour, length = brute_force_optimum(two)
    assert tour == (1, 2) and length == 14.0
    three = TspInstance.from_edges(3, [(1, 2, 3), (1, 3, 4), (2, 3, 5)])
    lengths = {
        three.tour_length(t)
        for t in ((1, 2, 3), (1, 3, 2))
    }
    assert lengths == {12.0}


def test_one_city_has_zero_bounds_and_no_city_is_refused():
    one = TspInstance.from_edges(1, [])
    assert one.bounds() == (0.0, 0.0)
    assert brute_force_optimum(one) == ((1,), 0.0)
    for n in (0, -1):
        with pytest.raises(ValueError, match=f"not {n}"):
            TspInstance.from_edges(n, [])


def test_brute_force_size_guard():
    with pytest.raises(ValueError):
        brute_force_optimum(TspInstance.random(11, seed=0))


def test_instance_file_round_trip():
    inst = TspInstance.random(5, seed=3)
    again = TspInstance.parse(dump_instance(inst))
    assert again == inst


def test_instance_file_validation():
    with pytest.raises(ValueError):
        TspInstance.parse("3\n1 2 1\n")  # missing edges
    with pytest.raises(ValueError):
        TspInstance.parse("2\n1 1 4\n")
    with pytest.raises(ValueError, match="must start with the city count"):
        TspInstance.parse("1 2 4\n")
    with pytest.raises(ValueError, match="must start with the city count"):
        TspInstance.parse("\n\n")
    with pytest.raises(ValueError, match="bad distance entry: '1 2'"):
        TspInstance.parse("2\n1 2\n")


def test_mcts_never_beats_oracle():
    for seed in range(3):
        inst = TspInstance.random(5, seed=seed)
        _, best = brute_force_optimum(inst)
        game = TspGame(inst)
        result = mcts.run(game, mcts.SearchConfig(seed=seed, max_iterations=500, max_sim_depth=5))
        found = result.stats.best_state
        assert inst.tour_length(found) >= best


def test_exhaustion_finds_optimum():
    inst = TspInstance.random(4, seed=1)
    _, best = brute_force_optimum(inst)
    game = TspGame(inst)
    result = mcts.run(game, mcts.SearchConfig(seed=0, max_iterations=100000, max_sim_depth=4))
    assert isinstance(result.outcome, mcts.Exhausted)
    assert inst.tour_length(result.stats.best_state) == best
