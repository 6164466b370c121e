import dataclasses
import math
import random

import pytest
from hypothesis import given, strategies as st

from conftest import matrix_of
from mcprover.calculus import initial_state, successors
from mcprover.guidance import (
    ProvabilityModel,
    RewardConfig,
    SimulationWeights,
    certainty,
    combine,
    extension_weight,
    literal_provability,
    reward_value,
    state_provability,
    subgoal_ratio,
)
from mcprover import proving
from mcprover.proving import ConnectionGame
from mcprover.trainstore import KeyTable, Store


# --- certainty and literal provability ---------------------------------------

def test_unseen_literal_is_optimistic():
    assert literal_provability(0, 0) == 1.0


def test_pure_success_rate_stays_one():
    for p in (1, 3, 50):
        assert literal_provability(p, 0, 0.7, 3.0) == 1.0


def test_hand_computed_provability():
    # c(3) = 1 - 1/(9+1) = 0.9, value = 1 + 0.9 * (0 - 1) = 0.1
    assert abs(certainty(3, 1.0, 2.0) - 0.9) < 1e-12
    assert abs(literal_provability(0, 3, 1.0, 2.0) - 0.1) < 1e-12


@given(
    st.integers(0, 200),
    st.integers(0, 200),
    st.floats(0.0, 1.0),
    st.floats(0.5, 4.0),
)
def test_provability_monotone_in_counts(p, n, c, d):
    value = literal_provability(p, n, c, d)
    assert 0.0 <= value <= 1.0
    assert literal_provability(p + 1, n, c, d) >= value - 1e-12
    assert literal_provability(p, n + 1, c, d) <= value + 1e-12


@given(st.integers(0, 100), st.floats(0.0, 1.0), st.floats(0.5, 4.0))
def test_certainty_monotone_and_bounded(x, c, d):
    value = certainty(x, c, d)
    assert 1.0 - c <= value < 1.0 + 1e-12
    assert certainty(x + 1, c, d) >= value


def test_certainty_past_the_float_range_is_its_limit():
    """A power too large for a float gives the limit c / inf = 0, where the
    plain formula raises OverflowError; finite powers are untouched."""
    with pytest.raises(OverflowError):
        54 ** 200.0
    assert certainty(54, 1.0, 200.0) == 1.0
    assert literal_provability(3, 1, 1.0, 1e308) == 0.75
    assert certainty(54, 0.5, 170.0) == 1.0 - 0.5 / (54 ** 170.0 + 1.0)


# --- combiners ----------------------------------------------------------------

def test_combiner_examples():
    values = [0.5, 1.0]
    assert combine(values, "min") == 0.5
    assert abs(combine(values, "geometric") - math.sqrt(0.5)) < 1e-9
    assert abs(combine(values, "arithmetic") - 0.75) < 1e-9
    assert abs(combine(values, "harmonic") - 2.0 / 3.0) < 1e-9
    assert combine(values, "product") == 0.5
    assert combine([], "min") == 1.0


def test_product_combiners_match_the_sequential_product():
    """`math.prod` multiplies left to right from 1.0, as a plain loop does, so
    the product and geometric combiners equal that loop bit for bit."""
    rng = random.Random(0)
    for _ in range(200_000):
        values = [rng.random() for _ in range(rng.randint(1, 8))]
        product = 1.0
        for v in values:
            product *= v
        assert combine(values, "product") == product
        assert combine(values, "geometric") == product ** (1.0 / len(values))


def test_zero_clause_value_propagates():
    assert combine([0.0, 0.9], "product") == 0.0
    assert combine([0.0, 0.9], "min") == 0.0
    assert combine([0.0, 0.9], "harmonic") == 0.0
    assert combine([0.0, 0.9], "geometric") == 0.0


@given(st.lists(st.floats(0.0, 1.0), min_size=1, max_size=8))
def test_mean_inequality_chain(values):
    h = combine(values, "harmonic")
    g = combine(values, "geometric")
    a = combine(values, "arithmetic")
    m = combine(values, "min")
    eps = 1e-9
    assert m <= h + eps
    assert h <= g + eps
    assert g <= a + eps


# --- subgoal ratio & reward -----------------------------------------------------

def test_subgoal_ratio_orientation():
    assert subgoal_ratio(0, 4) == 1.0
    assert subgoal_ratio(4, 4) == 0.0
    assert abs(subgoal_ratio(2, 5) - 0.6) < 1e-12
    assert subgoal_ratio(2, 5, raw=True) == 0.4


def test_reward_weights():
    cfg = RewardConfig.with_ratio_weight(1.0)
    assert reward_value(0.37, 0.9, cfg) == 0.37
    cfg = RewardConfig.with_ratio_weight(0.5)
    assert abs(reward_value(0.6, 0.1, cfg) - 0.35) < 1e-12


def test_reward_config_validation():
    with pytest.raises(ValueError):
        RewardConfig(ratio_weight=1.7)
    with pytest.raises(ValueError):
        RewardConfig(ratio_weight=-0.1)
    with pytest.raises(ValueError):
        RewardConfig(ratio_weight=float("nan"))
    with pytest.raises(ValueError):
        RewardConfig(combiner="median")
    with pytest.raises(ValueError):
        RewardConfig(certainty_c=1.5)
    with pytest.raises(ValueError):
        RewardConfig(certainty_d=0.0)


# --- transition weights ----------------------------------------------------------

def test_extension_weight_policies():
    assert extension_weight("constant", 4, []) == 1.0
    assert extension_weight("inverse", 4, []) == 0.25
    assert extension_weight("rank", 3, [2, 3, 5]) == 0.5
    assert extension_weight("rank", 2, [2, 3, 5]) == 1.0
    assert extension_weight("rank", 5, [2, 3, 5]) == pytest.approx(1 / 3)


def test_weight_policy_validation():
    with pytest.raises(ValueError):
        SimulationWeights("sorted")
    with pytest.raises(ValueError):
        SimulationWeights("constant", reduction_weight=0.0)


# p proves by extending into c2 or into c3
FORK = (
    "cnf(c1, axiom, p).\ncnf(c2, axiom, ~p | q).\n"
    "cnf(c3, axiom, ~p | q | r).\ncnf(c4, axiom, ~q).\ncnf(c5, axiom, ~r).\n"
)


def test_game_weights_positive_and_policy_sensitive():
    m = matrix_of(FORK)
    s = initial_state(m)
    s = successors(s, m)[0]
    succs = successors(s, m)
    constant = ConnectionGame(m).weights(succs)
    inverse = ConnectionGame(m, weights=SimulationWeights("inverse")).weights(succs)
    rank = ConnectionGame(m, weights=SimulationWeights("rank")).weights(succs)
    assert constant == [1.0, 1.0]
    assert inverse == [0.5, pytest.approx(1 / 3)]
    assert rank == [1.0, 0.5]
    assert all(w > 0 for w in constant + inverse + rank)


def test_game_charges_every_successors_request():
    """A repeated request for one state returns the same list and is charged
    its extensions again, whether or not another state came between."""
    game = ConnectionGame(matrix_of(FORK))
    start = game.initial_state()
    s = game.successors(start)[0]
    charged = game.extension_inferences
    first = game.successors(s)
    assert len(first) == 2
    assert game.extension_inferences == charged + 2
    assert game.successors(s) is first
    assert game.extension_inferences == charged + 4
    game.successors(start)
    assert game.extension_inferences == 2 * charged + 4
    assert game.successors(s) is first
    assert game.extension_inferences == 2 * charged + 6


def counted_game(monkeypatch, cap=None):
    """A game on FORK that keeps at most `cap` lists (by default the real
    cap), and the list of states whose successors it computed."""
    computed = []
    compute = proving.successors
    if cap is not None:
        monkeypatch.setattr(proving, "_KEPT_LISTS", cap)
    monkeypatch.setattr(proving, "successors", lambda state, *args: computed.append(state) or compute(state, *args))
    return ConnectionGame(matrix_of(FORK)), computed


def test_game_recomputes_an_evicted_list_and_charges_it_the_same(monkeypatch):
    game, computed = counted_game(monkeypatch, 2)
    s = game.successors(game.initial_state())[0]
    charged = game.extension_inferences
    first = game.successors(s)
    charge = game.extension_inferences - charged
    for t in first:  # two more lists: the start's goes, then s's
        game.successors(t)
        assert len(game._kept) == 2
    charged = game.extension_inferences
    again = game.successors(s)
    assert len(computed) == 5 and computed[-1] is s
    assert again is not first
    assert [t.actions() for t in again] == [t.actions() for t in first]
    assert game.extension_inferences - charged == charge == 2


def test_game_never_hands_a_kept_list_to_an_equal_state(monkeypatch):
    game, computed = counted_game(monkeypatch)
    s = game.successors(game.initial_state())[0]
    first = game.successors(s)
    twin = dataclasses.replace(s)
    assert twin is not s
    assert all(getattr(twin, f.name) is getattr(s, f.name) for f in dataclasses.fields(s))
    again = game.successors(twin)
    assert computed[-1] is twin
    assert again is not first
    assert [t.actions() for t in again] == [t.actions() for t in first]
    assert game.successors(s) is first and game.successors(twin) is again


# --- state provability & the full reward ----------------------------------------

def test_state_provability_uses_remaining_literals():
    m = matrix_of("cnf(c1, axiom, p | q).\ncnf(c2, axiom, ~p).\ncnf(c3, axiom, ~q).\n")
    keys = KeyTable(m)
    store = Store()
    # record q as often failing
    store.record(keys.key(0, 2), False)
    store.record(keys.key(0, 2), False)
    model = ProvabilityModel(store)
    cfg = RewardConfig()
    s = initial_state(m)
    s = successors(s, m)[0]  # goal {p, q}

    def lit_value(ci, li):
        return model.literal_value(keys.key(ci, li), cfg)

    expected_q = literal_provability(0, 2, cfg.certainty_c, cfg.certainty_d)
    value = state_provability(s, lit_value, "product")
    assert value == pytest.approx(1.0 * expected_q)
    assert state_provability(s, lit_value, "min") == pytest.approx(expected_q)


def test_closed_state_scores_one(unit_pair_matrix):
    game = ConnectionGame(unit_pair_matrix)
    s = game.initial_state()
    while not s.is_closed:
        s = game.successors(s)[0]
    assert game.reward(s) == 1.0


def test_empty_model_reward_constant_one_with_zero_ratio_weight(unit_pair_matrix):
    game = ConnectionGame(unit_pair_matrix, reward=RewardConfig.with_ratio_weight(0.0))
    s = game.initial_state()
    seen = [game.reward(s)]
    while not s.is_closed:
        s = game.successors(s)[0]
        seen.append(game.reward(s))
    assert all(v == 1.0 for v in seen)
