"""Connection proving as a single-player search problem for the MCTS engine.

States are calculus prover states; the successor relation is the calculus
one. Rewards mix subgoal progress with the learned provability estimate, and
transition weights follow the configured simulation-weight policy. Literal
provabilities depend only on matrix positions, so they are tabulated once per
problem instead of being hashed per state.
"""

from __future__ import annotations

from bisect import insort

from .calculus import CalculusOptions, Extension, ProverState, initial_state, successors
from .guidance import (
    ProvabilityModel,
    RewardConfig,
    SimulationWeights,
    extension_weight,
    reward_value,
    state_provability,
    subgoal_ratio,
)
from .mcts import MctsProblem
from .terms import Matrix
from .trainstore import KeyTable


class ConnectionGame(MctsProblem):
    def __init__(
        self,
        matrix: Matrix,
        calculus: CalculusOptions | None = None,
        weights: SimulationWeights | None = None,
        reward: RewardConfig | None = None,
        model: ProvabilityModel | None = None,
    ):
        self.matrix = matrix
        self.calculus = calculus or CalculusOptions()
        self.sim_weights = weights or SimulationWeights()
        self.reward_config = reward or RewardConfig()
        self.model = model or ProvabilityModel()
        self.extension_inferences = 0

        # provability value per matrix literal position, plus the start goal
        if len(self.model) == 0:
            self._values = None
            self._start_value = 1.0
        else:
            keys = KeyTable(matrix)
            config = self.reward_config
            self._values = tuple(
                tuple(
                    self.model.literal_value(keys.key(ci, li), config)
                    for li in range(len(clause.literals))
                )
                for ci, clause in enumerate(matrix.clauses)
            )
            self._start_value = self.model.literal_value(keys.key(-1, 0), config)

        # sorted candidate clause sizes per index key, for the rank policy
        self._candidate_sizes = {}
        if self.sim_weights.policy == "rank":
            for key, entries in matrix.index.items():
                sizes: list = []
                for ci, _ in entries:
                    insort(sizes, len(matrix.clauses[ci].literals))
                self._candidate_sizes[key] = sizes

    # MctsProblem interface

    def initial_state(self) -> ProverState:
        return initial_state(self.matrix)

    def successors(self, state: ProverState) -> list:
        if state.is_closed:
            return []
        pairs = successors(state, self.matrix, self.calculus)
        for action, _ in pairs:
            if isinstance(action, Extension):
                self.extension_inferences += 1
        return [successor for _, successor in pairs]

    def weights(self, state: ProverState, candidates) -> list:
        policy = self.sim_weights.policy
        out = []
        sizes = None
        for successor in candidates:
            action = successor.trail[0]
            if isinstance(action, Extension):
                clause_size = len(self.matrix.clauses[action.clause].literals)
                if sizes is None and policy == "rank":
                    head = state.goals[-1].clause[0]
                    sizes = self._candidate_sizes.get((head.predicate, head.positive), [])
                out.append(extension_weight(policy, clause_size, sizes))
            else:
                out.append(self.sim_weights.reduction_weight)
        return out

    def reward(self, state: ProverState) -> float:
        config = self.reward_config
        ratio = subgoal_ratio(state.open_count, state.opened_total, config.raw_ratio)
        model = state_provability(state, self._literal_value, config.combiner)
        return reward_value(ratio, model, config)

    def is_success(self, state: ProverState) -> bool:
        return state.is_closed

    def openness(self, state: ProverState) -> int:
        return state.open_count

    def _literal_value(self, clause_index: int, literal_index: int) -> float:
        if self._values is None:
            return 1.0
        if clause_index < 0:
            return self._start_value
        return self._values[clause_index][literal_index]
