"""Connection proving as a single-player search problem for the MCTS engine.

States are calculus prover states; the successor relation is the calculus
one. Rewards mix subgoal progress with the learned provability estimate, and
transition weights follow the configured simulation-weight policy. Literal
provabilities depend only on matrix positions, so they are tabulated once per
problem instead of being hashed per state.
"""

from __future__ import annotations

from .calculus import CalculusOptions, Extension, ProverState, extension_count, initial_state, successors
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

# The most successor lists a game keeps, the same cap as deepening's. A
# playout retraces the last one's states only while its draws agree, so the
# recent lists are the ones asked for again.
_KEPT_LISTS = 1 << 10


class ConnectionGame(MctsProblem):
    """The connection calculus as an MctsProblem.

    The engine asks for the successors of open states only; a solution's
    final state holds the whole proof in its trail. `extension_inferences`
    sums `extension_count` over the successors of every `successors` request,
    which is what inference budgets are charged. The last _KEPT_LISTS
    computed lists are kept, keyed by their states, which compare by
    identity, and the oldest goes first. Asking again for a kept state object
    returns the same list without recomputing it, and is still charged its
    extensions. That happens when a first-node expansion's playout asks for
    its leaf, and when a later playout retraces states an earlier one drew
    from."""

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
        # state -> (successor list, extension count), oldest first
        self._kept = {}

        # provability value per matrix literal position, plus the start
        # goal's; without a model every value is 1 and no reward reads them
        self._values = None
        if len(self.model):
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
                self._candidate_sizes[key] = tuple(sorted(len(matrix.clauses[ci].literals) for ci, _ in entries))

    # MctsProblem interface

    def initial_state(self) -> ProverState:
        return initial_state(self.matrix)

    def successors(self, state: ProverState) -> list:
        kept = self._kept
        entry = kept.get(state)
        if entry is None:
            if len(kept) >= _KEPT_LISTS:
                del kept[next(iter(kept))]
            out = successors(state, self.matrix, self.calculus)
            entry = kept[state] = (out, extension_count(out))
        self.extension_inferences += entry[1]
        return entry[0]

    def weights(self, candidates) -> list:
        policy = self.sim_weights.policy
        out = []
        sizes = None
        for successor in candidates:
            action = successor.trail[0]
            if isinstance(action, Extension):
                literals = self.matrix.clauses[action.clause].literals
                if sizes is None and policy == "rank":
                    # the index files this literal under the head's key
                    lit = literals[action.literal]
                    sizes = self._candidate_sizes.get((lit.predicate, not lit.positive), ())
                out.append(extension_weight(policy, len(literals), sizes))
            else:
                out.append(self.sim_weights.reduction_weight)
        return out

    def reward(self, state: ProverState) -> float:
        config = self.reward_config
        ratio = subgoal_ratio(state.open_count, state.opened_total, config.raw_ratio)
        model = 1.0 if self._values is None else state_provability(state, self._literal_value, config.combiner)
        return reward_value(ratio, model, config)

    def is_success(self, state: ProverState) -> bool:
        return state.is_closed

    def openness(self, state: ProverState) -> int:
        return state.open_count

    def _literal_value(self, clause_index: int, literal_index: int) -> float:
        if clause_index < 0:
            return self._start_value
        return self._values[clause_index][literal_index]
