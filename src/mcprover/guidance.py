"""Simulation weights and reward functions for the proving game.

Rewards combine two provability estimates in [0, 1]: progress measured as the
fraction of ever-opened subgoals that are closed again, and a learned estimate
built from literal success/failure statistics of earlier proofs. Transition
weights bias random playouts; reductions get a fixed weight, extensions are
weighted per policy by the size of the connected clause.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass

from .trainstore import LiteralKey, Store

WEIGHT_POLICIES = ("constant", "inverse", "rank")
COMBINERS = ("product", "min", "harmonic", "geometric", "arithmetic")


@dataclass(frozen=True)
class SimulationWeights:
    policy: str = "constant"
    reduction_weight: float = 1.0

    def __post_init__(self):
        if self.policy not in WEIGHT_POLICIES:
            raise ValueError(f"unknown weight policy {self.policy!r}")
        if not 0 < self.reduction_weight < math.inf:
            raise ValueError("reduction weight must be positive and finite")


@dataclass(frozen=True)
class RewardConfig:
    ratio_weight: float = 0.5  # the model component weighs the rest
    combiner: str = "geometric"
    certainty_c: float = 1.0
    certainty_d: float = 2.0
    raw_ratio: bool = False

    def __post_init__(self):
        if not 0 <= self.ratio_weight <= 1:  # NaN fails too
            raise ValueError("the reward ratio weight must lie in [0, 1]")
        if self.combiner not in COMBINERS:
            raise ValueError(f"unknown combiner {self.combiner!r}")
        if not 0.0 <= self.certainty_c <= 1.0:
            raise ValueError("certainty constant C must lie in [0, 1]")
        if not 0 < self.certainty_d < math.inf:
            raise ValueError("certainty constant D must be positive and finite")

    @property
    def model_weight(self) -> float:
        return 1.0 - self.ratio_weight

    @classmethod
    def with_ratio_weight(cls, ratio_weight: float, **kwargs) -> "RewardConfig":
        return cls(ratio_weight=ratio_weight, **kwargs)


def extension_weight(policy: str, clause_size: int, candidate_sizes) -> float:
    """Weight of an extension per policy.

    candidate_sizes: sorted sizes of all index candidates for the goal literal
    (only consulted by the rank policy; the divisor counts candidates no larger
    than the connected clause, the clause itself included).
    """
    if policy == "constant":
        return 1.0
    if policy == "inverse":
        return 1.0 / clause_size
    return 1.0 / bisect_right(candidate_sizes, clause_size)


def subgoal_ratio(open_count: int, opened_total: int, raw: bool = False) -> float:
    if opened_total <= 0:
        return 0.0
    ratio = open_count / opened_total
    return ratio if raw else 1.0 - ratio


def certainty(x: float, c: float, d: float) -> float:
    try:
        return 1.0 - c / (x**d + 1.0)
    except OverflowError:  # x**d past the float range: the limit, c / inf = 0
        return 1.0


def literal_provability(p: int, n: int, c: float = 1.0, d: float = 2.0) -> float:
    """Learned estimate of how often a literal occurrence closes.

    Unseen literals score 1 (optimism); otherwise the success rate pulled
    toward 1 by the certainty of having seen the literal only p+n times.
    """
    total = p + n
    if total == 0:
        return 1.0
    return 1.0 + certainty(total, c, d) * (p / total - 1.0)


def combine(values, combiner: str) -> float:
    values = list(values)
    if not values:
        return 1.0
    if combiner == "product":
        return math.prod(values, start=1.0)
    if combiner == "min":
        return min(values)
    if combiner == "arithmetic":
        return sum(values) / len(values)
    if combiner == "geometric":
        return math.prod(values, start=1.0) ** (1.0 / len(values))
    # harmonic; the limit value for any zero entry is zero
    if any(v == 0.0 for v in values):
        return 0.0
    return len(values) / sum(1.0 / v for v in values)


def state_provability(state, literal_value, combiner: str = "geometric") -> float:
    """Combine per-goal clause provabilities of a prover state.

    literal_value: callable (clause_index, literal_index) -> provability of
    that matrix literal position. Each open goal contributes the product over
    its remaining literals; a closed state scores 1.
    """
    clause_values = []
    for goal in state.goals:
        value = 1.0
        for li in goal.literal_indices:
            value *= literal_value(goal.clause_index, li)
        clause_values.append(value)
    return combine(clause_values, combiner)


def reward_value(ratio_component: float, model_component: float, config: RewardConfig) -> float:
    value = config.ratio_weight * ratio_component + config.model_weight * model_component
    return min(1.0, max(0.0, value))


class ProvabilityModel:
    """Read-only literal statistics; absent keys count as (0, 0), i.e. value 1."""

    def __init__(self, store: Store | None = None):
        self._store = store or Store()

    @classmethod
    def load(cls, path: str) -> "ProvabilityModel":
        return cls(Store.load(path))

    def __len__(self) -> int:
        return len(self._store)

    def literal_value(self, key: LiteralKey, config: RewardConfig) -> float:
        p, n = self._store.counts(key)
        return literal_provability(p, n, config.certainty_c, config.certainty_d)
