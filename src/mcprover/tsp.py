"""Travelling-salesman search problem used to validate the MCTS engine.

States are partial tours (tuples of 1-based city numbers). Since a shorter
tour is better but UCT maximizes rewards in [0, 1], complete tours are scored
by normalizing their closed length between two instance-derivable bounds: the
sums of each city's cheapest and costliest outgoing edges.

Successor weights rate the next city by its partial-tour cost rank. Two
readings are supported: "prose" gives the nearest city the largest weight
(1 over the number of candidates at most as near); "formula" is the mirrored
count (1 over the number of candidates at least as far), which gives the
nearest city the smallest weight.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass

from .mcts import MctsProblem

WEIGHT_READINGS = ("prose", "formula")


@dataclass(frozen=True)
class TspInstance:
    distances: tuple  # full symmetric matrix, 0-based rows/cols, zero diagonal

    @property
    def n(self) -> int:
        return len(self.distances)

    def d(self, a: int, b: int) -> float:
        """Distance between 1-based city numbers."""
        return self.distances[a - 1][b - 1]

    def tour_length(self, tour, closed: bool = True) -> float:
        total = 0.0
        for a, b in zip(tour, tour[1:]):
            total += self.d(a, b)
        if closed and len(tour) > 1:
            total += self.d(tour[-1], tour[0])
        return total

    def bounds(self) -> tuple:
        """(lower, upper) tour-length bounds from per-city edge extremes; a
        single city has no edge and its one tour has length 0."""
        lower = 0.0
        upper = 0.0
        for i in range(self.n):
            row = [self.distances[i][j] for j in range(self.n) if j != i]
            lower += min(row, default=0.0)
            upper += max(row, default=0.0)
        return lower, upper

    @classmethod
    def from_edges(cls, n: int, edges) -> "TspInstance":
        if n < 1:
            raise ValueError(f"an instance needs at least 1 city, not {n}")
        seen = {}
        for i, j, dist in edges:
            if not (1 <= i <= n and 1 <= j <= n) or i == j:
                raise ValueError(f"bad edge ({i}, {j})")
            if not 0 <= dist < math.inf:
                raise ValueError(f"the distance of edge ({i}, {j}) must be finite and nonnegative, not {dist}")
            edge = (min(i, j), max(i, j))
            if edge in seen:
                raise ValueError(f"edge ({i}, {j}) is listed twice")
            seen[edge] = float(dist)
        expected = n * (n - 1) // 2
        if len(seen) != expected:  # before the n x n table, whose size n alone sets
            raise ValueError(f"expected {expected} distinct edges, found {len(seen)}")
        table = [[0.0] * n for _ in range(n)]
        for (i, j), dist in seen.items():
            table[i - 1][j - 1] = table[j - 1][i - 1] = dist
        return cls(tuple(tuple(row) for row in table))

    @classmethod
    def random(cls, n: int, seed: int) -> "TspInstance":
        rng = random.Random(seed)
        edges = [
            (i, j, rng.randint(1, 20))
            for i in range(1, n + 1)
            for j in range(i + 1, n + 1)
        ]
        return cls.from_edges(n, edges)

    @classmethod
    def parse(cls, text: str) -> "TspInstance":
        rows = [line.split() for line in text.splitlines() if line.strip()]
        if not rows or len(rows[0]) != 1:
            raise ValueError("instance file must start with the city count")
        n = int(rows[0][0])
        edges = []
        for row in rows[1:]:
            if len(row) != 3:
                raise ValueError(f"bad distance entry: {' '.join(row)!r}")
            edges.append((int(row[0]), int(row[1]), float(row[2])))
        return cls.from_edges(n, edges)


class TspGame(MctsProblem):
    def __init__(self, instance: TspInstance, reading: str = "prose"):
        if reading not in WEIGHT_READINGS:
            raise ValueError(f"unknown weight reading {reading!r}")
        self.instance = instance
        self.reading = reading
        lower, upper = instance.bounds()
        self._lower = lower
        self._span = upper - lower

    def initial_state(self) -> tuple:
        return ()

    def successors(self, state: tuple) -> list:
        if len(state) == self.instance.n:
            return []
        visited = set(state)
        return [state + (city,) for city in range(1, self.instance.n + 1) if city not in visited]

    def weights(self, candidates) -> list:
        costs = [self.instance.tour_length(c, closed=False) for c in candidates]
        if self.reading == "prose":
            return [1.0 / sum(1 for other in costs if other <= cost) for cost in costs]
        return [1.0 / sum(1 for other in costs if other >= cost) for cost in costs]

    def reward(self, state: tuple) -> float:
        closed = len(state) == self.instance.n
        length = self.instance.tour_length(state, closed=closed)
        if self._span == 0:
            return 1.0
        value = 1.0 - (length - self._lower) / self._span
        return min(1.0, max(0.0, value))

    def is_success(self, state: tuple) -> bool:
        # a tour is never a terminal "win": the search optimizes tour length
        return False


def brute_force_optimum(instance: TspInstance) -> tuple:
    """Exhaustive optimum for small instances: (tour, closed length)."""
    if instance.n > 10:
        raise ValueError("brute force is limited to 10 cities")
    if instance.n == 1:
        return (1,), 0.0
    best_tour = None
    best_length = None
    for rest in itertools.permutations(range(2, instance.n + 1)):
        tour = (1,) + rest
        length = instance.tour_length(tour, closed=True)
        if best_length is None or length < best_length:
            best_tour, best_length = tour, length
    return best_tour, best_length
