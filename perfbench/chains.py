"""Seeded chain problems for the `deep-chains` workload.

Three families, at fixed sizes so that every seed asks for the same work:

  prop       p0, ~p_i | p_{i+1}, ~p_n         n distinct predicates on one path
  nested     p(c), ~p(X) | p(s(X)), ~p(s^n(c)) one predicate, terms n deep
  bottomless p(c), ~p(X) | p(s(X)), ~p(d)      never closes; stopped by an
                                               extension-inference budget

A provable chain of n steps has a proof of exactly n + 2 extensions and no
reductions: one from the start goal into the positive unit, n through the
step clauses and one into the negative unit. The default deepening schedule
(start 1, increment 1) finds it in round n + 1.

The seed only picks the symbol names, so the search does the same work on
every seed and the per-module counts repeat exactly.

Write the problems of one seed as TPTP files:

    python3 perfbench/chains.py --seed 1 --out .perfbench/chains-1
"""

from __future__ import annotations

import argparse
import os
import random
from dataclasses import dataclass

# 103 problems, so that a pass has more than 100 attempts (see run.py)
PROP_STEPS = tuple(range(5, 82, 2))
NESTED_STEPS = tuple(range(2, 30))
BOTTOMLESS_BUDGETS = tuple(range(40, 400, 10))


@dataclass(frozen=True)
class ChainProblem:
    name: str
    family: str            # prop | nested | bottomless
    steps: int | None      # n for a provable chain
    budget: int | None     # extension-inference budget for a bottomless one
    text: str

    @property
    def provable(self) -> bool:
        return self.steps is not None


def _symbol(rng: random.Random, taken: set) -> str:
    while True:
        name = rng.choice("abcdefghijklmnopqrstuvwxyz") + "".join(
            rng.choice("abcdefghijklmnopqrstuvwxyz0123456789") for _ in range(5)
        )
        if name not in taken:
            taken.add(name)
            return name


def _header(name: str, status: str, detail: str) -> list:
    return [f"% Problem : {name}", f"% Status : {status}", f"% {detail}"]


def prop_chain(name: str, steps: int, rng: random.Random) -> ChainProblem:
    base = _symbol(rng, set())
    p = [f"{base}_{i}" for i in range(steps + 1)]
    lines = _header(name, "Theorem", f"Steps : {steps}")
    lines.append(f"cnf(start, axiom, {p[0]}).")
    lines += [f"cnf(step{i}, axiom, ~{p[i]} | {p[i + 1]})." for i in range(steps)]
    lines.append(f"cnf(goal, negated_conjecture, ~{p[steps]}).")
    return ChainProblem(name, "prop", steps, None, "\n".join(lines) + "\n")


def _unary_chain(name: str, family: str, steps, budget, rng: random.Random) -> ChainProblem:
    taken: set = set()
    p, s, c, d = (_symbol(rng, taken) for _ in range(4))
    if steps is None:
        status, detail, goal = "Satisfiable", f"InferenceBudget : {budget}", d
    else:
        status, detail, goal = "Theorem", f"Steps : {steps}", f"{s}(" * steps + c + ")" * steps
    lines = _header(name, status, detail)
    lines.append(f"cnf(start, axiom, {p}({c})).")
    lines.append(f"cnf(step, axiom, ~{p}(X) | {p}({s}(X))).")
    lines.append(f"cnf(goal, negated_conjecture, ~{p}({goal})).")
    return ChainProblem(name, family, steps, budget, "\n".join(lines) + "\n")


def nested_chain(name: str, steps: int, rng: random.Random) -> ChainProblem:
    return _unary_chain(name, "nested", steps, None, rng)


def bottomless_chain(name: str, budget: int, rng: random.Random) -> ChainProblem:
    return _unary_chain(name, "bottomless", None, budget, rng)


def generate(seed: int, prop=PROP_STEPS, nested=NESTED_STEPS, bottomless=BOTTOMLESS_BUDGETS) -> list:
    """All chain problems of one seed, in a fixed family and size order."""
    rng = random.Random(seed)
    problems = [prop_chain(f"prop_{n}", n, rng) for n in prop]
    problems += [nested_chain(f"nested_{n}", n, rng) for n in nested]
    problems += [bottomless_chain(f"bottomless_{b}", b, rng) for b in bottomless]
    return problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="write the deep-chains problems of one seed")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True, help="directory for the .p files")
    args = parser.parse_args(argv)
    os.makedirs(args.out, exist_ok=True)
    for problem in generate(args.seed):
        with open(os.path.join(args.out, problem.name + ".p"), "w", encoding="utf-8") as handle:
            handle.write(problem.text)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
