"""The benchmark workloads: set-up, one pass of proof attempts, output checks.

Every attempt's work is fixed by a depth cap or an extension-inference
budget, never by a clock, so solve and inference counts repeat exactly and
only time moves. A pass is a fixed list of attempts; the timed loop in
`run.py` repeats whole passes. Each check returns a list of error strings;
an attempt fails when its list is not empty.

The prover is called through module attributes (`deepening.prove_iterative`,
not a local name), so that `spans.tracing` can wrap the calls.
"""

from __future__ import annotations

import gc
import hashlib
import os
import random
import re
import time
from dataclasses import dataclass, field

from mcprover import checker, clausify, deepening, mcts, tptp
from mcprover.guidance import ProvabilityModel, RewardConfig, SimulationWeights
from mcprover.proving import ConnectionGame
from mcprover.trainstore import Store

import chains

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
CORPUS_DIR = os.path.join(ROOT, "src", "mcprover", "corpus")

# Per-attempt extension-inference budget of every MCTS configuration.
MCTS_BUDGET = 3000
MCTS_SEED = 0
# bf MCTS needs over 20 s for sat_chain's first 600 inferences (the nested
# f(f(...)) terms make every regularity test longer as the tree deepens), so
# it is left out of mcts-eval; deep-chains covers that family with deepening.
MCTS_SKIP = ("sat_chain",)


@dataclass
class Attempt:
    name: str
    seconds: float
    reference_s: float    # host-speed reference timed just before (hostspeed.py)
    inferences: int
    solved: bool
    errors: list = field(default_factory=list)


@dataclass
class PassResult:
    attempts: list
    signature: tuple      # deterministic summary; must repeat across passes
    errors: list = field(default_factory=list)
    seconds: float = 0.0

    @property
    def solved(self) -> int:
        return sum(a.solved for a in self.attempts)

    @property
    def inferences(self) -> int:
        return sum(a.inferences for a in self.attempts)


# --- corpus -------------------------------------------------------------------

@dataclass(frozen=True)
class CorpusEntry:
    name: str
    path: str
    status: str           # Theorem | Satisfiable
    depth_bound: int


_ANNOTATION = re.compile(r"^%\s*(Status|DepthBound)\s*:\s*(\S+)", re.MULTILINE)


def read_corpus(directory: str = CORPUS_DIR) -> list:
    entries = []
    for filename in sorted(os.listdir(directory)):
        if not filename.endswith(".p"):
            continue
        path = os.path.join(directory, filename)
        with open(path, encoding="utf-8") as handle:
            notes = dict(_ANNOTATION.findall(handle.read()))
        entries.append(CorpusEntry(filename[:-2], path, notes["Status"], int(notes["DepthBound"])))
    if not entries:
        raise FileNotFoundError(f"no .p problems under {directory}")
    return entries


def no_reference() -> float:
    """Stands in for `hostspeed.Reference.seconds` where times are not scaled."""
    return 0.0


def settle():
    """Collect a finished MCTS attempt's garbage before the next one starts.

    MCTS trees are reference cycles (each node points to its parent), so only
    a full collection frees them; without this, peak memory and the moment of
    each gen-2 pause would depend on the order of the attempts. A deepening
    pass leaves under two thousand cyclic objects behind and needs no such
    step.
    """
    gc.collect()


def load_matrix(problem):
    return clausify.prepare_matrix(clausify.clausify(problem))


def check_certificate(matrix, certificate, extensions: int) -> list:
    """The independent checker accepts the proof and replays as many
    extensions as the engine reported."""
    verdict = checker.check_proof(matrix, certificate)
    if not verdict.accepted:
        return [f"certificate rejected: {verdict.reason}"]
    if verdict.extension_count != extensions:
        return [f"checker replayed {verdict.extension_count} extensions, engine reported {extensions}"]
    return []


# --- corpus-train ---------------------------------------------------------------

def check_training_attempt(entry: CorpusEntry, matrix, result) -> list:
    outcome = result.outcome
    if isinstance(outcome, deepening.Proof):
        if entry.status != "Theorem":
            return [f"{entry.name}: {entry.status} problem proved"]
        if outcome.depth > entry.depth_bound:
            return [f"{entry.name}: proved at depth {outcome.depth} > bound {entry.depth_bound}"]
        return check_certificate(matrix, outcome.certificate, outcome.final_state.extensions)
    if entry.status == "Theorem":
        return [f"{entry.name}: theorem not proved within depth {entry.depth_bound} ({outcome})"]
    if not isinstance(outcome, deepening.Saturated):
        return [f"{entry.name}: search ended by {outcome}"]
    return []


def check_store_roundtrip(store: Store, text: str, loaded: Store) -> list:
    if loaded != store or loaded.dumps() != text:
        return ["dumped store does not load back equal"]
    return []


class CorpusTrain:
    """The learning step of `mcprover train` over the bundled corpus, with
    each search capped at the problem's DepthBound instead of a clock."""

    def __init__(self, seed: int, entries: list | None = None):
        self.entries = list(entries if entries is not None else read_corpus())
        random.Random(seed).shuffle(self.entries)

    def run_pass(self, reference=no_reference) -> PassResult:
        return self.train(reference)[0]

    def train(self, reference=no_reference):
        """One pass; also returns the merged store."""
        store = Store()
        attempts = []
        for entry in self.entries:
            host = reference()
            started = time.perf_counter()
            matrix = load_matrix(tptp.load_problem(entry.path))
            options = deepening.DeepeningOptions(max_depth=entry.depth_bound, collect_training=True)
            result = deepening.prove_iterative(matrix, options)
            errors = check_training_attempt(entry, matrix, result)
            if result.proved:
                store.record_events(result.events)
            attempts.append(Attempt(entry.name, time.perf_counter() - started, host,
                                    result.stats.extension_inferences, result.proved, errors))
        text = store.dumps()
        errors = check_store_roundtrip(store, text, Store.loads(text))
        signature = (sum(a.solved for a in attempts), sum(a.inferences for a in attempts),
                     len(store), hashlib.sha256(text.encode()).hexdigest())
        return PassResult(attempts, signature, errors), store


# --- mcts-eval -----------------------------------------------------------------

def mcts_configs(model: ProvabilityModel) -> dict:
    """The README's three bench configurations: name -> (game kwargs, search kwargs)."""
    flat = RewardConfig.with_ratio_weight(0.0)
    return {
        "bf": ({"reward": flat}, {"max_sim_depth": 1}),
        "unguided": ({"reward": flat}, {"max_sim_depth": 8}),
        "guided": ({"reward": flat, "weights": SimulationWeights("rank"), "model": model},
                   {"max_sim_depth": 8, "cp_base": 0.2}),
    }


def check_mcts_attempt(entry: CorpusEntry, matrix, result) -> list:
    outcome = result.outcome
    if isinstance(outcome, mcts.Solution):
        if entry.status != "Theorem":
            return [f"{entry.name}: {entry.status} problem proved"]
        final = outcome.final_state
        return check_certificate(matrix, checker.certificate_for(final, matrix), final.extensions)
    if isinstance(outcome, mcts.Exhausted) and entry.status == "Theorem":
        return [f"{entry.name}: search space of a theorem exhausted"]
    if isinstance(outcome, mcts.BudgetSpent) and outcome.reason != "stopped":
        return [f"{entry.name}: search ended by {outcome.reason}"]
    return []


class MctsEval:
    """The paper's evaluation: bf, unguided and guided MCTS on the bundled
    problems, interleaved per problem, one inference budget for all."""

    def __init__(self, seed: int, entries: list | None = None, budget: int = MCTS_BUDGET):
        entries = list(entries if entries is not None else read_corpus())
        _, store = CorpusTrain(seed, entries).train()
        self.configs = mcts_configs(ProvabilityModel(store))
        self.budget = budget
        self.problems = [(e, load_matrix(tptp.load_problem(e.path)))
                         for e in entries if e.name not in MCTS_SKIP]
        random.Random(seed).shuffle(self.problems)

    def attempt(self, entry, matrix, game_kwargs, search_kwargs, host: float) -> Attempt:
        started = time.perf_counter()
        game = ConnectionGame(matrix, **game_kwargs)
        budget = self.budget
        config = mcts.SearchConfig(seed=MCTS_SEED, **search_kwargs)
        result = mcts.run(game, config, stop=lambda: game.extension_inferences >= budget)
        errors = check_mcts_attempt(entry, matrix, result)
        return Attempt(entry.name, time.perf_counter() - started, host,
                       game.extension_inferences, result.solved, errors)

    def run_pass(self, reference=no_reference) -> PassResult:
        attempts = []
        totals = {name: [0, 0] for name in self.configs}
        for entry, matrix in self.problems:
            for name, (game_kwargs, search_kwargs) in self.configs.items():
                attempt = self.attempt(entry, matrix, game_kwargs, search_kwargs, reference())
                settle()
                attempts.append(attempt)
                totals[name][0] += attempt.solved
                totals[name][1] += attempt.inferences
        signature = tuple((name, *totals[name]) for name in self.configs)
        return PassResult(attempts, signature)


# --- deep-chains ---------------------------------------------------------------

def check_chain_attempt(problem: chains.ChainProblem, matrix, result) -> list:
    outcome = result.outcome
    if problem.provable:
        n = problem.steps
        if not isinstance(outcome, deepening.Proof):
            return [f"{problem.name}: chain not proved ({outcome})"]
        final = outcome.final_state
        errors = []
        if final.extensions != n + 2 or final.reductions != 0:
            errors.append(f"{problem.name}: proof has {final.extensions} extensions and "
                          f"{final.reductions} reductions, expected {n + 2} and 0")
        if outcome.depth != n + 1:
            errors.append(f"{problem.name}: proved in round {outcome.depth}, expected {n + 1}")
        return errors + check_certificate(matrix, outcome.certificate, n + 2)
    if isinstance(outcome, deepening.Proof):
        return [f"{problem.name}: bottomless chain proved"]
    # the budget is tested before each successor call, and one call adds at
    # most one inference per candidate clause
    spent, budget = result.stats.extension_inferences, problem.budget
    widest = max(len(entries) for entries in matrix.index.values())
    if not (isinstance(outcome, deepening.Timeout) and outcome.reason == "inferences"
            and budget < spent <= budget + widest):
        return [f"{problem.name}: stopped by {outcome} after {spent} inferences, "
                f"budget {budget} (+{widest})"]
    return []


class DeepChains:
    """Seeded chain problems proved by the default deepening schedule."""

    def __init__(self, seed: int, problems: list | None = None):
        problems = problems if problems is not None else chains.generate(seed)
        self.problems = [(p, load_matrix(tptp.parse_problem(p.text))) for p in problems]

    def run_pass(self, reference=no_reference) -> PassResult:
        attempts = []
        for problem, matrix in self.problems:
            host = reference()
            started = time.perf_counter()
            options = deepening.DeepeningOptions(inference_budget=problem.budget)
            result = deepening.prove_iterative(matrix, options)
            errors = check_chain_attempt(problem, matrix, result)
            attempts.append(Attempt(problem.name, time.perf_counter() - started, host,
                                    result.stats.extension_inferences, result.proved, errors))
        signature = tuple((a.name, a.solved, a.inferences) for a in attempts)
        return PassResult(attempts, signature)


WORKLOADS = {"corpus-train": CorpusTrain, "mcts-eval": MctsEval, "deep-chains": DeepChains}
