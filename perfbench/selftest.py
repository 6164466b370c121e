"""Self-test of the benchmark: tiny workloads, and planted wrong answers.

    python3 perfbench/selftest.py

Runs each workload at a tiny size, then feeds each output check a wrong
answer (a corrupted certificate, a wrong expected status, a wrong chain
length, an overspent budget, a store that does not load back) and requires
the check to reject it. Also checks that tracing restores the prover and
repeats its counts, that attempt times are best-of-repeats scaled by the
host reference, and that the benchmark refuses to run without the prover's
sources. Exits 1 on the first failure. The file name keeps it out
of pytest's collection.
"""

from __future__ import annotations

import dataclasses
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import chains  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads as wl  # noqa: E402
from mcprover import checker, deepening, mcts, tptp  # noqa: E402
from mcprover.trainstore import Store  # noqa: E402

SEED = 7


def expect(label: str, ok: bool):
    print(f"{'ok  ' if ok else 'FAIL'} {label}")
    if not ok:
        raise SystemExit(1)


def rejects(label: str, errors: list):
    expect(f"rejects {label}: {errors[0] if errors else 'accepted'}", bool(errors))


def corpus(*names) -> list:
    entries = {e.name: e for e in wl.read_corpus()}
    return [entries[n] for n in names]


def test_corpus_train():
    entries = corpus("prop_chain3", "fof_socrates", "fo_trans", "sat_prop", "sat_chain")
    result = wl.CorpusTrain(SEED, entries).run_pass()
    expect("corpus-train pass is clean", not result.errors and not any(a.errors for a in result.attempts))
    expect("corpus-train proves the 3 theorems", result.solved == 3)

    theorem = entries[0]
    matrix = wl.load_matrix(tptp.load_problem(theorem.path))
    options = deepening.DeepeningOptions(max_depth=theorem.depth_bound, collect_training=True)
    proved = deepening.prove_iterative(matrix, options)
    cert = proved.outcome.certificate
    rejects("a theorem marked Satisfiable",
            wl.check_training_attempt(dataclasses.replace(theorem, status="Satisfiable"), matrix, proved))
    rejects("a proof deeper than DepthBound",
            wl.check_training_attempt(dataclasses.replace(theorem, depth_bound=0), matrix, proved))
    rejects("a certificate missing its last step",
            wl.check_certificate(matrix, dataclasses.replace(cert, actions=cert.actions[:-1]), len(cert)))
    first = cert.actions[0]
    bent = dataclasses.replace(first, literal=first.literal + 1)
    rejects("a certificate with a wrong literal",
            wl.check_certificate(matrix, dataclasses.replace(cert, actions=(bent,) + cert.actions[1:]),
                                 proved.outcome.final_state.extensions))
    rejects("a wrong extension count",
            wl.check_certificate(matrix, cert, proved.outcome.final_state.extensions + 1))

    sat = entries[3]
    sat_matrix = wl.load_matrix(tptp.load_problem(sat.path))
    unproved = deepening.prove_iterative(sat_matrix, deepening.DeepeningOptions(max_depth=sat.depth_bound))
    rejects("a satisfiable problem marked Theorem",
            wl.check_training_attempt(dataclasses.replace(sat, status="Theorem"), sat_matrix, unproved))

    store = Store()
    store.record_events(proved.events)
    text = store.dumps()
    expect("store round trip accepted", not wl.check_store_roundtrip(store, text, Store.loads(text)))
    lines = text.splitlines()
    fields = lines[0].split()
    fields[2] = str(int(fields[2]) + 1)
    tampered = "\n".join([" ".join(fields)] + lines[1:]) + "\n"
    rejects("a store that loads back different", wl.check_store_roundtrip(store, text, Store.loads(tampered)))


def test_mcts_eval():
    entries = corpus("prop_chain3", "fof_socrates", "fo_trans", "sat_prop")
    workload = wl.MctsEval(SEED, entries, budget=300)
    first, second = workload.run_pass(), workload.run_pass()
    expect("mcts-eval pass is clean", not any(a.errors for a in first.attempts))
    expect("mcts-eval repeats its counts", first.signature == second.signature)
    expect("mcts-eval runs 3 configurations per problem", len(first.attempts) == 3 * len(entries))

    theorem = entries[0]
    matrix = dict(workload.problems)[theorem]
    game_kwargs, search_kwargs = workload.configs["unguided"]
    game = wl.ConnectionGame(matrix, **game_kwargs)
    solved = mcts.run(game, mcts.SearchConfig(seed=wl.MCTS_SEED, **search_kwargs))
    expect("unguided MCTS proves prop_chain3", solved.solved)
    rejects("a proved theorem marked Satisfiable",
            wl.check_mcts_attempt(dataclasses.replace(theorem, status="Satisfiable"), matrix, solved))
    rejects("an exhausted theorem",
            wl.check_mcts_attempt(theorem, matrix, mcts.MctsResult(mcts.Exhausted(), solved.stats)))
    rejects("a search stopped by the clock",
            wl.check_mcts_attempt(theorem, matrix, mcts.MctsResult(mcts.BudgetSpent("time"), solved.stats)))
    cert = checker.certificate_for(solved.outcome.final_state, matrix)
    rejects("a certificate for another matrix",
            wl.check_certificate(matrix, dataclasses.replace(cert, matrix_digest="0" * 16), len(cert)))


def test_deep_chains():
    problems = chains.generate(SEED, prop=(5, 17), nested=(5, 17), bottomless=(60,))
    workload = wl.DeepChains(SEED, problems)
    first, second = workload.run_pass(), workload.run_pass()
    expect("deep-chains pass is clean (n + 2 extensions at n = 5 and 17)",
           not any(a.errors for a in first.attempts))
    expect("deep-chains repeats its counts", first.signature == second.signature)
    expect("deep-chains names depend on the seed",
           chains.generate(SEED, (5,), (), ())[0].text != chains.generate(SEED + 1, (5,), (), ())[0].text)

    (prop, prop_matrix), (bottomless, bottomless_matrix) = workload.problems[0], workload.problems[-1]
    proved = deepening.prove_iterative(prop_matrix, deepening.DeepeningOptions())
    rejects("a wrong chain length",
            wl.check_chain_attempt(dataclasses.replace(prop, steps=prop.steps + 1), prop_matrix, proved))
    rejects("a provable chain taken for a bottomless one",
            wl.check_chain_attempt(dataclasses.replace(prop, steps=None, budget=60), prop_matrix, proved))
    stopped = deepening.prove_iterative(bottomless_matrix, deepening.DeepeningOptions(inference_budget=60))
    expect("bottomless chain stops just past its budget", not wl.check_chain_attempt(bottomless, bottomless_matrix, stopped))
    rejects("a search that ran far past its budget",
            wl.check_chain_attempt(dataclasses.replace(bottomless, budget=40), bottomless_matrix, stopped))
    rejects("a search that stopped short of its budget",
            wl.check_chain_attempt(dataclasses.replace(bottomless, budget=80), bottomless_matrix, stopped))


def test_tracing():
    problems = chains.generate(SEED, prop=(9,), nested=(6,), bottomless=(50,))
    workload = wl.DeepChains(SEED, problems)
    original = deepening.prove_iterative
    tracer = spans.Tracer()
    with spans.tracing(tracer):
        expect("tracing wraps the prover", deepening.prove_iterative is not original)
        workload.run_pass()
        first = tracer.take()
        workload.run_pass()
        second = tracer.take()
    expect("tracing restores the prover", deepening.prove_iterative is original)
    counts = [{name: {k: v for k, v in d.items() if not k.endswith("_s")} for name, d in s.items() if name != "gc"}
              for s in (first, second)]
    expect("traced counts repeat between passes", counts[0] == counts[1])
    expect("traced spans cover calculus and unification",
           {"calculus.successors", "unification.unify", "unification.equal_under", "checker"} <= set(first))


def test_scaling():
    """Best-of-repeats per attempt, then scaled by the reference kernel."""
    def attempt(seconds, reference):
        return wl.Attempt("a", seconds, reference, 10, True)

    fast = [attempt(0.001 * (i + 1), 2 * run.REFERENCE_S) for i in range(100)]
    slow = [attempt(0.003 * (i + 1), 2 * run.REFERENCE_S) for i in range(100)]
    passes = [wl.PassResult(p, ()) for p in (slow, fast, slow)]
    metrics, scale = run.end_to_end(passes, [0.1])
    expect("host scale is REFERENCE_S over the kernel's best time", scale == 0.5)
    expect("attempt times are the fastest repeat, scaled",
           abs(metrics["attempt_p50_ms"]["value"] - 0.5 * 50.5) < 1e-9)


def test_bare_directory():
    """Without the prover's sources the benchmark fails and prints no result."""
    bare = os.path.join(ROOT, ".perfbench", "bare")
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, os.path.join(bare, "perfbench"), ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    done = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "corpus-train", "--seed", "1",
                           "--seconds", "1", "--trace", "0"], cwd=bare, capture_output=True, text=True,
                          timeout=60)
    shutil.rmtree(bare)
    expect(f"bare directory exits {done.returncode} without a result",
           done.returncode != 0 and '"metrics"' not in done.stdout)


if __name__ == "__main__":
    test_corpus_train()
    test_mcts_eval()
    test_deep_chains()
    test_tracing()
    test_scaling()
    test_bare_directory()
    print("selftest passed")
