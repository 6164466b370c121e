import os
from collections import Counter
from dataclasses import replace

import pytest
from hypothesis import given, settings

from conftest import matrix_of
from mcprover import deepening
from mcprover.calculus import CalculusOptions, Extension, extension_count, successors
from mcprover.checker import check_proof, format_certificate
from mcprover.deepening import (
    DeepeningOptions,
    Proof,
    Saturated,
    Timeout,
    prove_iterative,
)
from mcprover.terms import TOP_PREDICATE
from mcprover.trainstore import KeyTable
from mcprover.clausify import load_matrix
from oracles import annotated_corpus, factors_through
from test_calculus import _PROBLEM


def test_unit_pair_proof_at_depth_one(unit_pair_matrix):
    res = prove_iterative(unit_pair_matrix)
    assert isinstance(res.outcome, Proof)
    assert res.outcome.depth == 1
    assert res.outcome.final_state.extensions == 2
    assert check_proof(unit_pair_matrix, res.outcome.certificate).accepted


def test_no_complement_saturates():
    m = matrix_of("cnf(c1, axiom, p).\ncnf(c2, axiom, p).\n")
    res = prove_iterative(m)
    assert isinstance(res.outcome, Saturated)
    assert res.outcome.complete


def test_no_positive_clause_reported_distinctly():
    m = matrix_of("cnf(c1, axiom, ~p).\ncnf(c2, axiom, ~q).\n")
    res = prove_iterative(m)
    assert isinstance(res.outcome, Saturated)
    assert res.outcome.reason == "no positive start clause"


def test_depth_cap_reports_incomplete_saturation():
    m = matrix_of("cnf(c1, axiom, p(a)).\ncnf(c2, axiom, ~p(X) | p(f(X))).\n")
    res = prove_iterative(m, DeepeningOptions(max_depth=4))
    assert isinstance(res.outcome, Saturated)
    assert not res.outcome.complete
    assert res.outcome.depth == 4


def test_inference_budget_timeout():
    m = matrix_of("cnf(c1, axiom, p(a)).\ncnf(c2, axiom, ~p(X) | p(f(X))).\n")
    res = prove_iterative(m, DeepeningOptions(inference_budget=500))
    assert isinstance(res.outcome, Timeout)
    assert res.outcome.reason == "inferences"


PIGEON3 = """
cnf(p1, axiom, h11 | h12).
cnf(p2, axiom, h21 | h22).
cnf(p3, axiom, h31 | h32).
cnf(n1, axiom, ~h11 | ~h21).
cnf(n2, axiom, ~h11 | ~h31).
cnf(n3, axiom, ~h21 | ~h31).
cnf(n4, axiom, ~h12 | ~h22).
cnf(n5, axiom, ~h12 | ~h32).
cnf(n6, axiom, ~h22 | ~h32).
"""


def test_cut_still_proves_with_fewer_or_equal_extensions():
    m = matrix_of(PIGEON3)
    full = prove_iterative(m, DeepeningOptions(cut=False))
    cut = prove_iterative(m, DeepeningOptions(cut=True))
    assert isinstance(full.outcome, Proof) and isinstance(cut.outcome, Proof)
    assert cut.stats.extension_inferences <= full.stats.extension_inferences
    assert check_proof(m, cut.outcome.certificate).accepted


def test_determinism_of_runs():
    m = matrix_of(PIGEON3)
    a = prove_iterative(m, DeepeningOptions())
    b = prove_iterative(m, DeepeningOptions())
    assert format_certificate(a.outcome.certificate) == format_certificate(b.outcome.certificate)
    assert a.stats == b.stats


def test_certificate_extension_counter_matches_checker():
    for text in (
        PIGEON3,
        "cnf(c1, axiom, p).\ncnf(c2, axiom, ~p | q).\ncnf(c3, axiom, ~q).\n",
    ):
        m = matrix_of(text)
        res = prove_iterative(m)
        verdict = check_proof(m, res.outcome.certificate)
        assert verdict.accepted
        assert verdict.extension_count == res.outcome.final_state.extensions


# --- training events ---------------------------------------------------------

def event_counts(matrix, events):
    """Map readable literal positions to (successes, failures)."""
    keys = KeyTable(matrix)
    names = {}
    for ci, clause in enumerate(matrix.clauses):
        for li, lit in enumerate(clause.literals):
            sign = "" if lit.positive else "~"
            names[keys.key(ci, li)] = f"{sign}{lit.predicate}"
    names[keys.key(-1, 0)] = "top"
    out = {}
    for event in events:
        label = names[event.key]
        p, n = out.get(label, (0, 0))
        out[label] = (p + 1, n) if event.success else (p, n + 1)
    return out


def test_unit_pair_training_events(unit_pair_matrix):
    res = prove_iterative(unit_pair_matrix, DeepeningOptions(collect_training=True))
    counts = event_counts(unit_pair_matrix, res.events)
    # successes for the start goal, the goal literal p, and the connected ~p
    assert counts == {"top": (1, 0), "p": (1, 0), "~p": (1, 0)}


def test_failed_unification_emits_failure_event():
    m = matrix_of(
        "cnf(c1, axiom, p | q).\ncnf(c2, axiom, ~p | r(b)).\ncnf(c3, axiom, ~r(c)).\n"
        "cnf(c4, axiom, ~p).\ncnf(c5, axiom, ~q).\n"
    )
    res = prove_iterative(m, DeepeningOptions(collect_training=True))
    assert res.proved
    counts = event_counts(m, res.events)
    # r(b) was attempted (via c2) but its only closer r(c) cannot unify
    assert counts.get("r", (0, 0))[1] >= 1
    # p still closed by the unit clause afterwards
    assert counts["p"][0] >= 1


def test_reduction_success_event_recorded():
    m = matrix_of(
        "cnf(c1, axiom, q).\ncnf(c2, axiom, ~q | r).\ncnf(c3, axiom, ~r | ~q).\n"
    )
    res = prove_iterative(m, DeepeningOptions(collect_training=True))
    assert res.proved
    counts = event_counts(m, res.events)
    assert counts["~q"][0] >= 1  # closed by reduction against the path


def test_regularity_never_loses_corpus_proofs():
    """Solved sets agree with the regularity filter on and off."""
    from mcprover.calculus import CalculusOptions
    from mcprover.clausify import clausify, prepare_matrix
    from mcprover.tptp import load_problem

    for info in annotated_corpus():
        if info.status != "Theorem":
            continue
        m = prepare_matrix(clausify(load_problem(info.path)))
        strict = prove_iterative(m, DeepeningOptions(max_depth=info.depth_bound, time_budget=10.0))
        loose = prove_iterative(
            m,
            DeepeningOptions(
                max_depth=info.depth_bound,
                time_budget=10.0,
                calculus=CalculusOptions(regularity=False),
            ),
        )
        assert isinstance(strict.outcome, Proof), info.name
        assert isinstance(loose.outcome, Proof), info.name


def test_successor_substitutions_factor_through_parent(unit_pair_matrix):
    from mcprover.calculus import initial_state, successors

    m = matrix_of(
        "cnf(c1, axiom, p(a)).\ncnf(c2, axiom, ~p(X) | q(X, f(X))).\ncnf(c3, axiom, ~q(Y, Z)).\n"
    )
    stack = [initial_state(m)]
    visited = 0
    while stack and visited < 200:
        state = stack.pop()
        visited += 1
        if state.is_closed:
            continue
        for succ in successors(state, m):
            assert factors_through(succ.sigma, state.sigma)
            stack.append(succ)


def test_no_events_without_flag(unit_pair_matrix):
    res = prove_iterative(unit_pair_matrix, DeepeningOptions())
    assert res.events == []


def test_top_connection_target_not_recorded(unit_pair_matrix):
    res = prove_iterative(unit_pair_matrix, DeepeningOptions(collect_training=True))
    keys = KeyTable(unit_pair_matrix)
    neg_top_key = keys.key(0, 0)  # the added ~top literal of the prepared clause
    assert unit_pair_matrix.clauses[0].literals[0].predicate == TOP_PREDICATE
    assert all(event.key != neg_top_key for event in res.events)


def test_bound_probe_agrees_with_the_unpruned_extensions(monkeypatch):
    """Wherever the corpus's deepening runs probe a state at the depth bound,
    `has_applicable_extension` answers whether its unpruned successor list
    holds an extension."""
    probed = []
    probe = deepening.has_applicable_extension
    monkeypatch.setattr(deepening, "has_applicable_extension",
                        lambda state, matrix: probed.append((state, matrix)) or probe(state, matrix))
    for info in annotated_corpus():
        prove_iterative(load_matrix(info.path), DeepeningOptions(max_depth=info.depth_bound))
    answers = Counter()
    for state, matrix in probed:
        unpruned = successors(state, matrix, CalculusOptions(regularity=False))
        answer = probe(state, matrix)
        assert answer == any(type(x.trail[0]) is Extension for x in unpruned)
        answers[answer] += 1
    assert answers[True] and answers[False], answers


# --- successor lists kept across rounds ----------------------------------------

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench")

# a branching problem whose states below the bound double with every round
BRANCHING = """
cnf(a, axiom, r(c, c)).
cnf(b, axiom, ~r(X, Y) | r(f(X), Y) | r(Y, X)).
cnf(c, axiom, ~r(X, Y) | r(X, g(Y))).
cnf(g, negated_conjecture, ~r(d, d)).
"""


def run_summary(matrix, options):
    """Everything a run reports, in a form that compares by value."""
    res = prove_iterative(matrix, options)
    outcome = res.outcome
    if isinstance(outcome, Proof):
        outcome = (format_certificate(outcome.certificate), outcome.depth)
    return outcome, res.stats, res.events


def checked_round(run, sizes, searches):
    """`_DepthSearch.run` that records the search and how many lists it kept
    after each round, and checks that the round only added lists, within the
    cap, each with its extension count, and kept only lists of states later
    rounds reach through kept lists: the root and their successors."""
    def checked(search, root, bound):
        before = dict(search.kept)
        try:
            return run(search, root, bound)
        finally:
            searches.append(search)
            sizes.append(len(search.kept))
            assert all(search.kept.get(key) is entry for key, entry in before.items())
            assert len(search.kept) <= deepening._KEPT_EXPANSIONS
            assert all(count == extension_count(succs) for succs, count in search.kept.values())
            reachable = {root}.union(*(succs for succs, _ in search.kept.values()))
            assert not search.kept.keys() - reachable
    return checked


def replayed_round(run):
    """`_DepthSearch.run` that drops the point where the last round met its
    bound, so that the round replays from the root."""
    def replayed(search, root, bound):
        search.resume = None
        return run(search, root, bound)
    return replayed


def assert_kept_lists_change_nothing(matrix, options, label=""):
    """Runs with no list kept across rounds or with the cap in force, each
    either resuming every round where the round before met its bound or
    replaying it from the root, report the same outcome, certificate, depth,
    counts and events, and each runs all its rounds on one search object;
    returns the number of lists the run with the cap in force that resumes
    had kept after each round."""
    runs = []
    for cap in (0, deepening._KEPT_EXPANSIONS):
        for resume in (False, True):
            sizes, searches = [], []
            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(deepening, "_KEPT_EXPANSIONS", cap)
                run = checked_round(deepening._DepthSearch.run, sizes, searches)
                patch.setattr(deepening._DepthSearch, "run", run if resume else replayed_round(run))
                runs.append(run_summary(matrix, options))
            assert len(set(searches)) <= 1, label
    assert all(run == runs[0] for run in runs[1:]), label
    return sizes


@pytest.mark.parametrize("cut", [False, True])
def test_kept_lists_change_no_corpus_run(cut):
    for info in annotated_corpus():
        options = DeepeningOptions(max_depth=info.depth_bound, cut=cut, collect_training=True)
        assert_kept_lists_change_nothing(load_matrix(info.path), options, info.name)


@pytest.mark.parametrize("budget", [7, 50, 333])
def test_kept_lists_change_no_budgeted_corpus_run(budget):
    for info in annotated_corpus():
        options = DeepeningOptions(inference_budget=budget, collect_training=True)
        assert_kept_lists_change_nothing(load_matrix(info.path), options, info.name)


def test_resumed_rounds_change_no_corpus_run_of_a_wider_schedule():
    """Rounds that deepen by more than one level resume as exactly."""
    for info in annotated_corpus():
        options = DeepeningOptions(start_depth=2, increment=3, inference_budget=2000, collect_training=True)
        assert_kept_lists_change_nothing(load_matrix(info.path), options, info.name)


def test_kept_lists_change_no_chain_run(monkeypatch):
    monkeypatch.syspath_prepend(PERFBENCH)
    import chains

    for problem in chains.generate(7):
        options = DeepeningOptions(inference_budget=problem.budget)
        assert_kept_lists_change_nothing(matrix_of(problem.text), options, problem.name)


@pytest.mark.parametrize("cut", [False, True])
@settings(max_examples=200, deadline=None)
@given(_PROBLEM)
def test_kept_lists_change_no_generated_run(cut, problem):
    options = DeepeningOptions(max_depth=6, inference_budget=2000, cut=cut, collect_training=True)
    assert_kept_lists_change_nothing(matrix_of(problem), options)


def chain_text(n):
    """A propositional chain of n steps, proved in round n + 1."""
    text = "cnf(s, axiom, p0).\n" + "".join(f"cnf(c{i}, axiom, ~p{i} | p{i + 1}).\n" for i in range(n))
    return text + f"cnf(g, negated_conjecture, ~p{n}).\n"


def test_chain_expansions_grow_linearly_with_its_length(monkeypatch):
    """Each round resumes at the state the round before cut at its bound, and
    computes only the states past it, so a chain of n steps, proved in round
    n + 1, costs O(n) expansions and successor calls instead of the O(n^2) of
    replaying every round from the root."""
    n = 300
    calls, expansions = [], []
    compute = deepening.successors
    monkeypatch.setattr(deepening, "successors", lambda *args: calls.append(1) or compute(*args))
    expand = deepening._DepthSearch._expand
    monkeypatch.setattr(deepening._DepthSearch, "_expand",
                        lambda search, *args: expansions.append(1) or expand(search, *args))
    res = prove_iterative(matrix_of(chain_text(n)))
    assert isinstance(res.outcome, Proof) and res.outcome.depth == n + 1
    assert len(calls) <= 2 * (n + 1)  # the state cut at the bound before, and its successor
    assert len(expansions) <= 2 * (n + 1)


def budget_sweep(matrix, options, run):
    """(outcome, extension inferences, rounds) for every inference budget from
    0 to what the unbudgeted run spends, with `run` for `_DepthSearch.run`."""
    total = prove_iterative(matrix, options).stats.extension_inferences
    sweep = []
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(deepening._DepthSearch, "run", run)
        for budget in range(total + 1):
            res = prove_iterative(matrix, replace(options, inference_budget=budget))
            outcome = res.outcome
            if isinstance(outcome, Proof):
                outcome = format_certificate(outcome.certificate)
            sweep.append((outcome, res.stats.extension_inferences, res.stats.rounds))
    return sweep


@pytest.mark.parametrize("text, options", [
    (chain_text(20), DeepeningOptions()),
    (BRANCHING, DeepeningOptions(max_depth=7)),
], ids=["prop_chain", "branching"])
def test_every_budget_stops_a_resumed_run_where_a_replayed_one_stops(text, options):
    """A budget that the charge of a round's skipped part would pass makes the
    round replay from the root, which stops where a check in that part fires."""
    resumed = deepening._DepthSearch.run
    fallbacks = set()  # budgets under which a round with a point to resume at replays

    def run(search, root, bound):
        cap = search.options.inference_budget
        if search.resume is not None and search.stats.extension_inferences + search.resume[1] > cap:
            fallbacks.add(cap)
        return resumed(search, root, bound)

    sweep = budget_sweep(matrix_of(text), options, run)
    assert sweep == budget_sweep(matrix_of(text), options, replayed_round(resumed))
    assert isinstance(sweep[0][0], Timeout) and not isinstance(sweep[-1][0], Timeout)
    assert fallbacks


def test_kept_lists_stay_within_the_cap():
    sizes = assert_kept_lists_change_nothing(matrix_of(BRANCHING), DeepeningOptions(inference_budget=8000))
    assert sizes[-1] == deepening._KEPT_EXPANSIONS  # the cap binds in the last rounds


def test_each_kept_list_is_computed_once_per_search(monkeypatch):
    """A state's list below the bound, once kept, is never computed again,
    also once the table is full, while one left out for want of room is.
    Each list's extensions are counted once, when it is computed."""
    below = []  # every state whose list was computed below the bound
    computed = []  # every list computed
    counted_lists = []  # every list whose extensions were counted
    compute = deepening.successors

    def counted(state, matrix, calc, bound):
        if state.goals[-1].depth < bound:
            below.append(state)
        computed.append(compute(state, matrix, calc, bound))
        return computed[-1]

    monkeypatch.setattr(deepening, "successors", counted)
    monkeypatch.setattr(deepening, "extension_count", lambda succs: counted_lists.append(succs) or extension_count(succs))
    searches = []
    monkeypatch.setattr(deepening._DepthSearch, "run", checked_round(deepening._DepthSearch.run, [], searches))
    # the table fills in round 11; rounds 12 and 13 recompute the states it had no room for
    res = prove_iterative(matrix_of(BRANCHING), DeepeningOptions(inference_budget=20000))
    assert isinstance(res.outcome, Timeout) and res.stats.rounds == len(searches) == 13
    counts = Counter(below)
    kept = searches[0].kept
    assert len(kept) == deepening._KEPT_EXPANSIONS
    assert all(counts[key] == 1 for key in kept)
    assert max(counts.values()) > 1
    assert len(counted_lists) == len(computed) and all(a is b for a, b in zip(counted_lists, computed))
