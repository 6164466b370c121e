from dataclasses import replace

import pytest
from hypothesis import example, given, settings, strategies as st

from conftest import matrix_of
from mcprover import calculus
from mcprover.calculus import (
    CalculusOptions,
    Extension,
    LemmaStep,
    Reduction,
    initial_state,
    successors,
)
from mcprover.clausify import load_matrix, prepare_matrix
from mcprover.cli import bundled_corpus_dir
from mcprover.terms import App, Clause, Literal, Matrix, TOP, Var
from mcprover.unification import literals_equal_under
from oracles import bindings


def all_descendants(state, matrix, options=CalculusOptions(), limit=2000):
    seen = []
    stack = [state]
    while stack and len(seen) < limit:
        s = stack.pop()
        seen.append(s)
        if not s.is_closed:
            stack.extend(t for _, t in successors(s, matrix, options))
    return seen


def path_cells(goal):
    """The goal's path chain flattened root-first into (literal, fingerprint, index) cells."""
    cells = []
    cell = goal.path
    while cell is not None:
        cells.append(cell[:3])
        cell = cell[3]
    return tuple(reversed(cells))


def path_literals(goal):
    return tuple(lit for lit, _, _ in path_cells(goal))


def loose_literals(goal):
    """The path literals pushed without a fingerprint, root first."""
    return [lit for lit, fingerprint, _ in path_cells(goal) if fingerprint is None]


def ground_cells(goal):
    return [cell for cell in path_cells(goal) if cell[1] is not None]


def test_initial_state_shape(unit_pair_matrix):
    s0 = initial_state(unit_pair_matrix)
    assert [g.clause for g in s0.goals] == [(TOP,)]
    assert s0.opened_total == 1 and s0.open_count == 1
    assert not s0.is_closed


def test_start_extension_example(unit_pair_matrix):
    s0 = initial_state(unit_pair_matrix)
    succ = successors(s0, unit_pair_matrix)
    assert len(succ) == 1
    action, s1 = succ[0]
    assert action == Extension(0, 0, 0)
    assert [[lit.predicate for lit in g.clause] for g in s1.goals] == [["p"]]
    assert path_literals(s1.goals[0]) == (TOP,)
    assert s1.opened_total == 2 and s1.extensions == 1


def test_goals_share_the_parent_path_chain():
    m = matrix_of("cnf(c1, axiom, p).\ncnf(c2, axiom, ~p | q | r).\ncnf(c3, axiom, ~q).\n")
    s = initial_state(m)
    _, s = successors(s, m)[0]  # top -> p
    goal = s.goals[-1]
    (action, s), = successors(s, m)  # p -> c2, goal q | r
    assert action == Extension(0, 1, 0)
    new = s.goals[-1]
    assert new.path[:3] == (goal.clause[0], None, 1)
    assert new.path[3] is goal.path
    (_, s), = successors(s, m)  # q -> c3, goal r
    assert s.goals[-1].path is new.path


def test_closing_extension_removes_empty_goals(unit_pair_matrix):
    s0 = initial_state(unit_pair_matrix)
    _, s1 = successors(s0, unit_pair_matrix)[0]
    succ = successors(s1, unit_pair_matrix)
    assert len(succ) == 1
    action, s2 = succ[0]
    assert action == Extension(0, 1, 0)
    assert s2.is_closed
    assert s2.extensions == 2
    assert s2.actions() == (Extension(0, 0, 0), Extension(0, 1, 0))


def test_reduction_closes_against_path():
    m = matrix_of("cnf(c1, axiom, p).\ncnf(c2, axiom, ~p | p).\n")
    # drive to a state whose designated goal is ~-something with a complement on the path
    s = initial_state(m)
    # extension chain: top -> p (clause c1), then p -> ~p of c2 leaving goal {p} with p on path
    _, s = successors(s, m)[0]
    action, s = [x for x in successors(s, m) if isinstance(x[0], Extension) and x[0].clause == 1][0]
    # now goal clause is (p,), path (top, p): a reduction on p? polarity equal, no.
    # instead check a negative-literal reduction via a dedicated matrix
    m2 = matrix_of("cnf(c1, axiom, q).\ncnf(c2, axiom, ~q | r).\ncnf(c3, axiom, ~r | ~q).\n")
    s = initial_state(m2)
    _, s = successors(s, m2)[0]           # top -> q
    _, s = successors(s, m2)[0]           # q -> c2, open r
    acts = successors(s, m2)              # goal r: extension into c3, opens ~q with q on path
    _, s = [x for x in acts if isinstance(x[0], Extension)][0]
    final = successors(s, m2)
    reductions = [x for x in final if isinstance(x[0], Reduction)]
    assert reductions, "expected a reduction against the path"
    _, closed = reductions[0]
    assert closed.is_closed
    assert closed.reductions == 1


def test_immutability_of_parent_states(unit_pair_matrix):
    s0 = initial_state(unit_pair_matrix)
    snapshot = (s0.goals, s0.opened_total, s0.fresh_var, s0.extensions, s0.reductions, len(s0.sigma))
    for _, s1 in successors(s0, unit_pair_matrix):
        successors(s1, unit_pair_matrix)
    assert (s0.goals, s0.opened_total, s0.fresh_var, s0.extensions, s0.reductions, len(s0.sigma)) == snapshot


def test_extension_renames_variables_fresh():
    m = matrix_of("cnf(c1, axiom, p(a)).\ncnf(c2, axiom, ~p(X) | p(f(X))).\n")
    s = initial_state(m)
    _, s = successors(s, m)[0]
    (_, s1), = [x for x in successors(s, m) if isinstance(x[0], Extension)]
    (_, s2), = [x for x in successors(s1, m) if isinstance(x[0], Extension)]
    # the second copy of c2 must use a different variable than the first
    assert s2.fresh_var == 2
    assert s1.fresh_var == 1


def test_opened_total_monotone_and_open_count_steps():
    m = matrix_of(
        "cnf(c1, axiom, p | q).\ncnf(c2, axiom, ~p | r).\n"
        "cnf(c3, axiom, ~q).\ncnf(c4, axiom, ~r).\n"
    )
    for state in all_descendants(initial_state(m), m):
        if state.is_closed:
            continue
        for action, succ in successors(state, m):
            assert succ.opened_total >= state.opened_total
            delta = succ.open_count - state.open_count
            if isinstance(action, (Reduction, LemmaStep)):
                assert delta == -1
            else:
                assert delta in (-1, 0, 1)


def test_regularity_filters_repeated_head():
    # p's only extension reopens p under the same instantiation: regularity prunes it
    m = matrix_of("cnf(c1, axiom, p).\ncnf(c2, axiom, ~p | p).\n")
    s = initial_state(m)
    _, s = successors(s, m)[0]
    _, s = [x for x in successors(s, m) if isinstance(x[0], Extension) and x[0].clause == 1][0]
    # goal is {p} with p already on the path
    assert successors(s, m, CalculusOptions(regularity=True)) == []
    loose = successors(s, m, CalculusOptions(regularity=False))
    assert any(isinstance(a, Extension) for a, _ in loose)


def test_lemma_step_closes_repeated_literal():
    # clause c2 forces q to be proved twice; the second occurrence may reuse the first
    text = """
cnf(c1, axiom, p).
cnf(c2, axiom, ~p | q | q).
cnf(c3, axiom, ~q).
"""
    m = matrix_of(text)
    s = initial_state(m)
    _, s = successors(s, m)[0]                       # top -> p
    _, s = successors(s, m)[0]                       # p -> c2, goal {q, q}
    (_, s), = [x for x in successors(s, m) if isinstance(x[0], Extension)]  # close first q via c3
    lemma_moves = [x for x in successors(s, m) if isinstance(x[0], LemmaStep)]
    assert lemma_moves, "second q should close as a lemma"
    _, closed = lemma_moves[0]
    assert closed.is_closed
    no_lemmas = successors(s, m, CalculusOptions(lemmas=False))
    assert not any(isinstance(a, LemmaStep) for a, _ in no_lemmas)


def test_lemma_successor_comes_first_then_reductions_then_extensions():
    text = """
cnf(c1, axiom, p).
cnf(c2, axiom, ~p | q | q).
cnf(c3, axiom, ~q | r).
cnf(c4, axiom, ~r).
cnf(c5, axiom, ~q).
"""
    m = matrix_of(text)
    s = initial_state(m)
    _, s = successors(s, m)[0]
    _, s = successors(s, m)[0]
    # close the first q through c5
    (_, s), = [x for x in successors(s, m) if isinstance(x[0], Extension) and x[0].clause == 4]
    kinds = [type(a).__name__ for a, _ in successors(s, m)]
    assert kinds[0] == "LemmaStep"
    assert kinds[1:] == sorted(kinds[1:], key=lambda k: 0 if k == "Reduction" else 1)


def test_depth_bound_blocks_extensions():
    m = matrix_of("cnf(c1, axiom, p).\ncnf(c2, axiom, ~p | q).\ncnf(c3, axiom, ~q).\n")
    s = initial_state(m)
    _, s = successors(s, m, CalculusOptions(depth_bound=1))[0]   # start, depth 0
    succ1 = successors(s, m, CalculusOptions(depth_bound=1))     # p at depth 0 -> allowed
    assert succ1
    _, s = succ1[0]
    # q sits at depth 1 now; bound 1 forbids extending it
    assert successors(s, m, CalculusOptions(depth_bound=1)) == []
    assert successors(s, m, CalculusOptions(depth_bound=2)) != []


# --- regularity against the full-path scan ---------------------------------


def reference_successors(state, matrix, options):
    """`successors` filtered by comparing the head with every path literal
    under the successor's substitution."""
    unfiltered = successors(state, matrix, replace(options, regularity=False))
    if not options.regularity:
        return unfiltered
    goal = state.goals[-1]
    head = goal.clause[0]
    return [
        (action, succ)
        for action, succ in unfiltered
        if isinstance(action, LemmaStep)
        or not any(literals_equal_under(succ.sigma, head, lit) for lit in path_literals(goal))
    ]


def shape(pairs):
    """What a successor list determines, without the regularity index."""
    return [
        (
            action,
            succ.fresh_var,
            succ.extensions,
            succ.reductions,
            bindings(succ.sigma),
            [(g.clause, path_literals(g), g.lemmas, g.depth, g.clause_index, g.literal_indices) for g in succ.goals],
        )
        for action, succ in pairs
    ]


_LEAVES = st.sampled_from(["X", "Y", "a", "b"])


def _terms(depth):
    if depth == 0:
        return _LEAVES
    inner = _terms(depth - 1)
    return st.one_of(_LEAVES, st.builds("f({})".format, inner), st.builds("g({},{})".format, inner, inner))


_TERM = _terms(2)
_ATOM = st.one_of(st.just("r"), st.builds("p({})".format, _TERM), st.builds("q({},{})".format, _TERM, _TERM))
_LITERAL = st.builds(lambda negated, atom: "~" * negated + atom, st.booleans(), _ATOM)
_CLAUSE = st.lists(_LITERAL, min_size=1, max_size=3).map(" | ".join)
_PROBLEM = st.builds(
    lambda start, others: "".join(f"cnf(c{i}, axiom, {c}).\n" for i, c in enumerate([start, *others])),
    st.lists(_ATOM, min_size=1, max_size=3).map(" | ".join),
    st.lists(_CLAUSE, min_size=1, max_size=5),
)


@pytest.mark.parametrize("explore_regular", [True, False])
@settings(max_examples=150, deadline=None)
@given(_PROBLEM)
# a head that is not ground repeats a fingerprinted path literal only under a
# successor's substitution: p(X) becomes p(a) through c2 (only states reached
# with regularity on have fingerprinted path literals)
@example("cnf(c0, axiom, p(b)).\ncnf(c1, axiom, ~p(b) | p(a)).\ncnf(c2, axiom, ~p(a) | p(X) | q(X,X)).\n")
def test_regularity_matches_full_path_scan(explore_regular, problem):
    """At every state reached, with the regularity-pruned relation or the
    unpruned one, both options give the reference's successors."""
    m = matrix_of(problem)
    regular = CalculusOptions(regularity=True)
    explore = regular if explore_regular else CalculusOptions(regularity=False)
    for state in all_descendants(initial_state(m), m, explore, limit=150):
        for goal in state.goals:
            assert [index for _, _, index in path_cells(goal)] == list(range(len(path_cells(goal))))
        if state.is_closed:
            continue
        for options in (regular, CalculusOptions(regularity=False)):
            assert shape(successors(state, m, options)) == shape(reference_successors(state, m, options))


def test_head_ground_only_under_the_successor_substitution_is_pruned():
    m = matrix_of(
        "cnf(c1, axiom, p(b)).\n"
        "cnf(c2, axiom, ~p(b) | p(a)).\n"
        "cnf(c3, axiom, ~p(a) | p(X) | q(X)).\n"
        "cnf(c4, axiom, ~p(c)).\n"
    )
    s = initial_state(m)
    _, s = successors(s, m)[0]  # top -> p(b)
    _, s = successors(s, m)[0]  # p(b) -> c2, goal p(a)
    (_, s), = [x for x in successors(s, m) if x[0].clause == 2]  # p(a) -> c3, goal p(X) | q(X)
    goal = s.goals[-1]
    # p(a) met p(b) on its path, so it was pushed as ground
    assert loose_literals(goal) == [TOP, Literal(True, "p", (App("b"),))]
    assert len(ground_cells(goal)) == 1
    # p(X) becomes p(b) through c2 and p(a) through c3, repeating the path; only c4 stays
    assert [a for a, _ in successors(s, m)] == [Extension(0, 3, 0)]
    unpruned = [a.clause for a, _ in successors(s, m, CalculusOptions(regularity=False))]
    assert unpruned == [1, 2, 3]


def test_colliding_fingerprints_change_no_successor_list(monkeypatch):
    """With every fingerprint equal, each index hit goes through the equality
    check, so the explored states and their successors stay the same."""
    names = ("sat_chain", "hard_maze14", "fo_func_chain3", "fof_pel17")
    matrices = [load_matrix(f"{bundled_corpus_dir()}/{name}.p") for name in names]

    def actions_seen():
        return [
            [a for a, _ in successors(state, m)]
            for m in matrices
            for state in all_descendants(initial_state(m), m, limit=100)
            if not state.is_closed
        ]

    expected = actions_seen()
    monkeypatch.setattr(calculus, "hash", lambda _: 0, raising=False)
    assert actions_seen() == expected


def test_ground_path_term_2000_deep():
    def tower(leaf):
        t = App(leaf)
        for _ in range(2000):
            t = App("f", (t,))
        return t

    deep_a, deep_b = tower("a"), tower("b")
    m = prepare_matrix(Matrix(clauses=(
        Clause((Literal(True, "p", (deep_a,)),)),
        Clause((Literal(False, "p", (deep_a,)), Literal(True, "p", (deep_b,)))),
        Clause((Literal(False, "p", (deep_b,)), Literal(True, "p", (deep_b,)))),
    )))
    s = initial_state(m)
    _, s = successors(s, m)[0]  # top -> p(A)
    _, s = successors(s, m)[0]  # p(A) -> c2, goal p(B)
    (_, s), = successors(s, m)  # p(B) -> c3 differs from p(A) only at the bottom
    assert len(ground_cells(s.goals[-1])) == 1
    assert successors(s, m) == []  # p(B) repeats the ground p(B) of its path


def test_head_unfolding_to_a_huge_term_is_compared_directly():
    """Along c1 the head p(g(X,X)) doubles its unfolded size per step, past
    what a fingerprint walks; such heads stay loose and regularity still
    matches the full-path scan."""
    m = matrix_of(
        "cnf(c0, axiom, p(a)).\n"
        "cnf(c1, axiom, ~p(X) | p(g(X,X))).\n"
        "cnf(c2, axiom, ~p(X) | p(X)).\n"
    )
    s = initial_state(m)
    _, s = successors(s, m)[0]  # top -> p(a)
    for _ in range(60):
        succ = successors(s, m)
        assert [a.clause for a, _ in succ] == [1, 2]
        assert shape(succ) == shape(reference_successors(s, m, CalculusOptions()))
        (_, s), (_, repeat) = succ
        assert successors(repeat, m) == []  # p(X) with X bound to the head repeats the path
        goal = s.goals[-1]
        assert [index for _, _, index in path_cells(goal)] == list(range(goal.depth + 1))
    assert len(ground_cells(s.goals[-1])) < 20
