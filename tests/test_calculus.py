from dataclasses import replace

import pytest
from hypothesis import example, given, settings, strategies as st

from conftest import matrix_of
from mcprover import calculus
from mcprover.calculus import (
    CalculusOptions,
    Extension,
    Goal,
    LemmaStep,
    ProverState,
    Reduction,
    initial_state,
    successors,
)
from mcprover.clausify import load_matrix, prepare_matrix
from mcprover.cli import bundled_corpus_dir
from mcprover.terms import App, Clause, FVar, Literal, Matrix, TOP, Var, rename_literal
from mcprover.unification import literals_equal_under
from oracles import bindings, unify


def all_descendants(state, matrix, options=CalculusOptions(), limit=2000):
    seen = []
    stack = [state]
    while stack and len(seen) < limit:
        s = stack.pop()
        seen.append(s)
        if not s.is_closed:
            stack.extend(successors(s, matrix, options))
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


def test_terms_and_actions_are_slotted_values():
    """They compare and hash by their fields, as when they were frozen."""
    assert Reduction(0, 1) != LemmaStep(0, 1)
    assert Extension(0, 1, 2) == Extension(0, 1, 2)
    assert len({Extension(0, 1, 2), Extension(0, 1, 2), Reduction(0, 1)}) == 2
    assert hash(Var(3)) == hash((3,))
    assert hash(Literal(True, "p", ())) == hash((True, "p", ()))
    assert hash(App("f", (Var(1),))) == hash(("f", (Var(1),)))
    values = (Var(3), FVar("X"), App("f", (Var(1),)), Literal(True, "p", ()),
              Reduction(0, 1), Extension(0, 1, 2), LemmaStep(0, 1))
    assert not any(hasattr(value, "__dict__") for value in values)


def test_initial_state_shape(unit_pair_matrix):
    s0 = initial_state(unit_pair_matrix)
    assert [g.clause for g in s0.goals] == [(TOP,)]
    assert s0.opened_total == 1 and s0.open_count == 1
    assert not s0.is_closed


def test_start_extension_example(unit_pair_matrix):
    s0 = initial_state(unit_pair_matrix)
    succ = successors(s0, unit_pair_matrix)
    assert len(succ) == 1
    s1 = succ[0]
    assert s1.trail[0] == Extension(0, 0, 0)
    assert [[lit.predicate for lit in g.clause] for g in s1.goals] == [["p"]]
    assert path_literals(s1.goals[0]) == (TOP,)
    assert s1.opened_total == 2 and s1.extensions == 1


def test_goals_share_the_parent_path_chain():
    m = matrix_of("cnf(c1, axiom, p).\ncnf(c2, axiom, ~p | q | r).\ncnf(c3, axiom, ~q).\n")
    s = initial_state(m)
    s = successors(s, m)[0]  # top -> p
    goal = s.goals[-1]
    s, = successors(s, m)  # p -> c2, goal q | r
    assert s.trail[0] == Extension(0, 1, 0)
    new = s.goals[-1]
    assert new.path[:3] == (goal.clause[0], None, 1)
    assert new.path[3] is goal.path
    s, = successors(s, m)  # q -> c3, goal r
    assert s.goals[-1].path is new.path


def test_closing_extension_removes_empty_goals(unit_pair_matrix):
    s0 = initial_state(unit_pair_matrix)
    s1 = successors(s0, unit_pair_matrix)[0]
    succ = successors(s1, unit_pair_matrix)
    assert len(succ) == 1
    s2 = succ[0]
    assert s2.trail[0] == Extension(0, 1, 0)
    assert s2.is_closed
    assert s2.extensions == 2
    assert s2.actions() == (Extension(0, 0, 0), Extension(0, 1, 0))


def test_reduction_closes_against_path():
    m = matrix_of("cnf(c1, axiom, p).\ncnf(c2, axiom, ~p | p).\n")
    # drive to a state whose designated goal is ~-something with a complement on the path
    s = initial_state(m)
    # extension chain: top -> p (clause c1), then p -> ~p of c2 leaving goal {p} with p on path
    s = successors(s, m)[0]
    s = [x for x in successors(s, m) if isinstance(x.trail[0], Extension) and x.trail[0].clause == 1][0]
    # now goal clause is (p,), path (top, p): a reduction on p? polarity equal, no.
    # instead check a negative-literal reduction via a dedicated matrix
    m2 = matrix_of("cnf(c1, axiom, q).\ncnf(c2, axiom, ~q | r).\ncnf(c3, axiom, ~r | ~q).\n")
    s = initial_state(m2)
    s = successors(s, m2)[0]              # top -> q
    s = successors(s, m2)[0]              # q -> c2, open r
    acts = successors(s, m2)              # goal r: extension into c3, opens ~q with q on path
    s = [x for x in acts if isinstance(x.trail[0], Extension)][0]
    final = successors(s, m2)
    reductions = [x for x in final if isinstance(x.trail[0], Reduction)]
    assert reductions, "expected a reduction against the path"
    closed = reductions[0]
    assert closed.is_closed
    assert closed.reductions == 1


def test_immutability_of_parent_states(unit_pair_matrix):
    s0 = initial_state(unit_pair_matrix)
    snapshot = (s0.goals, s0.opened_total, s0.fresh_var, s0.extensions, s0.reductions, len(bindings(s0.sigma)))
    for s1 in successors(s0, unit_pair_matrix):
        successors(s1, unit_pair_matrix)
    assert (s0.goals, s0.opened_total, s0.fresh_var, s0.extensions, s0.reductions, len(bindings(s0.sigma))) == snapshot


def test_extension_renames_variables_fresh():
    m = matrix_of("cnf(c1, axiom, p(a)).\ncnf(c2, axiom, ~p(X) | p(f(X))).\n")
    s = initial_state(m)
    s = successors(s, m)[0]
    s1, = [x for x in successors(s, m) if isinstance(x.trail[0], Extension)]
    s2, = [x for x in successors(s1, m) if isinstance(x.trail[0], Extension)]
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
        for succ in successors(state, m):
            assert succ.opened_total >= state.opened_total
            delta = succ.open_count - state.open_count
            if isinstance(succ.trail[0], (Reduction, LemmaStep)):
                assert delta == -1
            else:
                assert delta in (-1, 0, 1)


def test_regularity_filters_repeated_head():
    # p's only extension reopens p under the same instantiation: regularity prunes it
    m = matrix_of("cnf(c1, axiom, p).\ncnf(c2, axiom, ~p | p).\n")
    s = initial_state(m)
    s = successors(s, m)[0]
    s = [x for x in successors(s, m) if isinstance(x.trail[0], Extension) and x.trail[0].clause == 1][0]
    # goal is {p} with p already on the path
    assert successors(s, m, CalculusOptions(regularity=True)) == []
    loose = successors(s, m, CalculusOptions(regularity=False))
    assert any(isinstance(x.trail[0], Extension) for x in loose)


def test_lemma_step_closes_repeated_literal():
    # clause c2 forces q to be proved twice; the second occurrence may reuse the first
    text = """
cnf(c1, axiom, p).
cnf(c2, axiom, ~p | q | q).
cnf(c3, axiom, ~q).
"""
    m = matrix_of(text)
    s = initial_state(m)
    s = successors(s, m)[0]                          # top -> p
    s = successors(s, m)[0]                          # p -> c2, goal {q, q}
    s, = [x for x in successors(s, m) if isinstance(x.trail[0], Extension)]  # close first q via c3
    lemma_moves = [x for x in successors(s, m) if isinstance(x.trail[0], LemmaStep)]
    assert lemma_moves, "second q should close as a lemma"
    closed = lemma_moves[0]
    assert closed.is_closed
    no_lemmas = successors(s, m, CalculusOptions(lemmas=False))
    assert not any(isinstance(x.trail[0], LemmaStep) for x in no_lemmas)


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
    s = successors(s, m)[0]
    s = successors(s, m)[0]
    # close the first q through c5
    s, = [x for x in successors(s, m) if isinstance(x.trail[0], Extension) and x.trail[0].clause == 4]
    kinds = [type(x.trail[0]).__name__ for x in successors(s, m)]
    assert kinds[0] == "LemmaStep"
    assert kinds[1:] == sorted(kinds[1:], key=lambda k: 0 if k == "Reduction" else 1)


def test_depth_bound_blocks_extensions():
    m = matrix_of("cnf(c1, axiom, p).\ncnf(c2, axiom, ~p | q).\ncnf(c3, axiom, ~q).\n")
    s = initial_state(m)
    s = successors(s, m, CalculusOptions(depth_bound=1))[0]      # start, depth 0
    succ1 = successors(s, m, CalculusOptions(depth_bound=1))     # p at depth 0 -> allowed
    assert succ1
    s = succ1[0]
    # q sits at depth 1 now; bound 1 forbids extending it
    assert successors(s, m, CalculusOptions(depth_bound=1)) == []
    assert successors(s, m, CalculusOptions(depth_bound=2)) != []


# --- regularity against the full-path scan ---------------------------------


def reference_successors(state, matrix, options):
    """`successors` built from the definitions: the first lemma equal to the
    head, the reductions found by unifying the head with each complementary
    literal of a full path scan, in path order, and an extension per
    complementary literal of each clause, renamed, in matrix order; the list
    filtered by comparing the head with every path literal under the
    successor's substitution."""
    gi = len(state.goals) - 1
    goal = state.goals[gi]
    head = goal.clause[0]
    closed = extended = state.goals[:-1]
    if len(goal.clause) > 1:
        kept = goal.literal_indices[1:]
        closed += (Goal(goal.clause[1:], goal.path, goal.lemmas, goal.clause_index, kept),)
        extended += (Goal(goal.clause[1:], goal.path, goal.lemmas + (head,), goal.clause_index, kept),)
    out = []
    if options.lemmas:
        for k, lemma in enumerate(goal.lemmas):
            if literals_equal_under(state.sigma, head, lemma):
                out.append(ProverState(closed, state.sigma, state.fresh_var, state.extensions,
                                       state.reductions, (LemmaStep(gi, k), state.trail)))
                break
    for lit, _, index in path_cells(goal):
        if lit.predicate == head.predicate and lit.positive != head.positive:
            sigma = unify(state.sigma, head, lit)
            if sigma is not None:
                out.append(ProverState(closed, sigma, state.fresh_var, state.extensions,
                                       state.reductions + 1, (Reduction(gi, index), state.trail)))
    if options.depth_bound is None or goal.depth < options.depth_bound:
        # a path cell as `path_cells` and `Goal.depth` read it
        path = (head, None, 0 if goal.path is None else goal.path[2] + 1, goal.path)
        for ci, clause in enumerate(matrix.clauses):
            for li, lit in enumerate(clause.literals):
                if lit.predicate != head.predicate or lit.positive == head.positive:
                    continue
                sigma = unify(state.sigma, head, rename_literal(lit, state.fresh_var))
                if sigma is None:
                    continue
                indices = tuple(j for j in range(len(clause.literals)) if j != li)
                goals = extended
                if indices:
                    renamed = tuple(rename_literal(clause.literals[j], state.fresh_var) for j in indices)
                    goals += (Goal(renamed, path, goal.lemmas, ci, indices),)
                out.append(ProverState(goals, sigma, state.fresh_var + clause.var_count, state.extensions + 1,
                                       state.reductions, (Extension(gi, ci, li), state.trail)))
    if not options.regularity:
        return out
    return [
        succ
        for succ in out
        if isinstance(succ.trail[0], LemmaStep)
        or not any(literals_equal_under(succ.sigma, head, lit) for lit in path_literals(goal))
    ]


def shape(states):
    """What a successor list determines, without the regularity index."""
    return [
        (
            succ.trail[0],
            succ.fresh_var,
            succ.extensions,
            succ.reductions,
            bindings(succ.sigma),
            [(g.clause, path_literals(g), g.lemmas, g.depth, g.clause_index, g.literal_indices) for g in succ.goals],
        )
        for succ in states
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


# Heads whose variables are all private (see the calculus docstring) and
# the cases next to them.
# p(Y) is private, and both extensions ground it to the p(a) of its path.
GROUNDED_PRIVATE = "cnf(c0, axiom, p(a)).\ncnf(c1, axiom, ~p(a) | p(Y)).\ncnf(c2, axiom, ~p(a)).\n"
# p(B) is private, and the path holds p(Z) and ~p(V), with Z and V bound to
# one variable: reducing p(B) with ~p(V) makes it repeat p(Z). (~e keeps c5
# from being a start clause, so a depth-first walk reaches p(B) early.)
REDUCTION_TRAP = (
    "cnf(c0, axiom, r).\ncnf(c1, axiom, ~r | p(Z)).\ncnf(c2, axiom, ~p(X) | s(X)).\n"
    "cnf(c3, axiom, ~s(V) | ~p(V)).\ncnf(c4, axiom, ~t(A) | p(B)).\ncnf(c5, axiom, p(W) | t(W) | ~e).\n"
)
# Y of p(Y) also occurs in ~q(Y), whose reduction against q(X) binds Y to the
# image of p(Z) on the path, so Y is not private.
SOLVED_SHARE = (
    "cnf(c0, axiom, r).\ncnf(c1, axiom, ~r | p(Z)).\ncnf(c2, axiom, ~p(X) | q(X)).\n"
    "cnf(c3, axiom, ~q(U) | ~q(Y) | p(Y)).\n"
)
# The ground head p(a) repeats the path's unfingerprinted p(X), X bound to a,
# under the state's σ already: the one comparison under σ settles every
# successor, before any unification.
SETTLED_REPEAT = "cnf(c0, axiom, p(X) | q(X)).\ncnf(c1, axiom, ~q(a)).\ncnf(c2, axiom, ~p(a) | p(a)).\n"
# hard_maze's decoy loop: every head's variable is private and stays unbound.
MAZE_CHAIN = (
    "cnf(c0, axiom, p).\ncnf(c1, axiom, ~p | d0(V)).\ncnf(c2, axiom, ~d0(X) | d1(Y)).\n"
    "cnf(c3, axiom, ~d1(X) | d2(Y)).\ncnf(c4, axiom, ~d2(X) | d0(Y)).\n"
)


@pytest.mark.parametrize("explore_regular", [True, False])
@settings(max_examples=150, deadline=None)
@given(_PROBLEM)
@example(GROUNDED_PRIVATE)
@example(REDUCTION_TRAP)
@example(SOLVED_SHARE)
@example(MAZE_CHAIN)
@example(SETTLED_REPEAT)
# a head that is not ground repeats a fingerprinted path literal only under a
# successor's substitution: p(X) becomes p(a) through c2 (only states reached
# with regularity on have fingerprinted path literals)
@example("cnf(c0, axiom, p(b)).\ncnf(c1, axiom, ~p(b) | p(a)).\ncnf(c2, axiom, ~p(a) | p(X) | q(X,X)).\n")
# a path literal's arguments can reach the head's only through chains of
# variable-to-variable bindings: q(X1,Y1) is pushed with X1->X2 and Y1->Y2 and
# the head q(Y2,X2) extended into ~q(X3,X3) binds X2->X3 and Y2->X3, so the
# stored arguments must be followed to the end under that successor's bindings
@example("cnf(c0, axiom, r).\ncnf(c1, axiom, ~r | q(X,Y)).\ncnf(c2, axiom, ~q(X,Y) | q(Y,X)).\ncnf(c3, axiom, ~q(X,X)).\n")
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
    s = successors(s, m)[0]  # top -> p(b)
    s = successors(s, m)[0]  # p(b) -> c2, goal p(a)
    s, = [x for x in successors(s, m) if x.trail[0].clause == 2]  # p(a) -> c3, goal p(X) | q(X)
    goal = s.goals[-1]
    # p(a) met p(b) on its path, so it was pushed as ground
    assert loose_literals(goal) == [TOP, Literal(True, "p", (App("b"),))]
    assert len(ground_cells(goal)) == 1
    # p(X) becomes p(b) through c2 and p(a) through c3, repeating the path; only c4 stays
    assert [x.trail[0] for x in successors(s, m)] == [Extension(0, 3, 0)]
    unpruned = [x.trail[0].clause for x in successors(s, m, CalculusOptions(regularity=False))]
    assert unpruned == [1, 2, 3]


def follow(m, *steps):
    """The state reached from the start by taking, per step, the first
    extension into that clause index, or the first reduction for None."""
    state = initial_state(m)
    for step in steps:
        state = next(x for x in successors(state, m) if getattr(x.trail[0], "clause", None) == step)
    return state


def test_private_head_grounded_into_a_path_literal_is_pruned():
    m = matrix_of(GROUNDED_PRIVATE)
    s = follow(m, 0, 1)  # top -> p(a) -> c1, goal p(Y)
    assert calculus._private_head(m, s.goals[-1])
    assert successors(s, m) == []
    assert [x.trail[0].clause for x in successors(s, m, CalculusOptions(regularity=False))] == [1, 2]


def test_reduction_from_a_private_head_is_compared():
    m = matrix_of(REDUCTION_TRAP)
    s = follow(m, 0, 1, 2, 3, 5, 4)  # goal p(B) below p(Z), s(X), ~p(V) and t(W)
    assert calculus._private_head(m, s.goals[-1])
    assert [type(x.trail[0]) for x in successors(s, m)] == [Extension, Extension]
    unpruned = successors(s, m, CalculusOptions(regularity=False))
    assert [type(x.trail[0]) for x in unpruned] == [Reduction, Extension, Extension]


def test_head_variable_of_a_solved_literal_is_not_private():
    m = matrix_of(SOLVED_SHARE)
    s = follow(m, 0, 1, 2, 3, None)  # goal p(Y) after reducing ~q(Y) against q(X)
    assert not calculus._private_head(m, s.goals[-1])
    # p(Y) and p(Z) have one image, which an extension into c2 leaves a variable
    assert successors(s, m) == []
    assert [x.trail[0].clause for x in successors(s, m, CalculusOptions(regularity=False))] == [2]


def test_ground_head_repeating_a_loose_cell_under_sigma_tries_no_candidate(monkeypatch):
    m = matrix_of(SETTLED_REPEAT)
    s = follow(m, 0, 2)  # top -> c0, goal p(X) | q(X) -> c2, goal p(a) below p(X)
    goal = s.goals[-1]
    assert goal.clause[0] == Literal(True, "p", (App("a"),))
    assert loose_literals(goal) == [TOP, Literal(True, "p", (Var(0),))]
    unified = []
    unify_args = calculus.unify_args
    monkeypatch.setattr(calculus, "unify_args", lambda *args: unified.append(args) or unify_args(*args))
    assert successors(s, m) == []
    assert unified == []
    assert shape(reference_successors(s, m, CalculusOptions())) == []
    assert [x.trail[0] for x in successors(s, m, CalculusOptions(regularity=False))] == [Extension(1, 2, 0)]


def test_settled_repeats_match_full_path_scan_on_mcts_states():
    """The states of an unguided MCTS run on fof_pel4 (the benchmark's flat
    reward, simulations 8 deep) whose ground head repeats a loose path literal
    under σ, where one comparison ends the call."""
    from mcprover.mcts import SearchConfig, run
    from mcprover.proving import ConnectionGame, RewardConfig

    game = ConnectionGame(load_matrix(f"{bundled_corpus_dir()}/fof_pel4.p"), reward=RewardConfig.with_ratio_weight(0.0))
    settled = []
    compute = game.successors

    def recorded(state):
        head = state.goals[-1].clause[0]
        if calculus._fingerprint(state.sigma, head) is not None and any(
                literals_equal_under(state.sigma, head, lit) for lit in loose_literals(state.goals[-1])):
            settled.append(state)
        return compute(state)

    game.successors = recorded
    run(game, SearchConfig(seed=0, max_sim_depth=8), stop=lambda: game.extension_inferences >= 3000)
    assert len(settled) > 0
    for state in settled:
        assert shape(successors(state, game.matrix)) == shape(reference_successors(state, game.matrix, CalculusOptions()))


def test_maze_loop_extends_without_comparing(monkeypatch):
    """Every head of the loop is private, and its one extension binds its
    variable to a fresh one, so no successor compares path literals."""
    m = matrix_of(MAZE_CHAIN)
    compared = []
    repeats = calculus._repeats
    monkeypatch.setattr(calculus, "_repeats", lambda *args: compared.append(args) or repeats(*args))
    s = follow(m, 0, 1)  # top -> p -> c1, goal d0(V)
    for _ in range(30):
        succ = successors(s, m)
        assert shape(succ) == shape(reference_successors(s, m, CalculusOptions()))
        s, = succ
    assert [lit.predicate for lit in path_literals(s.goals[-1])].count("d0") == 10
    assert compared == []


def test_colliding_fingerprints_change_no_successor_list(monkeypatch):
    """With every fingerprint equal, each index hit goes through the equality
    check, so the explored states and their successors stay the same."""
    names = ("sat_chain", "hard_maze14", "fo_func_chain3", "fof_pel17")
    matrices = [load_matrix(f"{bundled_corpus_dir()}/{name}.p") for name in names]

    def actions_seen():
        return [
            [x.trail[0] for x in successors(state, m)]
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
    s = successors(s, m)[0]  # top -> p(A)
    s = successors(s, m)[0]  # p(A) -> c2, goal p(B)
    s, = successors(s, m)  # p(B) -> c3 differs from p(A) only at the bottom
    assert len(ground_cells(s.goals[-1])) == 1
    assert successors(s, m) == []  # p(B) repeats the ground p(B) of its path


def test_deep_state_has_a_safe_repr_and_identity_equality():
    """A state 1500 extensions down a chain prints without walking its path
    chain, and a copy of it with the same fields is another state."""
    n = 1500
    m = matrix_of("cnf(s, axiom, p0).\n"
                  + "".join(f"cnf(c{i}, axiom, ~p{i} | p{i + 1}).\n" for i in range(n))
                  + f"cnf(g, negated_conjecture, ~p{n}).\n")
    s = successors(initial_state(m), m)[0]  # top -> p0
    for _ in range(n):
        s, = successors(s, m)
    goal = s.goals[-1]
    assert goal.depth == n and s.extensions == n + 1
    assert "ProverState" in repr(s) and "Goal" in repr(goal)
    twin = replace(s)
    assert twin != s and twin is not s and len({s, twin, s}) == 2
    assert replace(goal) != goal


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
    s = successors(s, m)[0]  # top -> p(a)
    for _ in range(60):
        succ = successors(s, m)
        assert [x.trail[0].clause for x in succ] == [1, 2]
        assert shape(succ) == shape(reference_successors(s, m, CalculusOptions()))
        s, repeat = succ
        assert successors(repeat, m) == []  # p(X) with X bound to the head repeats the path
        goal = s.goals[-1]
        assert [index for _, _, index in path_cells(goal)] == list(range(goal.depth + 1))
    assert len(ground_cells(s.goals[-1])) < 20


# --- the key index on paths that cross checkpoints ---------------------------


def checkpoints(goal):
    """The indices of the goal's path cells that hold marks."""
    out = []
    cell = goal.path
    while cell is not None:
        if cell[5] is not None:
            out.append(cell[2])
        cell = cell[3]
    return out


def assert_index_matches_full_scan(state, matrix):
    for options in (CalculusOptions(), CalculusOptions(regularity=False)):
        assert shape(successors(state, matrix, options)) == shape(reference_successors(state, matrix, options))


def chain_descent(m, steps):
    """The states from the start along, per step, the first extension into
    that clause index, or the first reduction for None, each checked against
    the full-path scan on the way."""
    state = initial_state(m)
    for step in steps:
        assert_index_matches_full_scan(state, m)
        state = next(x for x in successors(state, m)
                     if (step is None and isinstance(x.trail[0], Reduction)) or getattr(x.trail[0], "clause", -1) == step)
    return state


def test_index_matches_full_scan_on_a_200_step_chain():
    """A propositional chain with a clause back to p5 near its end, which
    regularity prunes, and a goal clause whose ~p3 reduces against the p3
    near its root."""
    n = 200
    m = matrix_of("cnf(s, axiom, p0).\n"
                  + "".join(f"cnf(c{i}, axiom, ~p{i} | p{i + 1}).\n" for i in range(n))
                  + f"cnf(back, axiom, ~p{n - 1} | p5).\ncnf(g, negated_conjecture, ~p{n} | ~p3).\n")
    state = chain_descent(m, range(n + 1))
    assert checkpoints(state.goals[-1]) == [192, 128, 64, 0]
    assert_index_matches_full_scan(state, m)
    loop = chain_descent(m, [*range(n), n + 1])  # goal p5 above the p5 of the path
    assert_index_matches_full_scan(loop, m)
    assert successors(loop, m) == [] != successors(loop, m, CalculusOptions(regularity=False))
    closing = chain_descent(m, [*range(n + 1), n + 2])  # goal ~p3
    assert_index_matches_full_scan(closing, m)
    assert [x.trail[0] for x in successors(closing, m) if isinstance(x.trail[0], Reduction)] == [Reduction(0, 4)]


# A chain whose path alternates p_k with an r literal, r occurring with both
# signs and with one and two arguments. The ~r(Y) heads reduce against every
# r(c_j) cell below them, and their extensions into r(c_j) repeat the ~r(c_j)
# cells, both across checkpoints; the one into r(d_k) makes ~r(d_k), which
# the ~r(d_k,c_j) further down does not repeat. (Each b clause's ~p0, which
# keeps it from being a start clause, reduces against the p0 at the bottom
# of the path.)
_MIXED_R = [("r(c{k})", "~r(c{k})"), ("~r(c{k})", "r(c{k})"), ("r(c{k},Z)", "~r(c{k},c{k})"),
            ("~r(d{k6},c{k})", "r(d{k6},W)"), ("~r(Y)", "r(d{k})")]


def test_index_matches_full_scan_on_a_mixed_key_chain():
    n = 90
    lines = ["cnf(s, axiom, p0).\n"]
    for k in range(n):
        pushed, connected = (text.format(k=k, k6=k + 6) for text in _MIXED_R[k % len(_MIXED_R)])
        lines.append(f"cnf(a{k}, axiom, ~p{k} | {pushed}).\ncnf(b{k}, axiom, {connected} | ~p0 | p{k + 1}).\n")
    m = matrix_of("".join(lines))
    steps = [0] + [step for k in range(n) for step in (2 * k + 1, 2 * k + 2, None)]
    state = chain_descent(m, steps)
    goal = state.goals[-1]
    assert len(state.goals) == 1 and goal.depth == 2 * n and len(checkpoints(goal)) == 3
    assert_index_matches_full_scan(state, m)
    # the last ~r(Y) head reduces against the r(c_j) below every checkpoint
    before = chain_descent(m, steps[:-2])
    assert before.goals[-1].clause[0].predicate == "r" and not before.goals[-1].clause[0].positive
    reductions = [x.trail[0].path_index for x in successors(before, m) if isinstance(x.trail[0], Reduction)]
    assert len(reductions) == n // len(_MIXED_R) and min(reductions) < 64 < 128 < max(reductions)


def test_index_matches_full_scan_on_deep_mcts_states():
    """The states a bf MCTS run on hard_maze15 asks successors for, 130 and
    more extensions deep."""
    from mcprover.mcts import SearchConfig, run
    from mcprover.proving import ConnectionGame

    game = ConnectionGame(load_matrix(f"{bundled_corpus_dir()}/hard_maze15.p"))
    deep = []
    compute = game.successors

    def recorded(state):
        if state.goals[-1].depth > 130:
            deep.append(state)
        return compute(state)

    game.successors = recorded
    run(game, SearchConfig(seed=0, max_sim_depth=1), stop=lambda: game.extension_inferences >= 3000)
    assert len(deep) > 1000
    assert max(len(checkpoints(s.goals[-1])) for s in deep) >= 4
    for state in deep[::5]:
        assert_index_matches_full_scan(state, game.matrix)
