"""Property cross-checks of the two engines and the checker on small generated
cnf problems: every proof replays, and the engines agree on provability
where either one settles it."""

from itertools import permutations

from hypothesis import example, given, settings

from conftest import matrix_of
from mcprover import mcts
from mcprover.checker import certificate_for, check_proof
from mcprover.deepening import DeepeningOptions, Proof, Saturated, prove_iterative
from mcprover.mcts import SearchConfig
from mcprover.proving import ConnectionGame
from test_calculus import _PROBLEM

MAX_DEPTH = 6
# budgets for the rare problem whose terms double per extension step
INFERENCES = 5000
MCTS = SearchConfig(seed=0, max_iterations=300, max_sim_depth=8)
MCTS_INFERENCES = 1000
# proves without the cut (X = b); the cut commits to the first closure of
# p(X), by ~p(a), and leaves q(a), which no clause closes
CUT_PRUNES = (
    "cnf(c0, axiom, p(X) | q(X)).\n"
    "cnf(c1, axiom, ~p(a)).\n"
    "cnf(c2, axiom, ~p(b)).\n"
    "cnf(c3, axiom, ~q(b)).\n"
)


def deepening(matrix, cut):
    options = DeepeningOptions(max_depth=MAX_DEPTH, cut=cut, inference_budget=INFERENCES)
    return prove_iterative(matrix, options).outcome


@settings(max_examples=600, deadline=None)
@given(_PROBLEM)
@example(CUT_PRUNES)
def test_engines_agree_and_their_proofs_replay(problem):
    m = matrix_of(problem)
    plain, cut = deepening(m, cut=False), deepening(m, cut=True)
    for outcome in (plain, cut):
        if isinstance(outcome, Proof):
            assert check_proof(m, outcome.certificate).accepted
    game = ConnectionGame(m)
    result = mcts.run(game, MCTS, stop=lambda: game.extension_inferences >= MCTS_INFERENCES)
    if result.solved:
        assert check_proof(m, certificate_for(result.outcome.final_state, m)).accepted
        assert not (isinstance(plain, Saturated) and plain.complete)
    if isinstance(result.outcome, mcts.Exhausted):
        assert not isinstance(plain, Proof) and not isinstance(cut, Proof)
    if isinstance(cut, Proof):
        # the cut only drops alternatives, so the full search at the same bound proves too
        assert isinstance(plain, Proof) and plain.depth <= cut.depth


def test_cut_drops_the_only_proof():
    m = matrix_of(CUT_PRUNES)
    plain, cut = deepening(m, cut=False), deepening(m, cut=True)
    assert isinstance(plain, Proof) and plain.depth == 1
    assert isinstance(cut, Saturated) and cut.reason == "exhausted under cut"


def cut_variants():
    """`p(X) | q(X)` with units over two or three constants, in every order:
    one sign's units, ~p or ~q, cover every constant and the other's one."""
    for constants in ("ab", "abc"):
        for every, one in (("p", "q"), ("q", "p")):
            for k in constants:
                units = [f"~{every}({c})" for c in constants] + [f"~{one}({k})"]
                for order in permutations(units):
                    yield "cnf(c0, axiom, p(X) | q(X)).\n" + "".join(
                        f"cnf(c{i}, axiom, {unit}).\n" for i, unit in enumerate(order, 1))


def test_cut_proofs_imply_plain_proofs_on_enumerated_variants():
    """The cut only drops alternatives: wherever it proves, the full search
    proves at no greater depth; and some variant loses its proof to it."""
    lost = 0
    for problem in cut_variants():
        m = matrix_of(problem)
        plain, cut = deepening(m, cut=False), deepening(m, cut=True)
        if isinstance(cut, Proof):
            assert isinstance(plain, Proof) and plain.depth <= cut.depth, problem
        lost += isinstance(plain, Proof) and isinstance(cut, Saturated)
    assert lost > 0
