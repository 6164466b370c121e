"""Connection-calculus states and the single-premise successor relation.

A prover state carries an ordered stack of open goals plus one substitution.
Every rule targets the head literal of the most recently created goal, which
mirrors the depth-first goal order of Prolog-style connection provers:

  - a reduction closes the head against a complementary path literal,
  - an extension connects the head to a literal of a freshly renamed input
    clause, opening that clause's remaining literals as a new goal,
  - a lemma step closes the head at no cost when an identical literal was
    already proved on this branch.

Goals whose clause became empty are discharged eagerly, so a state is closed
exactly when its goal stack is empty. States are immutable; successor
construction never touches the parent, which lets tree searches share them.
"""

from __future__ import annotations

from dataclasses import dataclass

from .terms import Literal, Matrix, START_CLAUSE, rename_literal
from .unification import (
    EMPTY_SUBSTITUTION,
    Substitution,
    literals_equal_under,
    unify_args,
)


@dataclass(frozen=True)
class Reduction:
    goal: int
    path_index: int


@dataclass(frozen=True)
class Extension:
    goal: int
    clause: int
    literal: int


@dataclass(frozen=True)
class LemmaStep:
    goal: int
    lemma_index: int


Action = Reduction | Extension | LemmaStep


@dataclass(frozen=True)
class CalculusOptions:
    regularity: bool = True
    lemmas: bool = True
    depth_bound: int | None = None


DEFAULT_OPTIONS = CalculusOptions()


@dataclass(frozen=True)
class Goal:
    """One open branch: remaining clause literals, active path, usable lemmas.

    clause_index / literal_indices record where the remaining literals sit in
    the input matrix (clause_index -1 denotes the synthetic start goal); the
    guidance model and training extraction key statistics by those positions.
    depth counts extension steps below the start goal, i.e. the path length
    with the synthetic top literal discounted.
    """

    clause: tuple
    path: tuple
    lemmas: tuple
    depth: int
    clause_index: int
    literal_indices: tuple


@dataclass(frozen=True)
class ProverState:
    goals: tuple
    sigma: Substitution
    fresh_var: int
    extensions: int
    reductions: int
    trail: tuple | None  # cons cell (action, parent_trail)

    @property
    def opened_total(self) -> int:  # the start goal plus one goal per extension
        return self.extensions + 1

    @property
    def open_count(self) -> int:
        return len(self.goals)

    @property
    def is_closed(self) -> bool:
        return not self.goals

    def actions(self) -> tuple:
        """Materialize the action sequence that produced this state."""
        out = []
        node = self.trail
        while node is not None:
            out.append(node[0])
            node = node[1]
        out.reverse()
        return tuple(out)


def initial_state(matrix: Matrix) -> ProverState:
    start = Goal(
        clause=START_CLAUSE.literals,
        path=(),
        lemmas=(),
        depth=0,
        clause_index=-1,
        literal_indices=(0,),
    )
    return ProverState(
        goals=(start,),
        sigma=EMPTY_SUBSTITUTION,
        fresh_var=0,
        extensions=0,
        reductions=0,
        trail=None,
    )


def _connect(sigma: Substitution, goal_lit: Literal, target: Literal) -> Substitution | None:
    if goal_lit.predicate != target.predicate or goal_lit.positive == target.positive:
        return None
    return unify_args(sigma, goal_lit.args, target.args)


def _regular(sigma: Substitution, head: Literal, path: tuple) -> bool:
    """True when the instantiated head does not repeat a literal of its path."""
    for lit in path:
        if (
            lit.positive == head.positive
            and lit.predicate == head.predicate
            and literals_equal_under(sigma, head, lit)
        ):
            return False
    return True


def successors(state: ProverState, matrix: Matrix, options: CalculusOptions = DEFAULT_OPTIONS):
    """All rule applications for the designated (most recent) goal, in the
    deterministic order: lemma step, reductions in path order, extensions in
    matrix order. Returns a list of (action, successor) pairs; an empty list
    marks a dead end."""
    if not state.goals:
        raise ValueError("closed states have no successors")
    gi = len(state.goals) - 1
    goal = state.goals[gi]
    head = goal.clause[0]
    rest = goal.clause[1:]
    below = state.goals[:-1]
    sigma = state.sigma
    out = []

    def retained(extra_lemma=None):
        if not rest:
            return below
        lemmas = goal.lemmas + (extra_lemma,) if extra_lemma is not None else goal.lemmas
        kept = Goal(rest, goal.path, lemmas, goal.depth, goal.clause_index, goal.literal_indices[1:])
        return below + (kept,)

    if options.lemmas:
        for k, lemma in enumerate(goal.lemmas):
            if (
                lemma.positive == head.positive
                and lemma.predicate == head.predicate
                and literals_equal_under(sigma, head, lemma)
            ):
                action = LemmaStep(gi, k)
                out.append(
                    (
                        action,
                        ProverState(
                            goals=retained(),
                            sigma=sigma,
                            fresh_var=state.fresh_var,
                            extensions=state.extensions,
                            reductions=state.reductions,
                            trail=(action, state.trail),
                        ),
                    )
                )
                break

    head_pred = head.predicate
    head_pos = head.positive
    for k, path_lit in enumerate(goal.path):
        if path_lit.predicate != head_pred or path_lit.positive == head_pos:
            continue
        sigma2 = unify_args(sigma, head.args, path_lit.args)
        if sigma2 is None:
            continue
        if options.regularity and not _regular(sigma2, head, goal.path):
            continue
        action = Reduction(gi, k)
        out.append(
            (
                action,
                ProverState(
                    goals=retained(),
                    sigma=sigma2,
                    fresh_var=state.fresh_var,
                    extensions=state.extensions,
                    reductions=state.reductions + 1,
                    trail=(action, state.trail),
                ),
            )
        )

    if options.depth_bound is not None and goal.depth >= options.depth_bound:
        return out

    for ci, li in matrix.candidates(head.predicate, head.positive):
        clause = matrix.clauses[ci]
        offset = state.fresh_var
        target = rename_literal(clause.literals[li], offset)
        sigma2 = _connect(sigma, head, target)
        if sigma2 is None:
            continue
        if options.regularity and not _regular(sigma2, head, goal.path):
            continue
        new_lits = tuple(
            rename_literal(lit, offset) for j, lit in enumerate(clause.literals) if j != li
        )
        new_goals = retained(extra_lemma=head)
        if new_lits:
            new_goals = new_goals + (
                Goal(
                    clause=new_lits,
                    path=goal.path + (head,),
                    lemmas=goal.lemmas,
                    depth=goal.depth + (0 if head.is_top() else 1),
                    clause_index=ci,
                    literal_indices=tuple(j for j in range(len(clause.literals)) if j != li),
                ),
            )
        action = Extension(gi, ci, li)
        out.append(
            (
                action,
                ProverState(
                    goals=new_goals,
                    sigma=sigma2,
                    fresh_var=state.fresh_var + clause.var_count,
                    extensions=state.extensions + 1,
                    reductions=state.reductions,
                    trail=(action, state.trail),
                ),
            )
        )
    return out


def has_applicable_extension(state: ProverState, matrix: Matrix) -> bool:
    """Whether some extension unifies for the designated goal, ignoring any
    depth bound. Used to distinguish exhausted spaces from bounded ones."""
    goal = state.goals[-1]
    head = goal.clause[0]
    for ci, li in matrix.candidates(head.predicate, head.positive):
        target = rename_literal(matrix.clauses[ci].literals[li], state.fresh_var)
        if _connect(state.sigma, head, target) is not None:
            return True
    return False
