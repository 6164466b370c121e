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
exactly when its goal stack is empty. States are never mutated once built;
successor construction never touches the parent, which lets tree searches
share them. Goals and states compare and hash by identity.

Extensions read the matrix's extension table, built once per (predicate,
sign) of a goal literal: the candidates in matrix order, each with its
clause's variable count, connected literal, remaining literals, their
positions and whether each would head its goal privately (below). Only
clauses with variables are renamed, so every goal opened from a ground
clause shares its remaining literals.

A goal's path is a cons chain of cells (literal, fingerprint, index, rest,
older, marks), innermost first, that every goal below shares. index is the
literal's position from the root; older is the next older cell with the
literal's key: its predicate, sign and arity (a literal of another arity
neither unifies with a head nor repeats it). Every _CHECKPOINT-th cell from
the root is a checkpoint: its marks map each key to the newest cell strictly
below it, copied from the previous checkpoint's and updated with the cells
between; other cells have None. A call walks the chain once, back to its
newest checkpoint, to find the newest cell of the head's key and of the
complementary one; their older links then lead, innermost first, to the
reduction partners and to the cells regularity (no literal repeats one of
its path under the substitution) compares. So a call walks at most
_CHECKPOINT cells, and then only cells of those two keys, however deep the
path.

The substitution only grows along a branch, so a path literal that was
ground when pushed stays the same ground literal below. A literal is
fingerprinted only when some literal of its path had its key; its
cell then keeps that fingerprint (None when it was not ground or too large),
and one fingerprint comparison settles such a cell for every successor. A
ground head keeps its image the same way, so a same-key cell that it repeats
under σ, fingerprinted or not, ends the call. Every other cell is compared
under each successor's substitution, except after most extensions of a head
whose variables are all private.

A variable of a goal's head is private when it occurs in no literal of its
clause outside the goal: not in the one the clause was connected by, nor in a
solved one. The extension table settles this for each remaining literal of
a candidate from the clause alone, and each goal carries the verdicts of its
remaining literals. Every binding since the clause was renamed unified
σ-images of those literals, of path cells and of later renamings, none of
which holds a private variable, so no binding mentions one. Extending a head
that has variables, all private, into a freshly renamed literal thus binds
only private and fresh variables, to terms built from them alone: every cell
keeps its image, which holds neither, so the head can repeat a cell only when
its image is ground, and only then are the cells of its key listed.
Reductions are still compared: unifying with a partner cell can bind a
same-key cell's variable to the head's.
"""

from __future__ import annotations

from dataclasses import dataclass

from .terms import Literal, Matrix, START_CLAUSE, Var, rename_literal, subterms
from .unification import (
    EMPTY_SUBSTITUTION,
    Substitution,
    literals_equal_under,
    pairs_equal_under,
    unify_args,
)


# Actions are value classes like the terms (see `terms`): never assigned to.
@dataclass(slots=True, unsafe_hash=True)
class Reduction:
    goal: int
    path_index: int


@dataclass(slots=True, unsafe_hash=True)
class Extension:
    goal: int
    clause: int
    literal: int


@dataclass(slots=True, unsafe_hash=True)
class LemmaStep:
    goal: int
    lemma_index: int


Action = Reduction | Extension | LemmaStep


@dataclass(frozen=True)
class CalculusOptions:
    regularity: bool = True
    lemmas: bool = True


DEFAULT_OPTIONS = CalculusOptions()


@dataclass(slots=True, eq=False, repr=False)
class Goal:
    """One open branch: remaining clause literals, active path, usable lemmas.

    clause_index / literal_indices record where the remaining literals sit in
    the input matrix (clause_index -1 denotes the synthetic start goal); the
    guidance model and training extraction key statistics by those positions.
    private[k] is whether the k-th remaining literal, once it is the head,
    has variables and all of them private (module docstring); the start
    goal's is False. path is the chain of cells (literal, fingerprint, index,
    rest, older, marks), innermost first and None when empty (module
    docstring); fingerprint is the literal's _fingerprint when it was pushed
    with one, else None.
    """

    clause: tuple
    path: tuple | None
    lemmas: tuple
    clause_index: int
    literal_indices: tuple
    private: tuple

    @property
    def depth(self) -> int:  # extension steps below the start goal: the innermost cell's index
        return 0 if self.path is None else self.path[2]


@dataclass(slots=True, eq=False, repr=False)
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
        path=None,
        lemmas=(),
        clause_index=-1,
        literal_indices=(0,),
        private=(False,),
    )
    return ProverState(
        goals=(start,),
        sigma=EMPTY_SUBSTITUTION,
        fresh_var=0,
        extensions=0,
        reductions=0,
        trail=None,
    )


# A head whose walk passes this many tokens is left out of the index and
# compared directly. Bindings that share a variable make a DAG whose unfolding
# doubles per binding, so an unbounded walk could take exponential time.
_FINGERPRINT_TOKENS = 1 << 14

# Every path cell whose index is a multiple of this is a checkpoint.
_CHECKPOINT = 64


def _fingerprint(sigma: Substitution, lit: Literal) -> int | None:
    """A hash of `lit` under sigma, or None when a variable of it is unbound
    or the literal unfolds past _FINGERPRINT_TOKENS.

    Hashes a flat token tuple built by an explicit-stack walk, because the
    hash of an App recurses through its arguments."""
    lookup = sigma.lookup
    tokens = [lit.positive, lit.predicate]
    stack = list(lit.args)
    while stack:
        t = stack.pop()
        while type(t) is Var:
            t = lookup(t.id)
            if t is None:
                return None
        tokens.append(t.functor)
        tokens.append(len(t.args))
        if len(tokens) > _FINGERPRINT_TOKENS:
            return None
        stack.extend(t.args)
    return hash(tuple(tokens))


def _repeats(sigma: Substitution, head_args: tuple, arg_lists: list) -> bool:
    """True when the arguments of some literal in `arg_lists` equal the head's
    under sigma; the literals have the head's sign, predicate and arity."""
    lookup = sigma.lookup
    for args in arg_lists:
        pairs = []
        for h, t in zip(head_args, args):
            while type(h) is Var:
                bound = lookup(h.id)
                if bound is None:
                    break
                h = bound
            while type(t) is Var:
                bound = lookup(t.id)
                if bound is None:
                    break
                t = bound
            if h is t:
                continue
            if type(h) is Var or type(t) is Var:
                if type(h) is type(t) and h.id == t.id:
                    continue
                break
            if h.functor != t.functor or len(h.args) != len(t.args):
                break
            pairs.extend(zip(h.args, t.args))
        else:
            if not pairs or pairs_equal_under(sigma, pairs):
                return True
    return False


def _repeats_if_ground(sigma: Substitution, head_args: tuple, cell: tuple) -> bool:
    """_repeats against `cell` and its _same_cells for an extension of a
    private head (module docstring), which can repeat a cell only when it
    grounds the head. The walk for a variable gives up after
    _FINGERPRINT_TOKENS terms and compares, so a DAG of shared bindings is
    not unfolded further."""
    lookup = sigma.lookup
    stack = list(head_args)
    for _ in range(_FINGERPRINT_TOKENS):
        if not stack:
            break
        t = stack.pop()
        while type(t) is Var:
            t = lookup(t.id)
            if t is None:
                return False
        stack.extend(t.args)
    return _repeats(sigma, head_args, [c[0].args for c in _same_cells(cell)])


def _same_cells(cell: tuple | None) -> list:
    """`cell` and the older cells of its key, innermost first."""
    out = []
    while cell is not None:
        out.append(cell)
        cell = cell[4]
    return out


def _marks(cell: tuple | None) -> dict:
    """The marks of a checkpoint pushed onto the chain `cell`: the newest cell
    of each key on it, found by a walk back to its newest checkpoint."""
    if cell is None:
        return {}
    newer = {}
    while True:
        lit = cell[0]
        newer.setdefault((lit.predicate, lit.positive, len(lit.args)), cell)
        if cell[5] is not None:
            break
        cell = cell[3]
    marks = cell[5].copy()
    marks.update(newer)
    return marks


def successors(state: ProverState, matrix: Matrix, options: CalculusOptions = DEFAULT_OPTIONS,
               depth_bound: int | None = None):
    """All rule applications for the designated (most recent) goal, in the
    deterministic order: lemma step, reductions in path order, extensions in
    matrix order. Returns the list of successor states, each with the action
    that made it at the head of its trail (`trail[0]`); an empty list marks a
    dead end. A goal at depth `depth_bound` or deeper gets no extensions."""
    if not state.goals:
        raise ValueError("closed states have no successors")
    gi = len(state.goals) - 1
    goal = state.goals[gi]
    head = goal.clause[0]
    rest = goal.clause[1:]
    below = state.goals[:-1]
    head_pred = head.predicate
    head_pos = head.positive
    arity = len(head.args)
    sigma = state.sigma
    out = []
    # the goals left when a lemma step or reduction closes the head, and those
    # below the goal an extension opens, where the head becomes a lemma; states
    # are never mutated, so every sibling shares them
    closed = extended = below
    if rest:
        kept = goal.literal_indices[1:]
        kept_private = goal.private[1:]
        closed = below + (Goal(rest, goal.path, goal.lemmas, goal.clause_index, kept, kept_private),)
        extended = below + (Goal(rest, goal.path, goal.lemmas + (head,), goal.clause_index, kept, kept_private),)

    if options.lemmas:
        for k, lemma in enumerate(goal.lemmas):
            if (
                lemma.positive == head_pos
                and lemma.predicate == head_pred
                and literals_equal_under(sigma, head, lemma)
            ):
                out.append(ProverState(closed, sigma, state.fresh_var, state.extensions,
                                       state.reductions, (LemmaStep(gi, k), state.trail)))
                break

    # the newest cells of the head's key and of the complementary one, found by
    # a walk back to the newest checkpoint (module docstring); their older
    # links lead to the reduction partners and to the cells regularity compares
    newest = partner = None
    cell = goal.path
    if cell is not None:
        while True:
            lit = cell[0]
            if lit.predicate == head_pred:
                if lit.positive == head_pos:
                    if newest is None and len(lit.args) == arity:
                        newest = cell
                elif partner is None and len(lit.args) == arity:
                    partner = cell
            if cell[5] is not None:
                break
            cell = cell[3]
        marks = cell[5]
        if marks:  # the root's are empty
            if newest is None:
                newest = marks.get((head_pred, head_pos, arity))
            if partner is None:
                partner = marks.get((head_pred, not head_pos, arity))
    partners = _same_cells(partner)
    same = newest if options.regularity else None

    # a ground head keeps its image under every successor's σ, which extends
    # σ: a cell it repeats under σ ends the call, and only cells without a
    # fingerprint are compared per successor
    check = ()
    key = None
    private = False
    if same is not None:
        key = _fingerprint(sigma, head)
        if key is not None:
            cells = _same_cells(same)
            if _repeats(sigma, head.args, [c[0].args for c in cells if c[1] == key or c[1] is None]):
                return out
            check = [c[0].args for c in cells if c[1] is None]
        else:  # a head with a private variable has no fingerprint
            private = goal.private[0]
            if partners or not private:  # a private head's extensions find the cells they compare
                check = [c[0].args for c in _same_cells(same)]

    for cell in reversed(partners):  # reductions in path order
        sigma2 = unify_args(sigma, head.args, cell[0].args)
        if sigma2 is None:
            continue
        if check and _repeats(sigma2, head.args, check):
            continue
        out.append(ProverState(closed, sigma2, state.fresh_var, state.extensions,
                               state.reductions + 1, (Reduction(gi, cell[2]), state.trail)))

    if depth_bound is not None and goal.depth >= depth_bound:
        return out

    index = 0 if goal.path is None else goal.path[2] + 1
    path = (head, key, index, goal.path, newest, None if index % _CHECKPOINT else _marks(goal.path))
    compare = _repeats
    if private:
        compare, check = _repeats_if_ground, same
    offset = state.fresh_var
    for ci, li, var_count, lit, others, indices, privacy in _extension_entries(matrix, head_pred, head_pos):
        if var_count:
            lit = rename_literal(lit, offset)
        sigma2 = unify_args(sigma, head.args, lit.args)  # the index matched predicate and sign
        if sigma2 is None:
            continue
        if check and compare(sigma2, head.args, check):
            continue
        new_goals = extended
        if others:
            if var_count:
                others = tuple([rename_literal(other, offset) for other in others])
            new_goals = extended + (Goal(others, path, goal.lemmas, ci, indices, privacy),)
        out.append(ProverState(new_goals, sigma2, offset + var_count, state.extensions + 1,
                               state.reductions, (Extension(gi, ci, li), state.trail)))
    return out


def _extension_entries(matrix: Matrix, predicate: str, positive: bool) -> tuple:
    """The extension table's entries for a goal literal with this predicate
    and sign (module docstring): (clause index, literal index, var_count,
    connected literal, remaining literals, remaining indices, privacy),
    unrenamed. privacy[k] is true when remaining literal k has variables and
    none of them occurs in the connected literal or in a remaining literal
    before it, which is solved by the time k heads the goal.
    Only keys of the matrix's index are entered, so the table stays within
    the index's size."""
    entries = matrix.extension_table.get((predicate, positive))
    if entries is None:
        entries = []
        for ci, li in matrix.candidates(predicate, positive):
            clause = matrix.clauses[ci]
            indices = tuple([j for j in range(len(clause.literals)) if j != li])
            others = tuple([clause.literals[j] for j in indices])
            private = [False] * len(indices)
            if clause.var_count:
                variables = [{t.id for a in lit.args for t in subterms(a) if type(t) is Var} for lit in clause.literals]
                seen = variables[li]
                for k, j in enumerate(indices):
                    private[k] = bool(variables[j]) and not variables[j] & seen
                    seen = seen | variables[j]
            entries.append((ci, li, clause.var_count, clause.literals[li], others, indices, tuple(private)))
        entries = tuple(entries)
        if entries:
            matrix.extension_table[predicate, positive] = entries
    return entries


def extension_count(states: list) -> int:
    """The states made by an extension: what inference budgets charge."""
    return len([s for s in states if type(s.trail[0]) is Extension])


def has_applicable_extension(state: ProverState, matrix: Matrix) -> bool:
    """Whether some extension unifies for the designated goal, ignoring any
    depth bound. Used to distinguish exhausted spaces from bounded ones."""
    head = state.goals[-1].clause[0]
    for _, _, var_count, lit, _, _, _ in _extension_entries(matrix, head.predicate, head.positive):
        if var_count:
            lit = rename_literal(lit, state.fresh_var)
        if unify_args(state.sigma, head.args, lit.args) is not None:
            return True
    return False
