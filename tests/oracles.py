"""Reference code that only the tests use.

The prover itself needs `unify_args`, `pairs_equal_under` and
`literals_equal_under`; the tests also resolve terms fully, unify single
terms or literals, and compare substitutions, which the helpers below do on
top of `mcprover.unification`. The rest are the references the tests compare
the prover's own code with, and the writers and readers of the formats the
tests feed it:
- `print_problem` and `formula_to_str`, the canonical TPTP printer that the
  reader's round-trip tests read back;
- `key_of`, the per-literal training key that `trainstore.KeyTable` tabulates;
- `dump_instance`, which writes the TSP instance format `TspInstance.parse`
  reads;
- `parse_certificate`, the reader of the certificate text that
  `checker.format_certificate` writes;
- `annotated_corpus`, the bundled problems with the `% Status` and
  `% DepthBound` lines the corpus tests check outcomes against;
- `reference_mcts_step`, the MCTS iteration that steps through every node of
  a run of forced nodes, which `mcts.mcts_step` jumps over.
"""

import random
import re
from dataclasses import dataclass

from mcprover.calculus import Extension, LemmaStep, Reduction
from mcprover.checker import ProofCertificate
from mcprover.cli import bundled_corpus_dir, load_corpus
from mcprover.formulas import Binary, Formula, Not, Quant, unwind
from mcprover.mcts import MctsTree, SearchConfig, _draw, _leaf, cp_schedule, simulate, uct_key
from mcprover.terms import App, Clause, Literal, Var, clause_to_str, literal_to_str
from mcprover.trainstore import LiteralKey, clause_hash, literal_hash
from mcprover.tptp import CnfDecl, Problem
from mcprover.tsp import TspInstance
from mcprover.unification import Substitution, pairs_equal_under, unify_args


def bindings(sigma: Substitution) -> dict:
    """The bindings of `sigma`, var id -> term, as a fresh dict."""
    return dict(sigma._bindings)


def factors_through(sigma: Substitution, other: Substitution) -> bool:
    """True iff every binding of `other` is present in `sigma` unchanged."""
    return all(sigma.lookup(var_id) is term for var_id, term in bindings(other).items())


def deref(sigma: Substitution, t):
    while isinstance(t, Var):
        bound = sigma.lookup(t.id)
        if bound is None:
            return t
        t = bound
    return t


def unify(sigma: Substitution, a, b) -> Substitution | None:
    """Unify two terms, or the argument lists of two complementary literals.

    Returns an extension of `sigma` or None on clash / occurs-check failure.
    """
    if isinstance(a, Literal) or isinstance(b, Literal):
        if not (isinstance(a, Literal) and isinstance(b, Literal)):
            raise TypeError("cannot unify a literal with a term")
        if a.predicate != b.predicate or a.positive == b.positive:
            raise ValueError("literal unification requires complementary literals")
        return unify_args(sigma, a.args, b.args)
    return unify_args(sigma, (a,), (b,))


def resolve_term(sigma: Substitution, t):
    """Apply the substitution exhaustively, producing a fresh term."""
    t = deref(sigma, t)
    if isinstance(t, Var) or not t.args:
        return t
    return App(t.functor, tuple(resolve_term(sigma, a) for a in t.args))


def resolve_literal(sigma: Substitution, lit: Literal) -> Literal:
    if not lit.args:
        return lit
    return Literal(lit.positive, lit.predicate, tuple(resolve_term(sigma, a) for a in lit.args))


def terms_equal_under(sigma: Substitution, a, b) -> bool:
    """Structural equality of two terms modulo the substitution."""
    return pairs_equal_under(sigma, [(a, b)])


# --- the MCTS iteration without jumps ----------------------------------------

def reference_mcts_step(tree: MctsTree, config: SearchConfig, rng: random.Random, iteration: int):
    """One selection/simulation/expansion/backpropagation round.

    Returns the success state when the playout reached one, else None.
    """
    problem = tree.problem
    stats = tree.stats
    cp = cp_schedule(iteration, config)

    # root-to-leaf path of the selection; nodes keep no parent pointers, so
    # finished trees hold no reference cycles and are freed by refcounting
    node = tree.root
    path = [node]
    while not node.unexplored:
        children = node.children
        if not children:
            return None  # dead root; run() reports exhaustion
        node = children[0] if len(children) == 1 else max(children, key=uct_key(node.visits, cp))
        path.append(node)

    action_state = node.unexplored.pop(_draw(problem, node.unexplored, rng))

    # first-node expansion builds the leaf before the playout, whose first
    # step then asks the problem for the same successors again
    child = _leaf(problem, action_state) if config.expansion == "first" else None
    playout, success = simulate(action_state, problem, config.max_sim_depth, rng)
    final = playout[-1] if playout else action_state
    reward = problem.reward(final)
    if not 0.0 <= reward <= 1.0:
        raise ValueError(f"reward {reward} outside [0, 1]")

    if child is None:
        chain = [action_state, *playout]
        pick = min(range(len(chain)), key=lambda i: (problem.openness(chain[i]), i))
        child = _leaf(problem, chain[pick])
    node.children.append(child)
    path.append(child)
    stats.max_tree_depth = max(stats.max_tree_depth, len(path) - 1)

    for walk in path:
        walk.visits += 1
        walk.reward_sum += reward

    if reward > stats.best_reward:
        stats.best_reward = reward
        stats.best_state = final

    i = len(path) - 1
    while i > 0 and not path[i].unexplored and not path[i].children:
        dead, parent = path[i], path[i - 1]
        parent.children.remove(dead)
        parent.deleted_visits += dead.visits
        stats.deletions += 1
        i -= 1

    return final if success else None


# --- canonical printing -----------------------------------------------------

def formula_to_str(f: Formula) -> str:
    """Canonical fof text of `f`, walked on an explicit stack by `unwind`, so
    formulas nest to any depth."""
    def walk(g, wrap=False):  # `wrap`: parenthesize a quantified formula
        if isinstance(g, Literal):
            return literal_to_str(g)
        if isinstance(g, Not):
            return "~" + (yield walk(g.body, True))
        if isinstance(g, Binary):
            if g.op in ("&", "|"):
                # flatten the left spine of an associative chain
                parts = [g.right]
                node = g.left
                while isinstance(node, Binary) and node.op == g.op:
                    parts.append(node.right)
                    node = node.left
                parts.append(node)
                texts = []
                for part in reversed(parts):
                    texts.append((yield walk(part, True)))
                return "(" + f" {g.op} ".join(texts) + ")"
            return f"({(yield walk(g.left, True))} {g.op} {(yield walk(g.right, True))})"
        names = [g.var]
        body = g.body
        while isinstance(body, Quant) and body.kind == g.kind:
            names.append(body.var)
            body = body.body
        text = f"{g.kind} [{','.join(names)}] : {(yield walk(body, True))}"
        return f"({text})" if wrap else text

    return unwind(walk(f))


def print_problem(problem: Problem) -> str:
    """Canonical text whose re-parse is structurally equal to `problem`."""
    lines = []
    for decl in problem.declarations:
        if isinstance(decl, CnfDecl):
            lines.append(f"cnf({decl.name}, {decl.role}, {clause_to_str(decl.clause)}).")
        else:
            lines.append(f"fof({decl.name}, {decl.role}, {formula_to_str(decl.formula)}).")
    return "\n".join(lines) + ("\n" if lines else "")


# --- formats the tests write or read ------------------------------------------

def key_of(literal: Literal, origin_clause: Clause) -> LiteralKey:
    return LiteralKey(literal_hash(literal), clause_hash(origin_clause))


def dump_instance(instance: TspInstance) -> str:
    """The instance file text that `TspInstance.parse` reads back."""
    lines = [str(instance.n)]
    for i in range(1, instance.n + 1):
        for j in range(i + 1, instance.n + 1):
            lines.append(f"{i} {j} {instance.d(i, j):g}")
    return "\n".join(lines) + "\n"


class CertificateError(Exception):
    pass


def parse_certificate(text: str) -> ProofCertificate:
    lines = [line.strip() for line in text.splitlines() if line.strip()]
    if not lines or not lines[0].startswith("proof "):
        raise CertificateError("missing proof header")
    digest = lines[0].split()[1]
    actions: list = []
    for number, line in enumerate(lines[1:], start=2):
        parts = line.split()
        try:
            if parts[0] == "ext" and len(parts) == 4:
                actions.append(Extension(int(parts[1]), int(parts[2]), int(parts[3])))
            elif parts[0] == "red" and len(parts) == 3:
                actions.append(Reduction(int(parts[1]), int(parts[2])))
            elif parts[0] == "lem" and len(parts) == 3:
                actions.append(LemmaStep(int(parts[1]), int(parts[2])))
            else:
                raise ValueError
        except ValueError:
            raise CertificateError(f"malformed certificate line {number}: {line!r}") from None
    return ProofCertificate(digest, tuple(actions))


@dataclass
class AnnotatedProblem:
    path: str
    name: str
    status: str = ""  # Theorem | Satisfiable | ""
    depth_bound: int | None = None


_ANNOTATION = re.compile(r"^%\s*(Status|DepthBound)\s*:\s*(\S+)", re.MULTILINE)


def annotated_corpus() -> list:
    """The bundled problems, each with its `% Status` and `% DepthBound`."""
    problems = []
    for problem in load_corpus(bundled_corpus_dir()):
        info = AnnotatedProblem(problem.path, problem.name)
        with open(problem.path, encoding="utf-8") as handle:
            for kind, value in _ANNOTATION.findall(handle.read()):
                if kind == "Status":
                    info.status = value
                else:
                    info.depth_bound = int(value)
        problems.append(info)
    return problems
