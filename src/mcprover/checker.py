"""Certificates and an independent branching-calculus replay checker.

The checker reconstructs the branching proof tree from scratch: it keeps its
own branch stack, fresh-variable counter and substitution, and re-verifies the
connection side conditions of every step. Search-space optimizations such as
regularity are deliberately not re-checked, so any calculus-valid certificate
is accepted. Lemma steps are re-verified against lemmas the checker itself
accumulates while replaying.

Certificate text format (stable, line oriented):

    proof <matrix-digest-hex>
    ext <goal> <clause> <literal>
    red <goal> <path-literal>
    lem <goal> <lemma>
"""

from __future__ import annotations

from dataclasses import dataclass

from .calculus import Extension, LemmaStep, ProverState, Reduction
from .terms import Matrix, TOP, rename_literal
from .unification import EMPTY_SUBSTITUTION, literals_equal_under, unify_args


@dataclass(frozen=True)
class ProofCertificate:
    matrix_digest: str
    actions: tuple

    def __len__(self) -> int:
        return len(self.actions)


def certificate_for(final_state: ProverState, matrix: Matrix) -> ProofCertificate:
    return ProofCertificate(matrix.digest, final_state.actions())


def format_certificate(cert: ProofCertificate) -> str:
    lines = [f"proof {cert.matrix_digest}"]
    for action in cert.actions:
        if isinstance(action, Extension):
            lines.append(f"ext {action.goal} {action.clause} {action.literal}")
        elif isinstance(action, Reduction):
            lines.append(f"red {action.goal} {action.path_index}")
        else:
            lines.append(f"lem {action.goal} {action.lemma_index}")
    return "\n".join(lines) + "\n"


@dataclass
class CheckResult:
    accepted: bool
    reason: str = ""
    failed_step: int | None = None
    extension_count: int = 0


def check_proof(matrix: Matrix, cert: ProofCertificate) -> CheckResult:
    """Replay a certificate through the branching calculus."""
    if cert.matrix_digest != matrix.digest:
        return CheckResult(False, "matrix digest mismatch")

    # branch frames: (remaining clause literals, path, lemmas)
    stack = [((TOP,), (), ())]
    sigma = EMPTY_SUBSTITUTION
    fresh = 0
    ext_count = 0

    def reject(step, reason):
        return CheckResult(False, reason, failed_step=step, extension_count=ext_count)

    for step, action in enumerate(cert.actions):
        if not stack:
            return reject(step, "action after all branches closed")
        if action.goal != len(stack) - 1:
            return reject(step, "action does not address the open branch")
        clause, path, lemmas = stack.pop()
        head, rest = clause[0], clause[1:]

        if isinstance(action, Reduction):
            if not (0 <= action.path_index < len(path)):
                return reject(step, "path index out of range")
            target = path[action.path_index]
            if head.predicate != target.predicate or head.positive == target.positive:
                return reject(step, "reduction against a non-complementary literal")
            sigma2 = unify_args(sigma, head.args, target.args)
            if sigma2 is None:
                return reject(step, "reduction unification failure")
            sigma = sigma2
            if rest:
                stack.append((rest, path, lemmas))
        elif isinstance(action, LemmaStep):
            if not (0 <= action.lemma_index < len(lemmas)):
                return reject(step, "lemma index out of range")
            if not literals_equal_under(sigma, head, lemmas[action.lemma_index]):
                return reject(step, "lemma literal differs under the substitution")
            if rest:
                stack.append((rest, path, lemmas))
        else:
            if not (0 <= action.clause < len(matrix.clauses)):
                return reject(step, "clause index out of range")
            clause2 = matrix.clauses[action.clause]
            if not (0 <= action.literal < len(clause2.literals)):
                return reject(step, "literal index out of range")
            target = rename_literal(clause2.literals[action.literal], fresh)
            if head.predicate != target.predicate or head.positive == target.positive:
                return reject(step, "extension against a non-complementary literal")
            sigma2 = unify_args(sigma, head.args, target.args)
            if sigma2 is None:
                return reject(step, "extension unification failure")
            sigma = sigma2
            ext_count += 1
            if rest:
                stack.append((rest, path, lemmas + (head,)))
            new_lits = tuple(
                rename_literal(lit, fresh)
                for j, lit in enumerate(clause2.literals)
                if j != action.literal
            )
            fresh += clause2.var_count
            if new_lits:
                stack.append((new_lits, path + (head,), lemmas))

    if stack:
        return CheckResult(False, f"{len(stack)} branch(es) left open", extension_count=ext_count)
    return CheckResult(True, "closed", extension_count=ext_count)
