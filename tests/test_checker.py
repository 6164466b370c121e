import pytest

from conftest import matrix_of
from mcprover import cli
from mcprover.calculus import Extension, LemmaStep, Reduction
from mcprover.checker import (
    CheckResult,
    ProofCertificate,
    certificate_for,
    check_proof,
    format_certificate,
)
from mcprover.deepening import DeepeningOptions, prove_iterative
from oracles import CertificateError, annotated_corpus, parse_certificate


def test_two_step_proof_accepted(unit_pair_matrix):
    cert = ProofCertificate(unit_pair_matrix.digest, (Extension(0, 0, 0), Extension(0, 1, 0)))
    result = check_proof(unit_pair_matrix, cert)
    assert result.accepted
    assert result.extension_count == 2


def test_digest_mismatch_rejected(unit_pair_matrix):
    other = matrix_of("cnf(c1, axiom, q).\ncnf(c2, axiom, ~q).\n")
    cert = ProofCertificate(other.digest, (Extension(0, 0, 0), Extension(0, 1, 0)))
    result = check_proof(unit_pair_matrix, cert)
    assert not result.accepted
    assert "digest" in result.reason


def test_non_unifying_extension_rejected():
    m = matrix_of("cnf(c1, axiom, p(a)).\ncnf(c2, axiom, ~p(b)).\n")
    cert = ProofCertificate(m.digest, (Extension(0, 0, 0), Extension(0, 1, 0)))
    result = check_proof(m, cert)
    assert not result.accepted
    assert result.failed_step == 1
    assert "unification" in result.reason


def test_incomplete_certificate_rejected(unit_pair_matrix):
    cert = ProofCertificate(unit_pair_matrix.digest, (Extension(0, 0, 0),))
    result = check_proof(unit_pair_matrix, cert)
    assert not result.accepted
    assert "open" in result.reason


def test_wrong_goal_index_rejected(unit_pair_matrix):
    cert = ProofCertificate(unit_pair_matrix.digest, (Extension(1, 0, 0),))
    assert not check_proof(unit_pair_matrix, cert).accepted


def test_bad_reduction_index_rejected(unit_pair_matrix):
    cert = ProofCertificate(unit_pair_matrix.digest, (Extension(0, 0, 0), Reduction(0, 7)))
    result = check_proof(unit_pair_matrix, cert)
    assert not result.accepted


def test_format_parse_round_trip(unit_pair_matrix):
    res = prove_iterative(unit_pair_matrix, DeepeningOptions())
    cert = res.outcome.certificate
    text = format_certificate(cert)
    assert text.splitlines()[0] == f"proof {unit_pair_matrix.digest}"
    assert parse_certificate(text) == cert


def test_certificate_with_lemma_replays():
    text = """
cnf(c1, axiom, p).
cnf(c2, axiom, ~p | q | q).
cnf(c3, axiom, ~q).
"""
    m = matrix_of(text)
    res = prove_iterative(m, DeepeningOptions())
    cert = res.outcome.certificate
    assert any(line.startswith("lem") for line in format_certificate(cert).splitlines())
    verdict = check_proof(m, cert)
    assert verdict.accepted
    assert parse_certificate(format_certificate(cert)) == cert


# clauses 0..3: ~$top | p(b) | r, ~p(b) | p(a), ~p(a) | ~p(b), ~r | p(b)
LEMMA_AND_REDUCTION = """
cnf(s, negated_conjecture, p(b) | r).
cnf(t, axiom, ~p(b) | p(a)).
cnf(u, axiom, ~p(a) | ~p(b)).
cnf(v, axiom, ~r | p(b)).
"""
# step 3 closes ~p(b) against p(b) on its path ($top, p(b), p(a)); step 4
# extends r, whose lemmas are (p(b),); step 5 closes p(b) by that lemma
VALID = (Extension(0, 0, 0), Extension(0, 1, 0), Extension(1, 2, 0),
         Reduction(1, 1), Extension(0, 3, 0), LemmaStep(0, 0))


@pytest.mark.parametrize("step, fault, reason", [
    (6, Extension(0, 0, 0), "action after all branches closed"),
    (3, Reduction(1, 0), "reduction against a non-complementary literal"),
    (3, Reduction(1, 2), "reduction unification failure"),
    (5, LemmaStep(0, 1), "lemma index out of range"),
    (4, LemmaStep(0, 0), "lemma literal differs under the substitution"),
    (4, Extension(0, 4, 0), "clause index out of range"),
    (4, Extension(0, 3, 2), "literal index out of range"),
    (4, Extension(0, 0, 2), "extension against a non-complementary literal"),
])
def test_planted_fault_rejected_at_its_step(step, fault, reason):
    m = matrix_of(LEMMA_AND_REDUCTION)
    assert check_proof(m, ProofCertificate(m.digest, VALID)).accepted
    actions = VALID[:step] + (fault,) + VALID[step + 1:]
    result = check_proof(m, ProofCertificate(m.digest, actions))
    assert result.accepted is False
    assert result.reason == reason
    assert result.failed_step == step


def test_prove_exits_two_when_the_checker_rejects(capsys, monkeypatch, tmp_path):
    problem = tmp_path / "pair.p"
    problem.write_text("cnf(c1, axiom, p).\ncnf(c2, axiom, ~p).\n")
    monkeypatch.setattr(cli, "check_proof", lambda matrix, cert: CheckResult(False, "planted"))
    assert cli.main(["prove", str(problem)]) == 2
    captured = capsys.readouterr()
    assert "checker    : rejected: planted" in captured.out
    assert "error: emitted certificate was rejected by the checker" in captured.err


def test_malformed_certificate_text():
    with pytest.raises(CertificateError):
        parse_certificate("not a proof\n")
    with pytest.raises(CertificateError, match="line 2"):
        parse_certificate("proof abc\next zero 0 0\n")


def test_checker_ignores_regularity():
    # an irregular but calculus-valid proof: repeat p on the path via c2 then close
    m = matrix_of("cnf(c1, axiom, p).\ncnf(c2, axiom, ~p | p).\ncnf(c3, axiom, ~p).\n")
    cert = ProofCertificate(
        m.digest,
        (Extension(0, 0, 0), Extension(0, 1, 0), Extension(0, 2, 0)),
    )
    assert check_proof(m, cert).accepted


def test_replayed_certificate_for_final_state(unit_pair_matrix):
    res = prove_iterative(unit_pair_matrix, DeepeningOptions())
    cert = certificate_for(res.outcome.final_state, unit_pair_matrix)
    assert cert == res.outcome.certificate


def replay_in_engine(matrix, cert, options):
    """Drive the successor relation along a certificate's action sequence."""
    from mcprover.calculus import initial_state, successors

    state = initial_state(matrix)
    for action in cert.actions:
        match = [s for s in successors(state, matrix, options) if s.trail[0] == action]
        if not match:
            return None
        state = match[0]
    return state if state.is_closed else None


def test_checker_and_engine_accept_the_same_regular_proofs():
    from mcprover.calculus import CalculusOptions
    from mcprover.clausify import clausify, prepare_matrix
    from mcprover.tptp import load_problem

    checked = 0
    for info in annotated_corpus():
        if info.status != "Theorem" or info.depth_bound > 6:
            continue
        m = prepare_matrix(clausify(load_problem(info.path)))
        res = prove_iterative(m, DeepeningOptions(max_depth=info.depth_bound))
        cert = res.outcome.certificate
        assert check_proof(m, cert).accepted, info.name
        assert replay_in_engine(m, cert, CalculusOptions()) is not None, info.name
        checked += 1
    assert checked >= 30


def test_irregular_checker_proof_replays_with_regularity_off():
    from mcprover.calculus import CalculusOptions

    m = matrix_of("cnf(c1, axiom, p).\ncnf(c2, axiom, ~p | p).\ncnf(c3, axiom, ~p).\n")
    cert = ProofCertificate(
        m.digest, (Extension(0, 0, 0), Extension(0, 1, 0), Extension(0, 2, 0))
    )
    assert check_proof(m, cert).accepted
    assert replay_in_engine(m, cert, CalculusOptions(regularity=False)) is not None
    # the optimized engine prunes this derivation; the checker stays liberal
    assert replay_in_engine(m, cert, CalculusOptions(regularity=True)) is None
