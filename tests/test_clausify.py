import pytest

from mcprover.cli import bundled_corpus_dir, load_corpus
from mcprover.clausify import ClausifyError, ClausifyOptions, clausify, load_matrix, prepare_matrix
from mcprover.terms import NEG_TOP, TOP_PREDICATE, Matrix, clause_to_str, matrix_to_cnf
from mcprover.tptp import parse_problem


def clausify_text(text, **kw):
    return clausify(parse_problem(text), ClausifyOptions(**kw) if kw else None)


def test_exists_becomes_hashed_skolem_constant():
    m1 = clausify_text("fof(a, axiom, ? [X] : p(X)).")
    m2 = clausify_text("fof(a, axiom, ? [X] : p(X)).")
    lit = m1.clauses[0].literals[0]
    name = lit.args[0].functor
    assert name.startswith("sk_") and len(name) == 19
    assert clause_to_str(m2.clauses[0]) == clause_to_str(m1.clauses[0])


def test_same_subformula_same_skolem_name_across_problems():
    m1 = clausify_text("fof(a, axiom, ? [X] : p(X)).")
    m2 = clausify_text("fof(b, axiom, (q | (? [X] : p(X)))).")
    m3 = clausify_text("fof(c, axiom, ? [Zz] : p(Zz)).")
    sk = m1.clauses[0].literals[0].args[0].functor
    assert sk in clause_to_str(m2.clauses[0])
    assert m3.clauses[0].literals[0].args[0].functor == sk


def test_skolem_function_gets_scope_arguments():
    m = clausify_text("fof(a, axiom, ! [X] : (p(X) | (? [Y] : q(X,Y)))).")
    clause = m.clauses[0]
    q = clause.literals[1]
    sk_term = q.args[1]
    assert sk_term.functor.startswith("sk_")
    assert len(sk_term.args) == 1  # depends on X only


def test_universal_binders_sharing_a_name_stay_distinct():
    m = clausify_text("fof(a, axiom, (! [X] : p(X)) | (! [X] : q(X))).")
    assert clause_to_str(m.clauses[0]) == "p(X) | q(X_1)"
    # the fresh name skips every name the formula already uses
    m = clausify_text("fof(a, axiom, (! [X] : p(X)) | (! [X] : (? [X_1] : q(X, X_1)))).")
    assert clause_to_str(m.clauses[0]).startswith("p(X) | q(X_2,sk_")


def test_sides_of_a_conjunction_may_share_a_variable_name():
    m = clausify_text("fof(a, axiom, (! [X] : a(X)) & (! [X] : b(X))).")
    assert [clause_to_str(c) for c in m.clauses] == ["a(X)", "b(X)"]
    m = clausify_text("fof(a, axiom, ((! [X] : a(X)) & (! [X] : b(X))) | (! [X] : c(X))).")
    assert [clause_to_str(c) for c in m.clauses] == ["a(X) | c(X_1)", "b(X) | c(X_1)"]


def test_renaming_a_shadowing_binder_keeps_skolem_arguments():
    # sk(X) is substituted under the inner `! [X]`; renaming that binder must
    # not rename the X that the Skolem term carries from the outer binder.
    m = clausify_text("fof(f, axiom, ! [X] : ? [Y] : (r(X,Y) & (q(X,Y) | ! [X] : p(X,Y)))).")
    q, p = m.clauses[1].literals
    assert clause_to_str(m.clauses[1]) == f"q(X,{q.args[1].functor}(X)) | p(X_1,{q.args[1].functor}(X))"
    assert p.args[1] == q.args[1]
    # the same holds under a shadowing `? [X]`, whose Skolem term depends on X
    m = clausify_text("fof(f, axiom, ! [X] : ? [Y] : (q(X,Y) | ? [X] : p(X,Y))).")
    q, p = m.clauses[0].literals
    assert p.args[1] == q.args[1]
    assert p.args[0].args == q.args[1].args


def test_conjecture_negated():
    m = clausify_text("fof(goal, conjecture, p).")
    assert clause_to_str(m.clauses[0]) == "~p"


def test_clausify_is_deterministic_across_calls():
    text = """
fof(a, axiom, ! [X] : (p(X) => (? [Y] : (q(X,Y) & r(Y))))).
fof(goal, conjecture, ? [X] : p(X)).
"""
    a = matrix_to_cnf(prepare_matrix(clausify_text(text)))
    b = matrix_to_cnf(prepare_matrix(clausify_text(text)))
    assert a == b


def test_distribution_cutoff():
    # (a1&b1) | (a2&b2) | ... blows up multiplicatively: 9 * 2**9 literals > 4096
    parts = " | ".join(f"(a{i} & b{i})" for i in range(12))
    with pytest.raises(ClausifyError, match="cutoff"):
        clausify_text(f"fof(f, axiom, ({parts})).")


def test_equivalence_expansion():
    m = clausify_text("fof(f, axiom, (p <=> q)).")
    rendered = {clause_to_str(c) for c in m.clauses}
    assert rendered == {"~p | q", "~q | p"}


def test_label_recorded_per_declaration():
    text = "cnf(c1, axiom, p).\nfof(f, axiom, (q & r)).\n"
    m = clausify_text(text)
    assert [c.label for c in m.clauses] == ["c1", "f", "f_1"]


def test_prepare_adds_neg_top_to_positive_clauses():
    m = prepare_matrix(clausify_text("cnf(c1, axiom, p).\ncnf(c2, axiom, ~p).\n"))
    assert m.clauses[0].literals[0] == NEG_TOP
    assert m.clauses[1].literals[0].predicate == "p"
    assert m.has_positive_start


def test_prepare_leaves_non_positive_matrices_alone():
    m = prepare_matrix(clausify_text("cnf(c1, axiom, ~p).\ncnf(c2, axiom, p | ~q).\n"))
    assert all(lit.predicate != TOP_PREDICATE for c in m.clauses for lit in c.literals)
    assert not m.has_positive_start


def test_prepare_marks_every_positive_clause():
    m = prepare_matrix(clausify_text("cnf(c1, axiom, p).\ncnf(c2, axiom, q | r).\n"))
    tops = [c.literals[0] == NEG_TOP for c in m.clauses]
    assert tops == [True, True]


def test_preparing_a_prepared_matrix_changes_nothing():
    """Prepared start clauses begin with ~$top, so they are not prepared again;
    whether a start clause exists follows from the clauses alone."""
    for problem in load_corpus(bundled_corpus_dir()):
        once = load_matrix(problem.path)
        for twice in (prepare_matrix(once), prepare_matrix(Matrix(once.clauses))):
            assert matrix_to_cnf(twice) == matrix_to_cnf(once), problem.name
            assert twice.index == once.index and twice.digest == once.digest
            assert twice.has_positive_start == once.has_positive_start
        assert once.has_positive_start == any(c.literals[0] == NEG_TOP for c in once.clauses)


def test_extension_index_soundness():
    text = """
cnf(c1, axiom, p(X) | ~q(X)).
cnf(c2, axiom, q(a) | r).
cnf(c3, axiom, ~p(b) | ~r).
"""
    m = prepare_matrix(clausify_text(text))
    # every literal is indexed under the complement of its own key, exactly once
    seen = {}
    for key, entries in m.index.items():
        for entry in entries:
            assert entry not in seen, "literal indexed twice"
            seen[entry] = key
    for ci, clause in enumerate(m.clauses):
        for li, lit in enumerate(clause.literals):
            assert seen[(ci, li)] == (lit.predicate, not lit.positive)
    # lookups only yield complements of the queried key
    for (pred, pol), entries in m.index.items():
        for ci, li in entries:
            lit = m.clauses[ci].literals[li]
            assert lit.predicate == pred and lit.positive == (not pol)


def test_equality_axioms_flag():
    text = "cnf(c1, axiom, f(a) = b).\ncnf(c2, axiom, ~p(b)).\n"
    m = clausify_text(text, add_equality_axioms=True)
    labels = [c.label for c in m.clauses]
    assert "eq_reflexive" in labels
    assert "eq_symmetric" in labels
    assert "eq_transitive" in labels
    assert "eq_congruence_f" in labels
    assert "eq_substitution_p" in labels
    # no axioms added when equality never occurs
    m2 = clausify_text("cnf(c1, axiom, p).\n", add_equality_axioms=True)
    assert len(m2.clauses) == 1
