"""Properties of the one term and literal grammar shared by cnf and fof.

A cnf clause and the universal closure of the same disjunction written as a
fof formula clausify to the same clause, and the canonical text that
`mcprover show` prints re-parses to the matrix it was printed from.
"""

import re

import pytest
from hypothesis import given, settings, strategies as st

from mcprover.cli import bundled_corpus_dir, load_corpus
from mcprover.clausify import ClausifyOptions, clausify, load_matrix, prepare_matrix
from mcprover.terms import App, FVar, Var, matrix_to_cnf, term_to_str
from mcprover.tptp import parse_problem

_LEAVES = st.sampled_from(["X", "Y", "Z", "a", "b"])


def _terms(depth):
    if depth == 0:
        return _LEAVES
    inner = _terms(depth - 1)
    return st.one_of(
        _LEAVES,
        st.builds("f({})".format, inner),
        st.builds("g({},{})".format, inner, inner),
    )


_TERM = _terms(2)
_ATOM = st.one_of(
    st.just("p"),
    st.builds("q({})".format, _TERM),
    st.builds("r({},{})".format, _TERM, _TERM),
    st.builds("{} = {}".format, _TERM, _TERM),
    st.builds("{} != {}".format, _TERM, _TERM),
)
_LITERAL = st.builds(lambda negations, atom: "~" * negations + atom, st.integers(0, 2), _ATOM)
_DISJUNCTION = st.lists(_LITERAL, min_size=1, max_size=3).map(" | ".join)


@settings(max_examples=300, deadline=None)
@given(_DISJUNCTION)
def test_cnf_clause_and_its_fof_closure_clausify_alike(disjunction):
    names = sorted(set(re.findall(r"[A-Z]\w*", disjunction)))
    closure = f"! [{','.join(names)}] : ({disjunction})" if names else f"({disjunction})"
    from_cnf = clausify(parse_problem(f"cnf(c, axiom, {disjunction}).")).clauses
    from_fof = clausify(parse_problem(f"fof(c, axiom, {closure}).")).clauses
    assert from_cnf == from_fof


@pytest.mark.parametrize("equality_axioms", [False, True])
def test_show_text_reparses_to_the_same_matrix(equality_axioms):
    options = ClausifyOptions(add_equality_axioms=equality_axioms)
    for info in load_corpus(bundled_corpus_dir()):
        matrix = load_matrix(info.path, options=options)
        text = matrix_to_cnf(matrix)
        again = prepare_matrix(clausify(parse_problem(text)))
        assert again.digest == matrix.digest, info.name
        assert matrix_to_cnf(again) == text, info.name


def test_term_nested_10000_deep_prints():
    depth = 10000
    term = Var(0)
    for _ in range(depth // 2):
        term = App("f", (App("s", (term,)), App("c")))
    expected = "f(s(" * (depth // 2) + "X" + "),c)" * (depth // 2)
    assert term_to_str(term, ("X",)) == expected


def test_term_printing_quotes_names_and_keeps_variable_names():
    term = App("Odd name", (FVar("Y"), Var(0), Var(3), App("a")))
    assert term_to_str(term, ("X",)) == "'Odd name'(Y,X,_3,a)"
