import re

import pytest

from mcprover.formulas import Binary, Quant
from mcprover.terms import App, EQ_PREDICATE, Literal, Var
from mcprover.tptp import FofDecl, ParseError, load_problem, parse_problem
from oracles import print_problem


def test_cnf_clause_literals():
    problem = parse_problem("cnf(c1, axiom, p(X) | ~q(a)).")
    clause = problem.declarations[0].clause
    assert clause.literals == (
        Literal(True, "p", (Var(0),)),
        Literal(False, "q", (App("a"),)),
    )
    assert clause.var_names == ("X",)


def test_conjecture_role_kept_for_clausifier():
    problem = parse_problem("fof(c, conjecture, p).")
    decl = problem.declarations[0]
    assert isinstance(decl, FofDecl)
    assert decl.role == "conjecture"


def test_syntax_error_reports_position():
    with pytest.raises(ParseError) as err:
        parse_problem("cnf(c1, axiom, p(X")
    assert err.value.line == 1
    assert err.value.col >= 15


def test_unresolved_include():
    with pytest.raises(ParseError, match="include"):
        parse_problem("include('nowhere.ax').")


def test_include_resolution(tmp_path):
    (tmp_path / "ax.ax").write_text("cnf(a1, axiom, p).\n")
    main = tmp_path / "main.p"
    # an include listed twice is read once
    main.write_text("include('ax.ax').\ninclude('ax.ax').\ncnf(goal, negated_conjecture, ~p).\n")
    problem = load_problem(str(main))
    assert [d.name for d in problem.declarations] == ["a1", "goal"]
    assert problem.declarations[0].clause.label == "a1"


def test_file_that_is_not_utf8_is_named(tmp_path):
    (tmp_path / "ax.ax").write_bytes(b"cnf(a1, axiom, p).\n% \xff\n")
    main = tmp_path / "main.p"
    main.write_text("include('ax.ax').\ncnf(goal, negated_conjecture, ~p).\n")
    for path, named in ((main, tmp_path / "ax.ax"), (tmp_path / "ax.ax", tmp_path / "ax.ax")):
        with pytest.raises(ParseError, match=re.escape(f"{named}: not UTF-8 text (invalid start byte at byte 21)")):
            load_problem(str(path))


def test_equality_literals_parse_infix():
    problem = parse_problem("cnf(c1, axiom, a = b | f(X) != g(X)).")
    lits = problem.declarations[0].clause.literals
    assert lits[0] == Literal(True, EQ_PREDICATE, (App("a"), App("b")))
    assert lits[1].positive is False
    assert lits[1].predicate == EQ_PREDICATE


def test_fof_connectives_and_quantifiers():
    problem = parse_problem("fof(f, axiom, ! [X,Y] : (p(X) => (q(Y) <=> r))).")
    f = problem.declarations[0].formula
    assert isinstance(f, Quant) and f.kind == "!" and f.var == "X"
    assert isinstance(f.body, Quant) and f.body.var == "Y"
    inner = f.body.body
    assert isinstance(inner, Binary) and inner.op == "=>"
    assert isinstance(inner.right, Binary) and inner.right.op == "<=>"


def test_mixed_connectives_need_parens():
    with pytest.raises(ParseError):
        parse_problem("fof(f, axiom, p & q | r).")


def test_free_variables_rejected():
    with pytest.raises(ParseError, match="free"):
        parse_problem("fof(f, axiom, p(X)).")


def test_negated_equality_in_fof():
    problem = parse_problem("fof(f, axiom, a != b).")
    f = problem.declarations[0].formula
    assert f == Literal(False, EQ_PREDICATE, (App("a"), App("b")))


@pytest.mark.parametrize(
    "text",
    [
        "cnf(c1, axiom, p(X) | ~q(a)).\n",
        "cnf(c1, axiom, f(g(X),Y) = g(X) | ~p).\n",
        "fof(f, axiom, ! [X] : (p(X) => (? [Y] : q(X,Y)))).\n",
        "fof(f, conjecture, ((p => q) <=> (~q => ~p))).\n",
        "fof(f, axiom, ! [X,Y] : r(X,Y)).\n",
        "fof(f, axiom, (~a = b & ~~c != d)).\n",
    ],
)
def test_print_parse_round_trip(text):
    problem = parse_problem(text)
    printed = print_problem(problem)
    again = parse_problem(printed)
    assert again.declarations == problem.declarations
    # canonical text is a fixed point
    assert print_problem(again) == printed


def test_comments_and_quoted_atoms():
    text = """
% a comment
/* block
   comment */
cnf(c1, axiom, 'odd atom'(X) | p).
cnf(c2, axiom, ('it\\'s' | q)).
"""
    problem = parse_problem(text)
    assert problem.declarations[0].clause.literals[0].predicate == "odd atom"
    # an escaped quote, in a cnf clause written in parentheses
    assert problem.declarations[1].clause.literals == (Literal(True, "it's", ()), Literal(True, "q", ()))


@pytest.mark.parametrize("text, message", [
    ("cnf(c, axiom, p). /* open", "line 1, column 19: unterminated block comment"),
    ("cnf(c, axiom, 'open).", "line 1, column 15: unterminated quoted atom"),
    ("cnf(c, axiom, p # q).", "line 1, column 17: unexpected character '#'"),
    ("thf(c, axiom, p).", "line 1, column 1: expected cnf, fof or include, found 'thf'"),
    ("include().", "line 1, column 9: expected file name"),
    ("cnf(, axiom, p).", "line 1, column 5: expected formula name"),
    ("cnf(c, , p).", "line 1, column 8: expected formula role"),
    ("cnf(c, axiom, p(a, |)).", "line 1, column 20: expected a term, found '|'"),
    ("fof(f, axiom, a => b => c).", "line 1, column 22: non-associative connective needs parentheses"),
    ("fof(f, axiom, ! [a] : p(a)).", "line 1, column 18: expected a variable"),
])
def test_reader_errors_name_their_place(text, message):
    with pytest.raises(ParseError) as err:
        parse_problem(text)
    assert str(err.value) == message


@pytest.mark.parametrize("text, col", [
    ("cnf(a, axiom, ~$top).", 16),
    ("cnf(b, axiom, ~p | ~$top(X)).", 21),
    ("cnf(c, axiom, $top | p).", 15),
    ("cnf(d, axiom, ~$top | ~$top | p).", 24),
    ("cnf(e, axiom, ~$top | p | ~q).", 16),
    ("fof(b, axiom, ~p | ~'$top').", 21),
    ("fof(c, axiom, ~$top | p).", 16),
])
def test_reserved_start_predicate_rejected(text, col):
    """$top is the start literal's predicate; an input literal on it could
    close the start clause, so it is refused at its position."""
    with pytest.raises(ParseError, match=r"\$top") as err:
        parse_problem(text)
    assert (err.value.line, err.value.col) == (1, col)


@pytest.mark.parametrize("text, predicate, col", [
    ("cnf(a, axiom, $false).", "$false", 15),
    ("fof(c, conjecture, $true).", "$true", 20),
    ("cnf(b, axiom, p | ~'$true').", "$true", 20),
    ("fof(d, axiom, ! [X] : (p(X) => $distinct(X, a))).", "$distinct", 32),
])
def test_defined_predicates_rejected(text, predicate, col):
    """A defined predicate read as an ordinary one would make $false
    satisfiable and $true unprovable, so each is refused at its position."""
    with pytest.raises(ParseError, match=re.escape(f"predicate {predicate} is a defined predicate")) as err:
        parse_problem(text)
    assert (err.value.line, err.value.col) == (1, col)


def test_start_marker_printed_by_show_is_read_back():
    """`show` prints `~$top |` before a start clause's literals; reading it
    gives the clause without the marker, which prepare_matrix marks again."""
    clause = parse_problem("cnf(c1, axiom, ~'$top' | p(X) | q).").declarations[0].clause
    assert clause.literals == (Literal(True, "p", (Var(0),)), Literal(True, "q"))


def test_variable_token_is_not_a_literal():
    with pytest.raises(ParseError):
        parse_problem("cnf(c1, axiom, X).")


def test_quantifier_runs_collapse_in_printing():
    text = "fof(f, axiom, ! [X,Y] : (? [Z] : r(X,Y,Z))).\n"
    problem = parse_problem(text)
    assert print_problem(problem) == text


@pytest.mark.parametrize("formula", [
    "~" * 20000 + "p",
    "".join(f"(p{i} => " for i in range(10000)) + "q" + ")" * 10000,
], ids=["negations-20000", "implications-10000"])
def test_deep_formulas_print_as_a_fixed_point(formula):
    # only the text is compared: the formulas' generated `==` recurses. Runs
    # of `!` and redundant parentheses collapse in printing, so they do not
    # reach the printer's depth.
    text = f"fof(f, axiom, {formula}).\n"
    assert print_problem(parse_problem(text)) == text


def _canonical_text(text):
    import re

    text = re.sub(r"%[^\n]*", "", text)
    return re.sub(r"\s+", "", text)


def test_bundled_corpus_round_trips_textually():
    from mcprover.cli import bundled_corpus_dir, load_corpus

    for info in load_corpus(bundled_corpus_dir()):
        original = open(info.path, encoding="utf-8").read()
        problem = parse_problem(original, path=info.path)
        printed = print_problem(problem)
        assert _canonical_text(printed) == _canonical_text(original), info.name
        assert parse_problem(printed).declarations == problem.declarations, info.name
