import os
import subprocess
import sys

import pytest

import mcprover
from mcprover.checker import check_proof, parse_certificate
from mcprover.cli import (
    _ENGINE_FLAGS,
    _parse_config_spec,
    _setup_from_args,
    build_parser,
    bundled_corpus_dir,
    load_corpus,
    main,
)
from mcprover.clausify import clausify, prepare_matrix
from mcprover.tptp import load_problem
from mcprover.trainstore import Store


def corpus_file(name):
    return os.path.join(bundled_corpus_dir(), name)


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_corpus_annotations_present():
    problems = load_corpus(bundled_corpus_dir())
    assert len(problems) >= 50
    assert all(p.status in ("Theorem", "Satisfiable") for p in problems)
    assert all(p.depth_bound is not None for p in problems)


def test_prove_deepening_success(capsys, tmp_path):
    proof = tmp_path / "out.proof"
    code, out, err = run_cli(
        capsys, "prove", corpus_file("prop_unit.p"), "--proof-out", str(proof)
    )
    assert code == 0
    assert "outcome    : proof" in out
    assert "extensions : 2" in out
    assert "checker    : accepted" in out
    assert "wall time" in err and "wall time" not in out
    cert = parse_certificate(proof.read_text())
    matrix = prepare_matrix(clausify(load_problem(corpus_file("prop_unit.p"))))
    assert check_proof(matrix, cert).accepted


def test_prove_satisfiable_exits_one(capsys):
    code, out, _ = run_cli(
        capsys, "prove", corpus_file("sat_prop.p"), "--max-depth", "6"
    )
    assert code == 1
    assert "outcome    : saturated" in out


def test_prove_parse_error_exits_two(capsys, tmp_path):
    bad = tmp_path / "bad.p"
    bad.write_text("cnf(c1, axiom, p(X")
    code, _, err = run_cli(capsys, "prove", str(bad))
    assert code == 2
    assert "error" in err


def test_prove_keeps_shadowed_universal_variables_apart(capsys, tmp_path):
    problem = tmp_path / "shadowed.p"
    problem.write_text(
        "fof(a, axiom, (! [X] : p(X)) | (! [X] : q(X))).\n"
        "fof(b, axiom, ~p(a)).\nfof(c, axiom, ~q(b)).\n"
    )
    code, out, _ = run_cli(capsys, "prove", str(problem))
    assert code == 0
    assert "checker    : accepted" in out


@pytest.mark.parametrize("inner, e2", [
    ("! [X] : p(X,Y)", "! [Y] : (r(a,Y) => ~p(a,Y))"),
    ("? [X] : p(X,Y)", "! [Z,Y] : (r(Z,Y) => ~p(Z,Y))"),
])
def test_prove_finds_no_proof_when_an_inner_binder_shadows_a_skolem_argument(capsys, tmp_path, inner, e2):
    """Satisfiable over {a,b}: r = {(a,a),(b,b)}, q = {(a,a)}, p = {(a,b),(b,b)} for `!`, {(a,b)} for `?`."""
    problem = tmp_path / "shadowed_skolem.p"
    problem.write_text(
        f"fof(f, axiom, ! [X] : ? [Y] : (r(X,Y) & (q(X,Y) | {inner}))).\n"
        f"fof(e1, axiom, ! [Y] : (r(b,Y) => ~q(b,Y))).\nfof(e2, axiom, {e2}).\n"
    )
    code, out, _ = run_cli(capsys, "prove", str(problem))
    assert code == 1
    assert "outcome    : proof" not in out


def deep_term_problem(path, depth):
    """A cnf problem whose one proof unifies `X` with a term `depth` deep."""
    path.write_text(f"cnf(c1, axiom, p({'s(' * depth}c{')' * depth})).\ncnf(c2, axiom, ~p(X)).\n")
    return path


@pytest.mark.parametrize("engine", ["deepening", "mcts"])
@pytest.mark.parametrize("depth", [400, 800, 3000, 10000])
def test_prove_term_nested_deep(capsys, tmp_path, depth, engine):
    problem = deep_term_problem(tmp_path / "deep.p", depth)
    code, out, _ = run_cli(capsys, "prove", str(problem), "--engine", engine)
    assert code == 0
    assert "checker    : accepted" in out


def test_prove_fof_existential_over_a_term_10000_deep(capsys, tmp_path):
    depth = 10000
    problem = tmp_path / "deep.p"
    problem.write_text(
        f"fof(a, axiom, ? [X] : p(X, {'s(' * depth}c{')' * depth})).\n"
        "fof(g, conjecture, ? [X,Y] : p(X,Y)).\n"
    )
    code, out, _ = run_cli(capsys, "prove", str(problem))
    assert code == 0
    assert "checker    : accepted" in out


def test_show_of_show_is_identical_for_a_term_10000_deep(capsys, tmp_path):
    code, shown, _ = run_cli(capsys, "show", str(deep_term_problem(tmp_path / "deep.p", 10000)))
    assert code == 0
    again = tmp_path / "again.p"
    again.write_text(shown)
    code, reshown, _ = run_cli(capsys, "show", str(again))
    assert code == 0
    assert reshown == shown


def test_train_hashes_a_term_10000_deep_into_a_model(capsys, tmp_path):
    corpus = tmp_path / "corpus"
    corpus.mkdir()
    problem = deep_term_problem(corpus / "deep.p", 10000)
    model = tmp_path / "model.txt"
    code, out, _ = run_cli(capsys, "train", str(corpus), "--model-out", str(model))
    assert code == 0
    assert "solved 1/1" in out
    assert len(Store.load(str(model))) > 0
    code, out, _ = run_cli(capsys, "prove", str(problem), "--engine", "mcts", "--weights", "rank",
                           "--model", str(model))
    assert code == 0
    assert "checker    : accepted" in out


def implication_chain(depth):
    """`(p0 => (p1 => ... (p{depth-1} => q)))`, nested `depth` deep."""
    return "".join(f"(p{i} => " for i in range(depth)) + "q" + ")" * depth


DEEP_FORMULAS = {
    "parentheses-10000": ("(" * 10000 + "p" + ")" * 10000, "p"),
    # one positive operand, so both engines have a single start clause
    "conjunction-10000": ("(p & " + " & ".join(f"~q{i}" for i in range(1, 10000)) + ")", "p"),
    "negations-20000": ("~" * 20000 + "p", "p"),
    "universals-3000": ("".join(f"! [X{i}] : " for i in range(3000)) + "p(X2999)", "p(a)"),
}


@pytest.mark.parametrize("engine", ["deepening", "mcts"])
@pytest.mark.parametrize("shape", sorted(DEEP_FORMULAS))
def test_prove_formula_nested_deep(capsys, tmp_path, shape, engine):
    axiom, conjecture = DEEP_FORMULAS[shape]
    problem = tmp_path / "deep.p"
    problem.write_text(f"fof(a, axiom, {axiom}).\nfof(g, conjecture, {conjecture}).\n")
    limit = sys.getrecursionlimit()
    code, out, _ = run_cli(capsys, "prove", str(problem), "--engine", engine)
    assert code == 0
    assert "checker    : accepted" in out
    assert sys.getrecursionlimit() == limit


def test_prove_mcts_reports_are_deterministic(capsys):
    args = ("prove", corpus_file("fo_trans.p"), "--engine", "mcts", "--seed", "7")
    code_a, out_a, _ = run_cli(capsys, *args)
    code_b, out_b, _ = run_cli(capsys, *args)
    assert code_a == code_b == 0
    assert out_a == out_b
    assert "iterations" in out_a


@pytest.mark.parametrize("engine", ["deepening", "mcts"])
def test_inference_budget_is_reported_as_budget(capsys, engine):
    code, out, _ = run_cli(
        capsys, "prove", corpus_file("sat_chain.p"), "--engine", engine, "--max-inferences", "1000"
    )
    assert code == 1
    assert "outcome    : budget" in out
    assert "detail     : inferences" in out
    inferences = [line for line in out.splitlines() if line.startswith("inferences : ")]
    assert len(inferences) == 1 and int(inferences[0].split(":")[1]) >= 1000


_BOTTOMLESS = "cnf(s, axiom, p(c)).\ncnf(t, axiom, ~p(X) | p(f(X))).\ncnf(g, negated_conjecture, ~p(d)).\n"

# (problem, flags, the report lines after `problem`); a wall-clock stop prints no counters
REPORT_SHAPES = {
    "deepening-timeout": (None, ["--timeout", "0.3"],
                          ["engine     : deepening", "outcome    : timeout", "detail     : time"]),
    "mcts-timeout": (None, ["--engine", "mcts", "--timeout", "0.3"],
                     ["engine     : mcts", "outcome    : timeout", "detail     : time"]),
    "mcts-iterations": (None, ["--engine", "mcts", "--max-iterations", "50"],
                        ["engine     : mcts", "outcome    : budget", "detail     : iterations",
                         "inferences : 1051", "iterations : 50"]),
    "mcts-inferences": (None, ["--engine", "mcts", "--max-inferences", "100"],
                        ["engine     : mcts", "outcome    : budget", "detail     : inferences",
                         "inferences : 106", "iterations : 5"]),
    "deepening-inferences": (None, ["--max-inferences", "100"],
                             ["engine     : deepening", "outcome    : budget", "detail     : inferences",
                              "inferences : 101"]),
    "mcts-exhausted": ("sat_prop.p", ["--engine", "mcts"],
                       ["engine     : mcts", "outcome    : exhausted", "inferences : 2", "iterations : 2"]),
    "deepening-saturated": ("sat_prop.p", [],
                            ["engine     : deepening", "outcome    : saturated",
                             "detail     : exhausted at depth 1", "inferences : 2"]),
}


@pytest.mark.parametrize("case", sorted(REPORT_SHAPES))
def test_unsolved_report_shapes(capsys, tmp_path, case):
    name, flags, lines = REPORT_SHAPES[case]
    if name is None:
        name = "bottomless.p"
        (tmp_path / name).write_text(_BOTTOMLESS)
        path = str(tmp_path / name)
    else:
        path = corpus_file(name)
    code, out, err = run_cli(capsys, "prove", path, *flags)
    assert code == 1
    assert out.splitlines() == [f"problem    : {name}", *lines]
    assert err.startswith("wall time  : ")


def test_default_timeout_only_without_budget_flags(tmp_path):
    model = ["--model-out", str(tmp_path / "model.txt")]
    for argv in (["bench"], ["train", *model]):
        parse = lambda *extra: _setup_from_args(build_parser().parse_args(argv + list(extra)))  # noqa: E731
        assert parse().timeout == 5.0
        assert parse("--max-inferences", "100").timeout is None
        assert parse("--timeout", "2", "--max-inferences", "100").timeout == 2.0
        assert parse("--timeout", "0").timeout == 0.0
    assert _setup_from_args(build_parser().parse_args(["prove", "x.p"])).timeout is None


def test_train_writes_model_and_summary(capsys, tmp_path):
    model = tmp_path / "model.txt"
    corpus = tmp_path / "corpus"
    corpus.mkdir()
    for name in ("prop_unit.p", "prop_chain2.p", "sat_prop.p"):
        (corpus / name).write_text(open(corpus_file(name)).read())
    code, out, _ = run_cli(capsys, "train", str(corpus), "--model-out", str(model))
    assert code == 0
    assert "solved 2/3" in out
    store = Store.load(str(model))
    assert len(store) > 0


def test_train_shared_axioms_merge(capsys, tmp_path):
    # two problems sharing the same axiom clause: counts sum in the model
    a = tmp_path / "a.p"
    b = tmp_path / "b.p"
    a.write_text("cnf(c1, axiom, p).\ncnf(c2, axiom, ~p).\n")
    b.write_text("cnf(c1, axiom, p).\ncnf(c2, axiom, ~p).\ncnf(c3, axiom, r | ~p).\n")
    model = tmp_path / "model.txt"
    code, _, _ = run_cli(capsys, "train", str(tmp_path), "--model-out", str(model))
    assert code == 0
    store = Store.load(str(model))
    assert max(stats.p for stats in store.entries.values()) >= 2


def test_bench_unique_sets(capsys, tmp_path):
    corpus = tmp_path / "corpus"
    corpus.mkdir()
    for name in ("prop_unit.p", "hard_maze14.p", "sat_fo.p"):
        (corpus / name).write_text(open(corpus_file(name)).read())
    machine = tmp_path / "bench.tsv"
    code, out, _ = run_cli(
        capsys,
        "bench",
        str(corpus),
        "--timeout", "2",
        "--config", "deep=engine:deepening",
        "--config", "bf=engine:mcts,sim_depth:1,reward_ratio_weight:0,max_iterations:2000",
        "--machine-out", str(machine),
    )
    assert code == 0
    assert "config deep: solved 2/3, unique 1" in out
    assert "config bf: solved 1/3" in out
    lines = machine.read_text().splitlines()
    assert lines[0].startswith("problem\tconfig")
    body = [l.split("\t")[:2] for l in lines[1:]]
    assert body == sorted(body)


def test_tsp_command_matches_brute_force(capsys):
    code, out, _ = run_cli(
        capsys, "tsp", "--random", "5", "--instance-seed", "4",
        "--iterations", "4000", "--brute-force",
    )
    assert code == 0
    assert "matched    : yes" in out


def test_tsp_command_solves_one_city(capsys):
    code, out, _ = run_cli(capsys, "tsp", "--random", "1", "--brute-force")
    assert code == 0
    assert "matched    : yes" in out


def test_tsp_instance_file(capsys, tmp_path):
    from mcprover.tsp import TspInstance

    inst = tmp_path / "inst.txt"
    inst.write_text(TspInstance.random(4, seed=2).dump())
    code, out, _ = run_cli(capsys, "tsp", "--instance", str(inst), "--iterations", "500", "--brute-force")
    assert code == 0
    assert "best tour" in out


def test_show_prints_prepared_matrix(capsys):
    code, out, _ = run_cli(capsys, "show", corpus_file("prop_unit.p"))
    assert code == 0
    assert "~$top | p" in out


@pytest.mark.parametrize("item", [
    "banana:1", "weights:bogus", "engine:bogus", "expansion:zzz", "cut:maybe", "ratio_weight:0.2",
])
def test_bench_rejects_unknown_config_key(capsys, tmp_path, item):
    corpus = tmp_path / "c"
    corpus.mkdir()
    (corpus / "x.p").write_text("cnf(c1, axiom, p).\ncnf(c2, axiom, ~p).\n")
    code, _, err = run_cli(capsys, "bench", str(corpus), "--config", f"z={item}")
    assert code == 2
    assert item.partition(":")[0] in err


@pytest.mark.parametrize("flag, kwargs", _ENGINE_FLAGS, ids=[flag for flag, _ in _ENGINE_FLAGS])
def test_config_key_matches_engine_flag(flag, kwargs):
    """`key:value` in a bench config sets what the flag sets on the command line."""
    base = ["bench", "--cp-period", "3"]  # a period makes any --cp-amp valid
    if "action" in kwargs:
        value, argv = "true", [flag]
    elif "choices" in kwargs:
        value = kwargs["choices"][-1]
        argv = [flag, value]
    else:
        value = {int: "3", float: "0.25"}.get(kwargs.get("type"), "model.txt")
        argv = [flag, value]
    expected = _setup_from_args(build_parser().parse_args(base + argv))
    for key in (flag[2:], flag[2:].replace("-", "_")):
        parsed = _parse_config_spec(f"x={key}:{value}", build_parser().parse_args(base))
        assert parsed == ("x", expected)


def test_config_switch_false_sets_the_opposite():
    base = build_parser().parse_args(["bench", "--cut"])
    assert _parse_config_spec("x=cut:false", base)[1].cut is False
    assert _parse_config_spec("x=no_cut:false", base)[1].cut is True
    assert _parse_config_spec("x=no-regularity:TRUE", base)[1].regularity is False


# inputs that must end in exit code 2 and a single `error:` line
EXIT_TWO_CASES = {
    "mcts-cp-zero": ["prove", "{problem}", "--engine", "mcts", "--cp", "0"],
    "depth-start-zero": ["prove", "{problem}", "--depth-start", "0"],
    "ratio-weight-above-one": ["prove", "{problem}", "--reward-ratio-weight", "2"],
    "reduction-weight-zero": ["prove", "{problem}", "--engine", "mcts", "--reduction-weight", "0"],
    "malformed-model": ["prove", "{problem}", "--engine", "mcts", "--model", "{bad_model}"],
    "cnf-cutoff": ["prove", "{implications}"],
    "proof-out-missing-dir": ["prove", "{problem}", "--proof-out", "{missing}/p"],
    "bench-missing-corpus": ["bench", "{missing}"],
    "bench-empty-corpus": ["bench", "{empty}"],
    "bench-missing-model": ["bench", "{corpus}", "--model", "{missing}/model.txt"],
    "bench-machine-out-missing-dir": ["bench", "{corpus}", "--machine-out", "{missing}/b.tsv"],
    "train-out-missing-dir": ["train", "{corpus}", "--model-out", "{missing}/m.txt"],
    "tsp-brute-force-too-large": ["tsp", "--random", "12", "--brute-force"],
    "tsp-no-cities": ["tsp", "--random", "0"],
    "max-inferences-negative": ["prove", "{problem}", "--max-inferences", "-5"],
    "timeout-negative": ["prove", "{problem}", "--timeout", "-1"],
    "max-iterations-negative": ["prove", "{problem}", "--engine", "mcts", "--max-iterations", "-2"],
    "bench-max-inferences-negative": ["bench", "{corpus}", "--config", "x=max_inferences:-1"],
    "tsp-iterations-zero": ["tsp", "--iterations", "0"],
    "tsp-iterations-negative": ["tsp", "--iterations", "-5"],
    "cnf-negated-top": ["prove", "{negated_top}"],
    "cnf-satisfiable-through-top": ["prove", "{top_clause}"],
    "fof-quoted-top": ["prove", "{quoted_top}", "--engine", "mcts"],
    "timeout-nan": ["prove", "{problem}", "--engine", "mcts", "--timeout", "nan"],
    "timeout-inf": ["prove", "{problem}", "--timeout", "inf"],
    "cp-nan": ["prove", "{problem}", "--engine", "mcts", "--cp", "nan"],
    "cp-inf": ["prove", "{problem}", "--engine", "mcts", "--cp", "inf"],
    "reduction-weight-nan": ["prove", "{problem}", "--engine", "mcts", "--reduction-weight", "nan"],
    "reward-ratio-weight-nan": ["prove", "{problem}", "--engine", "mcts", "--reward-ratio-weight", "nan"],
    "cert-d-nan": ["prove", "{problem}", "--engine", "mcts", "--cert-d", "nan"],
    "cert-d-inf": ["prove", "{problem}", "--engine", "mcts", "--cert-d", "inf"],
    "cp-amp-nan": ["prove", "{problem}", "--engine", "mcts", "--cp-amp", "nan", "--cp-period", "5"],
    "cp-period-inf": ["prove", "{problem}", "--engine", "mcts", "--cp-amp", "0.1", "--cp-period", "inf"],
    "bench-timeout-nan": ["bench", "{corpus}", "--config", "x=timeout:nan"],
    "bench-config-name-repeated": ["bench", "{corpus}", "--config", "a=engine:mcts", "--config", "a=engine:deepening"],
    "bench-config-name-empty": ["bench", "{corpus}", "--config", "=engine:mcts"],
    "model-key-repeated": ["prove", "{problem}", "--engine", "mcts", "--model", "{repeated_model}"],
    "tsp-cp-nan": ["tsp", "--cp", "nan"],
    "max-depth-below-start": ["prove", "{problem}", "--depth-start", "16", "--max-depth", "2"],
    "max-depth-zero": ["prove", "{problem}", "--max-depth", "0"],
}
SUBPROCESS_CASE = "bench-missing-corpus"  # also covers the `python -m` entry point


@pytest.mark.parametrize("case", sorted(EXIT_TWO_CASES))
def test_bad_input_exits_two_with_one_error_line(capsys, tmp_path, case):
    corpus = tmp_path / "corpus"
    corpus.mkdir()
    (corpus / "prop_unit.p").write_text(open(corpus_file("prop_unit.p")).read())
    (tmp_path / "empty").mkdir()
    bad_model = tmp_path / "bad_model.txt"
    bad_model.write_text("not a model\n")
    repeated_model = tmp_path / "repeated_model.txt"
    repeated_model.write_text("0000000000000001 0000000000000002 3 4\n0000000000000001 0000000000000002 5 6\n")
    implications = tmp_path / "implications.p"  # one clause of 10001 literals
    implications.write_text(f"fof(a, axiom, {implication_chain(10000)}).\nfof(g, conjecture, p0).\n")
    negated_top = tmp_path / "negated_top.p"  # proved by mcts before $top was reserved
    negated_top.write_text("cnf(a, axiom, ~$top).\n")
    top_clause = tmp_path / "top_clause.p"  # satisfiable, yet proved by deepening
    top_clause.write_text("cnf(a, axiom, p).\ncnf(b, axiom, ~p | ~$top).\n")
    quoted_top = tmp_path / "quoted_top.p"
    quoted_top.write_text("fof(a, axiom, p).\nfof(b, axiom, ~p | ~'$top').\n")
    places = dict(problem=corpus_file("prop_unit.p"), corpus=corpus, bad_model=bad_model, repeated_model=repeated_model,
                  implications=implications, missing=tmp_path / "missing", empty=tmp_path / "empty",
                  negated_top=negated_top, top_clause=top_clause, quoted_top=quoted_top)
    argv = [arg.format(**places) for arg in EXIT_TWO_CASES[case]]
    if case == SUBPROCESS_CASE:
        src = os.path.dirname(os.path.dirname(os.path.abspath(mcprover.__file__)))
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        done = subprocess.run([sys.executable, "-m", "mcprover.cli", *argv],
                              env=env, capture_output=True, text=True)
        code, out, err = done.returncode, done.stdout, done.stderr
    else:
        code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert out == ""  # the error comes before any work is reported
    assert "Traceback" not in err
    errors = [line for line in err.splitlines() if line.startswith("error:")]
    assert len(errors) == 1
    if case == "malformed-model":
        assert bad_model.name in errors[0]
    if case == "model-key-repeated":
        assert repeated_model.name in errors[0] and "line 2" in errors[0]
    if case == "cnf-cutoff":
        assert "literal cutoff" in errors[0] and "4096" in errors[0]


def test_long_chain_proves_without_raising_recursion_limit(capsys, tmp_path):
    """A proof 10000 extensions deep: p0, ~p_i | p_{i+1}, ~p_10000."""
    steps = 10000
    problem = tmp_path / "chain.p"
    lines = ["cnf(c0, axiom, p0)."]
    lines += [f"cnf(c{i + 1}, axiom, ~p{i} | p{i + 1})." for i in range(steps)]
    lines.append(f"cnf(goal, negated_conjecture, ~p{steps}).")
    problem.write_text("\n".join(lines) + "\n")
    limit = sys.getrecursionlimit()
    code, out, _ = run_cli(capsys, "prove", str(problem), "--depth-start", str(steps + 1))
    assert code == 0
    assert "outcome    : proof" in out
    assert sys.getrecursionlimit() == limit


def test_model_hash_stability_across_processes(tmp_path, capsys):
    """A fresh interpreter (different hash seed) writes the same model file."""
    corpus = tmp_path / "corpus"
    corpus.mkdir()
    for name in ("prop_chain3.p", "fo_trans.p", "fof_socrates.p"):
        (corpus / name).write_text(open(corpus_file(name)).read())
    inner = tmp_path / "inner.txt"
    outer = tmp_path / "outer.txt"
    code, _, _ = run_cli(
        capsys, "train", str(corpus), "--model-out", str(inner), "--max-inferences", "100000"
    )
    assert code == 0
    env = dict(os.environ, PYTHONHASHSEED="12345")
    subprocess.run(
        [sys.executable, "-m", "mcprover.cli", "train", str(corpus),
         "--model-out", str(outer), "--max-inferences", "100000"],
        check=True, env=env, capture_output=True,
    )
    assert inner.read_bytes() == outer.read_bytes()
