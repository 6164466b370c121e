import os

import pytest

from mcprover.checker import check_proof, parse_certificate
from mcprover.cli import _setup_from_args, build_parser, bundled_corpus_dir, load_corpus, main
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


def test_bench_rejects_unknown_config_key(capsys, tmp_path):
    corpus = tmp_path / "c"
    corpus.mkdir()
    (corpus / "x.p").write_text("cnf(c1, axiom, p).\ncnf(c2, axiom, ~p).\n")
    code, _, err = run_cli(capsys, "bench", str(corpus), "--config", "z=banana:1")
    assert code == 2
    assert "banana" in err


def test_model_hash_stability_across_processes(tmp_path, capsys):
    """A fresh interpreter (different hash seed) writes the same model file."""
    import subprocess
    import sys

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
