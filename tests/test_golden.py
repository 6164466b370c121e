"""Golden digests of `mcprover prove`, `mcprover train` and `mcprover show`
over the corpus, and of the `prove`, `train` and `bench` help texts.

Every search decision is deterministic for a fixed seed under an inference
budget, so the stdout report and the certificate of each run are fixed.
`golden_digests.txt` holds one sha256 per (configuration, problem) pair; a
change that alters any search decision, count or certificate shows up here.
The wall time goes to stderr and is not digested; the output paths printed
on stdout are replaced by a placeholder. Help texts are rendered 80 columns
wide, so they do not depend on the terminal.

Regenerate the file (only when an output change is intended) with

    PYTHONPATH=src python3 tests/test_golden.py
"""

import contextlib
import hashlib
import io
import os
import shutil
import sys
import tempfile

from mcprover.cli import bundled_corpus_dir, load_corpus, main

DIGEST_FILE = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden_digests.txt")

PROVE_CONFIGS = {
    "unguided": ["--engine", "mcts", "--max-inferences", "1500"],
    "bf": ["--engine", "mcts", "--sim-depth", "1", "--reward-ratio-weight", "0",
           "--max-inferences", "1500"],
    "deepening": ["--max-inferences", "3000"],
    "deepening-cut": ["--cut", "--max-inferences", "3000"],
    # {model} is the model file written by the `train corpus` run
    "guided": ["--engine", "mcts", "--sim-depth", "8", "--reward-ratio-weight", "0",
               "--weights", "rank", "--cp", "0.2", "--model", "{model}", "--max-inferences", "1500"],
    "best": ["--engine", "mcts", "--expansion", "best", "--max-inferences", "1500"],
}
TRAIN_ARGS = ["--max-inferences", "150000", "--timeout", "0"]
TRAIN_CONFIGS = {"corpus": [], "cut": ["--cut"]}
# Left out of the train digests only: deepening spends about 30 s (2-core host)
# on sat_chain's 150000 training inferences per run, and it is never solved, so
# leaving it out changes no model entry
SKIPPED = {"sat_chain"}
SHOW_CONFIGS = {"show": [], "show-eq": ["--equality-axioms"]}
HELP_COMMANDS = ("prove", "train", "bench")


def _run(argv, out_path, keep=False):
    """Exit code, stdout and the file written to `out_path`, as one digest.
    The file is removed afterwards unless `keep` is set."""
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(io.StringIO()):
        try:
            code = main(argv)
        except SystemExit as done:  # --help exits through argparse
            code = done.code
    digest = hashlib.sha256()
    digest.update(f"exit {code}\n".encode())
    digest.update(stdout.getvalue().replace(out_path, "<out>").encode())
    if os.path.exists(out_path):
        with open(out_path, "rb") as handle:
            digest.update(handle.read())
        if not keep:
            os.remove(out_path)
    return digest.hexdigest()


def compute_digests(workdir) -> dict:
    out_path = os.path.join(workdir, "out")
    # training comes first, since the guided proves read the corpus model
    corpus = os.path.join(workdir, "corpus")
    os.mkdir(corpus)
    for info in load_corpus(bundled_corpus_dir()):
        if info.name not in SKIPPED:
            shutil.copy(info.path, corpus)
    trained = {}
    for config, flags in TRAIN_CONFIGS.items():
        model = os.path.join(workdir, f"{config}.model")
        argv = ["train", corpus, *TRAIN_ARGS, *flags, "--model-out", model]
        trained[f"train {config}"] = _run(argv, model, keep=True)
    model = os.path.join(workdir, "corpus.model")
    digests = {}
    for info in load_corpus(bundled_corpus_dir()):
        for config, flags in PROVE_CONFIGS.items():
            flags = [flag.format(model=model) for flag in flags]
            argv = ["prove", info.path, "--timeout", "0", "--proof-out", out_path, *flags]
            digests[f"{config} {info.name}"] = _run(argv, out_path)
    for info in load_corpus(bundled_corpus_dir()):
        for config, flags in SHOW_CONFIGS.items():
            digests[f"{config} {info.name}"] = _run(["show", info.path, *flags], out_path)
    digests.update(trained)
    columns = os.environ.get("COLUMNS")
    os.environ["COLUMNS"] = "80"
    try:
        for command in HELP_COMMANDS:
            digests[f"help {command}"] = _run([command, "--help"], out_path)
    finally:
        if columns is None:
            del os.environ["COLUMNS"]
        else:
            os.environ["COLUMNS"] = columns
    return digests


def read_digests() -> dict:
    with open(DIGEST_FILE, encoding="utf-8") as handle:
        rows = [line.split() for line in handle if line.strip()]
    return {f"{config} {name}": value for config, name, value in rows}


def test_corpus_outputs_match_golden_digests(tmp_path):
    expected = read_digests()
    actual = compute_digests(str(tmp_path))
    assert sorted(actual) == sorted(expected)
    changed = [key for key in sorted(expected) if actual[key] != expected[key]]
    assert not changed, f"outputs changed for: {', '.join(changed)}"


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as workdir:
        digests = compute_digests(workdir)
    with open(DIGEST_FILE, "w", encoding="utf-8") as handle:
        for key, value in digests.items():
            handle.write(f"{key} {value}\n")
    print(f"wrote {len(digests)} digests to {DIGEST_FILE}", file=sys.stderr)
