"""Command-line interface: proving, training, benchmarking, TSP validation.

Exit codes for `prove`: 0 proof found and verified, 1 no proof, 2 error.
Reports go to stdout and are deterministic for a fixed seed; wall-clock times
go to stderr (and to the bench tables) so repeated runs stay byte-identical.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
import time
from dataclasses import asdict, dataclass, field, fields

from . import mcts
from .calculus import CalculusOptions
from .checker import certificate_for, check_proof, format_certificate
from .clausify import ClausifyError, ClausifyOptions, load_matrix
from .deepening import DeepeningOptions, Proof, Saturated, prove_iterative
from .guidance import COMBINERS, ProvabilityModel, RewardConfig, SimulationWeights, WEIGHT_POLICIES
from .proving import ConnectionGame
from .terms import Matrix, matrix_to_cnf
from .tptp import ParseError
from .trainstore import Store, StoreFormatError
from .tsp import TspGame, TspInstance, WEIGHT_READINGS, brute_force_optimum


def bundled_corpus_dir() -> str:
    return os.path.join(os.path.dirname(os.path.abspath(__file__)), "corpus")


# --- corpus -----------------------------------------------------------------

@dataclass
class CorpusProblem:
    path: str
    name: str


def load_corpus(directory: str) -> list:
    """The .p problems under `directory`, by name; ValueError if none."""
    problems = [CorpusProblem(os.path.join(directory, entry), entry[:-2])
                for entry in sorted(os.listdir(directory)) if entry.endswith(".p")]
    if not problems:
        raise ValueError(f"no .p problems under {directory}")
    return problems


# --- engine setup -----------------------------------------------------------

@dataclass
class EngineSetup:
    """One engine configuration; the fields are the dests of `_ENGINE_FLAGS`."""

    engine: str = "deepening"
    timeout: float | None = None
    max_inferences: int | None = None
    # deepening
    depth_start: int = 1
    depth_increment: int = 1
    max_depth: int | None = None
    cut: bool = False
    # calculus
    regularity: bool = True
    lemmas: bool = True
    # mcts
    seed: int = 0
    cp: float = mcts.SearchConfig.cp_base
    cp_amp: float = 0.0
    cp_period: float = 0.0
    sim_depth: int = 20
    expansion: str = "first"
    max_iterations: int | None = None
    # guidance
    weights: str = "constant"
    reduction_weight: float = 1.0
    reward_ratio_weight: float = 0.5
    combiner: str = "geometric"
    cert_c: float = 1.0
    cert_d: float = 2.0
    raw_ratio: bool = False
    model: str | None = None

    def __post_init__(self):
        # an out-of-range value fails here, before any problem is searched
        for name in ("timeout", "max_inferences", "max_iterations"):
            value = getattr(self, name)
            if value is not None and not 0 <= value < math.inf:
                raise ValueError(f"{name.replace('_', '-')} must be finite and not negative, got {value}")
        self.deepening_options()
        self.search_config()
        self.simulation_weights()
        self.reward_config()

    def calculus_options(self) -> CalculusOptions:
        return CalculusOptions(regularity=self.regularity, lemmas=self.lemmas)

    def deepening_options(self, collect_training: bool = False) -> DeepeningOptions:
        return DeepeningOptions(
            start_depth=self.depth_start,
            increment=self.depth_increment,
            max_depth=self.max_depth,
            cut=self.cut,
            time_budget=self.timeout,
            inference_budget=self.max_inferences,
            collect_training=collect_training,
            calculus=self.calculus_options(),
        )

    def search_config(self) -> mcts.SearchConfig:
        return mcts.SearchConfig(
            cp_base=self.cp,
            cp_amplitude=self.cp_amp,
            cp_period=self.cp_period,
            max_sim_depth=self.sim_depth,
            max_iterations=self.max_iterations,
            time_budget=self.timeout,
            expansion=self.expansion,
            seed=self.seed,
        )

    def simulation_weights(self) -> SimulationWeights:
        return SimulationWeights(self.weights, self.reduction_weight)

    def reward_config(self) -> RewardConfig:
        return RewardConfig.with_ratio_weight(
            self.reward_ratio_weight,
            combiner=self.combiner,
            certainty_c=self.cert_c,
            certainty_d=self.cert_d,
            raw_ratio=self.raw_ratio,
        )

    def game(self, matrix: Matrix, model: ProvabilityModel | None) -> ConnectionGame:
        return ConnectionGame(
            matrix,
            calculus=self.calculus_options(),
            weights=self.simulation_weights(),
            reward=self.reward_config(),
            model=model,
        )


@dataclass
class RunReport:
    problem: str
    engine: str
    outcome: str = ""     # proof | saturated | exhausted | timeout | budget
    wall_time: float = 0.0
    extensions: int | None = None        # along the certificate path
    reductions: int | None = None
    total_inferences: int | None = None  # extension successors charged to the budget
    iterations: int | None = None        # mcts only
    certificate: str = ""
    checker: str = ""
    events: list = field(default_factory=list)
    detail: str = ""

    @property
    def solved(self) -> bool:
        return self.outcome == "proof"


def run_engine(matrix: Matrix, setup: EngineSetup, problem_name: str,
               model: ProvabilityModel | None = None,
               collect_training: bool = False) -> RunReport:
    """Search `matrix` with `setup`'s engine and report how the search ended.

    Deepening ends in `proof`, `saturated`, `budget` (detail `inferences`) or
    `timeout`; MCTS in `proof`, `exhausted`, `budget` (detail `inferences` or
    `iterations`) or `timeout`. A timeout reports neither the inference count
    nor the iterations, which a wall-clock stop makes vary from run to run.
    A proof is replayed by the checker, after the wall time is read.
    """
    report = RunReport(problem_name, setup.engine)
    found = None  # (final state, certificate) of a proof
    started = time.monotonic()
    if setup.engine == "deepening":
        result = prove_iterative(matrix, setup.deepening_options(collect_training))
        report.total_inferences = result.stats.extension_inferences
        outcome = result.outcome
        if isinstance(outcome, Proof):
            found = outcome.final_state, outcome.certificate
            report.events = result.events
        elif isinstance(outcome, Saturated):
            report.outcome = "saturated"
            report.detail = outcome.reason or f"exhausted at depth {outcome.depth}"
        else:
            report.outcome = "budget" if outcome.reason == "inferences" else "timeout"
            report.detail = outcome.reason
    else:
        game = setup.game(matrix, model)
        stop = None
        if setup.max_inferences is not None:
            cap = setup.max_inferences
            stop = lambda: game.extension_inferences >= cap  # noqa: E731
        result = mcts.run(game, setup.search_config(), stop=stop)
        report.total_inferences = game.extension_inferences
        report.iterations = result.stats.iterations
        outcome = result.outcome
        if isinstance(outcome, mcts.Solution):
            found = outcome.final_state, certificate_for(outcome.final_state, matrix)
        elif isinstance(outcome, mcts.Exhausted):
            report.outcome = "exhausted"
        else:
            report.outcome = "timeout" if outcome.reason == "time" else "budget"
            # the only stop condition run_engine installs is the inference cap
            report.detail = "inferences" if outcome.reason == "stopped" else outcome.reason
    report.wall_time = time.monotonic() - started

    if report.outcome == "timeout":  # volatile under wall-clock budgets
        report.total_inferences = report.iterations = None
    if found:
        final, certificate = found
        report.outcome = "proof"
        report.extensions = final.extensions
        report.reductions = final.reductions
        verdict = check_proof(matrix, certificate)
        report.checker = "accepted" if verdict.accepted else f"rejected: {verdict.reason}"
        report.certificate = format_certificate(certificate)
    return report


def print_report(report: RunReport):
    print(f"problem    : {report.problem}")
    print(f"engine     : {report.engine}")
    print(f"outcome    : {report.outcome}")
    if report.detail:
        print(f"detail     : {report.detail}")
    if report.extensions is not None:
        print(f"extensions : {report.extensions}")
        print(f"reductions : {report.reductions}")
    if report.total_inferences is not None:
        print(f"inferences : {report.total_inferences}")
    if report.iterations is not None:
        print(f"iterations : {report.iterations}")
    if report.checker:
        print(f"checker    : {report.checker}")


# --- subcommands ------------------------------------------------------------

def _load_matrix(path: str, args) -> Matrix:
    options = ClausifyOptions(add_equality_axioms=args.equality_axioms)
    return load_matrix(path, tuple(args.include_dir or ()), options)


def _check_output_path(path: str | None):
    """Fail before any work when `path` could not be written afterwards."""
    directory = os.path.dirname(path or "") or "."
    if path and os.path.isdir(path):
        raise OSError(f"cannot write {path}: it is a directory")
    if path and not (os.path.isdir(directory) and os.access(directory, os.W_OK)):
        raise OSError(f"cannot write {path}: {directory} is not a writable directory")


def _setup_from_args(args, **overrides) -> EngineSetup:
    values = {f.name: getattr(args, f.name) for f in fields(EngineSetup)} | overrides
    # train and bench default to 5 s without any budget flag
    if values["timeout"] is None and values["max_inferences"] is None:
        values["timeout"] = args.default_timeout
    return EngineSetup(**values)


def cmd_prove(args) -> int:
    _check_output_path(args.proof_out)
    matrix = _load_matrix(args.problem, args)
    setup = _setup_from_args(args)
    model = ProvabilityModel.load(setup.model) if setup.model else None
    report = run_engine(matrix, setup, os.path.basename(args.problem), model=model)
    print_report(report)
    print(f"wall time  : {report.wall_time:.3f}s", file=sys.stderr)
    if report.solved:
        if report.checker != "accepted":
            print("error: emitted certificate was rejected by the checker", file=sys.stderr)
            return 2
        if args.proof_out:
            with open(args.proof_out, "w", encoding="utf-8") as handle:
                handle.write(report.certificate)
            print(f"certificate: {args.proof_out}")
        return 0
    return 1


def _loaded(problems: list, args):
    """(problem, matrix) for each corpus problem that loads; a warning names
    each one that does not."""
    for info in problems:
        try:
            matrix = _load_matrix(info.path, args)
        except (ParseError, ClausifyError, OSError) as err:
            print(f"warning: skipping {info.name}: {err}", file=sys.stderr)
            continue
        yield info, matrix


def cmd_train(args) -> int:
    if args.engine != "deepening":  # training events come from deepening proofs
        raise ValueError(f"train runs the deepening engine only, not {args.engine}")
    _check_output_path(args.model_out)
    problems = load_corpus(args.corpus)
    setup = _setup_from_args(args)
    store = Store()
    solved = 0
    for info, matrix in _loaded(problems, args):
        report = run_engine(matrix, setup, info.name, collect_training=True)
        if report.solved:
            solved += 1
            store.record_events(report.events)
        if args.verbose:
            print(f"  {info.name}: {report.outcome}")
    store.persist(args.model_out)
    print(f"solved {solved}/{len(problems)} problems")
    print(f"model entries: {len(store)}")
    print(f"model written to {args.model_out}")
    return 0


_BOOLEANS = {"1": True, "true": True, "yes": True, "on": True,
             "0": False, "false": False, "no": False, "off": False}


def _config_value(key: str, text: str, row: dict):
    """`text` read as the value of the key's flag row. A switch takes true,
    which sets what its flag sets, or false, which sets the opposite."""
    action = row.get("action")
    try:
        if action in ("store_true", "store_false"):
            return _BOOLEANS[text.lower()] == (action == "store_true")
        value = row.get("type", str)(text)
        if "choices" in row and value not in row["choices"]:
            raise ValueError
        return value
    except (KeyError, ValueError):
        raise ValueError(f"configuration key {key!r}: invalid value {text!r}") from None


def _parse_config_spec(spec: str, base_args) -> tuple:
    """NAME=key:value,key:value configuration for bench sweeps; the keys are
    the engine flags' names, with `-` or `_`."""
    name, _, body = spec.partition("=")
    rows = dict(_ENGINE_FLAGS)
    overrides = {}
    for item in filter(None, body.split(",")):
        key, _, text = item.partition(":")
        flag = "--" + key.replace("_", "-")
        if flag not in rows:
            raise ValueError(f"unknown configuration key {key!r}")
        dest = rows[flag].get("dest", flag[2:].replace("-", "_"))
        overrides[dest] = _config_value(key, text, rows[flag])
    return name, _setup_from_args(base_args, **overrides)


def cmd_bench(args) -> int:
    _check_output_path(args.machine_out)
    problems = load_corpus(args.corpus)
    configs = [_parse_config_spec(spec, args) for spec in (args.config or ["default"])]
    names = [name for name, _ in configs]
    for name in names:
        if not name or names.count(name) > 1:
            raise ValueError(f"configuration names must be unique and not empty, got {name!r}")
        if ":" in name or "," in name:
            raise ValueError(f"configuration name {name!r} holds ':' or ','; write NAME=key:value,...")
    models = {}
    for name, setup in configs:
        if setup.model and setup.model not in models:
            models[setup.model] = ProvabilityModel.load(setup.model)

    rows = []
    solved_sets: dict = {name: set() for name in names}
    for info, matrix in _loaded(problems, args):
        for name, setup in configs:
            report = run_engine(matrix, setup, info.name, models.get(setup.model))
            rows.append((info.name, name, report))
            if report.solved:
                solved_sets[name].add(info.name)
    rows.sort(key=lambda r: r[:2])

    print(f"{'problem':28} {'config':14} {'outcome':10} {'ext':>7} {'iter':>7} {'time':>8}")
    for problem, config, report in rows:
        ext = report.extensions if report.extensions is not None else "-"
        iters = report.iterations if report.iterations is not None else "-"
        print(f"{problem:28} {config:14} {report.outcome:10} {ext:>7} {iters:>7} {report.wall_time:>7.2f}s")
    print()
    for name in names:
        others = set().union(*(s for other, s in solved_sets.items() if other != name))
        unique = solved_sets[name] - others
        print(f"config {name}: solved {len(solved_sets[name])}/{len(problems)}, unique {len(unique)}")
        if unique:
            print(f"  unique: {', '.join(sorted(unique))}")

    if args.machine_out:
        with open(args.machine_out, "w", encoding="utf-8") as handle:
            handle.write("problem\tconfig\toutcome\tsolved\textensions\titerations\ttime\n")
            for problem, config, report in rows:
                handle.write(
                    f"{problem}\t{config}\t{report.outcome}\t{int(report.solved)}\t"
                    f"{report.extensions if report.extensions is not None else ''}\t"
                    f"{report.iterations if report.iterations is not None else ''}\t"
                    f"{report.wall_time:.3f}\n"
                )
        print(f"machine report written to {args.machine_out}")
    return 0


def cmd_tsp(args) -> int:
    if args.iterations < 1:
        raise ValueError(f"iterations must be at least 1, got {args.iterations}")
    if args.instance:
        with open(args.instance, encoding="utf-8") as handle:
            instance = TspInstance.parse(handle.read())
    else:
        instance = TspInstance.random(args.random, seed=args.instance_seed)
    game = TspGame(instance, reading=args.weight_reading)
    # the optimum first: an instance too large for brute force fails before the search
    optimum = brute_force_optimum(instance) if args.brute_force else None
    config = mcts.SearchConfig(
        seed=args.seed,
        max_iterations=args.iterations,
        max_sim_depth=instance.n,
        cp_base=args.cp,
    )
    result = mcts.run(game, config)
    best = result.stats.best_state
    print(f"cities     : {instance.n}")
    print(f"iterations : {result.stats.iterations}")
    if best is not None:
        print(f"best tour  : {' '.join(map(str, best))}")
        print(f"best length: {instance.tour_length(best):g}")
    if optimum:
        tour, length = optimum
        print(f"optimum    : {' '.join(map(str, tour))} (length {length:g})")
        if best is not None and instance.tour_length(best) == length:
            print("matched    : yes")
    return 0


def cmd_show(args) -> int:
    matrix = _load_matrix(args.problem, args)
    sys.stdout.write(matrix_to_cnf(matrix))
    print(f"% digest {matrix.digest}", file=sys.stderr)
    return 0


# --- argument parsing ---------------------------------------------------------

# (flag, argparse keywords) for every EngineSetup field; the defaults live in
# EngineSetup, and bench --config keys are these flags' names
_ENGINE_FLAGS = (
    ("--engine", dict(choices=("deepening", "mcts"))),
    ("--timeout", dict(type=float, help="per-problem seconds")),
    ("--max-inferences", dict(type=int)),
    ("--depth-start", dict(type=int)),
    ("--depth-increment", dict(type=int)),
    ("--max-depth", dict(type=int)),
    ("--cut", dict(action="store_true")),
    ("--no-cut", dict(dest="cut", action="store_false")),
    ("--no-regularity", dict(dest="regularity", action="store_false")),
    ("--no-lemmas", dict(dest="lemmas", action="store_false")),
    ("--seed", dict(type=int)),
    ("--cp", dict(type=float)),
    ("--cp-amp", dict(type=float)),
    ("--cp-period", dict(type=float)),
    ("--sim-depth", dict(type=int)),
    ("--expansion", dict(choices=("first", "best"))),
    ("--max-iterations", dict(type=int)),
    ("--weights", dict(choices=WEIGHT_POLICIES)),
    ("--reduction-weight", dict(type=float)),
    ("--reward-ratio-weight", dict(type=float)),
    ("--combiner", dict(choices=COMBINERS)),
    ("--cert-c", dict(type=float)),
    ("--cert-d", dict(type=float)),
    ("--raw-ratio", dict(action="store_true")),
    ("--model", dict(help="literal statistics file")),
)


def _add_engine_flags(parser):
    cut = parser.add_mutually_exclusive_group()
    for flag, kwargs in _ENGINE_FLAGS:
        (cut if flag in ("--cut", "--no-cut") else parser).add_argument(flag, **kwargs)
    parser.set_defaults(**asdict(EngineSetup()))
    parser.add_argument("--include-dir", action="append", default=[])
    parser.add_argument("--equality-axioms", action="store_true")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="mcprover", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("prove", help="prove a single problem")
    p.add_argument("problem")
    _add_engine_flags(p)
    p.add_argument("--proof-out", default=None)
    p.set_defaults(func=cmd_prove, default_timeout=None)

    p = sub.add_parser("train", help="collect literal statistics from solved problems")
    p.add_argument("corpus", nargs="?", default=bundled_corpus_dir())
    _add_engine_flags(p)
    p.add_argument("--model-out", required=True)
    p.add_argument("--verbose", action="store_true")
    p.set_defaults(func=cmd_train, default_timeout=5.0)

    p = sub.add_parser("bench", help="run configuration sweeps over a corpus")
    p.add_argument("corpus", nargs="?", default=bundled_corpus_dir())
    _add_engine_flags(p)
    p.add_argument("--config", action="append", default=None,
                   help="NAME=key:value,... (keys mirror the engine flags)")
    p.add_argument("--machine-out", default=None)
    p.set_defaults(func=cmd_bench, default_timeout=5.0)

    p = sub.add_parser("tsp", help="validate the search engine on travelling salesman")
    p.add_argument("--instance", default=None)
    p.add_argument("--random", type=int, default=6, help="random instance size")
    p.add_argument("--instance-seed", type=int, default=0)
    p.add_argument("--iterations", type=int, default=20000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--cp", type=float, default=mcts.SearchConfig.cp_base)
    p.add_argument("--weight-reading", choices=WEIGHT_READINGS, default="prose")
    p.add_argument("--brute-force", action="store_true")
    p.set_defaults(func=cmd_tsp)

    p = sub.add_parser("show", help="print the prepared matrix in cnf form")
    p.add_argument("problem")
    p.add_argument("--include-dir", action="append", default=[])
    p.add_argument("--equality-axioms", action="store_true")
    p.set_defaults(func=cmd_show)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ParseError, ClausifyError, StoreFormatError, OSError, ValueError, RecursionError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
